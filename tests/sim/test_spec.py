"""Tests for the declarative experiment spec and its registries."""

import pytest

from repro.core.fixed import AllocationRatePolicy, FixedRatePolicy
from repro.core.saga import SagaPolicy
from repro.gc.selection import RandomSelection, UpdatedPointerSelection
from repro.oo7.config import TINY
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import (
    _WORKLOAD_REGISTRY,
    ExperimentSpec,
    PolicySpec,
    SelectionSpec,
    WorkloadSpec,
    build_policy,
    build_selection,
    build_workload,
    register_policy,
    spec_material,
)
from repro.storage.heap import StoreConfig
from repro.workload import base
from repro.workload.tenants import make_profile, tenant_mix

TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)
SIM = SimulationConfig(store=TINY_STORE, preamble_collections=0)


def tiny_spec(policy=None, label=""):
    return ExperimentSpec(
        policy=policy or PolicySpec("fixed", {"overwrites_per_collection": 50}),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SIM,
        label=label,
    )


# ---------------------------------------------------------------- resolution


def test_builders_build_live_objects():
    spec = tiny_spec()
    assert isinstance(build_policy(spec.policy, 0), FixedRatePolicy)
    assert isinstance(build_selection(spec.selection, 0), UpdatedPointerSelection)
    assert any(True for _ in build_workload(spec.workload, 0))


def test_builders_build_fresh_instances_per_call():
    spec = tiny_spec()
    assert build_policy(spec.policy, 0) is not build_policy(spec.policy, 0)
    assert build_workload(spec.workload, 0) is not build_workload(spec.workload, 0)


#: Small kwargs for every built-in workload kind.
WORKLOAD_KWARGS = {
    "oo7": {"config": TINY},
    "transactional": {"initial_clusters": 4},
    "grammar": {"config": make_profile("oltp-churn")},
    "tenant-mix": {"config": tenant_mix(["oltp-churn"], scale=0.05)},
}


def test_every_workload_builder_returns_a_stepped_workload():
    """Every built-in kind builds the workload object, never an event
    iterator, and the object has the step form the trace cache cuts."""
    built_in = [
        kind
        for kind, builder in _WORKLOAD_REGISTRY.items()
        if builder.__module__ == "repro.sim.spec"
    ]
    assert sorted(built_in) == sorted(WORKLOAD_KWARGS)
    for kind in built_in:
        workload = build_workload(WorkloadSpec(kind, WORKLOAD_KWARGS[kind]), 3)
        assert isinstance(workload, base.Workload), kind
        assert workload.seed == 3
        assert callable(workload.steps)


def test_builtin_policy_kinds():
    assert isinstance(
        build_policy(PolicySpec("allocation", {"bytes_per_collection": 1000}), 0),
        AllocationRatePolicy,
    )
    saga = build_policy(
        PolicySpec(
            "saga", {"garbage_fraction": 0.1, "estimator": "oracle", "weight": 0.4}
        ),
        0,
    )
    assert isinstance(saga, SagaPolicy)


def test_unknown_kind_raises_with_choices():
    with pytest.raises(ValueError, match="unknown policy kind 'bogus'"):
        build_policy(PolicySpec("bogus"), 0)
    with pytest.raises(ValueError, match="unknown workload"):
        build_workload(WorkloadSpec("bogus"), 0)
    with pytest.raises(ValueError, match="unknown selection"):
        build_selection(SelectionSpec("bogus"), 0)


def test_selection_gets_the_run_seed():
    selection = build_selection(SelectionSpec("random"), seed=5)
    assert isinstance(selection, RandomSelection)


def test_registry_is_extensible():
    register_policy("test-fixed-77", lambda seed: FixedRatePolicy(77))
    try:
        policy = build_policy(PolicySpec("test-fixed-77"), 0)
        assert isinstance(policy, FixedRatePolicy)
    finally:
        from repro.sim import spec as spec_module

        del spec_module._POLICY_REGISTRY["test-fixed-77"]


# ---------------------------------------------------------------- hashing material


def test_spec_material_is_stable():
    assert spec_material(tiny_spec(), seed=3) == spec_material(tiny_spec(), seed=3)


def test_spec_material_ignores_label():
    plain = spec_material(tiny_spec(label=""))
    labelled = spec_material(tiny_spec(label="figure99 fancy name"))
    assert plain == labelled


def test_spec_material_varies_with_seed_and_kwargs():
    base = spec_material(tiny_spec(), seed=0)
    assert spec_material(tiny_spec(), seed=1) != base
    changed = tiny_spec(
        policy=PolicySpec("fixed", {"overwrites_per_collection": 51})
    )
    assert spec_material(changed, seed=0) != base


def test_spec_material_tags_dataclass_types():
    material = spec_material(tiny_spec())
    assert material["workload"]["kwargs"]["config"]["__class__"] == "OO7Config"
    assert material["sim"]["__class__"] == "SimulationConfig"


def test_spec_material_rejects_opaque_values():
    bad = tiny_spec(policy=PolicySpec("fixed", {"callback": object()}))
    with pytest.raises(TypeError, match="cannot be part of a cacheable"):
        spec_material(bad)
