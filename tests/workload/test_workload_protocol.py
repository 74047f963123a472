"""The unified WorkloadSpec protocol and trace-fingerprint stability.

Covers the ISSUE's API-redesign satellites: every workload class conforms
to :class:`repro.workload.base.WorkloadSpec`, fingerprints derive from
``canonical_material()``, the deprecated bare-list preset surface still
works (with a warning), and same (config, seed) means byte-identical
fingerprints — in-process, across processes, and across serialisation
round-trips.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.oo7.config import TINY
from repro.workload import (
    GrammarWorkload,
    Oo7Application,
    PresetWorkload,
    SyntheticWorkload,
    TenantMix,
    TransactionalWorkload,
    WorkloadSpec,
    make_preset,
    steady_churn,
    tenant_mix,
)
from repro.workload.grammar import OpMix, PhaseBlock, WorkloadConfig
from repro.workload.trace_cache import TraceCache, trace_fingerprint
from repro.workload.transactional import TransactionalSpec


def _grammar_config():
    return WorkloadConfig(
        name="proto",
        phases=(
            PhaseBlock(name="p", operations=50, mix=OpMix(create=2, delete=1)),
        ),
    )


def _workloads():
    return [
        Oo7Application(TINY, seed=1),
        SyntheticWorkload(steady_churn(0.01), seed=1),
        TransactionalWorkload(TransactionalSpec(), seed=1),
        GrammarWorkload(_grammar_config(), seed=1),
        TenantMix(tenant_mix(["oltp-churn", "read-browse"], scale=0.05), seed=1),
        make_preset("steady-churn", scale=0.01, seed=1),
    ]


@pytest.mark.parametrize(
    "workload", _workloads(), ids=lambda w: type(w).__name__
)
def test_every_workload_conforms_to_the_protocol(workload):
    assert isinstance(workload, WorkloadSpec)
    assert workload.seed == 1
    material = workload.canonical_material()
    assert isinstance(material, dict) and "workload" in material
    events = list(workload.events())
    assert events


@pytest.mark.parametrize(
    "workload", _workloads(), ids=lambda w: type(w).__name__
)
def test_fingerprint_stable_within_process(workload):
    # A fresh equal-constructed instance fingerprints identically; a
    # different seed does not.
    assert trace_fingerprint(workload, 0) == trace_fingerprint(workload, 0)
    assert trace_fingerprint(workload, 0) != trace_fingerprint(workload, 1)


def test_fingerprint_uses_canonical_material():
    class Custom:
        seed = 0

        def events(self):
            return iter(())

        def canonical_material(self):
            return {"workload": "custom", "knob": 3}

    class SameMaterial(Custom):
        pass

    assert trace_fingerprint(Custom(), 0) == trace_fingerprint(SameMaterial(), 0)


def test_preset_fingerprint_matches_equivalent_synthetic():
    # A preset is its phase list: same canonical material as a
    # SyntheticWorkload built from the same phases, so they share cache
    # entries.
    preset = make_preset("steady-churn", scale=0.01, seed=2)
    manual = SyntheticWorkload(steady_churn(0.01), seed=2)
    assert preset.canonical_material() == manual.canonical_material()
    assert trace_fingerprint(preset, 0) == trace_fingerprint(manual, 0)


def test_trace_cache_consumes_protocol_workloads(tmp_path):
    cache = TraceCache(tmp_path)
    workload = GrammarWorkload(_grammar_config(), seed=0)
    first = list(cache.get_or_build(workload, 0).replay())
    again = list(
        cache.get_or_build(GrammarWorkload(_grammar_config(), seed=0), 0).replay()
    )
    assert first == again == list(GrammarWorkload(_grammar_config(), seed=0).events())
    assert cache.stats.builds == 1
    assert cache.stats.resolutions == 2


# ----------------------------------------------------------------------
# Preset surface
# ----------------------------------------------------------------------


def test_make_preset_returns_workload():
    preset = make_preset("steady-churn", scale=0.01)
    assert isinstance(preset, PresetWorkload)
    assert preset.phases == steady_churn(0.01)
    # A preset is a workload, not a list of phases: the list shim is gone.
    with pytest.raises(TypeError):
        iter(preset)


def test_make_preset_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="steady-churn"):
        make_preset("no-such-preset")


# ----------------------------------------------------------------------
# Cross-process and round-trip fingerprint stability
# ----------------------------------------------------------------------

_SUBPROCESS_SNIPPET = textwrap.dedent(
    """
    from repro.oo7.config import TINY
    from repro.workload import (
        GrammarWorkload, Oo7Application, make_preset, tenant_mix, TenantMix,
    )
    from repro.workload.grammar import OpMix, PhaseBlock, WorkloadConfig
    from repro.workload.trace_cache import trace_fingerprint

    config = WorkloadConfig(
        name="proto",
        phases=(
            PhaseBlock(name="p", operations=50, mix=OpMix(create=2, delete=1)),
        ),
    )
    for workload in (
        GrammarWorkload(config, seed=1),
        TenantMix(tenant_mix(["oltp-churn", "read-browse"], scale=0.05), seed=1),
        Oo7Application(TINY, seed=1),
        make_preset("steady-churn", scale=0.01, seed=1),
    ):
        print(trace_fingerprint(workload, 7))
    """
)


def test_fingerprints_are_stable_across_processes():
    def run():
        return subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()

    first = run()
    assert len(first) == 4 and all(len(f) == 64 for f in first)
    assert first == run()

    # And the parent process agrees with the children.
    local = [
        trace_fingerprint(GrammarWorkload(_grammar_config(), seed=1), 7),
        trace_fingerprint(
            TenantMix(tenant_mix(["oltp-churn", "read-browse"], scale=0.05), seed=1),
            7,
        ),
        trace_fingerprint(Oo7Application(TINY, seed=1), 7),
        trace_fingerprint(make_preset("steady-churn", scale=0.01, seed=1), 7),
    ]
    assert local == first


def test_grammar_fingerprint_survives_json_and_toml_round_trips():
    config = _grammar_config()
    original = trace_fingerprint(GrammarWorkload(config, seed=3), 0)
    via_json = WorkloadConfig.from_json(config.to_json())
    via_toml = WorkloadConfig.from_toml(config.to_toml())
    assert trace_fingerprint(GrammarWorkload(via_json, seed=3), 0) == original
    assert trace_fingerprint(GrammarWorkload(via_toml, seed=3), 0) == original


def test_tenant_mix_fingerprint_survives_json_round_trip():
    from repro.workload import TenantMixConfig

    mix = tenant_mix(["oltp-churn", "bulk-load"], scale=0.1)
    original = trace_fingerprint(TenantMix(mix, seed=3), 0)
    rebuilt = TenantMixConfig.from_json(mix.to_json())
    assert trace_fingerprint(TenantMix(rebuilt, seed=3), 0) == original
