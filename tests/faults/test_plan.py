"""FaultPlan / FaultSpec validation and JSON round-trips."""

import pytest

from repro.faults.plan import EFFECTS, SITES, FaultPlan, FaultSpec, load_fault_plan


def test_sites_and_effects_are_closed_sets():
    assert "tx.commit" in SITES
    assert "gc.collect" in SITES
    assert EFFECTS == {"crash", "io-error", "torn-write"}


def test_at_based_spec():
    spec = FaultSpec(site="io.read", at=3)
    assert spec.effect == "crash"
    assert spec.at == 3 and spec.probability is None


def test_probability_based_spec():
    spec = FaultSpec(site="io.write", effect="io-error", probability=0.5)
    assert spec.probability == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(site="nope", at=1),
        dict(site="io.read", effect="nope", at=1),
        dict(site="io.read"),  # neither at nor probability
        dict(site="io.read", at=1, probability=0.5),  # both
        dict(site="io.read", at=0),  # 1-based
        dict(site="io.read", probability=1.5),
        dict(site="io.read", effect="torn-write", at=1),  # wrong site
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultSpec(**kwargs)


def test_torn_write_requires_page_write_site():
    FaultSpec(site="page.write", effect="torn-write", at=1)  # ok


def test_plan_coerces_fault_list_to_tuple():
    plan = FaultPlan(faults=[FaultSpec(site="io.read", at=1)])
    assert isinstance(plan.faults, tuple)


def test_json_round_trip():
    plan = FaultPlan(
        faults=(
            FaultSpec(site="tx.commit", at=4),
            FaultSpec(site="io.read", effect="io-error", probability=0.25, repeat=True),
            FaultSpec(site="page.write", effect="torn-write", at=7),
        ),
        seed=99,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_from_json_defaults():
    plan = FaultPlan.from_json('{"faults": [{"site": "io.read", "at": 2}]}')
    assert plan.seed == 0
    assert plan.faults[0].effect == "crash"
    assert plan.faults[0].repeat is False


def test_from_json_rejects_non_object():
    with pytest.raises(ValueError):
        FaultPlan.from_json("[1, 2, 3]")


@pytest.mark.parametrize(
    "text",
    ['{"faults": [5]}', '{"faults": [{"site": "io.read", "at": "1"}]}'],
    ids=["entry-not-an-object", "at-not-a-number"],
)
def test_from_json_raises_value_error_for_any_malformed_plan(text):
    """Beside the plans the CLI test feeds ``--faults``: entries that are
    not objects, and fields of the wrong type."""
    with pytest.raises(ValueError):
        FaultPlan.from_json(text)


def test_load_fault_plan(tmp_path):
    plan = FaultPlan(faults=(FaultSpec(site="gc.collect", at=1),), seed=7)
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    assert load_fault_plan(path) == plan
