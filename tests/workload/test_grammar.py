"""Grammar-driven workloads: distributions, schema, round-trips, generation."""

import random

import pytest

from repro.events import (
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    UpdateEvent,
    trace_stats,
)
from repro.workload.grammar import (
    Choice,
    Fixed,
    GRAMMAR_FORMAT_VERSION,
    GrammarError,
    GrammarWorkload,
    OpMix,
    PhaseBlock,
    TICKS_PER_SECOND,
    Uniform,
    WorkloadConfig,
    _skewed_index,
    distribution_from_dict,
    distribution_to_dict,
)


def _config(**overrides):
    defaults = dict(
        name="test",
        phases=(
            PhaseBlock(
                name="churn",
                operations=200,
                mix=OpMix(create=2, delete=2, trim=1, access=3, update=1),
            ),
        ),
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------


def test_fixed_always_returns_value():
    rng = random.Random(0)
    assert all(Fixed(7).sample(rng) == 7 for _ in range(10))


def test_uniform_stays_in_range():
    rng = random.Random(0)
    dist = Uniform(2, 9)
    assert all(2 <= dist.sample(rng) <= 9 for _ in range(100))


def test_choice_draws_only_listed_values():
    rng = random.Random(0)
    dist = Choice((64, 128), weights=(1, 3))
    assert {dist.sample(rng) for _ in range(50)} <= {64, 128}


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Fixed(-1),
        lambda: Uniform(5, 2),
        lambda: Uniform(-1, 2),
        lambda: Choice(()),
        lambda: Choice((1, 2), weights=(1,)),
        lambda: Choice((1, 2), weights=(0, 0)),
        lambda: Choice((1, 2), weights=(-1, 2)),
    ],
)
def test_invalid_distributions_rejected(bad):
    with pytest.raises(GrammarError):
        bad()


@pytest.mark.parametrize(
    "dist",
    [Fixed(8), Uniform(2, 6), Choice((64, 128, 256), weights=(4, 2, 1)), Choice((1,))],
)
def test_distribution_dict_round_trip(dist):
    assert distribution_from_dict(distribution_to_dict(dist)) == dist


@pytest.mark.parametrize(
    "payload",
    [
        "not-a-dict",
        {"no": "kind"},
        {"kind": "gaussian"},
        {"kind": "fixed", "bogus": 1},
        {"kind": "fixed"},
    ],
)
def test_bad_distribution_payloads_rejected(payload):
    with pytest.raises(GrammarError):
        distribution_from_dict(payload)


# ----------------------------------------------------------------------
# OpMix / PhaseBlock / WorkloadConfig validation
# ----------------------------------------------------------------------


def test_opmix_coerces_int_weights_to_float():
    mix = OpMix(create=3, delete=2)
    assert isinstance(mix.create, float) and mix.create == 3.0


def test_opmix_rejects_bad_weights():
    with pytest.raises(GrammarError):
        OpMix(create=-1)
    with pytest.raises(GrammarError):
        OpMix(create=0, delete=0, trim=0, access=0)
    with pytest.raises(GrammarError):
        OpMix.from_dict({"create": 1, "compact": 2})


def test_phase_block_validation():
    with pytest.raises(GrammarError):
        PhaseBlock(name="", operations=1)
    with pytest.raises(GrammarError):
        PhaseBlock(name="p", operations=-1)
    with pytest.raises(GrammarError):
        PhaseBlock(name="p", operations=1, trim_fraction=1.0)
    with pytest.raises(GrammarError):
        PhaseBlock(name="p", operations=1, hot_key_skew=1.0)
    with pytest.raises(GrammarError):
        PhaseBlock(name="p", operations=1, repeat=0)
    with pytest.raises(GrammarError):
        PhaseBlock.from_dict({"name": "p", "operations": 1, "bogus": 2})


def test_workload_config_validation():
    with pytest.raises(GrammarError):
        WorkloadConfig(name="", phases=(PhaseBlock(name="p", operations=1),))
    with pytest.raises(GrammarError):
        WorkloadConfig(name="w", phases=())
    with pytest.raises(GrammarError):
        _config(ops_per_second=0)
    with pytest.raises(GrammarError):
        _config(initial_clusters=-1)


def test_total_operations_counts_repeats():
    config = WorkloadConfig(
        name="w",
        phases=(
            PhaseBlock(name="a", operations=100, repeat=3),
            PhaseBlock(name="b", operations=50),
        ),
    )
    assert config.total_operations == 350


# ----------------------------------------------------------------------
# Lossless serialisation
# ----------------------------------------------------------------------


def _rich_config():
    return WorkloadConfig(
        name="rich",
        phases=(
            PhaseBlock(
                name="load",
                operations=120,
                mix=OpMix(create=8, delete=0, access=1),
                cluster_size=Fixed(12),
                object_size=Choice((64, 512), weights=(3, 1)),
            ),
            PhaseBlock(
                name="churn",
                operations=200,
                mix=OpMix(create=2, delete=3, trim=1, access=4, update=2,
                          pointer_churn=1, idle=1),
                cluster_size=Uniform(2, 9),
                trim_fraction=0.25,
                hot_key_skew=0.7,
                repeat=2,
            ),
        ),
        ops_per_second=350.0,
        initial_clusters=8,
    )


def test_json_round_trip_is_lossless():
    config = _rich_config()
    assert WorkloadConfig.from_json(config.to_json()) == config


def test_toml_round_trip_is_lossless():
    config = _rich_config()
    assert WorkloadConfig.from_toml(config.to_toml()) == config


def test_round_trip_preserves_ops_per_second_absence():
    config = _config()  # ops_per_second=None
    assert "ops_per_second" not in config.to_dict()
    assert WorkloadConfig.from_json(config.to_json()).ops_per_second is None
    assert WorkloadConfig.from_toml(config.to_toml()).ops_per_second is None


def test_from_dict_rejects_other_versions_and_unknown_keys():
    payload = _config().to_dict()
    with pytest.raises(GrammarError):
        WorkloadConfig.from_dict(dict(payload, format=GRAMMAR_FORMAT_VERSION + 1))
    with pytest.raises(GrammarError):
        WorkloadConfig.from_dict(dict(payload, compaction="eager"))
    with pytest.raises(GrammarError):
        WorkloadConfig.from_json("{not json")
    with pytest.raises(GrammarError):
        WorkloadConfig.from_toml("= broken")


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def test_same_seed_same_trace():
    config = _rich_config()
    a = list(GrammarWorkload(config, seed=5).events())
    b = list(GrammarWorkload(config, seed=5).events())
    assert a == b


def test_different_seeds_differ():
    config = _rich_config()
    a = list(GrammarWorkload(config, seed=0).events())
    b = list(GrammarWorkload(config, seed=1).events())
    assert a != b


def test_trace_replays_through_simulation():
    from repro.core.fixed import FixedRatePolicy
    from repro.sim.simulator import Simulation

    events = list(GrammarWorkload(_rich_config(), seed=0).events())
    result = Simulation(policy=FixedRatePolicy(20)).run(events)
    assert result.summary.collections > 0


def test_phase_markers_respect_repeat():
    config = WorkloadConfig(
        name="w",
        phases=(
            PhaseBlock(name="solo", operations=5),
            PhaseBlock(name="cycle", operations=5, repeat=2),
        ),
    )
    markers = [
        e.name
        for e in GrammarWorkload(config, seed=0).events()
        if isinstance(e, PhaseMarkerEvent)
    ]
    assert markers == ["solo", "cycle#0", "cycle#1"]


def test_ops_per_second_paces_with_idle_ticks():
    saturated = _config(ops_per_second=None)
    paced = _config(ops_per_second=100.0)
    idle_free = [
        e for e in GrammarWorkload(saturated, seed=0).events()
        if isinstance(e, IdleEvent)
    ]
    paced_idle = [
        e for e in GrammarWorkload(paced, seed=0).events()
        if isinstance(e, IdleEvent)
    ]
    assert not idle_free
    # 100 ops/s → 10 ticks per operation, across 200 operations.
    total_ticks = sum(e.ticks for e in paced_idle)
    expected = _config().total_operations * TICKS_PER_SECOND / 100.0
    assert total_ticks == pytest.approx(expected, rel=0.05)


def test_update_and_churn_produce_no_garbage():
    config = WorkloadConfig(
        name="no-garbage",
        phases=(
            PhaseBlock(
                name="p",
                operations=100,
                mix=OpMix(create=0, delete=0, access=0, update=1, pointer_churn=1),
            ),
        ),
    )
    events = list(GrammarWorkload(config, seed=0).events())
    # Setup creates; the phase only updates and churns pointers.
    assert any(isinstance(e, UpdateEvent) for e in events)
    churn = [
        e for e in events
        if isinstance(e, PointerWriteEvent) and e.target is not None and not e.dies
    ]
    assert len(churn) > 16  # beyond the 16 setup registry writes
    assert not any(e.dies for e in events if isinstance(e, PointerWriteEvent))


def test_delete_frees_whole_cluster():
    config = WorkloadConfig(
        name="delete",
        phases=(
            PhaseBlock(
                name="p",
                operations=50,
                mix=OpMix(create=0, delete=1, access=0),
                cluster_size=Fixed(4),
            ),
        ),
        initial_clusters=8,
    )
    events = list(GrammarWorkload(config, seed=0).events())
    dies = [e.dies for e in events if isinstance(e, PointerWriteEvent) and e.dies]
    assert dies and all(len(d) == 4 for d in dies)
    stats = trace_stats(events)
    assert stats.deaths == 8 * 4


def test_skewed_index_uniform_at_zero_and_concentrated_near_one():
    rng = random.Random(0)
    uniform = [_skewed_index(rng, 100, 0.0) for _ in range(2000)]
    skewed = [_skewed_index(rng, 100, 0.9) for _ in range(2000)]
    assert all(0 <= i < 100 for i in uniform + skewed)
    # Heavy skew concentrates on low indices (the "hot" clusters).
    assert sum(skewed) / len(skewed) < sum(uniform) / len(uniform) / 3


def test_object_sizes_follow_distribution():
    config = WorkloadConfig(
        name="sizes",
        phases=(
            PhaseBlock(
                name="p",
                operations=60,
                mix=OpMix(create=1, delete=0, access=0),
                object_size=Choice((64, 512)),
            ),
        ),
        initial_clusters=0,
    )
    workload = GrammarWorkload(config, seed=0)
    sizes = {
        e.size for e in workload.events() if isinstance(e, CreateEvent)
    }
    assert sizes == {64, 512}  # the size-64 registry object plus both draws
