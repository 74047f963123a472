"""Property tests: grammar configs round-trip losslessly for *any* valid
config, and (config, seed) pins the trace fingerprint byte-for-byte."""

from hypothesis import given, settings, strategies as st

from repro.workload.grammar import (
    Choice,
    Fixed,
    GrammarWorkload,
    OpMix,
    PhaseBlock,
    Uniform,
    WorkloadConfig,
)
from repro.workload.trace_cache import trace_fingerprint

from presets import PRESETS, make_preset

_sizes = st.integers(min_value=1, max_value=4096)

_distributions = st.one_of(
    _sizes.map(Fixed),
    st.tuples(_sizes, _sizes).map(lambda t: Uniform(min(t), max(t))),
    st.lists(_sizes, min_size=1, max_size=4, unique=True).map(
        lambda values: Choice(tuple(values))
    ),
)

_mixes = st.fixed_dictionaries(
    {},
    optional={
        "create": st.floats(0, 10),
        "delete": st.floats(0, 10),
        "trim": st.floats(0, 10),
        "access": st.floats(0, 10),
        "update": st.floats(0, 10),
        "pointer_churn": st.floats(0, 10),
        "idle": st.floats(0, 10),
    },
).map(lambda kw: OpMix(**kw))

_phases = st.builds(
    PhaseBlock,
    name=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
    operations=st.integers(min_value=0, max_value=60),
    mix=_mixes,
    cluster_size=_distributions,
    object_size=_distributions,
    trim_fraction=st.floats(0.05, 0.95),
    hot_key_skew=st.floats(0.0, 0.95),
    repeat=st.integers(min_value=1, max_value=3),
)

_configs = st.builds(
    WorkloadConfig,
    name=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
    phases=st.lists(_phases, min_size=1, max_size=3).map(tuple),
    ops_per_second=st.one_of(st.none(), st.floats(1.0, 2000.0)),
    initial_clusters=st.integers(min_value=0, max_value=8),
)


@settings(max_examples=40, deadline=None)
@given(config=_configs)
def test_any_config_round_trips_losslessly(config):
    assert WorkloadConfig.from_json(config.to_json()) == config
    assert WorkloadConfig.from_toml(config.to_toml()) == config


@settings(max_examples=25, deadline=None)
@given(config=_configs, seed=st.integers(0, 2**31))
def test_round_tripped_config_pins_the_fingerprint(config, seed):
    original = trace_fingerprint(GrammarWorkload(config, seed=seed), seed)
    via_json = WorkloadConfig.from_json(config.to_json())
    via_toml = WorkloadConfig.from_toml(config.to_toml())
    assert trace_fingerprint(GrammarWorkload(via_json, seed=seed), seed) == original
    assert trace_fingerprint(GrammarWorkload(via_toml, seed=seed), seed) == original


@settings(max_examples=15, deadline=None)
@given(config=_configs, seed=st.integers(0, 2**31))
def test_same_config_and_seed_generate_identical_traces(config, seed):
    first = list(GrammarWorkload(config, seed=seed).events())
    second = list(GrammarWorkload(config, seed=seed).events())
    assert first == second


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(PRESETS)),
    scale=st.floats(0.01, 0.05),
    seed=st.integers(0, 2**31),
)
def test_preset_fingerprints_are_reproducible(name, scale, seed):
    a = trace_fingerprint(make_preset(name, scale=scale, seed=seed), seed)
    b = trace_fingerprint(make_preset(name, scale=scale, seed=seed), seed)
    assert a == b
