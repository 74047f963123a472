"""The metrics registry: instruments and snapshots."""

import pytest

from repro.obs.registry import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_accumulates_and_rejects_decrease(registry):
    c = registry.counter("gc.collections")
    c.inc()
    c.inc(2)
    assert c.value == 3
    with pytest.raises(ValueError):
        c.inc(-1)


def test_instruments_are_lazy_singletons(registry):
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    # Different families never alias, even under the same name.
    assert registry.counter("x") is not registry.gauge("x")


def test_gauge_set_and_add(registry):
    g = registry.gauge("sim.db_size")
    g.set(10.0)
    g.add(-3.0)
    assert g.value == 7.0


def test_histogram_tracks_shape(registry):
    h = registry.histogram("latency")
    for value in (1, 3, 3, 100):
        h.observe(value)
    d = h.as_dict()
    assert d["count"] == 4
    assert d["min"] == 1
    assert d["max"] == 100
    assert d["total"] == 107
    assert d["mean"] == pytest.approx(26.75)
    # Power-of-two buckets: 1, 4 (for the 3s), 128 (for 100).
    assert d["buckets"] == {"1": 1, "4": 2, "128": 1}


def test_histogram_zero_and_negative_share_bucket(registry):
    h = registry.histogram("deltas")
    h.observe(0)
    h.observe(-5)
    assert h.as_dict()["buckets"] == {"0": 2}


def test_empty_histogram_renders_zeroes(registry):
    d = registry.histogram("empty").as_dict()
    assert d == {
        "count": 0,
        "total": 0,
        "min": 0,
        "max": 0,
        "mean": 0.0,
        "buckets": {},
    }


def test_snapshot_is_sorted_and_integral_floats_render_as_ints(registry):
    registry.counter("b").inc(4)
    registry.counter("a").inc(2.5)
    registry.gauge("z").set(3.0)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    assert snap["counters"]["b"] == 4
    assert isinstance(snap["counters"]["b"], int)
    assert snap["counters"]["a"] == 2.5
    assert snap["gauges"]["z"] == 3
    assert isinstance(snap["gauges"]["z"], int)


def test_set_many_prefixes_gauges(registry):
    registry.set_many({"reads": 10, "writes": 5}, prefix="io.")
    assert registry.gauge("io.reads").value == 10.0
    assert registry.gauge("io.writes").value == 5.0


def test_iteration_yields_counters_then_gauges(registry):
    registry.gauge("g").set(1.0)
    registry.counter("c").inc()
    assert list(registry) == [("c", 1.0), ("g", 1.0)]
