"""TraceCache: content addressing, layering, and corruption handling."""

import pytest

from repro.events import AccessEvent, CreateEvent
from repro.oo7.config import TINY
from repro.sim.spec import WorkloadSpec, build_workload
from repro.workload.compiled import compile_trace
from repro.workload.trace_cache import DEFAULT_MEMO_TRACES, TraceCache, trace_fingerprint

WL = WorkloadSpec("oo7", {"config": TINY})


class FakeWorkload:
    """The smallest workload the cache builds: a fixed event list behind the
    protocol's ``events()`` / ``canonical_material()``, counting its builds."""

    def __init__(self, events=(AccessEvent(oid=1),), name="fake"):
        self._events = list(events)
        self.material = {"workload": name}
        self.built = 0

    def canonical_material(self):
        return self.material

    def events(self):
        self.built += 1
        return iter(self._events)


def test_fingerprint_is_stable_and_sensitive():
    assert trace_fingerprint(WL, 0) == trace_fingerprint(WL, 0)
    assert trace_fingerprint(WL, 0) != trace_fingerprint(WL, 1)
    other = WorkloadSpec("oo7", {"config": TINY, "phases": ("gendb",)})
    assert trace_fingerprint(WL, 0) != trace_fingerprint(other, 0)


def test_get_or_build_builds_once_then_hits(tmp_path):
    cache = TraceCache(tmp_path)
    events = list(build_workload(WL, 0))

    first = cache.get_or_build(WL, 0)
    assert cache.stats.builds == 1
    assert list(first) == events

    again = cache.get_or_build(WL, 0)
    assert again is first  # in-process memo
    assert cache.stats.memo_hits == 1
    assert cache.stats.builds == 1

    # A fresh instance over the same directory loads from disk.
    fresh = TraceCache(tmp_path)
    loaded = cache_trace = fresh.get_or_build(WL, 0)
    assert fresh.stats.disk_hits == 1
    assert fresh.stats.builds == 0
    assert list(cache_trace) == events
    assert loaded is not first


def test_warm_reports_cold_vs_hot(tmp_path):
    cache = TraceCache(tmp_path)
    assert cache.warm(WL, 0) is True
    assert cache.warm(WL, 0) is False
    assert TraceCache(tmp_path).warm(WL, 0) is False


def test_memo_only_cache_writes_nothing(tmp_path):
    cache = TraceCache(None)
    workload = FakeWorkload()
    cache.get_or_build(workload, 0)
    assert cache.stats.builds == 1
    cache.get_or_build(workload, 0)
    assert cache.stats.memo_hits == 1
    assert workload.built == 1
    assert len(cache) == 0
    assert list(tmp_path.iterdir()) == []


def test_entry_path_none_without_disk_layer():
    assert TraceCache(None).entry_path("ab" * 32) is None


def test_corrupt_entry_quarantined_and_rebuilt(tmp_path):
    events = [CreateEvent(oid=1, size=16), AccessEvent(oid=1)]
    workload = FakeWorkload(events)
    cache = TraceCache(tmp_path)
    key = trace_fingerprint(workload, 0)
    cache.put(key, compile_trace(events))
    path = cache._path(key)
    path.write_bytes(b"garbage" * 10)

    fresh = TraceCache(tmp_path)
    rebuilt = fresh.get_or_build(workload, 0)
    assert fresh.stats.quarantined == 1
    assert fresh.stats.builds == 1
    assert list(rebuilt) == events
    quarantined = list((tmp_path / "quarantine").iterdir())
    assert len(quarantined) == 1
    assert quarantined[0].name.endswith(".corrupt")


def test_entry_with_trailing_bytes_is_quarantined(tmp_path):
    """Junk appended to a good file is damage, not padding: the entry is
    moved aside like a torn one and the trace is rebuilt."""
    events = [CreateEvent(oid=1, size=16), AccessEvent(oid=1)]
    workload = FakeWorkload(events)
    TraceCache(tmp_path).get_or_build(workload, 0)
    path = TraceCache(tmp_path).entry_path(trace_fingerprint(workload, 0))
    path.write_bytes(path.read_bytes() + b"\x00" * 16)

    fresh = TraceCache(tmp_path)
    assert list(fresh.get_or_build(workload, 0)) == events
    assert (fresh.stats.quarantined, fresh.stats.disk_hits, fresh.stats.builds) == (1, 0, 1)
    assert len(list((tmp_path / "quarantine").iterdir())) == 1


def test_uncacheable_workload_bypasses_cache(tmp_path):
    cache = TraceCache(tmp_path)
    workload = FakeWorkload([AccessEvent(oid=7)])
    workload.material = {"junk": object()}
    trace = cache.get_or_build(workload, 0)
    assert list(trace) == [AccessEvent(oid=7)]
    assert cache.stats.uncacheable == 1
    assert len(cache) == 0


def test_memo_eviction_is_bounded(tmp_path):
    cache = TraceCache(tmp_path)
    workload = FakeWorkload()
    for seed in range(DEFAULT_MEMO_TRACES + 1):
        cache.get_or_build(workload, seed)
    assert len(cache._memo) == DEFAULT_MEMO_TRACES
    assert len(cache) == DEFAULT_MEMO_TRACES + 1  # every build still landed on disk
    # The oldest trace was evicted: resolving it again reads the disk layer.
    cache.get_or_build(workload, 0)
    assert (cache.stats.disk_hits, workload.built) == (1, DEFAULT_MEMO_TRACES + 1)


def test_clear_removes_entries(tmp_path):
    cache = TraceCache(tmp_path)
    workload = FakeWorkload()
    cache.get_or_build(workload, 0)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0
    # And the next resolution rebuilds.
    cache.get_or_build(workload, 0)
    assert cache.stats.builds == 2


def test_hit_rate():
    cache = TraceCache(None)
    assert cache.stats.hit_rate == 0.0
    workload = FakeWorkload(events=())
    for _ in range(3):
        cache.get_or_build(workload, 0)
    assert cache.stats.hit_rate == pytest.approx(2 / 3)
