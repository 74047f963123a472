"""Replayable streams: resume exactness, bounded generator state, and the
column-chunk route the service reads."""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import CreateEvent, PointerWriteEvent
from repro.faults.drill import state_digest
from repro.service import stream as stream_module
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import (
    ReplayableStream,
    finite_stream,
    grammar_stream,
    tenant_stream,
)
from repro.sim.spec import PolicySpec, build_policy
from repro.tx.recovery import recover
from repro.workload.grammar import GrammarWorkload
from repro.workload.tenants import make_profile, tenant_mix


def take(stream, n, start=0):
    return list(itertools.islice(stream.events_from(start), n))


def test_finite_stream_replays_identically():
    events = take(grammar_stream(make_profile("oltp-churn"), seed=1), 500)
    stream = finite_stream(events, label="t")
    assert take(stream, 500) == events
    assert take(stream, 500) == events  # factory restarts, not one-shot


def test_events_from_negative_rejected():
    stream = finite_stream([], label="t")
    with pytest.raises(ValueError):
        stream.events_from(-1)


@pytest.mark.parametrize("start", [0, 1, 997, 5000])
def test_grammar_stream_resumes_at_exact_index(start):
    stream = grammar_stream(make_profile("oltp-churn"), seed=9)
    full = take(stream, start + 300)
    resumed = take(stream, 300, start=start)
    assert resumed == full[start:]


def test_tenant_stream_resumes_at_exact_index():
    config = tenant_mix(["oltp-churn", "read-browse"], scale=0.5)
    stream = tenant_stream(config, seed=4)
    full = take(stream, 4000)
    assert take(stream, 1500, start=2500) == full[2500:]


def test_grammar_stream_bounds_generator_state():
    workload = GrammarWorkload(make_profile("oltp-churn"), seed=3)
    consumed = 0
    for _event in workload.stream(max_live_clusters=16):
        consumed += 1
        if consumed >= 30_000:
            break
    # Live clusters capped, per-oid size tracking off: O(1) in the stream.
    assert len(workload.clusters) <= 16
    assert workload.object_sizes == {}


def test_grammar_stream_recycles_registry_slots():
    """Unbounded streams must not mint one registry slot per cluster ever.

    Slot reuse keeps the registry object's pointer dictionary (and hence
    the modelled store) bounded: after tens of thousands of events the
    slot counter must stay within the live-cluster cap plus setup slack,
    not grow linearly with churn.
    """
    workload = GrammarWorkload(make_profile("oltp-churn"), seed=3)
    creates = 0
    for event in workload.stream(max_live_clusters=16):
        if isinstance(event, CreateEvent):
            creates += 1
        if creates >= 10_000:
            break
    assert workload._next_slot <= 16 + workload.config.initial_clusters + 1
    assert len(workload._free_slots) <= workload._next_slot


def test_finite_mode_does_not_recycle_slots():
    """The one-shot trace keeps its historical slot naming (A/B stability)."""
    workload = GrammarWorkload(make_profile("oltp-churn"), seed=3)
    events = list(workload.events())
    slots = {
        e.slot
        for e in events
        if isinstance(e, PointerWriteEvent) and e.target is not None
    }
    assert workload._free_slots == []
    assert workload._next_slot >= len(slots) - 1  # registry link slots


def test_replayable_stream_material_is_plain_data():
    stream = grammar_stream(make_profile("read-browse"), seed=2)
    assert stream.material["kind"] == "grammar"
    assert stream.material["seed"] == 2
    assert stream.label == "read-browse"
    assert ReplayableStream(factory=list, label="x").material == {}


# ----------------------------------------------------------------------
# The chunk route
# ----------------------------------------------------------------------

CHUNK_LENGTHS = [1, 7, 4096]


def _decode(stream, start, n):
    """The first ``n`` events the chunk route serves from ``start``."""
    events = []
    for chunk, offset in stream.chunks_from(start):
        events.extend(chunk.replay(offset))
        if len(events) >= n:
            break
    return events[:n]


def _chunked_streams():
    mix = tenant_mix(["oltp-churn", "read-browse"], scale=0.5)
    grammar = grammar_stream(make_profile("hot-key-skew"), seed=6, max_live_clusters=24)
    return {
        "grammar": grammar,
        "tenants": tenant_stream(mix, seed=4, max_live_clusters=32),
        "finite": finite_stream(take(grammar, 9000)),
    }


@pytest.fixture(scope="module")
def reference_events():
    return {name: take(stream, 9000) for name, stream in _chunked_streams().items()}


@pytest.mark.parametrize("length", CHUNK_LENGTHS)
@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(["grammar", "tenants", "finite"]),
    start=st.one_of(
        st.integers(0, 8500), st.sampled_from([0, 1, 6, 7, 8, 4095, 4096, 4097, 8192])
    ),
)
def test_chunks_from_any_start_decode_to_the_event_suffix(
    reference_events, length, name, start
):
    stream = _chunked_streams()[name]
    count = min(300, 9000 - start)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stream_module, "CHUNK_EVENTS", length)
        decoded = _decode(stream, start, count)
        first, offset = next(stream.chunks_from(start))
    assert decoded == reference_events[name][start : start + count]
    # Only the chunk a resume lands in is entered part-way.
    assert 0 <= offset < len(first)
    if name != "finite":
        assert offset == start % length


def test_chunk_route_rejects_a_negative_start():
    for stream in _chunked_streams().values():
        with pytest.raises(ValueError):
            stream.chunks_from(-1)


def test_replayable_stream_takes_exactly_one_source():
    with pytest.raises(ValueError):
        ReplayableStream(label="neither")
    with pytest.raises(ValueError):
        ReplayableStream(factory=list, steps=lambda out: iter(()))


@pytest.mark.parametrize("length", CHUNK_LENGTHS)
def test_service_results_do_not_depend_on_chunk_length(monkeypatch, length):
    def run():
        service = GcService(
            policy=build_policy(PolicySpec("saga", {"garbage_fraction": 0.3}), 2),
            stream=tenant_stream(
                tenant_mix(["oltp-churn", "bulk-load"]), seed=2, max_live_clusters=32
            ),
            service=ServiceConfig(
                max_events=5_000,
                checkpoint_every_events=1_300,
                max_heap_bytes=150_000,
                backpressure="shed",
            ),
        )
        report = dataclasses.asdict(service.run())
        report.pop("wall_s")
        report.pop("stream_wait_s")
        sim = service.sim
        summary = pickle.dumps(sim.sampler.summary(sim.store, sim.store.iostats))
        return report, summary, state_digest(recover(sim.redo_log))

    reference = run()
    assert reference[0]["backpressure"]["forced_collections"] > 0
    monkeypatch.setattr(stream_module, "CHUNK_EVENTS", length)
    assert run() == reference


def test_chunk_route_state_stays_bounded_over_fifty_cycles():
    """Fifty trips round the phase list: generator state is capped by the
    live-cluster bound and every chunk brings its own small string table —
    ``phase@cycle`` markers must not pile up in one stream-long table."""
    workload = GrammarWorkload(make_profile("oltp-churn", scale=0.2), seed=3)
    stream = ReplayableStream(
        steps=lambda out: workload.steps(out, max_live_clusters=16), label="bounded"
    )
    cycles = set()
    table_sizes = []
    for chunk, _offset in stream.chunks_from(0):
        names = [chunk.strings[a] for op, a in zip(chunk.ops, chunk.arg0) if op == 5]
        cycles.update(int(name.rsplit("@", 1)[1]) for name in names)
        table_sizes.append(len(chunk.strings))
        assert len(chunk) == stream_module.CHUNK_EVENTS
        if len(cycles) > 50:
            break
    assert len(table_sizes) >= 6
    # Slots are recycled, so a chunk names at most the live slots, "next",
    # the kind tag and the few markers it spans.
    assert max(table_sizes) <= 16 + workload.config.initial_clusters + 12
    assert max(table_sizes[-3:]) <= max(table_sizes[:3])
    assert len(workload.clusters) <= 16
    assert workload.object_sizes == {}
    assert len(workload._free_slots) <= workload._next_slot <= 16 + 24 + 1
