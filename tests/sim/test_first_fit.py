"""First fit from the fit cursors against the linear scan they replaced.

``ObjectStore._place`` and its mirror in the CREATE block of
``batch._run_fused`` start each scan of the open-partition list at the
object size's cursor. :func:`linear_place` is the scan they had before:
from the front of the list, on every create. Generated programs mix object
sizes that leave slivers, transaction aborts (``expunge``), a heap bound,
collections (compaction, reopen) and open-list prunes; the guarded and the
fused route of a ``GcService`` must leave the store the linear scan leaves,
placement for placement, and pass ``validate_store`` — the cursor
invariant included.
"""

import contextlib
import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.sim import batch
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import PolicySpec, build_policy
from repro.storage import heap
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.validation import validate_store

from event_oracle import store_fields
from streams import finite_stream

#: 1 KB partitions: a few objects fill one, and most leave a sliver.
STORE = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)
#: Sizes that divide the partition (exact fills, hence prunes), sizes that
#: leave slivers, and one larger than a partition (a partition of its own).
SIZES = (24, 64, 100, 120, 128, 200, 256, 300, 512, 1100)


def linear_place(store, oid, size):
    """``ObjectStore._place`` before the fit cursors: the first open
    partition with room, by a scan of the whole open-partition list."""
    store._allocated_bytes += size
    free = store._partition_free
    for pid in store._open_partitions:
        if size <= free[pid]:
            partition = store.partitions[pid]
            break
    else:
        partition = store._grow_partition(size)
        pid = partition.pid
    offset = partition.bump(oid, size)
    left = free[pid] - size
    free[pid] = left
    if left <= 0:
        store._open_stale += 1
        if store._open_stale >= heap._OPEN_LIST_STALE_LIMIT:
            store._prune_open_partitions()
    return pid, offset


@contextlib.contextmanager
def _patched(owner, name, value):
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


@contextlib.contextmanager
def _stale_limit(limit):
    """The prune threshold, in the store and in the kernel that reads it."""
    with _patched(heap, "_OPEN_LIST_STALE_LIMIT", limit):
        with _patched(batch, "_OPEN_LIST_STALE_LIMIT", limit):
            yield


@contextlib.contextmanager
def _counting(*names):
    """Count calls of ``ObjectStore`` methods — on the class, which keeps
    a run eligible for the fused kernels."""
    calls = dict.fromkeys(names, 0)
    with contextlib.ExitStack() as stack:
        for name in names:
            method = getattr(ObjectStore, name)

            def counted(*args, _name=name, _method=method, **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)

            stack.enter_context(_patched(ObjectStore, name, counted))
        yield calls


@st.composite
def _programs(draw):
    """Chains of objects hung on a root's registry slots, bare or inside a
    transaction that commits or aborts; replacing or cutting a chain
    declares it dead; reads and updates in between, of any live chain."""
    events = [CreateEvent(1, 64), RootEvent(1)]
    chains = {}  # slot -> the oids of the chain it holds
    oid = 2
    txid = 0
    for _ in range(draw(st.integers(min_value=1, max_value=50))):
        step = draw(st.sampled_from(["link", "link", "tx", "cut", "touch"]))
        if step in ("link", "tx"):
            slot = f"s{draw(st.integers(min_value=0, max_value=5))}"
            members = []
            block = []
            for size in draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=4)):
                pointers = (("next", members[-1]),) if members else ()
                block.append(CreateEvent(oid, size, pointers=pointers))
                members.append(oid)
                oid += 1
            block.append(PointerWriteEvent(1, slot, oid - 1, dies=chains.get(slot, ())))
            commit = step == "link" or draw(st.booleans())
            if step == "tx":
                txid += 1
                end = CommitTransactionEvent if commit else AbortTransactionEvent
                block = [BeginTransactionEvent(txid), *block, end(txid)]
            events.extend(block)
            if commit:
                chains[slot] = tuple(members)
        elif step == "cut" and chains:
            slot = draw(st.sampled_from(sorted(chains)))
            events.append(PointerWriteEvent(1, slot, None, dies=chains.pop(slot)))
        elif step == "touch" and chains:
            target = draw(st.sampled_from(chains[draw(st.sampled_from(sorted(chains)))]))
            events.append(draw(st.sampled_from([AccessEvent, UpdateEvent]))(target))
    return events


def _serve(events, knobs, replay):
    service = GcService(
        policy=build_policy(PolicySpec("fixed", {"overwrites_per_collection": 3.0}), 0),
        stream=finite_stream(events),
        sim_config=SimulationConfig(store=STORE, preamble_collections=0, replay=replay),
        service=ServiceConfig(**knobs),
    )
    report = service.run()
    store = service.sim.store
    validate_store(store)
    fields = store_fields(store)
    fields["free"] = fields["free"][:3]  # the linear scan keeps no cursors
    report = dataclasses.asdict(report)
    # Timings, and which interpreter or host served an event: no result.
    for name in ("wall_s", "paced_sleep_s", "stream_wait_s", "events_fused", "stream_host"):
        report.pop(name)
    summary = pickle.dumps(service.sim.sampler.summary(store, store.iostats))
    return (fields, summary, report), service


def _assert_placed_as_linear(events, knobs, stale_limit):
    """Guarded and fused replay against the guarded route on the linear
    scan; returns the fused service."""
    with _stale_limit(stale_limit):
        with _patched(ObjectStore, "_place", linear_place):
            expected, _ = _serve(events, knobs, "scalar")
        guarded, _ = _serve(events, knobs, "scalar")
        fused, service = _serve(events, knobs, "auto")
    assert guarded == expected
    assert fused == expected
    return service


_KNOBS = st.sampled_from(
    [
        {},
        {"max_heap_bytes": 4_000, "backpressure": "shed"},
        {"max_heap_bytes": 8_000, "backpressure": "shed"},
    ]
)


@given(events=_programs(), knobs=_KNOBS, stale_limit=st.sampled_from([2, 16]))
@settings(max_examples=150, deadline=None)
def test_both_routes_place_where_the_linear_scan_does(events, knobs, stale_limit):
    _assert_placed_as_linear(events, dict(knobs, checkpoint_every_events=40), stale_limit)


def test_the_programs_reach_every_mechanism():
    """One fixed program that reaches what the generated ones may miss:
    the fused route serves events on the kernels, and every mechanism that
    grows free bytes or moves list positions fires — aborts, collections,
    prunes, forced collections under the heap bound."""
    events = [CreateEvent(1, 64), RootEvent(1)]
    oid = 2
    for round_ in range(60):
        members = []
        for size in SIZES[round_ % 4 :: 3]:
            events.append(CreateEvent(oid, size))
            events.append(PointerWriteEvent(1, f"s{oid}", oid))
            members.append(oid)
            oid += 1
        events.append(BeginTransactionEvent(round_ + 1))
        events.append(CreateEvent(oid, SIZES[round_ % len(SIZES)]))
        events.append(PointerWriteEvent(1, "tx", oid))
        events.append(AbortTransactionEvent(round_ + 1))
        oid += 1
        for member in members[::2]:
            events.append(PointerWriteEvent(1, f"s{member}", None, dies=(member,)))
    knobs = {"max_heap_bytes": 12_000, "backpressure": "shed", "checkpoint_every_events": 400}
    with _counting("expunge", "compact_partition", "_prune_open_partitions") as calls:
        service = _assert_placed_as_linear(events, knobs, stale_limit=2)
    report = service._report
    assert report.events_fused > 0
    assert report.backpressure.forced_collections > 0
    assert all(calls.values()), calls
