"""The redo log's physical unit is a row, its logical unit the record.

The fused kernels append an auto-committed singleton as one plain-tuple
row of the log; the guarded loop and the oracle append its
``begin`` / operation / ``commit`` records one by one. Nothing a reader of
the log can see may tell the two apart: the ``records`` view, every count,
where ``max_log_records`` puts the checkpoints, what recovery rebuilds —
over generated streams with explicit transactions that commit and abort,
creates the heap bound refuses, checkpoints mid-run and, some of the time,
a last event that fails inside its singleton.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import (
    AbortTransactionEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.faults.drill import state_digest
from repro.service import server as server_module
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import PolicySpec, build_policy
from repro.storage.heap import ObjectStore, StoreConfig, StoreError
from repro.storage.object_model import ObjectKind
from repro.tx.manager import TransactionError
from repro.tx.recovery import RedoLog, RedoRecord, build_checkpoint, recover

from event_loop_oracle import EventLoopService
from streams import finite_stream

STORE = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)
POLICY = PolicySpec("fixed", {"overwrites_per_collection": 25.0})

#: Route name -> (service class, ``SimulationConfig.replay``).
ROUTES = {
    "fused": (GcService, "auto"),
    "guarded": (GcService, "scalar"),
    "oracle": (EventLoopService, "auto"),
}

_STEP = st.tuples(
    st.sampled_from(["create", "link", "kill", "update", "commit", "abort"]),
    st.integers(min_value=0, max_value=2**16),
)
_FAILURE = st.sampled_from([None, "unknown-source", "unknown-target", "duplicate-create"])


def _events(steps, failure):
    """A valid stream from drawn steps: a rooted registry, objects created
    pinned, linked into registry slots, cut loose with a ``dies``
    annotation; ``commit`` / ``abort`` wrap a small block in an explicit
    transaction. ``failure`` appends one event whose singleton cannot
    commit."""
    events = [CreateEvent(1, 64), RootEvent(1)]
    live = []  # (oid, slot or None)
    next_oid = 2

    def create(pick, into):
        nonlocal next_oid
        pointers = (("peer", live[pick % len(live)][0]),) if live and pick % 3 else ()
        into.append(CreateEvent(next_oid, 40 + pick % 200, pointers=pointers))
        next_oid += 1
        return next_oid - 1

    for txid, (step, pick) in enumerate(steps, start=1):
        if step == "create":
            live.append((create(pick, events), None))
        elif step in ("commit", "abort"):
            block = [BeginTransactionEvent(txid)]
            oid = create(pick, block)
            block.append(PointerWriteEvent(1, f"slot{oid}", oid))
            if step == "commit":
                block.append(CommitTransactionEvent(txid))
                live.append((oid, f"slot{oid}"))
            else:
                block.append(AbortTransactionEvent(txid))
            events += block
        elif not live:
            continue
        elif step == "update":
            events.append(UpdateEvent(live[pick % len(live)][0]))
        elif step == "link":
            index = pick % len(live)
            oid, _ = live[index]
            live[index] = (oid, f"slot{oid}")
            events.append(PointerWriteEvent(1, f"slot{oid}", oid))
        else:  # kill
            oid, slot = live.pop(pick % len(live))
            if slot is not None:
                events.append(PointerWriteEvent(1, slot, None, dies=(oid,)))
    if failure == "unknown-source":
        events.append(PointerWriteEvent(10**6, "slot", None))
    elif failure == "unknown-target":
        events.append(PointerWriteEvent(1, "slot", 10**6))
    elif failure == "duplicate-create":
        events.append(CreateEvent(1, 64))
    return events


def _serve(route, events, knobs):
    """One route's run, and everything of its log a reader can see."""
    cls, replay = ROUTES[route]
    service = cls(
        policy=build_policy(POLICY, 3),
        stream=finite_stream(events),
        sim_config=SimulationConfig(store=STORE, replay=replay),
        service=ServiceConfig(**knobs),
    )
    checkpoints_at = []
    real = server_module.build_checkpoint

    def noting(store, event_index):
        checkpoints_at.append((event_index, service.sim.redo_log.suffix_length))
        return real(store, event_index)

    server_module.build_checkpoint = noting
    fused = 0
    try:
        report = dataclasses.asdict(service.run())
        for name in ("wall_s", "paced_sleep_s", "stream_wait_s", "stream_host"):
            report.pop(name)
        fused = report.pop("events_fused")
    except (StoreError, TransactionError) as error:
        report = type(error)  # the oracle keeps no report past a raise
    finally:
        server_module.build_checkpoint = real
    log = service.sim.redo_log
    wal = service.sim.tx.wal.stats
    return log, fused, {
        "report": report,
        "records": log.records,
        "length": log.length,
        "suffix": log.suffix_length,
        "lifetime": (log.appended_total, log.truncated_total, log.checkpoints_installed),
        "min_txid": log.min_txid,
        "checkpoints_at": checkpoints_at,
        "wal": (wal, list(wal.records_by_type.items())),
        "auto_txid": service.sim._auto_txid,
        "recovered": state_digest(recover(log, STORE)),
    }


@given(
    steps=st.lists(_STEP, min_size=5, max_size=120),
    failure=_FAILURE,
    cadence=st.integers(min_value=7, max_value=90),
    max_log_records=st.one_of(st.none(), st.integers(min_value=6, max_value=60)),
    heap=st.one_of(st.none(), st.integers(min_value=600, max_value=6_000)),
)
@settings(max_examples=60, deadline=None)
def test_rows_and_records_tell_one_story_on_every_route(
    steps, failure, cadence, max_log_records, heap
):
    events = _events(steps, failure)
    knobs = dict(checkpoint_every_events=cadence, max_log_records=max_log_records)
    if heap is not None:
        knobs.update(max_heap_bytes=heap, backpressure="shed")
    seen = {}
    for route in ROUTES:
        log, fused, seen[route] = _serve(route, events, knobs)
        assert not fused or route == "fused", route
        # The counts are the view's, however the rows were appended.
        assert len(log.records) == log.length
        assert log.appended_total - log.truncated_total == log.length
        assert log.min_txid == min([r.txid for r in log.records] + [0])
        # Recovery walks rows; a log rebuilt from the records has none of
        # the singleton kind, and must rebuild the same store.
        rebuilt = RedoLog(records=log.records)
        assert (rebuilt.length, rebuilt.suffix_length, rebuilt.min_txid) == (
            log.length, log.suffix_length, log.min_txid
        )
        assert state_digest(recover(rebuilt, STORE)) == seen[route]["recovered"]
    assert seen["fused"] == seen["oracle"]
    assert seen["guarded"] == seen["oracle"]
    if isinstance(seen["oracle"]["report"], type):
        # autocommit logs an operation only after the store took it: the
        # failed singleton left its begin, on every route.
        assert seen["fused"]["records"][-1].kind == "begin"


# ----------------------------------------------------------------------
# The log itself: one row against three records
# ----------------------------------------------------------------------

_POINTERS = (("next", 2), ("none", None))
ROWS = [
    ("create", 9, 300, ObjectKind.GENERIC, _POINTERS),
    ("write", 1, None, None, (), "slot3", None, (3, 4)),
    ("update",),
]

_LOG_STEP = st.sampled_from(
    ["create", "write", "update", "explicit", "lone-begin", "checkpoint", "truncate", "reopen"]
)


def _observed(log):
    return (
        log.records,
        log.length,
        log.suffix_length,
        log.min_txid,
        log.last_checkpoint(),
        (log.appended_total, log.truncated_total, log.checkpoints_installed),
    )


@given(steps=st.lists(_LOG_STEP, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_a_singleton_row_is_its_three_records(steps):
    """The same history on two logs — singletons as rows on one, as records
    on the other — reads the same after every step, truncation, checkpoint
    and reopening (which turns the rows of one into records) included."""
    rows, plain = RedoLog(), RedoLog()
    txid = 0
    snapshot = build_checkpoint(ObjectStore(STORE), 0)
    for step in steps:
        txid -= 1
        if step in ("create", "write", "update"):
            kind, *payload = ROWS[("create", "write", "update").index(step)]
            rows.append((kind, txid, *payload))
            plain.begin(txid)
            if kind != "update":
                plain.append(RedoRecord(kind, txid, *payload))
            plain.commit(txid)
        elif step == "explicit":
            for log in (rows, plain):
                log.begin(-txid)
                log.root(-txid, 1)
                log.commit(-txid)
        elif step == "lone-begin":  # a singleton that failed, or a crash
            rows.begin(txid)
            plain.begin(txid)
        elif step == "checkpoint":
            assert rows.install_checkpoint(snapshot) == plain.install_checkpoint(snapshot)
        elif step == "truncate":
            assert rows.truncate_uncommitted() == plain.truncate_uncommitted()
        else:
            reopened = RedoLog(records=rows.records)
            assert _observed(reopened)[:5] == _observed(rows)[:5]
        assert _observed(rows) == _observed(plain)
        assert len(rows.records) == rows.length


def test_the_records_view_cannot_be_mutated():
    """``records`` is built per read: a caller that used to append to it, or
    assign into it, must fail loudly rather than change nothing."""
    log = RedoLog()
    log.append(("update", -1))
    extra = RedoRecord("begin", -2)
    with pytest.raises(AttributeError):
        log.records.append(extra)
    with pytest.raises(AttributeError):
        log.records.extend([extra])  # what the checkpoint property tests did
    with pytest.raises(TypeError):
        log.records[0] = extra
    with pytest.raises(AttributeError):
        log.records = [extra]
    assert [r.kind for r in log.records] == ["begin", "commit"]
    log.append(extra)
    log.commit(-2)
    assert log.length == len(log.records) == 4 and log.min_txid == -2
