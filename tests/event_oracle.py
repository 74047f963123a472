"""The event-object interpreter: the one slow-and-obvious replay oracle.

Production replays columns (``repro.sim.batch``: a fused interpreter and a
guarded one, the latter also under ``GcService``). This module is the loop
they replaced, written plainly — one event object at a time, told apart by
an ``isinstance`` chain, through the store's and the transaction manager's
public methods — so tests can require that an interpreter which never
reads a column agrees with the ones that read nothing else: summaries
pickle-equal, store state field for field, trace and compaction epochs,
redo-log records, and a crash's ``event_index`` / ``resume_index``.

It borrows the run skeleton (``_start`` / ``_annotate_crash`` / ``_finish``)
and the trigger machinery (``_clock`` / ``_collect`` / ``_handle_idle``)
from the ``Simulation`` it drives; everything that decides *what an event
does and when the trigger is read* is here. The auto-commit bracket is
three calls (``begin`` → operation → ``commit``) on purpose: production
makes it one ``TransactionManager.autocommit`` call, and
``tests/tx/test_autocommit.py`` holds the per-operation equivalence.
"""

import itertools

from repro.core.extensions import OpportunisticPolicy
from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    IdleEvent,
    PhaseMarkerEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.faults.injector import SimulatedCrash

_MUTATING = (PointerWriteEvent, CreateEvent, UpdateEvent, RootEvent)


def store_fields(store) -> dict:
    """Every field of the store a replay writes, for ``==`` between two
    runs: a column interpreter that skips or doubles one kernel line —
    a counter, an epoch bump, a remembered edge, a dirty bit — differs
    from the oracle somewhere in here even when the summary does not."""
    return {
        "objects": {
            oid: (obj.size, obj.kind, dict(obj.pointers), obj.dead)
            for oid, obj in store.objects.items()
        },
        "placements": {oid: store.placements.locate(oid) for oid in store.objects},
        "placement_count": len(store.placements),
        # Residents in iteration order: it is the order the next collection
        # of the partition reclaims in.
        "partitions": [
            (part.fill, list(part.residents), part.pointer_overwrites, part.incoming)
            for part in store.partitions
        ],
        "free": (
            list(store._partition_free),
            list(store._open_partitions),
            store._open_stale,
        ),
        "roots": set(store.roots),
        "unlinked": set(store.unlinked),
        "dead_bytes": dict(store.dead_bytes),
        "clocks": (
            store.pointer_overwrites,
            store.pointer_stores,
            store.bytes_allocated_total,
            store.db_size,
            store._next_oid,
        ),
        "garbage": (
            store.garbage.total_generated,
            store.garbage.total_collected,
            store.garbage.undeclared,
        ),
        "remembered": store.remembered.stats(),
        "epochs": (list(store.trace_epochs), store.compaction_epoch),
        "buffer": (store.buffer.stats, list(store.buffer._pages.items())),
        "io": store.iostats.as_metrics(),
    }


def dispatch(sim, event, sink) -> None:
    """Apply one event to ``sink`` (the store, or the transaction manager
    while a transaction is open)."""
    if isinstance(event, PointerWriteEvent):
        sink.write_pointer(event.src, event.slot, event.target, dies=event.dies)
    elif isinstance(event, CreateEvent):
        sink.create(
            size=event.size,
            kind=event.kind,
            pointers=dict(event.pointers),
            oid=event.oid,
        )
    elif isinstance(event, AccessEvent):
        sink.access(event.oid)
    elif isinstance(event, UpdateEvent):
        sink.update(event.oid)
    elif isinstance(event, RootEvent):
        sink.register_root(event.oid)
    elif isinstance(event, BeginTransactionEvent):
        sim.tx.begin(event.txid)
        sim._tx_start_index = sim._event_index
    elif isinstance(event, CommitTransactionEvent):
        sim.tx.commit(event.txid)
    elif isinstance(event, AbortTransactionEvent):
        sim.tx.abort(event.txid)
    elif isinstance(event, PhaseMarkerEvent):
        sim.sampler.on_phase(event.name)
    elif isinstance(event, IdleEvent):
        pass  # Quiescence: no store activity.
    else:
        raise TypeError(f"unknown trace event {event!r}")


def apply_event(sim, event) -> None:
    """``dispatch`` plus the redo log's rule: a mutation outside any
    transaction commits as a singleton under the next negative txid."""
    tx = sim.tx
    if tx.in_transaction:
        dispatch(sim, event, tx)
    elif sim.redo_log is not None and isinstance(event, _MUTATING):
        txid = sim._auto_txid
        sim._auto_txid -= 1
        tx.begin(txid)
        sim._tx_start_index = sim._event_index
        dispatch(sim, event, tx)
        tx.commit(txid)
    else:
        dispatch(sim, event, sim.store)


def note_activity(sim) -> None:
    """A database event ends any quiet stretch an opportunistic policy
    was counting."""
    if isinstance(sim.policy, OpportunisticPolicy):
        sim.policy.note_activity()


def replay_events(sim, events, start_index: int = 0):
    """``Simulation.run`` as it was before events stopped at the door:
    apply, sample, and — outside transactions — collect while the trigger
    clock is past due. Phase markers and idle ticks are not sampled."""
    try:
        sim._start(start_index)
        for event in itertools.islice(iter(events), start_index, None):
            sim._event_index += 1
            # Whether the event's application finished decides if a crash
            # resumes at this event or the next one.
            sim._event_applied = False
            apply_event(sim, event)
            sim._event_applied = True
            if isinstance(event, PhaseMarkerEvent):
                continue
            if isinstance(event, IdleEvent):
                sim._handle_idle(event.ticks)
                continue
            note_activity(sim)
            sim.sampler.on_event(sim.store, sim.store.iostats)
            if sim.tx.in_transaction:
                # The database is never collected mid-transaction (§3.2's
                # whole-database-lock model); triggers fire at commit/abort.
                continue
            while sim._clock() >= sim._due_at:
                sim._collect()
    except SimulatedCrash as crash:
        sim._annotate_crash(crash)
        raise
    return sim._finish()
