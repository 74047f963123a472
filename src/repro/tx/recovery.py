"""Crash recovery: rebuild a store from a logical redo log.

The write-ahead log in :mod:`repro.tx.wal` models logging *cost*; this
module adds the recovery semantics on top — a logical redo log that can
reconstruct the committed state of a database after a crash, in the spirit
of [KW93]'s atomic stable heap:

* :class:`RedoLog` captures full logical records of every transactional
  operation (begin / create / write / root / commit / abort);
* :func:`recover` replays the log into a fresh store, applying only the
  operations of transactions whose commit record made it to the log —
  a transaction with no commit record (in-flight at the crash, or aborted)
  contributes nothing, exactly like an abort;
* recovered stores are bit-compatible with a reference store that executed
  only the committed transactions (the tests assert byte-level equality of
  the logical state).

Garbage-collection state is *not* logged: a recovered database simply
starts with all garbage uncollected and its FGS counters reset, which is
what a real system reconstructs lazily. The oracle accounting is rebuilt
from the replayed ``dies`` annotations, so the policies work immediately
after recovery.

Long-running service mode adds **checkpoints** on top: a
:class:`CheckpointSnapshot` captures the committed logical state at a
quiescent point (no transaction open), :meth:`RedoLog.install_checkpoint`
truncates the log down to that one record, and :func:`recover` restores
the snapshot directly and replays only the suffix logged since — bounded
recovery work for unbounded streams. Unlike log replay, a checkpoint
preserves the store's dead/collected split and its policy clocks, so a
post-recovery service continues with the same garbage accounting the
pre-crash process had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectId, ObjectKind


@dataclass(frozen=True)
class CheckpointSnapshot:
    """The committed logical state of a store at one quiescent point.

    Captured by :func:`build_checkpoint` strictly *between* transactions, so
    the snapshot never contains uncommitted effects. Fields mirror exactly
    what :func:`recover` needs to rebuild an equivalent store:

    * the object columns — every stored object (live **and**
      dead-uncollected; the suffix's ``dies`` annotations and the policies'
      garbage accounting both assume dead objects still occupy the heap
      until collected);
    * the pointer columns / ``roots`` — the full reachability graph;
    * ``unlinked`` — the allocation-pin set (created-but-unreferenced
      objects the collector must treat as roots);
    * the accounting clocks, so rate policies resume with continuous
      signals instead of a cold reset.

    Objects and pointers are stored **columnar**: a handful of flat tuples
    of scalars instead of one row tuple per object and per slot. A
    checkpoint of a 20 k-object heap is then seven containers, not 40 k —
    the row burst used to set off the interpreter's cyclic collector in the
    middle of the service's stall window.

    ``event_index`` records the absolute stream position the checkpoint
    covers: a resumed service continues the event stream from here.
    """

    #: Absolute index of the next stream event after the checkpoint.
    event_index: int
    #: Parallel object columns, one entry per stored object, oids ascending.
    oids: tuple[ObjectId, ...]
    sizes: tuple[int, ...]
    #: ``ObjectKind`` values.
    kinds: tuple[str, ...]
    dead: tuple[bool, ...]
    #: Parallel pointer columns, one entry per pointer slot, in
    #: ``(src, slot)`` order (a target may be None).
    pointer_srcs: tuple[ObjectId, ...]
    pointer_slots: tuple[str, ...]
    pointer_targets: tuple[Optional[ObjectId], ...]
    roots: tuple[ObjectId, ...]
    unlinked: tuple[ObjectId, ...]
    #: GarbageAccounts continuity: (total_generated, total_collected,
    #: undeclared).
    garbage: tuple[int, int, int] = (0, 0, 0)
    pointer_overwrites: int = 0
    pointer_stores: int = 0
    bytes_allocated_total: int = 0

    @property
    def estimated_bytes(self) -> int:
        """Modelled serialized size, for WAL cost accounting."""
        return (
            64
            + 48 * len(self.oids)
            + 24 * len(self.pointer_srcs)
            + 8 * (len(self.roots) + len(self.unlinked))
        )


def build_checkpoint(store: ObjectStore, event_index: int) -> CheckpointSnapshot:
    """Snapshot ``store``'s committed logical state at a quiescent point.

    The caller must guarantee no transaction is open (the service only
    checkpoints between transactions); everything in the store is then
    committed by construction.
    """
    objects = store.objects
    oids = sorted(objects)
    stored = [objects[oid] for oid in oids]
    srcs: list[ObjectId] = []
    slots: list[str] = []
    targets: list[Optional[ObjectId]] = []
    for obj in stored:
        pointers = obj.pointers
        if not pointers:
            continue
        items: Iterable[tuple[str, Optional[ObjectId]]] = pointers.items()
        if len(pointers) > 1:  # slot order within an object is by name
            items = sorted(items)
        for slot, target in items:
            srcs.append(obj.oid)
            slots.append(slot)
            targets.append(target)
    return CheckpointSnapshot(
        event_index=event_index,
        oids=tuple(oids),
        sizes=tuple([obj.size for obj in stored]),
        # ``_value_`` is the plain attribute behind enum's ``value``
        # descriptor: same string, a sixth of the read cost.
        kinds=tuple([obj.kind._value_ for obj in stored]),
        dead=tuple([obj.dead for obj in stored]),
        pointer_srcs=tuple(srcs),
        pointer_slots=tuple(slots),
        pointer_targets=tuple(targets),
        roots=tuple(sorted(store.roots)),
        unlinked=tuple(sorted(store.unlinked)),
        garbage=(
            store.garbage.total_generated,
            store.garbage.total_collected,
            store.garbage.undeclared,
        ),
        pointer_overwrites=store.pointer_overwrites,
        pointer_stores=store.pointer_stores,
        bytes_allocated_total=store.bytes_allocated_total,
    )


class RedoRecord(NamedTuple):
    """One logical log record.

    ``kind`` is one of begin/commit/abort/create/write/root/checkpoint; the
    payload fields used depend on the kind. A plain tuple, not a dataclass:
    the service appends more than one of these per stream event and frees
    tens of thousands at every checkpoint.
    """

    kind: str
    txid: int
    oid: Optional[ObjectId] = None
    size: Optional[int] = None
    object_kind: Optional[ObjectKind] = None
    pointers: tuple[tuple[str, Optional[ObjectId]], ...] = ()
    slot: Optional[str] = None
    target: Optional[ObjectId] = None
    dies: tuple[ObjectId, ...] = ()
    #: Payload of ``kind="checkpoint"`` records.
    checkpoint: Optional[CheckpointSnapshot] = None


class RedoLog:
    """An append-only logical log of transactional operations.

    The log's *logical* unit is the :class:`RedoRecord`, its *physical* unit
    a row: one record, or — for an auto-committed singleton transaction,
    most of what a service logs — a **singleton row**, the operation's
    record as a plain tuple standing for its whole ``begin`` / operation /
    ``commit`` bracket (:meth:`append`). Every count the log reports is in
    records and :attr:`records` expands the rows, so a log reads the same
    whichever way its singletons were appended.

    ``appended_total`` / ``truncated_total`` count records over the log's
    whole lifetime (they survive checkpoint truncation), so tests and soak
    drills can assert that post-checkpoint recovery replayed only the
    suffix logged since the last checkpoint.
    """

    def __init__(self, records: Iterable[RedoRecord] = ()) -> None:
        #: Lifetime records appended (monotone; unaffected by truncation).
        self.appended_total = 0
        #: Lifetime records dropped by truncation (checkpoints + uncommitted).
        self.truncated_total = 0
        #: Lifetime checkpoints installed (survives crash/recover cycles that
        #: share one log, so soak drills can count checkpoints drill-wide).
        self.checkpoints_installed = 0
        self._rebuild(records)

    def _rebuild(self, rows: Iterable[tuple]) -> None:
        """Start over from ``rows``, recounting what :meth:`append` maintains."""
        self._rows: list[tuple] = []
        appended = self.appended_total
        #: Records in the log (a singleton row is its whole bracket).
        self.length = 0
        #: Lowest txid in the log, 0 if none is negative — a resumed run's
        #: auto-commit txids continue below it.
        self.min_txid = 0
        # The last checkpoint's position as a row and as a record (-1: none).
        # The service asks for the suffix length after every quiescent
        # event, so the answer must not cost a scan of the log.
        self._checkpoint_row = self._checkpoint_at = -1
        for row in rows:
            self.append(row)
        self.appended_total = appended

    @property
    def records(self) -> tuple[RedoRecord, ...]:
        """The log record by record, singleton rows expanded. Built per
        read and immutable: the log only changes through its methods."""
        out: list[RedoRecord] = []
        for row in self._rows:
            if type(row) is tuple:
                out.append(RedoRecord("begin", row[1]))
                if row[0] != "update":
                    out.append(RedoRecord(*row))
                out.append(RedoRecord("commit", row[1]))
            else:
                out.append(row)
        return tuple(out)

    def append(self, row: tuple) -> None:
        """Append one row: a :class:`RedoRecord`, or a committed singleton
        transaction as its operation's record in a plain tuple —
        ``("create", txid, oid, size, kind, pointers)``,
        ``("write", txid, src, None, None, (), slot, target, dies)``, or
        ``("update", txid)`` for the bracket without an operation record."""
        if type(row) is tuple:
            logged = 2 if row[0] == "update" else 3
            txid = row[1]
        else:
            logged = 1
            txid = row.txid
            if row.kind == "checkpoint":
                self._checkpoint_row = len(self._rows)
                self._checkpoint_at = self.length
        if txid < self.min_txid:
            self.min_txid = txid
        self._rows.append(row)
        self.length += logged
        self.appended_total += logged

    def install_checkpoint(self, snapshot: CheckpointSnapshot) -> int:
        """Truncate the log down to one checkpoint record.

        Everything logged so far is subsumed by the snapshot (the caller
        checkpoints only at quiescent points, so there are no in-flight
        records to preserve). Returns the number of records dropped.
        """
        dropped = self.length
        self.truncated_total += dropped
        self._rebuild(())
        self.append(RedoRecord("checkpoint", 0, checkpoint=snapshot))
        self.checkpoints_installed += 1
        return dropped

    def last_checkpoint(self) -> Optional[CheckpointSnapshot]:
        """The most recent installed checkpoint, if any."""
        if self._checkpoint_row < 0:
            return None
        return self._rows[self._checkpoint_row].checkpoint

    @property
    def suffix_length(self) -> int:
        """Records logged since the last checkpoint (whole log if none)."""
        return self.length - self._checkpoint_at - 1

    # Convenience constructors used by TransactionManager; records are
    # built positionally, in RedoRecord's field order.

    def begin(self, txid: int) -> None:
        self.append(RedoRecord("begin", txid))

    def commit(self, txid: int) -> None:
        self.append(RedoRecord("commit", txid))

    def abort(self, txid: int) -> None:
        self.append(RedoRecord("abort", txid))

    def create(
        self,
        txid: int,
        oid: ObjectId,
        size: int,
        object_kind: ObjectKind,
        pointers: tuple[tuple[str, Optional[ObjectId]], ...],
    ) -> None:
        self.append(RedoRecord("create", txid, oid, size, object_kind, pointers))

    def write(
        self,
        txid: int,
        src: ObjectId,
        slot: str,
        target: Optional[ObjectId],
        dies: Sequence[ObjectId],
    ) -> None:
        self.append(
            RedoRecord("write", txid, src, None, None, (), slot, target, tuple(dies))
        )

    def root(self, txid: int, oid: ObjectId) -> None:
        self.append(RedoRecord("root", txid, oid))

    def truncate_uncommitted(self) -> int:
        """Drop records of transactions that neither committed nor aborted.

        Used by crash–recover–continue drills before resuming a trace: the
        transaction in flight at the crash will be *re-executed* under the
        same txid, so its orphaned pre-crash records must not linger in the
        log (recovery would otherwise replay both the lost attempt and the
        re-execution). Returns the number of records dropped.
        """
        # A singleton row carries its own commit; row[1] is either kind's txid.
        rows = self._rows
        resolved = {
            row[1]
            for row in rows
            if type(row) is tuple or row.kind in ("commit", "abort")
        }
        before = self.length
        self._rebuild(
            row
            for row in rows
            if type(row) is tuple or row.kind == "checkpoint" or row.txid in resolved
        )
        dropped = before - self.length
        self.truncated_total += dropped
        return dropped


@dataclass(frozen=True)
class RecoveryInfo:
    """What one :func:`recover_with_info` call actually did."""

    #: Log records inspected after the last checkpoint (replayed suffix).
    records_replayed: int
    #: True when a checkpoint snapshot seeded the store.
    from_checkpoint: bool
    #: The checkpoint's stream position (0 without a checkpoint).
    checkpoint_event_index: int
    #: Objects in the recovered store.
    objects: int


def _restore_checkpoint(
    snapshot: CheckpointSnapshot, store_config: Optional[StoreConfig]
) -> ObjectStore:
    """Rebuild a store equivalent to the one ``snapshot`` captured.

    Objects are created in oid order with empty pointer maps first (so no
    forward reference can fail validation), then the pointer graph is wired
    through ``write_pointer`` — which maintains the remembered-set index at
    every edge — then roots, deaths and allocation pins are reconciled and
    the accounting clocks restored verbatim. Physical placement may differ
    from the original store (recovery re-places first-fit), which is fine:
    the recovery contract covers logical state, and every consumer of
    placement (collector, selection) reads it fresh from the store. What
    the recovered placement *is* follows from this walk alone — first fit
    in ascending-oid creation order — so the order of the steps, and of
    the columns within each, is part of the format: two recoveries of one
    snapshot place every object identically.
    """
    store = ObjectStore(store_config)
    for oid, size, kind_value in zip(snapshot.oids, snapshot.sizes, snapshot.kinds):
        store.create(size=size, kind=ObjectKind(kind_value), oid=oid)
    for src, slot, target in zip(
        snapshot.pointer_srcs, snapshot.pointer_slots, snapshot.pointer_targets
    ):
        store.write_pointer(src, slot, target)
    for oid in snapshot.roots:
        store.register_root(oid)
    for oid, dead in zip(snapshot.oids, snapshot.dead):
        if dead:
            store.declare_dead(oid)
    pinned = set(snapshot.unlinked)
    for oid in sorted(store.unlinked - pinned):
        store.release_pin(oid)
    # Replaying pointer wiring above advanced the clocks and (for dead
    # objects) the garbage totals; overwrite all of them with the captured
    # values so the policies see continuous signals, not replay artefacts.
    store.garbage.total_generated = snapshot.garbage[0]
    store.garbage.total_collected = snapshot.garbage[1]
    store.garbage.undeclared = snapshot.garbage[2]
    store.pointer_overwrites = snapshot.pointer_overwrites
    store.pointer_stores = snapshot.pointer_stores
    store.bytes_allocated_total = snapshot.bytes_allocated_total
    return store


def recover_with_info(
    log: RedoLog, store_config: Optional[StoreConfig] = None
) -> tuple[ObjectStore, RecoveryInfo]:
    """Recover a store from ``log`` and report how much work it took.

    With a checkpoint record in the log, the snapshot seeds the store and
    only the records *after* the last checkpoint are replayed — bounded
    recovery for unbounded streams. Without one this is full-log replay.
    Records of transactions without a commit record — aborted or in flight
    at the crash — are skipped entirely. Replay order is log order, which
    is execution order for a single-client system, so every pointer target
    already exists when it is written.
    """
    snapshot = log.last_checkpoint()
    if snapshot is not None:
        store = _restore_checkpoint(snapshot, store_config)
    else:
        store = ObjectStore(store_config)
    # Commit-scoped sequential replay: operations buffer under their
    # transaction's *current* begin/commit bracket and apply at the commit
    # record. A transaction id may legitimately recur in one log (each
    # crash/resume cycle restarts the auto-commit txid counter), so a
    # whole-suffix committed-txid set would wrongly replay an in-flight
    # transaction whose id an earlier, committed incarnation used; the
    # bracket scoping keeps each incarnation separate. Transactions still
    # open at the end of the log — in flight at the crash — are dropped.
    # A singleton row is a whole bracket: it applies on the spot.
    open_tx: dict[int, list[RedoRecord]] = {}
    for row in log._rows[log._checkpoint_row + 1 :]:
        if type(row) is tuple:
            if row[0] != "update":
                _redo(store, RedoRecord(*row))
            continue
        kind = row.kind
        if kind == "begin":
            open_tx[row.txid] = []
        elif kind == "abort":
            open_tx.pop(row.txid, None)
        elif kind == "commit":
            for op in open_tx.pop(row.txid, ()):
                _redo(store, op)
        else:
            bucket = open_tx.get(row.txid)
            if bucket is not None:
                bucket.append(row)
    info = RecoveryInfo(
        records_replayed=log.suffix_length,
        from_checkpoint=snapshot is not None,
        checkpoint_event_index=snapshot.event_index if snapshot is not None else 0,
        objects=len(store.objects),
    )
    return store, info


def _redo(store: ObjectStore, op: RedoRecord) -> None:
    """Apply one committed operation record to ``store``."""
    if op.kind == "create":
        assert op.size is not None
        store.create(
            size=op.size,
            kind=op.object_kind or ObjectKind.GENERIC,
            pointers=dict(op.pointers),
            oid=op.oid,
        )
    elif op.kind == "write":
        assert op.oid is not None and op.slot is not None
        store.write_pointer(op.oid, op.slot, op.target, dies=op.dies)
    elif op.kind == "root":
        assert op.oid is not None
        store.register_root(op.oid)


def recover(log: RedoLog, store_config: Optional[StoreConfig] = None) -> ObjectStore:
    """Recover a store from ``log`` (see :func:`recover_with_info`)."""
    store, _ = recover_with_info(log, store_config)
    return store
