"""Transactional operation layer over the object store.

The paper's evaluation assumes the simplest possible concurrency model:
"the entire database is locked while collection is performed, and logging
for recovery is not supported" (§3.2) — and defers real mechanisms to
[AFG95, KLW89, KW93]. This module provides the next step an actual ODBMS
needs: **single-client transactions with physical undo**, so that

* an application's operations can be grouped into atomic units,
* an abort physically reverts every effect — pointer restorations,
  resurrection of objects whose deaths are undone, expunging of objects
  whose creations are undone — leaving the store byte-for-byte consistent,
* the garbage collector runs only *between* transactions (the simulator
  defers triggers while a transaction is open), preserving the paper's
  whole-database-lock model without ever collecting uncommitted state.

Rollback is deliberately invisible to the rate policies: undo operations
advance neither the pointer-overwrite clock nor any partition's FGS counter
(an aborted transaction created no garbage), though they do perform real
page I/O.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

from repro.storage.heap import ObjectStore
from repro.storage.object_model import ObjectId, ObjectKind, StoredObject
from repro.tx.recovery import RedoLog
from repro.tx.wal import WriteAheadLog


class TransactionError(Exception):
    """Raised on misuse of the transaction API."""


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


# Undo records are plain tuples: the service builds one per mutating
# operation and drops them all at the next commit.
class _UndoCreate(NamedTuple):
    oid: ObjectId


class _UndoPointerWrite(NamedTuple):
    src: ObjectId
    slot: str
    old_target: Optional[ObjectId]
    slot_existed: bool
    overwrote: bool
    fgs_partition: Optional[int]
    died: tuple[ObjectId, ...]
    #: The write's target, if the write took its allocation pin.
    repin: Optional[ObjectId]


class _UndoRoot(NamedTuple):
    oid: ObjectId
    #: The object held an allocation pin, which the registration took.
    was_pinned: bool


_UndoRecord = Union[_UndoCreate, _UndoPointerWrite, _UndoRoot]

#: Operations :meth:`TransactionManager.autocommit` applies, by WAL record type.
_AUTOCOMMIT_OPS = frozenset({"create", "write", "update", "root"})


@dataclass
class Transaction:
    """One open unit of work; obtain via :meth:`TransactionManager.begin`."""

    txid: int
    state: TransactionState = TransactionState.ACTIVE
    undo_log: list[_UndoRecord] = field(default_factory=list)
    operations: int = 0

    @property
    def active(self) -> bool:
        return self.state is TransactionState.ACTIVE


class TransactionManager:
    """Single-client transactional facade over an :class:`ObjectStore`.

    All mutating operations must go through the manager while a transaction
    is open; reads may bypass it. Only one transaction may be open at a
    time (the paper's single-application model — no concurrency control is
    simulated beyond the GC exclusion).
    """

    def __init__(
        self,
        store: ObjectStore,
        wal: Optional[WriteAheadLog] = None,
        redo_log: Optional[RedoLog] = None,
    ) -> None:
        self.store = store
        #: Optional write-ahead log; when present, every operation is logged
        #: and commit/abort force the log (see :mod:`repro.tx.wal`).
        self.wal = wal
        #: Optional logical redo log for crash recovery (repro.tx.recovery).
        self.redo_log = redo_log
        #: Optional fault-injection hook, called as ``hook(site)`` at the
        #: ``tx.begin`` / ``tx.commit`` / ``tx.abort`` sites — always
        #: *before* the boundary's state change, so a crash at ``tx.commit``
        #: loses the transaction (its commit record never becomes durable).
        self.fault_hook: Optional[Callable[[str], None]] = None
        self._next_txid = 1
        self.current: Optional[Transaction] = None
        self.committed = 0
        self.aborted = 0

    def _log(self, record_type: str) -> None:
        if self.wal is not None:
            self.wal.append(record_type)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.current is not None and self.current.active

    def _fire(self, site: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(site)

    def begin(self, txid: Optional[int] = None) -> Transaction:
        self._fire("tx.begin")
        current = self.current
        if current is not None and current.active:
            raise TransactionError(
                f"transaction {current.txid} is still active; "
                "nested transactions are not supported"
            )
        if txid is None:
            txid = self._next_txid
        self._next_txid = max(self._next_txid, txid + 1)
        self.current = Transaction(txid=txid)
        self._log("begin")
        if self.redo_log is not None:
            self.redo_log.begin(txid)
        return self.current

    def commit(self, txid: Optional[int] = None) -> Transaction:
        txn = self._require_active(txid)
        # Crash point *before* the commit record: a crash here loses the
        # transaction entirely — recovery replays nothing of it.
        self._fire("tx.commit")
        # Durability order matters: the WAL force is the modelled act of
        # pushing the commit record to disk, so it must complete *before*
        # the redo log records the commit. A crash mid-force (io.write
        # fault) then leaves no commit record — recovery drops the
        # transaction and the resumed stream re-executes it exactly once,
        # instead of replaying it *and* re-executing it.
        self._log("commit")
        if self.wal is not None:
            self.wal.force()
        if self.redo_log is not None:
            self.redo_log.commit(txn.txid)
        txn.state = TransactionState.COMMITTED
        txn.undo_log.clear()
        self.current = None
        self.committed += 1
        return txn

    def abort(self, txid: Optional[int] = None) -> Transaction:
        """Physically undo every operation of the active transaction."""
        txn = self._require_active(txid)
        self._fire("tx.abort")
        for record in reversed(txn.undo_log):
            self._apply_undo(record)
            self._log("clr")  # compensation log record per undone operation
        txn.undo_log.clear()
        txn.state = TransactionState.ABORTED
        self.current = None
        self.aborted += 1
        self._log("abort")
        if self.redo_log is not None:
            self.redo_log.abort(txn.txid)
        if self.wal is not None:
            self.wal.force()
        return txn

    def autocommit(
        self,
        txid: int,
        op: str,
        oid: ObjectId,
        *,
        size: int = 0,
        kind: ObjectKind = ObjectKind.GENERIC,
        pointers: Optional[dict[str, Optional[ObjectId]]] = None,
        slot: str = "",
        target: Optional[ObjectId] = None,
        dies: Sequence[ObjectId] = (),
    ) -> None:
        """``begin(txid)``, one operation, ``commit(txid)`` — in one call.

        ``op`` is the operation's WAL record type: ``"create"`` (``oid``,
        ``size``, ``kind``, ``pointers``), ``"write"`` (``oid`` is the
        source; ``slot``, ``target``, ``dies``), ``"update"`` or ``"root"``
        (``oid``). Fault sites, WAL records, the commit force and redo
        records are those of the three calls, in the same order; what is
        skipped is the :class:`Transaction` and its undo record, which
        nothing could ever use — a singleton transaction has no way to
        abort between its operation and its commit.

        The fused kernels of :mod:`repro.sim.batch` write this bracket
        themselves for ``create`` / ``write`` / ``update`` (one redo row
        that reads back as these records, WAL counts, the commit's page
        write) without calling it — a ROOT they hand to the guarded loop,
        which does; change one and the other must follow:
        ``tests/sim/test_kernel_mirrors.py`` pins this method's body, and the
        tests hold the two equal record for record, error paths included.
        """
        if op not in _AUTOCOMMIT_OPS:
            raise ValueError(f"autocommit cannot apply operation {op!r}")
        hook = self.fault_hook
        wal = self.wal
        redo = self.redo_log
        store = self.store
        if hook is not None:
            hook("tx.begin")
        current = self.current
        if current is not None and current.active:
            raise TransactionError(
                f"transaction {current.txid} is still active; "
                "nested transactions are not supported"
            )
        if txid >= self._next_txid:
            self._next_txid = txid + 1
        if wal is not None:
            wal.append("begin")
        if redo is not None:
            redo.begin(txid)
        if op == "create":
            oid = store.create(size=size, kind=kind, pointers=pointers, oid=oid)
            if wal is not None:
                wal.append("create")
            if redo is not None:
                redo.create(txid, oid, size, kind, tuple((pointers or {}).items()))
        elif op == "write":
            table = store.placements
            if oid not in table:
                raise TransactionError(f"unknown object {oid}")
            # As in write_pointer: log the deaths this write declares.
            fresh_deaths = tuple([d for d in dies if table.alive(d)])
            store.write_pointer(oid, slot, target, dies=dies)
            if wal is not None:
                wal.append("write")
            if redo is not None:
                redo.write(txid, oid, slot, target, fresh_deaths)
        elif op == "update":
            store.update(oid)
            if wal is not None:
                wal.append("update")
        else:
            already_root = oid in store.roots
            store.register_root(oid)
            if wal is not None:
                wal.append("root")
            if redo is not None and not already_root:
                redo.root(txid, oid)
        if hook is not None:
            hook("tx.commit")
        if wal is not None:
            wal.append("commit")
            wal.force()
        if redo is not None:
            redo.commit(txid)
        self.committed += 1

    def _require_active(self, txid: Optional[int]) -> Transaction:
        current = self.current
        if current is None or not current.active:
            raise TransactionError("no active transaction")
        if txid is not None and current.txid != txid:
            raise TransactionError(
                f"transaction id mismatch: active {current.txid}, got {txid}"
            )
        return current

    # ------------------------------------------------------------------
    # Operations (proxied to the store, with undo logging)
    # ------------------------------------------------------------------

    def create(
        self,
        size: int,
        kind: ObjectKind = ObjectKind.GENERIC,
        pointers: Optional[dict[str, Optional[ObjectId]]] = None,
        oid: Optional[ObjectId] = None,
    ) -> ObjectId:
        txn = self._require_active(None)
        new_oid = self.store.create(size=size, kind=kind, pointers=pointers, oid=oid)
        txn.undo_log.append(_UndoCreate(new_oid))
        txn.operations += 1
        self._log("create")
        if self.redo_log is not None:
            self.redo_log.create(
                txn.txid,
                new_oid,
                size,
                kind,
                tuple((pointers or {}).items()),
            )
        return new_oid

    def write_pointer(
        self,
        src: ObjectId,
        slot: str,
        target: Optional[ObjectId],
        dies: Sequence[ObjectId] = (),
    ) -> None:
        txn = self._require_active(None)
        table = self.store.placements
        pointers = table.pointers(src)
        if pointers is None:
            raise TransactionError(f"unknown object {src}")
        slot_existed = slot in pointers
        old_target = pointers.get(slot)
        overwrote = old_target is not None
        fgs_partition = None
        if old_target is not None and (pid := table.part_of(old_target)) >= 0:
            fgs_partition = pid
        # Only record deaths this write actually declares (idempotence of
        # _declare_dead means already-dead victims must not be resurrected
        # twice on undo).
        fresh_deaths = tuple(oid for oid in dies if table.alive(oid))
        repin = target if target in self.store.unlinked else None
        self.store.write_pointer(src, slot, target, dies=dies)
        txn.undo_log.append(
            _UndoPointerWrite(
                src,
                slot,
                old_target,
                slot_existed,
                overwrote,
                fgs_partition,
                fresh_deaths,
                repin,
            )
        )
        txn.operations += 1
        self._log("write")
        if self.redo_log is not None:
            self.redo_log.write(txn.txid, src, slot, target, fresh_deaths)

    def access(self, oid: ObjectId) -> StoredObject:
        """Reads need no undo but are offered for a uniform interface."""
        return self.store.access(oid)

    def update(self, oid: ObjectId) -> None:
        """Non-pointer updates carry no logical state in this model, so the
        undo is a no-op (the page stays dirty — rollback rewrites it)."""
        txn = self._require_active(None)
        self.store.update(oid)
        txn.operations += 1
        self._log("update")

    def register_root(self, oid: ObjectId) -> None:
        txn = self._require_active(None)
        already_root = oid in self.store.roots
        was_pinned = oid in self.store.unlinked
        self.store.register_root(oid)
        if not already_root:
            txn.undo_log.append(_UndoRoot(oid, was_pinned))
        txn.operations += 1
        self._log("root")
        if self.redo_log is not None and not already_root:
            self.redo_log.root(txn.txid, oid)

    # ------------------------------------------------------------------
    # Undo application
    # ------------------------------------------------------------------

    def _apply_undo(self, record: _UndoRecord) -> None:
        store = self.store
        if isinstance(record, _UndoPointerWrite):
            for victim in record.died:
                store.resurrect(victim)
            store.undo_pointer_write(
                record.src, record.slot, record.old_target, record.slot_existed
            )
            if record.repin is not None:
                store.restore_pin(record.repin)
            # The forward write advanced the garbage-creation signals; an
            # aborted transaction must not be visible to the rate policies.
            if record.overwrote:
                store.pointer_overwrites -= 1
                if record.fgs_partition is not None:
                    partition = store.partitions[record.fgs_partition]
                    if partition.pointer_overwrites > 0:
                        partition.pointer_overwrites -= 1
                        store.pending_overwrites -= 1
            else:
                store.pointer_stores -= 1
        elif isinstance(record, _UndoCreate):
            store.expunge(record.oid)
        elif isinstance(record, _UndoRoot):
            store.undo_register_root(record.oid, record.was_pinned)
        else:  # pragma: no cover - defensive
            raise TransactionError(f"unknown undo record {record!r}")
