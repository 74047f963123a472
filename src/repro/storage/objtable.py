"""The store's object table: one oid-indexed structure of arrays.

Every per-object fact the store keeps lives in one row of parallel
columns indexed directly by oid:

* ``parts[oid]``  — partition id, or ``-1`` when the row is empty;
* ``offs[oid]``   — byte offset within the partition;
* ``sizes[oid]``  — object size in bytes;
* ``ptrs[oid]``   — the pointer dict (slot name → target oid or ``None``);
* ``kinds[oid]``  — the :class:`~repro.storage.object_model.ObjectKind`'s
  one-byte ``code``, 0 in an empty row;
* ``dead[oid]``   — 1 once the workload declared the object dead;
* ``shared[oid]`` — the copy-on-write generation of the pointer dict, as
  one bit: 1 while the dict may be shared with a :meth:`capture`.

``parts``/``offs``/``sizes`` are ``array('q')``, ``ptrs`` a list, and
the other three are ``bytearray`` columns. A row is present exactly when
``parts[oid] >= 0``; an empty row holds ``None`` pointers and zero kind
and dead flag, so a create fills a row without reading it first.

Object ids from the workload generators are small and dense (allocated
sequentially from 1), so direct indexing wastes little space; oids that
are negative or not below :data:`DENSE_CEILING` live in two overflow
dicts instead — ``overflow`` (oid → ``(pid, offset, size)``) and
``overflow_rows`` (oid → ``[pointers, kind, dead, shared]``) — so the table
accepts any int key a trace can carry. A hot loop that indexes the dense
columns must send such oids elsewhere: a negative index reads a list
from its end.

The table has one read surface. :meth:`locate` says where an object is
— ``(pid, offset, size)`` — and :meth:`row` what it is: a
:class:`~repro.storage.object_model.StoredObject` snapshot of the row
(size, kind and dead flag as they are now, and the row's live pointer
dict). :meth:`rows` yields one such snapshot per present row; ``len()``
and ``in`` count and probe rows. Hot paths — the collector's trace and
reclaim, the fused replay kernels of :mod:`repro.sim.batch` — read the
raw columns and build no snapshot.

**Copy-on-write.** :meth:`capture` (a checkpoint) copies the columns a
checkpoint reads at C level — the pointer-dict column as a list of
references; sizes, kinds and dead flags by value — and marks every row
``shared``. A shared row's pointer dict may be a capture's too, so every
pointer write goes through :meth:`writable` (or its kernel mirror), which
gives the row a private copy first. Dead flags, kinds and sizes need no
such care: the capture holds its own copies.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional

from repro.storage.object_model import ObjectId, ObjectKind, StoredObject
from repro.storage.partition import PartitionId

#: Dense rows above this oid would cost more memory than a dict entry is
#: worth; such oids (and negative ones) live in the overflow dicts instead.
DENSE_CEILING = 1 << 22

#: ``parts`` value marking an empty row.
_ABSENT = -1

#: One int64 ``-1`` in little/big-endian alike (all bits set); used to
#: bulk-fill freshly grown column extents.
_FILL_ITEM = b"\xff" * 8

#: ``ObjectKind`` by ``kinds`` column code.
_KINDS = (None, *ObjectKind)

#: Positions in an ``overflow_rows`` entry.
_PTRS, _KIND, _DEAD, _SHARED = range(4)


class ObjectTable:
    """Every stored object's placement and fields, in parallel columns."""

    __slots__ = (
        "parts", "offs", "sizes", "ptrs", "kinds", "dead", "shared",
        "overflow", "overflow_rows", "_count",
    )

    def __init__(self) -> None:
        #: Raw columns — exposed for hot loops. Readers must treat a
        #: ``parts`` value below zero as "no row"; writers must go through
        #: :meth:`insert` / :meth:`discard` (or replicate their count
        #: bookkeeping exactly, as the batched interpreter does).
        self.parts = array("q")
        self.offs = array("q")
        self.sizes = array("q")
        self.ptrs: list = []  # a pointer dict per row, None in an empty one
        self.kinds = bytearray()
        self.dead = bytearray()
        self.shared = bytearray()
        self.overflow: dict[ObjectId, tuple[int, int, int]] = {}
        self.overflow_rows: dict[ObjectId, list] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def dense_limit(self) -> int:
        """Oids below this index directly into the columns."""
        return len(self.parts)

    def reserve(self, n: int) -> None:
        """Grow the dense columns to cover oids ``< n`` (never shrinks).

        Batched replay calls this once with the trace's maximum create oid
        so the hot loop never pays growth checks; requests beyond
        :data:`DENSE_CEILING` are clamped (such oids overflow anyway).
        Columns grow in place: a hot loop's aliases stay valid.
        """
        n = min(n, DENSE_CEILING)
        grow = n - len(self.parts)
        if grow <= 0:
            return
        filler = _FILL_ITEM * grow
        self.parts.frombytes(filler)
        self.offs.frombytes(filler)
        self.sizes.frombytes(filler)
        self.ptrs += [None] * grow
        self.kinds += bytes(grow)
        self.dead += bytes(grow)
        self.shared += bytes(grow)

    # ------------------------------------------------------------------
    # Readers: locate / row / rows, and int-only accessors for the
    # store's writers
    # ------------------------------------------------------------------

    def part_of(self, oid: ObjectId) -> PartitionId:
        """Partition holding ``oid``, or ``-1`` when it has no row."""
        if 0 <= oid < len(self.parts):
            return self.parts[oid]
        entry = self.overflow.get(oid)
        return entry[0] if entry is not None else _ABSENT

    def locate(self, oid: ObjectId) -> Optional[tuple[int, int, int]]:
        """``(partition, offset, size)`` of ``oid``, or ``None``."""
        if 0 <= oid < len(self.parts):
            pid = self.parts[oid]
            if pid < 0:
                return None
            return pid, self.offs[oid], self.sizes[oid]
        return self.overflow.get(oid)

    def pointers(self, oid: ObjectId) -> Optional[dict[str, Optional[ObjectId]]]:
        """``oid``'s live pointer dict (read it, never write it), or ``None``."""
        if 0 <= oid < len(self.ptrs):
            return self.ptrs[oid]
        row = self.overflow_rows.get(oid)
        return row[_PTRS] if row is not None else None

    def row(self, oid: ObjectId) -> Optional[StoredObject]:
        """What ``oid`` is: a snapshot of its row — size, kind and dead
        flag as they are now, and the row's live pointer dict (read it,
        never write it) — or ``None``."""
        if 0 <= oid < len(self.parts):
            if self.parts[oid] < 0:
                return None
            kind = _KINDS[self.kinds[oid]]
            dead = bool(self.dead[oid])
            return StoredObject(oid, self.sizes[oid], kind, self.ptrs[oid], dead)
        row = self.overflow_rows.get(oid)
        if row is None:
            return None
        return StoredObject(oid, self.overflow[oid][2], row[_KIND], row[_PTRS], row[_DEAD])

    def rows(self) -> Iterator[StoredObject]:
        """A :meth:`row` snapshot per present row: dense oids ascending,
        then overflow oids in insertion order."""
        parts, sizes, kinds, ptrs = self.parts, self.sizes, self.kinds, self.ptrs
        dead = self.dead
        for oid in range(len(parts)):
            if parts[oid] >= 0:
                kind = _KINDS[kinds[oid]]
                yield StoredObject(oid, sizes[oid], kind, ptrs[oid], bool(dead[oid]))
        rows = self.overflow_rows
        for oid, entry in self.overflow.items():
            row = rows[oid]
            yield StoredObject(oid, entry[2], row[_KIND], row[_PTRS], row[_DEAD])

    def alive(self, oid: ObjectId) -> bool:
        """Whether ``oid`` has a row and is not declared dead."""
        if 0 <= oid < len(self.parts):
            return self.parts[oid] >= 0 and not self.dead[oid]
        row = self.overflow_rows.get(oid)
        return row is not None and not row[_DEAD]

    def __contains__(self, oid) -> bool:
        return isinstance(oid, int) and self.locate(oid) is not None

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Row writers
    # ------------------------------------------------------------------

    def insert(
        self,
        oid: ObjectId,
        pid: PartitionId,
        offset: int,
        size: int,
        kind: ObjectKind = ObjectKind.GENERIC,
    ) -> dict[str, Optional[ObjectId]]:
        """Fill ``oid``'s empty row — placed, not dead, no slots written —
        and return its pointer dict, not shared with any capture."""
        pointers: dict[str, Optional[ObjectId]] = {}
        if 0 <= oid < DENSE_CEILING:
            if oid >= len(self.parts):
                self.reserve(max(oid + 1, len(self.parts) * 2 or 1024))
            self.parts[oid] = pid
            self.offs[oid] = offset
            self.sizes[oid] = size
            self.ptrs[oid] = pointers
            self.kinds[oid] = kind.code
            self.shared[oid] = 0
        else:
            self.overflow[oid] = (pid, offset, size)
            self.overflow_rows[oid] = [pointers, kind, False, False]
        self._count += 1
        return pointers

    def discard(self, oid: ObjectId) -> bool:
        """Empty ``oid``'s row if present; returns whether it was."""
        if 0 <= oid < len(self.parts):
            if self.parts[oid] < 0:
                return False
            self.parts[oid] = _ABSENT
            self.ptrs[oid] = None
            self.kinds[oid] = 0
            self.dead[oid] = 0
        elif self.overflow.pop(oid, None) is None:
            return False
        else:
            del self.overflow_rows[oid]
        self._count -= 1
        return True

    def writable(self, oid: ObjectId) -> Optional[dict[str, Optional[ObjectId]]]:
        """``oid``'s pointer dict, safe to write in place, or ``None``.

        A shared row's dict may be a capture's too: the first write after
        the capture puts a private copy in the row — so a capture never
        sees a later write.
        """
        if 0 <= oid < len(self.ptrs):
            pointers = self.ptrs[oid]
            if pointers is not None and self.shared[oid]:
                pointers = self.ptrs[oid] = pointers.copy()
                self.shared[oid] = 0
            return pointers
        row = self.overflow_rows.get(oid)
        if row is None:
            return None
        if row[_SHARED]:
            row[_PTRS] = row[_PTRS].copy()
            row[_SHARED] = False
        return row[_PTRS]

    def set_dead(self, oid: ObjectId, flag: bool) -> int:
        """Set ``oid``'s dead flag; returns its size if the flag changed,
        else 0 (no row, or already so)."""
        if 0 <= oid < len(self.parts):
            if self.parts[oid] < 0 or bool(self.dead[oid]) == flag:
                return 0
            self.dead[oid] = flag
            return self.sizes[oid]
        row = self.overflow_rows.get(oid)
        if row is None or row[_DEAD] == flag:
            return 0
        row[_DEAD] = flag
        return self.overflow[oid][2]

    def capture(self) -> TableCapture:
        """The rows as they are now, beyond the reach of later writes.

        C-level copies of the size, kind and dead columns, and of the
        pointer-dict column as references: every row is marked shared, so
        this table copies a dict before writing it (:meth:`writable`).
        """
        shared = self.shared
        shared[:] = b"\x01" * len(shared)
        rows = self.overflow_rows
        for row in rows.values():
            row[_SHARED] = True
        return TableCapture(
            self.sizes[:],
            self.ptrs[:],
            self.kinds[:],
            self.dead[:],
            {
                oid: (entry[2], rows[oid][_KIND], rows[oid][_DEAD], rows[oid][_PTRS])
                for oid, entry in self.overflow.items()
            },
            self._count,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObjectTable(count={self._count}, dense={len(self.parts)}, "
            f"overflow={len(self.overflow)})"
        )


class TableCapture:
    """What :meth:`ObjectTable.capture` keeps of the rows: sizes, kinds and
    dead flags by value, pointer dicts by reference. Read, never written.

    A row is present when its kind code is set; ``overflow`` maps each
    overflow oid to ``(size, kind, dead, pointers)``.
    """

    __slots__ = ("sizes", "ptrs", "kinds", "dead", "overflow", "_count")

    def __init__(self, sizes, ptrs, kinds, dead, overflow, count) -> None:
        self.sizes = sizes
        self.ptrs = ptrs
        self.kinds = kinds
        self.dead = dead
        self.overflow = overflow
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[ObjectId]:
        kinds = self.kinds
        for oid in range(len(kinds)):
            if kinds[oid]:
                yield oid
        yield from self.overflow

    def rows(self) -> Iterator[tuple]:
        """``(oid, size, kind, dead, pointers)`` per row, in :meth:`__iter__`
        order."""
        sizes, kinds, dead, ptrs = self.sizes, self.kinds, self.dead, self.ptrs
        for oid in range(len(kinds)):
            code = kinds[oid]
            if code:
                yield oid, sizes[oid], _KINDS[code], bool(dead[oid]), ptrs[oid]
        for oid, entry in self.overflow.items():
            yield (oid, *entry)
