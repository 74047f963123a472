"""Partitions: the disjoint units of disk space the collector works on.

A partition is a fixed-size region of the database file, subdivided into
pages (see :mod:`repro.storage.buffer`). Objects are bump-allocated at byte
offsets within a partition (:meth:`Partition.bump`); the object table
records each placement, and the pages an object spans are derived from its
offset and size (``ObjectStore.pages_of``).

Partitions also carry the two pieces of per-partition state the paper's
policies need:

* the **pointer-overwrite counter** (the "fine grain state" of §2.4 and the
  input to the UPDATEDPOINTER partition-selection policy of [CWZ94]), and
* the **remembered set** of external objects holding pointers into the
  partition (the collector's conservative root set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.storage.object_model import ObjectId

#: Partition identifiers are small sequential integers.
PartitionId = int


@dataclass(slots=True)
class Partition:
    """A fixed-capacity region of the database holding objects.

    Allocation within a partition is bump-pointer style: objects are placed at
    the current fill offset. Space freed by object death is *not* reusable
    until the collector compacts the partition (copying collection rewrites
    survivors contiguously from offset zero).

    Attributes:
        pid: Partition identifier.
        capacity: Total bytes in the partition.
        fill: Bump-allocation offset; bytes in ``[0, fill)`` are occupied by
            objects (live or garbage) since the last compaction.
        residents: Object ids currently placed in this partition.
        pointer_overwrites: Count of pointer overwrites whose *target* (old
            value) pointed into this partition since the last collection of
            this partition. This is the FGS counter of §2.4.
        incoming: Remembered set — for each resident object id, the external
            object ids with pointer slots targeting it, with a reference
            count per source (one source may reference the same target
            through several slots).
    """

    pid: PartitionId
    capacity: int
    fill: int = 0
    residents: set[ObjectId] = field(default_factory=set)
    pointer_overwrites: int = 0
    incoming: dict[ObjectId, dict[ObjectId, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"partition capacity must be positive, got {self.capacity}")

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Bytes available for bump allocation."""
        return self.capacity - self.fill

    def fits(self, size: int) -> bool:
        """Whether a ``size``-byte object can be bump-allocated here."""
        return size <= self.free_bytes

    def bump(self, oid: ObjectId, size: int) -> int:
        """Bump allocation, unchecked; returns the placement offset.

        The store's first-fit scan (and the batched replay interpreter) has
        already proven the object fits (:meth:`fits`); the object table
        stores the partition, this offset and the size as three ints.
        """
        offset = self.fill
        self.fill = offset + size
        self.residents.add(oid)
        return offset

    def reset_for_compaction(self) -> None:
        """Empty the partition prior to re-placing its survivors.

        The store calls this, then installs the survivors' resident set
        (``set(survivors)``, the history of bumping each survivor in copy
        order) and their offsets. The remembered set is preserved for surviving residents and
        pruned by the store as part of collection bookkeeping; the
        pointer-overwrite counter resets to zero (§2.4: "the FGS value of one
        single partition changes from x to 0").
        """
        self.fill = 0
        self.residents.clear()
        self.pointer_overwrites = 0

    # ------------------------------------------------------------------
    # Remembered set
    # ------------------------------------------------------------------

    def remember(self, source: ObjectId, target: ObjectId) -> None:
        """Record that external object ``source`` points at resident ``target``.

        Reference-counted: a source referencing the same target through
        several slots must be forgotten as many times before the entry drops.
        """
        sources = self.incoming.setdefault(target, {})
        sources[source] = sources.get(source, 0) + 1

    def forget(self, source: ObjectId, target: ObjectId) -> bool:
        """Drop one remembered reference; silently ignores absent entries.

        Absent entries are normal: the store only records *external*
        references, and intra-partition pointers are never remembered.
        Returns whether a reference was actually dropped, so the store's
        ``forgets_total`` counts only edges that were remembered.
        """
        sources = self.incoming.get(target)
        if sources is None:
            return False
        count = sources.get(source)
        if count is None:
            return False
        if count <= 1:
            del sources[source]
            if not sources:
                del self.incoming[target]
        else:
            sources[source] = count - 1
        return True

    def drop_incoming(self, target: ObjectId) -> Optional[dict[ObjectId, int]]:
        """Remove all remembered references to ``target`` (it was reclaimed).

        Returns the dropped source → count mapping (``None`` when there was
        none) so the caller can count the references it forgot.
        """
        return self.incoming.pop(target, None)

    def externally_referenced(self) -> set[ObjectId]:
        """Residents with at least one remembered external reference."""
        return {target for target, sources in self.incoming.items() if sources}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def page_count(self, page_size: int) -> int:
        """Number of pages the partition spans."""
        return (self.capacity + page_size - 1) // page_size

    def used_pages(self, page_size: int) -> int:
        """Number of pages containing at least one allocated byte."""
        if self.fill == 0:
            return 0
        return (self.fill + page_size - 1) // page_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partition(pid={self.pid}, fill={self.fill}/{self.capacity}, "
            f"residents={len(self.residents)}, po={self.pointer_overwrites})"
        )
