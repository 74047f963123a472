"""Logical object model for the simulated object database.

The simulator manipulates *stored objects*: fixed-size byte blobs with named
pointer slots. An object's identity is an :class:`ObjectId` that never changes,
even when the copying collector relocates the object within its partition.

Objects here carry no application payload — only the attributes the storage
layer and the garbage collector care about: a size in bytes, a kind tag (used
by workload generators and reports), and a mapping of pointer-slot names to
target object ids.

The store does not keep :class:`StoredObject` instances: its rows live in
the columns of :class:`~repro.storage.objtable.ObjectTable`, whose
``row(oid)`` and ``rows()`` build :class:`StoredObject` snapshots of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

#: Object identifiers are plain integers, allocated sequentially by the store.
ObjectId = int


class ObjectKind(enum.Enum):
    """Kind tag for stored objects.

    The storage layer treats all kinds identically; kinds exist so that
    workload generators, reports, and tests can reason about what a given
    object represents in the OO7 schema (or in synthetic workloads).
    """

    MODULE = "module"
    MANUAL = "manual"
    ASSEMBLY = "assembly"
    COMPOSITE_PART = "composite_part"
    DOCUMENT = "document"
    ATOMIC_PART = "atomic_part"
    CONNECTION = "connection"
    GENERIC = "generic"

    #: The kind's one-byte tag in the object table's ``kinds`` column
    #: (1, 2, ... in definition order; 0 marks an empty row).
    code: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectKind.{self.name}"


for _code, _kind in enumerate(ObjectKind, start=1):
    _kind.code = _code


@dataclass(slots=True)
class StoredObject:
    """A single object resident in the database heap, as a value.

    ``store.placements.row(oid)`` returns one of these: a snapshot of the
    object's row, whose ``pointers`` is the row's live dict.

    Attributes:
        oid: Immutable identity of the object.
        size: Size of the object in bytes (includes its pointer slots).
        kind: Schema kind tag (informational).
        pointers: Mapping from slot name to target ``ObjectId``. A slot that
            holds ``None`` is an explicit null pointer; absent slots have never
            been written.
        dead: Set by the store when the workload declares the object globally
            unreachable. The collector never reads this flag — it is oracle
            state used for exact garbage accounting.
    """

    oid: ObjectId
    size: int
    kind: ObjectKind = ObjectKind.GENERIC
    pointers: dict[str, Optional[ObjectId]] = field(default_factory=dict)
    dead: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"object size must be positive, got {self.size}")
