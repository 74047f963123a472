"""Canonical rendering of plain-data values for content addressing.

Both on-disk caches key their entries on SHA-256 digests of *canonical
material*: the result cache digests experiment specs
(:func:`repro.sim.cache.spec_fingerprint`), the trace cache digests
workload descriptions (:func:`repro.workload.trace_cache.trace_fingerprint`).
This module holds the one shared canonicaliser both build on, so a value
renders to the same bytes no matter which cache asks.

The function lived in :mod:`repro.sim.spec` originally; it moved here when
the unified workload protocol (:mod:`repro.workload.base`) made workload
modules need it too — importing it from ``repro.sim.spec`` there would
close an import cycle (``sim.spec`` imports the workload generators).
``repro.sim.spec`` re-exports it unchanged, so existing fingerprints are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Mapping

#: Dataclass fields excluded from canonical material, by class name.
#: ``SimulationConfig.replay`` selects *which interpreter* drives the trace
#: and ``SimulationConfig.collection`` / ``gc_workers`` select how
#: collections are executed (serial, or speculatively pre-traced by N
#: workers and validated at apply) — none changes *what* is simulated: each
#: mode produces identical results (property-tested), so including them
#: would split the result cache and invalidate every fingerprint minted
#: before the fields existed.
CANONICAL_EXCLUDED_FIELDS: dict[str, frozenset[str]] = {
    "SimulationConfig": frozenset({"replay", "collection", "gc_workers"}),
}


def canonical_value(value: Any) -> Any:
    """Render a value into a canonical JSON-compatible structure.

    Dataclasses are tagged with their class name so that two config types
    with coincidentally identical fields hash differently; mappings are
    key-sorted by the JSON dump downstream. Fields listed in
    :data:`CANONICAL_EXCLUDED_FIELDS` are omitted (they cannot affect
    results, so they must not affect fingerprints).

    Raises:
        TypeError: for values that cannot be canonicalised (live objects,
            closures, ...) — callers treat those specs as uncacheable.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        excluded = CANONICAL_EXCLUDED_FIELDS.get(type(value).__name__, ())
        rendered = {
            f.name: canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in excluded
        }
        rendered["__class__"] = type(value).__name__
        return rendered
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if isinstance(value, Mapping):
        return {str(key): canonical_value(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"value {value!r} of type {type(value).__name__} cannot be part of a "
        "cacheable experiment spec (use plain data, dataclasses, or enums)"
    )
