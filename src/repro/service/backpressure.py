"""Admission control: keep the modelled heap under a hard bound.

The service's bounded-memory guarantee is enforced *before* work is
applied: an incoming allocation that would push ``store.db_size`` past
``max_heap_bytes`` first forces garbage collections (the collector is the
legitimate way to make room); only when collection stops making progress
is the work degraded — shed outright, or counted as delayed and then shed
as the last resort. The heap bound is therefore an invariant, not a goal:
tests assert ``db_size`` never exceeds it at any point in an overload run.

Collections are forced only at quiescent points, the rule triggered
collections obey: a collection under an open transaction could reclaim
objects the block itself declared dead, which its abort could then not
resurrect. An allocation that does not fit *inside* a block therefore
aborts and sheds the block first; the collections that make room for the
next one are forced afterwards (:meth:`GcService._admit`).

Degradation is observable: every counter here surfaces through the
service's telemetry metrics (``service.backpressure.*``) and the
``repro metrics`` CLI.

Determinism caveat (why drills run with backpressure off): whether an
event is shed depends on heap occupancy at admission time, which depends
on collection timing — and a crash/recovery cycle legitimately shifts the
collection schedule. Byte-identity soak drills therefore disable
admission; backpressure has its own overload acceptance test instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.storage.heap import ObjectStore


@dataclass
class BackpressureStats:
    """Cumulative admission-control outcomes."""

    #: Admission checks that found the bound would be exceeded.
    engaged: int = 0
    #: Collections forced to make room (both modes).
    forced_collections: int = 0
    #: Delay rounds recorded (``delay`` mode only).
    delays: int = 0
    #: Events dropped (the shed ledger counts everything skipped,
    #: including cascaded skips of events referencing shed objects).
    shed_events: int = 0
    #: Objects never created because their create event was shed.
    shed_objects: int = 0
    #: Whole transaction blocks skipped.
    shed_transactions: int = 0

    def as_metrics(self) -> dict:
        return {
            "engaged": self.engaged,
            "forced_collections": self.forced_collections,
            "delays": self.delays,
            "shed_events": self.shed_events,
            "shed_objects": self.shed_objects,
            "shed_transactions": self.shed_transactions,
        }


class AdmissionController:
    """Decides, per incoming allocation, whether the heap can take it.

    Args:
        max_heap_bytes: The hard bound on ``store.db_size``.
        mode: ``"shed"`` or ``"delay"`` (the ``"off"`` mode never
            constructs a controller).
        collect_once: Forces one collection; returns True when it reclaimed
            anything (the service wires this to the simulation's collect
            path so forced collections feed the policy loop like any
            other).
        max_forced_collections: Per-admission cap on forced collection
            attempts, against pathological selection policies.
    """

    def __init__(
        self,
        max_heap_bytes: int,
        mode: str,
        collect_once: Callable[[], bool],
        max_forced_collections: int = 8,
    ) -> None:
        if max_heap_bytes < 1:
            raise ValueError(f"max_heap_bytes must be >= 1, got {max_heap_bytes}")
        if mode not in ("shed", "delay"):
            raise ValueError(f"mode must be 'shed' or 'delay', got {mode!r}")
        self.max_heap_bytes = max_heap_bytes
        self.mode = mode
        self.collect_once = collect_once
        self.max_forced_collections = max_forced_collections
        self.stats = BackpressureStats()

    def fits(self, store: ObjectStore, incoming_bytes: int) -> bool:
        """Whether ``incoming_bytes`` more would keep the heap in bound."""
        return store.db_size + incoming_bytes <= self.max_heap_bytes

    def admit(self, store: ObjectStore, incoming_bytes: int) -> bool:
        """True when ``incoming_bytes`` may be allocated within the bound.

        Forces collections until the allocation fits or collection stops
        reclaiming; a False return means the caller must shed the work —
        admitting it would break the heap invariant. Call it at quiescent
        points only (see the module docstring).
        """
        if self.fits(store, incoming_bytes):
            return True
        self.stats.engaged += 1
        for _ in range(self.max_forced_collections):
            if self.mode == "delay":
                self.stats.delays += 1
            self.stats.forced_collections += 1
            reclaimed = self.collect_once()
            if self.fits(store, incoming_bytes):
                return True
            if not reclaimed:
                break
        return False
