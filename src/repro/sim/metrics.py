"""Measurement machinery for simulation runs.

The paper's measurement protocol (§3.2, §4.1):

* metrics are *sampled at each database event* ("an approximation of a
  uniform sample, given the assumption of an active workload");
* each run's cold-start **preamble** — the first N collections — is excluded
  from means ("we isolate the preamble to the significant part of a run");
* achieved GC-I/O percentage is the collector's share of all I/O over the
  significant region; achieved garbage percentage is the event-sampled mean
  of the database garbage fraction over the significant region.

:class:`Sampler` implements this protocol with O(1) state per event, and
keeps one :class:`CollectionRecord` per collection for the time-varying
figures (6 and 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gc.collector import CollectionResult
from repro.storage.heap import ObjectStore
from repro.storage.iostats import IOStats


@dataclass
class CollectionRecord:
    """Per-collection observation (drives Figures 6 and 7)."""

    number: int
    phase: str
    event_index: int
    overwrite_clock: int
    partition: int
    reclaimed_bytes: int
    live_bytes: int
    gc_io: int
    interval_next: float
    actual_garbage_fraction: float
    estimated_garbage_fraction: Optional[float]
    target_garbage_fraction: Optional[float]
    db_size: int
    #: FGS state at the recording moment: pointer overwrites still pending
    #: across all partitions (the victim's were just reset) and the
    #: partition count. Defaulted so records cached before these fields
    #: existed still rehydrate. The learned estimator trains on them.
    pending_overwrites: int = 0
    partition_count: int = 0

    @property
    def yield_bytes(self) -> int:
        """Collection yield — bytes reclaimed (middle graph of Figure 7b)."""
        return self.reclaimed_bytes

    @property
    def estimator_error(self) -> Optional[float]:
        """Signed estimator error vs the oracle (estimated − actual).

        None when the policy published no estimate (e.g. fixed-rate runs).
        """
        if self.estimated_garbage_fraction is None:
            return None
        return self.estimated_garbage_fraction - self.actual_garbage_fraction


@dataclass(slots=True)
class RunningMean:
    """Streaming mean/min/max accumulator."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count


@dataclass
class SimulationSummary:
    """Headline results of one simulation run."""

    events: int
    collections: int
    preamble_collections: int
    #: Event-sampled mean garbage fraction over the significant region.
    garbage_fraction_mean: float
    garbage_fraction_min: float
    garbage_fraction_max: float
    #: GC share of total I/O over the significant region.
    gc_io_fraction: float
    #: GC share of total I/O over the whole run (including preamble).
    gc_io_fraction_total: float
    app_io_total: int
    gc_io_total: int
    total_reclaimed_bytes: int
    total_garbage_generated: int
    pointer_overwrites: int
    final_garbage_fraction: float
    final_db_size: int
    final_partitions: int
    #: True when the run performed enough collections to exit the preamble.
    significant: bool


class Sampler:
    """Streams per-event measurements for one run into O(1) running means,
    and keeps one :class:`CollectionRecord` per collection — what Figures 6
    and 7 plot (the engine returns them under ``keep_records=True``).

    Args:
        preamble_collections: Collections excluded from significant-region
            means (the paper uses 10 for time-varying results, 10–30
            elsewhere).
    """

    def __init__(self, preamble_collections: int = 10) -> None:
        if preamble_collections < 0:
            raise ValueError("preamble_collections must be non-negative")
        self.preamble_collections = preamble_collections

        self.phase = "(setup)"
        self.phase_boundaries: dict[str, int] = {}
        self.event_index = 0
        self.collections = 0
        self._garbage = RunningMean()
        # Whole-run accumulator: the fallback when a run performs fewer
        # collections than the preamble and never becomes "significant".
        self._garbage_all = RunningMean()
        self._significant_started = False
        self._app_io_at_significant = 0
        self._gc_io_at_significant = 0
        self.collection_records: list[CollectionRecord] = []

    # ------------------------------------------------------------------
    # Hooks called by the simulator
    # ------------------------------------------------------------------

    def on_phase(self, name: str) -> None:
        self.phase = name
        self.phase_boundaries[name] = self.event_index

    def on_event(self, store: ObjectStore, iostats: IOStats) -> None:
        """Sample after each applied database event."""
        self.event_index += 1
        garbage_fraction = store.garbage_fraction
        self._garbage_all.add(garbage_fraction)

        if self._significant_started:
            self._garbage.add(garbage_fraction)
        elif self.collections >= self.preamble_collections:
            self._significant_started = True
            self._app_io_at_significant = iostats.application_total
            self._gc_io_at_significant = iostats.collector_total
            self._garbage.add(garbage_fraction)

    def on_collection(
        self,
        result: CollectionResult,
        store: ObjectStore,
        interval_next: float,
        estimated_garbage_bytes: Optional[float],
        target_garbage_fraction: Optional[float],
    ) -> None:
        """Record the outcome of a collection (after the policy's decision)."""
        self.collections += 1
        db_size = store.db_size
        estimated_fraction = None
        if estimated_garbage_bytes is not None and db_size > 0:
            estimated_fraction = estimated_garbage_bytes / db_size
        self.collection_records.append(
            CollectionRecord(
                number=result.collection_number,
                phase=self.phase,
                event_index=self.event_index,
                overwrite_clock=result.overwrite_clock,
                partition=result.partition,
                reclaimed_bytes=result.reclaimed_bytes,
                live_bytes=result.live_bytes,
                gc_io=result.gc_io,
                interval_next=interval_next,
                actual_garbage_fraction=store.garbage_fraction,
                estimated_garbage_fraction=estimated_fraction,
                target_garbage_fraction=target_garbage_fraction,
                db_size=db_size,
                pending_overwrites=store.pending_overwrites,
                partition_count=store.partition_count,
            )
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def summary(self, store: ObjectStore, iostats: IOStats) -> SimulationSummary:
        significant = self._significant_started
        if significant:
            app_io = iostats.application_total - self._app_io_at_significant
            gc_io = iostats.collector_total - self._gc_io_at_significant
        else:
            app_io = iostats.application_total
            gc_io = iostats.collector_total
        region_total = app_io + gc_io
        gc_fraction = gc_io / region_total if region_total > 0 else 0.0
        garbage = self._garbage if significant else self._garbage_all
        return SimulationSummary(
            events=self.event_index,
            collections=self.collections,
            preamble_collections=self.preamble_collections,
            garbage_fraction_mean=garbage.mean,
            garbage_fraction_min=garbage.minimum if garbage.count else 0.0,
            garbage_fraction_max=garbage.maximum if garbage.count else 0.0,
            gc_io_fraction=gc_fraction,
            gc_io_fraction_total=iostats.collector_fraction,
            app_io_total=iostats.application_total,
            gc_io_total=iostats.collector_total,
            total_reclaimed_bytes=store.garbage.total_collected,
            total_garbage_generated=store.garbage.total_generated,
            pointer_overwrites=store.pointer_overwrites,
            final_garbage_fraction=store.garbage_fraction,
            final_db_size=store.db_size,
            final_partitions=store.partition_count,
            significant=significant,
        )
