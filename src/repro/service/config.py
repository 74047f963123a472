"""Service-mode configuration: pacing, durability cadence, and bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Valid backpressure modes (see :mod:`repro.service.backpressure`).
BACKPRESSURE_MODES = ("off", "shed")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of a long-running :class:`~repro.service.server.GcService`.

    Attributes:
        target_ops_per_s: Wall-clock admission rate. The loop sleeps just
            enough to hold the stream at this rate; ``None`` (default)
            consumes events as fast as the hardware allows. Pacing is pure
            wall-clock behaviour — it never changes results.
        checkpoint_every_events: Quiescent-point checkpoint cadence, in
            applied events. Each checkpoint snapshots the committed state
            (:func:`repro.tx.recovery.build_checkpoint`), pays its modelled
            WAL I/O, and truncates the redo log — recovery afterwards
            replays only the suffix logged since.
        max_log_records: Redo-log backlog bound. When the post-checkpoint
            suffix exceeds this, a checkpoint is taken early at the next
            quiescent point, regardless of the event cadence. ``None``
            disables the bound.
        max_heap_bytes: Hard bound on the modelled heap (``store.db_size``).
            Admission control keeps occupancy at or under this bound by
            forcing collections and, if garbage collection cannot free
            enough, shedding incoming work — see ``backpressure``.
            ``None`` disables admission control.
        backpressure: What to do when ``max_heap_bytes`` would be exceeded
            and forced collections cannot reclaim enough: ``"shed"`` drops
            the incoming work (and everything referencing it, so the
            stream stays coherent), ``"off"`` disables admission entirely
            (the deterministic-drill posture: shed decisions depend on GC
            timing, which crash/recovery legitimately shifts, so
            byte-identity soaks run with backpressure off).
        max_events: Stop after this many stream events (``None`` runs until
            shutdown is requested). Bounded soaks and the CLI set it.
    """

    target_ops_per_s: Optional[float] = None
    checkpoint_every_events: int = 50_000
    max_log_records: Optional[int] = None
    max_heap_bytes: Optional[int] = None
    backpressure: str = "off"
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.target_ops_per_s is not None and self.target_ops_per_s <= 0:
            raise ValueError(
                f"target_ops_per_s must be > 0, got {self.target_ops_per_s}"
            )
        if self.checkpoint_every_events < 1:
            raise ValueError(
                "checkpoint_every_events must be >= 1, got "
                f"{self.checkpoint_every_events}"
            )
        if self.max_log_records is not None and self.max_log_records < 1:
            raise ValueError(
                f"max_log_records must be >= 1, got {self.max_log_records}"
            )
        if self.max_heap_bytes is not None and self.max_heap_bytes < 1:
            raise ValueError(
                f"max_heap_bytes must be >= 1, got {self.max_heap_bytes}"
            )
        if self.backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.backpressure!r}"
            )
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(
                f"max_events must be >= 0, got {self.max_events}"
            )
