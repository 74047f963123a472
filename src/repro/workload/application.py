"""The complete OO7 test application (Figure 2): GenDB→Reorg1→Traverse→Reorg2."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.events import TraceEvent, TraceSink, stream_events
from repro.oo7.config import OO7Config
from repro.oo7.schema import Oo7Graph
from repro.workload.phases import (
    PHASE_ORDER,
    doc_churn_steps,
    gen_db_steps,
    reorg1_steps,
    reorg2_steps,
    traverse_steps,
)


@dataclass
class Oo7Application:
    """Generates the paper's four-phase OO7 application trace.

    Args:
        config: OO7 database parameters (Table 1 variants live in
            :mod:`repro.oo7.config`).
        seed: Seed for all randomised behaviour (database structure and
            reorganisation victim choices). Simulation repetitions "differ
            only in the initial random number seed" (§3.2).
        delete_fraction: Fraction of deletable parts each reorganisation
            removes (the paper uses one half).
        doc_churn_fraction: When positive, a document-replacement phase runs
            after each reorganisation, rewriting this fraction of composite
            documents (§2.1's "very large objects … such as OO7 document
            nodes" disconnected by single overwrites). Zero (the default)
            gives exactly the paper's four-phase application.

    The application is a one-shot generator: iterate :meth:`events` (or the
    application itself) once, or call :meth:`emit_trace` once. The underlying
    :class:`~repro.oo7.schema.Oo7Graph` stays accessible for inspection
    after (or during) the run.
    """

    config: OO7Config
    seed: int = 0
    delete_fraction: float = 0.5
    doc_churn_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delete_fraction <= 1.0:
            raise ValueError(
                f"delete_fraction must be in (0, 1], got {self.delete_fraction}"
            )
        if not 0.0 <= self.doc_churn_fraction <= 1.0:
            raise ValueError(
                f"doc_churn_fraction must be in [0, 1], got {self.doc_churn_fraction}"
            )
        self.rng = random.Random(self.seed)
        self.graph = Oo7Graph(self.config, rng=self.rng)

    def canonical_material(self) -> dict:
        """Content-addressing material (:class:`repro.workload.base.WorkloadSpec`)."""
        return {
            "workload": "oo7",
            "config": self.config,
            "delete_fraction": self.delete_fraction,
            "doc_churn_fraction": self.doc_churn_fraction,
            "seed": self.seed,
        }

    @property
    def phase_names(self) -> tuple[str, ...]:
        if self.doc_churn_fraction > 0:
            return (
                PHASE_ORDER[0],
                PHASE_ORDER[1],
                "DocChurn1",
                PHASE_ORDER[2],
                PHASE_ORDER[3],
                "DocChurn2",
            )
        return PHASE_ORDER

    def events(self) -> Iterator[TraceEvent]:
        """The full trace: GenDB, Reorg1[, DocChurn], Traverse, Reorg2[, DocChurn]."""
        return stream_events(self._steps)

    __iter__ = events

    def emit_trace(self, out: TraceSink) -> None:
        """Write the same trace into ``out`` without building event objects."""
        for _ in self._steps(out):
            pass

    def _steps(self, out: TraceSink) -> Iterator[None]:
        graph, rng = self.graph, self.rng
        yield from gen_db_steps(graph, out)
        yield from reorg1_steps(graph, rng, self.delete_fraction, out)
        if self.doc_churn_fraction > 0:
            yield from doc_churn_steps(
                graph, rng, self.doc_churn_fraction, "DocChurn1", out
            )
        yield from traverse_steps(graph, out)
        yield from reorg2_steps(graph, rng, self.delete_fraction, out)
        if self.doc_churn_fraction > 0:
            yield from doc_churn_steps(
                graph, rng, self.doc_churn_fraction, "DocChurn2", out
            )
