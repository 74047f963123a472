"""The five benchmark workloads.

Each workload is a fixed list of *cells* derived from ``--seed``. A cell is
one call into a public entry point of ``repro`` (the experiment engine,
``Simulation.run`` or ``GcService.run``); a *round* runs every cell once.
The harness repeats identical rounds for the measuring window, so every
count a round produces must repeat exactly, and timings are medians over
rounds.

Why these five (the layer each one loads is measured in ``bench/README.md``):

* ``oo7_cold``   — trace build dominates; the only workload that sees the
  workload generators and the engine's caches.
* ``oo7_warm``   — prebuilt compiled traces; the batched interpreter and the
  store do nearly all the work, build is zero.
* ``gc_churn``   — collector-bound synthetic churn, serial collection.
* ``gc_churn_par`` — the identical traces and policy under the parallel
  scheduler: the same layer used the other way (short pauses, slow replay).
* ``serve_mix``  — the service path: scalar apply, WAL, redo log,
  checkpoints, streaming generation and admission control all live.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.experiments.common import SAGA_PREAMBLE, SAIO_PREAMBLE, oo7_spec
from repro.faults.drill import state_digest
from repro.fleet import parse_policy
from repro.obs.telemetry import RunTelemetry
from repro.oo7.config import SMALL_PRIME, TINY
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import tenant_stream
from repro.sim.cache import ResultCache
from repro.sim.engine import run_experiment_batch
from repro.sim.simulator import Simulation, SimulationConfig
from repro.sim.spec import (
    PolicySpec,
    WorkloadSpec,
    build_policy,
    build_selection,
    build_workload,
)
from repro.storage.heap import StoreConfig
from repro.storage.validation import validate_store
from repro.tx.recovery import recover
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload
from repro.workload.tenants import tenant_mix
from repro.workload.trace_cache import TraceCache

SCALES = ("standard", "smoke")


@dataclass
class CellOut:
    """What one cell produced."""

    summary: object
    #: Events offered to the program / applied by it / refused by admission.
    offered: int
    applied: int
    shed: int = 0
    #: ("saio" | "saga", requested fraction) for self-adaptive cells.
    goal: Optional[tuple[str, float]] = None
    #: The live simulation, when the cell built one itself (the engine
    #: keeps its own). Dropped by the harness before the next cell starts.
    sim: Optional[Simulation] = None
    #: Workload-specific handles for ``verify`` (service report, caches...).
    detail: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of a workload's post-measurement checks."""

    failures: list[str] = field(default_factory=list)
    #: Layer numbers the checks measured on the side (trace runs report them).
    extras: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def same(a: object, b: object) -> bool:
    """Pickle equality — the repo's own notion of 'identical summary'."""
    return pickle.dumps(a) == pickle.dumps(b)


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def trace_extras(trace: CompiledTrace, build_s: float, compile_s: float, events: int) -> dict:
    """``workload.*`` numbers of traces that took ``build_s``/``compile_s`` to make."""
    return {
        "workload.build_s": build_s,
        "workload.build_events_per_s": events / build_s,
        "workload.compile_s": compile_s,
        "workload.compile_events_per_s": events / compile_s,
        "workload.run_len1_frac": run_len1_frac(trace),
    }


def save_load_extras(verdict: Verdict, trace: CompiledTrace, path: Path) -> dict:
    """Round-trip ``trace`` through its binary format; time both directions."""
    save_s, _ = timed(lambda: trace.save(path))
    load_s, loaded = timed(lambda: CompiledTrace.load(path))
    verdict.expect(len(loaded) == len(trace), f"{path.name}: trace save/load lost events")
    return {
        "workload.save_s": save_s,
        "workload.load_s": load_s,
        "workload.trace_bytes_per_event": path.stat().st_size / len(trace),
    }


def _store_ok(verdict: Verdict, store, what: str) -> None:
    report = validate_store(store, strict=False)
    verdict.expect(report.ok, f"{what}: store invariants violated: {report.violations[:3]}")


# ----------------------------------------------------------------------
# OO7 cells (shared by the cold and warm workloads)
# ----------------------------------------------------------------------

#: SAIO 10% / SAGA 10% FGS/HB / fixed 200 — the paper's Figure 4, 5 and 1 units.
OO7_POLICIES = (
    ("saio", PolicySpec("saio", {"io_fraction": 0.10}), SAIO_PREAMBLE, ("saio", 0.10)),
    (
        "saga",
        PolicySpec("saga", {"garbage_fraction": 0.10, "estimator": "fgs-hb"}),
        SAGA_PREAMBLE,
        ("saga", 0.10),
    ),
    ("fixed", PolicySpec("fixed", {"overwrites_per_collection": 200.0}), SAGA_PREAMBLE, None),
)


def _new_sim(spec, seed: int, **overrides) -> Simulation:
    config = replace(spec.sim, **overrides) if overrides else spec.sim
    return Simulation(
        policy=build_policy(spec.policy, seed),
        selection=build_selection(spec.selection, seed),
        config=config,
    )


class Oo7Cold:
    """The researcher's cold figure cell, through the experiment engine."""

    name = "oo7_cold"
    why = (
        "cold Figure-1/4/5 cells through the engine: the only workload where "
        "trace build (workload+oo7) dominates; build-side work shows here only"
    )

    def setup(self, seed: int, scale: str) -> dict:
        config = SMALL_PRIME if scale == "standard" else TINY
        count = 9 if scale == "standard" else 3
        cells = []
        for i in range(count):
            label, policy, preamble, goal = OO7_POLICIES[i % len(OO7_POLICIES)]
            cells.append((oo7_spec(policy, config, preamble, label=label), seed + i, goal))
        return {"cells": cells}

    def cell_count(self, inputs: dict) -> int:
        return len(inputs["cells"])

    def _engine(self, spec, seed: int, scratch: Path):
        """One engine call against caches rooted in ``scratch``."""
        trace_cache = TraceCache(scratch / "traces")
        aggregate = run_experiment_batch(
            [spec],
            seeds=[seed],
            jobs=1,
            trace_cache=trace_cache,
            cache=ResultCache(scratch / "results"),
        )[0]
        if aggregate.failures:
            raise RuntimeError(f"engine quarantined the cell: {aggregate.failures}")
        return aggregate, trace_cache

    def run_cell(self, inputs: dict, index: int, scratch: Path) -> CellOut:
        spec, seed, goal = inputs["cells"][index]
        aggregate, trace_cache = self._engine(spec, seed, scratch)
        summary = aggregate.summaries[0]
        return CellOut(
            summary=summary,
            offered=summary.events,
            applied=summary.events,
            goal=goal,
            detail={"stats": aggregate.stats, "trace_stats": trace_cache.stats},
        )

    def verify(self, inputs: dict, outs: list[CellOut], last: CellOut, scratch: Path) -> Verdict:
        """Engine == direct, cached == computed, store invariants."""
        verdict = Verdict()
        spec, seed, _goal = inputs["cells"][-1]
        reference = outs[-1].summary

        cold_s, (cold, _) = timed(lambda: self._engine(spec, seed, scratch))
        warm_s, (warm, _) = timed(lambda: self._engine(spec, seed, scratch))
        verdict.expect(same(cold.summaries[0], reference), "oo7_cold: repeat cell differs")
        verdict.expect(same(warm.summaries[0], reference), "oo7_cold: cached summary differs")
        verdict.expect(warm.stats.cache_hits == 1, "oo7_cold: second call missed the result cache")

        build_s, events = timed(lambda: list(build_workload(spec.workload, seed)))
        compile_s, trace = timed(lambda: compile_trace(events))
        run_s, result = timed(lambda: _new_sim(spec, seed).run(trace))
        verdict.expect(same(result.summary, reference), "oo7_cold: engine != direct run")
        _store_ok(verdict, result.store, "oo7_cold")

        verdict.extras.update(trace_extras(trace, build_s, compile_s, len(trace)))
        verdict.extras.update(save_load_extras(verdict, trace, scratch / "direct.trace"))
        verdict.extras.update(
            {
                "sim.engine_overhead_s": cold_s - (build_s + compile_s + run_s),
                "sim.cache_warm_ms": warm_s * 1e3,
                "sim.cache_hit_rate": warm.stats.cache_hits / warm.stats.runs,
            }
        )
        return verdict


class Oo7Warm:
    """Warm replay of prebuilt compiled traces under three policies."""

    name = "oo7_warm"
    why = (
        "prebuilt compiled OO7 traces (connectivity 3 and 9): sim+storage do "
        "nearly all the work, build is zero; interpreter changes show here"
    )

    def setup(self, seed: int, scale: str) -> dict:
        config = SMALL_PRIME if scale == "standard" else TINY
        cells = []
        build_s = compile_s = 0.0
        events_total = 0
        for j, connectivity in enumerate((3, 9)):
            conn_config = config.with_connectivity(connectivity)
            workload = WorkloadSpec("oo7", {"config": conn_config})
            spent, events = timed(lambda: list(build_workload(workload, seed + j)))
            build_s += spent
            spent, trace = timed(lambda: compile_trace(events))
            compile_s += spent
            events_total += len(trace)
            del events
            for label, policy, preamble, goal in OO7_POLICIES:
                spec = oo7_spec(policy, conn_config, preamble, label=f"{label}@c{connectivity}")
                cells.append((spec, trace, seed + j, goal))
        return {
            "cells": cells,
            "build_s": build_s,
            "compile_s": compile_s,
            "events": events_total,
        }

    def cell_count(self, inputs: dict) -> int:
        return len(inputs["cells"])

    def run_cell(self, inputs: dict, index: int, scratch: Path) -> CellOut:
        spec, trace, seed, goal = inputs["cells"][index]
        sim = _new_sim(spec, seed)
        summary = sim.run(trace).summary
        return CellOut(
            summary=summary, offered=summary.events, applied=summary.events, goal=goal, sim=sim
        )

    def verify(self, inputs: dict, outs: list[CellOut], last: CellOut, scratch: Path) -> Verdict:
        """Scalar oracle == batched, telemetry changes nothing, store invariants."""
        verdict = Verdict()
        spec, trace, seed, _goal = inputs["cells"][0]
        reference = outs[0].summary
        batched_s, batched = timed(lambda: _new_sim(spec, seed).run(trace))
        scalar_s, scalar = timed(lambda: _new_sim(spec, seed, replay="scalar").run(trace))
        verdict.expect(same(batched.summary, reference), "oo7_warm: repeat cell differs")
        verdict.expect(same(scalar.summary, reference), "oo7_warm: scalar oracle != batched")

        telemetry = RunTelemetry(scratch / "telemetry.jsonl", kind="bench", label="oo7_warm")
        observed = Simulation(
            policy=build_policy(spec.policy, seed),
            selection=build_selection(spec.selection, seed),
            config=spec.sim,
            obs=telemetry,
        )
        observed_s, observed_result = timed(lambda: observed.run(trace))
        telemetry.close()
        verdict.expect(
            same(observed_result.summary, reference), "oo7_warm: telemetry changed the summary"
        )
        _store_ok(verdict, last.sim.store, "oo7_warm")

        events = len(trace)
        verdict.extras.update(
            trace_extras(trace, inputs["build_s"], inputs["compile_s"], inputs["events"])
        )
        verdict.extras.update(save_load_extras(verdict, trace, scratch / "warm.trace"))
        verdict.extras.update(
            {
                "sim.scalar_ns_per_event": scalar_s / events * 1e9,
                "sim.batched_speedup": scalar_s / batched_s,
                "obs.telemetry_overhead_frac": observed_s / batched_s - 1.0,
                "obs.telemetry_bytes_per_event": telemetry.path.stat().st_size / events,
            }
        )
        return verdict


# ----------------------------------------------------------------------
# Collector-bound churn, serial and parallel
# ----------------------------------------------------------------------

#: 2 KB pages x 64-page partitions: large live partitions, so the survivor
#: trace and relocation dominate each collection.
CHURN_STORE = StoreConfig(page_size=2048, partition_pages=64, buffer_pages=8)


class GcChurn:
    """Synthetic create/delete/access churn under SAIO 30%."""

    name = "gc_churn"
    collection = "serial"
    gc_workers = 1
    why = (
        "collector-bound synthetic churn under SAIO 30%, serial collection: "
        "gc is over half of wall; collector changes show here"
    )

    def setup(self, seed: int, scale: str) -> dict:
        standard = scale == "standard"
        phase = SyntheticPhase(
            name="churn",
            operations=50_000 if standard else 3_000,
            create_weight=1.0,
            delete_weight=1.0,
            access_weight=2.0,
            cluster_size=4,
            object_size=128,
        )
        generator = SyntheticWorkload(
            [phase], seed=seed, initial_clusters=4800 if standard else 600
        )
        build_s, events = timed(lambda: list(generator.events()))
        compile_s, trace = timed(lambda: compile_trace(events))
        return {"trace": trace, "seed": seed, "build_s": build_s, "compile_s": compile_s}

    def cell_count(self, inputs: dict) -> int:
        return 1

    def _sim(self, seed: int, collection: str, gc_workers: int) -> Simulation:
        return Simulation(
            policy=build_policy(PolicySpec("saio", {"io_fraction": 0.30}), seed),
            config=SimulationConfig(
                store=CHURN_STORE, collection=collection, gc_workers=gc_workers
            ),
        )

    def run_cell(self, inputs: dict, index: int, scratch: Path) -> CellOut:
        sim = self._sim(inputs["seed"], self.collection, self.gc_workers)
        summary = sim.run(inputs["trace"]).summary
        return CellOut(
            summary=summary,
            offered=summary.events,
            applied=summary.events,
            goal=("saio", 0.30),
            sim=sim,
        )

    def verify(self, inputs: dict, outs: list[CellOut], last: CellOut, scratch: Path) -> Verdict:
        verdict = Verdict()
        _store_ok(verdict, last.sim.store, self.name)
        trace = inputs["trace"]
        verdict.extras.update(
            trace_extras(trace, inputs["build_s"], inputs["compile_s"], len(trace))
        )
        return verdict


class GcChurnPar(GcChurn):
    """The same traces and policy with ``collection="parallel"``."""

    name = "gc_churn_par"
    collection = "parallel"
    gc_workers = 2
    why = (
        "gc_churn's traces and policy with collection=parallel, gc_workers=2: "
        "pauses shrink, replay slows; a pause-for-throughput trade shows as two rows"
    )

    def verify(self, inputs: dict, outs: list[CellOut], last: CellOut, scratch: Path) -> Verdict:
        verdict = super().verify(inputs, outs, last, scratch)
        serial = self._sim(inputs["seed"], "serial", 1).run(inputs["trace"]).summary
        verdict.expect(same(serial, outs[0].summary), "gc_churn_par: summary != serial gc_churn")
        return verdict


# ----------------------------------------------------------------------
# The service path
# ----------------------------------------------------------------------

SERVE_PROFILES = ("oltp-churn", "bulk-load", "read-browse", "hot-key-skew")
#: The fleet/service store geometry: 2 KB pages, 16 KB partitions.
SERVE_STORE = StoreConfig(page_size=2048, partition_pages=8, buffer_pages=8)


class ServeMix:
    """``GcService.run`` over a four-tenant stream, closed loop, unthrottled.

    One client (the stream) whose next event is offered only after the
    previous one was applied or shed. The heap bound is reached after
    roughly half a cell, so admission control forces collections for the
    rest of it; with a 256-cluster live set the bound leaves enough garbage
    per partition that forced collections always make room and nothing is
    shed.
    """

    name = "serve_mix"
    why = (
        "GcService over a 4-tenant stream with WAL, redo log, checkpoints and a "
        "heap bound: the only scalar-path workload; tx and service work shows here"
    )

    def setup(self, seed: int, scale: str) -> dict:
        standard = scale == "standard"
        config = tenant_mix(list(SERVE_PROFILES), scale=1.0)
        return {
            "stream": tenant_stream(config, seed=seed, max_live_clusters=256 if standard else 32),
            "seed": seed,
            "service": ServiceConfig(
                checkpoint_every_events=20_000 if standard else 2_000,
                max_heap_bytes=8_000_000 if standard else 700_000,
                backpressure="shed",
                max_events=120_000 if standard else 8_000,
            ),
        }

    def cell_count(self, inputs: dict) -> int:
        return 1

    def run_cell(self, inputs: dict, index: int, scratch: Path) -> CellOut:
        service = GcService(
            policy=build_policy(parse_policy("saga:0.3"), inputs["seed"]),
            stream=inputs["stream"],
            sim_config=SimulationConfig(store=SERVE_STORE, preamble_collections=0),
            service=inputs["service"],
        )
        report = service.run()
        sim = service.sim
        return CellOut(
            summary=sim.sampler.summary(sim.store, sim.store.iostats),
            offered=report.events_seen,
            applied=report.events_applied,
            shed=report.backpressure.shed_events,
            goal=("saga", 0.3),
            sim=sim,
            detail={"report": report},
        )

    def verify(self, inputs: dict, outs: list[CellOut], last: CellOut, scratch: Path) -> Verdict:
        verdict = Verdict()
        for out in outs:
            verdict.expect(
                out.applied + out.shed == out.offered,
                "serve_mix: applied + shed != events seen",
            )
        report = last.detail["report"]
        recover_s, recovered = timed(lambda: recover(last.sim.redo_log, SERVE_STORE))
        verdict.expect(
            state_digest(recovered) == report.final_digest,
            "serve_mix: recovered state digest != final digest",
        )
        _store_ok(verdict, last.sim.store, "serve_mix")
        verdict.extras["tx.recover_s"] = recover_s
        return verdict


WORKLOADS = {w.name: w for w in (Oo7Cold(), Oo7Warm(), GcChurn(), GcChurnPar(), ServeMix())}


def run_len1_frac(trace: CompiledTrace) -> float:
    """Share of same-opcode runs that are one event long (an input property)."""
    ops = trace.ops
    runs = singles = 0
    i, n = 0, len(ops)
    while i < n:
        j = i + 1
        while j < n and ops[j] == ops[i]:
            j += 1
        runs += 1
        singles += j - i == 1
        i = j
    return singles / runs if runs else 0.0
