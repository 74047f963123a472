"""Multi-tenant traffic: deterministic interleaving of client streams.

The ROADMAP's north star is heavy traffic from many concurrent clients; the
paper's traces are single-application. This module models N *tenants* —
each a grammar workload (:mod:`repro.workload.grammar`) with its own
behaviour mix, pacing and seed — and merges their event streams into one
trace a single simulated store serves:

* **Interleaved** (:class:`TenantMix`): one heap, one trace. Each step a
  seeded weighted draw picks the tenant that emits next; object ids are
  stride-remapped (``oid * n_tenants + index``) so tenant id spaces never
  collide, and phase markers are prefixed ``tenant/phase`` so results
  remain attributable. Transactions, if a tenant emits them, stay atomic:
  once a tenant opens a transaction it keeps the floor until commit/abort.
* **Sharded** (:meth:`TenantMix.shards`): one heap per tenant. The same
  derived per-tenant seeds are used, so a sharded run is the interleaved
  run's traffic split across stores — the fleet driver sweeps both.

Per-tenant seeds derive from the mix seed as ``seed * 7919 + index``
(7919 = the 1000th prime — any odd multiplier works; it just keeps nearby
mix seeds from producing overlapping tenant seeds), so one mix seed pins
the whole scenario.

The bundled :data:`TENANT_PROFILES` library provides the scenario
vocabulary the ISSUE names — OLTP churn, bulk load, read-mostly browse,
diurnal bursts, hot-key skew — as ready grammar configs scaled by one
knob.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.events import TraceEvent, TraceSink, stream_events
from repro.workload.grammar import (
    Choice,
    Fixed,
    GrammarError,
    GrammarWorkload,
    OpMix,
    PhaseBlock,
    Uniform,
    WorkloadConfig,
    draw_table,
)

#: Bump when the tenant-mix schema changes shape.
TENANT_FORMAT_VERSION = 1

#: Multiplier for deriving per-tenant seeds from the mix seed.
TENANT_SEED_STRIDE = 7919


def tenant_seed(seed: int, index: int) -> int:
    """The seed tenant ``index`` derives from mix seed ``seed``."""
    return seed * TENANT_SEED_STRIDE + index


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a named grammar workload with an interleave weight."""

    name: str
    config: WorkloadConfig
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(self.weight))
        if not self.name:
            raise GrammarError("tenant name must be non-empty")
        if "/" in self.name:
            raise GrammarError(
                f"tenant name {self.name!r} must not contain '/' "
                "(reserved for the tenant/phase marker prefix)"
            )
        if self.weight <= 0:
            raise GrammarError(f"tenant weight must be > 0, got {self.weight}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "weight": self.weight,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "TenantSpec":
        if not isinstance(payload, dict):
            raise GrammarError(f"tenant must be a dict, got {payload!r}")
        unknown = set(payload) - {"name", "weight", "config"}
        if unknown:
            raise GrammarError(f"tenant got unknown keys {sorted(unknown)}")
        return cls(
            name=payload.get("name", ""),
            config=WorkloadConfig.from_dict(payload.get("config")),
            weight=float(payload.get("weight", 1.0)),
        )


@dataclass(frozen=True)
class TenantMixConfig:
    """A complete multi-tenant scenario: tenants plus interleave weights."""

    name: str
    tenants: tuple[TenantSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.name:
            raise GrammarError("tenant mix name must be non-empty")
        if not self.tenants:
            raise GrammarError("at least one tenant is required")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise GrammarError(f"tenant names must be unique, got {names}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": TENANT_FORMAT_VERSION,
            "name": self.name,
            "tenants": [t.to_dict() for t in self.tenants],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "TenantMixConfig":
        if not isinstance(payload, dict):
            raise GrammarError(f"tenant mix must be a dict, got {payload!r}")
        version = payload.get("format", TENANT_FORMAT_VERSION)
        if version != TENANT_FORMAT_VERSION:
            raise GrammarError(
                f"unsupported tenant-mix format {version!r} "
                f"(this build reads version {TENANT_FORMAT_VERSION})"
            )
        unknown = set(payload) - {"format", "name", "tenants"}
        if unknown:
            raise GrammarError(f"tenant mix got unknown keys {sorted(unknown)}")
        tenants = payload.get("tenants")
        if not isinstance(tenants, list):
            raise GrammarError("tenant mix needs a 'tenants' list")
        return cls(
            name=payload.get("name", ""),
            tenants=tuple(TenantSpec.from_dict(t) for t in tenants),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TenantMixConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GrammarError(f"invalid JSON tenant mix: {exc}") from None
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# The interleaver
# ----------------------------------------------------------------------


class _TenantSink:
    """Remaps one tenant's emissions into the shared id/marker space.

    Object ids map ``oid → oid * stride + offset`` (disjoint residue
    classes per tenant); transaction ids likewise; phase markers gain the
    ``tenant/`` prefix; idle ticks pass through unchanged. ``open`` is true
    while the tenant has a transaction open.
    """

    def __init__(self, out: TraceSink, stride: int, offset: int, prefix: str) -> None:
        self.out = out
        self.stride = stride
        self.offset = offset
        self.prefix = prefix
        self.open = False

    def create(self, oid, size, kind, pointers=()):
        s, o = self.stride, self.offset
        if pointers:
            pointers = tuple(
                [(slot, None if t is None else t * s + o) for slot, t in pointers]
            )
        self.out.create(oid * s + o, size, kind, pointers)

    def write(self, src, slot, target, dies=()):
        s, o = self.stride, self.offset
        if dies:
            dies = tuple([d * s + o for d in dies])
        self.out.write(
            src * s + o, slot, None if target is None else target * s + o, dies
        )

    def access(self, oid):
        self.out.access(oid * self.stride + self.offset)

    def update(self, oid):
        self.out.update(oid * self.stride + self.offset)

    def root(self, oid):
        self.out.root(oid * self.stride + self.offset)

    def phase(self, name):
        self.out.phase(f"{self.prefix}/{name}")

    def idle(self, ticks=1):
        self.out.idle(ticks)

    def begin(self, txid):
        self.open = True
        self.out.begin(txid * self.stride + self.offset)

    def commit(self, txid):
        self.open = False
        self.out.commit(txid * self.stride + self.offset)

    def abort(self, txid):
        self.open = False
        self.out.abort(txid * self.stride + self.offset)


#: ``next(steps, _DONE)``: a step generator yields None at every step.
_DONE = object()


class TenantMix:
    """Interleaves N tenant streams into one deterministic trace.

    Conforms to :class:`repro.workload.base.Workload`: the merged
    stream is a function of (config, seed) only, so it fingerprints and
    caches like any single-tenant workload.

    Args:
        config: The multi-tenant scenario.
        seed: Seed for the interleave draws *and* (via
            :func:`tenant_seed`) every tenant's own generator.
    """

    def __init__(self, config: TenantMixConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed

    def canonical_material(self) -> dict[str, Any]:
        return {"workload": "tenant-mix", "config": self.config, "seed": self.seed}

    def tenant_workloads(self) -> list[GrammarWorkload]:
        """Fresh per-tenant generators with their derived seeds (un-remapped)."""
        return [
            GrammarWorkload(tenant.config, seed=tenant_seed(self.seed, index))
            for index, tenant in enumerate(self.config.tenants)
        ]

    def shards(self) -> list[tuple[TenantSpec, GrammarWorkload]]:
        """One workload per tenant, for sharding across separate heaps.

        Shard traffic uses the same derived seeds as the interleaved trace,
        so a sharded sweep is the same scenario split across stores.
        """
        return list(zip(self.config.tenants, self.tenant_workloads()))

    def events(self) -> Iterator[TraceEvent]:
        """The merged trace (one-shot)."""
        return stream_events(self.steps)

    __iter__ = events

    def steps(
        self, out: TraceSink, max_live_clusters: Optional[int] = None
    ) -> Iterator[None]:
        """The merge: emit into ``out``, yielding after every sink call.

        Each step draws a live tenant (seeded, weighted by
        ``TenantSpec.weight``) and lets it emit its next event, remapped
        into the shared id space by a :class:`_TenantSink`. A tenant inside
        a transaction keeps emitting until it commits or aborts, so
        transaction blocks stay contiguous. Exhausted tenants leave the
        draw; the trace ends when all are done. With ``max_live_clusters``
        set every tenant runs its unbounded stream (cycling phases forever
        with at most that many live clusters each) and none ever exhausts.
        Either way the output is a pure function of (config, seed, cap):
        re-instantiating the mix and skipping reproduces any suffix, which
        is what lets a recovered service resume mid-stream.

        The draw is a k-way merge over a cached cumulative-weight table
        (:func:`~repro.workload.grammar.draw_table`), rebuilt only when a
        tenant exhausts — at most k rebuilds per trace.
        """
        tenants = self.config.tenants
        stride = len(tenants)
        sinks = [
            _TenantSink(out, stride, index, tenant.name)
            for index, tenant in enumerate(tenants)
        ]
        streams = [
            workload.steps(sink, max_live_clusters)
            for workload, sink in zip(self.tenant_workloads(), sinks)
        ]
        rng = random.Random(self.seed)
        live = list(range(stride))
        weights = [tenants[i].weight for i in live]
        cum_weights, total, hi = draw_table(weights)
        random_ = rng.random
        while live:
            pick = bisect(cum_weights, random_() * total, 0, hi)
            index = live[pick]
            step = streams[index]
            sink = sinks[index]
            while True:
                if next(step, _DONE) is _DONE:
                    del live[pick]
                    del weights[pick]
                    if live:
                        cum_weights, total, hi = draw_table(weights)
                    break
                yield
                if not sink.open:
                    break


# ----------------------------------------------------------------------
# The bundled tenant-profile library
# ----------------------------------------------------------------------


def _oltp_churn(scale: float) -> WorkloadConfig:
    """Short transactions, heavy create/delete/update churn, mild skew."""
    ops = max(1, int(600 * scale))
    return WorkloadConfig(
        name="oltp-churn",
        phases=(
            PhaseBlock(
                name="churn",
                operations=ops,
                mix=OpMix(create=3, delete=3, trim=1, access=4, update=3),
                cluster_size=Uniform(2, 6),
                object_size=Choice((64, 128, 256), weights=(4, 2, 1)),
                hot_key_skew=0.3,
            ),
        ),
        ops_per_second=400.0,
        initial_clusters=24,
    )


def _bulk_load(scale: float) -> WorkloadConfig:
    """Create-dominated load of large objects, then a short verify scan."""
    ops = max(1, int(400 * scale))
    return WorkloadConfig(
        name="bulk-load",
        phases=(
            PhaseBlock(
                name="load",
                operations=ops,
                mix=OpMix(create=10, delete=0, access=1),
                cluster_size=Fixed(12),
                object_size=Fixed(512),
            ),
            PhaseBlock(
                name="verify",
                operations=max(1, ops // 4),
                mix=OpMix(create=0, delete=0, access=1),
            ),
        ),
        initial_clusters=0,
    )


def _read_browse(scale: float) -> WorkloadConfig:
    """Read-mostly browsing with occasional small writes."""
    ops = max(1, int(800 * scale))
    return WorkloadConfig(
        name="read-browse",
        phases=(
            PhaseBlock(
                name="browse",
                operations=ops,
                mix=OpMix(create=1, delete=1, access=12, update=2),
                cluster_size=Uniform(3, 8),
                object_size=Fixed(128),
                hot_key_skew=0.5,
            ),
        ),
        ops_per_second=250.0,
        initial_clusters=32,
    )


def _diurnal(scale: float) -> WorkloadConfig:
    """Three day/night cycles — busy days, idle-heavy nights (diurnal bursts)."""
    day_ops = max(1, int(300 * scale))
    return WorkloadConfig(
        name="diurnal",
        phases=(
            PhaseBlock(
                name="day",
                operations=day_ops,
                mix=OpMix(create=3, delete=2, access=5, update=1),
                cluster_size=Uniform(4, 10),
                repeat=3,
            ),
            PhaseBlock(
                name="night",
                operations=max(1, day_ops // 3),
                mix=OpMix(create=0.5, delete=0.5, access=1, idle=8),
                repeat=3,
            ),
        ),
        initial_clusters=16,
    )


def _hot_key_skew(scale: float) -> WorkloadConfig:
    """Near-Zipfian targeting: churn concentrated on a few hot clusters."""
    ops = max(1, int(500 * scale))
    return WorkloadConfig(
        name="hot-key-skew",
        phases=(
            PhaseBlock(
                name="skewed",
                operations=ops,
                mix=OpMix(create=2, delete=2, trim=1, access=6, update=2,
                          pointer_churn=2),
                cluster_size=Uniform(2, 10),
                object_size=Choice((64, 256, 1024), weights=(6, 3, 1)),
                hot_key_skew=0.8,
            ),
        ),
        initial_clusters=40,
    )


#: The bundled tenant-profile library: name → factory(scale) → config.
TENANT_PROFILES: dict[str, Callable[[float], WorkloadConfig]] = {
    "oltp-churn": _oltp_churn,
    "bulk-load": _bulk_load,
    "read-browse": _read_browse,
    "diurnal": _diurnal,
    "hot-key-skew": _hot_key_skew,
}


def make_profile(name: str, scale: float = 1.0) -> WorkloadConfig:
    """Build one bundled tenant profile by name (scaled)."""
    try:
        factory = TENANT_PROFILES[name]
    except KeyError:
        raise GrammarError(
            f"unknown tenant profile {name!r}; choose from {sorted(TENANT_PROFILES)}"
        ) from None
    return factory(scale)


def tenant_mix(
    profiles: Sequence[str],
    scale: float = 1.0,
    weights: Optional[Sequence[float]] = None,
    name: Optional[str] = None,
) -> TenantMixConfig:
    """Assemble a :class:`TenantMixConfig` from bundled profile names.

    Duplicate profile names get ``-2``, ``-3`` ... suffixes so tenant
    names stay unique (``["oltp-churn", "oltp-churn"]`` is a valid fleet
    of two independent churn clients).
    """
    if not profiles:
        raise GrammarError("at least one tenant profile is required")
    if weights is not None and len(weights) != len(profiles):
        raise GrammarError(
            f"got {len(profiles)} profiles but {len(weights)} weights"
        )
    counts: dict[str, int] = {}
    tenants = []
    for index, profile in enumerate(profiles):
        config = make_profile(profile, scale)
        counts[profile] = counts.get(profile, 0) + 1
        label = profile if counts[profile] == 1 else f"{profile}-{counts[profile]}"
        weight = float(weights[index]) if weights is not None else 1.0
        tenants.append(TenantSpec(name=label, config=config, weight=weight))
    return TenantMixConfig(
        name=name or "+".join(profiles),
        tenants=tuple(tenants),
    )
