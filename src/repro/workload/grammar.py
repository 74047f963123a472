"""Grammar-driven workload generation: declarative, composable, round-trippable.

The paper evaluates its policies on one hand-built OO7 trace; the synthetic
workloads of :mod:`repro.workload.synthetic` widen that to hand-tuned
phase lists. This module replaces hand-tuning with a *grammar*:
a :class:`WorkloadConfig` is plain declarative data — an event budget,
optional ops/sec pacing, and a sequence of composable :class:`PhaseBlock`
values, each with an operation-mix distribution, object-size and
cluster-size distributions, and a hot-key skew parameter — from which
:class:`GrammarWorkload` deterministically generates a trace for any seed.
Scenario *grids* (the ROADMAP's "millions of users" axis) are then just
config values swept by the fleet driver (:mod:`repro.fleet`).

Configs round-trip **losslessly** through JSON and TOML
(:meth:`WorkloadConfig.to_json` / :meth:`WorkloadConfig.from_toml` ...):
the parsed config compares equal to the original, so its canonical
material — and therefore every trace-cache and result-cache fingerprint
derived from it — is byte-identical. A config file checked into a repo
reuses the caches of the config built in code.

The generated database is a registry of linked clusters (registry →
cluster chains, so garbage-per-overwrite is directly tunable), and this
module is its only generator. :mod:`repro.workload.synthetic` is the grammar
with fixed sizes, no skew and five of the seven operation families;
:mod:`repro.workload.transactional` drives the same cluster operations
inside transactions. Beyond create / delete / trim / access / idle the
grammar has:

* ``update`` — dirty non-pointer touches (buffer/IO pressure without
  garbage),
* ``pointer_churn`` — pointer overwrites that free nothing (adversarial
  for overwrite-clock policies: the clock advances, no garbage appears),
* hot-key skew — operations target clusters by a power-approximated Zipf
  rank, concentrating churn on a few hot structures.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Any, Iterator, Optional, Union

from repro.events import TraceEvent, TraceSink, stream_events
from repro.storage.object_model import ObjectId, ObjectKind

#: Bump when the config schema changes shape; ``from_dict`` rejects other
#: versions so stale config files fail loudly instead of silently drifting.
GRAMMAR_FORMAT_VERSION = 1

#: Idle-tick granularity for ``ops_per_second`` pacing: one tick is 1 ms of
#: modelled wall clock, so a tenant at 100 ops/s interleaves ~10 idle ticks
#: per operation. ``ops_per_second=None`` means saturated (no idle time).
TICKS_PER_SECOND = 1000


class GrammarError(ValueError):
    """Raised when a workload config (or its serialised form) is invalid."""


# ----------------------------------------------------------------------
# Value distributions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fixed:
    """Degenerate distribution: always ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise GrammarError(f"Fixed value must be >= 0, got {self.value}")

    def sample(self, rng: random.Random) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform:
    """Uniform over ``[low, high]`` (continuous; integer draws round)."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise GrammarError(
                f"Uniform needs 0 <= low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class Choice:
    """Weighted choice over explicit values (weights default to uniform)."""

    values: tuple[float, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.values:
            raise GrammarError("Choice needs at least one value")
        if self.weights:
            if len(self.weights) != len(self.values):
                raise GrammarError(
                    f"Choice got {len(self.values)} values but "
                    f"{len(self.weights)} weights"
                )
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise GrammarError("Choice weights must be non-negative, sum > 0")

    def sample(self, rng: random.Random) -> float:
        if self.weights:
            return rng.choices(self.values, weights=self.weights)[0]
        return self.values[rng.randrange(len(self.values))]


Distribution = Union[Fixed, Uniform, Choice]

#: kind tag → distribution class, for (de)serialisation.
DISTRIBUTIONS: dict[str, type] = {
    "fixed": Fixed,
    "uniform": Uniform,
    "choice": Choice,
}
_DIST_KINDS = {cls: kind for kind, cls in DISTRIBUTIONS.items()}


def distribution_to_dict(dist: Distribution) -> dict[str, Any]:
    """Serialise a distribution as ``{"kind": ..., <params>}``."""
    kind = _DIST_KINDS.get(type(dist))
    if kind is None:
        raise GrammarError(f"unknown distribution type {type(dist).__name__}")
    payload: dict[str, Any] = {"kind": kind}
    for f in fields(dist):
        value = getattr(dist, f.name)
        payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


def distribution_from_dict(payload: Any) -> Distribution:
    """Parse a distribution from its ``{"kind": ..., <params>}`` form."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise GrammarError(f"distribution must be a dict with 'kind', got {payload!r}")
    kind = payload["kind"]
    cls = DISTRIBUTIONS.get(kind)
    if cls is None:
        raise GrammarError(
            f"unknown distribution kind {kind!r}; choose from {sorted(DISTRIBUTIONS)}"
        )
    params = {k: v for k, v in payload.items() if k != "kind"}
    allowed = {f.name for f in fields(cls)}
    unknown = set(params) - allowed
    if unknown:
        raise GrammarError(
            f"distribution {kind!r} got unknown parameters {sorted(unknown)}"
        )
    for name in ("values", "weights"):
        if name in params and isinstance(params[name], list):
            params[name] = tuple(params[name])
    try:
        return cls(**params)
    except TypeError as exc:
        raise GrammarError(f"distribution {kind!r}: {exc}") from None


def draw_table(weights: list[float]) -> tuple[list[float], float, int]:
    """``(cum_weights, total, hi)`` such that ``population[bisect(cum_weights,
    rng.random() * total, 0, hi)]`` is ``rng.choices(population, weights)[0]``.

    ``random.choices`` rebuilds its cumulative sums on every call — O(k) per
    draw. This is the identical table (``itertools.accumulate`` over the same
    weights, so every float sum is bit-equal) built once by the caller, who
    then spends one ``rng.random()`` and one bisect per draw, as the stdlib
    does: O(log k), byte-identical output.
    """
    cum_weights = list(accumulate(weights))
    return cum_weights, cum_weights[-1] + 0.0, len(cum_weights) - 1


def _sample_int(dist: Distribution, rng: random.Random, minimum: int = 1) -> int:
    return max(minimum, round(dist.sample(rng)))


# ----------------------------------------------------------------------
# Operation mix
# ----------------------------------------------------------------------

#: Operation families, in the order weights are drawn. A
#: :class:`~repro.workload.synthetic.SyntheticPhase` weighs all but ``update``
#: and ``pointer_churn``.
OPERATIONS = ("create", "delete", "trim", "access", "update", "pointer_churn", "idle")


@dataclass(frozen=True)
class OpMix:
    """Relative weights over the operation families of :data:`OPERATIONS`."""

    create: float = 1.0
    delete: float = 1.0
    trim: float = 0.0
    access: float = 2.0
    update: float = 0.0
    pointer_churn: float = 0.0
    idle: float = 0.0

    def __post_init__(self) -> None:
        # Coerce to float so a config built with int weights fingerprints
        # identically to the same config after a JSON/TOML round-trip
        # (canonical JSON renders 1 and 1.0 differently).
        for op in OPERATIONS:
            object.__setattr__(self, op, float(getattr(self, op)))
        weights = self.weights()
        if any(w < 0 for w in weights):
            raise GrammarError("operation weights must be non-negative")
        if sum(weights) <= 0:
            raise GrammarError("at least one operation weight must be positive")

    def weights(self) -> tuple[float, ...]:
        return tuple(getattr(self, op) for op in OPERATIONS)

    def to_dict(self) -> dict[str, float]:
        return {op: getattr(self, op) for op in OPERATIONS}

    @classmethod
    def from_dict(cls, payload: Any) -> "OpMix":
        if not isinstance(payload, dict):
            raise GrammarError(f"mix must be a dict, got {payload!r}")
        unknown = set(payload) - set(OPERATIONS)
        if unknown:
            raise GrammarError(
                f"mix got unknown operations {sorted(unknown)}; "
                f"choose from {list(OPERATIONS)}"
            )
        return cls(**{k: float(v) for k, v in payload.items()})


# ----------------------------------------------------------------------
# Phase blocks and the workload config
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseBlock:
    """One composable phase: an operation budget drawn from one behaviour.

    Attributes:
        name: Phase label; emitted as a phase marker (suffixed ``#i`` when
            ``repeat > 1``).
        operations: Operations per repetition.
        mix: Operation-family weights.
        cluster_size: Members per newly created cluster (distribution).
        object_size: Bytes per member object (distribution).
        trim_fraction: Fraction of a cluster a trim operation cuts off.
        hot_key_skew: Skew of cluster targeting in ``[0, 1)``: 0 picks
            uniformly, values near 1 concentrate deletes / accesses /
            updates / churn on the oldest ("hottest") clusters via a
            power-approximated Zipf rank.
        repeat: Number of back-to-back repetitions of this block
            (diurnal cycles are one day block with ``repeat=days``).
    """

    name: str
    operations: int
    mix: OpMix = field(default_factory=OpMix)
    cluster_size: Distribution = Fixed(8)
    object_size: Distribution = Fixed(128)
    trim_fraction: float = 0.5
    hot_key_skew: float = 0.0
    repeat: int = 1

    def __post_init__(self) -> None:
        # Float/int coercion keeps canonical material identical across a
        # JSON/TOML round-trip (see OpMix.__post_init__).
        object.__setattr__(self, "operations", int(self.operations))
        object.__setattr__(self, "trim_fraction", float(self.trim_fraction))
        object.__setattr__(self, "hot_key_skew", float(self.hot_key_skew))
        object.__setattr__(self, "repeat", int(self.repeat))
        if not self.name:
            raise GrammarError("phase name must be non-empty")
        if self.operations < 0:
            raise GrammarError(f"operations must be >= 0, got {self.operations}")
        if not 0.0 < self.trim_fraction < 1.0:
            raise GrammarError(
                f"trim_fraction must be in (0, 1), got {self.trim_fraction}"
            )
        if not 0.0 <= self.hot_key_skew < 1.0:
            raise GrammarError(
                f"hot_key_skew must be in [0, 1), got {self.hot_key_skew}"
            )
        if self.repeat < 1:
            raise GrammarError(f"repeat must be >= 1, got {self.repeat}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "operations": self.operations,
            "mix": self.mix.to_dict(),
            "cluster_size": distribution_to_dict(self.cluster_size),
            "object_size": distribution_to_dict(self.object_size),
            "trim_fraction": self.trim_fraction,
            "hot_key_skew": self.hot_key_skew,
            "repeat": self.repeat,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "PhaseBlock":
        if not isinstance(payload, dict):
            raise GrammarError(f"phase must be a dict, got {payload!r}")
        known = {
            "name", "operations", "mix", "cluster_size", "object_size",
            "trim_fraction", "hot_key_skew", "repeat",
        }
        unknown = set(payload) - known
        if unknown:
            raise GrammarError(f"phase got unknown keys {sorted(unknown)}")
        kwargs: dict[str, Any] = {
            "name": payload.get("name", ""),
            "operations": int(payload.get("operations", 0)),
        }
        if "mix" in payload:
            kwargs["mix"] = OpMix.from_dict(payload["mix"])
        for key in ("cluster_size", "object_size"):
            if key in payload:
                kwargs[key] = distribution_from_dict(payload[key])
        for key in ("trim_fraction", "hot_key_skew"):
            if key in payload:
                kwargs[key] = float(payload[key])
        if "repeat" in payload:
            kwargs["repeat"] = int(payload["repeat"])
        return cls(**kwargs)


@dataclass(frozen=True)
class WorkloadConfig:
    """A complete declarative workload: the grammar's top-level production.

    Attributes:
        name: Scenario label (display + canonical material).
        phases: Composable phase blocks, run in order.
        ops_per_second: Modelled client rate; operations are interleaved
            with :class:`~repro.events.IdleEvent` ticks so that one
            operation occupies ``TICKS_PER_SECOND / ops_per_second`` ticks.
            ``None`` (default) generates a saturated trace with no idle
            time — the paper's posture.
        initial_clusters: Clusters built before the first phase so deletes
            and accesses have material immediately.
    """

    name: str
    phases: tuple[PhaseBlock, ...]
    ops_per_second: Optional[float] = None
    initial_clusters: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "initial_clusters", int(self.initial_clusters))
        if self.ops_per_second is not None:
            object.__setattr__(self, "ops_per_second", float(self.ops_per_second))
        if not self.name:
            raise GrammarError("workload name must be non-empty")
        if not self.phases:
            raise GrammarError("at least one phase is required")
        if self.ops_per_second is not None and self.ops_per_second <= 0:
            raise GrammarError(
                f"ops_per_second must be > 0, got {self.ops_per_second}"
            )
        if self.initial_clusters < 0:
            raise GrammarError(
                f"initial_clusters must be >= 0, got {self.initial_clusters}"
            )

    @property
    def total_operations(self) -> int:
        """The config's event budget, in operations (idle pacing excluded)."""
        return sum(p.operations * p.repeat for p in self.phases)

    # ------------------------------------------------------------------
    # Lossless serialisation (JSON and TOML)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "format": GRAMMAR_FORMAT_VERSION,
            "name": self.name,
            "initial_clusters": self.initial_clusters,
            "phases": [p.to_dict() for p in self.phases],
        }
        if self.ops_per_second is not None:
            payload["ops_per_second"] = self.ops_per_second
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "WorkloadConfig":
        if not isinstance(payload, dict):
            raise GrammarError(f"workload config must be a dict, got {payload!r}")
        version = payload.get("format", GRAMMAR_FORMAT_VERSION)
        if version != GRAMMAR_FORMAT_VERSION:
            raise GrammarError(
                f"unsupported grammar format {version!r} "
                f"(this build reads version {GRAMMAR_FORMAT_VERSION})"
            )
        known = {"format", "name", "phases", "ops_per_second", "initial_clusters"}
        unknown = set(payload) - known
        if unknown:
            raise GrammarError(f"workload config got unknown keys {sorted(unknown)}")
        phases = payload.get("phases")
        if not isinstance(phases, list):
            raise GrammarError("workload config needs a 'phases' list")
        ops_per_second = payload.get("ops_per_second")
        return cls(
            name=payload.get("name", ""),
            phases=tuple(PhaseBlock.from_dict(p) for p in phases),
            ops_per_second=(
                float(ops_per_second) if ops_per_second is not None else None
            ),
            initial_clusters=int(payload.get("initial_clusters", 16)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GrammarError(f"invalid JSON workload config: {exc}") from None
        return cls.from_dict(payload)

    def to_toml(self) -> str:
        """Render the config as TOML (readable back via :meth:`from_toml`).

        The emitter covers exactly the shapes the schema produces — scalars,
        string keys, lists of numbers, and the phases array-of-tables — so
        no third-party TOML writer is needed.
        """
        lines: list[str] = []
        doc = self.to_dict()
        phases = doc.pop("phases")
        for key in sorted(doc):
            lines.append(f"{key} = {_toml_value(doc[key])}")
        for phase in phases:
            lines.append("")
            lines.append("[[phases]]")
            tables = {}
            for key in ("name", "operations", "repeat", "trim_fraction", "hot_key_skew"):
                lines.append(f"{key} = {_toml_value(phase[key])}")
            for key in ("mix", "cluster_size", "object_size"):
                tables[key] = phase[key]
            for key, table in tables.items():
                lines.append(f"[phases.{key}]")
                for sub in sorted(table):
                    lines.append(f"{sub} = {_toml_value(table[sub])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "WorkloadConfig":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise GrammarError(
                "TOML workload configs need Python >= 3.11 (tomllib); "
                "use the JSON form instead"
            ) from None
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise GrammarError(f"invalid TOML workload config: {exc}") from None
        return cls.from_dict(payload)


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):  # pragma: no cover - schema has no bools yet
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # JSON string escaping is valid TOML
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise GrammarError(f"cannot render {value!r} as TOML")


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


@dataclass(eq=False)
class _Cluster:
    slot: str
    members: list[ObjectId] = field(default_factory=list)  # head first
    member_size: int = 0


def _skewed_index(rng: random.Random, n: int, skew: float) -> int:
    """Pick an index in ``[0, n)``, concentrated near 0 as ``skew`` → 1.

    A power-approximated Zipf: draw u ~ U(0,1) and return
    ``floor(n * u**(1/(1-skew)))``. ``skew=0`` is exactly uniform; higher
    values front-load the oldest (lowest-index) clusters, which act as the
    stable hot keys of the scenario.
    """
    if skew <= 0.0:
        return rng.randrange(n)
    u = rng.random() ** (1.0 / (1.0 - skew))
    return min(n - 1, int(n * u))


class GrammarWorkload:
    """Generates a trace from a :class:`WorkloadConfig` (the grammar's
    interpreter). Conforms to :class:`repro.workload.base.Workload`.

    Args:
        config: The declarative workload.
        seed: Seed for every randomised choice.
    """

    def __init__(self, config: WorkloadConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.rng = random.Random(seed)
        self._next_oid: ObjectId = 1
        self._next_slot = 0
        self._idle_debt = 0.0
        self.registry_oid: Optional[ObjectId] = None
        self.clusters: list[_Cluster] = []
        #: Object sizes by oid, for trace statistics and tests. Streaming
        #: mode turns this off — an unbounded stream must not grow
        #: generator state with the trace.
        self._track_sizes = True
        self.object_sizes: dict[ObjectId, int] = {}
        #: Streaming mode recycles registry slots of deleted clusters so
        #: the registry object's pointer dictionary (in the *store*) stays
        #: O(max_live_clusters) over an unbounded stream instead of
        #: accreting one dead ``clusterN -> None`` entry per churn cycle.
        self._reuse_slots = False
        self._free_slots: list[str] = []

    def canonical_material(self) -> dict[str, Any]:
        return {"workload": "grammar", "config": self.config, "seed": self.seed}

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------

    def events(self) -> Iterator[TraceEvent]:
        """The full trace (one-shot)."""
        return stream_events(self.steps)

    def steps(
        self, out: TraceSink, max_live_clusters: Optional[int] = None
    ) -> Iterator[None]:
        """The one generator body: emit into ``out``, yielding after every
        sink call (a tenant mix interleaves at that granularity).

        With ``max_live_clusters`` unset this is the finite trace. Set, it
        is the unbounded stream: the config's phase list cycles forever
        (phase markers are suffixed ``@cycle`` so telemetry stays
        attributable) while the generator's own state stays
        O(``max_live_clusters``): per-oid size tracking is disabled and
        whenever a create pushes the live-cluster registry past the cap,
        the oldest-half region immediately sheds one cluster (a normal
        delete, so the emitted trace stays coherent and the store's garbage
        signals behave like steady-state churn).

        The stream is a pure function of (config, seed, max_live_clusters):
        re-instantiating the workload and skipping to any index resumes it
        exactly — the service's crash–recover–continue path relies on this
        the way finite drills rely on ``CompiledTrace.replay``.
        """
        cap = max_live_clusters
        if cap is not None:
            if cap < 1:
                raise GrammarError(f"max_live_clusters must be >= 1, got {cap}")
            self._track_sizes = False
            self._reuse_slots = True
        yield from self._create_registry(out)
        first = self.config.phases[0]
        for _ in range(self.config.initial_clusters):
            yield from self._create_cluster(first, out)
        cycle = 0
        while True:
            for phase in self.config.phases:
                for repetition in range(phase.repeat):
                    name = (
                        phase.name
                        if phase.repeat == 1
                        else f"{phase.name}#{repetition}"
                    )
                    out.phase(name if cap is None else f"{name}@{cycle}")
                    yield
                    yield from self._run_phase(phase, out, cap)
            if cap is None:
                return
            cycle += 1

    def _run_phase(
        self, phase: PhaseBlock, out: TraceSink, cap: Optional[int]
    ) -> Iterator[None]:
        cum_weights, total, hi = draw_table(phase.mix.weights())
        random_ = self.rng.random
        rate = self.config.ops_per_second
        for _ in range(phase.operations):
            op = OPERATIONS[bisect(cum_weights, random_() * total, 0, hi)]
            if op == "create":
                yield from self._create_cluster(phase, out)
                if cap is not None and len(self.clusters) > cap:
                    # Streaming bound: shed one cluster per overflow so the
                    # registry never exceeds the cap (steady-state churn).
                    yield from self._delete_cluster(phase, out)
            elif op == "delete":
                yield from self._delete_cluster(phase, out)
            elif op == "trim":
                yield from self._trim_cluster(phase, out)
            elif op == "access":
                yield from self._access_cluster(phase, out)
            elif op == "update":
                yield from self._update_member(phase, out)
            elif op == "pointer_churn":
                yield from self._churn_pointer(phase, out)
            else:
                out.idle()
                yield
            if rate is not None:
                # Interleave idle ticks so the trace models ``ops_per_second``.
                self._idle_debt += TICKS_PER_SECOND / rate
                whole = int(self._idle_debt)
                if whole >= 1:
                    self._idle_debt -= whole
                    out.idle(whole)
                    yield

    # ------------------------------------------------------------------
    # Operations on the linked clusters
    # ------------------------------------------------------------------

    def _new_oid(self, size: int) -> ObjectId:
        oid = self._next_oid
        self._next_oid += 1
        if self._track_sizes:
            self.object_sizes[oid] = size
        return oid

    def _pick_cluster(self, phase: PhaseBlock) -> Optional[_Cluster]:
        if not self.clusters:
            return None
        index = _skewed_index(self.rng, len(self.clusters), phase.hot_key_skew)
        return self.clusters[index]

    def _create_registry(self, out: TraceSink) -> Iterator[None]:
        """Create the registry object and make it a database root."""
        self.registry_oid = self._new_oid(64)
        out.create(self.registry_oid, 64, ObjectKind.GENERIC)
        yield
        out.root(self.registry_oid)
        yield

    def _create_cluster(self, phase: PhaseBlock, out: TraceSink) -> Iterator[None]:
        """Create a chain tail-first, then root its head in the registry.

        Tail-first creation means every member's successor already exists
        when the member is created, so only the not-yet-linked frontier
        object ever depends on the store's allocation pinning.
        """
        rng = self.rng
        cluster_size = _sample_int(phase.cluster_size, rng)
        object_size = _sample_int(phase.object_size, rng)
        members: list[ObjectId] = []
        successor: Optional[ObjectId] = None
        for _ in range(cluster_size):
            oid = self._new_oid(object_size)
            pointers = (("next", successor),) if successor is not None else ()
            out.create(oid, object_size, ObjectKind.GENERIC, pointers)
            yield
            members.append(oid)
            successor = oid
        members.reverse()  # head first

        if self._free_slots:
            slot = self._free_slots.pop()  # LIFO: deterministic reuse
        else:
            slot = f"cluster{self._next_slot}"
            self._next_slot += 1
        out.write(self.registry_oid, slot, members[0])
        yield
        self.clusters.append(
            _Cluster(slot=slot, members=members, member_size=object_size)
        )

    def _delete_cluster(self, phase: PhaseBlock, out: TraceSink) -> Iterator[None]:
        """Detach an entire cluster with a single overwrite."""
        if not self.clusters:
            return
        index = _skewed_index(self.rng, len(self.clusters), phase.hot_key_skew)
        cluster = self.clusters.pop(index)
        out.write(self.registry_oid, cluster.slot, None, tuple(cluster.members))
        yield
        if self._reuse_slots:
            self._free_slots.append(cluster.slot)

    def _trim_cluster(self, phase: PhaseBlock, out: TraceSink) -> Iterator[None]:
        """Cut off a suffix of a cluster with a single overwrite."""
        candidates = [c for c in self.clusters if len(c.members) >= 2]
        if not candidates:
            return
        index = _skewed_index(self.rng, len(candidates), phase.hot_key_skew)
        cluster = candidates[index]
        keep = max(1, int(len(cluster.members) * (1.0 - phase.trim_fraction)))
        dead = cluster.members[keep:]
        if not dead:
            return
        out.write(cluster.members[keep - 1], "next", None, tuple(dead))
        yield
        del cluster.members[keep:]

    def _access_cluster(self, phase: PhaseBlock, out: TraceSink) -> Iterator[None]:
        """Read every member of a (skew-chosen) cluster, head to tail."""
        cluster = self._pick_cluster(phase)
        if cluster is None:
            return
        for oid in cluster.members:
            out.access(oid)
            yield

    def _update_member(self, phase: PhaseBlock, out: TraceSink) -> Iterator[None]:
        """Dirty one member of a (skew-chosen) cluster — no garbage."""
        cluster = self._pick_cluster(phase)
        if cluster is None:
            return
        out.update(cluster.members[self.rng.randrange(len(cluster.members))])
        yield

    def _churn_pointer(self, phase: PhaseBlock, out: TraceSink) -> Iterator[None]:
        """Overwrite a registry slot with the value it already holds.

        Advances the overwrite clock without creating any garbage — the
        decorrelation stressor: a policy that trusts the overwrite clock
        alone collects eagerly and reclaims nothing.
        """
        cluster = self._pick_cluster(phase)
        if cluster is None:
            return
        out.write(self.registry_oid, cluster.slot, cluster.members[0])
        yield
