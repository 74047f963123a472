"""Garbage estimators for the SAGA policy (§2.4).

SAGA needs ``ActGarb(t)`` — the bytes of uncollected garbage in the database —
which cannot be known exactly without scanning everything. The paper derives
estimation heuristics from a 2×2 design space:

* **State** — how the database's *potential* garbage is described:
  coarse grain (CGS: just the number of allocated partitions) or fine grain
  (FGS: the pointer-overwrite counter of each partition).
* **Behaviour** — how collector outcomes are summarised: current behaviour
  (CB: the last collection only) or history behaviour (HB: an exponential
  mean over recent collections).

The paper evaluates CGS/CB and FGS/HB against a perfect oracle; this module
implements those plus the remaining corners (FGS/CB as FGS/HB with ``h = 0``,
and CGS/HB) for completeness, and the decaying-oracle blend the authors use
to shorten simulation preambles (§3.2).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

from repro.core.control import ExponentialMean

if TYPE_CHECKING:  # pragma: no cover - annotations only; avoids a cycle
    # repro.gc re-exports the learned estimator, which subclasses
    # GarbageEstimator — a runtime import of repro.gc here would be
    # circular whenever repro.core loads first.
    from repro.gc.collector import CollectionResult
    from repro.storage.heap import ObjectStore


class GarbageEstimator(abc.ABC):
    """Estimates the current amount of garbage (bytes) in the database."""

    #: Human-readable estimator name for reports.
    name: str = "abstract"

    @abc.abstractmethod
    def observe_collection(self, result: CollectionResult, store: ObjectStore) -> None:
        """Fold the outcome of a collection into the estimator's state."""

    @abc.abstractmethod
    def estimate(self, store: ObjectStore) -> float:
        """Current ``ActGarb`` estimate in bytes (never negative)."""

    def describe(self) -> str:
        return self.name


class OracleEstimator(GarbageEstimator):
    """Perfect estimator: reads the store's exact garbage accounting.

    Impractical to implement in a real ODBMS (§2.4) — determining the true
    garbage requires a full database scan — but invaluable for separating
    policy error from estimation error (Figure 5).
    """

    name = "oracle"

    def observe_collection(self, result: CollectionResult, store: ObjectStore) -> None:
        pass  # The oracle needs no state; it reads the truth on demand.

    def estimate(self, store: ObjectStore) -> float:
        return float(store.actual_garbage_bytes)


class CgsCbEstimator(GarbageEstimator):
    """Coarse Grain State / Current Behaviour (§2.4.1): ``ActGarb = C · p``.

    ``C`` is the bytes reclaimed by the last collection and ``p`` the number
    of allocated partitions. Assumes the last victim partition is
    representative of all partitions — an assumption UPDATEDPOINTER selection
    deliberately violates (it hunts above-average garbage), which is why the
    paper finds this estimator erratic and biased high.
    """

    name = "cgs-cb"

    def __init__(self) -> None:
        self._last_reclaimed = 0.0

    def observe_collection(self, result: CollectionResult, store: ObjectStore) -> None:
        self._last_reclaimed = float(result.reclaimed_bytes)

    def estimate(self, store: ObjectStore) -> float:
        return self._last_reclaimed * store.partition_count


class CgsHbEstimator(GarbageEstimator):
    """Coarse Grain State / History Behaviour: ``ActGarb = mean(C) · p``.

    The unexplored CGS corner with behaviour smoothing: the per-collection
    yield ``C`` is replaced by an exponential mean. Smoothing removes the
    collection-to-collection noise of CGS/CB but not its representativeness
    bias.
    """

    name = "cgs-hb"

    def __init__(self, history: float = 0.8) -> None:
        self._mean_yield = ExponentialMean(history)

    @property
    def history(self) -> float:
        return self._mean_yield.history

    def observe_collection(self, result: CollectionResult, store: ObjectStore) -> None:
        self._mean_yield.update(float(result.reclaimed_bytes))

    def estimate(self, store: ObjectStore) -> float:
        if not self._mean_yield.initialized:
            return 0.0
        return self._mean_yield.value * store.partition_count


class FgsHbEstimator(GarbageEstimator):
    """Fine Grain State / History Behaviour (§2.4.2).

    Maintains ``GPPO_h`` — an exponential mean (history factor ``h``) of the
    garbage-per-pointer-overwrite observed at each collection — and estimates

        ``ActGarb = GPPO_h · Σ_p PO(p)``

    where ``PO(p)`` is each partition's pointer-overwrite counter (reset to
    zero whenever the partition is collected). With ``h = 0`` this degenerates
    to FGS/CB (§2.4.2: "by varying h from 1.0 to 0.0, the heuristic changes
    from FGS/HB to FGS/CB").

    Collections whose victim saw no overwrites contribute no GPPO sample:
    the behaviour metric is *bytes reclaimed per overwrite* and is undefined
    without overwrites.
    """

    name = "fgs-hb"

    def __init__(self, history: float = 0.8) -> None:
        self._gppo = ExponentialMean(history)

    @property
    def history(self) -> float:
        return self._gppo.history

    @property
    def gppo(self) -> float:
        """Current smoothed garbage-per-pointer-overwrite (0 before samples)."""
        return self._gppo.value or 0.0

    def observe_collection(self, result: CollectionResult, store: ObjectStore) -> None:
        if result.pointer_overwrites_at_selection > 0:
            self._gppo.update(result.yield_per_overwrite)

    def estimate(self, store: ObjectStore) -> float:
        if not self._gppo.initialized:
            return 0.0
        return self.gppo * store.pending_overwrites


class FgsCbEstimator(FgsHbEstimator):
    """Fine Grain State / Current Behaviour: FGS/HB with ``h = 0``."""

    name = "fgs-cb"

    def __init__(self) -> None:
        super().__init__(history=0.0)


class DecayingOracleBlend(GarbageEstimator):
    """Blend a practical estimator with the oracle during cold start (§3.2).

    For the ``k``-th collection the estimate is
    ``w·oracle + (1-w)·inner`` with ``w = decay^k``. The paper uses
    "exponentially decreasing knowledge from an oracle" to keep simulation
    preambles short; after a few tens of collections the oracle weight is
    negligible and the practical estimator stands alone.
    """

    name = "oracle-blend"

    def __init__(self, inner: GarbageEstimator, decay: float = 0.75) -> None:
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.inner = inner
        self.decay = decay
        self._oracle = OracleEstimator()
        self._weight = 1.0

    @property
    def oracle_weight(self) -> float:
        """Current weight given to the oracle's exact value."""
        return self._weight

    def observe_collection(self, result: CollectionResult, store: ObjectStore) -> None:
        self.inner.observe_collection(result, store)
        self._weight *= self.decay

    def estimate(self, store: ObjectStore) -> float:
        exact = self._oracle.estimate(store)
        guess = self.inner.estimate(store)
        return self._weight * exact + (1.0 - self._weight) * guess

    def describe(self) -> str:
        return f"{self.inner.describe()}+oracle-blend({self.decay})"


# ----------------------------------------------------------------------
# Estimator registry
# ----------------------------------------------------------------------

#: A factory receives the ``history`` smoothing factor (HB variants use it,
#: the rest ignore it) and returns a fresh estimator.
EstimatorFactory = Callable[[float], GarbageEstimator]

_ESTIMATOR_REGISTRY: dict[str, EstimatorFactory] = {}


def register_estimator(name: str, factory: EstimatorFactory) -> None:
    """Register (or replace) ``factory(history)`` under an estimator name.

    Registered names resolve through :func:`make_estimator`, which the
    SAGA policy builder (:mod:`repro.sim.spec`) and the fleet/tournament
    CLIs call — downstream estimators plug into every driver at once.
    """
    _ESTIMATOR_REGISTRY[name] = factory


def estimator_names() -> list[str]:
    """The registered estimator names, sorted."""
    return sorted(_ESTIMATOR_REGISTRY)


register_estimator(OracleEstimator.name, lambda history: OracleEstimator())
register_estimator(CgsCbEstimator.name, lambda history: CgsCbEstimator())
register_estimator(
    CgsHbEstimator.name, lambda history: CgsHbEstimator(history=history)
)
register_estimator(
    FgsHbEstimator.name, lambda history: FgsHbEstimator(history=history)
)
register_estimator(FgsCbEstimator.name, lambda history: FgsCbEstimator())


def make_estimator(name: str, history: float = 0.8) -> GarbageEstimator:
    """Factory used by the CLI and experiment drivers.

    ``history`` applies to the HB variants and is ignored otherwise.
    Beyond the registered names, the spec form ``learned:<model.json>``
    (optionally content-pinned as ``learned:<model.json>@<hash-prefix>``)
    loads a trained :class:`~repro.gc.learned.LearnedModel` artifact and
    returns a :class:`~repro.gc.learned.LearnedEstimator` over it.
    """
    if name.startswith("learned:"):
        # Imported lazily: repro.gc.learned subclasses GarbageEstimator,
        # so a module-level import would be circular.
        from repro.gc.learned import estimator_from_spec

        return estimator_from_spec(name)
    try:
        factory = _ESTIMATOR_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; choose from {estimator_names()} "
            "or 'learned:<model.json>'"
        ) from None
    return factory(history)
