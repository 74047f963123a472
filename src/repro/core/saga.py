"""SAGA — the Semi-Automatic GArbage collection-rate policy (§2.3).

The user requests that garbage account for ``SAGA_Frac`` of the database.
After each collection, SAGA predicts when the garbage level will again reach
the target, assuming (a) the next collection will reclaim about as much as
this one did (``CurrColl``), and (b) the database size will not change much
before then. Solving the balance equation of §2.3 gives

    Δt = (CurrColl - GarbDiff(t)) / TotGarb'(t)

with ``GarbDiff(t) = ActGarb(t) - TargetGarb(t)`` and
``TargetGarb(t) = DBSize(t) · SAGA_Frac``. Time ``t`` is measured in pointer
overwrites, the garbage-creation signal of §2.

``ActGarb`` comes from a pluggable :class:`~repro.core.estimators.GarbageEstimator`
(oracle, CGS/CB, FGS/HB, ...). ``TotGarb(t)`` — needed for the slope — is
reconstructed as ``ActGarb_est(t) + TotColl(t)``; the collector knows
``TotColl`` exactly because it counts what it reclaims.

The slope ``TotGarb'(t)`` is smoothed with ``Weight = 0.7`` (§2.3) and Δt is
clamped to ``[Δt_min, Δt_max] = [2, 1000]`` overwrites; the paper reports the
clamps are rarely needed in practice.
"""

from __future__ import annotations

from repro.core.control import SmoothedSlopeEstimator, clamp
from repro.core.estimators import GarbageEstimator
from repro.core.rate_policy import PolicyContext, RatePolicy, TimeBase, Trigger
from repro.storage.heap import ObjectStore
from repro.storage.iostats import IOStats

#: Paper defaults (§2.3).
DEFAULT_WEIGHT = 0.7
DEFAULT_DT_MIN = 2.0
DEFAULT_DT_MAX = 1000.0


class SagaPolicy(RatePolicy):
    """Hold database garbage at a requested fraction of database size.

    Args:
        garbage_fraction: Requested garbage share of database size, in (0, 1).
        estimator: Source of ``ActGarb`` estimates.
        weight: Slope-smoothing factor (the paper's ``Weight``, 0.7).
        dt_min: Lower clamp on the collection interval, in overwrites.
        dt_max: Upper clamp on the collection interval, in overwrites.
        initial_interval: Overwrites before the first collection (cold start).
    """

    name = "saga"

    def __init__(
        self,
        garbage_fraction: float,
        estimator: GarbageEstimator,
        weight: float = DEFAULT_WEIGHT,
        dt_min: float = DEFAULT_DT_MIN,
        dt_max: float = DEFAULT_DT_MAX,
        initial_interval: float = 100.0,
    ) -> None:
        if not 0.0 < garbage_fraction < 1.0:
            raise ValueError(f"garbage_fraction must be in (0, 1), got {garbage_fraction}")
        if dt_min <= 0 or dt_max < dt_min:
            raise ValueError(f"invalid clamp interval [{dt_min}, {dt_max}]")
        if initial_interval <= 0:
            raise ValueError(f"initial_interval must be positive, got {initial_interval}")
        self.garbage_fraction = garbage_fraction
        self.estimator = estimator
        self.dt_min = dt_min
        self.dt_max = dt_max
        self.initial_interval = initial_interval
        self._slope = SmoothedSlopeEstimator(weight=weight)

    @property
    def weight(self) -> float:
        return self._slope.weight

    @property
    def time_base(self) -> TimeBase:
        return TimeBase.OVERWRITES

    def first_trigger(self, store: ObjectStore, iostats: IOStats) -> Trigger:
        return Trigger(TimeBase.OVERWRITES, self.initial_interval)

    def next_trigger(self, ctx: PolicyContext) -> Trigger:
        store = ctx.store
        result = ctx.result
        self.estimator.observe_collection(result, store)

        now = float(store.pointer_overwrites)
        act_garb = max(0.0, self.estimator.estimate(store))
        tot_garb = act_garb + store.garbage.total_collected
        slope = self._slope.observe(time=now, value=tot_garb)

        if slope is None:
            # Still bootstrapping: one observation cannot yield a slope, so
            # keep sampling at the cold-start cadence rather than deferring
            # a full dt_max of overwrites.
            interval = self.initial_interval
        else:
            interval = self.compute_interval(
                current_coll=result.reclaimed_bytes,
                act_garb=act_garb,
                db_size=store.db_size,
                slope=slope,
            )
        return Trigger(TimeBase.OVERWRITES, interval)

    def compute_interval(
        self,
        current_coll: float,
        act_garb: float,
        db_size: float,
        slope: float | None,
    ) -> float:
        """Solve the §2.3 balance equation for Δt (in pointer overwrites).

        Exposed separately so tests can exercise the algebra directly. A
        missing, zero, or negative slope means no garbage growth is predicted
        — the next collection is pushed out to ``dt_max``.
        """
        if slope is None or slope <= 0.0:
            return self.dt_max
        target = db_size * self.garbage_fraction
        garb_diff = act_garb - target
        dt = (current_coll - garb_diff) / slope
        return clamp(dt, self.dt_min, self.dt_max)

    def describe(self) -> str:
        return (
            f"saga({self.garbage_fraction:.1%} garbage, "
            f"estimator={self.estimator.describe()}, weight={self.weight:g})"
        )
