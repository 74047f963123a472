"""Canned synthetic workload presets.

Ready-made phase sequences for the behaviours the paper's discussion keeps
returning to: steady churn (the estimators' best case), bursty garbage
creation (their worst case), daily-cycle activity with quiescent windows
(the §5 opportunism scenario), and a bulk-load-then-serve lifecycle (the §2
allocation-vs-garbage decorrelation argument).

Each preset returns a list of :class:`~repro.workload.synthetic.SyntheticPhase`
objects that can be passed straight to
:class:`~repro.workload.synthetic.SyntheticWorkload`; the ``scale`` argument
multiplies every phase's operation count.
"""

from __future__ import annotations

from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload


def _scaled(operations: int, scale: float) -> int:
    return max(1, int(operations * scale))


def steady_churn(scale: float = 1.0) -> list[SyntheticPhase]:
    """Constant create/delete churn — constant garbage-per-overwrite.

    The friendliest possible workload for the FGS/HB estimator: behaviour
    never changes, so any history factor converges to the truth.
    """
    return [
        SyntheticPhase(
            name="steady",
            operations=_scaled(6000, scale),
            create_weight=1.0,
            delete_weight=1.0,
            access_weight=2.0,
            cluster_size=6,
            object_size=120,
        )
    ]


def garbage_burst(scale: float = 1.0) -> list[SyntheticPhase]:
    """Calm background churn punctuated by a violent deletion burst.

    Stresses responsiveness: the burst multiplies garbage-per-overwrite
    (big clusters die whole), then behaviour snaps back.
    """
    calm = dict(
        create_weight=1.0,
        delete_weight=0.5,
        access_weight=3.0,
        cluster_size=4,
        object_size=96,
    )
    return [
        SyntheticPhase(name="calm-1", operations=_scaled(2000, scale), **calm),
        SyntheticPhase(
            name="burst",
            operations=_scaled(800, scale),
            create_weight=0.2,
            delete_weight=3.0,
            access_weight=0.5,
            cluster_size=24,
            object_size=160,
        ),
        SyntheticPhase(name="calm-2", operations=_scaled(2000, scale), **calm),
    ]


def daily_cycle(scale: float = 1.0, days: int = 3) -> list[SyntheticPhase]:
    """Alternating busy daytime churn and quiet nights (§5 opportunism).

    Nights are mostly idle ticks with a trickle of reads — the window an
    opportunistic policy exploits to drain garbage beyond its limits.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    phases = []
    for day in range(days):
        phases.append(
            SyntheticPhase(
                name=f"day-{day}",
                operations=_scaled(1500, scale),
                create_weight=1.0,
                delete_weight=1.0,
                access_weight=2.0,
                cluster_size=6,
                object_size=120,
            )
        )
        phases.append(
            SyntheticPhase(
                name=f"night-{day}",
                operations=_scaled(600, scale),
                create_weight=0.0,
                delete_weight=0.0,
                access_weight=0.3,
                idle_weight=3.0,
            )
        )
    return phases


def bulk_load_then_serve(scale: float = 1.0) -> list[SyntheticPhase]:
    """Heavy allocation with no garbage, then garbage-producing service.

    The §2 decorrelation argument in workload form: an allocation-triggered
    policy fires throughout the load phase and reclaims nothing, while an
    overwrite-triggered one stays quiet until garbage actually appears.
    """
    return [
        SyntheticPhase(
            name="bulk-load",
            operations=_scaled(2500, scale),
            create_weight=1.0,
            delete_weight=0.0,
            access_weight=0.2,
            cluster_size=8,
            object_size=128,
        ),
        SyntheticPhase(
            name="serve",
            operations=_scaled(3000, scale),
            create_weight=0.5,
            delete_weight=1.0,
            access_weight=3.0,
            cluster_size=8,
            object_size=128,
        ),
    ]


PRESETS = {
    "steady-churn": steady_churn,
    "garbage-burst": garbage_burst,
    "daily-cycle": daily_cycle,
    "bulk-load-then-serve": bulk_load_then_serve,
}


class PresetWorkload(SyntheticWorkload):
    """A named preset as a full workload (the unified-protocol form).

    This is what :func:`make_preset` now returns. It *is* a
    :class:`~repro.workload.synthetic.SyntheticWorkload` — same ``events()``,
    same canonical material, so a preset and the equivalent hand-built
    synthetic workload share one trace fingerprint and cache entry.
    """

    def __init__(
        self,
        name: str,
        scale: float = 1.0,
        seed: int = 0,
        initial_clusters: int = 16,
    ) -> None:
        try:
            factory = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
            ) from None
        super().__init__(
            factory(scale=scale), seed=seed, initial_clusters=initial_clusters
        )
        self.preset_name = name
        self.scale = scale


def make_preset(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    initial_clusters: int = 16,
) -> PresetWorkload:
    """Instantiate a preset by name.

    Returns a :class:`PresetWorkload` (a real workload conforming to
    :class:`repro.workload.base.WorkloadSpec`); its phases are ``.phases``.

    Raises:
        ValueError: on an unknown name, listing the valid preset names.
    """
    return PresetWorkload(
        name, scale=scale, seed=seed, initial_clusters=initial_clusters
    )
