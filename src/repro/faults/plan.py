"""Declarative fault plans.

A :class:`FaultPlan` is plain, frozen data — a tuple of :class:`FaultSpec`
entries plus a seed — so it can ride inside an
:class:`~repro.sim.spec.ExperimentSpec` (and therefore into worker
processes and cache fingerprints), round-trip through JSON for the CLI's
``--faults plan.json`` flag, and reproduce the exact same failure sequence
on every replay.

Sites are the named hook points the runtime exposes:

=============  ===============================================================
``io.read``    every page read charged to :class:`~repro.storage.iostats.IOStats`
``io.write``   every page write charged to :class:`IOStats`
``page.write`` every dirty page write-back in the buffer pool (carries the page id)
``tx.begin``   transaction begin, before any state changes
``tx.commit``  transaction commit, *before* the commit record is durable
``tx.abort``   transaction abort, before undo begins
``gc.collect`` immediately before a garbage collection runs
=============  ===============================================================

Effects: ``crash`` raises :class:`~repro.faults.injector.SimulatedCrash`
(the whole process "dies" at that point); ``io-error`` raises
:class:`~repro.faults.injector.InjectedIOError` (one operation fails);
``torn-write`` silently records the written page as torn — the data page is
lost, which recovery from the logical redo log must tolerate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

#: Hook points the runtime exposes (see module docstring).
SITES = frozenset(
    {"io.read", "io.write", "page.write", "tx.begin", "tx.commit", "tx.abort", "gc.collect"}
)

#: What happens when a fault fires.
EFFECTS = frozenset({"crash", "io-error", "torn-write"})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Exactly one of ``at`` / ``probability`` selects the firing rule:

    * ``at=n`` fires on the n-th occurrence of ``site`` (1-based);
    * ``probability=p`` flips a seeded coin on every occurrence.

    ``repeat=False`` (the default) retires the fault after its first
    firing; ``repeat=True`` keeps it armed — an ``at``-based repeating
    fault fires on every multiple of ``at``.
    """

    site: str
    effect: str = "crash"
    at: int | None = None
    probability: float | None = None
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; choose from {sorted(SITES)}")
        if self.effect not in EFFECTS:
            raise ValueError(
                f"unknown fault effect {self.effect!r}; choose from {sorted(EFFECTS)}"
            )
        if (self.at is None) == (self.probability is None):
            raise ValueError("exactly one of 'at' and 'probability' must be set")
        if self.at is not None and self.at < 1:
            raise ValueError(f"'at' is a 1-based occurrence count, got {self.at}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.effect == "torn-write" and self.site != "page.write":
            raise ValueError("torn-write faults only apply to the 'page.write' site")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure schedule: fault specs plus the coin seed."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate lists from hand-built plans / JSON round-trips.
        object.__setattr__(self, "faults", tuple(self.faults))

    # ------------------------------------------------------------------
    # JSON round-trip (the CLI's --faults format)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "faults": [
                {
                    "site": f.site,
                    "effect": f.effect,
                    "at": f.at,
                    "probability": f.probability,
                    "repeat": f.repeat,
                }
                for f in self.faults
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan; raises :class:`ValueError` for any malformed one."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a fault plan must be a JSON object")
        entries = payload.get("faults", [])
        if not isinstance(entries, list):
            raise ValueError("a fault plan's 'faults' must be a list")
        try:
            faults = tuple(
                FaultSpec(
                    site=entry["site"],
                    effect=entry.get("effect", "crash"),
                    at=entry.get("at"),
                    probability=entry.get("probability"),
                    repeat=entry.get("repeat", False),
                )
                for entry in entries
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fault entry: {exc!r}") from None
        return cls(faults=faults, seed=payload.get("seed", 0))


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (the ``--faults`` flag);
    raises :class:`OSError` or :class:`ValueError` when it cannot."""
    return FaultPlan.from_json(Path(path).read_text())
