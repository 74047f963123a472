"""Partition-selection policies.

Which partition to collect is the policy area studied in the authors' prior
paper [CWZ94]; this reproduction needs it as a substrate. The default is
their UPDATEDPOINTER policy — collect the partition with the most pointer
overwrites recorded against it — which §4.1.2 notes is "effective at finding
a partition with more than an average amount of garbage" (and which is
exactly why the CGS/CB estimator overestimates; the ablation bench swaps in
RANDOM selection to show that effect).
"""

from __future__ import annotations

import abc
import random
from typing import Optional

from repro.storage.heap import ObjectStore
from repro.storage.partition import PartitionId


class PartitionSelectionPolicy(abc.ABC):
    """Chooses which partition a triggered collection should work on."""

    #: Human-readable policy name for reports.
    name: str = "abstract"

    @abc.abstractmethod
    def select(self, store: ObjectStore) -> Optional[PartitionId]:
        """Return the partition to collect, or None if nothing is collectable.

        A partition is *collectable* when it has at least one resident
        object; collecting an empty partition would be pure overhead.
        """

    @staticmethod
    def _collectable(store: ObjectStore) -> list[PartitionId]:
        return [p.pid for p in store.partitions if p.residents]


class UpdatedPointerSelection(PartitionSelectionPolicy):
    """[CWZ94] UPDATEDPOINTER: most pointer overwrites wins (ties: lowest pid)."""

    name = "updated-pointer"

    def select(self, store: ObjectStore) -> Optional[PartitionId]:
        # One C-level max and index over the counters: an empty partition
        # counts -1, below any real counter, and ``index`` returns the
        # first — lowest-pid — maximum (``partitions[i].pid == i``).
        counts = [p.pointer_overwrites if p.residents else -1 for p in store.partitions]
        best = max(counts, default=-1)
        return counts.index(best) if best >= 0 else None


class RandomSelection(PartitionSelectionPolicy):
    """Uniformly random collectable partition (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(self, store: ObjectStore) -> Optional[PartitionId]:
        candidates = self._collectable(store)
        if not candidates:
            return None
        return self._rng.choice(candidates)


class RoundRobinSelection(PartitionSelectionPolicy):
    """Cycle through collectable partitions in pid order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last: PartitionId = -1

    def select(self, store: ObjectStore) -> Optional[PartitionId]:
        candidates = sorted(self._collectable(store))
        if not candidates:
            return None
        for pid in candidates:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = candidates[0]
        return candidates[0]


class MostGarbageOracleSelection(PartitionSelectionPolicy):
    """Oracle baseline: collect the partition with the most actual garbage.

    Uses the store's exact per-partition dead-byte accounting, which no real
    ODBMS could afford; provided as an upper bound for selection quality.
    """

    name = "most-garbage-oracle"

    def select(self, store: ObjectStore) -> Optional[PartitionId]:
        candidates = self._collectable(store)
        if not candidates:
            return None
        return max(candidates, key=lambda pid: (store.partition_garbage_bytes(pid), -pid))


def make_selection_policy(name: str, seed: int = 0) -> PartitionSelectionPolicy:
    """Factory used by the CLI and experiment drivers."""
    policies = {
        UpdatedPointerSelection.name: lambda: UpdatedPointerSelection(),
        RandomSelection.name: lambda: RandomSelection(seed=seed),
        RoundRobinSelection.name: lambda: RoundRobinSelection(),
        MostGarbageOracleSelection.name: lambda: MostGarbageOracleSelection(),
    }
    try:
        return policies[name]()
    except KeyError:
        raise ValueError(
            f"unknown partition selection policy {name!r}; "
            f"choose from {sorted(policies)}"
        ) from None
