"""Store invariant checking.

A :class:`StoreValidator` audits an :class:`~repro.storage.heap.ObjectStore`
for internal consistency: placement bookkeeping, remembered-set coverage,
garbage-accounting identities, and pointer sanity. The simulation engine can
run it periodically (``SimulationConfig.validate_every``) as a debug mode;
tests use it directly.

Checks are grouped into named invariants so a violation report says exactly
what broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.heap import ObjectStore


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, invariant: str, detail: str) -> None:
        self.violations.append(f"[{invariant}] {detail}")

    def raise_if_failed(self) -> None:
        if not self.ok:
            summary = "\n".join(self.violations[:20])
            extra = len(self.violations) - 20
            if extra > 0:
                summary += f"\n... and {extra} more"
            raise StoreInvariantError(summary)


class StoreInvariantError(AssertionError):
    """Raised when a store fails validation in strict mode."""


class StoreValidator:
    """Audits every structural invariant of an object store."""

    def validate(self, store: ObjectStore) -> ValidationReport:
        report = ValidationReport()
        if not self._check_rows(store, report):
            return report  # the other checks read rows as objects
        self._check_placements(store, report)
        self._check_partitions(store, report)
        self._check_first_fit(store, report)
        self._check_pointers(store, report)
        self._check_remembered_sets(store, report)
        self._check_garbage_accounting(store, report)
        return report

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _check_rows(self, store: ObjectStore, report: ValidationReport) -> bool:
        """A present row of the object table has a pointer dict and a kind,
        an empty one neither and no dead flag. Returns whether every row
        is whole."""
        table = store.placements
        torn = len(report.violations)
        for oid in range(table.dense_limit):
            present = table.parts[oid] >= 0
            has_fields = table.ptrs[oid] is not None and table.kinds[oid] != 0
            if has_fields != present or (not present and table.dead[oid]):
                report.add("placements", f"row {oid} is torn (placed: {present})")
        if table.overflow.keys() != table.overflow_rows.keys():
            report.add("placements", "overflow placements and rows disagree")
        return len(report.violations) == torn

    def _check_placements(self, store: ObjectStore, report: ValidationReport) -> None:
        """The object table's hand-maintained row count agrees with its
        columns; every resident's placement is inside its partition's
        extent and placements within a partition never overlap."""
        table = store.placements
        rows = sum(1 for _ in table.rows())
        # ``len()`` is a counter the fused replay kernels and the bulk
        # reclaim keep by hand.
        if len(table) != rows:
            report.add("placements", f"len(placements) {len(table)} != {rows} rows")
        for partition in store.partitions:
            spans = []
            for oid in partition.residents:
                loc = table.locate(oid)
                if loc is None or loc[0] != partition.pid:
                    report.add(
                        "placements",
                        f"resident {oid} of partition {partition.pid} misplaced",
                    )
                    continue
                spans.append((loc[1], loc[2], oid))
            cursor = 0
            for offset, size, oid in sorted(spans):
                if offset < cursor:
                    report.add(
                        "placements",
                        f"object {oid} overlaps previous extent in partition {partition.pid}",
                    )
                cursor = max(cursor, offset + size)
            if cursor > partition.fill:
                report.add(
                    "placements",
                    f"partition {partition.pid}: extents exceed fill "
                    f"({cursor} > {partition.fill})",
                )

    def _check_partitions(self, store: ObjectStore, report: ValidationReport) -> None:
        """Residents are exactly the objects placed in each partition; fill
        matches the sum of resident sizes plus dead space is impossible
        (bump allocation keeps fill equal to the high-water extent); the
        store's pending-overwrite and slot counters are the sums they keep."""
        table = store.placements
        by_partition: dict[int, set[int]] = {}
        slots = 0
        for obj in table.rows():
            by_partition.setdefault(table.part_of(obj.oid), set()).add(obj.oid)
            slots += len(obj.pointers)
        for partition in store.partitions:
            expected = by_partition.get(partition.pid, set())
            if partition.residents != expected:
                report.add(
                    "partitions",
                    f"partition {partition.pid}: residents {len(partition.residents)} "
                    f"!= placements {len(expected)}",
                )
            if partition.fill > partition.capacity:
                report.add(
                    "partitions",
                    f"partition {partition.pid}: fill {partition.fill} exceeds "
                    f"capacity {partition.capacity}",
                )
            if partition.pointer_overwrites < 0:
                report.add(
                    "partitions",
                    f"partition {partition.pid}: negative FGS counter",
                )
        pending = sum(partition.pointer_overwrites for partition in store.partitions)
        if store.pending_overwrites != pending:
            report.add(
                "partitions",
                f"pending-overwrite counter {store.pending_overwrites} != "
                f"sum of FGS counters {pending}",
            )
        if store.slot_count != slots:
            report.add(
                "partitions",
                f"slot counter {store.slot_count} != pointer slots {slots}",
            )

    def _check_first_fit(self, store: ObjectStore, report: ValidationReport) -> None:
        """A partition's pid is its list index (UPDATEDPOINTER selection
        returns an index as the pid); the free-byte ledger is capacity minus
        fill; every partition with room is on the ascending open list; and
        every open entry before a size's fit cursor has fewer free bytes than
        that size — so a scan from the cursor places where a scan of every
        partition would."""
        free = store._partition_free
        open_parts = store._open_partitions
        for index, partition in enumerate(store.partitions):
            if partition.pid != index:
                report.add("first-fit", f"partition at index {index} has pid {partition.pid}")
                return
        if len(free) != len(store.partitions):
            report.add(
                "first-fit",
                f"{len(free)} free-byte entries for {len(store.partitions)} partitions",
            )
            return
        for partition in store.partitions:
            room = partition.capacity - partition.fill
            if free[partition.pid] != room:
                report.add(
                    "first-fit",
                    f"partition {partition.pid}: free-byte ledger "
                    f"{free[partition.pid]} != capacity - fill {room}",
                )
            elif room > 0 and partition.pid not in store._open_set:
                report.add("first-fit", f"partition {partition.pid} has room but is not open")
        if open_parts != sorted(store._open_set):
            report.add("first-fit", "open-partition list is not the ascending open set")
        for size, cursor in store._fit_cursor.items():
            if not 0 <= cursor < len(open_parts):
                report.add("first-fit", f"size {size}: cursor {cursor} off the open list")
                continue
            skipped = [pid for pid in open_parts[:cursor] if free[pid] >= size]
            if skipped:
                report.add(
                    "first-fit",
                    f"size {size}: cursor {cursor} skips partitions {skipped[:3]} with room",
                )

    def _check_pointers(self, store: ObjectStore, report: ValidationReport) -> None:
        """Live (non-dead) objects never hold dangling pointers."""
        table = store.placements
        for obj in table.rows():
            if obj.dead:
                continue  # dead objects may dangle into reclaimed space
            for target in obj.pointers.values():
                if target is not None and target not in table:
                    report.add(
                        "pointers",
                        f"live object {obj.oid} dangles to reclaimed {target}",
                    )

    def _check_remembered_sets(self, store: ObjectStore, report: ValidationReport) -> None:
        """Remembered sets contain exactly the live cross-partition edges
        (with correct multiplicity), and the store's churn counters differ
        by that edge count."""
        expected: dict[int, dict[tuple[int, int], int]] = {}
        table = store.placements
        for obj in table.rows():
            src_pid = table.part_of(obj.oid)
            for target in obj.pointers.values():
                tgt_pid = -1 if target is None else table.part_of(target)
                if tgt_pid < 0 or tgt_pid == src_pid:
                    continue
                edge = (obj.oid, target)
                bucket = expected.setdefault(tgt_pid, {})
                bucket[edge] = bucket.get(edge, 0) + 1
        for partition in store.partitions:
            actual: dict[tuple[int, int], int] = {}
            for target, sources in partition.incoming.items():
                for src, count in sources.items():
                    actual[(src, target)] = count
            want = expected.get(partition.pid, {})
            if actual != want:
                extra = {k: v for k, v in actual.items() if want.get(k) != v}
                missing = {k: v for k, v in want.items() if actual.get(k) != v}
                report.add(
                    "remembered-sets",
                    f"partition {partition.pid}: extra={list(extra.items())[:3]} "
                    f"missing={list(missing.items())[:3]}",
                )
        edges = sum(sum(bucket.values()) for bucket in expected.values())
        if store.remembers_total - store.forgets_total != edges:
            report.add(
                "remembered-sets",
                f"churn counters inconsistent: {store.remembers_total} remembers "
                f"- {store.forgets_total} forgets != {edges} live edges",
            )

    def _check_garbage_accounting(self, store: ObjectStore, report: ValidationReport) -> None:
        """ActGarb identity and per-partition dead-byte ledger."""
        table = store.placements
        per_partition: dict[int, int] = {}
        for obj in table.rows():
            if obj.dead:
                pid = table.part_of(obj.oid)
                per_partition[pid] = per_partition.get(pid, 0) + obj.size
        dead_total = sum(per_partition.values())
        if store.actual_garbage_bytes != dead_total:
            report.add(
                "garbage",
                f"ActGarb {store.actual_garbage_bytes} != resident dead bytes {dead_total}",
            )
        if store.garbage.actual != (
            store.garbage.total_generated - store.garbage.total_collected
        ):
            report.add("garbage", "TotGarb - TotColl identity violated")
        for pid, partition_bytes in per_partition.items():
            ledger = store.dead_bytes.get(pid, 0)
            if ledger != partition_bytes:
                report.add(
                    "garbage",
                    f"partition {pid}: dead-byte ledger {ledger} != actual {partition_bytes}",
                )
        for pid, ledger in store.dead_bytes.items():
            if ledger and per_partition.get(pid, 0) != ledger:
                report.add(
                    "garbage",
                    f"partition {pid}: stale dead-byte ledger {ledger}",
                )


def validate_store(store: ObjectStore, strict: bool = True) -> ValidationReport:
    """Convenience wrapper: validate and (by default) raise on violations."""
    report = StoreValidator().validate(store)
    if strict:
        report.raise_if_failed()
    return report
