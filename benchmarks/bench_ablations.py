"""Ablation benches for the paper's in-passing claims (§2.1, §2.3, §4.1)."""

import pytest

from repro.experiments.ablations import (
    format_clock_ablation,
    format_fixed_heuristic,
    format_saio_history,
    format_selection_ablation,
    format_weight_ablation,
    run_clock_ablation,
    run_fixed_heuristic_ablation,
    run_saio_history_ablation,
    run_selection_ablation,
    run_weight_ablation,
)
from repro.sim.engine import RunOptions


@pytest.mark.benchmark(group="ablations")
def test_fixed_heuristic_fails(benchmark, publish, jobs):
    """§2.1: the "partition's worth of garbage" fixed rate fails miserably —
    the workload creates several times more garbage per overwrite than the
    average-connectivity calculation predicts."""
    result = benchmark.pedantic(run_fixed_heuristic_ablation, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("ablation_fixed_heuristic", format_fixed_heuristic(result))
    assert result.heuristic_rate > 1000  # the naive calculation is sparse
    assert result.measured_gpo > 2 * result.heuristic_gpo_prediction


@pytest.mark.benchmark(group="ablations")
def test_allocation_clock_is_the_wrong_trigger(benchmark, publish, jobs):
    """§2: "allocation and garbage creation are not always correlated in
    object databases" — with the same collection budget, the allocation
    clock wastes collections where no garbage exists and reclaims less."""
    result = benchmark.pedantic(run_clock_ablation, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("ablation_clock", format_clock_ablation(result))
    by_name = {row[0]: row for row in result.rows}
    overwrite = by_name["overwrite clock"]
    allocation = by_name["allocation clock"]
    # The allocation clock burns collections during garbage-free GenDB...
    assert float(allocation[2]) > float(overwrite[2]) + 5
    # ...has far more zero-yield collections...
    assert float(allocation[3].rstrip("%")) > float(overwrite[3].rstrip("%")) + 20
    # ...and reclaims less garbage with the same budget.
    assert float(allocation[4].split()[0]) < float(overwrite[4].split()[0])


@pytest.mark.benchmark(group="ablations")
def test_saio_history_parameter(benchmark, publish, jobs):
    """§4.1.1: "the use of any amount of history makes little difference
    with respect to the accuracy of the policy" on OO7."""
    result = benchmark.pedantic(run_saio_history_ablation, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("ablation_saio_history", format_saio_history(result))
    errors = [abs(float(row[3].rstrip("%"))) for row in result.rows]
    assert max(errors) < 1.5  # all within 1.5 percentage points


@pytest.mark.benchmark(group="ablations")
def test_cgs_cb_improves_under_random_selection(benchmark, publish, jobs):
    """§4.1.2: "if the partition selection policy … picked a random
    partition to collect, then the CGS/CB heuristic would provide a more
    accurate estimate"."""
    result = benchmark.pedantic(run_selection_ablation, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("ablation_selection", format_selection_ablation(result))
    by_name = {row[0]: row for row in result.rows}
    updated_bias = abs(float(by_name["updated-pointer"][1].rstrip("%")))
    random_bias = abs(float(by_name["random"][1].rstrip("%")))
    assert random_bias < updated_bias


@pytest.mark.benchmark(group="ablations")
def test_saga_weight_smoothing(benchmark, publish, jobs):
    """§2.3: Weight buffers the policy from rapid slope changes — some
    smoothing beats none, and the paper's 0.7 sits in the flat optimum."""
    result = benchmark.pedantic(run_weight_ablation, kwargs={"options": RunOptions(jobs=jobs)}, rounds=1, iterations=1)
    publish("ablation_weight", format_weight_ablation(result))
    by_weight = {row[0]: row for row in result.rows}
    error_at = {w: abs(float(by_weight[w][2].rstrip("%"))) for w in by_weight}
    assert error_at["0.7"] <= error_at["0"] + 0.1
    spread_at = {w: float(by_weight[w][3].rstrip("%")) for w in by_weight}
    assert spread_at["0.7"] <= spread_at["0"]
