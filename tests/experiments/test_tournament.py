"""Policy tournament: cross-worker determinism and report content."""

import json

import pytest

from repro.experiments.tournament import (
    HAND_DESIGNED,
    SCENARIOS,
    format_tournament,
    run_tournament,
    tournament_json,
)
from repro.experiments.tournament import main as tournament_main
from repro.sim.engine import RunOptions


@pytest.fixture(scope="module")
def small_results():
    """The same tiny tournament at one and two workers (self-trained)."""
    return (
        run_tournament(seeds=[0], scale=1.0, options=RunOptions(jobs=1)),
        run_tournament(seeds=[0], scale=1.0, options=RunOptions(jobs=2)),
    )


def test_reports_identical_across_worker_counts(small_results):
    one, two = small_results
    assert format_tournament(one) == format_tournament(two)
    assert tournament_json(one) == tournament_json(two)


def test_self_training_is_reproducible(small_results):
    one, two = small_results
    assert one.self_trained and two.self_trained
    assert one.model.sha256 == two.model.sha256


def test_report_covers_the_full_bracket(small_results):
    result, _ = small_results
    report = format_tournament(result)
    assert "Figure 9" in report
    for label in ("fixed:20", "saio:0.10"):
        assert label in report
    for name in HAND_DESIGNED:
        assert f"saga:0.15:{name}" in report
    assert f"learned@{result.model.sha256[:12]}" in report
    # The deployed artifact lives in a temp dir; its path must never leak
    # into the report (the model is referenced by content hash only).
    assert "repro-tournament-" not in report
    assert ".json" not in report


def test_json_document_shape(small_results):
    result, _ = small_results
    document = json.loads(tournament_json(result))
    scenarios = {name for name, _profiles in SCENARIOS}
    assert {cell["scenario"] for cell in document["cells"]} == scenarios
    assert {r["scenario"] for r in document["rankings"]} == scenarios
    for ranking in document["rankings"]:
        assert isinstance(ranking["learned_wins"], bool)
        assert ranking["learned_mae"] is not None
    assert document["model"]["sha256"] == result.model.sha256
    assert document["model"]["self_trained"] is True
    # Every cell completed; the estimator column is populated for SAGA cells.
    assert all(cell["failures"] == 0 for cell in document["cells"])
    saga_cells = [c for c in document["cells"] if c["estimator"]]
    assert all(c["estimator_mae"] is not None for c in saga_cells)


def test_pretrained_model_deploys_by_path(small_results, tmp_path):
    result, _ = small_results
    path = result.model.save(tmp_path / "model.json")
    again = run_tournament(
        seeds=[0],
        scale=1.0,
        model_path=str(path),
        options=RunOptions(jobs=2),
    )
    assert again.self_trained is False
    assert again.model.sha256 == result.model.sha256
    # Same model, same seeds/scale → the grid outcome is identical (only
    # the report's provenance line may differ: self- vs pre-trained).
    assert again.cells == result.cells
    assert again.rankings == result.rankings


def test_cli_writes_report_and_json(tmp_path, capsys):
    out = tmp_path / "figure9.txt"
    doc = tmp_path / "figure9.json"
    assert (
        tournament_main(
            [
                "--seeds",
                "0",
                "--scale",
                "0.3",
                "--jobs",
                "2",
                "--no-cache",
                "--out",
                str(out),
                "--json",
                str(doc),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "Figure 9" in captured.out
    assert out.read_text().strip() in captured.out
    document = json.loads(doc.read_text())
    assert document["format"] == 1
