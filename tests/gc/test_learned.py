"""Learned estimator: training purity, artifact integrity, registry specs."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import make_estimator
from repro.gc.learned import (
    FEATURE_NAMES,
    FeatureTracker,
    LearnedEstimator,
    LearnedModel,
    ModelError,
    TrainingRow,
    _squash,
    estimator_from_spec,
    model_spec,
    parse_model_spec,
    train_model,
)
from repro.oo7.config import TINY
from repro.sim.cache import spec_fingerprint
from repro.sim.spec import ExperimentSpec, PolicySpec, SimulationConfig, WorkloadSpec
from repro.storage.heap import StoreConfig

WIDTH = len(FEATURE_NAMES)

feature_values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def training_rows(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    rows = []
    for _ in range(count):
        features = draw(
            st.lists(feature_values, min_size=WIDTH, max_size=WIDTH)
        )
        target = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        rows.append(TrainingRow(features=tuple(features), target=target))
    return rows


def _simple_rows(count=12):
    rows = []
    for i in range(count):
        features = [1.0] + [0.05 * ((i + j) % 7) for j in range(WIDTH - 1)]
        rows.append(TrainingRow(features=tuple(features), target=0.1 + 0.02 * (i % 5)))
    return rows


# ------------------------------------------------------------- training purity


@settings(deadline=None, max_examples=25)
@given(rows=training_rows(), seed=st.integers(min_value=0, max_value=2**16))
def test_training_is_pure_function_of_rows_and_seed(rows, seed):
    """Same (rows, seed, hyperparameters) → bit-identical model."""
    first, _ = train_model(rows, seed=seed, epochs=5)
    second, _ = train_model(rows, seed=seed, epochs=5)
    assert first.weights == second.weights
    assert first.sha256 == second.sha256


def test_different_seed_changes_initialisation():
    rows = _simple_rows()
    a, _ = train_model(rows, seed=0, epochs=0)
    b, _ = train_model(rows, seed=1, epochs=0)
    assert a.weights != b.weights


def test_training_rejects_empty_rows():
    with pytest.raises(ValueError):
        train_model([])


def test_training_beats_predict_the_mean_on_learnable_data():
    """A linear target must be fit far better than the mean baseline."""
    rows = []
    for i in range(40):
        x = (i % 11) / 10.0
        features = [1.0, x] + [0.0] * (WIDTH - 2)
        rows.append(TrainingRow(features=tuple(features), target=0.1 + 0.6 * x))
    model, report = train_model(rows)
    assert report.mae < report.baseline_mae / 4
    assert model.train_mae == report.mae


# ------------------------------------------------------------- model artifacts


def test_artifact_round_trip(tmp_path):
    model, _ = train_model(_simple_rows(), epochs=10, files=3)
    path = model.save(tmp_path / "m.json")
    loaded = LearnedModel.load(path)
    assert loaded == model
    assert loaded.sha256 == model.sha256


def test_artifact_bytes_are_stable(tmp_path):
    model, _ = train_model(_simple_rows(), epochs=10)
    a = model.save(tmp_path / "a.json").read_bytes()
    b = model.save(tmp_path / "b.json").read_bytes()
    assert a == b


def test_tampered_artifact_raises(tmp_path):
    model, _ = train_model(_simple_rows(), epochs=10)
    path = model.save(tmp_path / "m.json")
    document = json.loads(path.read_text())
    document["weights"][0] += 0.5
    path.write_text(json.dumps(document))
    with pytest.raises(ModelError, match="corrupt"):
        LearnedModel.load(path)


def test_unknown_format_raises(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": 99, "kind": "learned-linear"}))
    with pytest.raises(ModelError, match="format"):
        LearnedModel.load(path)


def test_missing_artifact_raises(tmp_path):
    with pytest.raises(ModelError, match="cannot read"):
        LearnedModel.load(tmp_path / "nope.json")


def test_non_utf8_artifact_raises_model_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe\x00{")
    with pytest.raises(ModelError, match="cannot read"):
        LearnedModel.load(path)


def test_predict_clips_to_unit_interval():
    big = LearnedModel(weights=tuple([10.0] * WIDTH))
    small = LearnedModel(weights=tuple([-10.0] * WIDTH))
    features = [1.0] * WIDTH
    assert big.predict(features) == 1.0
    assert small.predict(features) == 0.0


# ------------------------------------------------------------------- features


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_squash_is_bounded_and_sign_preserving(value):
    squashed = _squash(value)
    assert abs(squashed) < 1.0
    assert squashed == 0.0 or (squashed > 0) == (value > 0)


def test_feature_vector_matches_names_and_stays_finite():
    tracker = FeatureTracker()
    for i in range(1, 6):
        features = tracker.observe(
            overwrite_clock=1000.0 * i,
            reclaimed_bytes=400.0 * i,
            live_bytes=1200.0,
            db_size=50000.0 + 100.0 * i,
            pending_overwrites=30.0,
            partition_count=8.0,
        )
        assert len(features) == WIDTH
        assert all(math.isfinite(x) for x in features)
    assert tracker.count == 5


def test_feature_tracker_is_deterministic():
    def trace():
        tracker = FeatureTracker()
        return [
            tracker.observe(
                overwrite_clock=500.0 * i,
                reclaimed_bytes=100.0 * i,
                live_bytes=900.0,
                db_size=20000.0,
            )
            for i in range(1, 5)
        ]

    assert trace() == trace()


# ------------------------------------------------------------- registry specs


def test_model_spec_round_trips_through_registry(tmp_path):
    model, _ = train_model(_simple_rows(), epochs=10)
    path = model.save(tmp_path / "m.json")
    spec = model_spec(path)
    assert spec == f"learned:{path}@{model.sha256[:12]}"
    parsed_path, digest = parse_model_spec(spec)
    assert parsed_path == str(path)
    assert model.sha256.startswith(digest)
    estimator = make_estimator(spec)
    assert isinstance(estimator, LearnedEstimator)
    assert estimator.model.sha256 == model.sha256


def test_hash_pin_mismatch_raises(tmp_path):
    model, _ = train_model(_simple_rows(), epochs=10)
    path = model.save(tmp_path / "m.json")
    with pytest.raises(ModelError, match="pins"):
        estimator_from_spec(f"learned:{path}@deadbeefdead")


def test_parse_model_spec_errors():
    with pytest.raises(ValueError):
        parse_model_spec("fgs-hb")
    with pytest.raises(ValueError):
        parse_model_spec("learned:")
    assert parse_model_spec("learned:m.json") == ("m.json", None)
    assert parse_model_spec("learned:m.json@abcd") == ("m.json", "abcd")


# ----------------------------------------------------------- cache fingerprints

_TINY_STORE = StoreConfig(page_size=2048, partition_pages=4, buffer_pages=4)


def _saga_spec(estimator):
    return ExperimentSpec(
        label="fp-check",
        policy=PolicySpec(
            "saga", {"garbage_fraction": 0.15, "estimator": estimator}
        ),
        workload=WorkloadSpec("oo7", {"config": TINY}),
        sim=SimulationConfig(store=_TINY_STORE, preamble_collections=0),
    )


def test_learned_spec_participates_in_fingerprint(tmp_path):
    """Different model content → different fingerprint; same spec → same."""
    model_a, _ = train_model(_simple_rows(), seed=0, epochs=10)
    model_b, _ = train_model(_simple_rows(), seed=1, epochs=10)
    spec_a = model_spec(model_a.save(tmp_path / "a.json"))
    spec_b = model_spec(model_b.save(tmp_path / "b.json"))
    assert spec_fingerprint(_saga_spec(spec_a), seed=0) == spec_fingerprint(
        _saga_spec(spec_a), seed=0
    )
    assert spec_fingerprint(_saga_spec(spec_a), seed=0) != spec_fingerprint(
        _saga_spec(spec_b), seed=0
    )


def test_learned_machinery_does_not_perturb_other_fingerprints(tmp_path):
    """Loading/building learned estimators leaves hand-designed specs alone."""
    before = spec_fingerprint(_saga_spec("fgs-hb"), seed=0)
    model, _ = train_model(_simple_rows(), epochs=10)
    path = model.save(tmp_path / "m.json")
    make_estimator(model_spec(path))
    assert spec_fingerprint(_saga_spec("fgs-hb"), seed=0) == before


# ------------------------------------------------------------- online updates


def _model(seed=0):
    model, _report = train_model(_simple_rows(), seed=seed)
    return model


def _store_with_garbage():
    from repro.storage.heap import ObjectStore

    store = ObjectStore(StoreConfig(page_size=2048, partition_pages=4,
                                    buffer_pages=4))
    root = store.create(size=64)
    store.register_root(root)
    for _ in range(8):
        obj = store.create(size=300)
        store.write_pointer(root, "x", obj)
        store.write_pointer(root, "x", None, dies=[obj])
    return store


def _result(n, reclaimed=900, clock=40):
    from repro.gc.collector import CollectionResult

    return CollectionResult(
        collection_number=n, partition=0, reclaimed_bytes=reclaimed,
        reclaimed_objects=3, live_bytes=600, live_objects=2, gc_reads=4,
        gc_writes=2, pointer_overwrites_at_selection=10,
        overwrite_clock=clock,
    )


def test_online_rate_zero_never_touches_weights():
    store = _store_with_garbage()
    estimator = LearnedEstimator(_model(), online_rate=0.0)
    frozen = estimator.weights
    for n in range(4):
        estimator.observe_collection(_result(n, clock=40 * (n + 1)), store)
    assert estimator.weights == frozen == list(estimator.model.weights)


def test_online_rate_fine_tunes_after_second_observation():
    """The first observation only seeds the feature vector; the SGD step
    needs a (previous features, fresh label) pair."""
    store = _store_with_garbage()
    estimator = LearnedEstimator(_model(), online_rate=0.05)
    initial = estimator.weights
    estimator.observe_collection(_result(0, clock=40), store)
    assert estimator.weights == initial, "no previous features yet"
    estimator.observe_collection(_result(1, clock=80), store)
    assert estimator.weights != initial
    assert list(estimator.model.weights) == initial, (
        "online tuning must not write back into the artifact's weights"
    )


def test_online_updates_are_deterministic():
    def tuned_weights():
        store = _store_with_garbage()
        estimator = LearnedEstimator(_model(), online_rate=0.1)
        for n in range(5):
            estimator.observe_collection(
                _result(n, reclaimed=700 + 50 * n, clock=40 * (n + 1)), store
            )
        return estimator.weights

    assert tuned_weights() == tuned_weights()


def test_online_update_moves_prediction_toward_observed_target():
    store = _store_with_garbage()
    estimator = LearnedEstimator(_model(), online_rate=0.05)
    estimator.observe_collection(_result(0, clock=40), store)
    features = estimator._features
    db = max(store.db_size, 1)
    result = _result(1, clock=80)
    observed = min(
        max(result.reclaimed_bytes * store.partition_count / db, 0.0), 1.0
    )
    before = sum(w * x for w, x in zip(estimator.weights, features))
    estimator.observe_collection(result, store)
    after = sum(w * x for w, x in zip(estimator.weights, features))
    assert abs(after - observed) < abs(before - observed) or before == after


def test_estimate_stays_clipped_under_aggressive_online_rate():
    store = _store_with_garbage()
    estimator = LearnedEstimator(_model(), online_rate=5.0)
    assert estimator.estimate(store) == 0.0, "nothing observed yet"
    for n in range(6):
        estimator.observe_collection(_result(n, clock=40 * (n + 1)), store)
        assert 0.0 <= estimator.estimate(store) <= store.db_size


def test_describe_names_the_online_rate():
    assert LearnedEstimator(_model()).describe().startswith("learned@")
    described = LearnedEstimator(_model(), online_rate=0.25).describe()
    assert described.endswith("+online(0.25)")
