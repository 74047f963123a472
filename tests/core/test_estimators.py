"""Unit tests for the garbage estimators (§2.4)."""

import pytest

from repro.core.estimators import (
    CgsCbEstimator,
    CgsHbEstimator,
    DecayingOracleBlend,
    FgsCbEstimator,
    FgsHbEstimator,
    OracleEstimator,
    make_estimator,
)
from repro.gc.collector import CollectionResult
from repro.storage.heap import ObjectStore, StoreConfig

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)


def _result(reclaimed: int, po: int, number: int = 0) -> CollectionResult:
    return CollectionResult(
        collection_number=number,
        partition=0,
        reclaimed_bytes=reclaimed,
        reclaimed_objects=1,
        live_bytes=0,
        live_objects=0,
        gc_reads=4,
        gc_writes=1,
        pointer_overwrites_at_selection=po,
        overwrite_clock=100,
    )


@pytest.fixture
def store() -> ObjectStore:
    store = ObjectStore(CFG)
    root = store.create(size=10)
    store.register_root(root)
    # Force three extra partitions.
    for _ in range(3):
        store.create(size=1020)
    assert store.partition_count == 4
    return store


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def test_oracle_reads_exact_garbage(store):
    estimator = OracleEstimator()
    assert estimator.estimate(store) == 0.0
    root = next(iter(store.roots))
    victim = store.create(size=100)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])
    assert estimator.estimate(store) == 100.0


# ----------------------------------------------------------------------
# CGS/CB — ActGarb = C · p
# ----------------------------------------------------------------------


def test_cgs_cb_estimate_is_yield_times_partitions(store):
    estimator = CgsCbEstimator()
    assert estimator.estimate(store) == 0.0
    estimator.observe_collection(_result(reclaimed=500, po=3), store)
    assert estimator.estimate(store) == 500.0 * 4


def test_cgs_cb_uses_only_latest_collection(store):
    estimator = CgsCbEstimator()
    estimator.observe_collection(_result(reclaimed=500, po=3), store)
    estimator.observe_collection(_result(reclaimed=100, po=3, number=1), store)
    assert estimator.estimate(store) == 100.0 * 4


# ----------------------------------------------------------------------
# CGS/HB — smoothed yield × partitions
# ----------------------------------------------------------------------


def test_cgs_hb_smooths_yields(store):
    estimator = CgsHbEstimator(history=0.5)
    estimator.observe_collection(_result(reclaimed=400, po=1), store)
    estimator.observe_collection(_result(reclaimed=0, po=1, number=1), store)
    # mean = 0.5*400 + 0.5*0 = 200 → estimate 200*4
    assert estimator.estimate(store) == pytest.approx(800.0)


def test_cgs_hb_zero_before_observations(store):
    assert CgsHbEstimator().estimate(store) == 0.0


# ----------------------------------------------------------------------
# FGS/HB — GPPO_h × Σ PO(p)
# ----------------------------------------------------------------------


def _overwrite_into(store, target, times):
    """``times`` overwrites of a pointer to ``target``: FGS counts of its
    partition, and of the store's Σ_p PO(p)."""
    for _ in range(times):
        store.write_pointer(1, "s", target)
        store.write_pointer(1, "s", None)


def test_fgs_hb_estimate_formula(store):
    estimator = FgsHbEstimator(history=0.8)
    estimator.observe_collection(_result(reclaimed=300, po=3), store)  # GPPO 100
    _overwrite_into(store, 1, 2)  # partition 0
    _overwrite_into(store, 2, 5)  # partition 1
    assert [p.pointer_overwrites for p in store.partitions] == [2, 5, 0, 0]
    assert store.pending_overwrites == 7
    assert estimator.estimate(store) == pytest.approx(100.0 * 7)


def test_fgs_hb_smooths_gppo_samples(store):
    estimator = FgsHbEstimator(history=0.5)
    estimator.observe_collection(_result(reclaimed=300, po=3), store)  # 100
    estimator.observe_collection(_result(reclaimed=600, po=3, number=1), store)  # 200
    assert estimator.gppo == pytest.approx(0.5 * 100 + 0.5 * 200)


def test_fgs_hb_skips_samples_without_overwrites(store):
    """Yield without overwrites gives no GPPO sample (behaviour undefined)."""
    estimator = FgsHbEstimator(history=0.8)
    estimator.observe_collection(_result(reclaimed=300, po=3), store)
    estimator.observe_collection(_result(reclaimed=999, po=0, number=1), store)
    assert estimator.gppo == pytest.approx(100.0)


def test_fgs_hb_zero_before_observations(store):
    estimator = FgsHbEstimator()
    _overwrite_into(store, 1, 50)
    assert estimator.estimate(store) == 0.0


def test_fgs_cb_is_fgs_hb_with_zero_history(store):
    estimator = FgsCbEstimator()
    assert estimator.history == 0.0
    estimator.observe_collection(_result(reclaimed=300, po=3), store)
    estimator.observe_collection(_result(reclaimed=600, po=2, number=1), store)
    assert estimator.gppo == pytest.approx(300.0)  # tracks latest sample only


# ----------------------------------------------------------------------
# Decaying oracle blend (§3.2 preamble shortening)
# ----------------------------------------------------------------------


def test_blend_starts_at_oracle_and_decays(store):
    inner = CgsCbEstimator()
    blend = DecayingOracleBlend(inner, decay=0.5)
    root = next(iter(store.roots))
    victim = store.create(size=100)
    store.write_pointer(root, "x", victim)
    store.write_pointer(root, "x", None, dies=[victim])

    # Weight 1.0 before any collection: pure oracle.
    assert blend.estimate(store) == pytest.approx(100.0)

    blend.observe_collection(_result(reclaimed=50, po=1), store)
    # Weight 0.5: 0.5*oracle(100) + 0.5*inner(50*4=200) = 150.
    assert blend.oracle_weight == pytest.approx(0.5)
    assert blend.estimate(store) == pytest.approx(150.0)


def test_blend_validates_decay(store):
    with pytest.raises(ValueError):
        DecayingOracleBlend(CgsCbEstimator(), decay=1.0)


def test_blend_describe_mentions_inner():
    blend = DecayingOracleBlend(FgsHbEstimator(), decay=0.75)
    assert "fgs-hb" in blend.describe()


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------


def test_make_estimator_constructs_each_kind():
    assert isinstance(make_estimator("oracle"), OracleEstimator)
    assert isinstance(make_estimator("cgs-cb"), CgsCbEstimator)
    assert isinstance(make_estimator("cgs-hb"), CgsHbEstimator)
    assert isinstance(make_estimator("fgs-hb"), FgsHbEstimator)
    assert isinstance(make_estimator("fgs-cb"), FgsCbEstimator)


def test_make_estimator_passes_history():
    estimator = make_estimator("fgs-hb", history=0.95)
    assert estimator.history == pytest.approx(0.95)


def test_make_estimator_rejects_unknown():
    with pytest.raises(ValueError, match="unknown estimator"):
        make_estimator("magic")
