"""Learned garbage estimator: online linear regression over FGS/HB features.

The paper's estimators (§2.4) are hand-designed points in a 2×2 design
space; *Learned Garbage Collection* (Cen et al., 2020) shows ML-driven
policies beating exactly this kind of heuristic. This module closes the
telemetry loop: the per-collection GC timeline the observability layer
already emits (:mod:`repro.obs.telemetry`) is oracle-labelled training
data — ``actual_garbage_fraction`` is recorded at every collection — so a
regression can be fitted offline (``python -m repro train``) and deployed
as a drop-in :class:`~repro.core.estimators.GarbageEstimator`.

Three deliberate design constraints:

* **No train/serve skew.** A single :class:`FeatureTracker` derives the
  feature vector from per-collection observables — pointer-overwrite
  clock, bytes reclaimed, survivor bytes, database size — and is driven
  identically by the live estimator (from
  :class:`~repro.gc.collector.CollectionResult` + store) and by the
  telemetry reader (:mod:`repro.obs.features`). Wall-clock fields are
  never features.
* **Determinism.** Training is plain-python SGD with a seeded
  :class:`random.Random` for initialisation and epoch shuffling; the same
  (telemetry records, seed, hyperparameters) always produce a
  byte-identical model artifact, which CI gates on. No numpy required.
* **Content addressing.** A saved model is a versioned JSON artifact with
  an embedded SHA-256 self-hash; the estimator-registry spec form
  ``learned:<path>@<hash-prefix>`` pins the *content*, so experiment
  fingerprints (and therefore the result cache) track what the model is,
  not merely where it lives.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.control import ExponentialMean
from repro.core.estimators import GarbageEstimator
from repro.gc.collector import CollectionResult
from repro.storage.heap import ObjectStore

#: Model artifact schema version; bump on breaking changes.
MODEL_FORMAT = 1

#: Overwrite-clock scale used to keep rate features O(1).
_KILO = 1000.0

#: Feature vector layout, in order. Training rows, model weights and the
#: live estimator all index against this tuple.
FEATURE_NAMES: tuple[str, ...] = (
    "bias",
    "reclaimed_ratio",
    "reclaimed_ratio_smooth",
    "gppo_frac",
    "gppo_frac_smooth",
    "overwrite_rate",
    "alloc_frac",
    "survivor_ratio",
    "age_kilo_overwrites",
    "cgs_extrap",
    "fgs_extrap",
    "pending_rate",
)

#: Default EMA history factor for the smoothed features (the paper's h).
DEFAULT_FEATURE_HISTORY = 0.8


class ModelError(Exception):
    """A learned-model artifact could not be loaded or verified."""


def _squash(value: float) -> float:
    """Soft-sign squash into (-1, 1): ``x / (1 + |x|)``.

    The rate-style features (garbage per overwrite, allocation rate,
    overwrite burstiness, age) are unbounded — a near-idle interval can
    push them into the hundreds, which blows plain SGD up. Squashing
    keeps every feature O(1) for *any* workload scale while staying
    monotone and sign-preserving, so the linear model can still order
    states by them.
    """
    return value / (1.0 + abs(value))


class FeatureTracker:
    """Folds successive collection observations into a feature vector.

    One observation per collection: the global pointer-overwrite clock,
    the bytes reclaimed, the surviving bytes of the victim, and the
    database size. Everything else — rates, smoothed ratios, the
    partition-age proxy — is derived internally, so the live estimator
    and the telemetry reader cannot disagree about what a feature means.
    """

    def __init__(self, history: float = DEFAULT_FEATURE_HISTORY) -> None:
        self.history = history
        self._count = 0
        self._prev_clock = 0.0
        self._prev_db = 0.0
        self._reclaimed_smooth = ExponentialMean(history)
        self._gppo_smooth = ExponentialMean(history)
        self._gppo_bytes_smooth = ExponentialMean(history)

    @property
    def count(self) -> int:
        """Collections observed so far."""
        return self._count

    def observe(
        self,
        overwrite_clock: float,
        reclaimed_bytes: float,
        live_bytes: float,
        db_size: float,
        pending_overwrites: float = 0.0,
        partition_count: float = 0.0,
    ) -> list[float]:
        """Fold one collection's observables; return the feature vector.

        The last three features are the hand-designed estimators stacked
        as inputs: ``cgs_extrap`` is the CGS/CB extrapolation of this
        collection's yield, ``fgs_extrap`` the FGS/HB-style product of
        smoothed garbage-per-overwrite and pending overwrites, and
        ``pending_rate`` the raw pending-overwrite pressure. A linear
        model can therefore *at least* reproduce either hand-designed
        estimator (weight 1 on its feature) and learn corrections on top.
        """
        delta_clock = max(overwrite_clock - self._prev_clock, 0.0)
        db = max(db_size, 1.0)
        self._count += 1
        mean_interval = overwrite_clock / self._count

        reclaimed_ratio = reclaimed_bytes / db
        gppo_frac = _squash((reclaimed_bytes / max(delta_clock, 1.0)) * (_KILO / db))
        alloc_frac = _squash(
            ((db_size - self._prev_db) / max(delta_clock, 1.0)) * (_KILO / db)
        )
        turned_over = live_bytes + reclaimed_bytes
        survivor_ratio = live_bytes / turned_over if turned_over > 0 else 0.0
        gppo_bytes = self._gppo_bytes_smooth.update(
            reclaimed_bytes / max(delta_clock, 1.0)
        )
        features = [
            1.0,
            reclaimed_ratio,
            self._reclaimed_smooth.update(reclaimed_ratio),
            gppo_frac,
            self._gppo_smooth.update(gppo_frac),
            _squash(delta_clock / max(mean_interval, 1.0)),
            alloc_frac,
            survivor_ratio,
            _squash(mean_interval / _KILO),
            _squash(reclaimed_bytes * partition_count / db),
            _squash(gppo_bytes * pending_overwrites / db),
            _squash(pending_overwrites / max(mean_interval, 1.0)),
        ]
        self._prev_clock = overwrite_clock
        self._prev_db = db_size
        return features


@dataclass(frozen=True)
class LearnedModel:
    """A trained linear garbage-fraction model plus its provenance.

    The prediction is ``clip(w · x, 0, 1)`` — a garbage *fraction*; the
    estimator multiplies by the live database size to produce ``ActGarb``
    bytes. ``feature_history`` is the EMA factor the feature tracker must
    replay with, so it travels with the weights.
    """

    weights: tuple[float, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES
    feature_history: float = DEFAULT_FEATURE_HISTORY
    seed: int = 0
    learning_rate: float = 0.05
    epochs: int = 200
    l2: float = 1e-4
    trained_rows: int = 0
    trained_files: int = 0
    train_mae: float = 0.0
    baseline_mae: float = 0.0

    def predict(self, features: Sequence[float]) -> float:
        """Predicted garbage fraction, clipped to [0, 1]."""
        raw = sum(w * x for w, x in zip(self.weights, features))
        return min(max(raw, 0.0), 1.0)

    def payload(self) -> dict:
        """The JSON-compatible artifact body (everything but the hash)."""
        return {
            "format": MODEL_FORMAT,
            "kind": "learned-linear",
            "feature_names": list(self.feature_names),
            "weights": list(self.weights),
            "feature_history": self.feature_history,
            "hyper": {
                "seed": self.seed,
                "learning_rate": self.learning_rate,
                "epochs": self.epochs,
                "l2": self.l2,
            },
            "trained": {
                "rows": self.trained_rows,
                "files": self.trained_files,
                "mae": self.train_mae,
                "baseline_mae": self.baseline_mae,
            },
        }

    @property
    def sha256(self) -> str:
        """Content hash of the canonical artifact body."""
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def save(self, path: Union[str, Path]) -> Path:
        """Write the versioned, self-hashed artifact (stable byte output)."""
        path = Path(path)
        document = self.payload()
        document["sha256"] = self.sha256
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
        return path

    @classmethod
    def from_payload(cls, document: dict) -> "LearnedModel":
        if document.get("format") != MODEL_FORMAT:
            raise ModelError(
                f"model format {document.get('format')!r} "
                f"(this loader understands {MODEL_FORMAT})"
            )
        if document.get("kind") != "learned-linear":
            raise ModelError(f"unknown model kind {document.get('kind')!r}")
        hyper = document.get("hyper", {})
        trained = document.get("trained", {})
        model = cls(
            weights=tuple(float(w) for w in document["weights"]),
            feature_names=tuple(document["feature_names"]),
            feature_history=float(document["feature_history"]),
            seed=int(hyper.get("seed", 0)),
            learning_rate=float(hyper.get("learning_rate", 0.05)),
            epochs=int(hyper.get("epochs", 200)),
            l2=float(hyper.get("l2", 1e-4)),
            trained_rows=int(trained.get("rows", 0)),
            trained_files=int(trained.get("files", 0)),
            train_mae=float(trained.get("mae", 0.0)),
            baseline_mae=float(trained.get("baseline_mae", 0.0)),
        )
        stored = document.get("sha256")
        if stored is not None and stored != model.sha256:
            raise ModelError(
                f"model artifact is corrupt: stored hash {stored[:12]}… does "
                f"not match recomputed {model.sha256[:12]}…"
            )
        return model

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LearnedModel":
        path = Path(path)
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # bad JSON or non-UTF-8 bytes
            raise ModelError(f"cannot read model artifact {path}: {exc}") from exc
        if not isinstance(document, dict):
            raise ModelError(f"{path}: model artifact is not a JSON object")
        return cls.from_payload(document)


@dataclass(frozen=True)
class TrainingRow:
    """One (features, oracle garbage fraction) training example."""

    features: tuple[float, ...]
    target: float
    #: Where the example came from (telemetry file, collection number).
    source: str = ""
    collection: int = 0


@dataclass
class TrainingReport:
    """What :func:`train_model` did — printed by the ``train`` CLI."""

    rows: int
    files: int
    epochs: int
    mae: float
    baseline_mae: float
    mean_target: float


def train_model(
    rows: Sequence[TrainingRow],
    seed: int = 0,
    learning_rate: float = 0.05,
    epochs: int = 200,
    l2: float = 1e-4,
    feature_history: float = DEFAULT_FEATURE_HISTORY,
    files: int = 0,
) -> tuple[LearnedModel, TrainingReport]:
    """Fit the linear model with deterministic seeded SGD.

    The update rule is a pure function of (rows, seed, hyperparameters):
    weights initialise from ``random.Random(seed)``, each epoch visits the
    rows in a seeded shuffle, and the learning rate decays as
    ``lr / (1 + epoch / 10)``. Repeat invocations produce bit-identical
    weights — the CI training-determinism gate depends on it.

    Raises:
        ValueError: when ``rows`` is empty — there is nothing to fit.
    """
    if not rows:
        raise ValueError("cannot train a learned estimator from zero rows")
    width = len(FEATURE_NAMES)
    rng = random.Random(seed)
    weights = [rng.uniform(-0.01, 0.01) for _ in range(width)]

    order = list(range(len(rows)))
    for epoch in range(epochs):
        rng.shuffle(order)
        rate = learning_rate / (1.0 + epoch / 10.0)
        for index in order:
            row = rows[index]
            predicted = sum(w * x for w, x in zip(weights, row.features))
            error = predicted - row.target
            for j, x in enumerate(row.features):
                weights[j] -= rate * (error * x + l2 * weights[j])

    mean_target = sum(row.target for row in rows) / len(rows)
    errors = []
    for row in rows:
        predicted = sum(w * x for w, x in zip(weights, row.features))
        errors.append(abs(min(max(predicted, 0.0), 1.0) - row.target))
    mae = sum(errors) / len(rows)
    baseline_mae = sum(abs(mean_target - row.target) for row in rows) / len(rows)

    model = LearnedModel(
        weights=tuple(weights),
        feature_history=feature_history,
        seed=seed,
        learning_rate=learning_rate,
        epochs=epochs,
        l2=l2,
        trained_rows=len(rows),
        trained_files=files,
        train_mae=mae,
        baseline_mae=baseline_mae,
    )
    report = TrainingReport(
        rows=len(rows),
        files=files,
        epochs=epochs,
        mae=mae,
        baseline_mae=baseline_mae,
        mean_target=mean_target,
    )
    return model, report


class LearnedEstimator(GarbageEstimator):
    """A trained model deployed as a pluggable :class:`GarbageEstimator`.

    ``observe_collection`` folds each collection's observables through the
    same :class:`FeatureTracker` the model was trained against;
    ``estimate`` is side-effect-free and returns the model's predicted
    garbage fraction times the live database size. Before the first
    collection there is nothing to condition on and the estimate is 0.

    ``online_rate > 0`` additionally fine-tunes the weights during the
    run against the *observable* CGS-extrapolated target
    (``reclaimed × partitions / db_size`` — no oracle required). The
    update draws no randomness, so runs stay deterministic; it defaults
    to off so a deployed artifact's behaviour is exactly its weights.
    """

    name = "learned"

    def __init__(
        self,
        model: LearnedModel,
        online_rate: float = 0.0,
        keep_trace: bool = False,
    ) -> None:
        self.model = model
        self.online_rate = online_rate
        self._weights = list(model.weights)
        self._tracker = FeatureTracker(history=model.feature_history)
        self._features: Optional[list[float]] = None
        #: Per-collection feature vectors, retained only when asked
        #: (the train/serve-skew property test replays these).
        self.feature_trace: list[list[float]] = []
        self._keep_trace = keep_trace

    @property
    def weights(self) -> list[float]:
        """Current weights (a copy; diverges from the model when online)."""
        return list(self._weights)

    def observe_collection(self, result: CollectionResult, store: ObjectStore) -> None:
        if self.online_rate > 0.0 and self._features is not None:
            # The collection just revealed its victim's garbage; the CGS
            # extrapolation of that yield is an oracle-free label for the
            # state the previous feature vector described.
            db = max(store.db_size, 1)
            observed = min(
                max(result.reclaimed_bytes * store.partition_count / db, 0.0),
                1.0,
            )
            features = self._features
            predicted = sum(w * x for w, x in zip(self._weights, features))
            error = predicted - observed
            for j, x in enumerate(features):
                self._weights[j] -= self.online_rate * error * x
        self._features = self._tracker.observe(
            overwrite_clock=float(result.overwrite_clock),
            reclaimed_bytes=float(result.reclaimed_bytes),
            live_bytes=float(result.live_bytes),
            db_size=float(store.db_size),
            pending_overwrites=float(store.pending_overwrites),
            partition_count=float(store.partition_count),
        )
        if self._keep_trace:
            self.feature_trace.append(list(self._features))

    def estimate(self, store: ObjectStore) -> float:
        if self._features is None:
            return 0.0
        raw = sum(w * x for w, x in zip(self._weights, self._features))
        return min(max(raw, 0.0), 1.0) * store.db_size

    def describe(self) -> str:
        suffix = f"@{self.model.sha256[:8]}"
        if self.online_rate > 0.0:
            suffix += f"+online({self.online_rate:g})"
        return f"learned{suffix}"


# ----------------------------------------------------------------------
# Registry spec form: ``learned:<path>[@<hash-prefix>]``
# ----------------------------------------------------------------------


def model_spec(path: Union[str, Path]) -> str:
    """The content-pinned registry spec for a saved model artifact.

    ``learned:<path>@<hash12>`` — experiment fingerprints derived from the
    spec then track the artifact's *content*: retraining the model at the
    same path changes the spec, so stale cached results can never be
    mistaken for results of the new model.
    """
    model = LearnedModel.load(path)
    return f"learned:{path}@{model.sha256[:12]}"


def parse_model_spec(spec: str) -> tuple[str, Optional[str]]:
    """Split ``learned:<path>[@<hash-prefix>]`` into (path, hash-prefix)."""
    if not spec.startswith("learned:"):
        raise ValueError(f"not a learned-estimator spec: {spec!r}")
    rest = spec[len("learned:") :]
    if not rest:
        raise ValueError(
            "learned-estimator spec needs a model path: learned:<model.json>"
        )
    path, _, digest = rest.rpartition("@")
    if not path:
        return rest, None
    return path, digest


def estimator_from_spec(
    spec: str, online_rate: float = 0.0, keep_trace: bool = False
) -> LearnedEstimator:
    """Load the model named by a ``learned:`` spec, verifying any hash pin."""
    path, digest = parse_model_spec(spec)
    model = LearnedModel.load(path)
    if digest and not model.sha256.startswith(digest):
        raise ModelError(
            f"model at {path} has hash {model.sha256[:12]}…, but the spec "
            f"pins {digest}… — the artifact changed since the spec was built"
        )
    return LearnedEstimator(model, online_rate=online_rate, keep_trace=keep_trace)


__all__ = [
    "DEFAULT_FEATURE_HISTORY",
    "FEATURE_NAMES",
    "FeatureTracker",
    "LearnedEstimator",
    "LearnedModel",
    "MODEL_FORMAT",
    "ModelError",
    "TrainingReport",
    "TrainingRow",
    "estimator_from_spec",
    "model_spec",
    "parse_model_spec",
    "train_model",
]
