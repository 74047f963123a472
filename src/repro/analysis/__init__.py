"""Analytical models validated against the simulator."""

from repro.analysis.cost_model import predict_collection_cost
from repro.analysis.steady_state import (
    WorkloadModel,
    expected_collections,
    fixed_rate_garbage_fraction,
    fixed_rate_yield,
)

__all__ = [
    "WorkloadModel",
    "expected_collections",
    "fixed_rate_garbage_fraction",
    "fixed_rate_yield",
    "predict_collection_cost",
]
