"""Golden OO7 traces: the generator's output is pinned byte for byte.

Trace fingerprints, result-cache fingerprints and the CI
``--expect-all-cached`` jobs all assume that a given (config, seed) always
generates the same trace. Each digest below is the SHA-256 of
``CompiledTrace.save`` bytes, recorded before the generator was rewritten to
emit through a sink, and must hold through both routes into
``compile_trace``: the workload's ``emit_trace`` and its event stream.
"""

import hashlib
import io

import pytest

from repro.oo7.config import SMALL_PRIME, TINY
from repro.sim.spec import WorkloadSpec
from repro.workload.application import Oo7Application
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.trace_cache import TraceCache

GOLDEN = [
    pytest.param(
        TINY,
        0,
        {},
        1485,
        "1c259e871297cf4b22cdb7a5a01bf9c2c4dd13e957123b7afc7c50f3b161d3a2",
        id="tiny-seed0",
    ),
    pytest.param(
        TINY,
        1,
        {"doc_churn_fraction": 0.5},
        1504,
        "9dd2919f8368611ce3dc3fff3d4345d56a37e2cc043ce7fa9fd7add7cb29340e",
        id="tiny-seed1-doc-churn",
    ),
    pytest.param(
        SMALL_PRIME,
        0,
        {},
        67_130,
        "c7285fbb8a24e2e0092a33b535583586e95e5b86f93ff96beab69af983c42c73",
        id="small-prime-seed0",
    ),
    pytest.param(
        SMALL_PRIME.with_connectivity(9),
        1,
        {},
        163_991,
        "57435875e4508edfe1c84907953a37277de6b1bd9a4920959c5e4608ed2c9dad",
        id="small-prime-conn9-seed1",
    ),
]


def _digest(trace: CompiledTrace) -> str:
    buffer = io.BytesIO()
    trace.save(buffer)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


@pytest.mark.parametrize("config, seed, kwargs, events, digest", GOLDEN)
def test_golden_trace_through_both_routes(config, seed, kwargs, events, digest):
    direct = compile_trace(Oo7Application(config, seed=seed, **kwargs))
    assert len(direct) == events
    assert _digest(direct) == digest

    streamed = compile_trace(list(Oo7Application(config, seed=seed, **kwargs).events()))
    assert len(streamed) == events
    assert _digest(streamed) == digest


def test_trace_cache_builds_the_golden_trace():
    """The engine's resolutions — a registry spec, and a workload instance —
    hand ``compile_trace`` something that offers ``emit_trace``."""
    digest = GOLDEN[0].values[-1]
    by_spec = TraceCache(None).get_or_build(WorkloadSpec("oo7", {"config": TINY}), 0)
    assert _digest(by_spec) == digest
    by_instance = TraceCache(None).get_or_build(Oo7Application(TINY, seed=0), 0)
    assert _digest(by_instance) == digest
