"""Golden traces: every generator's output is pinned byte for byte.

Trace fingerprints, result-cache fingerprints and the CI
``--expect-all-cached`` jobs all assume that a given (config, seed) always
generates the same trace. Each digest below is the SHA-256 of
``CompiledTrace.save`` bytes, recorded before the generator was rewritten to
emit through a sink, and must hold through both routes into
``compile_trace``: the workload's ``emit_trace`` and its event stream.
The grammar and tenant generators, and the unbounded streams the service
reads, are pinned the same way further down.
"""

import hashlib
import io
import itertools

import pytest

from repro.oo7.config import SMALL_PRIME, TINY
from repro.service.stream import grammar_stream, tenant_stream
from repro.sim.spec import WorkloadSpec
from repro.workload.application import Oo7Application
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.grammar import GrammarWorkload
from repro.workload.tenants import TenantMix, make_profile, tenant_mix
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


# ----------------------------------------------------------------------
# Grammar and tenant generators, finite and streaming
# ----------------------------------------------------------------------
#
# Recorded at the commit before these generators were rewritten to emit
# through a sink (they yielded event objects then; the digest is of the
# events run through ``compile_trace``).

FOUR_TENANTS = ["oltp-churn", "bulk-load", "read-browse", "hot-key-skew"]

GOLDEN_WORKLOADS = [
    pytest.param(
        lambda: GrammarWorkload(make_profile("oltp-churn"), seed=0),
        2261,
        "af7bed1c68ea224e77f66d927e827e809bf047055bec1ff993a401b262f37279",
        id="grammar-oltp-churn-seed0",
    ),
    pytest.param(
        lambda: GrammarWorkload(make_profile("diurnal"), seed=1),
        5687,
        "7289ea19a5734d21d76e7fee8c3ade143dc95a650327c01c3ee0e4ae4d1ae14a",
        id="grammar-diurnal-seed1",
    ),
    pytest.param(
        lambda: TenantMix(tenant_mix(FOUR_TENANTS, scale=0.5), seed=5),
        7863,
        "8ca8e1d3c97a20e1c95a2bc5d6c376249fb5779eb23ae074d39da5ae958595f5",
        id="four-tenant-mix-seed5",
    ),
]


@pytest.mark.parametrize("build, events, digest", GOLDEN_WORKLOADS)
def test_golden_grammar_trace_through_both_routes(build, events, digest):
    direct = compile_trace(build())
    assert hasattr(build(), "emit_trace")
    assert len(direct) == events
    assert _digest(direct) == digest

    streamed = compile_trace(list(build().events()))
    assert len(streamed) == events
    assert _digest(streamed) == digest

    assert _digest(TraceCache(None).get_or_build(build(), 0)) == digest


GOLDEN_STREAMS = [
    pytest.param(
        lambda cap: grammar_stream(
            make_profile("oltp-churn"), seed=9, max_live_clusters=cap
        ),
        32,
        "272b4dc1cf46036dfd6c3141fd8f9d6989d57aaa14c4470d6727177f13f5e47e",
        id="grammar-stream-cap32",
    ),
    pytest.param(
        lambda cap: grammar_stream(
            make_profile("oltp-churn"), seed=9, max_live_clusters=cap
        ),
        256,
        "4566a90408717cf0d650344c2fca99b8345fd9e3068aa942e3ca8d807e971685",
        id="grammar-stream-cap256",
    ),
    pytest.param(
        lambda cap: tenant_stream(
            tenant_mix(FOUR_TENANTS), seed=5, max_live_clusters=cap
        ),
        32,
        "bc753c422b00716809b73e97a16034b2be3243d14c13d27fdf709e37feabdcbf",
        id="tenant-stream-cap32",
    ),
    pytest.param(
        lambda cap: tenant_stream(
            tenant_mix(FOUR_TENANTS), seed=5, max_live_clusters=cap
        ),
        256,
        "3d4cb6bdf6eba1a863090290f6a22d71afb6ff5638e222b186d2169978a6b5ab",
        id="tenant-stream-cap256",
    ),
]


@pytest.mark.parametrize("build, cap, digest", GOLDEN_STREAMS)
def test_golden_stream_prefix_through_both_routes(build, cap, digest):
    """The first 20 000 events of each service stream, by its event route
    and by its chunk route (chunks decoded, then compiled as one trace: a
    chunk carries its own string table, the digest is of a single one)."""
    by_events = itertools.islice(build(cap).events_from(), 20_000)
    assert _digest(compile_trace(by_events)) == digest

    decoded = []
    for chunk, offset in build(cap).chunks_from(0):
        assert offset == 0
        decoded.extend(chunk.replay())
        if len(decoded) >= 20_000:
            break
    assert _digest(compile_trace(decoded[:20_000])) == digest
