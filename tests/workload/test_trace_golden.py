"""Golden traces: every generator's output is pinned byte for byte.

Trace fingerprints, result-cache fingerprints and the CI
``--expect-all-cached`` jobs all assume that a given (config, seed) always
generates the same trace. Each digest below is the SHA-256 of
``CompiledTrace.save`` bytes, recorded before the generator was rewritten to
emit through a sink, and must hold through both routes into
``compile_trace``: the workload's ``steps`` and its event stream.
The grammar and tenant generators, the synthetic, preset and transactional
generators, and the unbounded streams the service reads, are pinned the
same way further down.
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from repro.oo7.config import SMALL_PRIME, TINY
from repro.service.stream import grammar_stream, tenant_stream
from repro.sim.spec import WorkloadSpec, register_workload
from repro.workload.application import Oo7Application
from repro.workload.compiled import CompiledTrace, compile_trace
from repro.workload.grammar import GrammarWorkload
from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload
from repro.workload.tenants import TenantMix, make_profile, tenant_mix
from repro.workload.trace_cache import TraceCache
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload

from presets import PresetWorkload, build_preset

register_workload("preset", build_preset)

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
    hand ``compile_trace`` something with a step form."""
    digest = GOLDEN[0].values[-1]
    by_spec = TraceCache(None).get_or_build(WorkloadSpec("oo7", {"config": TINY}), 0)
    assert _digest(by_spec) == digest
    by_instance = TraceCache(None).get_or_build(Oo7Application(TINY, seed=0), 0)
    assert _digest(by_instance) == digest
    # A miss resolved for a run streams; what it commits is the same trace.
    streamed = TraceCache(None).resolve(WorkloadSpec("oo7", {"config": TINY}), 0)
    with contextlib.closing(streamed):
        assert sum(len(chunk) for chunk, _ in streamed) == GOLDEN[0].values[3]
    assert _digest(streamed.commit()) == digest


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
    assert callable(build().steps)
    assert len(direct) == events
    assert _digest(direct) == digest

    streamed = compile_trace(list(build().events()))
    assert len(streamed) == events
    assert _digest(streamed) == digest

    assert _digest(TraceCache(None).get_or_build(build(), 0)) == digest


# ----------------------------------------------------------------------
# Synthetic, preset and transactional generators
# ----------------------------------------------------------------------
#
# Recorded at the commit before these generators were rewritten to emit
# through a sink (they yielded event objects then).

#: ``gc_churn``'s phase shape at a small scale.
CHURN = SyntheticPhase(
    name="churn",
    operations=3_000,
    create_weight=1.0,
    delete_weight=1.0,
    access_weight=2.0,
    cluster_size=4,
    object_size=128,
)
#: Every synthetic operation, trims and idle ticks included, over two phases.
MIXED = [
    SyntheticPhase(
        name="grow",
        operations=400,
        create_weight=2.0,
        delete_weight=0.5,
        trim_weight=1.0,
        access_weight=1.0,
        idle_weight=0.5,
        cluster_size=6,
        object_size=96,
        trim_fraction=0.3,
    ),
    SyntheticPhase(
        name="shrink",
        operations=400,
        create_weight=0.5,
        delete_weight=2.0,
        trim_weight=1.0,
        access_weight=1.0,
        idle_weight=1.0,
        cluster_size=3,
        object_size=200,
    ),
]
#: 80 transactions, 25 of which abort at seed 3.
ABORTING = TransactionalSpec(transactions=80, abort_probability=0.3)

GOLDEN_CLUSTER_WORKLOADS = [
    pytest.param(
        lambda: SyntheticWorkload([CHURN], seed=5, initial_clusters=600),
        None,
        13_568,
        "e0b656aa7a03673df2682c2cf5598688b3d79c7f967e44956181c131261fac4b",
        id="synthetic-churn-seed5",
    ),
    pytest.param(
        lambda: SyntheticWorkload(MIXED, seed=2, initial_clusters=10),
        None,
        2392,
        "a5e9077feb5a834111bd954a9a838cbbace28eccc54958fa3fe3eb313fcd5cbe",
        id="synthetic-mixed-seed2",
    ),
    pytest.param(
        lambda: PresetWorkload("daily-cycle", scale=0.2, seed=1),
        WorkloadSpec("preset", {"name": "daily-cycle", "scale": 0.2}),
        5192,
        "72d1483114702508850b9eb321eceae68144e6df5f43f686ff0256b542683856",
        id="preset-daily-cycle-seed1",
    ),
    pytest.param(
        lambda: TransactionalWorkload(ABORTING, seed=3, initial_clusters=12),
        WorkloadSpec("transactional", {"spec": ABORTING, "initial_clusters": 12}),
        1438,
        "2a1652af303069bf08273d885dfb51fa5b48bfc9c165db107ba83713085b962d",
        id="transactional-aborts-seed3",
    ),
]


@pytest.mark.parametrize("build, spec, events, digest", GOLDEN_CLUSTER_WORKLOADS)
def test_golden_cluster_trace_through_both_routes(build, spec, events, digest):
    direct = compile_trace(build())
    assert len(direct) == events
    assert _digest(direct) == digest

    streamed = compile_trace(list(build().events()))
    assert len(streamed) == events
    assert _digest(streamed) == digest

    assert _digest(TraceCache(None).get_or_build(build(), 0)) == digest
    if spec is not None:
        seed = build().seed
        assert _digest(TraceCache(None).get_or_build(spec, seed)) == digest


def test_golden_transactional_trace_aborts():
    workload = TransactionalWorkload(ABORTING, seed=3, initial_clusters=12)
    compile_trace(workload)
    assert (workload.aborted_transactions, workload.committed_transactions) == (25, 55)


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
