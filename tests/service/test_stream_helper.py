"""The helper interpreter: a stream cut in another process is the stream
cut inline — chunk for chunk, error for error, run for run."""

import dataclasses
import functools
import gc
import os
import pickle
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.drill import state_digest
from repro.faults.injector import SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service import stream as stream_module
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.service.stream import ReplayableStream, grammar_stream, tenant_stream
from repro.sim.spec import PolicySpec, build_policy
from repro.workload import chunks, stream_helper
from repro.workload.compiled import CompiledTrace
from repro.workload.grammar import GrammarError, OpMix, PhaseBlock, Uniform, WorkloadConfig
from repro.workload.tenants import TENANT_PROFILES, make_profile, tenant_mix

pytestmark = pytest.mark.skipif(
    not stream_helper._spare_core(), reason="the helper needs a second CPU"
)


def _rendered(chunk):
    """Everything a chunk carries: its ten columns and its string table."""
    columns = tuple(bytes(getattr(chunk, name)) for name in CompiledTrace._COLUMNS)
    return columns + (tuple(chunk.strings),)


def _take(feed, events):
    """Rendered ``(chunk, offset)`` pairs until ``events`` are covered."""
    taken, covered = [], 0
    while covered < events:
        item = next(feed, None)
        if item is None:
            break
        chunk, offset = item
        taken.append((_rendered(chunk), offset))
        covered += len(chunk) - offset
    return taken


def _inline(call, *args):
    """``call(*args)`` with the helper made ineligible."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stream_helper, "_spare_core", lambda: False)
        return call(*args)


def _pool_is_idle():
    """Every helper of this process is idle, and there is one."""
    mine = [h for h in stream_helper._HELPERS if h.owner == os.getpid()]
    return bool(mine) and all(h.idle for h in mine)


def _mix_stream(seed=4, cap=32):
    return tenant_stream(tenant_mix(["oltp-churn", "read-browse"], scale=0.5), seed, cap)


_phases = st.builds(
    PhaseBlock,
    name=st.sampled_from(["warm", "churn", "scan"]),
    operations=st.integers(5, 80),
    mix=st.builds(
        OpMix,
        create=st.floats(0.5, 5),
        delete=st.floats(0, 3),
        access=st.floats(0, 5),
        pointer_churn=st.floats(0, 3),
        idle=st.floats(0, 1),
    ),
    cluster_size=st.integers(1, 6).map(lambda n: Uniform(1, n)),
    object_size=st.sampled_from([Uniform(16, 256), Uniform(64, 2048)]),
)
_grammar_configs = st.builds(
    WorkloadConfig,
    name=st.just("drawn"),
    phases=st.lists(_phases, min_size=1, max_size=3).map(tuple),
    initial_clusters=st.integers(0, 6),
)
_tenant_configs = st.lists(
    st.sampled_from(sorted(TENANT_PROFILES)), min_size=1, max_size=3, unique=True
).flatmap(lambda names: st.floats(0.2, 1.0).map(lambda scale: tenant_mix(names, scale)))
_streams = st.one_of(
    st.builds(grammar_stream, _grammar_configs, st.integers(0, 99), st.integers(1, 48)),
    st.builds(tenant_stream, _tenant_configs, st.integers(0, 99), st.integers(1, 48)),
)


@settings(max_examples=15, deadline=None)
@given(
    stream=_streams,
    start=st.one_of(st.integers(0, 6000), st.sampled_from([0, 1, 63, 64, 65])),
    length=st.sampled_from([7, 64, 1000, 4096]),
)
def test_helper_chunks_equal_inline_chunks(stream, start, length):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chunks, "CHUNK_EVENTS", length)
        feed = stream.chunks_from(start)
        hosted = _take(feed, 1500)
        feed.close()
        reference = _inline(lambda: _take(stream.chunks_from(start), 1500))
    assert (feed.host, feed.fallbacks) == ("helper", 0)
    assert hosted == reference
    assert hosted[0][1] == start % length  # the resume offset


def test_an_early_close_leaves_the_helper_idle_for_the_next_feed():
    stream = _mix_stream()
    first = stream.chunks_from(0)
    next(first)
    helper = first._helper
    first.close()
    assert _pool_is_idle() and helper.idle

    second = stream.chunks_from(5000)
    assert second._helper is helper  # reused, not restarted
    assert _take(second, 9000) == _inline(lambda: _take(stream.chunks_from(5000), 9000))
    second.close()


def test_a_half_consumed_feed_is_released_when_collected():
    next(_mix_stream().chunks_from(3000))
    gc.collect()
    assert _pool_is_idle()


def test_interleaved_consumers_each_get_their_own_helper():
    streams = [_mix_stream(seed=1), _mix_stream(seed=2, cap=8)]
    feeds = [streams[0].chunks_from(0), streams[1].chunks_from(777)]
    assert feeds[0]._helper is not feeds[1]._helper
    taken = [[], []]
    for _ in range(4):
        for index, feed in enumerate(feeds):
            taken[index] += _take(feed, 1)
    for feed in feeds:
        feed.close()
    assert taken[0] == _inline(lambda: _take(streams[0].chunks_from(0), 4 * 4096))
    assert taken[1] == _inline(lambda: _take(streams[1].chunks_from(777), 4 * 4096 - 777))
    assert _pool_is_idle()


def test_a_finite_stream_ending_naturally_leaves_the_helper_reusable():
    finite = ReplayableStream(
        steps=functools.partial(
            stream_module._grammar_steps, make_profile("oltp-churn", scale=0.05), 3, None
        ),
        label="finite",
    )
    feed = finite.chunks_from(100)
    hosted = _take(feed, 10**9)
    assert feed.host == "helper" and feed._helper is None
    assert hosted == _inline(lambda: _take(finite.chunks_from(100), 10**9))
    assert _pool_is_idle()
    assert _take(_mix_stream().chunks_from(0), 10) == _inline(
        lambda: _take(_mix_stream().chunks_from(0), 10)
    )


# ----------------------------------------------------------------------
# Errors: the same exception after the same chunks
# ----------------------------------------------------------------------


class _TwoPartError(Exception):
    """Pickles, but cannot be unpickled (``__init__`` wants two arguments)."""

    def __init__(self, where, what):
        super().__init__(f"{what} at {where}")


def _failing_steps(fail_at, error, out):
    steps = stream_module._tenant_steps(tenant_mix(["oltp-churn"]), 2, 16, out)
    for emitted, _ in enumerate(steps):
        if emitted == fail_at:
            raise error(fail_at, "generator failed")
        yield


def _outcome(stream, start):
    taken = []
    try:
        for chunk, offset in stream.chunks_from(start):
            taken.append((_rendered(chunk), offset))
    except Exception as error:  # noqa: BLE001 - the error is the result
        return taken, type(error), str(error)
    raise AssertionError("the stream did not fail")


@pytest.mark.parametrize(
    "stream, fallbacks",
    [
        pytest.param(grammar_stream(make_profile("oltp-churn"), 1, 0), 0, id="cap<1"),
        pytest.param(
            ReplayableStream(steps=functools.partial(_failing_steps, 9_500, RuntimeError)),
            0,
            id="mid-stream",
        ),
        pytest.param(
            ReplayableStream(steps=functools.partial(_failing_steps, 9_500, _TwoPartError)),
            1,
            id="untravelled",
        ),
    ],
)
def test_a_failing_generator_fails_the_same_on_both_hosts(stream, fallbacks):
    expected = _inline(_outcome, stream, 1000)
    hosted_feeds = []
    chunks_from = stream.chunks_from

    def recording(start):
        hosted_feeds.append(chunks_from(start))
        return hosted_feeds[-1]

    stream.chunks_from = recording
    try:
        assert _outcome(stream, 1000) == expected
    finally:
        del stream.chunks_from
    assert hosted_feeds[0].host == "helper"
    assert hosted_feeds[0].fallbacks == fallbacks
    assert expected[1] in (GrammarError, RuntimeError, _TwoPartError)
    assert _pool_is_idle()


def test_a_helper_killed_mid_stream_hands_over_inline():
    stream = _mix_stream()
    feed = stream.chunks_from(1234)
    hosted = _take(feed, 8000)
    helper = feed._helper
    helper.process.kill()
    helper.process.wait(timeout=10)
    hosted += _take(feed, 20_000)
    assert feed.fallbacks == 1 and feed._helper is None
    assert helper not in stream_helper._HELPERS
    assert hosted == _inline(lambda: _take(stream.chunks_from(1234), 28_000))


def test_a_forked_child_starts_its_own_helper():
    stream = _mix_stream()
    feed = stream.chunks_from(0)
    first = _take(feed, 1)
    next(_mix_stream(seed=9).chunks_from(0))  # a second helper, left idle
    assert any(helper.idle for helper in stream_helper._HELPERS)
    parents = {helper.process.pid for helper in stream_helper._HELPERS}
    read, write = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        try:
            own = stream.chunks_from(0)
            answer = (own._helper.process.pid, _take(own, 3 * 4096))
            own.close()
            stream_helper._close_helpers()
            os.write(write, pickle.dumps(answer))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        child_helper, child_chunks = pickle.loads(pipe.read())
    os.waitpid(child, 0)
    assert child_helper not in parents
    # The parent's feed went on undisturbed.
    assert first + _take(feed, 2 * 4096) == child_chunks
    feed.close()


def test_no_helper_outlives_the_interpreter(tmp_path):
    script = (
        "from repro.service.stream import tenant_stream\n"
        "from repro.workload.tenants import tenant_mix\n"
        "feed = tenant_stream(tenant_mix(['oltp-churn']), 1, 16).chunks_from(0)\n"
        "next(feed)\n"  # left open mid-stream: the helper is cutting ahead
        "print(feed._helper.process.pid, flush=True)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True,
    )
    helper = int(done.stdout.split()[-1])
    deadline = time.monotonic() + 5.0
    while os.path.exists(f"/proc/{helper}") and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not os.path.exists(f"/proc/{helper}")


# ----------------------------------------------------------------------
# The service on both hosts
# ----------------------------------------------------------------------


def _service(**knobs):
    return GcService(
        policy=build_policy(PolicySpec("saga", {"garbage_fraction": 0.3}), 2),
        stream=tenant_stream(tenant_mix(["oltp-churn", "bulk-load"]), seed=2, max_live_clusters=32),
        service=ServiceConfig(
            **dict(
                dict(
                    max_events=9_000,
                    checkpoint_every_events=2_000,
                    max_heap_bytes=150_000,
                    backpressure="shed",
                ),
                **knobs,
            )
        ),
    )


def _served(service, start_index=0):
    report = dataclasses.asdict(service.run(start_index))
    host = report.pop("stream_host")
    for name in ("wall_s", "stream_wait_s"):
        report.pop(name)
    log = service.sim.redo_log
    return host, (report, list(log.records), state_digest(service.sim.store))


def test_the_service_serves_the_same_run_on_both_hosts():
    host, hosted = _served(_service())
    assert host == "helper" and hosted[0]["stream_fallbacks"] == 0
    assert hosted[0]["backpressure"]["forced_collections"] > 0
    assert _inline(_served, _service()) == ("inline", hosted)


@pytest.mark.parametrize("ending", ["max-events", "shutdown", "crash", "error"])
def test_the_service_closes_its_feed_however_the_run_ends(monkeypatch, ending):
    closed = []
    close = stream_helper.ChunkFeed.close

    def recording(feed):
        closed.append(feed.host)
        close(feed)

    monkeypatch.setattr(stream_helper.ChunkFeed, "close", recording)
    service = _service(max_events=None if ending == "shutdown" else 9_000)
    if ending == "shutdown":
        service.request_shutdown()
    elif ending == "crash":
        plan = FaultPlan(faults=(FaultSpec(site="tx.commit", at=50),), seed=1)
        service = GcService(
            policy=build_policy(PolicySpec("fixed", {"overwrites_per_collection": 50.0}), 2),
            stream=_mix_stream(),
            service=ServiceConfig(max_events=9_000),
            faults=plan,
        )
    elif ending == "error":
        serve = service._serve

        def failing(chunk, offset):
            serve(chunk, offset)
            raise KeyError("served one chunk")

        service._serve = failing
    raises = {"crash": SimulatedCrash, "error": KeyError}.get(ending)
    if raises is None:
        assert service.run().stopped == ending
    else:
        with pytest.raises(raises):
            service.run()
    assert closed[:1] == ["helper"]
    assert _pool_is_idle()
