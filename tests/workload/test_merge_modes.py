"""The bisect k-way merge is byte-identical to a ``random.choices`` merge.

``TenantMix.steps()`` draws tenants through a cached cumulative-weight
table in O(log k) per step. That is purely an optimisation of the obvious
O(k) ``random.choices`` draw, kept here as the reference: both consume
exactly one ``rng.random()`` per merge step over float-identical
cumulative sums, so the merged traces must be **equal event-for-event** —
including across tenant-exhaustion rebuilds of the draw table.
"""

import itertools
import random
from functools import partial

import pytest

from repro.events import stream_events
from repro.workload.grammar import OpMix, PhaseBlock, WorkloadConfig
from repro.workload.tenants import (
    TenantMix,
    TenantMixConfig,
    TenantSpec,
    _TenantSink,
    tenant_mix,
)


def _config(name, operations, create=2, delete=1, access=3):
    return WorkloadConfig(
        name=name,
        phases=(
            PhaseBlock(
                name="p",
                operations=operations,
                mix=OpMix(create=create, delete=delete, access=access),
            ),
        ),
        initial_clusters=4,
    )


def _uneven_mix():
    """Tenants of very different lengths: forces draw-table rebuilds.

    When the short tenant exhausts mid-merge, the bisect path must rebuild
    its cached cumulative table exactly where ``random.choices`` would
    narrow its population — the divergence-prone case the A/B guards.
    """
    return TenantMixConfig(
        name="uneven",
        tenants=(
            TenantSpec(name="short", config=_config("s", 30), weight=3.0),
            TenantSpec(name="long", config=_config("l", 400), weight=1.0),
            TenantSpec(name="mid", config=_config("m", 120), weight=2.0),
        ),
    )


def _choices_merge(config, seed):
    """The reference merge: one ``random.choices`` draw per step."""
    mix = TenantMix(config, seed=seed)
    tenants = config.tenants
    stride = len(tenants)

    def steps(out):
        sinks = [
            _TenantSink(out, stride, index, tenant.name)
            for index, tenant in enumerate(tenants)
        ]
        streams = [
            workload.steps(sink)
            for workload, sink in zip(mix.tenant_workloads(), sinks)
        ]
        done = object()
        rng = random.Random(seed)
        live = list(range(stride))
        weights = [tenant.weight for tenant in tenants]
        while live:
            pick = rng.choices(range(len(live)), weights=weights)[0]
            index = live[pick]
            while True:
                if next(streams[index], done) is done:
                    del live[pick]
                    del weights[pick]
                    break
                yield
                if not sinks[index].open:
                    break

    return stream_events(steps)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1999])
def test_merge_modes_are_byte_identical(seed):
    merged = list(TenantMix(_uneven_mix(), seed=seed).events())
    assert merged == list(_choices_merge(_uneven_mix(), seed))


@pytest.mark.parametrize("seed", [3, 11])
def test_merge_modes_identical_on_profiles(seed):
    config = tenant_mix(["oltp-churn", "read-browse"], scale=0.2)
    merged = list(TenantMix(config, seed=seed).events())
    assert merged == list(_choices_merge(config, seed))


def test_unbounded_stream_draw_matches_bisect_semantics():
    """The service stream uses the same cached-table draw (no exhaustion)."""
    config = tenant_mix(["oltp-churn", "read-browse"], scale=0.5)

    def prefix():
        mix = TenantMix(config, seed=9)
        stream = stream_events(partial(mix.steps, max_live_clusters=32))
        return list(itertools.islice(stream, 2000))

    first = prefix()
    again = prefix()
    assert first == again
