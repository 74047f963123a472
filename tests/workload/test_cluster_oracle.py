"""The synthetic and transactional traces are the oracle's, byte for byte.

:class:`~repro.workload.synthetic.SyntheticWorkload` and
:class:`~repro.workload.transactional.TransactionalWorkload` run on the
grammar interpreter. ``cluster_oracle`` keeps the hand-written loops they
replaced; for generated phase lists (zero weights in any position, trims,
idle ticks, no initial clusters) and transactional specs (abort probability
0, 1 and in between) ``compile_trace`` of the two must save the same bytes.
"""

import io

from cluster_oracle import OracleSynthetic, OracleTransactional
from hypothesis import given, settings, strategies as st

from repro.workload.compiled import compile_trace
from repro.workload.synthetic import SyntheticPhase, SyntheticWorkload
from repro.workload.transactional import TransactionalSpec, TransactionalWorkload


def _bytes(workload) -> bytes:
    buffer = io.BytesIO()
    compile_trace(workload).save(buffer)
    return buffer.getvalue()


#: A weight is often exactly zero, so every padding position is exercised.
_weights = st.one_of(
    st.just(0.0),
    st.just(0),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.01, max_value=10.0),
)

_mixes = st.tuples(_weights, _weights, _weights, _weights, _weights).filter(
    lambda weights: sum(weights) > 0
)


@st.composite
def _phases(draw):
    create, delete, trim, access, idle = draw(_mixes)
    return SyntheticPhase(
        name=draw(st.sampled_from(["a", "b", "grow", "shrink"])),
        operations=draw(st.integers(min_value=0, max_value=80)),
        create_weight=create,
        delete_weight=delete,
        trim_weight=trim,
        access_weight=access,
        idle_weight=idle,
        cluster_size=draw(st.integers(min_value=1, max_value=9)),
        object_size=draw(st.integers(min_value=1, max_value=300)),
        trim_fraction=draw(st.floats(min_value=0.05, max_value=0.95)),
    )


@settings(max_examples=150, deadline=None)
@given(
    phases=st.lists(_phases(), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32),
    initial_clusters=st.integers(min_value=0, max_value=12),
)
def test_synthetic_trace_is_the_oracles(phases, seed, initial_clusters):
    production = SyntheticWorkload(phases, seed, initial_clusters)
    oracle = OracleSynthetic(phases, seed, initial_clusters)
    assert _bytes(production) == _bytes(oracle)
    assert [c.members for c in production.clusters] == [
        c.members for c in oracle.clusters
    ]


_specs = st.builds(
    TransactionalSpec,
    transactions=st.integers(min_value=1, max_value=25),
    ops_per_transaction=st.integers(min_value=1, max_value=5),
    abort_probability=st.one_of(
        st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
    ),
    cluster_size=st.integers(min_value=1, max_value=8),
    object_size=st.integers(min_value=1, max_value=200),
)


@settings(max_examples=150, deadline=None)
@given(
    spec=_specs,
    seed=st.integers(min_value=0, max_value=2**32),
    initial_clusters=st.integers(min_value=0, max_value=10),
)
def test_transactional_trace_is_the_oracles(spec, seed, initial_clusters):
    production = TransactionalWorkload(spec, seed, initial_clusters)
    oracle = OracleTransactional(spec, seed, initial_clusters)
    assert _bytes(production) == _bytes(oracle)
    assert (production.aborted_transactions, production.committed_transactions) == (
        oracle.aborted_transactions,
        oracle.committed_transactions,
    )
