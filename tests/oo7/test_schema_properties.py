"""Property-based tests: OO7 graph invariants under random churn.

Random interleavings of part deletions and insertions must preserve the
structural invariants of the logical graph AND produce event streams whose
death annotations agree with true reachability when applied to a real
store. This is the contract the oracle garbage accounting rests on.
"""

import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oo7.builder import apply_steps
from repro.oo7.config import OO7Config
from repro.oo7.schema import Oo7Graph
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind

SMALL_GRAPH = OO7Config(
    num_atomic_per_comp=5,
    num_conn_per_atomic=2,
    num_comp_per_module=4,
    num_assm_levels=2,
    manual_size=1024,
    document_size=200,
)
STORE_CFG = StoreConfig(page_size=512, partition_pages=4, buffer_pages=4)

#: One churn step. An int deletes (even) or inserts (odd) a single part. A
#: ``(composite, delete fraction)`` pair is that composite's Reorg1 step:
#: delete the fraction, reinsert as many. At 1.0 the composite is churned
#: down to its root part — the degenerate path where neighbour connections
#: die for want of a retarget, and the next insertion repairs the deficit.
_operations = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=1000),
        st.tuples(
            st.integers(min_value=0, max_value=SMALL_GRAPH.num_comp_per_module - 1),
            st.sampled_from([0.5, 0.75, 1.0]),
        ),
    ),
    max_size=40,
)


def _churn(graph: Oo7Graph, operations, rng: random.Random, out):
    """Emit a random churn sequence into ``out``, one step per operation."""
    for op in operations:
        if isinstance(op, tuple):
            index, fraction = op
            composite = graph.composites[index]
            candidates = composite.deletable_parts()
            victims = rng.sample(candidates, int(len(candidates) * fraction))
            for victim in victims:
                graph.emit_delete_part(victim, out)
            # Reinsert one fewer: composites shrink over repeated steps, so
            # some end the run as a lone root still carrying its deficit.
            for _ in victims[1:]:
                graph.emit_insert_part(composite, out)
        else:
            composite = graph.composites[op % len(graph.composites)]
            if op % 2 == 0:
                victims = composite.deletable_parts()
                if victims:
                    graph.emit_delete_part(victims[op % len(victims)], out)
            else:
                graph.emit_insert_part(composite, out)
        yield


def _churned(seed, operations):
    """GenDB, then the churn sequence, applied to a fresh store."""
    rng = random.Random(seed)
    graph = Oo7Graph(SMALL_GRAPH, rng=rng)
    store = ObjectStore(STORE_CFG)
    apply_steps(store, graph.generate_steps)
    apply_steps(store, partial(_churn, graph, operations, rng))
    return graph, store


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), _operations)
def test_death_annotations_always_match_reachability(seed, operations):
    graph, store = _churned(seed, operations)
    assert store.check_death_annotations() == set()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), _operations)
def test_structural_invariants_under_churn(seed, operations):
    graph, store = _churned(seed, operations)

    for composite in graph.composites:
        alive = composite.alive_parts()
        # The root part is immortal.
        assert composite.root_part in alive
        for part in alive:
            if len(alive) >= 2:
                # Deletions retarget and insertions repair, so any composite
                # with at least two alive parts has full out-degree.
                assert len(part.alive_out_conns()) == SMALL_GRAPH.num_conn_per_atomic
            else:
                # A composite churned down to its lone root part may carry a
                # connectivity deficit until the next insertion repairs it.
                assert len(part.alive_out_conns()) <= SMALL_GRAPH.num_conn_per_atomic
            # Connection views are mutually consistent and alive ends only.
            for conn in part.alive_out_conns():
                assert not conn.dst.dead
                assert conn in conn.dst.in_conns
            for conn in part.alive_in_conns():
                assert not conn.src.dead
                assert conn in conn.src.out_conns
        # No alive connection targets or leaves a dead part.
        oids = {p.oid for p in alive}
        for part in alive:
            for conn in part.alive_out_conns():
                assert conn.dst.oid in oids


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), _operations)
def test_store_graph_agreement_under_churn(seed, operations):
    """The store's pointer state mirrors the logical graph exactly."""
    graph, store = _churned(seed, operations)

    for composite in graph.composites:
        composite_obj = store.placements.row(composite.oid)
        for part in composite.alive_parts():
            assert composite_obj.pointers[part.slot] == part.oid
            part_obj = store.placements.row(part.oid)
            for conn in part.alive_out_conns():
                assert part_obj.pointers[conn.slot] == conn.oid
                assert store.placements.row(conn.oid).pointers["to"] == conn.dst.oid
    reachable_connections = sum(
        1
        for oid in store.reachable_from_roots()
        if store.placements.row(oid).kind == ObjectKind.CONNECTION
    )
    assert graph.alive_connection_count() == reachable_connections
