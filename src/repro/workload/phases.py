"""The four phases of the test application (§3.4, after [YNY94]).

Figure 2: **GenDB → Reorg1 → Traverse → Reorg2**.

* **GenDB** generates the initial database (delegated to
  :meth:`repro.oo7.schema.Oo7Graph.generate`).
* **Reorg1** deletes half the (deletable) atomic parts and reinserts them,
  composite by composite — re-inserted parts of one composite are allocated
  together, preserving clustering.
* **Traverse** is a read-only depth-first traversal over all atomic parts;
  it performs no pointer overwrites, so overwrite-based "time" stands still
  (§4.1.2).
* **Reorg2** again deletes half the atomic parts, but reinserts them
  round-robin *across* composites so that the parts of any one composite
  scatter over many partitions — "breaking any clustering of atomic parts
  for a given composite part".

The paper deviates from [YNY94] in two ways we reproduce: the traversal sits
*between* the reorganisations (to sharpen the phase transition), and Reorg2
deletes half rather than all parts (so both reorganisations do comparable
work).

Each phase is written once, as a ``*_steps`` step generator that emits into
a :class:`~repro.events.TraceSink` and yields where it may be suspended (see
:func:`repro.events.stream_events`); the ``*_phase`` functions stream the
same steps as event objects.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.events import TraceEvent, TraceSink, stream_events
from repro.oo7.schema import AtomicPartNode, CompositeNode, Oo7Graph

#: Canonical phase names, in application order.
PHASE_GENDB = "GenDB"
PHASE_REORG1 = "Reorg1"
PHASE_TRAVERSE = "Traverse"
PHASE_REORG2 = "Reorg2"
PHASE_ORDER = (PHASE_GENDB, PHASE_REORG1, PHASE_TRAVERSE, PHASE_REORG2)


def gen_db_phase(graph: Oo7Graph) -> Iterator[TraceEvent]:
    """Phase 1: generate the initial database."""
    return stream_events(lambda out: gen_db_steps(graph, out))


def gen_db_steps(graph: Oo7Graph, out: TraceSink) -> Iterator[None]:
    out.phase(PHASE_GENDB)
    yield from graph.generate_steps(out)


def _pick_victims(
    composite: CompositeNode, rng: random.Random, fraction: float
) -> list[AtomicPartNode]:
    """A random ``fraction`` of the composite's deletable parts."""
    candidates = composite.deletable_parts()
    count = int(len(candidates) * fraction)
    return rng.sample(candidates, count)


def reorg1_phase(
    graph: Oo7Graph, rng: random.Random, delete_fraction: float = 0.5
) -> Iterator[TraceEvent]:
    """Phase 2: clustered reorganisation.

    For each composite in turn: delete a random half of its deletable parts,
    then immediately reinsert the same number. Because each composite's new
    parts are created consecutively, the heap's sequential placement keeps
    them clustered with each other.
    """
    return stream_events(lambda out: reorg1_steps(graph, rng, delete_fraction, out))


def reorg1_steps(
    graph: Oo7Graph, rng: random.Random, delete_fraction: float, out: TraceSink
) -> Iterator[None]:
    out.phase(PHASE_REORG1)
    for composite in graph.composites:
        victims = _pick_victims(composite, rng, delete_fraction)
        for part in victims:
            graph.emit_delete_part(part, out)
        for _ in victims:
            graph.emit_insert_part(composite, out)
        yield


def traverse_phase(graph: Oo7Graph) -> Iterator[TraceEvent]:
    """Phase 3: read-only depth-first traversal over all atomic parts.

    Walks the assembly hierarchy to each composite, then DFS over the
    connection graph from the composite's root part; parts unreachable
    through connections are visited directly via the composite's references.
    Every alive part and every traversed connection is accessed exactly once
    per composite visit.
    """
    return stream_events(lambda out: traverse_steps(graph, out))


def traverse_steps(graph: Oo7Graph, out: TraceSink) -> Iterator[None]:
    out.phase(PHASE_TRAVERSE)
    visited_composites: set[int] = set()
    for module in graph.modules:
        out.access(module.oid)
        # Walk the module's assembly tree depth-first.
        root = module.root_assembly
        stack = [root] if root is not None else []
        while stack:
            assembly = stack.pop()
            out.access(assembly.oid)
            stack.extend(reversed(assembly.children))
            for composite in assembly.composites:
                # Shared composites are traversed once (first encounter).
                if composite.oid in visited_composites:
                    continue
                visited_composites.add(composite.oid)
                _traverse_composite(composite, out)
                yield


def _traverse_composite(composite: CompositeNode, out: TraceSink) -> None:
    access = out.access
    access(composite.oid)
    root = composite.root_part
    seen = {root.oid}
    stack = [root]
    while stack:
        part = stack.pop()
        access(part.oid)
        for conn in part.out_conns:
            access(conn.oid)
            if conn.dst.oid not in seen:
                seen.add(conn.dst.oid)
                stack.append(conn.dst)
    # Parts not reachable through connections are still held by the composite.
    for part in composite.parts:
        if part.oid not in seen:
            seen.add(part.oid)
            access(part.oid)


def doc_churn_phase(
    graph: Oo7Graph, rng: random.Random, fraction: float = 0.5, name: str = "DocChurn"
) -> Iterator[TraceEvent]:
    """Optional phase: rewrite the documents of a fraction of composites.

    Not part of the paper's four-phase application, but a direct
    realisation of §2.1's observation that "a single overwrite may
    disconnect very large objects from the database, such as OO7 document
    nodes": each replacement is one overwrite that kills ``DocumentSize``
    bytes, an order of magnitude more garbage per overwrite than atomic-part
    deletion. Mixing this phase into a workload stresses the FGS/HB
    estimator with a bimodal garbage-per-overwrite distribution.
    """
    return stream_events(lambda out: doc_churn_steps(graph, rng, fraction, name, out))


def doc_churn_steps(
    graph: Oo7Graph, rng: random.Random, fraction: float, name: str, out: TraceSink
) -> Iterator[None]:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    out.phase(name)
    count = max(1, int(len(graph.composites) * fraction))
    for composite in rng.sample(graph.composites, count):
        graph.emit_replace_document(composite, out)
        yield


def reorg2_phase(
    graph: Oo7Graph, rng: random.Random, delete_fraction: float = 0.5
) -> Iterator[TraceEvent]:
    """Phase 4: de-clustering reorganisation.

    Deletions proceed round-robin across composites (one victim of
    composite 0, one of composite 1, ...), and each deletion is followed by
    one reinsertion into a *different* composite (the round-robin insertion
    cursor runs half the composite list ahead). Work is therefore as steady
    as Reorg1's, but because consecutive insertions always target different
    composites, sequential heap placement scatters each composite's new
    parts across many partitions — "breaking any clustering of atomic parts
    for a given composite part".
    """
    return stream_events(lambda out: reorg2_steps(graph, rng, delete_fraction, out))


def reorg2_steps(
    graph: Oo7Graph, rng: random.Random, delete_fraction: float, out: TraceSink
) -> Iterator[None]:
    out.phase(PHASE_REORG2)
    composites = graph.composites
    victims_by_composite = {
        composite.oid: _pick_victims(composite, rng, delete_fraction)
        for composite in composites
    }
    insert_quota = {
        composite.oid: len(victims_by_composite[composite.oid])
        for composite in composites
    }

    offset = max(1, len(composites) // 2)
    deleted = 0
    inserted = 0
    rounds = max((len(v) for v in victims_by_composite.values()), default=0)
    for round_index in range(rounds):
        for position, composite in enumerate(composites):
            victims = victims_by_composite[composite.oid]
            if round_index < len(victims):
                graph.emit_delete_part(victims[round_index], out)
                deleted += 1
            # Insert into a composite half the ring away, if it still has quota.
            target = composites[(position + offset) % len(composites)]
            if insert_quota[target.oid] > 0 and inserted < deleted:
                insert_quota[target.oid] -= 1
                inserted += 1
                graph.emit_insert_part(target, out)
            yield
    # Flush any remaining insertions (quota not consumed in the main sweep).
    for composite in composites:
        while insert_quota[composite.oid] > 0:
            insert_quota[composite.oid] -= 1
            graph.emit_insert_part(composite, out)
        yield
