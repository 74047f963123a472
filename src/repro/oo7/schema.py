"""Logical OO7 database graph maintained by the workload generator.

The generator keeps its own structural mirror of the database (assembly
hierarchy, composite parts, atomic parts, connections) so it can

* emit well-formed trace events in an order that never leaves a live object
  unreachable for more than a moment (a collection can fire between any two
  events), and
* compute the ``dies`` annotation of every disconnection *constructively* —
  it performs each disconnection deliberately and knows the local structure,
  so no global reachability scan is needed.

Structure (Figure 3): a module roots an assembly tree; base (leaf) assemblies
reference composite parts; each composite part owns a document and
``NumAtomicPerComp`` atomic parts; each atomic part owns
``NumConnPerAtomic`` connection objects pointing at other atomic parts of the
same composite. Connections carry no back-pointer to their source — the
source owns them — so death cascades are acyclic and partitioned collection
can always reclaim them (possibly over several collections, as floating
garbage drains).

Every mutation exists once, as an ``emit_*`` method (or the
``generate_steps`` step generator) writing into a
:class:`~repro.events.TraceSink`; the event-returning public methods run the
same code into an :class:`~repro.events.EventSink`.

Dead nodes leave every list at the moment they die, so ``parts``,
``out_conns`` and ``in_conns`` hold alive nodes only.

All node classes use identity equality (``eq=False``): the graph is cyclic
through back-references and nodes are mutable bookkeeping records, not
values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.events import EventSink, TraceEvent, TraceSink, stream_events
from repro.oo7.config import OO7Config
from repro.storage.object_model import ObjectId, ObjectKind


@dataclass(eq=False)
class ConnectionNode:
    """A connection object: owned by ``src`` (slot ``slot``), targets ``dst``."""

    oid: ObjectId
    src: "AtomicPartNode"
    dst: "AtomicPartNode"
    slot: str
    dead: bool = False


@dataclass(eq=False)
class AtomicPartNode:
    """An atomic part: owned by its composite via slot ``slot``."""

    oid: ObjectId
    composite: "CompositeNode"
    slot: str
    is_root_part: bool = False
    out_conns: list[ConnectionNode] = field(default_factory=list)
    in_conns: list[ConnectionNode] = field(default_factory=list)
    next_conn_slot: int = 0
    dead: bool = False

    def alive_out_conns(self) -> list[ConnectionNode]:
        return list(self.out_conns)

    def alive_in_conns(self) -> list[ConnectionNode]:
        return list(self.in_conns)


@dataclass(eq=False)
class CompositeNode:
    """A composite part: owns a document and a set of atomic parts."""

    oid: ObjectId
    index: int
    doc_oid: ObjectId
    parts: list[AtomicPartNode] = field(default_factory=list)
    free_part_slots: list[str] = field(default_factory=list)
    next_part_slot: int = 0
    root: Optional[AtomicPartNode] = None
    #: Set when a deletion left a part short of ``NumConnPerAtomic``
    #: connections (nothing to retarget to); the next insertion repairs it.
    needs_repair: bool = False

    def alive_parts(self) -> list[AtomicPartNode]:
        return list(self.parts)

    def deletable_parts(self) -> list[AtomicPartNode]:
        """Alive parts that may be deleted (the root part always stays)."""
        return [p for p in self.parts if not p.is_root_part]

    @property
    def root_part(self) -> AtomicPartNode:
        if self.root is None:
            raise RuntimeError(f"composite {self.oid} has no root part")
        return self.root


@dataclass(eq=False)
class AssemblyNode:
    """One node of the assembly hierarchy."""

    oid: ObjectId
    level: int  # 0 = root assembly
    children: list["AssemblyNode"] = field(default_factory=list)
    composites: list[CompositeNode] = field(default_factory=list)


@dataclass(eq=False)
class ModuleNode:
    """One module: a database root with its manual and assembly tree."""

    oid: ObjectId
    manual_oid: ObjectId
    root_assembly: Optional[AssemblyNode] = None
    assemblies: list[AssemblyNode] = field(default_factory=list)
    composites: list[CompositeNode] = field(default_factory=list)

    def base_assemblies(self) -> list[AssemblyNode]:
        """This module's leaf assemblies, in creation order."""
        if not self.assemblies:
            return []
        leaf_level = max(a.level for a in self.assemblies)
        return [a for a in self.assemblies if a.level == leaf_level]


class Oo7Graph:
    """Builds and mutates an OO7 database, emitting trace events.

    Args:
        config: Database parameters.
        rng: Random source for all structural choices (connection targets,
            assembly wiring, part placement in slots). Supplying the RNG lets
            an application share one seed across generation and reorganisation
            phases.
    """

    def __init__(self, config: OO7Config, rng: Optional[random.Random] = None) -> None:
        self.config = config
        self.rng = rng or random.Random(config.seed)
        self._next_oid: ObjectId = 1
        self.modules: list[ModuleNode] = []
        self.assemblies: list[AssemblyNode] = []
        self.composites: list[CompositeNode] = []
        #: Object sizes by oid, for trace statistics and tests.
        self.object_sizes: dict[ObjectId, int] = {}

    # Convenience accessors for the (very common) single-module case.

    @property
    def module_oid(self) -> Optional[ObjectId]:
        return self.modules[0].oid if self.modules else None

    @property
    def manual_oid(self) -> Optional[ObjectId]:
        return self.modules[0].manual_oid if self.modules else None

    @property
    def root_assembly(self) -> Optional[AssemblyNode]:
        return self.modules[0].root_assembly if self.modules else None

    # ------------------------------------------------------------------
    # Identity and bookkeeping helpers
    # ------------------------------------------------------------------

    def _new_oid(self, size: int) -> ObjectId:
        oid = self._next_oid
        self._next_oid += 1
        self.object_sizes[oid] = size
        return oid

    def alive_atomic_parts(self) -> list[AtomicPartNode]:
        """All alive atomic parts, in composite order."""
        parts: list[AtomicPartNode] = []
        for composite in self.composites:
            parts.extend(composite.parts)
        return parts

    def alive_connection_count(self) -> int:
        return sum(
            len(part.out_conns)
            for composite in self.composites
            for part in composite.parts
        )

    # ------------------------------------------------------------------
    # GenDB: initial database generation
    # ------------------------------------------------------------------

    def generate(self) -> Iterator[TraceEvent]:
        """Emit the GenDB event stream, building the logical graph as it goes.

        Ordering is chosen so every created object is referenced from the
        rooted graph within at most two subsequent events (the simulator's
        allocation pinning covers the gap); a collection may therefore fire
        at any point during generation without reclaiming live data.
        """
        return stream_events(self.generate_steps)

    def generate_steps(self, out: TraceSink) -> Iterator[None]:
        """GenDB into ``out``, one step per composite part."""
        for _module_index in range(self.config.num_modules):
            yield from self._generate_module(out)

    def _generate_module(self, out: TraceSink) -> Iterator[None]:
        cfg = self.config
        # Module (a database root) and its manual.
        module = ModuleNode(
            oid=self._new_oid(cfg.module_size),
            manual_oid=0,  # assigned below
        )
        self.modules.append(module)
        out.create(module.oid, cfg.module_size, ObjectKind.MODULE)
        out.root(module.oid)
        module.manual_oid = self._new_oid(cfg.manual_size)
        out.create(module.manual_oid, cfg.manual_size, ObjectKind.MANUAL)
        out.write(module.oid, "manual", module.manual_oid)

        self._generate_assembly_tree(module, out)
        yield from self._generate_composites(module, out)
        self._wire_extra_assembly_slots(module, out)

    def _generate_assembly_tree(self, module: ModuleNode, out: TraceSink) -> None:
        cfg = self.config
        root = AssemblyNode(oid=self._new_oid(cfg.assembly_size), level=0)
        module.root_assembly = root
        module.assemblies.append(root)
        self.assemblies.append(root)
        out.create(root.oid, cfg.assembly_size, ObjectKind.ASSEMBLY)
        out.write(module.oid, "assembly", root.oid)

        frontier = [root]
        for level in range(1, cfg.num_assm_levels):
            next_frontier: list[AssemblyNode] = []
            for parent in frontier:
                for child_index in range(cfg.num_assm_per_assm):
                    child = AssemblyNode(
                        oid=self._new_oid(cfg.assembly_size), level=level
                    )
                    parent.children.append(child)
                    module.assemblies.append(child)
                    self.assemblies.append(child)
                    next_frontier.append(child)
                    out.create(child.oid, cfg.assembly_size, ObjectKind.ASSEMBLY)
                    out.write(parent.oid, f"sub{child_index}", child.oid)
            frontier = next_frontier

    def base_assemblies(self) -> list[AssemblyNode]:
        """Leaf assemblies across all modules, in creation order."""
        leaf_level = self.config.num_assm_levels - 1
        return [a for a in self.assemblies if a.level == leaf_level]

    def _generate_composites(
        self, module: ModuleNode, out: TraceSink
    ) -> Iterator[None]:
        """Create a module's composites, linking each into one of the
        module's base assemblies immediately.

        Every composite gets a guaranteed "primary" base-assembly slot (dealt
        round-robin) so none is accidentally unreachable; remaining slots are
        wired randomly afterwards in :meth:`_wire_extra_assembly_slots`.
        """
        cfg = self.config
        bases = module.base_assemblies()
        for index in range(cfg.num_comp_per_module):
            base = bases[index % len(bases)]
            slot = f"comp{len(base.composites)}"

            doc_oid = self._new_oid(cfg.document_size)
            out.create(doc_oid, cfg.document_size, ObjectKind.DOCUMENT)
            composite = CompositeNode(
                oid=self._new_oid(cfg.composite_part_size), index=index, doc_oid=doc_oid
            )
            module.composites.append(composite)
            self.composites.append(composite)
            out.create(
                composite.oid,
                cfg.composite_part_size,
                ObjectKind.COMPOSITE_PART,
                (("doc", doc_oid),),
            )
            out.write(base.oid, slot, composite.oid)
            base.composites.append(composite)

            self._generate_atomic_parts(composite, out)
            yield

    def _generate_atomic_parts(self, composite: CompositeNode, out: TraceSink) -> None:
        cfg = self.config
        # First all parts (so connection targets exist), then the connections.
        for part_index in range(cfg.num_atomic_per_comp):
            self._emit_part(composite, out, is_root=(part_index == 0))
        parts = composite.parts
        for position, part in enumerate(parts):
            # One ring connection keeps the conn-graph connected for DFS...
            self._emit_connection(part, parts[(position + 1) % len(parts)], out)
            # ...plus random same-composite targets for the rest.
            for _ in range(cfg.num_conn_per_atomic - 1):
                self._emit_connection(part, self._random_conn_target(part, parts), out)

    def _random_conn_target(
        self, part: AtomicPartNode, candidates: list[AtomicPartNode]
    ) -> AtomicPartNode:
        """A random connection target in the same composite, never ``part``."""
        while True:
            target = self.rng.choice(candidates)
            if target is not part:
                return target

    def _wire_extra_assembly_slots(self, module: ModuleNode, out: TraceSink) -> None:
        """Fill a module's remaining base-assembly slots with its own
        composites, chosen at random."""
        cfg = self.config
        for base in module.base_assemblies():
            while len(base.composites) < cfg.num_comp_per_assm:
                composite = self.rng.choice(module.composites)
                out.write(base.oid, f"comp{len(base.composites)}", composite.oid)
                base.composites.append(composite)

    # ------------------------------------------------------------------
    # Part creation (shared by GenDB and the reorganisation phases)
    # ------------------------------------------------------------------

    def _emit_part(
        self, composite: CompositeNode, out: TraceSink, is_root: bool = False
    ) -> AtomicPartNode:
        if composite.free_part_slots:
            slot = composite.free_part_slots.pop()
        else:
            slot = f"part{composite.next_part_slot}"
            composite.next_part_slot += 1
        size = self.config.atomic_part_size
        part = AtomicPartNode(self._new_oid(size), composite, slot, is_root)
        composite.parts.append(part)
        if is_root:
            composite.root = part
        out.create(part.oid, size, ObjectKind.ATOMIC_PART, (("partOf", composite.oid),))
        out.write(composite.oid, slot, part.oid)
        return part

    def _emit_connection(
        self, src: AtomicPartNode, dst: AtomicPartNode, out: TraceSink
    ) -> None:
        size = self.config.connection_size
        slot = f"conn{src.next_conn_slot}"
        src.next_conn_slot += 1
        conn = ConnectionNode(self._new_oid(size), src, dst, slot)
        src.out_conns.append(conn)
        dst.in_conns.append(conn)
        out.create(conn.oid, size, ObjectKind.CONNECTION, (("to", dst.oid),))
        out.write(src.oid, slot, conn.oid)

    def insert_part(
        self, composite: CompositeNode
    ) -> tuple[AtomicPartNode, list[TraceEvent]]:
        """:meth:`emit_insert_part`, returning the events it emits."""
        sink = EventSink()
        return self.emit_insert_part(composite, sink), sink.events

    def emit_insert_part(
        self, composite: CompositeNode, out: TraceSink
    ) -> AtomicPartNode:
        """Insert one new atomic part with fresh connections into ``composite``.

        Connection targets are random alive parts of the composite, so later
        insertions may target earlier ones (keeping in-degrees balanced over
        time, as in the OO7 structural-modification operation).

        Insertion also repairs connectivity deficits: a part whose
        connections all died because the composite was churned down to a
        single part (deletion had nothing left to retarget to) gets fresh
        connections once targets exist again.
        """
        candidates = list(composite.parts)
        part = self._emit_part(composite, out)
        for _ in range(self.config.num_conn_per_atomic):
            self._emit_connection(part, self._random_conn_target(part, candidates), out)

        if composite.needs_repair:
            composite.needs_repair = False
            for deficient in candidates:
                repair_targets = [p for p in composite.parts if p is not deficient]
                while len(deficient.out_conns) < self.config.num_conn_per_atomic:
                    target = self._random_conn_target(deficient, repair_targets)
                    self._emit_connection(deficient, target, out)
        return part

    # ------------------------------------------------------------------
    # Document replacement
    # ------------------------------------------------------------------

    def replace_document(self, composite: CompositeNode) -> list[TraceEvent]:
        """:meth:`emit_replace_document`, returning the events it emits."""
        sink = EventSink()
        self.emit_replace_document(composite, sink)
        return sink.events

    def emit_replace_document(self, composite: CompositeNode, out: TraceSink) -> None:
        """Replace a composite's document with a freshly written one.

        This is §2.1's "a single overwrite may disconnect very large objects
        from the database, such as OO7 document nodes" made concrete: one
        pointer overwrite kills ``DocumentSize`` bytes at a stroke, giving
        the workload a second, much larger garbage-per-overwrite mode than
        atomic-part deletion.
        """
        old_doc = composite.doc_oid
        new_doc = self._new_oid(self.config.document_size)
        composite.doc_oid = new_doc
        out.create(new_doc, self.config.document_size, ObjectKind.DOCUMENT)
        out.write(composite.oid, "doc", new_doc, (old_doc,))

    # ------------------------------------------------------------------
    # Part deletion
    # ------------------------------------------------------------------

    def delete_part(self, part: AtomicPartNode) -> list[TraceEvent]:
        """:meth:`emit_delete_part`, returning the events it emits."""
        sink = EventSink()
        self.emit_delete_part(part, sink)
        return sink.events

    def emit_delete_part(self, part: AtomicPartNode, out: TraceSink) -> None:
        """Delete an atomic part, emitting the disconnection events.

        The deletion first *retargets* every incoming connection: the
        neighbour's connection object survives, but its ``to`` pointer is
        overwritten to another alive part of the composite. Each retargeting
        is one pointer overwrite recorded against the dying part's partition
        — exactly where the garbage is about to appear — and keeps per-part
        out-degree at ``NumConnPerAtomic``, so the database's connection
        population is stationary across repeated reorganisations. Finally
        the composite's slot is cleared — the overwrite that kills the part
        itself together with its outgoing connections (they are reachable
        only through the part). This is how "overwriting the final pointer
        to an object or group of objects actually does create garbage" (§2).
        """
        if part.dead:
            raise ValueError(f"part {part.oid} is already dead")
        if part.is_root_part:
            raise ValueError(
                f"part {part.oid} is a composite root part and cannot be deleted"
            )

        composite = part.composite
        composite.parts.remove(part)
        survivors = composite.parts
        # A retarget picks among the survivors other than the connection's
        # own source: draw an index into that list without building it.
        choices = range(len(survivors) - 1)
        in_conns = part.in_conns
        part.in_conns = []
        for conn in in_conns:
            source = conn.src
            if choices:
                index = self.rng.choice(choices)
                if index >= survivors.index(source):
                    index += 1
                target = survivors[index]
                conn.dst = target
                target.in_conns.append(conn)
                out.write(conn.oid, "to", target.oid)
            else:
                # Degenerate composite: nothing left to point at — the
                # neighbour's connection dies with its target.
                conn.dead = True
                source.out_conns.remove(conn)
                composite.needs_repair = True
                out.write(source.oid, conn.slot, None, (conn.oid,))

        dies = [part.oid]
        for conn in part.out_conns:
            conn.dead = True
            conn.dst.in_conns.remove(conn)
            dies.append(conn.oid)
        part.out_conns = []

        out.write(composite.oid, part.slot, None, tuple(dies))
        part.dead = True
        composite.free_part_slots.append(part.slot)
