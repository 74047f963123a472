"""Property: a checkpoint never changes after it is taken.

``build_checkpoint`` keeps a copy of the store's object table columns and
shares the pointer dicts in it with the store, which copies a dict before
it writes it (copy-on-write); dead flags are copied by value. Here one service run takes a checkpoint every few
events while its stream mutates the store through every route: the fused
WRITE / dies kernels (``replay="auto"``), the guarded ``write_pointer``
(``replay="scalar"``), transaction aborts (undo, resurrect, expunge) and
collections. What each checkpoint held is written down eagerly when it is
taken, with the row-shaped builder of ``test_checkpoint_properties.py``.
Only after the run is every snapshot turned into columns — superseded ones
included — and each must equal its eager record; ``recover()`` from it must
rebuild the store as it was at that moment.
"""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import (
    AbortTransactionEvent,
    AccessEvent,
    BeginTransactionEvent,
    CommitTransactionEvent,
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
    UpdateEvent,
)
from repro.faults.drill import state_digest
from repro.service import server as server_module
from repro.service.config import ServiceConfig
from repro.service.server import GcService
from repro.sim.simulator import SimulationConfig
from repro.sim.spec import PolicySpec, build_policy
from repro.storage.heap import StoreConfig
from repro.storage.validation import validate_store
from repro.tx.recovery import RedoLog, recover

from streams import finite_stream
from test_checkpoint_properties import _full_view, _row_checkpoint

STORE = StoreConfig(page_size=256, partition_pages=4, buffer_pages=4)
SIZES = (24, 64, 120, 300)


@st.composite
def _programs(draw):
    """Chains hung on a root's slots, bare or inside a transaction that
    commits or aborts. Replacing or cutting a chain declares it dead;
    relinking a head overwrites without a death; a null into a fresh slot of
    an old head writes a pre-existing object; reads and updates between."""
    events = [CreateEvent(1, 64), RootEvent(1)]
    chains = {}  # slot -> the oids of the chain it holds, head last
    oid = 2
    txid = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        step = draw(st.sampled_from(["link", "tx", "cut", "relink", "null", "touch"]))
        if step in ("link", "tx"):
            slot = f"s{draw(st.integers(min_value=0, max_value=4))}"
            members = []
            block = []
            for size in draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=3)):
                pointers = (("next", members[-1]),) if members else (("next", None),)
                block.append(CreateEvent(oid, size, pointers=pointers))
                members.append(oid)
                oid += 1
            block.append(PointerWriteEvent(1, slot, oid - 1, dies=chains.get(slot, ())))
            commit = step == "link" or draw(st.booleans())
            if step == "tx":
                txid += 1
                end = CommitTransactionEvent if commit else AbortTransactionEvent
                block = [BeginTransactionEvent(txid), *block, end(txid)]
            events.extend(block)
            if commit:
                chains[slot] = tuple(members)
        elif not chains:
            continue
        else:
            slot = draw(st.sampled_from(sorted(chains)))
            head = chains[slot][-1]
            if step == "cut":
                events.append(PointerWriteEvent(1, slot, None, dies=chains.pop(slot)))
            elif step == "relink":
                events.append(PointerWriteEvent(1, slot, head))
            elif step == "null":
                aux = f"aux{draw(st.integers(min_value=0, max_value=2))}"
                events.append(PointerWriteEvent(head, aux, None))
            else:
                event = draw(st.sampled_from([AccessEvent, UpdateEvent]))
                events.append(event(draw(st.sampled_from(chains[slot]))))
    return events


@contextlib.contextmanager
def _recording():
    """Write down, at every checkpoint, the snapshot and — eagerly — what
    the store held at that moment."""
    taken = []
    build_checkpoint = server_module.build_checkpoint

    def recording(store, event_index):
        snapshot = build_checkpoint(store, event_index)
        taken.append(
            (snapshot, _row_checkpoint(store), _full_view(store), state_digest(store))
        )
        return snapshot

    server_module.build_checkpoint = recording
    try:
        yield taken
    finally:
        server_module.build_checkpoint = build_checkpoint


def _serve(events, every, replay):
    service = GcService(
        policy=build_policy(PolicySpec("fixed", {"overwrites_per_collection": 3.0}), 0),
        stream=finite_stream(events),
        sim_config=SimulationConfig(store=STORE, preamble_collections=0, replay=replay),
        service=ServiceConfig(checkpoint_every_events=every),
    )
    with _recording() as taken:
        report = service.run()
    validate_store(service.sim.store)
    return service, report, taken


def _assert_each_snapshot_is_its_moment(taken):
    for snapshot, (objects, pointers), view, digest in taken:
        columns = snapshot.columns
        assert tuple(zip(columns.oids, columns.sizes, columns.kinds, columns.dead)) == objects
        pointer_columns = (columns.pointer_srcs, columns.pointer_slots, columns.pointer_targets)
        assert tuple(zip(*pointer_columns)) == pointers
        assert snapshot.pointer_count == len(pointers)
        log = RedoLog()
        log.install_checkpoint(snapshot)
        recovered = recover(log, store_config=STORE)
        assert _full_view(recovered) == view
        assert state_digest(recovered) == digest


@given(
    events=_programs(),
    every=st.integers(min_value=2, max_value=12),
    replay=st.sampled_from(["auto", "scalar"]),
)
@settings(max_examples=60, deadline=None)
def test_every_checkpoint_is_the_store_at_its_moment(events, every, replay):
    _, _, taken = _serve(events, every, replay)
    _assert_each_snapshot_is_its_moment(taken)


def test_superseded_snapshots_hold_objects_the_store_has_since_copied():
    """A fixed program in which every mechanism fires: the snapshots that
    later checkpoints superseded hold pointer dicts the store replaced with
    private copies, and they still read as their own moment."""
    events = [CreateEvent(1, 64), RootEvent(1)]
    oid = 2
    for round_ in range(30):
        head = oid
        events += [CreateEvent(oid, 120, pointers=(("next", None),)), CreateEvent(oid + 1, 64)]
        events += [PointerWriteEvent(oid, "next", oid + 1), PointerWriteEvent(1, "s", head)]
        oid += 2
        events += [
            BeginTransactionEvent(round_ + 1),
            PointerWriteEvent(1, "s", None, dies=(head, head + 1)),
            AbortTransactionEvent(round_ + 1),
            PointerWriteEvent(head, "aux", None),
            PointerWriteEvent(1, f"keep{round_ % 3}", head),
        ]
    for replay in ("auto", "scalar"):
        service, report, taken = _serve(events, 7, replay)
        assert report.checkpoints == len(taken) > 10
        assert report.collections > 0
        assert service.sim.tx.aborted == 30
        if replay == "auto":
            assert report.events_fused > 0
        table = service.sim.store.placements
        copied = sum(
            1
            for snapshot, *_ in taken[:-1]
            for key, *_, held in snapshot.table.rows()
            if key in table and table.pointers(key) is not held
        )
        assert copied > 0, "no pointer dict a snapshot holds was ever written again"
        _assert_each_snapshot_is_its_moment(taken)
