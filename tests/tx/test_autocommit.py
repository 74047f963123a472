"""``TransactionManager.autocommit`` is ``begin → op → commit`` in one call.

Same fault sites in the same order, same WAL records and force, same redo
records, same store — only the ``Transaction`` object and its undo record
are gone. The guarded column interpreter (under ``Simulation.run`` and
``GcService``) reaches the bracket through this call and nowhere else; the
fused kernels write the same records without any call.
"""

import pytest

from repro.core.fixed import FixedRatePolicy
from repro.events import RootEvent
from repro.faults.injector import FaultInjector, SimulatedCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.simulator import Simulation, SimulationConfig
from repro.storage.heap import ObjectStore, StoreConfig
from repro.storage.object_model import ObjectKind
from repro.tx.manager import TransactionError, TransactionManager
from repro.tx.recovery import RedoLog
from repro.tx.wal import WriteAheadLog
from repro.workload.grammar import GrammarWorkload
from repro.workload.tenants import make_profile

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=2)


class _Recorder:
    """A fault hook that only writes down the sites it is shown."""

    def __init__(self):
        self.sites = []

    def fire(self, site, detail=None):
        self.sites.append(site)

    def fire_io(self, site, category):
        self.sites.append(site)

    def fire_page_write(self, page, category):
        self.sites.append("page.write")


def _manager(wal_page_size=8 * 1024):
    """A store with some history: a rooted registry, three linked objects,
    one of them already dead, enough pages to make the buffer evict."""
    store = ObjectStore(CFG)
    recorder = _Recorder()
    manager = TransactionManager(
        store,
        wal=WriteAheadLog(store.iostats, page_size=wal_page_size),
        redo_log=RedoLog(),
    )
    registry = store.create(size=64, oid=1)
    store.register_root(registry)
    for oid in (2, 3, 4):
        store.create(size=200, oid=oid)
        store.write_pointer(1, f"slot{oid}", oid)
    store.write_pointer(1, "slot4", None, dies=(4,))
    store.attach_fault_injector(recorder)
    manager.fault_hook = recorder.fire
    return manager, recorder


def _state(manager):
    store = manager.store
    return {
        "objects": {
            oid: (obj.size, obj.kind, dict(obj.pointers), obj.dead)
            for oid, obj in store.objects.items()
        },
        "placements": {
            oid: (p.partition, p.offset, p.size) for oid, p in store.placements.items()
        },
        "roots": set(store.roots),
        "unlinked": set(store.unlinked),
        "clocks": (
            store.pointer_overwrites,
            store.pointer_stores,
            store.bytes_allocated_total,
            store.db_size,
        ),
        "garbage": (store.garbage.total_generated, store.garbage.total_collected),
        "io": (store.iostats.application_total, store.iostats.collector_total),
        "buffer": (store.buffer.stats.hits, store.buffer.stats.misses),
        "wal": manager.wal.stats,
        "wal_tail": manager.wal.pending_bytes,
        "redo": list(manager.redo_log.records),
        "tx": (manager.committed, manager.aborted, manager.current, manager._next_txid),
    }


OPERATIONS = [
    pytest.param(
        lambda tx: tx.create(
            size=300, kind=ObjectKind.GENERIC, pointers={"next": 2, "none": None}, oid=9
        ),
        dict(op="create", oid=9, size=300, kind=ObjectKind.GENERIC,
             pointers={"next": 2, "none": None}),
        id="create",
    ),
    pytest.param(
        lambda tx: tx.write_pointer(1, "slot3", None, dies=(3, 4, 77)),
        dict(op="write", oid=1, slot="slot3", target=None, dies=(3, 4, 77)),
        id="write-overwrite-with-deaths",
    ),
    pytest.param(
        lambda tx: tx.write_pointer(2, "fresh", 3),
        dict(op="write", oid=2, slot="fresh", target=3),
        id="write-fresh-slot",
    ),
    pytest.param(lambda tx: tx.update(3), dict(op="update", oid=3), id="update"),
    pytest.param(lambda tx: tx.register_root(2), dict(op="root", oid=2), id="root"),
    pytest.param(
        lambda tx: tx.register_root(1), dict(op="root", oid=1), id="root-already-a-root"
    ),
]


@pytest.mark.parametrize("txid", [-7, 12])
@pytest.mark.parametrize("three_calls, one_call", OPERATIONS)
def test_one_call_equals_begin_op_commit(three_calls, one_call, txid):
    bracketed, bracketed_sites = _manager()
    bracketed.begin(txid)
    three_calls(bracketed)
    bracketed.commit(txid)

    single, single_sites = _manager()
    single.autocommit(txid, **one_call)

    assert single_sites.sites == bracketed_sites.sites
    assert single_sites.sites[0] == "tx.begin"
    assert "tx.commit" in single_sites.sites
    assert _state(single) == _state(bracketed)
    kinds = [record.kind for record in single.redo_log.records]
    assert kinds[0] == "begin" and kinds[-1] == "commit"
    assert all(record.txid == txid for record in single.redo_log.records)


def test_write_logs_only_the_deaths_that_were_fresh():
    manager, _ = _manager()
    manager.autocommit(-1, "write", 1, slot="slot3", target=None, dies=(3, 4, 77))
    (write,) = [r for r in manager.redo_log.records if r.kind == "write"]
    assert write.dies == (3,)  # 4 was dead already, 77 never existed


def test_update_logs_no_redo_record_and_root_only_when_new():
    manager, _ = _manager()
    manager.autocommit(-1, "update", 3)
    manager.autocommit(-2, "root", 1)
    manager.autocommit(-3, "root", 2)
    assert [r.kind for r in manager.redo_log.records] == [
        "begin", "commit", "begin", "commit", "begin", "root", "commit",
    ]
    assert manager.wal.stats.records_by_type == {
        "begin": 3, "update": 1, "root": 2, "commit": 3,
    }
    assert manager.wal.stats.forces == 3


def test_autocommit_refuses_to_nest_and_rejects_unknown_operations():
    manager, recorder = _manager()
    before = _state(manager)
    with pytest.raises(ValueError):
        manager.autocommit(-1, "abort", 1)
    assert _state(manager) == before and recorder.sites == []
    with pytest.raises(TransactionError):
        manager.autocommit(-1, "write", 99, slot="s", target=None)
    manager, recorder = _manager()
    manager.begin(5)
    with pytest.raises(TransactionError, match="nested"):
        manager.autocommit(-1, "update", 3)
    assert recorder.sites == ["tx.begin", "tx.begin"]  # the site fires first
    assert manager.current.txid == 5


@pytest.mark.parametrize("site", ["tx.begin", "tx.commit", "io.write", "io.read"])
@pytest.mark.parametrize("three_calls, one_call", OPERATIONS[:2])
def test_a_crash_leaves_the_same_log_either_way(three_calls, one_call, site):
    """Crash at the first occurrence of each site inside the bracket: the
    durable state (redo log after ``truncate_uncommitted``, WAL counters,
    store) is the same whether the bracket was one call or three."""
    outcomes = []
    for run in ("three", "one"):
        manager, _ = _manager()
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(site=site, at=1),), seed=0))
        manager.store.attach_fault_injector(injector)
        manager.fault_hook = injector.fire
        crashed = False
        try:
            if run == "three":
                manager.begin(-1)
                three_calls(manager)
                manager.commit(-1)
            else:
                manager.autocommit(-1, **one_call)
        except SimulatedCrash:
            crashed = True
        manager.redo_log.truncate_uncommitted()
        state = _state(manager)
        state.pop("tx")  # the three-call form leaves its Transaction open
        outcomes.append((crashed, injector.fired, state))
    assert outcomes[0] == outcomes[1]


def test_replay_reaches_the_bracket_through_autocommit(monkeypatch):
    """With a redo log and no explicit transactions in the trace, replay
    never calls ``begin``/``commit``: on the guarded loop every mutation is
    one ``autocommit`` call, and the fused kernels write the bracket
    themselves — no call, the same records — for every opcode but ROOT,
    which they hand to a guarded step. (The test oracle writes the bracket
    as three calls on purpose; the tests above hold the two forms equal
    operation by operation.)"""
    events = list(GrammarWorkload(make_profile("oltp-churn", scale=0.3), seed=2).events())
    roots = sum(isinstance(e, RootEvent) for e in events)
    calls = []  # the operation of each autocommit call
    real = TransactionManager.autocommit

    def counting(self, txid, op, *args, **kwargs):
        calls.append(op)
        return real(self, txid, op, *args, **kwargs)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("the bracket was written out in three calls")

    monkeypatch.setattr(TransactionManager, "autocommit", counting)
    monkeypatch.setattr(TransactionManager, "begin", forbidden)
    monkeypatch.setattr(TransactionManager, "commit", forbidden)

    def run(replay):
        sim = Simulation(
            policy=FixedRatePolicy(150),
            config=SimulationConfig(
                enable_redo_log=True, enable_wal=True, replay=replay
            ),
        )
        sim.run(events)
        return sim

    guarded = run("scalar")
    commits = sum(1 for r in guarded.redo_log.records if r.kind == "commit")
    assert len(calls) == commits == guarded.tx.committed > 100
    assert calls.count("root") == roots > 0

    del calls[:]
    fused = run("auto")
    assert calls == ["root"] * roots, "the fused kernels called autocommit"
    assert fused.redo_log.records == guarded.redo_log.records
    assert fused.tx.wal.stats == guarded.tx.wal.stats
    assert fused.tx.committed == commits
