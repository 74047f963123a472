"""Trace replay: the two interpreters over compiled columns.

Every run replays a :class:`~repro.workload.compiled.CompiledTrace`
directly from its columnar form — :meth:`repro.sim.simulator.Simulation.run`
compiles anything else it is handed first — so no
:class:`~repro.events.TraceEvent` dataclass is decoded or dispatched per
event. At trace scale (hundreds of thousands of events per policy cell)
that per-event overhead — event allocation, handler dispatch, attribute
traffic on the store/sampler/buffer objects — used to dominate wall time.
``Simulation.run`` picks one of two modes:

* **fast mode** (:func:`_run_fused`, driven by :func:`_replay_fast`) — a
  fused interpreter that hoists every piece of hot mutable state (I/O
  ledgers, buffer LRU, sampler accumulators, garbage totals, the trigger
  clock) into plain locals, applies events one at a time with inlined
  copies of the store's kernels, and only *flushes* the locals back to the
  real objects at **run boundaries**: a GC trigger firing, an event only
  guarded mode applies (a transaction marker, a ROOT — one per trace or
  tenant), a create the caller's heap bound refuses, a deadline check, or
  the end of the range it was given. It says why it stopped and its caller
  handles the boundary — plain replay collects or hands a span to guarded
  mode; the long-running service (:mod:`repro.service.server`) makes its
  checkpoint, stop and admission rules boundaries of the same loop.
  A redo log and a WAL are things the kernels *do*, not things that
  disqualify a run: every mutation outside a transaction is committed as
  the singleton ``TransactionManager.autocommit`` would write — same redo
  records, same WAL counts, same application write ahead of the sample.
  Eligibility is conservative (:func:`_fast_eligible`): any attached hook
  (a fault or write hook, a method shadowed on one instance), fault
  injector or subclassed component routes to guarded mode instead, as
  does ``replay="scalar"``.
  The collection scheduler does not disqualify a run: the kernels keep
  the store's trace epochs in step, and its wake-ups are ordinary run
  boundaries.

* **guarded mode** (:func:`_replay_guarded`) — a per-event loop over the
  same columns that calls the real store/transaction/sampler methods, one
  event at a time: apply, sample, then check the trigger outside
  transactions. It composes with fault injection and opportunistic
  policies, and it is the only loop that applies a transaction
  marker or registers a root. Fast mode drops into it for the span of each
  explicit transaction and for each ROOT; the service, besides, for every
  event its admission control has to look at, hanging its rules on the
  loop's two guard points.

Both modes are **result-identical to each other and to the test
oracle** — the slow-and-obvious event-object loop in
``tests/event_oracle.py``: summaries are pickle-equal and final store
state matches field for field (property-tested in
``tests/sim/test_batch_replay.py``). Bitwise float equality holds because
every floating-point operation of the per-event path — garbage-fraction
divisions and the sampler's sequential ``total +=`` folds — is reproduced
operation for operation.

Error paths: a :class:`~repro.storage.heap.StoreError` raised mid-event
(only malformed traces do this) flushes the mirrored counters before
propagating, so the store is left observationally consistent — and, under
a redo log, the log and the WAL as ``autocommit`` leaves them when its
operation raises: the singleton's ``begin`` appended, nothing forced.
"""

from __future__ import annotations

import sys
import time
from itertools import compress

from repro.core.extensions import OpportunisticPolicy
from repro.core.rate_policy import TimeBase
from repro.sim.metrics import Sampler
from repro.storage.buffer import BufferPool
from repro.storage.heap import _OPEN_LIST_STALE_LIMIT, ObjectStore, StoreError
from repro.storage.iostats import IOCategory, IOStats
from repro.storage.object_model import ObjectKind
from repro.storage.objtable import DENSE_CEILING, ObjectTable
from repro.storage.partition import Partition
from repro.tx.manager import TransactionError, TransactionManager
from repro.tx.recovery import RedoLog
from repro.tx.wal import RECORD_SIZES, WriteAheadLog
from repro.workload.compiled import _NONE, CompiledTrace, CompiledTraceError

_APP = IOCategory.APPLICATION
_BASE_OVERWRITES = TimeBase.OVERWRITES
_BASE_ALLOCATED = TimeBase.ALLOCATED

#: Buffer-pool pop sentinel (hit/miss discrimination without double lookup).
_MISS = object()

#: Deadline checks are amortised over this many events in fast mode; the
#: guarded loop checks once per event.
_DEADLINE_STRIDE = 4096

#: Why :func:`_run_fused` handed control back (see its docstring).
_END, _FIRED, _SPAN, _REFUSED = range(4)

#: WAL record type of the operation in each opcode's singleton transaction
#: — the opcodes the kernels auto-commit under a redo log. (ROOT is
#: auto-committed too, by the guarded step that applies it.)
_SINGLETON_RECORD = {0: "create", 2: "update", 3: "write"}
_SINGLETON_MAX_BYTES = (
    RECORD_SIZES["begin"]
    + max(RECORD_SIZES[name] for name in _SINGLETON_RECORD.values())
    + RECORD_SIZES["commit"]
)


def _timeout():
    # Local import: repro.sim.engine imports the simulator, which imports
    # this module — a module-scope import of the engine would be a cycle.
    from repro.sim.engine import RunTimeoutError

    return RunTimeoutError("simulation run exceeded run_timeout")


def _max_create_oid(ops, arg0: list) -> int:
    """The largest CREATE oid below :data:`DENSE_CEILING`, or 0: ``arg0``
    where the byte column ``ops`` is 0 (the translate maps opcode 0 to 1
    and every other opcode to 0). Larger oids overflow: no rows for them."""
    is_create = bytes(ops).translate(b"\1" + bytes(255))
    top = max(compress(arg0, is_create), default=0)
    if top >= DENSE_CEILING:
        top = max((o for o in compress(arg0, is_create) if o < DENSE_CEILING), default=0)
    return max(0, top)


def _prefix_counts(ops: list, start: int) -> tuple[int, int]:
    """(creates, writes) among ``ops[:start]``: where a resume's cursors start."""
    if start <= 0:
        return 0, 0
    head = ops[:start]
    return head.count(0), head.count(3)


# ----------------------------------------------------------------------
# Batch cache: plain-list column views, memoised per trace
# ----------------------------------------------------------------------


class _BatchCache:
    """Replay-ready views of one compiled trace's columns.

    Columns are ``.tolist()``-ed once: list indexing returns pre-boxed ints,
    which beats per-access boxing out of ``array``/``memoryview`` columns in
    the interpreter loops. Shared across every replay of the trace (the
    trace is immutable), including the decoded :class:`ObjectKind` memo.
    """

    __slots__ = (
        "ops", "arg0", "arg1",
        "create_kind", "create_ptr_start", "ptr_slots", "ptr_targets",
        "write_slot", "write_dies_start", "dies",
        "max_oid", "kinds",
    )


def _ensure_cache(trace: CompiledTrace) -> _BatchCache:
    cache = trace._batch_cache
    if cache is None:
        cache = _BatchCache()
        cache.ops = trace.ops.tolist()
        cache.arg0 = trace.arg0.tolist()
        cache.arg1 = trace.arg1.tolist()
        cache.create_kind = trace.create_kind.tolist()
        cache.create_ptr_start = trace.create_ptr_start.tolist()
        cache.ptr_slots = trace.ptr_slots.tolist()
        cache.ptr_targets = trace.ptr_targets.tolist()
        cache.write_slot = trace.write_slot.tolist()
        cache.write_dies_start = trace.write_dies_start.tolist()
        cache.dies = trace.dies.tolist()
        cache.max_oid = _max_create_oid(trace.ops, cache.arg0)
        cache.kinds = {}
        trace._batch_cache = cache
    return cache


# ----------------------------------------------------------------------
# Mode selection
# ----------------------------------------------------------------------


def _hooked(component) -> bool:
    """Whether an instance attribute hides a method of ``component``'s class
    — a spy or hook hung on one object, which inlined kernels would run
    past without a word. (A wrapper installed on the *class* is different:
    it measures calls, and the calls it does not see were not made.)"""
    cls = type(component)
    return any(callable(getattr(cls, name, None)) for name in vars(component))


def _fast_eligible(sim) -> bool:
    """Whether the fused fast interpreter reproduces this run exactly.

    Fast mode inlines store/buffer/sampler kernels — and, under a redo log,
    the auto-commit bracket with its log and WAL appends — so every
    component it bypasses must be the stock implementation with no hooks
    attached. Anything else — fault injection, opportunistic policies,
    subclassed components, a method shadowed on a component instance
    (:func:`_hooked`), an open transaction — runs guarded.

    A redo log does not disqualify a run. The WAL under it must make a
    singleton's cost a constant, which takes two things: an empty log tail
    (every commit, abort and checkpoint forces it, so only a run that
    failed inside a bracket leaves one) and a log page larger than the
    largest singleton. Each singleton then is three appends, one page and
    one force, whatever came before. Without a redo log a WAL only acts
    inside explicit transactions, which fast mode hands to guarded spans.

    Walks every partition, so callers ask once per run or stream chunk,
    not at every boundary.
    """
    store = sim.store
    buffer = store.buffer
    sampler = sim.sampler
    tx = sim.tx
    log = sim.redo_log
    wal = tx.wal
    return (
        sim.faults is None
        and not isinstance(sim.policy, OpportunisticPolicy)
        and type(store) is ObjectStore
        and type(store.iostats) is IOStats
        and type(buffer) is BufferPool
        and type(store.placements) is ObjectTable
        and type(sampler) is Sampler
        and type(tx) is TransactionManager
        and store.iostats.fault_hook is None
        and buffer.write_hook is None
        and buffer._iostats is store.iostats
        and tx.fault_hook is None
        and not tx.in_transaction
        and (
            log is None
            or type(log) is RedoLog
            and tx.redo_log is log
            and not _hooked(log)
            and (
                wal is None
                or type(wal) is WriteAheadLog
                and wal._iostats is store.iostats
                and wal._tail_bytes == 0
                and wal.page_size > _SINGLETON_MAX_BYTES
                and not _hooked(wal)
            )
        )
        # (The placement table is slotted: an instance cannot carry a hook.)
        and not any(
            _hooked(part) for part in (store, store.iostats, buffer, sampler, tx)
        )
        and all(type(p) is Partition for p in store.partitions)
    )


# ----------------------------------------------------------------------
# Guarded mode: per-event column interpreter over real methods
# ----------------------------------------------------------------------


def _replay_guarded(sim, trace, cache, i, end, ci, wi, deadline,
                    until_tx_close, admit=None, after=None):
    """Apply events ``[i, end)`` via the store's real methods, one event
    at a time.

    ``ci``/``wi`` are the running create/write sub-column cursors (passed
    between fast and guarded spans rather than recomputed). With
    ``until_tx_close`` set, returns behind the first event that leaves no
    transaction open — its guard points run first, like any event's — which
    is how the fused drivers hand over a transaction span or a single
    event. Returns the advanced ``(i, ci, wi)``.

    ``admit`` and ``after`` are the guard points a caller that does more
    than replay (the service) hangs its own rules on. ``admit(op, a, i,
    ci, wi)`` runs before event ``i`` is applied, with the event index
    already advanced and the event marked unapplied; returning False
    skips the event. ``after(applied, quiescent)`` runs once per event,
    skipped ones included, after the trigger check; returning True stops
    the replay after this event.
    """
    ops = cache.ops
    g0 = cache.arg0
    g1 = cache.arg1
    ck = cache.create_kind
    cps = cache.create_ptr_start
    psl = cache.ptr_slots
    ptg = cache.ptr_targets
    wsl = cache.write_slot
    wds = cache.write_dies_start
    dls = cache.dies
    kinds = cache.kinds
    strings = trace.strings
    none = _NONE

    store = sim.store
    iostats = store.iostats
    tx = sim.tx
    sample_event = sim.sampler.on_event
    on_phase = sim.sampler.on_phase
    handle_idle = sim._handle_idle
    clock = sim._clock
    collect = sim._collect
    autocommit = tx.autocommit if sim.redo_log is not None else None
    note_activity = (
        sim.policy.note_activity
        if isinstance(sim.policy, OpportunisticPolicy)
        else None
    )
    monotonic = time.monotonic

    while i < end:
        if deadline is not None and monotonic() >= deadline:
            raise _timeout()
        op = ops[i]
        a = g0[i]
        sim._event_index += 1
        sim._event_applied = False
        applied = admit is None or admit(op, a, i, ci, wi)
        if not applied:
            if op == 0:
                ci += 1
            elif op == 3:
                wi += 1
        elif op < 5:  # database event: create/access/update/write/root
            open_tx = tx.in_transaction  # a database event leaves it as it is
            if open_tx:
                sink = tx
            elif op == 1 or autocommit is None:
                sink = store
            else:
                # With a redo log, a mutation outside a transaction commits
                # as a singleton; negative txids never collide with the
                # trace's own.
                sink = None
                txid = sim._auto_txid
                sim._auto_txid = txid - 1
            if op == 1:
                sink.access(a)
            elif op == 3:
                tgt = g1[i]
                if tgt == none:
                    tgt = None
                slot = strings[wsl[wi]]
                dies = tuple(dls[wds[wi]:wds[wi + 1]])
                wi += 1
                if sink is None:
                    autocommit(txid, "write", a, slot=slot, target=tgt, dies=dies)
                else:
                    sink.write_pointer(a, slot, tgt, dies=dies)
            elif op == 0:
                ki = ck[ci]
                kind = kinds.get(ki)
                if kind is None:
                    kind = kinds.setdefault(ki, ObjectKind(strings[ki]))
                pointers = {}
                for j in range(cps[ci], cps[ci + 1]):
                    t = ptg[j]
                    pointers[strings[psl[j]]] = None if t == none else t
                ci += 1
                if sink is None:
                    autocommit(
                        txid, "create", a, size=g1[i], kind=kind, pointers=pointers
                    )
                else:
                    sink.create(size=g1[i], kind=kind, pointers=pointers, oid=a)
            elif sink is None:
                autocommit(txid, "update" if op == 2 else "root", a)
            elif op == 2:
                sink.update(a)
            else:
                sink.register_root(a)
        elif op == 5:
            on_phase(strings[a])
        elif op == 6:
            sim._event_applied = True
            handle_idle(a)
        elif op == 7:
            tx.begin(a)
            sim._tx_start_index = sim._event_index
        elif op == 8:
            tx.commit(a)
        elif op == 9:
            tx.abort(a)
        else:  # pragma: no cover - compile_trace never emits other ops
            sim._event_index -= 1
            raise CompiledTraceError(f"unknown opcode {op} at event {i}")
        sim._event_applied = True
        i += 1
        if applied and op != 5 and op != 6:
            if note_activity is not None:
                note_activity()
            sample_event(store, iostats)
            quiescent = not (open_tx if op < 5 else tx.in_transaction)
        elif after is None:
            continue  # plain replay: markers and idle ticks check nothing
        else:
            quiescent = not tx.in_transaction
        if quiescent:
            while clock() >= sim._due_at:
                collect()
        if after is not None and after(applied, quiescent):
            return i, ci, wi
        if quiescent and until_tx_close:
            return i, ci, wi
    return i, ci, wi


# ----------------------------------------------------------------------
# Fast mode: fused interpreter over flat heap state
# ----------------------------------------------------------------------


def _run_fused(sim, trace, cache, i, n, ci, wi, deadline, heap_bound=None):
    """The fused interpreter: apply events from ``i`` up to the next run
    boundary, at most to ``n``. See the module docstring for the contract.

    Returns the advanced ``(i, ci, wi)`` and why the run stopped:
    :data:`_FIRED` — the event before ``i`` pushed the trigger clock past
    due, the caller owes the collections; :data:`_SPAN` — event ``i`` is one
    only the guarded loop applies, a transaction marker or a ROOT;
    :data:`_REFUSED` — event ``i`` is a create that would push ``db_size``
    past ``heap_bound``, left untouched for the caller's admission control;
    :data:`_END` — ``i == n``. Where ``n`` lies is the caller's business:
    plain replay passes the end of the trace, the service the nearest of
    its checkpoint, stop and chunk horizons.

    Structure: *reload* every mirrored piece of state into locals; apply
    events; *flush* the locals back on the way out — also past a raise or a
    deadline — so the caller handles the boundary with the real methods
    (``sim._collect``, :func:`_replay_guarded`). An event goes through four
    steps: **resolve** (its opcode's checks, every one ahead of any
    mutation as in the store's method, and the bytes it touches — a create
    is placed here), **touch** (``BufferPool.touch`` over those pages, the
    one copy), **wire** (the graph and log work of WRITE / CREATE / UPDATE)
    and **sample** (``Sampler.on_event``, then the trigger clock). Each
    inlined block names the method it mirrors; DESIGN §3 has the price of
    calling that method instead, and ``tests/sim/test_kernel_mirrors.py``
    fails when one of them changes. No closures: the hot names must stay
    plain locals, not cells.

    With a redo log, WRITE / CREATE / UPDATE end by committing the event as
    the singleton transaction ``TransactionManager.autocommit`` would: one
    log row that reads back as the same ``begin`` / operation / ``commit``
    records under the next negative txid, and the WAL's page write as one
    application write ahead of the sample and the trigger check. What the
    WAL counts is summed up at the flush (:func:`_fold_singletons`).

    The collection scheduler runs from ``sim._collect``, between two
    runs, so it sees what the guarded loop would show it; the kernels bump
    ``epochs`` where the store's mutators do, in the same event.
    Checkpoints too fall between runs: WRITE copies a pointer dict a
    checkpoint shares before writing it, as ``ObjectTable.writable`` does
    (copy-on-write); dies write the store's dead column, which no
    checkpoint shares.
    """
    ops = cache.ops
    g0 = cache.arg0
    g1 = cache.arg1
    ck = cache.create_kind
    cps = cache.create_ptr_start
    psl = cache.ptr_slots
    ptg = cache.ptr_targets
    wsl = cache.write_slot
    wds = cache.write_dies_start
    dls = cache.dies
    kinds = cache.kinds
    strings = trace.strings
    none = _NONE
    miss = _MISS
    monotonic = time.monotonic

    store = sim.store
    sampler = sim.sampler
    iostats = store.iostats
    buffer = store.buffer
    table = store.placements
    garbage = store.garbage

    # Dense object-table columns. reserve() grows them in place (their
    # identity is stable), so pre-sizing for the largest created oid makes
    # every in-range insert a plain indexed store.
    if cache.max_oid >= 0:
        table.reserve(cache.max_oid + 1)
    tparts = table.parts
    toffs = table.offs
    tsizes = table.sizes
    tptrs = table.ptrs
    tkinds = table.kinds
    tdead = table.dead
    tshared = table.shared
    dense = len(tparts)

    partitions = store.partitions
    free = store._partition_free          # mutated in place by the store
    open_parts = store._open_partitions   # prune preserves identity
    fit = store._fit_cursor               # cleared in place, never rebound
    fit_get = fit.get
    unlinked = store.unlinked
    dead_bytes = store.dead_bytes
    epochs = store.trace_epochs           # appended to in place, never rebound

    pages = buffer._pages
    pages_pop = pages.pop
    pop_lru = pages.popitem
    bufcap1 = buffer._capacity - 1
    bstats = buffer.stats
    app_led = iostats._ledgers[_APP]

    page_size = store.config.page_size
    preamble = sampler.preamble_collections
    ga = sampler._garbage_all
    g = sampler._garbage
    stale_limit = _OPEN_LIST_STALE_LIMIT

    # ---- reload: mirror mutable state into locals ----------------
    next_oid = store._next_oid
    alloc_bytes = store._allocated_bytes
    alloc_clock = store.bytes_allocated_total
    po = store.pointer_overwrites
    pend = store.pending_overwrites
    pstores = store.pointer_stores
    nslots = store.slot_count
    tot_gen = garbage.total_generated
    tot_coll = garbage.total_collected  # only _collect changes this
    tcount = 0                          # dense placement-count delta
    hits = bstats.hits
    misses = bstats.misses
    app_r = app_led.reads
    app_w = app_led.writes
    gc_total = iostats.collector_total  # frozen between collections
    remembers = store.remembers_total
    forgets = store.forgets_total
    ev_i = sampler.event_index
    collections = sampler.collections   # frozen between collections
    sig = sampler._significant_started
    ga_count = ga.count
    ga_total = ga.total
    ga_min = ga.minimum
    ga_max = ga.maximum
    g_count = g.count
    g_total = g.total
    g_min = g.minimum
    g_max = g.maximum
    trig_base = sim._trigger.base
    if trig_base is _BASE_OVERWRITES:
        base_kind = 0
    elif trig_base is _BASE_ALLOCATED:
        base_kind = 1
    else:
        base_kind = 2
    due = sim._due_at
    garb = tot_gen - tot_coll
    gf = garb / alloc_bytes if alloc_bytes else 0.0
    npages = len(pages)
    # Most-recently-used page mirror: a touch of the page that is
    # already at the back of the LRU is order-preserving in the guarded
    # path too (pop + reinsert of the back element), so it collapses to
    # a hit count and, at most, a dirty upgrade. Sequential creates and
    # traversals hit this constantly.
    mru_pid = -1
    mru_page = -1
    mru_dirty = False

    # Redo logging: every mutation outside a transaction is a singleton.
    log = sim.redo_log
    logging = log is not None
    if logging:
        singleton = log.append  # one row for the whole bracket
        auto_txid = sim._auto_txid
        wal_write = 0 if sim.tx.wal is None else 1  # the commit's forced page
    bound = sys.maxsize if heap_bound is None else heap_bound

    entry = i
    shift = sim._event_index + 1 - i  # chunk-local index -> absolute index
    stop = _END
    timed_out = False
    budget = _DEADLINE_STRIDE
    raised = True

    try:
        while i < n:
            op = ops[i]
            a = g0[i]
            # ---- resolve: checks, and the bytes the event touches ----
            if 1 <= op <= 3:  # ACCESS / UPDATE / WRITE: an object in place
                # A placed row is an object: the table has one keyset.
                if 0 <= a < dense and (pk := tparts[a]) >= 0:
                    offk = toffs[a]
                    szk = tsizes[a]
                elif (loc := table.locate(a)) is None:
                    # autocommit looks a write's source up itself, under
                    # its own exception type, before the store is asked.
                    unknown = TransactionError if op == 3 and logging else StoreError
                    raise unknown(f"unknown object {a}")
                else:
                    pk, offk, szk = loc
                dirty = op != 1
                if op == 3:  # _validate_target, and the target's partition
                    tgt = g1[i]
                    if tgt == none:
                        tgt = None
                        tp = -1
                    elif 0 <= tgt < dense and (tp := tparts[tgt]) >= 0:
                        pass
                    elif (tp := table.part_of(tgt)) < 0:
                        raise StoreError(f"pointer target {tgt} does not exist")

            elif op == 0:  # CREATE: ObjectStore.create up to its page touch
                szk = g1[i]
                if alloc_bytes + szk > bound:
                    stop = _REFUSED
                    break
                if (tparts[a] if 0 <= a < dense else table.part_of(a)) >= 0:
                    raise StoreError(f"object {a} already exists")
                if a >= next_oid:
                    next_oid = a + 1
                ki = ck[ci]
                kind = kinds.get(ki)
                if kind is None:
                    kind = kinds.setdefault(ki, ObjectKind(strings[ki]))
                if szk <= 0:
                    raise ValueError(f"object size must be positive, got {szk}")
                # ObjectStore._place: open-list first fit from the size's
                # cursor, Partition.bump, the free-byte ledger.
                alloc_bytes += szk
                at = fit_get(szk, 0)
                try:
                    while free[pk := open_parts[at]] < szk:
                        at += 1
                except IndexError:  # nothing fits
                    part = store._grow_partition(szk)
                    pk = part.pid
                else:
                    part = partitions[pk]
                fit[szk] = at
                offk = part.fill
                part.fill = offk + szk
                part.residents.add(a)
                left = free[pk] - szk
                free[pk] = left
                if left <= 0:
                    store._open_stale += 1
                    if store._open_stale >= stale_limit:
                        store._prune_open_partitions()
                alloc_clock += szk
                if 0 <= a < dense:  # ObjectTable.insert
                    tparts[a] = pk
                    toffs[a] = offk
                    tsizes[a] = szk
                    tptrs[a] = optrs = {}
                    tkinds[a] = kind.code
                    tshared[a] = 0
                    tcount += 1
                else:
                    optrs = table.insert(a, pk, offk, szk, kind)
                unlinked.add(a)
                epochs[pk] += 1
                dirty = True

            elif op == 5:  # PHASE — not sampled, no trigger check
                sampler.phase = name = strings[a]
                sampler.phase_boundaries[name] = ev_i
                i += 1
                continue

            elif op == 6:  # IDLE — opportunistic policies run guarded
                i += 1
                continue

            else:  # ROOT, BEGIN/COMMIT/ABORT: the guarded loop's events
                stop = _SPAN
                break

            # ---- touch: BufferPool.touch over pages [first, last] of
            # partition pk, evictions and the I/O ledger included ----
            first = offk // page_size
            last = (offk + szk - 1) // page_size
            while first <= last:
                if pk == mru_pid and first == mru_page:
                    first += 1
                    hits += 1
                    if dirty and not mru_dirty:
                        pages[(pk, mru_page)] = True
                        mru_dirty = True
                    continue
                pg = (pk, first)
                mru_pid = pk
                mru_page = first
                first += 1
                wasd = pages_pop(pg, miss)
                if wasd is not miss:
                    hits += 1
                    mru_dirty = wasd or dirty
                    pages[pg] = mru_dirty
                else:
                    misses += 1
                    while npages > bufcap1:  # BufferPool._evict_to
                        npages -= 1
                        if pop_lru(False)[1]:
                            app_w += 1
                    app_r += 1
                    npages += 1
                    pages[pg] = dirty
                    mru_dirty = dirty

            # ---- wire: the graph and the log ----
            if op == 3:  # ObjectStore.write_pointer behind its page touch
                if 0 <= a < dense:  # ObjectTable.writable
                    wptrs = tptrs[a]
                    if tshared[a]:
                        tptrs[a] = wptrs = wptrs.copy()
                        tshared[a] = 0
                else:
                    wptrs = table.writable(a)
                slot = strings[wsl[wi]]
                old = wptrs.get(slot, miss)
                if old is miss:  # a slot never written
                    nslots += 1
                    old = None
                wptrs[slot] = tgt
                epochs[pk] += 1
                if old is not None:
                    po += 1
                    old_pid = tparts[old] if 0 <= old < dense else table.part_of(old)
                    if old_pid >= 0:
                        partitions[old_pid].pointer_overwrites += 1
                        pend += 1
                        if old_pid != pk:
                            # ObjectStore._forget_edge: Partition.forget,
                            # with the same found/absent branch placements;
                            # the epoch bump is unconditional, as there.
                            epochs[old_pid] += 1
                            inc = partitions[old_pid].incoming
                            srcs = inc.get(old)
                            if srcs is not None:
                                cnt0 = srcs.get(a)
                                if cnt0 is not None:
                                    if cnt0 <= 1:
                                        del srcs[a]
                                        if not srcs:
                                            del inc[old]
                                    else:
                                        srcs[a] = cnt0 - 1
                                    forgets += 1
                else:
                    pstores += 1
                if tgt is not None:
                    if tgt in unlinked:  # ObjectStore._unpin
                        unlinked.discard(tgt)
                        if tp >= 0:
                            epochs[tp] += 1
                    if tp >= 0 and tp != pk:
                        # ObjectStore._remember_edge: Partition.remember.
                        epochs[tp] += 1
                        inc2 = partitions[tp].incoming
                        srcs2 = inc2.get(tgt)
                        if srcs2 is None:
                            inc2[tgt] = {a: 1}
                        else:
                            srcs2[a] = srcs2.get(a, 0) + 1
                        remembers += 1
                lo = wds[wi]
                hi = wds[wi + 1]
                wi += 1
                fresh = ()
                if lo != hi:
                    if logging:
                        # The deaths this write declares, read before it
                        # declares them (a repeated oid stays repeated).
                        fresh = tuple([d for d in dls[lo:hi] if table.alive(d)])
                    while lo < hi:  # ObjectStore._declare_dead
                        victim = dls[lo]
                        lo += 1
                        if 0 <= victim < dense:  # ObjectTable.set_dead
                            vp = tparts[victim]
                            if vp < 0 or tdead[victim]:
                                continue
                            tdead[victim] = 1
                            vsz = tsizes[victim]
                        elif vsz := table.set_dead(victim, True):
                            vp = table.part_of(victim)
                        else:
                            continue
                        tot_gen += vsz
                        garb += vsz
                        dead_bytes[vp] = dead_bytes.get(vp, 0) + vsz
                    gf = garb / alloc_bytes if alloc_bytes else 0.0
                if logging:
                    singleton(
                        ("write", auto_txid, a, None, None, (), slot, tgt, fresh)
                    )
                    auto_txid -= 1
                    app_w += wal_write

            elif op == 0:  # ObjectStore.create behind its page touch
                lo = cps[ci]
                hi = cps[ci + 1]
                ci += 1
                if lo != hi:
                    if hi - lo > 1:
                        # dict(event.pointers) semantics: dedup by slot,
                        # first-occurrence order, last value wins (slot
                        # strings are interned per trace).
                        dedup = {}
                        while lo < hi:
                            dedup[psl[lo]] = ptg[lo]
                            lo += 1
                        pairs = dedup.items()
                    else:
                        pairs = ((psl[lo], ptg[lo]),)
                    for sli, tgt in pairs:
                        if tgt == none:
                            optrs[strings[sli]] = None
                            nslots += 1
                            continue
                        if 0 <= tgt < dense and (tp := tparts[tgt]) >= 0:
                            pass
                        elif (tp := table.part_of(tgt)) < 0:
                            raise StoreError(f"pointer target {tgt} does not exist")
                        optrs[strings[sli]] = tgt
                        nslots += 1
                        if tgt in unlinked:  # ObjectStore._unpin
                            unlinked.discard(tgt)
                            if tp >= 0:
                                epochs[tp] += 1
                        if tp >= 0 and tp != pk:  # ObjectStore._remember_edge
                            epochs[tp] += 1
                            inc2 = partitions[tp].incoming
                            srcs2 = inc2.get(tgt)
                            if srcs2 is None:
                                inc2[tgt] = {a: 1}
                            else:
                                srcs2[a] = srcs2.get(a, 0) + 1
                            remembers += 1
                gf = garb / alloc_bytes if alloc_bytes else 0.0
                if logging:
                    # optrs was filled slot by slot in the order the
                    # event's pointer dict would list them.
                    singleton(
                        ("create", auto_txid, a, szk, kind, tuple(optrs.items()))
                    )
                    auto_txid -= 1
                    app_w += wal_write

            elif op == 2 and logging:
                singleton(("update", auto_txid))
                auto_txid -= 1
                app_w += wal_write

            # ---- sample: Sampler.on_event (two RunningMean.add folds;
            # gf was recomputed exactly when an operand changed:
            # create / write-dies / reload), then the trigger clock ----
            i += 1
            ev_i += 1
            ga_count += 1
            ga_total += gf
            if gf < ga_min:
                ga_min = gf
            if gf > ga_max:
                ga_max = gf
            if not sig and collections >= preamble:
                sig = True
                sampler._app_io_at_significant = app_r + app_w
                sampler._gc_io_at_significant = gc_total
            if sig:
                g_count += 1
                g_total += gf
                if gf < g_min:
                    g_min = gf
                if gf > g_max:
                    g_max = gf
            if base_kind == 0:
                if po >= due:
                    stop = _FIRED
                    break
            elif base_kind == 1:
                if alloc_clock >= due:
                    stop = _FIRED
                    break
            elif app_r + app_w >= due:
                stop = _FIRED
                break
            budget -= 1
            if budget <= 0:
                budget = _DEADLINE_STRIDE
                if deadline is not None and monotonic() >= deadline:
                    timed_out = True
                    break
        raised = False
    finally:
        # ---- flush: write mirrored locals back -------------------
        # Also on the way out of a raise (event i failed part-way), so
        # the store stays observationally consistent: guarded
        # error-state parity.
        store._next_oid = next_oid
        store._allocated_bytes = alloc_bytes
        store.bytes_allocated_total = alloc_clock
        store.pointer_overwrites = po
        store.pending_overwrites = pend
        store.pointer_stores = pstores
        store.slot_count = nslots
        garbage.total_generated = tot_gen
        if tcount:
            table._count += tcount
        bstats.hits = hits
        bstats.misses = misses
        app_led.reads = app_r
        app_led.writes = app_w
        store.remembers_total = remembers
        store.forgets_total = forgets
        sampler.event_index = ev_i
        sampler._significant_started = sig
        ga.count = ga_count
        ga.total = ga_total
        ga.minimum = ga_min
        ga.maximum = ga_max
        g.count = g_count
        g.total = g_total
        g.minimum = g_min
        g.maximum = g_max
        sim._event_index = shift + (i if raised else i - 1)
        sim._event_applied = not raised
        if logging:
            # Event i died inside its singleton: its begin was logged,
            # nothing else of it was (autocommit logs an operation only
            # after the store took it).
            failed = raised and i < n and ops[i] in _SINGLETON_RECORD
            if failed:
                log.begin(auto_txid)
                auto_txid -= 1
            sim._auto_txid = auto_txid
            _fold_singletons(sim.tx, ops[entry:i], failed)

    if timed_out:
        raise _timeout()
    return i, ci, wi, stop


def _fold_singletons(tx, served: list, failed: bool) -> None:
    """Charge the transaction manager and the WAL for the singleton
    transactions a fused run committed — one per mutating opcode in
    ``served``, the run's opcode slice — plus the begin of one that
    ``failed`` in its operation.

    A singleton starts on an empty log tail and is smaller than a log page
    (:func:`_fast_eligible` checks both), so each one is three appends, one
    page written and one force whatever came before it, and the WAL's
    per-record arithmetic folds into sums. ``records_by_type`` is a dict
    whose key order tests and reports read: new keys go in where the first
    singleton of the run would have put them — its begin, its operation,
    its commit, then the other operations by first occurrence.
    """
    counts = {op: served.count(op) for op in _SINGLETON_RECORD if op in served}
    singles = sum(counts.values())
    tx.committed += singles
    wal = tx.wal
    if wal is None or not singles + failed:
        return
    stats = wal.stats
    by_type = stats.records_by_type
    begin = RECORD_SIZES["begin"]
    commit = RECORD_SIZES["commit"]
    by_type["begin"] = by_type.get("begin", 0) + singles + failed
    logged = (begin + commit) * singles + begin * failed
    for position, op in enumerate(sorted(counts, key=served.index)):
        name = _SINGLETON_RECORD[op]
        by_type[name] = by_type.get(name, 0) + counts[op]
        logged += RECORD_SIZES[name] * counts[op]
        if position == 0:
            by_type["commit"] = by_type.get("commit", 0) + singles
    stats.records += 3 * singles + failed
    stats.bytes_logged += logged
    stats.pages_written += singles
    stats.forces += singles
    if failed:
        wal._tail_bytes = begin  # appended, never forced


def _replay_fast(sim, trace, cache, i, n, ci, wi, deadline):
    """Plain replay on the fused interpreter: :func:`_run_fused` to each
    boundary, collections and guarded spans in between, until the trace
    ends."""
    while True:
        i, ci, wi, stop = _run_fused(sim, trace, cache, i, n, ci, wi, deadline)
        if stop == _FIRED:
            while sim._clock() >= sim._due_at:
                sim._collect()
        elif stop == _SPAN:
            i, ci, wi = _replay_guarded(
                sim, trace, cache, i, n, ci, wi, deadline, True
            )
        else:
            return
