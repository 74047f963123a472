"""RedoLog knows where its last checkpoint record is without scanning.

The service reads ``suffix_length`` after every quiescent event when
``max_log_records`` is set; a backwards scan to the checkpoint record made
that quadratic in the checkpoint interval. These tests count work, they do
not time it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.heap import ObjectStore, StoreConfig
from repro.tx.recovery import RedoLog, build_checkpoint, recover_with_info

CFG = StoreConfig(page_size=256, partition_pages=4, buffer_pages=8)


def _snapshot(event_index):
    return build_checkpoint(ObjectStore(CFG), event_index)


def _naive(log):
    """(suffix length, last snapshot) by the backwards scan."""
    for index in range(len(log.records) - 1, -1, -1):
        if log.records[index].kind == "checkpoint":
            return len(log.records) - index - 1, log.records[index].checkpoint
    return len(log.records), None


def _assert_agrees(log):
    suffix, snapshot = _naive(log)
    assert log.suffix_length == suffix
    assert log.last_checkpoint() is snapshot
    _store, info = recover_with_info(log, store_config=CFG)
    assert info.records_replayed == suffix
    assert info.from_checkpoint == (snapshot is not None)


_step = st.sampled_from(
    ["commit", "abort", "checkpoint", "crash", "truncate", "reopen"]
)


@given(steps=st.lists(_step, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_suffix_tracking_agrees_with_a_backwards_scan(steps):
    """Appends, checkpoints, truncations and crash/resume cycles on one log.

    ``crash`` leaves a transaction in flight and resumes the way the soak
    harness does (``truncate_uncommitted`` on the shared log); ``reopen``
    hands the records to a fresh ``RedoLog(records=...)``.
    """
    log = RedoLog()
    next_oid = 1
    txid = 0
    for step in steps:
        if step in ("commit", "abort", "crash"):
            txid += 1
            log.begin(txid)
            log.create(txid, next_oid, 32, None, ())
            next_oid += 1
            _assert_agrees(log)
            if step == "commit":
                log.root(txid, next_oid - 1)
                log.commit(txid)
            elif step == "abort":
                log.abort(txid)
            else:
                log.truncate_uncommitted()
        elif step == "checkpoint":
            log.install_checkpoint(_snapshot(txid))
        elif step == "truncate":
            log.truncate_uncommitted()
        else:
            log = RedoLog(records=list(log.records))
        _assert_agrees(log)


class _CountingRecord:
    """A log record stand-in that counts reads of ``kind``."""

    kind_reads = 0
    txid = 1
    checkpoint = None

    @property
    def kind(self):
        _CountingRecord.kind_reads += 1
        return "begin"


def _kind_reads_after(n):
    log = RedoLog()
    snapshot = _snapshot(0)
    log.install_checkpoint(snapshot)
    for _ in range(n):
        log.append(_CountingRecord())
    _CountingRecord.kind_reads = 0
    assert log.suffix_length == n
    assert log.last_checkpoint() is snapshot
    return _CountingRecord.kind_reads


def test_suffix_queries_do_not_scan_the_log():
    assert _kind_reads_after(10) == _kind_reads_after(2000) == 0
