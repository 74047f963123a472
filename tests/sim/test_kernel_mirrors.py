"""Mirror pins: ``batch._run_fused`` inlines the methods below (DESIGN §3, "The
inlining ledger"). A digest covers a method's AST minus docstring and empty
fields: a comment edit does not trip it, a changed body says where to look."""
import ast
import hashlib
import inspect
import textwrap

import pytest

from repro.sim.metrics import RunningMean, Sampler
from repro.storage.buffer import BufferPool
from repro.storage.heap import ObjectStore as Store
from repro.storage.iostats import IOStats
from repro.storage.objtable import ObjectTable
from repro.storage.partition import Partition
from repro.tx.manager import TransactionManager
from repro.tx.recovery import RedoLog
from repro.tx.wal import WriteAheadLog

MIRRORS = {  # kernel block -> {method it mirrors: pinned digest}
    "resolve": {Store.create: "41765b4825", Store._place: "3fe1edc453",
                Partition.bump: "faca11d8c7", ObjectTable.insert: "63c00f2665"},
    "touch": {BufferPool.touch: "fc7b3a629e", BufferPool._evict_to: "1235b3d7f0",
              IOStats.record_read: "db15fdec46", IOStats.record_write: "9a1edfd77b"},
    # WRITE copies a checkpoint-shared pointer dict first, as _writable does.
    "wire": {Store.write_pointer: "b0deb4a3fd", Store._writable: "97a66a1658",
             ObjectTable.writable: "86b92aa2f7", Store._declare_dead: "a38f48ff97",
             ObjectTable.set_dead: "3a85ff0c3a",
             Store._forget_edge: "08069d692e", Partition.forget: "85f0c67202",
             Store._unpin: "664b106997", Store._remember_edge: "201624f16a",
             Partition.remember: "8822e49a04"},
    "sample": {Sampler.on_event: "95a5c4e1c1", RunningMean.add: "a1cb6f62bd"},
    # The singleton rows the kernel hands RedoLog.append are RedoLog.create's
    # and RedoLog.write's records, field for field, as plain tuples.
    "redo bracket": {TransactionManager.autocommit: "99e7adadae",
                     WriteAheadLog.append: "74e885f620", WriteAheadLog.force: "d0809c3195",
                     RedoLog.append: "267b670735", RedoLog.create: "f8947edf2b",
                     RedoLog.write: "0a71499369"},
}


def _shape(node):
    if isinstance(node, ast.AST):
        fields = ((name, _shape(value)) for name, value in ast.iter_fields(node))
        return type(node).__name__, [(n, v) for n, v in fields if v not in (None, [])]
    return [_shape(item) for item in node] if isinstance(node, list) else node


@pytest.mark.parametrize("block", MIRRORS)
def test_mirrored_methods_are_as_pinned(block):
    for method, pinned in MIRRORS[block].items():
        function = ast.parse(textwrap.dedent(inspect.getsource(method))).body[0]
        function.body = function.body[ast.get_docstring(function) is not None:]
        digest = hashlib.sha1(repr(_shape(function)).encode()).hexdigest()[:10]
        what = f"{method.__qualname__} changed: update the `{block}` block of `_run_fused`"
        assert digest == pinned, f"{what}, then re-pin ({digest!r})"
