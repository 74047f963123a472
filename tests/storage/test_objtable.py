"""ObjectTable's read surface: ``locate`` / ``row`` / ``rows`` over flat
columns, with ``len`` and ``in``.

The table replaced ``dict[ObjectId, Placement]`` under the store's hot
lookups; these tests pin the read contract (model-checked against a plain
dict), the dense/overflow split, slot recycling, and the raw-column
invariants the batched replay interpreter reads directly. The object
fields of the same rows are property-tested in ``test_object_table.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.object_model import ObjectKind, StoredObject
from repro.storage.objtable import DENSE_CEILING, ObjectTable

# ---------------------------------------------------------------- basics


def test_empty_table():
    table = ObjectTable()
    assert len(table) == 0
    assert table.locate(0) is None
    assert table.part_of(0) == -1
    assert table.row(7) is None
    assert 7 not in table
    assert list(table.rows()) == []


def test_put_locate_roundtrip():
    table = ObjectTable()
    table.insert(3, pid=2, offset=128, size=64, kind=ObjectKind.DOCUMENT)
    assert table.locate(3) == (2, 128, 64)
    assert table.part_of(3) == 2
    assert table.row(3) == StoredObject(3, 64, ObjectKind.DOCUMENT)
    assert len(table) == 1
    assert 3 in table


def test_row_is_a_snapshot_sharing_the_live_pointer_dict():
    table = ObjectTable()
    pointers = table.insert(1, pid=0, offset=0, size=10)
    snapshot = table.row(1)
    table.set_dead(1, True)
    pointers["a"] = 2
    assert not snapshot.dead, "size, kind and dead flag are as they were"
    assert snapshot.pointers == {"a": 2}, "the pointer dict is the row's own"
    assert table.row(1).dead


def test_slot_recycling():
    """Discard writes -1 back; a later create of the same oid reuses the row."""
    table = ObjectTable()
    table.insert(6, pid=3, offset=0, size=100)
    assert table.discard(6)
    assert not table.discard(6)
    assert table.parts[6] == -1
    assert table.row(6) is None
    assert len(table) == 0
    table.insert(6, pid=7, offset=256, size=50)
    assert table.locate(6) == (7, 256, 50)
    assert len(table) == 1


# ---------------------------------------------------------------- growth


def test_reserve_grows_dense_columns_with_absent_fill():
    table = ObjectTable()
    table.reserve(100)
    assert table.dense_limit == 100
    assert all(table.parts[i] == -1 for i in range(100))
    table.reserve(50)  # never shrinks
    assert table.dense_limit == 100


def test_reserve_clamps_at_dense_ceiling():
    table = ObjectTable()
    table.reserve(DENSE_CEILING + 1000)
    assert table.dense_limit == DENSE_CEILING


def test_put_beyond_current_extent_grows():
    table = ObjectTable()
    table.insert(5000, pid=1, offset=0, size=1)
    assert table.dense_limit > 5000
    assert table.locate(5000) == (1, 0, 1)
    assert table.locate(4999) is None


# ---------------------------------------------------------------- overflow


@pytest.mark.parametrize("oid", [-1, DENSE_CEILING, DENSE_CEILING + 12345])
def test_sparse_oids_fall_back_to_overflow(oid):
    table = ObjectTable()
    table.insert(oid, pid=2, offset=64, size=32)
    assert oid in table.overflow
    assert table.dense_limit == 0, "sparse oids must not grow the columns"
    assert table.locate(oid) == (2, 64, 32)
    assert table.part_of(oid) == 2
    assert table.row(oid) == StoredObject(oid, 32)
    assert len(table) == 1
    assert table.discard(oid)
    assert table.locate(oid) is None
    assert len(table) == 0


def test_iteration_covers_dense_and_overflow():
    """``rows()``: dense oids ascending, then overflow oids in insertion
    order."""
    table = ObjectTable()
    table.insert(DENSE_CEILING + 1, pid=1, offset=8, size=4)
    table.insert(5, pid=0, offset=4, size=4)
    table.insert(-3, pid=1, offset=0, size=8)
    table.insert(2, pid=0, offset=0, size=4)
    assert [obj.oid for obj in table.rows()] == [2, 5, DENSE_CEILING + 1, -3]
    assert [obj.size for obj in table.rows()] == [4, 4, 4, 8]


# ---------------------------------------------------------------- model check


_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "discard"]),
        st.integers(min_value=-2, max_value=40),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=80,
)


@given(ops=_ops)
@settings(max_examples=120, deadline=None)
def test_behaves_like_a_dict(ops):
    """Model-check the read surface against a plain dict of placements."""
    table = ObjectTable()
    model: dict[int, tuple[int, int, int]] = {}
    for action, oid, salt in ops:
        if action == "insert":
            if oid not in model:  # a row is filled once, as the store creates
                table.insert(oid, salt, salt * 16, salt + 1)
                model[oid] = (salt, salt * 16, salt + 1)
        else:
            assert table.discard(oid) == (model.pop(oid, None) is not None)
        assert len(table) == len(model)
    dense = sorted(oid for oid in model if oid >= 0)
    overflow = [oid for oid in model if oid < 0]
    assert [obj.oid for obj in table.rows()] == dense + overflow
    for oid in range(-2, 41):
        assert table.locate(oid) == model.get(oid)
        assert (oid in table) == (oid in model)
        row = table.row(oid)
        if oid in model:
            assert (row.oid, row.size) == (oid, model[oid][2])
        else:
            assert row is None
