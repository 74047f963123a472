"""ObjectTable as the placement mapping: flat-array columns with a
dict-shaped surface.

The table replaced ``dict[ObjectId, Placement]`` under the store's hot
lookups; these tests pin the mapping contract (model-checked against a
plain dict), the dense/overflow split, slot recycling, and the raw-column
invariants the batched replay interpreter reads directly. The object
fields of the same rows are property-tested in ``test_object_table.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.objtable import DENSE_CEILING, ObjectTable
from repro.storage.partition import Placement

# ---------------------------------------------------------------- basics


def test_empty_table():
    table = ObjectTable()
    assert len(table) == 0
    assert table.locate(0) is None
    assert table.part_of(0) == -1
    assert table.get(7) is None
    assert 7 not in table
    assert list(table) == []
    with pytest.raises(KeyError):
        table[7]


def test_put_locate_roundtrip():
    table = ObjectTable()
    table.put(3, pid=2, offset=128, size=64)
    assert table.locate(3) == (2, 128, 64)
    assert table.part_of(3) == 2
    assert table[3] == Placement(partition=2, offset=128, size=64)
    assert len(table) == 1
    assert 3 in table


def test_getitem_returns_snapshot_not_live_state():
    table = ObjectTable()
    table.put(1, pid=0, offset=0, size=10)
    snapshot = table[1]
    table.put(1, pid=5, offset=99, size=20)
    assert snapshot.partition == 0, "snapshots must not see later writes"
    assert table.locate(1) == (5, 99, 20)


def test_replace_does_not_double_count():
    table = ObjectTable()
    table.put(4, pid=1, offset=0, size=8)
    table.put(4, pid=2, offset=16, size=8)
    assert len(table) == 1
    assert table.locate(4) == (2, 16, 8)


def test_setitem_delitem_pop():
    table = ObjectTable()
    table[9] = Placement(partition=1, offset=32, size=48)
    assert table.pop(9) == Placement(partition=1, offset=32, size=48)
    assert len(table) == 0
    assert table.pop(9, None) is None
    with pytest.raises(KeyError):
        table.pop(9)
    with pytest.raises(KeyError):
        del table[9]


def test_slot_recycling():
    """Discard writes -1 back; a later create of the same oid reuses the row."""
    table = ObjectTable()
    table.put(6, pid=3, offset=0, size=100)
    assert table.discard(6)
    assert not table.discard(6)
    assert table.parts[6] == -1
    assert len(table) == 0
    table.put(6, pid=7, offset=256, size=50)
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
    table.put(5000, pid=1, offset=0, size=1)
    assert table.dense_limit > 5000
    assert table.locate(5000) == (1, 0, 1)
    assert table.locate(4999) is None


# ---------------------------------------------------------------- overflow


@pytest.mark.parametrize("oid", [-1, DENSE_CEILING, DENSE_CEILING + 12345])
def test_sparse_oids_fall_back_to_overflow(oid):
    table = ObjectTable()
    table.put(oid, pid=2, offset=64, size=32)
    assert oid in table.overflow
    assert table.dense_limit == 0, "sparse oids must not grow the columns"
    assert table.locate(oid) == (2, 64, 32)
    assert table.part_of(oid) == 2
    assert len(table) == 1
    assert table.discard(oid)
    assert table.locate(oid) is None
    assert len(table) == 0


def test_iteration_covers_dense_and_overflow():
    table = ObjectTable()
    table.put(2, pid=0, offset=0, size=4)
    table.put(DENSE_CEILING + 1, pid=1, offset=8, size=4)
    assert set(table) == {2, DENSE_CEILING + 1}
    assert set(table.keys()) == {2, DENSE_CEILING + 1}
    assert {oid: p.partition for oid, p in table.items()} == {
        2: 0,
        DENSE_CEILING + 1: 1,
    }
    assert sorted(p.size for p in table.values()) == [4, 4]


# ---------------------------------------------------------------- equality


def test_equality_against_dict_of_placements():
    table = ObjectTable()
    table.put(1, pid=0, offset=0, size=10)
    table.put(2, pid=1, offset=16, size=20)
    assert table == {
        1: Placement(partition=0, offset=0, size=10),
        2: Placement(partition=1, offset=16, size=20),
    }
    assert table != {1: Placement(partition=0, offset=0, size=10)}
    other = ObjectTable()
    other.put(2, pid=1, offset=16, size=20)
    other.put(1, pid=0, offset=0, size=10)
    assert table == other
    other.put(3, pid=2, offset=0, size=1)
    assert table != other


# ---------------------------------------------------------------- model check


_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "discard", "pop"]),
        st.integers(min_value=-2, max_value=40),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=80,
)


@given(ops=_ops)
@settings(max_examples=120, deadline=None)
def test_behaves_like_a_dict(ops):
    """Model-check the mapping surface against a plain dict."""
    table = ObjectTable()
    model: dict[int, Placement] = {}
    for action, oid, salt in ops:
        if action == "put":
            placement = Placement(partition=salt, offset=salt * 16, size=salt + 1)
            table[oid] = placement
            model[oid] = placement
        elif action == "discard":
            assert table.discard(oid) == (model.pop(oid, None) is not None)
        else:
            assert table.pop(oid, None) == model.pop(oid, None)
        assert len(table) == len(model)
    assert table == model
    assert sorted(table) == sorted(model)
    for oid, placement in model.items():
        assert table[oid] == placement
        assert table.locate(oid) == (
            placement.partition,
            placement.offset,
            placement.size,
        )
