"""Unit tests for the stored-object model."""

import pytest

from repro.storage.object_model import ObjectKind, StoredObject


def test_object_requires_positive_size():
    with pytest.raises(ValueError):
        StoredObject(oid=1, size=0)
    with pytest.raises(ValueError):
        StoredObject(oid=1, size=-8)


def test_default_kind_is_generic():
    assert StoredObject(oid=1, size=1).kind is ObjectKind.GENERIC


def test_dead_flag_defaults_false():
    assert not StoredObject(oid=1, size=1).dead
