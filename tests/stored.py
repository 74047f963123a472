"""A store's object table read as a plain dict, for tests.

``objects(store)`` maps every oid to its ``StoredObject`` row snapshot
(``ObjectTable.rows()``: dense oids ascending, then overflow oids in
insertion order). Each snapshot's ``pointers`` is the row's live dict;
size, kind and dead flag are as they were when the dict was built.
"""


def objects(store) -> dict:
    """oid → ``StoredObject`` snapshot of every row of ``store``."""
    return {obj.oid: obj for obj in store.placements.rows()}
