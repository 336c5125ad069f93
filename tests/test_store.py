"""The uid-keyed column store, checked once through each of its two
subclasses: same validation, same error rules, same update semantics."""

import numpy as np
import pytest

from repro.edbms.encryption import EncryptedTable
from repro.edbms.sdb_backend import SecretSharedTable
from repro.edbms.store import UidColumnStore


def _u64(values):
    return np.asarray(values, dtype=np.uint64)


def _encrypted(uids, column):
    return EncryptedTable("t", ("X",), _u64(uids), {"X": _u64(column)})


def _shared(uids, column):
    return SecretSharedTable(name="t", attribute_names=("X",),
                             uids=_u64(uids), sp_shares={"X": _u64(column)},
                             domain_shift={"X": 1})


@pytest.fixture(params=[_encrypted, _shared], ids=["encrypted", "shared"])
def make(request):
    return request.param


def test_both_tables_are_the_one_store():
    for cls in (EncryptedTable, SecretSharedTable):
        assert issubclass(cls, UidColumnStore)
        for name in ("positions", "position", "insert_rows", "delete_rows",
                     "allocate_uids", "storage_bytes"):
            assert name not in vars(cls)


def test_constructor_rejects_duplicate_uids(make):
    with pytest.raises(ValueError, match="duplicate"):
        make([0, 1, 1], [10, 11, 12])


def test_constructor_rejects_misaligned_and_foreign_columns(make):
    with pytest.raises(ValueError, match="misaligned"):
        make([0, 1, 2], [10, 11])
    with pytest.raises(ValueError, match="do not match"):
        EncryptedTable("t", ("X", "Y"), _u64([0]), {"X": _u64([1])})


def test_insert_rejects_duplicates_and_leaves_table_untouched(make):
    table = make([0, 1, 2], [10, 11, 12])
    for uids, column, message in (
            ([4, 4], [1, 2], "duplicate"),
            ([5, 1], [1, 2], r"^uid 1 already present$"),
            ([5, 6], [1], "misaligned")):
        with pytest.raises(ValueError, match=message):
            table.insert_rows(_u64(uids), {"X": _u64(column)})
    assert table.num_rows == 3 and table.version == 0
    assert table.uids.tolist() == [0, 1, 2]
    assert table.positions(table.uids).tolist() == [0, 1, 2]


def test_unknown_uid_is_the_first_in_request_order(make):
    table = make([0, 1, 2, 3], [10, 11, 12, 13])
    table.delete_rows(_u64([2]))
    for request, first in (([3, 2, 10 ** 6], 2), ([10 ** 6, 2], 10 ** 6),
                           ([9, 7], 9)):
        with pytest.raises(KeyError, match=rf"^'unknown uid {first}'$"):
            table.positions(_u64(request))
    with pytest.raises(KeyError, match=r"^'unknown uid 2'$"):
        table.position(2)
    assert table.position(3) == 2


def test_delete_names_the_unknown_uids(make):
    table = make([0, 1, 2, 3], [10, 11, 12, 13])
    with pytest.raises(KeyError, match=r"^'unknown uids: \[5, 900\]'$"):
        table.delete_rows(_u64([900, 1, 5]))
    assert table.num_rows == 4 and table.version == 0


def test_updates_bump_version_and_keep_positions_dense(make):
    table = make([0, 1, 2, 3], [10, 11, 12, 13])
    table.delete_rows(_u64([1, 1, 2]))
    assert table.version == 1
    fresh = table.allocate_uids(2)
    assert fresh.tolist() == [4, 5]
    table.insert_rows(fresh, {"X": _u64([14, 15])})
    assert table.version == 2
    assert table.uids.tolist() == [0, 3, 4, 5]
    assert table.positions(table.uids).tolist() == [0, 1, 2, 3]
    cells, nonces = table.cells_for("X", _u64([5, 0]))
    assert cells.tolist() == [15, 10] and nonces.tolist() == [5, 0]
    assert table.storage_bytes() == 2 * 4 * 8


def test_lookup_grows_geometrically(make):
    """One-row inserts must not reallocate the uid lookup every time."""
    table = make(range(64), range(64))
    sizes = set()
    for __ in range(64):
        table.insert_rows(table.allocate_uids(1), {"X": _u64([7])})
        sizes.add(table._position_lookup.size)
    assert len(sizes) <= 2
    assert table.positions(table.uids).tolist() == list(range(128))


def test_change_record_replays_onto_an_old_column(make):
    """``changes_since`` gives the appends (slices) and deletes (sorted
    positions) that turn a column copied at an old version into today's;
    it answers ``None`` once the bounded record is outrun."""
    from repro.edbms.store import CHANGE_RECORD

    table = make([0, 1, 2, 3, 4], [10, 11, 12, 13, 14])
    column = table._columns["X"].copy()
    table.insert_rows(_u64([8, 9]), {"X": _u64([18, 19])})
    table.delete_rows(_u64([9, 1, 3]))
    table.insert_rows(table.allocate_uids(1), {"X": _u64([20])})
    changes = table.changes_since(0)
    assert changes[0] == slice(5, 7) and changes[2] == slice(4, 5)
    assert changes[1].tolist() == [1, 3, 6]
    for change in changes:  # appended cells are placeholders (0)
        if isinstance(change, slice):
            assert change.start == column.size
            column = np.concatenate((column, np.zeros(
                change.stop - change.start, dtype=np.uint64)))
        else:
            column = np.delete(column, change)
    assert column.tolist() == [10, 12, 14, 0, 0]
    assert table._columns["X"].tolist() == [10, 12, 14, 18, 20]
    assert table.positions(table.uids).tolist() == list(range(5))
    assert table.changes_since(3) == [] and table.changes_since(4) is None
    for __ in range(CHANGE_RECORD):
        table.delete_rows(table.uids[:0])  # no-op: records nothing
        table.insert_rows(table.allocate_uids(1), {"X": _u64([1])})
    assert len(table.changes_since(3)) == CHANGE_RECORD
    assert table.changes_since(2) is None
