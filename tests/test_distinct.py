"""Sort-based distinct values and duplicate checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EncryptedDatabase
from repro.baselines import LogSRCiIndex
from repro.crypto import generate_key
from repro.crypto.ope import OrderPreservingEncryption
from repro.distinct import (distinct, distinct_inverse, has_duplicates,
                            run_starts)
from repro.edbms import CostCounter

values = st.lists(st.integers(min_value=-5, max_value=5), max_size=30)


@given(values=values)
@settings(max_examples=80, deadline=None)
def test_helpers_equal_np_unique(values):
    array = np.asarray(values, dtype=np.int64)
    unique, inverse = np.unique(array, return_inverse=True)
    assert np.array_equal(distinct(array), unique)
    got, got_inverse = distinct_inverse(array)
    assert np.array_equal(got, unique)
    assert np.array_equal(got_inverse, inverse)
    assert has_duplicates(array) == (unique.size != array.size)
    ordered = np.sort(array)
    __, first = np.unique(ordered, return_index=True)
    assert np.array_equal(run_starts(ordered), first)


def test_uint64_uids_above_int64_range():
    uids = np.asarray([2**64 - 1, 3, 2**63, 3], dtype=np.uint64)
    assert has_duplicates(uids)
    assert distinct(uids).tolist() == [3, 2**63, 2**64 - 1]
    assert not has_duplicates(uids[:3])


def test_write_path_and_builds_sort_instead_of_hashing(monkeypatch):
    """Insert, delete (with its validation), a batch of selects, an OPE
    column and a Log-SRC-i bulk build never call ``np.unique``, whose
    numpy 2 hash costs ~30x a sort on uids."""
    rng = np.random.default_rng(0)
    column = rng.integers(1, 10_000, 300)
    db = EncryptedDatabase(seed=1)
    db.create_table("t", {"X": (1, 10_000)}, {"X": column})
    db.enable_prkb("t", ["X"])

    def banned(*args, **kwargs):
        raise AssertionError("np.unique on a write or build path")

    monkeypatch.setattr(np, "unique", banned)
    fresh = db.insert("t", {"X": np.asarray([5, 9_000, 5])})
    db.delete("t", np.concatenate([fresh[:2], [0, 7]]))
    with pytest.raises(ValueError, match="duplicate uids"):
        db.delete("t", np.asarray([1, 1], dtype=np.uint64))
    answers = db.execute_many(["SELECT * FROM t WHERE X < 4000",
                               "SELECT * FROM t WHERE X > 2000"])
    rows = dict(enumerate(column.tolist()))
    del rows[0], rows[7]
    rows[int(fresh[2])] = 5
    for answer, keep in zip(answers, (lambda x: x < 4000,
                                      lambda x: x > 2000)):
        assert np.sort(answer.uids).tolist() == sorted(
            uid for uid, x in rows.items() if keep(x))
    ope = OrderPreservingEncryption(generate_key(2), 1, 10_000)
    ciphertexts = ope.encrypt_many(column)
    assert np.all(np.diff(ciphertexts[np.argsort(column, kind="stable")])
                  >= 0)
    index = LogSRCiIndex(generate_key(3), CostCounter(), "X", (1, 10_000),
                         np.arange(column.size, dtype=np.uint64), column)
    assert np.array_equal(index.query_inclusive(100, 5_000),
                          np.flatnonzero((column >= 100) & (column <= 5_000)))
