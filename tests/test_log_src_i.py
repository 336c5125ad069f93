"""Unit tests for the Logarithmic-SRC-i competitor."""

import hashlib

import numpy as np
import pytest

from repro.baselines import TDAG, LogSRCiIndex
from repro.baselines.log_src_i import POSITION_GAP, multi_dimensional_query
from repro.crypto import generate_key
from repro.edbms import CostCounter

pytestmark = pytest.mark.hybrid


def make_index(values, domain=(0, 1000), seed=0):
    values = np.asarray(values, dtype=np.int64)
    uids = np.arange(values.size, dtype=np.uint64)
    counter = CostCounter()
    index = LogSRCiIndex(generate_key(seed), counter, "X", domain, uids,
                         values)
    return index, counter, {int(u): int(v) for u, v in zip(uids, values)}


def expect(lookup, low, high):
    return sorted(u for u, v in lookup.items() if low <= v <= high)


class TestQueries:
    def test_basic_ranges(self):
        index, __, lookup = make_index(range(0, 1000, 7))
        for low, high in ((0, 1000), (10, 20), (500, 500), (993, 1000),
                          (3, 6)):
            got = sorted(map(int, index.query_inclusive(low, high)))
            assert got == expect(lookup, low, high), (low, high)

    def test_open_interval_form(self):
        index, __, lookup = make_index(range(0, 100))
        got = sorted(map(int, index.query_open(10, 20)))
        assert got == expect(lookup, 11, 19)

    def test_duplicates(self):
        index, __, lookup = make_index([5] * 8 + [10] * 4 + [20])
        assert sorted(map(int, index.query_inclusive(5, 5))) == \
            expect(lookup, 5, 5)
        assert sorted(map(int, index.query_inclusive(6, 25))) == \
            expect(lookup, 6, 25)

    def test_out_of_domain_clamped(self):
        index, __, lookup = make_index(range(0, 50), domain=(0, 100))
        got = sorted(map(int, index.query_inclusive(-100, 1000)))
        assert got == expect(lookup, 0, 49)

    def test_empty_index(self):
        index, __, __ = make_index([], domain=(0, 10))
        assert index.query_inclusive(0, 10).size == 0

    def test_negative_domain(self):
        """Signed values (e.g. longitudes) must round-trip the records."""
        values = list(range(-500, 500, 7))
        index, __, lookup = make_index(values, domain=(-1000, 1000))
        for low, high in ((-1000, 1000), (-100, -50), (-3, 3), (400, 600)):
            got = sorted(map(int, index.query_inclusive(low, high)))
            assert got == expect(lookup, low, high), (low, high)
        index.insert(uid=9_999, value=-77)
        lookup[9_999] = -77
        got = sorted(map(int, index.query_inclusive(-80, -70)))
        assert got == expect(lookup, -80, -70)

    def test_query_costs_are_metered(self):
        index, counter, __ = make_index(range(0, 500))
        counter.reset()
        index.query_inclusive(100, 200)
        assert counter.sse_lookups == 2  # one per level
        assert counter.qpf_uses > 0  # TM confirmations


class TestStorage:
    def test_storage_much_larger_than_prkb_shape(self):
        """Table 3's shape: SRC-i stores O(log D) entries per tuple."""
        index, __, __ = make_index(range(0, 2000), domain=(0, 30_000))
        per_tuple = index.storage_bytes() / index.num_tuples
        assert per_tuple > 200  # many replicated encrypted postings

    def test_storage_scales_linearly(self):
        small, __, __ = make_index(range(0, 200), domain=(0, 30_000))
        large, __, __ = make_index(range(0, 2000), domain=(0, 30_000))
        ratio = large.storage_bytes() / small.storage_bytes()
        assert 6 <= ratio <= 14


class TestUpdates:
    def test_insert_visible_in_queries(self):
        index, __, lookup = make_index(range(0, 100, 10))
        index.insert(uid=500, value=55)
        lookup[500] = 55
        got = sorted(map(int, index.query_inclusive(50, 60)))
        assert got == expect(lookup, 50, 60)

    def test_many_inserts_at_same_value_trigger_rebuild_path(self):
        index, __, lookup = make_index([50], domain=(0, 100))
        for i in range(50):
            index.insert(uid=1000 + i, value=50)
            lookup[1000 + i] = 50
        got = sorted(map(int, index.query_inclusive(50, 50)))
        assert got == expect(lookup, 50, 50)

    def test_delete(self):
        index, __, lookup = make_index(range(0, 100, 10))
        index.delete(uid=3, value=30)
        del lookup[3]
        got = sorted(map(int, index.query_inclusive(0, 100)))
        assert got == expect(lookup, 0, 100)

    def test_delete_missing_rejected(self):
        index, __, __ = make_index(range(0, 100, 10))
        with pytest.raises(KeyError):
            index.delete(uid=999, value=555)

    def test_insert_out_of_domain_rejected(self):
        index, __, __ = make_index(range(10), domain=(0, 10))
        with pytest.raises(ValueError):
            index.insert(uid=100, value=11)


def postings(sse):
    """Every token's posting block, pending adds folded in, as
    ``[serial, c1, c2, c3]`` rows."""
    return {token: sse._block(token).tolist()
            for token in list(sse._postings)}


def handles_of(index):
    """Per level, every owner's ``(keyword, serial)`` handles, whether
    implied by the bulk filing or kept for a re-filed owner."""
    levels = {}
    for name, refs, bulk in (("ds1", index._ds1_refs, index._ds1_bulk),
                             ("ds2", index._ds2_refs, index._ds2_bulk)):
        # An owner's handles live in exactly one of the two places.
        assert not set(refs) & set(bulk.owners())
        handles = {owner: bulk.handles(owner) for owner in bulk.owners()}
        handles.update(refs)
        levels[name] = handles
    return levels


def state_of(index, counter):
    """Everything construction and maintenance leave behind."""
    handles = handles_of(index)
    return {"ds1": postings(index._ds1), "ds2": postings(index._ds2),
            "ds1_refs": handles["ds1"], "ds2_refs": handles["ds2"],
            "spans": index._value_span,
            "positions": index._value_positions,
            "entries": index._entries, "counter": counter.as_dict(),
            "storage_bytes": index.storage_bytes()}


def filed_per_item(bulk, values, domain, seed):
    """The reference construction: an empty index filled with one
    ``_file_ds2`` per tuple and one ``_file_ds1`` per distinct value."""
    index, counter, __ = make_index([], domain=domain, seed=seed)
    index._tdag2 = TDAG(bulk._tdag2.capacity)
    values = np.asarray(values, dtype=np.int64)
    uids = np.arange(values.size)
    for rank, row in enumerate(np.lexsort((uids, values)).tolist()):
        value, position = int(values[row]), (rank + 1) * POSITION_GAP
        index._entries.append([value, row, position])
        index._file_ds2(row, value, position)
        index._value_positions.setdefault(value, []).append(position)
    for value, positions in index._value_positions.items():
        index._value_span[value] = [positions[0], positions[-1]]
        index._file_ds1(value, positions[0], positions[-1])
    return index, counter


def assert_refs_intact(index):
    """Every handle names a live posting, and nothing else is stored:
    the handle-based removals of later updates depend on it."""
    levels = handles_of(index)
    for sse, refs in ((index._ds1, levels["ds1"]),
                      (index._ds2, levels["ds2"])):
        handles = [handle for filed in refs.values() for handle in filed]
        assert len(handles) == sse.num_records
        assert len(set(handles)) == len(handles)
        for keyword, serial in handles:
            assert serial in sse._block(sse.token(keyword))[:, 0]


class TestBulkLoad:
    def test_bulk_build_equals_per_item_filing(self):
        rng = np.random.default_rng(3)
        domain = (-300, 300)
        values = rng.integers(-300, 301, 120).tolist()
        values[:10] = values[10:20]  # duplicate runs
        bulk, bulk_counter, __ = make_index(values, domain=domain, seed=3)
        item, item_counter = filed_per_item(bulk, values, domain, seed=3)
        assert state_of(bulk, bulk_counter) == state_of(item, item_counter)
        for index in (bulk, item):
            index.insert(uid=500, value=values[0])
            index.insert(uid=501, value=299)
            index.delete(uid=4, value=values[4])
        assert state_of(bulk, bulk_counter) == state_of(item, item_counter)
        for low, high in ((-300, 300), (-20, 40), (299, 300)):
            assert np.array_equal(bulk.query_inclusive(low, high),
                                  item.query_inclusive(low, high))

    def test_out_of_domain_value_rejected_at_build(self):
        with pytest.raises(ValueError, match=r"value 12 outside domain"):
            make_index([3, 12, 40], domain=(0, 10))

    def test_refs_survive_insert_rebuild_delete(self):
        rng = np.random.default_rng(8)
        values = rng.integers(0, 1001, 60)
        index, __, lookup = make_index(values)
        assert_refs_intact(index)
        rebuilt = index._ds2
        for i in range(12):  # same slot every time: the gap runs out
            index.insert(uid=100 + i, value=int(values[7]))
            lookup[100 + i] = int(values[7])
        assert index._ds2 is not rebuilt, "gap exhaustion must rebuild"
        assert_refs_intact(index)
        for uid in (7, 103, 0, 59):
            index.delete(uid=uid, value=lookup.pop(uid))
        assert_refs_intact(index)
        column = np.asarray(list(lookup.values()))
        uids = np.asarray(list(lookup), dtype=np.uint64)
        for low, high in ((0, 1000), (int(values[7]), int(values[7])),
                          (200, 450), (990, 1000)):
            want = np.sort(uids[(column >= low) & (column <= high)])
            assert np.array_equal(index.query_inclusive(low, high), want)

    def test_refiling_every_bulk_owner(self):
        """Delete and re-insert every tuple, so each bulk-filed owner of
        both levels is re-filed; duplicates respan their DS1 record on
        every step, and a new duplicate is added on top."""
        rng = np.random.default_rng(11)
        values = rng.integers(0, 1001, 40)
        values[:6] = values[6]  # one value with seven duplicates
        index, __, lookup = make_index(values)
        for uid in range(values.size):
            value = lookup[uid]
            index.delete(uid=uid, value=value)
            index.insert(uid=uid, value=value)
        index.insert(uid=500, value=int(values[6]))
        lookup[500] = int(values[6])
        assert not index._ds1_bulk.owners()
        assert not index._ds2_bulk.owners()
        assert_refs_intact(index)
        for sse, refs in ((index._ds1, index._ds1_refs),
                          (index._ds2, index._ds2_refs)):
            handles = [handle for filed in refs.values() for handle in filed]
            keywords = {keyword for keyword, __ in handles}
            assert sse.storage_bytes() == 16 * len(keywords) \
                + 32 * len(handles)
        column = np.asarray(list(lookup.values()))
        uids = np.asarray(list(lookup), dtype=np.uint64)
        for low, high in ((0, 1000), (int(values[6]), int(values[6])),
                          (100, 600), (0, 0)):
            want = np.sort(uids[(column >= low) & (column <= high)])
            assert np.array_equal(index.query_inclusive(low, high), want)


#: A seeded 1000-row build in the ``hybrid_budget`` shape, pinned when
#: each token's postings were a dict of serial -> record: per level the
#: token count, the record count and a SHA-256 over every token in byte
#: order followed by its ``[serial, c1, c2, c3]`` rows in serial order.
PINNED_BUILD = {
    "ds1": (14120, 31775, "eaafc8412cd9953a9212dd84d3631454"
                          "189cab18ad3eebe768bf9157e8ce2e8b"),
    "ds2": (9005, 26987, "4e12aeda30be0cc07747f00a07885419"
                         "9c5d6c763d4e4b547b909c3af5ffbc40"),
}


def test_bulk_build_matches_pinned_digest():
    values = np.random.default_rng(2024).integers(1, 100_001, 1000)
    values[:40] = values[40:80]
    index = LogSRCiIndex(generate_key(7), CostCounter(), "Y", (1, 100_000),
                         np.arange(1000, dtype=np.uint64) * 3 + 5, values)
    for name, (tokens, records, want) in PINNED_BUILD.items():
        sse = getattr(index, f"_{name}")
        digest = hashlib.sha256()
        for token, rows in sorted(postings(sse).items()):
            digest.update(token)
            digest.update(np.asarray(rows, dtype="<u8").tobytes())
        assert (len(sse._postings), sse.num_records, digest.hexdigest()) \
            == (tokens, records, want), name
    assert index.storage_bytes() == 2_250_384


class TestMultiDimensional:
    def test_intersection(self):
        rng = np.random.default_rng(0)
        n = 200
        x = rng.integers(0, 1000, size=n, dtype=np.int64)
        y = rng.integers(0, 1000, size=n, dtype=np.int64)
        uids = np.arange(n, dtype=np.uint64)
        counter = CostCounter()
        key = generate_key(1)
        indexes = {
            "X": LogSRCiIndex(key, counter, "X", (0, 1000), uids, x),
            "Y": LogSRCiIndex(key, counter, "Y", (0, 1000), uids, y),
        }
        bounds = {"X": (100, 600), "Y": (200, 800)}
        before = counter.comparisons
        with counter.measure() as spent:
            got = sorted(map(int, multi_dimensional_query(indexes, bounds)))
        # The intersection's comparisons reach the caller's scope too.
        assert spent.comparisons == counter.comparisons - before > 0
        want = sorted(
            int(u) for u, vx, vy in zip(uids, x, y)
            if 100 < vx < 600 and 200 < vy < 800
        )
        assert got == want
