"""Unit and property tests for the TDAG single-range-cover structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TDAG
from repro.baselines.dyadic import TDAGNode


class TestTDAGNode:
    def test_interval(self):
        node = TDAGNode(level=3, start=8)
        assert node.size == 8
        assert node.end == 15
        assert node.covers(8, 15)
        assert node.covers(10, 12)
        assert not node.covers(7, 10)
        assert not node.covers(10, 16)

    def test_token_material_unique(self):
        assert TDAGNode(1, 0).token_material() != \
            TDAGNode(0, 1).token_material()


class TestTDAG:
    def test_capacity_rounds_to_power_of_two(self):
        assert TDAG(100).capacity == 128
        assert TDAG(128).capacity == 128
        assert TDAG(1).capacity == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TDAG(0)

    def test_point_validation(self):
        tdag = TDAG(16)
        with pytest.raises(ValueError):
            tdag.nodes_covering_point(16)
        with pytest.raises(ValueError):
            tdag.single_range_cover(-1, 3)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            TDAG(16).single_range_cover(5, 4)

    def test_nodes_covering_point_all_contain_it(self):
        tdag = TDAG(64)
        for point in (0, 1, 31, 32, 63):
            nodes = tdag.nodes_covering_point(point)
            assert all(n.covers(point, point) for n in nodes)
            # Aligned path alone has height+1 nodes; straddles add more.
            assert len(nodes) >= tdag.height + 1

    def test_replication_factor_logarithmic(self):
        tdag = TDAG(1 << 20)
        nodes = tdag.nodes_covering_point(12345)
        assert len(nodes) <= 2 * tdag.height + 1

    def test_single_point_cover(self):
        tdag = TDAG(32)
        cover = tdag.single_range_cover(7, 7)
        assert cover.level == 0
        assert cover.start == 7

    def test_full_domain_cover_is_root(self):
        tdag = TDAG(32)
        cover = tdag.single_range_cover(0, 31)
        assert cover.level == tdag.height
        assert cover.start == 0

    @given(capacity_exp=st.integers(min_value=1, max_value=14),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_src_exists_and_is_tight(self, capacity_exp, data):
        """The SRC property: a single cover node exists whose size is at
        most twice the next power of two above the range span."""
        capacity = 1 << capacity_exp
        tdag = TDAG(capacity)
        low = data.draw(st.integers(min_value=0, max_value=capacity - 1))
        high = data.draw(st.integers(min_value=low, max_value=capacity - 1))
        cover = tdag.single_range_cover(low, high)
        assert cover.covers(low, high)
        span = high - low + 1
        next_pow2 = 1 << max(0, (span - 1).bit_length())
        assert cover.size <= min(capacity, 2 * next_pow2)

    @given(capacity_exp=st.integers(min_value=1, max_value=12),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cover_consistent_with_point_filing(self, capacity_exp, data):
        """Every point in a query's SRC node must have filed an entry at
        that node — otherwise SRC lookups would miss results."""
        capacity = 1 << capacity_exp
        tdag = TDAG(capacity)
        low = data.draw(st.integers(min_value=0, max_value=capacity - 1))
        high = data.draw(st.integers(min_value=low, max_value=capacity - 1))
        cover = tdag.single_range_cover(low, high)
        for point in range(max(low, cover.start),
                           min(high, cover.end) + 1):
            assert cover in tdag.nodes_covering_point(point), \
                (capacity, low, high, cover, point)

    @given(capacity=st.integers(min_value=1, max_value=5000),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bulk_enumeration_matches_scalar(self, capacity, data):
        """``node_ids_covering_points`` is the scalar method, point by
        point and in its order — including both ends of the domain,
        where straddling nodes run out."""
        tdag = TDAG(capacity)
        drawn = data.draw(st.lists(
            st.integers(min_value=0, max_value=tdag.capacity - 1),
            max_size=20))
        points = [0, tdag.capacity - 1, tdag.capacity // 2] + drawn
        owner, level, start = tdag.node_ids_covering_points(
            np.asarray(points))
        got = list(zip(owner.tolist(), level.tolist(), start.tolist()))
        assert got == [(i, *node) for i, point in enumerate(points)
                       for node in tdag.node_ids_covering_point(point)]

    def test_bulk_enumeration_edges(self):
        tdag = TDAG(16)
        for part in tdag.node_ids_covering_points(np.zeros(0, np.int64)):
            assert part.size == 0 and part.dtype == np.int64
        for bad in (-1, 16):
            with pytest.raises(ValueError) as scalar:
                tdag.node_ids_covering_point(bad)
            with pytest.raises(ValueError) as bulk:
                tdag.node_ids_covering_points(np.asarray([3, bad, 99]))
            assert str(bulk.value) == str(scalar.value)
