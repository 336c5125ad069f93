"""Unit tests for skyline candidate pruning (future work, Sec. 9)."""

import numpy as np
import pytest

from repro.bench import Testbed
from repro.core import SkylineResolver
from repro.workloads import uniform_table


def brute_force_skyline(table) -> list[int]:
    """Ground truth: minimise all attributes."""
    attrs = table.schema.names
    matrix = np.stack([table.columns[a] for a in attrs], axis=1)
    keep = []
    for i in range(table.num_rows):
        dominated = False
        for j in range(table.num_rows):
            if i == j:
                continue
            leq = matrix[j] <= matrix[i]
            lt = matrix[j] < matrix[i]
            if leq.all() and lt.any():
                dominated = True
                break
        if not dominated:
            keep.append(int(table.uids[i]))
    return sorted(keep)


def make_bed(n=120, seed=0, warm=0):
    table = uniform_table("t", n, ["X", "Y"], domain=(1, 10_000), seed=seed)
    bed = Testbed(table, ["X", "Y"], seed=seed)
    for attr in ("X", "Y"):
        if warm:
            bed.warm_up(attr, warm, seed=seed)
    return bed


class TestSkyline:
    def test_matches_brute_force_cold(self):
        bed = make_bed(seed=1)
        resolver = SkylineResolver(bed.prkb, bed.owner.key)
        assert resolver.skyline() == brute_force_skyline(bed.plain)

    def test_matches_brute_force_warm(self):
        bed = make_bed(seed=2, warm=25)
        resolver = SkylineResolver(bed.prkb, bed.owner.key)
        assert resolver.skyline() == brute_force_skyline(bed.plain)

    def test_candidates_are_superset(self):
        bed = make_bed(seed=3, warm=25)
        resolver = SkylineResolver(bed.prkb, bed.owner.key)
        candidates = set(map(int, resolver.candidates()))
        assert set(brute_force_skyline(bed.plain)) <= candidates

    def test_warm_index_prunes(self):
        cold = make_bed(seed=4)
        warm = make_bed(seed=4, warm=30)
        cold_candidates = SkylineResolver(cold.prkb,
                                          cold.owner.key).candidates()
        warm_candidates = SkylineResolver(warm.prkb,
                                          warm.owner.key).candidates()
        assert warm_candidates.size < cold_candidates.size

    def test_randomized_agreement(self):
        for seed in range(5, 10):
            bed = make_bed(n=60, seed=seed, warm=15)
            resolver = SkylineResolver(bed.prkb, bed.owner.key)
            assert resolver.skyline() == brute_force_skyline(bed.plain), \
                f"seed {seed}"

    def test_charges_land_in_the_callers_measure_scope(self):
        """Pruning comparisons and confirmation decrypts go through
        ``charge``, so a statement's ``measure()`` tally sees them."""
        bed = make_bed(seed=14, warm=10)
        resolver = SkylineResolver(bed.prkb, bed.owner.key)
        before = bed.counter.snapshot()
        with bed.counter.measure() as spent:
            resolver.skyline()
        delta = bed.counter.diff(before)
        assert spent.qpf_uses == delta.qpf_uses > 0
        assert spent.tuples_retrieved == delta.tuples_retrieved > 0
        assert spent.comparisons == delta.comparisons > 0

    def test_requires_indexes(self):
        bed = make_bed(seed=11)
        with pytest.raises(ValueError):
            SkylineResolver({}, bed.owner.key)

    def test_mixed_tables_rejected(self):
        bed_a = make_bed(seed=12)
        bed_b = make_bed(seed=13)
        with pytest.raises(ValueError):
            SkylineResolver({"X": bed_a.prkb["X"], "Y": bed_b.prkb["Y"]},
                            bed_a.owner.key)
