"""The PRKB(MD) grid phases stay vectorised — no per-uid Python loops.

Candidate collection, OUT-pruning and NS grouping in
:mod:`repro.core.multi` are specified to run as numpy mask arithmetic
over the chain's ``uid -> order key`` array.  A per-uid regression
(``for uid in ...`` over candidates, scalar ``partition_of`` probes,
one-tuple QPF calls) is cheap to miss in review and catastrophic at
scale, so this test pins the property on a 10k-tuple table three ways:

* scalar uid->partition lookups (`partition_of`, `index_of_uid`) are
  forbidden while ``select`` runs;
* single-tuple QPF calls are forbidden — every probe ships batched;
* the number of Python-level calls into ``multi.py`` during one query is
  bounded by a small constant, while the query's NS residue spans
  thousands of tuples (a per-uid loop through any helper would show up
  as thousands of calls).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import Testbed
from repro.core import MultiDimensionProcessor
from repro.core.multi import _observed_labels
from repro.core.partitions import PartialOrderPartitions
from repro.edbms.qpf import QueryProcessingFunction
from repro.workloads import uniform_table

N = 10_000
DOMAIN = (1, 1_000_000)

#: Generous ceiling on Python calls into multi.py for ONE query.  The
#: vectorised pipeline makes O(d * partitions) calls; a per-uid loop
#: would make O(candidates) >> 2_000 of them.
MAX_MULTI_CALLS = 500


@pytest.fixture(scope="module")
def bed():
    table = uniform_table("t", N, ["X", "Y"], domain=DOMAIN, seed=31)
    bed = Testbed(table, ["X", "Y"], max_partitions=64, seed=31)
    for attr in ("X", "Y"):
        bed.warm_up(attr, 25, seed=32)
    return bed


def _select(bed, bounds, update=False):
    query = [bed.dimension_range(a, b) for a, b in bounds.items()]
    processor = MultiDimensionProcessor(
        {a: bed.prkb[a] for a in bounds},
        update_policy="complete-partition" if update else "none")
    return np.sort(processor.select(query, update=update))


def _forbid(monkeypatch, cls, name):
    def banned(self, *args, **kwargs):
        raise AssertionError(
            f"per-uid scalar call {cls.__name__}.{name} on the MD hot path")
    monkeypatch.setattr(cls, name, banned)


def test_no_scalar_lookups_on_ten_k_table(bed, monkeypatch):
    bounds = {"X": (200_000, 800_000), "Y": (100_000, 900_000)}
    want = bed.owner.expected_range_result("t", bounds)
    _forbid(monkeypatch, PartialOrderPartitions, "partition_of")
    _forbid(monkeypatch, PartialOrderPartitions, "index_of_uid")
    _forbid(monkeypatch, QueryProcessingFunction, "__call__")  # scalar Θ
    got = _select(bed, bounds)
    assert np.array_equal(got, want)


def test_call_volume_independent_of_candidate_count(bed):
    # A wide cold-ish rectangle: the NS residue spans thousands of
    # tuples, so a per-uid loop anywhere in collection/classification
    # would blow straight through the call budget.
    bounds = {"X": (50_000, 950_000), "Y": (50_000, 950_000)}
    want = bed.owner.expected_range_result("t", bounds)
    assert want.size > 2_000

    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith("multi.py"):
            calls += 1

    before = bed.counter.qpf_uses
    sys.setprofile(profiler)
    try:
        got = _select(bed, bounds)
    finally:
        sys.setprofile(None)
    tested = bed.counter.qpf_uses - before
    assert np.array_equal(got, want)
    assert tested > 1_000, "workload too easy to witness vectorisation"
    assert calls < MAX_MULTI_CALLS, (
        f"{calls} Python calls into multi.py for one query — a per-uid "
        f"loop crept back into the grid pipeline")


def test_vectorised_result_matches_oracle_with_updates(bed):
    # Refinement on (apply_split path) must not disturb correctness.
    rng = np.random.default_rng(33)
    for _ in range(5):
        lo_x, lo_y = rng.integers(0, 700_000, size=2)
        bounds = {"X": (int(lo_x), int(lo_x) + 250_000),
                  "Y": (int(lo_y), int(lo_y) + 250_000)}
        want = bed.owner.expected_range_result("t", bounds)
        got = _select(bed, bounds, update=True)
        assert np.array_equal(got, want)


def _isin_searchsorted_labels(members, observed_uids, observed_labels):
    """The refinement's label lookup before the dense scratch: hash
    membership, then a stable sort and a binary search per member."""
    known = (np.isin(members, observed_uids) if observed_uids.size
             else np.zeros(members.size, dtype=bool))
    labels = np.full(members.size, -1, dtype=np.int8)
    if known.any():
        order = np.argsort(observed_uids, kind="stable")
        positions = np.searchsorted(observed_uids[order], members[known])
        labels[known] = observed_labels[order][positions]
    return labels


@given(members=st.lists(st.integers(0, 300), min_size=1, max_size=80,
                        unique=True),
       observed=st.lists(st.integers(0, 320), max_size=200),
       truth=st.lists(st.booleans(), min_size=321, max_size=321))
@settings(max_examples=200, deadline=None)
def test_dense_label_scratch_equals_isin_searchsorted(members, observed,
                                                      truth):
    # Observations repeat uids freely (a tuple seen by the test phase and
    # again by inference), always with the same label: Θ is a function.
    members = np.asarray(members, dtype=np.uint64)
    observed_uids = np.asarray(observed, dtype=np.uint64)
    observed_labels = np.asarray([truth[u] for u in observed], dtype=bool)
    got = _observed_labels(members, observed_uids, observed_labels)
    assert got.dtype == np.int8
    assert np.array_equal(
        got, _isin_searchsorted_labels(members, observed_uids,
                                       observed_labels))
