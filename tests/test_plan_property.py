"""Property test for the cost-based dispatch's quality guarantee.

The planner documents a bound (:data:`repro.plan.ESTIMATE_BOUND`,
:data:`repro.plan.ESTIMATE_SLACK`): a chosen strategy's *actual* QPF
spend never exceeds the worst rejected alternative's estimate by more
than ``BOUND * estimate + SLACK``.  Hypothesis drives randomized
workloads (mixed operators, repeated predicates, refinement between
queries) through EXPLAIN ANALYZE and checks the bound on every step
that recorded rejected alternatives — i.e. every step where the
adaptive dispatch actually made a choice.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.edbms.engine import EncryptedDatabase
from repro.plan import ESTIMATE_BOUND, ESTIMATE_SLACK

_ROWS = 200

# Constants from a small pool so workloads naturally repeat predicates
# (exercising the cache-hit dispatch) and refine the same chains.
_CONSTANTS = st.integers(1, 19).map(lambda i: i * 50)

_SINGLE = st.tuples(st.sampled_from(["X", "Y", "Z"]),
                    st.sampled_from(["<", "<=", ">", ">="]),
                    _CONSTANTS)
_BOUNDED = st.tuples(st.sampled_from(["X", "Y"]), _CONSTANTS, _CONSTANTS)

_WORKLOAD = st.lists(st.one_of(_SINGLE, _BOUNDED), min_size=1,
                     max_size=8)


def _to_sql(query) -> str:
    if len(query) == 3 and isinstance(query[1], str):
        attribute, operator, constant = query
        return (f"SELECT * FROM t WHERE {attribute} {operator} "
                f"{constant}")
    attribute, a, b = query
    low, high = min(a, b), max(a, b) + 1
    return (f"SELECT * FROM t WHERE {attribute} > {low} "
            f"AND {attribute} < {high}")


def _fresh_db(seed: int) -> EncryptedDatabase:
    rng = np.random.default_rng(seed)
    db = EncryptedDatabase(seed=seed)
    db.create_table(
        "t",
        {"X": (0, 1001), "Y": (0, 1001), "Z": (0, 1001)},
        {name: rng.integers(1, 1001, size=_ROWS, dtype=np.int64)
         for name in ("X", "Y", "Z")},
    )
    db.enable_prkb("t", ["X", "Y"])
    return db


@given(workload=_WORKLOAD, seed=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_chosen_strategy_within_bound_of_rejected(workload, seed):
    db = _fresh_db(seed)
    for query in workload:
        analysis = db.explain_analyze(_to_sql(query))
        for analyzed in analysis.steps:
            step = analyzed.step
            if not step.alternatives:
                continue
            # The dispatch picked the cheapest estimate on the table...
            assert step.estimated_qpf <= min(
                cost for _, cost, _ in step.alternatives)
            # ...and the pick's real cost stays within the documented
            # bound of the *worst* rejected alternative's estimate.
            worst = max(cost for _, cost, _ in step.alternatives)
            assert analyzed.actual_qpf <= \
                ESTIMATE_BOUND * worst + ESTIMATE_SLACK


@given(workload=_WORKLOAD, seed=st.integers(0, 3))
@settings(max_examples=10, deadline=None)
def test_cache_accounting_is_consistent(workload, seed):
    db = _fresh_db(seed)
    for query in workload:
        db.query(_to_sql(query))
    planner = db.planner
    # Every plan() call is exactly one of hit / miss; invalidations only
    # ever accompany a miss (the replan after eviction).
    assert planner.cache_invalidations <= planner.cache_misses
    assert planner.cache_hits + planner.cache_misses >= len(workload)
    total_steps = sum(planner.strategy_counts.values())
    assert total_steps >= len(workload)
