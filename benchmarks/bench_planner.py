"""Cost-based planner dispatch — adaptive vs forced strategies.

Not a paper figure: this measures the planner/executor split added on
top of the reproduction.  Setting: a uniform three-attribute table (X
and Y indexed, Z not), PRKB warmed by a short schedule of distinct
comparisons, then a mixed workload — single comparisons (with repeats),
fully-bounded one- and two-dimensional ranges and unindexed predicates
— executed under three dispatch policies on twin databases:

* ``adaptive``    — ``strategy="auto"``: the cost-based choice;
* ``forced_prkb`` — ``strategy="md"``: every indexed predicate through
  PRKB, the grid forced from one bounded dimension up;
* ``forced_scan`` — ``strategy="baseline"``: every predicate a linear
  scan.

Checks: all three policies return identical winner sets, the adaptive
policy never spends more QPF than the forced scan, and the plan cache
serves repeats (hits > 0, invalidations < misses).  Script runs write
``BENCH_planner.json`` at the repo root (or ``--out``) for
``bench_diff.py``/CI; pytest runs write it under ``benchmarks/results/``.

Run standalone with ``python benchmarks/bench_planner.py --tiny`` for a
seconds-scale smoke run without pytest.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import bench_seed
from repro.edbms.engine import EncryptedDatabase
from repro.workloads import distinct_comparison_thresholds

from _common import (RESULTS_DIR, emit, emit_note, parse_bench_args,
                     scaled, write_bench_json)

DOMAIN = (1, 1_000_000)
MODES = {"adaptive": "auto", "forced_prkb": "md",
         "forced_scan": "baseline"}
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner.json"


def _build(n: int, warm_queries: int) -> EncryptedDatabase:
    """One warmed testbed; twins built with the same arguments match."""
    base = bench_seed()
    db = EncryptedDatabase(seed=base + 23)
    rng = np.random.default_rng(base + 5)
    db.create_table(
        "t",
        {"X": DOMAIN, "Y": DOMAIN, "Z": DOMAIN},
        {name: rng.integers(DOMAIN[0], DOMAIN[1], size=n)
         for name in ("X", "Y", "Z")},
    )
    db.enable_prkb("t", ["X", "Y"])
    for offset, attribute in enumerate(("X", "Y"), start=1):
        for threshold in distinct_comparison_thresholds(
                DOMAIN, warm_queries, seed=base + 31 * offset):
            db.query(f"SELECT * FROM t WHERE {attribute} "
                     f"< {int(threshold)}")
    db.counter.reset()
    planner = db.planner
    planner.cache_hits = 0
    planner.cache_misses = 0
    planner.cache_invalidations = 0
    planner.strategy_counts.clear()
    return db


def _workload(size: int) -> list[str]:
    """Mixed statements: singles (with repeats), 1-D/2-D ranges, Z scans."""
    rng = np.random.default_rng(bench_seed() + 9)
    lo, hi = DOMAIN
    sqls: list[str] = []
    for i in range(size):
        shape = i % 5
        a = int(rng.integers(lo, hi))
        b = int(rng.integers(lo, hi))
        low, high = min(a, b), max(a, b) + 1
        if shape == 0:
            sqls.append(f"SELECT * FROM t WHERE X < {a}")
        elif shape == 1:
            sqls.append(f"SELECT * FROM t WHERE X > {low} "
                        f"AND X < {high}")
        elif shape == 2:
            sqls.append(f"SELECT * FROM t WHERE X > {low} AND X < {high} "
                        f"AND Y > {low} AND Y < {high}")
        elif shape == 3:
            sqls.append(f"SELECT * FROM t WHERE Z < {a}")
        else:
            # Immediate repeat: no refinement in between, so the
            # cached plan's fingerprint still matches -> plan-cache hit.
            sqls.append(sqls[-1])
    return sqls


#: Measured repetitions of the steady-state pass; walls take the best
#: (work counts are identical across reps), which filters scheduler
#: noise on shared machines without inflating the workload.
MEASURE_REPS = 3


def _measure(n: int, warm_queries: int, workload_size: int) -> dict:
    """Steady-state dispatch: two warm passes, then a measured repeat.

    The cold pass builds every plan and lets PRKB refine on first
    contact; the second pass settles the remaining invalidations
    (cold predicates flip to cached-equivalence, which is part of the
    plan fingerprint).  The measured pass is the cached-plan workload
    the tentpole targets: every repeat should be a plan-cache hit, and
    adaptive dispatch should run within a few percent of forced PRKB.
    """
    sqls = _workload(workload_size)
    results: dict[str, dict] = {}
    answers: dict[str, list] = {}
    plan_stats: dict[str, dict] = {}
    for mode, strategy in MODES.items():
        db = _build(n, warm_queries)
        planner = db.planner
        for _ in range(2):  # cold + stabilization passes (unmeasured)
            for sql in sqls:
                db.query(sql, strategy=strategy)
        best = float("inf")
        for _ in range(MEASURE_REPS):
            db.counter.reset()
            planner.cache_hits = 0
            planner.cache_misses = 0
            planner.cache_invalidations = 0
            planner.strategy_counts.clear()
            start = time.perf_counter()
            answers[mode] = [db.query(sql, strategy=strategy)
                             for sql in sqls]
            best = min(best, time.perf_counter() - start)
        results[mode] = {
            "qpf_total": db.counter.qpf_uses,
            "qpf_per_query": db.counter.qpf_uses / workload_size,
            "wall_seconds": best,
            "queries_per_sec": workload_size / max(best, 1e-9),
        }
        plan_stats[mode] = {
            "plan_cache_hits": planner.cache_hits,
            "plan_cache_misses": planner.cache_misses,
            "plan_cache_invalidations": planner.cache_invalidations,
            "strategies": dict(planner.strategy_counts),
        }
    for mode in ("forced_prkb", "forced_scan"):
        for adaptive, other in zip(answers["adaptive"], answers[mode]):
            assert np.array_equal(adaptive.uids, other.uids), \
                f"{mode} winners differ from adaptive"
    results["plan_cache"] = plan_stats["adaptive"]
    results["workload_size"] = workload_size
    results["adaptive_vs_prkb_wall_ratio"] = (
        results["adaptive"]["wall_seconds"]
        / max(results["forced_prkb"]["wall_seconds"], 1e-9))
    results["seed"] = bench_seed()
    return results


def _report(results: dict, n: int, out=None) -> None:
    rows = [[mode,
             f"{results[mode]['qpf_total']}",
             f"{results[mode]['qpf_per_query']:.1f}",
             f"{results[mode]['queries_per_sec']:.0f}"]
            for mode in MODES]
    emit(
        "planner_dispatch",
        f"Cost-based dispatch: adaptive vs forced strategies (n={n})",
        ["policy", "QPF total", "QPF/query", "queries/s"],
        rows,
    )
    cache = results["plan_cache"]
    emit_note("planner_dispatch",
              f"adaptive plan cache: {cache['plan_cache_hits']} hits / "
              f"{cache['plan_cache_misses']} misses / "
              f"{cache['plan_cache_invalidations']} invalidations | "
              f"adaptive/prkb wall "
              f"{results['adaptive_vs_prkb_wall_ratio']:.3f} | "
              f"strategies={cache['strategies']} | "
              f"seed={results['seed']}")
    metrics = {k: v for k, v in results.items() if k != "seed"}
    write_bench_json(out or JSON_PATH, "planner_dispatch",
                     results["seed"], metrics)


def _check(results: dict) -> None:
    adaptive = results["adaptive"]["qpf_total"]
    scan = results["forced_scan"]["qpf_total"]
    assert adaptive <= scan, \
        f"adaptive dispatch must not lose to forced scans: " \
        f"{adaptive} vs {scan}"
    cache = results["plan_cache"]
    floor = int(0.8 * results["workload_size"])
    assert cache["plan_cache_hits"] >= floor, \
        f"steady-state pass must serve >= {floor} plans from cache, " \
        f"got {cache['plan_cache_hits']}"
    assert cache["plan_cache_invalidations"] <= \
        cache["plan_cache_misses"]
    # Near-zero dispatch: the adaptive policy's steady-state wall must
    # track forced PRKB (identical execution on cache hits).  The bound
    # is looser than the committed baseline's ratio to keep CI smoke
    # runs on loaded machines from flaking.
    ratio = results["adaptive_vs_prkb_wall_ratio"]
    assert ratio <= 1.25, \
        f"adaptive steady-state wall drifted from forced PRKB: " \
        f"{ratio:.3f}x"


def test_planner_dispatch(benchmark):
    n = scaled(4_000)
    results = _measure(n, warm_queries=40, workload_size=50)
    # Under pytest the root baseline stays untouched: only script mode
    # (and CI's ``--out``) writes a gate file.
    _report(results, n, out=RESULTS_DIR / "BENCH_planner.json")
    _check(results)
    # Benchmark the planning fast path: repeat plans served from cache.
    db = _build(n, warm_queries=40)
    sql = "SELECT * FROM t WHERE X > 1000 AND X < 500000"
    db.query(sql)
    benchmark(lambda: db.explain(sql))


def main(argv: list[str]) -> int:
    args = parse_bench_args(argv)
    tiny = args.tiny
    n = 800 if tiny else scaled(4_000)
    warm = 15 if tiny else 40
    workload = 20 if tiny else 50
    results = _measure(n, warm_queries=warm, workload_size=workload)
    _report(results, n, out=args.out)
    _check(results)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
