"""Scale benchmark for the decrypted-column cache.

Not a paper figure: this pins the decrypted-column cache at
100k–500k-row scales.  Three sections:

* **modes** — full-table ``X < c`` probes through both Θ oracles
  (serial lone machine / two-worker thread pool), cold
  (``column_cache_bytes=0``) versus warm (default budget, primed and
  given one untimed steady-state pass).  Reports queries/sec, the
  warm-over-cold speedup and the column-cache hit ratio.
* **scaling** — the serial cold/warm pair again on a 5x larger table,
  so the speedup is pinned at two dataset sizes.
* **eviction** — three attributes round-robined through a budget that
  holds only 1.5 columns; resident bytes must respect the budget while
  answers stay exact.

The parity probe (see ``bench_parity_probe.py``) is
re-verified inline, cold and warm, in every mode: the cache must never
change QPF accounting.  Parity keys are scale-independent —
``--tiny`` shrinks only the throughput workloads — so CI can diff a
tiny run against the committed full-scale ``BENCH_scale.json`` with
``bench_diff.py --threshold 0`` plus wall-clock floors.

Run standalone with ``python benchmarks/bench_scale.py --tiny`` for a
seconds-scale smoke run.  The warm-over-cold ratio is not asserted
here: CI floors it against the committed baseline
(``--floor modes.serial.warm_speedup=0.5``), the one place it is gated.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench import Testbed
from repro.workloads import distinct_comparison_thresholds, uniform_table

from _common import emit, emit_note, parse_bench_args, write_bench_json
from bench_parity_probe import (
    DOMAIN as PARITY_DOMAIN,
    EXPECTED_QPF,
    NUM_QUERIES as PARITY_QUERIES,
    NUM_ROWS as PARITY_ROWS,
)

DOMAIN = (1, 1_000_000)
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

MODES = ("serial", "thread")


def _mode_kwargs(mode: str) -> dict:
    if mode == "serial":
        return {}
    return {"qpf_workers": 2}


def _throughput(table, mode: str, warm: bool, thresholds) -> dict:
    """Best-of-N full-table probe throughput for one mode/temperature."""
    bed = Testbed(table, [], seed=7,
                  column_cache_bytes=None if warm else 0,
                  **_mode_kwargs(mode))
    try:
        trapdoors = [bed.owner.comparison_trapdoor("X", "<", int(c))
                     for c in thresholds]
        uids = table.uids
        if warm:
            bed.prime_column_cache("X")
        # One untimed pass: unseals the predicates on every machine.
        for trapdoor in trapdoors:
            bed.qpf.batch(trapdoor, bed.table, uids)
        before = bed.counter.snapshot()
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for trapdoor in trapdoors:
                bed.qpf.batch(trapdoor, bed.table, uids)
            best = min(best, time.perf_counter() - start)
        spent = bed.counter.diff(before)
        lookups = spent.column_cache_hits + spent.column_cache_misses
        return {
            "queries_per_sec": round(len(trapdoors) / best, 2),
            "cache_hit_ratio": round(
                spent.column_cache_hits / lookups, 4) if lookups else 0.0,
        }
    finally:
        bed.close()


def _mode_section(table, thresholds) -> dict:
    results = {}
    for mode in MODES:
        cold = _throughput(table, mode, warm=False, thresholds=thresholds)
        warm = _throughput(table, mode, warm=True, thresholds=thresholds)
        results[mode] = {
            "cold_queries_per_sec": cold["queries_per_sec"],
            "warm_queries_per_sec": warm["queries_per_sec"],
            "warm_speedup": round(
                warm["queries_per_sec"] / cold["queries_per_sec"], 2),
            "cache_hit_ratio": warm["cache_hit_ratio"],
        }
    return results


def _scaling_section(rows: int, thresholds) -> dict:
    table = uniform_table("t", rows, ["X"], domain=DOMAIN, seed=0)
    cold = _throughput(table, "serial", warm=False, thresholds=thresholds)
    warm = _throughput(table, "serial", warm=True, thresholds=thresholds)
    return {
        "rows": rows,
        "cold_queries_per_sec": cold["queries_per_sec"],
        "warm_queries_per_sec": warm["queries_per_sec"],
        "warm_speedup": round(
            warm["queries_per_sec"] / cold["queries_per_sec"], 2),
    }


def _eviction_section(rows: int) -> dict:
    """Three columns through a budget that holds only 1.5 of them."""
    table = uniform_table("t", rows, ["A", "B", "C"], domain=DOMAIN,
                          seed=3)
    budget = int(rows * 8 * 1.5)
    bed = Testbed(table, [], seed=7, column_cache_bytes=budget)
    exact = Testbed(table, [], seed=7, column_cache_bytes=0)
    try:
        mismatches = 0
        over_budget = 0
        for round_no in range(4):
            for attribute in ("A", "B", "C"):
                constant = DOMAIN[1] // (2 + round_no)
                trapdoor = bed.owner.comparison_trapdoor(
                    attribute, "<", constant)
                got = bed.qpf.batch(trapdoor, bed.table, table.uids)
                want = exact.qpf.batch(trapdoor, exact.table, table.uids)
                mismatches += int(not np.array_equal(got, want))
                if bed.column_cache_stats()["resident_bytes"] > budget:
                    over_budget += 1
        stats = bed.column_cache_stats()
        return {
            "budget_bytes": budget,
            "resident_bytes": stats["resident_bytes"],
            "evictions": bed.counter.column_cache_evictions,
            "over_budget_observations": over_budget,
            "label_mismatches": mismatches,
        }
    finally:
        bed.close()
        exact.close()


def _parity_section() -> dict:
    """The parity probe, every mode, cold and warm caches."""
    thresholds = [int(t) for t in distinct_comparison_thresholds(
        PARITY_DOMAIN, PARITY_QUERIES, seed=1)]
    results = {}
    for mode in MODES:
        for warm in (False, True):
            table = uniform_table("t", PARITY_ROWS, ["X"],
                                  domain=PARITY_DOMAIN, seed=0)
            bed = Testbed(table, ["X"], seed=7,
                          column_cache_bytes=None if warm else 0,
                          **_mode_kwargs(mode))
            try:
                if warm:
                    bed.prime_column_cache("X")
                for threshold in thresholds:
                    trapdoor = bed.owner.comparison_trapdoor(
                        "X", "<", threshold)
                    bed.prkb["X"].select(trapdoor)
                label = f"{mode}_{'warm' if warm else 'cold'}"
                results[label] = {"qpf_uses": bed.counter.qpf_uses}
            finally:
                bed.close()
    results["expected"] = {"qpf_uses": EXPECTED_QPF}
    return results


def _measure(tiny: bool) -> dict:
    rows = 5_000 if tiny else 100_000
    num_queries = 8 if tiny else 16
    thresholds = distinct_comparison_thresholds(DOMAIN, num_queries,
                                                seed=1)
    table = uniform_table("t", rows, ["X"], domain=DOMAIN, seed=0)
    results = {
        "workload": {"rows": rows, "queries": num_queries},
        "modes": _mode_section(table, thresholds),
        "scaling": _scaling_section(20_000 if tiny else 500_000,
                                    thresholds),
        "eviction": _eviction_section(2_000 if tiny else 20_000),
        "parity": _parity_section(),
    }
    results["peak_rss_kb"] = int(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return results


def _check(results: dict) -> list[str]:
    failures = []
    for label, stats in results["parity"].items():
        if stats["qpf_uses"] != EXPECTED_QPF:
            failures.append(f"parity {label}: qpf_uses "
                            f"{stats['qpf_uses']} != {EXPECTED_QPF}")
    eviction = results["eviction"]
    if eviction["resident_bytes"] > eviction["budget_bytes"]:
        failures.append("eviction: resident bytes exceed the budget")
    if eviction["over_budget_observations"]:
        failures.append("eviction: budget was exceeded mid-workload")
    if eviction["label_mismatches"]:
        failures.append("eviction: warm labels diverged from cold")
    return failures


def _report(results: dict, out=None) -> None:
    rows = [[mode,
             stats["cold_queries_per_sec"],
             stats["warm_queries_per_sec"],
             stats["warm_speedup"],
             stats["cache_hit_ratio"]]
            for mode, stats in results["modes"].items()]
    emit("scale",
         f"Column-cache scale bench: {results['workload']['rows']} rows, "
         f"{results['workload']['queries']} full-table probes "
         f"(peak RSS {results['peak_rss_kb']} KB)",
         ["mode", "cold q/s", "warm q/s", "speedup", "hit ratio"], rows)
    scaling = results["scaling"]
    emit_note("scale",
              f"scaling: {scaling['rows']} rows -> cold "
              f"{scaling['cold_queries_per_sec']} q/s, warm "
              f"{scaling['warm_queries_per_sec']} q/s "
              f"(speedup {scaling['warm_speedup']})")
    eviction = results["eviction"]
    emit_note("scale",
              f"eviction: resident {eviction['resident_bytes']}B of "
              f"{eviction['budget_bytes']}B budget, "
              f"{eviction['evictions']} evictions, "
              f"{eviction['label_mismatches']} mismatches")
    parity = ", ".join(
        f"{label}={stats['qpf_uses']}"
        for label, stats in results["parity"].items() if label != "expected")
    emit_note("scale", f"parity probe ({EXPECTED_QPF} expected): {parity}")
    write_bench_json(out or JSON_PATH, "scale", 7, results)


def main(argv: list[str]) -> int:
    args = parse_bench_args(argv)
    results = _measure(tiny=args.tiny)
    _report(results, out=args.out)
    failures = _check(results)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK: parity exact in all modes cold+warm; budgets respected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
