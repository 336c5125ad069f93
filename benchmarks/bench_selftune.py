"""Self-tuning cost feedback: learned corrections shrink estimate error.

Not a paper figure: this measures the plan-outcome feedback loop added
on top of the reproduction.  Setting: a uniform table whose PRKB chain
is warmed *only* on the hot quarter of the domain under a partition cap
(``max_partitions``), so the cold three quarters stay one giant frozen
partition.  The evaluation workload is skew-shifted: distinct
``BETWEEN`` ranges over the cold region, which the analytic model
underprices twice over — a BETWEEN is priced as a single comparison but
runs two endpoint NS-pair scans, and those scans cross the unrefined
giant partition the uniform ``2·(2n/k)`` model never sees.

Phase A runs the workload uncorrected with a plan-outcome ledger
attached and learns per-step-fingerprint correction factors from its
knowledge atoms; phase B replays the identical workload on a seed-twin
database with ``apply_corrections`` installed.  Checks: the corrected
twin returns bit-identical winner sets, the estimate-error p90 shrinks
by >= 2x, and the canonical parity probe stays exact with the
ledger enabled and corrections off (the default posture).

Results land in ``BENCH_selftune.json``; CI diffs them with
``bench_diff.py --threshold 0 --floor improvement.error_p90_shrink=0.5``
so QPF parity gates exactly and the learned improvement cannot silently
regress.  Run standalone with ``python benchmarks/bench_selftune.py
--tiny`` for a seconds-scale smoke run without pytest.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.bench import bench_seed
from repro.edbms.engine import EncryptedDatabase
from repro.workloads import distinct_comparison_thresholds, uniform_table

from _common import (emit, emit_note, parse_bench_args, scaled,
                     write_bench_json)
# The canonical parity probe: recording knowledge atoms must not move it.
from bench_parity_probe import (
    DOMAIN as PARITY_DOMAIN,
    EXPECTED_QPF,
    NUM_QUERIES as PARITY_QUERIES,
    NUM_ROWS as PARITY_ROWS,
)

DOMAIN = (1, 1_000_000)
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_selftune.json"



def _build(n: int, cap: int, warm: int) -> EncryptedDatabase:
    """One skew-warmed capped testbed; twins built alike match exactly.

    Warm-up thresholds all fall in the hot quarter of the domain, so
    every chain split lands there before the cap freezes the index —
    the cold region keeps its single unrefined partition.
    """
    base = bench_seed()
    db = EncryptedDatabase(seed=base + 41)
    rng = np.random.default_rng(base + 7)
    db.create_table(
        "t", {"X": DOMAIN},
        {"X": rng.integers(DOMAIN[0], DOMAIN[1] + 1, size=n)})
    db.enable_prkb("t", ["X"], max_partitions=cap)
    lo, hi = DOMAIN
    hot_hi = lo + (hi - lo) // 4
    for threshold in distinct_comparison_thresholds(
            (lo, hot_hi), warm, seed=base + 13):
        db.query(f"SELECT * FROM t WHERE X < {int(threshold)}")
    db.counter.reset()
    return db


def _workload(size: int) -> list[str]:
    """Distinct cold-region BETWEENs (skew-shifted away from the warm
    hot quarter).  Distinct endpoints keep the equivalence cache out of
    the picture: every query is a genuinely executed, *exact* atom."""
    rng = np.random.default_rng(bench_seed() + 17)
    lo, hi = DOMAIN
    cold_lo = lo + (hi - lo) // 2
    seen: set[tuple[int, int]] = set()
    sqls: list[str] = []
    while len(sqls) < size:
        a = int(rng.integers(cold_lo, hi))
        b = int(rng.integers(cold_lo, hi))
        low, high = min(a, b), max(a, b)
        if low == high or (low, high) in seen:
            continue
        seen.add((low, high))
        sqls.append(f"SELECT * FROM t WHERE X BETWEEN {low} AND {high}")
    return sqls


def _run_phase(n: int, cap: int, warm: int, sqls: list[str],
               ledger_dir: Path, corrections: dict | None = None):
    """One full phase: build the twin, attach the ledger, run, report."""
    db = _build(n, cap, warm)
    store = db.enable_outcomes(ledger_dir, fsync="every:16")
    if corrections:
        db.apply_corrections(corrections)
    answers = [db.query(sql) for sql in sqls]
    report = store.report()
    learned = store.corrections()
    ledger_stats = db.ledger.stats()
    db.close()
    return answers, report, learned, ledger_stats


def _run_parity(ledger_dir: Path) -> int:
    """The parity probe with a live ledger, corrections off."""
    db = EncryptedDatabase(seed=7)
    table = uniform_table("t", PARITY_ROWS, ["X"],
                          domain=PARITY_DOMAIN, seed=0)
    db.create_table("t", {"X": PARITY_DOMAIN},
                    {"X": table.columns["X"]})
    db.enable_prkb("t", ["X"])
    db.enable_outcomes(ledger_dir, fsync="every:16")
    for threshold in distinct_comparison_thresholds(
            PARITY_DOMAIN, PARITY_QUERIES, seed=1):
        db.query(f"SELECT * FROM t WHERE X < {int(threshold)}")
    qpf = db.counter.qpf_uses
    db.close()
    return qpf


def _measure(n: int, cap: int, warm: int, queries: int) -> dict:
    sqls = _workload(queries)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        answers_a, report_a, learned, ledger_stats = _run_phase(
            n, cap, warm, sqls, scratch / "uncorrected")
        answers_b, report_b, __, __unused = _run_phase(
            n, cap, warm, sqls, scratch / "corrected",
            corrections=learned)
        parity_qpf = _run_parity(scratch / "parity")
    answers_equal = all(
        np.array_equal(a.uids, b.uids)
        for a, b in zip(answers_a, answers_b))
    shrink = report_a["error_p90"] / max(report_b["error_p90"], 1e-9)
    return {
        "parity": {"qpf_uses": parity_qpf, "expected_qpf": EXPECTED_QPF},
        "uncorrected": {"error_p50": report_a["error_p50"],
                        "error_p90": report_a["error_p90"]},
        "corrected": {"error_p50": report_b["error_p50"],
                      "error_p90": report_b["error_p90"]},
        "improvement": {"error_p90_shrink": shrink},
        "corrections": dict(learned),
        "corrections_learned": len(learned),
        "ledger_records": ledger_stats["records_written"],
        "answers_equal": answers_equal,
        "workload": {"rows": n, "cap": cap, "warm": warm,
                     "queries": queries},
        "seed": bench_seed(),
    }


def _report(results: dict, out=None) -> None:
    rows = [["uncorrected",
             f"{results['uncorrected']['error_p50']:.2f}",
             f"{results['uncorrected']['error_p90']:.2f}"],
            ["corrected",
             f"{results['corrected']['error_p50']:.2f}",
             f"{results['corrected']['error_p90']:.2f}"]]
    workload = results["workload"]
    emit(
        "selftune",
        f"Self-tuning cost feedback: symmetric estimate error, "
        f"{workload['queries']} cold-region BETWEENs "
        f"(n={workload['rows']}, cap={workload['cap']})",
        ["phase", "error p50", "error p90"],
        rows,
    )
    emit_note(
        "selftune",
        f"p90 shrink {results['improvement']['error_p90_shrink']:.1f}x | "
        f"corrections={results['corrections']} | "
        f"parity qpf_uses={results['parity']['qpf_uses']} "
        f"(expected {EXPECTED_QPF}) | "
        f"answers_equal={results['answers_equal']} | "
        f"seed={results['seed']}")
    metrics = {k: v for k, v in results.items()
               if k not in ("seed", "corrections")}
    write_bench_json(out or JSON_PATH, "selftune", results["seed"],
                     metrics)


def _check(results: dict) -> None:
    assert results["parity"]["qpf_uses"] == EXPECTED_QPF, \
        f"ledger recording perturbed the parity probe: " \
        f"{results['parity']['qpf_uses']} != {EXPECTED_QPF}"
    assert results["answers_equal"], \
        "corrections changed winner sets"
    assert results["corrections_learned"] >= 1, \
        "phase A learned no correction factors"
    shrink = results["improvement"]["error_p90_shrink"]
    assert shrink >= 2.0, \
        f"corrections must shrink estimate-error p90 >= 2x, " \
        f"got {shrink:.2f}x"


def test_selftune():
    results = _measure(n=scaled(4_000), cap=48, warm=120, queries=48)
    _report(results)
    _check(results)


def main(argv: list[str]) -> int:
    args = parse_bench_args(argv)
    tiny = args.tiny
    n = 1_200 if tiny else scaled(4_000)
    cap = 24 if tiny else 48
    warm = 40 if tiny else 120
    queries = 24 if tiny else 48
    results = _measure(n, cap, warm, queries)
    _report(results, out=args.out)
    _check(results)
    print(f"OK: estimate-error p90 shrink "
          f"{results['improvement']['error_p90_shrink']:.1f}x, parity "
          f"{results['parity']['qpf_uses']} == {EXPECTED_QPF}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
