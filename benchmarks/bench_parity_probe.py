"""Exact QPF-accounting parity across every execution mode.

Not a paper figure: this is the regression gate for the reproduction's
own execution machinery.  The probe is the acceptance workload of
``tests/test_obs_parity.py`` — a 2000-row uniform table, 120 distinct
``X < c`` comparisons with pinned seeds — whose deterministic global
cost is **24496 qpf_uses**.  Every execution mode must land on that
exact number:

* ``serial`` — lone ``TrustedMachine``, the reference.
* ``traced`` — same run under a live ``Tracer`` (observation must not
  perturb work).
* ``shard_thread`` — a two-worker ``QPFShardPool`` (sharding changes
  *where* tuples are evaluated, never *how many*).
* ``engine_serial`` — the full SQL path (parse -> plan cache -> physical
  operators) on a seed-twin ``EncryptedDatabase``; the planner layer
  must add zero QPF.
* ``engine_batched`` — ``execute_many`` lock-step coalescing with
  ``window=1``, which shares the batching machinery while keeping each
  query's refinements visible to the next; physical work must be
  byte-identical to serial.  (Wider windows legitimately do *more* work
  on a cold PRKB — refinements cannot propagate inside a window — so
  they are not part of the exact-parity gate.)

Counts alone would pass a mode that returns the wrong set at the right
cost, so every mode's winners are also checked, query by query, against
a numpy oracle over the plaintext column — as sets for the PRKB-level
modes, and as the identical strictly increasing uid array for the two
engine modes (the operator contract).  A mismatch is a ``_check``
failure like a miscount.

Results land in ``BENCH_parity.json``; CI diffs them with
``bench_diff.py --threshold 0`` so a single stray QPF use anywhere in
the stack fails the build.  ``--tiny`` is accepted for CLI uniformity
but changes nothing: the probe is already seconds-scale and its
constants are pinned by the expected total.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.bench import Testbed
from repro.edbms.engine import EncryptedDatabase
from repro.obs import Tracer
from repro.workloads import distinct_comparison_thresholds, uniform_table

from _common import emit, emit_note, parse_bench_args, write_bench_json

DOMAIN = (1, 300_000)
NUM_ROWS = 2_000
NUM_QUERIES = 120
#: The probe's deterministic global cost — the one pin: the other parity
#: benches import it and the parity tests load it from this file.
EXPECTED_QPF = 24496
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parity.json"

#: ``QPFShardPool`` result labels (``shard_<name>``), at two workers.
SHARD_MODES = ("thread",)


def _thresholds() -> list[int]:
    return [int(t) for t in
            distinct_comparison_thresholds(DOMAIN, NUM_QUERIES, seed=1)]


def _probe_table():
    return uniform_table("t", NUM_ROWS, ["X"], domain=DOMAIN, seed=0)


def _run_testbed(tracer=None, **testbed_kwargs):
    """The probe through the PRKB directly; returns its parity stats,
    the plaintext table and the per-query winners."""
    bed = Testbed(_probe_table(), ["X"], seed=7, **testbed_kwargs)
    if tracer is not None:
        bed.counter.tracer = tracer
    try:
        answers = []
        for threshold in _thresholds():
            trapdoor = bed.owner.comparison_trapdoor("X", "<", threshold)
            answers.append(bed.prkb["X"].select(trapdoor).winners)
        return ({"qpf_uses": bed.counter.qpf_uses,
                 "partitions": bed.prkb["X"].pop.num_partitions},
                bed.plain, answers)
    finally:
        bed.close()


def _engine_twin() -> EncryptedDatabase:
    """A seed-twin of the testbed probe behind the full SQL front end.

    ``EncryptedDatabase(seed=7)`` derives the same owner key as
    ``Testbed(..., seed=7)`` and ``enable_prkb`` seeds the lone index
    identically, so the physical refinement sequence is the probe's.
    """
    db = EncryptedDatabase(seed=7)
    table = _probe_table()
    db.create_table("t", {"X": DOMAIN}, {"X": table.columns["X"]})
    db.enable_prkb("t", ["X"])
    return db


def _run_engine(batched: bool):
    db = _engine_twin()
    sqls = [f"SELECT * FROM t WHERE X < {t}" for t in _thresholds()]
    if batched:
        answers = []
        for lo in range(0, len(sqls), 8):
            answers.extend(db.execute_many(sqls[lo:lo + 8], window=1))
    else:
        answers = [db.query(sql) for sql in sqls]
    return ({"qpf_uses": db.counter.qpf_uses}, db.owner.plain_table("t"),
            [answer.uids for answer in answers])


def _answer_mismatches(mode: str, plain, answers, ordered: bool
                       ) -> list[str]:
    """Queries whose winners differ from the plaintext oracle; with
    ``ordered`` the winners must be the oracle's strictly increasing
    array itself, not just its set."""
    column = plain.columns["X"]
    mismatches = []
    for threshold, got in zip(_thresholds(), answers):
        want = np.sort(plain.uids[column < threshold])
        if ordered and np.any(got[1:] <= got[:-1]):
            mismatches.append(
                f"{mode}: X < {threshold}: uids not strictly increasing")
        elif not np.array_equal(got if ordered else np.sort(got), want):
            mismatches.append(
                f"{mode}: X < {threshold}: {got.size} winners, oracle "
                f"has {want.size}")
    return mismatches


def _measure() -> tuple[dict, list[str]]:
    """Every mode's parity stats (the JSON envelope) plus the answer
    mismatches against the oracle (reported, never stored)."""
    runs = {"serial": _run_testbed(),
            "traced": _run_testbed(tracer=Tracer(capacity=8192))}
    for mode in SHARD_MODES:
        runs[f"shard_{mode}"] = _run_testbed(qpf_workers=2)
    runs["engine_serial"] = _run_engine(batched=False)
    runs["engine_batched"] = _run_engine(batched=True)
    results, mismatches = {}, []
    for mode, (stats, plain, answers) in runs.items():
        results[mode] = stats
        mismatches += _answer_mismatches(mode, plain, answers,
                                         ordered=mode.startswith("engine"))
    results["expected"] = {"qpf_uses": EXPECTED_QPF}
    return results, mismatches


def _check(results: dict, mismatches: list[str]) -> list[str]:
    failures = []
    for mode, stats in results.items():
        if mode == "expected":
            continue
        if stats["qpf_uses"] != EXPECTED_QPF:
            failures.append(
                f"{mode}: qpf_uses {stats['qpf_uses']} != {EXPECTED_QPF}")
    return failures + mismatches


def _report(results: dict, out=None) -> None:
    rows = [[mode, stats["qpf_uses"],
             "yes" if stats["qpf_uses"] == EXPECTED_QPF else "NO"]
            for mode, stats in results.items() if mode != "expected"]
    emit("parity_probe",
         f"QPF parity probe: {NUM_QUERIES} queries, expected "
         f"qpf_uses={EXPECTED_QPF}",
         ["mode", "qpf_uses", "exact"], rows)
    emit_note("parity_probe",
              "gate: bench_diff --threshold 0 against BENCH_parity.json")
    write_bench_json(out or JSON_PATH, "parity_probe", 7, results)


def test_parity_probe():
    results, mismatches = _measure()
    _report(results)
    assert not _check(results, mismatches)


def main(argv: list[str]) -> int:
    args = parse_bench_args(argv)
    results, mismatches = _measure()
    _report(results, out=args.out)
    failures = _check(results, mismatches)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: all {len(results) - 1} modes report exactly "
          f"{EXPECTED_QPF} qpf_uses and the oracle's winners")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
