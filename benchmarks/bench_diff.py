"""Compare two ``BENCH_*.json`` files; fail CI on real regressions.

Usage::

    python benchmarks/bench_diff.py BASELINE.json CURRENT.json \
        [--threshold 0.10] [--warn-wall]

Both files use the shared envelope written by
``_common.write_bench_json`` (legacy flat files are accepted too).
Metrics are flattened to dotted keys and classified:

* **qpf** — any key mentioning ``qpf``: deterministic work counts.
  A >threshold regression here always exits nonzero.
* **wall** — keys mentioning wall time or throughput (``per_sec``,
  ``wall``, ``_ms``, ``seconds``, ``speedup``, ``throughput``): noisy
  on shared machines.  Regressions exit nonzero unless ``--warn-wall``
  downgrades them to warnings.
* **info** — everything else (cache tallies, record counts): reported,
  never fatal.

A baseline key absent from the current file is never silent: a missing
**qpf** key exits nonzero (a parity gate that stops measuring a mode is
not a gate — regenerate the baseline in the same change if the metric
is meant to go), a missing wall/info key is printed as a note.

``--floor KEY=FRACTION`` promotes one metric back to a hard gate even
under ``--warn-wall``: the run fails when the current value drops below
``FRACTION`` of the baseline's.  CI uses it to hold a throughput floor
(e.g. ``--floor adaptive.queries_per_sec=0.8``) while ordinary
wall-clock noise stays warn-only.

Direction matters: throughput-like keys (``per_sec``, ``speedup``,
``saved``, ``hits``, ``hit_ratio``, ``recovered``, ``throughput``) are
better *higher*; all other numeric keys are better *lower*.
"""

from __future__ import annotations

import argparse
import sys

from _common import load_bench_json

__all__ = ["flatten", "classify", "higher_is_better", "diff",
           "missing_keys", "check_floors", "main"]

#: Substrings marking a metric where bigger numbers are improvements.
_HIGHER_BETTER = ("per_sec", "speedup", "saved", "hits", "hit_ratio",
                  "recovered", "throughput")
#: Substrings marking a wall-clock / throughput metric (noisy).
_WALL = ("per_sec", "wall", "_ms", "ms_", "seconds", "speedup",
         "throughput", "latency")


def flatten(metrics: dict, prefix: str = "") -> dict:
    """Nested metric dicts -> one level of dotted keys (numbers only)."""
    flat: dict[str, float] = {}
    for key, value in metrics.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, prefix=f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[dotted] = float(value)
    return flat


def classify(key: str) -> str:
    """``"qpf"``, ``"wall"`` or ``"info"`` for one dotted metric key."""
    lowered = key.lower()
    if "qpf" in lowered:
        return "qpf"
    if any(mark in lowered for mark in _WALL):
        return "wall"
    return "info"


def higher_is_better(key: str) -> bool:
    lowered = key.lower()
    return any(mark in lowered for mark in _HIGHER_BETTER)


def diff(baseline: dict, current: dict, threshold: float) -> list[dict]:
    """Per-metric comparison; returns one record per shared numeric key.

    ``change`` is the signed relative change oriented so that positive
    means *worse* (cost grew, or throughput shrank); ``regressed`` marks
    changes beyond ``threshold``.
    """
    base = flatten(baseline["metrics"])
    cur = flatten(current["metrics"])
    records = []
    for key in sorted(set(base) & set(cur)):
        old, new = base[key], cur[key]
        if old == 0 and new == 0:
            worse = 0.0
        elif old == 0:
            worse = float("inf") if not higher_is_better(key) else -1.0
        else:
            change = (new - old) / abs(old)
            worse = -change if higher_is_better(key) else change
        records.append({
            "key": key,
            "kind": classify(key),
            "old": old,
            "new": new,
            "worse_by": worse,
            "regressed": worse > threshold,
        })
    return records


def missing_keys(baseline: dict, current: dict) -> list[str]:
    """Baseline metric keys the current file no longer reports."""
    return sorted(set(flatten(baseline["metrics"]))
                  - set(flatten(current["metrics"])))


def check_floors(baseline: dict, current: dict,
                 floors: list[str]) -> list[str]:
    """Evaluate ``KEY=FRACTION`` floor specs; returns failure messages.

    A floor holds when ``current[KEY] >= FRACTION * baseline[KEY]``.
    A key missing from either file is itself a failure — a floor that
    silently stops measuring is not a floor.
    """
    base = flatten(baseline["metrics"])
    cur = flatten(current["metrics"])
    failures = []
    for spec in floors:
        key, __, fraction_text = spec.partition("=")
        try:
            fraction = float(fraction_text)
        except ValueError:
            raise SystemExit(
                f"bad --floor spec {spec!r}; expected KEY=FRACTION")
        if key not in base or key not in cur:
            failures.append(
                f"floor metric {key!r} missing from "
                f"{'baseline' if key not in base else 'current'} file")
            continue
        minimum = fraction * base[key]
        if cur[key] < minimum:
            failures.append(
                f"{key} fell below its floor: {cur[key]:.4g} < "
                f"{fraction:g} x baseline {base[key]:.4g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two bench JSON files; nonzero on regression.")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression tolerance (default 0.10)")
    parser.add_argument("--warn-wall", action="store_true",
                        help="report wall-clock regressions without "
                             "failing (QPF regressions still fail)")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="KEY=FRACTION",
                        help="hard-fail when current KEY drops below "
                             "FRACTION of the baseline value, even "
                             "under --warn-wall (repeatable)")
    args = parser.parse_args(argv)

    baseline = load_bench_json(args.baseline)
    current = load_bench_json(args.current)
    if baseline.get("bench") != current.get("bench"):
        print(f"note: comparing bench {baseline.get('bench')!r} "
              f"(rev {baseline.get('git_rev')}) against "
              f"{current.get('bench')!r} (rev {current.get('git_rev')})")

    records = diff(baseline, current, args.threshold)
    if not records:
        print("no shared numeric metrics between the two files")
        return 1

    hard, warned = [], []
    for record in records:
        if not record["regressed"]:
            continue
        if record["kind"] == "qpf":
            hard.append(record)
        elif record["kind"] == "wall":
            (warned if args.warn_wall else hard).append(record)
        else:
            warned.append(record)

    shown = sorted(records, key=lambda r: -abs(r["worse_by"]))
    print(f"{len(records)} shared metrics "
          f"(threshold {100 * args.threshold:.0f}%):")
    for record in shown[:20]:
        direction = "worse" if record["worse_by"] > 0 else "better"
        pct = abs(record["worse_by"]) * 100
        pct_text = "inf" if pct == float("inf") else f"{pct:6.1f}%"
        flag = "REGRESSION" if record["regressed"] else "ok"
        print(f"  [{record['kind']:<4}] {record['key']:<50} "
              f"{record['old']:>12.4g} -> {record['new']:>12.4g}  "
              f"{pct_text} {direction}  {flag}")

    for record in warned:
        print(f"WARN: {record['kind']} metric {record['key']} regressed "
              f"{100 * record['worse_by']:.1f}% "
              f"({record['old']:.4g} -> {record['new']:.4g})")
    for record in hard:
        print(f"FAIL: {record['kind']} metric {record['key']} regressed "
              f"{100 * record['worse_by']:.1f}% "
              f"({record['old']:.4g} -> {record['new']:.4g})")
    vanished = []
    for key in missing_keys(baseline, current):
        if classify(key) == "qpf":
            vanished.append(key)
            print(f"FAIL: qpf metric {key} is in the baseline but "
                  f"missing from the current file")
        else:
            print(f"note: {classify(key)} metric {key} is in the "
                  f"baseline but missing from the current file")
    floor_failures = check_floors(baseline, current, args.floor)
    for message in floor_failures:
        print(f"FAIL: {message}")
    if hard or vanished or floor_failures:
        return 1
    print("bench_diff: no fatal regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
