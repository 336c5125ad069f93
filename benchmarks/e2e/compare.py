"""Compare two sets of run records of the end-to-end benchmark.

``python3 benchmarks/e2e/compare.py A B [--all]``

``A`` (the base) and ``B`` are run directories written by ``run.py``, or
comma-separated lists of them; with several runs on a side the medians
are compared and the base's run-to-run spread is known.  One row per
(workload, metric): both values, the ratio ``B/A``, and a verdict against
the metric's bound (``BENCHMARK.json`` ``end_to_end`` plus ``suite.json``
``workload_metrics``; ``suite.json`` ``workload_bounds`` tightens it where
one workload repeats better than the bound every workload must meet):

``regressed``   B is worse than A by more than the bound
``unresolved``  the base's spread is wider than the bound (and the two
                sides overlap), or only one side measured the metric
``ok``          otherwise

When both sides ran the same seeds, the metrics ``suite.json`` lists as
exact for a seed get its ``same_seed_bounds`` (0 unless stated).  Exits
non-zero on any regression or on a higher ``failed_ops_share``.
``--all`` also prints the per-layer metrics, which have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]


def load_side(argument: str) -> tuple[list[dict], list[int]]:
    """``([metrics.json contents], [seeds])`` of one side's runs."""
    metrics, seeds = [], []
    for part in argument.split(","):
        run_dir = Path(part)
        metrics.append(json.loads((run_dir / "metrics.json").read_text()))
        seeds.append(json.loads((run_dir / "meta.json").read_text())["seed"])
    return metrics, sorted(seeds)


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    found = (run.get(workload, {}).get(metric) for run in runs)
    return [value for value in found if value is not None]


def spread_share(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles with four or more runs, the range with two or three."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
        width = third - first
    else:
        width = max(values) - min(values)
    return abs(width / middle) if middle else (0.0 if width == 0 else
                                               float("inf"))


def worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    delta = other - base if better == "lower" else base - other
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else (float("inf") if delta > 0
                                   else float("-inf"))


def verdict(base: list[float], other: list[float], better: str,
            bound: float) -> str:
    if not base or not other:
        return "unresolved"
    worse = worsening(statistics.median(base), statistics.median(other),
                      better)
    spread = spread_share(base)
    if spread is not None and spread > bound:
        if better == "lower":
            all_better, all_worse = (max(other) <= min(base),
                                     min(other) > max(base))
        else:
            all_better, all_worse = (min(other) >= max(base),
                                     max(other) < min(base))
        if all_better:
            return "ok"
        if not (all_worse and worse > bound):
            return "unresolved"
    return "regressed" if worse > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="run directory (or comma-separated "
                                     "directories) of the base, A")
    parser.add_argument("other", help="run directory(ies) of B")
    parser.add_argument("--all", action="store_true",
                        help="also print metrics that have no bound")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    suite = json.loads((BENCH_DIR / "suite.json").read_text())
    bounded = {m["name"]: m for m in
               spec["end_to_end"] + suite["workload_metrics"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base_runs, base_seeds = load_side(args.base)
    other_runs, other_seeds = load_side(args.other)
    same_seeds = base_seeds == other_seeds
    exact = suite["same_seed_bounds"] if same_seeds else {}
    tighter = suite["workload_bounds"]

    print(f"A: {args.base}\nB: {args.other}\n"
          f"seeds A {base_seeds} B {other_seeds}"
          f"{' (same: exact counts must repeat)' if same_seeds else ''}\n")
    print(f"{'workload':<15}{'metric':<42}{'A':>13}{'B':>13}"
          f"{'B/A':>9}  verdict")
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        names = list(bounded) + (sorted(set(layers) - set(bounded))
                                 if args.all else [])
        for name in names:
            base = values_of(base_runs, workload, name)
            other = values_of(other_runs, workload, name)
            if not base and not other:
                continue
            if name in bounded:
                bound = tighter.get(f"{workload}.{name}",
                                    bounded[name]["bound"])
                bound = exact.get(f"{workload}.{name}",
                                  exact.get(name, bound))
                result = verdict(base, other, bounded[name]["better"],
                                 bound)
                result += f" (bound {bound:g})"
            elif name == "failed_ops_share":
                higher = bool(base and other and statistics.median(other)
                              > statistics.median(base))
                result = "regressed (more failed ops)" if higher else "ok"
            else:
                result = "-"
            regressions += result.startswith("regressed")
            a = statistics.median(base) if base else None
            b = statistics.median(other) if other else None
            ratio = f"{b / a:9.4f}" if a and b is not None else f"{'-':>9}"
            print(f"{workload:<15}{name:<42}"
                  f"{'null' if a is None else format(a, '.6g'):>13}"
                  f"{'null' if b is None else format(b, '.6g'):>13}"
                  f"{ratio}  {result}")
    print(f"\n{regressions} regressed (ratios are B over A; A is the base)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
