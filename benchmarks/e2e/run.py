"""The repository's standing end-to-end benchmark.

Two ways to run it, both from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
    One workload, one pass, in this process.  ``--trace 0`` measures the
    end-to-end metrics with nothing wrapped; ``--trace 1`` runs even
    rounds under the tracer and reports the per-layer metrics.  The last
    line of standard output is one JSON object (``correct``,
    ``attempted``, ``failed``, ``metrics``); the exit code is non-zero
    when any op failed.

``python3 benchmarks/e2e/run.py --seed N [--workload W] [--tiny]``
    The whole suite: each workload twice (untraced, then traced), each in
    its own process so ``peak_rss_mb`` is the workload's own.  Prints
    every metric by name and unit and writes one run record under
    ``benchmarks/e2e/runs/<utc>-<git_rev>-s<seed>/``.

The seed is an argument.  No environment variable is read; a single pass
re-executes itself with ``PYTHONHASHSEED=0`` (see :func:`run_single`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORK_DIR = BENCH_DIR / ".work"
RUNS_DIR = BENCH_DIR / "runs"

#: Set-up is repeated at least this often, and until this many seconds
#: have been spent on it, and ``setup_s`` is the lower quartile: single
#: set-ups take between 0.3 ms and 1 s.
SETUP_MIN_REPEATS = 4
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 200
TILING_GAP_LIMIT = 0.02
HASH_SEED = "0"
TINY_SCALE = 1 / 20


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict) -> dict[str, str]:
    """Unit of every metric the run record may hold."""
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------- #
# one workload, one pass                                                  #
# ---------------------------------------------------------------------- #

def _percentile_ms(samples, q) -> float | None:
    return float(np.percentile(samples, q)) * 1e3 if len(samples) else None


def _ratio(hits, misses) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process.  ``ru_maxrss`` starts at the
    peak of whatever process forked this one (the suite, the driver), so
    the kernel's per-address-space high-water mark is read where there is
    one."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(workload, rec, floor: float, extra: dict) -> dict:
    """The user-visible metrics of the untraced rounds in ``rec``.  Times
    are over the ops that ran while probes showed the core at full speed
    (``floor``); counts are over every op."""
    queries = rec.kinds.count("query")
    query_s = rec.clean_seconds("query", floor)
    write_s = np.concatenate([rec.clean_seconds("insert", floor),
                              rec.clean_seconds("delete", floor)])
    metrics = {
        "setup_s": float(np.percentile(workload.setup_s, 25)),
        "queries_per_s": rec.clean_query_rate(floor) if queries else None,
        "query_p50_ms": _percentile_ms(query_s, 50),
        "query_p95_ms": _percentile_ms(query_s, 95),
        "query_p99_ms": _percentile_ms(query_s, 99)
        if query_s.size >= 1000 else None,
        "qpf_per_query": rec.counters.get("qpf_uses", 0) / queries
        if queries else None,
        "write_p50_ms": _percentile_ms(write_s, 50),
        "write_p95_ms": _percentile_ms(write_s, 95),
        "recovery_s": None,
        "wal_bytes_per_user_byte": None,
        "disk_bytes_per_user_byte": None,
        "rpoi_spent": None,
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics.update({name: value for name, value in extra.items()
                    if name in metrics})
    return metrics


def _overhead_share(plain, traced, floor: float) -> float:
    """Wall of the traced rounds over wall of the bare rounds, minus 1,
    both for the same mix of span kinds (checkpoints fall in few rounds)
    and from clean spans."""
    bare = {kind: (weight, float(np.array(plain.span_wall)[picked].mean()))
            for kind, weight, picked in plain.strata(floor)}
    traced_wall = bare_wall = 0.0
    for kind, weight, picked in traced.strata(floor):
        if kind in bare:
            weight += bare[kind][0]
            traced_wall += weight * float(
                np.array(traced.span_wall)[picked].mean())
            bare_wall += weight * bare[kind][1]
    return traced_wall / bare_wall - 1 if bare_wall else 0.0


def per_layer_metrics(workload, plain, traced, tracer, floor: float,
                      extra: dict, import_s: float,
                      declared: set[str]) -> dict:
    """Self seconds from the traced rounds plus counts from public stats."""
    seconds, counts, ratios = tracer.totals()
    counters = {name: plain.counters.get(name, 0)
                + traced.counters.get(name, 0)
                for name in set(plain.counters) | set(traced.counters)}
    get = counters.get
    metrics = dict(seconds)
    layer_s = sum(seconds.values())
    root_s = traced.op_s
    checkpoints = [seconds for rec in (plain, traced)
                   for kind, seconds in zip(rec.kinds, rec.seconds)
                   if kind == "checkpoint"]
    planners = workload.planners()
    hits = sum(p.cache_hits for p in planners)
    misses = sum(p.cache_misses for p in planners)
    indexes = workload.indexes()
    widths = [index.health()["ns_scan_width"]["p90"] for index in indexes]
    selects = counts.get("core.prkb.selects", 0)
    lookups = counts.get("edbms.sql.memo_lookups", 0)
    inserted_rows = counts.get("core.updates.insert_calls", 0) \
        * getattr(workload, "INSERT_ROWS", 0)
    metrics.update({
        "edbms.sql.parse_calls": counts.get("edbms.sql.parse_calls", 0),
        "edbms.sql.parse_memo_hit_ratio":
            1 - counts.get("edbms.sql.parse_calls", 0) / lookups
            if lookups else 0.0,
        "plan.cache_hit_ratio": _ratio(hits, misses),
        "plan.estimate_error_p90":
            float(np.percentile(ratios, 90)) if ratios else 0.0,
        "crypto.trapdoor.seal_calls":
            counts.get("crypto.trapdoor.seal_calls", 0),
        "edbms.qpf.uses": get("qpf_uses", 0),
        "edbms.qpf.roundtrips": get("qpf_roundtrips", 0),
        "edbms.qpf.tuples_per_roundtrip":
            get("qpf_uses", 0) / max(1, get("qpf_roundtrips", 0)),
        "edbms.qpf.column_cache_hit_ratio":
            _ratio(get("column_cache_hits", 0),
                   get("column_cache_misses", 0)),
        "edbms.qpf.column_cache_evictions": get("column_cache_evictions", 0),
        "edbms.qpf.predicate_cache_hit_ratio":
            _ratio(get("predicate_cache_hits", 0),
                   get("predicate_cache_misses", 0)),
        "core.prkb.qfilter_qpf": counts.get("core.prkb.qfilter_qpf", 0),
        "core.prkb.qscan_qpf": counts.get("core.prkb.qscan_qpf", 0),
        "core.prkb.update_qpf": counts.get("core.prkb.update_qpf", 0),
        "core.prkb.equivalent_share":
            counts.get("core.prkb.equivalent_selects", 0) / selects
            if selects else 0.0,
        "core.prkb.partitions_end":
            sum(index.num_partitions for index in indexes),
        "core.prkb.ns_scan_width_p90": max(widths, default=0),
        "core.partitions.split_calls":
            counts.get("core.partitions.split_calls", 0),
        "core.multi.qpf_uses": counts.get("core.multi.qpf_uses", 0),
        "core.updates.insert_qpf_per_row":
            counts.get("core.updates.insert_qpf", 0) / inserted_rows
            if inserted_rows else 0.0,
        "edbms.durability.wal_records": get("wal_records", 0),
        "edbms.durability.wal_bytes": get("wal_bytes", 0),
        "edbms.durability.wal_fsyncs": get("wal_fsyncs", 0),
        "edbms.durability.checkpoint_stall_max_ms":
            max(checkpoints, default=0.0) * 1e3,
        "edbms.hybrid.artifact_builds":
            counts.get("edbms.hybrid.artifact_builds", 0),
        "edbms.hybrid.mpc_messages": get("mpc_messages", 0),
        "setup.import_s": import_s,
        "trace.root_s": root_s,
        "trace.traced_ops": traced.attempted,
        "trace.tiling_gap_share":
            abs(layer_s - root_s) / root_s if root_s else 0.0,
        "trace.overhead_share":
            _overhead_share(plain, traced, floor),
        "probe.floor_ms": floor * 1e3,
        "probe.clean_span_share": float(np.concatenate(
            [rec.clean_spans(floor) for rec in (plain, traced)]).mean()),
        "trace.unresolved_targets": len(tracer.unresolved),
        "failed_ops_share":
            (plain.failed + traced.failed)
            / max(1, plain.attempted + traced.attempted),
    })
    # User-visible metrics that only some workloads have are declared
    # with the layers; they come from the bare rounds.
    user_visible = end_to_end_metrics(workload, plain, floor, extra)
    metrics.update({name: value for name, value in user_visible.items()
                    if name in declared and value is not None})
    metrics.update(extra)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            import_s: float, spec: dict) -> dict:
    """Run one workload once; returns the detail record."""
    from tracer import Tracer
    from workloads import NOMINAL_SECONDS, WORKLOADS, Recorder, probe_floor

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    workload = WORKLOADS[name](seed, seconds / NOMINAL_SECONDS, workdir)
    tracer = Tracer() if trace else None
    plain, traced = Recorder(), Recorder()
    try:
        if trace:
            workload.prelude()
        setup_seconds = SETUP_MIN_SECONDS * min(1.0, workload.scale)
        while (len(workload.setup_s) < SETUP_MIN_REPEATS
               or (sum(workload.setup_s) < setup_seconds
                   and len(workload.setup_s) < SETUP_MAX_REPEATS)):
            workload.setup()
        for index in range(workload.rounds):
            workload.begin_round(index)
            if trace and index % 2 == 0:
                tracer.counter = workload.db.counter
                with tracer.installed():
                    workload.round(index, traced)
            else:
                workload.round(index, plain)
        extra = workload.finish(plain, traced, tracer)
        floor = probe_floor(plain, traced)
        if trace:
            metrics = per_layer_metrics(
                workload, plain, traced, tracer, floor, extra, import_s,
                {m["name"] for m in spec["per_layer"]})
        else:
            metrics = end_to_end_metrics(workload, plain, floor, extra)
        events, dropped = tracer.chrome_events() if trace else ([], 0)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": plain.errors + traced.errors,
        "samples": {
            "queries": plain.kinds.count("query"),
            "clean_queries": int(plain.clean_seconds("query", floor).size),
            "writes": plain.kinds.count("insert")
            + plain.kinds.count("delete"),
            "setups": len(workload.setup_s),
            "rounds": workload.rounds},
        "metrics": metrics,
        "trace_events": events,
        "spans_dropped": dropped,
        "unresolved_targets": tracer.unresolved if trace else [],
    }


def result_line(detail: dict, spec: dict) -> str:
    """The one JSON object the driver reads: exactly the metrics that
    BENCHMARK.json declares for this pass, ``0`` where a per-layer metric
    does not apply to the workload."""
    declared = spec["per_layer"] if detail["trace"] else spec["end_to_end"]
    known = {m["name"] for m in declared}
    if detail["trace"]:
        unknown = sorted(set(detail["metrics"]) - known)
        if unknown:
            raise SystemExit(f"metrics not declared in BENCHMARK.json: "
                             f"{unknown}")
    metrics = {}
    for metric in declared:
        value = detail["metrics"].get(metric["name"])
        if value is None:
            if not detail["trace"]:
                raise SystemExit(f"{detail['workload']} did not measure "
                                 f"{metric['name']}")
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": detail["failed"] == 0,
                       "attempted": detail["attempted"],
                       "failed": detail["failed"], "metrics": metrics})


def run_single(args, spec: dict) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and with it the layout
        # of every dict and set of strings: measured, the same workload
        # and seed then differ by 4 % from one process to the next.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (timed: work moved to import time shows)
    import_s = time.perf_counter() - start
    detail = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), import_s, spec)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    for error in detail["errors"]:
        print(f"FAILED OP: {error}", file=sys.stderr)
    print(result_line(detail, spec))
    return 1 if detail["failed"] else 0


# ---------------------------------------------------------------------- #
# the suite                                                               #
# ---------------------------------------------------------------------- #

def git_revision(override: str | None) -> tuple[str, bool]:
    """``(short rev, dirty)``; a run record never says ``unknown``."""
    if override:
        return override, False
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            check=True, capture_output=True, text=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit("not a git checkout: pass --rev <revision> so the "
                         "run record names what was measured")
    return rev, dirty


def validate_metrics(metrics: dict, spec: dict, units: dict) -> None:
    """The run record's one schema: ``{workload: {metric: number|null}}``
    over declared workloads and metrics."""
    workloads = {w["name"] for w in spec["workloads"]}
    for workload, values in metrics.items():
        if workload not in workloads:
            raise SystemExit(f"metrics.json: unknown workload {workload!r}")
        for name, value in values.items():
            if name not in units:
                raise SystemExit(f"metrics.json: undeclared metric {name!r}")
            if value is not None and (isinstance(value, bool) or not
                                      isinstance(value, (int, float))):
                raise SystemExit(f"metrics.json: {workload}.{name} is "
                                 f"{value!r}, not a number or null")


def run_suite(args, spec: dict) -> int:
    units = metric_units(spec)
    rev, dirty = git_revision(args.rev)
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds * (TINY_SCALE if args.tiny else 1)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    run_dir = RUNS_DIR / f"{stamp}-{rev}-s{args.seed}"
    run_dir.mkdir(parents=True)

    metrics: dict[str, dict] = {}
    events: list[dict] = []
    passes = []
    failed = attempted = 0
    for pid, name in enumerate(names, start=1):
        metrics[name] = {}
        for trace in (0, 1):
            detail_path = run_dir / f".{name}-{trace}.json"
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", repr(seconds), "--trace", str(trace),
                       "--detail", str(detail_path)]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            wall = time.perf_counter() - start
            if not detail_path.exists():
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit(f"{name} --trace {trace} produced no "
                                 f"result (exit {done.returncode})")
            detail = json.loads(detail_path.read_text())
            detail_path.unlink()
            sys.stderr.write(done.stderr)
            failed += detail["failed"]
            attempted += detail["attempted"]
            # Per-layer values never overwrite the untraced pass's.
            for key, value in detail["metrics"].items():
                metrics[name].setdefault(key, value)
            for event in detail["trace_events"]:
                event["pid"] = pid
            events += detail["trace_events"]
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": name}})
            passes.append({"workload": name, "trace": trace,
                           "wall_s": wall, "samples": detail["samples"],
                           "attempted": detail["attempted"],
                           "failed": detail["failed"],
                           "spans_dropped": detail["spans_dropped"],
                           "unresolved_targets":
                               detail["unresolved_targets"]})
        for declared in units:  # one schema: null where it does not apply
            metrics[name].setdefault(declared, None)
        metrics[name]["failed_ops_share"] = \
            sum(p["failed"] for p in passes if p["workload"] == name) \
            / max(1, sum(p["attempted"] for p in passes
                         if p["workload"] == name))

    validate_metrics(metrics, spec, units)
    meta = {
        "utc": stamp, "git_rev": rev, "git_dirty_src": dirty,
        "seed": args.seed, "seconds": seconds, "tiny": args.tiny,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(),
        "command": spec["command"], "passes": passes,
    }
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    (run_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    (run_dir / "trace.json").write_text(json.dumps({"traceEvents": events}))

    for name in names:
        print(f"\n== {name}")
        for key in sorted(metrics[name], key=lambda k: ("." in k, k)):
            value = metrics[name][key]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {key:<44} {shown:>14} {units[key]}")
    print(f"\nrun record: {run_dir.relative_to(ROOT)}")

    status = 0
    for name in names:
        gap = metrics[name].get("trace.tiling_gap_share", 0.0)
        if gap > TILING_GAP_LIMIT:
            print(f"FAIL: {name} trace.tiling_gap_share {gap:.4f} > "
                  f"{TILING_GAP_LIMIT}")
            status = 1
    if failed:
        print(f"FAIL: {failed} of {attempted} ops failed")
        status = 1
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="seconds of timed ops the op counts are sized "
                             "for at the baseline's rate")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one pass of one workload in this process; "
                             "omit to run the suite")
    parser.add_argument("--tiny", action="store_true",
                        help="suite at 1/20 of the op counts (self-check "
                             "only; never a baseline)")
    parser.add_argument("--rev", help="revision to record when the "
                                      "checkout is not a git repository")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'} not found: run from a "
                         "checkout that holds the program")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_single(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
