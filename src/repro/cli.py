"""Command-line interface: ``python -m repro.cli <command>``.

Three commands cover the library's everyday entry points:

* ``demo``    — a self-contained growing-PRKB demonstration on synthetic
  data (no inputs needed).
* ``query``   — load an integer CSV, encrypt it, build PRKB on chosen
  columns and run a SQL statement, reporting the answer and its cost.
* ``plan``    — print the cost-based operator tree the planner would
  execute for a SQL statement, with per-step estimates and the rejected
  alternative strategies (no query is executed).
* ``rpoi``    — the Sec. 8.1 security study on one CSV column: how much
  ordering information a given query volume would leak.
* ``stats``   — run a traced workload (CSV or synthetic) with full
  observability on and print PRKB health plus the metrics registry in
  text, Prometheus or JSON form.
* ``outcomes`` — run a workload with plan-outcome tracking enabled and
  print the knowledge-base report: estimate-error percentiles, learned
  correction factors and per-tenant SLO standing (``--selftune``
  replays the identical workload on a corrected seed-twin and shows
  the before/after estimate-error p90).

``stats`` and ``outcomes`` both accept ``--json`` for scripting, sharing
one formatter.  The CLI is a thin shell over the public API; everything
it does can be done in a few lines of Python (see ``examples/``).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRKB encrypted-database reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a growing-PRKB demonstration")
    demo.add_argument("--rows", type=int, default=10_000,
                      help="synthetic table size (default 10000)")
    demo.add_argument("--queries", type=int, default=12,
                      help="number of range queries to run (default 12)")
    demo.add_argument("--seed", type=int, default=0)

    query = sub.add_parser("query",
                           help="run SQL over an encrypted CSV table")
    query.add_argument("--csv", required=True,
                       help="CSV file with integer columns and a header")
    query.add_argument("--table", default="data",
                       help="table name used in the SQL (default 'data')")
    query.add_argument("--sql", required=True, action="append",
                       help="SQL statement (repeatable)")
    query.add_argument("--index", default=None,
                       help="comma-separated columns to index "
                            "(default: all)")
    query.add_argument("--strategy", default="auto",
                       choices=("auto", "md", "sd+", "baseline"))
    query.add_argument("--explain", action="store_true",
                       help="print the query plan instead of executing")
    query.add_argument("--stats", action="store_true",
                       help="print per-index statistics after the queries")
    query.add_argument("--prime", type=int, default=0, metavar="N",
                       help="pre-warm each index with N DO-generated "
                            "queries before executing (Sec. 8.2.6)")
    query.add_argument("--seed", type=int, default=0)

    plan = sub.add_parser(
        "plan", help="print the operator tree for a SQL statement")
    plan.add_argument("sql", nargs="+",
                      help="SQL statement(s) to plan (not executed)")
    plan.add_argument("--csv", required=True,
                      help="CSV file with integer columns and a header")
    plan.add_argument("--table", default="data",
                      help="table name used in the SQL (default 'data')")
    plan.add_argument("--index", default=None,
                      help="comma-separated columns to index "
                           "(default: all)")
    plan.add_argument("--strategy", default="auto",
                      choices=("auto", "md", "sd+", "baseline",
                               "prkb", "scan", "ope", "src", "mpc"),
                      help="override the adaptive dispatch; the scheme "
                           "names (prkb/scan/ope/src/mpc) force one "
                           "hybrid scheme per predicate")
    plan.add_argument("--budget", type=float, default=None, metavar="RPOI",
                      help="enable hybrid dispatch with this max "
                           "cumulative RPOI per table (use 'inf' for "
                           "unconstrained hybrid)")
    plan.add_argument("--prime", type=int, default=0, metavar="N",
                      help="pre-warm each index with N DO-generated "
                           "queries before planning (shows how estimates "
                           "react to refinement)")
    plan.add_argument("--seed", type=int, default=0)

    rpoi = sub.add_parser("rpoi",
                          help="order-reconstruction study on one column")
    rpoi.add_argument("--csv", required=True)
    rpoi.add_argument("--column", required=True)
    rpoi.add_argument("--queries", type=int, nargs="+",
                      default=[100, 1_000, 10_000])
    rpoi.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser(
        "stats", help="run an instrumented workload; print health+metrics")
    stats.add_argument("--csv", default=None,
                       help="CSV with integer columns (default: synthetic)")
    stats.add_argument("--table", default="data",
                       help="table name (default 'data')")
    stats.add_argument("--rows", type=int, default=2_000,
                       help="synthetic table size when no --csv")
    stats.add_argument("--queries", type=int, default=40,
                       help="warm-up range queries per index (default 40)")
    stats.add_argument("--format", default="text",
                       choices=("text", "prom", "json"),
                       help="metrics output format (default text)")
    stats.add_argument("--json", action="store_true",
                       help="shorthand for --format json")
    stats.add_argument("--seed", type=int, default=0)

    outcomes = sub.add_parser(
        "outcomes",
        help="run a workload with plan-outcome tracking; print the report")
    outcomes.add_argument("--csv", default=None,
                          help="CSV with integer columns "
                               "(default: synthetic)")
    outcomes.add_argument("--table", default="data",
                          help="table name (default 'data')")
    outcomes.add_argument("--rows", type=int, default=2_000,
                          help="synthetic table size when no --csv")
    outcomes.add_argument("--queries", type=int, default=60,
                          help="range/BETWEEN queries to run (default 60)")
    outcomes.add_argument("--ledger", default=None, metavar="DIR",
                          help="also append atoms to a durable ledger "
                               "directory")
    outcomes.add_argument("--fsync", default="off",
                          help="ledger fsync policy: always, off, "
                               "every:N (default off)")
    outcomes.add_argument("--selftune", action="store_true",
                          help="replay the workload on a corrected "
                               "seed-twin and report before/after "
                               "estimate error")
    outcomes.add_argument("--json", action="store_true",
                          help="machine-readable output")
    outcomes.add_argument("--seed", type=int, default=0)
    return parser


def _emit_json(payload: dict) -> int:
    """The one JSON formatter every ``--json`` path shares."""
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _load_csv(path: str) -> dict[str, np.ndarray]:
    """Read an all-integer CSV with a header row."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SystemExit(f"{path}: missing header row")
        columns: dict[str, list[int]] = {
            name: [] for name in reader.fieldnames
        }
        for line_number, row in enumerate(reader, start=2):
            for name in reader.fieldnames:
                try:
                    columns[name].append(int(row[name]))
                except (TypeError, ValueError):
                    raise SystemExit(
                        f"{path}:{line_number}: column {name!r} has "
                        f"non-integer value {row[name]!r}"
                    ) from None
    if not any(columns.values()):
        raise SystemExit(f"{path}: no data rows")
    return {name: np.asarray(values, dtype=np.int64)
            for name, values in columns.items()}


def _cmd_demo(args) -> int:
    from .bench import Testbed
    from .workloads import range_query_bounds, uniform_table

    domain = (1, 1_000_000)
    table = uniform_table("demo", args.rows, ["X"], domain=domain,
                          seed=args.seed)
    bed = Testbed(table, ["X"], seed=args.seed)
    print(f"encrypted {args.rows} rows; PRKB initialised on 'X'")
    print(f"{'query':>5}  {'matches':>8}  {'QPF uses':>9}  {'simulated':>10}")
    bounds = range_query_bounds("X", domain, 0.02, count=args.queries,
                                seed=args.seed + 1)
    for i, query in enumerate(bounds, start=1):
        m = bed.run_sd("X", query.as_tuple())
        print(f"{i:>5}  {m.result_count:>8}  {m.qpf_uses:>9}  "
              f"{m.simulated_ms:>8.2f}ms")
    print(f"final chain length: k={bed.prkb['X'].num_partitions}")
    return 0


def _cmd_query(args) -> int:
    from .edbms.engine import EncryptedDatabase

    columns = _load_csv(args.csv)
    domains = {
        name: (int(values.min()) - 1, int(values.max()) + 1)
        for name, values in columns.items()
    }
    db = EncryptedDatabase(seed=args.seed)
    db.create_table(args.table, domains, columns)
    indexed = (args.index.split(",") if args.index
               else list(columns))
    missing = [a for a in indexed if a not in columns]
    if missing:
        raise SystemExit(f"--index columns not in CSV: {missing}")
    db.enable_prkb(args.table, indexed)
    if args.prime:
        from .core import prime_index
        for attribute in indexed:
            report = prime_index(
                db.owner, db.server.index(args.table, attribute),
                domains[attribute], args.prime, seed=args.seed)
            print(f"primed {attribute!r}: k={report.partitions_after} "
                  f"({report.qpf_spent} QPF)")
    for sql in args.sql:
        if args.explain:
            print(db.explain(sql, strategy=args.strategy).render())
            continue
        answer = db.query(sql, strategy=args.strategy)
        if answer.value is not None:
            print(f"{sql}\n  value={answer.value}  "
                  f"qpf={answer.qpf_uses}  "
                  f"simulated={answer.simulated_ms:.2f}ms")
        else:
            print(f"{sql}\n  count={answer.count}  "
                  f"qpf={answer.qpf_uses}  "
                  f"simulated={answer.simulated_ms:.2f}ms")
    if args.stats:
        for attribute in indexed:
            stats = db.server.index(args.table, attribute).describe()
            print(f"index {attribute!r}: k={stats['partitions']}  "
                  f"largest={stats['largest_partition']}  "
                  f"storage={stats['storage_bytes']}B  "
                  f"~next-query={stats['expected_range_query_qpf']} QPF")
    return 0


def _cmd_plan(args) -> int:
    from .edbms.engine import EncryptedDatabase
    from .edbms.sql import parse_select

    columns = _load_csv(args.csv)
    domains = {
        name: (int(values.min()) - 1, int(values.max()) + 1)
        for name, values in columns.items()
    }
    db = EncryptedDatabase(seed=args.seed)
    db.create_table(args.table, domains, columns)
    indexed = (args.index.split(",") if args.index
               else list(columns))
    missing = [a for a in indexed if a not in columns]
    if missing:
        raise SystemExit(f"--index columns not in CSV: {missing}")
    db.enable_prkb(args.table, indexed)
    if args.prime:
        from .core import prime_index
        for attribute in indexed:
            report = prime_index(
                db.owner, db.server.index(args.table, attribute),
                domains[attribute], args.prime, seed=args.seed)
            print(f"primed {attribute!r}: k={report.partitions_after} "
                  f"({report.qpf_spent} QPF)")
    hybrid = None
    if args.budget is not None or args.strategy in ("ope", "src", "mpc"):
        import math as _math

        budget = (None if args.budget is None
                  or _math.isinf(args.budget) else args.budget)
        hybrid = db.enable_hybrid(budget=budget)
    for sql in args.sql:
        physical = db.planner.plan(parse_select(sql),
                                   strategy=args.strategy)
        print(physical.render_tree())
    if hybrid is not None:
        spent = hybrid.ledger.spent(args.table)
        limit = hybrid.budget.max_rpoi
        print(f"security budget: {spent:.4g} RPOI spent of "
              f"{'unconstrained' if limit is None else f'{limit:.4g}'} "
              f"(planning only — execution charges the ledger)")
    return 0


def _cmd_rpoi(args) -> int:
    from .attacks import rpoi_trajectory

    columns = _load_csv(args.csv)
    if args.column not in columns:
        raise SystemExit(
            f"column {args.column!r} not in CSV "
            f"(have {sorted(columns)})"
        )
    values = columns[args.column]
    counts = sorted(args.queries)
    domain = (int(values.min()), int(values.max()))
    series = rpoi_trajectory(values, counts, domain=domain,
                             seed=args.seed)
    distinct = len(np.unique(values))
    print(f"column {args.column!r}: {values.size} rows, "
          f"{distinct} distinct values")
    for count, rpoi in zip(counts, series):
        print(f"  {count:>9,} queries -> RPOI {100 * rpoi:7.3f}%")
    print("  (OPE would leak RPOI = 100.000% with 0 queries)")
    return 0


def _cmd_stats(args) -> int:
    from .edbms.engine import EncryptedDatabase
    from .obs import render_json, render_prometheus

    if args.csv is not None:
        columns = _load_csv(args.csv)
    else:
        rng = np.random.default_rng(args.seed)
        columns = {"X": rng.integers(1, 1_000_001, size=args.rows,
                                     dtype=np.int64)}
    domains = {
        name: (int(values.min()) - 1, int(values.max()) + 1)
        for name, values in columns.items()
    }
    db = EncryptedDatabase(seed=args.seed)
    db.create_table(args.table, domains, columns)
    db.enable_prkb(args.table, list(columns))
    tracer, registry = db.enable_observability()
    rng = np.random.default_rng(args.seed + 1)
    for attribute, (low, high) in domains.items():
        for constant in rng.integers(low + 1, high, size=args.queries):
            db.query(f"SELECT * FROM {args.table} "
                     f"WHERE {attribute} < {int(constant)}")
    if args.format == "prom":
        print(render_prometheus(registry), end="")
        return 0
    if args.format == "json" or args.json:
        return _emit_json({
            "metrics": render_json(registry),
            "health": {
                f"{args.table}.{attribute}": db.server.index(
                    args.table, attribute).health()
                for attribute in columns
            },
        })
    total = args.queries * len(columns)
    print(f"ran {total} traced queries over {sorted(columns)} "
          f"({len(tracer)} spans retained)")
    for attribute in columns:
        health = db.server.index(args.table, attribute).health()
        sizes = health["partition_sizes"]
        ns = health["ns_scan_width"]
        print(f"index {attribute!r}: k={health['chain_length']}  "
              f"refinement={health['refinement_rate']:.2f}  "
              f"partition p50/p90={sizes['p50']}/{sizes['p90']}  "
              f"NS-scan p50/p90={ns['p50']}/{ns['p90']}")
        cache = health["equivalence_cache"]
        print(f"  equivalence cache: {cache['hits']} hits / "
              f"{cache['misses']} misses (ratio {cache['hit_ratio']:.2f})")
    counter = db.counter
    print(f"totals: qpf_uses={counter.qpf_uses}  "
          f"roundtrips={counter.qpf_roundtrips}  "
          f"predicate-cache {counter.predicate_cache_hits}/"
          f"{counter.predicate_cache_hits + counter.predicate_cache_misses}"
          " hits")
    cache = db.column_cache_stats()
    lookups = counter.column_cache_hits + counter.column_cache_misses
    print(f"column cache: {counter.column_cache_hits}/{lookups} hits  "
          f"evictions={counter.column_cache_evictions}  "
          f"resident={cache['resident_bytes']:,}B "
          f"of {cache['budget_bytes']:,}B budget")
    print("(use --format prom for the /metrics exposition, "
          "--format json for machine-readable output)")
    return 0


def _cmd_outcomes(args) -> int:
    from .edbms.engine import EncryptedDatabase

    if args.csv is not None:
        columns = _load_csv(args.csv)
    else:
        rng = np.random.default_rng(args.seed)
        columns = {"X": rng.integers(1, 1_000_001, size=args.rows,
                                     dtype=np.int64)}
    domains = {
        name: (int(values.min()) - 1, int(values.max()) + 1)
        for name, values in columns.items()
    }
    def build() -> EncryptedDatabase:
        twin = EncryptedDatabase(seed=args.seed)
        twin.create_table(args.table, domains, columns)
        twin.enable_prkb(args.table, list(columns))
        return twin

    attribute = sorted(columns)[0]
    low, high = domains[attribute]
    rng = np.random.default_rng(args.seed + 1)
    # Alternate comparisons and BETWEENs so both dispatch kinds (and
    # their distinct correction keys) gather history.
    statements = []
    for i, constant in enumerate(
            rng.integers(low + 1, high, size=args.queries)):
        constant = int(constant)
        if i % 2:
            other = int(rng.integers(low + 1, high))
            a, b = sorted((constant, other))
            statements.append(f"SELECT * FROM {args.table} "
                              f"WHERE {attribute} BETWEEN {a} AND {b}")
        else:
            statements.append(f"SELECT * FROM {args.table} "
                              f"WHERE {attribute} < {constant}")

    db = build()
    store = db.enable_outcomes(args.ledger, fsync=args.fsync)
    for sql in statements:
        db.query(sql)
    report = store.report()
    tenants = store.tenant_reports()
    payload = {"outcomes": report, "tenants": tenants}
    applied: dict = {}
    after = report
    if args.selftune:
        # The bench_selftune shape: learn from the uncorrected run,
        # then replay the identical workload on a corrected seed-twin
        # so the before/after windows are apples to apples.
        applied = store.corrections()
        if applied:
            twin = build()
            twin_store = twin.enable_outcomes()
            twin.apply_corrections(applied)
            for sql in statements:
                twin.query(sql)
            after = twin_store.report()
            twin.close()
        payload["selftune"] = {
            "applied": applied,
            "error_p90_before": report["error_p90"],
            "error_p90_after": after["error_p90"],
        }
    if args.ledger:
        payload["ledger"] = db.ledger.stats()
    if args.json:
        return _emit_json(payload)
    print(f"plan outcomes: {report['atoms']} atoms over "
          f"{len(report['fingerprints'])} plan fingerprints")
    print(f"estimate error: p50={report['error_p50']:.3f}  "
          f"p90={report['error_p90']:.3f}")
    corrections = report["corrections"]
    if corrections:
        rendered = "  ".join(f"{key} x{factor:.2f}"
                             for key, factor in sorted(corrections.items()))
        print(f"learned corrections ({len(corrections)}): {rendered}")
    else:
        print("learned corrections: none yet "
              f"(steps need {store.min_samples}+ exact samples)")
    if args.selftune:
        print(f"self-tune: corrected twin replay with {len(applied)} "
              f"learned factors; error p90 {report['error_p90']:.3f} -> "
              f"{after['error_p90']:.3f}")
    for tenant, entry in sorted(tenants.items()):
        slo = entry["slo"]
        latency = entry["latency_ms"]
        print(f"tenant {tenant!r}: {entry['count']} queries  "
              f"latency p50/p90={latency['p50']:.2f}"
              f"/{latency['p90']:.2f}ms  "
              f"SLO met {100 * slo['met_fraction']:.1f}% "
              f"(burn {slo['burn_rate']:.2f})")
    if args.ledger:
        stats = db.ledger.stats()
        print(f"ledger: {stats['records_written']} records in "
              f"{stats['segments']} segment(s) at {stats['path']} "
              f"(fsync={stats['fsync']})")
    db.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "rpoi":
        return _cmd_rpoi(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "outcomes":
        return _cmd_outcomes(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
