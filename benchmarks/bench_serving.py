"""Concurrent serving: exact multi-tenant parity, throughput, shedding.

Not a paper figure: the acceptance gate for the serving core
(``repro.serve``).  Three sections:

* **parity** — the canonical 120-query probe of
  ``bench_parity_probe.py`` (2000-row uniform table, pinned seeds,
  deterministic cost ``EXPECTED_QPF``) run by eight concurrent tenants on
  one :class:`~repro.serve.QueryServer`.  Per-tenant PRKB namespaces
  keep every tenant's refinement trajectory private and deterministic,
  so the shared counter must land on **exactly** 8 x ``EXPECTED_QPF``
  regardless of thread interleaving.  Always runs at full scale —
  ``--tiny`` never changes these numbers, so CI diffs them with
  ``--threshold 0``.
* **throughput** — wall-clock scaling.  The pure-software simulator has
  no physical crossing cost, so a
  :class:`~repro.edbms.CrossingLatency` is attached (sleeps release the
  GIL, exactly as in ``bench_shard_scale``); eight concurrent tenants
  against one client must deliver >= 2x the aggregate queries/sec.
  ``--tiny`` shrinks only the query count here — queries/sec is a rate,
  so the committed floors still apply.
* **admission** — a metered tenant (1 QPF per hour-long window) fires
  12 sequential requests: exactly 1 is admitted and 11 are shed with
  ``QuotaExceeded``.  Deterministic, so the shed count is a hard gate.

Results land in ``BENCH_serving.json``; CI re-runs with ``--tiny`` and
diffs via ``bench_diff.py --threshold 0 --warn-wall`` plus floors on
``throughput.speedup`` and ``throughput.queries_per_sec_8``.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

from repro.edbms import CrossingLatency
from repro.edbms.engine import EncryptedDatabase
from repro.serve import QueryServer, QuotaExceeded, TenantQuota
from repro.workloads import distinct_comparison_thresholds, uniform_table

from _common import emit, emit_note, parse_bench_args, write_bench_json
from bench_parity_probe import (
    DOMAIN as PARITY_DOMAIN,
    EXPECTED_QPF,
    NUM_QUERIES as PARITY_QUERIES,
    NUM_ROWS as PARITY_ROWS,
)

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

# -- parity section (canonical probe, never scaled) ---------------------- #
PARITY_TENANTS = 8

# -- throughput section -------------------------------------------------- #
THROUGHPUT_DOMAIN = (1, 30_000)
THROUGHPUT_ROWS = 512
THROUGHPUT_CLIENTS = 8
#: Emulated physical crossing price; sleeps release the GIL so the
#: worker pool genuinely overlaps them (cf. bench_shard_scale).
LATENCY = CrossingLatency(per_crossing=1.5e-3, per_tuple=2e-6)

# -- admission section ---------------------------------------------------- #
SHED_ATTEMPTS = 12


def _parity_sqls() -> list[str]:
    thresholds = distinct_comparison_thresholds(
        PARITY_DOMAIN, PARITY_QUERIES, seed=1)
    return [f"SELECT * FROM t WHERE X < {int(t)}" for t in thresholds]


def _make_db(domain, rows, latency=None) -> EncryptedDatabase:
    table = uniform_table("t", rows, ["X"], domain=domain, seed=0)
    db = EncryptedDatabase(seed=7, qpf_latency=latency)
    db.create_table("t", {"X": domain}, {"X": table.columns["X"]})
    return db


def _run_parity() -> dict:
    sqls = _parity_sqls()

    serial = _make_db(PARITY_DOMAIN, PARITY_ROWS)
    serial.enable_prkb("t", ["X"])
    for sql in sqls:
        serial.query(sql)
    serial_qpf = serial.counter.qpf_uses
    serial.close()

    db = _make_db(PARITY_DOMAIN, PARITY_ROWS)
    server = QueryServer(db, workers=PARITY_TENANTS)
    per_tenant: dict[str, int] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(PARITY_TENANTS, timeout=60)

    def probe(tenant: str):
        try:
            session = server.session(tenant)
            session.enable_prkb("t", ["X"])
            barrier.wait()  # maximize interleaving
            per_tenant[tenant] = sum(
                server.query(tenant, sql).qpf_uses for sql in sqls)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=probe, args=(f"tenant{i}",))
               for i in range(PARITY_TENANTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    aggregate = db.counter.qpf_uses
    exact = all(total == EXPECTED_QPF for total in per_tenant.values())
    db.close()
    return {
        "tenants": PARITY_TENANTS,
        "serial_qpf_uses": serial_qpf,
        "aggregate_qpf_uses": aggregate,
        "expected_aggregate_qpf_uses": PARITY_TENANTS * EXPECTED_QPF,
        "per_tenant_qpf_exact": 1 if exact else 0,
        "wall_seconds": round(wall, 4),
    }


def _throughput_sqls(num_queries: int) -> list[str]:
    thresholds = distinct_comparison_thresholds(
        THROUGHPUT_DOMAIN, num_queries, seed=2)
    return [f"SELECT * FROM t WHERE X < {int(t)}" for t in thresholds]


def _run_throughput(num_queries: int) -> dict:
    sqls = _throughput_sqls(num_queries)

    def serve(clients: int) -> float:
        """Aggregate wall seconds for ``clients`` concurrent tenants."""
        db = _make_db(THROUGHPUT_DOMAIN, THROUGHPUT_ROWS, latency=LATENCY)
        server = QueryServer(db, workers=THROUGHPUT_CLIENTS)
        server.admission.default_quota = TenantQuota(max_inflight=64)
        for i in range(clients):
            server.session(f"client{i}").enable_prkb("t", ["X"])
        barrier = threading.Barrier(clients + 1, timeout=60)
        errors: list[BaseException] = []

        def client(tenant: str):
            try:
                barrier.wait()
                for sql in sqls:
                    server.query(tenant, sql)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(f"client{i}",))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=600)
        wall = time.perf_counter() - start
        db.close()
        if errors:
            raise errors[0]
        return wall

    wall_1 = serve(1)
    wall_n = serve(THROUGHPUT_CLIENTS)
    qps_1 = num_queries / wall_1
    qps_n = THROUGHPUT_CLIENTS * num_queries / wall_n
    return {
        "clients": THROUGHPUT_CLIENTS,
        "queries_per_client": num_queries,
        "wall_seconds_1": round(wall_1, 4),
        "wall_seconds_8": round(wall_n, 4),
        "queries_per_sec_1": round(qps_1, 2),
        "queries_per_sec_8": round(qps_n, 2),
        "speedup": round(qps_n / qps_1, 3),
    }


def _run_admission() -> dict:
    db = _make_db(THROUGHPUT_DOMAIN, THROUGHPUT_ROWS)
    server = QueryServer(db, workers=2)
    server.session("metered").enable_prkb("t", ["X"])
    server.set_quota("metered", TenantQuota(max_inflight=8,
                                            qpf_per_window=1,
                                            window_seconds=3600.0))
    admitted = shed = 0
    for i in range(SHED_ATTEMPTS):
        try:
            server.query("metered", f"SELECT * FROM t WHERE X < {1000 + i}")
            admitted += 1
        except QuotaExceeded:
            shed += 1
    stats = server.stats()["admission"]
    db.close()
    return {
        "attempts": SHED_ATTEMPTS,
        "admitted": admitted,
        "shed_qpf": shed,
        "controller_shed": stats["shed"],
    }


def _measure(tiny: bool) -> dict:
    return {
        "parity": _run_parity(),
        "throughput": _run_throughput(num_queries=12 if tiny else 40),
        "admission": _run_admission(),
    }


def _check(results: dict) -> list[str]:
    failures = []
    parity = results["parity"]
    if parity["serial_qpf_uses"] != EXPECTED_QPF:
        failures.append(f"serial probe drifted: {parity['serial_qpf_uses']}"
                        f" != {EXPECTED_QPF}")
    if parity["aggregate_qpf_uses"] != PARITY_TENANTS * EXPECTED_QPF:
        failures.append(
            f"concurrent aggregate {parity['aggregate_qpf_uses']} != "
            f"{PARITY_TENANTS} x {EXPECTED_QPF}")
    if not parity["per_tenant_qpf_exact"]:
        failures.append("a tenant's qpf_uses drifted from the serial probe")
    if results["throughput"]["speedup"] < 2.0:
        failures.append(
            f"8-client speedup {results['throughput']['speedup']} < 2.0")
    admission = results["admission"]
    if (admission["admitted"], admission["shed_qpf"]) != (1,
                                                          SHED_ATTEMPTS - 1):
        failures.append(
            f"admission not deterministic: admitted="
            f"{admission['admitted']} shed={admission['shed_qpf']}")
    return failures


def _report(results: dict, out=None) -> None:
    parity = results["parity"]
    throughput = results["throughput"]
    admission = results["admission"]
    rows = [
        ["parity", f"{parity['tenants']} tenants x {PARITY_QUERIES} queries",
         f"qpf {parity['aggregate_qpf_uses']} "
         f"(expect {parity['expected_aggregate_qpf_uses']})",
         f"{parity['wall_seconds']:.2f}s"],
        ["throughput", f"1 client", f"{throughput['queries_per_sec_1']} q/s",
         f"{throughput['wall_seconds_1']:.2f}s"],
        ["throughput", f"{throughput['clients']} clients",
         f"{throughput['queries_per_sec_8']} q/s aggregate "
         f"({throughput['speedup']}x)",
         f"{throughput['wall_seconds_8']:.2f}s"],
        ["admission", f"{admission['attempts']} metered attempts",
         f"admitted {admission['admitted']}, shed {admission['shed_qpf']}",
         "-"],
    ]
    emit("serving",
         "Concurrent serving core: exact parity, scaling, load shedding",
         ["section", "setting", "result", "wall"], rows)
    emit_note("serving",
              "gate: bench_diff --threshold 0 --warn-wall with floors on "
              "throughput.speedup and throughput.queries_per_sec_8")
    write_bench_json(out or JSON_PATH, "serving", 7, results)


def test_bench_serving():
    results = _measure(tiny=True)
    _report(results)
    assert not _check(results)


def main(argv: list[str]) -> int:
    args = parse_bench_args(argv)
    results = _measure(tiny=args.tiny)
    _report(results, out=args.out)
    failures = _check(results)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: {PARITY_TENANTS} concurrent tenants x exactly "
          f"{EXPECTED_QPF} qpf_uses; "
          f"{results['throughput']['speedup']}x aggregate throughput at "
          f"{THROUGHPUT_CLIENTS} clients")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
