"""Experiment harness shared by the benchmark suite.

Builds fully wired testbeds (data owner, trusted machine, service
provider, PRKB indexes, the Logarithmic-SRC-i competitor) from workload
descriptions and measures queries on the paper's two scales: QPF uses and
simulated milliseconds (plus wall time for reference).

Benchmark scale note: the paper runs 10M-20M tuples on C/C++; the default
scales here are 20k-100k so the whole suite runs in minutes in Python.
Every bench accepts environment overrides (``REPRO_BENCH_SCALE``) to grow
the scale; the reported *relative factors* are scale-stable because the
competing methods differ asymptotically (Θ(n) vs O(k + log n) QPF uses).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..baselines.linear_scan import LinearScanProcessor
from ..baselines.log_src_i import LogSRCiIndex
from ..core.multi import DimensionRange, MultiDimensionProcessor
from ..core.prkb import PRKBIndex
from ..core.single import SingleDimensionProcessor
from ..crypto.primitives import generate_key
from ..edbms.costs import CostCounter, CostModel, DEFAULT_COST_MODEL
from ..edbms.owner import DataOwner
from ..edbms.qpf import (
    CrossingLatency,
    QueryProcessingFunction,
    build_trusted_machine,
)
from ..edbms.schema import PlainTable
from ..workloads.queries import distinct_comparison_thresholds

__all__ = ["Measurement", "Testbed", "build_testbed", "bench_scale",
           "bench_seed"]


def bench_scale(default: float = 1.0) -> float:
    """Global benchmark scale factor from ``REPRO_BENCH_SCALE``."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    scale = float(raw)
    if scale <= 0:
        raise ValueError("REPRO_BENCH_SCALE must be positive")
    return scale


def bench_seed(default: int = 0) -> int:
    """Global benchmark RNG seed from ``REPRO_BENCH_SEED``.

    Every benchmark derives all of its generators (data, warm-up
    thresholds, workload) from this one value, so a whole
    ``BENCH_*.json`` run is reproducible from a single number.  The
    ``--seed`` CLI flag of the bench scripts (see
    ``benchmarks/_common.py``) sets the variable before any RNG is
    built.
    """
    raw = os.environ.get("REPRO_BENCH_SEED")
    if raw is None:
        return default
    return int(raw)


@dataclass(frozen=True)
class Measurement:
    """One measured operation: counters, simulated and wall time.

    ``qpf_roundtrips`` / ``parallel_wall_roundtrips`` carry the dual
    work/critical-path roundtrip accounting (identical without a shard
    pool); they default to 0 so hand-built fixtures stay terse.
    """

    label: str
    qpf_uses: int
    simulated_ms: float
    wall_ms: float
    result_count: int
    qpf_roundtrips: int = 0
    parallel_wall_roundtrips: int = 0


class Testbed:
    """A wired encrypted database plus every method under comparison."""

    __test__ = False  # not a pytest test class despite being used in tests

    def __init__(self, table: PlainTable, indexed_attributes: list[str],
                 max_partitions: int | None = None,
                 with_log_src_i: bool = False,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 seed: int | None = 0,
                 qpf_workers: int | None = None,
                 qpf_latency: CrossingLatency | None = None,
                 qpf_min_shard_tuples: int | None = None,
                 column_cache_bytes: int | None = None):
        self.plain = table
        self.owner = DataOwner(key=generate_key(seed))
        self.counter = CostCounter()
        self.cost_model = cost_model
        self._trusted_machine = build_trusted_machine(
            self.owner.key, self.counter, qpf_workers, qpf_latency,
            qpf_min_shard_tuples, column_cache_bytes)
        self.qpf = QueryProcessingFunction(self._trusted_machine)
        self.table = self.owner.encrypt_table(table)
        self.prkb: dict[str, PRKBIndex] = {}
        for position, attribute in enumerate(indexed_attributes):
            index_seed = None if seed is None else seed + 101 * position
            self.prkb[attribute] = PRKBIndex(
                self.table, self.qpf, attribute,
                max_partitions=max_partitions, seed=index_seed)
        self.linear = LinearScanProcessor(self.table, self.qpf)
        self.log_src_i: dict[str, LogSRCiIndex] = {}
        if with_log_src_i:
            for attribute in indexed_attributes:
                spec = table.schema[attribute]
                self.log_src_i[attribute] = LogSRCiIndex(
                    self.owner.key, self.counter, attribute,
                    (spec.domain_min, spec.domain_max),
                    table.uids, table.columns[attribute])

    # -- measurement core -------------------------------------------------- #

    def measure(self, label: str, operation) -> Measurement:
        """Run ``operation()`` and capture its cost delta."""
        before = self.counter.snapshot()
        start = time.perf_counter()
        result = operation()
        wall_ms = (time.perf_counter() - start) * 1e3
        spent = self.counter.diff(before)
        count = int(np.asarray(result).size) if result is not None else 0
        return Measurement(
            label=label,
            qpf_uses=spent.qpf_uses,
            simulated_ms=self.cost_model.simulated_millis(spent),
            wall_ms=wall_ms,
            result_count=count,
            qpf_roundtrips=spent.qpf_roundtrips,
            parallel_wall_roundtrips=spent.parallel_wall_roundtrips,
        )

    def close(self) -> None:
        """Release pooled enclave workers, if any (idempotent)."""
        close = getattr(self._trusted_machine, "close", None)
        if close is not None:
            close()

    # -- query runners ------------------------------------------------------ #

    def dimension_range(self, attribute: str,
                        bounds: tuple[int, int]) -> DimensionRange:
        """Trapdoors for one ``lb < X < ub`` dimension."""
        low, high = bounds
        return DimensionRange(
            attribute=attribute,
            low=self.owner.comparison_trapdoor(attribute, ">", low),
            high=self.owner.comparison_trapdoor(attribute, "<", high),
        )

    def run_sd(self, attribute: str, bounds: tuple[int, int],
               update: bool = True) -> Measurement:
        """PRKB(SD) range query on one attribute."""
        processor = SingleDimensionProcessor(self.prkb[attribute])
        dim = self.dimension_range(attribute, bounds)
        return self.measure("PRKB(SD)", lambda: processor.select_range(
            dim.low, dim.high, update=update))

    def run_baseline(self, attribute: str,
                     bounds: tuple[int, int]) -> Measurement:
        """Unindexed linear scan for the same range."""
        dim = self.dimension_range(attribute, bounds)
        return self.measure("Baseline",
                            lambda: self.linear.select_range([dim]))

    def run_log_src_i(self, attribute: str,
                      bounds: tuple[int, int]) -> Measurement:
        """Logarithmic-SRC-i for the same range."""
        index = self.log_src_i[attribute]
        low, high = bounds
        return self.measure("Logarithmic-SRC-i",
                            lambda: index.query_open(low, high))

    def run_md(self, bounds: dict[str, tuple[int, int]],
               strategy: str = "md", update: bool = True) -> Measurement:
        """Multi-dimensional range query with the chosen PRKB strategy."""
        query = [self.dimension_range(attr, b) for attr, b in
                 bounds.items()]
        if strategy == "baseline":
            return self.measure("Baseline",
                                lambda: self.linear.select_range(query))
        processor = MultiDimensionProcessor(
            {attr: self.prkb[attr] for attr in bounds})
        if strategy == "md":
            return self.measure("PRKB(MD)", lambda: processor.select(
                query, update=update))
        if strategy == "sd+":
            return self.measure("PRKB(SD+)", lambda: processor.select_naive(
                query, update=update))
        raise ValueError(f"unknown strategy {strategy!r}")

    def run_log_src_i_md(self, bounds: dict[str, tuple[int, int]]
                         ) -> Measurement:
        """Per-dimension SRC-i queries intersected."""
        from ..baselines.log_src_i import multi_dimensional_query
        return self.measure(
            "Logarithmic-SRC-i",
            lambda: multi_dimensional_query(self.log_src_i, bounds))

    # -- PRKB warm-up -------------------------------------------------------- #

    def prime_column_cache(self, attribute: str) -> bool:
        """Pre-decrypt one attribute into the trusted machine's column cache.

        Spends zero ``qpf_uses`` (priming decrypts, it does not test).
        Returns ``False`` when the cache is disabled or the column does
        not fit the configured byte budget.
        """
        return self._trusted_machine.prime_column(self.table, attribute)

    def column_cache_stats(self) -> dict:
        """Column-cache statistics of the underlying trusted machine."""
        return self._trusted_machine.column_cache_stats()

    def warm_up(self, attribute: str, num_queries: int,
                seed: int | None = 7) -> None:
        """Grow the attribute's PRKB with distinct comparison queries.

        Mirrors the paper's setup for the static-index experiments ("a
        static PRKB with 250 partitions" is a warm index with the
        partition cap set to 250).
        """
        spec = self.plain.schema[attribute]
        thresholds = distinct_comparison_thresholds(
            (spec.domain_min, spec.domain_max), num_queries, seed=seed)
        processor = SingleDimensionProcessor(self.prkb[attribute])
        for threshold in thresholds:
            trapdoor = self.owner.comparison_trapdoor(attribute, "<",
                                                      int(threshold))
            processor.select(trapdoor, update=True)


def build_testbed(table: PlainTable, indexed_attributes: list[str],
                  max_partitions: int | None = None,
                  with_log_src_i: bool = False,
                  warm_up_queries: int = 0,
                  seed: int | None = 0,
                  qpf_workers: int | None = None,
                  qpf_latency: CrossingLatency | None = None,
                  qpf_min_shard_tuples: int | None = None,
                  column_cache_bytes: int | None = None) -> Testbed:
    """Convenience constructor used by the benchmark files."""
    bed = Testbed(table, indexed_attributes, max_partitions=max_partitions,
                  with_log_src_i=with_log_src_i, seed=seed,
                  qpf_workers=qpf_workers, qpf_latency=qpf_latency,
                  qpf_min_shard_tuples=qpf_min_shard_tuples,
                  column_cache_bytes=column_cache_bytes)
    if warm_up_queries:
        for attribute in indexed_attributes:
            bed.warm_up(attribute, warm_up_queries)
    return bed
