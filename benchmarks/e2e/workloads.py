"""The six workloads: inputs made from the seed, set-up, timed ops, oracle.

Every workload is a closed loop driven from this process.  Work is cut
into *rounds* of a fixed op count; a run executes a fixed number of
rounds sized so that, at the baseline's rate, the timed ops take about
``--seconds`` seconds.  Fixed work (not a deadline) keeps every count
metric exact for a seed.  In the traced pass even rounds run under the
tracer and odd rounds run bare, so the two halves see the same mix.
Between ops a :func:`probe` tells whether the host slowed the core down;
see :class:`Recorder`.

The program receives only the generated inputs: SQL text, plaintext
columns to encrypt, rows to insert and uids to delete.  Each answer is
compared with :class:`Oracle` (numpy on the plaintext columns) after the
op's timer has stopped.
"""

from __future__ import annotations

import os
import shutil
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import EncryptedDatabase
from repro.edbms.durability.faults import (CrashSpec, FaultInjector,
                                           SimulatedCrash)
from repro.serve import QueryServer

#: Seconds of timed ops the nominal op counts below were sized for.
NOMINAL_SECONDS = 10.0

DOMAIN = (1, 30_000_000)
OPERATORS = ("<", "<=", ">", ">=")
_COMPARE = {"<": np.less, "<=": np.less_equal,
            ">": np.greater, ">=": np.greater_equal}
#: Plaintext bytes per cell (int64 values).
CELL_BYTES = 8


@dataclass(frozen=True)
class Statement:
    """SQL text plus the same predicate in a form the oracle evaluates."""

    sql: str
    conditions: tuple[tuple[str, str, int], ...]
    count_only: bool = False


def comparison(rng, attribute: str, constant: int,
               count_only: bool = False) -> Statement:
    operator = OPERATORS[rng.integers(len(OPERATORS))]
    projection = "COUNT(*)" if count_only else "*"
    return Statement(
        f"SELECT {projection} FROM t WHERE {attribute} {operator} {constant}",
        ((attribute, operator, constant),), count_only)


def distinct_constants(rng, count: int, domain=DOMAIN) -> np.ndarray:
    """``count`` distinct constants strictly inside ``domain``, in draw
    order (no domain-sized array: the domain has 30M values)."""
    draws = rng.integers(domain[0] + 1, domain[1], size=2 * count + 16)
    _, first = np.unique(draws, return_index=True)
    constants = draws[np.sort(first)][:count]
    if constants.size < count:
        raise ValueError(f"domain {domain} too small for {count} constants")
    return constants


def distinct_comparisons(rng, attribute: str, count: int,
                         domain=DOMAIN) -> list[Statement]:
    """``count`` comparisons with distinct constants: every one is a new
    predicate, so the parse memo, plan cache and equivalence cache miss."""
    return [comparison(rng, attribute, int(c))
            for c in distinct_constants(rng, count, domain)]


class Oracle:
    """Plaintext columns indexed by uid, with a live mask."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = {name: np.array(values, dtype=np.int64)
                        for name, values in columns.items()}
        size = len(next(iter(self.columns.values())))
        self.live = np.ones(size, dtype=bool)

    def winners(self, conditions) -> np.ndarray:
        mask = self.live.copy()
        for attribute, operator, constant in conditions:
            mask &= _COMPARE[operator](self.columns[attribute], constant)
        return np.flatnonzero(mask).astype(np.uint64)

    def live_uids(self) -> np.ndarray:
        return np.flatnonzero(self.live).astype(np.uint64)

    def insert(self, uids: np.ndarray, rows: dict[str, np.ndarray]) -> None:
        positions = np.asarray(uids, dtype=np.int64)
        needed = int(positions.max()) + 1
        if needed > self.live.size:
            grow = max(needed, 2 * self.live.size) - self.live.size
            self.live = np.concatenate([self.live, np.zeros(grow, bool)])
            for name, values in self.columns.items():
                self.columns[name] = np.concatenate(
                    [values, np.zeros(grow, np.int64)])
        for name, values in rows.items():
            self.columns[name][positions] = values
        self.live[positions] = True

    def delete(self, uids: np.ndarray) -> None:
        self.live[np.asarray(uids, dtype=np.int64)] = False


def probe_floor(*recorders) -> float:
    """Full speed of this run: the 2nd percentile of all its probes."""
    return float(np.percentile(
        [seconds for rec in recorders for seconds in rec.probes], 2))


def probe() -> float:
    """Seconds one fixed piece of work takes right now (0.2 ms of
    interpreter loop over a small dict: nothing a query can evict from
    the caches, so it times the core and not what ran before it).  The
    sandbox's cores alternate, every 0.05 to 1 s, between full speed,
    about 1.2 and about 1.5 times slower (a busy sibling hyperthread on
    the host); a probe on either side of an op says which the op saw."""
    start = perf_counter()
    table = {}
    for i in range(2400):
        table[i & 255] = table.get(i & 255, 0) + i
    return perf_counter() - start


#: A probe within this factor of the run's fastest probes saw an
#: undisturbed core: undisturbed probes spread up to 1.1, the first slow
#: level sits near 1.2.
CLEAN_FACTOR = 1.12
#: Seconds a recorder may spend probing until the core is fast again
#: before it starts the next span regardless.
SETTLE_BUDGET_S = 2.0


class Recorder:
    """Latencies, probes, counter deltas and failures of a set of rounds.

    Timed work is cut into *spans*: one op on one thread, or one burst of
    ops from both serving clients.  A probe runs between consecutive
    spans, and a span is *clean* when the probes on both sides of it ran
    at full speed.  Timing metrics are computed over clean spans only, so
    they do not move with the share of the run the host slowed down;
    counts are over every op.  After a slow probe the recorder keeps
    probing until the core is fast again (for at most
    :data:`SETTLE_BUDGET_S` in all): when the host is busy nine tenths of
    the time, few spans would be clean otherwise.  Spans given the same
    ``slot`` are executions of the same work from the same state on
    different databases (``hybrid_budget``); the fastest clean one stands
    for them.
    """

    def __init__(self):
        self._fastest = float("inf")
        #: Per op: query, insert, delete or checkpoint.
        self.kinds: list[str] = []
        self.seconds: list[float] = []    # per op
        self.span_of: list[int] = []      # per op: index of its span
        self.span_wall: list[float] = []  # per span: wall seconds
        self.span_probe: list[int] = []   # per span: index of probe before
        self.span_slot: list[int] = []    # per span: the work it executes
        self.span_kind: list[str] = []    # per span: kind of its ops
        self.probes: list[float] = []
        self.settled_s = 0.0
        self.counters: dict[str, int] = {}
        #: Seconds of timed ops outside any span: failed ops, recoveries.
        self.other_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def op_s(self) -> float:
        """Seconds inside the benchmark's own op timers: what the traced
        root spans must add up to."""
        return sum(self.seconds) + self.other_s

    def probe(self) -> None:
        """Probe (after untimed work, before the next span) until the core
        is at full speed or the budget for waiting is spent."""
        while True:
            seconds = probe()
            self.probes.append(seconds)
            self._fastest = min(self._fastest, seconds)
            if (seconds <= self._fastest * CLEAN_FACTOR
                    or self.settled_s >= SETTLE_BUDGET_S):
                return
            self.settled_s += seconds

    def op(self, kind: str, seconds: float) -> None:
        """One op of the span that the next :meth:`end_span` closes."""
        self.kinds.append(kind)
        self.seconds.append(seconds)
        self.span_of.append(len(self.span_wall))

    def end_span(self, wall: float, slot: int | None = None) -> None:
        self.span_slot.append(-1 - len(self.span_wall) if slot is None
                              else slot)
        self.span_wall.append(wall)
        self.span_kind.append(self.kinds[-1])
        self.span_probe.append(len(self.probes) - 1)
        self.probe()

    def record(self, kind: str, seconds: float,
               slot: int | None = None) -> None:
        """A span of one op."""
        self.op(kind, seconds)
        self.end_span(seconds, slot)

    def clean_spans(self, floor: float) -> np.ndarray:
        """Mask over spans: both neighbouring probes at full speed (every
        span, should none be clean).  Of the spans that share a slot, the
        fastest clean one, or the fastest should none be clean: a slot is
        never left out, because a few of them carry most of the time."""
        fast = np.array(self.probes) < floor * CLEAN_FACTOR
        before = np.array(self.span_probe, dtype=np.int64)
        clean = fast[before] & fast[before + 1]
        if not clean.any():
            clean[:] = True
        slots = np.array(self.span_slot)
        if (slots < 0).all():
            return clean
        order = np.lexsort((self.span_wall, ~clean, slots))
        _, first = np.unique(slots[order], return_index=True)
        chosen = np.zeros_like(clean)
        chosen[order[first]] = True
        return chosen

    def clean_seconds(self, kind: str, floor: float) -> np.ndarray:
        """Latencies of the ops of ``kind`` that ran in clean spans."""
        if not self.kinds:
            return np.empty(0)
        in_clean = self.clean_spans(floor)[np.array(self.span_of)]
        return np.array(self.seconds)[in_clean
                                      & (np.array(self.kinds) == kind)]

    def clean_query_rate(self, floor: float) -> float:
        """Queries completed per second of wall time, had every span run
        like the clean spans of its kind: the wall includes the writes and
        checkpoints between the queries, in the proportion the workload
        has them and not the proportion in which they came out clean
        (six checkpoints of 0.1 s are 6 % of ``churn_durable``; none or
        three of them may be clean)."""
        wall = np.array(self.span_wall)
        queries = np.bincount(
            np.array(self.span_of)[np.array(self.kinds) == "query"],
            minlength=wall.size)
        total_queries = total_wall = 0.0
        for _, weight, picked in self.strata(floor):
            total_queries += weight * queries[picked].mean()
            total_wall += weight * wall[picked].mean()
        return total_queries / total_wall

    def strata(self, floor: float):
        """``(kind, weight, mask)`` per kind of span: how many distinct
        pieces of work (slots) of the kind there are, and the spans that
        stand for them: its clean spans, or all should none be clean."""
        clean = self.clean_spans(floor)
        kind = np.array(self.span_kind)
        slots = np.array(self.span_slot)
        for name in sorted(set(self.span_kind)):
            of_kind = kind == name
            picked = of_kind & clean
            yield (name, np.unique(slots[of_kind]).size,
                   picked if picked.any() else of_kind)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add_counters(self, before: dict, after: dict) -> None:
        for name, value in after.items():
            self.counters[name] = self.counters.get(name, 0) \
                + value - before[name]


def plan_rounds(nominal_ops: int, nominal_rounds: int,
                scale: float) -> tuple[int, int]:
    """``(rounds, ops per round)``; at least two rounds so the traced pass
    has a traced and a bare half."""
    total = max(8, int(nominal_ops * scale))
    rounds = max(2, round(nominal_rounds * scale))
    return rounds, max(4, total // rounds)


class Workload:
    """Base: timing and checking of single ops, shared by all six."""

    name = ""

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.setup_s: list[float] = []
        self.db = None
        self.oracle = None
        self.rounds = 0

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    # -- hooks ----------------------------------------------------------- #

    def setup(self) -> None:
        """Build the program state the timed ops start from; appends the
        seconds it took to ``setup_s``.  Called several times, the last
        state is the one measured."""
        raise NotImplementedError

    def prelude(self) -> None:
        """Extra untraced measurement the traced pass makes first."""

    def begin_round(self, index: int) -> None:
        """Untimed, untraced preparation of one round."""

    def round(self, index: int, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, plain: Recorder, traced: Recorder, tracer) -> dict:
        """Workload-specific metrics measured after the last round."""
        return {}

    def planners(self) -> list:
        return [self.db.planner]

    def indexes(self) -> list:
        return [index for by_attribute in
                self.db.server.all_indexes().values()
                for index in by_attribute.values()]

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- timed ops -------------------------------------------------------- #

    def select(self, run_query, statement: Statement, rec: Recorder,
               slot: int | None = None) -> None:
        """Time one SELECT, check it, then record it and probe."""
        elapsed, answer = self.timed(
            statement.sql, lambda: run_query(statement.sql), rec)
        if elapsed is None:
            return
        expected = self.oracle.winners(statement.conditions)
        if statement.count_only:
            correct = answer.count == expected.size
        else:
            correct = np.array_equal(answer.uids, expected)
        if not correct:
            rec.fail(f"{statement.sql}: {answer.count} winners, "
                     f"oracle has {expected.size}")
        rec.record("query", elapsed, slot)

    @staticmethod
    def timed(label: str, call, rec: Recorder):
        """Time one call into the program; ``(seconds, result)``, seconds
        ``None`` when it raised.  The caller checks the result or updates
        the oracle, then ``rec.record``s."""
        rec.attempted += 1
        start = perf_counter()
        try:
            result = call()
        except Exception:
            rec.other_s += perf_counter() - start
            rec.fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None, None
        return perf_counter() - start, result

    def select_round(self, statements, rec: Recorder) -> None:
        """One round of SELECTs through ``db.query`` on one thread."""
        db = self.db
        before = db.counter.as_dict()
        rec.probe()
        for statement in statements:
            self.select(db.query, statement, rec)
        rec.add_counters(before, db.counter.as_dict())


def uniform_column(rng, rows: int, domain=DOMAIN) -> np.ndarray:
    return rng.integers(domain[0], domain[1] + 1, rows)


# ---------------------------------------------------------------------- #
# sd_cold                                                                 #
# ---------------------------------------------------------------------- #

class SdCold(Workload):
    name = "sd_cold"
    ROWS = 100_000

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        # 16 rounds x 300 distinct comparisons at nominal scale.  Every
        # round starts from a fresh database and has its own statements:
        # how fast a cold chain refines depends on where the first few
        # constants fall, and 16 draws average that out.
        self.rounds, self.per_round = plan_rounds(4800, 16, scale)
        self.column = uniform_column(self.rng(0), self.ROWS)
        self.statements = distinct_comparisons(
            self.rng(1), "a", self.rounds * self.per_round)
        self.oracle = Oracle({"a": self.column})

    def setup(self):
        self.close()
        start = perf_counter()
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {"a": DOMAIN}, {"a": self.column})
        db.enable_prkb("t", ["a"])
        self.setup_s.append(perf_counter() - start)
        self.db = db

    def begin_round(self, index):
        self.setup()

    def round(self, index, rec):
        first = index * self.per_round
        self.select_round(self.statements[first:first + self.per_round], rec)


# ---------------------------------------------------------------------- #
# sd_warm                                                                 #
# ---------------------------------------------------------------------- #

class SdWarm(Workload):
    name = "sd_warm"

    ROWS = SdCold.ROWS

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.rounds, self.per_round = plan_rounds(4000, 16, scale)
        self.warmup = max(4, int(300 * scale))
        self.column = uniform_column(self.rng(0), self.ROWS)
        self.statements = distinct_comparisons(
            self.rng(1), "a", self.warmup + self.rounds * self.per_round)
        self.oracle = Oracle({"a": self.column})

    def setup(self):
        self.close()
        start = perf_counter()
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {"a": DOMAIN}, {"a": self.column})
        db.enable_prkb("t", ["a"])
        for statement in self.statements[:self.warmup]:
            db.query(statement.sql)
        self.setup_s.append(perf_counter() - start)
        self.db = db

    def round(self, index, rec):
        first = self.warmup + index * self.per_round
        self.select_round(self.statements[first:first + self.per_round], rec)


# ---------------------------------------------------------------------- #
# md_grid                                                                 #
# ---------------------------------------------------------------------- #

class MdGrid(Workload):
    name = "md_grid"
    ROWS = 100_000
    MD_DOMAIN = (1, 1_000_000)

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.rounds, self.per_round = plan_rounds(2000, 16, scale)
        # The first 100 windows cut the empty grid at 20k QPF tuples a
        # query, ten times the rest; left in the timed stream they are 5 %
        # of it and the 95th percentile falls on their edge.
        self.warmup = max(4, int(100 * scale))
        rng = self.rng(0)
        low, high = self.MD_DOMAIN
        a = uniform_column(rng, self.ROWS, self.MD_DOMAIN)
        b = np.clip(a + rng.integers(-50_000, 50_001, self.ROWS), low, high)
        self.columns = {"a": a, "b": b}
        self.oracle = Oracle(self.columns)
        # Windows of ~5 % of the domain per dimension, centred near the
        # a = b diagonal where the correlated rows are.
        width = (high - low) // 20
        rng = self.rng(1)
        self.statements = []
        for _ in range(self.warmup + self.rounds * self.per_round):
            a_low = int(rng.integers(low, high - width))
            b_low = int(np.clip(a_low + rng.integers(-30_000, 30_001),
                                low, high - width))
            self.statements.append(Statement(
                f"SELECT * FROM t WHERE a > {a_low} AND a < {a_low + width}"
                f" AND b > {b_low} AND b < {b_low + width}",
                (("a", ">", a_low), ("a", "<", a_low + width),
                 ("b", ">", b_low), ("b", "<", b_low + width))))

    def setup(self):
        self.close()
        start = perf_counter()
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {"a": self.MD_DOMAIN, "b": self.MD_DOMAIN},
                        self.columns)
        db.enable_prkb("t", ["a", "b"])
        for statement in self.statements[:self.warmup]:
            db.query(statement.sql)
        self.setup_s.append(perf_counter() - start)
        self.db = db

    def round(self, index, rec):
        first = self.warmup + index * self.per_round
        self.select_round(self.statements[first:first + self.per_round], rec)


# ---------------------------------------------------------------------- #
# churn_durable                                                           #
# ---------------------------------------------------------------------- #

class ChurnDurable(Workload):
    name = "churn_durable"
    ROWS = 50_000
    INSERT_ROWS = 8
    DELETE_ROWS = 4
    #: A checkpoint every 500 ops, first at op 250, so the crash at the end
    #: leaves a WAL tail for recovery to replay.
    CHECKPOINT_EVERY = 500
    CHECKPOINT_OFFSET = 250
    RECOVERIES = 4
    CHECKS = 16

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.rounds, self.per_round = plan_rounds(3000, 16, scale)
        total = self.rounds * self.per_round
        self.column = uniform_column(self.rng(0), self.ROWS)
        rng = self.rng(1)
        # 65 % SELECT, 20 % insert batch, 15 % delete.
        self.kinds = rng.choice(3, size=total, p=[0.65, 0.20, 0.15])
        self.statements = distinct_comparisons(rng, "a", total + self.CHECKS)
        self.inserts = uniform_column(rng, total * self.INSERT_ROWS) \
            .reshape(total, self.INSERT_ROWS)
        self.victim_rng = self.rng(2)
        self.every = max(8, int(self.CHECKPOINT_EVERY * min(1.0, scale * 4)))
        self.offset = self.every // 2
        self.user_bytes = 0
        self.checkpoint_bytes = 0
        self.faults = None
        self.root = None
        self._generation = 0

    def setup(self):
        self.close()
        self._generation += 1
        root = self.workdir / f"churn-{self._generation}"
        start = perf_counter()
        faults = FaultInjector()
        db = EncryptedDatabase.open(root, seed=self.seed, fsync="always",
                                    faults=faults)
        db.create_table("t", {"a": DOMAIN}, {"a": self.column})
        db.enable_prkb("t", ["a"])
        self.setup_s.append(perf_counter() - start)
        self.db, self.faults, self.root = db, faults, root
        self.oracle = Oracle({"a": self.column})

    def round(self, index, rec):
        db, oracle = self.db, self.oracle
        before = db.counter.as_dict()
        rec.probe()
        first = index * self.per_round
        for position in range(first, first + self.per_round):
            kind = self.kinds[position]
            if kind == 0:
                self.select(db.query, self.statements[position], rec)
            elif kind == 1:
                values = self.inserts[position]
                elapsed, uids = self.timed(
                    "insert", lambda: db.insert("t", {"a": values}), rec)
                if elapsed is not None:
                    oracle.insert(uids, {"a": values})
                    self.user_bytes += values.size * CELL_BYTES
                    rec.record("insert", elapsed)
            else:
                victims = self.victim_rng.choice(
                    oracle.live_uids(), size=self.DELETE_ROWS, replace=False)
                elapsed, _ = self.timed(
                    "delete", lambda: db.delete("t", victims), rec)
                if elapsed is not None:
                    oracle.delete(victims)
                    self.user_bytes += victims.size * CELL_BYTES
                    rec.record("delete", elapsed)
            if position % self.every == self.offset:
                elapsed, _ = self.timed("checkpoint", db.checkpoint, rec)
                if elapsed is not None:
                    self.checkpoint_bytes += _tree_bytes(self.root,
                                                         skip=".wal")
                    rec.record("checkpoint", elapsed)
        rec.add_counters(before, db.counter.as_dict())

    def finish(self, plain, traced, tracer):
        """Power loss, recovery, and the check of every acknowledged write."""
        wal_bytes = plain.counters.get("wal_bytes", 0) \
            + traced.counters.get("wal_bytes", 0)
        # One more insert is cut short after its record is buffered and
        # before any fsync; the injector drops the unflushed bytes.  It was
        # never acknowledged, so the oracle does not learn of it.
        point = "wal.append.after"
        self.faults.arm(CrashSpec(point, power_loss=True,
                                  hit=self.faults.visits.get(point, 0) + 1))
        try:
            self.db.insert("t", {"a": np.array([DOMAIN[0]])})
        except SimulatedCrash:
            pass
        else:
            plain.fail("the injected power loss did not fire")
        self.db = None  # crashed: never closed, so nothing more is flushed

        copies = []
        for number in range(self.RECOVERIES):
            copy = self.workdir / f"crashed-{number}"
            shutil.copytree(self.root, copy)
            copies.append(copy)
        bare_s, replayed = [], 0
        for number, copy in enumerate(copies):
            if tracer is not None and number % 2 == 0:
                with tracer.installed():
                    start = perf_counter()
                    recovered = EncryptedDatabase.open(copy)
                    traced.other_s += perf_counter() - start
            else:
                start = perf_counter()
                recovered = EncryptedDatabase.open(copy)
                bare_s.append(perf_counter() - start)
            replayed = recovered.recovery_stats.wal_records_replayed
            if number < len(copies) - 1:
                recovered.close()
        self.db = recovered

        # Every acknowledged insert is visible and every acknowledged
        # delete is gone: the recovered table is exactly the oracle's.
        plain.attempted += 1
        everything = recovered.query(
            f"SELECT * FROM t WHERE a >= {DOMAIN[0]}").uids
        lost = np.setxor1d(everything, self.oracle.live_uids()).size
        if lost:
            plain.failed += lost
            plain.errors.append(f"{lost} acknowledged writes lost or "
                                "resurrected by recovery")
        checks = Recorder()  # checked, but not part of the timed samples
        checks.probe()
        for statement in self.statements[-self.CHECKS:]:
            self.select(recovered.query, statement, checks)
        plain.attempted += checks.attempted
        plain.failed += checks.failed
        plain.errors += checks.errors

        recovered.checkpoint()
        live_bytes = int(self.oracle.live.sum()) * CELL_BYTES
        return {
            # The same recovery of the same bytes, several times: the
            # fastest is the one the host disturbed least.
            "recovery_s": min(bare_s),
            "wal_bytes_per_user_byte": wal_bytes / max(1, self.user_bytes),
            "disk_bytes_per_user_byte":
                _tree_bytes(copies[-1]) / max(1, live_bytes),
            "edbms.durability.recovery_records_replayed": replayed,
            "edbms.durability.checkpoint_bytes": self.checkpoint_bytes,
        }


def _tree_bytes(root: Path, skip: str | None = None) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _, names in os.walk(root) for name in names
               if skip is None or not name.endswith(skip))


# ---------------------------------------------------------------------- #
# serve_zipf_2c                                                           #
# ---------------------------------------------------------------------- #

class ServeZipf2c(Workload):
    name = "serve_zipf_2c"
    ROWS = 50_000
    CLIENTS = 2
    POOL = 400
    ZIPF = 1.1
    #: Statements per client between two probes (about 10 ms of wall).
    BURST = 8

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.rounds, self.per_round = plan_rounds(4000, 16, scale)
        self.column = uniform_column(self.rng(0), self.ROWS)
        self.oracle = Oracle({"a": self.column})
        weights = 1.0 / np.arange(1, self.POOL + 1) ** self.ZIPF
        weights /= weights.sum()
        self.pools, self.draws, self.digests = [], [], []
        for client in range(self.CLIENTS):
            rng = self.rng(1 + client)
            pool = [comparison(rng, "a", int(c), count_only=bool(i % 2))
                    for i, c in enumerate(
                        distinct_constants(rng, self.POOL))]
            self.pools.append(pool)
            self.draws.append(rng.choice(
                self.POOL, size=self.rounds * self.per_round, p=weights))
            self.digests.append([_digest(self.oracle.winners(s.conditions))
                                 for s in pool])
        self.server = None
        self.single_rate = 0.0
        self._generation = 0

    def tenants(self, clients=None) -> list[str]:
        return [f"tenant{i}" for i in range(clients or self.CLIENTS)]

    def setup(self, clients=None):
        self.close()
        self._generation += 1
        start = perf_counter()
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {"a": DOMAIN}, {"a": self.column})
        db.enable_outcomes(self.workdir / f"ledger-{self._generation}",
                           fsync="off")
        server = QueryServer(db, workers=self.CLIENTS)
        for tenant in self.tenants(clients):
            server.session(tenant).enable_prkb("t", ["a"])
        self.setup_s.append(perf_counter() - start)
        self.db, self.server = db, server

    def planners(self):
        return [self.server.session(t).planner for t in self.tenants()]

    def indexes(self):
        return [index for tenant in self.tenants()
                for by_attribute in self.server.session(tenant)
                .namespace.all_indexes().values()
                for index in by_attribute.values()]

    def _client(self, client: int, first: int, count: int, out: list):
        """One closed-loop client.  Answers are digested here and compared
        after the burst, so no oracle work competes with the other
        client's timed op for the interpreter lock."""
        tenant = f"tenant{client}"
        query, pool = self.server.query, self.pools[client]
        for draw in self.draws[client][first:first + count]:
            statement = pool[draw]
            start = perf_counter()
            try:
                answer = query(tenant, statement.sql)
            except Exception:
                out.append((draw, start, perf_counter(), None,
                            traceback.format_exc(limit=3)))
                continue
            end = perf_counter()
            out.append((draw, start, end, True,
                        answer.count if statement.count_only
                        else _digest(answer.uids)))

    def round(self, index, rec, clients=None):
        """``per_round`` statements per client, in bursts of :data:`BURST`
        with a probe between bursts; a burst is one span."""
        clients = clients or self.CLIENTS
        before = self.db.counter.as_dict()
        rec.probe()
        first = index * self.per_round
        for start in range(first, first + self.per_round, self.BURST):
            count = min(self.BURST, first + self.per_round - start)
            outs = [[] for _ in range(clients)]
            threads = [threading.Thread(target=self._client,
                                        args=(c, start, count, outs[c]))
                       for c in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            begun = min(out[0][1] for out in outs)
            ended = max(out[-1][2] for out in outs)
            for client, out in enumerate(outs):
                for draw, op_start, op_end, ok, got in out:
                    rec.attempted += 1
                    statement = self.pools[client][draw]
                    if ok is None:
                        rec.other_s += op_end - op_start
                        rec.fail(f"{statement.sql}: {got}")
                        continue
                    rec.op("query", op_end - op_start)
                    expected = self.digests[client][draw]
                    if statement.count_only:
                        expected = expected[0]
                    if got != expected:
                        rec.fail(f"{statement.sql}: digest {got} != "
                                 f"oracle {expected}")
            rec.end_span(ended - begun)
        rec.add_counters(before, self.db.counter.as_dict())

    def prelude(self) -> None:
        """Queries per second of tenant0 alone on a fresh database, over
        the first rounds of its own statement stream (untraced): the base
        of ``serve.scaling_2c_over_1c``."""
        self.setup(clients=1)
        self.setup_s.clear()
        rec = Recorder()
        for index in range(min(self.rounds, 6)):
            self.round(index, rec, clients=1)
        self.single_rate = rec.clean_query_rate(probe_floor(rec))

    def finish(self, plain, traced, tracer):
        stats = self.server.stats()
        ledger = self.db.ledger.stats()
        return {
            "serve.scaling_2c_over_1c":
                plain.clean_query_rate(probe_floor(plain, traced))
                / self.single_rate if self.single_rate else 0.0,
            "serve.shed": stats["admission"]["shed"],
            "obs.ledger.bytes": ledger["bytes_written"],
            "obs.ledger.atoms": ledger["records_written"],
        }

    def close(self):
        super().close()
        self.server = None


def _digest(uids: np.ndarray) -> tuple[int, int, int]:
    """Size, wrapping sum and xor of a winner set."""
    if uids.size == 0:
        return (0, 0, 0)
    return (int(uids.size), int(uids.sum(dtype=np.uint64)),
            int(np.bitwise_xor.reduce(uids)))


# ---------------------------------------------------------------------- #
# hybrid_budget                                                           #
# ---------------------------------------------------------------------- #

class HybridBudget(Workload):
    name = "hybrid_budget"
    ROWS = 1_000
    HY_DOMAIN = (1, 100_000)
    #: The stream holds two materializations of 0.2 s and ops from 0.3 to
    #: 25 ms, too few and too uneven for a random clean subset to stand
    #: for them.  It is replayed on this many fresh databases, one after
    #: the other; statement ``i`` is slot ``i`` on each.
    REPLICAS = 4
    #: Odd, so that in the traced pass every chunk runs traced on one
    #: replica and bare on the next.
    CHUNKS = 5

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        # Round-robin cycles: X < c, narrow Y BETWEEN, X > c, Z < c,
        # X <= c.  With X in three of five statements the median latency
        # lies inside the OPE-compare cluster (0.15 to 0.45 ms), not in
        # the gap between it and the share-table cluster (17 ms) where it
        # would jump about.
        cycles = max(1, int(60 * scale) // self.CHUNKS)
        self.rounds = self.REPLICAS * self.CHUNKS
        self.per_round = 5 * cycles
        low, high = self.HY_DOMAIN
        rng = self.rng(0)
        self.columns = {name: uniform_column(rng, self.ROWS, self.HY_DOMAIN)
                        for name in ("X", "Y", "Z")}
        self.oracle = Oracle(self.columns)
        band = (high - low + 1) // 100
        rng = self.rng(1)
        self.statements = []
        for _ in range(self.CHUNKS * cycles):
            x, z, x2, x3 = (int(c) for c in rng.integers(low + 1, high, 4))
            y = int(rng.integers(low, high - band))
            self.statements += [
                Statement(f"SELECT * FROM t WHERE X < {x}",
                          (("X", "<", x),)),
                Statement(f"SELECT * FROM t WHERE Y BETWEEN {y} AND "
                          f"{y + band}",
                          (("Y", ">=", y), ("Y", "<=", y + band))),
                Statement(f"SELECT * FROM t WHERE X > {x2}",
                          (("X", ">", x2),)),
                Statement(f"SELECT * FROM t WHERE Z < {z}",
                          (("Z", "<", z),)),
                Statement(f"SELECT * FROM t WHERE X <= {x3}",
                          (("X", "<=", x3),)),
            ]
        self.dispatch = None

    def setup(self):
        self.close()
        start = perf_counter()
        db = EncryptedDatabase(seed=self.seed)
        db.create_table("t", {name: self.HY_DOMAIN for name in self.columns},
                        self.columns)
        db.enable_prkb("t", ["X"])
        self.dispatch = db.enable_hybrid(budget=1.0 + 40 / self.ROWS)
        self.setup_s.append(perf_counter() - start)
        self.db = db

    def begin_round(self, index):
        if index % self.CHUNKS == 0:
            self.setup()

    def round(self, index, rec):
        db = self.db
        before = db.counter.as_dict()
        rec.probe()
        first = index % self.CHUNKS * self.per_round
        for slot in range(first, first + self.per_round):
            self.select(db.query, self.statements[slot], rec, slot)
        rec.add_counters(before, db.counter.as_dict())

    def finish(self, plain, traced, tracer):
        routed = self.db.planner.strategy_counts
        metrics = {
            "rpoi_spent": self.dispatch.ledger.spent("t"),
            "plan.schemes.routed.ope": routed.get("ope-compare", 0),
            "plan.schemes.routed.src": routed.get("src-probe", 0),
            "plan.schemes.routed.mpc": routed.get("mpc-share", 0),
            "plan.schemes.routed.scan": routed.get("baseline-scan", 0),
            "plan.schemes.routed.prkb": sum(
                count for kind, count in routed.items()
                if kind.startswith(("prkb", "md-"))),
        }
        for scheme, stats in self.db.scheme_stats().items():
            metrics[f"plan.schemes.qpf.{scheme}"] = stats["qpf_uses"]
        return metrics


WORKLOADS = {cls.name: cls for cls in (SdCold, SdWarm, MdGrid, ChurnDurable,
                                       ServeZipf2c, HybridBudget)}
