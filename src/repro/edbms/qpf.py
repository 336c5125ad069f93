"""The query processing function (QPF) and its trusted-machine realisation.

The QPF model (paper Sec. 3.1) is the contract PRKB builds on:

    Θ(p̂, t̂) = 1  iff the plaintext tuple satisfies the plaintext predicate.

The service provider can call Θ but learns nothing beyond the 0/1 output.
We realise Θ with a :class:`TrustedMachine` — a Cipherbase-style enclave
simulation that holds the data key, unseals the trapdoor, decrypts the cell
and evaluates the comparison, charging one ``qpf_uses`` tick per tuple.

Batched evaluation is provided (and vectorised) because the benchmark
scales would otherwise take minutes in pure Python; the accounting is
identical — a batch of ``n`` tuples costs ``n`` QPF uses, exactly as if the
server had looped.

A Θ backend has exactly two crossings, metered alike:

* :meth:`TrustedMachine.evaluate_batch` — one trapdoor over many uids.
  One enclave *roundtrip* (``qpf_roundtrips += 1``), ``n`` QPF uses.
* :meth:`TrustedMachine.evaluate_many` — a heterogeneous payload of
  :class:`QPFRequest` entries (possibly different trapdoors and tables)
  shipped in a single crossing.  Still one roundtrip; QPF uses equal the
  total tuple count, exactly as if each request had been sent alone.

Every search over the POP chain (QFilter, BETWEEN's anchor hunt and edge
searches, insert placement) is a generator that yields
:class:`QPFRequest` payloads and receives their labels; :func:`drive`
runs one search, or several in lock step, against those two crossings.

Θ therefore has exactly two oracles: the lone machine, or a
:class:`QPFShardPool` — N in-process worker trusted machines (one
enclave each, one thread each) behind the same Θ interface; the worker
count is the only thing a caller chooses.  A pooled
payload is partitioned across the workers and evaluated concurrently;
``qpf_uses`` stays **exactly** what the serial machine would charge
(sharding moves tuples between crossings, never duplicates or drops
them), while the :class:`~repro.edbms.costs.CostCounter` wall twins
(``parallel_wall_*``) advance by the *max* over shards — the critical
path.  Optional :class:`CrossingLatency` emulation prices each crossing
in real sleep time so wall-clock benchmarks observe the parallelism even
when the decrypt work itself is too cheap to measure.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..crypto.primitives import SecretKey, decrypt_words, decrypt_words_into
from ..crypto.trapdoor import (
    BetweenPredicate,
    ComparisonPredicate,
    EncryptedPredicate,
    unseal_predicate,
)
from .costs import CostCounter
from .encryption import EncryptedTable, attribute_key

__all__ = ["TrustedMachine", "QueryProcessingFunction", "QPFRequest",
           "drive", "QPFShardPool", "CrossingLatency", "PredicateLRU",
           "ColumnCache", "build_trusted_machine",
           "PREDICATE_CACHE_SIZE", "COLUMN_CACHE_BYTES"]

#: Default bound on the number of unsealed predicates an enclave keeps
#: warm.  Real trusted machines have kilobytes of register space, not
#: gigabytes; a long-lived server must not let this cache grow with the
#: total number of distinct trapdoors ever seen.
PREDICATE_CACHE_SIZE = 128

#: Default byte budget of the trusted machine's decrypted-column cache.
#: 64 MiB holds ~8M decrypted cells — plenty for the bench tables while
#: staying a plausible enclave working-set size.  ``column_cache_bytes=0``
#: disables the cache entirely (every decrypt pays keystream work).
COLUMN_CACHE_BYTES = 64 * 1024 * 1024

class ColumnCache:
    """LRU cache of *decrypted* columns inside the trusted machine.

    Keyed by ``(table name, attribute)`` with the table's
    :attr:`~repro.edbms.encryption.EncryptedTable.version` stored
    alongside.  A version mismatch on lookup is either a *catch-up* —
    given the table and, at construction, the data ``key``, the stale
    column is brought forward from the table's change record
    (decrypting only appended cells) and replaces the stale one — or,
    when that cannot be done, an invalidation (the stale column is
    dropped on the spot), so insert/delete bumps can never serve stale
    plaintext.  ``budget_bytes`` bounds resident plaintext; :meth:`put`
    evicts least-recently-used columns until the budget holds again,
    and :meth:`admits` lets callers skip a whole-column decrypt that
    could never be retained.  The cache lives strictly inside the
    enclave simulation — the service provider never observes whether a
    decrypt was served warm, so no new access-pattern leakage is
    introduced — and since decryption is deterministic, a warm gather
    is bit-identical to a fresh per-cell decrypt.
    """

    def __init__(self, budget_bytes: int = COLUMN_CACHE_BYTES,
                 key: SecretKey | None = None):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        self.budget_bytes = int(budget_bytes)
        self._key = key
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.fills = 0
        self.rejects = 0
        self.catch_ups = 0
        self._resident = 0
        # (table name, attribute) -> (table version, plaintext int64)
        self._entries: "OrderedDict[tuple[str, str], tuple[int, np.ndarray]]" \
            = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        """Bytes of decrypted plaintext currently held."""
        return self._resident

    def admits(self, nbytes: int) -> bool:
        """Whether a column of ``nbytes`` could be retained at all."""
        return 0 < nbytes <= self.budget_bytes

    def get(self, table_name: str, attribute: str, version: int,
            table=None) -> np.ndarray | None:
        """The cached plaintext column, or ``None`` (miss / stale).

        On a version mismatch, a cache holding the data key brings the
        stale column forward from ``table``'s change record (see
        :meth:`_caught_up`); if that works and the patched column still
        fits the budget, it replaces the stale one and counts as a hit
        and a catch-up.  Otherwise the stale entry is dropped and counts
        as both an invalidation and a miss.
        """
        key = (table_name, attribute)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        cached_version, column = entry
        if cached_version != version:
            stale = column
            column = None if table is None or self._key is None \
                else self._caught_up(table, attribute, cached_version, stale)
            if column is None or self._resident + column.nbytes \
                    - stale.nbytes > self.budget_bytes:
                self.invalidations += 1
                self.misses += 1
                self._resident -= stale.nbytes
                del self._entries[key]
                return None
            self.catch_ups += 1
            self._resident += column.nbytes - stale.nbytes
            self._entries[key] = (version, column)
        self.hits += 1
        self._entries.move_to_end(key)
        return column

    def _caught_up(self, table, attribute: str, since: int,
                   column: np.ndarray) -> np.ndarray | None:
        """``column`` (decrypted at table version ``since``) brought to
        the table's current version, or ``None`` when the table's change
        record no longer reaches back to ``since``.

        Replays the record: an append grows the column by placeholder
        cells, a delete is one ``np.delete``; then only the appended
        cells that survived are decrypted.  Never writes to ``column``.
        """
        changes = table.changes_since(since)
        if changes is None:
            return None
        appended = np.zeros(0, dtype=np.int64)
        for change in changes:
            if isinstance(change, slice):
                if change.start != column.size:
                    return None  # not this table's history
                column = np.concatenate((column, np.empty(
                    change.stop - change.start, dtype=np.int64)))
                appended = np.concatenate((appended, np.arange(
                    change.start, change.stop, dtype=np.int64)))
            else:
                if change.size and int(change[-1]) >= column.size:
                    return None
                column = np.delete(column, change)
                if appended.size:
                    appended = appended[~np.isin(appended, change)]
                    appended -= np.searchsorted(change, appended)
        if column.size != table.num_rows:
            return None
        if appended.size:
            ciphertexts, nonces = table.full_column(attribute)
            column[appended] = decrypt_words(
                attribute_key(self._key, table.name, attribute),
                ciphertexts[appended], nonces[appended]).view(np.int64)
        return column

    def put(self, table_name: str, attribute: str, version: int,
            column: np.ndarray) -> int:
        """Retain a freshly decrypted column; returns evictions made.

        Columns over budget are rejected outright (``rejects``); an
        admitted column evicts LRU entries until ``resident_bytes``
        respects the budget again.
        """
        if not self.admits(column.nbytes):
            self.rejects += 1
            return 0
        key = (table_name, attribute)
        old = self._entries.pop(key, None)
        if old is not None:
            self._resident -= old[1].nbytes
        self._entries[key] = (version, column)
        self._resident += column.nbytes
        self.fills += 1
        evicted = 0
        while self._resident > self.budget_bytes:
            __, (___, stale) = self._entries.popitem(last=False)
            self._resident -= stale.nbytes
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> None:
        """Drop every cached column (tallies remain)."""
        self._entries.clear()
        self._resident = 0

    def stats(self) -> dict:
        """Hit/miss/eviction tallies plus current residency."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "fills": self.fills,
            "rejects": self.rejects,
            "catch_ups": self.catch_ups,
            "columns": len(self._entries),
            "resident_bytes": self._resident,
            "budget_bytes": self.budget_bytes,
        }


class PredicateLRU:
    """A small least-recently-used cache for unsealed predicates.

    Maps ``trapdoor.serial`` to the plaintext predicate object.  Bounded:
    when full, the stalest entry is evicted.  Eviction only costs a
    re-unseal on the next miss — it never changes QPF accounting, which
    is per *tuple* evaluation, not per unseal.  ``hits``/``misses``
    tally every :meth:`get`; the owning machine mirrors them into its
    :class:`~repro.edbms.costs.CostCounter` so benchmark reports can see
    the cache working.
    """

    def __init__(self, capacity: int = PREDICATE_CACHE_SIZE):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[int, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, serial: int) -> bool:
        return serial in self._entries

    def get(self, serial: int):
        """Return the cached predicate (refreshing recency), or ``None``."""
        entry = self._entries.get(serial)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(serial)
        else:
            self.misses += 1
        return entry

    def put(self, serial: int, predicate) -> None:
        """Insert, evicting the least-recently-used entry when full."""
        self._entries[serial] = predicate
        self._entries.move_to_end(serial)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


class QPFRequest:
    """One pending Θ evaluation: a trapdoor applied to ``uids`` of a table.

    The unit every search yields and the batching layer
    (:mod:`repro.edbms.batching`) queues, shipped — possibly coalesced
    with other requests — through one crossing.  A plain slotted record:
    every probe builds one, so construction stays cheap.
    """

    __slots__ = ("trapdoor", "table", "uids")

    def __init__(self, trapdoor: EncryptedPredicate, table, uids):
        self.trapdoor = trapdoor
        self.table = table  # EncryptedTable or SecretSharedTable
        # Skip the asarray round trip when the caller holds uint64 uids.
        if not (isinstance(uids, np.ndarray) and uids.dtype == np.uint64):
            uids = np.asarray(uids, dtype=np.uint64)
        self.uids = uids


def drive(qpf, searches: list) -> list:
    """Run request generators against Θ; return their results in order.

    A lone search sends each request through ``qpf.batch`` — one
    crossing per request.  Several advance in lock step: each round
    ships every pending request in one ``qpf.batch_many`` crossing, so
    the batch costs as many crossings as its longest search.  QPF uses
    are the same either way.
    """
    if len(searches) == 1:
        steps = searches[0]
        try:
            request = next(steps)
            while True:
                request = steps.send(qpf.batch(
                    request.trapdoor, request.table, request.uids))
        except StopIteration as stop:
            return [stop.value]
    results: list = [None] * len(searches)
    pending = []
    for slot, steps in enumerate(searches):
        try:
            pending.append((slot, steps, next(steps)))
        except StopIteration as stop:
            results[slot] = stop.value
    while pending:
        answers = qpf.batch_many([request for __, __, request in pending])
        advanced = []
        for (slot, steps, __), labels in zip(pending, answers):
            try:
                advanced.append((slot, steps, steps.send(labels)))
            except StopIteration as stop:
                results[slot] = stop.value
        pending = advanced
    return results


def _unseal_cached(key: SecretKey, registers: PredicateLRU,
                   trapdoor: EncryptedPredicate, deltas: dict):
    """Unseal (and memoise) the plaintext predicate of a trapdoor.

    Caching models a Θ backend keeping recent predicate registers warm;
    it is LRU-bounded so a long-lived server does not leak memory, and
    it does not change QPF accounting, which is per *tuple* evaluation.
    Hits and misses land in the crossing's ``deltas``.
    """
    cached = registers.get(trapdoor.serial)
    if cached is None:
        _bump(deltas, "predicate_cache_misses")
        cached = unseal_predicate(key, trapdoor)
        registers.put(trapdoor.serial, cached)
    else:
        _bump(deltas, "predicate_cache_hits")
    return cached


@dataclass(frozen=True)
class CrossingLatency:
    """Emulated physical cost of one enclave crossing, in seconds.

    Real trusted hardware charges a fixed transition price per crossing
    (SGX ecall/ocall, FPGA DMA setup) plus marshalling proportional to
    the payload.  On the pure-software simulator those costs vanish, so
    parallel speedups become unmeasurable; attaching a
    ``CrossingLatency`` to a :class:`TrustedMachine` makes every
    crossing *sleep* for its modelled duration instead.  Sleeps release
    the GIL, so a :class:`QPFShardPool` overlaps them — the
    benchmark observes genuine wall-clock parallelism with unchanged
    accounting.
    """

    per_crossing: float = 0.0
    per_tuple: float = 0.0

    def delay(self, tuples: int) -> float:
        """Seconds one crossing carrying ``tuples`` tuples takes."""
        return self.per_crossing + self.per_tuple * tuples


class TrustedMachine:
    """Tamper-resistant co-processor simulation holding the data key.

    Only this class (and the data owner) ever touches plaintext.  All
    entry points charge the shared :class:`CostCounter` so benchmarks can
    meter QPF consumption precisely.  Every crossing advances the wall
    (critical-path) counters by the same amount as the serial ones — a
    lone machine *is* its own critical path; only :class:`QPFShardPool`
    makes the two diverge.
    """

    def __init__(self, key: SecretKey, counter: CostCounter | None = None,
                 predicate_cache_size: int = PREDICATE_CACHE_SIZE,
                 latency: CrossingLatency | None = None,
                 column_cache_bytes: int = COLUMN_CACHE_BYTES):
        self._key = key
        self.counter = counter if counter is not None else CostCounter()
        self._predicate_cache = PredicateLRU(predicate_cache_size)
        self._latency = latency
        # Derived per-(table, attribute) data subkeys.  Bounded by the
        # schema (#tables x #attributes), so no LRU is needed; saves one
        # HMAC per crossing on the decrypt hot path.
        self._subkey_cache: dict[tuple[str, str], SecretKey] = {}
        #: Decrypted-column cache: warm decrypts are pure position
        #: gathers.  ``column_cache_bytes=0`` disables it.
        self._column_cache = ColumnCache(column_cache_bytes, key)

    def _cross(self, tuples: int) -> dict:
        """Open the tally of one enclave crossing carrying ``tuples``.

        Helpers add their cache tallies to the returned dict; the caller
        charges it once, in a ``finally`` — one locked ``charge`` per
        crossing, same field totals as before on every path.
        """
        if self._latency is not None:
            delay = self._latency.delay(tuples)
            if delay > 0.0:
                # A zero-delay sleep still pays a syscall per crossing,
                # which dominates hot benches with latency emulation
                # attached but configured to zero.
                time.sleep(delay)
        return {"qpf_uses": tuples, "tuples_retrieved": tuples,
                "qpf_roundtrips": 1, "parallel_wall_roundtrips": 1,
                "parallel_wall_qpf_uses": tuples}

    def _subkey(self, table_name: str, attribute: str) -> SecretKey:
        cache_key = (table_name, attribute)
        subkey = self._subkey_cache.get(cache_key)
        if subkey is None:
            subkey = attribute_key(self._key, table_name, attribute)
            self._subkey_cache[cache_key] = subkey
        return subkey

    def _decrypt_cells(self, table: EncryptedTable, attribute: str,
                       uids: "np.ndarray | int", deltas: dict) -> np.ndarray:
        # Warm path: a cached decrypted column turns the request into a
        # pure position gather — zero keystream work.  Version-keyed: a
        # column an insert/delete left behind is caught up from the
        # table's change record, or refilled.  A plain ``int`` is the
        # one-tuple lane (search probes): a scalar position lookup and a
        # one-cell view instead of a vector gather.
        version = table.version
        if self._column_cache.budget_bytes:
            column = self._column_cache.get(table.name, attribute,
                                            version, table)
            if column is not None:
                _bump(deltas, "column_cache_hits")
            else:
                _bump(deltas, "column_cache_misses")
                column = self._fill_column(table, attribute, version, deltas)
            if column is not None:
                if type(uids) is int:
                    position = table.position(uids)
                    return column[position:position + 1]
                return column[table.positions(uids)]
        if type(uids) is int:
            uids = np.asarray([uids], dtype=np.uint64)
        ciphertexts, nonces = table.ciphertexts_for(attribute, uids)
        subkey = self._subkey(table.name, attribute)
        return decrypt_words(subkey, ciphertexts, nonces).view(np.int64)

    def _fill_column(self, table, attribute: str, version: int,
                     deltas: dict) -> np.ndarray | None:
        """Whole-column decrypt into the cache (``None`` if not cachable).

        Uses the bulk in-place keystream path
        (:func:`~repro.crypto.primitives.decrypt_words_into`), writing
        straight into the column that is retained.  Admission is checked
        *before* decrypting, so an over-budget column costs nothing here
        and simply stays on the per-request path.
        """
        ciphertexts, nonces = table.full_column(attribute)
        if not self._column_cache.admits(ciphertexts.nbytes):
            return None
        plain = np.empty(ciphertexts.size, dtype=np.uint64)
        decrypt_words_into(self._subkey(table.name, attribute),
                           ciphertexts, nonces, plain)
        column = plain.view(np.int64)
        _bump(deltas, "column_cache_evictions", self._column_cache.put(
            table.name, attribute, version, column))
        return column

    def prime_column(self, table, attribute: str) -> bool:
        """Warm the decrypted-column cache without evaluating anything.

        Spends *zero* QPF (metering is per tuple evaluation, and no
        tuple is evaluated here) — this is purely a wall-clock warm-up
        hook for servers that know their hot columns.  Returns whether
        the column is now resident; ``False`` when the cache is
        disabled or the column exceeds the byte budget.
        """
        version = table.version
        if not self._column_cache.budget_bytes:
            return False
        if self._column_cache.get(table.name, attribute, version,
                                  table) is not None:
            return True
        deltas: dict = {}
        column = self._fill_column(table, attribute, version, deltas)
        self.counter.charge(**deltas)
        return column is not None

    def column_cache_stats(self) -> dict:
        """Live :meth:`ColumnCache.stats` of this machine's cache."""
        return self._column_cache.stats()

    def evaluate_batch(self, trapdoor: EncryptedPredicate,
                       table: EncryptedTable,
                       uids: np.ndarray) -> np.ndarray:
        """Θ applied tuple-by-tuple over ``uids`` — ``len(uids)`` QPF uses.

        One call is one enclave roundtrip (``qpf_roundtrips``), however
        many tuples ride in it; empty payloads are never shipped (and
        charge nothing).  All of its accounting lands in one charge; a
        one-uid batch takes the scalar lane of :meth:`_decrypt_cells`.
        """
        uids = np.asarray(uids, dtype=np.uint64)
        tuples = int(uids.size)
        if tuples == 0:
            return np.zeros(0, dtype=bool)
        deltas = self._cross(tuples)
        try:
            predicate = _unseal_cached(self._key, self._predicate_cache,
                                       trapdoor, deltas)
            values = self._decrypt_cells(
                table, trapdoor.attribute,
                uids.item(0) if tuples == 1 else uids, deltas)
            return _evaluate_plain(predicate, values)
        finally:
            self.counter.charge(**deltas)

    def evaluate_many(self, requests: Sequence[QPFRequest]
                      ) -> list[np.ndarray]:
        """Θ over a heterogeneous payload in a single enclave crossing.

        Every request is evaluated exactly as :meth:`evaluate_batch`
        would — same per-tuple ``qpf_uses``, same predicate-register and
        column-cache tallies, in submission order, and a one-uid request
        takes the same scalar lane — but the whole payload counts as
        *one* roundtrip and lands in one charge, even when a request
        raises.  This is the primitive the batching layer and the MD
        grid's lock-stepped searches build on.
        """
        total = sum(int(r.uids.size) for r in requests)
        if total == 0:
            return [np.zeros(0, dtype=bool) for _ in requests]
        deltas = self._cross(total)
        try:
            results = []
            for request in requests:
                uids = request.uids
                if uids.size == 0:
                    results.append(np.zeros(0, dtype=bool))
                    continue
                predicate = _unseal_cached(self._key, self._predicate_cache,
                                           request.trapdoor, deltas)
                values = self._decrypt_cells(
                    request.table, request.trapdoor.attribute,
                    uids.item(0) if uids.size == 1 else uids, deltas)
                results.append(_evaluate_plain(predicate, values))
            return results
        finally:
            self.counter.charge(**deltas)


def _bump(deltas: dict, name: str, amount: int = 1) -> None:
    deltas[name] = deltas.get(name, 0) + amount


def _evaluate_plain(predicate, values: np.ndarray) -> np.ndarray:
    """Vectorised plaintext evaluation of a supported predicate."""
    if isinstance(predicate, ComparisonPredicate):
        c = predicate.constant
        if predicate.operator == "<":
            return values < c
        if predicate.operator == "<=":
            return values <= c
        if predicate.operator == ">":
            return values > c
        return values >= c
    if isinstance(predicate, BetweenPredicate):
        return (values >= predicate.low) & (values <= predicate.high)
    raise TypeError(f"unsupported predicate type {type(predicate).__name__}")


# --------------------------------------------------------------------- #
# Sharded Θ: a pool of worker trusted machines                           #
# --------------------------------------------------------------------- #

class QPFShardPool:
    """N worker trusted machines answering one Θ payload in parallel.

    Drop-in for :class:`TrustedMachine` behind
    :class:`QueryProcessingFunction`: same ``evaluate_batch`` /
    ``evaluate_many`` surface, same shared
    :class:`CostCounter`.  Each worker is a full machine with its own
    predicate registers; a payload is partitioned across them
    (contiguous chunks for a homogeneous batch, deterministic
    longest-processing-time assignment for a heterogeneous
    ``evaluate_many`` list) and the per-shard costs are folded back in
    two ways:

    * serial counters (``qpf_uses``, ``qpf_roundtrips``, ...) get the
      **sum** over shards — total work, so ``qpf_uses`` parity with an
      unsharded machine is *exact* at any worker count (sharding moves
      tuples between crossings, never duplicates or drops them);
    * the wall twins (``parallel_wall_qpf_uses`` /
      ``parallel_wall_roundtrips``) get the **max** over shards — the
      critical path an ideal N-wide deployment would wait on.

    Workers live in this process, one thread each; the numpy decrypt
    kernels and any :class:`CrossingLatency` sleeps release the GIL, so
    shards genuinely overlap.  A crossing that raises is still charged
    (as on the lone machine): every shard is waited for and every
    touched worker's costs are folded back before the first error
    propagates.

    With ``num_workers=1`` every code path degenerates to the serial
    machine (same chunks, same crossings, same counters).
    """

    def __init__(self, key: SecretKey, counter: CostCounter | None = None,
                 num_workers: int = 2,
                 predicate_cache_size: int = PREDICATE_CACHE_SIZE,
                 latency: CrossingLatency | None = None,
                 min_shard_tuples: int = 64,
                 column_cache_bytes: int = COLUMN_CACHE_BYTES):
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if min_shard_tuples < 1:
            raise ValueError("min_shard_tuples must be positive")
        self.counter = counter if counter is not None else CostCounter()
        self.num_workers = num_workers
        self.min_shard_tuples = min_shard_tuples
        self._lock = threading.Lock()
        self._column_cache_bytes = column_cache_bytes
        self._workers = [
            TrustedMachine(key, CostCounter(), predicate_cache_size,
                           latency=latency,
                           column_cache_bytes=column_cache_bytes)
            for _ in range(num_workers)
        ]
        self._executor: ThreadPoolExecutor | None = None

    def _threads(self) -> ThreadPoolExecutor:
        # Lazy: a pool that only ever sees small payloads starts none.
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="qpf-shard")
        return self._executor

    def close(self) -> None:
        """Shut the worker threads down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- cost folding ----------------------------------------------------- #

    def _absorb(self, spent: list[CostCounter]) -> None:
        """Fold shard costs into the shared counter: sum work, max wall."""
        wall_uses = 0
        wall_roundtrips = 0
        for shard in spent:
            wall_uses = max(wall_uses, shard.parallel_wall_qpf_uses)
            wall_roundtrips = max(wall_roundtrips,
                                  shard.parallel_wall_roundtrips)
            shard.parallel_wall_qpf_uses = 0
            shard.parallel_wall_roundtrips = 0
            self.counter.merge(shard)
        self.counter.charge(parallel_wall_qpf_uses=wall_uses,
                            parallel_wall_roundtrips=wall_roundtrips)

    def _drain_worker(self, worker: TrustedMachine) -> CostCounter:
        spent = worker.counter.snapshot()
        worker.counter.reset()
        return spent

    @contextmanager
    def _charging(self, workers: list[TrustedMachine]):
        """Hold the pool; fold ``workers``' costs back on *every* exit.

        A lone machine charges a raising crossing in its ``finally``;
        draining here in a ``finally`` too keeps the pool's shared
        counter (and the caller's ``measure()`` scope) equal to it,
        instead of leaving the charge on the worker for whoever calls
        next.
        """
        with self._lock:
            try:
                yield
            finally:
                self._absorb([self._drain_worker(w) for w in workers])

    # -- decrypted-column cache ------------------------------------------- #

    def prime_column(self, table, attribute: str) -> bool:
        """Warm every worker's decrypted-column cache.

        Spends zero QPF; returns whether at least one cache now holds
        the column.
        """
        primed = False
        for worker in self._workers:
            primed = worker.prime_column(table, attribute) or primed
        return primed

    def column_cache_stats(self) -> dict:
        """Aggregate :meth:`ColumnCache.stats` over the workers.

        Tallies and residency are summed across the pool's machines;
        ``budget_bytes`` is per worker, not a pool total.
        """
        totals: dict = {}
        for worker in self._workers:
            for key, value in worker.column_cache_stats().items():
                totals[key] = totals.get(key, 0) + value
        totals["budget_bytes"] = self._column_cache_bytes
        totals["workers"] = len(self._workers)
        return totals

    # -- Θ surface -------------------------------------------------------- #

    def evaluate_batch(self, trapdoor: EncryptedPredicate,
                       table: EncryptedTable,
                       uids: np.ndarray) -> np.ndarray:
        """Θ over one homogeneous batch, chunked across the workers.

        ``len(uids)`` QPF uses exactly, as serial; each non-empty chunk
        is one crossing, and the wall counters advance by the largest
        chunk only.
        """
        uids = np.asarray(uids, dtype=np.uint64)
        chunk_count = max(1, min(self.num_workers,
                                 int(uids.size) // self.min_shard_tuples))
        if chunk_count == 1:
            with self._charging(self._workers[:1]):
                return self._workers[0].evaluate_batch(trapdoor, table,
                                                       uids)
        parts = self._dispatch([[QPFRequest(trapdoor, table, chunk)]
                                for chunk in np.array_split(uids,
                                                            chunk_count)])
        return np.concatenate([part[0] for part in parts])

    def evaluate_many(self, requests: Sequence[QPFRequest]
                      ) -> list[np.ndarray]:
        """Θ over a heterogeneous payload, sharded across the workers.

        QPF uses equal the total tuple count — identical to the serial
        machine.  Each non-empty shard is one crossing (so the serial
        roundtrip total records the extra work of fanning out), while
        the wall counters advance by the busiest shard only.
        """
        requests = list(requests)
        total = sum(int(r.uids.size) for r in requests)
        if self.num_workers == 1 or total < 2 * self.min_shard_tuples:
            with self._charging(self._workers[:1]):
                return self._workers[0].evaluate_many(requests)
        shards = [s for s in self._shard_requests(requests) if s]
        parts = self._dispatch([[requests[i] for i in shard]
                                for shard in shards])
        labels: list[np.ndarray | None] = [None] * len(requests)
        for shard, part in zip(shards, parts):
            for position, result in zip(shard, part):
                labels[position] = result
        return labels  # type: ignore[return-value]

    def _shard_requests(self, requests: list[QPFRequest]
                        ) -> list[list[int]]:
        """Deterministic LPT assignment of request indices to workers.

        Largest payload first onto the least-loaded shard (ties broken
        by shard number), each shard keeping its requests in original
        submission order — balanced and fully reproducible.
        """
        order = sorted(range(len(requests)),
                       key=lambda i: (-int(requests[i].uids.size), i))
        loads = [0] * self.num_workers
        shards: list[list[int]] = [[] for _ in range(self.num_workers)]
        for position in order:
            worker = loads.index(min(loads))
            shards[worker].append(position)
            loads[worker] += int(requests[position].uids.size)
        return [sorted(shard) for shard in shards]

    def _dispatch(self, work: list[list[QPFRequest]]
                  ) -> list[list[np.ndarray]]:
        """Run payload ``i`` on worker ``i``; fold the costs back."""
        workers = self._workers[:len(work)]
        tracer = self.counter.tracer
        # Capture the dispatching thread's span now: the worker threads
        # have empty stacks, so the shard spans must be parented
        # explicitly to land under the right query.
        parent = tracer.current() if tracer is not None else None

        def run_shard(shard_no: int) -> list[np.ndarray]:
            payload = work[shard_no]
            if tracer is None:
                return workers[shard_no].evaluate_many(payload)
            span = tracer.begin(
                "qpf.shard", parent=parent, shard=shard_no,
                requests=len(payload),
                tuples=int(sum(r.uids.size for r in payload)))
            try:
                return workers[shard_no].evaluate_many(payload)
            finally:
                tracer.finish(span)

        with self._charging(workers):
            # The first shard runs on the calling thread — one fewer
            # thread hop per dispatch; the others overlap it.
            futures = [self._threads().submit(run_shard, shard_no)
                       for shard_no in range(1, len(work))]
            try:
                parts = [run_shard(0)]
                parts.extend(future.result() for future in futures)
            finally:
                # A raising shard must not release the pool while its
                # siblings are still on their worker machines.
                wait(futures)
        return parts


def build_trusted_machine(key: SecretKey, counter: CostCounter,
                          qpf_workers: int | None = None,
                          qpf_latency: CrossingLatency | None = None,
                          qpf_min_shard_tuples: int | None = None,
                          column_cache_bytes: int | None = None
                          ) -> "TrustedMachine | QPFShardPool":
    """The Θ oracle an engine or testbed asks for: one machine, or a
    :class:`QPFShardPool` when ``qpf_workers`` is given.  ``None`` leaves
    a setting at the class default."""
    options = {}
    if column_cache_bytes is not None:
        options["column_cache_bytes"] = column_cache_bytes
    if qpf_workers is None:
        return TrustedMachine(key, counter, latency=qpf_latency, **options)
    if qpf_min_shard_tuples is not None:
        options["min_shard_tuples"] = qpf_min_shard_tuples
    return QPFShardPool(key, counter, num_workers=qpf_workers,
                        latency=qpf_latency, **options)


class QueryProcessingFunction:
    """The server-side handle to Θ.

    A thin façade over the trusted machine: this is the *only* object the
    service provider holds that can touch plaintext, and its interface is
    restricted to 0/1 predicate outputs, matching the QPF model.  The
    backing oracle may equally be a single :class:`TrustedMachine` or a
    :class:`QPFShardPool` — the façade is agnostic.
    """

    def __init__(self, trusted_machine: "TrustedMachine | QPFShardPool"):
        self._tm = trusted_machine

    @property
    def counter(self) -> CostCounter:
        """The shared cost counter (QPF uses, retrievals, ...)."""
        return self._tm.counter

    def __call__(self, trapdoor: EncryptedPredicate, table: EncryptedTable,
                 uid: int) -> bool:
        """Θ(p̂, t̂) for one tuple: a one-uid :meth:`batch`."""
        return bool(self._tm.evaluate_batch(
            trapdoor, table, np.asarray([uid], dtype=np.uint64))[0])

    def batch(self, trapdoor: EncryptedPredicate, table: EncryptedTable,
              uids: np.ndarray) -> np.ndarray:
        """Θ over many tuples; costs ``len(uids)`` QPF uses."""
        return self._tm.evaluate_batch(trapdoor, table, uids)

    def batch_many(self, requests: Sequence[QPFRequest]) -> list[np.ndarray]:
        """Θ over a coalesced multi-request payload — one roundtrip."""
        return self._tm.evaluate_many(requests)
