"""Lazy, version-keyed materialization of hybrid scheme artifacts.

The hybrid dispatcher (``repro.plan.schemes``) prices three ciphertext
worlds beyond the paper's PRKB/scan pair; this module owns their
physical artifacts and builds each one *on demand*, keyed by the
encrypted table's monotonic ``version`` exactly like the decrypted
column cache — an insert or delete invalidates the artifact, and the
next query that routes to the scheme rebuilds it against the current
rows:

* **OPE columns** — ``OrderPreservingEncryption`` over the attribute
  domain, ciphertexts aligned with a UID snapshot.  Building one
  publishes the column's total order, so the caller's
  :class:`~repro.plan.schemes.LeakageLedger` is charged RPOI 1.0 at
  materialization time (once per version), never per query.
* **Log-SRC-i indexes** — :class:`~repro.baselines.log_src_i.
  LogSRCiIndex` over the decrypted values; probes charge the shared
  :class:`CostCounter` through SSE record opens.
* **MPC share tables + PRKB-over-shares chains** — the table re-shared
  SDB-style (:func:`~repro.edbms.sdb_backend.share_table`) with a
  :class:`~repro.edbms.sdb_backend.MPCQueryProcessingFunction` as Θ
  and a :class:`~repro.core.prkb.PRKBIndex` whose sampling seed is
  copied from the trusted-machine twin, so the shared chain refines
  along the *same* trajectory and spends the same ``qpf_uses`` (plus
  2 messages per probe).

All accessors are thread-safe (serving sessions share one
materializer); per-scheme QPF tallies accumulate here so disjoint
attribution sums to the global counter.
"""

from __future__ import annotations

import threading

import numpy as np

from ..baselines.log_src_i import LogSRCiIndex
from ..core.between import BetweenProcessor
from ..core.prkb import PRKBIndex
from ..core.single import SingleDimensionProcessor
from ..crypto.ope import OrderPreservingEncryption
from ..plan.schemes import SCHEMES, inclusive_band
from .encryption import decrypt_column
from .schema import PlainTable
from .sdb_backend import MPCQueryProcessingFunction, share_table

__all__ = ["HybridMaterializer"]


class HybridMaterializer:
    """Build-and-cache layer for OPE / Log-SRC-i / MPC-share artifacts."""

    def __init__(self, owner, server, counter, seed: int | None = None):
        self.owner = owner
        self.server = server
        self.counter = counter
        self._seed = seed
        self._lock = threading.RLock()
        # (table, attribute) -> (version, OPE, ciphertexts, uid snapshot)
        self._ope: dict[tuple[str, str], tuple] = {}
        # (table, attribute) -> (version, LogSRCiIndex)
        self._src: dict[tuple[str, str], tuple] = {}
        # table -> (version, SecretSharedTable)
        self._shared: dict[str, tuple] = {}
        # (table, attribute) -> (version, PRKBIndex over shares)
        self._mpc: dict[tuple[str, str], tuple] = {}
        self._mpc_qpf: MPCQueryProcessingFunction | None = None
        self._tally_lock = threading.Lock()
        self._tallies = {scheme: {"qpf_uses": 0, "steps": 0}
                         for scheme in SCHEMES}

    # -- catalog helpers --------------------------------------------

    def domain(self, table: str, attribute: str) -> tuple[int, int]:
        spec = self.owner.plain_table(table).schema[attribute]
        return int(spec.domain_min), int(spec.domain_max)

    def table_rows(self, table: str) -> int:
        return self.server.table(table).num_rows

    def _column(self, table: str):
        """Current encrypted table plus one attribute decryptor."""
        enc = self.server.table(table)

        def values_of(attribute: str) -> np.ndarray:
            return decrypt_column(self.owner.key, enc, attribute, enc.uids)

        return enc, values_of

    # -- version accessors (plan-cache fingerprint inputs) ----------

    def ope_version(self, table: str, attribute: str) -> int | None:
        with self._lock:
            entry = self._ope.get((table, attribute))
            if entry is None:
                return None
            version = entry[0]
        return version if version == self.server.table(table).version \
            else None

    def src_version(self, table: str, attribute: str) -> int | None:
        with self._lock:
            entry = self._src.get((table, attribute))
            if entry is None:
                return None
            version = entry[0]
        return version if version == self.server.table(table).version \
            else None

    def mpc_fingerprint(self, table: str, attribute: str):
        with self._lock:
            entry = self._mpc.get((table, attribute))
            if entry is None:
                return None
            version, index = entry
        if version != self.server.table(table).version:
            return None
        return (version,) + tuple(index.plan_fingerprint())

    def mpc_partitions(self, table: str, attribute: str) -> int:
        """Live chain length for MPC cost estimation.

        Falls back to the trusted-machine twin's chain (the shared
        chain replicates its trajectory) and to 1 (cold chain = linear
        scan pricing) before anything is materialized.
        """
        with self._lock:
            entry = self._mpc.get((table, attribute))
            if entry is not None and \
                    entry[0] == self.server.table(table).version:
                return entry[1].num_partitions
        if self.server.has_index(table, attribute):
            return self.server.index(table, attribute).num_partitions
        return 1

    # -- OPE --------------------------------------------------------

    def ope_column(self, table: str, attribute: str, ledger=None):
        """The (version-current) OPE view of one column.

        Returns ``(ope, ciphertexts, uids)``.  A fresh materialization
        charges RPOI 1.0 to ``ledger`` — the full total order is now
        SP-visible; re-reads and re-executions are free.
        """
        with self._lock:
            enc, values_of = self._column(table)
            entry = self._ope.get((table, attribute))
            if entry is not None and entry[0] == enc.version:
                return entry[1], entry[2], entry[3]
            lo, hi = self.domain(table, attribute)
            ope = OrderPreservingEncryption(
                self.owner.key.subkey(f"hybrid-ope:{table}:{attribute}"),
                lo, hi)
            ciphertexts = ope.encrypt_many(values_of(attribute))
            uids = enc.uids.copy()
            self._ope[(table, attribute)] = (enc.version, ope,
                                             ciphertexts, uids)
        if ledger is not None:
            ledger.charge(table, 1.0)
        return ope, ciphertexts, uids

    def ope_select(self, table: str, condition, ledger=None) -> np.ndarray:
        """Answer a predicate by comparing OPE ciphertexts SP-side.

        Zero QPF: the comparison runs over the order-preserving
        ciphertexts without any enclave/TM involvement.  Exactness
        follows from strict monotonicity of the OPE map.
        """
        attribute = condition.attribute
        ope, ciphertexts, uids = self.ope_column(table, attribute, ledger)
        lo, hi = self.domain(table, attribute)
        band = inclusive_band(condition, lo, hi)
        self.counter.charge(comparisons=int(ciphertexts.size))
        if band is None:
            return np.zeros(0, dtype=np.uint64)
        low_ct = ope.encrypt(band[0])
        high_ct = ope.encrypt(band[1])
        mask = (ciphertexts >= low_ct) & (ciphertexts <= high_ct)
        return np.sort(uids[mask])

    # -- Log-SRC-i --------------------------------------------------

    def src_index(self, table: str, attribute: str) -> LogSRCiIndex:
        with self._lock:
            enc, values_of = self._column(table)
            entry = self._src.get((table, attribute))
            if entry is not None and entry[0] == enc.version:
                return entry[1]
            index = LogSRCiIndex(
                self.owner.key.subkey(f"hybrid-src:{table}"),
                self.counter, attribute, self.domain(table, attribute),
                enc.uids, values_of(attribute))
            self._src[(table, attribute)] = (enc.version, index)
            return index

    def src_select(self, table: str, condition) -> np.ndarray:
        """Answer a predicate via an inclusive Log-SRC-i band probe."""
        attribute = condition.attribute
        index = self.src_index(table, attribute)
        lo, hi = self.domain(table, attribute)
        band = inclusive_band(condition, lo, hi)
        if band is None:
            return np.zeros(0, dtype=np.uint64)
        return np.sort(np.asarray(index.query_inclusive(*band),
                                  dtype=np.uint64))

    # -- MPC share --------------------------------------------------

    def _mpc_theta(self) -> MPCQueryProcessingFunction:
        if self._mpc_qpf is None:
            self._mpc_qpf = MPCQueryProcessingFunction(
                self.owner.key, self.counter)
        return self._mpc_qpf

    def shared_table(self, table: str):
        """The (version-current) secret-shared twin of one table."""
        with self._lock:
            enc, values_of = self._column(table)
            entry = self._shared.get(table)
            if entry is not None and entry[0] == enc.version:
                return entry[1]
            schema = self.owner.plain_table(table).schema
            plain = PlainTable(
                name=table, schema=schema,
                columns={name: values_of(name) for name in schema.names},
                uids=enc.uids.copy())
            shared = share_table(self.owner.key, plain)
            self._shared[table] = (enc.version, shared)
            # Chains hang off the shared rows; a re-share orphans them.
            for key in [k for k in self._mpc if k[0] == table]:
                del self._mpc[key]
            return shared

    def mpc_index(self, table: str, attribute: str) -> PRKBIndex:
        """PRKB chain over the shared table, twin-seeded for parity."""
        with self._lock:
            enc = self.server.table(table)
            entry = self._mpc.get((table, attribute))
            if entry is not None and entry[0] == enc.version:
                return entry[1]
            shared = self.shared_table(table)
            if self.server.has_index(table, attribute):
                twin = self.server.index(table, attribute)
                seed = twin.seed
                max_partitions = twin.max_partitions
                early_stop = twin.early_stop
            else:
                seed = None if self._seed is None else \
                    (self._seed ^ 0x6D7063) & 0xFFFFFFFF
                max_partitions = None
                early_stop = True
            index = PRKBIndex(shared, self._mpc_theta(), attribute,
                              max_partitions=max_partitions,
                              early_stop=early_stop, seed=seed)
            self._mpc[(table, attribute)] = (enc.version, index)
            return index

    def mpc_select(self, table: str, trapdoor) -> np.ndarray:
        """Drive the PRKB pipeline over shares with the MPC Θ; the chain
        answers in uid order, as over ciphertext."""
        index = self.mpc_index(table, trapdoor.attribute)
        if trapdoor.kind == "between":
            return BetweenProcessor(index).select(trapdoor)
        return SingleDimensionProcessor(index).select(trapdoor)

    # -- per-scheme QPF attribution ---------------------------------

    def tally(self, scheme: str, qpf_uses: int) -> None:
        """Attribute one executed step's ``qpf_uses`` to ``scheme``
        (metered by ``repro.plan.operators._run_step`` in the calling
        thread's own :meth:`CostCounter.measure` scope, so sessions
        running hybrid steps side by side never bill each other)."""
        with self._tally_lock:
            entry = self._tallies[scheme]
            entry["qpf_uses"] += qpf_uses
            entry["steps"] += 1

    def scheme_stats(self) -> dict[str, dict[str, int]]:
        """Per-scheme ``{qpf_uses, steps}`` tallied so far (a copy)."""
        with self._tally_lock:
            return {scheme: dict(entry)
                    for scheme, entry in self._tallies.items()}
