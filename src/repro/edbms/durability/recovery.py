"""Crash recovery: checkpoint restore + WAL tail replay + orphan repair.

The recovery sequence (classic ARIES-lite, adapted to PRKB's structure):

1. **Tables first.**  Each table checkpoint is loaded and its WAL tail
   replayed (row inserts/deletes) — table records are self-contained
   committed units, so every fully-written record applies.  A segment
   whose header generation differs from the checkpoint's
   ``wal_generation`` is *stale* (a crash landed between checkpoint
   commit and WAL truncation) and is skipped entirely.
2. **Indexes.**  Each index checkpoint is materialized (chain via
   ``PartialOrderPartitions.from_segments``, separators, sampling seed
   and ordinal), then its WAL is replayed *transactionally*: ops buffer
   until their ``commit`` record, which also restores the sampling
   ordinal recorded at that query boundary.  Complete-but-uncommitted
   tail ops (crash mid-query) are dropped — the index rolls back to the
   last finished query.  A torn final record is tolerated and counted.
   Both WAL scans run in *strict* mode: a checksum failure *followed by
   further complete records* is mid-file rot, not a crash tear, and
   raises :class:`~.wal.WALCorruptionError` instead of silently dropping
   the committed transactions behind it.
3. **Orphan repair.**  The durable table is the source of truth for
   membership: uids in the table but unknown to an index are re-filed
   with the paper's O(log k) insertion (the QPF spent is tallied as
   ``repair_qpf_uses``); uids an index still tracks but the table
   dropped are deleted from the chain.
4. **Recovery checkpoint.**  A fresh checkpoint of everything is written
   and the WALs are truncated, so a crash *during* recovery simply
   re-runs it and a crash after it starts from a clean slate.

The combination of restored sampling ordinal, partition-order-preserving
chain reconstruction and transaction-boundary rollback yields the property
the tests assert: a recovered index answers any follow-up workload with
bit-identical winners and byte-for-byte equal QPF usage compared to an
uncrashed twin at the same query boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ...core.partitions import PartialOrderPartitions
from ..persistence import materialize_separators, restore_index
from .checkpoint import read_index_checkpoint, read_table_checkpoint
from .wal import decode_op, read_wal, unpack_uids

__all__ = ["RecoveryStats", "RecoveryManager",
           "apply_index_op", "apply_table_op"]


@dataclass
class RecoveryStats:
    """What one recovery pass did (surfaced via ``EncryptedDatabase``)."""

    tables_restored: int = 0
    indexes_restored: int = 0
    wal_records_replayed: int = 0
    transactions_replayed: int = 0
    tail_ops_dropped: int = 0
    torn_bytes_dropped: int = 0
    stale_wal_segments: int = 0
    orphans_reindexed: int = 0
    orphans_dropped: int = 0
    repair_qpf_uses: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (reports, benches)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def apply_index_op(index, op: dict) -> None:
    """Replay one journaled index operation against a restored index.

    Ops re-execute through the same ``PartialOrderPartitions`` mutators
    the live run used, so partition-internal uid order — which decides
    future sample draws — is reproduced exactly.
    """
    kind = op["op"]
    if kind == "split":
        index.pop.split(op["at"], unpack_uids(op["first"]),
                        unpack_uids(op["second"]))
    elif kind == "merge":
        index.pop.merge_range(op["first"], op["last"])
    elif kind == "ins":
        index.pop.insert(op["uid"], op["at"])
    elif kind == "del":
        index.pop.delete(op["uid"])
    elif kind == "reinit":
        index.pop = PartialOrderPartitions(unpack_uids(op["uids"]))
    elif kind == "sep_add":
        separator = materialize_separators([{
            "attribute": op["attribute"], "kind": op["kind"],
            "sealed": op["sealed"], "prefix_label": op["prefix_label"],
            "edge": op["edge"], "partner": -1,
        }])[0]
        if op["partner"] >= 0:
            partner = index._separators[op["partner"]]
            separator.partner = partner
            partner.partner = separator
        index._separators.insert(op["at"], separator)
    elif kind == "sep_del":
        del index._separators[op["start"]:op["stop"]]
    else:
        raise ValueError(f"unknown index WAL op {kind!r}")


def apply_table_op(table, op: dict) -> None:
    """Replay one journaled table operation."""
    kind = op["op"]
    if kind == "rows_ins":
        uids = unpack_uids(op["uids"])
        table.insert_rows(uids, {attr: unpack_uids(col)
                                 for attr, col in op["cols"].items()})
    elif kind == "rows_del":
        table.delete_rows(unpack_uids(op["uids"]))
    else:
        raise ValueError(f"unknown table WAL op {kind!r}")


class RecoveryManager:
    """Restores a durable database directory into a live server."""

    def __init__(self, manager, server, qpf):
        self.manager = manager
        self.server = server
        self.qpf = qpf

    def recover(self) -> RecoveryStats:
        """Run the full recovery sequence; returns its statistics."""
        stats = RecoveryStats()
        manifest = self.manager.load_manifest()
        counter = self.manager.counter
        tracer = None if counter is None else counter.tracer
        self.manager.recovering = True
        try:
            if tracer is None:
                self._recover_phases(manifest, stats)
            else:
                with tracer.span("recovery",
                                 tables=len(manifest["tables"]),
                                 indexes=len(manifest["indexes"])):
                    self._recover_phases(manifest, stats, tracer)
        finally:
            self.manager.recovering = False
        counter = self.manager.counter
        if counter is not None:
            counter.charge(
                recovery_records_replayed=stats.wal_records_replayed,
                recovery_torn_bytes=stats.torn_bytes_dropped,
                recovery_orphan_repairs=(stats.orphans_reindexed
                                         + stats.orphans_dropped))
        return stats

    def _recover_phases(self, manifest, stats, tracer=None) -> None:
        """The four recovery phases, each optionally under its own span."""
        def phased(name, fn):
            if tracer is None:
                fn()
            else:
                with tracer.span(name):
                    fn()

        phased("recovery.tables", lambda: [
            self._recover_table(name, stats)
            for name in manifest["tables"]])
        phased("recovery.indexes", lambda: [
            self._recover_index(spec["table"], spec["attribute"], stats)
            for spec in manifest["indexes"]])
        phased("recovery.orphans", lambda: self._repair_orphans(stats))
        # Recovery-then-checkpoint: persist the recovered state and
        # truncate every WAL, then attach fresh journals.
        phased("recovery.checkpoint",
               lambda: self.manager.checkpoint_all(self.server))

    # -- tables --------------------------------------------------------- #

    def _recover_table(self, name: str, stats: RecoveryStats) -> None:
        meta, table = read_table_checkpoint(self.manager.tables_dir, name)
        wal = read_wal(self.manager.table_wal_path(name), strict=True)
        if wal.generation == meta["wal_generation"]:
            for payload in wal.records:
                apply_table_op(table, decode_op(payload))
                stats.wal_records_replayed += 1
            stats.torn_bytes_dropped += wal.torn_bytes
        elif wal.generation is not None:
            stats.stale_wal_segments += 1
        self.server.register_table(table)
        stats.tables_restored += 1

    # -- indexes -------------------------------------------------------- #

    def _recover_index(self, table_name: str, attribute: str,
                       stats: RecoveryStats) -> None:
        stem = self.manager.index_stem(table_name, attribute)
        meta, members, offsets = read_index_checkpoint(
            self.manager.indexes_dir, stem)
        table = self.server.table(table_name)
        index = restore_index(meta, members, offsets, table, self.qpf)
        wal = read_wal(self.manager.index_wal_path(table_name, attribute),
                       strict=True)
        if wal.generation == meta["wal_generation"]:
            pending: list[dict] = []
            for payload in wal.records:
                op = decode_op(payload)
                if op["op"] == "commit":
                    for buffered in pending:
                        apply_index_op(index, buffered)
                    if "ordinal" in op:  # older segments: "rng", ignored
                        index.ordinal = op["ordinal"]
                    stats.wal_records_replayed += len(pending) + 1
                    stats.transactions_replayed += 1
                    pending.clear()
                else:
                    pending.append(op)
            stats.tail_ops_dropped += len(pending)
            stats.torn_bytes_dropped += wal.torn_bytes
        elif wal.generation is not None:
            stats.stale_wal_segments += 1
        self.server.adopt_index(table_name, attribute, index)
        stats.indexes_restored += 1

    # -- orphan repair --------------------------------------------------- #

    def _repair_orphans(self, stats: RecoveryStats) -> None:
        """Reconcile every index's membership with its durable table.

        The table WAL commits before the dependent index transactions,
        so after a crash an index can lag its table (or, under relaxed
        fsync with power loss, retain rows the table lost).  Both
        directions are repaired deterministically, in uid order: both
        sides are sorted ``uint64`` arrays, so each difference is one
        ``setdiff1d`` that keeps that order.
        """
        counter = self.qpf.counter
        for table_name, indexes in self.server.all_indexes().items():
            table = self.server.table(table_name)
            table_uids = np.sort(table.uids.astype(np.uint64))
            for index in indexes.values():
                tracked = index.pop.tracked_uids()
                before = counter.qpf_uses
                dropped = np.setdiff1d(tracked, table_uids,
                                       assume_unique=True)
                index.delete_many(dropped)
                stats.orphans_dropped += len(dropped)
                reindexed = np.setdiff1d(table_uids, tracked,
                                         assume_unique=True)
                index.insert_many(reindexed)
                stats.orphans_reindexed += len(reindexed)
                stats.repair_qpf_uses += counter.qpf_uses - before
