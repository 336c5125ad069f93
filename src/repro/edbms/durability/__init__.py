"""Durability subsystem: WAL, atomic checkpoints, crash recovery, faults.

PRKB's value is *accumulated* knowledge — every POP refinement was paid
for in QPF calls, so losing the index on a crash throws away exactly the
savings the paper exists to create.  This package makes that knowledge
durable:

* :mod:`~repro.edbms.durability.wal` — an append-only, CRC32-checksummed,
  length-prefixed write-ahead log of refinement deltas with configurable
  fsync policies (always / every-N / off), counted per operation:
  ``commit_epoch`` makes one insert/delete/update one fsync per log.
* :mod:`~repro.edbms.durability.journal` — the listeners that translate
  live :class:`~repro.core.partitions.PartialOrderPartitions` /
  :class:`~repro.core.prkb.PRKBIndex` mutations into WAL records, with
  query-transaction commit boundaries carrying the sampling ordinal.
* :mod:`~repro.edbms.durability.checkpoint` — atomic (temp-file +
  ``os.replace``, file- and directory-fsynced) checkpoints with
  generation-numbered data files and WAL truncation.
* :mod:`~repro.edbms.durability.recovery` — checkpoint restore + WAL tail
  replay tolerating torn final records, with orphan repair against the
  durable table state.
* :mod:`~repro.edbms.durability.faults` — deterministic crash-point and
  torn-/short-write injection for the recovery test harness.
* :mod:`~repro.edbms.durability.manager` — the coordinator that owns the
  on-disk layout and wires everything into
  :class:`~repro.edbms.server.ServiceProvider` /
  :class:`~repro.edbms.engine.EncryptedDatabase`.
"""

from .faults import CrashSpec, FaultInjector, SimulatedCrash
from .wal import (
    FsyncPolicy,
    WALCorruptionError,
    WALError,
    WALReadResult,
    WALWriter,
    commit_epoch,
    read_wal,
)
from .journal import IndexJournal, TableJournal
from ..persistence import atomic_write_bytes, fsync_dir
from .checkpoint import CheckpointError
from .recovery import RecoveryManager, RecoveryStats
from .manager import DurabilityManager

__all__ = [
    "CrashSpec",
    "FaultInjector",
    "SimulatedCrash",
    "FsyncPolicy",
    "WALError",
    "WALCorruptionError",
    "WALReadResult",
    "WALWriter",
    "commit_epoch",
    "read_wal",
    "IndexJournal",
    "TableJournal",
    "CheckpointError",
    "atomic_write_bytes",
    "fsync_dir",
    "RecoveryManager",
    "RecoveryStats",
    "DurabilityManager",
]
