"""DurabilityManager: on-disk layout, manifest, journals, checkpoints.

Directory layout of a durable database rooted at ``root``::

    root/
      db.json                      manifest (seed, fsync policy, catalog)
      tables/<name>.json           table checkpoint metadata
      tables/<name>.<gen>.npz      table checkpoint arrays
      tables/<name>.wal            table WAL segment
      indexes/<t>.<a>.json         index checkpoint metadata
      indexes/<t>.<a>.<gen>.npz    index checkpoint arrays
      indexes/<t>.<a>.wal          index WAL segment

The manager is attached to a :class:`~repro.edbms.server.ServiceProvider`
(via ``attach_durability``): table registration and index construction
notify it, which writes the initial checkpoint, opens a WAL segment and
attaches the journal.  ``checkpoint_all`` is the dual operation — write
fresh checkpoints for everything and truncate every WAL.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..costs import CostCounter
from ..persistence import atomic_write_text
from .checkpoint import (
    drop_stale_generations,
    write_index_checkpoint,
    write_table_checkpoint,
)
from .faults import FaultInjector
from .journal import IndexJournal, TableJournal
from .wal import FsyncPolicy, WALWriter

__all__ = ["DurabilityManager"]

_MANIFEST_FORMAT = 1
POINT_WAL_RESET = "checkpoint.wal_reset"


class DurabilityManager:
    """Owns the durable directory and every WAL/journal for one database."""

    def __init__(self, root, fsync="always", counter: CostCounter | None = None,
                 faults: FaultInjector | None = None):
        self.root = Path(root)
        self.policy = FsyncPolicy.parse(fsync)
        self.counter = counter
        self.faults = faults
        #: Set by the recovery manager while it rebuilds server state, so
        #: the server's registration notifications don't re-checkpoint.
        self.recovering = False
        self._table_journals: dict[str, TableJournal] = {}
        self._index_journals: dict[tuple[str, str], IndexJournal] = {}
        self._generations: dict[str, int] = {}

    # -- layout ---------------------------------------------------------- #

    @property
    def manifest_path(self) -> Path:
        return self.root / "db.json"

    @property
    def tables_dir(self) -> Path:
        return self.root / "tables"

    @property
    def indexes_dir(self) -> Path:
        return self.root / "indexes"

    @staticmethod
    def index_stem(table_name: str, attribute: str) -> str:
        return f"{table_name}.{attribute}"

    def table_wal_path(self, name: str) -> Path:
        return self.tables_dir / f"{name}.wal"

    def index_wal_path(self, table_name: str, attribute: str) -> Path:
        return (self.indexes_dir
                / f"{self.index_stem(table_name, attribute)}.wal")

    def _ensure_layout(self) -> None:
        self.tables_dir.mkdir(parents=True, exist_ok=True)
        self.indexes_dir.mkdir(parents=True, exist_ok=True)

    # -- manifest --------------------------------------------------------- #

    def has_state(self) -> bool:
        """Whether ``root`` already holds a durable database."""
        return self.manifest_path.exists()

    def load_manifest(self) -> dict:
        return json.loads(self.manifest_path.read_text())

    def _write_manifest(self, manifest: dict) -> None:
        self._ensure_layout()
        atomic_write_text(self.manifest_path,
                          json.dumps(manifest, indent=2))

    def init_manifest(self, seed: int) -> None:
        """Create the manifest for a fresh durable database."""
        if self.has_state():
            raise ValueError(f"{self.root} already holds a database")
        self._write_manifest({
            "format": _MANIFEST_FORMAT,
            "kind": "edbms-manifest",
            "seed": int(seed),
            "fsync": self.policy.describe(),
            "tables": [],
            "indexes": [],
        })

    # -- registration notifications (from ServiceProvider) ---------------- #

    def on_register_table(self, table) -> None:
        """A table was uploaded: checkpoint it and open its WAL."""
        self._ensure_layout()
        self.checkpoint_table(table)
        manifest = self.load_manifest()
        if table.name not in manifest["tables"]:
            manifest["tables"].append(table.name)
            self._write_manifest(manifest)

    def on_build_index(self, index) -> None:
        """A PRKB index was built: checkpoint it and attach a journal."""
        self._ensure_layout()
        self.checkpoint_index(index)
        manifest = self.load_manifest()
        spec = {"table": index.table.name, "attribute": index.attribute}
        if spec not in manifest["indexes"]:
            manifest["indexes"].append(spec)
            self._write_manifest(manifest)

    # -- journal access ---------------------------------------------------- #

    def table_journal(self, name: str) -> TableJournal | None:
        return self._table_journals.get(name)

    # -- checkpoints -------------------------------------------------------- #

    def _next_generation(self, key: str, directory: Path, stem: str) -> int:
        current = self._generations.get(key)
        if current is None:
            current = self._on_disk_generation(directory, stem)
        generation = current + 1
        self._generations[key] = generation
        return generation

    @staticmethod
    def _on_disk_generation(directory: Path, stem: str) -> int:
        """Highest generation already on disk for ``stem`` (0 when none).

        Consulted the first time a stem is checkpointed by this manager:
        after a restart the in-memory counter is empty, and handing out a
        generation that a crash-surviving WAL segment already carries
        would defeat the stale-segment protection — that segment's ops
        are baked into the checkpoint, and a matching generation makes
        recovery double-apply them.  Both the committed metadata and any
        orphaned data files from an interrupted checkpoint attempt are
        considered.
        """
        best = 0
        meta_path = Path(directory) / f"{stem}.json"
        try:
            meta = json.loads(meta_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        else:
            best = max(best, int(meta.get("generation", 0)))
        pattern = re.compile(re.escape(stem) + r"\.(\d+)\.npz$")
        for candidate in Path(directory).glob(f"{stem}.*.npz"):
            match = pattern.match(candidate.name)
            if match:
                best = max(best, int(match.group(1)))
        return best

    def checkpoint_table(self, table) -> None:
        """Write a fresh table checkpoint and truncate its WAL."""
        tracer = None if self.counter is None else self.counter.tracer
        if tracer is not None:
            with tracer.span("checkpoint.table", table=table.name):
                self._checkpoint_table(table)
        else:
            self._checkpoint_table(table)

    def _checkpoint_table(self, table) -> None:
        generation = self._next_generation(f"table:{table.name}",
                                           self.tables_dir, table.name)
        write_table_checkpoint(self.tables_dir, table.name, table,
                               generation, faults=self.faults)
        if self.faults is not None:
            self.faults.maybe_crash(POINT_WAL_RESET)
        journal = self._table_journals.get(table.name)
        if journal is None:
            writer = WALWriter(self.table_wal_path(table.name),
                               generation=generation, policy=self.policy,
                               counter=self.counter, faults=self.faults)
            self._table_journals[table.name] = TableJournal(writer)
        else:
            journal.writer.reset(generation)
        drop_stale_generations(self.tables_dir, table.name, generation)
        if self.counter is not None:
            self.counter.charge(checkpoints_written=1)

    def checkpoint_index(self, index) -> None:
        """Write a fresh index checkpoint, truncate its WAL, attach its
        journal (creating one on first call)."""
        tracer = None if self.counter is None else self.counter.tracer
        if tracer is not None:
            with tracer.span("checkpoint.index", table=index.table.name,
                             attribute=index.attribute):
                self._checkpoint_index(index)
        else:
            self._checkpoint_index(index)

    def _checkpoint_index(self, index) -> None:
        stem = self.index_stem(index.table.name, index.attribute)
        generation = self._next_generation(f"index:{stem}",
                                           self.indexes_dir, stem)
        write_index_checkpoint(self.indexes_dir, stem, index, generation,
                               faults=self.faults)
        if self.faults is not None:
            self.faults.maybe_crash(POINT_WAL_RESET)
        key = (index.table.name, index.attribute)
        journal = self._index_journals.get(key)
        if journal is None:
            writer = WALWriter(
                self.index_wal_path(*key), generation=generation,
                policy=self.policy, counter=self.counter,
                faults=self.faults)
            journal = IndexJournal(writer)
            self._index_journals[key] = journal
        else:
            journal.writer.reset(generation)
        index.attach_journal(journal)
        journal.reset_baseline()
        drop_stale_generations(self.indexes_dir, stem, generation)
        if self.counter is not None:
            self.counter.charge(checkpoints_written=1)

    def checkpoint_all(self, server) -> None:
        """Checkpoint every registered table and index; truncate all WALs."""
        for table in server.all_tables().values():
            self.checkpoint_table(table)
        for indexes in server.all_indexes().values():
            for index in indexes.values():
                self.checkpoint_index(index)

    # -- shutdown ------------------------------------------------------------ #

    def close(self) -> None:
        """Sync and close every WAL segment (no checkpoint: reopening
        replays the tails — a clean shutdown and a crash share one
        recovery path)."""
        for journal in self._table_journals.values():
            journal.close()
        for journal in self._index_journals.values():
            if journal._index is not None:
                journal._index.detach_journal()
            journal.close()
        self._table_journals.clear()
        self._index_journals.clear()
