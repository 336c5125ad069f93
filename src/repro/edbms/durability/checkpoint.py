"""Atomic, generation-numbered checkpoints for tables and PRKB indexes.

A checkpoint is a pair of files: a generation-numbered ``.npz`` holding
the bulk arrays (ciphertext columns stored, uid arrays deflated at
level 1 — see :func:`repro.edbms.persistence._atomic_savez`) and a
fixed-name ``.json`` holding the structural metadata on one line.  The
commit point is the *metadata rename*: the json is
written last (atomically, via :func:`repro.edbms.persistence.
atomic_write_bytes`) and names both the data file it belongs to
(``data_file``) and the WAL generation that continues it
(``wal_generation``).  Any crash ordering therefore resolves cleanly:

* crash before the data rename — old checkpoint + old WAL intact;
* crash between data and metadata rename — the new ``.npz`` is an
  unreferenced orphan (cleaned up by the next checkpoint), the old
  checkpoint still rules;
* crash after the metadata rename but before the WAL reset — the old
  WAL segment's header generation no longer matches ``wal_generation``,
  so recovery ignores it as *stale* instead of double-applying ops that
  the checkpoint already contains.

Checkpoint writers take the fault injector so the recovery test
harness can crash at each of these points deterministically.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from ..persistence import (
    _atomic_savez,
    atomic_write_text,
    index_state,
    load_arrays,
    restore_table,
    table_state,
)

__all__ = [
    "CheckpointError",
    "write_index_checkpoint", "read_index_checkpoint",
    "write_table_checkpoint", "read_table_checkpoint",
    "drop_stale_generations",
]

#: 2: sampling ``seed`` / ``ordinal``; 1 had a bit-generator state (ignored).
_CHECKPOINT_FORMAT = 2


class CheckpointError(RuntimeError):
    """A checkpoint pair is missing or structurally inconsistent."""


def _data_name(stem: str, generation: int) -> str:
    return f"{stem}.{generation}.npz"


def drop_stale_generations(directory: Path, stem: str,
                           keep_generation: int) -> int:
    """Delete generation-numbered data files other than ``keep_generation``.

    Run *after* a checkpoint fully commits; crash-surviving orphans from
    earlier attempts are harmless until then (nothing references them).
    Returns the number of files removed.
    """
    pattern = re.compile(re.escape(stem) + r"\.(\d+)\.npz$")
    removed = 0
    for candidate in Path(directory).glob(f"{stem}.*.npz"):
        match = pattern.match(candidate.name)
        if match and int(match.group(1)) != keep_generation:
            candidate.unlink(missing_ok=True)
            removed += 1
    return removed


# --------------------------------------------------------------------- #
# the checkpoint layout: <stem>.<generation>.npz, then <stem>.json       #
# --------------------------------------------------------------------- #

def _generation_fields(stem: str, generation: int) -> dict:
    """What a checkpoint's metadata adds to the serialized state: its
    generation, the data file it belongs to, and ``wal_generation ==
    generation`` — the WAL segment that continues this checkpoint must
    carry the same generation in its header."""
    return {"generation": int(generation),
            "data_file": _data_name(stem, generation),
            "wal_generation": int(generation)}


def _commit(directory, stem: str, faults, meta: dict, arrays: dict) -> dict:
    """Write the data file, then the metadata rename that commits it."""
    directory = Path(directory)
    _atomic_savez(directory / meta["data_file"], faults=faults,
                  crash_point="checkpoint.data", **arrays)
    atomic_write_text(directory / f"{stem}.json",
                      json.dumps(meta), faults=faults,
                      crash_point="checkpoint.meta")
    return meta


def _read(directory, stem: str, kind: str, what: str) -> tuple[dict, dict]:
    """``(metadata, arrays)`` of the committed checkpoint of ``stem``."""
    meta_path = Path(directory) / f"{stem}.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"missing checkpoint {meta_path}") from None
    if meta.get("kind") != kind:
        raise CheckpointError(f"{meta_path} is not {what}")
    data_path = meta_path.with_name(meta["data_file"])
    try:
        return meta, load_arrays(data_path)
    except FileNotFoundError:
        raise CheckpointError(
            f"{meta_path} references missing data file {data_path}"
        ) from None


def write_index_checkpoint(directory, stem: str, index,
                           generation: int, faults=None) -> dict:
    """Checkpoint one PRKB index (chain members + offsets, separators,
    sampling seed and ordinal) as generation ``generation``."""
    return _commit(directory, stem, faults, *index_state(
        index, _CHECKPOINT_FORMAT, "prkb-index-checkpoint",
        **_generation_fields(stem, generation)))


def read_index_checkpoint(directory, stem: str
                          ) -> tuple[dict, np.ndarray, np.ndarray]:
    """Load (metadata, chain members, offsets) for one index checkpoint;
    :func:`repro.edbms.persistence.restore_index` materializes them."""
    meta, arrays = _read(directory, stem, "prkb-index-checkpoint",
                         "an index checkpoint")
    return meta, arrays["members"], arrays["offsets"]


def write_table_checkpoint(directory, stem: str, table,
                           generation: int, faults=None) -> dict:
    """Checkpoint one encrypted table as generation ``generation``."""
    return _commit(directory, stem, faults, *table_state(
        table, _CHECKPOINT_FORMAT, "encrypted-table-checkpoint",
        **_generation_fields(stem, generation)))


def read_table_checkpoint(directory, stem: str):
    """Load (metadata, EncryptedTable) for one table checkpoint."""
    meta, arrays = _read(directory, stem, "encrypted-table-checkpoint",
                         "a table checkpoint")
    return meta, restore_table(meta, arrays)
