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
    fsync_dir,
    materialize_separators,
    serialize_separators,
    _jsonable,
)

__all__ = [
    "CheckpointError", "atomic_write_bytes", "fsync_dir",
    "write_index_checkpoint", "read_index_checkpoint",
    "write_table_checkpoint", "read_table_checkpoint",
    "drop_stale_generations",
]

# Re-exported for the package namespace; persistence owns the helpers.
from ..persistence import atomic_write_bytes  # noqa: E402,F401

_CHECKPOINT_FORMAT = 1


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
# PRKB index checkpoints                                                 #
# --------------------------------------------------------------------- #

def write_index_checkpoint(directory, stem: str, index,
                           generation: int, faults=None) -> dict:
    """Checkpoint one PRKB index as generation ``generation``.

    Writes ``<stem>.<generation>.npz`` (chain members + offsets) then
    commits ``<stem>.json`` atomically.  The metadata includes the full
    separator list, the sampling-RNG state and ``wal_generation ==
    generation`` — the WAL segment that continues this checkpoint must
    carry the same generation in its header.
    """
    directory = Path(directory)
    chain = [partition.uids for partition in index.pop]
    offsets = np.cumsum([0] + [len(c) for c in chain]).astype(np.int64)
    members = (np.concatenate(chain) if chain
               else np.zeros(0, dtype=np.uint64))
    data_file = _data_name(stem, generation)
    _atomic_savez(directory / data_file, faults=faults,
                  crash_point="checkpoint.data",
                  members=members, offsets=offsets)
    meta = {
        "format": _CHECKPOINT_FORMAT,
        "kind": "prkb-index-checkpoint",
        "table": index.table.name,
        "attribute": index.attribute,
        "generation": int(generation),
        "data_file": data_file,
        "wal_generation": int(generation),
        "max_partitions": index.max_partitions,
        "early_stop": index.early_stop,
        "cap_policy": index.cap_policy,
        "separators": serialize_separators(index._separators),
        "rng_state": _jsonable(index.rng_state()),
    }
    atomic_write_text(directory / f"{stem}.json",
                      json.dumps(meta), faults=faults,
                      crash_point="checkpoint.meta")
    return meta


def read_index_checkpoint(directory, stem: str
                          ) -> tuple[dict, np.ndarray, np.ndarray]:
    """Load (metadata, chain members, offsets) for one index checkpoint."""
    directory = Path(directory)
    meta_path = directory / f"{stem}.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"missing checkpoint {meta_path}") from None
    if meta.get("kind") != "prkb-index-checkpoint":
        raise CheckpointError(f"{meta_path} is not an index checkpoint")
    data_path = directory / meta["data_file"]
    try:
        with np.load(data_path) as data:
            members = data["members"].astype(np.uint64)
            offsets = data["offsets"].astype(np.int64)
    except FileNotFoundError:
        raise CheckpointError(
            f"{meta_path} references missing data file {data_path}"
        ) from None
    return meta, members, offsets


def restore_index(meta: dict, members: np.ndarray, offsets: np.ndarray,
                  table, qpf):
    """Materialize a :class:`~repro.core.prkb.PRKBIndex` from checkpoint
    parts (chain, separators, RNG state) — no QPF calls."""
    from ...core.partitions import PartialOrderPartitions
    from ...core.prkb import PRKBIndex

    index = PRKBIndex(table, qpf, meta["attribute"],
                      max_partitions=meta["max_partitions"],
                      early_stop=meta["early_stop"],
                      cap_policy=meta.get("cap_policy", "freeze"),
                      seed=None)
    index.pop = PartialOrderPartitions.from_segments(members, offsets)
    index._separators = materialize_separators(meta["separators"])
    if meta.get("rng_state") is not None:
        index.set_rng_state(meta["rng_state"])
    return index


# --------------------------------------------------------------------- #
# encrypted table checkpoints                                            #
# --------------------------------------------------------------------- #

def write_table_checkpoint(directory, stem: str, table,
                           generation: int, faults=None) -> dict:
    """Checkpoint one encrypted table as generation ``generation``."""
    directory = Path(directory)
    arrays = {"uids": np.asarray(table.uids)}
    for attr in table.attribute_names:
        ciphertexts, __ = table.ciphertexts_for(attr, table.uids)
        arrays[f"col:{attr}"] = ciphertexts
    data_file = _data_name(stem, generation)
    _atomic_savez(directory / data_file, faults=faults,
                  crash_point="checkpoint.data", **arrays)
    meta = {
        "format": _CHECKPOINT_FORMAT,
        "kind": "encrypted-table-checkpoint",
        "name": table.name,
        "attribute_names": list(table.attribute_names),
        "generation": int(generation),
        "data_file": data_file,
        "wal_generation": int(generation),
    }
    atomic_write_text(directory / f"{stem}.json",
                      json.dumps(meta), faults=faults,
                      crash_point="checkpoint.meta")
    return meta


def read_table_checkpoint(directory, stem: str):
    """Load (metadata, EncryptedTable) for one table checkpoint."""
    from ..encryption import EncryptedTable

    directory = Path(directory)
    meta_path = directory / f"{stem}.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"missing checkpoint {meta_path}") from None
    if meta.get("kind") != "encrypted-table-checkpoint":
        raise CheckpointError(f"{meta_path} is not a table checkpoint")
    data_path = directory / meta["data_file"]
    try:
        with np.load(data_path) as data:
            uids = data["uids"].astype(np.uint64)
            ciphertexts = {attr: data[f"col:{attr}"].astype(np.uint64)
                           for attr in meta["attribute_names"]}
    except FileNotFoundError:
        raise CheckpointError(
            f"{meta_path} references missing data file {data_path}"
        ) from None
    table = EncryptedTable(
        name=meta["name"],
        attribute_names=tuple(meta["attribute_names"]),
        uids=uids,
        ciphertexts=ciphertexts,
    )
    return meta, table
