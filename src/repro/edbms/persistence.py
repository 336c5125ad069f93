"""Persistence for server-side state: encrypted tables and PRKB indexes.

A real service provider restarts; its ciphertext store and its accumulated
past-result knowledge should survive.  Each artefact is saved as a pair of
files: ``<path>.json`` (structural metadata, sealed trapdoors in hex) and
``<path>.npz`` (the bulk arrays).  Nothing here requires the data owner's
key — persistence is an SP-side operation over SP-visible state only,
consistent with the paper's security argument.

All file writes are *atomic*: content goes to a temp file in the target
directory, is fsynced, and replaces the destination with ``os.replace``
(followed by a directory fsync), so a crash mid-save leaves either the
old artefact or the new one, never a torn mix.  The durability subsystem
(:mod:`repro.edbms.durability`) builds its checkpoint format on the same
helpers and serializers.

Format history (one number per layout; checkpoints are at 2): version 1
saved no sampling state, version 2 a numpy bit-generator state, version
3 the sampling ``seed`` and ``ordinal`` — every draw is a function of
those and the step, so a restore with ``seed=None`` continues the saved
instance's probe sequence and post-restore QPF is bit-identical.  Older
files still load, their bit-generator state ignored, under a fresh seed
at ordinal 0: same answers, but not bit-identical QPF.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from ..crypto.trapdoor import EncryptedPredicate
from .encryption import EncryptedTable

__all__ = ["save_table", "load_table", "save_index", "load_index",
           "table_state", "restore_table", "index_state", "restore_index",
           "load_arrays",
           "atomic_write_bytes", "atomic_write_text", "fsync_dir",
           "serialize_separators", "materialize_separators"]

_FORMAT_VERSION = 3
#: Tables save each ciphertext column as the array ``col:<attribute>``.
_CIPHERTEXT_PREFIX = "col:"


def _paths(path) -> tuple[Path, Path]:
    base = Path(path)
    return base.with_suffix(".json"), base.with_suffix(".npz")


# --------------------------------------------------------------------- #
# atomic file writes                                                     #
# --------------------------------------------------------------------- #

def fsync_dir(path) -> None:
    """Best-effort directory fsync — makes a rename durable on POSIX."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _atomic_replace(path, write, faults, crash_point: str) -> None:
    """Run ``write(handle)`` on a temp file, fsync it, rename it over
    ``path`` and fsync the directory.

    The temp file lives in the destination directory (same filesystem,
    so the rename is atomic).  ``faults`` is an optional test-harness
    hook (duck-typed ``maybe_crash(point)``) visited at
    ``"<crash_point>.before_rename"`` / ``"<crash_point>.after_rename"``.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        if faults is not None:
            faults.maybe_crash(f"{crash_point}.before_rename")
        os.replace(tmp, path)
        if faults is not None:
            faults.maybe_crash(f"{crash_point}.after_rename")
    finally:
        tmp.unlink(missing_ok=True)
    fsync_dir(path.parent)


def atomic_write_bytes(path, data: bytes, faults=None,
                       crash_point: str = "atomic") -> None:
    """Write ``data`` to ``path`` atomically (see :func:`_atomic_replace`)."""
    _atomic_replace(path, lambda handle: handle.write(data), faults,
                    crash_point)


def atomic_write_text(path, text: str, faults=None,
                      crash_point: str = "atomic") -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"), faults=faults,
                       crash_point=crash_point)


def _atomic_savez(path, faults=None, crash_point: str = "atomic",
                  **arrays) -> None:
    """Atomic ``.npz`` write.

    The archive is what ``np.savez`` produces — one ``<name>.npy`` member
    per array, read back by ``np.load`` — except that each member is
    written as what it is: ciphertext columns are PRF output, which
    deflate cannot shrink, and are stored; everything else (uids, chain
    members, offsets) is deflated at level 1, which on such arrays gives
    level 6's ratio to within a few percent at a tenth of its time.
    """
    def write(handle) -> None:
        with zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED,
                             compresslevel=1) as archive:
            for name, array in arrays.items():
                member = f"{name}.npy"
                if name.startswith(_CIPHERTEXT_PREFIX):
                    # A bare ZipInfo is a ZIP_STORED member.
                    member = zipfile.ZipInfo(member)
                with archive.open(member, "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, np.asanyarray(array),
                                              allow_pickle=False)

    _atomic_replace(path, write, faults, crash_point)


# --------------------------------------------------------------------- #
# separator (de)serialization — shared with durability checkpoints       #
# --------------------------------------------------------------------- #

def serialize_separators(separator_list) -> list[dict]:
    """Separator records with partner links as list positions.

    Partner resolution uses one ``id -> position`` map built up front
    (object identity, since ``_Separator`` has identity equality), so the
    pass is O(n) rather than the O(n²) of per-item ``list.index``.
    """
    position_of = {id(separator): position
                   for position, separator in enumerate(separator_list)}
    records = []
    for separator in separator_list:
        partner_position = -1
        if separator.partner is not None:
            partner_position = position_of.get(id(separator.partner), -1)
        records.append({
            "attribute": separator.trapdoor.attribute,
            "kind": separator.trapdoor.kind,
            "sealed": separator.trapdoor.sealed.hex(),
            "prefix_label": bool(separator.prefix_label),
            "edge": separator.edge,
            "partner": partner_position,
        })
    return records


def materialize_separators(records: list[dict]) -> list:
    """Inverse of :func:`serialize_separators` (rebuilds partner links)."""
    from ..core.prkb import _Separator

    separators = []
    for item in records:
        trapdoor = EncryptedPredicate(
            attribute=item["attribute"],
            kind=item["kind"],
            sealed=bytes.fromhex(item["sealed"]),
        )
        separators.append(_Separator(
            trapdoor=trapdoor,
            prefix_label=item["prefix_label"],
            edge=item["edge"],
        ))
    for position, item in enumerate(records):
        if item["partner"] >= 0:
            separators[position].partner = separators[item["partner"]]
    return separators


# --------------------------------------------------------------------- #
# (table, chain) state <-> metadata + arrays                             #
# --------------------------------------------------------------------- #
#
# One builder and one restorer per artefact serve both on-disk layouts:
# the classic ``save_*`` pair below and the generation-numbered
# checkpoints of :mod:`repro.edbms.durability.checkpoint`, which differ
# in ``format`` / ``kind`` and in the ``extra`` fields a checkpoint adds.

def table_state(table: EncryptedTable, format_version: int, kind: str,
                **extra) -> tuple[dict, dict]:
    """``(metadata, arrays)`` of an encrypted table."""
    arrays = {"uids": np.asarray(table.uids)}
    for attr in table.attribute_names:
        arrays[f"{_CIPHERTEXT_PREFIX}{attr}"] = table.full_column(attr)[0]
    meta = {
        "format": format_version,
        "kind": kind,
        "name": table.name,
        "attribute_names": list(table.attribute_names),
        **extra,
    }
    return meta, arrays


def restore_table(meta: dict, arrays) -> EncryptedTable:
    """Inverse of :func:`table_state` (``arrays``: name -> array)."""
    return EncryptedTable(
        name=meta["name"],
        attribute_names=tuple(meta["attribute_names"]),
        uids=arrays["uids"],
        ciphertexts={attr: arrays[f"{_CIPHERTEXT_PREFIX}{attr}"]
                     for attr in meta["attribute_names"]},
    )


def index_state(index, format_version: int, kind: str,
                **extra) -> tuple[dict, dict]:
    """``(metadata, arrays)`` of a :class:`~repro.core.prkb.PRKBIndex`:
    the chain as (members, offsets), the separators and the sampling
    seed and ordinal."""
    members, offsets = index.pop.segments()
    meta = {
        "format": format_version,
        "kind": kind,
        "table": index.table.name,
        "attribute": index.attribute,
        **extra,
        "max_partitions": index.max_partitions,
        "early_stop": index.early_stop,
        "cap_policy": index.cap_policy,
        "separators": serialize_separators(index._separators),
        "seed": index.seed,
        "ordinal": index.ordinal,
    }
    return meta, {"members": members, "offsets": offsets}


def restore_index(meta: dict, members: np.ndarray, offsets: np.ndarray,
                  table, qpf, seed: int | None = None):
    """Inverse of :func:`index_state` — no QPF calls.

    With ``seed=None`` the saved sampling seed and ordinal are restored
    (absent from version-1 and -2 saves); an explicit ``seed`` starts a
    fresh stream at ordinal 0.  A chain that files one uid twice is
    rejected: the arrays come from disk.
    """
    from ..core.partitions import PartialOrderPartitions
    from ..core.prkb import PRKBIndex

    index = PRKBIndex(table, qpf, meta["attribute"],
                      max_partitions=meta["max_partitions"],
                      early_stop=meta["early_stop"],
                      seed=meta.get("seed") if seed is None else seed,
                      cap_policy=meta.get("cap_policy", "freeze"))
    index.pop = PartialOrderPartitions.from_segments(members, offsets)
    distinct = index.pop.tracked_uids().size
    if distinct != index.pop.num_tuples:
        raise ValueError(
            f"saved index repeats a uid ({index.pop.num_tuples} chain "
            f"tuples over {distinct} distinct uids)")
    index._separators = materialize_separators(meta["separators"])
    index.ordinal = meta.get("ordinal", 0) if seed is None else 0
    return index


# --------------------------------------------------------------------- #
# the classic layout: <path>.json + <path>.npz                            #
# --------------------------------------------------------------------- #

def _save(path, meta: dict, arrays: dict) -> None:
    meta_path, data_path = _paths(path)
    _atomic_savez(data_path, **arrays)
    atomic_write_text(meta_path, json.dumps(meta, indent=2))


def load_arrays(path) -> dict:
    """Every array of one ``.npz`` archive, by name."""
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def _load(path, kind: str, what: str) -> tuple[dict, dict]:
    meta_path, data_path = _paths(path)
    meta = json.loads(meta_path.read_text())
    if meta.get("kind") != kind:
        raise ValueError(f"{meta_path} does not hold {what}")
    return meta, load_arrays(data_path)


def save_table(table: EncryptedTable, path) -> None:
    """Persist an encrypted table (ciphertexts + uids + metadata)."""
    _save(path, *table_state(table, _FORMAT_VERSION, "encrypted-table"))


def load_table(path) -> EncryptedTable:
    """Restore an encrypted table saved by :func:`save_table`."""
    return restore_table(*_load(path, "encrypted-table",
                                "an encrypted table"))


def save_index(index, path) -> None:
    """Persist a :class:`~repro.core.prkb.PRKBIndex` (POP + separators)."""
    _save(path, *index_state(index, _FORMAT_VERSION, "prkb-index"))


def load_index(path, table: EncryptedTable, qpf, seed: int | None = None):
    """Restore a PRKB index against its (already loaded) table and QPF.

    With ``seed=None`` (default), a version-3 save restores the sampling
    seed and ordinal of the saved index, so the restored instance draws
    the very probe sequence the original would have — post-restore
    ``qpf_uses`` are bit-identical.  Pass ``seed`` to start a fresh
    deterministic stream at ordinal 0 instead (or for version-1 and -2
    saves, which carry no seed).
    """
    meta, arrays = _load(path, "prkb-index", "a PRKB index")
    if meta["table"] != table.name:
        raise ValueError(
            f"index was saved for table {meta['table']!r}, "
            f"got {table.name!r}"
        )
    members = arrays["members"]
    # Table uids are distinct, so a member list that repeats one fails
    # this comparison too.
    if not np.array_equal(np.sort(members), np.sort(table.uids)):
        raise ValueError(
            "saved index does not cover the loaded table's tuples "
            f"({members.size} saved vs {table.num_rows} in table)"
        )
    return restore_index(meta, members, arrays["offsets"], table, qpf, seed)
