"""Append-only, checksummed write-ahead log for PRKB refinements.

File layout::

    [8s magic "PRKBWAL\\x01"] [u32 format version] [u64 generation]
    repeat: [u32 payload length] [u32 crc32(payload)] [payload bytes]

All integers are little-endian.  ``generation`` binds a WAL segment to
the checkpoint that opened it: recovery only replays a segment whose
generation equals the checkpoint metadata's ``wal_generation``, which
makes the checkpoint-commit → WAL-truncation window crash-safe (a
crash between the two leaves a *stale* segment that is ignored, never
double-applied).

Payloads are opaque to this module; the journal layer stores compact
JSON operation records (:func:`encode_op` / :func:`decode_op`) with
uint64 uid arrays packed as base64 (:func:`pack_uids`).

The reader tolerates a torn tail: a final record whose frame header,
payload bytes or CRC32 are incomplete/incorrect terminates the scan and
is reported as ``torn_bytes`` rather than an error — exactly what a
crash mid-``write`` leaves behind.

The unit of durability is the *operation*, not the record: a commit
made outside any :func:`commit_epoch` (a SELECT's refinement) is one
operation on its writer; every commit made inside an epoch (an insert,
delete or update batch, whatever number of rows and logs it touches)
belongs to the one operation the epoch stands for.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..persistence import fsync_dir
from .faults import FaultInjector, SimulatedCrash

__all__ = [
    "FsyncPolicy", "WALError", "WALCorruptionError", "WALWriter",
    "WALReadResult", "read_wal", "commit_epoch", "encode_op", "decode_op",
    "pack_uids", "unpack_uids",
]

_MAGIC = b"PRKBWAL\x01"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQ")
_FRAME = struct.Struct("<II")
#: Sanity bound on a single record; real records are a few KB at most
#: (the largest is a full-table insert batch).
_MAX_RECORD = 1 << 30

POINT_APPEND_BEFORE = "wal.append.before"
POINT_APPEND_TORN = "wal.append.torn"
POINT_APPEND_AFTER = "wal.append.after"
POINT_SYNC = "wal.sync"


class WALError(RuntimeError):
    """A WAL file is structurally unusable (bad magic/version)."""


class WALCorruptionError(WALError):
    """A WAL record failed its checksum *before* the tail (mid-file rot)."""


@dataclass(frozen=True)
class FsyncPolicy:
    """When a WAL writer calls ``fsync`` relative to committed operations.

    ``"always"`` syncs every log an operation touched before the
    operation is acknowledged (full durability), ``"every"`` syncs a log
    once per ``interval`` operations that touched it (group commit:
    bounded loss window, amortized sync cost), ``"off"`` never syncs
    (the OS flushes eventually; a power loss may drop the whole tail,
    a mere process crash typically drops nothing).
    """

    mode: str = "always"
    interval: int = 1

    def __post_init__(self):
        if self.mode not in ("always", "every", "off"):
            raise ValueError(f"unknown fsync mode {self.mode!r}")
        if self.mode == "every" and self.interval < 1:
            raise ValueError("fsync interval must be positive")

    @classmethod
    def parse(cls, spec) -> "FsyncPolicy":
        """``"always"`` | ``"off"`` | ``"every:N"`` | int N | FsyncPolicy."""
        if isinstance(spec, FsyncPolicy):
            return spec
        if isinstance(spec, int):
            return cls("every", spec) if spec > 1 else cls("always")
        if spec in ("always", "off"):
            return cls(spec)
        if isinstance(spec, str) and spec.startswith("every:"):
            return cls("every", int(spec.split(":", 1)[1]))
        raise ValueError(f"cannot parse fsync policy {spec!r}")

    def describe(self) -> str:
        """Canonical string form (inverse of :meth:`parse`)."""
        return (f"every:{self.interval}" if self.mode == "every"
                else self.mode)

    def due(self, pending_commits: int) -> bool:
        """Whether ``pending_commits`` unsynced operations warrant an fsync."""
        if self.mode == "always":
            return pending_commits >= 1
        if self.mode == "every":
            return pending_commits >= self.interval
        return False


class _Epoch(threading.local):
    """The calling thread's open commit epoch: the writers it committed
    on, in first-commit order (``None`` outside any epoch)."""

    writers: "list[WALWriter] | None" = None


_epoch = _Epoch()


@contextmanager
def commit_epoch():
    """Make the enclosed engine operation one unit of durability.

    Inside the epoch :meth:`WALWriter.mark_commit` only notes its writer;
    on exit every noted writer counts *one* committed operation and is
    synced if its policy says so, in the order the writers first
    committed — the table log before the index logs that depend on it.
    Only then does control return to the caller, i.e. is the write
    acknowledged.  Reentrant: a nested epoch belongs to the outermost
    one.  The epoch is the calling thread's alone, so a commit another
    thread makes on one of the same writers meanwhile is that thread's
    own operation and is synced before *it* returns.

    An epoch left by an ordinary exception still settles what it
    committed (memory already holds those changes, so the log must not
    fall behind it) and re-raises; one left by
    :class:`~.faults.SimulatedCrash` syncs nothing, as a dead process
    would not.
    """
    if _epoch.writers is not None:
        yield
        return
    touched = _epoch.writers = []
    try:
        yield
    except SimulatedCrash:
        touched.clear()
        raise
    finally:
        _epoch.writers = None
        for writer in touched:
            writer._operation_committed()


class WALWriter:
    """Appends framed records to one WAL segment.

    The segment is always created fresh (header written, fsynced, and the
    directory entry fsynced): writers only come into existence right
    after a checkpoint, which is what truncates/supersedes any previous
    segment.  ``counter`` (a :class:`~repro.edbms.costs.CostCounter`)
    receives ``wal_records`` / ``wal_bytes`` / ``wal_fsyncs`` — every
    fsync counts, the two that open a segment (file and directory) and
    the one that closes it included; ``faults`` is the test harness's
    :class:`~.faults.FaultInjector`.
    """

    def __init__(self, path, generation: int = 1,
                 policy: FsyncPolicy | None = None,
                 counter=None, faults: FaultInjector | None = None):
        self.path = Path(path)
        self.generation = int(generation)
        self.policy = policy or FsyncPolicy()
        self.counter = counter
        self.faults = faults
        self._file = None
        self._pending_commits = 0
        self._synced = 0
        # Commits normally arrive under the owning index's write lock,
        # but an epoch settles its writers after releasing it; the mutex
        # keeps "count the operation, test the policy, fsync, zero the
        # count" atomic against a sibling thread's commit.
        self._commit_lock = threading.Lock()
        self._open_fresh()

    def _open_fresh(self) -> None:
        self._file = open(self.path, "wb")
        self._file.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION,
                                      self.generation))
        self._file.flush()
        os.fsync(self._file.fileno())
        fsync_dir(self.path.parent)
        self._charge_fsyncs(2)
        self._synced = self._file.tell()
        self._pending_commits = 0

    def _charge_fsyncs(self, count: int) -> None:
        if self.counter is not None:
            self.counter.charge(wal_fsyncs=count)

    # -- crash-simulation support ------------------------------------- #

    def _truncate_to_synced(self) -> None:
        """Drop unsynced bytes (power-loss emulation)."""
        self._file.flush()
        os.ftruncate(self._file.fileno(), self._synced)

    # -- write path ----------------------------------------------------- #

    def append(self, payload: bytes) -> None:
        """Append one framed, checksummed record (buffered, not synced)."""
        if self._file is None:
            raise WALError(f"writer for {self.path} is closed")
        framed = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        if self.faults is not None:
            self.faults.maybe_crash(POINT_APPEND_BEFORE,
                                    on_power_loss=self._truncate_to_synced)
            spec = self.faults.visit(POINT_APPEND_TORN)
            if spec is not None:
                cut = (spec.partial_bytes if spec.partial_bytes is not None
                       else len(framed) // 2)
                cut = max(1, min(cut, len(framed) - 1))
                self._file.write(framed[:cut])
                self._file.flush()
                if spec.power_loss:
                    self._truncate_to_synced()
                raise SimulatedCrash(POINT_APPEND_TORN,
                                     f"{cut}/{len(framed)} bytes written")
        self._file.write(framed)
        self._file.flush()
        if self.counter is not None:
            self.counter.charge(wal_records=1, wal_bytes=len(framed))
        if self.faults is not None:
            self.faults.maybe_crash(POINT_APPEND_AFTER,
                                    on_power_loss=self._truncate_to_synced)

    def mark_commit(self) -> None:
        """Note a commit record: inside a :func:`commit_epoch` it joins
        that epoch's operation, outside it is an operation of its own."""
        touched = _epoch.writers
        if touched is None:
            self._operation_committed()
        elif self not in touched:
            touched.append(self)

    def _operation_committed(self) -> None:
        """Count one committed operation; fsync if the policy says so."""
        with self._commit_lock:
            self._pending_commits += 1
            if self.policy.due(self._pending_commits):
                self.sync()

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        if self._file is None:
            return
        if self.faults is not None:
            self.faults.maybe_crash(POINT_SYNC,
                                    on_power_loss=self._truncate_to_synced)
        tracer = None if self.counter is None else self.counter.tracer
        span = None
        if tracer is not None:
            span = tracer.begin("wal.fsync", path=self.path.name,
                                pending_bytes=self._file.tell() - self._synced)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._synced = self._file.tell()
        self._pending_commits = 0
        self._charge_fsyncs(1)
        if span is not None:
            tracer.finish(span, wal_fsyncs=1)

    def reset(self, generation: int) -> None:
        """Truncate to an empty segment of the given generation.

        Called right after a checkpoint commits: every logged op is now
        part of the checkpoint, so the old segment's content is dead
        weight (and its old generation number marks any crash-surviving
        copy as stale).
        """
        self.close()
        self.generation = int(generation)
        self._open_fresh()

    def close(self) -> None:
        """Sync and close (idempotent)."""
        if self._file is None:
            return
        try:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._charge_fsyncs(1)
        finally:
            self._file.close()
            self._file = None


@dataclass
class WALReadResult:
    """Outcome of scanning one WAL segment.

    ``generation`` is ``None`` when the file is missing or its header is
    itself torn/invalid (treated as an empty segment, with the whole file
    size reported as torn bytes when a partial header exists).
    """

    records: list[bytes] = field(default_factory=list)
    generation: int | None = None
    torn_bytes: int = 0
    total_bytes: int = 0


def read_wal(path, strict: bool = False) -> WALReadResult:
    """Scan a WAL segment, tolerating a torn tail.

    Every complete, checksum-valid record up to the first damaged one is
    returned; the damaged suffix (a crash's torn final record — or, with
    ``strict=True`` forbidden, anything worse) is reported as
    ``torn_bytes``.  With ``strict=True`` a checksum failure that is
    *followed by further complete records* raises
    :class:`WALCorruptionError` instead of silently truncating — tail
    tears are expected, mid-file rot is not.
    """
    path = Path(path)
    result = WALReadResult()
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return result
    result.total_bytes = len(blob)
    if len(blob) < _HEADER.size:
        result.torn_bytes = len(blob)
        return result
    magic, version, generation = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise WALError(f"{path} is not a WAL segment (bad magic)")
    if version != _FORMAT_VERSION:
        raise WALError(f"{path}: unsupported WAL version {version}")
    result.generation = int(generation)
    offset = _HEADER.size
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            break  # torn frame header
        length, checksum = _FRAME.unpack_from(blob, offset)
        if length > _MAX_RECORD:
            break  # garbage length: treat as tear
        start = offset + _FRAME.size
        end = start + length
        if end > len(blob):
            break  # torn payload
        payload = blob[start:end]
        if zlib.crc32(payload) != checksum:
            if strict and end < len(blob):
                raise WALCorruptionError(
                    f"{path}: checksum failure at offset {offset} with "
                    f"{len(blob) - end} bytes following")
            break  # torn final record
        result.records.append(payload)
        offset = end
    result.torn_bytes = len(blob) - offset
    return result


# --------------------------------------------------------------------- #
# operation payload codec                                                #
# --------------------------------------------------------------------- #

def pack_uids(uids) -> str:
    """uint64 uid array -> base64 string (little-endian bytes)."""
    array = np.ascontiguousarray(np.asarray(uids, dtype="<u8"))
    return base64.b64encode(array.tobytes()).decode("ascii")


def unpack_uids(packed: str) -> np.ndarray:
    """Inverse of :func:`pack_uids` (returns a writable copy)."""
    raw = base64.b64decode(packed.encode("ascii"))
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


def encode_op(op: dict) -> bytes:
    """Serialize one journal operation record."""
    return json.dumps(op, separators=(",", ":"), sort_keys=True).encode()


def decode_op(payload: bytes) -> dict:
    """Inverse of :func:`encode_op`."""
    return json.loads(payload.decode())
