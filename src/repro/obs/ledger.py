"""Durable plan-outcome ledger: CRC-framed JSONL knowledge atoms.

The ledger is the persistence half of the plan-outcome knowledge base
(:mod:`repro.obs.outcomes` is the aggregation half).  It is an
append-only directory of segment files::

    outcomes-000001.jsonl
    outcomes-000002.jsonl        <- active segment
    ...

Each line frames one knowledge atom as ``CCCCCCCC {json}\\n`` — eight
lowercase hex digits of the CRC32 of the compact, sorted-key JSON
payload, a space, the payload.  The framing mirrors the WAL's
torn-tail semantics at line granularity: a reader accepts records up
to the first line whose CRC (or JSON) does not verify and ignores the
rest of that segment, so a crash mid-append loses at most the record
being written.  Durability knobs are literally the WAL's —
``fsync="always" | "off" | "every:N"`` parse into the same
:class:`~repro.edbms.durability.wal.FsyncPolicy` (imported lazily so
``repro.obs`` stays a leaf package at import time).

Segments rotate once the active file reaches ``rotate_bytes``; at most
``max_segments`` newest segments are kept (older history has already
been folded into whatever :class:`~repro.obs.outcomes.OutcomeStore`
consumed it — the ledger is telemetry, not a system of record).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass

__all__ = ["LedgerReadResult", "PlanOutcomeLedger", "read_ledger"]

_SEGMENT_PREFIX = "outcomes-"
_SEGMENT_SUFFIX = ".jsonl"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"


def _segment_index(name: str) -> int | None:
    if not (name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def _frame(atom: dict) -> bytes:
    payload = json.dumps(atom, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x " % crc + payload + b"\n"


def _parse_line(line: bytes) -> dict | None:
    """The atom framed by one line, or ``None`` if the frame is bad."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:].rstrip(b"\n")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        atom = json.loads(payload)
    except ValueError:
        return None
    return atom if isinstance(atom, dict) else None


@dataclass(frozen=True)
class LedgerReadResult:
    """What :func:`read_ledger` recovered from a ledger directory.

    ``atoms`` are every verified record in segment-then-line order;
    ``torn_records`` counts lines dropped for failing CRC/JSON framing
    (each also truncates its segment, WAL-style); ``total_bytes`` is
    the on-disk size of all scanned segments.
    """

    atoms: list
    segments: int
    torn_records: int
    total_bytes: int


def read_ledger(path) -> LedgerReadResult:
    """Recover every verifiable atom from a ledger directory.

    Tolerates a torn tail per segment: reading stops at the first line
    that fails its CRC frame and the remainder of that segment is
    ignored, exactly like ``read_wal``.  A missing directory reads as
    an empty ledger.
    """
    atoms: list = []
    segments = 0
    torn = 0
    total_bytes = 0
    try:
        names = sorted(name for name in os.listdir(path)
                       if _segment_index(name) is not None)
    except FileNotFoundError:
        names = []
    for name in names:
        segments += 1
        full = os.path.join(path, name)
        total_bytes += os.path.getsize(full)
        with open(full, "rb") as handle:
            for line in handle:
                atom = _parse_line(line)
                if atom is None:
                    torn += 1
                    break
                atoms.append(atom)
    return LedgerReadResult(atoms=atoms, segments=segments,
                            torn_records=torn, total_bytes=total_bytes)


class PlanOutcomeLedger:
    """Append-only, size-rotated store of plan-outcome atoms.

    One per database (owned by
    :meth:`~repro.edbms.engine.EncryptedDatabase.enable_outcomes`).
    ``fsync`` takes the WAL's policy grammar (``"always"``, ``"off"``,
    ``"every:N"`` or an int); ``rotate_bytes`` bounds the active
    segment and ``max_segments`` bounds total retained history.
    :meth:`bind_metrics` publishes the ``repro_outcome_ledger_*``
    series on a registry.  Thread-safe.
    """

    def __init__(self, path, *, fsync="off", rotate_bytes: int = 4 << 20,
                 max_segments: int = 8):
        # Lazy import keeps repro.obs a leaf package at import time;
        # only *using* a ledger reaches into the durability layer.
        from ..edbms.durability.wal import FsyncPolicy

        if rotate_bytes < 1:
            raise ValueError("rotate_bytes must be positive")
        if max_segments < 1:
            raise ValueError("max_segments must be positive")
        self.path = os.fspath(path)
        self.policy = (fsync if isinstance(fsync, FsyncPolicy)
                       else FsyncPolicy.parse(fsync))
        self.rotate_bytes = int(rotate_bytes)
        self.max_segments = int(max_segments)
        self.records_written = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self._metrics = None
        self._pending = 0
        self._lock = threading.Lock()
        self._closed = False
        os.makedirs(self.path, exist_ok=True)
        existing = [index for name in os.listdir(self.path)
                    if (index := _segment_index(name)) is not None]
        self._segment = max(existing) if existing else 1
        self._file = open(os.path.join(
            self.path, _segment_name(self._segment)), "ab")

    def bind_metrics(self, registry) -> None:
        """Publish ``repro_outcome_ledger_records_total`` /
        ``_bytes_total`` / ``_fsyncs_total`` / ``_segments`` on
        ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`).

        Pre-registers every family so a scrape shows them (at zero)
        before the first append.
        """
        with self._lock:
            self._metrics = registry
        registry.counter("repro_outcome_ledger_records_total",
                         "knowledge atoms appended to the ledger")
        registry.counter("repro_outcome_ledger_bytes_total",
                         "bytes appended to the ledger")
        registry.counter("repro_outcome_ledger_fsyncs_total",
                         "fsync calls issued by the ledger")
        ledger = self
        registry.gauge("repro_outcome_ledger_segments",
                       "ledger segment files currently on disk",
                       callback=lambda: len(ledger.segments()))

    # -- writing ----------------------------------------------------------- #

    def append(self, atom: dict) -> None:
        """Frame and append one knowledge atom (CRC32 + compact JSON).

        Honors the fsync policy, rotates the active segment at
        ``rotate_bytes`` and garbage-collects segments beyond
        ``max_segments``.  Raises ``ValueError`` on a closed ledger.
        """
        frame = _frame(atom)
        with self._lock:
            if self._closed:
                raise ValueError("ledger is closed")
            self._file.write(frame)
            self.records_written += 1
            self.bytes_written += len(frame)
            self._pending += 1
            if self.policy.due(self._pending):
                self._sync_locked()
            if self._file.tell() >= self.rotate_bytes:
                self._rotate_locked()
            metrics = self._metrics
        if metrics is not None:
            metrics.counter("repro_outcome_ledger_records_total").inc()
            metrics.counter(
                "repro_outcome_ledger_bytes_total").inc(len(frame))

    def _sync_locked(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._pending = 0
        if self._metrics is not None:
            self._metrics.counter(
                "repro_outcome_ledger_fsyncs_total").inc()

    def _rotate_locked(self) -> None:
        self._sync_locked()
        self._file.close()
        self._segment += 1
        self._file = open(os.path.join(
            self.path, _segment_name(self._segment)), "ab")
        keep = self._segment - self.max_segments + 1
        for name in os.listdir(self.path):
            index = _segment_index(name)
            if index is not None and index < keep:
                os.remove(os.path.join(self.path, name))

    def sync(self) -> None:
        """Force an fsync of the active segment regardless of policy."""
        with self._lock:
            if not self._closed:
                self._sync_locked()

    def close(self) -> None:
        """Flush, fsync and close the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._sync_locked()
            self._file.close()

    # -- reading ----------------------------------------------------------- #

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def segments(self) -> list[str]:
        """On-disk segment filenames, oldest first."""
        try:
            names = [name for name in os.listdir(self.path)
                     if _segment_index(name) is not None]
        except FileNotFoundError:
            return []
        return sorted(names)

    def read(self) -> list:
        """Every verifiable atom currently on disk (flushes first)."""
        with self._lock:
            if not self._closed:
                self._file.flush()
        return read_ledger(self.path).atoms

    def stats(self) -> dict:
        """Lifetime write tallies and current segment layout."""
        segments = self.segments()
        return {
            "path": self.path,
            "fsync": self.policy.describe(),
            "records_written": self.records_written,
            "bytes_written": self.bytes_written,
            "fsyncs": self.fsyncs,
            "segments": len(segments),
            "active_segment": _segment_name(self._segment),
            "rotate_bytes": self.rotate_bytes,
            "max_segments": self.max_segments,
        }
