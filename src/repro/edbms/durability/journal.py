"""Journals: translate live index/table mutations into WAL records.

:class:`IndexJournal` implements the chain-listener protocol of
:class:`~repro.core.partitions.PartialOrderPartitions` plus the explicit
separator-edit hooks of :class:`~repro.core.prkb.PRKBIndex`.  Operations
are appended to the WAL *as they happen*; a transaction — one query's
refinement, or one insert/delete batch of any size — is closed by
:meth:`IndexJournal.commit`, which appends a ``commit`` record carrying
the index's sampling ordinal (the next statement's; every draw is a pure
function of seed, ordinal and step).  Recovery replays only complete
committed transactions, so a crash mid-operation rolls the index back to
the previous operation boundary — and the restored ordinal means the
replayed index draws *exactly* the samples the live one would have,
which is what makes post-recovery QPF usage bit-identical to an
uncrashed run.

:class:`TableJournal` is simpler: each row-insert/delete batch is one
self-contained record (no transaction framing; every fully-written
record is committed).  Table records are logged *before* the dependent
index transactions commit, so recovery can always repair index orphans
toward the durable table state.

Neither journal decides when its log reaches the disk.  Both call
:meth:`~.wal.WALWriter.mark_commit`; outside a
:func:`~.wal.commit_epoch` that is one operation on that writer (a
SELECT), inside one (``TableUpdater``'s insert / delete / update) the
epoch settles every writer it touched once, on exit, table log first.

Index operation vocabulary (JSON payloads)::

    {"op":"split","at":i,"first":b64,"second":b64}
    {"op":"merge","first":a,"last":b}
    {"op":"ins","uid":u,"at":i}
    {"op":"del","uid":u}
    {"op":"reinit","uids":b64}
    {"op":"sep_add","at":i,"attribute":..,"kind":..,"sealed":hex,
     "prefix_label":bool,"edge":..,"partner":int}
    {"op":"sep_del","start":a,"stop":b}
    {"op":"commit","ordinal":n}

Segments written before sampling was keyed carry ``"rng"`` (a numpy
BitGenerator state) in place of ``"ordinal"``; recovery ignores it.

Table operation vocabulary::

    {"op":"rows_ins","uids":b64,"cols":{attr:b64}}
    {"op":"rows_del","uids":b64}
"""

from __future__ import annotations

import numpy as np

from .wal import WALWriter, encode_op, pack_uids

__all__ = ["IndexJournal", "TableJournal"]


class IndexJournal:
    """WAL front-end for one :class:`~repro.core.prkb.PRKBIndex`."""

    def __init__(self, writer: WALWriter):
        self.writer = writer
        self._index = None
        self._pending_ops = 0
        self._baseline_ordinal = 0

    def bind(self, index) -> None:
        """Called by ``PRKBIndex.attach_journal``; notes the ordinal so
        no-op commits can be skipped."""
        self._index = index
        self._baseline_ordinal = index.ordinal

    def reset_baseline(self) -> None:
        """Re-anchor after a checkpoint: the WAL is empty again and the
        checkpoint already holds the current ordinal."""
        self._pending_ops = 0
        if self._index is not None:
            self._baseline_ordinal = self._index.ordinal

    def _log(self, op: dict) -> None:
        self.writer.append(encode_op(op))
        self._pending_ops += 1

    # -- chain listener protocol (PartialOrderPartitions.listener) ------- #

    def on_split(self, index: int, first_uids: np.ndarray,
                 second_uids: np.ndarray) -> None:
        self._log({"op": "split", "at": int(index),
                   "first": pack_uids(first_uids),
                   "second": pack_uids(second_uids)})

    def on_merge(self, first: int, last: int) -> None:
        self._log({"op": "merge", "first": int(first), "last": int(last)})

    def on_insert(self, uid: int, index: int) -> None:
        self._log({"op": "ins", "uid": int(uid), "at": int(index)})

    def on_delete(self, uid: int) -> None:
        self._log({"op": "del", "uid": int(uid)})

    # -- PRKBIndex-level hooks ------------------------------------------- #

    def chain_reinit(self, uids) -> None:
        """The index rebuilt its chain from scratch (empty-chain insert)."""
        self._log({"op": "reinit", "uids": pack_uids(
            np.asarray(uids, dtype=np.uint64))})

    def sep_add(self, at: int, separator, partner_index: int | None) -> None:
        """A separator was inserted at position ``at``.

        ``partner_index`` uses *pre-insert* list positions, matching
        ``PRKBIndex.apply_split`` — replay performs the same
        lookup-then-insert sequence.
        """
        trapdoor = separator.trapdoor
        self._log({"op": "sep_add", "at": int(at),
                   "attribute": trapdoor.attribute,
                   "kind": trapdoor.kind,
                   "sealed": trapdoor.sealed.hex(),
                   "prefix_label": bool(separator.prefix_label),
                   "edge": separator.edge,
                   "partner": -1 if partner_index is None
                   else int(partner_index)})

    def sep_del(self, start: int, stop: int) -> None:
        """Separators ``[start:stop)`` were deleted."""
        self._log({"op": "sep_del", "start": int(start), "stop": int(stop)})

    # -- transaction boundary -------------------------------------------- #

    def commit(self) -> None:
        """Close the current transaction with an ordinal commit record.

        Skipped entirely when nothing happened — no structural ops logged
        *and* no ordinal taken — so equivalence-cache hits and untouched
        indexes in a multi-index operation cost zero WAL traffic.
        """
        if self._index is None:
            return
        ordinal = self._index.ordinal
        if self._pending_ops == 0 and ordinal == self._baseline_ordinal:
            return
        self.writer.append(encode_op({"op": "commit", "ordinal": ordinal}))
        self.writer.mark_commit()
        self._pending_ops = 0
        self._baseline_ordinal = ordinal

    def close(self) -> None:
        """Flush and close the underlying WAL segment."""
        self.writer.close()


class TableJournal:
    """WAL front-end for one encrypted table's row-level updates."""

    def __init__(self, writer: WALWriter):
        self.writer = writer

    def rows_insert(self, uids: np.ndarray,
                    ciphertexts: dict[str, np.ndarray]) -> None:
        """Log one committed insert batch (ciphertext columns included)."""
        self.writer.append(encode_op({
            "op": "rows_ins",
            "uids": pack_uids(uids),
            "cols": {attr: pack_uids(col)
                     for attr, col in ciphertexts.items()},
        }))
        self.writer.mark_commit()

    def rows_delete(self, uids: np.ndarray) -> None:
        """Log one committed delete batch."""
        self.writer.append(encode_op({"op": "rows_del",
                                      "uids": pack_uids(uids)}))
        self.writer.mark_commit()

    def close(self) -> None:
        """Flush and close the underlying WAL segment."""
        self.writer.close()
