"""BETWEEN operator processing (paper Appendix A).

A BETWEEN trapdoor reveals a single in-band / out-of-band bit per tuple, so
the in-band tuples occupy one *contiguous run* of the POP chain, with up to
two straddling (non-homogeneous) partitions — one per band edge.  The
processing strategy mirrors the appendix:

1. probe partition samples until one with QPF output 1 (an *anchor*) is
   found,
2. run two binary searches — one per side of the anchor — to localise the
   two separating points to NS-pairs,
3. scan the NS partitions, and
4. refine the POP with up to two splits, provided each straddler's
   out-of-band half provably lies on a single side.

The appendix's *exceptional case* — a band so narrow that all in-band
tuples sit inside one partition with out-of-band tuples on both sides —
cannot be split soundly; the implementation detects it (no in-band evidence
outside the straddler) and skips the refinement, and the sample-probing
worst case degrades to a full scan, exactly as the appendix concedes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..crypto.trapdoor import EncryptedPredicate
from ..edbms.qpf import QPFRequest, drive
from .prkb import PRKBIndex

__all__ = ["BetweenProcessor"]

_EMPTY = np.zeros(0, dtype=np.uint64)


class BetweenProcessor:
    """Process BETWEEN trapdoors on one attribute using its PRKB index.

    ``anchor_samples`` controls how many fresh samples each partition gets
    during the anchor hunt before the processor concedes to the fallback
    scan: a band covering a fraction f of some partition is missed by all
    m samples with probability (1-f)^m, so a small m sharply reduces how
    often the expensive fallback fires while costing at most m·k probes.
    """

    def __init__(self, index: PRKBIndex, anchor_samples: int = 3):
        if anchor_samples < 1:
            raise ValueError("anchor_samples must be positive")
        self.index = index
        self.anchor_samples = anchor_samples

    # ------------------------------------------------------------------ #
    # probing helpers: request generators, run with ``yield from``        #
    # ------------------------------------------------------------------ #

    def _probe(self, trapdoor: EncryptedPredicate, cache: dict[int, bool],
               words, position: int):
        """Sample-probe one partition (memoised) — one QPF use when fresh."""
        if position not in cache:
            uid = self.index.pop[position].sample(next(words))
            labels = yield QPFRequest(trapdoor, self.index.table, [uid])
            cache[position] = bool(labels[0])
        return cache[position]

    @staticmethod
    def _bisection_order(k: int):
        """Yield all chain positions in breadth-first bisection order.

        Ends first, then midpoints of ever-smaller ranges — the fastest
        sampling schedule for locating a contiguous 1-run of unknown
        position.
        """
        yield 0
        if k > 1:
            yield k - 1
        pending = deque([(0, k - 1)])
        while pending:
            lo, hi = pending.popleft()
            if hi - lo < 2:
                continue
            mid = (lo + hi) // 2
            yield mid
            pending.append((lo, mid))
            pending.append((mid, hi))

    def _find_anchor(self, trapdoor: EncryptedPredicate,
                     cache: dict[int, bool], words):
        """Probe partition samples until one with output 1 is found.

        First pass follows the bisection order with memoised samples;
        further passes (up to ``anchor_samples``) redraw fresh samples,
        which rescues narrow bands that the first sample of a straddled
        partition happened to miss.
        """
        pop = self.index.pop
        order = list(self._bisection_order(pop.num_partitions))
        for position in order:
            if (yield from self._probe(trapdoor, cache, words, position)):
                return position
        for __ in range(1, self.anchor_samples):
            for position in order:
                if len(pop[position]) <= 1:
                    continue  # a single-tuple partition is fully sampled
                uid = pop[position].sample(next(words))
                labels = yield QPFRequest(trapdoor, self.index.table, [uid])
                if labels[0]:
                    cache[position] = True
                    return position
        return None

    def _search_edge(self, trapdoor: EncryptedPredicate,
                     cache: dict[int, bool], words, zero_end: int,
                     one_end: int):
        """Binary-search one band edge between a 0-sample and a 1-sample.

        Returns the NS positions (an adjacent pair) that may contain the
        separating point.  Sound for arbitrary samples from the mixed
        straddler by the same argument as Lemma 5.1.
        """
        lo, hi = zero_end, one_end
        while abs(hi - lo) > 1:
            mid = (lo + hi) // 2
            if (yield from self._probe(trapdoor, cache, words, mid)):
                hi = mid
            else:
                lo = mid
        return sorted((lo, hi)) if lo != hi else [lo]

    # ------------------------------------------------------------------ #
    # scanning and refinement                                             #
    # ------------------------------------------------------------------ #

    def _scan(self, trapdoor: EncryptedPredicate, position: int):
        """Full QPF scan of one partition; returns (true, false) uids."""
        uids = self.index.pop[position].uids
        labels = yield QPFRequest(trapdoor, self.index.table, uids)
        return uids[labels], uids[~labels]

    def _apply_band_splits(self, trapdoor: EncryptedPredicate,
                           scans: dict[int, tuple[np.ndarray, np.ndarray]],
                           known_one_positions: set[int]) -> None:
        """Split the (up to two) straddlers found mixed by the scans.

        A mixed partition P_s may be split only when in-band tuples are
        known to exist at some *other* chain position: the band then
        provably extends past P_s on exactly one side, which both orients
        the split and certifies its soundness.  Otherwise this is the
        appendix's exceptional case and knowledge is left unchanged.
        """
        mixed = [
            s for s, (true_u, false_u) in scans.items()
            if true_u.size and false_u.size
        ]
        splits: list[tuple[int, bool, str]] = []
        for s in mixed:
            others = known_one_positions - {s}
            if not others:
                continue  # exceptional case: band confined to P_s
            rightward = all(o > s for o in others)
            leftward = all(o < s for o in others)
            if not (rightward or leftward):
                raise AssertionError(
                    "band evidence on both sides of a mixed partition — "
                    "contradicts band contiguity"
                )
            if rightward:
                # P_s is the band's left straddler (chain coordinates):
                # out-of-band half sits first, a 1-output certifies suffix.
                splits.append((s, False, "low"))
            else:
                splits.append((s, True, "high"))
        # Apply right-most first so earlier chain indices stay valid.
        splits.sort(key=lambda item: item[0], reverse=True)
        partner_index: int | None = None
        for s, first_label, edge in splits:
            if not self.index.can_grow:
                break
            true_u, false_u = scans[s]
            self.index.apply_split(trapdoor, s, true_u, false_u, first_label,
                                   edge=edge, partner_index=partner_index)
            partner_index = s  # the separator just inserted sits at s

    # ------------------------------------------------------------------ #
    # main entry point                                                    #
    # ------------------------------------------------------------------ #

    def select(self, trapdoor: EncryptedPredicate,
               update: bool = True) -> np.ndarray:
        """Answer a BETWEEN trapdoor; returns winner uids, strictly
        increasing (the free run and the scanned edges go through
        :meth:`~repro.core.partitions.PartialOrderPartitions.uids_in_order`
        before any refinement moves the chain)."""
        [winners] = drive(self.index.qpf,
                          [self._select_steps(trapdoor, update)])
        return winners

    def _select_steps(self, trapdoor: EncryptedPredicate, update: bool):
        """:meth:`select` as a request generator."""
        if trapdoor.kind != "between":
            raise ValueError(
                f"BetweenProcessor handles BETWEEN trapdoors; got kind "
                f"{trapdoor.kind!r} (use SingleDimensionProcessor)"
            )
        if trapdoor.attribute != self.index.attribute:
            raise ValueError(
                f"trapdoor targets {trapdoor.attribute!r}, index covers "
                f"{self.index.attribute!r}"
            )
        pop = self.index.pop
        k = pop.num_partitions
        if k == 0:
            return _EMPTY
        cache: dict[int, bool] = {}
        # One ordinal per statement: every probe below draws from it.
        words = self.index._sample_words()
        anchor = None if k == 1 else (
            yield from self._find_anchor(trapdoor, cache, words))
        if anchor is None:
            # Either a single partition, or no sample hit the band: the
            # appendix's worst case — scan in chain order.  Contiguity
            # allows early termination: once in-band tuples have been seen
            # and a fully out-of-band partition follows, the rest of the
            # chain is certainly out of band.
            scans = {}
            seen_in_band = False
            for position in range(k):
                scans[position] = yield from self._scan(trapdoor, position)
                if scans[position][0].size:
                    seen_in_band = True
                elif seen_in_band:
                    break
            free_run, free_winner_positions = (0, 0), set()
        else:
            if (yield from self._probe(trapdoor, cache, words, 0)):
                ns_left = [0]
            else:
                ns_left = yield from self._search_edge(trapdoor, cache,
                                                       words, 0, anchor)
            if (yield from self._probe(trapdoor, cache, words, k - 1)):
                ns_right = [k - 1]
            else:
                ns_right = yield from self._search_edge(trapdoor, cache,
                                                        words, k - 1, anchor)
            scans = {}
            for s in sorted(set(ns_left) | set(ns_right)):
                scans[s] = yield from self._scan(trapdoor, s)
            # Partitions strictly between the innermost NS positions of
            # the two edges are certainly in-band — free winners.
            free_winner_positions = set(range(ns_left[-1] + 1, ns_right[0]))
            free_run = (int(pop.offsets[ns_left[-1] + 1]),
                        int(pop.offsets[ns_right[0]]))
        winners = pop.uids_in_order(
            *free_run, [true_u for true_u, __ in scans.values()])
        if update and self.index.can_grow:
            known_one_positions = free_winner_positions | {
                s for s, (true_u, __) in scans.items() if true_u.size
            }
            self._apply_band_splits(trapdoor, scans, known_one_positions)
        self.index.commit_journal()
        return winners
