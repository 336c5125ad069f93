"""Distinct values and duplicate checks by sorting.

Under numpy 2 ``np.unique`` hashes its input, which costs ~25 ms for
100 000 uids where a sort plus an adjacent compare costs under 1 ms
(and 90 µs against 10 µs for 1 000).  These helpers give the sorted
answers ``np.unique`` would, by sorting.
"""

from __future__ import annotations

import numpy as np

__all__ = ["distinct", "distinct_inverse", "has_duplicates", "run_starts"]


def _fresh(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return fresh


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values of a sorted 1-d array starts."""
    return np.flatnonzero(_fresh(ordered))


def has_duplicates(values: np.ndarray) -> bool:
    """Whether any value occurs twice."""
    ordered = np.sort(np.asarray(values).ravel())
    return bool(np.any(ordered[1:] == ordered[:-1]))


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values (``np.unique(values)``)."""
    ordered = np.sort(np.asarray(values).ravel())
    return ordered[_fresh(ordered)]


def distinct_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a 1-d array: the
    sorted distinct values and, per element, the index of its value."""
    values = np.asarray(values)
    order = np.argsort(values)
    ordered = values[order]
    fresh = _fresh(ordered)
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return ordered[fresh], inverse
