"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench import Testbed
from repro.workloads import uniform_table


@pytest.fixture
def small_testbed() -> Testbed:
    """A 200-row, 2-attribute testbed with PRKB on both attributes."""
    table = uniform_table("t", 200, ["X", "Y"], domain=(1, 1000), seed=11)
    return Testbed(table, ["X", "Y"], seed=11)


@pytest.fixture
def tiny_testbed() -> Testbed:
    """A 40-row single-attribute testbed for fine-grained assertions."""
    table = uniform_table("t", 40, ["X"], domain=(1, 100), seed=3)
    return Testbed(table, ["X"], seed=3)


def plain_lookup(testbed: Testbed, attribute: str):
    """uid -> plaintext value mapping function for invariant checks."""
    values = {
        int(u): int(v)
        for u, v in zip(testbed.plain.uids,
                        testbed.plain.columns[attribute])
    }
    return lambda uid: values[uid]


def ground_truth_range(testbed: Testbed, attribute: str, low: int,
                       high: int) -> np.ndarray:
    """Sorted uids with ``low < value < high`` from the plaintext."""
    values = testbed.plain.columns[attribute]
    mask = (values > low) & (values < high)
    return np.sort(testbed.plain.uids[mask])


def load_parity_bench():
    """``benchmarks/bench_parity_probe.py`` as a module (it imports
    ``_common`` from its own directory): the one home of the probe's
    pinned ``EXPECTED_QPF``."""
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        "bench_parity_probe", benchmarks / "bench_parity_probe.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(benchmarks))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(benchmarks))
    return module
