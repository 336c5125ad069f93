"""Every Θ probe in ``core/`` is a yielded request that ``drive`` runs.

Three binary searches walk the POP chain: QFilter (Algorithm 1), the
BETWEEN anchor hunt and edge searches (Appendix A), and insert placement
(Sec. 7.1).  All three yield :class:`~repro.edbms.qpf.QPFRequest`
payloads to :func:`~repro.edbms.qpf.drive`; none calls Θ one tuple at a
time.  These tests pin what that must not change:

* seeded histories replay with the QPF, chain and answers recorded in
  ``data/search_protocol_histories.json`` — written at commit
  ``a11ec98``, when BETWEEN and insert placement still called Θ one
  probe per crossing.  Only multi-row insert batches may differ: their
  rows now share crossings (roundtrips fall), and on chains with
  BETWEEN edges an ambiguous placement merges once for the whole batch,
  so QPF and the chain may move there while answers stay exact;
* no search reaches the scalar ``QueryProcessingFunction.__call__``;
* an insert batch with two ambiguous placements keeps the chain sound.

``python tests/test_search_protocol.py`` rewrites the fixture from the
code on ``PYTHONPATH``; only a deliberate change of the recorded work
should ever do that.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BetweenProcessor,
    DimensionRange,
    MultiDimensionProcessor,
    PRKBIndex,
    SingleDimensionProcessor,
    TableUpdater,
)
from repro.crypto import generate_key
from repro.edbms import CostCounter, QueryProcessingFunction, TrustedMachine
from repro.edbms.owner import DataOwner
from repro.edbms.sdb_backend import (
    MPCQueryProcessingFunction,
    share_rows,
    share_table,
)
from repro.workloads import uniform_table

FIXTURE = Path(__file__).parent / "data" / "search_protocol_histories.json"

DOMAIN = (1, 100_000)
ROWS = 3000
STEPS = 300
BACKENDS = ("tm", "mpc")
SEEDS = (0, 1, 2)
BATCHES = (1, 8)
OPERATORS = ("<", "<=", ">", ">=")

HISTORIES = [
    f"{backend}-s{seed}-{'between' if between else 'cmp'}-b{batch}"
    for backend, seed, between, batch in itertools.product(
        BACKENDS, SEEDS, (False, True), BATCHES)
]


def _parse(name: str) -> tuple[str, int, bool, int]:
    backend, seed, kind, batch = name.split("-")
    return backend, int(seed[1:]), kind == "between", int(batch[1:])


def _bed(backend: str, seed: int, rows: int = ROWS):
    """A one-attribute relation on the trusted machine or the MPC Θ,
    and its fresh PRKB index over ``X``."""
    plain = uniform_table("t", rows, ["X"], domain=DOMAIN, seed=seed)
    owner = DataOwner(key=generate_key(seed))
    counter = CostCounter()
    if backend == "tm":
        qpf = QueryProcessingFunction(TrustedMachine(owner.key, counter))
        table = owner.encrypt_table(plain)
    else:
        qpf = MPCQueryProcessingFunction(owner.key, counter)
        table = share_table(owner.key, plain)
    index = PRKBIndex(table, qpf, "X", seed=seed + 7)
    return owner, plain, table, index, counter


def _insert(backend: str, owner, table, index, values) -> np.ndarray:
    """File ``values`` as one insert batch; returns their uids."""
    values = np.asarray(values, dtype=np.int64)
    if backend == "tm":
        updater = TableUpdater(table, {"X": index})
        return updater.insert_plain(owner.key, {"X": values}).uids
    uids = table.allocate_uids(values.size)
    table.insert_rows(uids, share_rows(owner.key, table, {"X": values},
                                       uids))
    index.insert_many(uids)
    return uids


def _chain_digest(index: PRKBIndex) -> str:
    digest = hashlib.sha256()
    for position in range(index.pop.num_partitions):
        digest.update(np.sort(index.pop[position].uids).tobytes())
        digest.update(b"|")
    for separator in index._separators:
        digest.update(f"{separator.edge}:{separator.prefix_label};".encode())
    return digest.hexdigest()


def _history(name: str) -> dict:
    """Replay one seeded history of selects (and BETWEENs) with insert
    batches; every answer is checked against the plaintext oracle."""
    backend, seed, between, batch = _parse(name)
    owner, plain, table, index, counter = _bed(backend, seed)
    single, band = SingleDimensionProcessor(index), BetweenProcessor(index)
    uids = plain.uids.astype(np.uint64)
    values = plain.columns["X"].astype(np.int64)
    rng = np.random.default_rng(1000 + seed)
    answers = hashlib.sha256()
    select_roundtrips = insert_roundtrips = 0
    for __ in range(STEPS):
        roll = rng.random()
        before = counter.qpf_roundtrips
        if roll < 0.25:
            new = rng.integers(DOMAIN[0], DOMAIN[1] + 1, batch)
            uids = np.concatenate(
                [uids, _insert(backend, owner, table, index, new)])
            values = np.concatenate([values, new])
            insert_roundtrips += counter.qpf_roundtrips - before
            continue
        if between and roll < 0.55:
            low = int(rng.integers(DOMAIN[0], DOMAIN[1] + 1))
            high = low + int(rng.integers(0, 20_000))
            got = band.select(owner.between_trapdoor("X", low, high))
            mask = (values >= low) & (values <= high)
        else:
            operator = OPERATORS[int(rng.integers(len(OPERATORS)))]
            constant = int(rng.integers(DOMAIN[0], DOMAIN[1] + 1))
            got = single.select(
                owner.comparison_trapdoor("X", operator, constant))
            mask = {"<": values < constant, "<=": values <= constant,
                    ">": values > constant, ">=": values >= constant
                    }[operator]
        select_roundtrips += counter.qpf_roundtrips - before
        assert np.array_equal(got, np.sort(uids[mask]))
        answers.update(np.asarray(got, dtype=np.uint64).tobytes())
    lookup = dict(zip(map(int, uids), map(int, values)))
    index.pop.check_invariants(lookup.__getitem__)
    return {
        "qpf_uses": int(counter.qpf_uses),
        "select_roundtrips": int(select_roundtrips),
        "insert_roundtrips": int(insert_roundtrips),
        "partitions": int(index.pop.num_partitions),
        "chain": _chain_digest(index),
        "answers": answers.hexdigest(),
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", HISTORIES)
def test_history_does_the_recorded_work(name, recorded):
    __, __, between, batch = _parse(name)
    got, want = _history(name), recorded[name]
    assert got["answers"] == want["answers"]
    if batch == 1:
        assert got == want
        return
    assert got["insert_roundtrips"] < want["insert_roundtrips"]
    if not between:
        # Comparison separators never leave a placement ambiguous: the
        # lock-stepped batch files exactly as serial filing did.
        assert {**got, "insert_roundtrips": 0} == \
            {**want, "insert_roundtrips": 0}


def test_batch_roundtrips_fall_by_the_row_count(recorded):
    """An insert batch pays one crossing per search round, not per row."""
    got = _history("tm-s0-cmp-b8")
    want = recorded["tm-s0-cmp-b8"]
    assert got["insert_roundtrips"] * 4 < want["insert_roundtrips"]


# --------------------------------------------------------------------- #
# no scalar Θ                                                            #
# --------------------------------------------------------------------- #


@pytest.fixture
def no_scalar_qpf(monkeypatch):
    def scalar(*args, **kwargs):
        raise AssertionError("scalar Θ call")
    monkeypatch.setattr(QueryProcessingFunction, "__call__", scalar)


def _recorded_requests(monkeypatch) -> list:
    """Spy on ``QueryProcessingFunction.batch``: (size, labels) per call."""
    seen = []
    original = QueryProcessingFunction.batch

    def batch(self, trapdoor, table, uids):
        labels = original(self, trapdoor, table, uids)
        seen.append((len(uids), labels.copy()))
        return labels
    monkeypatch.setattr(QueryProcessingFunction, "batch", batch)
    return seen


def _warm(index, owner, count: int, seed: int) -> None:
    processor = SingleDimensionProcessor(index)
    for constant in np.random.default_rng(seed).integers(*DOMAIN, count):
        processor.select(owner.comparison_trapdoor("X", "<", int(constant)))


def _band(owner, plain, low, high):
    values = plain.columns["X"]
    return (owner.between_trapdoor("X", low, high),
            np.sort(plain.uids[(values >= low) & (values <= high)]))


def test_select_runs_without_scalar_qpf(no_scalar_qpf):
    owner, plain, __, index, __ = _bed("tm", 0, rows=400)
    _warm(index, owner, 12, seed=1)
    trapdoor = owner.comparison_trapdoor("X", ">=", 40_000)
    want = np.sort(plain.uids[plain.columns["X"] >= 40_000])
    assert np.array_equal(index.select(trapdoor).winners, want)


def _first_hit(seen) -> int | None:
    """Index of the first one-tuple probe that came back in band."""
    probes = [labels[0] for size, labels in seen if size == 1]
    return next((i for i, hit in enumerate(probes) if hit), None)


def test_between_anchor_resample_runs_without_scalar_qpf(
        no_scalar_qpf, monkeypatch):
    owner, plain, __, index, __ = _bed("tm", 0, rows=400)
    _warm(index, owner, 12, seed=1)
    k = index.pop.num_partitions
    values = np.sort(plain.columns["X"])
    seen = _recorded_requests(monkeypatch)
    # Two-value bands until one is missed by every first-pass sample
    # and caught by a fresh one: deterministic under the keyed draws.
    for left in range(0, values.size - 1, 7):
        seen.clear()
        trapdoor, want = _band(owner, plain, int(values[left]),
                               int(values[left + 1]))
        got = BetweenProcessor(index).select(trapdoor, update=False)
        assert np.array_equal(got, want)
        hit = _first_hit(seen)
        if hit is not None and hit >= k:
            break
    else:
        pytest.fail("no band needed an anchor resample pass")


def test_between_fallback_scan_runs_without_scalar_qpf(
        no_scalar_qpf, monkeypatch):
    owner, plain, __, index, __ = _bed("tm", 0, rows=400)
    _warm(index, owner, 12, seed=1)
    seen = _recorded_requests(monkeypatch)
    # A value no row holds: every sample misses, the chain is scanned.
    taken = set(map(int, plain.columns["X"]))
    empty = next(v for v in range(50_000, 60_000) if v not in taken)
    trapdoor, want = _band(owner, plain, empty, empty)
    assert np.array_equal(BetweenProcessor(index).select(trapdoor), want)
    assert _first_hit(seen) is None
    assert any(size > 1 for size, __ in seen)


def _edged_chain(backend: str = "tm"):
    """A chain whose low-value end is cut only by partner-less BETWEEN
    edges.

    Comparisons at 30 000 and 60 000 cut it in three; the bands
    ``[20 000, ∞)`` and ``[10 000, ∞)`` each straddle one boundary, so
    each splits its straddler with a single edge.  A new tuple
    below 20 000 then meets inconclusive probes: out of band, with no
    partner edge to orient it.
    """
    owner, plain, table, index, counter = _bed(backend, 3, rows=600)
    single, band = SingleDimensionProcessor(index), BetweenProcessor(index)
    for constant in (30_000, 60_000):
        single.select(owner.comparison_trapdoor("X", "<", constant))
    for low in (20_000, 10_000):
        band.select(owner.between_trapdoor("X", low, DOMAIN[1]))
    edges = [s.edge for s in index._separators]
    assert edges.count(None) == 2 and len(edges) == 4
    assert all(s.partner is None for s in index._separators)
    return owner, plain, table, index, counter


def _check_answers(owner, plain, index, uids, values, constants) -> None:
    lookup = dict(zip(map(int, uids), map(int, values)))
    index.pop.check_invariants(lookup.__getitem__)
    band = BetweenProcessor(index)
    for value in constants:
        got = band.select(owner.between_trapdoor("X", value, value),
                          update=False)
        assert np.array_equal(got, np.sort(uids[values == value]))
        got = index.select(owner.comparison_trapdoor("X", "<=", value),
                           update=False).winners
        assert np.array_equal(got, np.sort(uids[values <= value]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_ambiguous_insert_runs_without_scalar_qpf(backend, no_scalar_qpf,
                                                  monkeypatch):
    owner, plain, table, index, __ = _edged_chain(backend)
    k = index.pop.num_partitions
    verdicts = []
    narrow = PRKBIndex._narrow

    def spy(self, *args):
        verdicts.append(narrow(self, *args))
        return verdicts[-1]
    monkeypatch.setattr(PRKBIndex, "_narrow", spy)
    uids = _insert(backend, owner, table, index, [5_000])
    # The midpoint's edge and the fallback's edge were both
    # inconclusive, so the range was merged.
    assert verdicts.count(None) >= 2
    assert index.pop.num_partitions < k
    _check_answers(owner, plain, index,
                   np.concatenate([plain.uids, uids]),
                   np.concatenate([plain.columns["X"], [5_000]]),
                   [5_000])


def test_md_grid_runs_without_scalar_qpf(no_scalar_qpf):
    plain = uniform_table("t", 500, ["X", "Y"], domain=DOMAIN, seed=5)
    owner = DataOwner(key=generate_key(5))
    qpf = QueryProcessingFunction(TrustedMachine(owner.key, CostCounter()))
    table = owner.encrypt_table(plain)
    indexes = {a: PRKBIndex(table, qpf, a, seed=9 + i)
               for i, a in enumerate(("X", "Y"))}
    processor = MultiDimensionProcessor(indexes)
    for low, high in ((20_000, 70_000), (10_000, 50_000)):
        query = [DimensionRange(a, owner.comparison_trapdoor(a, ">", low),
                                owner.comparison_trapdoor(a, "<", high))
                 for a in ("X", "Y")]
        x, y = plain.columns["X"], plain.columns["Y"]
        mask = (x > low) & (x < high) & (y > low) & (y < high)
        got = np.sort(processor.select(query))
        assert np.array_equal(got, np.sort(plain.uids[mask]))


# --------------------------------------------------------------------- #
# lock-stepped insert batches                                            #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_with_two_ambiguous_placements(backend):
    owner, plain, table, index, counter = _edged_chain(backend)
    k = index.pop.num_partitions
    # 5 000 and 15 000 both land in the edge-cut low end; the rest are
    # placed decisively on either side of the comparisons.
    new = [5_000, 45_000, 15_000, 90_000, 25_000, 70_000, 12_000, 35_000]
    before = counter.qpf_roundtrips
    uids = _insert(backend, owner, table, index, new)
    assert counter.qpf_roundtrips - before < len(new)
    assert index.pop.num_partitions < k
    _check_answers(owner, plain, index,
                   np.concatenate([plain.uids, uids]),
                   np.concatenate([plain.columns["X"], new]), new)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: _history(name)
                                   for name in HISTORIES}, indent=1) + "\n")
    sys.exit(0)
