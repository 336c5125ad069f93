"""Tests for the auxiliary-knowledge inference attacks."""

import numpy as np
import pytest

from repro.attacks import (
    InferenceOutcome,
    ope_rank_matching_attack,
    pop_interval_attack,
)
from repro.bench import Testbed
from repro.crypto import OrderPreservingEncryption, generate_key
from repro.workloads import uniform_table


def make_victim(n=2000, domain=(0, 10_000), seed=0):
    rng = np.random.default_rng(seed)
    truth = rng.integers(domain[0], domain[1] + 1, size=n)
    # Auxiliary knowledge: an independent sample of the same distribution.
    auxiliary = rng.integers(domain[0], domain[1] + 1, size=n)
    return truth, auxiliary, domain


class TestScore:
    def test_score_fields(self):
        outcome = InferenceOutcome.score(np.asarray([1.0, 2.0, 4.0]),
                                         np.asarray([1.0, 2.0, 3.0]))
        assert outcome.exact_hits == pytest.approx(2 / 3)
        assert outcome.mean_absolute_error == pytest.approx(1 / 3)

    def test_score_shape_mismatch(self):
        with pytest.raises(ValueError):
            InferenceOutcome.score(np.zeros(2), np.zeros(3))


class TestOpeAttack:
    def test_recovers_dense_column_accurately(self):
        truth, auxiliary, domain = make_victim()
        ope = OrderPreservingEncryption(generate_key(1), *domain)
        ciphertexts = ope.encrypt_many(truth)
        outcome = ope_rank_matching_attack(ciphertexts, auxiliary, truth)
        # Quantile matching on same-distribution aux data lands close.
        spread = domain[1] - domain[0]
        assert outcome.mean_absolute_error < spread * 0.03

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ope_rank_matching_attack(np.asarray([]), np.asarray([1]),
                                     np.asarray([]))

    def test_perfect_aux_perfect_recovery(self):
        """With the victim's own multiset as auxiliary data, rank matching
        recovers every value exactly."""
        truth = np.asarray([5, 1, 9, 3, 7])
        ope = OrderPreservingEncryption(generate_key(2), 0, 10)
        ciphertexts = ope.encrypt_many(truth)
        outcome = ope_rank_matching_attack(ciphertexts, truth, truth)
        assert outcome.exact_hits == 1.0


class TestPopAttack:
    def _chain_from_prkb(self, n=1500, warm=0, seed=0):
        domain = (0, 10_000)
        table = uniform_table("t", n, ["X"], domain=domain, seed=seed)
        bed = Testbed(table, ["X"], seed=seed)
        if warm:
            bed.warm_up("X", warm, seed=seed)
        index = bed.prkb["X"]
        sizes = index.pop.sizes()
        # Dense ranks of the order keys are the chain positions.
        tuple_partition = np.unique(index.pop.keys_of_uids(bed.plain.uids),
                                    return_inverse=True)[1]
        truth = bed.plain.columns["X"]
        rng = np.random.default_rng(seed + 1)
        auxiliary = rng.integers(domain[0], domain[1] + 1, size=n)
        return sizes, tuple_partition, auxiliary, truth, domain

    def test_cold_chain_learns_nothing_useful(self):
        sizes, parts, aux, truth, domain = self._chain_from_prkb()
        outcome = pop_interval_attack(sizes, parts, aux, truth)
        spread = domain[1] - domain[0]
        # One partition -> one global estimate -> ~uniform MAE (~ spread/4).
        assert outcome.mean_absolute_error > spread * 0.15

    def test_error_shrinks_with_knowledge(self):
        cold = pop_interval_attack(*self._chain_from_prkb(warm=0)[:4])
        warm = pop_interval_attack(*self._chain_from_prkb(warm=60)[:4])
        assert warm.mean_absolute_error < cold.mean_absolute_error

    def test_pop_worse_than_ope_at_realistic_knowledge(self):
        """The paper's security story: a coarse partial order leaks much
        less than OPE's total order (the gap narrows as k grows, which
        is exactly the paper's Sec. 8.1 concern about query volume)."""
        sizes, parts, aux, truth, domain = self._chain_from_prkb(warm=10)
        pop_outcome = pop_interval_attack(sizes, parts, aux, truth)
        ope = OrderPreservingEncryption(generate_key(3), *domain)
        ciphertexts = ope.encrypt_many(truth)
        ope_outcome = ope_rank_matching_attack(ciphertexts, aux, truth)
        assert pop_outcome.mean_absolute_error > \
            3 * ope_outcome.mean_absolute_error

    def test_direction_ambiguity_resolved_optimistically(self):
        """The attacker tries both directions; feeding a descending chain
        must score the same as its ascending mirror."""
        sizes = [2, 2, 2]
        parts = np.asarray([0, 0, 1, 1, 2, 2])
        truth = np.asarray([1, 2, 5, 6, 9, 10], dtype=np.float64)
        aux = np.arange(1, 11, dtype=np.float64)
        ascending = pop_interval_attack(sizes, parts, aux, truth)
        mirrored = pop_interval_attack(sizes[::-1], 2 - parts, aux, truth)
        assert ascending.mean_absolute_error == pytest.approx(
            mirrored.mean_absolute_error)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pop_interval_attack([2, 2], np.asarray([0, 1]),
                                np.asarray([1.0]), np.asarray([1.0]))
