"""Extension — inference damage vs. observed query volume.

Quantifies the paper's Sec. 3.3/8.1 security argument end to end: an
attacker with auxiliary distribution knowledge converts leaked ordering
into value estimates.  OPE hands over the total order immediately
(rank-matching gets close to exact); the QPF model leaks a partial order
that starts useless and degrades towards OPE only with query volume —
the quantitative version of "practically secure for large domains".
"""

from __future__ import annotations

import numpy as np

from repro.attacks import ope_rank_matching_attack, pop_interval_attack
from repro.bench import Testbed, bench_seed
from repro.crypto import OrderPreservingEncryption, generate_key
from repro.workloads import uniform_table

from _common import emit, scaled

DOMAIN = (0, 1_000_000)
QUERY_MILESTONES = [0, 10, 50, 200]


def _chain_positions(pop, uids) -> np.ndarray:
    """Each uid's chain position: the dense rank of its order key."""
    return np.unique(pop.keys_of_uids(uids), return_inverse=True)[1]


def test_extension_inference(benchmark):
    n = scaled(4_000)
    table = uniform_table("t", n, ["X"], domain=DOMAIN, seed=bench_seed() + 320)
    truth = table.columns["X"]
    rng = np.random.default_rng(bench_seed() + 321)
    auxiliary = rng.integers(DOMAIN[0], DOMAIN[1] + 1, size=n)
    spread = DOMAIN[1] - DOMAIN[0]
    rows = []
    errors = {}
    for warm in QUERY_MILESTONES:
        bed = Testbed(table, ["X"], seed=bench_seed() + 320)
        if warm:
            bed.warm_up("X", warm, seed=bench_seed() + 322)
        index = bed.prkb["X"]
        outcome = pop_interval_attack(
            index.pop.sizes(),
            _chain_positions(index.pop, bed.plain.uids),
            auxiliary, truth)
        errors[warm] = outcome.mean_absolute_error
        rows.append([
            f"QPF model after {warm} queries",
            str(index.pop.num_partitions),
            f"{100 * outcome.mean_absolute_error / spread:.2f}%",
        ])
    ope = OrderPreservingEncryption(generate_key(323), *DOMAIN)
    ope_outcome = ope_rank_matching_attack(ope.encrypt_many(truth),
                                           auxiliary, truth)
    rows.append([
        "OPE (0 queries)", "total order",
        f"{100 * ope_outcome.mean_absolute_error / spread:.2f}%",
    ])
    emit(
        "extension_inference",
        f"Extension: inference attack error vs leaked ordering (n={n}, "
        f"normalised MAE, lower = worse leakage)",
        ["Leakage state", "Chain length", "Attack MAE (% of domain)"],
        rows,
    )
    # Damage grows monotonically with observed queries...
    milestones = QUERY_MILESTONES
    assert all(errors[a] >= errors[b]
               for a, b in zip(milestones, milestones[1:]))
    # ...starts near-useless (one global estimate)...
    assert errors[0] > spread * 0.15
    # ...and OPE is strictly worse than even a well-fed QPF attacker.
    assert ope_outcome.mean_absolute_error < errors[milestones[-1]]

    def attack_once():
        bed = Testbed(table, ["X"], seed=bench_seed() + 324)
        index = bed.prkb["X"]
        return pop_interval_attack(
            index.pop.sizes(),
            _chain_positions(index.pop, bed.plain.uids),
            auxiliary, truth)

    benchmark.pedantic(attack_once, rounds=3, iterations=1)
