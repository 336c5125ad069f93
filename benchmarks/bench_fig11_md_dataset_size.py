"""Fig. 11 — multi-dimensional query cost vs dataset size.

Paper setting: d=3, 2% selectivity per dimension, 1M-10M tuples, static
PRKB-250.  PRKB(MD) stays well under PRKB(SD+) at every size, and both
improve on Logarithmic-SRC-i in time; costs grow linearly with n.

Our setting: 2k-8k tuples (scaled), same d and per-dimension selectivity.
"""

from __future__ import annotations

from repro.bench import Testbed, bench_seed, format_count, format_ms
from repro.workloads import multi_range_bounds, uniform_table

from _common import emit, scaled

DOMAIN = (1, 30_000_000)
ATTRS = ["A", "B", "C"]
SELECTIVITY = 0.02
PARTITIONS = 250
WARM = 120


def _measure_at_size(n: int, seed: int):
    table = uniform_table("t", n, ATTRS, domain=DOMAIN, seed=seed)
    bed = Testbed(table, ATTRS, max_partitions=PARTITIONS,
                  with_log_src_i=True, seed=seed)
    # Seeded by position: ``hash(str)`` is salted per process.
    for position, attr in enumerate(ATTRS):
        bed.warm_up(attr, WARM, seed=seed + 10 + position)
    queries = multi_range_bounds(ATTRS, DOMAIN, SELECTIVITY, count=4,
                                 seed=seed + 3)
    md = [bed.run_md(q, strategy="md", update=False) for q in queries]
    sdp = [bed.run_md(q, strategy="sd+", update=False) for q in queries]
    src = [bed.run_log_src_i_md(q) for q in queries]
    mean_qpf = lambda ms: sum(m.qpf_uses for m in ms) / len(ms)
    mean_t = lambda ms: sum(m.simulated_ms for m in ms) / len(ms)
    return {
        "md_qpf": mean_qpf(md), "md_ms": mean_t(md),
        "sdp_qpf": mean_qpf(sdp), "sdp_ms": mean_t(sdp),
        "src_ms": mean_t(src),
    }


def test_fig11_md_dataset_size(benchmark):
    sizes = [scaled(2_000), scaled(4_000), scaled(8_000)]
    stats = {}
    rows = []
    for i, n in enumerate(sizes):
        stats[n] = _measure_at_size(n, seed=bench_seed() + 110 + i)
        s = stats[n]
        rows.append([
            format_count(n),
            format_count(s["md_qpf"]), format_ms(s["md_ms"]),
            format_count(s["sdp_qpf"]), format_ms(s["sdp_ms"]),
            format_ms(s["src_ms"]),
        ])
    emit(
        "fig11_md_dataset_size",
        f"Fig. 11: MD query vs dataset size (d=3, "
        f"{SELECTIVITY:.0%} sel./dim, PRKB-{PARTITIONS})",
        ["n", "PRKB(MD) #QPF", "PRKB(MD) time", "PRKB(SD+) #QPF",
         "PRKB(SD+) time", "Log-SRC-i time"],
        rows,
    )
    for n, s in stats.items():
        assert s["md_qpf"] < s["sdp_qpf"], n  # MD beats SD+ everywhere
    # Consistent improvement as size grows (paper: parallel lines).
    small, large = stats[sizes[0]], stats[sizes[-1]]
    assert large["md_qpf"] / large["sdp_qpf"] < 1.0
    assert small["md_qpf"] / small["sdp_qpf"] < 1.0

    table = uniform_table("t", sizes[0], ATTRS, domain=DOMAIN, seed=bench_seed() + 120)
    bed = Testbed(table, ATTRS, max_partitions=PARTITIONS, seed=bench_seed() + 120)
    for attr in ATTRS:
        bed.warm_up(attr, WARM, seed=bench_seed() + 121)
    bounds = multi_range_bounds(ATTRS, DOMAIN, SELECTIVITY, count=1,
                                seed=bench_seed() + 122)[0]

    def warm_md_query():
        return bed.run_md(bounds, strategy="md", update=False)

    benchmark.pedantic(warm_md_query, rounds=5, iterations=1)
