"""PRKB health introspection, on both SD select and MD grid traffic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import Testbed
from repro.core.prkb import HEALTH_HISTORY
from repro.edbms.engine import EncryptedDatabase
from repro.workloads import uniform_table

pytestmark = pytest.mark.obs

DOMAIN = (1, 10_000)
ROWS = 500


@pytest.fixture()
def db():
    database = EncryptedDatabase(seed=0)
    rng = np.random.default_rng(2)
    database.create_table(
        "t", {"A": DOMAIN, "B": DOMAIN},
        {"A": rng.integers(1, 10_001, ROWS),
         "B": rng.integers(1, 10_001, ROWS)})
    database.enable_prkb("t", ["A", "B"])
    return database


def _index(db, attribute):
    return db.server.all_indexes()["t"][attribute]


class TestSingleDimensionHealth:
    def test_report_after_sd_workload(self, db):
        for constant in (1500, 3000, 4500, 6000, 7500, 9000):
            db.query(f"SELECT * FROM t WHERE A < {constant}")
        db.query("SELECT * FROM t WHERE A < 6000")  # equivalence repeat

        health = _index(db, "A").health()
        assert health["attribute"] == "A"
        assert health["tuples"] == ROWS
        assert health["chain_length"] >= 2
        assert health["queries_observed"] == 7
        assert 0.0 <= health["refinement_rate"] <= 1.0
        assert health["splits_committed"] >= 1

        sizes = health["partition_sizes"]
        assert sizes["min"] <= sizes["p50"] <= sizes["p90"] <= sizes["max"]

        qpf = health["qpf_per_query"]
        assert qpf["p50"] <= qpf["p90"] <= qpf["max"]
        assert qpf["max"] >= ROWS  # the cold first query scanned everything

        equiv = health["equivalence_cache"]
        assert equiv["hits"] >= 1 and equiv["entries"] >= 1
        assert 0.0 < equiv["hit_ratio"] <= 1.0

        assert 0.0 <= health["predicate_cache"]["hit_ratio"] <= 1.0

    def test_window_limits_history(self, db):
        for constant in (1500, 3000, 4500, 6000):
            db.query(f"SELECT * FROM t WHERE A < {constant}")
        assert _index(db, "A").health(window=2)["queries_observed"] == 2

    def test_untouched_index_reports_zeroes(self, db):
        health = _index(db, "B").health()
        assert health["queries_observed"] == 0
        assert health["refinement_rate"] == 0.0
        assert health["qpf_per_query"] == {"p50": 0, "p90": 0, "max": 0}


class TestMultiDimensionHealth:
    def test_grid_traffic_refines_both_chains(self, db):
        # MD grid queries refine per-attribute chains without flowing
        # through ``select`` — growth shows in the chain shape, not the
        # query history.
        for lo in (1000, 2500, 4000):
            db.query(f"SELECT * FROM t WHERE A > {lo} AND A < {lo + 4000} "
                     f"AND B > {lo} AND B < {lo + 3000}", strategy="md")
        for attribute in ("A", "B"):
            health = _index(db, attribute).health()
            assert health["chain_length"] >= 2, attribute
            assert health["splits_committed"] >= 1, attribute
            assert health["partition_sizes"]["max"] < ROWS, attribute

    def test_endpoint_serves_both_indexes(self, db):
        db.query("SELECT * FROM t WHERE A > 100 AND A < 9000 "
                 "AND B > 100 AND B < 9000", strategy="md")
        import json
        endpoint = db.observability_endpoint()
        doc = json.loads(endpoint.handle("/health")[2])
        assert set(doc["indexes"]) == {"t.A", "t.B"}


_NOTES = st.lists(
    st.tuples(st.integers(0, 10**6), st.booleans()),
    max_size=2 * HEALTH_HISTORY + 40)


def _numpy_stats(notes):
    """``(queries_observed, p90)`` recomputed from scratch over the
    window the bounded deque holds after ``notes``."""
    window = notes[-HEALTH_HISTORY:]
    widths = [width for width, equivalent in window if not equivalent]
    p90 = (int(np.percentile(np.asarray(widths, dtype=np.int64), 90))
           if widths else 0)
    return len(window), p90


class TestScanStatsP90Identity:
    """``observed_scan_stats`` reads a width list kept sorted across
    appends and deque evictions; its p90 must stay bit-identical to the
    ``np.percentile`` figure ``health()`` reports, for any history the
    bounded deque can hold."""

    @given(notes=_NOTES, all_equivalent_tail=st.booleans(),
           wraps=st.integers(0, 3), tail_seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_p90_equals_numpy_percentile(self, notes, all_equivalent_tail,
                                         wraps, tail_seed):
        # Drive the deque past HEALTH_HISTORY evictions: a tail of small,
        # duplicate-heavy widths with cache hits interleaved, so evicted
        # entries are a mix of both kinds and share values with live ones.
        rng = np.random.default_rng(tail_seed)
        notes = notes + [
            (int(width), bool(equivalent)) for width, equivalent in zip(
                rng.integers(0, 12, wraps * (HEALTH_HISTORY + 37)),
                rng.random(wraps * (HEALTH_HISTORY + 37)) < 0.3)]
        if all_equivalent_tail:
            # A full window of cache hits: no scan widths left at all.
            notes = notes + [(0, True)] * HEALTH_HISTORY
        index = Testbed(uniform_table("t", 8, ["X"], seed=1), ["X"],
                        seed=1).prkb["X"]
        for step, (width, equivalent) in enumerate(notes):
            index._note_query(width + 2, width, False, equivalent)
            if step % 37 == 0:
                assert index.observed_scan_stats() \
                    == _numpy_stats(notes[:step + 1])
        want = _numpy_stats(notes)
        assert index.observed_scan_stats() == want
        assert index.health()["ns_scan_width"]["p90"] == want[1]
