"""Tests for the server-side audit log."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.crypto import generate_key
from repro.edbms import CostCounter, QueryProcessingFunction, \
    TrustedMachine
from repro.edbms.audit import AuditLog, attach_audit_log
from repro.edbms.owner import DataOwner
from repro.edbms.server import ServiceProvider
from repro.workloads import uniform_table


@pytest.fixture
def setup():
    owner = DataOwner(key=generate_key(70))
    counter = CostCounter()
    qpf = QueryProcessingFunction(TrustedMachine(owner.key, counter))
    sp = ServiceProvider(qpf)
    table = uniform_table("t", 120, ["X", "Y"], domain=(1, 1000), seed=70)
    sp.register_table(owner.encrypt_table(table))
    sp.build_index("t", "X")
    sp.build_index("t", "Y")
    log = attach_audit_log(sp)
    return owner, sp, log


class TestAuditLog:
    def test_select_recorded(self, setup):
        owner, sp, log = setup
        result = sp.select("t", owner.comparison_trapdoor("X", "<", 500))
        assert len(log) == 1
        entry = log.entries[0]
        assert entry.operation == "select"
        assert entry.attributes == ("X",)
        assert entry.result_size == result.size
        assert entry.qpf_uses > 0
        assert entry.mpc_messages == 0

    def test_range_recorded_with_all_attributes(self, setup):
        owner, sp, log = setup
        query = owner.range_query({"X": (100, 600), "Y": (200, 800)})
        sp.select_range("t", query, strategy="md")
        entry = log.entries[-1]
        assert entry.operation == "select_range"
        assert set(entry.attributes) == {"X", "Y"}

    def test_baseline_recorded(self, setup):
        owner, sp, log = setup
        sp.select_baseline("t", owner.comparison_trapdoor("Y", "<", 10))
        assert log.entries[-1].operation == "baseline"
        assert log.entries[-1].qpf_uses == 120

    def test_results_unchanged_by_wrapping(self, setup):
        owner, sp, log = setup
        trapdoor = owner.comparison_trapdoor("X", "<", 500)
        audited = np.sort(sp.select("t", trapdoor))
        baseline = np.sort(sp.select_baseline(
            "t", owner.comparison_trapdoor("X", "<", 500)))
        assert np.array_equal(audited, baseline)

    def test_analysis_helpers(self, setup):
        owner, sp, log = setup
        sp.select("t", owner.comparison_trapdoor("X", "<", 500))
        sp.select("t", owner.comparison_trapdoor("Y", "<", 500))
        sp.select("t", owner.comparison_trapdoor("X", "<", 200))
        assert log.total_qpf() == sum(e.qpf_uses for e in log.entries)
        spend = log.by_attribute()
        assert set(spend) == {"X", "Y"}
        assert spend["X"] > 0

    def test_no_plaintext_in_entries(self, setup):
        """The log must contain only server-visible facts."""
        owner, sp, log = setup
        sp.select("t", owner.comparison_trapdoor("X", "<", 424242))
        serialised = log.entries[-1].to_json()
        assert "424242" not in serialised
        assert "<" not in json.loads(serialised).get("operation")

    def test_save(self, setup, tmp_path):
        owner, sp, log = setup
        sp.select("t", owner.comparison_trapdoor("X", "<", 500))
        log.save(tmp_path / "audit.jsonl")
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["operation"] == "select"

    def test_engine_enable_audit(self):
        from repro import EncryptedDatabase
        db = EncryptedDatabase(seed=71)
        rng = np.random.default_rng(71)
        db.create_table("t", {"X": (1, 100)}, {
            "X": rng.integers(1, 101, size=50, dtype=np.int64)})
        db.enable_prkb("t", ["X"])
        log = db.enable_audit()
        db.query("SELECT * FROM t WHERE X < 50")
        assert len(log) >= 1
        assert log.entries[0].table == "t"

    def test_entry_bills_only_its_own_thread(self, setup):
        """A sibling thread charging the shared counter while an audited
        select runs (a busy ``QueryServer``) stays out of the entry."""
        owner, sp, log = setup
        counter = sp.counter
        stop = threading.Event()
        hammered = 0

        def hammer():
            nonlocal hammered
            while not stop.is_set():
                counter.charge(qpf_uses=1)
                hammered += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        sibling = threading.Thread(target=hammer)
        before = counter.qpf_uses
        sibling.start()
        try:
            for constant in range(50, 1000, 50):
                sp.select("t",
                          owner.comparison_trapdoor("X", "<", constant))
        finally:
            stop.set()
            sibling.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not sibling.is_alive() and hammered > 0
        assert log.total_qpf() == counter.qpf_uses - before - hammered

    def test_sequence_monotone(self, setup):
        owner, sp, log = setup
        for constant in (100, 200, 300):
            sp.select("t", owner.comparison_trapdoor("X", "<", constant))
        sequences = [e.sequence for e in log.entries]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == 3
