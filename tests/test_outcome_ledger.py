"""Plan-outcome ledger: framing, rotation, torn tails, engine wiring.

The ledger mirrors the WAL's durability contract at line granularity —
CRC-framed records, fsync-policy knobs, torn-tail-tolerant reads — so
these tests mirror the WAL suite's shape: round-trip, corruption,
rotation/GC, then the engine integration (atoms recorded per query,
ledger survives close, OutcomeStore.load replays a directory).
"""

import json
import zlib

import numpy as np
import pytest

from repro.edbms.engine import EncryptedDatabase
from repro.obs import (
    OutcomeStore,
    PlanOutcomeLedger,
    SLOTarget,
    build_atom,
    read_ledger,
    statement_hash,
    step_key,
    symmetric_error,
)

pytestmark = pytest.mark.obs


def _atom(i=0, tenant="local", estimated=100, actual=120):
    class Step:
        kind = "prkb-sd"
        attributes = ("X",)
        estimated_qpf = estimated
        cached = False
        alternatives = (("baseline-scan", 400, 0.0),)

    return build_atom("t", "auto", [Step()], statement_hash(f"q{i}"),
                      tenant, estimated, actual, 1.5, 10, ts=1000.0 + i)


class TestFraming:
    def test_round_trip(self, tmp_path):
        ledger = PlanOutcomeLedger(tmp_path / "ledger")
        atoms = [_atom(i) for i in range(10)]
        for atom in atoms:
            ledger.append(atom)
        ledger.close()
        result = read_ledger(tmp_path / "ledger")
        assert result.atoms == atoms
        assert result.torn_records == 0 and result.segments == 1

    def test_every_line_is_crc_framed(self, tmp_path):
        ledger = PlanOutcomeLedger(tmp_path / "ledger")
        ledger.append(_atom())
        ledger.close()
        [segment] = ledger.segments()
        raw = (tmp_path / "ledger" / segment).read_bytes()
        for line in raw.splitlines():
            crc, payload = line[:8], line[9:]
            assert int(crc, 16) == zlib.crc32(payload) & 0xFFFFFFFF
            json.loads(payload)

    def test_torn_tail_truncates_not_raises(self, tmp_path):
        ledger = PlanOutcomeLedger(tmp_path / "ledger")
        for i in range(5):
            ledger.append(_atom(i))
        ledger.close()
        [segment] = ledger.segments()
        path = tmp_path / "ledger" / segment
        path.write_bytes(path.read_bytes()[:-7])  # tear the last record
        result = read_ledger(tmp_path / "ledger")
        assert len(result.atoms) == 4 and result.torn_records == 1

    def test_mid_segment_corruption_stops_that_segment(self, tmp_path):
        ledger = PlanOutcomeLedger(tmp_path / "ledger")
        for i in range(6):
            ledger.append(_atom(i))
        ledger.close()
        [segment] = ledger.segments()
        path = tmp_path / "ledger" / segment
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"00000000 {}\n"  # CRC cannot match the payload
        path.write_bytes(b"".join(lines))
        result = read_ledger(tmp_path / "ledger")
        assert len(result.atoms) == 2  # everything before the bad line

    def test_missing_directory_reads_empty(self, tmp_path):
        result = read_ledger(tmp_path / "never-created")
        assert result.atoms == [] and result.segments == 0


class TestRotation:
    def test_rotates_by_size_and_garbage_collects(self, tmp_path):
        ledger = PlanOutcomeLedger(tmp_path / "ledger",
                                   rotate_bytes=600, max_segments=3)
        for i in range(40):
            ledger.append(_atom(i))
        ledger.close()
        segments = ledger.segments()
        assert 1 < len(segments) <= 3
        # GC dropped the oldest segments: the newest records survive.
        atoms = read_ledger(tmp_path / "ledger").atoms
        assert atoms and atoms[-1] == _atom(39)
        assert ledger.stats()["records_written"] == 40

    def test_reopen_appends_to_existing_segment(self, tmp_path):
        first = PlanOutcomeLedger(tmp_path / "ledger")
        first.append(_atom(0))
        first.close()
        second = PlanOutcomeLedger(tmp_path / "ledger")
        second.append(_atom(1))
        second.close()
        atoms = read_ledger(tmp_path / "ledger").atoms
        assert [a["sql_hash"] for a in atoms] == \
            [statement_hash("q0"), statement_hash("q1")]

    def test_closed_ledger_refuses_appends(self, tmp_path):
        ledger = PlanOutcomeLedger(tmp_path / "ledger")
        ledger.close()
        ledger.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            ledger.append(_atom())


class TestFsyncPolicy:
    def test_policy_grammar_matches_wal(self, tmp_path):
        always = PlanOutcomeLedger(tmp_path / "a", fsync="always")
        always.append(_atom())
        always.append(_atom(1))
        assert always.fsyncs == 2
        always.close()
        lazy = PlanOutcomeLedger(tmp_path / "b", fsync="off")
        lazy.append(_atom())
        assert lazy.fsyncs == 0
        lazy.close()
        batched = PlanOutcomeLedger(tmp_path / "c", fsync="every:3")
        for i in range(7):
            batched.append(_atom(i))
        assert batched.fsyncs == 2
        batched.close()
        assert batched.stats()["fsync"] == "every:3"


class TestEngineWiring:
    def test_one_atom_per_query_with_injected_clock(self, tmp_path):
        db = EncryptedDatabase(seed=0)
        rng = np.random.default_rng(0)
        db.create_table("t", {"X": (1, 1_000)},
                        {"X": rng.integers(1, 1_001, 200)})
        db.enable_prkb("t", ["X"])
        ticks = iter(range(100))
        db.enable_outcomes(tmp_path / "ledger", fsync="always",
                           clock=lambda: float(next(ticks)))
        for c in (100, 500, 900):
            db.query(f"SELECT * FROM t WHERE X < {c}")
        atoms = db.ledger.read()
        assert [a["ts"] for a in atoms] == [0.0, 1.0, 2.0]
        atom = atoms[0]
        assert atom["table"] == "t" and atom["tenant"] == "local"
        assert atom["sql_hash"] == statement_hash(
            "SELECT * FROM t WHERE X < 100")
        assert atom["exact"] is True
        [step] = atom["steps"]
        assert step["key"] == step_key("t", "prkb-sd", ("X",))
        assert step["actual"] == atom["actual_qpf"] > 0
        assert ("baseline-scan", 200, 0.0) in \
            [tuple(alt) for alt in step["alternatives"]]
        db.close()
        assert db.ledger.closed  # close() flushed and closed the ledger

    def test_recording_spends_no_qpf(self, tmp_path):
        def run(with_ledger):
            db = EncryptedDatabase(seed=0)
            rng = np.random.default_rng(1)
            db.create_table("t", {"X": (1, 1_000)},
                            {"X": rng.integers(1, 1_001, 300)})
            db.enable_prkb("t", ["X"])
            if with_ledger:
                db.enable_outcomes(tmp_path / "ledger")
            qpf = [db.query(f"SELECT * FROM t WHERE X < {c}").qpf_uses
                   for c in (100, 300, 500, 700, 900, 250, 650)]
            db.close()
            return qpf

        assert run(False) == run(True)

    def test_store_load_replays_a_ledger_directory(self, tmp_path):
        db = EncryptedDatabase(seed=0)
        rng = np.random.default_rng(2)
        db.create_table("t", {"X": (1, 1_000)},
                        {"X": rng.integers(1, 1_001, 200)})
        db.enable_prkb("t", ["X"])
        live = db.enable_outcomes(tmp_path / "ledger")
        for c in (100, 200, 300, 400, 500, 600):
            db.query(f"SELECT * FROM t WHERE X < {c}")
        db.close()
        replayed = OutcomeStore.load(tmp_path / "ledger")
        assert replayed.atoms == live.atoms == 6
        assert replayed.corrections() == live.corrections()
        assert replayed.report()["error_p90"] == \
            live.report()["error_p90"]

    def test_store_load_accepts_atoms_with_pair_alternatives(self,
                                                             tmp_path):
        """Ledgers written before alternatives became triples hold
        two-element entries; they must still replay."""
        ledger = PlanOutcomeLedger(tmp_path / "ledger")
        for i in range(6):
            atom = _atom(i)
            atom["steps"][0]["alternatives"] = [["baseline-scan", 400]]
            ledger.append(atom)
        ledger.close()
        replayed = OutcomeStore.load(tmp_path / "ledger", min_samples=5)
        assert replayed.atoms == 6
        assert list(replayed.corrections()) == [step_key("t", "prkb-sd",
                                                         ("X",))]

    @staticmethod
    def _metered_db():
        db = EncryptedDatabase(seed=0)
        rng = np.random.default_rng(3)
        db.create_table("t", {"X": (1, 1_000)},
                        {"X": rng.integers(1, 1_001, 200)})
        db.enable_prkb("t", ["X"])
        return db

    @staticmethod
    def _three_queries(db):
        for c in (100, 500, 900):
            db.query(f"SELECT * FROM t WHERE X < {c}")

    @pytest.mark.parametrize("outcomes_first", [True, False])
    def test_ledger_is_metered_in_either_enable_order(self, tmp_path,
                                                      outcomes_first):
        from repro.obs import render_prometheus

        db = self._metered_db()
        if outcomes_first:
            db.enable_outcomes(tmp_path / "ledger", fsync="always")
            __, registry = db.enable_observability()
        else:
            __, registry = db.enable_observability()
            db.enable_outcomes(tmp_path / "ledger", fsync="always")
        self._three_queries(db)
        text = render_prometheus(registry)
        assert "repro_outcome_ledger_records_total 3" in text
        assert "repro_outcome_ledger_fsyncs_total 3" in text
        assert "repro_outcome_ledger_segments 1" in text
        assert registry.get("repro_outcome_ledger_bytes_total").value() \
            == db.ledger.bytes_written
        assert registry.get("repro_outcome_atoms_total") \
                       .value(tenant="local") == 3
        db.close()


class TestAtomHelpers:
    def test_symmetric_error_is_direction_free(self):
        assert symmetric_error(100, 100) == 1.0
        over = symmetric_error(100, 200)
        under = symmetric_error(200, 100)
        assert over == pytest.approx(under) and over > 1.0

    def test_multi_step_atom_without_audit_is_inexact(self):
        class Step:
            kind = "prkb-sd"
            attributes = ("X",)
            estimated_qpf = 10
            cached = False
            alternatives = ()

        atom = build_atom("t", "auto", [Step(), Step()], "aa", "local",
                          20, 25, 1.0, 5, ts=0.0)
        assert atom["exact"] is False
        assert all(s["actual"] is None for s in atom["steps"])

    def test_slo_target_validation(self):
        with pytest.raises(ValueError):
            SLOTarget(latency_ms=0)
        with pytest.raises(ValueError):
            SLOTarget(target_fraction=1.0)
        with pytest.raises(ValueError):
            SLOTarget(qpf_per_query=0)
        slo = SLOTarget(latency_ms=5.0, qpf_per_query=100)
        assert slo.violated(6.0, 10) and slo.violated(1.0, 200)
        assert not slo.violated(1.0, 50)
