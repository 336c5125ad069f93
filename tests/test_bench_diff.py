"""The bench JSON envelope and the regression gate around it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.obs

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # bench_diff does ``from _common import ...`` relative to its dir.
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


bench_diff = _load("bench_diff")
_common = _load("_common")


def _envelope(metrics, bench="probe", seed=0):
    return {"bench": bench, "seed": seed, "git_rev": "abc1234",
            "metrics": metrics}


class TestFlatten:
    def test_nested_dicts_become_dotted_keys(self):
        flat = bench_diff.flatten({"a": 1, "b": {"c": 2.5, "d": {"e": 3}}})
        assert flat == {"a": 1.0, "b.c": 2.5, "b.d.e": 3.0}

    def test_non_numbers_and_bools_dropped(self):
        flat = bench_diff.flatten({"s": "text", "ok": True, "n": 7})
        assert flat == {"n": 7.0}


class TestClassification:
    @pytest.mark.parametrize("key,kind", [
        ("serial.qpf_uses", "qpf"),
        ("total_qpf", "qpf"),
        ("queries_per_sec", "wall"),
        ("recovery.wall_ms", "wall"),
        ("checkpoint_seconds", "wall"),
        ("records", "info"),
        ("cache.hits", "info"),
    ])
    def test_kind(self, key, kind):
        assert bench_diff.classify(key) == kind

    @pytest.mark.parametrize("key,higher", [
        ("queries_per_sec", True),
        ("roundtrips_saved", True),
        ("cache.hit_ratio", True),
        ("serial.qpf_uses", False),
        ("wall_ms", False),
    ])
    def test_direction(self, key, higher):
        assert bench_diff.higher_is_better(key) is higher


class TestDiff:
    def test_orientation_positive_means_worse(self):
        base = _envelope({"qpf_uses": 100, "queries_per_sec": 50})
        cur = _envelope({"qpf_uses": 120, "queries_per_sec": 40})
        by_key = {r["key"]: r
                  for r in bench_diff.diff(base, cur, threshold=0.10)}
        assert by_key["qpf_uses"]["worse_by"] == pytest.approx(0.20)
        assert by_key["qpf_uses"]["regressed"]
        assert by_key["queries_per_sec"]["worse_by"] == pytest.approx(0.20)

    def test_improvement_not_flagged(self):
        base = _envelope({"qpf_uses": 100})
        cur = _envelope({"qpf_uses": 80})
        (record,) = bench_diff.diff(base, cur, threshold=0.10)
        assert record["worse_by"] == pytest.approx(-0.20)
        assert not record["regressed"]

    def test_zero_baseline_growth_is_infinite_regression(self):
        base = _envelope({"qpf_uses": 0})
        cur = _envelope({"qpf_uses": 5})
        (record,) = bench_diff.diff(base, cur, threshold=0.10)
        assert record["worse_by"] == float("inf") and record["regressed"]

    def test_unshared_keys_ignored(self):
        base = _envelope({"only_old": 1, "shared": 2})
        cur = _envelope({"only_new": 1, "shared": 2})
        records = bench_diff.diff(base, cur, threshold=0.10)
        assert [r["key"] for r in records] == ["shared"]


class TestEnvelope:
    def test_write_then_load_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        _common.write_bench_json(path, "probe", 7, {"qpf_uses": 42})
        doc = _common.load_bench_json(path)
        assert doc["bench"] == "probe" and doc["seed"] == 7
        assert doc["metrics"] == {"qpf_uses": 42}
        assert isinstance(doc["git_rev"], str) and doc["git_rev"]

    def test_legacy_flat_file_adapts(self, tmp_path):
        path = tmp_path / "BENCH_legacy.json"
        path.write_text(json.dumps({"seed": 3, "qpf_uses": 9,
                                    "wall_ms": 1.5}))
        doc = _common.load_bench_json(path)
        assert doc == {"bench": "BENCH_legacy", "seed": 3,
                       "git_rev": "unknown",
                       "metrics": {"qpf_uses": 9, "wall_ms": 1.5}}


class TestExitCodes:
    def _run(self, tmp_path, base_metrics, cur_metrics, *extra):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(_envelope(base_metrics)))
        cur.write_text(json.dumps(_envelope(cur_metrics)))
        return subprocess.run(
            [sys.executable, str(BENCHMARKS / "bench_diff.py"),
             str(base), str(cur), *extra],
            capture_output=True, text=True)

    def test_clean_run_exits_zero(self, tmp_path):
        result = self._run(tmp_path, {"qpf_uses": 100}, {"qpf_uses": 101})
        assert result.returncode == 0, result.stdout
        assert "no fatal regressions" in result.stdout

    def test_qpf_regression_always_fatal(self, tmp_path):
        result = self._run(tmp_path, {"qpf_uses": 100}, {"qpf_uses": 150},
                           "--warn-wall")
        assert result.returncode == 1
        assert "FAIL" in result.stdout and "qpf_uses" in result.stdout

    def test_warn_wall_downgrades_wall_regression(self, tmp_path):
        strict = self._run(tmp_path, {"wall_ms": 10}, {"wall_ms": 20})
        relaxed = self._run(tmp_path, {"wall_ms": 10}, {"wall_ms": 20},
                            "--warn-wall")
        assert strict.returncode == 1
        assert relaxed.returncode == 0
        assert "WARN" in relaxed.stdout

    def test_info_metrics_never_fatal(self, tmp_path):
        result = self._run(tmp_path, {"records": 10}, {"records": 99})
        assert result.returncode == 0

    def test_vanished_qpf_metric_is_fatal(self, tmp_path):
        result = self._run(
            tmp_path,
            {"serial": {"qpf_uses": 100}, "shard_thread": {"qpf_uses": 100}},
            {"serial": {"qpf_uses": 100}}, "--threshold", "0")
        assert result.returncode == 1
        assert "FAIL" in result.stdout
        assert "shard_thread.qpf_uses" in result.stdout

    def test_vanished_wall_or_info_metric_is_only_a_note(self, tmp_path):
        result = self._run(
            tmp_path,
            {"qpf_uses": 100, "shm": {"queries_per_sec": 40, "records": 3}},
            {"qpf_uses": 100})
        assert result.returncode == 0, result.stdout
        assert "note: wall metric shm.queries_per_sec" in result.stdout
        assert "note: info metric shm.records" in result.stdout

    def test_no_shared_metrics_is_an_error(self, tmp_path):
        result = self._run(tmp_path, {"a": 1}, {"b": 2})
        assert result.returncode == 1


class TestFloors:
    def test_floor_holding_passes(self):
        base = _envelope({"adaptive": {"queries_per_sec": 100.0}})
        cur = _envelope({"adaptive": {"queries_per_sec": 85.0}})
        assert bench_diff.check_floors(
            base, cur, ["adaptive.queries_per_sec=0.8"]) == []

    def test_floor_breach_reported(self):
        base = _envelope({"adaptive": {"queries_per_sec": 100.0}})
        cur = _envelope({"adaptive": {"queries_per_sec": 60.0}})
        (message,) = bench_diff.check_floors(
            base, cur, ["adaptive.queries_per_sec=0.8"])
        assert "fell below its floor" in message

    def test_missing_key_is_a_failure_not_a_pass(self):
        base = _envelope({"adaptive": {"queries_per_sec": 100.0}})
        cur = _envelope({"other": 1})
        (message,) = bench_diff.check_floors(
            base, cur, ["adaptive.queries_per_sec=0.8"])
        assert "missing" in message

    def test_bad_spec_raises(self):
        base = _envelope({"x": 1})
        with pytest.raises(SystemExit):
            bench_diff.check_floors(base, base, ["x=not-a-number"])

    def test_floor_breach_fatal_even_under_warn_wall(self, tmp_path):
        runner = TestExitCodes()
        result = runner._run(
            tmp_path,
            {"adaptive": {"queries_per_sec": 100.0}},
            {"adaptive": {"queries_per_sec": 60.0}},
            "--warn-wall", "--floor", "adaptive.queries_per_sec=0.8")
        assert result.returncode == 1
        assert "fell below its floor" in result.stdout

    def test_floor_holding_under_warn_wall_passes(self, tmp_path):
        runner = TestExitCodes()
        result = runner._run(
            tmp_path,
            {"adaptive": {"queries_per_sec": 100.0}},
            {"adaptive": {"queries_per_sec": 92.0}},
            "--warn-wall", "--floor", "adaptive.queries_per_sec=0.8")
        assert result.returncode == 0, result.stdout
