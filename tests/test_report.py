"""The perf-trajectory report, its ``--check`` regression gate and the ledger writer.

The gate is CI-facing: a synthetic ledger whose latest run dropped more than 10%
off its best must make ``report.py --check`` exit non-zero, a mild drop must not,
and runs tagged with different measurement ``mode``\\s must never be compared
against each other (the ``bench[mode]`` split).
"""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import _shared  # noqa: E402  (benchmarks/_shared.py)
import report  # noqa: E402  (benchmarks/report.py, stdlib-only)


def _ledger(path: Path, bench: str, values, metric="speedup", mode_of=None):
    """Write one BENCH_*.json ledger with a run per value, oldest first."""
    runs = []
    for index, value in enumerate(values):
        metrics = {metric: value}
        if mode_of is not None and mode_of(index) is not None:
            metrics["mode"] = mode_of(index)
        runs.append(
            {
                "bench": bench,
                "timestamp": f"2026-08-0{1 + index}T00:00:00+00:00",
                "git_sha": f"{index:07x}00",
                "metrics": metrics,
            }
        )
    path.write_text(json.dumps({"schema": 1, "runs": runs}))


class TestHeadlineMetric:
    def test_direction_aware_preference_order(self):
        assert report.headline_metric({"speedup": 2.0, "plans_per_s": 9.0}) == ("speedup", True)
        assert report.headline_metric({"warm_speedup": 5.0, "cold_s": 1.0}) == (
            "warm_speedup",
            True,
        )
        assert report.headline_metric({"plans_per_s": 9.0, "total_s": 3.0}) == (
            "plans_per_s",
            True,
        )
        assert report.headline_metric({"total_s": 3.0}) == ("total_s", False)
        assert report.headline_metric({"engine": "fused", "workers": 4}) is None


class TestRegressionGate:
    def test_big_drop_fails_the_check(self, tmp_path, capsys):
        _ledger(tmp_path / "BENCH_x.json", "x", [10.0, 8.0])  # -20% off best
        assert report.main(["--root", str(tmp_path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_mild_drop_passes(self, tmp_path):
        _ledger(tmp_path / "BENCH_x.json", "x", [10.0, 9.5])  # -5%: within threshold
        assert report.main(["--root", str(tmp_path), "--check"]) == 0

    def test_lower_is_better_metrics_gate_on_increases(self, tmp_path):
        _ledger(tmp_path / "BENCH_x.json", "x", [1.0, 1.5], metric="total_s")
        assert report.main(["--root", str(tmp_path), "--check"]) == 1
        _ledger(tmp_path / "BENCH_x.json", "x", [1.5, 1.0], metric="total_s")
        assert report.main(["--root", str(tmp_path), "--check"]) == 0

    def test_without_check_regressions_only_report(self, tmp_path):
        _ledger(tmp_path / "BENCH_x.json", "x", [10.0, 8.0])
        assert report.main(["--root", str(tmp_path)]) == 0

    def test_output_file_written(self, tmp_path):
        _ledger(tmp_path / "BENCH_x.json", "x", [10.0, 11.0])
        out = tmp_path / "report.md"
        assert report.main(["--root", str(tmp_path), "-o", str(out), "--check"]) == 0
        assert "at best" in out.read_text()


class TestModeSplit:
    def test_runs_of_different_modes_never_cross_compare(self, tmp_path):
        # Early whole-batch runs measured a slower quantity (0.8x); the chunked
        # re-measurement reads 1.6x.  Ungrouped, the latest whole-batch number
        # would look like a 50% regression off the chunked best.
        _ledger(
            tmp_path / "BENCH_x.json",
            "x",
            [0.8, 0.82, 1.6, 1.57],
            mode_of=lambda i: "whole-batch" if i < 2 else "chunked",
        )
        rows = report.build_rows(report.load_ledgers(tmp_path))
        assert [row["bench"] for row in rows] == ["x[chunked]", "x[whole-batch]"]
        assert all(not str(row["trend"]).startswith("REGRESSION") for row in rows)
        assert report.main(["--root", str(tmp_path), "--check"]) == 0

    def test_untagged_runs_keep_the_bare_bench_group(self, tmp_path):
        _ledger(tmp_path / "BENCH_x.json", "x", [2.0, 2.1])
        rows = report.build_rows(report.load_ledgers(tmp_path))
        assert [row["bench"] for row in rows] == ["x"]

    def test_regression_within_one_mode_still_gates(self, tmp_path):
        _ledger(
            tmp_path / "BENCH_x.json",
            "x",
            [1.6, 1.0],
            mode_of=lambda i: "chunked",
        )
        assert report.main(["--root", str(tmp_path), "--check"]) == 1


class TestPersistRunMetrics:
    """``persist_run_metrics`` appends atomically and never drops a ledger's history."""

    def test_appends_to_an_existing_ledger(self, tmp_path):
        target = tmp_path / "BENCH_x.json"
        _ledger(target, "x", [1.0, 2.0])
        _shared.persist_run_metrics("x", {"speedup": 3.0}, path=target)
        runs = json.loads(target.read_text())["runs"]
        assert [run["metrics"]["speedup"] for run in runs] == [1.0, 2.0, 3.0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_x.json"]

    @pytest.mark.parametrize(
        "content", ['{"schema": 1, "runs": [', '["not", "a", "ledger"]', '{"schema": 1}']
    )
    def test_unparsable_ledger_raises_and_is_left_untouched(self, tmp_path, content):
        target = tmp_path / "BENCH_x.json"
        target.write_text(content)
        with pytest.raises(ValueError, match="ledger"):
            _shared.persist_run_metrics("x", {"speedup": 3.0}, path=target)
        assert target.read_text() == content
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_x.json"]

    def test_failed_write_keeps_the_old_ledger(self, tmp_path, monkeypatch):
        target = tmp_path / "BENCH_x.json"
        _ledger(target, "x", [1.0])
        before = target.read_text()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            _shared.persist_run_metrics("x", {"speedup": 3.0}, path=target)
        assert target.read_text() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_x.json"]
