"""The benchmark harness itself: history file handling and the
regression gate.  (The benchmarks' *timings* are exercised by
``make bench`` / ``benchmarks/perf/``, not asserted here.)"""

import json
from pathlib import Path

import pytest

from repro.perf.bench import (BASELINE_LABEL, BenchResult, append_entry,
                              baseline_entry, bench_event_loop,
                              bench_timer_churn, check_regression,
                              load_history, main)

ROOT = Path(__file__).resolve().parents[2]


def _result(label: str, score: float, quick: bool = True) -> BenchResult:
    result = BenchResult(label=label, quick=quick,
                         calibration_ops_per_sec=1e6)
    result.results["event_loop"] = {"seconds": 0.1, "events": 1000,
                                    "events_per_sec": score * 1e6,
                                    "score": score}
    return result


class TestRegressionGate:
    def test_equal_scores_pass(self):
        ok, message = check_regression(_result("cur", 0.04),
                                       _result("base", 0.04).to_json())
        assert ok and "+0.0%" in message

    def test_improvement_passes(self):
        ok, _ = check_regression(_result("cur", 0.08),
                                 _result("base", 0.04).to_json())
        assert ok

    def test_small_regression_within_budget_passes(self):
        ok, _ = check_regression(_result("cur", 0.033),
                                 _result("base", 0.04).to_json(),
                                 max_regression=0.25)
        assert ok

    def test_large_regression_fails(self):
        ok, message = check_regression(_result("cur", 0.02),
                                       _result("base", 0.04).to_json(),
                                       max_regression=0.25)
        assert not ok and "exceeds" in message

    def test_missing_scores_skip_rather_than_fail(self):
        bare = BenchResult(label="cur", quick=True,
                           calibration_ops_per_sec=1e6)
        ok, message = check_regression(bare, {"results": {}})
        assert ok and "skipped" in message


class TestHistoryFile:
    def test_load_missing_file_yields_empty_history(self, tmp_path):
        history = load_history(str(tmp_path / "nope.json"))
        assert history["entries"] == []

    def test_append_then_baseline_roundtrip(self, tmp_path):
        path = str(tmp_path / "bench.json")
        append_entry(path, _result("first", 0.03))
        append_entry(path, _result("second", 0.04))
        history = load_history(path)
        assert [e["label"] for e in history["entries"]] == ["first", "second"]
        assert baseline_entry(history, "second", quick=True)["label"] == "second"
        assert baseline_entry(history, "first", quick=True)["label"] == "first"
        with pytest.raises(LookupError, match="absent"):
            baseline_entry(history, "absent", quick=True)

    def test_append_replaces_same_label(self, tmp_path):
        path = str(tmp_path / "bench.json")
        append_entry(path, _result("ci-smoke", 0.03))
        append_entry(path, _result("ci-smoke", 0.05))
        entries = load_history(path)["entries"]
        assert len(entries) == 1
        assert entries[0]["results"]["event_loop"]["score"] == 0.05

    def test_append_keeps_quick_and_full_entries_of_one_label(self, tmp_path):
        path = str(tmp_path / "bench.json")
        append_entry(path, _result("base", 0.03, quick=False))
        append_entry(path, _result("base", 0.05, quick=True))
        append_entry(path, _result("base", 0.04, quick=False))
        entries = load_history(path)["entries"]
        assert [(e["quick"], e["results"]["event_loop"]["score"])
                for e in entries] == [(True, 0.05), (False, 0.04)]

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        with pytest.raises(ValueError):
            load_history(str(path))


class TestBaselineMatchesRunKind:
    """A quick run is gated against a quick baseline, a full run against
    a full one; there is no fallback to the other kind."""

    def _history(self, tmp_path, *results):
        path = str(tmp_path / f"bench-{len(list(tmp_path.iterdir()))}.json")
        for result in results:
            append_entry(path, result)
        return load_history(path)

    def test_quick_run_picks_the_quick_entry(self, tmp_path):
        history = self._history(tmp_path, _result("base", 0.03, quick=False),
                                _result("base", 0.05, quick=True))
        entry = baseline_entry(history, "base", quick=True)
        assert entry["quick"] is True
        assert entry["results"]["event_loop"]["score"] == 0.05

    def test_full_run_picks_the_full_entry(self, tmp_path):
        history = self._history(tmp_path, _result("base", 0.05, quick=True),
                                _result("base", 0.03, quick=False))
        entry = baseline_entry(history, "base", quick=False)
        assert entry["quick"] is False
        assert entry["results"]["event_loop"]["score"] == 0.03

    def test_missing_kind_fails_loudly(self, tmp_path):
        history = self._history(tmp_path, _result("base", 0.03, quick=False))
        with pytest.raises(LookupError, match="no quick baseline"):
            baseline_entry(history, "base", quick=True)
        history = self._history(tmp_path, _result("base", 0.03, quick=True))
        with pytest.raises(LookupError, match="no full baseline"):
            baseline_entry(history, "base", quick=False)

    def test_default_label_is_the_resolved_baseline(self, tmp_path):
        history = self._history(tmp_path, _result("other", 0.02),
                                _result(BASELINE_LABEL, 0.04))
        assert baseline_entry(history, quick=True)["label"] == BASELINE_LABEL

    def test_cli_exits_nonzero_without_a_matching_entry(self, tmp_path,
                                                        monkeypatch, capsys):
        import repro.perf.bench as bench

        monkeypatch.setattr(bench, "run_suite",
                            lambda **kw: _result("cur", 0.04, quick=True))
        path = tmp_path / "bench.json"
        append_entry(str(path), _result(BASELINE_LABEL, 0.04, quick=False))
        assert main(["--quick", "--check-against", str(path)]) == 1
        assert "no quick baseline" in capsys.readouterr().out
        append_entry(str(path), _result(BASELINE_LABEL, 0.04, quick=True))
        assert main(["--quick", "--check-against", str(path)]) == 0


class TestCommittedBaseline:
    def test_bench_core_json_has_the_gate_entries(self):
        """The committed history must keep the before/after pair the
        CI gate and docs/PERF.md refer to."""
        history = load_history(str(ROOT / "BENCH_core.json"))
        labels = [e["label"] for e in history["entries"]]
        assert "pre-optimization" in labels
        assert "post-optimization" in labels
        post = baseline_entry(history, "post-optimization", quick=False)
        pre = baseline_entry(history, "pre-optimization", quick=False)
        # The locked-in win: >= 2x on the normalized event-loop score.
        assert (post["results"]["event_loop"]["score"]
                >= 2 * pre["results"]["event_loop"]["score"])

    def test_gate_baseline_has_quick_and_full_entries(self):
        history = load_history(str(ROOT / "BENCH_core.json"))
        for quick in (True, False):
            entry = baseline_entry(history, quick=quick)
            assert entry["quick"] is quick

    def test_ci_and_makefile_do_not_pick_their_own_baseline(self):
        """The baseline label is resolved in repro.perf.bench only."""
        for name in ("Makefile", ".github/workflows/ci.yml"):
            assert "--baseline-label" not in (ROOT / name).read_text()


class TestMicroBenchmarks:
    def test_event_loop_executes_requested_events(self):
        run = bench_event_loop(events=2_000, tickers=8)
        assert run["events"] == 2_000
        assert run["events_per_sec"] > 0

    def test_timer_churn_fires_only_surviving_timers(self):
        run = bench_timer_churn(timers=4_000, cancel_mod=4)
        assert run["events"] == 1_000  # 1 in 4 survives cancellation
