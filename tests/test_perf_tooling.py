"""The CI perf-gate tooling: ``scripts/perf_check.py``'s baseline checks and
``benchmarks/timing.py``, the one harness every gated benchmark times with.

The baseline tests replace every benchmark module with a stub that fails
the test if it runs, so each one also proves the check happens before any
benchmark starts.  A gate run whose stubs return the committed summaries
must write its results under ``runs/perf/`` only.
"""

import importlib.util
import json
import os
import sys
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


timing = _load("timing", REPO_ROOT / "benchmarks" / "timing.py")

# The three committed baselines, each with one key path it must carry.
BASELINES = {
    "BASELINE_PATH": ("tokens_per_sec", "kv_cached"),
    "TRAINING_BASELINE_PATH": ("seconds", "finetune_step"),
    "FRONTEND_BASELINE_PATH": ("latency_ms", "p99"),
}
ARGV = ["perf_check.py", "--ratio-only", "--training", "--frontend"]


@pytest.fixture
def perf_check(monkeypatch):
    """A fresh ``perf_check`` whose import side effects are undone afterwards."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", ARGV)

    def run_benchmark():
        raise AssertionError("a benchmark started")

    for name in ("bench_generation", "bench_serving", "bench_training", "bench_frontend"):
        stub = types.ModuleType(name)
        stub.run_benchmark = run_benchmark
        monkeypatch.setitem(sys.modules, name, stub)
    return _load("perf_check", REPO_ROOT / "scripts" / "perf_check.py")


class TestBaselineChecks:
    def test_valid_baselines_reach_the_benchmarks(self, perf_check):
        with pytest.raises(AssertionError, match="a benchmark started"):
            perf_check.main()

    @pytest.mark.parametrize("constant", sorted(BASELINES))
    def test_missing_baseline_exits_3(self, perf_check, monkeypatch, capsys, tmp_path, constant):
        missing = tmp_path / "absent.json"
        monkeypatch.setattr(perf_check, constant, missing)
        assert perf_check.main() == perf_check.EXIT_BASELINE_MISSING == 3
        assert f"baseline file missing: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["bad_json", "not_utf8", "missing_key", 0, -1.5, "fast"])
    @pytest.mark.parametrize("constant", sorted(BASELINES))
    def test_malformed_baseline_exits_4(
        self, perf_check, monkeypatch, capsys, tmp_path, constant, damage
    ):
        original = getattr(perf_check, constant)
        payload = json.loads(original.read_text())
        parent, leaf = BASELINES[constant]
        if damage == "bad_json":
            data = original.read_bytes()[:-3]
        elif damage == "not_utf8":
            data = b"\xff\xfe{}"
        else:
            if damage == "missing_key":
                del payload[parent][leaf]
            else:
                payload[parent][leaf] = damage
            data = json.dumps(payload).encode()
        damaged = tmp_path / original.name
        damaged.write_bytes(data)
        monkeypatch.setattr(perf_check, constant, damaged)
        assert perf_check.main() == perf_check.EXIT_BASELINE_MALFORMED == 4
        err = capsys.readouterr().err
        assert f"baseline file malformed: {damaged}: " in err
        if damage not in ("bad_json", "not_utf8"):
            assert f"'{parent}.{leaf}'" in err


class TestResults:
    def test_a_gate_run_leaves_the_committed_results_alone(
        self, perf_check, monkeypatch, capsys, tmp_path
    ):
        committed = {
            path.name: path.read_bytes()
            for path in (REPO_ROOT / "benchmarks").glob("BENCH_*.json")
        }
        for name in ("generation", "training", "frontend"):
            summary = json.loads(committed[f"BENCH_{name}.json"])
            monkeypatch.setattr(
                sys.modules[f"bench_{name}"], "run_benchmark", lambda summary=summary: summary
            )
        monkeypatch.setattr(perf_check, "RUNS_DIR", tmp_path)
        assert perf_check.main() == 0, capsys.readouterr().out
        assert {
            path.name: path.read_bytes()
            for path in (REPO_ROOT / "benchmarks").glob("BENCH_*.json")
        } == committed
        written = {path.name: json.loads(path.read_text()) for path in tmp_path.iterdir()}
        assert written == {
            name: json.loads(committed[name])
            for name in ("BENCH_generation.json", "BENCH_training.json", "BENCH_frontend.json")
        }


    def test_update_records_every_flagged_bench_and_keeps_the_seed_baseline(
        self, perf_check, monkeypatch, capsys, tmp_path
    ):
        committed = REPO_ROOT / "benchmarks"
        names = ("BENCH_generation.json", "BENCH_serving.json", "BENCH_training.json")
        for name in names:
            summary = json.loads((committed / name).read_text())
            module = sys.modules[f"bench_{name[len('BENCH_'):-len('.json')]}"]
            monkeypatch.setattr(module, "run_benchmark", lambda summary=summary: summary)
        serving = sys.modules["bench_serving"]
        for constant, value in (
            ("REQUIRED_SPEEDUP", 2.0),
            ("REQUIRED_MMAP_SPEEDUP", 2.0),
            ("REQUIRED_SHARD_SCALING", 1.8),
            ("SHARD_WORKER_COUNTS", (1, 2, 4)),
        ):
            monkeypatch.setattr(serving, constant, value, raising=False)
        baseline = tmp_path / "BENCH_generation_baseline.json"
        baseline.write_bytes(perf_check.BASELINE_PATH.read_bytes())
        monkeypatch.setattr(perf_check, "BASELINE_PATH", baseline)
        monkeypatch.setattr(perf_check, "BENCH_DIR", tmp_path / "bench")
        monkeypatch.setattr(perf_check, "RUNS_DIR", tmp_path / "runs")
        monkeypatch.setattr(sys, "argv", ["perf_check.py", "--update", "--serving", "--training"])
        assert perf_check.main() == 0, capsys.readouterr().out
        # The seed reference the uplift gate divides by is never rewritten.
        assert baseline.read_bytes() == (committed / "BENCH_generation_baseline.json").read_bytes()
        for directory in ("bench", "runs"):
            written = {path.name: path.read_text() for path in (tmp_path / directory).iterdir()}
            assert {name: json.loads(text) for name, text in written.items()} == {
                name: json.loads((committed / name).read_text()) for name in names
            }


class FakeClock:
    """Moves only when a case's work says how long it took."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTimingHarness:
    def test_rounds_rotate_the_first_case_after_an_untimed_warm_up(self):
        clock = FakeClock()
        calls = []
        # Per case: one warm-up duration, then one per timed round.
        durations = {
            "a": iter([100.0, 1.0, 2.0, 3.0, 4.0]),
            "b": iter([100.0, 5.0, 6.0, 7.0, 8.0]),
            "c": iter([100.0, 9.0, 9.0, 9.0, 9.0]),
        }

        def case(name):
            def run(lap):
                calls.append(name)
                clock.now += 0.5  # untimed set-up
                with lap:
                    clock.now += next(durations[name])
                return name.upper()

            return run

        seconds, values = timing.interleave(
            {name: case(name) for name in "abc"}, rounds=4, clock=clock
        )
        assert "".join(calls) == "abc" + "abc" + "bca" + "cab" + "abc"
        assert seconds == {
            "a": [1.0, 2.0, 3.0, 4.0],
            "b": [5.0, 6.0, 7.0, 8.0],
            "c": [9.0, 9.0, 9.0, 9.0],
        }
        assert values == {"a": ["A"] * 4, "b": ["B"] * 4, "c": ["C"] * 4}

    def test_a_case_may_report_the_seconds_its_program_measured(self):
        def case(lap):
            lap.seconds = 0.25

        seconds, _ = timing.interleave({"x": case}, rounds=3, clock=FakeClock())
        assert seconds == {"x": [0.25, 0.25, 0.25]}

    def test_a_case_that_times_nothing_is_an_error(self):
        with pytest.raises(RuntimeError, match="did not time its work"):
            timing.interleave({"x": lambda lap: None}, rounds=1)

    def test_whole_call_times_the_call_and_returns_its_value(self):
        clock = FakeClock()

        def work():
            clock.now += 2.0
            return "done"

        seconds, values = timing.interleave({"x": timing.whole_call(work)}, rounds=2, clock=clock)
        assert seconds == {"x": [2.0, 2.0]} and values == {"x": ["done", "done"]}

    def test_spread_is_the_median_and_exclusive_quartiles(self):
        # statistics.quantiles(n=4) on 1..8: cut points at ranks 2.25, 4.5, 6.75.
        assert timing.spread([8, 1, 7, 2, 6, 3, 5, 4]) == (4.5, [2.25, 6.75])
        assert timing.spread([0.123456, 0.2, 0.3], digits=3) == (0.2, [0.123, 0.3])
        assert timing.summarize({"a": [8, 1, 7, 2, 6, 3, 5, 4], "b": [1, 1, 1]}) == (
            {"a": 4.5, "b": 1},
            {"a": [2.25, 6.75], "b": [1, 1]},
        )

    def test_gated_ratios_pair_the_cases_round_by_round(self):
        # Round 2 ran on a machine twice as slow; its ratio still reads 2.
        slow, fast = [2.0, 4.0, 2.2], [1.0, 2.0, 1.0]
        assert timing.per_round(slow, fast) == [2.0, 2.0, 2.2]

    def test_percentile_is_nearest_rank(self):
        values = list(range(20, 0, -1))  # 1..20, unsorted
        assert timing.percentile(values, 0.25) == 5  # rank ceil(5.0) = 5
        assert timing.percentile(values, 0.26) == 6  # rank ceil(5.2) = 6
        assert timing.percentile(values, 0.5) == 10
        assert timing.percentile(values, 0.99) == 20
        assert timing.percentile(list(range(1, 101)), 0.99) == 99
        assert timing.percentile([7.0], 0.5) == 7.0

    def test_blas_threads_reports_the_environment(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert timing.blas_threads() == "3"
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert timing.blas_threads() == "unset"
