"""Tests for the experiment registry and the unified runner CLI."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.experiments.presets import smoke_scale
from repro.experiments.registry import (
    ExperimentSpec,
    _REGISTRY,
    experiment_names,
    get_experiment,
    register_experiment,
    run_experiment,
)

ALL_EXPERIMENTS = ("figure2", "figure3", "table2", "table3", "table4")


@pytest.fixture()
def micro_scale():
    return dataclasses.replace(
        smoke_scale(),
        corpus_size=48,
        stream_fraction=0.3,
        buffer_bins=4,
        finetune_interval=10,
        finetune_epochs=2,
        pretrain_epochs=4,
        eval_subset=8,
        synthesis_per_item=1,
    )


@pytest.fixture()
def dummy_spec():
    """A registered no-compute experiment for CLI plumbing tests."""
    spec = ExperimentSpec(
        name="dummy-test",
        title="Dummy",
        description="registry test fixture",
        runner=lambda scale, seed, **options: {
            "scale": scale.name, "seed": seed, "options": options
        },
        serializer=lambda result: dict(result, options=dict(result["options"])),
        formatter=lambda result: f"dummy ran at {result['scale']}",
        options=("num_seeds",),
    )
    register_experiment(spec)
    yield spec
    _REGISTRY.pop(spec.name, None)


class TestRegistry:
    def test_all_five_experiments_registered(self):
        names = experiment_names()
        for name in ALL_EXPERIMENTS:
            assert name in names

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("figure99")

    def test_duplicate_registration_rejected(self, dummy_spec):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(dummy_spec)

    def test_unknown_option_rejected(self, dummy_spec):
        with pytest.raises(TypeError, match="does not accept"):
            run_experiment(dummy_spec.name, scale=smoke_scale(), bogus=1)

    def test_run_experiment_without_artifacts(self, dummy_spec):
        run = run_experiment(dummy_spec.name, scale=smoke_scale(), seed=7, num_seeds=2)
        assert run.result["scale"] == "smoke"
        assert run.result["seed"] == 7
        assert run.result["options"] == {"num_seeds": 2}
        assert run.artifacts == {}
        assert run.run_dir is None

    def test_run_experiment_writes_artifacts(self, dummy_spec, tmp_path):
        out = tmp_path / "runs" / "dummy"
        run = run_experiment(dummy_spec.name, scale=smoke_scale(), out_dir=out)
        result = json.loads((out / "result.json").read_text())
        meta = json.loads((out / "run.json").read_text())
        assert result["scale"] == "smoke"
        assert meta["experiment"] == dummy_spec.name
        assert meta["scale"] == "smoke"
        assert run.artifacts["result"] == out / "result.json"

    def test_real_experiment_end_to_end(self, micro_scale, tmp_path):
        """table2 at micro scale through the registry: JSON + checkpoints."""
        out = tmp_path / "table2-run"
        run = run_experiment(
            "table2",
            scale=micro_scale,
            out_dir=out,
            datasets=["meddialog"],
            methods=["fifo"],
        )
        payload = json.loads((out / "result.json").read_text())
        score = payload["scores"]["meddialog"]["fifo"]
        assert 0.0 <= score <= 1.0
        assert score == run.result.score("meddialog", "fifo")
        # The engine checkpointed the run under the run directory.
        manifest_path = out / "checkpoints" / "meddialog" / "fifo" / "seed0" / "manifest.json"
        assert manifest_path.is_file()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["selector"] == "fifo"
        assert manifest["finetune_rounds"] >= 1


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "figure99", "--no-artifacts"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_rejected_option_exits(self, dummy_spec, capsys):
        assert main(["run", dummy_spec.name, "--dataset", "meddialog", "--no-artifacts"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not accept --dataset" in err

    def test_run_dummy_with_artifacts(self, dummy_spec, tmp_path, capsys):
        out = tmp_path / "cli-run"
        code = main(
            ["run", dummy_spec.name, "--scale", "smoke", "--out", str(out), "--quiet"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "dummy ran at smoke" in printed
        assert (out / "result.json").is_file()
        assert (out / "run.json").is_file()

    def test_run_dummy_no_artifacts(self, dummy_spec, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", dummy_spec.name, "--no-artifacts", "--quiet"]) == 0
        assert not (tmp_path / "runs").exists()

    def test_out_with_no_artifacts_conflicts(self, dummy_spec, tmp_path, capsys):
        code = main(
            ["run", dummy_spec.name, "--out", str(tmp_path / "x"), "--no-artifacts"]
        )
        assert code == 2
        assert "contradict" in capsys.readouterr().err


BAD_ARGV = [
    ["serve", "--users", "0"],
    ["serve", "--requests", "0"],
    ["serve", "--max-batch", "0"],
    ["serve", "--cache-capacity", "0"],
    ["serve", "--personalize-every", "0"],
    ["serve", "--deadline", "-5"],
    ["serve", "--metrics-interval", "0"],
    ["serve", "--seed", "-1"],
    ["serve", "--retries", "0"],
    ["serve", "--workers", "0"],
    ["serve", "--scale", "huge"],
    ["run", "figure3", "--counts", "-1"],
    ["run", "table3", "--bins", "0"],
    ["run", "table2", "--datasets", "nosuch"],
    ["run", "table2", "--methods", "nosuch"],
    ["run", "table2", "--seed", "-1"],
    ["run", "table2", "--scale", "huge"],
    ["run", "table2", "--num-seeds", "0"],
]


class TestBadArgumentValues:
    """An out-of-range or unknown value exits 2 with one ``error:`` line,
    before any work is done or any directory is made."""

    @pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
    def test_exits_2_with_one_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")]
        assert "Traceback" not in err
        assert not out.exists()

    def test_bins_message_names_the_bins(self, capsys):
        assert main(["run", "table3", "--bins", "0", "--no-artifacts"]) == 2
        assert "bins must be positive" in capsys.readouterr().err

