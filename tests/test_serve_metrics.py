"""End-to-end observability: digest neutrality, key-set parity, ServeConfig.

The three load-bearing guarantees of the metrics layer, each pinned over a
real serving run:

* **Digest neutrality** — a run with metrics enabled produces a
  byte-identical transcript digest to the same run with metrics disabled,
  single-scheduler and sharded alike (instrumentation may never touch an
  RNG stream).
* **Key-set parity** — the snapshot written at drain, the ``metrics`` wire
  op, and the sharded merged view all expose the same metric key-set (the
  catalog is a property of the code, not of topology or traffic).
* **The typed config** — :class:`ServeConfig` is the one argv
  interpretation point, and every entry point takes it as its first
  argument.
"""

import asyncio

import pytest

from repro.cli import build_parser
from repro.obs import merge_snapshots, snapshot_key_set
from repro.serve import LoadConfig, ServeConfig, run_serve
from repro.serve.frontend import (
    ERR_UNKNOWN_OP,
    FRAME_ERROR,
    FRAME_METRICS,
    METRICS_FRAME_SCHEMA,
    PROTOCOL_VERSION,
    FrontendThread,
    ServeFrontend,
)
from repro.serve.client import ServeClient
from repro.serve.shard import run_serve_sharded

LOAD = LoadConfig(
    num_users=3,
    num_requests=9,
    personalize_every=3,
    dialogues_per_personalize=2,
    corpus_size_per_user=10,
    seed=0,
)


def config_for(**changes) -> ServeConfig:
    return ServeConfig(load=LOAD).with_(**changes)


class TestDigestNeutrality:
    def test_single_scheduler_run(self, pretrained_llm):
        on = run_serve(config_for(metrics_enabled=True), llm=pretrained_llm.clone())
        off = run_serve(config_for(metrics_enabled=False), llm=pretrained_llm.clone())
        assert on.report.transcript_digest == off.report.transcript_digest
        assert isinstance(on.metrics, dict)
        assert off.metrics is None

    def test_sharded_run_workers_4(self, pretrained_llm):
        def sharded(enabled):
            return run_serve_sharded(
                config_for(workers=4, metrics_enabled=enabled),
                llm=pretrained_llm.clone(),
                mode="thread",
            )

        on, off = sharded(True), sharded(False)
        assert on.aggregate_digest == off.aggregate_digest
        assert isinstance(on.metrics, dict)
        assert off.metrics is None


class TestShardedMerge:
    def test_merged_view_is_the_sum_of_shard_snapshots(self, pretrained_llm):
        outcome = run_serve_sharded(
            config_for(workers=2), llm=pretrained_llm.clone(), mode="thread"
        )
        shard_snaps = [s["metrics"] for s in outcome.shard_summaries]
        assert len(shard_snaps) == 2
        assert outcome.metrics == merge_snapshots(shard_snaps)
        total = sum(
            s["counters"]["serve_requests_total{kind=chat}"]
            + s["counters"]["serve_requests_total{kind=personalize}"]
            for s in shard_snaps
        )
        merged = outcome.metrics["counters"]
        assert (
            merged["serve_requests_total{kind=chat}"]
            + merged["serve_requests_total{kind=personalize}"]
            == total
            == LOAD.num_requests
        )

    def test_result_dict_carries_merged_not_per_shard(self, pretrained_llm):
        outcome = run_serve_sharded(
            config_for(workers=2), llm=pretrained_llm.clone(), mode="thread"
        )
        payload = outcome.to_dict()
        assert payload["metrics"] == outcome.metrics
        for shard in payload["shards"]:
            assert "metrics" not in shard


class TestKeySetParity:
    def test_single_and_sharded_runs_expose_the_same_catalog(self, pretrained_llm):
        single = run_serve(config_for(), llm=pretrained_llm.clone())
        sharded = run_serve_sharded(
            config_for(workers=2), llm=pretrained_llm.clone(), mode="thread"
        )
        assert snapshot_key_set(single.metrics) == snapshot_key_set(sharded.metrics)

    def test_every_catalog_key_exists_without_chaos(self, pretrained_llm):
        """Robustness counters are pre-registered: a clean run still exports
        them (at zero), so dashboards never see keys appear mid-incident."""
        outcome = run_serve(config_for(), llm=pretrained_llm.clone())
        counters = outcome.metrics["counters"]
        for key in (
            "serve_retries_total",
            "serve_degraded_total",
            "serve_dead_letters_total",
            "serve_restarts_total",
            "store_io_errors_total",
            "store_quarantined_total",
        ):
            assert counters[key] == 0


class TestWireProtocol:
    def boot(self, frontend_env, shard_mode=None, **changes):
        config = config_for(metrics_enabled=True, **changes)
        frontend = ServeFrontend(
            config,
            llm=pristine_llm(frontend_env),
            lexicons=frontend_env["lexicons"],
            shard_mode=shard_mode,
        )
        server = FrontendThread(frontend)
        host, port = server.start()
        return server, host, port

    def test_metrics_op_and_aliases(self, frontend_env):
        server, host, port = self.boot(frontend_env)

        async def scenario():
            async with ServeClient(host, port) as client:
                await client.connect("user_00")
                await client.chat("what should I do about headaches?")
                metrics = await client.metrics()
                aliases = []
                for op in ("stats", "health"):
                    await client.send_op({"op": op})
                    aliases.append(await client.read_frame())
                await client.shutdown()
            return metrics, aliases

        metrics, aliases = asyncio.run(scenario())
        outcome = server.stop()

        assert metrics["frame"] == FRAME_METRICS
        assert metrics["schema"] == METRICS_FRAME_SCHEMA
        assert metrics["protocol"] == PROTOCOL_VERSION == 3
        # Protocol v3 dropped the v2 aliases: the body they echoed (serving
        # counters and component health) lives in the metrics frame.
        for frame in aliases:
            assert frame["frame"] == FRAME_ERROR
            assert frame["error"] == ERR_UNKNOWN_OP
        for key in ("served", "pending", "transcript_digest", "overall", "components"):
            assert key in metrics
        # The wire snapshot and the drain snapshot expose the same catalog.
        assert snapshot_key_set(metrics["metrics"]) == snapshot_key_set(outcome.metrics)

    def test_single_and_sharded_frontends_expose_the_same_keys(self, frontend_env):
        frames = {}
        for label, changes in (
            ("single", {}),
            ("sharded", {"workers": 2, "shard_mode": "thread"}),
        ):
            server, host, port = self.boot(frontend_env, **changes)

            async def scenario():
                async with ServeClient(host, port) as client:
                    await client.connect("user_00")
                    await client.chat("is rest enough for a cold?")
                    frame = await client.metrics()
                    await client.shutdown()
                return frame

            frames[label] = asyncio.run(scenario())
            server.stop()
        single, sharded = frames["single"], frames["sharded"]
        assert set(single) == set(sharded)
        assert single["workers"] == 1
        assert sharded["workers"] == 2
        assert snapshot_key_set(single["metrics"]) == snapshot_key_set(sharded["metrics"])


class TestServeConfig:
    def parse(self, *argv):
        args = build_parser().parse_args(["serve", *argv])
        return ServeConfig.from_args(args)

    def test_from_args_defaults(self):
        config = self.parse()
        assert config.load.num_users == 8
        assert config.load.num_requests == 64
        assert config.workers == 1
        assert config.metrics_enabled is True
        assert config.metrics_out is None
        assert config.metrics_interval_seconds == 1.0

    def test_from_args_metrics_flags(self, tmp_path):
        out = tmp_path / "live.json"
        config = self.parse(
            "--no-metrics", "--metrics-out", str(out), "--metrics-interval", "0.25"
        )
        assert config.metrics_enabled is False
        assert config.metrics_out == out
        assert config.metrics_interval_seconds == 0.25

    def test_chaos_armed_only_without_listen(self):
        assert self.parse("--chaos").fault_plan is not None
        assert self.parse("--chaos", "--listen", "127.0.0.1:0").fault_plan is None

    def test_frozen_with_validation(self):
        config = config_for()
        with pytest.raises(Exception):
            config.workers = 2  # frozen dataclass
        with pytest.raises(ValueError):
            config_for(workers=0)
        with pytest.raises(ValueError):
            config_for(metrics_interval_seconds=0)

    def test_durable_property(self, tmp_path):
        assert config_for().durable is False
        assert config_for(state_dir=tmp_path / "state").durable is True
        assert config_for(resume=True).durable is True


class TestConfigFirst:
    """Every entry point takes a ServeConfig; anything else is a TypeError."""

    def test_run_serve_refuses_a_bare_load(self):
        with pytest.raises(TypeError, match="ServeConfig"):
            run_serve(LOAD)

    def test_run_serve_sharded_refuses_a_bare_load(self):
        with pytest.raises(TypeError, match="ServeConfig"):
            run_serve_sharded(LOAD)

    def test_frontend_refuses_a_host_string(self):
        with pytest.raises(TypeError, match="ServeConfig"):
            ServeFrontend("127.0.0.1")


# -- shared frontend fixtures (same pattern as test_serve_frontend) -------- #


@pytest.fixture(scope="module")
def frontend_env(lexicons):
    from repro.experiments.presets import get_scale
    from repro.serve.loadgen import build_serving_llm

    scale = get_scale("smoke", seed=0)
    llm = build_serving_llm(scale, seed=0, lexicons=lexicons)
    llm.add_lora()
    return {
        "scale": scale,
        "llm": llm,
        "snapshot": llm.export_runtime_state(),
        "lexicons": lexicons,
    }


def pristine_llm(frontend_env):
    frontend_env["llm"].load_runtime_state(frontend_env["snapshot"])
    return frontend_env["llm"]
