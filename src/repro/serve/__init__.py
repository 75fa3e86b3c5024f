"""Multi-tenant serving: shared base model + per-user LoRA adapters.

The deployment layer the source paper motivates: one frozen base model
serves many users, each owning only a lightweight LoRA adapter.  The
subsystem splits into four parts —

* :mod:`repro.serve.adapter_store` — per-user adapter persistence behind a
  bounded write-back LRU cache (:class:`LoRAAdapterStore`);
* :mod:`repro.serve.session` — adapter hot-swapping onto the shared model
  and per-user personalization sessions (:class:`SessionManager`);
* :mod:`repro.serve.scheduler` — round-robin, same-adapter-batched request
  scheduling (:class:`RequestScheduler`);
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.runner` — deterministic
  synthetic workloads, the shard-serving core every entry point drives
  (:class:`ShardServer`: build, journal recovery, in-place crash restarts),
  the one :class:`ServeOutcome` and transcript digest every topology
  reports, and the end-to-end ``repro serve`` entry point;
* :mod:`repro.serve.journal` / :mod:`repro.serve.faults` /
  :mod:`repro.serve.errors` / :mod:`repro.serve.health` — the robustness
  layer: durable request journal with crash-safe replay, deterministic
  fault injection, the typed error taxonomy + retry policy, and component
  health states (see ``docs/robustness.md``);
* :mod:`repro.serve.frontend` / :mod:`repro.serve.client` /
  :mod:`repro.serve.trace` — the network layer: an asyncio TCP front-end
  speaking a newline-delimited JSON protocol with token streaming and
  backpressure, the matching socket client / load driver, and request-trace
  record/replay for deterministic regression testing over real sockets
  (see ``docs/serving.md``);
* :mod:`repro.serve.shard` — the one serving topology: a
  :class:`ShardPool` of shared-nothing shard workers behind consistent-hash
  routing (one worker thread by default, forked workers for
  ``repro serve --workers N``); adapters
  persist as checksummed ``A1`` records (:mod:`repro.utils.a1`, zero-copy
  mmap loading, see ``docs/scaling.md``);
* :mod:`repro.serve.config` — the typed :class:`ServeConfig` every entry
  point accepts (the CLI parses argv into it exactly once), and
  :mod:`repro.obs` — the dependency-free metrics registry the serving
  layer reports into (see ``docs/observability.md``).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the static view of the lazy re-exports below
    from repro.serve.adapter_store import (
        AdapterStoreError,
        LoRAAdapterStore,
        StoreStats,
        validate_user_id,
    )
    from repro.serve.errors import (
        DeadlineExceededError,
        InjectedFaultError,
        PermanentServingError,
        PoisonRequestError,
        RetryPolicy,
        ServingError,
        StoreIOError,
        TransientServingError,
    )
    from repro.serve.client import ClientError, ServeClient, drive_load, replay_trace_against
    from repro.serve.config import METRICS_FILE, ServeConfig
    from repro.serve.faults import (
        CRASH_POINTS,
        FaultInjector,
        FaultPlan,
        InjectedCrash,
        chaos_plan,
    )
    from repro.serve.frontend import (
        MAX_FRAME_BYTES,
        PROTOCOL_VERSION,
        FrontendThread,
        PoolBridge,
        ProtocolError,
        ServeFrontend,
        decode_frame,
        encode_frame,
    )
    from repro.serve.health import ComponentHealth, HealthRegistry, HealthState
    from repro.serve.journal import (
        JournalError,
        JournalReplay,
        RequestJournal,
        entries_digest,
        journal_digest,
        replay,
    )
    from repro.serve.loadgen import LoadConfig, build_serving_llm, generate_load, user_ids
    from repro.serve.runner import (
        ServeOutcome,
        ShardServer,
        aggregate_transcript_digest,
        compose_user_digests,
        make_session_manager,
        run_serve,
        user_transcript_digest,
    )
    from repro.serve.shard import ShardPool, ShardPoolError, ShardRing, shard_state_dir
    from repro.serve.scheduler import (
        ChatRequest,
        PersonalizeRequest,
        RequestScheduler,
        ServeTurn,
    )
    from repro.serve.session import (
        PersonalizeOutcome,
        SessionManager,
        UserSession,
        serving_framework_config,
        user_seed,
    )
    from repro.serve.trace import Trace, TraceError, TraceRecorder, load_trace

__all__ = [
    "AdapterStoreError",
    "CRASH_POINTS",
    "ChatRequest",
    "ClientError",
    "ComponentHealth",
    "DeadlineExceededError",
    "FaultInjector",
    "FaultPlan",
    "FrontendThread",
    "HealthRegistry",
    "HealthState",
    "InjectedCrash",
    "InjectedFaultError",
    "JournalError",
    "JournalReplay",
    "LoRAAdapterStore",
    "LoadConfig",
    "MAX_FRAME_BYTES",
    "METRICS_FILE",
    "PROTOCOL_VERSION",
    "PermanentServingError",
    "PersonalizeOutcome",
    "PersonalizeRequest",
    "PoisonRequestError",
    "PoolBridge",
    "ProtocolError",
    "RequestJournal",
    "RequestScheduler",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeFrontend",
    "ServeOutcome",
    "ServeTurn",
    "ServingError",
    "SessionManager",
    "ShardPool",
    "ShardPoolError",
    "ShardRing",
    "ShardServer",
    "StoreIOError",
    "StoreStats",
    "Trace",
    "TraceError",
    "TraceRecorder",
    "UserSession",
    "aggregate_transcript_digest",
    "build_serving_llm",
    "chaos_plan",
    "compose_user_digests",
    "decode_frame",
    "drive_load",
    "encode_frame",
    "entries_digest",
    "generate_load",
    "journal_digest",
    "load_trace",
    "make_session_manager",
    "replay",
    "replay_trace_against",
    "run_serve",
    "serving_framework_config",
    "shard_state_dir",
    "user_ids",
    "user_seed",
    "user_transcript_digest",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.serve.adapter_store": (
            "AdapterStoreError LoRAAdapterStore StoreStats validate_user_id"
        ),
        "repro.serve.client": "ClientError ServeClient drive_load replay_trace_against",
        "repro.serve.config": "METRICS_FILE ServeConfig",
        "repro.serve.errors": (
            "DeadlineExceededError InjectedFaultError PermanentServingError "
            "PoisonRequestError RetryPolicy ServingError StoreIOError "
            "TransientServingError"
        ),
        "repro.serve.faults": "CRASH_POINTS FaultInjector FaultPlan InjectedCrash chaos_plan",
        "repro.serve.frontend": (
            "MAX_FRAME_BYTES PROTOCOL_VERSION FrontendThread PoolBridge ProtocolError "
            "ServeFrontend decode_frame encode_frame"
        ),
        "repro.serve.health": "ComponentHealth HealthRegistry HealthState",
        "repro.serve.journal": (
            "JournalError JournalReplay RequestJournal "
            "entries_digest journal_digest replay"
        ),
        "repro.serve.loadgen": "LoadConfig build_serving_llm generate_load user_ids",
        "repro.serve.runner": (
            "ServeOutcome ShardServer aggregate_transcript_digest compose_user_digests "
            "make_session_manager run_serve user_transcript_digest"
        ),
        "repro.serve.scheduler": "ChatRequest PersonalizeRequest RequestScheduler ServeTurn",
        "repro.serve.session": (
            "PersonalizeOutcome SessionManager UserSession "
            "serving_framework_config user_seed"
        ),
        "repro.serve.shard": "ShardPool ShardPoolError ShardRing shard_state_dir",
        "repro.serve.trace": "Trace TraceError TraceRecorder load_trace",
    },
)
