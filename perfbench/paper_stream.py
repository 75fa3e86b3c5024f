"""paper_stream — the paper's Table-2 loop, in-process, no serving layer.

Makes the calls ``repro run table2 --scale smoke --datasets meddialog
--num-seeds 3 --no-artifacts`` makes, through ``repro.experiments``:
``prepare_environment`` builds the corpus, the noisy stream split and the
pretrained base model; then every method (random / fifo / kcenter / ours)
streams the noisy split for each of 3 framework seeds on a clone of that
base, as ``run_method`` does, with ROUGE-1 evaluation after every
fine-tune round.

The device's data is fixed: the environment is built from model seed 0,
so every workload seed pretrains the same base on the same corpus.  The
workload seed draws the 3 framework seeds, that is the selection,
annotation and synthesis randomness.

The environment is set up ``SETUPS`` times, each a ``setup_s`` sample, and
the 12 stream runs are repeated on each.  The repetitions must give
identical learning curves.  An observer on the engine's public hooks reads
the clock at every pipeline event; each run's times are rescaled to full
host speed (see ``hostspeed.py``), and every step between two events
takes the median of its repetitions (see :func:`stats.median_segments`).  A round's latency is the time from one
evaluation to the next: 14 dialogue sets selected and annotated, then
synthesis, LoRA fine-tuning and evaluation.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from repro.core.engine import PipelineObserver

from common import DATASET, MODEL_SEED, SCALE, SETUPS, WorkloadResult, clock, peak_rss_mb, phase
from hostspeed import WINDOW, HostSpeed
from stats import PercentileError, median_segments, tail_summary
from tracer import Tracer

NUM_SEEDS = 3
#: Repetitions per run at the least; ``--seconds`` beyond about 7.5 s per
#: repetition adds more.
REPETITION_SECONDS = 7.5
#: 4 methods × 3 seeds × 3 rounds = 36 rounds leave 10 beyond p70.
TAIL = 0.70
EVAL = "eval"


class Timeline(PipelineObserver):
    """The clock at every pipeline event of one stream run."""

    def __init__(self) -> None:
        self.events: List[str] = []
        self.times: List[float] = []

    def _mark(self, event: str) -> None:
        self.times.append(clock())
        self.events.append(event)

    def on_run_start(self, engine) -> None:
        self._mark("run_start")

    def on_dialogue(self, event) -> None:
        self._mark("dialogue")

    def on_round_start(self, event) -> None:
        self._mark("round_start")

    def on_round_end(self, event) -> None:
        self._mark("round_end")

    def on_eval(self, event) -> None:
        self._mark(EVAL)

    def on_run_end(self, engine) -> None:
        self._mark("run_end")


def _stream_run(env, method: str, framework_seed: int):
    """``run_method(env, method, seed=framework_seed)`` with a timeline."""
    from repro.core.framework import PersonalizationFramework
    from repro.experiments.common import framework_config_for

    timeline = Timeline()
    framework = PersonalizationFramework(
        env.base_llm.clone(),
        config=framework_config_for(env.scale, method, seed=framework_seed),
        lexicons=env.lexicons,
        observers=[timeline],
    )
    return framework.run(env.make_stream(), evaluator=env.evaluator), timeline


def run(seed: int, seconds: float, workdir: Path, tracer: Optional[Tracer] = None) -> WorkloadResult:
    from repro.experiments.common import DEFAULT_METHODS, prepare_environment
    from repro.experiments.presets import get_scale

    repetitions = max(SETUPS, round(seconds / REPETITION_SECONDS))
    framework_seeds = [
        int(value)
        for value in np.random.default_rng([seed, 0x57EA]).integers(1, 2**31 - 1, size=NUM_SEEDS)
    ]
    runs = [(method, framework_seed) for method in DEFAULT_METHODS for framework_seed in framework_seeds]
    host = HostSpeed()
    setup_spans: List[List[float]] = []
    wall_seconds: List[float] = []
    events: List[List[List[str]]] = [[] for _ in runs]
    timelines: List[List[List[float]]] = [[] for _ in runs]
    curves: List[List[List[float]]] = [[] for _ in runs]
    finals: List[float] = []
    streamed = 0
    with host.sampling():
        for repetition in range(repetitions):
            with phase(tracer, "bench.setup", request=f"env{repetition}"):
                start = clock()
                env = prepare_environment(
                    DATASET, scale=get_scale(SCALE, seed=MODEL_SEED), seed=MODEL_SEED
                )
                setup_spans.append([start, clock()])
            for index, (method, framework_seed) in enumerate(runs):
                request = f"{repetition}/{method}/{framework_seed}"
                with phase(tracer, "bench.stream_run", request=request):
                    start = clock()
                    result, timeline = _stream_run(env, method, framework_seed)
                    wall_seconds.append(clock() - start)
                events[index].append(timeline.events)
                timelines[index].append(timeline.times)
                curves[index].append([point.rouge_1 for point in result.learning_curve])
                if repetition == 0:
                    finals.append(result.final_rouge)
                    streamed += len(env.stream_corpus)
        time.sleep(WINDOW)  # kernel runs after the last run, for its rescaling
    setup_measured = [end - start for start, end in setup_spans]
    setup_seconds = [host.rescale(span)[-1] for span in setup_spans]

    problems: List[str] = []
    run_seconds: List[float] = []
    round_ms: List[float] = []
    for index, (method, framework_seed) in enumerate(runs):
        name = f"{method}/{framework_seed}"
        curve = curves[index][0]
        if len(curve) < 2:
            problems.append(f"{name}: no fine-tune round")
        if not all(0.0 <= value <= 1.0 and math.isfinite(value) for value in curve):
            problems.append(f"{name}: ROUGE-1 out of range")
        if any(other != curve for other in curves[index][1:]):
            problems.append(f"{name}: repetitions gave different learning curves")
        if any(other != events[index][0] for other in events[index][1:]):
            problems.append(f"{name}: repetitions went through different pipeline steps")
            continue
        offsets = median_segments([host.rescale(times) for times in timelines[index]])
        run_seconds.append(offsets[-1])
        evals = [position for position, event in enumerate(events[index][0]) if event == EVAL]
        round_ms.extend(1e3 * (offsets[end] - offsets[begin]) for begin, end in zip(evals, evals[1:]))

    checks = {"learning_curves_valid_and_repeatable": not problems}
    try:
        tail = tail_summary(round_ms, TAIL)
        checks["tail_percentile_supported"] = True
    except PercentileError as error:
        tail = {"p50": statistics.median(round_ms) if round_ms else 0.0, "p70": 0.0, "error": str(error)}
        checks["tail_percentile_supported"] = False
    stream_s = sum(run_seconds)
    by_method: Dict[str, List[List[float]]] = {method: [] for method in DEFAULT_METHODS}
    for (method, _), repeated in zip(runs, curves):
        by_method[method].append(repeated[0])
    ours_final = [final for (method, _), final in zip(runs, finals) if method == "ours"]
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "p50_ms": tail["p50"],
        "tail_ms": tail["p70"],
        "throughput_per_s": streamed / stream_s if stream_s else 0.0,
        # Every method's final ROUGE-1, not only ``ours``: an accuracy change
        # moves all of them, and the 12-run mean swings less across seeds.
        "rouge1": statistics.fmean(finals),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "setup_seconds": setup_seconds,
        "setup_measured_seconds": setup_measured,
        "host_speed": host.summary(),
        "repetitions": repetitions,
        "framework_seeds": framework_seeds,
        "latency": {"of": "fine-tune round", "n": len(round_ms), "tail": f"p{TAIL * 100:g}"},
        "stream_runs": len(runs),
        "stream_s": stream_s,
        "stream_s_measured_mean": sum(wall_seconds) / repetitions,
        "round_ms": tail,
        "rouge1_ours_mean": statistics.fmean(ours_final),
        "rouge1_ours_final": ours_final,
        "learning_curves": by_method,
        "problems": problems,
        # Stable fingerprint of the accuracy results (tracing must not move it).
        "transcript_digest": hashlib.sha256(
            json.dumps(by_method, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }
    return WorkloadResult(
        metrics=metrics,
        attempted=len(runs) * repetitions,
        failed=len(problems),
        checks=checks,
        detail=detail,
    )
