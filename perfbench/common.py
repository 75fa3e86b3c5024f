"""Pieces every workload shares: the result record, clocks, memory, stamps."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from tracer import Span, Tracer

clock = time.perf_counter
#: Boots per run: ``setup_s`` is their median.
SETUPS = 3
SCALE = "smoke"
DATASET = "meddialog"
#: Seed of the served base model (its pretraining corpus and weights).  The
#: serving workloads keep the deployed model fixed and draw only the
#: traffic from the workload seed, so a seed changes what users ask, not
#: which model answers.
MODEL_SEED = 0


@dataclass
class WorkloadResult:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    #: Named figures beyond the end-to-end metrics: per-workload latencies
    #: with their sample counts, generator lateness, digests, curves.
    detail: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    #: Per-layer inputs that are not spans.
    state_mb: float = 0.0
    client_failed: int = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def phase(tracer: Optional[Tracer], name: str, request: Optional[str] = None):
    """A benchmark-level span when tracing, a no-op otherwise."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, request=request)


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set size of this process (plus waited children)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        total_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return total_kb / 1024.0


def entries_digest(entries: List[dict]) -> str:
    """Order-independent SHA-256 of transcript entries keyed by request id."""
    ordered = sorted(entries, key=lambda entry: json.dumps(entry, sort_keys=True))
    encoded = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def population(num_users: int, corpus_size: int = 24) -> Dict[str, list]:
    """The fixed users of the serving workloads and their dialogue corpora.

    User ``i`` gets the persona and corpus ``repro.serve.loadgen`` would draw
    for it at seed ``MODEL_SEED``.  Keeping the people fixed matters: with a
    persona redrawn per seed, two users' domain mix alone moved the session's
    ROUGE-1 between 0.21 and 0.40 across seeds.
    """
    from repro.data.lexicons import builtin_lexicons
    from repro.data.synthetic import make_generator
    from repro.serve.loadgen import user_ids

    lexicons = builtin_lexicons()
    return {
        user: make_generator(
            DATASET, size=corpus_size, seed=MODEL_SEED + 977 * (index + 1), lexicons=lexicons
        )
        .generate()
        .dialogues()
        for index, user in enumerate(user_ids(num_users))
    }


def traffic(
    seed: int,
    users: Dict[str, list],
    count: int,
    personalizes: int = 0,
    dialogues_per_personalize: int = 3,
) -> list:
    """``count`` requests drawn from the workload seed, ids in send order.

    Each request goes to a random user.  ``personalizes`` of them, at random
    positions, personalize on the next dialogue sets of a seeded shuffle of
    the user's corpus, so over a session each user offers its whole corpus
    in a seeded order (with sets drawn independently, which part of the
    corpus a user trained on, and so its answers' ROUGE-1, hung on the
    seed); every other request asks a random question from it.  Random
    positions, not every k-th request of a user: with a fixed period two
    closed-loop users phase-lock, and whether their fine-tunes collide (the
    personalize p50 read 77 or 124 ms) was decided by the seed.
    """
    import numpy as np

    from repro.serve.scheduler import ChatRequest, PersonalizeRequest

    rng = np.random.default_rng([seed, 0x7EA1])
    names = sorted(users)
    personalize_at = set(rng.choice(count, size=personalizes, replace=False).tolist())
    offered: Dict[str, List[int]] = {name: [] for name in names}
    requests = []
    for request_id in range(count):
        user = names[int(rng.integers(len(names)))]
        corpus = users[user]
        if request_id in personalize_at:
            order = offered[user]
            if len(order) < dialogues_per_personalize:
                order.extend(int(i) for i in rng.permutation(len(corpus)))
            picks = [order.pop(0) for _ in range(dialogues_per_personalize)]
            requests.append(
                PersonalizeRequest(
                    user_id=user,
                    dialogues=tuple(corpus[int(i)] for i in picks),
                    request_id=request_id,
                )
            )
        else:
            question = corpus[int(rng.integers(len(corpus)))].question
            requests.append(ChatRequest(user_id=user, question=question, request_id=request_id))
    return requests


def references(users: Dict[str, list]) -> Dict[str, Dict[str, str]]:
    """Reference answer of every question each user can ask."""
    return {
        user: {dialogue.question: dialogue.gold_response or dialogue.response for dialogue in corpus}
        for user, corpus in users.items()
    }


def mean_rouge1(pairs: List[tuple]) -> Optional[float]:
    """Mean ROUGE-1 F1 of ``(response, reference)`` pairs (None when empty)."""
    from repro.textmetrics.rouge import rouge_1_f1

    if not pairs:
        return None
    return sum(rouge_1_f1(response, reference) for response, reference in pairs) / len(pairs)


def _blas_vendor() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = blas.get("name", "unknown")
    version = blas.get("version")
    return f"{name} {version}" if version else name


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from ``.git`` directly."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = root / ".git" / text[5:]
            if ref.is_file():
                return ref.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


def environment_stamp(root: Path, seed: int, traced: bool, usable: List[int]) -> dict:
    """Where and how a result was measured; ``usable`` lists the CPUs the
    benchmark could use before it pinned itself to the first of them."""
    import numpy

    return {
        "nproc": len(usable) or os.cpu_count() or 1,
        "pinned_cpu": usable[0] if usable else None,
        "cpu_count": os.cpu_count(),
        "blas": _blas_vendor(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "traced": traced,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
