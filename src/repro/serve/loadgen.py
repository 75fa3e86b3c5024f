"""Deterministic synthetic load for the multi-tenant serving layer.

Builds a reproducible mixed workload over ``N`` users: each user owns a
small synthetic corpus (its own persona over the chosen dataset analogue's
domains), chat questions are drawn from that corpus in order, and every
``personalize_every``-th request of a user becomes a
:class:`~repro.serve.scheduler.PersonalizeRequest` carrying the user's next
few annotated dialogue sets.  The interleaving across users comes from one
seeded generator, so a fixed seed yields an identical request sequence —
the foundation of the serve smoke test's transcript-digest check.

Also provides :func:`build_serving_llm`, the shared pre-trained base model
for a serving run (same recipe the experiment environments use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.data.synthetic import dataset_preset, make_generator
from repro.experiments.presets import ExperimentScale, get_scale
from repro.llm.model import OnDeviceLLM
from repro.llm.pretrain import PretrainConfig, build_pretrained_llm
from repro.serve.scheduler import ChatRequest, PersonalizeRequest, Request
from repro.utils.config import require_non_negative, require_positive
from repro.utils.rng import as_generator


@dataclass
class LoadConfig:
    """Shape of one synthetic serving workload."""

    num_users: int = 8
    num_requests: int = 64
    dataset: str = "meddialog"
    personalize_every: int = 8
    dialogues_per_personalize: int = 3
    corpus_size_per_user: int = 24
    chat_only: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive("num_users", self.num_users)
        require_positive("num_requests", self.num_requests)
        require_positive("personalize_every", self.personalize_every)
        require_positive("dialogues_per_personalize", self.dialogues_per_personalize)
        require_positive("corpus_size_per_user", self.corpus_size_per_user)
        require_non_negative("seed", self.seed)
        dataset_preset(self.dataset)


def user_ids(num_users: int) -> List[str]:
    """The canonical user ids of a synthetic load (``user-00``, ``user-01``, ...)."""
    return [f"user-{index:02d}" for index in range(num_users)]


def generate_load(
    config: LoadConfig, lexicons: Optional[LexiconCollection] = None
) -> List[Request]:
    """The full request sequence of one workload (deterministic per config).

    Request ids follow submission order.  Per-user content cursors wrap
    around their corpus, so arbitrarily long workloads stay well-defined.
    """
    lexicons = lexicons or builtin_lexicons()
    ids = user_ids(config.num_users)
    questions: List[List[str]] = []
    dialogue_pools: List[list] = []
    for index in range(config.num_users):
        generator = make_generator(
            config.dataset,
            size=config.corpus_size_per_user,
            seed=config.seed + 977 * (index + 1),
            lexicons=lexicons,
        )
        corpus = generator.generate()
        questions.append([dialogue.question for dialogue in corpus])
        dialogue_pools.append(corpus.dialogues())

    rng = as_generator(config.seed)
    question_cursor = [0] * config.num_users
    dialogue_cursor = [0] * config.num_users
    per_user_count = [0] * config.num_users
    requests: List[Request] = []
    for request_id in range(config.num_requests):
        user_index = int(rng.integers(config.num_users))
        per_user_count[user_index] += 1
        is_personalize = (
            not config.chat_only
            and per_user_count[user_index] % config.personalize_every == 0
        )
        if is_personalize:
            pool = dialogue_pools[user_index]
            chosen = []
            for _ in range(config.dialogues_per_personalize):
                chosen.append(pool[dialogue_cursor[user_index] % len(pool)])
                dialogue_cursor[user_index] += 1
            requests.append(
                PersonalizeRequest(
                    user_id=ids[user_index],
                    dialogues=tuple(chosen),
                    request_id=request_id,
                )
            )
        else:
            pool_questions = questions[user_index]
            question = pool_questions[question_cursor[user_index] % len(pool_questions)]
            question_cursor[user_index] += 1
            requests.append(
                ChatRequest(user_id=ids[user_index], question=question, request_id=request_id)
            )
    return requests


def build_serving_llm(
    scale: Optional[ExperimentScale] = None,
    dataset: str = "meddialog",
    seed: int = 0,
    lexicons: Optional[LexiconCollection] = None,
    pretrain_epochs: Optional[int] = None,
) -> OnDeviceLLM:
    """Pre-train the shared base model a serving run multiplexes.

    Uses the same corpus + pre-training recipe as the experiment
    environments, so serving rides on a model that already speaks the
    ``question <sep> response`` dialogue format.
    """
    scale = scale or get_scale("smoke", seed=seed)
    lexicons = lexicons or builtin_lexicons()
    corpus_generator = make_generator(
        dataset,
        size=scale.corpus_size,
        seed=seed,
        lexicons=lexicons,
    )
    corpus = corpus_generator.generate()
    epochs = pretrain_epochs if pretrain_epochs is not None else scale.pretrain_epochs
    return build_pretrained_llm(
        corpus,
        llm_config=scale.llm,
        pretrain_config=PretrainConfig(epochs=epochs, seed=seed),
    )
