"""User persona model.

On-device personalization means the model must learn *this user's* preferred
way of being answered.  The synthetic corpora encode that with a
:class:`UserPersona`: a deterministic response style (signature opening and
closing phrases, a per-domain style phrase, and keyword echoing) that is used
to produce the gold (user-preferred) responses.  The pre-trained, generic
model knows nothing about the persona, so the measurable personalization gap
is exactly the gap the paper's framework is designed to close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.data.lexicons import LexiconCollection
from repro.tokenizer.word_tokenizer import split_words
from repro.utils.rng import as_generator

_OPENINGS = (
    "well dear friend",
    "right then my friend",
    "listen closely friend",
    "alright let us see",
    "good question indeed",
    "ah yes of course",
    "thanks for asking me",
    "sure thing my dear",
    "happy to help here",
    "let me think aloud",
)

_CLOSINGS = (
    "hope that helps you today",
    "take gentle care of yourself",
    "wishing you a calm evening",
    "always here to help you",
    "let me know how it goes",
    "stay safe and be well",
    "talk again whenever you like",
    "sending you my best wishes",
    "glad we could sort this",
    "come back anytime for more",
)

_DOMAIN_STYLE_PHRASES = (
    "remember to keep steady notes about",
    "my honest advice is to focus on",
    "from experience the key point is",
    "please be careful and mindful about",
    "the simplest plan is to start with",
    "it usually works best to review",
    "a sensible first step is checking",
    "the thing that matters most is",
    "people often overlook the detail of",
    "try writing down a list covering",
)

_GENERIC_FALLBACKS = (
    "that sounds lovely thanks for sharing",
    "glad to hear from you again today",
    "interesting thought let us keep chatting",
)

_FILLER_ACKS = (
    "nice chatting with you",
    "sure sounds good",
    "okay talk soon",
    "haha yes indeed",
    "alright no worries",
)

_CLARIFYING_TEMPLATES = (
    "could you tell me a bit more about {keyword} first",
    "hmm what exactly do you mean about {keyword}",
    "can you give me an example about {keyword}",
)


@dataclass
class UserPersona:
    """A deterministic user response style used to create gold annotations.

    The style has a user-wide part (opening and closing phrases) and a
    domain-dependent part: for every domain the user has a preferred style
    phrase *and* a small "go-to vocabulary" of domain words they want to see
    in answers (e.g. a user who always wants dosage/pharmacist mentioned in
    medication answers).  The domain-dependent part is what makes buffer
    domain coverage matter: a model fine-tuned without any examples of a
    domain cannot know this user's go-to vocabulary for it.
    """

    opening: str
    closing: str
    domain_phrases: Dict[str, str] = field(default_factory=dict)
    domain_vocabulary: Dict[str, List[str]] = field(default_factory=dict)
    echo_keywords: int = 2
    name: str = "user"

    @classmethod
    def sample(
        cls,
        domains: Sequence[str],
        rng=None,
        lexicons: Optional[LexiconCollection] = None,
        vocabulary_per_domain: int = 6,
        echo_keywords: int = 2,
        name: str = "user",
    ) -> "UserPersona":
        """Create a persona with a random but reproducible style.

        When ``lexicons`` is given, the per-domain go-to vocabulary is drawn
        from each domain's own lexicon; otherwise it is left empty.
        """
        generator = as_generator(rng)
        opening = _OPENINGS[int(generator.integers(len(_OPENINGS)))]
        closing = _CLOSINGS[int(generator.integers(len(_CLOSINGS)))]
        # Assign style phrases without replacement (cycling if there are more
        # domains than phrases) so that distinct domains get distinct phrases
        # and buffer domain coverage translates into distinct learnable content.
        phrase_order = generator.permutation(len(_DOMAIN_STYLE_PHRASES))
        phrases = {
            domain: _DOMAIN_STYLE_PHRASES[int(phrase_order[index % len(_DOMAIN_STYLE_PHRASES)])]
            for index, domain in enumerate(domains)
        }
        vocabulary: Dict[str, List[str]] = {}
        if lexicons is not None:
            for domain in domains:
                if domain not in lexicons:
                    continue
                words = sorted(lexicons.get(domain).words)
                count = min(vocabulary_per_domain, len(words))
                picks = generator.choice(len(words), size=count, replace=False)
                vocabulary[domain] = [words[int(i)] for i in picks]
        return cls(
            opening=opening,
            closing=closing,
            domain_phrases=phrases,
            domain_vocabulary=vocabulary,
            echo_keywords=echo_keywords,
            name=name,
        )

    # ------------------------------------------------------------------ #
    def keywords_from_question(
        self, question: str, lexicons: Optional[LexiconCollection] = None
    ) -> List[str]:
        """Content keywords of a question (lexicon words first, then longest)."""
        tokens = split_words(question)
        if lexicons is not None:
            lexicon_words = [
                token
                for token in tokens
                if any(token in lexicon for lexicon in lexicons)
            ]
        else:
            lexicon_words = []
        remaining = [token for token in tokens if token not in lexicon_words and len(token) > 4]
        ordered = lexicon_words + sorted(remaining, key=len, reverse=True)
        deduplicated: List[str] = []
        for token in ordered:
            if token not in deduplicated:
                deduplicated.append(token)
        return deduplicated[: self.echo_keywords]

    def _vocabulary_subset(
        self, domain: str, keywords: Sequence[str], count: Optional[int] = None
    ) -> List[str]:
        """The go-to vocabulary the user expects in answers for ``domain``.

        By default the full per-domain vocabulary is returned (the user always
        wants these words covered); passing ``count`` selects a deterministic,
        keyword-keyed slice instead, which makes within-domain diversity matter
        more (used in ablations).
        """
        vocabulary = self.domain_vocabulary.get(domain, [])
        if not vocabulary:
            return []
        if count is None or count >= len(vocabulary):
            return list(vocabulary)
        anchor = sum(len(keyword) for keyword in keywords) + len(keywords)
        start = anchor % len(vocabulary)
        return [vocabulary[(start + offset) % len(vocabulary)] for offset in range(count)]

    def preferred_response(
        self,
        question: str,
        domain: Optional[str],
        lexicons: Optional[LexiconCollection] = None,
        vocabulary_count: Optional[int] = None,
    ) -> str:
        """The gold response this user would prefer for a substantive question.

        Structure: opening + per-domain style phrase + echoed question
        keywords + a slice of the user's per-domain go-to vocabulary +
        closing.  ``vocabulary_count`` controls how much of the go-to
        vocabulary the answer covers: questions that carry more information
        (more domain keywords) elicit richer preferred answers, which is what
        makes *informative* dialogue sets more valuable to select.  The
        domain-dependent middle carries most of the tokens, so ROUGE-1 against
        these references rewards fine-tuning data that covers the domain.
        Unknown/None domains get a generic fallback phrase so off-domain
        questions still have a well-defined gold response.
        """
        keywords = self.keywords_from_question(question, lexicons=lexicons)
        if domain is not None and domain in self.domain_phrases:
            style = self.domain_phrases[domain]
            vocabulary = self._vocabulary_subset(domain, keywords, count=vocabulary_count)
        else:
            style = _GENERIC_FALLBACKS[len(question) % len(_GENERIC_FALLBACKS)]
            vocabulary = []
        middle_tokens = [style] + keywords + list(vocabulary)
        middle = " ".join(token for token in middle_tokens if token).strip()
        return f"{self.opening} {middle} {self.closing}"

    def clarifying_response(self, question: str, lexicons: Optional[LexiconCollection] = None) -> str:
        """The user's preferred reply to a vague ("thin") question.

        Realistic users cannot state a substantive preference for a question
        that carries little information; they prefer a short clarifying
        question instead.  Such annotations are far less useful for
        personalization — which is why selecting thin dialogue sets wastes
        buffer space.
        """
        keywords = self.keywords_from_question(question, lexicons=lexicons)
        keyword = keywords[0] if keywords else "that"
        template = _CLARIFYING_TEMPLATES[len(question) % len(_CLARIFYING_TEMPLATES)]
        return template.format(keyword=keyword)

    def filler_response(self, question: str) -> str:
        """The user's preferred reply to pure small talk: a short acknowledgement."""
        return _FILLER_ACKS[len(question) % len(_FILLER_ACKS)]


def generic_model_response(question: str, rng=None) -> str:
    """A bland, persona-free response imitating the pre-trained model's answers.

    This is what the deployed generic LLM would say before any
    personalization; it deliberately shares few tokens with the persona's
    preferred responses.
    """
    generator = as_generator(rng)
    templates = (
        "here is some general information regarding {topic}",
        "there are many possible answers about {topic} depending on context",
        "i can provide a brief overview of {topic} if that is useful",
        "a standard reference would describe {topic} in more detail",
    )
    tokens = [token for token in split_words(question) if len(token) > 4]
    topic = " ".join(tokens[:2]) if tokens else "that"
    template = templates[int(generator.integers(len(templates)))]
    return template.format(topic=topic)
