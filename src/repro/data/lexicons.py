"""Domain lexicons.

The paper's Domain Specific Score (DSS, Eq. 2) relies on a pre-stored
dictionary of domain lexicons (its Table 1 shows medical, emotion and GloVe
clusters).  This module ships a built-in collection in the same spirit:
several topical domains, each a high-level label indexing a flat list of
lexicon words.  The synthetic corpora draw their content words from the same
lexicons, so domain membership is well-defined end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.tokenizer.word_tokenizer import split_words


@dataclass(frozen=True)
class DomainLexicon:
    """A named domain with its lexicon word set."""

    name: str
    words: frozenset = field(default_factory=frozenset)

    @staticmethod
    def from_words(name: str, words: Iterable[str]) -> "DomainLexicon":
        """Build a lexicon, lower-casing and deduplicating the words."""
        return DomainLexicon(name=name, words=frozenset(w.lower() for w in words))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.words


class LexiconCollection:
    """The collection ``L = {l_1, ..., l_m}`` of domain lexicons."""

    def __init__(self, lexicons: Sequence[DomainLexicon]) -> None:
        if not lexicons:
            raise ValueError("LexiconCollection requires at least one lexicon")
        names = [lexicon.name for lexicon in lexicons]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate lexicon names: {names}")
        self._lexicons: Dict[str, DomainLexicon] = {lex.name: lex for lex in lexicons}

    def __len__(self) -> int:
        return len(self._lexicons)

    def __iter__(self):
        return iter(self._lexicons.values())

    def __contains__(self, name: str) -> bool:
        return name in self._lexicons

    @property
    def names(self) -> List[str]:
        """Domain names in insertion order."""
        return list(self._lexicons.keys())

    def get(self, name: str) -> DomainLexicon:
        """The lexicon named ``name`` (raises ``KeyError`` if unknown)."""
        if name not in self._lexicons:
            raise KeyError(f"unknown domain {name!r}; known: {self.names}")
        return self._lexicons[name]

    def subset(self, names: Sequence[str]) -> "LexiconCollection":
        """A new collection restricted to ``names`` (order preserved)."""
        return LexiconCollection([self.get(name) for name in names])

    def overlap_counts(self, text: str) -> Dict[str, int]:
        """``|T ∩ l_i|`` for every domain ``l_i``."""
        return self.overlap_counts_from_tokens(split_words(text))

    def overlap_counts_from_tokens(self, tokens: Sequence[str]) -> Dict[str, int]:
        """``|T ∩ l_i|`` per domain for an already-tokenized text.

        Each count is the number of tokens (with multiplicity) found in that
        domain's lexicon; the text is split once for every domain.
        """
        return {
            name: sum(1 for token in tokens if token in lexicon.words)
            for name, lexicon in self._lexicons.items()
        }

    def dominant_domain(self, text: str) -> Optional[str]:
        """``argmax_i |T ∩ l_i|`` (Eq. 3); ``None`` when no domain overlaps."""
        return self.dominant_from_counts(self.overlap_counts(text))

    @staticmethod
    def dominant_from_counts(counts: Dict[str, int]) -> Optional[str]:
        """The argmax domain of precomputed overlap counts (ties: first wins)."""
        best_name, best_count = None, 0
        for name, count in counts.items():
            if count > best_count:
                best_name, best_count = name, count
        return best_name

    def vocabulary(self) -> List[str]:
        """All lexicon words across all domains (sorted, deduplicated)."""
        words = set()
        for lexicon in self._lexicons.values():
            words.update(lexicon.words)
        return sorted(words)


# --------------------------------------------------------------------------- #
# Built-in lexicons (Table 1 analogue, extended with extra topical domains so
# the six synthetic corpora have distinct domain structure).
# --------------------------------------------------------------------------- #

_MEDICAL_ADMIN = """
dose vial inhale inject ml pills ingredient tablet capsule syringe prescription
refill pharmacy dosage milligram injection topical oral intravenous applicator
bandage gauze swab sterile dispenser expiry inhaler nebulizer suppository
""".split()

_MEDICAL_ANATOMY = """
pelvis arm sinus breast chest lymph tonsil femur spine cranium knee ankle wrist
shoulder elbow liver kidney lung heart artery vein nerve muscle tendon ligament
retina cornea eardrum abdomen thorax vertebra rib clavicle scapula
""".split()

_MEDICAL_DRUG = """
acova actonel cartia emgel ibuprofen acetaminophen amoxicillin insulin statin
metformin lisinopril omeprazole albuterol prednisone warfarin antibiotic
antihistamine analgesic antiviral sedative vaccine penicillin aspirin codeine
""".split()

_MEDICAL_SYMPTOM = """
fever cough headache nausea fatigue dizziness rash swelling inflammation pain
migraine cramp congestion sore itching numbness tremor palpitation insomnia
vomiting diarrhea chills sweating wheezing shortness breathlessness anxiety
""".split()

_EMOTION_FEAR = """
bunker cartridge cautionary chasm cleave terrified afraid panic dread horror
nightmare startled anxious scared frightened trembling nervous worried spooked
alarm threat danger ominous eerie menacing petrified phobia
""".split()

_EMOTION_SURPRISE = """
amazingly hilarious lucky merriment astonished unexpected shocking incredible
unbelievable stunned speechless marvel wonder gasp startling sudden remarkable
extraordinary jawdropping serendipity windfall miracle dazzled awestruck
""".split()

_EMOTION_TRUST = """
advocate alliance canons cohesion reliable faithful loyal honest dependable
sincere devoted trustworthy confide assurance integrity bond commitment promise
supportive steadfast genuine transparent credible reassure
""".split()

_EMOTION_JOY = """
delighted cheerful gleeful joyful ecstatic elated thrilled blissful content
grateful radiant jubilant festive celebrate laughter smiling sunshine uplifting
heartwarming wonderful proud hopeful excited overjoyed
""".split()

_EMOTION_SADNESS = """
grief sorrow mourning heartbroken lonely despair gloomy tearful weeping
melancholy downcast miserable regret loss devastated hopeless crying homesick
disappointed hurt abandoned empty aching grieving
""".split()

_GLOVE_TW26 = """
extreme potential activity impact movement dynamic trending viral engagement
hashtag follower retweet influencer momentum buzz reach spike surge
""".split()

_GLOVE_CC41 = """
symptomatic thrombosis fibrillation embolism ischemia stenosis lesion edema
carcinoma neuropathy sepsis hypertension arrhythmia biopsy prognosis pathology
""".split()

_GLOVE_TW75 = """
nyquil benadryl midol pepto ritalin tylenol advil claritin zyrtec mucinex
dayquil sudafed robitussin excedrin motrin aleve
""".split()

_TECH = """
compiler algorithm database server network latency bandwidth processor cache
kernel thread container deployment api framework debugging encryption firmware
gpu throughput protocol compiler runtime microservice quantization embedded
""".split()

_FINANCE = """
portfolio dividend equity liability asset interest mortgage inflation budget
invoice revenue expense audit ledger liquidity hedge arbitrage bond yield
credit debit savings retirement annuity premium
""".split()

_COOKING = """
saute simmer marinade whisk julienne braise roast garnish seasoning broth
casserole dough batter yeast caramelize zest skillet oven spatula recipe
ingredient teaspoon tablespoon garlic basil oregano cumin
""".split()

_TRAVEL = """
itinerary passport boarding layover hostel visa customs luggage departure
arrival excursion souvenir backpacking roundtrip terminal reservation airfare
destination sightseeing museum cathedral canyon coastline
""".split()

_SAFETY = """
respectful considerate apologize boundaries consent harmful offensive polite
deescalate empathy inclusive discrimination harassment wellbeing responsible
caution guideline appropriate kindness civility dignity
""".split()


_BUILTIN_DEFINITIONS: Tuple[Tuple[str, List[str]], ...] = (
    ("medical_admin", _MEDICAL_ADMIN),
    ("medical_anatomy", _MEDICAL_ANATOMY),
    ("medical_drug", _MEDICAL_DRUG),
    ("medical_symptom", _MEDICAL_SYMPTOM),
    ("emotion_fear", _EMOTION_FEAR),
    ("emotion_surprise", _EMOTION_SURPRISE),
    ("emotion_trust", _EMOTION_TRUST),
    ("emotion_joy", _EMOTION_JOY),
    ("emotion_sadness", _EMOTION_SADNESS),
    ("glove_tw26", _GLOVE_TW26),
    ("glove_cc41", _GLOVE_CC41),
    ("glove_tw75", _GLOVE_TW75),
    ("tech", _TECH),
    ("finance", _FINANCE),
    ("cooking", _COOKING),
    ("travel", _TRAVEL),
    ("safety", _SAFETY),
)


def builtin_lexicons() -> LexiconCollection:
    """The full built-in lexicon collection (17 domains)."""
    return LexiconCollection(
        [DomainLexicon.from_words(name, words) for name, words in _BUILTIN_DEFINITIONS]
    )


def builtin_domain_names() -> List[str]:
    """Names of all built-in domains."""
    return [name for name, _ in _BUILTIN_DEFINITIONS]
