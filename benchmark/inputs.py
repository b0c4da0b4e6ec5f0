"""Inputs the benchmark generates from its seed: two corpora and a planted objective.

Identical seeds give identical inputs, on any platform: only Python's own
``random`` draws them.

The training and dev documents of each corpus are one fixed sample of token
ids.  The seed spells the ids as fresh pseudo-words, shuffles the documents
within each set, and draws a fresh test set from the same source.  So every
seed poses the same classification problem under other names and in another
order: a search's trials, and with them its cost, depend on which
configurations score best on dev, and with a freshly drawn training sample of
this size one 30-trial search took anywhere from 13 s to 28 s.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

# Stopwords every English stoplist holds; mixed into the cold corpus so that
# stopword removal changes the features.
COMMON_STOPWORDS = ("the", "of", "and", "to", "a", "in", "is", "it", "that", "for", "on", "with")

# Pseudo-words start with a letter no English stopword holds, so no spelling
# the seed draws is ever removed as a stopword.
_INITIALS = "kqxz"
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


def _zipf_cumulative(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / rank for rank in range(1, n + 1)))


def _draw(rng: random.Random, cumulative: list[float]) -> int:
    return bisect.bisect_right(cumulative, rng.random() * cumulative[-1])


def _spelling(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct pseudo-words, such as ``kabore``."""
    words: dict[str, None] = {}
    while len(words) < n:
        syllables = (rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))
        words[rng.choice(_INITIALS) + "".join(syllables)] = None
    return list(words)


def _corpus(seed: int, name: str, shape: tuple[int, int, int], draw, render):
    """Train, dev and test (text, label) lists: a fixed train/dev sample spelled by the seed."""
    source = random.Random(f"{name}-source")
    train = [draw(source) for _ in range(shape[0])]
    dev = [draw(source) for _ in range(shape[1])]
    rng = random.Random(f"{name}-{seed}")
    rng.shuffle(train)
    rng.shuffle(dev)
    test = [draw(rng) for _ in range(shape[2])]
    spelling = _spelling(rng, 4000)
    return tuple([render(doc, spelling) for doc in part] for part in (train, dev, test))


# --- optimize-cold: a topic corpus shaped like 20 Newsgroups x.graphics ---

COLD_POOL = 3000
COLD_LENGTHS = (20, 100)
COLD_CLASS_SHARE = 0.15  # share of content tokens drawn from the class's own ranking
COLD_STOPWORD_SHARE = 0.25

_cold_source = random.Random("cold-rankings")
_COLD_RANKINGS = [_cold_source.sample(range(COLD_POOL), COLD_POOL) for _ in range(3)]
_COLD_ZIPF = _zipf_cumulative(COLD_POOL)
_STOP_ZIPF = _zipf_cumulative(len(COMMON_STOPWORDS))


def _cold_doc(rng: random.Random):
    label = rng.randrange(2)
    words: list[int | str] = []
    for _ in range(rng.randint(*COLD_LENGTHS)):
        if rng.random() < COLD_STOPWORD_SHARE:
            words.append(COMMON_STOPWORDS[_draw(rng, _STOP_ZIPF)])
        elif rng.random() < COLD_CLASS_SHARE:
            words.append(_COLD_RANKINGS[1 + label][_draw(rng, _COLD_ZIPF)])
        else:
            words.append(_COLD_RANKINGS[0][_draw(rng, _COLD_ZIPF)])
    sentences = []
    start = 0
    while start < len(words):
        stop = min(len(words), start + rng.randint(5, 15))
        sentences.append([(w, rng.random() < 0.05) for w in words[start:stop]])
        start = stop
    return label, sentences


def _cold_text(doc, spelling: list[str]) -> tuple[str, str]:
    label, sentences = doc
    rendered = []
    for sentence in sentences:
        words = [(spelling[w] if isinstance(w, int) else w) + ("," if comma else "") for w, comma in sentence]
        words[0] = words[0].capitalize()
        rendered.append(" ".join(words) + ".")
    return " ".join(rendered), f"group{label}"


def cold_corpus(seed: int, shape: tuple[int, int, int]):
    """Two-class topic documents over a Zipf pool of 3000 words, as train, dev, test.

    Every content token comes from a Zipf distribution over the pool: with
    probability COLD_CLASS_SHARE in a ranking of the pool that belongs to the
    document's class, otherwise in a ranking shared by both classes.  A
    quarter of the tokens are common stopwords.  Documents hold 20 to 100
    tokens in sentences of 5 to 15 that start with a capital letter and end
    with a full stop; one word in twenty carries a comma.
    """
    return _corpus(seed, "cold", shape, _cold_doc, _cold_text)


# --- search-warm: the acceptance-criterion-5 shape with a planted marker and bigram ---

WARM_POOL = 25
WARM_LENGTHS = (20, 50)
WARM_SIGNAL = 0.7
_WARM_ZIPF = _zipf_cumulative(WARM_POOL)


def _warm_doc(rng: random.Random):
    label = rng.randrange(2)
    tokens = [_draw(rng, _WARM_ZIPF) for _ in range(rng.randint(*WARM_LENGTHS))]
    # Ids past the pool: the marker of class c is WARM_POOL + 3c, its bigram the next two.
    marker = WARM_POOL + 3 * label
    if rng.random() < WARM_SIGNAL:
        tokens.insert(rng.randrange(len(tokens) + 1), marker)
    if rng.random() < WARM_SIGNAL:
        at = rng.randrange(len(tokens) + 1)
        tokens[at:at] = [marker + 1, marker + 2]
    return label, tokens


def warm_corpus(seed: int, shape: tuple[int, int, int]):
    """Two-class documents over a 25-word Zipf pool with planted class signals.

    Each document holds 20 to 50 pool tokens.  Independently with
    probability 0.7 each, its class's marker word is inserted at a random
    position and its class's two-word bigram at another.
    """
    return _corpus(seed, "warm", shape, _warm_doc,
                   lambda doc, spelling: (" ".join(spelling[t] for t in doc[1]), f"c{doc[0]}"))


# --- suggest-long: a cheap objective over the default space ---

class PlantedObjective:
    """Score of an assignment of the default space; always in (0.25, 1.05].

    One fixed draw plants the best discrete cell (n-gram range, weighting,
    stopwords, regularizer) and optimal log10 strength and log10 tolerance.
    The score is 0.25, plus 0.1 for each discrete choice that matches the
    planted cell and 0.15 more when all five do, plus Gaussian bumps of
    height 0.1 in log10 strength (width 1.5) and 0.05 in log10 tolerance
    (width 0.5) around the planted optima.

    ``held_out`` scores with the same cell and optima that the seed moves by
    up to 0.5 in log10 strength and 0.25 in log10 tolerance: the stand-in
    for a fresh test set, on which tuning the continuous values too closely
    to the first score does not pay.

    The searched score is the same for every seed, as the corpora's train
    and dev sets are: one 300-trial search ends anywhere from 0.79 (one
    discrete choice wrong) to 1.05 depending on the planted problem, so a
    seed-drawn problem would measure the search's luck, not the program.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random("planted")
        n_min = rng.choice((1, 2, 3))
        self.cell = (
            n_min,
            rng.randint(n_min, 3),
            rng.choice(("tf", "tf-idf", "binary")),
            rng.choice((True, False)),
            rng.choice(("l1", "l2")),
        )
        self.optimum = (rng.uniform(-3.0, 3.0), rng.uniform(-4.5, -3.5))
        rng = random.Random(f"planted-held-out-{seed}")
        self.held_out_optimum = (
            self.optimum[0] + rng.uniform(-0.5, 0.5),
            self.optimum[1] + rng.uniform(-0.25, 0.25),
        )

    def __call__(self, assignment: dict) -> float:
        return self._score(assignment, self.optimum)

    def held_out(self, assignment: dict) -> float:
        return self._score(assignment, self.held_out_optimum)

    def _score(self, assignment: dict, optimum: tuple[float, float]) -> float:
        matches = sum(a == b for a, b in zip(cell_of(assignment), self.cell))
        value = 0.25 + 0.1 * matches + (0.15 if matches == len(self.cell) else 0.0)
        z_strength = (math.log10(assignment["strength"]) - optimum[0]) / 1.5
        z_tolerance = (math.log10(assignment["tolerance"]) - optimum[1]) / 0.5
        return value + 0.1 * math.exp(-0.5 * z_strength**2) + 0.05 * math.exp(-0.5 * z_tolerance**2)


def cell_of(assignment: dict) -> tuple:
    """The discrete cell of a default-space assignment: (n_min, n_max, weighting, stop, reg)."""
    n_min = assignment["n_min"]
    return (
        n_min,
        n_min + assignment[f"n_span|n_min={n_min}"],
        assignment["weighting"],
        assignment["remove_stopwords"],
        assignment["regularizer"],
    )


def write_tsv(docs: list[tuple[str, str]], path) -> None:
    """``label<TAB>text`` lines; generated texts hold no tab, newline or backslash."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{label}\t{text}\n" for text, label in docs)
