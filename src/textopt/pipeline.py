"""Wiring from hyperparameter assignments to featurize/train/score evaluations."""

from __future__ import annotations

from typing import Callable

from .data import LabeledCorpus
from .logreg import LabeledRows, Model, TrainConfig, evaluate_accuracy, train
from .space import Assignment
from .textrep import (
    Featurizer,
    RepresentationConfig,
    Vocabulary,
    build_vocabulary,
    vectorize_corpus,
)

# Space-file spelling of the tf-idf scheme vs the internal identifier.
_WEIGHTING_ALIASES = {"tf-idf": "tfidf"}

# Canonical hyperparameter columns, matching the assignment node names.
REPORT_FIELDS = (
    "n_min",
    "n_max",
    "weighting",
    "remove_stopwords",
    "regularizer",
    "strength",
    "tolerance",
)


def _derive_n_max(assignment: Assignment) -> int | None:
    if "n_max" in assignment:
        return int(assignment["n_max"])
    if "n_min" not in assignment:
        return None
    span_keys = [k for k in assignment if k.startswith("n_span")]
    if not span_keys:
        return None
    return int(assignment["n_min"]) + int(assignment[span_keys[0]])


def assignment_to_configs(assignment: Assignment) -> tuple[RepresentationConfig, TrainConfig]:
    """Translate an assignment into featurization and training configurations.

    Expects the canonical node names: n_min, an n_span child (or n_max),
    weighting, remove_stopwords, regularizer, strength, tolerance.
    """
    n_max = _derive_n_max(assignment)
    missing = [
        key
        for key in ("n_min", "weighting", "remove_stopwords", "regularizer", "strength", "tolerance")
        if key not in assignment
    ]
    if n_max is None:
        missing.insert(1, "n_max (or an n_span child)")
    if missing:
        raise ValueError(f"assignment lacks required nodes: {', '.join(missing)}")
    weighting = str(assignment["weighting"])
    rep = RepresentationConfig(
        n_min=int(assignment["n_min"]),
        n_max=n_max,
        weighting=_WEIGHTING_ALIASES.get(weighting, weighting),
        remove_stopwords=bool(assignment["remove_stopwords"]),
    )
    cfg = TrainConfig(
        penalty=str(assignment["regularizer"]),
        strength=float(assignment["strength"]),
        tolerance=float(assignment["tolerance"]),
    )
    return rep, cfg


def report_values(assignment: Assignment) -> dict[str, object]:
    """The canonical hyperparameter values of an assignment; '-' when absent."""
    values: dict[str, object] = {field: "-" for field in REPORT_FIELDS}
    for field in REPORT_FIELDS:
        if field in assignment:
            values[field] = assignment[field]
    n_max = _derive_n_max(assignment)
    if n_max is not None:
        values["n_max"] = n_max
    return values


def _labels(corpus: LabeledCorpus) -> list[str]:
    return [label for _, label in corpus.documents]


def _fit_and_score(
    assignment: Assignment,
    featurizer: Featurizer,
    train_corpus: LabeledCorpus,
    eval_corpus: LabeledCorpus | None = None,
) -> tuple[Model, Vocabulary, RepresentationConfig, float | None]:
    """Featurize, train on the featurizer's training texts, and score its first scored part.

    ``featurizer`` holds ``train_corpus``'s texts and, when ``eval_corpus`` is
    given, its texts as the first scored part.  Returns the model, vocabulary,
    representation config and accuracy on ``eval_corpus`` (None without one).
    """
    rep, cfg = assignment_to_configs(assignment)
    stoplist = featurizer.stoplist
    vocab = build_vocabulary(featurizer.train, rep, stoplist)
    vectors = [vectorize_corpus(part, vocab, rep, stoplist) for part in featurizer.parts]
    model = train(LabeledRows(vectors[0].matrix, _labels(train_corpus)), cfg, train_corpus.labels)
    if eval_corpus is None:
        return model, vocab, rep, None
    accuracy = evaluate_accuracy(model, LabeledRows(vectors[1].matrix, _labels(eval_corpus)))
    return model, vocab, rep, accuracy


def evaluate_assignment(
    assignment: Assignment,
    train_corpus: LabeledCorpus,
    eval_corpus: LabeledCorpus,
    stoplist: frozenset[str],
) -> float:
    """One featurize/train/score pass: accuracy of the trained model on eval_corpus."""
    featurizer = Featurizer(train_corpus.texts, [eval_corpus.texts], stoplist)
    return _fit_and_score(assignment, featurizer, train_corpus, eval_corpus)[3]


def fit_assignment(
    assignment: Assignment, train_corpus: LabeledCorpus, stoplist: frozenset[str]
) -> tuple[Model, Vocabulary, RepresentationConfig]:
    """Featurize the training corpus per the assignment and train a model on it."""
    featurizer = Featurizer(train_corpus.texts, (), stoplist)
    return _fit_and_score(assignment, featurizer, train_corpus)[:3]


def make_objective(
    train_corpus: LabeledCorpus,
    dev_corpus: LabeledCorpus,
    stoplist: frozenset[str],
    cache_size: int = 12,
) -> Callable[[Assignment], float]:
    """Dev-accuracy objective over (train, dev); with ``cache_size`` > 0, counts are kept.

    With a positive ``cache_size``, one featurizer over train and dev texts
    serves every trial: it keeps one count matrix of n-gram lengths 1 to 3
    per stopword setting, whose columns each cell selects, so every positive
    size behaves the same.  With ``cache_size=0`` each trial counts with a
    fresh featurizer, and nothing is kept.
    Weighting is applied on every trial, so cached and uncached evaluations
    of the same assignment return identical values.
    """
    if cache_size < 0:
        raise ValueError(f"cache size must be non-negative, got {cache_size}")
    if cache_size == 0:
        return lambda a: evaluate_assignment(a, train_corpus, dev_corpus, stoplist)
    featurizer = Featurizer(train_corpus.texts, [dev_corpus.texts], stoplist)

    def objective(assignment: Assignment) -> float:
        return _fit_and_score(assignment, featurizer, train_corpus, dev_corpus)[3]

    return objective
