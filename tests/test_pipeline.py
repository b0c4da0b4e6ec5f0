"""Assignment-to-config translation and the corpus objective factory."""

from __future__ import annotations

import numpy as np
import pytest

from textopt.data import split_corpus, synthetic_corpus
from textopt.pipeline import (
    assignment_to_configs,
    evaluate_assignment,
    make_objective,
    report_values,
)
from textopt.smbo import run
from textopt.space import sample_prior, text_rep_space
from textopt.textrep import load_stopwords
from textopt.tpe import TpeParams

FULL_ASSIGNMENT = {
    "n_min": 1,
    "n_span|n_min=1": 1,
    "weighting": "tf-idf",
    "remove_stopwords": False,
    "regularizer": "l2",
    "strength": 10.0,
    "tolerance": 1e-4,
}


class TestAssignmentToConfigs:
    def test_span_child_derives_n_max(self):
        rep, cfg = assignment_to_configs(FULL_ASSIGNMENT)
        assert (rep.n_min, rep.n_max) == (1, 2)
        assert rep.weighting == "tfidf"
        assert cfg.penalty == "l2"
        assert cfg.strength == 10.0
        assert cfg.tolerance == 1e-4

    def test_explicit_n_max_supported(self):
        a = dict(FULL_ASSIGNMENT)
        del a["n_span|n_min=1"]
        a["n_max"] = 3
        rep, _ = assignment_to_configs(a)
        assert rep.n_max == 3

    def test_missing_nodes_reported(self):
        with pytest.raises(ValueError, match="strength"):
            assignment_to_configs({"n_min": 1, "n_max": 1})

    def test_every_prior_sample_translates(self):
        space = text_rep_space()
        for seed in range(40):
            rep, cfg = assignment_to_configs(sample_prior(space, np.random.default_rng(seed)))
            assert 1 <= rep.n_min <= rep.n_max <= 3


class TestReportValues:
    def test_seven_canonical_fields(self):
        values = report_values(FULL_ASSIGNMENT)
        assert values == {
            "n_min": 1,
            "n_max": 2,
            "weighting": "tf-idf",
            "remove_stopwords": False,
            "regularizer": "l2",
            "strength": 10.0,
            "tolerance": 1e-4,
        }

    def test_missing_fields_dash(self):
        values = report_values({"weighting": "tf"})
        assert values["n_min"] == "-"
        assert values["n_max"] == "-"
        assert values["weighting"] == "tf"


@pytest.fixture(scope="module")
def small_corpora():
    corpus = synthetic_corpus(250, vocab_size=30, signal_strength=0.9, seed=0)
    return split_corpus(corpus, 0.2, seed=0)


class TestObjective:
    def test_cache_consistency(self, small_corpora):
        train_c, dev_c = small_corpora
        objective = make_objective(train_c, dev_c, frozenset())
        first = objective(FULL_ASSIGNMENT)
        second = objective(FULL_ASSIGNMENT)  # counts served from the shared featurizer
        fresh = evaluate_assignment(FULL_ASSIGNMENT, train_c, dev_c, frozenset())
        assert first == second == fresh

    def test_signal_corpus_scores_high(self, small_corpora):
        train_c, dev_c = small_corpora
        objective = make_objective(train_c, dev_c, frozenset())
        assert objective(FULL_ASSIGNMENT) >= 0.8

    def test_weighting_changes_reuse_counts_but_not_values(self, small_corpora):
        train_c, dev_c = small_corpora
        objective = make_objective(train_c, dev_c, frozenset())
        tf_assignment = dict(FULL_ASSIGNMENT, weighting="tf")
        binary_assignment = dict(FULL_ASSIGNMENT, weighting="binary")
        assert objective(tf_assignment) == evaluate_assignment(
            tf_assignment, train_c, dev_c, frozenset()
        )
        assert objective(binary_assignment) == evaluate_assignment(
            binary_assignment, train_c, dev_c, frozenset()
        )

    def test_cached_search_equals_uncached_search(self, small_corpora):
        train_c, dev_c = small_corpora
        stoplist = load_stopwords()
        space = text_rep_space()
        cached = run(space, make_objective(train_c, dev_c, stoplist), 30, TpeParams(seed=3))
        uncached = run(
            space,
            lambda a: evaluate_assignment(a, train_c, dev_c, stoplist),
            30,
            TpeParams(seed=3),
        )
        assert [(r.assignment, r.y) for r in cached.history] == [
            (r.assignment, r.y) for r in uncached.history
        ]

    @pytest.mark.parametrize("cache_size", [0, 1])
    def test_small_caches_give_uncached_values(self, small_corpora, cache_size):
        train_c, dev_c = small_corpora
        objective = make_objective(train_c, dev_c, frozenset(), cache_size=cache_size)
        other = dict(FULL_ASSIGNMENT, n_min=2, **{"n_span|n_min=2": 0})
        del other["n_span|n_min=1"]
        fresh = evaluate_assignment(FULL_ASSIGNMENT, train_c, dev_c, frozenset())
        assert [objective(FULL_ASSIGNMENT), objective(other), objective(FULL_ASSIGNMENT)] == [
            fresh,
            evaluate_assignment(other, train_c, dev_c, frozenset()),
            fresh,
        ]

    def test_negative_cache_size_rejected(self, small_corpora):
        train_c, dev_c = small_corpora
        with pytest.raises(ValueError, match="cache size"):
            make_objective(train_c, dev_c, frozenset(), cache_size=-1)
