"""Acceptance criteria, one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 9 needs a
user-prepared corpus and is skipped unless TEXTOPT_SST_DIR is set.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from textopt.cli import main
from textopt.data import split_corpus, synthetic_corpus, write_tsv
from textopt.logreg import TrainConfig, evaluate_accuracy, objective_and_gradient, train
from textopt.pipeline import make_objective
from textopt.smbo import RunState, best_so_far_curve, run
from textopt.space import (
    Categorical,
    Condition,
    Continuous,
    IntRange,
    ParamNode,
    define_space,
    enumerate_assignments,
    sample_prior,
    text_rep_space,
)
from textopt.textrep import (
    Featurizer,
    RepresentationConfig,
    build_vocabulary,
    load_stopwords,
    vectorize_corpus,
)
from textopt.tpe import TpeParams, TrialRecord, fit_categorical, fit_continuous, suggest

from test_logreg import finite_difference, labeled, random_instance
from test_tpe import oracle_suggest, simpson_integral

# RunStates and best-so-far columns accumulated by earlier criteria; criterion 8
# checks the running-max property over everything the suite executed.
SUITE_RUNS: list[RunState] = []
SUITE_CURVES: list[list[float]] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1EiOracleEquivalence:
    def test_enumeration_matches_independent_argmax(self):
        start = time.perf_counter()
        space = define_space(
            [
                ParamNode("a", Categorical(("x", "y"))),
                ParamNode("b", IntRange(1, 5)),
                ParamNode("c", Categorical(("p", "q", "r")), Condition("a", ("x",))),
            ]
        )
        assignments = enumerate_assignments(space)
        assert len(assignments) == 20 <= 60
        rng = np.random.default_rng(2024)
        history = []
        for _ in range(20):
            a = sample_prior(space, rng)
            y = 0.3 * (a["a"] == "x") + 0.08 * a["b"] + 0.2 * (a.get("c") == "q")
            history.append(TrialRecord(a, y + float(rng.normal(0.0, 0.05))))
        params = TpeParams(n_startup=0, smoothing=1.0)
        chosen = suggest(
            space, history, params, np.random.default_rng(0), candidates=assignments
        )
        expected = oracle_suggest(space, history, params.gamma, params.smoothing)
        elapsed = time.perf_counter() - start
        report(
            1,
            chosen == expected and elapsed < 1.0,
            f"suggestion {chosen} equals oracle argmax, {elapsed:.2f}s",
        )


class TestCriterion2DensityNormalization:
    def test_quadrature_and_weight_sums(self):
        start = time.perf_counter()
        rng = np.random.default_rng(33)
        worst = 0.0
        for i in range(50):
            lo = float(rng.uniform(-5, 2))
            hi = lo + float(rng.uniform(0.5, 8))
            domain = Continuous(lo, hi)
            obs = rng.uniform(lo, hi, size=int(rng.integers(0, 30)))
            integral = simpson_integral(fit_continuous(list(obs), domain))
            worst = max(worst, abs(integral - 1.0))
        weight_ok = True
        for i in range(50):
            k = int(rng.integers(2, 7))
            domain = Categorical(tuple(f"v{j}" for j in range(k)))
            obs = [domain.choices[j] for j in rng.integers(k, size=rng.integers(0, 40))]
            model = fit_categorical(obs, domain, smoothing=float(rng.uniform(0.05, 2.0)))
            weight_ok &= abs(float(model.weights.sum()) - 1.0) <= 1e-12
        elapsed = time.perf_counter() - start
        report(
            2,
            worst <= 1e-3 and weight_ok and elapsed < 5.0,
            f"max |integral - 1| = {worst:.2e}, weight sums within 1e-12, {elapsed:.1f}s",
        )


class TestCriterion3GradientCheck:
    def test_hundred_random_instances(self):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        worst = 0.0
        for i in range(100):
            data, dim, labels = random_instance(rng, max_dim=20, max_classes=4)
            penalty = "l2" if i % 2 == 0 else "l1"
            config = TrainConfig(penalty, strength=float(rng.uniform(0.1, 10)), tolerance=1e-4)
            weights = rng.normal(scale=0.5, size=(len(labels), dim + 1))
            _, analytic = objective_and_gradient(weights, data, config, labels)

            if penalty == "l2":
                fun = lambda w: objective_and_gradient(w, data, config, labels)[0]
            else:
                # The l1 gradient covers the smooth part; subtract the penalty.
                fun = lambda w: objective_and_gradient(w, data, config, labels)[0] - float(
                    np.sum(np.abs(w[:, :dim]))
                )
            numeric = finite_difference(fun, weights)
            scale = max(1.0, float(np.max(np.abs(numeric))))
            worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
        elapsed = time.perf_counter() - start
        report(
            3,
            worst <= 1e-5 and elapsed < 10.0,
            f"max relative error {worst:.2e} over 100 instances, {elapsed:.1f}s",
        )


class TestCriterion4ConvexSolverSanity:
    def test_separable_fit_and_l1_zero_model(self):
        start = time.perf_counter()
        data = labeled([{0: 1.0}, {1: 1.0}], ["A", "B"], 2)
        l2_model = train(data, TrainConfig("l2", 100.0, 1e-5), labels=("A", "B"))
        l2_ok = evaluate_accuracy(l2_model, data) == 1.0
        l1_model = train(data, TrainConfig("l1", 1e-5, 1e-5), labels=("A", "B"))
        l1_ok = float(np.max(np.abs(l1_model.coef))) == 0.0
        elapsed = time.perf_counter() - start
        report(
            4,
            l2_ok and l1_ok and elapsed < 1.0,
            f"l2 training accuracy 1.0, l1 coefficients exactly zero, {elapsed:.2f}s",
        )


class TestCriterion5TpeBeatsRandomAtBudget:
    def test_medians_over_twenty_seeds(self):
        start = time.perf_counter()
        corpus = synthetic_corpus(2500, vocab_size=25, signal_strength=0.7, seed=100)
        train_c, dev_c = split_corpus(corpus, 0.2, seed=100)
        assert (len(train_c), len(dev_c)) == (2000, 500)
        space = text_rep_space()
        objective = make_objective(train_c, dev_c, load_stopwords(), cache_size=36)

        tpe_10, tpe_30, random_30 = [], [], []
        for seed in range(20):
            for method in ("tpe", "random"):
                params = (
                    TpeParams(seed=seed)
                    if method == "tpe"
                    else TpeParams(seed=seed, n_startup=10**9)
                )
                state = run(space, objective, 30, params)
                SUITE_RUNS.append(state)
                curve = dict(best_so_far_curve(state))
                if method == "tpe":
                    tpe_10.append(curve[10])
                    tpe_30.append(curve[30])
                else:
                    random_30.append(curve[30])
        median_tpe = statistics.median(tpe_30)
        median_random = statistics.median(random_30)
        median_prefix = statistics.median(tpe_10)
        elapsed = time.perf_counter() - start
        report(
            5,
            median_tpe >= median_random and median_tpe >= median_prefix and elapsed < 600.0,
            f"median best dev acc: tpe {median_tpe:.4f} >= random {median_random:.4f}, "
            f"tpe 30-trial {median_tpe:.4f} >= own 10-trial prefix {median_prefix:.4f}, "
            f"{elapsed:.0f}s",
        )


class TestCriterion6FeaturizerOracle:
    def test_tfidf_values_and_ngram_counts(self):
        start = time.perf_counter()
        config = RepresentationConfig(1, 1, "tfidf", False)
        featurizer = Featurizer(["a b", "a c"], [["a b"]])
        vocab = build_vocabulary(featurizer.train, config)
        vec = vectorize_corpus(featurizer.parts[1], vocab, config)[0]
        by_gram = {
            gram: vec.values[list(vec.indices).index(index)]
            for gram, (index, _) in vocab.entries.items()
            if index in vec.indices
        }
        tfidf_ok = abs(by_gram["a"] - 1.0) <= 1e-12 and abs(by_gram["b"] - 1.4055) <= 1e-4

        rng = np.random.default_rng(6)
        alphabet = ["a", "b", "c", "d", "e"]
        counts_ok = True
        for _ in range(20):
            tokens = [alphabet[i] for i in rng.integers(5, size=int(rng.integers(0, 40)))]
            n_min = int(rng.integers(1, 4))
            n_max = int(rng.integers(n_min, 4))
            naive: dict[str, int] = {}
            for n in range(n_min, n_max + 1):
                for i in range(len(tokens) - n + 1):
                    gram = " ".join(tokens[i : i + n])
                    naive[gram] = naive.get(gram, 0) + 1
            # tf counts of the token sequence as one training text, keyed by n-gram.
            featurizer = Featurizer([" ".join(tokens)])
            tf = RepresentationConfig(n_min, n_max, "tf", False)
            tf_vocab = build_vocabulary(featurizer.train, tf)
            gram_of = {index: gram for gram, (index, _) in tf_vocab.entries.items()}
            vec = vectorize_corpus(featurizer.train, tf_vocab, tf)[0]
            counts = {gram_of[i]: v for i, v in zip(vec.indices.tolist(), vec.values.tolist())}
            counts_ok &= counts == naive
        elapsed = time.perf_counter() - start
        report(
            6,
            tfidf_ok and counts_ok and elapsed < 1.0,
            f"tf-idf values a=1.0 b~1.4055 and 20 n-gram multisets exact, {elapsed:.2f}s",
        )


class TestCriterion7CliDeterminism:
    def test_byte_identical_trials_csv(self, tmp_path):
        start = time.perf_counter()
        corpus = synthetic_corpus(600, vocab_size=30, signal_strength=0.9, seed=5)
        whole_train, dev = split_corpus(corpus, 0.2, seed=5)
        train_path, dev_path = tmp_path / "train.tsv", tmp_path / "dev.tsv"
        write_tsv(whole_train, train_path)
        write_tsv(dev, dev_path)
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(
                [
                    "optimize",
                    "--train", str(train_path),
                    "--dev", str(dev_path),
                    "--trials", "10",
                    "--startup", "5",
                    "--seed", "11",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append((out / "trials.csv").read_bytes())
        rows = outputs[0].decode().splitlines()[1:]
        SUITE_CURVES.append([float(r.split(",")[-1]) for r in rows])
        elapsed = time.perf_counter() - start
        report(
            7,
            outputs[0] == outputs[1] and elapsed < 120.0,
            f"two optimize runs, identical {len(outputs[0])}-byte trials.csv, {elapsed:.0f}s",
        )


class TestCriterion8RunningBestShape:
    def test_monotone_and_ends_at_incumbent(self):
        # A fresh run plus every run and CSV column earlier criteria registered.
        state = run(
            text_rep_space(),
            lambda a: a["strength"] / 1e5,
            n_trials=12,
            params=TpeParams(seed=21),
        )
        states = SUITE_RUNS + [state]
        checked = 0
        ok = True
        for s in states:
            curve = [v for _, v in best_so_far_curve(s)]
            finite = [v for v in curve if math.isfinite(v)]
            ok &= all(a <= b for a, b in zip(finite, finite[1:]))
            ok &= s.incumbent is not None and curve[-1] == s.incumbent.y
            checked += 1
        for column in SUITE_CURVES:
            ok &= all(a <= b for a, b in zip(column, column[1:]))
            checked += 1
        report(
            8,
            ok and checked >= 1,
            f"best-so-far nondecreasing and ends at incumbent across {checked} suite runs",
        )


SST_DIR = os.environ.get("TEXTOPT_SST_DIR")


@pytest.mark.skipif(
    SST_DIR is None,
    reason="set TEXTOPT_SST_DIR to a directory with train.tsv/dev.tsv/test.tsv",
)
class TestCriterion9StanfordSentiment:
    def corpus_args(self) -> list[str]:
        root = Path(SST_DIR)
        return [
            "--train", str(root / "train.tsv"),
            "--dev", str(root / "dev.tsv"),
            "--test", str(root / "test.tsv"),
        ]

    def test_reference_configuration(self, tmp_path, capsys):
        config = {
            "n_min": 1,
            "n_span|n_min=1": 1,
            "weighting": "tf-idf",
            "remove_stopwords": False,
            "regularizer": "l2",
            "strength": 10.0,
            "tolerance": 1e-3,
        }
        path = tmp_path / "reference.yaml"
        path.write_text(yaml.safe_dump(config))
        code = main(["eval", *self.corpus_args(), "--config", str(path)])
        assert code == 0
        printed = capsys.readouterr().out
        line = next(l for l in printed.splitlines() if l.startswith("test_accuracy="))
        accuracy = float(line.split("=", 1)[1])
        report(9, accuracy >= 0.800, f"reference config test accuracy {accuracy:.4f} >= 0.800")

    def test_thirty_trial_optimization_beats_linear_baseline(self, tmp_path, capsys):
        out = tmp_path / "sst"
        code = main(
            ["optimize", *self.corpus_args(), "--trials", "30", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        best = yaml.safe_load((out / "best.config").read_text())
        accuracy = best["test_accuracy"]
        report(9, accuracy >= 0.794, f"optimized test accuracy {accuracy:.4f} >= 0.794")
