"""End-to-end command-line behavior: optimize, eval, report, exit codes."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
import yaml

import textopt
import textopt.cli
from textopt.cli import TRIALS_HEADER, build_parser, main
from textopt.data import LabeledCorpus, load_tsv, split_corpus, synthetic_corpus, write_tsv
from textopt.pipeline import evaluate_assignment
from textopt.textrep import load_stopwords
from textopt.tpe import TpeParams


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    corpus = synthetic_corpus(300, vocab_size=30, signal_strength=0.9, seed=0)
    rest, test = split_corpus(corpus, 0.2, seed=1)
    train, dev = split_corpus(rest, 0.2, seed=2)
    paths = {}
    for name, part in (("train", train), ("dev", dev), ("test", test)):
        paths[name] = root / f"{name}.tsv"
        write_tsv(part, paths[name])
    return paths


def optimize_args(paths, out, trials=5, extra=()):
    return [
        "optimize",
        "--train", str(paths["train"]),
        "--dev", str(paths["dev"]),
        "--trials", str(trials),
        "--startup", "2",
        "--seed", "0",
        "--out", str(out),
        *extra,
    ]


def read_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert tuple(header) == TRIALS_HEADER
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestOptimize:
    def test_surrogate_flag_defaults_match_tpe_params(self):
        args = build_parser().parse_args(["optimize", "--train", "t.tsv", "--out", "o"])
        defaults = TpeParams()
        assert (args.gamma, args.candidates, args.startup, args.smoothing) == (
            defaults.gamma,
            defaults.n_candidates,
            defaults.n_startup,
            defaults.smoothing,
        )

    def test_writes_trials_and_best_config(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(optimize_args(corpus_files, out)) == 0
        rows = read_rows(out / "trials.csv")
        assert len(rows) == 5
        best_config = yaml.safe_load((out / "best.config").read_text())
        assert best_config["dev_accuracy"] == float(rows[-1]["best_so_far"])
        assert set(best_config["assignment"]) >= {"n_min", "weighting", "strength"}
        assert (out / "timings.csv").exists()

    def test_single_trial_budget(self, corpus_files, tmp_path):
        out = tmp_path / "single"
        assert main(optimize_args(corpus_files, out, trials=1)) == 0
        rows = read_rows(out / "trials.csv")
        assert len(rows) == 1
        best_config = yaml.safe_load((out / "best.config").read_text())
        assert best_config["trial"] == 1
        assert best_config["dev_accuracy"] == float(rows[0]["dev_accuracy"])

    def test_running_best_nondecreasing_and_matches_best_config(self, corpus_files, tmp_path):
        out = tmp_path / "mono"
        assert main(optimize_args(corpus_files, out, trials=6)) == 0
        rows = read_rows(out / "trials.csv")
        bests = [float(r["best_so_far"]) for r in rows]
        assert all(a <= b for a, b in zip(bests, bests[1:]))
        best_config = yaml.safe_load((out / "best.config").read_text())
        assert bests[-1] == best_config["dev_accuracy"]

    def test_byte_identical_reruns(self, corpus_files, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(optimize_args(corpus_files, first)) == 0
        assert main(optimize_args(corpus_files, second)) == 0
        assert (first / "trials.csv").read_bytes() == (second / "trials.csv").read_bytes()
        assert (first / "best.config").read_bytes() == (second / "best.config").read_bytes()

    def test_test_set_reporting(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "with_test"
        args = optimize_args(corpus_files, out, trials=3, extra=["--test", str(corpus_files["test"])])
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert "test_accuracy=" in printed
        best_config = yaml.safe_load((out / "best.config").read_text())
        assert 0.0 <= best_config["test_accuracy"] <= 1.0
        assert best_config["refit_with_dev"] is False

    def test_missing_train_file(self, tmp_path, capsys):
        code = main(["optimize", "--train", str(tmp_path / "nope.tsv"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_corpus_file_reported(self, tmp_path, capsys):
        path = tmp_path / "train.tsv"
        path.write_text("no tab on this line\n", encoding="utf-8")
        code = main(["optimize", "--train", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line 1 has no tab separator\n"

    def test_dev_fraction_leaving_no_training_documents_rejected(self, tmp_path, capsys):
        path = tmp_path / "train.tsv"
        write_tsv(LabeledCorpus.from_pairs([("a b", "x"), ("b c", "y"), ("c d", "x")]), path)
        args = ["optimize", "--train", str(path), "--dev-fraction", "0.7", "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: dev_fraction 0.7 splits 3 documents into 0 training and 3 dev documents; "
            "both parts need at least one\n"
        )

    def test_condition_on_continuous_parent_rejected(self, corpus_files, tmp_path, capsys):
        path = tmp_path / "continuous_parent.space"
        path.write_text(
            """
- {name: n_min, type: categorical, choices: [1, 2, 3]}
- {name: n_span|n_min=1, type: categorical, choices: [0, 1, 2], condition: {parent: n_min, values: [1]}}
- {name: n_span|n_min=2, type: categorical, choices: [0, 1], condition: {parent: n_min, values: [2]}}
- {name: n_span|n_min=3, type: categorical, choices: [0], condition: {parent: n_min, values: [3]}}
- {name: weighting, type: categorical, choices: [tf, tf-idf, binary]}
- {name: remove_stopwords, type: categorical, choices: [true, false], condition: {parent: strength, values: [1.0]}}
- {name: regularizer, type: categorical, choices: [l1, l2]}
- {name: strength, type: continuous, lo: 1.0e-05, hi: 100000.0, scale: log10}
- {name: tolerance, type: continuous, lo: 1.0e-05, hi: 0.001, scale: log10}
"""
        )
        code = main(optimize_args(corpus_files, tmp_path / "out", extra=["--space", str(path)]))
        assert code == 2
        assert "node 'remove_stopwords': condition on continuous parent 'strength'" in (
            capsys.readouterr().err
        )

    def test_malformed_space_yaml_rejected(self, corpus_files, tmp_path, capsys):
        path = tmp_path / "broken.space"
        path.write_text("- name: [unclosed\n")
        code = main(optimize_args(corpus_files, tmp_path / "out", extra=["--space", str(path)]))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid space file {path}: ")

    def test_search_objective_freed_before_the_refit(self, corpus_files, tmp_path, monkeypatch):
        objectives = []
        make_objective = textopt.cli.make_objective
        evaluate_assignment = textopt.cli.evaluate_assignment

        def held_weakly(*args, **kwargs):
            objective = make_objective(*args, **kwargs)
            objectives.append(weakref.ref(objective))
            return objective

        alive_at_refit = []

        def refit(*args, **kwargs):
            alive_at_refit.append(objectives[0]() is not None)
            return evaluate_assignment(*args, **kwargs)

        monkeypatch.setattr(textopt.cli, "make_objective", held_weakly)
        monkeypatch.setattr(textopt.cli, "evaluate_assignment", refit)
        extra = ["--test", str(corpus_files["test"])]
        assert main(optimize_args(corpus_files, tmp_path / "out", trials=3, extra=extra)) == 0
        assert alive_at_refit == [False]

    def test_dev_fraction_split(self, corpus_files, tmp_path):
        out = tmp_path / "fraction"
        args = [
            "optimize",
            "--train", str(corpus_files["train"]),
            "--dev-fraction", "0.25",
            "--trials", "2",
            "--startup", "2",
            "--seed", "3",
            "--out", str(out),
        ]
        assert main(args) == 0
        assert len(read_rows(out / "trials.csv")) == 2


class TestEval:
    def write_config(self, tmp_path, assignment) -> Path:
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(assignment))
        return path

    def full_assignment(self):
        return {
            "n_min": 1,
            "n_span|n_min=1": 1,
            "weighting": "tf-idf",
            "remove_stopwords": False,
            "regularizer": "l2",
            "strength": 10.0,
            "tolerance": 1e-4,
        }

    def test_reproduces_recorded_dev_accuracy_exactly(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "opt"
        assert main(optimize_args(corpus_files, out, trials=4)) == 0
        capsys.readouterr()
        best_config = yaml.safe_load((out / "best.config").read_text())
        code = main(
            [
                "eval",
                "--train", str(corpus_files["train"]),
                "--dev", str(corpus_files["dev"]),
                "--config", str(out / "best.config"),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        line = next(l for l in printed.splitlines() if l.startswith("dev_accuracy="))
        assert float(line.split("=", 1)[1]) == best_config["dev_accuracy"]

    def test_identical_invocations_identical_output(self, corpus_files, tmp_path, capsys):
        config = self.write_config(tmp_path, self.full_assignment())
        args = [
            "eval",
            "--train", str(corpus_files["train"]),
            "--dev", str(corpus_files["dev"]),
            "--config", str(config),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_invalid_ngram_order_rejected(self, corpus_files, tmp_path, capsys):
        assignment = self.full_assignment()
        assignment["n_span|n_min=1"] = 5  # out of the {0, 1, 2} domain
        config = self.write_config(tmp_path, assignment)
        code = main(
            [
                "eval",
                "--train", str(corpus_files["train"]),
                "--dev", str(corpus_files["dev"]),
                "--config", str(config),
            ]
        )
        assert code == 2
        assert "out of domain" in capsys.readouterr().err

    def test_incomplete_assignment_rejected(self, corpus_files, tmp_path, capsys):
        assignment = self.full_assignment()
        del assignment["tolerance"]
        config = self.write_config(tmp_path, assignment)
        code = main(
            [
                "eval",
                "--train", str(corpus_files["train"]),
                "--dev", str(corpus_files["dev"]),
                "--config", str(config),
            ]
        )
        assert code == 2
        assert "missing active node 'tolerance'" in capsys.readouterr().err

    def test_malformed_config_yaml_rejected(self, corpus_files, tmp_path, capsys):
        config = tmp_path / "broken.config"
        config.write_text("- name: [unclosed\n")
        code = main(
            [
                "eval",
                "--train", str(corpus_files["train"]),
                "--dev", str(corpus_files["dev"]),
                "--config", str(config),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid config file {config}: ")

    def test_test_set_scored(self, corpus_files, tmp_path, capsys):
        config = self.write_config(tmp_path, self.full_assignment())
        code = main(
            [
                "eval",
                "--train", str(corpus_files["train"]),
                "--dev", str(corpus_files["dev"]),
                "--test", str(corpus_files["test"]),
                "--config", str(config),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "dev_accuracy=" in printed
        assert "test_accuracy=" in printed

    def test_refit_with_dev_scores_as_optimize_does(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "opt"
        refit = ["--test", str(corpus_files["test"]), "--refit-with-dev"]
        assert main(optimize_args(corpus_files, out, trials=3, extra=refit)) == 0
        capsys.readouterr()
        best_config = yaml.safe_load((out / "best.config").read_text())
        code = main(
            [
                "eval",
                "--train", str(corpus_files["train"]),
                "--dev", str(corpus_files["dev"]),
                "--config", str(out / "best.config"),
                *refit,
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        line = next(l for l in printed.splitlines() if l.startswith("test_accuracy="))
        train, dev, test = (load_tsv(corpus_files[name]) for name in ("train", "dev", "test"))
        fit_corpus = LabeledCorpus.from_pairs(train.documents + dev.documents)
        expected = evaluate_assignment(best_config["assignment"], fit_corpus, test, load_stopwords())
        assert float(line.split("=", 1)[1]) == best_config["test_accuracy"] == expected


class TestReport:
    def write_log(self, tmp_path, ys) -> Path:
        path = tmp_path / "trials.csv"
        lines = [",".join(TRIALS_HEADER)]
        best = -math.inf
        for t, y in enumerate(ys, start=1):
            best = max(best, y)
            lines.append(
                f"{t},1,2,tf,False,l2,1.0,0.0001,{y!r},{best!r}"
            )
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_curve_running_max(self, tmp_path, capsys):
        log = self.write_log(tmp_path, [0.6, 0.5, 0.8])
        assert main(["report", str(log), "--out", str(tmp_path)]) == 0
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "t,dev_accuracy,best_so_far"
        assert [line.split(",")[2] for line in curve[1:]] == ["0.6", "0.6", "0.8"]

    def test_curve_length_preserved(self, tmp_path, capsys):
        log = self.write_log(tmp_path, [0.1 + 0.01 * i for i in range(30)])
        assert main(["report", str(log)]) == 0
        assert len((tmp_path / "curve.csv").read_text().splitlines()) == 31
        assert (tmp_path / "plot_curve.py").exists()

    def test_best_row_is_argmax(self, tmp_path, capsys):
        log = self.write_log(tmp_path, [0.6, 0.9, 0.8])
        assert main(["report", str(log), "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        header = printed[0].split()
        row = printed[1].split()
        assert header[0] == "Acc"
        assert row[0] == "90.00"

    def test_malformed_row_reports_number(self, tmp_path, capsys):
        log = self.write_log(tmp_path, [0.6, 0.5])
        lines = log.read_text().splitlines()
        lines.append("3,badly,shaped")
        log.write_text("\n".join(lines) + "\n")
        assert main(["report", str(log)]) == 2
        assert "row 4" in capsys.readouterr().err

    def test_missing_log(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.csv")]) == 2


def test_importing_textopt_and_cli_does_not_load_scipy_optimize():
    # A fresh interpreter: this test process may have loaded scipy.optimize already.
    src = str(Path(textopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, textopt, textopt.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"
