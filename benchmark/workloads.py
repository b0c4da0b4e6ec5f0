"""The three workloads: a cold CLI search, a warm multi-seed search, a long-history surrogate.

Each workload generates its inputs from the benchmark seed, sets up, runs
whole rounds of identical searches, and then checks the program's outputs
against the benchmark's own computations (see ``reference``).  The search
seeds inside a round are fixed, so the benchmark seed changes the data and
not the list of searches; every round repeats the first one exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference


@dataclass
class Round:
    searches: list[float]  # wall time of each search after set-up
    loops: list[float]  # time of each search inside its trial loop
    trials: int
    failed: int
    outcome: object  # compared across rounds: identical inputs give identical results
    cells: list[list[tuple]]  # discrete cell of every trial, per search
    setup_s: float = 0.0  # set-up inside the round (the CLI sets up on every call)
    finish_s: float = 0.0  # after the trial loop (the CLI's refit and output files)
    covered_s: float = 0.0  # traced rounds: time inside top-level layer spans

    @property
    def run_s(self) -> float:
        return sum(self.searches)


@dataclass
class Checked:
    failures: list[str] = field(default_factory=list)
    best_objective: float = math.nan
    test_accuracy: float = math.nan


def _library_round(workload, tracer, objective, span: str) -> Round:
    """One search per seed of ``workload.SEEDS`` through ``textopt.run``; keeps the states."""
    import textopt

    run = textopt.run
    if tracer is not None:
        tracer.phase = "round"
        run = tracer.wrap(run, "smbo.run")
        objective = tracer.wrap(objective, span)
    states, times = [], []
    for seed in workload.SEEDS:
        start = time.perf_counter()
        states.append(run(workload.space, objective, workload.TRIALS, textopt.TpeParams(seed=seed)))
        times.append(time.perf_counter() - start)
    workload.states = states
    return Round(
        searches=times,
        loops=times,
        trials=sum(len(s.history) for s in states),
        failed=sum(1 for s in states for r in s.history if not math.isfinite(r.y)),
        outcome=[[(sorted(r.assignment.items()), r.y) for r in s.history] for s in states],
        cells=[[inputs.cell_of(r.assignment) for r in s.history] for s in states],
    )


def _check_assignment(assignment: dict) -> str | None:
    """Whether an assignment holds exactly the default space's active nodes, in domain."""
    n_min = assignment.get("n_min")
    if type(n_min) is not int or n_min not in (1, 2, 3):
        return f"n_min {n_min!r} out of domain"
    expected = {"n_min", f"n_span|n_min={n_min}", "weighting", "remove_stopwords",
                "regularizer", "strength", "tolerance"}
    if set(assignment) != expected:
        return f"nodes {sorted(assignment)} are not the active nodes {sorted(expected)}"
    span = assignment[f"n_span|n_min={n_min}"]
    checks = (
        type(span) is int and 0 <= span <= 3 - n_min,
        assignment["weighting"] in ("tf", "tf-idf", "binary"),
        type(assignment["remove_stopwords"]) is bool,
        assignment["regularizer"] in ("l1", "l2"),
        type(assignment["strength"]) is float and 1e-5 <= assignment["strength"] <= 1e5,
        type(assignment["tolerance"]) is float and 1e-5 <= assignment["tolerance"] <= 1e-3,
    )
    if not all(checks):
        return f"assignment {assignment} has a value out of domain"
    return None


def _check_rounds(rounds: list[Round], checked: Checked) -> None:
    for i, r in enumerate(rounds[1:], start=2):
        if r.outcome != rounds[0].outcome:
            checked.failures.append(f"round {i} differs from round 1 with the same seeds")


def _check_states(states, checked: Checked) -> None:
    for state in states:
        for t, record in enumerate(state.history, start=1):
            problem = _check_assignment(record.assignment)
            if problem:
                checked.failures.append(f"seed {state.seed} trial {t}: {problem}")
        finite = [r for r in state.history if math.isfinite(r.y)]
        best = max(finite, key=lambda r: r.y)  # the first of equal maxima, as the loop keeps
        if state.incumbent is not best:
            checked.failures.append(f"seed {state.seed}: incumbent is not the first best trial")


def _refit_check(assignment: dict, y: float, train, featurizer: "reference.Featurizer",
                 stoplist, checked: Checked) -> float:
    """Refit through fit_assignment; check optimality and dev accuracy with own features.

    Returns the benchmark's own accuracy of the refit model on the test documents.
    """
    import textopt

    n_train = featurizer.n_train
    model, _, rep = textopt.pipeline.fit_assignment(assignment, train, stoplist)
    counts = featurizer.counts(rep.n_min, rep.n_max, rep.remove_stopwords)
    vocab = reference.vocabulary(counts[:n_train])
    weighting = assignment["weighting"]
    x_train = reference.matrix(counts[:n_train], vocab, weighting)
    labels = featurizer.labels
    if model.converged:
        ratio = reference.optimality_ratio(
            model, x_train, labels[:n_train], assignment["regularizer"],
            assignment["strength"], assignment["tolerance"],
        )
        if not ratio <= 1.0 + reference.BOUND_SLACK:
            checked.failures.append(
                f"{assignment}: converged fit has residual {ratio:.4f} x its stopping bound"
            )
    dev = slice(n_train, n_train + featurizer.n_dev)
    dev_accuracy = reference.accuracy(model, reference.matrix(counts[dev], vocab, weighting), labels[dev])
    if dev_accuracy != y:
        checked.failures.append(f"{assignment}: dev accuracy {dev_accuracy!r} recomputed, {y!r} reported")
    rest = slice(n_train + featurizer.n_dev, None)
    return reference.accuracy(model, reference.matrix(counts[rest], vocab, weighting), labels[rest])


class OptimizeCold:
    """``textopt optimize --test`` with 30 trials and default flags on a topic corpus."""

    # 20 Newsgroups x.graphics (942/235/784 documents) with a quarter of the
    # training set, so that one search takes seconds rather than a minute; dev
    # and test keep their size, and with it the resolution of their accuracies.
    SHAPE = (236, 235, 784)
    TRIALS = 30
    setups = 0  # the CLI sets up inside each round
    min_rounds = 2  # a round takes about 17 s

    def generate(self, seed: int, workdir: Path) -> None:
        self.docs = inputs.cold_corpus(seed, self.SHAPE)
        self.workdir = workdir
        self.paths = [workdir / f"{name}.tsv" for name in ("train", "dev", "test")]
        for part, path in zip(self.docs, self.paths):
            inputs.write_tsv(part, path)
        self.count = 0

    def corpus_flags(self) -> list[str]:
        train, dev, test = (str(p) for p in self.paths)
        return ["--train", train, "--dev", dev, "--test", test]

    def setup(self) -> None:
        pass

    def round(self, tracer) -> Round:
        import textopt.cli

        self.count += 1
        out = self.workdir / f"out{self.count}"
        marks: dict[str, float] = {}
        inner = textopt.cli.run

        def timed_run(*args, **kwargs):
            if tracer is not None:
                tracer.phase = "round"
            marks["run"] = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                marks["loop_end"] = time.perf_counter()

        textopt.cli.run = timed_run
        if tracer is not None:
            tracer.phase = "setup"
        stdout = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = textopt.cli.main(["optimize", *self.corpus_flags(), "--out", str(out)])
            end = time.perf_counter()
        finally:
            textopt.cli.run = inner
        if code != 0:
            raise RuntimeError(f"textopt optimize exited with {code}: {stdout.getvalue()}")
        trials = (out / "trials.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(trials)))
        return Round(
            searches=[end - marks["run"]],
            loops=[marks["loop_end"] - marks["run"]],
            trials=len(rows),
            failed=sum(1 for row in rows if not math.isfinite(float(row["dev_accuracy"]))),
            outcome=(trials, (out / "best.config").read_text(encoding="utf-8")),
            cells=[[(int(r["n_min"]), int(r["n_max"]), r["weighting"], r["remove_stopwords"] == "True",
                     r["regularizer"]) for r in rows]],
            setup_s=marks["run"] - start,
            finish_s=end - marks["loop_end"],
        )

    def check(self, rounds: list[Round]) -> Checked:
        import textopt
        import textopt.cli
        import yaml

        checked = Checked()
        _check_rounds(rounds, checked)
        fail = checked.failures.append
        out = self.workdir / "out1"
        rows = list(csv.DictReader(io.StringIO(rounds[0].outcome[0])))
        best = yaml.safe_load((out / "best.config").read_text(encoding="utf-8"))
        n_dev = self.SHAPE[1]
        if [int(r["t"]) for r in rows] != list(range(1, self.TRIALS + 1)):
            fail(f"trials.csv t column is not 1..{self.TRIALS}")
        running = -math.inf
        for r in rows:
            y = float(r["dev_accuracy"])
            if abs(y * n_dev - round(y * n_dev)) > 1e-9:
                fail(f"trial {r['t']}: dev_accuracy {y!r} is no multiple of 1/{n_dev}")
            running = max(running, y)
            if float(r["best_so_far"]) != running:
                fail(f"trial {r['t']}: best_so_far {r['best_so_far']} is not the running maximum {running!r}")
        dev_labels = [label for _, label in self.docs[1]]
        majority = max(dev_labels.count(label) for label in set(dev_labels)) / n_dev
        if best["dev_accuracy"] != running or not best["dev_accuracy"] > majority:
            fail(f"best.config dev_accuracy {best['dev_accuracy']!r}: maximum {running!r}, majority {majority!r}")

        stdout = io.StringIO()
        train, dev, _ = (str(p) for p in self.paths)
        with contextlib.redirect_stdout(stdout):
            code = textopt.cli.main(["eval", "--train", train, "--dev", dev, "--config", str(out / "best.config")])
        printed = dict(line.split("=", 1) for line in stdout.getvalue().splitlines() if "=" in line)
        if code != 0 or float(printed.get("dev_accuracy", "nan")) != best["dev_accuracy"]:
            fail(f"textopt eval printed {stdout.getvalue()!r} for dev_accuracy {best['dev_accuracy']!r}")

        stoplist = textopt.load_stopwords()
        featurizer = reference.Featurizer(*self.docs, stoplist)
        train_corpus = textopt.LabeledCorpus.from_pairs(self.docs[0])
        test_accuracy = _refit_check(
            best["assignment"], best["dev_accuracy"], train_corpus, featurizer, stoplist, checked
        )
        checked.best_objective = best["dev_accuracy"]
        checked.test_accuracy = best.get("test_accuracy", math.nan)
        if test_accuracy != checked.test_accuracy:
            fail(f"test accuracy {test_accuracy!r} recomputed, {checked.test_accuracy!r} reported")
        return checked


class SearchWarm:
    """Several 30-trial searches sharing one objective whose cache holds all 36 featurizations."""

    # The acceptance-criterion-5 corpus (2000 train, 500 dev) scaled by 0.2, plus a test set.
    SHAPE = (400, 100, 300)
    SEEDS = (0, 1, 2)
    TRIALS = 30
    setups = 2
    min_rounds = 3

    def generate(self, seed: int, workdir: Path) -> None:
        self.docs = inputs.warm_corpus(seed, self.SHAPE)
        self.paths = [workdir / f"{name}.tsv" for name in ("train", "dev")]
        for part, path in zip(self.docs, self.paths):
            inputs.write_tsv(part, path)

    def setup(self) -> None:
        import textopt
        import textopt.pipeline

        self.train = textopt.load_tsv(self.paths[0])
        self.dev = textopt.load_tsv(self.paths[1])
        self.stoplist = textopt.load_stopwords()
        self.space = textopt.text_rep_space()
        self.objective = textopt.make_objective(self.train, self.dev, self.stoplist, cache_size=36)
        # Keep what the program featurized, to compare with the reference later.
        self.featurized: dict = {}
        build, vectorize = textopt.pipeline.build_vocabulary, textopt.pipeline.vectorize_corpus

        def kept_build(texts, config, stoplist):
            vocab = build(texts, config, stoplist)
            self.featurized[config] = [vocab]
            return vocab

        def kept_vectorize(texts, vocab, config, stoplist):
            vectors = vectorize(texts, vocab, config, stoplist)
            self.featurized[config].append(vectors)
            return vectors

        textopt.pipeline.build_vocabulary, textopt.pipeline.vectorize_corpus = kept_build, kept_vectorize
        try:
            for cell in representation_cells():
                self.objective({**cell, "regularizer": "l2", "strength": 1e-5, "tolerance": 1e-3})
        finally:
            textopt.pipeline.build_vocabulary, textopt.pipeline.vectorize_corpus = build, vectorize

    def round(self, tracer) -> Round:
        return _library_round(self, tracer, self.objective, "pipeline.objective")

    def check(self, rounds: list[Round]) -> Checked:
        import textopt

        checked = Checked()
        fail = checked.failures.append
        _check_rounds(rounds, checked)
        _check_states(self.states, checked)
        featurizer = reference.Featurizer(*self.docs, self.stoplist)
        n_train = featurizer.n_train
        cells = list(representation_cells())
        if len(self.featurized) != len(cells):
            fail(f"set-up featurized {len(self.featurized)} representations, expected {len(cells)}")
        for config, (vocab, x_train, x_dev) in self.featurized.items():
            counts = featurizer.counts(config.n_min, config.n_max, config.remove_stopwords)
            expected = reference.vocabulary(counts[:n_train])
            dev = counts[n_train : n_train + featurizer.n_dev]
            problem = (
                reference.compare_vocabulary(vocab, expected)
                or reference.compare_vectors(x_train, counts[:n_train], expected, config.weighting)
                or reference.compare_vectors(x_dev, dev, expected, config.weighting)
            )
            if problem:
                fail(f"featurization {config}: {problem}")

        test_accuracies = []
        for state in self.states:
            incumbent = state.incumbent
            uncached = textopt.evaluate_assignment(incumbent.assignment, self.train, self.dev, self.stoplist)
            if uncached != incumbent.y:
                fail(f"seed {state.seed}: uncached dev accuracy {uncached!r}, cached {incumbent.y!r}")
            test_accuracies.append(_refit_check(
                incumbent.assignment, incumbent.y, self.train, featurizer, self.stoplist, checked
            ))
        checked.best_objective = statistics.fmean(s.incumbent.y for s in self.states)
        checked.test_accuracy = statistics.fmean(test_accuracies)
        return checked


class SuggestLong:
    """300-trial searches over the default space against a cheap planted objective."""

    SEEDS = (0, 1)
    TRIALS = 300
    setups = 5
    min_rounds = 3

    def generate(self, seed: int, workdir: Path) -> None:
        self.planted = inputs.PlantedObjective(seed)

    def setup(self) -> None:
        import textopt

        self.space = textopt.text_rep_space()

    def round(self, tracer) -> Round:
        return _library_round(self, tracer, self.planted, "benchmark.objective")

    def check(self, rounds: list[Round]) -> Checked:
        checked = Checked()
        _check_rounds(rounds, checked)
        _check_states(self.states, checked)
        for state in self.states:
            for t, record in enumerate(state.history, start=1):
                if record.y != self.planted(record.assignment):
                    checked.failures.append(f"seed {state.seed} trial {t}: value {record.y!r} is not the planted score")
        checked.best_objective = statistics.fmean(s.incumbent.y for s in self.states)
        checked.test_accuracy = statistics.fmean(self.planted.held_out(s.incumbent.assignment) for s in self.states)
        return checked


def representation_cells():
    """The 36 representation cells of the default space, as partial assignments."""
    for n_min in (1, 2, 3):
        for span in range(4 - n_min):
            for weighting in ("tf", "tf-idf", "binary"):
                for remove_stopwords in (True, False):
                    yield {
                        "n_min": n_min,
                        f"n_span|n_min={n_min}": span,
                        "weighting": weighting,
                        "remove_stopwords": remove_stopwords,
                    }


WORKLOADS = {"optimize-cold": OptimizeCold, "search-warm": SearchWarm, "suggest-long": SuggestLong}
