"""Spans around calls into textopt's layers, recorded from outside the program.

A traced run replaces module-level names through which the layers call one
another (``textopt.smbo.suggest``, ``textopt.pipeline.train``, ...) with
wrappers that record a span per call: name, phase, start, end and parent.
Spans stay in memory and are reduced to per-layer metrics (``per_layer``) at the
end.  A layer's self time is a span's duration minus its children's.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    phase: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _WarningCounter(logging.Handler):
    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        key = (self.tracer.phase, record.name)
        self.tracer.warnings[key] = self.tracer.warnings.get(key, 0) + 1


class Tracer:
    """Span recorder; ``phase`` labels each span as set-up or timed round."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.warnings: dict[tuple[str, str], int] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handlers: list[tuple[logging.Logger, logging.Handler]] = []

    def wrap(self, fn: Callable, name: str, info: Callable | None = None) -> Callable:
        """``fn`` with a span recorded around every call; ``info`` annotates it afterwards."""

        def traced(*args, **kwargs):
            span = Span(name, self.phase, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def patch(self, module: object, attr: str, name: str, info: Callable | None = None,
              result: Callable | None = None) -> None:
        """Trace calls to ``module.attr``; ``result`` may replace what each call returns."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        fn = original if result is None else lambda *a, **k: result(original(*a, **k))
        setattr(module, attr, self.wrap(fn, name, info))

    def count_warnings(self, *logger_names: str) -> None:
        for logger_name in logger_names:
            logger = logging.getLogger(logger_name)
            handler = _WarningCounter(self)
            logger.addHandler(handler)
            self._handlers.append((logger, handler))

    def restore(self) -> None:
        """Put back every patched name and detach the warning counters."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        for logger, handler in self._handlers:
            logger.removeHandler(handler)
        self._patches.clear()
        self._handlers.clear()

    def root_time(self, since: int) -> float:
        """Time covered by top-level timed-round spans recorded after span ``since``."""
        return sum(s.duration for s in self.spans[since:] if s.parent is None and s.phase == "round")


def install(tracer: Tracer) -> None:
    """Wrap the cross-layer names of textopt's modules and count their warnings."""
    import numpy as np
    import textopt
    import textopt.cli
    import textopt.pipeline
    import textopt.smbo

    def docs(args, result):
        return {"docs": len(args[0])}

    def vocab(args, result):
        return {"docs": len(args[0]), "features": result.size}

    def fit(args, result):
        return {
            "penalty": args[1].penalty,
            "nnz": int(np.count_nonzero(result.coef)),
        }

    def history(args, result):
        return {"history": len(args[1])}

    tracer.patch(textopt.smbo, "suggest", "tpe.suggest", history)
    tracer.patch(textopt.pipeline, "build_vocabulary", "textrep.build_vocabulary", vocab)
    tracer.patch(textopt.pipeline, "vectorize_corpus", "textrep.vectorize_corpus", docs)
    tracer.patch(textopt.pipeline, "train", "logreg.train", fit)
    tracer.patch(textopt.pipeline, "evaluate_accuracy", "logreg.evaluate_accuracy")
    tracer.patch(textopt.cli, "run", "smbo.run")
    tracer.patch(textopt.cli, "evaluate_assignment", "pipeline.evaluate_assignment")
    tracer.patch(textopt.cli, "load_tsv", "data.load_tsv")
    tracer.patch(textopt, "load_tsv", "data.load_tsv")

    tracer.patch(textopt.cli, "make_objective", "pipeline.make_objective",
                 result=lambda objective: tracer.wrap(objective, "pipeline.objective"))
    tracer.count_warnings("textopt.tpe", "textopt.logreg")


def per_layer(tracer: Tracer, rounds: int, setups: int) -> dict[str, float]:
    """Per-layer metrics: timed-round figures per round, set-up figures per set-up."""
    timed = [s for s in tracer.spans if s.phase == "round"]
    setup = [s for s in tracer.spans if s.phase == "setup"]

    def total(spans, name, key=lambda s: True):
        return sum(s.self_s for s in spans if s.name == name and key(s))

    vocabs = [s for s in timed if s.name == "textrep.build_vocabulary"]
    objectives = [s for s in timed if s.name == "pipeline.objective"]
    misses = sum(1 for s in vocabs if s.parent is not None and s.parent.name == "pipeline.objective")
    fits = [s for s in timed if s.name == "logreg.train"]
    suggests = [s for s in timed if s.name == "tpe.suggest"]

    def suggest_ms(lo, hi):
        values = [1e3 * s.duration for s in suggests if lo <= s.info["history"] <= hi]
        return statistics.median(values) if values else 0.0

    def warned(logger):
        return tracer.warnings.get(("round", logger), 0) / rounds

    return {
        "data.load_s": total(setup, "data.load_tsv") / setups,
        "textrep.setup_s": sum(s.self_s for s in setup if s.layer == "textrep") / setups,
        "textrep.vocab_s": total(timed, "textrep.build_vocabulary") / rounds,
        "textrep.vectorize_s": total(timed, "textrep.vectorize_corpus") / rounds,
        "textrep.docs": sum(s.info["docs"] for s in timed if s.layer == "textrep") / rounds,
        "textrep.features_mean": statistics.fmean(s.info["features"] for s in vocabs) if vocabs else 0.0,
        "pipeline.misses": misses / rounds,
        "pipeline.hit_ratio": 1.0 - misses / len(objectives) if objectives else 0.0,
        "pipeline.objective_s": total(timed, "pipeline.objective") / rounds,
        "logreg.train_l1_s": total(timed, "logreg.train", lambda s: s.info["penalty"] == "l1") / rounds,
        "logreg.train_l2_s": total(timed, "logreg.train", lambda s: s.info["penalty"] == "l2") / rounds,
        "logreg.train_l1_calls": sum(1 for s in fits if s.info["penalty"] == "l1") / rounds,
        "logreg.train_max_s": max((s.duration for s in fits), default=0.0),
        "logreg.score_s": total(timed, "logreg.evaluate_accuracy") / rounds,
        "logreg.nonconverged": warned("textopt.logreg"),
        "logreg.coef_nnz_mean": statistics.fmean(s.info["nnz"] for s in fits) if fits else 0.0,
        "tpe.suggest_s": total(timed, "tpe.suggest") / rounds,
        "tpe.suggest_ms_h100": suggest_ms(91, 100),
        "tpe.suggest_ms_h300": suggest_ms(291, 300),
        "tpe.prior_fallbacks": warned("textopt.tpe"),
        "smbo.overhead_s": total(timed, "smbo.run") / rounds,
        "cli.refit_s": sum(s.duration for s in timed if s.name == "pipeline.evaluate_assignment") / rounds,
    }


def layer_self_times(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Self time per layer in the timed rounds, per round."""
    out: dict[str, float] = {}
    for s in tracer.spans:
        if s.phase == "round":
            out[s.layer] = out.get(s.layer, 0.0) + s.self_s / rounds
    return out
