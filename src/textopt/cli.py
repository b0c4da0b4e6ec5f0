"""Batch command line: run an optimization, evaluate one configuration, report curves.

Commands
    optimize   run the trial loop over a corpus and write trials.csv / best.config
    eval       featurize, train, and score a single explicit configuration
    report     turn a trials.csv into curve.csv, a plot script, and a best-row summary

Exit codes: 0 success, 2 usage or input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import yaml

from .data import LabeledCorpus, load_tsv, split_corpus
from .pipeline import (
    REPORT_FIELDS,
    evaluate_assignment,
    make_objective,
    report_values,
)
from .smbo import run
from .space import Assignment, ConfigSpace, load_space, text_rep_space, validate_assignment
from .textrep import load_stopwords
from .tpe import TpeParams

log = logging.getLogger(__name__)

TRIALS_HEADER = ("t", *REPORT_FIELDS, "dev_accuracy", "best_so_far")
REPORT_HEADER = ("Acc", "n_min", "n_max", "Weighting", "Stop.", "Reg.", "Strength", "Conv.")


class InputError(Exception):
    """User-facing problem with flags or input files."""


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_corpus(path: str, what: str) -> LabeledCorpus:
    if not Path(path).is_file():
        raise InputError(f"{what} corpus file not found: {path}")
    return load_tsv(path)


def _load_corpora(args: argparse.Namespace) -> tuple[LabeledCorpus, LabeledCorpus, LabeledCorpus | None]:
    train = _load_corpus(args.train, "training")
    if args.dev is not None:
        dev = _load_corpus(args.dev, "development")
    else:
        train, dev = split_corpus(train, args.dev_fraction, args.seed)
    test = _load_corpus(args.test, "test") if args.test is not None else None
    return train, dev, test


def _load_space_arg(args: argparse.Namespace) -> ConfigSpace:
    if args.space is None:
        return text_rep_space()
    if not Path(args.space).is_file():
        raise InputError(f"space file not found: {args.space}")
    try:
        return load_space(args.space)
    except ValueError as exc:
        raise InputError(f"invalid space file {args.space}: {exc}") from exc


def _test_accuracy(
    args: argparse.Namespace,
    assignment: Assignment,
    corpora: tuple[LabeledCorpus, LabeledCorpus, LabeledCorpus],
    stoplist: frozenset[str],
) -> float:
    """Refit on train (plus dev with --refit-with-dev), score on test, and print the accuracy."""
    train_corpus, dev_corpus, test_corpus = corpora
    fit_corpus = train_corpus
    if args.refit_with_dev:
        fit_corpus = LabeledCorpus.from_pairs(train_corpus.documents + dev_corpus.documents)
    test_accuracy = evaluate_assignment(assignment, fit_corpus, test_corpus, stoplist)
    print(f"test_accuracy={test_accuracy!r}")
    return test_accuracy


def cmd_optimize(args: argparse.Namespace) -> int:
    train_corpus, dev_corpus, test_corpus = _load_corpora(args)
    space = _load_space_arg(args)
    stoplist = load_stopwords()
    params = TpeParams(
        gamma=args.gamma,
        n_candidates=args.candidates,
        n_startup=args.startup,
        smoothing=args.smoothing,
        seed=args.seed,
    )
    objective = make_objective(train_corpus, dev_corpus, stoplist)

    rows: list[str] = [",".join(TRIALS_HEADER)]
    timings: list[str] = ["t,wall_time_s"]

    def on_trial(t, record, incumbent, elapsed) -> None:
        values = report_values(record.assignment)
        best = incumbent.y if incumbent is not None else math.nan
        cells = [str(t), *(_format_cell(values[f]) for f in REPORT_FIELDS)]
        cells += [_format_cell(record.y), _format_cell(best)]
        rows.append(",".join(cells))
        timings.append(f"{t},{elapsed:.6f}")
        log.info("trial %d: dev_accuracy=%s best=%s", t, record.y, best)

    state = run(space, objective, args.trials, params, on_trial=on_trial)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "trials.csv", "\n".join(rows) + "\n")
    _atomic_write(out / "timings.csv", "\n".join(timings) + "\n")

    if state.incumbent is None:
        print("all trials failed; no best configuration", file=sys.stderr)
        return 3

    payload: dict[str, object] = {
        "assignment": dict(state.incumbent.assignment),
        "dev_accuracy": state.incumbent.y,
        "trial": state.history.index(state.incumbent) + 1,
        "seed": args.seed,
        "trials": args.trials,
        "refit_with_dev": bool(args.refit_with_dev),
    }
    if test_corpus is not None:
        payload["test_accuracy"] = _test_accuracy(
            args, state.incumbent.assignment, (train_corpus, dev_corpus, test_corpus), stoplist
        )
    _atomic_write(out / "best.config", yaml.safe_dump(payload, sort_keys=False))

    print(f"best dev_accuracy={state.incumbent.y!r}")
    print(f"wrote {out / 'trials.csv'} and {out / 'best.config'}")
    return 0


def _load_config_assignment(path: str) -> dict:
    if not Path(path).is_file():
        raise InputError(f"config file not found: {path}")
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if isinstance(raw, dict) and isinstance(raw.get("assignment"), dict):
        return raw["assignment"]
    if isinstance(raw, dict):
        return raw
    raise InputError(f"config file {path} must hold a mapping of node names to values")


def cmd_eval(args: argparse.Namespace) -> int:
    train_corpus, dev_corpus, test_corpus = _load_corpora(args)
    space = _load_space_arg(args)
    assignment = _load_config_assignment(args.config)
    violations = validate_assignment(space, assignment)
    if violations:
        for violation in violations:
            print(f"invalid configuration: {violation}", file=sys.stderr)
        return 2
    stoplist = load_stopwords()
    dev_accuracy = evaluate_assignment(assignment, train_corpus, dev_corpus, stoplist)
    print(f"dev_accuracy={dev_accuracy!r}")
    if test_corpus is not None:
        _test_accuracy(args, assignment, (train_corpus, dev_corpus, test_corpus), stoplist)
    return 0


def _read_trials(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        raise InputError(f"trial log not found: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty trial log") from None
        if tuple(header) != TRIALS_HEADER:
            raise InputError(f"{path}: unexpected header {header}")
        rows = []
        for number, cells in enumerate(reader, start=2):
            if len(cells) != len(TRIALS_HEADER):
                raise InputError(f"{path}: row {number} has {len(cells)} fields")
            row = dict(zip(TRIALS_HEADER, cells))
            try:
                float(row["dev_accuracy"])
                int(row["t"])
            except ValueError:
                raise InputError(f"{path}: row {number} has malformed numbers") from None
            rows.append(row)
    if not rows:
        raise InputError(f"{path}: no trial rows")
    return rows


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render per-trial and best-so-far dev accuracy from curve.csv."""
import csv
import sys
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "curve.csv"
ts, trial_acc, best = [], [], []
with open(path) as fh:
    for row in csv.DictReader(fh):
        ts.append(int(row["t"]))
        trial_acc.append(float(row["dev_accuracy"]))
        best.append(float(row["best_so_far"]))
fig, ax = plt.subplots(figsize=(5.0, 3.5))
ax.plot(ts, best, "-", color="green", label="best so far")
ax.plot(ts, trial_acc, ":", color="orange", label="trial accuracy")
ax.set_xlabel("trial")
ax.set_ylabel("dev accuracy")
ax.legend()
fig.tight_layout()
out = path.with_name("curve.png")
fig.savefig(out, dpi=150)
print(f"wrote {out}")
'''


def cmd_report(args: argparse.Namespace) -> int:
    log_path = Path(args.log)
    rows = _read_trials(log_path)
    out = Path(args.out) if args.out is not None else log_path.parent
    out.mkdir(parents=True, exist_ok=True)

    curve_lines = ["t,dev_accuracy,best_so_far"]
    best = math.nan
    best_row: dict[str, str] | None = None
    for row in rows:
        y = float(row["dev_accuracy"])
        if math.isfinite(y) and not (best >= y):
            best = y
            best_row = row
        curve_lines.append(f"{row['t']},{row['dev_accuracy']},{_format_cell(best)}")
    _atomic_write(out / "curve.csv", "\n".join(curve_lines) + "\n")
    _atomic_write(out / "plot_curve.py", _PLOT_SCRIPT)

    if best_row is None:
        print("no successful trials in log", file=sys.stderr)
        return 2
    stop = {"True": "T", "False": "F"}.get(best_row["remove_stopwords"], best_row["remove_stopwords"])
    summary = [
        f"{100.0 * float(best_row['dev_accuracy']):.2f}",
        best_row["n_min"],
        best_row["n_max"],
        best_row["weighting"],
        stop,
        best_row["regularizer"],
        _format_sig(best_row["strength"]),
        _format_sig(best_row["tolerance"]),
    ]
    print("  ".join(REPORT_HEADER))
    print("  ".join(summary))
    print(f"wrote {out / 'curve.csv'} and {out / 'plot_curve.py'}")
    return 0


def _format_sig(cell: str) -> str:
    try:
        return f"{float(cell):.6g}"
    except ValueError:
        return cell


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train", required=True, help="training corpus TSV")
    parser.add_argument("--dev", default=None, help="development corpus TSV")
    parser.add_argument(
        "--dev-fraction",
        type=float,
        default=0.2,
        help="fraction of training data held out as dev when --dev is absent",
    )
    parser.add_argument("--test", default=None, help="optional test corpus TSV")
    parser.add_argument("--space", default=None, help="space description file (default: built-in)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--refit-with-dev",
        action="store_true",
        help="retrain the final model on train plus dev before scoring the test set",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textopt",
        description="Optimize text representation and classifier hyperparameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run the optimization loop")
    _add_corpus_flags(p_opt)
    p_opt.add_argument("--trials", type=int, default=30, help="trial budget (default 30)")
    p_opt.add_argument("--candidates", type=int, default=TpeParams.n_candidates)
    p_opt.add_argument("--startup", type=int, default=TpeParams.n_startup)
    p_opt.add_argument("--gamma", type=float, default=TpeParams.gamma)
    p_opt.add_argument("--smoothing", type=float, default=TpeParams.smoothing)
    p_opt.add_argument("--out", required=True, help="output directory")
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("eval", help="evaluate one explicit configuration")
    _add_corpus_flags(p_eval)
    p_eval.add_argument("--config", required=True, help="assignment file (best.config format)")
    p_eval.set_defaults(func=cmd_eval)

    p_rep = sub.add_parser("report", help="summarize a trials.csv")
    p_rep.add_argument("log", help="path to trials.csv")
    p_rep.add_argument("--out", default=None, help="output directory (default: log directory)")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
