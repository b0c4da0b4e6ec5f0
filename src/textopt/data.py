"""Corpus ingestion, deterministic splits, synthetic corpora, dataset manifest.

Corpora are stored as tab-separated files, one document per line:
``label<TAB>text`` with backslash, tab, and newline escaped as ``\\\\``,
``\\t``, and ``\\n`` so that write/load round trips are byte exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
import yaml


@dataclass(frozen=True)
class LabeledCorpus:
    """Documents as (text, label) pairs; labels kept in first-appearance order."""

    documents: tuple[tuple[str, str], ...]
    labels: tuple[str, ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "LabeledCorpus":
        documents = tuple(pairs)
        labels: list[str] = []
        for _, label in documents:
            if label not in labels:
                labels.append(label)
        if not labels:
            raise ValueError("corpus has no documents")
        return cls(documents, tuple(labels))

    @property
    def texts(self) -> list[str]:
        return [text for text, _ in self.documents]

    def __len__(self) -> int:
        return len(self.documents)


_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n"}
_UNESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n"}


def _escape(text: str) -> str:
    return re.sub(r"[\\\t\n]", lambda m: _ESCAPES[m.group(0)], text)


def _unescape(text: str) -> str:
    return re.sub(r"\\[\\tn]", lambda m: _UNESCAPES[m.group(0)], text)


def load_tsv(path: str | Path) -> LabeledCorpus:
    """Parse a label<TAB>text corpus file in file order."""
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if "\t" not in line:
                raise ValueError(f"{path}: line {number} has no tab separator")
            label, text = line.split("\t", 1)
            pairs.append((_unescape(text), _unescape(label)))
    if not pairs:
        raise ValueError(f"{path}: empty corpus file")
    return LabeledCorpus.from_pairs(pairs)


def write_tsv(corpus: LabeledCorpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for text, label in corpus.documents:
            fh.write(f"{_escape(label)}\t{_escape(text)}\n")


def split_corpus(
    corpus: LabeledCorpus, dev_fraction: float = 0.2, seed: int = 0
) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Deterministic shuffle; the first ceil(dev_fraction * n) documents become dev."""
    if not 0.0 < dev_fraction < 1.0:
        raise ValueError(f"dev_fraction must be in (0, 1), got {dev_fraction}")
    n = len(corpus)
    if n < 2:
        raise ValueError(f"cannot split a corpus of {n} document(s)")
    n_dev = int(np.ceil(dev_fraction * n))
    if not 0 < n_dev < n:
        raise ValueError(
            f"dev_fraction {dev_fraction} splits {n} documents into {n - n_dev} training "
            f"and {n_dev} dev documents; both parts need at least one"
        )
    order = np.random.default_rng(seed).permutation(n)
    dev = LabeledCorpus.from_pairs(corpus.documents[i] for i in order[:n_dev])
    train = LabeledCorpus.from_pairs(corpus.documents[i] for i in order[n_dev:])
    return train, dev


def synthetic_corpus(
    n_docs: int,
    n_classes: int = 2,
    vocab_size: int = 50,
    signal_strength: float = 1.0,
    seed: int = 0,
) -> LabeledCorpus:
    """Planted-feature corpus for desk-scale experiments.

    Each document holds 20 to 50 tokens drawn from a shared unigram pool
    ``w0 .. w{vocab_size-1}`` with a long-tailed (Zipf-like) frequency
    profile, so rare tokens exist for classifiers to overfit on.  Two class
    signals for class c are planted, each independently with probability
    signal_strength: the marker token ``mark{c}`` at a random position, and
    the adjacent bigram ``siga{c} sigb{c}``.  Neither signal uses pool
    tokens, so every class gets its own marker and bigram for any
    vocab_size.  At signal 0 the text carries no label information.
    """
    if n_docs < 1:
        raise ValueError(f"n_docs must be positive, got {n_docs}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be positive, got {vocab_size}")
    if not 0.0 <= signal_strength <= 1.0:
        raise ValueError(f"signal_strength must be in [0, 1], got {signal_strength}")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=float)
    pool_probs = 1.0 / ranks
    pool_probs /= pool_probs.sum()
    pairs: list[tuple[str, str]] = []
    for _ in range(n_docs):
        cls = int(rng.integers(n_classes))
        length = int(rng.integers(20, 51))
        tokens = [f"w{int(i)}" for i in rng.choice(vocab_size, size=length, p=pool_probs)]
        if rng.random() < signal_strength:
            tokens.insert(int(rng.integers(len(tokens) + 1)), f"mark{cls}")
        if rng.random() < signal_strength:
            at = int(rng.integers(len(tokens) + 1))
            tokens[at:at] = [f"siga{cls}", f"sigb{cls}"]
        pairs.append((" ".join(tokens), f"c{cls}"))
    return LabeledCorpus.from_pairs(pairs)


@dataclass(frozen=True)
class DatasetInfo:
    """Provenance and expected split sizes for one benchmark dataset."""

    name: str
    url: str
    n_train: int
    n_dev: int
    n_test: int
    notes: str


DATASETS: tuple[DatasetInfo, ...] = (
    DatasetInfo(
        name="Stanford sentiment",
        url="http://nlp.stanford.edu/sentiment",
        n_train=6920,
        n_dev=872,
        n_test=1821,
        notes=(
            "Sentence-level binary movie-review sentiment (neutral reviews dropped); "
            "standard train/dev/test splits. Convert each split to TSV with labels "
            "'pos'/'neg' and the raw sentence as text."
        ),
    ),
    DatasetInfo(
        name="Amazon electronics",
        url="http://riejohnson.com/cnn_data.html",
        n_train=20000,
        n_dev=5000,
        n_test=25000,
        notes=(
            "Electronics product reviews, positive vs negative, text section only "
            "(summaries ignored). Dev set is a random 20% of the 25,000 training "
            "reviews (seeded shuffle)."
        ),
    ),
    DatasetInfo(
        name="IMDB reviews",
        url="http://ai.stanford.edu/~amaas//data/sentiment",
        n_train=20000,
        n_dev=5000,
        n_test=25000,
        notes=(
            "Highly polar movie reviews, binary sentiment. Dev set is a random 20% "
            "of the 25,000 training reviews (seeded shuffle)."
        ),
    ),
    DatasetInfo(
        name="Congress vote",
        url="http://www.cs.cornell.edu/~ainur/sle-data.html",
        n_train=1175,
        n_dev=113,
        n_test=411,
        notes=(
            "Floor-debate transcripts for controversial bills; predict the speaker's "
            "vote ('yea'/'nay') for each speech segment. Uses the distributed "
            "train/dev/test splits."
        ),
    ),
    DatasetInfo(
        name="20N all topics",
        url="http://qwone.com/~jason/20Newsgroups",
        n_train=9052,
        n_dev=2262,
        n_test=7532,
        notes=(
            "20 Newsgroups bydate version, all 20 topics. Remove message headers "
            "(they leak label information) before conversion. Dev set is a random "
            "20% of the 11,314 training articles."
        ),
    ),
    DatasetInfo(
        name="20N all science",
        url="http://qwone.com/~jason/20Newsgroups",
        n_train=1899,
        n_dev=474,
        n_test=1579,
        notes=(
            "Four-way science classification over sci.crypt, sci.electronics, "
            "sci.med, sci.space (the reference task description lists sci.med "
            "twice; sci.space is the count-consistent fourth group). Headers "
            "removed; dev is a random 20% of the 2,373 training articles."
        ),
    ),
    DatasetInfo(
        name="20N atheist.religion",
        url="http://qwone.com/~jason/20Newsgroups",
        n_train=686,
        n_dev=171,
        n_test=570,
        notes=(
            "Binary talk.religion.misc vs alt.atheism. Headers removed; dev is a "
            "random 20% of the 857 training articles."
        ),
    ),
    DatasetInfo(
        name="20N x.graphics",
        url="http://qwone.com/~jason/20Newsgroups",
        n_train=942,
        n_dev=235,
        n_test=784,
        notes=(
            "Binary comp.graphics vs comp.windows.x. Headers removed; dev is a "
            "random 20% of the 1,177 training articles."
        ),
    ),
)


def load_manifest(path: str | Path) -> tuple[DatasetInfo, ...]:
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    return tuple(
        DatasetInfo(
            name=item["name"],
            url=item["url"],
            n_train=item["counts"]["train"],
            n_dev=item["counts"]["dev"],
            n_test=item["counts"]["test"],
            notes=item["notes"],
        )
        for item in raw
    )
