"""Corpus ingestion, deterministic splits, synthetic corpora.

Corpora are stored as tab-separated files, one document per line:
``label<TAB>text`` with backslash, tab, and newline escaped as ``\\\\``,
``\\t``, and ``\\n`` so that write/load round trips are byte exact.  Only
``\\n`` ends a line; any other character, a carriage return included, is
read back as written.

The benchmark datasets are described in the YAML file ``datasets/manifest``
of the source tree; this module does not read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np


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
    with open(path, encoding="utf-8", newline="\n") as fh:
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
