"""The benchmark's own featurizer and optimality checks, written from the README.

Nothing here calls textopt: the featurizer follows the documented conventions
(downcased maximal alphanumeric runs, stopword compaction before windowing,
lexicographic feature indices, ``count * (ln((1 + n_docs) / (1 + df)) + 1)``
for tf-idf), and the solver checks recompute the training objective's
gradient with numpy on the benchmark's own feature matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse

# A converged fit may sit this far past its own stopping bound: the benchmark's
# gradient is summed in another order than the solver's.
BOUND_SLACK = 1e-6


def tokenize(text: str) -> list[str]:
    """Downcase and keep maximal runs of alphanumeric characters."""
    tokens: list[str] = []
    run: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            run.append(ch)
        elif run:
            tokens.append("".join(run))
            run = []
    if run:
        tokens.append("".join(run))
    return tokens


class Featurizer:
    """N-gram counts of train, dev and test documents, in that order, for any cell.

    Tokens and per-length n-gram counts are computed once per document and
    stopword setting, so all 36 cells of the default space share the work.
    """

    def __init__(self, train, dev, test, stoplist: frozenset[str]) -> None:
        docs = [*train, *dev, *test]
        self.labels = [label for _, label in docs]
        self.n_train, self.n_dev = len(train), len(dev)
        tokens = [tokenize(text) for text, _ in docs]
        self._tokens = {
            False: tokens,
            True: [[t for t in doc if t not in stoplist] for doc in tokens],
        }
        self._by_length: dict[tuple[int, bool], list[Counter]] = {}

    def _grams(self, n: int, remove_stopwords: bool) -> list[Counter]:
        key = (n, remove_stopwords)
        if key not in self._by_length:
            self._by_length[key] = [
                Counter(" ".join(doc[i : i + n]) for i in range(len(doc) - n + 1))
                for doc in self._tokens[remove_stopwords]
            ]
        return self._by_length[key]

    def counts(self, n_min: int, n_max: int, remove_stopwords: bool) -> list[Counter]:
        """Per-text multiset of n-grams for every n in [n_min, n_max]."""
        merged = [Counter() for _ in self._tokens[False]]
        for n in range(n_min, n_max + 1):
            for total, grams in zip(merged, self._grams(n, remove_stopwords)):
                total.update(grams)
        return merged


@dataclass(frozen=True)
class Vocab:
    index: dict[str, int]
    df: dict[str, int]
    n_docs: int


def vocabulary(train_counts: list[Counter]) -> Vocab:
    df: Counter = Counter()
    for grams in train_counts:
        df.update(grams.keys())
    return Vocab({g: i for i, g in enumerate(sorted(df))}, dict(df), len(train_counts))


def weight(count: int, df: int, n_docs: int, weighting: str) -> float:
    if weighting == "binary":
        return 1.0
    if weighting == "tf":
        return float(count)
    return count * (math.log((1 + n_docs) / (1 + df)) + 1)


def vector(grams: Counter, vocab: Vocab, weighting: str) -> tuple[list[int], list[float]]:
    """Sorted feature indices and weights of one document's in-vocabulary n-grams."""
    items = sorted(
        (vocab.index[g], weight(c, vocab.df[g], vocab.n_docs, weighting))
        for g, c in grams.items()
        if g in vocab.index
    )
    return [i for i, _ in items], [v for _, v in items]


def matrix(counts: list[Counter], vocab: Vocab, weighting: str) -> scipy.sparse.csr_matrix:
    indptr, indices, values = [0], [], []
    for grams in counts:
        idx, val = vector(grams, vocab, weighting)
        indices += idx
        values += val
        indptr.append(len(indices))
    return scipy.sparse.csr_matrix(
        (np.asarray(values, dtype=float), np.asarray(indices, dtype=np.int64), np.asarray(indptr)),
        shape=(len(counts), len(vocab.index)),
    )


def compare_vocabulary(program, expected: Vocab) -> str | None:
    """Difference between a textopt Vocabulary and the reference, or None."""
    if program.n_docs != expected.n_docs:
        return f"n_docs {program.n_docs} != {expected.n_docs}"
    got = {g: (i, df) for g, (i, df) in program.entries.items()}
    want = {g: (expected.index[g], expected.df[g]) for g in expected.index}
    if got != want:
        extra = sorted(set(got) - set(want))[:3]
        missing = sorted(set(want) - set(got))[:3]
        wrong = sorted(g for g in set(got) & set(want) if got[g] != want[g])[:3]
        return f"vocabulary differs: extra {extra}, missing {missing}, wrong index/df {wrong}"
    return None


def compare_vectors(program, counts: list[Counter], vocab: Vocab, weighting: str) -> str | None:
    """Difference between textopt SparseVectors and the reference weights, or None."""
    if len(program) != len(counts):
        return f"{len(program)} vectors for {len(counts)} documents"
    for doc, (vec, grams) in enumerate(zip(program, counts)):
        idx, val = vector(grams, vocab, weighting)
        if vec.dim != len(vocab.index) or vec.indices.tolist() != idx:
            return f"document {doc}: feature indices differ"
        if not np.allclose(vec.values, val, rtol=1e-12, atol=0.0):
            return f"document {doc}: {weighting} values differ"
    return None


def label_indices(labels: list[str], classes: tuple[str, ...]) -> np.ndarray:
    position = {label: i for i, label in enumerate(classes)}
    return np.asarray([position.get(label, -1) for label in labels], dtype=np.int64)


def accuracy(model, x: scipy.sparse.csr_matrix, labels: list[str]) -> float:
    """Share of documents whose highest linear score (earlier label on ties) is their label."""
    predicted = np.argmax(x @ model.coef.T + model.intercept, axis=1)
    return int(np.sum(predicted == label_indices(labels, model.labels))) / len(labels)


def optimality_ratio(model, x: scipy.sparse.csr_matrix, labels: list[str], penalty: str,
                     strength: float, tolerance: float) -> float:
    """Stopping residual of a fit over its stopping bound; at most 1 when it converged.

    The objective is ``penalty(W) + strength * sum(loss)`` with an unpenalized
    intercept.  The bound is tolerance times the infinity norm of the loss
    gradient at zero.  For l2 the residual is the infinity norm of the full
    gradient; for l1 it is the larger of the proximal-gradient residual
    ``W - soft(W - grad_loss(W), 1)`` and the intercept gradient.
    """
    y = label_indices(labels, model.labels)
    k = len(model.labels)

    def loss_gradient(coef: np.ndarray, intercept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = x @ coef.T + intercept
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(len(y)), y] -= 1.0
        return strength * np.asarray(x.T @ probs).T, strength * probs.sum(axis=0)

    g0_coef, g0_int = loss_gradient(np.zeros_like(model.coef), np.zeros(k))
    bound = tolerance * max(np.abs(g0_coef).max(initial=0.0), np.abs(g0_int).max())
    g_coef, g_int = loss_gradient(model.coef, model.intercept)
    if penalty == "l2":
        coef_residual = np.abs(g_coef + model.coef).max(initial=0.0)
    else:
        z = model.coef - g_coef
        soft = np.sign(z) * np.maximum(np.abs(z) - 1.0, 0.0)
        coef_residual = np.abs(model.coef - soft).max(initial=0.0)
    return max(coef_residual, np.abs(g_int).max()) / bound
