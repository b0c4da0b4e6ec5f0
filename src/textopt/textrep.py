"""Text featurization: downcased alphanumeric tokens, n-grams, sparse weighting.

Tokenization lowercases the text and keeps maximal runs of alphanumeric
characters; everything else separates tokens.  N-grams of lengths n_min
through n_max are space-joined over the (optionally stopword-compacted)
token sequence.  Vocabularies are built from training text only, with
indices assigned in lexicographic n-gram order.

All featurization goes through a ``Featurizer``: a training corpus plus any
texts to be scored against it, split into parts, which are row handles.  It
tokenizes each text once, into token ids ranked in string order; stopword
removal filters the ids, so both stopword settings share one tokenization.
Per stopword setting it keeps one CSR count matrix over every training
n-gram of lengths 1 to 3 in lexicographic column order, with each
column's document frequency, idf and n-gram length.
Each n-gram occurrence is one int64 key whose numeric order is the n-grams'
string order (see ``_Grams``): the distinct training keys are the columns,
and one COO to CSR conversion counts them.  N-grams of different lengths
never coincide, so representation n_min..n_max is the columns of those
lengths in the same order; its ``Vocabulary`` holds their numbers and makes
their strings only when its ``entries`` are first read.  Each call selects
the columns and weights: tf is the counts, binary their indicator, and
tf-idf the counts times the idf.  ``build_vocabulary`` takes a featurizer's
training part and ``vectorize_corpus`` any of its parts.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import count
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

WEIGHTING_SCHEMES = ("tf", "tfidf", "binary")

# Word characters minus underscore: Unicode alphanumeric runs.
_TOKEN_PATTERN = re.compile(r"[^\W_]+")
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class RepresentationConfig:
    """N-gram extraction and weighting choices for one featurization."""

    n_min: int
    n_max: int
    weighting: str
    remove_stopwords: bool

    def __post_init__(self) -> None:
        if not 1 <= self.n_min <= self.n_max <= 3:
            raise ValueError(
                f"need 1 <= n_min <= n_max <= 3, got n_min={self.n_min} n_max={self.n_max}"
            )
        if self.weighting not in WEIGHTING_SCHEMES:
            raise ValueError(
                f"unknown weighting {self.weighting!r}, expected one of {WEIGHTING_SCHEMES}"
            )


class Vocabulary:
    """N-gram index with document frequencies, built from a training corpus.

    Index i is column ``columns[i]`` of a featurizer's count matrix, whose
    n-gram keys and document frequencies are ``grams`` and ``doc_freq``; it
    keeps those, not the featurizer or its counts.  ``entries``, and with it
    every n-gram string, is made on first read.
    """

    def __init__(
        self, grams: _Grams, doc_freq: np.ndarray, columns: np.ndarray, n_docs: int
    ) -> None:
        self._grams = grams
        self._doc_freq = doc_freq
        self.columns = columns
        self.n_docs = n_docs

    @property
    def size(self) -> int:
        return len(self.columns)

    @cached_property
    def entries(self) -> dict[str, tuple[int, int]]:
        """N-gram -> (index, document frequency)."""
        grams = self._grams.strings(self.columns)
        return dict(zip(grams, enumerate(self._doc_freq[self.columns].tolist())))


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sorted (index, value) pairs within a fixed dimension; no explicit zeros."""

    indices: np.ndarray
    values: np.ndarray
    dim: int


class Vectors(Sequence[SparseVector]):
    """One document vector per row of a CSR matrix; ``matrix`` is that matrix."""

    def __init__(self, matrix: scipy.sparse.csr_matrix) -> None:
        self.matrix = matrix

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, row: int) -> SparseVector:
        row = range(len(self))[row]
        m = self.matrix
        lo, hi = m.indptr[row], m.indptr[row + 1]
        return SparseVector(m.indices[lo:hi], m.data[lo:hi], m.shape[1])


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal alphanumeric runs."""
    return _TOKEN_PATTERN.findall(text.lower())


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stoplist (one lowercase token per line; blank lines ignored).

    With no path, the packaged English list is used.
    """
    if path is None:
        text = (
            resources.files("textopt").joinpath("resources/stopwords.txt").read_text("utf-8")
        )
    else:
        text = Path(path).read_text(encoding="utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def _idf(n_docs: int, doc_freq: int) -> float:
    return math.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0


def _key_base(n_words: int) -> int:
    """Base of the n-gram keys over ``n_words`` distinct tokens: digit 0 pads, id i is i + 1."""
    return n_words + 1


@dataclass(frozen=True)
class _Grams:
    """N-grams as int64 keys: token ids + 1 as three digits in ``base``, zero-padded.

    Token ids rank the tokens in string order, and every token character
    sorts above the space that joins an n-gram, so the keys' numeric order is
    the strings' lexicographic order.
    """

    keys: np.ndarray  # ascending, one per column
    words: list[str]  # the distinct tokens, by id
    base: int

    def strings(self, columns: np.ndarray) -> list[str]:
        """The space-joined n-grams of ``columns``."""
        keys = self.keys[columns]
        words = ["", *self.words]  # digit 0, the padding, joins nothing
        digits = (keys // self.base**2, keys // self.base % self.base, keys % self.base)
        tokens = zip(*(map(words.__getitem__, d.tolist()) for d in digits))
        return [" ".join(filter(None, gram)) for gram in tokens]


@dataclass(frozen=True)
class _Counts:
    """Counts of every training n-gram of lengths 1 to 3, columns in lexicographic order."""

    grams: _Grams
    lengths: np.ndarray  # n-gram length per column
    matrix: scipy.sparse.csr_matrix  # every text of the featurizer
    doc_freq: np.ndarray  # training document frequency per column
    idf: np.ndarray


class Texts:
    """Row handle for one part of a featurizer: its training corpus (part 0) or a set to score."""

    def __init__(self, featurizer: "Featurizer", part: int) -> None:
        self.featurizer = featurizer
        self.part = part
        self.rows = slice(*featurizer._bounds[part : part + 2])

    def __len__(self) -> int:
        return self.rows.stop - self.rows.start


class Featurizer:
    """N-gram counts of a training corpus and of texts scored against it.

    ``parts`` holds the training part first, then each scored set as given.
    Per stopword setting, one count matrix over the training n-grams of
    lengths 1 to 3, keyed as integers and counted in one pass over all of
    them, is computed on first use and kept, as is each
    (n_min, n_max, stopwords) vocabulary within them: the column numbers of
    its lengths.  The texts are tokenized on the first count, into one id
    array kept until both settings are counted; the distinct tokens are kept
    once, for both settings and every vocabulary.  More than 2,097,150
    distinct tokens raise ``ValueError``: their 3-gram keys would not fit in
    int64.
    """

    def __init__(
        self,
        train_texts: Iterable[str],
        scored: Iterable[Iterable[str]] = (),
        stoplist: frozenset[str] = frozenset(),
    ) -> None:
        if isinstance(train_texts, str):
            raise TypeError("train_texts must be a collection of texts, not a str")
        self._texts = list(train_texts)
        self.n_train = len(self._texts)
        self._bounds = [0, self.n_train]
        for texts in scored:
            if isinstance(texts, str):
                raise TypeError("each scored part must be a collection of texts, not a str")
            self._texts.extend(texts)
            self._bounds.append(len(self._texts))
        self.stoplist = stoplist
        # Token ids of every text end to end, and each text's token count: set
        # on first count, dropped once both settings are counted.
        self._ids: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._words: list[str] = []  # the distinct tokens, by id
        self._base = 0  # of the n-gram keys
        self._matrices: dict[bool, _Counts] = {}
        self._vocabs: dict[tuple[int, int, bool], Vocabulary] = {}

    # Parts are made on request: a featurizer holding its parts would form a
    # reference cycle, which keeps its counts alive until a full collection.
    @property
    def parts(self) -> tuple[Texts, ...]:
        return tuple(Texts(self, part) for part in range(len(self._bounds) - 1))

    @property
    def train(self) -> Texts:
        return Texts(self, 0)

    def _tokenize(self) -> None:
        """Map every text's tokens to ids ranked in string order, one text at a time."""
        first_seen: dict[str, int] = {}
        ids = array("q")
        sizes = []
        for text in self._texts:
            tokens = tokenize(text)
            first_seen.update(zip(set(tokens).difference(first_seen), count(len(first_seen))))
            ids.extend(map(first_seen.__getitem__, tokens))
            sizes.append(len(tokens))
        words = sorted(first_seen)
        base = _key_base(len(words))
        if base**3 > _INT64_MAX:
            raise ValueError(f"{len(words)} distinct tokens are too many to key 3-grams as int64")
        rank = np.empty(len(words), dtype=np.int64)
        rank[np.fromiter(map(first_seen.__getitem__, words), np.int64, len(words))] = np.arange(len(words))
        self._words, self._base = words, base
        self._ids = rank[np.frombuffer(ids, dtype=np.int64)]
        self._sizes = np.array(sizes, dtype=np.int64)

    def _gram_keys(self, remove_stopwords: bool) -> tuple[np.ndarray, np.ndarray]:
        """Key and text number of every n-gram occurrence of lengths 1 to 3."""
        ids, sizes, base = self._ids, self._sizes, self._base
        text_of = np.repeat(np.arange(len(sizes)), sizes)
        if remove_stopwords:
            kept = ~np.array([word in self.stoplist for word in self._words], dtype=bool)[ids]
            ids, text_of = ids[kept], text_of[kept]
            sizes = np.bincount(text_of, minlength=len(sizes))
        # Tokens from each position to the end of its text: an n-gram starts where n fit.
        left = np.cumsum(sizes)[text_of] - np.arange(len(ids))
        digits = ids + 1
        keys, rows = [], []
        for n in range(1, 4):
            at = np.flatnonzero(left >= n)
            key = digits[at] * base**2
            for j in range(1, n):
                key += digits[at + j] * base ** (2 - j)
            keys.append(key)
            rows.append(text_of[at])
        return np.concatenate(keys), np.concatenate(rows)

    def _counts(self, remove_stopwords: bool) -> _Counts:
        if remove_stopwords not in self._matrices:
            if self._ids is None:
                self._tokenize()
            keys, rows = self._gram_keys(remove_stopwords)
            distinct, inverse = np.unique(keys, return_inverse=True)
            del keys
            # The columns are the distinct training keys, in ascending order.
            trained = np.zeros(len(distinct), dtype=bool)
            trained[inverse[rows < self.n_train]] = True
            columns = distinct[trained]
            kept = trained[inverse]
            cols = (np.cumsum(trained) - 1)[inverse]
            del distinct, inverse
            # COO to CSR sums repeated (row, column) pairs and sorts each row's columns.
            counts = scipy.sparse.csr_matrix(
                (np.ones(int(kept.sum())), (rows[kept], cols[kept])),
                shape=(len(self._sizes), len(columns)),
            )
            doc_freq = np.bincount(counts.indices[: counts.indptr[self.n_train]], minlength=len(columns))
            # math.log per distinct frequency, so values equal count * _idf(...) exactly.
            distinct, inverse = np.unique(doc_freq, return_inverse=True)
            idf = np.array([_idf(self.n_train, int(df)) for df in distinct], dtype=np.float64)
            base = self._base
            # A key's lower digits are nonzero where the n-gram has a second and a third token.
            lengths = 1 + (columns // base % base > 0) + (columns % base > 0)
            grams = _Grams(columns, self._words, base)
            self._matrices[remove_stopwords] = _Counts(grams, lengths, counts, doc_freq, idf[inverse])
            if len(self._matrices) == 2:  # both settings counted: the ids are not read again
                self._ids = self._sizes = None
        return self._matrices[remove_stopwords]


def _featurizer_of(part: Texts, stoplist: frozenset[str]) -> Featurizer:
    """The featurizer ``part`` belongs to, which must use ``stoplist``."""
    if not isinstance(part, Texts):
        raise TypeError(f"expected a Featurizer part, got {type(part).__name__}")
    if part.featurizer.stoplist != stoplist:
        raise ValueError("stoplist differs from the one the part's featurizer was built with")
    return part.featurizer


def build_vocabulary(
    part: Texts,
    config: RepresentationConfig,
    stoplist: frozenset[str] = frozenset(),
) -> Vocabulary:
    """Union of training n-grams with document frequencies, indexed lexicographically.

    ``part`` is a featurizer's ``train`` part; the featurizer keeps the
    counts behind the vocabulary for ``vectorize_corpus``.
    """
    featurizer = _featurizer_of(part, stoplist)
    if part.part != 0:
        raise ValueError(f"vocabulary needs the training part, got scored part {part.part}")
    if not part:
        raise ValueError("empty corpus")
    key = (config.n_min, config.n_max, config.remove_stopwords)
    if key not in featurizer._vocabs:
        counts = featurizer._counts(config.remove_stopwords)
        columns = np.flatnonzero((counts.lengths >= config.n_min) & (counts.lengths <= config.n_max))
        featurizer._vocabs[key] = Vocabulary(counts.grams, counts.doc_freq, columns, len(part))
    return featurizer._vocabs[key]


def vectorize_corpus(
    part: Texts,
    vocab: Vocabulary,
    config: RepresentationConfig,
    stoplist: frozenset[str] = frozenset(),
) -> Vectors:
    """One weighted vector per text of ``part`` over ``vocab``; unseen n-grams are dropped.

    ``vocab`` must come from ``build_vocabulary`` on the training part of the
    same featurizer with the same n-gram lengths and stopword setting.
    """
    featurizer = _featurizer_of(part, stoplist)
    if featurizer._vocabs.get((config.n_min, config.n_max, config.remove_stopwords)) is not vocab:
        raise ValueError(
            "vocabulary was not built by the part's featurizer for "
            f"n-grams {config.n_min}..{config.n_max}, remove_stopwords={config.remove_stopwords}"
        )
    counts = featurizer._matrices[config.remove_stopwords]
    # Indexing by a column array copies, so weighting in place leaves the counts as they are.
    matrix = counts.matrix[part.rows, vocab.columns]
    if config.weighting == "binary":
        matrix.data[:] = 1.0
    elif config.weighting == "tfidf":
        matrix.data *= counts.idf[vocab.columns][matrix.indices]
    return Vectors(matrix)
