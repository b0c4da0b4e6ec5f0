"""Tokenization, n-gram extraction, vocabulary construction, and weighting."""

from __future__ import annotations

import gc
import hashlib
import math
import tracemalloc
import weakref
from collections import Counter
from typing import Sequence

import numpy as np
import pytest

import textopt.textrep
from textopt import logreg
from textopt.data import LabeledCorpus, split_corpus, synthetic_corpus
from textopt.pipeline import make_objective
from textopt.textrep import (
    WEIGHTING_SCHEMES,
    Featurizer,
    RepresentationConfig,
    _idf,
    build_vocabulary,
    load_stopwords,
    tokenize,
    vectorize_corpus,
)

UNIGRAMS = RepresentationConfig(1, 1, "tf", False)


def _ngrams(tokens: Sequence[str], n: int) -> list[str]:
    """Space-joined windows of n consecutive tokens, in text order."""
    if n == 1:
        return list(tokens)
    return [" ".join(window) for window in zip(*(tokens[i:] for i in range(n)))]


def extract_ngrams(
    tokens: Sequence[str],
    n_min: int,
    n_max: int,
    remove_stopwords: bool = False,
    stoplist: frozenset[str] = frozenset(),
) -> Counter[str]:
    """Multiset of space-joined n-grams for every n in [n_min, n_max].

    Stopword removal compacts the token sequence before windowing, so n-grams
    may span removed positions.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}, {n_max}")
    if remove_stopwords:
        tokens = [t for t in tokens if t not in stoplist]
    grams: Counter[str] = Counter()
    for n in range(n_min, n_max + 1):
        grams.update(_ngrams(tokens, n))
    return grams


def featurize_one(train_texts, text, config):
    """Vocabulary of ``train_texts`` and the vector of ``text`` scored against it."""
    featurizer = Featurizer(train_texts, [[text]])
    vocab = build_vocabulary(featurizer.train, config)
    return vocab, vectorize_corpus(featurizer.parts[1], vocab, config)[0]


class TestTokenize:
    def test_downcases_and_splits_on_nonalphanumeric(self):
        assert tokenize("The Cat sat.") == ["the", "cat", "sat"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_apostrophes_hyphens_and_digits(self):
        assert tokenize("won't stop-2x") == ["won", "t", "stop", "2x"]

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_unicode_letters_kept(self):
        assert tokenize("Café au lait") == ["café", "au", "lait"]


class TestExtractNgrams:
    def test_unigrams_and_bigrams(self):
        grams = extract_ngrams(["a", "b", "c"], 1, 2)
        assert grams == Counter({"a": 1, "b": 1, "c": 1, "a b": 1, "b c": 1})

    def test_window_longer_than_sequence(self):
        assert extract_ngrams(["a", "b"], 3, 3) == Counter()

    def test_stopword_removal_compacts_before_windowing(self):
        grams = extract_ngrams(
            ["the", "cat", "the", "cat"], 2, 2, remove_stopwords=True, stoplist=frozenset({"the"})
        )
        assert grams == Counter({"cat cat": 1})

    def test_multiplicities_counted(self):
        assert extract_ngrams(["a", "a", "a"], 1, 1) == Counter({"a": 3})

    def test_matches_naive_windowing_oracle(self):
        rng = np.random.default_rng(13)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(20):
            tokens = [alphabet[i] for i in rng.integers(4, size=int(rng.integers(0, 30)))]
            n_min = int(rng.integers(1, 4))
            n_max = int(rng.integers(n_min, 4))
            expected: Counter[str] = Counter()
            for n in range(n_min, n_max + 1):
                for i in range(len(tokens)):
                    window = tokens[i : i + n]
                    if len(window) == n:
                        expected[" ".join(window)] += 1
            assert extract_ngrams(tokens, n_min, n_max) == expected

    def test_no_stoplist_unigram_survives_removal(self):
        stoplist = load_stopwords()
        rng = np.random.default_rng(3)
        pool = list(stoplist)[:20] + ["cat", "dog", "fish"]
        for _ in range(20):
            tokens = [pool[i] for i in rng.integers(len(pool), size=25)]
            grams = extract_ngrams(tokens, 1, 2, remove_stopwords=True, stoplist=stoplist)
            unigrams = {g for g in grams if " " not in g}
            assert not unigrams & stoplist


class TestBuildVocabulary:
    def test_hand_counted_document_frequencies(self):
        vocab = build_vocabulary(Featurizer(["a b", "a c"]).train, UNIGRAMS)
        assert vocab.n_docs == 2
        assert vocab.entries == {"a": (0, 2), "b": (1, 1), "c": (2, 1)}

    def test_deterministic(self):
        first = build_vocabulary(Featurizer(["a b", "a c"]).train, UNIGRAMS)
        second = build_vocabulary(Featurizer(["a b", "a c"]).train, UNIGRAMS)
        assert (first.n_docs, first.entries) == (second.n_docs, second.entries)

    def test_df_bounded_by_doc_count(self):
        texts = ["a b c d", "b c", "c d a", "a a a"]
        vocab = build_vocabulary(Featurizer(texts).train, RepresentationConfig(1, 2, "tf", False))
        for _, (index, df) in vocab.entries.items():
            assert 1 <= df <= vocab.n_docs
            assert 0 <= index < vocab.size

    def test_indices_contiguous_and_lexicographic(self):
        vocab = build_vocabulary(Featurizer(["b a", "c a"]).train, UNIGRAMS)
        ordered = sorted(vocab.entries, key=lambda g: vocab.entries[g][0])
        assert ordered == sorted(vocab.entries)
        assert [vocab.entries[g][0] for g in ordered] == list(range(vocab.size))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocabulary(Featurizer([]).train, UNIGRAMS)


class TestVectorize:
    def test_tfidf_hand_values(self):
        config = RepresentationConfig(1, 1, "tfidf", False)
        vocab, vec = featurize_one(["a b", "a c"], "a b", config)
        by_index = dict(zip(vec.indices.tolist(), vec.values.tolist()))
        assert by_index[vocab.entries["a"][0]] == pytest.approx(1.0, abs=1e-12)
        assert by_index[vocab.entries["b"][0]] == pytest.approx(1.4055, abs=1e-4)
        assert by_index[vocab.entries["b"][0]] == pytest.approx(math.log(3 / 2) + 1)

    def test_binary_presence(self):
        config = RepresentationConfig(1, 1, "binary", False)
        _, vec = featurize_one(["a b", "a c"], "a b b b", config)
        assert set(vec.values.tolist()) == {1.0}

    def test_tf_counts(self):
        vocab, vec = featurize_one(["a b", "a c"], "a a b", UNIGRAMS)
        by_index = dict(zip(vec.indices.tolist(), vec.values.tolist()))
        assert by_index[vocab.entries["a"][0]] == 2.0
        assert by_index[vocab.entries["b"][0]] == 1.0

    def test_out_of_vocabulary_dropped(self):
        config = RepresentationConfig(3, 3, "tf", False)
        _, vec = featurize_one(["a b c", "b c d"], "x y z w", config)
        assert vec.indices.size == 0

    def test_indices_strictly_increasing_and_in_range(self):
        config = RepresentationConfig(1, 3, "tfidf", False)
        texts = ["the quick brown fox", "jumps over the lazy dog", "the fox"]
        featurizer = Featurizer(texts, [texts + ["unseen words entirely", ""]])
        vocab = build_vocabulary(featurizer.train, config)
        for vec in vectorize_corpus(featurizer.parts[1], vocab, config):
            assert np.all(np.diff(vec.indices) > 0)
            assert vec.indices.size == 0 or vec.indices[-1] < vocab.size
            assert np.all(np.isfinite(vec.values))
            assert np.all(vec.values > 0)

    def test_featurizing_never_mutates_vocabulary(self):
        config = RepresentationConfig(1, 2, "tfidf", False)
        featurizer = Featurizer(["a b", "a c"], [["a b unseen", "totally new text"]])
        vocab = build_vocabulary(featurizer.train, config)
        before = hash(tuple(sorted(vocab.entries.items())))
        vectorize_corpus(featurizer.parts[1], vocab, config)
        after = hash(tuple(sorted(vocab.entries.items())))
        assert before == after


ALL_CELLS = [
    RepresentationConfig(n_min, n_max, weighting, remove_stopwords)
    for n_min in (1, 2, 3)
    for n_max in range(n_min, 4)
    for weighting in WEIGHTING_SCHEMES
    for remove_stopwords in (False, True)
]
STOPLIST = frozenset({"the", "of", "and", "a"})
# An empty text, one shorter than a bigram, one of stopwords only, and
# repeated n-grams; the scored texts hold n-grams the training texts lack.
TRAIN_TEXTS = [
    "The cat sat on the mat, and the cat slept.",
    "",
    "cat",
    "the of and a",
    "A dog of the house chased the cat of the house",
    "mat mat mat cat dog",
]
SCORED_TEXTS = ["the cat chased a mouse", "", "zebra", "the of", "dog dog house mat cat sat"]
# Trigram cells of this corpus have empty vocabularies.
SHORT_TRAIN = ["cat dog", "the cat", "dog"]
SHORT_SCORED = ["cat dog cat", "the the cat dog"]
# Twenty documents with frequencies up to 19: numpy's vectorized log gives
# another last bit than math.log for ln(21 / 20), so an idf computed with it
# differs from _idf.
MANY_TRAIN = [
    ("the common " if i < 19 else "") + f"w{i} x{i % 3} y{i % 7} x{i % 3}" for i in range(20)
]
MANY_SCORED = ["common x1 x1 y2 unseen", "the w3 common"]


STOP_POOL = ("the", "of", "and", "a", "to", "in")


def with_stopwords(corpus: LabeledCorpus, seed: int) -> LabeledCorpus:
    """``corpus`` with a stopword before about three tokens in ten, so stopword cells differ."""
    rng = np.random.default_rng(seed)
    pairs = []
    for text, label in corpus.documents:
        tokens = []
        for token in text.split():
            if rng.random() < 0.3:
                tokens.append(STOP_POOL[int(rng.integers(len(STOP_POOL)))])
            tokens.append(token)
        pairs.append((" ".join(tokens), label))
    return LabeledCorpus.from_pairs(pairs)


def assignment_of(config: RepresentationConfig, regularizer: str) -> dict:
    n_min = config.n_min
    return {
        "n_min": n_min,
        f"n_span|n_min={n_min}": config.n_max - n_min,
        "weighting": {"tfidf": "tf-idf"}.get(config.weighting, config.weighting),
        "remove_stopwords": config.remove_stopwords,
        "regularizer": regularizer,
        "strength": 3.0,
        "tolerance": 1e-4,
    }


# sha256 over the float.hex of the objective values below.  How the featurizer
# stores and selects counts must not move it; a deliberate change of trial
# values updates it and says so.
OBJECTIVE_DIGEST = "a5945e08db92b98e8613232afd6a713295606bd3aed65a99df02e20483525762"


def reachable(root) -> list:
    """Every object reachable from ``root`` through references, classes excluded."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        found.append(obj)
        # The collector does not visit the keys of a dict whose keys are all strings.
        for ref in gc.get_referents(obj) + (list(obj) if isinstance(obj, dict) else []):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                stack.append(ref)
    return found


def oracle(train_texts, texts, config, stoplist):
    """Vocabulary {gram: (index, df)} and (indices, values) per text, from extract_ngrams."""

    def grams(text):
        return extract_ngrams(
            tokenize(text), config.n_min, config.n_max, config.remove_stopwords, stoplist
        )

    df = Counter()
    for text in train_texts:
        df.update(grams(text).keys())
    entries = {gram: (index, df[gram]) for index, gram in enumerate(sorted(df))}
    vectors = []
    for text in texts:
        items = []
        for gram, count in grams(text).items():
            if gram in entries:
                index, doc_freq = entries[gram]
                if config.weighting == "binary":
                    value = 1.0
                elif config.weighting == "tf":
                    value = float(count)
                else:
                    value = count * _idf(len(train_texts), doc_freq)
                items.append((index, value))
        items.sort()
        vectors.append(([i for i, _ in items], [v for _, v in items]))
    return entries, vectors


class TestFeaturizer:
    @pytest.mark.parametrize(
        "train_texts,scored_texts",
        [(TRAIN_TEXTS, SCORED_TEXTS), (SHORT_TRAIN, SHORT_SCORED), (MANY_TRAIN, MANY_SCORED)],
    )
    def test_all_cells_match_naive_oracle(self, train_texts, scored_texts):
        featurizer = Featurizer(train_texts, [scored_texts], STOPLIST)
        for config in ALL_CELLS:
            vocab = build_vocabulary(featurizer.train, config, STOPLIST)
            entries, _ = oracle(train_texts, [], config, STOPLIST)
            assert vocab.entries == entries, config
            assert vocab.n_docs == len(train_texts)
            for part, texts in zip(featurizer.parts, (train_texts, scored_texts)):
                vectors = vectorize_corpus(part, vocab, config, STOPLIST)
                _, expected = oracle(train_texts, texts, config, STOPLIST)
                assert len(vectors) == len(texts)
                for vec, (indices, values) in zip(vectors, expected):
                    assert vec.dim == vocab.size
                    assert vec.indices.tolist() == indices, config
                    assert vec.values.tolist() == values, config  # bitwise: no tolerance

    def test_trigram_vocabulary_can_be_empty(self):
        config = RepresentationConfig(3, 3, "tfidf", False)
        featurizer = Featurizer(SHORT_TRAIN, [SHORT_SCORED])
        vocab = build_vocabulary(featurizer.train, config)
        assert vocab.size == 0
        vectors = vectorize_corpus(featurizer.parts[1], vocab, config)
        assert [v.indices.size for v in vectors] == [0, 0]
        assert all(v.dim == 0 for v in vectors)

    @pytest.mark.parametrize("train_texts,scored", [("a b", ()), (["a b"], ["a b", "c"])])
    def test_str_in_place_of_texts_rejected(self, train_texts, scored):
        with pytest.raises(TypeError, match="not a str"):
            Featurizer(train_texts, scored)

    def test_plain_text_list_rejected(self):
        with pytest.raises(TypeError, match="expected a Featurizer part, got list"):
            build_vocabulary(TRAIN_TEXTS, UNIGRAMS)

    @pytest.mark.parametrize("mismatch", ["foreign vocabulary", "scored part", "stoplist"])
    def test_mismatched_inputs_rejected(self, mismatch):
        config = RepresentationConfig(1, 2, "tf", True)
        featurizer = Featurizer(TRAIN_TEXTS, [SCORED_TEXTS], STOPLIST)
        vocab = build_vocabulary(featurizer.train, config, STOPLIST)
        if mismatch == "foreign vocabulary":
            other = Featurizer(TRAIN_TEXTS, (), STOPLIST)
            foreign = build_vocabulary(other.train, config, STOPLIST)
            # Equal contents, built by another featurizer.
            assert (foreign.n_docs, foreign.entries) == (vocab.n_docs, vocab.entries)
            with pytest.raises(ValueError, match="not built by the part's featurizer"):
                vectorize_corpus(featurizer.parts[1], foreign, config, STOPLIST)
        elif mismatch == "scored part":
            with pytest.raises(ValueError, match="training part, got scored part 1"):
                build_vocabulary(featurizer.parts[1], config, STOPLIST)
        else:
            with pytest.raises(ValueError, match="stoplist differs"):
                vectorize_corpus(featurizer.parts[1], vocab, config, frozenset())

    def test_freed_without_the_cycle_collector(self):
        featurizer = Featurizer(TRAIN_TEXTS, [SCORED_TEXTS], STOPLIST)
        config = RepresentationConfig(1, 3, "tfidf", True)
        vocab = build_vocabulary(featurizer.train, config, STOPLIST)
        for part in featurizer.parts:
            vectorize_corpus(part, vocab, config, STOPLIST)
        ref = weakref.ref(featurizer)
        gc.disable()
        try:
            del featurizer, part
            assert ref() is None
        finally:
            gc.enable()

    def test_objective_values_match_pinned_digest(self):
        corpus = synthetic_corpus(160, n_classes=3, vocab_size=60, signal_strength=0.5, seed=5)
        train, dev = split_corpus(with_stopwords(corpus, 5), 0.25, seed=5)
        objective = make_objective(train, dev, load_stopwords())
        digest = hashlib.sha256()
        for config in ALL_CELLS:
            for regularizer in ("l1", "l2"):
                digest.update(objective(assignment_of(config, regularizer)).hex().encode())
        assert digest.hexdigest() == OBJECTIVE_DIGEST

    def test_fresh_featurizer_per_cell_gives_the_shared_matrices(self):
        # A fresh featurizer per cell is what evaluate_assignment builds.
        corpus = with_stopwords(synthetic_corpus(120, n_classes=3, vocab_size=80, seed=4), 4)
        train, dev = split_corpus(corpus, 0.25, seed=4)
        stoplist = load_stopwords()
        shared = Featurizer(train.texts, [dev.texts], stoplist)
        for config in ALL_CELLS:
            one = Featurizer(train.texts, [dev.texts], stoplist)
            vocab = build_vocabulary(one.train, config, stoplist)
            shared_vocab = build_vocabulary(shared.train, config, stoplist)
            assert vocab.size == shared_vocab.size > 0
            assert vocab.entries == shared_vocab.entries  # order and document frequencies
            for part, shared_part in zip(one.parts, shared.parts):
                got = vectorize_corpus(part, vocab, config, stoplist).matrix
                expected = vectorize_corpus(shared_part, shared_vocab, config, stoplist).matrix
                assert got.shape == expected.shape
                for field in ("indptr", "indices", "data"):
                    assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()

    def test_column_groups_merge_every_cell_as_train_would(self):
        corpus = with_stopwords(synthetic_corpus(120, n_classes=3, vocab_size=80, seed=4), 4)
        train, dev = split_corpus(corpus, 0.25, seed=4)
        stoplist = load_stopwords()
        featurizer = Featurizer(train.texts, [dev.texts], stoplist)
        kept = {}
        for config in ALL_CELLS:
            vocab = build_vocabulary(featurizer.train, config, stoplist)
            x = vectorize_corpus(featurizer.train, vocab, config, stoplist).matrix
            merged, column_of, root = logreg._merge_identical_columns(x)
            got = logreg._merge_identical_columns(x, featurizer.column_groups(config))
            assert merged.shape[1] < x.shape[1], config  # every cell has copies to merge
            assert got[1].tobytes() == column_of.tobytes(), config
            assert got[2].tobytes() == root.tobytes(), config
            assert got[0].shape == merged.shape
            for field in ("indptr", "indices", "data"):
                assert getattr(got[0], field).tobytes() == getattr(merged, field).tobytes()
            kept[config] = merged.shape[1]
        # Binary weighting merges columns whose counts differ on the same documents.
        for config in ALL_CELLS:
            if config.weighting == "binary":
                tf = RepresentationConfig(config.n_min, config.n_max, "tf", config.remove_stopwords)
                tfidf = RepresentationConfig(config.n_min, config.n_max, "tfidf", config.remove_stopwords)
                assert kept[config] <= kept[tf] == kept[tfidf]
        assert any(kept[c] < kept[RepresentationConfig(c.n_min, c.n_max, "tf", c.remove_stopwords)]
                   for c in ALL_CELLS if c.weighting == "binary")

    def test_column_groups_need_the_vocabulary(self):
        featurizer = Featurizer(TRAIN_TEXTS, [SCORED_TEXTS], STOPLIST)
        with pytest.raises(ValueError, match="no vocabulary built"):
            featurizer.column_groups(UNIGRAMS)

    def test_more_cells_retain_little_more_than_the_widest(self):
        corpus = with_stopwords(synthetic_corpus(300, vocab_size=300, seed=2), 2)
        stoplist = load_stopwords()

        def retained(configs) -> int:
            """Bytes a featurizer holds after featurizing every part for ``configs``."""
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                featurizer = Featurizer(corpus.texts, [corpus.texts[:50]], stoplist)
                for config in configs:
                    vocab = build_vocabulary(featurizer.train, config, stoplist)
                    for part in featurizer.parts:
                        vectorize_corpus(part, vocab, config, stoplist)
                del vocab, part
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        widest = [c for c in ALL_CELLS if (c.n_min, c.n_max, c.weighting) == (1, 3, "tf")]
        # Every other cell selects columns of the same two count matrices.
        assert retained(ALL_CELLS) <= 1.5 * retained(widest)

    def test_parts_are_row_handles(self):
        featurizer = Featurizer(TRAIN_TEXTS, [SCORED_TEXTS, SHORT_SCORED, []], STOPLIST)
        parts = featurizer.parts
        sizes = [len(TRAIN_TEXTS), len(SCORED_TEXTS), len(SHORT_SCORED), 0]
        assert [len(part) for part in parts] == sizes
        assert len(featurizer.train) == len(TRAIN_TEXTS)
        for part in parts:
            assert set(vars(part)) == {"featurizer", "part", "rows"}  # no copy of the texts

    @pytest.mark.parametrize("first", [False, True])
    def test_tokens_dropped_once_both_settings_are_counted(self, first):
        tokens = [token for text in TRAIN_TEXTS + SCORED_TEXTS for token in tokenize(text)]
        words = sorted(set(tokens))
        ids = [words.index(token) for token in tokens]
        kept_ids = [i for i, token in zip(ids, tokens) if token not in STOPLIST]

        def per_token(featurizer) -> list:
            """The texts' tokens, token lists or token ids (either setting) in ``featurizer``."""
            return [
                obj
                for obj in reachable(featurizer)
                if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.tolist() in (ids, kept_ids)
                or isinstance(obj, list)
                and obj
                and (obj == tokens or all(isinstance(doc, list) for doc in obj))
            ]

        featurizer = Featurizer(TRAIN_TEXTS, [SCORED_TEXTS], STOPLIST)
        assert per_token(featurizer) == []  # nothing is tokenized before the first count
        for remove_stopwords in (first, not first):
            config = RepresentationConfig(1, 2, "tf", remove_stopwords)
            build_vocabulary(featurizer.train, config, STOPLIST)
            kept = per_token(featurizer)
            if remove_stopwords == first:
                # One setting counted: the texts' token ids, unfiltered and ranked in
                # string order, are kept for the other.
                assert [a.tolist() for a in kept] == [ids]
        assert kept == []

    def test_no_ngram_string_is_made_before_entries_are_read(self):
        featurizer = Featurizer(TRAIN_TEXTS, [SCORED_TEXTS], STOPLIST)
        for config in ALL_CELLS:
            vocab = build_vocabulary(featurizer.train, config, STOPLIST)
            for part in featurizer.parts:
                vectorize_corpus(part, vocab, config, STOPLIST)
        inputs = {id(s) for s in [*TRAIN_TEXTS, *SCORED_TEXTS, *STOPLIST]}
        grams = {
            gram
            for text in TRAIN_TEXTS
            for remove_stopwords in (False, True)
            for gram in extract_ngrams(tokenize(text), 1, 3, remove_stopwords, STOPLIST)
        }

        def held() -> list[str]:
            """N-gram strings reachable from the featurizer, other than its inputs."""
            return [
                obj
                for obj in reachable(featurizer)
                if isinstance(obj, str) and id(obj) not in inputs and obj in grams
            ]

        # Only the token table: each training word once, for both settings and every vocabulary.
        assert sorted(held()) == sorted({gram for gram in grams if " " not in gram})
        widest = build_vocabulary(featurizer.train, RepresentationConfig(1, 3, "tf", True), STOPLIST)
        assert set(widest.entries) <= set(held())

    def test_keys_that_could_wrap_int64_rejected(self, monkeypatch):
        def featurized() -> list:
            featurizer = Featurizer(TRAIN_TEXTS, [SCORED_TEXTS], STOPLIST)
            out = []
            for config in ALL_CELLS:
                vocab = build_vocabulary(featurizer.train, config, STOPLIST)
                matrix = vectorize_corpus(featurizer.parts[1], vocab, config, STOPLIST).matrix
                arrays = (matrix.indptr, matrix.indices, matrix.data)
                out.append((vocab.entries, *(a.tolist() for a in arrays)))
            return out

        expected = featurized()
        # The widest base whose cube is within int64 keys the same n-grams in the same order.
        monkeypatch.setattr(textopt.textrep, "_key_base", lambda n_words: 2**21 - 1)
        assert featurized() == expected
        monkeypatch.setattr(textopt.textrep, "_key_base", lambda n_words: 2**21)  # cube 2**63
        with pytest.raises(ValueError, match="too many to key 3-grams as int64"):
            featurized()

    def test_all_cells_tokenize_each_text_once(self, monkeypatch):
        calls = Counter()
        original = textopt.textrep.tokenize

        def counting(text):
            calls[text] += 1
            return original(text)

        monkeypatch.setattr(textopt.textrep, "tokenize", counting)
        train = LabeledCorpus.from_pairs(
            (f"doc {i} the cat sat {'on the mat' * (i % 3)}", "AB"[i % 2]) for i in range(12)
        )
        dev = LabeledCorpus.from_pairs((f"dev {i} the dog", "AB"[i % 2]) for i in range(4))
        objective = make_objective(train, dev, STOPLIST, cache_size=36)
        assert not calls  # nothing is tokenized before the first trial
        for config in ALL_CELLS:
            n_min = config.n_min
            weighting = {"tfidf": "tf-idf"}.get(config.weighting, config.weighting)
            objective({
                "n_min": n_min,
                f"n_span|n_min={n_min}": config.n_max - n_min,
                "weighting": weighting,
                "remove_stopwords": config.remove_stopwords,
                "regularizer": "l2",
                "strength": 1.0,
                "tolerance": 1e-3,
            })
        assert calls == Counter(train.texts + dev.texts)
        assert set(calls.values()) == {1}


class TestRepresentationConfig:
    @pytest.mark.parametrize("n_min,n_max", [(0, 1), (2, 1), (1, 4)])
    def test_rejects_bad_ngram_bounds(self, n_min, n_max):
        with pytest.raises(ValueError):
            RepresentationConfig(n_min, n_max, "tf", False)

    def test_rejects_unknown_weighting(self):
        with pytest.raises(ValueError, match="weighting"):
            RepresentationConfig(1, 1, "idf", False)


class TestStopwords:
    def test_packaged_list_is_tokenizer_compatible(self):
        stoplist = load_stopwords()
        assert len(stoplist) > 100
        for word in stoplist:
            assert word == word.lower()
            assert tokenize(word) == [word]

    def test_contains_core_function_words(self):
        stoplist = load_stopwords()
        assert {"the", "and", "of", "is", "not"} <= stoplist
