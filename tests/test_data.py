"""Corpus I/O, deterministic splitting, synthetic generation, and the dataset manifest file."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest
import yaml

from textopt.data import (
    LabeledCorpus,
    load_tsv,
    split_corpus,
    synthetic_corpus,
    write_tsv,
)
from textopt.logreg import LabeledRows, TrainConfig, evaluate_accuracy, train
from textopt.textrep import Featurizer, RepresentationConfig, build_vocabulary, vectorize_corpus


class TestTsv:
    def test_parse_order_and_labels(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("pos\tgood movie\nneg\tbad plot\n")
        corpus = load_tsv(path)
        assert corpus.documents == (("good movie", "pos"), ("bad plot", "neg"))
        assert corpus.labels == ("pos", "neg")

    def test_line_without_tab_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("pos\tfine\nbroken line\n")
        with pytest.raises(ValueError, match="line 2"):
            load_tsv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_tsv(path)

    def test_round_trip_is_byte_exact(self, tmp_path):
        tricky = LabeledCorpus.from_pairs(
            [
                ("tab\there", "a"),
                ("new\nline", "b"),
                ("backslash \\n literal", "a"),
                ("mixed \\ \t \n all", "b"),
                ("", "a"),
                ("first line\r\nsecond\rthird", "b"),
                ("trailing carriage return\r", "car\riage"),
                ("\r", "\r\n"),
            ]
        )
        first = tmp_path / "first.tsv"
        second = tmp_path / "second.tsv"
        write_tsv(tricky, first)
        loaded = load_tsv(first)
        assert loaded.documents == tricky.documents
        write_tsv(loaded, second)
        assert first.read_bytes() == second.read_bytes()


class TestSplitCorpus:
    def ten_docs(self):
        return LabeledCorpus.from_pairs([(f"doc {i}", "a" if i % 2 else "b") for i in range(10)])

    def test_sizes_and_disjointness(self):
        train, dev = split_corpus(self.ten_docs(), dev_fraction=0.2, seed=0)
        assert len(dev) == 2
        assert len(train) == 8
        assert set(dev.documents).isdisjoint(train.documents)

    def test_split_is_a_permutation(self):
        corpus = self.ten_docs()
        train, dev = split_corpus(corpus, dev_fraction=0.3, seed=4)
        assert Counter(train.documents) + Counter(dev.documents) == Counter(corpus.documents)

    def test_deterministic(self):
        corpus = self.ten_docs()
        assert split_corpus(corpus, 0.2, seed=5) == split_corpus(corpus, 0.2, seed=5)

    def test_default_fraction_is_one_fifth(self):
        train, dev = split_corpus(LabeledCorpus.from_pairs([(f"d{i}", "x" if i else "y") for i in range(100)]))
        assert len(dev) == 20

    def test_ceil_rounding(self):
        corpus = LabeledCorpus.from_pairs([(f"d{i}", "x" if i else "y") for i in range(7)])
        _, dev = split_corpus(corpus, dev_fraction=0.2, seed=1)
        assert len(dev) == 2  # ceil(1.4)

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError, match="split"):
            split_corpus(LabeledCorpus.from_pairs([("only", "x")]), 0.2, 0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="dev_fraction"):
            split_corpus(self.ten_docs(), fraction, 0)


class TestSyntheticCorpus:
    def test_full_signal_is_learnable(self):
        corpus = synthetic_corpus(1000, n_classes=2, vocab_size=50, signal_strength=1.0, seed=0)
        train_c, dev_c = split_corpus(corpus, 0.2, seed=0)
        config = RepresentationConfig(1, 2, "tf", False)
        featurizer = Featurizer(train_c.texts, [dev_c.texts])
        vocab = build_vocabulary(featurizer.train, config)
        x_train, x_dev = (vectorize_corpus(part, vocab, config) for part in featurizer.parts)
        model = train(
            LabeledRows(x_train.matrix, [l for _, l in train_c.documents]),
            TrainConfig("l2", strength=10.0, tolerance=1e-4),
            train_c.labels,
        )
        dev = LabeledRows(x_dev.matrix, [l for _, l in dev_c.documents])
        accuracy = evaluate_accuracy(model, dev)
        assert accuracy >= 0.99

    def test_zero_signal_is_chance_level(self):
        corpus = synthetic_corpus(1500, n_classes=2, vocab_size=50, signal_strength=0.0, seed=1)
        train_c, dev_c = split_corpus(corpus, 0.2, seed=0)
        config = RepresentationConfig(1, 1, "tf", False)
        featurizer = Featurizer(train_c.texts, [dev_c.texts])
        vocab = build_vocabulary(featurizer.train, config)
        x_train, x_dev = (vectorize_corpus(part, vocab, config) for part in featurizer.parts)
        model = train(
            LabeledRows(x_train.matrix, [l for _, l in train_c.documents]),
            TrainConfig("l2", strength=1.0, tolerance=1e-4),
            train_c.labels,
        )
        dev = LabeledRows(x_dev.matrix, [l for _, l in dev_c.documents])
        accuracy = evaluate_accuracy(model, dev)
        assert abs(accuracy - 0.5) < 0.12

    def test_deterministic(self):
        assert synthetic_corpus(50, seed=7) == synthetic_corpus(50, seed=7)

    def test_document_lengths_in_band(self):
        corpus = synthetic_corpus(200, signal_strength=0.0, seed=3)
        for text, _ in corpus.documents:
            assert 20 <= len(text.split()) <= 50

    def test_markers_present_at_full_signal(self):
        corpus = synthetic_corpus(100, signal_strength=1.0, seed=4)
        for text, label in corpus.documents:
            cls = label[1:]
            assert f"mark{cls}" in text.split()
            assert f"siga{cls} sigb{cls}" in text

    def test_classes_get_distinct_markers_in_small_vocabulary(self):
        corpus = synthetic_corpus(40, n_classes=2, vocab_size=11, signal_strength=1.0, seed=2)
        planted = {label: set() for label in corpus.labels}
        for text, label in corpus.documents:
            planted[label].update(t for t in text.split() if not t.startswith("w"))
        first, second = planted.values()
        assert first and second and first.isdisjoint(second)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_docs": 0},
            {"n_docs": 10, "n_classes": 1},
            {"n_docs": 10, "vocab_size": 0},
            {"n_docs": 10, "signal_strength": 1.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            synthetic_corpus(**kwargs)


MANIFEST = Path(__file__).resolve().parents[1] / "datasets" / "manifest"


class TestManifest:
    def datasets(self):
        return yaml.safe_load(MANIFEST.read_text(encoding="utf-8"))

    def test_expected_counts(self):
        counts = {d["name"]: tuple(d["counts"][k] for k in ("train", "dev", "test")) for d in self.datasets()}
        assert counts["Stanford sentiment"] == (6920, 872, 1821)
        assert counts["IMDB reviews"] == (20000, 5000, 25000)
        assert counts["Amazon electronics"] == (20000, 5000, 25000)
        assert counts["Congress vote"] == (1175, 113, 411)
        assert counts["20N all topics"] == (9052, 2262, 7532)
        assert counts["20N all science"] == (1899, 474, 1579)
        assert counts["20N atheist.religion"] == (686, 171, 570)
        assert counts["20N x.graphics"] == (942, 235, 784)

    def test_eight_datasets_with_urls(self):
        datasets = self.datasets()
        assert len(datasets) == 8
        for dataset in datasets:
            assert dataset["url"].startswith("http")
            assert dataset["notes"]

    def test_entries_have_exactly_the_manifest_fields(self):
        for dataset in self.datasets():
            assert set(dataset) == {"name", "url", "counts", "notes"}
            assert all(isinstance(dataset[key], str) for key in ("name", "url", "notes"))
            assert set(dataset["counts"]) == {"train", "dev", "test"}
            assert all(type(n) is int and n > 0 for n in dataset["counts"].values())
