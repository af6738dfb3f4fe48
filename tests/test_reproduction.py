"""Optional reproduction checks against the published headline numbers.

These need the licensed evaluation sets and large embedding files, supplied
through environment variables:

    CLOZEBASE_DEV_CSV    labeled two-ending instances (development set)
    CLOZEBASE_TEST_CSV   labeled two-ending instances (test set)
    CLOZEBASE_W2V_BIN    word2vec binary vectors (e.g. GoogleNews 300-dim)
    CLOZEBASE_GLOVE_50D  GloVe text vectors, 50-dim

Both CSVs use the package's instance schema (see README). Unset variables
skip the tests that need them. Run with:

    pytest tests/test_reproduction.py -v -m reproduction
"""
from __future__ import annotations

import os

import pytest

from clozebase.annotate import heuristic_tag
from clozebase.corpus import parse_cloze_csv, split_dev
from clozebase.embeddings import EmbeddingFormat, load_embeddings
from clozebase.features import FeatureConfig
from clozebase.harness import (evaluate_linear, majority_baseline,
                               run_neural_comparison, train_linear_cell)
from clozebase.neural import TrainConfig, Variant

DEV_CSV = os.environ.get("CLOZEBASE_DEV_CSV")
TEST_CSV = os.environ.get("CLOZEBASE_TEST_CSV")
W2V_BIN = os.environ.get("CLOZEBASE_W2V_BIN")
GLOVE_50D = os.environ.get("CLOZEBASE_GLOVE_50D")

needs_eval_sets = pytest.mark.skipif(
    not (DEV_CSV and TEST_CSV),
    reason="set CLOZEBASE_DEV_CSV and CLOZEBASE_TEST_CSV")
needs_w2v = pytest.mark.skipif(not W2V_BIN, reason="set CLOZEBASE_W2V_BIN")
needs_glove = pytest.mark.skipif(not GLOVE_50D,
                                 reason="set CLOZEBASE_GLOVE_50D")

pytestmark = pytest.mark.reproduction


@pytest.fixture(scope="module")
def dev():
    return parse_cloze_csv(DEV_CSV)


@pytest.fixture(scope="module")
def test_set():
    return parse_cloze_csv(TEST_CSV)


@pytest.fixture(scope="module")
def w2v_table():
    return load_embeddings(W2V_BIN, EmbeddingFormat.WORD2VEC_BINARY)


@pytest.fixture(scope="module")
def glove_table():
    return load_embeddings(GLOVE_50D, EmbeddingFormat.GLOVE_TEXT)


@needs_eval_sets
@needs_w2v
class TestWord2vecLinear:
    def test_all_features(self, dev, test_set, w2v_table):
        model = train_linear_cell(dev, w2v_table, FeatureConfig.ALL,
                                  heuristic_tag)
        acc = evaluate_linear(model, test_set, w2v_table, heuristic_tag).accuracy
        print(f"word2vec all-features test accuracy: {acc:.4f}")
        assert acc == pytest.approx(0.7242, abs=0.015)

    def test_sims_only(self, dev, test_set, w2v_table):
        model = train_linear_cell(dev, w2v_table, FeatureConfig.SIMS_ONLY,
                                  heuristic_tag)
        acc = evaluate_linear(model, test_set, w2v_table, heuristic_tag).accuracy
        print(f"word2vec sims-only test accuracy: {acc:.4f}")
        assert acc == pytest.approx(0.5815, abs=0.015)


@needs_eval_sets
@needs_glove
class TestGloveLinear:
    def test_all_features(self, dev, test_set, glove_table):
        model = train_linear_cell(dev, glove_table, FeatureConfig.ALL,
                                  heuristic_tag)
        acc = evaluate_linear(model, test_set, glove_table,
                              heuristic_tag).accuracy
        print(f"glove-50d all-features test accuracy: {acc:.4f}")
        assert acc == pytest.approx(0.6489, abs=0.015)


@needs_eval_sets
@needs_w2v
class TestLstm:
    @pytest.fixture(scope="class")
    def results(self, dev, test_set, w2v_table):
        split = split_dev(dev, ratio=0.9, seed=0)
        configs = [TrainConfig(hidden_size=384, batch_size=500, epochs=10,
                               learning_rate=0.001, seed=0, variant=variant,
                               restarts=5)
                   for variant in (Variant.RAW, Variant.ATTENTION)]
        rows = run_neural_comparison(split.dev_train, split.dev_dev,
                                     test_set, configs, w2v_table)
        return {row.config.variant: (row.dev_accuracy, row.test_accuracy)
                for row in rows}

    def test_raw_variant(self, results):
        dev_acc, test_acc = results[Variant.RAW]
        print(f"raw lstm: dev {dev_acc:.4f}, test {test_acc:.4f}")
        assert dev_acc == pytest.approx(0.771, abs=0.02)
        assert test_acc == pytest.approx(0.721, abs=0.02)

    def test_attention_below_raw(self, results):
        _, raw_test = results[Variant.RAW]
        _, att_test = results[Variant.ATTENTION]
        print(f"attention lstm test: {att_test:.4f} (raw {raw_test:.4f})")
        assert att_test < raw_test


@needs_eval_sets
class TestMajority:
    def test_majority_class_rate(self, test_set):
        gold = [inst.gold for inst in test_set]
        acc = majority_baseline(gold, gold).accuracy
        print(f"majority-class test accuracy: {acc:.4f}")
        assert acc == pytest.approx(0.513, abs=0.001)
