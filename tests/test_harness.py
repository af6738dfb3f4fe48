from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from clozebase.annotate import heuristic_tag
from clozebase.errors import ParseError
from clozebase.corpus import augment_swap
from clozebase.features import FeatureConfig, extract
from clozebase.harness import (AblationReport, NeuralComparisonRow, accuracy,
                               evaluate_linear, fit_linear, linear_predictor,
                               load_ablation_report, majority_baseline,
                               neural_predictor, run_ablation,
                               run_neural_comparison, save_ablation_report,
                               save_neural_report, train_linear_cell,
                               train_lstm_cell)
from clozebase.neural import (TrainConfig, Variant, embed_instance,
                              evaluate_model, init_params, tensors,
                              train_model)

from conftest import make_instances


class TestAccuracy:
    @pytest.mark.parametrize("preds,gold,expected", [
        ([1, 2, 1], [1, 2, 1], 1.0),
        ([1, 1, 1, 1], [2, 2, 2, 2], 0.0),
        ([1, 2, 1, 2], [1, 2, 2, 1], 0.5),
        ([2], [2], 1.0),
    ])
    def test_fractions(self, preds, gold, expected):
        result = accuracy(preds, gold)
        assert result.accuracy == expected
        assert result.n == len(gold)
        assert result.predictions == tuple(preds)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="predictions"):
            accuracy([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="score"):
            accuracy([], [])


class TestMajorityBaseline:
    def test_predicts_most_frequent_training_label(self):
        result = majority_baseline([2, 2, 2, 1], [2, 2, 1, 2])
        assert result.predictions == (2, 2, 2, 2)
        assert result.accuracy == 0.75

    def test_tie_prefers_label_one(self):
        result = majority_baseline([1, 2], [1, 1, 2])
        assert result.predictions == (1, 1, 1)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            majority_baseline([], [1])


class TestAblationReportIo:
    def make_report(self):
        configs = (FeatureConfig.ALL, FeatureConfig.SIMS_ONLY)
        rows = {
            "w2v": {FeatureConfig.ALL: 0.7242, FeatureConfig.SIMS_ONLY: 0.5815},
            "glove": {FeatureConfig.ALL: 0.6489, FeatureConfig.SIMS_ONLY: 0.55},
        }
        return AblationReport(configs=configs, rows=rows)

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "ablation.csv"
        save_ablation_report(path, report)
        loaded = load_ablation_report(path)
        assert loaded.configs == report.configs
        assert set(loaded.rows) == set(report.rows)
        for name in report.rows:
            for config in report.configs:
                assert loaded.rows[name][config] == report.rows[name][config]

    def test_header_names_configs(self, tmp_path):
        path = tmp_path / "ablation.csv"
        save_ablation_report(path, self.make_report())
        header = path.read_text().splitlines()[0]
        assert header == "embeddings,all,sims-only"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_ablation_report(path)

    def test_unknown_config_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("embeddings,no-such-config\nw2v,0.5\n")
        with pytest.raises(ParseError):
            load_ablation_report(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("embeddings,all\nw2v,0.5,0.6\n")
        with pytest.raises(ParseError, match="line 2"):
            load_ablation_report(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("embeddings,all\nw2v,not-a-number\n")
        with pytest.raises(ParseError, match="line 2"):
            load_ablation_report(path)


class TestLinearCell:
    def test_train_and_evaluate(self, table):
        train = make_instances(24, seed=40)
        test = make_instances(10, seed=41)
        model = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                                  heuristic_tag, folds=3)
        assert model.config is FeatureConfig.SIMS_ONLY
        assert model.scaler is not None
        result = evaluate_linear(model, test, table, heuristic_tag)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.n == 10

    def test_swap_augmentation_doubles_training(self, table):
        # with augment=False and a label-1-only training set, the model can
        # only ever have seen one class; augmentation restores both.
        train = [inst for inst in make_instances(30, seed=42) if inst.gold == 1]
        assert len(train) >= 5
        model = train_linear_cell(train, table, FeatureConfig.ENDINGS_ONLY,
                                  heuristic_tag, folds=2)
        test = make_instances(8, seed=43)
        labels = {linear_predictor(model, table, heuristic_tag)(i) for i in test}
        assert labels <= {1, 2}

    def test_unlabeled_training_rejected(self, table):
        train = make_instances(6, seed=44, labeled=False)
        with pytest.raises(ValueError, match="labeled"):
            train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                              heuristic_tag, folds=2)

    def test_unlabeled_test_rejected(self, table):
        train = make_instances(12, seed=45)
        model = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                                  heuristic_tag, folds=2)
        test = make_instances(4, seed=46, labeled=False)
        with pytest.raises(ValueError, match="unlabeled"):
            evaluate_linear(model, test, table, heuristic_tag)

    def test_deterministic(self, table):
        train = make_instances(16, seed=47)
        a = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                              heuristic_tag, folds=3, seed=9)
        b = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                              heuristic_tag, folds=3, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept
        assert a.c == b.c

    def test_fit_linear_is_the_cell_after_extraction(self, table):
        train = make_instances(16, seed=48)
        cell = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                                 heuristic_tag, folds=3, seed=2)
        instances = augment_swap(train)
        vectors = [extract(i, table, heuristic_tag, FeatureConfig.SIMS_ONLY)
                   for i in instances]
        model, report = fit_linear(vectors, [i.gold for i in instances],
                                   FeatureConfig.SIMS_ONLY, folds=3, seed=2)
        np.testing.assert_array_equal(model.weights, cell.weights)
        assert model.intercept == cell.intercept
        assert model.c == cell.c == report.best_c
        assert model.converged is cell.converged is True
        assert all(converged for per_fold in report.solves
                   for _, converged in per_fold)


class TestRunAblation:
    def test_grid_shape_and_ranges(self, table, tmp_path):
        dev = make_instances(14, seed=50)
        test = make_instances(6, seed=51)
        configs = (FeatureConfig.SIMS_ONLY, FeatureConfig.ENDINGS_ONLY)
        report = run_ablation(dev, test, {"toy": table}, configs=configs,
                              annotator=heuristic_tag, folds=2,
                              c_grid=(0.1, 1.0))
        assert report.configs == configs
        assert set(report.rows) == {"toy"}
        for config in configs:
            assert 0.0 <= report.rows["toy"][config] <= 1.0
        path = tmp_path / "report.csv"
        save_ablation_report(path, report)
        loaded = load_ablation_report(path)
        assert loaded.rows["toy"] == report.rows["toy"]

    def test_multiple_tables(self, table):
        dev = make_instances(10, seed=52)
        test = make_instances(4, seed=53)
        report = run_ablation(dev, test, {"a": table, "b": table},
                              configs=(FeatureConfig.ENDINGS_ONLY,),
                              annotator=heuristic_tag, folds=2,
                              c_grid=(1.0,))
        assert set(report.rows) == {"a", "b"}
        assert (report.rows["a"][FeatureConfig.ENDINGS_ONLY]
                == report.rows["b"][FeatureConfig.ENDINGS_ONLY])


def lstm_config(**overrides) -> TrainConfig:
    fields = dict(hidden_size=4, batch_size=4, epochs=2, learning_rate=0.01,
                  seed=0, variant=Variant.RAW)
    fields.update(overrides)
    return TrainConfig(**fields)


def assert_same_run(got, expected):
    assert got.best_epoch == expected.best_epoch
    assert got.best_dev_accuracy == expected.best_dev_accuracy
    assert got.epoch_dev_accuracies == expected.epoch_dev_accuracies
    assert got.epoch_train_losses == expected.epoch_train_losses
    want = tensors(expected.params)
    for name, arr in tensors(got.params).items():
        np.testing.assert_array_equal(arr, want[name], err_msg=name)


class TestTrainLstmCell:
    def test_run_r_is_train_model_at_the_restart_seed(self, table):
        train = make_instances(6, seed=54)
        valid = make_instances(4, seed=55)
        best, runs = train_lstm_cell(train, valid, table,
                                     lstm_config(seed=2, restarts=3))
        assert len(runs) == 3
        emb_train = [embed_instance(i, table) for i in augment_swap(train)]
        emb_valid = [embed_instance(i, table) for i in valid]
        for r, run in enumerate(runs):
            expected = train_model(emb_train, emb_valid,
                                   lstm_config(seed=2 * 3 + r, restarts=3))
            assert_same_run(run, expected)
        top = max(run.best_dev_accuracy for run in runs)
        assert best is next(run for run in runs if run.best_dev_accuracy == top)

    def test_tie_goes_to_the_earlier_restart(self, table):
        # one instance under both gold labels: every epoch of every run gets
        # exactly one of the two right, so all restarts tie at 1/2
        inst = make_instances(1, seed=56)[0]
        valid = [inst, replace(inst, gold=3 - inst.gold)]
        best, runs = train_lstm_cell(make_instances(6, seed=57), valid, table,
                                     lstm_config(restarts=3))
        assert [run.best_dev_accuracy for run in runs] == [0.5] * 3
        assert best is runs[0]
        assert not np.array_equal(runs[0].params.lstm.w_x,
                                  runs[1].params.lstm.w_x)


class TestNeuralComparison:
    def test_rows_and_report(self, table, tmp_path):
        dev_train = make_instances(8, seed=60)
        dev_dev = make_instances(4, seed=61)
        test = make_instances(4, seed=62)
        configs = [lstm_config(), lstm_config(variant=Variant.ATTENTION,
                                              hidden_size=6)]
        rows = run_neural_comparison(dev_train, dev_dev, test,
                                     configs=configs, table=table)
        assert [r.config for r in rows] == configs
        for row in rows:
            assert 1 <= row.best_epoch <= 2
            assert 0.0 <= row.dev_accuracy <= 1.0
            assert 0.0 <= row.test_accuracy <= 1.0
        path = tmp_path / "neural.csv"
        save_neural_report(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == ("variant,hidden,batch,best_epoch,dev_accuracy,"
                            "test_accuracy")
        assert len(lines) == 3
        assert lines[1].startswith("raw,4,4,")
        assert lines[2].startswith("att,6,4,")
        # cells parse back as floats
        for line in lines[1:]:
            fields = line.split(",")
            float(fields[4]), float(fields[5])

    def test_deterministic(self, table):
        dev_train = make_instances(6, seed=63)
        dev_dev = make_instances(3, seed=64)
        test = make_instances(3, seed=65)
        configs = [lstm_config(batch_size=3, seed=1)]
        a = run_neural_comparison(dev_train, dev_dev, test, configs=configs,
                                  table=table)
        b = run_neural_comparison(dev_train, dev_dev, test, configs=configs,
                                  table=table)
        assert a == b

    def test_row_is_the_best_run_of_the_driver(self, table):
        dev_train = make_instances(6, seed=66)
        dev_dev = make_instances(3, seed=67)
        test = make_instances(4, seed=68)
        config = lstm_config(batch_size=3, seed=1, restarts=2)
        (row,) = run_neural_comparison(dev_train, dev_dev, test,
                                       configs=[config], table=table)
        best, _ = train_lstm_cell(dev_train, dev_dev, table, config)
        assert row.best_epoch == best.best_epoch
        assert row.dev_accuracy == best.best_dev_accuracy
        emb_test = [embed_instance(i, table) for i in test]
        assert row.test_accuracy == evaluate_model(emb_test, best.params)


class TestPredictors:
    def test_linear_predictor_labels(self, table):
        train = make_instances(12, seed=70)
        model = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                                  heuristic_tag, folds=2)
        predictor = linear_predictor(model, table, heuristic_tag)
        for inst in make_instances(5, seed=71, labeled=False):
            assert predictor(inst) in (1, 2)

    def test_linear_predictor_requires_config(self, table):
        train = make_instances(12, seed=72)
        model = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                                  heuristic_tag, folds=2)
        stripped = type(model)(weights=model.weights, intercept=model.intercept,
                               c=model.c, names=model.names, config=None,
                               scaler=model.scaler)
        with pytest.raises(ValueError, match="configuration"):
            linear_predictor(stripped, table)
        with pytest.raises(ValueError, match="configuration"):
            evaluate_linear(stripped, train, table, heuristic_tag)

    def test_neural_predictor_labels(self, table):
        params = init_params(0, table.dim, 6, Variant.RAW)
        predictor = neural_predictor(params, table)
        for inst in make_instances(5, seed=73, labeled=False):
            assert predictor(inst) in (1, 2)
