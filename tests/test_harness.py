from __future__ import annotations

import collections
import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import clozebase.features as features_module
import clozebase.harness as harness_module
from clozebase.annotate import heuristic_tag
from clozebase.errors import ParseError
from clozebase.corpus import augment_swap
from clozebase.features import (FeatureConfig, apply_scaler, extract,
                                feature_names, fit_scaler)
from clozebase.harness import (AblationReport, NeuralComparisonRow, accuracy,
                               evaluate_linear, fit_linear, linear_predictor,
                               load_predictor, majority_baseline,
                               neural_predictor, run_ablation,
                               run_neural_comparison, save_ablation_report,
                               train_linear_cell, train_lstm_cell)
from clozebase.linear import (DEFAULT_C_GRID, cv_tune_c, predict, save_model,
                              train_logreg)
from clozebase.neural import (EVAL_BATCH_SIZE, GATES, TrainConfig, Variant,
                              embed_instance, evaluate_model, init_params,
                              predict_neural, save_checkpoint, tensors,
                              train_model)

from conftest import build_table, make_instances


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


def read_report(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class TestAblationReportIo:
    def make_report(self):
        configs = (FeatureConfig.ALL, FeatureConfig.SIMS_ONLY)
        rows = {
            "w2v": {FeatureConfig.ALL: 0.7242, FeatureConfig.SIMS_ONLY: 0.5815},
            "glove": {FeatureConfig.ALL: 0.6489, FeatureConfig.SIMS_ONLY: 0.55},
        }
        return AblationReport(configs=configs, rows=rows)

    def test_round_trip(self, tmp_path):
        # one row per table in report order, each cell the repr of its float
        report = self.make_report()
        path = tmp_path / "ablation.csv"
        save_ablation_report(path, report)
        header, *rows = read_report(path)
        assert header == ["embeddings", "all", "sims-only"]
        assert [row[0] for row in rows] == ["w2v", "glove"]
        for name, *cells in rows:
            assert cells == [repr(report.rows[name][c]) for c in report.configs]
            assert [float(cell) for cell in cells] == [
                report.rows[name][c] for c in report.configs]

    def test_header_names_configs(self, tmp_path):
        path = tmp_path / "ablation.csv"
        save_ablation_report(path, self.make_report())
        header = path.read_text().splitlines()[0]
        assert header == "embeddings,all,sims-only"


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
        # a label-1-only training set holds one class; augmentation
        # restores both.
        train = [inst for inst in make_instances(30, seed=42) if inst.gold == 1]
        assert len(train) >= 5
        model = train_linear_cell(train, table, FeatureConfig.ENDINGS_ONLY,
                                  heuristic_tag, folds=2)
        test = make_instances(8, seed=43)
        labels = set(linear_predictor(model, table, heuristic_tag)(test))
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
        x = np.stack([v.values for v in vectors])
        model, report = fit_linear(x, vectors[0].names,
                                   [i.gold for i in instances],
                                   FeatureConfig.SIMS_ONLY, folds=3, seed=2)
        np.testing.assert_array_equal(model.weights, cell.weights)
        assert model.intercept == cell.intercept
        assert model.c == cell.c == report.best_c
        assert model.converged is cell.converged is True
        assert all(converged for per_fold in report.solves
                   for _, converged in per_fold)

    @pytest.mark.parametrize("config", [FeatureConfig.ALL,
                                        FeatureConfig.SIMS_ONLY,
                                        FeatureConfig.ENDINGS_ONLY])
    def test_cell_is_the_per_row_pipeline(self, table, config):
        """The fit before it took a matrix: extract, fit the scaler and
        scale one vector at a time, then tune C and retrain."""
        train = make_instances(16, seed=49)
        cell = train_linear_cell(train, table, config, heuristic_tag,
                                 folds=3, seed=5)
        instances = augment_swap(train)
        labels = [i.gold for i in instances]
        vectors = [extract(i, table, heuristic_tag, config) for i in instances]
        scaler = fit_scaler(vectors)
        x = np.stack([apply_scaler(scaler, v).values for v in vectors])
        c = cv_tune_c(x, labels, folds=3, grid=DEFAULT_C_GRID, seed=5).best_c
        want = train_logreg(x, labels, c, names=vectors[0].names,
                            config=config, scaler=scaler)
        assert cell.weights.tobytes() == want.weights.tobytes()
        assert (cell.intercept, cell.c, cell.names) == (want.intercept,
                                                        want.c, want.names)
        assert cell.scaler.mins.tobytes() == want.scaler.mins.tobytes()
        assert cell.scaler.maxs.tobytes() == want.scaler.maxs.tobytes()

    def test_fit_linear_rejects_an_empty_matrix(self):
        names = feature_names(FeatureConfig.SIMS_ONLY, 0)
        with pytest.raises(ValueError, match="empty training set"):
            fit_linear(np.empty((0, len(names))), names, [],
                       FeatureConfig.SIMS_ONLY)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fit_linear_rejects_a_non_finite_c(self, bad):
        # before, nan won the CV (unconverged solves at theta = 0 scored
        # 0.5) and the model was saved with a C that load_model refuses
        names = feature_names(FeatureConfig.ENDINGS_ONLY, 1)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(20, len(names)))
        with pytest.raises(ValueError, match=f"C must be a finite positive "
                                             f"number, got {bad}$"):
            fit_linear(x, names, [1, 2] * 10, FeatureConfig.ENDINGS_ONLY,
                       folds=2, c_grid=[bad, 1.0])


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
        assert read_report(path) == [
            ["embeddings", "sims-only", "endings-only"],
            ["toy"] + [repr(report.rows["toy"][c]) for c in configs]]

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
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_run_r_is_train_model_at_the_restart_seed(self, table, variant):
        train = make_instances(6, seed=54)
        valid = make_instances(4, seed=55)
        best, runs = train_lstm_cell(
            train, valid, table,
            lstm_config(seed=2, restarts=3, variant=variant))
        assert len(runs) == 3
        # the oracle embeds every swapped twin afresh
        emb_train = [embed_instance(i, table) for i in augment_swap(train)]
        emb_valid = [embed_instance(i, table) for i in valid]
        for r, run in enumerate(runs):
            expected = train_model(
                emb_train, emb_valid,
                lstm_config(seed=2 * 3 + r, restarts=3, variant=variant))
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

    def test_swapping_embedded_instances_equals_embedding_swapped_ones(
            self, table):
        xs = make_instances(5, seed=58)
        got = augment_swap([embed_instance(i, table) for i in xs])
        want = [embed_instance(j, table) for j in augment_swap(xs)]
        assert [e.id for e in got] == [e.id for e in want]
        assert [e.gold for e in got] == [e.gold for e in want]
        for g, w in zip(got, want):
            for part in ("story", "ending1", "ending2"):
                np.testing.assert_array_equal(getattr(g, part),
                                              getattr(w, part), err_msg=part)
        for original, twin in zip(got[0::2], got[1::2]):
            assert twin.story is original.story
            assert twin.ending1 is original.ending2
            assert twin.ending2 is original.ending1

    def test_unlabeled_training_instance_is_named(self, table):
        train = make_instances(3, seed=59)
        train[1] = replace(train[1], gold=None)
        with pytest.raises(ValueError) as info:
            train_lstm_cell(train, make_instances(2, seed=60), table,
                            lstm_config())
        assert str(info.value) == (f"instance {train[1].id!r} is unlabeled, "
                                   "augmentation needs labels")


class TestNeuralComparison:
    def test_rows_and_report(self, table):
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


def write_v1_checkpoint(path, params):
    """A version 1 archive: each gate's LSTM tensors stored apart."""
    h = params.lstm.hidden_size
    arrays = {name: arr for name, arr in tensors(params).items()
              if not name.startswith("lstm.")}
    for k, gate in enumerate(GATES):
        rows = slice(k * h, (k + 1) * h)
        arrays[f"lstm.w_x{gate}"] = params.lstm.w_x[rows]
        arrays[f"lstm.w_h{gate}"] = params.lstm.w_h[rows]
        arrays[f"lstm.b_{gate}"] = params.lstm.b[rows]
    meta = {"version": 1, "variant": params.variant.value,
            "input_size": params.lstm.input_size, "hidden_size": h}
    with open(path, "wb") as handle:
        np.savez(handle, __meta__=np.asarray(json.dumps(meta)), **arrays)


def one_at_a_time(model, instances, table):
    return [predict(model, extract(i, table, heuristic_tag, model.config))[0]
            for i in instances]


class TestPredictors:
    def test_linear_predictor_labels(self, table):
        train = make_instances(12, seed=70)
        model = train_linear_cell(train, table, FeatureConfig.SIMS_ONLY,
                                  heuristic_tag, folds=2)
        predictor = linear_predictor(model, table, heuristic_tag)
        test = make_instances(5, seed=71, labeled=False)
        labels = predictor(test)
        assert labels == one_at_a_time(model, test, table)
        assert set(labels) <= {1, 2}
        assert predictor([]) == []

    @pytest.mark.parametrize("dim", [16, 300])
    @pytest.mark.parametrize("config", list(FeatureConfig))
    def test_linear_predictor_is_per_row_predict(self, dim, config):
        table = build_table(dim=dim, seed=2017)
        model = train_linear_cell(make_instances(12, seed=78), table, config,
                                  heuristic_tag, folds=2, c_grid=(0.1, 10.0))
        unlabeled = make_instances(20, seed=79, labeled=False)
        test = unlabeled + [
            replace(unlabeled[0], id="empty-ending", ending2=""),
            replace(unlabeled[1], id="oov-story",
                    context=("zzqx1 zzqx2.", "zzqx3.", "zzqx4 zzqx5.", "zzqx6.")),
            *make_instances(4, seed=80)]
        labels = linear_predictor(model, table, heuristic_tag)(test)
        assert labels == one_at_a_time(model, test, table)

    def test_linear_predictor_reads_one_chunk_at_a_time(self, table,
                                                        monkeypatch):
        model = train_linear_cell(make_instances(12, seed=81), table,
                                  FeatureConfig.ALL, heuristic_tag, folds=2)
        test = make_instances(2 * EVAL_BATCH_SIZE + 3, seed=82)
        want = one_at_a_time(model, test, table)
        sizes = []
        real = harness_module.extract_matrix

        def recording(instances, *args):
            sizes.append(len(instances))
            return real(instances, *args)

        monkeypatch.setattr(harness_module, "extract_matrix", recording)
        predictor = linear_predictor(model, table, heuristic_tag)
        assert predictor(inst for inst in test) == want
        assert sizes == [EVAL_BATCH_SIZE, EVAL_BATCH_SIZE, 3]

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

    def test_linear_predictor_checks_the_table_width(self, table):
        model = train_linear_cell(make_instances(12, seed=74), table,
                                  FeatureConfig.ENDINGS_ONLY, heuristic_tag,
                                  folds=2)
        narrow = build_table(dim=3)
        with pytest.raises(ValueError, match=r"config endings-only\) expects "
                           r"16-d embeddings; the table is 3-d"):
            linear_predictor(model, narrow)

    def test_centroid_free_model_fits_any_width(self, table):
        model = train_linear_cell(make_instances(12, seed=75), table,
                                  FeatureConfig.SIMS_ONLY, heuristic_tag,
                                  folds=2)
        narrow = build_table(dim=3)
        labels = linear_predictor(model, narrow, heuristic_tag)(
            make_instances(4, seed=76))
        assert set(labels) <= {1, 2}

    def test_neural_predictor_labels(self, table):
        params = init_params(0, table.dim, 6, Variant.RAW)
        predictor = neural_predictor(params, table)
        labels = predictor(make_instances(5, seed=73, labeled=False))
        assert len(labels) == 5 and set(labels) <= {1, 2}
        assert predictor([]) == []

    @pytest.mark.parametrize("variant", list(Variant))
    def test_neural_predictor_is_predict_neural_per_instance(self, table,
                                                             variant):
        # 40 instances: two full chunks of EVAL_BATCH_SIZE and a ragged one
        test = make_instances(40, seed=77)
        params = init_params(3, table.dim, 5, variant)
        want = [predict_neural(embed_instance(i, table), params)[0]
                for i in test]
        assert neural_predictor(params, table)(test) == want
        assert len(set(want)) == 2


class TestLoadPredictor:
    @pytest.fixture(scope="class")
    def linear(self, table):
        return train_linear_cell(make_instances(12, seed=80), table,
                                 FeatureConfig.ALL_WO_POS_SIM, heuristic_tag,
                                 folds=2)

    @pytest.mark.parametrize("version", [1, 2])
    def test_linear_model_files(self, table, linear, tmp_path, version):
        path = tmp_path / "model.txt"
        save_model(path, linear)
        if version == 1:    # v1: no diagnostics, older header
            lines = [line for line in path.read_text().splitlines()
                     if line.split("\t")[0] not in
                     ("iterations", "converged", "grad_inf")]
            lines[0] = "clozebase linear model v1"
            path.write_text("\r\n".join(lines) + "\r\n")
        test = make_instances(9, seed=81)
        got = load_predictor(path, table, heuristic_tag)(test)
        assert got == one_at_a_time(linear, test, table)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_checkpoints(self, table, tmp_path, version, variant):
        params = init_params(4, table.dim, 5, variant)
        path = tmp_path / "lstm.npz"
        if version == 1:
            write_v1_checkpoint(path, params)
        else:
            save_checkpoint(path, params)
        test = make_instances(20, seed=82)
        assert (load_predictor(path, table)(test)
                == neural_predictor(params, table)(test))

    def test_unreadable_file(self, table, tmp_path):
        with pytest.raises(ValueError, match="cannot read model"):
            load_predictor(tmp_path / "missing", table)

    @pytest.mark.parametrize("content", [b"", b"clozebase linear model v3\n",
                                         b"PK\x03\x04 not really a zip"])
    def test_unrecognised_file_names_both_kinds(self, table, tmp_path,
                                                content):
        path = tmp_path / "mystery"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="LSTM checkpoint.*linear model"):
            load_predictor(path, table)


class TestAblationOracle:
    """`run_ablation` against the per-config loop it replaced."""

    @staticmethod
    def per_config_loop(dev, test, tables, configs, annotator, folds, c_grid,
                        seed):
        rows = {}
        for name, table in tables.items():
            row = {}
            for config in configs:
                model = train_linear_cell(dev, table, config, annotator,
                                          folds=folds, c_grid=c_grid, seed=seed)
                row[config] = evaluate_linear(model, test, table,
                                              annotator).accuracy
            rows[name] = row
        return AblationReport(configs=tuple(configs), rows=rows)

    def test_report_equals_the_per_config_loop(self, table, monkeypatch):
        dev = make_instances(16, seed=90)
        test = [replace(i, id=f"test-{i.id}")
                for i in make_instances(12, seed=91)]
        tables = {"toy": table, "toy-300": build_table(dim=300, seed=2017)}
        args = dict(configs=tuple(FeatureConfig), annotator=heuristic_tag,
                    folds=3, c_grid=(0.1, 1.0, 10.0), seed=4)
        want = self.per_config_loop(dev, test, tables, **args)

        calls = collections.Counter()
        real = features_module._extract_blocks

        def counting(instance, table, annotator, blocks):
            calls[instance.id, table.dim] += 1
            return real(instance, table, annotator, blocks)

        monkeypatch.setattr(features_module, "_extract_blocks", counting)
        got = run_ablation(dev, test, tables, **args)
        assert got == want
        extracted = {inst.id for inst in augment_swap(dev) + test}
        assert set(calls) == {(i, t.dim) for i in extracted
                              for t in tables.values()}
        assert set(calls.values()) == {1}

    def test_pos_config_without_annotator_fails_before_training(
            self, table, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("trained a model")

        monkeypatch.setattr(harness_module, "fit_linear", no_fit)
        with pytest.raises(ValueError, match="part-of-speech .* annotations"):
            run_ablation(make_instances(8, seed=92), make_instances(4, seed=93),
                         {"toy": table},
                         configs=(FeatureConfig.ENDINGS_ONLY,
                                  FeatureConfig.SIMS_ONLY), folds=2)
