"""Experiment harness: accuracy metrics, ablation grids, model comparisons.

`run_ablation` fills an (embedding table x feature config) accuracy grid:
swap-augment the training set, extract features, tune C by cross-validation,
retrain on everything, score the test set. `run_neural_comparison` does the
analogous sweep over LSTM training configs with a train/validation/test
split, each config trained by `train_lstm_cell` (embed, swap-augment, keep
the best of `config.restarts` runs). A predictor labels a sequence of
instances; `load_saved_model` reads a saved model of either kind, and
`bind_predictor` makes its predictor over a table.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .annotate import Annotator
from .corpus import ClozeInstance, augment_swap, gold_labels
from .datagen import Predictor
from .embeddings import EmbeddingTable
from .errors import ParseError
from .features import (FeatureConfig, Scaler, config_for_layout,
                       extract_matrix, feature_names, min_max_scale)
from .linear import (DEFAULT_C_GRID, MODEL_HEADERS, CvReport, LinearModel,
                     check_folds, cv_tune_c, load_model, predict_rows,
                     train_logreg)
from .neural import (ModelParams, TrainConfig, TrainResult, chunked_labels,
                     embed_instance, load_checkpoint, predict_labels, train_model)


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    n: int
    predictions: tuple[int, ...]


def check_scorable(items: Sequence[object]) -> None:
    """Refuse an empty set to score, before any table loads or model trains."""
    if not items:
        raise ValueError("nothing to score")


def accuracy(predictions: Sequence[int], gold: Sequence[int]) -> EvalResult:
    if len(predictions) != len(gold):
        raise ValueError(f"{len(predictions)} predictions for "
                         f"{len(gold)} gold labels")
    check_scorable(gold)
    correct = sum(p == g for p, g in zip(predictions, gold))
    return EvalResult(accuracy=correct / len(gold), n=len(gold),
                      predictions=tuple(predictions))


def majority_baseline(train_gold: Sequence[int], test_gold: Sequence[int]) -> EvalResult:
    """Predict the most frequent training label everywhere (ties -> label 1)."""
    if not train_gold:
        raise ValueError("empty training labels")
    ones = sum(1 for g in train_gold if g == 1)
    majority = 1 if ones >= len(train_gold) - ones else 2
    return accuracy([majority] * len(test_gold), test_gold)


@dataclass(frozen=True)
class AblationReport:
    configs: tuple[FeatureConfig, ...]
    rows: Mapping[str, Mapping[FeatureConfig, float]]


def save_ablation_report(path: str | Path, report: AblationReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["embeddings"] + [c.value for c in report.configs])
        for name in report.rows:
            row = report.rows[name]
            writer.writerow([name] + [repr(row[c]) for c in report.configs])


def fit_linear(x: np.ndarray, names: Sequence[str], labels: Sequence[int],
               config: FeatureConfig, folds: int = 5,
               c_grid: Sequence[float] = DEFAULT_C_GRID,
               seed: int = 0) -> tuple[LinearModel, CvReport]:
    """Min-max scale raw `x`, tune C by cross-validation, retrain on all."""
    check_folds(folds, len(x))
    scaler = Scaler(tuple(names), x.min(axis=0), x.max(axis=0))
    x = min_max_scale(scaler, x)
    report = cv_tune_c(x, labels, folds=folds, grid=c_grid, seed=seed)
    model = train_logreg(x, labels, report.best_c, names=scaler.names,
                         config=config, scaler=scaler)
    return model, report


def train_linear_cell(train: Sequence[ClozeInstance], table: EmbeddingTable,
                      config: FeatureConfig, annotator: Annotator | None,
                      folds: int = 5,
                      c_grid: Sequence[float] = DEFAULT_C_GRID,
                      seed: int = 0) -> LinearModel:
    """Swap-augment, `extract_matrix`, then `fit_linear`."""
    instances = augment_swap(train)
    return fit_linear(extract_matrix(instances, table, annotator, [config])[0],
                      feature_names(config, table.dim), gold_labels(instances),
                      config, folds=folds, c_grid=c_grid, seed=seed)[0]


def evaluate_linear(model: LinearModel, test: Sequence[ClozeInstance],
                    table: EmbeddingTable,
                    annotator: Annotator | None) -> EvalResult:
    return accuracy(linear_predictor(model, table, annotator)(test),
                    gold_labels(test))


def run_ablation(dev: Sequence[ClozeInstance], test: Sequence[ClozeInstance],
                 tables: Mapping[str, EmbeddingTable],
                 configs: Sequence[FeatureConfig] = tuple(FeatureConfig),
                 annotator: Annotator | None = None, folds: int = 5,
                 c_grid: Sequence[float] = DEFAULT_C_GRID,
                 seed: int = 0) -> AblationReport:
    """Each cell equals `train_linear_cell` + `evaluate_linear` to the bit,
    but every instance is extracted once per table, for all configs."""
    train = augment_swap(dev)
    check_folds(folds, len(train))
    check_scorable(test)
    labels, gold = gold_labels(train), gold_labels(test)
    rows: dict[str, dict[FeatureConfig, float]] = {}
    for name, table in tables.items():
        x_train, columns = extract_matrix(train, table, annotator, configs)
        x_test = extract_matrix(test, table, annotator, configs)[0]
        rows[name] = {}
        for config in configs:
            model = fit_linear(x_train[:, columns[config]],
                               feature_names(config, table.dim), labels,
                               config, folds=folds, c_grid=c_grid,
                               seed=seed)[0]
            predictions = predict_rows(model, x_test[:, columns[config]])
            rows[name][config] = accuracy(predictions.tolist(), gold).accuracy
    return AblationReport(configs=tuple(configs), rows=rows)


def lstm_restarts(train: Sequence[ClozeInstance],
                  valid: Sequence[ClozeInstance], table: EmbeddingTable,
                  config: TrainConfig) -> Iterator[TrainResult]:
    """Embed, swap-augment, then yield each of `config.restarts` runs of
    `train_model` as it ends. Each training instance is embedded once; its
    swapped twin shares its story and ending arrays. Run r uses seed
    `config.seed * config.restarts + r`."""
    emb_train = augment_swap([embed_instance(i, table) for i in train])
    emb_valid = [embed_instance(i, table) for i in valid]
    for r in range(config.restarts):
        yield train_model(emb_train, emb_valid,
                          replace(config, seed=config.seed * config.restarts + r))


def train_lstm_cell(train: Sequence[ClozeInstance],
                    valid: Sequence[ClozeInstance], table: EmbeddingTable,
                    config: TrainConfig
                    ) -> tuple[TrainResult, tuple[TrainResult, ...]]:
    """The run of `lstm_restarts` with the highest validation accuracy (ties
    go to the earlier restart), and every run in restart order."""
    runs = tuple(lstm_restarts(train, valid, table, config))
    return max(runs, key=lambda run: run.best_dev_accuracy), runs


@dataclass(frozen=True)
class NeuralComparisonRow:
    config: TrainConfig
    best_epoch: int
    dev_accuracy: float
    test_accuracy: float


def run_neural_comparison(dev_train: Sequence[ClozeInstance],
                          dev_dev: Sequence[ClozeInstance],
                          test: Sequence[ClozeInstance],
                          configs: Sequence[TrainConfig],
                          table: EmbeddingTable
                          ) -> tuple[NeuralComparisonRow, ...]:
    """Train each config with `train_lstm_cell`, score its best run on test."""
    gold = gold_labels(test)
    rows = []
    for config in configs:
        best, _ = train_lstm_cell(dev_train, dev_dev, table, config)
        rows.append(NeuralComparisonRow(
            config=config,
            best_epoch=best.best_epoch,
            dev_accuracy=best.best_dev_accuracy,
            test_accuracy=accuracy(neural_predictor(best.params, table)(test),
                                   gold).accuracy,
        ))
    return tuple(rows)


def linear_predictor(model: LinearModel, table: EmbeddingTable,
                     annotator: Annotator | None = None) -> Predictor:
    """Label instances in chunks, one feature matrix per chunk."""
    if model.config is None:
        raise ValueError("model carries no feature configuration")
    layout = config_for_layout(model.names)
    if layout and layout[1] not in (0, table.dim):
        raise ValueError(f"linear model (config {model.config.value}) expects "
                         f"{layout[1]}-d embeddings; the table is {table.dim}-d")

    return lambda instances: chunked_labels(instances, lambda chunk: (
        predict_rows(model, extract_matrix(chunk, table, annotator,
                                           [model.config])[0])))


def neural_predictor(params: ModelParams, table: EmbeddingTable) -> Predictor:
    """Label instances in chunks, embedding one chunk at a time."""
    if params.lstm.input_size != table.dim:
        raise ValueError(f"LSTM model (variant {params.variant.value}) "
                         f"expects {params.lstm.input_size}-d embeddings; "
                         f"the table is {table.dim}-d")
    return lambda instances: predict_labels(
        (embed_instance(inst, table) for inst in instances), params)


def load_saved_model(path: str | Path) -> LinearModel | ModelParams:
    """A linear model file (told by its header line) or an LSTM checkpoint."""
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            header = handle.readline(64).rstrip("\n")
    except OSError as exc:
        raise ValueError(f"cannot read model {path}: {exc}") from None
    if header in MODEL_HEADERS:
        return load_model(path)
    try:
        return load_checkpoint(path)
    except ParseError as exc:
        raise ParseError(f"{exc}; nor is it a linear model file") from None


def bind_predictor(model: LinearModel | ModelParams, table: EmbeddingTable,
                   annotator: Annotator | None = None) -> Predictor:
    """The predictor of a saved model of either kind over `table`."""
    if isinstance(model, LinearModel):
        return linear_predictor(model, table, annotator)
    return neural_predictor(model, table)
