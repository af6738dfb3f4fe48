"""Command-line interface.

Subcommands cover the full pipeline: generate training data from
five-sentence stories, extract features, train/evaluate the linear and LSTM
classifiers, run the ablation grid, and consensus-filter generated data.
Errors exit nonzero with a one-line diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from .annotate import Annotator, SidecarAnnotations, heuristic_tag
from .corpus import (ClozeInstance, augment_swap, gold_labels, parse_cloze_csv,
                     parse_roc_csv, split_dev, write_cloze_csv)
from .datagen import (build_ending_index, check_generation, consensus_filter,
                      gen_random, gen_random_coherent, gen_shared_args)
from .embeddings import EmbeddingFormat, load_embeddings
from .errors import ParseError
from .features import (FeatureConfig, FeatureVector, config_for_layout,
                       extract_matrix, feature_names, load_features,
                       save_features)
from .harness import (accuracy, bind_predictor, check_scorable, fit_linear,
                      load_saved_model, lstm_restarts, run_ablation,
                      save_ablation_report)
from .linear import (DEFAULT_C_GRID, check_c_grid, check_fold_count,
                     check_folds, save_model)
from .neural import TrainConfig, Variant, check_split, save_checkpoint

_FORMATS = {f.value: f for f in EmbeddingFormat}
_CONFIGS = {c.value: c for c in FeatureConfig}
_VARIANTS = {v.value: v for v in Variant}


def _annotator_arg(value: str) -> Annotator:
    if value == "heuristic":
        return heuristic_tag
    return SidecarAnnotations.load(value)


def _labeled(path: str) -> list[ClozeInstance]:
    """The instances of a cloze CSV, refused if any has no gold label."""
    instances = parse_cloze_csv(path)
    gold_labels(instances)
    return instances


def _build_parser() -> argparse.ArgumentParser:
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--embeddings", required=True)
    table.add_argument("--format", required=True, choices=sorted(_FORMATS))
    annotations = argparse.ArgumentParser(add_help=False)
    annotations.add_argument("--annotations", default="heuristic",
                             help="'heuristic' or a sidecar annotation file")
    parser = argparse.ArgumentParser(
        prog="clozebase", description="Two-ending story classification baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *parents):
        p = sub.add_parser(name, parents=parents, help=help)
        p.set_defaults(run=run)
        return p

    p = command("gen-data", _cmd_gen_data,
                "generate labeled instances from stories", annotations)
    p.add_argument("--roc", required=True, help="five-sentence story CSV")
    p.add_argument("--strategy", required=True,
                   choices=["random", "shared", "coherent"])
    p.add_argument("--k", type=int, default=10,
                   help="wrong endings per story (default 10)")
    p.add_argument("--pool", type=int, default=500,
                   help="candidate pool for the coherent strategy (default 500)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("extract", _cmd_extract,
                "compute feature vectors for instances", table, annotations)
    p.add_argument("--data", required=True, help="labeled instance CSV")
    p.add_argument("--config", default="all", choices=sorted(_CONFIGS))
    p.add_argument("--swap-augment", action="store_true",
                   help="add ending-swapped copies before extraction")
    p.add_argument("--out", required=True)

    p = command("train-linear", _cmd_train_linear, "train the linear classifier")
    p.add_argument("--features", required=True, help="feature CSV from extract")
    p.add_argument("--cv-folds", type=int, default=5)
    p.add_argument("--c-grid", default=",".join(str(c) for c in DEFAULT_C_GRID),
                   help="comma-separated C values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True)

    p = command("eval", _cmd_eval, "evaluate a saved model on labeled data",
                table, annotations)
    p.add_argument("--model", required=True,
                   help="linear model file or LSTM checkpoint")
    p.add_argument("--data", required=True)

    p = command("train-lstm", _cmd_train_lstm,
                "train an LSTM ending classifier", table)
    p.add_argument("--dev", required=True, help="labeled instance CSV")
    p.add_argument("--variant", default="raw", choices=sorted(_VARIANTS))
    p.add_argument("--hidden", type=int, default=384)
    p.add_argument("--batch", type=int, default=500)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-ratio", type=float, default=0.9,
                   help="fraction of --dev used for training (default 0.9)")
    p.add_argument("--model-out", help="checkpoint path for the best model")

    p = command("ablate", _cmd_ablate,
                "accuracy grid over embeddings x configs", annotations)
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--embeddings", required=True, nargs="+",
                   metavar="NAME=PATH:FORMAT",
                   help="e.g. word2vec=vecs.bin:w2v-bin glove=glove.txt:glove-txt")
    p.add_argument("--configs", nargs="+", choices=sorted(_CONFIGS),
                   default=sorted(_CONFIGS))
    p.add_argument("--cv-folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("filter", _cmd_filter, "keep instances all models get right",
                table, annotations)
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, nargs="+")
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen_data(args: argparse.Namespace) -> None:
    stories = parse_roc_csv(args.roc)
    if args.strategy == "random":
        instances = gen_random(stories, k=args.k, seed=args.seed)
    else:
        check_generation(stories, args.k,
                         args.pool if args.strategy == "coherent" else None)
        annotator = _annotator_arg(args.annotations)
        index = build_ending_index(stories, annotator)
        if args.strategy == "shared":
            instances = gen_shared_args(stories, index, k=args.k)
        else:
            instances = gen_random_coherent(stories, index, pool=args.pool,
                                            k=args.k, seed=args.seed)
    write_cloze_csv(args.out, instances)
    print(f"wrote {len(instances)} instances to {args.out}")


def _cmd_extract(args: argparse.Namespace) -> None:
    instances = _labeled(args.data)
    if not instances:
        raise ValueError("nothing to save")
    if args.swap_augment:
        instances = augment_swap(instances)
    annotator = _annotator_arg(args.annotations)
    table = load_embeddings(args.embeddings, _FORMATS[args.format])
    config = _CONFIGS[args.config]
    matrix, columns = extract_matrix(instances, table, annotator, [config])
    names = feature_names(config, table.dim)
    vectors = [FeatureVector(names, row) for row in matrix[:, columns[config]]]
    save_features(args.out, vectors, gold_labels(instances))
    print(f"wrote {len(vectors)} x {len(names)} features to {args.out}")


def _cmd_train_linear(args: argparse.Namespace) -> None:
    grid = [float(c) for c in args.c_grid.split(",") if c]
    check_c_grid(grid)
    check_fold_count(args.cv_folds)
    vectors, labels = load_features(args.features)
    layout = config_for_layout(vectors[0].names)
    if layout is None:
        raise ParseError(f"{args.features}: feature names are not the layout "
                         "of any configuration")
    x = np.stack([v.values for v in vectors])
    model, report = fit_linear(x, vectors[0].names, labels, layout[0],
                               folds=args.cv_folds, c_grid=grid, seed=args.seed)
    for c, mean, _ in report.grid:
        print(f"C={c:g}: mean fold accuracy {mean:.4f}")
    print(f"final solve at C={model.c:g}: {model.iterations} iterations, "
          f"{'converged' if model.converged else 'not converged'}")
    save_model(args.model_out, model)
    print(f"best C {report.best_c:g}; model saved to {args.model_out}")


def _cmd_eval(args: argparse.Namespace) -> None:
    instances = _labeled(args.data)
    check_scorable(instances)
    gold = gold_labels(instances)
    annotator = _annotator_arg(args.annotations)
    model = load_saved_model(args.model)
    table = load_embeddings(args.embeddings, _FORMATS[args.format])
    predict = bind_predictor(model, table, annotator)
    result = accuracy(predict(instances), gold)
    print(f"accuracy {result.accuracy:.4f} on {result.n} instances")


def _cmd_train_lstm(args: argparse.Namespace) -> None:
    config = TrainConfig(hidden_size=args.hidden, batch_size=args.batch,
                         epochs=args.epochs, learning_rate=args.lr,
                         seed=args.seed, variant=_VARIANTS[args.variant],
                         restarts=args.restarts)
    instances = _labeled(args.dev)
    split = split_dev(instances, ratio=args.split_ratio, seed=args.seed)
    check_split(split.dev_train, split.dev_dev)
    table = load_embeddings(args.embeddings, _FORMATS[args.format])
    runs = []
    for restart, result in enumerate(lstm_restarts(split.dev_train,
                                                   split.dev_dev, table, config)):
        print(f"restart {restart}: best epoch {result.best_epoch}, "
              f"validation accuracy {result.best_dev_accuracy:.4f}", flush=True)
        runs.append(result)
    best = max(runs, key=lambda run: run.best_dev_accuracy)
    print(f"best validation accuracy {best.best_dev_accuracy:.4f} "
          f"(epoch {best.best_epoch})")
    if args.model_out:
        save_checkpoint(args.model_out, best.params)
        print(f"checkpoint saved to {args.model_out}")


def _parse_embedding_specs(specs: Sequence[str]
                           ) -> dict[str, tuple[str, EmbeddingFormat]]:
    """The (path, format) of each NAME=PATH:FORMAT spec, by name."""
    sources = {}
    for spec in specs:
        if "=" not in spec:
            raise ValueError(f"embedding spec {spec!r} is not NAME=PATH:FORMAT")
        name, rest = spec.split("=", 1)
        if not name:
            raise ValueError(f"embedding spec {spec!r} has an empty name")
        path, sep, fmt = rest.rpartition(":")
        if not sep or fmt not in _FORMATS:
            raise ValueError(f"embedding spec {spec!r} needs a format suffix "
                             f"(one of {', '.join(sorted(_FORMATS))})")
        if name in sources:
            raise ValueError(f"embedding name {name!r} is given twice")
        sources[name] = (path, _FORMATS[fmt])
    return sources


def _cmd_ablate(args: argparse.Namespace) -> None:
    dev = _labeled(args.dev)
    test = _labeled(args.test)
    for i, config in enumerate(args.configs):
        if config in args.configs[:i]:
            raise ValueError(f"config {config!r} is given twice")
    check_folds(args.cv_folds, 2 * len(dev))
    check_scorable(test)
    sources = _parse_embedding_specs(args.embeddings)
    annotator = _annotator_arg(args.annotations)
    tables = {name: load_embeddings(*source)
              for name, source in sources.items()}
    configs = [_CONFIGS[c] for c in args.configs]
    report = run_ablation(dev, test, tables, configs=configs,
                          annotator=annotator, folds=args.cv_folds,
                          seed=args.seed)
    save_ablation_report(args.out, report)
    for name, row in report.rows.items():
        cells = ", ".join(f"{c.value}={row[c]:.4f}" for c in report.configs)
        print(f"{name}: {cells}")
    print(f"report saved to {args.out}")


def _cmd_filter(args: argparse.Namespace) -> None:
    instances = _labeled(args.data)
    annotator = _annotator_arg(args.annotations)
    models = [load_saved_model(p) for p in args.models]
    table = load_embeddings(args.embeddings, _FORMATS[args.format])
    predictors = [bind_predictor(m, table, annotator) for m in models]
    kept = consensus_filter(instances, predictors)
    write_cloze_csv(args.out, kept)
    print(f"kept {len(kept)} of {len(instances)} instances -> {args.out}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
