"""The command-line interface, action by action, written out literally.

Each subcommand's arguments are compared by dest, so the order in which the
parser declares them does not matter; every option string, default,
`required`, `choices`, `nargs`, `type`, help text and metavar does.
"""
from __future__ import annotations

import argparse

import pytest

from clozebase import cli

FORMATS = ["glove-txt", "w2v-bin"]
CONFIGS = ["all", "all-wo-max-sim", "all-wo-pos-sim", "all-wo-sim",
           "endings-only", "repr-plus-sim", "sims-only"]


def opt(*flags, default=None, required=False, choices=None, nargs=None,
        type=None, help=None, metavar=None):
    return dict(flags=flags, default=default, required=required,
                choices=choices, nargs=nargs, type=type, help=help,
                metavar=metavar)


HELP = opt("-h", "--help", default=argparse.SUPPRESS, nargs=0,
           help="show this help message and exit")
EMBEDDINGS = opt("--embeddings", required=True)
FORMAT = opt("--format", required=True, choices=FORMATS)
ANNOTATIONS = opt("--annotations", default="heuristic",
                  help="'heuristic' or a sidecar annotation file")
SEED = opt("--seed", default=0, type=int)

COMMANDS = {
    "gen-data": ("generate labeled instances from stories", {
        "roc": opt("--roc", required=True, help="five-sentence story CSV"),
        "strategy": opt("--strategy", required=True,
                        choices=["random", "shared", "coherent"]),
        "k": opt("--k", default=10, type=int,
                 help="wrong endings per story (default 10)"),
        "pool": opt("--pool", default=500, type=int,
                    help="candidate pool for the coherent strategy "
                         "(default 500)"),
        "seed": SEED,
        "annotations": ANNOTATIONS,
        "out": opt("--out", required=True),
    }),
    "extract": ("compute feature vectors for instances", {
        "data": opt("--data", required=True, help="labeled instance CSV"),
        "embeddings": EMBEDDINGS,
        "format": FORMAT,
        "config": opt("--config", default="all", choices=CONFIGS),
        "annotations": ANNOTATIONS,
        "swap_augment": opt("--swap-augment", default=False, nargs=0,
                            help="add ending-swapped copies before "
                                 "extraction"),
        "out": opt("--out", required=True),
    }),
    "train-linear": ("train the linear classifier", {
        "features": opt("--features", required=True,
                        help="feature CSV from extract"),
        "cv_folds": opt("--cv-folds", default=5, type=int),
        "c_grid": opt("--c-grid", default="0.01,0.05,0.1,0.5,1.0,5.0,10.0,100.0",
                      help="comma-separated C values"),
        "seed": SEED,
        "model_out": opt("--model-out", required=True),
    }),
    "eval": ("evaluate a saved model on labeled data", {
        "model": opt("--model", required=True,
                     help="linear model file or LSTM checkpoint"),
        "data": opt("--data", required=True),
        "embeddings": EMBEDDINGS,
        "format": FORMAT,
        "annotations": ANNOTATIONS,
    }),
    "train-lstm": ("train an LSTM ending classifier", {
        "dev": opt("--dev", required=True, help="labeled instance CSV"),
        "embeddings": EMBEDDINGS,
        "format": FORMAT,
        "variant": opt("--variant", default="raw",
                       choices=["att", "combined", "raw"]),
        "hidden": opt("--hidden", default=384, type=int),
        "batch": opt("--batch", default=500, type=int),
        "epochs": opt("--epochs", default=10, type=int),
        "lr": opt("--lr", default=0.001, type=float),
        "restarts": opt("--restarts", default=5, type=int),
        "seed": SEED,
        "split_ratio": opt("--split-ratio", default=0.9, type=float,
                           help="fraction of --dev used for training "
                                "(default 0.9)"),
        "model_out": opt("--model-out",
                         help="checkpoint path for the best model"),
    }),
    "ablate": ("accuracy grid over embeddings x configs", {
        "dev": opt("--dev", required=True),
        "test": opt("--test", required=True),
        "embeddings": opt("--embeddings", required=True, nargs="+",
                          metavar="NAME=PATH:FORMAT",
                          help="e.g. word2vec=vecs.bin:w2v-bin "
                               "glove=glove.txt:glove-txt"),
        "configs": opt("--configs", default=CONFIGS, choices=CONFIGS,
                       nargs="+"),
        "annotations": ANNOTATIONS,
        "cv_folds": opt("--cv-folds", default=5, type=int),
        "seed": SEED,
        "out": opt("--out", required=True),
    }),
    "filter": ("keep instances all models get right", {
        "data": opt("--data", required=True),
        "models": opt("--models", required=True, nargs="+"),
        "embeddings": EMBEDDINGS,
        "format": FORMAT,
        "annotations": ANNOTATIONS,
        "out": opt("--out", required=True),
    }),
}


def actions(parser):
    """Each action but the subcommands', as `opt` would write it, by dest."""
    return {a.dest: opt(*a.option_strings, default=a.default,
                        required=a.required, choices=a.choices,
                        nargs=a.nargs, type=a.type, help=a.help,
                        metavar=a.metavar)
            for a in parser._actions
            if not isinstance(a, argparse._SubParsersAction)}


@pytest.fixture(scope="module")
def parser():
    return cli._build_parser()


@pytest.fixture(scope="module")
def subcommands(parser):
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action


def test_top_level(parser, subcommands):
    assert (parser.prog, parser.description) == \
        ("clozebase", "Two-ending story classification baselines.")
    assert actions(parser) == {"help": HELP}
    assert (subcommands.dest, subcommands.required) == ("command", True)
    assert sorted(subcommands.choices) == sorted(COMMANDS)
    assert {a.dest: a.help for a in subcommands._choices_actions} == \
        {name: help for name, (help, _) in COMMANDS.items()}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_subcommand(name, subcommands):
    assert actions(subcommands.choices[name]) == \
        {"help": HELP, **COMMANDS[name][1]}
