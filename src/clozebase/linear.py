"""L2-regularized logistic regression with a batch quasi-Newton solver.

Objective (label 2 is the positive class, mapped to +1):

    f(w, b) = 1/2 ||w||^2 + C * sum_i log(1 + exp(-y_i (w.x_i + b)))

The intercept is unregularized. The solver is limited-memory BFGS with an
Armijo backtracking line search. It stops, converged, when the gradient
infinity-norm falls to GRAD_TOL times its value at the start (or times 1 if
that was smaller), or when FLAT_ITERS accepted steps in a row each lower the
objective by no more than FLAT_RTOL relative to its size: the objective
grows with C * n, so an absolute gradient bound is out of reach at large C.
C is tuned by seeded k-fold cross-validation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError
from .features import (FeatureConfig, FeatureVector, Scaler,
                       config_for_layout, min_max_scale)

DEFAULT_C_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0)
GRAD_TOL = 1e-9
MAX_ITER = 1000
LBFGS_MEMORY = 10           # (s, y) pairs the two-loop recursion keeps
# An accepted step is flat when it lowers f by at most
# FLAT_RTOL * max(|f_prev|, |f|, 1); FLAT_ITERS flat steps in a row end a solve.
FLAT_RTOL = 10.0 * float(np.finfo(np.float64).eps)
FLAT_ITERS = 5


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float
    c: float
    names: tuple[str, ...]
    config: FeatureConfig | None = None
    scaler: Scaler | None = None
    # diagnostics of the solve that produced the weights (None if unknown)
    iterations: int | None = None
    converged: bool | None = None
    grad_inf: float | None = None

    def __post_init__(self) -> None:
        if self.weights.shape != (len(self.names),):
            raise ValueError(f"{self.weights.shape[0]} weights for "
                             f"{len(self.names)} feature names")


def _labels_to_pm(y: np.ndarray) -> np.ndarray:
    """Map labels {1,2} to {-1,+1}; label 2 is the positive class."""
    bad = set(np.unique(y)) - {1, 2}
    if bad:
        raise ValueError(f"labels must be 1 or 2, got {sorted(bad)}")
    return np.where(y == 2, 1.0, -1.0)


def logreg_objective(theta: np.ndarray, x: np.ndarray, y_pm: np.ndarray,
                     c: float) -> tuple[float, np.ndarray]:
    """Value and gradient at theta = [w..., b]."""
    w, b = theta[:-1], theta[-1]
    margins = y_pm * (x @ w + b)
    # log(1+exp(-m)) computed stably for both signs of m
    value = 0.5 * float(w @ w) + c * float(np.logaddexp(0.0, -margins).sum())
    # d/dm log(1+exp(-m)) = -sigma(-m)
    coeff = -y_pm * sigmoid(-margins)
    grad = np.empty_like(theta)
    grad[:-1] = w + c * (x.T @ coeff)
    grad[-1] = c * float(coeff.sum())
    return value, grad


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """The logistic function, clipped so exp never overflows."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


@dataclass(frozen=True)
class SolveResult:
    theta: np.ndarray
    value: float
    history: tuple[float, ...]
    iterations: int
    converged: bool
    grad_inf: float             # ||g||_inf at theta
    stop: str                   # "gradient", "flat", "line_search" or "max_iter"


def minimize_lbfgs(fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
                   x0: np.ndarray) -> SolveResult:
    """Limited-memory BFGS with Armijo backtracking (halving) line search.

    Converged means the relative gradient test or the flat-objective test
    held (module docstring); a line search that finds no decrease or whose
    accepted point rounds to x, or MAX_ITER steps, end the solve
    unconverged.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    value, grad = fun_grad(x)
    history = [value]
    grad_bound = GRAD_TOL * max(1.0, float(np.abs(grad).max()))
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    flat = 0

    def result(iterations: int, stop: str) -> SolveResult:
        return SolveResult(x, value, tuple(history), iterations,
                           stop in ("gradient", "flat"),
                           float(np.abs(grad).max()), stop)

    for iterations in range(1, MAX_ITER + 1):
        if float(np.abs(grad).max()) <= grad_bound:
            return result(iterations - 1, "gradient")
        # two-loop recursion for the search direction
        q = grad.copy()
        alphas = []
        for s, y in zip(reversed(s_list), reversed(y_list)):
            rho = 1.0 / float(y @ s)
            a = rho * float(s @ q)
            alphas.append((a, rho))
            q -= a * y
        if s_list:
            gamma = float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
            q *= gamma
        for (a, rho), s, y in zip(reversed(alphas), s_list, y_list):
            beta = rho * float(y @ q)
            q += (a - beta) * s
        direction = -q
        slope = float(grad @ direction)
        if slope >= 0.0:            # not a descent direction: reset to steepest
            direction = -grad
            slope = -float(grad @ grad)
            s_list.clear()
            y_list.clear()
        step = 1.0
        armijo = 1e-4
        new_value, new_grad = None, None
        for _ in range(60):
            candidate = x + step * direction
            new_value, new_grad = fun_grad(candidate)
            if new_value <= value + armijo * step * slope:
                break
            step *= 0.5
        else:
            return result(iterations, "line_search")
        if np.array_equal(candidate, x):    # the step rounded away: no move
            return result(iterations, "line_search")
        s = step * direction
        y = new_grad - grad
        if float(s @ y) > 1e-12:
            s_list.append(s)
            y_list.append(y)
            if len(s_list) > LBFGS_MEMORY:
                s_list.pop(0)
                y_list.pop(0)
        scale = max(abs(value), abs(new_value), 1.0)
        flat = flat + 1 if value - new_value <= FLAT_RTOL * scale else 0
        x = x + s
        value, grad = new_value, new_grad
        history.append(value)
        if flat == FLAT_ITERS:
            return result(iterations, "flat")
    if float(np.abs(grad).max()) <= grad_bound:
        return result(MAX_ITER, "gradient")
    return result(MAX_ITER, "max_iter")


def _check_c(c: float) -> None:
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"C must be a finite positive number, got {c}")


def train_logreg(x: np.ndarray, y: Sequence[int], c: float,
                 names: Sequence[str] | None = None,
                 config: FeatureConfig | None = None,
                 scaler: Scaler | None = None) -> LinearModel:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"feature matrix {x.shape} does not match "
                         f"{y.shape[0]} labels")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix contains non-finite values")
    _check_c(c)
    y_pm = _labels_to_pm(y)
    if len(np.unique(y_pm)) < 2:
        raise ValueError("training data contains a single class")
    theta0 = np.zeros(x.shape[1] + 1)
    result = minimize_lbfgs(lambda t: logreg_objective(t, x, y_pm, c), theta0)
    if names is None:
        names = tuple(f"x{i}" for i in range(x.shape[1]))
    return LinearModel(
        weights=result.theta[:-1],
        intercept=float(result.theta[-1]),
        c=float(c),
        names=tuple(names),
        config=config,
        scaler=scaler,
        iterations=result.iterations,
        converged=result.converged,
        grad_inf=result.grad_inf,
    )


def predict(model: LinearModel, v: FeatureVector | np.ndarray) -> tuple[int, float]:
    """Label in {1,2} and p = P(label 2) of one raw row: a FeatureVector of
    the model's layout or an ndarray, scaled by the model's scaler, if any."""
    if isinstance(v, FeatureVector):
        if v.names != model.names:
            raise ValueError("feature layout does not match the model")
        values = v.values
    else:
        values = np.asarray(v, dtype=np.float64)
        if values.shape != model.weights.shape:
            raise ValueError(f"expected {model.weights.shape[0]} features, "
                             f"got {values.shape}")
    if model.scaler is not None:
        values = min_max_scale(model.scaler, values)
    p = float(sigmoid(model.weights @ values + model.intercept))
    return (2 if p >= 0.5 else 1), p


def predict_rows(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """The labels `predict` gives each row of a raw matrix."""
    if model.scaler is not None:
        x = min_max_scale(model.scaler, x)
    return np.where(sigmoid(x @ model.weights + model.intercept) >= 0.5, 2, 1)


@dataclass(frozen=True)
class CvReport:
    grid: tuple[tuple[float, float, tuple[float, ...]], ...]
    best_c: float
    # (iterations, converged) of each fold's solve, one tuple per grid C
    solves: tuple[tuple[tuple[int, bool], ...], ...]


def cv_tune_c(x: np.ndarray, y: Sequence[int], folds: int,
              grid: Sequence[float], seed: int) -> CvReport:
    """Seeded shuffle, contiguous folds; mean held-out accuracy per C.
    A fold is scored by `predict_rows`; fold models carry no scaler."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not grid:
        raise ValueError("empty C grid")
    for c in grid:
        _check_c(c)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    n = x.shape[0]
    if n < folds:
        raise ValueError(f"{n} examples cannot fill {folds} folds")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    bounds = [round(i * n / folds) for i in range(folds + 1)]
    fold_indices = [order[bounds[i]:bounds[i + 1]] for i in range(folds)]

    rows = []
    solves = []
    for c in grid:
        fold_accs = []
        fold_solves = []
        for held_out in fold_indices:
            held = set(held_out)
            train_idx = [i for i in order if i not in held]
            model = train_logreg(x[train_idx], y[train_idx], c)
            labels = predict_rows(model, x[held_out])
            fold_accs.append(int(np.count_nonzero(labels == y[held_out]))
                             / len(held_out))
            fold_solves.append((model.iterations, model.converged))
        rows.append((float(c), float(np.mean(fold_accs)), tuple(fold_accs)))
        solves.append(tuple(fold_solves))
    best = max(rows, key=lambda row: (row[1], -row[0]))
    return CvReport(grid=tuple(rows), best_c=best[0], solves=tuple(solves))


_MODEL_MAGIC = "clozebase linear model v2"
MODEL_HEADERS = (_MODEL_MAGIC, "clozebase linear model v1")


def _parse_bool(text: str) -> bool:
    return {"true": True, "false": False}[text]


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


# v2 adds the final solve's diagnostics; a v1 file loads with them set to None
_DIAGNOSTICS = {"iterations": int, "converged": _parse_bool, "grad_inf": float}


def save_model(path: str | Path, model: LinearModel) -> None:
    """Versioned text dump; requires the config and scaler so eval is self-contained."""
    if model.config is None or model.scaler is None:
        raise ValueError("only models carrying a config and scaler can be saved")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_MODEL_MAGIC + "\n")
        handle.write(f"config\t{model.config.value}\n")
        handle.write(f"c\t{model.c!r}\n")
        handle.write(f"intercept\t{model.intercept!r}\n")
        if model.iterations is not None:
            handle.write(f"iterations\t{model.iterations}\n")
        if model.converged is not None:
            handle.write(f"converged\t{str(model.converged).lower()}\n")
        if model.grad_inf is not None:
            handle.write(f"grad_inf\t{model.grad_inf!r}\n")
        for name, weight, lo, hi in zip(model.names, model.weights,
                                        model.scaler.mins, model.scaler.maxs):
            handle.write(f"{name}\t{float(weight)!r}\t{float(lo)!r}\t{float(hi)!r}\n")


def load_model(path: str | Path) -> LinearModel:
    """Read a model file; a bad or non-finite number, or a feature whose max
    is below its min, is a ParseError naming the line."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] not in MODEL_HEADERS:
        raise ParseError(f"{path}: not a linear model file "
                         f"(missing {_MODEL_MAGIC!r} header)")
    keys = {"config": FeatureConfig, "c": _finite, "intercept": _finite}
    if lines[0] == _MODEL_MAGIC:
        keys |= _DIAGNOSTICS
    meta: dict[str, object] = {}
    rows: list[tuple[str, float, float, float]] = []

    def parse(lineno: int, what: str, text: str, kind: Callable) -> object:
        try:
            return kind(text)
        except (KeyError, ValueError):
            raise ParseError(f"{path}: line {lineno}: bad {what} {text!r}") from None

    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) == 2 and fields[0] in keys:
            meta[fields[0]] = parse(lineno, *fields, keys[fields[0]])
        elif len(fields) == 4:
            weight, lo, hi = (parse(lineno, what, text, _finite) for what, text
                              in zip(("weight", "min", "max"), fields[1:]))
            if hi < lo:
                raise ParseError(f"{path}: line {lineno}: max {hi!r} < min {lo!r}")
            rows.append((fields[0], weight, lo, hi))
        else:
            raise ParseError(f"{path}: line {lineno}: unrecognized record")
    for key in ("config", "c", "intercept"):
        if key not in meta:
            raise ParseError(f"{path}: missing {key!r} line")
    config = meta["config"]
    names = tuple(r[0] for r in rows)
    layout = config_for_layout(names)
    if layout is None or layout[0] is not config:
        raise ParseError(f"{path}: weight names are not the layout of "
                         f"config {config.value}")
    return LinearModel(
        weights=np.asarray([r[1] for r in rows], dtype=np.float64),
        intercept=meta["intercept"],
        c=meta["c"],
        names=names,
        config=config,
        scaler=Scaler(names=names,
                      mins=np.asarray([r[2] for r in rows], dtype=np.float64),
                      maxs=np.asarray([r[3] for r in rows], dtype=np.float64)),
        **{key: meta[key] for key in _DIAGNOSTICS if key in meta},
    )
