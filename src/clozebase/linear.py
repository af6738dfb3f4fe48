"""L2-regularized logistic regression with a batch quasi-Newton solver.

Objective (label 2 is the positive class, mapped to +1):

    f(w, b) = 1/2 ||w||^2 + C * sum_i log(1 + exp(-y_i (w.x_i + b)))

The intercept is unregularized. The solver is limited-memory BFGS with an
Armijo backtracking line search; convergence when the gradient infinity-norm
drops below tolerance. C is tuned by seeded k-fold cross-validation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError
from .features import FeatureConfig, FeatureVector, Scaler, apply_scaler

DEFAULT_C_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0)
GRAD_TOL = 1e-8
MAX_ITER = 1000


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    intercept: float
    c: float
    names: tuple[str, ...]
    config: FeatureConfig | None = None
    scaler: Scaler | None = None

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


def minimize_lbfgs(fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
                   x0: np.ndarray, tol: float = GRAD_TOL,
                   max_iter: int = MAX_ITER, memory: int = 10) -> SolveResult:
    """Limited-memory BFGS with Armijo backtracking (halving) line search."""
    x = np.asarray(x0, dtype=np.float64).copy()
    value, grad = fun_grad(x)
    history = [value]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if float(np.abs(grad).max()) < tol:
            return SolveResult(x, value, tuple(history), iterations - 1, True)
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
            # line search exhausted: flat to machine precision
            return SolveResult(x, value, tuple(history), iterations, False)
        s = step * direction
        y = new_grad - grad
        if float(s @ y) > 1e-12:
            s_list.append(s)
            y_list.append(y)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
        x = x + s
        value, grad = new_value, new_grad
        history.append(value)
    converged = float(np.abs(grad).max()) < tol
    return SolveResult(x, value, tuple(history), max_iter, converged)


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
    if c <= 0:
        raise ValueError(f"C must be positive, got {c}")
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
    )


def predict(model: LinearModel, v: FeatureVector | np.ndarray) -> tuple[int, float]:
    """Label in {1,2} and p = P(label 2). Applies the model's scaler if present."""
    if isinstance(v, FeatureVector):
        if v.names != model.names:
            raise ValueError("feature layout does not match the model")
        if model.scaler is not None:
            v = apply_scaler(model.scaler, v)
        values = v.values
    else:
        values = np.asarray(v, dtype=np.float64)
        if values.shape != model.weights.shape:
            raise ValueError(f"expected {model.weights.shape[0]} features, "
                             f"got {values.shape}")
    p = float(sigmoid(model.weights @ values + model.intercept))
    return (2 if p >= 0.5 else 1), p


@dataclass(frozen=True)
class CvReport:
    grid: tuple[tuple[float, float, tuple[float, ...]], ...]
    best_c: float


def cv_tune_c(x: np.ndarray, y: Sequence[int], folds: int,
              grid: Sequence[float], seed: int) -> CvReport:
    """Seeded shuffle, contiguous folds; mean held-out accuracy per C."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not grid:
        raise ValueError("C grid is empty")
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
    for c in grid:
        fold_accs = []
        for held_out in fold_indices:
            held = set(held_out)
            train_idx = [i for i in order if i not in held]
            model = train_logreg(x[train_idx], y[train_idx], c)
            correct = sum(predict(model, x[i])[0] == y[i] for i in held_out)
            fold_accs.append(correct / len(held_out))
        rows.append((float(c), float(np.mean(fold_accs)), tuple(fold_accs)))
    best = max(rows, key=lambda row: (row[1], -row[0]))
    return CvReport(grid=tuple(rows), best_c=best[0])


_MODEL_MAGIC = "clozebase linear model v1"


def save_model(path: str | Path, model: LinearModel) -> None:
    """Versioned text dump; requires the config and scaler so eval is self-contained."""
    if model.config is None or model.scaler is None:
        raise ValueError("only models carrying a config and scaler can be saved")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_MODEL_MAGIC + "\n")
        handle.write(f"config\t{model.config.value}\n")
        handle.write(f"c\t{model.c!r}\n")
        handle.write(f"intercept\t{model.intercept!r}\n")
        for name, weight, lo, hi in zip(model.names, model.weights,
                                        model.scaler.mins, model.scaler.maxs):
            handle.write(f"{name}\t{float(weight)!r}\t{float(lo)!r}\t{float(hi)!r}\n")


def load_model(path: str | Path) -> LinearModel:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != _MODEL_MAGIC:
        raise ParseError(f"{path}: not a linear model file "
                         f"(missing {_MODEL_MAGIC!r} header)")
    meta: dict[str, str] = {}
    rows: list[tuple[str, float, float, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) == 2 and fields[0] in ("config", "c", "intercept"):
            meta[fields[0]] = fields[1]
        elif len(fields) == 4:
            try:
                rows.append((fields[0], float(fields[1]),
                             float(fields[2]), float(fields[3])))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
        else:
            raise ParseError(f"{path}: line {lineno}: unrecognized record")
    for key in ("config", "c", "intercept"):
        if key not in meta:
            raise ParseError(f"{path}: missing {key!r} line")
    try:
        config = FeatureConfig(meta["config"])
    except ValueError:
        raise ParseError(f"{path}: unknown config {meta['config']!r}") from None
    names = tuple(r[0] for r in rows)
    return LinearModel(
        weights=np.asarray([r[1] for r in rows], dtype=np.float64),
        intercept=float(meta["intercept"]),
        c=float(meta["c"]),
        names=names,
        config=config,
        scaler=Scaler(names=names,
                      mins=np.asarray([r[2] for r in rows], dtype=np.float64),
                      maxs=np.asarray([r[3] for r in rows], dtype=np.float64)),
    )
