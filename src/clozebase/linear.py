"""L2-regularized logistic regression, fitted by L-BFGS or Newton's method.

Objective (label 2 is the positive class, mapped to +1):

    f(w, b) = 1/2 ||w||^2 + C * sum_i log(1 + exp(-y_i (w.x_i + b)))

The intercept is unregularized. `train_logreg` solves by limited-memory
BFGS with an Armijo backtracking line search. It stops, converged, when the
gradient infinity-norm falls to GRAD_TOL times its value at the start (or
times 1 if that was smaller), or when FLAT_ITERS accepted steps in a row
each lower the objective by no more than FLAT_RTOL relative to its size:
the objective grows with C * n, so an absolute gradient bound is out of
reach at large C.

C is tuned by seeded k-fold cross-validation, whose fold fits use Newton's
method (`minimize_newton`) with the same line search, gradient test and
iteration cap; each step solves in the training matrix's row space, at size
min(n, d) + 1. A fold fit takes a few steps where L-BFGS takes hundreds,
and it reaches the gradient test where L-BFGS often stops flat. The final
fit stays on L-BFGS: the saved weights, and the benchmark's references, are
that solver's endpoint.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
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


def _line_search(fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
                 x: np.ndarray, value: float, direction: np.ndarray,
                 slope: float
                 ) -> tuple[float, np.ndarray, float, np.ndarray] | None:
    """Armijo backtracking from x along a descent direction with
    slope = grad . direction: the step halves from 1 until
    f(x + step * direction) <= value + 1e-4 * step * slope. Returns the step
    and the accepted point's (point, value, gradient), or None when 60
    halvings find no decrease or the accepted point rounds to x."""
    step = 1.0
    for _ in range(60):
        candidate = x + step * direction
        new_value, new_grad = fun_grad(candidate)
        if new_value <= value + 1e-4 * step * slope:
            break
        step *= 0.5
    else:
        return None
    if not (candidate != x).any():
        return None
    return step, candidate, new_value, new_grad


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
    # the (s, y, rho = 1/(s.y)) pairs, oldest first, and gamma = (s.y)/(y.y)
    # of the newest pair: each product is taken once, when its pair is stored
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    gamma = 1.0
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
        for s, y, rho in reversed(pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            q *= gamma
        for a, (s, y, rho) in zip(reversed(alphas), pairs):
            beta = rho * float(y @ q)
            q += (a - beta) * s
        direction = -q
        slope = float(grad @ direction)
        if slope >= 0.0:            # not a descent direction: reset to steepest
            direction = -grad
            slope = -float(grad @ grad)
            pairs.clear()
        accepted = _line_search(fun_grad, x, value, direction, slope)
        if accepted is None:
            return result(iterations, "line_search")
        step, candidate, new_value, new_grad = accepted
        s = step * direction
        y = new_grad - grad
        sy = float(s @ y)
        if sy > 1e-12:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(y @ y)
            if len(pairs) > LBFGS_MEMORY:
                pairs.pop(0)
        scale = max(abs(value), abs(new_value), 1.0)
        flat = flat + 1 if value - new_value <= FLAT_RTOL * scale else 0
        x = candidate
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


def _training_set(x: np.ndarray, y: Sequence[int],
                  c: float) -> tuple[np.ndarray, np.ndarray]:
    """x as float64 and the labels as +-1, or the ValueError that refuses
    the fit: a shape mismatch, a non-finite feature, a bad C, a label not
    in {1, 2} or a single class, checked in that order."""
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
    return x, y_pm


def _newton_step(basis: np.ndarray, design: np.ndarray, margins: np.ndarray,
                 grad: np.ndarray, c: float) -> np.ndarray:
    """-H^-1 grad, for the Hessian of `logreg_objective` at the point with
    these margins:

        H = [[I + C X^T D X, C X^T D 1], [C 1^T D X, C 1^T D 1]],
        D = diag(sigma(m) sigma(-m)),

    not sigma(m) (1 - sigma(m)), which rounds to 0 once sigma(m) rounds to 1.
    With X^T = basis R a reduced QR and design = [R^T, 1], H maps
    span(basis) x R into itself, and grad lies there at every iterate from
    theta = 0. So the step solves C design^T D design + diag(1, ..., 1, 0),
    positive definite and min(n, d) + 1 square, for [basis^T g_w, g_b]."""
    curvature = sigmoid(margins) * sigmoid(-margins)
    hessian = c * (design.T * curvature) @ design
    hessian.flat[:-1:hessian.shape[0] + 1] += 1.0    # the w block's identity
    z = np.linalg.solve(hessian, np.append(basis.T @ grad[:-1], grad[-1]))
    return -np.append(basis @ z[:-1], z[-1])


def minimize_newton(x: np.ndarray, y_pm: np.ndarray,
                    grid: Sequence[float]) -> tuple[SolveResult, ...]:
    """Newton's method on `logreg_objective` from theta = 0, one solve per
    C of the grid, all in one QR of x^T (`_newton_step`), with
    minimize_lbfgs's line search, relative gradient test and MAX_ITER cap.
    Converged means the gradient test held; a step that is not a descent
    direction, a failed line search, or MAX_ITER steps end a solve
    unconverged."""
    basis, triangle = np.linalg.qr(x.T)
    design = np.column_stack([triangle.T, np.ones(x.shape[0])])

    def solve(c: float) -> SolveResult:
        fun_grad = partial(logreg_objective, x=x, y_pm=y_pm, c=c)
        theta = np.zeros(x.shape[1] + 1)
        value, grad = fun_grad(theta)
        history = [value]
        grad_bound = GRAD_TOL * max(1.0, float(np.abs(grad).max()))

        def result(iterations: int, stop: str) -> SolveResult:
            return SolveResult(theta, value, tuple(history), iterations,
                               stop == "gradient", float(np.abs(grad).max()),
                               stop)

        for iterations in range(1, MAX_ITER + 1):
            if float(np.abs(grad).max()) <= grad_bound:
                return result(iterations - 1, "gradient")
            margins = y_pm * (x @ theta[:-1] + theta[-1])
            direction = _newton_step(basis, design, margins, grad, c)
            slope = float(grad @ direction)
            accepted = (_line_search(fun_grad, theta, value, direction, slope)
                        if slope < 0.0 else None)
            if accepted is None:
                return result(iterations, "line_search")
            _, theta, value, grad = accepted
            history.append(value)
        if float(np.abs(grad).max()) <= grad_bound:
            return result(MAX_ITER, "gradient")
        return result(MAX_ITER, "max_iter")

    return tuple(solve(c) for c in grid)


def train_logreg(x: np.ndarray, y: Sequence[int], c: float,
                 names: Sequence[str] | None = None,
                 config: FeatureConfig | None = None,
                 scaler: Scaler | None = None) -> LinearModel:
    x, y_pm = _training_set(x, y, c)
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
    # (iterations, converged) of each fold's Newton solve (steps of size
    # min(n, d) + 1 in the fold's row space), one tuple per grid C; the
    # final fit is train_logreg's L-BFGS solve
    solves: tuple[tuple[tuple[int, bool], ...], ...]


def cv_tune_c(x: np.ndarray, y: Sequence[int], folds: int,
              grid: Sequence[float], seed: int) -> CvReport:
    """Seeded shuffle, contiguous folds; mean held-out accuracy per C.
    The whole set, then each fold's, passes train_logreg's input checks.
    One `minimize_newton` call fits a fold at every C, each step solving in
    the fold's row space at size min(n, d) + 1; `predict_rows` scores the
    fits, which carry no scaler. Only the fold accuracies use them, so the
    exact minimizer stands in for train_logreg's L-BFGS endpoint."""
    if not grid:
        raise ValueError("empty C grid")
    for c in grid:
        _check_c(c)
    x = _training_set(x, y, grid[0])[0]
    y = np.asarray(y)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    n = x.shape[0]
    if n < folds:
        raise ValueError(f"{n} examples cannot fill {folds} folds")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    bounds = [round(i * n / folds) for i in range(folds + 1)]
    fold_indices = [order[bounds[i]:bounds[i + 1]] for i in range(folds)]

    names = tuple(f"x{i}" for i in range(x.shape[1]))
    accs: list[list[float]] = [[] for _ in grid]
    solves: list[list[tuple[int, bool]]] = [[] for _ in grid]
    for held_out in fold_indices:
        held = set(held_out)
        train_idx = [i for i in order if i not in held]
        fit = minimize_newton(*_training_set(x[train_idx], y[train_idx],
                                             grid[0]), grid)
        for c, result, c_accs, c_solves in zip(grid, fit, accs, solves):
            model = LinearModel(weights=result.theta[:-1],
                                intercept=float(result.theta[-1]), c=float(c),
                                names=names)
            labels = predict_rows(model, x[held_out])
            c_accs.append(int(np.count_nonzero(labels == y[held_out]))
                          / len(held_out))
            c_solves.append((result.iterations, result.converged))
    rows = [(float(c), float(np.mean(c_accs)), tuple(c_accs))
            for c, c_accs in zip(grid, accs)]
    best = max(rows, key=lambda row: (row[1], -row[0]))
    return CvReport(grid=tuple(rows), best_c=best[0],
                    solves=tuple(map(tuple, solves)))


_MODEL_MAGIC = "clozebase linear model v2"
MODEL_HEADERS = (_MODEL_MAGIC, "clozebase linear model v1")


def _parse_bool(text: str) -> bool:
    return {"true": True, "false": False}[text]


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _c_value(text: str) -> float:
    """A C that `_check_c` accepts: finite and positive."""
    value = float(text)
    _check_c(value)
    return value


def _non_negative(kind: Callable[[str], float]) -> Callable[[str], float]:
    """`kind`, refusing a negative value."""
    def parse(text: str) -> float:
        value = kind(text)
        if value < 0:
            raise ValueError(text)
        return value
    return parse


# v2 adds the final solve's diagnostics; a v1 file loads with them set to None
_DIAGNOSTICS = {"iterations": _non_negative(int), "converged": _parse_bool,
                "grad_inf": _non_negative(_finite)}


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
    """Read a model file; a bad or non-finite number, a C that is not
    positive, a negative iteration count or gradient norm, a repeated
    metadata line, or a feature whose max is below its min, is a ParseError
    naming the line."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] not in MODEL_HEADERS:
        raise ParseError(f"{path}: not a linear model file "
                         f"(missing {_MODEL_MAGIC!r} header)")
    keys = {"config": FeatureConfig, "c": _c_value, "intercept": _finite}
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
            if fields[0] in meta:
                raise ParseError(f"{path}: line {lineno}: repeated "
                                 f"{fields[0]!r} line")
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
