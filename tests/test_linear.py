from __future__ import annotations

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

import clozebase.linear as linear_module
from clozebase.errors import ParseError
from clozebase.features import (FeatureConfig, FeatureVector, Scaler,
                                apply_scaler, feature_names, fit_scaler,
                                min_max_scale)
from clozebase.harness import fit_linear
from clozebase.linear import (DEFAULT_C_GRID, FLAT_ITERS, FLAT_RTOL,
                              GRAD_TOL, LBFGS_MEMORY, MAX_ITER, LinearModel, SolveResult,
                              _newton_step, check_folds, cv_tune_c, load_model,
                              logreg_objective, minimize_lbfgs,
                              minimize_newton, predict, predict_rows,
                              save_model, train_logreg)


def random_problem(rng, n=20, d=8):
    x = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, 1, 2)
    if len(np.unique(y)) < 2:          # resample degenerate draws
        y[0], y[1] = 1, 2
    return x, y


def absolute_tol_lbfgs(fun_grad, x0, tol=1e-8, max_iter=1000, memory=10):
    """The solver before the relative stopping rule, kept as an oracle.

    Same L-BFGS and line search as minimize_lbfgs, but it stops only when
    ||g||_inf < tol, an absolute bound. Returns (theta, value, iterations,
    converged).
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    value, grad = fun_grad(x)
    s_list, y_list = [], []
    for iterations in range(1, max_iter + 1):
        if float(np.abs(grad).max()) < tol:
            return x, value, iterations - 1, True
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
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)
            s_list.clear()
            y_list.clear()
        step = 1.0
        for _ in range(60):
            new_value, new_grad = fun_grad(x + step * direction)
            if new_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            return x, value, iterations, False
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
    return x, value, max_iter, float(np.abs(grad).max()) < tol


def counted(fun_grad):
    """fun_grad plus a list whose one element counts the evaluations."""
    calls = [0]

    def wrapped(theta):
        calls[0] += 1
        return fun_grad(theta)

    return wrapped, calls


def stalled_problem():
    """n < p, C = 100, min-max-like features: the absolute-tolerance solver
    runs to its iteration cap here with the objective flat for most of it."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (30, 60))
    y_pm = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    return lambda t: logreg_objective(t, x, y_pm, 100.0), x.shape[1] + 1


def rel_err(a, b):
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


class TestObjective:
    def test_value_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x, y = random_problem(rng)
            y_pm = np.where(y == 2, 1.0, -1.0)
            theta = rng.standard_normal(x.shape[1] + 1)
            c = float(rng.uniform(0.1, 5.0))
            value, _ = logreg_objective(theta, x, y_pm, c)
            w, b = theta[:-1], theta[-1]
            naive = 0.5 * sum(wi * wi for wi in w)
            for xi, yi in zip(x, y_pm):
                naive += c * math.log(1.0 + math.exp(-yi * (float(xi @ w) + b)))
            assert value == pytest.approx(naive, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        step = 1e-6
        for _ in range(10):
            x, y = random_problem(rng)
            y_pm = np.where(y == 2, 1.0, -1.0)
            theta = rng.standard_normal(x.shape[1] + 1)
            c = float(rng.uniform(0.1, 5.0))
            _, grad = logreg_objective(theta, x, y_pm, c)
            numeric = np.zeros_like(theta)
            for j in range(theta.shape[0]):
                probe = theta.copy()
                probe[j] = theta[j] + step
                plus, _ = logreg_objective(probe, x, y_pm, c)
                probe[j] = theta[j] - step
                minus, _ = logreg_objective(probe, x, y_pm, c)
                numeric[j] = (plus - minus) / (2 * step)
            assert rel_err(grad, numeric) < 1e-6


class TestSolver:
    def test_objective_non_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x, y = random_problem(rng)
            y_pm = np.where(y == 2, 1.0, -1.0)
            result = minimize_lbfgs(
                lambda t: logreg_objective(t, x, y_pm, 1.0),
                np.zeros(x.shape[1] + 1))
            assert result.converged
            diffs = np.diff(result.history)
            assert np.all(diffs <= 0.0)

    def test_matches_slow_gradient_descent(self):
        rng = np.random.default_rng(3)
        x, y = random_problem(rng)
        y_pm = np.where(y == 2, 1.0, -1.0)
        fun = lambda t: logreg_objective(t, x, y_pm, 1.0)
        result = minimize_lbfgs(fun, np.zeros(x.shape[1] + 1))
        # plain fixed-step gradient descent as an independent minimizer
        theta = np.zeros(x.shape[1] + 1)
        for _ in range(20000):
            _, grad = fun(theta)
            theta -= 0.05 * grad
        slow_value, _ = fun(theta)
        assert result.value <= slow_value + 1e-9
        assert abs(result.value - slow_value) <= 1e-6 * max(1.0, slow_value)

    def test_quadratic_bowl_exact(self):
        target = np.array([3.0, -2.0, 0.5])

        def bowl(t):
            diff = t - target
            return 0.5 * float(diff @ diff), diff

        result = minimize_lbfgs(bowl, np.zeros(3))
        np.testing.assert_allclose(result.theta, target, atol=1e-7)
        assert result.stop == "gradient" and result.converged
        # the bound is relative to ||g0||_inf = 3
        assert result.grad_inf <= 1e-9 * 3.0
        assert result.grad_inf == float(np.abs(result.theta - target).max())


def min_max_problem(seed, n, d):
    """Features in [0, 1], as min-max scaling leaves them, and +-1 labels."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    y_pm = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y_pm[:2] = -1.0, 1.0
    return x, y_pm


class TestNewton:
    @pytest.mark.parametrize("n, d, c", [(12, 30, 0.01), (12, 30, 1.0),
                                         (12, 30, 100.0), (30, 30, 5.0),
                                         (20, 50, 100.0), (40, 6, 1.0)])
    def test_step_is_the_dense_hessian_solve(self, n, d, c):
        x, y_pm = min_max_problem(n + d, n, d)
        theta = 2.0 * np.random.default_rng(d).standard_normal(d + 1)
        # from theta = 0 Newton visits only points whose w = X^T a lies in X's
        # row space; this moves w there when n < d and keeps it when n >= d
        theta[:-1] = x.T @ np.linalg.lstsq(x.T, theta[:-1], rcond=None)[0]
        margins = y_pm * (x @ theta[:-1] + theta[-1])
        _, grad = logreg_objective(theta, x, y_pm, c)
        # the full (d+1) x (d+1) Hessian, written out
        curvature = 1.0 / ((1.0 + np.exp(-margins)) * (1.0 + np.exp(margins)))
        xb = np.hstack([x, np.ones((n, 1))])
        hessian = c * xb.T @ np.diag(curvature) @ xb + np.diag([1.0] * d + [0.0])
        want = np.linalg.solve(hessian, -grad)
        basis, triangle = np.linalg.qr(x.T)
        design = np.column_stack([triangle.T, np.ones(n)])
        step = _newton_step(basis, design, margins, grad, c)
        assert np.linalg.norm(step - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("n, d", [(12, 30), (40, 6)])
    def test_each_step_solves_a_system_of_size_min_n_d_plus_one(
            self, n, d, monkeypatch):
        solve, shapes = np.linalg.solve, []

        def spy(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        x, y_pm = min_max_problem(n * d, n, d)
        (result,) = minimize_newton(x, y_pm, [1.0])
        assert result.converged and result.iterations > 0
        assert shapes == [(min(n, d) + 1, min(n, d) + 1)] * result.iterations

    # min-max scaling turns a constant feature into a zero column, and the
    # swap-augmented rows can repeat: every row twice, at 2n < d and 2n > d
    @pytest.mark.parametrize("n, d", [(10, 30), (60, 6)])
    @pytest.mark.parametrize("c", [0.05, 100.0])
    def test_rank_deficient_problem_reaches_the_lbfgs_minimizer(self, n, d, c):
        x, y_pm = min_max_problem(n + 2 * d, n, d)
        x[:, d // 2] = 0.0
        x, y_pm = np.vstack([x, x]), np.concatenate([y_pm, y_pm])
        (newton,) = minimize_newton(x, y_pm, [c])
        lbfgs = minimize_lbfgs(lambda t: logreg_objective(t, x, y_pm, c),
                               np.zeros(d + 1))
        assert newton.converged and newton.stop == "gradient"
        assert rel_err(newton.theta, lbfgs.theta) < 1e-6

    @pytest.mark.parametrize("n, d", [(15, 40), (60, 5), (200, 10)])
    @pytest.mark.parametrize("c", [0.05, 1.0, 100.0])
    def test_reaches_the_lbfgs_minimizer(self, n, d, c):
        x, y_pm = min_max_problem(n * d, n, d)
        (newton,) = minimize_newton(x, y_pm, [c])
        lbfgs = minimize_lbfgs(lambda t: logreg_objective(t, x, y_pm, c),
                               np.zeros(d + 1))
        assert newton.converged and newton.stop == "gradient"
        assert lbfgs.converged
        # L-BFGS's flat stop leaves it ~1e-6 (relative) short of the minimizer
        assert rel_err(newton.theta, lbfgs.theta) < 1e-5
        assert newton.value <= lbfgs.value + 1e-12 * abs(lbfgs.value)
        assert newton.iterations < lbfgs.iterations

    def test_separable_wide_problem_converges_by_the_gradient(self):
        # n < d: the two classes are separable, so the unregularized loss
        # would have no minimizer and margins grow with C
        x, y_pm = min_max_problem(17, 20, 60)
        (result,) = minimize_newton(x, y_pm, [100.0])
        margins = y_pm * (x @ result.theta[:-1] + result.theta[-1])
        assert margins.min() > 0.0
        assert result.converged and result.stop == "gradient"
        _, grad0 = logreg_objective(np.zeros(61), x, y_pm, 100.0)
        assert result.grad_inf <= GRAD_TOL * float(np.abs(grad0).max())
        assert result.grad_inf == float(np.abs(
            logreg_objective(result.theta, x, y_pm, 100.0)[1]).max())
        assert np.all(np.diff(result.history) <= 0.0)
        assert len(result.history) == result.iterations + 1


    def test_ascent_direction_ends_the_solve_unconverged(self, monkeypatch):
        x, y_pm = min_max_problem(18, 30, 4)
        monkeypatch.setattr(linear_module, "_newton_step",
                            lambda basis, design, margins, grad, c: grad)
        (result,) = minimize_newton(x, y_pm, [1.0])
        assert (result.stop, result.converged, result.iterations) == (
            "line_search", False, 1)
        assert not result.theta.any()


class TestStoppingRule:
    def test_stalled_problem_stops_flat_near_the_oracle(self):
        fun, size = stalled_problem()
        oracle_fun, oracle_calls = counted(fun)
        theta_ref, _, oracle_iters, oracle_converged = absolute_tol_lbfgs(
            oracle_fun, np.zeros(size))
        assert oracle_iters == MAX_ITER and not oracle_converged

        new_fun, new_calls = counted(fun)
        result = minimize_lbfgs(new_fun, np.zeros(size))
        assert result.converged
        assert result.stop in ("gradient", "flat")
        assert result.iterations < MAX_ITER // 4
        w_ref = theta_ref[:-1]
        bound = 1e-6 * max(1.0, float(np.linalg.norm(w_ref)))
        assert np.linalg.norm(result.theta[:-1] - w_ref) <= bound
        assert abs(result.theta[-1] - theta_ref[-1]) <= bound
        assert new_calls[0] < 0.05 * oracle_calls[0]

    def test_iteration_cap_is_unconverged(self, monkeypatch):
        fun, size = stalled_problem()
        monkeypatch.setattr(linear_module, "MAX_ITER", 3)
        result = minimize_lbfgs(fun, np.zeros(size))
        assert result.iterations == 3
        assert result.stop == "max_iter" and not result.converged
        assert result.grad_inf == float(np.abs(fun(result.theta)[1]).max())

    def test_failed_line_search_is_unconverged(self):
        # f = sum(t) with the gradient's sign flipped: no step along -g descends
        result = minimize_lbfgs(lambda t: (float(t.sum()), -np.ones_like(t)),
                                np.zeros(2))
        assert result.stop == "line_search" and not result.converged
        assert result.iterations == 1
        np.testing.assert_array_equal(result.theta, np.zeros(2))

    def test_step_that_rounds_to_x_is_a_failed_line_search(self):
        # f = 1/2 |t|^2 with the gradient's sign flipped: halving accepts a
        # step so short that x + step * d == x, which must not count as flat
        result = minimize_lbfgs(lambda t: (0.5 * float(t @ t), -t.copy()),
                                np.ones(2))
        assert result.stop == "line_search" and not result.converged
        assert result.iterations == 1
        np.testing.assert_array_equal(result.theta, np.ones(2))

    @pytest.mark.parametrize("seed,n,d,c", [(20, 30, 60, 100.0),
                                            (21, 80, 10, 1.0),
                                            (22, 40, 40, 10.0),
                                            (23, 50, 5, 0.05)])
    def test_objective_agrees_with_scipy_lbfgsb(self, seed, n, d, c):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (n, d))
        y_pm = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        fun = lambda t: logreg_objective(t, x, y_pm, c)
        ours = minimize_lbfgs(fun, np.zeros(d + 1))
        theirs = optimize.minimize(fun, np.zeros(d + 1), jac=True,
                                   method="L-BFGS-B",
                                   options={"maxiter": 20000, "ftol": 1e-15,
                                            "gtol": 1e-12, "maxcor": 10})
        assert ours.converged
        assert abs(ours.value - theirs.fun) <= 1e-10 * max(1.0, abs(theirs.fun))


SOLVERS = {
    "lbfgs": lambda x, y_pm, c: minimize_lbfgs(
        lambda t: logreg_objective(t, x, y_pm, c), np.zeros(x.shape[1] + 1)),
    "newton": lambda x, y_pm, c: minimize_newton(x, y_pm, [c])[0],
}


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=list(SOLVERS))
class TestStopRulesOfBothSolvers:
    """The stop rules both solvers share, on a problem each ends by the
    gradient test: L-BFGS in 15 steps, Newton in 3."""

    @staticmethod
    def problem():
        return (*min_max_problem(3, 30, 5), 1.0)

    def test_cap_ends_the_solve_unconverged(self, solve, monkeypatch):
        x, y_pm, c = self.problem()
        steps = solve(x, y_pm, c).iterations
        monkeypatch.setattr(linear_module, "MAX_ITER", steps - 1)
        result = solve(x, y_pm, c)
        assert (result.stop, result.converged, result.iterations) == (
            "max_iter", False, steps - 1)
        assert len(result.history) == steps
        assert result.grad_inf == float(np.abs(
            logreg_objective(result.theta, x, y_pm, c)[1]).max())

    def test_gradient_test_holds_on_the_last_allowed_step(self, solve,
                                                          monkeypatch):
        x, y_pm, c = self.problem()
        uncapped = solve(x, y_pm, c)
        assert uncapped.stop == "gradient"
        monkeypatch.setattr(linear_module, "MAX_ITER", uncapped.iterations)
        result = solve(x, y_pm, c)
        assert (result.stop, result.converged, result.iterations) == (
            "gradient", True, uncapped.iterations)
        assert result.theta.tobytes() == uncapped.theta.tobytes()

    def test_failed_line_search_counts_the_failed_step(self, solve,
                                                       monkeypatch):
        line_search, calls = linear_module._line_search, []

        def fail_third(*args):
            calls.append(args)
            return None if len(calls) == 3 else line_search(*args)

        monkeypatch.setattr(linear_module, "_line_search", fail_third)
        x, y_pm, c = self.problem()
        result = solve(x, y_pm, c)
        assert (result.stop, result.converged, result.iterations) == (
            "line_search", False, 3)
        assert len(result.history) == 3     # the start and two accepted steps
        assert result.theta.tobytes() == calls[2][1].tobytes()


def per_iteration_lbfgs(fun_grad, x0):
    """`minimize_lbfgs` as it was before it cached each pair's products: it
    takes every stored pair's y.s and gamma's two dot products again on
    every iteration. Kept as the oracle the cached solver must equal."""
    x = np.asarray(x0, dtype=np.float64).copy()
    value, grad = fun_grad(x)
    history = [value]
    grad_bound = GRAD_TOL * max(1.0, float(np.abs(grad).max()))
    s_list, y_list = [], []
    flat = 0

    def result(iterations, stop):
        return SolveResult(x, value, tuple(history), iterations,
                           stop in ("gradient", "flat"),
                           float(np.abs(grad).max()), stop)

    for iterations in range(1, MAX_ITER + 1):
        if float(np.abs(grad).max()) <= grad_bound:
            return result(iterations - 1, "gradient")
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
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)
            s_list.clear()
            y_list.clear()
        step = 1.0
        for _ in range(60):
            candidate = x + step * direction
            new_value, new_grad = fun_grad(candidate)
            if new_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            return result(iterations, "line_search")
        if np.array_equal(candidate, x):
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


def assert_same_solve(got, want):
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.history == want.history
    assert (got.value, got.iterations, got.stop, got.converged, got.grad_inf) \
        == (want.value, want.iterations, want.stop, want.converged, want.grad_inf)


class TestCachedCurvatureOracle:
    @pytest.mark.parametrize("seed,n,d,c", [(30, 64, 962, 100.0),
                                            (31, 64, 962, 0.01),
                                            (32, 80, 10, 1.0),
                                            (33, 40, 40, 10.0),
                                            (34, 50, 5, 0.05),
                                            (35, 30, 60, 5.0)])
    def test_solve_equals_the_per_iteration_products(self, seed, n, d, c):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (n, d))
        y_pm = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        fun = lambda t: logreg_objective(t, x, y_pm, c)
        want = per_iteration_lbfgs(fun, np.zeros(d + 1))
        assert_same_solve(minimize_lbfgs(fun, np.zeros(d + 1)), want)

    def test_memory_overflows_and_matches(self):
        fun, size = stalled_problem()
        want = per_iteration_lbfgs(fun, np.zeros(size))
        assert want.iterations > 3 * LBFGS_MEMORY
        assert_same_solve(minimize_lbfgs(fun, np.zeros(size)), want)

    @pytest.mark.parametrize("fun, x0", [
        (lambda t: (float(t.sum()), -np.ones_like(t)), np.zeros(2)),
        (lambda t: (0.5 * float(t @ t), -t.copy()), np.ones(2)),
        # Rosenbrock: curvature pairs skipped
        (lambda t: (float(100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2),
                    np.array([-400.0 * t[0] * (t[1] - t[0] ** 2)
                              - 2.0 * (1.0 - t[0]),
                              200.0 * (t[1] - t[0] ** 2)])),
         np.array([-1.2, 1.0])),
    ])
    def test_other_stops_match(self, fun, x0):
        assert_same_solve(minimize_lbfgs(fun, x0), per_iteration_lbfgs(fun, x0))


class TestTrainLogreg:
    def test_separable_fixture_perfect_accuracy(self):
        x = np.array([[0.0, 1.0], [0.2, 1.1], [-0.3, 0.9], [0.1, 1.3],
                      [0.0, -1.0], [0.2, -1.1], [-0.3, -0.9], [0.1, -1.3]])
        y = [2, 2, 2, 2, 1, 1, 1, 1]
        model = train_logreg(x, y, c=100.0)
        predictions = [predict(model, row)[0] for row in x]
        assert predictions == y

    def test_duplicated_data_with_half_c_is_invariant(self):
        rng = np.random.default_rng(4)
        x, y = random_problem(rng, n=30)
        base = train_logreg(x, y, c=2.0)
        doubled = train_logreg(np.vstack([x, x]), np.concatenate([y, y]), c=1.0)
        assert np.abs(base.weights - doubled.weights).max() < 1e-5
        assert abs(base.intercept - doubled.intercept) < 1e-5

    def test_tiny_c_shrinks_weights_to_intercept_rule(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 4))
        y = np.array([1] * 10 + [2] * 30)
        model = train_logreg(x, y, c=1e-12)
        assert np.abs(model.weights).max() < 1e-6
        # intercept alone must point at the majority class (label 2)
        assert predict(model, np.zeros(4))[0] == 2

    def test_row_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "feature matrix (3, 2) does not match 2 labels")):
            train_logreg(np.zeros((3, 2)), [1, 2], c=1.0)

    def test_weights_must_match_names(self):
        with pytest.raises(ValueError, match="^2 weights for 3 feature names$"):
            LinearModel(weights=np.zeros(2), intercept=0.0, c=1.0,
                        names=("a", "b", "c"))

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="single class"):
            train_logreg(x, [1, 1, 1, 1], c=1.0)

    def test_non_finite_rejected(self):
        x = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            train_logreg(x, [1, 2], c=1.0)

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            train_logreg(np.zeros((2, 1)), [0, 1], c=1.0)

    def test_non_positive_c_rejected(self):
        with pytest.raises(ValueError, match="C"):
            train_logreg(np.zeros((2, 1)), [1, 2], c=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_c_rejected(self, bad):
        with pytest.raises(ValueError, match=f"C must be a finite positive "
                                             f"number, got {bad}$"):
            train_logreg(np.zeros((2, 1)), [1, 2], c=bad)

    def test_model_records_the_solve(self):
        rng = np.random.default_rng(12)
        x, y = random_problem(rng, n=30, d=5)
        model = train_logreg(x, y, c=1.0)
        y_pm = np.where(y == 2, 1.0, -1.0)
        result = minimize_lbfgs(lambda t: logreg_objective(t, x, y_pm, 1.0),
                                np.zeros(6))
        assert model.converged is True
        assert model.iterations == result.iterations > 0
        assert model.grad_inf == result.grad_inf


class TestPredict:
    def make_model(self, weights, intercept):
        return train_logreg(
            np.array([[1.0], [-1.0]]), [2, 1], c=1.0
        ).__class__(weights=np.asarray(weights, dtype=np.float64),
                    intercept=intercept, c=1.0,
                    names=tuple(f"x{i}" for i in range(len(weights))))

    def test_zero_model_predicts_label_2_at_half(self):
        model = self.make_model([0.0, 0.0], 0.0)
        label, p = predict(model, np.zeros(2))
        assert p == 0.5
        assert label == 2                # the >= 0.5 tie rule

    def test_hand_computed_sigmoid(self):
        model = self.make_model([0.5, -2.0], 0.25)
        x = np.array([1.0, 0.75])
        _, p = predict(model, x)
        z = 0.5 * 1.0 - 2.0 * 0.75 + 0.25
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-z)), abs=1e-12)

    def test_saturation(self):
        model = self.make_model([1000.0], 0.0)
        assert predict(model, np.array([1.0]))[1] == pytest.approx(1.0)
        assert predict(model, np.array([-1.0]))[1] == pytest.approx(0.0)

    def test_length_mismatch_rejected(self):
        model = self.make_model([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="features"):
            predict(model, np.zeros(3))

    def test_feature_vector_layout_checked(self):
        model = self.make_model([1.0], 0.0)
        vector = FeatureVector(names=("other",), values=np.zeros(1))
        with pytest.raises(ValueError, match="layout"):
            predict(model, vector)

    def scaled_model(self):
        """A model trained on min-max scaled rows, carrying its scaler."""
        x, y = random_problem(np.random.default_rng(14), n=30, d=3)
        x = 3.0 * x + 1.0
        names = tuple(f"x{i}" for i in range(3))
        scaler = Scaler(names, x.min(axis=0), x.max(axis=0))
        return train_logreg(min_max_scale(scaler, x), y, c=10.0, names=names,
                            scaler=scaler)

    def test_ndarray_is_a_raw_row_of_a_scaled_model(self):
        model = self.scaled_model()
        raw = 3.0 * np.random.default_rng(15).standard_normal((40, 3)) + 1.0
        unscaled = replace(model, scaler=None)
        for row in raw:
            assert (predict(model, row)
                    == predict(model, FeatureVector(model.names, row))
                    == predict(unscaled, min_max_scale(model.scaler, row)))
        assert predict(model, raw[0]) != predict(unscaled, raw[0])

    def test_feature_vector_probability_is_the_scaled_dot_product(self):
        # bit for bit the value of scoring `apply_scaler`'s vector
        model = self.scaled_model()
        raw = 3.0 * np.random.default_rng(17).standard_normal((40, 3)) + 1.0
        for row in raw:
            scaled = apply_scaler(model.scaler, FeatureVector(model.names, row))
            z = model.weights @ scaled.values + model.intercept
            assert (predict(model, FeatureVector(model.names, row))[1]
                    == float(1.0 / (1.0 + np.exp(-z))))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_ndarray_row_is_its_predict_rows_label(self, scaled):
        model = self.scaled_model()
        if not scaled:
            model = replace(model, scaler=None)
        x = 3.0 * np.random.default_rng(15).standard_normal((40, 3)) + 1.0
        for i in range(len(x)):
            assert predict(model, x[i])[0] == predict_rows(model, x[i:i + 1])[0]
        assert len({predict(model, row)[0] for row in x}) == 2

    @pytest.mark.parametrize("scaled", [False, True])
    def test_predict_rows_is_per_row_predict(self, scaled):
        model = self.scaled_model()
        if not scaled:
            model = replace(model, scaler=None)
        x = 3.0 * np.random.default_rng(16).standard_normal((60, 3)) + 1.0
        want = [predict(model, FeatureVector(model.names, row))[0]
                for row in x]
        assert predict_rows(model, x).tolist() == want
        assert len(set(want)) == 2

    # Oracles: the two scores that `linear._probabilities` replaced, kept as
    # they were: `predict`'s of one row and `predict_rows`' of a matrix.
    @staticmethod
    def oracle_row_p(model, v):
        if model.scaler is not None:
            v = min_max_scale(model.scaler, v)
        return float(linear_module.sigmoid(model.weights @ v + model.intercept))

    @staticmethod
    def oracle_rows_p(model, x):
        if model.scaler is not None:
            x = min_max_scale(model.scaler, x)
        return linear_module.sigmoid(x @ model.weights + model.intercept)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_probabilities_are_the_replaced_scores(self, scaled):
        model = self.scaled_model()
        if not scaled:
            model = replace(model, scaler=None)
        x = 3.0 * np.random.default_rng(18).standard_normal((50, 3)) + 1.0
        for row in x:
            p = predict(model, row)[1]
            assert np.float64(p).tobytes() == np.float64(
                self.oracle_row_p(model, row)).tobytes()
        want = self.oracle_rows_p(model, x)
        assert linear_module._probabilities(model, x, 2).tobytes() == (
            want.tobytes())
        assert predict_rows(model, x).tolist() == (
            np.where(want >= 0.5, 2, 1).tolist())

    @pytest.mark.parametrize("scaled", [False, True])
    def test_nan_row_refused_by_predict(self, scaled):
        model = self.scaled_model()
        if not scaled:
            model = replace(model, scaler=None)
        with pytest.raises(ValueError, match="row 0: .*NaN"):
            predict(model, np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="row 0: .*NaN"):
            predict(model, FeatureVector(model.names,
                                         np.array([0.0, 0.0, np.nan])))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_nan_row_refused_by_predict_rows(self, scaled):
        model = self.scaled_model()
        if not scaled:
            model = replace(model, scaler=None)
        x = np.zeros((3, 3))
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match="row 1: .*NaN"):
            predict_rows(model, x)

    def test_nan_in_a_constant_column_refused(self):
        # the scaler maps a constant column to 0, NaN or not
        model = self.scaled_model()
        constant = Scaler(model.names, model.scaler.mins,
                          np.where([True, False, True], model.scaler.maxs,
                                   model.scaler.mins))
        model = replace(model, scaler=constant)
        assert predict(model, np.array([0.0, 5.0, 0.0]))[1] == (
            predict(model, np.array([0.0, 7.0, 0.0]))[1])
        with pytest.raises(ValueError, match="row 0: .*NaN"):
            predict(model, np.array([0.0, np.nan, 0.0]))

    def test_nan_probability_refused_without_a_scaler(self):
        # inf times a zero weight, or inf - inf, is a NaN score
        model = self.make_model([0.0, 1.0, 1.0], 0.0)
        for row in ([np.inf, 1.0, 1.0], [0.0, np.inf, -np.inf]):
            with np.errstate(invalid="ignore"), pytest.raises(
                    ValueError, match="row 0: .*NaN"):
                predict(model, np.array(row))
            with np.errstate(invalid="ignore"), pytest.raises(
                    ValueError, match="row 1: .*NaN"):
                predict_rows(model, np.array([[0.0, 0.0, 0.0], row]))

    def test_infinite_values_clamp_under_a_scaler(self):
        model = self.scaled_model()
        raw = np.array([[np.inf, -np.inf, 0.0], [-np.inf, 1.0, np.inf]])
        clamped = min_max_scale(model.scaler, raw)
        assert set(clamped[:, 0]) == {0.0, 1.0}
        unscaled = replace(model, scaler=None)
        for row, scaled in zip(raw, clamped):
            assert predict(model, row) == predict(unscaled, scaled)
        assert predict_rows(model, raw).tolist() == (
            predict_rows(unscaled, clamped).tolist())

    @pytest.mark.parametrize("scaled", [False, True])
    def test_wrong_width_matrix_refused_as_predict_refuses(self, scaled):
        model = self.scaled_model()
        if not scaled:
            model = replace(model, scaler=None)
        with pytest.raises(ValueError,
                           match=re.escape("expected 3 features, got (4,)")):
            predict(model, np.zeros(4))
        with pytest.raises(ValueError,
                           match=re.escape("expected 3 features, got (2, 4)")):
            predict_rows(model, np.zeros((2, 4)))
        with pytest.raises(ValueError,
                           match=re.escape("expected 3 features, got (1, 3)")):
            predict(model, np.zeros((1, 3)))


class TestCvTuneC:
    def test_single_value_grid(self):
        rng = np.random.default_rng(6)
        x, y = random_problem(rng)
        report = cv_tune_c(x, y, folds=4, grid=[0.7], seed=0)
        assert report.best_c == 0.7
        assert len(report.grid) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x, y = random_problem(rng, n=24)
        a = cv_tune_c(x, y, folds=5, grid=[0.1, 1.0], seed=3)
        b = cv_tune_c(x, y, folds=5, grid=[0.1, 1.0], seed=3)
        assert a == b

    def test_leave_one_out_matches_manual_enumeration(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 3))
        y = np.array([1, 2, 1, 2, 1, 2])
        seed, c = 5, 1.0
        report = cv_tune_c(x, y, folds=6, grid=[c], seed=seed)

        order = list(range(6))
        random.Random(seed).shuffle(order)
        manual = []
        for fold in range(6):
            held = order[fold]
            train_idx = [i for i in order if i != held]
            model = train_logreg(x[train_idx], y[train_idx], c)
            manual.append(float(predict(model, x[held])[0] == y[held]))
        assert report.grid[0][2] == tuple(manual)
        assert report.grid[0][1] == pytest.approx(np.mean(manual))

    def test_tie_breaks_to_smallest_c(self):
        # trivially separable: every C reaches the same fold accuracies
        x = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
        y = [1, 1, 1, 2, 2, 2]
        report = cv_tune_c(x, y, folds=3, grid=[5.0, 0.5, 50.0], seed=1)
        accs = [row[1] for row in report.grid]
        assert accs.count(max(accs)) > 1
        assert report.best_c == 0.5

    def test_fold_scores_match_per_row_predict(self):
        rng = np.random.default_rng(13)
        x, y = random_problem(rng, n=53, d=6)
        grid, folds, seed = [0.05, 1.0, 20.0], 5, 4
        report = cv_tune_c(x, y, folds=folds, grid=grid, seed=seed)

        order = list(range(53))
        random.Random(seed).shuffle(order)
        bounds = [round(i * 53 / folds) for i in range(folds + 1)]
        for c, row in zip(grid, report.grid):
            manual = []
            for i in range(folds):
                held = order[bounds[i]:bounds[i + 1]]
                train_idx = [j for j in order if j not in held]
                model = train_logreg(x[train_idx], y[train_idx], c)
                correct = sum(predict(model, x[j])[0] == y[j] for j in held)
                manual.append(correct / len(held))
            assert row[2] == tuple(manual)

    @pytest.mark.parametrize("c", [0.05, 100.0])
    def test_fold_scores_match_newton_fold_fits(self, c):
        # n <= d: each fold trains on 20 rows of 40 features
        x, y = random_problem(np.random.default_rng(21), n=25, d=40)
        folds, seed = 5, 6
        report = cv_tune_c(x, y, folds=folds, grid=[c], seed=seed)

        order = list(range(25))
        random.Random(seed).shuffle(order)
        manual, solves = [], []
        for i in range(folds):
            held = order[5 * i:5 * i + 5]
            train_idx = [j for j in order if j not in held]
            (fit,) = minimize_newton(x[train_idx],
                                     np.where(y[train_idx] == 2, 1.0, -1.0),
                                     [c])
            model = LinearModel(weights=fit.theta[:-1],
                                intercept=float(fit.theta[-1]), c=c,
                                names=tuple(f"x{k}" for k in range(40)))
            manual.append(sum(predict(model, x[j])[0] == y[j] for j in held) / 5)
            solves.append((fit.iterations, fit.converged))
        assert report.grid[0][2] == tuple(manual)
        assert report.solves[0] == tuple(solves)
        assert all(converged for _, converged in solves)

    def test_one_qr_per_fold_for_the_whole_grid(self, monkeypatch):
        qr, shapes = np.linalg.qr, []

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        x, y = random_problem(np.random.default_rng(22), n=30, d=8)
        report = cv_tune_c(x, y, folds=5, grid=[0.1, 1.0, 10.0], seed=0)
        assert shapes == [(8, 24)] * 5
        assert [len(per_fold) for per_fold in report.solves] == [5, 5, 5]

    def test_report_records_each_fold_solve(self):
        rng = np.random.default_rng(14)
        x, y = random_problem(rng, n=30, d=4)
        report = cv_tune_c(x, y, folds=3, grid=[0.1, 10.0], seed=2)
        assert len(report.solves) == 2
        for per_fold in report.solves:
            assert len(per_fold) == 3
            for iterations, converged in per_fold:
                assert 0 < iterations < MAX_ITER
                assert converged is True

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            cv_tune_c(np.zeros((4, 1)), [1, 2, 1, 2], folds=2, grid=[], seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_c_rejected_before_any_solve(self, bad, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a fold was solved")
        monkeypatch.setattr(linear_module, "minimize_lbfgs", no_solve)
        monkeypatch.setattr(linear_module, "minimize_newton", no_solve)
        x, y = random_problem(np.random.default_rng(16), n=12)
        with pytest.raises(ValueError, match=f"C must be a finite positive "
                                             f"number, got {bad}$"):
            cv_tune_c(x, y, folds=2, grid=[1.0, bad], seed=0)

    @pytest.mark.parametrize("shape, labels", [((10, 3), 8), ((10, 3), 12),
                                               ((10,), 10)])
    def test_mismatched_labels_rejected_before_any_solve(self, shape, labels,
                                                         monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a fold was solved")
        monkeypatch.setattr(linear_module, "minimize_newton", no_solve)
        x = np.random.default_rng(23).uniform(size=shape)
        message = re.escape(f"feature matrix {shape} does not match "
                            f"{labels} labels")
        with pytest.raises(ValueError, match=f"^{message}$"):
            cv_tune_c(x, [1, 2] * (labels // 2), folds=2, grid=[1.0], seed=0)

    # the empty set is refused first, then too few folds, then too few rows
    @pytest.mark.parametrize("n, folds, message", [
        (4, 1, "need at least 2 folds, got 1"),
        (3, 4, "3 examples cannot fill 4 folds"),
        (0, 1, "cannot fit a linear model on an empty training set"),
        (0, 5, "cannot fit a linear model on an empty training set"),
        (1, 1, "need at least 2 folds, got 1"),
    ])
    def test_bad_fold_count_rejected(self, n, folds, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_folds(folds, n)
        if n >= 2:
            with pytest.raises(ValueError, match=f"^{message}$"):
                cv_tune_c(np.zeros((n, 1)), [1, 2, 1, 2][:n], folds=folds,
                          grid=[1.0], seed=0)

    def test_default_grid_shape(self):
        assert DEFAULT_C_GRID == (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0)


def solve_bits(result):
    """What a fit's bits are compared by: a model's solve, or a CV report."""
    if isinstance(result, LinearModel):
        return (result.weights.tobytes(), result.intercept, result.c,
                result.iterations, result.converged, result.grad_inf)
    return result


class TestMemoryLayout:
    """BLAS sums in an order that follows the matrix's layout, so every fit
    takes its matrix C-ordered: a Fortran-ordered copy fits the same bits."""

    @pytest.mark.parametrize("fit", ["train_logreg", "cv_tune_c",
                                     "fit_linear"])
    def test_fortran_order_fits_like_c_order(self, fit):
        names = feature_names(FeatureConfig.SIMS_ONLY, 0)
        rng = np.random.default_rng(31)
        x, y = random_problem(rng, n=80, d=len(names))
        x = np.ascontiguousarray(3.0 * x + 1.0)
        run = {
            "train_logreg": lambda m: train_logreg(m, y, c=5.0),
            "cv_tune_c": lambda m: cv_tune_c(m, y, folds=5,
                                             grid=DEFAULT_C_GRID, seed=2),
            "fit_linear": lambda m: fit_linear(m, names, y,
                                               FeatureConfig.SIMS_ONLY,
                                               seed=2)[0],
        }[fit]
        assert solve_bits(run(np.asfortranarray(x))) == solve_bits(run(x))


class TestModelPersistence:
    def fitted_model(self):
        rng = np.random.default_rng(9)
        x, y = random_problem(rng, n=16, d=2)
        names = feature_names(FeatureConfig.ENDINGS_ONLY, 1)
        scaler = fit_scaler([FeatureVector(names=names, values=row)
                             for row in x])
        return train_logreg(x, y, c=0.5, names=names,
                            config=FeatureConfig.ENDINGS_ONLY, scaler=scaler)

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = self.fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.config is model.config
        assert loaded.c == model.c
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.intercept == model.intercept
        np.testing.assert_array_equal(loaded.scaler.mins, model.scaler.mins)
        assert loaded.iterations == model.iterations
        assert loaded.converged is model.converged is True
        assert loaded.grad_inf == model.grad_inf
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = FeatureVector(names=model.names, values=rng.standard_normal(2))
            assert predict(loaded, v) == predict(model, v)

    def test_file_names_version_and_diagnostics(self, tmp_path):
        model = self.fitted_model()
        path = tmp_path / "model.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        assert lines[0] == "clozebase linear model v2"
        assert f"iterations\t{model.iterations}" in lines
        assert "converged\ttrue" in lines

    def test_hand_written_v1_file_loads(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v1\n"
                        "config\tendings-only\n"
                        "c\t0.5\n"
                        "intercept\t-0.25\n"
                        "e1_centroid_0\t1.5\t0.0\t2.0\n"
                        "e2_centroid_0\t-2.0\t-1.0\t1.0\n")
        model = load_model(path)
        assert model.config is FeatureConfig.ENDINGS_ONLY
        assert model.c == 0.5 and model.intercept == -0.25
        assert model.names == ("e1_centroid_0", "e2_centroid_0")
        np.testing.assert_array_equal(model.weights, [1.5, -2.0])
        np.testing.assert_array_equal(model.scaler.mins, [0.0, -1.0])
        np.testing.assert_array_equal(model.scaler.maxs, [2.0, 1.0])
        assert model.iterations is None
        assert model.converged is None
        assert model.grad_inf is None

    @pytest.mark.parametrize("rows", [
        ["f0", "f1"],
        ["e2_centroid_0", "e1_centroid_0"],
        feature_names(FeatureConfig.SIMS_ONLY, 1),
    ])
    def test_weight_names_must_be_the_config_layout(self, tmp_path, rows):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tendings-only\n"
                        "c\t0.5\nintercept\t0.0\n"
                        + "".join(f"{name}\t1.0\t0.0\t1.0\n" for name in rows))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: weight "
                           "names are not the layout of config endings-only"):
            load_model(path)

    def test_bad_diagnostic_names_line(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tsims-only\n"
                        "c\t0.5\nintercept\t0.0\nconverged\tyes\n")
        with pytest.raises(ParseError, match="line 5"):
            load_model(path)

    @pytest.mark.parametrize("line, record, what, value", [
        (3, "c\tinf", "c", "inf"),
        (4, "intercept\tinf", "intercept", "inf"),
        (4, "intercept\tnan", "intercept", "nan"),
        (5, "e1_centroid_0\tnan\t0.0\t2.0", "weight", "nan"),
        (5, "e1_centroid_0\t1.0\t-inf\t2.0", "min", "-inf"),
        (5, "e1_centroid_0\t1.0\t0.0\tinf", "max", "inf"),
    ])
    def test_non_finite_number_names_the_line(self, tmp_path, line, record,
                                              what, value):
        lines = ["clozebase linear model v2", "config\tendings-only", "c\t0.5",
                 "intercept\t0.0", "e1_centroid_0\t1.0\t0.0\t2.0",
                 "e2_centroid_0\t1.0\t0.0\t2.0"]
        lines[line - 1] = record
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line "
                           f"{line}: bad {what} '{value}'$"):
            load_model(path)

    @pytest.mark.parametrize("value", ["0", "-1", "-0.0"])
    def test_non_positive_c_names_the_line(self, tmp_path, value):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tendings-only\n"
                        f"c\t{value}\nintercept\t0.0\n"
                        "e1_centroid_0\t1.0\t0.0\t2.0\n"
                        "e2_centroid_0\t1.0\t0.0\t2.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line "
                           f"3: bad c '{value}'$"):
            load_model(path)

    @pytest.mark.parametrize("record, what, value", [
        ("grad_inf\tnan", "grad_inf", "nan"),
        ("grad_inf\tinf", "grad_inf", "inf"),
        ("grad_inf\t-inf", "grad_inf", "-inf"),
        ("grad_inf\t-1e-9", "grad_inf", "-1e-9"),
        ("iterations\t-7", "iterations", "-7"),
        ("iterations\t2.5", "iterations", "2.5"),
    ])
    def test_impossible_diagnostic_names_the_line(self, tmp_path, record,
                                                  what, value):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tendings-only\n"
                        f"c\t0.5\nintercept\t0.0\n{record}\n"
                        "e1_centroid_0\t1.0\t0.0\t2.0\n"
                        "e2_centroid_0\t1.0\t0.0\t2.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line "
                           f"5: bad {what} '{value}'$"):
            load_model(path)

    def test_zero_diagnostics_load(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tendings-only\n"
                        "c\t0.5\nintercept\t0.0\niterations\t0\n"
                        "grad_inf\t0.0\ne1_centroid_0\t1.0\t0.0\t2.0\n"
                        "e2_centroid_0\t1.0\t0.0\t2.0\n")
        model = load_model(path)
        assert model.iterations == 0 and model.grad_inf == 0.0

    @pytest.mark.parametrize("record", [
        "config\tendings-only", "c\t0.25", "intercept\t0.0",
        "iterations\t3", "converged\ttrue", "grad_inf\t0.5",
    ])
    def test_repeated_metadata_names_the_line(self, tmp_path, record):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tendings-only\n"
                        "c\t0.5\nintercept\t0.0\niterations\t3\n"
                        "converged\ttrue\ngrad_inf\t0.5\n"
                        f"{record}\ne1_centroid_0\t1.0\t0.0\t2.0\n"
                        "e2_centroid_0\t1.0\t0.0\t2.0\n")
        key = record.split("\t")[0]
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line "
                           f"8: repeated '{key}' line$"):
            load_model(path)

    def test_three_field_line_is_unrecognized(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tendings-only\n"
                        "c\t0.5\nintercept\t0.0\n"
                        "e1_centroid_0\t1.0\t0.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           "line 5: unrecognized record$"):
            load_model(path)

    def test_max_below_min_names_the_line(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v2\nconfig\tendings-only\n"
                        "c\t0.5\nintercept\t0.0\n"
                        "e1_centroid_0\t1.0\t0.0\t2.0\n"
                        "e2_centroid_0\t1.0\t3.0\t2.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           "line 6: max 2.0 < min 3.0$"):
            load_model(path)

    def test_save_requires_config_and_scaler(self, tmp_path):
        rng = np.random.default_rng(11)
        x, y = random_problem(rng, n=10, d=2)
        bare = train_logreg(x, y, c=1.0)
        with pytest.raises(ValueError, match="config and scaler"):
            save_model(tmp_path / "x.txt", bare)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something else\n")
        with pytest.raises(ParseError, match="not a linear model"):
            load_model(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("clozebase linear model v1\nconfig\tall\n")
        with pytest.raises(ParseError, match="missing"):
            load_model(path)
