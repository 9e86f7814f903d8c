"""Downstream learning: basis-expansion function classes, threshold and sign
classifier families, their (box-constrained, optionally ridge-penalized)
empirical risk minimizers, and Monte-Carlo approximations of population
optima.

Regression fits minimize mean squared error; classification fits minimize the
logistic surrogate for basis classes and the empirical 0-1 risk directly for
the one-parameter threshold/sign families (grid search plus golden-section
refinement, resolution 1e-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from .datamodel import (
    Dataset,
    SeedSpec,
    TaskKind,
    draw_responses,
    make_dataset,
    parse_spec,
)
from .densities import DensityModel
from .errors import NonConvergence, SingularDesign, TaskMismatch
from .estimators import _sigmoid

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Feature maps (module-level so classes stay picklable)
# ---------------------------------------------------------------------------


def _fm_linear(X):
    return X


def _fm_quadratic(X):
    return np.hstack([X, X**2])


def _fm_exp2(X):
    return np.exp(X[:, :2])


def _fm_abs(X):
    return np.abs(X[:, :1])


def _fm_constant(X):
    return np.ones((X.shape[0], 1))


def _col(X):
    return X[:, :1]


def _fm_recip_cubic_0(X):
    x = _col(X)
    return np.hstack([x, x**3])


def _fm_recip_cubic_1(X):
    x = _col(X)
    return np.hstack([1.0 / (x + 0.1), x**3])


def _fm_recip_cubic_2(X):
    x = _col(X)
    return np.hstack([x**2, x**3])


def _fm_recip_cubic_3(X):
    x = _col(X)
    return np.hstack([1.0 / (x + 0.1), x, x**2, x**3])


_BASIS_TABLE = {
    # name -> (feature_map, q given p, kink points of the map for 1-d quadrature)
    "linear": (_fm_linear, lambda p: p, ()),
    "quadratic": (_fm_quadratic, lambda p: 2 * p, ()),
    "exp2": (_fm_exp2, lambda p: 2, ()),
    "abs": (_fm_abs, lambda p: 1, (0.0,)),
    "constant": (_fm_constant, lambda p: 1, ()),
    "recip-cubic-0": (_fm_recip_cubic_0, lambda p: 2, ()),
    "recip-cubic-1": (_fm_recip_cubic_1, lambda p: 2, ()),
    "recip-cubic-2": (_fm_recip_cubic_2, lambda p: 2, ()),
    "recip-cubic-3": (_fm_recip_cubic_3, lambda p: 4, ()),
}


@dataclass(frozen=True)
class BasisFunctionClass:
    """Span of a fixed finite basis, optionally box-constrained and ridged."""

    name: str
    feature_map: Callable
    q: int
    task: TaskKind
    coefficient_box: Optional[tuple] = None  # (lo array, hi array)
    ridge_penalty: float = 0.0
    map_knots: tuple = ()

    def features(self, X: np.ndarray) -> np.ndarray:
        return self.feature_map(np.atleast_2d(np.asarray(X, dtype=float)))


@dataclass(frozen=True)
class ThresholdAbsClass:
    """Classifiers sign(|x| - beta) with beta confined to [lo, hi]."""

    lo: float
    hi: float
    name: str = "threshold-abs"
    task: TaskKind = TaskKind.CLASSIFICATION


@dataclass(frozen=True)
class SignScaleClass:
    """Two-member classifier family {score(x) = beta * base(x): beta in {-1, +1}}."""

    base: str  # "abs" or "linear"
    name: str = ""
    task: TaskKind = TaskKind.CLASSIFICATION

    def __post_init__(self):
        object.__setattr__(self, "name", f"sign-{self.base}")

    def base_values(self, X: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(X, dtype=float))[:, 0]
        return np.abs(x) if self.base == "abs" else x


ModelClass = object  # BasisFunctionClass | ThresholdAbsClass | SignScaleClass


@dataclass(frozen=True)
class FittedModel:
    """A member of a model class selected by ERM; predict() returns the
    regression value or classification score at each row."""

    model_class: ModelClass
    coefficients: np.ndarray
    _predict: Callable = field(repr=False)

    def predict(self, X) -> np.ndarray:
        return self._predict(np.atleast_2d(np.asarray(X, dtype=float)))

    def quadrature_knots(self) -> tuple:
        """1-d points where the prediction (or its sign) changes regime."""
        mc = self.model_class
        if isinstance(mc, BasisFunctionClass):
            return tuple(mc.map_knots)
        if isinstance(mc, ThresholdAbsClass):
            b = float(self.coefficients[0])
            return (-b, b)
        return (0.0,)


def _basis_model(mc: BasisFunctionClass, beta: np.ndarray) -> FittedModel:
    beta = np.asarray(beta, dtype=float)

    def predict(X):
        return mc.features(X) @ beta

    return FittedModel(mc, beta, predict)


def _threshold_model(mc, beta: float) -> FittedModel:
    def predict(X):
        x = np.atleast_2d(np.asarray(X, dtype=float))[:, 0]
        return np.abs(x) - beta

    return FittedModel(mc, np.array([beta]), predict)


def _sign_model(mc: SignScaleClass, beta: float) -> FittedModel:
    def predict(X):
        return beta * mc.base_values(X)

    return FittedModel(mc, np.array([beta]), predict)


# ---------------------------------------------------------------------------
# Box-constrained least squares
# ---------------------------------------------------------------------------


def _quadratic_objective(A, b, beta):
    return float(beta @ A @ beta - 2.0 * b @ beta)


def _solve_box_quadratic(A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Minimize beta' A beta - 2 b' beta over the box [lo, hi].

    Exact face enumeration for q <= 2; accelerated projected gradient to
    tolerance 1e-10 otherwise.
    """
    q = A.shape[0]
    if q <= 2:
        best, best_val = None, np.inf
        states = [(0,), (1,), (2,)] if q == 1 else [(i, j) for i in range(3) for j in range(3)]
        for state in states:
            fixed_vals = np.empty(q)
            free = []
            for i, s in enumerate(state):
                if s == 0:
                    free.append(i)
                else:
                    fixed_vals[i] = lo[i] if s == 1 else hi[i]
            beta = fixed_vals.copy()
            if free:
                f = np.asarray(free)
                rest = np.asarray([i for i in range(q) if i not in free])
                rhs = b[f]
                if rest.size:
                    rhs = rhs - A[np.ix_(f, rest)] @ fixed_vals[rest]
                try:
                    beta_f = np.linalg.solve(A[np.ix_(f, f)], rhs)
                except np.linalg.LinAlgError:
                    continue
                if np.any(beta_f < lo[f] - 1e-12) or np.any(beta_f > hi[f] + 1e-12):
                    continue
                beta[f] = np.clip(beta_f, lo[f], hi[f])
            val = _quadratic_objective(A, b, beta)
            if val < best_val - 1e-15:
                best, best_val = beta, val
        return best

    # FISTA on the smooth quadratic with box projection
    L = 2.0 * float(np.linalg.eigvalsh(A)[-1])
    L = max(L, 1e-12)
    beta = np.clip(np.zeros(q), lo, hi)
    y = beta.copy()
    t = 1.0
    for _ in range(200_000):
        grad = 2.0 * (A @ y - b)
        new = np.clip(y - grad / L, lo, hi)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = new + (t - 1.0) / t_new * (new - beta)
        shift = np.max(np.abs(new - beta))
        beta, t = new, t_new
        if shift <= 1e-10 * max(1.0, np.max(np.abs(beta))):
            break
    return beta


def fit_regression(model_class: BasisFunctionClass, data: Dataset) -> FittedModel:
    """Penalized least squares over the basis; box-constrained when the class
    declares a coefficient box."""
    if data.task is not TaskKind.REGRESSION:
        raise TaskMismatch("fit_regression requires a regression dataset")
    if not isinstance(model_class, BasisFunctionClass):
        raise TaskMismatch(f"{model_class!r} is not a regression basis class")
    Phi = model_class.features(data.features)
    n = Phi.shape[0]
    lam = model_class.ridge_penalty
    if model_class.coefficient_box is None:
        if lam == 0.0:
            beta, _, rank, _ = np.linalg.lstsq(Phi, data.responses, rcond=None)
            if rank < Phi.shape[1]:
                raise SingularDesign(
                    f"basis Gram matrix is singular (rank {rank} < {Phi.shape[1]})"
                )
            return _basis_model(model_class, beta)
        A = Phi.T @ Phi / n + lam * np.eye(Phi.shape[1])
        beta = np.linalg.solve(A, Phi.T @ data.responses / n)
        return _basis_model(model_class, beta)
    lo, hi = (np.asarray(v, dtype=float) for v in model_class.coefficient_box)
    A = Phi.T @ Phi / n + lam * np.eye(Phi.shape[1])
    b = Phi.T @ data.responses / n
    beta = _solve_box_quadratic(A, b, lo, hi)
    return _basis_model(model_class, beta)


# ---------------------------------------------------------------------------
# Classification fits
# ---------------------------------------------------------------------------


def _fit_logistic_basis(mc: BasisFunctionClass, data: Dataset) -> FittedModel:
    Phi = mc.features(data.features)
    z = data.responses
    n = Phi.shape[0]
    lam = mc.ridge_penalty

    def objective(beta):
        m = Phi @ beta
        val = float(np.mean(np.logaddexp(0.0, -z * m))) + lam * float(beta @ beta)
        s = _sigmoid(-z * m)
        grad = -(Phi.T @ (z * s)) / n + 2.0 * lam * beta
        return val, grad

    bounds = None
    if mc.coefficient_box is not None:
        lo, hi = mc.coefficient_box
        bounds = list(zip(lo, hi))
    result = minimize(
        objective,
        np.zeros(mc.q),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10},
    )
    beta = result.x
    if mc.coefficient_box is not None:
        beta = np.clip(beta, mc.coefficient_box[0], mc.coefficient_box[1])
    if not result.success:
        # line searches can stall at the box faces; accept only if the
        # projected gradient confirms (near-)stationarity
        _, grad = objective(beta)
        pg = grad.copy()
        if mc.coefficient_box is not None:
            lo, hi = mc.coefficient_box
            pg = np.where((beta <= lo + 1e-12) & (grad > 0), 0.0, pg)
            pg = np.where((beta >= hi - 1e-12) & (grad < 0), 0.0, pg)
        if np.max(np.abs(pg)) > 1e-4:
            raise NonConvergence(f"logistic surrogate fit failed: {result.message}")
    return _basis_model(mc, beta)


class _ThresholdRisk:
    """O(log n) empirical 0-1 risk of sign(|x| - beta) via sorted prefix counts."""

    def __init__(self, x: np.ndarray, z: np.ndarray):
        a = np.abs(x)
        order = np.argsort(a, kind="stable")
        self.a = a[order]
        pos = (z[order] > 0).astype(float)
        self.pos_prefix = np.concatenate([[0.0], np.cumsum(pos)])
        self.m = x.shape[0]
        self.pos_total = float(self.pos_prefix[-1])

    def __call__(self, beta: float) -> float:
        # predictions: +1 where |x| > beta (sign(0) counts as +1)
        idx = int(np.searchsorted(self.a, beta, side="left"))
        errors_below = self.pos_prefix[idx]  # predicted -1, truth +1
        errors_above = (self.m - idx) - (self.pos_total - self.pos_prefix[idx])
        return (errors_below + errors_above) / self.m


def _grid_golden_minimize(risk, lo: float, hi: float):
    """1000-point grid search then golden-section refinement; tracks the best point seen.

    The refinement narrows the bracket around the grid minimum to width 1e-4;
    for piecewise-constant empirical risks the best evaluated point is kept.
    """
    grid = np.linspace(lo, hi, 1000)
    risks = np.array([risk(b) for b in grid])
    i = int(np.argmin(risks))
    best_b, best_r = float(grid[i]), float(risks[i])
    a = grid[max(0, i - 1)]
    b = grid[min(grid.size - 1, i + 1)]
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = risk(x1), risk(x2)
    while b - a > 1e-4:
        for xx, ff in ((x1, f1), (x2, f2)):
            if ff < best_r:
                best_b, best_r = float(xx), float(ff)
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = risk(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = risk(x2)
    return best_b


def fit_classification(model_class: ModelClass, data: Dataset) -> FittedModel:
    """ERM for classification: logistic surrogate over basis classes,
    empirical 0-1 risk for threshold and sign families."""
    if data.task is not TaskKind.CLASSIFICATION:
        raise TaskMismatch("fit_classification requires a classification dataset")
    if isinstance(model_class, BasisFunctionClass):
        return _fit_logistic_basis(model_class, data)
    if isinstance(model_class, ThresholdAbsClass):
        risk = _ThresholdRisk(data.features[:, 0], data.responses)
        beta = _grid_golden_minimize(risk, model_class.lo, model_class.hi)
        return _threshold_model(model_class, beta)
    if isinstance(model_class, SignScaleClass):
        base = model_class.base_values(data.features)
        best_beta, best_err = None, np.inf
        for beta in (-1.0, 1.0):
            pred = np.where(beta * base >= 0.0, 1.0, -1.0)
            err = float(np.mean(pred != data.responses))
            if err < best_err - 1e-15:
                best_beta, best_err = beta, err
        return _sign_model(model_class, best_beta)
    raise TaskMismatch(f"unsupported model class {model_class!r}")


def fit_downstream(model_class: ModelClass, data: Dataset) -> FittedModel:
    """ERM of the class on the data, by the data's task."""
    if data.task is TaskKind.REGRESSION:
        return fit_regression(model_class, data)
    return fit_classification(model_class, data)


# ---------------------------------------------------------------------------
# Population optima by Monte-Carlo ERM
# ---------------------------------------------------------------------------


def population_optimum(
    model_class: ModelClass,
    density: DensityModel,
    truth,
    m: int = 100_000,
    seed: SeedSpec = SeedSpec(0),
) -> FittedModel:
    """Approximate the population risk minimizer within the class by ERM on m
    Monte-Carlo samples (error O(m^-1/2)).

    ``truth`` is the true conditional mean (regression) or P(Z=+1|x)
    (classification), or a FittedEstimator standing in for it.  Regression
    targets are noise-free: zero-mean noise leaves the population argmin
    unchanged and only adds Monte-Carlo error.
    """
    X = density.sample(m, seed.child(71))
    task = model_class.task
    y = draw_responses(task, truth(X), None, seed.child(72))
    return fit_downstream(model_class, make_dataset(X, y, task))


# ---------------------------------------------------------------------------
# Named class registry
# ---------------------------------------------------------------------------


def make_model_class(
    name: str,
    p: int,
    task: TaskKind,
    box=None,
    ridge: float = 0.0,
) -> ModelClass:
    """Build a model class from its config name.

    ``box`` is a scalar B (interpreted as [-B, B] per coefficient) or a
    (lo, hi) pair replicated across coefficients.  Raises ValueError for a
    ridge that is not a finite number >= 0 and for an empty box.
    """
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    if name == "threshold-abs":
        if box is None:
            raise ValueError("threshold-abs requires box=lo,hi")
        lo, hi = (box, box) if np.isscalar(box) else box
        return ThresholdAbsClass(*_nonempty_box(float(lo), float(hi)))
    if name in ("sign-abs", "sign-linear"):
        return SignScaleClass("abs" if name == "sign-abs" else "linear")
    if name == "logistic-linear":
        fm, qf, knots = _BASIS_TABLE["linear"]
        q = qf(p)
        cbox = _expand_box(box, q)
        return BasisFunctionClass(
            "logistic-linear", fm, q, TaskKind.CLASSIFICATION, cbox, ridge, knots
        )
    if name in _BASIS_TABLE:
        fm, qf, knots = _BASIS_TABLE[name]
        q = qf(p)
        return BasisFunctionClass(name, fm, q, task, _expand_box(box, q), ridge, knots)
    raise ValueError(f"unknown model class {name!r}")


def _nonempty_box(lo, hi):
    if not np.all(np.asarray(lo) <= np.asarray(hi)):
        raise ValueError(f"box is empty: lower {lo} is not <= upper {hi}")
    return lo, hi


def _expand_box(box, q):
    if box is None:
        return None
    if np.isscalar(box):
        b = abs(float(box))
        box = (-b, b)  # a NaN B fails the lower <= upper check
    lo, hi = (np.full(q, float(v)) if np.isscalar(v) else np.asarray(v, dtype=float) for v in box)
    return _nonempty_box(lo, hi)


# class name -> the parameters its spec takes; every basis class takes box= and ridge=
_CLASS_KEYS = {"threshold-abs": ("box",), "sign-abs": (), "sign-linear": ()}


def parse_model_class(text: str, p: int, task: TaskKind) -> ModelClass:
    """Parse a class spec string like ``linear``, ``constant box=-0.5,0.5``,
    ``logistic-linear box=4``, or ``threshold-abs box=0,0.5``."""
    name = (text.split() or ["<empty>"])[0]
    name, params = parse_spec(text, _CLASS_KEYS.get(name, ("box", "ridge")))
    box = None
    if "box" in params:
        vals = [float(v) for v in params["box"].split(",")]
        box = vals[0] if len(vals) == 1 else (vals[0], vals[1])
    mc = make_model_class(name, p, task, box=box, ridge=float(params.get("ridge", 0.0)))
    if mc.task is not task:
        raise ValueError(f"{name} is a {mc.task.value} class, not {task.value}")
    return mc
