"""Downstream learning: basis-expansion function classes, threshold and sign
classifier families, their (optionally box-constrained) empirical risk
minimizers, and Monte-Carlo approximations of population optima.

Regression fits minimize mean squared error, over a coefficient box exactly;
classification fits minimize the logistic surrogate for basis classes and the
empirical 0-1 risk directly for the one-parameter threshold/sign families
(grid search plus golden-section refinement, resolution 1e-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import lsq_linear, minimize

from .datamodel import (
    Dataset,
    SeedSpec,
    TaskKind,
    _checked_arrays,
    draw_responses,
    parse_spec,
)
from .densities import DensityModel
from .errors import NonConvergence, SingularDesign, TaskMismatch

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Feature maps (module-level so classes stay picklable).  A map's output width
# is its class's coefficient count; a map that cannot read a row's features
# raises IndexError.
# ---------------------------------------------------------------------------


def _fm_linear(X):
    return X


def _fm_quadratic(X):
    return np.hstack([X, X**2])


def _fm_exp2(X):
    return np.exp(X[:, [0, 1]])


def _fm_abs(X):
    return np.abs(_col(X))


def _fm_constant(X):
    return np.ones((X.shape[0], 1))


def _col(X):
    if X.shape[1] != 1:
        raise IndexError(f"reads one feature, not {X.shape[1]}")
    return X


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
    # name -> (feature_map, kink points of the map for 1-d quadrature)
    "linear": (_fm_linear, ()),
    "quadratic": (_fm_quadratic, ()),
    "exp2": (_fm_exp2, ()),
    "abs": (_fm_abs, (0.0,)),
    "constant": (_fm_constant, ()),
    "recip-cubic-0": (_fm_recip_cubic_0, ()),
    "recip-cubic-1": (_fm_recip_cubic_1, ()),
    "recip-cubic-2": (_fm_recip_cubic_2, ()),
    "recip-cubic-3": (_fm_recip_cubic_3, ()),
}


@dataclass(frozen=True)
class BasisFunctionClass:
    """Span of a fixed finite basis, optionally box-constrained."""

    name: str
    feature_map: Callable
    q: int
    task: TaskKind
    coefficient_box: Optional[tuple] = None  # (lo, hi), each a tuple of q floats
    map_knots: tuple = ()

    def features(self, X: np.ndarray) -> np.ndarray:
        return self.feature_map(np.atleast_2d(np.asarray(X, dtype=float)))

    def score(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return self.features(X) @ beta

    def knots(self, beta: np.ndarray) -> tuple:
        return tuple(self.map_knots)


@dataclass(frozen=True)
class ThresholdAbsClass:
    """Classifiers sign(|x| - beta) with beta confined to [lo, hi]."""

    lo: float
    hi: float
    name: str = "threshold-abs"
    task: TaskKind = TaskKind.CLASSIFICATION

    def score(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return np.abs(X[:, 0]) - beta[0]

    def knots(self, beta: np.ndarray) -> tuple:
        return (-float(beta[0]), float(beta[0]))


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

    def score(self, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return beta[0] * self.base_values(X)

    def knots(self, beta: np.ndarray) -> tuple:
        return (0.0,)


# BasisFunctionClass | ThresholdAbsClass | SignScaleClass: each scores rows by
# score(X, beta) and names the 1-d points where it changes regime by knots(beta)
ModelClass = object


@dataclass(frozen=True)
class FittedModel:
    """A member of a model class selected by ERM: the class and its
    coefficients.  predict() returns the regression value or classification
    score at each row."""

    model_class: ModelClass
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    def predict(self, X) -> np.ndarray:
        return self.model_class.score(np.atleast_2d(np.asarray(X, dtype=float)), self.coefficients)

    def quadrature_knots(self) -> tuple:
        """1-d points where the prediction (or its sign) changes regime."""
        return self.model_class.knots(self.coefficients)


# ---------------------------------------------------------------------------
# Box-constrained least squares
# ---------------------------------------------------------------------------


def fit_regression(model_class: BasisFunctionClass, data: Dataset) -> FittedModel:
    """Least squares over the basis; over the coefficient box, exactly, when
    the class declares one: the parabola's vertex clipped to the box for one
    coefficient, bounded-variable least squares (BVLS) for more."""
    if data.task is not TaskKind.REGRESSION:
        raise TaskMismatch("fit_regression requires a regression dataset")
    if not isinstance(model_class, BasisFunctionClass):
        raise TaskMismatch(f"{model_class!r} is not a regression basis class")
    Phi = model_class.features(data.features)
    if model_class.coefficient_box is None:
        beta, _, rank, _ = np.linalg.lstsq(Phi, data.responses, rcond=None)
        if rank < Phi.shape[1]:
            raise SingularDesign(f"basis Gram matrix is singular (rank {rank} < {Phi.shape[1]})")
        return FittedModel(model_class, beta)
    # minimize beta' A beta - 2 b' beta over [lo, hi]
    n = Phi.shape[0]
    lo, hi = (np.asarray(v, dtype=float) for v in model_class.coefficient_box)
    A = Phi.T @ Phi / n
    b = Phi.T @ data.responses / n
    if model_class.q == 1:
        # a flat parabola (A == 0) descends towards hi when b > 0, else is level or falls to lo
        beta = np.where(b > 0, hi, lo) if A[0, 0] == 0 else np.clip(b / A[0], lo, hi)
        return FittedModel(model_class, beta)
    # as ||R beta - c||^2 with R'R = A and R'c = b on A's range
    w, V = np.linalg.eigh(A)
    root, V = np.sqrt(w[w > 0]), V[:, w > 0]
    R, c = root[:, None] * V.T, V.T @ b / root
    beta = lo.copy()
    free = lo < hi  # BVLS needs lo < hi; a zero-width coordinate stays at its bound
    if free.any():
        fit = lsq_linear(R[:, free], c - R[:, ~free] @ lo[~free], bounds=(lo[free], hi[free]), method="bvls")
        beta[free] = np.clip(fit.x, lo[free], hi[free])  # BVLS can step past a bound by rounding
        # BVLS's success flag says how it stopped, not whether the KKT conditions
        # hold: it stops on a step that leaves the cost unchanged (one across a box
        # narrower than rounding) and fails when its last allowed step is optimal
        if fit.optimality > 1e-8 * (w[-1] * np.abs(beta).max() + np.abs(b).max()):
            raise NonConvergence(f"bounded least squares stopped short: {fit.message}")
    return FittedModel(model_class, beta)


# ---------------------------------------------------------------------------
# Classification fits
# ---------------------------------------------------------------------------


def _sigmoid(m):
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _fit_logistic_basis(mc: BasisFunctionClass, data: Dataset) -> FittedModel:
    Phi = mc.features(data.features)
    z = data.responses
    n = Phi.shape[0]

    def objective(beta):
        m = Phi @ beta
        val = float(np.mean(np.logaddexp(0.0, -z * m)))
        s = _sigmoid(-z * m)
        grad = -(Phi.T @ (z * s)) / n
        return val, grad

    bounds = None
    if mc.coefficient_box is not None:
        bounds = list(zip(*mc.coefficient_box))
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
        lo, hi = (np.asarray(v) for v in mc.coefficient_box)
        beta = np.clip(beta, lo, hi)
    if not result.success:
        # line searches can stall at the box faces; accept only if the
        # projected gradient confirms (near-)stationarity
        _, grad = objective(beta)
        pg = grad.copy()
        if mc.coefficient_box is not None:
            pg = np.where((beta <= lo + 1e-12) & (grad > 0), 0.0, pg)
            pg = np.where((beta >= hi - 1e-12) & (grad < 0), 0.0, pg)
        if np.max(np.abs(pg)) > 1e-4:
            raise NonConvergence(f"logistic surrogate fit failed: {result.message}")
    return FittedModel(mc, beta)


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
        return FittedModel(model_class, [beta])
    if isinstance(model_class, SignScaleClass):
        base = model_class.base_values(data.features)
        best_beta, best_err = None, np.inf
        for beta in (-1.0, 1.0):
            pred = np.where(beta * base >= 0.0, 1.0, -1.0)
            err = float(np.mean(pred != data.responses))
            if err < best_err - 1e-15:
                best_beta, best_err = beta, err
        return FittedModel(model_class, [best_beta])
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
    unchanged and only adds Monte-Carlo error.  The draws pass make_dataset's
    checks but are not copied: no caller holds them.
    """
    X = density.sample(m, seed.child(71))
    task = model_class.task
    y = draw_responses(task, truth(X), None, seed.child(72))
    return fit_downstream(model_class, Dataset(*_checked_arrays(X, y, task), task))


# ---------------------------------------------------------------------------
# Named class registry
# ---------------------------------------------------------------------------


def make_model_class(
    name: str,
    p: int,
    task: TaskKind,
    box=None,
) -> ModelClass:
    """Build a model class from its config name.

    A basis class has one coefficient per column of its feature map on p
    features; ``logistic-linear`` is the linear class fixed to
    classification.  ``box`` is a scalar B (interpreted as [-B, B] per
    coefficient) or a (lo, hi) pair replicated across coefficients.  Raises
    ValueError for a class that cannot read p features (the threshold, sign,
    abs and recip-cubic classes read exactly one; exp2 reads two or more), an
    empty box and a threshold-abs box with an infinite bound.
    """
    if name in ("threshold-abs", "sign-abs", "sign-linear") and p != 1:
        raise ValueError(f"{name} cannot read {p}-dimensional features")
    if name == "threshold-abs":
        if box is None:
            raise ValueError("threshold-abs requires box=lo,hi")
        lo, hi = (float(v) for v in ((box, box) if np.isscalar(box) else box))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"threshold-abs needs finite box bounds, got {lo},{hi}")
        return ThresholdAbsClass(*_nonempty_box(lo, hi))
    if name in ("sign-abs", "sign-linear"):
        return SignScaleClass("abs" if name == "sign-abs" else "linear")
    basis, task = ("linear", TaskKind.CLASSIFICATION) if name == "logistic-linear" else (name, task)
    if basis in _BASIS_TABLE:
        fm, knots = _BASIS_TABLE[basis]
        try:
            q = fm(np.zeros((1, p))).shape[1]
        except IndexError:
            raise ValueError(f"{name} cannot read {p}-dimensional features") from None
        return BasisFunctionClass(name, fm, q, task, _expand_box(box, q), knots)
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
    lo, hi = (tuple(np.broadcast_to(np.asarray(v, dtype=float), (q,)).tolist()) for v in box)
    return _nonempty_box(lo, hi)


# class name -> the parameters its spec takes; every basis class takes box=
_CLASS_KEYS = {"threshold-abs": ("box",), "sign-abs": (), "sign-linear": ()}


def parse_model_class(text: str, p: int, task: TaskKind) -> ModelClass:
    """Parse a class spec string like ``linear``, ``constant box=-0.5,0.5``,
    ``logistic-linear box=4``, or ``threshold-abs box=0,0.5``."""
    name = (text.split() or ["<empty>"])[0]
    name, params = parse_spec(text, _CLASS_KEYS.get(name, ("box",)))
    box = None
    if "box" in params:
        vals = [float(v) for v in params["box"].split(",")]
        if len(vals) > 2:
            raise ValueError(f"box takes B or lo,hi, not {params['box']!r}")
        box = vals[0] if len(vals) == 1 else tuple(vals)
    mc = make_model_class(name, p, task, box=box)
    if mc.task is not task:
        raise ValueError(f"{name} is a {mc.task.value} class, not {task.value}")
    return mc
