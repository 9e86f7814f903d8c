"""Slow, obvious references that the fast kernels are checked against, kept
apart from the test modules so that each test module imports only this one."""

import hashlib
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from syndatum.estimators import FittedEstimator
from syndatum.harness import write_rows_csv
from syndatum.metrics import SQUARED, _model_knots, _score_fn


def _rows_sha(rows, tmp_path) -> str:
    """Golden pin: SHA-256 of the rows.csv bytes, recorded from the seeded code."""
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _box_problem(model_class, X, y):
    """The quadratic a boxed fit minimizes, as ``_solve_box_quadratic``'s
    arguments (A, b, lo, hi)."""
    Phi = model_class.features(X)
    lo, hi = (np.asarray(v, dtype=float) for v in model_class.coefficient_box)
    return Phi.T @ Phi / Phi.shape[0], Phi.T @ y / Phi.shape[0], lo, hi


def _quadratic_objective(A, b, beta):
    return float(beta @ A @ beta - 2.0 * b @ beta)


def _solve_box_quadratic(A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The box-constrained fit as ``erm.fit_regression`` first computed it:
    minimize beta' A beta - 2 b' beta over the box [lo, hi] by exact face
    enumeration for q <= 2 and accelerated projected gradient (FISTA) to
    tolerance 1e-10 otherwise."""
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


def _knn_reference(X, y, k, Q):
    """The k-nearest-neighbour mean, one query at a time: the rows strictly
    nearer than the k-th distance, then the lowest-index rows at it.  A
    query with a NaN feature has no neighbours and gets NaN."""
    sq = np.einsum("ij,ij->i", X, X)
    out = np.empty(Q.shape[0])
    for i, row in enumerate(sq[None, :] - 2.0 * (Q @ X.T)):
        if np.isnan(Q[i]).any():
            out[i] = np.nan
            continue
        kth = np.partition(row, k - 1)[k - 1]
        less = row < kth
        ties = np.flatnonzero(row == kth)[: k - np.count_nonzero(less)]
        out[i] = (float(y[less].sum()) + float(y[ties].sum())) / k
    return out


def _mlp_predict_reference(W, b, Q):
    """The ReLU network's forward pass as ``_MLP.predict`` first computed it:
    one fresh (rows, hidden) array per hidden layer, each product written
    into its array."""
    h = Q
    for Wi, bi in zip(W[:-1], b[:-1]):
        a = np.empty((Q.shape[0], Wi.shape[1]))
        np.matmul(h, Wi, out=a)
        a += bi
        np.maximum(a, 0.0, out=a)
        h = a
    out = np.empty(Q.shape[0])
    np.matmul(h, W[-1], out=out.reshape(-1, 1))
    out += b[-1]
    return out


def _piecewise_sample1_reference(self, n, rng):
    """``_Piecewise1D.sample1`` as first written, called with the factor as
    ``self``: the segment from ``searchsorted`` and ``np.where`` over fresh
    arrays."""
    # inverse-CDF: pick segment by cumulative mass, then uniform within
    br = np.asarray(self.breakpoints)
    hs = np.asarray(self.heights)
    masses = hs * np.diff(br)
    cum = np.cumsum(masses)
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.clip(idx, 0, len(hs) - 1)
    prev = np.concatenate([[0.0], cum])[idx]
    frac = np.where(masses[idx] > 0, (u - prev) / masses[idx], 0.0)
    return br[idx] + frac * np.diff(br)[idx]


def _reference_weighted(model, density, truth, loss, excess):
    """The uncached scalar integrand: density, truth and score evaluated
    afresh at every node.  Returns (weighted integrand, factor, breakpoints).
    A plug-in estimator truth enters as its mean or probability by the loss,
    independently of FittedEstimator.__call__."""
    score = _score_fn(model, loss)
    truth_fn = truth
    if isinstance(truth, FittedEstimator):
        truth_fn = truth.mean if loss == SQUARED else truth.prob
    if loss == SQUARED:

        def integrand(x):
            pt = np.array([[x]])
            return (float(score(pt)[0]) - float(truth_fn(pt)[0])) ** 2

    elif excess:

        def integrand(x):
            pt = np.array([[x]])
            eta = float(truth_fn(pt)[0])
            return abs(2.0 * eta - 1.0) if (float(score(pt)[0]) >= 0.0) != (eta >= 0.5) else 0.0

    else:

        def integrand(x):
            pt = np.array([[x]])
            eta = float(truth_fn(pt)[0])
            return eta if float(score(pt)[0]) < 0.0 else 1.0 - eta

    f = density.factors[0]
    pts = sorted({k for k in (*f.knots(), *_model_knots(model)) if f.a < k < f.b})
    return (lambda x: float(f.pdf1(x)) * integrand(x)), f, pts


def _reference_quadrature(model, density, truth, loss, excess):
    weighted, f, pts = _reference_weighted(model, density, truth, loss, excess)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(weighted, f.a, f.b, points=pts or None, limit=200)
    return val
