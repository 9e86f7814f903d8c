"""Slow, obvious references that the fast kernels are checked against, kept
apart from the test modules so that each test module imports only this one."""

import hashlib
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
