"""Slow, obvious references that the fast kernels are checked against, kept
apart from the test modules so that each test module imports only this one."""

import numpy as np


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
