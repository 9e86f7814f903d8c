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
