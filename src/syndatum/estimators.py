"""Estimation models fitted on the original dataset and used to generate
synthetic responses: a conditional-mean estimate for regression or a
conditional class-probability estimate for classification.

Menu: oracle (wraps the true function), ordinary least squares, logistic
maximum likelihood (damped Newton / IRLS), k-nearest neighbors, a random
forest regressor built from scratch, and a small fully-connected network.

Hyperparameter defaults follow the experiment prescriptions:
k = round(n^(2/(2+p))), trees = round(1.5 sqrt(n)), depth = floor(ln n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.spatial import cKDTree

from .datamodel import Dataset, SeedSpec, TaskKind, parse_spec
from .errors import NonConvergence, SingularDesign, TaskMismatch

# estimator kind -> the parameters its spec takes (box is a float, the rest ints)
_ESTIMATOR_KEYS = {"oracle": (), "ols": (), "logistic": ("box",), "knn": ("k",),
                   "rf": ("trees", "depth"), "mlp": ("hidden", "layers")}
ESTIMATOR_KINDS = tuple(_ESTIMATOR_KEYS)


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimation model to fit, plus optional hyperparameter overrides."""

    kind: str
    oracle_fn: Optional[Callable] = None  # true mean (regression) or prob (classification)
    k: Optional[int] = None
    trees: Optional[int] = None
    depth: Optional[int] = None
    box: Optional[float] = None  # logistic coefficient clip bound B
    hidden: int = 10
    layers: int = 4

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        for name in ("k", "trees", "depth", "hidden", "layers"):
            v = getattr(self, name)
            if v is not None and (int(v) != v or v < 1):
                raise ValueError(f"{name} must be a positive integer, got {v}")
        if self.box is not None and not (math.isfinite(self.box) and self.box > 0):
            raise ValueError(f"box must be a finite number > 0, got {self.box}")


@dataclass(frozen=True)
class FittedEstimator:
    kind: str
    task: TaskKind
    training_n: int
    fitted_params: dict
    _mean_fn: Callable = field(repr=False)
    _prob_fn: Optional[Callable] = field(repr=False, default=None)

    def mean(self, X) -> np.ndarray:
        """Vectorized conditional-mean prediction over rows of X."""
        return self._mean_fn(np.atleast_2d(np.asarray(X, dtype=float)))

    def prob(self, X) -> np.ndarray:
        """Vectorized P(Z = +1 | x) over rows of X."""
        out = self._prob_fn(np.atleast_2d(np.asarray(X, dtype=float)))
        return np.clip(out, 0.0, 1.0)

    def __call__(self, X) -> np.ndarray:
        """The estimate as a truth: the mean for regression, P(Z = +1 | x) for
        classification."""
        return self.mean(X) if self.task is TaskKind.REGRESSION else self.prob(X)


def predict_mean(est: FittedEstimator, x):
    if est.task is not TaskKind.REGRESSION:
        raise TaskMismatch("predict_mean requires a regression estimator")
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    out = est.mean(x.reshape(1, -1) if single else x)
    return float(out[0]) if single else out


def predict_prob(est: FittedEstimator, x):
    if est.task is not TaskKind.CLASSIFICATION:
        raise TaskMismatch("predict_prob requires a classification estimator")
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    out = est.prob(x.reshape(1, -1) if single else x)
    return float(out[0]) if single else out


def default_knn_k(n: int, p: int) -> int:
    return max(1, round(n ** (2.0 / (2.0 + p))))


def default_rf_shape(n: int) -> tuple:
    return max(1, round(1.5 * math.sqrt(n))), max(0, int(math.floor(math.log(n))))


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------


def _fit_ols(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise SingularDesign(f"design rank {rank} < {X.shape[1]}")
    return beta


# ---------------------------------------------------------------------------
# Logistic maximum likelihood (damped Newton / IRLS)
# ---------------------------------------------------------------------------


def _sigmoid(m):
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logistic_nll(X, z, beta):
    m = X @ beta
    return float(np.mean(np.logaddexp(0.0, -z * m)))


def fit_logistic_mle(
    X: np.ndarray,
    z: np.ndarray,
    box: Optional[float] = None,
    max_iter: int = 100,
    grad_tol: float = 1e-9,
):
    """Unpenalized logistic MLE by damped Newton with step halving.

    The negative log-likelihood is non-increasing across accepted steps.
    Coordinates are clipped to [-box, box] after convergence when a box is
    given.  Raises NonConvergence if the gradient tolerance is not reached
    within the iteration cap (e.g. on separable data, where the MLE diverges).
    """
    n, p = X.shape
    beta = np.zeros(p)
    nll = _logistic_nll(X, z, beta)
    for _ in range(max_iter):
        m = X @ beta
        s = _sigmoid(-z * m)
        grad = -(X.T @ (z * s)) / n
        if np.max(np.abs(grad)) <= grad_tol:
            if box is not None:
                beta = np.clip(beta, -box, box)
            return beta, nll
        w = _sigmoid(m) * _sigmoid(-m)
        H = (X.T * w) @ X / n
        try:
            step = np.linalg.solve(H + 1e-12 * np.eye(p), -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, -grad, rcond=None)[0]
        t = 1.0
        accepted = False
        for _ in range(40):
            cand = beta + t * step
            cand_nll = _logistic_nll(X, z, cand)
            if cand_nll <= nll:  # enforce monotone descent
                beta, nll = cand, cand_nll
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    raise NonConvergence(
        f"logistic IRLS did not reach gradient tolerance {grad_tol} "
        f"within {max_iter} iterations (data may be separable)"
    )


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------


class _KNN:
    """Brute-force Euclidean KNN with exact lowest-index tie breaking.  The
    kernel's distances are ``|x|^2 - 2 q.x``; a query's neighbours are its k
    smallest, ties going to the lowest index.  Two fast paths answer a query
    with the kernel's bytes when they can prove which rows the kernel picks:

    - one feature: the k nearest form a window of the sorted training values
      (``_window_predict``);
    - two or more features: the k + 1 nearest from a ``cKDTree`` built on a
      finite training set, when their distances leave gaps wider than the
      rounding of both computations (``_tree_predict``).

    Rows neither can prove (ties, near-ties, non-finite queries, training
    sets that are not finite) go to the kernel."""

    def __init__(self, X, y, k):
        self.X = X
        self.y = y
        self.k = int(k)
        self._sq = np.einsum("ij,ij->i", X, X)
        self._sorted = self._tree = None
        if X.shape[1] == 1 and np.all(np.isfinite(X)):
            order = np.argsort(X[:, 0], kind="stable")
            self._sorted = (order, X[order, 0], self._sq[order], float(np.max(np.abs(X))))
        elif np.all(np.isfinite(X)):
            self._tree = (cKDTree(X), float(np.sqrt(np.max(self._sq))))

    def predict(self, Q: np.ndarray) -> np.ndarray:
        n = self.X.shape[0]
        k = min(self.k, n)
        if k >= n:
            out = np.full(Q.shape[0], self.y.mean())
        else:
            if self._sorted is not None:
                out, rest = self._window_predict(Q[:, 0], k)
            elif self._tree is not None:
                out, rest = self._tree_predict(Q, k)
            else:
                out, rest = np.empty(Q.shape[0]), np.arange(Q.shape[0])
            if rest.size:
                # numpy sends a one-row product to gemv, whose dot products may
                # round unlike those of a longer block: a lone row goes twice
                twice = rest.size == 1 < Q.shape[0]
                out[rest] = self._kernel(Q[np.repeat(rest, 1 + twice)], k)[: rest.size]
        # a query with a NaN feature has no nearest neighbours
        out[np.isnan(Q).any(axis=1)] = np.nan
        return out

    def _kernel(self, Q: np.ndarray, k: int) -> np.ndarray:
        out = np.empty(Q.shape[0])
        chunk = max(1, int(4_000_000 // max(self.X.shape[0], 1)))
        for s in range(0, Q.shape[0], chunk):
            D = self._sq[None, :] - 2.0 * (Q[s : s + chunk] @ self.X.T)
            # query norms omitted: constant per row, irrelevant to ordering.  Where
            # the k-th distance is unique, the k - 1 other columns of the k + 1
            # nearest are the nearer rows; sorted, they sum as y[D[i] < kth[i]]
            part = np.argpartition(D, k, axis=1)[:, : k + 1]
            rows = np.arange(D.shape[0])
            near = D[rows[:, None], part]
            at = np.argmax(near[:, :k], axis=1)
            kth = near[rows, at]
            unique = (np.count_nonzero(near[:, :k] == kth[:, None], axis=1) == 1) & (near[:, k] > kth)
            nearer = np.sort(np.where(np.arange(k) == at[:, None], -1, part[:, :k]), axis=1)[:, 1:]
            total = self.y[nearer].sum(axis=1) + self.y[part[rows, at][:, None]].sum(axis=1)
            for i in np.flatnonzero(~unique):  # the nearer rows, then the lowest-index tied ones
                less = D[i] < kth[i]
                ties = np.flatnonzero(D[i] == kth[i])[: k - np.count_nonzero(less)]
                total[i] = float(self.y[less].sum()) + float(self.y[ties].sum())
            out[s : s + rows.shape[0]] = total / k
            del D, part  # free this chunk's arrays before the next is computed
        return out

    def _window_predict(self, q: np.ndarray, k: int):
        """One-feature fast path.  Each query's k nearest are taken as the
        window [lo, lo + k) of the sorted training values; a row is kept only
        when no other training value lies within the window's radius plus the
        rounding bound of the kernel's distances, and one end of the window is
        provably its unique farthest member.  The kernel then takes its unique
        branch on these very rows, so the sum below repeats it.  Returns the
        predictions and the rows left for the kernel."""
        order, xs, sqs, M = self._sorted
        n = xs.shape[0]
        out = np.empty(q.shape[0])
        proven = np.empty(q.shape[0], dtype=bool)
        span = np.arange(k)
        # the two ends of a window and their inner neighbours
        probe = np.array([0, min(1, k - 1), max(k - 2, 0), k - 1])
        chunk = max(1, 1_000_000 // k)
        for s in range(0, q.shape[0], chunk):
            finite = np.isfinite(q[s : s + chunk])
            qc = np.where(finite, q[s : s + chunk], 0.0)
            pos = np.searchsorted(xs, qc)
            lo, hi = np.clip(pos - k, 0, n - k), np.clip(pos, 0, n - k)
            while np.any(lo < hi):  # the window start whose two ends balance
                mid = (lo + hi) // 2
                right = (lo < hi) & (qc - xs[mid] > xs[np.minimum(mid + k, n - 1)] - qc)
                lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
            with np.errstate(over="ignore", invalid="ignore"):
                cols = lo[:, None] + probe
                # the kernel's D elementwise: with one feature the matmul is q * x
                D = sqs[cols] - 2.0 * (qc[:, None] * xs[cols])
                # fl(x * x) - 2 fl(q * x) is within delta / 2 of x^2 - 2 q x, to
                # first order in 2^-53 (twice delta covers the rest); 2^-1000
                # covers products that underflow
                delta = 4.0 * 2.0**-53 * (M * M + 2.0 * np.abs(qc) * M) + 2.0**-1000
                # x^2 - 2 q x is convex, so every member of the window lies
                # below the near end or the far end's inner neighbour
                far_right = D[:, 3] - np.maximum(D[:, 0], D[:, 2]) > 2.0 * delta
                far_left = D[:, 0] - np.maximum(D[:, 3], D[:, 1]) > 2.0 * delta
                r = np.maximum(qc - xs[lo], xs[lo + k - 1] - qc)
                R = np.sqrt(r * r + 2.0 * delta) * (1.0 + 1e-12) + 1e-12 * (np.abs(qc) + 1.0)
                count = np.searchsorted(xs, qc + R, side="right") - np.searchsorted(xs, qc - R)
            ok = finite & (count == k) & (far_left | far_right | (k == 1))
            proven[s : s + chunk] = ok
            # rows sharing a window and its farthest member share a sum: the
            # other k - 1 members in index order, then the farthest
            keys, inv = np.unique((lo * k + np.where(far_right, k - 1, 0))[ok], return_inverse=True)
            members = order[(keys // k)[:, None] + span]
            far = members[np.arange(keys.shape[0]), keys % k]
            ranked = np.sort(members, axis=1)
            nearer = ranked[ranked != far[:, None]].reshape(keys.shape[0], k - 1)
            total = self.y[nearer].sum(axis=1) + self.y[far[:, None]].sum(axis=1)
            out[s : s + chunk][ok] = (total / k)[inv]
        return out, np.flatnonzero(~proven)

    def _tree_predict(self, Q: np.ndarray, k: int):
        """Fast path for two or more features.  The tree returns each query's
        k + 1 nearest training rows by its own squared distances r^2.  A row
        is kept only when r^2 rises by more than ``slack`` from the (k-1)-th
        to the k-th and from the k-th to the (k+1)-th nearest: ``slack``
        covers the kernel's rounding of both distances compared and the
        tree's own arithmetic, its pruning included.  The kernel's k nearest
        are then the tree's, the k-th its unique farthest, and the sum below
        repeats the kernel's unique branch.  Returns the predictions and the
        rows left for the kernel."""
        tree, M = self._tree
        p = Q.shape[1]
        out = np.empty(Q.shape[0])
        proven = np.empty(Q.shape[0], dtype=bool)
        chunk = max(1, 1_000_000 // (k + 1))
        for s in range(0, Q.shape[0], chunk):
            q = Q[s : s + chunk]
            finite = np.isfinite(q).all(axis=1)
            with np.errstate(over="ignore", invalid="ignore"):
                norm = np.sqrt(np.einsum("ij,ij->i", q, q))
                r2, near = tree.query(np.where(finite[:, None], q, 0.0), k + 1)
                r2 *= r2
                # the kernel's |x|^2 - 2 q.x is within (3p + 2) 2^-53 (M^2 + 2 |q| M)
                # of its exact value, the tree's r^2 within 1e-12 (M + |q|)^2 of
                # |q - x|^2, and 2^-1000 covers products that underflow
                slack = 2.0 * ((3 * p + 2) * 2.0**-53 * (M * M + 2.0 * norm * M) + 1e-12 * (M + norm) ** 2
                               + 2.0**-1000)
                ok = finite & (r2[:, k] - r2[:, k - 1] > slack)
                if k > 1:
                    ok &= r2[:, k - 1] - r2[:, k - 2] > slack
            proven[s : s + chunk] = ok
            near = near[ok]
            total = self.y[np.sort(near[:, : k - 1], axis=1)].sum(axis=1) + self.y[near[:, k - 1 : k]].sum(axis=1)
            out[s : s + chunk][ok] = total / k
        return out, np.flatnonzero(~proven)


# ---------------------------------------------------------------------------
# Random forest regressor (CART, variance-reduction splits)
# ---------------------------------------------------------------------------


class _Tree:
    """One fitted tree as flat node arrays; node 0 is the root and a leaf has
    feature -1."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    def predict(self, Q: np.ndarray) -> np.ndarray:
        node = np.zeros(Q.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = Q[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return self.value[node]


_BATCH_ROWS = 1 << 14  # bootstrap rows (trees x n) grown together
_BLOCK_CELLS = 1 << 14  # cells of one padded (p, nodes, width) block of split scores


def _segment_sums(values, starts, sizes):
    """values[s : s + m].sum() for every segment, rounded as 1-d .sum() does:
    segments of one length are summed as the rows of one block."""
    out = np.empty(sizes.shape[0])
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    bounds = np.flatnonzero(np.diff(ordered, prepend=-1, append=-1))
    span = np.arange(ordered.max(initial=0))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        group = by_size[lo:hi]
        out[group] = np.add.reduce(values[starts[group, None] + span[: ordered[lo]]], axis=1)
    return out


def _best_splits(xt, yb, orders, starts, sizes, totals):
    """Best (feature, threshold) of each node by squared-error reduction; all
    features considered; ties broken toward the lowest feature index.  ``xt``
    holds the features as rows; row j of ``orders`` holds every node's rows
    sorted by feature j, node i at [starts[i], starts[i] + sizes[i]);
    ``totals`` are the nodes' response sums.  Feature -1 means no split."""
    p, level_rows = orders.shape
    feature = np.full(sizes.shape[0], -1)
    threshold = np.zeros(sizes.shape[0])
    by_size = np.argsort(-sizes, kind="stable")
    s = 0
    while s < by_size.shape[0]:
        # a block holds the widest nodes left, up to the cell cap
        width = sizes[by_size[s]]
        nodes = by_size[s : s + max(1, _BLOCK_CELLS // (p * width))]
        s += nodes.shape[0]
        m = sizes[nodes]
        # a node's padding repeats its last row, so no split falls in it; the
        # cumulative sum is sequential, so padding leaves each prefix as is
        cols = starts[nodes, None] + np.minimum(np.arange(width), m[:, None] - 1)
        block = orders.ravel()[cols + (np.arange(p) * level_rows)[:, None, None]]
        xs = xt.ravel()[block + (np.arange(p) * xt.shape[1])[:, None, None]]
        prefix = np.cumsum(yb[block[..., :-1]], axis=-1)
        counts = np.arange(1.0, width)  # float counts give the same quotients as ints
        with np.errstate(divide="ignore", invalid="ignore"):  # m - counts <= 0 in padding
            score = prefix**2 / counts + (totals[nodes, None] - prefix) ** 2 / (m[:, None] - counts)
        np.copyto(score, -np.inf, where=~(xs[..., :-1] < xs[..., 1:]))
        at = np.argmax(score, axis=-1)
        top = np.take_along_axis(score, at[..., None], axis=-1)[..., 0]
        # a feature without a valid split tops at -inf and is never taken
        best = np.full(nodes.shape[0], -np.inf)
        j_best = np.full(nodes.shape[0], -1)
        for j in range(p):
            take = top[j] > best + 1e-12
            best = np.where(take, top[j], best)
            j_best = np.where(take, j, j_best)
        split = np.flatnonzero(j_best >= 0)
        j, i = j_best[split], at[j_best[split], split]
        mid = 0.5 * (xs[j, split, i] + xs[j, split, i + 1])
        # the midpoint can round up onto the next value; when that is the
        # node's largest, every row would go left, so the node stays a leaf
        made = ~(mid >= xs[j, split, -1])
        feature[nodes[split[made]]] = j[made]
        threshold[nodes[split[made]]] = mid[made]
    return feature, threshold


def _grow_trees(X, y, ranks, boots, max_depth):
    """One CART tree per row of bootstrap indices ``boots``, grown together
    one depth at a time.  Row 0 of ``orders`` lists the rows of every node of
    the current depth in index order, row j + 1 sorted by feature j (ties in
    index order); each node's rows are contiguous.  A node's sums are
    pairwise sums of its responses in index order, as y[idx].sum() is."""
    t, n = boots.shape
    p = X.shape[1]
    xt, yb = X.T.take(boots.ravel(), axis=1), y[boots.ravel()]
    rows = np.arange(t * n)
    # a row's key is (tree, rank of its value, row): ties keep index order
    tree_rank = np.repeat(np.arange(t) * n, n) + ranks[:, boots.ravel()]
    orders = np.concatenate([rows[None, :], np.argsort(tree_rank * (t * n) + rows, axis=1)])
    sizes = np.full(t, n)
    starts = np.arange(t) * n
    totals = yb.reshape(t, n).sum(axis=1)
    tree = np.arange(t)
    levels = []  # per depth: (tree, feature, threshold, left, right, value)
    first = 0  # node id of the depth's first node; ids run depth by depth
    for depth in range(max_depth + 1):
        count = sizes.shape[0]
        feature = np.full(count, -1)
        threshold = np.zeros(count)
        left = np.full(count, -1)
        right = np.full(count, -1)
        values = totals / sizes  # sum / count rounds as ndarray.mean
        levels.append((tree, feature, threshold, left, right, values))
        if depth == max_depth or count == 0:
            break
        ys = yb[orders[0]]
        spread = np.maximum.reduceat(ys, starts) - np.minimum.reduceat(ys, starts)
        cand = np.flatnonzero((sizes >= 2) & (spread != 0.0))
        feature[cand], threshold[cand] = _best_splits(xt, yb, orders[1:], starts[cand], sizes[cand],
                                                      totals[cand])
        split = np.flatnonzero(feature >= 0)
        # each row goes left (1), right (2) or, in a leaf, nowhere (0)
        node_of = np.repeat(np.arange(count), sizes)
        rows, f = orders[0], feature[node_of]
        goes_left = xt.ravel()[np.maximum(f, 0) * xt.shape[1] + rows] <= threshold[node_of]
        slot = np.where(f < 0, 0, 2 - goes_left).astype(np.int8)
        side = np.empty(t * n, dtype=np.int8)
        side[rows] = slot
        # children at max_depth stay leaves: only their sums are needed.  A
        # compress is stable; boolean indexing is slower on scattered masks
        keep = orders if depth + 1 < max_depth else orders[:1]
        code = side[keep].ravel()
        orders = np.concatenate([np.compress(code == c, keep).reshape(keep.shape[0], -1) for c in (1, 2)], axis=1)
        n_left = np.bincount(node_of, slot == 1, count)[split].astype(np.int64)
        sizes = np.concatenate([n_left, sizes[split] - n_left])
        starts = np.cumsum(sizes) - sizes
        totals = _segment_sums(yb[orders[0]], starts, sizes)
        tree = np.tile(tree[split], 2)
        first += count
        left[split] = first + np.arange(split.shape[0])
        right[split] = first + split.shape[0] + np.arange(split.shape[0])
    tree, feature, threshold, left, right, value = map(np.concatenate, zip(*levels))
    # number each tree's nodes in id order, so its root is node 0
    by_tree = np.argsort(tree, kind="stable")
    bounds = np.searchsorted(tree[by_tree], np.arange(t + 1))
    local = np.empty_like(by_tree)
    local[by_tree] = np.arange(by_tree.shape[0]) - bounds[tree[by_tree]]
    left = np.where(left >= 0, local[left], -1)
    right = np.where(right >= 0, local[right], -1)
    return [_Tree(*(a[by_tree[lo:hi]] for a in (feature, threshold, left, right, value)))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


class _Forest:
    """Bootstrap CART trees whose predictions are averaged in tree order.

    A 1-d forest is a step function, tabulated at fit (``_steps``).  With two
    or more features, each tree's own thresholds cut the inputs into a grid of
    cells, and within a cell every comparison the tree makes comes out the
    same.  ``_cells`` tabulates each tree's leaf value per cell, read through
    one lookup per feature into the forest's cuts; it is built on the first
    call with at least as many rows as the forest has cells, and calls before
    that walk the trees.  A forest with a non-finite threshold always walks
    (its cell count is inf)."""

    def __init__(self, X, y, n_trees, max_depth, rng):
        n = X.shape[0]
        per_batch = max(1, _BATCH_ROWS // n)
        ranks = np.stack([np.unique(X[:, j], return_inverse=True)[1] for j in range(X.shape[1])])
        self.trees = []
        for s in range(0, n_trees, per_batch):
            if n_trees == 1:
                boots = np.arange(n)[None, :]  # single-tree forest degenerates to plain CART
            else:  # growth draws nothing, so the draws keep their order
                boots = np.stack([rng.integers(0, n, size=n) for _ in range(min(per_batch, n_trees - s))])
            self.trees.extend(_grow_trees(X, y, ranks, boots, max_depth))
        self._steps = self._cells = self._cell_count = None
        if X.shape[1] == 1:
            # a 1-d forest is a step function: every query in (cuts[i-1], cuts[i]]
            # reaches the leaves cuts[i] reaches, and any query above the last
            # cut, like NaN, goes right at every node
            cuts = np.unique(np.concatenate([t.threshold[t.feature >= 0] for t in self.trees]))
            self._steps = (cuts, self._average(np.append(cuts, np.nan)[:, None]))

    def _average(self, Q: np.ndarray) -> np.ndarray:
        out = np.zeros(Q.shape[0])
        for tree in self.trees:
            out += tree.predict(Q)
        return out / len(self.trees)

    def _count_cells(self, p):
        """Keeps each tree's distinct thresholds per feature and returns the
        forest's cell count, inf when a threshold is not finite."""
        self._tree_cuts = [[np.unique(t.threshold[t.feature == j]) for j in range(p)] for t in self.trees]
        if not all(np.isfinite(c).all() for cuts in self._tree_cuts for c in cuts):
            return math.inf
        return sum(math.prod(c.size + 1 for c in cuts) for cuts in self._tree_cuts)

    def _build_cells(self):
        """Per feature, the forest's cuts; per tree, the leaf value of each of
        its cells and, per feature, the offset of the cell that each forest
        cut index falls in.  A query in (cuts[g-1], cuts[g]] compares with
        every threshold of the tree as cuts[g] does, so it shares the cell of
        the tree's first cut at or above cuts[g]; past the last cut, as NaN,
        it goes right at every node.  Each cell is walked once, at its upper
        cut (NaN for the top cell)."""
        p = len(self._tree_cuts[0])
        cuts = [np.unique(np.concatenate([tc[j] for tc in self._tree_cuts])) for j in range(p)]
        tables = []
        for tree, tree_cuts in zip(self.trees, self._tree_cuts):
            sizes = [c.size + 1 for c in tree_cuts]
            strides = [math.prod(sizes[j + 1 :]) for j in range(p)]
            offsets = [np.append(np.searchsorted(tc, c), tc.size) * stride
                       for tc, c, stride in zip(tree_cuts, cuts, strides)]
            grid = np.meshgrid(*(np.append(tc, np.nan) for tc in tree_cuts), indexing="ij")
            tables.append((offsets, tree.predict(np.stack([g.ravel() for g in grid], axis=1))))
        return cuts, tables

    def predict(self, Q: np.ndarray) -> np.ndarray:
        if self._steps is not None:
            cuts, values = self._steps
            return values[np.searchsorted(cuts, Q[:, 0])]
        if self._cells is None:
            if self._cell_count is None:
                self._cell_count = self._count_cells(Q.shape[1])
            if Q.shape[0] < self._cell_count:
                return self._average(Q)
            self._cells = self._build_cells()
        cuts, tables = self._cells
        at = [np.searchsorted(c, Q[:, j]) for j, c in enumerate(cuts)]
        out = np.zeros(Q.shape[0])
        for offsets, values in tables:  # in tree order, as _average adds
            cell = offsets[0][at[0]]
            for offset, g in zip(offsets[1:], at[1:]):
                cell += offset[g]
            out += values[cell]
        return out / len(self.trees)


# ---------------------------------------------------------------------------
# Fully-connected network (ReLU hidden layers, adaptive-moment full batch)
# ---------------------------------------------------------------------------


def _views(flat, shapes):
    """Consecutive reshaped views of a flat vector, one per shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [flat[end - math.prod(shape) : end].reshape(shape) for shape, end in zip(shapes, ends)]


class _MLP:
    """A ReLU network fit by full-batch Adam with early stopping.

    W and b are views of one flat parameter vector, and their gradients views
    of one flat gradient vector, so one Adam step updates them all.

    An epoch writes its per-row arrays into scratch that `train` allocates
    once and drops when it returns (`_scratch`): each hidden layer's
    activation (n, hidden); two (n, hidden) arrays that take turns holding the
    error propagated to a layer and its ReLU mask (1.0 where the activation
    is positive); and the output and its error (n,).

    A hidden bias gradient is the column sum of its layer's masked error.
    With two or more columns, `np.add.reduce(axis=0)` adds the rows in order
    to 0.0, and `np.einsum("ij->j")` makes the same additions in the same
    order with less work per row.  A single column is summed pairwise by the
    reduce and otherwise by the einsum, so with hidden = 1 the reduce stays.
    """

    def __init__(self, p, layers, hidden, rng):
        sizes = [p] + [hidden] * layers + [1]
        shapes = [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]
        shapes += [(size,) for size in sizes[1:]]
        self._theta = np.zeros(sum(math.prod(shape) for shape in shapes))
        self._grad = np.zeros_like(self._theta)
        params, grads = _views(self._theta, shapes), _views(self._grad, shapes)
        self.W, self.b = params[: len(sizes) - 1], params[len(sizes) - 1 :]
        self._gW, self._gb = grads[: len(sizes) - 1], grads[len(sizes) - 1 :]
        for i, W in enumerate(self.W):
            W[...] = rng.normal(0.0, math.sqrt(2.0 / sizes[i]), size=W.shape)

    def _scratch(self, n):
        """(acts, spread, spare, out, err) for epochs on n rows; see the
        class docstring."""
        layers, hidden = len(self.W) - 1, self.W[0].shape[1]
        acts = [np.empty((n, hidden)) for _ in range(layers)]
        return acts, np.empty((n, hidden)), np.empty((n, hidden)), np.empty(n), np.empty(n)

    def _forward(self, X, acts, out):
        """The output at the rows of X, written into out; hidden layer l's
        activation is left in acts[l]."""
        h = X
        for W, b, a in zip(self.W, self.b, acts):
            np.matmul(h, W, out=a)
            a += b
            np.maximum(a, 0.0, out=a)
            h = a
        np.matmul(h, self.W[-1], out=out.reshape(-1, 1))
        out += self.b[-1]
        return out

    def gradients(self, X, y, scratch=None):
        """Loss gradients, written into views of the flat gradient vector;
        returns (gW, gb, loss)."""
        n = X.shape[0]
        acts, spread, spare, out, err = scratch or self._scratch(n)
        gW, gb = self._gW, self._gb
        self._forward(X, acts, out)
        np.subtract(out, y, out=err)
        loss = float(np.add.reduce(np.multiply(err, err, out=out)) / n)
        delta = np.multiply(err, 2.0 / n, out=err).reshape(-1, 1)
        np.matmul(acts[-1].T, delta, out=gW[-1])
        np.add.reduce(delta, axis=0, out=gb[-1])
        # delta @ W[-1].T, which numpy forms as 0.0 + delta * w; the products
        # go into spare laid out (hidden, n), where their rows are contiguous
        hidden = spread.shape[1]
        outer = spare.reshape(hidden, n)
        np.add(np.multiply(self.W[-1], err, out=outer).T, 0.0, out=spread)
        for layer in range(len(acts) - 1, -1, -1):
            spread *= np.greater(acts[layer], 0.0, out=spare)
            np.matmul((acts[layer - 1] if layer else X).T, spread, out=gW[layer])
            if hidden == 1:
                np.add.reduce(spread, axis=0, out=gb[layer])
            else:
                np.einsum("ij->j", spread, out=gb[layer])
            if layer > 0:
                np.matmul(spread, self.W[layer].T, out=spare)
                spread, spare = spare, spread
        return gW, gb, loss

    def train(self, X, y):
        """Full-batch Adam with early stopping; returns the epochs run."""
        lr, epochs, patience, min_improvement = 1e-3, 500, 20, 1e-6
        q, g = self._theta, self._grad
        m, v, step, denom = (np.zeros_like(q) for _ in range(4))
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        scratch = self._scratch(X.shape[0])
        best = math.inf
        stall = 0
        t = 0
        for _ in range(epochs):
            loss = self.gradients(X, y, scratch)[2]
            t += 1
            # m, v are the moment estimates; q -= lr * mhat / (sqrt(vhat) + eps)
            m *= beta1
            m += np.multiply(g, 1 - beta1, out=step)
            v *= beta2
            v += np.multiply(np.multiply(g, 1 - beta2, out=step), g, out=step)
            np.divide(m, 1 - beta1**t, out=step)
            step *= lr
            np.divide(v, 1 - beta2**t, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            q -= step
            if loss < best - min_improvement:
                best = loss
                stall = 0
            else:
                stall += 1
                if stall >= patience:
                    break
        return t

    def predict(self, Q):
        acts = [np.empty((Q.shape[0], b.size)) for b in self.b[:-1]]
        return self._forward(Q, acts, np.empty(Q.shape[0]))


# ---------------------------------------------------------------------------
# Fitting entry point
# ---------------------------------------------------------------------------


def _mean_to_prob(mean_fn):
    # E[Z|x] = 2 eta(x) - 1 for Z in {-1, +1}
    return lambda X: np.clip((mean_fn(X) + 1.0) / 2.0, 0.0, 1.0)


def fit_estimator(spec: EstimatorSpec, data: Dataset, seed: SeedSpec) -> FittedEstimator:
    """Fit the estimation model on the original dataset.

    The result is deterministic given the seed.  Oracle specs delegate to the
    supplied true function.  Estimators that regress on labels (knn, rf, mlp)
    expose the class probability through (conditional mean + 1) / 2.
    """
    kind = spec.kind
    task = data.task
    X, y = data.features, data.responses
    n, p = data.n, data.p

    if kind == "oracle":
        if spec.oracle_fn is None:
            raise ValueError("oracle estimator requires oracle_fn")
        fn = spec.oracle_fn
        wrapped = lambda Q: np.asarray(fn(Q), dtype=float).reshape(-1)
        if task is TaskKind.REGRESSION:
            return FittedEstimator(kind, task, n, {}, wrapped)
        return FittedEstimator(kind, task, n, {}, wrapped, wrapped)

    if kind == "ols":
        if task is not TaskKind.REGRESSION:
            raise TaskMismatch("ols estimator requires a regression dataset")
        beta = _fit_ols(X, y)
        return FittedEstimator(kind, task, n, {"beta": beta}, lambda Q: Q @ beta)

    if kind == "logistic":
        if task is not TaskKind.CLASSIFICATION:
            raise TaskMismatch("logistic estimator requires a classification dataset")
        beta, nll = fit_logistic_mle(X, y, box=spec.box)
        prob = lambda Q: _sigmoid(Q @ beta)
        mean = lambda Q: 2.0 * _sigmoid(Q @ beta) - 1.0
        return FittedEstimator(kind, task, n, {"beta": beta, "nll": nll}, mean, prob)

    if kind == "knn":
        k = spec.k if spec.k is not None else default_knn_k(n, p)
        model = _KNN(X, y, k)
        mean = model.predict
        params = {"k": int(min(k, n))}
    elif kind == "rf":
        trees, depth = default_rf_shape(n)
        trees = spec.trees if spec.trees is not None else trees
        depth = spec.depth if spec.depth is not None else depth
        model = _Forest(X, y, int(trees), int(depth), seed.rng(101))
        mean = model.predict
        params = {"trees": int(trees), "depth": int(depth)}
    elif kind == "mlp":
        model = _MLP(p, spec.layers, spec.hidden, seed.rng(102))
        epochs = model.train(X, y)
        mean = model.predict
        params = {"layers": spec.layers, "hidden": spec.hidden, "epochs_run": epochs}
    else:  # pragma: no cover
        raise ValueError(kind)

    if task is TaskKind.REGRESSION:
        return FittedEstimator(kind, task, n, params, mean)
    return FittedEstimator(kind, task, n, params, mean, _mean_to_prob(mean))


def parse_estimator(text: str) -> EstimatorSpec:
    """Parse an estimator config entry, e.g. ``knn k=16`` or ``logistic box=4``;
    each kind takes only the parameters it reads."""
    kind = (text.split() or ["<empty>"])[0]
    if kind not in _ESTIMATOR_KEYS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    _, params = parse_spec(text, _ESTIMATOR_KEYS[kind])
    return EstimatorSpec(kind, **{k: (float if k == "box" else int)(v) for k, v in params.items()})
