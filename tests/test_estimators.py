import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _knn_reference, _mlp_predict_reference

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset, sample_noise
from syndatum.densities import BoxSupport, TruncatedNormalDiag
from syndatum.errors import NonConvergence, SingularDesign, TaskMismatch
from syndatum.estimators import (
    EstimatorSpec,
    _KNN,
    _MLP,
    default_knn_k,
    default_rf_shape,
    fit_estimator,
    fit_logistic_mle,
    parse_estimator,
)


def _regression_data(n, p, fn, noise_var, seed, box=3.0):
    rng = SeedSpec(seed).rng()
    X = rng.uniform(-box, box, size=(n, p))
    y = fn(X)
    if noise_var > 0:
        y = y + rng.normal(0.0, math.sqrt(noise_var), size=n)
    return make_dataset(X, y, TaskKind.REGRESSION)


def test_ols_exact_on_linear_data():
    ds = make_dataset([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], TaskKind.REGRESSION)
    est = fit_estimator(EstimatorSpec("ols"), ds, SeedSpec(0))
    assert est.fitted_params["beta"][0] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("p", [1, 3, 8])
def test_ols_recovers_linear_coefficients(p):
    rng = SeedSpec(100 + p).rng()
    beta = rng.normal(size=p)
    X = rng.normal(size=(200, p))
    ds = make_dataset(X, X @ beta, TaskKind.REGRESSION)
    est = fit_estimator(EstimatorSpec("ols"), ds, SeedSpec(0))
    assert np.allclose(est.fitted_params["beta"], beta, atol=1e-8)
    # normal-equation residual
    r = X.T @ (X @ est.fitted_params["beta"] - ds.responses)
    assert np.max(np.abs(r)) < 1e-8 * max(np.max(np.abs(X.T @ ds.responses)), 1.0)


def test_ols_singular_design():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear columns
    ds = make_dataset(X, [1.0, 2.0, 3.0], TaskKind.REGRESSION)
    with pytest.raises(SingularDesign):
        fit_estimator(EstimatorSpec("ols"), ds, SeedSpec(0))


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 4), n=st.integers(5, 60), seed=st.integers(0, 2**32 - 1))
def test_ols_is_least_squares_pickles_and_refuses_a_rank_deficient_design(p, n, seed):
    rng = np.random.default_rng(seed)
    X, y = rng.normal(size=(n, p)), rng.normal(size=n)
    est = fit_estimator(EstimatorSpec("ols"), make_dataset(X, y, TaskKind.REGRESSION), SeedSpec(0))
    assert est.mean(X).tobytes() == (X @ np.linalg.lstsq(X, y, rcond=None)[0]).tobytes()
    assert pickle.loads(pickle.dumps(est)).mean(X).tobytes() == est.mean(X).tobytes()
    X[:, -1] = 0.0
    with pytest.raises(SingularDesign, match="singular"):
        fit_estimator(EstimatorSpec("ols"), make_dataset(X, y, TaskKind.REGRESSION), SeedSpec(0))


def test_ols_requires_regression_task():
    ds = make_dataset([[1.0], [2.0]], [1.0, -1.0], TaskKind.CLASSIFICATION)
    with pytest.raises(TaskMismatch):
        fit_estimator(EstimatorSpec("ols"), ds, SeedSpec(0))


def test_default_hyperparameters():
    assert default_knn_k(1000, 2) == 32  # round(1000^(2/4))
    assert default_rf_shape(1600) == (60, 7)  # 1.5 sqrt(1600), floor(ln 1600)


def test_knn_k1_at_training_point():
    ds = make_dataset([[0.0], [1.0], [2.0]], [5.0, 7.0, 9.0], TaskKind.REGRESSION)
    est = fit_estimator(EstimatorSpec("knn", k=1), ds, SeedSpec(0))
    assert est.mean([1.0])[0] == pytest.approx(7.0)


def test_knn_k_equals_n_gives_global_mean():
    ds = make_dataset([[0.0], [1.0], [2.0]], [5.0, 7.0, 9.0], TaskKind.REGRESSION)
    est = fit_estimator(EstimatorSpec("knn", k=3), ds, SeedSpec(0))
    assert est.mean([123.0])[0] == pytest.approx(7.0)


def test_knn_tie_break_lowest_index():
    # duplicated training point with conflicting responses: lowest index wins
    ds = make_dataset([[0.0], [0.0], [5.0]], [1.0, 100.0, 9.0], TaskKind.REGRESSION)
    est = fit_estimator(EstimatorSpec("knn", k=1), ds, SeedSpec(0))
    assert est.mean([0.0])[0] == pytest.approx(1.0)
    # k=2 must take both duplicates, not the far point
    est2 = fit_estimator(EstimatorSpec("knn", k=2), ds, SeedSpec(0))
    assert est2.mean([0.0])[0] == pytest.approx(50.5)


@pytest.mark.parametrize("k", [1, 2, 7, 40, 149])
def test_knn_predict_matches_per_query_reference(k):
    # rounded features put many training rows at the same distance
    rng = SeedSpec(31).rng()
    X = np.round(rng.normal(size=(150, 2)), 1)
    y = rng.normal(size=150) * 1e3
    Q = np.vstack([X[:50], np.round(rng.normal(size=(300, 2)), 1), rng.normal(size=(300, 2)),
                   [[np.nan, 0.0], [0.5, np.nan]]])
    assert _KNN(X, y, k).predict(Q).tobytes() == _knn_reference(X, y, k, Q).tobytes()


@pytest.mark.parametrize("features", ["continuous", "rounded", "duplicated"])
@pytest.mark.parametrize("labels", [False, True])
def test_knn_one_feature_matches_per_query_reference(features, labels):
    # one feature takes the sorted-window path; rows it cannot prove (ties,
    # non-finite queries) take the brute-force kernel
    rng = SeedSpec(33).rng()
    n = 150
    x = rng.normal(size=n)
    if features == "rounded":
        x = np.round(x, 1)
    elif features == "duplicated":
        x = x[rng.integers(0, 30, size=n)]
    X = x[:, None]
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0) if labels else rng.normal(size=n) * 1e3
    Q = np.concatenate([x, rng.normal(size=300), rng.uniform(3.0, 50.0, size=20) * rng.choice([-1.0, 1.0], 20),
                        [np.inf, -np.inf, np.nan, -0.0]])[:, None]
    for k in (1, 2, 7, 40, n - 1, n):
        model = _KNN(X, y, k)
        with np.errstate(invalid="ignore"):  # inf * 0 in the distances of an infinite query
            got = model.predict(Q)
            # k = n is the global mean for every query but NaN
            want = _knn_reference(X, y, k, Q) if k < n else np.where(np.isnan(Q[:, 0]), np.nan, y.mean())
        assert got.tobytes() == want.tobytes(), k
        if features == "continuous" and k < n:  # only inf, -inf and NaN need the kernel
            assert model._window_predict(Q[:, 0], k)[1].tolist() == list(range(Q.shape[0] - 4, Q.shape[0] - 1))
        assert model.predict(np.empty((0, 1))).shape == (0,)


def _spread_features(rng, n, p, features):
    """n rows of p features: continuous, rounded to one decimal (ties in
    distance), or repeats of 30 distinct rows (ties in position)."""
    X = rng.normal(size=(n, p))
    if features == "rounded":
        X = np.round(X, 1)
    elif features == "duplicated":
        X = X[rng.integers(0, 30, size=n)]
    return X


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("features", ["continuous", "rounded", "duplicated"])
@pytest.mark.parametrize("labels", [False, True])
def test_knn_several_features_match_per_query_reference(monkeypatch, p, features, labels):
    # two or more features take the k-d tree path; rows it cannot prove
    # (ties, near-ties, non-finite queries) take the brute-force kernel
    rng = SeedSpec(35 + p).rng()
    n = 150
    X = _spread_features(rng, n, p, features)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0) if labels else rng.normal(size=n) * 1e3
    far = rng.uniform(3.0, 50.0, size=(20, p)) * rng.choice([-1.0, 1.0], (20, p))
    inside = rng.normal(size=(300, p))
    if features != "continuous":
        inside[:150] = np.round(inside[:150], 1)
    odd = np.zeros((5, p))
    odd[0], odd[1], odd[2, 0], odd[3, 1], odd[4, -1] = np.inf, -np.inf, np.nan, np.nan, np.inf
    Q = np.vstack([X, inside, far, odd])
    seen = []
    kernel = _KNN._kernel
    monkeypatch.setattr(_KNN, "_kernel", lambda self, Q, k: seen.append(Q.copy()) or kernel(self, Q, k))
    for k in (1, 2, 7, 40, n - 1, n):
        model = _KNN(X, y, k)
        seen.clear()
        with np.errstate(invalid="ignore"):  # inf * 0 in the distances of an infinite query
            got = model.predict(Q)
            # k = n is the global mean for every query but NaN
            want = _knn_reference(X, y, k, Q) if k < n else np.where(np.isnan(Q).any(axis=1), np.nan, y.mean())
        assert got.tobytes() == want.tobytes(), k
        if features == "continuous" and k < n:  # only the non-finite rows need the kernel
            assert len(seen) == 1 and seen[0].tobytes() == odd.tobytes(), k
        assert model.predict(np.empty((0, p))).shape == (0,)


def test_knn_lone_unproven_row_keeps_the_block_product():
    # numpy takes a one-row product to gemv, which can round a dot product
    # unlike the block product of the reference; a tied row that is the only
    # one left for the kernel must still get the block's answer
    rng = SeedSpec(37).rng()
    X = np.round(rng.normal(size=(150, 2)), 1)
    y = rng.normal(size=150) * 1e3
    ties = np.round(rng.normal(size=(400, 2)), 1)
    spread = rng.normal(size=(100, 2))
    for k in (1, 2, 7, 40):
        model = _KNN(X, y, k)
        left = ties[model._tree_predict(ties, k)[1]]
        proven = np.delete(spread, model._tree_predict(spread, k)[1], axis=0)[:3]
        assert left.shape[0] > 0 and proven.shape[0] == 3
        for row in left:
            Q = np.vstack([row, proven])
            assert model._tree_predict(Q, k)[1].tolist() == [0]
            assert model.predict(Q).tobytes() == _knn_reference(X, y, k, Q).tobytes(), (k, row)


def test_knn_training_set_at_one_point_takes_the_kernel():
    # every distance ties at 0 with the query at that point: nothing is proven
    # and the lowest indices win
    y = SeedSpec(38).rng().normal(size=20) * 1e3
    for p in (1, 2):
        X, Q = np.zeros((20, p)), np.zeros((4, p))
        for k in (1, 3, 19):
            model = _KNN(X, y, k)
            assert model.predict(Q).tobytes() == _knn_reference(X, y, k, Q).tobytes()
            assert np.all(model.predict(Q) == float(y[:k].sum()) / k)


def test_knn_training_set_not_finite_takes_the_kernel():
    rng = SeedSpec(39).rng()
    X = rng.normal(size=(60, 2))
    X[7, 1] = np.inf
    y = rng.normal(size=60)
    Q = rng.normal(size=(50, 2))
    model = _KNN(X, y, 5)
    assert model._tree is None and model._sorted is None
    with np.errstate(invalid="ignore"):
        assert model.predict(Q).tobytes() == _knn_reference(X, y, 5, Q).tobytes()


def test_knn_predict_on_100k_rows_does_not_depend_on_the_block():
    # the tree path takes the queries in chunks; each row's answer is its own
    rng = SeedSpec(38).rng()
    X = rng.normal(size=(800, 2))
    X[:200] = np.round(X[:200], 1)  # ties, for the kernel
    y = rng.normal(size=800)
    Q = rng.normal(size=(100_000, 2))
    Q[:5_000] = np.round(Q[:5_000], 1)
    model = _KNN(X, y, 28)
    whole = model.predict(Q)
    for block in (1_000, 7_919, 65_536):
        parts = [model.predict(Q[s : s + block]) for s in range(0, Q.shape[0], block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), block
    sub = np.r_[0:1_000, 99_000:100_000]
    assert whole[sub].tobytes() == _knn_reference(X, y, 28, Q[sub]).tobytes()


def test_knn_classification_prob_in_unit_interval():
    rng = SeedSpec(3).rng()
    X = rng.normal(size=(200, 2))
    z = np.where(X[:, 0] > 0, 1.0, -1.0)
    ds = make_dataset(X, z, TaskKind.CLASSIFICATION)
    est = fit_estimator(EstimatorSpec("knn", k=5), ds, SeedSpec(0))
    probs = est.prob(rng.normal(size=(500, 2)))
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_knn_consistency_trend():
    # L2(P_X) error of KNN for mu(x) = exp(x1) - exp(x2) halves from n=1000 to n=16000
    density = TruncatedNormalDiag(BoxSupport((-2.0, -2.0), (2.0, 2.0)), [1.0, 1.0], [1.0, 1.0])
    mu = lambda X: np.exp(X[:, 0]) - np.exp(X[:, 1])
    eval_X = density.sample(4000, SeedSpec(99))
    errs = {}
    for n in (1000, 16000):
        X = density.sample(n, SeedSpec(50 + n))
        y = mu(X) + SeedSpec(60 + n).rng().normal(0.0, 1.0, size=n)
        est = fit_estimator(EstimatorSpec("knn"), make_dataset(X, y, TaskKind.REGRESSION), SeedSpec(0))
        errs[n] = float(np.mean((est.mean(eval_X) - mu(eval_X)) ** 2))
    assert errs[16000] < 0.5 * errs[1000]


# every estimator kind with each task it fits
KIND_TASKS = [(k, TaskKind.REGRESSION) for k in ("oracle", "ols", "knn", "rf", "mlp")] + [
    (k, TaskKind.CLASSIFICATION) for k in ("oracle", "logistic", "knn", "rf", "mlp")
]


@pytest.mark.parametrize("kind, task", KIND_TASKS)
def test_estimate_is_the_task_view_and_the_other_view_raises(kind, task):
    rng = SeedSpec(40).rng()
    X = rng.uniform(-1, 1, size=(60, 2))
    if task is TaskKind.REGRESSION:
        y, view, other = X[:, 0] + rng.normal(0.0, 0.1, size=60), "mean", "prob"
    else:
        y, view, other = np.where(rng.random(60) < 0.5 + 0.4 * X[:, 0], 1.0, -1.0), "prob", "mean"
    truth = lambda Q: 0.5 + 0.4 * Q[:, 0]
    est = fit_estimator(EstimatorSpec(kind, oracle_fn=truth), make_dataset(X, y, task), SeedSpec(1))
    Q = SeedSpec(41).rng().uniform(-1, 1, size=(25, 2))
    assert np.array_equal(est(Q), getattr(est, view)(Q))
    with pytest.raises(TaskMismatch):
        getattr(est, other)(Q)


def _linear_probability(Q):
    return 0.5 + 0.4 * Q[:, 0]


@pytest.mark.parametrize("kind, task", KIND_TASKS)
def test_fitted_estimator_pickles_and_predicts_the_same_bytes(kind, task):
    rng = SeedSpec(42).rng()
    X = rng.uniform(-1, 1, size=(60, 2))
    if task is TaskKind.REGRESSION:
        y = X[:, 0] + rng.normal(0.0, 0.1, size=60)
    else:
        y = np.where(rng.random(60) < _linear_probability(X), 1.0, -1.0)
    spec = EstimatorSpec(kind, oracle_fn=_linear_probability)
    est = fit_estimator(spec, make_dataset(X, y, task), SeedSpec(1))
    copy = pickle.loads(pickle.dumps(est))
    Q = SeedSpec(43).rng().uniform(-1, 1, size=(25, 2))
    assert (copy.kind, copy.task, copy.training_n) == (est.kind, est.task, est.training_n)
    assert copy(Q).tobytes() == est(Q).tobytes()


def test_oracle_regression_and_classification():
    ds = make_dataset([[0.0], [1.0]], [0.0, 1.0], TaskKind.REGRESSION)
    est = fit_estimator(
        EstimatorSpec("oracle", oracle_fn=lambda X: np.abs(X[:, 0])), ds, SeedSpec(0)
    )
    assert est.mean([0.5])[0] == pytest.approx(0.5)
    with pytest.raises(TaskMismatch):
        est.prob([0.5])

    dc = make_dataset([[0.0], [1.0]], [1.0, -1.0], TaskKind.CLASSIFICATION)
    eta = fit_estimator(
        EstimatorSpec("oracle", oracle_fn=lambda X: np.ones(X.shape[0])), dc, SeedSpec(0)
    )
    assert eta.prob([0.3])[0] == pytest.approx(1.0)


def test_logistic_mle_monotone_and_accurate():
    rng = SeedSpec(8).rng()
    beta_star = np.array([1.0, -0.5])
    X = rng.uniform(-2, 2, size=(4000, 2))
    prob = 1.0 / (1.0 + np.exp(-X @ beta_star))
    z = np.where(rng.random(4000) < prob, 1.0, -1.0)
    beta, nll = fit_logistic_mle(X, z)
    assert np.allclose(beta, beta_star, atol=0.15)
    assert nll <= math.log(2.0)  # no worse than the zero-coefficient start


def test_logistic_prob_values():
    rng = SeedSpec(9).rng()
    X = rng.uniform(-2, 2, size=(2000, 1))
    prob = 1.0 / (1.0 + np.exp(-1.5 * X[:, 0]))
    z = np.where(rng.random(2000) < prob, 1.0, -1.0)
    ds = make_dataset(X, z, TaskKind.CLASSIFICATION)
    est = fit_estimator(EstimatorSpec("logistic"), ds, SeedSpec(0))
    beta = est.fitted_params["beta"][0]
    # 1/(1+exp(-ln 3)) = 3/4 at the point where x beta = ln 3
    assert est.prob([math.log(3.0) / beta])[0] == pytest.approx(0.75, abs=1e-9)
    assert est.prob([0.0])[0] == pytest.approx(0.5)


def test_logistic_box_clipping():
    rng = SeedSpec(10).rng()
    X = rng.uniform(-2, 2, size=(500, 1))
    prob = 1.0 / (1.0 + np.exp(-3.0 * X[:, 0]))
    z = np.where(rng.random(500) < prob, 1.0, -1.0)
    ds = make_dataset(X, z, TaskKind.CLASSIFICATION)
    est = fit_estimator(EstimatorSpec("logistic", box=0.5), ds, SeedSpec(0))
    assert np.max(np.abs(est.fitted_params["beta"])) <= 0.5 + 1e-12


def test_logistic_iteration_cap_raises_non_convergence():
    rng = SeedSpec(11).rng()
    X = rng.uniform(-2, 2, size=(4000, 2))
    prob = 1.0 / (1.0 + np.exp(-X @ np.array([1.0, -0.5])))
    z = np.where(rng.random(4000) < prob, 1.0, -1.0)
    with pytest.raises(NonConvergence):
        fit_logistic_mle(X, z, max_iter=2)


def test_logistic_separable_box_binds():
    # MLE diverges on separated data; the clip makes the box boundary bind
    X = np.array([[1.0], [2.0], [3.0], [-1.0], [-2.0]])
    z = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
    ds = make_dataset(X, z, TaskKind.CLASSIFICATION)
    est = fit_estimator(EstimatorSpec("logistic", box=2.0), ds, SeedSpec(0))
    assert abs(est.fitted_params["beta"][0]) == pytest.approx(2.0)


def test_rf_single_depth_zero_tree_is_training_mean():
    ds = _regression_data(64, 2, lambda X: X[:, 0], 0.5, seed=21)
    est = fit_estimator(EstimatorSpec("rf", trees=1, depth=1000), ds, SeedSpec(5))
    # depth... single tree uses the full sample; depth 0 collapses to the mean
    est0 = fit_estimator(EstimatorSpec("rf", trees=1, depth=1), ds, SeedSpec(5))
    assert est0.fitted_params["trees"] == 1
    est_depth0 = fit_estimator(EstimatorSpec("rf", trees=1), ds, SeedSpec(5))
    from syndatum.estimators import _Forest

    forest = _Forest(ds.features, ds.responses, 1, 0, SeedSpec(5).rng())
    pred = forest.predict(np.array([[0.0, 0.0], [9.0, -9.0]]))
    assert np.allclose(pred, ds.responses.mean())
    assert est.training_n == 64


def _cart_reference(X, y, max_depth, Q):
    """Plain CART predictions: each node stable-sorts its own rows per feature
    and takes the first best variance-reduction split (lowest feature on
    ties); children are grown depth first."""

    def grow(idx, depth):
        ys = y[idx]
        leaf = ("leaf", float(ys.mean()))
        if depth >= max_depth or idx.shape[0] < 2 or np.ptp(ys) == 0.0:
            return leaf
        m, total, best_score, best = idx.shape[0], ys.sum(), -np.inf, None
        for j in range(X.shape[1]):
            order = np.argsort(X[idx, j], kind="stable")
            xs = X[idx[order], j]
            prefix = np.cumsum(ys[order])[:-1]
            valid = xs[:-1] < xs[1:]
            if not valid.any():
                continue
            counts = np.arange(1, m)
            score = prefix**2 / counts + (total - prefix) ** 2 / (m - counts)
            score[~valid] = -np.inf
            i = int(np.argmax(score))
            if score[i] > best_score + 1e-12:
                best_score, best = score[i], (j, 0.5 * (xs[i] + xs[i + 1]))
        if best is None:
            return leaf
        j, thr = best
        mask = X[idx, j] <= thr
        if mask.all():  # the midpoint rounded onto the largest value
            return leaf
        return ("split", j, thr, grow(idx[mask], depth + 1), grow(idx[~mask], depth + 1))

    def predict(node, q):
        while node[0] == "split":
            node = node[3] if q[node[1]] <= node[2] else node[4]
        return node[1]

    root = grow(np.arange(y.shape[0]), 0)
    return np.array([predict(root, q) for q in Q])


@pytest.mark.parametrize("p, depth", [(1, 3), (2, 6), (3, 12)])
def test_rf_tree_matches_per_node_sort_reference(p, depth):
    # rounded features give tied split candidates; rounded responses give
    # constant nodes
    rng = SeedSpec(32 + p).rng()
    X = np.round(rng.normal(size=(300, p)), 1)
    y = np.round(X[:, 0] ** 2 + rng.normal(size=300), 1)
    Q = np.vstack([X, rng.normal(size=(200, p))])
    from syndatum.estimators import _Forest

    forest = _Forest(X, y, 1, depth, SeedSpec(5).rng())
    assert forest.predict(Q).tobytes() == _cart_reference(X, y, depth, Q).tobytes()


@pytest.mark.parametrize("depth", [0, 4])
def test_rf_one_feature_step_table_matches_tree_sum(depth):
    rng = SeedSpec(34).rng()
    X = np.round(rng.normal(size=(200, 1)), 1)
    y = np.sin(3.0 * X[:, 0]) + rng.normal(size=200)
    from syndatum.estimators import _Forest

    forest = _Forest(X, y, 7, depth, SeedSpec(6).rng())
    cuts = forest._steps[0]
    assert cuts.size == 0 if depth == 0 else cuts.size > 7
    # at, just below and just above every threshold, and the non-finite ends
    Q = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf), rng.normal(size=100) * 3.0,
                        [np.inf, -np.inf, np.nan, -0.0, 0.0]])[:, None]
    want = np.zeros(Q.shape[0])
    for tree in forest.trees:
        want += tree.predict(Q)
    assert forest.predict(Q).tobytes() == (want / len(forest.trees)).tobytes()


def _tree_order_walk(forest, Q):
    out = np.zeros(Q.shape[0])
    for tree in forest.trees:
        out += tree.predict(Q)
    return out / len(forest.trees)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("depth", [0, 4, 7])
def test_rf_cell_table_matches_tree_walk(monkeypatch, p, depth):
    import syndatum.estimators as estimators

    rng = SeedSpec(36 + p).rng()
    X = np.round(rng.normal(size=(150, p)), 1)
    y = np.sin(3.0 * X[:, 0]) * X[:, -1] + rng.normal(size=150)
    forest = estimators._Forest(X, y, 5, depth, SeedSpec(7).rng())
    # at, just below and just above every threshold of each feature, with the
    # other features at random; then the non-finite values and both zeros
    probes = []
    for j in range(p):
        cuts = np.unique(np.concatenate([t.threshold[t.feature == j] for t in forest.trees]))
        at = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)])
        rows = rng.normal(size=(at.size, p)) * 2.0
        rows[:, j] = at
        probes.append(rows)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
    grid = np.stack(np.meshgrid(*[special] * p, indexing="ij"), axis=-1).reshape(-1, p)
    Q = np.vstack(probes + [grid])
    assert forest.predict(Q[:0]).shape == (0,)
    cells = forest._cell_count
    Q = np.vstack([Q, rng.normal(size=(max(0, cells - Q.shape[0]), p)) * 2.0])
    want = _tree_order_walk(forest, Q)

    walked = []
    walk = estimators._Tree.predict
    monkeypatch.setattr(estimators._Tree, "predict", lambda self, Q: walked.append(Q.shape[0]) or walk(self, Q))
    # fewer rows than cells: the trees are walked
    assert forest.predict(Q[: cells - 1]).tobytes() == want[: cells - 1].tobytes()
    assert forest._cells is None and walked == [cells - 1] * 5
    # as many rows as cells: each cell is walked once, then looked up
    walked.clear()
    assert forest.predict(Q).tobytes() == want.tobytes()
    assert forest._cells is not None and sum(walked) == cells
    walked.clear()
    assert forest.predict(Q[::-1]).tobytes() == want[::-1].tobytes()
    assert forest.predict(np.empty((0, p))).shape == (0,)
    assert walked == []


def test_rf_non_finite_threshold_keeps_the_walk():
    # a split between -inf and inf has a NaN midpoint: the cells do not hold
    from syndatum.estimators import _Forest

    X = np.array([[-np.inf, 0.0], [np.inf, 1.0], [0.5, 2.0], [0.25, 3.0]] * 5)
    y = np.arange(20.0)
    with np.errstate(invalid="ignore"):
        forest = _Forest(X, y, 3, 3, SeedSpec(9).rng())
    Q = np.vstack([X, [[np.nan, 0.0], [0.0, np.nan]]] * 50)
    assert forest.predict(Q).tobytes() == _tree_order_walk(forest, Q).tobytes()
    assert forest._cell_count == math.inf and forest._cells is None


def _forest_reference(X, y, n_trees, depth, seed, Q):
    """The tree-order average of plain CART trees, each grown on the
    bootstrap draw the forest makes for it."""
    rng = SeedSpec(seed).rng()
    out = np.zeros(Q.shape[0])
    for _ in range(n_trees):
        idx = rng.integers(0, X.shape[0], size=X.shape[0]) if n_trees > 1 else np.arange(X.shape[0])
        out += _cart_reference(X[idx], y[idx], depth, Q)
    return out / n_trees


@pytest.mark.parametrize("caps", [None, (300, 40)])
@pytest.mark.parametrize("p, depth, data", [(1, 0, "rounded"), (1, 5, "rounded"), (2, 3, "rounded"), (2, 40, "rounded"),
                                            (3, 7, "rounded"), (2, 6, "mirrored"), (2, 6, "wide")])
def test_rf_forest_matches_cart_reference_on_its_bootstraps(monkeypatch, caps, p, depth, data):
    # rounded features tie split candidates and rounded responses make
    # constant nodes; depth 40 is deeper than any tree grows.  A mirrored
    # feature ties every split score up to rounding, and responses of wide
    # magnitude make the prefix sums depend on the order of tied rows.  Small
    # caps spread the trees over several batches and the nodes over blocks
    import syndatum.estimators as estimators

    if caps is not None:
        monkeypatch.setattr(estimators, "_BATCH_ROWS", caps[0])
        monkeypatch.setattr(estimators, "_BLOCK_CELLS", caps[1])
    rng = SeedSpec(40 + p).rng()
    X = np.round(rng.normal(size=(120, p)), 1)
    y = np.round(np.sin(2.0 * X[:, 0]) + 0.5 * rng.normal(size=120), 1)
    if data == "mirrored":
        X[:, 1] = -X[:, 0]
    elif data == "wide":
        y = rng.normal(size=120) * 10.0 ** rng.uniform(-8, 8, size=120)
    Q = np.vstack([X, rng.normal(size=(100, p)) * 2.0])
    forest = estimators._Forest(X, y, 9, depth, SeedSpec(8).rng())
    assert forest.predict(Q).tobytes() == _forest_reference(X, y, 9, depth, 8, Q).tobytes()


def test_rf_split_whose_midpoint_rounds_onto_the_largest_value_is_not_made():
    # 0.5 * (a + b) rounds to b for these neighbours: every row would go
    # left and leave an empty child, so such a node stays a leaf
    from syndatum.estimators import _Forest

    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert 0.5 * (a + b) == b
    rng = SeedSpec(44).rng()
    X = np.column_stack([np.tile([a, b], 20), rng.normal(size=40)])
    y = np.where(X[:, 0] == a, 0.0, 1.0) + 0.01 * rng.normal(size=40)
    Q = np.vstack([X, [[2.0, 0.0], [b, 5.0]]])
    got = _Forest(X, y, 4, 3, SeedSpec(9).rng()).predict(Q)
    assert np.all(np.isfinite(got)) and got.tobytes() == _forest_reference(X, y, 4, 3, 9, Q).tobytes()


def _fig3_like(n):
    """A draw like a fig3 unit's: two truncated-normal features, exp(x1) -
    exp(x2) plus unit Gaussian noise; and 2000 query points."""
    density = TruncatedNormalDiag(BoxSupport((-2.0, -2.0), (2.0, 2.0)), [1.0, 1.0], [1.0, 1.0])
    X = density.sample(n, SeedSpec(41, n))
    y = np.exp(X[:, 0]) - np.exp(X[:, 1]) + SeedSpec(42, n).rng().normal(size=n)
    return make_dataset(X, y, TaskKind.REGRESSION), density.sample(2000, SeedSpec(43))


@pytest.mark.pins
@pytest.mark.parametrize(
    "kind, n, digest",
    [
        ("rf", 100, "1598b216dad4c102164e18f4d044253ab3af58245104c10f3e946d79ed531b9b"),
        ("rf", 1600, "d98be9835a005d3baf9b8fabb973f6490cb2ff90cd130e55e78f274988af2d42"),
        ("mlp", 100, "8a08c0e96eeac68204ee76a9d32c543230cbceed8e171b9af97f58af258bb250"),
        ("mlp", 1600, "32d2e382c6a28b553347655c731edf6d1f30674a3f520128e5fbc9568b92c6ee"),
    ],
)
def test_rf_and_mlp_means_pinned(kind, n, digest):
    # golden pins: SHA-256 of the fitted mean at 2000 points, default shapes
    ds, Q = _fig3_like(n)
    est = fit_estimator(EstimatorSpec(kind), ds, SeedSpec(7))
    assert hashlib.sha256(est.mean(Q).tobytes()).hexdigest() == digest


def test_rf_fits_signal_better_than_mean():
    ds = _regression_data(800, 2, lambda X: np.exp(X[:, 0]) - np.exp(X[:, 1]), 0.25, seed=22, box=2.0)
    est = fit_estimator(EstimatorSpec("rf"), ds, SeedSpec(6))
    eval_X = SeedSpec(23).rng().uniform(-2, 2, size=(2000, 2))
    mu = np.exp(eval_X[:, 0]) - np.exp(eval_X[:, 1])
    rf_err = np.mean((est.mean(eval_X) - mu) ** 2)
    mean_err = np.mean((ds.responses.mean() - mu) ** 2)
    assert rf_err < 0.3 * mean_err


def test_rf_deterministic_given_seed():
    ds = _regression_data(300, 2, lambda X: X[:, 0] * X[:, 1], 0.2, seed=24)
    q = SeedSpec(25).rng().uniform(-3, 3, size=(50, 2))
    a = fit_estimator(EstimatorSpec("rf"), ds, SeedSpec(7)).mean(q)
    b = fit_estimator(EstimatorSpec("rf"), ds, SeedSpec(7)).mean(q)
    c = fit_estimator(EstimatorSpec("rf"), ds, SeedSpec(8)).mean(q)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mlp_zero_weights_outputs_bias():
    mlp = _MLP(3, 4, 10, SeedSpec(1).rng())
    for W in mlp.W:
        W[:] = 0.0
    mlp.b[-1][:] = 1.25
    out = mlp.predict(np.zeros((5, 3)))
    assert np.allclose(out, 1.25)


def test_mlp_gradient_check():
    rng = SeedSpec(2).rng()
    mlp = _MLP(2, 4, 10, rng)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    gW, gb, _ = mlp.gradients(X, y)
    h = 1e-6
    errs = []
    for layer in (0, len(mlp.W) - 1):
        W = mlp.W[layer]
        for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
            orig = W[idx]
            W[idx] = orig + h
            lp = float(np.mean((mlp.predict(X) - y) ** 2))
            W[idx] = orig - h
            lm = float(np.mean((mlp.predict(X) - y) ** 2))
            W[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = gW[layer][idx]
            errs.append(abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    assert max(errs) < 1e-4


def _mlp_reference(X, y, layers, hidden, rng):
    """The network trained by full-batch Adam with one update per parameter
    array.  Returns the weights, the biases, the epochs run and a predictor."""
    sizes = [X.shape[1]] + [hidden] * layers + [1]
    W = [rng.normal(0.0, math.sqrt(2.0 / sizes[i]), size=(sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)]
    b = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    def forward(Q):
        cache = [Q]
        for Wi, bi in zip(W[:-1], b[:-1]):
            cache.append(np.maximum(cache[-1] @ Wi + bi, 0.0))
        return (cache[-1] @ W[-1] + b[-1]).ravel(), cache

    lr, patience, min_improvement = 1e-3, 20, 1e-6
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = W + b
    m = [np.zeros_like(q) for q in params]
    v = [np.zeros_like(q) for q in params]
    best, stall, t = math.inf, 0, 0
    for _ in range(500):
        out, cache = forward(X)
        gW, gb = [None] * len(W), [None] * len(b)
        delta = (2.0 / X.shape[0]) * (out - y).reshape(-1, 1)
        gW[-1] = cache[-1].T @ delta
        gb[-1] = delta.sum(axis=0)
        back = delta @ W[-1].T
        for layer in range(len(W) - 2, -1, -1):
            back = back * (cache[layer + 1] > 0.0)
            gW[layer] = cache[layer].T @ back
            gb[layer] = back.sum(axis=0)
            if layer > 0:
                back = back @ W[layer].T
        loss = float(np.mean((out - y) ** 2))
        t += 1
        for q, g, mi, vi in zip(params, gW + gb, m, v):
            mi *= beta1
            mi += (1 - beta1) * g
            vi *= beta2
            vi += (1 - beta2) * g * g
            mhat = mi / (1 - beta1**t)
            vhat = vi / (1 - beta2**t)
            q -= lr * mhat / (np.sqrt(vhat) + eps)
        if loss < best - min_improvement:
            best, stall = loss, 0
        else:
            stall += 1
            if stall >= patience:
                break
    return W, b, t, lambda Q: forward(Q)[0]


def _assert_mlp_matches_reference(n, p, layers, hidden, scale, seed, weights=61):
    rng = SeedSpec(seed).rng()
    X = rng.normal(size=(n, p)) * scale
    y = (np.sin(2.0 * X[:, 0] / scale) + 0.1 * rng.normal(size=n)) * scale
    mlp = _MLP(p, layers, hidden, SeedSpec(weights).rng())
    epochs = mlp.train(X, y)
    W, b, t, predict = _mlp_reference(X, y, layers, hidden, SeedSpec(weights).rng())
    assert epochs == t
    for got, want in zip(mlp.W + mlp.b, W + b):
        assert got.tobytes() == want.tobytes()
    Q = rng.normal(size=(50, p)) * scale
    assert mlp.predict(Q).tobytes() == predict(Q).tobytes()
    return t


def _mlp_case(n, p, layers, hidden, scale, weights=61):
    return pytest.param(n, p, layers, hidden, scale, weights, id=f"{n}-{p}-{layers}-{hidden}-{scale}")


@pytest.mark.parametrize(
    "n, p, layers, hidden, scale, weights",
    [
        _mlp_case(60, 1, 1, 3, 1.0),
        _mlp_case(150, 2, 4, 10, 1.0),
        _mlp_case(400, 3, 2, 7, 1.0),
        _mlp_case(80, 2, 3, 5, 1e-3),
        # hidden = 1, with weight seeds whose single-unit layers are not dead
        # from the start: each bias gradient is a one-column sum
        _mlp_case(90, 2, 3, 1, 1.0, weights=6),
        _mlp_case(70, 1, 2, 1, 1e-3, weights=1),
        _mlp_case(1600, 2, 4, 10, 1.0),  # a fig3 unit's size and default shape
    ],
)
def test_mlp_flat_adam_matches_per_parameter_reference(n, p, layers, hidden, scale, weights):
    # scale 1e-3 keeps the loss under the improvement threshold: early stop
    t = _assert_mlp_matches_reference(n, p, layers, hidden, scale, 60 + n, weights)
    assert (t < 500) == (scale < 1.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 200),
    p=st.integers(1, 3),
    layers=st.integers(1, 4),
    hidden=st.integers(1, 6),
    scale=st.sampled_from([1.0, 1e-3]),
    seed=st.integers(0, 2**16),
    weights=st.integers(0, 2**16),
)
def test_mlp_train_matches_reference_property(n, p, layers, hidden, scale, seed, weights):
    _assert_mlp_matches_reference(n, p, layers, hidden, scale, seed, weights)


@pytest.mark.parametrize("layers", [1, 2, 3, 4])
@pytest.mark.parametrize("hidden", [1, 10])
def test_mlp_predict_matches_one_buffer_per_layer_reference(layers, hidden):
    # the hidden layers take turns in two buffers; each product keeps its shape
    rng = SeedSpec(70 + layers).rng()
    mlp = _MLP(2, layers, hidden, rng)
    for b in mlp.b:
        b[...] = rng.normal(size=b.shape)
    for rows in (1, 2, 5_000):
        Q = rng.normal(size=(rows, 2))
        assert mlp.predict(Q).tobytes() == _mlp_predict_reference(mlp.W, mlp.b, Q).tobytes(), rows


def test_knn_and_mlp_predict_working_set_is_bounded():
    # 100k rows, as in a population optimum: the knn tree path's query chunks
    # and the mlp's two activation buffers bound what a call allocates
    rng = SeedSpec(39).rng()
    rows, hidden = 100_000, 10
    Q = rng.normal(size=(rows, 2))
    knn = _KNN(rng.normal(size=(800, 2)), rng.normal(size=800), 28)
    mlp = _MLP(2, 4, hidden, rng)

    def peak(predict):
        tracemalloc.start()
        try:
            predict(Q)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(knn.predict) <= 4 * 2**20
    # two (rows, hidden) buffers, the (rows,) output and 1 MiB of slack
    assert peak(mlp.predict) <= 2 * rows * hidden * 8 + rows * 8 + 2**20


def test_mlp_keeps_no_training_scratch():
    # a fitted network holds its parameters and gradients, no n-row arrays
    n = 137
    ds = _regression_data(n, 2, lambda X: X[:, 0], 0.1, seed=28)
    mlp = fit_estimator(EstimatorSpec("mlp"), ds, SeedSpec(3))._fn.__self__
    arrays = [a for v in vars(mlp).values() for a in (v if isinstance(v, list) else [v])]
    assert all(isinstance(a, np.ndarray) for a in arrays)
    assert not [a.shape for a in arrays if n in a.shape]


def test_mlp_learns_linear_function():
    ds = _regression_data(500, 2, lambda X: X[:, 0] - 0.5 * X[:, 1], 0.0, seed=26, box=1.0)
    est = fit_estimator(EstimatorSpec("mlp"), ds, SeedSpec(9))
    eval_X = SeedSpec(27).rng().uniform(-1, 1, size=(500, 2))
    mu = eval_X[:, 0] - 0.5 * eval_X[:, 1]
    assert np.mean((est.mean(eval_X) - mu) ** 2) < 0.05


def test_parse_estimator():
    spec = parse_estimator("knn k=16")
    assert spec.kind == "knn" and spec.k == 16
    spec = parse_estimator("logistic box=4")
    assert spec.box == 4.0
    spec = parse_estimator("rf trees=50 depth=5")
    assert (spec.trees, spec.depth) == (50, 5)
    with pytest.raises(ValueError):
        parse_estimator("svm")
    # a kind takes only the parameters it reads
    for text in ("knn depth=3", "knn trees=5 box=2", "rf k=3", "mlp box=1", "logistic k=2", "ols k=1"):
        with pytest.raises(ValueError, match="bad parameter"):
            parse_estimator(text)
    for text in ("knn k=0", "rf depth=0", "mlp hidden=0", "mlp hidden=-2", "mlp layers=0", "mlp layers=-1"):
        with pytest.raises(ValueError, match="must be a positive integer"):
            parse_estimator(text)
    # a logistic box that would pin every coefficient to -1 or make them NaN
    for text in ("logistic box=-1", "logistic box=0", "logistic box=nan", "logistic box=inf"):
        with pytest.raises(ValueError, match="box must be a finite number > 0"):
            parse_estimator(text)
