import numpy as np
import pytest

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset
from syndatum.densities import BoxSupport, LinearTilt1D, UniformBox
from syndatum.errors import EmptyOriginal
from syndatum.estimators import EstimatorSpec, fit_estimator
from syndatum.synthesis import (
    residual_variance,
    synthesize_dataset,
    synthesize_from_fitted,
    synthetic_noise,
)

NONE = NoiseModel.none()


def _oracle(fn, task):
    # the oracle ignores its training data; +1 is a valid response for either task
    data = make_dataset([[0.0]], [1.0], task)
    return fit_estimator(EstimatorSpec("oracle", oracle_fn=fn), data, SeedSpec(0))


def _zero(task=TaskKind.REGRESSION):
    return _oracle(lambda X: np.zeros(X.shape[0]), task)


def _box(*bounds):
    lo, hi = zip(*bounds)
    return UniformBox(BoxSupport(lo, hi))


def test_from_density_support():
    out = synthesize_from_fitted(_zero(), _box((-1.0, 1.0), (-1.0, 1.0)), 10**4, NONE, SeedSpec(2))
    assert out.features.shape == (10**4, 2)
    assert np.all((out.features >= -1.0) & (out.features <= 1.0))


def test_from_density_tilt_zero_mean():
    out = synthesize_from_fitted(_zero(), LinearTilt1D(0.0), 10**5, NONE, SeedSpec(3))
    assert 0.99 <= out.features.mean() <= 1.01


def test_regression_responses_oracle_noise_free():
    est = _oracle(lambda X: np.abs(X[:, 0]), TaskKind.REGRESSION)
    out = synthesize_from_fitted(est, _box((-1.0, 1.0)), 50, NONE, SeedSpec(4))
    assert np.array_equal(out.responses, np.abs(out.features[:, 0]))


def test_regression_responses_ols_dot_product():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ds = make_dataset(X, X @ np.array([1.0, -1.0]), TaskKind.REGRESSION)
    est = fit_estimator(EstimatorSpec("ols"), ds, SeedSpec(0))
    out = synthesize_from_fitted(est, _box((0.0, 3.0), (0.0, 3.0)), 20, NONE, SeedSpec(5))
    assert np.allclose(out.responses, out.features[:, 0] - out.features[:, 1], atol=1e-10)


def test_regression_responses_variance_propagation():
    noise = NoiseModel.bounded_uniform(4.0)
    out = synthesize_from_fitted(_zero(), _box((-1.0, 1.0)), 10**6, noise, SeedSpec(6))
    assert 3.96 <= out.responses.var() <= 4.04


def test_classification_responses_degenerate():
    cls = TaskKind.CLASSIFICATION
    ones = _oracle(lambda X: np.ones(X.shape[0]), cls)
    density = _box((-1.0, 1.0))
    assert np.all(synthesize_from_fitted(ones, density, 1000, None, SeedSpec(7)).responses == 1.0)
    assert np.all(synthesize_from_fitted(_zero(cls), density, 1000, None, SeedSpec(7)).responses == -1.0)


def test_classification_responses_balanced_fraction():
    half = _oracle(lambda X: np.full(X.shape[0], 0.5), TaskKind.CLASSIFICATION)
    out = synthesize_from_fitted(half, _box((-1.0, 1.0)), 10**6, None, SeedSpec(8))
    frac = np.mean(out.responses == 1.0)
    assert 0.498 <= frac <= 0.502


def test_classification_bin_frequencies_match_probabilities():
    est = _oracle(lambda X: X[:, 0], TaskKind.CLASSIFICATION)
    out = synthesize_from_fitted(est, _box((0.0, 1.0)), 10**5, None, SeedSpec(9))
    F, z = out.features, out.responses
    bins = np.linspace(0.0, 1.0, 11)
    idx = np.clip(np.digitize(F[:, 0], bins) - 1, 0, 9)
    for b in range(10):
        sel = idx == b
        m = int(sel.sum())
        p_hat = np.mean(z[sel] == 1.0)
        p_bar = np.mean(est.prob(F[sel]))
        tol = 4.0 * np.sqrt(max(p_bar * (1 - p_bar), 1e-4) / m)
        assert abs(p_hat - p_bar) <= tol


ABS_ORACLE = EstimatorSpec("oracle", oracle_fn=lambda X: np.abs(X[:, 0]))


def _abs_original(seed, n=500, noise_sd=0.0):
    rng = SeedSpec(seed).rng()
    X = rng.uniform(-1, 1, size=(n, 1))
    y = np.abs(X[:, 0]) + (rng.normal(0, noise_sd, size=n) if noise_sd else 0.0)
    return make_dataset(X, y, TaskKind.REGRESSION)


def test_synthesize_dataset_deterministic():
    original = _abs_original(20)
    args = (ABS_ORACLE, original, _box((-1.0, 1.0)), 2000, NoiseModel.bounded_uniform(0.25), SeedSpec(21, 3))
    a, b = synthesize_dataset(*args), synthesize_dataset(*args)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.responses, b.responses)
    assert a.task is TaskKind.REGRESSION and a.n == 2000


def test_synthesize_dataset_is_fit_then_synthesize_from_fitted():
    # the estimator fits at seed.child(1); the noise None resolves by synthetic_noise
    original = _abs_original(28, noise_sd=0.5)
    spec, density, seed = EstimatorSpec("knn"), _box((-1.0, 1.0)), SeedSpec(29)
    est = fit_estimator(spec, original, seed.child(1))
    want = synthesize_from_fitted(est, density, 300, synthetic_noise(None, est, original), seed)
    got = synthesize_dataset(spec, original, density, 300, None, seed)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.responses, want.responses)


def test_synthesize_dataset_rejects_an_empty_original():
    empty = make_dataset(np.zeros((0, 1)), np.zeros(0), TaskKind.REGRESSION)
    with pytest.raises(EmptyOriginal):
        synthesize_dataset(ABS_ORACLE, empty, _box((-1.0, 1.0)), 10, None, SeedSpec(0))


def test_synthesize_reconstruction_identity():
    # responses minus the estimator mean are exactly the bounded noise draws
    var = 0.09
    synth = synthesize_dataset(ABS_ORACLE, _abs_original(22), _box((-1.0, 1.0)), 2000,
                               NoiseModel.bounded_uniform(var), SeedSpec(23))
    resid = synth.responses - np.abs(synth.features[:, 0])
    assert np.max(np.abs(resid)) <= np.sqrt(3 * var) + 1e-12
    assert abs(resid.var() - var) < 0.02


def test_default_synthetic_noise_uses_residual_variance():
    original = _abs_original(24, n=4000, noise_sd=1.0)
    rv = residual_variance(fit_estimator(ABS_ORACLE, original, SeedSpec(0)), original)
    assert abs(rv - 1.0) < 0.1
    synth = synthesize_dataset(ABS_ORACLE, original, _box((-1.0, 1.0)), 2000, None, SeedSpec(25))
    resid = synth.responses - np.abs(synth.features[:, 0])
    assert abs(resid.var() - rv) < 0.1


def test_synthesize_classification_pipeline():
    rng = SeedSpec(26).rng()
    X = rng.uniform(-1, 1, size=(800, 1))
    eta = lambda M: 1.0 / (1.0 + np.exp(-2.0 * M[:, 0]))
    z = np.where(rng.random(800) < eta(X), 1.0, -1.0)
    original = make_dataset(X, z, TaskKind.CLASSIFICATION)
    density = _box((-1.0, 1.0))
    synth = synthesize_dataset(EstimatorSpec("logistic"), original, density, 5000, None, SeedSpec(27))
    assert synth.task is TaskKind.CLASSIFICATION
    assert set(np.unique(synth.responses)) <= {-1.0, 1.0}
    # positive labels should be more frequent at positive x
    pos = synth.responses[synth.features[:, 0] > 0.5]
    neg = synth.responses[synth.features[:, 0] < -0.5]
    assert np.mean(pos == 1.0) > 0.6 > np.mean(neg == 1.0)
