import numpy as np
import pytest

from syndatum.datamodel import (
    Dataset,
    NoiseModel,
    SeedSpec,
    TaskKind,
    make_dataset,
    read_csv,
    sample_noise,
    write_csv,
)
from syndatum.errors import (
    DimensionMismatch,
    InvalidLabel,
    InvalidVariance,
    NonFiniteValue,
)


def test_make_dataset_well_formed():
    ds = make_dataset([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], TaskKind.REGRESSION)
    assert ds.n == 3 and ds.p == 1
    assert ds.task is TaskKind.REGRESSION


def test_make_dataset_rejects_invalid_label():
    with pytest.raises(InvalidLabel):
        make_dataset([[1.0], [2.0]], [1.0, 0.0], TaskKind.CLASSIFICATION)


def test_make_dataset_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        make_dataset([[1.0, 2.0], [3.0, 4.0]], [1.0], TaskKind.REGRESSION)


def test_make_dataset_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        make_dataset([[np.nan], [1.0]], [0.0, 1.0], TaskKind.REGRESSION)
    with pytest.raises(NonFiniteValue):
        make_dataset([[0.0], [1.0]], [np.inf, 1.0], TaskKind.REGRESSION)


def test_classification_accepts_pm_one():
    ds = make_dataset([[0.0], [1.0]], [-1.0, 1.0], TaskKind.CLASSIFICATION)
    assert set(ds.responses) == {-1.0, 1.0}


def test_dataset_is_immutable():
    ds = make_dataset([[1.0], [2.0]], [1.0, 2.0], TaskKind.REGRESSION)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0


def test_make_dataset_copies_the_callers_arrays():
    X = np.array([[1.0], [2.0]])
    y = np.array([1.0, 2.0])
    ds = make_dataset(X, y, TaskKind.REGRESSION)
    assert X.flags.writeable and y.flags.writeable
    X[0, 0], y[0] = 9.0, 9.0
    assert ds.features[0, 0] == 1.0 and ds.responses[0] == 1.0


def test_sample_noise_zero_variance():
    out = sample_noise(NoiseModel.gaussian(0.0), 100, SeedSpec(1))
    assert np.all(out == 0.0)


def test_sample_noise_bounded_uniform_support():
    out = sample_noise(NoiseModel.bounded_uniform(1.0), 10**6, SeedSpec(2))
    assert np.all(np.abs(out) <= np.sqrt(3.0) + 1e-12)


def test_sample_noise_gaussian_variance():
    out = sample_noise(NoiseModel.gaussian(1.0), 10**6, SeedSpec(3))
    assert 0.99 <= out.var() <= 1.01


def test_sample_noise_bounded_uniform_variance_within_one_percent():
    for var in (0.5, 1.0, 4.0):
        out = sample_noise(NoiseModel.bounded_uniform(var), 10**6, SeedSpec(4))
        assert abs(out.var() - var) <= 0.01 * var


def test_sample_noise_rejects_negative_variance():
    with pytest.raises(InvalidVariance):
        NoiseModel.gaussian(-1.0)


def test_seed_determinism_and_stream_isolation():
    a = sample_noise(NoiseModel.gaussian(1.0), 1000, SeedSpec(11, 3))
    b = sample_noise(NoiseModel.gaussian(1.0), 1000, SeedSpec(11, 3))
    c = sample_noise(NoiseModel.gaussian(1.0), 1000, SeedSpec(11, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_substreams_order_independent():
    s = SeedSpec(5, 1)
    first = s.rng(2).random(4)
    _ = s.rng(9).random(100)
    again = s.rng(2).random(4)
    assert np.array_equal(first, again)


def test_csv_round_trip_regression(tmp_path):
    ds = make_dataset(
        np.array([[0.5, -1.25], [2.0, 3.5]]), np.array([1.5, -0.25]), TaskKind.REGRESSION
    )
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    text = path.read_text().splitlines()
    assert text[0] == "x1,x2,y"
    back = read_csv(path, TaskKind.REGRESSION)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.responses, ds.responses)


def test_csv_labels_written_as_integers(tmp_path):
    ds = make_dataset([[0.0], [1.0]], [-1.0, 1.0], TaskKind.CLASSIFICATION)
    path = tmp_path / "labels.csv"
    write_csv(ds, path)
    lines = path.read_text().splitlines()
    assert lines[1].endswith(",-1")
    assert lines[2].endswith(",1")
    back = read_csv(path, TaskKind.CLASSIFICATION)
    assert np.array_equal(back.responses, ds.responses)
