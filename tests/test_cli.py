import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from syndatum.cli import main
from syndatum.datamodel import TaskKind, read_csv

REG_CONFIG = """
[demo]
task = regression
real_density = uniform-box lower=-1 upper=1
synth_density = piecewise breaks=-1,0,1 heights=0.25,0.75
truth = abs
noise = gaussian var=0.25
estimators = oracle
model_classes = linear; abs
n_grid = 128
replications = 2
n_test = 2000
master_seed = 5
"""

LR_CONFIG = """
[lr]
task = regression
real_density = trunc-normal lower=-4,-4 upper=4,4 mean=0,0 var=1,1
synth_density = uniform-box lower=-4,-4 upper=4,4
truth = linear beta=1,-1
noise = gaussian var=1
synth_noise = bounded-uniform var=1
estimators = ols
model_classes = linear
n_grid = 200
replications = 1
n_test = 2000
master_seed = 11
"""

CLS_CONFIG = """
[cls]
task = classification
real_density = piecewise breaks=-1,0,1 heights=0.75,0.25
synth_density = piecewise breaks=-1,0,1 heights=0.25,0.75
truth = step-pos
estimators = oracle
model_classes = sign-abs; sign-linear
n_grid = 256
replications = 1
n_test = 2000
master_seed = 3
"""


def _sha(path) -> str:
    """Golden pin: SHA-256 of an output file, recorded from the seeded code."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def reg_config(tmp_path):
    path = tmp_path / "reg.ini"
    path.write_text(REG_CONFIG)
    return path


@pytest.mark.pins
def test_experiment_with_config(tmp_path, reg_config):
    out = tmp_path / "out"
    code = main(["experiment", "--config", str(reg_config), "--out", str(out)])
    assert code == 0
    lines = (out / "rows.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["groups"]
    assert _sha(out / "rows.csv") == "7b41ff1a8cc2b384ffb52f6f69c26985870081e75463286d871611684a00297d"
    assert _sha(out / "summary.json") == "3095d11a846f3f5cd04ba940117ce670bbfb0d807d9d35469f300b1ec4f65386"


def test_experiment_builtin(tmp_path):
    out = tmp_path / "out"
    code = main(["experiment", "toy-5.1", "--out", str(out)])
    assert code == 0
    assert (out / "rows.csv").exists() and (out / "summary.json").exists()


def test_experiment_requires_builtin_or_config(tmp_path):
    assert main(["experiment", "--out", str(tmp_path / "o")]) == 1
    assert main(["experiment", "fig99", "--out", str(tmp_path / "o")]) == 1


def test_experiment_rejects_a_builtin_or_scale_with_config(tmp_path, reg_config, monkeypatch, capsys):
    import syndatum.cli

    def no_load(path):
        raise AssertionError("config loaded")

    monkeypatch.setattr(syndatum.cli, "load_scenarios", no_load)
    for args in (["fig3", "--config", str(reg_config)], ["--config", str(reg_config), "--scale", "7"]):
        assert main(["experiment", *args, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_experiment_malformed_ini_fails_without_traceback(tmp_path, capsys):
    path = tmp_path / "dup.ini"
    path.write_text(REG_CONFIG + REG_CONFIG)
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "cannot parse config file" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# two sections out of name order, each of two units, whose n interleave
SECTIONS_CONFIG = REG_CONFIG.replace("[demo]", "[zeta]").replace(
    "n_grid = 128\nreplications = 2", "n_grid = 32, 64\nreplications = 1"
) + REG_CONFIG.replace("[demo]", "[alpha]").replace("n_grid = 128", "n_grid = 48")


def test_experiment_runs_all_sections_in_one_pool_in_file_order(tmp_path, pools):
    path = tmp_path / "sections.ini"
    path.write_text(SECTIONS_CONFIG)
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(["experiment", "--config", str(path), "--workers", str(workers), "--out", str(out)]) == 0
    assert len(pools) == 1
    lines = (tmp_path / "w2" / "rows.csv").read_text().splitlines()[1:]
    # zeta: n = 32 and 64 with one replication; alpha: n = 48 with two
    assert [line.split(",")[:3] for line in lines[::6]] == [
        ["zeta", "32", "0"], ["zeta", "64", "0"], ["alpha", "48", "0"], ["alpha", "48", "1"]
    ]
    assert (tmp_path / "w1" / "rows.csv").read_bytes() == (tmp_path / "w2" / "rows.csv").read_bytes()


def test_experiment_bad_outputs_fail_before_any_unit(tmp_path, reg_config, monkeypatch):
    import syndatum.harness

    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(syndatum.harness, "_run_unit", no_units)
    path = tmp_path / "typo.ini"
    path.write_text(reg_config.read_text() + "outputs = utilty\n")
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_experiment_trunc_normal_without_mass_fails_at_load(tmp_path, reg_config, capsys):
    path = tmp_path / "tail.ini"
    text = reg_config.read_text()
    start = text.index("real_density = ")
    end = text.index("\n", start)
    path.write_text(text[:start] + "real_density = trunc-normal lower=0 upper=1 mean=-1 var=0.0004" + text[end:])
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "no representable mass" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("estimator", ["mlp hidden=0", "mlp layers=-1"])
def test_experiment_bad_mlp_shape_fails_at_load(tmp_path, reg_config, capsys, estimator):
    path = tmp_path / "mlp.ini"
    path.write_text(reg_config.read_text().replace("estimators = oracle", f"estimators = {estimator}"))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "must be a positive integer" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, old, new, message",
    [
        (CLS_CONFIG, "estimators = oracle", "estimators = logistic box=-1", "box must be a finite number > 0"),
        (CLS_CONFIG, "estimators = oracle", "estimators = logistic box=nan", "box must be a finite number > 0"),
        (CLS_CONFIG, "model_classes = sign-abs; sign-linear", "model_classes = logistic-linear box=nan",
         "box is empty"),
        (REG_CONFIG, "model_classes = linear; abs", "model_classes = constant box=nan; abs", "box is empty"),
        # an infinite bound would make the threshold grid NaN and the classifier predict -1 everywhere
        (CLS_CONFIG, "model_classes = sign-abs; sign-linear", "model_classes = threshold-abs box=0,inf",
         "finite box bounds"),
        (CLS_CONFIG, "model_classes = sign-abs; sign-linear", "model_classes = threshold-abs box=-inf,1",
         "finite box bounds"),
    ],
    ids=["logistic-box-negative", "logistic-box-nan", "class-box-nan-cls", "class-box-nan-reg",
         "threshold-box-inf-upper", "threshold-box-inf-lower"],
)
def test_experiment_bad_box_fails_at_load(tmp_path, capsys, config, old, new, message):
    path = tmp_path / "bad.ini"
    assert old in config
    path.write_text(config.replace(old, new))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


_REAL = "real_density = uniform-box lower=-1 upper=1"
_SYNTH = "synth_density = piecewise breaks=-1,0,1 heights=0.25,0.75"


@pytest.mark.parametrize(
    "old, new, message",
    [
        (_REAL, "real_density = uniform-box lower=nan upper=1", "need finite lower < upper"),
        (_REAL, "real_density = uniform-box lower=-1 upper=inf", "need finite lower < upper"),
        (_SYNTH, "synth_density = piecewise breaks=-1,0,1 heights=nan,1", "non-negative"),
        (_SYNTH, "synth_density = piecewise breaks=-1,nan,1 heights=0.5,0.5", "segment probabilities"),
        ("n_test = 2000", "n_test = 1", "n_test >= 2"),
        (_SYNTH, "synth_density = uniform-box lower=-1,-1 upper=1,1", "dimension mismatch"),
        (_SYNTH, "synth_density = uniform-box lower=-2 upper=2\noutputs = utility, bound", "supports differ"),
        (_SYNTH, "synth_density = uniform-box lower=-2 upper=2\noutputs = utility, fidelity", "supports differ"),
        # the exp2 map reads two features
        ("model_classes = linear; abs", "model_classes = linear; exp2",
         "error: [demo] 'exp2': exp2 cannot read 1-dimensional features"),
        # the abs map reads one feature
        (f"{_REAL}\n{_SYNTH}",
         "real_density = uniform-box lower=-1,-1 upper=1,1\nsynth_density = uniform-box lower=-1,-1 upper=1,1",
         "error: [demo] 'abs': abs cannot read 2-dimensional features"),
    ],
    ids=["box-nan", "box-inf", "heights-nan", "breaks-nan", "n-test-1", "synth-2d", "synth-box-bound",
         "synth-box-fidelity", "exp2-on-1d", "abs-on-2d"],
)
def test_experiment_bad_density_or_n_test_fails_at_load(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.ini"
    assert old in REG_CONFIG
    path.write_text(REG_CONFIG.replace(old, new))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_experiment_repeated_n_fails_at_load(tmp_path, capsys):
    """A repeated n, written in a config or made by a builtin's --scale,
    would give two units rows with the same keys."""
    path = tmp_path / "bad.ini"
    path.write_text(REG_CONFIG.replace("n_grid = 128", "n_grid = 16, 16, 32"))
    for source in (["--config", str(path)], ["fig3", "--scale", "5000"]):
        assert main(["experiment", *source, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "strictly ascending" in err and len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n_test = 2000", "n_test = x", "n_test: invalid literal for int() with base 10: 'x'"),
        ("replications = 2", "replications = 2.5", "replications: invalid literal for int() with base 10: '2.5'"),
        ("master_seed = 5", "master_seed = five", "master_seed: invalid literal for int() with base 10: 'five'"),
        ("n_grid = 128", "n_grid = 64, x", "n_grid: invalid literal for int() with base 10: ' x'"),
        ("n_grid = 128", "n_grid = 64,", "n_grid: invalid literal for int() with base 10: ''"),
        (_REAL, "real_density = uniform-box lower=-1", "real_density: uniform-box requires upper="),
    ],
    ids=["n-test", "replications", "master-seed", "n-grid", "n-grid-empty-entry", "density"],
)
def test_experiment_unparsable_value_names_its_key(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.ini"
    assert old in REG_CONFIG
    path.write_text(REG_CONFIG.replace(old, new).replace("[demo]", "[my-sweep]"))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: [my-sweep] {message}"] and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, old, new",
    [
        (LR_CONFIG, "truth = linear beta=1,-1", "truth = linear beta=1,2,3"),
        (LR_CONFIG, "truth = linear beta=1,-1", "truth = linear"),
        (REG_CONFIG, "truth = abs", "truth = expdiff"),
    ],
    ids=["beta-too-long", "no-beta", "expdiff-on-1d"],
)
def test_experiment_truth_that_does_not_fit_the_density_fails_at_load(tmp_path, capsys, config, old, new):
    path = tmp_path / "truth.ini"
    path.write_text(config.replace(old, new))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "truth" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["toy-5.1", "--seed", "-1"],
        ["--config", "{config}", "--seed", "-1"],
        ["--config", "{seedless}"],
        ["toy-5.1", "--workers", "-3"],
    ],
    ids=["builtin-seed", "config-seed-flag", "config-master-seed", "workers"],
)
def test_experiment_negative_seed_or_workers_fails(tmp_path, reg_config, capsys, args):
    seedless = tmp_path / "seedless.ini"
    seedless.write_text(REG_CONFIG.replace("master_seed = 5", "master_seed = -1"))
    args = [a.format(config=reg_config, seedless=seedless) for a in args]
    assert main(["experiment", *args, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["experiment", "synth"])
@pytest.mark.parametrize(
    "old, new",
    [
        ("estimators = oracle", "estimators = ,\noutputs = utility, comparison"),
        ("model_classes = linear; abs", "model_classes = ;"),
    ],
    ids=["no-estimators", "no-model-classes"],
)
def test_empty_estimators_or_model_classes_fail_at_load(tmp_path, capsys, command, old, new):
    path = tmp_path / "empty.ini"
    path.write_text(REG_CONFIG.replace(old, new))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "at least one entry" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_negative_workers_in_the_environment_fail(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYNDATUM_WORKERS", "-4")
    assert main(["experiment", "toy-5.1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "SYNDATUM_WORKERS" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    monkeypatch.setenv("SYNDATUM_WORKERS", "0")  # as --workers 0: one worker
    assert main(["experiment", "toy-5.1", "--out", str(tmp_path / "o")]) == 0


def test_experiment_turns_a_failed_draw_into_row_errors(tmp_path, reg_config):
    # acceptance 2.9e-7: the sampler refuses this density in every unit
    path = tmp_path / "draw.ini"
    path.write_text(
        reg_config.read_text()
        .replace("real_density = uniform-box lower=-1 upper=1",
                 "real_density = trunc-normal lower=-1 upper=1 mean=6 var=1")
        .replace("estimators = oracle", "estimators = oracle, knn")
        + "outputs = utility, comparison\n"
    )
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    lines = (out / "rows.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    # per replication: 2 estimators x 2 classes utility rows and one comparison row
    assert len(rows) == 2 * (2 * 2 + 1)
    assert {(r["estimator"], r["model_class"], r["metric_name"]) for r in rows} == {
        *((e, c, "utility") for e in ("oracle", "knn") for c in ("linear", "abs")),
        ("oracle", "pair", "consistent"),
    }
    assert all(r["error"].startswith("RejectionBudgetExceeded: ") for r in rows)


def test_experiment_reports_row_errors_in_exit_code(tmp_path):
    # ols cannot fit a classification task: every row errors, exit code 2
    path = tmp_path / "bad.ini"
    path.write_text(CLS_CONFIG.replace("estimators = oracle", "estimators = ols"))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2


UNIT_ERROR_CONFIG = """
[unit-error]
task = regression
real_density = uniform-box lower=-1 upper=1
synth_density = uniform-box lower=-1 upper=1
truth = abs
noise = gaussian var=0.25
estimators = knn, rf trees=3
model_classes = linear; abs
n_grid = 48, 64
replications = 2
n_test = 500
master_seed = 5
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_turns_unit_exception_into_row_error(tmp_path, monkeypatch, capsys, workers):
    # a numpy error inside one estimator fit becomes that fit's row errors:
    # the sweep finishes, the other rows keep their bytes, and no traceback
    # reaches the terminal
    import numpy as np

    import syndatum.estimators

    path = tmp_path / "unit.ini"
    path.write_text(UNIT_ERROR_CONFIG)
    args = ["experiment", "--config", str(path), "--workers", str(workers), "--out"]
    assert main(args + [str(tmp_path / "clean")]) == 0
    grow = syndatum.estimators._Forest.__init__

    def failing(self, X, *rest):
        if X.shape[0] == 64:
            raise np.linalg.LinAlgError("Singular matrix")
        grow(self, X, *rest)

    monkeypatch.setattr(syndatum.estimators._Forest, "__init__", failing)
    capsys.readouterr()
    assert main(args + [str(tmp_path / "failed")]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    clean = (tmp_path / "clean" / "rows.csv").read_text().splitlines()
    failed = (tmp_path / "failed" / "rows.csv").read_text().splitlines()
    header = clean[0].split(",")
    n_at, est_at, err_at = header.index("n"), header.index("estimator"), header.index("error")
    hit = [line for line in failed if line.split(",")[n_at] == "64" and line.split(",")[est_at] == "rf"]
    assert len(hit) == 4  # 2 replications x 2 model classes
    assert all(line.split(",")[err_at] == "LinAlgError: Singular matrix" for line in hit)
    assert [line for line in failed if line not in hit] == [
        line for line in clean if not (line.split(",")[n_at] == "64" and line.split(",")[est_at] == "rf")
    ]


@pytest.mark.pins
def test_synth_writes_dataset(tmp_path, reg_config):
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(reg_config), "--out", str(out)]) == 0
    ds = read_csv(out, TaskKind.REGRESSION)
    assert ds.n == 128 and ds.p == 1
    assert _sha(out) == "bb2e4837648c4c129c311eda18bf623dc396a31a6ff34824c389ede6a69928b3"


@pytest.mark.pins
def test_synth_classification_labels(tmp_path):
    cfg = tmp_path / "cls.ini"
    cfg.write_text(CLS_CONFIG)
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    ds = read_csv(out, TaskKind.CLASSIFICATION)
    assert set(ds.responses) <= {-1.0, 1.0}
    assert _sha(out) == "ed5f0cef63637c8a8ae89dea920d656ed316858d0b0936c181e89f5e5114684c"


@pytest.mark.pins
def test_fidelity_json(tmp_path, reg_config):
    out = tmp_path / "fid.json"
    assert main(["fidelity", "--config", str(reg_config), "--d", "1", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["chi2_real_vs_synth"] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert {"d", "V", "grid"} <= set(blob["certificate"])
    assert _sha(out) == "0cb18d5ac05839f0487441787b3c4ff5055287ae287f6e46c1c828c1fe32f5a8"


def test_fidelity_rejects_non_finite_d(tmp_path, reg_config, capsys):
    out = tmp_path / "fid.json"
    assert main(["fidelity", "--config", str(reg_config), "--d", "nan", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "InvalidD" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.pins
def test_utility_json(tmp_path, reg_config):
    out = tmp_path / "util.json"
    assert main(["utility", "--config", str(reg_config), "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    assert all(r["report"]["utility"] >= 0.0 for r in reports)
    assert _sha(out) == "f0308bfcb26df45543bc8921213769814e2439fc4afef28c8df444141ad19808"


@pytest.mark.pins
def test_bound_reg_json(tmp_path, reg_config):
    out = tmp_path / "bound.json"
    assert main(["bound", "--task", "reg", "--config", str(reg_config), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    for key in ("est_err_original", "est_err_synthetic", "chi2", "M", "upsilon1", "upsilon2", "phi_mu_hat", "total"):
        assert key in blob["report"]
    assert blob["report"]["total"] + 4 * blob["measured_utility_std_error"] >= blob["measured_utility"]
    assert _sha(out) == "c83b2527e43479e3b4b4621294a10d9f1cd3d105be884cb39e4f105cc18f62c5"


@pytest.mark.pins
def test_bound_cls_json(tmp_path):
    cfg = tmp_path / "cls.ini"
    cfg.write_text(CLS_CONFIG)
    out = tmp_path / "bound.json"
    assert main(["bound", "--task", "cls", "--config", str(cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    for key in ("upsilon3", "eta_l2_gap", "c_terms", "phi_plugin", "total"):
        assert key in blob["report"]
    assert _sha(out) == "6b660e5d02803bf9ff8e4bad9dcd2b3e80349f73304da1ef1e81bbcfbabc5c83"


def test_bound_task_mismatch_fails_before_fitting(tmp_path, reg_config, monkeypatch):
    import syndatum.harness

    def no_draw(*args):
        raise AssertionError("data drawn before the task check")

    monkeypatch.setattr(syndatum.harness, "_draw_original", no_draw)
    cls_cfg = tmp_path / "cls.ini"
    cls_cfg.write_text(CLS_CONFIG)
    assert main(["bound", "--task", "reg", "--config", str(cls_cfg)]) == 1
    assert main(["bound", "--task", "cls", "--config", str(reg_config)]) == 1


@pytest.mark.pins
def test_bound_lr_json(tmp_path):
    cfg = tmp_path / "lr.ini"
    cfg.write_text(LR_CONFIG)
    out = tmp_path / "bound.json"
    assert main(["bound", "--task", "lr", "--config", str(cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    for key in ("t1", "t2", "t3", "chi2_term", "cross_term", "M_LR", "total"):
        assert key in blob["report"]
    assert _sha(out) == "9ccecb80de9f147f4a46a6d538eee8174b5ddc78083120679d4087e7653f2274"
    assert main(["bound", "--task", "lr", "--config", str(cfg.parent / "nope.ini")]) == 1


def _no_json_constant(name):
    raise AssertionError(f"bare {name} in JSON output")


def test_json_outputs_write_non_finite_values_as_text(tmp_path):
    # the synthetic density is 0 on half the support: chi2 and the bounds are inf
    path = tmp_path / "half.ini"
    path.write_text(
        LR_CONFIG.replace("trunc-normal lower=-4,-4 upper=4,4 mean=0,0 var=1,1", "uniform-box lower=-1 upper=1")
        .replace("uniform-box lower=-4,-4 upper=4,4", "piecewise breaks=-1,0,1 heights=0,1")
        .replace("beta=1,-1", "beta=1")
        .replace("replications = 1", "replications = 2")
        + "outputs = utility, bound\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    groups = json.loads((out / "summary.json").read_text(), parse_constant=_no_json_constant)["groups"]
    chi2 = next(g for g in groups if g["metric"] == "bound_chi2")
    assert (chi2["mean"], chi2["ci95"]) == ("inf", "nan")

    def run(*command):
        target = tmp_path / "out.json"
        assert main([*command, "--config", str(path), "--out", str(target)]) == 0
        return json.loads(target.read_text(), parse_constant=_no_json_constant)

    for task in ("reg", "lr"):
        blob = run("bound", "--task", task)
        assert blob["report"]["total"] == "inf" and blob["vacuous"] is True
    assert run("fidelity")["chi2_real_vs_synth"] == "inf"


@pytest.mark.pins
def test_compare_json(tmp_path):
    cfg = tmp_path / "cls.ini"
    cfg.write_text(CLS_CONFIG)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert "consistent" in blob and "optima" in blob
    assert _sha(out) == "6087c053cf0749910a2fa49bb45b7f01efe77609a500721887fc38cfb6a94e6d"


def test_single_draw_commands_print_replication_0_of_the_sweep(tmp_path):
    """utility (at the last n), bound --task reg and compare (at the first n)
    print the numbers experiment --config writes for replication 0 there."""

    def run(text, *command):
        cfg, out = tmp_path / "sweep.ini", tmp_path / "out.json"
        cfg.write_text(text)
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        header, *lines = (tmp_path / "sweep" / "rows.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        values = {(r["n"], r["model_class"], r["metric_name"]): r["value"] for r in rows if r["replication"] == "0"}
        blobs = []
        for argv in command:
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(json.loads(out.read_text()))
        return values, blobs

    sweep, (utility, bound) = run(
        REG_CONFIG.replace("n_grid = 128", "n_grid = 64, 128") + "outputs = utility, bound\n",
        ["utility"], ["bound", "--task", "reg"],
    )
    assert [repr(r["report"]["utility"]) for r in utility] == [
        sweep["128", mc, "utility"] for mc in ("linear", "abs")
    ]
    assert repr(bound["measured_utility"]) == sweep["64", "linear", "utility"]
    assert repr(bound["report"]["total"]) == sweep["64", "linear", "bound_total"]
    sweep, (compare,) = run(CLS_CONFIG + "outputs = comparison\n", ["compare"])
    assert repr(float(compare["consistent"])) == sweep["256", "pair", "consistent"]
    assert [repr(compare[f"risk_f{i}_real"]["value"]) for i in (1, 2)] == [
        sweep["256", mc, "risk_real"] for mc in ("sign-abs", "sign-linear")
    ]


def test_compare_requires_two_classes(tmp_path, reg_config):
    single = tmp_path / "one.ini"
    single.write_text(REG_CONFIG.replace("model_classes = linear; abs", "model_classes = linear"))
    assert main(["compare", "--config", str(single)]) == 1


def test_console_script_subprocess(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "syndatum.cli", "experiment", "toy-5.1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "rows.csv").exists()


def test_package_runs_as_module_from_source_tree():
    # `PYTHONPATH=src python -m syndatum` needs no install
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "syndatum", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "experiment" in proc.stdout
