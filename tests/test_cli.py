import hashlib
import json
import subprocess
import sys

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


def test_experiment_bad_outputs_fail_before_any_unit(tmp_path, reg_config, monkeypatch):
    import syndatum.harness

    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(syndatum.harness, "_run_unit", no_units)
    path = tmp_path / "typo.ini"
    path.write_text(reg_config.read_text() + "outputs = utilty\n")
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_experiment_reports_row_errors_in_exit_code(tmp_path):
    # ols cannot fit a classification task: every row errors, exit code 2
    path = tmp_path / "bad.ini"
    path.write_text(CLS_CONFIG.replace("estimators = oracle", "estimators = ols"))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2


def test_synth_writes_dataset(tmp_path, reg_config):
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(reg_config), "--out", str(out)]) == 0
    ds = read_csv(out, TaskKind.REGRESSION)
    assert ds.n == 128 and ds.p == 1
    assert _sha(out) == "bbd75efb54a9575053df540c63c7e005f9e6e15a1a6d7b38fa3f693fde38d918"


def test_synth_classification_labels(tmp_path):
    cfg = tmp_path / "cls.ini"
    cfg.write_text(CLS_CONFIG)
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    ds = read_csv(out, TaskKind.CLASSIFICATION)
    assert set(ds.responses) <= {-1.0, 1.0}
    assert _sha(out) == "51a3c56e57a454ed828a423d1ea87506e8f1cf33d8389c727b0c0817ec6886d2"


def test_fidelity_json(tmp_path, reg_config):
    out = tmp_path / "fid.json"
    assert main(["fidelity", "--config", str(reg_config), "--d", "1", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["chi2_real_vs_synth"] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert {"d", "V", "grid"} <= set(blob["certificate"])


def test_utility_json(tmp_path, reg_config):
    out = tmp_path / "util.json"
    assert main(["utility", "--config", str(reg_config), "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    assert all(r["report"]["utility"] >= 0.0 for r in reports)
    assert _sha(out) == "6a96d98512b27fca3cfbae148a22a6977c48535648fb8c0fd26e5e881ddc8294"


def test_bound_reg_json(tmp_path, reg_config):
    out = tmp_path / "bound.json"
    assert main(["bound", "--task", "reg", "--config", str(reg_config), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    for key in ("est_err_original", "est_err_synthetic", "chi2", "M", "upsilon1", "upsilon2", "phi_mu_hat", "total"):
        assert key in blob["report"]
    assert blob["report"]["total"] + 4 * blob["measured_utility_std_error"] >= blob["measured_utility"]
    assert _sha(out) == "2940ffc4488e2dd869fc28f9b1d8116b2089c28a785262936e4882055d858fad"


def test_bound_cls_json(tmp_path):
    cfg = tmp_path / "cls.ini"
    cfg.write_text(CLS_CONFIG)
    out = tmp_path / "bound.json"
    assert main(["bound", "--task", "cls", "--config", str(cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    for key in ("upsilon3", "eta_l2_gap", "c_terms", "phi_plugin", "total"):
        assert key in blob["report"]
    assert _sha(out) == "b1dc85f5c99c7abb16db8b884642ef2af19a363dd026203874b95730d4c17808"


def test_bound_task_mismatch_fails_before_fitting(tmp_path, reg_config, monkeypatch):
    import syndatum.cli

    def no_draw(*args):
        raise AssertionError("data drawn before the task check")

    monkeypatch.setattr(syndatum.cli, "_draw_original", no_draw)
    cls_cfg = tmp_path / "cls.ini"
    cls_cfg.write_text(CLS_CONFIG)
    assert main(["bound", "--task", "reg", "--config", str(cls_cfg)]) == 1
    assert main(["bound", "--task", "cls", "--config", str(reg_config)]) == 1


def test_bound_lr_json(tmp_path):
    cfg = tmp_path / "lr.ini"
    cfg.write_text(LR_CONFIG)
    out = tmp_path / "bound.json"
    assert main(["bound", "--task", "lr", "--config", str(cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    for key in ("t1", "t2", "t3", "chi2_term", "cross_term", "M_LR", "total"):
        assert key in blob["report"]
    assert _sha(out) == "f86274d030b115a5a0052a79286b51f5c454fd0e3c0604e711154aadbfa842f0"
    assert main(["bound", "--task", "lr", "--config", str(cfg.parent / "nope.ini")]) == 1


def test_compare_json(tmp_path):
    cfg = tmp_path / "cls.ini"
    cfg.write_text(CLS_CONFIG)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert "consistent" in blob and "optima" in blob
    assert _sha(out) == "033ab0254b4d6199654776482e856988de815dfbf02eac66c5008fe9d65f8889"


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
