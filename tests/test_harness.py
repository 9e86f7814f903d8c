import math
import multiprocessing
import warnings
from dataclasses import fields
from functools import partial
from itertools import chain

import numpy as np
import pytest
from reference import _rows_sha

import syndatum.harness
from syndatum.bounds import BoundScenario
from syndatum.datamodel import NoiseModel, TaskKind
from syndatum.densities import BoxSupport, UniformBox
from syndatum.errors import ConfigError, UnknownBuiltin
from syndatum.harness import (
    DEFAULT_MASTER_SEED,
    ResultRow,
    ScenarioConfig,
    TruthSpec,
    _CONFIG_PARSERS,
    _REQUIRED,
    _fig34_config,
    _figs1_config,
    _run_unit,
    _sort_rows,
    _suite_case,
    _suite_lr_case,
    load_scenarios,
    parse_noise,
    parse_truth,
    run_builtin,
    run_scenario,
    summarize,
    write_rows_csv,
)

TRIANGULAR_TAIL = lambda C: (1.0 + 2.0 * C) / (1.0 + C) ** 2


def _tiny_config(**overrides):
    base = dict(
        name="tiny",
        task=TaskKind.REGRESSION,
        real_density=UniformBox(BoxSupport((-1.0,), (1.0,))),
        synth_density=UniformBox(BoxSupport((-1.0,), (1.0,))),
        truth=TruthSpec("abs"),
        noise=NoiseModel.gaussian(0.25),
        estimators=("oracle",),
        model_classes=("linear", "abs"),
        n_grid=(64,),
        replications=1,
        n_test=2000,
        master_seed=42,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_counting_contract():
    rows = run_scenario(_tiny_config())
    # one estimator, two classes, three metrics per class
    assert len(rows) == 2 * 3
    assert {r.metric_name for r in rows} == {
        "utility",
        "risk_synth_trained",
        "risk_real_trained",
    }


@pytest.mark.pins
def test_fidelity_output_rows_emitted_once(tmp_path):
    from syndatum.densities import PiecewiseConstant1D

    config = _tiny_config(
        synth_density=PiecewiseConstant1D([-1.0, 0.0, 1.0], [0.25, 0.75]),
        outputs=("utility", "fidelity"),
        replications=2,
    )
    rows = run_scenario(config)
    chi2_rows = [r for r in rows if r.metric_name == "chi2"]
    v_rows = [r for r in rows if r.metric_name == "fidelity_V@d=1"]
    assert len(chi2_rows) == 1 and len(v_rows) == 1
    assert chi2_rows[0].value == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert _rows_sha(rows, tmp_path) == "12b93ad31810511ab87056a4c9aa866539bfc335d563332cd6253276810c6279"


@pytest.mark.pins
def test_comparison_output_rows(tmp_path):
    from syndatum.densities import PiecewiseConstant1D

    config = _tiny_config(
        real_density=PiecewiseConstant1D([-1.0, 0.0, 1.0], [5 / 6, 1 / 6]),
        synth_density=PiecewiseConstant1D([-1.0, 0.0, 1.0], [1 / 6, 5 / 6]),
        truth=TruthSpec("identity"),
        noise=NoiseModel.none(),
        model_classes=("constant box=-0.5,0.5", "constant box=-0.25,0.25"),
        outputs=("comparison",),
        n_test=5000,
        risk_method="quadrature",
    )
    rows = run_scenario(config)
    consistent = [r for r in rows if r.metric_name == "consistent"]
    assert len(consistent) == 1
    assert consistent[0].value == 0.0  # the flipped split makes ranking flip
    assert _rows_sha(rows, tmp_path) == "d0d89df593a059724dfb5ccb2d6752ea94e216315e917a8aead71a83a44dc4f4"


@pytest.mark.pins
def test_bound_output_rows(tmp_path):
    config = _tiny_config(outputs=("utility", "bound"), n_grid=(128,), n_test=4000)
    rows = run_scenario(config)
    by_metric = {r.metric_name: r for r in rows}
    for key in ("bound_total", "bound_chi2", "bound_upsilon1", "bound_phi_mu_hat"):
        assert key in by_metric
    # same real/synth density and oracle estimator: bound is essentially zero
    assert by_metric["bound_chi2"].value == pytest.approx(0.0, abs=1e-8)
    assert _rows_sha(rows, tmp_path) == "4f3ebf270b863de2eeed39f39a044580f17a3c099009bce58c051c1af4988d60"


@pytest.mark.pins
def test_classification_sweep_utility_bound_comparison(tmp_path):
    from syndatum.densities import PiecewiseConstant1D

    config = _tiny_config(
        task=TaskKind.CLASSIFICATION,
        real_density=PiecewiseConstant1D([-1.0, 0.0, 1.0], [0.75, 0.25]),
        synth_density=PiecewiseConstant1D([-1.0, 0.0, 1.0], [0.25, 0.75]),
        truth=TruthSpec("logistic", (2.0,)),
        noise=NoiseModel.none(),
        estimators=("oracle", "logistic"),
        model_classes=("sign-abs", "sign-linear"),
        n_grid=(128,),
        outputs=("utility", "bound", "comparison"),
    )
    rows = run_scenario(config)
    assert not any(r.error for r in rows)
    metrics = {r.metric_name for r in rows}
    assert {"utility", "bound_total", "bound_upsilon3", "consistent", "risk_synth_opt"} <= metrics
    assert _rows_sha(rows, tmp_path) == "6f5e63d05d5266097416073e842084e72dfd7994b33321c611b5ee8cbd41d2d4"


def _count_calls(monkeypatch, *fns) -> dict:
    """Count calls of each function in every syndatum module that binds it."""
    import sys

    calls = {}
    for fn in fns:
        calls[fn.__name__] = 0

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "syndatum"]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_unit_fits_each_estimator_and_residual_variance_once(monkeypatch):
    import syndatum.estimators
    import syndatum.synthesis

    calls = _count_calls(
        monkeypatch, syndatum.estimators.fit_estimator, syndatum.synthesis.residual_variance
    )
    rows = run_scenario(
        _tiny_config(estimators=("knn",), outputs=("utility", "bound", "comparison"), n_test=500)
    )
    assert {r.metric_name for r in rows} >= {"utility", "bound_total", "consistent"}
    assert calls == {"fit_estimator": 1, "residual_variance": 1}


def test_specs_are_parsed_once_when_the_config_is_built(monkeypatch):
    import syndatum.erm
    import syndatum.estimators

    calls = _count_calls(monkeypatch, syndatum.estimators.parse_estimator, syndatum.erm.parse_model_class)
    config = _tiny_config(
        estimators=("oracle", "knn k=5"),
        n_grid=(48, 64),
        replications=2,
        n_test=500,
        outputs=("utility", "bound", "comparison"),
    )
    assert calls == {"parse_estimator": 2, "parse_model_class": 2}
    rows = run_scenario(config)
    assert {r.metric_name for r in rows} >= {"utility", "bound_total", "consistent"}
    assert not any(r.error for r in rows)
    assert calls == {"parse_estimator": 2, "parse_model_class": 2}


def test_every_entry_point_runs_each_stage_once_per_draw(tmp_path, monkeypatch):
    import syndatum.erm
    import syndatum.estimators
    import syndatum.harness
    from syndatum.cli import main

    calls = _count_calls(
        monkeypatch,
        syndatum.harness._draw_original,
        syndatum.estimators.fit_estimator,
        syndatum.erm.fit_downstream,
        syndatum.erm.population_optimum,
    )
    path = tmp_path / "scen.ini"
    path.write_text(CONFIG_TEXT.replace("estimators = oracle", "estimators = oracle, knn k=5"))
    # one draw, one fit per estimator used, one ERM per (dataset, class) used;
    # every population optimum is one more fit_downstream call
    for argv, fits, erm, optima in (
        (["synth", "--out", str(tmp_path / "synth.csv")], 1, 0, 0),
        (["utility"], 2, 2 + 2 * 2, 0),
        (["bound", "--task", "reg"], 1, 2, 2),
        (["compare"], 1, 0, 4),
        (None, 1, 2, 2),  # one bound-suite case
    ):
        calls.update(dict.fromkeys(calls, 0))
        if argv is None:
            _suite_case(TaskKind.REGRESSION, 0, DEFAULT_MASTER_SEED)
        else:
            assert main([*argv, "--config", str(path)]) == 0
        assert calls == {"_draw_original": 1, "fit_estimator": fits, "fit_downstream": erm + optima,
                         "population_optimum": optima}, argv
    # a sweep unit's bounds fit the real-law optimum once per class and the
    # synthetic-law one once per (estimator, class): 2 + 2 * 2, not 2 * 2 * 2
    calls.update(dict.fromkeys(calls, 0))
    config = _tiny_config(estimators=("oracle", "knn k=5"), outputs=("utility", "bound"), n_test=500)
    assert not any(r.error for r in _run_unit(config, 0, 0))
    assert calls == {"_draw_original": 1, "fit_estimator": 2, "fit_downstream": 2 + 2 * 2 + 6,
                     "population_optimum": 2 + 2 * 2}


def test_unit_keeps_a_failed_fit(monkeypatch):
    import syndatum.estimators

    calls = _count_calls(monkeypatch, syndatum.estimators.fit_estimator)
    rows = run_scenario(
        _tiny_config(
            task=TaskKind.CLASSIFICATION,
            truth=TruthSpec("step-pos"),
            noise=NoiseModel.none(),
            estimators=("ols",),
            model_classes=("sign-abs", "sign-linear"),
            outputs=("utility", "comparison"),
        )
    )
    # the comparison and the synthesis both report the one failed fit
    assert {r.metric_name for r in rows} == {"consistent", "utility"}
    assert all("TaskMismatch" in r.error for r in rows)
    assert calls == {"fit_estimator": 1}


def test_bound_assumes_the_synthetic_noise_the_synthesis_used(monkeypatch):
    import syndatum.harness

    variances = []

    def scenario(*args):
        variances.append(args[-1].variance)
        return BoundScenario(*args)

    monkeypatch.setattr(syndatum.harness, "BoundScenario", scenario)
    # oracle on noise-free data: residual variance 0, so no synthetic noise
    rows = run_scenario(_tiny_config(noise=NoiseModel.none(), outputs=("utility", "bound")))
    assert not any(r.error for r in rows)
    assert variances == [0.0, 0.0]


def test_full_run_determinism_byte_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(run_builtin("toy-5.1"), a)
    write_rows_csv(run_builtin("toy-5.1"), b)
    assert a.read_bytes() == b.read_bytes()


def test_schedule_independence_with_workers(tmp_path):
    # units are dispatched largest n first; their rows come back in grid order
    for estimators, n_grid in [(("oracle",), (32, 64)), (("oracle", "mlp"), (16, 24, 32))]:
        config = _tiny_config(replications=3, n_grid=n_grid, estimators=estimators)
        serial = run_scenario(config, workers=1)
        parallel = run_scenario(config, workers=2)
        in_grid_order = [row for i in range(len(n_grid)) for r in range(3) for row in _run_unit(config, i, r)]
        assert serial == parallel == _sort_rows(in_grid_order)
        write_rows_csv(serial, tmp_path / "serial.csv")
        write_rows_csv(parallel, tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()


def test_figs1_linear_rows_same_serial_and_in_fork_and_spawn_pools(monkeypatch, pools, tmp_path):
    # the one sweep that fits ols; a spawned worker imports the package afresh
    serial = _rows_sha(run_builtin("figS1-linear", scale=2, workers=1), tmp_path)
    counted = syndatum.harness.ProcessPoolExecutor
    for method in ("fork", "spawn"):
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(syndatum.harness, "ProcessPoolExecutor", partial(counted, mp_context=context))
        assert _rows_sha(run_builtin("figS1-linear", scale=2, workers=2), tmp_path) == serial, method
    assert len(pools) == 2


def test_per_replication_independence():
    config3 = _tiny_config(replications=3)
    config2 = _tiny_config(replications=2)
    rows3 = [r for r in run_scenario(config3) if r.replication < 2]
    rows2 = run_scenario(config2)
    assert rows3 == rows2


def test_summarize_identical_rows():
    rows = [ResultRow("s", 10, r, "e", "c", "utility", 0.5, 0.0) for r in range(100)]
    (group,) = summarize(rows)
    assert group["mean"] == 0.5
    assert group["ci95"] == 0.0
    assert group["count"] == 100


def test_summarize_warns_and_omits_empty_group():
    rows = [
        ResultRow("s", 10, 0, "e", "c", "utility", float("nan"), 0.0, "Boom: failed"),
        ResultRow("s", 10, 0, "e", "d", "utility", 1.0, 0.0),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summary = summarize(rows)
    assert len(summary) == 1 and summary[0]["model_class"] == "d"
    assert any("no valid rows" in str(w.message) for w in caught)


@pytest.mark.pins
def test_error_rows_do_not_abort_sweep(tmp_path):
    # ols on a classification task fails per-row; other estimators still run
    config = _tiny_config(
        task=TaskKind.CLASSIFICATION,
        truth=TruthSpec("step-pos"),
        noise=NoiseModel.none(),
        estimators=("ols", "oracle"),
        model_classes=("sign-linear",),
    )
    rows = run_scenario(config)
    failed = [r for r in rows if r.error]
    succeeded = [r for r in rows if not r.error]
    assert failed and all(r.estimator == "ols" for r in failed)
    assert "TaskMismatch" in failed[0].error
    assert succeeded and all(r.estimator == "oracle" for r in succeeded)
    assert _rows_sha(rows, tmp_path) == "475113c024343db7055d96327ce2b20723141372b43acf52fd95057383cd9877"


@pytest.mark.pins
def test_toy61_rows_pinned(tmp_path):
    assert _rows_sha(run_builtin("toy-6.1"), tmp_path) == "6ae18d25d186da10063c49f80f986d9244a850e54be52400207b1d63dfaa8868"


@pytest.mark.pins
@pytest.mark.parametrize(
    "name, scale, digest",
    [
        # squared-loss quadrature risks
        ("fig5", 20, "9f780d95cde9ff243a9071cf956a80680097577878472751d20ee7be2e2ba6a0"),
        ("toy-5.1", 1, "f0127272a74573cc2d2273e059741a1764bbefb79dd108b11b0a844408405ff6"),
        ("consistency", 1, "18cf7d1f2eb26dd9eb3985d156600e015f9a1b1ef9704b1008aa29e663fd970a"),
        # zero-one quadrature risks
        ("toy-S.1", 1, "29b6a26cee534f2d1daaa700574f9a0c7ec49f5a3366d31a0365786fa7b3abe4"),
    ],
)
def test_quadrature_builtin_rows_pinned(name, scale, digest, tmp_path):
    assert _rows_sha(run_builtin(name, scale), tmp_path) == digest


@pytest.mark.pins
def test_bound_suite_slice_pinned(tmp_path):
    # every regression estimator, every classification class and three LR cases
    rows = [
        *chain.from_iterable(_suite_case(TaskKind.REGRESSION, i, DEFAULT_MASTER_SEED) for i in range(5)),
        *chain.from_iterable(_suite_case(TaskKind.CLASSIFICATION, i, DEFAULT_MASTER_SEED) for i in (0, 3, 6, 9)),
        *chain.from_iterable(_suite_lr_case(i, DEFAULT_MASTER_SEED) for i in range(3)),
    ]
    assert [r.estimator for r in rows[:20:4]] == ["oracle", "ols", "knn", "rf", "mlp"]
    assert {r.model_class for r in rows[20:36]} == {
        "sign-linear", "sign-abs", "threshold-abs box=0,0.5", "logistic-linear box=3"
    }
    assert _rows_sha(rows, tmp_path) == "758f9eb05401d0fd6020cd9b113f7e777a67d0be5a167ab95f1f9840e8d72baf"


@pytest.mark.pins
def test_fidelity_fig2_rows_match_closed_form(tmp_path):
    rows = run_builtin("fidelity-fig2")
    assert _rows_sha(rows, tmp_path) == "aec5108aaef99b5c52d9eea2465c94c68148b2b4c69c541aa8bd491eba6ba179"
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r.replication, {})[r.metric_name] = r.value
    assert len(by_rep) == 64
    for rec in by_rep.values():
        assert rec["tail_prob"] == pytest.approx(TRIANGULAR_TAIL(rec["C"]), abs=1e-6)
        assert rec["vc_bound"] == pytest.approx(2.0 / rec["C"])


def test_builtin_scaling():
    cfg = _fig34_config("fig3", 4, 1)
    assert cfg.n_grid == (500, 1000, 2000, 4000, 8000)
    assert cfg.replications == 25
    assert cfg.n_test == 12500
    cfg1 = _fig34_config("fig4", 1, 1)
    assert cfg1.n_grid == (2000, 4000, 8000, 16000, 32000)
    assert cfg1.replications == 100
    assert cfg1.n_test == 50_000
    s1 = _figs1_config("figS1-linear", 1, 1)
    assert s1.replications == 500 and s1.n_grid == (200, 400, 800, 1600)
    s2 = _figs1_config("figS1-logistic", 2, 1)
    assert s2.replications == 100 and s2.n_grid == (100, 200, 400, 800)


def test_fig5_runs_its_six_tilts_in_one_pool(pools):
    rows = run_builtin("fig5", scale=50, workers=2)
    assert len(pools) == 1
    assert rows == run_builtin("fig5", scale=50, workers=1)  # serial: no pool
    assert len(pools) == 1
    assert [r.scenario for r in rows] == sorted(r.scenario for r in rows)


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        run_builtin("fig99")
    with pytest.raises(ConfigError, match="master_seed"):
        run_builtin("toy-5.1", master_seed=-1)


def test_workers_env_override(monkeypatch):
    from syndatum.harness import default_workers

    monkeypatch.delenv("SYNDATUM_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("SYNDATUM_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("SYNDATUM_WORKERS", "zebra")
    with pytest.raises(ConfigError):
        default_workers()


def test_parse_truth_and_noise():
    t = parse_truth("linear beta=1,-1,0.5")
    assert t.name == "linear" and t.beta == (1.0, -1.0, 0.5)
    assert t(np.array([[1.0, 1.0, 2.0]]))[0] == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_truth("mystery")
    assert parse_noise("default") is None
    assert parse_noise("none").variance == 0.0
    assert parse_noise("gaussian var=2").variance == 2.0
    assert parse_noise("bounded-uniform var=0.5").variance == 0.5
    with pytest.raises(ConfigError):
        parse_noise("cauchy var=1")


CONFIG_TEXT = """
[demo]
task = regression
real_density = uniform-box lower=-1 upper=1
synth_density = piecewise breaks=-1,0,1 heights=0.25,0.75
truth = abs
noise = gaussian var=0.25
estimators = oracle
model_classes = linear; abs
n_grid = 64
replications = 2
n_test = 2000
master_seed = 5
"""


def test_load_scenarios_and_run(tmp_path):
    path = tmp_path / "scen.ini"
    path.write_text(CONFIG_TEXT)
    (config,) = load_scenarios(path)
    assert config.name == "demo"
    assert config.model_classes == ("linear", "abs")
    rows = run_scenario(config)
    assert len(rows) == 2 * 2 * 3
    assert all(not r.error for r in rows)


def test_config_keys_are_the_scenario_config_fields():
    assert set(_CONFIG_PARSERS) == {f.name for f in fields(ScenarioConfig) if f.init} - {"name"}
    assert _REQUIRED == {"task", "real_density", "synth_density", "truth", "model_classes", "n_grid"}


def test_load_scenarios_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[x]\ntask = regression\n")
    with pytest.raises(ConfigError, match=r"^\[x\] is missing required keys"):
        load_scenarios(path)
    path.write_text(CONFIG_TEXT.replace("task = regression", "task = regression\nbananas = 1"))
    with pytest.raises(ConfigError, match=r"^\[demo\] has unknown keys \['bananas'\]"):
        load_scenarios(path)
    path.write_text(CONFIG_TEXT.replace("task = regression", "task = regresion"))
    with pytest.raises(ConfigError, match=r"^\[demo\] task: must be regression or classification, got 'regresion'$"):
        load_scenarios(path)
    # rows.csv writes the scenario name unquoted
    path.write_text(CONFIG_TEXT.replace("[demo]", "[a,b]"))
    with pytest.raises(ConfigError, match=r"^\[a,b\] scenario name 'a,b' must not contain a comma"):
        load_scenarios(path)
    # an error that ScenarioConfig raises names the section too, not only the first
    for old, new in (("n_grid = 64", "n_grid = 64, 32"), ("estimators = oracle", "estimators = knn k=0")):
        path.write_text(CONFIG_TEXT + CONFIG_TEXT.replace("[demo]", "[second]").replace(old, new))
        with pytest.raises(ConfigError, match=r"^\[second\] "):
            load_scenarios(path)
    with pytest.raises(ConfigError):
        load_scenarios(tmp_path / "missing.ini")
    # what configparser itself rejects
    for text in (
        CONFIG_TEXT + CONFIG_TEXT,  # a duplicate section
        CONFIG_TEXT + "truth = abs\n",  # a duplicate key
        CONFIG_TEXT.replace("[demo]\n", ""),  # no section header
        CONFIG_TEXT + "bananas\n",  # a line without =
        CONFIG_TEXT.replace("truth = abs", "truth = abs%"),  # a bad interpolation
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match="cannot parse config file"):
            load_scenarios(path)
    path.write_text(CONFIG_TEXT + "outputs = utility, utilty\n")
    with pytest.raises(ConfigError, match="unknown outputs"):
        load_scenarios(path)
    path.write_text(
        CONFIG_TEXT.replace("model_classes = linear; abs", "model_classes = linear")
        + "outputs = utility, comparison\n"
    )
    with pytest.raises(ConfigError, match="exactly two model_classes"):
        load_scenarios(path)
    # names and rules a unit would trip over are rejected before any unit runs
    for old, new, match in (
        ("model_classes = linear; abs", "model_classes = linaer; abs", "linaer"),
        ("estimators = oracle", "estimators = orcale", "orcale"),
        ("n_grid = 64", "n_grid = 64\nsynthetic_n_rule = fixed:0", "synthetic_n_rule"),
        ("n_grid = 64", "n_grid = 64\nsynthetic_n_rule = half", "synthetic_n_rule"),
        ("n_grid = 64", "n_grid = 64\nrisk_method = quadratur", "risk_method"),
        (
            "real_density = uniform-box lower=-1 upper=1",
            "real_density = uniform-box lower=-1,-1 upper=1,1\nrisk_method = quadrature",
            "one-dimensional",
        ),
        (
            "real_density = uniform-box lower=-1 upper=1\n"
            "synth_density = piecewise breaks=-1,0,1 heights=0.25,0.75",
            "real_density = trunc-normal lower=-2,-2 upper=2,2 mean=0,0 var=1,1\n"
            "synth_density = uniform-box lower=-2,-2 upper=2,2\noutputs = utility, fidelity",
            "outputs 'fidelity' requires a one-dimensional",
        ),
        # every spec takes only its own keys, and a density needs all of them
        ("noise = gaussian var=0.25", "noise = gaussian variance=4", "variance=4"),
        ("real_density = uniform-box lower=-1 upper=1",
         "real_density = uniform-box lower=-1 upper=1 mean=3", "mean=3"),
        ("real_density = uniform-box lower=-1 upper=1", "real_density = uniform-box lower=-1",
         "uniform-box requires upper="),
        ("synth_density = piecewise breaks=-1,0,1 heights=0.25,0.75", "synth_density = tilt",
         "tilt requires alpha="),
        ("model_classes = linear; abs", "model_classes = linear; sign-abs",
         "sign-abs is a classification class"),
        ("estimators = oracle", "estimators = knn depth=3", "depth=3"),
        ("n_grid = 64", "n_grid = 0", "n_grid"),
        ("n_test = 2000", "n_test = 0", "n_test"),
        ("model_classes = linear; abs", "model_classes = constant ridge=-1; linear", "bad parameter"),
        ("model_classes = linear; abs", "model_classes = constant box=1,-1", "box is empty"),
        # default is the residual-variance rule of synth_noise, not a law of the real noise
        ("noise = gaussian var=0.25", "noise = default", "noise has no default"),
    ):
        path.write_text(CONFIG_TEXT.replace(old, new))
        with pytest.raises(ConfigError, match=match) as info:
            load_scenarios(path)
        assert str(info.value).startswith("[demo] ")
    cls_text = CONFIG_TEXT.replace("task = regression", "task = classification").replace(
        "truth = abs", "truth = step-pos"
    )
    for classes in ("logistic-linear box=1,-1", "threshold-abs box=0.5,0"):
        path.write_text(cls_text.replace("model_classes = linear; abs", f"model_classes = {classes}"))
        with pytest.raises(ConfigError, match="box is empty"):
            load_scenarios(path)


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        _tiny_config(n_grid=(64, 32))
    # a repeated n would write two units' rows under the same keys
    with pytest.raises(ConfigError, match="strictly ascending"):
        _tiny_config(n_grid=(16, 16, 32))
    with pytest.raises(ConfigError):
        _tiny_config(replications=0)
    with pytest.raises(ConfigError, match="master_seed"):
        _tiny_config(master_seed=-1)
    assert _tiny_config(synthetic_n_rule="fixed:17").synthetic_n(64) == 17
    # a superscript two is a digit to str.isdigit, but int() refuses it
    with pytest.raises(ConfigError, match="synthetic_n_rule"):
        _tiny_config(synthetic_n_rule="fixed:\u00b2")
    with pytest.raises(ConfigError, match="must not contain"):
        _tiny_config(name='tiny"quoted')


def test_rows_csv_format(tmp_path):
    rows = [
        ResultRow("s", 1, 0, "e", "c", "chi2", float("inf"), 0.0),
        ResultRow("s", 1, 0, "e", "c", "utility", 0.25, 0.01, "SomeError: boom"),
    ]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,n,replication,estimator,model_class,metric_name,value,std_error,error"
    assert lines[1].split(",")[6] == "inf"
    assert lines[2].endswith("SomeError: boom")
