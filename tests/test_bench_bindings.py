"""The benchmark's tracer (bench/spans.py) and self-test (bench/selftest.py)
reach into syndatum by name.  A rename or a move would break them only when
the benchmark runs, so this checks that every name they bind still exists
where they look for it."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

import syndatum.metrics
from syndatum.datamodel import TaskKind
from syndatum.densities import BoxSupport, UniformBox
from syndatum.erm import FittedModel, make_model_class

BENCH = Path(__file__).resolve().parent.parent / "bench"

# attributes spans.install() wraps or replaces by hand
HAND_BOUND = (
    "synthesis.synthesize_from_fitted",
    "estimators.FittedEstimator.mean",
    "estimators.FittedEstimator.prob",
    "estimators.ESTIMATOR_KINDS",
    "densities.DensityModel.sample",
    "cli._write_json",
    "metrics.quad",
    "densities.quad",
    "harness.ProcessPoolExecutor",
)
# span names recorded by hand-bound wrappers, not named after a function
RECORDED_BY_HAND = {"harness.pool_unit", "estimators.predict", "densities.sample"}


def _assigned_strings(path: Path, targets) -> set:
    """String constants in the module-level assignments to `targets`."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in targets for t in node.targets):
            out |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return out


def _span_names() -> list:
    names = _assigned_strings(BENCH / "spans.py", {"RISK", "FIDELITY", "ERM_FIT", "SYNTH", "WRITE"})
    names |= _assigned_strings(BENCH / "selftest.py", {"NAMED_SPANS"})
    return sorted(names - RECORDED_BY_HAND)


def _resolve(name: str):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"syndatum.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_bench_bound_names_exist():
    span_names = _span_names()
    assert "erm.population_optimum" in span_names  # the parsing above read something
    missing = []
    for name in HAND_BOUND + tuple(span_names):
        try:
            obj = _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        # spans.install() names a span after the module that defines the function
        module = f"syndatum.{name.split('.')[0]}"
        if name in span_names and not (inspect.isfunction(obj) and obj.__module__ == module):
            missing.append(name)
    assert not missing, f"names bench/ binds that syndatum no longer has: {missing}"


def test_bench_selftest_passes():
    # the names above can all exist while a unit no longer calls a traced
    # function; the self-test runs the tracer on a small sweep and sees that
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=BENCH.parent, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert any(line.startswith("ok:") for line in proc.stdout.splitlines()), proc.stdout


def test_risk_quadrature_calls_quad_through_the_module(monkeypatch):
    # spans.install() counts metrics.quad_calls by rebinding syndatum.metrics.quad;
    # a quad bound anywhere else would run uncounted
    calls = []
    real_quad = syndatum.metrics.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(syndatum.metrics, "quad", counted)
    density = UniformBox(BoxSupport((-1.0,), (1.0,)))
    truth = lambda X: np.abs(X[:, 0])
    linear, absval = (
        FittedModel(make_model_class(name, 1, TaskKind.REGRESSION), [0.5]) for name in ("linear", "abs")
    )
    cfg = syndatum.metrics.RiskConfig(density=density, truth=truth, method="quadrature")
    syndatum.metrics.utility_metric(linear, absval, cfg)
    assert calls == [(-1.0, 1.0)] * 2
    syndatum.metrics.excess_risk(linear, density, truth, method="quadrature")
    assert calls == [(-1.0, 1.0)] * 3
