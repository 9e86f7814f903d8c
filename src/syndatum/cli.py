"""Command-line interface.

    syndatum experiment <builtin | --config FILE> [--scale K] [--seed S]
                        [--out DIR] [--workers W]
    syndatum synth    --config FILE --out FILE [--seed S]
    syndatum fidelity --config FILE [--d D] [--out FILE]
    syndatum utility  --config FILE [--out FILE] [--seed S]
    syndatum bound    --task {reg,cls,lr} --config FILE [--out FILE] [--seed S]
    syndatum compare  --config FILE [--out FILE] [--seed S]

Exit codes: 0 success, 1 fatal configuration error, 2 completed with
per-row errors recorded in the CSV.  SYNDATUM_WORKERS overrides --workers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .datamodel import NoiseModel, SeedSpec, TaskKind, write_csv
from .densities import certify_fidelity_level, chi_square_divergence
from .erm import parse_model_class
from .errors import ConfigError, SyndatumError
from .harness import (
    BUILTIN_NAMES,
    DEFAULT_MASTER_SEED,
    ScenarioConfig,
    _bound_report,
    _compare,
    _draw_original,
    _fit_downstream,
    _fitted_estimator,
    _lr_case,
    _risk_config,
    _synthesize,
    default_workers,
    load_scenarios,
    run_builtin,
    run_scenario,
    summarize,
    write_rows_csv,
)
from .metrics import utility_metric


def _write_json(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _first_scenario(path) -> ScenarioConfig:
    return load_scenarios(path)[0]


def _seeded(config: ScenarioConfig, seed) -> ScenarioConfig:
    return config if seed is None else replace(config, master_seed=seed)


def _cmd_experiment(args) -> int:
    # the environment variable takes precedence over the flag
    if os.environ.get("SYNDATUM_WORKERS"):
        workers = default_workers()
    else:
        workers = args.workers if args.workers else 1
    if args.config:
        rows = []
        for config in load_scenarios(args.config):
            rows.extend(run_scenario(_seeded(config, args.seed), workers=workers))
    elif args.builtin:
        seed = DEFAULT_MASTER_SEED if args.seed is None else args.seed
        rows = run_builtin(args.builtin, args.scale, seed, workers)
    else:
        raise ConfigError("experiment requires a builtin name or --config FILE")
    os.makedirs(args.out, exist_ok=True)
    write_rows_csv(rows, os.path.join(args.out, "rows.csv"))
    _write_json({"groups": summarize(rows)}, os.path.join(args.out, "summary.json"))
    n_err = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} rows to {args.out} ({n_err} row errors)")
    return 2 if n_err else 0


def _cmd_synth(args) -> int:
    config = _seeded(_first_scenario(args.config), args.seed)
    seed = SeedSpec(config.master_seed, 0)
    original = _draw_original(config, config.n_grid[0], seed.child(0))
    est = _fitted_estimator(config.truth, config.estimators[0], original, seed.child(1))
    synthetic, _ = _synthesize(config, est, original, seed.child(2))
    write_csv(synthetic, args.out)
    print(f"wrote synthetic dataset ({synthetic.n} x {synthetic.p}) to {args.out}")
    return 0


def _cmd_fidelity(args) -> int:
    config = _first_scenario(args.config)
    p, q = config.real_density, config.synth_density
    chi2_pq = chi_square_divergence(p, q)
    chi2_qp = chi_square_divergence(q, p)
    cert = certify_fidelity_level(p, q, d=args.d)
    payload = {
        "chi2_real_vs_synth": "inf" if math.isinf(chi2_pq) else chi2_pq,
        "chi2_synth_vs_real": "inf" if math.isinf(chi2_qp) else chi2_qp,
        "certificate": cert.to_json_dict(),
    }
    _write_json(payload, args.out)
    return 0


def _cmd_utility(args) -> int:
    config = _seeded(_first_scenario(args.config), args.seed)
    seed = SeedSpec(config.master_seed, 0)
    n = config.n_grid[-1]
    original = _draw_original(config, n, seed.child(0))
    classes = [parse_model_class(text, original.p, config.task) for text in config.model_classes]
    f_origs = [_fit_downstream(mc, original) for mc in classes]
    risk_cfg = _risk_config(config, seed.child(9))
    reports = []
    for est_text in config.estimators:
        est = _fitted_estimator(config.truth, est_text, original, seed.child(1))
        synthetic, _ = _synthesize(config, est, original, seed.child(2))
        for class_text, mc, f_orig in zip(config.model_classes, classes, f_origs):
            report = utility_metric(_fit_downstream(mc, synthetic), f_orig, risk_cfg)
            reports.append(
                {
                    "estimator": est_text,
                    "model_class": class_text,
                    "n": n,
                    "report": report.to_json_dict(),
                }
            )
    _write_json(reports, args.out)
    return 0


def _cmd_bound(args) -> int:
    config = _seeded(_first_scenario(args.config), args.seed)
    seed = SeedSpec(config.master_seed, 0)
    n = config.n_grid[0]
    if args.task == "lr":
        if config.task is not TaskKind.REGRESSION or config.truth.name != "linear":
            raise ConfigError("bound --task lr requires a regression scenario with truth 'linear'")
        synth_noise = config.synth_noise or NoiseModel.bounded_uniform(config.noise.variance)
        report, *_ = _lr_case(
            config.real_density, config.synth_density, config.truth.beta, config.noise,
            synth_noise, n, config.synthetic_n(n), seed,
        )
        _write_json({"task": "lr", "n": n, "report": report.to_json_dict()}, args.out)
        return 0

    task = TaskKind.REGRESSION if args.task == "reg" else TaskKind.CLASSIFICATION
    if config.task is not task:
        raise ConfigError(f"bound --task {args.task} requires a {task.value} scenario")
    est_text, class_text = config.estimators[0], config.model_classes[0]
    original = _draw_original(config, n, seed.child(0))
    est = _fitted_estimator(config.truth, est_text, original, seed.child(1))
    synthetic, rv = _synthesize(config, est, original, seed.child(2))
    mc = parse_model_class(class_text, original.p, config.task)
    f_orig, f_synth = _fit_downstream(mc, original), _fit_downstream(mc, synthetic)
    report = _bound_report(
        config, mc, est, rv, f_orig, f_synth, (seed.child(5), seed.child(6), seed.child(7))
    )
    u_report = utility_metric(f_synth, f_orig, _risk_config(config, seed.child(8)))
    payload = {
        "task": args.task,
        "n": n,
        "estimator": est_text,
        "model_class": class_text,
        "report": report.to_json_dict(),
        "measured_utility": u_report.utility,
        "measured_utility_std_error": u_report.combined_std_error,
    }
    if math.isinf(report.total):
        payload["report"]["total"] = "inf"
        payload["vacuous"] = True
    if math.isinf(payload["report"].get("chi2", 0.0)):
        payload["report"]["chi2"] = "inf"
    _write_json(payload, args.out)
    return 0


def _cmd_compare(args) -> int:
    config = _seeded(_first_scenario(args.config), args.seed)
    if len(config.model_classes) != 2:
        raise ConfigError("compare requires exactly two entries in model_classes")
    seed = SeedSpec(config.master_seed, 0)
    original = _draw_original(config, config.n_grid[0], seed.child(0))
    est = _fitted_estimator(config.truth, config.estimators[0], original, seed.child(1))
    report = _compare(config, est, seed.child(2))
    _write_json(report.to_json_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syndatum",
        description="Synthetic-data utility metrics, bounds, and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a builtin or config-driven experiment")
    exp.add_argument("builtin", nargs="?", help=f"builtin name, one of {BUILTIN_NAMES}")
    exp.add_argument("--config", help="scenario config file (INI sections)")
    exp.add_argument("--scale", type=int, default=1, help="divide sizes/replications by this factor")
    exp.add_argument("--seed", type=int, default=None, help="master seed override")
    exp.add_argument("--out", default="syndatum-out", help="output directory")
    exp.add_argument("--workers", type=int, default=0, help="parallel workers (default 1 or SYNDATUM_WORKERS)")

    synth = sub.add_parser("synth", help="emit a synthetic dataset as CSV")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=None)

    fid = sub.add_parser("fidelity", help="chi-square divergence and (V,d) certificate")
    fid.add_argument("--config", required=True)
    fid.add_argument("--d", type=float, default=1.0)
    fid.add_argument("--out", default=None)

    util = sub.add_parser("utility", help="utility reports for one scenario draw")
    util.add_argument("--config", required=True)
    util.add_argument("--out", default=None)
    util.add_argument("--seed", type=int, default=None)

    bound = sub.add_parser("bound", help="utility-bound report with every component")
    bound.add_argument("--task", choices=("reg", "cls", "lr"), required=True)
    bound.add_argument("--config", required=True)
    bound.add_argument("--out", default=None)
    bound.add_argument("--seed", type=int, default=None)

    comp = sub.add_parser("compare", help="consistent model-comparison report")
    comp.add_argument("--config", required=True)
    comp.add_argument("--out", default=None)
    comp.add_argument("--seed", type=int, default=None)
    return parser


_COMMANDS = {
    "experiment": _cmd_experiment,
    "synth": _cmd_synth,
    "fidelity": _cmd_fidelity,
    "utility": _cmd_utility,
    "bound": _cmd_bound,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SyndatumError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
