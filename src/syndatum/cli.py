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

from .datamodel import NoiseModel, TaskKind, write_csv
from .densities import certify_fidelity_level, chi_square_divergence
from .errors import ConfigError, SyndatumError
from .harness import (
    BUILTIN_NAMES,
    DEFAULT_MASTER_SEED,
    ScenarioConfig,
    _lr_case,
    _sweep_unit,
    _Unit,
    default_workers,
    load_scenarios,
    run_builtin,
    run_scenario,
    summarize,
    write_rows_csv,
)


# JSON has no inf or nan: they are written as rows.csv writes them
_NON_FINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


def _write_json(payload, out):
    plain = json.loads(json.dumps(payload), parse_constant=_NON_FINITE.get)
    text = json.dumps(plain, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seeded(config: ScenarioConfig, seed) -> ScenarioConfig:
    return config if seed is None else replace(config, master_seed=seed)


def _first_scenario(args) -> ScenarioConfig:
    """The first --config scenario, seeded by --seed if given."""
    return _seeded(load_scenarios(args.config)[0], getattr(args, "seed", None))


def _first_unit(args, at: int = 0) -> _Unit:
    """Replication 0 of the first --config scenario at n_grid[at], the unit
    ``experiment --config`` runs there."""
    config = _first_scenario(args)
    return _sweep_unit(config, range(len(config.n_grid))[at], 0)


def _cmd_experiment(args) -> int:
    if args.workers < 0:
        raise ConfigError(f"--workers must be >= 0, got {args.workers}")
    # the environment variable takes precedence over the flag
    workers = default_workers() if os.environ.get("SYNDATUM_WORKERS") else max(1, args.workers)
    if bool(args.builtin) == bool(args.config) or (args.config and args.scale != 1):
        raise ConfigError("experiment takes a builtin name or --config FILE, not both; --scale needs a builtin")
    if args.config:
        configs = [_seeded(config, args.seed) for config in load_scenarios(args.config)]
        rows = run_scenario(*configs, workers=workers)
    else:
        seed = DEFAULT_MASTER_SEED if args.seed is None else args.seed
        rows = run_builtin(args.builtin, args.scale, seed, workers)
    os.makedirs(args.out, exist_ok=True)
    write_rows_csv(rows, os.path.join(args.out, "rows.csv"))
    _write_json({"groups": summarize(rows)}, os.path.join(args.out, "summary.json"))
    n_err = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} rows to {args.out} ({n_err} row errors)")
    return 2 if n_err else 0


def _cmd_synth(args) -> int:
    synthetic, _ = _first_unit(args).synthetic(0)
    write_csv(synthetic, args.out)
    print(f"wrote synthetic dataset ({synthetic.n} x {synthetic.p}) to {args.out}")
    return 0


def _cmd_fidelity(args) -> int:
    config = _first_scenario(args)
    p, q = config.real_density, config.synth_density
    payload = {
        "chi2_real_vs_synth": chi_square_divergence(p, q),
        "chi2_synth_vs_real": chi_square_divergence(q, p),
        "certificate": certify_fidelity_level(p, q, d=args.d).to_json_dict(),
    }
    _write_json(payload, args.out)
    return 0


def _cmd_utility(args) -> int:
    unit = _first_unit(args, -1)
    reports = [
        {"estimator": est_text, "model_class": class_text, "n": unit.n,
         "report": unit.utility(ei, ci).to_json_dict()}
        for ei, est_text in enumerate(unit.config.estimators)
        for ci, class_text in enumerate(unit.config.model_classes)
    ]
    _write_json(reports, args.out)
    return 0


def _cmd_bound(args) -> int:
    unit = _first_unit(args)
    config, n = unit.config, unit.n
    if args.task == "lr":
        if config.task is not TaskKind.REGRESSION or config.truth.name != "linear":
            raise ConfigError("bound --task lr requires a regression scenario with truth 'linear'")
        synth_noise = config.synth_noise or NoiseModel.bounded_uniform(config.noise.variance)
        report, *_ = _lr_case(
            config.real_density, config.synth_density, config.truth.beta, config.noise,
            synth_noise, n, config.synthetic_n(n), unit.seed,
        )
        payload = {"task": "lr", "n": n, "report": report.to_json_dict()}
    else:
        task = TaskKind.REGRESSION if args.task == "reg" else TaskKind.CLASSIFICATION
        if config.task is not task:
            raise ConfigError(f"bound --task {args.task} requires a {task.value} scenario")
        report, u_report = unit.bound(0, 0), unit.utility(0, 0)
        payload = {
            "task": args.task,
            "n": n,
            "estimator": config.estimators[0],
            "model_class": config.model_classes[0],
            "report": report.to_json_dict(),
            "measured_utility": u_report.utility,
            "measured_utility_std_error": u_report.combined_std_error,
        }
    if math.isinf(report.total):
        payload["vacuous"] = True
    _write_json(payload, args.out)
    return 0


def _cmd_compare(args) -> int:
    unit = _first_unit(args)
    if len(unit.config.model_classes) != 2:
        raise ConfigError("compare requires exactly two entries in model_classes")
    _write_json(unit.comparison().to_json_dict(), args.out)
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

    def command(name, help_text, seeded=True, out_required=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", required=out_required, default=None)
        if seeded:
            cmd.add_argument("--seed", type=int, default=None)
        return cmd

    command("synth", "emit a synthetic dataset as CSV", out_required=True)
    fid = command("fidelity", "chi-square divergence and (V,d) certificate", seeded=False)
    fid.add_argument("--d", type=float, default=1.0)
    command("utility", "utility reports for one scenario draw")
    bound = command("bound", "utility-bound report with every component")
    bound.add_argument("--task", choices=("reg", "cls", "lr"), required=True)
    command("compare", "consistent model-comparison report")
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
