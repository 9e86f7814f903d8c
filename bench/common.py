"""Workload table, output digests and reference checks shared by the
benchmark runner (run.py), the repetition process (rep.py) and the helper
scripts (record_refs.py, baseline.py, selftest.py)."""

import hashlib
import json
import os
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs.json"
OUT = ROOT / ".bench_out"

# --seed n selects MASTER_SEEDS[n % len(MASTER_SEEDS)], the master seed
# passed to every command of the workload.  refs.json holds the per-unit row
# digests of each workload for each of these seeds, recorded at the seed
# commit.  Entry 0 is the package default; entry 1 is the held-out seed,
# never used while the benchmark was tuned.
MASTER_SEEDS = (20230517, 90210, 1, 2, 3, 4, 5, 6)

# Each workload is a list of `syndatum` argument lists, run in order in one
# process through syndatum.cli.main; `workers` is the largest --workers.
WORKLOADS = {
    "fig3-fit": {
        "commands": [["experiment", "fig3", "--scale", "20", "--workers", "2"]],
        "workers": 2,
    },
    "bound-suite": {
        "commands": [["experiment", "bound-suite", "--workers", "1"]],
        "workers": 1,
    },
    "analytic": {
        "commands": [
            ["experiment", "consistency", "--workers", "1"],
            ["experiment", "fidelity-fig2", "--workers", "1"],
            ["experiment", "fig5", "--scale", "4", "--workers", "1"],
        ],
        "workers": 1,
    },
}

# BLAS and OpenMP pools pinned to one thread, so a 2-worker pool never runs
# more threads than a 2-core machine has; SYNDATUM_WORKERS is unset because
# the CLI lets it override --workers.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET_ENV = ("SYNDATUM_WORKERS",)


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    return env


def seeded_commands(workload, master_seed):
    return [cmd + ["--seed", str(master_seed)] for cmd in WORKLOADS[workload]["commands"]]


def unit_digests(out_dirs):
    """Digest each unit of the experiment outputs in `out_dirs`.

    A unit is the group of rows.csv rows sharing (scenario, n, replication):
    one replication of one sweep point, or one bound-suite case.  Each
    command's summary.json is one more unit.  Returns {unit key: [sha256
    prefix, rows with an error]}.
    """
    units = {}
    for out in out_dirs:
        out = Path(out)
        with open(out / "rows.csv") as fh:
            next(fh)
            for line in fh:
                # a model class may hold commas; the error text never does
                key = "|".join(line.split(",", 3)[:3])
                unit = units.setdefault(key, [hashlib.sha256(), 0])
                unit[0].update(line.encode())
                unit[1] += bool(line.rstrip("\n").rsplit(",", 1)[1])
        summary = (out / "summary.json").read_bytes()
        units[f"{out.name}/summary.json"] = [hashlib.sha256(summary), 0]
    return {key: [h.hexdigest()[:16], errors] for key, (h, errors) in units.items()}


def load_refs():
    with open(REFS) as fh:
        return json.load(fh)


def check_units(digests, reference):
    """Return (attempted, failed): a unit fails when it has a row error, or
    when it is missing, extra or different against the reference."""
    keys = set(digests) | set(reference)
    failed = sum(
        1
        for key in keys
        if key not in digests or digests[key][1] or digests[key][0] != reference.get(key)
    )
    return len(keys), failed
