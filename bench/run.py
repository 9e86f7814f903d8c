"""syndatum benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see common.WORKLOADS and NOTES.md) in a closed loop:
each repetition is a fresh process (rep.py) that imports syndatum and runs
the workload's commands through syndatum.cli.main, writing rows.csv and
summary.json.  Repetitions start until --seconds have passed.  Every unit of
every repetition is checked against the digests in refs.json.

--trace 0 reports the end-to-end metrics, medians over the repetitions;
setup_s also takes setup-only probe processes.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus trace.overhead_frac.  The second-to-last stdout line is
the run record; the last is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 2 without a result when the source tree or references are missing,
1 when a repetition process fails.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from common import (
    MASTER_SEEDS,
    OUT,
    PINNED_ENV,
    ROOT,
    SRC,
    UNSET_ENV,
    WORKLOADS,
    BENCH,
    check_units,
    load_refs,
    pinned_env,
    seeded_commands,
    unit_digests,
)
from spans import metric_unit

PROBES = 3  # setup-only processes per untraced run, for a steadier setup_s
TIME_LIMIT_S = 170  # a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


class RepFailed(RuntimeError):
    pass


class Runner:
    """Launches repetition processes running `commands` and checks their
    outputs against `reference`."""

    def __init__(self, commands, workers, reference, scratch, deadline):
        self.commands = commands
        self.workers = workers
        self.reference = reference
        self.scratch = scratch
        self.deadline = deadline
        self.launched = 0
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # of the last repetition

    def launch(self, trace=False, probe=False):
        self.launched += 1
        tag = f"rep{self.launched}"
        out = os.path.join(self.scratch, tag)
        result = out + ".json"
        cmd = [
            sys.executable, str(BENCH / "rep.py"),
            "--commands", json.dumps(self.commands),
            "--out", out, "--result", result, "--workers", str(self.workers),
        ]
        cmd += ["--trace"] * trace + ["--probe"] * probe
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.Popen(
            cmd, env=pinned_env(), cwd=ROOT, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))[1]
        except subprocess.TimeoutExpired:
            err = f"exceeded the {TIME_LIMIT_S} s limit of a run"
        if proc.returncode != 0:  # None after a timeout
            # stop the repetition and any pool worker it left behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RepFailed(f"{tag} exited {proc.returncode}: {err[-2000:]}")
        with open(result) as fh:
            data = json.load(fh)
        if not probe:
            present = [d for d in data["outs"] if os.path.exists(os.path.join(d, "rows.csv"))]
            self.digests = unit_digests(present)
            attempted, failed = check_units(self.digests, self.reference)
            self.attempted += attempted
            self.failed += failed
            data["units"] = sum(1 for key in self.digests if not key.endswith("summary.json"))
            shutil.rmtree(out, ignore_errors=True)
        return data


def _git_describe():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "syndatum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _scales(commands):
    return [int(c[c.index("--scale") + 1]) if "--scale" in c else 1 for c in commands]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "syndatum" / "cli.py").is_file():
        print(f"error: no syndatum source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    master_seed = MASTER_SEEDS[args.seed % len(MASTER_SEEDS)]
    try:
        reference = load_refs()[args.workload][str(master_seed)]
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no reference outputs for {args.workload} seed {master_seed}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    commands = seeded_commands(args.workload, master_seed)
    runner = Runner(commands, WORKLOADS[args.workload]["workers"], reference, scratch, start + TIME_LIMIT_S)
    try:
        plain, traced, setups = [], [], []
        if not args.trace:
            setups = [runner.launch(probe=True)["setup_s"] for _ in range(PROBES)]
        measure_start = time.monotonic()
        while True:
            rep_start = time.monotonic()
            plain.append(runner.launch())
            if args.trace:
                traced.append(runner.launch(trace=True))
            now = time.monotonic()
            if now - measure_start >= args.seconds or now + (now - rep_start) > runner.deadline - 10:
                break
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    samples = {
        "setup_s": setups + [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "worker_cpu_s": [r["worker_cpu_s"] for r in plain],
        "rss_mb": [r["rss_mb"] for r in plain],
        "worker_rss_mb": [r["worker_rss_mb"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
    }
    if args.trace:
        layers = {name: statistics.median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        layers["harness.units"] = traced[0]["units"]
        layers["trace.overhead_frac"] = (
            statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"]) - 1.0
        )
        metrics = {name: {"value": value, "unit": metric_unit(name)} for name, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "wall_s": statistics.median(samples["wall_s"]),
            "cpu_s": statistics.median(samples["cpu_s"]),
            "peak_rss_mb": statistics.median(map(max, samples["rss_mb"], samples["worker_rss_mb"])),
            "ok_frac": 1.0 - runner.failed / runner.attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": master_seed,
        "trace": args.trace,
        "commands": runner.commands,
        "scale": _scales(runner.commands),
        "workers": runner.workers,
        "nproc": os.cpu_count(),
        "versions": plain[0]["versions"],
        "git_describe": _git_describe(),
        "src_sha256": _src_digest(),
        "env": {**PINNED_ENV, **{name: None for name in UNSET_ENV}},
        "reps": len(plain),
        "samples": samples,
    }
    if traced:
        record["layer_self_s"] = traced[0]["layer_self_s"]
        record["span_counts"] = traced[0]["span_counts"]
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
