"""Record refs.json: the per-unit output digests of every workload for every
master seed in common.MASTER_SEEDS.  Run it only at a commit whose outputs
are the accepted ones; the benchmark fails every unit that differs.

    python3 bench/record_refs.py
"""

import json
import shutil
import tempfile
import time

from common import MASTER_SEEDS, OUT, REFS, WORKLOADS, seeded_commands
from run import Runner


def main():
    refs = {}
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        refs[name] = {}
        for seed in MASTER_SEEDS:
            scratch = tempfile.mkdtemp(prefix="refs-", dir=OUT)
            try:
                runner = Runner(seeded_commands(name, seed), WORKLOADS[name]["workers"], {}, scratch,
                                time.monotonic() + 600)
                rep = runner.launch()
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if any(rep["exit_codes"]) or any(errors for _, errors in runner.digests.values()):
                raise SystemExit(f"{name} seed {seed}: exit codes {rep['exit_codes']} or row errors")
            refs[name][str(seed)] = {key: digest for key, (digest, _) in sorted(runner.digests.items())}
            print(f"{name} seed {seed}: {len(runner.digests)} units, {rep['wall_s']:.1f} s", flush=True)
        REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
