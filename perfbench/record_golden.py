"""Rewrite golden_sha256.json: output hashes of the first ops at seed 0.

    python3 perfbench/record_golden.py

Run it only for a change that announces new output bytes; the benchmark
compares each run's first ops against these hashes (cli.hash_match_ops).
"""

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS

GOLDEN_OPS = 3
SEED = 0


def main() -> int:
    nproc = len(os.sched_getaffinity(0))
    ops = {}
    for name, work in sorted(WORKLOADS.items()):
        work_dir = os.path.join(run.WORK_ROOT, f"golden-{name}")
        try:
            result = run.worker(["--mode", "ops", "--workload", name, "--seed", str(SEED),
                                 "--min-ops", str(GOLDEN_OPS - 1), "--work-dir", work_dir],
                                run.Deadline(600), run.worker_env(work, nproc))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if result["failed"]:
            print(f"error: {name} ops failed their checks", file=sys.stderr)
            return 1
        ops[name] = [result["op_hashes"][str(i)] for i in range(GOLDEN_OPS)]
    with open(os.path.join(run.HERE, "golden_sha256.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "ops": ops}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
