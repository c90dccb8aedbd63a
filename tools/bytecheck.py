#!/usr/bin/env python3
"""Compare the CLI data files of two source trees, byte for byte.

    python tools/bytecheck.py --parent OLD_TREE --change NEW_TREE

Every command of COMMANDS runs in a fresh process for each tree and each of
--threads 1 and 2, as `python -m permsym.cli <command> --seed 11 --threads T`
with PYTHONPATH=<tree>/src and OPENBLAS_NUM_THREADS=1.  One line per command
gives the first 12 hex digits of the data file's sha256 at parent/1,
parent/2, change/1 and change/2, then SAME if all four agree and DIFF if
not.  The exit status is 1 if a command fails or a tree gives different
bytes at its two thread counts, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

SEED = 11
THREADS = (1, 2)

# Sample counts span several Monte Carlo blocks, so --threads 2 runs a pool.
# Then: the JSON writer, the empty cells of an analytic-only table, a Wishart
# cut of at most core.ROW_GRAM_MAX_ROWS rows, TMI grids and a time series of
# several core._block_rows blocks (j = 40, blocks 10,10,10: 41 rows; 601
# steps take 15 blocks) and JSON runs of the two kicked-top tables.
COMMANDS = [
    "ensemble-spectrum --kind ps --n 12 --q 6 --samples 2000",
    "ensemble-spectrum --kind ps --n 40 --q 20 --samples 1000",
    "ensemble-spectrum --kind ps --n 41 --q 7 --samples 1000",
    "ensemble-spectrum --kind ps --n 12 --q 10 --samples 4000",
    "ensemble-spectrum --kind wishart --n1 5 --n2 7 --samples 4000",
    "ensemble-spectrum --kind wishart --n1 21 --n2 21 --samples 500",
    "ensemble-spectrum --kind wishart --n1 7 --n2 3 --samples 7000",
    "tmi-random --n 12 --blocks 1,2,2 --kind vn --ensemble both --samples 2000",
    "tmi-random --n 12 --blocks 1,1,1 --kind linear --ensemble ps --samples 8192",
    "tmi-random --n 10 --blocks 3,2,3 --kind vn --ensemble wishart --samples 100",
    "averages --n 20 --sweep-q --samples 8192",
    "concentration --n 40 --functional tmi:1,1,1:linear --samples 8192",
    "tmi-grid --j 6 --n-theta 10 --n-phi 20 --steps 20",
    "otoc --j 60 --steps 20",
    "timeseries --j 10 --steps 100",
    "vn-scaling --n-min 20 --n-max 24 --samples 1000",
    "phase-portrait --points 50 --steps 200",
    "lyapunov --transient 100 --average 1000 --trajectories 8",
    "averages --n 20 --sweep-q --samples 4096 --format json",
    "averages --n 12 --sweep-q",
    "ensemble-spectrum --kind wishart --n1 3 --n2 9",
    "tmi-grid --j 40 --blocks 10,10,10 --n-theta 10 --n-phi 20 --steps 2",
    "tmi-grid --j 40 --blocks 10,10,10 --n-theta 10 --n-phi 20 --steps 2 --p 1.1",
    "tmi-grid --j 6 --n-theta 10 --n-phi 20 --steps 20 --format json",
    "timeseries --j 10 --steps 100 --format json",
    "timeseries --j 40 --blocks 10,10,10 --steps 600",
]


def data_digest(tree: str, command: str, threads: int) -> str | None:
    """sha256 of the data file `command` writes from `tree`, None if it fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "permsym.cli", *command.split(), "--seed", str(SEED),
                "--threads", str(threads), "--out", out]
        run = subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(f"{tree}: {command} --threads {threads} exited "
                             f"{run.returncode}\n{run.stderr}")
            return None
        with open(run.stdout.split()[-1], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent")
    parser.add_argument("--change", required=True, help="source tree of the change")
    args = parser.parse_args(argv)
    status = 0
    for command in COMMANDS:
        digests = [data_digest(tree, command, threads)
                   for tree in (args.parent, args.change) for threads in THREADS]
        if None in digests or digests[0] != digests[1] or digests[2] != digests[3]:
            status = 1
        verdict = "SAME" if len(set(digests)) == 1 else "DIFF"
        cells = " ".join((d or "FAILED")[:12].ljust(12) for d in digests)
        print(f"{command:<76} {cells} {verdict}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
