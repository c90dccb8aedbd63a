"""Benchmark of the permsym CLI experiment families, end to end and per layer.

    python3 perfbench/run.py --workload kt-grid --seed 0 --seconds 30 --trace 0

Every op goes through `permsym.cli.run_experiment`, the path the `permsym`
command takes, in worker processes started from the checkout's src/.

--trace 0 splits the run into SEGMENTS fresh worker processes, one after
another, each measuring for --seconds / SEGMENTS: it imports permsym.cli,
runs one cold op and then steady ops.  The end-to-end metrics are
work_per_s and op_p50_s over the steady ops of all segments, and the
medians over the segments of the import time (setup_s), the cold first
op (first_op_s) and peak resident memory (peak_rss_mb).  Spreading the
cold samples over the whole run keeps one slow spell of a shared host
from setting them all.  --trace 1 runs traced and untraced ops in turn in
one process and reports the per-layer metrics.  Either way every op's
output is checked, failures are counted, and the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
README.md in this directory says why each workload exists and which
end-to-end metric each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

DEADLINE_S = 170          # a run must end within 180 s
SEGMENTS = 4              # fresh worker processes of an end-to-end run
# worker.reference_s() at the nominal host speed: its median on a 2-vCPU
# Xeon (Sapphire Rapids) VM over runs of kt-grid and ps-mc
REFERENCE_S = 0.028
MIN_TRACED_OPS = 2

UNITS = {"work_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "first_op_s": "s",
         "peak_rss_mb": "MB"}


LAYER_UNITS = {"core.gather_bytes": "B", "measures.gram_flops": "flop",
               "kickedtop.otoc_flops": "flop", "kickedtop.otoc_gflops_per_s": "Gflop/s",
               "ensembles.generators_per_sample": "ratio", "trace.overhead_ratio": "ratio",
               "trace.self_sum_ratio": "ratio", "measures.eig_mean_dim": "dim"}


def unit_of(name: str) -> str:
    if name in UNITS or name in LAYER_UNITS:
        return UNITS.get(name) or LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def worker_env(work, nproc) -> dict:
    """Worker environment: the checkout's sources and a fixed BLAS thread count."""
    return dict(os.environ, PYTHONPATH=SRC,
                OPENBLAS_NUM_THREADS=str(min(work.blas_threads, nproc)))


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def worker(args, deadline, env) -> dict:
    """Run perfbench/worker.py with `args` and return its JSON result line."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=deadline.left())
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return None
    return lines[1]


def host_scale(work, runs) -> float:
    """Factor that takes a run's times to the nominal host speed.

    A shared host changes speed in spells of 10-30 s or longer.  The
    worker times a fixed reference routine before every op; when the
    median over the run is slower than REFERENCE_S, the run's times are
    scaled down by the same ratio.  Workloads whose ops the routine does
    not track are not scaled (Workload.host_scaled).
    """
    if not work.host_scaled:
        return 1.0
    return REFERENCE_S / statistics.median(t for r in runs for t in r["reference_s"])


def end_to_end(work, opts, deadline, env, work_dir) -> tuple:
    # segment p starts at op 100000 * p, so no two segments share inputs
    # and segment 0 runs the ops golden_sha256.json covers
    runs = [worker(["--mode", "ops", "--workload", work.name, "--seed", str(opts.seed),
                    "--first-index", str(100000 * p), "--seconds", str(opts.seconds / SEGMENTS),
                    "--min-ops", "1", "--work-dir", work_dir], deadline, env)
            for p in range(SEGMENTS)]

    def timings(scale) -> dict:
        times = [t * scale for r in runs for t in r["op_times"]]
        return {
            "work_per_s": work.units_per_op * len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "setup_s": scale * statistics.median(r["setup_s"] for r in runs),
            "first_op_s": scale * statistics.median(r["first_op_s"] for r in runs),
        }

    metrics = timings(host_scale(work, runs))
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    steady = sum(len(r["op_times"]) for r in runs)
    notes = {
        "work_per_s": f"{work.work_unit} per second over {steady} steady ops",
        "op_p50_s": f"median of {steady} steady ops (too few for a tail percentile)",
        "setup_s": f"median of {len(runs)} fresh imports of permsym.cli",
        "first_op_s": f"median cold first op of {len(runs)} fresh processes",
        "peak_rss_mb": f"median peak resident memory of {len(runs)} processes",
    }
    if work.host_scaled:
        for name, value in timings(1.0).items():
            notes[name] += f"; scaled to host speed, wall clock {value:.6g}"
    return metrics, notes, runs


def traced(work, opts, deadline, env, work_dir) -> tuple:
    os.makedirs(WORK_ROOT, exist_ok=True)
    spans = os.path.join(WORK_ROOT, f"spans-{work.name}-seed{opts.seed}.json")
    run = worker(["--mode", "trace", "--workload", work.name, "--seed", str(opts.seed),
                  "--seconds", str(opts.seconds), "--min-ops", str(MIN_TRACED_OPS),
                  "--work-dir", work_dir, "--spans", spans], deadline, env)
    notes = {"trace.overhead_ratio": f"{run['traced_ops']} traced ops against as many "
                                     f"untraced; spans written to {os.path.relpath(spans, ROOT)}"}
    return run["per_layer"], notes, [run]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "permsym", "cli.py")):
        print(f"error: no permsym sources under {SRC}", file=sys.stderr)
        return 2

    work = WORKLOADS[opts.workload]
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(work, nproc)
    deadline = Deadline(DEADLINE_S)
    work_dir = os.path.join(WORK_ROOT, f"{work.name}-{opts.seed}-{os.getpid()}")
    try:
        measure = traced if opts.trace else end_to_end
        metrics, notes, runs = measure(work, opts, deadline, env, work_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    hash_matches = sum(r["hash_match_ops"] for r in runs)
    env_info = dict(runs[-1]["env"], git_commit=git_commit(), src_sha256=source_digest(),
                    reference_s=statistics.median(t for r in runs for t in r["reference_s"]),
                    host_scaled=work.host_scaled,
                    nproc=nproc, threads=work.threads, seed=opts.seed,
                    workload=work.name, seconds=opts.seconds, trace=opts.trace)

    print(f"perfbench {work.name} seed={opts.seed} trace={opts.trace} "
          f"threads={work.threads} blas_threads={env_info['blas_threads']} nproc={nproc}")
    for name, value in metrics.items():
        unit = unit_of(name)
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    print(f"  {'op_fail_ratio':36s} {failed / attempted:14.6g} ratio  ({failed}/{attempted} ops)")
    if "cli.hash_match_ops" not in metrics:
        print(f"  {'cli.hash_match_ops':36s} {hash_matches:14d} count  "
              "(ops whose output sha256 equals golden_sha256.json)")
    print(json.dumps({"env": env_info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
