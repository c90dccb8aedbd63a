"""One benchmark process: times `import permsym.cli`, then runs ops.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and the BLAS thread count fixed in the environment.
Before every op it times `reference_s()`, a fixed routine whose time
stands for the host's current speed; run.py scales timings by it.
Prints one JSON object as its last stdout line.

Modes:
  ops    cold op `--first-index`, then steady ops until `--seconds` have
         passed since the cold op started
  trace  cold op, then traced and untraced ops in turn until `--seconds`
         pass; reports per-layer metrics and writes the spans to --spans
"""

import time

_t0 = time.perf_counter()
import permsym.cli as cli  # noqa: E402  (timed: this is setup_s)
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from checks import check_call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_sha256.json")


def _reference_matrices():
    rng = np.random.default_rng(20240601)
    a = rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3))
    return a + a.conj().transpose(0, 2, 1)


REFERENCE_MATRICES = _reference_matrices()


def reference_s() -> float:
    """Wall time of a fixed routine that stands for the host's current speed.

    The routine is the kind of work kt-grid and ps-mc spend their time in:
    batched eigensolves of small matrices and a Python integer loop.  It
    shares no state with permsym, and the garbage collector is off while it
    runs, so garbage an op leaves behind is collected in the ops as before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(15):
            np.linalg.eigvalsh(REFERENCE_MATRICES)
        total = 0
        for k in range(150_000):
            total += k * k
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs and checks the ops of one workload inside this process."""

    def __init__(self, workload, seed, work_dir):
        self.work = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
        self.golden = golden["ops"][workload] if seed == golden["seed"] else []
        self.attempted = self.failed = self.hash_matches = 0
        self.hashes = {}
        self.references = []

    def op(self, index, tracer=None) -> float:
        """Run op `index`, check its outputs and return its wall time."""
        calls = self.work.calls(self.seed, index)
        dirs = [os.path.join(self.work_dir, f"op{index}-{i}") for i in range(len(calls))]
        self.attempted += 1
        problems, paths = [], []
        self.references.append(reference_s())
        if tracer is not None:
            tracer.op_id = index
            tracer.install()
        started = time.perf_counter()
        try:
            for call, out in zip(calls, dirs):
                paths += cli.run_experiment(call.experiment, call.params, call.seed, out,
                                            "csv", self.work.threads)
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        leftover = tracing.installed_wrappers()
        if leftover:
            raise RuntimeError(f"tracer wrappers left installed: {leftover}")
        if not problems:
            problems += self._check(index, calls, paths, dirs)
        for out in dirs:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"[perfbench] {self.work.name} op {index} failed: " + "; ".join(problems),
                  file=sys.stderr)
        return elapsed

    def _check(self, index, calls, paths, dirs) -> list:
        if len(paths) != len(calls):
            return [f"{len(paths)} data files for {len(calls)} calls"]
        rng = np.random.default_rng([self.seed, index, 1])
        problems, digests = [], []
        for call, path, out in zip(calls, paths, dirs):
            digest = _sha256(path)
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                recorded = json.load(fh)["outputs"][0]["sha256"]
            if recorded != digest:
                problems.append(f"{call.experiment}: manifest sha256 differs from the file")
            try:
                problems += check_call(call, path, rng)
            except Exception:
                problems.append(f"{call.experiment}: check raised "
                                + traceback.format_exc(limit=2))
            digests.append(digest)
        op_hash = hashlib.sha256(",".join(digests).encode()).hexdigest()
        self.hashes[index] = op_hash
        if index < len(self.golden) and self.golden[index] == op_hash:
            self.hash_matches += 1
        return problems


def run_ops(runner, args) -> dict:
    started = time.perf_counter()
    first = runner.op(args.first_index)
    times = []
    index = args.first_index + 1
    while time.perf_counter() - started < args.seconds or len(times) < args.min_ops:
        times.append(runner.op(index))
        index += 1
    return {"first_op_s": first, "op_times": times}


def run_trace(runner, args) -> dict:
    tracer = tracing.Tracer()
    cache = getattr(sys.modules["permsym.core"], "_cached_block_arrays", None)

    def cache_info():
        return cache.cache_info() if hasattr(cache, "cache_info") else None

    runner.op(0)
    traced, untraced, per_op, hits = [], [], [], []
    started = time.perf_counter()
    index = 1
    while time.perf_counter() - started < args.seconds or len(traced) < args.min_ops:
        before = cache_info()
        traced.append(runner.op(index, tracer))
        after = cache_info()
        hits.append(after.hits - before.hits if after else 0)
        per_op.append(tracing.op_layer_metrics(
            [s for s in tracer.spans if s[tracing.OP] == index]))
        untraced.append(runner.op(index + 1))
        index += 2
    metrics = {key: statistics.fmean(m[key] for m in per_op) for key in per_op[0]}
    info = cache_info()
    metrics["core.table_cache_misses"] = info.misses if info else 0
    metrics["core.table_cache_hits"] = statistics.fmean(hits)
    step_s = metrics["kickedtop.otoc_step_s"]
    metrics["kickedtop.otoc_gflops_per_s"] = (
        metrics["kickedtop.otoc_flops"] / step_s / 1e9 if step_s > 0 else 0.0)
    metrics["cli.hash_match_ops"] = runner.hash_matches
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    metrics["trace.self_sum_ratio"] = (metrics.pop("trace.self_sum_s")
                                       / statistics.fmean(untraced))
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "thread_cpu",
                              "counts", "id"], "spans": tracer.spans}, fh)
    return {"per_layer": metrics, "traced_ops": len(traced)}


def _blas_threads():
    """Thread count OpenBLAS reports, or None if its library is not found."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_block() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_threads": _blas_threads()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("ops", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--first-index", type=int, default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    os.makedirs(args.work_dir, exist_ok=True)
    reference_s()   # warm numpy.linalg before the first timed reference
    runner = Runner(args.workload, args.seed, args.work_dir)
    result = run_ops(runner, args) if args.mode == "ops" else run_trace(runner, args)
    result.update(setup_s=SETUP_S, reference_s=runner.references,
                  attempted=runner.attempted, failed=runner.failed,
                  hash_match_ops=runner.hash_matches, op_hashes=runner.hashes,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  env=env_block())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
