"""Tests of the benchmark's own machinery: tracer restore, self times, checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import permsym.cli as cli
import tracer as tracing
import workloads
from checks import check_call
from workloads import Call


def _bindings():
    """Every attribute of the permsym modules and numpy.linalg, by identity."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "permsym" or n.startswith("permsym."))]
    modules.append(np.linalg)
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_uninstall_restores_every_wrapped_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.installed_wrappers()
        # both the defining module and every importer get the wrapper
        for name in ("permsym.cli.mc_purity_sweep", "permsym.ensembles.mc_purity_sweep",
                     "permsym.concentration.ps_amplitude_batch",
                     "permsym.kickedtop.coherent_amplitudes", "numpy.linalg.eigvalsh",
                     "permsym.stream"):
            assert name in wrapped
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_runner_restores_wrappers_when_an_op_raises(tmp_path, monkeypatch):
    import worker
    monkeypatch.setitem(workloads._CALLS, "kt-otoc",
                        lambda rng: [Call("otoc", {"j": 2.0, "steps": 0}, 1)])
    runner = worker.Runner("kt-otoc", 7, str(tmp_path))
    runner.op(0, tracing.Tracer())
    assert (runner.attempted, runner.failed) == (1, 1)
    assert tracing.installed_wrappers() == []


def test_reference_routine_never_runs_the_garbage_collector():
    import gc
    import worker
    starts = []

    def record(phase, info):
        starts.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(record)
    gc.set_threshold(1)     # any tracked allocation would start a collection
    try:
        worker.reference_s()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(record)
    assert starts == []
    assert gc.isenabled()


def test_self_time_subtracts_union_of_children():
    spans = [["a", 0.0, 10.0, None, 1, 0.0, {}, 1],
             ["b", 1.0, 3.0, 1, 1, 0.0, {}, 2],
             ["c", 2.0, 5.0, 1, 1, 0.0, {}, 3],     # overlaps b (another thread)
             ["d", 7.0, 8.0, 1, 1, 0.0, {}, 4],
             ["e", 7.5, 9.0, 4, 1, 0.0, {}, 5]]     # outlives its parent d
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 0.5, 5: 1.5})


def test_traced_op_counts_and_self_times(tmp_path):
    tracer = tracing.Tracer()
    tracer.op_id = 1
    tracer.install()
    try:
        cli.run_experiment("tmi-random", {"n": 6, "blocks": "1,1,1", "kind": "linear",
                                          "ensemble": "ps", "samples": 64},
                           3, str(tmp_path), threads=2)
    finally:
        tracer.uninstall()
    m = tracing.op_layer_metrics(tracer.spans)
    assert m["ensembles.samples"] == 64
    assert m["ensembles.generators_per_sample"] == 1.0
    assert m["ensembles.chunks"] == 1
    # sizes {1, 2, 3} of three single-qubit blocks: one eigensolve each per state
    assert m["measures.eig_matrices"] == m["measures.linear_eig_matrices"] == 3 * 64
    assert m["core.gather_calls"] == 3
    assert m["cli.rows_written"] == 64
    assert m["kickedtop.kicks"] == 0 and m["kickedtop.otoc_step_s"] == 0
    # single-threaded here (one chunk), so self times add up to the root span
    root = [s for s in tracer.spans if s[tracing.NAME] == "cli.run_experiment"][0]
    assert m["trace.self_sum_s"] == pytest.approx(root[tracing.END] - root[tracing.START],
                                                  abs=1e-9)


def _run_and_check(tmp_path, call, corrupt=None):
    out = str(tmp_path / call.experiment)
    path = cli.run_experiment(call.experiment, call.params, call.seed, out)[0]
    if corrupt is not None:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        corrupt(rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return check_call(call, path, np.random.default_rng(0))


def _scale(col, factor, row_slice=slice(1, None)):
    def corrupt(rows):
        for row in rows[row_slice]:
            row[col] = repr(float(row[col]) * factor)
    return corrupt


CASES = [
    (Call("tmi-grid", {"j": 3.0, "k": 5.0, "n_theta": 4, "n_phi": 5, "steps": 3,
                       "blocks": "1,1,1", "kind": "vn"}, 1),
     lambda rows: [r.__setitem__(slice(1, None), [repr(float(v) + 1e-6) for v in r[1:]])
                   for r in rows[1:]]),
    (Call("otoc", {"j": 10.0, "k": 4.0, "steps": 4}, 1), _scale(2, 1.0 + 1e-6, slice(2, 3))),
    (Call("averages", {"n": 8, "sweep_q": True, "samples": 4000}, 5), _scale(4, 1.05)),
    (Call("tmi-random", {"n": 6, "blocks": "1,1,1", "kind": "linear", "ensemble": "ps",
                         "samples": 4000}, 5), _scale(2, 1.2)),
    (Call("concentration", {"n": 12, "functional": "tmi:1,1,1:linear",
                            "samples": 1000}, 5), _scale(2, 0.5)),
]


@pytest.mark.parametrize("call,corrupt", CASES, ids=[c.experiment for c, _ in CASES])
def test_checks_pass_real_outputs_and_reject_corrupted_ones(tmp_path, call, corrupt):
    assert _run_and_check(tmp_path, call) == []
    assert _run_and_check(tmp_path, call, corrupt) != []


def test_workload_inputs_depend_only_on_seed_and_index():
    for work in workloads.WORKLOADS.values():
        assert work.calls(3, 5) == work.calls(3, 5)
        assert work.calls(3, 5) != work.calls(3, 6)
        assert work.calls(3, 5) != work.calls(4, 5)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kt-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_hashes_cover_every_workload():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden_sha256.json")) as fh:
        golden = json.load(fh)
    assert set(golden["ops"]) == set(workloads.WORKLOADS)
    assert all(len(h) == 3 and all(len(x) == 64 for x in h) for h in golden["ops"].values())


def test_benchmark_json_declares_every_reported_metric():
    import run
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.UNITS
    # names op_layer_metrics gives, adjusted as worker.run_trace adjusts them
    reported = set(tracing.op_layer_metrics([])) - {"trace.self_sum_s"} | {
        "core.table_cache_misses", "core.table_cache_hits", "kickedtop.otoc_gflops_per_s",
        "cli.hash_match_ops", "trace.overhead_ratio", "trace.self_sum_ratio"}
    assert set(per_layer) == reported
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
