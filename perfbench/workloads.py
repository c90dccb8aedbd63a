"""The benchmark workloads: per-op inputs and units of work.

Every op is one or more `permsym.cli.run_experiment` calls, the path the
`permsym` command takes.  Op `index` of a run seeded by `seed` draws its
inputs (kick strength, run seed) from `default_rng([seed, index])`, so no
two ops of a run share inputs while shape-keyed caches warm up as they
would for a user.

This module imports nothing heavy, so run.py can read the workload table
without loading numpy, and the worker can set the BLAS thread count
before numpy starts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One run_experiment call of an op."""

    experiment: str
    params: dict
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int        # --threads passed to every call
    blas_threads: int   # OPENBLAS_NUM_THREADS of the worker processes
    host_scaled: bool   # timings scaled to nominal host speed (see run.py)
    work_unit: str      # what work_per_s counts
    units_per_op: int

    def calls(self, seed: int, index: int) -> list:
        import numpy as np
        return _CALLS[self.name](np.random.default_rng([seed, index]))


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 63))


def _kt_grid_calls(rng):
    return [Call("tmi-grid", {"j": 6.0, "k": float(rng.uniform(1.0, 8.0)),
                              "n_theta": 50, "n_phi": 100, "steps": 20,
                              "blocks": "1,1,1", "kind": "vn"}, _draw_seed(rng))]


def _kt_otoc_calls(rng):
    return [Call("otoc", {"j": 300.0, "k": float(rng.uniform(2.0, 8.0)), "steps": 20},
                 _draw_seed(rng))]


def _ps_mc_calls(rng):
    return [Call("averages", {"n": 20, "sweep_q": True, "samples": 8192}, _draw_seed(rng)),
            Call("tmi-random", {"n": 12, "blocks": "1,1,1", "kind": "linear",
                                "ensemble": "ps", "samples": 8192}, _draw_seed(rng)),
            Call("concentration", {"n": 40, "functional": "tmi:1,1,1:linear",
                                   "samples": 8192}, _draw_seed(rng))]


_CALLS = {"kt-grid": _kt_grid_calls, "kt-otoc": _kt_otoc_calls, "ps-mc": _ps_mc_calls}

# BLAS threads: kt-otoc's d=601 products use both cores, as a user's
# default OpenBLAS would.  kt-grid's op times spread three to four times as
# much within a run with two BLAS threads as with one on a 2-core host.
# ps-mc runs --threads 1: with 2 threads its op time depended on the
# host's speed on both cores, which the one-thread reference routine does
# not see, and its scaled median moved 22% in a spell of 30% steal time.
# Host scaling: the reference routine's speed tracks kt-grid's and ps-mc's
# op times, which are small eigensolves and Python loops like it, but not
# kt-otoc's dense products on two BLAS threads.  Over five seeds, scaling
# cut the run-to-run spread of ps-mc's work_per_s (then at --threads 2)
# from 18% to 8% of the median, and raised kt-otoc's from 7% to 22%.
WORKLOADS = {w.name: w for w in (
    Workload("kt-grid", 1, 1, True, "node-kicks", 50 * 100 * 20),
    Workload("kt-otoc", 1, 2, False, "kicks", 20),
    Workload("ps-mc", 1, 1, True, "sampled states", 3 * 8192),
)}
