"""Span tracer that times calls into permsym's modules from the outside.

`Tracer.install()` swaps timing wrappers in for selected module
attributes (every permsym module that binds the same function object
gets the wrapper, so both `cli.mc_purity_sweep` and
`ensembles.mc_purity_sweep` are covered) and `Tracer.uninstall()` puts
the originals back.  The program's code is not changed.

Spans are kept in memory as plain lists and written out by the caller
when the run ends.  A span holds name, start, end, parent, op id, the
thread's CPU time spent inside it and a dict of counters.  Self time is
a span's duration minus the union of the intervals its child spans
cover, computed after the fact by `op_layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time

# span record layout (lists, not objects, to keep per-call cost low)
NAME, START, END, PARENT, OP, CPU, COUNTS, ID = range(8)

# (module, attribute) pairs that get a span wrapper.  numpy.linalg.eigvalsh
# is patched because measures calls it inline; it is the only way to time
# the eigensolve apart from the Gram product around it.
TARGETS = (
    ("permsym.cli", "run_experiment"),
    ("permsym.cli", "_write_rows"),
    ("permsym.cli", "_sha256"),
    ("permsym.ensembles", "mc_purity_sweep"),
    ("permsym.ensembles", "mc_tmi_samples"),
    ("permsym.ensembles", "_map_index_chunks"),
    ("permsym.ensembles", "ps_amplitude_batch"),
    ("permsym.ensembles", "stream"),
    ("permsym.concentration", "empirical_concentration"),
    ("permsym.core", "_block_coefficients"),
    ("permsym.core", "coherent_amplitudes"),
    ("permsym.measures", "block_spectra_batch"),
    ("permsym.measures", "entropy_from_eigenvalues"),
    ("permsym.measures", "block_entropies_batch"),
    ("permsym.measures", "tmi_batch"),
    ("permsym.kickedtop", "build_spin_system"),
    ("permsym.kickedtop", "time_averaged_tmi_grid"),
    ("permsym.kickedtop", "otoc_series"),
    ("numpy.linalg", "eigvalsh"),
)

# span name -> per-layer self-time metric.  Every span name maps to one
# metric, so on a single-threaded workload the self times of one op add
# up to that op's traced wall time.
SELF_METRIC = {
    "cli.run_experiment": "cli.self_s",
    "cli._write_rows": "cli.write_s",
    "cli._sha256": "cli.hash_s",
    "ensembles.mc_purity_sweep": "ensembles.mc_self_s",
    "ensembles.mc_tmi_samples": "ensembles.mc_self_s",
    "ensembles._map_index_chunks": "ensembles.mc_self_s",
    "ensembles.chunk": "ensembles.mc_self_s",
    "ensembles.ps_amplitude_batch": "ensembles.sampler_s",
    "concentration.empirical_concentration": "concentration.self_s",
    "core._block_coefficients": "core.gather_s",
    "core.coherent_amplitudes": "core.coherent_s",
    "measures.block_spectra_batch": "measures.gram_s",
    "linalg.eigvalsh": "measures.eig_s",
    "measures.entropy_from_eigenvalues": "measures.reduce_s",
    "measures.block_entropies_batch": "measures.tmi_s",
    "measures.tmi_batch": "measures.tmi_s",
    "kickedtop.build_spin_system": "kickedtop.build_s",
    "kickedtop.time_averaged_tmi_grid": "kickedtop.floquet_s",
    "kickedtop.otoc_series": "kickedtop.otoc_step_s",
}


def _gram_flops(a) -> dict:
    """Smaller-side Gram product: 8 real flops per complex multiply-add."""
    n, q = a["n_qubits"], a["q"]
    small, large = sorted((q + 1, n - q + 1))
    batch = math.prod(a["amplitudes"].shape[:-1])
    return {"gram_flops": 0 if q in (0, n) else 8 * batch * small * small * large}


# span name -> counters computed from the call's arguments
CALL_COUNTS = {
    "ensembles.ps_amplitude_batch": lambda a: {"samples": a["count"]},
    "measures.block_spectra_batch": _gram_flops,
    "kickedtop.time_averaged_tmi_grid":
        lambda a: {"kicks": math.prod(a["grid"]) * a["n_steps"]},
    "kickedtop.otoc_series":
        lambda a: {"kicks": a["n_max"], "otoc_flops": 32 * a["params"].dim ** 3 * a["n_max"]},
    "cli._write_rows": lambda a: {"rows": len(a["rows"])},
}


def _permsym_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "permsym" or n.startswith("permsym."))]


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _bound(fn, args, kwargs):
    """Arguments of a call by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans for calls into the TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []      # (module, attr, original)
        self.op_id = None

    # -- span bookkeeping ------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, counts=None, on_result=None,
             parent=None, op=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][ID]
        if op is None:
            op = stack[-1][OP] if stack else self.op_id
        span = [name, 0.0, 0.0, parent, op, 0.0, counts or {}, next(self._ids)]
        stack.append(span)
        cpu0 = time.thread_time()
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            span[CPU] = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(span)
        if on_result is not None:
            span[COUNTS].update(on_result(result))
        return result

    def _count(self, key, amount=1):
        stack = self._stack()
        if stack:
            counts = stack[-1][COUNTS]
            counts[key] = counts.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------
    def _wrapper(self, module_name, attr, fn):
        wrapped = self._make_wrapper(f"{_short(module_name)}.{attr}", fn)
        functools.update_wrapper(wrapped, fn)
        wrapped.__perfbench_trace__ = True
        return wrapped

    def _make_wrapper(self, name, fn):
        tracer = self

        if name == "ensembles.stream":
            def counted(*args, **kwargs):
                tracer._count("streams")
                return fn(*args, **kwargs)
            return counted

        if name == "ensembles._map_index_chunks":
            def mapped(*args, **kwargs):
                a = _bound(fn, args, kwargs)

                def body():
                    parent = tracer._stack()[-1]

                    def chunk_worker(start, count):
                        return tracer._run("ensembles.chunk", a["worker"], (start, count),
                                           {}, parent=parent[ID], op=parent[OP])
                    return fn(a["total"], a["chunk"], a["threads"], chunk_worker)
                return tracer._run(name, body, (), {})
            return mapped

        if name == "core._block_coefficients":
            def gather(*args, **kwargs):
                # computed traffic: 16 B written + 16 B gathered + 8 B weight per entry
                return tracer._run(name, fn, args, kwargs,
                                   on_result=lambda out: {"gather_bytes": 40 * out.size})
            return gather

        if name == "measures.block_entropies_batch":
            def entropies(*args, **kwargs):
                linear = _bound(fn, args, kwargs)["kind"].tag == "linear"
                outer = getattr(tracer._local, "linear", False)
                tracer._local.linear = linear
                try:
                    return tracer._run(name, fn, args, kwargs)
                finally:
                    tracer._local.linear = outer
            return entropies

        if name == "linalg.eigvalsh":
            def eig(a, *args, **kwargs):
                matrices = math.prod(a.shape[:-2])
                counts = {"eig_matrices": matrices, "eig_dim_sum": matrices * a.shape[-1]}
                if getattr(tracer._local, "linear", False):
                    counts["linear_eig_matrices"] = matrices
                return tracer._run(name, fn, (a,) + args, kwargs, counts=counts)
            return eig

        counter = CALL_COUNTS.get(name)

        def plain(*args, **kwargs):
            counts = counter(_bound(fn, args, kwargs)) if counter else None
            return tracer._run(name, fn, args, kwargs, counts=counts)
        return plain

    # -- install / restore ----------------------------------------------------
    def install(self):
        """Swap wrappers in for every binding of each target function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _permsym_modules()
        for module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            original = getattr(owner, attr)
            wrapped = self._wrapper(module_name, attr, original)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self):
        """Put every original attribute back."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)


def installed_wrappers() -> list:
    """Names of permsym / numpy.linalg attributes that hold a tracer wrapper.

    Empty once every patched attribute has been restored; checked before
    each untraced op.
    """
    modules = _permsym_modules() + [sys.modules["numpy.linalg"]]
    return [f"{module.__name__}.{attr}" for module in modules
            for attr, value in list(vars(module).items())
            if getattr(value, "__perfbench_trace__", False)]


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> self time: duration minus the union covered by its children."""
    children = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {span[ID]: (span[END] - span[START])
            - _union_length(children.get(span[ID], ()), span[START], span[END])
            for span in spans}


def op_layer_metrics(spans) -> dict:
    """Per-layer metrics of one op from its spans (times in seconds)."""
    out = {metric: 0.0 for metric in SELF_METRIC.values()}
    counts = {}
    chunk_cpu = chunk_wait = 0.0
    chunks = gather_calls = 0
    selfs = self_times(spans)
    for span in spans:
        out[SELF_METRIC[span[NAME]]] += selfs[span[ID]]
        for key, value in span[COUNTS].items():
            counts[key] = counts.get(key, 0) + value
        if span[NAME] == "ensembles.chunk":
            chunks += 1
            wall = span[END] - span[START]
            chunk_cpu += span[CPU]
            chunk_wait += max(0.0, wall - span[CPU])
        elif span[NAME] == "core._block_coefficients":
            gather_calls += 1
    samples = counts.get("samples", 0)
    eig = counts.get("eig_matrices", 0)
    out.update({
        "ensembles.samples": samples,
        "ensembles.generators_per_sample": counts.get("streams", 0) / samples if samples else 0.0,
        "ensembles.chunks": chunks,
        "ensembles.chunk_cpu_s": chunk_cpu,
        "ensembles.chunk_wait_s": chunk_wait,
        "core.gather_calls": gather_calls,
        "core.gather_bytes": counts.get("gather_bytes", 0),
        "measures.gram_flops": counts.get("gram_flops", 0),
        "measures.eig_matrices": eig,
        "measures.eig_mean_dim": counts.get("eig_dim_sum", 0) / eig if eig else 0.0,
        "measures.linear_eig_matrices": counts.get("linear_eig_matrices", 0),
        "kickedtop.otoc_flops": counts.get("otoc_flops", 0),
        "kickedtop.kicks": counts.get("kicks", 0),
        "cli.rows_written": counts.get("rows", 0),
        "trace.self_sum_s": sum(selfs.values()),
    })
    return out
