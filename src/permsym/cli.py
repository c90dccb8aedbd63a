"""Reproducible experiment driver.

One subcommand per experiment family; every run is fully determined by
(config, seed) and emits data files plus a manifest.json recording the
resolved config, seed, library version, wall time, the environment
(Python, numpy, scipy and BLAS versions, thread settings) and a content
hash of each output.  Floats are written with shortest round-trip
formatting, so identical runs produce byte-identical data files regardless
of how the work is sharded.

Exit codes: 0 success, 2 invalid input (DomainError, or OSError of an unwritable
output), 3 capacity cap exceeded (CapacityError), 4 failed numerical health
check (IntegrityError, or an eigensolver that did not converge, LinAlgError).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time
from importlib import metadata

import numpy as np

from . import __version__
from .concentration import empirical_concentration
from .ensembles import (EnsembleSpec, avg_linear_entropy_ps, avg_purity_ps,
                        avg_vn_entropy_ps, mc_block_entropy, mc_purity_sweep,
                        mc_tmi_full_samples, mc_tmi_samples, page_entropy,
                        spectral_histogram, stream)
from .errors import CapacityError, DomainError, IntegrityError
from .kickedtop import (KickedTopParams, lyapunov_exponent, otoc_series,
                        phase_portrait, saturation_residuals,
                        time_averaged_tmi_grid, timeseries_measures)
from .measures import LINEAR, VON_NEUMANN

OUTDIR_ENV = "PERMSYM_OUTDIR"

KINDS = {"vn": VON_NEUMANN, "lin": LINEAR, "linear": LINEAR}


def _write_rows(path, fmt, header, rows):
    """Write rows (tuples of Python scalars, "" for an empty cell) as CSV or JSON: a
    CSV cell is str(v), a JSON value v itself ("" as null, a numpy scalar as v.item())."""
    if fmt == "csv":
        columns = [list(map(str, column)) for column in zip(*rows)]
        lines = [",".join(header)] + [",".join(cells) for cells in zip(*columns)]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        records = [{h: None if v == "" else v.item() if isinstance(v, np.generic) else v
                    for h, v in zip(header, row)} for row in rows]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")


def _parse_list(text, typ, what):
    try:
        return [typ(part) for part in str(text).split(",")]
    except ValueError:
        raise DomainError(f"{what} must be comma-separated {typ.__name__}s, got {text!r}") from None


def _convert(value, typ, what):
    # bool("false") is True and int(True) is 1: a JSON boolean passes only as a
    # bool, and int() would truncate a fraction
    if (typ is bool) != isinstance(value, bool) or (
            typ is int and isinstance(value, float) and not value.is_integer()):
        raise DomainError(f"{what}={value!r} is not a {typ.__name__}")
    try:
        return typ(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what}={value!r} is not a {typ.__name__}") from None


def _parse_kind(text):
    if text not in KINDS:
        raise DomainError(f"entropy kind {text!r} must be one of {', '.join(KINDS)}")
    return KINDS[text]


def _parse_blocks(text):
    parts = _parse_list(text, int, "blocks")
    if len(parts) != 3:
        raise DomainError(f"blocks must be three comma-separated sizes, got {text!r}")
    return tuple(parts)


def _parse_functional(text):
    parts = str(text).split(":")
    if parts[0] in ("vn", "linear") and len(parts) == 2 and parts[1].isdigit():
        return (parts[0], int(parts[1]))
    if parts[0] == "tmi" and len(parts) == 3:
        return ("tmi", _parse_blocks(parts[1]), _parse_kind(parts[2]))
    raise DomainError(
        f"functional {text!r} must look like vn:2, linear:2 or tmi:1,1,1:linear")


# ---------------------------------------------------------------------------
# experiment implementations: each returns (filename stem, header, rows)
# ---------------------------------------------------------------------------

def _exp_ensemble_spectrum(p, seed, threads):
    dims = (p["n"], p["q"]) if p["kind"] == "ps" else (p["n1"], p["n2"])
    spec = EnsembleSpec(p["kind"], dims, p["samples"], seed)  # rejects an unknown kind
    hist = spectral_histogram(spec, bins=p["bins"], threads=threads)
    edges = hist.bin_edges.tolist()
    rows = list(zip(edges[:-1], edges[1:], hist.densities.tolist()))
    return "spectrum", ("x_left", "x_right", "density"), rows


def _exp_averages(p, seed, threads):
    n = p["n"]
    if p["sweep_q"] and n < 2:
        raise DomainError(f"--sweep-q needs N >= 2 qubits, got N={n}")
    qs = list(range(1, n)) if p["sweep_q"] else [p["q"]]
    results = (mc_purity_sweep(n, p["samples"], seed, qs, threads=threads)
               if p["samples"] != 0 else {})
    rows = []
    for q in qs:
        analytic_p = avg_purity_ps(n, q)
        analytic_s = avg_linear_entropy_ps(n, q)
        if q in results:
            res = results[q]
            rows.append((n, q, "purity", analytic_p, res.mean, res.stderr))
            rows.append((n, q, "linear_entropy", analytic_s, 1.0 - res.mean, res.stderr))
        else:
            rows.append((n, q, "purity", analytic_p, "", ""))
            rows.append((n, q, "linear_entropy", analytic_s, "", ""))
    return "averages", ("N", "Q", "quantity", "analytic", "montecarlo", "stderr"), rows


def _exp_vn_scaling(p, seed, threads):
    sizes = range(p["n_min"] + p["n_min"] % 2, p["n_max"] + 1, 2)
    if not sizes:
        raise DomainError(f"[{p['n_min']}, {p['n_max']}] holds no even qubit count")
    rows = []
    for n in sizes:
        q = n // 2
        res = mc_block_entropy(n, q, VON_NEUMANN, p["samples"], seed, threads=threads)
        formula = avg_vn_entropy_ps(n, q, alpha=p["alpha"], half_correction=True)
        rows.append((n, q, p["samples"], res.mean, res.stderr, formula,
                     page_entropy(q + 1, n - q + 1)))
    return "vn_scaling", ("N", "Q", "samples", "mc_mean", "mc_stderr",
                          "formula", "page"), rows


def _exp_tmi_random(p, seed, threads):
    n = p["n"]
    blocks = _parse_blocks(p["blocks"])
    kind = _parse_kind(p["kind"])
    if p["ensemble"] not in ("ps", "wishart", "both"):
        raise DomainError(f"ensemble {p['ensemble']!r} must be one of ps, wishart, both")
    if p["ensemble"] != "ps" and n > 16:  # before any PS draw
        raise CapacityError(f"full-space sampling capped at 16 qubits, got {n}")
    rows = []
    if p["ensemble"] in ("ps", "both"):
        vals = mc_tmi_samples(n, blocks, kind, p["samples"], seed, threads=threads)
        rows += [(i, "ps", v) for i, v in enumerate(vals.tolist())]
    if p["ensemble"] in ("wishart", "both"):
        vals = mc_tmi_full_samples(n, blocks, kind, p["samples"], seed + 1, threads=threads)
        rows += [(i, "wishart", v) for i, v in enumerate(vals.tolist())]
    return "tmi_random", ("sample", "ensemble", "tmi"), rows


def _exp_timeseries(p, seed, threads):
    kinds = tuple(_parse_kind(k) for k in str(p["kinds"]).split(","))
    table = timeseries_measures(KickedTopParams(p["j"], p["k"], p["p"]),
                                p["theta"], p["phi"], p["steps"],
                                _parse_blocks(p["blocks"]), kinds)
    header = list(table.keys())
    if p["residual_reference"] is not None:
        for col in [c for c in header if c.startswith("I3_")]:
            table["residual_" + col] = saturation_residuals(
                table[col], p["residual_reference"])
        header = list(table.keys())
    rows = list(zip(*[table[h].tolist() for h in header]))
    return "timeseries", tuple(header), rows


def _exp_otoc(p, seed, threads):
    series = otoc_series(KickedTopParams(p["j"], p["k"], p["p"]), p["steps"])
    rows = list(zip(*[col.tolist() for col in (series.steps, series.f, series.c2, series.c4)]))
    return "otoc", ("n", "F", "C2", "C4"), rows


def _exp_tmi_grid(p, seed, threads):
    thetas, phis, grid = time_averaged_tmi_grid(
        KickedTopParams(p["j"], p["k"], p["p"]), (p["n_theta"], p["n_phi"]),
        p["steps"], _parse_blocks(p["blocks"]), _parse_kind(p["kind"]))
    header = ("theta\\phi",) + tuple(map(str, phis.tolist()))
    rows = [(theta,) + tuple(row) for theta, row in zip(thetas.tolist(), grid.tolist())]
    return "tmi_grid", header, rows


def _exp_phase_portrait(p, seed, threads):
    rows = phase_portrait(p["k"], p["p"], p["points"], p["steps"],
                          stream(seed))
    out = [(phi, z, int(i), int(step)) for phi, z, i, step in rows.tolist()]
    return "phase_portrait", ("phi", "Z", "trajectory_id", "step"), out


def _exp_lyapunov(p, seed, threads):
    est = lyapunov_exponent(p["k"], p["p"], p["transient"], p["average"],
                            p["trajectories"], stream(seed))
    row = (p["k"], p["p"], p["transient"], p["average"], p["trajectories"], est)
    return "lyapunov", ("k", "p", "n_transient", "n_average",
                        "n_trajectories", "lambda"), [row]


def _exp_concentration(p, seed, threads):
    functional = _parse_functional(p["functional"])
    epsilons = _parse_list(p["epsilons"], float, "epsilons")
    rows = empirical_concentration(p["n"], functional, p["samples"], epsilons,
                                   seed, threads=threads)
    return "concentration", ("epsilon", "empirical_tail", "levy_bound", "stderr"), [
        (r.epsilon, r.empirical_tail, r.bound, r.stderr) for r in rows]


# name -> (figure/claim family, runner, parameter spec)
# parameter spec: name -> (type, default, help)
EXPERIMENTS = {
    "ensemble-spectrum": (
        "reduced-state eigenvalue histograms (spectral density figures)",
        _exp_ensemble_spectrum,
        {"kind": (str, "ps", "ensemble: ps | wishart"),
         "n": (int, 12, "qubit count (ps)"),
         "q": (int, 6, "block size (ps)"),
         "n1": (int, 101, "subsystem dimension (wishart)"),
         "n2": (int, 101, "environment dimension (wishart)"),
         "samples": (int, 10000, "states to sample"),
         "bins": (int, 250, "histogram bins")}),
    "averages": (
        "analytic vs Monte Carlo purity / linear entropy table",
        _exp_averages,
        {"n": (int, 12, "qubit count"),
         "q": (int, 2, "block size (ignored with --sweep-q)"),
         "sweep_q": (bool, False, "emit every block size 1..N-1"),
         "samples": (int, 0, "Monte Carlo samples (0 = analytic only)")}),
    "vn-scaling": (
        "average half-system von Neumann entropy vs the fitted form",
        _exp_vn_scaling,
        {"n_min": (int, 90, "smallest qubit count (even N only)"),
         "n_max": (int, 102, "largest qubit count"),
         "samples": (int, 1000, "states per N"),
         "alpha": (float, 2.0 / 3.0, "constant in the fitted form")}),
    "tmi-random": (
        "TMI scatter over random PS and/or unrestricted states",
        _exp_tmi_random,
        {"n": (int, 12, "qubit count"),
         "blocks": (str, "1,2,2", "three block sizes q1,q2,q3"),
         "kind": (str, "vn", "entropy kind: vn | linear"),
         "ensemble": (str, "both", "ps | wishart | both"),
         "samples": (int, 100, "states per ensemble")}),
    "timeseries": (
        "kicked-top entanglement / MI / TMI time series",
        _exp_timeseries,
        {"j": (float, 10.0, "spin j (2j qubits)"),
         "k": (float, 6.0, "kick strength"),
         "p": (float, math.pi / 2.0, "rotation angle"),
         "theta": (float, 2.25, "initial coherent theta"),
         "phi": (float, 0.63, "initial coherent phi"),
         "steps": (int, 250, "number of kicks"),
         "blocks": (str, "1,1,1", "three block sizes"),
         "kinds": (str, "vn,lin", "comma-separated entropy kinds"),
         "residual_reference": (float, None,
                                "emit ln|I3 - ref| residual columns")}),
    "otoc": (
        "commutator growth F(n), C2(n), C4(n) of Jx",
        _exp_otoc,
        {"j": (float, 750.0, "spin j"),
         "k": (float, 6.0, "kick strength"),
         "p": (float, math.pi / 2.0, "rotation angle"),
         "steps": (int, 20, "number of kicks")}),
    "tmi-grid": (
        "time-averaged TMI over a grid of coherent initial states",
        _exp_tmi_grid,
        {"j": (float, 6.0, "spin j"),
         "k": (float, 6.0, "kick strength"),
         "p": (float, math.pi / 2.0, "rotation angle"),
         "n_theta": (int, 50, "grid points in theta"),
         "n_phi": (int, 100, "grid points in phi"),
         "steps": (int, 1000, "kicks averaged per node"),
         "blocks": (str, "1,1,1", "three block sizes"),
         "kind": (str, "vn", "entropy kind")}),
    "phase-portrait": (
        "classical map trajectories projected to (phi, Z)",
        _exp_phase_portrait,
        {"k": (float, 6.0, "kick strength"),
         "p": (float, math.pi / 2.0, "rotation angle"),
         "points": (int, 200, "random initial points"),
         "steps": (int, 500, "iterations per point")}),
    "lyapunov": (
        "largest classical Lyapunov exponent",
        _exp_lyapunov,
        {"k": (float, 6.0, "kick strength"),
         "p": (float, math.pi / 2.0, "rotation angle"),
         "transient": (int, 200, "discarded steps"),
         "average": (int, 4000, "averaged steps"),
         "trajectories": (int, 32, "random initial points")}),
    "concentration": (
        "empirical tails vs the spherical concentration bound",
        _exp_concentration,
        {"n": (int, 12, "qubit count"),
         "functional": (str, "linear:2", "vn:Q | linear:Q | tmi:q1,q2,q3:kind"),
         "samples": (int, 10000, "states to sample"),
         "epsilons": (str, "0.05,0.1,0.2", "comma-separated deviations")}),
}


def _catalog_json():
    return {name: {"figure_family": fig,
                   "parameters": {k: {"type": t.__name__, "default": d, "help": h}
                                  for k, (t, d, h) in spec.items()}}
            for name, (fig, _, spec) in EXPERIMENTS.items()}


def list_experiments(as_json: bool = False) -> str:
    """Catalog of subcommands, their parameters and figure families."""
    if as_json:
        return json.dumps(_catalog_json(), indent=1)
    lines = []
    for name, (fig, _, spec) in EXPERIMENTS.items():
        lines.append(f"{name}: {fig}")
        for k, (t, d, h) in spec.items():
            lines.append(f"    --{k.replace('_', '-')} ({t.__name__}, default {d}): {h}")
    return "\n".join(lines)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.cache
def _scipy_version() -> str | None:
    """scipy's version from its metadata, None if it is absent; the package never imports it."""
    return next((dist.version for dist in metadata.distributions(name="scipy")), None)


def _environment(threads: int) -> dict:
    """Versions, BLAS build and thread settings the run computed with."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": _scipy_version(),
           "blas": {"name": blas.get("name"), "version": blas.get("version")},
           "threads": threads}
    env.update({var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                if var in os.environ})
    return env


def run_experiment(name: str, params: dict, seed: int, out_dir: str,
                   fmt: str = "csv", threads: int = 1) -> list:
    """Run one experiment and write its data file plus manifest.json.

    Returns the list of written data file paths.
    """
    fig, runner, spec = EXPERIMENTS[name]
    for key in params:
        if key not in spec:
            raise DomainError(f"unknown parameter {key!r} for {name}")
    if threads < 1:
        raise DomainError(f"threads={threads} must be >= 1")
    if fmt not in ("csv", "json"):
        raise DomainError(f"format {fmt!r} must be csv or json")
    resolved = {k: d for k, (t, d, h) in spec.items()}
    for key, value in params.items():
        resolved[key] = value if value is None else _convert(
            value, spec[key][0], f"parameter {key}")

    started = time.perf_counter()
    stem, header, rows = runner(resolved, seed, threads)
    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, f"{stem}.{fmt}")
    _write_rows(data_path, fmt, header, rows)

    manifest = {
        "experiment": name,
        "figure_family": fig,
        "config": resolved,
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "env": _environment(threads),
        "outputs": [{"path": os.path.basename(data_path), "sha256": _sha256(data_path)}],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return [data_path]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsym",
        description="Permutation-symmetric qubit ensemble and kicked-top experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list-experiments", help="catalog of experiments")
    lister.add_argument("--json", action="store_true", help="machine-readable schema")

    for name, (fig, _, spec) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=fig)
        for key, (typ, default, helptext) in spec.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_true", default=argparse.SUPPRESS,
                               help=helptext)
            else:
                p.add_argument(flag, type=typ, default=argparse.SUPPRESS,
                               help=f"{helptext} (default {default})")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="64-bit run seed (default 0)")
        p.add_argument("--out", type=str, default=argparse.SUPPRESS,
                       help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS,
                       help="data file format (default csv)")
        p.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                       help="worker threads for sampling shards (default 1)")
        p.add_argument("--config", type=str, default=argparse.SUPPRESS,
                       help="JSON file with parameter values (flags override)")
    return parser


def _load_config(path) -> dict:
    """Parameter values from a JSON object file; unreadable input is a DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return dict(json.load(fh))
    except (OSError, TypeError, ValueError) as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    if command == "list-experiments":
        print(list_experiments(as_json=args.get("json", False)))
        return 0

    try:
        merged = _load_config(args.pop("config")) if "config" in args else {}
        merged.update(args)
        seed = _convert(merged.pop("seed", 0), int, "seed")
        out_dir = merged.pop("out", os.environ.get(OUTDIR_ENV, "."))
        if not isinstance(out_dir, str):
            raise DomainError(f"out={out_dir!r} is not a directory path")
        fmt = merged.pop("format", "csv")
        threads = _convert(merged.pop("threads", 1), int, "threads")
        paths = run_experiment(command, merged, seed, out_dir, fmt, threads)
    except (DomainError, OSError) as exc:  # OSError: the output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (IntegrityError, np.linalg.LinAlgError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 4
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
