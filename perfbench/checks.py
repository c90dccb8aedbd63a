"""Output checks of the benchmark ops: each returns a list of problems.

The checks do not rely on byte identity: each compares an output with an
independent recomputation, a closed form or an exact identity at a
stated tolerance, so a legitimate round-off change passes.
"""

from __future__ import annotations

import csv
import functools
import math

import numpy as np
import scipy.linalg

from permsym.concentration import levy_bound, lipschitz_bound_tmi
from permsym.core import PSState, coherent_amplitudes, embed_to_full
from permsym.ensembles import (avg_linear_entropy_ps, avg_purity_ps,
                               avg_tmi_linear_ps_111, tmi_full_state)
from permsym.measures import LINEAR, VON_NEUMANN

# Multiple of the standard error allowed between a Monte Carlo mean and its
# closed form.  Each ps-mc op makes about 40 such comparisons, so 6 sigma
# keeps the chance of a false failure per op near 1e-7.
MC_SIGMA = 6.0


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_call(call, path: str, rng) -> list:
    header, rows = read_csv(path)
    return _CHECKS[call.experiment](call.params, header, rows, rng)


def _close(got, want, rel, abs_=0.0) -> bool:
    return abs(got - want) <= max(abs_, rel * abs(want))


def _spin_matrices(j: float):
    """Jx, Jy, Jz in the ascending |j, m> basis, built from the ladder formula."""
    dim = round(2 * j) + 1
    m = -j + np.arange(dim)
    plus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    return (plus + plus.T) / 2, (plus - plus.T) / 2j, np.diag(m)


@functools.lru_cache(maxsize=4)
def _rotation(j: float, p: float):
    _, jy, _ = _spin_matrices(j)
    return scipy.linalg.expm(-1j * p * jy)


def _floquet_expm(j: float, k: float, p: float) -> np.ndarray:
    """U = exp(-i k/(2j) Jz^2) exp(-i p Jy) from scipy's expm (ascending m)."""
    _, _, jz = _spin_matrices(j)
    return scipy.linalg.expm(-1j * k / (2 * j) * (jz @ jz)) @ _rotation(j, p)


def _check_tmi_grid(params, header, rows, rng):
    n_theta, n_phi, steps = params["n_theta"], params["n_phi"], params["steps"]
    n = round(2 * params["j"])
    problems = []
    if len(rows) != n_theta or len(header) != n_phi + 1:
        return [f"grid shape {len(rows)}x{len(header) - 1}, want {n_theta}x{n_phi}"]
    thetas = np.array([float(r[0]) for r in rows])
    phis = np.array([float(v) for v in header[1:]])
    grid = np.array([[float(v) for v in r[1:]] for r in rows])
    if not np.allclose(thetas, np.linspace(0, math.pi, n_theta, endpoint=False), atol=1e-12):
        problems.append("theta axis differs from the grid definition")
    if not np.allclose(phis, np.linspace(0, 2 * math.pi, n_phi, endpoint=False), atol=1e-12):
        problems.append("phi axis differs from the grid definition")
    if not np.all(np.isfinite(grid)):
        problems.append("non-finite grid value")
        return problems
    # recompute three nodes through the full 2^N space: expm-built Floquet
    # step, embed_to_full, and partial traces of the full state
    u = _floquet_expm(params["j"], params["k"], math.pi / 2)[::-1, ::-1]
    for _ in range(3):
        it, ip = int(rng.integers(n_theta)), int(rng.integers(n_phi))
        amps = coherent_amplitudes(n, thetas[it], phis[ip])
        qubit = np.array([math.cos(thetas[it] / 2),
                          np.exp(1j * phis[ip]) * math.sin(thetas[it] / 2)])
        product = functools.reduce(np.kron, [qubit] * n)
        if np.abs(embed_to_full(PSState(amps)) - product).max() > 1e-12:
            problems.append(f"coherent state at node ({it},{ip}) is not the product state")
        acc = 0.0
        for _ in range(steps):
            amps = u @ amps
            acc += tmi_full_state(embed_to_full(PSState(amps)), n, (1, 1, 1), VON_NEUMANN)
        if abs(acc / steps - grid[it, ip]) > 1e-9:
            problems.append(f"node ({it},{ip}): grid {grid[it, ip]!r}, "
                            f"full-space recomputation {acc / steps!r}")
    return problems


def _check_otoc(params, header, rows, rng):
    j, k, steps = params["j"], params["k"], params["steps"]
    if header != ["n", "F", "C2", "C4"] or len(rows) != steps + 1:
        return [f"otoc table has header {header} and {len(rows)} rows"]
    n, f, c2, c4 = (np.array([float(r[i]) for r in rows]) for i in range(4))
    problems = []
    if not np.array_equal(n, np.arange(steps + 1)):
        problems.append("step column is not 0..steps")
    scale = max(np.abs(c2).max(), np.abs(c4).max())
    if abs(f[0]) > 1e-12 * scale:
        problems.append(f"F(0) = {f[0]!r}, want 0")
    if np.abs(f - 2 * (c2 - c4)).max() > 1e-10 * scale:
        problems.append("F differs from 2(C2 - C4)")
    # first two kicks against an expm-built Floquet matrix
    u = _floquet_expm(j, k, math.pi / 2)
    jx, _, _ = _spin_matrices(j)
    a2 = jx @ jx
    b = jx.astype(complex)
    for step in (1, 2):
        b = u.conj().T @ b @ u
        want2 = np.trace(b @ b @ a2).real / j ** 4
        want4 = np.trace(b @ jx @ b @ jx).real / j ** 4
        if not (_close(c2[step], want2, 1e-8) and _close(c4[step], want4, 1e-8)):
            problems.append(f"step {step}: C2={c2[step]!r} C4={c4[step]!r}, "
                            f"expm gives {want2!r} {want4!r}")
    return problems


def _check_averages(params, header, rows, rng):
    n = params["n"]
    if len(rows) != 2 * (n - 1):
        return [f"{len(rows)} rows, want {2 * (n - 1)}"]
    problems = []
    for i in range(0, len(rows), 2):
        purity, linear = rows[i], rows[i + 1]
        q = int(purity[1])
        mc, err = float(purity[4]), float(purity[5])
        if not (_close(float(purity[3]), avg_purity_ps(n, q), 1e-12)
                and _close(float(linear[3]), avg_linear_entropy_ps(n, q), 1e-12)):
            problems.append(f"Q={q}: analytic column differs from the closed form")
        if not (err > 0 and abs(mc - avg_purity_ps(n, q)) <= MC_SIGMA * err):
            problems.append(f"Q={q}: purity {mc!r} +- {err!r} vs {avg_purity_ps(n, q)!r}")
        if not _close(float(linear[4]), 1.0 - mc, 1e-12, 1e-15):
            problems.append(f"Q={q}: linear entropy is not 1 - purity")
    return problems


def _check_tmi_random(params, header, rows, rng):
    samples = params["samples"]
    if len(rows) != samples or [int(r[0]) for r in rows] != list(range(samples)):
        return [f"{len(rows)} rows, want samples 0..{samples - 1}"]
    values = np.array([float(r[2]) for r in rows])
    want = avg_tmi_linear_ps_111(params["n"])
    stderr = values.std(ddof=1) / math.sqrt(samples)
    if not (np.all(np.isfinite(values)) and abs(values.mean() - want) <= MC_SIGMA * stderr):
        return [f"TMI mean {values.mean()!r} +- {stderr!r} vs exact {want!r}"]
    return []


def _check_concentration(params, header, rows, rng):
    n = params["n"]
    eta = lipschitz_bound_tmi(1, 1, 1, LINEAR)
    problems = []
    if [float(r[0]) for r in rows] != [0.05, 0.1, 0.2]:
        return [f"epsilon column {[r[0] for r in rows]}"]
    for eps, tail, bound, stderr in ([float(v) for v in r] for r in rows):
        if not _close(bound, levy_bound(2 * (n + 1), eps, eta), 1e-12):
            problems.append(f"eps={eps}: bound column {bound!r} is not the Levy bound")
        # the tail-vs-bound rule of the acceptance gate (criterion 14)
        if not (0.0 <= tail <= 1.0 and tail <= bound + 3 * stderr):
            problems.append(f"eps={eps}: tail {tail!r} above bound {bound!r}")
    return problems


_CHECKS = {"tmi-grid": _check_tmi_grid, "otoc": _check_otoc,
           "averages": _check_averages, "tmi-random": _check_tmi_random,
           "concentration": _check_concentration}
