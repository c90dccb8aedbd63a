"""Quantum kicked top as a permutation-symmetric multi-qubit system.

One Floquet period applies a linear rotation by angle p about the y axis
followed by a torsion kick of strength k about the z axis:

    U = exp(-i (k/2j) Jz^2) exp(-i p Jy).

The (2j+1)-dimensional spin system doubles as a system of N = 2j qubits
restricted to the permutation-symmetric subspace, so every evolved state
feeds directly into the block entropy and TMI machinery.  The classical
limit is a map on the unit sphere: rotate about y by p, then rotate about
z by an angle k Z' set by the post-rotation Z' (the ordering and signs
mirror the right-to-left operator order above and are pinned by the
one-kick quantum-classical correspondence test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PSState, coherent_amplitudes
from .errors import CapacityError, DomainError, IntegrityError
from .measures import (LINEAR, VON_NEUMANN, EntropyKind, _check_blocks,
                       block_entropies_batch, tmi_batch, tmi_blocks, tmi_sum)

DIM_CAP = 8192  # default cap on 2j+1; O(d^3) work must be a conscious choice


def _check_finite(**values) -> None:
    if not all(map(math.isfinite, values.values())):
        raise DomainError(", ".join(f"{k}={v}" for k, v in values.items()) + " must be finite")


@dataclass(frozen=True)
class KickedTopParams:
    """Spin j (positive half-integer), kick strength k >= 0, rotation p."""

    j: float
    k: float
    p: float = math.pi / 2.0

    def __post_init__(self):
        _check_finite(j=self.j, k=self.k, p=self.p)
        if round(2 * self.j) < 1 or abs(2 * self.j - round(2 * self.j)) > 1e-9:
            raise DomainError(f"j={self.j} must be a positive half-integer")
        if self.k < 0:
            raise DomainError(f"kick strength k={self.k} must be >= 0")

    @property
    def n_qubits(self) -> int:
        return round(2 * self.j)

    @property
    def dim(self) -> int:
        return self.n_qubits + 1


@dataclass(frozen=True)
class SpinSystem:
    """Dense spin-j matrices and the precomputed Floquet unitary.

    All matrices are in the angular momentum basis |j, m> with m
    ascending from -j to j; jz is diagonal with exactly those entries.
    Immutable after construction and safe to share across tasks.
    """

    params: KickedTopParams
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    floquet: np.ndarray

    @property
    def dim(self) -> int:
        return self.params.dim


def _ladder_coefficients(j: float) -> np.ndarray:
    """<m+1| J+ |m> for m = -j .. j-1: the subdiagonal of the raising operator."""
    m = -j + np.arange(round(2 * j))
    return np.sqrt(j * (j + 1) - m * (m + 1))


def angular_momentum_matrices(j: float):
    """Dense Jx, Jy, Jz for spin j in the ascending |j, m> basis."""
    dim = round(2 * j) + 1
    m = -j + np.arange(dim)
    raising = np.zeros((dim, dim))
    raising[np.arange(1, dim), np.arange(dim - 1)] = _ladder_coefficients(j)
    jx = (raising + raising.T) / 2.0 + 0j
    jy = (raising - raising.T) / 2.0j
    jz = np.diag(m) + 0j
    return jx, jy, jz


def _check_unitary(u: np.ndarray) -> None:
    defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if not defect <= 1e-10:  # a NaN defect fails too
        raise IntegrityError(f"Floquet unitarity defect {defect:.2e} > 1e-10")


def build_spin_system(params: KickedTopParams, dim_cap: int = DIM_CAP) -> SpinSystem:
    """Construct the spin matrices and Floquet unitary for the given params.

    The rotation factor exp(-i p Jy) comes from a one-time Hermitian
    spectral decomposition of Jy; the kick factor is diagonal.  Unitarity
    is verified to 1e-10 before returning.
    """
    dim = params.dim
    if dim > dim_cap:
        raise CapacityError(f"dimension 2j+1 = {dim} exceeds cap {dim_cap}")
    jx, jy, jz = angular_momentum_matrices(params.j)
    m = np.diagonal(jz).real
    kick = np.exp(-1j * params.k * m ** 2 / (2.0 * params.j))
    w, v = np.linalg.eigh(jy)
    rotation = (v * np.exp(-1j * params.p * w)) @ v.conj().T
    floquet = kick[:, None] * rotation
    _check_unitary(floquet)
    for mat in (jx, jy, jz, floquet):
        mat.setflags(write=False)
    return SpinSystem(params, jx, jy, jz, floquet)


# The Dicke excitation index m (number of flipped qubits) corresponds to
# the angular momentum projection m_z = j - m, so amplitude vectors map
# between the two orderings by reversal.

def floquet_dicke(system: SpinSystem) -> np.ndarray:
    """Floquet matrix reindexed to the Dicke (excitation-count) ordering."""
    return np.ascontiguousarray(system.floquet[::-1, ::-1])


def evolve(state: PSState, system: SpinSystem, n_steps: int) -> list:
    """Trajectory [psi_0, ..., psi_n] under repeated kicks.

    States are never renormalized; norm drift along the trajectory is a
    numerical health metric and stays far below the 1e-9 bound.
    """
    if state.n_qubits != system.params.n_qubits:
        raise DomainError(
            f"state has {state.n_qubits} qubits, system expects {system.params.n_qubits}")
    u = floquet_dicke(system)
    amps = state.amplitudes
    out = [state]
    for _ in range(n_steps):
        amps = u @ amps
        out.append(PSState(amps))
    return out


def bloch_vector(state: PSState, system: SpinSystem) -> np.ndarray:
    """Expectation (X, Y, Z) = <J>/j of a PS state."""
    v = state.amplitudes[::-1]
    return np.array([np.vdot(v, mat @ v).real
                     for mat in (system.jx, system.jy, system.jz)]) / system.params.j


def _kind_label(kind: EntropyKind) -> str:
    if kind.tag == "von_neumann":
        return "vn"
    if kind.tag == "linear":
        return "lin"
    return f"renyi{kind.alpha:g}"


def timeseries_measures(params: KickedTopParams, theta: float, phi: float,
                        n_steps: int, blocks=(1, 1, 1),
                        kinds=(VON_NEUMANN, LINEAR),
                        dim_cap: int = DIM_CAP) -> dict:
    """Entanglement / MI / TMI time series from a coherent initial state.

    Returns a dict of equal-length columns: 'step' plus, for each entropy
    kind, S_A, I2_AB, I2_A_BC and I3 of the requested qubit blocks.
    """
    q1, q2, q3 = blocks
    n = params.n_qubits
    if q1 + q2 + q3 > n:
        raise DomainError(f"blocks {blocks} exceed the {n}-qubit system")
    system = build_spin_system(params, dim_cap=dim_cap)
    u = floquet_dicke(system)
    traj = np.empty((n_steps + 1, n + 1), dtype=complex)
    traj[0] = coherent_amplitudes(n, theta, phi)
    for step in range(n_steps):
        traj[step + 1] = u @ traj[step]

    sizes = sorted(set(tmi_blocks(q1, q2, q3)))
    table = {"step": np.arange(n_steps + 1)}
    for kind in kinds:
        s = _chunked_block_entropies(traj, n, sizes, kind)
        label = _kind_label(kind)
        table[f"S_A_{label}"] = s[q1]
        table[f"I2_AB_{label}"] = s[q1] + s[q2] - s[q1 + q2]
        table[f"I2_A_BC_{label}"] = s[q1] + s[q2 + q3] - s[q1 + q2 + q3]
        table[f"I3_{label}"] = tmi_sum([s[q] for q in tmi_blocks(q1, q2, q3)])
    return table


def _chunked_block_entropies(traj: np.ndarray, n: int, sizes, kind) -> dict:
    """block_entropies_batch with step-axis chunking to bound memory."""
    biggest = max((q + 1) * (n - q + 1) for q in sizes)
    chunk = max(1, int(4e6 / biggest))
    parts = [block_entropies_batch(traj[s:s + chunk], n, sizes, kind)
             for s in range(0, traj.shape[0], chunk)]
    return {q: np.concatenate([p[q] for p in parts]) for q in sizes}


def saturation_residuals(values: np.ndarray, reference: float) -> np.ndarray:
    """ln |I3(n) - reference|, the raw saturation-approach series (no fit)."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.asarray(values) - reference))


# ---------------------------------------------------------------------------
# out-of-time-order correlators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OtocSeries:
    """Commutator growth F(n) = 2 (C2(n) - C4(n)), traces normalized by j^4."""

    steps: np.ndarray
    f: np.ndarray
    c2: np.ndarray
    c4: np.ndarray


def _real_trace(value: complex, bound: float) -> float:
    """Real part of a trace whose imaginary part must be round-off.

    bound is an a-priori bound on |trace| fixed for the whole series; the
    real part itself can be round-off (C4 vanishes at some steps), so it is
    no scale for the imaginary part.  NaN and infinity fail the check.
    """
    if not (math.isfinite(value.real) and abs(value.imag) <= 1e-8 * bound):
        raise IntegrityError(f"trace {value!r} has a non-negligible imaginary part")
    return value.real


def parity_bases(dim: int):
    """Orthonormal bases (v_e, v_o) of the two eigenspaces of the kicked-top parity.

    The parity is Pi = S F in the ascending |j, m> basis: F flips m -> -m
    and S = diag((-1)^i) with i = m + j.  It maps Jx -> -Jx, Jy -> Jy and
    Jz -> -Jz, so it commutes with exp(-i p Jy) and with the Jz^2 kick,
    hence with U, while Jx is odd.  Pi^2 = (-1)^(dim-1), so the eigenvalue
    lam of v_e is +-1 for integer j and i for half-integer j; v_o has -lam.
    Column c < dim // 2 of either basis is (|c> + lam (-1)^c |dim-1-c>)/sqrt 2;
    for odd dim the m = 0 vector is the last column of v_e.
    """
    half = dim // 2
    c = np.arange(half)
    lam = (-1.0) ** half if dim % 2 else 1j
    bases = []
    for eig, middle in ((lam, dim % 2), (-lam, 0)):
        v = np.zeros((dim, half + middle), dtype=complex)
        v[c, c] = math.sqrt(0.5)
        v[dim - 1 - c, c] = eig * (-1.0) ** c * math.sqrt(0.5)
        if middle:
            v[half, half] = 1.0
        bases.append(v)
    return tuple(bases)


def _tridiagonal_times(lower: np.ndarray, upper: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T @ v for T[i+1, i] = lower[i], T[i, i+1] = upper[i] and a zero diagonal."""
    out = np.zeros_like(v)
    out[1:] = lower[:, None] * v[:-1]
    out[:-1] += upper[:, None] * v[1:]
    return out


def _adjoint_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v^dag @ m for a parity basis v, whose column c lives on rows c and dim-1-c."""
    c = np.arange(v.shape[1])
    mirror = v.shape[0] - 1 - c
    out = v[c, c].conj()[:, None] * m[c]
    pair = mirror != c
    out[pair] += v[mirror[pair], c[pair]].conj()[:, None] * m[mirror[pair]]
    return out


def _sector_floquet(v: np.ndarray, ladder: np.ndarray, kick: np.ndarray,
                    p: float) -> np.ndarray:
    """Block of U on the parity sector spanned by v, from a sector-size eigh of Jy.

    The sector block of Jy is tridiagonal, with a real diagonal and a
    subdiagonal that is -i times a real vector, so D^dag Jy D is real
    symmetric for D = diag((-i)^c) and a real eigh suffices.  The kick is
    diagonal and equal on m and -m, so on column c of v it is kick[c].
    """
    n = v.shape[1]
    jy = _adjoint_times(v, _tridiagonal_times(-0.5j * ladder, 0.5j * ladder, v))
    phase = np.array([1.0, -1j, -1.0, 1j])[np.arange(n) % 4]
    w, vecs = np.linalg.eigh((phase.conj()[:, None] * jy * phase).real)
    vecs = phase[:, None] * vecs
    u = kick[:n, None] * ((vecs * np.exp(-1j * p * w)) @ vecs.conj().T)
    _check_unitary(u)
    return u


def _band(x: np.ndarray) -> list:
    """(offset o, entries x[r, r + o]) for each nonzero diagonal o = -1, 0, 1 of x."""
    diagonals = [(o, np.diagonal(x, o).copy()) for o in (-1, 0, 1)]
    return [(o, entries) for o, entries in diagonals if entries.any()]


def _band_times(band: list, m: np.ndarray, n_rows: int) -> np.ndarray:
    """B @ m for the tridiagonal B given by _band, in O(size of the result)."""
    out = np.zeros((n_rows, m.shape[1]), dtype=complex)
    for o, entries in band:
        r = max(0, -o)
        out[r:r + entries.size] += entries[:, None] * m[r + o:r + o + entries.size]
    return out


def otoc_series(params: KickedTopParams, n_max: int,
                dim_cap: int = DIM_CAP) -> OtocSeries:
    """Two-point correlator, four-point OTOC and commutator growth of Jx.

    C2(n) = Tr(Jx(n)^2 Jx^2)/j^4 and C4(n) = Tr(Jx(n) Jx Jx(n) Jx)/j^4 with
    Jx(n) = U^-n Jx U^n.  U is block diagonal in the parity sectors of
    parity_bases, U = diag(U_e, U_o), and Jx is off-diagonal, so Jx(n) is
    fixed by its block X_n = U_e^dag X_{n-1} U_o: two products of
    half-size blocks per kick.  With P_e = X_n X^dag and P_o = X_n^dag X,
    C2 = |P_e|_F^2 + |P_o|_F^2 and C4 = Tr(P_e^2) + Tr(P_o^2).  X is
    tridiagonal, so P_e^T = conj(X) X_n^T and P_o^dag = X^dag X_n cost
    O(d^2), and the norms and traces are read off these.  No d x d matrix
    is built.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    dim = params.dim
    if dim > dim_cap:
        raise CapacityError(f"dimension 2j+1 = {dim} exceeds cap {dim_cap}")
    j = float(params.j)
    ladder = _ladder_coefficients(j)
    m = -j + np.arange(dim)
    kick = np.exp(-1j * params.k * m ** 2 / (2.0 * j))
    v_e, v_o = parity_bases(dim)
    u_e_dag = _sector_floquet(v_e, ladder, kick, params.p).conj().T
    u_o = _sector_floquet(v_o, ladder, kick, params.p)
    x = _adjoint_times(v_e, _tridiagonal_times(0.5 * ladder, 0.5 * ladder, v_o))
    band_conj, band_dag = _band(x.conj()), _band(x.conj().T)
    bound = j ** 2 * float(np.sum(ladder ** 2)) / 2.0  # j^2 Tr(Jx^2) >= |C2|, |C4|
    scale = j ** 4

    def traces(xn):
        p_e_t = _band_times(band_conj, xn.T, x.shape[0])
        p_o_dag = _band_times(band_dag, xn, x.shape[1])
        c2 = np.vdot(p_e_t, p_e_t) + np.vdot(p_o_dag, p_o_dag)
        c4 = (np.einsum("ij,ji->", p_e_t, p_e_t)
              + np.einsum("ij,ji->", p_o_dag, p_o_dag).conjugate())
        return _real_trace(c2, bound) / scale, _real_trace(c4, bound) / scale

    c2 = np.empty(n_max + 1)
    c4 = np.empty(n_max + 1)
    c2[0] = c4[0] = traces(x)[0]  # Tr(Jx^4) both; F(0) = 0 exactly
    xn = x
    for n in range(1, n_max + 1):
        xn = u_e_dag @ xn @ u_o
        c2[n], c4[n] = traces(xn)
    f = 2.0 * (c2 - c4)
    return OtocSeries(np.arange(n_max + 1), f, c2, c4)


def otoc_growth_rate(series: OtocSeries, n_lo: int = 1, n_hi: int | None = None) -> float:
    """OLS slope of ln F(n) over the window [n_lo, n_hi]."""
    if n_hi is None:
        n_hi = len(series.f) - 1
    window = slice(n_lo, n_hi + 1)
    steps = series.steps[window]
    values = series.f[window]
    if np.any(values <= 0):
        raise DomainError("F(n) must be positive over the fit window")
    return float(np.polyfit(steps, np.log(values), 1)[0])


def ehrenfest_time(j: float, lambda_cl: float) -> float:
    """Log time ln(2j+1)/lambda_cl separating growth from saturation."""
    if lambda_cl <= 0:
        raise DomainError(f"lambda_cl={lambda_cl} must be positive")
    return math.log(2 * j + 1) / lambda_cl


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def classical_step(point, k: float, p: float) -> np.ndarray:
    """One kick of the classical map on unit vectors (vectorized on (..., 3)).

    Rotate about y by p, then rotate about z by k Z' where Z' is the
    post-rotation z component.  Exactly norm preserving.
    """
    point = np.asarray(point, dtype=float)
    x, y, z = point[..., 0], point[..., 1], point[..., 2]
    cp, sp = math.cos(p), math.sin(p)
    x1 = x * cp + z * sp
    z1 = z * cp - x * sp
    alpha = k * z1
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.stack([x1 * ca - y * sa, x1 * sa + y * ca, z1], axis=-1)


def classical_tangent_step(point, tangent, k: float, p: float):
    """Map a point and push its tangent vector through the Jacobian."""
    point = np.asarray(point, dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    cp, sp = math.cos(p), math.sin(p)
    x, y, z = point[..., 0], point[..., 1], point[..., 2]
    ux, uy, uz = tangent[..., 0], tangent[..., 1], tangent[..., 2]
    x1 = x * cp + z * sp
    z1 = z * cp - x * sp
    ux1 = ux * cp + uz * sp
    uz1 = uz * cp - ux * sp
    alpha = k * z1
    ca, sa = np.cos(alpha), np.sin(alpha)
    x2 = x1 * ca - y * sa
    y2 = x1 * sa + y * ca
    new_point = np.stack([x2, y2, z1], axis=-1)
    new_tangent = np.stack([
        ux1 * ca - uy * sa - k * y2 * uz1,
        ux1 * sa + uy * ca + k * x2 * uz1,
        uz1,
    ], axis=-1)
    return new_point, new_tangent


def _random_sphere_points(count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def lyapunov_exponent(k: float, p: float, n_transient: int = 200,
                      n_average: int = 4000, n_trajectories: int = 32,
                      rng: np.random.Generator | None = None,
                      initial_points=None) -> float:
    """Largest Lyapunov exponent of the classical map.

    Tangent vectors are iterated through the Jacobian with per-step
    renormalization (and projection back onto the sphere's tangent
    plane); log stretch factors are averaged after the transient, then
    over trajectories.
    """
    _check_finite(k=k, p=p)
    if n_transient < 0 or n_average < 1 or n_trajectories < 1:
        raise DomainError("iteration counts must be positive")
    if initial_points is None:
        if rng is None:
            rng = np.random.default_rng(0)
        points = _random_sphere_points(n_trajectories, rng)
    else:
        points = np.atleast_2d(np.asarray(initial_points, dtype=float))
        points = points / np.linalg.norm(points, axis=1, keepdims=True)
    if rng is None:
        rng = np.random.default_rng(0)
    tangents = rng.standard_normal(points.shape)
    tangents -= np.sum(tangents * points, axis=1, keepdims=True) * points
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)

    total = np.zeros(points.shape[0])
    for step in range(n_transient + n_average):
        points, tangents = classical_tangent_step(points, tangents, k, p)
        tangents -= np.sum(tangents * points, axis=1, keepdims=True) * points
        norms = np.linalg.norm(tangents, axis=1)
        if step >= n_transient:
            total += np.log(norms)
        tangents /= norms[:, None]
    return float(np.mean(total / n_average))


def phase_portrait(k: float, p: float, n_points: int, n_steps: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Classical trajectories projected to (phi, Z) for plotting.

    Returns rows (phi, Z, trajectory_id, step) for n_points random seeds
    iterated n_steps times (step 0 included).
    """
    _check_finite(k=k, p=p)
    if n_points < 1 or n_steps < 1:
        raise DomainError("counts must be positive")
    points = _random_sphere_points(n_points, rng)
    rows = np.empty(((n_steps + 1) * n_points, 4))
    ids = np.arange(n_points, dtype=float)
    for step in range(n_steps + 1):
        block = slice(step * n_points, (step + 1) * n_points)
        rows[block, 0] = np.arctan2(points[:, 1], points[:, 0])
        rows[block, 1] = points[:, 2]
        rows[block, 2] = ids
        rows[block, 3] = step
        if step < n_steps:
            points = classical_step(points, k, p)
    return rows


# ---------------------------------------------------------------------------
# grid experiments
# ---------------------------------------------------------------------------

def time_averaged_tmi_grid(params: KickedTopParams, grid=(50, 100),
                           n_steps: int = 1000, blocks=(1, 1, 1),
                           kind: EntropyKind = VON_NEUMANN,
                           dim_cap: int = DIM_CAP):
    """Time-averaged TMI over a grid of coherent initial states.

    The grid discretizes theta in [0, pi) and phi in [0, 2pi); each node
    is kicked n_steps times and I3 is averaged over steps 1..n_steps.
    Returns (theta_axis, phi_axis, matrix of shape grid).
    """
    n_theta, n_phi = grid
    if n_theta < 1 or n_phi < 1 or n_steps < 1:
        raise DomainError("grid shape and step count must be positive")
    n = params.n_qubits
    _check_blocks(n, blocks)
    system = build_spin_system(params, dim_cap=dim_cap)
    u_t = floquet_dicke(system).T.copy()

    thetas = np.linspace(0.0, math.pi, n_theta, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    amps = coherent_amplitudes(n, tt.ravel(), pp.ravel())

    acc = np.zeros(amps.shape[0])
    for _ in range(n_steps):
        amps = amps @ u_t
        acc += tmi_batch(amps, n, blocks, kind)
    return thetas, phis, (acc / n_steps).reshape(n_theta, n_phi)
