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
    gram = u.conj().T @ u
    gram[np.diag_indices_from(gram)] -= 1.0  # in place: one d x d temporary fewer
    defect = np.abs(gram).max()
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
    _check_blocks(n, blocks)
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


def _real_rotation(r: np.ndarray) -> np.ndarray:
    """r as float64, for a rotation that must be real up to round-off.

    For integer j, exp(-i p Jy) is real orthogonal (Jy is imaginary
    antisymmetric) and the parity bases are real, so the imaginary part of a
    sector rotation is round-off; anything larger (or a NaN) means the
    decomposition went wrong.
    """
    defect = np.abs(r.imag).max()
    if not defect <= 1e-10:
        raise IntegrityError(f"sector rotation imaginary part {defect:.2e} > 1e-10")
    return np.ascontiguousarray(r.real)


def _sector_rotation(jy: np.ndarray, p: float, real: bool) -> np.ndarray:
    """exp(-i p jy) for the block jy of Jy on one parity sector, from a sector-size eigh.

    The block is tridiagonal, with a real diagonal and a subdiagonal that is
    -i times a real vector, so D^dag jy D is real symmetric for
    D = diag((-i)^c) and a real eigh suffices.  With real (integer j) the
    rotation is returned as float64, else as complex.
    """
    n = jy.shape[0]
    phase = np.array([1.0, -1j, -1.0, 1j])[np.arange(n) % 4]
    # numpy.linalg, not scipy.linalg: scipy's wheel ships its own OpenBLAS,
    # whose thread pool then contends with numpy's in the kick products
    # (with scipy's eigh_tridiagonal here a j=300, 20-kick series took
    # 292 ms against 216 ms, medians of 6 runs each on 2 cores)
    w, vecs = np.linalg.eigh((phase.conj()[:, None] * jy * phase).real)
    vecs = phase[:, None] * vecs
    r = (vecs * np.exp(-1j * p * w)) @ vecs.conj().T
    if real:
        r = _real_rotation(r)
    _check_unitary(r)
    return r


def _rotate(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """r @ z for a C-contiguous complex z; a float64 r is one real GEMM on z's float64 view."""
    if r.dtype == np.float64:
        return (r @ z.view(np.float64)).view(np.complex128)
    return r @ z


def otoc_series(params: KickedTopParams, n_max: int,
                dim_cap: int = DIM_CAP) -> OtocSeries:
    """Two-point correlator, four-point OTOC and commutator growth of Jx.

    C2(n) = Tr(Jx(n)^2 Jx^2)/j^4 and C4(n) = Tr(Jx(n) Jx Jx(n) Jx)/j^4 with
    Jx(n) = U^-n Jx U^n.  U is block diagonal in the parity sectors of
    parity_bases, U = diag(K_e R_e, K_o R_o) with K the diagonal kick (equal
    on m and -m, so kick[c] on column c of either basis), and Jx is
    off-diagonal, so Jx(n) is fixed by its block
    X_n = R_e^dag (conj(K_e) X_{n-1} K_o) R_o: two phase multiplies and two
    products of half-size blocks per kick.  For integer j the rotations are
    real, so each product is one real GEMM and a kick costs d^3 flops.
    Each phase multiply also transposes, so that both products take a
    contiguous operand from the left; a kick ends with X_n^T.
    With P_e = X_n X^dag and P_o = X_n^dag X, C2 = |P_e|_F^2 + |P_o|_F^2 and
    C4 = Tr(P_e^2) + Tr(P_o^2).  X is tridiagonal, so P_e^T = conj(X) X_n^T
    and P_o^dag = (X^dag K_e)(conj(K_e) X_n) are sparse products with
    contiguous operands in O(d^2), and the norms and traces are read off
    these.  No d x d matrix is built.
    """
    # imported here, not with the module: scipy.sparse would add about 30 ms
    # (5%) to `import permsym.cli`, and so to every experiment's start-up
    from scipy.sparse import csr_array

    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    dim = params.dim
    if dim > dim_cap:
        raise CapacityError(f"dimension 2j+1 = {dim} exceeds cap {dim_cap}")
    j = float(params.j)
    ladder = _ladder_coefficients(j)
    raising = csr_array((ladder, (np.arange(1, dim), np.arange(dim - 1))), shape=(dim, dim))
    m = -j + np.arange(dim)
    kick = np.exp(-1j * params.k * m ** 2 / (2.0 * j))
    v_e, v_o = (csr_array(v) for v in parity_bases(dim))

    def block(left, op, right):
        return (left.conj().T @ op @ right).toarray()

    jy = (raising - raising.T) * -0.5j
    real = dim % 2 == 1  # integer j: real parity bases
    r_e_dag = _sector_rotation(block(v_e, jy, v_e), params.p, real).conj().T.copy()
    r_o_t = _sector_rotation(block(v_o, jy, v_o), params.p, real).T.copy()
    x = block(v_e, (raising + raising.T) * 0.5, v_o)
    kick_e, kick_o = kick[:x.shape[0], None], kick[:x.shape[1], None]
    x_conj = csr_array(x.conj())
    x_dag_kick = csr_array(x.conj().T * kick_e.T)
    bound = j ** 2 * float(np.sum(ladder ** 2)) / 2.0  # j^2 Tr(Jx^2) >= |C2|, |C4|
    scale = j ** 4

    def traces(p_e_t, p_o_dag):
        c2 = np.vdot(p_e_t, p_e_t) + np.vdot(p_o_dag, p_o_dag)
        c4 = (np.einsum("ij,ji->", p_e_t, p_e_t)
              + np.einsum("ij,ji->", p_o_dag, p_o_dag).conjugate())
        return _real_trace(c2, bound) / scale, _real_trace(c4, bound) / scale

    c2 = np.empty(n_max + 1)
    c4 = np.empty(n_max + 1)
    xt = x.T.copy()
    for n in range(n_max + 1):
        z = np.multiply(kick_e.conj(), xt.T, order="C")  # conj(K_e) X_n
        c2[n], c4[n] = traces(x_conj @ xt, x_dag_kick @ z)
        if n < n_max:
            xt = _rotate(r_o_t, np.multiply(kick_o, _rotate(r_e_dag, z).T, order="C"))
    c4[0] = c2[0]  # Tr(Jx^4) both; F(0) = 0 exactly
    f = 2.0 * (c2 - c4)
    return OtocSeries(np.arange(n_max + 1), f, c2, c4)


def otoc_growth_rate(series: OtocSeries, n_lo: int = 1, n_hi: int | None = None) -> float:
    """OLS slope of ln F(n) over the window [n_lo, n_hi]; at least two steps."""
    last = len(series.f) - 1
    if n_hi is None:
        n_hi = last
    if not 0 <= n_lo < n_hi <= last:
        raise DomainError(f"fit window [{n_lo}, {n_hi}] must satisfy 0 <= n_lo < n_hi <= {last}")
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

def _grid_orbits(n_theta: int, n_phi: int, p: float):
    """(representatives, inverse) of the grid nodes whose TMI series are equal.

    Node (i, j), at theta = i pi/n_theta and phi = 2 pi j/n_phi, has flat
    index i n_phi + j.  Row 0 is one state.  The parity Pi = exp(-i pi Jy)
    commutes with U and is a product of one-qubit rotations, so map A,
    (theta, phi) -> (pi - theta, pi - phi), keeps every block entropy; on
    the grid it needs an even n_phi.  B, phi -> phi + pi, is exp(-i pi Jz):
    at p = pi/2 exactly it maps U to U Pi^-1, which keeps the entropies too.
    representatives holds the smallest flat index of each orbit, ascending.
    """
    i, j = np.divmod(np.arange(n_theta * n_phi), n_phi)
    maps = []
    if n_phi % 2 == 0:
        half = n_phi // 2
        maps.append((n_theta - i, half - j))                     # A
        if p == math.pi / 2:
            maps += [(i, j + half), (n_theta - i, -j)]            # B, AB
    smallest = i * n_phi + j
    for row, col in maps:  # A and AB send row 0 past the grid; it is reset below
        smallest = np.minimum(smallest, row * n_phi + col % n_phi)
    smallest[i == 0] = 0
    return np.unique(smallest, return_inverse=True)


def time_averaged_tmi_grid(params: KickedTopParams, grid=(50, 100),
                           n_steps: int = 1000, blocks=(1, 1, 1),
                           kind: EntropyKind = VON_NEUMANN,
                           dim_cap: int = DIM_CAP):
    """Time-averaged TMI over a grid of coherent initial states.

    The grid discretizes theta in [0, pi) and phi in [0, 2pi); each node
    is kicked n_steps times and I3 is averaged over steps 1..n_steps.
    Only one node per symmetry orbit of _grid_orbits is evolved; the
    other nodes of the orbit take its value.
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
    representatives, inverse = _grid_orbits(n_theta, n_phi, params.p)
    i, j = np.divmod(representatives, n_phi)
    amps = coherent_amplitudes(n, thetas[i], phis[j])

    acc = np.zeros(amps.shape[0])
    for _ in range(n_steps):
        amps = amps @ u_t
        acc += tmi_batch(amps, n, blocks, kind)
    return thetas, phis, (acc / n_steps)[inverse].reshape(n_theta, n_phi)
