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

from .core import _block_rows, _check_count, coherent_amplitudes, log_binomial
from .errors import CapacityError, DomainError, IntegrityError
from .measures import (LINEAR, VON_NEUMANN, EntropyKind, _check_blocks, _folded_sizes,
                       block_entropies_batch, tmi_batch, tmi_blocks, tmi_sum)

DIM_CAP = 8192  # cap on 2j+1; O(d^3) work must be a conscious choice


def _check_finite(**values) -> None:
    if not all(map(math.isfinite, values.values())):
        raise DomainError(", ".join(f"{k}={v}" for k, v in values.items()) + " must be finite")


@dataclass(frozen=True)
class KickedTopParams:
    """Spin j (positive half-integer), kick strength k >= 0, rotation p.

    A j within 1e-9 of a half-integer is stored as that half-integer.
    """

    j: float
    k: float
    p: float = math.pi / 2.0

    def __post_init__(self):
        _check_finite(j=self.j, k=self.k, p=self.p)
        if round(2 * self.j) < 1 or abs(2 * self.j - round(2 * self.j)) > 1e-9:
            raise DomainError(f"j={self.j} must be a positive half-integer")
        if self.k < 0:
            raise DomainError(f"kick strength k={self.k} must be >= 0")
        object.__setattr__(self, "j", round(2 * self.j) / 2)

    @property
    def n_qubits(self) -> int:
        return round(2 * self.j)

    @property
    def dim(self) -> int:
        return self.n_qubits + 1


def _ladder_coefficients(j: float) -> np.ndarray:
    """<m+1| J+ |m> for m = -j .. j-1: the subdiagonal of the raising operator."""
    m = -j + np.arange(round(2 * j))
    return np.sqrt(j * (j + 1) - m * (m + 1))


def _kick_phases(params: KickedTopParams) -> np.ndarray:
    """The diagonal exp(-i (k/2j) m^2) of the kick, m ascending from -j to j.

    Raises CapacityError for 2j+1 above DIM_CAP, before any O(d^3) work.
    """
    dim = params.dim
    if dim > DIM_CAP:
        raise CapacityError(f"dimension 2j+1 = {dim} exceeds cap {DIM_CAP}")
    m = -params.j + np.arange(dim)
    return np.exp(-1j * params.k * m ** 2 / (2.0 * params.j))


def _check_unitary(u: np.ndarray) -> None:
    gram = u.conj().T @ u  # a real u takes the symmetric rank-k update, d^3 flops
    gram[np.diag_indices_from(gram)] -= 1.0  # in place: one d x d temporary fewer
    defect = np.abs(gram, out=gram if gram.dtype == np.float64 else None).max(initial=0.0)
    if not defect <= 1e-10:  # a NaN defect fails too
        raise IntegrityError(f"unitarity defect {defect:.2e} > 1e-10")


def _check_jx_eigenvectors(delta: np.ndarray, j: float) -> None:
    """_check_unitary(delta) for columns meant to be Jx's eigenvectors; O(d^2) when it passes.

    Jx's eigenvalues m are 1 apart, so a column v with |(Jx - m_c) v| <= eps
    is within asin(e), e = eps/|v|, of the exact eigenvector, and
    |v_a . v_b| <= |v_a| |v_b| (e_a + e_b + e_a e_b).  With the column
    norms, that bounds every entry of Delta^T Delta - I.  The residual, plus
    1e-15 j for its own round-off, is taken in row blocks that stay in
    cache.  A bound within 1e-10 passes, as _check_unitary would; one above
    it falls back to the d^3 _check_unitary, which decides.
    """
    dim = len(delta)
    a = _ladder_coefficients(j) / 2.0  # Jx[r, r + 1] = Jx[r + 1, r]
    m = np.arange(dim) - j
    res2, norm2 = np.zeros(dim), np.zeros(dim)
    for lo in range(0, dim, 32):
        hi = min(lo + 32, dim)
        up, down = min(hi, dim - 1), max(lo, 1)
        r = delta[lo:hi] * m
        r[:up - lo] -= a[lo:up, None] * delta[lo + 1:up + 1]
        r[down - lo:] -= a[down - 1:hi - 1, None] * delta[down - 1:hi - 1]
        res2 += np.einsum("rc,rc->c", r, r)
        norm2 += np.einsum("rc,rc->c", delta[lo:hi], delta[lo:hi])
    norm = np.sqrt(norm2)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero column bounds nothing
        e = ((np.sqrt(res2) + 1e-15 * j) / norm).max()
    bound = max(np.abs(norm2 - 1.0).max(), norm.max() ** 2 * (2.0 * e + e * e))
    if not bound <= 1e-10:  # a NaN falls back too
        _check_unitary(delta)


def _half_pi_d_matrix(j: float) -> np.ndarray:
    """Delta = exp(-i (pi/2) Jy) in the ascending |j, m> basis, by recursion; real.

    Column c is the eigenvector of Jx with eigenvalue m_c (Risbo, J. Geodesy
    70, 383 (1996)), so Delta[r+1, c] = (2 m_c Delta[r, c] - a_{r-1} Delta[r-1, c]) / a_r
    (a: the ladder coefficients) from Delta[0, c] = sqrt(binom(2j, c)) / 2^j,
    up to the middle row; past it the recurrence is unstable, and the rows are
    reflected: Delta[d-1-r, c] = (-1)^(j - m_c) Delta[r, c].  2^-j underflows
    past j ~ 1074, so the start is taken in logs: a column that would start
    below e^-700 starts scaled up and is scaled down by 1e100 whenever it
    passes 1e100.  Each column's norm must be 1 to 1e-10, and dividing by it
    removes the start's round-off.
    """
    n = round(2 * j)
    dim = n + 1
    a = _ladder_coefficients(j)
    two_m = 2.0 * (np.arange(dim) - j)
    log_start = 0.5 * (log_binomial(n, np.arange(dim)) - n * math.log(2.0))
    shift = np.maximum(0.0, -700.0 - log_start)
    scaled = bool(shift.any())  # only above j ~ 1010
    rows = (dim + 1) // 2  # with the middle row for odd dim
    delta = np.empty((dim, dim))
    delta[0] = np.exp(log_start + shift)
    for r in range(rows - 1):
        row = np.multiply(two_m, delta[r], out=delta[r + 1])
        if r:
            row -= a[r - 1] * delta[r - 1]
        row /= a[r]
        if scaled and (big := np.abs(row) > 1e100).any():
            delta[:r + 2, big] *= 1e-100
            shift[big] -= 100.0 * math.log(10.0)
    top = delta[:rows]
    norm2 = 2.0 * np.einsum("rc,rc->c", top, top) - (dim % 2) * delta[rows - 1] ** 2
    defect = np.abs(norm2 * np.exp(-2.0 * shift) - 1.0).max()
    if not defect <= 1e-10:  # a NaN fails too
        raise IntegrityError(f"d-matrix column norm defect {defect:.2e} > 1e-10")
    top /= np.sqrt(norm2)
    delta[rows:] = (delta[:dim - rows] * (-1.0) ** (n - np.arange(dim)))[::-1]
    return delta


def _rotation(j: float, p: float) -> np.ndarray:
    """R = exp(-i p Jy) in the ascending |j, m> basis: real, checked orthogonal.

    R = Delta of _half_pi_d_matrix at p = pi/2 exactly, otherwise
    R = Re[Z (Delta cos(p m) Delta^T - i Delta sin(p m) Delta^T) Z^dag] with
    Z = diag(exp(-i pi m / 2)) (Feng, Wang, Yang & Jin, PRE 92, 043307
    (2015)).  Z's phases (-i)^(a-b) keep the cos part at even a - b and the
    sin part at odd a - b, so with W = Delta with row a times (-1)^(a // 2),
    it is three real GEMMs of half the rows each, 1.5 d^3 flops.  R is
    checked orthogonal: by _check_jx_eigenvectors at pi/2, in O(d^2),
    and by _check_unitary after the GEMMs.
    """
    delta = _half_pi_d_matrix(j)
    if p == math.pi / 2:
        _check_jx_eigenvectors(delta, j)
        return delta
    w, m = delta * (-1.0) ** (np.arange(len(delta)) // 2)[:, None], np.arange(len(delta)) - j
    for row, col, trig in ((0, 0, np.cos), (1, 1, np.cos), (0, 1, np.sin)):
        delta[row::2, col::2] = (w[row::2] * trig(p * m)) @ w[col::2].T
    delta[1::2, 0::2] = -delta[0::2, 1::2].T
    _check_unitary(delta)
    return delta


def build_spin_system(params: KickedTopParams) -> np.ndarray:
    """The Floquet matrix U in the Dicke (excitation-count) order.

    The Dicke index m (number of flipped qubits) is m_z = j - m, so U is
    K R in the ascending |j, m> basis with both axes reversed: K is the
    diagonal kick and R = exp(-i p Jy) comes from _rotation.
    """
    kick = _kick_phases(params)
    return np.ascontiguousarray((kick[:, None] * _rotation(params.j, params.p))[::-1, ::-1])


def _kind_label(kind: EntropyKind) -> str:
    if kind.tag == "von_neumann":
        return "vn"
    if kind.tag == "linear":
        return "lin"
    return f"renyi{kind.alpha:g}"


def timeseries_measures(params: KickedTopParams, theta: float, phi: float,
                        n_steps: int, blocks=(1, 1, 1),
                        kinds=(VON_NEUMANN, LINEAR)) -> dict:
    """Entanglement / MI / TMI time series from a coherent initial state.

    Returns a dict of equal-length columns: 'step' plus, for each entropy
    kind, S_A, I2_AB, I2_A_BC and I3 of the requested qubit blocks.
    """
    q1, q2, q3 = blocks
    n = params.n_qubits
    _check_blocks(n, blocks)
    _check_count("n_steps", n_steps)
    u = build_spin_system(params)
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
    """block_entropies_batch over blocks of core._block_rows(n, s) steps, s the largest fold."""
    chunk = _block_rows(n, int(_folded_sizes(n, sizes).max()))
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

    bound is an a-priori bound on |trace| fixed for the whole series, not
    the trace's own real part, which can be round-off.  NaN and infinity
    fail the check.
    """
    if not (math.isfinite(value.real) and abs(value.imag) <= 1e-8 * bound):
        raise IntegrityError(f"trace {value!r} has a non-negligible imaginary part")
    return value.real


def _check_trace_pair(t_o: complex, t_e: complex, bound: float) -> None:
    """Tr((P_o^dag)^2) = Tr(P_e^2) by cyclicity, so C4 = 2 Re Tr(P_e^2); to 1e-8 bound."""
    if not abs(t_o - t_e) <= 1e-8 * bound:  # a NaN fails too
        raise IntegrityError(f"Tr((P_o^dag)^2) = {t_o!r} is not Tr(P_e^2) = {t_e!r}")


def _parity_block(a: np.ndarray, lam, n_rows: int, n_cols: int) -> np.ndarray:
    """v_s^dag a v_t on the parity sectors, by index arithmetic; reads a[:n_rows].

    The parity Pi = S F (F flips m -> -m, S = diag((-1)^(m+j))) commutes
    with the rotation and the kick, and anticommutes with Jx; its eigenvalues
    lam are +-1 for integer j and +-i otherwise.  Column c < dim // 2 of the
    basis v_t of the sector Pi = lam is (|c> + lam (-1)^c |dim-1-c>)/sqrt 2;
    for odd dim, the sector lam = (-1)^(dim // 2) ends with |dim // 2>.
    Pi a Pi^dag = +-a folds an entry to a[c, c'] + lam (-1)^c' a[c, dim-1-c'],
    for sectors s, t (sizes n_rows, n_cols) that a connects, with the middle
    row and column times 1/sqrt 2.
    """
    half = a.shape[1] // 2
    block = a[:n_rows, :n_cols] + lam * (-1.0) ** np.arange(n_cols) * a[:n_rows, ::-1][:, :n_cols]
    if n_rows > half:
        block[half] *= math.sqrt(0.5)
    if n_cols > half:
        block[:, half] *= math.sqrt(0.5)
    return block


def _rotate(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """r @ z for a C-contiguous complex z; a float64 r is one real GEMM on z's float64 view."""
    if r.dtype == np.float64:
        return (r @ z.view(np.float64)).view(np.complex128)
    return r @ z


def _block_map(dim: int, p: float):
    """(parts, shift_e, shift_o): how the kick splits each parity sector.

    For integer j at p = pi/2 exactly, Z = exp(-i pi Jz) = diag((-1)^m) is
    real, commutes with Pi and is (-1)^(c-j) on column c of either basis.
    Z U Z^dag = U Pi^dag (Haake, Kus & Scharf 1987), so Z R Z = lam R on the
    sector with Pi = lam: with part 0 the columns of even c-j (Z = +1) and
    part 1 the rest, the rotation keeps its weight on the blocks
    R[a, a ^ shift], with shift 0 for lam = 1 and 1 for lam = -1.
    Otherwise each sector is one part with shift 0.
    """
    half = dim // 2
    if dim % 2 == 0 or p != math.pi / 2:
        return (slice(None),), 0, 0
    return (slice(half % 2, None, 2), slice(1 - half % 2, None, 2)), half % 2, 1 - half % 2


def _bands(block: np.ndarray):
    """(shape, ((k, diagonal k), ...)) of a block whose nonzeros lie on its diagonals -1, 0 and 1.

    All-zero diagonals are left out; the diagonals are read-only copies.
    """
    diagonals = []
    for k in (-1, 0, 1):
        values = np.diagonal(block, k).copy()
        if values.any():
            values.setflags(write=False)
            diagonals.append((k, values))
    return block.shape, tuple(diagonals)


def _band_dense(bands) -> np.ndarray:
    """The complex C-contiguous block of _bands' (shape, diagonals)."""
    shape, diagonals = bands
    out = np.zeros(shape, dtype=complex)
    for k, values in diagonals:
        i = np.arange(values.size) + max(-k, 0)
        out[i, i + k] = values
    return out


def _band_product(bands, b: np.ndarray) -> np.ndarray:
    """block @ b for a block given as _bands' (shape, diagonals).

    The first diagonal is written straight into an uninitialised output and
    the rows it misses are zeroed; each further diagonal is one shifted,
    row-scaled add.  A block with no diagonal gives zeros.  A complex block
    multiplies faster than a real one on float64 views at the OTOC's sizes.
    """
    shape, diagonals = bands
    out = np.empty((shape[0], b.shape[1]), dtype=complex)
    if not diagonals:
        out[:] = 0.0
    for n, (k, values) in enumerate(diagonals):
        rows = slice(max(-k, 0), max(-k, 0) + values.size)
        cols = slice(max(k, 0), max(k, 0) + values.size)
        if n:
            out[rows] += values[:, None] * b[cols]
        else:
            np.multiply(values[:, None], b[cols], out=out[rows])
            out[:rows.start] = out[rows.stop:] = 0.0
    return out


def _band_product_norm2(bands, b: np.ndarray) -> float:
    """|block @ b|_F^2 for a block given as _bands' (shape, diagonals), not forming it.

    Row i of the product is sum_k d_k[i] b[i + k] over the diagonals d_k, so
    its squared norm is sum_{k, k'} conj(d_k[i]) d_k'[i] <b[i + k], b[i + k']>.
    The row products <b[r], b[r + s]>, s = k' - k, are one np.vecdot of two
    contiguous row slices of b per s, and a pair k < k' counts twice, by its
    real part: nothing of the product's size is written.  A block with no
    diagonal gives 0.
    """
    _, diagonals = bands
    gram, total = {}, 0.0  # gram[s][r] = <b[r], b[r + s]>
    for u, (k, d) in enumerate(diagonals):
        for k2, d2 in diagonals[u:]:
            s, o, o2 = k2 - k, max(-k, 0), max(-k2, 0)  # o: the first row diagonal k reaches
            lo, hi = max(o, o2), min(o + d.size, o2 + d2.size)
            if hi > lo:
                if s not in gram:
                    gram[s] = np.vecdot(b[:len(b) - s], b[s:])
                term = np.vdot(d[lo - o:hi - o], d2[lo - o2:hi - o2] * gram[s][lo + k:hi + k])
                total += (2.0 if s else 1.0) * term.real
    return total


def _build_otoc_setup(j: float, p: float):
    """What otoc_series needs of (j, p) alone, built and checked.

    Returns (parts, shift_e, shift_o, r_e_dag, r_o_t, x_t, x_conj, bound):
    _block_map's parts and shifts; the kept rotation blocks R_e^dag and
    R_o^T, each checked orthogonal here, so a cold call runs every check;
    X's blocks transposed, and conjugated, as _bands; and j^2 Tr(Jx^2),
    the bound on |C2| and |C4|.  Every array is read-only.  The blocks
    hold d^2/4 doubles at integer j and p = pi/2, d^2/2 at integer j
    otherwise and d^2 at half-integer j.
    """
    dim = round(2 * j) + 1
    ladder = _ladder_coefficients(j)
    lam = (-1.0) ** (dim // 2) if dim % 2 else 1j  # Pi on the even sector; -lam on the odd one
    n_e, n_o = (dim + 1) // 2, dim // 2
    rotation = _rotation(j, p)
    parts, shift_e, shift_o = _block_map(dim, p)
    r_e, r_o = ([b[rows, parts[a ^ shift]] for a, rows in enumerate(parts)]
                for b, shift in ((_parity_block(rotation, lam, n_e, n_e), shift_e),
                                 (_parity_block(rotation, -lam, n_o, n_o), shift_o)))
    r_e_dag = tuple(r.conj().T.copy() for r in r_e)
    r_o_t = tuple(r.T.copy() for r in r_o)
    for r in r_e_dag + r_o_t:  # contiguous copies check faster than strided slices
        _check_unitary(r)
        r.setflags(write=False)
    jx, c = np.zeros((n_e, dim)), np.arange(n_e)  # the rows of Jx that _parity_block reads
    jx[c, c + 1] = ladder[:n_e] / 2.0
    jx[c[1:], c[:-1]] = ladder[:n_e - 1] / 2.0
    x = _parity_block(jx, -lam, n_e, n_o)
    x_shift = len(parts) - 1  # Jx is Z-odd: split, X lives on X[a, a ^ 1]
    # indexed by the even sector's part a, x_conj by the odd one's; X is
    # tridiagonal but for one corner entry, and so are these blocks
    x_t = tuple(_bands(x[part, parts[a ^ x_shift]].T) for a, part in enumerate(parts))
    x_conj = tuple(_bands(x[parts[c ^ x_shift], part].conj().astype(complex))
                   for c, part in enumerate(parts))
    bound = j ** 2 * float(np.sum(ladder ** 2)) / 2.0  # j^2 Tr(Jx^2) >= |C2|, |C4|
    return parts, shift_e, shift_o, r_e_dag, r_o_t, x_t, x_conj, bound


_SETUP = None  # ((j, p), _build_otoc_setup(j, p)) of the latest otoc_series call


def _otoc_setup(j: float, p: float):
    """_build_otoc_setup(j, p), kept for the next call at the same (j, p).

    A sweep over k at fixed (j, p) pays the rotation and its checks once.
    One set-up is kept, and a miss drops it before building the next, so a
    change of (j, p) never holds two.  clear_otoc_setup() frees it.
    """
    global _SETUP
    key, setup = _SETUP or (None, None)
    if key != (j, p):
        _SETUP = setup = None
        setup = _build_otoc_setup(j, p)
        _SETUP = (j, p), setup
    return setup


def clear_otoc_setup() -> None:
    """Drop the set-up that otoc_series keeps for its latest (j, p)."""
    global _SETUP
    _SETUP = None


def otoc_series(params: KickedTopParams, n_max: int) -> OtocSeries:
    """Two-point correlator, four-point OTOC and commutator growth of Jx.

    C2(n) = Tr(Jx(n)^2 Jx^2)/j^4 and C4(n) = Tr(Jx(n) Jx Jx(n) Jx)/j^4 with
    Jx(n) = U^-n Jx U^n.  In the parity sectors of _parity_block,
    U = diag(K_e R_e, K_o R_o) with K the diagonal kick (kick[c] on column c
    of either basis), and Jx is off-diagonal, so Jx(n) is fixed by its block
    X_n = R_e^dag (conj(K_e) X_{n-1} K_o) R_o.  R_e, R_o and X are index
    arithmetic on _rotation's R and on Jx, real for integer j, where each of
    the two products of a kick is one real GEMM: d^3 flops.  Each phase
    multiply also transposes, so both products take a contiguous operand
    from the left; a kick ends with X_n^T.  With P_e = X_n X^dag and
    P_o = X_n^dag X, C2 = |P_e|_F^2 + |P_o|_F^2 and C4 = 2 Re Tr(P_e^2)
    (see _check_trace_pair).  X has at most two nonzeros per row, so
    P_e^T = conj(X) X_n^T is an O(d^2) _band_product on a contiguous
    operand.  P_o^dag = (X^dag K_e) z with z = conj(K_e) X_n, which the kick
    forms anyway, so |P_o|_F^2 comes from products of z's rows
    (_band_product_norm2) and P_o is not formed.  Only at the first and last
    step is it formed, as an O(d^2) _band_product: its Frobenius norm must
    match the row products to 1e-8 of the bound, and its trace
    Tr((P_o^dag)^2) must match Tr(P_e^2).

    All of it runs block by block over the parts of _block_map.  For
    integer j at p = pi/2 Jx is Z-odd and the rotations keep or swap the Z
    parts, so X_n is held as its two nonzero quarter blocks X_n[a, a ^ t],
    t flipping every kick, and a kick is four real quarter-size GEMMs:
    d^3/4 flops.  The kept rotation blocks are strided slices of the sector
    blocks, each checked orthogonal, which holds iff the dropped blocks
    vanish.  Otherwise there is one part and one block.  Everything but
    the kick comes from _otoc_setup, once per (j, p).
    """
    _check_count("n_max", n_max)
    kick = _kick_phases(params)
    dim, j = params.dim, params.j
    parts, shift_e, shift_o, r_e_dag, r_o_t, x_t, x_conj, bound = _otoc_setup(j, params.p)
    x_shift = len(parts) - 1
    kick_e = [kick[:(dim + 1) // 2, None][part] for part in parts]
    kick_o = [kick[:dim // 2, None][part] for part in parts]
    # X^dag K_e: conj(X^T), its column c times kick_e[c]
    x_dag_kick = [(shape, tuple((k, values.conj() * k_e[max(k, 0):][:values.size, 0])
                                for k, values in diagonals))
                  for (shape, diagonals), k_e in zip(x_t, kick_e)]
    scale = j ** 4

    def total(terms):
        return sum(terms[1:], terms[0])  # not from int 0, which drops the sign of a zero

    def square_trace(blocks, pair):
        # block a of P_e^T, or of P_o^dag, meets block a ^ pair in Tr(P^2);
        # two blocks that pair off meet twice, as Tr(B_0 B_1) = Tr(B_1 B_0)
        if pair:
            return 2.0 * np.einsum("ij,ji->", blocks[0], blocks[1])
        return total([np.einsum("ij,ji->", b, b) for b in blocks])

    c2, c4 = np.empty(n_max + 1), np.empty(n_max + 1)
    xt, t = [_band_dense(b) for b in x_t], x_shift  # xt[a] = X_n[a, a ^ t]^T
    for n in range(n_max + 1):
        z = [np.multiply(k_e.conj(), b.T, order="C") for k_e, b in zip(kick_e, xt)]  # conj(K_e) X_n
        p_e_t = [_band_product(x_conj[a ^ t], b) for a, b in enumerate(xt)]
        t_e = square_trace(p_e_t, t ^ x_shift)
        p_o2 = total([_band_product_norm2(xd, b) for xd, b in zip(x_dag_kick, z)])
        if n in (0, n_max):  # P_o is formed here only, to test what C2 reads of it
            p_o_dag = [_band_product(xd, b) for xd, b in zip(x_dag_kick, z)]
            formed = total([np.vdot(b, b) for b in p_o_dag])
            if not abs(formed - p_o2) <= 1e-8 * bound:  # a NaN fails too
                raise IntegrityError(f"|P_o|_F^2 = {formed!r} is not {p_o2!r} from row products")
            _check_trace_pair(square_trace(p_o_dag, t ^ x_shift), t_e, bound)
        c2[n] = _real_trace(total([np.vdot(b, b) for b in p_e_t]) + p_o2, bound) / scale
        c4[n] = 2.0 * t_e.real / scale
        if n < n_max:
            kicked = [None] * len(parts)
            for a, b in enumerate(z):
                kicked[a ^ shift_e] = _rotate(r_o_t[a ^ t], np.multiply(
                    kick_o[a ^ t], _rotate(r_e_dag[a], b).T, order="C"))
            xt, t = kicked, t ^ shift_e ^ shift_o
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
    new_point = classical_step(point, k, p)
    x2, y2, z1 = new_point[..., 0], new_point[..., 1], new_point[..., 2]
    tangent = np.asarray(tangent, dtype=float)
    cp, sp = math.cos(p), math.sin(p)
    ux, uy, uz = tangent[..., 0], tangent[..., 1], tangent[..., 2]
    ux1 = ux * cp + uz * sp
    uz1 = uz * cp - ux * sp
    alpha = k * z1
    ca, sa = np.cos(alpha), np.sin(alpha)
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
    if rng is None:
        rng = np.random.default_rng(0)
    if initial_points is None:
        points = _random_sphere_points(n_trajectories, rng)
    else:
        points = np.atleast_2d(np.asarray(initial_points, dtype=float))
        points = points / np.linalg.norm(points, axis=1, keepdims=True)
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
                           kind: EntropyKind = VON_NEUMANN):
    """Time-averaged TMI over a grid of coherent initial states.

    The grid discretizes theta in [0, pi) and phi in [0, 2pi); each node
    is kicked n_steps times and I3 is averaged over steps 1..n_steps.
    Only one node per symmetry orbit of _grid_orbits is evolved; the
    other nodes of the orbit take its value.
    Returns (theta_axis, phi_axis, matrix of shape grid).
    """
    n_theta, n_phi = grid
    for name, value in (("n_theta", n_theta), ("n_phi", n_phi), ("n_steps", n_steps)):
        _check_count(name, value)
    n = params.n_qubits
    _check_blocks(n, blocks)
    u_t = build_spin_system(params).T.copy()

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
