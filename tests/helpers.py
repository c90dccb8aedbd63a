"""Test-only helpers and oracles: code with no caller in the package itself."""

import functools
import json
import math
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_array
from scipy.special import gammaln

from permsym.core import (PSState, _cached_block_arrays, coherent_amplitudes, embed_to_full,
                          hermitian_eigenvalues)
from permsym.ensembles import (MCResult, _summarize, avg_linear_entropy_ps,
                               mc_block_entropy, mc_purity_sweep,
                               mc_tmi_samples, reduced_density_full)
from permsym.errors import IntegrityError
import permsym.kickedtop as kickedtop
from permsym.measures import (VON_NEUMANN, entropy_from_eigenvalues, tmi_batch, tmi_blocks,
                              tmi_sum)


def gammaln_log_binomial(n, k):
    """log binom(n, k) from scipy's gammaln: the kernel of core.log_binomial
    before its math.lgamma table, kept as its oracle."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def gathered_coefficients(amplitudes: np.ndarray, n_qubits: int, q: int) -> np.ndarray:
    """Coefficient matrices by the gather core._block_coefficients ran before
    np.take and its window view, kept as its oracle: table * a[..., idx] with
    idx[m, n] = m + n, whose batch axes come out innermost in memory."""
    idx = np.add.outer(np.arange(q + 1), np.arange(n_qubits - q + 1))
    return _cached_block_arrays(n_qubits, q) * amplitudes[..., idx]


def matmul_gram(a: np.ndarray) -> np.ndarray:
    """a a^dagger over the last two axes by one matmul: the kernel of
    core._gram before its row products for complex batches of at most
    core.ROW_GRAM_MAX_ROWS rows, kept as their oracle."""
    return a @ np.conj(np.swapaxes(a, -1, -2))


def _value_text(value) -> str:
    """cli._fmt as the per-value writer had it."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def rowwise_write_rows(path, fmt, header, rows):
    """The CSV and JSON writer cli._write_rows was before it formatted CSV
    column by column, one value and one line at a time, kept as its oracle."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_value_text(v) for v in row) + "\n")
    else:
        records = [{h: (None if v == "" else (float(v) if isinstance(v, (float, np.floating))
                                              else int(v) if isinstance(v, (int, np.integer))
                                              else v))
                    for h, v in zip(header, row)} for row in rows]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")


def avg_tmi_linear_ps(n: int, blocks) -> Fraction:
    """Exact PS-ensemble average of the linear-entropy TMI of any three blocks:
    by linearity of the mean, tmi_sum of avg_linear_entropy_ps over tmi_blocks
    in rationals, with S = 0 at q in {0, N} (a pure state)."""
    return tmi_sum([Fraction(0) if q in (0, n) else avg_linear_entropy_ps(Fraction(n), q)
                    for q in tmi_blocks(*blocks)])


def complex_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues by LAPACK's complex Hermitian solver (zheevd):
    every spectrum's kernel before core.hermitian_eigenvalues reduced small
    complex blocks to real tridiagonal form, kept as its oracle."""
    return np.linalg.eigvalsh(h)


def trace_normalized_wishart(n1: int, n2: int, rng: np.random.Generator) -> np.ndarray:
    """G G^dagger / tr of an unnormalized complex Gaussian n1 x n2 matrix G, by
    the kernel ensembles.sample_wishart_rdm ran before it normalized the row
    first, kept as its oracle."""
    g = rng.standard_normal(2 * n1 * n2).view(complex).reshape(n1, n2)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def kept_side_tmi_full(psi, n_qubits: int, sizes, kind) -> np.ndarray:
    """TMI of full 2^N states psi (..., 2^N) from the Gram of every block's own
    qubits: the kernel ensembles.tmi_full_state ran before it reduced a block of
    more than half the qubits through its complement, kept as its oracle."""
    q1, q2, q3 = sizes
    qubits = list(range(n_qubits))
    a, b, c = qubits[:q1], qubits[q1:q1 + q2], qubits[q1 + q2:q1 + q2 + q3]
    return tmi_sum([entropy_from_eigenvalues(
        hermitian_eigenvalues(reduced_density_full(psi, x, n_qubits)), kind)
        for x in tmi_blocks(a, b, c)])


def dicke_vector(n_qubits: int, m: int) -> np.ndarray:
    """The Dicke state |m_N> as a full 2^N real vector."""
    return embed_to_full(PSState(np.eye(n_qubits + 1)[m])).real


def mc_purity(n, q, samples, seed, **kw) -> MCResult:
    return mc_purity_sweep(n, samples, seed, [q], **kw)[q]


def mc_tmi(n, sizes, kind, samples, seed, **kw) -> MCResult:
    return _summarize(mc_tmi_samples(n, sizes, kind, samples, seed, **kw))


def fit_vn_alpha(pairs, samples: int, seed: int) -> float:
    """Least-squares fit of the constant in the PS average-entropy form.

    pairs is an iterable of (N, Q); the deviation log2(Q+1) - <S_vN> is
    regressed through the origin against (Q+1)/(N-Q+1).
    """
    xs, ys = [], []
    for i, (n, q) in enumerate(pairs):
        res = mc_block_entropy(n, q, VON_NEUMANN, samples, seed + i)
        xs.append((q + 1) / (n - q + 1))
        ys.append(math.log2(q + 1) - res.mean)
    xs, ys = np.asarray(xs), np.asarray(ys)
    return float(xs @ ys / (xs @ xs))


def unblocked_tmi_grid(params, grid, n_steps, blocks, kind):
    """kickedtop.time_averaged_tmi_grid as it ran before it took each step's
    TMI in core._block_rows blocks: every orbit representative in one
    tmi_batch, kept as its oracle."""
    n_theta, n_phi = grid
    n = params.n_qubits
    u_t = kickedtop.build_spin_system(params).T.copy()
    thetas = np.linspace(0.0, math.pi, n_theta, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    representatives, inverse = kickedtop._grid_orbits(n_theta, n_phi, params.p)
    i, j = np.divmod(representatives, n_phi)
    amps = coherent_amplitudes(n, thetas[i], phis[j])
    acc = np.zeros(amps.shape[0])
    for _ in range(n_steps):
        amps = amps @ u_t
        acc += tmi_batch(amps, n, blocks, kind)
    return (acc / n_steps)[inverse].reshape(n_theta, n_phi)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal(2 * dim * dim).view(complex).reshape(dim, dim)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def angular_momentum_matrices(j: float):
    """Dense Jx, Jy, Jz for spin j in the ascending |j, m> basis."""
    dim = round(2 * j) + 1
    m = -j + np.arange(dim)
    raising = np.zeros((dim, dim))
    raising[np.arange(1, dim), np.arange(dim - 1)] = kickedtop._ladder_coefficients(j)
    jx = (raising + raising.T) / 2.0 + 0j
    jy = (raising - raising.T) / 2.0j
    jz = np.diag(m) + 0j
    return jx, jy, jz


@functools.lru_cache(maxsize=2)
def _dense_jy_spectrum(j: float):
    _, jy, jz = angular_momentum_matrices(j)
    return np.diagonal(jz).real, *np.linalg.eigh(jy)


def dense_floquet(params) -> np.ndarray:
    """The Floquet matrix in the ascending |j, m> basis by the kernel
    kickedtop.build_spin_system ran before it took sector_rotation: a dense
    complex eigh of Jy and a diagonal kick, checked unitary to 1e-10.
    build_spin_system returns this matrix with both axes reversed.  The
    eigh is cached per j, for tests that sweep k or p."""
    m, w, v = _dense_jy_spectrum(params.j)
    kick = np.exp(-1j * params.k * m ** 2 / (2.0 * params.j))
    floquet = kick[:, None] * ((v * np.exp(-1j * params.p * w)) @ v.conj().T)
    kickedtop._check_unitary(floquet)
    return floquet


def parity_bases(dim: int):
    """Orthonormal bases (v_e, v_o) of the two eigenspaces of the kicked-top parity.

    The oracle for kickedtop._parity_block, which takes v_s^dag a v_t by
    index arithmetic.  The parity is Pi = S F in the ascending |j, m> basis:
    F flips m -> -m and S = diag((-1)^i) with i = m + j.  Pi^2 = (-1)^(dim-1),
    so the eigenvalue lam of v_e is +-1 for integer j and i for half-integer
    j; v_o has -lam.  Column c < dim // 2 of either basis is
    (|c> + lam (-1)^c |dim-1-c>)/sqrt 2; for odd dim the m = 0 vector is the
    last column of v_e.  Both are complex scipy.sparse CSR arrays, built
    from their nonzeros.
    """
    half = dim // 2
    c = np.arange(half)
    lam = (-1.0) ** half if dim % 2 else 1j
    bases = []
    for eig, middle in ((lam, dim % 2), (-lam, 0)):
        mid = np.full(middle, half)
        rows = np.concatenate([c, dim - 1 - c, mid])
        cols = np.concatenate([c, c, mid])
        values = np.concatenate([np.full(half, math.sqrt(0.5)),
                                 eig * (-1.0) ** c * math.sqrt(0.5), np.ones(middle)])
        bases.append(csr_array((values.astype(complex), (rows, cols)), shape=(dim, half + middle)))
    return tuple(bases)


def real_rotation(r: np.ndarray) -> np.ndarray:
    """r as float64, for a rotation that must be real up to round-off.

    Part of the sector_rotation oracle: exp(-i p Jy) is real orthogonal (Jy
    is imaginary antisymmetric), and so is its block on a parity sector for
    integer j, whose parity bases are real; the imaginary part is then
    round-off, and anything larger (or a NaN) means the decomposition went
    wrong.
    """
    defect = np.abs(r.imag).max()
    if not defect <= 1e-10:
        raise IntegrityError(f"rotation imaginary part {defect:.2e} > 1e-10")
    return np.ascontiguousarray(r.real)


def sector_rotation(jy: np.ndarray, p: float, real: bool) -> np.ndarray:
    """exp(-i p jy) for Jy or its block jy on one parity sector, from one eigh of its size.

    The kernel kickedtop built exp(-i p Jy) with before its d-matrix
    recursion, kept as its oracle.  jy is tridiagonal, with a real diagonal
    and a subdiagonal that is -i times a real vector, so D^dag jy D is real
    symmetric for D = diag((-i)^c) and a real eigh suffices.  With real (the
    full Jy, or a sector block for integer j) the rotation is returned as
    float64, else as complex; either is checked unitary.
    """
    n = jy.shape[0]
    phase = np.array([1.0, -1j, -1.0, 1j])[np.arange(n) % 4]
    w, vecs = np.linalg.eigh((phase.conj()[:, None] * jy * phase).real)
    vecs = phase[:, None] * vecs
    r = (vecs * np.exp(-1j * p * w)) @ vecs.conj().T
    if real:
        r = real_rotation(r)
    kickedtop._check_unitary(r)
    return r


def half_pi_rotation(sub: np.ndarray, parts, shift: int, j: float) -> list:
    """The kept blocks r[a, a ^ shift] of r = exp(-i (pi/2) jy) on one sector, integer j.

    The SVD kernel of kickedtop.otoc_series's set-up at p = pi/2 before the
    d-matrix recursion, kept as an oracle.  jy has subdiagonal sub = -i e
    (e real) and a zero diagonal, so with D of sector_rotation
    M = D^dag jy D = [[0, B], [B^T, 0]] over the parts.  From B = U S V^T
    (S zero-padded; Golub & Kahan 1965) the kept blocks are U cos(pS) U^T and
    V cos(pS) V^T (shift 0) or +-U sin(pS) V^T and minus its transpose
    (shift 1), with D's phases.  S must be integers (the sector's |Jy|
    eigenvalues) to 1e-10 j and each kept block orthogonal to 1e-10, which
    holds iff the dropped blocks vanish; else IntegrityError.
    """
    n, first = len(sub) + 1, parts[0].start  # part 0: the c of parity first, each at c // 2
    c = np.arange(n - 1)  # B holds M[c, c + 1] at (the one in part 0, the other) // 2
    b = np.zeros(((n + 1 - first) // 2, (n + first) // 2))
    b[(c + (c % 2 != first)) // 2, (c + (c % 2 == first)) // 2] = (1j * sub).real
    u, s, vt = np.linalg.svd(b)
    defect = np.abs(s - np.round(s)).max(initial=0.0)
    if not defect <= 1e-10 * j:  # a NaN fails too
        raise IntegrityError(f"sector Jy singular value off an integer by {defect:.2e}")
    # D = sign (-i)^(c % 2); the (-i)^(c % 2) give U sin(pS) V^T the sign of part 0's parity
    sign = (-1.0) ** (np.arange(n) // 2)
    u, v = u * ((-1.0) ** first * sign[parts[0], None]), vt.T * sign[parts[1], None]
    if shift:
        r01 = (u[:, :s.size] * np.sin(math.pi / 2 * s)) @ v[:, :s.size].T
        kept = [r01, -r01.T]
    else:
        kept = [(w * np.concatenate([np.cos(math.pi / 2 * s), np.ones(w.shape[1] - s.size)])) @ w.T
                for w in (u, v)]
    for r in kept:
        kickedtop._check_unitary(r)
    return kept


def sector_blocks(r: np.ndarray, parts, shift: int) -> list:
    """The blocks r[a, a ^ shift] of a half-size sector rotation, one per part a.

    The oracle for the quarter blocks of kickedtop.otoc_series.  Every other
    block is dropped and must be round-off: one above 1e-10 (or a NaN) means
    the symmetry behind the block map does not hold.
    """
    for a, rows in enumerate(parts):
        for b, cols in enumerate(parts):
            if b != a ^ shift:
                defect = np.abs(r[rows, cols]).max(initial=0.0)
                if not defect <= 1e-10:  # a NaN fails too
                    raise IntegrityError(f"dropped sector rotation block {defect:.2e} > 1e-10")
    return [r[rows, parts[a ^ shift]] for a, rows in enumerate(parts)]


def two_trace_otoc(params, n_max: int, svd: bool = False):
    """(C2, C4, F) by the scipy.sparse kernel of kickedtop.otoc_series before
    the d-matrix recursion, kept as its oracle.

    Half-size sector rotations from sector_rotation on the CSR sector blocks
    of Jy, cut to quarter blocks by sector_blocks at p = pi/2 (with svd, the
    quarter blocks of half_pi_rotation instead, as otoc_series had them), CSR
    trace products, and C4 as the sum Tr(P_e^2) + Tr(P_o^2) of two traces.
    """
    dim, j = params.dim, float(params.j)
    ladder = kickedtop._ladder_coefficients(j)
    raising = csr_array((ladder, (np.arange(1, dim), np.arange(dim - 1))), shape=(dim, dim))
    m = -j + np.arange(dim)
    kick = np.exp(-1j * params.k * m ** 2 / (2.0 * j))
    v_e, v_o = parity_bases(dim)

    def block(left, op, right):
        return (left.conj().T @ op @ right).toarray()

    jy = (raising - raising.T) * -0.5j
    parts, shift_e, shift_o = kickedtop._block_map(dim, params.p)
    if svd and len(parts) == 2:
        r_e, r_o = (half_pi_rotation(np.diagonal(block(v, jy, v), -1), parts, shift, j)
                    for v, shift in ((v_e, shift_e), (v_o, shift_o)))
    else:
        r_e, r_o = (sector_blocks(sector_rotation(block(v, jy, v), params.p, dim % 2 == 1),
                                  parts, shift) for v, shift in ((v_e, shift_e), (v_o, shift_o)))
    r_e_dag = [r.conj().T.copy() for r in r_e]
    r_o_t = [r.T.copy() for r in r_o]
    x = block(v_e, (raising + raising.T) * 0.5, v_o)
    x_shift = len(parts) - 1
    kick_e = [kick[:x.shape[0], None][part] for part in parts]
    kick_o = [kick[:x.shape[1], None][part] for part in parts]
    x_blocks = [x[part, parts[a ^ x_shift]] for a, part in enumerate(parts)]
    x_conj = [csr_array(x[parts[c ^ x_shift], part].conj()) for c, part in enumerate(parts)]
    x_dag_kick = [csr_array(b.conj().T * k_e.T) for b, k_e in zip(x_blocks, kick_e)]
    bound = j ** 2 * float(np.sum(ladder ** 2)) / 2.0

    def total(terms):
        return sum(terms[1:], terms[0])

    def traces(p_e_t, p_o_dag, pair):
        c2 = total([np.vdot(b, b) for b in p_e_t]) + total([np.vdot(b, b) for b in p_o_dag])
        c4 = (total([np.einsum("ij,ji->", b, p_e_t[a ^ pair]) for a, b in enumerate(p_e_t)])
              + total([np.einsum("ij,ji->", b, p_o_dag[a ^ pair])
                       for a, b in enumerate(p_o_dag)]).conjugate())
        return (kickedtop._real_trace(c2, bound) / j ** 4,
                kickedtop._real_trace(c4, bound) / j ** 4)

    c2, c4 = np.empty(n_max + 1), np.empty(n_max + 1)
    xt, t = [b.T.copy() for b in x_blocks], x_shift
    for n in range(n_max + 1):
        z = [np.multiply(k_e.conj(), b.T, order="C") for k_e, b in zip(kick_e, xt)]
        c2[n], c4[n] = traces([x_conj[a ^ t] @ b for a, b in enumerate(xt)],
                              [xd @ b for xd, b in zip(x_dag_kick, z)], t ^ x_shift)
        if n < n_max:
            kicked = [None] * len(parts)
            for a, b in enumerate(z):
                kicked[a ^ shift_e] = kickedtop._rotate(r_o_t[a ^ t], np.multiply(
                    kick_o[a ^ t], kickedtop._rotate(r_e_dag[a], b).T, order="C"))
            xt, t = kicked, t ^ shift_e ^ shift_o
    c4[0] = c2[0]
    return c2, c4, 2.0 * (c2 - c4)


def _flip_reflection_sign(monkeypatch):
    kernel = kickedtop._half_pi_d_matrix

    def flipped(j):
        delta = kernel(j)
        delta[(len(delta) + 1) // 2:, 1] *= -1.0  # the reflected rows of column 1
        return delta
    monkeypatch.setattr(kickedtop, "_half_pi_d_matrix", flipped)


def _nan_ladder_entry(monkeypatch):
    ladder = kickedtop._ladder_coefficients
    monkeypatch.setattr(kickedtop, "_ladder_coefficients",
                        lambda j: np.where(np.arange(round(2 * j)) == 0, np.nan, ladder(j)))


# Mutations of the d-matrix recursion, each applied through monkeypatch: a
# start row scaled by 1 + 1e-8, one column's reflection sign flipped, and a
# NaN ladder entry.  Each must fail a health check (IntegrityError).
RECURSION_MUTATIONS = {
    "start-row": lambda monkeypatch: monkeypatch.setattr(
        kickedtop, "log_binomial",
        lambda n, k, f=kickedtop.log_binomial: f(n, k) + 2.0 * math.log1p(1e-8)),
    "reflection-sign": _flip_reflection_sign,
    "nan-ladder": _nan_ladder_entry,
}
