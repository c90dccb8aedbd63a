"""Dicke-basis algebra for permutation-symmetric multi-qubit states.

A permutation-symmetric (PS) pure state of N qubits lives in the
(N+1)-dimensional span of the Dicke states |m_N>, m = 0..N (m = number of
excited qubits).  Everything here works with the length-(N+1) amplitude
vector, so costs are linear in the qubit count instead of exponential.

The central object is the bipartition coefficient matrix A of a block of
Q qubits: A[m, n] = C[m, n] * a[m + n] with combinatorial weights
C[m, n] = sqrt(binom(Q, m) binom(N-Q, n) / binom(N, m+n)).  The Q-qubit
reduced density matrix is then simply A A^dagger in the block's own Dicke
basis, of dimension Q + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError

# embed_to_full allocates 2^N complex entries; hard guard against blowup.
FULL_EMBED_MAX_QUBITS = 24

# Working set of one block of batch rows: half the 2 MiB per-core L2 of a
# typical host, so a block's Grams stay in cache between their passes.
BLOCK_BYTES = 1 << 20

# Largest complex Hermitian matrix that hermitian_eigenvalues reduces to real
# tridiagonal form before its eigensolve.  On one core, the reduction plus
# the real solve took 0.43-0.68 of the complex solve's time at 1,227-1,337
# matrices for n = 2..5, and 0.55-0.94 at 148 matrices for n = 2..4; at 148
# matrices n = 5 broke even (0.99) and n = 6 lost (1.08).
TRIDIAGONAL_MAX_DIM = 5

# A reflection column of norm below this counts as zero: the reduction then
# skips it, which moves the eigenvalues by at most that norm.  Its square is
# still a normal double, so the squared norms above it are exact to round-off.
_NEGLIGIBLE_NORM = 1e-150


# ---------------------------------------------------------------------------
# combinatorial weights
# ---------------------------------------------------------------------------

def log_binomial(n, k):
    """Natural log of binom(n, k) for integers 0 <= k <= n, vectorized.

    Differences of log-factorials from a table of math.lgamma(i + 1),
    i = 0..max(n): within 3e-11 of the exact value at n = 8192.  Integral
    floats are accepted; any other input raises DomainError.
    """
    n, k = np.asarray(n), np.asarray(k)
    with np.errstate(invalid="ignore"):
        ni, ki = n.astype(np.intp), k.astype(np.intp)
    if not (np.array_equal(ni, n) and np.array_equal(ki, k)  # NaN, inf, fractions fail
            and np.all((0 <= ki) & (ki <= ni))):
        raise DomainError("log_binomial needs integers 0 <= k <= n")
    top = int(ni.max(initial=0))
    log_factorial = np.array([math.lgamma(i + 1) for i in range(top + 1)])
    return log_factorial[ni] - log_factorial[ki] - log_factorial[ni - ki]


def embed_coeff_table(n_qubits: int, q: int) -> np.ndarray:
    """Full (Q+1) x (N-Q+1) table of embedding weights via recursion.

    Filled row-major from C[0, 0] = 1 using the single-step recursions,
    so every entry derives from exactly one predecessor.  The recursion
    runs on the logs with a single exponentiation at the end: the fill
    path of very large tables passes through weights below float range,
    which must not wipe out representable entries further along.
    Matches the direct log-space evaluation to better than 1e-9 relative
    error for N up to several thousand.  For Q > N - Q it is the contiguous
    transpose of the short-side table, C_{N,Q}[m, n] = C_{N,N-Q}[n, m], so
    both blocks of a split hold exactly the same weights.
    """
    if not (0 <= q <= n_qubits):
        raise DomainError(f"block size q={q} outside [0, {n_qubits}]")
    if 2 * q > n_qubits:
        return np.ascontiguousarray(embed_coeff_table(n_qubits, n_qubits - q).T)
    nq = n_qubits - q
    logtab = np.empty((q + 1, nq + 1))
    # row 0:  log C[0, l+1] = log C[0, l] + (log(N-Q-l) - log(N-l)) / 2
    l = np.arange(nq, dtype=float)
    logtab[0, 0] = 0.0
    if nq:
        np.cumsum(0.5 * (np.log(nq - l) - np.log(n_qubits - l)), out=logtab[0, 1:])
    # row k -> k+1:  add log sqrt((Q-k)(k+l+1) / ((N-k-l)(k+1)))
    lv = np.arange(nq + 1, dtype=float)
    for k in range(q):
        step = 0.5 * (np.log(q - k) + np.log(k + lv + 1.0)
                      - np.log(n_qubits - k - lv) - np.log(k + 1.0))
        logtab[k + 1] = logtab[k] + step
    return np.exp(logtab)


@lru_cache(maxsize=None)
def _cached_block_arrays(n_qubits: int, q: int):
    """Read-only (weights, index) pair for building coefficient matrices."""
    table = embed_coeff_table(n_qubits, q)
    idx = np.add.outer(np.arange(q + 1), np.arange(n_qubits - q + 1))
    table.setflags(write=False)
    idx.setflags(write=False)
    return table, idx


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PSState:
    """Permutation-symmetric N-qubit pure state in the Dicke basis.

    amplitudes[m] is the coefficient of |m_N>; the vector must be unit
    norm within 1e-12.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise DomainError("amplitudes must be a vector of length N+1 >= 2")
        nrm2 = float(np.sum(np.abs(amps) ** 2))
        # fresh constructions are unit norm to ~1e-15; evolved states may
        # drift up to the 1e-9 health bound (renormalization is forbidden)
        if not abs(nrm2 - 1.0) <= 1e-9:  # a NaN fails too
            raise DomainError(f"state norm^2 = {nrm2!r} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size - 1


def coefficient_matrix(state: PSState, q: int) -> np.ndarray:
    """Coefficient matrix A[m, n] = C[m, n] * a[m+n] of a q-qubit block.

    Tr(A A^dagger) = 1 by normalization of the state.
    """
    n = state.n_qubits
    if not (1 <= q <= n - 1):
        raise DomainError(f"block size q={q} outside [1, {n - 1}]")
    return _block_coefficients(state.amplitudes, n, q)


def _block_coefficients(amplitudes: np.ndarray, n_qubits: int, q: int) -> np.ndarray:
    """Bare coefficient matrix for 0 <= q <= N (internal, batch friendly).

    amplitudes may carry leading batch axes; the block axes go last.  The
    result is C-contiguous with the batch axes first, so every matrix of a
    batched product is one contiguous operand.
    """
    table, idx = _cached_block_arrays(n_qubits, q)
    return table * np.take(amplitudes, idx, axis=-1)


def _check_count(name: str, value) -> None:
    """Raise DomainError unless value is an integer >= 1."""
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise DomainError(f"{name} {value!r} must be an integer >= 1")


def _block_rows(n_qubits: int, s: int | None = None) -> int:
    """Batch rows per block: BLOCK_BYTES over one complex (s+1) x (N-s+1) matrix.

    s is the largest folded block size min(q, N-q) that a block forms, and
    its coefficient matrix is the largest matrix the measures form per state
    (a Gram is at most its size); s=None takes N//2, which covers every
    block size.  No block is narrower than one row: 1,337 rows at N=12, 541
    at N=20, 148 at N=40 and 6 at N=200 by default, and 431 at N=40, s=3.
    """
    if s is None:
        s = n_qubits // 2
    return max(1, BLOCK_BYTES // (16 * (s + 1) * (n_qubits - s + 1)))


def smaller_gram(amplitudes: np.ndarray, n_qubits: int, q: int) -> np.ndarray:
    """Gram matrix of the smaller side of the q | N-q split (batch friendly).

    A A^dagger for q <= N - q, else A^T conj(A) = conj(A^dagger A).  Both
    sides share every nonzero eigenvalue and the purity, so spectra and
    purities cost min(q, N-q) + 1 dimensions.
    """
    return _gram(_smaller_side(_block_coefficients(amplitudes, n_qubits, q)))


def _smaller_side(a: np.ndarray) -> np.ndarray:
    """A batch of r x c matrices, transposed when r > c: its Gram is min(r, c) square."""
    return np.swapaxes(a, -1, -2) if a.shape[-2] > a.shape[-1] else a


def _gram(a: np.ndarray) -> np.ndarray:
    """a a^dagger over the last two axes of a batch of matrices."""
    return a @ np.conj(np.swapaxes(a, -1, -2))


def trace_out_qubit(rho: np.ndarray) -> np.ndarray:
    """Trace one qubit out of s-qubit block matrices (batch friendly).

    rho holds (s+1) x (s+1) Dicke-basis matrices on its last two axes; the
    result is the s x s matrix of the (s-1)-qubit block, exact in this basis
    (Stockton, Geremia, Doherty & Mabuchi, PRA 67, 022112 (2003)):
    rho_{s-1}[k, k'] = (sqrt((s-k)(s-k')) rho_s[k, k'] + sqrt((k+1)(k'+1)) rho_s[k+1, k'+1]) / s.
    """
    s = rho.shape[-1] - 1
    if s < 1:
        raise DomainError("cannot trace a qubit out of a 0-qubit block")
    k = np.arange(s)
    lo, hi = np.sqrt((s - k) / s), np.sqrt((k + 1) / s)
    out = rho[..., :-1, :-1] * np.outer(lo, lo)
    out += rho[..., 1:, 1:] * np.outer(hi, hi)
    return out


# ---------------------------------------------------------------------------
# spectra of small Hermitian matrices
# ---------------------------------------------------------------------------

def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of a batch (..., n, n) of Hermitian matrices.

    The one eigensolver of the package; it reads the lower triangle and the
    real diagonal, as np.linalg.eigvalsh does.  A complex batch with
    n <= TRIDIAGONAL_MAX_DIM is first reduced to real symmetric tridiagonal
    form by n-2 unitary Householder reflections (Golub & Van Loan, Matrix
    Computations, 4th ed., sec. 8.3.1; LAPACK zhetd2) and a diagonal phase,
    which is backward stable, and then solved as a real batch: the real
    solve costs about half the complex one.  Either way exactly one
    np.linalg.eigvalsh call is made, on as many matrices of the same size.
    The reduction computes squared norms, so its entries must stay below
    about 1e150 in modulus; a NaN or inf entry gives NaN eigenvalues.
    """
    h = np.asarray(h)
    shape, n = h.shape[:-1], h.shape[-1] if h.ndim >= 2 else 0
    if np.iscomplexobj(h) and h.shape[-2:] == (n, n) and 1 <= n <= TRIDIAGONAL_MAX_DIM:
        h = _real_tridiagonal(h.reshape(-1, n, n))
    return np.linalg.eigvalsh(h).reshape(shape)


def _real_tridiagonal(h: np.ndarray) -> np.ndarray:
    """Real symmetric tridiagonal matrices T (b, n, n) with the spectra of h (b, n, n).

    Only T's diagonal and subdiagonal are set.  The work runs batch-last, on
    a copy a[i, j] = h[:, i, j], so every operation acts on contiguous rows
    of length b.  Column k is reduced by a Householder reflection while its
    trailing block has 3 rows or more (_reflect); the last 2 x 2 step needs
    only T's three entries of it (_last_reflection).  A Hermitian
    tridiagonal matrix is unitarily similar, by a diagonal phase, to the
    real one with the moduli of its off-diagonal, which is all T keeps.
    Sums over matrix indices are Python's sum over rows, one elementwise
    add after another: numpy's reductions change their order of addition
    with the batch's length and layout, and with it the last bit.
    """
    b, n, _ = h.shape
    a = np.array(h.transpose(1, 2, 0), dtype=complex, order="C")
    t = np.zeros((n * n, b))  # T[:, i, j] in row i*n + j, batch last
    diag, sub = t[::n + 1], t[n::n + 1]
    flat = a.reshape(n * n, b)
    diag[...] = flat[::n + 1].real
    if n > 3:  # _reflect reads whole trailing blocks: make them Hermitian
        for i in range(1, n - 1):
            np.conjugate(a[i + 1:, i], out=a[i, i + 1:])
        flat[n + 1::n + 1].imag = 0.0
    for k in range(n - 3):
        sub[k] = _reflect(a[k + 1:, k], a[k + 1:, k + 1:])
        diag[k + 1] = a[k + 1, k + 1].real
    if n >= 3:
        _last_reflection(a[n - 2:, n - 3], a[n - 2:, n - 2:], diag[n - 2:], sub[n - 3:])
    elif n == 2:
        sub[0] = np.abs(a[1, 0])
    return t.T.reshape(b, n, n)


def _column_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over axis 0 of a batch-last complex column (m, b)."""
    sq = sum(x.view(float) ** 2)  # re^2 and im^2, interleaved
    return np.sqrt(sq[0::2] + sq[1::2])


def _reflect(x: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Apply the Householder reflection that maps x (m, b) onto e0 to block (m, m, b).

    H = I - u u^H with u = (x + phase(x0) |x| e0) / sqrt(|x| (|x| + |x0|)),
    so that |u|^2 = 2 and H x = -phase(x0) |x| e0 (phase(0) = 1).  block, a
    Hermitian view, becomes H block H by the rank-2 update block - u w^H -
    w u^H with w = p - (u^H p / 2) u and p = block u, as in zhetd2.  A column
    of norm below _NEGLIGIBLE_NORM gives |u| < 2 _NEGLIGIBLE_NORM, so that
    H = I to round-off.  Returns |x|, T's entry.
    """
    r = _column_norm(x)
    small = r < _NEGLIGIBLE_NORM  # False for NaN, which then spreads
    ax0 = np.abs(x[0])
    inv = 1.0 / np.sqrt(r * (r + ax0) + small)
    zero0 = ax0 == 0
    u = x * inv
    u[0] = (x[0] + zero0) * ((ax0 + r) * inv / (ax0 + zero0))
    p = sum(block.swapaxes(0, 1) * u[:, None])
    half = sum(u.view(float) * p.view(float))  # Re(u^H p), in pairs
    w = p - u * (0.5 * (half[0::2] + half[1::2]))
    outer = u[:, None] * w.conj()[None]
    block -= outer
    block -= np.conjugate(outer, out=outer).transpose(1, 0, 2)
    return r


def _last_reflection(x: np.ndarray, block: np.ndarray, diag: np.ndarray,
                     sub: np.ndarray) -> None:
    """T's last three entries from column x (2, b) and the Hermitian block (2, 2, b).

    With q = x / |x| (e0 when |x| < _NEGLIGIBLE_NORM) and q' = (-conj q1, conj q0):
    diag = (q^H C q, q'^H C q') and sub = (|x|, |q'^H C q|), read from the
    lower triangle and real diagonal of C = block.  At q = e0 they are C's
    own entries, exactly.
    """
    r = _column_norm(x)
    small = r < _NEGLIGIBLE_NORM
    inv = 1.0 / (r + small)
    q0, q1 = x[0] * inv + small, x[1] * inv
    c00, c11, c10 = block[0, 0].real, block[1, 1].real, block[1, 0]
    w0, w1 = q0.real ** 2 + q0.imag ** 2, q1.real ** 2 + q1.imag ** 2
    cross = 2.0 * (q1.conj() * c10 * q0).real
    sub[0] = r
    sub[1] = np.abs(q0 * q0 * c10 - q1 * q1 * c10.conj() + q0 * q1 * (c11 - c00))
    diag[0] = c00 * w0 + c11 * w1 + cross
    diag[1] = c00 * w1 + c11 * w0 - cross


def reduced_density_matrix(state: PSState, q: int) -> np.ndarray:
    """Reduced density matrix of a q-qubit block (0 <= q <= N), Dicke basis.

    Returns the (q+1) x (q+1) Gram matrix A A^dagger: Hermitian, PSD,
    unit trace, rank <= min(q+1, N-q+1).  Which qubits form the block is
    immaterial by permutation symmetry.
    """
    n = state.n_qubits
    if not (0 <= q <= n):
        raise DomainError(f"block size q={q} outside [0, {n}]")
    return _gram(_block_coefficients(state.amplitudes, n, q))


def block_eigenvalues(state: PSState, q: int) -> np.ndarray:
    """Spectrum of the q-qubit reduced density matrix (ascending, length q+1).

    cut_spectrum of the coefficient matrix, the one-state case of a PS ensemble
    spectrum; a q outside [0, N] raises DomainError (embed_coeff_table).
    """
    return cut_spectrum(_block_coefficients(state.amplitudes, state.n_qubits, q))


def cut_spectrum(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a a^dagger for a batch (..., r, c) of cut matrices: those
    of the smaller side's Gram (the same nonzeros), after r - min(r, c) exact zeros."""
    lam = hermitian_eigenvalues(_gram(_smaller_side(a)))
    zeros = np.zeros(lam.shape[:-1] + (a.shape[-2] - lam.shape[-1],))
    return np.concatenate([zeros, lam], axis=-1)


def embed_to_full(state: PSState) -> np.ndarray:
    """Embed into the full 2^N computational basis.

    Component at index i is a[w(i)] / sqrt(binom(N, w(i))) with w(i) the
    Hamming weight of i.  The embedding is an isometry.
    """
    n = state.n_qubits
    if n > FULL_EMBED_MAX_QUBITS:
        raise CapacityError(
            f"embedding 2^{n} amplitudes exceeds the cap of 2^{FULL_EMBED_MAX_QUBITS}")
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.intp)
    norms = np.exp(-0.5 * log_binomial(n, np.arange(n + 1)))
    return state.amplitudes[weights] * norms[weights]


def coherent_amplitudes(n_qubits: int, theta, phi) -> np.ndarray:
    """Dicke amplitudes of spin coherent states (vectorized over theta/phi).

    a_m = sqrt(binom(N, m)) cos^(N-m)(theta/2) (e^{i phi} sin(theta/2))^m,
    evaluated in log space so large N does not underflow.  theta and phi
    may be arrays of a common broadcast shape; the Dicke axis goes last.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    phi = np.asarray(phi, dtype=float)[..., None]
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise DomainError("coherent-state angles theta and phi must be finite")
    m = np.arange(n_qubits + 1, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    # floor the log arguments so poles give exact zeros instead of 0*(-inf)
    logmag = (0.5 * log_binomial(n_qubits, m)
              + (n_qubits - m) * np.log(np.maximum(np.abs(c), 1e-300))
              + m * np.log(np.maximum(np.abs(s), 1e-300)))
    sign = np.where(c < 0, -1.0, 1.0) ** (n_qubits - m) * np.where(s < 0, -1.0, 1.0) ** m
    amps = np.exp(logmag) * sign * np.exp(1j * m * phi)
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    return amps


def coherent_state(j: float, theta: float, phi: float) -> PSState:
    """Spin coherent state |theta, phi> of 2j qubits as a PSState."""
    n = _qubits_from_spin(j)
    return PSState(coherent_amplitudes(n, theta, phi))


def _qubits_from_spin(j: float) -> int:
    n = round(2 * j) if math.isfinite(j) else 0
    if n < 1 or abs(2 * j - n) > 1e-9:
        raise DomainError(f"spin j={j} must be a positive half-integer")
    return n


# ---------------------------------------------------------------------------
# serialization: header line N, then N+1 lines "re im"
# ---------------------------------------------------------------------------

def save_state(path, state: PSState) -> None:
    """Write a state in the columnar text form: N, then N+1 're im' lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{state.n_qubits}\n")
        for a in state.amplitudes:
            fh.write(f"{float(a.real)!r} {float(a.imag)!r}\n")


def load_state(path) -> PSState:
    """Read a state written by save_state; a malformed file raises DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:  # IndexError: an empty file; ValueError: a field count or number that is wrong
        n = int(lines[0])
        amps = np.array([complex(float(re_s), float(im_s))
                         for re_s, im_s in (ln.split() for ln in lines[1:])], dtype=complex)
    except (IndexError, ValueError) as exc:
        raise DomainError(f"malformed state file {path}: {exc}") from None
    if amps.size != n + 1:
        raise DomainError(f"expected {n + 1} amplitude lines, found {amps.size}")
    return PSState(amps)
