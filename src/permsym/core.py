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
from scipy.special import gammaln

from .errors import CapacityError, DomainError

NORM_TOL = 1e-12

# embed_to_full allocates 2^N complex entries; hard guard against blowup.
FULL_EMBED_MAX_QUBITS = 24


# ---------------------------------------------------------------------------
# combinatorial weights
# ---------------------------------------------------------------------------

def log_binomial(n, k):
    """Natural log of binom(n, k), vectorized (log-gamma based)."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def dicke_norm(n_qubits: int, m: int) -> float:
    """Normalization sqrt(binom(N, m)) of the Dicke state |m_N>.

    Uses the exact integer binomial and takes the square root in log
    space, so intermediate values never overflow and the result is
    accurate to ~1e-15 relative error whenever it is representable.
    """
    if not (0 <= m <= n_qubits):
        raise DomainError(f"excitation count m={m} outside [0, {n_qubits}]")
    # math.log handles integers beyond float range exactly enough
    return math.exp(0.5 * math.log(math.comb(n_qubits, m)))


def embed_coeff(n_qubits: int, q: int, m: int, n: int) -> float:
    """Single combinatorial weight C[m, n] of the block embedding.

    C[m, n] = sqrt(binom(Q, m) binom(N-Q, n) / binom(N, m+n)) <= 1.
    Evaluated from exact integer binomials in log space.
    """
    if not (0 <= q <= n_qubits):
        raise DomainError(f"block size q={q} outside [0, {n_qubits}]")
    if not (0 <= m <= q):
        raise DomainError(f"row index m={m} outside [0, {q}]")
    if not (0 <= n <= n_qubits - q):
        raise DomainError(f"column index n={n} outside [0, {n_qubits - q}]")
    lg = (math.log(math.comb(q, m))
          + math.log(math.comb(n_qubits - q, n))
          - math.log(math.comb(n_qubits, m + n)))
    return math.exp(0.5 * lg)


def embed_coeff_table(n_qubits: int, q: int) -> np.ndarray:
    """Full (Q+1) x (N-Q+1) table of embedding weights via recursion.

    Filled row-major from C[0, 0] = 1 using the single-step recursions,
    so every entry derives from exactly one predecessor.  The recursion
    runs on the logs with a single exponentiation at the end: the fill
    path of very large tables passes through weights below float range,
    which must not wipe out representable entries further along.
    Matches the direct log-space evaluation to better than 1e-9 relative
    error for N up to several thousand.
    """
    if not (0 <= q <= n_qubits):
        raise DomainError(f"block size q={q} outside [0, {n_qubits}]")
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


def embed_coeff_table_direct(n_qubits: int, q: int) -> np.ndarray:
    """Same table evaluated directly in log space (no recursion).

    Kept as the independent cross-check for the recursion fill.
    """
    if not (0 <= q <= n_qubits):
        raise DomainError(f"block size q={q} outside [0, {n_qubits}]")
    m = np.arange(q + 1)[:, None]
    n = np.arange(n_qubits - q + 1)[None, :]
    lg = (log_binomial(q, m) + log_binomial(n_qubits - q, n)
          - log_binomial(n_qubits, m + n))
    return np.exp(0.5 * lg)


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
        if abs(nrm2 - 1.0) > 1e-9:
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

    amplitudes may carry leading batch axes; the block axes go last.
    """
    table, idx = _cached_block_arrays(n_qubits, q)
    return table * amplitudes[..., idx]


def smaller_gram(amplitudes: np.ndarray, n_qubits: int, q: int) -> np.ndarray:
    """Gram matrix of the smaller side of the q | N-q split (batch friendly).

    A A^dagger for q <= N - q, else A^T conj(A) = conj(A^dagger A).  Both
    sides share every nonzero eigenvalue and the purity, so spectra and
    purities cost min(q, N-q) + 1 dimensions.
    """
    a = _block_coefficients(amplitudes, n_qubits, q)
    if 2 * q > n_qubits:
        a = np.swapaxes(a, -1, -2)
    return a @ np.conj(np.swapaxes(a, -1, -2))


def reduced_density_matrix(state: PSState, q: int) -> np.ndarray:
    """Reduced density matrix of a q-qubit block (0 <= q <= N), Dicke basis.

    Returns the (q+1) x (q+1) Gram matrix A A^dagger: Hermitian, PSD,
    unit trace, rank <= min(q+1, N-q+1).  Which qubits form the block is
    immaterial by permutation symmetry.
    """
    n = state.n_qubits
    if not (0 <= q <= n):
        raise DomainError(f"block size q={q} outside [0, {n}]")
    a = _block_coefficients(state.amplitudes, n, q)
    return a @ a.conj().T


def block_eigenvalues(state: PSState, q: int) -> np.ndarray:
    """Spectrum of the q-qubit reduced density matrix (ascending, length q+1).

    For q > N/2 the eigenvalues are computed from the smaller Gram matrix
    and padded with exact zeros (the two share all nonzeros).
    """
    n = state.n_qubits
    if not (0 <= q <= n):
        raise DomainError(f"block size q={q} outside [0, {n}]")
    lam = np.linalg.eigvalsh(smaller_gram(state.amplitudes, n, q))
    return np.concatenate([np.zeros(q + 1 - lam.size), lam])


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


def dicke_vector(n_qubits: int, m: int) -> np.ndarray:
    """The Dicke state |m_N> as a full 2^N real vector."""
    return embed_to_full(PSState(np.eye(n_qubits + 1)[m])).real


def coherent_amplitudes(n_qubits: int, theta, phi) -> np.ndarray:
    """Dicke amplitudes of spin coherent states (vectorized over theta/phi).

    a_m = sqrt(binom(N, m)) cos^(N-m)(theta/2) (e^{i phi} sin(theta/2))^m,
    evaluated in log space so large N does not underflow.  theta and phi
    may be arrays of a common broadcast shape; the Dicke axis goes last.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    phi = np.asarray(phi, dtype=float)[..., None]
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
    n = round(2 * j)
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
    """Read a state written by save_state."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    n = int(lines[0])
    if len(lines) != n + 2:
        raise DomainError(f"expected {n + 1} amplitude lines, found {len(lines) - 1}")
    amps = np.empty(n + 1, dtype=complex)
    for i, ln in enumerate(lines[1:]):
        re_s, im_s = ln.split()
        amps[i] = complex(float(re_s), float(im_s))
    return PSState(amps)
