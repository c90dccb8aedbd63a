"""Entropies and mutual-information measures of qubit blocks of a PS state.

All logarithms are base 2, so von Neumann and Renyi entropies are in bits.
Tripartite mutual information is evaluated through its seven-entropy
expansion S_A + S_B + S_C - S_AB - S_AC - S_BC + S_ABC, which makes the
symmetry under block permutations exact by construction and reuses the
fact that for PS states a block entropy depends only on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PSState, hermitian_eigenvalues, smaller_gram, trace_out_qubit
from .errors import DomainError, IntegrityError

EIG_CLIP = 1e-12  # eigenvalues below this are treated as exact zeros
PSD_TOL = 1e-10   # most negative eigenvalue tolerated before integrity error


@dataclass(frozen=True)
class EntropyKind:
    """Entropy functional selector: von Neumann, linear, or Renyi(alpha)."""

    tag: str
    alpha: float | None = None


VON_NEUMANN = EntropyKind("von_neumann")
LINEAR = EntropyKind("linear")


def renyi(alpha: float) -> EntropyKind:
    """Renyi entropy of order alpha (finite, alpha > 0, alpha != 1)."""
    alpha = float(alpha)
    if not 0 < alpha < np.inf or alpha == 1.0:  # a NaN fails too
        raise DomainError(f"Renyi order alpha={alpha} must be positive, finite and != 1")
    return EntropyKind("renyi", alpha)


def entropy_from_eigenvalues(lam: np.ndarray, kind: EntropyKind):
    """Entropy of one or many spectra; the eigenvalue axis goes last.

    Eigenvalues are clipped to [0, 1] (values below 1e-12 to exact zero)
    before evaluation, absorbing PSD drift from finite-precision Gram
    products.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size and not float(lam.min()) >= -PSD_TOL:  # a NaN fails too
        raise IntegrityError(f"eigenvalue {lam.min()} below -{PSD_TOL}: not a state")
    lam = np.clip(lam, 0.0, 1.0)
    lam = np.where(lam < EIG_CLIP, 0.0, lam)
    if kind.tag == "von_neumann":
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0.0, lam * np.log2(lam), 0.0)
        return -terms.sum(axis=-1)
    if kind.tag == "linear":
        return 1.0 - (lam ** 2).sum(axis=-1)
    if kind.tag == "renyi":
        return np.log2((lam ** kind.alpha).sum(axis=-1)) / (1.0 - kind.alpha)
    raise DomainError(f"unknown entropy kind {kind.tag!r}")


def entropy(rho: np.ndarray, kind: EntropyKind = VON_NEUMANN) -> float:
    """Entropy of a density matrix (bits for von Neumann / Renyi).

    The matrix is validated against the density-matrix invariants
    (Hermitian to 1e-12, unit trace to 1e-10) before solving.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DomainError("density matrix must be square")
    if np.abs(rho - rho.conj().T).max() > 1e-12 * max(1.0, np.abs(rho).max()):
        raise IntegrityError("matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise IntegrityError(f"trace {np.trace(rho)!r} deviates from 1")
    return float(entropy_from_eigenvalues(hermitian_eigenvalues(rho), kind))


def block_entropy(state: PSState, q: int, kind: EntropyKind = VON_NEUMANN) -> float:
    """Entropy of a q-qubit block (any q in [0, N]; q = 0, N give 0).

    The one-row batch of block_entropies_batch, so it has the batch's bytes.
    """
    return float(block_entropies_batch(state.amplitudes[None], state.n_qubits, (q,), kind)[q][0])


def block_spectra_batch(amplitudes: np.ndarray, n_qubits: int, q: int) -> np.ndarray:
    """Spectra of q-qubit blocks for a batch of amplitude vectors.

    amplitudes has shape (..., N+1); the result has the eigenvalues of
    each block reduced matrix along the last axis (smaller Gram side, so
    exact zeros of rank-deficient blocks are simply absent).
    """
    if q == 0 or q == n_qubits:
        return np.ones(amplitudes.shape[:-1] + (1,))
    return hermitian_eigenvalues(smaller_gram(amplitudes, n_qubits, q))


def _folded_sizes(n_qubits: int, qs) -> np.ndarray:
    """s = min(q, N-q) of every block size; raises DomainError outside [0, N]."""
    folded = np.array([min(q, n_qubits - q) for q in qs], dtype=int)
    if folded.size == 0 or folded.min() < 0:
        raise DomainError(f"block sizes {qs} must be a non-empty list in [0, {n_qubits}]")
    return folded


def _largest_cut(n_qubits: int, sizes) -> tuple:
    """(s+1, N-s+1), the coefficient matrix of the largest fold s of `sizes`."""
    s = int(_folded_sizes(n_qubits, sizes).max())
    return s + 1, n_qubits - s + 1


def _walk_down(amplitudes: np.ndarray, n_qubits: int, folded: np.ndarray):
    """Yield (s, rho_s) for every distinct s in folded, largest first.

    One smaller_gram is formed at the largest s; every smaller s follows by
    exact one-qubit partial traces (core.trace_out_qubit), each matrix
    dropped once the next is formed.
    """
    s = int(folded.max())
    rho = smaller_gram(amplitudes, n_qubits, s)
    while True:
        if s in folded:
            yield s, rho
        if s == folded.min():
            return
        rho, s = trace_out_qubit(rho), s - 1


def _qubit_spectrum(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a batch of 2 x 2 Hermitian matrices, in closed form.

    lambda = (t -+ sqrt(2 ||rho||_F^2 - t^2)) / 2 with t = tr rho, not 1:
    evolved states drift in norm.  The discriminant is
    (lambda+ - lambda-)^2; below -PSD_TOL or non-finite it raises
    IntegrityError, and round-off below 0 counts as a double eigenvalue.
    """
    t = rho[..., 0, 0].real + rho[..., 1, 1].real
    disc = 2.0 * np.sum(np.abs(rho) ** 2, axis=(-1, -2)) - t * t
    bad = ~(np.isfinite(disc) & (disc >= -PSD_TOL))
    if bad.any():
        raise IntegrityError(
            f"2x2 block discriminant {disc[bad].flat[0]!r} below -{PSD_TOL} or not finite")
    root = np.sqrt(np.maximum(disc, 0.0))
    return np.stack([t - root, t + root], axis=-1) / 2.0


def block_purity_batch(amplitudes: np.ndarray, n_qubits: int, qs) -> np.ndarray:
    """tr(rho_q^2) of the q-qubit blocks of a batch of states, for every q in qs.

    The purities go on a new last axis, in the order of qs.  Each q folds to
    s = min(q, N-q), which has the same purity, and every s comes from one
    walk down from the largest (_walk_down).  A purity outside
    [1/(s+1), 1] by more than PSD_TOL raises IntegrityError.
    """
    folded = _folded_sizes(n_qubits, qs)
    purity = {s: np.sum(np.abs(rho) ** 2, axis=(-1, -2))
              for s, rho in _walk_down(amplitudes, n_qubits, folded)}
    out = np.stack([purity[s] for s in folded.tolist()], axis=-1)
    worst = np.max(np.maximum(1.0 / (folded + 1) - out, out - 1.0))
    if not worst <= PSD_TOL:
        raise IntegrityError(f"block purity leaves [1/(s+1), 1] by {worst!r} > {PSD_TOL}")
    return out


def block_entropies_batch(amplitudes: np.ndarray, n_qubits: int, sizes,
                          kind: EntropyKind) -> dict:
    """Entropies of several block sizes for a batch of states at once.

    Returns {q: entropies} for every distinct q in sizes.  Von Neumann and
    Renyi spectra come from one _walk_down: closed form at s = 1
    (_qubit_spectrum), core.hermitian_eigenvalues at s >= 2, and exactly 0
    at q in {0, N}.
    """
    qs = set(sizes)
    folded = _folded_sizes(n_qubits, qs)
    if kind.tag == "linear":
        # Linear entropies keep one gather, Gram and eigensolve per size:
        # perfbench/test_perfbench.py::test_traced_op_counts_and_self_times pins
        # a linear (1,1,1) op to 3 gathers and 3*64 eigensolves, and only a
        # change to the benchmark may edit perfbench/.  ROADMAP item 3 retires
        # this branch, after item 1's re-pin or item 2's tracer switch.
        return {q: entropy_from_eigenvalues(block_spectra_batch(amplitudes, n_qubits, q), kind)
                for q in qs}
    entropies = {}
    for s, rho in _walk_down(amplitudes, n_qubits, folded):
        lam = (np.ones(rho.shape[:-1]) if s == 0 else
               _qubit_spectrum(rho) if s == 1 else hermitian_eigenvalues(rho))
        entropies[s] = entropy_from_eigenvalues(lam, kind)
    return {q: entropies[s] for q, s in zip(qs, folded.tolist())}


def _check_blocks(n_qubits: int, sizes) -> None:
    if any(q < 1 for q in sizes):
        raise DomainError(f"block sizes {sizes} must all be >= 1")
    if sum(sizes) > n_qubits:
        raise DomainError(f"blocks {sizes} exceed the {n_qubits}-qubit system")


def mutual_information(state: PSState, q_a: int, q_b: int,
                       kind: EntropyKind = VON_NEUMANN) -> float:
    """I2(A:B) = S(A) + S(B) - S(AB) between blocks of q_a and q_b qubits."""
    _check_blocks(state.n_qubits, (q_a, q_b))
    s = block_entropies_batch(state.amplitudes, state.n_qubits,
                              (q_a, q_b, q_a + q_b), kind)
    return float(s[q_a] + s[q_b] - s[q_a + q_b])


def tmi_blocks(a, b, c) -> tuple:
    """Blocks A, B, C, AB, AC, BC, ABC of the TMI, from sizes or qubit lists a, b, c."""
    return (a, b, c, a + b, a + c, b + c, a + b + c)


def tmi_sum(entropies):
    """S_A + S_B + S_C - S_AB - S_AC - S_BC + S_ABC of entropies in tmi_blocks order."""
    s_a, s_b, s_c, s_ab, s_ac, s_bc, s_abc = entropies
    return s_a + s_b + s_c - s_ab - s_ac - s_bc + s_abc


def tmi(state: PSState, q1: int, q2: int, q3: int,
        kind: EntropyKind = VON_NEUMANN) -> float:
    """Tripartite mutual information I3 between blocks of q1, q2, q3 qubits.

    Evaluated as the seven-term entropy expansion; positive values mean
    redundant bipartite sharing, negative values multipartite sharing.
    """
    return float(tmi_batch(state.amplitudes, state.n_qubits, (q1, q2, q3), kind))


def tmi_batch(amplitudes: np.ndarray, n_qubits: int, sizes, kind: EntropyKind):
    """I3 for a batch of amplitude vectors (shape (..., N+1) -> (...))."""
    _check_blocks(n_qubits, sizes)
    blocks = tmi_blocks(*sizes)
    s = block_entropies_batch(amplitudes, n_qubits, blocks, kind)
    return tmi_sum([s[q] for q in blocks])
