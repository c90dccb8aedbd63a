"""Random PS and Wishart ensembles: samplers, spectra, analytic averages.

Random PS states draw their Dicke amplitudes uniformly (Haar) from the
unit sphere in C^(N+1): independent standard complex Gaussians divided by
their norm.  Reduced matrices A A^dagger of such states form the positive
random-matrix ensemble studied here; trace-normalized Wishart matrices
G G^dagger / tr(G G^dagger) are the comparison ensemble of unrestricted
random states.  Such a matrix is the reduced state of a Haar vector on
C^N1 (x) C^N2 (Zyczkowski & Sommers, J. Phys. A 34, 7111 (2001)), so every
ensemble here is drawn as rows of the one sampler ps_amplitude_batch.

Reproducibility: every Monte Carlo sample i of a run with seed s is drawn
from its own counter-based Philox stream keyed by (s, i).  Pooled results
are therefore bit-identical no matter how the index range is sharded
across workers.  Each chunk of indices builds one generator and re-keys
it per sample, which gives the same bits as a fresh stream per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PSState, _block_coefficients, _block_rows, _check_count, _gram,
                   cut_spectrum, hermitian_eigenvalues, log_binomial)
from .errors import DomainError
from .measures import (VON_NEUMANN, EntropyKind, _check_blocks, _folded_sizes,
                       block_entropies_batch, block_purity_batch,
                       entropy_from_eigenvalues, tmi_batch, tmi_blocks, tmi_sum)

LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# seeded streams and samplers
# ---------------------------------------------------------------------------

def stream(seed: int, index: int = 0,
           rng: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based generator for sample `index` of a run seeded by `seed`.

    Philox keyed by the 128-bit pair (seed, index): distinct indices give
    independent streams, so sharding a sample range over workers cannot
    change any drawn value.  The whole Philox state of `rng` is reset to
    that key (counter 0, empty buffers) and `rng` is returned, so a chunk
    re-keys one generator per sample; with no `rng` one is built first.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(seed) & _MASK64, int(index))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _haar_rows(normals: np.ndarray) -> np.ndarray:
    """Haar-random unit rows (..., d) of C^d, in place, from normals (..., 2d) as (re, im)."""
    rows = normals.view(complex)
    # re.re + im.im per row is np.linalg.norm's own sum, so the bytes match a
    # row normalised on its own (einsum sums in another order)
    re, im = rows.real, rows.imag
    rows /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]
    return rows


def sample_ps_state(n_qubits: int, rng: np.random.Generator) -> PSState:
    """One random PS state: Haar-uniform Dicke amplitudes in C^(N+1)."""
    if n_qubits < 1:
        raise DomainError(f"n_qubits={n_qubits} must be >= 1")
    return PSState(_haar_rows(rng.standard_normal(2 * (n_qubits + 1))))


def sample_wishart_rdm(n1: int, n2: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-normalized Wishart density matrix G G^dagger / tr, size n1 x n1: the
    Gram of one Haar row reshaped to n1 x n2 (ensemble_eigenvalues' draw)."""
    if n1 < 1 or n2 < 1:
        raise DomainError(f"Wishart dimensions ({n1}, {n2}) must be >= 1")
    return _gram(_haar_rows(rng.standard_normal(2 * n1 * n2)).reshape(n1, n2))


def ps_amplitude_batch(n_qubits: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Rows i = start..start+count-1 of the PS sample sequence for `seed`.

    Each row is Haar-random in C^(N+1): a Haar state in C^d is a PS sample of d-1 qubits.
    One generator serves the batch, re-keyed by `stream` for every row.
    """
    normals = np.empty((count, 2 * (n_qubits + 1)))
    rng = None
    for i, row in enumerate(normals):
        rng = stream(seed, start + i, rng)
        rng.standard_normal(out=row)
    return _haar_rows(normals)


def _map_index_chunks(total: int, chunk: int, threads: int, worker):
    """Run worker(start, count) over the index range and concatenate in order."""
    if total < 1:
        raise DomainError(f"sample count {total} must be >= 1")
    _check_count("threads", threads)
    ranges = [(s, min(chunk, total - s)) for s in range(0, total, chunk)]
    if threads > 1 and len(ranges) > 1:
        from concurrent.futures import ThreadPoolExecutor  # not at import: start-up time
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda rc: worker(*rc), ranges))
    else:
        parts = [worker(s, c) for s, c in ranges]
    return np.concatenate(parts, axis=0)


def _mc_samples(n_qubits: int, samples: int, seed: int, value, threads: int,
                rows: int) -> np.ndarray:
    """value(batch of amplitude vectors) over PS samples 0..samples-1 of `seed`, in
    blocks of `rows` samples: core._block_rows of the largest matrix value forms."""
    return _map_index_chunks(samples, rows, threads, lambda start, count: value(
        ps_amplitude_batch(n_qubits, seed, count, start)))


def _gram_rows(r: int, c: int) -> int:
    """Block rows for r x c cuts of each row, whose Grams are no larger: 1 MiB // (16 r c)."""
    return _block_rows(r + c - 2, r - 1)


# ---------------------------------------------------------------------------
# spectra and histograms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleSpec:
    """PS(N, Q) or Wishart(N1, N2) sampling request."""

    kind: str            # "ps" | "wishart"
    dims: tuple          # (N, Q) for ps; (N1, N2) for wishart
    sample_count: int
    seed: int

    def __post_init__(self):
        a, b = self.dims
        if self.kind == "ps":
            if not (1 <= b <= a - 1):
                raise DomainError(f"PS ensemble needs 1 <= Q <= N-1, got N={a}, Q={b}")
        elif self.kind == "wishart":
            if a < 1 or b < 1:
                raise DomainError(f"Wishart needs N1, N2 >= 1, got {self.dims}")
        else:
            raise DomainError(f"unknown ensemble kind {self.kind!r}")
        if self.sample_count < 1:
            raise DomainError("sample_count must be positive")

    @property
    def scale(self) -> float:
        """Eigenvalue scale factor: subsystem dimension."""
        return float(self.dims[1] + 1 if self.kind == "ps" else self.dims[0])


@dataclass(frozen=True)
class SpectralHistogram:
    """Unit-area histogram of scaled eigenvalues x = lambda * (subsystem dim)."""

    bin_edges: np.ndarray
    densities: np.ndarray
    sample_count: int


def ensemble_eigenvalues(spec: EnsembleSpec, threads: int = 1) -> np.ndarray:
    """Pooled unscaled eigenvalues of all sampled reduced density matrices.

    Each sample is an r x c cut of a Haar row, the (Q+1) x (N-Q+1) coefficient matrix
    of PS(N, Q) or the N1 x N2 reshape of Wishart(N1, N2) (sample_wishart_rdm), and
    gives its r eigenvalues by core.cut_spectrum, in blocks of _gram_rows(r, c).
    """
    a, b = spec.dims
    ps = spec.kind == "ps"
    r, c = (b + 1, a - b + 1) if ps else (a, b)
    return _mc_samples(a if ps else r * c - 1, spec.sample_count, spec.seed,
                       lambda rows: cut_spectrum(_block_coefficients(rows, a, b) if ps
                                                 else rows.reshape(-1, r, c)),
                       threads, _gram_rows(r, c)).ravel()


def spectral_histogram(spec: EnsembleSpec, bins: int = 250, threads: int = 1) -> SpectralHistogram:
    """Histogram of eigenvalues scaled by the subsystem dimension, area 1."""
    if bins < 10:
        raise DomainError(f"bins={bins} must be >= 10")
    scaled = ensemble_eigenvalues(spec, threads=threads) * spec.scale
    densities, edges = np.histogram(scaled, bins=bins, density=True)
    return SpectralHistogram(edges, densities, spec.sample_count)


def marchenko_pastur_density(x):
    """Limiting density (1/2pi) sqrt((4-x)/x) of square trace-normalized
    Wishart eigenvalues after scaling by the subsystem dimension."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 4.0)
    out = np.zeros_like(x)
    xv = x[inside]
    out[inside] = np.sqrt((4.0 - xv) / xv) / (2.0 * np.pi)
    return out if out.ndim else float(out)


def exponential_tail_slope(hist: SpectralHistogram, mass: float = 0.10) -> float:
    """Straight-line slope of log density over the occupied bins holding the
    top `mass` fraction of eigenvalues (default: the top decile).

    Negative values indicate an exponentially decaying tail.  The window
    is taken by probability mass rather than bin index so the fit is not
    dominated by shot noise in the last few nearly empty bins.
    """
    widths = np.diff(hist.bin_edges)
    cumulative = np.cumsum(hist.densities * widths)
    start = int(np.searchsorted(cumulative, 1.0 - mass))
    occupied = np.nonzero(hist.densities > 0)[0]
    top = occupied[occupied >= start]
    if top.size < 3:
        raise DomainError("tail window holds fewer than 3 occupied bins")
    centers = 0.5 * (hist.bin_edges[top] + hist.bin_edges[top + 1])
    slope = np.polyfit(centers, np.log(hist.densities[top]), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# closed-form ensemble averages
# ---------------------------------------------------------------------------

def _check_ps_block(n: int, q: int) -> None:
    if not (1 <= q <= n - 1):
        raise DomainError(f"need 1 <= Q <= N-1, got N={n}, Q={q}")


def avg_purity_ps(n: int, q: int) -> float:
    """Average tr(rho_Q^2) over random PS states: (N+1)/((Q+1)(N-Q+1))."""
    _check_ps_block(n, q)
    return (n + 1) / ((q + 1) * (n - q + 1))


def avg_linear_entropy_ps(n: int, q: int) -> float:
    """Average linear entropy Q(N-Q)/((Q+1)(N-Q+1)); symmetric in Q <-> N-Q."""
    _check_ps_block(n, q)
    return q * (n - q) / ((q + 1) * (n - q + 1))


def avg_linear_entropy_wishart(n: int, q: int, flavor: str = "qubits") -> float:
    """Average linear entropy of a Q-qubit block of unrestricted random states.

    flavor="qubits": subsystem dimension 2^Q inside 2^N.
    flavor="dims":   subsystem dimension Q+1 inside (Q+1)(N-Q+1) — the
    Wishart ensemble dimension-matched to PS blocks (always slightly
    below the PS average).
    """
    _check_ps_block(n, q)
    if flavor == "qubits":
        return (2 ** q - 1) * (2 ** (n - q) - 1) / (2 ** n + 1)
    if flavor == "dims":
        return q * (n - q) / (1 + (q + 1) * (n - q + 1))
    raise DomainError(f"flavor must be 'qubits' or 'dims', got {flavor!r}")


def avg_vn_entropy_ps(n: int, q: int, alpha: float = 2.0 / 3.0,
                      half_correction: bool = False) -> float:
    """Fitted-form average block von Neumann entropy of random PS states.

    log2(Q+1) - alpha (Q+1)/(N-Q+1) bits, valid for 1 <= Q <= N/2 at
    large N; alpha defaults to 2/3.  With half_correction=True an extra
    -1/(N+1) is subtracted, applicable only at Q = N/2 (the correction is
    not extrapolated to other block sizes).
    """
    if not (1 <= q <= n / 2):
        raise DomainError(f"need 1 <= Q <= N/2, got N={n}, Q={q}")
    value = math.log2(q + 1) - alpha * (q + 1) / (n - q + 1)
    if half_correction:
        if 2 * q != n:
            raise DomainError("the -1/(N+1) correction applies only at Q = N/2")
        value -= 1.0 / (n + 1)
    return value


def page_entropy(m: int, n: int) -> float:
    """Page average entanglement entropy log2(m) - m/(2n ln 2) bits, m <= n."""
    if not (1 <= m <= n):
        raise DomainError(f"need 1 <= m <= n, got ({m}, {n})")
    return math.log2(m) - m / (2.0 * n * LN2)


def avg_tmi_vn_ps(q: int) -> float:
    """Large-N estimate of the PS-ensemble vN TMI between three Q-qubit
    blocks: log2[(3Q+1)(Q+1)^3/(2Q+1)^3], positive for every Q >= 1."""
    if q < 1:
        raise DomainError("Q must be >= 1")
    return math.log2((3 * q + 1) * (q + 1) ** 3 / (2 * q + 1) ** 3)


def avg_tmi_vn_wishart(q: int, n: int) -> float:
    """Page-based estimate of the unrestricted-ensemble vN TMI between
    three Q-qubit blocks: -2^(2Q-N-1) (2^(4Q) - 3 2^(2Q) + 3)/ln 2 < 0."""
    if q < 1 or 3 * q > n:
        raise DomainError(f"need 1 <= Q and 3Q <= N, got Q={q}, N={n}")
    return -(2.0 ** (2 * q - n - 1)) * (2.0 ** (4 * q) - 3.0 * 2.0 ** (2 * q) + 3.0) / LN2


def avg_tmi_vn_wishart_blocks(n: int, sizes) -> float:
    """Page-deviation estimate of the unrestricted-ensemble vN TMI for
    arbitrary block sizes (reduces to avg_tmi_vn_wishart when equal)."""
    _check_blocks(n, sizes)
    return tmi_sum([-(2.0 ** (2 * q - n - 1)) / LN2 for q in tmi_blocks(*sizes)])


def avg_tmi_linear_ps_111(n: int) -> float:
    """Exact PS-ensemble average of the linear-entropy TMI between three
    single qubits: (N-3)(N^2-N+4)/(4N(N-1)(N-2))."""
    if n < 3:
        raise DomainError("need at least 3 qubits")
    return (n - 3) * (n * n - n + 4) / (4.0 * n * (n - 1) * (n - 2))


def avg_tmi_linear_ps_mmm(m: int) -> float:
    """Large-N PS-ensemble average of the linear-entropy TMI between three
    m-qubit blocks: 6m^3/((m+1)(2m+1)(3m+1))."""
    if m < 1:
        raise DomainError("m must be >= 1")
    return 6.0 * m ** 3 / ((m + 1) * (2 * m + 1) * (3 * m + 1))


def comb_identity_residual(n: int, q: int) -> float:
    """Relative residual of the purity combinatorial identity.

    sum_{k,j,m} binom(Q,k) binom(Q,j) binom(N-Q,m)^2
                / (binom(N,k+m) binom(N,j+m))  ==  (N+1)^2 / (N-Q+1),
    evaluated in log-space floats after collapsing the (k, j) double sum
    into a square.
    """
    _check_ps_block(n, q)
    if n > 60:
        raise DomainError(f"identity check capped at N <= 60, got {n}")
    k = np.arange(q + 1)
    m = np.arange(n - q + 1)
    log_q = log_binomial(q, k)
    log_nq = log_binomial(n - q, m)
    log_n = log_binomial(n, np.add.outer(k, m))
    inner = np.exp(log_q[:, None] - log_n).sum(axis=0)
    total = float(np.exp(2.0 * log_nq) @ (inner ** 2))
    target = (n + 1) ** 2 / (n - q + 1)
    return abs(total - target) / target


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCResult:
    mean: float
    stderr: float
    count: int


def _summarize(values: np.ndarray) -> MCResult:
    values = np.asarray(values, dtype=float)
    n = values.size
    sd = values.std(ddof=1) if n > 1 else 0.0
    return MCResult(float(values.mean()), float(sd / math.sqrt(n)), n)


def mc_block_entropy_samples(n: int, q: int, kind: EntropyKind, samples: int,
                             seed: int, threads: int = 1) -> np.ndarray:
    """Per-sample block entropy over random PS states."""
    _check_ps_block(n, q)
    return _mc_samples(n, samples, seed,
                       lambda amps: block_entropies_batch(amps, n, (q,), kind)[q],
                       threads, _block_rows(n, min(q, n - q)))


def mc_tmi_samples(n: int, sizes, kind: EntropyKind, samples: int, seed: int,
                   threads: int = 1) -> np.ndarray:
    """Per-sample TMI over random PS states."""
    _check_blocks(n, sizes)
    return _mc_samples(n, samples, seed, lambda amps: tmi_batch(amps, n, sizes, kind),
                       threads, _block_rows(n, int(_folded_sizes(n, tmi_blocks(*sizes)).max())))


def mc_purity_sweep(n: int, samples: int, seed: int, qs=None, threads: int = 1) -> dict:
    """Per-Q purity statistics over one shared set of sampled states.

    Returns {q: MCResult}; all block sizes are evaluated on the same
    sample sequence, so a sweep costs one pass of sampling.
    """
    qs = list(qs) if qs is not None else list(range(1, n))
    for q in qs:
        _check_ps_block(n, q)
    values = _mc_samples(n, samples, seed, lambda amps: block_purity_batch(amps, n, qs),
                         threads, _block_rows(n, int(_folded_sizes(n, qs).max())))
    return {q: _summarize(values[:, col]) for col, q in enumerate(qs)}


def mc_block_entropy(n, q, kind, samples, seed, **kw) -> MCResult:
    return _summarize(mc_block_entropy_samples(n, q, kind, samples, seed, **kw))


# ---------------------------------------------------------------------------
# unrestricted (full Hilbert space) random states
# ---------------------------------------------------------------------------

def reduced_density_full(psi: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Reduced density matrices of computational-basis qubits `keep` of full
    2^N pure states psi (..., 2^N), qubit 0 = most significant index bit."""
    keep = sorted(keep)
    if any(not 0 <= q < n_qubits for q in keep):
        raise DomainError(f"qubit indices {keep} outside [0, {n_qubits})")
    tensor = psi.reshape(psi.shape[:-1] + (2,) * n_qubits)  # qubit q on axis q - N
    mat = np.moveaxis(tensor, [q - n_qubits for q in keep], range(-n_qubits, len(keep) - n_qubits))
    return _gram(mat.reshape(psi.shape[:-1] + (2 ** len(keep), -1)))


def tmi_full_state(psi: np.ndarray, n_qubits: int, sizes,
                   kind: EntropyKind = VON_NEUMANN):
    """TMI between the first q1, next q2, next q3 qubits of full 2^N states
    psi (..., 2^N) -> (...); one state is the one-row case, with its bytes."""
    q1, q2, q3 = sizes
    _check_blocks(n_qubits, sizes)
    qubits = list(range(n_qubits))
    a, b, c = qubits[:q1], qubits[q1:q1 + q2], qubits[q1 + q2:q1 + q2 + q3]
    # a block of more than half the qubits is reduced through its smaller complement
    sides = [x if 2 * len(x) <= n_qubits else sorted(set(qubits) - set(x))
             for x in tmi_blocks(a, b, c)]
    return tmi_sum([entropy_from_eigenvalues(
        hermitian_eigenvalues(reduced_density_full(psi, side, n_qubits)), kind)
        for side in sides])


def mc_tmi_full_samples(n_qubits: int, sizes, kind: EntropyKind, samples: int,
                        seed: int, threads: int = 1) -> np.ndarray:
    """Per-sample TMI of Haar-random full 2^N states (Wishart reductions), in
    blocks of _gram_rows(1, 2^N): every cut of a state holds its 2^N amplitudes."""
    _check_blocks(n_qubits, sizes)
    return _mc_samples(2 ** n_qubits - 1, samples, seed,
                       lambda psi: tmi_full_state(psi, n_qubits, sizes, kind),
                       threads, _gram_rows(1, 2 ** n_qubits))
