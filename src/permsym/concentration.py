"""Concentration of measure on the PS amplitude sphere.

Block entropies and TMI are Lipschitz functions of the state vector, so
the spherical concentration inequality

    P(|f - E[f]| >= eps) <= 2 exp(-n eps^2 / (9 pi^3 ln(2) eta^2))

bounds their tails, with n the real dimension of the ambient space
(n = 2(N+1) for the complex amplitude sphere) and eta the Lipschitz
constant.  The bounds are loose; the empirical checks here are sanity
floors plus the positive-TMI fraction claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import _map_index_chunks, ps_amplitude_batch
from .errors import DomainError
from .measures import (LINEAR, VON_NEUMANN, EntropyKind, block_spectra_batch,
                       entropy_from_eigenvalues, tmi_batch, tmi_blocks)


def lipschitz_bound_linear() -> float:
    """Lipschitz constant bound of the linear entropy of any block: 4."""
    return 4.0


def lipschitz_bound_vn(block_qubits: int) -> float:
    """Lipschitz constant bound sqrt(8) log2(d_Y + 1) of the von Neumann
    entropy of a block of d_Y >= 2 qubits."""
    if block_qubits < 2:
        raise DomainError("von Neumann bound requires blocks of >= 2 qubits")
    return math.sqrt(8.0) * math.log2(block_qubits + 1)


def lipschitz_bound_tmi(q1: int, q2: int, q3: int, kind: EntropyKind) -> float:
    """Seven-term Lipschitz budget of the TMI (sum over its block entropies)."""
    if kind.tag == "linear":
        return 7.0 * lipschitz_bound_linear()
    if kind.tag == "von_neumann":
        return sum(lipschitz_bound_vn(q) for q in tmi_blocks(q1, q2, q3))
    raise DomainError(f"no Lipschitz bound for entropy kind {kind.tag!r}")


def levy_bound(n_real_dim: int, epsilon: float, eta: float) -> float:
    """Spherical concentration tail bound 2 exp(-n eps^2/(9 pi^3 ln2 eta^2)).

    Monotone decreasing in epsilon and n, increasing in eta.
    """
    if n_real_dim < 2:
        raise DomainError(f"real dimension {n_real_dim} must be >= 2")
    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    if eta <= 0:
        raise DomainError("Lipschitz constant eta must be positive")
    return 2.0 * math.exp(-n_real_dim * epsilon ** 2
                          / (9.0 * math.pi ** 3 * math.log(2.0) * eta ** 2))


@dataclass(frozen=True)
class ConcentrationRow:
    epsilon: float
    empirical_tail: float
    bound: float
    stderr: float


def _functional_sampler(n_qubits: int, functional):
    """Return (value of a batch of amplitude vectors, Lipschitz eta).

    functional is one of ("vn", q), ("linear", q) or ("tmi", (q1, q2, q3), kind).
    """
    tag = functional[0]
    if tag in ("vn", "linear"):
        q = functional[1]
        kind = VON_NEUMANN if tag == "vn" else LINEAR
        eta = lipschitz_bound_vn(q) if tag == "vn" else lipschitz_bound_linear()
        return (lambda amps: entropy_from_eigenvalues(
            block_spectra_batch(amps, n_qubits, q), kind)), eta
    if tag == "tmi":
        sizes, kind = functional[1], functional[2]
        return (lambda amps: tmi_batch(amps, n_qubits, sizes, kind),
                lipschitz_bound_tmi(*sizes, kind))
    raise DomainError(f"unknown functional {functional!r}")


def functional_samples(n_qubits: int, functional, samples: int, seed: int,
                       chunk: int = 2048, threads: int = 1) -> np.ndarray:
    """Per-sample values of the functional over random PS states."""
    value, _ = _functional_sampler(n_qubits, functional)
    return _map_index_chunks(samples, chunk, threads, lambda start, count: value(
        ps_amplitude_batch(n_qubits, seed, count, start)))


def empirical_concentration(n_qubits: int, functional, samples: int,
                            epsilons, seed: int, chunk: int = 2048,
                            threads: int = 1) -> list:
    """Empirical tails P(|f - mean| >= eps) against the spherical bound.

    The reference is the same-run sample mean (an unbiased estimate of
    E[f]); the bound uses n = 2(N+1) real dimensions.  Returns one row
    per epsilon with a binomial standard error on the tail estimate.
    """
    if samples < 1000:
        raise DomainError("tail estimation needs at least 10^3 samples")
    _, eta = _functional_sampler(n_qubits, functional)
    values = functional_samples(n_qubits, functional, samples, seed, chunk, threads)
    dev = np.abs(values - values.mean())
    n_real = 2 * (n_qubits + 1)
    rows = []
    for eps in epsilons:
        tail = float(np.mean(dev >= eps))
        stderr = math.sqrt(max(tail * (1.0 - tail), 1.0 / samples) / samples)
        rows.append(ConcentrationRow(float(eps), tail,
                                     levy_bound(n_real, float(eps), eta), stderr))
    return rows
