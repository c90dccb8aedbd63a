import math

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsym.core import PSState, coherent_state, embed_to_full
from permsym.errors import DomainError, IntegrityError
from permsym.measures import (LINEAR, VON_NEUMANN, block_purity_batch,
                              block_spectra_batch, entropy,
                              entropy_from_eigenvalues, mutual_information,
                              renyi, tmi, tmi_batch)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
KINDS = st.sampled_from([VON_NEUMANN, LINEAR, renyi(2.0)])


def random_amplitudes(n, seed, count=3):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n + 1)) + 1j * rng.standard_normal((count, n + 1))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@st.composite
def states_and_block(draw, lo=0):
    """(N, seed, q) with 3 <= N <= 24 and lo <= q <= N - lo."""
    n = draw(st.integers(3, 24))
    return n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(lo, n - lo))


@st.composite
def states_and_blocks(draw):
    """(N, seed, (q1, q2, q3)) with q1 + q2 + q3 <= N."""
    n = draw(st.integers(3, 24))
    q1 = draw(st.integers(1, n - 2))
    q2 = draw(st.integers(1, n - q1 - 1))
    q3 = draw(st.integers(1, n - q1 - q2))
    return n, draw(st.integers(0, 2 ** 32 - 1)), (q1, q2, q3)


def random_ps_state(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return PSState(z / np.linalg.norm(z))


def ghz_state(n):
    amps = np.zeros(n + 1)
    amps[0] = amps[n] = 1 / math.sqrt(2)
    return PSState(amps)


def full_space_block_entropy(state, qubits, kind):
    """Brute-force oracle: entropy of a computational-basis qubit subset."""
    n = state.n_qubits
    psi = embed_to_full(state).reshape((2,) * n)
    rest = [ax for ax in range(n) if ax not in qubits]
    mat = np.transpose(psi, list(qubits) + rest).reshape(2 ** len(qubits), -1)
    lam = np.linalg.eigvalsh(mat @ mat.conj().T)
    return float(entropy_from_eigenvalues(lam, kind))


class TestEntropy:
    def test_maximally_mixed(self):
        rho = np.eye(4) / 4.0
        assert entropy(rho, VON_NEUMANN) == pytest.approx(2.0)
        assert entropy(rho, LINEAR) == pytest.approx(0.75)

    def test_two_equal_weights(self):
        rho = np.diag([0.5, 0.0, 0.5]) + 0j
        assert entropy(rho, VON_NEUMANN) == pytest.approx(1.0)

    def test_pure_state_zero(self):
        rho = np.diag([1.0, 0.0, 0.0]) + 0j
        for kind in (VON_NEUMANN, LINEAR, renyi(2.0), renyi(0.5)):
            assert entropy(rho, kind) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_maximally_mixed(self):
        rho = np.eye(8) / 8.0
        assert entropy(rho, renyi(2.0)) == pytest.approx(3.0)

    def test_renyi_order_limit(self):
        state = random_ps_state(10, seed=1)
        from permsym.core import reduced_density_matrix
        rho = reduced_density_matrix(state, 4)
        vn = entropy(rho, VON_NEUMANN)
        for alpha in (1.0 + 1e-4, 1.0 - 1e-4):
            assert abs(entropy(rho, renyi(alpha)) - vn) <= 1e-3

    def test_renyi_validation(self):
        with pytest.raises(DomainError):
            renyi(1.0)
        with pytest.raises(DomainError):
            renyi(-0.5)

    def test_integrity_checks(self):
        with pytest.raises(IntegrityError):
            entropy(np.diag([1.5, -0.5]) + 0j, VON_NEUMANN)
        with pytest.raises(IntegrityError):
            entropy(np.array([[0.5, 0.3], [0.1, 0.5]]), VON_NEUMANN)
        with pytest.raises(IntegrityError):
            entropy(np.eye(2), VON_NEUMANN)  # trace 2

    def test_bounds(self):
        state = random_ps_state(9, seed=2)
        from permsym.core import block_eigenvalues
        for q in range(1, 9):
            lam = block_eigenvalues(state, q)
            vn = entropy_from_eigenvalues(lam, VON_NEUMANN)
            lin = entropy_from_eigenvalues(lam, LINEAR)
            assert -1e-12 <= vn <= math.log2(q + 1) + 1e-9
            assert -1e-12 <= lin <= 1.0 - 1.0 / (q + 1) + 1e-9


class TestMutualInformation:
    def test_coherent_state_uncorrelated(self):
        state = coherent_state(5, 1.2, 2.7)
        for qa, qb in [(1, 1), (2, 3), (4, 5)]:
            assert abs(mutual_information(state, qa, qb, VON_NEUMANN)) < 1e-10

    def test_ghz_one_bit(self):
        state = ghz_state(8)
        assert mutual_information(state, 1, 1, VON_NEUMANN) == pytest.approx(1.0)

    def test_ghz_brute_force(self):
        state = ghz_state(6)
        want = (full_space_block_entropy(state, [0], VON_NEUMANN)
                + full_space_block_entropy(state, [1], VON_NEUMANN)
                - full_space_block_entropy(state, [0, 1], VON_NEUMANN))
        assert mutual_information(state, 1, 1, VON_NEUMANN) == pytest.approx(want, abs=1e-10)

    def test_nonnegative(self):
        for seed in range(4):
            state = random_ps_state(10, seed=seed)
            assert mutual_information(state, 2, 3, VON_NEUMANN) >= -1e-9

    def test_size_overflow(self):
        state = random_ps_state(5, seed=3)
        with pytest.raises(DomainError):
            mutual_information(state, 3, 3, VON_NEUMANN)


class TestTmi:
    def test_coherent_state_zero(self):
        state = coherent_state(4, 0.9, 0.4)
        assert abs(tmi(state, 1, 2, 2, VON_NEUMANN)) < 1e-10
        assert abs(tmi(state, 1, 1, 1, LINEAR)) < 1e-10

    def test_ghz_plus_one_bit(self):
        # every block spectrum is {1/2, 1/2}: 1+1+1-1-1-1+1
        state = ghz_state(7)
        assert tmi(state, 1, 1, 1, VON_NEUMANN) == pytest.approx(1.0)

    def test_ghz_brute_force_n6(self):
        state = ghz_state(6)
        s = {key: full_space_block_entropy(state, q, VON_NEUMANN)
             for key, q in [("a", [0]), ("b", [1]), ("c", [2]),
                            ("ab", [0, 1]), ("ac", [0, 2]), ("bc", [1, 2]),
                            ("abc", [0, 1, 2])]}
        want = (s["a"] + s["b"] + s["c"] - s["ab"] - s["ac"] - s["bc"] + s["abc"])
        assert tmi(state, 1, 1, 1, VON_NEUMANN) == pytest.approx(want, abs=1e-10)

    def test_random_state_brute_force(self):
        state = random_ps_state(7, seed=11)
        s = {key: full_space_block_entropy(state, q, VON_NEUMANN)
             for key, q in [("a", [0]), ("b", [1, 2]), ("c", [3, 4]),
                            ("ab", [0, 1, 2]), ("ac", [0, 3, 4]),
                            ("bc", [1, 2, 3, 4]), ("abc", [0, 1, 2, 3, 4])]}
        want = (s["a"] + s["b"] + s["c"] - s["ab"] - s["ac"] - s["bc"] + s["abc"])
        assert tmi(state, 1, 2, 2, VON_NEUMANN) == pytest.approx(want, abs=1e-9)

    def test_block_permutation_symmetry(self):
        state = random_ps_state(11, seed=4)
        values = {tmi(state, *perm, VON_NEUMANN)
                  for perm in [(1, 2, 3), (3, 1, 2), (2, 3, 1), (3, 2, 1)]}
        assert max(values) - min(values) < 1e-9

    def test_size_overflow(self):
        state = random_ps_state(6, seed=5)
        with pytest.raises(DomainError):
            tmi(state, 3, 3, 3, VON_NEUMANN)

    def test_pure_state_block_symmetry(self):
        # S(rho_Q) = S(rho_{N-Q}) for every kind
        state = random_ps_state(9, seed=6)
        from permsym.measures import block_entropy
        for kind in (VON_NEUMANN, LINEAR, renyi(2.0)):
            for q in (2, 4):
                assert block_entropy(state, q, kind) == pytest.approx(
                    block_entropy(state, 9 - q, kind), abs=1e-9)


class TestKernelProperties:
    @PROPERTY
    @given(states_and_blocks(), KINDS)
    def test_tmi_invariant_under_block_permutations(self, case, kind):
        n, seed, sizes = case
        amps = random_amplitudes(n, seed)
        values = [tmi_batch(amps, n, perm, kind) for perm in itertools.permutations(sizes)]
        for other in values[1:]:
            np.testing.assert_allclose(other, values[0], rtol=0, atol=1e-12)

    @PROPERTY
    @given(states_and_block())
    def test_complementary_blocks_share_spectrum(self, case):
        n, seed, q = case
        amps = random_amplitudes(n, seed)
        lam = block_spectra_batch(amps, n, q)
        assert lam.shape == (3, min(q, n - q) + 1)  # solved on the smaller side
        np.testing.assert_allclose(lam, block_spectra_batch(amps, n, n - q), rtol=0, atol=1e-12)

    @PROPERTY
    @given(states_and_block(lo=1))
    def test_frobenius_purity_matches_spectrum(self, case):
        n, seed, q = case
        amps = random_amplitudes(n, seed)
        lam = block_spectra_batch(amps, n, q)
        np.testing.assert_allclose(block_purity_batch(amps, n, q),
                                   np.sum(lam ** 2, axis=-1), rtol=0, atol=1e-12)
