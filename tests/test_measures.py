import math

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsym.core import PSState, coherent_state, embed_to_full, smaller_gram
from permsym.errors import DomainError, IntegrityError
from permsym.measures import (LINEAR, VON_NEUMANN, _qubit_spectrum, block_entropies_batch,
                              block_purity_batch, block_spectra_batch, entropy,
                              entropy_from_eigenvalues, mutual_information,
                              renyi, tmi, tmi_batch, tmi_blocks)

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


def per_size_purities(amplitudes, n_qubits, qs):
    """Oracle for the purity sweep: one gather and Gram per block size."""
    return np.stack([np.sum(np.abs(smaller_gram(amplitudes, n_qubits, q)) ** 2, axis=(-1, -2))
                     for q in qs], axis=-1)


def per_size_entropies(amplitudes, n_qubits, qs, kind):
    """Oracle for the entropy walk: one gather, Gram and eigvalsh per block size."""
    return {q: entropy_from_eigenvalues(block_spectra_batch(amplitudes, n_qubits, q), kind)
            for q in set(qs)}


def entropy_size_sets(n):
    """Every size, the ends 0 and N, sizes past N/2 and a sparse TMI set."""
    sets = [range(n + 1), (0, n), [q for q in range(n + 1) if 2 * q > n]]
    if n >= 3:
        sets.append(tmi_blocks(1, 1, max(1, n // 5)))  # (1, 1, 8) at N = 40
    return sets


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
        np.testing.assert_allclose(block_purity_batch(amps, n, (q,))[..., 0],
                                   np.sum(lam ** 2, axis=-1), rtol=0, atol=1e-12)


class TestPuritySweep:
    @pytest.mark.parametrize("n", [2, 3, 12, 20, 21, 40, 101])
    def test_matches_per_size_oracle(self, n):
        amps = random_amplitudes(n, seed=n, count=8)
        shuffled = list(np.random.default_rng(n).permutation(n + 1))
        for qs in (shuffled, shuffled[::-1] + shuffled[: n // 2 + 1]):
            got = block_purity_batch(amps, n, qs)
            want = per_size_purities(amps, n, qs)
            assert got.shape == (8, len(qs))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            top = [i for i, q in enumerate(qs) if min(q, n - q) == n // 2]
            np.testing.assert_array_equal(got[:, top], want[:, top])
            np.testing.assert_allclose(block_purity_batch(amps[0], n, qs), got[0],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [2.0, 0.5, math.nan])
    def test_unnormalised_amplitudes_fail_health_check(self, scale):
        amps = scale * random_amplitudes(12, seed=2)
        with pytest.raises(IntegrityError):
            block_purity_batch(amps, 12, (1, 5))

    @pytest.mark.parametrize("qs", [(), (-1,), (13,), (2, 14), (1, 2, -1), (0, 13, 12)])
    def test_block_sizes_outside_the_system(self, qs):
        amps = random_amplitudes(12, seed=3)
        with pytest.raises(DomainError):
            block_purity_batch(amps, 12, qs)
        for kind in (VON_NEUMANN, LINEAR, renyi(0.5), renyi(2.0)):
            with pytest.raises(DomainError, match=r"\[0, 12\]"):
                block_entropies_batch(amps, 12, qs, kind)


class TestEntropyWalk:
    @pytest.mark.parametrize("scale", [1.0 - 1e-10, 1.0, 1.0 + 1e-10])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 40, 101])
    def test_matches_per_size_oracle(self, n, scale):
        amps = scale * random_amplitudes(n, seed=n, count=8)
        for qs in entropy_size_sets(n):
            for kind in (VON_NEUMANN, renyi(0.5), renyi(2.0)):
                got = block_entropies_batch(amps, n, qs, kind)
                want = per_size_entropies(amps, n, qs, kind)
                assert got.keys() == want.keys()
                for q in want:
                    assert got[q].shape == (8,)
                    np.testing.assert_allclose(got[q], want[q], rtol=0, atol=1e-12)
                    if q in (0, n):
                        assert got[q].tobytes() == want[q].tobytes()
                single = block_entropies_batch(amps[0], n, qs, kind)
                for q in want:
                    np.testing.assert_allclose(single[q], want[q][0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 40, 101])
    def test_linear_keeps_the_per_size_kernel_bytes(self, n):
        amps = random_amplitudes(n, seed=n, count=8)
        for qs in entropy_size_sets(n):
            got = block_entropies_batch(amps, n, qs, LINEAR)
            want = per_size_entropies(amps, n, qs, LINEAR)
            assert got.keys() == want.keys()
            assert all(got[q].tobytes() == want[q].tobytes() for q in want)

    def test_closed_form_qubit_spectrum(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((64, 2, 3)) + 1j * rng.standard_normal((64, 2, 3))
        rho = z @ np.conj(np.swapaxes(z, -1, -2))  # PSD, trace away from 1
        rho = np.concatenate([rho, np.eye(2)[None] / 2, np.diag([1.0, 0.0])[None] + 0j])
        np.testing.assert_allclose(_qubit_spectrum(rho), np.linalg.eigvalsh(rho),
                                   rtol=0, atol=1e-12 * np.abs(rho).max())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_corrupted_batch_fails_the_qubit_health_check(self, bad):
        amps = random_amplitudes(12, seed=5, count=4)
        amps[2, 3] = bad
        for kind in (VON_NEUMANN, renyi(2.0)):
            with pytest.raises(IntegrityError, match="discriminant"), np.errstate(invalid="ignore"):
                block_entropies_batch(amps, 12, (1, 11), kind)
        rho = np.stack([np.eye(2) / 2] * 3).astype(complex)
        rho[1, 0, 1] = bad
        with pytest.raises(IntegrityError, match="discriminant"):
            _qubit_spectrum(rho)
