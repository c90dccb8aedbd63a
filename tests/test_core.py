import math
from fractions import Fraction

import numpy as np
import pytest

from permsym.core import (PSState, coefficient_matrix, coherent_amplitudes,
                          coherent_state, dicke_norm, dicke_vector,
                          embed_coeff, embed_coeff_table,
                          embed_coeff_table_direct, embed_to_full, load_state,
                          block_eigenvalues, reduced_density_matrix, save_state)
from permsym.errors import CapacityError, DomainError


def random_ps_state(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return PSState(z / np.linalg.norm(z))


def brute_force_reduced(state, q):
    """Partial trace of the embedded 2^N state over the last N-q qubits."""
    psi = embed_to_full(state)
    mat = psi.reshape(2 ** q, -1)
    return mat @ mat.conj().T


class TestDickeNorm:
    def test_worked_example(self):
        assert dicke_norm(4, 2) == pytest.approx(math.sqrt(6), rel=1e-14)

    def test_empty_binomial(self):
        assert dicke_norm(37, 0) == 1.0
        assert dicke_norm(37, 37) == 1.0

    def test_big_integer_oracle(self):
        # direct big-integer binomial, then square root
        exact = math.comb(50, 25)
        assert exact == 126410606437752
        assert dicke_norm(50, 25) == pytest.approx(math.sqrt(exact), rel=1e-13)

    def test_large_n_accuracy(self):
        for n, m in [(1000, 137), (5000, 100), (5000, 317)]:
            want = math.exp(0.5 * math.log(math.comb(n, m)))
            assert dicke_norm(n, m) == pytest.approx(want, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            dicke_norm(5, 6)
        with pytest.raises(DomainError):
            dicke_norm(5, -1)


class TestEmbedCoeff:
    def test_worked_example_entry(self):
        assert embed_coeff(4, 2, 1, 1) == pytest.approx(2 / math.sqrt(6), rel=1e-14)

    def test_trivial_corner(self):
        assert embed_coeff(9, 4, 0, 0) == 1.0

    def test_factorial_oracle(self):
        # exact rational from big-integer factorials
        want = Fraction(math.comb(5, 3) * math.comb(7, 4), math.comb(12, 7))
        assert embed_coeff(12, 5, 3, 4) == pytest.approx(math.sqrt(float(want)), rel=1e-12)

    def test_range_checks(self):
        with pytest.raises(DomainError):
            embed_coeff(4, 2, 3, 0)
        with pytest.raises(DomainError):
            embed_coeff(4, 2, 0, 3)
        with pytest.raises(DomainError):
            embed_coeff(4, 5, 0, 0)


class TestEmbedCoeffTable:
    def test_two_qubit_table(self):
        # direct evaluation of the weight definition
        want = np.array([[1.0, 1.0 / math.sqrt(2)], [1.0 / math.sqrt(2), 1.0]])
        np.testing.assert_allclose(embed_coeff_table(2, 1), want, rtol=1e-14)

    def test_matches_worked_matrix_weights(self):
        table = embed_coeff_table(4, 2)
        want = np.array([
            [1.0, math.sqrt(2) / 2, 1 / math.sqrt(6)],
            [math.sqrt(2) / 2, 2 / math.sqrt(6), math.sqrt(2) / 2],
            [1 / math.sqrt(6), math.sqrt(2) / 2, 1.0],
        ])
        np.testing.assert_allclose(table, want, rtol=1e-14)

    def test_every_entry_matches_scalar(self):
        table = embed_coeff_table(11, 4)
        for m in range(5):
            for n in range(8):
                assert table[m, n] == pytest.approx(embed_coeff(11, 4, m, n), rel=1e-10)

    @pytest.mark.parametrize("n,q", [(200, 100), (1500, 100), (4000, 2000)])
    def test_recursion_vs_direct_logspace(self, n, q):
        rec = embed_coeff_table(n, q)
        direct = embed_coeff_table_direct(n, q)
        # far corners of very large tables underflow float range in both
        # representations; compare where the weight is representable
        live = direct > 1e-280
        assert np.max(np.abs(rec[live] / direct[live] - 1.0)) < 1e-9
        assert np.all(rec[~live] < 1e-270)


class TestCoefficientMatrix:
    def test_worked_four_qubit_matrix(self):
        a = np.array([0.31 - 0.2j, 0.1 + 0.4j, -0.35 + 0.12j, 0.22 + 0.5j, 0.17 - 0.3j])
        a /= np.linalg.norm(a)
        cm = coefficient_matrix(PSState(a), 2)
        want = np.array([
            [a[0], math.sqrt(2) * a[1] / 2, a[2] / math.sqrt(6)],
            [math.sqrt(2) * a[1] / 2, 2 * a[2] / math.sqrt(6), math.sqrt(2) * a[3] / 2],
            [a[2] / math.sqrt(6), math.sqrt(2) * a[3] / 2, a[4]],
        ])
        np.testing.assert_allclose(cm, want, atol=1e-15)

    def test_all_up_state(self):
        n = 7
        amps = np.zeros(n + 1)
        amps[0] = 1.0
        for q in (1, 3, 6):
            mat = coefficient_matrix(PSState(amps), q)
            assert mat[0, 0] == pytest.approx(1.0)
            assert np.abs(mat).sum() == pytest.approx(1.0)

    def test_frobenius_normalization(self):
        state = random_ps_state(6, seed=1)
        mat = coefficient_matrix(state, 3)
        assert np.sum(np.abs(mat) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_block_size_bounds(self):
        state = random_ps_state(5, seed=2)
        for q in (0, 5, 6):
            with pytest.raises(DomainError):
                coefficient_matrix(state, q)


class TestReducedDensityMatrix:
    def test_product_state(self):
        n = 6
        amps = np.zeros(n + 1)
        amps[0] = 1.0
        rho = reduced_density_matrix(PSState(amps), 4)
        want = np.zeros((5, 5))
        want[0, 0] = 1.0
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_ghz_reduction(self):
        # only m+n in {0, N} terms survive; spectrum {1/2, 1/2}
        n = 9
        amps = np.zeros(n + 1)
        amps[0] = amps[n] = 1 / math.sqrt(2)
        for q in (1, 4, 8):
            rho = reduced_density_matrix(PSState(amps), q)
            want = np.zeros((q + 1, q + 1))
            want[0, 0] = want[q, q] = 0.5
            np.testing.assert_allclose(rho, want, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_brute_force_partial_trace(self, n):
        state = random_ps_state(n, seed=n)
        for q in range(1, n):
            rho = reduced_density_matrix(state, q)
            embed = np.column_stack([dicke_vector(q, m) for m in range(q + 1)])
            lifted = embed @ rho @ embed.conj().T
            np.testing.assert_allclose(lifted, brute_force_reduced(state, q),
                                       atol=1e-10)

    def test_hermitian_psd_trace(self):
        state = random_ps_state(12, seed=3)
        rho = reduced_density_matrix(state, 5)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_complementary_spectra(self):
        state = random_ps_state(11, seed=4)
        for q in (2, 5):
            lam_q = np.sort(block_eigenvalues(state, q))[::-1]
            lam_c = np.sort(block_eigenvalues(state, 11 - q))[::-1]
            keep = min(len(lam_q), len(lam_c))
            np.testing.assert_allclose(lam_q[:keep], lam_c[:keep], atol=1e-10)

    def test_rank_bound(self):
        state = random_ps_state(12, seed=5)
        for q in (8, 11):
            lam = np.sort(block_eigenvalues(state, q))[::-1]
            rank_cap = min(q + 1, 12 - q + 1)
            assert np.all(lam[rank_cap:] < 1e-10)

    def test_block_density_edges(self):
        state = random_ps_state(5, seed=6)
        np.testing.assert_allclose(reduced_density_matrix(state, 0), [[1.0]], atol=1e-14)
        full = reduced_density_matrix(state, 5)
        np.testing.assert_allclose(
            full, np.outer(state.amplitudes, state.amplitudes.conj()), atol=1e-14)


class TestEmbedToFull:
    def test_single_excitation_two_qubits(self):
        psi = embed_to_full(PSState([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(psi, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0],
                                   atol=1e-15)

    def test_weight_two_normalization(self):
        amps = np.zeros(5)
        amps[2] = 1.0
        psi = embed_to_full(PSState(amps))
        hot = np.abs(psi) > 0
        assert hot.sum() == 6
        np.testing.assert_allclose(psi[hot], 1 / math.sqrt(6), atol=1e-15)

    def test_isometry_random_pairs(self):
        for seed in range(5):
            a = random_ps_state(8, seed=10 + seed)
            b = random_ps_state(8, seed=20 + seed)
            direct = np.vdot(a.amplitudes, b.amplitudes)
            lifted = np.vdot(embed_to_full(a), embed_to_full(b))
            assert abs(direct - lifted) < 1e-12

    def test_capacity_guard(self):
        amps = np.zeros(26)
        amps[0] = 1.0
        with pytest.raises(CapacityError):
            embed_to_full(PSState(amps))


class TestCoherentState:
    def test_pole_is_all_up(self):
        state = coherent_state(5, 0.0, 1.3)
        assert state.amplitudes[0] == pytest.approx(1.0)
        assert np.abs(state.amplitudes[1:]).max() < 1e-200

    def test_single_qubit_equator(self):
        state = coherent_state(0.5, math.pi / 2, 0.0)
        np.testing.assert_allclose(state.amplitudes,
                                   [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)

    def test_jz_expectation(self):
        # <Jz>/j = cos(theta) with Jz eigenvalue j - m on |m_N>
        j, theta, phi = 10, 2.25, 0.63
        state = coherent_state(j, theta, phi)
        m = np.arange(2 * j + 1)
        jz = np.sum((j - m) * np.abs(state.amplitudes) ** 2)
        assert jz / j == pytest.approx(math.cos(theta), abs=1e-10)

    def test_one_qubit_blocks_pure(self):
        state = coherent_state(6, 1.1, 4.2)
        lam = block_eigenvalues(state, 1)
        assert 1.0 - np.sum(lam ** 2) < 1e-12

    def test_unit_norm_large_n(self):
        amps = coherent_amplitudes(1500, 2.25, 0.63)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12

    def test_rotation_operator_consistency(self):
        # product form vs rotating |j, j> by exp(i theta (Jx sin phi - Jy cos phi)),
        # checked up to global phase at small j
        from scipy.linalg import expm
        from permsym.kickedtop import angular_momentum_matrices
        j = 2.0
        jx, jy, jz = angular_momentum_matrices(j)
        for theta, phi in [(0.7, 0.3), (2.25, 0.63), (1.9, 4.0)]:
            rot = expm(1j * theta * (jx * math.sin(phi) - jy * math.cos(phi)))
            top = np.zeros(int(2 * j + 1), dtype=complex)
            top[-1] = 1.0  # |j, j> in the ascending m basis
            rotated = rot @ top
            product = coherent_state(j, theta, phi).amplitudes[::-1]
            assert abs(abs(np.vdot(rotated, product)) - 1.0) < 1e-10

    def test_bad_spin(self):
        with pytest.raises(DomainError):
            coherent_state(0.3, 1.0, 1.0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        state = random_ps_state(9, seed=33)
        path = tmp_path / "state.txt"
        save_state(path, state)
        loaded = load_state(path)
        assert loaded.n_qubits == 9
        np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)

    def test_header_is_qubit_count(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, random_ps_state(4, seed=1))
        lines = path.read_text().splitlines()
        assert lines[0] == "4"
        assert len(lines) == 6


class TestPSState:
    def test_norm_validation(self):
        with pytest.raises(DomainError):
            PSState(np.array([1.0, 1.0]))

    def test_amplitudes_read_only(self):
        state = random_ps_state(3, seed=8)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
