import ast
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permsym.core as core
from permsym.core import (PSState, coefficient_matrix, coherent_amplitudes,
                          coherent_state, embed_coeff_table,
                          embed_to_full, load_state, log_binomial,
                          block_eigenvalues, reduced_density_matrix, save_state,
                          trace_out_qubit)
from permsym.ensembles import reduced_density_full
from permsym.errors import CapacityError, DomainError
from permsym.measures import _largest_cut, block_purity_batch

from helpers import (angular_momentum_matrices, complex_eigenvalues, dicke_vector,
                     gammaln_log_binomial, gathered_coefficients, matmul_gram)


def random_ps_state(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return PSState(z / np.linalg.norm(z))


def embed_coeff_table_direct(n_qubits, q):
    """Oracle for the recursion fill: every weight evaluated on its own in log space."""
    m = np.arange(q + 1)[:, None]
    n = np.arange(n_qubits - q + 1)[None, :]
    lg = (log_binomial(q, m) + log_binomial(n_qubits - q, n)
          - log_binomial(n_qubits, m + n))
    return np.exp(0.5 * lg)


def embed_coeff_table_rows(n_qubits, q):
    """Oracle for the short-side fill: the log recursion run one row per k < q, for any q."""
    nq = n_qubits - q
    logtab = np.empty((q + 1, nq + 1))
    l = np.arange(nq, dtype=float)
    logtab[0, 0] = 0.0
    if nq:
        np.cumsum(0.5 * (np.log(nq - l) - np.log(n_qubits - l)), out=logtab[0, 1:])
    lv = np.arange(nq + 1, dtype=float)
    for k in range(q):
        step = 0.5 * (np.log(q - k) + np.log(k + lv + 1.0)
                      - np.log(n_qubits - k - lv) - np.log(k + 1.0))
        logtab[k + 1] = logtab[k] + step
    return np.exp(logtab)


def dicke_norm(n_qubits, m):
    """Oracle: sqrt(binom(N, m)) from the exact integer binomial, rooted in log space."""
    return math.exp(0.5 * math.log(math.comb(n_qubits, m)))


def embed_coeff(n_qubits, q, m, n):
    """Oracle: one weight C[m, n] = sqrt(binom(Q, m) binom(N-Q, n) / binom(N, m+n))."""
    lg = (math.log(math.comb(q, m))
          + math.log(math.comb(n_qubits - q, n))
          - math.log(math.comb(n_qubits, m + n)))
    return math.exp(0.5 * lg)


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


class TestLogBinomial:
    def test_matches_gammaln_oracle_small(self):
        for n in range(201):
            k = np.arange(n + 1)
            np.testing.assert_allclose(log_binomial(n, k), gammaln_log_binomial(n, k),
                                       rtol=0, atol=1e-12)

    def test_matches_gammaln_oracle_large(self):
        # every n up to 8192 with a random k each, and every k at 8192
        n = np.arange(8193)
        k = np.random.default_rng(12).integers(0, n + 1)
        np.testing.assert_allclose(log_binomial(n, k), gammaln_log_binomial(n, k),
                                   rtol=0, atol=1e-10)
        k = np.arange(8193)
        np.testing.assert_allclose(log_binomial(8192, k), gammaln_log_binomial(8192, k),
                                   rtol=0, atol=1e-10)

    def test_exact_integer_oracle(self):
        n, comb, exact = 8192, 1, []
        for k in range(n + 1):  # exact binom(n, k) by the integer recursion
            exact.append(math.log(comb))
            comb = comb * (n - k) // (k + 1)
        np.testing.assert_allclose(log_binomial(n, np.arange(n + 1)), exact, rtol=0, atol=3e-11)

    def test_zero_at_the_ends(self):
        n = np.arange(300)
        assert not log_binomial(n, 0).any()
        assert not log_binomial(n, n).any()

    def test_integral_floats_are_integers(self):
        assert log_binomial(12.0, 5.0) == log_binomial(12, 5)

    @pytest.mark.parametrize("n, k", [(5, 2.5), (5.5, 2), (5, -1), (5, 6), (-1, 0),
                                      (math.nan, 1), (5, math.nan), (math.inf, 1),
                                      (5, math.inf), (np.array([4, 5]), np.array([2, 7]))])
    def test_rejects_non_integers_and_k_outside_range(self, n, k):
        with pytest.raises(DomainError):
            log_binomial(n, k)

    def test_coherent_amplitudes_match_gammaln_oracle(self, monkeypatch):
        theta = np.array([0.3, 1.1, 2.25, 3.0])
        phi = np.array([0.0, 0.63, 4.2, 5.9])
        new = {n: coherent_amplitudes(n, theta, phi) for n in range(1, 201)}
        monkeypatch.setattr(core, "log_binomial", gammaln_log_binomial)
        for n, amps in new.items():
            np.testing.assert_allclose(amps, coherent_amplitudes(n, theta, phi),
                                       rtol=1e-12, atol=0)


class TestEmbedCoeff:
    def test_worked_example_entry(self):
        assert embed_coeff(4, 2, 1, 1) == pytest.approx(2 / math.sqrt(6), rel=1e-14)

    def test_trivial_corner(self):
        assert embed_coeff(9, 4, 0, 0) == 1.0

    def test_factorial_oracle(self):
        # exact rational from big-integer factorials
        want = Fraction(math.comb(5, 3) * math.comb(7, 4), math.comb(12, 7))
        assert embed_coeff(12, 5, 3, 4) == pytest.approx(math.sqrt(float(want)), rel=1e-12)


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

    @pytest.mark.parametrize("n,q", [(3, 2), (12, 7), (20, 11), (40, 30), (200, 150),
                                     (1000, 900), (4000, 3990)])
    def test_large_block_is_short_side_transpose(self, n, q):
        table = embed_coeff_table(n, q)
        assert table.flags.c_contiguous
        np.testing.assert_array_equal(table, embed_coeff_table(n, n - q).T)
        rows = embed_coeff_table_rows(n, q)
        live = rows > 1e-280
        assert np.max(np.abs(table[live] / rows[live] - 1.0)) < 1e-12

    def test_complementary_blocks_give_bitwise_equal_purities(self):
        n = 20
        rng = np.random.default_rng(4)
        a = rng.standard_normal((32, n + 1)) + 1j * rng.standard_normal((32, n + 1))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        for q in range(n + 1):
            np.testing.assert_array_equal(block_purity_batch(a, n, (q,))[..., 0],
                                          block_purity_batch(a, n, (n - q,))[..., 0])


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

    def test_block_size_outside_the_system(self):
        state = random_ps_state(6, seed=7)
        for q in (-1, 7):
            with pytest.raises(DomainError, match="outside"):
                block_eigenvalues(state, q)

    def test_block_density_edges(self):
        state = random_ps_state(5, seed=6)
        np.testing.assert_allclose(reduced_density_matrix(state, 0), [[1.0]], atol=1e-14)
        full = reduced_density_matrix(state, 5)
        np.testing.assert_allclose(
            full, np.outer(state.amplitudes, state.amplitudes.conj()), atol=1e-14)


def random_amplitudes(shape, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(shape + (n + 1,)) + 1j * rng.standard_normal(shape + (n + 1,))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def oracle_gram(amplitudes, n, q):
    """smaller_gram's product on the oracle gather's batch-innermost operands."""
    a = gathered_coefficients(amplitudes, n, q)
    if 2 * q > n:
        a = np.swapaxes(a, -1, -2)
    return matmul_gram(a)


class TestGather:
    @pytest.mark.parametrize("shape", [(), (1,), (300,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 6, 20])
    def test_matches_oracle_bytes_batch_first(self, shape, n):
        amps = random_amplitudes(shape, n, seed=n)
        for q in range(n + 1):
            got = core._block_coefficients(amps, n, q)
            assert got.tobytes() == gathered_coefficients(amps, n, q).tobytes()
            assert got.shape == shape + (q + 1, n - q + 1)
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 20, 40, 101])
    def test_smaller_gram_matches_oracle(self, n):
        amps = random_amplitudes((64,), n, seed=100 + n)
        for q in range(1, n):
            got, want = core.smaller_gram(amps, n, q), oracle_gram(amps, n, q)
            if got.shape[-1] > core.ROW_GRAM_MAX_ROWS:
                assert got.tobytes() == want.tobytes()
            else:  # row products: a versioned change at round-off
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
                assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))
        # the 1 x 1 Gram sum(|a|^2) at q in {0, N} is a dot product whose
        # summation order follows the operand layout: round-off only
        for q in (0, n):
            np.testing.assert_allclose(core.smaller_gram(amps, n, q), oracle_gram(amps, n, q),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n,rows", [(0, 65536), (1, 32768), (12, 1337), (20, 541),
                                        (40, 148), (200, 6), (10 ** 4, 1)])
    def test_block_rows(self, n, rows):
        # s = N//2 is the largest fold of every block size
        assert core._block_rows(*_largest_cut(n, range(n + 1))) == rows
        assert core._block_rows(n // 2 + 1, n - n // 2 + 1) == rows

    @pytest.mark.parametrize("n,s,rows", [(40, 3, 431), (40, 5, 303), (40, 0, 1598),
                                          (13, 6, 1170), (200, 1, 163)])
    def test_block_rows_of_the_largest_fold(self, n, s, rows):
        # BLOCK_BYTES over the (s+1) x (N-s+1) coefficient matrix of the
        # largest folded block size
        assert _largest_cut(n, (s, n - s)) == (s + 1, n - s + 1)
        assert core._block_rows(s + 1, n - s + 1) == rows == core.BLOCK_BYTES // (
            16 * (s + 1) * (n - s + 1))


class TestRowGram:
    """core._gram's row products, against the matmul Gram it replaced."""

    @pytest.mark.parametrize("shape", [(), (1,), (1337,), (2, 3)])
    @pytest.mark.parametrize("r", range(1, core.ROW_GRAM_MAX_ROWS + 2))
    def test_matches_the_matmul_gram(self, r, shape):
        rng = np.random.default_rng(r)
        for c in (1, r, 9, 40):
            a = (rng.standard_normal(shape + (r, c))
                 + 1j * rng.standard_normal(shape + (r, c))) / math.sqrt(2 * c)
            got, want = core._gram(a), matmul_gram(a)
            assert got.shape == shape + (r, r) and got.dtype == complex
            if r > core.ROW_GRAM_MAX_ROWS:  # past the cutoff: matmul's bytes
                assert got.tobytes() == want.tobytes()
                continue
            scale = max(1.0, float(np.abs(got).max()))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * scale)
            assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))
            assert not np.diagonal(got, axis1=-2, axis2=-1).imag.any()

    @pytest.mark.parametrize("r", range(1, core.ROW_GRAM_MAX_ROWS + 1))
    def test_bytes_ignore_layout_and_batch_size(self, r):
        rng = np.random.default_rng(10 + r)
        c = 12
        wide = rng.standard_normal((1337, c, r)) + 1j * rng.standard_normal((1337, c, r))
        a = np.swapaxes(wide, -1, -2)  # a transposed view
        batch = core._gram(a)
        assert batch.tobytes() == core._gram(np.ascontiguousarray(a)).tobytes()
        for i in (0, 1, 668, 1336):
            assert core._gram(a[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()
            assert core._gram(a[i]).tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("r", range(1, core.ROW_GRAM_MAX_ROWS + 2))
    def test_nan_amplitude_gives_nan(self, r):
        a = np.ones((3, r, 5), dtype=complex)
        a[1, r - 1, 2] = np.nan
        g = core._gram(a)
        assert np.isnan(g[1, r - 1]).all() and np.isnan(g[1, :, r - 1]).all()
        assert not np.isnan(g[[0, 2]]).any()


class TestTraceOutQubit:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n), st.integers(0, 2 ** 32 - 1))))
    def test_one_qubit_trace_gives_the_smaller_block(self, case):
        n, q, seed = case
        state = random_ps_state(n, seed)
        np.testing.assert_allclose(trace_out_qubit(reduced_density_matrix(state, q)),
                                   reduced_density_matrix(state, q - 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_space_spectrum(self, n):
        state = random_ps_state(n, seed=10 + n)
        psi = embed_to_full(state)
        for q in range(1, n + 1):
            lam = np.linalg.eigvalsh(trace_out_qubit(reduced_density_matrix(state, q)))[::-1]
            full = np.linalg.eigvalsh(reduced_density_full(psi, range(q - 1), n))[::-1]
            np.testing.assert_allclose(lam, full[:q], rtol=0, atol=1e-12)
            np.testing.assert_allclose(full[q:], 0.0, rtol=0, atol=1e-12)

    def test_batch_axes_and_empty_block(self):
        states = [random_ps_state(6, seed) for seed in range(3)]
        rhos = np.stack([reduced_density_matrix(s, 4) for s in states])
        np.testing.assert_array_equal(trace_out_qubit(rhos),
                                      np.stack([trace_out_qubit(r) for r in rhos]))
        with pytest.raises(DomainError):
            trace_out_qubit(np.ones((1, 1)))


def random_hermitian(rng, shape, n, structure="full"):
    """A batch shape + (n, n) of Hermitian matrices: full, a PSD Gram or rank 1."""
    cols = {"full": n, "gram": n + 1, "rank1": 1}[structure]
    z = rng.standard_normal(shape + (n, cols)) + 1j * rng.standard_normal(shape + (n, cols))
    if structure == "full":
        return z + np.conj(np.swapaxes(z, -1, -2))
    return z @ np.conj(np.swapaxes(z, -1, -2))


def assert_matches_complex_oracle(h):
    """hermitian_eigenvalues within 1e-14 max(1, ||H||) of LAPACK's complex solver."""
    got, want = core.hermitian_eigenvalues(h), complex_eigenvalues(h)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    bound = 1e-14 * np.maximum(1.0, np.abs(want).max(axis=-1, keepdims=True, initial=0.0))
    assert np.all(np.abs(got - want) <= bound)
    return got


class TestHermitianEigenvalues:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 40),
           structure=st.sampled_from(["full", "gram", "rank1"]),
           scale=st.sampled_from([1e-120, 1e-6, 1.0, 1e3, 1e120]))
    def test_matches_complex_oracle(self, n, seed, count, structure, scale):
        h = scale * random_hermitian(np.random.default_rng(seed), (count,), n, structure)
        assert_matches_complex_oracle(h)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rank_one_diagonal_and_zero_matrices(self, n):
        # coherent states at the poles have rank-1 diagonal blocks: no column
        # to reflect, as for diagonal and zero matrices
        amps = coherent_amplitudes(2 * n, np.array([0.0, math.pi, 1e-60, 0.3]), 0.7)
        assert_matches_complex_oracle(core.smaller_gram(amps, 2 * n, n - 1))
        rng = np.random.default_rng(n)
        assert_matches_complex_oracle(random_hermitian(rng, (50,), n, "rank1"))
        diagonal = np.zeros((50, n, n), dtype=complex)
        diagonal[:, range(n), range(n)] = rng.standard_normal((50, n))
        assert core.hermitian_eigenvalues(diagonal).tobytes() == \
            complex_eigenvalues(diagonal).tobytes()
        zero = np.zeros((3, n, n), dtype=complex)
        assert core.hermitian_eigenvalues(zero).tobytes() == np.zeros((3, n)).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("norm", [1e-160, 1e-155, 1e-149, 1e-140])
    def test_tiny_columns(self, n, norm):
        # columns whose squared entries are subnormal, or just above the
        # negligible norm: the reflection must stay unitary
        h = np.diag(np.linspace(0.1, 1.0, n)).astype(complex)
        for k in range(n - 2):
            h[k + 1:, k] = norm * (1 + 1j) * np.arange(1, n - k)
        assert_matches_complex_oracle(h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_batch_axes_and_empty_batch(self, n):
        rng = np.random.default_rng(n)
        h = random_hermitian(rng, (2, 3), n)
        got = assert_matches_complex_oracle(h)
        assert got.shape == (2, 3, n)
        assert assert_matches_complex_oracle(h[1, 2]).tobytes() == got[1, 2].tobytes()
        for shape in [(0,), (2, 0)]:
            assert core.hermitian_eigenvalues(np.zeros(shape + (n, n), complex)).shape == shape + (n,)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chunk_invariance(self, n):
        h = random_hermitian(np.random.default_rng(20 + n), (1337,), n, "gram")
        batch = core.hermitian_eigenvalues(h)
        for i in (0, 1, 668, 1336):
            assert core.hermitian_eigenvalues(h[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()
            assert core.hermitian_eigenvalues(h[i]).tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reads_the_lower_triangle_and_real_diagonal(self, n):
        rng = np.random.default_rng(30 + n)
        h = random_hermitian(rng, (40,), n)
        noise = np.triu(rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n)), 1)
        h_lower = h + noise + 1j * np.eye(n)
        got = assert_matches_complex_oracle(h_lower)
        np.testing.assert_allclose(got, complex_eigenvalues(h), rtol=0, atol=1e-13)
        before = h_lower.copy()
        core.hermitian_eigenvalues(h_lower[:1])
        assert h_lower.tobytes() == before.tobytes()  # the input is not written

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_non_finite_entry_in_a_reflected_column(self, n, bad):
        # a non-finite entry only in the lower column that a reflection reads
        # must not be taken for a zero column: the eigensolve fails or that
        # matrix's eigenvalues are not all finite, and its neighbours stay good
        for k in range(n - 2):
            for i in range(k + 1, n):
                h = np.stack([np.eye(n, dtype=complex) / n] * 3)
                h[1, i, k] = bad
                try:
                    with np.errstate(invalid="ignore", over="ignore"):
                        lam = core.hermitian_eigenvalues(h)
                except np.linalg.LinAlgError:
                    continue
                assert not np.isfinite(lam[1]).all(), (k, i)
                np.testing.assert_allclose(lam[[0, 2]], 1.0 / n, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,dtype,solved", [
        (4, complex, np.float64), (core.TRIDIAGONAL_MAX_DIM, complex, np.float64),
        (core.TRIDIAGONAL_MAX_DIM + 1, complex, np.complex128),
        (4, float, np.float64), (1, complex, np.float64)])
    def test_one_eigvalsh_call_of_the_same_size(self, monkeypatch, n, dtype, solved):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append((a.shape, a.dtype))
            return eigvalsh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        h = random_hermitian(np.random.default_rng(n), (5, 3), n)
        h = h if dtype is complex else h.real
        got = core.hermitian_eigenvalues(h)
        assert calls == [((15, n, n) if solved is np.float64 and dtype is complex
                          else (5, 3, n, n), np.dtype(solved))]
        if n > core.TRIDIAGONAL_MAX_DIM or dtype is float:  # solved as given
            assert got.tobytes() == eigvalsh(h).tobytes()


class TestCutSpectrum:
    @pytest.mark.parametrize("batch", [(), (6,), (2, 3)])
    @pytest.mark.parametrize("r, c", [(1, 1), (1, 5), (5, 1), (4, 4), (3, 7), (7, 3),
                                      (2, 9), (9, 2), (6, 6)])
    def test_matches_the_full_gram(self, r, c, batch):
        # the smaller side's spectrum after r - min(r, c) exact zeros: the
        # eigenvalues of a a^dagger by LAPACK's complex solver on the full Gram
        rng = np.random.default_rng(r * 10 + c)
        a = rng.standard_normal(batch + (r, 2 * c)).view(complex)
        a /= np.sqrt(np.sum(np.abs(a) ** 2, axis=(-1, -2), keepdims=True))
        got = core.cut_spectrum(a)
        want = np.linalg.eigvalsh(a @ np.conj(np.swapaxes(a, -1, -2)))
        assert got.shape == want.shape == batch + (r,) and got.dtype == np.float64
        assert not got[..., :r - min(r, c)].any()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def eigvalsh_references():
    """(enclosing functions, source, is a call) of every eigvalsh in src/permsym."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.scope, self.called = [], set()

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            self.called.add(id(node.func))
            self.generic_visit(node)

        def visit_Attribute(self, node):
            if node.attr == "eigvalsh":
                found.append((tuple(self.scope), ast.unparse(node), id(node) in self.called))
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id == "eigvalsh":
                found.append((tuple(self.scope), node.id, id(node) in self.called))

        def visit_Constant(self, node):
            if node.value == "eigvalsh":
                found.append((tuple(self.scope), repr(node.value), False))

        def visit_ImportFrom(self, node):
            if node.module and node.module.startswith("numpy.linalg") or any(
                    alias.name.endswith("linalg") or "eigvalsh" in (alias.name, alias.asname)
                    for alias in node.names):
                found.append((tuple(self.scope), ast.unparse(node), False))

        def visit_Import(self, node):
            if any("linalg" in alias.name for alias in node.names):
                found.append((tuple(self.scope), ast.unparse(node), False))

    for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
        Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_eigvalsh_is_called_only_inside_the_kernel():
    # perfbench's tracer patches the numpy.linalg.eigvalsh attribute; a bound
    # name such as `from numpy.linalg import eigvalsh` would hide eigensolves
    # from its counts, and a second call site would bypass the kernel
    assert eigvalsh_references() == [(("hermitian_eigenvalues",), "np.linalg.eigvalsh", True)]


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

    @pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf])
    def test_non_finite_spin(self, j):
        # before, nan raised ValueError and +-inf OverflowError from round(2j)
        with pytest.raises(DomainError, match="half-integer"):
            coherent_state(j, 0.1, 0.2)

    def test_spin_rule_shared_with_kicked_top(self):
        # one half-integer rule, core._qubits_from_spin, for both entry points
        from permsym.kickedtop import KickedTopParams
        for j in (2.5 + 2e-10, 3 - 2e-10, 0.5):
            assert coherent_state(j, 0.1, 0.2).n_qubits == KickedTopParams(j, 1.0).n_qubits
            assert KickedTopParams(j, 1.0).j == round(2 * j) / 2
        for j in (2.5 + 2e-9, 0.3, 0.0, -1.0):
            for make in (lambda: coherent_state(j, 0.1, 0.2), lambda: KickedTopParams(j, 1.0)):
                with pytest.raises(DomainError, match="half-integer"):
                    make()

    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.5), (1.0, math.inf),
                                            (-math.inf, 0.5), (1.0, math.nan)])
    def test_non_finite_angles(self, theta, phi):
        with pytest.raises(DomainError, match="finite"):
            coherent_state(3, theta, phi)
        with pytest.raises(DomainError, match="finite"):
            coherent_amplitudes(6, [0.3, theta], phi)


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

    @pytest.mark.parametrize("text", [
        "",                              # empty
        "\n\n",                          # blank lines only
        "two\n0.6 0.0\n0.8 0.0\n",       # header not an integer
        "1.0\n0.6 0.0\n0.8 0.0\n",       # header not an integer
        "1\n0.6 0.0\n",                  # too few amplitude lines
        "1\n0.6 0.0\n0.8 0.0\n0.0 0.0\n",  # too many amplitude lines
        "1\n0.6\n0.8 0.0\n",             # one number on a line
        "1\n0.6 0.0 0.0\n0.8 0.0\n",     # three numbers on a line
        "1\n0.6 x\n0.8 0.0\n",           # not a number
        "1\nnan 0.0\n0.8 0.0\n",         # NaN amplitude
        "1\n0.6 0.0\n0.6 0.0\n",         # not unit norm
        "0\n1.0 0.0\n",                  # zero qubits
        "-1\n",                          # negative qubit count
    ])
    def test_malformed_file_is_domain_error(self, tmp_path, text):
        path = tmp_path / "state.txt"
        path.write_text(text)
        with pytest.raises(DomainError):
            load_state(path)


class TestPSState:
    def test_norm_validation(self):
        with pytest.raises(DomainError):
            PSState(np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            PSState(np.array([math.nan, 1.0]))

    def test_amplitudes_read_only(self):
        state = random_ps_state(3, seed=8)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
