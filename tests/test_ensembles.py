import ast
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

import permsym.cli as cli
import permsym.core as core
import permsym.ensembles as ensembles
from permsym.concentration import functional_samples
from permsym.core import PSState, _block_rows, block_eigenvalues, hermitian_eigenvalues

from permsym.ensembles import (EnsembleSpec, avg_linear_entropy_ps,
                               avg_linear_entropy_wishart, avg_purity_ps,
                               avg_tmi_linear_ps_111, avg_tmi_linear_ps_mmm,
                               avg_tmi_vn_ps, avg_tmi_vn_wishart,
                               avg_tmi_vn_wishart_blocks, avg_vn_entropy_ps,
                               comb_identity_residual, ensemble_eigenvalues,
                               marchenko_pastur_density, mc_block_entropy_samples,
                               mc_purity_sweep, mc_tmi_full_samples, mc_tmi_samples,
                               page_entropy,
                               ps_amplitude_batch, reduced_density_full,
                               sample_ps_state, sample_wishart_rdm,
                               spectral_histogram, stream, tmi_full_state)
from permsym.errors import DomainError
from permsym.measures import (LINEAR, VON_NEUMANN, block_spectra_batch,
                              entropy_from_eigenvalues, renyi, tmi_blocks, tmi_sum)

from helpers import (complex_eigenvalues, fit_vn_alpha, kept_side_tmi_full, matmul_gram,
                     mc_purity, mc_tmi, random_unitary, trace_normalized_wishart)


class TestSampler:
    def test_single_qubit_symmetry(self):
        amps = ps_amplitude_batch(1, seed=1, count=4000)
        mean = np.mean(np.abs(amps[:, 0]) ** 2)
        # var of |a0|^2 on the 2-dim sphere is 1/12; 3 sigma window
        assert abs(mean - 0.5) < 3 * math.sqrt(1 / 12 / 4000)

    def test_fourth_moment(self):
        # <sum |a_m|^4> = 2/(N+2) from the quartic moments of the sphere
        n = 12
        amps = ps_amplitude_batch(n, seed=2, count=20000)
        value = np.mean(np.sum(np.abs(amps) ** 4, axis=1))
        assert value == pytest.approx(2.0 / (n + 2), rel=0.01)

    def test_deterministic_sequence(self):
        a = ps_amplitude_batch(6, seed=99, count=5)
        b = ps_amplitude_batch(6, seed=99, count=5)
        np.testing.assert_array_equal(a, b)

    def test_shard_independence(self):
        whole = ps_amplitude_batch(6, seed=7, count=10)
        parts = np.concatenate([ps_amplitude_batch(6, seed=7, count=4),
                                ps_amplitude_batch(6, seed=7, count=6, start=4)])
        np.testing.assert_array_equal(whole, parts)

    def test_single_draw_matches_batch(self):
        batch = ps_amplitude_batch(5, seed=3, count=3)
        for i in range(3):
            state = sample_ps_state(5, stream(3, i))
            np.testing.assert_array_equal(state.amplitudes, batch[i])

    def test_unitary_invariance(self):
        # rotating the amplitude sphere by a fixed unitary leaves pooled
        # eigenvalue statistics unchanged
        n, q, count = 8, 3, 3000
        amps = ps_amplitude_batch(n, seed=11, count=count)
        u = random_unitary(n + 1, stream(12, 0))
        rotated = amps @ u.T
        base = block_spectra_batch(amps, n, q).ravel()
        rot = block_spectra_batch(rotated, n, q).ravel()
        assert ks_2samp(base, rot).pvalue > 0.01


def fresh_stream(seed, index):
    """A new Philox generator per (seed, index): the construction re-keying replaces."""
    return np.random.Generator(np.random.Philox(key=(index << 64) | (seed & (2 ** 64 - 1))))


def in_blocks(rows, fn, *args, **kwargs):
    """fn(*args, **kwargs) with every Monte Carlo block held to `rows` samples
    (None: the default rule, core._block_rows)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(ensembles, "_block_rows", lambda n_qubits, s=None: rows)
        return fn(*args, **kwargs)


def oracle_amplitudes(n, seed, count, start=0):
    out = np.empty((count, n + 1), dtype=complex)
    for i in range(count):
        z = fresh_stream(seed, start + i).standard_normal(2 * (n + 1)).view(complex)
        out[i] = z / np.linalg.norm(z)
    return out


class TestSamplerBytes:
    """The re-keyed sampler draws exactly the bytes of one fresh stream per sample."""

    @pytest.mark.parametrize("start", [0, 4097])
    @pytest.mark.parametrize("seed", [0, -5, 2 ** 63 + 11])
    @pytest.mark.parametrize("n", [1, 2, 12, 20, 40, 1023])
    def test_batch_matches_fresh_streams(self, n, seed, start):
        got = ps_amplitude_batch(n, seed, 9, start)
        assert got.tobytes() == oracle_amplitudes(n, seed, 9, start).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 64), seed=st.integers(-2 ** 63, 2 ** 64 - 1),
           count=st.integers(1, 8), start=st.integers(0, 2 ** 40))
    def test_batch_matches_fresh_streams_property(self, n, seed, count, start):
        got = ps_amplitude_batch(n, seed, count, start)
        assert got.tobytes() == oracle_amplitudes(n, seed, count, start).tobytes()

    @pytest.mark.parametrize("draws", [1, 3, 4, 5])
    def test_rekey_clears_every_buffer(self, draws):
        # odd uint32 counts leave a half-used 64-bit word (has_uint32), and
        # random() leaves unused words of the Philox block (buffer_pos)
        rng = stream(1, 0)
        rng.integers(0, 2 ** 31, size=draws, dtype=np.uint32)
        rng.random()
        for index in (7, 2 ** 64 - 1):
            rekeyed, fresh = stream(-5, index, rng), stream(-5, index)
            assert rekeyed is rng
            assert repr(rekeyed.bit_generator.state) == repr(fresh.bit_generator.state)
            for draw in (lambda g: g.integers(0, 2 ** 31, size=3, dtype=np.uint32),
                         lambda g: g.random(2), lambda g: g.standard_normal(5)):
                assert draw(rekeyed).tobytes() == draw(fresh).tobytes()

    @pytest.mark.parametrize("rows,threads", [(7, 1), (7, 2), (512, 1)])
    def test_wishart_eigenvalues_match_fresh_streams(self, rows, threads):
        n1, n2, count, seed = 3, 5, 20, 2 ** 63 + 11
        rhos = np.stack([sample_wishart_rdm(n1, n2, fresh_stream(seed, i))
                         for i in range(count)])
        want = hermitian_eigenvalues(rhos).ravel()
        got = in_blocks(rows, ensemble_eigenvalues,
                        EnsembleSpec("wishart", (n1, n2), count, seed), threads=threads)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, complex_eigenvalues(rhos).ravel(), rtol=0, atol=1e-15)
        # G G^dagger / tr, the draw before rows were normalized first
        old = np.stack([trace_normalized_wishart(n1, n2, fresh_stream(seed, i))
                        for i in range(count)])
        np.testing.assert_allclose(got, hermitian_eigenvalues(old).ravel(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("dims", [(3, 5), (5, 7), (7, 3), (2, 2), (1, 1), (101, 101)])
    def test_wishart_batch_is_rows_of_the_ps_sampler(self, dims, rows):
        # a Wishart(N1, N2) sample is the Gram of PS row i of N1 N2 - 1 qubits
        # reshaped to N1 x N2, and sample_wishart_rdm is its one-row case; for
        # N1 > N2 the spectrum comes from the smaller N2 x N2 Gram, after
        # N1 - N2 exact zeros
        (n1, n2), count, seed = dims, 9, 2 ** 63 + 11
        amps = ps_amplitude_batch(n1 * n2 - 1, seed, count).reshape(count, n1, n2)
        grams = core._gram(amps)
        one_row = np.stack([sample_wishart_rdm(n1, n2, fresh_stream(seed, i))
                            for i in range(count)])
        assert grams.tobytes() == one_row.tobytes()
        np.testing.assert_allclose(grams, matmul_gram(amps), rtol=0, atol=1e-15)
        got = in_blocks(rows, ensemble_eigenvalues, EnsembleSpec("wishart", dims, count, seed))
        want = hermitian_eigenvalues(grams)
        if n1 <= n2:
            assert got.tobytes() == want.ravel().tobytes()
        else:
            got = got.reshape(count, n1)
            assert not got[:, :n1 - n2].any()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rows", [4, None])
    @pytest.mark.parametrize("n, q", [(12, 10), (40, 30), (12, 6), (41, 7)])
    def test_ps_spectra_are_block_eigenvalues(self, n, q, rows):
        # every PS(N, Q) sample gives its Q+1 eigenvalues, the bytes of
        # block_eigenvalues, with 2Q - N exact zeros beyond N/2 (before, a
        # block beyond N/2 gave only its N-Q+1 nonzero ones)
        count, seed = 9, 2 ** 63 + 11
        got = in_blocks(rows, ensemble_eigenvalues, EnsembleSpec("ps", (n, q), count, seed))
        want = np.stack([block_eigenvalues(PSState(a), q)
                         for a in ps_amplitude_batch(n, seed, count)])
        assert got.size == count * (q + 1) and got.tobytes() == want.tobytes()
        assert not want[:, :max(0, 2 * q - n)].any()
        assert np.mean(got) * (q + 1) == pytest.approx(1.0, rel=1e-14)


class TestWishart:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 5), (5, 7), (7, 3), (101, 101)])
    def test_matches_trace_normalized_oracle(self, dims):
        for i in range(20):
            rho = sample_wishart_rdm(*dims, stream(4, i))
            want = trace_normalized_wishart(*dims, stream(4, i))
            np.testing.assert_allclose(rho, want, rtol=0, atol=1e-15)

    def test_one_dimensional(self):
        rho = sample_wishart_rdm(1, 5, stream(0, 0))
        np.testing.assert_allclose(rho, [[1.0]], atol=1e-14)

    def test_lubkin_purity(self):
        # (M+N)/(1+MN) with M=N=2 -> 0.8
        vals = [np.trace(np.linalg.matrix_power(sample_wishart_rdm(2, 2, stream(5, i)), 2)).real
                for i in range(20000)]
        assert np.mean(vals) == pytest.approx(0.8, rel=0.01)

    def test_square_spectrum_matches_mp(self):
        ev = ensemble_eigenvalues(EnsembleSpec("wishart", (51, 51), 400, 8)) * 51
        hist, edges = np.histogram(ev, bins=40, range=(0.0, 4.0), density=True)
        # compare against the law's mass per bin (the density diverges at 0,
        # so point values at bin centers are biased there)
        mp_mass = np.array([quad(marchenko_pastur_density, edges[i], edges[i + 1])[0]
                            for i in range(len(hist))])
        width = np.diff(edges)
        assert np.max(np.abs(hist - mp_mass / width)) < 0.15


class TestMarchenkoPastur:
    def test_midpoint(self):
        assert marchenko_pastur_density(2.0) == pytest.approx(1 / (2 * math.pi))

    def test_edges(self):
        assert marchenko_pastur_density(4.0) == 0.0
        assert marchenko_pastur_density(0.0) == 0.0
        assert marchenko_pastur_density(-1.0) == 0.0
        assert marchenko_pastur_density(5.0) == 0.0

    def test_unit_mass_quadrature(self):
        total, err = quad(marchenko_pastur_density, 0, 4)
        assert abs(total - 1.0) < 1e-8


class TestSpectralHistogram:
    def test_unit_area(self):
        hist = spectral_histogram(EnsembleSpec("ps", (12, 2), 400, 3), bins=60)
        area = np.sum(hist.densities * np.diff(hist.bin_edges))
        assert abs(area - 1.0) < 1e-9

    def test_two_peaks_for_single_qubit(self):
        # Q+1 = 2 merging peaks with a gap at the scaled midpoint
        hist = spectral_histogram(EnsembleSpec("ps", (12, 1), 4000, 5), bins=100)
        centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
        left = hist.densities[(centers > 0.1) & (centers < 0.9)].max()
        mid = hist.densities[(centers > 0.95) & (centers < 1.05)].min()
        right = hist.densities[(centers > 1.1) & (centers < 1.9)].max()
        assert left > 5 * max(mid, 0.01)
        assert right > 5 * max(mid, 0.01)

    def test_bins_precondition(self):
        with pytest.raises(DomainError):
            spectral_histogram(EnsembleSpec("ps", (8, 2), 10, 0), bins=5)

    def test_ps_origin_lighter_than_wishart(self):
        ev_ps = ensemble_eigenvalues(EnsembleSpec("ps", (100, 50), 300, 6)) * 51
        ev_w = ensemble_eigenvalues(EnsembleSpec("wishart", (51, 51), 300, 6)) * 51
        assert np.mean(ev_ps < 0.05) < np.mean(ev_w < 0.05)

    def test_ps_tail_beyond_mp_edge(self):
        ev_ps = ensemble_eigenvalues(EnsembleSpec("ps", (100, 50), 300, 9)) * 51
        ev_w = ensemble_eigenvalues(EnsembleSpec("wishart", (51, 51), 300, 9)) * 51
        assert np.mean(ev_ps > 4.0) > 0.005
        assert np.mean(ev_w > 4.0) < np.mean(ev_ps > 4.0) / 5

    def test_threads_do_not_change_output(self):
        spec = EnsembleSpec("ps", (10, 4), 300, 17)
        np.testing.assert_array_equal(
            spectral_histogram(spec, bins=40, threads=1).densities,
            in_blocks(64, spectral_histogram, spec, bins=40, threads=2).densities)


class TestClosedForms:
    def test_purity_example(self):
        assert avg_purity_ps(12, 6) == pytest.approx(13 / 49)

    def test_symmetry(self):
        for q in (1, 3, 5):
            assert avg_purity_ps(12, q) == pytest.approx(avg_purity_ps(12, 12 - q))
            assert avg_linear_entropy_ps(12, q) == pytest.approx(
                avg_linear_entropy_ps(12, 12 - q))

    def test_purity_plus_linear_entropy(self):
        assert avg_purity_ps(20, 7) + avg_linear_entropy_ps(20, 7) == pytest.approx(1.0)

    def test_wishart_qubit_flavor(self):
        assert avg_linear_entropy_wishart(2, 1, "qubits") == pytest.approx(0.2)

    def test_wishart_dims_flavor_below_ps(self):
        assert avg_linear_entropy_wishart(12, 2, "dims") == pytest.approx(20 / 34)
        for n, q in [(12, 2), (12, 6), (30, 10)]:
            assert (avg_linear_entropy_wishart(n, q, "dims")
                    < avg_linear_entropy_ps(n, q))

    def test_single_qubit_large_n_forms(self):
        for n in range(2, 40):
            ps = avg_linear_entropy_ps(n, 1)
            dims = avg_linear_entropy_wishart(n, 1, "dims")
            assert ps == pytest.approx(0.5 * (1 - 1 / n))
            assert dims == pytest.approx(0.5 * (1 - 3 / (2 * n + 1)))
            assert dims < ps

    def test_vn_form_evaluation(self):
        value = avg_vn_entropy_ps(100, 50, half_correction=True)
        want = math.log2(51) - (2 / 3) * (51 / 51) - 1 / 101
        assert value == pytest.approx(want, rel=1e-12)

    def test_vn_correction_guard(self):
        with pytest.raises(DomainError):
            avg_vn_entropy_ps(100, 20, half_correction=True)

    def test_page_square_case(self):
        assert page_entropy(51, 51) == pytest.approx(math.log2(51) - 0.721, abs=5e-4)

    def test_comb_identity_small(self):
        assert comb_identity_residual(4, 2) < 1e-12
        assert comb_identity_residual(2, 1) < 1e-12

    def test_comb_identity_logspace(self):
        assert comb_identity_residual(60, 30) < 1e-9

    def test_comb_identity_exact_rational_oracle(self):
        from fractions import Fraction
        n, q = 9, 4
        total = Fraction(0)
        for k in range(q + 1):
            for j in range(q + 1):
                for m in range(n - q + 1):
                    total += Fraction(
                        math.comb(q, k) * math.comb(q, j) * math.comb(n - q, m) ** 2,
                        math.comb(n, k + m) * math.comb(n, j + m))
        assert total == Fraction((n + 1) ** 2, n - q + 1)
        assert comb_identity_residual(n, q) < 1e-12


class TestTmiEstimates:
    def test_linear_mmm_small(self):
        assert avg_tmi_linear_ps_mmm(1) == pytest.approx(0.25)

    def test_linear_111_exact(self):
        assert avg_tmi_linear_ps_111(12) == pytest.approx(9 * 136 / (4 * 12 * 11 * 10))

    def test_linear_111_matches_entropy_linearity(self):
        # the closed form is 3<S_1> - 3<S_2> + <S_3> by linearity of the mean
        for n in (8, 12, 31):
            want = (3 * avg_linear_entropy_ps(n, 1) - 3 * avg_linear_entropy_ps(n, 2)
                    + avg_linear_entropy_ps(n, 3))
            assert avg_tmi_linear_ps_111(n) == pytest.approx(want, rel=1e-12)

    def test_linear_111_exact_rational_oracle(self):
        # E[I3_lin] is tmi_sum of the exact block averages, with S = 0 at q in {0, N}
        def avg_s(n, q):
            return Fraction(0) if q in (0, n) else avg_linear_entropy_ps(Fraction(n), q)

        for n in range(3, 40):
            exact = tmi_sum([avg_s(n, q) for q in tmi_blocks(1, 1, 1)])
            assert isinstance(exact, Fraction)
            assert exact == Fraction((n - 3) * (n * n - n + 4), 4 * n * (n - 1) * (n - 2))
            assert avg_tmi_linear_ps_111(n) == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_sign_claims(self):
        for q in range(1, 30):
            assert avg_tmi_vn_ps(q) > 0
        for n, q in [(12, 1), (12, 2), (30, 5), (60, 10)]:
            assert avg_tmi_vn_wishart(q, n) < 0

    def test_blocks_estimate_reduces_to_equal_case(self):
        for n, q in [(12, 2), (24, 4)]:
            assert avg_tmi_vn_wishart_blocks(n, (q, q, q)) == pytest.approx(
                avg_tmi_vn_wishart(q, n), rel=1e-12)


class TestMonteCarlo:
    def test_purity_convergence_sweep(self):
        for n in (8, 12):
            results = mc_purity_sweep(n, samples=4000, seed=n)
            for q, res in results.items():
                want = avg_purity_ps(n, q)
                assert abs(res.mean - want) <= 3 * res.stderr + 1e-12

    def test_sweep_matches_single(self):
        sweep = mc_purity_sweep(10, samples=500, seed=4, qs=[2, 5])
        single = mc_purity(10, 2, 500, seed=4)
        assert sweep[2].mean == pytest.approx(single.mean, rel=1e-12)

    def test_tmi_linear_mean(self):
        res = mc_tmi(12, (1, 1, 1), LINEAR, 20000, seed=13)
        assert abs(res.mean - avg_tmi_linear_ps_111(12)) <= 3 * res.stderr

    def test_fit_alpha_near_two_thirds(self):
        alpha = fit_vn_alpha([(60, 30), (80, 40)], samples=300, seed=2)
        assert 0.55 < alpha < 0.8

    @pytest.mark.parametrize("n", [2, 3, 12, 40])
    @pytest.mark.parametrize("kind", [VON_NEUMANN, LINEAR, renyi(2.0)], ids=lambda k: k.tag)
    def test_block_entropy_samples_match_per_size_path(self, n, kind):
        # mc_block_entropy_samples takes block_entropies_batch's entropies; the
        # per-size spectrum it took before is the oracle: the same bytes but at
        # q in {1, N-1} for vN and Renyi, whose 2 x 2 spectra are closed-form now
        count, seed = 300, 2 ** 63 + 5
        amps = ps_amplitude_batch(n, seed, count)
        for q in sorted({1, 2, n // 2, n - 2, n - 1} & set(range(1, n))):
            got = mc_block_entropy_samples(n, q, kind, count, seed)
            want = entropy_from_eigenvalues(block_spectra_batch(amps, n, q), kind)
            if kind.tag == "linear" or 2 <= q <= n - 2:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestShardInvariance:
    """Monte Carlo results do not depend on how the index range is split."""

    # (rows per block, threads); rows None is the default rule
    SPLITS = [(None, 1), (1, 1), (7, 1), (None, 2), (1, 2), (7, 2)]

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.integers(6, 14), st.integers(1, 30), st.integers(0, 2 ** 63 - 1))
    def test_splits_give_identical_results(self, n, samples, seed):
        def runs(fn, *args):
            return [in_blocks(rows, fn, *args, threads=threads) for rows, threads in self.SPLITS]

        for out in (
            runs(mc_tmi_samples, n, (1, 2, 2), LINEAR, samples, seed),
            runs(functional_samples, n, ("vn", 3), samples, seed),
            runs(functional_samples, n, ("linear", 2), samples, seed),
            runs(functional_samples, n, ("tmi", (1, 1, 1), LINEAR), samples, seed),
        ):
            for other in out[1:]:
                assert other.tobytes() == out[0].tobytes()
        sweeps = runs(mc_purity_sweep, n, samples, seed, [1, 3, n - 2])
        assert all(other == sweeps[0] for other in sweeps[1:])

    def test_splits_across_several_derived_blocks(self):
        # 1,000 samples span several default blocks of every call at N=40:
        # three of 431 rows for the largest fold s=3 of TMI (1, 1, 1), four
        # of 303 (s=5) and five of 204 (s=9) for the other TMIs, seven of
        # 148 for the purity sweep and the PS(40, 20) spectrum, and 13
        # Wishart(41, 20) blocks (79 rows, 1 MiB // (16 * 41 * 20))
        n, samples, seed = 40, 1000, 2 ** 63 + 5
        assert _block_rows(n) == 148 and ensembles._gram_rows(41, 20) == 79
        assert [_block_rows(n, s) for s in (3, 5, 9)] == [431, 303, 204]
        for fn in (
            lambda threads: mc_tmi_samples(n, (1, 2, 2), LINEAR, samples, seed, threads),
            lambda threads: mc_tmi_samples(n, (2, 3, 4), VON_NEUMANN, samples, seed, threads),
            lambda threads: functional_samples(n, ("tmi", (1, 1, 1), LINEAR), samples, seed,
                                               threads),
            lambda threads: np.array([(r.mean, r.stderr) for r in
                                      mc_purity_sweep(n, samples, seed,
                                                      threads=threads).values()]),
            lambda threads: ensemble_eigenvalues(EnsembleSpec("ps", (n, 20), samples, seed),
                                                 threads),
            lambda threads: ensemble_eigenvalues(
                EnsembleSpec("wishart", (41, 20), samples, seed), threads),
        ):
            want = fn(1).tobytes()
            assert in_blocks(7, fn, 1).tobytes() == want
            assert fn(2).tobytes() == want

    def test_default_blocks_fit_the_largest_fold(self, monkeypatch):
        # a block is sized by the largest matrix the call forms: the
        # (s+1) x (N-s+1) coefficients of its largest folded block size s
        map_chunks, chunks = ensembles._map_index_chunks, []

        def spy(total, chunk, threads, worker):
            chunks.append(chunk)
            return map_chunks(total, chunk, threads, worker)
        monkeypatch.setattr(ensembles, "_map_index_chunks", spy)
        n = 40
        for call, s in (
            (lambda: functional_samples(n, ("tmi", (1, 1, 1), LINEAR), 10, 1), 3),
            (lambda: functional_samples(n, ("linear", 38), 10, 1), 2),
            (lambda: mc_tmi_samples(n, (1, 2, 2), LINEAR, 10, 1), 5),
            (lambda: mc_purity_sweep(n, 10, 1, [1, 3, 36]), 4),
            (lambda: mc_purity_sweep(n, 10, 1), 20),
            (lambda: ensemble_eigenvalues(EnsembleSpec("ps", (n, 37), 10, 1)), 3),
        ):
            call()
            assert chunks.pop() == _block_rows(n, s)
        assert _block_rows(n, 3) == 431
        with pytest.raises(DomainError, match="exceed"):
            mc_tmi_samples(6, (3, 3, 1), LINEAR, 10, 1)
        with pytest.raises(DomainError, match="exceed"):
            functional_samples(6, ("tmi", (3, 3, 1), LINEAR), 10, 1)
        with pytest.raises(DomainError, match="exceed"):
            mc_tmi_full_samples(6, (3, 3, 1), LINEAR, 10, 1)
        assert not chunks

    def test_gram_blocks_fit_the_largest_matrix(self, monkeypatch):
        # rows cut to n1 x n2, whose Grams are at most min(n1, n2) square, take
        # _block_rows(n1 + n2 - 2, n1 - 1) = 1 MiB // (16 n1 n2) rows:
        # Wishart(n1, n2), and the full-space TMI's ABC cut, n1 = 2^k and
        # n2 = 2^(N-k) with k = q1 + q2 + q3, whose product is 2^N for every k
        map_chunks, chunks = ensembles._map_index_chunks, []

        def spy(total, chunk, threads, worker):
            chunks.append(chunk)
            return map_chunks(total, chunk, threads, worker)
        monkeypatch.setattr(ensembles, "_map_index_chunks", spy)
        for call, n1, n2, rows in (
            (lambda: ensemble_eigenvalues(EnsembleSpec("wishart", (101, 101), 2, 1)), 101, 101, 6),
            (lambda: ensemble_eigenvalues(EnsembleSpec("wishart", (41, 20), 2, 1)), 41, 20, 79),
            (lambda: ensemble_eigenvalues(EnsembleSpec("wishart", (7, 3), 2, 1)), 7, 3, 3120),
            (lambda: ensemble_eigenvalues(EnsembleSpec("wishart", (3, 7), 2, 1)), 3, 7, 3120),
            (lambda: mc_tmi_full_samples(12, (1, 2, 2), VON_NEUMANN, 2, 1), 32, 128, 16),
            (lambda: mc_tmi_full_samples(8, (4, 2, 2), VON_NEUMANN, 2, 1), 256, 1, 256),
            (lambda: mc_tmi_full_samples(14, (1, 1, 1), LINEAR, 2, 1), 8, 2048, 4),
        ):
            call()
            assert chunks.pop() == rows == max(1, 2 ** 20 // (16 * n1 * n2))
            assert rows == _block_rows(n1 + n2 - 2, n1 - 1)
        assert not chunks

    @pytest.mark.parametrize("threads", [0, -4, 2.5])
    def test_threads_must_be_a_positive_integer(self, threads, monkeypatch):
        # before, these ran serially, and 2.5 with several blocks reached
        # ThreadPoolExecutor(max_workers=2.5); 3-row blocks make several
        monkeypatch.setattr(ensembles, "_block_rows", lambda n_qubits, s=None: 3)
        with pytest.raises(DomainError, match="threads"):
            mc_tmi_samples(6, (1, 1, 1), LINEAR, 10, 1, threads=threads)
        with pytest.raises(DomainError, match="threads"):
            functional_samples(6, ("vn", 2), 10, 1, threads=threads)
        with pytest.raises(DomainError, match="threads"):
            ensemble_eigenvalues(EnsembleSpec("wishart", (2, 2), 10, 1), threads=threads)

    def test_one_sampler_draws_every_ensemble(self):
        # only ps_amplitude_batch re-keys a generator per sample, and no code
        # draws Wishart matrices one by one: its ensemble is rows of that sampler
        rekeys, wishart_calls = [], []
        for path in sorted(pathlib.Path(ensembles.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "stream" and (len(node.args) >= 3
                                             or any(k.arg == "rng" for k in node.keywords)):
                        rekeys.append((path.name, fn.name))
                    if name == "sample_wishart_rdm":
                        wishart_calls.append((path.name, fn.name))
        assert rekeys == [("ensembles.py", "ps_amplitude_batch")]
        assert wishart_calls == []
        # every Haar row is normalised by _haar_rows alone, and both ensembles'
        # spectra take one _mc_samples call and no per-kind spectrum kernel
        source = pathlib.Path(ensembles.__file__).read_text(encoding="utf-8")
        calls = [(fn.name, ast.unparse(node.func), [ast.unparse(a) for a in node.args])
                 for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, ast.Call)]
        assert "_complex_normals" not in source
        assert [func for _, func, _ in calls if func.split(".")[-1] == "norm"] == []
        assert {fn for fn, func, args in calls
                if func.endswith(".view") and args == ["complex"]} == {"_haar_rows"}
        assert [func for _, func, _ in calls if func == "block_spectra_batch"] == []
        spectra = [func for fn, func, _ in calls if fn == "ensemble_eigenvalues"]
        assert spectra.count("_mc_samples") == 1

    def test_full_space_samples_take_the_thread_count(self, monkeypatch, tmp_path):
        # tmi-random --ensemble wishart hands --threads to mc_tmi_full_samples,
        # whose bytes do not depend on it (before, its blocks ran on one thread)
        map_chunks, seen = ensembles._map_index_chunks, []

        def spy(total, chunk, threads, worker):
            seen.append(threads)
            return map_chunks(total, chunk, threads, worker)
        monkeypatch.setattr(ensembles, "_map_index_chunks", spy)
        assert cli.main(["tmi-random", "--n", "6", "--blocks", "1,1,1", "--ensemble", "wishart",
                         "--samples", "40", "--threads", "2", "--out", str(tmp_path)]) == 0
        assert seen == [2]
        want = mc_tmi_full_samples(6, (1, 1, 1), VON_NEUMANN, 40, 1)
        got = in_blocks(7, mc_tmi_full_samples, 6, (1, 1, 1), VON_NEUMANN, 40, 1, threads=2)
        assert got.tobytes() == want.tobytes()

    def test_block_size_is_not_an_option(self):
        # every Monte Carlo block is sized by core._block_rows: no function takes
        # `chunk` but the index map itself, whose parameter names perfbench's
        # tracer binds, and no module but ensembles maps index chunks
        params, refs = chunk_parameters_and_map_references()
        assert params == [("ensembles.py", "_map_index_chunks")]
        assert refs and {path for path, _ in refs} == {"ensembles.py"}


def chunk_parameters_and_map_references():
    """([(file, function)] of every parameter named `chunk`, [(file, source)] of
    every reference to _map_index_chunks) in src/permsym."""
    params, refs = [], []
    for path in sorted(pathlib.Path(ensembles.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
                if "chunk" in names:
                    params.append((path.name, getattr(node, "name", "<lambda>")))
            elif (isinstance(node, ast.Name) and node.id == "_map_index_chunks"
                  or isinstance(node, ast.Attribute) and node.attr == "_map_index_chunks"
                  or isinstance(node, ast.alias) and node.name == "_map_index_chunks"
                  or isinstance(node, ast.Constant) and node.value == "_map_index_chunks"):
                refs.append((path.name, ast.unparse(node)))
    return params, refs


class TestWorkingSet:
    """Peak traced allocation of default-blocked runs (with the earlier fixed
    4096- and 512-row chunks these peaked at 26.6 MB and 253 MB)."""

    BOUND = 8 * 2 ** 20

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_purity_sweep(self):
        assert self.peak(lambda: mc_purity_sweep(20, 8192, 3)) <= self.BOUND

    def test_large_block_spectra(self):
        spec = EnsembleSpec("ps", (200, 100), 600, 3)
        assert self.peak(lambda: ensemble_eigenvalues(spec)) <= self.BOUND


class TestFullSpace:
    @pytest.mark.parametrize("n, sizes", [(4, (1, 1, 1)), (8, (1, 2, 2)), (8, (4, 2, 2)),
                                          (9, (2, 3, 1)), (12, (1, 2, 2))])
    @pytest.mark.parametrize("kind", [VON_NEUMANN, LINEAR, renyi(2.0)], ids=lambda k: k.tag)
    def test_batch_matches_rows(self, n, sizes, kind):
        # leading batch axes give each row's bytes, and the Monte Carlo
        # estimator is the batch over sampler rows in any blocking
        amps = ps_amplitude_batch(2 ** n - 1, 3, 6)
        rows = np.array([tmi_full_state(psi, n, sizes, kind) for psi in amps])
        assert tmi_full_state(amps, n, sizes, kind).tobytes() == rows.tobytes()
        stacked = tmi_full_state(amps.reshape(2, 3, -1), n, sizes, kind)
        assert stacked.shape == (2, 3) and stacked.tobytes() == rows.tobytes()
        for block in ([0], [n - 1, 1], list(range(n - 1))):
            one = np.stack([reduced_density_full(psi, block, n) for psi in amps])
            assert reduced_density_full(amps, block, n).tobytes() == one.tobytes()
        for blocks in (1, 4, None):
            got = in_blocks(blocks, mc_tmi_full_samples, n, sizes, kind, 6, 3)
            assert got.tobytes() == rows.tobytes()

    def test_reduction_matches_kron_oracle(self):
        rng = np.random.default_rng(3)
        single = [None] * 4
        for i in range(4):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            single[i] = v / np.linalg.norm(v)
        psi = single[0]
        for v in single[1:]:
            psi = np.kron(psi, v)
        rho = reduced_density_full(psi, [1, 3], 4)
        want = np.kron(np.outer(single[1], single[1].conj()),
                       np.outer(single[3], single[3].conj()))
        np.testing.assert_allclose(rho, want, atol=1e-12)

    def test_product_state_tmi_zero(self):
        rng = np.random.default_rng(5)
        psi = np.ones(1)
        for _ in range(6):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = np.kron(psi, v / np.linalg.norm(v))
        assert abs(tmi_full_state(psi, 6, (1, 2, 2), VON_NEUMANN)) < 1e-10

    @pytest.mark.parametrize("n, sizes", [(8, (1, 1, 1)), (12, (1, 2, 2)), (8, (4, 2, 2)),
                                          (9, (2, 2, 2)), (10, (3, 2, 3))])
    @pytest.mark.parametrize("kind", [VON_NEUMANN, LINEAR, renyi(2.0)], ids=lambda k: k.tag)
    def test_blocks_reduce_from_the_smaller_side(self, n, sizes, kind, monkeypatch):
        # a block of more than half the qubits is reduced through its
        # complement, so no Gram exceeds 2^(N//2) square; the kept-side
        # entropies are the oracle, with their bytes where no block is that big
        amps = ps_amplitude_batch(2 ** n - 1, 5, 4)
        want = kept_side_tmi_full(amps, n, sizes, kind)
        reduce, kept = ensembles.reduced_density_full, []

        def spy(psi, keep, n_qubits):
            kept.append(len(keep))
            return reduce(psi, keep, n_qubits)
        monkeypatch.setattr(ensembles, "reduced_density_full", spy)
        got = tmi_full_state(amps, n, sizes, kind)
        assert len(kept) == 7 and max(kept) <= n // 2
        if 2 * sum(sizes) <= n:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_ps_tmi_on_symmetric_state(self):
        # the full-space route and the Dicke-basis route agree on PS states
        from permsym.core import PSState, embed_to_full
        from permsym.measures import tmi as ps_tmi
        rng = np.random.default_rng(7)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        state = PSState(z / np.linalg.norm(z))
        psi = embed_to_full(state)
        for sizes in [(1, 1, 1), (1, 2, 2)]:
            assert tmi_full_state(psi, 8, sizes, VON_NEUMANN) == pytest.approx(
                ps_tmi(state, *sizes, VON_NEUMANN), abs=1e-9)
