import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from permsym.core import PSState, coherent_amplitudes, coherent_state
from permsym.errors import CapacityError, DomainError, IntegrityError
import permsym.kickedtop as kickedtop
from permsym.kickedtop import (KickedTopParams, _block_map, _check_trace_pair,
                               _check_unitary, _grid_orbits, _parity_block,
                               _real_trace, _rotation, build_spin_system,
                               classical_step, classical_tangent_step,
                               ehrenfest_time, lyapunov_exponent, otoc_growth_rate,
                               otoc_series, phase_portrait, saturation_residuals,
                               time_averaged_tmi_grid, timeseries_measures)
from permsym.measures import LINEAR, VON_NEUMANN, block_entropy, tmi_batch

from helpers import (RECURSION_MUTATIONS, angular_momentum_matrices, dense_floquet,
                     half_pi_rotation, parity_bases, real_rotation, sector_blocks,
                     sector_rotation, two_trace_otoc)

def _no_fallback(u):
    raise AssertionError("the O(d^2) check fell back to the d^3 one")


# integer and half-integer spins up to 20, kick strengths and rotation angles
SPINS = st.integers(1, 40).map(lambda two_j: two_j / 2)
KICKS = st.floats(0.0, 10.0)
ANGLES = st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def coherent_point(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def bloch_vector(amps, j):
    """Expectation (X, Y, Z) = <J>/j of Dicke amplitudes, from the dense spin matrices."""
    v = amps[::-1]  # Dicke index m is m_z = j - m
    return np.array([np.vdot(v, mat @ v).real for mat in angular_momentum_matrices(j)]) / j


def unreduced_tmi_grid(params, grid, n_steps, blocks, kind):
    """Reference time-averaged TMI grid: every node evolved on its own."""
    n_theta, n_phi = grid
    n = params.n_qubits
    u_t = build_spin_system(params).T.copy()
    thetas = np.linspace(0.0, math.pi, n_theta, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    amps = coherent_amplitudes(n, tt.ravel(), pp.ravel())
    acc = np.zeros(amps.shape[0])
    for _ in range(n_steps):
        amps = amps @ u_t
        acc += tmi_batch(amps, n, blocks, kind)
    return (acc / n_steps).reshape(n_theta, n_phi)


def dense_otoc(params, n_max):
    """Reference C2(n), C4(n): full-size conjugation Jx(n+1) = U^dag Jx(n) U
    and dense traces, four d x d products per kick."""
    u, (a, _, _) = dense_floquet(params), angular_momentum_matrices(params.j)
    a2 = a @ a
    scale = params.j ** 4
    c2 = [np.vdot(a2, a2).real / scale]
    c4 = [c2[0]]
    b = np.array(a)
    for _ in range(n_max):
        b = u.conj().T @ b @ u
        c2.append(np.vdot(a2, b @ b).real / scale)
        p = b @ a
        c4.append(np.einsum("ij,ji->", p, p).real / scale)
    return np.array(c2), np.array(c4)


def complex_sector_otoc(params, n_max):
    """Reference C2(n), C4(n) by the two-complex-product sector loop: the
    sector blocks u_s = v_s^dag U v_s of the dense Floquet matrix, the
    even->odd block X of Jx, X_n = u_e^dag X_{n-1} u_o, and dense half-size
    trace products P_e = X_n X^dag, P_o = X_n^dag X."""
    u, (jx, _, _) = dense_floquet(params), angular_momentum_matrices(params.j)
    v_e, v_o = (v.toarray() for v in parity_bases(params.dim))
    u_e_dag = (v_e.conj().T @ u @ v_e).conj().T
    u_o = v_o.conj().T @ u @ v_o
    x = v_e.conj().T @ jx @ v_o
    scale = params.j ** 4
    c2, c4 = [], []
    xn = x
    for n in range(n_max + 1):
        if n:
            xn = u_e_dag @ xn @ u_o
        p_e, p_o = xn @ x.conj().T, xn.conj().T @ x
        c2.append((np.vdot(p_e, p_e) + np.vdot(p_o, p_o)).real / scale)
        c4.append((np.einsum("ij,ji->", p_e, p_e)
                   + np.einsum("ij,ji->", p_o, p_o)).real / scale)
    return np.array(c2), np.array(c4)


def sector_jy_blocks(two_j):
    """The blocks of Jy on the two parity sectors, built densely."""
    _, jy, _ = angular_momentum_matrices(two_j / 2)
    return [v.conj().T @ jy @ v for v in parity_bases(two_j + 1)]


def sector_rotations(two_j, p):
    """The blocks of _rotation's R on the two parity sectors, as otoc_series takes them."""
    dim = two_j + 1
    lam = (-1.0) ** (dim // 2) if dim % 2 else 1j
    r = _rotation(two_j / 2, p)
    return [_parity_block(r, lam, (dim + 1) // 2, (dim + 1) // 2),
            _parity_block(r, -lam, dim // 2, dim // 2)]


def parity_operator(dim):
    """Pi = S F: F flips m -> -m, S = diag((-1)^i) in the ascending basis."""
    return np.diag((-1.0) ** np.arange(dim))[:, ::-1]


def assert_matches_dense(params, n_max):
    series = otoc_series(params, n_max)
    c2, c4 = dense_otoc(params, n_max)
    scale = np.abs(c2).max()
    assert series.f[0] == 0.0
    assert np.abs(series.c2 - c2).max() <= 1e-12 * scale
    assert np.abs(series.c4 - c4).max() <= 1e-12 * scale
    assert np.abs(series.f - 2 * (c2 - c4)).max() <= 1e-12 * scale


class TestSpinSystem:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            KickedTopParams(0.3, 1.0)
        with pytest.raises(DomainError):
            KickedTopParams(2.0, -1.0)

    @pytest.mark.parametrize("j", [30.0, 30.5, 300.0])
    @pytest.mark.parametrize("offset", [1e-10, -1e-10])
    def test_near_half_integer_spin_is_snapped(self, j, offset):
        # the kernels used the raw j, and 300 + 1e-10 failed the d-matrix's
        # 1e-10 column-norm check
        params = KickedTopParams(j + offset, 6.0)
        assert params.j == j and type(params.j) is float and params.dim == round(2 * j) + 1
        exact = KickedTopParams(j, 6.0)
        assert build_spin_system(params).tobytes() == build_spin_system(exact).tobytes()
        near, want = otoc_series(params, 3), otoc_series(exact, 3)
        for name in ("f", "c2", "c4"):
            assert getattr(near, name).tobytes() == getattr(want, name).tobytes()

    def test_exact_spin_is_stored_as_float(self):
        for j in (2, np.float64(2.0), 2.0):
            assert KickedTopParams(j, 1.0) == KickedTopParams(2.0, 1.0)
            assert type(KickedTopParams(j, 1.0).j) is float

    @pytest.mark.parametrize("bad", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                     (2.0, math.inf, 1.0), (2.0, math.nan, 1.0),
                                     (2.0, 1.0, math.nan), (2.0, 1.0, -math.inf)])
    def test_non_finite_params(self, bad):
        with pytest.raises(DomainError):
            KickedTopParams(*bad)

    def test_nan_fails_unitarity_check(self):
        with pytest.raises(IntegrityError):
            _check_unitary(np.full((2, 2), np.nan))

    def test_commutator_invariant(self):
        for j in (0.5, 1.0, 7.5, 20.0):
            jx, jy, jz = angular_momentum_matrices(j)
            defect = np.abs(jx @ jy - jy @ jx - 1j * jz).max()
            assert defect < 1e-9 * j ** 2 + 1e-12

    def test_jz_diagonal_ascending(self):
        _, _, jz = angular_momentum_matrices(1.5)
        np.testing.assert_allclose(np.diagonal(jz).real, [-1.5, -0.5, 0.5, 1.5])
        assert np.abs(jz - np.diag(np.diagonal(jz))).max() == 0.0

    def test_unitarity(self):
        for j in (0.5, 6.0, 41.5):
            u = build_spin_system(KickedTopParams(j, 3.7, 1.1))
            defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            assert defect < 1e-10

    def test_half_spin_pure_rotation(self):
        # k=0, p=pi/2: U = exp(-i pi sigma_y / 4), a real 45-degree rotation
        # (off-diagonal signs depend on the basis ordering convention)
        u = build_spin_system(KickedTopParams(0.5, 0.0, math.pi / 2))
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        assert np.abs(u.imag).max() < 1e-14
        assert u[0, 0].real == pytest.approx(c, abs=1e-14)
        assert u[1, 1].real == pytest.approx(c, abs=1e-14)
        assert abs(u[0, 1].real) == pytest.approx(s, abs=1e-14)
        assert u[0, 1].real == pytest.approx(-u[1, 0].real, abs=1e-14)
        assert np.linalg.det(u.real) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_exponential_oracle(self):
        # independent scaling-and-squaring route for both factors
        params = KickedTopParams(10.0, 6.0, math.pi / 2)
        u = build_spin_system(params)[::-1, ::-1]  # to the ascending |j, m> basis
        jx, jy, jz = angular_momentum_matrices(10.0)
        want = expm(-1j * params.k / (2 * params.j) * jz @ jz) @ expm(-1j * params.p * jy)
        assert abs(np.trace(u) - np.trace(want)) < 1e-8
        assert np.abs(u - want).max() < 1e-8

    @pytest.mark.parametrize("two_j", list(range(1, 41)) + [120, 121, 600, 601, 1500, 1501])
    def test_matches_dense_eigh_oracle(self, two_j, monkeypatch):
        # the real d-matrix rotation, for integer and half-integer j, against
        # the dense complex eigh that built U before: U = K R with K diagonal
        # and unimodular, so this bounds R's error as well
        rotation, rotations = kickedtop._rotation, []

        def spy(j, p):
            rotations.append(rotation(j, p))
            return rotations[-1]
        monkeypatch.setattr(kickedtop, "_rotation", spy)
        for p in (math.pi / 2, 1.1, 0.3):
            params = KickedTopParams(two_j / 2, 6.0, p)
            u = build_spin_system(params)
            assert u.dtype == np.complex128 and u.flags.c_contiguous
            assert np.abs(u - dense_floquet(params)[::-1, ::-1]).max() <= 1e-13
        assert [(r.dtype, r.shape) for r in rotations] == [(np.float64, (two_j + 1,) * 2)] * 3

    @pytest.mark.parametrize("two_j", [1, 3, 4, 6, 20, 21, 600, 601, 1500, 1501])
    def test_rotation_matches_sector_rotation_oracle(self, two_j):
        # R against one eigh of the full Jy, the kernel it replaced
        _, jy, _ = angular_momentum_matrices(two_j / 2)
        for p in (math.pi / 2, 1.1, 0.3):
            assert np.abs(_rotation(two_j / 2, p) - sector_rotation(jy, p, True)).max() <= 1e-12

    def test_rotation_at_dim_cap(self, monkeypatch):
        # j = 4095, 2j+1 = DIM_CAP - 1: the start row's 2^-j underflows, so
        # its columns are rescaled; Delta^T Delta - I in row blocks of its
        # upper triangle, to hold 67 MB instead of a second 537 MB matrix
        assert 0.5 ** 4095 == 0.0
        delta = kickedtop._half_pi_d_matrix(4095.0)
        assert np.isfinite(delta).all()
        worst = 0.0
        for lo in range(0, len(delta), 1024):
            block = delta[:, lo:lo + 1024].T @ delta[:, lo:]
            block[np.arange(len(block)), np.arange(len(block))] -= 1.0
            worst = max(worst, np.abs(block).max())
        assert worst <= 1e-10
        # and _rotation's O(d^2) check passes it without the d^3 fallback
        monkeypatch.setattr(kickedtop, "_check_unitary", _no_fallback)
        kickedtop._check_jx_eigenvectors(delta, 4095.0)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 20, 21, 600, 601, 1500, 1501])
    def test_eigen_residual_passes_the_d_matrix_in_o_d2(self, two_j, monkeypatch):
        monkeypatch.setattr(kickedtop, "_check_unitary", _no_fallback)
        kickedtop._check_jx_eigenvectors(kickedtop._half_pi_d_matrix(two_j / 2), two_j / 2)

    @pytest.mark.parametrize("two_j", [20, 21, 600])
    def test_eigen_residual_check_fails_as_the_unitarity_check(self, two_j):
        # on perturbed d-matrices the O(d^2) check raises iff _check_unitary
        # does, with its message; a column swap and a Givens rotation stay
        # orthogonal and pass by the fallback
        j = two_j / 2
        delta = kickedtop._half_pi_d_matrix(j)

        def perturbed():
            for size in (1e-13, 1e-11, 1e-9, 1e-6):
                entry = delta.copy()
                entry[two_j // 2, 1] += size
                column = delta.copy()
                column[:, 2] *= 1.0 + size
                c, s = math.cos(size), math.sin(size)
                rotated = delta.copy()
                rotated[:, :2] = delta[:, :2] @ np.array([[c, -s], [s, c]])
                yield from (entry, column, rotated)
            flipped = delta.copy()
            flipped[(two_j + 2) // 2:, 1] *= -1.0
            nan = delta.copy()
            nan[0, 0] = np.nan
            yield from (delta[:, ::-1].copy(), flipped, nan)

        passed = []
        for u in perturbed():
            outcomes = []
            for check in (_check_unitary, lambda u: kickedtop._check_jx_eigenvectors(u, j)):
                try:
                    check(u)
                    outcomes.append(None)
                except IntegrityError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            passed.append(outcomes[0] is None)
        assert True in passed and False in passed

    @pytest.mark.parametrize("mutation, check", [("start-row", "column norm"),
                                                 ("reflection-sign", "unitarity"),
                                                 ("nan-ladder", "column norm")])
    def test_perturbed_eigenvectors_fail_health_checks(self, mutation, check, monkeypatch):
        # Delta's columns are Jx's eigenvectors: a start row off by 1e-8, a
        # flipped reflection sign or a NaN ladder entry fails a check, on
        # the Floquet matrix and in the OTOC, at and away from p = pi/2
        RECURSION_MUTATIONS[mutation](monkeypatch)
        for j in (2.0, 2.5, 30.0):
            for p in (math.pi / 2, 1.1):
                with pytest.raises(IntegrityError, match=check):
                    build_spin_system(KickedTopParams(j, 6.0, p))
                with pytest.raises(IntegrityError, match=check):
                    otoc_series(KickedTopParams(j, 6.0, p), 3)

    def test_capacity_cap(self, monkeypatch):
        with pytest.raises(CapacityError):
            build_spin_system(KickedTopParams(5000.0, 1.0))
        # one shared check: 2j+1 = DIM_CAP passes it, DIM_CAP + 1 does not
        monkeypatch.setattr(kickedtop, "DIM_CAP", 11)
        for build in (build_spin_system, lambda params: otoc_series(params, 1)):
            build(KickedTopParams(5.0, 1.0))
            with pytest.raises(CapacityError, match="exceeds cap 11"):
                build(KickedTopParams(5.5, 1.0))


class TestEvolve:
    def test_rotation_preserves_coherence(self):
        # k=0 is integrable: coherent states stay coherent (product states)
        amps = coherent_state(5, 1.2, 0.7).amplitudes
        u = build_spin_system(KickedTopParams(5, 0.0, math.pi / 2))
        for _ in range(13):
            assert block_entropy(PSState(amps), 1, LINEAR) < 1e-9
            amps = u @ amps

    def test_norm_drift_bounded(self):
        amps = coherent_state(10, 2.25, 0.63).amplitudes
        u = build_spin_system(KickedTopParams(10, 6.0))
        for _ in range(1000):
            amps = u @ amps
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-9


class TestQuantumClassicalCorrespondence:
    def test_one_kick_large_j(self):
        j, k, p = 200.0, 6.0, math.pi / 2
        u = build_spin_system(KickedTopParams(j, k, p))
        for theta, phi in [(2.25, 0.63), (1.1, 2.0), (0.7, 4.4)]:
            quantum = bloch_vector(u @ coherent_amplitudes(400, theta, phi), j)
            classical = classical_step(coherent_point(theta, phi), k, p)
            assert np.abs(quantum - classical).max() < 5 / math.sqrt(j)

    def test_initial_bloch_vector(self):
        j = 50.0
        np.testing.assert_allclose(bloch_vector(coherent_amplitudes(100, 2.25, 0.63), j),
                                   coherent_point(2.25, 0.63), atol=1e-10)


class TestClassicalMap:
    def test_pure_rotation_example(self):
        out = classical_step([1.0, 0.0, 0.0], 0.0, math.pi / 2)
        np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((200, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for k in (0.0, 3.0, 6.0):
            out = classical_step(v, k, math.pi / 2)
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_tangent_step_is_jacobian(self):
        # finite-difference oracle for the tangent push-forward
        rng = np.random.default_rng(1)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        u = rng.standard_normal(3)
        eps = 1e-7
        _, ju = classical_tangent_step(v, u, 6.0, math.pi / 2)
        fd = (classical_step(v + eps * u, 6.0, math.pi / 2)
              - classical_step(v - eps * u, 6.0, math.pi / 2)) / (2 * eps)
        np.testing.assert_allclose(ju, fd, atol=1e-6)


class TestLyapunov:
    def test_rotation_is_neutral(self):
        lam = lyapunov_exponent(0.0, math.pi / 2, 100, 1000, 8,
                                np.random.default_rng(3))
        assert abs(lam) < 0.01

    def test_global_chaos_value(self):
        lam = lyapunov_exponent(6.0, math.pi / 2, 200, 4000, 32,
                                np.random.default_rng(4))
        assert 0.92 <= lam <= 1.02

    def test_mixed_phase_space_contrast(self):
        sea = lyapunov_exponent(3.0, math.pi / 2, 200, 4000, 1,
                                np.random.default_rng(5),
                                initial_points=[coherent_point(2.25, 2.0)])
        island = lyapunov_exponent(3.0, math.pi / 2, 200, 4000, 1,
                                   np.random.default_rng(5),
                                   initial_points=[coherent_point(2.25, 0.63)])
        assert sea > 0.1
        assert abs(island) < 0.02

    def test_trajectory_separation_oracle(self):
        # two nearby trajectories: log-separation growth classifies the
        # same two initial conditions the tangent method does
        def growth(point, steps=18, delta=1e-9):
            a = np.array(point)
            b = a + delta * np.array([1.0, -0.5, 0.25])
            b /= np.linalg.norm(b)
            start = np.linalg.norm(a - b)
            for _ in range(steps):
                a = classical_step(a, 3.0, math.pi / 2)
                b = classical_step(b, 3.0, math.pi / 2)
            return math.log(np.linalg.norm(a - b) / start) / steps

        assert growth(coherent_point(2.25, 2.0)) > 0.15
        assert growth(coherent_point(2.25, 0.63)) < 0.05


class TestEhrenfest:
    def test_reference_value(self):
        assert ehrenfest_time(750, 0.97) == pytest.approx(7.54, abs=0.01)

    def test_unit_lambda_definition(self):
        j = (math.e - 1) / 2
        assert ehrenfest_time(j, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_law(self):
        # 2j+1 -> 2(2j+1) adds exactly ln(2)/lambda
        lam = 0.8
        assert ehrenfest_time(64, lam) - ehrenfest_time(31.75, lam) == pytest.approx(
            math.log(2) / lam, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ehrenfest_time(10, 0.0)


class TestOtoc:
    def test_zero_step_values(self):
        s = otoc_series(KickedTopParams(5, 6.0), 3)
        assert s.f[0] == 0.0
        jx, _, _ = angular_momentum_matrices(5.0)
        want = np.trace(np.linalg.matrix_power(jx, 4)).real / 5.0 ** 4
        assert s.c2[0] == pytest.approx(want, rel=1e-12)
        assert s.c4[0] == pytest.approx(want, rel=1e-12)

    def test_commutator_identity(self):
        s = otoc_series(KickedTopParams(8, 6.0), 10)
        np.testing.assert_allclose(s.f, 2 * (s.c2 - s.c4), rtol=1e-8, atol=1e-12)

    def test_rotation_bounded(self):
        # k=0 conjugation is periodic: no exponential envelope
        s = otoc_series(KickedTopParams(5, 0.0), 60)
        assert s.f.max() <= s.f[1] * (1 + 1e-9)
        np.testing.assert_allclose(s.f[0::2], 0.0, atol=1e-9)

    def test_growth_rate_window(self):
        s = otoc_series(KickedTopParams(50, 6.0), 8)
        rate = otoc_growth_rate(s, 1, 4)
        assert rate > 1.0

    @pytest.mark.parametrize("window", [(3, 3), (5, 20), (4, 2), (-1, 3), (0, 7)])
    def test_growth_window_must_hold_two_steps_of_the_series(self, window):
        s = otoc_series(KickedTopParams(10, 6.0), 6)
        with pytest.raises(DomainError):
            otoc_growth_rate(s, *window)

    def test_growth_requires_positive_f(self):
        s = otoc_series(KickedTopParams(5, 0.0), 6)
        with pytest.raises(DomainError):
            otoc_growth_rate(s, 0, 4)

    @PROPERTY
    @given(SPINS, KICKS, ANGLES, st.integers(1, 8))
    def test_sectors_match_dense_oracle(self, j, k, p, n_max):
        assert_matches_dense(KickedTopParams(j, k, p), n_max)

    def test_real_trace_judged_against_series_bound(self):
        # the step-1 C4 trace of j=1, k=6, p=pi/2 as the full-size products
        # give it: both parts are round-off, so the real part is no scale
        # for the imaginary one; the bound j^2 Tr(Jx^2) is 2 at j=1
        assert _real_trace(complex(-2.26e-31, 2.55e-32), 2.0) == -2.26e-31
        for bad in (complex(1.0, 1e-6), complex(math.nan, 0.0),
                    complex(1.0, math.nan), complex(math.inf, 0.0)):
            with pytest.raises(IntegrityError):
                _real_trace(bad, 2.0)

    def test_round_off_traces_scan(self):
        # C4 is exactly 0 at some steps (j=1, p=pi/2); the imaginary part of
        # a trace is judged against a bound fixed for the series, not
        # against a real part that is itself round-off
        for two_j in range(1, 41):
            for k in (0.0, 1.0, 6.0):
                for p in (math.pi / 2, 1.1):
                    assert_matches_dense(KickedTopParams(two_j / 2, k, p), 12)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            otoc_series(KickedTopParams(5000.0, 1.0), 1)

    @pytest.mark.parametrize("j, p", [(30.0, math.pi / 2), (30.5, math.pi / 2), (30.0, 1.1),
                                      (300.0, math.pi / 2)])
    def test_setup_cache_over_a_kick_sweep(self, j, p, monkeypatch):
        # a sweep over k at fixed (j, p) builds and checks the set-up once,
        # and a warm set-up gives the bytes of a cold one
        checked, builds = [], []
        for name in ("_check_unitary", "_check_jx_eigenvectors", "_build_otoc_setup"):
            def spy(*args, kernel=getattr(kickedtop, name), name=name):
                (builds if name == "_build_otoc_setup" else checked).append(name)
                return kernel(*args)
            monkeypatch.setattr(kickedtop, name, spy)
        kicks = (2.0, 4.5, 8.0)
        warm = [otoc_series(KickedTopParams(j, k, p), 6) for k in kicks]
        # R (in O(d^2) at pi/2), then the kept blocks: four quarter blocks
        # at integer j and pi/2, two sector blocks otherwise
        per_build = 1 + (4 if j % 1 == 0 and p == math.pi / 2 else 2)
        assert len(builds) == 1 and len(checked) == per_build
        assert checked[0] == ("_check_jx_eigenvectors" if p == math.pi / 2 else "_check_unitary")
        for k, series in zip(kicks, warm):
            kickedtop.clear_otoc_setup()
            cold = otoc_series(KickedTopParams(j, k, p), 6)
            for name in ("f", "c2", "c4"):
                assert getattr(series, name).tobytes() == getattr(cold, name).tobytes()
        assert len(builds) == 1 + len(kicks) and len(checked) == (1 + len(kicks)) * per_build
        parts, shift_e, shift_o, r_e_dag, r_o_t, x_t, x_conj, bound = kickedtop._otoc_setup(j, p)
        arrays = list(r_e_dag + r_o_t) + [values for _, diagonals in x_t + x_conj
                                           for _, values in diagonals]
        assert len(arrays) > 2 * len(parts)  # the blocks and at least one band
        for values in arrays:
            with pytest.raises(ValueError):
                values[0] = 1.0
        # a second (j, p) evicts the first
        otoc_series(KickedTopParams(2.0, 6.0, p), 2)
        assert kickedtop._SETUP[0] == (2.0, p)
        otoc_series(KickedTopParams(j, 6.0, p), 2)
        assert len(builds) == 3 + len(kicks)

    def test_setup_miss_drops_the_old_setup_first(self, monkeypatch):
        # while a new (j, p) is built, nothing holds the previous set-up
        otoc_series(KickedTopParams(30.0, 6.0), 2)
        old = weakref.ref(kickedtop._otoc_setup(30.0, math.pi / 2)[3][0])
        rotation, alive = kickedtop._rotation, []

        def spy(j, p):
            gc.collect()
            alive.append(old() is not None)
            return rotation(j, p)
        monkeypatch.setattr(kickedtop, "_rotation", spy)
        otoc_series(KickedTopParams(30.5, 6.0), 2)
        assert alive == [False]
        kickedtop.clear_otoc_setup()
        assert kickedtop._SETUP is None

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_step_counts_must_be_positive_integers(self, bad):
        params = KickedTopParams(2.0, 6.0)
        for run in (lambda: otoc_series(params, bad),
                    lambda: time_averaged_tmi_grid(params, (2, 2), bad),
                    lambda: timeseries_measures(params, 0.3, 0.4, bad)):
            with pytest.raises(DomainError, match="must be an integer >= 1"):
                run()

    @pytest.mark.parametrize("j, p", [(300.0, math.pi / 2), (299.5, math.pi / 2)] + [
        (j, p) for j in (0.5, 1.0, 1.5, 2.0, 5.0, 10.5) for p in (math.pi / 2, 1.1)] + [
        (j, math.pi / 2) for j in (3.0, 10.0, 11.0, 301.0)])
    def test_matches_complex_sector_oracle(self, j, p, monkeypatch):
        rotate, rotated = kickedtop._rotate, []

        def spy(r, z):
            rotated.append((r.dtype, r.shape, z.shape))
            return rotate(r, z)
        monkeypatch.setattr(kickedtop, "_rotate", spy)
        params = KickedTopParams(j, 6.0, p)
        series = otoc_series(params, 20)
        c2, c4 = complex_sector_otoc(params, 20)
        scale = np.abs(c2).max()
        assert np.abs(series.c2 - c2).max() <= 1e-10 * scale
        assert np.abs(series.c4 - c4).max() <= 1e-10 * scale
        # integer j takes real products, half-integer j complex ones
        want = np.float64 if params.dim % 2 else np.complex128
        assert rotated and {dtype for dtype, _, _ in rotated} == {np.dtype(want)}
        # integer j at pi/2 exactly: four quarter-size products per kick,
        # with the two parts of a sector of sizes ceil(d_s/2) and floor(d_s/2);
        # otherwise two products of the half-size sector blocks
        sectors = (params.dim + 1) // 2, params.dim // 2
        if params.dim % 2 and p == math.pi / 2:
            sizes = {(d_s + 1) // 2 for d_s in sectors} | {d_s // 2 for d_s in sectors}
            assert len(rotated) == 4 * 20
            assert {n for _, r_shape, _ in rotated for n in r_shape} <= sizes
        else:
            assert len(rotated) == 2 * 20
            assert {r_shape for _, r_shape, _ in rotated} == {(d_s, d_s) for d_s in sectors}
        assert all(r_shape[1] == z_shape[0] for _, r_shape, z_shape in rotated)

    def test_z_split_holds_only_at_half_pi(self):
        # Z = diag((-1)^m) is +1 on part 0 and -1 on part 1 of either sector;
        # the rotation of the Pi = +1 sector keeps the split, that of the
        # Pi = -1 sector swaps it, and Jx's block is Z-odd.  At p = 1.1 the
        # same blocks carry weight, so the split needs p = pi/2 exactly.
        assert _block_map(11, 1.1) == ((slice(None),), 0, 0)
        assert _block_map(11, np.nextafter(math.pi / 2, 4)) == ((slice(None),), 0, 0)
        assert _block_map(12, math.pi / 2) == ((slice(None),), 0, 0)
        for two_j in range(2, 41, 2):
            dim = two_j + 1
            parts, shift_e, shift_o = _block_map(dim, math.pi / 2)
            bases = [v.toarray() for v in parity_bases(dim)]
            z = (-1.0) ** (np.arange(dim) - two_j // 2)
            lam = [np.vdot(v[:, 0], parity_operator(dim) @ v[:, 0]).real for v in bases]
            assert [shift_e, shift_o] == [int(eig < 0) for eig in lam]
            for v in bases:
                for a, part in enumerate(parts):
                    np.testing.assert_array_equal(z[:, None] * v[:, part], (-1) ** a * v[:, part])
            jx, _, _ = angular_momentum_matrices(two_j / 2)
            x = bases[0].conj().T @ jx @ bases[1]
            for part in parts:
                assert np.all(x[part, part] == 0.0)
            dropped = {}
            for p in (math.pi / 2, 1.1):
                dropped[p] = max(
                    np.abs(r[rows, cols]).max(initial=0.0)
                    for jy, shift in zip(sector_jy_blocks(two_j), (shift_e, shift_o))
                    for r in [sector_rotation(jy, p, real=True)]
                    for a, rows in enumerate(parts)
                    for b, cols in enumerate(parts) if b != a ^ shift)
            assert dropped[math.pi / 2] <= 1e-10
            assert dropped[1.1] > 0.1

    @pytest.mark.parametrize("two_j", list(range(2, 41, 2)) + [600, 602, 1500])
    def test_half_pi_blocks_match_sector_rotation_oracle(self, two_j):
        # the quarter blocks otoc_series slices from the d-matrix sector
        # blocks are the kept blocks of the half-size eigh rotation, for both
        # sectors and both shifts
        parts, shift_e, shift_o = _block_map(two_j + 1, math.pi / 2)
        for jy, r, shift in zip(sector_jy_blocks(two_j), sector_rotations(two_j, math.pi / 2),
                                (shift_e, shift_o)):
            want = sector_blocks(sector_rotation(jy, math.pi / 2, real=True), parts, shift)
            got = [r[rows, parts[a ^ shift]] for a, rows in enumerate(parts)]
            assert [b.shape for b in got] == [b.shape for b in want]
            assert all(b.dtype == np.float64 for b in got)
            assert max(np.abs(g - w).max(initial=0.0) for g, w in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("two_j", [10, 12])
    @pytest.mark.parametrize("corrupt, check", [
        (lambda u, s, vt: (u, s + np.eye(1, s.size, 1)[0] * 1e-8, vt), "singular value"),
        (lambda u, s, vt: (u, np.where(np.arange(s.size) == 0, math.nan, s), vt),
         "singular value"),
        (lambda u, s, vt: (u, s + 1.0, vt), "unitarity"),  # integers of the wrong parity
        (lambda u, s, vt: (u + 1e-8 * np.eye(*u.shape), s, vt), "unitarity"),
        (lambda u, s, vt: (u, s, vt + 1e-8 * np.eye(*vt.shape)), "unitarity"),
    ])
    def test_half_pi_svd_health_checks(self, two_j, corrupt, check, monkeypatch):
        # the SVD oracle's checks: a singular value off its integer (or NaN)
        # fails the integer check, a kept block made non-orthogonal the
        # orthogonality check, each in both sectors.  otoc_series takes no
        # SVD; test_perturbed_eigenvectors_fail_health_checks covers its set-up
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda b: corrupt(*svd(b)))
        parts, shift_e, shift_o = _block_map(two_j + 1, math.pi / 2)
        for jy, shift in zip(sector_jy_blocks(two_j), (shift_e, shift_o)):
            with pytest.raises(IntegrityError, match=check):
                half_pi_rotation(np.diagonal(jy, -1), parts, shift, two_j / 2)

    @pytest.mark.parametrize("bad", [1e-8, math.nan])
    @pytest.mark.parametrize("two_j", [10, 12])
    def test_dropped_rotation_block_must_be_round_off(self, two_j, bad):
        # the oracle's check; otoc_series never forms the dropped blocks, and
        # checks each kept block orthogonal instead
        parts, shift_e, _ = _block_map(two_j + 1, math.pi / 2)
        r = sector_rotation(sector_jy_blocks(two_j)[0], math.pi / 2, real=True)
        kept = sector_blocks(r, parts, shift_e)
        for a, rows in enumerate(parts):
            np.testing.assert_array_equal(kept[a], r[rows, parts[a ^ shift_e]])
        corrupt = r.copy()
        corrupt[parts[0], parts[1 - shift_e]][0, 0] += bad  # a dropped block, in place
        with pytest.raises(IntegrityError):
            sector_blocks(corrupt, parts, shift_e)

    @pytest.mark.parametrize("two_j", [8, 9, 10, 60, 61])
    def test_parity_blocks_match_dense_bases(self, two_j):
        # index arithmetic against v_s^dag a v_t with the dense parity bases:
        # the rotation's sector blocks at and away from pi/2, their quarter
        # blocks at pi/2, and Jx's even-to-odd block
        dim = two_j + 1
        v_e, v_o = (v.toarray() for v in parity_bases(dim))
        lam = (-1.0) ** (dim // 2) if dim % 2 else 1j
        parts, shift_e, shift_o = _block_map(dim, math.pi / 2)
        for p in (math.pi / 2, 1.1):
            r = _rotation(two_j / 2, p)
            for got, v, shift in zip(sector_rotations(two_j, p), (v_e, v_o), (shift_e, shift_o)):
                want = v.conj().T @ r @ v
                assert np.abs(got - want).max() <= 1e-14
                if p == math.pi / 2 and len(parts) == 2:
                    for a, rows in enumerate(parts):
                        assert np.abs(got[rows, parts[a ^ shift]]
                                      - sector_blocks(want, parts, shift)[a]).max() <= 1e-14
        jx, _, _ = angular_momentum_matrices(two_j / 2)
        x = _parity_block(jx[:v_e.shape[1]].real, -lam, v_e.shape[1], v_o.shape[1])
        assert np.abs(x - v_e.conj().T @ jx @ v_o).max() <= 1e-14 * two_j

    @pytest.mark.parametrize("j, p", [(1.0, math.pi / 2), (5.0, math.pi / 2), (30.0, math.pi / 2),
                                      (300.0, math.pi / 2), (301.0, math.pi / 2), (1.0, 1.1),
                                      (5.0, 1.1), (30.5, 1.1), (10.5, math.pi / 2)])
    def test_matches_svd_csr_oracle(self, j, p):
        # the d-matrix set-up and banded trace products against the SVD
        # quarter blocks and scipy.sparse products they replaced
        params = KickedTopParams(j, 6.0, p)
        series = otoc_series(params, 20)
        c2, c4, f = two_trace_otoc(params, 20, svd=True)
        scale = np.abs(c2).max()
        for got, want in ((series.c2, c2), (series.c4, c4), (series.f, f)):
            assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("j, p", [(1.0, 1.1), (5.0, 1.1), (300.0, 1.1), (10.5, 1.1),
                                      (299.5, math.pi / 2), (1.0, math.pi / 2),
                                      (5.0, math.pi / 2), (300.0, math.pi / 2),
                                      (301.0, math.pi / 2)])
    def test_matches_two_trace_kernel(self, j, p):
        # C4 = 2 Re Tr(P_e^2) against the sum of both traces, with the eigh
        # sector rotations of the oracle
        params = KickedTopParams(j, 6.0, p)
        series = otoc_series(params, 30)
        c2, c4, f = two_trace_otoc(params, 30)
        scale = np.abs(c2).max()
        for got, want in ((series.c2, c2), (series.c4, c4), (series.f, f)):
            assert np.abs(got - want).max() <= 1e-12 * scale
        assert series.f[0] == 0.0

    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    def test_trace_pair_checked_at_first_and_last_step(self, p, monkeypatch):
        checked = []

        def spy(t_o, t_e, bound):
            checked.append((t_o, t_e))
            _check_trace_pair(t_o, t_e, bound)
        monkeypatch.setattr(kickedtop, "_check_trace_pair", spy)
        series = otoc_series(KickedTopParams(20, 6.0, p), 7)
        assert len(checked) == 2
        assert checked[1][1].real * 2 / 20 ** 4 == series.c4[-1]
        bound = 2.0
        _check_trace_pair(complex(0.5, 0.25), complex(0.5, 0.25), bound)
        for t_o in (complex(0.5, -0.25), complex(0.5 + 1e-7, 0.25), complex(math.nan, 0.25)):
            with pytest.raises(IntegrityError):
                _check_trace_pair(t_o, complex(0.5, 0.25), bound)

    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    def test_perturbed_row_product_fails(self, p, monkeypatch):
        # |P_o|_F^2 from row products is what interior steps add to C2; at the
        # first and last step it must match the formed P_o
        norm2 = kickedtop._band_product_norm2
        monkeypatch.setattr(kickedtop, "_band_product_norm2",
                            lambda bands, b: norm2(bands, b) * (1.0 + 1e-6))
        with pytest.raises(IntegrityError, match="row products"):
            otoc_series(KickedTopParams(20, 6.0, p), 7)

    @pytest.mark.parametrize("j, p", [(20.0, math.pi / 2), (20.0, 1.1), (20.5, math.pi / 2)])
    def test_p_o_formed_only_at_checked_steps(self, j, p, monkeypatch):
        # every step forms the P_e blocks; only the first and last step add
        # the P_o blocks, whose norm the others take from row products
        band_product, calls = kickedtop._band_product, []

        def spy(bands, b):
            calls.append(bands)
            return band_product(bands, b)
        monkeypatch.setattr(kickedtop, "_band_product", spy)
        otoc_series(KickedTopParams(j, 6.0, p), 7)
        parts, *_, x_conj, _ = kickedtop._otoc_setup(j, p)
        kinds = ["e" if any(bands is x for x in x_conj) else "o" for bands in calls]
        step, checked = ["e"] * len(parts), ["e"] * len(parts) + ["o"] * len(parts)
        assert kinds == checked + 6 * step + checked

    @pytest.mark.parametrize("shape", [(5, 5), (5, 4), (4, 5), (151, 150), (150, 151),
                                       (1, 1), (2, 1), (1, 2), (1, 0), (0, 1)])
    @pytest.mark.parametrize("ks", [(), (0,), (-1,), (1,), (-1, 0), (0, 1), (-1, 1), (-1, 0, 1)])
    def test_band_helpers_match_dense_product(self, shape, ks, monkeypatch):
        # 0 to 3 diagonals, ragged shapes whose diagonals miss the first or
        # last row, and empty blocks; the output starts as NaN, so a row left
        # unwritten shows
        rng = np.random.default_rng(len(ks) * 1000 + shape[0] * 10 + shape[1])
        block = np.zeros(shape, dtype=complex)
        for k in ks:
            i = np.arange(np.diagonal(block, k).size) + max(-k, 0)
            block[i, i + k] = rng.standard_normal(i.size) + 1j * rng.standard_normal(i.size)
        bands = kickedtop._bands(block)
        assert len(bands[1]) == sum(np.diagonal(block, k).size > 0 for k in ks)
        b = rng.standard_normal((shape[1], 7)) + 1j * rng.standard_normal((shape[1], 7))
        want = block @ b
        empty = np.empty
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", lambda *a, **kw: np.full_like(empty(*a, **kw), np.nan))
            got = kickedtop._band_product(bands, b)
        assert got.shape == want.shape and got.dtype == np.complex128
        scale = max(1.0, np.abs(want).max(initial=0.0))
        assert np.abs(got - want).max(initial=0.0) <= 1e-14 * scale
        norm2 = kickedtop._band_product_norm2(bands, b)
        assert abs(norm2 - np.vdot(want, want).real) <= 1e-13 * max(1.0, np.vdot(want, want).real)

    @pytest.mark.parametrize("j, p", [(1.0, math.pi / 2), (1.0, 1.1), (300.0, math.pi / 2),
                                      (299.5, math.pi / 2), (30.0, 1.1)])
    def test_band_helpers_on_the_setup_blocks(self, j, p):
        # the blocks otoc_series multiplies: at j = 1 and pi/2 one X quarter
        # block is 1 x 0 with no diagonal, and at d = 601 the even sector's
        # 151 x 150 blocks have diagonals that miss a row
        *_, x_t, x_conj, _ = kickedtop._otoc_setup(j, p)
        rng = np.random.default_rng(7)
        shapes = set()
        for bands in x_t + x_conj:
            shapes.add(bands[0])
            dense = kickedtop._band_dense(bands)
            shape = (dense.shape[1], 5)
            b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want = dense @ b
            assert np.abs(kickedtop._band_product(bands, b) - want).max(initial=0.0) <= 1e-12 * j
            assert abs(kickedtop._band_product_norm2(bands, b)
                       - np.vdot(want, want).real) <= 1e-12 * max(1.0, np.vdot(want, want).real)
        if (j, p) == (1.0, math.pi / 2):
            assert (1, 0) in shapes and any(not diagonals for _, diagonals in x_t + x_conj)
        if j == 300.0:
            assert {(151, 150), (150, 151)} <= shapes

    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    def test_sector_rotation_real_and_orthogonal_for_integer_j(self, p):
        for two_j in range(1, 41):
            for r in sector_rotations(two_j, p):
                eye = np.eye(r.shape[0])
                assert r.flags.c_contiguous
                if two_j % 2:
                    assert r.dtype == np.complex128
                    assert np.abs(r.conj().T @ r - eye).max() <= 1e-10
                else:
                    assert r.dtype == np.float64
                    assert np.abs(r.T @ r - eye).max() <= 1e-10

    def test_real_rotation_rejects_non_round_off_imaginary_part(self):
        # the eigh oracle's check; the d-matrix rotation is real by construction
        r = np.eye(3) + 1e-14j
        assert real_rotation(r).dtype == np.float64
        for bad in (np.eye(3) + 1e-8j, np.full((3, 3), complex(0.0, math.nan))):
            with pytest.raises(IntegrityError):
                real_rotation(bad)
        # a half-integer sector rotation is complex: taken as real, it must fail
        with pytest.raises(IntegrityError):
            sector_rotation(sector_jy_blocks(3)[0], 1.1, real=True)


class TestParity:
    @PROPERTY
    @given(SPINS, KICKS, ANGLES)
    def test_commutes_with_floquet_and_flips_jx(self, j, k, p):
        params = KickedTopParams(j, k, p)
        pi = parity_operator(params.dim)
        jx, _, _ = angular_momentum_matrices(j)
        for u in (build_spin_system(params)[::-1, ::-1], dense_floquet(params)):
            assert np.abs(pi @ u - u @ pi).max() < 1e-12
        assert np.abs(pi @ jx + jx @ pi).max() < 1e-12 * j

    @PROPERTY
    @given(SPINS)
    def test_bases_are_eigenbases(self, j):
        dim = round(2 * j) + 1
        pi = parity_operator(dim)
        v_e, v_o = (v.toarray() for v in parity_bases(dim))
        # built sparse: two nonzeros per column, one in the m = 0 column
        assert [v.nnz for v in parity_bases(dim)] == [dim, dim - dim % 2]
        assert v_e.shape[1] == (dim + 1) // 2 and v_o.shape[1] == dim // 2
        lam = np.vdot(v_e[:, 0], pi @ v_e[:, 0])
        assert lam ** 2 == pytest.approx((-1) ** (dim - 1), abs=1e-15)
        np.testing.assert_allclose(pi @ v_e, lam * v_e, atol=1e-15)
        np.testing.assert_allclose(pi @ v_o, -lam * v_o, atol=1e-15)
        full = np.hstack([v_e, v_o])
        np.testing.assert_allclose(full.conj().T @ full, np.eye(dim), atol=1e-15)


class TestTimeseries:
    def test_initial_step_zero(self):
        table = timeseries_measures(KickedTopParams(6, 6.0), 1.8, 0.4, 5)
        for col in ("S_A_vn", "I2_AB_vn", "I2_A_BC_vn", "I3_vn", "I3_lin"):
            assert abs(table[col][0]) < 1e-10

    def test_saturation_window_statistics(self):
        table = timeseries_measures(KickedTopParams(10, 6.0), 2.25, 0.63, 100,
                                    kinds=(VON_NEUMANN,))
        t_e = ehrenfest_time(10, 0.97)
        window = table["I3_vn"][int(3 * t_e):]
        assert window.std() < 0.1 * window.mean()

    def test_residuals_helper(self):
        values = np.array([0.1, 0.2, 0.25])
        res = saturation_residuals(values, 0.25)
        np.testing.assert_allclose(res[:2], np.log([0.15, 0.05]))
        assert res[2] == -np.inf

    def test_block_overflow(self):
        with pytest.raises(DomainError):
            timeseries_measures(KickedTopParams(2, 1.0), 1.0, 1.0, 3, (2, 2, 2))

    def test_step_blocks_fit_the_largest_fold(self, monkeypatch):
        # blocks (1, 1, 1) form folded sizes up to 3: 431 steps per block at
        # N = 40, so 500 kicks take two blocks, with the bytes of one
        batch, rows = kickedtop.block_entropies_batch, []

        def spy(traj, *args):
            rows.append(len(traj))
            return batch(traj, *args)
        monkeypatch.setattr(kickedtop, "block_entropies_batch", spy)
        params = KickedTopParams(20, 6.0)
        table = timeseries_measures(params, 1.1, 0.3, 500, kinds=(LINEAR,))
        assert rows == [431, 70]
        rows.clear()
        monkeypatch.setattr(kickedtop, "_block_rows", lambda n, s=None: 10 ** 6)
        whole = timeseries_measures(params, 1.1, 0.3, 500, kinds=(LINEAR,))
        assert rows == [501]
        for name, values in table.items():
            assert values.tobytes() == whole[name].tobytes()


class TestGrid:
    def test_single_node_matches_timeseries(self):
        params = KickedTopParams(5, 6.0)
        _, _, grid = time_averaged_tmi_grid(params, (1, 1), n_steps=40)
        table = timeseries_measures(params, 0.0, 0.0, 40, kinds=(VON_NEUMANN,))
        assert grid[0, 0] == pytest.approx(table["I3_vn"][1:].mean(), abs=1e-12)

    def test_axes_cover_half_open_ranges(self):
        thetas, phis, grid = time_averaged_tmi_grid(KickedTopParams(3, 1.0),
                                                    (4, 6), n_steps=3)
        assert grid.shape == (4, 6)
        assert thetas[0] == 0.0 and thetas[-1] < math.pi
        assert phis[0] == 0.0 and phis[-1] < 2 * math.pi

    @pytest.mark.parametrize("p,orbits", [(math.pi / 2, 1227), (1.1, 2452),
                                          (np.nextafter(math.pi / 2, 4), 2452)])
    def test_orbit_counts(self, p, orbits):
        # map B and AB only at p == pi/2 exactly; the next float gets map A alone
        representatives, inverse = _grid_orbits(50, 100, p)
        assert representatives.size == orbits
        assert inverse.shape == (5000,)
        assert np.array_equal(representatives[inverse[representatives]], representatives)
        assert np.all(representatives[inverse] <= np.arange(5000))

    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    def test_odd_phi_collapses_only_theta_zero(self, p):
        representatives, inverse = _grid_orbits(7, 9, p)
        assert representatives.size == 6 * 9 + 1
        assert np.all(inverse[:9] == 0)
        assert np.array_equal(representatives[1:], np.arange(9, 63))

    def test_single_theta_row(self):
        assert _grid_orbits(1, 8, math.pi / 2)[0].tolist() == [0]
        params = KickedTopParams(3, 6.0)
        _, _, grid = time_averaged_tmi_grid(params, (1, 8), n_steps=5)
        np.testing.assert_allclose(
            grid, unreduced_tmi_grid(params, (1, 8), 5, (1, 1, 1), VON_NEUMANN),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("blocks,kind", [((1, 1, 1), VON_NEUMANN), ((2, 1, 3), LINEAR)],
                             ids=["vn-111", "linear-213"])
    @pytest.mark.parametrize("k", [1.0, 6.0])
    @pytest.mark.parametrize("p", [math.pi / 2, 1.1])
    @pytest.mark.parametrize("shape", [(6, 8), (5, 7), (7, 10)])
    def test_matches_unreduced_loop(self, shape, p, k, blocks, kind):
        params = KickedTopParams(6, k, p)
        _, _, grid = time_averaged_tmi_grid(params, shape, 20, blocks, kind)
        want = unreduced_tmi_grid(params, shape, 20, blocks, kind)
        np.testing.assert_allclose(grid, want, rtol=0, atol=1e-12)


class TestPhasePortrait:
    def test_rows_and_ranges(self):
        rows = phase_portrait(3.0, math.pi / 2, 7, 11, np.random.default_rng(2))
        assert rows.shape == ((11 + 1) * 7, 4)
        assert np.all(np.abs(rows[:, 1]) <= 1.0 + 1e-12)  # Z of unit vectors
        assert np.all(np.abs(rows[:, 0]) <= math.pi + 1e-12)
        assert set(rows[:, 2].astype(int)) == set(range(7))

    def test_deterministic_given_rng_seed(self):
        a = phase_portrait(6.0, math.pi / 2, 3, 5, np.random.default_rng(9))
        b = phase_portrait(6.0, math.pi / 2, 3, 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
