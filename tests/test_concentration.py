import math

import numpy as np
import pytest

from permsym.concentration import (empirical_concentration, functional_samples,
                                   levy_bound, lipschitz_bound_linear,
                                   lipschitz_bound_tmi, lipschitz_bound_vn)
from permsym.errors import DomainError
from permsym.measures import LINEAR, VON_NEUMANN


class TestLipschitzBounds:
    def test_linear_constant(self):
        assert lipschitz_bound_linear() == 4.0

    def test_vn_two_qubit_block(self):
        assert lipschitz_bound_vn(2) == pytest.approx(math.sqrt(8) * math.log2(3))
        assert lipschitz_bound_vn(2) == pytest.approx(4.4829, abs=1e-3)

    def test_vn_requires_two_qubits(self):
        with pytest.raises(DomainError):
            lipschitz_bound_vn(1)

    def test_tmi_linear_budget(self):
        assert lipschitz_bound_tmi(1, 1, 1, LINEAR) == 28.0
        assert lipschitz_bound_tmi(4, 2, 7, LINEAR) == 28.0

    def test_tmi_vn_budget_is_seven_term_sum(self):
        q1, q2, q3 = 2, 3, 2
        want = sum(lipschitz_bound_vn(q)
                   for q in (q1, q2, q3, q1 + q2, q1 + q3, q2 + q3, q1 + q2 + q3))
        assert lipschitz_bound_tmi(q1, q2, q3, VON_NEUMANN) == pytest.approx(want)

    def test_tmi_vn_requires_two_qubit_blocks(self):
        with pytest.raises(DomainError):
            lipschitz_bound_tmi(1, 2, 2, VON_NEUMANN)


class TestLevyBound:
    def test_vacuous_at_zero_epsilon(self):
        assert levy_bound(100, 0.0, 4.0) == 2.0

    def test_direct_arithmetic(self):
        n, eps, eta = 2 * 201, 0.1, 4.0
        want = 2 * math.exp(-n * eps ** 2 / (9 * math.pi ** 3 * math.log(2) * eta ** 2))
        assert levy_bound(n, eps, eta) == pytest.approx(want, rel=1e-14)

    def test_doubling_epsilon_identity(self):
        # bound(2 eps) = bound(eps)^4 / 2^3 from the exponential form
        n, eta = 80, 4.0
        for eps in (0.05, 0.2, 0.7):
            assert levy_bound(n, 2 * eps, eta) == pytest.approx(
                levy_bound(n, eps, eta) ** 4 / 8.0, rel=1e-10)

    def test_monotonicity_grids(self):
        for n in (4, 26, 402):
            values = [levy_bound(n, e, 4.0) for e in np.linspace(0, 2, 9)]
            assert all(a >= b for a, b in zip(values, values[1:]))
        for eta in (0.5, 1.0, 4.0, 28.0):
            assert levy_bound(50, 0.3, eta) <= levy_bound(50, 0.3, eta * 2)
        for n in (10, 100, 1000):
            assert levy_bound(2 * n, 0.3, 4.0) >= levy_bound(4 * n, 0.3, 4.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            levy_bound(100, 0.1, 0.0)
        with pytest.raises(DomainError):
            levy_bound(1, 0.1, 1.0)
        with pytest.raises(DomainError):
            levy_bound(100, -0.1, 1.0)

    @pytest.mark.parametrize("epsilon, eta", [(math.nan, 1.0), (0.1, math.nan),
                                              (math.nan, math.nan), (0.1, -math.inf)])
    def test_nan_arguments_rejected(self, epsilon, eta):
        # a NaN compares false both ways, so it must fail the check, not pass it
        with pytest.raises(DomainError):
            levy_bound(100, epsilon, eta)


class TestEmpirical:
    def test_tails_below_bound_and_monotone(self):
        rows = empirical_concentration(12, ("linear", 2), 2000, [0.05, 0.1, 0.2],
                                       seed=1)
        tails = [r.empirical_tail for r in rows]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        for r in rows:
            assert r.empirical_tail <= r.bound + 3 * r.stderr

    def test_tmi_functional(self):
        rows = empirical_concentration(14, ("tmi", (1, 1, 1), LINEAR), 1500,
                                       [0.1, 0.3], seed=2)
        assert rows[0].empirical_tail >= rows[1].empirical_tail
        assert all(r.bound == pytest.approx(levy_bound(30, r.epsilon, 28.0))
                   for r in rows)

    def test_positive_fraction_grows_with_n(self):
        small = functional_samples(8, ("tmi", (1, 1, 1), LINEAR), 1500, seed=3)
        large = functional_samples(30, ("tmi", (1, 1, 1), LINEAR), 1500, seed=3)
        assert np.mean(large > 0) >= np.mean(small > 0)

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            empirical_concentration(10, ("linear", 2), 500, [0.1], seed=0)

    def test_unknown_functional(self):
        with pytest.raises(DomainError):
            empirical_concentration(10, ("bogus", 1), 2000, [0.1], seed=0)
