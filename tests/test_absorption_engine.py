import math
import warnings

import numpy as np
import pytest

from mfbwalk import (
    BalancedUnsupported,
    Branch,
    StartNotBarrier,
    absorption_times,
    barrier_spectrum,
    display_time_to_barrier,
    lambda_pair,
    make_model,
    mean_time_any,
    mean_time_to_barrier,
    periodic_mean_times,
    spectral_derivatives,
    truncated_mean_times,
)
from conftest import random_model

# frozen oracle values: exact derivative of the truncated system, K = 60
DRIFT_M0K = {-5: 0.003173683020058709, -4: 0.014754108991322663,
             -3: 0.06543647597441765, -2: 0.2685961769425768,
             -1: 0.9470989680457246, 0: 2.132799526266355,
             1: 1.894197936091449, 2: 1.0743847077703073,
             3: 0.5234918077953412, 4: 0.23606574386116255,
             5: 0.10155785664187866}


class TestMeanTimeAny:
    def test_symmetric_goldens(self, cfg_sym):
        assert mean_time_any(cfg_sym, 0) == pytest.approx(5.0, rel=1e-12)
        assert mean_time_any(cfg_sym, 1) == pytest.approx(6.0, rel=1e-12)

    def test_drift_goldens(self, cfg_drift):
        assert mean_time_any(cfg_drift, 0) == pytest.approx(22.0 / 3.0, rel=1e-9)
        assert mean_time_any(cfg_drift, 1) == pytest.approx(9.0, rel=1e-9)

    def test_periodicity(self, cfg_sym, cfg_drift):
        for m in (cfg_sym, cfg_drift):
            for i in range(-2 * m.N, 4 * m.N + 1):
                assert mean_time_any(m, i) == \
                    pytest.approx(mean_time_any(m, i % m.N), rel=1e-13)
        assert mean_time_any(cfg_sym, cfg_sym.N + 2) == \
            pytest.approx(mean_time_any(cfg_sym, 2), rel=1e-13)

    def test_formula_matches_periodic_solve(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            solved = periodic_mean_times(m)
            for i in range(m.N + 1):
                assert mean_time_any(m, i) == \
                    pytest.approx(float(solved[i]), rel=1e-10)

    def test_times_positive_and_period_closes(self):
        rng = np.random.default_rng(22)
        for trial in range(20):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            values = [mean_time_any(m, i) for i in range(m.N + 1)]
            assert all(v > 0.0 for v in values)
            assert values[0] == pytest.approx(values[m.N], rel=1e-12)

    def test_matches_periodic_solve_near_balance(self):
        # one closed form serves both branches with no cancellation, so it
        # needs no solve fallback and emits no warning this close to balance
        rng = np.random.default_rng(31)
        for gap in (1e-3, 1e-5, 1e-7, 1e-9):
            for sign in (+1.0, -1.0):
                base = random_model(rng, "BALANCED", N=int(rng.integers(2, 17)))
                m = make_model(p=base.q * (1.0 + sign * gap), q=base.q,
                               p0=base.p0, q0=base.q0, s0=base.s0,
                               N=base.N, i0=base.i0)
                solved = periodic_mean_times(m)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    values = [mean_time_any(m, i) for i in range(m.N + 1)]
                for value, want in zip(values, solved):
                    assert value == pytest.approx(float(want), rel=1e-12)

    def test_large_drift_stays_finite(self):
        # N |log rho| = 832: powers of rho overflow a double
        for p, q in ((0.1, 0.4), (0.4, 0.1)):
            m = make_model(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=600, i0=0)
            solved = periodic_mean_times(m)
            for i in range(m.N + 1):
                value = mean_time_any(m, i)
                assert math.isfinite(value)
                assert value == pytest.approx(float(solved[i]), rel=1e-10)

    def test_series_coefficients_are_bernoulli(self):
        sympy = pytest.importorskip("sympy")
        from mfbwalk.absorption_engine import _RUIN_SERIES
        u = sympy.Symbol("u")
        for k, coeffs in enumerate(_RUIN_SERIES):
            poly = -(sympy.bernoulli(k + 2, u) - sympy.bernoulli(k + 2)) \
                / sympy.factorial(k + 2)
            want = sympy.Poly(sympy.expand(poly), u).all_coeffs()[::-1]
            assert coeffs == pytest.approx([float(c) for c in want],
                                           rel=1e-15, abs=0.0)

    def test_branch_continuity_at_balance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            base = random_model(rng, "BALANCED")
            baseline = [mean_time_any(base, i) for i in range(base.N + 1)]
            for sign in (+1.0, -1.0):
                pert = make_model(p=base.q * (1.0 + sign * 1e-6), q=base.q,
                                  p0=base.p0, q0=base.q0, s0=base.s0,
                                  N=base.N, i0=base.i0)
                assert pert.branch is Branch.DRIFT
                for i in range(base.N + 1):
                    assert abs(mean_time_any(pert, i) - baseline[i]) < 1e-3


class TestSpectralDerivatives:
    def test_drift_reference_values(self, cfg_drift):
        b = spectral_derivatives(cfg_drift)
        assert b.dlambda1 == pytest.approx(-10.0, rel=1e-12)
        assert b.dlambda2 == pytest.approx(5.0, rel=1e-12)
        assert b.alpha == pytest.approx(0.56, rel=1e-14)
        assert b.dzeta == pytest.approx(70.0, rel=1e-12)

    def test_balanced_unsupported(self, cfg_sym):
        with pytest.raises(BalancedUnsupported):
            spectral_derivatives(cfg_sym)

    def test_lambda_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            m = random_model(rng, "DRIFT", pq_floor=0.1, min_gap=0.3)
            b = spectral_derivatives(m)
            fd1 = _fd(lambda z: lambda_pair(m, z).lambda1)
            fd2 = _fd(lambda z: lambda_pair(m, z).lambda2)
            assert b.dlambda1 == pytest.approx(fd1, rel=1e-6)
            assert b.dlambda2 == pytest.approx(fd2, rel=1e-6)

    def test_zeta_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            m = random_model(rng, "DRIFT", pq_floor=0.1, min_gap=0.3)
            b = spectral_derivatives(m)
            fd = _fd(lambda z: lambda_pair(m, z).zeta)
            assert b.dzeta == pytest.approx(fd, rel=1e-6)

    def test_omega0_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            m = random_model(rng, "DRIFT", pq_floor=0.1, min_gap=0.3)
            b = spectral_derivatives(m)
            spectrum = barrier_spectrum(m)
            fd = _fd(spectrum.omega0_of_z)
            assert b.domega0 == pytest.approx(fd, rel=1e-6)
            # the compact display form genuinely differs
            assert abs(b.domega0_display - fd) > 1e-3 * max(1.0, abs(fd))

    def test_xi_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            m = random_model(rng, "DRIFT", pq_floor=0.1, min_gap=0.3)
            b = spectral_derivatives(m)
            spectrum = barrier_spectrum(m)

            def xi_roots(z):
                pair = lambda_pair(m, z)
                beta = m.q * pair.zeta * spectrum.omega0_of_z(z)
                disc = beta * beta - 4.0 * m.q0 * m.p0 * m.rho ** (m.N - 1)
                big = (-beta + np.sqrt(disc)) / (2.0 * m.q0)
                return big, m.p0 * m.rho ** (m.N - 1) / (m.q0 * big)

            fd1 = _fd(lambda z: xi_roots(z)[0])
            fd2 = _fd(lambda z: xi_roots(z)[1])
            assert b.dxi1 == pytest.approx(fd1, rel=1e-6)
            assert b.dxi2 == pytest.approx(fd2, rel=1e-6)

    def test_z_quadratic_normalizations_agree_at_one(self):
        # the z-form q0 xi^2 + q zeta(z) omega0(z) xi + p0 rho^(N-1) and the
        # z = 1 form with |1 - rho| in the middle coefficient share roots
        rng = np.random.default_rng(28)
        for _ in range(10):
            m = random_model(rng, "DRIFT")
            spectrum = barrier_spectrum(m)
            pair = lambda_pair(m, 1.0)
            beta = m.q * pair.zeta * spectrum.omega0_of_z(1.0)
            assert beta == pytest.approx(spectrum.omega0 / abs(1.0 - m.rho),
                                         rel=1e-12)


def _fd(f, h=1e-7):
    # one-sided second-order difference from below at z = 1
    return (3.0 * f(1.0) - 4.0 * f(1.0 - h) + f(1.0 - 2.0 * h)) / (2.0 * h)


class TestMeanTimeToBarrier:
    def test_drift_goldens_match_oracle(self, cfg_drift):
        for k, want in DRIFT_M0K.items():
            assert mean_time_to_barrier(cfg_drift, k) == \
                pytest.approx(want, rel=1e-9)

    def test_display_form_discrepancy_is_flagged(self, cfg_drift):
        value = mean_time_to_barrier(cfg_drift, 0)
        shown = display_time_to_barrier(cfg_drift, 0)
        assert abs(shown - value) > 1e-9 * abs(value)

    def test_balanced_unsupported(self, cfg_sym):
        with pytest.raises(BalancedUnsupported):
            mean_time_to_barrier(cfg_sym, 0)

    def test_off_barrier_start_rejected(self):
        m = make_model(p=0.4, q=0.2, p0=0.2, q0=0.2, s0=0.2, N=2, i0=1)
        with pytest.raises(StartNotBarrier):
            mean_time_to_barrier(m, 0)

    def test_tail_ratio_approaches_xi2(self, cfg_drift):
        # the split behaves like xi2^k (a + b k), so successive ratios close
        # in on xi2 at rate 1/k
        spectrum = barrier_spectrum(cfg_drift)
        gaps = [abs(mean_time_to_barrier(cfg_drift, k + 1)
                    / mean_time_to_barrier(cfg_drift, k) - spectrum.xi2)
                for k in (5, 9, 20, 40)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.05 * spectrum.xi2

    def test_split_sums_to_total_mean_time(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            m = random_model(rng, "DRIFT", i0=0)
            split = truncated_mean_times(m)
            half = max(split.per_barrier) + 1
            total = sum(mean_time_to_barrier(m, k)
                        for k in range(-half + 1, half))
            assert total == pytest.approx(mean_time_any(m, 0), rel=1e-6)

    def test_matches_numeric_generating_function_derivative(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            m = random_model(rng, "DRIFT", i0=0)
            split = truncated_mean_times(m)
            for k in range(-5, 6):
                assert mean_time_to_barrier(m, k) == \
                    pytest.approx(split.per_barrier[k], rel=1e-6)


class TestAbsorptionTimes:
    def test_drift_bundle(self, cfg_drift):
        times = absorption_times(cfg_drift, -2, 2)
        assert times.period_values[0] == pytest.approx(22.0 / 3.0, rel=1e-9)
        assert set(times.per_barrier) == set(range(-2, 3))

    def test_balanced_has_no_split(self, cfg_sym):
        times = absorption_times(cfg_sym)
        assert times.period_values == (5.0, 6.0, 5.0)
        assert times.per_barrier == {}
