import math
import sys
import tracemalloc
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfbwalk import (
    BalancedUnsupported,
    Branch,
    StartNotBarrier,
    absorption_engine,
    absorption_times,
    barrier_spectrum,
    default_truncation,
    display_time_to_barrier,
    has_barrier_split,
    make_model,
    mean_time_any,
    mean_time_period,
    mean_time_to_barrier,
    periodic_mean_times,
    reanchored,
    truncated_visit_derivatives,
)
from mfbwalk.walk_model import MAX_SITES
from conftest import (CFG_SYM, FLOAT_RANGE_MODELS, mirror, query_models,
                      random_model)

# frozen oracle values: exact derivative of the truncated system, K = 60
DRIFT_M0K = {-5: 0.003173683020058709, -4: 0.014754108991322663,
             -3: 0.06543647597441765, -2: 0.2685961769425768,
             -1: 0.9470989680457246, 0: 2.132799526266355,
             1: 1.894197936091449, 2: 1.0743847077703073,
             3: 0.5234918077953412, 4: 0.23606574386116255,
             5: 0.10155785664187866}

# display_time_to_barrier(cfg_drift, k), the display form's values
DRIFT_DISPLAY_M0K = {-5: 0.0026008068820554332, -4: 0.012047078797459258,
                     -3: 0.053130182409477256, -2: 0.2159248860942085,
                     -1: 0.7446180003622117, 0: 1.525356623215818,
                     1: 1.4892360007244234, 2: 0.8636995443768342,
                     3: 0.42504145927581805, 4: 0.19275326075934812,
                     5: 0.08322582022577388}

NEAR_BALANCE = dict(p=0.30000005, q=0.29999995, p0=0.2, q0=0.3, s0=0.1, N=6, i0=0)

# q / p below about 1.1e-16, where (q - p) / p rounds to -1, in both
# orientations, at N = 2, 10 and 1000
EXTREME_DRIFT = [
    pytest.param(ratio, n, flip, id=f"{ratio:g}-N{n}-{'qp' if flip else 'pq'}")
    for ratio in (1e-17, 1e-30, 1e-100, 1e-300) for n in (2, 10, 1000)
    for flip in (False, True)]


def extreme_drift(ratio, n, flip):
    """A barrier-start walk with q / p = ratio, or p / q = ratio if flipped."""
    m = make_model(p=0.5, q=0.5 * ratio, p0=0.3, q0=0.3, s0=0.2, N=n, i0=0)
    return mirror(m) if flip else m


def barrier_starts():
    """``query_models()`` re-anchored to a barrier start, and NEAR_BALANCE."""
    return st.one_of(query_models().map(lambda m: reanchored(m, 0)),
                     st.just(make_model(**NEAR_BALANCE)))


def _assert_matches_derivative(m, values, rel=1e-12):
    """``values[k]`` against s0 * dX_{kN}/dz of the truncated lattice; a
    value that underflows must be an underflowed zero of the oracle too."""
    deriv = truncated_visit_derivatives(m)
    for k, value in values.items():
        want = m.s0 * deriv[k * m.N]
        if want == 0.0:
            assert value == 0.0
        else:
            assert value == pytest.approx(want, rel=rel)


def _mean_times_mp(m, sites):
    """m_i of the model at each site i, at 50 digits and rounded: the
    gambler's-ruin duration with holding, T_j = (j - N (1 - a^j) /
    (1 - a^N)) / (q - p) with a = q / p (j (N - j) / (p + q) at balance),
    plus m_0."""
    with mpmath.workdps(50):
        p, q, n = mpmath.mpf(m.p), mpmath.mpf(m.q), m.N

        def T(j):
            if p == q:
                return j * (n - j) / (p + q)
            a = q / p
            return (j - n * (1 - a ** j) / (1 - a ** n)) / (q - p)

        m0 = (m.p0 * T(1) + m.q0 * T(n - 1) + 1 - mpmath.mpf(m.s0)) / m.s0
        return [float(m0 + T(i)) for i in sites]


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

    @pytest.mark.parametrize("N", [2, 3, 10, 100, 1000])
    def test_series_range_matches_50_digits(self, N):
        # |y| = N |log(q/p)| below the series cut, on both sides of balance
        # (a p > q walk reflects its y), at sites on both halves of the period
        rng = np.random.default_rng(N + 50)
        for y in (0.0, 1e-12, -1e-12, 3e-9, -3e-7, 1e-5, -2e-4, 3e-3,
                  -9.9e-3, 9.9e-3):
            p = rng.uniform(0.05, 0.45)
            m = make_model(p=p, q=p * math.exp(y / N), p0=rng.uniform(0.05, 0.45),
                           q0=rng.uniform(0.05, 0.45), s0=rng.uniform(0.02, 0.1),
                           N=N, i0=0)
            assert N * abs(math.log(m.q / m.p)) < 1e-2
            sites = sorted({0, 1, N // 3, N // 2, N - N // 3, N - 1})
            for i, want in zip(sites, _mean_times_mp(m, sites)):
                assert abs(mean_time_any(m, i) - want) <= 1e-13 * want
            assert mean_time_period(m) == \
                tuple(mean_time_any(m, i) for i in range(N + 1))

    @pytest.mark.parametrize("q", [0.3, 0.2999])
    @pytest.mark.parametrize("N", [899, 1999])
    def test_period_matches_50_digits_at_large_N(self, N, q):
        # a site past N/2 is reflected to (N - i) / N, which rounds once;
        # 1 - i / N rounds twice and was 2.2e-14 off at N = 899 and 3.6e-14
        # at N = 1999 on the balanced walk.  Both orientations: log(q / p)
        # rounds q / p first and put p = .2999, q = .3 8.5e-15 off at N = 1999
        for p, q_ in ((0.3, q), (q, 0.3)):
            m = make_model(p=p, q=q_, p0=0.3, q0=0.3, s0=0.005, N=N, i0=0)
            want = _mean_times_mp(m, range(N + 1))
            assert max(abs(got - w) / w
                       for got, w in zip(mean_time_period(m), want)) <= 5e-15

    @pytest.mark.parametrize("ratio,n,flip", EXTREME_DRIFT)
    def test_extreme_drift_matches_the_periodic_solve(self, ratio, n, flip):
        m = extreme_drift(ratio, n, flip)
        want = [float(t) for t in periodic_mean_times(m)]
        assert mean_time_period(m) == pytest.approx(want, rel=1e-10)
        for i in (1, n // 2, n - 1):
            assert mean_time_any(m, i) == pytest.approx(want[i], rel=1e-10)

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("p", [1e-300, 1e-310, 5e-324])
    def test_subnormal_p_matches_the_periodic_solve(self, p, flip):
        # (q - p) / p overflows from p = 1e-310 on, where log q - log p
        # serves, and x / (q - p) is never formed from p alone
        m = make_model(p=p, q=0.5, p0=0.3, q0=0.3, s0=0.2, N=10, i0=0)
        m = mirror(m) if flip else m
        want = [float(t) for t in periodic_mean_times(m)]
        assert mean_time_period(m) == pytest.approx(want, rel=1e-12)
        for i in range(m.N):
            assert mean_time_any(m, i) == pytest.approx(want[i], rel=1e-12)

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
        # on the mirrored frame: rho = 1/2, zeta = 1 / (q - p) = 5 and
        # rho q0 + p0 = 0.3.  The display form's d omega0/dz is 5.45, 0.25
        # below the exact 5.7; the gap reaches B as Omega zeta D / (1 - rho)
        # with zeta D = -0.25, and A as Omega |psi0| Omega zeta D / (1 - rho)
        from mfbwalk.absorption_engine import _mean_time_constants, _split_terms
        spectrum = barrier_spectrum(cfg_drift)
        _, ruin, exact, _ = _mean_time_constants(cfg_drift)
        shown = _split_terms(cfg_drift, ruin, display=True)
        scale = (cfg_drift.s0 * spectrum.Omega * spectrum.qn
                 * spectrum.Omega / (1.0 - spectrum.rho))
        assert (shown[4] - exact[4]) / scale == pytest.approx(-0.25, rel=1e-12)
        assert (shown[3] - exact[3]) / (scale * spectrum.Omega
                                        * abs(spectrum.psi0)) == \
            pytest.approx(-0.25, rel=1e-12)
        for k, want in DRIFT_DISPLAY_M0K.items():
            assert display_time_to_barrier(cfg_drift, k) == \
                pytest.approx(want, rel=1e-9)

    def test_balanced_unsupported(self, cfg_sym):
        with pytest.raises(BalancedUnsupported):
            display_time_to_barrier(cfg_sym, 0)


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

    def test_near_balance_matches_exact_derivative(self):
        # N |log(q/p)| = 2e-6: a form that divides by q - p cancels here
        # (to -158.97 at k = 0); the barrier chain's terms are sums of
        # positive terms
        m = make_model(**NEAR_BALANCE)
        assert has_barrier_split(m)
        _assert_matches_derivative(
            m, {k: mean_time_to_barrier(m, k) for k in range(-5, 6)})

    def test_coth_shape_matches_50_digits(self):
        # h(t) = (t coth t - 1) / t^2: a Bernoulli series below the cut,
        # the direct form above it
        sympy = pytest.importorskip("sympy")
        from mfbwalk.absorption_engine import (_COTH_SERIES, _COTH_SERIES_CUT,
                                               _coth_shape)
        want = [2 ** (2 * n) * sympy.bernoulli(2 * n) / sympy.factorial(2 * n)
                for n in range(1, len(_COTH_SERIES) + 1)]
        assert _COTH_SERIES == pytest.approx([float(c) for c in want],
                                             rel=1e-15, abs=0.0)
        cut = _COTH_SERIES_CUT
        with mpmath.workdps(50):
            for t in (0.0, 1e-8, 0.05, math.nextafter(cut, 0.0), cut, 0.5,
                      3.0, 40.0, 1e6):
                exact = (mpmath.mpf(1) / 3 if t == 0.0 else
                         (t * mpmath.coth(t) - 1) / mpmath.mpf(t) ** 2)
                assert abs(_coth_shape(t) - exact) <= 2e-14 * exact

    def test_tail_ratio_approaches_xi2(self, cfg_drift):
        # the split behaves like xi^k (a + b k), so successive ratios close
        # in on the tail ratio at rate 1/k; cfg-drift's frame is mirrored,
        # so its right tail is the frame's left one, of ratio 1 / xi1
        ratio = 1.0 / barrier_spectrum(cfg_drift).xi1
        gaps = [abs(mean_time_to_barrier(cfg_drift, k + 1)
                    / mean_time_to_barrier(cfg_drift, k) - ratio)
                for k in (5, 9, 20, 40)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.05 * ratio

    def test_split_sums_to_total_mean_time(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            m = random_model(rng, "DRIFT", i0=0)
            half = default_truncation(m)
            total = sum(mean_time_to_barrier(m, k)
                        for k in range(-half + 1, half))
            assert total == pytest.approx(mean_time_any(m, 0), rel=1e-12)

    @pytest.mark.parametrize("N", [10, 100, 1000])
    @pytest.mark.parametrize("y", [-2e-2, 2e-2, 1.0, -5.0])
    def test_matches_exact_derivative_at_large_n(self, N, y):
        # N |log(q/p)| = y; |y| = 2e-2 sits just above the refusal cut
        q = 0.5 / (1.0 + math.exp(-y / N))
        for p0, q0, s0 in ((0.3, 0.3, 0.2), (0.1, 0.1, 0.05)):
            m = make_model(p=0.5 - q, q=q, p0=p0, q0=q0, s0=s0, N=N, i0=0)
            deriv = truncated_visit_derivatives(m)
            for k in range(-5, 6):
                assert mean_time_to_barrier(m, k) == \
                    pytest.approx(m.s0 * deriv[k * N], rel=1e-12)

    def test_mirror_identity(self):
        # m_0k of a walk is m_0,-k of its reflection
        rng = np.random.default_rng(33)
        for _ in range(40):
            m = random_model(rng, "DRIFT", i0=0)
            image = mirror(m)
            for k in range(-5, 6):
                assert mean_time_to_barrier(m, k) == \
                    pytest.approx(mean_time_to_barrier(image, -k), rel=1e-12)

    @pytest.mark.parametrize("p,q", [(0.4, 0.1), (0.1, 0.4)])
    def test_large_drift_stays_finite(self, p, q):
        # N |log rho| = 832: every power of max(rho, 1/rho) overflows
        m = make_model(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=600, i0=0)
        deriv = truncated_visit_derivatives(m)
        for k in range(-5, 6):
            value = mean_time_to_barrier(m, k)
            assert math.isfinite(value)
            assert value == pytest.approx(m.s0 * deriv[k * m.N], rel=1e-12)

    def test_matches_numeric_generating_function_derivative(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            m = random_model(rng, "DRIFT", i0=0)
            deriv = truncated_visit_derivatives(m)
            for k in range(-5, 6):
                assert mean_time_to_barrier(m, k) == \
                    pytest.approx(m.s0 * deriv[k * m.N], rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(barrier_starts())
    def test_matches_exact_derivative_on_query_models(self, m):
        assume(has_barrier_split(m))
        # the s0 = 1e-7 models would need lattices of millions of sites
        assume(2 * default_truncation(m) * m.N + 1 <= 200_000)
        _assert_matches_derivative(
            m, {k: mean_time_to_barrier(m, k) for k in range(-5, 6)})

    @pytest.mark.parametrize("ratio,n,flip", EXTREME_DRIFT)
    def test_extreme_drift_matches_exact_derivative(self, ratio, n, flip):
        m = extreme_drift(ratio, n, flip)
        assert 2 * default_truncation(m) * m.N + 1 <= MAX_SITES
        _assert_matches_derivative(
            m, {k: mean_time_to_barrier(m, k) for k in range(-3, 4)},
            rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(barrier_starts())
    def test_split_sums_in_closed_form_to_total_mean_time(self, m):
        # both geometric tails of s0 x0 xi^k (A + |k| B) summed exactly, with
        # no lattice and no window, so the s0 = 1e-7 models count too
        assume(has_barrier_split(m))
        spectrum = barrier_spectrum(m)
        _, xi1, xi2, base, slope = absorption_engine._mean_time_constants(m)[2]
        left, right = xi1 / spectrum.gap1, xi2 / spectrum.gap2
        total = (base * (left + right)
                 + slope * (left / spectrum.gap1 + right / spectrum.gap2))
        assert total == pytest.approx(mean_time_any(m, 0), rel=1e-12)


class TestAbsorptionTimes:
    def test_drift_bundle(self, cfg_drift):
        times = absorption_times(cfg_drift, -2, 2)
        assert times.period_values[0] == pytest.approx(22.0 / 3.0, rel=1e-9)
        assert set(times.per_barrier) == set(range(-2, 3))

    def test_balanced_has_no_split(self, cfg_sym):
        times = absorption_times(cfg_sym)
        assert times.period_values == (5.0, 6.0, 5.0)
        assert times.per_barrier == {}

    def test_near_balance_has_split(self):
        m = make_model(**NEAR_BALANCE)
        times = absorption_times(m, -2, 2)
        assert len(times.period_values) == 7
        assert sorted(times.per_barrier) == list(range(-2, 3))
        _assert_matches_derivative(m, times.per_barrier)

    @settings(max_examples=200, deadline=None)
    @given(query_models())
    def test_period_equals_mean_time_any(self, m):
        want = tuple(mean_time_any(m, i) for i in range(m.N + 1))
        assert absorption_times(m).period_values == want
        assert mean_time_period(m) == want

    def test_empty_window_rejected(self, cfg_drift):
        with pytest.raises(ValueError, match="empty barrier window"):
            absorption_times(cfg_drift, 3, -3)

    def test_period_above_the_budget_refused_before_allocating(self):
        # N + 1 > MAX_SITES mean times; mean_time_any still serves each site
        m = make_model(p=0.3, q=0.3, p0=0.3, q0=0.3, s0=0.2, N=MAX_SITES, i0=0)
        tracemalloc.start()
        try:
            for call in (mean_time_period, absorption_times):
                with pytest.raises(ValueError, match=f"more than {MAX_SITES}"):
                    call(m)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert mean_time_any(m, 7) > 0.0

    def test_window_above_the_budget_refused_before_allocating(self, cfg_drift,
                                                              cfg_sym):
        # MAX_SITES + 1 barriers, refused before the period or the split
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"holds {MAX_SITES + 1} "
                               f"barriers, more than {MAX_SITES}"):
                absorption_times(cfg_drift, 0, MAX_SITES)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert absorption_times(cfg_sym, 1, MAX_SITES).per_barrier == {}

    @settings(max_examples=200, deadline=None)
    @given(query_models())
    def test_split_equals_mean_time_to_barrier(self, m):
        per_barrier = absorption_times(m, -4, 4).per_barrier
        if has_barrier_split(m):
            assert per_barrier == {k: mean_time_to_barrier(m, k)
                                   for k in range(-4, 5)}
        else:
            assert per_barrier == {}


class TestCachedConstants:
    @staticmethod
    def _values(m):
        values = [mean_time_period(m), [mean_time_any(m, i) for i in (-1, 0, 1, 7)],
                  absorption_times(m, -4, 4)]
        if has_barrier_split(m):
            values += [[f(m, k) for k in range(-4, 5)]
                       for f in (mean_time_to_barrier, display_time_to_barrier)]
        return values

    def test_values_survive_a_cache_clear(self, cfg_drift):
        rng = np.random.default_rng(41)
        models = [cfg_drift, mirror(cfg_drift), make_model(**NEAR_BALANCE)]
        models += [random_model(rng, branch, N=int(rng.integers(2, 300)), i0=0)
                   for branch in ("DRIFT", "BALANCED") for _ in range(10)]
        first = [self._values(m) for m in models]
        assert [self._values(m) for m in models] == first
        absorption_engine._mean_time_constants.cache_clear()
        assert [self._values(m) for m in models] == first

    @pytest.mark.parametrize("raw,wanted", [
        (CFG_SYM, BalancedUnsupported),
        (dict(p=0.4, q=0.2, p0=0.2, q0=0.2, s0=0.2, N=3, i0=1), StartNotBarrier),
    ])
    def test_refusals_are_raised_afresh(self, raw, wanted):
        m = make_model(**raw)

        def refusal():
            with pytest.raises(wanted) as caught:
                mean_time_to_barrier(m, 1)
            return caught.value

        first, second = refusal(), refusal()
        assert first is not second
        assert str(first) == str(second)
        depth = len(traceback.extract_tb(first.__traceback__))
        for _ in range(200):
            last = refusal()
        assert len(traceback.extract_tb(last.__traceback__)) == depth


class TestHeldPeriod:
    """The period m_0..m_N held in the model's mean-time record."""

    records = staticmethod(absorption_engine._mean_time_constants)
    longest = absorption_engine._HELD_PERIOD

    @staticmethod
    def _barrier_start(s0, n):
        return make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=s0, N=n, i0=0)

    @staticmethod
    def _bits(period):
        return list(map(float.hex, period))

    def test_held_periods_total_at_most_max_sites_values(self):
        assert self.longest == 3906
        assert self.longest * self.records.cache_parameters()["maxsize"] \
            <= MAX_SITES

    def test_held_up_to_the_longest_and_computed_afresh_beyond(self):
        held = self._barrier_start(0.2, self.longest - 1)
        period = mean_time_period(held)
        assert len(period) == self.longest
        assert mean_time_period(held) is period
        assert absorption_times(held).period_values is period
        fresh = self._barrier_start(0.2, self.longest)
        first, second = mean_time_period(fresh), mean_time_period(fresh)
        assert len(first) == self.longest + 1
        assert first is not second
        assert self._bits(first) == self._bits(second)
        assert self.records(fresh)[3] is None

    def test_warm_value_is_the_cold_one_bit_for_bit(self, cfg_drift):
        rng = np.random.default_rng(31)
        models = [cfg_drift, mirror(cfg_drift), make_model(**NEAR_BALANCE)]
        models += [random_model(rng, branch, N=int(n))
                   for branch in ("DRIFT", "BALANCED")
                   for n in (2, 3, 10, 100, 1000, self.longest + 1)]
        self.records.cache_clear()
        cold = [self._bits(mean_time_period(m)) for m in models]
        warm = [self._bits(absorption_times(m).period_values)
                for m in models]
        per_site = [self._bits([mean_time_any(m, i) for i in range(m.N + 1)])
                    for m in models]
        assert cold == warm == per_site

    def test_cache_clear_drops_held_periods(self, cfg_drift, cfg_sym):
        held = [mean_time_period(m) for m in (cfg_drift, cfg_sym)]
        assert [self.records(m)[3] for m in (cfg_drift, cfg_sym)] == held
        self.records.cache_clear()
        assert self.records.cache_info().currsize == 0
        again = [mean_time_period(m) for m in (cfg_drift, cfg_sym)]
        assert again == held
        assert all(a is not h for a, h in zip(again, held))

    def test_threads_share_the_records(self):
        # more threads than cores, with a short switch interval, read the
        # same models in the same order, more than the cache holds: they
        # miss and store the same period at once and evict what others
        # read.  Every thread gets the serial values
        models = [self._barrier_start(0.01 + i * 1e-4, 2 + i % 7)
                  for i in range(700)]
        want = [tuple(mean_time_any(m, i) for i in range(m.N + 1))
                for m in models]
        self.records.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                # read in a cycle longer than the cache, each read misses
                got = list(pool.map(
                    lambda _: [mean_time_period(m) for m in models * 5],
                    range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want * 5] * 4
        # once read again, each of the last 512 models holds its period
        for m, period in zip(models[-512:], want[-512:]):
            assert mean_time_period(m) is self.records(m)[3] == period

    @pytest.mark.parametrize("raw", FLOAT_RANGE_MODELS[:2])
    def test_refused_period_is_not_held(self, raw):
        m = make_model(**raw)
        for _ in range(2):
            with pytest.raises(OverflowError):
                mean_time_period(m)
        assert self.records(m)[3] is None
