import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbwalk import (
    RejectedParameter,
    barrier_recurrence_residual,
    barrier_spectrum,
    barrier_visits,
    absorption_mass,
    boundary_coefficients,
    display_barrier_visits,
    make_model,
    mean_time_any,
    occupancy_residual,
    occupancy_residuals,
    reach_probability,
    reanchored,
    site_visits,
    total_absorption,
    truncated_visits,
    visit_profile,
)
from mfbwalk.walk_model import MAX_SITES
from conftest import EDGE_MODELS, mirror, model_strategy, query_models, random_model

# frozen oracle values (truncated solver, K = 60, tail < 1e-27)
SYM_X = {-2: 0.6188021535170064, -1: 0.7320508075688775, 0: 2.309401076758504,
         1: 0.7320508075688774, 2: 0.6188021535170063, 3: 0.19615242270663194}
DRIFT_X = {-4: 0.08893419027681684, -2: 0.5021003213538063,
           -1: 1.1122779563076701, 0: 2.8347335475692046,
           1: 1.2796447300922722, 2: 1.0042006427076127,
           3: 0.45331246793829333, 4: 0.3557367611072674}
# drift walk with N = 3 and an off-barrier start (same oracle, K = 80)
M3 = dict(p=0.35, q=0.25, p0=0.15, q0=0.25, s0=0.25, N=3, i0=1)
M3_X = {-3: 0.2766933852839672, -2: 0.4944198102171015,
        -1: 1.0205915133506633, 0: 1.75723189773765,
        1: 3.1399748154269616, 2: 2.4816004183821176,
        3: 1.559876262519337, 4: 0.5814376968153114,
        5: 0.4595247148451452, 6: 0.28884654008691246}


class TestBarrierVisits:
    def test_symmetric_goldens(self, cfg_sym):
        assert barrier_visits(cfg_sym, 0) == pytest.approx(SYM_X[0], rel=1e-10)
        assert barrier_visits(cfg_sym, 1) == pytest.approx(SYM_X[2], rel=1e-10)
        # analytic forms: x_0 = 4/sqrt(3), x_2 = x_0 (2 - sqrt(3))
        assert barrier_visits(cfg_sym, 0) == \
            pytest.approx(4.0 / math.sqrt(3.0), rel=1e-14)

    def test_drift_goldens(self, cfg_drift):
        for k in (-2, -1, 0, 1, 2):
            assert barrier_visits(cfg_drift, k) == \
                pytest.approx(DRIFT_X[2 * k], rel=1e-10)

    def test_symmetric_recurrence_value_at_zero(self, cfg_sym):
        # q0 x_N - (p0 + q0 + N s0) x_0 + p0 x_{-N} must equal i0 - N = -2
        x0 = barrier_visits(cfg_sym, 0)
        xp = barrier_visits(cfg_sym, 1)
        xm = barrier_visits(cfg_sym, -1)
        lhs = 0.25 * xp - 1.0 * x0 + 0.25 * xm
        assert lhs == pytest.approx(-2.0, abs=1e-12)

    def test_geometric_decay_ratios(self, cfg_drift):
        # in the frame the left tail decays with ratio 1/xi1 and the right
        # tail with ratio xi2; cfg-drift's frame is mirrored, so its left
        # tail is the frame's right one and the other way round
        spectrum = barrier_spectrum(cfg_drift)
        assert spectrum.mirrored
        for k in range(-4, 1):
            ratio = barrier_visits(cfg_drift, k) / barrier_visits(cfg_drift, k - 1)
            assert ratio == pytest.approx(1.0 / spectrum.xi2, rel=1e-12)
        for k in range(1, 5):
            ratio = barrier_visits(cfg_drift, k + 1) / barrier_visits(cfg_drift, k)
            assert ratio == pytest.approx(1.0 / spectrum.xi1, rel=1e-12)

    def test_display_form_agrees_everywhere(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            for k in range(-4, 5):
                value = barrier_visits(m, k)
                assert abs(display_barrier_visits(m, k) - value) \
                    <= 1e-9 * max(abs(value), 1e-30)

    def test_recurrence_residuals_vanish(self):
        rng = np.random.default_rng(12)
        models = [random_model(rng, "DRIFT" if t % 2 else "BALANCED")
                  for t in range(40)]
        for m in models:
            for k in range(-4, 5):
                assert abs(barrier_recurrence_residual(m, k)) < 1e-10


class TestSiteVisits:
    def test_symmetric_interior_golden(self, cfg_sym):
        assert site_visits(cfg_sym, 1) == pytest.approx(SYM_X[1], rel=1e-10)
        assert site_visits(cfg_sym, 1) == \
            pytest.approx(0.25 * (SYM_X[2] + SYM_X[0]) / (0.5 * 2), rel=1e-9)

    def test_drift_interior_golden(self, cfg_drift):
        for j, want in DRIFT_X.items():
            assert site_visits(cfg_drift, j) == pytest.approx(want, rel=1e-9)

    def test_off_barrier_start_goldens(self):
        m = make_model(**M3)
        for j, want in M3_X.items():
            assert site_visits(m, j) == pytest.approx(want, rel=1e-9)

    def test_start_interval_branches_overlap(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            branch = "DRIFT" if trial % 2 else "BALANCED"
            m = random_model(rng, branch)
            if m.i0 == 0:
                continue
            n, i0 = m.i0, m.i0
            xk = barrier_visits(m, 0)
            xk1 = barrier_visits(m, 1)
            if branch == "BALANCED":
                a = (m.q0 * n * xk1 + m.p0 * (m.N - n) * xk
                     + n * (m.N - i0)) / (m.p * m.N)
                b = (m.q0 * n * xk1 + m.p0 * (m.N - n) * xk
                     + i0 * (m.N - n)) / (m.p * m.N)
            else:
                rho = m.rho
                common = ((m.p0 / m.p) * (rho ** n - rho ** m.N) * xk
                          + (m.q0 / m.q) * (1.0 - rho ** n) * xk1)
                a = (common + (1.0 - rho ** n) * (rho ** (m.N - i0) - 1.0)
                     / (m.p - m.q)) / (1.0 - rho ** m.N)
                b = (common + (rho ** n - rho ** m.N) * (1.0 - rho ** (-i0))
                     / (m.p - m.q)) / (1.0 - rho ** m.N)
            assert a == pytest.approx(b, rel=1e-10)
            assert site_visits(m, m.i0) == pytest.approx(b, rel=1e-12)

    def test_oracle_equivalence_window(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            tv = truncated_visits(m)
            assert tv.tail_bound < 1e-12
            for j in range(-3 * m.N, 3 * m.N + 1):
                closed = site_visits(m, j)
                assert abs(closed - tv.values[j]) / max(closed, 1e-30) < 1e-8

    def test_occupancy_balance_everywhere(self):
        rng = np.random.default_rng(15)
        for trial in range(30):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            for j in range(-2 * m.N, 2 * m.N + 1):
                assert abs(occupancy_residual(m, j)) < 1e-10

    def test_occupancy_balance_at_tiny_p_q(self):
        # r = 1 - p - q is stored rounded, so an outflow formed as 1 - r
        # kept only a few digits of p + q = 1.4e-7
        m = make_model(p=7.02e-8, q=7.02e-8, p0=0.428, q0=0.2755, s0=0.16,
                       N=3, i0=1)
        residuals = occupancy_residuals(visit_profile(m, -3, 3))
        assert max(map(abs, residuals.values())) < 1e-10

    def test_all_visits_nonnegative(self):
        rng = np.random.default_rng(16)
        for trial in range(30):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            assert all(site_visits(m, j) >= 0.0
                       for j in range(-2 * m.N, 2 * m.N + 1))

    def test_total_arrivals_equal_mean_time_plus_one(self):
        # every step occupies a site and so does time zero
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            tv = truncated_visits(m)
            half = tv.K * m.N
            total = sum(site_visits(m, j) for j in range(-half + 1, half))
            assert total == pytest.approx(mean_time_any(m, m.i0) + 1.0,
                                          rel=1e-8)


class TestMirrorFrame:
    def test_mirror_identity(self):
        # x_j of a walk is x_{N [i0 != 0] - j} of its reflection
        rng = np.random.default_rng(32)
        for trial in range(60):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED",
                             N=int(rng.integers(2, 12)))
            image = mirror(m)
            shift = m.N if m.i0 else 0
            for j in range(-3 * m.N, 3 * m.N + 1):
                assert site_visits(m, j) == \
                    pytest.approx(site_visits(image, shift - j), rel=1e-12)

    @pytest.mark.parametrize("params", EDGE_MODELS,
                             ids=lambda d: f"p{d['p']}-i0_{d['i0']}")
    def test_large_drift_matches_solver(self, params):
        m = make_model(**params)
        tv = truncated_visits(m)
        for j in range(-3 * m.N, 3 * m.N + 1):
            closed = site_visits(m, j)
            assert math.isfinite(closed)
            assert abs(closed - tv.values[j]) <= 1e-8 * max(tv.values[j], 1e-30)
        for k in range(-3, 4):
            for value in (barrier_visits(m, k), display_barrier_visits(m, k),
                          absorption_mass(m, k),
                          barrier_recurrence_residual(m, k)):
                assert math.isfinite(value)
            assert abs(barrier_recurrence_residual(m, k)) < 1e-10
        assert all(math.isfinite(c) for c in boundary_coefficients(m))
        assert 0.0 <= reach_probability(m, 3, -5) <= 1.0
        assert total_absorption(m) == pytest.approx(1.0, abs=1e-12)

    def test_arrivals_beyond_the_float_range_raise(self):
        # with p and q subnormal an interior site is visited about
        # 1 / (p + q) times, past the float range; a barrier is not
        m = make_model(p=1e-310, q=1e-310, p0=0.3, q0=0.3, s0=0.2, N=10, i0=0)
        assert math.isfinite(site_visits(m, 10))
        for call in (lambda: site_visits(m, 3), lambda: visit_profile(m),
                     lambda: reach_probability(m, 0, 3)):
            with pytest.raises(OverflowError, match="beyond the float range"):
                call()

    @pytest.mark.parametrize("p0,q0", [(0.3, 0.3), (0.2, 0.35)])
    def test_total_absorption_at_tiny_s0(self, p0, q0):
        # a root lies within 4e-6 of one, so the sums divide by the gaps
        # the roots were solved for, not by a difference of rounded roots
        m = make_model(p=0.3, q=0.25, p0=p0, q0=q0, s0=1e-7, N=10, i0=0)
        for model in (m, mirror(m)):
            assert total_absorption(model) == pytest.approx(1.0, abs=1e-12)


def _site_visits_mp(m, sites):
    """x_j of the closed form at 50 digits, from the model's own p and q,
    rounded.  xi2 is c / (q0 xi1): the quadratic formula cancels it to 0
    even at 60 digits where it is about 1e-116."""
    mp = mpmath.mpf
    with mpmath.workdps(50):
        p, q, p0, q0, s0 = (mp(v) for v in (m.p, m.q, m.p0, m.q0, m.s0))
        n, i0, mirrored = m.N, m.i0, m.p > m.q
        if mirrored:
            p, q, p0, q0, i0 = q, p, q0, p0, -i0 % n
        rho = p / q

        def qint(k):
            return mp(k) if p == q else (1 - rho ** k) / (1 - rho)

        c, s = p0 * rho ** (n - 1), s0 * qint(n)
        b = q0 - c - s
        root = mpmath.sqrt(b * b + 4 * q0 * s)
        gap1 = (root - b) / (2 * q0) if b < 0 else 2 * s / (root + b)
        gap2 = s / (q0 * gap1)
        xi1, xi2 = 1 + gap1, c / (q0 * (1 + gap1))
        r1 = -qint(n - i0) / q0
        r2 = -qint(i0) * rho ** (n - i0) / (q0 * xi1)
        c1 = -(r1 + r2) / (gap1 + gap2)
        xn = -(r1 * xi2 + r2 * xi1) / (gap1 + gap2)

        def barrier(k):
            return c1 * xi1 ** k if k <= 0 else xn * xi2 ** (k - 1)

        values = []
        for j in sites:
            k, off = divmod((n if m.i0 else 0) - j if mirrored else j, n)
            x = barrier(k)
            if off:
                x = (p0 / p * rho ** off * qint(n - off) * x
                     + q0 / q * qint(off) * barrier(k + 1))
                if k == 0:
                    lo, hi = sorted((off, i0))
                    x += rho ** (hi - i0) * qint(lo) * qint(n - hi) / q
                x /= qint(n)
            values.append(float(x))
        return values


class TestNearBalanceAccuracy:
    def test_site_visits_match_50_digits(self):
        # |p - q| / p from 1e-15 to 1e-4: log rho is taken from q - p, exact
        # here, and every power of rho from it, so the rounding of p / q
        # does not carry into the q-integers
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(60):
            p = rng.uniform(0.02, 0.49)
            q = p * (1.0 + rng.choice((-1.0, 1.0))
                     * math.exp(rng.uniform(math.log(1e-15), math.log(1e-4))))
            s0 = math.exp(rng.uniform(math.log(1e-6), math.log(0.3)))
            p0, q0 = rng.uniform(0.01, (1.0 - s0) / 2, size=2)
            n = round(math.exp(rng.uniform(math.log(2), math.log(2000))))
            m = make_model(p=p, q=q, p0=p0, q0=q0, s0=s0, N=n,
                           i0=int(rng.integers(0, n)))
            sites = [int(j) for j in rng.integers(-3 * n, 3 * n + 1, size=6)]
            for j, want in zip(sites, _site_visits_mp(m, sites)):
                worst = max(worst, abs(site_visits(m, j) - want) / want)
        assert worst <= 2e-15


class TestAbsorption:
    def test_symmetric_masses(self, cfg_sym):
        assert absorption_mass(cfg_sym, 0) == \
            pytest.approx(0.25 * SYM_X[0], rel=1e-10)
        assert absorption_mass(cfg_sym, 1) == \
            pytest.approx(absorption_mass(cfg_sym, -1), rel=1e-13)

    def test_total_absorption_reference_configs(self, cfg_sym, cfg_drift):
        assert total_absorption(cfg_sym) == pytest.approx(1.0, abs=1e-10)
        assert total_absorption(cfg_drift) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(model_strategy())
    def test_total_absorption_is_one(self, m):
        assert total_absorption(m) == pytest.approx(1.0, abs=1e-10)

    def test_masses_are_probabilities(self):
        rng = np.random.default_rng(18)
        for trial in range(20):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            for k in range(-5, 6):
                assert 0.0 <= absorption_mass(m, k) <= 1.0


class TestReach:
    def test_self_reach_golden(self, cfg_sym):
        assert reach_probability(cfg_sym, 0, 0) == \
            pytest.approx(0.5669872981077808, rel=1e-12)

    def test_symmetry(self, cfg_sym):
        assert reach_probability(cfg_sym, 0, 2) == \
            pytest.approx(reach_probability(cfg_sym, 0, -2), rel=1e-12)

    def test_translation_invariance(self, cfg_drift):
        # starts shifted by whole periods see the same lattice
        assert reach_probability(cfg_drift, 4, 6) == \
            pytest.approx(reach_probability(cfg_drift, 0, 2), rel=1e-12)
        assert reach_probability(cfg_drift, -3, 0) == \
            pytest.approx(reach_probability(cfg_drift, 1, 4), rel=1e-12)
        # the shift lands every start in [0, N); reanchored refuses the rest
        assert reanchored(cfg_drift, 1) == \
            make_model(**{**cfg_drift.to_dict(), "i0": 1})
        for i0 in (-1, cfg_drift.N):
            with pytest.raises(RejectedParameter, match="i0"):
                reanchored(cfg_drift, i0)

    def test_bounds(self):
        rng = np.random.default_rng(19)
        for trial in range(15):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            for i, j in [(0, 1), (1, 0), (-2, 3), (2, -1), (5, 5)]:
                assert 0.0 <= reach_probability(m, i, j) <= 1.0 + 1e-12

    @staticmethod
    def _reanchored_reach(m, i, j):
        # the definition: x_ij from a model re-anchored at i's residue
        def arrivals(start, target):
            shift = (start // m.N) * m.N
            return site_visits(reanchored(m, start - shift), target - shift)

        if i == j:
            return 1.0 - 1.0 / arrivals(i, i)
        return arrivals(i, j) / arrivals(j, j)

    @settings(max_examples=300, deadline=None)
    @given(query_models(), st.data())
    def test_equals_reanchored_definition(self, m, data):
        sites = st.integers(-3 * m.N, 3 * m.N)
        i = data.draw(sites)
        j = data.draw(st.one_of(st.just(i), sites))
        assert reach_probability(m, i, j) == self._reanchored_reach(m, i, j)

    def test_warm_queries_touch_no_cache_entry(self):
        m = make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=0.2, N=10, i0=4)
        caches = (barrier_spectrum, boundary_coefficients)
        for cache in caches:
            cache.cache_clear()  # so that a new entry shows in currsize
        for model in (m, mirror(m)):
            site_visits(model, 0)  # warms both caches
            before = [c.cache_info() for c in caches]
            for n in range(50):
                start = 7 * n - 170
                reach_probability(model, start, start if n % 5 == 0 else 3 - n)
            after = [c.cache_info() for c in caches]
            for b, a in zip(before, after):
                assert (a.currsize, a.misses) == (b.currsize, b.misses)


class TestVisitProfile:
    def test_window_and_coefficients(self, cfg_sym):
        prof = visit_profile(cfg_sym, -3, 3)
        assert set(prof.values) == set(range(-6, 7))
        c1, xn = boundary_coefficients(cfg_sym)
        assert prof.barrier_coeff_left == c1
        assert prof.barrier_coeff_right == xn
        assert c1 == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-13)
        # the right tail is anchored at barrier 1: x_N = C1 xi2 here
        assert xn == pytest.approx(c1 * (2.0 - math.sqrt(3.0)), rel=1e-13)
        assert xn == prof.values[cfg_sym.N]

    def test_empty_window_rejected(self, cfg_sym):
        with pytest.raises(ValueError):
            visit_profile(cfg_sym, 2, 1)

    def test_window_above_the_budget_refused_before_allocating(self):
        # barriers -1000..1000 at N = 1000 hold 2 000 001 sites
        m = make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=0.2, N=1000, i0=0)
        tracemalloc.start()
        try:
            for window in ((-1000, 1000), (-3000, 3000)):
                with pytest.raises(ValueError, match=f"more than {MAX_SITES}"):
                    visit_profile(m, *window)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @staticmethod
    def _assert_matches_site_visits(m, k_min, k_max):
        prof = visit_profile(m, k_min, k_max)
        assert list(prof.values) == list(range(k_min * m.N, k_max * m.N + 1))
        for j, x in prof.values.items():
            assert x == site_visits(m, j)  # bit for bit

    @settings(max_examples=100, deadline=None)
    @given(model_strategy())
    def test_equals_site_visits(self, m):
        self._assert_matches_site_visits(m, -3, 3)

    @pytest.mark.parametrize("N", [100, 1000])
    @pytest.mark.parametrize("p,q", [(0.3, 0.25), (0.25, 0.3)])
    def test_equals_site_visits_large_n(self, N, p, q):
        # p > q walks are evaluated in their mirror frame
        for i0 in (0, 1, N // 2, N - 1):
            m = make_model(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=N, i0=i0)
            self._assert_matches_site_visits(m, -2, 1)
