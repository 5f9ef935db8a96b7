import dataclasses

import numpy as np
import pytest

from mfbwalk import (
    ExcessCensoring,
    TruncationInsufficient,
    default_truncation,
    make_model,
    mean_time_any,
    periodic_mean_times,
    simulate,
    site_visits,
    truncated_mean_times,
    truncated_visit_derivatives,
    truncated_visits,
)
from mfbwalk.oracle import MAX_SITES
from conftest import random_model


class TestTruncatedVisits:
    def test_symmetric_golden(self, cfg_sym):
        tv = truncated_visits(cfg_sym, K=40)
        assert tv.values[0] == pytest.approx(2.309401076758504, abs=1e-10)
        assert tv.values[2] == pytest.approx(0.6188021535170063, abs=1e-10)
        assert tv.values[1] == pytest.approx(0.7320508075688774, abs=1e-10)

    def test_conservation_at_one(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED")
            tv = truncated_visits(m)
            assert tv.absorbed_mass + tv.leak == pytest.approx(1.0, abs=1e-10)

    def test_series_increases_in_z(self, cfg_sym):
        low = truncated_visits(cfg_sym, K=40, z=0.5)
        one = truncated_visits(cfg_sym, K=40, z=1.0)
        assert low.values[0] < one.values[0]

    def test_solution_nonnegative(self, cfg_drift):
        tv = truncated_visits(cfg_drift)
        assert min(tv.values.values()) >= 0.0

    def test_truncation_convergence(self, cfg_drift):
        k = default_truncation(cfg_drift)
        small = truncated_visits(cfg_drift, K=k)
        large = truncated_visits(cfg_drift, K=2 * k)
        inner = cfg_drift.N * (k // 2)
        for j in range(-inner, inner + 1):
            assert abs(small.values[j] - large.values[j]) <= small.tail_bound

    def test_truncation_insufficient(self, cfg_drift):
        with pytest.raises(TruncationInsufficient):
            truncated_visits(cfg_drift, K=5, tol=1e-12)

    def test_size_budget(self):
        # at s0 = 1e-7 the default truncation asks for about 2.7e8 sites
        m = make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=1e-7, N=10, i0=0)
        assert 2 * default_truncation(m) * m.N + 1 > MAX_SITES
        with pytest.raises(TruncationInsufficient):
            truncated_visits(m)
        with pytest.raises(TruncationInsufficient):
            truncated_visit_derivatives(m)

    def test_parameter_domains(self, cfg_sym):
        with pytest.raises(ValueError):
            truncated_visits(cfg_sym, K=2)
        with pytest.raises(ValueError):
            truncated_visits(cfg_sym, z=1.5)

    def test_start_site_row_counts_time_zero(self, cfg_sym):
        tv = truncated_visits(cfg_sym)
        assert tv.values[cfg_sym.i0] >= 1.0

    def test_transition_row_deficits(self, cfg_drift):
        # I - P^T reconstructed from the banded storage: row sums of P are
        # 1 on interior sites, 1 - s0 on barriers, 0 on the fringe sinks
        from mfbwalk.oracle import _banded_system
        ab, half = _banded_system(cfg_drift, K=5, z=1.0)
        n = 2 * half + 1
        outflow = np.zeros(n)           # column sums of z * P^T per source
        outflow += 1.0 - ab[1]          # hold
        outflow[1:] += -ab[0, 1:]       # backward
        outflow[:-1] += -ab[2, :-1]     # forward
        for col in range(n):
            site = col - half
            if abs(site) == half:
                assert outflow[col] == 0.0
            elif site % cfg_drift.N == 0:
                assert outflow[col] == pytest.approx(1.0 - cfg_drift.s0,
                                                     abs=1e-15)
            else:
                assert outflow[col] == pytest.approx(1.0, abs=1e-15)


class TestMeanTimes:
    def test_periodic_solve_goldens(self, cfg_sym, cfg_drift):
        m_sym = periodic_mean_times(cfg_sym)
        assert m_sym[0] == pytest.approx(5.0, abs=1e-12)
        assert m_sym[1] == pytest.approx(6.0, abs=1e-12)
        assert m_sym[2] == m_sym[0]
        m_dr = periodic_mean_times(cfg_drift)
        assert m_dr[0] == pytest.approx(22.0 / 3.0, rel=1e-12)
        assert m_dr[1] == pytest.approx(9.0, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["cfg_drift", "cfg_sym"])
    def test_split_mass_sums_to_total_time(self, fixture, request):
        model = request.getfixturevalue(fixture)
        split = truncated_mean_times(model, K=40)
        assert sum(split.per_barrier.values()) == \
            pytest.approx(float(split.period[0]), abs=1e-8)

    def test_periodic_solve_tiny_steps(self):
        # with p, q near 1e-6 the diagonal 1 - r rounds when it is formed by
        # subtraction; summed from p and q it does not
        for p, q, N in [(4e-7, 3e-6, 2), (3e-6, 4e-7, 5), (1e-6, 2e-6, 10),
                        (7e-7, 7e-7, 3)]:
            m = make_model(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=N, i0=0)
            solved = periodic_mean_times(m)
            for i in range(N + 1):
                assert solved[i] == pytest.approx(mean_time_any(m, i), rel=1e-12)


class TestSimulate:
    def test_rejects_degenerate_requests(self, cfg_sym):
        with pytest.raises(ValueError):
            simulate(cfg_sym, walks=0, seed=1)
        with pytest.raises(ValueError):
            simulate(cfg_sym, walks=10, seed=1, workers=0)
        with pytest.raises(ValueError):
            simulate(cfg_sym, walks=10, seed=-1)

    def test_single_walk_is_absorbed(self, cfg_sym):
        stats = simulate(cfg_sym, walks=1, seed=7, step_cap=10 ** 9)
        assert stats.censored == 0
        assert sum(stats.absorption_hist.values()) == pytest.approx(1.0)

    def test_histogram_and_censoring_partition_walks(self, cfg_drift):
        stats = simulate(cfg_drift, walks=20_000, seed=3)
        total = sum(stats.absorption_hist.values()) + stats.censored / 20_000
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_bitwise_identical(self, cfg_sym):
        a = simulate(cfg_sym, walks=30_000, seed=123)
        b = simulate(cfg_sym, walks=30_000, seed=123)
        assert a == b

    def test_worker_count_invariance(self, cfg_drift):
        runs = [simulate(cfg_drift, walks=30_000, seed=9, workers=w)
                for w in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_different_seeds_differ(self, cfg_sym):
        a = simulate(cfg_sym, walks=5_000, seed=1)
        b = simulate(cfg_sym, walks=5_000, seed=2)
        assert a.mean_steps != b.mean_steps

    def test_mean_steps_agrees_with_solve(self, cfg_sym):
        stats = simulate(cfg_sym, walks=200_000, seed=42)
        m0 = float(periodic_mean_times(cfg_sym)[0])
        assert abs(stats.mean_steps - m0) < 4.0 * stats.mean_steps_se

    def test_visit_means_agree_with_solver(self, cfg_drift):
        stats = simulate(cfg_drift, walks=200_000, seed=42)
        for j in range(-2 * cfg_drift.N, 2 * cfg_drift.N + 1):
            mean, se = stats.visit_means[j]
            assert abs(mean - site_visits(cfg_drift, j)) < 4.0 * max(se, 1e-12)

    def test_excess_censoring_warns(self, cfg_sym):
        with pytest.warns(ExcessCensoring):
            stats = simulate(cfg_sym, walks=2_000, seed=5, step_cap=2)
        assert stats.censored > 0

    def test_stats_are_frozen(self, cfg_sym):
        stats = simulate(cfg_sym, walks=100, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.mean_steps = 0.0
