import dataclasses
import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbwalk import (
    ExcessCensoring,
    TruncationInsufficient,
    default_truncation,
    has_barrier_split,
    make_model,
    mean_time_any,
    periodic_mean_times,
    reach_probability,
    simulate,
    site_visits,
    truncated_visit_derivatives,
    truncated_visits,
)
from mfbwalk.oracle import (
    _BRIDGE,
    MAX_SITES,
    MC_BARRIERS,
    SPLIT_BARRIERS,
    Battery,
    _lattice_rates,
    _Reduction,
)
from conftest import CFG_DRIFT, CFG_SYM, mirror, query_models, random_model

# slow absorption (mean time about 170) from an interior start, so walks
# span several 64-step draw blocks and the 8195-walk batches thin out
SLOW = dict(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=0.02, N=5, i0=2)

# sha256 of the canonical repr of every EmpiricalStats field a run computes
# (visit means and errors, histogram, absorbed, censored, step mean and
# error), recorded with the first walker, which stepped every row of its
# batch until the last absorption.  Any change to the sampled walks or to
# their reduction changes the digest.
STREAM_PINS = [
    # model, walks, seed, step_cap, window, absorbed, censored, digest
    (CFG_DRIFT, 8195, 5, None, None, 8195, 0,
     "99ffb2fcbcba3235f558a24919fda624bc58b2fd20069b2cc5a9eddb401c1ecd"),
    (CFG_SYM, 8195, 5, None, None, 8195, 0,
     "cf54580f6888a678ecf87aa8a5384aabb112a92ae8f7ea434256c0c7a58195b3"),
    (CFG_DRIFT, 8195, 9, None, (-2, 7), 8195, 0,
     "75baff812f607d7aee3d22da183476e089de7227cc42bade70ee15e7d3e6ceac"),
    (CFG_SYM, 8195, 9, None, (-5, 1), 8195, 0,
     "9b7af92a647d4786703d06fe892546125f30e0bde6a95f96c1fa069c8e5b96f3"),
    (CFG_DRIFT, 8195, 3, 4, (-4, 4), 3510, 4685,
     "59d31e689157ce3b65b2d78d0e9cb569016c8aef8186ea582583c0f2dc28ad0d"),
    (CFG_SYM, 8195, 3, 4, None, 4207, 3988,
     "9c5c6c91382ccd1ab6801f0ead5de19e38f468265960c341217ec7dfe4220d64"),
    (CFG_SYM, 1, 7, None, None, 1, 0,
     "63e85e17592502f9beae50544d20b554ef8aad62b9626d64e98c1b973f904453"),
    (SLOW, 8195, 13, 150, (-6, 12), 3395, 4800,
     "caec869144fdd3a612d1cf737d3c2d38ec0fa96b12802032e7a1a0fb1fbbca86"),
    (SLOW, 300, 2, None, None, 300, 0,
     "6d0f91abe31821a4fa9cff5cbc54577b2084d72fe70f1009e72cd496bb7f6ac4"),
    # one walk (se is NaN) in a window past the step cap 1000 on both sides:
    # the sites beyond the walks' reach share one (mean, se)
    (CFG_DRIFT, 1, 28, None, (-1200, 1500), 1, 0,
     "7a6809b743c59f0316c4bb735c4d718a4777c2a93e3233b56dbd5757e95e4a03"),
]

# sha256 of the bytes of three oracle arrays: the truncated solution tv.x,
# its z-derivative x' over the lattice and periodic_mean_times, recorded
# with the reduction that took the LAPACK band.  Every pinned value is
# computed entry by entry, with no sum whose order could change, so any
# change to the systems or to their elimination changes a digest.
_PINNED = dict(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=0.2)
_PINNED_MIRROR = dict(p=0.25, q=0.3, p0=0.3, q0=0.3, s0=0.2)
ORACLE_PINS = [
    # model, tv.x, x', periodic_mean_times
    (CFG_DRIFT,
     "03b7851adc98278c06676330f30a3e6f4446363164af37b81d7baee7d50e130b",
     "66bd4d4646de1e11a2e242705b203f8d7eec9848f43dafff7fb5b4f3a214efd0",
     "07c9483d1d4853056e41b90289449404d67e968f0d00f0bc024083bcc4b3dea2"),
    (CFG_SYM,
     "947e10c055dbc2dc0c72ce67c5563d575aaf2540cc98ee61782505844c7fb28e",
     "be1a978dcad2eca9ffbd1b96c461db252e187ec60ff14587d24d06110627013b",
     "031a94dfe2027091c8c2564d63d1e569caf8717a5eed1ac97aa15ac5c51112cf"),
    (dict(_PINNED, N=2, i0=0),
     "d3765f3cef47a8cc0bfc35bb22355255ddb40aefc07161a3788d7193c40f8603",
     "e07eb80e859655da3370040a7908674e59536ecdffaf5a93492c296f5a5e18f9",
     "fe16ef740464b716149f0f0be674b3e33553b63d6e6b705cf2545b7cc51172c8"),
    (dict(_PINNED_MIRROR, N=2, i0=0),
     "da9ebb8239219ad71498628c3d138c5cdd9c6eb4d86eb8ea1b2d04fdb3745460",
     "2c8d2092f87253b7cc232fecc2aed58d81eb31c9305fe2398cc798049da0a2ad",
     "fe16ef740464b716149f0f0be674b3e33553b63d6e6b705cf2545b7cc51172c8"),
    (dict(_PINNED, N=2, i0=1),
     "23bb4123bd3ed4bf6064a296f704f310e5bfc93d803ba6c343c4c5ac7b1291e7",
     "db8ea63bd8c8a2872b19d6e8cf7668e9e6ca768c9d530b7a5ebcc7d784bf3ed0",
     "fe16ef740464b716149f0f0be674b3e33553b63d6e6b705cf2545b7cc51172c8"),
    (dict(_PINNED_MIRROR, N=2, i0=1),
     "5dc51b055f9144ed44f822b6fc2e8a0e55ac11c0a09985cc650b5d8c6d60d8d9",
     "0e1ea93866e4c6872b90d64950dd5a8c21cabc4280c300954afcb00064dff40f",
     "fe16ef740464b716149f0f0be674b3e33553b63d6e6b705cf2545b7cc51172c8"),
    (dict(_PINNED, N=10, i0=0),
     "58d5e049e1a538fdc8f75ca4eccd2e34ffd065d504431bf19d2cda8c5e5cc22b",
     "39fa60e9cadd588c836da1c0df05b048436ea32cc7120a6441e26297f34a8899",
     "bd59fd52ecab13ea7b1b13e3c196cb5ef3d13b2759edb07aed51bd6f94ac9c98"),
    (dict(_PINNED_MIRROR, N=10, i0=0),
     "0060bccc679baa66de1b0d3d7d4e0574982308a50eaf0155040a5bbd4b2b6eec",
     "779296f73af346813f67b53e8ee31ef4b4c9587882f9a2fe3fdb6918afb706b9",
     "21e7e89c44e3b3db600215d17742fc4fc41c7b0f7b68a6a894f46df20a7f172c"),
    (dict(_PINNED, N=10, i0=6),
     "6afaa75cb5aa529164fbeefdab1cc8716981bdd8fcc37bbbf0141410895593f6",
     "8f16592f5bc5fc3f82715cc56a62c561d8c4218b046593fb4f96565d3bea742e",
     "bd59fd52ecab13ea7b1b13e3c196cb5ef3d13b2759edb07aed51bd6f94ac9c98"),
    (dict(_PINNED_MIRROR, N=10, i0=4),
     "8f021eec3fb07db4d8d331c6c33e6a5ad625433a6693e5b1fcf970c33845987f",
     "ea04a21b986fe84c26b95e41e4291e179a26032f5e8e1eb7e1d3fa2020fe163b",
     "21e7e89c44e3b3db600215d17742fc4fc41c7b0f7b68a6a894f46df20a7f172c"),
    (dict(_PINNED, N=100, i0=0),
     "1ee666a8fa0fbc0ed4f2bb125b3b5fda08a53f7acab175150583c96a5ef71849",
     "8b0c60f179466fc603054120434cb418b41c1a82c0b2e48613f6be94fd267c94",
     "343c794f3dac8f43b840d3b833e3079970213e4fbcae18a99478a67637e81fcf"),
    (dict(_PINNED_MIRROR, N=100, i0=0),
     "c673fc9cd5e2c5efaa4fb8d2133ce3d4bc79a25d070a742e760f335a1d00b157",
     "b942e69a7a668f10305aa572808224601b02cf47a1df597e87840b7f02491c4a",
     "b6acf437d8c2d095b0bebef650f2d863ec89fd8e746f68104153ae11dad7732f"),
    (dict(_PINNED, N=100, i0=51),
     "496c95e84f7b68f3cdb4b8184dea5e6a68e4c25f62c8093653914513cfd3d0cd",
     "297fd99488247787667c6d2bf600253c79a1b690032f20c8726c5921451de9e5",
     "343c794f3dac8f43b840d3b833e3079970213e4fbcae18a99478a67637e81fcf"),
    (dict(_PINNED_MIRROR, N=100, i0=49),
     "962577a0de40cd1e28f9d7bbc5dd06aa1d409c3b9f85201b30f4047c58179cf3",
     "ef3d5912f6fea3be579b75ef2213f61470a7b8da83a914870fc2434d037e4bd6",
     "b6acf437d8c2d095b0bebef650f2d863ec89fd8e746f68104153ae11dad7732f"),
    (dict(_PINNED, N=1000, i0=0),
     "9859d8338ba879a796c89fd86b349339d59ba413f03b4f3f98ec85c942d05384",
     "1b1b89e71c5e5fcd35159d995fe90ba5d37ad6a2f6969c74576aeb0a22209b84",
     "dbaa1fb3a111480321a927240645fbd9fe0a87d119fcdb4ce5752aa5d9296d2b"),
    (dict(_PINNED_MIRROR, N=1000, i0=0),
     "0ab38a4773116c858ce17abc4f094d97932c2b663a44839c63d1621f4d7f9a3e",
     "b55875d09190b65fffa64cc259708c02fcdb1bfeead555ddfae0e3d565a988a8",
     "4506cfeb4b26f2c7bbad6d116701d8919f4fc377bbf0cb01e4a35c9037fe7823"),
    (dict(_PINNED, N=1000, i0=501),
     "5fc30c50526a864926435318732cfc1953b4436c503c2cc08b546bd450de36d9",
     "c25e35697969b1b8b73654a3de2933c157f42d2492d25cac50a2a632b9da1277",
     "dbaa1fb3a111480321a927240645fbd9fe0a87d119fcdb4ce5752aa5d9296d2b"),
    (dict(_PINNED_MIRROR, N=1000, i0=499),
     "d014d4655125a2d73660fbc14ed7bc31a08af179309ac39f389c8e12ee590fd3",
     "0637034a531d88a8fcdee3355d13383ae09528448961690a122c1f57f19f2c63",
     "4506cfeb4b26f2c7bbad6d116701d8919f4fc377bbf0cb01e4a35c9037fe7823"),
    (dict(p=0.3, q=0.3, p0=0.2, q0=0.35, s0=0.1, N=10, i0=3),
     "d43abe614d5e708f8d985f87194b1c552ad5e82b8e92dc10df9490ee8756373e",
     "e80842766a5c7021dd883edc3b4691d41ad648d4b2809328bab70e70bb610d38",
     "f52fbd0f90d5085f0a2ee17986bf4ca32380404a7aca170c668dd13b931b19a8"),
]


def _stepwise_batch(model, seed, batch_index, rows, step_cap, lo, hi):
    """Reference walker: every row steps until the last walk is absorbed,
    with a full draw block; the accumulators of ``_simulate_batch``."""
    from mfbwalk.oracle import _BLOCK, _uniform_block
    m = model
    pos = np.full(rows, m.i0, dtype=np.int64)
    alive = np.ones(rows, dtype=bool)
    steps = np.zeros(rows, dtype=np.int64)
    absorbed_site = np.zeros(rows, dtype=np.int64)
    was_absorbed = np.zeros(rows, dtype=bool)
    visits = np.zeros((rows, hi - lo + 1), dtype=np.int64)
    if lo <= m.i0 <= hi:
        visits[:, m.i0 - lo] = 1
    for t in range(step_cap):
        if not alive.any():
            break
        if t % _BLOCK == 0:
            uniforms = _uniform_block(seed, batch_index, t // _BLOCK, rows)
        u = uniforms[:, t % _BLOCK]
        at_barrier = alive & (pos % m.N == 0)
        interior = alive & ~at_barrier
        absorb = at_barrier & (u < m.s0)
        fwd = ((at_barrier & ~absorb & (u < m.s0 + m.p0))
               | (interior & (u < m.p)))
        back = ((at_barrier & (u >= m.s0 + m.p0)
                 & (u < m.s0 + m.p0 + m.q0))
                | (interior & (u >= m.p) & (u < m.p + m.q)))
        absorbed_site[absorb] = pos[absorb]
        was_absorbed |= absorb
        alive &= ~absorb
        pos[fwd] += 1
        pos[back] -= 1
        steps[alive] += 1
        walkers = np.nonzero(alive)[0]
        here = pos[walkers]
        inside = (here >= lo) & (here <= hi)
        np.add.at(visits, (walkers[inside], here[inside] - lo), 1)
    abs_steps = steps[was_absorbed]
    keys, counts = np.unique(absorbed_site[was_absorbed] // m.N,
                             return_counts=True)
    return {"absorbed": int(was_absorbed.sum()),
            "censored": int(rows - was_absorbed.sum()),
            "sum_steps": int(abs_steps.sum()),
            "sum_steps_sq": int(np.dot(abs_steps, abs_steps)),
            "hist": {int(k): int(c) for k, c in zip(keys, counts)},
            "visit_sum": visits.sum(axis=0),
            "visit_sum_sq": (visits * visits).sum(axis=0)}


def _assert_batch_matches_stepwise(model, seed, batch_index, rows, step_cap,
                                   lo, hi):
    """``_simulate_batch``'s closed tally equals ``_stepwise_batch``.  The
    tally's visit sums cover only the window sites within step_cap of the
    start: the reference's window arrays are lined up with that span and
    must be zero outside it."""
    from mfbwalk.oracle import _simulate_batch
    args = (model, seed, batch_index, rows, step_cap, lo, hi)
    tally, ref = _simulate_batch(*args), _stepwise_batch(*args)
    keys, counts = np.unique(np.concatenate(tally.barriers), return_counts=True)
    assert tally.counts is None
    assert rows - tally.censored == ref["absorbed"]
    assert tally.censored == ref["censored"]
    assert tally.sum_steps == ref["sum_steps"]
    assert tally.sum_steps_sq == ref["sum_steps_sq"]
    assert dict(zip(keys.tolist(), counts.tolist())) == ref["hist"]
    span = np.zeros(hi - lo + 1, dtype=bool)
    span[tally.first_site - lo:tally.first_site - lo + tally.width] = True
    for key in ("visit_sum", "visit_sum_sq"):
        np.testing.assert_array_equal(getattr(tally, key), ref[key][span])
        assert not ref[key][~span].any(), key


def _dense_cyclic_solve(model) -> np.ndarray:
    """Reference periodic solve: the whole cyclic N x N system at once,
    O(N^3); ``periodic_mean_times`` eliminates the interior onto m_0."""
    m = model
    n = m.N
    A = np.zeros((n, n))
    b = np.zeros(n)
    A[0, 0] = m.p0 + m.q0 + m.s0
    A[0, 1 % n] -= m.p0
    A[0, (n - 1) % n] -= m.q0
    b[0] = 1.0 - m.s0
    for i in range(1, n):
        A[i, i] = m.p + m.q
        A[i, (i + 1) % n] -= m.p
        A[i, (i - 1) % n] -= m.q
        b[i] = 1.0
    sol = np.linalg.solve(A, b)
    return np.append(sol, sol[0])


def _array_digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def _stats_digest(stats) -> str:
    canonical = repr((
        {int(k): (float(m), float(e))
         for k, (m, e) in stats.visit_means.items()},
        {int(k): float(f) for k, f in stats.absorption_hist.items()},
        int(stats.absorbed), int(stats.censored),
        float(stats.mean_steps), float(stats.mean_steps_se)))
    return hashlib.sha256(canonical.encode()).hexdigest()


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

    def test_default_truncation_of_the_reference_models(self, cfg_drift, cfg_sym):
        assert default_truncation(cfg_drift) == 32
        assert default_truncation(cfg_sym) == 26

    @pytest.mark.parametrize("s0", [1e-310, 5e-324])
    def test_no_default_truncation_at_a_subnormal_s0(self, s0):
        # the tail decays by about 2 s0 in log per barrier, so log(1e-12)
        # over it is beyond the float range
        m = make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=s0, N=10, i0=0)
        with pytest.raises(TruncationInsufficient, match="no truncation K"):
            default_truncation(m)
        with pytest.raises(TruncationInsufficient, match="no truncation K"):
            Battery(m)

    @pytest.mark.parametrize("p,q", [(0.4, 0.1), (0.1, 0.4)])
    def test_truncation_at_large_drift(self, p, q):
        # the decay rate comes from the rho <= 1 frame, so nothing overflows
        m = make_model(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=600, i0=0)
        assert default_truncation(m) == 49
        tv = truncated_visits(m)
        assert tv.tail_bound < 1e-12
        assert tv.absorbed_mass + tv.leak == pytest.approx(1.0, abs=1e-10)

    def test_truncation_insufficient(self, cfg_drift):
        with pytest.raises(TruncationInsufficient):
            truncated_visits(cfg_drift, K=5)

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

    def test_item_reads_the_solution(self, cfg_drift):
        # tv[j] is the lattice entry of site j, which values holds too; the
        # sinks and the sites beyond hold no visit count
        tv = truncated_visits(cfg_drift)
        half = tv.K * cfg_drift.N
        for j in range(-half + 1, half):
            assert tv[j] == tv.values[j]
        for j in (-half - 1, -half, half, half + 1):
            with pytest.raises(TruncationInsufficient):
                tv[j]

    def test_record_compares_its_scalars(self, cfg_drift):
        # the solution and its reduction are not compared, hashed or shown
        tv, again = truncated_visits(cfg_drift), truncated_visits(cfg_drift)
        assert tv == again and hash(tv) == hash(again)
        assert "reduction" not in repr(tv) and "x=" not in repr(tv)

    def test_start_site_row_counts_time_zero(self, cfg_sym):
        tv = truncated_visits(cfg_sym)
        assert tv.values[cfg_sym.i0] >= 1.0

    def test_transition_row_deficits(self, cfg_drift):
        # the rates of I - P^T: a site's steps and loss add up to the mass
        # it does not hold, 1 - r0 on a barrier and 1 - r inside, and the
        # fringe sinks step nowhere and lose everything
        m = cfg_drift
        fw, bw, deficit, half = _lattice_rates(m, K=5)
        assert fw.size == bw.size == deficit.size == 2 * half + 1
        for col in range(2 * half + 1):
            site = col - half
            rates = (fw[col], bw[col], deficit[col])
            if abs(site) == half:
                assert rates == (0.0, 0.0, 1.0)
            elif site % m.N == 0:
                assert rates == (m.p0, m.q0, m.s0)
                assert sum(rates) == pytest.approx(1.0 - m.r0, abs=1e-15)
            else:
                assert rates == (m.p, m.q, 0.0)
                assert sum(rates) == pytest.approx(1.0 - m.r, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(query_models(), st.data())
    def test_reach_probability_is_a_sink_arrival(self, m, data):
        # a walk that dies on arriving at j arrives there at most once, so
        # its expected arrivals at j are the probability of reaching j
        j = data.draw(st.integers(-2 * m.N, 2 * m.N).filter(lambda j: j != m.i0))
        K = default_truncation(m)
        if 2 * K * m.N + 1 > 200_000:   # the s0 = 1e-7 extremes
            return
        fw, bw, deficit, half = _lattice_rates(m, K)
        fw[half + j] = bw[half + j] = 0.0
        deficit[half + j] = 1.0
        rhs = np.zeros(2 * half + 1)
        rhs[half + m.i0] = 1.0
        x = _Reduction(bw, fw, deficit).solve(rhs)
        assert x[half + j] == pytest.approx(reach_probability(m, m.i0, j),
                                            rel=1e-12)


# sizes at which the padding or the level count of the reduction changes
_EDGE_SIZES = sorted({n for k in range(1, 9) for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)})


@st.composite
def _m_matrix_system(draw):
    """The rates (back, forward, deficit) of a tridiagonal system with the
    sign pattern of I - P^T, every column losing mass, the end columns'
    outward rates included, and a positive right-hand side: the solution
    is positive with no cancellation, so a relative check holds entry by
    entry."""
    n = draw(st.one_of(st.integers(1, 300), st.sampled_from(_EDGE_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    back, forward = rng.uniform(0.0, 1.0, (2, n))
    return (back, forward, rng.uniform(1e-3, 1.0, n)), rng.uniform(0.1, 1.0, n)


def _dense(back, forward, deficit):
    """The matrix of a rates system: column j holds back + forward +
    deficit on the diagonal, -back[j] in row j - 1 and -forward[j] in row
    j + 1; the end columns' outward rates fall outside it."""
    return (np.diag(back + forward + deficit) - np.diag(back[1:], 1)
            - np.diag(forward[:-1], -1))


@st.composite
def _gth_system(draw):
    """The rates of a tridiagonal M-matrix with off-diagonal magnitudes
    log-uniform in [1e-2, 1], end columns' outward rates log-uniform down
    to 1e-14, deficits mostly 0 and the rest log-uniform down to 1e-14,
    and a nonnegative right-hand side with zeros.  With zero deficits a
    pivot formed by subtraction cancels."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    back, forward = 10.0 ** rng.uniform(-2.0, 0.0, (2, n))
    # what leaves past the two ends: the only loss of many systems
    back[0], forward[-1] = 10.0 ** rng.uniform(-14.0, 0.0, 2)
    deficit = np.where(rng.random(n) < 0.2, 10.0 ** rng.uniform(-14.0, 0.0, n),
                       0.0)
    rhs = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1.0, n), 0.0)
    return (back, forward, deficit), rhs


def _thomas_mp(back, forward, deficit, rhs):
    """The exact system of rates (back, forward, deficit), whose diagonal
    is their sum (:func:`_dense`), solved by Thomas elimination at 50
    digits."""
    mp = mpmath.mpf
    with mpmath.workdps(50):
        sup, sub = [-mp(v) for v in back[1:]], [-mp(v) for v in forward[:-1]]
        diag = [mp(b) + mp(f) + mp(d) for b, f, d in zip(back, forward, deficit)]
        y = [mp(v) for v in rhs]
        for i in range(1, len(y)):
            f = sub[i - 1] / diag[i - 1]
            diag[i] -= f * sup[i - 1]
            y[i] -= f * y[i - 1]
        x = y[:]
        x[-1] = y[-1] / diag[-1]
        for i in range(len(y) - 2, -1, -1):
            x[i] = (y[i] - sup[i] * x[i + 1]) / diag[i]
        return x


class TestReduction:
    @settings(max_examples=200, deadline=None)
    @given(_m_matrix_system())
    def test_matches_dense_solve(self, system):
        rates, rhs = system
        np.testing.assert_allclose(_Reduction(*rates).solve(rhs),
                                   np.linalg.solve(_dense(*rates), rhs),
                                   rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_gth_system())
    def test_entrywise_accurate(self, system):
        # every entry nonnegative and accurate relative to itself, however
        # small, though the matrix may be near singular
        rates, rhs = system
        x = _Reduction(*rates).solve(rhs)
        assert np.all(x >= 0.0)
        for got, want in zip(x.tolist(), _thomas_mp(*rates, rhs)):
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("N", [2, 10])
    def test_derivative_reuses_the_reduction(self, N):
        # x' from the reduction that gave x equals a fresh reduction's solve
        # of x - e_i0, and x and x' equal those of fresh oracle calls
        m = make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=0.2, N=N, i0=0)
        tv = truncated_visits(m)
        deriv = tv.derivatives()
        fw, bw, deficit, half = _lattice_rates(m, tv.K)
        rhs = np.array([tv.values[j] for j in range(-half, half + 1)])
        rhs[half + m.i0] -= 1.0
        fresh = _Reduction(bw, fw, deficit).solve(rhs)
        assert [deriv[j] for j in range(-half, half + 1)] == fresh.tolist()
        assert deriv == truncated_visit_derivatives(m)
        # a read-only mapping over the solved array: the keys and values of
        # the whole-lattice dict, in order, and no site beyond the sinks
        as_dict = dict(zip(range(-half, half + 1), fresh.tolist()))
        assert deriv == as_dict and as_dict == deriv
        assert list(deriv.items()) == list(as_dict.items())
        assert len(deriv) == len(as_dict)
        for j in (-half - 1, half + 1, -3 * half, 0.5, "0"):
            assert j not in deriv
            with pytest.raises(KeyError):
                deriv[j]
        with pytest.raises(TypeError):
            deriv[0] = 1.0
        again = truncated_visits(m)
        assert tv == again
        assert tv.values == again.values
        # x by site is the same read-only mapping
        as_dict = dict(zip(range(-half, half + 1), tv.x.tolist()))
        assert tv.values == as_dict and list(tv.values.items()) == list(as_dict.items())
        with pytest.raises(TypeError):
            tv.values[0] = 1.0

    @pytest.mark.parametrize("params,x,dx,period", ORACLE_PINS, ids=[
        "p{p}-q{q}-N{N}-i{i0}".format(**row[0]) for row in ORACLE_PINS])
    def test_oracle_arrays_pinned(self, params, x, dx, period):
        m = make_model(**params)
        tv = truncated_visits(m)
        dxs = np.fromiter(tv.derivatives().values(), float)
        assert [_array_digest(a) for a in (tv.x, dxs, periodic_mean_times(m))] \
            == [x, dx, period]


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
        deriv = truncated_visit_derivatives(model, K=40)
        per_barrier = [model.s0 * deriv[k * model.N] for k in range(-39, 40)]
        assert sum(per_barrier) == \
            pytest.approx(float(periodic_mean_times(model)[0]), abs=1e-8)

    def test_periodic_solve_matches_dense_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(200):
            m = random_model(rng, "DRIFT" if trial % 2 else "BALANCED",
                             N=int(rng.integers(2, 40)))
            np.testing.assert_allclose(periodic_mean_times(m),
                                       _dense_cyclic_solve(m), rtol=1e-12)

    def test_periodic_solve_tiny_steps(self):
        # with p, q near 1e-6 the diagonal 1 - r rounds when it is formed by
        # subtraction; summed from p and q it does not
        cases = [(make_model(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=N, i0=0), 1e-12)
                 for p, q, N in [(4e-7, 3e-6, 2), (3e-6, 4e-7, 5),
                                 (1e-6, 2e-6, 10), (7e-7, 7e-7, 3)]]
        # at s0 = 1e-7 the condition grows like 1/s0; eliminated onto m_0 it
        # costs one division (the dense solve was off by up to 8e-7 here)
        for N in (10, 1000):
            m = make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=1e-7, N=N, i0=0)
            cases += [(m, 1e-11), (mirror(m), 1e-11)]
        for m, rel in cases:
            solved = periodic_mean_times(m)
            for i in range(m.N + 1):
                assert solved[i] == pytest.approx(mean_time_any(m, i), rel=rel)

    @pytest.mark.parametrize("p,q,s0", [(1e-305, 1e-305, 1e-3),
                                        (0.3, 0.25, 1e-310),
                                        (0.3, 0.25, 5e-324)])
    def test_periodic_solve_beyond_the_float_range_raises(self, p, q, s0):
        # the mean times, about 1/s0 (or 1/p) in scale, overflow a double:
        # refused by name, with no numpy warning first
        m = make_model(p=p, q=q, p0=0.3, q0=0.3, s0=s0, N=10, i0=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^a mean time of the "
                               "period is beyond the float range$"):
                periodic_mean_times(m)

    @pytest.mark.parametrize("N", [2, 3, 100, 1000])
    def test_periodic_solve_entrywise_accurate(self, N):
        # every m_i within 1e-14 relative of the same elimination onto m_0
        # at 50 digits, near balance (every fourth draw) and at s0 down to
        # 1e-7; LAPACK's pivoted elimination was off by 1.8e-11 at N = 1000
        rng = np.random.default_rng(N)
        for trial in range(100):
            p, q = rng.uniform(0.01, 0.49, size=2)
            if trial % 4 == 0:
                q = p * (1.0 + 1e-9)
            m = make_model(p=p, q=q, p0=0.3, q0=0.3,
                           s0=float(10.0 ** rng.uniform(-7, -1)), N=N, i0=0)
            rates = np.full(N - 1, m.p), np.full(N - 1, m.q), np.zeros(N - 1)
            with mpmath.workdps(50):
                # each diagonal is exactly p + q
                T = [0, *_thomas_mp(*rates, np.ones(N - 1)), 0]
                m0 = (m.p0 * T[1] + m.q0 * T[-2] + 1 - mpmath.mpf(m.s0)) / m.s0
                # rounded to doubles (1.1e-16 relative) to compare in numpy
                want = np.array([float(m0 + t) for t in T])
            got = periodic_mean_times(m)
            assert np.all(np.abs(got - want) <= 1e-14 * want)


class TestSimulate:
    def test_rejects_degenerate_requests(self, cfg_sym):
        with pytest.raises(ValueError):
            simulate(cfg_sym, walks=0, seed=1)
        with pytest.raises(ValueError):
            simulate(cfg_sym, walks=10, seed=1, workers=0)
        with pytest.raises(ValueError):
            simulate(cfg_sym, walks=10, seed=-1)
        with pytest.raises(ValueError, match="step_cap"):
            simulate(cfg_sym, walks=10, seed=1, step_cap=-1)
        with pytest.raises(ValueError, match="site window"):
            simulate(cfg_sym, walks=10, seed=1, window=(0, MAX_SITES))

    @pytest.mark.parametrize("s0", [1e-310, 5e-324])
    def test_default_step_cap_beyond_the_float_range(self, s0):
        m = make_model(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=s0, N=10, i0=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # m_0 overflows with no warning
            with pytest.raises(OverflowError, match="the default step cap"):
                simulate(m, walks=10, seed=1)

    def test_step_cap_zero_censors_every_walk(self, cfg_sym):
        with pytest.warns(ExcessCensoring):
            stats = simulate(cfg_sym, walks=10, seed=1, step_cap=0)
        assert (stats.absorbed, stats.censored) == (0, 10)
        assert stats.visit_means[0] == (1.0, 0.0)

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

    @pytest.mark.parametrize("workers,batches,threads",
                             [(1, 3, 1), (2, 3, 2), (64, 3, 3), (64, 6, 4)])
    def test_threads_bounded_by_batches_and_cpus(self, cfg_drift, monkeypatch,
                                                 workers, batches, threads):
        # at most one thread per batch and per CPU (four here); the stand-in
        # pool records its size and runs the batches in order, in this thread
        from mfbwalk import oracle
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(oracle, "ThreadPoolExecutor", SerialPool)
        walks = (batches - 1) * oracle._BATCH + 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExcessCensoring)
            stats = simulate(cfg_drift, walks=walks, seed=3, step_cap=2,
                             workers=workers, window=(-4, 4))
        assert sizes == [threads]
        assert stats.absorbed + stats.censored == walks

    def test_peak_memory_does_not_grow_with_batches(self, cfg_drift):
        # every batch folds into one running total over the sites within
        # step_cap of the start, so a 200 001-site window costs no more at
        # 4 batches than at 1; the bound is half a window-wide int64 array
        import tracemalloc
        from mfbwalk.oracle import _BATCH
        peaks = []
        for batches in (1, 4):
            tracemalloc.start()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExcessCensoring)
                simulate(cfg_drift, walks=batches * _BATCH, seed=42,
                         step_cap=50, window=(-100_000, 100_000))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 800_000, peaks

    def test_batch_counter_is_not_copied(self, cfg_drift):
        # a flush compacts the live walks' row offsets, not the per-walk
        # counter, so an 8192-walk batch over a 200 001-site window peaks
        # within a quarter of the counter above it; copying the surviving
        # rows at a flush peaks near twice the counter
        import tracemalloc
        from mfbwalk.oracle import _BATCH, _simulate_batch
        step_cap = 1000
        counter = _BATCH * (2 * step_cap + 3) * np.min_scalar_type(step_cap + 1).itemsize
        tracemalloc.start()
        try:
            _simulate_batch(cfg_drift, 42, 0, _BATCH, step_cap, -100_000, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * counter, (peak, counter)

    def test_batch_matches_stepwise_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(24):
            model = random_model(rng, "DRIFT" if trial % 2 else "BALANCED",
                                 N=int(rng.integers(2, 9)), pq_floor=0.02)
            rows = int(rng.choice([1, 2, 63, 300]))
            step_cap = int(rng.choice([1, 3, 64, 65, 200]))
            lo = int(rng.integers(-3 * model.N, 2 * model.N))
            hi = lo + int(rng.integers(0, 4 * model.N))
            args = (model, int(rng.integers(0, 2 ** 63)),
                    int(rng.integers(0, 9)), rows, step_cap, lo, hi)
            _assert_batch_matches_stepwise(*args)

    @pytest.mark.parametrize("window", [(3, 6), (5, 6), (-8, -5), (-1, 9)])
    def test_window_without_start_site(self, cfg_drift, window):
        # a window is a view of the same walks: the sites it shares with the
        # default window -3N..3N carry the same means and errors
        full = simulate(cfg_drift, walks=3_000, seed=4)
        part = simulate(cfg_drift, walks=3_000, seed=4, window=window)
        assert list(part.visit_means) == list(range(window[0], window[1] + 1))
        shared = set(full.visit_means) & set(part.visit_means)
        assert shared
        for site in shared:
            assert part.visit_means[site] == full.visit_means[site]

    def test_excess_censoring_warns(self, cfg_sym):
        with pytest.warns(ExcessCensoring):
            stats = simulate(cfg_sym, walks=2_000, seed=5, step_cap=2)
        assert stats.censored > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("params,walks,seed,step_cap,window,absorbed,"
                             "censored,digest", STREAM_PINS)
    def test_stream_pinned(self, params, walks, seed, step_cap, window,
                           absorbed, censored, digest, workers):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExcessCensoring)
            stats = simulate(make_model(**params), walks=walks, seed=seed,
                             step_cap=step_cap, workers=workers,
                             window=window)
        assert (stats.absorbed, stats.censored) == (absorbed, censored)
        assert _stats_digest(stats) == digest

    def test_stats_are_frozen(self, cfg_sym):
        stats = simulate(cfg_sym, walks=100, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.mean_steps = 0.0


# step probabilities at the edges of the uniforms' grid k * 2**-53: s0 =
# 1e-20 between its first two points (and s0 + p0 rounds to p0); r0 = 0, so
# s0 + p0 + q0 == 1.0, with every threshold on the grid; p == s0 + p0 < 1
EDGE_MODELS = [
    make_model(p=0.3, q=0.2, p0=0.5, q0=0.25, s0=1e-20, N=3, i0=0),
    make_model(p=0.25, q=0.5, p0=0.125, q0=0.375, s0=0.5, N=2, i0=0),
    make_model(p=0.5, q=0.25, p0=0.25, q0=0.125, s0=0.25, N=3, i0=1),
]


def _gapped_rows(gaps, first=0):
    """Ascending rows starting at ``first`` with ``gaps`` dead rows between
    consecutive ones."""
    return first + np.cumsum([0] + [g + 1 for g in gaps])


class TestWalkerKernel:
    """The live-walker kernel against its definitions: the Philox block, the
    comparison ``u < x`` and the stepwise reference walker."""

    @pytest.mark.parametrize("gaps,first", [
        ([0] * 299, 0),                                      # one dense run
        ([1, 2, _BRIDGE - 1, _BRIDGE, 0, _BRIDGE, 1], 0),    # drawn through
        ([_BRIDGE + 1, _BRIDGE + 2, 40, 0, _BRIDGE + 1, 1000, 0], 3),  # skipped
        ([0, _BRIDGE, _BRIDGE + 1, 0, 3, _BRIDGE + 2, _BRIDGE, _BRIDGE + 1], 17),
        ([], 0), ([], 8191),                                 # a single row
    ])
    def test_live_draws_are_rows_of_the_block(self, gaps, first):
        from mfbwalk.oracle import _BLOCK, _live_draws, _philox, _uniform_block
        live = _gapped_rows(gaps, first)
        rows = int(live[-1]) + 1
        # the rows inside a gap of more than _BRIDGE dead rows, and before
        # the first live row, are skipped
        skipped = np.ones(rows, dtype=bool)
        for a, b in zip(live[:-1].tolist(), live[1:].tolist()):
            skipped[a:a + 1 if b - a > _BRIDGE + 1 else b] = False
        skipped[live[-1]] = False
        for seed, batch in [(5, 0), (2 ** 64 - 1, 3)]:
            gen = _philox(seed)
            out = np.full((rows, _BLOCK), np.nan)
            for block in (0, 1, 7):  # one generator and buffer serve a batch
                _live_draws(gen, batch, block, live, out)
                np.testing.assert_array_equal(
                    out[live], _uniform_block(seed, batch, block, rows)[live])
                assert np.isnan(out[skipped]).all()

    def test_move_table_is_u_below_x_at_every_edge(self):
        # a step reads the move at 8 * (site - base) + code, where the code of
        # a uniform u counts the thresholds x with u >= x
        from mfbwalk.oracle import _PARK, _codes, _move_table, _step_moves
        rng = np.random.default_rng(11)
        models = [random_model(rng, "DRIFT" if i % 2 else "BALANCED")
                  for i in range(20)]
        models += [make_model(**CFG_SYM), make_model(**CFG_DRIFT),
                   make_model(p=0.3, q=0.7, p0=0.25, q0=0.5, s0=0.25, N=3, i0=1),
                   make_model(p=1e-6, q=1 - 1e-6, p0=1e-6, q0=1e-6, s0=1 - 2e-6,
                              N=2, i0=0),
                   # r = 0, and r0 = 0: two thresholds coincide
                   make_model(p=0.5, q=0.5, p0=0.2, q0=0.2, s0=0.3, N=2, i0=0),
                   make_model(p=0.2, q=0.3, p0=0.35, q0=0.45, s0=0.2, N=4, i0=0),
                   *EDGE_MODELS]
        assert any(m.r == 0 for m in models) and any(m.r0 == 0 for m in models)
        for m in models:
            thresholds, moves = _step_moves(m)
            x = [m.p, m.p + m.q, m.s0, m.s0 + m.p0, m.s0 + m.p0 + m.q0]
            assert thresholds.tolist() == sorted(x)
            # the grid points k * 2**-53 next to each threshold, and 0 and
            # the last one below 1
            k = {0, 2 ** 53 - 1}
            for edge in x:
                first_above = math.ceil(edge * 2.0 ** 53)
                k |= {first_above - 1, first_above, first_above + 1}
            u = np.array(sorted(v for v in k if 0 <= v < 2 ** 53)) * 2.0 ** -53
            inside = 2 * (u < m.p) - (u < m.p + m.q)
            on_barrier = np.where(u < m.s0, _PARK, 2 * (u < m.s0 + m.p0)
                                  - (u < m.s0 + m.p0 + m.q0))
            # sites -1 .. N + 1, two barriers among them, from base -1
            table = _move_table(moves, m.N, -1, m.N + 3)
            for walks in (1, 300):
                # a (walks, steps) slice of a block: step j reads u[j // 3]
                block = np.tile(np.repeat(u, 3), (walks, 2))[:, :3 * u.size]
                codes = _codes(thresholds, block)
                assert codes.shape == (3 * u.size, walks)
                np.testing.assert_array_equal(
                    codes, np.sum([block.T >= v for v in x], axis=0))
                for site in range(-1, m.N + 2):
                    want = on_barrier if site % m.N == 0 else inside
                    got = table.take(8 * (site + 1) + codes, mode="clip")
                    np.testing.assert_array_equal(
                        got, 8 * np.repeat(want, 3)[:, None].repeat(walks, 1))
                    # a parked walk, absorbed one or two steps ago, absorbs again
                    for ago in (1, 2):
                        parked = 8 * (site + 1 + ago * _PARK) + codes
                        assert np.all(table.take(parked, mode="clip") == 8 * _PARK)

    @pytest.mark.parametrize("step_cap", [3, 65, 1000])
    @pytest.mark.parametrize("N", [10, 17, 200])
    def test_batch_matches_stepwise_at_larger_N(self, N, step_cap):
        # 1000 walks thin out over many flushes, and the longer runs
        # re-centre the move table; at N = 200 most walks reach the cap 1000
        rng = np.random.default_rng(N * 1000 + step_cap)
        model = random_model(rng, "DRIFT", N=N, pq_floor=0.02)
        args = (model, int(rng.integers(0, 2 ** 63)), 1, 1000, step_cap,
                -2 * N, 2 * N)
        _assert_batch_matches_stepwise(*args)

    @pytest.mark.parametrize("step_cap", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("rows", [200, 8192])
    def test_batch_matches_stepwise_without_holds(self, step_cap, rows):
        # with r = 0 (p + q = 1) or r0 = 0 (s0 + p0 + q0 = 1) two thresholds of
        # the step table coincide; random_model never draws such a walk, nor
        # one of EDGE_MODELS
        models = [make_model(p=0.3, q=0.7, p0=0.25, q0=0.5, s0=0.25, N=3, i0=1),
                  make_model(p=0.5, q=0.5, p0=0.2, q0=0.2, s0=0.3, N=2, i0=0),
                  make_model(p=0.2, q=0.3, p0=0.35, q0=0.45, s0=0.2, N=4, i0=0),
                  *EDGE_MODELS]
        assert [(m.r == 0, m.r0 == 0) for m in models] == [
            (True, True), (True, False), (False, True),
            (False, False), (False, True), (False, False)]
        for seed, model in enumerate(models):
            args = (model, seed, 2, rows, step_cap, -2 * model.N, 3 * model.N)
            _assert_batch_matches_stepwise(*args)


def _battery_models():
    """Drift and balanced draws with N <= 30, started on a barrier and off
    one, the near-balance model and cfg-sym."""
    rng = np.random.default_rng(2024)
    models = []
    for branch in ("DRIFT", "BALANCED"):
        for on_barrier in (True, False):
            n = int(rng.integers(2, 31))
            i0 = 0 if on_barrier else int(rng.integers(1, n))
            models.append(random_model(rng, branch, N=n, i0=i0))
    return models + [
        make_model(p=0.30000005, q=0.29999995, p0=0.2, q0=0.3, s0=0.1, N=6,
                   i0=0),
        make_model(**CFG_SYM)]


class TestOracleBattery:
    """The records the golden battery writes: its per-barrier records
    follow ``has_barrier_split``, which the engine reads too."""

    @pytest.mark.parametrize("model", _battery_models(),
                             ids=lambda m: f"{m.branch.name}-N{m.N}-i0_{m.i0}")
    def test_record_set_at_window_1(self, model):
        by_quantity = {}
        for record in Battery(model).records(window=1):
            by_quantity.setdefault(record["quantity"], []).append(record)
        sites = by_quantity.pop("site_visits")
        assert [r["index"] for r in sites] == list(range(-model.N, model.N + 1))
        assert all(r["params"] == {"K": default_truncation(model)}
                   for r in sites)
        assert [r["index"] for r in by_quantity.pop("mean_time_any")] == \
            list(range(model.N + 1))
        split = by_quantity.pop("mean_time_to_barrier", [])
        assert [r["index"] for r in split] == \
            (list(SPLIT_BARRIERS) if has_barrier_split(model) else [])
        # no simulate record without walks
        assert by_quantity == {}

    def test_walks_add_mean_steps_and_one_frequency_per_barrier(self):
        model = make_model(**CFG_DRIFT)
        plain = Battery(model).records(window=1)
        records = Battery(model).records(window=1, walks=200)
        assert records[:len(plain)] == plain
        added = records[len(plain):]
        assert [(r["quantity"], r["index"]) for r in added] == \
            [("mean_steps", 0)] + [("absorption_frequency", k)
                                   for k in MC_BARRIERS]
        assert all(r["oracle"] == "simulate" for r in added)
