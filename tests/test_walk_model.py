import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from mfbwalk import (
    Branch,
    RejectedParameter,
    barrier_spectrum,
    make_model,
    model_from_json,
    reanchored,
    validate_model,
)
from conftest import (CFG_DRIFT, CFG_SYM, mirror, model_strategy, query_models,
                      random_model)


class TestValidation:
    def test_symmetric_case_is_balanced(self):
        m = make_model(**CFG_SYM)
        assert m.branch is Branch.BALANCED
        assert m.rho == 1.0

    def test_drift_case(self):
        m = make_model(**CFG_DRIFT)
        assert m.branch is Branch.DRIFT
        assert m.rho == pytest.approx(2.0, abs=0)

    def test_zero_absorption_rejected(self):
        bad = dict(CFG_SYM, p0=0.5, q0=0.5, r0=0.0, s0=0.0)
        with pytest.raises(RejectedParameter, match="s0"):
            validate_model(bad)

    @pytest.mark.parametrize("field,value,match", [
        ("p", 0.0, "p must be > 0"),
        ("q", -0.1, "q must be > 0"),
        ("p0", 0.0, "p0 must be > 0"),
        ("q0", 0.0, "q0 must be > 0"),
        ("N", 1, "N must be"),
        ("i0", 2, "i0 must satisfy"),
        ("i0", -1, "i0 must satisfy"),
    ])
    def test_rejections_name_the_constraint(self, field, value, match):
        raw = dict(CFG_SYM)
        raw[field] = value
        if field in ("p", "q"):
            del raw["r"]
        with pytest.raises(RejectedParameter, match=match):
            validate_model(raw)

    def test_inconsistent_sums_rejected(self):
        with pytest.raises(RejectedParameter, match="p \\+ q \\+ r"):
            validate_model(dict(CFG_SYM, r=0.1))
        with pytest.raises(RejectedParameter, match="r0"):
            validate_model(dict(CFG_SYM, r0=0.3))

    @pytest.mark.parametrize("change,message", [
        ({"x": 1}, "unknown parameter(s): ['x']"),
        ({"N": 2.5}, "N must be an integer (got 2.5)"),
        ({"p": 0.0}, "p must be > 0 (got 0.0)"),
        ({"q0": float("nan")}, "q0 must be > 0 (got nan)"),
        ({"p": 0.6, "q": 0.5}, "p + q must be <= 1 (got 1.1)"),
        ({"r": 0.3}, "p + q + r must equal 1 (got 0.8500000000000001)"),
        ({"p0": 0.5, "q0": 0.4}, "p0 + q0 + s0 must be <= 1 (got 1.1)"),
        ({"r0": 0.5}, "p0 + q0 + r0 + s0 must equal 1 (got 1.3)"),
        ({"i0": 10}, "i0 must satisfy 0 <= i0 < N (got 10)"),
    ])
    def test_rejection_messages_quote_the_value(self, change, message):
        # the messages are formatted only on failure, with the same text
        raw = dict(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=0.2, N=10, i0=0)
        with pytest.raises(RejectedParameter) as caught:
            validate_model({**raw, **change})
        assert str(caught.value) == message

    def test_near_balance_is_tagged_balanced_not_error(self):
        m = make_model(p=0.3, q=0.3 + 1e-10, p0=0.2, q0=0.2, s0=0.2, N=2, i0=0)
        assert m.branch is Branch.BALANCED

    def test_tiny_sum_residual_is_normalized(self):
        m = validate_model(dict(CFG_SYM, r=2e-13))
        assert m.p + m.q + m.r == 1.0

    def test_json_round_trip(self):
        m = make_model(**CFG_DRIFT)
        again = model_from_json(m.to_json())
        assert again == m
        assert list(json.loads(m.to_json())) == \
            ["p", "q", "r", "p0", "q0", "r0", "s0", "N", "i0"]


class TestModelHash:
    # the hash is stored once per model; every equal model shares it
    def test_equal_models_share_the_hash(self):
        m = make_model(**CFG_DRIFT)
        shuffled = {k: CFG_DRIFT[k] for k in reversed(list(CFG_DRIFT)) if k != "r0"}
        copies = [validate_model(shuffled), pickle.loads(pickle.dumps(m)),
                  dataclasses.replace(m), reanchored(m, m.i0)]
        for other in copies:
            assert other == m and other is not m
            assert hash(other) == hash(m)
        fields = tuple(getattr(m, f.name) for f in dataclasses.fields(m))
        assert hash(m) == hash(fields)
        assert hash(reanchored(make_model(**CFG_SYM), 1)) != \
            hash(make_model(**CFG_SYM))

    def test_hash_is_not_a_field(self):
        m = make_model(**CFG_SYM)
        hash(m)
        names = ["p", "q", "r", "p0", "q0", "r0", "s0", "N", "i0"]
        assert [f.name for f in dataclasses.fields(m)] == names
        assert list(m.to_dict()) == names
        assert repr(m) == "WalkModel(" + ", ".join(
            f"{k}={getattr(m, k)!r}" for k in names) + ")"
        assert b"_hash" not in pickle.dumps(m)  # a pickle carries the fields


class TestLambdaPair:
    # at z = 1 the interior roots of the rho <= 1 frame are 1 and its rho
    def test_balanced_at_one_degenerates(self, cfg_sym):
        spectrum = barrier_spectrum(cfg_sym)
        assert not spectrum.mirrored
        assert spectrum.rho == 1.0

    def test_drift_at_one(self, cfg_drift):
        # rho = 2 is mirrored onto the frame walk with rho = 1/2
        spectrum = barrier_spectrum(cfg_drift)
        assert spectrum.mirrored
        assert spectrum.rho == pytest.approx(0.5, abs=0)

    def test_residuals_and_product_over_many_models(self):
        rng = np.random.default_rng(20250809)
        for trial in range(1000):
            branch = "DRIFT" if trial % 2 else "BALANCED"
            m = random_model(rng, branch)
            spectrum = barrier_spectrum(m)
            assert spectrum.rho <= 1.0
            assert spectrum.mirrored == (m.p > m.q)
            assert _char_residual(spectrum, 1.0) < 1e-10
            assert _char_residual(spectrum, spectrum.rho) < 1e-10
            assert spectrum.rho == pytest.approx(min(m.rho, 1.0 / m.rho),
                                                 rel=1e-10)


def _char_residual(spectrum, lam):
    # scaled residual of the frame's q L^2 - (1 - r) L + p at L = lam
    p, q, r = spectrum.p, spectrum.q, spectrum.model.r
    num = abs(q * lam * lam - (1.0 - r) * lam + p)
    den = q * lam * lam + (1.0 - r) * lam + p
    return num / den


class TestBarrierSpectrum:
    def test_symmetric_quadratic_roots(self, cfg_sym):
        # 0.25 xi^2 - xi + 0.25 = 0  =>  xi = 2 +- sqrt(3)
        spectrum = barrier_spectrum(cfg_sym)
        assert spectrum.xi1 == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-13)
        assert spectrum.xi2 == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-13)
        a, b, c = spectrum.quadratic_coeffs()
        assert (a, b, c) == (0.25, -1.0, 0.25)

    def test_symmetric_psi0(self, cfg_sym):
        assert barrier_spectrum(cfg_sym).psi0 == -1.0

    def test_drift_root_product_identity(self, cfg_drift):
        # in the mirrored frame p0 and q0 trade places and rho is 1/2
        spectrum = barrier_spectrum(cfg_drift)
        product = spectrum.p0 * spectrum.rho ** (cfg_drift.N - 1) / spectrum.q0
        assert spectrum.xi1 * spectrum.xi2 == pytest.approx(product, rel=1e-12)
        assert product == pytest.approx(0.5, rel=1e-14)
        assert spectrum.gap1 == pytest.approx(spectrum.xi1 - 1.0, rel=1e-14)
        assert spectrum.gap2 == pytest.approx(1.0 - spectrum.xi2, rel=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(model_strategy())
    def test_saddle_ordering_and_residuals(self, m):
        spectrum = barrier_spectrum(m)
        assert spectrum.xi1 > 1.0 > spectrum.xi2 > 0.0
        a, b, c = spectrum.quadratic_coeffs()
        for xi in (spectrum.xi1, spectrum.xi2):
            num = abs(a * xi * xi + b * xi + c)
            den = a * xi * xi + abs(b) * xi + c
            assert num / den < 1e-10

    def test_continuity_at_balance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            base = random_model(rng, "BALANCED")
            for sign in (+1.0, -1.0):
                pert = make_model(p=base.q * (1.0 + sign * 1e-6), q=base.q,
                                  p0=base.p0, q0=base.q0, s0=base.s0,
                                  N=base.N, i0=base.i0)
                assert pert.branch is Branch.DRIFT
                # p > q puts the frame on the mirror image of the walk
                spectrum0 = barrier_spectrum(mirror(base) if sign > 0 else base)
                spectrum1 = barrier_spectrum(pert)
                assert abs(spectrum1.xi1 - spectrum0.xi1) < 1e-4
                assert abs(spectrum1.xi2 - spectrum0.xi2) < 1e-4

    @settings(max_examples=100, deadline=None)
    @given(query_models())
    def test_qint_divides_by_the_stored_denominator(self, m):
        sp = barrier_spectrum(m)
        for n in range(m.N + 1):
            want = (float(n) if sp.log_rho == 0.0
                    else math.expm1(n * sp.log_rho) / math.expm1(sp.log_rho))
            assert sp.qint(n) == want  # bit for bit
        assert sp.qn == sp.qint(m.N)

    @settings(max_examples=100, deadline=None)
    @given(query_models())
    def test_tables_hold_the_bits_of_each_value(self, m):
        # the q-integer and power tables of visit_profile, one pass each
        for model in (m, make_model(p=.3, q=.3, p0=.3, q0=.3, s0=.2, N=40, i0=3),
                      make_model(p=.3, q=.29, p0=.3, q0=.3, s0=.2, N=40, i0=3),
                      make_model(p=.1, q=.4, p0=.3, q0=.3, s0=.2, N=40, i0=3)):
            sp, n = barrier_spectrum(model), model.N
            assert [x.hex() for x in sp.qints(n)] == \
                [sp.qint(i).hex() for i in range(n + 1)]
            assert [x.hex() for x in sp.pows(n)] == \
                [sp.pow(i).hex() for i in range(n + 1)]

    def test_drift_psi0(self, cfg_drift):
        # frame rho = 1/2, [2] = 3/2: -(0.2 + 0.2 / 2 + 0.2 * 3/2)
        assert barrier_spectrum(cfg_drift).psi0 == pytest.approx(-0.6, rel=1e-14)
