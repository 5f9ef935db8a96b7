"""Every public closed form, over the edges of the parameter space, returns
finite values or raises a typed error; none returns inf or nan."""

import math

import numpy as np
import pytest

from mfbwalk import (
    AbsorptionTimes,
    BalancedUnsupported,
    RejectedParameter,
    StartNotBarrier,
    TruncationInsufficient,
    VisitProfile,
    absorption_mass,
    absorption_times,
    barrier_visits,
    display_barrier_visits,
    display_time_to_barrier,
    make_model,
    mean_time_any,
    mean_time_period,
    mean_time_to_barrier,
    reach_probability,
    site_visits,
    total_absorption,
    visit_profile,
)
from conftest import FLOAT_RANGE_MODELS

# a refusal the package documents, or an ArithmeticError (an OverflowError
# where the value lies beyond the float range)
TYPED = (RejectedParameter, BalancedUnsupported, StartNotBarrier,
         TruncationInsufficient, ArithmeticError)


def _site(m, rng):
    return int(rng.integers(-3 * m.N, 3 * m.N + 1))


def _barrier(rng):
    return int(rng.integers(-3, 4))


# each public closed form, called with sites and barriers drawn from rng
CLOSED_FORMS = {
    "mean_time_any": lambda m, rng: mean_time_any(m, _site(m, rng)),
    "mean_time_period": lambda m, rng: mean_time_period(m),
    "absorption_times": lambda m, rng: absorption_times(m),
    "mean_time_to_barrier": lambda m, rng: mean_time_to_barrier(m, _barrier(rng)),
    "display_time_to_barrier":
        lambda m, rng: display_time_to_barrier(m, _barrier(rng)),
    "total_absorption": lambda m, rng: total_absorption(m),
    "site_visits": lambda m, rng: site_visits(m, _site(m, rng)),
    "barrier_visits": lambda m, rng: barrier_visits(m, _barrier(rng)),
    "display_barrier_visits":
        lambda m, rng: display_barrier_visits(m, _barrier(rng)),
    "absorption_mass": lambda m, rng: absorption_mass(m, _barrier(rng)),
    "reach_probability":
        lambda m, rng: reach_probability(m, _site(m, rng), _site(m, rng)),
    "visit_profile": lambda m, rng: visit_profile(m, -1, 1),
}


def _values(result) -> list[float]:
    if isinstance(result, float):
        return [result]
    if isinstance(result, AbsorptionTimes):
        return [*result.period_values, *result.per_barrier.values()]
    if isinstance(result, VisitProfile):
        return list(result.values.values())
    return list(result)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def edge_models(rng: np.random.Generator, count: int):
    """``count`` models over the edges of the parameter space.

    p and q are log-uniform in [5e-324, 0.5], the smallest subnormal up;
    one draw in ten is exactly balanced and one in ten within 1e-15..1e-6
    relative of balance.  s0 is log-uniform in [5e-324, 0.5], and p0, q0
    log-uniform from 1e-9 up to half of 1 - s0.  N is log-uniform in
    2..3000, and half of the walks start on a barrier, the rest anywhere.
    """
    for _ in range(count):
        p = _log_uniform(rng, 5e-324, 0.5)
        kind = rng.uniform()
        if kind < 0.1:
            q = p
        elif kind < 0.2:
            q = min(0.5, p * (1.0 + rng.choice((-1.0, 1.0))
                              * _log_uniform(rng, 1e-15, 1e-6)))
        else:
            q = _log_uniform(rng, 5e-324, 0.5)
        s0 = _log_uniform(rng, 5e-324, 0.5)
        p0, q0 = (_log_uniform(rng, 1e-9, (1.0 - s0) / 2) for _ in range(2))
        n = round(_log_uniform(rng, 2, 3000))
        i0 = 0 if rng.uniform() < 0.5 else int(rng.integers(0, n))
        yield make_model(p=p, q=q, p0=p0, q0=q0, s0=s0, N=n, i0=i0)


def test_closed_forms_are_finite_or_refused_on_edge_draws():
    rng = np.random.default_rng(2026)
    not_finite = []
    for m in edge_models(rng, 1500):
        for name, call in CLOSED_FORMS.items():
            try:
                values = _values(call(m, rng))
            except TYPED:
                continue
            if not all(map(math.isfinite, values)):
                not_finite.append((name, m))
    assert not_finite == []


# the closed forms that take each of FLOAT_RANGE_MODELS beyond the float range
MEAN_TIMES = ("mean_time_any", "mean_time_period", "absorption_times")
BEYOND_RANGE = [MEAN_TIMES, MEAN_TIMES, (*MEAN_TIMES, "mean_time_to_barrier")]


@pytest.mark.parametrize("raw,names", zip(FLOAT_RANGE_MODELS, BEYOND_RANGE))
def test_values_beyond_the_float_range_raise_overflow(raw, names):
    m = make_model(**raw)
    rng = np.random.default_rng(7)
    for name in names:
        with pytest.raises(OverflowError, match="beyond the float range"):
            CLOSED_FORMS[name](m, rng)
