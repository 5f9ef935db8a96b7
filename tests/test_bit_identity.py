"""One sha256 over a seeded sweep of the point-query closed forms.

The digest pins the bits of every value (and the type and text of every
refusal) of ``reach_probability``, ``site_visits``, ``mean_time_period``,
``absorption_times`` and ``mean_time_to_barrier`` over about 300 models:
mirrored and unmirrored drift, exact balance, near balance on both sides of
``BALANCE_EPS``, tiny s0, barrier and off-barrier starts, ``i == j``
queries, far targets and N up to 1000.  A rewrite of these paths that is
meant to keep every value keeps this digest; one that moves a single bit
fails here.
"""

import hashlib
import random

from mfbwalk import (absorption_times, make_model, mean_time_period,
                     mean_time_to_barrier, reach_probability, site_visits)

SEED = 20261020
SWEEP_SHA256 = ("b015f4c44964733998e851d1f2cd74ba"
                 "39981379b1acdb7b8c494bb5a7e3f039")


def _sweep_models(rng: random.Random):
    sizes = [2, 3, 5, 10, 1000]
    for n_model in range(300):
        kind = n_model % 6
        n = (sizes[n_model // 6 % len(sizes)] if n_model < 60
             else round(2 * 500 ** rng.random()))
        p = rng.uniform(0.05, 0.45)
        if kind == 0:    # exact balance
            q = p
        elif kind == 1:  # near balance, on either side of BALANCE_EPS
            q = p + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-11, -6)
        else:            # drift, mirrored where p > q
            q = rng.uniform(0.05, 0.45)
        p0, q0 = rng.uniform(0.02, 0.45), rng.uniform(0.02, 0.45)
        s0 = 1e-7 if kind == 5 else rng.uniform(0.05, 0.95) * (1.0 - p0 - q0)
        i0 = 0 if rng.random() < 0.5 else rng.randrange(n)
        yield make_model(p=p, q=q, p0=p0, q0=q0, s0=s0, N=n, i0=i0)


def _outcome(call, *args) -> str:
    try:
        value = call(*args)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, tuple):
        return ",".join(map(float.hex, value))
    if isinstance(value, float):
        return value.hex()
    return (",".join(map(float.hex, value.period_values)) + ";"
            + ",".join(f"{k}:{v.hex()}"
                       for k, v in sorted(value.per_barrier.items())))


def _sweep_lines():
    rng = random.Random(SEED)
    for m in _sweep_models(rng):
        n = m.N
        yield m.to_json()
        yield _outcome(mean_time_period, m)
        yield _outcome(absorption_times, m, -4, 4)
        for k in range(-3, 4):
            yield _outcome(mean_time_to_barrier, m, k)
        for _ in range(6):
            i = rng.randrange(-2 * n, 3 * n)
            far = rng.choice((-1, 1)) * rng.randrange(5 * n, 20 * n)
            for j in (i, i + rng.randrange(-2 * n, 2 * n + 1), i + far):
                yield _outcome(reach_probability, m, i, j)
            for j in (rng.randrange(-3 * n, 3 * n + 1), far):
                yield _outcome(site_visits, m, j)


def test_seeded_sweep_keeps_every_bit():
    digest = hashlib.sha256()
    for line in _sweep_lines():
        digest.update(line.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == SWEEP_SHA256
