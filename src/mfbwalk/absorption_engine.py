"""Mean absorption times, in closed form.

Two quantities live here:

* ``mean_time_any``: the expected number of steps before absorption from
  any start site, periodic with period N.  It splits into the time to
  reach the next barrier, the classical gambler's-ruin expected duration,
  plus the time m_0 from a barrier.  One expression serves both branches
  and stays accurate at every rho, near balance included.  Step counting
  convention: the absorbing transition is not counted, which is what the
  defining system ``(1 - r0) m_0 = p0 m_1 + q0 m_{N-1} + 1 - s0`` encodes.

* ``mean_time_to_barrier``: the expected time carried by walks absorbed at
  one specific barrier, for drift walks started on a barrier (i0 = 0).  It
  equals s0 times the z-derivative at z = 1 of the barrier occupancy
  generating function X_{kN}(z), which :func:`_split_terms` takes from the
  chain of the walk's passages between barriers: two per-model scalars,
  both sums of positive terms, so it holds near balance too.  A compact
  display form of the coupling-coefficient derivative circulates that drops
  the (1 - r0) and (N-1)(rho q0 + p0) factors (5.45 against the exact 5.7
  on the frame of the drift reference model); :func:`display_time_to_barrier`
  evaluates it as a diagnostic for ``verify``.

:func:`~mfbwalk.walk_model.has_barrier_split`, defined beside the model's
branch and read by the oracle battery too, says where the split serves:
balanced walks and starts off a barrier stay refused, as perfbench
documents them; ``s0 * mfbwalk.oracle.truncated_visit_derivatives(m)[k *
N]`` gives it everywhere.

The per-model constants of both (m_0, the ruin denominators and, inside
the series cut, the ruin series folded into one polynomial in the site for
each half of the period; the k-independent factors of the split, read from
the same ruin constants) are derived once per model into one record held in
a 512-entry cache, like :func:`mfbwalk.walk_model.barrier_spectrum`, so
that each call does only its per-site or per-barrier arithmetic.  A
refusal of the split is held as None and raised afresh on every call.  A
value beyond the float range raises OverflowError; none is returned as inf
or nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

from .errors import BalancedUnsupported, StartNotBarrier, beyond_float_range
from .walk_model import (BALANCE_EPS, MAX_SITES, Branch, WalkModel,
                         barrier_spectrum, has_barrier_split)

__all__ = [
    "AbsorptionTimes",
    "mean_time_any",
    "mean_time_period",
    "has_barrier_split",
    "mean_time_to_barrier",
    "display_time_to_barrier",
    "absorption_times",
]

# Taylor coefficients in y of the ruin shape F(u, y) below, each a
# polynomial in u (lowest power first): -(B_{k+2}(u) - B_{k+2}) / (k+2)!
# for k = 0..4, with the Bernoulli polynomials of sympy.bernoulli
_RUIN_SERIES = (
    (0.0, 1 / 2, -1 / 2),
    (0.0, -1 / 12, 1 / 4, -1 / 6),
    (0.0, 0.0, -1 / 24, 1 / 12, -1 / 24),
    (0.0, 1 / 720, 0.0, -1 / 72, 1 / 48, -1 / 120),
    (0.0, 0.0, 1 / 1440, 0.0, -1 / 288, 1 / 240, -1 / 720),
)
# below this |y| the series replaces the direct form, which cancels
_RUIN_SERIES_CUT = 1e-2
# Taylor coefficients in t^2 of h(t) of :func:`_coth_shape`,
# 2^(2n) B_2n / (2n)! for n = 1..6, and the t below which they serve
_COTH_SERIES = (1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555,
                -1382 / 638512875)
_COTH_SERIES_CUT = 0.2


@dataclass(frozen=True)
class AbsorptionTimes:
    """Mean times over one period plus the per-barrier split.

    ``period_values[i]`` is m_i for i = 0..N (so m_0 appears at both ends);
    ``per_barrier`` maps k to m_{0k} and is empty wherever
    :func:`has_barrier_split` is false.
    """

    model: WalkModel
    period_values: tuple[float, ...]
    per_barrier: dict[int, float]


def _horner(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _folded_series(y: float) -> tuple[float, ...]:
    """The ruin series at a fixed y as one polynomial in u, highest power
    first: the coefficient of u^j is the polynomial in y of column j of
    :data:`_RUIN_SERIES`."""
    return tuple(_horner(column, y) for column in
                 reversed(list(zip_longest(*_RUIN_SERIES, fillvalue=0.0))))


def _times_to_next_barrier(ruin: tuple, sites) -> list[float]:
    """Expected steps T_i until a barrier is reached, for each site
    0 <= i <= N of ``sites``.

    This is the gambler's-ruin expected duration (Feller, Vol. 1, Ch. XIV)
    with holding, T_i = N^2 F(i/N, N x) x / (p expm1(x)) with
    x = log(q / p); p expm1(x) = q - p, and x / expm1(x) is 1 at x = 0.
    The ruin shape is F(u, y) = (u - expm1(u y) / expm1(y)) / y with its
    y -> 0 limit.  F(u, y) = F(1 - u, -y), so u is reflected into
    [0, 1/2], as (N - i) / N, which rounds once, and there the direct form
    loses at most a factor 4/|y| to cancellation.  For y > 0 the ratio is rescaled by exp(-y) so that
    nothing overflows, which makes its denominator ``expm1(-|y|)`` on both
    signs.  Where |y| is below the series cut, the model's
    :func:`_folded_series` at y (``series[0]``) and at -y (``series[1]``,
    the reflected half) serve instead, one Horner per site.

    ``ruin`` holds the model's (N, N^2, N x, expm1(-N |x|) or None, the two
    folded series or None, x / expm1(x), p).
    """
    n, n2, y_model, denom, series, scale, p = ruin
    times = []
    for i in sites:
        u, y = i / n, y_model
        reflected = u > 0.5
        if reflected:
            u, y = (n - i) / n, -y
        if series is not None:
            shape = 0.0
            for c in series[reflected]:
                shape = shape * u + c
        elif y > 0.0:
            ratio = math.exp((u - 1.0) * y) * math.expm1(-u * y) / denom
            shape = (u - ratio) / y
        else:
            shape = (u - math.expm1(u * y) / denom) / y
        times.append(n2 * shape * scale / p)
    return times


@lru_cache(maxsize=512)
def _mean_time_constants(model: WalkModel) -> tuple[float, tuple, tuple | None]:
    """(m_0, ruin constants of :func:`_times_to_next_barrier`,
    :func:`_split_terms` or None), derived once per model; m_0 = (p0 T_1 +
    q0 T_{N-1} + 1 - s0) / s0 is the mean time from a barrier."""
    m = model
    drift = (m.q - m.p) / m.p
    # below q / p of about 1.1e-16 the drift rounds to -1, outside log1p's
    # domain, and log(q / p) keeps the ratio's digits
    x = math.log(m.q / m.p) if drift == -1.0 else math.log1p(drift)
    y = m.N * x
    in_series = abs(y) < _RUIN_SERIES_CUT
    ruin = (m.N, m.N ** 2, y,
            None if in_series else math.expm1(-abs(y)),
            (_folded_series(y), _folded_series(-y)) if in_series else None,
            1.0 if x == 0.0 else x / math.expm1(x), m.p)
    t1, t_last = _times_to_next_barrier(ruin, (1, m.N - 1))
    m0 = (m.p0 * t1 + m.q0 * t_last + 1.0 - m.s0) / m.s0
    return m0, ruin, _split_terms(m, ruin, display=False)


def mean_time_any(model: WalkModel, i: int) -> float:
    """Mean number of steps before absorption when starting from site i.

    ``i`` may be any integer; times are periodic, m_i = m_{i mod N}.  The
    value is m_i = m_0 + T_i with T_i the time to reach the next barrier
    and m_0 = (p0 T_1 + q0 T_{N-1} + 1 - s0) / s0.

    The interior rate enters as p + q, never as 1 - r, which rounds for
    p, q near 1e-6.  The periodic solve of the oracle sums p + q as well
    and eliminates its interior onto m_0, so at s0 = 1e-7 the two agree
    within 1e-12 relative at N = 1000 and 2e-15 at N = 10.
    """
    m0, ruin, _ = _mean_time_constants(model)
    value = m0 + _times_to_next_barrier(ruin, (i % model.N,))[0]
    if not math.isfinite(value):
        raise beyond_float_range("the mean time")
    return value


def mean_time_period(model: WalkModel) -> tuple[float, ...]:
    """m_i for i = 0..N (m_0 at both ends), equal to :func:`mean_time_any`
    at each i.  A period of more than ``MAX_SITES`` values raises
    ValueError."""
    n = model.N
    if n + 1 > MAX_SITES:
        raise ValueError(f"a period of {n + 1} mean times is more than "
                         f"{MAX_SITES}")
    m0, ruin, _ = _mean_time_constants(model)
    times = _times_to_next_barrier(ruin, range(1, n))
    period = (m0, *[m0 + t for t in times], m0)
    if not all(map(math.isfinite, period)):
        raise beyond_float_range("a mean time of the period")
    return period


def _split_refusal(model: WalkModel) -> ValueError:
    """The error that refuses the per-barrier times where
    :func:`has_barrier_split` is false."""
    if model.branch is Branch.BALANCED:
        return BalancedUnsupported(
            f"per-barrier mean times are not served for a balanced walk "
            f"(|p - q| < {BALANCE_EPS:g}); use s0 * "
            f"oracle.truncated_visit_derivatives(model)[k * N] instead")
    return StartNotBarrier(
        f"per-barrier mean times are derived for a barrier start "
        f"(i0 = 0); model has i0 = {model.i0}")


def _coth_shape(t: float) -> float:
    """h(t) = (t coth t - 1) / t^2 for t >= 0, within 2e-14 relative; below
    the cut the direct form cancels and :data:`_COTH_SERIES` serves."""
    return (_horner(_COTH_SERIES, t * t) if t < _COTH_SERIES_CUT
            else (t / math.tanh(t) - 1.0) / (t * t))


def _split_terms(model: WalkModel, ruin: tuple, display: bool) -> tuple | None:
    """The k-independent factors of m_0k = s0 x_{kN} (A + |k| B) on the
    rho <= 1 frame of :func:`barrier_spectrum` (m_0k = m'_{0,-k} if it is
    mirrored), where A = x0'/x0 and B = |xi'/xi| at z = 1.

    From a visit to a frame barrier the walk next reaches the barrier below
    with chance a = q0 / [N] and the one above with c = p0 rho^(N-1) / [N],
    each after 1 + tau steps on average, where (x = -log rho)

        tau = (N coth(N x / 2) - coth(x / 2)) / (q - p)

    is the crossing time given the crossing, here through h =
    :func:`_coth_shape`.  Every other move returns to the same barrier, so
    ``a x_{k+1} - |b| x_k + c x_{k-1} = 0`` with |b| = s0 + a + c and, at
    i0 = 0, x_{kN} = x0 xi^k with x0 = Omega [N] = (b^2 - 4ac)^(-1/2).  The
    returning moves take b' = r0 + (p0 + rho q0)([N-1]/[N] + T_1 -
    tau rho^(N-1)/[N]) steps per visit, T_1 the ruin duration from the
    frame's site 1 (from the model's ``ruin`` constants); with S = |b| b' +
    4ac (1 + tau), A = S x0^2 and B = 1 + tau + (b' + S x0) / (|b| + 1/x0).

    ``display`` adds the term by which the display form of d omega0/dz
    differs (diagnostic only): E = Omega D / (q (1 - rho)^2) to B and
    Omega |psi0| E to A, where D = N r0 (1 + rho^N) - (1 + rho^(N-1))
    + (N - 1)(rho q0 + p0)(1 + rho^(N-1)).

    Returns (mirrored, xi1, xi2, s0 x0 A, s0 x0 B), or None where
    :func:`has_barrier_split` is false.
    """
    if not has_barrier_split(model):
        return None
    m = model
    sp = barrier_spectrum(m)
    n, rho, p0, q0, q = m.N, sp.rho, sp.p0, sp.q0, sp.q
    x = -sp.log_rho
    lift = rho ** (n - 1)
    a, c = q0 / sp.qn, p0 * lift / sp.qn
    b = m.s0 + a + c
    x0 = sp.Omega * sp.qn
    x_per_drift = x / (-q * math.expm1(-x))  # x / (q - p)
    tau = x_per_drift * (n * n * _coth_shape(n * x / 2)
                         - _coth_shape(x / 2)) / 2
    t1 = _times_to_next_barrier(ruin, (n - 1 if sp.mirrored else 1,))[0]
    coup = p0 + rho * q0
    db = m.r0 + coup * (sp.qint(n - 1) / sp.qn + t1 - tau * lift / sp.qn)
    s = b * db + 4.0 * a * c * (1.0 + tau)
    big_a = s * x0 * x0
    big_b = 1.0 + tau + (db + s * x0) / (b + 1.0 / x0)
    if display:
        d = (n * m.r0 * (1.0 + rho ** n) - (1.0 + lift)
             + (n - 1) * coup * (1.0 + lift))
        e = sp.Omega * d / (q * (1.0 - rho) ** 2)
        big_a += sp.Omega * abs(sp.psi0) * e
        big_b += e
    return sp.mirrored, sp.xi1, sp.xi2, m.s0 * x0 * big_a, m.s0 * x0 * big_b


def _time_to_barrier(model: WalkModel, terms: tuple | None, k: int) -> float:
    """m_0k from the model's :func:`_split_terms`, or its refusal if None."""
    if terms is None:
        raise _split_refusal(model)
    mirrored, xi1, xi2, base, slope = terms
    # the split serves i0 = 0 only, where the reflection maps kN to -kN
    if mirrored:
        k = -k
    xi = xi1 if k <= 0 else xi2
    value = xi ** k * (base + abs(k) * slope)
    if not math.isfinite(value):
        raise beyond_float_range("the per-barrier mean time")
    return value


def mean_time_to_barrier(model: WalkModel, k: int) -> float:
    """Mean time carried by walks absorbed at barrier k*N, start at 0.

    Requires :func:`has_barrier_split`: raises :class:`BalancedUnsupported`
    for a balanced walk and :class:`StartNotBarrier` for i0 != 0.
    """
    return _time_to_barrier(model, _mean_time_constants(model)[2], k)


def display_time_to_barrier(model: WalkModel, k: int) -> float:
    """The same per-barrier time built on the compact display form of
    d omega0/dz (diagnostic path; it deviates from the exact derivative)."""
    ruin = _mean_time_constants(model)[1]
    return _time_to_barrier(model, _split_terms(model, ruin, display=True), k)


def absorption_times(model: WalkModel, k_min: int = -3, k_max: int = 3) -> AbsorptionTimes:
    """Period of mean times plus the per-barrier split over a window.

    The split is included only where :func:`has_barrier_split` holds;
    otherwise ``per_barrier`` is empty.  An empty window (k_min > k_max)
    raises ValueError.
    """
    if k_min > k_max:
        raise ValueError(f"empty barrier window ({k_min}, {k_max})")
    period = mean_time_period(model)
    terms = _mean_time_constants(model)[2]
    per_barrier: dict[int, float] = {}
    if terms is not None:
        per_barrier = {k: _time_to_barrier(model, terms, k)
                       for k in range(k_min, k_max + 1)}
    return AbsorptionTimes(model=model, period_values=period,
                           per_barrier=per_barrier)
