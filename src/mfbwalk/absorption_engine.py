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
  generating function X_{kN}(z) = Omega(z) (lambda1^N(z) - lambda2^N(z))
  xi_i^k(z), differentiated term by term through the implicit derivatives
  of the two quadratics, all written out at z = 1 in the rho <= 1 frame of
  :func:`mfbwalk.walk_model.barrier_spectrum`, where lambda1 = 1 and
  lambda2 = rho.  A compact display form of the coupling-coefficient
  derivative circulates that drops the (1 - r0) and (N-1)(rho q0 + p0)
  factors (5.45 against the chain rule's 5.7 on the frame of the drift
  reference model); :func:`display_time_to_barrier`
  evaluates it as a diagnostic for ``verify``, while the chain-rule path is
  the one that matches the exact derivative of the truncated occupancy
  system (:func:`mfbwalk.oracle.truncated_visit_derivatives`).

The per-barrier split has no closed form for a driftless walk, and near
balance the drift form cancels; :func:`has_barrier_split` says where it
serves.  ``s0 * mfbwalk.oracle.truncated_visit_derivatives(m)[k * N]``
gives it everywhere.

The per-model constants of both (m_0, the ruin denominators and, inside
the series cut, the ruin series folded into one polynomial in the site for
each half of the period; the k-independent factors of the split) are
derived once per model and held in 512-entry caches, like
:func:`mfbwalk.walk_model.barrier_spectrum`, so that each call does only
its per-site or per-barrier arithmetic.  A refusal is cached as None and
raised afresh on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

from .errors import BalancedUnsupported, StartNotBarrier
from .walk_model import (MAX_SITES, BarrierSpectrum, Branch, WalkModel,
                         barrier_spectrum)

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
def _mean_time_constants(model: WalkModel) -> tuple[float, tuple]:
    """(m_0, ruin constants of :func:`_times_to_next_barrier`), derived once
    per model; m_0 = (p0 T_1 + q0 T_{N-1} + 1 - s0) / s0 is the mean time
    from a barrier."""
    m = model
    x = math.log(m.q / m.p)
    y = m.N * x
    in_series = abs(y) < _RUIN_SERIES_CUT
    ruin = (m.N, m.N ** 2, y,
            None if in_series else math.expm1(-abs(y)),
            (_folded_series(y), _folded_series(-y)) if in_series else None,
            1.0 if x == 0.0 else x / math.expm1(x), m.p)
    t1, t_last = _times_to_next_barrier(ruin, (1, m.N - 1))
    m0 = (m.p0 * t1 + m.q0 * t_last + 1.0 - m.s0) / m.s0
    return m0, ruin


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
    m0, ruin = _mean_time_constants(model)
    return m0 + _times_to_next_barrier(ruin, (i % model.N,))[0]


def mean_time_period(model: WalkModel) -> tuple[float, ...]:
    """m_i for i = 0..N (m_0 at both ends), equal to :func:`mean_time_any`
    at each i.  A period of more than ``MAX_SITES`` values raises
    ValueError."""
    n = model.N
    if n + 1 > MAX_SITES:
        raise ValueError(f"a period of {n + 1} mean times is more than "
                         f"{MAX_SITES}")
    m0, ruin = _mean_time_constants(model)
    times = _times_to_next_barrier(ruin, range(1, n))
    return (m0, *[m0 + t for t in times], m0)


def _split_refusal(model: WalkModel) -> ValueError:
    """The error that refuses the per-barrier closed form where
    :func:`has_barrier_split` is false."""
    y = model.N * abs(math.log(model.q / model.p))
    if model.branch is Branch.BALANCED or (model.i0 == 0 and y < _RUIN_SERIES_CUT):
        return BalancedUnsupported(
            f"per-barrier mean times have no closed form for a balanced "
            f"walk and lose their precision near balance (N |log(q/p)| = "
            f"{y:.3g} < {_RUIN_SERIES_CUT:g}); use s0 * "
            f"oracle.truncated_visit_derivatives(model)[k * N] instead")
    return StartNotBarrier(
        f"per-barrier mean times are derived for a barrier start "
        f"(i0 = 0); model has i0 = {model.i0}")


def has_barrier_split(model: WalkModel) -> bool:
    """Whether :func:`mean_time_to_barrier` serves this model.

    It needs a barrier start and drift.  Near balance the chain rule below
    cancels: against the exact derivative its error stays below 1e-6 at
    y = N |log(q/p)| = 1e-2 for N up to 1000 and grows about as y^-3 below
    that, so it serves only above the cut of the ruin series, which bounds
    the same variable.
    """
    return (model.i0 == 0 and model.branch is not Branch.BALANCED
            and model.N * abs(math.log(model.q / model.p)) >= _RUIN_SERIES_CUT)


def _domega0(spectrum: BarrierSpectrum, zeta: float, display: bool) -> float:
    """d omega0/dz at z = 1 in the rho <= 1 frame, by the chain rule through

        omega0(z) = (l2^N - l1^N)(1 - r0 z) + z (l1^(N-1) - l2^(N-1))(rho q0 + p0)

    with l1 = 1, l2 = rho and dl_i/dz = (-1)^i zeta l_i, or the compact
    display form if ``display`` (diagnostic only)."""
    m, rho = spectrum.model, spectrum.rho
    n = m.N
    coup = rho * spectrum.q0 + spectrum.p0
    if display:
        return (m.r0 * (1.0 - rho ** n)
                + coup * (1.0 - rho ** (n - 1))
                + zeta * (n * (1.0 + rho ** n) - (1.0 + rho ** (n - 1))))
    return (n * zeta * (1.0 - m.r0) * (1.0 + rho ** n)
            + m.r0 * (1.0 - rho ** n)
            + coup * (1.0 - rho ** (n - 1))
            - (n - 1) * zeta * coup * (1.0 + rho ** (n - 1)))


def _split_terms(model: WalkModel, display: bool) -> tuple | None:
    """The k-independent factors of s0 * d/dz [Omega(z) (l1^N - l2^N) xi^k]
    at z = 1 on the frame, where l1 = 1, l2 = rho and m_0k = m'_{0,-k} if it
    is mirrored, with

        dl_i/dz   = (-1)^i zeta l_i,           zeta = 1 / (q - p)
        dOmega/dz = -Omega^3 [omega0 domega0 + 4 p0 q0 rho^N alpha / (p q)]
        dxi_i/dz  = (-1)^i xi_i Omega [alpha omega0 zeta^2 + domega0]

    where alpha = r (1 - r) + 4 p q, omega0 = omega0(1) of :func:`_domega0`
    and Omega = [omega0^2 - 4 p0 q0 (1 - rho)^2 rho^(N-1)]^(-1/2).

    Returns (mirrored, s0, xi1, xi2, dOmega gap + Omega dgap, Omega gap,
    xi_factor) for :func:`_time_to_barrier`, or None where
    :func:`has_barrier_split` is false.
    """
    if not has_barrier_split(model):
        return None
    m = model
    spectrum = barrier_spectrum(m)
    n, rho, p0, q0 = m.N, spectrum.rho, spectrum.p0, spectrum.q0
    zeta = 1.0 / (spectrum.q - spectrum.p)
    omega0 = ((rho ** n - 1.0) * (1.0 - m.r0)
              + (1.0 - rho ** (n - 1)) * (rho * q0 + p0))
    omega_big = 1.0 / math.sqrt(
        omega0 * omega0 - 4.0 * p0 * q0 * (1.0 - rho) ** 2 * rho ** (n - 1))
    domega0 = _domega0(spectrum, zeta, display)
    gap = 1.0 - rho ** n
    dgap = -n * zeta * (1.0 + rho ** n)
    ratio = 4.0 * p0 * q0 / (m.p * m.q) * rho ** n
    domega_big = -omega_big ** 3 * (omega0 * domega0 + ratio * spectrum.alpha)
    xi_factor = omega_big * (spectrum.alpha * omega0 * zeta ** 2 + domega0)
    return (spectrum.mirrored, m.s0, spectrum.xi1, spectrum.xi2,
            domega_big * gap + omega_big * dgap, omega_big * gap, xi_factor)


@lru_cache(maxsize=512)
def _split_constants(model: WalkModel) -> tuple | None:
    """:func:`_split_terms` of the chain rule, derived once per model."""
    return _split_terms(model, display=False)


def _time_to_barrier(model: WalkModel, terms: tuple | None, k: int) -> float:
    """m_0k from the model's :func:`_split_terms`, or its refusal if None."""
    if terms is None:
        raise _split_refusal(model)
    mirrored, s0, xi1, xi2, base, omega_gap, xi_factor = terms
    # the split serves i0 = 0 only, where the reflection maps kN to -kN
    if mirrored:
        k = -k
    xi = xi1 if k <= 0 else xi2
    return s0 * xi ** k * (base + omega_gap * abs(k) * xi_factor)


def mean_time_to_barrier(model: WalkModel, k: int) -> float:
    """Mean time carried by walks absorbed at barrier k*N, start at 0.

    Requires :func:`has_barrier_split`: raises :class:`BalancedUnsupported`
    at or near balance and :class:`StartNotBarrier` for i0 != 0.
    """
    return _time_to_barrier(model, _split_constants(model), k)


def display_time_to_barrier(model: WalkModel, k: int) -> float:
    """The same per-barrier time built on the compact display form of
    d omega0/dz (diagnostic path; it deviates from the chain rule)."""
    return _time_to_barrier(model, _split_terms(model, display=True), k)


def absorption_times(model: WalkModel, k_min: int = -3, k_max: int = 3) -> AbsorptionTimes:
    """Period of mean times plus the per-barrier split over a window.

    The split is included only where :func:`has_barrier_split` holds;
    otherwise ``per_barrier`` is empty.  An empty window (k_min > k_max)
    raises ValueError.
    """
    if k_min > k_max:
        raise ValueError(f"empty barrier window ({k_min}, {k_max})")
    period = mean_time_period(model)
    terms = _split_constants(model)
    per_barrier: dict[int, float] = {}
    if terms is not None:
        per_barrier = {k: _time_to_barrier(model, terms, k)
                       for k in range(k_min, k_max + 1)}
    return AbsorptionTimes(model=model, period_values=period,
                           per_barrier=per_barrier)
