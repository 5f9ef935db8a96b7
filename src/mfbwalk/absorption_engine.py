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
  of the two quadratics.  A compact display form of the coupling-coefficient
  derivative circulates that drops the (1 - r0) and (N-1)(rho q0 + p0)
  factors; :func:`display_time_to_barrier` evaluates it as a diagnostic for
  ``verify`` (it genuinely disagrees), while the chain-rule path is the one
  that matches the exact derivative of the truncated occupancy system
  (:func:`mfbwalk.oracle.truncated_visit_derivatives`).

The driftless case has no closed form for the per-barrier split; the
``per_barrier`` field of :func:`mfbwalk.oracle.truncated_mean_times` gives
it numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BalancedUnsupported, StartNotBarrier
from .walk_model import Branch, WalkModel, barrier_spectrum, lambda_pair

__all__ = [
    "AbsorptionTimes",
    "DerivativeBundle",
    "mean_time_any",
    "spectral_derivatives",
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
    ``per_barrier`` maps k to m_{0k} and is empty for balanced walks or
    off-barrier starts, where the closed form does not exist.
    """

    model: WalkModel
    period_values: tuple[float, ...]
    per_barrier: dict[int, float]


@dataclass(frozen=True)
class DerivativeBundle:
    """z-derivatives at z = 1 of every spectral ingredient (drift branch).

    All follow from implicit differentiation:

        dlambda_i/dz = (-1)^i zeta lambda_i
        dzeta/dz     = zeta^3 alpha,           alpha = r(1 - r) + 4 p q
        dxi_i/dz     = (-1)^i xi_i Omega [alpha omega0 zeta^2 + domega0]

    ``domega0`` is the chain-rule derivative of the z-dependent coupling
    coefficient omega0(z); ``domega0_display`` is the compact display form
    of the same derivative, retained for diagnostics only (it drops two
    factors and does not match finite differences).
    """

    model: WalkModel
    dlambda1: float
    dlambda2: float
    dzeta: float
    domega0: float
    dxi1: float
    dxi2: float
    alpha: float
    domega0_display: float


def _horner(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _ruin_shape(u: float, y: float) -> float:
    """F(u, y) = (u - expm1(u y) / expm1(y)) / y, including its y -> 0 limit.

    F(u, y) = F(1 - u, -y), so u is reflected into [0, 1/2], where the
    direct form loses at most a factor 4/|y| to cancellation.  For y > 0
    the ratio is rescaled by exp(-y) so that nothing overflows.
    """
    if u > 0.5:
        u, y = 1.0 - u, -y
    if abs(y) < _RUIN_SERIES_CUT:
        return _horner([_horner(c, u) for c in _RUIN_SERIES], y)
    if y > 0.0:
        ratio = math.exp((u - 1.0) * y) * math.expm1(-u * y) / math.expm1(-y)
    else:
        ratio = math.expm1(u * y) / math.expm1(y)
    return (u - ratio) / y


def _time_to_next_barrier(model: WalkModel, i: int) -> float:
    """Expected steps from site 0 <= i <= N until a barrier is reached.

    This is the gambler's-ruin expected duration (Feller, Vol. 1, Ch. XIV)
    with holding, T_i = N^2 F(i/N, N x) x / (p expm1(x)) with
    x = log(q / p); p expm1(x) = q - p, and x / expm1(x) is 1 at x = 0.
    """
    m = model
    x = math.log(m.q / m.p)
    scale = 1.0 if x == 0.0 else x / math.expm1(x)
    return m.N ** 2 * _ruin_shape(i / m.N, m.N * x) * scale / m.p


def mean_time_any(model: WalkModel, i: int) -> float:
    """Mean number of steps before absorption when starting from site i.

    ``i`` may be any integer; times are periodic, m_i = m_{i mod N}.  The
    value is m_i = m_0 + T_i with T_i the time to reach the next barrier
    and m_0 = (p0 T_1 + q0 T_{N-1} + 1 - s0) / s0.

    The interior rate enters as p + q, where the periodic solve of the
    oracle uses 1 - r.  For p, q near 1e-6 the rounding of 1 - r alone
    moves the solve by about 1e-9 relative; a 50-digit solve agrees with
    this form, not with the double-precision solve.
    """
    m = model
    m0 = (m.p0 * _time_to_next_barrier(m, 1)
          + m.q0 * _time_to_next_barrier(m, m.N - 1) + 1.0 - m.s0) / m.s0
    return m0 + _time_to_next_barrier(m, i % m.N)


def spectral_derivatives(model: WalkModel) -> DerivativeBundle:
    """All z = 1 derivatives needed to differentiate X_{kN}(z) (drift only).

    Raises :class:`BalancedUnsupported` for balanced walks, whose root pair
    degenerates at z = 1.
    """
    if model.branch is Branch.BALANCED:
        raise BalancedUnsupported(
            "spectral z-derivatives require drift (p != q); no closed form "
            "exists in the balanced case")
    m = model
    pair = lambda_pair(m, 1.0)
    spectrum = barrier_spectrum(m)
    l1, l2, zeta = pair.lambda1, pair.lambda2, pair.zeta
    n, rho = m.N, m.rho
    alpha = spectrum.alpha
    coup = m.rho * m.q0 + m.p0

    # chain rule through omega0(z) = (l2^N - l1^N)(1 - r0 z)
    #                                + z (l1^(N-1) - l2^(N-1)) (rho q0 + p0)
    domega0 = (n * zeta * (1.0 - m.r0) * (l1 ** n + l2 ** n)
               + m.r0 * (l1 ** n - l2 ** n)
               + coup * (l1 ** (n - 1) - l2 ** (n - 1))
               - (n - 1) * zeta * coup * (l1 ** (n - 1) + l2 ** (n - 1)))
    # display form of the same derivative (diagnostic only)
    domega0_display = (m.r0 * (l1 ** n - l2 ** n)
                       + coup * (l1 ** (n - 1) - l2 ** (n - 1))
                       + zeta * (n * (l1 ** n + l2 ** n)
                                 - (l1 ** (n - 1) + l2 ** (n - 1))))

    xi_factor = spectrum.Omega * (alpha * spectrum.omega0 * zeta ** 2 + domega0)
    return DerivativeBundle(
        model=m,
        dlambda1=-zeta * l1,
        dlambda2=zeta * l2,
        dzeta=zeta ** 3 * alpha,
        domega0=domega0,
        dxi1=-spectrum.xi1 * xi_factor,
        dxi2=spectrum.xi2 * xi_factor,
        alpha=alpha,
        domega0_display=domega0_display,
    )


def _time_to_barrier(model: WalkModel, k: int, domega0: float) -> float:
    """s0 * d/dz [Omega(z) (l1^N - l2^N) xi^k] at z = 1 for one derivative
    choice of the coupling coefficient."""
    m = model
    pair = lambda_pair(m, 1.0)
    spectrum = barrier_spectrum(m)
    l1, l2, zeta = pair.lambda1, pair.lambda2, pair.zeta
    n, rho = m.N, m.rho
    gap = l1 ** n - l2 ** n
    dgap = -n * zeta * (l1 ** n + l2 ** n)
    ratio = 4.0 * m.p0 * m.q0 / (m.p * m.q) * rho ** n
    domega_big = -spectrum.Omega ** 3 * (spectrum.omega0 * domega0 + ratio * spectrum.alpha)
    xi_factor = spectrum.Omega * (spectrum.alpha * spectrum.omega0 * zeta ** 2 + domega0)
    xi = spectrum.xi1 if k <= 0 else spectrum.xi2
    return m.s0 * xi ** k * (domega_big * gap
                             + spectrum.Omega * dgap
                             + spectrum.Omega * gap * abs(k) * xi_factor)


def _barrier_split_bundle(model: WalkModel) -> DerivativeBundle:
    if model.branch is Branch.BALANCED:
        raise BalancedUnsupported(
            "per-barrier mean times have no closed form for a balanced "
            "walk; use oracle.truncated_mean_times(model).per_barrier "
            "instead")
    if model.i0 != 0:
        raise StartNotBarrier(
            f"per-barrier mean times are derived for a barrier start "
            f"(i0 = 0); model has i0 = {model.i0}")
    return spectral_derivatives(model)


def mean_time_to_barrier(model: WalkModel, k: int) -> float:
    """Mean time carried by walks absorbed at barrier k*N, start at 0.

    Requires the drift branch and i0 = 0.
    """
    return _time_to_barrier(model, k, _barrier_split_bundle(model).domega0)


def display_time_to_barrier(model: WalkModel, k: int) -> float:
    """The same per-barrier time built on the compact display form of
    d omega0/dz (diagnostic path; it deviates from the chain rule)."""
    return _time_to_barrier(model, k,
                            _barrier_split_bundle(model).domega0_display)


def absorption_times(model: WalkModel, k_min: int = -3, k_max: int = 3) -> AbsorptionTimes:
    """Period of mean times plus the per-barrier split over a window.

    The split is included only where its closed form exists (drift branch,
    barrier start); otherwise ``per_barrier`` is empty.
    """
    period = tuple(mean_time_any(model, i) for i in range(model.N + 1))
    per_barrier: dict[int, float] = {}
    if model.branch is Branch.DRIFT and model.i0 == 0:
        per_barrier = {k: mean_time_to_barrier(model, k)
                       for k in range(k_min, k_max + 1)}
    return AbsorptionTimes(model=model, period_values=period,
                           per_barrier=per_barrier)
