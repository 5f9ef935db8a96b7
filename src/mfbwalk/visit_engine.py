"""Expected number of arrivals at every site, absorption masses and reach
probabilities, in closed form.

Every form is evaluated in the ``rho <= 1`` frame of
:func:`mfbwalk.walk_model.barrier_spectrum`, with q-integers, so one
expression serves drift and balance.  Barrier visits satisfy a second-order
linear recurrence over the barrier index k whose roots ``xi1 > 1 > xi2``
live on the spectrum.  In the frame the visit counts are

    x_{kN} = C1 * xi1^k   (k <= 0)        x_{kN} = x_N * xi2^(k-1)   (k >= 1)

and the two constants come from the boundary instances of the recurrence at
k = 0 and k = 1, a plain 2x2 linear system.  That boundary-system path is
the only one the library evaluates.  The same solution also has a compact
algebraic display form, :func:`display_barrier_visits`; ``verify`` compares
the two once per model (they are algebraically identical, so a disagreement
indicates a numerical pathology).

Interior sites interpolate between their bracketing barriers with weights
``rho^n [N-n] / [N]`` and ``[n] / [N]``, plus a source term inside the
start interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import beyond_float_range
from .walk_model import (MAX_SITES, BarrierSpectrum, WalkModel,
                         barrier_spectrum)

__all__ = [
    "VisitProfile",
    "boundary_coefficients",
    "barrier_visits",
    "display_barrier_visits",
    "site_visits",
    "absorption_mass",
    "total_absorption",
    "reach_probability",
    "visit_profile",
    "barrier_recurrence_residual",
    "occupancy_residual",
    "occupancy_residuals",
]


@dataclass(frozen=True)
class VisitProfile:
    """Expected arrivals over a window of barriers.

    ``values[j]`` holds x_j for every site between the window's outer
    barriers; ``barrier_coeff_left`` / ``barrier_coeff_right`` are the
    frame's recurrence constants C1 and x_N of :func:`boundary_coefficients`,
    so values outside the window follow as ``C1 * xi1^k`` and
    ``x_N * xi2^(k-1)`` on the frame's barriers without storing them.
    """

    model: WalkModel
    barrier_coeff_left: float
    barrier_coeff_right: float
    window: tuple[int, int]
    values: dict[int, float]


@lru_cache(maxsize=512)
def boundary_coefficients(model: WalkModel) -> tuple[float, float]:
    """The frame's recurrence constants (C1, x_N) from the k = 0, 1 system.

    In the frame of :func:`barrier_spectrum`, C1 = x_0 and x_N are the
    visits at barriers 0 and 1.  The system is ``-C1 xi1 + x_N = R1`` and
    ``C1 xi2 - x_N = R2`` with the start-site source on the right:
    ``R1 = -[N - i0] / q0`` and ``R2 = -[i0] rho^(N - i0) / (q0 xi1)``.
    Both constants are sums of positive terms.
    """
    spectrum = barrier_spectrum(model)
    return _coefficients(spectrum, spectrum.i0)


def _coefficients(sp: BarrierSpectrum, i0: int) -> tuple[float, float]:
    """(C1, x_N) of :func:`boundary_coefficients` for the frame start i0."""
    n = sp.model.N
    r1 = -sp.qint(n - i0) / sp.q0
    r2 = -(sp.qint(i0) * sp.rho ** (n - i0) / (sp.q0 * sp.xi1))
    gap = sp.gap1 + sp.gap2
    return -(r1 + r2) / gap, -(r1 * sp.xi2 + r2 * sp.xi1) / gap


def _frame_barrier(spectrum: BarrierSpectrum, coeffs: tuple[float, float],
                   k: int) -> float:
    """x_{kN} at barrier k of the frame."""
    c1, xn = coeffs
    return c1 * spectrum.xi1 ** k if k <= 0 else xn * spectrum.xi2 ** (k - 1)


def display_barrier_visits(model: WalkModel, k: int) -> float:
    """Verbatim display-form evaluation of x_{kN} (diagnostic path):
    ``([N - i0] xi + rho^(N - i0) [i0]) Omega xi^(k-1)`` in the frame, with
    xi the root that decays away from the start."""
    spectrum = barrier_spectrum(model)
    k = spectrum.frame_site(k * model.N) // model.N
    n, i0 = model.N, spectrum.i0
    xi = spectrum.xi1 if k <= 0 else spectrum.xi2
    bracket = (spectrum.qint(n - i0) * xi
               + spectrum.rho ** (n - i0) * spectrum.qint(i0))
    return bracket * spectrum.Omega * xi ** (k - 1)


def barrier_visits(model: WalkModel, k: int) -> float:
    """Expected number of arrivals at barrier site k*N before absorption."""
    spectrum = barrier_spectrum(model)
    return _frame_barrier(spectrum, boundary_coefficients(model),
                          spectrum.frame_site(k * model.N) // model.N)


def absorption_mass(model: WalkModel, k: int) -> float:
    """Probability that the walk is absorbed at barrier k*N."""
    return model.s0 * barrier_visits(model, k)


def total_absorption(model: WalkModel) -> float:
    """Total absorption probability via the two closed geometric sums.

    Sums s0 * x_{kN} over all k: ratio 1/xi1 on the left tail and xi2 on
    the right, each divided by its root's gap to one.  Equals one for every
    valid model; where a term leaves the float range (a subnormal s0), it
    raises OverflowError.
    """
    spectrum = barrier_spectrum(model)
    c1, xn = boundary_coefficients(model)
    total = model.s0 * (c1 * spectrum.xi1 / spectrum.gap1 + xn / spectrum.gap2)
    if not math.isfinite(total):
        raise beyond_float_range("the total absorption")
    return total


def _weights(sp: BarrierSpectrum, n: int, qint) -> tuple[float, float]:
    """The weights ``(p0/p) rho^n [N - n]`` and ``(q0/q) [n]`` of barriers kN
    and (k + 1)N at the frame's interior offset n, before dividing by [N];
    ``qint`` gives the frame's q-integers (:meth:`BarrierSpectrum.qint`, or
    a lookup in a table of them)."""
    return ((sp.p0 / sp.p) * sp.rho ** n * qint(sp.model.N - n),
            (sp.q0 / sp.q) * qint(n))


def _source(sp: BarrierSpectrum, i0: int, n: int, qint) -> float:
    """The source term ``rho^(hi - i0) [lo] [N - hi] / q`` with
    ``lo, hi = sorted((n, i0))`` at offset n of the interval that holds the
    frame start i0, before dividing by [N]; ``qint`` as in :func:`_weights`."""
    lo, hi = sorted((n, i0))
    return sp.rho ** (hi - i0) * qint(lo) * qint(sp.model.N - hi) / sp.q


def _visits(sp: BarrierSpectrum, i0: int, coeffs: tuple[float, float],
            j: int) -> float:
    """x at the frame's site j of a walk started at the frame site
    0 <= i0 < N, whose recurrence constants are ``coeffs``: an interior
    site interpolates between its bracketing barriers with the offset's
    :func:`_weights`, plus the :func:`_source` term in the start interval."""
    k, n = divmod(j, sp.model.N)
    xk = _frame_barrier(sp, coeffs, k)
    if n == 0:
        return xk
    left, right = _weights(sp, n, sp.qint)
    value = left * xk + right * _frame_barrier(sp, coeffs, k + 1)
    if k == 0:
        value += _source(sp, i0, n, sp.qint)
    return value / sp.qn


def site_visits(model: WalkModel, j: int) -> float:
    """Expected number of arrivals at an arbitrary site j.

    In the frame, an interior site kN + n (0 < n < N) interpolates between
    x_{kN} and x_{(k+1)N}; the interval containing the start adds the
    source term ``rho^(hi - i0) [lo] [N - hi] / q`` with
    ``lo, hi = sorted((n, i0))``.
    """
    sp = barrier_spectrum(model)
    return _visits(sp, sp.i0, boundary_coefficients(model), sp.frame_site(j))


def reach_probability(model: WalkModel, i: int, j: int) -> float:
    """Probability of ever reaching site j when starting from site i.

    Uses f_ij = x_ij / x_jj for i != j and f_ii = 1 - 1/x_ii, where x_ij is
    the expected number of arrivals at j for a walk started at i.  Both
    sites are carried into the model's rho <= 1 frame (j -> -j for a
    mirrored walk), and each start is then shifted into [0, N) by a whole
    number of periods, its target with it; the barrier lattice is invariant
    under both maps, so every value is read from the model's own spectrum
    and no re-anchored model is built or cached.
    """
    sp = barrier_spectrum(model)
    if sp.mirrored:
        i, j = -i, -j

    def arrivals(start: int, target: int) -> float:
        shift = (start // model.N) * model.N
        i0 = start - shift
        return _visits(sp, i0, _coefficients(sp, i0), target - shift)

    if i == j:
        return 1.0 - 1.0 / arrivals(i, i)
    return arrivals(i, j) / arrivals(j, j)


def visit_profile(model: WalkModel, k_min: int = -3, k_max: int = 3) -> VisitProfile:
    """Materialize x_j for every site between barriers k_min and k_max.

    The frame's q-integers [0..N] and each offset's :func:`_weights` are
    tabled once, and every barrier interval of the frame is filled from its
    two barriers in one pass, the start interval with its source term.  A
    window of more than ``MAX_SITES`` sites raises ValueError.
    """
    if k_min > k_max:
        raise ValueError(f"empty barrier window ({k_min}, {k_max})")
    n = model.N
    if (k_max - k_min) * n + 1 > MAX_SITES:
        raise ValueError(f"window ({k_min}, {k_max}) holds "
                         f"{(k_max - k_min) * n + 1} sites, more than "
                         f"{MAX_SITES}")
    sp = barrier_spectrum(model)
    coeffs = boundary_coefficients(model)
    # the frame window spans whole intervals; a mirrored frame runs its
    # sites against the model's
    first, last = sorted((sp.frame_site(k_min * n) // n,
                          sp.frame_site(k_max * n) // n))
    qint = [sp.qint(i) for i in range(n + 1)].__getitem__
    weights = [_weights(sp, i, qint) for i in range(1, n)]
    qn = sp.qn
    xk1 = _frame_barrier(sp, coeffs, first)
    frame = [xk1]
    for k in range(first, last):
        xk, xk1 = xk1, _frame_barrier(sp, coeffs, k + 1)
        if k == 0:
            frame += [(a * xk + b * xk1 + _source(sp, sp.i0, i, qint)) / qn
                      for i, (a, b) in enumerate(weights, 1)]
        else:
            frame += [(a * xk + b * xk1) / qn for a, b in weights]
        frame.append(xk1)
    sites = range(k_min * n, k_max * n + 1)
    values = dict(zip(sites, reversed(frame) if sp.mirrored else frame))
    return VisitProfile(model=model, barrier_coeff_left=coeffs[0],
                        barrier_coeff_right=coeffs[1], window=(k_min, k_max),
                        values=values)


# ---------------------------------------------------------------------------
# residual checks used by tests and the verify battery

def barrier_recurrence_residual(model: WalkModel, k: int) -> float:
    """Residual of the frame's barrier-level difference equation at the
    frame's index of barrier k.

    Zero (to rounding) for every k when the closed form is correct.  The
    k = 0 and k = 1 instances carry the start-site source on the right-hand
    side, ``-[N - i0]`` and ``-rho^(N - i0) [i0]``; all others are
    homogeneous.
    """
    spectrum = barrier_spectrum(model)
    coeffs = boundary_coefficients(model)
    k = spectrum.frame_site(k * model.N) // model.N
    xm, x0, xp = (_frame_barrier(spectrum, coeffs, i) for i in (k - 1, k, k + 1))
    a, b, c = spectrum.quadratic_coeffs()
    n, i0 = model.N, spectrum.i0
    rhs = 0.0
    if k == 0:
        rhs = -spectrum.qint(n - i0)
    elif k == 1:
        rhs = -spectrum.rho ** (n - i0) * spectrum.qint(i0)
    return a * xp + b * x0 + c * xm - rhs


def _balance(m: WalkModel, j: int, left: float, x: float,
             right: float) -> float:
    """The outflow (p + q) x_j, or (p0 + q0 + s0) x_j on a barrier, minus
    the inflow into site j from the visits ``left``, ``x``, ``right`` at
    sites j - 1, j, j + 1; 1 - hold would keep few digits of a tiny p + q."""
    out = m.p0 + m.q0 + m.s0 if j % m.N == 0 else m.p + m.q
    from_left = m.p0 if (j - 1) % m.N == 0 else m.p
    from_right = m.q0 if (j + 1) % m.N == 0 else m.q
    return (out * x
            - (from_left * left + from_right * right
               + (1.0 if j == m.i0 else 0.0)))


def occupancy_residual(model: WalkModel, j: int) -> float:
    """Residual of the single-site occupancy balance at site j.

    Arrivals at j must equal inflow from both neighbours plus holding plus
    the time-zero source:  (1 - hold_j) x_j = fwd_{j-1} x_{j-1}
    + back_{j+1} x_{j+1} + [j == i0], with barrier coefficients wherever a
    neighbour (or j itself) is a barrier.
    """
    return _balance(model, j, site_visits(model, j - 1),
                    site_visits(model, j), site_visits(model, j + 1))


def occupancy_residuals(profile: VisitProfile) -> dict[int, float]:
    """:func:`occupancy_residual` at every site strictly between the
    profile's outer barriers, read from its values."""
    x = profile.values
    k_min, k_max = profile.window
    n = profile.model.N
    return {j: _balance(profile.model, j, x[j - 1], x[j], x[j + 1])
            for j in range(k_min * n + 1, k_max * n)}
