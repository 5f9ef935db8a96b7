"""Expected number of arrivals at every site, absorption masses and reach
probabilities, in closed form.

Barrier visits satisfy a second-order linear recurrence over the barrier
index k whose characteristic roots ``xi1 > 1 > xi2 > 0`` live in
:mod:`mfbwalk.walk_model`.  The visit counts are

    x_{kN} = C1 * xi1^k   (k <= 0)        x_{kN} = K2 * xi2^k   (k >= 1)

and the two constants come from the boundary instances of the recurrence at
k = 0 and k = 1, a plain 2x2 linear system.  That boundary-system path is
the only one the library evaluates.  The same solution also has a compact
algebraic display form, :func:`display_barrier_visits`; ``verify`` compares
the two once per model (they are algebraically identical, so a disagreement
indicates a numerical pathology).

Interior sites are interpolated between their bracketing barriers by the
drift-branch power profile in ``rho^n`` or the balanced linear profile, with
an extra source contribution inside the start interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .walk_model import Branch, WalkModel, barrier_spectrum, reanchored

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
]


@dataclass(frozen=True)
class VisitProfile:
    """Expected arrivals over a window of barriers.

    ``values[j]`` holds x_j for every site between the window's outer
    barriers; ``barrier_coeff_left`` / ``barrier_coeff_right`` are the
    recurrence constants C1 and K2, so values outside the window follow as
    ``C1 * xi1^k`` and ``K2 * xi2^k`` without storing them.
    """

    model: WalkModel
    barrier_coeff_left: float
    barrier_coeff_right: float
    window: tuple[int, int]
    values: dict[int, float]


@lru_cache(maxsize=512)
def boundary_coefficients(model: WalkModel) -> tuple[float, float]:
    """Recurrence constants (C1, K2) from the k = 0, 1 boundary system.

    The system is ``-C1 xi1 + K2 xi2 = R1`` and ``C1 - K2 = R2`` where the
    right-hand sides carry the start-site source:

    * drift branch:  R1 = (q zeta / q0)(lambda2^(N-i0) - lambda1^(N-i0)),
      R2 = (p zeta / p0)(lambda1^(-i0) - lambda2^(-i0)), zeta = 1 / |p - q|;
    * balanced branch:  R1 = (i0 - N) / q0,  R2 = -i0 / p0.
    """
    m = model
    spectrum = barrier_spectrum(m)
    if m.branch is Branch.BALANCED:
        r1 = (m.i0 - m.N) / m.q0
        r2 = -m.i0 / m.p0
    else:
        l1, l2, zeta = spectrum.lambda1, spectrum.lambda2, 1.0 / abs(m.p - m.q)
        r1 = (m.q * zeta / m.q0) * (l2 ** (m.N - m.i0) - l1 ** (m.N - m.i0))
        r2 = (m.p * zeta / m.p0) * (l1 ** (-m.i0) - l2 ** (-m.i0))
    gap = spectrum.xi1 - spectrum.xi2
    c1 = -(r1 + r2 * spectrum.xi2) / gap
    k2 = -(r1 + r2 * spectrum.xi1) / gap
    return c1, k2


def display_barrier_visits(model: WalkModel, k: int) -> float:
    """Verbatim display-form evaluation of x_{kN} (diagnostic path)."""
    m = model
    spectrum = barrier_spectrum(m)
    if m.branch is Branch.BALANCED:
        # bracket uses the opposite root from the decay direction
        inner = spectrum.xi2 if k <= 0 else spectrum.xi1
        decay = spectrum.xi1 if k <= 0 else spectrum.xi2
        bracket = m.i0 * m.q0 * inner / m.p0 + m.N - m.i0
        return bracket * decay ** k * spectrum.Omega
    l1, l2, rho = spectrum.lambda1, spectrum.lambda2, m.rho
    xi = spectrum.xi1 if k <= 0 else spectrum.xi2
    bracket = ((l1 ** (m.N - m.i0) - l2 ** (m.N - m.i0)) * xi
               + rho ** m.N * (l2 ** (-m.i0) - l1 ** (-m.i0)))
    return bracket * spectrum.Omega * xi ** (k - 1)


def barrier_visits(model: WalkModel, k: int) -> float:
    """Expected number of arrivals at barrier site k*N before absorption."""
    spectrum = barrier_spectrum(model)
    c1, k2 = boundary_coefficients(model)
    return c1 * spectrum.xi1 ** k if k <= 0 else k2 * spectrum.xi2 ** k


def absorption_mass(model: WalkModel, k: int) -> float:
    """Probability that the walk is absorbed at barrier k*N."""
    return model.s0 * barrier_visits(model, k)


def total_absorption(model: WalkModel) -> float:
    """Total absorption probability via the two closed geometric sums.

    Sums s0 * x_{kN} over all k: ratio 1/xi1 on the left tail and xi2 on
    the right.  Equals one for every valid model.
    """
    spectrum = barrier_spectrum(model)
    c1, k2 = boundary_coefficients(model)
    left = c1 * spectrum.xi1 / (spectrum.xi1 - 1.0)
    right = k2 * spectrum.xi2 / (1.0 - spectrum.xi2)
    return model.s0 * (left + right)


def site_visits(model: WalkModel, j: int) -> float:
    """Expected number of arrivals at an arbitrary site j.

    Barrier sites delegate to :func:`barrier_visits`.  An interior site
    j = kN + n (0 < n < N) interpolates between x_{kN} and x_{(k+1)N}; the
    interval containing the start picks up a source contribution with two
    sub-branches meeting at n = i0.
    """
    m = model
    k, n = divmod(j, m.N)
    if n == 0:
        return barrier_visits(m, k)
    xk = barrier_visits(m, k)
    xk1 = barrier_visits(m, k + 1)
    if m.branch is Branch.BALANCED:
        value = m.q0 * n * xk1 + m.p0 * (m.N - n) * xk
        if k == 0:
            value += n * (m.N - m.i0) if n <= m.i0 else m.i0 * (m.N - n)
        return value / (m.p * m.N)
    rho = m.rho
    value = (m.p0 / m.p) * (rho ** n - rho ** m.N) * xk \
        + (m.q0 / m.q) * (1.0 - rho ** n) * xk1
    if k == 0:
        if n <= m.i0:
            value += (1.0 - rho ** n) * (rho ** (m.N - m.i0) - 1.0) / (m.p - m.q)
        else:
            value += (rho ** n - rho ** m.N) * (1.0 - rho ** (-m.i0)) / (m.p - m.q)
    return value / (1.0 - rho ** m.N)


def reach_probability(model: WalkModel, i: int, j: int) -> float:
    """Probability of ever reaching site j when starting from site i.

    Uses f_ij = x_ij / x_jj for i != j and f_ii = 1 - 1/x_ii, where x_ij is
    the expected number of arrivals at j for a walk started at i.  Starts
    are re-anchored into [0, N) by shifting both indices a whole number of
    periods; the barrier lattice is invariant under that shift.
    """
    def arrivals(start: int, target: int) -> float:
        shift = (start // model.N) * model.N
        return site_visits(reanchored(model, start - shift), target - shift)

    if i == j:
        return 1.0 - 1.0 / arrivals(i, i)
    return arrivals(i, j) / arrivals(j, j)


def visit_profile(model: WalkModel, k_min: int = -3, k_max: int = 3) -> VisitProfile:
    """Materialize x_j for every site between barriers k_min and k_max."""
    if k_min > k_max:
        raise ValueError(f"empty barrier window ({k_min}, {k_max})")
    c1, k2 = boundary_coefficients(model)
    values = {j: site_visits(model, j)
              for j in range(k_min * model.N, k_max * model.N + 1)}
    return VisitProfile(model=model, barrier_coeff_left=c1,
                        barrier_coeff_right=k2, window=(k_min, k_max),
                        values=values)


# ---------------------------------------------------------------------------
# residual checks used by tests and the verify battery

def barrier_recurrence_residual(model: WalkModel, k: int) -> float:
    """Residual of the barrier-level difference equation at index k.

    Zero (to rounding) for every k when the closed form is correct.  The
    k = 0 and k = 1 instances carry the start-site source on the right-hand
    side; all others are homogeneous.
    """
    m = model
    spectrum = barrier_spectrum(m)
    xm, x0, xp = (barrier_visits(m, k - 1), barrier_visits(m, k),
                  barrier_visits(m, k + 1))
    if m.branch is Branch.BALANCED:
        lhs = m.q0 * xp + spectrum.psi0 * x0 + m.p0 * xm
        rhs = 0.0
        if k == 0:
            rhs = m.i0 - m.N
        elif k == 1:
            rhs = -m.i0
        return lhs - rhs
    l1, l2, rho = spectrum.lambda1, spectrum.lambda2, m.rho
    scale = abs(1.0 - rho)
    lhs = m.q0 * xp + (spectrum.omega0 / scale) * x0 + m.p0 * rho ** (m.N - 1) * xm
    rhs = 0.0
    if k == 0:
        rhs = (l2 ** (m.N - m.i0) - l1 ** (m.N - m.i0)) / scale
    elif k == 1:
        rhs = rho ** m.N * (l1 ** (-m.i0) - l2 ** (-m.i0)) / scale
    return lhs - rhs


def occupancy_residual(model: WalkModel, j: int) -> float:
    """Residual of the single-site occupancy balance at site j.

    Arrivals at j must equal inflow from both neighbours plus holding plus
    the time-zero source:  (1 - hold_j) x_j = fwd_{j-1} x_{j-1}
    + back_{j+1} x_{j+1} + [j == i0], with barrier coefficients wherever a
    neighbour (or j itself) is a barrier.
    """
    m = model
    hold = m.r0 if j % m.N == 0 else m.r
    from_left = m.p0 if (j - 1) % m.N == 0 else m.p
    from_right = m.q0 if (j + 1) % m.N == 0 else m.q
    lhs = (1.0 - hold) * site_visits(m, j)
    rhs = (from_left * site_visits(m, j - 1)
           + from_right * site_visits(m, j + 1)
           + (1.0 if j == m.i0 else 0.0))
    return lhs - rhs
