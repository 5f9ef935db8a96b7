"""Model parameters and spectral quantities for the barrier walk.

The walk lives on the integers.  Interior sites step forward with
probability ``p``, backward with ``q`` and hold with ``r = 1 - p - q``.
Every multiple of ``N`` carries a multiple-function barrier that lets the
walker through with ``p0``, reflects with ``q0``, holds with ``r0`` and
absorbs with ``s0``.  The walk starts at ``i0`` with ``0 <= i0 < N``.

Everything downstream is driven by two quadratics, both taken at z = 1,
the only point at which the library evaluates its generating functions:

* the interior characteristic equation ``q L^2 - (1 - r) L + p = 0``, whose
  roots ``lambda1 = max(1, rho)`` and ``lambda2 = min(1, rho)`` with
  ``rho = p / q`` are known exactly, and
* the barrier-level recurrence quadratic whose roots ``xi1 > 1 > xi2 > 0``
  govern the geometric decay of barrier visits away from the start.

The z-derivatives at z = 1 that the per-barrier times need are written out
in closed form in :mod:`mfbwalk.absorption_engine`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import RejectedParameter

# |p - q| below this is treated as the balanced (driftless) case: the
# drift-branch closed forms divide by 1 - rho and lose all precision there,
# while the two branches agree in the limit.
BALANCE_EPS = 1e-9

# absolute tolerance on the sum-to-one constraints; inside it the residual
# is folded into the hold probability, outside it the input is rejected
SUM_TOL = 1e-12

_FIELD_ORDER = ("p", "q", "r", "p0", "q0", "r0", "s0", "N", "i0")


class Branch(enum.Enum):
    DRIFT = "DRIFT"          # rho != 1
    BALANCED = "BALANCED"    # rho == 1 (within BALANCE_EPS on |p - q|)


@dataclass(frozen=True)
class WalkModel:
    """Validated parameter bundle.  Construct via :func:`validate_model`."""

    p: float
    q: float
    r: float
    p0: float
    q0: float
    r0: float
    s0: float
    N: int
    i0: int

    @property
    def rho(self) -> float:
        """Drift ratio p / q."""
        return self.p / self.q

    @property
    def branch(self) -> Branch:
        return Branch.BALANCED if abs(self.p - self.q) < BALANCE_EPS else Branch.DRIFT

    def to_dict(self) -> dict:
        """Canonical JSON-ready mapping with fixed field order."""
        d = {name: getattr(self, name) for name in _FIELD_ORDER}
        d["N"] = int(self.N)
        d["i0"] = int(self.i0)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RejectedParameter(message)


def validate_model(raw: Mapping) -> WalkModel:
    """Validate a parameter bundle and return an immutable :class:`WalkModel`.

    ``raw`` must contain p, q, p0, q0, s0, N, i0; r and r0 may be omitted,
    in which case they are filled from the sum-to-one constraints.  Supplied
    hold probabilities are accepted only if the corresponding sum is within
    ``SUM_TOL`` of one, and the residual is then absorbed into the hold term
    so the stored model sums to one exactly.

    Raises :class:`RejectedParameter` naming the violated constraint.
    Near-balanced inputs are not an error: they are tagged BALANCED.
    """
    unknown = set(raw) - set(_FIELD_ORDER)
    _require(not unknown, f"unknown parameter(s): {sorted(unknown)}")
    missing = {k for k in _FIELD_ORDER if k not in raw and k not in ("r", "r0")}
    _require(not missing, f"missing parameter(s): {sorted(missing)}")

    try:
        p, q = float(raw["p"]), float(raw["q"])
        p0, q0, s0 = float(raw["p0"]), float(raw["q0"]), float(raw["s0"])
        N, i0 = int(raw["N"]), int(raw["i0"])
    except (TypeError, ValueError) as exc:
        raise RejectedParameter(f"non-numeric parameter: {exc}") from exc
    _require(float(raw.get("N", N)) == N, f"N must be an integer (got {raw['N']})")
    _require(float(raw.get("i0", i0)) == i0, f"i0 must be an integer (got {raw['i0']})")

    _require(p > 0.0, f"p must be > 0 (got {p})")
    _require(q > 0.0, f"q must be > 0 (got {q})")
    _require(p + q <= 1.0 + SUM_TOL, f"p + q must be <= 1 (got {p + q})")
    if "r" in raw and raw["r"] is not None:
        r = float(raw["r"])
        _require(abs(p + q + r - 1.0) <= SUM_TOL,
                 f"p + q + r must equal 1 (got {p + q + r})")
    r = 1.0 - p - q
    if r < 0.0:  # only possible within SUM_TOL
        r = 0.0

    _require(p0 > 0.0, f"p0 must be > 0 (got {p0})")
    _require(q0 > 0.0, f"q0 must be > 0 (got {q0})")
    _require(s0 > 0.0, f"s0 must be > 0 (got {s0})")
    _require(p0 + q0 + s0 <= 1.0 + SUM_TOL,
             f"p0 + q0 + s0 must be <= 1 (got {p0 + q0 + s0})")
    if "r0" in raw and raw["r0"] is not None:
        r0 = float(raw["r0"])
        _require(abs(p0 + q0 + r0 + s0 - 1.0) <= SUM_TOL,
                 f"p0 + q0 + r0 + s0 must equal 1 (got {p0 + q0 + r0 + s0})")
    r0 = 1.0 - p0 - q0 - s0
    if r0 < 0.0:
        r0 = 0.0

    _require(N >= 2, f"N must be an integer >= 2 (got {N})")
    _require(0 <= i0 < N, f"i0 must satisfy 0 <= i0 < N (got {i0})")

    return WalkModel(p=p, q=q, r=r, p0=p0, q0=q0, r0=r0, s0=s0, N=N, i0=i0)


def make_model(**kwargs) -> WalkModel:
    """Keyword-argument convenience wrapper around :func:`validate_model`."""
    return validate_model(kwargs)


def model_from_json(text: str) -> WalkModel:
    return validate_model(json.loads(text))


def load_model(path) -> WalkModel:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_model(json.load(fh))


def reanchored(model: WalkModel, i0: int) -> WalkModel:
    """Same walk with a different start site (0 <= i0 < N)."""
    d = model.to_dict()
    d["i0"] = i0
    return validate_model(d)


# ---------------------------------------------------------------------------
# barrier-level spectrum

@dataclass(frozen=True)
class BarrierSpectrum:
    """Interior roots, coefficients and roots of the barrier-level recurrence.

    ``lambda1`` and ``lambda2`` are the interior roots at z = 1,
    ``max(1, rho)`` and ``min(1, rho)``; both are 1 for a balanced walk.
    On the drift branch the recurrence quadratic is
    ``q0 xi^2 + (omega0 / |1 - rho|) xi + p0 rho^(N-1) = 0`` with

        omega0 = (lambda2^N - lambda1^N)(1 - r0)
                 + (lambda1^(N-1) - lambda2^(N-1))(rho q0 + p0),

    and on the balanced branch ``q0 xi^2 + psi0 xi + p0 = 0`` with
    ``psi0 = -(p0 + q0 + N s0)`` (the limit of ``omega0 / |1 - rho|``).
    Both quadratics are of saddle type: ``xi1 > 1 > xi2 > 0`` always, which
    is what makes the barrier visit counts decay geometrically both ways.

    ``Omega`` is the reciprocal square root of
    ``b^2 - 4 a c`` scaled back to the omega0 normalization, i.e.
    ``[omega0^2 - 4 p0 q0 (1 - rho)^2 rho^(N-1)]^(-1/2)`` on the drift
    branch and ``[psi0^2 - 4 p0 q0]^(-1/2)`` on the balanced branch.
    ``alpha = r (1 - r) + 4 p q`` feeds the z-derivatives at z = 1.
    """

    model: WalkModel
    lambda1: float
    lambda2: float
    omega0: float
    psi0: float
    xi1: float
    xi2: float
    Omega: float
    alpha: float

    def quadratic_coeffs(self) -> tuple[float, float, float]:
        """(a, b, c) of the recurrence quadratic a xi^2 + b xi + c = 0."""
        m = self.model
        if m.branch is Branch.BALANCED:
            return m.q0, self.psi0, m.p0
        return m.q0, self.omega0 / abs(1.0 - m.rho), m.p0 * m.rho ** (m.N - 1)


def _stable_roots(a: float, b: float, c: float) -> tuple[float, float]:
    # b < 0 for every valid model, so the larger root takes the additive
    # branch and the smaller one comes from the product of roots
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:  # pragma: no cover - the quadratic is saddle type
        raise ArithmeticError(
            f"barrier recurrence quadratic has no real root pair: a={a} b={b} c={c}")
    big = (-b + math.sqrt(disc)) / (2.0 * a)
    return big, c / (a * big)


@lru_cache(maxsize=512)
def barrier_spectrum(model: WalkModel) -> BarrierSpectrum:
    """Interior roots and barrier-level recurrence data for a validated model.

    Root residuals are below 1e-12 by construction (stable quadratic
    formula); the ordering ``xi1 > 1 > xi2 > 0`` is guaranteed because the
    quadratic is negative at xi = 1 for every admissible parameter set.
    """
    m = model
    alpha = m.r * (1.0 - m.r) + 4.0 * m.p * m.q
    psi0 = -(m.p0 + m.q0 + m.N * m.s0)
    if m.branch is Branch.BALANCED:
        xi1, xi2 = _stable_roots(m.q0, psi0, m.p0)
        Omega = 1.0 / math.sqrt(psi0 * psi0 - 4.0 * m.p0 * m.q0)
        return BarrierSpectrum(model=m, lambda1=1.0, lambda2=1.0, omega0=0.0, psi0=psi0,
                               xi1=xi1, xi2=xi2, Omega=Omega, alpha=alpha)
    n, rho = m.N, m.rho
    l1, l2 = max(1.0, rho), min(1.0, rho)
    omega0 = ((l2 ** n - l1 ** n) * (1.0 - m.r0)
              + (l1 ** (n - 1) - l2 ** (n - 1)) * (rho * m.q0 + m.p0))
    xi1, xi2 = _stable_roots(m.q0, omega0 / abs(1.0 - rho), m.p0 * rho ** (n - 1))
    disc = omega0 * omega0 - 4.0 * m.p0 * m.q0 * (1.0 - rho) ** 2 * rho ** (n - 1)
    Omega = 1.0 / math.sqrt(disc)
    return BarrierSpectrum(model=m, lambda1=l1, lambda2=l2, omega0=omega0,
                           psi0=psi0, xi1=xi1, xi2=xi2, Omega=Omega, alpha=alpha)
