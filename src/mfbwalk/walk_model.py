"""Model parameters and spectral quantities for the barrier walk.

The walk lives on the integers.  Interior sites step forward with
probability ``p``, backward with ``q`` and hold with ``r = 1 - p - q``.
Every multiple of ``N`` carries a multiple-function barrier that lets the
walker through with ``p0``, reflects with ``q0``, holds with ``r0`` and
absorbs with ``s0``.  The walk starts at ``i0`` with ``0 <= i0 < N``.

Everything downstream is driven by the barrier-level recurrence at z = 1,
the only point at which the library evaluates its generating functions.
:func:`barrier_spectrum` solves it in the model's ``rho = p / q <= 1``
frame (a walk with p > q is reflected), where the interior roots are 1 and
rho and one q-integer form, free of overflow, serves drift and balance.

The per-barrier times, z-derivatives at z = 1, are taken in closed form
from the chain of barrier passages in :mod:`mfbwalk.absorption_engine`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

from .errors import RejectedParameter

# |p - q| below this tags a model BALANCED.  The visit forms do not read the
# tag; it marks where the per-barrier times are refused.
BALANCE_EPS = 1e-9

# absolute tolerance on the sum-to-one constraints; inside it the residual
# is folded into the hold probability, outside it the input is rejected
SUM_TOL = 1e-12

# below this |log rho| rho^n is exp(n log rho), since p / q rounds away the
# digits of 1 - rho; above it rho ** n (chosen by a 50-digit sweep)
POWER_CUT = 0.05

# the most sites any one request may hold: a truncated lattice (2KN + 1
# sites), a simulation's window or the rows of a CLI report; at s0 = 1e-7
# the default truncation would ask for about 1e8 sites
MAX_SITES = 2_000_000

_FIELD_ORDER = ("p", "q", "r", "p0", "q0", "r0", "s0", "N", "i0")


class Branch(enum.Enum):
    DRIFT = "DRIFT"          # rho != 1
    BALANCED = "BALANCED"    # rho == 1 (within BALANCE_EPS on |p - q|)


def has_barrier_split(model: WalkModel) -> bool:
    """Whether per-barrier mean times are served: a drift walk started on a
    barrier.  The closed form and the oracle battery both follow this rule."""
    return model.i0 == 0 and model.branch is Branch.DRIFT


@dataclass(frozen=True)
class WalkModel:
    """Validated parameter bundle.  Construct via :func:`validate_model`.

    A model keys every per-model cache, so its hash (the dataclass's hash
    of the field tuple) is computed once, at its first use, and stored
    outside the fields; a pickle carries the fields only, so a model
    unpickled elsewhere hashes afresh.
    """

    p: float
    q: float
    r: float
    p0: float
    q0: float
    r0: float
    s0: float
    N: int
    i0: int

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the first hash of this model
            value = hash((self.p, self.q, self.r, self.p0, self.q0, self.r0,
                          self.s0, self.N, self.i0))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        return WalkModel, tuple(getattr(self, name) for name in _FIELD_ORDER)

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


def _require(cond: bool, message: str, *args) -> None:
    """Raise :class:`RejectedParameter` unless ``cond``; ``message`` is a
    ``str.format`` template, filled from ``args`` only on failure."""
    if not cond:
        raise RejectedParameter(message.format(*args))


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
    _require(not unknown, "unknown parameter(s): {}", sorted(unknown))
    missing = {k for k in _FIELD_ORDER if k not in raw and k not in ("r", "r0")}
    _require(not missing, "missing parameter(s): {}", sorted(missing))

    try:
        p, q = float(raw["p"]), float(raw["q"])
        p0, q0, s0 = float(raw["p0"]), float(raw["q0"]), float(raw["s0"])
        N, i0 = int(raw["N"]), int(raw["i0"])
    except (TypeError, ValueError) as exc:
        raise RejectedParameter(f"non-numeric parameter: {exc}") from exc
    _require(float(raw.get("N", N)) == N, "N must be an integer (got {})", raw["N"])
    _require(float(raw.get("i0", i0)) == i0, "i0 must be an integer (got {})", raw["i0"])

    _require(p > 0.0, "p must be > 0 (got {})", p)
    _require(q > 0.0, "q must be > 0 (got {})", q)
    _require(p + q <= 1.0 + SUM_TOL, "p + q must be <= 1 (got {})", p + q)
    if "r" in raw and raw["r"] is not None:
        r = float(raw["r"])
        _require(abs(p + q + r - 1.0) <= SUM_TOL,
                 "p + q + r must equal 1 (got {})", p + q + r)
    r = 1.0 - p - q
    if r < 0.0:  # only possible within SUM_TOL
        r = 0.0

    _require(p0 > 0.0, "p0 must be > 0 (got {})", p0)
    _require(q0 > 0.0, "q0 must be > 0 (got {})", q0)
    _require(s0 > 0.0, "s0 must be > 0 (got {})", s0)
    _require(p0 + q0 + s0 <= 1.0 + SUM_TOL,
             "p0 + q0 + s0 must be <= 1 (got {})", p0 + q0 + s0)
    if "r0" in raw and raw["r0"] is not None:
        r0 = float(raw["r0"])
        _require(abs(p0 + q0 + r0 + s0 - 1.0) <= SUM_TOL,
                 "p0 + q0 + r0 + s0 must equal 1 (got {})", p0 + q0 + r0 + s0)
    r0 = 1.0 - p0 - q0 - s0
    if r0 < 0.0:
        r0 = 0.0

    _require(N >= 2, "N must be an integer >= 2 (got {})", N)
    _require(0 <= i0 < N, "i0 must satisfy 0 <= i0 < N (got {})", i0)

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
    """Same walk with a different start site; only the start is checked."""
    _require(0 <= i0 < model.N, "i0 must satisfy 0 <= i0 < N (got {})", i0)
    return replace(model, i0=int(i0))


# ---------------------------------------------------------------------------
# barrier-level spectrum

@dataclass(frozen=True)
class BarrierSpectrum:
    """The barrier-level recurrence of a model, in its rho <= 1 frame.

    The reflection j -> N [i0 != 0] - j maps a walk with p > q onto the
    walk ``(q, p, q0, p0, (-i0) mod N)``; a walk with p <= q is its own
    frame.  ``mirrored`` says which, :meth:`frame_site` carries a site into
    the frame, and ``p, q, p0, q0, i0, rho = p / q`` are the frame's.  The
    drift enters the closed forms only from here: ``log_rho =
    -log1p((q - p) / p)``, ``q - p`` exact near balance (``log p - log q``
    where ``(q - p) / p`` overflows), ``x_per_drift = -log_rho / (q - p)``
    (1 / p at rho = 1) and :meth:`pow`.  The closed forms use the
    q-integers ``[n] = (1 - rho^n) / (1 - rho)`` (:meth:`qint`, over the
    stored denominator ``qden = expm1(log_rho)``; ``[n] = n`` at rho = 1,
    and ``qn = [N]``), so they hold no power above one and no division by
    ``1 - rho``.

    Away from the start the barrier visits obey
    ``q0 x_{k+1} + psi0 x_k + p0 rho^(N-1) x_{k-1} = 0`` with
    ``psi0 = -(q0 + p0 rho^(N-1) + s0 [N])``, i.e. ``-(p0 + q0 + N s0)`` at
    rho = 1; its roots are of saddle type, ``xi1 > 1 > xi2 >= 0``.  They
    are solved for in ``t = xi - 1``, where nothing cancels, so the gaps
    ``gap1 = xi1 - 1`` and ``gap2 = 1 - xi2`` keep full relative precision.
    ``Omega = [psi0^2 - 4 p0 q0 rho^(N-1)]^(-1/2)`` feeds the display forms
    and the per-barrier times.
    """

    model: WalkModel
    mirrored: bool
    p: float
    q: float
    p0: float
    q0: float
    i0: int
    rho: float
    log_rho: float
    x_per_drift: float
    qden: float
    qn: float
    psi0: float
    xi1: float
    xi2: float
    gap1: float
    gap2: float
    Omega: float

    def qint(self, n: int) -> float:
        """The q-integer [n] = expm1(n log rho) / expm1(log rho) of the
        frame, n at rho = 1: within 3.2e-16 relative of a 50-digit value of
        the model's own p and q for |log rho| from 1e-15 to 5 and n up to
        2000."""
        log_rho = self.log_rho
        return float(n) if log_rho == 0.0 else math.expm1(n * log_rho) / self.qden

    def qints(self, n: int) -> list[float]:
        """[0], [1], ..., [n]: :meth:`qint` of each, in one pass."""
        log_rho, qden = self.log_rho, self.qden
        if log_rho == 0.0:
            return [float(i) for i in range(n + 1)]
        return [math.expm1(i * log_rho) / qden for i in range(n + 1)]

    def pow(self, n: int) -> float:
        """rho^n, by the one power rule of the closed forms."""
        return _power(self.rho, self.log_rho, n)

    def pows(self, n: int) -> list[float]:
        """rho^0, rho^1, ..., rho^n: :meth:`pow` of each, in one pass."""
        rho, log_rho = self.rho, self.log_rho
        if log_rho > -POWER_CUT:
            return [math.exp(i * log_rho) for i in range(n + 1)]
        return [rho ** i for i in range(n + 1)]

    def frame_site(self, j: int) -> int:
        """The site of the frame that holds site j of the model."""
        return (self.model.N if self.model.i0 else 0) - j if self.mirrored else j

    def quadratic_coeffs(self) -> tuple[float, float, float]:
        """(a, b, c) of the recurrence quadratic a xi^2 + b xi + c = 0."""
        return self.q0, self.psi0, self.p0 * self.pow(self.model.N - 1)


def _power(rho: float, log_rho: float, n: int) -> float:
    """rho^n of a frame, by the rule of :data:`POWER_CUT`."""
    return math.exp(n * log_rho) if log_rho > -POWER_CUT else rho ** n


@lru_cache(maxsize=512)
def barrier_spectrum(model: WalkModel) -> BarrierSpectrum:
    """The rho <= 1 frame of a validated model and its recurrence roots."""
    m = model
    mirrored = m.p > m.q
    if mirrored:
        p, q, p0, q0, i0 = m.q, m.p, m.q0, m.p0, -m.i0 % m.N
    else:
        p, q, p0, q0, i0 = m.p, m.q, m.p0, m.q0, m.i0
    rho = p / q
    drift = (q - p) / p
    log_rho = -(math.log1p(drift) if drift < math.inf
                else math.log(q) - math.log(p))
    qden = math.expm1(log_rho)
    c = p0 * _power(rho, log_rho, m.N - 1)
    qn = float(m.N) if log_rho == 0.0 else math.expm1(m.N * log_rho) / qden
    s = m.s0 * qn
    # q0 t^2 + b t - s = 0 has a root of each sign and a discriminant free of
    # cancellation; the larger root in magnitude takes the additive branch,
    # the other follows from the product, and so does xi2 = c / (q0 xi1)
    b = q0 - c - s
    root = math.sqrt(b * b + 4.0 * q0 * s)
    if b < 0.0:
        gap1 = (root - b) / (2.0 * q0)
        gap2 = s / (q0 * gap1)
    else:
        gap2 = (root + b) / (2.0 * q0)
        gap1 = s / (q0 * gap2)
    xi1 = 1.0 + gap1
    return BarrierSpectrum(
        model=m, mirrored=mirrored, p=p, q=q, p0=p0, q0=q0, i0=i0, rho=rho,
        log_rho=log_rho, x_per_drift=1.0 / p if p == q else -log_rho / (q - p),
        qden=qden, qn=qn, psi0=-(q0 + c + s),
        xi1=xi1, xi2=c / (q0 * xi1), gap1=gap1, gap2=gap2, Omega=1.0 / root)
