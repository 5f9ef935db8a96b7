"""Random walk on the integers with equidistant multiple-function barriers.

Closed-form expected arrivals, reach probabilities, absorption-mass
distribution and mean absorption times, each verified against three
oracles: the truncated occupancy solve, the exact periodic mean-time solve
and a seeded Monte-Carlo simulator.
"""

from .absorption_engine import (
    AbsorptionTimes,
    absorption_times,
    display_time_to_barrier,
    has_barrier_split,
    mean_time_any,
    mean_time_period,
    mean_time_to_barrier,
)
from .errors import (
    BalancedUnsupported,
    ExcessCensoring,
    RejectedParameter,
    SingularSystem,
    StartNotBarrier,
    TruncationInsufficient,
)
from .visit_engine import (
    VisitProfile,
    absorption_mass,
    barrier_recurrence_residual,
    barrier_visits,
    boundary_coefficients,
    display_barrier_visits,
    occupancy_residual,
    occupancy_residuals,
    reach_probability,
    site_visits,
    total_absorption,
    visit_profile,
)
from .walk_model import (
    BALANCE_EPS,
    BarrierSpectrum,
    Branch,
    WalkModel,
    barrier_spectrum,
    load_model,
    make_model,
    model_from_json,
    reanchored,
    validate_model,
)

__version__ = "0.1.0"

# re-exported from the oracle module, which loads numpy, at their first use
_ORACLE_NAMES = frozenset({
    "EmpiricalStats",
    "TruncatedVisits",
    "default_truncation",
    "periodic_mean_times",
    "simulate",
    "truncated_visit_derivatives",
    "truncated_visits",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
