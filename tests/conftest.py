import numpy as np
import pytest
from hypothesis import strategies as st

from mfbwalk import make_model

# the two reference configurations used throughout
CFG_SYM = dict(p=0.5, q=0.5, r=0.0, p0=0.25, q0=0.25, r0=0.25, s0=0.25,
               N=2, i0=0)
CFG_DRIFT = dict(p=0.4, q=0.2, r=0.4, p0=0.2, q0=0.2, r0=0.4, s0=0.2,
                 N=2, i0=0)


# rho in {4, 1/4} at N = 600: N |log rho| = 832, so every power of
# max(rho, 1/rho) overflows a double
EDGE_MODELS = [dict(p=p, q=q, p0=0.3, q0=0.3, s0=0.2, N=600, i0=i0)
               for p, q in ((0.4, 0.1), (0.1, 0.4)) for i0 in (0, 1, 300, 599)]
# the other edges of the overflow-free frame: a root within 4e-6 of one
# (tiny s0) and |p - q| = 1e-7
EXTREME_MODELS = EDGE_MODELS + [
    dict(p=0.3, q=0.25, p0=p0, q0=q0, s0=1e-7, N=10, i0=i0)
    for p0, q0 in ((0.3, 0.3), (0.2, 0.35)) for i0 in (0, 3)
] + [dict(p=0.30000005, q=0.29999995, p0=0.2, q0=0.3, s0=0.1, N=6, i0=i0)
     for i0 in (0, 2)]
# models whose mean times lie beyond the float range: p = q = 1.05e-299 at
# s0 = 9.44e-9, and a subnormal s0, whose total absorption is still one; the
# last has q0 = p0 rho^(N-1) in its frame, so its per-barrier terms overflow
# as well
FLOAT_RANGE_MODELS = [
    dict(p=1.05e-299, q=1.05e-299, p0=0.000463, q0=0.296, s0=9.44e-9, N=135,
         i0=65),
    dict(p=0.3, q=0.25, p0=0.3, q0=0.3, s0=1e-310, N=10, i0=0),
    dict(p=0.2, q=0.4, p0=0.4, q0=0.2, s0=1e-310, N=2, i0=0),
]


@pytest.fixture(scope="session")
def cfg_sym():
    return make_model(**CFG_SYM)


@pytest.fixture(scope="session")
def cfg_drift():
    return make_model(**CFG_DRIFT)


def random_model(rng: np.random.Generator, branch: str = "DRIFT",
                 N: int | None = None, i0: int | None = None,
                 pq_floor: float = 0.05, min_gap: float = 0.05):
    """Deterministic random valid model, kept away from the edges of the
    parameter space so truncations and tolerances stay desk scale.

    ``pq_floor`` bounds p and q from below; ``min_gap`` bounds |rho - 1|
    from below on the drift branch (tighter values give well-conditioned
    spectra for finite-difference checks)."""
    n = int(rng.integers(2, 6)) if N is None else N
    start = int(rng.integers(0, n)) if i0 is None else i0
    while True:
        p = rng.uniform(pq_floor, 0.45)
        q = p if branch == "BALANCED" else rng.uniform(pq_floor, 0.45)
        if branch == "DRIFT" and abs(p / q - 1.0) < min_gap:
            continue
        p0 = rng.uniform(0.05, 0.45)
        q0 = rng.uniform(0.05, 0.45)
        s0 = rng.uniform(0.08, 0.4)
        if p0 + q0 + s0 > 0.98:
            continue
        return make_model(p=p, q=q, p0=p0, q0=q0, s0=s0, N=n, i0=start)


def mirror(model):
    """The reflection j -> N [i0 != 0] - j of a walk, as a model of its own."""
    return make_model(p=model.q, q=model.p, p0=model.q0, q0=model.p0,
                      s0=model.s0, N=model.N, i0=-model.i0 % model.N)


@st.composite
def model_strategy(draw, branch=None):
    """Valid models away from the near-balance drift zone, where the drift
    closed forms intrinsically lose precision."""
    n = draw(st.integers(2, 5))
    i0 = draw(st.integers(0, n - 1))
    p = draw(st.floats(0.05, 0.45))
    if branch == "BALANCED":
        q = p
    else:
        q = draw(st.floats(0.05, 0.45))
        if abs(p / q - 1.0) < 0.05:
            q = q * 1.2 + 0.01 if branch == "DRIFT" else p
    p0 = draw(st.floats(0.05, 0.4))
    q0 = draw(st.floats(0.05, 0.4))
    s0 = draw(st.floats(0.08, 0.4))
    total = p0 + q0 + s0
    if total > 0.98:
        p0, q0, s0 = (x * 0.98 / total for x in (p0, q0, s0))
    return make_model(p=p, q=q, p0=p0, q0=q0, s0=s0, N=n, i0=i0)


def query_models():
    """``model_strategy`` draws, their mirror images and the extreme models."""
    return st.one_of(model_strategy(), model_strategy().map(mirror),
                     st.sampled_from(EXTREME_MODELS).map(lambda d: make_model(**d)))
