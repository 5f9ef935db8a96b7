"""Independent verification machinery.

Nothing in this module evaluates a closed form.  Three oracles live here:

* the truncated occupancy system (I - P^T) x = e_i0 at z = 1 and its exact
  z-derivative, two right-hand sides of one factored reduction,
* the exact periodic linear system for mean absorption times, one O(N)
  tridiagonal solve after eliminating the interior onto m_0, and
* a seeded, counter-based Monte-Carlo walker, which fills the live walks'
  rows of one buffer of uniforms in place and compares them with the step
  probabilities; its statistics are bit-identical for a given (seed, walks,
  step_cap) regardless of how the work is partitioned across workers.

Both linear systems are solved by one subtraction-free (GTH) cyclic
reduction in numpy, :class:`_Reduction`, which reads each system as its
rates: what every column sends to its two neighbours and what it loses.

Golden records are written, read and diffed here alone; their values are
what the tests and golden files freeze.
"""

from __future__ import annotations

import functools
import json
import math
import os
import warnings
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (ExcessCensoring, SingularSystem, TruncationInsufficient,
                     beyond_float_range)
from .walk_model import (MAX_SITES, WalkModel, barrier_spectrum,
                         has_barrier_split, validate_model)

__all__ = [
    "TruncatedVisits",
    "EmpiricalStats",
    "default_truncation",
    "truncated_visits",
    "truncated_visit_derivatives",
    "periodic_mean_times",
    "simulate",
    "Battery",
    "write_golden",
    "read_golden",
]

DEFAULT_TAIL_TOL = 1e-12

# barrier indices k of the per-barrier mean-time records and of the
# Monte-Carlo absorption-frequency records; verify checks the same sets
SPLIT_BARRIERS = range(-5, 6)
MC_BARRIERS = range(-2, 3)

# Monte-Carlo stream layout constants.  Walk w belongs to batch w // BATCH
# and reads row w % BATCH of each block: block b of batch j is the
# (rows, BLOCK) uniform draw of a Generator on Philox counter
# (j << 128) | (b << 64), and step t reads column t % BLOCK of block
# t // BLOCK.  Changing these changes every sampled walk.  The walker draws
# only the rows of live walks (``_live_draws``), which reads the same stream.
_BATCH = 8192
_BLOCK = 64
# dead rows between two live ones that a block draw reads through rather
# than skip: a skip costs about as much as drawing four rows
_BRIDGE = 4
# an absorbing move adds _PARK to the walk's position; live positions stay
# far below _PARK // 2
_PARK = 1 << 40
# positions recorded between two flushes, over all live walks: a batch
# flushes at least every _RECORD // walks steps, so that the record stays
# small beside the block of draws
_RECORD = 1 << 16


def _log_decay_rate(model: WalkModel) -> float:
    """log max(xi2, 1/xi1), the slower tail ratio, from the gaps of the
    rho <= 1 frame; xi2 may underflow to zero, and then 1/xi1 is slower."""
    spectrum = barrier_spectrum(model)
    if spectrum.xi2 * spectrum.xi1 <= 1.0:
        return -math.log1p(spectrum.gap1)
    if spectrum.xi2 < 0.5:
        return math.log(spectrum.xi2)
    return math.log1p(-spectrum.gap2)


def default_truncation(model: WalkModel) -> int:
    """Smallest barrier count K with tail bound below ``DEFAULT_TAIL_TOL``;
    ``TruncationInsufficient`` where the tail decays too slowly for any."""
    rate = _log_decay_rate(model)
    barriers = math.log(DEFAULT_TAIL_TOL) / rate
    if not math.isfinite(barriers):
        raise TruncationInsufficient(
            f"the tail decays by {rate:.3e} in log per barrier: no truncation "
            f"K reaches the tolerance {DEFAULT_TAIL_TOL:.3e}")
    return max(5, math.ceil(barriers)) + 5


# ---------------------------------------------------------------------------
# truncated occupancy solver

@dataclass(frozen=True)
class TruncatedVisits:
    """Expected arrivals x_j = X_j(1) on the truncated lattice (z = 1 only).

    Sites -K*N .. K*N are retained; the two fringe sites are exit sinks so
    that every walk either gets absorbed at a genuine barrier or leaks out.
    ``tv[j]`` approximates x_j with geometric tail error ``tail_bound``;
    the identity ``absorbed_mass + leak == 1`` holds to solver precision.
    The record owns the solution ``x`` over the lattice and the factored
    ``reduction`` that gave it, which :meth:`derivatives` solves again;
    neither is compared, hashed or shown.
    """

    model: WalkModel
    K: int
    tail_bound: float
    absorbed_mass: float
    leak: float
    x: np.ndarray = field(compare=False, repr=False)
    reduction: _Reduction = field(compare=False, repr=False)

    def __getitem__(self, site: int) -> float:
        """x at ``site``; ``TruncationInsufficient`` from the sinks ±K*N
        outward, where the lattice holds no visit count."""
        half = self.K * self.model.N
        if abs(site) >= half:
            raise TruncationInsufficient(
                f"site {site} is not inside the truncated lattice "
                f"(K={self.K}, |site| < {half})")
        return float(self.x[half + site])

    def sites(self, first: int, last: int) -> list[float]:
        """x at sites ``first..last``, in order, read as one slice; where
        the range reaches the sinks, the ``TruncationInsufficient`` of
        ``tv[site]`` at its first site that does."""
        half = self.K * self.model.N
        if first <= -half or last >= half:
            self[first if first <= -half else max(first, half)]
        return self.x[half + first:half + last + 1].tolist()

    @property
    def values(self) -> Mapping[int, float]:
        """x by site over the whole lattice, sinks included: a read-only
        mapping over the solved array."""
        return _LatticeView(self.K * self.model.N, self.x)

    def derivatives(self) -> Mapping[int, float]:
        """Exact dX_j/dz at z = 1 on the lattice, by site, sinks included:
        a read-only mapping over the solved array.

        Differentiating (I - z P^T) x(z) = e_i0 gives
        (I - P^T) x'(1) = P^T x(1), and P^T x(1) = x(1) - e_i0: a second
        right-hand side for the held reduction, no differencing.
        """
        rhs = self.x.copy()
        rhs[self.K * self.model.N + self.model.i0] -= 1.0
        return _LatticeView(self.K * self.model.N, self.reduction.solve(rhs))


class _LatticeView(Mapping):
    """Read-only ``{site: v[half + site]}`` over sites -half..half, in
    order; a site outside them is a missing key, never a wrapped index."""

    __slots__ = ("_half", "_v")

    def __init__(self, half: int, v: np.ndarray):
        self._half, self._v = half, v

    def __getitem__(self, site: int) -> float:
        try:
            if -self._half <= site <= self._half and site == int(site):
                return float(self._v[self._half + int(site)])
        except TypeError:  # not a number, as a dict's missing key
            pass
        raise KeyError(site)

    def __iter__(self):
        return iter(range(-self._half, self._half + 1))

    def __len__(self) -> int:
        return 2 * self._half + 1


def _truncation(model: WalkModel, K: int | None) -> tuple[int, float]:
    """K (default: :func:`default_truncation`) and its tail bound, after the
    size and tail guards that every truncated solve shares."""
    if K is None:
        K = default_truncation(model)
    if K < 3:
        raise ValueError(f"K must be >= 3 (got {K})")
    if 2 * K * model.N + 1 > MAX_SITES:
        raise TruncationInsufficient(
            f"K={K} needs {2 * K * model.N + 1} sites, above the budget of "
            f"{MAX_SITES}")
    tail = math.exp(K * _log_decay_rate(model))
    if tail > DEFAULT_TAIL_TOL:
        raise TruncationInsufficient(
            f"tail bound {tail:.3e} at K={K} exceeds the tolerance "
            f"{DEFAULT_TAIL_TOL:.3e}")
    return K, tail


def _lattice_rates(model: WalkModel,
                   K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The rates of I - P^T over sites -K*N .. K*N, as :class:`_Reduction`
    reads them: what site j steps forward (``fw``) and back (``bw``), and
    its deficit, what it loses: s0 on a barrier, 0 inside a period, and 1
    at the two fringe sinks, which step nowhere."""
    m = model
    half = K * m.N
    sites = np.arange(-half, half + 1)
    is_barrier = (sites % m.N) == 0
    fw = np.where(is_barrier, m.p0, m.p)
    bw = np.where(is_barrier, m.q0, m.q)
    deficit = np.where(is_barrier, m.s0, 0.0)
    fw[0] = bw[0] = fw[-1] = bw[-1] = 0.0
    deficit[0] = deficit[-1] = 1.0
    return fw, bw, deficit, half


class _Reduction:
    """Odd-even cyclic reduction of a tridiagonal M-matrix given by its
    rates, factored once; :meth:`solve` applies it to one right-hand side
    at a time.

    Column j sends ``back[j]`` to row j - 1 and ``forward[j]`` to row
    j + 1, and loses ``deficit[j]``: its diagonal is the sum of the three,
    never 1 - hold, which keeps few digits of a tiny p + q, and the column
    sums to its deficit.  The first column's ``back`` and the
    last column's ``forward`` leave the system, and count as those columns'
    losses.  Identity rows pad the matrix to 2**L - 1 rows, so that every
    level has an odd number of rows; a level eliminates its even rows onto
    the odd ones, down to one row.  Row i reads -a[i] x[i-1] + b[i] x[i] -
    c[i] x[i+1] with a, c >= 0, and column k sums to d[k] >= 0.  The pivots
    follow the GTH rule (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985):
    eliminating row e adds d[e] |M[e, k]| / b[e] to the sum of each
    neighbour column k, and a pivot is its column's sum plus its
    off-diagonal magnitudes.  No step subtracts, so for a nonnegative
    right-hand side each entry of x is accurate to a small multiple of the
    rounding unit, however ill-conditioned the matrix (O'Cinneide, Numer.
    Math. 65, 1993).
    """

    def __init__(self, back: np.ndarray, forward: np.ndarray,
                 deficit: np.ndarray):
        n = self.n = deficit.size
        self.size = (1 << n.bit_length()) - 1
        (a, c), (b, d) = np.zeros((2, self.size)), np.ones((2, self.size))
        a[1:n], b[:n], c[:n - 1], d[:n] = (forward[:-1], back + forward + deficit,
                                           back[1:], deficit)
        d[0] += back[0]
        d[n - 1] += forward[-1]
        self.levels = []
        while b.size > 1:
            aE, bE, cE = a[0::2], b[0::2], c[0::2]      # the rows eliminated
            alpha, gamma = a[1::2] / bE[:-1], c[1::2] / bE[1:]
            self.levels.append((aE, bE, cE, alpha, gamma))
            w = d[0::2] / bE
            a, c, d = (alpha * aE[:-1], gamma * cE[1:],
                       d[1::2] + w[:-1] * cE[:-1] + w[1:] * aE[1:])
            b = d.copy()
            b[1:] += c[:-1]
            b[:-1] += a[1:]
        self.last = b[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with M x = ``rhs``.  One buffer, with a zero at each end, holds
        the right-hand side, then the reduced ones, then x: level l is the
        view ``buf[::2**l]``, whose row i is entry 1 + i, and its zero ends
        stand for the neighbours missing at the first and the last row."""
        buf = np.zeros(self.size + 2)
        buf[1:self.n + 1] = rhs
        views = [buf[::1 << level] for level in range(len(self.levels) + 1)]
        for v, (_, _, _, alpha, gamma) in zip(views, self.levels):
            kept = v[2:-1:2]
            kept += alpha * v[1:-2:2]
            kept += gamma * v[3::2]
        views[-1][1] /= self.last
        for v, (aE, bE, cE, _, _) in zip(views[-2::-1], self.levels[::-1]):
            t = aE * v[0:-1:2]
            t += cE * v[2::2]
            t += v[1::2]
            np.divide(t, bE, out=v[1::2])
        x = buf[1:self.n + 1]
        if not np.all(np.isfinite(x)):  # pragma: no cover - defensive
            raise SingularSystem("non-finite solution entries")
        return x


def truncated_visits(model: WalkModel, K: int | None = None) -> TruncatedVisits:
    """Solve the truncated occupancy system (I - P^T) x = e_i0.

    ``K``: barriers -K..K are retained (states -K*N..K*N).  Defaults to the
    smallest K whose geometric tail bound is below ``DEFAULT_TAIL_TOL``.

    Raises ``TruncationInsufficient`` if an explicit K cannot meet that
    bound, or if the lattice would hold more than ``MAX_SITES`` sites.
    """
    K, tail = _truncation(model, K)
    fw, bw, deficit, half = _lattice_rates(model, K)
    reduction = _Reduction(bw, fw, deficit)
    rhs = np.zeros(2 * half + 1)
    rhs[half + model.i0] = 1.0
    x = reduction.solve(rhs)
    # the barriers strictly inside the sinks are every N-th site from N
    absorbed = model.s0 * float(x[model.N:-1:model.N].sum())
    return TruncatedVisits(model=model, K=K, tail_bound=tail,
                           absorbed_mass=absorbed, leak=float(x[0] + x[-1]),
                           x=x, reduction=reduction)


def truncated_visit_derivatives(model: WalkModel,
                                K: int | None = None) -> Mapping[int, float]:
    """Exact dX_j/dz at z = 1 on the truncated lattice, by site
    (:meth:`TruncatedVisits.derivatives`)."""
    return truncated_visits(model, K).derivatives()


# ---------------------------------------------------------------------------
# mean absorption times

def periodic_mean_times(model: WalkModel) -> np.ndarray:
    """Mean absorption times m_0..m_N from the exact periodic linear system.

    The defining equations are ``(p + q) m_i = p m_{i+1} + q m_{i-1} + 1``
    for interior i and ``(1 - r0) m_0 = p0 m_1 + q0 m_{N-1} + 1 - s0`` with
    ``m_N = m_0``; the absorbing transition itself is not counted as a step.
    With ``m_i = m_0 + T_i`` the interior rows are one O(N) tridiagonal
    system, ``(p + q) T_i - p T_{i+1} - q T_{i-1} = 1`` with T_0 = T_N = 0,
    solved by the lattice's reduction: each column sends p back and q
    forward and loses nothing, and the p of the first column and the q of
    the last, which leave the system, are its only losses, so no pivot is a
    difference.  The barrier row gives
    ``m_0 = (p0 T_1 + q0 T_{N-1} + 1 - s0) / s0``: the 1/s0 conditioning
    costs one division of a sum of positive terms.  Returns an array of
    length N + 1 with ``m[N] == m[0]``; mean times beyond the float range
    raise OverflowError, with no numpy warning on the way.
    """
    m = model
    n = m.N - 1
    T = np.zeros(m.N + 1)
    with np.errstate(all="ignore"):  # a non-finite time is refused below
        T[1:-1] = _Reduction(np.full(n, m.p), np.full(n, m.q),
                             np.zeros(n)).solve(np.ones(n))
        m0 = (m.p0 * T[1] + m.q0 * T[-2] + 1.0 - m.s0) / m.s0
        times = m0 + T
    if not np.isfinite(times).all():
        raise beyond_float_range("a mean time of the period")
    return times


# ---------------------------------------------------------------------------
# Monte-Carlo walker

@dataclass(frozen=True)
class EmpiricalStats:
    """Seeded Monte-Carlo estimates.

    ``visit_means`` maps site -> (mean arrivals per walk, standard error);
    ``absorption_hist`` maps barrier index -> frequency; frequencies plus
    the censored fraction sum to one.  ``mean_steps`` is the mean number of
    non-absorbing transitions of absorbed walks.  All fields are exact
    functions of (model, walks, seed, step_cap, window): batch reductions
    are over integer accumulators, so results are bit-identical for any
    worker count.
    """

    model: WalkModel
    walks: int
    seed: int
    step_cap: int
    mean_steps: float
    mean_steps_se: float
    visit_means: dict[int, tuple[float, float]]
    absorption_hist: dict[int, float]
    censored: int
    absorbed: int


def _uniform_block(seed: int, batch_index: int, block_index: int,
                   rows: int) -> np.ndarray:
    """Rows 0..rows-1 of block ``block_index`` of batch ``batch_index``: the
    stream itself, which the walker reads through :func:`_live_draws`."""
    counter = (batch_index << 128) | (block_index << 64)
    gen = np.random.Generator(np.random.Philox(key=seed, counter=counter))
    return gen.random((rows, _BLOCK))


def _philox(seed: int) -> np.random.Generator:
    """A Generator on a Philox keyed by ``seed``; :func:`_live_draws` sets
    its counter to reach a row."""
    return np.random.Generator(np.random.Philox(key=seed))


def _live_draws(gen: np.random.Generator, batch_index: int, block_index: int,
                live: np.ndarray, out: np.ndarray) -> None:
    """Fill the rows ``live`` (ascending) of ``out``, a (rows, _BLOCK)
    buffer, in place with those of ``_uniform_block(...)``.

    A row is 64 uniforms, one per 64-bit Philox output, 16 counters of four,
    so row r starts right after counter ``(batch << 128) | (block << 64) |
    16 r``.  Each run of live rows is one ``Generator.random`` call from
    there into its rows of ``out``; gaps of up to ``_BRIDGE`` dead rows are
    drawn through, longer ones skipped by setting the counter (a state
    assignment costs a quarter of ``Philox.advance``).
    """
    state = gen.bit_generator.state
    counter = state["state"]["counter"] = [0, block_index, batch_index, 0]
    cut = np.flatnonzero(np.diff(live) > _BRIDGE + 1)  # ends of all runs but the last
    starts, ends = live[np.append(-1, cut) + 1], live[np.append(cut, -1)] + 1
    for a, e in zip(starts.tolist(), ends.tolist()):
        counter[0] = _BLOCK // 4 * a
        gen.bit_generator.state = state
        gen.random(out=out[a:e])


def _step_moves(model: WalkModel) -> tuple[np.ndarray, np.ndarray]:
    """The five step probabilities, two inside and three on a barrier,
    sorted, as the thresholds of a draw, and 8 times the move of each draw
    code inside (row 0) and on a barrier (row 1).

    The code of a uniform u, the number of thresholds x with ``x <= u``, is
    the complement of the reference rule ``u < x`` and as exact, u being a
    multiple of 2**-53.  It fixes the move at every site: forward, back or
    hold inside; absorb, forward, back or hold on a barrier.  An absorbing
    move parks the walk.  Slots 6 and 7 of a row pad it to eight.
    """
    m = model
    interior = [m.p, m.p + m.q]
    barrier = [m.s0, m.s0 + m.p0, m.s0 + m.p0 + m.q0]
    thresholds = sorted(interior + barrier)
    lowest = [0.0] + thresholds          # where each code's draws start
    moves = np.zeros((2, 8), dtype=np.int64)
    moves[0, :6] = np.take([1, -1, 0], np.searchsorted(interior, lowest, "right"))
    moves[1, :6] = np.take([_PARK, 1, -1, 0],
                           np.searchsorted(barrier, lowest, "right"))
    return np.array(thresholds), moves << 3


def _move_table(moves: np.ndarray, N: int, base: int, sites: int) -> np.ndarray:
    """Entry ``8 * i + code`` is 8 times the move of a walk at site
    base + i, for ``sites`` sites, and a last entry ``8 * _PARK``, which
    every parked position reads since ``take`` clips: a parked walk gains
    ``_PARK`` again at every later step."""
    barrier = (np.arange(base, base + sites) % N == 0).view(np.uint8)
    return np.append(moves.take(barrier, axis=0), _PARK << 3)


def _codes(thresholds: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The code of each draw, the number of thresholds at or below it, for a
    (walks, steps) slice of a block, as a contiguous (steps, walks) int64
    array.  The slice is copied row by row and classified before it is
    turned: gathering a column of a block touches a cache line per walk.
    A binary search branches at random on random draws; the five
    comparisons and their sum cost a fifth as much beyond a few hundred."""
    below = np.less_equal(thresholds[:, None, None], np.ascontiguousarray(draws))
    codes = below.view(np.uint8).sum(axis=0, dtype=np.uint8)
    return codes.T.astype(np.int64, order="C")


class _Tally:
    """Integer accumulators of one batch, over its reach: the window sites
    within step_cap of the start, which every batch of a simulation shares.

    Visit counts are kept per walk, in the smallest unsigned dtype that
    holds step_cap + 1 arrivals, over the reach plus a pad column on each
    side for the sites outside.  A walk's row is its row in the batch, so
    a flush counts the live walks at the rows it is handed, and a settled
    walk's row takes no further counts.  :meth:`close` folds every row
    into the exact ``visit_sum`` and ``visit_sum_sq`` and releases the
    counts, and :meth:`merge` adds the closed tally to a simulation's
    running total.
    """

    def __init__(self, model: WalkModel, rows: int, step_cap: int,
                 lo: int, hi: int):
        self.N = model.N
        self.first_site = max(lo, model.i0 - step_cap)
        self.width = max(min(hi, model.i0 + step_cap) - self.first_site + 1, 0)
        dtype = np.min_scalar_type(step_cap + 1)
        self.one = dtype.type(1)
        self.counts = np.zeros((rows, self.width + 2), dtype=dtype)
        if 0 <= model.i0 - self.first_site < self.width:
            # the time-zero arrival at the start site
            self.counts[:, model.i0 - self.first_site + 1] = 1
        # int64 squares cannot overflow while step_cap stays below ~3e7 per
        # batch; beyond that use Python integers (still exact)
        self.sum_dtype = np.int64 if step_cap <= 30_000_000 else object
        self.sum_steps = self.sum_steps_sq = self.censored = 0
        self.barriers = [np.zeros(0, dtype=np.int64)]

    def flush(self, P: np.ndarray, base: int, t0: int, live: np.ndarray):
        """Settle the walks parked in ``P`` and count its positions.

        ``P[i]`` holds the positions (site - base) of the live walks, the
        batch rows ``live``, after step t0 + i; it is overwritten.  Returns
        the positions of the walks left alive and their mask, None when all
        of them are.
        """
        dead = P[-1] > _PARK // 2
        gone = np.flatnonzero(dead)
        keep = ~dead if gone.size else None
        q = P[-1].copy() if keep is None else P[-1][keep]
        if gone.size:
            end = P[-1].take(gone)
            parked = (end + _PARK // 2) // _PARK   # steps since absorption
            self.barriers.append((end - parked * _PARK + base) // self.N)
            # a walk absorbed at step t made t non-absorbing transitions
            col = P.shape[0] - parked              # absorbed at step t0 + col
            n, c1, c2 = gone.size, int(col.sum()), int(col @ col)
            self.sum_steps += t0 * n + c1
            self.sum_steps_sq += t0 * t0 * n + 2 * t0 * c1 + c2

        pad = self.first_site - 1 - base
        np.clip(P, pad, pad + self.width + 1, out=P)
        P += live * (self.width + 2) - pad
        np.add.at(self.counts.reshape(-1), P.reshape(-1), self.one)
        return q, keep

    def close(self, censored: int) -> "_Tally":
        """Fold the counts of every walk, one exact integer reduction per
        sum, keep the number of ``censored`` walks, those still live, and
        release the counts."""
        self.censored = censored
        c = self.counts[:, 1:-1]
        self.visit_sum = np.add.reduce(c, axis=0, dtype=self.sum_dtype)
        self.visit_sum_sq = np.einsum("ij,ij->j", c, c, dtype=self.sum_dtype)
        self.counts = None
        return self

    def merge(self, other: "_Tally") -> "_Tally":
        """Add the closed tally of a later batch to this one."""
        self.censored += other.censored
        self.sum_steps += other.sum_steps
        self.sum_steps_sq += other.sum_steps_sq
        self.barriers += other.barriers
        self.visit_sum += other.visit_sum
        self.visit_sum_sq += other.visit_sum_sq
        return self


def _simulate_batch(model: WalkModel, seed: int, batch_index: int, rows: int,
                    step_cap: int, lo: int, hi: int):
    """One batch of walks; returns its closed :class:`_Tally`.

    ``live`` holds the rows of the live walks in ascending order and ``q``
    their sites minus ``base``, the first site of the move table.  Each
    block fills the live rows of ``uniforms``, the batch's (rows, _BLOCK)
    buffer, in place.  The steps between two flushes form a segment, which
    ends with the block or when the record of ``_RECORD`` positions is
    full.  A segment's uniforms, ``uniforms[live, off:off + span]``, are
    compared with the step probabilities at once into codes, and ``rec``
    holds the walks' positions as ``8 * q``.  A step then adds the codes to
    the positions, looks up the moves and adds them.  An absorbed walk stays
    parked until the flush that ends the segment settles it.
    """
    thresholds, moves = _step_moves(model)
    tally = _Tally(model, rows, step_cap, lo, hi)
    gen = _philox(seed)
    uniforms = np.empty((rows, _BLOCK))
    buf = np.empty(_RECORD + rows, dtype=np.int64)

    live = np.arange(rows)
    base, sites = model.i0, 0         # no table yet: the first block builds it
    q = np.zeros(rows, dtype=np.int64)
    t = 0
    while live.size and t < step_cap:
        _live_draws(gen, batch_index, t // _BLOCK, live, uniforms)
        # a walk moves at most _BLOCK sites in a block: keep them all
        # inside the table, off its parking entry
        low, high = int(q.min()), int(q.max())
        if low < _BLOCK or high + _BLOCK >= sites:
            margin = high - low + 2 * _BLOCK
            q += margin - low
            base += low - margin
            sites = high - low + 2 * margin + 1
            table = _move_table(moves, model.N, base, sites)
        stop = min(_BLOCK, step_cap - t)
        off = 0
        while off < stop:
            n = q.size
            # rec row 0 holds 8 q, the positions at the last flush, and row
            # s those after the s-th step since
            span = min(stop - off, max(4, _RECORD // n))
            rec = buf[:(span + 1) * n].reshape(span + 1, n)
            pos = np.left_shift(q, 3, out=rec[0])
            key, move = np.empty((2, n), dtype=np.int64)
            # a fully live batch copies its rows as a slice, faster than a gather
            read = slice(None) if live.size == rows else live
            codes = _codes(thresholds, uniforms[read, off:off + span])
            for code, after in zip(codes, rec[1:]):
                np.add(pos, code, out=key)
                table.take(key, mode="clip", out=move)
                pos = np.add(pos, move, out=after)
            P = np.right_shift(rec[1:], 3, out=rec[1:])
            q, keep = tally.flush(P, base, t + off, live)
            off += span
            if keep is not None:
                live = live[keep]
                if not live.size:
                    break
        t += stop
    return tally.close(live.size)


def simulate(model: WalkModel, walks: int, seed: int,
             step_cap: int | None = None, workers: int = 1,
             window: tuple[int, int] | None = None) -> EmpiricalStats:
    """Run ``walks`` independent walks and collect empirical statistics.

    Each walk consumes exactly one uniform per transition (the absorbing
    draw included) from its own slice of a Philox counter space keyed by
    ``seed``, so the sampled trajectories depend only on (seed, walk index).
    Each batch's integer accumulators, over the sites within ``step_cap``
    of the start, are added in batch order to one running total, making the
    output bit-identical across worker counts.  ``workers`` threads run the
    batches, at most one per batch and per CPU this process may use.

    ``step_cap`` defaults to 50x the mean absorption time (at least 1000);
    walks still alive at the cap are reported as censored, keep their
    truncated visit counts, and are excluded from the absorption histogram
    and the step mean.  A cap of 0 censors every walk.  A negative cap, or a
    window of more than ``MAX_SITES`` sites, raises ValueError; a default
    cap beyond the float range raises OverflowError.
    """
    if walks < 1:
        raise ValueError(f"walks must be >= 1 (got {walks})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    if step_cap is not None and step_cap < 0:
        raise ValueError(f"step_cap must be >= 0 (got {step_cap})")
    if window is None:
        window = (-3 * model.N, 3 * model.N)
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError(f"empty site window {window}")
    if hi - lo + 1 > MAX_SITES:
        raise ValueError(f"site window {lo}..{hi} holds {hi - lo + 1} sites, "
                         f"more than {MAX_SITES}")
    if step_cap is None:
        try:
            period = periodic_mean_times(model)
        except OverflowError:  # so is 50 times the mean time from the start
            raise beyond_float_range("the default step cap") from None
        step_cap = _default_step_cap(model, period)

    batches = [(j, min(_BATCH, walks - j * _BATCH))
               for j in range((walks + _BATCH - 1) // _BATCH)]

    def run(batch):
        j, rows = batch
        return _simulate_batch(model, seed, j, rows, step_cap, lo, hi)

    threads = min(workers, len(batches), _usable_cpus())
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(run, batches) if threads > 1 else map(run, batches)
        total = functools.reduce(_Tally.merge, parts)

    censored, absorbed = total.censored, walks - total.censored
    mean_steps, se_steps = _mean_se(total.sum_steps, total.sum_steps_sq, absorbed)
    # a site outside the walks' reach is never visited
    visit_means = dict.fromkeys(range(lo, hi + 1), _mean_se(0, 0, walks))
    for site, s, s2 in zip(range(total.first_site, total.first_site + total.width),
                           total.visit_sum.tolist(), total.visit_sum_sq.tolist()):
        visit_means[site] = _mean_se(s, s2, walks)
    keys, counts = np.unique(np.concatenate(total.barriers), return_counts=True)
    stats = EmpiricalStats(
        model=model, walks=walks, seed=seed, step_cap=step_cap,
        mean_steps=mean_steps, mean_steps_se=se_steps,
        visit_means=visit_means,
        absorption_hist=dict(zip(keys.tolist(), (counts / walks).tolist())),
        censored=censored, absorbed=absorbed)
    if censored > 1e-3 * walks:
        warnings.warn(ExcessCensoring(
            f"{censored} of {walks} walks hit the step cap {step_cap}"))
    return stats


def _default_step_cap(model: WalkModel, period: np.ndarray) -> int:
    """50x the mean absorption time from the start, at least 1000."""
    cap = 50.0 * period[model.i0]
    if not math.isfinite(cap):
        raise beyond_float_range("the default step cap")
    return max(1000, math.ceil(cap))


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform tells."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _mean_se(total: int, total_sq: int, n: int) -> tuple[float, float]:
    if n == 0:
        return float("nan"), float("nan")
    mean = total / n
    if n == 1:
        return mean, float("nan")
    var = (total_sq - total * total / n) / (n - 1)
    return mean, math.sqrt(max(var, 0.0) / n)


# ---------------------------------------------------------------------------
# golden-value records

# the fields every golden record carries, with their JSON types
_RECORD_FIELDS = {"model": dict, "quantity": str, "index": int,
                  "value": (int, float), "oracle": str}


class Battery:
    """The oracles of one model, each run once: ``truncated``, ``period``,
    ``split`` (``{k: s0 x'_{kN}}`` over ``SPLIT_BARRIERS``, empty unless
    :func:`~mfbwalk.walk_model.has_barrier_split`) and, on first use, one
    walker run per (walks, seed)."""

    def __init__(self, model: WalkModel):
        self.model, self._runs = model, {}
        self.truncated = tv = truncated_visits(model)
        self.period = periodic_mean_times(model)
        deriv = tv.derivatives() if has_barrier_split(model) else {}
        self.split = {k: model.s0 * deriv[k * model.N]
                      for k in SPLIT_BARRIERS if deriv}

    def simulate(self, walks: int, seed: int) -> EmpiricalStats:
        """:func:`simulate` at the default step cap, read from ``period``."""
        if (walks, seed) not in self._runs:
            cap = _default_step_cap(self.model, self.period)
            self._runs[walks, seed] = simulate(self.model, walks, seed, cap)
        return self._runs[walks, seed]

    def records(self, window: int = 3, walks: int = 0,
                seed: int = 42) -> list[dict]:
        """Golden records: site visits over barriers -window..window, mean
        times, per-barrier times and, when ``walks > 0``, Monte-Carlo
        records, each ``{model, quantity, index, value, error_bound, oracle,
        params}``; ``params`` holds what the oracle call was made with."""
        records, tv, N, mdl = [], self.truncated, self.model.N, self.model.to_dict()

        def record(quantity, index, value, error_bound, oracle, params):
            records.append({"model": mdl, "quantity": quantity, "index": index,
                            "value": value, "error_bound": error_bound,
                            "oracle": oracle, "params": params})

        sites = range(-window * N, window * N + 1)
        for j, x in zip(sites, tv.sites(sites[0], sites[-1])):
            record("site_visits", j, x, 10 * tv.tail_bound,
                   "truncated_solver", {"K": tv.K})
        for i, t in enumerate(self.period.tolist()):
            record("mean_time_any", i, t, 1e-12, "periodic_solve", {})
        for k, value in self.split.items():
            record("mean_time_to_barrier", k, value, 1e-9,
                   "truncated_derivative", {"K": tv.K})
        if walks > 0:
            stats = self.simulate(walks, seed)
            params = {"walks": walks, "seed": seed, "step_cap": stats.step_cap}
            record("mean_steps", 0, stats.mean_steps, 0.0, "simulate", params)
            for k in MC_BARRIERS:
                record("absorption_frequency", k,
                       stats.absorption_hist.get(k, 0.0), 0.0, "simulate", params)
        return records

    def mismatches(self, stored: list[dict]) -> list[dict]:
        """Stored records that :meth:`records`, with the file's window (its
        widest ``truncated_solver`` record) and the walks and seed of its
        ``simulate`` records, would not write again: no record of the same
        (quantity, index), oracle and params has a value within
        ``max(error_bound, 1e-12)``.  In file order, as ``{quantity, index,
        stored, fresh, error_bound}``, ``fresh`` None where none is written."""
        sites = [abs(r["index"]) for r in stored if r["oracle"] == "truncated_solver"]
        sim = [r["params"] for r in stored if r["oracle"] == "simulate"]
        sim = sim[-1] if sim else {"walks": 0, "seed": 42}
        fresh = {(r["quantity"], r["index"]): r
                 for r in self.records(max(sites, default=0) // self.model.N,
                                       sim["walks"], sim["seed"])}
        misses = []
        for rec in stored:
            new = fresh.get((rec["quantity"], rec["index"]), {})
            bound = max(rec.get("error_bound", 0.0), 1e-12)
            if ((new.get("oracle"), new.get("params"))
                    != (rec["oracle"], rec.get("params", {}))
                    or abs(new["value"] - rec["value"]) > bound):
                misses.append({"quantity": rec["quantity"], "index": rec["index"],
                               "stored": rec["value"], "fresh": new.get("value"),
                               "error_bound": bound})
        return misses


def write_golden(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def read_golden(path, model: WalkModel) -> list[dict]:
    """The golden records of ``model`` in ``path``; ``ValueError`` unless it
    is a list of records that :meth:`Battery.mismatches` can read, all of
    them made for ``model``."""
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"golden file {path} is not a list of records")
    for n, rec in enumerate(records):
        if not _is_record(rec):
            raise ValueError(
                f"golden record {n} of {path} needs an object model, string "
                f"quantity and oracle, integer index, numeric value and "
                f"error_bound, and integer walks and seed params if simulated")
        if validate_model(rec["model"]) != model:
            raise ValueError(f"golden record {n} of {path} is for another "
                             f"model: {rec['model']}")
    return records


def _is_record(rec) -> bool:
    """The typed fields of ``_RECORD_FIELDS``, a numeric error bound if
    any, and integer ``walks`` and ``seed`` params on a simulate record."""
    if not (isinstance(rec, dict)
            and all(isinstance(rec.get(k), t) for k, t in _RECORD_FIELDS.items())
            and isinstance(rec.get("error_bound", 0.0), (int, float))):
        return False
    params = rec.get("params")
    return rec["oracle"] != "simulate" or (
        isinstance(params, dict)
        and all(isinstance(params.get(k), int) for k in ("walks", "seed")))
