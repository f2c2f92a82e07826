"""Blow-up sequences, tangent matching, line detection and splitting.

The experimental side of the lab: rescale-and-renormalize a space at a
point, compare the members against model tangents, find approximate lines
through the basepoint, factor them off with a Busemann-type coordinate,
and iterate to count Euclidean dimensions. Every comparison of members
with a target goes through :func:`distances_to` and keeps the pmGH
interval: the ``value``, an upper bound, and the certified ``lower_bound``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .core import FiniteSpace, PointedSpace, ball_restrict, normalize_at, rescale
from .pmgh import TELEPORT_COST, PmghEstimate, pmgh_distance

__all__ = [
    "BlowupMember",
    "BlowupSequence",
    "blowup",
    "normalize_window",
    "distances_to",
    "MatchReport",
    "match_tangent",
    "iterated_tangent_check",
    "LineCandidate",
    "detect_line",
    "SplitResult",
    "split",
    "LineTooShortError",
    "DimensionTrace",
    "euclidean_dimension",
]


class LineTooShortError(ValueError):
    """The chain does not extend far enough beyond the requested window."""


# ---------------------------------------------------------------------------
# Blow-ups
# ---------------------------------------------------------------------------

_MIN_CELLS = 4.0   # default sample spacings per window radius for a usable member


@dataclass(frozen=True)
class BlowupMember:
    radius: float
    space: PointedSpace          # rescaled, renormalized, windowed
    normalization: float         # measure constant applied before rescaling
    relative_resolution: float   # sample spacing in rescaled units
    usable: bool
    warning: str | None


@dataclass(frozen=True)
class BlowupSequence:
    origin_base: int
    window: float
    members: tuple

    def usable_members(self) -> list[BlowupMember]:
        return [m for m in self.members if m.usable]

    def finest_usable(self) -> BlowupMember | None:
        us = self.usable_members()
        return us[-1] if us else None


def blowup(
    ps: PointedSpace,
    radii: Sequence[float],
    window: float = 8.0,
    min_cells: float = _MIN_CELLS,
) -> BlowupSequence:
    """Rescale, renormalize and window the space at its basepoint per radius.

    Radii must be decreasing (and at most 1 in the usual blow-up usage);
    members with fewer than ``min_cells`` sample spacings per window radius
    are flagged unusable — zooming below the data resolution is
    meaningless and only produces near-singletons.
    """
    radii = list(radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    h = ps.space.declared_resolution()
    reach = float(ps.base_distances().max())
    members = []
    for r in radii:
        nps, c = normalize_at(ps, r)
        # window first, by the same product d * (1/r) that rescale forms, then
        # rescale only the window
        idx = np.flatnonzero(nps.base_distances() * (1.0 / r) <= window)
        member = rescale(PointedSpace(nps.space.subset(idx), int(np.searchsorted(idx, ps.base))), r)
        rel = h / r
        warning = None
        usable = True
        if rel > window / min_cells:
            usable = False
            warning = (f"rescaled spacing {rel:.3g} leaves fewer than {min_cells} "
                       "cells per window radius; below data resolution")
        elif rel > window / (2.0 * min_cells):
            warning = f"rescaled spacing {rel:.3g} is coarse for window {window}"
        if reach < window * r and warning is None:
            warning = "window truncated by the data extent"
        members.append(BlowupMember(radius=float(r), space=member, normalization=c,
                                    relative_resolution=rel, usable=usable, warning=warning))
    return BlowupSequence(origin_base=ps.base, window=float(window), members=tuple(members))


def normalize_window(ps: PointedSpace, window: float = 8.0) -> PointedSpace:
    """Normalize at radius 1 and restrict to the window — model-space prep."""
    nps, _ = normalize_at(ps, 1.0)
    return ball_restrict(nps, window, mode="closed")


# ---------------------------------------------------------------------------
# Tangent matching
# ---------------------------------------------------------------------------

def distances_to(seq: BlowupSequence, target: PointedSpace,
                 **pmgh_kwargs) -> list[tuple[float, PmghEstimate]]:
    """(radius, pmGH estimate to the target) of each usable member, in order.

    Each estimate's ``value`` is an upper bound backed by its certificate
    correspondences, and its ``lower_bound`` is certified (relation-free, or
    the exact infimum of a radius searched exactly); ``exact`` says they
    coincide. This is the one comparison of a blow-up sequence with a
    target: :func:`match_tangent`, :func:`iterated_tangent_check` and the
    ``blowup --target`` command all go through it.
    """
    usable = seq.usable_members()
    if not usable:
        raise ValueError("blow-up sequence has no usable members")
    return [(m.radius, pmgh_distance(m.space, target, **pmgh_kwargs)) for m in usable]


@dataclass(frozen=True)
class MatchReport:
    trajectories: dict           # model name -> list of (radius, PmghEstimate)
    finals: dict                 # model name -> final member's value (an upper bound)
    ranking: tuple               # names sorted by final value
    best: str | None
    # the best model's final value is below every other model's final
    # lower bound, so no other model can be closer to the final member
    certified: bool


def match_tangent(
    seq: BlowupSequence,
    models: dict[str, PointedSpace],
    **pmgh_kwargs,
) -> MatchReport:
    """Rank model tangents by their surrogate-distance trajectory along the sequence.

    Models must be normalized and windowed like the members (see
    :func:`normalize_window`). The ranking orders the final member's values,
    which are upper bounds; it is ``certified`` when the best model's value
    lies below the certified lower bound of every other model.
    """
    trajectories = {name: distances_to(seq, model, **pmgh_kwargs)
                    for name, model in models.items()}
    finals = {name: traj[-1][1].value for name, traj in trajectories.items()}
    ranking = tuple(sorted(finals, key=lambda k: finals[k]))
    best = ranking[0] if ranking else None
    certified = best is not None and all(
        finals[best] < traj[-1][1].lower_bound
        for name, traj in trajectories.items() if name != best)
    return MatchReport(trajectories=trajectories, finals=finals, ranking=ranking,
                       best=best, certified=certified)


@dataclass(frozen=True)
class IteratedTangentReport:
    y_prime: int                 # global index of the re-pointing target in the tangent
    offset_requested: float
    offset_actual: float
    comparisons: tuple           # rows (rho, original_radius, value, lower_bound)
    best_value: float            # least value over the rows (an upper bound)
    best_pair: tuple | None
    lower_bound: float           # least lower bound: every pair is at least this far apart


def iterated_tangent_check(
    ps: PointedSpace,
    radii: Sequence[float],
    offset: float = 1.0,
    window: float = 8.0,
    inner_radii: Sequence[float] | None = None,
    **pmgh_kwargs,
) -> IteratedTangentReport:
    """Blow up, re-point the finest tangent approximation, blow up again.

    Each tangent-of-tangent member is compared against the original blow-up
    family by :func:`distances_to`. A small ``best_value``, an upper bound,
    supports the inclusion of iterated tangents among the original tangents
    at desk scale; a positive ``lower_bound``, certified, shows that no
    original member comes closer than it.
    """
    if inner_radii is None:
        inner_radii = (0.5,)
    seq = blowup(ps, radii, window=window)
    # tangent approximation: the finest member that the inner blow-up can
    # still zoom without dropping below blowup's resolution gate
    rho_min = min(inner_radii)
    member = None
    for m in seq.usable_members():
        if m.relative_resolution / rho_min <= window / _MIN_CELLS:
            member = m
    if member is None:
        raise ValueError("no usable blow-up member admits the inner blow-up")
    Y = member.space
    d_base = Y.base_distances()
    y_prime = int(np.argmin(np.abs(d_base - offset)))
    actual = float(d_base[y_prime])
    repointed = PointedSpace(Y.space, y_prime)

    inner = blowup(repointed, inner_radii, window=window)

    rows = []
    best = math.inf
    best_pair = None
    for im in inner.usable_members():
        for radius, est in distances_to(seq, im.space, **pmgh_kwargs):
            rows.append((im.radius, radius, est.value, est.lower_bound))
            if est.value < best:
                best = est.value
                best_pair = (im.radius, radius)
    return IteratedTangentReport(
        y_prime=y_prime, offset_requested=float(offset), offset_actual=actual,
        comparisons=tuple(rows), best_value=best, best_pair=best_pair,
        lower_bound=min((row[3] for row in rows), default=math.inf),
    )


# ---------------------------------------------------------------------------
# Line detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineCandidate:
    chain: np.ndarray        # point indices ordered along the line
    params: np.ndarray       # projection parameters t, increasing; 0 at the base
    eps_line: float          # max additive defect over all chain pairs
    length: float

    def __post_init__(self) -> None:
        c = np.asarray(self.chain, dtype=int)
        p = np.asarray(self.params, dtype=float)
        c.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "chain", c)
        object.__setattr__(self, "params", p)

    @property
    def step(self) -> float:
        return float(np.median(np.diff(self.params)))


_ROW_BLOCK = 32   # rows per block of the passes over a shell or window (cache-sized)


def _row_blocks(n: int):
    return (slice(lo, lo + _ROW_BLOCK) for lo in range(0, n, _ROW_BLOCK))


def _projection_chain(D: np.ndarray, o: int, p: int, q: int, end: float, h: float,
                      eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The chain of :func:`detect_line` for the ends (p, q), its arms ending at
    their first point with |t| >= end: its points, their t and its width."""
    excess = D[p] + D[q] - D[p, q]
    key = excess.copy()
    key[o] = -np.inf
    x = np.flatnonzero(key <= 0.5 * eps)
    t = 0.5 * (D[p, x] - D[q, x]) - 0.5 * (D[p, o] - D[q, o])
    b = np.rint(t / h)
    order = np.lexsort((key[x], b))
    keep = order[np.r_[True, np.diff(b[order]) != 0]]
    x, t = x[keep], t[keep]
    hi, lo = np.flatnonzero(t >= end), np.flatnonzero(t <= -end)
    arms = slice(lo[-1] if lo.size else 0, hi[0] + 1 if hi.size else None)
    return x[arms], t[arms], float(excess[x[arms]].max())


def detect_line(ps: PointedSpace, L: float, eps: float) -> LineCandidate | None:
    """Find an eps-additive chain reaching L on each side of the base o.

    Abresch-Gromoll excess construction by projection bins, with h the
    declared resolution, step = max(1.2 h, L/48), and values within 16 ulps
    of L counting as tied (rounding level):

    - ends: each point of the shell |d(o, .) - L| <= step is paired with
      the shell point of least excess d(p, o) + d(o, q) - d(p, q) at the
      base, ties going to the farthest (found over row blocks of the shell,
      no shell x shell array is formed); a pair is taken with p < q;
    - bins: the tube points x of excess d(p, x) + d(x, q) - d(p, q) <= eps/2
      are binned by rint(t/h), where t(x) = (d(p, x) - d(q, x))/2 -
      (d(p, o) - d(q, o))/2 projects x on the line (t(o) = 0, increasing
      towards q); each bin keeps its point of least excess (the lowest
      index on ties), and o holds bin 0;
    - chain: the kept points in order of t, each arm ending at its first
      point with |t| >= L (tied included); ``params`` are their t;
    - choice: only chains with points on both sides of o, reaching L - step
      on each, count. They are ranked by the least width (the largest
      excess of a chain point, 0 at rounding level), then the longest
      d(p, q), then the lowest (p, q). The first whose additive defect over
      all chain pairs (``eps_line``) is at most eps is returned; None if
      there is none.

    Pairs are built in the order of their excess at the base, which bounds
    their width from below, and the search stops once no unbuilt pair can
    outrank the best chain found.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    D = ps.space.metric
    o = ps.base
    h = ps.space.declared_resolution()
    step = max(1.2 * h, L / 48.0)
    tie = 16.0 * np.spacing(L)
    shell = np.flatnonzero(np.abs(D[o] - L) <= step)
    if shell.size < 2:
        return None
    far = np.empty(shell.size, dtype=int)
    for r in _row_blocks(shell.size):
        Ds = D[np.ix_(shell[r], shell)]
        at_base = D[o, shell[r]][:, None] + D[o, shell] - Ds
        near = at_base <= at_base.min(axis=1, keepdims=True) + tie
        far[r] = np.argmax(np.where(near, Ds, -1.0), axis=1)
    P, Q = np.unique(np.sort(np.stack([shell, shell[far]], axis=1), axis=1), axis=0).T
    span = D[P, Q]
    floor = D[P, o] + D[Q, o] - span
    floor[floor <= tie] = 0.0
    best = None
    for i in np.lexsort((Q, P, -span, floor)):
        if best is not None and best[0] <= (floor[i], -span[i], P[i], Q[i]):
            break
        chain, params, width = _projection_chain(D, o, P[i], Q[i], L - tie, h, eps)
        rank = (width if width > tie else 0.0, -span[i], P[i], Q[i])
        reach = min(params[-1], -params[0])
        if reach < L - step or reach <= 0 or (best is not None and best[0] <= rank):
            continue
        eps_line = float(np.abs(D[np.ix_(chain, chain)]
                                - np.abs(params[:, None] - params[None, :])).max())
        if eps_line <= eps:
            best = rank, chain, params, eps_line
    if best is None:
        return None
    _, chain, params, eps_line = best
    return LineCandidate(chain=chain, params=params, eps_line=eps_line,
                         length=float(params[-1] - params[0]))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitResult:
    b: np.ndarray                # Busemann-type coordinate per windowed point
    window_idx: np.ndarray       # indices (into the input space) that were split
    quotient: PointedSpace
    assignment: np.ndarray       # windowed point -> representative position
    delta_metric: float
    delta_measure: float         # upper bound on the teleport distance to
                                 # m' x length; no gate reads it
    window: float
    rep_idx: np.ndarray          # representative indices into the input space

    def summary(self) -> str:
        return (f"quotient {self.quotient.n} pts, delta_metric {self.delta_metric:.4g}, "
                f"delta_measure {self.delta_measure:.4g}")


def _quotient_sq(d: np.ndarray, b_rows: np.ndarray, b_cols: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """d^2 - (b_rows - b_cols)^2 in place of distances d (``out``: room for the
    b differences), the squared quotient distance a product leaves after the line."""
    db = np.subtract.outer(b_rows, b_cols, out=out)
    np.square(d, out=d)
    d -= np.square(db, out=db)
    return d


def split(ps: PointedSpace, line: LineCandidate, window: float | None = None) -> SplitResult:
    """Factor an approximate line off the space around the basepoint.

    The points within ``window`` of the base (default: the chain's shorter
    arm less 1.3 chain steps) get a Busemann-type coordinate b: -1/2 times
    the least-squares slope of d(x, chain(s))^2 - s^2 against the chain
    parameter s, shifted to 0 at the base. On a metric product that profile
    is -2 b s + b^2 + d'^2, so b is exact there. The central level set
    |b| <= 1.5 max(h, step/2) is clustered into representatives (points
    whose quotient distance is within h/2 merge), and every windowed point
    joins the fiber of its nearest representative; a representative that a
    tie leaves with an empty fiber is dropped. One pass over row blocks
    of the metric, read in place, gives d'^2 of two fibers, the mass-weighted
    mean of max(0, d^2 - (b-b)^2) over all their point pairs, and the extremes
    of d^2 - (b-b)^2 per fiber pair, from which ``delta_metric``, the maximum
    over all pairs of windowed points of |d^2 - (b-b)^2 - d'^2|^(1/2), follows
    exactly. The measure is pushed forward with per-fiber extent
    normalization; ``delta_measure`` bounds the teleport distance per unit
    mass between it and m' x length on the box |b| <= window/sqrt(2) from
    above (``_product_measure_defect``), and no gate reads it. The line is
    certified only along its chain, so the split refuses a window that the
    chain does not pass by 1.25 steps on each side.
    """
    space = ps.space
    D = space.metric
    chain, params = line.chain, line.params
    step = max(line.step, 1e-12)
    t_plus, t_minus = float(params[-1]), float(-params[0])
    if window is None:
        window = min(t_plus, t_minus) - 1.3 * step
    if window <= step:
        raise LineTooShortError("window collapses below one chain step")
    # the chain must dominate the window it certifies
    if t_plus < window + 1.25 * step or t_minus < window + 1.25 * step:
        raise LineTooShortError(
            f"chain reaches ({t_minus:.3g}, {t_plus:.3g}), which does not dominate "
            f"the split window {window:.3g} by a chain step on each side")

    h = space.declared_resolution()
    idx = np.flatnonzero(D[ps.base] <= window)
    ww = space.weights[idx]
    base_pos = int(np.searchsorted(idx, ps.base))

    s = params - params.mean()
    b = -0.5 * ((D[np.ix_(idx, chain)] ** 2 - params ** 2) @ s) / (s @ s)
    b = b - b[base_pos]

    slice_pos = np.flatnonzero(np.abs(b) <= 1.5 * max(h, step / 2.0))
    if slice_pos.size == 0:
        raise LineTooShortError("empty central slice; resolution too coarse")

    # leader clustering of the slice by the quotient pseudo-metric: the first
    # unplaced point (heaviest first) takes every unplaced point within h/2,
    # and its cluster is represented by its mass-weighted medoid
    tol = 0.5 * h
    rest = slice_pos[np.lexsort((slice_pos, -ww[slice_pos]))]
    reps: list[int] = []
    while rest.size:
        near = _quotient_sq(D[idx[rest], idx[rest[0]]], b[rest], b[rest[0]]) <= tol * tol
        near[0] = True
        mem = rest[near]
        q = _quotient_sq(D[np.ix_(idx[mem], idx[mem])], b[mem], b[mem])
        cost = (np.sqrt(np.maximum(q, 0.0)) * ww[mem][None, :]).sum(axis=1)
        reps.append(int(mem[np.argmin(cost)]))
        rest = rest[~near]
    reps_arr = np.asarray(reps, dtype=int)

    # assign every windowed point to its nearest representative fiber, and
    # drop the representatives that a tie left with an empty one
    q = _quotient_sq(D[np.ix_(idx, idx[reps_arr])], b, b[reps_arr])
    kept, assign = np.unique(np.argmin(np.maximum(q, 0.0), axis=1), return_inverse=True)
    reps_arr = reps_arr[kept]

    # one pass over row blocks of Q = d^2 - (b - b)^2, read from D into reused
    # buffers (``take`` fills ``out`` directly only in mode "clip"). Columns go
    # in fiber order by a stable sort, so W_cols, W on those columns, adds each
    # fiber's terms in W's order. d'^2 of two fibers is the ww-weighted mean of
    # max(0, Q) over their point pairs, W max(0, Q) W^T / (m m^T) with
    # W[assign[x], x] = ww[x]; q_hi and q_lo hold each row's extremes of Q per
    # fiber, the rows in fiber order
    n, M = len(idx), len(reps_arr)
    order = np.argsort(assign, kind="stable")
    rank = np.argsort(order)
    starts = np.flatnonzero(np.diff(assign[order], prepend=-1))
    W = csr_matrix((ww, (assign, np.arange(n))), shape=(M, n))
    W_cols = csr_matrix((ww[order], (assign[order], np.arange(n))), shape=(M, n))
    cols, b_cols = idx[order], b[order]
    num = np.zeros((M, M))
    q_hi, q_lo = np.empty((2, n, M))
    Q_buf, db_buf = np.empty((2, _ROW_BLOCK, n))
    for r in _row_blocks(n):
        rows = idx[r]
        Q = np.take(D[rows], cols, axis=1, out=Q_buf[:rows.size], mode="clip")
        _quotient_sq(Q, b[r], b_cols, db_buf[:rows.size])
        q_hi[rank[r]] = np.maximum.reduceat(Q, starts, axis=1)
        q_lo[rank[r]] = np.minimum.reduceat(Q, starts, axis=1)
        num += W[:, r] @ (W_cols @ np.maximum(Q, 0.0, out=Q).T).T
    mass = np.bincount(assign, weights=ww, minlength=M)
    den = np.outer(mass, mass)
    dprime = np.triu(np.sqrt(np.divide(num, den, out=np.zeros((M, M)), where=den > 0)), 1)
    dprime += dprime.T

    # pushforward weights with per-fiber extent normalization
    wq = mass / (np.maximum.reduceat(b_cols, starts)
                 - np.minimum.reduceat(b_cols, starts) + max(h, step))

    q_points = tuple(space.points[idx[r]] for r in reps_arr)
    quotient_space = FiniteSpace(points=q_points, metric=dprime, weights=wq,
                                 resolution=space.resolution)
    quotient = PointedSpace(quotient_space, int(assign[base_pos]))

    # metric defect, the exact maximum of |Q - d'^2| over all pairs: with c =
    # d'^2 of a fiber pair, fl(a - c) does not decrease as a grows and fl(c - a)
    # = -fl(a - c), so the pair's maximum is max(fl(Qmax - c), fl(c - Qmin))
    c = dprime ** 2
    resid = max((np.maximum.reduceat(q_hi, starts) - c).max(),
                (c - np.minimum.reduceat(q_lo, starts)).max())
    delta_metric = float(np.sqrt(resid))

    delta_measure = _product_measure_defect(
        b, ww, assign, dprime, wq, int(assign[base_pos]), window)

    return SplitResult(
        b=b, window_idx=idx, quotient=quotient, assignment=assign,
        delta_metric=delta_metric, delta_measure=delta_measure,
        window=float(window), rep_idx=idx[reps_arr],
    )


def _product_measure_defect(b, ww, assign, dprime, wq, base_rep, window) -> float:
    """Upper bound on the teleport transport distance between the measure and
    m' x length on the box |b| <= box = window/sqrt(2), per unit box mass: the
    cost of a plan that moves mass only along fibers. No gate reads it.

    Each fiber f within 0.9 box of the base fiber in d' holds mass a_f at its
    box points' b, against p_f = 2 box wq[f] spread uniformly on [-box, box].
    Scaled to m_f = min(a_f, p_f), the two are matched by their 1-D W1, the
    area between their CDFs, summed in quantile form: a point x covering the
    band [y0, y1] of the uniform's quantiles adds m_f/(2 box) times the
    integral of |y - x| over it. |a_f - p_f| costs TELEPORT_COST per unit.
    """
    box = window / math.sqrt(2.0)
    keep = dprime[base_rep] <= 0.9 * box
    inside = np.flatnonzero((np.abs(b) <= box) & keep[assign] & (ww > 0))
    order = inside[np.lexsort((b[inside], assign[inside]))]
    f, x, w = assign[order], b[order], ww[order]
    a = np.bincount(f, w, minlength=len(wq))
    p = np.where(keep, 2.0 * box * wq, 0.0)
    # each point's quantile band [y0, y1]; (y - x)|y - x| / 2 integrates |y - x|
    y1 = box * (2.0 * (np.cumsum(w) - (np.cumsum(a) - a)[f]) / a[f] - 1.0)
    y0 = y1 - 2.0 * box * w / a[f]
    ramp = np.bincount(f, (y1 - x) * np.abs(y1 - x) - (y0 - x) * np.abs(y0 - x), minlength=len(a))
    cost = np.minimum(a, p) / (4.0 * box) * ramp + TELEPORT_COST * np.abs(a - p)
    return float(cost.sum() / max(a.sum(), 1e-300))


# ---------------------------------------------------------------------------
# Dimension iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageRecord:
    stage: int
    member_radius: float
    member_points: int
    line_length: float | None
    line_eps: float | None
    delta_metric: float | None
    delta_measure: float | None
    quotient_points: int | None
    status: str        # factored | no-line | refused | degenerate | inconclusive


@dataclass(frozen=True)
class DimensionTrace:
    records: tuple
    remainder: PointedSpace | None
    stopped_because: str


def euclidean_dimension(ps: PointedSpace, N: float,
                        window: float = 4.0) -> tuple[int, DimensionTrace]:
    """Iterate blow-up, line detection and splitting to count line factors.

    Each stage blows the current space up at one radius (1 at the first
    stage; later stages zoom the quotient back out to fill the window) with
    at least 3 sample spacings per window radius. It looks for a chain
    reaching 0.9 window on each side of the base with :func:`detect_line`
    (projection bins of width h along the excess tube of the narrowest end
    pair, certified by the additive defect ``eps_line`` <= max(1.5h, 0.025
    window)) and splits it off with :func:`split` (a least-squares Busemann
    coordinate, and a ``delta_metric`` exact over all pairs). A stage is
    inconclusive when that defect exceeds max(8h, 0.05 window).

    Stops when no line is found, a split is refused or exceeds its defect
    tolerance, the quotient degenerates (fewer than 4 points or a diameter
    below 2.5 h), or the dimension budget floor(N) is reached. The returned
    count never exceeds floor(N).
    """
    budget = int(math.floor(N))
    records: list[StageRecord] = []
    current = ps
    n = 0
    reason = "dimension budget reached"
    for stage in range(budget):
        radius = 1.0
        if stage > 0:
            # zoom the (smaller) quotient back out to fill the window
            radius = min(1.0, 0.95 * float(current.base_distances().max()) / window)
        seq = blowup(current, (radius,), window=window, min_cells=3.0)
        member = seq.finest_usable()
        if member is None:
            reason = "no usable blow-up member"
            records.append(StageRecord(stage, float("nan"), 0, None, None,
                                       None, None, None, "degenerate"))
            break
        Y = member.space
        h = Y.space.declared_resolution()
        eps = max(1.5 * h, 0.025 * window)
        line = detect_line(Y, 0.9 * window, eps)
        if line is None:
            reason = "no line found"
            records.append(StageRecord(stage, member.radius, Y.n, None, eps,
                                       None, None, None, "no-line"))
            break
        try:
            res = split(Y, line)
        except LineTooShortError as exc:
            reason = f"split refused: {exc}"
            records.append(StageRecord(stage, member.radius, Y.n, line.length,
                                       line.eps_line, None, None, None, "refused"))
            break
        tol = max(8.0 * h, 0.05 * window)
        if res.delta_metric > tol:
            reason = f"split defect {res.delta_metric:.3g} above tolerance {tol:.3g}"
            records.append(StageRecord(stage, member.radius, Y.n, line.length,
                                       line.eps_line, res.delta_metric,
                                       res.delta_measure, res.quotient.n, "inconclusive"))
            break
        n += 1
        records.append(StageRecord(stage, member.radius, Y.n, line.length,
                                   line.eps_line, res.delta_metric,
                                   res.delta_measure, res.quotient.n, "factored"))
        current = res.quotient
        if (current.n < 4
                or current.space.diameter < 2.5 * current.space.declared_resolution()):
            reason = "quotient degenerate"
            break
    assert n <= budget, "factor count exceeded the dimension budget"
    return n, DimensionTrace(records=tuple(records), remainder=current,
                             stopped_because=reason)
