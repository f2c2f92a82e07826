"""Blow-up sequences, tangent matching, line detection and splitting.

The experimental side of the lab: rescale-and-renormalize a space at a
point, compare the members against model tangents, find approximate lines
through the basepoint, factor them off with a Busemann-type coordinate,
and iterate to count Euclidean dimensions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FiniteSpace, PointedSpace, ball_restrict, normalize_at, rescale
from .pmgh import TELEPORT_COST, convergence_diagnostic, pmgh_distance
from .transport import transport_lp

__all__ = [
    "BlowupMember",
    "BlowupSequence",
    "blowup",
    "normalize_window",
    "MatchReport",
    "match_tangent",
    "iterated_tangent_check",
    "LineCandidate",
    "detect_line",
    "SplitResult",
    "split",
    "LineTooShortError",
    "DimensionConfig",
    "DimensionTrace",
    "euclidean_dimension",
]


class LineTooShortError(ValueError):
    """The chain does not extend far enough beyond the requested window."""


# ---------------------------------------------------------------------------
# Blow-ups
# ---------------------------------------------------------------------------

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
    min_cells: float = 4.0,
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
        member = ball_restrict(rescale(nps, r), window, mode="closed")
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

@dataclass(frozen=True)
class MatchReport:
    trajectories: dict           # model name -> list of (radius, value)
    finals: dict                 # model name -> final value
    trends: dict                 # model name -> trend flag
    ranking: tuple               # names sorted by final value
    best: str | None

    def margin(self, name_a: str, name_b: str) -> float:
        """finals[name_b] / finals[name_a] (how much worse b is than a)."""
        a, b = self.finals[name_a], self.finals[name_b]
        if a <= 0:
            return math.inf
        return b / a


def match_tangent(
    seq: BlowupSequence,
    models: dict[str, PointedSpace],
    R_grid: Sequence[float] | None = None,
    seed: int = 0,
    **pmgh_kwargs,
) -> MatchReport:
    """Rank model tangents by their surrogate-distance trajectory along the sequence.

    Models must be normalized and windowed like the members (see
    :func:`normalize_window`).
    """
    usable = seq.usable_members()
    if not usable:
        raise ValueError("blow-up sequence has no usable members")
    trajectories: dict = {}
    finals: dict = {}
    trends: dict = {}
    for name, model in models.items():
        diag = convergence_diagnostic(
            [(m.radius, m.space) for m in usable], model,
            R_grid=R_grid, seed=seed, **pmgh_kwargs,
        )
        trajectories[name] = [(label, val) for label, val, _ in diag["rows"]]
        finals[name] = trajectories[name][-1][1]
        trends[name] = diag["trend"]
    ranking = tuple(sorted(finals, key=lambda k: finals[k]))
    return MatchReport(trajectories=trajectories, finals=finals, trends=trends,
                       ranking=ranking, best=ranking[0] if ranking else None)


@dataclass(frozen=True)
class IteratedTangentReport:
    y_prime: int                 # global index of the re-pointing target in the tangent
    offset_requested: float
    offset_actual: float
    comparisons: tuple           # rows (rho, original_radius, value)
    best_value: float
    best_pair: tuple | None


def iterated_tangent_check(
    ps: PointedSpace,
    radii: Sequence[float],
    offset: float = 1.0,
    window: float = 8.0,
    inner_radii: Sequence[float] | None = None,
    **pmgh_kwargs,
) -> IteratedTangentReport:
    """Blow up, re-point the finest tangent approximation, blow up again.

    The tangent-of-tangent members are compared against the original
    blow-up family; small minima support the inclusion of iterated
    tangents among the original tangents at desk scale.
    """
    if inner_radii is None:
        inner_radii = (0.5,)
    seq = blowup(ps, radii, window=window)
    # tangent approximation: the finest member that the inner blow-up can
    # still zoom without dropping below the resolution gate
    rho_min = min(inner_radii)
    member = None
    for m in seq.usable_members():
        if m.relative_resolution / rho_min <= window / 4.0:
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
        for om in seq.usable_members():
            est = pmgh_distance(im.space, om.space, **pmgh_kwargs)
            rows.append((im.radius, om.radius, est.value))
            if est.value < best:
                best = est.value
                best_pair = (im.radius, om.radius)
    return IteratedTangentReport(
        y_prime=y_prime, offset_requested=float(offset), offset_actual=actual,
        comparisons=tuple(rows), best_value=best, best_pair=best_pair,
    )


# ---------------------------------------------------------------------------
# Line detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineCandidate:
    chain: np.ndarray        # point indices ordered along the line
    params: np.ndarray       # arc-length parameters; 0 at the center point
    center_pos: int          # position of the basepoint within the chain
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


_EXACT = 1e-9   # an excess at or below this counts as on the geodesic


def _line_ends(D: np.ndarray, base: int, L: float, step: float, eps: float):
    """End pair (p, q) of :func:`detect_line` and every point's excess for it."""
    shell = np.flatnonzero(np.abs(D[base] - L) <= step)
    if shell.size < 2:
        return None
    Ds = D[np.ix_(shell, shell)]
    at_base = D[base, shell][:, None] + D[base, shell] - Ds
    tie = at_base <= at_base.min() + _EXACT
    far = np.argmax(np.where(tie, Ds, -1.0), axis=1)
    pairs = np.stack([shell, shell[far]], axis=1)[tie.any(axis=1)]
    P, Q = np.unique(np.sort(pairs, axis=1), axis=0).T
    span = D[P, Q]
    # a pair covers at most `top` bins: score the pairs that can reach the
    # longest spans' coverage, then, if none does, those that can reach the best
    top = np.floor((span + _EXACT) / step) + 1
    need = top.max()
    while True:
        sel = top >= need
        excess = D[P[sel]] + D[Q[sel]] - span[sel, None]
        rows, cols = np.nonzero(excess <= _EXACT)
        occupied = np.zeros((sel.sum(), int(top.max()) + 1), dtype=bool)
        occupied[rows, (D[P[sel][rows], cols] / step).astype(int)] = True
        bins = occupied.sum(axis=1)
        if bins.max() >= need:
            break
        need = bins.max()
    n_tube = (excess <= 0.5 * eps).sum(axis=1)
    k = np.lexsort((Q[sel], P[sel], n_tube, -span[sel], -bins))[0]
    return int(P[sel][k]), int(Q[sel][k]), excess[k]


def _walk(D: np.ndarray, base: int, end: int, tube: np.ndarray, excess: np.ndarray,
          step: float, L: float) -> tuple[list[int], list[float]]:
    """One arm of :func:`detect_line`: its points and running parameters."""
    chain: list[int] = []
    params: list[float] = []
    prev, s = base, 0.0
    while s < L:
        cand = tube[(np.abs(D[prev, tube] - step) <= 0.75 * step)
                    & (D[end, tube] < D[end, prev])]
        if cand.size == 0:
            break
        s_cand = s + D[prev, cand]
        k = np.lexsort((cand, np.abs(s_cand - (len(chain) + 1) * step),
                        excess[cand] > _EXACT))[0]
        prev, s = int(cand[k]), float(s_cand[k])
        chain.append(prev)
        params.append(s)
    return chain, params


def detect_line(ps: PointedSpace, L: float, eps: float) -> LineCandidate | None:
    """Find an eps-additive chain reaching L on each side of the base.

    Abresch-Gromoll excess construction, with step = max(1.2 h, L/48) and
    "exact" meaning an excess of at most 1e-9:

    - the ends p, q lie on the shell |d(base, .) - L| <= step and have the
      least excess d(p, base) + d(base, q) - d(p, q) at the base (to within
      1e-9); each p keeps its farthest such partner, and among the pairs
      the most step bins of d(p, .) holding an exact point win, then the
      longest span, then the fewest points of excess <= eps/2, then the
      lowest indices;
    - each arm walks the points of excess d(p, x) + d(x, q) - d(p, q)
      <= eps/2 from the base towards its end, one step at a time, to a
      point 0.25 to 1.75 steps from the previous one and nearer the end:
      exact points first (the arm keeps to a sampled geodesic where there
      is one), then the least |s + d(prev, x) - k step| (s the running
      parameter, k the step number), then the lowest index; an arm stops
      once s reaches L;
    - ``params`` are the running sums of chain distances from the base,
      positive on the arm whose first point has the lower index.

    The chain is returned only if both arms reach L - step and its additive
    defect over all chain pairs (``eps_line``) is at most eps; else None.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    D = ps.space.metric
    base = ps.base
    step = max(1.2 * ps.space.declared_resolution(), L / 48.0)
    ends = _line_ends(D, base, L, step, eps)
    if ends is None:
        return None
    p, q, excess = ends
    tube = np.flatnonzero(excess <= 0.5 * eps)
    arms = [_walk(D, base, end, tube, excess, step, L) for end in (p, q)]
    if not (arms[0][0] and arms[1][0]):
        return None
    (pos, pos_pr), (neg, neg_pr) = sorted(arms, key=lambda arm: arm[0][0])
    chain = np.array(neg[::-1] + [base] + pos, dtype=int)
    params = np.array([-s for s in neg_pr[::-1]] + [0.0] + pos_pr)
    if params[-1] < L - step or -params[0] < L - step:
        return None
    eps_line = float(np.abs(D[np.ix_(chain, chain)]
                            - np.abs(params[:, None] - params[None, :])).max())
    if eps_line > eps:
        return None
    return LineCandidate(chain=chain, params=params, center_pos=len(neg),
                         eps_line=eps_line, length=float(params[-1] - params[0]))


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
    delta_measure: float
    window: float
    rep_idx: np.ndarray          # representative indices into the input space

    def summary(self) -> str:
        return (f"quotient {self.quotient.n} pts, delta_metric {self.delta_metric:.4g}, "
                f"delta_measure {self.delta_measure:.4g}")


def _foot_parameters(D2_chain: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Parabolic vertex of s -> d(x, chain(s))^2 around the discrete argmin.

    Exact on metric products (where the profile is exactly quadratic in s).
    """
    n, m = D2_chain.shape
    i = np.argmin(D2_chain, axis=1)
    i = np.clip(i, 1, m - 2)
    rows = np.arange(n)
    s1, s2, s3 = params[i - 1], params[i], params[i + 1]
    f1, f2, f3 = D2_chain[rows, i - 1], D2_chain[rows, i], D2_chain[rows, i + 1]
    # vertex of the parabola through three (s, f) samples
    denom = (s1 - s2) * (f2 - f3) - (s2 - s3) * (f1 - f2)
    num = (s1 - s2) * (s1 + s2) * (f2 - f3) - (s2 - s3) * (s2 + s3) * (f1 - f2)
    safe = np.abs(denom) > 1e-300
    out = params[i].astype(float)
    out[safe] = 0.5 * num[safe] / denom[safe]
    return out


_FIBER_SAMPLE = 48     # points per fiber in the quotient-metric average
_ROW_BLOCK = 32        # rows per block of the exact metric defect (cache-sized)


def split(ps: PointedSpace, line: LineCandidate, window: float | None = None) -> SplitResult:
    """Factor an approximate line off the space around the basepoint.

    Computes a Busemann-type coordinate b from the chain (foot-point
    parameter, exact on products), slices the central level set
    |b| <= 1.5 max(h, step/2) into representatives (points whose quotient
    distance is within h/2 merge), averages the quotient metric
    d'(p,q)^2 = max(0, d^2 - (b-b)^2) over up to 48 evenly strided points
    of each fiber pair, and pushes the measure forward with per-fiber
    extent normalization. ``delta_metric`` is the exact maximum over all
    pairs of windowed points of |d^2 - (b-b)^2 - d'^2|^(1/2); both defects
    are reported, and the split refuses windows the chain does not dominate.
    """
    space = ps.space
    D = space.metric
    chain, params = line.chain, line.params
    step = max(line.step, 1e-12)
    t_plus, t_minus = float(params.max()), float(-params.min())
    if window is None:
        window = min(t_plus, t_minus) - 1.3 * step
    if window <= step:
        raise LineTooShortError("window collapses below one chain step")
    # foot-point fitting needs an interior argmin: the chain must extend
    # beyond the window on both sides
    if t_plus < window + 1.25 * step or t_minus < window + 1.25 * step:
        raise LineTooShortError(
            f"chain reaches ({t_minus:.3g}, {t_plus:.3g}) but the split window "
            f"{window:.3g} needs a chain step beyond it on each side")

    h = space.declared_resolution()
    idx = np.flatnonzero(D[ps.base] <= window)
    Dw = D[np.ix_(idx, idx)]
    ww = space.weights[idx]
    base_pos = int(np.searchsorted(idx, ps.base))

    b = _foot_parameters(D[np.ix_(idx, chain)] ** 2, params)
    b = b - b[base_pos]

    half = 1.5 * max(h, step / 2.0)
    slice_mask = np.abs(b) <= half
    slice_pos = np.flatnonzero(slice_mask)
    if slice_pos.size == 0:
        raise LineTooShortError("empty central slice; resolution too coarse")

    # cluster the slice by the quotient pseudo-metric into representatives
    tol = 0.5 * h
    order = slice_pos[np.lexsort((slice_pos, -ww[slice_pos]))]
    reps: list[int] = []
    members: list[list[int]] = []
    for p in order:
        placed = False
        for k, r in enumerate(reps):
            dq2 = Dw[p, r] ** 2 - (b[p] - b[r]) ** 2
            if dq2 <= tol * tol:
                members[k].append(int(p))
                placed = True
                break
        if not placed:
            reps.append(int(p))
            members.append([int(p)])
    # mass-weighted medoids
    for k, mem in enumerate(members):
        if len(mem) > 1:
            mem_arr = np.asarray(mem)
            sub = np.sqrt(np.maximum(
                Dw[np.ix_(mem_arr, mem_arr)] ** 2
                - (b[mem_arr][:, None] - b[mem_arr][None, :]) ** 2, 0.0))
            cost = (sub * ww[mem_arr][None, :]).sum(axis=1)
            reps[k] = int(mem_arr[np.argmin(cost)])
    reps_arr = np.asarray(reps, dtype=int)

    # assign every windowed point to its nearest representative fiber
    dq2_all = np.maximum(Dw[:, reps_arr] ** 2 - (b[:, None] - b[reps_arr][None, :]) ** 2, 0.0)
    assign = np.argmin(dq2_all, axis=1)

    M = len(reps_arr)
    dprime2 = np.zeros((M, M))
    fibers = [np.flatnonzero(assign == k) for k in range(M)]
    samples = []
    for f in fibers:
        if len(f) > _FIBER_SAMPLE:
            f = f[::len(f) // _FIBER_SAMPLE][:_FIBER_SAMPLE]
        samples.append(f)
    for a in range(M):
        fa = samples[a]
        if fa.size == 0:
            continue
        for c in range(a + 1, M):
            fc = samples[c]
            if fc.size == 0:
                continue
            block = np.maximum(
                Dw[np.ix_(fa, fc)] ** 2 - (b[fa][:, None] - b[fc][None, :]) ** 2, 0.0)
            wts = np.outer(ww[fa], ww[fc])
            dprime2[a, c] = dprime2[c, a] = float((block * wts).sum() / wts.sum())
    dprime = np.sqrt(np.maximum(dprime2, 0.0))

    # pushforward weights with per-fiber extent normalization
    wq = np.zeros(M)
    for k, f in enumerate(fibers):
        if f.size == 0:
            wq[k] = 0.0
            continue
        extent = float(b[f].max() - b[f].min()) + max(h, step)
        wq[k] = float(ww[f].sum()) / extent

    q_points = tuple(space.points[idx[r]] for r in reps_arr)
    quotient_space = FiniteSpace(points=q_points, metric=dprime, weights=wq,
                                 resolution=space.resolution)
    quotient = PointedSpace(quotient_space, int(assign[base_pos]))

    # metric defect: exact maximum over all pairs, one block of rows at a time
    q2 = (dprime ** 2)[assign]
    resid = max(float(np.abs(Dw[r] ** 2 - (b[r, None] - b) ** 2 - q2[r][:, assign]).max())
                for r in (slice(lo, lo + _ROW_BLOCK) for lo in range(0, len(idx), _ROW_BLOCK)))
    delta_metric = float(np.sqrt(resid))

    delta_measure = _product_measure_defect(
        b, ww, assign, dprime, wq, int(assign[base_pos]), window)

    return SplitResult(
        b=b, window_idx=idx, quotient=quotient, assignment=assign,
        delta_metric=delta_metric, delta_measure=delta_measure,
        window=float(window), rep_idx=idx[reps_arr],
    )


def _product_measure_defect(b, ww, assign, dprime, wq, base_rep, window) -> float:
    """Relative LP discrepancy between the measure and the product m' x length.

    Histograms over (fiber group, b-bin) cells are compared on the central
    box |b| <= window/sqrt(2), restricted to fibers the box genuinely
    crosses, and matched with the teleportation transport LP.
    """
    box = window / math.sqrt(2.0)
    keep = np.flatnonzero(dprime[base_rep] <= 0.9 * box)
    if keep.size == 0:
        keep = np.array([base_rep])
    n_bins = 12
    edges = np.linspace(-box, box, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    binwidth = edges[1] - edges[0]
    kept_pos = {int(k): i for i, k in enumerate(keep)}
    groups = np.arange(len(keep))
    if len(keep) > 32:  # coarsen fibers for the LP
        groups = np.arange(len(keep)) // (len(keep) // 32 + 1)
    n_groups = int(groups.max()) + 1

    actual = np.zeros((n_groups, n_bins))
    product = np.zeros((n_groups, n_bins))
    for i, k in enumerate(keep):
        product[groups[i], :] += wq[k] * binwidth
    inside = (np.abs(b) <= box) & np.isin(assign, keep)
    pos = np.array([kept_pos[int(a)] for a in assign[inside]], dtype=int)
    which = np.clip(np.searchsorted(edges, b[inside], side="right") - 1, 0, n_bins - 1)
    np.add.at(actual, (groups[pos], which), ww[inside])

    # cell metric: quotient distance between group medoids + b-bin offset
    reps_of_group = [keep[np.flatnonzero(groups == g)[0]] for g in range(n_groups)]
    gm = dprime[np.ix_(reps_of_group, reps_of_group)]
    cell_d = np.sqrt(gm[:, :, None, None] ** 2
                     + (centers[None, None, :, None] - centers[None, None, None, :]) ** 2)
    na = n_groups * n_bins
    cost_full = cell_d.transpose(0, 2, 1, 3).reshape(na, na)
    wa = actual.reshape(na)
    wb = product.reshape(na)
    gap = transport_lp(cost_full, wa, wb, teleport=TELEPORT_COST)[1]
    total = max(wa.sum(), 1e-300)
    return float(gap / total)


# ---------------------------------------------------------------------------
# Dimension iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionConfig:
    """Parameters of the blow-up / detect-line / split iteration.

    Each stage blows the current space up at one radius (1 at the first
    stage; later stages zoom the quotient back out to fill the window) with
    at least 3 sample spacings per window radius, finds a line with
    :func:`detect_line` (the excess construction, certified by its additive
    defect ``eps_line`` and its length) and splits it off with
    :func:`split`, whose ``delta_metric`` is exact over all pairs. A stage
    is inconclusive when that defect exceeds max(8h, 0.05 window); the
    iteration stops when a quotient has fewer than 4 points.
    """

    N: float                              # dimension budget; at most floor(N) factors
    window: float = 4.0
    line_length: float | None = None      # default 0.9 * window
    line_eps: float | None = None         # default max(1.5h, 0.025 * window)


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


def euclidean_dimension(ps: PointedSpace, config: DimensionConfig) -> tuple[int, DimensionTrace]:
    """Iterate blow-up, line detection and splitting to count line factors.

    Stops when no line is found, a split is refused or exceeds its defect
    tolerance, the quotient degenerates, or the dimension budget floor(N)
    is reached. The returned count never exceeds floor(N).
    """
    budget = int(math.floor(config.N))
    records: list[StageRecord] = []
    current = ps
    n = 0
    reason = "dimension budget reached"
    for stage in range(budget):
        radius = 1.0
        if stage > 0:
            # zoom the (smaller) quotient back out to fill the window
            radius = min(1.0, 0.95 * float(current.base_distances().max()) / config.window)
        seq = blowup(current, (radius,), window=config.window, min_cells=3.0)
        member = seq.finest_usable()
        if member is None:
            reason = "no usable blow-up member"
            records.append(StageRecord(stage, float("nan"), 0, None, None,
                                       None, None, None, "degenerate"))
            break
        Y = member.space
        h = Y.space.declared_resolution()
        L = config.line_length if config.line_length is not None else 0.9 * config.window
        eps = config.line_eps if config.line_eps is not None else max(1.5 * h, 0.025 * config.window)
        line = detect_line(Y, L, eps)
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
        tol = max(8.0 * h, 0.05 * config.window)
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
