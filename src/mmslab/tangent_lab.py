"""Blow-up sequences, tangent matching, line detection and splitting.

The experimental side of the lab: rescale-and-renormalize a space at a
point, compare the members against model tangents, find approximate lines
through the basepoint, factor them off with a Busemann-type coordinate,
and iterate to count Euclidean dimensions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    resolution: float | None = None,
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
    h = resolution if resolution is not None else ps.space.declared_resolution()
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
    seed: int = 0,
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
            est = pmgh_distance(im.space, om.space, seed=seed, **pmgh_kwargs)
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


def _grow_arm(
    D: np.ndarray,
    base: int,
    fixed_chain: np.ndarray,
    fixed_params: np.ndarray,
    target_len: float,
    step: float,
    eps: float,
    beam: int,
    sign: float,
) -> list[tuple[list[int], list[float]]]:
    """Beam-grow one arm from the base against an already fixed partial chain.

    States carry (arm point list, arm params, worst defect); defects are
    measured against the fixed chain plus the arm so far, so additivity
    across the basepoint is enforced when the other arm is the fixed part.
    """
    states: list[tuple[list[int], list[float], float]] = [([], [], 0.0)]
    slack = max(eps, 0.75 * step)
    done: list[tuple[list[int], list[float], float]] = []
    while states:
        new_states = []
        for arm, arm_pr, worst in states:
            arm_end = arm[-1] if arm else base
            s_end = arm_pr[-1] if arm_pr else 0.0
            if abs(s_end) >= target_len:
                done.append((arm, arm_pr, worst))
                continue
            s_next = s_end + sign * step
            cand = np.flatnonzero(
                (np.abs(D[arm_end] - step) <= 0.75 * step)
                & (np.abs(D[base] - abs(s_next)) <= slack)
            )
            cand = cand[cand != arm_end]
            if cand.size == 0:
                done.append((arm, arm_pr, worst))
                continue
            if cand.size > 24:
                order = np.argsort(np.abs(D[base, cand] - abs(s_next)), kind="stable")
                cand = cand[order[:24]]
            ch_arr = np.concatenate([fixed_chain, np.asarray(arm, dtype=int)]).astype(int)
            pr_arr = np.concatenate([fixed_params, np.asarray(arm_pr, dtype=float)])
            grew = False
            for q in cand:
                s_q = s_end + sign * D[arm_end, q]
                defect = float(np.abs(D[q, ch_arr] - np.abs(s_q - pr_arr)).max())
                if defect <= eps:
                    new_states.append((arm + [int(q)], arm_pr + [float(s_q)],
                                       max(worst, defect)))
                    grew = True
            if not grew:
                done.append((arm, arm_pr, worst))
        new_states.sort(key=lambda t: (t[2], abs(abs(t[1][-1]) - (len(t[0])) * step)))
        states = new_states[:beam]
    done.sort(key=lambda t: (-abs(t[1][-1]) if t[1] else 0.0, t[2]))
    return [(a, p) for a, p, _ in done[:beam]] or [([], [])]


def detect_line(
    ps: PointedSpace,
    L: float,
    eps: float,
    step: float | None = None,
    beam: int = 4,
) -> LineCandidate | None:
    """Search for an eps-additive chain of length L on each side of the base.

    Greedy beam extension over candidate points filtered by distance rings,
    right arm first, then the left arm against the full right chain;
    returns the longest candidate whose pairwise additive defect stays at
    or below eps, else None.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    space = ps.space
    D = space.metric
    base = ps.base
    if D[base].max() < L - eps:
        return None
    h = space.declared_resolution()
    if step is None:
        step = max(1.2 * h, L / 48.0)

    best: LineCandidate | None = None
    base_chain = np.array([base], dtype=int)
    base_param = np.array([0.0])
    for r_arm, r_pr in _grow_arm(D, base, base_chain, base_param, L, step, eps, beam, +1.0):
        if not r_arm:
            continue
        fixed_chain = np.concatenate([base_chain, np.asarray(r_arm, dtype=int)])
        fixed_params = np.concatenate([base_param, np.asarray(r_pr)])
        for l_arm, l_pr in _grow_arm(D, base, fixed_chain, fixed_params, L, step, eps, beam, -1.0):
            chain = np.concatenate([fixed_chain, np.asarray(l_arm, dtype=int)]).astype(int)
            params = np.concatenate([fixed_params, np.asarray(l_pr)])
            order = np.argsort(params, kind="stable")
            ch, pr = chain[order], params[order]
            if pr.max() < L - step or -pr.min() < L - step:
                continue
            gap = np.abs(D[np.ix_(ch, ch)] - np.abs(pr[:, None] - pr[None, :]))
            eps_line = float(gap.max())
            if eps_line > eps:
                continue
            cand = LineCandidate(
                chain=ch, params=pr,
                center_pos=int(np.argwhere(ch == base)[0][0]),
                eps_line=eps_line, length=float(pr.max() - pr.min()),
            )
            if best is None or (cand.length, -cand.eps_line) > (best.length, -best.eps_line):
                best = cand
    return best


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


def split(
    ps: PointedSpace,
    line: LineCandidate,
    window: float | None = None,
    slice_width: float | None = None,
    merge_tol: float | None = None,
    fiber_sample: int = 48,
    pair_budget: int = 4_000_000,
    seed: int = 0,
) -> SplitResult:
    """Factor an approximate line off the space around the basepoint.

    Computes a Busemann-type coordinate b from the chain (foot-point
    parameter, exact on products), slices the central level set into
    representatives, averages the quotient metric
    d'(p,q)^2 = max(0, d^2 - (b-b)^2) over fiber pairs, and pushes the
    measure forward with per-fiber extent normalization. Both defects are
    reported; the split refuses windows the chain does not dominate.
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

    half = 1.5 * (slice_width if slice_width is not None else max(h, step / 2.0))
    slice_mask = np.abs(b) <= half
    slice_pos = np.flatnonzero(slice_mask)
    if slice_pos.size == 0:
        raise LineTooShortError("empty central slice; resolution too coarse")

    # cluster the slice by the quotient pseudo-metric into representatives
    tol = merge_tol if merge_tol is not None else 0.5 * h
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
    rng = np.random.default_rng(seed)
    fibers = [np.flatnonzero(assign == k) for k in range(M)]
    samples = []
    for f in fibers:
        if len(f) > fiber_sample:
            stride = max(1, len(f) // fiber_sample)
            f = f[::stride][:fiber_sample]
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

    # metric defect over (sampled) pairs
    n = len(idx)
    if n * n <= pair_budget:
        ii = np.repeat(np.arange(n), n)
        jj = np.tile(np.arange(n), n)
    else:
        ii = rng.integers(0, n, size=pair_budget)
        jj = rng.integers(0, n, size=pair_budget)
    resid = np.abs(Dw[ii, jj] ** 2 - (b[ii] - b[jj]) ** 2
                   - dprime[assign[ii], assign[jj]] ** 2)
    delta_metric = float(np.sqrt(resid.max()))

    delta_measure = _product_measure_defect(
        b, ww, assign, dprime, wq, int(assign[base_pos]), window, h, step)

    return SplitResult(
        b=b, window_idx=idx, quotient=quotient, assignment=assign,
        delta_metric=delta_metric, delta_measure=delta_measure,
        window=float(window), rep_idx=idx[reps_arr],
    )


def _product_measure_defect(b, ww, assign, dprime, wq, base_rep, window, h, step) -> float:
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
    gap = transport_lp(np.minimum(cost_full, TELEPORT_COST), wa, wb, teleport=TELEPORT_COST)[1]
    total = max(wa.sum(), 1e-300)
    return float(gap / total)


# ---------------------------------------------------------------------------
# Dimension iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionConfig:
    """Parameters of the blow-up / detect-line / split iteration."""

    N: float                              # dimension budget; at most floor(N) factors
    radii: tuple = (1.0,)                 # stage-1 blow-up radii
    later_radii: tuple | None = None      # None: zoom quotients to refill the window
    window: float = 4.0
    line_length: float | None = None      # default 0.9 * window
    line_eps: float | None = None         # default max(1.5h, 0.025 * window)
    defect_tol: float | None = None       # default max(8h, 0.05 * window)
    min_quotient_points: int = 4
    min_cells: float = 3.0        # usability gate for stage members
    seed: int = 0


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
        if stage == 0:
            radii = config.radii
        elif config.later_radii is not None:
            radii = config.later_radii
        else:
            # zoom the (smaller) quotient back out to fill the window
            reach = float(current.base_distances().max())
            radii = (min(1.0, 0.95 * reach / config.window),)
        seq = blowup(current, radii, window=config.window, min_cells=config.min_cells)
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
            res = split(Y, line, seed=config.seed)
        except LineTooShortError as exc:
            reason = f"split refused: {exc}"
            records.append(StageRecord(stage, member.radius, Y.n, line.length,
                                       line.eps_line, None, None, None, "refused"))
            break
        tol = config.defect_tol if config.defect_tol is not None else max(8.0 * h, 0.05 * config.window)
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
        if (current.n < config.min_quotient_points
                or current.space.diameter < 2.5 * current.space.declared_resolution()):
            reason = "quotient degenerate"
            break
    assert n <= budget, "factor count exceeded the dimension budget"
    return n, DimensionTrace(records=tuple(records), remainder=current,
                             stopped_because=reason)
