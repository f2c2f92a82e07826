"""A computable surrogate for pointed measured Gromov-Hausdorff distance.

The surrogate compares dyadic balls around the basepoints through a
correspondence: half the metric distortion plus a teleportation-style
transport discrepancy between the ball measures, summed over surviving
radii with weights 2^-k and capped at 1 per radius. Every measure gap is
the exact teleport LP value through the relation, so isometric balls read
0. The size of the two balls picks each radius's search: at most
EXHAUSTIVE_POINT_LIMIT = 9 ball points in total, the exact infimum by the
maximal cliques of pairs at each distortion level; above that, an anneal
that returns an upper bound with its certificate correspondence. Balls of
more than ANNEAL_POINT_LIMIT = 2,500 points raise PmghBudgetError before
any search (CLI exit 3).

Each radius also gets a relation-free lower bound: half the 1-D Hausdorff
distance between the base-distance profiles or between the within-ball
eccentricities, plus the teleport cost of the mass difference. It bounds
an annealed radius's term from below, and a radius whose bound passes 1 is
saturated: its term is 1 without a search, certified by the profile
matching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PointedSpace
from .transport import transport_lp

__all__ = [
    "Correspondence",
    "PmghEstimate",
    "CoverageError",
    "PmghBudgetError",
    "distortion",
    "measure_gap",
    "pmgh_distance",
]

DEFAULT_RADII = (1.0, 2.0, 4.0, 8.0)
TELEPORT_COST = 1.0
EXHAUSTIVE_POINT_LIMIT = 9     # total ball points of a radius searched exactly
ANNEAL_POINT_LIMIT = 2_500     # total ball points of any searched radius
BOUND_MARGIN = 1e-6            # how far a radius's lower bound must pass 1 to skip its search


class CoverageError(ValueError):
    """Correspondence fails to cover the compared balls (or misses the base pair)."""


class PmghBudgetError(RuntimeError):
    """The balls exceed ANNEAL_POINT_LIMIT."""


@dataclass(frozen=True)
class Correspondence:
    """Relation between two spaces as an array of global index pairs."""

    pairs: np.ndarray  # (k, 2) ints: (index in A, index in B)

    def __post_init__(self) -> None:
        p = np.asarray(self.pairs, dtype=int).reshape(-1, 2).copy()
        p.setflags(write=False)
        object.__setattr__(self, "pairs", p)

    def swap(self) -> "Correspondence":
        return Correspondence(self.pairs[:, ::-1])


@dataclass(frozen=True)
class _Ball:
    idx: np.ndarray      # global indices
    D: np.ndarray        # restricted metric
    w: np.ndarray        # weights
    base: int            # local index of the basepoint


def _ball(ps: PointedSpace, R: float) -> _Ball:
    """Extract the open R-ball in canonical point order.

    Points are sorted by (distance to base, weight, sorted distance row),
    base first, so the downstream correspondence search is invariant under
    relabelings of the input space (up to genuine symmetry orbits).
    """
    d = ps.base_distances()
    idx = np.flatnonzero(d < R)
    D = ps.space.metric[np.ix_(idx, idx)]
    w = ps.space.weights[idx]
    base = int(np.searchsorted(idx, ps.base))
    rows_sorted = np.sort(D, axis=1)
    profile = np.unique(rows_sorted.round(12), axis=0, return_inverse=True)[1]
    order = np.lexsort((profile, w.round(12), D[base].round(12)))
    order = np.concatenate(([base], order[order != base]))
    return _Ball(idx=idx[order], D=D[np.ix_(order, order)], w=w[order], base=0)


def _local_pairs(ball_a: _Ball, ball_b: _Ball, corr: Correspondence) -> np.ndarray:
    """Map global pairs to ball-local ones, checking coverage and the base pair."""
    pos_a = {int(g): k for k, g in enumerate(ball_a.idx)}
    pos_b = {int(g): k for k, g in enumerate(ball_b.idx)}
    loc = []
    for ga, gb in corr.pairs:
        ka, kb = pos_a.get(int(ga)), pos_b.get(int(gb))
        if ka is not None and kb is not None:
            loc.append((ka, kb))
    if not loc:
        raise CoverageError("correspondence has no pair inside the balls")
    loc_arr = np.asarray(loc, dtype=int)
    if not np.isin(np.arange(len(ball_a.idx)), loc_arr[:, 0]).all():
        raise CoverageError("correspondence does not cover the first ball")
    if not np.isin(np.arange(len(ball_b.idx)), loc_arr[:, 1]).all():
        raise CoverageError("correspondence does not cover the second ball")
    if not ((loc_arr[:, 0] == ball_a.base) & (loc_arr[:, 1] == ball_b.base)).any():
        raise CoverageError("correspondence misses the basepoint pair")
    return loc_arr


def _distortion_local(DA: np.ndarray, DB: np.ndarray, loc: np.ndarray) -> float:
    xs, ys = loc[:, 0], loc[:, 1]
    m = len(xs)
    worst = 0.0
    step = max(1, 4_000_000 // max(m, 1))
    for k0 in range(0, m, step):
        k1 = min(m, k0 + step)
        block = np.abs(DA[np.ix_(xs[k0:k1], xs)] - DB[np.ix_(ys[k0:k1], ys)])
        worst = max(worst, float(block.max()))
    return 0.5 * worst


def distortion(A: PointedSpace, B: PointedSpace, corr: Correspondence, R: float) -> float:
    """Half the worst metric mismatch of the correspondence on the R-balls."""
    ball_a, ball_b = _ball(A, R), _ball(B, R)
    loc = _local_pairs(ball_a, ball_b, corr)
    return _distortion_local(ball_a.D, ball_b.D, loc)


def _glued_below_cap(DA, DB, loc) -> np.ndarray:
    """Glued cost min over pairs (x, y) of d_A(i, x) + d_B(y, j), built only
    below the cap: a sum below TELEPORT_COST has both terms below it, so
    each pair fills just the rows within the cap of x and the columns
    within the cap of y. Entries below the cap equal the dense min-plus
    product's bit for bit; the others are inf or some sum above the cap."""
    glued = np.full((DA.shape[0], DB.shape[1]), np.inf)
    near_a = DA[:, loc[:, 0]] < TELEPORT_COST
    near_b = DB[loc[:, 1], :] < TELEPORT_COST
    for k, (x, y) in enumerate(loc):
        I, J = np.flatnonzero(near_a[:, k]), np.flatnonzero(near_b[k])
        block = np.ix_(I, J)
        glued[block] = np.minimum(glued[block], DA[I, x][:, None] + DB[y, J][None, :])
    return glued


def _gap_lp(DA, DB, wa, wb, loc) -> float:
    """Teleportation transport LP between ball measures through the relation.

    Mass moves at the glued cost min over pairs (x, y) of d_A(i, x) +
    d_B(y, j), zero along corr pairs and capped at 1 by the kernel;
    creating or destroying mass costs 1 per unit. Zero exactly iff the
    relation transports one measure onto the other. Only the glued entries
    below the cap are built, each pair (x, y) filling the rows within 1 of
    x and the columns within 1 of y (``_glued_below_cap``); the kernel
    prices every other entry at 1, so the value is the dense glued cost's.
    """
    if loc.shape[0] == len(wa) == len(wb):
        # bijective relation with identical masses transports exactly
        if len(np.unique(loc[:, 0])) == len(wa) and len(np.unique(loc[:, 1])) == len(wb):
            if np.array_equal(wa[loc[:, 0]], wb[loc[:, 1]]):
                return 0.0
    glued = _glued_below_cap(DA, DB, loc)
    return transport_lp(glued, wa, wb, teleport=TELEPORT_COST)[1]


def measure_gap(A: PointedSpace, B: PointedSpace, corr: Correspondence, R: float) -> float:
    """Transport-with-teleportation discrepancy of the ball measures through corr."""
    ball_a, ball_b = _ball(A, R), _ball(B, R)
    loc = _local_pairs(ball_a, ball_b, corr)
    return _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc)


def _evaluate(ball_a: _Ball, ball_b: _Ball, loc: np.ndarray) -> tuple[float, float]:
    """Distortion and measure gap of a ball-local relation."""
    return (_distortion_local(ball_a.D, ball_b.D, loc),
            _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc))


def _hausdorff_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite sets of reals."""
    a, b = np.sort(a), np.sort(b)

    def farthest(x, y):  # largest distance from a point of x to its nearest in y
        k = np.searchsorted(y, x)
        below, above = y[np.maximum(k - 1, 0)], y[np.minimum(k, len(y) - 1)]
        return float(np.minimum(np.abs(x - below), np.abs(above - x)).max())

    return max(farthest(a, b), farthest(b, a))


def _lower_bound(ball_a: _Ball, ball_b: _Ball) -> float:
    """Lower bound on distortion + measure gap over every relation that
    covers both balls and holds the base pair, as every searched one does.

    Each point x lies in some pair (x, y), and the base pair is in the
    relation, so |d(x, x0) - d(y, y0)| is at most twice the distortion; so
    is |ecc(x) - ecc(y)|, the eccentricities within the balls, since the
    farthest point from x pairs with a point at most that much nearer to y.
    Half the 1-D Hausdorff distance between the base-distance profiles, and
    between the eccentricities (Memoli's first lower bound, FoCM 2011),
    thus bounds the distortion. The gap LP pays TELEPORT_COST for every
    unit of mass one ball has over the other.
    """
    DA, DB = ball_a.D, ball_b.D
    half = 0.5 * max(_hausdorff_1d(DA[ball_a.base], DB[ball_b.base]),
                     _hausdorff_1d(DA.max(axis=1), DB.max(axis=1)))
    return half + TELEPORT_COST * abs(float(ball_a.w.sum()) - float(ball_b.w.sum()))


def _unique_pairs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The distinct (x, y) pairs of a relation, sorted."""
    return np.unique(np.stack([xs, ys], axis=1), axis=0)


# ---------------------------------------------------------------------------
# Correspondence search
# ---------------------------------------------------------------------------

def _features(D: np.ndarray, w: np.ndarray, base: int) -> np.ndarray:
    mass = max(float(w.sum()), 1e-300)
    mean_d = (D * w[None, :]).sum(axis=1) / mass
    rms_d = np.sqrt((D**2 * w[None, :]).sum(axis=1) / mass)
    return np.stack([D[base], mean_d, rms_d], axis=1)


def _mds_embedding(D: np.ndarray) -> np.ndarray:
    """Classical MDS on the top three positive eigenpairs (at least one column)."""
    n = D.shape[0]
    J = np.eye(n) - 1.0 / n
    B = -0.5 * J @ (D**2) @ J
    vals, vecs = np.linalg.eigh(B)
    order = np.argsort(vals)[::-1][:3]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > max(float(vals.max()), 0.0) * 1e-9
    if not keep.any():
        return np.zeros((n, 1))
    return vecs[:, keep] * np.sqrt(vals[keep])[None, :]


def _pair_arrays(fa, gb, base_a, base_b) -> tuple[np.ndarray, np.ndarray]:
    """Parallel pair arrays xs, ys of graph(fa) union transpose(graph(gb)),
    with the base pair pinned: pair k < len(fa) is (k, fa[k]) and pair
    len(fa) + j is (gb[j], j)."""
    fa, gb = fa.copy(), gb.copy()
    fa[base_a] = base_b
    gb[base_b] = base_a
    return np.concatenate([np.arange(len(fa)), gb]), np.concatenate([fa, np.arange(len(gb))])


class _CorrState:
    """Mapping-pair correspondence with an incrementally updated objective.

    The relation is graph(fa) union transpose(graph(gb)), stored as parallel
    pair arrays xs, ys of length m = na+nb (base pair pinned): pair k < na is
    (k, fa[k]) and pair k >= na is (gb[k-na], k-na). A move reassigns the free
    end of one pair, the B end for k < na and the A end for k >= na, so one
    delta/apply pair serves both sides. The smooth objective is mean squared
    distortion over the pair list plus the pushforward TV mismatch; both
    admit O(m) deltas per move.
    """

    def __init__(self, DA, DB, wa, wb, fa, gb, base_a, base_b):
        self.DA, self.DB, self.wa, self.wb = DA, DB, wa, wb
        self.na, self.nb = len(wa), len(wb)
        self.xs, self.ys = _pair_arrays(fa, gb, base_a, base_b)
        self.m = self.na + self.nb
        delta = self.DA[np.ix_(self.xs, self.xs)] - self.DB[np.ix_(self.ys, self.ys)]
        self.S = float((delta**2).sum())
        self.push_a = np.zeros(self.nb)
        np.add.at(self.push_a, self.ys[: self.na], self.wa)
        self.push_b = np.zeros(self.na)
        np.add.at(self.push_b, self.xs[self.na:], self.wb)

    def objective(self) -> float:
        tv = float(np.abs(self.push_a - self.wb).sum() + np.abs(self.push_b - self.wa).sum())
        return self.S / (self.m * self.m) + tv

    def _move(self, k: int, new: int):
        """Free-end array, the pushforward it feeds with its target weights,
        the mass of pair k, and the moved pair."""
        if k < self.na:
            return self.ys, self.push_a, self.wb, self.wa[k], (k, new)
        return self.xs, self.push_b, self.wa, self.wb[k - self.na], (new, k - self.na)

    def delta(self, k: int, new: int) -> float:
        ends, push, target, wk, (x, y) = self._move(k, new)
        old_end = int(ends[k])
        if old_end == new:
            return 0.0
        old = self.DA[self.xs[k], self.xs] - self.DB[self.ys[k], self.ys]
        row = self.DA[x, self.xs] - self.DB[y, self.ys]
        row[k] = self.DA[x, x] - self.DB[y, y]
        dS = 2.0 * float((row**2).sum() - (old**2).sum())
        tv_old = abs(push[old_end] - target[old_end]) + abs(push[new] - target[new])
        tv_new = (abs(push[old_end] - wk - target[old_end])
                  + abs(push[new] + wk - target[new]))
        return dS / (self.m * self.m) + (tv_new - tv_old)

    def apply(self, k: int, new: int):
        ends, push, _, wk, _ = self._move(k, new)
        push[ends[k]] -= wk
        push[new] += wk
        ends[k] = new

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self.ys[: self.na].copy(), self.xs[self.na:].copy()


def _feature_match(ball_a: _Ball, ball_b: _Ball) -> tuple[np.ndarray, np.ndarray]:
    """Profile matching: each point's nearest neighbour on the other side
    in the scaled ``_features`` (base distance, mean and rms distance)."""
    from scipy.spatial import cKDTree

    FA = _features(ball_a.D, ball_a.w, ball_a.base)
    FB = _features(ball_b.D, ball_b.w, ball_b.base)
    scale = np.maximum(np.abs(FA).max(axis=0), np.abs(FB).max(axis=0))
    scale[scale == 0] = 1.0
    fa = cKDTree(FB / scale).query(FA / scale)[1].astype(int)
    gb = cKDTree(FA / scale).query(FB / scale)[1].astype(int)
    return fa, gb


def _profile_pairs(ball_a: _Ball, ball_b: _Ball) -> np.ndarray:
    """The profile matching as a relation holding the base pair."""
    return _unique_pairs(*_pair_arrays(*_feature_match(ball_a, ball_b),
                                       ball_a.base, ball_b.base))


def _init_candidates(ball_a: _Ball, ball_b: _Ball):
    """fa/gb proposals plus the MDS embeddings used to produce them.

    Candidates: identity, profile matching, and aligned MDS embeddings at
    every truncation depth with all axis permutations, sign flips and
    sampled rotations of the leading eigenplane — degenerate eigenspaces
    (circle harmonics, cone symmetry) leave rotations that sign/permutation
    alignment cannot reach.
    """
    from itertools import permutations, product as iproduct

    from scipy.spatial import cKDTree

    DA, DB, base_a, base_b = ball_a.D, ball_b.D, ball_a.base, ball_b.base
    na, nb = len(ball_a.w), len(ball_b.w)
    cands = []
    if na == nb:
        cands.append((np.arange(na), np.arange(nb)))
    cands.append(_feature_match(ball_a, ball_b))

    EA_full = _mds_embedding(DA)
    EB_full = _mds_embedding(DB)
    d = min(EA_full.shape[1], EB_full.shape[1])
    EA_full = EA_full[:, :d] - EA_full[base_a, :d]
    EB_full = EB_full[:, :d] - EB_full[base_b, :d]
    for used in range(1, d + 1):
        EA = EA_full[:, :used]
        EB = EB_full[:, :used]
        tree_b = cKDTree(EB)
        tree_a = cKDTree(EA)
        for perm in permutations(range(used)):
            for signs in iproduct(*([(1.0, -1.0)] * used)):
                s = np.asarray(signs)[None, :]
                fa = tree_b.query(EA[:, list(perm)] * s)[1].astype(int)
                gb = tree_a.query(EB[:, list(perm)] * s)[1].astype(int)
                cands.append((fa, gb))
    if d >= 2:
        # degenerate eigenplanes (rotational symmetry: circles, cones)
        # leave an arbitrary rotation between the two leading axes that
        # sign/permutation candidates cannot reach
        tree_b2 = cKDTree(EB_full[:, :2])
        tree_a2 = cKDTree(EA_full[:, :2])
        E2 = EA_full[:, :2]
        for k in range(12):
            ang = 2.0 * np.pi * k / 12.0
            R = np.array([[np.cos(ang), -np.sin(ang)],
                          [np.sin(ang), np.cos(ang)]])
            for refl in (1.0, -1.0):
                T = E2 @ R.T * np.array([[1.0, refl]])
                fa = tree_b2.query(T)[1].astype(int)
                TB = (EB_full[:, :2] * np.array([[1.0, refl]])) @ R
                gb = tree_a2.query(TB)[1].astype(int)
                cands.append((fa, gb))
    return cands, EA_full, EB_full


def _icp_refine(EA, EB, fa, gb):
    """Procrustes refinement: align the embeddings on the current matching,
    re-match by nearest neighbor, four rounds. Fixes residual rotations that
    the sampled candidates leave behind."""
    from scipy.spatial import cKDTree

    d = min(EA.shape[1], EB.shape[1])
    EA = EA[:, :d]
    EB = EB[:, :d]
    tree_b = cKDTree(EB)
    tree_a = cKDTree(EA)
    for _ in range(4):
        C = EA.T @ EB[fa]
        U, _, Vt = np.linalg.svd(C)
        R = U @ Vt
        fa = tree_b.query(EA @ R)[1].astype(int)
        gb = tree_a.query(EB @ R.T)[1].astype(int)
    return fa, gb


def _anneal_radius(ball_a: _Ball, ball_b: _Ball, seed: int,
                   proposals: int = 10_000, restarts: int = 2) -> np.ndarray:
    """Best correspondence found for one radius (local pair list)."""
    DA, DB, wa, wb = ball_a.D, ball_b.D, ball_a.w, ball_b.w
    base_a, base_b = ball_a.base, ball_b.base
    na, nb = len(wa), len(wb)
    if na == 1 or nb == 1:
        return _unique_pairs(np.concatenate([np.arange(na), np.full(nb, base_a)]),
                             np.concatenate([np.full(na, base_b), np.arange(nb)]))

    def state(fa, gb):
        return _CorrState(DA, DB, wa, wb, fa, gb, base_a, base_b)

    cands, EA, EB = _init_candidates(ball_a, ball_b)
    best = min((state(fa, gb) for fa, gb in cands), key=_CorrState.objective)
    icp = state(*_icp_refine(EA, EB, *best.snapshot()))
    best = min((best, icp), key=_CorrState.objective)
    start = best.snapshot()

    def restart(r: int) -> tuple[float, np.ndarray, np.ndarray]:
        st = state(*start)
        cur = st.objective()
        best_val, best_xs, best_ys = cur, st.xs.copy(), st.ys.copy()
        temp = max(cur, 1e-6) * (0.3 if r == 0 else 1.0)
        rng = np.random.default_rng(seed + 101 * r)
        side_a = rng.random(proposals) < na / (na + nb)
        picks = rng.integers(0, 1 << 30, size=(proposals, 2))
        accept_u = rng.random(proposals)
        # pair k < na moves its B end, pair na + j its A end; the base pairs stay
        ks = np.where(side_a, picks[:, 0] % na, na + picks[:, 0] % nb)
        news = np.where(side_a, picks[:, 1] % nb, picks[:, 1] % na)
        pinned = (base_a, na + base_b)
        for step in range(proposals):
            temp *= 0.99
            k, new = int(ks[step]), int(news[step])
            if k in pinned:
                continue
            d = st.delta(k, new)
            if d <= 0 or accept_u[step] < math.exp(-d / max(temp, 1e-300)):
                st.apply(k, new)
                cur += d
                if cur < best_val - 1e-15:
                    best_val, best_xs, best_ys = cur, st.xs.copy(), st.ys.copy()
        return best_val, best_xs, best_ys

    _, xs, ys = min((restart(r) for r in range(restarts)), key=lambda t: t[0])
    return _unique_pairs(xs, ys)


def _exhaustive_radius(ball_a: _Ball, ball_b: _Ball, lower: float) -> np.ndarray:
    """Relation attaining the exact infimum of distortion + gap over all
    covering relations that hold the base pair (tiny balls), or the profile
    matching when no relation is valued below 1 (the term is 1 either way).

    Adding a pair never lowers the distortion and never raises the gap, the
    glued cost being a minimum over pairs, so among relations of distortion
    at most delta a maximal one is best: a maximal clique through the base
    pair of the graph that joins pairs whose mismatch is at most delta
    (Bron-Kerbosch). The levels delta are the distinct pair mismatches in
    increasing order. The search stops once half the level plus the teleport
    cost of the mass difference reaches the best value, or once the best
    value reaches ``lower``, a lower bound on the infimum; a later clique
    replaces the best only when it is strictly lower.
    """
    import networkx as nx

    na, nb = len(ball_a.w), len(ball_b.w)
    base_pair = (ball_a.base, ball_b.base)
    pairs = np.array([base_pair] + [(i, j) for i in range(na) for j in range(nb)
                                    if (i, j) != base_pair])
    I, J = pairs[:, 0], pairs[:, 1]
    M = np.abs(ball_a.D[np.ix_(I, I)] - ball_b.D[np.ix_(J, J)])
    mass_part = TELEPORT_COST * abs(float(ball_a.w.sum()) - float(ball_b.w.sum()))
    best, best_pairs = 1.0, None
    for delta in np.unique(M):
        if 0.5 * delta + mass_part >= best:
            break
        near = np.flatnonzero(M[0] <= delta)  # the base pair is near[0] = 0
        joined = (M[np.ix_(near, near)] <= delta) & ~np.eye(len(near), dtype=bool)
        for clique in nx.find_cliques(nx.from_numpy_array(joined), nodes=[0]):
            loc = pairs[near[sorted(clique)]]
            if len(np.unique(loc[:, 0])) < na or len(np.unique(loc[:, 1])) < nb:
                continue
            val = 0.5 * delta + _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc)
            if val < best:
                best, best_pairs = val, loc
                if best <= lower:
                    return loc
    return _profile_pairs(ball_a, ball_b) if best_pairs is None else best_pairs


# ---------------------------------------------------------------------------
# The surrogate distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusTerm:
    radius: float
    weight: float
    distortion: float        # of this radius's certificate
    measure_gap: float       # of this radius's certificate
    term: float              # min(1, distortion + measure_gap)
    # min(1, relation-free bound): at most the term of any covering relation
    # with the base pair; above 1 the certificate is the profile matching
    lower_bound: float
    # always False: every gap is exact; kept because the benchmark's report
    # check and tracing (bench/workloads.py, bench/tracing.py) read the key
    aggregated: bool


@dataclass(frozen=True)
class PmghEstimate:
    """Surrogate distance with its per-radius breakdown and certificate."""

    value: float
    per_radius: tuple
    certificates: tuple       # Correspondence per surviving radius
    # sum of weight * (term of an exactly searched radius, else min(1, bound))
    lower_bound: float
    exact: bool               # lower_bound == value: the value is the infimum
    swapped: bool             # True if inputs were reordered internally


def _content_key(ps: PointedSpace) -> tuple:
    """Label-invariant ordering key; ties mean the canonical balls coincide."""
    return (
        ps.n,
        float(ps.space.mass),
        float(ps.space.metric.sum()),
        np.sort(ps.space.metric, axis=None).tobytes(),
        np.sort(ps.space.weights).tobytes(),
        np.sort(ps.base_distances()).tobytes(),
    )


def _surviving_radii(A: PointedSpace, B: PointedSpace, grid: Sequence[float]) -> list[float]:
    """Drop saturated radii: keep a radius only if either ball grew."""
    out: list[float] = []
    prev_sizes = None
    for R in sorted(grid):
        sizes = (int((A.base_distances() < R).sum()), int((B.base_distances() < R).sum()))
        if sizes != prev_sizes:
            out.append(R)
            prev_sizes = sizes
    return out


def pmgh_distance(
    A: PointedSpace,
    B: PointedSpace,
    R_grid: Sequence[float] | None = None,
    seed: int = 0,
    proposals: int = 10_000,
    restarts: int = 2,
) -> PmghEstimate:
    """Surrogate pmGH distance between normalized pointed spaces.

    D = sum_k 2^-k * min(1, inf_corr [distortion + measure_gap at R_k]) over
    the surviving grid radii. Symmetry is exact: inputs are reordered by a
    canonical content key before optimization and the certificate mirrored
    back, so D(A, B) and D(B, A) run the identical computation.

    Each radius first gets a relation-free lower bound on distortion +
    measure_gap (``_lower_bound``: the base-distance profiles, the
    eccentricities and the mass difference). When it passes 1 by
    BOUND_MARGIN, the term is 1 whatever the relation, so that radius is
    not searched: its certificate is the profile matching
    (``_feature_match``), reported with its own distortion and gap.

    The size of the two balls picks the search. At most
    EXHAUSTIVE_POINT_LIMIT (9) points in total are searched exactly by
    ``_exhaustive_radius`` (the maximal cliques of pairs at each distortion
    level), which stops once it reaches the radius's bound. Larger balls
    are annealed: ``restarts`` runs of ``proposals`` moves, seeded by
    ``seed`` plus the radius index, whose term is an upper bound backed by
    its certificate. ``lower_bound`` adds each exactly searched radius's
    term and min(1, bound) of the others, so ``exact`` (lower_bound ==
    value) says that the value is the infimum itself.

    Every measure gap is the exact teleport LP value through the found
    relation. The balls at the largest surviving radius may hold at most
    ANNEAL_POINT_LIMIT (2,500) points in total; above that PmghBudgetError
    is raised before any search (CLI exit 3). A radius that is not positive
    and finite raises ValueError (CLI exit 2).
    """
    grid = DEFAULT_RADII if R_grid is None else tuple(R_grid)
    for R in grid:
        if not (math.isfinite(R) and R > 0):
            raise ValueError(f"radius {R!r} must be positive and finite")
    swapped = _content_key(B) < _content_key(A)
    X, Y = (B, A) if swapped else (A, B)
    radii = _surviving_radii(X, Y, grid)

    if radii:
        # balls grow with R, so the largest surviving radius bounds them all
        R = radii[-1]
        na, nb = (int((P.base_distances() < R).sum()) for P in (A, B))
        if na + nb > ANNEAL_POINT_LIMIT:
            raise PmghBudgetError(
                f"the search is limited to {ANNEAL_POINT_LIMIT} ball points in total, "
                f"but the balls at radius {R:g} hold {na} + {nb}")

    value = lower = 0.0
    terms: list[RadiusTerm] = []
    certs: list[Correspondence] = []
    for k, R in enumerate(radii, start=1):
        ball_x, ball_y = _ball(X, R), _ball(Y, R)
        weight = 2.0 ** (-k)
        bound = _lower_bound(ball_x, ball_y)
        small = len(ball_x.w) + len(ball_y.w) <= EXHAUSTIVE_POINT_LIMIT
        if bound > 1.0 + BOUND_MARGIN:
            # saturated: the term is 1 for every relation, so certify it
            # with the profile matching instead of searching
            loc = _profile_pairs(ball_x, ball_y)
        elif small:
            loc = _exhaustive_radius(ball_x, ball_y, bound)
        else:
            loc = _anneal_radius(ball_x, ball_y, seed + k, proposals=proposals, restarts=restarts)
        dist, gap = _evaluate(ball_x, ball_y, loc)
        term = min(1.0, dist + gap)
        value += weight * term
        # a saturated term is 1 = min(1, bound) either way
        lower += weight * (term if small else min(1.0, bound))
        terms.append(RadiusTerm(radius=R, weight=weight, distortion=dist,
                                measure_gap=gap, term=term, lower_bound=min(1.0, bound),
                                aggregated=False))
        pairs_global = np.stack([ball_x.idx[loc[:, 0]], ball_y.idx[loc[:, 1]]], axis=1)
        certs.append(Correspondence(pairs_global))

    if swapped:
        certs = [c.swap() for c in certs]
    return PmghEstimate(
        value=value,
        per_radius=tuple(terms),
        certificates=tuple(certs),
        lower_bound=lower,
        exact=lower == value,
        swapped=swapped,
    )

