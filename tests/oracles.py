"""Independent oracles shared by the test modules.

Everything here is deliberately written against different algorithms (and
mostly different libraries) than the package code paths it checks:
lattice metrics come from numpy broadcasting instead of scipy's cdist,
the cylinder metric from per-point coordinate differences, transport
plans from spanning-tree vertex enumeration instead of the LP, optimal
assignments by trying every permutation, the balanced LP by dense dual
simplex instead of an assignment, the teleport LP in its dense form
(every capped arc a column) instead of the hub form, the line's monotone coupling from a quantile sweep, distortion
coefficients from 50-digit mpmath arithmetic, integrals from adaptive
quadrature, graph metrics from networkx Dijkstra, relation flows from
networkx's preflow-push instead of a min-cut enumeration, the split's
representatives from a point-by-point leader loop instead of one sweep per
representative, and its quotient metric from a loop over fiber pairs and
their point pairs instead of one blocked sparse product.
"""
from __future__ import annotations

import itertools

import mpmath
import networkx as nx
import numpy as np
from scipy import integrate, sparse
from scipy.optimize import linprog

from mmslab.core import FiniteSpace
from mmslab.transport import Coupling, W2Result, as_probability


# ---------------------------------------------------------------------------
# Model metrics: lp distances by broadcasting
# ---------------------------------------------------------------------------

def pairwise_norm(coords: np.ndarray, p: float) -> np.ndarray:
    """All-pairs lp distances from an (n, n, d) difference array."""
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if np.isinf(p):
        return diff.max(axis=2)
    if p == 2.0:
        return np.sqrt((diff**2).sum(axis=2))
    return (diff**p).sum(axis=2) ** (1.0 / p)


def cylinder_metric(coords: np.ndarray, circumference: float) -> np.ndarray:
    """Flat-cylinder distances from (n, n) axial and arc differences of the
    (z, s) point coordinates, the arc taken the short way round."""
    dz = np.abs(coords[:, 0][:, None] - coords[:, 0][None, :])
    raw = np.abs(coords[:, 1][:, None] - coords[:, 1][None, :])
    return np.hypot(dz, np.minimum(raw, circumference - raw))


# ---------------------------------------------------------------------------
# Transport: brute-force optimal coupling by vertex enumeration
# ---------------------------------------------------------------------------

def bruteforce_w2(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact transportation optimum via spanning-tree vertex enumeration.

    Every vertex of the transportation polytope is supported on a spanning
    forest of the complete bipartite graph; enumerate them all and take
    the cheapest feasible one. Exponential — callers keep sizes tiny.
    """
    n0, n1 = cost.shape
    G = nx.complete_bipartite_graph(n0, n1)
    best = np.inf
    for tree in nx.SpanningTreeIterator(G):
        flow = _tree_flow(tree, a, b, n0)
        if flow is None:
            continue
        val = sum(f * cost[i, j - n0] for (i, j), f in flow.items())
        best = min(best, val)
    return float(best)


def _tree_flow(tree: nx.Graph, a, b, n0) -> dict | None:
    demand = {i: a[i] for i in range(n0)}
    demand.update({n0 + j: -b[j] for j in range(len(b))})
    deg = dict(tree.degree)
    adj = {v: set(tree[v]) for v in tree.nodes}
    flows: dict[tuple, float] = {}
    leaves = [v for v, d in deg.items() if d == 1]
    while leaves:
        leaf = leaves.pop()
        if not adj[leaf]:
            continue
        other = adj[leaf].pop()
        adj[other].discard(leaf)
        f = demand[leaf]
        key = (leaf, other) if leaf < other else (other, leaf)
        signed = f if leaf < other else -f
        flows[key] = signed
        demand[leaf] = 0.0
        demand[other] += f
        deg[other] -= 1
        if deg[other] == 1:
            leaves.append(other)
    out = {}
    for (u, v), f in flows.items():
        if u >= n0 or v < n0:
            return None
        if f < -1e-12:
            return None
        out[(u, v)] = max(f, 0.0)
    return out


def optimal_permutations(cost: np.ndarray, tol: float = 1e-9) -> set[tuple[int, ...]]:
    """Every permutation sigma of least total cost sum_i cost[i, sigma(i)]
    (within tol), by trying all n! of them."""
    n = len(cost)
    perms = list(itertools.permutations(range(n)))
    totals = np.array([cost[np.arange(n), list(p)].sum() for p in perms])
    return {p for p, t in zip(perms, totals) if t <= totals.min() + tol}


def monotone_cost_1d(x0, a, x1, b) -> float:
    """Quantile-coupling cost on the line, straight from the cdf crossing."""
    o0 = np.argsort(x0, kind="stable")
    o1 = np.argsort(x1, kind="stable")
    xs0, ws0 = np.asarray(x0)[o0], np.asarray(a)[o0]
    xs1, ws1 = np.asarray(x1)[o1], np.asarray(b)[o1]
    i = j = 0
    r0, r1 = ws0[0], ws1[0]
    cost = 0.0
    while i < len(xs0) and j < len(xs1):
        m = min(r0, r1)
        cost += m * (xs0[i] - xs1[j]) ** 2
        r0 -= m
        r1 -= m
        if r0 <= 1e-17:
            i += 1
            r0 = ws0[i] if i < len(xs0) else 0.0
        if r1 <= 1e-17:
            j += 1
            r1 = ws1[j] if j < len(xs1) else 0.0
    return float(cost)


def monotone_1d(space: FiniteSpace, mu0, mu1, coords: np.ndarray | None = None) -> W2Result:
    """Monotone (quantile) coupling on a 1-D embedded space — the line oracle.

    On the line the quadratic-cost optimal coupling is the monotone
    rearrangement; this is an independent check for the LP route.
    """
    mu0 = as_probability(space, mu0)
    mu1 = as_probability(space, mu1)
    if coords is None:
        coords = space.coords
    if coords is None:
        raise ValueError("monotone_1d needs 1-D coordinates")
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 2:
        if coords.shape[1] != 1:
            raise ValueError("monotone_1d needs 1-D coordinates")
        coords = coords[:, 0]

    rows = np.flatnonzero(mu0 > 0)
    cols = np.flatnonzero(mu1 > 0)
    rows = rows[np.argsort(coords[rows], kind="stable")]
    cols = cols[np.argsort(coords[cols], kind="stable")]
    a = mu0[rows].copy()
    b = mu1[cols].copy()
    gamma = np.zeros((len(rows), len(cols)))
    i = j = 0
    cost = 0.0
    while i < len(rows) and j < len(cols):
        m = min(a[i], b[j])
        if m > 0:
            gamma[i, j] += m
            cost += m * (coords[rows[i]] - coords[cols[j]]) ** 2
        a[i] -= m
        b[j] -= m
        if a[i] <= 1e-17:
            i += 1
        if j < len(cols) and b[j] <= 1e-17:
            j += 1
    plan = Coupling(rows=rows, cols=cols, gamma=gamma, n=space.n)
    return W2Result(cost, plan, "monotone_1d", {})


def dense_teleport_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray, T: float) -> float:
    """Optimum of the teleport LP in its dense form: every arc a column at
    cost min(C, T), plus a slack column at T per row and per column."""
    n0, n1 = C.shape
    A_eq = sparse.bmat([
        [sparse.kron(sparse.eye(n0), np.ones((1, n1))), sparse.eye(n0), None],
        [sparse.kron(np.ones((1, n0)), sparse.eye(n1)), None, sparse.eye(n1)],
    ])
    c = np.concatenate([np.minimum(C, T).ravel(), np.full(n0 + n1, float(T))])
    res = linprog(c, A_eq=A_eq.tocsr(), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def dense_w2_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Plan and optimum of the balanced transportation LP by dense dual
    simplex: one column per arc, one row per row sum and per column sum
    but the last."""
    n0, n1 = C.shape
    A_eq = sparse.vstack([sparse.kron(sparse.eye(n0), np.ones((1, n1))),
                          sparse.kron(np.ones((1, n0)), sparse.eye(n1)).tocsr()[:-1]])
    res = linprog(C.ravel(), A_eq=A_eq.tocsr(), b_eq=np.concatenate([a, b[:-1]]),
                  bounds=(0, None), method="highs-ds")
    assert res.success, res.message
    return res.x.reshape(n0, n1), float(res.fun)


def leader_medoids(Dw: np.ndarray, b: np.ndarray, ww: np.ndarray,
                   slice_pos: np.ndarray, tol: float) -> np.ndarray:
    """Representatives of the split's central slice, point by point: in order
    of decreasing weight each point joins the first leader within tol in the
    quotient distance (d^2 - (b - b)^2)^(1/2), or becomes a leader; each
    cluster is then represented by its mass-weighted medoid."""
    order = slice_pos[np.lexsort((slice_pos, -ww[slice_pos]))]
    leaders: list[int] = []
    members: list[list[int]] = []
    for p in order:
        for k, r in enumerate(leaders):
            if Dw[p, r] ** 2 - (b[p] - b[r]) ** 2 <= tol * tol:
                members[k].append(p)
                break
        else:
            leaders.append(p)
            members.append([p])
    reps = []
    for mem in map(np.asarray, members):
        q = np.sqrt(np.maximum(Dw[np.ix_(mem, mem)] ** 2 - np.subtract.outer(b[mem], b[mem]) ** 2, 0))
        reps.append(int(mem[np.argmin((q * ww[mem][None, :]).sum(axis=1))]))
    return np.asarray(reps, dtype=int)


def fiber_pair_mean(Dw: np.ndarray, b: np.ndarray, ww: np.ndarray,
                    assign: np.ndarray) -> np.ndarray:
    """The split's quotient metric pair by pair: for two distinct fibers, the
    square root of the ww-weighted mean of max(0, d^2 - (b - b)^2) over all
    their point pairs; 0 on the diagonal and where a fiber has no mass."""
    M = int(assign.max()) + 1
    out = np.zeros((M, M))
    for a in range(M):
        fa = np.flatnonzero(assign == a)
        for c in range(M):
            fc = np.flatnonzero(assign == c)
            w = np.outer(ww[fa], ww[fc])
            if a != c and w.sum() > 0:
                q = np.maximum(Dw[np.ix_(fa, fc)] ** 2 - np.subtract.outer(b[fa], b[fc]) ** 2, 0)
                out[a, c] = np.sqrt((w * q).sum() / w.sum())
    return out


# ---------------------------------------------------------------------------
# Distortion coefficient at 50 digits
# ---------------------------------------------------------------------------

def sigma_hp(K: float, N: float, t: float, theta: float, dps: int = 50) -> float:
    """High-precision four-case distortion coefficient."""
    with mpmath.workdps(dps):
        Km, Nm, tm, th = map(mpmath.mpf, (repr(K), repr(N), repr(t), repr(theta)))
        k2 = Km * th * th
        if k2 >= Nm * mpmath.pi**2:
            return float("inf")
        if k2 == 0:
            return float(tm)
        w = th * mpmath.sqrt(abs(Km) / Nm)
        if Km > 0:
            return float(mpmath.sin(tm * w) / mpmath.sin(w))
        return float(mpmath.sinh(tm * w) / mpmath.sinh(w))


# ---------------------------------------------------------------------------
# Quadrature for normalization constants
# ---------------------------------------------------------------------------

def normalization_constant_nd(n: int) -> float:
    """1 / integral over the unit ball of (1 - |x|), by radial quadrature."""
    if n == 1:
        val, _ = integrate.quad(lambda x: 1 - abs(x), -1, 1)
    else:
        surface = {2: 2 * np.pi, 3: 4 * np.pi}[n]
        val, _ = integrate.quad(lambda r: (1 - r) * surface * r ** (n - 1), 0, 1)
    return 1.0 / val


# ---------------------------------------------------------------------------
# Graph shortest paths (independent of scipy.csgraph)
# ---------------------------------------------------------------------------

def nx_shortest_path_matrix(edges: list[tuple[int, int, float]], n: int) -> np.ndarray:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_weighted_edges_from(edges)
    out = np.full((n, n), np.inf)
    for i, dists in nx.all_pairs_dijkstra_path_length(G):
        for j, d in dists.items():
            out[i, j] = d
    return out


def nx_relation_flow(wa: np.ndarray, wb: np.ndarray, pairs: np.ndarray) -> float:
    """Max flow source -> A -> B -> sink with node capacities wa, wb and
    uncapacitated relation arcs, by networkx's preflow-push."""
    G = nx.DiGraph()
    G.add_edges_from(("s", ("a", i), {"capacity": float(w)}) for i, w in enumerate(wa))
    G.add_edges_from((("b", j), "t", {"capacity": float(w)}) for j, w in enumerate(wb))
    G.add_edges_from((("a", int(i)), ("b", int(j))) for i, j in pairs)
    return float(nx.maximum_flow_value(G, "s", "t"))


# ---------------------------------------------------------------------------
# Tiny-space generators
# ---------------------------------------------------------------------------

def random_euclidean_space(rng: np.random.Generator, n: int, dim: int = 2):
    """Random points with generic (tie-free) weights; returns (metric, weights)."""
    pts = rng.random((n, dim))
    D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    w = rng.uniform(0.5, 1.5, size=n)
    return D, w


def permuted_copy(rng: np.random.Generator, D: np.ndarray, w: np.ndarray, base: int):
    """Isomorphic relabeled copy; returns (D2, w2, base2, permutation)."""
    P = rng.permutation(len(w))
    return D[np.ix_(P, P)], w[P], int(np.argwhere(P == base)[0][0]), P


# ---------------------------------------------------------------------------
# pmGH surrogate brute force (tiny instances)
# ---------------------------------------------------------------------------

def bruteforce_corr_infimum(DA, wa, ia, DB, wb, ib, gap_fn) -> float:
    """Infimum of half-distortion + gap over all covering relations.

    Plain subset enumeration over index pairs with the base pair forced;
    gap_fn(loc) must evaluate the measure term for a local pair array.
    """
    na, nb = len(wa), len(wb)
    pairs = [(i, j) for i in range(na) for j in range(nb) if (i, j) != (ia, ib)]
    best = np.inf
    for mask in range(1 << len(pairs)):
        loc = [(ia, ib)] + [p for k, p in enumerate(pairs) if mask >> k & 1]
        rows = {i for i, _ in loc}
        cols = {j for _, j in loc}
        if len(rows) < na or len(cols) < nb:
            continue
        arr = np.asarray(loc, dtype=int)
        dist = 0.5 * max(
            abs(DA[p[0], q[0]] - DB[p[1], q[1]]) for p in loc for q in loc
        )
        if dist >= best:
            continue
        val = dist + gap_fn(arr)
        best = min(best, val)
    return float(best)
