"""Distortion coefficients, Renyi energies and the entropy-convexity checker.

The checker evaluates, along a computed optimal geodesic plan, whether the
interpolated measures satisfy the sigma-weighted convexity inequality that
defines the reduced curvature-dimension bound. Because the definition
quantifies existentially over optimal plans, a violation is always reported
as evidence about the computed plan, never as a disproof for the space. When
the LP vertex violates it on an instance of at most ENUMERATION_POINT_LIMIT
support points, every vertex-optimal plan is checked instead, and the best
one is reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FiniteSpace
from .transport import (
    Coupling,
    GeodesicPlan,
    as_probability,
    geodesic_plan,
    w2,
)

__all__ = [
    "sigma",
    "sigma_vec",
    "RenyiEnergy",
    "renyi_energy",
    "CdReport",
    "cdstar_check",
    "enumerate_optimal_plans",
    "prolongability_experiment",
    "SingularMarginalError",
    "EnumerationBudgetError",
]

_PI2 = math.pi * math.pi
ENUMERATION_POINT_LIMIT = 12   # support points of mu0 and mu1 together


class SingularMarginalError(ValueError):
    """Marginal puts mass outside supp(m); densities are undefined."""


class EnumerationBudgetError(RuntimeError):
    """Optimal-face enumeration exceeded its budget."""


def sigma(K: float, N: float, t: float, theta: float) -> float:
    """:func:`sigma_vec` at one separation theta."""
    return float(sigma_vec(K, N, t, np.array([theta]))[0])


def sigma_vec(K: float, N: float, t: float, theta: np.ndarray) -> np.ndarray:
    """Reduced curvature-dimension distortion coefficients over separations theta.

    Four cases: +inf when K*theta^2 >= N*pi^2; sin-ratio on the positive
    finite branch; t when K*theta^2 = 0; sinh-ratio when K*theta^2 < 0.
    Raises ValueError unless K is finite, N >= 1, 0 <= t <= 1 and theta >= 0.
    """
    theta = np.asarray(theta, dtype=float)
    if not math.isfinite(K):
        raise ValueError("K must be finite")
    if not N >= 1:
        raise ValueError("N must be >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if (theta < 0).any():
        raise ValueError("theta must be nonnegative")
    out = np.empty(theta.shape)
    k2 = K * theta * theta
    inf_mask = k2 >= N * _PI2
    zero_mask = k2 == 0.0
    out[inf_mask] = np.inf
    out[zero_mask] = t
    rest = ~(inf_mask | zero_mask)
    if rest.any():
        w = theta[rest] * math.sqrt(abs(K) / N)
        if K > 0:
            out[rest] = np.sin(t * w) / np.sin(w)
        else:
            # avoid sinh overflow: sinh(tw)/sinh(w) = e^{(t-1)w}(1-e^{-2tw})/(1-e^{-2w})
            big = w > 30.0
            vals = np.empty(w.shape)
            vals[~big] = np.sinh(t * w[~big]) / np.sinh(w[~big])
            wb = w[big]
            vals[big] = np.exp((t - 1.0) * wb) * (-np.expm1(-2 * t * wb)) / (-np.expm1(-2 * wb))
            out[rest] = vals
    return out


@dataclass(frozen=True)
class RenyiEnergy:
    """-integral of rho^(1-1/N') dm split from the singular remainder."""

    value: float
    singular_mass: float      # mass sitting on weight-zero points (excluded)
    density_support_mass: float  # m(E) with E = {rho > 0}

    def jensen_bound(self, nprime: float) -> float:
        return -self.density_support_mass ** (1.0 / nprime)


def renyi_energy(mu: np.ndarray, space: FiniteSpace, nprime: float) -> RenyiEnergy:
    """Renyi entropy functional of mu against the reference weights.

    mu decomposes as rho*m on {w > 0} plus a singular part on {w = 0};
    only the density part enters the integral, the singular mass is
    reported untouched.
    """
    if not nprime >= 1:
        raise ValueError("N' must be >= 1")
    mu = np.asarray(mu, dtype=float)
    w = space.weights
    ac = (w > 0) & (mu > 0)
    singular = float(mu[w == 0].sum())
    expo = 1.0 - 1.0 / nprime
    # rho^(1-1/N') * w = mu^(1-1/N') * w^(1/N')
    value = -float((mu[ac] ** expo * w[ac] ** (1.0 / nprime)).sum())
    return RenyiEnergy(value=value, singular_mass=singular,
                       density_support_mass=float(w[ac].sum()))


@dataclass(frozen=True)
class CdRow:
    t: float
    nprime: float
    lhs: float
    rhs: float
    slack: float
    singular_mass: float


@dataclass(frozen=True)
class CdReport:
    """Slack table of the entropy-convexity inequality for one plan choice.

    A negative slack below the tolerance means the *computed* plan violates
    the inequality at that grid point — evidence, not a disproof, since the
    definition asks for existence of some optimal plan.
    """

    K: float
    N: float
    t_grid: tuple
    nprime_grid: tuple
    rows: tuple            # CdRow per (t, N')
    verdict: str           # holds | violated | inconclusive
    worst: CdRow | None
    tol: float
    plan_provenance: dict
    notes: tuple = ()

    @property
    def min_slack(self) -> float:
        return min((r.slack for r in self.rows), default=math.inf)

    def slack_table(self) -> np.ndarray:
        return np.array([[r.t, r.nprime, r.lhs, r.rhs, r.slack] for r in self.rows])


_H_NOTE = ("tolerance follows the 5*h*diam discretization convention; "
           "the continuum definition does not fix finite-sample behavior")
_EXISTENCE_NOTE = ("a violation refers to the computed optimal plan only; "
                   "the condition quantifies existentially over plans")


def _check_ac(space: FiniteSpace, mu: np.ndarray, name: str) -> None:
    bad = (mu > 0) & (space.weights <= 0)
    if bad.any():
        raise SingularMarginalError(
            f"{name} has singular mass {mu[bad].sum():.3g} outside supp(m)")


def _slack_rows(
    space: FiniteSpace,
    plan: GeodesicPlan,
    mu0: np.ndarray,
    mu1: np.ndarray,
    K: float,
    t_grid: Sequence[float],
    nprime_grid: Sequence[float],
    mode: str,
) -> list[CdRow]:
    ii, jj, mm = plan.i, plan.j, plan.mass
    theta = space.metric[ii, jj]
    w = space.weights
    rho0 = mu0[ii] / w[ii]
    rows: list[CdRow] = []
    for t in t_grid:
        mu_t = plan.evaluate(t)
        for npr in nprime_grid:
            en = renyi_energy(mu_t, space, npr)
            s_back = sigma_vec(K, npr, 1.0 - t, theta)
            terms = s_back * rho0 ** (-1.0 / npr)
            if mode == "two_sided":
                rho1 = mu1[jj] / w[jj]
                s_fwd = sigma_vec(K, npr, t, theta)
                terms = terms + s_fwd * rho1 ** (-1.0 / npr)
            if np.isinf(terms[mm > 0]).any():
                rhs = -math.inf
            else:
                rhs = -float((mm * terms).sum())
            slack = rhs - en.value
            rows.append(CdRow(t=float(t), nprime=float(npr), lhs=en.value,
                              rhs=rhs, slack=slack, singular_mass=en.singular_mass))
    return rows


def cdstar_check(
    space: FiniteSpace,
    mu0,
    mu1,
    K: float,
    N: float,
    t_grid: Sequence[float] = (0.25, 0.5, 0.75),
    nprime_grid: Sequence[float] | None = None,
    tol: float | None = None,
    mode: str = "two_sided",
) -> CdReport:
    """Check the sigma-weighted entropy-convexity inequality on a grid.

    Builds the optimal coupling and its lift along the space's oracle, then
    compares the Renyi energy of each interpolated measure (LHS) against the
    sigma-weighted marginal-density integral (RHS); slack = RHS - LHS must
    stay above -tol (default 5 * declared resolution * diameter; a given tol
    must be finite and nonnegative). An empty ``t_grid`` or ``nprime_grid``
    raises ValueError.
    ``mode='dirac_target'`` keeps only the backward density term, mirroring
    the one-sided estimate used when the target is a Dirac.

    The table is first built along the LP vertex (``plan_provenance``
    ``search`` "single"). Since the condition asks only for some optimal
    plan, a vertex that violates beyond tol on an instance of at most
    ENUMERATION_POINT_LIMIT support points is followed by every
    vertex-optimal plan (``enumerate_optimal_plans``, ``search``
    "exhaustive"), and the best plan found is reported; if the enumeration
    exceeds its budget, a violation is reported as inconclusive.
    """
    mu0 = as_probability(space, mu0)
    mu1 = as_probability(space, mu1)
    _check_ac(space, mu0, "mu0")
    if mode == "two_sided":
        _check_ac(space, mu1, "mu1")
    elif mode != "dirac_target":
        raise ValueError("mode must be 'two_sided' or 'dirac_target'")
    if nprime_grid is None:
        nprime_grid = tuple(sorted({float(N), float(N) + 1.0, 2.0 * float(N)}))
    for name, grid in (("t_grid", t_grid), ("nprime_grid", nprime_grid)):
        if len(grid) == 0:
            raise ValueError(f"{name} is empty")
    if tol is None:
        tol = 5.0 * space.declared_resolution() * space.diameter
    elif not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol {tol!r} must be finite and nonnegative")

    def table(coupling: Coupling) -> tuple[float, list[CdRow]]:
        rows = _slack_rows(space, geodesic_plan(space, coupling), mu0, mu1, K,
                           t_grid, nprime_grid, mode)
        return min(r.slack for r in rows), rows

    base = w2(space, mu0, mu1)
    provenance: dict = {"solver": "exact", "mode": mode, "search": "single",
                        "cost_squared": base.cost_squared, "plan": "lp-vertex"}
    best_min, best_rows = table(base.plan)
    inconclusive = False
    support = np.count_nonzero(mu0) + np.count_nonzero(mu1)
    if best_min < -tol and support <= ENUMERATION_POINT_LIMIT:
        provenance["search"] = "exhaustive"
        try:
            plans = enumerate_optimal_plans(space, mu0, mu1)
            provenance["enumerated_plans"] = len(plans)
        except EnumerationBudgetError as exc:
            provenance["enumeration_error"] = str(exc)
            plans, inconclusive = [], True
        for k, coupling in enumerate(plans):
            worst, rows = table(coupling)
            if worst > best_min:
                best_min, best_rows, provenance["plan"] = worst, rows, f"vertex-{k}"
            if worst >= -tol:
                break  # this plan already satisfies the inequality everywhere

    verdict = "holds" if best_min >= -tol else "inconclusive" if inconclusive else "violated"
    return CdReport(
        K=float(K), N=float(N), t_grid=tuple(t_grid), nprime_grid=tuple(nprime_grid),
        rows=tuple(best_rows), verdict=verdict,
        worst=None if verdict == "holds" else min(best_rows, key=lambda r: r.slack),
        tol=float(tol), plan_provenance=provenance,
        notes=(_H_NOTE, _EXISTENCE_NOTE),
    )


# ---------------------------------------------------------------------------
# Optimal-face vertex enumeration
# ---------------------------------------------------------------------------

def enumerate_optimal_plans(space: FiniteSpace, mu0, mu1) -> list[Coupling]:
    """All vertex-optimal transport plans of a tiny instance.

    Solves the LP once, keeps the zero-reduced-cost bipartite subgraph
    (reduced cost at most 1e-8 times the largest cost, which carries the
    whole optimal face) and enumerates its spanning trees per balanced
    component; each tree with nonnegative flows is a vertex. Nodes are the
    support rows 0..n0-1 followed by the columns; a tree's flows are its
    subtree sums of supply (a row's mass, minus a column's) in DFS
    post-order, each carried to the node's parent. Instances are limited
    to ENUMERATION_POINT_LIMIT support points in total;
    EnumerationBudgetError is raised past 50,000 spanning trees in one
    component or vertex combinations.
    """
    import networkx as nx

    mu0 = as_probability(space, mu0)
    mu1 = as_probability(space, mu1)
    rows = np.flatnonzero(mu0 > 0)
    cols = np.flatnonzero(mu1 > 0)
    n0, n1 = len(rows), len(cols)
    if n0 + n1 > ENUMERATION_POINT_LIMIT:
        raise EnumerationBudgetError(f"{n0 + n1} support points exceed the "
                                     f"{ENUMERATION_POINT_LIMIT}-point enumeration limit")
    res = w2(space, mu0, mu1)
    u, v = res.meta["u"], res.meta["v"]
    C = space.metric[np.ix_(rows, cols)] ** 2
    scale = max(1.0, float(np.abs(C).max()))
    red = C - u[:, None] - v[None, :]
    G = nx.Graph()
    G.add_nodes_from(range(n0 + n1))
    G.add_edges_from((int(i), n0 + int(j)) for i, j in np.argwhere(red <= 1e-8 * scale))
    supply = np.concatenate([mu0[rows], -mu1[cols]])

    per_component: list[list[np.ndarray]] = []
    for comp in nx.connected_components(G):
        root = min(comp)
        sols: list[np.ndarray] = []
        seen: set = set()
        for count, tree in enumerate(nx.SpanningTreeIterator(G.subgraph(comp)), start=1):
            if count > 50_000:
                raise EnumerationBudgetError("spanning-tree budget exceeded")
            parent = nx.dfs_predecessors(tree, root)
            total = supply.copy()
            gamma = np.zeros((n0, n1))
            for x in nx.dfs_postorder_nodes(tree, root):
                if x == root:
                    break  # the root comes last in post-order
                p = parent[x]
                total[p] += total[x]
                if x < n0:
                    gamma[x, p - n0] = total[x]
                else:
                    gamma[p, x - n0] = -total[x]
            if abs(total[root]) > 1e-9 or (gamma < -1e-12).any():
                continue
            gamma = np.maximum(gamma, 0.0)
            key = (np.round(gamma, 10) + 0.0).tobytes()  # + 0.0 folds -0.0 into 0.0
            if key not in seen:
                seen.add(key)
                sols.append(gamma)
        if not sols:
            raise RuntimeError(f"an optimal-face component of {len(comp)} nodes "
                               "carries no nonnegative tree flow")
        per_component.append(sols)

    if math.prod(len(sols) for sols in per_component) > 50_000:
        raise EnumerationBudgetError("vertex combination budget exceeded")
    from itertools import product as iproduct

    return [Coupling(rows=rows, cols=cols, gamma=sum(combo), n=space.n)
            for combo in iproduct(*per_component)]


# ---------------------------------------------------------------------------
# Prolongability experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProlongRow:
    t: float
    support_ratio: float      # m(E_t) / m(B_R(x0))
    energy: float             # Renyi energy of mu_t at N
    jensen_bound: float       # -m(E_t)^(1/N)
    rhs_one_sided: float      # sigma-weighted backward bound


@dataclass(frozen=True)
class ProlongReport:
    x0: int
    R: float
    N: float
    K: float
    ball_mass: float
    rows: tuple
    coverage: float           # mass fraction of the ball reached by some E_t


def prolongability_experiment(
    space: FiniteSpace,
    x0: int,
    R: float,
    t_grid: Sequence[float],
    N: float,
    K: float = 0.0,
) -> ProlongReport:
    """Transport the normalized ball measure to the Dirac at its center.

    Reports, per interpolation time, the mass fraction of the ball carried
    by the support of the interpolated density (the geodesic-interior
    points at that time), the Renyi energy against its Jensen bound, and
    the one-sided sigma-weighted estimate. The coverage of the union of
    supports is the desk-scale shadow of the almost-everywhere statement.
    An empty ``t_grid`` raises ValueError.
    """
    if len(t_grid) == 0:
        raise ValueError("t_grid is empty")
    if not 0 <= x0 < space.n:
        raise ValueError(f"center {x0} is not an index of the {space.n}-point space")
    if space.weights[x0] <= 0:
        raise ValueError("center must lie in the support")
    d = space.metric[x0]
    ball = np.flatnonzero((d < R) & (space.weights > 0))
    mB = float(space.weights[ball].sum())
    if mB <= 0:
        raise ValueError(f"the open ball of radius {R:g} around the center has no mass")
    mu0 = np.zeros(space.n)
    mu0[ball] = space.weights[ball] / mB

    # optimal coupling to a Dirac is forced: everything rides to x0
    rows = ball
    gamma = mu0[ball][:, None]
    plan = Coupling(rows=rows, cols=np.array([x0]), gamma=gamma, n=space.n)
    mu1 = np.zeros(space.n)
    mu1[x0] = 1.0
    lifted = geodesic_plan(space, plan)

    theta = space.metric[rows, x0]
    rho0 = mu0[rows] / space.weights[rows]
    w = space.weights
    rows_out: list[ProlongRow] = []
    covered = np.zeros(space.n, dtype=bool)
    for t in t_grid:
        mu_t = lifted.evaluate(t)
        Et = (mu_t > 0) & (w > 0)
        covered |= Et
        en = renyi_energy(mu_t, space, N)
        mEt = float(w[Et].sum())
        s_back = sigma_vec(K, N, 1.0 - t, theta)
        rhs = -float((lifted.mass * s_back * rho0 ** (-1.0 / N)).sum())
        rows_out.append(ProlongRow(
            t=float(t), support_ratio=mEt / mB, energy=en.value,
            jensen_bound=-mEt ** (1.0 / N), rhs_one_sided=rhs,
        ))
    in_ball = np.zeros(space.n, dtype=bool)
    in_ball[ball] = True
    coverage = float(w[covered & in_ball].sum() / mB)
    return ProlongReport(x0=int(x0), R=float(R), N=float(N), K=float(K),
                         ball_mass=mB, rows=tuple(rows_out), coverage=coverage)
