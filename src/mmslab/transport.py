"""Quadratic optimal transport between measures on a finite space.

Every exact transport solve in the lab goes through one kernel,
``transport_lp``: the transportation LP, optionally with teleportation
slacks, solved with a dual-simplex backend (vertex-optimal, deterministic)
and certified by dual feasibility over every column and the duality gap.
Between n equal masses on each side it is an assignment problem instead:
every vertex of that polytope is a permutation (Birkhoff-von Neumann), so
an optimal assignment (Crouse's shortest augmenting paths, IEEE TAES 2016)
is an optimal vertex, and vectorized min-plus relaxation sweeps over the
dense arc matrix give its duals; the same certificate checks them over all
n * n arcs. With teleportation at cost T
it solves the exact hub form of the capped LP (the thresholded ground
distance of Pele and Werman, ICCV 2009): the capped arcs give way to one
hub at T/2 in and T/2 out, with the same optimum since
min(c, T) <= T/2 + T/2, and the certificate still checks all n0 * n1
capped arcs, so it proves the capped LP itself optimal. Discrete
displacement interpolation is delegated to an interpolation oracle
(``Interpolator``): it maps a whole plan of (i, j) pairs at a time t to
existing points in one batch call, and on a subset of the points it
restricts to an oracle of its own kind, whose answer for a dropped point
is the nearest kept one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .core import FiniteSpace

__all__ = [
    "MassMismatchError",
    "TransportBudgetError",
    "MissingInterpolatorError",
    "Coupling",
    "W2Result",
    "Interpolator",
    "MetricInterpolator",
    "GeodesicPlan",
    "as_probability",
    "transport_lp",
    "w2",
    "interpolate",
    "geodesic_plan",
]

# rows * cols of an exact w2 on the simplex: 11 s and 0.78 GB at 836 x 837 (2-vCPU VM)
TRANSPORT_PAIR_LIMIT = 700_000
# and on the assignment route: 8.8 s and 807 MB at 3,240 x 3,240 (one thread)
ASSIGNMENT_PAIR_LIMIT = 10_000_000


class TransportBudgetError(RuntimeError):
    """The exact transport problem has more pairs than its route's limit."""


class MassMismatchError(ValueError):
    """Marginal is not a probability measure (within tolerance)."""


class MissingInterpolatorError(ValueError):
    """Operation needs a geodesic oracle and the space carries none."""


def as_probability(space: FiniteSpace, mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (space.n,):
        raise MassMismatchError(f"measure has shape {mu.shape}, expected ({space.n},)")
    if not np.isfinite(mu).all():
        raise MassMismatchError("measure has non-finite entries")
    if (mu < 0).any():
        raise MassMismatchError("measure has negative entries")
    if abs(mu.sum() - 1.0) > 1e-12:
        raise MassMismatchError(f"measure mass {mu.sum()} is not 1 within 1e-12")
    return mu


@dataclass(frozen=True)
class Coupling:
    """Transport plan with prescribed marginals, stored on its support rows/cols."""

    rows: np.ndarray          # indices into the full space (size n0)
    cols: np.ndarray          # indices into the full space (size n1)
    gamma: np.ndarray         # (n0, n1) nonnegative masses
    n: int                    # number of points of the ambient space

    def marginal0(self) -> np.ndarray:
        out = np.zeros(self.n)
        np.add.at(out, self.rows, self.gamma.sum(axis=1))
        return out

    def marginal1(self) -> np.ndarray:
        out = np.zeros(self.n)
        np.add.at(out, self.cols, self.gamma.sum(axis=0))
        return out

    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, mass) triplets with positive mass, in full-space indices."""
        ii, jj = np.nonzero(self.gamma > 0)
        return self.rows[ii], self.cols[jj], self.gamma[ii, jj]

    def check_marginals(self, mu0, mu1) -> bool:
        return (
            np.abs(self.marginal0() - mu0).max() <= 1e-9
            and np.abs(self.marginal1() - mu1).max() <= 1e-9
        )

    def to_triplet_rows(self) -> list[tuple[int, int, float]]:
        ii, jj, mm = self.atoms()
        return [(int(i), int(j), float(m)) for i, j, m in zip(ii, jj, mm)]


@dataclass(frozen=True)
class W2Result:
    """Output of a transport solve; cost_squared is the W2^2 value."""

    cost_squared: float
    plan: Coupling
    solver: str
    meta: dict = field(default_factory=dict)

    @property
    def distance(self) -> float:
        return float(np.sqrt(max(self.cost_squared, 0.0)))


def transport_lp(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, teleport: float | None = None
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, dict]:
    """Transportation LP with cost ``C`` (n0, n1) between masses ``a`` and ``b``.

    With ``teleport`` set to T, every arc costs ``min(C, T)``, and mass may
    also be created or destroyed at T per unit (one slack column per row
    and per column), so a and b need not balance. This LP is solved in its
    hub form: the arcs below T are columns, and the capped ones give way to
    one hub, entered from each row and left to each column at T/2, with one
    balance row. Both have the same optimum, since min(c, T) <= T/2 + T/2
    for every pair; the returned plan spreads the hub flow over the pairs
    in proportion, a plan of the capped LP at that cost.

    Without ``teleport``, when n0 == n1 and every entry of a and b equals
    a[0], the LP is solved as an assignment problem (see ``_assignment``);
    its vertex is exact, since every vertex is a permutation times a[0].
    On lattice ties it may be another optimal vertex than the simplex
    would return, at the same cost. If its dual sweeps do not settle, the
    simplex solves it, or TransportBudgetError is raised when n0 * n1 is
    above TRANSPORT_PAIR_LIMIT.

    Returns (gamma, cost, u, v, certificate): the plan, the optimal value,
    the row and column duals, and the certificate: ``min_reduced_cost``,
    ``duality_gap``, the ``route`` that solved it (``assignment``,
    ``simplex`` or ``hub``) and, on the assignment route, its dual
    ``sweeps``. The reduced cost runs over every column of the capped LP,
    all n0 * n1 arcs included, and over the hub columns, so the
    certificate proves the capped LP optimal, not only its hub form.
    Raises RuntimeError if the solve fails or the duals are infeasible.
    """
    n0, n1 = C.shape
    if _route(a, b, teleport) == "assignment":
        solved = _assignment(C, float(a[0]))
        if solved is not None:
            return solved
        if n0 * n1 > TRANSPORT_PAIR_LIMIT:
            raise TransportBudgetError(f"assignment duals of {n0} x {n1} did not settle; the "
                                       f"simplex route's limit is {TRANSPORT_PAIR_LIMIT} pairs")
    if teleport is None:
        A_rows = sparse.kron(sparse.eye(n0), np.ones((1, n1)))
        A_cols = sparse.kron(np.ones((1, n0)), sparse.eye(n1))
        c = C.ravel()
        # the last column sum follows from the others
        A_eq = sparse.vstack([A_rows, A_cols.tocsr()[:-1]])
        b_eq = np.concatenate([a, b[:-1]])
    else:
        T = float(teleport)
        C = np.minimum(C, T)
        ii, jj = np.nonzero(C < T)
        m = len(ii)
        # columns: arcs, row slacks, column slacks, row -> hub, hub -> column;
        # rows: row sums, column sums, hub balance
        arcs = np.arange(m)
        A_eq = sparse.bmat([
            [sparse.csr_matrix((np.ones(m), (ii, arcs)), shape=(n0, m)),
             sparse.eye(n0), None, sparse.eye(n0), None],
            [sparse.csr_matrix((np.ones(m), (jj, arcs)), shape=(n1, m)),
             None, sparse.eye(n1), None, sparse.eye(n1)],
            [None, None, None, np.ones((1, n0)), -np.ones((1, n1))],
        ])
        b_eq = np.concatenate([a, b, [0.0]])
        c = np.concatenate([C[ii, jj], np.full(n0 + n1, T), np.full(n0 + n1, 0.5 * T)])
    res = linprog(c, A_eq=A_eq.tocsr(), b_eq=b_eq, bounds=(0, None), method="highs-ds",
                  options={"dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    y = np.asarray(res.eqlin.marginals, dtype=float)
    u, v = y[:n0], y[n0:n0 + n1]
    if teleport is None:
        gamma = np.clip(res.x[: n0 * n1].reshape(n0, n1), 0.0, None)
        v = np.append(v, 0.0)  # the dropped column sum has dual 0
        other_red = np.inf
    else:
        x = np.clip(res.x, 0.0, None)
        gamma = np.zeros((n0, n1))
        gamma[ii, jj] = x[:m]
        h, g = x[m + n0 + n1: m + 2 * n0 + n1], x[m + 2 * n0 + n1:]
        if h.sum() > 0:
            gamma += np.outer(h, g) / h.sum()
        # slacks, then row -> hub and hub -> column against the hub dual w
        w = float(y[-1])
        other_red = min(T - max(u.max(), v.max()),
                        0.5 * T - float((u + w).max()), 0.5 * T - float((v - w).max()))
    cost = float(res.fun)
    return gamma, cost, u, v, {**_certificate(C, a, b, cost, u, v, other_red),
                               "route": "simplex" if teleport is None else "hub"}


def _route(a: np.ndarray, b: np.ndarray, teleport: float | None) -> str:
    """The route ``transport_lp`` takes: ``hub`` with teleport, ``assignment``
    between equally many equal masses, else ``simplex``."""
    if teleport is not None:
        return "hub"
    if len(a) == len(b) and (a == a[0]).all() and (b == a[0]).all():
        return "assignment"
    return "simplex"


def _certificate(C: np.ndarray, a: np.ndarray, b: np.ndarray, cost: float,
                 u: np.ndarray, v: np.ndarray, other_red: float) -> dict:
    """Least reduced cost over every arc (and ``other_red`` over the other
    columns) and the duality gap; raises RuntimeError if the duals are
    infeasible beyond rounding."""
    min_red = min(float((C - u[:, None] - v[None, :]).min()), other_red)
    if min_red < -1e-9 * max(1.0, float(np.abs(C).max())):
        raise RuntimeError(f"transport LP duals are infeasible: reduced cost {min_red:.3g}")
    return {"min_reduced_cost": min_red, "duality_gap": abs(cost - float(a @ u + b @ v))}


def _assignment(C: np.ndarray, mass: float) -> tuple | None:
    """Balanced LP of n equal masses on each side as an assignment problem.

    Every vertex of this polytope is a permutation matrix times ``mass``
    (Birkhoff-von Neumann), so an optimal assignment sigma is an optimal
    vertex. Its duals v solve v_j - v_sigma(i) <= C_ij - C_i,sigma(i) to
    within 1e-12 max(1, max|C|) (``_sweep_duals``), and
    u_i = C_i,sigma(i) - v_sigma(i). If the sweeps do not settle, None, and
    the caller solves the LP by simplex instead.
    """
    rows, sigma = linear_sum_assignment(C)
    tight = C[rows, sigma]
    # row k leaves node k = sigma(i): arcs[k, j] = C_ij - C_i,sigma(i)
    order = np.argsort(sigma)
    arcs = C[order]
    arcs -= tight[order, None]
    settled = _sweep_duals(arcs, 1e-12 * max(1.0, float(np.abs(C).max())))
    if settled is None:
        return None
    v, sweeps = settled
    u = tight - v[sigma]
    gamma = np.zeros(C.shape)
    gamma[rows, sigma] = mass
    a = np.full(len(C), mass)
    cost = float((mass * tight).sum())
    return gamma, cost, u, v, {**_certificate(C, a, a, cost, u, v, np.inf),
                               "route": "assignment", "sweeps": sweeps}


def _sweep_duals(arcs: np.ndarray, tol: float) -> tuple[np.ndarray, int] | None:
    """Shortest distances from a virtual source joined to every node at 0,
    over the dense (n, n) ``arcs``, by Jacobi min-plus sweeps
    v <- min(v, min_k(v_k + arcs_kj)) from v = 0. After the first sweep in
    which no entry drops by more than ``tol``, v_j <= v_k + arcs_kj + tol on
    every arc: returns (v, sweeps); None if n + 1 sweeps do not settle."""
    v = np.zeros(len(arcs))
    buf = np.empty_like(arcs)
    for sweeps in range(1, len(arcs) + 2):
        step = np.minimum(v, np.add(arcs, v[:, None], out=buf).min(axis=0))
        settled = (v - step).max() <= tol
        v = step
        if settled:
            return v, sweeps
    return None


def w2(space: FiniteSpace, mu0, mu1) -> W2Result:
    """Quadratic transport between probability measures on ``space``.

    Solves ``transport_lp`` and returns its vertex-optimal plan with the
    squared cost: an optimal permutation when both measures are uniform on
    equally many points, else the dual simplex's vertex.
    ``W2Result.distance`` is its square root, and
    ``meta`` carries the duals ``u``, ``v`` with their certificate
    (``min_reduced_cost``, ``duality_gap``, ``route`` and, on the
    assignment route, ``sweeps``). A problem of more support pairs than its
    route allows, ASSIGNMENT_PAIR_LIMIT on the assignment route and
    TRANSPORT_PAIR_LIMIT on the simplex, raises TransportBudgetError before
    any cost is formed; an assignment above TRANSPORT_PAIR_LIMIT whose duals
    do not settle raises it after the solve (``transport_lp``).
    """
    mu0 = as_probability(space, mu0)
    mu1 = as_probability(space, mu1)
    rows = np.flatnonzero(mu0 > 0)
    cols = np.flatnonzero(mu1 > 0)
    a, b = mu0[rows], mu1[cols]
    route = _route(a, b, None)
    limit = ASSIGNMENT_PAIR_LIMIT if route == "assignment" else TRANSPORT_PAIR_LIMIT
    if len(rows) * len(cols) > limit:
        raise TransportBudgetError(
            f"exact transport of {len(rows)} x {len(cols)} support points is above "
            f"the {route} route's limit of {limit} pairs")
    gamma, cost, u, v, cert = transport_lp(space.metric[np.ix_(rows, cols)] ** 2, a, b)
    plan = Coupling(rows=rows, cols=cols, gamma=gamma, n=space.n)
    return W2Result(cost, plan, "exact", {"u": u, "v": v, **cert})


# ---------------------------------------------------------------------------
# Interpolation oracles and geodesic plans
# ---------------------------------------------------------------------------

class Interpolator:
    """Oracle mapping (i, j, t) to the index of a point near the geodesic.

    Batch contract: ``many(ii, jj, t)`` answers a whole plan at once, with
    ``ii`` for t <= 0 and ``jj`` for t >= 1; a subclass implements only
    ``_many``, for interior times, and a call on one pair is a one-pair
    ``many``. Restriction rule: ``restrict(idx)`` is an oracle of the same
    kind on the points ``idx``, answering in their positions. Where this
    oracle's answer is kept it returns that point, otherwise the kept point
    nearest the target in the oracle's own geometry. ``eps_geo`` declares
    how far a returned path may deviate from constant speed.
    """

    eps_geo: float = 0.0

    def __call__(self, i: int, j: int, t: float) -> int:
        return int(self.many(np.array([i]), np.array([j]), t)[0])

    def many(self, ii: np.ndarray, jj: np.ndarray, t: float) -> np.ndarray:
        if 0.0 < t < 1.0:
            return self._many(np.asarray(ii, dtype=int), np.asarray(jj, dtype=int), t)
        return np.array(ii if t <= 0.0 else jj, dtype=int)

    def _many(self, ii: np.ndarray, jj: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def restrict(self, idx: np.ndarray) -> "Interpolator":
        raise NotImplementedError


class MetricInterpolator(Interpolator):
    """Fallback oracle for bare matrix spaces: approximate metric midpoints.

    Picks the existing point minimizing |d(i,k) - t d(i,j)| + |d(k,j) - (1-t) d(i,j)|,
    ties broken by lowest index.
    """

    def __init__(self, metric: np.ndarray, eps_geo: float | None = None):
        self.D = np.asarray(metric, dtype=float)
        if eps_geo is None:
            n = self.D.shape[0]
            if n > 1:
                off = self.D + np.diag(np.full(n, np.inf))
                eps_geo = 2.0 * float(np.median(off.min(axis=1)))
            else:
                eps_geo = 0.0
        self.eps_geo = float(eps_geo)

    def _many(self, ii, jj, t):
        L = self.D[ii, jj][:, None]
        obj = np.abs(self.D[ii, :] - t * L) + np.abs(self.D[jj, :] - (1.0 - t) * L)
        return np.argmin(obj, axis=1)

    def restrict(self, idx):
        return MetricInterpolator(self.D[np.ix_(idx, idx)], eps_geo=self.eps_geo)


def _get_interpolator(space: FiniteSpace) -> Interpolator:
    if space.interpolator is None:
        raise MissingInterpolatorError("space carries no interpolation oracle")
    return space.interpolator


def _pushforward(interp: Interpolator, n: int, ii: np.ndarray, jj: np.ndarray,
                 mass: np.ndarray, t: float) -> np.ndarray:
    """Measure on n points: each path's mass at its oracle point at time t."""
    out = np.zeros(n)
    np.add.at(out, interp.many(ii, jj, t), mass)
    return out


def interpolate(space: FiniteSpace, plan: Coupling, t: float) -> np.ndarray:
    """Pushforward of the plan mass along the space's oracle at time t."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    return _pushforward(_get_interpolator(space), space.n, *plan.atoms(), t)


@dataclass(frozen=True)
class GeodesicPlan:
    """Discrete lift of a coupling to weighted interpolation paths."""

    space: FiniteSpace
    interpolator: Interpolator
    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    defects: np.ndarray          # per-path constant-speed defect on the sample grid
    flagged: np.ndarray          # defect > eps_geo
    eps_geo: float

    def evaluate(self, t: float) -> np.ndarray:
        return _pushforward(self.interpolator, self.space.n, self.i, self.j, self.mass, t)

    def endpoint_coupling(self) -> Coupling:
        rows, rinv = np.unique(self.i, return_inverse=True)
        cols, cinv = np.unique(self.j, return_inverse=True)
        gamma = np.zeros((len(rows), len(cols)))
        np.add.at(gamma, (rinv, cinv), self.mass)
        return Coupling(rows=rows, cols=cols, gamma=gamma, n=self.space.n)

    @property
    def max_defect(self) -> float:
        return float(self.defects.max()) if self.defects.size else 0.0

    @property
    def flagged_mass(self) -> float:
        return float(self.mass[self.flagged].sum())


def geodesic_plan(space: FiniteSpace, plan: Coupling) -> GeodesicPlan:
    """Lift a coupling to paths of the space's oracle and grade each against
    constant-speed geodesy at the times 0, 1/4, 1/2, 3/4 and 1.

    Paths failing the eps_geo check are flagged (and their mass totalled) but
    the plan is returned regardless.
    """
    interp = _get_interpolator(space)
    ii, jj, mm = plan.atoms()
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    P = np.stack([interp.many(ii, jj, t) for t in ts], axis=0)  # (nt, natoms)
    L = space.metric[ii, jj]
    defects = np.zeros(len(ii))
    for s in range(len(ts)):
        for t in range(s + 1, len(ts)):
            d = space.metric[P[s], P[t]]
            np.maximum(defects, np.abs(d - abs(ts[t] - ts[s]) * L), out=defects)
    eps = interp.eps_geo
    flagged = defects > eps if eps > 0 else np.zeros(len(ii), dtype=bool)
    return GeodesicPlan(
        space=space,
        interpolator=interp,
        i=ii,
        j=jj,
        mass=mm,
        defects=defects,
        flagged=flagged,
        eps_geo=float(eps),
    )
