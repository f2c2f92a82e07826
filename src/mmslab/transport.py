"""Quadratic optimal transport between measures on a finite space.

Every exact transport solve in the lab goes through one kernel,
``transport_lp``: the transportation LP, optionally with teleportation
slacks, solved with a dual-simplex backend (vertex-optimal, deterministic)
and certified by dual feasibility over every column and the duality gap.
An entropic solver provides the approximate route. Discrete displacement
interpolation is delegated to an interpolation oracle that maps an
(i, j, t) query to an existing point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import FiniteSpace

__all__ = [
    "MassMismatchError",
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

class MassMismatchError(ValueError):
    """Marginal is not a probability measure (within tolerance)."""


class MissingInterpolatorError(ValueError):
    """Operation needs a geodesic oracle and the space carries none."""


def as_probability(space: FiniteSpace, mu, tol: float = 1e-12) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (space.n,):
        raise MassMismatchError(f"measure has shape {mu.shape}, expected ({space.n},)")
    if (mu < 0).any():
        raise MassMismatchError("measure has negative entries")
    if abs(mu.sum() - 1.0) > tol:
        raise MassMismatchError(f"measure mass {mu.sum()} is not 1 within {tol}")
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

    def cost_squared(self, metric: np.ndarray) -> float:
        D = metric[np.ix_(self.rows, self.cols)]
        return float((self.gamma * D * D).sum())

    def atoms(self, threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, mass) triplets with mass > threshold, in full-space indices."""
        ii, jj = np.nonzero(self.gamma > threshold)
        return self.rows[ii], self.cols[jj], self.gamma[ii, jj]

    def check_marginals(self, mu0, mu1, tol: float = 1e-9) -> bool:
        return (
            np.abs(self.marginal0() - mu0).max() <= tol
            and np.abs(self.marginal1() - mu1).max() <= tol
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

    With ``teleport`` set, mass may also be created or destroyed at that
    cost per unit (one slack column per row and per column), so a and b
    need not balance. Returns (gamma, cost, u, v, certificate): the plan,
    the optimal value, the row and column duals, and the certificate's
    ``min_reduced_cost`` over every column and ``duality_gap``. Raises
    RuntimeError if the solve fails or the duals are infeasible.
    """
    n0, n1 = C.shape
    A_rows = sparse.kron(sparse.eye(n0), np.ones((1, n1)))
    A_cols = sparse.kron(np.ones((1, n0)), sparse.eye(n1))
    c = C.ravel()
    if teleport is None:
        # the last column sum follows from the others
        A_eq = sparse.vstack([A_rows, A_cols.tocsr()[:-1]])
        b_eq = np.concatenate([a, b[:-1]])
    else:
        A_eq = sparse.bmat([[A_rows, sparse.eye(n0), None], [A_cols, None, sparse.eye(n1)]])
        b_eq = np.concatenate([a, b])
        c = np.concatenate([c, np.full(n0 + n1, float(teleport))])
    res = linprog(c, A_eq=A_eq.tocsr(), b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    gamma = np.clip(res.x[: n0 * n1].reshape(n0, n1), 0.0, None)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    u, v = y[:n0], y[n0:]
    if teleport is None:
        v = np.append(v, 0.0)  # the dropped column sum has dual 0
    min_red = float((C - u[:, None] - v[None, :]).min())
    if teleport is not None:
        min_red = min(min_red, float(teleport - max(u.max(), v.max())))
    if min_red < -1e-7 * max(1.0, float(np.abs(c).max())):
        raise RuntimeError(f"transport LP duals are infeasible: reduced cost {min_red:.3g}")
    cert = {"min_reduced_cost": min_red, "duality_gap": abs(float(res.fun) - float(a @ u + b @ v))}
    return gamma, float(res.fun), u, v, cert


def _sinkhorn(C: np.ndarray, a: np.ndarray, b: np.ndarray, reg: float,
              max_iter: int, marginal_tol: float) -> tuple[np.ndarray, int, float]:
    """Log-domain Sinkhorn; returns a feasible (rounded) plan."""
    f = np.zeros(len(a))
    g = np.zeros(len(b))
    loga, logb = np.log(a), np.log(b)
    it = 0
    err = np.inf
    for it in range(1, max_iter + 1):
        M = (f[:, None] + g[None, :] - C) / reg
        f = f + reg * (loga - _logsumexp_rows(M))
        M = (f[:, None] + g[None, :] - C) / reg
        g = g + reg * (logb - _logsumexp_rows(M.T))
        if it % 10 == 0 or it == max_iter:
            P = np.exp((f[:, None] + g[None, :] - C) / reg)
            err = np.abs(P.sum(axis=1) - a).sum() + np.abs(P.sum(axis=0) - b).sum()
            if err <= marginal_tol:
                break
    P = np.exp((f[:, None] + g[None, :] - C) / reg)
    # round to the transport polytope (scale rows/cols down, fix residual rank-one)
    r = P.sum(axis=1)
    P = P * np.minimum(a / np.where(r > 0, r, 1.0), 1.0)[:, None]
    c = P.sum(axis=0)
    P = P * np.minimum(b / np.where(c > 0, c, 1.0), 1.0)[None, :]
    ea = a - P.sum(axis=1)
    eb = b - P.sum(axis=0)
    s = ea.sum()
    if s > 1e-300:
        P = P + np.outer(ea, eb) / s
    return P, it, float(err)


def _logsumexp_rows(M: np.ndarray) -> np.ndarray:
    mx = M.max(axis=1)
    return mx + np.log(np.exp(M - mx[:, None]).sum(axis=1))


def w2(
    space: FiniteSpace,
    mu0,
    mu1,
    solver: str = "exact",
    reg: float = 1e-2,
    max_iter: int = 10_000,
    marginal_tol: float = 1e-8,
) -> W2Result:
    """Quadratic transport between probability measures on ``space``.

    Exact mode solves ``transport_lp`` and returns its vertex-optimal plan
    with the squared cost; ``W2Result.distance`` is its square root, and
    ``meta`` carries the duals ``u``, ``v`` with their dual certificate
    (``min_reduced_cost``, ``duality_gap``). Entropic mode runs log-domain
    matrix scaling at regularization ``reg`` (squared distance units),
    stopping at L1 marginal error ``marginal_tol`` or ``max_iter`` sweeps,
    and rounds the plan back to the polytope so the reported cost
    upper-bounds the exact one.
    """
    mu0 = as_probability(space, mu0)
    mu1 = as_probability(space, mu1)
    rows = np.flatnonzero(mu0 > 0)
    cols = np.flatnonzero(mu1 > 0)
    a, b = mu0[rows], mu1[cols]
    C = space.metric[np.ix_(rows, cols)] ** 2

    if solver == "exact":
        gamma, cost, u, v, cert = transport_lp(C, a, b)
        meta = {"u": u, "v": v, **cert}
    elif solver == "entropic":
        gamma, iters, err = _sinkhorn(C, a, b, reg, max_iter, marginal_tol)
        cost = float((gamma * C).sum())
        meta = {"iterations": iters, "marginal_error": err, "reg": reg}
    else:
        raise ValueError(f"unknown solver {solver!r}")

    plan = Coupling(rows=rows, cols=cols, gamma=gamma, n=space.n)
    return W2Result(cost, plan, solver, meta)


# ---------------------------------------------------------------------------
# Interpolation oracles and geodesic plans
# ---------------------------------------------------------------------------

class Interpolator:
    """Oracle mapping (i, j, t) to the index of a point near the geodesic.

    Calls with t <= 0 return i and calls with t >= 1 return j; subclasses
    implement ``_at`` (and optionally a vectorized ``_many``) for interior
    times only. ``eps_geo`` declares how far a returned path may deviate
    from constant speed.
    """

    eps_geo: float = 0.0

    def __call__(self, i: int, j: int, t: float) -> int:
        if t <= 0.0:
            return int(i)
        if t >= 1.0:
            return int(j)
        return self._at(i, j, t)

    def many(self, ii: np.ndarray, jj: np.ndarray, t: float) -> np.ndarray:
        if 0.0 < t < 1.0:
            return self._many(ii, jj, t)
        return np.array(ii if t <= 0.0 else jj, dtype=int)

    def _at(self, i: int, j: int, t: float) -> int:
        raise NotImplementedError

    def _many(self, ii: np.ndarray, jj: np.ndarray, t: float) -> np.ndarray:
        return np.array([self._at(int(i), int(j), t) for i, j in zip(ii, jj)], dtype=int)

    def restrict(self, idx: np.ndarray) -> "Interpolator":
        """Oracle on the points ``idx`` of this one; by default a view that
        snaps answers outside the subset to a kept point."""
        return _RemappedInterpolator(self, idx)


class _RemappedInterpolator(Interpolator):
    """View of a parent oracle on a subset; falls back to nearest kept point."""

    def __init__(self, parent: Interpolator, idx: np.ndarray):
        self.parent = parent
        self.idx = np.asarray(idx, dtype=int)
        self._pos = {int(g): k for k, g in enumerate(self.idx)}
        self._metric = getattr(parent, "metric", None)
        self.eps_geo = parent.eps_geo

    def _at(self, i: int, j: int, t: float) -> int:
        g = self.parent(int(self.idx[i]), int(self.idx[j]), t)
        hit = self._pos.get(int(g))
        if hit is not None:
            return hit
        if self._metric is not None:
            return int(np.argmin(self._metric[g, self.idx]))
        # generic fallback: endpoint closest in parameter
        return int(i if t < 0.5 else j)


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

    def _at(self, i: int, j: int, t: float) -> int:
        L = self.D[i, j]
        obj = np.abs(self.D[i] - t * L) + np.abs(self.D[:, j] - (1.0 - t) * L)
        return int(np.argmin(obj))

    def _many(self, ii, jj, t):
        L = self.D[ii, jj][:, None]
        obj = np.abs(self.D[ii, :] - t * L) + np.abs(self.D[jj, :] - (1.0 - t) * L)
        return np.argmin(obj, axis=1)

    def restrict(self, idx):
        return MetricInterpolator(self.D[np.ix_(idx, idx)], eps_geo=self.eps_geo)


def _get_interpolator(space: FiniteSpace, interpolator) -> Interpolator:
    interp = interpolator if interpolator is not None else space.interpolator
    if interp is None:
        raise MissingInterpolatorError("space carries no interpolation oracle")
    return interp


def interpolate(space: FiniteSpace, plan: Coupling, t: float, interpolator=None) -> np.ndarray:
    """Pushforward of the plan mass along the interpolation oracle at time t."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    interp = _get_interpolator(space, interpolator)
    ii, jj, mm = plan.atoms()
    out = np.zeros(space.n)
    kk = interp.many(ii, jj, t)
    np.add.at(out, kk, mm)
    return out


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
    sample_ts: tuple

    def evaluate(self, t: float) -> np.ndarray:
        out = np.zeros(self.space.n)
        kk = self.interpolator.many(self.i, self.j, t)
        np.add.at(out, kk, self.mass)
        return out

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


def geodesic_plan(
    space: FiniteSpace,
    plan: Coupling,
    interpolator=None,
    sample_ts: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> GeodesicPlan:
    """Lift a coupling to paths and grade each against constant-speed geodesy.

    Paths failing the eps_geo check are flagged (and their mass totalled) but
    the plan is returned regardless.
    """
    interp = _get_interpolator(space, interpolator)
    ii, jj, mm = plan.atoms()
    ts = tuple(sample_ts)
    P = np.stack([interp.many(ii, jj, t) for t in ts], axis=0)  # (nt, natoms)
    L = space.metric[ii, jj]
    defects = np.zeros(len(ii))
    for s in range(len(ts)):
        for t in range(s + 1, len(ts)):
            d = space.metric[P[s], P[t]]
            np.maximum(defects, np.abs(d - abs(ts[t] - ts[s]) * L), out=defects)
    eps = getattr(interp, "eps_geo", 0.0)
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
        sample_ts=ts,
    )
