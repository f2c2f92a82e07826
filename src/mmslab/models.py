"""Model space generators with known ground truth.

Each kind ships a deterministic sampler and, where geodesics are computable,
an exact interpolation oracle. Grids carry cell-volume weights (w = h^n) so
the measures converge to Lebesgue under refinement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .core import FiniteSpace, PointedSpace, ball_restrict
from .transport import Interpolator

__all__ = ["ModelSpec", "GroundTruth", "ModelBudgetError", "make", "ground_truth", "KINDS",
           "parse_spec"]

# points per model space, counted over the whole model even when ``make``
# builds the metric of a ball only: a full dense float64 metric takes
# n^2 * 8 bytes, 1.8 GB at the limit
MODEL_POINT_LIMIT = 15_000


class ModelBudgetError(RuntimeError):
    """The model space would hold more than MODEL_POINT_LIMIT points."""


def _check_size(n: int, exact: bool = True) -> None:
    """Refuse a model of n points (at least n unless ``exact``) before its
    n x n metric is allocated."""
    if n > MODEL_POINT_LIMIT:
        least = "" if exact else "at least "
        raise ModelBudgetError(
            f"the model has {least}{n} points, above the limit of {MODEL_POINT_LIMIT}; "
            f"its metric would take {least}{n * n * 8 / 1e9:.1f} GB")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of a model-space sampler; unknown fields are kind-specific."""

    kind: str
    dim: int = 1
    h: float = 0.05
    extent: float = 1.0
    shape: str = "cube"            # euclidean-grid: cube | ball
    p: float = float("inf")        # lp-plane norm exponent
    radius: float = 1.0            # sphere radius
    n_points: int = 400            # sphere sample size / graph nodes
    angle: float = 3 * np.pi / 2   # cone total angle
    circumference: float = 1.0     # cylinder
    height: float = 10.0           # cylinder axis length
    profile: str = "uniform"       # weighted-segment
    connect_radius: float = 0.35   # graph
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.h <= 0 or self.extent <= 0:
            raise ValueError("resolution and extent must be positive")


def parse_spec(text: str) -> ModelSpec:
    """Parse CLI-style model strings like ``euclidean-grid:2d,h=0.05,extent=1``."""
    if ":" in text:
        kind, rest = text.split(":", 1)
        params = [p for p in rest.split(",") if p]
    else:
        kind, params = text, []
    kw: dict[str, Any] = {}
    for p in params:
        if "=" not in p:
            if p.endswith("d") and p[:-1].isdigit():
                kw["dim"] = int(p[:-1])
                continue
            raise ValueError(f"bad model parameter {p!r}")
        k, v = p.split("=", 1)
        k = {"c": "circumference", "L": "height", "N": "n_points"}.get(k, k)
        if k in ("dim", "n_points", "seed"):
            kw[k] = int(v)
        elif k in ("shape", "profile", "kind"):
            kw[k] = v
        elif k == "p":
            kw[k] = float("inf") if v in ("inf", "max") else float(v)
        else:
            kw[k] = float(v)
    return ModelSpec(kind=kind, **kw)


@dataclass(frozen=True)
class GroundTruth:
    kind: str
    tangent_model: str
    doubling_exponent: float | None
    cd_params: tuple | None
    exceptional: str | None
    notes: str


_REGISTRY: dict[str, GroundTruth] = {
    "euclidean-grid": GroundTruth(
        "euclidean-grid", "euclidean:dim", None, (0.0, None), "cube boundary",
        "flat; doubling exponent and CD dimension both equal dim",
    ),
    "lp-plane": GroundTruth(
        "lp-plane", "lp-plane:p", 2.0, (0.0, 2.0), None,
        "norm self-similarity: the tangent is the lp plane itself, not R^2",
    ),
    "sphere": GroundTruth(
        "sphere", "euclidean:2", 2.0, (1.0, 2.0), None,
        "smooth; tangent plane at every point; CD params for the unit sphere",
    ),
    "cone": GroundTruth(
        "cone", "euclidean:2", 2.0, (0.0, 2.0), "apex",
        "tangent at the apex is the cone itself (self-similar); R^2 elsewhere",
    ),
    "cylinder": GroundTruth(
        "cylinder", "euclidean:2", 2.0, (0.0, 2.0), None,
        "flat product circle x line; contains axis lines",
    ),
    "weighted-segment": GroundTruth(
        "weighted-segment", "euclidean:1", 1.0, None, "endpoints",
        "tangents at density-continuity points are the normalized line",
    ),
    "graph": GroundTruth(
        "graph", "none (discrete below edge resolution)", None, None, "all",
        "test corpus for shortest-path metrics; no meaningful blow-up limit",
    ),
}

KINDS = tuple(_REGISTRY)


def ground_truth(kind: str) -> GroundTruth:
    try:
        gt = _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}") from None
    return gt


# ---------------------------------------------------------------------------
# Interpolators
# ---------------------------------------------------------------------------

def _lattice_index(v, h: float) -> np.ndarray:
    """Nearest lattice index of v on the h-lattice, per axis. v/h is quantized
    to 9 decimals first so float noise cannot flip a half-cell tie, and ties
    go down (to the lower index)."""
    return np.ceil(np.round(np.asarray(v) / h, 9) - 0.5).astype(np.int64)


class _LatticeInterpolator(Interpolator):
    """Oracle that snaps each target to the sample point at its rounded
    lattice index (spacing ``h``, one for every axis or one per axis), found
    in a dense table over the sample's bounding box (a point sharing its
    index with a later point is not found)."""

    def __init__(self, coords: np.ndarray, h):
        self.coords = np.asarray(coords, dtype=float)
        self.h = h
        self.eps_geo = 1.5 * float(np.max(h))
        key = np.round(self.coords / h).astype(np.int64)
        self._lo = key.min(axis=0, initial=0)
        self._table = np.full(key.max(axis=0, initial=0) - self._lo + 1, -1)
        self._table[tuple((key - self._lo).T)] = np.arange(len(key))

    def _snap(self, keys: np.ndarray, nearest) -> np.ndarray:
        """The point at each row of lattice ``keys``; rows with none get ``nearest(rows)``."""
        k = keys - self._lo
        inside = ((k >= 0) & (k < self._table.shape)).all(axis=1)
        out = np.full(len(k), -1)
        out[inside] = self._table[tuple(k[inside].T)]
        miss = np.flatnonzero(out < 0)
        out[miss] = nearest(miss)
        return out


class GridInterpolator(_LatticeInterpolator):
    """Straight-line interpolation snapped to the nearest sample point.

    Works for any norm metric on a coordinate sample (segments are geodesics
    in normed spaces). Snapping is per-axis on full lattices with half-cell
    ties resolved downward (lowest constructed index); off-lattice targets
    fall back to a KD query in the p-norm.
    """

    def __init__(self, coords: np.ndarray, h: float, p: float = 2.0):
        super().__init__(coords, float(h))
        self.p = p
        self._tree = cKDTree(self.coords)

    def _many(self, ii, jj, t):
        target = (1.0 - t) * self.coords[ii] + t * self.coords[jj]
        return self._snap(_lattice_index(target, self.h),
                          lambda miss: self._tree.query(target[miss], p=self.p)[1])

    def restrict(self, idx):
        return GridInterpolator(self.coords[idx], self.h, p=self.p)


class CylinderInterpolator(_LatticeInterpolator):
    """Geodesics on circle x line: unwrap the short arc, interpolate, re-snap
    on the model's lattice (axial spacing h, ``rings`` rings around the
    circumference); a target off the sample goes to its nearest point by
    cylinder distance."""

    def __init__(self, coords: np.ndarray, h: float, circumference: float, rings: int):
        super().__init__(coords, np.array([h, circumference / rings]))  # columns: (z, s)
        self.circ = float(circumference)
        self.n_s = int(rings)

    def _many(self, ii, jj, t):
        (z1, s1), (z2, s2) = self.coords[ii].T, self.coords[jj].T
        ds = (s2 - s1 + self.circ / 2) % self.circ - self.circ / 2
        z = (1 - t) * z1 + t * z2
        s = (s1 + t * ds) % self.circ
        key = _lattice_index(np.stack([z, s], axis=1), self.h)
        key[:, 1] %= self.n_s
        return self._snap(key, lambda miss: self._nearest(z[miss], s[miss]))

    def _nearest(self, z: np.ndarray, s: np.ndarray) -> np.ndarray:
        raw = np.abs(s[:, None] - self.coords[:, 1])
        arc = np.minimum(raw, self.circ - raw)
        return np.argmin(np.hypot(z[:, None] - self.coords[:, 0], arc), axis=1)

    def restrict(self, idx):
        return CylinderInterpolator(self.coords[idx], self.h[0], self.circ, self.n_s)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a[k] @ b[k]``, by the same dot routine as one pair."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class SphereInterpolator(Interpolator):
    """Great-circle interpolation with nearest-sample (chordal) rounding."""

    def __init__(self, xyz: np.ndarray, radius: float, eps_geo: float):
        self.xyz = np.asarray(xyz, dtype=float)
        self.radius = float(radius)
        self._tree = cKDTree(self.xyz)
        self.eps_geo = float(eps_geo)

    def _many(self, ii, jj, t):
        u = self.xyz[ii] / self.radius
        v = self.xyz[jj] / self.radius
        ang = np.arccos(np.clip(_rowdot(u, v), -1.0, 1.0))
        out = ii.copy()  # a pair of one point stays there
        far = np.flatnonzero(ang >= 1e-15)
        a = ang[far, None]
        w = (np.sin((1 - t) * a) * u[far] + np.sin(t * a) * v[far]) / np.sin(a)
        w = w / np.sqrt(_rowdot(w, w))[:, None] * self.radius
        out[far] = self._tree.query(w)[1]
        return out

    def restrict(self, idx):
        return SphereInterpolator(self.xyz[idx], self.radius, self.eps_geo)


class ConeInterpolator(Interpolator):
    """Geodesics on a cone of total angle alpha via sector unrolling."""

    def __init__(self, polar: np.ndarray, angle: float, eps_geo: float):
        self.polar = np.asarray(polar, dtype=float)  # (r, phi)
        self.alpha = float(angle)
        self.eps_geo = float(eps_geo)

    def _nearest(self, r: float, phi: float) -> int:
        rr, pp = self.polar[:, 0], self.polar[:, 1]
        dphi = np.abs((pp - phi + self.alpha / 2) % self.alpha - self.alpha / 2)
        d = np.where(
            dphi >= np.pi,
            rr + r,
            np.sqrt(np.maximum(rr**2 + r**2 - 2 * rr * r * np.cos(dphi), 0.0)),
        )
        return int(np.argmin(d))

    def _target(self, i: int, j: int, t: float) -> tuple[float, float]:
        """Polar coordinates (r, phi) of the time-t point of the geodesic from i to j."""
        r1, p1 = self.polar[i]
        r2, p2 = self.polar[j]
        dphi = (p2 - p1 + self.alpha / 2) % self.alpha - self.alpha / 2
        if abs(dphi) >= np.pi:  # geodesic passes through the apex
            s = t * (r1 + r2)
            return (r1 - s, p1) if s <= r1 else (s - r1, p2)
        q = (1 - t) * np.array([r1, 0.0]) + t * np.array([r2 * np.cos(dphi), r2 * np.sin(dphi)])
        return float(np.hypot(q[0], q[1])), (p1 + float(np.arctan2(q[1], q[0]))) % self.alpha

    def _many(self, ii, jj, t):
        return np.array([self._nearest(*self._target(i, j, t)) for i, j in zip(ii, jj)], dtype=int)

    def restrict(self, idx):
        return ConeInterpolator(self.polar[idx], self.alpha, self.eps_geo)


class GraphInterpolator(Interpolator):
    """Shortest-path interpolation: walk the path to fraction t of its length.
    The oracle answers on the graph nodes ``keep``; a walk that ends on
    another node goes to the kept node nearest it by the graph metric."""

    def __init__(self, metric: np.ndarray, predecessors: np.ndarray, eps_geo: float,
                 keep: np.ndarray):
        self.metric = metric
        self.pred = predecessors
        self.eps_geo = float(eps_geo)
        self.keep = np.asarray(keep, dtype=int)
        self._pos = np.full(len(metric), -1)  # position of each node in keep, or -1
        self._pos[self.keep] = np.arange(len(self.keep))

    def _walk(self, i: int, j: int, t: float) -> int:
        path = [j]
        while path[-1] != i and self.pred[i, path[-1]] >= 0:
            path.append(int(self.pred[i, path[-1]]))
        path.reverse()
        return path[int(np.argmin(np.abs(self.metric[i, path] - t * self.metric[i, j])))]

    def _many(self, ii, jj, t):
        ends = np.array([self._walk(int(i), int(j), t)
                         for i, j in zip(self.keep[ii], self.keep[jj])], dtype=int)
        out = self._pos[ends]
        miss = np.flatnonzero(out < 0)
        out[miss] = np.argmin(self.metric[np.ix_(ends[miss], self.keep)], axis=1)
        return out

    def restrict(self, idx):
        return GraphInterpolator(self.metric, self.pred, self.eps_geo, self.keep[idx])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _lattice(dim: int, h: float, extent: float, shape: str) -> np.ndarray:
    k = int(np.floor(extent / h + 1e-9))
    # refuse before the meshgrid; a ball holds at least its inscribed cube
    inner = k if shape == "cube" else int(np.floor(extent / (h * np.sqrt(dim))))
    _check_size((2 * inner + 1) ** dim, exact=shape == "cube")
    axis = np.arange(-k, k + 1) * h
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    if shape == "ball":
        keep = np.linalg.norm(coords, axis=1) <= extent + 1e-12
        coords = coords[keep]
    return coords


def _int_tuples(arr: np.ndarray) -> tuple:
    return tuple(tuple(int(v) for v in row) for row in np.asarray(arr))


def _ball(base_row: np.ndarray, base: int, within: float | None) -> tuple[np.ndarray, int]:
    """The points of the closed ball of radius ``within`` about ``base`` (every
    point when None), given the base's distance row, and the base's position
    among them: the points that ``ball_restrict(.., within, "closed")`` keeps."""
    if within is None:
        return np.arange(len(base_row)), base
    if within <= 0:
        raise ValueError("ball radius must be positive")
    idx = np.flatnonzero(base_row <= within)
    return idx, int(np.searchsorted(idx, base))


def _lattice_space(coords: np.ndarray, h: float, p: float, weights: np.ndarray,
                   within: float | None, points: tuple | None = None) -> PointedSpace:
    """An h-lattice sample of the lp norm (p = inf is the max norm) with its
    snapping oracle, based at the point nearest the origin and cut to the
    ball ``within`` about it. Point ids default to the integer lattice indices."""
    _check_size(len(coords))
    base = int(np.argmin(np.linalg.norm(coords, axis=1)))
    idx, base = _ball(cdist(coords[base, None], coords, "minkowski", p=p)[0], base, within)
    coords = coords[idx]
    points = _int_tuples(np.round(coords / h)) if points is None else tuple(points[i] for i in idx)
    space = FiniteSpace(
        points=points, metric=cdist(coords, coords, "minkowski", p=p),
        weights=weights[idx], coords=coords,
        interpolator=GridInterpolator(coords, h, p=p), resolution=h,
    )
    return PointedSpace(space, base)


def make(spec: ModelSpec, within: float | None = None) -> PointedSpace:
    """Build the model space; the interpolation oracle rides on the FiniteSpace.

    With ``within``, the space is the closed ball of that radius about the
    base, equal to ``ball_restrict(make(spec), within, "closed")``. The
    lattice kinds and the cylinder cut their coordinates to the ball first
    and build the metric of the ball only; the other kinds cut the full build.

    A model of more than MODEL_POINT_LIMIT points, counted over the whole
    model whatever ``within`` keeps, raises ModelBudgetError (CLI exit 3)
    once its point count is known, before any n x n array."""
    if spec.kind in ("sphere", "cone", "graph"):
        ps = _make_full(spec)
        return ps if within is None else ball_restrict(ps, within, "closed")

    if spec.kind == "euclidean-grid":
        coords = _lattice(spec.dim, spec.h, spec.extent, spec.shape)
        return _lattice_space(coords, spec.h, 2.0, np.full(len(coords), spec.h**spec.dim),
                              within)

    if spec.kind == "lp-plane":
        coords = _lattice(2, spec.h, spec.extent, "cube")
        return _lattice_space(coords, spec.h, spec.p, np.full(len(coords), spec.h**2), within)

    if spec.kind == "cylinder":
        n_s = max(3, int(round(spec.circumference / spec.h)))
        hs = spec.circumference / n_s
        kz = int(np.floor(spec.height / 2 / spec.h + 1e-9))
        zs = np.arange(-kz, kz + 1) * spec.h
        ss = np.arange(n_s) * hs
        Z, S = np.meshgrid(zs, ss, indexing="ij")
        coords = np.stack([Z.ravel(), S.ravel()], axis=1)
        _check_size(len(coords))
        # axial and arc separations per pair of rows/rings, gathered for the
        # point pairs by each point's row zi and ring si
        dz = np.abs(zs[:, None] - zs[None, :])
        raw = np.abs(ss[:, None] - ss[None, :])
        darc = np.minimum(raw, spec.circumference - raw)
        zi, si = np.divmod(np.arange(len(coords)), n_s)
        base = int(np.argmin(np.hypot(coords[:, 0], coords[:, 1])))
        idx, base = _ball(np.hypot(dz[zi[base], zi], darc[si[base], si]), base, within)
        coords, zi, si = coords[idx], zi[idx], si[idx]
        metric = dz[zi].take(zi, axis=1)
        for k in range(0, len(si), 256):  # the arcs by row blocks, in place
            np.hypot(metric[k:k + 256], darc[si[k:k + 256]].take(si, axis=1),
                     out=metric[k:k + 256])
        interp = CylinderInterpolator(coords, spec.h, spec.circumference, n_s)
        space = FiniteSpace(
            points=_int_tuples(np.round(coords / spec.h)),
            metric=metric, weights=np.full(len(coords), spec.h * hs), coords=coords,
            interpolator=interp, resolution=max(spec.h, hs),
        )
        return PointedSpace(space, base)

    if spec.kind == "weighted-segment":
        coords = _lattice(1, spec.h, spec.extent, "cube")
        x = coords[:, 0]
        u = x / spec.extent
        profiles = {
            "uniform": np.ones_like(u),
            "linear": 1.0 + 0.45 * u,
            "quadratic": 0.25 + u**2,
            "exp": np.exp(u),
        }
        if spec.profile not in profiles:
            raise ValueError(f"unknown weight profile {spec.profile!r}")
        return _lattice_space(coords, spec.h, 2.0, spec.h * profiles[spec.profile], within,
                              points=tuple(int(round(v / spec.h)) for v in x))

    raise ValueError(f"unknown model kind {spec.kind!r}")


def _make_full(spec: ModelSpec) -> PointedSpace:
    """The whole sphere, cone or graph model, metric and all."""
    if spec.kind == "sphere":
        n = spec.n_points
        _check_size(n)
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        rho = np.sqrt(np.maximum(1 - z**2, 0.0))
        xyz = spec.radius * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        dots = np.clip(xyz @ xyz.T / spec.radius**2, -1.0, 1.0)
        metric = spec.radius * np.arccos(dots)
        np.fill_diagonal(metric, 0.0)
        metric = 0.5 * (metric + metric.T)
        weights = np.full(n, 4 * np.pi * spec.radius**2 / n)
        res = np.sqrt(4 * np.pi * spec.radius**2 / n)
        interp = SphereInterpolator(xyz, spec.radius, eps_geo=2.0 * res)
        space = FiniteSpace(
            points=tuple(range(n)), metric=metric, weights=weights,
            coords=xyz, interpolator=interp, resolution=res,
        )
        return PointedSpace(space, 0)

    if spec.kind == "cone":
        # the apex, then ring k at radius k h with n_k evenly spaced points
        rings = int(np.floor(spec.extent / spec.h + 1e-9))
        r_k = np.arange(1, rings + 1) * spec.h
        n_k = np.maximum(3, np.rint(spec.angle * r_k / spec.h).astype(np.int64))
        _check_size(1 + int(n_k.sum()))
        r, n_r = np.repeat(r_k, n_k), np.repeat(n_k, n_k)
        j = np.arange(len(r)) - np.repeat(np.cumsum(n_k) - n_k, n_k)
        polar = np.stack([np.r_[0.0, r], np.r_[0.0, spec.angle * j / n_r]], axis=1)
        ws = np.r_[spec.angle * spec.h**2 / 8, spec.angle * r * spec.h / n_r]
        rr = polar[:, 0]
        raw = np.abs(polar[:, 1][:, None] - polar[:, 1][None, :])  # < angle by construction
        dphi = np.minimum(raw, spec.angle - raw)
        metric = np.where(
            dphi >= np.pi,
            rr[:, None] + rr[None, :],
            np.sqrt(np.maximum(
                rr[:, None] ** 2 + rr[None, :] ** 2
                - 2 * rr[:, None] * rr[None, :] * np.cos(dphi), 0.0)),
        )
        np.fill_diagonal(metric, 0.0)
        interp = ConeInterpolator(polar, spec.angle, eps_geo=2.0 * spec.h)
        space = FiniteSpace(
            points=_int_tuples(np.round(polar / spec.h * 8)),
            metric=metric, weights=ws, coords=polar,
            interpolator=interp, resolution=spec.h,
        )
        return PointedSpace(space, 0)  # apex at the basepoint

    if spec.kind == "graph":
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components, shortest_path

        n = spec.n_points
        _check_size(n)
        rng = np.random.default_rng(spec.seed)
        pts = rng.random((n, 2))
        rad = spec.connect_radius
        diff = cdist(pts, pts)
        for _ in range(20):
            adj = (diff <= rad) & (diff > 0)
            ii, jj = np.nonzero(adj)
            g = coo_matrix((diff[ii, jj], (ii, jj)), shape=(n, n))
            ncomp, _ = connected_components(g, directed=False)
            if ncomp == 1:
                break
            rad *= 1.25
        else:
            raise ValueError("could not connect the random geometric graph")
        metric, pred = shortest_path(g, method="D", directed=False, return_predecessors=True)
        metric = np.minimum(metric, metric.T)  # kill last-ulp direction asymmetry
        weights = rng.uniform(0.5, 1.5, size=n)
        weights /= weights.sum()
        edge_lengths = diff[ii, jj]
        interp = GraphInterpolator(metric, pred, float(np.median(edge_lengths)), np.arange(n))
        space = FiniteSpace(
            points=tuple(range(n)), metric=metric, weights=weights,
            coords=pts, interpolator=interp,
            resolution=float(np.median(edge_lengths)),
        )
        return PointedSpace(space, 0)
