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

from .core import FiniteSpace, PointedSpace
from .transport import Interpolator

__all__ = ["ModelSpec", "GroundTruth", "ModelBudgetError", "make", "ground_truth", "KINDS",
           "parse_spec"]

# points per model space: its dense float64 metric takes n^2 * 8 bytes,
# 1.8 GB at the limit
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


class GridInterpolator(Interpolator):
    """Straight-line interpolation snapped to the nearest sample point.

    Works for any norm metric on a coordinate sample (segments are geodesics
    in normed spaces). Snapping is per-axis on full lattices with half-cell
    ties resolved downward (lowest constructed index); off-lattice targets
    fall back to a KD query.
    """

    def __init__(self, coords: np.ndarray, h: float, p: float = 2.0, eps_geo: float | None = None):
        self.coords = np.asarray(coords, dtype=float)
        self.h = float(h)
        self.p = p
        key = np.round(self.coords / self.h).astype(np.int64)
        self._lookup = {tuple(k): i for i, k in enumerate(key)}
        self._tree = cKDTree(self.coords)
        self.eps_geo = 1.5 * self.h if eps_geo is None else float(eps_geo)

    def _snap(self, target: np.ndarray) -> int:
        hit = self._lookup.get(tuple(_lattice_index(target, self.h)))
        if hit is not None:
            return hit
        return int(self._tree.query(target, p=self.p)[1])

    def _at(self, i: int, j: int, t: float) -> int:
        return self._snap((1.0 - t) * self.coords[i] + t * self.coords[j])

    def restrict(self, idx):
        return GridInterpolator(self.coords[idx], self.h, p=self.p, eps_geo=self.eps_geo)


class CylinderInterpolator(Interpolator):
    """Geodesics on circle x line: unwrap the short arc, interpolate, re-snap."""

    def __init__(self, coords: np.ndarray, h: float, circumference: float):
        self.coords = np.asarray(coords, dtype=float)  # columns: (z, s)
        self.h = float(h)
        self.circ = float(circumference)
        self.n_s = int(round(self.circ / self.h))
        key = np.round(self.coords / self.h).astype(np.int64)
        self._lookup = {tuple(k): i for i, k in enumerate(key)}
        self.eps_geo = 1.5 * self.h

    def _at(self, i: int, j: int, t: float) -> int:
        z1, s1 = self.coords[i]
        z2, s2 = self.coords[j]
        ds = (s2 - s1 + self.circ / 2) % self.circ - self.circ / 2
        z = (1 - t) * z1 + t * z2
        s = (s1 + t * ds) % self.circ
        kz, ks = _lattice_index((z, s), self.h).tolist()
        ks %= self.n_s
        hit = self._lookup.get((kz, ks))
        if hit is None:  # axis ends
            zs = self.coords[:, 0]
            hit = self._lookup[(int(_lattice_index(np.clip(z, zs.min(), zs.max()), self.h)), ks)]
        return hit


class SphereInterpolator(Interpolator):
    """Great-circle interpolation with nearest-sample (chordal) rounding."""

    def __init__(self, xyz: np.ndarray, radius: float, eps_geo: float):
        self.xyz = np.asarray(xyz, dtype=float)
        self.radius = float(radius)
        self._tree = cKDTree(self.xyz)
        self.eps_geo = float(eps_geo)

    def _at(self, i: int, j: int, t: float) -> int:
        u = self.xyz[i] / self.radius
        v = self.xyz[j] / self.radius
        ang = np.arccos(np.clip(u @ v, -1.0, 1.0))
        if ang < 1e-15:
            return int(i)
        w = (np.sin((1 - t) * ang) * u + np.sin(t * ang) * v) / np.sin(ang)
        w = w / np.linalg.norm(w) * self.radius
        return int(self._tree.query(w)[1])


class ConeInterpolator(Interpolator):
    """Geodesics on a cone of total angle alpha via sector unrolling."""

    def __init__(self, polar: np.ndarray, angle: float, metric: np.ndarray, eps_geo: float):
        self.polar = np.asarray(polar, dtype=float)  # (r, phi)
        self.alpha = float(angle)
        self.metric = metric
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

    def _at(self, i: int, j: int, t: float) -> int:
        r1, p1 = self.polar[i]
        r2, p2 = self.polar[j]
        dphi = (p2 - p1 + self.alpha / 2) % self.alpha - self.alpha / 2
        if abs(dphi) >= np.pi:  # geodesic passes through the apex
            s = t * (r1 + r2)
            if s <= r1:
                return self._nearest(r1 - s, p1)
            return self._nearest(s - r1, p2)
        a = np.array([r1, 0.0])
        b = np.array([r2 * np.cos(dphi), r2 * np.sin(dphi)])
        q = (1 - t) * a + t * b
        r = float(np.hypot(q[0], q[1]))
        psi = float(np.arctan2(q[1], q[0]))
        return self._nearest(r, (p1 + psi) % self.alpha)


class GraphInterpolator(Interpolator):
    """Shortest-path interpolation: walk the path to fraction t of its length."""

    def __init__(self, metric: np.ndarray, predecessors: np.ndarray, eps_geo: float):
        self.metric = metric
        self.pred = predecessors
        self.eps_geo = float(eps_geo)

    def _path(self, i: int, j: int) -> list[int]:
        out = [j]
        while out[-1] != i:
            p = int(self.pred[i, out[-1]])
            if p < 0:
                break
            out.append(p)
        return out[::-1]

    def _at(self, i: int, j: int, t: float) -> int:
        path = self._path(int(i), int(j))
        cum = np.array([self.metric[i, k] for k in path])
        target = t * self.metric[i, j]
        return int(path[int(np.argmin(np.abs(cum - target)))])


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


def _lattice_space(coords: np.ndarray, h: float, p: float, weights: np.ndarray,
                   points: tuple | None = None) -> PointedSpace:
    """An h-lattice sample of the lp norm (p = inf is the max norm) with its
    snapping oracle, based at the point nearest the origin. Point ids default
    to the integer lattice indices."""
    _check_size(len(coords))
    if points is None:
        points = _int_tuples(np.round(coords / h))
    space = FiniteSpace(
        points=points, metric=cdist(coords, coords, "minkowski", p=p),
        weights=weights, coords=coords,
        interpolator=GridInterpolator(coords, h, p=p), resolution=h,
    )
    return PointedSpace(space, int(np.argmin(np.linalg.norm(coords, axis=1))))


def make(spec: ModelSpec) -> PointedSpace:
    """Build the model space; the interpolation oracle rides on the FiniteSpace.

    A model of more than MODEL_POINT_LIMIT points raises ModelBudgetError
    (CLI exit 3) once its point count is known, before any n x n array."""
    if spec.kind == "euclidean-grid":
        coords = _lattice(spec.dim, spec.h, spec.extent, spec.shape)
        return _lattice_space(coords, spec.h, 2.0, np.full(len(coords), spec.h**spec.dim))

    if spec.kind == "lp-plane":
        coords = _lattice(2, spec.h, spec.extent, "cube")
        return _lattice_space(coords, spec.h, spec.p, np.full(len(coords), spec.h**2))

    if spec.kind == "cylinder":
        n_s = max(3, int(round(spec.circumference / spec.h)))
        hs = spec.circumference / n_s
        kz = int(np.floor(spec.height / 2 / spec.h + 1e-9))
        zs = np.arange(-kz, kz + 1) * spec.h
        ss = np.arange(n_s) * hs
        Z, S = np.meshgrid(zs, ss, indexing="ij")
        coords = np.stack([Z.ravel(), S.ravel()], axis=1)
        _check_size(len(coords))
        # axial and arc separations per pair of rows/rings, broadcast to the
        # (z, s) x (z, s) point pairs
        dz = np.abs(zs[:, None] - zs[None, :])
        raw = np.abs(ss[:, None] - ss[None, :])
        darc = np.minimum(raw, spec.circumference - raw)
        n = len(coords)
        metric = np.hypot(dz[:, None, :, None], darc[None, :, None, :]).reshape(n, n)
        weights = np.full(len(coords), spec.h * hs)
        interp = CylinderInterpolator(coords, spec.h, spec.circumference)
        space = FiniteSpace(
            points=_int_tuples(np.round(coords / spec.h)),
            metric=metric, weights=weights, coords=coords,
            interpolator=interp, resolution=max(spec.h, hs),
        )
        base = int(np.argmin(np.hypot(coords[:, 0], coords[:, 1])))
        return PointedSpace(space, base)

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
        interp = ConeInterpolator(polar, spec.angle, metric, eps_geo=2.0 * spec.h)
        space = FiniteSpace(
            points=_int_tuples(np.round(polar / spec.h * 8)),
            metric=metric, weights=ws, coords=polar,
            interpolator=interp, resolution=spec.h,
        )
        return PointedSpace(space, 0)  # apex at the basepoint

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
        return _lattice_space(coords, spec.h, 2.0, spec.h * profiles[spec.profile],
                              points=tuple(int(round(v / spec.h)) for v in x))

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
        interp = GraphInterpolator(metric, pred, eps_geo=float(np.median(edge_lengths)))
        space = FiniteSpace(
            points=tuple(range(n)), metric=metric, weights=weights,
            coords=pts, interpolator=interp,
            resolution=float(np.median(edge_lengths)),
        )
        return PointedSpace(space, 0)

    raise ValueError(f"unknown model kind {spec.kind!r}")
