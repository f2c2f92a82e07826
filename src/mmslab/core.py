"""Finite pointed metric measure spaces.

The basic value types of the lab: a finite metric with nonnegative point
weights (``FiniteSpace``), the same with a basepoint (``PointedSpace``),
plus the operations every experiment builds on — rescaling, basepoint
normalization, ball restriction, doubling profiling and metric products.

All values are immutable after construction (arrays are frozen), so a
derived space can share arrays with its source instead of copying them:
``normalize_at`` changes only the weights and keeps the source's metric.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from os import PathLike
from typing import Any, Sequence

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "FiniteSpace",
    "PointedSpace",
    "ValidationReport",
    "DoublingProfile",
    "validate",
    "rescale",
    "normalize_at",
    "ball_restrict",
    "doubling_profile",
    "product",
    "load_space",
    "space_to_dict",
]

TRIANGLE_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteSpace:
    """A finite metric measure space (X, d, m).

    points   -- opaque point ids (kept only for reporting/round-trips)
    metric   -- (n, n) symmetric matrix of distances
    weights  -- (n,) nonnegative measure weights; support = {w > 0}
    coords   -- optional coordinate tags, shape (n, k)
    interpolator -- optional geodesic oracle (see mmslab.transport)
    resolution   -- declared sample spacing, if the space came from a sampler
    """

    points: tuple
    metric: np.ndarray
    weights: np.ndarray
    coords: np.ndarray | None = None
    interpolator: Any = None
    resolution: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "metric", _frozen(self.metric))
        object.__setattr__(self, "weights", _frozen(self.weights))
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
            object.__setattr__(self, "coords", _frozen(c))
        n = len(self.points)
        if self.metric.shape != (n, n):
            raise ValueError(f"metric shape {self.metric.shape} does not match {n} points")
        if self.weights.shape != (n,):
            raise ValueError(f"weights shape {self.weights.shape} does not match {n} points")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def support(self) -> np.ndarray:
        """Indices with positive weight."""
        return np.flatnonzero(self.weights > 0)

    @property
    def diameter(self) -> float:
        return float(self.metric.max()) if self.n else 0.0

    def ball_mass(self, center: int, r: float) -> float:
        return float(self.weights[self.metric[center] < r].sum())

    def min_positive_distance(self) -> float:
        """The least positive entry above the diagonal, or 0.0 if there is none."""
        above = np.triu(self.metric > 0, 1)
        return float(np.min(self.metric, where=above, initial=np.inf)) if above.any() else 0.0

    def declared_resolution(self) -> float:
        """Resolution metadata, falling back to the min positive distance."""
        if self.resolution is not None:
            return float(self.resolution)
        return self.min_positive_distance()

    def subset(self, idx: np.ndarray) -> "FiniteSpace":
        """Restriction to ``idx`` with the ambient (restricted-matrix) metric;
        this space itself when ``idx`` lists every point in order."""
        idx = np.asarray(idx, dtype=int)
        if np.array_equal(idx, np.arange(self.n)):
            return self
        interp = None if self.interpolator is None else self.interpolator.restrict(idx)
        return FiniteSpace(
            points=tuple(self.points[i] for i in idx),
            metric=self.metric[np.ix_(idx, idx)],
            weights=self.weights[idx],
            coords=None if self.coords is None else self.coords[idx],
            interpolator=interp,
            resolution=self.resolution,
        )

    def scaled(self, metric_factor: float) -> "FiniteSpace":
        """Distances and the declared resolution times ``metric_factor``.

        Weights, coordinates and the interpolator (an index-level oracle,
        invariant under scaling) are shared with this space; a factor of 1
        returns this space itself.
        """
        if metric_factor == 1.0:
            return self
        res = None if self.resolution is None else self.resolution * metric_factor
        return replace(self, metric=self.metric * metric_factor, resolution=res)


@dataclass(frozen=True)
class PointedSpace:
    """A pointed metric measure space (X, d, m, base)."""

    space: FiniteSpace
    base: int

    def __post_init__(self) -> None:
        if not (0 <= self.base < self.space.n):
            raise ValueError(f"basepoint {self.base} out of range")
        if self.space.weights[self.base] <= 0:
            raise ValueError("basepoint must lie in the support of the measure")

    @property
    def n(self) -> int:
        return self.space.n

    def base_distances(self) -> np.ndarray:
        return self.space.metric[self.base]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; empty ``violations`` means a valid space."""

    violations: tuple
    triangle_tol: float
    triangle_mode: str  # "exhaustive" | "sampled" | "skipped" (non-finite input)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self, kind: str) -> list:
        return [v for v in self.violations if v[0] == kind]

    def summary(self) -> str:
        if self.ok:
            return "valid"
        kinds: dict[str, int] = {}
        for v in self.violations:
            kinds[v[0]] = kinds.get(v[0], 0) + 1
        return ", ".join(f"{k}: {c}" for k, c in sorted(kinds.items()))


def min_plus(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Min-plus product out[i, j] = min_k A[i, k] + B[k, j], one k at a time.
    Each entry is a minimum of single sums, so any order of k gives the same bits."""
    out = np.full((A.shape[0], B.shape[1]), np.inf)
    for k in range(A.shape[1]):
        np.minimum(out, A[:, k, None] + B[k], out=out)
    return out


def _basic_violations(D: np.ndarray, w: np.ndarray) -> list[tuple]:
    """(kind, where, value) violations of the O(n^2) invariants; see validate."""
    out: list[tuple] = []
    for i, j in np.argwhere(~np.isfinite(D))[: 100]:
        out.append(("non_finite", (int(i), int(j)), float(D[i, j])))
    for i in np.flatnonzero(~np.isfinite(w)):
        out.append(("non_finite", (int(i),), float(w[i])))
    if out:
        return out

    diag = np.flatnonzero(np.diag(D) != 0)
    out.extend(("diagonal", (int(i),), float(D[i, i])) for i in diag)
    asym = np.argwhere(D != D.T)
    for i, j in asym[: 100]:
        if i < j:
            out.append(("symmetry", (int(i), int(j)), float(D[i, j] - D[j, i])))
    neg = np.argwhere(D < 0)
    for i, j in neg[: 100]:
        if i <= j:
            out.append(("negative_distance", (int(i), int(j)), float(D[i, j])))
    for i in np.flatnonzero(w < 0):
        out.append(("negative_weight", (int(i),), float(w[i])))
    if w.sum() <= 0:
        out.append(("total_mass", (), float(w.sum())))
    return out


def validate(space: FiniteSpace) -> ValidationReport:
    """Check the FiniteSpace invariants and report every violation.

    Non-finite distances or weights are checked first and end the check,
    since every later comparison with them is meaningless. Diagonal and
    symmetry are exact checks; the triangle inequality allows TRIANGLE_TOL
    (1e-9) to absorb float round-off of sampled constructions. Above 400
    points the O(n^3) triple scan switches to 2,000,000 triples drawn with
    seed 0.
    """
    D = space.metric
    n = space.n
    out = _basic_violations(D, space.weights)
    if out and out[0][0] == "non_finite":
        return ValidationReport(violations=tuple(out), triangle_tol=TRIANGLE_TOL,
                                triangle_mode="skipped")

    mode = "exhaustive"
    if n <= 400:
        # worst violation per (i,j): d(i,j) - min_k (d(i,k)+d(k,j))
        gap = D - min_plus(D, D)
        bad = np.argwhere(gap > TRIANGLE_TOL)
        for i, j in bad[: 200]:
            k = int(np.argmin(D[i] + D[:, j]))
            out.append(("triangle", (int(i), k, int(j)), float(gap[i, j])))
    else:
        mode = "sampled"
        rng = np.random.default_rng(0)
        m = min(2_000_000, n * n * 4)
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n, size=m)
        kk = rng.integers(0, n, size=m)
        gap = D[ii, jj] - (D[ii, kk] + D[kk, jj])
        bad = np.flatnonzero(gap > TRIANGLE_TOL)
        for b in bad[: 200]:
            out.append(("triangle", (int(ii[b]), int(kk[b]), int(jj[b])), float(gap[b])))

    return ValidationReport(violations=tuple(out), triangle_tol=TRIANGLE_TOL, triangle_mode=mode)


def rescale(ps: PointedSpace, r: float) -> PointedSpace:
    """The rescaled pointed space with metric d/r; weights and basepoint kept."""
    if r <= 0:
        raise ValueError("rescale factor must be positive")
    return PointedSpace(space=ps.space.scaled(metric_factor=1.0 / r), base=ps.base)


def normalization_constant(ps: PointedSpace, r: float) -> float:
    """The constant c with  c * sum_{d(y,base)<r} (1 - d(y,base)/r) w(y) = 1.

    Open ball as written in the defining integral; the basepoint always
    contributes w(base) > 0, so the sum is positive.
    """
    if r <= 0:
        raise ValueError("normalization radius must be positive")
    d = ps.base_distances()
    inside = d < r
    s = float(((1.0 - d[inside] / r) * ps.space.weights[inside]).sum())
    if s <= 0:
        raise ValueError("degenerate normalization sum; corrupt weights?")
    return 1.0 / s


def normalize_at(ps: PointedSpace, r: float) -> tuple[PointedSpace, float]:
    """Scale the measure so that the radius-r normalization identity holds.

    Returns the rescaled-measure space and the constant c applied to the
    weights; the new space shares the metric and every other field with
    ``ps``. Composing with ``rescale(.., r)`` yields a normalized pointed
    space: sum over the open unit ball of (1 - d) w' equals 1.
    """
    c = normalization_constant(ps, r)
    return PointedSpace(replace(ps.space, weights=ps.space.weights * c), ps.base), c


def ball_restrict(ps: PointedSpace, r: float, mode: str = "open") -> PointedSpace:
    """Restrict to the metric ball around the basepoint.

    The result carries the ambient restricted matrix, not the induced path
    metric of the ball.
    """
    if r <= 0:
        raise ValueError("ball radius must be positive")
    if mode not in ("open", "closed"):
        raise ValueError("mode must be 'open' or 'closed'")
    d = ps.base_distances()
    keep = d <= r if mode == "closed" else d < r
    idx = np.flatnonzero(keep)
    new_base = int(np.searchsorted(idx, ps.base))
    return PointedSpace(space=ps.space.subset(idx), base=new_base)


@dataclass(frozen=True)
class DoublingProfile:
    """Sampled doubling ratios r -> max_x m(B_2r(x))/m(B_r(x)) and their envelope."""

    radii: np.ndarray
    ratios: np.ndarray
    envelope: np.ndarray           # running max of ratios, non-decreasing
    centers_used: int
    iterated_violations: tuple     # tuples (a, x, r, R, lhs, bound)
    iterated_checked: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", _frozen(self.radii))
        object.__setattr__(self, "ratios", _frozen(self.ratios))
        object.__setattr__(self, "envelope", _frozen(self.envelope))

    def envelope_at(self, R: float) -> float:
        """Step-function value C(R): envelope at the largest profiled radius <= R."""
        i = int(np.searchsorted(self.radii, R, side="right")) - 1
        if i < 0:
            return float(self.envelope[0])
        return float(self.envelope[i])


def doubling_profile(
    space: FiniteSpace,
    radii: Sequence[float],
    centers: str | Sequence[int] = "auto",
    seed: int = 0,
    iterated_samples: int = 1000,
) -> DoublingProfile:
    """Worst-case doubling ratios over sampled centers plus the iterated bound check.

    ``centers="auto"`` takes the support, or a seeded sample of 512 points of
    a larger one; explicit centers must lie in the support.
    The iterated inequality m(B_R(a)) <= m(B_r(x)) * C(R)^(log2(R/r)+2) is
    verified on sampled tuples with x in B_R(a) and r <= R drawn from the
    profiled radii, C being the envelope.
    """
    radii = np.asarray(sorted(radii), dtype=float)
    if radii.size == 0 or not (radii[0] > 0 and np.isfinite(radii).all()):
        raise ValueError("radii must be positive, finite and non-empty")
    supp = space.support
    if isinstance(centers, str):
        if centers not in ("auto", "all"):
            raise ValueError("centers must be 'auto', 'all', or an index list")
        if centers == "all" or supp.size <= 512:
            cidx = supp
        else:
            rng = np.random.default_rng(seed)
            cidx = rng.choice(supp, size=512, replace=False)
    else:
        cidx = np.asarray(list(centers), dtype=int)
        if (space.weights[cidx] <= 0).any():
            raise ValueError("doubling centers must lie in the support of the measure")

    w = space.weights
    D = space.metric[cidx]  # (n_centers, n)
    ratios = np.empty(radii.size)
    for k, r in enumerate(radii):
        m_r = ((D < r) * w).sum(axis=1)
        m_2r = ((D < 2 * r) * w).sum(axis=1)
        ratios[k] = float((m_2r / m_r).max())
    envelope = np.maximum.accumulate(ratios)

    violations: list[tuple] = []
    checked = 0
    rng = np.random.default_rng(seed + 1)
    if iterated_samples > 0 and radii.size >= 1:
        for _ in range(iterated_samples):
            a = int(rng.choice(supp))
            iR = int(rng.integers(0, radii.size))
            ir = int(rng.integers(0, iR + 1))
            R, r = float(radii[iR]), float(radii[ir])
            in_R = np.flatnonzero((space.metric[a] < R) & (space.weights > 0))
            if in_R.size == 0:
                continue
            x = int(rng.choice(in_R))
            mR = space.ball_mass(a, R)
            mr = space.ball_mass(x, r)
            C = float(envelope[iR])
            bound = mr * C ** (np.log2(R / r) + 2.0)
            checked += 1
            if mR > bound * (1 + 1e-9) + 1e-9:
                violations.append((a, x, r, R, mR, float(bound)))

    return DoublingProfile(
        radii=radii,
        ratios=ratios,
        envelope=envelope,
        centers_used=int(cidx.size),
        iterated_violations=tuple(violations),
        iterated_checked=checked,
    )


def product(a: FiniteSpace, b: FiniteSpace, max_points: int = 6000) -> FiniteSpace:
    """Pythagorean metric product with product weights.

    d((x,y),(x',y')) = sqrt(d_a(x,x')^2 + d_b(y,y')^2), w = w_a * w_b.
    """
    n = a.n * b.n
    if n > max_points:
        raise ValueError(f"product would have {n} points, above the budget {max_points}")
    D2 = (a.metric ** 2)[:, None, :, None] + (b.metric ** 2)[None, :, None, :]
    metric = np.sqrt(D2.reshape(n, n))
    weights = np.multiply.outer(a.weights, b.weights).reshape(n)
    points = tuple((p, q) for p in a.points for q in b.points)
    coords = None
    if a.coords is not None and b.coords is not None:
        ca = np.repeat(a.coords, b.n, axis=0)
        cb = np.tile(b.coords, (a.n, 1))
        coords = np.hstack([ca, cb])
    res = None
    if a.resolution is not None or b.resolution is not None:
        cand = [r for r in (a.resolution, b.resolution) if r is not None]
        res = min(cand)
    return FiniteSpace(points=points, metric=metric, weights=weights, coords=coords, resolution=res)


# ---------------------------------------------------------------------------
# JSON space format
# ---------------------------------------------------------------------------

def _metric_from_spec(spec: dict, n: int) -> np.ndarray:
    kind = spec.get("kind")
    if kind == "matrix":
        M = np.asarray(spec["data"], dtype=float)
        if M.shape != (n, n):
            raise ValueError("matrix metric has wrong shape")
        return M
    if kind == "euclidean":
        coords = np.asarray(spec["coords"], dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.shape[0] != n:
            raise ValueError("euclidean coords have wrong length")
        return cdist(coords, coords, "minkowski", p=2.0)
    if kind == "graph":
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import shortest_path

        edges = spec["edges"]
        ii = [e[0] for e in edges] + [e[1] for e in edges]
        jj = [e[1] for e in edges] + [e[0] for e in edges]
        ll = [float(e[2]) for e in edges] * 2
        g = coo_matrix((ll, (ii, jj)), shape=(n, n))
        M = shortest_path(g, method="D", directed=False)
        if not np.isfinite(M).all():
            raise ValueError("graph metric is not connected")
        return np.minimum(M, M.T)  # exact symmetry despite float path sums
    raise ValueError(f"unknown metric kind {kind!r}")


def load_space(source: str | PathLike | dict) -> PointedSpace | FiniteSpace:
    """Load a space from the JSON format: a file path, or the parsed dict.

    Returns a PointedSpace when "base" is present, else a FiniteSpace.
    Raises ValueError on the first violation that ``validate`` would report,
    except that the O(n^3) triangle check is left to ``validate``.
    """
    if isinstance(source, dict):
        obj = source
    else:
        with open(source) as fh:
            obj = json.load(fh)
    points = obj["points"]
    n = len(points)
    metric = _metric_from_spec(obj["metric"], n)
    weights = np.asarray(obj["weights"], dtype=float)
    coords = None
    if obj["metric"].get("kind") == "euclidean":
        coords = np.asarray(obj["metric"]["coords"], dtype=float)
    space = FiniteSpace(
        points=points,
        metric=metric,
        weights=weights,
        coords=coords,
        resolution=obj.get("resolution"),
    )
    bad = _basic_violations(space.metric, space.weights)
    if bad:
        kind, where, value = bad[0]
        raise ValueError(f"space fails the {kind.replace('_', '-')} check at {where}: {value:g}")
    if "base" in obj and obj["base"] is not None:
        return PointedSpace(space=space, base=int(obj["base"]))
    return space


def space_to_dict(obj: PointedSpace | FiniteSpace) -> dict:
    space = obj.space if isinstance(obj, PointedSpace) else obj
    out = {
        "points": list(space.points),
        "metric": {"kind": "matrix", "data": space.metric.tolist()},
        "weights": space.weights.tolist(),
    }
    if space.resolution is not None:
        out["resolution"] = space.resolution
    if isinstance(obj, PointedSpace):
        out["base"] = int(obj.base)
    return out
