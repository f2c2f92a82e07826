"""Model generators: validity, metric formulas, interpolation oracles, registry."""
import numpy as np
import pytest

from mmslab import core, models
from mmslab.models import ModelSpec, ground_truth, make, parse_spec

from oracles import cylinder_metric, pairwise_norm


ALL_SPECS = [
    ModelSpec("euclidean-grid", dim=1, h=0.1, extent=1.0),
    ModelSpec("euclidean-grid", dim=2, h=0.2, extent=1.0, shape="ball"),
    ModelSpec("lp-plane", p=np.inf, h=0.25, extent=1.0),
    ModelSpec("lp-plane", p=3.0, h=0.25, extent=1.0),
    ModelSpec("sphere", n_points=200),
    ModelSpec("cone", angle=3 * np.pi / 2, h=0.2, extent=1.0),
    ModelSpec("cylinder", circumference=1.0, height=3.0, h=0.1),
    ModelSpec("weighted-segment", h=0.05, extent=1.0, profile="linear"),
    ModelSpec("graph", n_points=25, seed=3),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}")
def test_all_kinds_validate(spec):
    ps = make(spec)
    rep = core.validate(ps.space)
    assert rep.ok, rep.summary()
    assert ps.space.weights[ps.base] > 0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}")
def test_interpolator_endpoints(spec):
    ps = make(spec)
    interp = ps.space.interpolator
    if interp is None:
        pytest.skip("no oracle for this kind")
    n = ps.n
    rng = np.random.default_rng(0)
    for _ in range(10):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        assert interp(i, j, 0.0) == i
        assert interp(i, j, 1.0) == j
        k = interp(i, j, 0.5)
        assert 0 <= k < n


# (spec, point count, exponent of the broadcast formula); the weighted
# segment's metric is |x - y|, which the p = 1 formula computes exactly
LATTICE_SPECS = {
    "grid-1d": (ModelSpec("euclidean-grid", dim=1, h=0.01, extent=0.5), 101, 2.0),
    "grid-2d": (ModelSpec("euclidean-grid", dim=2, h=0.1, extent=1.0), 441, 2.0),
    "grid-3d": (ModelSpec("euclidean-grid", dim=3, h=0.25, extent=1.0), 729, 2.0),
    "grid-2d-ball": (ModelSpec("euclidean-grid", dim=2, h=0.2, extent=1.0, shape="ball"),
                     81, 2.0),
    "grid-3d-ball": (ModelSpec("euclidean-grid", dim=3, h=0.25, extent=1.0, shape="ball"),
                     257, 2.0),
    "lp-plane-1": (ModelSpec("lp-plane", p=1.0, h=0.25, extent=1.0), 81, 1.0),
    "lp-plane-inf": (ModelSpec("lp-plane", p=np.inf, h=0.5, extent=1.0), 25, np.inf),
    "lp-plane-3": (ModelSpec("lp-plane", p=3.0, h=0.25, extent=1.0), 81, 3.0),
    "weighted-segment": (ModelSpec("weighted-segment", h=0.05, extent=1.0, profile="linear"),
                         41, 1.0),
}


@pytest.mark.parametrize("name", LATTICE_SPECS)
def test_lattice_metric_matches_broadcast_formula(name):
    spec, n, p = LATTICE_SPECS[name]
    sp = make(spec).space
    assert sp.n == n
    expect = pairwise_norm(sp.coords, p)
    if p in (1.0, 2.0, np.inf):
        assert np.array_equal(sp.metric, expect)
    else:  # the two lp formulas round differently, by at most an ulp
        assert np.allclose(sp.metric, expect, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("c,L,h", [(1.0, 3.0, 0.1), (1.0, 5.0, 0.05), (1.3, 2.0, 0.07)])
def test_cylinder_metric_matches_pointwise_formula(c, L, h):
    sp = make(ModelSpec("cylinder", circumference=c, height=L, h=h)).space
    assert np.array_equal(sp.metric, cylinder_metric(sp.coords, c))


def test_lp_plane_interpolation_stays_on_segment():
    ps = make(ModelSpec("lp-plane", p=np.inf, h=0.1, extent=1.0))
    interp = ps.space.interpolator
    c = ps.space.coords
    i = int(np.argmin(np.linalg.norm(c - np.array([-1, -1]), axis=1)))
    j = int(np.argmin(np.linalg.norm(c - np.array([1, 0.6]), axis=1)))
    for t in (0.25, 0.5, 0.75):
        k = interp(i, j, t)
        target = (1 - t) * c[i] + t * c[j]
        assert np.abs(c[k] - target).max() <= 0.05 + 1e-12


def _index_of(coords, *x):
    return int(np.argmin(np.abs(coords - np.array(x)).max(axis=1)))


def test_half_cell_ties_snap_to_lower_lattice_index():
    # a midpoint exactly between two lattice points goes to the lower index,
    # from either end, whatever float noise t * h leaves in the target
    grid = make(ModelSpec("euclidean-grid", dim=2, h=0.1, extent=1.0)).space
    g, c = grid.interpolator, grid.coords
    for a, b, low in [((0.3, 0.0), (0.4, 0.0), (0.3, 0.0)),
                      ((-0.7, 0.2), (-0.6, 0.3), (-0.7, 0.2)),
                      ((0.5, -0.4), (0.4, -0.5), (0.4, -0.5))]:
        i, j = _index_of(c, *a), _index_of(c, *b)
        assert g(i, j, 0.5) == g(j, i, 0.5) == _index_of(c, *low)
    cyl = make(ModelSpec("cylinder", circumference=1.0, height=3.0, h=0.1)).space
    f, c = cyl.interpolator, cyl.coords  # columns (z, s)
    for a, b, low in [((0.2, 0.3), (0.3, 0.3), (0.2, 0.3)),    # along the axis
                      ((-0.4, 0.6), (-0.4, 0.7), (-0.4, 0.6)),  # around the ring
                      ((0.0, 0.9), (0.0, 0.0), (0.0, 0.9))]:    # across the seam
        i, j = _index_of(c, *a), _index_of(c, *b)
        assert f(i, j, 0.5) == f(j, i, 0.5) == _index_of(c, *low)


def test_cone_metric_against_unrolled_sectors():
    # oracle: for angular separation below pi, unroll the sector to the plane
    # and measure the straight segment
    spec = ModelSpec("cone", angle=3 * np.pi / 2, h=0.1, extent=1.0)
    ps = make(spec)
    polar = ps.space.coords
    rng = np.random.default_rng(1)
    for _ in range(60):
        a, b = rng.integers(ps.n, size=2)
        r1, p1 = polar[a]
        r2, p2 = polar[b]
        dphi = abs((p2 - p1 + spec.angle / 2) % spec.angle - spec.angle / 2)
        if dphi < np.pi:
            x1 = np.array([r1, 0.0])
            x2 = np.array([r2 * np.cos(dphi), r2 * np.sin(dphi)])
            expect = np.linalg.norm(x1 - x2)
        else:
            expect = r1 + r2
        assert ps.space.metric[a, b] == pytest.approx(expect, abs=1e-12)


def test_cone_apex_is_base():
    ps = make(ModelSpec("cone", angle=np.pi, h=0.2, extent=1.0))
    assert ps.space.coords[ps.base, 0] == 0.0


def test_sphere_metric_is_great_circle():
    ps = make(ModelSpec("sphere", n_points=150, radius=2.0))
    xyz = ps.space.coords
    rng = np.random.default_rng(2)
    for _ in range(40):
        a, b = rng.integers(150, size=2)
        cosang = np.clip(xyz[a] @ xyz[b] / 4.0, -1, 1)
        assert ps.space.metric[a, b] == pytest.approx(2.0 * np.arccos(cosang), abs=1e-9)
    assert ps.space.diameter <= 2.0 * np.pi + 1e-9


def test_sphere_interpolation_near_great_circle():
    ps = make(ModelSpec("sphere", n_points=500))
    interp = ps.space.interpolator
    D = ps.space.metric
    rng = np.random.default_rng(3)
    for _ in range(15):
        i, j = rng.integers(500, size=2)
        if D[i, j] < 0.3 or D[i, j] > 2.5:
            continue
        k = interp(i, j, 0.5)
        assert abs(D[i, k] - 0.5 * D[i, j]) <= 2.5 * ps.space.resolution


def test_cylinder_wraps_short_way():
    ps = make(ModelSpec("cylinder", circumference=1.0, height=2.0, h=0.1))
    c = ps.space.coords
    a = int(np.argmin(np.abs(c[:, 0]) + np.abs(c[:, 1] - 0.1)))
    b = int(np.argmin(np.abs(c[:, 0]) + np.abs(c[:, 1] - 0.9)))
    assert ps.space.metric[a, b] == pytest.approx(0.2, abs=1e-12)


def test_weighted_segment_profiles_positive():
    for profile in ("uniform", "linear", "quadratic", "exp"):
        ps = make(ModelSpec("weighted-segment", h=0.1, extent=1.0, profile=profile))
        assert (ps.space.weights > 0).all()
    with pytest.raises(ValueError):
        make(ModelSpec("weighted-segment", profile="bogus"))


def test_graph_deterministic_and_connected():
    a = make(ModelSpec("graph", n_points=20, seed=7))
    b = make(ModelSpec("graph", n_points=20, seed=7))
    assert np.array_equal(a.space.metric, b.space.metric)
    assert np.isfinite(a.space.metric).all()
    c = make(ModelSpec("graph", n_points=20, seed=8))
    assert not np.array_equal(a.space.metric, c.space.metric)


def test_grid_doubling_exponent():
    for dim, h, r in ((1, 0.005, 0.11), (2, 0.02, 0.21)):
        ps = make(ModelSpec("euclidean-grid", dim=dim, h=h, extent=1.0))
        interior = np.flatnonzero(
            np.abs(ps.space.coords).max(axis=1) < 1.0 - 2.2 * r)
        prof = core.doubling_profile(ps.space, [r], centers=interior[:200])
        assert prof.ratios[0] == pytest.approx(2.0**dim, rel=0.05)


def test_ground_truth_registry():
    gt = ground_truth("lp-plane")
    assert gt.tangent_model == "lp-plane:p"
    assert ground_truth("sphere").tangent_model == "euclidean:2"
    assert ground_truth("cone").exceptional == "apex"
    with pytest.raises(ValueError):
        ground_truth("nope")


def test_parse_spec_strings():
    s = parse_spec("euclidean-grid:3d,h=0.5,extent=4,shape=ball")
    assert (s.kind, s.dim, s.h, s.extent, s.shape) == ("euclidean-grid", 3, 0.5, 4.0, "ball")
    s = parse_spec("lp-plane:p=inf,h=0.05")
    assert np.isinf(s.p)
    s = parse_spec("cylinder:c=1,L=5,h=0.05")
    assert (s.circumference, s.height) == (1.0, 5.0)
    with pytest.raises(ValueError):
        parse_spec("torus:1d")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ModelSpec("euclidean-grid", h=-0.1)
    with pytest.raises(ValueError):
        ModelSpec("euclidean-grid", extent=0.0)


@pytest.mark.parametrize("text", [
    "euclidean-grid:2d,h=0.01",
    "lp-plane:p=1,h=0.01",
    "sphere:N=20000",
    "cone:h=0.02,extent=1.8",
    "cylinder:c=1,L=10,h=0.02",
    "weighted-segment:h=0.0001",
    "graph:N=20000",
    pytest.param("euclidean-grid:3d,h=0.01,shape=ball", id="euclidean-grid-3d-ball"),
    pytest.param("cone:h=0.001", id="cone-fine"),
], ids=lambda t: t.split(":")[0])
def test_point_limit_refuses_before_the_metric(text):
    # every kind counts its points before any n x n array, and the lattices
    # and cone rings before their coordinates: each of these models is above
    # the limit, and the refusal allocates well under the 3.2 GB that the
    # smallest of their metrics would take
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(models.ModelBudgetError, match="points, above the limit of 15000"):
            make(parse_spec(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
