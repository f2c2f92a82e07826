"""Core space types: validation, rescaling, normalization, balls, doubling, products."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import core, models
from mmslab.core import FiniteSpace, PointedSpace

from oracles import normalization_constant_nd, nx_shortest_path_matrix


def segment(n=11, h=0.1):
    x = np.arange(n) * h
    D = np.abs(x[:, None] - x[None, :])
    return FiniteSpace(tuple(range(n)), D, np.full(n, h), coords=x, resolution=h)


class TestValidate:
    def test_triangle_violation_reported(self):
        D = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        rep = core.validate(FiniteSpace((0, 1, 2), D, np.ones(3)))
        assert not rep.ok
        kinds = {v[0] for v in rep.violations}
        assert kinds == {"triangle"}

    def test_nonzero_diagonal_reported(self):
        D = np.array([[0.5, 1], [1, 0]], dtype=float)
        rep = core.validate(FiniteSpace((0, 1), D, np.ones(2)))
        assert rep.by_kind("diagonal")

    def test_valid_grid_empty_report(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.25, extent=0.5))
        rep = core.validate(ps.space)
        # independent brute-force triple scan
        D = ps.space.metric
        n = ps.n
        worst = max(
            D[i, j] - D[i, k] - D[k, j]
            for i in range(n) for j in range(n) for k in range(n)
        )
        assert worst <= 1e-9
        assert rep.ok

    def test_asymmetry_reported(self):
        D = np.array([[0, 1.0], [1.1, 0]])
        rep = core.validate(FiniteSpace((0, 1), D, np.ones(2)))
        assert rep.by_kind("symmetry")

    def test_non_finite_reported_first(self):
        D = np.array([[0, 1.0], [1.0, 0]])
        rep = core.validate(FiniteSpace((0, 1), D, np.array([1.0, np.nan])))
        assert [v[0] for v in rep.violations] == ["non_finite"]
        D = np.array([[0, np.inf, 1.0], [np.inf, 0, 1.0], [1.0, 1.0, 0]])
        rep = core.validate(FiniteSpace((0, 1, 2), D, np.ones(3)))
        assert not rep.ok
        assert {v[0] for v in rep.violations} == {"non_finite"}


class TestRescale:
    def test_identity(self):
        ps = PointedSpace(segment(), 0)
        out = core.rescale(ps, 1.0)
        assert np.array_equal(out.space.metric, ps.space.metric)

    def test_composition(self):
        ps = PointedSpace(segment(), 0)
        twice = core.rescale(core.rescale(ps, 2.0), 2.0)
        once = core.rescale(ps, 4.0)
        assert np.allclose(twice.space.metric, once.space.metric, rtol=1e-15)

    def test_zoom_lengthens(self):
        ps = PointedSpace(segment(n=2, h=1.0), 0)
        out = core.rescale(ps, 0.1)
        assert out.space.metric[0, 1] == pytest.approx(10.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            core.rescale(PointedSpace(segment(), 0), 0.0)

    def test_roundtrip_property(self):
        rng = np.random.default_rng(0)
        ps = PointedSpace(segment(), 3)
        for r in rng.uniform(0.1, 10.0, size=20):
            back = core.rescale(core.rescale(ps, r), 1.0 / r)
            err = np.abs(back.space.metric - ps.space.metric)
            assert err.max() <= 1e-12 * max(1.0, ps.space.metric.max())

    def test_scaled_keeps_weights_and_interpolator(self):
        sp = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.1, extent=0.5)).space
        big = sp.scaled(2.5)
        assert big.weights is sp.weights
        assert big.interpolator is sp.interpolator
        assert np.array_equal(big.metric, 2.5 * sp.metric)
        assert big.resolution == 2.5 * sp.resolution


class TestNormalizeAt:
    def test_1d_constant_approaches_one(self):
        # oracle: c = 1 / int_{-1}^{1} (1 - |x|) dx = 1
        assert normalization_constant_nd(1) == pytest.approx(1.0, abs=1e-12)
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.002, extent=1.0))
        _, c = core.normalize_at(ps, 1.0)
        assert c == pytest.approx(1.0, abs=5e-3)

    def test_2d_disk_constant(self):
        oracle = normalization_constant_nd(2)
        assert oracle == pytest.approx(3 / np.pi, abs=1e-12)
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.02,
                                          extent=1.0, shape="ball"))
        _, c = core.normalize_at(ps, 1.0)
        assert c == pytest.approx(3 / np.pi, rel=2e-2)

    def test_idempotent(self):
        ps = PointedSpace(segment(), 5)
        once, _ = core.normalize_at(ps, 0.35)
        again, c2 = core.normalize_at(once, 0.35)
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_shares_metric(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.1, extent=0.5))
        nps, c = core.normalize_at(ps, 0.3)
        assert nps.space.metric is ps.space.metric
        assert nps.space.interpolator is ps.space.interpolator
        assert np.array_equal(nps.space.weights, c * ps.space.weights)

    def test_identity_after_rescale(self):
        ps = PointedSpace(segment(101, 0.01), 50)
        for r in (0.1, 0.3, 0.7):
            nps, _ = core.normalize_at(ps, r)
            rps = core.rescale(nps, r)
            d = rps.base_distances()
            inside = d < 1.0
            val = ((1 - d[inside]) * rps.space.weights[inside]).sum()
            assert val == pytest.approx(1.0, abs=1e-9)


class TestBallRestrict:
    def test_radius_beyond_diameter_is_identity(self):
        ps = PointedSpace(segment(), 4)
        out = core.ball_restrict(ps, 100.0)
        assert out.n == ps.n

    def test_tiny_radius_singleton(self):
        ps = PointedSpace(segment(), 4)
        out = core.ball_restrict(ps, 0.05)
        assert out.n == 1
        assert out.space.points[0] == ps.space.points[4]

    def test_grid_count_matches_filter(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.05, extent=0.5))
        out = core.ball_restrict(ps, 0.25)
        expected = int((np.linalg.norm(ps.space.coords, axis=1) < 0.25).sum())
        assert out.n == expected

    def test_closed_vs_open(self):
        ps = PointedSpace(segment(11, 0.25), 0)  # binary-exact spacing
        assert core.ball_restrict(ps, 0.75, "closed").n == 4
        assert core.ball_restrict(ps, 0.75, "open").n == 3


class TestDoubling:
    def test_singleton_ratios_one(self):
        sp = FiniteSpace((0,), np.zeros((1, 1)), np.ones(1))
        prof = core.doubling_profile(sp, [0.5, 1.0])
        assert np.allclose(prof.ratios, 1.0)

    def test_1d_grid_envelope_near_two(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.005, extent=1.0))
        interior = np.flatnonzero(np.abs(ps.space.coords[:, 0]) < 0.5)
        prof = core.doubling_profile(ps.space, [0.11, 0.21], centers=interior)
        assert np.all(np.abs(prof.ratios - 2.0) / 2.0 < 0.05)

    def test_2d_grid_envelope_near_four(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.05, extent=1.0))
        interior = np.flatnonzero(np.linalg.norm(ps.space.coords, axis=1) < 0.4)
        prof = core.doubling_profile(ps.space, [0.22], centers=interior)
        assert np.all(np.abs(prof.ratios - 4.0) / 4.0 < 0.05)

    def test_envelope_monotone_and_iterated_bound(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.1, extent=1.0))
        prof = core.doubling_profile(ps.space, [0.15, 0.3, 0.6], seed=1,
                                     iterated_samples=500)
        assert np.all(np.diff(prof.envelope) >= 0)
        assert prof.iterated_checked > 0
        assert not prof.iterated_violations

    def test_center_outside_support_rejected(self):
        # a zero-weight center has m(B_r) = 0, which made the ratio nan
        D = np.array([[0, 1.0, 2.0], [1.0, 0, 1.0], [2.0, 1.0, 0]])
        sp = FiniteSpace((0, 1, 2), D, np.array([1.0, 0.0, 1.0]))
        assert core.doubling_profile(sp, [0.5, 1.5], centers=[0]).ratios.size == 2
        with pytest.raises(ValueError, match="support"):
            core.doubling_profile(sp, [0.5, 1.5], centers=[1])

    def test_envelope_at_steps(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.05, extent=1.0))
        prof = core.doubling_profile(ps.space, [0.1, 0.2, 0.4])
        assert prof.envelope_at(0.25) == prof.envelope[1]
        assert prof.envelope_at(5.0) == prof.envelope[-1]


class TestProduct:
    def test_singleton_factor_keeps_other(self):
        seg = segment(5, 0.25)
        single = FiniteSpace(("pt",), np.zeros((1, 1)), np.ones(1))
        prod = core.product(single, seg)
        assert np.allclose(prod.metric, seg.metric)
        assert np.allclose(prod.weights, seg.weights)

    def test_two_segments_give_grid(self):
        a = segment(4, 0.5)
        b = segment(3, 0.5)
        prod = core.product(a, b)
        # pairwise oracle straight from coordinates
        coords = np.array([(xa, xb) for xa in a.coords[:, 0] for xb in b.coords[:, 0]])
        D = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        assert np.allclose(prod.metric, D, atol=1e-12)

    def test_mass_multiplies(self):
        a, b = segment(4, 0.5), segment(7, 0.1)
        assert core.product(a, b).mass == pytest.approx(a.mass * b.mass, rel=1e-12)

    def test_budget_guard(self):
        a = segment(100, 0.01)
        with pytest.raises(ValueError):
            core.product(a, a, max_points=500)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
    def test_product_triangle_property(self, na, nb, seed):
        rng = np.random.default_rng(seed)
        pa = rng.random((na, 2))
        pb = rng.random((nb, 3))
        A = FiniteSpace(tuple(range(na)),
                        np.linalg.norm(pa[:, None] - pa[None, :], axis=2),
                        rng.random(na) + 0.1)
        B = FiniteSpace(tuple(range(nb)),
                        np.linalg.norm(pb[:, None] - pb[None, :], axis=2),
                        rng.random(nb) + 0.1)
        rep = core.validate(core.product(A, B))
        assert rep.ok


class TestSpaceJson:
    def test_matrix_roundtrip(self, tmp_path):
        ps = PointedSpace(segment(5, 0.2), 2)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(core.space_to_dict(ps)))
        back = core.load_space(str(path))
        assert isinstance(back, PointedSpace)
        assert back.base == 2
        assert np.allclose(back.space.metric, ps.space.metric)

    def test_path_with_braces(self, tmp_path):
        ps = PointedSpace(segment(5, 0.2), 2)
        path = tmp_path / "run{1}.json"
        path.write_text(json.dumps(core.space_to_dict(ps)))
        for src in (path, str(path)):
            back = core.load_space(src)
            assert back.base == 2
            assert np.array_equal(back.space.metric, ps.space.metric)

    def test_euclidean_kind(self):
        obj = {"points": [0, 1, 2],
               "metric": {"kind": "euclidean", "coords": [[0, 0], [1, 0], [0, 1]]},
               "weights": [1, 1, 1], "base": 0}
        ps = core.load_space(obj)
        assert ps.space.metric[1, 2] == pytest.approx(np.sqrt(2))

    def test_graph_kind_shortest_path_closure(self):
        edges = [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [0, 3, 10.0]]
        obj = {"points": [0, 1, 2, 3],
               "metric": {"kind": "graph", "edges": edges},
               "weights": [1, 1, 1, 1], "base": 0}
        ps = core.load_space(obj)
        oracle = nx_shortest_path_matrix([(e[0], e[1], e[2]) for e in edges], 4)
        assert np.allclose(ps.space.metric, oracle, atol=1e-12)

    def test_disconnected_graph_rejected(self):
        obj = {"points": [0, 1, 2],
               "metric": {"kind": "graph", "edges": [[0, 1, 1.0]]},
               "weights": [1, 1, 1], "base": 0}
        with pytest.raises(ValueError):
            core.load_space(obj)

    def test_non_finite_rejected(self):
        nan, inf = float("nan"), float("inf")
        for data, weights in (([[0, inf], [inf, 0]], [1, 1]),
                              ([[0, 1], [1, 0]], [1, nan])):
            obj = {"points": [0, 1], "metric": {"kind": "matrix", "data": data},
                   "weights": weights, "base": 0}
            with pytest.raises(ValueError, match="non-finite"):
                core.load_space(obj)


class TestInvariantsMisc:
    def test_min_positive_distance_matches_the_index_formula(self):
        # the least positive entry above the diagonal, as the triu_indices
        # formula took it, on matrices with zeros, asymmetry, infinities and n = 1
        def by_indices(D):
            d = D[np.triu_indices(len(D), 1)]
            d = d[d > 0]
            return float(d.min()) if d.size else 0.0

        rng = np.random.default_rng(5)
        mats = [np.zeros((1, 1)), np.zeros((3, 3)), np.array([[0.0, 0.0], [2.0, 0.0]]),
                np.array([[0.0, np.inf], [np.inf, 0.0]])]
        for n in (2, 3, 7, 20):
            D = rng.uniform(0.0, 5.0, (n, n)) * (rng.random((n, n)) < 0.6)
            mats += [D, D.T, np.where(rng.random((n, n)) < 0.8, 0.0, -D)]
        for D in mats:
            got = FiniteSpace(tuple(range(len(D))), D, np.ones(len(D))).min_positive_distance()
            assert got == by_indices(D) and type(got) is float

    def test_basepoint_must_be_in_support(self):
        sp = FiniteSpace((0, 1), np.array([[0, 1.0], [1.0, 0]]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            PointedSpace(sp, 1)

    def test_immutability(self):
        sp = segment()
        with pytest.raises(ValueError):
            sp.metric[0, 1] = 99.0
