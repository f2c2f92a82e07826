"""Blow-ups, tangent matching, line detection, splitting, dimension iteration."""
import json

import numpy as np
import pytest

from mmslab import cli, core, models, pmgh, tangent_lab as tl
from mmslab.core import FiniteSpace, PointedSpace

from oracles import fiber_pair_mean, leader_medoids


def grid(dim, h, extent, shape="cube"):
    return models.make(models.ModelSpec("euclidean-grid", dim=dim, h=h,
                                        extent=extent, shape=shape))


def jittered_grid(extent):
    """The 2-D h=0.05 grid with the rows off the base's jittered and the
    weights varied: quotient distances inside a fiber are positive."""
    ps = grid(2, 0.05, extent)
    X = ps.space.coords
    rng = np.random.default_rng(5)
    off = X[:, 1] != X[ps.base, 1]
    X = X + off[:, None] * rng.uniform(-0.01, 0.01, X.shape)
    D = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    w = ps.space.weights * rng.uniform(0.5, 1.5, ps.n)
    return PointedSpace(FiniteSpace(ps.space.points, D, w, resolution=0.05), ps.base)


class TestBlowup:
    def test_radius_one_is_normalized_window(self):
        ps = grid(1, 0.05, 2.0)
        seq = tl.blowup(ps, [1.0], window=1.5)
        m = seq.members[0]
        assert m.usable
        d = m.space.base_distances()
        inside = d < 1.0
        val = ((1 - d[inside]) * m.space.space.weights[inside]).sum()
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_members_normalized_identity(self):
        ps = grid(2, 0.05, 1.0)
        seq = tl.blowup(ps, [1.0, 0.5, 0.25], window=4.0)
        for m in seq.members:
            d = m.space.base_distances()
            inside = d < 1.0
            val = ((1 - d[inside]) * m.space.space.weights[inside]).sum()
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_resolution_flagging(self):
        ps = grid(1, 0.1, 1.0)
        seq = tl.blowup(ps, [1.0, 0.5, 0.05], window=4.0)
        assert seq.members[0].usable
        assert not seq.members[2].usable   # spacing 2 > window/4
        assert seq.finest_usable().radius == 0.5

    def test_radii_must_decrease(self):
        ps = grid(1, 0.1, 1.0)
        with pytest.raises(ValueError):
            tl.blowup(ps, [0.5, 1.0])

    def test_grid_blowup_members_stay_grids(self):
        # self-similarity: members at matched resolution coincide with models
        ps = grid(2, 0.25, 4.5, shape="ball")
        seq = tl.blowup(ps, [1.0, 0.5], window=4.0)
        for m in seq.members:
            model = tl.normalize_window(
                grid(2, m.relative_resolution, 4.5, shape="ball"), 4.0)
            est = pmgh.pmgh_distance(m.space, model, R_grid=(1, 2, 4), seed=0)
            assert est.value <= 0.02

    @pytest.mark.parametrize("space, radii", [
        (("euclidean-grid", dict(dim=2, h=0.1, extent=3.0, shape="ball")), (1.0, 0.7, 0.3)),
        (("cone", dict(h=0.04, extent=1.0)), (0.9, 0.37, 0.21)),
    ], ids=["grid", "cone"])
    def test_window_before_rescaling_keeps_members(self, space, radii):
        # the member is the closed window of the rescaled, normalized space,
        # bit for bit, though only the window is rescaled
        ps = models.make(models.ModelSpec(space[0], **space[1]))
        for r, m in zip(radii, tl.blowup(ps, radii, window=4.0).members):
            ref = core.ball_restrict(core.rescale(core.normalize_at(ps, r)[0], r), 4.0, "closed")
            assert m.space.base == ref.base
            got, want = m.space.space, ref.space
            assert got.points == want.points and got.resolution == want.resolution
            for name in ("metric", "weights", "coords"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_cone_apex_self_similarity(self):
        # blow-ups at the apex reproduce the cone at every scale: members of
        # two samplings at matched relative resolution are isometric, so the
        # exact measure gap leaves a distance of exactly 0
        coarse = models.make(models.ModelSpec("cone", angle=np.pi, h=0.04, extent=1.0))
        fine = models.make(models.ModelSpec("cone", angle=np.pi, h=0.02, extent=1.0))
        a = tl.blowup(coarse, [0.25], window=4.0).members[0]
        b = tl.blowup(fine, [0.125], window=4.0).members[0]
        assert a.usable and b.usable
        assert a.relative_resolution == pytest.approx(b.relative_resolution)
        est = pmgh.pmgh_distance(a.space, b.space, R_grid=(1, 2, 4), seed=1)
        assert est.value == 0.0


class TestMatchTangent:
    def test_r2_grid_identified(self):
        ps = grid(2, 0.25, 4.5, shape="ball")
        seq = tl.blowup(ps, [1.0, 0.5], window=4.0)
        lib = {
            "euclidean:1": tl.normalize_window(grid(1, 0.5, 4.5), 4.0),
            "euclidean:2": tl.normalize_window(grid(2, 0.5, 4.5, "ball"), 4.0),
            "euclidean:3": tl.normalize_window(grid(3, 0.75, 4.5, "ball"), 4.0),
        }
        rep = tl.match_tangent(seq, lib, R_grid=(1, 2, 4), seed=0)
        assert rep.best == "euclidean:2"
        assert rep.finals["euclidean:2"] < 0.1
        assert rep.margin("euclidean:2", "euclidean:1") >= 2.0
        assert rep.margin("euclidean:2", "euclidean:3") >= 2.0

    def test_singleton_model_is_worst(self):
        ps = grid(2, 0.25, 4.5, shape="ball")
        seq = tl.blowup(ps, [0.5], window=4.0)
        single = PointedSpace(
            FiniteSpace(("pt",), np.zeros((1, 1)), np.ones(1)), 0)
        lib = {
            "euclidean:2": tl.normalize_window(grid(2, 0.5, 4.5, "ball"), 4.0),
            "singleton": tl.normalize_window(single, 4.0),
        }
        rep = tl.match_tangent(seq, lib, R_grid=(1, 2, 4), seed=0)
        assert rep.ranking[-1] == "singleton"


class TestDetectLine:
    def test_sphere_has_no_long_line(self):
        ps = models.make(models.ModelSpec("sphere", n_points=400))
        assert tl.detect_line(ps, L=4.0, eps=0.05) is None

    def test_cylinder_axis_found(self):
        ps = models.make(models.ModelSpec("cylinder", circumference=1.0,
                                          height=10.0, h=0.05))
        line = tl.detect_line(ps, L=5.0, eps=0.05)
        assert line is not None
        assert line.eps_line <= 0.05
        assert line.length >= 9.0
        # the chain runs along the axis fiber of the base
        coords = ps.space.coords[line.chain]
        assert np.ptp(coords[:, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_grid_coordinate_chain(self):
        ps = grid(2, 0.05, 1.0)
        line = tl.detect_line(ps, L=0.4, eps=0.01)
        assert line is not None
        assert line.eps_line <= 0.01
        assert line.length >= 0.75

    def test_too_short_space_returns_none(self):
        ps = grid(1, 0.1, 1.0)
        assert tl.detect_line(ps, L=5.0, eps=0.1) is None


class TestSplit:
    def test_grid_with_coordinate_line(self):
        ps = grid(2, 0.05, 1.0)
        line = tl.detect_line(ps, L=0.9, eps=0.01)
        res = tl.split(ps, line)
        assert res.delta_metric <= 3 * 0.05
        # quotient is a 1-D grid: compare against the segment model
        q = tl.normalize_window(res.quotient, 8.0)
        seg = tl.normalize_window(
            grid(1, 0.05, max(0.9, res.window + 0.1)), 8.0)
        est = pmgh.pmgh_distance(q, seg, R_grid=(0.25, 0.5), seed=0)
        assert est.value <= 0.1

    def test_cylinder_splits_to_circle(self):
        ps = models.make(models.ModelSpec("cylinder", circumference=1.0,
                                          height=10.0, h=0.05))
        line = tl.detect_line(ps, L=4.5, eps=0.05)
        res = tl.split(ps, line)
        assert res.delta_metric <= 0.15
        assert res.quotient.space.diameter == pytest.approx(0.5, abs=0.05)
        assert res.delta_measure <= 0.1

    def test_product_with_segment_recovers_factor(self):
        # product(A, R-grid) with the canonical line: quotient close to A
        rng = np.random.default_rng(0)
        pts = rng.random((4, 2)) * 0.3
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        A = FiniteSpace(tuple(range(4)), D, np.full(4, 0.25), resolution=0.1)
        seg = grid(1, 0.1, 4.0).space
        prod = core.product(A, seg)
        mid = seg.points[seg.n // 2]
        base = next(k for k, p in enumerate(prod.points) if p == (0, mid))
        ps = PointedSpace(prod, base)
        line = tl.detect_line(ps, L=3.5, eps=0.05)
        assert line is not None
        res = tl.split(ps, line)
        assert res.delta_metric <= 3 * 0.1
        assert res.quotient.n == 4
        # quotient metric matches the factor on the surviving representatives
        got = res.quotient.space.metric
        reps = [prod.points[i][0] for i in res.rep_idx]
        expect = D[np.ix_(reps, reps)]
        assert np.abs(got - expect).max() <= 0.1

    def test_singleton_factor_splits_to_point(self):
        single = FiniteSpace(("pt",), np.zeros((1, 1)), np.ones(1))
        seg = grid(1, 0.1, 4.0).space
        prod = core.product(single, seg)
        mid = seg.points[seg.n // 2]
        ps = PointedSpace(prod, next(k for k, p in enumerate(prod.points)
                                     if p == ("pt", mid)))
        line = tl.detect_line(ps, L=3.5, eps=0.05)
        res = tl.split(ps, line)
        assert res.quotient.n == 1
        assert res.delta_metric <= 1e-6

    def test_representatives_match_point_by_point_loop(self):
        # quotient distances inside a cluster are positive, so the weight
        # order picks the leaders and the medoids differ from them
        ps = jittered_grid(1.0)
        D, w = ps.space.metric, ps.space.weights
        line = tl.detect_line(ps, L=0.9, eps=0.01)
        res = tl.split(ps, line)
        idx = res.window_idx
        slice_pos = np.flatnonzero(np.abs(res.b) <= 1.5 * max(0.05, line.step / 2.0))
        reps = leader_medoids(D[np.ix_(idx, idx)], res.b, w[idx], slice_pos, 0.5 * 0.05)
        assert len(reps) < len(slice_pos)
        assert np.array_equal(res.rep_idx, idx[reps])

    def test_quotient_metric_is_the_fiber_pair_mean(self):
        # d' averages over all point pairs of two fibers; 23 of the 53 fibers
        # here hold more than 48 points
        ps = jittered_grid(1.5)
        line = tl.detect_line(ps, L=1.35, eps=0.01)
        res = tl.split(ps, line)
        idx = res.window_idx
        assert (np.bincount(res.assignment) > 48).sum() >= 20
        expect = fiber_pair_mean(ps.space.metric[np.ix_(idx, idx)], res.b,
                                 ps.space.weights[idx], res.assignment)
        got = res.quotient.space.metric
        assert np.array_equal(got, got.T) and not np.diag(got).any()
        assert np.abs(got - expect).max() <= 1e-12

    def test_refuses_short_chain(self):
        ps = grid(2, 0.05, 1.0)
        line = tl.detect_line(ps, L=0.9, eps=0.01)
        with pytest.raises(tl.LineTooShortError):
            tl.split(ps, line, window=5.0)


class TestIteratedTangent:
    def test_repoint_at_base_reduces_to_self(self):
        ps = grid(2, 0.25, 4.5, shape="ball")
        rep = tl.iterated_tangent_check(ps, [1.0, 0.5, 0.25], offset=0.0, window=4.0,
                                        inner_radii=(0.5,), R_grid=(1, 2, 4))
        assert rep.offset_actual == 0.0
        assert rep.best_value <= 0.05

    def test_r2_grid_tangent_of_tangent(self):
        ps = grid(2, 0.25, 4.5, shape="ball")
        rep = tl.iterated_tangent_check(ps, [1.0, 0.5, 0.25], offset=1.0, window=4.0,
                                        inner_radii=(0.5,), R_grid=(1, 2, 4))
        assert rep.best_value <= 0.15

    def test_cone_apex_is_exceptional(self):
        # tangent at the apex is the cone; re-pointing off the apex yields a
        # plane, which stays far from every apex blow-up member
        cone = models.make(models.ModelSpec("cone", angle=np.pi, h=0.02, extent=1.0))
        rep = tl.iterated_tangent_check(cone, [0.25], offset=1.0, window=2.0,
                                        inner_radii=(0.25,), R_grid=(0.5, 1.0))
        plane = tl.normalize_window(grid(2, 0.02 / 0.25 / 0.25, 2.2, "ball"), 2.0)
        # compare the tangent-of-tangent member directly with the plane model
        seq = tl.blowup(cone, [0.25], window=2.0)
        Y = seq.finest_usable().space
        yprime = rep.y_prime
        inner = tl.blowup(PointedSpace(Y.space, yprime), [0.25], window=2.0)
        tot = inner.finest_usable().space
        d_plane = pmgh.pmgh_distance(tot, plane, R_grid=(0.5, 1.0), seed=0).value
        assert d_plane < rep.best_value


class TestEuclideanDimension:
    def test_r1(self):
        n, trace = tl.euclidean_dimension(grid(1, 0.1, 8.0),
                                          tl.DimensionConfig(N=1.0, window=4.0))
        assert n == 1

    def test_r2(self):
        n, trace = tl.euclidean_dimension(grid(2, 0.25, 6.0, "ball"),
                                          tl.DimensionConfig(N=2.0, window=4.0))
        assert n == 2

    def test_budget_is_hard_cap(self):
        # N = 1 on a 2-D grid: stop at one factor even though more lines exist
        n, trace = tl.euclidean_dimension(grid(2, 0.25, 6.0, "ball"),
                                          tl.DimensionConfig(N=1.0, window=4.0))
        assert n <= 1

    def test_fractional_budget_floor(self):
        n, trace = tl.euclidean_dimension(grid(2, 0.25, 6.0, "ball"),
                                          tl.DimensionConfig(N=1.9, window=4.0))
        assert n <= 1

    def test_trace_serializes(self):
        n, trace = tl.euclidean_dimension(grid(1, 0.1, 8.0),
                                          tl.DimensionConfig(N=1.0, window=4.0))
        stages = json.loads(json.dumps(cli._plain(trace.records), allow_nan=False))
        assert stages and all("status" in st for st in stages)
