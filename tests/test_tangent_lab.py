"""Blow-ups, tangent matching, line detection, splitting, dimension iteration."""
import json
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from mmslab import cli, core, models, pmgh, tangent_lab as tl
from mmslab.core import FiniteSpace, PointedSpace

from oracles import (fiber_measure_defect, fiber_pair_mean, leader_medoids, pairwise_split_defect,
                     projection_line)


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


def jitter_all(ps, frac, seed):
    """ps with every point but the base moved by a uniform +-frac h in each
    coordinate: no point but the base lies exactly on a line through it."""
    h = ps.space.declared_resolution()
    X = ps.space.coords + np.random.default_rng(seed).uniform(-frac * h, frac * h, ps.space.coords.shape)
    X[ps.base] = ps.space.coords[ps.base]
    return PointedSpace(FiniteSpace(ps.space.points, cdist(X, X), ps.space.weights, resolution=h),
                        ps.base)


def jittered_bench_grid2(frac, seed):
    """The bench ``grid2`` space (h = 0.125), jittered. Only the points within
    window + h = 4.125 of the base are kept: no other point can enter the
    window of 4 under a jitter below h/4."""
    ps = models.make(models.parse_spec("euclidean-grid:2d,h=0.125,extent=5,shape=ball"), 4.0 + 0.125)
    return jitter_all(ps, frac, seed)


def stage_zero(ps, window):
    """The first stage of euclidean_dimension: its blow-up member and line."""
    Y = tl.blowup(ps, (1.0,), window=window, min_cells=3.0).finest_usable().space
    return Y, stage_line(Y, window)


def stage_line(Y, window):
    """euclidean_dimension's line search on a member for ``window``."""
    h = Y.space.declared_resolution()
    return tl.detect_line(Y, 0.9 * window, max(1.5 * h, 0.025 * window))


# the benchmark's dimension inputs and their windows
BENCH_DIMENSION = {"grid2": ("euclidean-grid:2d,h=0.125,extent=5,shape=ball", 4.0),
                   "grid3": ("euclidean-grid:3d,h=0.25,extent=2.5,shape=ball", 2.0),
                   "cylinder": ("cylinder:c=1,L=10,h=0.05", 4.0)}


@pytest.fixture(scope="module")
def bench_members():
    """Stage 0 of each bench dimension input, built once: (member, line)."""
    return {name: stage_zero(models.make(models.parse_spec(spec), max(window, 1.0)), window)
            for name, (spec, window) in BENCH_DIMENSION.items()}


def plane_cloud(seed):
    """600 random points of the square [-1.6, 1.6]^2 with random weights,
    and the x axis sampled at h = 0.1 as a hand-made line through the base."""
    rng = np.random.default_rng(seed)
    t = np.arange(-20, 21) * 0.1
    X = np.r_[np.c_[t, np.zeros_like(t)], rng.uniform(-1.6, 1.6, (600, 2))]
    w = np.r_[np.ones(t.size), rng.uniform(0.5, 1.5, 600)]
    space = FiniteSpace(tuple(range(len(X))), cdist(X, X), w / w.sum(), resolution=0.1)
    line = tl.LineCandidate(chain=np.arange(t.size), params=t, eps_line=0.0, length=4.0)
    return PointedSpace(space, 20), line


def assert_split_matches_oracles(ps, line):
    """split's metric defect equals the pairwise maximum exactly, and its
    quotient metric is the fiber-pair mean."""
    res = tl.split(ps, line)
    idx = res.window_idx
    Dw = ps.space.metric[np.ix_(idx, idx)]
    got = res.quotient.space.metric
    assert res.delta_metric == pairwise_split_defect(Dw, res.b, got, res.assignment)
    expect = fiber_pair_mean(Dw, res.b, ps.space.weights[idx], res.assignment)
    assert np.abs(got - expect).max() <= 1e-12
    return res


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
        # at the final member (r = 0.5) the R^2 value is below the other
        # models' certified lower bounds
        assert rep.certified
        # at r = 1 the best value is not: R^3's lower bound lies below it
        first = {name: traj[0] for name, traj in rep.trajectories.items()}
        assert {r for r, _ in first.values()} == {1.0}
        best = min(first, key=lambda k: first[k][1].value)
        assert any(first[best][1].value >= est.lower_bound
                   for name, (_, est) in first.items() if name != best)

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

    @pytest.mark.parametrize("case", ["lattice", "rows jittered", "all jittered", "sphere"])
    def test_matches_the_pairwise_oracle(self, case):
        if case == "lattice":
            ps, L, eps = grid(2, 0.05, 1.0), 0.9, 0.01
        elif case == "rows jittered":
            ps, L, eps = jittered_grid(1.0), 0.9, 0.01
        elif case == "all jittered":
            ps, L, eps = jitter_all(grid(2, 0.1, 1.5), 0.05, seed=3), 1.2, 0.15
        else:
            ps, L, eps = models.make(models.ModelSpec("sphere", n_points=400)), 2.0, 0.05
        line = tl.detect_line(ps, L=L, eps=eps)
        expect = projection_line(ps.space.metric, ps.base, L, eps, ps.space.declared_resolution())
        assert (line is None) == (expect is None) == (case == "sphere")
        if line is not None:
            assert np.array_equal(line.chain, expect[0])
            assert np.array_equal(line.params, expect[1])

    def test_base_holds_bin_zero(self):
        # the base sits 0.03 off a sampled segment whose point (0, 0) has
        # less excess; the base still takes bin 0, at t = 0
        X = np.array([(0.0, 0.03)] + [(0.1 * k, 0.0) for k in range(-10, 11)])
        ps = PointedSpace(FiniteSpace(tuple(range(len(X))), cdist(X, X), np.ones(len(X)),
                                      resolution=0.1), 0)
        line = tl.detect_line(ps, L=0.8, eps=0.1)
        assert 11 not in line.chain and line.chain[line.params == 0.0].tolist() == [0]

    def test_params_are_the_projection_of_a_shell_pair(self):
        # params increase with one chain point per bin of width h, are 0 at
        # the base and equal t(x) = (d(p, x) - d(q, x))/2 - (d(p, o) - d(q, o))/2
        # for a pair (p, q) of the shell |d(o, .) - L| <= step
        ps = jittered_grid(1.0)
        D, o, L, h = ps.space.metric, ps.base, 0.9, 0.05
        line = tl.detect_line(ps, L=L, eps=0.01)
        t = line.params
        assert np.all(np.diff(t) > 0) and np.all(np.diff(np.rint(t / h)) > 0)
        assert t[line.chain == o].tolist() == [0.0]
        # each arm ends at its first point with |t| >= L
        assert t[-2] < L <= t[-1] and -t[1] < L <= -t[0]
        shell = np.flatnonzero(np.abs(D[o] - L) <= max(1.2 * h, L / 48))
        Dp, Do = D[np.ix_(shell, line.chain)], D[shell, o]
        proj = 0.5 * (Dp[:, None] - Dp[None, :]) - 0.5 * (Do[:, None] - Do[None, :])[:, :, None]
        assert (proj == t).all(axis=2).any()


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
        # here hold more than 48 points. L lies between lattice points, so no
        # chain point ties with it at |t| = L and the arms end at 1.4
        ps = jittered_grid(1.5)
        line = tl.detect_line(ps, L=1.38, eps=0.01)
        res = tl.split(ps, line)
        idx = res.window_idx
        assert (np.bincount(res.assignment) > 48).sum() >= 20
        expect = fiber_pair_mean(ps.space.metric[np.ix_(idx, idx)], res.b,
                                 ps.space.weights[idx], res.assignment)
        got = res.quotient.space.metric
        assert np.array_equal(got, got.T) and not np.diag(got).any()
        assert np.abs(got - expect).max() <= 1e-12

    def test_measure_defect_ignores_rounding_of_b_at_the_base(self):
        # on an exact lattice the base's fiber column lies at b = 0 up to
        # rounding: setting those b to 0, to -1e-17 or to alternating
        # +-1e-17 leaves the measure defect as it is, and so does relabeling
        # the points and the fibers
        ps = grid(2, 0.05, 1.0)
        res = tl.split(ps, tl.detect_line(ps, L=0.9, eps=0.01))
        q = res.quotient
        b, ww, assign = res.b, ps.space.weights[res.window_idx], res.assignment
        dprime, wq = q.space.metric, q.space.weights
        zero = np.abs(b) < 1e-12
        assert zero.sum() > 10
        alternating = np.where(np.arange(len(b)) % 2, 1e-17, -1e-17)
        defects = [tl._product_measure_defect(np.where(zero, moved, b), ww, assign,
                                              dprime, wq, q.base, res.window)
                   for moved in (0.0, -1e-17, alternating)]
        rng = np.random.default_rng(5)
        for _ in range(5):
            pts, label = rng.permutation(len(b)), rng.permutation(len(wq))
            inv = np.argsort(label)
            defects.append(tl._product_measure_defect(
                b[pts], ww[pts], label[assign[pts]], dprime[np.ix_(inv, inv)], wq[inv],
                label[q.base], res.window))
        assert defects == pytest.approx([res.delta_measure] * 8, rel=0, abs=1e-12)

    def test_measure_defect_matches_quadrature_oracle(self):
        # random fibers 0-2 within 0.9 box of the base fiber 0, and fiber 3
        # beyond it; fiber 2 has no box mass (one point outside the box, one
        # of weight 0 inside). b ties, sits at +-box and falls outside the
        # box; a_f lies above and below p_f
        rng = np.random.default_rng(21)
        T = pmgh.TELEPORT_COST
        above = below = 0
        for _ in range(70):
            window = rng.uniform(0.5, 3.0)
            box = window / np.sqrt(2.0)
            n = int(rng.integers(4, 30))
            assign = np.r_[0, 1, rng.integers(0, 2, n - 2), 2, 2, 3]
            b = rng.uniform(-box, box, n + 3)
            b[rng.integers(0, n, 3)] = b[0]
            b[rng.integers(0, n, 2)] = [-box, box]
            b[rng.integers(0, n, 2)] = rng.choice([-1.0, 1.0], 2) * box * 1.2
            b[[n, n + 2]] = 1.1 * box
            ww = rng.uniform(0.05, 1.0, n + 3)
            ww[n + 1] = 0.0
            a = np.bincount(assign, ww * (np.abs(b) <= box), minlength=4)
            wq = a / (2 * box) * rng.uniform(0.5, 1.5, 4)
            wq[2:] = rng.uniform(0.1, 1.0, 2)
            dprime = np.zeros((4, 4))
            dprime[0, 1:] = dprime[1:, 0] = np.r_[rng.uniform(0, 0.9, 2), 0.95] * box
            got = tl._product_measure_defect(b, ww, assign, dprime, wq, 0, window)
            fibers = [(b[assign == f], ww[assign == f] * (np.abs(b[assign == f]) <= box))
                      for f in range(3)]
            want = sum(fiber_measure_defect(x, w, wq[f], box, T)
                       for f, (x, w) in enumerate(fibers)) / a[:3].sum()
            # each jump of the step CDF costs the trapezoid at most its mass times
            # the grid spacing
            m = np.minimum(a[:3], 2 * box * wq[:3])
            assert got == pytest.approx(want, rel=0, abs=m.sum() * 2 * box / 4e5 / a[:3].sum())
            # the fiber without box mass is created at TELEPORT_COST
            empty = wq.copy()
            empty[2] = 0.0
            alone = tl._product_measure_defect(b, ww, assign, dprime, empty, 0, window)
            assert (got - alone) * a[:3].sum() == pytest.approx(T * 2 * box * wq[2], rel=1e-9)
            above += int((a[:2] > 2 * box * wq[:2]).any())
            below += int((a[:2] < 2 * box * wq[:2]).any())
        assert above > 10 and below > 10

    @pytest.mark.parametrize("name", list(BENCH_DIMENSION))
    def test_defect_is_the_pairwise_maximum_on_bench_members(self, bench_members, name):
        assert_split_matches_oracles(*bench_members[name])

    @pytest.mark.parametrize("seed", range(3))
    def test_defect_is_the_pairwise_maximum_on_jittered_grid2(self, seed):
        assert_split_matches_oracles(*stage_zero(jittered_bench_grid2(0.05, seed), 4.0))

    @pytest.mark.parametrize("seed", range(24))
    def test_defect_is_the_pairwise_maximum_on_plane_clouds(self, seed):
        assert_split_matches_oracles(*plane_cloud(seed))

    def test_empty_fiber_matches_the_oracles(self):
        # a bare matrix (not a metric: d(B, C) < |b(B) - b(C)|) whose central
        # slice clusters into {o, B, E} with medoid B, {C} and {F}; C ties
        # with B at quotient distance 0 and joins B's fiber, so C's is empty
        # and C is no quotient point
        s = np.arange(-10, 11) * 0.2
        b = np.array([0.0, 0.0, 0.12, 0.0])                 # B, E, C, F
        gap = np.sqrt(np.array([0.04, 0.04, 0.14, 1.0]) ** 2 - b ** 2)
        D = np.zeros((25, 25))
        D[:21, :21] = np.abs(np.subtract.outer(s, s))
        D[:21, 21:] = np.sqrt(np.subtract.outer(s, b) ** 2 + gap ** 2)
        D[21:, :21] = D[:21, 21:].T
        D[21:, 21:] = [[0, 0.03, 0.108, 1], [0.03, 0, 0.13, 1], [0.108, 0.13, 0, 1], [1, 1, 1, 0]]
        w = np.r_[np.full(10, 0.5), 1.0, np.full(10, 0.5), 0.95, 0.9, 0.6, 0.55]
        ps = PointedSpace(FiniteSpace(tuple(range(25)), D, w / w.sum(), resolution=0.1), 10)
        line = tl.LineCandidate(chain=np.arange(21), params=s, eps_line=0.0, length=4.0)
        res = assert_split_matches_oracles(ps, line)
        assert list(res.rep_idx) == [21, 24]
        assert (res.quotient.space.weights > 0).all()
        metric = res.quotient.space.metric
        assert (metric[~np.eye(len(metric), dtype=bool)] > 0).all()

    @pytest.mark.parametrize("name", list(BENCH_DIMENSION))
    def test_line_and_split_hold_no_window_copy(self, bench_members, name):
        # detect_line and split each allocate under a quarter of the member's
        # metric on top of it
        Y, line = bench_members[name]
        metric = Y.n ** 2 * 8
        for call in (lambda: stage_line(Y, BENCH_DIMENSION[name][1]), lambda: tl.split(Y, line)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.25 * metric, f"peak {peak / metric:.2f} member metrics"

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
        # certified: the plane's upper bound is below the least lower bound
        # of the member's distances to the apex blow-ups
        assert d_plane < rep.lower_bound


class TestEuclideanDimension:
    def test_r1(self):
        n, trace = tl.euclidean_dimension(grid(1, 0.1, 8.0), N=1.0)
        assert n == 1

    def test_r2(self):
        n, trace = tl.euclidean_dimension(grid(2, 0.25, 6.0, "ball"), N=2.0)
        assert n == 2

    def test_budget_is_hard_cap(self):
        # N = 1 on a 2-D grid: stop at one factor even though more lines exist
        n, trace = tl.euclidean_dimension(grid(2, 0.25, 6.0, "ball"), N=1.0)
        assert n <= 1

    def test_fractional_budget_floor(self):
        n, trace = tl.euclidean_dimension(grid(2, 0.25, 6.0, "ball"), N=1.9)
        assert n <= 1

    @pytest.mark.parametrize("frac", [0.01, 0.05])
    def test_jittered_bench_grid2_counts_two(self, frac):
        n, trace = tl.euclidean_dimension(jittered_bench_grid2(frac, seed=7), N=2.0)
        assert n == 2, trace.stopped_because

    def test_trace_serializes(self):
        n, trace = tl.euclidean_dimension(grid(1, 0.1, 8.0), N=1.0)
        stages = json.loads(json.dumps(cli._plain(trace.records), allow_nan=False))
        assert stages and all("status" in st for st in stages)
