"""Transport: exact LP vs independent oracles, interpolation."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmslab import cli, core, models, transport
from mmslab.core import FiniteSpace, PointedSpace

from oracles import (bruteforce_w2, dense_w2_lp, has_marginals, monotone_1d,
                     monotone_cost_1d, nx_shortest_path_matrix)


def line_space(n, h=1.0):
    x = np.arange(n) * h
    D = np.abs(x[:, None] - x[None, :])
    return FiniteSpace(tuple(range(n)), D, np.ones(n), coords=x, resolution=h)


def random_measure(rng, n, support=None):
    mu = np.zeros(n)
    k = support if support is not None else rng.integers(1, n + 1)
    idx = rng.choice(n, size=k, replace=False)
    mu[idx] = rng.random(k) + 0.05
    return mu / mu.sum()


class TestW2Exact:
    def test_equal_measures_zero_cost(self):
        sp = line_space(5)
        mu = np.full(5, 0.2)
        res = transport.w2(sp, mu, mu)
        assert res.cost_squared == pytest.approx(0.0, abs=1e-12)

    def test_diracs(self):
        sp = line_space(6)
        mu0 = np.zeros(6); mu0[1] = 1.0
        mu1 = np.zeros(6); mu1[4] = 1.0
        res = transport.w2(sp, mu0, mu1)
        assert res.cost_squared == pytest.approx(9.0, abs=1e-12)
        assert res.distance == pytest.approx(3.0, abs=1e-12)

    def test_four_point_line_example(self):
        # frozen value 4 verified by the brute-force oracle
        sp = line_space(4)
        mu0 = np.array([0.5, 0.5, 0.0, 0.0])
        mu1 = np.array([0.0, 0.0, 0.5, 0.5])
        cost = sp.metric[np.ix_([0, 1], [2, 3])] ** 2
        assert bruteforce_w2(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(4.0)
        res = transport.w2(sp, mu0, mu1)
        assert res.cost_squared == pytest.approx(4.0, abs=1e-9)

    def test_mass_mismatch_rejected(self):
        sp = line_space(3)
        with pytest.raises(transport.MassMismatchError):
            transport.w2(sp, np.array([0.5, 0.5, 0.1]), np.full(3, 1 / 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measure_rejected(self, bad):
        # NaN passes both the sign and the mass comparison
        sp = line_space(3)
        with pytest.raises(transport.MassMismatchError, match="non-finite"):
            transport.w2(sp, np.array([bad, 0.5, 0.5]), np.full(3, 1 / 3))

    def test_vs_bruteforce_randomized(self):
        rng = np.random.default_rng(42)
        sp = line_space(12, h=0.37)
        for _ in range(60):
            mu0 = random_measure(rng, 12, support=rng.integers(1, 5))
            mu1 = random_measure(rng, 12, support=rng.integers(1, 5))
            res = transport.w2(sp, mu0, mu1)
            rows = np.flatnonzero(mu0 > 0)
            cols = np.flatnonzero(mu1 > 0)
            cost = sp.metric[np.ix_(rows, cols)] ** 2
            expect = bruteforce_w2(cost, mu0[rows], mu1[cols])
            assert res.cost_squared == pytest.approx(expect, abs=1e-9, rel=1e-9)
            assert has_marginals(res.plan, mu0, mu1)

    def test_plan_is_vertex(self):
        # vertex plans have at most n0 + n1 - 1 atoms
        rng = np.random.default_rng(3)
        sp = line_space(30, h=0.1)
        mu0 = random_measure(rng, 30, support=10)
        mu1 = random_measure(rng, 30, support=12)
        res = transport.w2(sp, mu0, mu1)
        assert (res.plan.gamma > 1e-12).sum() <= 10 + 12 - 1

    def test_pair_limit_refuses_before_any_solve(self, monkeypatch):
        sp = line_space(9)
        mu0 = np.r_[np.full(4, 0.25), np.zeros(5)]
        mu1 = np.r_[np.zeros(4), np.full(5, 0.2)]
        monkeypatch.setattr(transport, "TRANSPORT_PAIR_LIMIT", 20)
        assert transport.w2(sp, mu0, mu1).cost_squared > 0  # 4 x 5 pairs, at the limit

        def no_solve(*args, **kwargs):
            raise AssertionError("the size check must run before any solve")

        monkeypatch.setattr(transport, "TRANSPORT_PAIR_LIMIT", 19)
        monkeypatch.setattr(transport, "transport_lp", no_solve)
        with pytest.raises(transport.TransportBudgetError, match="4 x 5") as exc:
            transport.w2(sp, mu0, mu1)
        assert "entropic" not in str(exc.value)

    def test_assignment_route_has_its_own_limit(self, monkeypatch):
        # uniform halves of 5 points each are an assignment problem, which
        # the simplex's pair limit does not refuse; a general measure on the
        # same support is refused by it, and the assignment limit refuses both
        sp = line_space(10)
        mu0 = np.r_[np.full(5, 0.2), np.zeros(5)]
        mu1 = mu0[::-1].copy()
        general = np.r_[np.zeros(5), 0.1, 0.2, 0.2, 0.2, 0.3]
        monkeypatch.setattr(transport, "TRANSPORT_PAIR_LIMIT", 24)
        assert transport.w2(sp, mu0, mu1).meta["route"] == "assignment"
        with pytest.raises(transport.TransportBudgetError, match="5 x 5 .* simplex route"):
            transport.w2(sp, mu0, general)
        monkeypatch.setattr(transport, "ASSIGNMENT_PAIR_LIMIT", 24)
        with pytest.raises(transport.TransportBudgetError, match="5 x 5 .* assignment route"):
            transport.w2(sp, mu0, mu1)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.random((8, 2))
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        sp = FiniteSpace(tuple(range(8)), D, np.ones(8))
        mu0 = random_measure(rng, 8)
        mu1 = random_measure(rng, 8)
        r1 = transport.w2(sp, mu0, mu1)
        P = rng.permutation(8)
        sp2 = FiniteSpace(tuple(range(8)), D[np.ix_(P, P)], np.ones(8))
        r2 = transport.w2(sp2, mu0[P], mu1[P])
        assert r1.cost_squared == pytest.approx(r2.cost_squared, abs=1e-12)

    def test_rescale_homogeneity(self):
        rng = np.random.default_rng(11)
        sp = line_space(15, h=0.2)
        mu0 = random_measure(rng, 15)
        mu1 = random_measure(rng, 15)
        base = transport.w2(sp, mu0, mu1)
        ps = PointedSpace(sp, 0)
        for r in (0.5, 2.0, 3.0):
            scaled = core.rescale(ps, r)
            res = transport.w2(scaled.space, mu0, mu1)
            assert res.distance == pytest.approx(base.distance / r, rel=1e-9)

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(5)
        sp = line_space(10, h=0.3)
        mus = [random_measure(rng, 10) for _ in range(4)]
        dmat = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                dmat[i, j] = transport.w2(sp, mus[i], mus[j]).distance
        assert np.abs(dmat - dmat.T).max() <= 1e-9
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert dmat[i, j] <= dmat[i, k] + dmat[k, j] + 1e-8

    def test_meta_certificate_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            pts = rng.random((n, 2)) * 3
            D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            sp = FiniteSpace(tuple(range(n)), D, np.ones(n))
            mu0, mu1 = random_measure(rng, n), random_measure(rng, n)
            res = transport.w2(sp, mu0, mu1)
            rows, cols = np.flatnonzero(mu0 > 0), np.flatnonzero(mu1 > 0)
            C = D[np.ix_(rows, cols)] ** 2
            u, v = res.meta["u"], res.meta["v"]
            red = C - u[:, None] - v[None, :]
            assert res.meta["min_reduced_cost"] == pytest.approx(red.min(), abs=1e-12)
            assert red.min() >= -1e-9 * max(1.0, C.max())
            dual = mu0[rows] @ u + mu1[cols] @ v
            assert res.meta["duality_gap"] <= 1e-9
            assert abs(res.cost_squared - dual) <= 1e-9

    def test_cache_env_ignored(self, tmp_path, monkeypatch):
        # an on-disk cache once served repeated solves without their duals
        from mmslab import curvature

        monkeypatch.setenv("MMS_LAB_CACHE", str(tmp_path))
        sp = line_space(4)
        mu0 = np.array([0.5, 0.5, 0.0, 0.0])
        mu1 = np.array([0.0, 0.0, 0.5, 0.5])
        first = curvature.enumerate_optimal_plans(sp, mu0, mu1)
        second = curvature.enumerate_optimal_plans(sp, mu0, mu1)
        assert len(first) == len(second) >= 1


class TestTransportLP:
    def test_teleport_certificate_randomized(self):
        # spread 7.5 puts most arcs at the cap, so the hub carries flow
        rng = np.random.default_rng(31)
        hub_used = 0
        for spread in [1.5] * 30 + [7.5] * 30:
            n0, n1 = (int(k) for k in rng.integers(1, 14, size=2))
            pts = rng.random((n0 + n1, 2)) * spread
            C = np.minimum(np.linalg.norm(pts[:n0, None] - pts[None, n0:], axis=2), 1.0)
            a, b = rng.random(n0) + 0.05, rng.random(n1) + 0.05
            gamma, cost, u, v, cert = transport.transport_lp(C, a, b, teleport=1.0)
            # independent check of the dual: feasible on every column
            red = min((C - u[:, None] - v[None, :]).min(), (1.0 - u).min(), (1.0 - v).min())
            assert red >= -1e-9
            assert cert["min_reduced_cost"] == pytest.approx(red, abs=1e-12)
            assert abs(cost - (a @ u + b @ v)) <= 1e-9
            assert cert["duality_gap"] <= 1e-9
            # primal: the plan plus teleported remainders pays the cost
            ra, rb = a - gamma.sum(axis=1), b - gamma.sum(axis=0)
            assert ra.min() >= -1e-9 and rb.min() >= -1e-9
            assert (gamma * C).sum() + ra.sum() + rb.sum() == pytest.approx(cost, abs=1e-9)
            hub_used += bool(gamma[C >= 1.0].sum() > 0)
        assert hub_used >= 20

    def test_teleport_on_capped_cost_equals_gap_lp(self):
        from mmslab.pmgh import _gap_lp

        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(2, 14))
            pts = rng.random((n, 2)) * 1.5
            C = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            wa, wb = rng.random(n) + 0.05, rng.random(n) + 0.05
            identity = np.stack([np.arange(n), np.arange(n)], axis=1)
            direct = transport.transport_lp(np.minimum(C, 1.0), wa, wb, teleport=1.0)[1]
            assert direct == pytest.approx(_gap_lp(C, C, wa, wb, identity), abs=1e-12)

    def test_infeasible_duals_raise(self, monkeypatch):
        solve = transport.linprog

        def shifted(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.eqlin.marginals = np.asarray(res.eqlin.marginals) + 1.0
            return res

        monkeypatch.setattr(transport, "linprog", shifted)
        C = np.array([[0.0, 4.0], [4.0, 0.0]])
        with pytest.raises(RuntimeError, match="infeasible"):
            transport.transport_lp(C, np.array([0.3, 0.7]), np.array([0.6, 0.4]))

    @pytest.mark.parametrize("shift", [1.0, -1.0])
    def test_infeasible_hub_dual_raises(self, monkeypatch, shift):
        solve = transport.linprog

        def shifted(*args, **kwargs):
            res = solve(*args, **kwargs)
            y = np.array(res.eqlin.marginals, dtype=float)
            y[-1] += shift  # the hub balance row only
            res.eqlin.marginals = y
            return res

        monkeypatch.setattr(transport, "linprog", shifted)
        # column 0's shortfall comes from row 1 or 2 through the hub, so a
        # row -> hub and a hub -> column arc carry flow and are both tight
        C = np.array([[0.2, 4.0], [4.0, 0.3], [5.0, 6.0]])
        with pytest.raises(RuntimeError, match="infeasible"):
            transport.transport_lp(C, np.array([0.3, 0.7, 0.5]), np.array([0.6, 0.4]),
                                   teleport=1.0)


def uniform_instances(rng):
    """Cost matrices of uniform equal-count measures: subsets of a 2-D grid
    (squared distances tie), jittered clouds, points of the lattice
    (Z/3)^2 drawn with repeats, and one of those whose rounded arc
    weights close a negative cycle."""
    D = models.make(models.parse_spec("euclidean-grid:2d,h=0.1,extent=0.5")).space.metric
    x = np.array([[1, 4], [4, -3], [-4, 3], [1, -4], [0, -1], [-3, -4]])
    y = np.array([[-4, 4], [3, 4], [1, 2], [1, 4], [1, -3], [2, 1]])
    yield (((x[:, None] - y[None]) / 3) ** 2).sum(axis=2)
    for _ in range(12):
        n = int(rng.integers(2, 41))
        idx = rng.permutation(len(D))
        yield D[np.ix_(idx[:n], idx[n:2 * n])] ** 2
        n = int(rng.integers(2, 41))
        pts = rng.random((2 * n, 2)) + rng.normal(scale=1e-3, size=(2 * n, 2))
        yield np.linalg.norm(pts[:n, None] - pts[None, n:], axis=2) ** 2
        n = int(rng.integers(2, 13))
        x, y = rng.integers(-4, 5, (2, n, 2))
        yield (((x[:, None] - y[None]) / 3) ** 2).sum(axis=2)


class TestAssignmentRoute:
    def test_matches_dense_lp_with_certificate(self):
        # the (Z/3)^2 instance's rounded arcs close a negative cycle of
        # rounding size; the sweeps settle on it within their tolerance
        for count, C in enumerate(uniform_instances(np.random.default_rng(41)), start=1):
            n = len(C)
            a = np.full(n, 1.0 / n)
            gamma, cost, u, v, cert = transport.transport_lp(C, a, a)
            assert cert["route"] == "assignment" and 1 <= cert["sweeps"] <= n + 1
            assert cost == pytest.approx(dense_w2_lp(C, a, a)[1], abs=1e-9, rel=1e-9)
            red = (C - u[:, None] - v[None, :]).min()
            assert red >= -1e-9 and cert["min_reduced_cost"] == pytest.approx(red, abs=1e-12)
            assert abs(cost - (a @ u + a @ v)) <= 1e-9 and cert["duality_gap"] <= 1e-9
            perm = gamma > 0.5 / n
            assert (perm.sum(axis=0) == 1).all() and (perm.sum(axis=1) == 1).all()
            assert np.abs(gamma * n - perm).max() <= 1e-9
        assert count >= 30

    def test_bench_grid_subsets_match_assignment_cost(self):
        # seeded 256-point subsets of the benchmark's 625-point cdstar grid
        from scipy.optimize import linear_sum_assignment

        D = models.make(models.parse_spec("euclidean-grid:2d,h=0.04,extent=0.5")).space.metric
        rng = np.random.default_rng(203)
        a = np.full(256, 1.0 / 256)
        for _ in range(3):
            idx = rng.permutation(len(D))
            C = D[np.ix_(np.sort(idx[:256]), np.sort(idx[256:512]))] ** 2
            gamma, cost, u, v, cert = transport.transport_lp(C, a, a)
            r, c = linear_sum_assignment(C)
            assert cert["route"] == "assignment"
            assert cost == pytest.approx(C[r, c].sum() / 256, rel=1e-12)
            assert (C - u[:, None] - v[None, :]).min() >= -1e-9
            assert cert["duality_gap"] <= 1e-12

    def test_unsettled_sweeps_fall_back_to_the_simplex(self, monkeypatch):
        monkeypatch.setattr(transport, "_sweep_duals", lambda arcs, tol: None)
        C = np.array([[0.0, 4.0, 1.0], [4.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        a = np.full(3, 1 / 3)
        cert = transport.transport_lp(C, a, a)[4]
        assert cert["route"] == "simplex" and "sweeps" not in cert

    def test_unsettled_sweeps_above_the_simplex_limit_raise(self, monkeypatch):
        # an assignment problem within its own limit but above the simplex's
        # is refused when its sweeps do not settle, and solved at the limit
        monkeypatch.setattr(transport, "_sweep_duals", lambda arcs, tol: None)
        sp = line_space(10)
        mu = np.r_[np.full(5, 0.2), np.zeros(5)]
        monkeypatch.setattr(transport, "TRANSPORT_PAIR_LIMIT", 25)
        assert transport.w2(sp, mu, mu[::-1].copy()).meta["route"] == "simplex"
        monkeypatch.setattr(transport, "TRANSPORT_PAIR_LIMIT", 24)
        with pytest.raises(transport.TransportBudgetError, match="5 x 5 did not settle"):
            transport.w2(sp, mu, mu[::-1].copy())

    def test_shifted_dual_raises(self, monkeypatch):
        solve = transport._sweep_duals

        def shifted(*args, **kwargs):
            v, sweeps = solve(*args, **kwargs)
            v[0] += 10.0  # one column dual only
            return v, sweeps

        monkeypatch.setattr(transport, "_sweep_duals", shifted)
        C = np.array([[0.0, 4.0, 1.0], [4.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(RuntimeError, match="infeasible"):
            transport.transport_lp(C, np.full(3, 1 / 3), np.full(3, 1 / 3))

    def test_cdstar_on_grid_halves_needs_no_simplex(self, monkeypatch):
        # the CLI's half measures on a uniform grid take the assignment route
        def no_simplex(*args, **kwargs):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(transport, "linprog", no_simplex)
        ps = models.make(models.parse_spec("euclidean-grid:2d,h=0.1,extent=0.5"))
        mu0 = cli._parse_measure("left-half", ps)
        mu1 = cli._parse_measure("right-half", ps)
        from mmslab import curvature

        rep = curvature.cdstar_check(ps.space, mu0, mu1, K=0.0, N=2.0)
        assert rep.verdict == "holds"
        assert rep.plan_provenance["cost_squared"] == pytest.approx(0.36, rel=1e-12)


class TestMonotone1d:
    def test_diracs_match_w2(self):
        sp = line_space(7, h=0.5)
        mu0 = np.zeros(7); mu0[0] = 1.0
        mu1 = np.zeros(7); mu1[5] = 1.0
        assert monotone_1d(sp, mu0, mu1).cost_squared == pytest.approx(
            transport.w2(sp, mu0, mu1).cost_squared, abs=1e-12)

    def test_shifted_uniform_cost_is_shift_squared(self):
        n, shift_cells = 20, 7
        sp = line_space(n + shift_cells, h=0.1)
        mu0 = np.zeros(n + shift_cells); mu0[:n] = 1 / n
        mu1 = np.zeros(n + shift_cells); mu1[shift_cells:] = 1 / n
        res = monotone_1d(sp, mu0, mu1)
        assert res.cost_squared == pytest.approx((0.7) ** 2, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    @example(7789)  # a simplex vertex 4.9e-9 above the optimum passed a -1e-7 bound
    def test_random_matches_lp_and_quantile_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        x = np.sort(rng.random(n)) * 3
        D = np.abs(x[:, None] - x[None, :])
        sp = FiniteSpace(tuple(range(n)), D, np.ones(n), coords=x)
        mu0 = random_measure(rng, n)
        mu1 = random_measure(rng, n)
        mono = monotone_1d(sp, mu0, mu1)
        lp = transport.w2(sp, mu0, mu1)
        r0, r1 = np.flatnonzero(mu0 > 0), np.flatnonzero(mu1 > 0)
        oracle = monotone_cost_1d(x[r0], mu0[r0], x[r1], mu1[r1])
        assert mono.cost_squared == pytest.approx(oracle, abs=1e-12)
        assert mono.cost_squared == pytest.approx(lp.cost_squared, abs=1e-9)

    def test_requires_coordinates(self):
        D = np.array([[0, 1.0], [1.0, 0]])
        sp = FiniteSpace((0, 1), D, np.ones(2))
        with pytest.raises(ValueError):
            monotone_1d(sp, np.array([1.0, 0]), np.array([0, 1.0]))


class TestInterpolation:
    def test_endpoints_recovered(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.05, extent=1.0))
        n = ps.n
        rng = np.random.default_rng(1)
        mu0 = random_measure(rng, n)
        mu1 = random_measure(rng, n)
        plan = transport.w2(ps.space, mu0, mu1).plan
        assert np.abs(transport.interpolate(ps.space, plan, 0.0) - mu0).max() <= 1e-12
        assert np.abs(transport.interpolate(ps.space, plan, 1.0) - mu1).max() <= 1e-12

    def test_dirac_midpoint(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.1, extent=1.0))
        x = ps.space.coords[:, 0]
        i0, i1 = int(np.argmin(np.abs(x - 0.0))), int(np.argmin(np.abs(x - 1.0)))
        mu0 = np.zeros(ps.n); mu0[i0] = 1.0
        mu1 = np.zeros(ps.n); mu1[i1] = 1.0
        plan = transport.w2(ps.space, mu0, mu1).plan
        mt = transport.interpolate(ps.space, plan, 0.5)
        k = int(np.argmax(mt))
        assert x[k] == pytest.approx(0.5, abs=0.05 + 1e-12)

    def test_w2_linear_in_t(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.01, extent=0.5))
        x = ps.space.coords[:, 0]
        mu0 = np.where(x < 0, 1.0, 0.0); mu0 /= mu0.sum()
        mu1 = np.where(x > 0, 1.0, 0.0); mu1 /= mu1.sum()
        res = transport.w2(ps.space, mu0, mu1)
        full = res.distance
        for t in (0.25, 0.5, 0.75):
            mt = transport.interpolate(ps.space, res.plan, t)
            part = transport.w2(ps.space, mu0, mt).distance
            assert part == pytest.approx(t * full, abs=5 * 0.01)

    def test_missing_interpolator(self):
        sp = line_space(4)
        plan = transport.w2(sp, np.full(4, 0.25), np.full(4, 0.25)).plan
        with pytest.raises(transport.MissingInterpolatorError):
            transport.interpolate(sp, plan, 0.5)


class TestGeodesicPlan:
    def test_diagonal_coupling_constant_paths(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.1, extent=1.0))
        mu = np.full(ps.n, 1 / ps.n)
        plan = transport.w2(ps.space, mu, mu).plan
        gp = transport.geodesic_plan(ps.space, plan)
        assert gp.defects.max() == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(gp.i, gp.j)

    def test_grid_paths_pass_geodesy(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.1, extent=0.5))
        rng = np.random.default_rng(4)
        mu0 = random_measure(rng, ps.n, support=20)
        mu1 = random_measure(rng, ps.n, support=20)
        plan = transport.w2(ps.space, mu0, mu1).plan
        gp = transport.geodesic_plan(ps.space, plan)
        assert gp.defects.max() <= gp.eps_geo
        assert not gp.flagged.any()

    def test_endpoint_coupling_matches_input(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.05, extent=1.0))
        rng = np.random.default_rng(6)
        mu0 = random_measure(rng, ps.n, support=6)
        mu1 = random_measure(rng, ps.n, support=5)
        plan = transport.w2(ps.space, mu0, mu1).plan
        gp = transport.geodesic_plan(ps.space, plan)
        assert np.abs(np.bincount(gp.i, gp.mass, minlength=ps.n) - mu0).max() <= 1e-12
        assert np.abs(np.bincount(gp.j, gp.mass, minlength=ps.n) - mu1).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_endpoints_reproduce_marginals(self, seed):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.25, extent=1.0))
        rng = np.random.default_rng(seed)
        mu0 = random_measure(rng, ps.n, support=int(rng.integers(1, 12)))
        mu1 = random_measure(rng, ps.n, support=int(rng.integers(1, 12)))
        gp = transport.geodesic_plan(ps.space, transport.w2(ps.space, mu0, mu1).plan)
        assert np.abs(gp.evaluate(0.0) - mu0).max() <= 1e-12
        assert np.abs(gp.evaluate(1.0) - mu1).max() <= 1e-12

    def test_graph_paths_follow_shortest_path_midpoints(self):
        ps = models.make(models.ModelSpec("graph", n_points=16, seed=5))
        sp = ps.space
        # oracle metric from networkx on the same edge set
        rng = np.random.default_rng(5)
        interp = sp.interpolator
        mids = []
        for i in (0, 1, 2):
            for j in (10, 12, 14):
                k = interp(i, j, 0.5)
                # the midpoint node must sit on a shortest path: d(i,k)+d(k,j)=d(i,j)
                assert sp.metric[i, k] + sp.metric[k, j] == pytest.approx(
                    sp.metric[i, j], abs=1e-9)
                mids.append(k)
        assert any(m not in (0, 1, 2, 10, 12, 14) for m in mids)

    def test_metric_interpolator_fallback(self):
        x = np.arange(9) * 0.25
        D = np.abs(x[:, None] - x[None, :])
        interp = transport.MetricInterpolator(D)
        assert interp(0, 8, 0.0) == 0
        assert interp(0, 8, 1.0) == 8
        assert interp(0, 8, 0.5) == 4
