"""Distortion coefficients, Renyi energies, the convexity checker, prolongability."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmslab import cli, core, curvature, models, transport
from mmslab.core import FiniteSpace, PointedSpace

from oracles import has_marginals, optimal_permutations, sigma_hp, slack_table


class TestSigma:
    def test_zero_curvature_case(self):
        assert curvature.sigma(0.0, 1.0, 0.3, 7.0) == 0.3

    def test_infinite_branch(self):
        # K theta^2 = 16 >= N pi^2
        assert curvature.sigma(1.0, 1.0, 0.5, 4.0) == math.inf

    def test_positive_branch_value(self):
        # frozen via the 50-digit oracle
        expect = sigma_hp(1.0, 1.0, 0.5, math.pi / 2)
        assert expect == pytest.approx(0.7071067811865476, abs=1e-15)
        assert curvature.sigma(1.0, 1.0, 0.5, math.pi / 2) == pytest.approx(expect, abs=1e-14)

    def test_negative_branch_value(self):
        expect = sigma_hp(-1.0, 2.0, 0.5, 1.0)
        assert expect == pytest.approx(0.47029885856783971, abs=1e-15)
        assert curvature.sigma(-1.0, 2.0, 0.5, 1.0) == pytest.approx(expect, abs=1e-14)

    def test_boundary_flip(self):
        N, theta = 1.3, 2.1
        Kc = N * math.pi**2 / theta**2
        assert curvature.sigma(Kc * (1 + 1e-9), N, 0.5, theta) == math.inf
        below = curvature.sigma(Kc * (1 - 1e-9), N, 0.5, theta)
        assert math.isfinite(below)

    def test_theta_zero_gives_t(self):
        assert curvature.sigma(5.0, 2.0, 0.77, 0.0) == 0.77

    def test_large_negative_overflow_safe(self):
        val = curvature.sigma(-100.0, 1.0, 0.5, 10.0)  # sinh arguments ~ 100
        assert val == pytest.approx(math.exp(-50.0), rel=1e-10)
        # extreme arguments underflow cleanly instead of overflowing
        assert curvature.sigma(-1e6, 1.0, 0.5, 10.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            curvature.sigma(0.0, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            curvature.sigma(0.0, 1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            curvature.sigma(0.0, 1.0, 0.5, -1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_endpoints_on_finite_branch(self, seed):
        rng = np.random.default_rng(seed)
        K = rng.uniform(-5, 5)
        N = rng.uniform(1, 10)
        theta = rng.uniform(0, 3)
        if K * theta**2 >= N * math.pi**2:
            return
        assert curvature.sigma(K, N, 0.0, theta) == pytest.approx(0.0, abs=1e-15)
        assert curvature.sigma(K, N, 1.0, theta) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_monotone_in_t_for_nonpositive_K(self, seed):
        # for K > 0 the sine branch can peak inside (0,1); the monotonicity
        # property is stated for the K <= 0 branches only
        rng = np.random.default_rng(seed)
        K = rng.uniform(-5, 0)
        N = rng.uniform(1, 8)
        theta = rng.uniform(0, 2)
        ts = np.linspace(0, 1, 21)
        vals = [curvature.sigma(K, N, t, theta) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_vectorized_matches_oracle(self):
        thetas = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        for K, N, t in ((1.0, 1.0, 0.3), (-2.0, 3.0, 0.6), (0.0, 2.0, 0.4)):
            vec = curvature.sigma_vec(K, N, t, thetas)
            ref = [sigma_hp(K, N, t, th) for th in thetas.tolist()]
            for v, r in zip(vec, ref):
                assert v == pytest.approx(r, abs=1e-14) or (np.isinf(v) and np.isinf(r))

    def test_near_pole_relative_accuracy(self):
        # absolute 1e-12 is impossible next to the pole; relative accuracy holds
        N, theta = 2.0, 1.5
        K = 0.999 * N * math.pi**2 / theta**2
        ours = curvature.sigma(K, N, 0.5, theta)
        ref = sigma_hp(K, N, 0.5, theta)
        assert ours == pytest.approx(ref, rel=1e-9)


def grid_1d(h, extent=0.5):
    return models.make(models.ModelSpec("euclidean-grid", dim=1, h=h, extent=extent))


def halves(ps):
    x = ps.space.coords[:, 0]
    mu0 = np.where(x < 0, 1.0, 0.0); mu0 /= mu0.sum()
    mu1 = np.where(x > 0, 1.0, 0.0); mu1 /= mu1.sum()
    return mu0, mu1


class TestRenyi:
    def test_reference_measure_gives_minus_one(self):
        ps = grid_1d(0.01)
        sp = ps.space
        mu = sp.weights / sp.mass
        scaled = FiniteSpace(sp.points, sp.metric, sp.weights / sp.mass, coords=sp.coords)
        en = curvature.renyi_energy(mu, scaled, 2.0)
        assert en.value == pytest.approx(-1.0, abs=1e-12)
        assert en.singular_mass == 0.0

    def test_uniform_on_set_gives_minus_volume_root(self):
        ps = grid_1d(0.02)
        sp = ps.space
        E = np.arange(10)
        mu = np.zeros(sp.n); mu[E] = 1 / len(E)
        V = sp.weights[E].sum()
        for npr in (1.0, 2.0, 3.0):
            en = curvature.renyi_energy(mu, sp, npr)
            assert en.value == pytest.approx(-V ** (1 / npr), rel=1e-12)

    def test_singular_mass_reported(self):
        D = np.array([[0, 1.0], [1.0, 0]])
        sp = FiniteSpace((0, 1), D, np.array([1.0, 0.0]))
        mu = np.array([0.0, 1.0])
        en = curvature.renyi_energy(mu, sp, 2.0)
        assert en.value == 0.0
        assert en.singular_mass == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_jensen_lower_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        w = rng.random(n) + 0.05
        sp = FiniteSpace(tuple(range(n)), np.zeros((n, n)), w)
        mu = rng.random(n)
        mu /= mu.sum()
        npr = float(rng.uniform(1, 6))
        en = curvature.renyi_energy(mu, sp, npr)
        assert en.value >= -en.density_support_mass ** (1.0 / npr) - 1e-12


class TestCdstar:
    def test_equal_measures_zero_slack(self):
        ps = grid_1d(0.05)
        mu = ps.space.weights / ps.space.mass
        rep = curvature.cdstar_check(ps.space, mu, mu, K=0.0, N=1.0,
                                     t_grid=(0.3, 0.6), nprime_grid=(1.0, 2.0))
        assert rep.verdict == "holds"
        for row in rep.rows:
            assert row.slack == pytest.approx(0.0, abs=1e-9)

    def test_uniform_halves_hold(self):
        ps = grid_1d(0.02)
        mu0, mu1 = halves(ps)
        rep = curvature.cdstar_check(ps.space, mu0, mu1, K=0.0, N=1.0,
                                     nprime_grid=(1.0, 2.0))
        assert rep.verdict == "holds"
        assert rep.min_slack >= -rep.tol

    def test_diameter_obstruction_minus_infinity(self):
        ps = grid_1d(0.01, extent=2.0)
        x = ps.space.coords[:, 0]
        mu0 = np.zeros(ps.n); mu1 = np.zeros(ps.n)
        mu0[np.argsort(x)[:3]] = 1 / 3
        mu1[np.argsort(x)[-3:]] = 1 / 3
        rep = curvature.cdstar_check(ps.space, mu0, mu1, K=10.0, N=1.0)
        assert rep.verdict == "violated"
        assert rep.worst.rhs == -math.inf

    def test_scaling_covariance(self):
        ps = grid_1d(0.02)
        mu0, mu1 = halves(ps)
        base = curvature.cdstar_check(ps.space, mu0, mu1, K=1.5, N=1.0,
                                      nprime_grid=(1.0, 2.0), tol=0.1)
        for lam in (0.5, 3.0):
            scaled = ps.space.scaled(lam)
            rep = curvature.cdstar_check(scaled, mu0, mu1, K=1.5 / lam**2, N=1.0,
                                         nprime_grid=(1.0, 2.0), tol=0.1)
            a, b = slack_table(base), slack_table(rep)
            assert np.abs(a[:, 4] - b[:, 4]).max() <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_relabel_invariance(self, seed):
        # on a line the optimal plan is unique, so a relabeling of the points
        # permutes the computation and leaves the slack table as it was
        ps = grid_1d(0.05)
        rng = np.random.default_rng(seed)
        mu0, mu1 = (rng.random(ps.n) + 0.05 for _ in range(2))
        mu0, mu1 = mu0 / mu0.sum(), mu1 / mu1.sum()
        P = rng.permutation(ps.n)
        base = curvature.cdstar_check(ps.space, mu0, mu1, K=0.5, N=2.0)
        rep = curvature.cdstar_check(ps.space.subset(P), mu0[P], mu1[P], K=0.5, N=2.0)
        assert np.abs(slack_table(base) - slack_table(rep)).max() <= 1e-12

    def test_measure_scaling_invariance(self):
        ps = grid_1d(0.02)
        mu0, mu1 = halves(ps)
        base = curvature.cdstar_check(ps.space, mu0, mu1, K=0.0, N=2.0, tol=0.1)
        c = 7.3
        sp = ps.space
        scaled = FiniteSpace(sp.points, sp.metric, c * sp.weights, coords=sp.coords,
                             interpolator=sp.interpolator, resolution=sp.resolution)
        rep = curvature.cdstar_check(scaled, mu0, mu1, K=0.0, N=2.0, tol=0.1)
        a, b = slack_table(base), slack_table(rep)
        assert np.abs(a[:, 4] - b[:, 4]).max() <= 1e-9

    def test_singular_marginal_rejected(self):
        D = np.array([[0, 1.0, 2.0], [1.0, 0, 1.0], [2.0, 1.0, 0]])
        sp = FiniteSpace((0, 1, 2), D, np.array([1.0, 0.0, 1.0]),
                         interpolator=transport.MetricInterpolator(D))
        mu0 = np.array([1.0, 0.0, 0.0])
        mu_bad = np.array([0.0, 1.0, 0.0])
        with pytest.raises(curvature.SingularMarginalError):
            curvature.cdstar_check(sp, mu0, mu_bad, K=0.0, N=1.0)
        # dirac_target mode only needs mu0 absolutely continuous
        rep = curvature.cdstar_check(sp, mu0, mu_bad, K=0.0, N=1.0,
                                     mode="dirac_target", tol=0.5)
        assert rep.verdict in ("holds", "violated")

    def test_report_serialization(self):
        # the report is plain data that the CLI serializer writes as strict JSON
        ps = grid_1d(0.05)
        mu0, mu1 = halves(ps)
        rep = curvature.cdstar_check(ps.space, mu0, mu1, K=0.0, N=1.0)
        obj = json.loads(json.dumps(cli._plain(rep), allow_nan=False))
        assert obj["verdict"] == "holds" and obj["notes"]
        assert list(obj["rows"][0]) == ["t", "nprime", "lhs", "rhs", "slack", "singular_mass"]


class TestEnumerateOptimalPlans:
    def test_degenerate_square_has_two_vertices(self):
        # all four costs equal: the optimal face is the whole polytope,
        # whose vertices are the two permutation-like plans
        D = np.array([
            [0, 1, 1, 1],
            [1, 0, 1, 1],
            [1, 1, 0, 1],
            [1, 1, 1, 0],
        ], dtype=float)
        sp = FiniteSpace((0, 1, 2, 3), D, np.ones(4))
        mu0 = np.array([0.5, 0.5, 0.0, 0.0])
        mu1 = np.array([0.0, 0.0, 0.5, 0.5])
        plans = curvature.enumerate_optimal_plans(sp, mu0, mu1)
        assert len(plans) == 2
        for p in plans:
            assert has_marginals(p, mu0, mu1)

    def test_unique_optimum_single_vertex(self):
        x = np.arange(4.0)
        D = np.abs(x[:, None] - x[None, :])
        sp = FiniteSpace((0, 1, 2, 3), D, np.ones(4))
        mu0 = np.array([0.6, 0.4, 0.0, 0.0])
        mu1 = np.array([0.0, 0.0, 0.4, 0.6])
        plans = curvature.enumerate_optimal_plans(sp, mu0, mu1)
        assert len(plans) == 1

    @pytest.mark.parametrize("route", ["assignment", "simplex"])
    def test_lattice_ties_match_permutation_oracle(self, monkeypatch, route):
        # uniform equal-count measures on a 4x4 lattice: the vertices of the
        # optimal face are the optimal permutations, and lattice distances
        # tie; the duals of either route find them all
        if route == "simplex":
            monkeypatch.setattr(transport, "_assignment", lambda C, mass: None)
        P = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float)
        D = np.linalg.norm(P[:, None] - P[None, :], axis=2)
        sp = FiniteSpace(tuple(range(16)), D, np.ones(16))
        rng = np.random.default_rng(12)
        tied = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            rows = np.sort(rng.choice(16, n, replace=False))
            cols = np.sort(rng.choice(16, n, replace=False))
            mu0, mu1 = np.zeros(16), np.zeros(16)
            mu0[rows] = mu1[cols] = 1.0 / n
            plans = curvature.enumerate_optimal_plans(sp, mu0, mu1)
            got = set()
            for p in plans:
                assert has_marginals(p, mu0, mu1)
                i, j = np.nonzero(p.gamma > 1e-12)
                assert np.array_equal(i, np.arange(n))
                got.add(tuple(int(k) for k in j))
            assert len(got) == len(plans)
            expect = optimal_permutations(D[np.ix_(rows, cols)] ** 2)
            assert got == expect
            tied += len(expect) > 1
        assert tied >= 20

    def test_size_guard(self):
        n = 14
        D = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
        sp = FiniteSpace(tuple(range(n)), D, np.ones(n))
        mu0 = np.full(n, 1 / n)
        with pytest.raises(curvature.EnumerationBudgetError):
            curvature.enumerate_optimal_plans(sp, mu0, mu0)

    def test_exhaustive_cdstar_finds_satisfying_plan(self):
        D = np.array([
            [0, 1, 1, 1],
            [1, 0, 1, 1],
            [1, 1, 0, 1],
            [1, 1, 1, 0],
        ], dtype=float)
        sp = FiniteSpace((0, 1, 2, 3), D, np.ones(4),
                         interpolator=transport.MetricInterpolator(D, eps_geo=1.0))
        mu0 = np.array([0.5, 0.5, 0.0, 0.0])
        mu1 = np.array([0.0, 0.0, 0.5, 0.5])
        # the LP vertex violates on 4 support points, so every vertex is tried
        rep = curvature.cdstar_check(sp, mu0, mu1, K=0.0, N=1.0, tol=0.25)
        assert rep.plan_provenance["search"] == "exhaustive"
        assert rep.plan_provenance["enumerated_plans"] == 2
        assert rep.verdict in ("holds", "violated")

    def test_violation_above_the_limit_keeps_the_single_plan(self, monkeypatch):
        # 20 support points, above ENUMERATION_POINT_LIMIT: the LP vertex's
        # violation is reported without a search
        def no_search(*args):
            raise AssertionError("no enumeration above the support-point limit")

        monkeypatch.setattr(curvature, "enumerate_optimal_plans", no_search)
        ps = grid_1d(0.1, extent=1.0)
        mu0, mu1 = halves(ps)
        assert np.count_nonzero(mu0) + np.count_nonzero(mu1) > curvature.ENUMERATION_POINT_LIMIT
        rep = curvature.cdstar_check(ps.space, mu0, mu1, K=20.0, N=2.0)
        assert rep.verdict == "violated"
        assert rep.plan_provenance["search"] == "single"
        assert rep.plan_provenance["plan"] == "lp-vertex"


class TestProlongability:
    def test_t_zero_ratio_one(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.05,
                                          extent=0.5, shape="ball"))
        rep = curvature.prolongability_experiment(ps.space, ps.base, R=0.5,
                                                  t_grid=(0.0,), N=2.0)
        assert rep.rows[0].support_ratio == pytest.approx(1.0, abs=1e-12)

    def test_contraction_law_2d(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.02,
                                          extent=0.5, shape="ball"))
        rep = curvature.prolongability_experiment(ps.space, ps.base, R=0.5,
                                                  t_grid=(0.1, 0.3, 0.5), N=2.0)
        for row in rep.rows:
            assert row.support_ratio == pytest.approx((1 - row.t) ** 2, abs=0.05)

    def test_energy_above_jensen_bound(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.04,
                                          extent=0.5, shape="ball"))
        rep = curvature.prolongability_experiment(ps.space, ps.base, R=0.5,
                                                  t_grid=(0.2, 0.4), N=2.0)
        for row in rep.rows:
            assert row.energy >= row.jensen_bound - 1e-12

    def test_coverage_approaches_one(self):
        ps = models.make(models.ModelSpec("euclidean-grid", dim=2, h=0.02,
                                          extent=0.5, shape="ball"))
        rep = curvature.prolongability_experiment(
            ps.space, ps.base, R=0.5, t_grid=tuple(np.arange(0.02, 0.52, 0.02)), N=2.0)
        assert rep.coverage >= 0.95
