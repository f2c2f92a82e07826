"""Surrogate pmGH distance: distortion, measure gap, symmetry, exhaustive oracle."""
import json

import numpy as np
import pytest

from mmslab import cli, core, models, pmgh, tangent_lab
from mmslab.core import FiniteSpace, PointedSpace
from mmslab.pmgh import Correspondence, _ball, _gap_lp

from oracles import (bruteforce_corr_infimum, dense_teleport_lp, nx_relation_flow,
                     permuted_copy, random_euclidean_space)


def two_point(gap, weights=(1.0, 1.0), base=0):
    D = np.array([[0.0, gap], [gap, 0.0]])
    return PointedSpace(FiniteSpace((0, 1), D, np.asarray(weights, float)), base)


def full_corr(na, nb):
    return Correspondence(np.array([(i, j) for i in range(na) for j in range(nb)]))


class TestDistortion:
    def test_identity_zero(self):
        A = two_point(1.0)
        corr = Correspondence(np.array([[0, 0], [1, 1]]))
        assert pmgh.distortion(A, A, corr, 2.0) == 0.0

    def test_two_point_half_gap(self):
        A, B = two_point(1.0), two_point(1.2)
        matched = Correspondence(np.array([[0, 0], [1, 1]]))
        assert pmgh.distortion(A, B, matched, 2.0) == pytest.approx(0.1)
        # the all-pairs relation also pairs base with far points: |0 - 1.2|/2
        assert pmgh.distortion(A, B, full_corr(2, 2), 2.0) == pytest.approx(0.6)

    def test_isometric_relabeled_zero(self):
        rng = np.random.default_rng(0)
        D, w = random_euclidean_space(rng, 5)
        D2, w2, b2, P = permuted_copy(rng, D, w, 1)
        A = PointedSpace(FiniteSpace(tuple(range(5)), D, w), 1)
        B = PointedSpace(FiniteSpace(tuple(range(5)), D2, w2), b2)
        pairs = np.stack([np.arange(5), np.array([np.argwhere(P == i)[0][0]
                                                  for i in range(5)])], axis=1)
        assert pmgh.distortion(A, B, Correspondence(pairs), 10.0) == 0.0

    def test_coverage_failure(self):
        A, B = two_point(1.0), two_point(1.2)
        with pytest.raises(pmgh.CoverageError):
            pmgh.distortion(A, B, Correspondence(np.array([[0, 0]])), 2.0)

    def test_missing_base_pair(self):
        A, B = two_point(1.0), two_point(1.2)
        bad = Correspondence(np.array([[0, 1], [1, 0]]))
        with pytest.raises(pmgh.CoverageError):
            pmgh.distortion(A, B, bad, 2.0)


class TestMeasureGap:
    def test_identity_zero(self):
        A = two_point(1.0)
        corr = Correspondence(np.array([[0, 0], [1, 1]]))
        assert pmgh.measure_gap(A, A, corr, 2.0) == 0.0

    def test_teleported_mass(self):
        # same metric with gap 2 >= teleport cost; excess 0.1 teleports at cost 1
        A = two_point(2.0, weights=(0.5, 0.5))
        B = two_point(2.0, weights=(0.6, 0.4))
        corr = Correspondence(np.array([[0, 0], [1, 1]]))
        assert pmgh.measure_gap(A, B, corr, 3.0) == pytest.approx(0.1, abs=1e-9)

    def test_short_moves_cost_distance(self):
        # gap 0.3 < 1: mass moves along the metric instead of teleporting
        A = two_point(0.3, weights=(0.5, 0.5))
        B = two_point(0.3, weights=(0.6, 0.4))
        corr = Correspondence(np.array([[0, 0], [1, 1]]))
        assert pmgh.measure_gap(A, B, corr, 3.0) == pytest.approx(0.1 * 0.3, abs=1e-9)

    def test_unnormalized_copy_mass_defect(self):
        c = 1.35
        A = two_point(0.8, weights=(1.0, 1.0))
        B = two_point(0.8, weights=(c, c))
        corr = Correspondence(np.array([[0, 0], [1, 1]]))
        expect = abs(c - 1.0) * 2.0  # creation cost of the extra mass
        assert pmgh.measure_gap(A, B, corr, 3.0) == pytest.approx(expect, abs=1e-9)


class TestPmghDistance:
    def test_identical_zero(self):
        A = two_point(1.0)
        assert pmgh.pmgh_distance(A, A, mode="exhaustive").value == 0.0
        assert pmgh.pmgh_distance(A, A, mode="anneal").value == 0.0

    def test_two_point_matches_bruteforce(self):
        A, B = two_point(1.0), two_point(1.2)
        est = pmgh.pmgh_distance(A, B, mode="exhaustive")
        # independent subset enumeration per surviving radius
        total = 0.0
        for k, term in enumerate(est.per_radius, start=1):
            ball_a, ball_b = _ball(A, term.radius), _ball(B, term.radius)
            val = bruteforce_corr_infimum(
                ball_a.D, ball_a.w, ball_a.base, ball_b.D, ball_b.w, ball_b.base,
                lambda loc: _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc))
            total += 2.0 ** (-k) * min(1.0, val)
        assert est.value == pytest.approx(total, abs=1e-9)
        assert est.lower_bound == est.value

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        sizes = [(3, 4), (4, 4), (3, 3)]
        for seed, (na, nb) in enumerate(sizes):
            D, w = random_euclidean_space(rng, na)
            D2, w2 = random_euclidean_space(rng, nb)
            A = PointedSpace(FiniteSpace(tuple(range(na)), D, w), 0)
            B = PointedSpace(FiniteSpace(tuple(range(nb)), D2, w2), min(2, nb - 1))
            ab = pmgh.pmgh_distance(A, B, mode="exhaustive", seed=seed)
            ba = pmgh.pmgh_distance(B, A, mode="exhaustive", seed=seed)
            assert ab.value == ba.value
        # anneal mode is symmetric too, by canonical ordering
        D, w = random_euclidean_space(rng, 6)
        D2, w2 = random_euclidean_space(rng, 7)
        A = PointedSpace(FiniteSpace(tuple(range(6)), D, w), 0)
        B = PointedSpace(FiniteSpace(tuple(range(7)), D2, w2), 1)
        assert (pmgh.pmgh_distance(A, B, seed=5).value
                == pmgh.pmgh_distance(B, A, seed=5).value)

    def test_isomorphic_pairs_zero_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 5))
            D, w = random_euclidean_space(rng, n)
            base = int(rng.integers(n))
            D2, w2, b2, _ = permuted_copy(rng, D, w, base)
            A = PointedSpace(FiniteSpace(tuple(range(n)), D, w), base)
            B = PointedSpace(FiniteSpace(tuple(range(n)), D2, w2), b2)
            nA, _ = core.normalize_at(A, 1.0)
            nB, _ = core.normalize_at(B, 1.0)
            assert pmgh.pmgh_distance(nA, nB, mode="exhaustive").value == 0.0

    def test_value_dominates_lower_bound_and_caps(self):
        A = two_point(1.0)
        B = two_point(9.0)
        est = pmgh.pmgh_distance(A, B, mode="exhaustive")
        assert est.value >= 0.0
        for t in est.per_radius:
            assert t.term <= 1.0

    def test_relaxed_triangle_on_random_triples(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            spaces = []
            for _ in range(3):
                n = int(rng.integers(3, 5))
                D, w = random_euclidean_space(rng, n)
                nps, _ = core.normalize_at(
                    PointedSpace(FiniteSpace(tuple(range(n)), D, w), 0), 1.0)
                spaces.append(nps)
            dab = pmgh.pmgh_distance(spaces[0], spaces[1], mode="exhaustive").value
            dbc = pmgh.pmgh_distance(spaces[1], spaces[2], mode="exhaustive").value
            dac = pmgh.pmgh_distance(spaces[0], spaces[2], mode="exhaustive").value
            assert dac <= 2.0 * (dab + dbc) + 1e-9

    def test_metric_perturbation_stability(self):
        rng = np.random.default_rng(5)
        D, w = random_euclidean_space(rng, 4)
        A = PointedSpace(FiniteSpace(tuple(range(4)), D, w), 0)
        eps = 0.05
        D2 = D.copy()
        D2[1, 2] += eps
        D2[2, 1] += eps
        B = PointedSpace(FiniteSpace(tuple(range(4)), D2, w), 0)
        est = pmgh.pmgh_distance(A, B, mode="exhaustive")
        # distortion of the identity matching is eps/2; the gap term only
        # adds metric-driven movement below the teleport cap
        assert est.value <= (eps / 2 + eps) * sum(t.weight for t in est.per_radius) + 1e-9

    def test_exhaustive_size_guard(self):
        rng = np.random.default_rng(6)
        D, w = random_euclidean_space(rng, 8)
        A = PointedSpace(FiniteSpace(tuple(range(8)), D, w), 0)
        with pytest.raises(pmgh.PmghBudgetError):
            pmgh.pmgh_distance(A, A, mode="exhaustive", R_grid=(10.0,))

    def test_relabel_invariance_generic(self):
        rng = np.random.default_rng(7)
        D, w = random_euclidean_space(rng, 6)
        A = PointedSpace(FiniteSpace(tuple(range(6)), D, w), 2)
        D2, w2, b2, _ = permuted_copy(rng, D, w, 2)
        B = PointedSpace(FiniteSpace(tuple(range(6)), D2, w2), b2)
        target = tangent_lab.normalize_window(
            models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.3, extent=1.0)), 8.0)
        vA = pmgh.pmgh_distance(tangent_lab.normalize_window(A, 8.0), target, seed=3).value
        vB = pmgh.pmgh_distance(tangent_lab.normalize_window(B, 8.0), target, seed=3).value
        assert vA == pytest.approx(vB, abs=1e-12)

    def test_anneal_upper_bounds_exhaustive(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            D, w = random_euclidean_space(rng, 4)
            D2, w2 = random_euclidean_space(rng, 4)
            A = PointedSpace(FiniteSpace(tuple(range(4)), D, w), 0)
            B = PointedSpace(FiniteSpace(tuple(range(4)), D2, w2), 0)
            lo = pmgh.pmgh_distance(A, B, mode="exhaustive").value
            up = pmgh.pmgh_distance(A, B, mode="anneal").value
            assert up >= lo - 1e-9

    def test_certificate_is_valid_correspondence(self):
        A, B = two_point(1.0), two_point(1.2)
        est = pmgh.pmgh_distance(A, B, mode="exhaustive")
        for term, cert in zip(est.per_radius, est.certificates):
            d = pmgh.distortion(A, B, cert, term.radius)
            g = pmgh.measure_gap(A, B, cert, term.radius)
            assert min(1.0, d + g) == pytest.approx(term.term, abs=1e-9)

    def test_estimate_json(self):
        A = two_point(1.0)
        est = pmgh.pmgh_distance(A, A, mode="exhaustive")
        assert '"value": 0.0' in json.dumps(cli._plain(est), allow_nan=False)


def random_covering(rng, na, nb, base_a, base_b):
    """graph(fa) union transpose(graph(gb)) for random maps, base pair included."""
    fa, gb = rng.integers(nb, size=na), rng.integers(na, size=nb)
    fa[base_a], gb[base_b] = base_b, base_a
    xs = np.concatenate([np.arange(na), gb])
    ys = np.concatenate([fa, np.arange(nb)])
    return np.unique(np.stack([xs, ys], axis=1), axis=0)


def seeded_grid_ball(rng, spec, R):
    """Ball of a model grid carrying the density 1 + 0.3 sin(<k, x> + phi)
    with a random wave vector and phase, as the benchmark's ghdist source."""
    ps = models.make(models.parse_spec(spec))
    X = ps.space.coords
    k = rng.normal(size=X.shape[1])
    k *= rng.uniform(0.5, 1.5) / np.linalg.norm(k)
    w = ps.space.weights * (1.0 + 0.3 * np.sin(X @ k + rng.uniform(0.0, 2.0 * np.pi)))
    return _ball(PointedSpace(FiniteSpace(ps.space.points, ps.space.metric, w), ps.base), R)


class TestGapAgainstDenseOracle:
    """The gap LP builds only the glued arcs below the cap and solves the hub
    form; the dense teleport LP on the full min-plus glued cost is the oracle."""

    @staticmethod
    def check(ball_a, ball_b, loc):
        dense = core.min_plus(ball_a.D[:, loc[:, 0]], ball_b.D[loc[:, 1], :])
        glued = pmgh._glued_below_cap(ball_a.D, ball_b.D, loc)
        below = (dense < pmgh.TELEPORT_COST) | (glued < pmgh.TELEPORT_COST)
        assert np.array_equal(glued[below], dense[below])
        value = _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc)
        expect = dense_teleport_lp(dense, ball_a.w, ball_b.w, pmgh.TELEPORT_COST)
        assert abs(value - expect) <= 1e-9 * max(1.0, abs(expect))

    def test_point_clouds_unequal_mass(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            na, nb = (int(n) for n in rng.integers(1, 25, size=2))
            D, w = random_euclidean_space(rng, na)
            D2, w2 = random_euclidean_space(rng, nb)
            scale = rng.uniform(0.5, 4.0)
            ball_a = _ball(PointedSpace(FiniteSpace(tuple(range(na)), D * scale, w), 0), 10.0)
            ball_b = _ball(PointedSpace(FiniteSpace(tuple(range(nb)), D2 * scale,
                                                    w2 * rng.uniform(0.5, 2.0)), 0), 10.0)
            self.check(ball_a, ball_b, random_covering(rng, na, nb, ball_a.base, ball_b.base))

    @pytest.mark.parametrize("spec_b", ["euclidean-grid:2d,h=0.4,extent=3,shape=ball",
                                        "euclidean-grid:3d,h=0.75,extent=3,shape=ball"],
                             ids=["2d-2d", "2d-3d"])
    def test_grid_balls_seeded_density(self, spec_b):
        spec_a = "euclidean-grid:2d,h=0.5,extent=3,shape=ball"
        rng = np.random.default_rng(43)
        for R in (1.0, 2.0, 3.0, 1.5, 2.5):
            ball_a = seeded_grid_ball(rng, spec_a, R)
            ball_b = seeded_grid_ball(rng, spec_b, R)
            na, nb = len(ball_a.w), len(ball_b.w)
            self.check(ball_a, ball_b, random_covering(rng, na, nb, ball_a.base, ball_b.base))


class TestFailFast:
    """Balls above the mode's size limit and bad radii are refused before
    any search."""

    def test_anneal_limit_raises_before_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the size check must run before any search")

        monkeypatch.setattr(pmgh, "_anneal_radius", no_search)
        A = models.make(models.ModelSpec("euclidean-grid", dim=1, h=0.1, extent=62.5))
        assert 2 * A.n == pmgh.ANNEAL_POINT_LIMIT + 2
        with pytest.raises(pmgh.PmghBudgetError, match="1251 \\+ 1251"):
            pmgh.pmgh_distance(A, A, R_grid=(1.0, 100.0))

    @pytest.mark.parametrize("R", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_radius_is_validation_error(self, R):
        A = two_point(1.0)
        with pytest.raises(ValueError, match="radius"):
            pmgh.pmgh_distance(A, A, R_grid=(1.0, R))


def test_free_flow_matches_max_flow_oracle():
    # the exhaustive search's min-cut bound equals a max-flow solver's value
    rng = np.random.default_rng(0)
    for _ in range(300):
        na = int(rng.integers(1, 9))
        nb = int(rng.integers(1, 10 - na))
        wa, wb = rng.random(na), rng.random(nb)
        every = np.array([(i, j) for i in range(na) for j in range(nb)])
        loc = every[rng.choice(len(every), int(rng.integers(1, len(every) + 1)), replace=False)]
        assert pmgh._free_flow(wa, wb, loc) == pytest.approx(
            nx_relation_flow(wa, wb, loc), abs=1e-12)


class TestConvergenceDiagnostic:
    def test_constant_sequence_all_zero(self):
        A = two_point(1.0)
        diag = pmgh.convergence_diagnostic([(1.0, A), (0.5, A), (0.25, A)], A,
                                           mode="exhaustive")
        assert diag["trend"] == "constant"
        assert all(v == 0.0 for _, v, _ in diag["rows"])

    def test_alternating_no_trend(self):
        A, B = two_point(1.0), two_point(3.0)
        target = two_point(1.0)
        diag = pmgh.convergence_diagnostic(
            [(1.0, A), (0.5, B), (0.25, A), (0.125, B)], target, mode="exhaustive")
        assert diag["trend"] == "none"

    def test_decreasing_flag(self):
        target = two_point(1.0)
        members = [(1.0, two_point(2.0)), (0.5, two_point(1.4)), (0.25, two_point(1.05))]
        diag = pmgh.convergence_diagnostic(members, target, mode="exhaustive")
        assert diag["trend"] == "decreasing"
