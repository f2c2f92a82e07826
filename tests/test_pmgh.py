"""Surrogate pmGH distance: distortion, measure gap, symmetry, exhaustive oracle."""
import json

import numpy as np
import pytest

from mmslab import cli, core, models, pmgh, tangent_lab
from mmslab.core import FiniteSpace, PointedSpace
from mmslab.pmgh import Correspondence, _ball, _gap_lp

from oracles import (bruteforce_corr_infimum, dense_teleport_lp, permuted_copy,
                     random_euclidean_space)


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
        est = pmgh.pmgh_distance(A, A)
        assert est.value == 0.0 and est.exact
        # the anneal finds a relation of value 0 on the same balls
        ball = _ball(A, 2.0)
        assert sum(pmgh._evaluate(ball, ball, pmgh._anneal_radius(ball, ball, 0))) == 0.0

    def test_two_point_matches_bruteforce(self):
        A, B = two_point(1.0), two_point(1.2)
        est = pmgh.pmgh_distance(A, B)
        # independent subset enumeration per surviving radius
        total = 0.0
        for k, term in enumerate(est.per_radius, start=1):
            ball_a, ball_b = _ball(A, term.radius), _ball(B, term.radius)
            val = bruteforce_corr_infimum(
                ball_a.D, ball_a.w, ball_a.base, ball_b.D, ball_b.w, ball_b.base,
                lambda loc: _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc))
            total += 2.0 ** (-k) * min(1.0, val)
        assert est.value == pytest.approx(total, abs=1e-9)
        assert est.lower_bound == est.value and est.exact

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        sizes = [(3, 4), (4, 4), (3, 3)]
        for seed, (na, nb) in enumerate(sizes):
            D, w = random_euclidean_space(rng, na)
            D2, w2 = random_euclidean_space(rng, nb)
            A = PointedSpace(FiniteSpace(tuple(range(na)), D, w), 0)
            B = PointedSpace(FiniteSpace(tuple(range(nb)), D2, w2), min(2, nb - 1))
            ab = pmgh.pmgh_distance(A, B, seed=seed)
            ba = pmgh.pmgh_distance(B, A, seed=seed)
            assert ab.value == ba.value
        # the anneal is symmetric too, by canonical ordering
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
            assert pmgh.pmgh_distance(nA, nB).value == 0.0

    def test_value_dominates_lower_bound_and_caps(self):
        A = two_point(1.0)
        B = two_point(9.0)
        est = pmgh.pmgh_distance(A, B)
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
            dab = pmgh.pmgh_distance(spaces[0], spaces[1]).value
            dbc = pmgh.pmgh_distance(spaces[1], spaces[2]).value
            dac = pmgh.pmgh_distance(spaces[0], spaces[2]).value
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
        est = pmgh.pmgh_distance(A, B)
        # distortion of the identity matching is eps/2; the gap term only
        # adds metric-driven movement below the teleport cap
        assert est.value <= (eps / 2 + eps) * sum(t.weight for t in est.per_radius) + 1e-9

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
        # both searches on the same tiny balls: the anneal's term is never
        # below the exact infimum
        rng = np.random.default_rng(8)
        for seed in range(4):
            D, w = random_euclidean_space(rng, 4)
            D2, w2 = random_euclidean_space(rng, 4)
            A = PointedSpace(FiniteSpace(tuple(range(4)), D, w), 0)
            B = PointedSpace(FiniteSpace(tuple(range(4)), D2, w2), 0)
            for R in pmgh.DEFAULT_RADII:
                ball_a, ball_b = _ball(A, R), _ball(B, R)
                lo = sum(pmgh._evaluate(ball_a, ball_b,
                                        pmgh._exhaustive_radius(ball_a, ball_b, 0.0)))
                up = sum(pmgh._evaluate(ball_a, ball_b,
                                        pmgh._anneal_radius(ball_a, ball_b, seed,
                                                            proposals=2000, restarts=1)))
                assert min(1.0, up) >= min(1.0, lo) - 1e-9

    def test_certificate_is_valid_correspondence(self):
        A, B = two_point(1.0), two_point(1.2)
        est = pmgh.pmgh_distance(A, B)
        for term, cert in zip(est.per_radius, est.certificates):
            d = pmgh.distortion(A, B, cert, term.radius)
            g = pmgh.measure_gap(A, B, cert, term.radius)
            assert min(1.0, d + g) == pytest.approx(term.term, abs=1e-9)

    def test_estimate_json(self):
        A = two_point(1.0)
        est = pmgh.pmgh_distance(A, A)
        assert '"value": 0.0' in json.dumps(cli._plain(est), allow_nan=False)


def random_covering(rng, na, nb, base_a, base_b):
    """graph(fa) union transpose(graph(gb)) for random maps, base pair included."""
    fa, gb = rng.integers(nb, size=na), rng.integers(na, size=nb)
    fa[base_a], gb[base_b] = base_b, base_a
    xs = np.concatenate([np.arange(na), gb])
    ys = np.concatenate([fa, np.arange(nb)])
    return np.unique(np.stack([xs, ys], axis=1), axis=0)


def seeded_grid(rng, spec):
    """A model grid carrying the density 1 + 0.3 sin(<k, x> + phi) with a
    random wave vector and phase, as the benchmark's ghdist source."""
    ps = models.make(models.parse_spec(spec))
    X = ps.space.coords
    k = rng.normal(size=X.shape[1])
    k *= rng.uniform(0.5, 1.5) / np.linalg.norm(k)
    w = ps.space.weights * (1.0 + 0.3 * np.sin(X @ k + rng.uniform(0.0, 2.0 * np.pi)))
    return PointedSpace(FiniteSpace(ps.space.points, ps.space.metric, w), ps.base)


def seeded_grid_ball(rng, spec, R):
    return _ball(seeded_grid(rng, spec), R)


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


def random_pointed(rng, n, scale, mass):
    """Random plane cloud with its metric scaled and its weights summing to mass."""
    D, w = random_euclidean_space(rng, n)
    return PointedSpace(FiniteSpace(tuple(range(n)), D * scale, w * mass / w.sum()),
                        int(rng.integers(n)))


def random_pair(rng, na, nb):
    """Pointed clouds of comparable scale whose masses agree in half the cases."""
    mass = rng.uniform(0.5, 4.0)
    return (random_pointed(rng, na, rng.uniform(0.3, 3.0), mass),
            random_pointed(rng, nb, rng.uniform(0.3, 3.0),
                           mass * (1.0 if rng.random() < 0.5 else rng.uniform(0.5, 2.0))))


class TestLowerBound:
    """The relation-free bound is at most distortion + gap of every relation
    the search returns, on tiny balls (exact) and anneal-sized ones."""

    def test_hausdorff_1d_matches_all_pairs(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            a = rng.normal(size=int(rng.integers(1, 12)))
            b = rng.normal(size=int(rng.integers(1, 12)))
            gaps = np.abs(a[:, None] - b[None, :])
            expect = max(gaps.min(axis=1).max(), gaps.min(axis=0).max())
            assert pmgh._hausdorff_1d(a, b) == expect

    def test_below_exhaustive_infimum(self):
        rng = np.random.default_rng(51)
        bites = 0
        for _ in range(60):
            na = int(rng.integers(1, 5))
            A, B = random_pair(rng, na, int(rng.integers(1, 9 - na)))
            ball_a, ball_b = _ball(A, 100.0), _ball(B, 100.0)
            bound = pmgh._lower_bound(ball_a, ball_b)
            loc = pmgh._exhaustive_radius(ball_a, ball_b, 0.0)
            assert bound <= sum(pmgh._evaluate(ball_a, ball_b, loc)) + 1e-9
            mass_part = abs(ball_a.w.sum() - ball_b.w.sum()) * pmgh.TELEPORT_COST
            bites += bound > mass_part + 1e-3
        assert bites >= 20  # the distortion half of the bound is exercised

    def test_below_anneal_certificates(self):
        rng = np.random.default_rng(52)
        for seed in range(20):
            A, B = random_pair(rng, int(rng.integers(8, 30)), int(rng.integers(8, 30)))
            R = float(rng.uniform(0.5, 3.0))
            ball_a, ball_b = _ball(A, R), _ball(B, R)
            bound = pmgh._lower_bound(ball_a, ball_b)
            loc = pmgh._anneal_radius(ball_a, ball_b, seed, proposals=2000, restarts=1)
            assert bound <= sum(pmgh._evaluate(ball_a, ball_b, loc)) + 1e-9

    def test_exhaustive_stops_at_the_bound(self, monkeypatch):
        # B is A with twice the mass on a path symmetric about its base: the
        # identity and the reflection both attain the bound (distortion 0,
        # gap = the mass difference), so a search that stops at the bound
        # solves one gap LP where the full search solves two
        D = np.array([[0.0, 0.25, 0.5], [0.25, 0.0, 0.25], [0.5, 0.25, 0.0]])
        A = PointedSpace(FiniteSpace((0, 1, 2), D, np.full(3, 0.125)), 1)
        B = PointedSpace(FiniteSpace((0, 1, 2), D, np.full(3, 0.25)), 1)
        ball_a, ball_b = _ball(A, 2.0), _ball(B, 2.0)
        bound = pmgh._lower_bound(ball_a, ball_b)
        assert bound == 0.375
        calls = []

        def counted(*args):
            calls.append(1)
            return _gap_lp(*args)

        monkeypatch.setattr(pmgh, "_gap_lp", counted)
        searched = pmgh._exhaustive_radius(ball_a, ball_b, 0.0)
        assert len(calls) == 2
        calls.clear()
        stopped = pmgh._exhaustive_radius(ball_a, ball_b, bound)
        assert len(calls) == 1
        assert np.array_equal(stopped, searched)
        assert sum(pmgh._evaluate(ball_a, ball_b, stopped)) == bound

    def test_exhaustive_stops_at_the_cap(self):
        # bound 0.757, optimum 1.219: every relation is valued 1 or more, so
        # the term is 1, certified by the profile matching
        A, B = random_pair(np.random.default_rng(7), 5, 4)
        ball_a, ball_b = _ball(A, 100.0), _ball(B, 100.0)
        bound = pmgh._lower_bound(ball_a, ball_b)
        assert bound < 1.0
        loc = pmgh._exhaustive_radius(ball_a, ball_b, bound)
        assert np.array_equal(loc, pmgh._profile_pairs(ball_a, ball_b))
        assert min(1.0, sum(pmgh._evaluate(ball_a, ball_b, loc))) == 1.0


class TestExhaustive:
    """The maximal-clique search against plain subset enumeration."""

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(56)
        below_cap = 0
        for _ in range(30):
            na = int(rng.integers(1, 5))
            A, B = random_pair(rng, na, int(rng.integers(1, 8 - na)))
            ball_a, ball_b = _ball(A, 100.0), _ball(B, 100.0)
            loc = pmgh._exhaustive_radius(ball_a, ball_b, pmgh._lower_bound(ball_a, ball_b))
            expect = bruteforce_corr_infimum(
                ball_a.D, ball_a.w, ball_a.base, ball_b.D, ball_b.w, ball_b.base,
                lambda loc: _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc))
            value = sum(pmgh._evaluate(ball_a, ball_b, loc))
            assert min(1.0, value) == pytest.approx(min(1.0, expect), abs=1e-9)
            below_cap += expect < 1.0
        assert below_cap >= 15

    def test_default_search_is_exact_on_tiny_balls(self):
        # pmgh_distance with default arguments searches balls of at most 9
        # points exactly; the subset enumeration is kept to 6 points
        rng = np.random.default_rng(58)
        below_cap = 0
        for _ in range(12):
            na = int(rng.integers(1, 5))
            A, B = random_pair(rng, na, int(rng.integers(1, 7 - na)))
            est = pmgh.pmgh_distance(A, B)
            below_cap += any(t.term < 1.0 for t in est.per_radius)
            expect = 0.0
            for term in est.per_radius:
                ball_a, ball_b = _ball(A, term.radius), _ball(B, term.radius)
                val = bruteforce_corr_infimum(
                    ball_a.D, ball_a.w, ball_a.base, ball_b.D, ball_b.w, ball_b.base,
                    lambda loc: _gap_lp(ball_a.D, ball_b.D, ball_a.w, ball_b.w, loc))
                expect += term.weight * min(1.0, val)
            assert est.value == pytest.approx(expect, abs=1e-9)
            assert est.exact and est.lower_bound == est.value
        assert below_cap >= 6

    def test_ball_size_picks_the_search(self, monkeypatch):
        calls = []

        def recorded(name):
            search = getattr(pmgh, name)

            def run(ball_a, ball_b, *args, **kwargs):
                calls.append((name, len(ball_a.w) + len(ball_b.w)))
                return search(ball_a, ball_b, *args, **kwargs)
            return run

        for name in ("_exhaustive_radius", "_anneal_radius"):
            monkeypatch.setattr(pmgh, name, recorded(name))
        rng = np.random.default_rng(59)
        A, B, C = (random_pointed(rng, n, 1.0, 1.0) for n in (4, 5, 6))
        assert pmgh.pmgh_distance(A, B, R_grid=(100.0,)).exact
        assert calls == [("_exhaustive_radius", 9)]
        calls.clear()
        pmgh.pmgh_distance(A, C, R_grid=(100.0,))
        assert calls == [("_anneal_radius", 10)]

    def test_independent_of_seed(self):
        # the first pair is the cap case above, where no relation is valued
        # below 1 at radius 100
        rng = np.random.default_rng(57)
        cases = [random_pair(np.random.default_rng(7), 5, 4)]
        cases += [random_pair(rng, na, int(rng.integers(2, 10 - na)))
                  for na in rng.integers(2, 6, size=4)]
        for A, B in cases:
            first, second = (pmgh.pmgh_distance(A, B, R_grid=(0.5, 1.0, 2.0, 100.0), seed=seed)
                             for seed in (0, 1))
            assert first.value == second.value
            assert all(np.array_equal(c.pairs, d.pairs)
                       for c, d in zip(first.certificates, second.certificates))


class TestSaturatedRadii:
    """A radius whose bound passes 1 is not searched; its term is 1 either way."""

    @staticmethod
    def no_bound(monkeypatch):
        monkeypatch.setattr(pmgh, "_lower_bound", lambda ball_a, ball_b: 0.0)

    @pytest.mark.parametrize("search", ["anneal", "exhaustive"])
    def test_skip_agrees_with_search(self, monkeypatch, search):
        # at most 9 ball points are searched exactly, more are annealed
        rng = np.random.default_rng(53 if search == "anneal" else 54)
        cases = []
        for seed in range(20):
            if search == "exhaustive":
                na = int(rng.integers(1, 6))
                sizes = (na, int(rng.integers(1, 10 - na)))
            else:
                sizes = tuple(int(n) for n in rng.integers(5, 20, size=2))
            cases.append((*random_pair(rng, *sizes), seed))
        kw = dict(proposals=1000, restarts=1)
        skipping = [pmgh.pmgh_distance(A, B, seed=seed, **kw) for A, B, seed in cases]
        self.no_bound(monkeypatch)
        searched = [pmgh.pmgh_distance(A, B, seed=seed, **kw) for A, B, seed in cases]
        saturated = 0
        for fast, slow in zip(skipping, searched):
            assert fast.value == slow.value
            assert [t.term for t in fast.per_radius] == [t.term for t in slow.per_radius]
            saturated += sum(t.lower_bound == 1.0 for t in fast.per_radius)
        assert saturated >= 10

    @pytest.mark.parametrize("target", ["euclidean-grid:1d,h=0.6,extent=3.5",
                                        "euclidean-grid:2d,h=0.6,extent=3.5,shape=ball",
                                        "euclidean-grid:3d,h=0.9,extent=3.5,shape=ball"],
                             ids=["R1", "R2", "R3"])
    def test_skip_agrees_on_seeded_grid_ball(self, monkeypatch, target):
        A = tangent_lab.normalize_window(
            seeded_grid(np.random.default_rng(55), "euclidean-grid:2d,h=0.5,extent=3.5,shape=ball"),
            3.0)
        B = tangent_lab.normalize_window(models.make(models.parse_spec(target)), 3.0)
        kw = dict(R_grid=(1.0, 2.0, 3.0), seed=55, proposals=2000, restarts=1)
        fast = pmgh.pmgh_distance(A, B, **kw)
        assert any(t.lower_bound == 1.0 for t in fast.per_radius)
        self.no_bound(monkeypatch)
        slow = pmgh.pmgh_distance(A, B, **kw)
        assert fast.value == slow.value
        assert [t.term for t in fast.per_radius] == [t.term for t in slow.per_radius]

    @pytest.mark.parametrize("search", ["anneal", "exhaustive"])
    def test_saturated_terms_skip_search_and_certify(self, monkeypatch, search):
        def no_search(*args, **kwargs):
            raise AssertionError("a saturated radius must not be searched")

        monkeypatch.setattr(pmgh, "_anneal_radius", no_search)
        monkeypatch.setattr(pmgh, "_exhaustive_radius", no_search)
        # the same grid with three times the weight: the masses differ by
        # more than 1 at every radius; balls of 17 points a side would be
        # annealed, of at most 3 searched exactly
        h, extent = (0.25, 2.0) if search == "anneal" else (0.6, 1.0)
        A = models.make(models.ModelSpec("euclidean-grid", dim=1, h=h, extent=extent))
        B = PointedSpace(FiniteSpace(A.space.points, A.space.metric, 3.0 * A.space.weights),
                         A.base)
        est = pmgh.pmgh_distance(A, B, R_grid=(1.0, 2.0, 4.0))
        assert est.value == sum(t.weight for t in est.per_radius)
        assert est.lower_bound == est.value
        for term, cert in zip(est.per_radius, est.certificates):
            dist = pmgh.distortion(A, B, cert, term.radius)
            gap = pmgh.measure_gap(A, B, cert, term.radius)
            assert (dist, gap) == (term.distortion, term.measure_gap)
            assert term.term == 1.0 == min(1.0, dist + gap)
            assert term.lower_bound == 1.0


class TestFailFast:
    """Balls above the anneal's size limit and bad radii are refused before
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


def sequence(*spaces, usable=True):
    """A blow-up sequence of the given spaces at radii 1, 1/2, 1/4, ..."""
    return tangent_lab.BlowupSequence(origin_base=0, window=8.0, members=tuple(
        tangent_lab.BlowupMember(radius=2.0 ** -k, space=ps, normalization=1.0,
                                 relative_resolution=0.0, usable=usable, warning=None)
        for k, ps in enumerate(spaces)))


class TestDistancesTo:
    def test_constant_sequence_is_exact_zero(self):
        A = two_point(1.0)
        rows = tangent_lab.distances_to(sequence(A, A, A), A)
        assert [r for r, _ in rows] == [1.0, 0.5, 0.25]
        assert all(est.value == est.lower_bound == 0.0 and est.exact for _, est in rows)

    @pytest.mark.parametrize("gaps", [(1.0, 3.0, 1.0, 3.0), (2.0, 1.4, 1.05)],
                             ids=["alternating", "decreasing"])
    def test_lower_bound_below_value(self, gaps):
        rows = tangent_lab.distances_to(sequence(*map(two_point, gaps)), two_point(1.0))
        assert len(rows) == len(gaps)
        assert all(0.0 <= est.lower_bound <= est.value for _, est in rows)
        assert any(est.value > 0.0 for _, est in rows)

    def test_unusable_only_sequence_raises(self):
        A = two_point(1.0)
        with pytest.raises(ValueError, match="no usable members"):
            tangent_lab.distances_to(sequence(A, A, usable=False), A)
