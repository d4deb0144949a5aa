"""Exact convolution powers, spectral-radius estimates, the Dirichlet
truncation, and inverted-orbit statistics."""

import math
import random
import time
from fractions import Fraction

import pytest

from amenlab import walks
from amenlab.errors import CapExceeded, ValidationError
from amenlab.orbits import build_ball, make_gset
from amenlab.randwalk import truncated_rho
from amenlab.walks import (StepMeasure, expected_inverted_orbit_size,
                           inverted_orbit_stats, lazy_measure, measure_power,
                           return_probability, return_sequence,
                           rho_lower_bound, srw_measure,
                           _radial_return_sequence)


class TestMeasures:
    def test_srw_is_symmetric_and_normalized(self):
        mu = srw_measure(make_gset("cayley:free:2"))
        assert mu.symmetric
        assert sum(w for _, w in mu.items()) == 1

    def test_weights_must_sum_to_one(self):
        gset = make_gset("cayley:z:1")
        with pytest.raises(ValidationError):
            StepMeasure(gset, [(((0, 1),), Fraction(1, 3))])

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValidationError):
            StepMeasure(make_gset("z:1"), [(((5, 1),), Fraction(1))])

    def test_sign_other_than_plus_minus_one_rejected(self):
        with pytest.raises(ValidationError):
            StepMeasure(make_gset("z:1"), [(((0, 2),), Fraction(1))])

    def test_lazy_measure(self):
        mu = lazy_measure(srw_measure(make_gset("cayley:z:1")))
        masses = dict(mu.items())
        assert masses[()] == Fraction(1, 2)
        assert masses[((0, 1),)] == Fraction(1, 4)

    def test_asymmetric_measure_detected(self):
        gset = make_gset("cayley:z:1")
        mu = StepMeasure(gset, [(((0, 1),), Fraction(2, 3)),
                                (((0, -1),), Fraction(1, 3))])
        assert not mu.symmetric
        with pytest.raises(ValidationError):
            rho_lower_bound(gset, mu, 10)


class TestReturnProbabilities:
    def test_z_against_the_binomial_formula(self):
        gset = make_gset("cayley:z:1")
        mu = srw_measure(gset)
        seq = return_sequence(gset, mu, 20)
        for n in range(11):
            assert seq[2 * n] == Fraction(math.comb(2 * n, n), 4 ** n)
            if n:
                assert seq[2 * n - 1] == 0

    def test_radial_fast_path_matches_generic_convolution(self):
        gset = make_gset("cayley:free:2")
        mu = srw_measure(gset)
        radial = _radial_return_sequence(2, 10)
        for n in range(11):
            law = measure_power(gset, mu, n)
            assert law.get(gset.base_key, 0) == radial[n]

    def test_exact_step_cap(self):
        gset = make_gset("cayley:z:1")
        with pytest.raises(CapExceeded):
            measure_power(gset, srw_measure(gset), 65)

    def test_negative_step_count_rejected(self):
        for spec in ("cayley:free:2", "cayley:z:1"):  # radial and generic
            gset = make_gset(spec)
            with pytest.raises(ValidationError):
                return_sequence(gset, srw_measure(gset), -1)

    def test_float_mode(self):
        gset = make_gset("cayley:z:1")
        value = return_probability(gset, srw_measure(gset), 4,
                                   precision="float")
        assert abs(value - 6.0 / 16.0) < 1e-12

    def test_law_with_many_atoms_sums_to_exactly_one(self):
        # 97,656 atoms; their float masses would sum about 3.3e-12 away
        # from 1
        gset = make_gset("cayley:free:3")
        law = measure_power(gset, srw_measure(gset), 7)
        assert len(law) == 97_656
        assert sum(law.values()) == 1

    def test_law_total_is_checked_on_the_integer_weights(self, monkeypatch):
        exact_counts = walks.walk_counts

        def one_unit_too_many(size, moves, n):
            *earlier, last = exact_counts(size, moves, n)
            last[0] += 1
            return [*earlier, last]

        monkeypatch.setattr(walks, "walk_counts", one_unit_too_many)
        gset = make_gset("cayley:z:1")
        with pytest.raises(ValidationError):
            measure_power(gset, srw_measure(gset), 2)

    def test_unknown_precision_rejected(self):
        gset = make_gset("cayley:z:1")
        with pytest.raises(ValidationError):
            return_probability(gset, srw_measure(gset), 2,
                               precision="decimal")


class TestSpectralRadius:
    def test_lower_bound_is_monotone_evidence(self):
        gset = make_gset("cayley:z:1")
        report = rho_lower_bound(gset, srw_measure(gset), 40)
        assert report["best"] <= 1.0
        assert report["best"] == max(v for _, v in report["sequence"])

    def test_truncated_rho_radial_equals_generic(self):
        gset = make_gset("cayley:free:2")
        radial = truncated_rho(gset, radius=6)
        graph = build_ball(gset, 6)
        generic = truncated_rho(graph)
        assert abs(radial - generic) < 1e-7

    def test_truncated_rho_on_z_matches_the_path_spectrum(self):
        # the ball of radius r in Z is a path with 2r+1 vertices
        value = truncated_rho(make_gset("cayley:z:1"), radius=10)
        assert abs(value - math.cos(math.pi / 22)) < 1e-9

    @pytest.mark.parametrize("spec, radius, value", [
        # recorded before the exact core dropped numpy
        ("cayley:free:2", 8, "0x1.a8f7b66a9b816p-1"),   # power iteration
        ("cayley:free:2", 5, "0x1.9777bb52b6b5ep-1"),   # dense solver
        ("cayley:z:1", 40, "0x1.ff9fd11f395dep-1"),
    ])
    def test_truncated_rho_on_built_balls_is_pinned(self, spec, radius,
                                                    value):
        graph = build_ball(make_gset(spec), radius)
        assert truncated_rho(graph).hex() == value

    def test_truncated_rho_needs_radius_for_gsets(self):
        with pytest.raises(ValidationError):
            truncated_rho(make_gset("cayley:z:1"))

    def test_truncated_rho_rejects_a_negative_radius(self):
        for spec in ("cayley:free:2", "cayley:z:1"):  # radial and generic
            with pytest.raises(ValidationError):
                truncated_rho(make_gset(spec), radius=-1)

    def test_asymmetric_measure_rejected_before_any_ball(self, monkeypatch):
        # the radius-12 ball of free:3 passes the 100,000-vertex budget
        monkeypatch.setenv("AMENLAB_CAP_MB", "20")
        gset = make_gset("cayley:free:3")
        mu = StepMeasure(gset, [(((0, 1),), Fraction(1))])
        started = time.perf_counter()
        with pytest.raises(ValidationError):
            truncated_rho(gset, mu, radius=12)
        assert time.perf_counter() - started < 0.1


class TestOperatorIdentity:
    def test_walk_operator_is_one_minus_laplacian(self):
        # on every interior row, sum_y p(x,y) (f(x) - f(y)) = f(x) - (Pf)(x),
        # checked exactly on the ball's integer weights D * p(x,y)
        rng = random.Random(11)
        for spec, lazy in (("cayley:z:1", False), ("cayley:z:1", True),
                           ("cayley:free:2", False)):
            gset = make_gset(spec)
            mu = srw_measure(gset)
            if lazy:  # the empty word puts a loop on every vertex
                mu = lazy_measure(mu)
            scale = math.lcm(*(w.denominator for _, w in mu.items()))
            graph = build_ball(gset, 3)
            rows = [[] for _ in graph.keys]
            for word, weight in mu.items():
                for x, y in zip(*graph.word_edges(word)):
                    rows[x].append((y, int(weight * scale)))
            f = [rng.randint(-100, 100) for _ in graph.keys]
            interior = [graph.ids[v] for v in graph.vertices
                        if graph.is_interior(v)]
            assert len(interior) == len(build_ball(gset, 2).keys)
            for x in interior:
                laplacian = sum(w * (f[x] - f[y]) for y, w in rows[x])
                walk = sum(w * f[y] for y, w in rows[x])
                assert laplacian == scale * f[x] - walk


class TestInvertedOrbits:
    def test_exact_small_values_on_z(self):
        gset = make_gset("cayley:z:1")
        mu = srw_measure(gset)
        assert expected_inverted_orbit_size(gset, mu, 0) == 1
        assert expected_inverted_orbit_size(gset, mu, 1) == 2
        assert expected_inverted_orbit_size(gset, mu, 2) == Fraction(5, 2)

    def test_monte_carlo_agrees_with_exact(self):
        gset = make_gset("cayley:z:1")
        mu = srw_measure(gset)
        stats = inverted_orbit_stats(gset, mu, 8, trials=2000, seed=5)
        exact = float(expected_inverted_orbit_size(gset, mu, 8))
        assert abs(stats["meanSize"] - exact) < 4 * stats["meanSizeStdErr"]

    def test_reproducible_by_seed(self):
        gset = make_gset("cayley:free:2")
        mu = srw_measure(gset)
        a = inverted_orbit_stats(gset, mu, 5, trials=100, seed=3)
        b = inverted_orbit_stats(gset, mu, 5, trials=100, seed=3)
        assert a == b

    def test_free_group_orbit_grows_linearly(self):
        # almost every step pushes the inverted orbit to a fresh vertex
        gset = make_gset("cayley:free:3")
        mu = srw_measure(gset)
        expected = expected_inverted_orbit_size(gset, mu, 12)
        assert expected > 10
