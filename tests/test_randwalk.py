"""Exact convolution powers, spectral-radius estimates, the Dirichlet
truncation, and inverted-orbit statistics."""

import math
import time
from fractions import Fraction

import pytest

from amenlab.errors import CapExceeded, ValidationError
from amenlab.orbits import build_ball, make_gset
from amenlab.randwalk import (kesten_check, operator_identity_residual,
                              truncated_rho)
from amenlab.walks import (Distribution, StepMeasure, expected_inverted_orbit_size,
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
            dist = measure_power(gset, mu, n)
            assert dist.mass(gset.base_key) == radial[n]

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

    def test_float_law_rounds_the_exact_law(self):
        gset = make_gset("cayley:free:2")
        mu = srw_measure(gset)
        exact = measure_power(gset, mu, 6)
        rounded = measure_power(gset, mu, 6, "float")
        assert rounded.precision == "float"
        assert rounded.entries == {key: float(mass)
                                   for key, mass in exact.entries.items()}

    def test_float_law_with_many_atoms_is_accepted(self):
        # 97,656 atoms summing to exactly 1; their float masses sum about
        # 3.3e-12 away from 1, so only the exact total can be checked
        gset = make_gset("cayley:free:3")
        law = measure_power(gset, srw_measure(gset), 7, "float")
        assert len(law) == 97_656
        assert abs(math.fsum(law.entries.values()) - 1.0) < 1e-15

    def test_law_total_is_checked_on_the_integer_weights(self):
        assert Distribution({"x": 1, "y": 2}, 3, "float").entries == {
            "x": 1 / 3, "y": 2 / 3}
        for precision in ("exact", "float"):
            with pytest.raises(ValidationError):
                Distribution({"x": 1, "y": 1}, 3, precision)

    def test_unknown_precision_rejected(self):
        gset = make_gset("cayley:z:1")
        with pytest.raises(ValidationError):
            measure_power(gset, srw_measure(gset), 2, "decimal")


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
        for spec in ("cayley:z:1", "cayley:free:2"):
            gset = make_gset(spec)
            graph = build_ball(gset, 3)
            residual = operator_identity_residual(graph, srw_measure(gset))
            assert residual < 1e-12


class TestKesten:
    def test_exact_pair(self):
        report = kesten_check(exact_pair=(0.5, math.sqrt(3) / 2))
        assert report["passed"]
        squares = next(c for c in report["checks"] if c["name"] == "squares")
        assert squares["tight"]

    def test_bounds_only_mode(self):
        report = kesten_check(iota_upper=0.6, rho_lower=0.8)
        assert report["passed"]

    def test_needs_input(self):
        with pytest.raises(ValidationError):
            kesten_check()


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
