"""Reduced closed-word counts, the exact series identity, and the spectral
radius prediction from the cogrowth rate."""

from fractions import Fraction
from itertools import product

import pytest

from amenlab.cogrowth import (cogrowth_report, reduced_closed_counts,
                              series_identity_check)
from amenlab.errors import ValidationError
from amenlab.orbits import make_gset


def brute_force_counts(spec, n):
    """Exhaustive reduced-word enumeration in the free cover."""
    gset = make_gset(spec)
    letters = [(g, s) for g in range(len(gset.names)) for s in (1, -1)]
    counts = [1]
    for k in range(1, n + 1):
        total = 0
        for word in product(letters, repeat=k):
            if any(word[i] == (word[i + 1][0], -word[i + 1][1])
                   for i in range(k - 1)):
                continue
            key = gset.base_key
            for letter in word:
                key = gset.act(key, letter)
            if key == gset.base_key:
                total += 1
        counts.append(total)
    return counts


class TestCounts:
    def test_z_against_brute_force(self):
        assert reduced_closed_counts("z:1", 8).counts == \
            brute_force_counts("z:1", 8)

    def test_z2_against_brute_force(self):
        assert reduced_closed_counts("z:2", 6).counts == \
            brute_force_counts("z:2", 6)

    def test_zmod2_against_brute_force(self):
        assert reduced_closed_counts("zmod:2", 8).counts == \
            brute_force_counts("zmod:2", 8)

    def test_z2_length_four(self):
        assert reduced_closed_counts("z:2", 4)[4] == 8

    def test_free_group_has_no_nontrivial_closed_words(self):
        counts = reduced_closed_counts("free:2", 8)
        assert counts.counts == [1] + [0] * 8

    def test_involution_cover_letters_stay_distinct(self):
        # on Z/2 the formal letters x and x^-1 both exist in the cover,
        # so c(2) counts x x and x^-1 x^-1 but not the cancelling pairs
        counts = reduced_closed_counts("zmod:2", 2)
        assert counts[2] == 2
        assert counts.s_pm == 2

    def test_bipartite_targets_have_even_support(self):
        counts = reduced_closed_counts("z:2", 10).counts
        assert all(counts[k] == 0 for k in range(1, 11, 2))

    def test_rejects_negative_length(self):
        with pytest.raises(ValidationError):
            reduced_closed_counts("z:1", -1)


class TestSeriesIdentity:
    def test_residual_zero_on_finite_cyclic(self):
        report = series_identity_check("zmod:5", 12)
        assert report["maxResidual"] == Fraction(0)

    def test_residual_zero_on_z(self):
        report = series_identity_check("z:1", 10)
        assert report["maxResidual"] == Fraction(0)

    def test_residual_zero_on_the_free_group(self):
        report = series_identity_check("free:2", 8)
        assert report["maxResidual"] == Fraction(0)


class TestReport:
    def test_free_group_is_degenerate(self):
        counts = reduced_closed_counts("free:2", 10)
        report = cogrowth_report(counts)
        assert report["degenerate"]
        assert report["predictedRho"] is None

    def test_finite_group_predicts_rho_one(self):
        counts = reduced_closed_counts("zmod:2,2", 16)
        report = cogrowth_report(counts, rho_lower=1.0)
        assert report["residualRatio"] < 0.05

    def test_rank_one_cover_never_exceeds_gamma_one(self):
        # over a single generator the cover is Z, so gamma caps at 1 and the
        # prediction formula stays undefined
        counts = reduced_closed_counts("zmod:2", 12)
        report = cogrowth_report(counts)
        assert report["gammaRatio"] == 1.0
        assert report["predictedRhoRatio"] is None

    def test_both_estimators_reported(self):
        counts = reduced_closed_counts("z:2", 16)
        report = cogrowth_report(counts, rho_lower=1.0)
        assert report["gammaHat"] <= report["gammaRatio"] + 1e-9
        # the direct root converges slowly; freeze its value as a regression
        assert abs(report["predictedRho"] - 0.9103098356245941) < 1e-9
        assert abs(report["predictedRhoRatio"] - 0.9711341638626426) < 1e-9
