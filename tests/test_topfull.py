"""The factor language of the golden-ratio substitution subshift and the
piecewise-shift toolkit built on it."""

import random
from itertools import product

import pytest

from amenlab.errors import CapExceeded, ValidationError
from amenlab.topfull import (FullGroupElement, fib_language, identity_element,
                             search_nontrivial, shift_element, tf_compose,
                             tf_invert_check, _fib_prefix)


class TestLanguage:
    def test_factor_complexity(self):
        language = fib_language(10)
        for n in range(1, 11):
            assert len(language.words(n)) == n + 1

    def test_small_factors(self):
        language = fib_language(3)
        assert language.words(1) == ["0", "1"]
        assert language.words(2) == ["00", "01", "10"]
        assert language.words(3) == ["001", "010", "100", "101"]

    def test_square_of_ones_is_forbidden(self):
        language = fib_language(6)
        assert not language.admissible("11")
        assert not language.admissible("000")

    def test_against_a_long_prefix(self):
        # second route: sliding a window over a long explicit prefix must
        # produce exactly the stored factor sets
        language = fib_language(12)
        prefix = _fib_prefix(5000)
        for n in (1, 4, 8, 12):
            found = {prefix[i:i + n] for i in range(len(prefix) - n)}
            assert found == set(language.words(n))

    def test_word_length_guard(self):
        language = fib_language(4)
        with pytest.raises(ValidationError):
            language.admissible("0" * 5)


class TestElements:
    def test_partition_accepts_a_prefix_free_cover(self):
        element = FullGroupElement([(0, "00", 0), (0, "01", 1), (0, "10", -1)])
        assert not element.is_identity()

    def test_partition_rejects_overlap(self):
        with pytest.raises(ValidationError):
            FullGroupElement([(0, "0", 0), (0, "00", 1), (0, "1", 0)])

    def test_partition_rejects_gaps(self):
        with pytest.raises(ValidationError):
            FullGroupElement([(0, "00", 0), (0, "01", 1)])

    def test_inadmissible_cylinder_rejected(self):
        with pytest.raises(ValidationError):
            FullGroupElement([(0, "11", 0)])

    def test_shift_cap(self):
        with pytest.raises(ValidationError):
            FullGroupElement([(0, "", 9)])

    def test_apply_moves_the_origin(self):
        assert shift_element(1).shift_for("01001", 2) == 1

    def test_apply_needs_a_resolving_window(self):
        element = FullGroupElement([(0, "00", 0), (0, "01", 1), (0, "10", -1)])
        with pytest.raises(ValidationError):
            element.shift_for("0", 0)

    def test_json_round_trip(self):
        element = FullGroupElement([(0, "00", 0), (0, "01", 1), (0, "10", -1)])
        assert '"cylinders"' in element.to_json()


def _bijective_tables():
    """The 31 bijective elements whose cylinders are the admissible words of
    one length 1..3 at the origin, with shifts in -2..2."""
    out = []
    for length in (1, 2, 3):
        words = fib_language(length).words(length)
        for shifts in product(range(-2, 3), repeat=len(words)):
            element = FullGroupElement(list(zip([0] * len(words), words,
                                                shifts)))
            if tf_invert_check(element)[1]:
                out.append(element)
    assert len(out) == 31
    return out


class TestComposition:
    def test_shifts_add(self):
        assert tf_compose(shift_element(1), shift_element(1)) \
            == shift_element(2)

    def test_inverse_of_the_shift(self):
        composed = tf_compose(shift_element(1), shift_element(-1))
        assert composed.is_identity()

    def test_invert_check_produces_a_certificate(self):
        element = FullGroupElement([(0, "00", 0), (0, "01", 1), (0, "10", -1)])
        inverse, ok = tf_invert_check(element)
        assert ok
        round_trip = tf_compose(element, inverse)
        assert round_trip.is_identity()

    def test_compose_check(self):
        # the inverse that tf_invert_check certifies for each composite
        # undoes it, as a table and pointwise; a point is seen through 24
        # letters with the origin at index 12, enough to resolve every
        # cylinder of these composites and of their inverses, so shift_for
        # never raises
        elements = _bijective_tables()
        language = fib_language(24)
        origin = 12
        for first, second in product(elements, repeat=2):
            composed = tf_compose(first, second)
            inverse, ok = tf_invert_check(composed)
            assert ok
            assert tf_compose(composed, inverse).is_identity()
            for window in language.words(24):
                moved = origin + first.shift_for(window, origin)
                moved += second.shift_for(window, moved)
                assert origin + composed.shift_for(window, origin) == moved
                assert moved + inverse.shift_for(window, moved) == origin

    def test_associativity_on_samples(self):
        pieces = FullGroupElement([(0, "00", 0), (0, "01", 1), (0, "10", -1)])
        elements = [shift_element(1), shift_element(-1), pieces,
                    identity_element()]
        rng = random.Random(4)
        for _ in range(12):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert tf_compose(tf_compose(a, b), c) \
                == tf_compose(a, tf_compose(b, c))

    def test_application_matches_composition(self):
        pieces = FullGroupElement([(0, "00", 0), (0, "01", 1), (0, "10", -1)])
        composed = tf_compose(pieces, shift_element(1))
        language = fib_language(9)
        for window in language.words(9):
            origin = 4
            mid = origin + pieces.shift_for(window, origin)
            direct = origin + composed.shift_for(window, origin)
            assert direct == mid + shift_element(1).shift_for(window, mid)


class TestSearch:
    def test_finds_a_piecewise_element(self):
        element = search_nontrivial(3)
        assert element is not None
        shifts = {s for _l, _w, s in element.rows}
        assert len(shifts) > 1  # genuinely piecewise, not a global shift
        _inverse, ok = tf_invert_check(element)
        assert ok

    def test_depth_one_has_no_piecewise_element(self):
        # with only the cylinders [0] and [1] no non-constant shift table is
        # bijective, so the search must come back empty
        assert search_nontrivial(1) is None
