"""Normal forms, equality oracles and group-law properties for the word
families in amenlab.groups."""

import pytest
from hypothesis import given, strategies as st

from amenlab.errors import CapExceeded, ValidationError
from amenlab.groups import MarkedGroup, _free_reduce, tokenize


def letters(rank):
    return st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))


def words(rank, max_len=12):
    return st.lists(letters(rank), max_size=max_len).map(tuple)


class TestFree:
    group = MarkedGroup.from_spec("free:2")

    def test_reduction(self):
        w = self.group.parse("a a^-1 b a b^-1 b")
        assert self.group.show(w) == "b a"

    def test_parse_show_round_trip(self):
        for text in ("1", "a", "a^-3 b^2 a"):
            w = self.group.parse(text)
            assert self.group.parse(self.group.show(w)) == w

    @given(words(2))
    def test_normal_form_idempotent(self, w):
        nf = self.group.normal_form(w)
        assert self.group.normal_form(nf) == nf

    @given(words(2))
    def test_inverse_law(self, w):
        assert self.group.compose(w, self.group.invert(w)) == ()

    @given(words(2, 6), words(2, 6), words(2, 6))
    def test_associativity(self, u, v, w):
        left = self.group.compose(self.group.compose(u, v), w)
        right = self.group.compose(u, self.group.compose(v, w))
        assert left == right

    @given(words(2), words(2))
    def test_length_subadditive(self, u, v):
        assert self.group.length(self.group.compose(u, v)) \
            <= self.group.length(u) + self.group.length(v)


class TestAbelian:
    group = MarkedGroup.from_spec("z:2")

    @given(words(2, 8), words(2, 8))
    def test_commutative(self, u, v):
        assert self.group.equals(self.group.compose(u, v),
                                 self.group.compose(v, u))

    def test_key_counts_exponents(self):
        w = self.group.parse("x^3 y^-1 x^-1")
        assert self.group.show(w) == "x^2 y^-1"

    def test_power(self):
        x = self.group.parse("x")
        assert self.group.show(self.group.power(x, -5)) == "x^-5"


def _lamps_and_position(word):
    """The lit lamps and the position of a word of the lamplighter group,
    evaluated left to right: a toggles the lamp at the position, t moves."""
    lamps, pos = set(), 0
    for gen, sign in word:
        if gen == 0:
            lamps ^= {pos}
        else:
            pos += sign
    return lamps, pos


class TestLamplighter:
    group = MarkedGroup.from_spec("lamplighter")

    def test_generator_orders(self):
        a = self.group.parse("a")
        assert self.group.equals(self.group.compose(a, a), ())
        t = self.group.parse("t")
        assert not self.group.equals(self.group.power(t, 5), ())

    def test_element_evaluation(self):
        w = self.group.parse("t^2 a t^-1 a t^-2")
        assert _lamps_and_position(w) == ({1, 2}, -1)
        assert self.group.show(w) == "t a t a t^-3"

    @given(words(2, 10))
    def test_normal_form_matches_element(self, w):
        nf = self.group.normal_form(w)
        assert _lamps_and_position(nf) == _lamps_and_position(w)

    def test_disjoint_lamp_toggles_commute(self):
        a = self.group.parse("a")
        far = self.group.conjugate(a, self.group.parse("t^3"))
        assert self.group.equals(self.group.commutator(a, far), ())


class TestDihedral:
    group = MarkedGroup.from_spec("dihedral")

    def test_involutions(self):
        for name in "xy":
            g = self.group.parse(name)
            assert self.group.equals(self.group.compose(g, g), ())

    def test_rotation_is_torsion_free(self):
        xy = self.group.parse("x y")
        for k in range(1, 10):
            assert not self.group.equals(self.group.power(xy, k), ())


class TestFiniteCyclic:
    def test_orders(self):
        group = MarkedGroup.from_spec("zmod:5")
        x = group.parse("x")
        assert group.equals(group.power(x, 5), ())
        assert not group.equals(group.power(x, 3), ())

    def test_product_moduli(self):
        group = MarkedGroup.from_spec("zmod:2,3")
        assert group.involutions == (True, False)
        w = group.parse("x^3 y^4")
        assert group.show(w) == "x y"


def test_free_reduce_never_leaves_cancellation():
    assert _free_reduce(((0, 1), (0, -1), (1, 1), (1, -1), (0, 1))) == ((0, 1),)


def test_free_reduce_cancels_repeated_involution_letters():
    word = ((0, 1), (0, 1), (1, 1), (0, 1), (0, 1), (1, 1))
    assert _free_reduce(word, (0, 1)) == ()
    assert _free_reduce(word, (0,)) == ((1, 1), (1, 1))
    assert _free_reduce(word) == word


def _dihedral_affine(word):
    """The word as the map n -> s n + t of Z, x: n -> -n, y: n -> 1 - n."""
    s, t = 1, 0
    for gen, _sign in word:
        s, t = -s, gen - t
    return s, t


@given(words(2, max_len=16))
def test_dihedral_normal_form_is_the_alternating_reduced_word(word):
    reduced = MarkedGroup.from_spec("dihedral").normal_form(word)
    assert all(sign == 1 for _gen, sign in reduced)
    assert all(a != b for a, b in zip(reduced, reduced[1:]))
    assert _dihedral_affine(reduced) == _dihedral_affine(word)


def test_tokenize():
    assert tokenize("a b^-2 1 a^0", ("a", "b")) == ((0, 1), (1, -1), (1, -1))
    for text in ("c", "a^x", "a^1.5", "b^--1"):
        with pytest.raises(ValidationError):
            tokenize(text, ("a", "b"))


def test_tokenize_caps_the_expanded_length(monkeypatch):
    monkeypatch.setenv("AMENLAB_CAP_MB", "1")  # a 5,000-letter budget
    assert len(tokenize("a^4999 b^-1", ("a", "b"))) == 5000
    for text, partial in (("a^4999 b^2", 4999), ("a^-5001", 0),
                          ("a b^100000000000", 1)):
        with pytest.raises(CapExceeded) as info:
            tokenize(text, ("a", "b"))
        assert info.value.partial == partial


def test_bad_specs_rejected():
    for spec in ("free:0", "z:x", "zmod:", "nonsense", "coset:f2"):
        with pytest.raises(ValidationError):
            MarkedGroup.from_spec(spec)
