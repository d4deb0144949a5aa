"""Wreath recursion, exact equality, the eta norm and the sigma substitution
for the self-similar tree automorphism groups."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from amenlab import selfsim
from amenlab.errors import CapExceeded, ValidationError
from amenlab.selfsim import (ETA, TreeAutomorphism, act_on_word, basilica,
                             element_order, equals_selfsim, eta_norm,
                             grig_reduce, grigorchuk, is_identity,
                             level_permutation, portrait, sigma_apply,
                             signature, translation_table, wreath_decompose,
                             _LETTER_NORMS)


def syllable_words(max_len):
    """Reduced syllable words: no aa, no two adjacent letters from {b,c,d}."""
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for ch in "abcd":
                if w and (w[-1] == ch or (w[-1] != "a" and ch != "a")):
                    continue
                new.append(w + ch)
        out.extend(new)
        frontier = new
    return out


class TestReduction:
    def test_cancellation_and_fusion(self):
        assert grig_reduce("aa") == ""
        assert grig_reduce("bc") == "d"
        assert grig_reduce("bcd") == ""
        assert grig_reduce("abbd") == "ad"

    def test_rejects_bad_letters(self):
        with pytest.raises(ValidationError):
            grig_reduce("abe")


class TestWreathRecursion:
    def test_generator_sections(self):
        table = {
            "a": ("1", "1", "swap"),
            "b": ("a", "c", "id"),
            "c": ("a", "d", "id"),
            "d": ("1", "b", "id"),
        }
        for letter, (s0, s1, perm) in table.items():
            d = wreath_decompose(grigorchuk(letter))
            assert (d.sections[0].show(), d.sections[1].show(),
                    d.root_perm) == (s0, s1, perm)

    def test_action_is_a_right_action(self):
        g = grigorchuk("abad")
        h = grigorchuk("cad")
        for depth in range(1, 9):
            for x in (format(i, f"0{depth}b") for i in range(1 << depth)):
                assert act_on_word(g * h, x) == act_on_word(h, act_on_word(g, x))

    def test_action_agrees_with_recursion(self):
        # the recursive decomposition and the direct first-letter rule agree
        g = grigorchuk("badacab")
        d = wreath_decompose(g)
        for x in (format(i, "08b") for i in range(256)):
            first = int(x[0]) ^ d.swap
            expected = str(first) + act_on_word(d.sections[int(x[0])], x[1:])
            assert act_on_word(g, x) == expected


class TestRelations:
    def test_generator_involutions(self):
        for letter in "abcd":
            g = grigorchuk(letter)
            assert is_identity(g * g).equal
            assert not is_identity(g).equal

    def test_bcd_is_trivial(self):
        assert is_identity(grigorchuk("bcd")).equal

    def test_ad_has_order_four(self):
        assert element_order(grigorchuk("ad"), 16) == 4

    def test_torsion_in_small_ball(self):
        for word in ("ab", "ac", "abad", "bada"):
            order = element_order(grigorchuk(word), 16)
            assert order is not None and order & (order - 1) == 0


class TestEtaNorm:
    def test_letter_values(self):
        assert abs(ETA ** 3 + ETA ** 2 + ETA - 2.0) < 1e-12
        assert abs(eta_norm(grigorchuk("b")) - ETA ** 3) < 1e-12
        assert abs(eta_norm(grigorchuk("d")) - (1.0 - ETA)) < 1e-12

    def test_fusion_never_increases_the_norm(self):
        for x, y in (("b", "c"), ("b", "d"), ("c", "d")):
            fused = grig_reduce(x + y)
            assert _LETTER_NORMS[fused] <= \
                _LETTER_NORMS[x] + _LETTER_NORMS[y] + 1e-12

    def test_section_contraction(self):
        """Both sections together shrink the norm by the factor eta, up to
        the additive norm of a, on every reduced syllable word."""
        bound_slack = 1e-9
        for w in syllable_words(8):
            g = grigorchuk(w)
            if g.word != w:
                continue
            d = wreath_decompose(g)
            lhs = eta_norm(d.sections[0]) + eta_norm(d.sections[1])
            rhs = ETA * (eta_norm(g) + _LETTER_NORMS["a"])
            assert lhs <= rhs + bound_slack, w


class TestSigma:
    def test_letter_images(self):
        assert sigma_apply(grigorchuk("a")).show() == "aca"
        assert sigma_apply(grigorchuk("b")).show() == "d"
        assert sigma_apply(grigorchuk("c")).show() == "b"
        assert sigma_apply(grigorchuk("d")).show() == "c"

    def test_sigma_kills_relators(self):
        for relator in ("aa", "bb", "cc", "dd", "bcd", "adadadad"):
            assert is_identity(sigma_apply(grigorchuk(relator))).equal

    def test_sigma_image_sections(self):
        # the first-level section of sigma(g) at vertex 1 recovers g
        for word in ("a", "b", "ab", "abad"):
            image = sigma_apply(grigorchuk(word))
            d = wreath_decompose(image)
            assert equals_selfsim(d.sections[1], grigorchuk(word)).equal


class TestBasilica:
    def test_generator_recursion(self):
        da = wreath_decompose(basilica("a"))
        assert (da.sections[0].show(), da.sections[1].show(),
                da.root_perm) == ("1", "b", "swap")
        db = wreath_decompose(basilica("b"))
        assert (db.sections[0].show(), db.sections[1].show(),
                db.root_perm) == ("1", "a", "id")

    def test_equality_is_exact(self):
        verdict = equals_selfsim(basilica("a b"), basilica("a b"))
        assert verdict.equal and not verdict.approximate
        assert verdict.depth is None
        verdict = equals_selfsim(basilica("a b"), basilica("b a"))
        assert not verdict.equal and not verdict.approximate

    def test_torsion_free_sample(self):
        assert element_order(basilica("a"), 20) is None
        assert element_order(basilica("a b^-1"), 20) is None

    def test_inverse(self):
        g = basilica("a b^-1 a")
        assert is_identity(g * g.inverse()).equal

    def test_bad_words_rejected(self):
        for text in ("a^x", "c", "a^1.5"):
            with pytest.raises(ValidationError):
                basilica(text)


def test_signature_and_portrait_shapes():
    g = grigorchuk("ab")
    assert len(signature(g, 4)) == 16
    tree = portrait(g, 2)
    assert tree["rootPerm"] == "swap"
    assert len(tree["children"]) == 2


def test_cross_family_operations_rejected():
    with pytest.raises(ValidationError):
        grigorchuk("a") * basilica("a")
    with pytest.raises(ValidationError):
        eta_norm(basilica("a"))
    with pytest.raises(ValidationError):
        sigma_apply(basilica("a"))


def test_signature_at_depth_zero_and_bad_depth():
    assert signature(grigorchuk("abc"), 0) == ("",)
    assert signature(basilica("a b"), 0) == ("",)
    with pytest.raises(ValidationError):
        level_permutation(grigorchuk("a"), -1)
    with pytest.raises(CapExceeded):  # 2^30 leaves, refused up front
        level_permutation(basilica("a"), 30)


def test_act_on_word_validates_the_whole_vertex():
    with pytest.raises(ValidationError):
        act_on_word(grigorchuk(""), "0102")
    assert act_on_word(grigorchuk(""), "0110") == "0110"


# -- level permutations against the per-leaf action --------------------------

_GRIG_WORDS = st.text(alphabet="abcd", max_size=16).map(grigorchuk)
_BASILICA_WORDS = st.lists(
    st.sampled_from(["a", "b", "a^-1", "b^-1"]), max_size=16,
).map(lambda tokens: basilica(" ".join(tokens) or "1"))
_PAIRS = st.one_of(st.tuples(_GRIG_WORDS, _GRIG_WORDS),
                   st.tuples(_BASILICA_WORDS, _BASILICA_WORDS))


def _leaves(depth):
    return [format(i, f"0{depth}b") if depth else "" for i in range(1 << depth)]


@settings(max_examples=150, deadline=None)
@given(_PAIRS, st.integers(0, 10))
def test_level_permutation_matches_the_leaf_action(pair, depth):
    g, h = pair
    perm = level_permutation(g, depth)
    # bytes up to level 8 (256 leaves), an array of leaf indices past it
    assert isinstance(perm, bytes if depth <= 8 else array)
    leaves = _leaves(depth)
    assert [leaves[i] for i in perm] == [act_on_word(g, x) for x in leaves]
    # right action: x (g h) = (x g) h
    after = level_permutation(h, depth)
    assert list(level_permutation(g * h, depth)) == [after[i] for i in perm]


@pytest.mark.parametrize("depth", range(11))
def test_level_permutation_of_every_letter_at_every_depth(depth):
    # levels 0..8 give bytes, 9 and 10 an array: both sides of the boundary
    leaves = _leaves(depth)
    elements = [grigorchuk(ch) for ch in "abcd"] + \
        [basilica(t) for t in ("a", "b", "a^-1", "b^-1", "a b^-1 a b")]
    for g in elements:
        perm = level_permutation(g, depth)
        assert isinstance(perm, bytes if depth <= 8 else array)
        assert [leaves[i] for i in perm] == \
            [act_on_word(g, x) for x in leaves]


@settings(max_examples=100, deadline=None)
@given(_PAIRS, st.integers(0, 8))
def test_translation_table_acts_on_the_right(pair, depth):
    g, h = pair
    table = translation_table(h, depth)
    assert len(table) == 256
    assert level_permutation(g, depth).translate(table) == \
        level_permutation(g * h, depth)


def test_translation_tables_stop_at_level_8():
    with pytest.raises(ValidationError):
        translation_table(grigorchuk("a"), 9)


def test_level_permutations_are_read_only():
    perm = level_permutation(grigorchuk("b"), 3)
    with pytest.raises(TypeError):
        perm[0] = 1


# -- the equality memo ------------------------------------------------------

def _memo_words(count):
    """Random words, every third one a conjugate of a relator (trivial)."""
    rng = random.Random(5)
    relators = [grigorchuk("adadadad")]
    for _ in range(2):
        relators.append(sigma_apply(relators[-1]))
    words = []
    for i in range(count):
        u = grigorchuk("".join(rng.choice("abcd")
                               for _ in range(rng.randrange(1, 20))))
        words.append(u * rng.choice(relators) * u.inverse() if i % 3 == 0
                     else u)
    return words


def test_identity_memo_evicts_instead_of_raising(monkeypatch):
    words = _memo_words(300)
    monkeypatch.setattr(selfsim, "_identity_memo", selfsim._IdentityMemo())
    unbounded = [is_identity(g).equal for g in words]
    assert any(unbounded) and not all(unbounded)
    monkeypatch.setattr(selfsim, "_MEMO_CAP", 7)
    monkeypatch.setattr(selfsim, "_identity_memo", selfsim._IdentityMemo())
    bounded = [is_identity(g).equal for g in words]
    assert bounded == unbounded
    assert len(selfsim._identity_memo.table) <= 7


# -- the section-graph oracle against the level-16 action --------------------

def test_every_section_has_at_most_one_letter():
    """The termination bound of the oracle: no section of a word is longer
    than the word."""
    for table in selfsim._TABLES.values():
        for s0, s1, _ in table.values():
            assert len(s0) <= 1 and len(s1) <= 1


def _with_sigma_images(words):
    out = []
    for word in words:
        g = grigorchuk(word)
        out += [g, sigma_apply(g), sigma_apply(sigma_apply(g))]
    return out


_RELATORS = {
    "grigorchuk": _with_sigma_images(["bcd", "adadadad"]),
    # [b, a b a^-1]: b commutes with its conjugate by a
    "basilica": [basilica("b a b a^-1 b^-1 a b^-1 a^-1")],
}


def _conjugated(words, family):
    """A word, or the conjugate of a relator by that word (trivial)."""
    return st.one_of(words, st.tuples(words, st.sampled_from(
        _RELATORS[family])).map(lambda p: p[0] * p[1] * p[0].inverse()))


_ORACLE_WORDS = st.one_of(_conjugated(_GRIG_WORDS, "grigorchuk"),
                          _conjugated(_BASILICA_WORDS, "basilica"))


@settings(max_examples=200, deadline=None)
@given(_ORACLE_WORDS)
def test_is_identity_agrees_with_the_level_16_action(g):
    verdict = is_identity(g)
    perm = level_permutation(g, 16)
    assert verdict.equal == (list(perm) == list(range(len(perm))))
    assert not verdict.approximate and verdict.depth is None


def test_relators_are_trivial():
    for family, relators in _RELATORS.items():
        for r in relators:
            assert is_identity(r).equal, (family, r)
