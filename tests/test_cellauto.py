"""Local rules, window stepping, Garden-of-Eden and erasable-pattern
searches, linear rules over finite fields, and the overlaps set family."""

import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from amenlab.cellauto import (CellPattern, InvolutionProductSpace, LocalRule,
                              OverlapsFamily, ZdSpace, and_rule_z, ca_step,
                              entropy_estimate, goe_search, life_rule,
                              linca_adjoint, linca_kernel_basis, linca_rule,
                              mep_search, muller_matrix, pairing,
                              pattern_from_alive, right_multiply, xor_rule_z,
                              GroupRingMatrix, _row_reduce_mod_p)
from amenlab.errors import CapExceeded, ValidationError


def life_reference(centre, neighbours_alive):
    """Independent statement of the rule: birth on 3, survival on 2 or 3."""
    if centre == 0 and neighbours_alive == 3:
        return 1
    if centre == 1 and neighbours_alive in (2, 3):
        return 1
    return 0


class TestLife:
    rule = life_rule()

    def test_full_truth_table(self):
        centre_index = self.rule.memory.index((0, 0))
        for values in product((0, 1), repeat=9):
            alive = sum(values) - values[centre_index]
            assert self.rule.evaluate(values) == \
                life_reference(values[centre_index], alive)

    def test_block_is_still(self):
        window = sorted(product(range(4), repeat=2))
        block = {(1, 1), (1, 2), (2, 1), (2, 2)}
        before = pattern_from_alive(self.rule.space, window, block)
        after = ca_step(self.rule, before.padded(self.rule))
        assert {s for s in window if after[s] == 1} == block

    def test_blinker_oscillates(self):
        window = sorted(product(range(5), repeat=2))
        horizontal = {(1, 2), (2, 2), (3, 2)}
        vertical = {(2, 1), (2, 2), (2, 3)}
        before = pattern_from_alive(self.rule.space, window, horizontal)
        after = ca_step(self.rule, before.padded(self.rule))
        assert {s for s in window if after[s] == 1} == vertical


class TestStepping:
    def test_interior_only(self):
        rule = xor_rule_z()
        pattern = CellPattern(rule.space, {(0,): 1, (1,): 0, (2,): 1})
        stepped = ca_step(rule, pattern)
        # site (2,) reads (3,), which is outside the window
        assert set(stepped.values) == {(0,), (1,)}
        assert stepped[(0,)] == 1 and stepped[(1,)] == 1

    def test_empty_interior_rejected(self):
        rule = life_rule()
        with pytest.raises(ValidationError):
            ca_step(rule, CellPattern(rule.space, {(0, 0): 1}))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    max_size=6),
           st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    def test_equivariance(self, alive, shift):
        rule = life_rule()
        window = sorted(product(range(4), repeat=2))
        pattern = pattern_from_alive(rule.space, window, set(alive))
        direct = ca_step(rule, pattern.padded(rule)).translate(shift)
        shifted = ca_step(rule, pattern.translate(shift).padded(rule))
        assert direct == shifted


class TestExhaustiveSearches:
    def test_and_rule_first_unreachable_window(self):
        rule = and_rule_z()
        found = goe_search(rule, [(0,), (1,), (2,)])
        assert found is not None
        assert [found[(k,)] for k in range(3)] == [1, 0, 1]

    def test_xor_rule_is_surjective_on_small_windows(self):
        rule = xor_rule_z()
        assert goe_search(rule, [(k,) for k in range(4)]) is None

    def test_lone_cell_is_erasable_under_life(self):
        found = mep_search(life_rule(), 0)
        assert found is not None
        pattern, earlier = found
        assert pattern.support(0) == frozenset({(0, 0)})
        assert earlier.support(0) == frozenset()

    def test_xor_rule_has_no_erasable_pair_at_radius_one(self):
        assert mep_search(xor_rule_z(), 1) is None

    def test_budget_guard(self):
        with pytest.raises(CapExceeded):
            goe_search(life_rule(), sorted(product(range(5), repeat=2)),
                       budget=1000)


class TestLinearRules:
    def test_adjoint_is_an_involution(self):
        matrix = muller_matrix()
        assert linca_adjoint(linca_adjoint(matrix)) == matrix

    def test_adjoint_duality(self):
        # <eM, f> == <e, fM*> for all unit configurations e, f on B(2),
        # hence, by bilinearity, for all x, y supported in B(2)
        matrix = muller_matrix()
        adjoint = linca_adjoint(matrix)
        units = [{g: tuple(int(j == i) for j in range(matrix.n))}
                 for g in matrix.space.ball(2) for i in range(matrix.n)]
        for e in units:
            image = right_multiply(matrix, e)
            for f in units:
                assert pairing(image, f, matrix.p) == \
                    pairing(e, right_multiply(adjoint, f), matrix.p)

    def test_field_order_must_be_prime(self):
        # over Z/4, x = 2 delta_0 is a kernel vector of 2 + 2t that
        # linca_kernel_basis would not see, so composite orders are refused
        space = ZdSpace(1)
        for p in (2, 3, 5):
            assert GroupRingMatrix(space, 1, p, [[{(0,): 2, (1,): 2}]]).p == p
        for p in (4, 6, 9):
            with pytest.raises(ValidationError):
                GroupRingMatrix(space, 1, p, [[{(0,): 2, (1,): 2}]])

    def test_muller_kernel_is_trivial(self):
        for radius in (1, 2, 3):
            assert linca_kernel_basis(muller_matrix(), radius) == []

    def test_muller_image_misses_the_second_coordinate(self):
        rule = linca_rule(muller_matrix())
        found = goe_search(rule, [""])
        assert found is not None and found[""] == (0, 1)

    def test_muller_rule_matches_the_matrix_action(self):
        matrix = muller_matrix()
        rule = linca_rule(matrix)
        config = {"": (1, 0), "ab": (1, 1)}
        image = right_multiply(matrix, config)
        sites = sorted(set(image) | set(config), key=str)
        for g in sites:
            values = tuple(config.get(matrix.space.mul(g, s), (0, 0))
                           for s in rule.memory)
            assert rule.evaluate(values) == image.get(g, (0, 0))

    def test_xor_kernel_is_trivial_on_z(self):
        space = ZdSpace(1)
        matrix = GroupRingMatrix(space, 1, 2, [[{(0,): 1, (1,): 1}]])
        assert linca_kernel_basis(matrix, 5) == []

    def test_zero_matrix_kernel_is_everything(self):
        space = ZdSpace(1)
        matrix = GroupRingMatrix(space, 1, 2, [[{}]])
        basis = linca_kernel_basis(matrix, 2)
        assert len(basis) == 5  # one basis vector per ball site

    def test_kernel_vectors_annihilate(self):
        # 1 + t + t^2 on the 3-cycle sums every configuration over the whole
        # group, so the even-weight configurations form a 2-dimensional kernel
        space = ZdSpace(1, (3,))
        matrix = GroupRingMatrix(space, 1, 2,
                                 [[{(0,): 1, (1,): 1, (2,): 1}]])
        basis = linca_kernel_basis(matrix, 1)
        assert len(basis) == 2
        for config in basis:
            assert right_multiply(matrix, config) == {}

    def test_row_reduce(self):
        rows, pivots = _row_reduce_mod_p([[2, 1, 0], [1, 1, 0]], 3)
        assert pivots == [0, 1]
        assert rows == [[1, 0, 0], [0, 1, 0]]
        # [[2,1],[1,2]] is singular mod 3: one pivot only
        _rows, pivots = _row_reduce_mod_p([[2, 1], [1, 2]], 3)
        assert pivots == [0]


class TestInvolutionSpace:
    space = InvolutionProductSpace("abc")

    def test_reduction(self):
        assert self.space.mul("ab", "ba") == ""
        assert self.space.mul("ab", "ca") == "abca"

    def test_inverse(self):
        for site in self.space.ball(3):
            assert self.space.mul(site, self.space.inverse(site)) == ""

    def test_negative_radius_rejected(self):
        for space in (self.space, ZdSpace(1), ZdSpace(2, (3, 3))):
            with pytest.raises(ValidationError):
                space.ball(-1)

    def test_ball_sizes(self):
        assert len(self.space.ball(0)) == 1
        assert len(self.space.ball(1)) == 4
        assert len(self.space.ball(2)) == 10


class TestEntropy:
    def test_xor_has_full_entropy(self):
        rule = xor_rule_z()
        values = entropy_estimate(rule, [[(k,) for k in range(4)]])
        assert abs(values[0] - math.log(2)) < 1e-12

    def test_and_loses_entropy(self):
        rule = and_rule_z()
        values = entropy_estimate(rule, [[(k,) for k in range(4)]])
        assert values[0] < math.log(2)


@pytest.mark.parametrize("make_rule", [and_rule_z, xor_rule_z])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_goe_and_entropy_read_one_image_set(make_rule, radius):
    """Both scans against the image set of every word on the interval the
    memory reaches, in the windows' str order."""
    rule = make_rule()
    window = sorted(rule.space.ball(radius), key=str)
    offsets = [step for (step,) in rule.memory]
    lo = -radius + min(offsets)
    images = {
        tuple(rule.evaluate(tuple(word[g + s - lo] for s in offsets))
              for (g,) in window)
        for word in product(rule.alphabet,
                            repeat=2 * radius + max(offsets) - min(offsets) + 1)
    }
    missing = [combo for combo in product(rule.alphabet, repeat=len(window))
               if combo not in images]
    found = goe_search(rule, window)
    if missing:
        assert tuple(found[g] for g in window) == missing[0]
    else:
        assert found is None
    assert entropy_estimate(rule, [window]) == [
        math.log(len(images)) / len(window)]


class TestOverlaps:
    def test_counts(self):
        for n in range(2, 6):
            family = OverlapsFamily(n)
            expected = sum(math.factorial(n) // i for i in range(1, n + 1))
            assert len(family.ground) == expected
            assert len(family.y) == expected + 1

    def test_restricted_counts(self):
        for n in (2, 3, 4):
            family = OverlapsFamily(n)
            indices = range(1, n + 1)
            from itertools import combinations
            for size in indices:
                for index_set in combinations(indices, size):
                    for i in index_set:
                        got = len(family.x_restricted(i, set(index_set)))
                        assert got * len(index_set) == math.factorial(n)

    def test_sentinel_keeps_the_union_proper(self):
        family = OverlapsFamily(3)
        union = frozenset().union(*family.subsets)
        assert union < family.y

    def test_index_validation(self):
        family = OverlapsFamily(3)
        with pytest.raises(ValidationError):
            family.x_restricted(1, {2, 3})
