"""The references against brute force and known values, without amenlab."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import reference as ref


def _is_identity_at(word, level):
    perms = ref.level_perms(ref.GRIGORCHUK_RECURSION, level)
    return np.array_equal(ref.word_perm(perms, word, 1 << level),
                          np.arange(1 << level))


class TestLevelPermutations:
    @pytest.mark.parametrize("recursion", [ref.GRIGORCHUK_RECURSION,
                                           ref.BASILICA_RECURSION])
    def test_letters_permute_the_leaves(self, recursion):
        for perm in ref.level_perms(recursion, 7).values():
            assert sorted(perm.tolist()) == list(range(1 << 7))

    def test_levels_project_onto_each_other(self):
        deep = ref.level_perms(ref.BASILICA_RECURSION, 8)
        shallow = ref.level_perms(ref.BASILICA_RECURSION, 5)
        for letter in "aAbB":
            assert np.array_equal(deep[letter] >> 3, shallow[letter][np.arange(256) >> 3])

    def test_basilica_inverses(self):
        perms = ref.level_perms(ref.BASILICA_RECURSION, 9)
        for letter, inverse in ref.BASILICA_INVERSE.items():
            assert np.array_equal(perms[inverse][perms[letter]], np.arange(512))

    @pytest.mark.parametrize("word", ["aa", "bb", "cc", "dd", "bcd",
                                      "ad" * 4, "ac" * 8, "ab" * 16])
    def test_relations_of_the_abcd_group(self, word):
        assert _is_identity_at(word, 10)

    @pytest.mark.parametrize("word", ["a", "b", "c", "d", "ad", "adad",
                                      "ac" * 4, "ab" * 8])
    def test_nontrivial_elements(self, word):
        assert not _is_identity_at(word, 10)

    def test_faithful_level_agrees_with_a_deep_level(self):
        for length in range(1, 7):
            for letters in itertools.product("abcd", repeat=length):
                word = "".join(letters)
                assert ref.grigorchuk_is_identity(word) == \
                    _is_identity_at(word, 12)

    def test_sigma_maps_relators_to_relators(self):
        for relator in ("bcd", "ad" * 4, "ac" * 8, "ab" * 16):
            assert ref.grigorchuk_is_identity(ref.sigma_word(relator))


class TestBalls:
    def test_abcd_growth_is_the_known_sequence(self):
        known = [1, 5, 11, 23, 40, 68, 108, 176, 271]
        assert ref.cayley_ball_sizes("grigorchuk", 8, 10) == known
        assert ref.cayley_ball_sizes("grigorchuk", 8, 11) == known

    def test_basilica_growth_is_stable_in_the_level(self):
        assert ref.cayley_ball_sizes("basilica", 3, 13) == \
            ref.cayley_ball_sizes("basilica", 3, 16)

    @pytest.mark.parametrize("family", ["grigorchuk", "basilica"])
    def test_orbits_cover_the_level(self, family):
        depths = ref.orbit_ball_depths(family, 5, 100)
        assert sorted(depths) == [format(i, "05b") for i in range(32)]
        assert depths["00000"] == 0

    def test_free_ball_sizes(self):
        for rank in (1, 2, 3):
            letters = [(g, s) for g in range(rank) for s in (1, -1)]
            words = [()]
            for radius in range(5):
                assert len(words) == ref.free_ball_size(rank, radius)
                words = words + [w + (l,) for w in words
                                 if len(w) == radius for l in letters
                                 if not w or w[-1] != (l[0], -l[1])]


def _coset_graph(radius):
    """The coset graph from its description: the b-ray with a-loops and a
    3-ary tree hanging below H; vertices ("r", k) and tree words over
    a, A, b, B starting with B."""
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}

    def step(v, letter):
        if v[0] == "r":
            k = v[1]
            if letter in "aA":
                return v
            if letter == "b":
                return ("r", k + 1)
            return ("r", k - 1) if k else ("t", "B")
        word = v[1]
        if inverse[letter] == word[-1]:
            return ("t", word[:-1]) if len(word) > 1 else ("r", 0)
        return ("t", word + letter)

    depths = {("r", 0): 0}
    frontier = [("r", 0)]
    for d in range(1, radius + 1):
        new = []
        for v in frontier:
            for letter in "aAbB":
                w = step(v, letter)
                if w not in depths:
                    depths[w] = d
                    new.append(w)
        frontier = new
    edges = sum(step(v, l) in depths for v in depths for l in "aAbB")
    return depths, edges, step


class TestClosedForms:
    @pytest.mark.parametrize("radius", range(0, 7))
    def test_coset_ball(self, radius):
        depths, edges, _step = _coset_graph(radius)
        assert len(depths) == ref.coset_ball_size(radius)
        spheres = [sum(1 for d in depths.values() if d == k)
                   for k in range(radius + 1)]
        assert spheres == ref.coset_sphere_sizes(radius)
        assert edges == ref.coset_edge_count(radius)

    def test_coset_walks(self):
        _depths, _edges, step = _coset_graph(0)
        for m in range(7):
            closed = sum(1 for word in itertools.product("aAbB", repeat=m)
                         if _walk(step, ("r", 0), word) == ("r", 0))
            assert ref.coset_return_counts(6)[m] == closed

    def test_binomial_returns(self):
        for m in range(9):
            line = sum(1 for s in itertools.product((1, -1), repeat=m)
                       if sum(s) == 0)
            plane = sum(1 for s in itertools.product(range(4), repeat=m)
                        if _plane_end(s) == (0, 0))
            assert ref.binomial_return_z(1, 8)[m] == Fraction(line, 2 ** m)
            assert ref.binomial_return_z(2, 8)[m] == Fraction(plane, 4 ** m)

    def test_tree_returns(self):
        for m in range(8):
            closed = sum(1 for w in itertools.product(range(4), repeat=m)
                         if _free_reduce(w) == ())
            assert ref.tree_return_counts(4, 7)[m] == closed

    def test_truncated_rho_on_explicit_balls(self):
        for radius in range(1, 5):
            path = np.diag(np.full(2 * radius, 0.5), 1)
            value = np.linalg.eigvalsh(path + path.T)[-1]
            assert math.isclose(value, ref.truncated_rho_line(radius),
                                abs_tol=1e-12)
            assert math.isclose(_tree_ball_rho(radius),
                                ref.truncated_rho_tree(2, radius),
                                abs_tol=1e-12)

    def test_lamplighter_returns(self):
        counts = ref.lamplighter_return_counts(8)
        for m in range(9):
            words = itertools.product([(0, 1), (1, 1), (1, -1)], repeat=m)
            closed = sum(1 for w in words
                         if ref.eval_lamplighter(w) == (frozenset(), 0))
            assert counts[m] == closed

    def test_lamplighter_normal_word(self):
        letters = [(0, 1), (1, 1), (1, -1)]
        words = {}
        for m in range(7):
            for w in itertools.product(letters, repeat=m):
                element = ref.eval_lamplighter(w)
                normal = ref.lamplighter_normal_word(element)
                assert ref.eval_lamplighter(normal) == element
                words.setdefault(element, normal)
        assert ref.lamplighter_normal_word((frozenset({-2, 1}), -1)) == [
            (1, -1), (1, -1), (0, 1), (1, 1), (1, 1), (1, 1), (0, 1),
            (1, -1), (1, -1)]
        assert len(set(map(tuple, words.values()))) == len(words)

    def test_reduced_closed_counts(self):
        letters = [(0, 1), (0, -1), (1, 1), (1, -1)]
        z2 = ref.reduced_closed_counts_z2(7)
        lamp = ref.reduced_closed_counts_lamplighter(7)
        for m in range(8):
            reduced = [w for w in itertools.product(letters, repeat=m)
                       if ref.is_reduced_free(w)]
            assert z2[m] == sum(1 for w in reduced
                                if ref.eval_abelian(w, 2) == (0, 0))
            assert lamp[m] == sum(1 for w in reduced
                                  if ref.eval_lamplighter(w) == (frozenset(), 0))

    def test_lattice_fol(self):
        for n in (1, 2, 3):
            assert ref.lattice_fol(1, n + 2, n) == 2 * n + 1
        assert ref.lattice_fol(2, 3, 1) == 7


def _walk(step, v, word):
    for letter in word:
        v = step(v, letter)
    return v


def _plane_end(steps):
    moves = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return (sum(moves[s][0] for s in steps), sum(moves[s][1] for s in steps))


def _free_reduce(word):
    inverse = {0: 1, 1: 0, 2: 3, 3: 2}
    stack = []
    for letter in word:
        if stack and stack[-1] == inverse[letter]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _tree_ball_rho(radius):
    vertices = [()]
    for r in range(radius):
        vertices += [v + (l,) for v in vertices if len(v) == r
                     for l in range(4) if not v or v[-1] != {0: 1, 1: 0, 2: 3, 3: 2}[l]]
    index = {v: i for i, v in enumerate(vertices)}
    matrix = np.zeros((len(vertices), len(vertices)))
    for v, i in index.items():
        for l in range(4):
            w = _free_reduce(v + (l,))
            if w in index:
                matrix[i, index[w]] = 0.25
    return float(np.linalg.eigvalsh(matrix)[-1])


class TestHall:
    def test_condition_against_brute_force(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 1 << 4, size=(300, 3))
        fast = ref.hall_condition(rows, 3, 4)
        for row, verdict in zip(rows.tolist(), fast):
            slow = all(bin(_union(row, s)).count("1") >= bin(s).count("1")
                       for s in range(1, 8))
            assert verdict == slow

    def test_certificates(self):
        graph = [[0, 1], [0], [1, 2]]
        assert ref.matching_is_valid(graph, [1, 0, 2])
        assert not ref.matching_is_valid(graph, [0, 0, 2])
        assert not ref.matching_is_valid(graph, [2, 0, 1])
        tight = [[0], [0], [0, 1]]
        assert ref.violator_is_valid(tight, [0, 1])
        assert not ref.violator_is_valid(tight, [0, 2])
        assert not ref.violator_is_valid(tight, [])


def _union(row, subset):
    out = 0
    for i, mask in enumerate(row):
        if subset >> i & 1:
            out |= mask
    return out


class TestCellularAutomata:
    def test_torus_images_match_direct_evaluation(self):
        mods = (3, 4)
        table = ref.life_table()
        memory = sorted(itertools.product((-1, 0, 1), repeat=2))
        images = ref.torus_images(mods, memory, table)
        rng = np.random.default_rng(1)
        for code in rng.integers(0, 1 << 12, size=50).tolist():
            cells = {(i, j): code >> (i * 4 + j) & 1
                     for i in range(3) for j in range(4)}
            image = {}
            for (i, j) in cells:
                alive = sum(cells[((i + di) % 3, (j + dj) % 4)]
                            for di, dj in memory if (di, dj) != (0, 0))
                image[(i, j)] = int(alive == 3 or (cells[(i, j)] and alive == 2))
            assert images[code] == ref.pattern_code(mods, image)

    def test_flip_is_a_bijection_and_xor_is_not(self):
        flip = ref.torus_images((3, 4), [(0, 0)], np.array([1, 0]))
        xor = ref.torus_images((3, 4), [(0, 0), (1, 0)], np.array([0, 1, 1, 0]))
        assert len(np.unique(flip)) == 1 << 12
        assert len(np.unique(xor)) < 1 << 12


class TestFibonacci:
    def test_factor_complexity(self):
        for n in range(1, 12):
            assert len(ref.fibonacci_factors(n)) == n + 1

    def test_piecewise_shifts(self):
        words = ref.fibonacci_factors(3)
        assert ref.piecewise_shift_is_bijective([(0, w, 1) for w in words])
        # everything maps one step right except one cylinder that stays:
        # two positions collide
        bad = [(0, w, 0 if i == 0 else 1) for i, w in enumerate(words)]
        assert not ref.piecewise_shift_is_bijective(bad)
