"""The four-piece decomposition of the rank-2 free group, its doubling map,
Hall matchings with violator extraction, and pointwise injection merging."""

import itertools
import random

import pytest

from amenlab.errors import CapExceeded, ValidationError
from amenlab.orbits import build_ball, make_gset
from amenlab.paradox import (F2, MatchingResult, csb_merge, doubling_map,
                             doubling_injection_pair, doubling_preimages,
                             f2_piece, hall_matching, paradox_verify,
                             translated_cell)


def _ball(radius):
    """B(radius) of F2, in BFS order."""
    return build_ball(make_gset("free:2"), radius).keys


def _private_ball(radius):
    """The BFS that ``paradox`` once ran on its own: reduced words, extended
    by x1, x1^-1, x2, x2^-1 in turn, shell by shell."""
    out = [()]
    frontier = [()]
    for _ in range(radius):
        new = []
        for word in frontier:
            for letter in ((0, 1), (0, -1), (1, 1), (1, -1)):
                if word and word[-1] == (letter[0], -letter[1]):
                    continue
                new.append(word + (letter,))
        out.extend(new)
        frontier = new
    return out


def test_f2_ball_keys_are_the_private_bfs_in_order():
    for radius in range(7):
        assert _ball(radius) == _private_ball(radius), radius


class TestPieces:
    def test_sample_labels(self):
        cases = {
            "1": ("Y2", "Z1"),
            "a": ("Y1", "Z2"),
            "b": ("Y2", "Z1"),
            "a^-1": ("Y2", "Z2"),
            "b^-1": ("Y2", "Z1"),
            "b^-2": ("Y2", "Z1"),
            "a b^-1": ("Y2", "Z2"),
            "b a": ("Y1", "Z2"),
        }
        group = F2
        for text, (y, z) in cases.items():
            label = f2_piece(group.parse(text.replace("a", "x1")
                                         .replace("b", "x2")))
            assert (label.y_part, label.z_part) == (y, z), text

    def test_pieces_partition_every_ball(self):
        for radius in range(5):
            report = paradox_verify(radius)
            assert report["passed"], report["violations"]

    def test_translated_cells_are_what_their_names_say(self):
        x1, x2 = ((0, 1),), ((1, 1),)
        for w in _ball(6):
            cell = translated_cell(w)
            if cell == "Y1":
                assert f2_piece(w).y_part == "Y1"
            elif cell == "Y2.x1^-1":
                assert f2_piece(F2.compose(w, x1)).y_part == "Y2"
            elif cell == "Z1":
                assert f2_piece(w).z_part == "Z1"
            else:
                assert cell == "Z2.x2^-1"
                assert f2_piece(F2.compose(w, x2)).z_part == "Z2"


class TestDoubling:
    def test_identity_preimages(self):
        pre = doubling_preimages((), 3)
        assert [F2.show(w) for w in pre] == ["1", "x1^-1"]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            doubling_preimages((), -1)

    def test_two_to_one_on_a_small_ball(self):
        from collections import Counter
        images = Counter(doubling_map(w) for w in _ball(5))
        for target in _ball(4):
            assert images[target] == 2, F2.show(target)

    def test_multipliers(self):
        for w in _ball(4):
            image = doubling_map(w)
            diff = F2.compose(F2.invert(w), image)
            assert diff in ((), ((0, 1),), ((1, 1),))


class TestHallMatching:
    def test_matched_example(self):
        result = hall_matching({1: [10, 20], 2: [10], 3: [20, 30]})
        assert result.matched
        assert result.matching[2] == 10

    def test_violator_example(self):
        result = hall_matching({1: [10], 2: [10], 3: [10, 20]})
        assert not result.matched
        assert result.violator == [1, 2]

    def test_empty_neighbourhood(self):
        result = hall_matching({1: []})
        assert result.violator == [1]

    def test_matching_is_a_valid_injection(self):
        rng = random.Random(17)
        for _ in range(200):
            nv, nw = rng.randint(1, 6), rng.randint(1, 6)
            graph = {v: [w for w in range(nw) if rng.random() < 0.5]
                     for v in range(nv)}
            result = hall_matching(graph)
            if result.matched:
                assert len(set(result.matching.values())) == nv
                assert all(w in graph[v] for v, w in result.matching.items())
            else:
                violator = result.violator
                seen = set().union(*(graph[v] for v in violator))
                assert len(seen) < len(violator)

    def test_agrees_with_brute_force_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(120):
            nv, nw = rng.randint(1, 6), rng.randint(1, 6)
            graph = {v: [w for w in range(nw) if rng.random() < 0.4]
                     for v in range(nv)}
            exists = nv <= nw and any(
                all(w in graph[v] for v, w in zip(range(nv), perm))
                for perm in itertools.permutations(range(nw), nv)
            )
            assert hall_matching(graph).matched == exists

    def test_json(self):
        result = MatchingResult({1: 2}, None)
        assert '"matched": true' in result.to_json()


class TestInjectionMerging:
    def test_identity_injections(self):
        ident = lambda x: x
        assert csb_merge(ident, ident, ident, ident, 42) == 42

    def test_shifted_injections_on_naturals(self):
        # alpha embeds evens into all, beta shifts everything up by one;
        # the merged map must stay a bijection on every decided point
        def alpha(n):
            return 2 * n

        def alpha_inv(n):
            return n // 2 if n % 2 == 0 else None

        def beta(n):
            return n + 1

        def beta_inv(n):
            return n - 1 if n >= 1 else None

        values = [csb_merge(alpha, beta_inv, alpha_inv, beta, y)
                  for y in range(30)]
        assert len(set(values)) == len(values)

    def test_aperiodic_chain_hits_the_cap(self):
        ident = lambda x: x
        with pytest.raises(CapExceeded):
            csb_merge(ident, lambda n: n - 1, ident, lambda n: n + 1, 0,
                      depth_cap=16)

    def test_section_mismatch_detected(self):
        with pytest.raises(ValidationError):
            csb_merge(lambda x: x, lambda x: x + 1, lambda x: x,
                      lambda x: x + 5, 3)

    def test_doubling_pair_merges_to_a_bijection(self):
        alpha, alpha_inv, beta, beta_inv = doubling_injection_pair()
        outputs = {}
        for w in _ball(4):
            try:
                image = csb_merge(alpha, beta_inv, alpha_inv, beta, w)
            except CapExceeded:
                continue
            assert image not in outputs, F2.show(w)
            outputs[image] = w
        assert len(outputs) > 100
