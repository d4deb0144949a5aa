"""Marked G-sets, Schreier balls, boundary edges and the coset action."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenlab import orbits
from amenlab.errors import CapExceeded, ValidationError, vertex_budget
from amenlab.groups import _free_reduce
from amenlab.isoperimetry import growth_series
from amenlab.orbits import (boundary_edges, build_ball, coset_canonical,
                            coset_contains, make_gset, walk_counts)
from amenlab.selfsim import equals_selfsim, grigorchuk
from amenlab.walks import StepMeasure


class TestCayleyBalls:
    def test_free_group_ball_sizes(self):
        graph = build_ball(make_gset("cayley:free:2"), 3)
        by_depth = {}
        for depth in graph.depths.values():
            by_depth[depth] = by_depth.get(depth, 0) + 1
        assert by_depth == {0: 1, 1: 4, 2: 12, 3: 36}

    def test_z2_ball_sizes(self):
        graph = build_ball(make_gset("cayley:z:2"), 2)
        assert len(graph.depths) == 13  # 1 + 4 + 8

    def test_grigorchuk_small_ball(self):
        graph = build_ball(make_gset("cayley:grigorchuk"), 2)
        assert len(graph.depths) == 11

    def test_basilica_small_ball(self):
        graph = build_ball(make_gset("cayley:basilica"), 2)
        # a, b have infinite order and ab^-1 etc. are all distinct here
        assert graph.depths[graph.base_key] == 0
        assert len(graph.depths) == 1 + 4 + 12

    def test_vertex_cap(self):
        with pytest.raises(CapExceeded) as info:
            build_ball(make_gset("cayley:free:2"), 6, cap_vertices=100)
        assert info.value.partial == 101

    def test_memory_cap_stops_inside_a_shell(self, monkeypatch):
        # a 5,000-vertex budget; the third shell of free:20 alone has 59,280
        monkeypatch.setenv("AMENLAB_CAP_MB", "1")
        with pytest.raises(CapExceeded) as info:
            build_ball(make_gset("free:20"), 3)
        assert info.value.partial <= vertex_budget() + 1


@pytest.mark.parametrize("spec, radius", [
    ("z:2", 3), ("free:2", 3), ("coset:f2", 4), ("dihedral", 3),
    ("cayley:grigorchuk", 3), ("orbit:grigorchuk:depth=4", 5),
])
def test_build_ball_acts_once_per_vertex_and_letter(monkeypatch, spec,
                                                    radius):
    gset = make_gset(spec)
    calls = []
    act = orbits.MarkedGSet.act

    def counted(self, key, letter):
        calls.append(letter)
        return act(self, key, letter)

    monkeypatch.setattr(orbits.MarkedGSet, "act", counted)
    graph = build_ball(gset, radius)
    assert len(calls) == len(graph.vertices) * len(gset.letters)


@pytest.mark.parametrize("spec", [
    "z:1", "zmod:3,4", "free:2", "lamplighter", "dihedral", "coset:f2",
    "cayley:grigorchuk", "cayley:basilica", "orbit:grigorchuk:depth=3",
])
def test_every_path_reads_letters_through_the_letter_table(spec):
    gset = make_gset(spec)
    graph = build_ball(gset, 1)
    rank = len(gset.names)
    for letter in ((rank, 1), (0, 2), (0, 0), 0, [0, 1]):
        for call in (lambda: gset.act(gset.base_key, letter),
                     lambda: graph.column(letter),
                     lambda: graph.word_edges((letter,)),
                     lambda: StepMeasure(gset, [((letter,), Fraction(1))])):
            with pytest.raises(ValidationError):
                call()
    for gen, involution in enumerate(gset.involutions):
        if involution:
            assert graph.column((gen, -1)) == graph.column((gen, 1))
            for key in graph.keys:
                assert gset.act(key, (gen, -1)) == gset.act(key, (gen, 1))


class TestSelfsimCanonicalizer:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_shallow_signatures_give_the_same_ball(self, monkeypatch,
                                                   depth):
        # level 2 carries only the dihedral group of order 8, so distinct
        # elements share buckets; the exact oracle must keep them apart
        expected = {spec: build_ball(make_gset(spec), 4)
                    for spec in ("cayley:grigorchuk", "cayley:basilica")}
        monkeypatch.setattr(orbits, "_SIGNATURE_DEPTH", depth)
        for spec, want in expected.items():
            graph = build_ball(make_gset(spec), 4)
            assert graph.keys == want.keys
            assert graph.columns == want.columns

    def test_foreign_keys_fall_back_to_level_permutation(self):
        gset = make_gset("cayley:grigorchuk")
        build_ball(gset, 4)
        g = grigorchuk("abadac")  # not a key the canonicalizer returned
        image = gset.act(g, (1, 1))
        # g b = abadad, first found in the ball as acada
        assert equals_selfsim(image, g * grigorchuk("b")).equal
        assert image.word == "acada"


class TestCosetAction:
    gset = make_gset("coset:f2")

    def test_membership(self):
        group = self.gset.group
        assert coset_contains(group.parse("a"))
        assert coset_contains(group.parse("b a b^-1"))
        assert coset_contains(group.parse("b^2 a b^-2 a^-1"))
        assert not coset_contains(group.parse("b"))
        assert not coset_contains(group.parse("b^-1 a b"))

    def test_canonical_keys_on_the_ray(self):
        group = self.gset.group
        assert coset_canonical(group.parse("a b a b a^-2")) == \
            group.parse("b^2")

    def test_ball_radius_two_has_seven_cosets(self):
        # ray: H, Hb, Hb^2; hanging tree: Hb^-1, Hb^-2, Hb^-1 a, Hb^-1 a^-1
        graph = build_ball(self.gset, 2)
        assert len(graph.depths) == 7

    def test_interval_boundary_is_two(self):
        graph = build_ball(self.gset, 8)
        interval = [tuple(((1, 1),) * k) for k in range(5)]
        edges = boundary_edges(graph, interval)
        assert len(edges) == 2

    def test_coset_spec_names_a_single_graph(self):
        # the ray 1, b, b^2, ... plus a ternary tree of cosets hanging at H
        for r in range(7):
            closed_form = [k + 1 + (3 ** k - 1) // 2 for k in range(r + 1)]
            assert list(growth_series("coset:f2", r)) == closed_form
            graph = build_ball(make_gset("coset:f2"), r)
            spheres = [0] * (r + 1)
            for depth in graph.depths.values():
                spheres[depth] += 1
            assert list(itertools.accumulate(spheres)) == closed_form

    def test_coset_gset_is_marked_by_free_generators(self):
        assert self.gset.group.family == "free"
        assert self.gset.names == ("a", "b")
        assert self.gset.spec == "coset:f2"

    def test_a_edges_are_loops_on_the_ray(self):
        for k in range(5):
            key = tuple(((1, 1),) * k)
            assert self.gset.act(key, (0, 1)) == key


STEP_SPECS = ["coset:f2", "free:1", "free:2", "free:3"]


def _oracle(spec):
    """The whole-word canonicalizer that the step action of ``spec``
    replaces."""
    reduce = coset_canonical if spec == "coset:f2" else _free_reduce
    return lambda key, letter: reduce(key + (letter,))


class TestStepActions:
    """The free and coset actions step from a canonical key by its last
    letter (and the ray for the coset); the whole-word reductions are the
    oracles."""

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(STEP_SPECS), data=st.data())
    def test_act_matches_the_oracle_along_random_walks(self, spec, data):
        gset = make_gset(spec)
        oracle = _oracle(spec)
        letters = gset.letters
        walk = data.draw(st.lists(st.sampled_from(letters), max_size=40))
        keys = [gset.base_key]
        for letter in walk:
            keys.append(oracle(keys[-1], letter))
        for key in keys:
            for probe in letters:
                assert gset.act(key, probe) == oracle(key, probe)

    @pytest.mark.parametrize("spec", STEP_SPECS)
    def test_balls_match_balls_of_the_oracle(self, spec):
        gset = make_gset(spec)
        reference = orbits.MarkedGSet(
            gset.spec, gset.names, gset.involutions, gset.base_key,
            _oracle(spec), gset.show_key)
        for radius in range(7):
            graph = build_ball(gset, radius)
            expected = build_ball(reference, radius)
            assert graph.keys == expected.keys
            assert graph.depths == expected.depths
            assert graph.columns == expected.columns

    def test_act_path_calls_no_whole_word_reduction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("whole-word reduction on the act path")

        monkeypatch.setattr(orbits, "coset_canonical", refuse)
        monkeypatch.setattr(orbits, "_free_reduce", refuse)
        monkeypatch.setattr(orbits.MarkedGroup, "compose", refuse)
        for spec in STEP_SPECS:
            build_ball(make_gset(spec), 4)


class TestBoundary:
    def test_rejects_shell_subsets(self):
        graph = build_ball(make_gset("cayley:z:1"), 3)
        shell = [v for v, d in graph.depths.items() if d == 3]
        with pytest.raises(ValidationError):
            boundary_edges(graph, shell[:1])

    def test_rejects_foreign_vertices(self):
        graph = build_ball(make_gset("cayley:z:1"), 3)
        with pytest.raises(ValidationError):
            boundary_edges(graph, [((0, 1),) * 10])

    def test_interval_in_z(self):
        graph = build_ball(make_gset("cayley:z:1"), 6)
        interval = [graph.gset.group.power(((0, 1),), k) for k in range(-2, 3)]
        assert len(boundary_edges(graph, interval)) == 2


def _string_sorted_json(graph) -> str:
    """``to_json`` as it was before it worked on the table: two shown keys
    per edge, and a sort of the entries by their strings."""
    show = graph.gset.show_key
    vertices = sorted(
        ({"key": show(v), "depth": d} for v, d in graph.depths.items()),
        key=lambda entry: (entry["depth"], entry["key"]),
    )
    edges = sorted(
        ({"src": show(src), "gen": graph.gset.letter_name(letter),
          "dst": show(dst)} for src, letter, dst in graph.edges),
        key=lambda e: (e["src"], e["gen"], e["dst"]),
    )
    payload = {
        "group": graph.gset.spec,
        "basepoint": show(graph.base_key),
        "radius": graph.radius,
        "vertices": vertices,
        "edges": edges,
    }
    return json.dumps(payload, sort_keys=True)


class TestSerialization:
    @pytest.mark.parametrize("spec, radius", [
        ("z:2", 3), ("free:3", 3), ("coset:f2", 6), ("lamplighter", 4),
        ("dihedral", 5), ("zmod:3,4", 4), ("cayley:grigorchuk", 3),
        ("orbit:basilica:depth=4", 6), ("z:1", 4), ("free:1", 3),
        ("cayley:basilica", 3), ("orbit:grigorchuk:depth=5", 8),
    ])
    def test_json_equals_the_string_sort(self, spec, radius):
        graph = build_ball(make_gset(spec), radius)
        assert graph.to_json() == _string_sorted_json(graph)

    def test_json_is_deterministic(self):
        a = build_ball(make_gset("cayley:z:1"), 2).to_json()
        b = build_ball(make_gset("cayley:z:1"), 2).to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["radius"] == 2
        assert len(payload["vertices"]) == 5

    def test_orbit_gset(self):
        gset = make_gset("orbit:grigorchuk:depth=3")
        graph = build_ball(gset, 8)
        # the level-3 action is transitive: all 8 vertices appear
        assert len(graph.depths) == 8


# -- the neighbour columns against acting on keys ----------------------------

WALK_SPECS = ["z:1", "z:2", "zmod:3,4", "dihedral", "lamplighter", "free:2",
              "coset:f2", "cayley:grigorchuk", "orbit:basilica:depth=4"]
_WALK_GSETS = {spec: make_gset(spec) for spec in WALK_SPECS}


@st.composite
def _ball_and_words(draw):
    """A spec's ball of radius 0..3 and one to three words of length 0..3."""
    spec = draw(st.sampled_from(WALK_SPECS))
    gset = _WALK_GSETS[spec]
    letter = st.tuples(st.integers(0, len(gset.names) - 1),
                       st.sampled_from([1, -1]))
    words = draw(st.lists(st.lists(letter, max_size=3).map(tuple),
                          min_size=1, max_size=3))
    return build_ball(gset, draw(st.integers(0, 3))), words


@settings(max_examples=80, deadline=None)
@given(_ball_and_words())
def test_word_edges_match_acting_on_keys(case):
    graph, words = case
    for word in words:
        expected = [(i, graph.ids[target]) for i, key in enumerate(graph.keys)
                    for target in [graph.gset.act_word(key, word)]
                    if target in graph.ids]
        src, dst = graph.word_edges(word)
        assert isinstance(src, list) and isinstance(dst, list)
        assert list(zip(src, dst)) == expected


@settings(max_examples=60, deadline=None)
@given(_ball_and_words(), st.lists(st.integers(1, 4), min_size=3,
                                   max_size=3), st.integers(0, 4))
def test_walk_counts_match_a_walk_on_keys(case, weights, n):
    graph, words = case
    gset = graph.gset
    # a ball of radius n * (longest word) holds every walk of n steps;
    # n * (longest word) <= 6 keeps the free group's ball small
    longest = max(len(word) for word in words)
    n = min(n, 6 // longest) if longest else n
    graph = build_ball(gset, n * longest)
    moves = [(*graph.word_edges(word), weight)
             for word, weight in zip(words, weights)]
    current = {gset.base_key: 1}
    for m, counts in enumerate(walk_counts(len(graph.keys), moves, n)):
        assert isinstance(counts, list)
        assert counts == [current.get(key, 0) for key in graph.keys]
        assert sum(current.values()) == sum(weights[:len(words)]) ** m
        following = {}
        for key, count in current.items():
            for word, weight in zip(words, weights):
                target = gset.act_word(key, word)
                following[target] = following.get(target, 0) + count * weight
        current = following


def test_unknown_specs_rejected():
    for spec in ("cayley:nope", "orbit:grigorchuk", "orbit:basilica:depth=0",
                 "coset:f3"):
        with pytest.raises(ValidationError):
            make_gset(spec)


def test_bad_orbit_depth_and_retired_coset_group_rejected():
    for spec in ("orbit:grigorchuk:depth=x", "orbit:basilica:depth=",
                 "cayley:coset:f2"):
        with pytest.raises(ValidationError):
            make_gset(spec)


def test_bare_group_spec_means_its_cayley_form():
    for bare in ("z:1", "free:2", "lamplighter", "grigorchuk"):
        gset = make_gset(bare)
        assert gset.spec == f"cayley:{bare}"
        prefixed = make_gset(f"cayley:{bare}")
        assert build_ball(gset, 2).to_json() == \
            build_ball(prefixed, 2).to_json()
