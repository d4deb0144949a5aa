"""Growth series, Folner search modes, the exact Folner function and the
volume lower bound check."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amenlab import isoperimetry, orbits
from amenlab.errors import CapExceeded, ValidationError
from amenlab.isoperimetry import (csc_check, fol_exact, folner_ratios,
                                  folner_search, growth_series, worst_ratio)
from amenlab.orbits import build_ball, make_gset


class TestGrowth:
    def test_z(self):
        assert list(growth_series("z:1", 4)) == [1, 3, 5, 7, 9]

    def test_z2(self):
        assert list(growth_series("z:2", 3)) == [1, 5, 13, 25]

    def test_free2(self):
        assert list(growth_series("free:2", 3)) == [1, 5, 17, 53]

    def test_csv(self):
        assert growth_series("z:1", 2).to_csv() == "0,1\n1,3\n2,5"


class TestRatios:
    def test_interval_in_z(self):
        gset = make_gset("cayley:z:1")
        interval = [gset.group.power(((0, 1),), k) for k in range(5)]
        ratios = folner_ratios(gset, interval)
        assert ratios == {"x": Fraction(1, 5), "x^-1": Fraction(1, 5)}

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            folner_ratios(make_gset("cayley:z:1"), [])

    def test_members_are_reduced_before_counting(self):
        free = make_gset("free:2")
        a, b = (0, 1), (1, 1)
        assert folner_ratios(free, [(), (a,), (a, b, (1, -1))]) == \
            folner_ratios(free, [(), (a,)])
        assert folner_ratios(free, [(), (a,)])["a"] == Fraction(1, 2)
        # a a^-1 is the identity
        assert worst_ratio(free, [(a, (0, -1)), ()]) == 1
        # H a = H in the coset graph
        assert folner_ratios(make_gset("coset:f2"), [(), (a,)]) == {
            "a": 0, "a^-1": 0, "b": 1, "b^-1": 1}
        z2 = make_gset("z:2")
        assert folner_ratios(z2, [(), (a, (0, -1)), (b,)]) == \
            folner_ratios(z2, [(), (b,)])

    def test_box_in_z2(self):
        gset = make_gset("cayley:z:2")
        box = [gset.group.compose(gset.group.power(((0, 1),), i),
                                  gset.group.power(((1, 1),), j))
               for i in range(3) for j in range(3)]
        assert worst_ratio(gset, box) == Fraction(1, 3)


class TestSearch:
    def test_greedy_on_z(self):
        graph = build_ball(make_gset("cayley:z:1"), 8)
        report = folner_search(graph, Fraction(1, 5), mode="greedy")
        assert report.success
        assert report.worst < Fraction(1, 5)

    def test_exhaustive_finds_minimum(self):
        graph = build_ball(make_gset("cayley:z:1"), 4)
        report = folner_search(graph, Fraction(1, 2), mode="exhaustive",
                               size_cap=4)
        assert report.success
        assert len(report.subset) == 3  # smallest set with ratio < 1/2

    def test_exhaustive_reports_best_on_failure(self):
        graph = build_ball(make_gset("cayley:z:1"), 3)
        report = folner_search(graph, Fraction(1, 100), mode="exhaustive",
                               size_cap=3)
        assert not report.success
        assert report.worst >= Fraction(1, 100)

    def test_anneal_requires_seed(self):
        graph = build_ball(make_gset("cayley:z:1"), 4)
        with pytest.raises(ValidationError):
            folner_search(graph, Fraction(1, 3), mode="anneal")

    def test_anneal_is_reproducible(self):
        graph = build_ball(make_gset("cayley:z:1"), 6)
        a = folner_search(graph, Fraction(1, 4), mode="anneal", seed=11)
        b = folner_search(graph, Fraction(1, 4), mode="anneal", seed=11)
        assert a.to_json() == b.to_json()

    def test_report_json_fields(self):
        graph = build_ball(make_gset("cayley:z:1"), 5)
        report = folner_search(graph, Fraction(1, 3), mode="greedy")
        assert '"worstRatio"' in report.to_json()


class TestFolnerFunction:
    def test_z_values(self):
        graph = build_ball(make_gset("cayley:z:1"), 8)
        assert fol_exact(graph, 1) == 3
        assert fol_exact(graph, 2) == 5

    def test_no_witness_returns_none(self):
        graph = build_ball(make_gset("cayley:z:1"), 8)
        assert fol_exact(graph, 8, size_cap=8) is None

    def test_combination_guard(self):
        graph = build_ball(make_gset("cayley:z:2"), 6)
        with pytest.raises(CapExceeded):
            fol_exact(graph, 1, size_cap=12)


class TestVolumeBound:
    def test_z(self):
        result = csc_check("z:1", 1)
        assert result["fol"] == 3
        assert result["bound"] == Fraction(3, 2)
        assert result["holds"]

    def test_z2(self):
        result = csc_check("z:2", 1)
        assert result["fol"] == 7
        assert result["holds"]

    def test_one_ball_serves_both_sides(self, monkeypatch):
        radii = []

        def counted(gset, radius, *args, **kwargs):
            radii.append(radius)
            return build_ball(gset, radius, *args, **kwargs)

        monkeypatch.setattr(isoperimetry, "build_ball", counted)
        result = csc_check("z:2", 1)
        assert radii == [3]
        assert (result["fol"], result["bound"]) == (7, Fraction(5, 2))
        radii.clear()
        # a radius below n needs its own ball for v(n)
        assert csc_check("zmod:5", 4, radius=3)["bound"] == Fraction(5, 2)
        assert radii == [3, 4]


class TestFolExactScope:
    """``fol_exact`` reads the interior of the ball it is given; on these
    balls a larger one finds no smaller witness."""

    @pytest.mark.parametrize("n, fol", [(1, 3), (2, 5), (3, 7)])
    def test_z_agrees_at_radii_r_and_r_plus_two(self, n, fol):
        for radius in (n + 2, n + 4):
            graph = build_ball(make_gset("cayley:z:1"), radius)
            assert fol_exact(graph, n) == fol

    def test_lamplighter_agrees_at_radii_three_and_four(self):
        for radius in (3, 4):
            graph = build_ball(make_gset("cayley:lamplighter"), radius)
            assert fol_exact(graph, 1) == 7


# -- the id-based kernels against the key-based recipes they replace --------

ORACLE_BALLS = {
    "z:1": 6, "z:2": 3, "lamplighter": 3, "dihedral": 5, "coset:f2": 4,
    "free:2": 2, "orbit:basilica:depth=3": 4,
}
_GRAPHS = {}


def _graph(spec):
    if spec not in _GRAPHS:
        _GRAPHS[spec] = build_ball(make_gset(spec), ORACLE_BALLS[spec])
    return _GRAPHS[spec]


def _sym_diff_condition(gset, members, n):
    """#(F delta F s) < #F / n for every letter, on keys."""
    for letter in gset.letters:
        translated = {gset.act(v, letter) for v in members}
        if n * len(members ^ translated) >= len(members):
            return False
    return True


def _key_search(graph, epsilon, mode, seed=None, size_cap=12, steps=2000):
    """The searches as they ran on keys; returns the chosen set."""
    gset = graph.gset
    interior = sorted(graph.interior(), key=gset.show_key)
    if mode == "exhaustive":
        combos = [frozenset(c) for k in range(1, min(size_cap,
                                                      len(interior)) + 1)
                  for c in itertools.combinations(interior, k)]
        found = [c for c in combos if worst_ratio(gset, c) < epsilon]
        return found[0] if found else min(
            combos, key=lambda c: worst_ratio(gset, c))
    if mode == "greedy":
        current = {graph.base_key}
        best, best_worst = frozenset(current), worst_ratio(gset, current)
        while best_worst >= epsilon:
            candidates = {v for u in current for _letter, v in
                          graph.out_edges(u)
                          if v not in current and graph.is_interior(v)}
            if not candidates:
                break
            v = min(candidates, key=lambda v: (
                worst_ratio(gset, current | {v}), gset.show_key(v)))
            current.add(v)
            if worst_ratio(gset, current) < best_worst:
                best, best_worst = frozenset(current), \
                    worst_ratio(gset, current)
        return best
    rng = random.Random(seed)
    current = {v for v in interior if graph.depths[v] <= 1}
    energy = worst_ratio(gset, current)
    best, best_worst = frozenset(current), energy
    temperature = 0.5
    for _ in range(steps):
        if best_worst < epsilon:
            break
        v = rng.choice(interior)
        proposal = set(current)
        if v in proposal:
            if len(proposal) == 1:
                continue
            proposal.discard(v)
        else:
            proposal.add(v)
        new_energy = worst_ratio(gset, proposal)
        delta = float(new_energy - energy)
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, energy = proposal, new_energy
            if energy < best_worst:
                best, best_worst = frozenset(current), energy
        temperature *= 0.995
    return best


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(sorted(ORACLE_BALLS)), data=st.data())
def test_escape_counts_match_the_key_recipes(spec, data):
    graph = _graph(spec)
    gset = graph.gset
    ids = data.draw(st.sets(st.integers(0, len(graph.interior()) - 1),
                            min_size=1, max_size=8))
    keys = [graph.keys[v] for v in ids]
    columns = [column.tolist() for column in graph.columns]
    escapes = isoperimetry._escapes(columns, ids)
    ratios = {gset.letter_name(letter): Fraction(e, len(ids))
              for letter, e in zip(graph.letters, escapes)}
    assert ratios == folner_ratios(gset, keys)
    for letter, e in zip(graph.letters, escapes):
        image = {gset.act(v, letter) for v in keys}
        assert len(set(keys) ^ image) == 2 * e
    for n in (1, 2, 3, 5):
        assert isoperimetry._fol_condition(columns, ids, n) == \
            _sym_diff_condition(gset, set(keys), n)


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(sorted(ORACLE_BALLS)),
       mode=st.sampled_from(["exhaustive", "greedy", "anneal"]),
       epsilon=st.sampled_from([Fraction(1, 100), Fraction(1, 4),
                                Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       size_cap=st.integers(1, 3), seed=st.integers(0, 50))
def test_searches_match_the_key_recipes(spec, mode, epsilon, size_cap, seed):
    graph = _graph(spec)
    report = folner_search(graph, epsilon, mode=mode, seed=seed,
                           size_cap=size_cap, steps=100)
    expected = _key_search(graph, epsilon, mode, seed=seed,
                           size_cap=size_cap, steps=100)
    assert sorted(report.subset, key=graph.gset.show_key) == \
        sorted(expected, key=graph.gset.show_key)
    assert report.ratios == folner_ratios(graph.gset, expected)
    assert report.success == (worst_ratio(graph.gset, expected) < epsilon)


def _recount_greedy(columns, pool, epsilon):
    """The greedy search as it was before its escape counts were kept: it
    recounts the whole set for every candidate."""
    rank = {v: i for i, v in enumerate(pool)}
    current = {0}
    best, best_worst = frozenset(current), isoperimetry._worst(columns,
                                                               current)
    while best_worst >= epsilon:
        candidates = {column[u] for u in current for column in columns}
        candidates = [v for v in candidates - current if v in rank]
        if not candidates:
            break
        worst, _rank, v = min(
            (isoperimetry._worst(columns, current | {v}), rank[v], v)
            for v in candidates)
        current.add(v)
        if worst < best_worst:
            best, best_worst = frozenset(current), worst
    return best


# loops (coset:f2, orbits), involutions (dihedral, grigorchuk) and balls whose
# whole interior the greedy search can grow through
GREEDY_BALLS = [("z:1", 8), ("z:2", 4), ("free:2", 4), ("coset:f2", 6),
                ("lamplighter", 4), ("dihedral", 6), ("cayley:grigorchuk", 4),
                ("orbit:grigorchuk:depth=4", 5),
                ("orbit:basilica:depth=3", 4)]


@functools.lru_cache(maxsize=None)
def _greedy_ball(spec, radius):
    return build_ball(make_gset(spec), radius)


@settings(max_examples=100, deadline=None)
@given(ball=st.sampled_from(GREEDY_BALLS),
       epsilon=st.fractions(0, 1, max_denominator=12))
def test_incremental_greedy_matches_the_recount(ball, epsilon):
    graph = _greedy_ball(*ball)
    columns = [column.tolist() for column in graph.columns]
    pool = isoperimetry._interior_ids(graph)
    assert isoperimetry._greedy_search(graph, columns, pool, epsilon) == \
        _recount_greedy(columns, pool, epsilon)


@pytest.mark.parametrize("spec", ["z:1", "z:2", "coset:f2", "lamplighter"])
def test_kernels_make_no_act_call_once_the_ball_is_built(monkeypatch, spec):
    graph = _graph(spec)

    def refuse(self, key, letter):
        raise AssertionError("act called after the ball was built")

    monkeypatch.setattr(orbits.MarkedGSet, "act", refuse)
    for mode in ("exhaustive", "greedy", "anneal"):
        folner_search(graph, Fraction(1, 3), mode=mode, seed=1, size_cap=3,
                      steps=50)
    fol_exact(graph, 1, size_cap=4)
