"""Exact walk and cogrowth counts against brute-force dict convolutions.

The oracles below act on vertex keys step by step and never truncate, so they
pin the answers of ``return_sequence``, ``measure_power``, the closed-walk
counts and ``reduced_closed_counts`` on random small measures, and the rows
of the truncated walk operator.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from amenlab import cogrowth
from amenlab.orbits import build_ball, make_gset
from amenlab.randwalk import _transition_rows
from amenlab.walks import StepMeasure, measure_power, return_sequence

SPECS = ["z:1", "z:2", "zmod:3,4", "dihedral", "lamplighter", "coset:f2",
         "orbit:grigorchuk:depth=3", "free:2"]
_GSETS = {spec: make_gset(spec) for spec in SPECS}


def convolution_powers(gset, atoms, n):
    """Weights of the walk's positions after 0..n steps."""
    current = {gset.base_key: 1}
    out = [current]
    for _ in range(n):
        new = {}
        for key, mass in current.items():
            for word, weight in atoms:
                target = gset.act_word(key, word)
                new[target] = new.get(target, 0) + mass * weight
        current = new
        out.append(current)
    return out


def formal_letters(gset):
    return [(gen, sign) for gen in range(len(gset.names)) for sign in (1, -1)]


def closed_walk_oracle(gset, n):
    """Closed words of each length k <= n over the formal letters."""
    atoms = [((letter,), 1) for letter in formal_letters(gset)]
    return [dist.get(gset.base_key, 0)
            for dist in convolution_powers(gset, atoms, n)]


def reduced_walk_oracle(gset, n):
    """Closed reduced words of each length k <= n over the formal letters."""
    states = {(gset.base_key, None): 1}
    counts = [1]
    for _ in range(n):
        new = {}
        for (key, last), count in states.items():
            for gen, sign in formal_letters(gset):
                if last == (gen, -sign):
                    continue
                state = (gset.act(key, (gen, sign)), (gen, sign))
                new[state] = new.get(state, 0) + count
        states = new
        counts.append(sum(c for (key, _), c in states.items()
                          if key == gset.base_key))
    return counts


@st.composite
def walks(draw):
    """A spec, a random positive rational measure and a step count.

    Words have length 0..3; n * (longest word) <= 12 keeps the balls of the
    exponentially growing specs small.
    """
    spec = draw(st.sampled_from(SPECS))
    gset = _GSETS[spec]
    letter = st.tuples(st.integers(0, len(gset.names) - 1),
                       st.sampled_from([1, -1]))
    words = draw(st.lists(st.lists(letter, max_size=3).map(tuple),
                          min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(words),
                            max_size=len(words)))
    total = sum(weights)
    mu = StepMeasure(gset, [(w, Fraction(k, total))
                            for w, k in zip(words, weights)])
    longest = max(len(word) for word, _ in mu.items())
    n = draw(st.integers(0, 8 if longest <= 1 else 12 // longest))
    return spec, gset, mu, n


@settings(max_examples=60, deadline=None)
@given(walks())
def test_return_sequence_and_measure_power_match_the_convolution(walk):
    _spec, gset, mu, n = walk
    powers = convolution_powers(gset, mu.items(), n)
    assert return_sequence(gset, mu, n) == \
        [dist.get(gset.base_key, Fraction(0)) for dist in powers]
    # the whole support after m steps; m * (longest word) <= 8
    longest = max(len(word) for word, _ in mu.items())
    m = n if longest <= 1 else min(n, 8 // longest)
    assert measure_power(gset, mu, m) == powers[m]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPECS), st.integers(0, 8))
def test_closed_and_reduced_counts_match_the_convolution(spec, n):
    gset = _GSETS[spec]
    graph = build_ball(gset, n // 2)
    assert cogrowth._closed_walk_counts(graph, n) == \
        closed_walk_oracle(gset, n)
    assert cogrowth.reduced_closed_counts(spec, n).counts == \
        reduced_walk_oracle(gset, n)


def transition_rows_oracle(graph, mu):
    """Rows of the truncated operator, acting on keys word by word."""
    vertices = sorted(graph.vertices, key=graph.gset.show_key)
    index = {v: i for i, v in enumerate(vertices)}
    rows = [[] for _ in vertices]
    for v in vertices:
        for word, weight in mu.items():
            j = index.get(graph.gset.act_word(v, word))
            if j is not None:
                rows[index[v]].append((j, float(weight)))
    return vertices, rows


@settings(max_examples=60, deadline=None)
@given(walks())
def test_transition_rows_match_acting_on_keys(walk):
    # a word may leave the ball and come back; its step still counts
    _spec, gset, mu, n = walk
    graph = build_ball(gset, min(n, 3))
    assert _transition_rows(graph, mu) == transition_rows_oracle(graph, mu)


def test_a_step_that_leaves_the_ball_and_returns_counts():
    gset = make_gset("z:2")
    x, y = (0, 1), (1, 1)
    mu = StepMeasure(gset, [((x, (1, -1)), Fraction(1, 2)),
                            ((y, (0, -1)), Fraction(1, 2))])
    graph = build_ball(gset, 2)
    # x y^-1 takes (1, 1) through (2, 1), outside the ball, to (2, 0)
    start = gset.act_word(gset.base_key, (x, y))
    vertices, rows = _transition_rows(graph, mu)
    row = rows[vertices.index(start)]
    assert (vertices.index(gset.act(gset.act(start, x), (1, -1))), 0.5) in row
