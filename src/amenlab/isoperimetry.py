"""Growth series, Folner-set search, exact small Folner function values,
and the Coulhon--Saloff-Coste bound checker.

Two notions of boundary ratio appear:

* the one-sided ratio #(F s \\ F) / #F used by the search routines, and
* the symmetric-difference condition #(F delta F s) < #F / n (strict!) that
  defines the Folner function ``fol_exact``.

The searches and ``fol_exact`` run on the ids of the compiled ball
(``graph.columns``) through one escape count, #{v in F : v s not in F} per
letter s.  Members are interior, so every image is in the ball, and s acts
bijectively, so #(F delta F s) is twice the escape count: both notions read
the same number.  ``folner_ratios`` and ``worst_ratio`` take arbitrary keys
and act on them; they are the oracle of the id-based kernels.

All ratios are exact rationals.  ``fol_exact`` enumerates every interior
subset of the given ball up to the size cap, so its value is the least size
among those subsets: an upper bound on Fol(n) of the whole G-set, which a
larger ball can only lower.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import CapExceeded, ValidationError
from .orbits import MarkedGSet, SchreierGraph, build_ball, make_gset

_COMBO_BUDGET = 5_000_000


class GrowthSeries:
    """Ball sizes v(0..n) of a marked group."""

    def __init__(self, spec: str, values: List[int]):
        self.spec = spec
        self.values = list(values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def __len__(self):
        return len(self.values)

    def to_csv(self) -> str:
        return "\n".join(f"{k},{v}" for k, v in enumerate(self.values))

    def __repr__(self):
        return f"GrowthSeries({self.spec!r}, {self.values})"


class FolnerReport:
    """A candidate Folner set with exact per-generator ratios; it succeeds
    when its worst ratio is below epsilon."""

    def __init__(self, gset: MarkedGSet, subset, ratios: Dict[str, Fraction],
                 mode: str, epsilon: Fraction):
        self.gset = gset
        self.subset = list(subset)
        self.ratios = ratios
        self.worst = max(ratios.values()) if ratios else Fraction(0)
        self.mode = mode
        self.epsilon = epsilon
        self.success = self.worst < epsilon

    def to_json(self) -> str:
        show = self.gset.show_key
        payload = {
            "gset": self.gset.spec,
            "mode": self.mode,
            "epsilon": str(self.epsilon),
            "success": self.success,
            "size": len(self.subset),
            "subset": sorted(show(v) for v in self.subset),
            "ratios": {name: str(r) for name, r in self.ratios.items()},
            "worstRatio": str(self.worst),
        }
        return json.dumps(payload, sort_keys=True)

    def __repr__(self):
        return (
            f"FolnerReport(size={len(self.subset)}, worst={self.worst}, "
            f"mode={self.mode!r}, success={self.success})"
        )


def growth_series(spec: str, n: int) -> GrowthSeries:
    """v(k) = #B(k) for 0 <= k <= n, via ball construction."""
    graph = build_ball(make_gset(spec), n)
    counts = [0] * (n + 1)
    for depth in graph.depths.values():
        counts[depth] += 1
    values = list(itertools.accumulate(counts))
    return GrowthSeries(spec, values)


def folner_ratios(gset: MarkedGSet, subset) -> Dict[str, Fraction]:
    """Exact one-sided ratios #(F s \\ F) / #F for every generator letter.
    Members are reduced to canonical keys first, so each element counts once."""
    members = {gset.canonical(v) for v in subset}
    if not members:
        raise ValidationError("Folner candidate set must be nonempty")
    out: Dict[str, Fraction] = {}
    for letter in gset.letters:
        escaped = sum(1 for v in members if gset.act(v, letter) not in members)
        out[gset.letter_name(letter)] = Fraction(escaped, len(members))
    return out


def worst_ratio(gset: MarkedGSet, subset) -> Fraction:
    return max(folner_ratios(gset, subset).values())


def folner_search(graph: SchreierGraph, epsilon: Fraction,
                  mode: str = "greedy", seed: Optional[int] = None,
                  size_cap: int = 12, steps: int = 2000) -> FolnerReport:
    """Look for an interior set with worst one-sided ratio < epsilon."""
    epsilon = Fraction(epsilon)
    columns = [column.tolist() for column in graph.columns]
    pool = _interior_ids(graph)
    if not pool:
        raise ValidationError("no interior vertices; build a larger ball")
    if mode == "exhaustive":
        if size_cap < 1:
            raise ValidationError("subset size cap must be >= 1")
        best = _exhaustive_search(columns, pool, epsilon, size_cap)
    elif mode == "greedy":
        best = _greedy_search(graph, columns, pool, epsilon)
    elif mode == "anneal":
        if seed is None:
            raise ValidationError("anneal mode requires a seed")
        best = _anneal_search(graph, columns, pool, epsilon, seed, steps)
    else:
        raise ValidationError(f"unknown search mode {mode!r}")
    ratios = {graph.gset.letter_name(letter): Fraction(escaped, len(best))
              for letter, escaped in zip(graph.letters,
                                         _escapes(columns, best))}
    return FolnerReport(graph.gset, [graph.keys[v] for v in best], ratios,
                        mode, epsilon)


def _interior_ids(graph: SchreierGraph) -> List[int]:
    """Interior ids ordered by shown key; BFS ids put the interior first."""
    show, keys = graph.gset.show_key, graph.keys
    return sorted(range(len(graph.interior())), key=lambda v: show(keys[v]))


def _escapes(columns: List[List[int]], members) -> List[int]:
    """#{v in F : v s not in F} for the letter s of each column.
    Members are interior, so every image is a ball id."""
    inside = set(members)
    return [sum(column[v] not in inside for v in inside)
            for column in columns]


def _worst(columns, members) -> Fraction:
    return Fraction(max(_escapes(columns, members)), len(members))


def _exhaustive_search(columns, pool, epsilon, size_cap):
    """The first set with worst ratio < epsilon, else the first minimum."""
    best = best_worst = None
    for combo in _subsets(pool, size_cap):
        worst = _worst(columns, combo)
        if best is None or worst < best_worst:
            best, best_worst = combo, worst
            if worst < epsilon:
                break
    return best


def _greedy_search(graph, columns, pool, epsilon):
    """Grow from the base point by the interior neighbour whose addition
    gives the least worst ratio, ties broken on the shown key.

    The escape counts are kept per letter.  Adding v to F changes a letter's
    count by two terms: v's own image escapes unless it is v or a member,
    and v's one preimage, read in the column of the letter's inverse, stops
    escaping if it is a member.  Every candidate's ratio has the denominator
    #F + 1, so the integer maxima decide.
    """
    rank = {v: i for i, v in enumerate(pool)}  # ties break on the shown key
    preimages = [columns[graph.column((gen, -sign))]
                 for gen, sign in graph.letters]
    current = {0}  # the base point
    escapes = _escapes(columns, current)
    best, best_worst = frozenset(current), Fraction(max(escapes))
    frontier = {column[0] for column in columns if column[0] in rank} - current

    def escapes_with(v):  # the escape counts of current | {v}
        return [e + (image[v] != v and image[v] not in current)
                - (preimage[v] in current)
                for e, image, preimage in zip(escapes, columns, preimages)]

    while best_worst >= epsilon and frontier:
        top, _rank, v = min((max(escapes_with(v)), rank[v], v)
                            for v in frontier)
        escapes = escapes_with(v)
        current.add(v)
        frontier.discard(v)
        frontier.update(column[v] for column in columns
                        if column[v] in rank and column[v] not in current)
        worst = Fraction(top, len(current))
        if worst < best_worst:
            best, best_worst = frozenset(current), worst
    return best


def _anneal_search(graph, columns, pool, epsilon, seed, steps):
    rng = random.Random(seed)
    current = {v for v in pool if graph.depths[graph.keys[v]] <= 1}
    energy = _worst(columns, current)
    best, best_worst = frozenset(current), energy
    temperature = 0.5
    for _ in range(steps):
        if best_worst < epsilon:
            break
        proposal = current ^ {rng.choice(pool)}
        if not proposal:
            continue
        new_energy = _worst(columns, proposal)
        delta = float(new_energy - energy)
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, energy = proposal, new_energy
            if energy < best_worst:
                best, best_worst = frozenset(current), energy
        temperature *= 0.995
    return best


def fol_exact(graph: SchreierGraph, n: int,
              size_cap: int = 12) -> Optional[int]:
    """Least interior #F with #(F delta F s) < #F / n for every letter s.

    Strict inequality, per the definition of the Folner function.  The
    scope is the interior of ``graph``: the value is the least size among
    its interior subsets, an upper bound on Fol(n) of the whole G-set (a
    smaller witness may need a larger ball).  Returns None when no interior
    subset within the size cap qualifies.
    """
    if n < 1:
        raise ValidationError("Folner function argument must be >= 1")
    columns = [column.tolist() for column in graph.columns]
    for combo in _subsets(_interior_ids(graph), size_cap):
        if _fol_condition(columns, combo, n):
            return len(combo)
    return None


def _fol_condition(columns, members, n) -> bool:
    """#(F delta F s) = 2 escapes < #F / n, strictly, for every letter s."""
    return 2 * n * max(_escapes(columns, members)) < len(members)


def _subsets(pool, size_cap):
    """The nonempty subsets of ``pool`` with at most ``size_cap`` members,
    by size, then in combination order."""
    top = min(size_cap, len(pool))
    _combo_guard(len(pool), top)
    for k in range(1, top + 1):
        yield from itertools.combinations(pool, k)


def _combo_guard(pool: int, top: int):
    total = sum(math.comb(pool, k) for k in range(1, top + 1))
    if total > _COMBO_BUDGET:
        raise CapExceeded(
            f"exhaustive subset enumeration would visit {total} sets "
            f"(> {_COMBO_BUDGET}); shrink the ball or the size cap",
            partial=total,
        )


def csc_check(spec: str, n: int, radius: Optional[int] = None,
              size_cap: int = 12) -> dict:
    """Check Fol(n) >= v(n)/2 on the given group family.

    ``fol`` is ``fol_exact`` on the ball of the given radius (n + 2 by
    default): an upper bound on Fol(n), so ``holds`` is certified only for
    the interior subsets of that ball.  v(n) is counted in the same ball
    when its radius reaches n.
    """
    if radius is None:
        radius = n + 2
    gset = make_gset(spec)
    graph = build_ball(gset, radius)
    fol = fol_exact(graph, n, size_cap=size_cap)
    if fol is None:
        raise CapExceeded(
            f"no Folner-function witness for n={n} within size cap {size_cap}"
        )
    if radius >= n:
        volume = sum(1 for depth in graph.depths.values() if depth <= n)
    else:
        volume = growth_series(spec, n)[n]
    bound = Fraction(volume, 2)
    return {
        "group": spec,
        "n": n,
        "fol": fol,
        "bound": bound,
        "holds": fol >= bound,
    }
