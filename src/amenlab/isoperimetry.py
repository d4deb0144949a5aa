"""Growth series, Folner-set search, exact small Folner function values,
and the Coulhon--Saloff-Coste bound checker.

Two notions of boundary ratio appear:

* the one-sided ratio #(F s \\ F) / #F used by the search routines, and
* the symmetric-difference condition #(F delta F s) < #F / n (strict!) that
  defines the Folner function ``fol_exact``.

All ratios are exact rationals.  ``fol_exact`` enumerates every interior
subset up to the size cap; on a truncated ball its value is exact for the full
G-set only when an interior witness exists (the enumeration reports exactly
what it searched).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Optional

from .errors import CapExceeded, ValidationError
from .orbits import MarkedGSet, SchreierGraph, build_ball, make_gset

_COMBO_BUDGET = 5_000_000


class GrowthSeries:
    """Ball sizes v(0..n) of a marked group."""

    def __init__(self, spec: str, values: List[int], generators: int):
        self.spec = spec
        self.values = list(values)
        self.generators = generators

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
    """A candidate Folner set with exact per-generator ratios."""

    def __init__(self, gset: MarkedGSet, subset, ratios: Dict[str, Fraction],
                 mode: str, epsilon: Optional[Fraction], success: bool):
        self.gset = gset
        self.subset = list(subset)
        self.ratios = ratios
        self.worst = max(ratios.values()) if ratios else Fraction(0)
        self.mode = mode
        self.epsilon = epsilon
        self.success = success

    def to_json(self) -> str:
        show = self.gset.show_key
        payload = {
            "gset": self.gset.spec,
            "mode": self.mode,
            "epsilon": None if self.epsilon is None else str(self.epsilon),
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
    gset = make_gset(spec)
    graph = build_ball(gset, n)
    counts = [0] * (n + 1)
    for depth in graph.depths.values():
        counts[depth] += 1
    values = list(itertools.accumulate(counts))
    return GrowthSeries(spec, values, len(gset.edge_letters()))


def folner_ratios(gset: MarkedGSet, subset) -> Dict[str, Fraction]:
    """Exact one-sided ratios #(F s \\ F) / #F for every generator letter."""
    members = set(subset)
    if not members:
        raise ValidationError("Folner candidate set must be nonempty")
    out: Dict[str, Fraction] = {}
    for letter in gset.edge_letters():
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
    gset = graph.gset
    interior = sorted(graph.interior(), key=gset.show_key)
    if not interior:
        raise ValidationError("no interior vertices; build a larger ball")
    if mode == "exhaustive":
        found = _exhaustive_below(gset, interior, epsilon, size_cap)
        if found is not None:
            ratios = folner_ratios(gset, found)
            return FolnerReport(gset, found, ratios, mode, epsilon, True)
        best = min(
            (frozenset(c)
             for k in range(1, min(size_cap, len(interior)) + 1)
             for c in itertools.combinations(interior, k)),
            key=lambda c: worst_ratio(gset, c),
        )
        return FolnerReport(gset, best, folner_ratios(gset, best), mode,
                            epsilon, False)
    if mode == "greedy":
        return _greedy_search(graph, epsilon)
    if mode == "anneal":
        if seed is None:
            raise ValidationError("anneal mode requires a seed")
        return _anneal_search(graph, epsilon, seed, steps)
    raise ValidationError(f"unknown search mode {mode!r}")


def _exhaustive_below(gset, interior, epsilon, size_cap):
    top = min(size_cap, len(interior))
    _combo_guard(len(interior), top)
    for k in range(1, top + 1):
        for combo in itertools.combinations(interior, k):
            members = frozenset(combo)
            if worst_ratio(gset, members) < epsilon:
                return members
    return None


def _greedy_search(graph: SchreierGraph, epsilon: Fraction) -> FolnerReport:
    gset = graph.gset
    current = {graph.base_key}
    best = frozenset(current)
    best_worst = worst_ratio(gset, current)
    while best_worst >= epsilon:
        candidates = [
            v
            for u in current
            for _letter, v in graph.out_edges(u)
            if v not in current and graph.is_interior(v)
        ]
        if not candidates:
            break
        scored = [
            (worst_ratio(gset, current | {v}), gset.show_key(v), v)
            for v in set(candidates)
        ]
        scored.sort(key=lambda t: (t[0], t[1]))
        current.add(scored[0][2])
        w = worst_ratio(gset, current)
        if w < best_worst:
            best, best_worst = frozenset(current), w
    success = best_worst < epsilon
    return FolnerReport(gset, best, folner_ratios(gset, best), "greedy",
                        epsilon, success)


def _anneal_search(graph: SchreierGraph, epsilon: Fraction, seed: int,
                   steps: int) -> FolnerReport:
    gset = graph.gset
    rng = random.Random(seed)
    interior = sorted(graph.interior(), key=gset.show_key)
    current = {v for v in interior if graph.depths[v] <= 1}
    if not current:
        current = {graph.base_key}
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
    success = best_worst < epsilon
    return FolnerReport(gset, best, folner_ratios(gset, best), "anneal",
                        epsilon, success)


def fol_exact(graph: SchreierGraph, n: int,
              size_cap: int = 12) -> Optional[int]:
    """Least interior #F with #(F delta F s) < #F / n for every letter s.

    Strict inequality, per the definition of the Folner function.  Returns
    None when no interior subset within the size cap qualifies.
    """
    if n < 1:
        raise ValidationError("Folner function argument must be >= 1")
    gset = graph.gset
    letters = gset.edge_letters()
    interior = sorted(graph.interior(), key=gset.show_key)
    top = min(size_cap, len(interior))
    _combo_guard(len(interior), top)
    for k in range(1, top + 1):
        for combo in itertools.combinations(interior, k):
            members = frozenset(combo)
            if _fol_condition(gset, members, letters, n):
                return k
    return None


def _fol_condition(gset, members, letters, n) -> bool:
    size = len(members)
    for letter in letters:
        translated = {gset.act(v, letter) for v in members}
        sym_diff = len(members ^ translated)
        if n * sym_diff >= size:  # need sym_diff < size / n strictly
            return False
    return True


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
    """Check Fol(n) >= v(n)/2 on the given group family."""
    if radius is None:
        radius = n + 2
    gset = make_gset(spec)
    graph = build_ball(gset, radius)
    fol = fol_exact(graph, n, size_cap=size_cap)
    if fol is None:
        raise CapExceeded(
            f"no Folner-function witness for n={n} within size cap {size_cap}"
        )
    series = growth_series(spec, n)
    bound = Fraction(series[n], 2)
    return {
        "group": spec,
        "n": n,
        "fol": fol,
        "bound": bound,
        "holds": fol >= bound,
    }
