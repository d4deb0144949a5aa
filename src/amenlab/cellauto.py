"""Cellular automata on groups: window stepping, Garden-of-Eden and
mutually-erasable-pattern search, linear rules over finite fields given by
group-ring matrices, entropy on finite boxes, and the overlaps set family.

Sites live in a SiteSpace: Z^d (optionally with periodic moduli, giving exact
global dynamics on a torus) or a free product of cyclic groups of order 2
given by reduced strings.  A local rule theta reads the values on g.S in a
fixed memory order and emits one value; stepping only writes the interior
E = {g : g.S inside the window}, so no boundary data is ever invented.

Finite-field linear algebra is exact integer arithmetic mod p throughout.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, permutations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded, ValidationError, check_vertex_count


# -- site spaces ---------------------------------------------------------------

class ZdSpace:
    """Z^d sites as integer tuples; optional moduli make it a finite torus."""

    def __init__(self, dim: int, mods: Optional[Sequence[int]] = None):
        if dim < 1:
            raise ValidationError("dimension must be >= 1")
        if mods is not None:
            mods = tuple(mods)
            if len(mods) != dim or any(m < 1 for m in mods):
                raise ValidationError("bad torus moduli")
        self.dim = dim
        self.mods = mods

    @property
    def identity(self):
        return (0,) * self.dim

    def mul(self, site, step):
        out = tuple(a + b for a, b in zip(site, step))
        if self.mods is not None:
            out = tuple(a % m for a, m in zip(out, self.mods))
        return out

    def inverse(self, step):
        return tuple(-a for a in step)

    def ball(self, radius: int) -> List:
        """Chebyshev ball (box window), sorted; the whole group on a torus."""
        if radius < 0:
            raise ValidationError("radius must be >= 0")
        if self.mods is not None:
            return sorted(product(*(range(m) for m in self.mods)))
        check_vertex_count((2 * radius + 1) ** self.dim, "site window")
        return sorted(product(range(-radius, radius + 1), repeat=self.dim))

    def all_sites(self) -> List:
        if self.mods is None:
            raise ValidationError("infinite site space")
        return self.ball(0)

    def __repr__(self):
        return f"ZdSpace(dim={self.dim}, mods={self.mods})"


class InvolutionProductSpace:
    """Free product of copies of Z/2: sites are reduced strings, e.g. 'abac'.

    Deliberately a site space, not a registered group spec: rules read sites
    through ``mul`` by multi-letter memory steps, and patterns and printed
    certificates are keyed by these strings in (length, string) order.
    """

    def __init__(self, letters: str = "abc"):
        if len(set(letters)) != len(letters) or not letters:
            raise ValidationError("letters must be distinct and nonempty")
        self.letters = letters

    @property
    def identity(self) -> str:
        return ""

    def mul(self, site: str, step: str) -> str:
        out = site
        for ch in step:
            if ch not in self.letters:
                raise ValidationError(f"unknown letter {ch!r}")
            if out and out[-1] == ch:
                out = out[:-1]
            else:
                out = out + ch
        return out

    def inverse(self, step: str) -> str:
        return step[::-1]

    def ball(self, radius: int) -> List[str]:
        if radius < 0:
            raise ValidationError("radius must be >= 0")
        out = [""]
        frontier = [""]
        for _ in range(radius):
            new = []
            for site in frontier:
                for ch in self.letters:
                    if not site or site[-1] != ch:
                        new.append(site + ch)
            out.extend(new)
            frontier = new
            check_vertex_count(len(out), "site window")
        return sorted(out, key=lambda s: (len(s), s))

    def __repr__(self):
        return f"InvolutionProductSpace({self.letters!r})"


# -- rules and patterns --------------------------------------------------------

class LocalRule:
    """A local rule theta: A^S -> A with an explicit memory order."""

    def __init__(self, space, alphabet: Sequence, memory: Sequence, theta,
                 quiescent=None, name: str = "rule"):
        self.space = space
        self.alphabet = tuple(alphabet)
        self.memory = tuple(memory)
        self.theta = theta
        self.quiescent = quiescent
        self.name = name
        if quiescent is not None and quiescent not in self.alphabet:
            raise ValidationError("quiescent state must belong to the alphabet")

    def evaluate(self, values: Tuple) -> object:
        out = self.theta(values)
        if out not in self.alphabet:
            raise ValidationError("rule emitted a value outside the alphabet")
        return out

    def __repr__(self):
        return (f"LocalRule({self.name!r}, #A={len(self.alphabet)}, "
                f"#S={len(self.memory)})")


class CellPattern:
    """Values on a finite window of sites; total on the window."""

    def __init__(self, space, values: Dict):
        self.space = space
        self.values = dict(values)
        self.window = frozenset(self.values)

    def __getitem__(self, site):
        return self.values[site]

    def __eq__(self, other):
        return (isinstance(other, CellPattern)
                and self.values == other.values)

    def __hash__(self):
        return hash(frozenset(self.values.items()))

    def support(self, quiescent) -> frozenset:
        return frozenset(s for s, v in self.values.items() if v != quiescent)

    def translate(self, by):
        return CellPattern(
            self.space,
            {self.space.mul(by, s): v for s, v in self.values.items()},
        )

    def padded(self, rule: LocalRule) -> "CellPattern":
        """Grow the window by memory translates, filling with the quiescent
        state, so that the old window becomes interior."""
        if rule.quiescent is None:
            raise ValidationError("padding needs a quiescent state")
        values = dict(self.values)
        for site in self.values:
            for step in rule.memory:
                values.setdefault(self.space.mul(site, step), rule.quiescent)
        return CellPattern(self.space, values)

    def to_json(self) -> str:
        cells = sorted(
            ({"site": list(s) if isinstance(s, tuple) else s, "value": v}
             for s, v in self.values.items()),
            key=lambda c: str(c["site"]),
        )
        return json.dumps({"cells": cells}, sort_keys=True, default=str)

    def __repr__(self):
        return f"CellPattern({len(self.values)} cells)"


def pattern_from_alive(space, window: Iterable, alive: Iterable) -> CellPattern:
    """Two-state pattern: 1 on the listed cells, 0 elsewhere on the window."""
    alive = set(alive)
    window = set(window)
    if not alive <= window:
        raise ValidationError("alive cells must lie inside the window")
    return CellPattern(space, {s: (1 if s in alive else 0) for s in window})


def interior_sites(rule: LocalRule, window: frozenset) -> List:
    out = [g for g in sorted(window, key=str)
           if all(rule.space.mul(g, s) in window for s in rule.memory)]
    return out


def ca_step(rule: LocalRule, pattern: CellPattern) -> CellPattern:
    """One synchronous step, emitted on the interior of the window only."""
    interior = interior_sites(rule, pattern.window)
    if not interior:
        raise ValidationError("window too small: no interior site")
    out = {}
    for g in interior:
        values = tuple(pattern[rule.space.mul(g, s)] for s in rule.memory)
        out[g] = rule.evaluate(values)
    return CellPattern(rule.space, out)


# -- concrete rules ------------------------------------------------------------

def life_rule() -> LocalRule:
    """Conway's Game of Life on Z^2; alphabet {0,1}, 1 = alive."""
    space = ZdSpace(2)
    memory = tuple(sorted(product((-1, 0, 1), repeat=2)))
    centre = memory.index((0, 0))

    def theta(values):
        alive = sum(values) - values[centre]
        if values[centre] == 1:
            return 1 if alive in (2, 3) else 0
        return 1 if alive == 3 else 0

    return LocalRule(space, (0, 1), memory, theta, quiescent=0, name="life")


def and_rule_z() -> LocalRule:
    """theta(x)(m) = x(m) AND x(m+1) on Z."""
    space = ZdSpace(1)
    return LocalRule(space, (0, 1), ((0,), (1,)),
                     lambda v: v[0] & v[1], quiescent=0, name="and:z")


def xor_rule_z() -> LocalRule:
    """theta(x)(m) = x(m) + x(m+1) mod 2 on Z (the rule of 1 + t)."""
    space = ZdSpace(1)
    return LocalRule(space, (0, 1), ((0,), (1,)),
                     lambda v: v[0] ^ v[1], quiescent=0, name="xor:z")


# -- exhaustive GOE / MEP search -----------------------------------------------

def _enumerate_patterns(space, sites: Sequence, alphabet: Sequence):
    for combo in product(alphabet, repeat=len(sites)):
        yield CellPattern(space, dict(zip(sites, combo)))


def _images_on(rule: LocalRule, window: Sequence, budget: int,
               scan: str) -> set:
    """The restrictions to the window of the images of every configuration
    on its memory-extended window, each a tuple in the window's order."""
    extended = set(window)
    for g in window:
        for s in rule.memory:
            extended.add(rule.space.mul(g, s))
    extended = sorted(extended, key=str)
    total = len(rule.alphabet) ** len(extended)
    if total > budget:
        raise CapExceeded(
            f"{scan} scan needs {total} preimages (> budget {budget})",
            partial=total,
        )
    images = set()
    for x in _enumerate_patterns(rule.space, extended, rule.alphabet):
        images.add(tuple(
            rule.evaluate(tuple(x[rule.space.mul(g, s)] for s in rule.memory))
            for g in window
        ))
    return images


def goe_search(rule: LocalRule, window: Iterable,
               budget: int = 1 << 20) -> Optional[CellPattern]:
    """First pattern on the window outside the automaton's image, or None.

    Exhaustive over all inputs on the memory-extended window FS; a None
    verdict is a certificate at this window only (never a global claim on an
    infinite group).
    """
    window = sorted(set(window), key=str)
    reachable = _images_on(rule, window, budget, "GOE")
    for combo in product(rule.alphabet, repeat=len(window)):
        if combo not in reachable:
            return CellPattern(rule.space, dict(zip(window, combo)))
    return None


def _image_on(rule: LocalRule, config: Dict, sites: Sequence) -> Tuple:
    """Image values at the given sites, reading the quiescent background
    outside the config's support."""
    background = rule.quiescent
    out = []
    for g in sites:
        values = tuple(
            config.get(rule.space.mul(g, s), background) for s in rule.memory
        )
        out.append(rule.evaluate(values))
    return tuple(out)


def mep_search(rule: LocalRule, support_bound: int,
               budget: int = 1 << 20) -> Optional[Tuple[CellPattern, CellPattern]]:
    """Two distinct quiescent-background patterns with equal image, or None.

    The common background is pinned to the quiescent state (the only finitely
    checkable normal form of cofinite agreement).  Supports range over the
    radius-``support_bound`` window; images are compared on every site whose
    memory window meets it, which decides global equality of the images.
    """
    if rule.quiescent is None:
        raise ValidationError("MEP search needs a quiescent state")
    region = rule.space.ball(support_bound)
    total = len(rule.alphabet) ** len(region)
    if total > budget:
        raise CapExceeded(
            f"MEP scan needs {total} configurations (> budget {budget})",
            partial=total,
        )
    # sites whose image can differ from the background's image
    check = set(region)
    for g in region:
        for s in rule.memory:
            check.add(rule.space.mul(g, rule.space.inverse(s)))
    check = sorted(check, key=str)
    seen: Dict[Tuple, CellPattern] = {}
    ordered = sorted(
        product(rule.alphabet, repeat=len(region)),
        key=lambda combo: (sum(1 for v in combo if v != rule.quiescent), combo),
    )
    for combo in ordered:
        pattern = CellPattern(rule.space, dict(zip(region, combo)))
        config = {s: v for s, v in pattern.values.items()
                  if v != rule.quiescent}
        image = _image_on(rule, config, check)
        if image in seen:
            return (pattern, seen[image])
        seen[image] = pattern
    return None


# -- linear rules over F_p -----------------------------------------------------

class GroupRingMatrix:
    """n x n matrix over F_p[G]; entries are dicts {group element: coeff}."""

    def __init__(self, space, n: int, p: int, entries):
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValidationError("field order must be a prime")
        self.space = space
        self.n = n
        self.p = p
        self.entries = [
            [{g: c % p for g, c in entries[i][j].items() if c % p}
             for j in range(n)]
            for i in range(n)
        ]

    def support(self) -> List:
        out = set()
        for row in self.entries:
            for entry in row:
                out.update(entry)
        return sorted(out, key=str)

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix)
                and (self.n, self.p) == (other.n, other.p)
                and self.entries == other.entries)

    def __repr__(self):
        return f"GroupRingMatrix(n={self.n}, p={self.p})"


def linca_adjoint(matrix: GroupRingMatrix) -> GroupRingMatrix:
    """(M*)_{ij} = (M_{ji})* with g* = g^{-1} extended linearly."""
    space = matrix.space
    entries = [
        [{space.inverse(g): c for g, c in matrix.entries[j][i].items()}
         for j in range(matrix.n)]
        for i in range(matrix.n)
    ]
    return GroupRingMatrix(space, matrix.n, matrix.p, entries)


def right_multiply(matrix: GroupRingMatrix, config: Dict) -> Dict:
    """x . M for a finitely supported config {site: value vector}."""
    p = matrix.p
    out: Dict = {}
    for site, vector in config.items():
        for i in range(matrix.n):
            if vector[i] == 0:
                continue
            for j in range(matrix.n):
                for u, coeff in matrix.entries[i][j].items():
                    target = matrix.space.mul(site, u)
                    acc = list(out.get(target, (0,) * matrix.n))
                    acc[j] = (acc[j] + vector[i] * coeff) % p
                    out[target] = tuple(acc)
    return {s: v for s, v in out.items() if any(v)}


def pairing(x: Dict, y: Dict, p: int) -> int:
    """<x, y> = sum over sites of the dot product, mod p."""
    total = 0
    for site, vector in x.items():
        other = y.get(site)
        if other is not None:
            total += sum(a * b for a, b in zip(vector, other))
    return total % p


def linca_rule(matrix: GroupRingMatrix) -> LocalRule:
    """The local rule of x -> xM: memory {u^-1 : u in supp M}."""
    p = matrix.p
    n = matrix.n
    support = matrix.support()
    memory = tuple(matrix.space.inverse(u) for u in support)
    alphabet = tuple(product(range(p), repeat=n))

    def theta(values):
        out = [0] * n
        for idx, u in enumerate(support):
            vector = values[idx]
            for i in range(n):
                if vector[i] == 0:
                    continue
                for j in range(n):
                    coeff = matrix.entries[i][j].get(u, 0)
                    if coeff:
                        out[j] = (out[j] + vector[i] * coeff) % p
        return tuple(out)

    return LocalRule(matrix.space, alphabet, memory, theta,
                     quiescent=(0,) * n, name="linear")


def _row_reduce_mod_p(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """In-place Gauss-Jordan over F_p; returns (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: List[int] = []
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p > 2 else rows[rank][col]
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col] % p
                rows[r] = [(a - factor * b) % p
                           for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def linca_kernel_basis(matrix: GroupRingMatrix,
                       support_radius: int) -> List[Dict]:
    """Basis of {x supported in B(r) : xM = 0}, exact over F_p.

    An empty list certifies pre-injectivity at this support scale.
    """
    space = matrix.space
    p = matrix.p
    ball = space.ball(support_radius)
    support = matrix.support()
    targets = sorted(
        {space.mul(g, u) for g in ball for u in support}, key=str
    )
    target_index = {t: i for i, t in enumerate(targets)}
    # unknowns: x_i(g) for g in ball, i < n; equations: (xM)_j(h) = 0, so
    # the column of x_i(g) is e_{g,i} M
    columns = []
    for g in ball:
        for i in range(matrix.n):
            unit = tuple(int(j == i) for j in range(matrix.n))
            column = [0] * (len(targets) * matrix.n)
            for h, vector in right_multiply(matrix, {g: unit}).items():
                column[target_index[h] * matrix.n:
                       (target_index[h] + 1) * matrix.n] = vector
            columns.append(column)
    # kernel of the transpose system: solve A x = 0 where A columns as above
    height = len(targets) * matrix.n
    rows = [[columns[c][r] for c in range(len(columns))]
            for r in range(height)]
    reduced, pivots = _row_reduce_mod_p(rows, p) if rows else ([], [])
    free_cols = [c for c in range(len(columns)) if c not in pivots]
    basis = []
    for free in free_cols:
        vector = [0] * len(columns)
        vector[free] = 1
        for row, col in zip(reduced, pivots):
            vector[col] = (-row[free]) % p
        config: Dict = {}
        for idx, value in enumerate(vector):
            if value:
                g = ball[idx // matrix.n]
                i = idx % matrix.n
                acc = list(config.get(g, (0,) * matrix.n))
                acc[i] = value
                config[g] = tuple(acc)
        basis.append(config)
    return basis


def muller_matrix(p: int = 2) -> GroupRingMatrix:
    """The pre-injective, non-surjective linear rule on C2 * C2 * C2."""
    space = InvolutionProductSpace("abc")
    entries = [
        [{"a": 1, "b": 1}, {}],
        [{"b": 1, "c": 1}, {}],
    ]
    return GroupRingMatrix(space, 2, p, entries)


# -- entropy -------------------------------------------------------------------

def entropy_estimate(rule: LocalRule, boxes: Sequence[Iterable],
                     budget: int = 1 << 20) -> List[float]:
    """log(#image restrictions to F) / #F for each window F, exact counts."""
    out = []
    for box in boxes:
        window = sorted(set(box), key=str)
        restrictions = _images_on(rule, window, budget, "entropy")
        out.append(math.log(len(restrictions)) / len(window))
    return out


# -- the overlaps family -------------------------------------------------------

class OverlapsFamily:
    """Cycle classes of Sym(n) with the subsets X_i = {classes through i}.

    ``ground`` is the set of (cycle support, permutation) classes, of size
    sum_{i<=n} n!/i; for n >= 2 the sentinel point "*" is appended to Y so
    that the union of the X_i is proper.
    """

    def __init__(self, n: int):
        if not 1 <= n <= 8:
            raise ValidationError("overlaps family needs 1 <= n <= 8")
        self.n = n
        ground = set()
        for sigma in permutations(range(1, n + 1)):
            seen = set()
            for start in range(1, n + 1):
                if start in seen:
                    continue
                orbit = [start]
                seen.add(start)
                current = sigma[start - 1]
                while current != start:
                    orbit.append(current)
                    seen.add(current)
                    current = sigma[current - 1]
                ground.add((frozenset(orbit), sigma))
        self.ground = frozenset(ground)
        self.sentinel = "*" if n >= 2 else None
        self.subsets = [
            frozenset(c for c in ground if i in c[0])
            for i in range(1, n + 1)
        ]
        self._verify()

    @property
    def y(self) -> frozenset:
        if self.sentinel is None:
            return self.ground
        return self.ground | {self.sentinel}

    def x_restricted(self, i: int, index_set: Iterable[int]) -> frozenset:
        """X_{i,I} = X_i minus the union of X_j over j in I, j != i."""
        index_set = set(index_set)
        if i not in index_set:
            raise ValidationError("i must belong to the index set")
        out = set(self.subsets[i - 1])
        for j in index_set - {i}:
            out -= self.subsets[j - 1]
        return frozenset(out)

    def _verify(self):
        n = self.n
        expected = sum(math.factorial(n) // i for i in range(1, n + 1))
        if len(self.ground) != expected:
            raise ValidationError("overlaps ground-set count failed")
        index_range = range(1, n + 1)
        # full verification is cheap up to n=5; beyond that, check the
        # extreme index sets (singletons and the full set)
        if n <= 5:
            index_sets = [set(c) for size in index_range
                          for c in combinations(index_range, size)]
        else:
            index_sets = [{i} for i in index_range] + [set(index_range)]
        for index_set in index_sets:
            for i in index_set:
                got = len(self.x_restricted(i, index_set))
                if got * len(index_set) != math.factorial(n):
                    raise ValidationError(
                        f"overlaps invariant failed at i={i}, I={index_set}"
                    )
        # the displayed lower bound, checked against the cycle classes; the
        # sentinel only preserves it once #ground >= 9 + 10 log n (n >= 4),
        # so small n are certified on the un-augmented set
        reference = self.ground if n < 4 else self.y
        bound_checks = all(
            len(self.x_restricted(i, index_set)) * (1 + math.log(n)) \
                * len(index_set) >= len(reference)
            for index_set in index_sets for i in index_set
        )
        if not bound_checks:
            raise ValidationError("overlaps lower bound failed")

    def __repr__(self):
        return f"OverlapsFamily(n={self.n}, #Y={len(self.y)})"
