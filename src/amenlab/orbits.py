"""Marked G-sets and their Schreier/Cayley graphs.

A ``MarkedGSet`` is an action oracle: canonical vertex keys plus a right
action of the generators.  ``build_ball`` materializes the labeled ball around
the basepoint as one neighbour column per letter over BFS ids, which the
analyses consume: ``walk_counts`` is the one exact integer walk DP on such
ids, and ``boundary_edges`` counts outgoing edges, refusing sets that touch
the outer BFS shell (whose neighborhoods are unknown).  Nothing here loads
numpy.

Registered specs (``make_gset`` is the one resolver every entry point uses):

* ``cayley:<group>``     regular action on itself (any registered group,
                         including ``grigorchuk`` and ``basilica``); a bare
                         group spec ``<group>`` means ``cayley:<group>``
* ``orbit:<family>:depth=<d>[:base=<w>]``  action on tree level d
* ``coset:f2``           H\\F2 with H = <b^m a b^-m : m >= 0>, marked by the
                         generators a, b of ``free:2``

The coset action uses the fact that the subgroup graph of H folds to a b-ray
with an a-loop at every vertex; hence canonical coset keys are b^k (k >= 0)
together with the reduced words starting with b^-1, and membership of a
reduced word in H amounts to all prefix b-sums being >= 0 with total 0.
"""

from __future__ import annotations

import json
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from . import selfsim
from .errors import (CapExceeded, ValidationError, check_vertex_count,
                     vertex_budget)
from .groups import Letter, MarkedGroup, Word, _free_reduce, _parse_rank


class MarkedGSet:
    """A right action with canonical vertex keys; ``canonical`` maps any
    key of the family to the canonical key of the same vertex.

    ``letters`` lists the edge letters, (gen, 1) and, unless gen is an
    involution, (gen, -1).  The letter table built here is the one place
    that validates a letter and knows the involution rule: an involution's
    two signs share one column, so its (gen, -1) acts as (gen, 1)."""

    def __init__(self, spec: str, names: Tuple[str, ...],
                 involutions: Tuple[bool, ...], base_key,
                 act_letter: Callable, show_key: Callable,
                 group: Optional[MarkedGroup] = None,
                 canonical: Optional[Callable] = None):
        self.spec = spec
        self.names = names
        self.involutions = involutions
        self.base_key = base_key
        self._act_letter = act_letter
        self.show_key = show_key
        self.group = group
        self.canonical = canonical or (lambda key: key)
        letters: list[Letter] = []
        self._columns: Dict[Letter, int] = {}
        for gen, involution in enumerate(involutions):
            for sign in (1, -1):
                if sign == 1 or not involution:
                    letters.append((gen, sign))
                self._columns[(gen, sign)] = len(letters) - 1
        self.letters = tuple(letters)

    def column(self, letter: Letter) -> int:
        """The index in ``letters`` of the edge ``letter`` walks along;
        ValidationError for a letter that is not in the table."""
        try:
            return self._columns[letter]
        except (KeyError, TypeError):
            raise ValidationError(f"bad letter {letter!r}") from None

    def act(self, key, letter: Letter):
        """The image of ``key`` under ``letter``, read through the letter
        table; ``key`` must be the base key or a value that ``act``
        returned, since the free and coset actions step from a canonical
        key."""
        return self._act_letter(key, self.letters[self.column(letter)])

    def act_word(self, key, word: Word):
        for letter in word:
            key = self.act(key, letter)
        return key

    def letter_name(self, letter: Letter) -> str:
        gen, sign = letter
        return self.names[gen] if sign == 1 else f"{self.names[gen]}^-1"

    def __repr__(self):
        return f"MarkedGSet({self.spec!r})"


class SchreierGraph:
    """A labeled BFS ball: vertex ``keys`` numbered in BFS order, their
    ``depths``, and one neighbour column per letter: ``columns[c][i]`` is
    the id of ``keys[i]`` acted on by ``letters[c]``, or -1 outside the
    ball."""

    def __init__(self, gset: MarkedGSet, radius: int, depths: Dict,
                 ids: Dict, keys: List, columns: List[array]):
        self.gset = gset
        self.radius = radius
        self.depths = depths
        self.ids = ids
        self.keys = keys
        self.columns = columns
        self.letters = gset.letters
        self.base_key = gset.base_key

    @property
    def vertices(self):
        return self.depths.keys()

    @property
    def edges(self) -> List[Tuple]:
        """(src, letter, dst) for every edge inside the ball, in id order."""
        return [(key, letter, w)
                for key in self.keys for letter, w in self.out_edges(key)]

    def interior(self):
        """Vertices whose whole neighborhood lies inside the ball."""
        return [v for v, d in self.depths.items() if d <= self.radius - 1]

    def is_interior(self, key) -> bool:
        return key in self.depths and self.depths[key] <= self.radius - 1

    def out_edges(self, key):
        if key not in self.ids:
            return []
        i = self.ids[key]
        return [(letter, self.keys[column[i]])
                for letter, column in zip(self.letters, self.columns)
                if column[i] >= 0]

    def column(self, letter: Letter) -> int:
        """The column of ``letter``, from the gset's letter table."""
        return self.gset.column(letter)

    def word_edges(self, word: Word) -> Tuple[List[int], List[int]]:
        """The ids i whose key acted on by ``word`` lies in the ball, and the
        ids of those targets.  A path that leaves the ball before the word
        ends is finished on keys, since it may come back."""
        targets = list(range(len(self.keys)))
        returned = {}
        for pos, letter in enumerate(word):
            column = self.columns[self.column(letter)]
            if pos + 1 < len(word):
                for i, t in enumerate(targets):
                    if t >= 0 and column[t] < 0:
                        key = self.gset.act_word(self.keys[t], word[pos:])
                        returned[i] = self.ids.get(key, -1)
            targets = [column[t] if t >= 0 else -1 for t in targets]
        for i, t in returned.items():
            targets[i] = t
        src = [i for i, t in enumerate(targets) if t >= 0]
        return src, [targets[i] for i in src]

    def to_json(self) -> str:
        """The ball as JSON: vertices by (depth, shown key), edges by shown
        (src, gen, dst).  Shown keys and letter names are unique, and each
        (src, letter) has one target, so both orders are id orders: sources
        sorted by shown key, then columns by letter name."""
        shown = [self.gset.show_key(key) for key in self.keys]
        names = [self.gset.letter_name(letter) for letter in self.letters]
        by_shown = sorted(range(len(shown)), key=shown.__getitem__)
        depth = [self.depths[key] for key in self.keys]
        vertices = [{"key": shown[i], "depth": depth[i]}
                    for i in sorted(by_shown, key=depth.__getitem__)]
        by_name = [(names[c], self.columns[c])
                   for c in sorted(range(len(names)), key=names.__getitem__)]
        edges = [{"src": shown[i], "gen": name, "dst": shown[column[i]]}
                 for i in by_shown for name, column in by_name
                 if column[i] >= 0]
        payload = {
            "group": self.gset.spec,
            "basepoint": shown[0],
            "radius": self.radius,
            "vertices": vertices,
            "edges": edges,
        }
        return json.dumps(payload, sort_keys=True)


# -- coset action H\F2 ----------------------------------------------------

_A, _B = 0, 1


def coset_canonical(word: Word) -> Word:
    """Canonical key of the coset H w (shortest representative).

    Keys are b^k for the ray and reduced words starting with b^-1 for the
    hanging tree.
    """
    word = _free_reduce(word)
    on_ray = True
    ray = 0
    tree: list[Letter] = []
    for letter in word:
        gen, sign = letter
        if on_ray:
            if gen == _A:
                continue  # a-loops along the whole nonnegative ray
            if sign == 1:
                ray += 1
            elif ray > 0:
                ray -= 1
            else:
                on_ray = False
                tree = [(_B, -1)]
        else:
            if tree and tree[-1] == (gen, -sign):
                tree.pop()
                if not tree:
                    on_ray = True
                    ray = 0
            else:
                tree.append(letter)
    if on_ray:
        return tuple((_B, 1) for _ in range(ray))
    return tuple(tree)


def _free_step(key: Word, letter: Letter) -> Word:
    """``key letter`` freely reduced, for a reduced ``key``: the letter
    cancels against the last one or is appended."""
    gen, sign = letter
    if key and key[-1] == (gen, -sign):
        return key[:-1]
    return key + (letter,)


def _coset_step(key: Word, letter: Letter) -> Word:
    """``coset_canonical(key + (letter,))`` for a canonical ``key``.  On
    the ray (``()`` or b^k) a is a loop and b moves along it; a key
    starting with b^-1 lies on the hanging tree and steps freely."""
    if not key or key[0] == (_B, 1):
        gen, sign = letter
        if gen == _A:
            return key
        if sign == 1:
            return key + (letter,)
        return key[:-1] if key else ((_B, -1),)
    return _free_step(key, letter)


def coset_contains(word: Word) -> bool:
    """Membership of a word in H = <b^m a b^-m : m >= 0>."""
    return coset_canonical(word) == ()


# -- gset construction ------------------------------------------------------

def make_gset(spec: str) -> MarkedGSet:
    """The G-set named by ``spec``; its ``.spec`` is the ``cayley:`` form of a
    bare group spec."""
    spec = spec.strip()
    if spec == "coset:f2":
        group = MarkedGroup.from_spec("free:2")
        return MarkedGSet(
            spec, group.names, group.involutions, (), _coset_step,
            show_key=lambda key: "H" if not key else "H " + group.show(key),
            group=group, canonical=coset_canonical,
        )
    if spec.startswith("orbit:"):
        return _make_orbit(spec)
    if not spec.startswith("cayley:"):
        spec = f"cayley:{spec}"
    group_spec = spec[len("cayley:"):]
    if group_spec in (selfsim.GRIGORCHUK, selfsim.BASILICA):
        return _make_selfsim_cayley(spec, group_spec)
    group = MarkedGroup.from_spec(group_spec)

    def act(key, letter):
        return group.compose(key, (letter,))

    return MarkedGSet(
        spec, group.names, group.involutions, group.identity,
        _free_step if group.family == "free" else act,
        show_key=group.show, group=group, canonical=group.normal_form,
    )


def _selfsim_family(family: str):
    """Generator names, involution flags and the element of each letter of a
    self-similar family; each generator and its inverse is built once."""
    if family == selfsim.GRIGORCHUK:
        names, make = ("a", "b", "c", "d"), selfsim.grigorchuk
    elif family == selfsim.BASILICA:
        names, make = ("a", "b"), selfsim.basilica
    else:
        raise ValidationError(f"unknown self-similar family {family!r}")
    elements = {}
    for gen, name in enumerate(names):
        elements[(gen, 1)] = make(name)
        elements[(gen, -1)] = elements[(gen, 1)].inverse()
    return names, (family == selfsim.GRIGORCHUK,) * len(names), elements


# Level of the tree whose action buckets the self-similar Cayley
# canonicalizers: deep enough to keep the buckets short (they are scanned
# linearly), shallow enough to store 256 bytes per element.
_SIGNATURE_DEPTH = 8


class _SelfsimCanonicalizer:
    """Dedup of tree automorphisms, bucketed by their action on one level of
    the tree and decided by the exact equality oracle.

    Two elements with the same reduced word are the same element, so a
    dict from reduced words to canonical elements answers first; it learns
    the word of every element looked up.  Otherwise a level permutation,
    as bytes, names a bucket: the canonical elements with that action, in
    insertion order.  An element is the first member of its bucket that
    ``selfsim.equals_selfsim`` finds equal to it, or joins the bucket as a
    new canonical element; so the level only has to be deep enough to keep
    buckets small, and no merge is unverified.  Acting by a letter s on a
    known element g is one byte translation, perm(g s) = perm_s[perm(g)],
    so the depth is at most 8; an element the canonicalizer did not return
    falls back to ``selfsim.level_permutation``.
    """

    def __init__(self, depth: int, elements: Dict):
        self.depth = depth
        self.elements = elements
        self.translations = {letter: selfsim.translation_table(g, depth)
                             for letter, g in elements.items()}
        self.table: Dict[bytes, List[selfsim.TreeAutomorphism]] = {}
        self.sigs: Dict[selfsim.TreeAutomorphism, bytes] = {}
        self.words: Dict[object, selfsim.TreeAutomorphism] = {}

    def canon(self, g: selfsim.TreeAutomorphism) -> selfsim.TreeAutomorphism:
        known = self.words.get(g.word)
        if known is not None:
            return known
        return self._lookup(g, selfsim.level_permutation(g, self.depth))

    def act(self, key: selfsim.TreeAutomorphism,
            letter: Letter) -> selfsim.TreeAutomorphism:
        g = key * self.elements[letter]
        known = self.words.get(g.word)
        if known is not None:
            return known
        sig = self.sigs.get(key)
        if sig is None:
            sig = selfsim.level_permutation(key, self.depth)
        return self._lookup(g, sig.translate(self.translations[letter]))

    def _lookup(self, g, sig: bytes) -> selfsim.TreeAutomorphism:
        bucket = self.table.setdefault(sig, [])
        for known in bucket:
            if selfsim.equals_selfsim(g, known):
                break
        else:
            bucket.append(g)
            self.sigs[g] = sig
            known = g
        self.words[g.word] = known
        return known


def _make_selfsim_cayley(spec: str, family: str) -> MarkedGSet:
    names, involutions, elements = _selfsim_family(family)
    canonicalizer = _SelfsimCanonicalizer(_SIGNATURE_DEPTH, elements)
    # the first generator times its inverse: the identity
    identity = canonicalizer.canon(elements[(0, 1)] * elements[(0, -1)])
    return MarkedGSet(
        spec, names, involutions, identity, canonicalizer.act,
        show_key=lambda g: g.show(), canonical=canonicalizer.canon,
    )


def _make_orbit(spec: str) -> MarkedGSet:
    parts = spec.split(":")
    if len(parts) < 3:
        raise ValidationError(f"bad orbit spec {spec!r}")
    family = parts[1]
    names, involutions, elements = _selfsim_family(family)
    depth = None
    base = None
    for part in parts[2:]:
        name, _, value = part.partition("=")
        if name == "depth":
            depth = _parse_rank(value, "orbit depth")
        elif name == "base":
            base = value
        else:
            raise ValidationError(f"bad orbit option {part!r}")
    if depth is None:
        raise ValidationError("orbit spec needs depth=<positive integer>")
    if base is None:
        base = "0" * depth
    if len(base) != depth or any(ch not in "01" for ch in base):
        raise ValidationError("orbit base must be a 0/1 word of the given depth")

    def act(key, letter):
        return selfsim.act_on_word(elements[letter], key)

    return MarkedGSet(
        spec, names, involutions, base, act,
        show_key=lambda key: key,
    )


# -- ball construction -------------------------------------------------------

def build_ball(gset: MarkedGSet, radius: int,
               cap_vertices: Optional[int] = None) -> SchreierGraph:
    """The ball around the basepoint; one act per vertex and letter."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    letters = gset.letters
    budget = vertex_budget()
    limit = budget if cap_vertices is None else min(cap_vertices, budget)
    keys = [gset.base_key]
    ids: Dict = {gset.base_key: 0}
    depths: Dict = {gset.base_key: 0}
    table = array("i")  # row-major: one row of ids per vertex
    for key in keys:  # keys grows while the BFS runs
        depth = depths[key]
        for letter in letters:
            w = gset.act(key, letter)
            j = ids.get(w, -1)
            if j < 0 and depth < radius:
                j = len(keys)
                ids[w] = j
                depths[w] = depth + 1
                keys.append(w)
                if j >= limit:
                    if cap_vertices is not None and j >= cap_vertices:
                        raise CapExceeded(f"ball construction exceeded "
                                          f"{cap_vertices} vertices",
                                          partial=j + 1)
                    check_vertex_count(j + 1, "ball construction", budget)
            table.append(j)
    columns = [table[c::len(letters)] for c in range(len(letters))]
    return SchreierGraph(gset, radius, depths, ids, keys, columns)


def walk_counts(size: int, moves, n: int):
    """Yield the exact integer weights on ``size`` states after 0..n steps
    from state 0, as lists: a move (src, dst, weight) adds weight times the
    weight at src[k] to dst[k]."""
    current = [0] * size
    current[0] = 1
    yield current
    for _ in range(n):
        current, previous = [0] * size, current
        for src, dst, weight in moves:
            for i, j in zip(src, dst):
                if previous[i]:
                    current[j] += previous[i] * weight
        yield current


def boundary_edges(graph: SchreierGraph, subset) -> List[Tuple]:
    """Edges leaving ``subset``; loops never counted.

    The subset must avoid the outer shell of the ball, otherwise the outgoing
    edge count would be unsound.
    """
    members = set(subset)
    for v in members:
        if v not in graph.depths:
            raise ValidationError("subset contains a vertex outside the ball")
        if not graph.is_interior(v):
            raise ValidationError(
                "subset touches the outer shell; build a larger ball"
            )
    return [(v, letter, w) for v in members
            for letter, w in graph.out_edges(v) if w not in members]
