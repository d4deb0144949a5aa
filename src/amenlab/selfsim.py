"""Rooted-tree automorphism groups via wreath recursion.

Two families act on the binary rooted tree {0,1}*:

* the four-generator torsion group of intermediate growth with generators
  a, b, c, d (all involutions, with b c d = 1), canonicalized through the
  wreath recursion a -> <<1,1>> swap, b -> <<a,c>>, c -> <<a,d>>, d -> <<1,b>>;
* the two-generator "basilica" group with generators a, b whose recursion is
  a -> <<1,b>> swap, b -> <<1,a>> id.

All actions are right actions written functionally: ``act_on_word(g, x)``
returns the image of the vertex x, and (x0 x1...) g = (x0 pi_g) (x1...) g_{x0},
with sections indexed by the input letter.  The product rule is
(g h)_x = g_x h_{x pi_g}, pi_{g h} = pi_g pi_h.

Every element stores its word reduced.  Each family states its reduction
rule once, as a push step that multiplies a reduced word by one letter:
in the a,b,c,d group equal letters cancel and two of b, c, d fuse to the
third (``_grig_push``), in the basilica inverse letters cancel
(``_basilica_push``).  Reducing a whole word folds the step.  A product
pushes the right factor's letters onto the left factor's word, and since
both words are reduced only the seam can cancel; an inverse reverses a
reduced word, and sections are pushed letter by letter as the word is read,
so neither is reduced again.

Level permutations: ``level_permutation(g, d)`` is the action of g on level d
as a sequence p of leaf indices, leaf i (the d-bit word of i, first letter
most significant) going to leaf p[i].  Up to level 8 a level has at most 256
leaves and p is ``bytes``: each letter's permutation is built once per
family and level from the wreath recursion, on first use, and a word's
permutation folds them along the word with ``bytes.translate``, since for a
right action p_{g h} = p_h[p_g].  Past level 8 p is an ``array``: a leaf is
a vertex u of level d - 8 followed by 8 letters x, and (u x) g =
(u g)(x g_u), so p is the level-8 permutations of the sections g_u, each
offset by the image of u.  ``signature`` formats p as image words.

Equality is exact in both families, by one search over the sections of a word
(``is_identity``): w = 1 exactly when no section reachable from w swaps the
root.  Every entry of both recursion tables gives each section at most one
letter, so no section of w is longer than w and the search visits finitely
many words.  Its identity memo is a bounded cache: when full it starts over.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, List, Optional, Tuple

from .errors import ValidationError, check_vertex_count
from .groups import tokenize

GRIGORCHUK = "grigorchuk"
BASILICA = "basilica"
_BASILICA_NAMES = ("a", "b")

_MEMO_CAP = 1_000_000

# Klein four-group fusion table for the letters b, c, d (xy = z cyclically,
# xx = identity), used to keep words in reduced syllable form.
_FUSE = {
    ("b", "c"): "d", ("c", "b"): "d",
    ("b", "d"): "c", ("d", "b"): "c",
    ("c", "d"): "b", ("d", "c"): "b",
}

# Wreath recursion for the a,b,c,d group: letter -> (section0, section1, swap).
_GRIG_TABLE = {
    "a": ((), (), True),
    "b": (("a",), ("c",), False),
    "c": (("a",), ("d",), False),
    "d": ((), ("b",), False),
}


class TreeAutomorphism:
    """A reduced word over self-similar generators with lazy wreath
    decomposition."""

    __slots__ = ("family", "word", "_decomp")

    def __init__(self, family: str, word):
        if family == GRIGORCHUK:
            if not isinstance(word, str):
                raise ValidationError("grigorchuk words are strings over abcd")
            word = grig_reduce(word)
        elif family == BASILICA:
            word = _basilica_reduce(word)
        else:
            raise ValidationError(f"unknown self-similar family {family!r}")
        self.family = family
        self.word = word
        self._decomp = None

    @classmethod
    def _reduced(cls, family: str, word) -> "TreeAutomorphism":
        """An element of a word that is already validated and reduced."""
        g = cls.__new__(cls)
        g.family = family
        g.word = word
        g._decomp = None
        return g

    def __repr__(self):
        return f"TreeAutomorphism({self.family}, {self.show()!r})"

    def __eq__(self, other):
        return (
            isinstance(other, TreeAutomorphism)
            and self.family == other.family
            and self.word == other.word
        )

    def __hash__(self):
        return hash((self.family, self.word))

    def show(self) -> str:
        if self.family == GRIGORCHUK:
            return self.word or "1"
        if not self.word:
            return "1"
        return " ".join(n if s == 1 else f"{n}^-1" for n, s in self.word)

    def __mul__(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        if self.family != other.family:
            raise ValidationError("cannot multiply across families")
        word = list(self.word)
        push = _PUSH[self.family]
        right = other.word
        for i, letter in enumerate(right):
            size = len(word)
            push(word, letter)
            if len(word) >= size:
                # the seam is closed: the letter stayed, or fused with a
                # b, c or d that an a follows in the reduced right factor
                word.extend(right[i + 1:])
                break
        return TreeAutomorphism._reduced(self.family, _JOIN[self.family](word))

    def inverse(self) -> "TreeAutomorphism":
        if self.family == GRIGORCHUK:
            # all four generators are involutions
            return TreeAutomorphism._reduced(GRIGORCHUK, self.word[::-1])
        return TreeAutomorphism._reduced(
            BASILICA, tuple((n, -s) for n, s in reversed(self.word))
        )


class WreathDecomposition:
    """Sections at the two subtrees plus the root permutation."""

    __slots__ = ("sections", "swap")

    def __init__(self, sections: Tuple[TreeAutomorphism, TreeAutomorphism],
                 swap: bool):
        self.sections = sections
        self.swap = swap

    @property
    def root_perm(self) -> str:
        return "swap" if self.swap else "id"

    def __repr__(self):
        s0, s1 = self.sections
        return f"<<{s0.show()}, {s1.show()}>> {self.root_perm}"


# -- reduction -----------------------------------------------------------

def _grig_push(word: List[str], ch: str) -> None:
    """Multiply the reduced word ``word`` by the letter ``ch`` in place: the
    a,b,c,d group's one reduction rule.  Equal letters cancel (all four are
    involutions) and two of b, c, d fuse to the third; the letter under a
    b, c or d is an a or nothing, so a fused letter needs no further step."""
    if word:
        top = word[-1]
        if top == ch:
            word.pop()
            return
        if top != "a" and ch != "a":
            word[-1] = _FUSE[top, ch]
            return
    word.append(ch)


class _Runs(dict):
    """A run of b, c, d letters -> its product, at most one letter.  A run
    of up to four letters is folded with ``_grig_push`` and kept (at most
    121 entries); a longer run is read three letters at a time onto its
    product so far."""

    def __missing__(self, run: str) -> str:
        if len(run) > 4:
            value = ""
            for i in range(0, len(run), 3):
                value = self[value + run[i:i + 3]]
            return value
        word: List[str] = []
        for ch in run:
            _grig_push(word, ch)
        value = self[run] = "".join(word)
        return value


_RUNS = _Runs()


def grig_reduce(text: str) -> str:
    """Reduced syllable form: cancel aa and fuse adjacent b,c,d letters.

    Each run of b, c, d letters between two a's is first replaced by its
    product (``_RUNS``); the step then runs only where a letter meets its
    own letter or two of b, c, d meet, and every other letter is appended.
    """
    bad = text.strip("abcd")
    if bad:
        raise ValidationError(f"bad letter {bad[0]!r} for the a,b,c,d group")
    stack: List[str] = []
    append = stack.append
    for ch in "a".join(map(_RUNS.__getitem__, text.split("a"))):
        if stack and (stack[-1] == "a") == (ch == "a"):
            _grig_push(stack, ch)
        else:
            append(ch)
    return "".join(stack)


_BASILICA_INVERSE = {(name, sign): (name, -sign)
                     for name in _BASILICA_NAMES for sign in (1, -1)}
_BASILICA_LETTERS = tuple(_BASILICA_INVERSE)


def _basilica_push(word: List[Tuple[str, int]], letter) -> None:
    """Multiply the reduced word ``word`` by ``letter`` in place: the
    basilica's one reduction rule, free cancellation of inverse letters."""
    if word and word[-1] == _BASILICA_INVERSE[letter]:
        word.pop()
    else:
        word.append(letter)


def _basilica_reduce(word) -> Tuple[Tuple[str, int], ...]:
    if not isinstance(word, (tuple, list)):
        raise ValidationError(
            f"basilica words are letter sequences, got {word!r}")
    stack: List[Tuple[str, int]] = []
    for letter in word:
        # a tuple search compares by ==, so any object is refused cleanly
        if letter not in _BASILICA_LETTERS:
            raise ValidationError(f"bad basilica letter {letter!r}")
        _basilica_push(stack, letter)
    return tuple(stack)


# family -> its push step, and the join from a list to a stored word
_PUSH = {GRIGORCHUK: _grig_push, BASILICA: _basilica_push}
_JOIN = {GRIGORCHUK: "".join, BASILICA: tuple}


def grigorchuk(text: str) -> TreeAutomorphism:
    """Build a group element from a string like ``"abad"`` (1 = identity)."""
    if text in ("", "1"):
        return TreeAutomorphism(GRIGORCHUK, "")
    return TreeAutomorphism(GRIGORCHUK, text)


def basilica(text: str) -> TreeAutomorphism:
    """Build a basilica element from tokens like ``"a b^-1 a"`` (1 = identity)."""
    return TreeAutomorphism(BASILICA, tuple(
        (_BASILICA_NAMES[gen], sign)
        for gen, sign in tokenize(text, _BASILICA_NAMES)
    ))


# -- wreath decomposition ----------------------------------------------

_BASILICA_TABLE = {
    ("a", 1): ((), (("b", 1),), True),
    ("a", -1): ((("b", -1),), (), True),
    ("b", 1): ((), (("a", 1),), False),
    ("b", -1): ((), (("a", -1),), False),
}

# family -> {letter: (section0, section1, swap)}; no section has more than
# one letter, which bounds every section of a word by the word's length.
_TABLES = {GRIGORCHUK: _GRIG_TABLE, BASILICA: _BASILICA_TABLE}


def wreath_decompose(g: TreeAutomorphism) -> WreathDecomposition:
    if g._decomp is None:
        s0: list = []
        s1: list = []
        swap = False
        table, push = _TABLES[g.family], _PUSH[g.family]
        for letter in g.word:
            h0, h1, hswap = table[letter]
            if swap:
                h0, h1 = h1, h0
            for x in h0:
                push(s0, x)
            for x in h1:
                push(s1, x)
            swap ^= hswap
        join = _JOIN[g.family]
        g._decomp = WreathDecomposition(
            (TreeAutomorphism._reduced(g.family, join(s0)),
             TreeAutomorphism._reduced(g.family, join(s1))),
            swap,
        )
    return g._decomp


def act_on_word(g: TreeAutomorphism, x: str) -> str:
    """Image of the tree vertex ``x`` (a word over 0/1) under ``g``."""
    if not isinstance(x, str) or x.strip("01"):
        raise ValidationError(f"tree vertices are 0/1 words, got {x!r}")
    out = []
    for i, ch in enumerate(x):
        if not g.word:
            out.append(x[i:])
            break
        decomp = wreath_decompose(g)
        first = ch == "1"
        out.append("1" if first ^ decomp.swap else "0")
        g = decomp.sections[first]
    return "".join(out)


# -- level permutations ----------------------------------------------------

# The deepest level whose permutations are bytes (256 leaves).
_BYTE_DEPTH = 8
_IDENTITY = bytes(range(256))

# (family, depth) -> {letter: 256-byte translation table of its action on
# level depth <= 8, the identity past the level's leaves}; filled on first
# use, one depth at a time.
_letter_tables_memo: Dict[Tuple[str, int], Dict] = {}


def _fold(tables: Dict, letters, size: int) -> bytes:
    """The permutation of a word on a level of ``size`` <= 256 leaves: for
    a right action, x (g h) = (x g) h, so each letter's table translates
    the running permutation."""
    out = _IDENTITY[:size]
    for letter in letters:
        out = out.translate(tables[letter])
    return out


def _padded(perm: bytes) -> bytes:
    """A permutation of at most 256 leaves as a ``bytes.translate`` table:
    the identity past the level's leaves."""
    return perm + _IDENTITY[len(perm):]


def _letter_tables(family: str, depth: int) -> Dict:
    """Each letter's action on level ``depth`` <= 8, from the wreath
    recursion: leaf x0 w goes to (x0 pi) (w s_x0), so the permutation is
    the two section permutations of level depth - 1, offset by the image
    of the first letter."""
    key = (family, depth)
    tables = _letter_tables_memo.get(key)
    if tables is not None:
        return tables
    table = _TABLES[family]
    if depth == 0:
        tables = {letter: _IDENTITY for letter in table}
    else:
        check_vertex_count(1 << depth, "level permutation")
        below, half = _letter_tables(family, depth - 1), 1 << (depth - 1)
        tables = {}
        for letter, (s0, s1, swap) in table.items():
            perm = bytes([b + swap * half for b in _fold(below, s0, half)]
                         + [b + (not swap) * half
                            for b in _fold(below, s1, half)])
            tables[letter] = _padded(perm)
    _letter_tables_memo[key] = tables
    return tables


def _sections(g: TreeAutomorphism, depth: int) -> List[Tuple]:
    """(image of u, section g_u) for the vertices u of level ``depth``, in
    leaf order: (x0 u) g = (x0 pi) (u g_x0)."""
    if depth == 0:
        return [(0, g)]
    decomp = wreath_decompose(g)
    half = 1 << (depth - 1)
    return [((x0 ^ decomp.swap) * half + image, section)
            for x0 in (0, 1)
            for image, section in _sections(decomp.sections[x0], depth - 1)]


def level_permutation(g: TreeAutomorphism, depth: int):
    """The action of ``g`` on level ``depth``: leaf i is the ``depth``-bit
    word of i (first letter most significant) and goes to leaf
    ``level_permutation(g, depth)[i]``; ``bytes`` up to level 8, an
    ``array`` of unsigned integers past it."""
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    if depth <= _BYTE_DEPTH:
        return _fold(_letter_tables(g.family, depth), g.word, 1 << depth)
    check_vertex_count(1 << depth, "level permutation")
    tables = _letter_tables(g.family, _BYTE_DEPTH)
    out = array("H" if depth <= 16 else "L")
    for image, section in _sections(g, depth - _BYTE_DEPTH):
        base = image << _BYTE_DEPTH
        out.extend([base + b for b in _fold(tables, section.word, 256)])
    return out


def translation_table(g: TreeAutomorphism, depth: int) -> bytes:
    """The action of ``g`` on level ``depth`` <= 8 as a 256-byte table for
    ``bytes.translate``: perm(h g) = level_permutation(h).translate(table)."""
    if depth > _BYTE_DEPTH:
        raise ValidationError(f"translation tables stop at level {_BYTE_DEPTH}")
    return _padded(level_permutation(g, depth))


def signature(g: TreeAutomorphism, depth: int) -> Tuple[str, ...]:
    """The full action on level ``depth``, as a tuple of image words."""
    perm = level_permutation(g, depth)
    if depth == 0:
        return ("",)
    return tuple(format(i, f"0{depth}b") for i in perm)


# -- exact equality ----------------------------------------------------------

class _IdentityMemo:
    def __init__(self):
        self.table: Dict[object, bool] = {}
        self.lock = threading.Lock()

    def get(self, key):
        return self.table.get(key)

    def put(self, key, value):
        with self.lock:
            if len(self.table) >= _MEMO_CAP:
                # a cache, not a result: start over instead of failing
                self.table.clear()
            self.table[key] = value


_identity_memo = _IdentityMemo()


def _swaps_root(g: TreeAutomorphism) -> bool:
    """Whether g swaps the root: only a and a^-1 do (``_TABLES``), so this
    is the parity of their count."""
    if g.family == GRIGORCHUK:
        return g.word.count("a") & 1 == 1
    return (g.word.count(("a", 1)) + g.word.count(("a", -1))) & 1 == 1


def _is_trivial(g: TreeAutomorphism) -> bool:
    """Whether g = 1: a depth-first search over the sections reachable from
    g, by reduced word, that fails at the first one swapping the root.
    Whether a word swaps the root is the parity of its a letters, read
    before the word is decomposed.

    Each letter's sections have at most one letter (``_TABLES``), so no
    section of g is longer than g: the visited words are finitely many and
    the search ends.  If none swaps the root, every vertex of the tree is
    fixed.  A success marks every visited word trivial in the memo; a
    failure marks only g, since a visited word may still be trivial.
    """
    if not g.word:
        return True
    seen = {g.word}
    stack = [g]
    while stack:
        h = stack.pop()
        known = _identity_memo.get(h.word)
        if known:
            continue
        # a one-letter word is a generator, and no generator is trivial
        if known is False or len(h.word) == 1 or _swaps_root(h):
            _identity_memo.put(g.word, False)
            return False
        sections = wreath_decompose(h).sections
        # both sections' root swaps are read before either is searched
        if _swaps_root(sections[0]) or _swaps_root(sections[1]):
            _identity_memo.put(g.word, False)
            return False
        for section in sections:
            if section.word and section.word not in seen:
                seen.add(section.word)
                stack.append(section)
    for word in seen:
        _identity_memo.put(word, True)
    return True


class EqualityVerdict:
    """Equality answer.  Every verdict is exact, so ``approximate`` is False
    and ``depth`` None; both fields stay for the callers that read them."""

    __slots__ = ("equal", "approximate", "depth")

    def __init__(self, equal: bool, approximate: bool, depth: Optional[int]):
        self.equal = equal
        self.approximate = approximate
        self.depth = depth

    def __bool__(self):
        return self.equal

    def __repr__(self):
        tag = f"to depth {self.depth}" if self.approximate else "exact"
        return f"EqualityVerdict({self.equal}, {tag})"


def equals_selfsim(g: TreeAutomorphism,
                   h: TreeAutomorphism) -> EqualityVerdict:
    if g.family != h.family:
        raise ValidationError("cannot compare across families")
    return EqualityVerdict(_is_trivial(g * h.inverse()), False, None)


def is_identity(g: TreeAutomorphism) -> EqualityVerdict:
    return EqualityVerdict(_is_trivial(g), False, None)


# -- eta norm ------------------------------------------------------------

def _eta_root() -> float:
    """Real root of X^3 + X^2 + X - 2 by Newton iteration to 1e-12."""
    x = 0.8
    for _ in range(100):
        f = x * x * x + x * x + x - 2.0
        fp = 3.0 * x * x + 2.0 * x + 1.0
        step = f / fp
        x -= step
        if abs(step) < 1e-15:
            break
    return x


ETA = _eta_root()

_LETTER_NORMS = {
    "a": 1.0 - ETA ** 3,
    "b": ETA ** 3,
    "c": 1.0 - ETA ** 2,
    "d": 1.0 - ETA,
}


def eta_norm(g: TreeAutomorphism) -> float:
    """Canonical-word upper bound for the contraction norm.

    The value is the letter-norm sum of the reduced syllable word, which is an
    upper bound on the minimum over all factorizations.
    """
    if g.family != GRIGORCHUK:
        raise ValidationError("eta_norm is defined for the a,b,c,d group only")
    return sum(_LETTER_NORMS[ch] for ch in g.word)


# -- sigma endomorphism ---------------------------------------------------

_SIGMA = str.maketrans({"a": "aca", "b": "d", "c": "b", "d": "c"})


def sigma_apply(g: TreeAutomorphism) -> TreeAutomorphism:
    """The substitution a -> a c a, b -> d, c -> b, d -> c, letterwise.

    The image of a reduced word is reduced: its a's and its b, c, d
    letters still alternate, since a -> a c a begins and ends with a and
    each of b, c, d goes to one of them."""
    if g.family != GRIGORCHUK:
        raise ValidationError("sigma is defined for the a,b,c,d group only")
    return TreeAutomorphism._reduced(GRIGORCHUK, g.word.translate(_SIGMA))


# -- element order ---------------------------------------------------------

def element_order(g: TreeAutomorphism, max_order: int) -> Optional[int]:
    """Least k <= max_order with g^k = 1, or None if no such k is found."""
    if max_order < 1:
        raise ValidationError("max_order must be >= 1")
    running = g
    for k in range(1, max_order + 1):
        if is_identity(running):
            return k
        running = running * g
    return None


# -- portrait export --------------------------------------------------------

def portrait(g: TreeAutomorphism, depth: int) -> dict:
    """JSON-ready portrait: root permutation plus children to ``depth``."""
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    decomp = wreath_decompose(g)
    node = {"rootPerm": decomp.root_perm}
    if depth > 0:
        node["children"] = [portrait(section, depth - 1)
                            for section in decomp.sections]
    return node
