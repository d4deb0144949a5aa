"""The Fibonacci substitution subshift and a small toolkit for
topological-full-group elements presented as cylinder-wise shifts.

A point of the subshift is only ever handled through a finite window, and
``shift_for`` refuses a window too short to resolve its cylinder.
Bijectivity is decided exactly, by a combinatorial certificate: the
inverse-table test.

A full-group element is a finite table of rows (left, word, shift): on the
cylinder of points x with x[left .. left+len(word)) = word, the element acts
as the shift by ``shift``.  The cylinders must partition the subshift.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapExceeded, ValidationError

_MAX_LEN = 24
_SHIFT_CAP = 4
_SEARCH_SHIFTS = (-1, 0, 1)


@lru_cache(maxsize=None)
def _fib_prefix(min_length: int) -> str:
    word = "0"
    while len(word) < min_length:
        word = word.replace("0", "0_").replace("1", "0").replace("_", "1")
    return word


class SubshiftLanguage:
    """Admissible factors of the Fibonacci word, by length."""

    def __init__(self, factors: Dict[int, frozenset], max_len: int):
        self.factors = dict(factors)
        self.max_len = max_len
        self._verify()

    def admissible(self, word: str) -> bool:
        if word == "":
            return True
        if len(word) > self.max_len:
            raise ValidationError(
                f"word longer than the computed language ({self.max_len})"
            )
        return word in self.factors[len(word)]

    def words(self, length: int) -> List[str]:
        if not 0 <= length <= self.max_len:
            raise ValidationError("length outside the computed language")
        if length == 0:
            return [""]
        return sorted(self.factors[length])

    def _verify(self):
        for n in range(2, self.max_len + 1):
            for word in self.factors[n]:
                if word[1:] not in self.factors[n - 1] \
                        or word[:-1] not in self.factors[n - 1]:
                    raise ValidationError("language is not factor-closed")
        for n in range(1, self.max_len):
            for word in self.factors[n]:
                if not any(word + ch in self.factors[n + 1] for ch in "01"):
                    raise ValidationError("language is not right-extendable")

    def __repr__(self):
        counts = [len(self.factors[n]) for n in range(1, self.max_len + 1)]
        return f"SubshiftLanguage(maxLen={self.max_len}, counts={counts})"


@lru_cache(maxsize=None)
def fib_language(max_len: int) -> SubshiftLanguage:
    """Exact factor sets of the Fibonacci word up to the given length.

    The Fibonacci word is uniformly recurrent, with every factor of length n
    occurring in every window of length at most F(k)+2n for a nearby
    Fibonacci number F(k); a prefix of length 20*max_len + 100 is therefore
    comfortably exhaustive, and the factor counts are checked against the
    known complexity n + 1.
    """
    if not 1 <= max_len <= _MAX_LEN:
        raise ValidationError(f"max_len must lie in [1, {_MAX_LEN}]")
    prefix = _fib_prefix(20 * max_len + 100)
    factors = {}
    for n in range(1, max_len + 1):
        found = frozenset(prefix[i:i + n] for i in range(len(prefix) - n + 1))
        if len(found) != n + 1:
            raise ValidationError(
                f"factor complexity mismatch at length {n}: {len(found)}"
            )
        factors[n] = found
    return SubshiftLanguage(factors, max_len)


class FullGroupElement:
    """A piecewise shift given by a finite partition into cylinders."""

    def __init__(self, rows: Sequence[Tuple[int, str, int]]):
        rows = [(int(left), str(word), int(shift)) for left, word, shift in rows]
        if not rows:
            raise ValidationError("element table must be nonempty")
        for left, word, shift in rows:
            if not word:
                if len(rows) != 1:
                    raise ValidationError("an empty cylinder must be alone")
            if abs(shift) > _SHIFT_CAP:
                raise ValidationError(f"shift exceeds the cap {_SHIFT_CAP}")
        self.rows = tuple(sorted(rows, key=lambda r: (r[0], r[1], r[2])))
        lo = min(left for left, _w, _s in self.rows)
        width = max(left + len(w) for left, w, _s in self.rows) - lo
        self.language = fib_language(max(width, 1))
        for _left, word, _shift in self.rows:
            if word and not self.language.admissible(word):
                raise ValidationError(f"inadmissible cylinder word {word!r}")
        self._verify_partition(lo, width)

    def _verify_partition(self, lo: int, width: int):
        if width == 0:
            # single empty-word row: the whole subshift, a valid partition
            return
        for window in self.language.words(width):
            matches = sum(
                1 for left, word, _shift in self.rows
                if window[left - lo: left - lo + len(word)] == word
            )
            if matches != 1:
                raise ValidationError(
                    f"cylinders do not partition: window {window!r} "
                    f"matched {matches} rows"
                )

    def shift_for(self, window: str, origin: int) -> int:
        """The shift applied at a point whose letters around the origin are
        given by window[origin + k] for positions k."""
        for left, word, shift in self.rows:
            start = origin + left
            end = start + len(word)
            if start < 0 or end > len(window):
                visible_lo = max(start, 0)
                visible_hi = min(end, len(window))
                visible = window[visible_lo:visible_hi]
                expected = word[visible_lo - start: visible_hi - start]
                if visible == expected:
                    raise ValidationError(
                        "unresolved cylinder: window too short"
                    )
                continue
            if window[start:end] == word:
                return shift
        raise ValidationError("no cylinder matched (window inadmissible?)")

    def inverse_candidate(self) -> List[Tuple[int, str, int]]:
        """Rows of the would-be inverse: the image of the cylinder at
        (left, word) under the shift s carries word at left - s."""
        return [(left - shift, word, -shift)
                for left, word, shift in self.rows]

    def is_identity(self) -> bool:
        return all(shift == 0 for _l, _w, shift in self.rows)

    def to_json(self) -> str:
        return json.dumps(
            {"cylinders": [{"left": l, "word": w, "shift": s}
                           for l, w, s in self.rows]},
            sort_keys=True,
        )

    def __eq__(self, other):
        return isinstance(other, FullGroupElement) and self.rows == other.rows

    def __repr__(self):
        return f"FullGroupElement({list(self.rows)})"


def tf_compose(first: FullGroupElement,
               second: FullGroupElement) -> FullGroupElement:
    """The element acting as ``first`` then ``second``, by cylinder
    refinement; raises CapExceeded if refinement outgrows the language cap."""
    rows: List[Tuple[int, str, int]] = []
    for left1, word1, shift1 in first.rows:
        for left2, word2, shift2 in second.rows:
            constraints = []
            if word1:
                constraints.append((left1, word1))
            if word2:
                constraints.append((shift1 + left2, word2))
            if not constraints:
                rows.append((0, "", shift1 + shift2))
                continue
            lo = min(c for c, _w in constraints)
            hi = max(c + len(w) for c, w in constraints)
            width = hi - lo
            if width > _MAX_LEN:
                raise CapExceeded(
                    f"cylinder refinement needs windows of width {width}"
                )
            language = fib_language(width)
            for window in language.words(width):
                if all(window[c - lo: c - lo + len(w)] == w
                       for c, w in constraints):
                    rows.append((lo, window, shift1 + shift2))
    return FullGroupElement(rows)


def tf_invert_check(element: FullGroupElement) -> Tuple[Optional[FullGroupElement], bool]:
    """The inverse element and True, when the inverse row table is itself a
    valid partition; (None, False) otherwise.

    If the transported rows partition the subshift, they define a full-group
    element that undoes ``element`` pointwise, which certifies bijectivity
    exactly (not merely at a sampling depth).
    """
    try:
        inverse = FullGroupElement(element.inverse_candidate())
    except ValidationError:
        return None, False
    return inverse, True


def shift_element(amount: int = 1) -> FullGroupElement:
    return FullGroupElement([(0, "", amount)])


def identity_element() -> FullGroupElement:
    return FullGroupElement([(0, "", 0)])


def search_nontrivial(max_word_len: int = 3) -> Optional[FullGroupElement]:
    """Exhaustive search for a nontrivial bijective element whose cylinders
    are the admissible words of the given length anchored at the origin.

    This element is artifact-generated: the construction is not taken from
    any classical example, only certified by the inverse-table test.
    """
    language = fib_language(max_word_len)
    words = language.words(max_word_len)
    for combo in product(_SEARCH_SHIFTS, repeat=len(words)):
        if len(set(combo)) == 1:
            # constant tables are plain powers of the shift; skip them so the
            # search returns a genuinely piecewise element
            continue
        rows = [(0, w, s) for w, s in zip(words, combo)]
        try:
            element = FullGroupElement(rows)
        except ValidationError:
            continue
        _inverse, ok = tf_invert_check(element)
        if ok:
            return element
    return None
