"""The explicit rank-2 free-group paradoxical decomposition, a certified
two-to-one doubling wobble, finite Hall matchings with violator extraction,
and pointwise Cantor-Schroeder-Bernstein merging of two injections.

Conventions for the free group F2 = <x1, x2>:

* Y1 = reduced words ending in the letter x1, Y2 = complement;
* Z1 = reduced words ending in x2, together with {1, x2^-1, x2^-2, ...};
  Z2 = complement;
* the translated cells Y1, Y2.x1^-1, Z1, Z2.x2^-1 partition the whole group.

Balls of F2 are the keys of ``build_ball(make_gset("free:2"), r)``, whose
(gen, sign) letters are those of F2 = <x1, x2>: one BFS gives B(r) and, by
depth, B(r - 1), and the ball obeys the memory cap like every other ball.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from .errors import CapExceeded, ValidationError
from .groups import MarkedGroup, Word
from .orbits import build_ball, make_gset

F2 = MarkedGroup("free", 2, ["x1", "x2"], [False, False])

_X1 = (0, 1)
_X2 = (1, 1)


class PieceLabel:
    """Membership of a reduced word in the Y- and Z-partitions."""

    __slots__ = ("y_part", "z_part")

    def __init__(self, y_part: str, z_part: str):
        self.y_part = y_part
        self.z_part = z_part

    def __eq__(self, other):
        return (isinstance(other, PieceLabel)
                and (self.y_part, self.z_part) == (other.y_part, other.z_part))

    def __repr__(self):
        return f"PieceLabel({self.y_part}, {self.z_part})"


def _is_x2_power_exception(word: Word) -> bool:
    """1, x2^-1, x2^-2, ... : the exception set parked inside Z1."""
    return all(letter == (1, -1) for letter in word)


def f2_piece(word: Word) -> PieceLabel:
    """Labels of a word of F2; non-reduced input is reduced first."""
    word = F2.normal_form(word)
    y_part = "Y1" if word and word[-1] == _X1 else "Y2"
    if (word and word[-1] == _X2) or _is_x2_power_exception(word):
        z_part = "Z1"
    else:
        z_part = "Z2"
    return PieceLabel(y_part, z_part)


def translated_cell(word: Word) -> str:
    """Which of the four cells Y1, Y2.x1^-1, Z1, Z2.x2^-1 contains the word."""
    word = F2.normal_form(word)
    label = f2_piece(word)
    if label.y_part == "Y1":
        return "Y1"
    shifted_y = f2_piece(F2.compose(word, (_X1,)))
    if shifted_y.y_part == "Y2":
        return "Y2.x1^-1"
    if label.z_part == "Z1":
        return "Z1"
    shifted_z = f2_piece(F2.compose(word, (_X2,)))
    if shifted_z.z_part == "Z2":
        return "Z2.x2^-1"
    raise AssertionError("the four cells failed to cover a word")


def _f2_ball(radius: int) -> Tuple[List[Word], List[Word]]:
    """B(radius) of F2 in BFS order, and B(radius - 1) from its depths;
    the neighbour columns are freed before the caller builds the pieces."""
    graph = build_ball(make_gset("free:2"), radius)
    return graph.keys, graph.interior()


def paradox_verify(radius: int) -> dict:
    """Check the decomposition on the ball of the given radius.

    The Y- and Z-partitions are verified exactly on B(radius); the four
    translated cells are checked to be pairwise disjoint and to cover
    B(radius - 1).  All violations are reported, none raised.
    """
    ball, inner = _f2_ball(radius)
    violations: List[str] = []
    pieces = {"Y1": set(), "Y2": set(), "Z1": set(), "Z2": set()}
    for word in ball:
        label = f2_piece(word)
        pieces[label.y_part].add(word)
        pieces[label.z_part].add(word)
    if pieces["Y1"] | pieces["Y2"] != set(ball) or pieces["Y1"] & pieces["Y2"]:
        violations.append("Y1, Y2 do not partition the ball")
    if pieces["Z1"] | pieces["Z2"] != set(ball) or pieces["Z1"] & pieces["Z2"]:
        violations.append("Z1, Z2 do not partition the ball")
    translated = [
        ("Y1", pieces["Y1"]),
        ("Y2.x1^-1", {F2.compose(w, ((0, -1),)) for w in pieces["Y2"]}),
        ("Z1", pieces["Z1"]),
        ("Z2.x2^-1", {F2.compose(w, ((1, -1),)) for w in pieces["Z2"]}),
    ]
    for (name_a, set_a), (name_b, set_b) in (
        (translated[i], translated[j])
        for i in range(4) for j in range(i + 1, 4)
    ):
        overlap = set_a & set_b
        if overlap:
            sample = F2.show(next(iter(overlap)))
            violations.append(f"{name_a} meets {name_b} (e.g. {sample})")
    union = set().union(*(s for _name, s in translated))
    missing = sorted((w for w in inner if w not in union), key=F2.show)
    if missing:
        violations.extend(f"uncovered {F2.show(w)}" for w in missing)
    return {
        "radius": radius,
        "ballSize": len(ball),
        "coveredInner": len(inner),
        "violations": violations,
        "passed": not violations,
    }


def doubling_map(word: Word) -> Word:
    """A two-to-one wobble G -> G with multipliers {1, x1, x2}.

    Identity on the cells Y1 and Z1; right-multiplication by x1 on Y2.x1^-1
    and by x2 on Z2.x2^-1.
    """
    word = F2.normal_form(word)
    cell = translated_cell(word)
    if cell in ("Y1", "Z1"):
        return word
    if cell == "Y2.x1^-1":
        return F2.compose(word, (_X1,))
    return F2.compose(word, (_X2,))


def doubling_preimages(target: Word, search_radius: int) -> List[Word]:
    """All words in B(search_radius) mapping to the target."""
    ball, _inner = _f2_ball(search_radius)
    target = F2.normal_form(target)
    return sorted((w for w in ball if doubling_map(w) == target), key=F2.show)


# -- Hall matchings --------------------------------------------------------------

class MatchingResult:
    """Either a full matching of V into W, or a Hall-violating subset of V."""

    def __init__(self, matching: Optional[Dict], violator: Optional[List]):
        self.matching = matching
        self.violator = violator

    @property
    def matched(self) -> bool:
        return self.matching is not None

    def to_json(self) -> str:
        payload = {
            "matched": self.matched,
            "matching": None if self.matching is None
            else {str(v): str(w) for v, w in self.matching.items()},
            "violator": None if self.violator is None
            else [str(v) for v in self.violator],
        }
        return json.dumps(payload, sort_keys=True)

    def __repr__(self):
        if self.matched:
            return f"MatchingResult(matched, size={len(self.matching)})"
        return f"MatchingResult(violator={self.violator})"


def hall_matching(neighbours: Dict) -> MatchingResult:
    """Match every left vertex to a distinct neighbour, or exhibit a
    Hall-violating set F with #N(F) < #F.

    Augmenting-path search in deterministic vertex order; when augmentation
    from some vertex fails, the set of left vertices reachable by
    alternating paths from it is the violator.
    """
    left = sorted(neighbours, key=str)
    match_of_w: Dict = {}

    def augment(v, visited_w: set) -> bool:
        for w in sorted(neighbours[v], key=str):
            if w in visited_w:
                continue
            visited_w.add(w)
            if w not in match_of_w or augment(match_of_w[w], visited_w):
                match_of_w[w] = v
                return True
        return False

    for v in left:
        visited_w: set = set()
        if not augment(v, visited_w):
            reachable = sorted(
                {v} | {match_of_w[w] for w in visited_w}, key=str
            )
            return MatchingResult(None, reachable)
    matching = {v: w for w, v in match_of_w.items()}
    return MatchingResult(dict(sorted(matching.items(), key=lambda t: str(t[0]))),
                          None)


# -- Cantor-Schroeder-Bernstein merging -------------------------------------------

def csb_merge(alpha: Callable, beta_inverse: Callable,
              alpha_inverse: Callable, beta_forward: Callable,
              y, depth_cap: int = 64):
    """Merge injections alpha: Y -> Z and beta: Z -> Y into a bijection,
    decided pointwise at y.

    The backward chain y, beta^-1(y), alpha^-1(beta^-1(y)), ... is chased:
    if it dies on the Y side (no beta-preimage) the point belongs to the
    alpha-branch and gamma(y) = alpha(y); if it dies on the Z side, or the
    chain revisits a state (so it never dies), gamma(y) = beta^-1(y).
    Raises CapExceeded("undetermined at cap") when the chain is still alive
    and aperiodic after depth_cap backward steps.

    ``beta_inverse`` and ``alpha_inverse`` are partial: they return None
    outside the respective images.  ``beta_forward`` is only used to sanity
    check the chosen preimage.
    """
    current = y
    side = "Y"
    seen = {("Y", y)}
    for _ in range(depth_cap):
        if side == "Y":
            back = beta_inverse(current)
            if back is None:
                return alpha(y)  # chain died on the Y side: alpha branch
            if beta_forward(back) != current:
                raise ValidationError("beta_inverse is not a section of beta")
            current, side = back, "Z"
        else:
            back = alpha_inverse(current)
            if back is None:
                break  # died on the Z side: beta^-1 branch
            current, side = back, "Y"
        state = (side, current)
        if state in seen:
            break  # periodic chain never dies: the intersection clause
        seen.add(state)
    else:
        raise CapExceeded("undetermined at cap", partial=depth_cap)
    out = beta_inverse(y)
    if out is None:
        raise ValidationError("beta^-1 branch chosen outside the beta image")
    return out


def doubling_injection_pair():
    """The two injections G -> G underlying the doubling construction,
    packaged for csb_merge: alpha uses the Y-pieces and x1, beta the
    Z-pieces and x2."""

    def alpha(w: Word) -> Word:
        w = F2.normal_form(w)
        if f2_piece(w).y_part == "Y1":
            return w
        return F2.compose(w, ((0, -1),))

    def alpha_inverse(w: Word) -> Optional[Word]:
        w = F2.normal_form(w)
        if w and w[-1] == _X1:
            return w
        if w and w[-1] == (0, -1):
            return F2.compose(w, (_X1,))
        return None

    def beta(w: Word) -> Word:
        w = F2.normal_form(w)
        if f2_piece(w).z_part == "Z1":
            return w
        return F2.compose(w, ((1, -1),))

    def beta_inverse(w: Word) -> Optional[Word]:
        w = F2.normal_form(w)
        if f2_piece(w).z_part == "Z1":
            return w
        if w and w[-1] == (1, -1):
            candidate = F2.compose(w, (_X2,))
            if f2_piece(candidate).z_part == "Z2":
                return candidate
        return None

    return alpha, alpha_inverse, beta, beta_inverse
