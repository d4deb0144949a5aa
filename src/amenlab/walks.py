"""Exact random walks driven by a finitely supported measure on the acting
group, without numpy.

Convolution powers (the n-step law as a dict of ``Fraction`` masses), return
probabilities and the expected inverted-orbit size are exact.  Only
``rho_lower_bound`` (an n-th root of an exact value), the float form of
``return_probability`` and the Monte Carlo ``inverted_orbit_stats`` return
floats.

Exact walks run the integer DP ``orbits.walk_counts`` with mu scaled by its
common denominator D, dividing by D^m once per step count m.  With steps of
length <= L, n-step return probabilities need only the ball of radius
floor(nL/2) and the n-step law the ball of radius nL, under the vertex cap.

Walks on the free-group Cayley graph get a radial fast path: the uniform
symmetric walk is isotropic, so return probabilities reduce to a birth-death
chain on the distance from the origin.  The generic code paths stay
available and the two are cross-checked in the tests.  The float spectral
estimates of the truncated walk operator live in ``randwalk``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapExceeded, ValidationError
from .groups import Word, _free_reduce
from .orbits import MarkedGSet, build_ball, walk_counts

_EXACT_STEP_CAP = 64
_EXACT_SUPPORT_CAP = 1_000_000


class StepMeasure:
    """Finitely supported probability on group words, exact weights."""

    def __init__(self, gset: MarkedGSet, support: Sequence[Tuple[Word, Fraction]]):
        normalized: Dict[Word, Fraction] = {}
        for word, weight in support:
            weight = Fraction(weight)
            if weight <= 0:
                raise ValidationError("measure weights must be positive")
            key = self._normalize(gset, word)
            normalized[key] = normalized.get(key, Fraction(0)) + weight
        if sum(normalized.values()) != 1:
            raise ValidationError("measure weights must sum to 1 exactly")
        self.gset = gset
        self.support = tuple(sorted(normalized.items()))
        self.symmetric = all(
            normalized.get(self._normalize(gset, self._formal_inverse(w)), None)
            == weight
            for w, weight in normalized.items()
        )

    @staticmethod
    def _normalize(gset: MarkedGSet, word: Word) -> Word:
        # the gset's letter table validates each letter and gives an
        # involution's sign +1; free reduction is sound for every family (it
        # never changes the element)
        return _free_reduce(
            (gset.letters[gset.column(letter)] for letter in word),
            [gen for gen, flag in enumerate(gset.involutions) if flag],
        )

    @staticmethod
    def _formal_inverse(word: Word) -> Word:
        return tuple((gen, -sign) for gen, sign in reversed(word))

    def items(self):
        return self.support

    def __repr__(self):
        return f"StepMeasure({len(self.support)} atoms, symmetric={self.symmetric})"


def srw_measure(gset: MarkedGSet) -> StepMeasure:
    """Uniform measure on the symmetrized generator letters."""
    weight = Fraction(1, len(gset.letters))
    return StepMeasure(gset, [((letter,), weight) for letter in gset.letters])


def lazy_measure(mu: StepMeasure, hold: Fraction = Fraction(1, 2)) -> StepMeasure:
    """Replace mu by hold * delta_1 + (1 - hold) * mu (never done implicitly)."""
    hold = Fraction(hold)
    if not 0 < hold < 1:
        raise ValidationError("laziness parameter must lie strictly in (0,1)")
    support = [((), hold)]
    support.extend((word, (1 - hold) * weight) for word, weight in mu.items())
    return StepMeasure(mu.gset, support)


def measure_power(gset: MarkedGSet, mu: StepMeasure,
                  n: int) -> Dict[object, Fraction]:
    """Exact law of the walk started at the basepoint after n steps, as
    {vertex key: mass} over the keys of positive mass."""
    if n < 0:
        raise ValidationError("step count must be >= 0")
    if n > _EXACT_STEP_CAP:
        raise CapExceeded(
            f"exact convolution is capped at {_EXACT_STEP_CAP} steps")
    denominator, graph, counts = _scaled_walk(gset, mu, n, closed=False)
    *_, weights = counts
    scale = denominator ** n
    # the ball of radius nL holds every n-step path, so no mass is lost
    if sum(weights) != scale:
        raise ValidationError("distribution must sum to 1")
    return {graph.keys[i]: Fraction(weight, scale)
            for i, weight in enumerate(weights) if weight}


def _scaled_walk(gset: MarkedGSet, mu: StepMeasure, n: int, closed: bool):
    """mu's common denominator D, the ball the walk needs (see the module
    docstring), and the walk's weights after 0..n steps under D * mu."""
    denominator = math.lcm(*(w.denominator for _, w in mu.items()))
    reach = n * max(len(word) for word, _ in mu.items())
    graph = build_ball(gset, reach // 2 if closed else reach,
                       cap_vertices=None if closed else _EXACT_SUPPORT_CAP)
    moves = [(*graph.word_edges(word), int(w * denominator))
             for word, w in mu.items()]
    return denominator, graph, walk_counts(len(graph.keys), moves, n)


def _is_uniform_srw(gset: MarkedGSet, mu: StepMeasure) -> bool:
    weight = Fraction(1, len(gset.letters))
    expected = {((letter,), weight) for letter in gset.letters}
    return set(mu.items()) == expected


def _free_rank(gset: MarkedGSet) -> Optional[int]:
    if gset.spec.startswith("cayley:") and gset.group is not None \
            and gset.group.family == "free":
        return gset.group.rank
    return None


def _radial_return_sequence(k: int, n: int) -> List[Fraction]:
    """p_m(x,x) for m = 0..n for the uniform SRW on the 2k-regular tree."""
    degree = 2 * k
    # the chain of distances from x, weights scaled by the degree
    away = range(1, n + 1)
    moves = [([0], [1], degree), (away, range(2, n + 2), degree - 1),
             (away, range(n), 1)]
    return [Fraction(weights[0], degree ** m)
            for m, weights in enumerate(walk_counts(n + 2, moves, n))]


def return_sequence(gset: MarkedGSet, mu: StepMeasure, n: int) -> List[Fraction]:
    """Exact p_m(x,x) for m = 0..n."""
    if n < 0:
        raise ValidationError("step count must be >= 0")
    rank = _free_rank(gset)
    if rank is not None and _is_uniform_srw(gset, mu):
        return _radial_return_sequence(rank, n)
    denominator, _graph, counts = _scaled_walk(gset, mu, n, closed=True)
    return [Fraction(weights[0], denominator ** m)
            for m, weights in enumerate(counts)]


def return_probability(gset: MarkedGSet, mu: StepMeasure, n: int,
                       precision: str = "exact"):
    """p_n(x,x) at the basepoint: a Fraction, or its float when precision
    is 'float'."""
    if precision not in ("exact", "float"):
        raise ValidationError("precision must be 'exact' or 'float'")
    value = return_sequence(gset, mu, n)[n]
    return value if precision == "exact" else float(value)


def rho_lower_bound(gset: MarkedGSet, mu: StepMeasure, max_steps: int) -> dict:
    """Lower bounds p_{2n}(x,x)^{1/2n} <= rho, and the best among them."""
    if not mu.symmetric:
        raise ValidationError("rho lower bounds need a symmetric measure")
    if max_steps < 2:
        raise ValidationError("max_steps must be >= 2")
    seq = return_sequence(gset, mu, max_steps)
    entries = []
    for m in range(2, max_steps + 1, 2):
        p = seq[m]
        if p > 0:
            entries.append((m, float(p) ** (1.0 / m)))
    if not entries:
        raise ValidationError("all even return probabilities vanish")
    best = max(value for _, value in entries)
    return {"best": best, "sequence": entries}


# -- inverted orbits ----------------------------------------------------------

def inverted_orbit_stats(gset: MarkedGSet, mu: StepMeasure, n: int,
                         trials: int, seed: int) -> dict:
    """Monte Carlo estimates of E(#O_n) and E(2^-#O_n), reproducible by seed."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if n < 0:
        raise ValidationError("n must be >= 0")
    rng = random.Random(seed)
    words = [word for word, _ in mu.items()]
    cumulative: List[float] = []
    acc = 0.0
    for _, weight in mu.items():
        acc += float(weight)
        cumulative.append(acc)
    sizes = []
    two_pows = []
    for _ in range(trials):
        steps = [words[_pick(rng, cumulative)] for _ in range(n)]
        orbit = {gset.base_key}
        for j in range(n):
            key = gset.base_key
            for word in steps[j:]:
                key = gset.act_word(key, word)
            orbit.add(key)
        sizes.append(len(orbit))
        two_pows.append(2.0 ** (-len(orbit)))
    mean_size = sum(sizes) / trials
    mean_two = sum(two_pows) / trials
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "meanSize": mean_size,
        "meanSizeStdErr": _std_err(sizes, mean_size),
        "meanTwoPow": mean_two,
        "meanTwoPowStdErr": _std_err(two_pows, mean_two),
    }


def _pick(rng: random.Random, cumulative: List[float]) -> int:
    u = rng.random()
    for i, edge in enumerate(cumulative):
        if u < edge:
            return i
    return len(cumulative) - 1


def _std_err(values, mean) -> float:
    if len(values) < 2:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance / len(values))


def expected_inverted_orbit_size(gset: MarkedGSet, mu: StepMeasure,
                                 n: int) -> Fraction:
    """Exact E(#O_n) from the renewal identity.

    Reversing the i.i.d. increments identifies #O_n with the number of
    distinct sites visited in n steps, so E(#O_n) = 1 + sum_{m<=n} P(no
    return to the start within m steps), with first-return probabilities
    obtained from return probabilities.
    """
    p = return_sequence(gset, mu, n)
    first_return = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        first_return[m] = p[m] - sum(
            first_return[k] * p[m - k] for k in range(1, m)
        )
    expected = Fraction(1)
    cumulative = Fraction(0)
    for m in range(1, n + 1):
        cumulative += first_return[m]
        expected += 1 - cumulative
    return expected
