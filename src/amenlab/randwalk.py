"""Random walks driven by a finitely supported measure on the acting group.

Exact convolution powers, return probabilities, spectral-radius lower bounds
p_{2n}(x,x)^{1/2n}, Dirichlet-truncated operator estimates, Kesten inequality
reports, and inverted-orbit statistics.

Exact walks run the integer DP ``orbits.walk_counts`` with mu scaled by its
common denominator D, dividing by D^m once per step count m.  With steps of
length <= L, n-step return probabilities need only the ball of radius
floor(nL/2) and the n-step law the ball of radius nL, under the vertex cap.

Walks on the free-group Cayley graph get a radial fast path: the uniform
symmetric walk is isotropic, so return probabilities reduce to a birth-death
chain on the distance from the origin, and the Perron eigenvector of the
truncated operator is radial.  The generic code paths stay available and the
two are cross-checked in the tests.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import CapExceeded, ValidationError
from .groups import Word, _free_reduce
from .orbits import MarkedGSet, SchreierGraph, build_ball, walk_counts

_EXACT_STEP_CAP = 64
_EXACT_SUPPORT_CAP = 1_000_000
_POWER_ITERATION_CAP = 200_000


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
        # free reduction is sound for every family (it never changes the element)
        flags = gset.involutions
        for gen, sign in word:
            if not 0 <= gen < len(flags) or sign not in (1, -1):
                raise ValidationError(f"bad letter {(gen, sign)!r}")
        return _free_reduce(
            ((gen, 1 if flags[gen] else sign) for gen, sign in word),
            [gen for gen, flag in enumerate(flags) if flag],
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
    letters = gset.edge_letters()
    weight = Fraction(1, len(letters))
    return StepMeasure(gset, [((letter,), weight) for letter in letters])


def lazy_measure(mu: StepMeasure, hold: Fraction = Fraction(1, 2)) -> StepMeasure:
    """Replace mu by hold * delta_1 + (1 - hold) * mu (never done implicitly)."""
    hold = Fraction(hold)
    if not 0 < hold < 1:
        raise ValidationError("laziness parameter must lie strictly in (0,1)")
    support = [((), hold)]
    support.extend((word, (1 - hold) * weight) for word, weight in mu.items())
    return StepMeasure(mu.gset, support)


class Distribution:
    """Finitely supported probability on vertex keys."""

    def __init__(self, entries: Dict, precision: str):
        if precision not in ("exact", "float"):
            raise ValidationError("precision must be 'exact' or 'float'")
        total = sum(entries.values())
        if precision == "exact":
            if total != 1:
                raise ValidationError("exact distribution must sum to 1")
        elif abs(total - 1.0) > 1e-12:
            raise ValidationError("float distribution total deviates from 1")
        if any(v < 0 for v in entries.values()):
            raise ValidationError("negative mass")
        self.entries = dict(entries)
        self.precision = precision

    def mass(self, key):
        zero = Fraction(0) if self.precision == "exact" else 0.0
        return self.entries.get(key, zero)

    def __len__(self):
        return len(self.entries)


def measure_power(gset: MarkedGSet, mu: StepMeasure, n: int,
                  precision: str = "exact") -> Distribution:
    """Exact law of the walk started at the basepoint after n steps."""
    if n < 0:
        raise ValidationError("step count must be >= 0")
    if precision == "exact" and n > _EXACT_STEP_CAP:
        raise CapExceeded(
            f"exact convolution is capped at {_EXACT_STEP_CAP} steps; "
            "use precision='float' or the radial fast path"
        )
    denominator, graph, counts = _scaled_walk(gset, mu, n, closed=False)
    *_, weights = counts
    entries = {}
    for i in np.flatnonzero(weights):
        mass = Fraction(weights[i], denominator ** n)
        entries[graph.keys[i]] = mass if precision == "exact" else float(mass)
    return Distribution(entries, precision)


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
    letters = gset.edge_letters()
    expected = {((letter,), Fraction(1, len(letters))) for letter in letters}
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
    away = np.arange(1, n + 1)
    moves = [([0], [1], degree), (away, away + 1, degree - 1),
             (away, away - 1, 1)]
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
    """p_n(x,x) at the basepoint; exact in rational mode."""
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


# -- Dirichlet truncation ----------------------------------------------------

def _transition_rows(graph: SchreierGraph, mu: StepMeasure):
    vertices = sorted(graph.vertices, key=graph.gset.show_key)
    row_of = {graph.ids[v]: row for row, v in enumerate(vertices)}
    rows: List[List[Tuple[int, float]]] = [[] for _ in vertices]
    for word, weight in mu.items():
        src, dst = graph.word_edges(word)
        for i, j in zip(src.tolist(), dst.tolist()):
            rows[row_of[i]].append((row_of[j], float(weight)))
    return vertices, rows


_DENSE_EIG_CAP = 1500


def _top_eigenvalue(rows, size: int, tol: float) -> float:
    """Largest eigenvalue of the (symmetric) truncated transition matrix."""
    if size <= _DENSE_EIG_CAP:
        matrix = np.zeros((size, size))
        for i, row in enumerate(rows):
            for j, w in row:
                matrix[i, j] += w
        return float(np.linalg.eigvalsh(matrix)[-1])
    return _power_iteration(rows, size, tol)


def _power_iteration(rows, size: int, tol: float) -> float:
    src = np.array([i for i, row in enumerate(rows) for _ in row],
                   dtype=np.int64)
    dst = np.array([j for row in rows for j, _ in row], dtype=np.int64)
    weights = np.array([w for row in rows for _, w in row])

    # iterate the shifted operator A + 1: same Perron vector, but its top
    # eigenvalue is strictly dominant even on bipartite graphs
    def matvec(vec):
        out = vec.copy()
        np.add.at(out, src, weights * vec[dst])
        return out

    vec = np.ones(size) / math.sqrt(size)
    previous = 0.0
    for _ in range(_POWER_ITERATION_CAP):
        image = matvec(vec)
        norm = float(np.linalg.norm(image))
        if norm == 0.0:
            return 0.0
        rayleigh = float(np.dot(vec, image))
        vec = image / norm
        if abs(rayleigh - previous) < tol:
            return rayleigh - 1.0
        previous = rayleigh
    raise CapExceeded(
        f"power iteration did not converge within {_POWER_ITERATION_CAP} steps"
    )


def _radial_truncated_rho(k: int, radius: int) -> float:
    """Top eigenvalue of the truncated SRW operator on the 2k-regular tree
    ball, computed on the radial chain (the Perron eigenvector is radial)."""
    degree = 2 * k
    size = radius + 1
    matrix = np.zeros((size, size))
    if radius >= 1:
        matrix[0, 1] = 1.0
    for d in range(1, size):
        matrix[d, d - 1] = 1.0 / degree
        if d + 1 < size:
            matrix[d, d + 1] = (degree - 1.0) / degree
    eigenvalues = np.linalg.eigvals(matrix)
    return float(max(ev.real for ev in eigenvalues))


def truncated_rho(target: Union[SchreierGraph, MarkedGSet],
                  mu: Optional[StepMeasure] = None,
                  radius: Optional[int] = None,
                  tol: float = 1e-10) -> float:
    """Top eigenvalue of the Dirichlet-truncated walk operator on a ball.

    Accepts a built SchreierGraph, or a MarkedGSet plus radius (in which case
    the free-group uniform walk uses the exact radial reduction).
    """
    gset = target if isinstance(target, MarkedGSet) else target.gset
    if mu is None:
        mu = srw_measure(gset)
    if not mu.symmetric:
        raise ValidationError("truncated_rho needs a symmetric measure")
    if isinstance(target, MarkedGSet):
        if radius is None or radius < 0:
            raise ValidationError(
                "truncated_rho on a gset needs a radius >= 0")
        rank = _free_rank(target)
        if rank is not None and _is_uniform_srw(target, mu):
            return _radial_truncated_rho(rank, radius)
        graph = build_ball(target, radius)
    else:
        graph = target
    vertices, rows = _transition_rows(graph, mu)
    return _top_eigenvalue(rows, len(vertices), tol)


def operator_identity_residual(graph: SchreierGraph, mu: StepMeasure) -> float:
    """Max entrywise residual of T = 1 - d*d on the interior rows.

    d maps vertex functions to edge functions, (df)(x,y) = f(x) - f(y);
    (d*g)(x) = sum_y p1(x,y) g(x,y).  Both are assembled explicitly.
    """
    vertices, rows = _transition_rows(graph, mu)
    interior = [i for i, v in enumerate(vertices) if graph.is_interior(v)]
    size = len(vertices)
    transition = np.zeros((size, size))
    for i, row in enumerate(rows):
        for j, w in row:
            transition[i, j] += w
    # aggregate p1(x,y) per ordered pair (several support words may coincide)
    edges = sorted({(i, j) for i in interior for j, _w in rows[i]})
    d_matrix = np.zeros((len(edges), size))
    d_star = np.zeros((size, len(edges)))
    for e, (i, j) in enumerate(edges):
        d_matrix[e, i] += 1.0
        d_matrix[e, j] -= 1.0
        d_star[i, e] = transition[i, j]
    laplacian = d_star @ d_matrix
    residual = 0.0
    for i in interior:
        for j in range(size):
            expected = (1.0 if i == j else 0.0) - laplacian[i, j]
            residual = max(residual, abs(transition[i, j] - expected))
    return residual


def kesten_check(iota_upper: Optional[float] = None,
                 rho_lower: Optional[float] = None,
                 exact_pair: Optional[Tuple[float, float]] = None) -> dict:
    """Report on the inequalities iota^2 + rho^2 <= 1 <= iota + rho."""
    report: dict = {"checks": []}
    if exact_pair is not None:
        iota, rho = exact_pair
        squares = iota * iota + rho * rho
        report["checks"].append({
            "name": "squares",
            "value": squares,
            "holds": squares <= 1.0 + 1e-12,
            "tight": abs(squares - 1.0) <= 1e-12,
        })
        report["checks"].append({
            "name": "sum",
            "value": iota + rho,
            "holds": iota + rho >= 1.0 - 1e-12,
        })
        if rho_lower is not None:
            report["checks"].append({
                "name": "rho_lower_sound",
                "value": rho_lower,
                "holds": rho_lower <= rho + 1e-9,
            })
        if iota_upper is not None:
            report["checks"].append({
                "name": "iota_upper_sound",
                "value": iota_upper,
                "holds": iota_upper >= iota - 1e-9,
            })
    elif iota_upper is not None and rho_lower is not None:
        # only the sound direction is testable from an upper/lower pair
        report["checks"].append({
            "name": "bounds_compatible",
            "value": rho_lower ** 2,
            "holds": rho_lower ** 2 <= 1.0 + 1e-12,
        })
        report["checks"].append({
            "name": "folner_side",
            "value": iota_upper,
            "holds": iota_upper >= 0.0,
        })
    else:
        raise ValidationError("kesten_check needs an exact pair or both bounds")
    report["passed"] = all(c["holds"] for c in report["checks"])
    return report


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
