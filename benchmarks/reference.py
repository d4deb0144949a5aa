"""Reference computations made apart from amenlab.

Nothing here imports amenlab.  Every function recomputes a fact that the
benchmark's workloads ask the program for, by a different route: level
permutations built from the wreath recursions, closed forms, integer dynamic
programs over the benchmark's own state, a Hall-condition oracle and a numpy
scan of cellular-automaton preimages.  ``checks.py`` compares the program's
outputs with these values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# -- self-similar groups as level permutations ---------------------------------
#
# A recursion maps a generator letter to ((section at 0, section at 1), swap).
# Sections are words over the same letters.  Leaves of level n are the
# integers 0 .. 2^n - 1 whose most significant bit is the first tree letter,
# so leaf i is the 0/1 word format(i, "0{n}b").  The action is a right action:
# (x0 rest) g = (x0 ^ swap) (rest g_{x0}), so the array of the word g h is
# perm_h[perm_g].

GRIGORCHUK_RECURSION = {
    "a": (("", ""), True),
    "b": (("a", "c"), False),
    "c": (("a", "d"), False),
    "d": (("", "b"), False),
}

# basilica letters: a, b and their inverses A, B; a = (1, b) swap, b = (1, a)
BASILICA_RECURSION = {
    "a": (("", "b"), True),
    "A": (("B", ""), True),
    "b": (("", "a"), False),
    "B": (("", "A"), False),
}

BASILICA_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def level_perms(recursion: Dict, level: int) -> Dict[str, np.ndarray]:
    """The permutation of the 2^level leaves induced by each letter."""
    perms = {g: np.zeros(1, dtype=np.int64) for g in recursion}
    for n in range(1, level + 1):
        half = 1 << (n - 1)
        new = {}
        for g, ((w0, w1), swap) in recursion.items():
            low = word_perm(perms, w0, half) + (half if swap else 0)
            high = word_perm(perms, w1, half) + (0 if swap else half)
            new[g] = np.concatenate([low, high])
        perms = new
    return perms


def word_perm(perms: Dict[str, np.ndarray], word: Iterable[str],
              size: int) -> np.ndarray:
    """Leaf images of a word, letters applied left to right."""
    image = np.arange(size, dtype=np.int64)
    for letter in word:
        image = perms[letter][image]
    return image


def grigorchuk_faithful_level(length: int) -> int:
    """A level on which every nontrivial element of the a,b,c,d group of
    word length at most ``length`` acts nontrivially.

    Generators act nontrivially on level 3 (d is the last to move a leaf).
    An element with trivial root permutation has sections of length at most
    (length + 1) / 2, so each halving of the length costs one level:
    lengths in (2^k, 2^(k+1)] need level k + 4.
    """
    if length <= 1:
        return 3
    return math.ceil(math.log2(length)) + 3


def grigorchuk_is_identity(word: str) -> bool:
    """Exact identity test by the level action at a faithful level."""
    level = grigorchuk_faithful_level(len(word))
    perms = _grigorchuk_perms(level)
    image = word_perm(perms, word, 1 << level)
    return bool(np.array_equal(image, np.arange(1 << level)))


_PERM_CACHE: Dict[Tuple[str, int], Dict[str, np.ndarray]] = {}


def _grigorchuk_perms(level: int) -> Dict[str, np.ndarray]:
    key = ("grigorchuk", level)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = level_perms(GRIGORCHUK_RECURSION, level)
    return _PERM_CACHE[key]


def sigma_word(word: str) -> str:
    """The substitution a -> aca, b -> d, c -> b, d -> c."""
    table = {"a": "aca", "b": "d", "c": "b", "d": "c"}
    return "".join(table[ch] for ch in word)


def selfsim_letters(family: str) -> List[str]:
    """Letters in the program's edge order: a, b, c, d for the a,b,c,d
    group (involutions), a, a^-1, b, b^-1 for the basilica group."""
    return ["a", "b", "c", "d"] if family == "grigorchuk" else ["a", "A", "b", "B"]


def selfsim_perms(family: str, level: int) -> Dict[str, np.ndarray]:
    if family == "grigorchuk":
        return _grigorchuk_perms(level)
    key = (family, level)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = level_perms(BASILICA_RECURSION, level)
    return _PERM_CACHE[key]


def cayley_ball_sizes(family: str, radius: int, level: int) -> List[int]:
    """Cumulative ball sizes of the Cayley graph, elements told apart by
    their action on the given level."""
    perms = selfsim_perms(family, level)
    letters = selfsim_letters(family)
    identity = np.arange(1 << level, dtype=np.int64)
    seen = {identity.tobytes()}
    frontier = [identity]
    sizes = [1]
    for _ in range(radius):
        new = []
        for element in frontier:
            for letter in letters:
                image = perms[letter][element]
                key = image.tobytes()
                if key not in seen:
                    seen.add(key)
                    new.append(image)
        frontier = new
        sizes.append(len(seen))
    return sizes


def orbit_ball_depths(family: str, depth: int, radius: int) -> Dict[str, int]:
    """Exact BFS depths of the orbit ball of 0^depth in the level-``depth``
    Schreier graph, keyed by the 0/1 vertex word."""
    perms = selfsim_perms(family, depth)
    letters = selfsim_letters(family)
    depths = {0: 0}
    frontier = [0]
    for step in range(1, radius + 1):
        new = []
        for v in frontier:
            for letter in letters:
                w = int(perms[letter][v])
                if w not in depths:
                    depths[w] = step
                    new.append(w)
        frontier = new
    return {format(v, f"0{depth}b"): d for v, d in depths.items()}


# -- closed forms --------------------------------------------------------------

def free_ball_size(rank: int, radius: int) -> int:
    """#B(r) in the free group of rank k: 1 + 2k((2k-1)^r - 1)/(2k-2)."""
    if rank == 1:
        return 2 * radius + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q ** radius - 1) // (q - 1)


def coset_ball_size(radius: int) -> int:
    """#B(r) in the coset graph H\\F2: r + 1 ray vertices plus the hanging
    tree, (3^r - 1)/2 vertices."""
    return radius + 1 + (3 ** radius - 1) // 2


def coset_sphere_sizes(radius: int) -> List[int]:
    """Vertices at each depth: the ray vertex plus 3^(k-1) tree vertices."""
    return [1] + [1 + 3 ** (k - 1) for k in range(1, radius + 1)]


def coset_edge_count(radius: int) -> int:
    """Edges (v, letter, w) with both ends in B(r).

    Inside B(r-1) all four letters stay in the ball.  On the outer shell a
    tree vertex keeps one letter (towards the root) and the ray vertex b^r
    keeps three (its two a-loops and b^-1).
    """
    if radius == 0:
        return 2  # the a-loops at H
    inner = coset_ball_size(radius - 1)
    return 4 * inner + 3 ** (radius - 1) + 3


def binomial_return_z(dim: int, steps: int) -> List[Fraction]:
    """p_m(0,0) of the simple random walk on Z^dim, dim in {1, 2}.

    On Z^2 the walk splits into two independent walks along the diagonals,
    so p_2n = (C(2n, n) / 4^n)^2.
    """
    out = []
    for m in range(steps + 1):
        if m % 2:
            out.append(Fraction(0))
            continue
        one = Fraction(math.comb(m, m // 2), 2 ** m)
        out.append(one if dim == 1 else one * one)
    return out


def truncated_rho_line(radius: int) -> float:
    """Top eigenvalue of the walk operator on the path with 2r+1 vertices."""
    return math.cos(math.pi / (2 * radius + 2))


def truncated_rho_tree(rank: int, radius: int) -> float:
    """Top eigenvalue of the walk on the 2k-regular tree ball of radius r.

    The Perron vector is radial, so it is the top eigenvalue of the
    tridiagonal chain on distances 0..r, symmetrized: the off-diagonal
    entries are sqrt(1 * 1/d) between 0 and 1 and sqrt((d-1)/d * 1/d)
    further out.
    """
    degree = 2 * rank
    size = radius + 1
    matrix = np.zeros((size, size))
    for d in range(radius):
        value = math.sqrt(1.0 / degree) if d == 0 \
            else math.sqrt((degree - 1.0) / degree ** 2)
        matrix[d, d + 1] = matrix[d + 1, d] = value
    return float(np.linalg.eigvalsh(matrix)[-1])


# -- integer dynamic programs over the benchmark's own state -------------------

def lamplighter_return_counts(steps: int) -> List[int]:
    """Closed walks of each length at the identity of (Z/2) wr Z, steps
    a (toggle), t, t^-1.  A state is (lamp bitmask, position); lamp j is bit
    j + steps."""
    offset = steps
    states = {(0, 0): 1}
    out = [1]
    for _ in range(steps):
        new: Dict[Tuple[int, int], int] = {}
        for (lamps, pos), count in states.items():
            for target in ((lamps ^ (1 << (pos + offset)), pos),
                           (lamps, pos + 1), (lamps, pos - 1)):
                new[target] = new.get(target, 0) + count
        states = new
        out.append(states.get((0, 0), 0))
    return out


def coset_return_counts(steps: int) -> List[int]:
    """Closed walks at H in the coset graph H\\F2, four letters per step.

    States: ("r", k) is the ray vertex b^k, ("t", j) a tree vertex at
    distance j from H.  A ray vertex has two a-loops, b goes up the ray,
    b^-1 goes down it or, at H, into the tree; a tree vertex has one letter
    back towards H and three away from it.
    """
    states = {("r", 0): 1}
    out = [1]
    for _ in range(steps):
        new: Dict[Tuple[str, int], int] = {}

        def add(state, count):
            new[state] = new.get(state, 0) + count

        for (kind, k), count in states.items():
            if kind == "r":
                add(("r", k), 2 * count)
                add(("r", k + 1), count)
                add(("r", k - 1) if k > 0 else ("t", 1), count)
            else:
                add(("t", k - 1) if k > 1 else ("r", 0), count)
                add(("t", k + 1), 3 * count)
        states = new
        out.append(states.get(("r", 0), 0))
    return out


def tree_return_counts(degree: int, steps: int) -> List[int]:
    """Closed walks at the root of the degree-regular tree: one letter leads
    back towards the root, the others away from it."""
    states = {0: 1}
    out = [1]
    for _ in range(steps):
        new: Dict[int, int] = {}
        for d, count in states.items():
            if d == 0:
                new[1] = new.get(1, 0) + degree * count
            else:
                new[d - 1] = new.get(d - 1, 0) + count
                new[d + 1] = new.get(d + 1, 0) + (degree - 1) * count
        states = new
        out.append(states.get(0, 0))
    return out


def walk_probabilities(counts: Sequence[int], degree: int) -> List[Fraction]:
    return [Fraction(c, degree ** m) for m, c in enumerate(counts)]


def reduced_closed_counts_z2(length: int) -> List[int]:
    """Reduced words over x, x^-1, y, y^-1 of each length that sum to 0."""
    steps = {"x": (1, 0), "X": (-1, 0), "y": (0, 1), "Y": (0, -1)}
    inverse = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
    states = {((0, 0), None): 1}
    out = [1]
    for _ in range(length):
        new: Dict = {}
        for (pos, last), count in states.items():
            for letter, (dx, dy) in steps.items():
                if last is not None and inverse[last] == letter:
                    continue
                key = ((pos[0] + dx, pos[1] + dy), letter)
                new[key] = new.get(key, 0) + count
        states = new
        out.append(sum(c for (pos, _l), c in states.items() if pos == (0, 0)))
    return out


def reduced_closed_counts_lamplighter(length: int) -> List[int]:
    """Reduced words in the free group on a, t mapped to (Z/2) wr Z.

    The formal letters a and a^-1 both toggle the lamp, but a word is
    reduced in the free group, so only a a^-1, a^-1 a, t t^-1 and t^-1 t
    are forbidden.
    """
    offset = length
    inverse = {"a": "A", "A": "a", "t": "T", "T": "t"}
    states = {(0, 0, None): 1}
    out = [1]
    for _ in range(length):
        new: Dict = {}
        for (lamps, pos, last), count in states.items():
            for letter in "aAtT":
                if last is not None and inverse[last] == letter:
                    continue
                if letter in "aA":
                    key = (lamps ^ (1 << (pos + offset)), pos, letter)
                else:
                    key = (lamps, pos + (1 if letter == "t" else -1), letter)
                new[key] = new.get(key, 0) + count
        states = new
        out.append(sum(c for (lamps, pos, _l), c in states.items()
                       if lamps == 0 and pos == 0))
    return out


# -- word evaluation for the normal-form families ------------------------------
#
# Words are lists of (generator index, sign).  Each evaluator returns a
# hashable value that equals for two words exactly when they are the same
# group element.

def eval_free(word) -> Tuple:
    stack: List[Tuple[int, int]] = []
    for gen, sign in word:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def eval_abelian(word, rank: int) -> Tuple:
    exps = [0] * rank
    for gen, sign in word:
        exps[gen] += sign
    return tuple(exps)


def eval_lamplighter(word) -> Tuple:
    lamps = set()
    pos = 0
    for gen, sign in word:
        if gen == 0:
            lamps ^= {pos}
        else:
            pos += sign
    return (frozenset(lamps), pos)


def eval_dihedral(word) -> Tuple:
    """x: n -> -n and y: n -> 1 - n on Z; an affine map n -> e n + t."""
    e, t = 1, 0
    for gen, _sign in word:
        # right action: first apply the map so far, then the letter
        if gen == 0:
            e, t = -e, -t
        else:
            e, t = -e, 1 - t
    return (e, t)


def is_reduced_free(word) -> bool:
    return all(word[i] != (word[i + 1][0], -word[i + 1][1])
               for i in range(len(word) - 1))


def is_reduced_dihedral(word) -> bool:
    return all(sign == 1 for _g, sign in word) and \
        all(word[i][0] != word[i + 1][0] for i in range(len(word) - 1))


def lamplighter_normal_word(element) -> List[Tuple[int, int]]:
    """The canonical word of a lamplighter element (lamps, position): walk
    from 0 to each lit lamp in increasing order, toggling it with one a,
    then walk to the position."""
    lamps, position = element
    out: List[Tuple[int, int]] = []
    here = 0
    for target in sorted(lamps) + [position]:
        sign = 1 if target >= here else -1
        out.extend((1, sign) for _ in range(abs(target - here)))
        here = target
        out.append((0, 1))
    return out[:-1]  # no lamp letter after the final walk


def is_abelian_normal(word, rank: int) -> bool:
    """Letters sorted by generator, one sign per generator."""
    gens = [g for g, _s in word]
    if gens != sorted(gens):
        return False
    signs: Dict[int, int] = {}
    for gen, sign in word:
        if signs.setdefault(gen, sign) != sign:
            return False
    return all(0 <= g < rank for g in gens)


# -- Folner function by exhaustion on the benchmark's own lattice model --------

def lattice_interior(dim: int, radius: int) -> List[Tuple[int, ...]]:
    """Points of the l1 ball of radius r - 1 in Z^dim (the interior of the
    Cayley ball of radius r)."""
    span = range(-(radius - 1), radius)
    return [p for p in itertools.product(span, repeat=dim)
            if sum(abs(c) for c in p) <= radius - 1]


def lattice_fol(dim: int, radius: int, n: int, size_cap: int = 12) -> Optional[int]:
    """Least #F over subsets F of the interior with #(F delta F+e) < #F/n
    for every unit vector e (both signs give the same count)."""
    points = lattice_interior(dim, radius)
    index = {p: i for i, p in enumerate(points)}
    shifts = []
    for axis in range(dim):
        shifted = []
        for p in points:
            q = list(p)
            q[axis] += 1
            # a point leaving the interior gets an id of its own
            shifted.append(index.get(tuple(q), -1 - len(shifted)))
        shifts.append(shifted)
    for k in range(1, min(size_cap, len(points)) + 1):
        for combo in itertools.combinations(range(len(points)), k):
            members = set(combo)
            ok = True
            for shifted in shifts:
                image = {shifted[i] for i in combo}
                diff = len(members - image) + len(image - members)
                if n * diff >= k:
                    ok = False
                    break
            if ok:
                return k
    return None


# -- Hall's condition ----------------------------------------------------------

def hall_condition(rows: np.ndarray, nv: int, nw: int) -> np.ndarray:
    """For each graph, whether every left subset F has #N(F) >= #F.

    ``rows`` has shape (graphs, nv): row i is the neighbour bitmask of left
    vertex i.  Exhausts all 2^nv - 1 nonempty subsets, vectorized over the
    graphs.
    """
    ok = np.ones(rows.shape[0], dtype=bool)
    for subset in range(1, 1 << nv):
        union = np.zeros(rows.shape[0], dtype=np.int64)
        for i in range(nv):
            if subset >> i & 1:
                union |= rows[:, i]
        size = np.zeros(rows.shape[0], dtype=np.int64)
        for j in range(nw):
            size += (union >> j) & 1
        ok &= size >= bin(subset).count("1")
    return ok


def matching_is_valid(neighbours: Sequence[Sequence[int]],
                      matching: Sequence[int]) -> bool:
    """An injection of the left side into neighbours."""
    return len(matching) == len(neighbours) \
        and len(set(matching)) == len(matching) \
        and all(w in neighbours[v] for v, w in enumerate(matching))


def violator_is_valid(neighbours: Sequence[Sequence[int]],
                      violator: Sequence[int]) -> bool:
    """A nonempty left set F with #N(F) < #F."""
    if not violator or len(set(violator)) != len(violator):
        return False
    if any(not 0 <= v < len(neighbours) for v in violator):
        return False
    seen = set()
    for v in violator:
        seen.update(neighbours[v])
    return len(seen) < len(violator)


# -- free group ball for the paradoxical decomposition --------------------------

def paradox_ball_sizes(radius: int) -> Tuple[int, int]:
    """(#B(r), #B(r-1)) in F2."""
    inner = free_ball_size(2, radius - 1) if radius >= 1 else 0
    return free_ball_size(2, radius), inner


# -- cellular automata on a torus ----------------------------------------------
#
# A configuration of the m x n torus is an integer whose bit i*n + j holds
# the cell (i, j).  A rule is a memory (list of offsets) and a lookup table
# indexed by the memory values read as bits, first offset lowest.

def life_table() -> np.ndarray:
    """Conway's Life on the 3x3 memory in sorted offset order."""
    offsets = sorted(itertools.product((-1, 0, 1), repeat=2))
    centre = offsets.index((0, 0))
    table = np.zeros(1 << 9, dtype=np.int64)
    for code in range(1 << 9):
        values = [(code >> k) & 1 for k in range(9)]
        alive = sum(values) - values[centre]
        if values[centre]:
            table[code] = 1 if alive in (2, 3) else 0
        else:
            table[code] = 1 if alive == 3 else 0
    return table


def torus_images(mods: Tuple[int, int], memory: Sequence[Tuple[int, int]],
                 table: np.ndarray) -> np.ndarray:
    """The image of every configuration of the torus, as integers."""
    m, n = mods
    cells = m * n
    configs = np.arange(1 << cells, dtype=np.int64)
    bits = [(configs >> k) & 1 for k in range(cells)]
    image = np.zeros_like(configs)
    for i in range(m):
        for j in range(n):
            code = np.zeros_like(configs)
            for k, (di, dj) in enumerate(memory):
                code |= bits[((i + di) % m) * n + (j + dj) % n] << k
            image |= table[code] << (i * n + j)
    return image


def pattern_code(mods: Tuple[int, int], cells: Dict[Tuple[int, int], int]) -> int:
    n = mods[1]
    return sum(v << (i * n + j) for (i, j), v in cells.items())


# -- the Fibonacci subshift ----------------------------------------------------

def fibonacci_word(length: int) -> str:
    """Prefix of the fixed point of 0 -> 01, 1 -> 0."""
    word = "0"
    while len(word) < length:
        word = "".join("01" if ch == "0" else "0" for ch in word)
    return word[:length]


def fibonacci_factors(length: int) -> List[str]:
    prefix = fibonacci_word(40 * length + 200)
    return sorted({prefix[i:i + length]
                   for i in range(len(prefix) - length + 1)})


def piecewise_shift_is_bijective(rows: Sequence[Tuple[int, str, int]],
                                 sample: int = 4000) -> bool:
    """Check a cylinder-wise shift on a long window of the Fibonacci word.

    The element moves the origin at position p by the shift of the row whose
    word is read at p + left.  On an orbit segment of a minimal subshift a
    bijection of the subshift is a bijection of positions, so the images of
    the inner positions must be distinct and must cover the inner positions
    away from the window's edges.
    """
    word = fibonacci_word(sample)
    margin = max(abs(s) + len(w) + abs(l) for l, w, s in rows) + 1
    images = []
    for p in range(margin, sample - margin):
        hits = [s for left, w, s in rows if word[p + left:p + left + len(w)] == w]
        if len(hits) != 1:
            return False
        images.append(p + hits[0])
    if len(set(images)) != len(images):
        return False
    core = set(range(2 * margin, sample - 2 * margin))
    return core <= set(images)
