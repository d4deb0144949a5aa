"""Seeded inputs of the workloads, made without amenlab.

The worker hands these to the program and ``checks.py`` hands the same
values to the references, so both sides see identical inputs for a seed.
Every size that sets the cost of a round is a constant here; the seed only
picks which words and graphs of those sizes are used.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

# selfsim
GRIG_RADIUS = 7
BASILICA_RADIUS = 2
ORBIT_DEPTH = 12
ORBIT_RADIUS = 60
RANDOM_WORDS = 400
RANDOM_WORD_LENGTH = 100
RELATOR_WORDS = 400
CONJUGATOR_LENGTH = (5, 40)
EQUALITY_PAIRS = 200
RELATORS = ("bcd", "adadadad")

# words
COSET_RADIUS = 10
FREE_RADIUS = 8
RETURN_STEPS = {"cayley:lamplighter": 12, "coset:f2": 9,
                "cayley:z:2": 16, "cayley:dihedral": 30}
COGROWTH_LENGTH = {"lamplighter": 10, "z:2": 16}
DENSE_RHO_RADIUS = 5       # free:2 ball of 485 vertices: dense eigensolver
LINE_RHO_RADIUS = 40       # z:1 ball of 81 vertices: dense eigensolver
RADIAL_RHO_RADIUS = 12     # free:2 radial fast path
NORMAL_FORM_WORDS = 500
NORMAL_FORM_LENGTH = 60
NORMAL_FORM_FAMILIES = ("free:3", "z:2", "lamplighter", "dihedral")
FAMILY_RANK = {"free:3": 3, "z:2": 2, "lamplighter": 2, "dihedral": 2}

# search
HALL_SWEEP_MAX = 4         # every graph with nv, nw <= 4, except 4 x 4
RANDOM_GRAPHS = 10000
RANDOM_GRAPH_SIDES = (4, 8)
RANDOM_GRAPH_DENSITY = 0.4
PARADOX_RADIUS = 8
FOL_CASES = (("cayley:z:1", 9, 3), ("cayley:z:1", 8, 2), ("cayley:z:2", 3, 1))
TORUS_RULES = (("life", (3, 3)), ("xor2d", (3, 4)), ("and2d", (3, 4)),
               ("flip", (3, 4)))
TOPFULL_LENGTH = 10

# readme: the "Command line" block of the repository README, verbatim
README_COMMANDS = (
    "growth --group grigorchuk --radius 8",
    "folner --group z:1 --radius 6 --fol 1",
    "walk return --group free:2 --steps 10",
    "cogrowth report --group z:2 --length 16 --rho-lower 1.0",
    "ca goe --rule and:z --radius 1",
    "paradox verify --radius 6",
    "topfull search --length 3",
    "graph --gset coset:f2 --radius 4",
)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _grig_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("abcd") for _ in range(length))


def selfsim_words(seed: int) -> Dict[str, List]:
    """Random words, conjugates of relators (some sent through sigma), and
    equality pairs (x, x q) with q a relator conjugate or (x, y) random."""
    rng = _rng(seed, "selfsim")
    random_words = [_grig_word(rng, RANDOM_WORD_LENGTH)
                    for _ in range(RANDOM_WORDS)]
    relator_words = []
    for i in range(RELATOR_WORDS):
        conj = _grig_word(rng, rng.randint(*CONJUGATOR_LENGTH))
        relator = RELATORS[i % len(RELATORS)]
        # all generators are involutions, so the inverse is the reverse
        relator_words.append((conj + relator + conj[::-1], bool(i % 4 >= 2)))
    pairs = []
    for i in range(EQUALITY_PAIRS):
        x = _grig_word(rng, rng.randint(10, 40))
        if i % 2:
            conj = _grig_word(rng, rng.randint(*CONJUGATOR_LENGTH))
            relator = RELATORS[(i // 2) % len(RELATORS)]
            pairs.append((x, x + conj + relator + conj[::-1]))
        else:
            pairs.append((x, _grig_word(rng, rng.randint(10, 40))))
    return {"random": random_words, "relators": relator_words,
            "pairs": pairs}


def normal_form_words(seed: int) -> Dict[str, List[List[Tuple[int, int]]]]:
    """Random words (generator index, sign) for each normal-form family."""
    rng = _rng(seed, "words")
    out = {}
    for family in NORMAL_FORM_FAMILIES:
        rank = FAMILY_RANK[family]
        words = []
        for _ in range(NORMAL_FORM_WORDS):
            word = []
            for _ in range(NORMAL_FORM_LENGTH):
                gen = rng.randrange(rank)
                involution = family == "dihedral" or \
                    (family == "lamplighter" and gen == 0)
                word.append((gen, 1 if involution else rng.choice((1, -1))))
            words.append(word)
        out[family] = words
    return out


def hall_graphs(seed: int) -> List[List[List[int]]]:
    """Neighbour lists: the exhaustive sweep, then seeded random graphs."""
    graphs = []
    for nv in range(1, HALL_SWEEP_MAX + 1):
        for nw in range(1, HALL_SWEEP_MAX + 1):
            if nv == nw == HALL_SWEEP_MAX:
                continue
            for code in range(1 << (nv * nw)):
                graphs.append([[w for w in range(nw) if code >> (v * nw + w) & 1]
                               for v in range(nv)])
    rng = _rng(seed, "search")
    low, high = RANDOM_GRAPH_SIDES
    for _ in range(RANDOM_GRAPHS):
        nv, nw = rng.randint(low, high), rng.randint(low, high)
        graphs.append([[w for w in range(nw) if rng.random() < RANDOM_GRAPH_DENSITY]
                       for _v in range(nv)])
    return graphs


def task_names(workload: str) -> List[str]:
    """Operation names of one round, in order (workloads.py builds the
    matching callables once amenlab is imported)."""
    if workload == "readme":
        return list(README_COMMANDS)
    if workload == "selfsim":
        return ["growth:grigorchuk", "growth:basilica", "orbit:grigorchuk",
                "orbit:basilica", "identity:random", "identity:relators",
                "equals:pairs"]
    if workload == "words":
        return (["ball:coset:f2", "to_json:coset:f2", "ball:free:2",
                 "rho_power:free:2", "rho_dense:free:2", "rho_dense:z:1",
                 "rho_radial:free:2"]
                + [f"return:{spec}" for spec in RETURN_STEPS]
                + [f"{kind}:{spec}" for spec in COGROWTH_LENGTH
                   for kind in ("cogrowth", "series")]
                + [f"normal_form:{family}" for family in NORMAL_FORM_FAMILIES])
    return (["hall", "paradox_verify"]
            + [f"fol:{spec}:{radius}:{n}" for spec, radius, n in FOL_CASES]
            + [f"{kind}:{name}" for name, _mods in TORUS_RULES
               for kind in ("goe", "mep")]
            + ["topfull"])
