"""Checks of the program's outputs against ``reference.py``.

``check(workload, task, summary, seed)`` returns True when the summary a
worker made of the program's result agrees with the reference.  The checks
import no part of amenlab; they see only plain JSON values.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Dict, List

import numpy as np

import inputs
import reference as ref

# Levels deeper than the program's signature depths (8 and 12).
GRIG_CHECK_LEVEL = 11
BASILICA_CHECK_LEVEL = 15

# randwalk stops power iteration when the Rayleigh quotient moves less than
# 1e-10 per step; 1e-6 leaves room for slow convergence.
POWER_TOLERANCE = 1e-6
DENSE_TOLERANCE = 1e-9


def _ratios(values: List[Fraction]) -> List[str]:
    return [f"{v.numerator}/{v.denominator}" for v in values]


# -- selfsim -------------------------------------------------------------------

def _orbit_edges(family: str, depths: Dict[str, int]) -> int:
    level = len(next(iter(depths)))
    perms = ref.selfsim_perms(family, level)
    members = {int(key, 2) for key in depths}
    return sum(int(perms[letter][v]) in members
               for v in members for letter in ref.selfsim_letters(family))


def _verdicts(words: List[str], summary) -> bool:
    expected = [[ref.grigorchuk_is_identity(w), False] for w in words]
    return summary == expected


def check_selfsim(task: str, summary, seed: int) -> bool:
    if task == "growth:grigorchuk":
        return summary == ref.cayley_ball_sizes(
            "grigorchuk", inputs.GRIG_RADIUS, GRIG_CHECK_LEVEL)
    if task == "growth:basilica":
        return summary == ref.cayley_ball_sizes(
            "basilica", inputs.BASILICA_RADIUS, BASILICA_CHECK_LEVEL)
    if task.startswith("orbit:"):
        family = task.split(":")[1]
        depths = ref.orbit_ball_depths(family, inputs.ORBIT_DEPTH,
                                       inputs.ORBIT_RADIUS)
        return summary["depths"] == depths and \
            summary["edges"] == _orbit_edges(family, depths)
    words = inputs.selfsim_words(seed)
    if task == "identity:random":
        return _verdicts(words["random"], summary)
    if task == "identity:relators":
        return _verdicts([ref.sigma_word(w) if sig else w
                          for w, sig in words["relators"]], summary)
    if task == "equals:pairs":
        return _verdicts([x + y[::-1] for x, y in words["pairs"]], summary)
    return False


# -- words ---------------------------------------------------------------------

def _free_ball_summary(radius: int) -> Dict:
    spheres = [1] + [4 * 3 ** (k - 1) for k in range(1, radius + 1)]
    return {"vertices": ref.free_ball_size(2, radius),
            "edges": 4 * ref.free_ball_size(2, radius - 1) + spheres[-1],
            "spheres": spheres}


def _coset_ball_summary(radius: int) -> Dict:
    return {"vertices": ref.coset_ball_size(radius),
            "edges": ref.coset_edge_count(radius),
            "spheres": ref.coset_sphere_sizes(radius)}


def graph_json_ok(text: str, spec: str, basepoint: str, radius: int,
                  expected: Dict) -> bool:
    """A SchreierGraph.to_json payload: sorted, closed under its edges and
    with the expected vertex, sphere and edge counts."""
    payload = json.loads(text)
    vertices, edges = payload["vertices"], payload["edges"]
    keys = {v["key"] for v in vertices}
    spheres: Dict[int, int] = {}
    for v in vertices:
        spheres[v["depth"]] = spheres.get(v["depth"], 0) + 1
    return (
        text == json.dumps(payload, sort_keys=True)
        and payload["group"] == spec and payload["basepoint"] == basepoint
        and payload["radius"] == radius
        and len(vertices) == len(keys) == expected["vertices"]
        and [spheres.get(k, 0) for k in range(radius + 1)] == expected["spheres"]
        and len(edges) == expected["edges"]
        and vertices == sorted(vertices, key=lambda v: (v["depth"], v["key"]))
        and edges == sorted(edges, key=lambda e: (e["src"], e["gen"], e["dst"]))
        and all(e["src"] in keys and e["dst"] in keys for e in edges)
    )


def _normal_forms_ok(family: str, words, forms) -> bool:
    rank = inputs.FAMILY_RANK[family]
    if len(words) != len(forms):
        return False
    for word, form in zip(words, forms):
        form = [tuple(letter) for letter in form]
        if family.startswith("free"):
            same = ref.eval_free(word) == ref.eval_free(form)
            normal = ref.is_reduced_free(form)
        elif family.startswith("z"):
            same = ref.eval_abelian(word, rank) == ref.eval_abelian(form, rank)
            normal = ref.is_abelian_normal(form, rank)
        elif family == "lamplighter":
            # reduced words of an element are not unique: require the one
            # canonical word
            same = normal = form == ref.lamplighter_normal_word(
                ref.eval_lamplighter(word))
        else:
            same = ref.eval_dihedral(word) == ref.eval_dihedral(form)
            normal = ref.is_reduced_dihedral(form)
        if not (same and normal):
            return False
    return True


def _close(value, expected, tolerance) -> bool:
    return isinstance(value, float) and abs(value - expected) <= tolerance


def check_words(task: str, summary, seed: int, out_dir: str) -> bool:
    if task == "ball:coset:f2":
        return summary == _coset_ball_summary(inputs.COSET_RADIUS)
    if task == "to_json:coset:f2":
        with open(os.path.join(out_dir, summary["file"])) as handle:
            text = handle.read()
        return len(text) == summary["bytes"] and graph_json_ok(
            text, "coset:f2", "H", inputs.COSET_RADIUS,
            _coset_ball_summary(inputs.COSET_RADIUS))
    if task == "ball:free:2":
        return summary == _free_ball_summary(inputs.FREE_RADIUS)
    if task == "rho_power:free:2":
        return _close(summary, ref.truncated_rho_tree(2, inputs.FREE_RADIUS),
                      POWER_TOLERANCE)
    if task == "rho_dense:free:2":
        return _close(summary, ref.truncated_rho_tree(
            2, inputs.DENSE_RHO_RADIUS), DENSE_TOLERANCE)
    if task == "rho_dense:z:1":
        return _close(summary, ref.truncated_rho_line(inputs.LINE_RHO_RADIUS),
                      DENSE_TOLERANCE)
    if task == "rho_radial:free:2":
        return _close(summary, ref.truncated_rho_tree(
            2, inputs.RADIAL_RHO_RADIUS), DENSE_TOLERANCE)
    if task.startswith("return:"):
        spec = task[len("return:"):]
        steps = inputs.RETURN_STEPS[spec]
        expected = {
            "cayley:lamplighter": lambda: ref.walk_probabilities(
                ref.lamplighter_return_counts(steps), 3),
            "coset:f2": lambda: ref.walk_probabilities(
                ref.coset_return_counts(steps), 4),
            "cayley:z:2": lambda: ref.binomial_return_z(2, steps),
            "cayley:dihedral": lambda: ref.binomial_return_z(1, steps),
        }[spec]()
        return summary == _ratios(expected)
    if task.startswith("cogrowth:"):
        spec = task[len("cogrowth:"):]
        length = inputs.COGROWTH_LENGTH[spec]
        counts = ref.reduced_closed_counts_lamplighter(length) \
            if spec == "lamplighter" else ref.reduced_closed_counts_z2(length)
        return summary == {"counts": counts, "s_pm": 4}
    if task.startswith("series:"):
        spec = task[len("series:"):]
        return summary == {"degree": inputs.COGROWTH_LENGTH[spec],
                           "max_residual": "0/1"}
    if task.startswith("normal_form:"):
        family = task[len("normal_form:"):]
        return _normal_forms_ok(family,
                                inputs.normal_form_words(seed)[family],
                                summary)
    return False


# -- search --------------------------------------------------------------------

def _hall_ok(graphs, results) -> bool:
    if len(graphs) != len(results):
        return False
    by_shape: Dict = {}
    for index, graph in enumerate(graphs):
        nw = max((w for ws in graph for w in ws), default=0) + 1
        by_shape.setdefault((len(graph), nw), []).append(index)
    hall = np.zeros(len(graphs), dtype=bool)
    for (nv, nw), indices in by_shape.items():
        rows = np.array([[sum(1 << w for w in ws) for ws in graphs[i]]
                         for i in indices], dtype=np.int64)
        hall[indices] = ref.hall_condition(rows, nv, nw)
    for graph, ok, (matched, certificate) in zip(graphs, hall, results):
        if matched != ok:
            return False
        valid = ref.matching_is_valid(graph, certificate) if matched \
            else ref.violator_is_valid(graph, certificate)
        if not valid:
            return False
    return True


RULE_TABLES = {
    "life": (tuple(sorted((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))),
             None),
    "xor2d": (((0, 0), (1, 0)), [0, 1, 1, 0]),
    "and2d": (((0, 0), (1, 0)), [0, 0, 0, 1]),
    "flip": (((0, 0),), [1, 0]),
}


def torus_images(name: str, mods) -> np.ndarray:
    memory, table = RULE_TABLES[name]
    table = ref.life_table() if table is None else np.array(table)
    return ref.torus_images(mods, memory, table)


def _pattern_code(mods, cells) -> int:
    sites = {tuple(site): value for site, value in cells}
    if sorted(sites) != [(i, j) for i in range(mods[0]) for j in range(mods[1])]:
        return -1
    if any(value not in (0, 1) for value in sites.values()):
        return -1
    return ref.pattern_code(mods, sites)


def check_search(task: str, summary, seed: int) -> bool:
    if task == "hall":
        return _hall_ok(inputs.hall_graphs(seed), summary)
    if task == "paradox_verify":
        size, inner = ref.paradox_ball_sizes(inputs.PARADOX_RADIUS)
        return summary == {"radius": inputs.PARADOX_RADIUS, "ballSize": size,
                           "coveredInner": inner, "violations": [],
                           "passed": True}
    if task.startswith("fol:"):
        # fol:cayley:z:<dim>:<radius>:<n>
        dim, radius, n = (int(part) for part in task.split(":")[3:])
        if dim == 1 and radius - 1 >= n:
            # an interval of 2n + 1 points has 2 boundary points per shift
            return summary == 2 * n + 1
        return summary == ref.lattice_fol(dim, radius, n)
    if task.startswith(("goe:", "mep:")):
        kind, name = task.split(":")
        mods = dict(inputs.TORUS_RULES)[name]
        images = torus_images(name, mods)
        reachable = np.unique(images)
        total = 1 << (mods[0] * mods[1])
        if kind == "goe":
            if summary is None:
                return len(reachable) == total
            code = _pattern_code(mods, summary)
            return code >= 0 and not np.isin(code, reachable)
        if summary is None:
            return len(reachable) == total
        first, second = (_pattern_code(mods, cells) for cells in summary)
        return first >= 0 and second >= 0 and first != second \
            and images[first] == images[second]
    if task == "topfull":
        return topfull_rows_ok(summary, inputs.TOPFULL_LENGTH)
    return False


def topfull_rows_ok(rows, length: int) -> bool:
    """Cylinders are the admissible words of the length anchored at the
    origin, the shifts are not all equal, and the map is a bijection."""
    if rows is None:
        return False
    rows = [tuple(row) for row in rows]
    words = sorted(w for _l, w, _s in rows)
    return (all(left == 0 and abs(shift) <= 1 for left, _w, shift in rows)
            and words == ref.fibonacci_factors(length)
            and len({shift for _l, _w, shift in rows}) > 1
            and ref.piecewise_shift_is_bijective(rows))


# -- readme --------------------------------------------------------------------

def _float_close(text, expected: float) -> bool:
    return isinstance(text, str) and math.isclose(float(text), expected,
                                                  rel_tol=1e-12)


def _cogrowth_report_ok(payload: Dict) -> bool:
    counts = ref.reduced_closed_counts_z2(16)
    gamma_hat = max(counts[m] ** (1.0 / m) for m in range(2, 17, 2))
    gamma_ratio = math.sqrt(counts[16] / counts[14])

    def predict(gamma):  # Grigorchuk's cogrowth formula with #S = 4, q = 3
        return (gamma + 3 / gamma) / 4

    return (payload["sPm"] == 4 and payload["degenerate"] is False
            and _float_close(payload["gammaHat"], gamma_hat)
            and _float_close(payload["gammaRatio"], gamma_ratio)
            and _float_close(payload["predictedRho"], predict(gamma_hat))
            and _float_close(payload["predictedRhoRatio"], predict(gamma_ratio))
            and _float_close(payload["residual"], abs(predict(gamma_hat) - 1.0))
            and _float_close(payload["residualRatio"],
                             abs(predict(gamma_ratio) - 1.0)))


def _and_rule_goe_ok(payload: Dict) -> bool:
    """x(m) AND x(m+1) on the window {-1, 0, 1}: no input on {-1..2} maps to
    the pattern."""
    cells = {cell["site"][0]: cell["value"] for cell in payload["pattern"]["cells"]}
    if sorted(cells) != [-1, 0, 1]:
        return False
    target = tuple(cells[m] for m in (-1, 0, 1))
    images = {tuple(x[k] & x[k + 1] for k in range(3))
              for x in ((c >> 0 & 1, c >> 1 & 1, c >> 2 & 1, c >> 3 & 1)
                        for c in range(16))}
    return payload["found"] is True and payload["windowSize"] == 3 \
        and target not in images


def _topfull_payload_ok(payload: Dict) -> bool:
    rows = [(c["left"], c["word"], c["shift"])
            for c in payload["element"]["cylinders"]]
    inverse = sorted((c["left"], c["word"], c["shift"])
                     for c in payload["inverse"]["cylinders"])
    return (payload["found"] is True and payload["bijective"] is True
            and topfull_rows_ok(rows, 3)
            and inverse == sorted((l - s, w, -s) for l, w, s in rows)
            and ref.piecewise_shift_is_bijective(inverse))


def check_readme(task: str, summary, seed: int) -> bool:
    if summary["exit"] != 0:
        return False
    text = summary["stdout"].rstrip("\n")
    command = task.split()[0]
    if command == "growth":
        values = [int(line.split(",")[1]) for line in text.splitlines()]
        return text.splitlines()[0] == "0,1" and \
            values == ref.cayley_ball_sizes("grigorchuk", 8, GRIG_CHECK_LEVEL)
    if command == "walk":
        counts = ref.tree_return_counts(4, 10)
        value = Fraction(counts[10], 4 ** 10)
        return text == f"{value.numerator}/{value.denominator}"
    if command == "graph":
        return graph_json_ok(text, "coset:f2", "H", 4, _coset_ball_summary(4))
    payload = json.loads(text)
    if command == "folner":
        return payload == {"gset": "cayley:z:1", "n": 1, "fol": 3}
    if command == "cogrowth":
        return _cogrowth_report_ok(payload)
    if command == "ca":
        return _and_rule_goe_ok(payload)
    if command == "paradox":
        size, inner = ref.paradox_ball_sizes(6)
        return payload == {"radius": 6, "ballSize": size,
                           "coveredInner": inner, "violations": [],
                           "passed": True}
    if command == "topfull":
        return _topfull_payload_ok(payload)
    return False


def check(workload: str, task: str, summary, seed: int, out_dir: str) -> bool:
    if workload == "selfsim":
        return check_selfsim(task, summary, seed)
    if workload == "words":
        return check_words(task, summary, seed, out_dir)
    if workload == "search":
        return check_search(task, summary, seed)
    return check_readme(task, summary, seed)
