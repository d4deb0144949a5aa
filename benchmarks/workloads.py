"""Task lists of the in-process workloads.

Imported by ``worker.py`` only, after amenlab.  Every call goes through a
module attribute (``orbits.build_ball``, never a name imported from it), so
the tracer's wrappers see it.  ``setup`` builds the inputs; each task, named
as in ``inputs.task_names``, is a function of the setup context returning
the program's raw result, and
``summary`` turns that result into plain JSON for ``checks.py``, outside the
timed region.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Dict, List

from amenlab import (cellauto, cogrowth, groups, isoperimetry, orbits,
                     paradox, randwalk, selfsim, topfull)

import inputs

Tasks = Dict[str, Callable[[Dict], object]]


def _ratio(value) -> str:
    return f"{value.numerator}/{value.denominator}"


# -- selfsim -------------------------------------------------------------------

def setup_selfsim(seed: int) -> Dict:
    words = inputs.selfsim_words(seed)
    return {
        "orbit_grigorchuk": orbits.make_gset(
            f"orbit:grigorchuk:depth={inputs.ORBIT_DEPTH}"),
        "orbit_basilica": orbits.make_gset(
            f"orbit:basilica:depth={inputs.ORBIT_DEPTH}"),
        "random": [selfsim.grigorchuk(w) for w in words["random"]],
        "relators": [(selfsim.grigorchuk(w), sig)
                     for w, sig in words["relators"]],
        "pairs": [(selfsim.grigorchuk(x), selfsim.grigorchuk(y))
                  for x, y in words["pairs"]],
    }


def _verdicts(results) -> List:
    return [[bool(v.equal), bool(v.approximate)] for v in results]


def tasks_selfsim() -> Tasks:
    return dict([
        ("growth:grigorchuk", lambda c: isoperimetry.growth_series(
            "grigorchuk", inputs.GRIG_RADIUS)),
        ("growth:basilica", lambda c: isoperimetry.growth_series(
            "basilica", inputs.BASILICA_RADIUS)),
        ("orbit:grigorchuk", lambda c: orbits.build_ball(
            c["orbit_grigorchuk"], inputs.ORBIT_RADIUS)),
        ("orbit:basilica", lambda c: orbits.build_ball(
            c["orbit_basilica"], inputs.ORBIT_RADIUS)),
        ("identity:random", lambda c: [
            selfsim.is_identity(g) for g in c["random"]]),
        ("identity:relators", lambda c: [
            selfsim.is_identity(selfsim.sigma_apply(g) if sig else g)
            for g, sig in c["relators"]]),
        ("equals:pairs", lambda c: [
            selfsim.equals_selfsim(g, h) for g, h in c["pairs"]]),
    ])


def summary_selfsim(name: str, result, out_dir: str):
    if name.startswith("growth:"):
        return list(result.values)
    if name.startswith("orbit:"):
        return {"depths": dict(result.depths), "edges": len(result.edges)}
    return _verdicts(result)


# -- words ---------------------------------------------------------------------

def setup_words(seed: int) -> Dict:
    context = {
        "coset": orbits.make_gset("coset:f2"),
        "free2": orbits.make_gset("cayley:free:2"),
        "z1": orbits.make_gset("cayley:z:1"),
        "walks": {spec: orbits.make_gset(spec) for spec in inputs.RETURN_STEPS},
        "families": {}, "words": {},
    }
    for family, words in inputs.normal_form_words(seed).items():
        context["families"][family] = groups.MarkedGroup.from_spec(family)
        context["words"][family] = [tuple(w) for w in words]
    return context


def _ball_then_keep(key: str, gset_key: str, radius: int):
    def run(context):
        graph = orbits.build_ball(context[gset_key], radius)
        context[key] = graph
        return graph
    return run


def _to_json_then_drop(context):
    text = context["coset_ball"].to_json()
    del context["coset_ball"]
    return text


def _return_task(spec: str):
    def run(context):
        gset = context["walks"][spec]
        return randwalk.return_sequence(gset, randwalk.srw_measure(gset),
                                        inputs.RETURN_STEPS[spec])
    return run


def _rho_power(context):
    value = randwalk.truncated_rho(context["free2_ball"])
    del context["free2_ball"]
    return value


def _normal_forms(family: str):
    def run(context):
        group = context["families"][family]
        return [group.normal_form(w) for w in context["words"][family]]
    return run


def tasks_words() -> Tasks:
    out = [
        ("ball:coset:f2", _ball_then_keep("coset_ball", "coset",
                                          inputs.COSET_RADIUS)),
        ("to_json:coset:f2", _to_json_then_drop),
        ("ball:free:2", _ball_then_keep("free2_ball", "free2",
                                        inputs.FREE_RADIUS)),
        ("rho_power:free:2", _rho_power),
        ("rho_dense:free:2", lambda c: randwalk.truncated_rho(
            orbits.build_ball(c["free2"], inputs.DENSE_RHO_RADIUS))),
        ("rho_dense:z:1", lambda c: randwalk.truncated_rho(
            orbits.build_ball(c["z1"], inputs.LINE_RHO_RADIUS))),
        ("rho_radial:free:2", lambda c: randwalk.truncated_rho(
            c["free2"], radius=inputs.RADIAL_RHO_RADIUS)),
    ]
    for spec in inputs.RETURN_STEPS:
        out.append((f"return:{spec}", _return_task(spec)))
    for spec, length in inputs.COGROWTH_LENGTH.items():
        out.append((f"cogrowth:{spec}", lambda c, s=spec, n=length:
                    cogrowth.reduced_closed_counts(s, n)))
        out.append((f"series:{spec}", lambda c, s=spec, n=length:
                    cogrowth.series_identity_check(s, n)))
    for family in inputs.NORMAL_FORM_FAMILIES:
        out.append((f"normal_form:{family}", _normal_forms(family)))
    return dict(out)


def _ball_summary(graph) -> Dict:
    histogram: Dict[int, int] = {}
    for depth in graph.depths.values():
        histogram[depth] = histogram.get(depth, 0) + 1
    return {"vertices": len(graph.depths), "edges": len(graph.edges),
            "spheres": [histogram.get(k, 0) for k in range(graph.radius + 1)]}


def _text_file(name: str, text: str, out_dir: str) -> Dict:
    """Large text outputs go to a file beside the worker's result; the
    summary names it and carries its size and digest."""
    file_name = name.replace(":", "-") + ".txt"
    with open(os.path.join(out_dir, file_name), "w") as handle:
        handle.write(text)
    return {"file": file_name, "bytes": len(text),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def summary_words(name: str, result, out_dir: str):
    if name.startswith("ball:"):
        return _ball_summary(result)
    if name.startswith("to_json:"):
        return _text_file(name, result, out_dir)
    if name.startswith("rho_"):
        return float(result)
    if name.startswith("return:"):
        return [_ratio(p) for p in result]
    if name.startswith("cogrowth:"):
        return {"counts": list(result.counts), "s_pm": result.s_pm}
    if name.startswith("series:"):
        return {"degree": result["degree"],
                "max_residual": _ratio(result["maxResidual"])}
    return [[list(letter) for letter in word] for word in result]


# -- search --------------------------------------------------------------------

def _torus_rule(name: str, mods):
    space = cellauto.ZdSpace(2, mods)
    if name == "life":
        life = cellauto.life_rule()
        return cellauto.LocalRule(space, life.alphabet, life.memory,
                                  life.theta, quiescent=0, name="life")
    if name == "xor2d":
        return cellauto.LocalRule(space, (0, 1), ((0, 0), (1, 0)),
                                  lambda v: v[0] ^ v[1], quiescent=0,
                                  name=name)
    if name == "and2d":
        return cellauto.LocalRule(space, (0, 1), ((0, 0), (1, 0)),
                                  lambda v: v[0] & v[1], quiescent=0,
                                  name=name)
    return cellauto.LocalRule(space, (0, 1), ((0, 0),), lambda v: 1 - v[0],
                              quiescent=1, name=name)


def setup_search(seed: int) -> Dict:
    return {
        "graphs": [{v: list(ws) for v, ws in enumerate(graph)}
                   for graph in inputs.hall_graphs(seed)],
        "rules": {name: _torus_rule(name, mods)
                  for name, mods in inputs.TORUS_RULES},
        "gsets": {spec: orbits.make_gset(spec)
                  for spec, _r, _n in inputs.FOL_CASES},
    }


def tasks_search() -> Tasks:
    out = [
        ("hall", lambda c: [paradox.hall_matching(g) for g in c["graphs"]]),
        ("paradox_verify", lambda c: paradox.paradox_verify(
            inputs.PARADOX_RADIUS)),
    ]
    for spec, radius, n in inputs.FOL_CASES:
        out.append((f"fol:{spec}:{radius}:{n}",
                    lambda c, s=spec, r=radius, n=n: isoperimetry.fol_exact(
                        orbits.build_ball(c["gsets"][s], r), n)))
    for name, _mods in inputs.TORUS_RULES:
        out.append((f"goe:{name}", lambda c, k=name: cellauto.goe_search(
            c["rules"][k], c["rules"][k].space.all_sites())))
        out.append((f"mep:{name}", lambda c, k=name: cellauto.mep_search(
            c["rules"][k], 0)))
    out.append(("topfull", lambda c: topfull.search_nontrivial(
        inputs.TOPFULL_LENGTH)))
    return dict(out)


def _cells(pattern) -> List:
    return sorted([list(site), value] for site, value in pattern.values.items())


def summary_search(name: str, result, out_dir: str):
    if name == "hall":
        return [[1, [r.matching[v] for v in sorted(r.matching)]]
                if r.matched else [0, list(r.violator)] for r in result]
    if name == "paradox_verify":
        return result
    if name.startswith("fol:"):
        return result
    if name.startswith("goe:"):
        return None if result is None else _cells(result)
    if name.startswith("mep:"):
        return None if result is None else [_cells(p) for p in result]
    return None if result is None else [list(row) for row in result.rows]


SETUP = {"selfsim": setup_selfsim, "words": setup_words,
         "search": setup_search}
TASKS = {"selfsim": tasks_selfsim, "words": tasks_words,
         "search": tasks_search}
SUMMARY = {"selfsim": summary_selfsim, "words": summary_words,
           "search": summary_search}
