"""Command-line front end.

Every subcommand emits a deterministic, machine-readable artifact: exact
rationals are serialized as "p/q" text, floats with 17 significant digits,
and JSON objects with sorted keys.  Exit codes: 0 success, 2 validation
error, 3 cap exceeded.

Each handler imports the analysis module it runs when it runs, so a command
loads only what it needs: only ``walk truncated`` loads numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import CapExceeded, ValidationError

if TYPE_CHECKING:
    from . import cellauto


def _fmt_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fmt_float(value: float) -> str:
    return f"{float(value):.17g}"


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_epsilon(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad rational {text!r}")


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _resolve_gset(args):
    spec = getattr(args, "gset", None) or getattr(args, "group", None)
    if spec is None:
        raise ValidationError("a --group or --gset spec is required")
    from . import orbits
    return orbits.make_gset(spec)


# -- subcommand handlers ---------------------------------------------------------

def _cmd_growth(args) -> str:
    from . import isoperimetry
    series = isoperimetry.growth_series(args.group, args.radius)
    if args.format == "csv":
        return series.to_csv()
    return _json({"group": args.group, "values": list(series)})


def _cmd_folner(args) -> str:
    from . import isoperimetry, orbits
    gset = _resolve_gset(args)
    graph = orbits.build_ball(gset, args.radius)
    if args.fol is not None:
        value = isoperimetry.fol_exact(graph, args.fol,
                                       size_cap=args.cap_subset_size)
        return _json({"gset": gset.spec, "n": args.fol, "fol": value})
    if args.mode == "anneal" and args.seed is None:
        raise ValidationError("--seed is mandatory for the anneal mode")
    epsilon = _parse_epsilon(args.epsilon)
    report = isoperimetry.folner_search(
        graph, epsilon, mode=args.mode, seed=args.seed,
        size_cap=args.cap_subset_size, steps=args.steps,
    )
    return report.to_json()


def _cmd_walk(args) -> str:
    from . import walks
    gset = _resolve_gset(args)
    mu = walks.srw_measure(gset)
    if args.action == "return":
        value = walks.return_probability(gset, mu, args.steps,
                                         precision=args.precision)
        if args.precision == "exact":
            return _fmt_rational(value)
        return _fmt_float(value)
    if args.action == "rho":
        report = walks.rho_lower_bound(gset, mu, args.steps)
        return _json({
            "best": _fmt_float(report["best"]),
            "sequence": [[m, _fmt_float(v)] for m, v in report["sequence"]],
        })
    if args.action == "truncated":
        if args.radius is None:
            raise ValidationError("truncated needs --radius")
        from . import randwalk  # the one command that loads numpy
        value = randwalk.truncated_rho(gset, mu, radius=args.radius)
        return _fmt_float(value)
    if args.action == "invorbit":
        if args.seed is None:
            raise ValidationError("--seed is mandatory for invorbit")
        stats = walks.inverted_orbit_stats(gset, mu, args.steps,
                                           args.trials, args.seed)
        exact = walks.expected_inverted_orbit_size(gset, mu, args.steps)
        stats = {k: (_fmt_float(v) if isinstance(v, float) else v)
                 for k, v in stats.items()}
        stats["exactMeanSize"] = _fmt_rational(exact)
        return _json(stats)
    raise ValidationError(f"unknown walk action {args.action!r}")


def _cmd_cogrowth(args) -> str:
    from . import cogrowth
    if args.action == "counts":
        counts = cogrowth.reduced_closed_counts(args.group, args.length)
        if args.format == "csv":
            return counts.to_csv()
        return _json({"group": args.group, "counts": counts.counts,
                      "sPm": counts.s_pm})
    if args.action == "report":
        counts = cogrowth.reduced_closed_counts(args.group, args.length)
        report = cogrowth.cogrowth_report(counts, rho_lower=args.rho_lower)
        return _json({k: (_fmt_float(v) if isinstance(v, float) else v)
                      for k, v in report.items()})
    if args.action == "series":
        report = cogrowth.series_identity_check(args.group, args.length)
        return _json({
            "group": args.group,
            "degree": report["degree"],
            "maxResidual": _fmt_rational(report["maxResidual"]),
        })
    raise ValidationError(f"unknown cogrowth action {args.action!r}")


def _load_rule(cellauto, name: str) -> cellauto.LocalRule:
    rules = {
        "life": cellauto.life_rule,
        "and:z": cellauto.and_rule_z,
        "xor:z": cellauto.xor_rule_z,
        "muller": lambda: cellauto.linca_rule(cellauto.muller_matrix()),
    }
    if name not in rules:
        raise ValidationError(f"unknown rule {name!r}; known: {sorted(rules)}")
    return rules[name]()


def _load_pattern(cellauto, rule: cellauto.LocalRule,
                  path: Optional[str]) -> cellauto.CellPattern:
    if path is None:
        raise ValidationError("step needs --pattern")
    try:
        with open(path) as handle:
            payload = json.load(handle)
        values = {}
        for cell in payload["cells"]:
            site = cell["site"]
            key = tuple(site) if isinstance(site, list) else site
            values[key] = cell["value"]
    except OSError as error:
        raise ValidationError(f"cannot read pattern {path!r}: {error.strerror}")
    except (ValueError, KeyError, TypeError):
        raise ValidationError(
            f"pattern {path!r} must be JSON of the form "
            '{"cells": [{"site": ..., "value": ...}, ...]}'
        )
    return cellauto.CellPattern(rule.space, values)


def _cmd_ca(args) -> str:
    from . import cellauto
    rule = _load_rule(cellauto, args.rule)
    if args.action == "step":
        pattern = _load_pattern(cellauto, rule, args.pattern)
        for _ in range(args.steps):
            pattern = cellauto.ca_step(rule, pattern.padded(rule))
        return pattern.to_json()
    if args.action == "goe":
        window = rule.space.ball(args.radius)
        found = cellauto.goe_search(rule, window, budget=args.budget)
        return _json({
            "rule": args.rule,
            "windowSize": len(window),
            "found": found is not None,
            "pattern": None if found is None else json.loads(found.to_json()),
        })
    if args.action == "mep":
        found = cellauto.mep_search(rule, args.radius, budget=args.budget)
        payload = {"rule": args.rule, "bound": args.radius,
                   "found": found is not None}
        if found is not None:
            payload["patterns"] = [json.loads(p.to_json()) for p in found]
        return _json(payload)
    if args.action == "entropy":
        window = rule.space.ball(args.radius)
        value = cellauto.entropy_estimate(rule, [window],
                                          budget=args.budget)[0]
        return _fmt_float(value)
    raise ValidationError(f"unknown ca action {args.action!r}")


def _cmd_paradox(args) -> str:
    from . import paradox
    if args.action == "verify":
        return _json(paradox.paradox_verify(args.radius))
    if args.action == "map":
        word = paradox.F2.parse(args.word)
        image = paradox.doubling_map(word)
        return _json({"word": paradox.F2.show(word),
                      "image": paradox.F2.show(image)})
    if args.action == "preimages":
        word = paradox.F2.parse(args.word)
        pre = paradox.doubling_preimages(word, args.radius)
        return _json({"word": paradox.F2.show(word),
                      "preimages": [paradox.F2.show(w) for w in pre]})
    raise ValidationError(f"unknown paradox action {args.action!r}")


def _cmd_topfull(args) -> str:
    from . import topfull
    if args.action == "language":
        language = topfull.fib_language(args.length)
        return _json({
            "maxLen": args.length,
            "factors": {str(n): language.words(n)
                        for n in range(1, args.length + 1)},
        })
    if args.action == "search":
        element = topfull.search_nontrivial(args.length)
        if element is None:
            return _json({"found": False})
        inverse, ok = topfull.tf_invert_check(element)
        return _json({
            "found": True,
            "element": json.loads(element.to_json()),
            "bijective": ok,
            "inverse": None if inverse is None
            else json.loads(inverse.to_json()),
        })
    raise ValidationError(f"unknown topfull action {args.action!r}")


def _cmd_graph(args) -> str:
    from . import orbits
    gset = _resolve_gset(args)
    graph = orbits.build_ball(gset, args.radius,
                              cap_vertices=args.cap_vertices)
    return graph.to_json()


# -- argument parsing --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amenlab",
        description=(
            "Computational laboratory for amenability-style group theory: "
            "growth, Folner sets, random-walk spectral radii (Kesten), "
            "cogrowth (Grigorchuk's formula), Garden-of-Eden cellular "
            "automata (Moore-Myhill), paradoxical decompositions "
            "(Banach-Tarski on the free group), and substitution-subshift "
            "full groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="ball sizes of a marked group "
                                      "(word-metric growth function)")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser("folner", help="Folner-set search and the Folner "
                                      "function on a Schreier graph ball")
    p.add_argument("--group")
    p.add_argument("--gset")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--epsilon", default="1/3")
    p.add_argument("--mode", choices=("exhaustive", "greedy", "anneal"),
                   default="greedy")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--fol", type=int,
                   help="compute the exact Folner function at this argument")
    p.add_argument("--cap-subset-size", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_folner)

    p = sub.add_parser("walk", help="simple random walk: return "
                                    "probabilities, Kesten lower bounds, "
                                    "Dirichlet truncations, inverted orbits")
    p.add_argument("action",
                   choices=("return", "rho", "truncated", "invorbit"))
    p.add_argument("--group")
    p.add_argument("--gset")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--radius", type=int)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=("exact", "float"),
                   default="exact")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_walk)

    p = sub.add_parser("cogrowth", help="reduced closed-word counts and "
                                        "Grigorchuk's cogrowth formula")
    p.add_argument("action", choices=("counts", "report", "series"))
    p.add_argument("--group", required=True)
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--rho-lower", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_cogrowth)

    p = sub.add_parser("ca", help="cellular automata: stepping, Garden of "
                                  "Eden and mutually-erasable patterns "
                                  "(Moore-Myhill), entropy")
    p.add_argument("action", choices=("step", "goe", "mep", "entropy"))
    p.add_argument("--rule", required=True)
    p.add_argument("--pattern", help="pattern JSON path (for step)")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--budget", type=int, default=1 << 20)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_ca)

    p = sub.add_parser("paradox", help="the rank-2 free group paradoxical "
                                       "decomposition and its doubling map")
    p.add_argument("action", choices=("verify", "map", "preimages"))
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--word", default="1")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_paradox)

    p = sub.add_parser("topfull", help="Fibonacci subshift language and "
                                       "topological-full-group elements")
    p.add_argument("action", choices=("language", "search"))
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_topfull)

    p = sub.add_parser("graph", help="Schreier/Cayley graph ball as JSON")
    p.add_argument("--group")
    p.add_argument("--gset")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap-vertices", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except CapExceeded as error:
        print(f"cap exceeded: {error}", file=sys.stderr)
        return 3
    _emit(text, getattr(args, "out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
