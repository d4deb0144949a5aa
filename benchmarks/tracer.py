"""Spans around amenlab's public functions, installed from outside ``src/``.

``install`` replaces each traced function where its callers look it up: a
method on its class, a function in every amenlab module namespace that holds
it (``cli`` and ``isoperimetry`` import ``build_ball`` by name).  Each call
records a span (name, start, end, parent) in flat arrays kept in memory;
``layer_metrics`` turns them into per-layer counts and self times (a span's
duration minus the durations of its child spans), and ``write`` saves them.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

_clock = time.perf_counter

# Span names of the per-layer metrics.  A "_calls" metric counts spans, a
# "_s" metric sums their self time.
TIMED = {
    "cli.main": ("cli.main_s",),
    "groups.normal_form": ("groups.normal_form_s", "groups.normal_form_calls"),
    "orbits.make_gset": ("orbits.make_gset_s",),
    "orbits.act": ("orbits.act_s", "orbits.act_calls"),
    "orbits.build_ball": ("orbits.build_ball_s",),
    "orbits.to_json": ("orbits.to_json_s",),
    "selfsim.signature": ("selfsim.signature_s", "selfsim.signature_calls"),
    "selfsim.act_on_word": ("selfsim.act_on_word_s",
                            "selfsim.act_on_word_calls"),
    "selfsim.oracle": ("selfsim.oracle_s", "selfsim.oracle_calls"),
    "isoperimetry.growth_series": ("isoperimetry.growth_series_s",),
    "isoperimetry.fol_exact": ("isoperimetry.fol_exact_s",),
    "randwalk.return_sequence": ("randwalk.return_sequence_s",),
    "randwalk.truncated_rho_dense": ("randwalk.truncated_rho_dense_s",),
    "randwalk.truncated_rho_power": ("randwalk.truncated_rho_power_s",),
    "randwalk.truncated_rho_radial": ("randwalk.truncated_rho_radial_s",),
    "cogrowth.reduced_closed_counts": ("cogrowth.reduced_closed_counts_s",),
    "cogrowth.series_identity_check": ("cogrowth.series_identity_check_s",),
    "paradox.hall_matching": ("paradox.hall_matching_s",
                              "paradox.hall_matching_calls"),
    "paradox.paradox_verify": ("paradox.paradox_verify_s",),
    "cellauto.goe_search": ("cellauto.goe_search_s",),
    "cellauto.mep_search": ("cellauto.mep_search_s",),
    "topfull.search_nontrivial": ("topfull.search_nontrivial_s",),
}

# Counters filled by the wrappers themselves rather than by span arithmetic.
COUNTERS = ("orbits.ball_vertices", "orbits.to_json_bytes",
            "cellauto.goe_patterns")

# Metrics measured around the traced calls by worker.py.
OTHERS = ("cli.import_s", "cli.stdout_bytes", "selfsim.memo_entries",
          "orbits.ball_new_per_act", "trace.spans", "trace.wall_s",
          "trace.overhead_s")


def metric_names() -> List[str]:
    names = [m for metrics in TIMED.values() for m in metrics]
    return names + list(COUNTERS) + list(OTHERS)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, top_level_only: bool = False,
             on_result: Optional[Callable] = None) -> Callable:
        """A function recording a span around every call of ``fn``.

        ``top_level_only`` skips calls made while a span of the same name is
        open (recursion); ``on_result(result)`` updates counters.
        """
        fixed = self._id(name)
        active = [0]
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if top_level_only and active[0]:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(fixed)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            active[0] += 1
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                active[0] -= 1
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_items(self, counter: str, generator_fn: Callable) -> Callable:
        """Wrap a generator function, counting the items it yields."""
        counters = self.counters

        def counted(*args, **kwargs):
            for item in generator_fn(*args, **kwargs):
                counters[counter] += 1
                yield item

        counted.__wrapped__ = generator_fn
        return counted

    # -- results -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def layer_metrics(self) -> Dict[str, float]:
        name, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        out: Dict[str, float] = {}
        for span, metrics in TIMED.items():
            mask = name == self._ids[span] if span in self._ids \
                else np.zeros(len(name), dtype=bool)
            for metric in metrics:
                if metric.endswith("_calls"):
                    out[metric] = int(mask.sum())
                else:
                    out[metric] = float(self_time[mask].sum())
        out.update(self.counters)
        # parts of orbits.ball_new_per_act (see finish): every ball vertex
        # but the basepoint was found by one act whose parent span is its
        # build_ball span
        balls = np.flatnonzero(name == self._ids.get("orbits.build_ball", -1))
        acts = name == self._ids.get("orbits.act", -1)
        out["_ball_acts"] = int(np.isin(parent[acts], balls).sum())
        out["_ball_found"] = self.counters["orbits.ball_vertices"] - len(balls)
        out["trace.spans"] = len(name)
        return out

    def write(self, path: str):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def finish(metrics: Dict[str, float]) -> Dict[str, float]:
    """Replace the summed parts of the found-per-act ratio by the ratio."""
    acts = metrics.pop("_ball_acts", 0)
    found = metrics.pop("_ball_found", 0)
    metrics["orbits.ball_new_per_act"] = found / acts if acts else 0.0
    return metrics


def _replace_everywhere(module_prefix: str, original, replacement):
    """Rebind every amenlab module attribute that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(module_prefix):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the traced functions of an imported amenlab."""
    from amenlab import (cellauto, cli, cogrowth, groups, isoperimetry,
                         orbits, paradox, randwalk, selfsim, topfull)

    def function(module, attr, name, **options):
        original = getattr(module, attr)
        _replace_everywhere("amenlab", original,
                            tracer.wrap(name, original, **options))

    def method(cls, attr, name, **options):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **options))

    def count_vertices(graph):
        tracer.counters["orbits.ball_vertices"] += len(graph.depths)

    def count_bytes(text):
        tracer.counters["orbits.to_json_bytes"] += len(text)

    function(cli, "main", "cli.main")
    method(groups.MarkedGroup, "normal_form", "groups.normal_form")
    function(orbits, "make_gset", "orbits.make_gset")
    method(orbits.MarkedGSet, "act", "orbits.act")
    function(orbits, "build_ball", "orbits.build_ball",
             on_result=count_vertices)
    method(orbits.SchreierGraph, "to_json", "orbits.to_json",
           on_result=count_bytes)
    function(selfsim, "signature", "selfsim.signature")
    function(selfsim, "act_on_word", "selfsim.act_on_word",
             top_level_only=True)
    function(selfsim, "equals_selfsim", "selfsim.oracle")
    function(selfsim, "is_identity", "selfsim.oracle")
    function(isoperimetry, "growth_series", "isoperimetry.growth_series")
    function(isoperimetry, "fol_exact", "isoperimetry.fol_exact")
    function(randwalk, "return_sequence", "randwalk.return_sequence")
    # the eigensolver paths of truncated_rho, wrapped where randwalk's own
    # dispatch calls them: _top_eigenvalue runs the dense solver itself and
    # hands balls over the dense cap to _power_iteration, a child span
    function(randwalk, "_top_eigenvalue", "randwalk.truncated_rho_dense")
    function(randwalk, "_power_iteration", "randwalk.truncated_rho_power")
    function(randwalk, "_radial_truncated_rho",
             "randwalk.truncated_rho_radial")
    function(cogrowth, "reduced_closed_counts",
             "cogrowth.reduced_closed_counts")
    function(cogrowth, "series_identity_check",
             "cogrowth.series_identity_check")
    function(paradox, "hall_matching", "paradox.hall_matching")
    function(paradox, "paradox_verify", "paradox.paradox_verify")
    function(cellauto, "goe_search", "cellauto.goe_search")
    function(cellauto, "mep_search", "cellauto.mep_search")
    cellauto._enumerate_patterns = tracer.count_items(
        "cellauto.goe_patterns", cellauto._enumerate_patterns)
    function(topfull, "search_nontrivial", "topfull.search_nontrivial")
