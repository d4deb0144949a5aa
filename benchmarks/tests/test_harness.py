"""The tracer, the output checks and the compare verdicts."""

import json
import os
import subprocess
import sys

import pytest

import checks
import compare
import inputs
import tracer as tracing

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class TestTracer:
    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()

        def leaf(x):
            return x + 1

        traced_leaf = tracer.wrap("leaf", leaf)

        def outer(n):
            return sum(traced_leaf(i) for i in range(n))

        traced_outer = tracer.wrap("outer", outer)
        assert traced_outer(5) == 15
        name, parent, start, end = tracer.arrays()
        assert len(name) == 6
        assert parent[0] == -1 and all(parent[1:] == 0)
        duration = end - start
        outer_self = duration[0] - duration[1:].sum()
        assert 0 <= outer_self <= duration[0]

    def test_top_level_only_skips_recursion(self):
        tracer = tracing.Tracer()
        calls = []

        def fact(n):
            calls.append(n)
            return 1 if n <= 1 else n * wrapped(n - 1)

        wrapped = tracer.wrap("fact", fact, top_level_only=True)
        assert wrapped(5) == 120
        assert len(calls) == 5 and len(tracer.arrays()[0]) == 1

    def test_generator_counter(self):
        tracer = tracing.Tracer()
        counted = tracer.count_items("cellauto.goe_patterns",
                                     lambda n: iter(range(n)))
        assert list(counted(4)) == [0, 1, 2, 3]
        assert tracer.counters["cellauto.goe_patterns"] == 4

    def test_install_replaces_names_where_callers_look_them_up(self):
        from amenlab import cli, isoperimetry, orbits
        originals = (orbits.build_ball, orbits.MarkedGSet.act)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            assert cli.build_ball is orbits.build_ball is isoperimetry.build_ball
            assert cli.build_ball.__wrapped__ is originals[0]
            isoperimetry.growth_series("z:1", 3)
            metrics = tracing.finish(tracer.layer_metrics())
        finally:
            _uninstall()
        assert metrics["orbits.ball_vertices"] == 7
        # the ball of Z of radius 3: 7 vertices, 6 of them found by the
        # 2 + 4 + 4 acts of the BFS, then 2 * 7 acts in the edge pass
        assert metrics["orbits.act_calls"] == 24
        assert metrics["orbits.ball_new_per_act"] == pytest.approx(6 / 24)
        assert metrics["groups.normal_form_calls"] == 24

    def test_rho_paths_are_the_eigensolver_calls(self):
        from amenlab import orbits, randwalk
        free2 = orbits.make_gset("cayley:free:2")
        small, large = orbits.build_ball(free2, 2), orbits.build_ball(free2, 7)
        assert len(small.depths) <= randwalk._DENSE_EIG_CAP < len(large.depths)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            paths = []
            for call in (lambda: randwalk.truncated_rho(small),
                         lambda: randwalk.truncated_rho(large),
                         lambda: randwalk.truncated_rho(free2, radius=5)):
                before = len(tracer.name)
                call()
                paths.append(sorted(tracer.names[i]
                                    for i in tracer.name[before:]
                                    if "rho" in tracer.names[i]))
        finally:
            _uninstall()
        assert paths == [["randwalk.truncated_rho_dense"],
                         ["randwalk.truncated_rho_dense",
                          "randwalk.truncated_rho_power"],
                         ["randwalk.truncated_rho_radial"]]

    def test_counts_repeat_across_fresh_rounds(self, tmp_path):
        counts = []
        for index in range(2):
            path = tmp_path / f"round{index}.json"
            env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                       PYTHONHASHSEED="0")
            subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                            "selfsim", "3", "1", str(path)], env=env,
                           check=True, timeout=120)
            layers = json.loads(path.read_text())["layers"]
            counts.append({k: v for k, v in layers.items()
                           if not k.endswith("_s")})
        assert counts[0] == counts[1]
        assert counts[0]["selfsim.memo_entries"] > 0


def _is_wrapper(value) -> bool:
    """A function made by Tracer.wrap or Tracer.count_items (not, say, a
    staticmethod or an lru_cache, which carry __wrapped__ too)."""
    return getattr(value, "__qualname__", "").startswith("Tracer.")


def _uninstall():
    """Undo tracing.install in this process."""
    import sys as _sys
    for module_name, module in list(_sys.modules.items()):
        if not module_name.startswith("amenlab") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if _is_wrapper(value):
                setattr(module, attr, value.__wrapped__)
            if isinstance(value, type):
                for name, member in list(vars(value).items()):
                    if _is_wrapper(member):
                        setattr(value, name, member.__wrapped__)


class TestChecksRejectWrongOutputs:
    def test_growth(self):
        good = [1, 5, 11, 23, 40, 68, 108, 176]
        assert checks.check_selfsim("growth:grigorchuk", good, 1)
        assert not checks.check_selfsim("growth:grigorchuk",
                                        good[:-1] + [175], 1)

    def test_word_problem(self):
        words = inputs.selfsim_words(2)["relators"]
        verdicts = [[True, False]] * len(words)
        assert checks.check_selfsim("identity:relators", verdicts, 2)
        flipped = [[False, False]] + verdicts[1:]
        assert not checks.check_selfsim("identity:relators", flipped, 2)
        approximate = [[True, True]] + verdicts[1:]
        assert not checks.check_selfsim("identity:relators", approximate, 2)

    def test_return_probabilities(self):
        good = checks._ratios(checks.ref.binomial_return_z(2, 16))
        assert checks.check_words("return:cayley:z:2", good, 1, "")
        assert not checks.check_words("return:cayley:z:2",
                                      good[:-1] + ["1/2"], 1, "")

    def test_lamplighter_normal_forms(self):
        from amenlab import groups
        words = inputs.normal_form_words(1)["lamplighter"]
        group = groups.MarkedGroup.from_spec("lamplighter")
        forms = [[list(letter) for letter in group.normal_form(w)]
                 for w in words]
        assert checks._normal_forms_ok("lamplighter", words, forms)
        # the input words are the same elements, every lamp letter positive,
        # but they are not the normal form
        assert not checks._normal_forms_ok("lamplighter", words, words)
        # nor is a reduced word that visits the lamps in decreasing order
        lit = [w for w in words if len(checks.ref.eval_lamplighter(w)[0]) > 1]
        assert lit
        descending = []
        for w in lit:
            lamps, position = checks.ref.eval_lamplighter(w)
            word, here = [], 0
            for target in sorted(lamps, reverse=True) + [position]:
                sign = 1 if target >= here else -1
                word += [(1, sign)] * abs(target - here) + [(0, 1)]
                here = target
            descending.append(word[:-1])
        assert not checks._normal_forms_ok("lamplighter", lit, descending)

    def test_hall_certificates(self):
        graphs = [[[0]], [[0], [0]], [[0, 1], [1]]]
        good = [[1, [0]], [0, [0, 1]], [1, [0, 1]]]
        assert checks._hall_ok(graphs, good)
        assert not checks._hall_ok(graphs, [[1, [0]], [1, [0, 0]], [1, [0, 1]]])
        assert not checks._hall_ok(graphs, [[1, [0]], [0, [0]], [1, [0, 1]]])

    def test_garden_of_eden(self):
        images = set(checks.torus_images("life", (3, 3)).tolist())
        orphan = min(set(range(1 << 9)) - images)

        def cells(code):
            return [[[i, j], code >> (3 * i + j) & 1]
                    for i in range(3) for j in range(3)]

        assert checks.check_search("goe:life", cells(orphan), 1)
        assert 0 in images  # the empty torus stays empty
        assert not checks.check_search("goe:life", cells(0), 1)
        assert not checks.check_search("goe:life", None, 1)

    def test_readme_growth(self):
        text = "\n".join(f"{k},{v}" for k, v in
                         enumerate([1, 5, 11, 23, 40, 68, 108, 176, 271]))
        assert checks.check_readme("growth", {"exit": 0, "stdout": text}, 1)
        assert not checks.check_readme("growth", {"exit": 1, "stdout": text}, 1)


class TestCompare:
    def test_gain_needs_nine_in_ten_and_a_clear_median_gap(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        faster = [v * 0.8 for v in base]
        assert compare.verdict(base, faster, 0.1) == "gain"
        assert compare.verdict(faster, base, 0.1) == "regression"
        assert compare.verdict(base, base, 0.1) == "within bound"

    def test_only_interleaved_runs_are_paired(self):
        def records(starts):
            return {("w", seed): {"started": t}
                    for seed, t in enumerate(starts, 1)}

        # alternate.py's order: base first on odd seeds, change first on even
        base, change = records([0, 3, 4, 7]), records([1, 2, 5, 6])
        assert compare.interleaved(base, change, "w", [1, 2, 3, 4])
        # one whole set after the other
        later = records([10, 11, 12, 13])
        assert not compare.interleaved(base, later, "w", [1, 2, 3, 4])
        # records without a start time
        assert not compare.interleaved({("w", 1): {}}, records([1]), "w", [1])

    def test_wide_spread_is_unresolved(self):
        base = [10, 14, 9, 13, 10, 15, 9, 12, 11, 14]
        change = [11, 13, 10, 12, 10, 14, 10, 12, 12, 13]
        assert compare.verdict(base, change, 0.05) == "unresolved"
        assert compare.verdict(base, [1] * 10, 0.05) == "better, every run"
