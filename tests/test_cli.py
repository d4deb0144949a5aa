"""End-to-end command-line checks: outputs, determinism, exit codes."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import amenlab
from amenlab.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

# Cheap commands covering every subcommand and every spec family; their
# stdout is frozen in data/cli_golden.json.  After an intended output change,
# regenerate the file from the repository root with
#     PYTHONPATH=src python tests/test_cli.py
GOLDEN_COMMANDS = [
    "growth --group free:2 --radius 3",
    "growth --group z:2 --radius 3 --format json",
    "growth --group zmod:3,4 --radius 4",
    "growth --group lamplighter --radius 4",
    "growth --group dihedral --radius 4 --format json",
    "growth --group cayley:grigorchuk --radius 4",
    "growth --group basilica --radius 1",
    "growth --group orbit:grigorchuk:depth=3 --radius 5",
    "folner --group z:1 --radius 6 --fol 1",
    "folner --gset coset:f2 --radius 4",
    "folner --group z:2 --radius 3 --mode anneal --seed 7 --epsilon 1/4 "
    "--steps 200",
    "folner --gset orbit:basilica:depth=2 --radius 4 --mode exhaustive "
    "--epsilon 1/2",
    "walk return --group free:2 --steps 6",
    "walk return --gset coset:f2 --steps 6",
    "walk return --group zmod:3 --steps 5 --precision float",
    "walk rho --group lamplighter --steps 6",
    "walk truncated --group dihedral --radius 4",
    "walk truncated --group free:2 --radius 3",
    "walk invorbit --group z:1 --steps 4 --trials 50 --seed 1",
    "walk return --gset orbit:basilica:depth=3 --steps 4",
    "cogrowth counts --group z:2 --length 6",
    "cogrowth counts --group coset:f2 --length 6 --format csv",
    "cogrowth report --group free:2 --length 8 --rho-lower 0.8",
    "cogrowth series --group zmod:5 --length 8",
    "ca step --rule life --pattern {data}/blinker.json --steps 2",
    "ca goe --rule and:z --radius 1",
    "ca mep --rule life --radius 0",
    "ca entropy --rule xor:z --radius 1",
    "paradox verify --radius 3",
    "paradox map --word 'x1 x2^-1'",
    "paradox preimages --word x1 --radius 3",
    "topfull language --length 3",
    "topfull search --length 3",
    "graph --group z:1 --radius 2",
    "graph --gset coset:f2 --radius 2",
    "graph --group cayley:free:2 --radius 1",
    "graph --group cayley:basilica --radius 1",
    "graph --gset orbit:grigorchuk:depth=2 --radius 2",
    "walk return --group lamplighter --steps 8",
    "walk return --group dihedral --steps 10",
    "walk return --group cayley:grigorchuk --steps 6",
    "walk invorbit --group lamplighter --steps 5 --trials 20 --seed 2",
    "walk rho --gset orbit:grigorchuk:depth=4 --steps 8",
    "walk truncated --gset coset:f2 --radius 3",
    "cogrowth series --group lamplighter --length 6",
    "cogrowth counts --group dihedral --length 8",
    "graph --gset coset:f2 --radius 4",
    "folner --group z:2 --radius 4",
    "folner --group lamplighter --radius 4",
    "folner --group dihedral --radius 5",
    "folner --group free:2 --radius 3",
    "folner --gset orbit:grigorchuk:depth=3 --radius 4",
    "folner --group free:2 --radius 3 --mode exhaustive --epsilon 1/4 "
    "--cap-subset-size 3",
    "folner --group z:2 --radius 3 --mode exhaustive --epsilon 1/5 "
    "--cap-subset-size 5",
    "folner --gset coset:f2 --radius 4 --mode anneal --seed 3 --steps 300",
    "folner --group z:2 --radius 3 --fol 1",
    "folner --group lamplighter --radius 3 --fol 1",
    "paradox verify --radius 5",
    # argparse wraps help to $COLUMNS; _golden_stdout fixes it at 80
    "--help",
    "growth --help",
    "folner --help",
    "walk --help",
    "cogrowth --help",
    "ca --help",
    "paradox --help",
    "topfull --help",
    "graph --help",
]


def _argv(command):
    return [arg.format(data=DATA) for arg in shlex.split(command)]


def _golden_stdout(command):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(_argv(command))
        except SystemExit as error:  # --help prints, then exits
            code = error.code
    assert code == 0, command
    return buffer.getvalue()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_corpus_is_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(GOLDEN_COMMANDS)
    for command in GOLDEN_COMMANDS:
        assert _golden_stdout(command) == golden[command], command


class TestGrowth:
    def test_csv(self, capsys):
        code, out, _err = run(capsys, "growth", "--group", "z:1",
                              "--radius", "3")
        assert code == 0
        assert out == "0,1\n1,3\n2,5\n3,7\n"

    def test_json(self, capsys):
        code, out, _err = run(capsys, "growth", "--group", "free:2",
                              "--radius", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["values"] == [1, 5, 17]


class TestWalk:
    def test_exact_return(self, capsys):
        code, out, _err = run(capsys, "walk", "return", "--group", "z:1",
                              "--steps", "2")
        assert code == 0
        assert out.strip() == "1/2"

    def test_truncated_needs_radius(self, capsys):
        code, _out, err = run(capsys, "walk", "truncated", "--group", "z:1")
        assert code == 2
        assert "radius" in err

    def test_invorbit_needs_seed(self, capsys):
        code, _out, err = run(capsys, "walk", "invorbit", "--group", "z:1")
        assert code == 2
        assert "seed" in err

    def test_invorbit_reports_exact_mean(self, capsys):
        code, out, _err = run(capsys, "walk", "invorbit", "--group", "z:1",
                              "--steps", "2", "--trials", "50", "--seed", "1")
        assert code == 0
        assert json.loads(out)["exactMeanSize"] == "5/2"


    def test_coset_walk_of_sixteen_steps_stays_small(self, capsys,
                                                     monkeypatch):
        # the value is sum_x p_8(o,x)^2, which equals p_16(o,o) for this
        # symmetric walk
        monkeypatch.setenv("AMENLAB_CAP_MB", "64")
        tracemalloc.start()
        try:
            code, out, _err = run(capsys, "walk", "return", "--gset",
                                  "coset:f2", "--steps", "16")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "65110119/1073741824\n")
        assert peak < 20_000_000


class TestFolner:
    def test_fol_value(self, capsys):
        code, out, _err = run(capsys, "folner", "--group", "z:1",
                              "--radius", "6", "--fol", "1")
        assert code == 0
        assert json.loads(out)["fol"] == 3

    def test_anneal_determinism(self, capsys):
        args = ("folner", "--group", "z:1", "--radius", "6",
                "--mode", "anneal", "--seed", "7", "--epsilon", "1/4")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_anneal_needs_seed(self, capsys):
        code, _out, err = run(capsys, "folner", "--group", "z:1",
                              "--radius", "4", "--mode", "anneal")
        assert code == 2
        assert "seed" in err


class TestCogrowth:
    def test_counts_csv(self, capsys):
        code, out, _err = run(capsys, "cogrowth", "counts", "--group", "z:2",
                              "--length", "4", "--format", "csv")
        assert code == 0
        assert out == "0,1\n1,0\n2,0\n3,0\n4,8\n"

    def test_series_residual(self, capsys):
        code, out, _err = run(capsys, "cogrowth", "series", "--group",
                              "zmod:5", "--length", "10")
        assert code == 0
        assert json.loads(out)["maxResidual"] == "0"


class TestCellular:
    def test_step_pattern(self, capsys, tmp_path):
        pattern = {"cells": [{"site": [x, y], "value": 1 if (x, y) in
                              {(1, 2), (2, 2), (3, 2)} else 0}
                             for x in range(5) for y in range(5)]}
        path = tmp_path / "blinker.json"
        path.write_text(json.dumps(pattern))
        code, out, _err = run(capsys, "ca", "step", "--rule", "life",
                              "--pattern", str(path))
        assert code == 0
        alive = {tuple(c["site"]) for c in json.loads(out)["cells"]
                 if c["value"] == 1}
        assert alive == {(2, 1), (2, 2), (2, 3)}

    def test_goe_and(self, capsys):
        code, out, _err = run(capsys, "ca", "goe", "--rule", "and:z",
                              "--radius", "1")
        assert code == 0
        assert json.loads(out)["found"]

    def test_mep_life(self, capsys):
        code, out, _err = run(capsys, "ca", "mep", "--rule", "life",
                              "--radius", "0")
        assert code == 0
        assert json.loads(out)["found"]

    def test_budget_exit_code(self, capsys):
        code, _out, err = run(capsys, "ca", "goe", "--rule", "life",
                              "--radius", "3", "--budget", "100")
        assert code == 3
        assert "cap" in err

    def test_unknown_rule(self, capsys):
        code, _out, err = run(capsys, "ca", "goe", "--rule", "nope")
        assert code == 2


class TestParadox:
    def test_verify(self, capsys):
        code, out, _err = run(capsys, "paradox", "verify", "--radius", "3")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_map_and_preimages(self, capsys):
        code, out, _err = run(capsys, "paradox", "preimages",
                              "--word", "1", "--radius", "3")
        assert code == 0
        assert json.loads(out)["preimages"] == ["1", "x1^-1"]

    def test_huge_exponent_exits_three_without_expanding(self, capsys,
                                                         monkeypatch):
        monkeypatch.delenv("AMENLAB_CAP_MB", raising=False)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code, out, err = run(capsys, "paradox", "map",
                                 "--word", "x1^100000000")
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded:")
        assert elapsed < 1.0
        # the expanded word would be a 10^8-entry tuple, 800 MB of pointers
        assert peak < 10_000_000

    @pytest.mark.parametrize("argv", [
        ("paradox", "verify", "--radius", "8"),
        ("paradox", "preimages", "--word", "x1", "--radius", "8"),
        ("graph", "--group", "free:2", "--radius", "8"),
    ])
    def test_ball_of_radius_eight_obeys_the_memory_cap(self, capsys,
                                                       monkeypatch, argv):
        # B(8) of F2 has 13,121 words; a 1 MB cap allows 5,000 vertices
        monkeypatch.setenv("AMENLAB_CAP_MB", "1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded:")


class TestTopfull:
    def test_language(self, capsys):
        code, out, _err = run(capsys, "topfull", "language", "--length", "2")
        assert code == 0
        assert json.loads(out)["factors"]["2"] == ["00", "01", "10"]

    def test_search(self, capsys):
        code, out, _err = run(capsys, "topfull", "search", "--length", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] and payload["bijective"]


class TestGraph:
    def test_json_output(self, capsys):
        code, out, _err = run(capsys, "graph", "--group", "z:1",
                              "--radius", "2")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 5

    def test_vertex_cap_exit_code(self, capsys):
        code, _out, err = run(capsys, "graph", "--group", "free:2",
                              "--radius", "8", "--cap-vertices", "50")
        assert code == 3

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        code, out, _err = run(capsys, "graph", "--group", "z:1",
                              "--radius", "1", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["radius"] == 1


class TestInvalidInputExitsTwo:
    @pytest.mark.parametrize("argv", [
        ("walk", "return", "--group", "free:2", "--steps", "-1"),
        ("walk", "return", "--group", "free:2", "--steps", "-1",
         "--precision", "float"),
        ("walk", "truncated", "--group", "free:2", "--radius", "-1"),
        ("walk", "truncated", "--group", "z:1", "--radius", "-1"),
        ("ca", "entropy", "--rule", "and:z", "--radius", "-1"),
        ("ca", "goe", "--rule", "and:z", "--radius", "-1"),
        ("ca", "mep", "--rule", "and:z", "--radius", "-1"),
        ("paradox", "preimages", "--radius", "-1"),
        ("paradox", "verify", "--radius", "-1"),
        ("graph", "--gset", "orbit:grigorchuk:depth=x", "--radius", "1"),
        ("growth", "--group", "cayley:coset:f2", "--radius", "1"),
        ("ca", "step", "--rule", "life"),
        ("folner", "--group", "z:1", "--radius", "3", "--mode",
         "exhaustive", "--cap-subset-size", "0"),
    ])
    def test_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("content", [
        None,  # no such file
        "not json",
        json.dumps({"cells": [{"site": [0, 0]}]}),  # a cell without a value
        json.dumps([1, 2]),
    ])
    def test_bad_pattern_file(self, capsys, tmp_path, content):
        path = tmp_path / "pattern.json"
        if content is not None:
            path.write_text(content)
        code, _out, err = run(capsys, "ca", "step", "--rule", "life",
                              "--pattern", str(path))
        assert code == 2
        assert err.startswith("error:")


def test_coset_spec_means_the_schreier_graph_in_growth(capsys):
    code, out, _err = run(capsys, "growth", "--group", "coset:f2",
                          "--radius", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [1, 3, 7, 17, 45]


# -- start-up cost: a command loads only the modules it runs ----------------

ANALYSIS_MODULES = {f"amenlab.{name}" for name in (
    "cellauto", "cogrowth", "groups", "isoperimetry", "orbits", "paradox",
    "randwalk", "selfsim", "topfull", "walks")}


def _modules_after(argv=None, imports=()):
    """The modules a fresh interpreter holds after importing amenlab.cli
    and the amenlab modules named in ``imports`` and, given ``argv``,
    running ``cli.main`` on it."""
    script = (
        "import contextlib, io, sys\n"
        "from amenlab import cli\n"
        + "".join(f"import amenlab.{name}\n" for name in imports) +
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "print(*sys.modules)\n")
    src = str(Path(amenlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_analysis_module():
    loaded = _modules_after()
    assert "amenlab.cli" in loaded
    assert "numpy" not in loaded
    assert not loaded & ANALYSIS_MODULES


@pytest.mark.parametrize("command", [
    "ca step --rule life --pattern {data}/blinker.json --steps 2",
    "ca goe --rule and:z --radius 1",
    "ca mep --rule life --radius 0",
    "ca entropy --rule xor:z --radius 1",
    "topfull language --length 3",
    "topfull search --length 3",
])
def test_ca_and_topfull_run_without_numpy(command):
    loaded = _modules_after(_argv(command))
    module = {"ca": "amenlab.cellauto", "topfull": "amenlab.topfull"}
    assert module[command.split()[0]] in loaded
    assert "numpy" not in loaded


def _readme_commands():
    """The commands of the README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    return [line[len("amenlab "):] for line in block.split("```", 1)[0]
            .splitlines() if line.startswith("amenlab ")]


def test_the_readme_block_is_the_one_the_guard_reads():
    assert len(_readme_commands()) == 8
    assert "growth --group grigorchuk --radius 8" in _readme_commands()


@pytest.mark.parametrize("command", _readme_commands() + [
    "walk rho --group z:2 --steps 8",
    "walk invorbit --group z:2 --steps 6 --trials 20 --seed 1",
    "cogrowth series --group z:2 --length 8",
])
def test_exact_commands_run_without_numpy(command):
    assert "numpy" not in _modules_after(_argv(command))


def test_exact_modules_load_no_numpy():
    exact = ("orbits", "selfsim", "isoperimetry", "paradox", "cogrowth",
             "walks")
    loaded = _modules_after(imports=exact)
    assert {f"amenlab.{name}" for name in exact} <= loaded
    assert "numpy" not in loaded


def test_walk_truncated_is_the_command_that_loads_numpy():
    loaded = _modules_after(_argv("walk truncated --group free:2 --radius 3"))
    assert {"amenlab.randwalk", "numpy"} <= loaded


_RANK_TEXT = st.one_of(st.integers(-1, 3).map(str),
                       st.sampled_from(["", "x", "1.5", "0x1", "+2", "1,"]))
_SPECS = st.one_of(
    st.builds("free:{}".format, _RANK_TEXT),
    st.builds("zmod:{}".format, _RANK_TEXT),
    st.builds("zmod:{},{}".format, _RANK_TEXT, _RANK_TEXT),
    st.builds("orbit:{}:depth={}".format,
              st.sampled_from(["grigorchuk", "basilica", "nope"]), _RANK_TEXT),
    st.sampled_from(["coset:f2", "coset:f3", "cayley:coset:f2", "z:2",
                     "lamplighter", "dihedral", "cayley:nope", "orbit:", ""]),
)
_WORDS = st.lists(
    st.builds("{}{}".format, st.sampled_from(["x1", "x2", "x3", "1"]),
              st.sampled_from(["", "^2", "^-1", "^", "^x", "^1.5", "^--1"])),
    max_size=4,
).map(" ".join)
_SMALL = st.integers(-3, 3).map(str)
_COMMANDS = st.one_of(
    st.builds(lambda g, r: ["growth", "--group", g, "--radius", r],
              _SPECS, _SMALL),
    st.builds(lambda g, r, n: ["folner", "--group", g, "--radius", r,
                               "--fol", n], _SPECS, _SMALL, _SMALL),
    st.builds(lambda a, g, n: ["walk", a, "--group", g, "--steps", n],
              st.sampled_from(["return", "rho"]), _SPECS, _SMALL),
    st.builds(lambda g, n: ["cogrowth", "counts", "--group", g,
                            "--length", n], _SPECS, _SMALL),
    st.builds(lambda g, r: ["graph", "--gset", g, "--radius", r],
              _SPECS, _SMALL),
    st.builds(lambda w: ["paradox", "map", "--word", w], _WORDS),
    st.builds(lambda w, r: ["paradox", "preimages", "--word", w,
                            "--radius", r], _WORDS, _SMALL),
    st.builds(lambda a, r: ["ca", a, "--rule", "and:z", "--radius", r],
              st.sampled_from(["goe", "entropy"]), _SMALL),
)


@settings(max_examples=200, deadline=None)
@given(_COMMANDS)
def test_cli_fuzz_exits_cleanly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as error:  # argparse rejects the command line
            code = error.code
    assert code in (0, 2, 3)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {command: _golden_stdout(command) for command in GOLDEN_COMMANDS},
        indent=1, sort_keys=True) + "\n")
