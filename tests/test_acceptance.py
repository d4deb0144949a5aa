"""End-to-end acceptance checks: exact identities, exhaustive small-scale
searches, certified bounds, and runtime budgets for the expensive ones."""

import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from amenlab.cellauto import (LocalRule, OverlapsFamily, ZdSpace, ca_step,
                              goe_search, life_rule, linca_kernel_basis,
                              linca_rule, mep_search, muller_matrix,
                              pattern_from_alive)
from amenlab.cogrowth import (cogrowth_report, reduced_closed_counts,
                              series_identity_check)
from amenlab.errors import CapExceeded
from amenlab.groups import MarkedGroup
from amenlab.isoperimetry import (csc_check, fol_exact, folner_ratios,
                                  growth_series)
from amenlab.orbits import boundary_edges, build_ball, make_gset
from amenlab.paradox import doubling_map, hall_matching, paradox_verify
from amenlab.randwalk import truncated_rho
from amenlab.selfsim import (ETA, element_order, equals_selfsim, eta_norm,
                             grigorchuk, is_identity, wreath_decompose,
                             _LETTER_NORMS)
from amenlab.walks import return_sequence, rho_lower_bound, srw_measure

DATA = Path(__file__).parent / "data"
RHO_F2 = math.sqrt(3) / 2  # sqrt(2d-1)/d at d = 2


class TestReturnProbabilitiesOnZ:
    def test_exact_binomial_values(self):
        started = time.monotonic()
        gset = make_gset("cayley:z:1")
        seq = return_sequence(gset, srw_measure(gset), 60)
        for n in range(31):
            assert seq[2 * n] == Fraction(math.comb(2 * n, n), 4 ** n)
        assert time.monotonic() - started < 1.0


class TestFreeGroupSpectralRadius:
    def test_certified_bounds(self):
        started = time.monotonic()
        gset = make_gset("cayley:free:2")
        lower = rho_lower_bound(gset, srw_measure(gset), 100)["best"]
        truncated = truncated_rho(gset, radius=12)
        assert 0.80 <= lower <= RHO_F2 + 1e-9
        assert 0.83 < truncated <= RHO_F2 + 1e-9
        assert time.monotonic() - started < 30.0


class TestKestenEquality:
    def test_exact_pair(self):
        # the uniform walk on F2: iota = 2/4, from |boundary F| = 2#F + 2 on
        # the 4-regular tree (TestTreeBoundaryFormula), and rho^2 = 3/4
        iota, rho_squared = Fraction(1, 2), Fraction(3, 4)
        assert iota ** 2 + rho_squared == 1
        assert rho_squared >= (1 - iota) ** 2  # iota + rho >= 1
        # p_2n(x,x) <= rho^2n, exactly, for every n <= 50
        gset = make_gset("cayley:free:2")
        seq = return_sequence(gset, srw_measure(gset), 100)
        for n in range(51):
            assert seq[2 * n] <= rho_squared ** n


class TestTreeBoundaryFormula:
    def test_every_connected_subset_up_to_eight_vertices(self):
        """|boundary edges| = 2#F + 2 for every connected F in the 4-regular
        tree, enumerated once each by the forbidden-set method."""
        graph = build_ball(make_gset("cayley:free:2"), 8)
        adjacency = {v: [w for _l, w in graph.out_edges(v)]
                     for v in graph.vertices}
        checked = 0

        def check(subset):
            nonlocal checked
            checked += 1
            assert len(boundary_edges(graph, subset)) == 2 * len(subset) + 2

        def extend(subset, frontier, forbidden):
            check(subset)
            if len(subset) == 8:
                return
            frontier = list(frontier)
            local = set()
            while frontier:
                v = frontier.pop()
                if v in forbidden or v in local:
                    continue
                local.add(v)
                grown = frontier + [
                    w for w in adjacency[v]
                    if w not in subset and w not in forbidden
                    and w not in local
                ]
                extend(subset | {v}, grown, (forbidden | local) - {v})

        root = graph.base_key
        extend({root}, adjacency[root], set())
        assert checked == 1 + 4 + 18 + 88 + 455 + 2448 + 13566 + 76912


class TestFolnerFunctionOfZ:
    def test_exact_values_and_volume_bound(self):
        started = time.monotonic()
        graph = build_ball(make_gset("cayley:z:1"), 8)
        assert fol_exact(graph, 1) == 3
        assert fol_exact(graph, 2) == 5
        for spec, n in (("z:1", 1), ("z:1", 2), ("z:2", 1)):
            result = csc_check(spec, n)
            assert result["holds"]
            assert result["fol"] >= Fraction(growth_series(spec, n)[n], 2)
        assert time.monotonic() - started < 60.0


class TestLamplighter:
    group = MarkedGroup.from_spec("lamplighter")

    def test_conjugate_toggles_commute(self):
        a = self.group.parse("a")
        for k in range(1, 9):
            conj = self.group.conjugate(a, self.group.parse(f"t^{k}"))
            assert self.group.equals(self.group.commutator(a, conj), ())

    def test_lamp_interval_sets_are_folner(self):
        """F_n = all lamp configurations on [-n, n] with the walker inside
        [-n, n]; the worst one-sided ratio is 1/(2n+1) <= 4/n."""
        gset = make_gset("cayley:lamplighter")
        for n in range(1, 6):
            positions = range(-n, n + 1)
            subset = []
            for mask in product((0, 1), repeat=2 * n + 1):
                lamps = [p for p, bit in zip(positions, mask) if bit]
                for pos in positions:
                    word = []
                    here = 0
                    for lamp in lamps:
                        sign = 1 if lamp >= here else -1
                        word.extend((1, sign) for _ in range(abs(lamp - here)))
                        here = lamp
                        word.append((0, 1))
                    sign = 1 if pos >= here else -1
                    word.extend((1, sign) for _ in range(abs(pos - here)))
                    subset.append(self.group.normal_form(tuple(word)))
            assert len(subset) == (2 ** (2 * n + 1)) * (2 * n + 1)
            ratios = folner_ratios(gset, subset)
            worst = max(ratios.values())
            assert worst == Fraction(1, 2 * n + 1)
            assert worst <= Fraction(4, n)
            assert ratios["a"] == 0


class TestGrigorchukGroup:
    def test_defining_relations(self):
        for relator in ("aa", "bb", "cc", "dd", "bcd", "adadadad"):
            assert is_identity(grigorchuk(relator)).equal

    def test_contraction_inequality(self):
        words = [""]
        frontier = [""]
        for _ in range(8):
            new = []
            for w in frontier:
                for ch in "abcd":
                    if w and (w[-1] == ch or (w[-1] != "a" and ch != "a")):
                        continue
                    new.append(w + ch)
            words.extend(new)
            frontier = new
        for w in words:
            g = grigorchuk(w)
            if g.word != w:
                continue
            d = wreath_decompose(g)
            lhs = eta_norm(d.sections[0]) + eta_norm(d.sections[1])
            rhs = ETA * (eta_norm(g) + _LETTER_NORMS["a"])
            assert lhs <= rhs + 1e-9, w

    def test_ball_six_is_two_torsion(self):
        graph = build_ball(make_gset("cayley:grigorchuk"), 6)
        assert len(graph.depths) == 108
        for g in graph.vertices:
            order = element_order(g, 16)
            assert order is not None
            assert order & (order - 1) == 0

    def test_growth_matches_the_frozen_golden_file(self):
        golden = json.loads((DATA / "grigorchuk_growth.json").read_text())
        values = list(growth_series("grigorchuk", 10))
        assert values == golden["ballSizes"]
        assert values[:3] == [1, 5, 11]

    def test_basilica_growth_matches_the_frozen_golden_file(self):
        golden = json.loads((DATA / "basilica_growth.json").read_text())
        assert list(growth_series("basilica", 8)) == golden["ballSizes"]

    def test_basilica_ball_eight_fits_in_64_mb(self):
        tracemalloc.start()
        try:
            growth_series("basilica", 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestCogrowth:
    def test_series_identity_residuals_vanish(self):
        assert series_identity_check("zmod:5", 12)["maxResidual"] == 0
        assert series_identity_check("z:1", 10)["maxResidual"] == 0

    def test_z2_closed_counts_at_length_four(self):
        counts = reduced_closed_counts("z:2", 4)
        assert counts[4] == 8
        letters = [(g, s) for g in range(2) for s in (1, -1)]
        brute = 0
        for word in product(letters, repeat=4):
            if any(word[i] == (word[i + 1][0], -word[i + 1][1])
                   for i in range(3)):
                continue
            sums = [0, 0]
            for g, s in word:
                sums[g] += s
            brute += sums == [0, 0]
        assert brute == 8

    def test_z2_predicts_rho_near_one(self):
        counts = reduced_closed_counts("z:2", 16)
        report = cogrowth_report(counts, rho_lower=1.0)
        # the consecutive-ratio estimator converges fast enough at this
        # length; the direct-root estimator does not (see test_cogrowth)
        assert report["residualRatio"] <= 0.05


def torus_variant(base: LocalRule, mods) -> LocalRule:
    space = ZdSpace(base.space.dim, mods)
    return LocalRule(space, base.alphabet, base.memory, base.theta,
                     quiescent=base.quiescent, name=base.name)


class TestCellularAutomata:
    def test_glider_transitions(self):
        rule = life_rule()
        window = sorted(product(range(6), repeat=2))
        figures = [
            {(1, 1), (2, 1), (3, 1), (3, 2), (2, 3)},
            {(1, 2), (2, 1), (3, 1), (3, 2), (2, 0)},
            {(1, 1), (3, 2), (3, 1), (2, 0), (3, 0)},
        ]
        current = figures[0]
        for expected in figures[1:]:
            pattern = pattern_from_alive(rule.space, window, current)
            stepped = ca_step(rule, pattern.padded(rule))
            current = {s for s in window if stepped[s] == 1}
            assert current == expected

    def test_lone_cell_and_empty_are_mutually_erasable(self):
        found = mep_search(life_rule(), 0)
        assert found is not None
        pattern, earlier = found
        assert pattern.support(0) == frozenset({(0, 0)})
        assert earlier.support(0) == frozenset()

    def test_muller_rule_certificates(self):
        matrix = muller_matrix()
        rule = linca_rule(matrix)
        unreachable = goe_search(rule, [""])
        assert unreachable is not None and unreachable[""] == (0, 1)
        assert linca_kernel_basis(matrix, 2) == []

    def test_and_rule_garden_of_eden(self):
        from amenlab.cellauto import and_rule_z
        found = goe_search(and_rule_z(), [(0,), (1,), (2,)])
        assert found is not None
        assert [found[(k,)] for k in range(3)] == [1, 0, 1]

    @pytest.mark.slow
    def test_torus_goe_iff_mep_at_full_scale(self):
        """On the 4x4 torus every rule is scanned over all 2^16
        configurations; a Garden of Eden must exist exactly when a mutually
        erasable pair does."""
        life = life_rule()
        rules = [
            torus_variant(life, (4, 4)),
            LocalRule(ZdSpace(2, (4, 4)), (0, 1), ((0, 0), (1, 0)),
                      lambda v: v[0] ^ v[1], quiescent=0, name="xor2d"),
            LocalRule(ZdSpace(2, (4, 4)), (0, 1), ((0, 0), (1, 0)),
                      lambda v: v[0] & v[1], quiescent=0, name="and2d"),
            LocalRule(ZdSpace(2, (4, 4)), (0, 1), ((0, 0),),
                      lambda v: 1 - v[0], quiescent=1, name="flip"),
        ]
        verdicts = {}
        for rule in rules:
            goe = goe_search(rule, rule.space.all_sites(), budget=1 << 17)
            mep = mep_search(rule, 0, budget=1 << 17)
            assert (goe is not None) == (mep is not None), rule.name
            verdicts[rule.name] = goe is not None
        # both sides of the equivalence are exercised
        assert verdicts["life"] and not verdicts["flip"]


class TestOverlapsFamily:
    def test_counts_for_small_n(self):
        for n in (2, 3, 4):
            family = OverlapsFamily(n)
            assert len(family.ground) == \
                sum(math.factorial(n) // i for i in range(1, n + 1))
            from itertools import combinations
            indices = range(1, n + 1)
            for size in indices:
                for index_set in combinations(indices, size):
                    for i in index_set:
                        got = len(family.x_restricted(i, set(index_set)))
                        assert got == math.factorial(n) // len(index_set)


class TestParadoxicalDecomposition:
    def test_decomposition_at_radius_six(self):
        report = paradox_verify(6)
        assert report["passed"], report["violations"]
        assert report["coveredInner"] == 485

    def test_doubling_map_is_two_to_one(self):
        # preimages of any word of length <= 7 have length <= 8, so counting
        # over B(8) is exhaustive
        ball = build_ball(make_gset("free:2"), 8)
        images = Counter(doubling_map(w) for w in ball.keys)
        for target in ball.interior():
            assert images[target] == 2

    @pytest.mark.slow
    def test_hall_matching_complete_sweep(self):
        """hall_matching versus an independent Hall-condition oracle on every
        bipartite graph with at most 5 vertices on each side."""
        for nv in range(1, 6):
            for nw in range(1, 6):
                self.sweep(nv, nw)

    @staticmethod
    def sweep(nv, nw):
        """Graph ``code`` has row i = bits i*nw .. i*nw + nw - 1 of code.
        The codes go in blocks, so the oracle's arrays stay small."""
        block = 1 << 20
        total = 1 << (nv * nw)
        row_mask = (1 << nw) - 1
        row_lists = [tuple(j for j in range(nw) if r >> j & 1)
                     for r in range(1 << nw)]
        for start in range(0, total, block):
            stop = min(start + block, total)
            codes = np.arange(start, stop, dtype=np.int64)
            rows = [(codes >> (i * nw)) & row_mask for i in range(nv)]
            ok = np.ones(len(codes), dtype=bool)
            for s in range(1, 1 << nv):
                union = np.zeros(len(codes), dtype=np.int64)
                for i in range(nv):
                    if s >> i & 1:
                        union |= rows[i]
                popcount = np.zeros(len(codes), dtype=np.int64)
                for _ in range(nw):
                    popcount += union & 1
                    union >>= 1
                ok &= popcount >= bin(s).count("1")
            for code, verdict in zip(range(start, stop), ok.tolist()):
                graph = {i: row_lists[(code >> (i * nw)) & row_mask]
                         for i in range(nv)}
                assert hall_matching(graph).matched == verdict, \
                    (nv, nw, code)


class TestCosetAction:
    def test_ray_intervals_have_boundary_two(self):
        gset = make_gset("coset:f2")
        graph = build_ball(gset, 12)
        for n in range(11):
            interval = [tuple(((1, 1),) * k) for k in range(n + 1)]
            edges = boundary_edges(graph, interval)
            assert len(edges) == 2
            ratio = Fraction(len(edges), len(interval))
            assert ratio == Fraction(2, n + 1)

    def test_a_edges_are_loops_on_the_ray(self):
        gset = make_gset("coset:f2")
        for k in range(11):
            key = tuple(((1, 1),) * k)
            assert gset.act(key, (0, 1)) == key


class TestScaleLimitsAreExplicit:
    """Statements that only hold in the limit are never faked numerically:
    the toolkit reports flags, caps, or certified small-scale facts instead,
    and the README spells the boundary out."""

    def test_basilica_equality_is_exact(self):
        from amenlab.selfsim import basilica
        verdict = equals_selfsim(basilica("a"), basilica("a"))
        assert verdict.equal
        assert not verdict.approximate and verdict.depth is None

    def test_exact_equality_is_not_flagged(self):
        verdict = equals_selfsim(grigorchuk("ab"), grigorchuk("ab"))
        assert not verdict.approximate

    def test_caps_raise_instead_of_truncating(self):
        with pytest.raises(CapExceeded) as info:
            build_ball(make_gset("cayley:free:2"), 8, cap_vertices=10)
        assert info.value.partial is not None

    def test_folner_function_reports_absence_of_a_witness(self):
        graph = build_ball(make_gset("cayley:z:1"), 6)
        assert fol_exact(graph, 10, size_cap=10) is None

    def test_readme_documents_the_boundary(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        assert "desk scale" in readme
