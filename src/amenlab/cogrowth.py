"""Cogrowth: counting reduced words of the free cover that map to the identity.

Words live in the abstract free group on the marked generators: the formal
letters s and s^-1 stay distinct even when s is an involution in the target
group.  With q = #S_pm - 1, the exact functional equation

    B(z) / (1 - z^2) = C(z / (1 + q z^2)) / (1 + q z^2)

relates the reduced-word series B to the all-words series C = 1/(1 - z A),
and the cogrowth rate gamma = limsup c(n)^{1/n} predicts the walk spectral
radius via rho = (gamma + q/gamma) / #S_pm when gamma > 1.

Both counts come from the integer walk DP ``orbits.walk_counts`` on the ball
of radius floor(n/2), which holds every closed word of length <= n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional

from .errors import ValidationError
from .orbits import (MarkedGSet, SchreierGraph, build_ball, make_gset,
                     walk_counts)


class CogrowthCounts:
    """c(k) = number of reduced length-k words with trivial image."""

    def __init__(self, spec: str, counts: List[int], s_pm: int):
        self.spec = spec
        self.counts = list(counts)
        self.s_pm = s_pm

    def __getitem__(self, k):
        return self.counts[k]

    def __len__(self):
        return len(self.counts)

    def to_csv(self) -> str:
        return "\n".join(f"{k},{c}" for k, c in enumerate(self.counts))

    def __repr__(self):
        return f"CogrowthCounts({self.spec!r}, {self.counts})"


def _directed_letters(gset: MarkedGSet):
    """Formal free-cover letters: two per generator, always."""
    return [(gen, sign) for gen in range(len(gset.names)) for sign in (1, -1)]


def reduced_closed_counts(spec: str, n: int) -> CogrowthCounts:
    """c(k) for k <= n by dynamic programming over (element, last letter)."""
    graph = _closed_word_ball(spec, n)
    return CogrowthCounts(spec, _reduced_walk_counts(graph, n),
                          2 * len(graph.gset.names))


def _closed_word_ball(spec: str, n: int) -> SchreierGraph:
    if n < 0:
        raise ValidationError("length bound must be >= 0")
    return build_ball(make_gset(spec), n // 2)


def _closed_walk_counts(graph: SchreierGraph, n: int) -> List[int]:
    """Closed words of each length k <= n over the formal letters."""
    moves = [(*graph.word_edges((letter,)), 1)
             for letter in _directed_letters(graph.gset)]
    return [vector[0] for vector in walk_counts(len(graph.keys), moves, n)]


def _reduced_walk_counts(graph: SchreierGraph, n: int) -> List[int]:
    """Closed reduced words of each length k <= n over the formal letters.

    The walk runs on the states s * V + v: at vertex v before any letter for
    s = 0, after letter c for s = c + 1; the formal inverse of c is c ^ 1.
    """
    letters = _directed_letters(graph.gset)
    size = len(graph.keys)
    moves = []
    for c, letter in enumerate(letters):
        src, dst = graph.word_edges((letter,))
        after = [(c + 1) * size + j for j in dst]
        moves.extend(([last * size + i for i in src], after, 1)
                     for last in range(len(letters) + 1)
                     if last != (c ^ 1) + 1)
    return [sum(weights[::size])
            for weights in walk_counts((len(letters) + 1) * size, moves, n)]


def cogrowth_report(counts: CogrowthCounts,
                    rho_lower: Optional[float] = None) -> dict:
    """Estimate gamma from even lengths and predict rho by the formula.

    Two estimators are reported: the direct root gammaHat = max c(2n)^{1/2n}
    (a certified lower bound wherever supermultiplicativity holds, but slow to
    converge), and the consecutive-ratio estimate gammaRatio =
    sqrt(c(2n)/c(2n-2)) at the largest usable length, which converges much
    faster and drives predictedRhoRatio.
    """
    s_pm = counts.s_pm
    q = s_pm - 1
    gamma_hat = None
    for m in range(2, len(counts), 2):
        if counts[m] > 0:
            value = counts[m] ** (1.0 / m)
            gamma_hat = value if gamma_hat is None else max(gamma_hat, value)
    gamma_ratio = None
    for m in range(len(counts) - 1, 3, -1):
        if counts[m] > 0 and counts[m - 2] > 0:
            gamma_ratio = math.sqrt(counts[m] / counts[m - 2])
            break
    report: dict = {"sPm": s_pm, "gammaHat": gamma_hat,
                    "gammaRatio": gamma_ratio}

    def predict(gamma):
        if gamma is None or gamma <= 1.0:
            return None
        return (gamma + q / gamma) / s_pm

    report["predictedRho"] = predict(gamma_hat)
    report["predictedRhoRatio"] = predict(gamma_ratio)
    report["degenerate"] = report["predictedRho"] is None
    if rho_lower is not None:
        if report["predictedRho"] is not None:
            report["residual"] = abs(report["predictedRho"] - rho_lower)
        if report["predictedRhoRatio"] is not None:
            report["residualRatio"] = abs(report["predictedRhoRatio"] - rho_lower)
    return report


# -- exact formal series ------------------------------------------------------

def _poly_mul(a: List[Fraction], b: List[Fraction], n: int) -> List[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        top = min(n - i, len(b) - 1)
        for j in range(top + 1):
            out[i + j] += ai * b[j]
    return out


def _poly_inverse(a: List[Fraction], n: int) -> List[Fraction]:
    if a[0] == 0:
        raise ValidationError("series has no inverse (zero constant term)")
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / a[0]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * out[k - j]
        out[k] = -acc / a[0]
    return out


def series_identity_check(spec: str, n: int) -> dict:
    """Compare both sides of the cogrowth functional equation to degree n.

    The residual is reported coefficient by coefficient and must be exactly 0.
    """
    graph = _closed_word_ball(spec, n)
    q = 2 * len(graph.gset.names) - 1
    # c_k = closed walks of length k at the basepoint (all formal letters)
    c_counts = _closed_walk_counts(graph, n)
    b_counts = _reduced_walk_counts(graph, n)
    one_plus_qz2 = [Fraction(1), Fraction(0), Fraction(q)]
    inv = _poly_inverse(one_plus_qz2, n)
    # u = z / (1 + q z^2)
    u = [Fraction(0)] + inv[:n]
    # C(u) = sum_k c_k u^k, truncated; u has valuation 1 so k <= n suffices
    rhs = [Fraction(0)] * (n + 1)
    u_power = [Fraction(1)] + [Fraction(0)] * n
    for k in range(n + 1):
        ck = Fraction(c_counts[k])
        if ck:
            for i in range(n + 1):
                rhs[i] += ck * u_power[i]
        u_power = _poly_mul(u_power, u, n)
    rhs = _poly_mul(rhs, inv, n)
    one_minus_z2_inv = _poly_inverse([Fraction(1), Fraction(0), Fraction(-1)], n)
    lhs = _poly_mul([Fraction(c) for c in b_counts], one_minus_z2_inv, n)
    residuals = [abs(lhs[i] - rhs[i]) for i in range(n + 1)]
    return {
        "spec": spec,
        "degree": n,
        "maxResidual": max(residuals),
        "lhs": lhs,
        "rhs": rhs,
    }
