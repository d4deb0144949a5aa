"""Cogrowth: counting reduced words of the free cover that map to the identity.

Words live in the abstract free group on the marked generators: the formal
letters s and s^-1 stay distinct even when s is an involution in the target
group.  With q = #S_pm - 1, the exact functional equation

    B(z) / (1 - z^2) = C(z / (1 + q z^2)) / (1 + q z^2)

relates the reduced-word series B to the all-words series C = 1/(1 - z A),
and the cogrowth rate gamma = limsup c(n)^{1/n} predicts the walk spectral
radius via rho = (gamma + q/gamma) / #S_pm when gamma > 1.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import ValidationError, check_vertex_count
from .orbits import MarkedGSet, make_gset


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
    out = []
    for gen in range(len(gset.names)):
        out.append((gen, 1))
        out.append((gen, -1))
    return out


def reduced_closed_counts(spec: str, n: int) -> CogrowthCounts:
    """c(k) for k <= n by dynamic programming over (element, last letter)."""
    if n < 0:
        raise ValidationError("length bound must be >= 0")
    gset = make_gset(spec)
    letters = _directed_letters(gset)
    inverse = {(g, s): (g, -s) for g, s in letters}
    # state: (vertex key, last formal letter) -> number of reduced words
    states: Dict[Tuple, int] = {(gset.base_key, None): 1}
    counts = [1]
    for _ in range(n):
        new: Dict[Tuple, int] = {}
        for (key, last), count in states.items():
            for letter in letters:
                if last is not None and letter == inverse[last]:
                    continue
                target = gset.act(key, letter)
                state = (target, letter)
                new[state] = new.get(state, 0) + count
        states = new
        check_vertex_count(len(states), "cogrowth DP")
        counts.append(
            sum(c for (key, _last), c in states.items() if key == gset.base_key)
        )
    return CogrowthCounts(spec, counts, 2 * len(gset.names))


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
    gset = make_gset(spec)
    letters = _directed_letters(gset)
    s_pm = len(letters)
    q = s_pm - 1
    # c_k = closed walks of length k at the basepoint (all formal letters)
    walk_counts = _closed_walk_counts(gset, letters, n)
    b_counts = reduced_closed_counts(spec, n).counts
    one_plus_qz2 = [Fraction(1), Fraction(0), Fraction(q)]
    inv = _poly_inverse(one_plus_qz2, n)
    # u = z / (1 + q z^2)
    u = [Fraction(0)] + inv[:n]
    # C(u) = sum_k c_k u^k, truncated; u has valuation 1 so k <= n suffices
    rhs = [Fraction(0)] * (n + 1)
    u_power = [Fraction(1)] + [Fraction(0)] * n
    for k in range(n + 1):
        ck = Fraction(walk_counts[k])
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


def _closed_walk_counts(gset: MarkedGSet, letters, n: int) -> List[int]:
    current: Dict = {gset.base_key: 1}
    out = [1]
    for _ in range(n):
        new: Dict = {}
        for key, count in current.items():
            for letter in letters:
                target = gset.act(key, letter)
                new[target] = new.get(target, 0) + count
        current = new
        check_vertex_count(len(current), "walk counting")
        out.append(current.get(gset.base_key, 0))
    return out


def report_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=str)
