"""Float spectral estimates of random walks: Dirichlet-truncated operator
estimates and Kesten inequality reports.

This is the one module that loads numpy, for its eigensolvers.  The exact
walks (measures, convolution powers, return probabilities and inverted
orbits) live in the numpy-free ``walks`` and are re-exported here.

Walks on the free-group Cayley graph get a radial fast path: the Perron
eigenvector of the truncated uniform-walk operator is radial.  The generic
code path stays available and the two are cross-checked in the tests.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import CapExceeded, ValidationError
from .orbits import MarkedGSet, SchreierGraph, build_ball
# the exact walks, also reachable under their names in this module
from .walks import (Distribution, StepMeasure, _free_rank,  # noqa: F401
                    _is_uniform_srw, expected_inverted_orbit_size,
                    inverted_orbit_stats, lazy_measure, measure_power,
                    return_probability, return_sequence, rho_lower_bound,
                    srw_measure)

_POWER_ITERATION_CAP = 200_000


# -- Dirichlet truncation ----------------------------------------------------

def _transition_rows(graph: SchreierGraph, mu: StepMeasure):
    """The vertices sorted by shown key, and for each its row of (column,
    weight) entries, by support word and then by id."""
    vertices = sorted(graph.vertices, key=graph.gset.show_key)
    row_of = [0] * len(graph.keys)
    for row, v in enumerate(vertices):
        row_of[graph.ids[v]] = row
    rows: List[List[Tuple[int, float]]] = [[] for _ in vertices]
    for word, weight in mu.items():
        weight = float(weight)
        src, dst = graph.word_edges(word)
        for i, j in zip(src, dst):
            rows[row_of[i]].append((row_of[j], weight))
    return vertices, rows


_DENSE_EIG_CAP = 1500


def _top_eigenvalue(rows, size: int, tol: float) -> float:
    """Largest eigenvalue of the (symmetric) truncated transition matrix."""
    if size <= _DENSE_EIG_CAP:
        matrix = np.zeros((size, size))
        for i, row in enumerate(rows):
            for j, w in row:
                matrix[i, j] += w
        return float(np.linalg.eigvalsh(matrix)[-1])
    return _power_iteration(rows, size, tol)


def _power_iteration(rows, size: int, tol: float) -> float:
    src = np.array([i for i, row in enumerate(rows) for _ in row],
                   dtype=np.int64)
    dst = np.array([j for row in rows for j, _ in row], dtype=np.int64)
    weights = np.array([w for row in rows for _, w in row])

    # iterate the shifted operator A + 1: same Perron vector, but its top
    # eigenvalue is strictly dominant even on bipartite graphs
    def matvec(vec):
        out = vec.copy()
        np.add.at(out, src, weights * vec[dst])
        return out

    vec = np.ones(size) / math.sqrt(size)
    previous = 0.0
    for _ in range(_POWER_ITERATION_CAP):
        image = matvec(vec)
        norm = float(np.linalg.norm(image))
        if norm == 0.0:
            return 0.0
        rayleigh = float(np.dot(vec, image))
        vec = image / norm
        if abs(rayleigh - previous) < tol:
            return rayleigh - 1.0
        previous = rayleigh
    raise CapExceeded(
        f"power iteration did not converge within {_POWER_ITERATION_CAP} steps"
    )


def _radial_truncated_rho(k: int, radius: int) -> float:
    """Top eigenvalue of the truncated SRW operator on the 2k-regular tree
    ball, computed on the radial chain (the Perron eigenvector is radial)."""
    degree = 2 * k
    size = radius + 1
    matrix = np.zeros((size, size))
    if radius >= 1:
        matrix[0, 1] = 1.0
    for d in range(1, size):
        matrix[d, d - 1] = 1.0 / degree
        if d + 1 < size:
            matrix[d, d + 1] = (degree - 1.0) / degree
    eigenvalues = np.linalg.eigvals(matrix)
    return float(max(ev.real for ev in eigenvalues))


def truncated_rho(target: Union[SchreierGraph, MarkedGSet],
                  mu: Optional[StepMeasure] = None,
                  radius: Optional[int] = None,
                  tol: float = 1e-10) -> float:
    """Top eigenvalue of the Dirichlet-truncated walk operator on a ball.

    Accepts a built SchreierGraph, or a MarkedGSet plus radius (in which case
    the free-group uniform walk uses the exact radial reduction).
    """
    gset = target if isinstance(target, MarkedGSet) else target.gset
    if mu is None:
        mu = srw_measure(gset)
    if not mu.symmetric:
        raise ValidationError("truncated_rho needs a symmetric measure")
    if isinstance(target, MarkedGSet):
        if radius is None or radius < 0:
            raise ValidationError(
                "truncated_rho on a gset needs a radius >= 0")
        rank = _free_rank(target)
        if rank is not None and _is_uniform_srw(target, mu):
            return _radial_truncated_rho(rank, radius)
        graph = build_ball(target, radius)
    else:
        graph = target
    vertices, rows = _transition_rows(graph, mu)
    return _top_eigenvalue(rows, len(vertices), tol)


def operator_identity_residual(graph: SchreierGraph, mu: StepMeasure) -> float:
    """Max entrywise residual of T = 1 - d*d on the interior rows.

    d maps vertex functions to edge functions, (df)(x,y) = f(x) - f(y);
    (d*g)(x) = sum_y p1(x,y) g(x,y).  Both are assembled explicitly.
    """
    vertices, rows = _transition_rows(graph, mu)
    interior = [i for i, v in enumerate(vertices) if graph.is_interior(v)]
    size = len(vertices)
    transition = np.zeros((size, size))
    for i, row in enumerate(rows):
        for j, w in row:
            transition[i, j] += w
    # aggregate p1(x,y) per ordered pair (several support words may coincide)
    edges = sorted({(i, j) for i in interior for j, _w in rows[i]})
    d_matrix = np.zeros((len(edges), size))
    d_star = np.zeros((size, len(edges)))
    for e, (i, j) in enumerate(edges):
        d_matrix[e, i] += 1.0
        d_matrix[e, j] -= 1.0
        d_star[i, e] = transition[i, j]
    laplacian = d_star @ d_matrix
    residual = 0.0
    for i in interior:
        for j in range(size):
            expected = (1.0 if i == j else 0.0) - laplacian[i, j]
            residual = max(residual, abs(transition[i, j] - expected))
    return residual


def kesten_check(iota_upper: Optional[float] = None,
                 rho_lower: Optional[float] = None,
                 exact_pair: Optional[Tuple[float, float]] = None) -> dict:
    """Report on the inequalities iota^2 + rho^2 <= 1 <= iota + rho."""
    report: dict = {"checks": []}
    if exact_pair is not None:
        iota, rho = exact_pair
        squares = iota * iota + rho * rho
        report["checks"].append({
            "name": "squares",
            "value": squares,
            "holds": squares <= 1.0 + 1e-12,
            "tight": abs(squares - 1.0) <= 1e-12,
        })
        report["checks"].append({
            "name": "sum",
            "value": iota + rho,
            "holds": iota + rho >= 1.0 - 1e-12,
        })
        if rho_lower is not None:
            report["checks"].append({
                "name": "rho_lower_sound",
                "value": rho_lower,
                "holds": rho_lower <= rho + 1e-9,
            })
        if iota_upper is not None:
            report["checks"].append({
                "name": "iota_upper_sound",
                "value": iota_upper,
                "holds": iota_upper >= iota - 1e-9,
            })
    elif iota_upper is not None and rho_lower is not None:
        # only the sound direction is testable from an upper/lower pair
        report["checks"].append({
            "name": "bounds_compatible",
            "value": rho_lower ** 2,
            "holds": rho_lower ** 2 <= 1.0 + 1e-12,
        })
        report["checks"].append({
            "name": "folner_side",
            "value": iota_upper,
            "holds": iota_upper >= 0.0,
        })
    else:
        raise ValidationError("kesten_check needs an exact pair or both bounds")
    report["passed"] = all(c["holds"] for c in report["checks"])
    return report


