"""Float spectral estimates of random walks: the top eigenvalue of the walk
operator truncated to a ball, a lower bound for the spectral radius rho.

This is the one module that loads numpy, for its eigensolvers.  The exact
walks (measures, convolution powers, return probabilities and inverted
orbits) live in the numpy-free ``walks``.

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
from .walks import StepMeasure, _free_rank, _is_uniform_srw, srw_measure
# benchmarks/tracer.py and benchmarks/workloads.py look it up here
from .walks import return_sequence  # noqa: F401

_POWER_ITERATION_CAP = 200_000
_POWER_ITERATION_TOL = 1e-10


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


def _top_eigenvalue(rows, size: int) -> float:
    """Largest eigenvalue of the (symmetric) truncated transition matrix."""
    if size <= _DENSE_EIG_CAP:
        matrix = np.zeros((size, size))
        for i, row in enumerate(rows):
            for j, w in row:
                matrix[i, j] += w
        return float(np.linalg.eigvalsh(matrix)[-1])
    return _power_iteration(rows, size)


def _power_iteration(rows, size: int) -> float:
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
        if abs(rayleigh - previous) < _POWER_ITERATION_TOL:
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
                  radius: Optional[int] = None) -> float:
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
    return _top_eigenvalue(rows, len(vertices))
