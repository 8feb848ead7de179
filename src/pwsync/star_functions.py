"""Star function associated to a graph, and its bipartition-based negativity test.

On the zero-sum subspace S = {e : sum_i e_i = 0} the function

    phi(e) = a1 * ||e||_1 - a2 * ||B^T e||_1

(B the incidence matrix) is piecewise linear on polyhedral cones, and its
global sign on S is decided by its sign on bipartition-shaped vectors: phi is
nonpositive on all of S exactly when, for every bipartition with cluster sizes
N1, N2 and crossing-edge count b,

    a2 >= 2 a1 N1 N2 / ((N1 + N2) b).

Maximising that bound over bipartitions ties the star function to the minimum
density: the critical ratio a2/a1 equals 1/delta. This module provides the
pieces as numerical oracles on `Cut`, the one cut type that delta also
returns: evaluation, the two-level generator of a cut, the critical a2 per
cut, enumeration of the cuts with connected sides, and randomized global
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import Graph, _induces_connected, is_connected
from .min_density import Cut

__all__ = [
    "StarFunctionParams",
    "phi",
    "bipartition_generator",
    "min_a2_for_bipartition",
    "enumerate_bipartitions",
    "SeminegativityCheck",
    "check_global_seminegativity",
]

ZERO_SUM_TOLERANCE = 1e-12
SEMINEGATIVITY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class StarFunctionParams:
    """Weights and graph defining phi. The theory needs a1, a2 > 0; the
    numerical oracle also admits the a1 = 0 or a2 = 0 boundaries."""

    a1: float
    a2: float
    graph: Graph

    def __post_init__(self) -> None:
        if self.a1 < 0 or self.a2 < 0:
            raise ValueError("weights a1, a2 must be nonnegative")


def phi(params: StarFunctionParams, e) -> float:
    """Evaluate phi at a zero-sum vector."""
    e = np.asarray(e, dtype=np.float64).reshape(-1)
    g = params.graph
    if e.shape != (g.n_vertices,):
        raise ValueError(f"vector must have length {g.n_vertices}, got {e.shape}")
    if abs(float(e.sum())) > ZERO_SUM_TOLERANCE:
        raise ValueError(f"vector components must sum to zero, got sum {e.sum():.3e}")
    eu, ev = g.edge_array()
    return float(params.a1 * np.abs(e).sum() - params.a2 * np.abs(e[eu] - e[ev]).sum())


def bipartition_generator(cut: Cut) -> np.ndarray:
    """Unit-norm zero-sum vector that is constant on each side of the cut.

    Takes the value eps1 > 0 on V1 and -(N1/N2) * eps1 on V2, the unique
    shape (up to scale) of a two-level zero-sum vector.
    """
    n1, n2 = cut.n1, cut.n2
    eps1 = np.sqrt(n2 / (n1 * (n1 + n2)))  # makes the vector unit 2-norm
    return np.where(cut.side_assignment, eps1, -(n1 / n2) * eps1)


def min_a2_for_bipartition(a1: float, cut: Cut) -> float:
    """Smallest a2 making phi nonpositive on this cut's generators:
    2 a1 N1 N2 / ((N1 + N2) b)."""
    if cut.crossing_edges == 0:
        raise ValueError("cut has no crossing edges (disconnected cut)")
    return 2.0 * a1 * cut.n1 * cut.n2 / ((cut.n1 + cut.n2) * cut.crossing_edges)


def enumerate_bipartitions(g: Graph):
    """All cuts whose sides both induce connected subgraphs.

    Exponential in N; intended for the small graphs used by oracles and tests.
    Cuts come by increasing N1, and within one N1 in lexicographic order of
    V1 (which always holds vertex 0); the sides of one N1 are tested as a batch.
    """
    n = g.n_vertices
    for r in range(n - 1):
        v1 = np.array([(0, *rest) for rest in combinations(range(1, n), r)], dtype=np.intp)
        sides = np.zeros((len(v1), n), dtype=bool)
        sides[np.arange(len(v1))[:, None], v1] = True
        for side in sides[_induces_connected(g, sides) & _induces_connected(g, ~sides)]:
            yield Cut.of(g, side)


@dataclass(frozen=True)
class SeminegativityCheck:
    passed: bool
    n_checked: int
    max_phi: float
    violation: np.ndarray | None = None


def check_global_seminegativity(
    params: StarFunctionParams,
    n_samples: int = 100_000,
    seed: int | None = 0,
) -> SeminegativityCheck:
    """Sample zero-sum vectors and look for a positive phi value.

    Gaussian samples projected onto S. Returns the first vector with
    phi above tolerance, if any; a pass is sampling evidence only, though the
    bipartition theory guarantees no violation exists when a2 is at or above
    the critical ratio.
    """
    g = params.graph
    if not is_connected(g):
        raise ValueError("seminegativity oracle needs a connected graph")
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n_samples, g.n_vertices))
    e -= e.mean(axis=1, keepdims=True)
    eu, ev = g.edge_array()
    edge_l1 = np.abs(e[:, eu] - e[:, ev]).sum(axis=1)
    values = params.a1 * np.abs(e).sum(axis=1) - params.a2 * edge_l1
    worst = float(values.max())
    if worst <= SEMINEGATIVITY_TOLERANCE:
        return SeminegativityCheck(True, n_samples, worst)
    first = int(np.argmax(values > SEMINEGATIVITY_TOLERANCE))
    return SeminegativityCheck(False, n_samples, worst, e[first].copy())
