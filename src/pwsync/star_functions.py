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
pieces as numerical oracles: evaluation, bipartition generators, the critical
a2 per bipartition, enumeration, and randomized global sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import Graph, is_connected
from .min_density import Cut

__all__ = [
    "StarFunctionParams",
    "Bipartition",
    "phi",
    "bipartition_generator",
    "min_a2_for_bipartition",
    "crossing_edge_count",
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


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint nonempty clusters covering 0..N-1."""

    cluster1: tuple[int, ...]
    cluster2: tuple[int, ...]

    def __post_init__(self) -> None:
        c1 = tuple(sorted(int(i) for i in self.cluster1))
        c2 = tuple(sorted(int(i) for i in self.cluster2))
        if not c1 or not c2:
            raise ValueError("both clusters must be nonempty")
        n = len(c1) + len(c2)
        if set(c1) & set(c2) or set(c1) | set(c2) != set(range(n)):
            raise ValueError("clusters must be disjoint and cover 0..N-1")
        object.__setattr__(self, "cluster1", c1)
        object.__setattr__(self, "cluster2", c2)

    @property
    def n_vertices(self) -> int:
        return len(self.cluster1) + len(self.cluster2)

    @classmethod
    def from_cut(cls, cut: Cut) -> "Bipartition":
        return cls(tuple(cut.side1()), tuple(cut.side2()))


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


def bipartition_generator(b: Bipartition) -> np.ndarray:
    """Unit-norm zero-sum vector that is constant on each cluster.

    Takes the value eps1 > 0 on cluster1 and -(N1/N2) * eps1 on cluster2, the
    unique shape (up to scale) of a two-level zero-sum vector.
    """
    n1, n2 = len(b.cluster1), len(b.cluster2)
    n = b.n_vertices
    eps1 = np.sqrt(n2 / (n1 * n))  # makes the vector unit 2-norm
    e = np.empty(n)
    e[list(b.cluster1)] = eps1
    e[list(b.cluster2)] = -(n1 / n2) * eps1
    return e


def crossing_edge_count(g: Graph, b: Bipartition) -> int:
    if b.n_vertices != g.n_vertices:
        raise ValueError("bipartition and graph sizes differ")
    side1 = set(b.cluster1)
    return sum(1 for u, v in g.edges if (u in side1) != (v in side1))


def min_a2_for_bipartition(a1: float, b: Bipartition, g: Graph) -> float:
    """Smallest a2 making phi nonpositive on this bipartition's generators:
    2 a1 N1 N2 / ((N1 + N2) b_cross)."""
    b_cross = crossing_edge_count(g, b)
    if b_cross == 0:
        raise ValueError("bipartition has no crossing edges (disconnected cut)")
    n1, n2 = len(b.cluster1), len(b.cluster2)
    return 2.0 * a1 * n1 * n2 / ((n1 + n2) * b_cross)


def _induces_connected(g: Graph, cluster: tuple[int, ...]) -> bool:
    members = set(cluster)
    seen = {cluster[0]}
    stack = [cluster[0]]
    adj = g.neighbour_lists()
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(members)


def enumerate_bipartitions(g: Graph):
    """All bipartitions whose clusters both induce connected subgraphs.

    Exponential in N; intended for the small graphs used by oracles and tests.
    Cluster1 is the side containing vertex 0.
    """
    n = g.n_vertices
    vertices = list(range(1, n))
    for r in range(0, n - 1):
        for rest in combinations(vertices, r):
            c1 = (0, *rest)
            c2 = tuple(v for v in vertices if v not in rest)
            if not c2:
                continue
            if _induces_connected(g, c1) and _induces_connected(g, c2):
                yield Bipartition(c1, c2)


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
