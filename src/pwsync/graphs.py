"""Undirected unweighted graphs: matrices, connectivity, and topology generators.

Graphs are always simple (no self-loops, no parallel edges) and vertices are
0-indexed. Edges are kept sorted lexicographically so that derived objects
(endpoint arrays, incidence matrix columns, generated files) are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "laplacian",
    "incidence",
    "is_connected",
    "algebraic_connectivity",
    "complete_graph",
    "star_graph",
    "path_graph",
    "ring_graph",
    "nearest_neighbours_graph",
    "erdos_renyi_graph",
    "generate_topology",
    "read_graph_file",
    "write_graph_file",
    "graph_to_text",
]

TOPOLOGY_KINDS = ("complete", "star", "path", "ring", "nearest_neighbours", "erdos_renyi")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n_vertices-1.

    Edges are stored as a lexicographically sorted tuple of (i, j) pairs with
    i < j; the constructor normalises and validates any iterable of pairs.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        n = self.n_vertices
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n_vertices={n}")
        normalised = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n_vertices={n}")
            normalised.append((u, v) if u < v else (v, u))
        if len(set(normalised)) != len(normalised):
            raise ValueError("duplicate edges are not allowed")
        object.__setattr__(self, "edges", tuple(sorted(normalised)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        uv = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T.copy()
        uv.setflags(write=False)
        return uv[0], uv[1]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint arrays (u_k, v_k) over the sorted edge list, built once."""
        return self._endpoints

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self.edge_array()), minlength=self.n_vertices)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (int64)."""
        u, v = self.edge_array()
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=np.int64)
        a[u, v] = 1
        a[v, u] = 1
        return a

    def neighbour_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as an integer matrix.

    Symmetric, zero row sums, positive semidefinite with smallest eigenvalue 0.
    """
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


def incidence(g: Graph) -> np.ndarray:
    """Signed vertex-edge incidence matrix B with B @ B.T == laplacian(g).

    Column k corresponds to the k-th edge in sorted order and carries +1 at the
    smaller endpoint and -1 at the larger one (fixed convention; any consistent
    sign choice yields the same B @ B.T).
    """
    u, v = g.edge_array()
    k = np.arange(g.n_edges)
    b = np.zeros((g.n_vertices, g.n_edges), dtype=np.int64)
    b[u, k] = 1
    b[v, k] = -1
    return b


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability check from vertex 0."""
    if g.n_vertices == 1:
        return True
    adj = g.neighbour_lists()
    seen = np.zeros(g.n_vertices, dtype=bool)
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n_vertices


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue (dense symmetric eigensolver).

    Positive iff the graph is connected (zero up to eigensolver noise when it
    is not).
    """
    if g.n_vertices < 2:
        raise ValueError("algebraic connectivity needs at least two vertices")
    w = np.linalg.eigvalsh(laplacian(g).astype(np.float64))
    return float(w[1])


# ----------------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------------


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"topology generators need n >= 2, got {n}")


def complete_graph(n: int) -> Graph:
    _check_n(n)
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n: int) -> Graph:
    """Star with vertex 0 as the hub."""
    _check_n(n)
    return Graph(n, tuple((0, i) for i in range(1, n)))


def path_graph(n: int) -> Graph:
    _check_n(n)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def ring_graph(n: int) -> Graph:
    _check_n(n)
    if n == 2:
        # A 2-ring would need a parallel edge; collapse to the single edge.
        return Graph(2, ((0, 1),))
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def nearest_neighbours_graph(n: int, l: int) -> Graph:
    """Circulant graph joining each vertex to its l nearest neighbours per side.

    Has exactly n*l edges, which requires 1 <= l <= floor((n-1)/2).
    """
    _check_n(n)
    if not (1 <= l <= (n - 1) // 2):
        raise ValueError(f"need 1 <= l <= floor((n-1)/2) = {(n - 1) // 2}, got l={l}")
    edges = tuple((i, (i + k) % n) for i in range(n) for k in range(1, l + 1))
    return Graph(n, edges)


def erdos_renyi_graph(n: int, p: float, seed: int | None = None, max_retries: int = 1000) -> Graph:
    """Connected G(n, p) sample.

    Each of the n(n-1)/2 vertex pairs is drawn independently with probability
    p; the whole draw is repeated until the result is connected. Raises
    RuntimeError once the retry budget is exhausted (p too small for n).
    """
    _check_n(n)
    if not (0.0 < p < 1.0):
        raise ValueError(f"edge probability must satisfy 0 < p < 1, got {p}")
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    for _ in range(max_retries):
        keep = rng.random(iu.size) < p
        g = Graph(n, tuple(zip(iu[keep].tolist(), iv[keep].tolist())))
        if is_connected(g):
            return g
    raise RuntimeError(
        f"no connected Erdos-Renyi draw with n={n}, p={p} in {max_retries} retries"
    )


def generate_topology(
    kind: str,
    n: int,
    *,
    l: int | None = None,
    p: float | None = None,
    seed: int | None = None,
) -> Graph:
    """Build one of the named topologies; see TOPOLOGY_KINDS."""
    if kind == "complete":
        return complete_graph(n)
    if kind == "star":
        return star_graph(n)
    if kind == "path":
        return path_graph(n)
    if kind == "ring":
        return ring_graph(n)
    if kind == "nearest_neighbours":
        if l is None:
            raise ValueError("nearest_neighbours topology needs parameter l")
        return nearest_neighbours_graph(n, l)
    if kind == "erdos_renyi":
        if p is None:
            raise ValueError("erdos_renyi topology needs parameter p")
        return erdos_renyi_graph(n, p, seed=seed)
    raise ValueError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}")


# ----------------------------------------------------------------------------
# Plain-text graph files: first line "N", then one "i j" edge per line, i < j.
# ----------------------------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    lines = [str(g.n_vertices)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_graph_file(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_text(g))


def read_graph_file(path) -> Graph:
    """Parse a graph file, rejecting self-loops, duplicates and bad ranges."""
    with open(path, "r", encoding="ascii") as fh:
        raw = [line.strip() for line in fh]
    lines = [line for line in raw if line]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}: first line must be the vertex count") from exc
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u >= v:
            raise ValueError(
                f"{path}:{lineno}: edge ({u},{v}) must satisfy i < j (no self-loops)"
            )
        if not (0 <= u and v < n):
            raise ValueError(f"{path}:{lineno}: edge ({u},{v}) out of range for N={n}")
        if (u, v) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, tuple(edges))
