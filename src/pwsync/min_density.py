"""Minimum density of a graph and sparsest-cut solvers.

The minimum density is

    delta = (N/2) * min over cuts of  b / (N1 * N2),

where a cut splits the vertices into nonempty sides of sizes N1, N2 and b
counts the crossing edges. It is computed exactly by enumerating all
2^(N-1) - 1 bipartitions (small N): the vertices split into two blocks of
about N/2, crossing counts inside each block are tabulated over its 2^(N/2)
assignments, and the edges joining the blocks cost one matrix product per
chunk of cuts, whatever the edge count. Otherwise it is approximated by a
size-constrained Kernighan-Lin local search run once per admissible size
split (1, N-1), (2, N-2), ..., (floor(N/2), ceil(N/2)), keeping the smallest
density found. Closed forms are available for the standard named topologies.

Cuts are canonicalised so that vertex 0 lies on side V1; ties between cuts of
equal density are broken by smallest N1, then by lexicographically smallest
side assignment, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, is_connected

__all__ = [
    "Cut",
    "MinDensityResult",
    "min_density_exact",
    "min_density_heuristic",
    "min_density_closed_form",
    "remove_edges",
    "EXACT_VERTEX_CAP",
]

# The 2^21 cuts of N = 22 take about ten array passes per chunk, whatever the
# edge count: 0.03-0.05 s on one thread of a 2-core Xeon (ring-22, ER(22, 0.3)).
EXACT_VERTEX_CAP = 22

_CHUNK = 1 << 18


@dataclass(frozen=True)
class Cut:
    """A bipartition of the vertex set; True marks side V1 (vertex 0 is in V1)."""

    side_assignment: tuple[bool, ...]
    n1: int
    n2: int
    crossing_edges: int

    def side1(self) -> list[int]:
        return [i for i, s in enumerate(self.side_assignment) if s]

    def side2(self) -> list[int]:
        return [i for i, s in enumerate(self.side_assignment) if not s]

    def density_times_half_n(self) -> float:
        n = self.n1 + self.n2
        return (n / 2.0) * self.crossing_edges / (self.n1 * self.n2)


@dataclass(frozen=True)
class MinDensityResult:
    delta: float
    sparsest_cut: Cut
    method: str  # "exact" | "heuristic" | "closed_form"


def _require_connected(g: Graph) -> None:
    # b = 0 cuts exist for disconnected graphs; delta would be 0 and the
    # downstream discontinuous gain infinite, so refuse instead.
    if not is_connected(g):
        raise ValueError("minimum density is only defined for connected graphs")


def _canonical_cut(g: Graph, side: np.ndarray) -> Cut:
    side = np.asarray(side, dtype=bool)
    if not side[0]:
        side = ~side
    eu, ev = g.edge_array()
    b = int(np.count_nonzero(side[eu] != side[ev]))
    n1 = int(side.sum())
    return Cut(tuple(bool(s) for s in side), n1, g.n_vertices - n1, b)


def _cut_sort_key(cut: Cut) -> tuple[Fraction, int, tuple[bool, ...]]:
    # Exact rational density, then the deterministic tie-breaks.
    return (
        Fraction(cut.crossing_edges, cut.n1 * cut.n2),
        cut.n1,
        cut.side_assignment,
    )


def _result_from_cut(cut: Cut, method: str) -> MinDensityResult:
    return MinDensityResult(cut.density_times_half_n(), cut, method)


# ----------------------------------------------------------------------------
# Exact enumeration
# ----------------------------------------------------------------------------


def min_density_exact(g: Graph, *, max_vertices: int = EXACT_VERTEX_CAP) -> MinDensityResult:
    """Global minimum density by enumerating every bipartition.

    Vertex 0 is pinned to side V1, so the masks 0 .. 2^(N-1)-2 over the
    remaining vertices (bit i-1 set puts vertex i on V1) enumerate each cut
    exactly once. Densities are compared as exact rationals when selecting
    the final cut.

    The mask bits split into a low block (vertex 0 and vertices 1..N//2) and
    a high block (the rest), so mask = lo + (hi << N//2). With x the 0/1 side
    indicator, an edge crosses iff x_u + x_v - 2 x_u x_v = 1: edges inside a
    block and the linear terms of the joining edges are per-block tables
    b_lo, b_hi, and the joining edges' bilinear terms over a chunk of high
    rows are one product s_hi @ J @ s_lo^T. Every entry is a small integer, so
    the float64 product is exact.
    """
    _require_connected(g)
    n = g.n_vertices
    if n > max_vertices:
        raise ValueError(
            f"exact enumeration capped at {max_vertices} vertices (got {n}); "
            "use min_density_heuristic"
        )
    if n < 2:
        raise ValueError("minimum density needs at least two vertices")
    n_lo = n // 2  # mask bits in the low block
    first_hi = n_lo + 1  # vertex of high-block column 0
    s_lo = np.hstack([np.ones((1 << n_lo, 1), dtype=np.int64), _bit_rows(n_lo)])
    s_hi = _bit_rows(n - 1 - n_lo)
    b_lo = np.zeros(s_lo.shape[0], dtype=np.int64)
    b_hi = np.zeros(s_hi.shape[0], dtype=np.int64)
    joining = np.zeros((s_hi.shape[1], s_lo.shape[1]))  # J[high column, low vertex]
    for u, v in g.edges:  # u < v, so a joining edge has u low and v high
        if v < first_hi:
            b_lo += s_lo[:, u] ^ s_lo[:, v]
        elif u >= first_hi:
            b_hi += s_hi[:, u - first_hi] ^ s_hi[:, v - first_hi]
        else:
            b_lo += s_lo[:, u]
            b_hi += s_hi[:, v - first_hi]
            joining[v - first_hi, u] = 1.0
    twice_j_lo = 2.0 * (joining @ s_lo.T)
    s_hi_f = s_hi.astype(np.float64)
    n1_lo = s_lo.sum(axis=1)
    n1_hi = s_hi.sum(axis=1)

    n_rows = s_hi.shape[0]
    rows = max(1, _CHUNK >> n_lo)
    best_density = np.inf
    candidates: list[tuple[int, int, int]] = []  # (mask, b, n1): one per chunk at the minimum
    for r0 in range(0, n_rows, rows):
        r1 = min(r0 + rows, n_rows)
        cross = b_hi[r0:r1, None] + b_lo[None, :] - s_hi_f[r0:r1] @ twice_j_lo
        n1 = n1_hi[r0:r1, None] + n1_lo[None, :]
        denom = n1 * (n - n1)
        if r1 == n_rows:  # the all-V1 mask ends the last chunk and is no cut
            cross[-1, -1], denom[-1, -1] = np.inf, 1
        dens = cross / denom
        # Integer numerators/denominators are tiny, so equal rationals map to
        # the identical float and strict float comparisons are exact here.
        chunk_min = float(dens.min())
        if chunk_min > best_density:
            continue
        if chunk_min < best_density:
            best_density = chunk_min
            candidates = []
        tied = np.flatnonzero(dens == chunk_min)
        tied_n1 = n1.ravel()[tied]
        tied = tied[tied_n1 == tied_n1.min()]
        # Reversing the n-1 mask bits orders masks as their side tuples compare.
        i = int(tied[np.argmin(_bit_reversed(tied + (r0 << n_lo), n - 1))])
        candidates.append(((r0 << n_lo) + i, int(cross.flat[i]), int(n1.flat[i])))

    best = None
    best_key = None
    for mask, b, n1 in candidates:
        side = np.zeros(n, dtype=bool)
        side[0] = True
        for i in range(1, n):
            side[i] = bool((mask >> (i - 1)) & 1)
        cut = Cut(tuple(bool(s) for s in side), n1, n - n1, b)
        key = _cut_sort_key(cut)
        if best_key is None or key < best_key:
            best, best_key = cut, key
    assert best is not None
    return _result_from_cut(best, "exact")


def _bit_rows(n_bits: int) -> np.ndarray:
    """0/1 matrix whose row r holds the n_bits low bits of r, least significant first."""
    return (np.arange(1 << n_bits, dtype=np.int64)[:, None] >> np.arange(n_bits)) & 1


def _bit_reversed(masks: np.ndarray, n_bits: int) -> np.ndarray:
    rev = np.zeros_like(masks)
    for bit in range(n_bits):
        rev |= ((masks >> bit) & 1) << (n_bits - 1 - bit)
    return rev


# ----------------------------------------------------------------------------
# Size-constrained Kernighan-Lin heuristic
# ----------------------------------------------------------------------------


def _crossing_count(side: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> int:
    return int(np.count_nonzero(side[eu] != side[ev]))


def _swap_gain_matrix(adj: np.ndarray, side: np.ndarray, free1: np.ndarray, free2: np.ndarray) -> np.ndarray:
    """Crossing-count reduction for every (u in free1) x (v in free2) swap."""
    in1 = adj @ side  # neighbours on side V1, per vertex
    deg = adj.sum(axis=1)
    in2 = deg - in1
    d = np.where(side, in2 - in1, in1 - in2)  # external minus internal
    return d[free1][:, None] + d[free2][None, :] - 2 * adj[np.ix_(free1, free2)]


def _kl_refine(adj: np.ndarray, side: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> tuple[np.ndarray, int]:
    """Kernighan-Lin passes at fixed side sizes until no pass improves.

    Each pass greedily swaps (and locks) the best remaining pair even through
    zero or negative gains, then rolls back to the best prefix; this lets the
    search cross plateaus that defeat pure hill climbing.
    """
    side = side.copy()
    b = _crossing_count(side, eu, ev)
    n = side.shape[0]
    while True:
        locked = np.zeros(n, dtype=bool)
        moves: list[tuple[int, int]] = []
        gains: list[int] = []
        cumulative = 0
        work = side.copy()
        for _ in range(min(int(side.sum()), int(n - side.sum()))):
            free1 = np.nonzero(work & ~locked)[0]
            free2 = np.nonzero(~work & ~locked)[0]
            if free1.size == 0 or free2.size == 0:
                break
            gain = _swap_gain_matrix(adj, work, free1, free2)
            flat = int(np.argmax(gain))
            u = int(free1[flat // free2.size])
            v = int(free2[flat % free2.size])
            cumulative += int(gain.flat[flat])
            work[u], work[v] = False, True
            locked[u] = locked[v] = True
            moves.append((u, v))
            gains.append(cumulative)
        if not gains:
            break
        best_prefix = int(np.argmax(gains))
        if gains[best_prefix] <= 0:
            break
        for u, v in moves[: best_prefix + 1]:
            side[u], side[v] = False, True
        b -= gains[best_prefix]
    return side, b


def _bfs_grown_side(g: Graph, k: int, rng: np.random.Generator) -> np.ndarray:
    """Connected side of size k grown from a random root (random frontier order)."""
    adj = g.neighbour_lists()
    root = int(rng.integers(g.n_vertices))
    side = np.zeros(g.n_vertices, dtype=bool)
    side[root] = True
    frontier = list(adj[root])
    taken = 1
    while taken < k:
        frontier = [w for w in frontier if not side[w]]
        if not frontier:  # connected graph: only once the side covers everything
            break
        pick = frontier.pop(int(rng.integers(len(frontier))))
        side[pick] = True
        taken += 1
        frontier.extend(adj[pick])
    return side


def min_density_heuristic(g: Graph, seed: int | None = None, *, restarts: int = 16) -> MinDensityResult:
    """Upper bound on the minimum density via per-size-class local search.

    For every target split (k, N-k) the crossing count is minimised by
    Kernighan-Lin refinement from `restarts` starts (half grown as connected
    clusters, half uniform random); the best density over all size classes is
    returned. Deterministic for a fixed seed.
    """
    _require_connected(g)
    n = g.n_vertices
    if n < 2:
        raise ValueError("minimum density needs at least two vertices")
    rng = np.random.default_rng(seed)
    adj = g.adjacency()
    eu, ev = g.edge_array()

    best: Cut | None = None
    best_key = None
    for k in range(1, n // 2 + 1):
        for start in range(restarts):
            if start < (restarts + 1) // 2:
                side = _bfs_grown_side(g, k, rng)
                # Pad or trim to exactly k in the rare short-grow case.
                if int(side.sum()) != k:
                    side = _uniform_side(n, k, rng)
            else:
                side = _uniform_side(n, k, rng)
            side, _ = _kl_refine(adj, side, eu, ev)
            cut = _canonical_cut(g, side)
            key = _cut_sort_key(cut)
            if best_key is None or key < best_key:
                best, best_key = cut, key
    assert best is not None
    return _result_from_cut(best, "heuristic")


def _uniform_side(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    side = np.zeros(n, dtype=bool)
    side[rng.choice(n, size=k, replace=False)] = True
    return side


# ----------------------------------------------------------------------------
# Closed forms for the named topologies
# ----------------------------------------------------------------------------


def min_density_closed_form(kind: str, n: int, l: int | None = None) -> float:
    """Exact minimum density of a named topology (even/odd branches)."""
    if n < 2:
        raise ValueError(f"closed forms need n >= 2, got {n}")
    if kind == "complete":
        return n / 2.0
    if kind == "star":
        return n / (2.0 * (n - 1))
    if kind == "path":
        return 2.0 / n if n % 2 == 0 else 2.0 * n / (n * n - 1)
    if kind == "ring":
        return 4.0 / n if n % 2 == 0 else 4.0 * n / (n * n - 1)
    if kind == "nearest_neighbours":
        if l is None:
            raise ValueError("nearest_neighbours closed form needs parameter l")
        if not (1 <= l <= (n - 1) // 2):
            raise ValueError(f"need 1 <= l <= floor((n-1)/2) = {(n - 1) // 2}, got l={l}")
        s = sum(l - k for k in range(l))  # = l(l+1)/2
        return 4.0 * s / n if n % 2 == 0 else 4.0 * n * s / (n * n - 1)
    raise ValueError(f"no closed-form minimum density for topology kind {kind!r}")


# ----------------------------------------------------------------------------
# Edge removal (resilience scenarios)
# ----------------------------------------------------------------------------


def remove_edges(g: Graph, edges_to_remove) -> Graph:
    """New graph without the listed edges; connectivity is the caller's concern."""
    to_drop = set()
    present = set(g.edges)
    for u, v in edges_to_remove:
        e = (u, v) if u < v else (v, u)
        if e not in present:
            raise ValueError(f"edge {e} is not present in the graph")
        to_drop.add(e)
    return Graph(g.n_vertices, tuple(e for e in g.edges if e not in to_drop))
