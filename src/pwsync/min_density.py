"""Minimum density of a graph and sparsest-cut solvers.

The minimum density is

    delta = (N/2) * min over cuts of  b / (N1 * N2),

where a cut splits the vertices into nonempty sides of sizes N1, N2 and b
counts the crossing edges. It is computed exactly by enumerating all
2^(N-1) - 1 bipartitions (small N): the vertices split into two blocks of
about N/2, crossing counts inside each block are tabulated over its 2^(N/2)
assignments, and with the edges joining the blocks they make one float32
matrix product per chunk of cuts, whatever the edge count, reduced at once
to the least crossing count per pair of block side sizes. Otherwise it is
approximated by a size-constrained Kernighan-Lin local search run once per
admissible size split (1, N-1), (2, N-2), ..., (floor(N/2), ceil(N/2)),
keeping the smallest density found; the restarts of a size class are refined
together as one batch. Closed forms are available for the standard named
topologies.

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

# The 2^21 cuts of N = 22 take two array passes per chunk, whatever the edge
# count: 6-10 ms on one thread of a 2-core Xeon (ER(22, 0.3), K22, ring-22),
# and ER(30, 0.2) at max_vertices=30 takes 1.3 s.
EXACT_VERTEX_CAP = 22

_CHUNK = 1 << 18

# Kernighan-Lin starts per size class in the heuristic: half grown, half uniform.
_RESTARTS = 16

# Kernighan-Lin swap gain standing in for a pair that may not swap: below every
# real gain (at least -2N - 2), and far enough from the int64 minimum to add to.
_NEVER = np.iinfo(np.int64).min // 2


def _crossing_count(side: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> int:
    return int(np.count_nonzero(side[eu] != side[ev]))


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

    @classmethod
    def of(cls, g: Graph, side) -> "Cut":
        """The cut of g whose side V1 is marked True by the length-N mask `side`.

        The sides are swapped when needed so that vertex 0 lies in V1.
        """
        side = np.asarray(side, dtype=bool)
        n = g.n_vertices
        if side.shape != (n,):
            raise ValueError(f"side mask must have length {n}, got shape {side.shape}")
        n1 = int(np.count_nonzero(side))
        if n1 in (0, n):
            raise ValueError("both sides of a cut must be nonempty")
        if not side[0]:
            side, n1 = ~side, n - n1
        eu, ev = g.edge_array()
        return cls(tuple(side.tolist()), n1, n - n1, _crossing_count(side, eu, ev))


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
    exactly once.

    The mask bits split into a low block (vertex 0 and vertices 1..N//2) and
    a high block (the rest), so mask = lo + (hi << N//2). With x the 0/1 side
    indicator, an edge crosses iff x_u + x_v - 2 x_u x_v = 1: edges inside a
    block and the linear terms of the joining edges are per-block tables
    b_lo, b_hi, and the joining edges' bilinear terms are s_hi @ J @ s_lo^T.
    So a chunk of high rows has its crossing counts in one float32 product
    [s_hi | b_hi | 1] @ [-2 J s_lo^T; 1; b_lo], exact because every entry and
    partial sum, in any order, is an integer below 3E < 2^24 in magnitude.

    Masks in popcount order make each (high class, low class) pair one block
    of the product, so a `minimum.reduceat` per axis gives its least b. A cut
    with N1 vertices on V1 lies in a block whose popcounts sum to N1, so these
    minima give the least b per N1, and the least b / (N1 * N2), an exact
    rational with ties to the smaller N1, is the minimum. Only the blocks
    holding that (N1, b) are computed again, for the lexicographically
    smallest side among their cuts with b crossing edges.
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
    n_hi = n - 1 - n_lo
    first_hi = n_lo + 1  # vertex of high-block column 0
    s_lo = np.hstack([np.ones((1 << n_lo, 1), dtype=np.int64), _bit_rows(n_lo)])
    s_hi = _bit_rows(n_hi)
    eu, ev = g.edge_array()  # u < v, so a joining edge has u low and v high
    low, high = ev < first_hi, eu >= first_hi
    ju, jv = eu[~low & ~high], ev[~low & ~high] - first_hi
    hu, hv = eu[high] - first_hi, ev[high] - first_hi
    b_lo = (s_lo[:, eu[low]] ^ s_lo[:, ev[low]]).sum(axis=1) + s_lo[:, ju].sum(axis=1)
    b_hi = (s_hi[:, hu] ^ s_hi[:, hv]).sum(axis=1) + s_hi[:, jv].sum(axis=1)
    joining = np.zeros((n_hi, n_lo + 1), dtype=np.int64)  # J[high column, low vertex]
    joining[jv, ju] = 1
    # Stable popcount orders (position -> mask), and where each class starts.
    lo_count, hi_count = s_lo.sum(axis=1), s_hi.sum(axis=1)
    lo_masks, hi_masks = np.argsort(lo_count, kind="stable"), np.argsort(hi_count, kind="stable")
    hi_class = hi_count[hi_masks]
    lo_starts = np.searchsorted(lo_count[lo_masks], np.arange(1, n_lo + 3))
    hi_starts = np.searchsorted(hi_class, np.arange(n_hi + 2))
    left = np.column_stack([s_hi, b_hi, np.ones(1 << n_hi)])[hi_masks].astype(np.float32)
    right = np.vstack([-2 * joining @ s_lo.T, np.ones(1 << n_lo), b_lo])[:, lo_masks].astype(np.float32)

    rows = max(1, _CHUNK >> n_lo)
    # Least crossing count of each block, indexed [hi popcount, lo popcount - 1].
    class_min = np.full((n_hi + 1, n_lo + 1), np.inf, dtype=np.float32)
    for r0 in range(0, 1 << n_hi, rows):
        r1 = min(r0 + rows, 1 << n_hi)
        c0, c1 = hi_class[r0], hi_class[r1 - 1] + 1
        row_min = np.minimum.reduceat(left[r0:r1] @ right, lo_starts[:-1], axis=1)
        block_min = np.minimum.reduceat(row_min, np.maximum(hi_starts[c0:c1], r0) - r0, axis=0)
        class_min[c0:c1] = np.minimum(class_min[c0:c1], block_min)
    class_min[n_hi, n_lo] = np.inf  # the all-V1 mask is no cut
    class_n1 = np.add.outer(np.arange(n_hi + 1), np.arange(1, n_lo + 2))
    least_b = {k: int(class_min[class_n1 == k].min()) for k in range(1, n)}
    n1 = min(least_b, key=lambda k: (Fraction(least_b[k], k * (n - k)), k))
    b = least_b[n1]

    # Reversing the n-1 mask bits orders masks as their side tuples compare.
    best = 1 << (n - 1)  # above every reversed mask
    for hc, lc in zip(*np.nonzero((class_n1 == n1) & (class_min == b))):
        for r0 in range(hi_starts[hc], hi_starts[hc + 1], rows):
            r1 = min(r0 + rows, hi_starts[hc + 1])
            r, c = np.nonzero(left[r0:r1] @ right[:, lo_starts[lc]:lo_starts[lc + 1]] == b)
            rev = _bit_reversed(lo_masks[lo_starts[lc] + c] + (hi_masks[r0 + r] << n_lo), n - 1)
            best = int(rev.min(initial=best))
    side = np.append(True, (best >> np.arange(n - 2, -1, -1)) & 1)  # reversed bit n-1-i is vertex i
    return _result_from_cut(Cut.of(g, side), "exact")


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


def _kl_refine(adj: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Kernighan-Lin passes at fixed side sizes on an (R, N) batch of starts.

    Every row marks the same number k of vertices True. Each pass greedily
    swaps (and locks) the best remaining pair even through zero or negative
    gains, then rolls back to the best prefix; this lets the search cross
    plateaus that defeat pure hill climbing. A row leaves the batch once a
    pass cannot improve it. The rows run in lockstep: every pass makes
    min(k, N - k) swaps, so after j swaps each row has k - j free vertices on
    V1, and the gains of swapping them with every vertex form one
    (R, k - j, N) tensor in which only the free V2 columns can win. Its flat
    argmax picks the least u, then the least v, among equal gains.
    """
    sides = sides.copy()
    adj2 = 2 * adj
    n = sides.shape[1]
    k = int(sides[0].sum())
    n_swaps = min(k, n - k)
    active = np.arange(sides.shape[0])
    while active.size:
        free1 = sides[active]
        free2 = ~free1
        row = np.arange(active.size)
        # Crossing minus internal neighbours of each vertex while on V1 (the
        # negative while on V2); a free vertex has not moved.
        ext = adj.sum(axis=1) - free1 @ adj2
        moved_u, moved_v, step_gains = [], [], []
        for _ in range(n_swaps):
            i1 = np.nonzero(free1)[1].reshape(active.size, -1)
            gain = (ext[row[:, None], i1][:, :, None] - adj2[i1]
                    + np.where(free2, -ext, _NEVER)[:, None, :]).reshape(active.size, -1)
            flat = np.argmax(gain, axis=1)
            j1, v = np.divmod(flat, n)
            u = i1[row, j1]
            free1[row, u] = free2[row, v] = False
            ext += adj2[u] - adj2[v]
            moved_u.append(u)
            moved_v.append(v)
            step_gains.append(gain[row, flat])
        gains = np.cumsum(np.column_stack(step_gains), axis=1)
        best_prefix = np.argmax(gains, axis=1)
        improved = gains[row, best_prefix] > 0
        r, j = np.nonzero((np.arange(n_swaps) <= best_prefix[:, None]) & improved[:, None])
        sides[active[r], np.column_stack(moved_u)[r, j]] = False
        sides[active[r], np.column_stack(moved_v)[r, j]] = True
        active = active[improved]
    return sides


def _bfs_grown_side(g: Graph, k: int, rng: np.random.Generator, adj: list[list[int]]) -> np.ndarray:
    """Connected side of size k grown from a random root (random frontier order).

    g must be connected and k < N, so the frontier never empties before k
    vertices are taken. `adj` lists each vertex's neighbours of g in
    ascending order, which is also their edge order.
    """
    root = int(rng.integers(g.n_vertices))
    side = np.zeros(g.n_vertices, dtype=bool)
    side[root] = True
    frontier = list(adj[root])
    taken = 1
    while taken < k:
        frontier = [w for w in frontier if not side[w]]
        pick = frontier.pop(int(rng.integers(len(frontier))))
        side[pick] = True
        taken += 1
        frontier.extend(adj[pick])
    return side


def min_density_heuristic(g: Graph, seed: int | None = None) -> MinDensityResult:
    """Upper bound on the minimum density via per-size-class local search.

    For every target split (k, N-k) the crossing count is minimised by
    Kernighan-Lin refinement from _RESTARTS starts (half grown as connected
    clusters, half uniform random), refined as one batch; the best density
    over all size classes is returned. Deterministic for a fixed seed.
    """
    _require_connected(g)
    n = g.n_vertices
    if n < 2:
        raise ValueError("minimum density needs at least two vertices")
    rng = np.random.default_rng(seed)
    adj = g.adjacency()
    nbrs = [np.flatnonzero(row).tolist() for row in adj]  # built once for every grown start

    def refined_cuts():
        for k in range(1, n // 2 + 1):
            # Refinement draws nothing, so drawing every start first keeps the stream.
            starts = [_bfs_grown_side(g, k, rng, nbrs) if start < _RESTARTS // 2
                      else _uniform_side(n, k, rng) for start in range(_RESTARTS)]
            yield from (Cut.of(g, side) for side in _kl_refine(adj, np.array(starts)))

    return _result_from_cut(min(refined_cuts(), key=_cut_sort_key), "heuristic")


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
    eu, ev = g.edge_array()
    keep = np.ones(g.n_edges, dtype=bool)
    for u, v in edges_to_remove:
        e = (u, v) if u < v else (v, u)
        hit = (eu == e[0]) & (ev == e[1])
        if not hit.any():
            raise ValueError(f"edge {e} is not present in the graph")
        keep &= ~hit
    return Graph._of_sorted(g.n_vertices, eu[keep], ev[keep])
