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
approximated by a size-constrained Kernighan-Lin local search from several
starts of every admissible size split (1, N-1), (2, N-2), ...,
(floor(N/2), ceil(N/2)). The starts of all splits are refined as one
lockstep batch, in groups of rows whose swap-gain tensors stay within a fixed
element budget, and the refined cut of least density is picked by exact
integer comparisons. Closed forms are available for the standard named
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

# Most elements of one Kernighan-Lin gain tensor (rows x free V1 vertices x
# N + 1): the heuristic's starts are refined in groups of rows under it.
_GAIN_BUDGET = 1 << 20


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

    Row r marks k_r vertices True, and rows may differ in k. Each pass
    greedily swaps (and locks) the best remaining pair even through zero or
    negative gains, then rolls back to the best prefix; this lets the search
    cross plateaus that defeat pure hill climbing. A row leaves the batch once
    a pass cannot improve it.

    The rows run in lockstep (_kl_passes), in groups of consecutive rows in
    descending order of their swap counts min(k, N - k), each group as large
    as keeps its widest gain tensor within _GAIN_BUDGET elements. Every row is
    refined on its own, so the grouping does not change a result.
    """
    sides = sides.copy()
    n = sides.shape[1]
    k = np.count_nonzero(sides, axis=1)
    order = np.argsort(-np.minimum(k, n - k), kind="stable")
    # Real gains are at least -2N; an entry that carries the sentinel (about
    # half the dtype's minimum) is at most sentinel + N - 1, so 16 bits serve
    # while 3N < 2^14.
    dtype = np.int16 if 3 * n < -(np.iinfo(np.int16).min // 2) else np.int32
    # Twice the adjacency, plus an isolated dummy vertex N that pads rows.
    adj2 = np.zeros((n + 1, n + 1), dtype=dtype)
    adj2[:n, :n] = 2 * adj
    first, width = 0, 0
    for i, r in enumerate(order):
        width = max(width, k[r])
        if i > first and (i + 1 - first) * width * (n + 1) > _GAIN_BUDGET:
            sides[order[first:i]] = _kl_passes(adj2, sides[order[first:i]])
            first, width = i, k[r]
    sides[order[first:]] = _kl_passes(adj2, sides[order[first:]])
    return sides


def _kl_passes(adj2: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """_kl_refine on rows in descending order of their swap counts.

    `adj2` is twice the (N+1)-vertex adjacency of _kl_refine, in the gain
    dtype. A pass makes as many lockstep swap steps as its first row has
    swaps; a row whose swaps are done sits out the rest of the pass, so the
    live rows of a step are a prefix. After j swaps a row has k - j free
    vertices on V1. These, in ascending order and padded with the dummy vertex
    to the widest row, against all N+1 vertices, form one (live, width, N+1)
    gain tensor, in which pads, V1 and locked vertices and the dummy carry a
    sentinel below every real gain. Its flat argmax picks the least u, then
    the least v, among equal gains. The steps a row sits out gain 0, so its
    best prefix is the same as if it ran alone.
    """
    sides = sides.copy()
    n = sides.shape[1]
    never = np.iinfo(adj2.dtype).min // 2 + 1  # twice it, less 2, still fits the dtype
    degree = adj2.sum(axis=0) // 2
    adj2_float = adj2.astype(np.float32)  # exact, and a BLAS product
    active = np.arange(sides.shape[0])
    # Every step's gain tensor; no later pass has more rows or a wider row.
    buffer = np.empty(len(sides) * np.count_nonzero(sides, axis=1).max() * (n + 1), dtype=adj2.dtype)
    while active.size:
        free1 = np.zeros((active.size, n + 1), dtype=bool)
        free1[:, :n] = sides[active]
        free2 = ~free1
        free2[:, n] = False
        k = np.count_nonzero(free1, axis=1)
        n_swaps = np.minimum(k, n - k)
        live = np.count_nonzero(n_swaps[:, None] > np.arange(n_swaps[0]), axis=0)
        # Free V1 vertices of each row in ascending order, then the dummy.
        i1 = np.argsort(free2, axis=1, kind="stable")[:, :k.max()]
        i1[np.arange(i1.shape[1]) >= k[:, None]] = n
        # Crossing minus internal neighbours of each vertex while on V1 (the
        # negative while on V2); a free vertex has not moved.
        ext = (degree - free1 @ adj2_float).astype(adj2.dtype)
        ext[:, n] = never
        offsets = np.arange(active.size)[:, None] * (n + 1)  # of each row in ext's flat index
        moved_u = np.zeros((active.size, live.size), dtype=np.intp)
        moved_v = np.zeros_like(moved_u)
        step_gains = np.zeros(moved_u.shape, dtype=np.int64)
        rows = np.arange(active.size)
        cols = np.arange(i1.shape[1])
        for j, m in enumerate(live):
            row, i1 = rows[:m], i1[:m]
            # np.take gathers rows far faster than adj2[i1]; mode="clip" writes
            # straight into `out` (every index is valid).
            gain = np.take(adj2, i1, axis=0, out=buffer[:i1.size * (n + 1)].reshape(m, -1, n + 1),
                           mode="clip")
            np.subtract(np.take(ext, i1 + offsets[:m])[:, :, None], gain, out=gain)
            gain += np.where(free2[:m], -ext[:m], never)[:, None, :]
            gain = gain.reshape(m, -1)
            flat = np.argmax(gain, axis=1)
            j1, v = np.divmod(flat, n + 1)
            u = i1[row, j1]
            free2[row, v] = False
            ext[:m] += np.take(adj2, u, axis=0) - np.take(adj2, v, axis=0)
            moved_u[:m, j], moved_v[:m, j] = u, v
            step_gains[:m, j] = gain[row, flat]
            i1 = np.where(cols[:i1.shape[1] - 1] < j1[:, None], i1[:, :-1], i1[:, 1:])  # drop u
        gains = np.cumsum(step_gains, axis=1)
        best_prefix = np.argmax(gains, axis=1)
        improved = gains[rows, best_prefix] > 0
        r, j = np.nonzero((np.arange(live.size) <= best_prefix[:, None]) & improved[:, None])
        sides[active[r], moved_u[r, j]] = False
        sides[active[r], moved_v[r, j]] = True
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
    """Upper bound on the minimum density via size-constrained local search.

    For every target split (k, N-k), k = 1..N//2, _RESTARTS starts are drawn
    (half grown as connected clusters, half uniform random). All starts of
    all classes are then refined by Kernighan-Lin as one lockstep batch, in
    groups of rows whose gain tensors stay within _GAIN_BUDGET elements
    (_kl_refine). The refined cut of least density wins, ties broken by the
    least N1, then the lexicographically least side, as in the exact search;
    it is picked by integer array comparisons over all rows (_least_cut).
    Deterministic for a fixed seed.
    """
    _require_connected(g)
    n = g.n_vertices
    if n < 2:
        raise ValueError("minimum density needs at least two vertices")
    rng = np.random.default_rng(seed)
    adj = g.adjacency()
    nbrs = [np.flatnonzero(row).tolist() for row in adj]  # built once for every grown start
    # Refinement draws nothing, so drawing every start first keeps the stream.
    starts = np.array([_bfs_grown_side(g, k, rng, nbrs) if start < _RESTARTS // 2
                       else _uniform_side(n, k, rng)
                       for k in range(1, n // 2 + 1) for start in range(_RESTARTS)])
    return _result_from_cut(_least_cut(g, _kl_refine(adj, starts)), "heuristic")


def _least_cut(g: Graph, sides: np.ndarray) -> Cut:
    """The cut of least b / (N1 * N2) among the rows of `sides`, then of least
    N1, then with the lexicographically least side (vertex 0 on V1).

    The least b of each N1 class is compared exactly, by int64
    cross-multiplication of b / (N1 * N2) between every pair of classes.
    """
    n = sides.shape[1]
    eu, ev = g.edge_array()
    canon = sides ^ ~sides[:, :1]  # vertex 0 on V1
    b = np.count_nonzero(canon[:, eu] != canon[:, ev], axis=1)
    n1 = np.count_nonzero(canon, axis=1)
    least = np.full(n, g.n_edges + 1, dtype=np.int64)
    np.minimum.at(least, n1, b)
    classes = np.flatnonzero(least <= g.n_edges)  # ascending, so argmax below takes the least N1
    lb, pairs = least[classes], classes * (n - classes)
    wins = (lb[:, None] * pairs[None, :] <= lb[None, :] * pairs[:, None]).all(axis=1)
    k = classes[np.argmax(wins)]
    tied = np.flatnonzero((n1 == k) & (b == least[k]))
    return Cut.of(g, canon[tied[np.lexsort(canon[tied].T[::-1])[0]]])


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
