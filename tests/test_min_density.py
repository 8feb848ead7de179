from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

import pwsync as ps
from conftest import random_connected_graph
from pwsync import min_density

TABLE_CASES = [("complete", None), ("star", None), ("path", None), ("ring", None),
               ("nearest_neighbours", 1), ("nearest_neighbours", 2)]


# ----------------------------------------------------------------------------
# Exact solver
# ----------------------------------------------------------------------------


def test_single_edge_has_density_one():
    result = ps.min_density_exact(ps.Graph(2, ((0, 1),)))
    assert result.delta == 1.0
    assert result.sparsest_cut.crossing_edges == 1
    assert result.method == "exact"


def test_complete_four_vertices():
    assert ps.min_density_exact(ps.complete_graph(4)).delta == pytest.approx(2.0, abs=1e-12)


def test_path4_middle_cut():
    result = ps.min_density_exact(ps.path_graph(4))
    assert result.delta == pytest.approx(0.5, abs=1e-12)
    cut = result.sparsest_cut
    assert cut.crossing_edges == 1
    assert {tuple(cut.side1()), tuple(cut.side2())} == {(0, 1), (2, 3)}


def test_delta_recomputable_from_cut():
    g = ps.erdos_renyi_graph(9, 0.4, seed=8)
    result = ps.min_density_exact(g)
    assert result.delta == result.sparsest_cut.density_times_half_n()


def test_tie_break_complete_graph_prefers_smallest_side():
    # Every cut of a complete graph has the same density; K20 has 524 287.
    for n in (6, 20):
        cut = ps.min_density_exact(ps.complete_graph(n)).sparsest_cut
        assert cut.n1 == 1 and cut.side1() == [0]


def test_tie_break_ring4_lexicographic():
    # Both adjacent-pair cuts are optimal; {0,3}/{1,2} has the smaller
    # side_assignment tuple because False < True at vertex 1.
    cut = ps.min_density_exact(ps.ring_graph(4)).sparsest_cut
    assert cut.side_assignment == (True, False, False, True)


def test_tie_break_smaller_side_before_lexicographic():
    # K_{2,3} on {0,1} | {2,3,4} plus edge (3,4): {0,2} | {1,3,4} and
    # {0,3,4} | {1,2} both cut 3 edges at density 3/6; the second has the
    # smaller side_assignment tuple but the larger N1.
    g = ps.Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4)))
    cut = ps.min_density_exact(g).sparsest_cut
    assert cut.side_assignment == (True, False, True, False, False)


def test_disconnected_graph_is_an_error():
    with pytest.raises(ValueError, match="connected"):
        ps.min_density_exact(ps.Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(ValueError, match="connected"):
        ps.min_density_heuristic(ps.Graph(4, ((0, 1), (2, 3))))


def test_exact_cap_is_enforced():
    with pytest.raises(ValueError, match="capped"):
        ps.min_density_exact(ps.ring_graph(23))
    assert ps.min_density_exact(ps.ring_graph(23), max_vertices=23).delta == pytest.approx(
        4 * 23 / (23**2 - 1), abs=1e-12
    )


def brute_force_cut(g: ps.Graph) -> ps.Cut:
    """Canonical sparsest cut by itertools: least (density, n1, side tuple), vertex 0 in V1."""
    n = g.n_vertices
    best_key, best = None, None
    for rest in itertools.product((False, True), repeat=n - 1):
        side = (True,) + rest
        n1 = sum(side)
        if n1 == n:
            continue
        b = sum(side[u] != side[v] for u, v in g.edges)
        key = (Fraction(b, n1 * (n - n1)), n1, side)
        if best_key is None or key < best_key:
            best_key, best = key, ps.Cut(side, n1, n - n1, b)
    return best


def oracle_corpus():
    """Tie-heavy families and ER graphs, N = 2..12."""
    for n in range(2, 13):
        yield f"K{n}", ps.complete_graph(n)
        a = n // 2
        yield f"K{a},{n - a}", ps.Graph(n, [(i, j) for i in range(a) for j in range(a, n)])
        yield f"star{n}-centre-last", ps.Graph(n, [(i, n - 1) for i in range(n - 1)])
        if n >= 3:
            yield f"ring{n}", ps.ring_graph(n)
        for l in (2, 3):
            if l <= (n - 1) // 2:
                yield f"C{n}({l})", ps.nearest_neighbours_graph(n, l)
        if n >= 4:
            for seed in range(2):
                yield f"ER({n},0.4,{seed})", ps.erdos_renyi_graph(n, 0.4, seed=seed)


def assert_matches_brute_force(g: ps.Graph) -> None:
    result = ps.min_density_exact(g)
    cut = brute_force_cut(g)
    n = g.n_vertices
    assert result.sparsest_cut == cut
    assert result.delta.hex() == ((n / 2.0) * cut.crossing_edges / (cut.n1 * cut.n2)).hex()
    assert result.method == "exact"


@pytest.mark.parametrize("chunk", [None, 1 << 4], ids=["default-chunk", "chunk16"])
def test_exact_matches_brute_force_cut(chunk, monkeypatch):
    # A 16-entry chunk splits every N >= 6 enumeration, so ties across chunks
    # go through the final tie-break.
    if chunk is not None:
        monkeypatch.setattr(min_density, "_CHUNK", chunk)
    for name, g in oracle_corpus():
        try:
            assert_matches_brute_force(g)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc


@pytest.mark.parametrize("chunk", [None, 1 << 4], ids=["default-chunk", "chunk16"])
def test_exact_matches_brute_force_on_random_graphs(chunk, monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    if chunk is not None:
        monkeypatch.setattr(min_density, "_CHUNK", chunk)

    @st.composite
    def connected_graphs(draw):
        # A random spanning tree keeps the graph connected; extra edges add cycles.
        n = draw(st.integers(2, 10))
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = list(itertools.combinations(range(n), 2))
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
        return ps.Graph(n, sorted(edges))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(connected_graphs())
    def check(g):
        assert_matches_brute_force(g)

    check()


# Recorded from the enumeration that kept per-chunk float64 densities, before
# the float32 product and per-size-class minima. The first three have many
# tied cuts, so they go through the re-scan; K22 has the most edges possible
# at the cap and so the largest float32 sums. Columns: delta hex, side V2,
# N1, N2, crossing edges.
EXACT_GOLDEN = [
    ("ring22", ps.ring_graph(22), "0x1.745d1745d1746p-3", list(range(1, 12)), 11, 11, 2),
    ("path21", ps.path_graph(21), "0x1.86fb586fb5870p-4", list(range(10, 21)), 10, 11, 1),
    ("C20(2)", ps.nearest_neighbours_graph(20, 2), "0x1.3333333333333p-1", list(range(1, 11)), 10, 10, 6),
    ("ER(20,0.3,1)", ps.erdos_renyi_graph(20, 0.3, seed=1), "0x1.0d79435e50d79p-1", [13], 19, 1, 1),
    ("ER(21,0.25,2)", ps.erdos_renyi_graph(21, 0.25, seed=2), "0x1.0cccccccccccdp+0", [16], 20, 1, 2),
    ("ER(22,0.3,3)", ps.erdos_renyi_graph(22, 0.3, seed=3), "0x1.a666666666666p-1", [6, 11], 20, 2, 3),
    ("star22", ps.star_graph(22), "0x1.0c30c30c30c31p-1", [1], 21, 1, 1),
    ("K22", ps.complete_graph(22), "0x1.6000000000000p+3", list(range(1, 22)), 1, 21, 21),
]


@pytest.mark.parametrize("chunk", [None, 1 << 4], ids=["default-chunk", "chunk16"])
@pytest.mark.parametrize("g,delta_hex,side2,n1,n2,b", [c[1:] for c in EXACT_GOLDEN],
                         ids=[c[0] for c in EXACT_GOLDEN])
def test_exact_golden_results(g, delta_hex, side2, n1, n2, b, chunk, monkeypatch):
    # A 16-entry chunk is one high row at these N, so chunks split every
    # popcount class of the high block.
    if chunk is not None:
        monkeypatch.setattr(min_density, "_CHUNK", chunk)
    result = ps.min_density_exact(g)
    assert result.delta.hex() == delta_hex
    assert result == ps.MinDensityResult(
        float.fromhex(delta_hex), ps.Cut(_side(g.n_vertices, side2), n1, n2, b), "exact")


# ----------------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------------


def test_closed_form_values():
    assert ps.min_density_closed_form("ring", 7) == pytest.approx(4 * 7 / 48, abs=1e-15)
    assert ps.min_density_closed_form("nearest_neighbours", 10, l=2) == pytest.approx(1.2, abs=1e-15)
    assert ps.min_density_closed_form("complete", 30) == pytest.approx(15.0, abs=1e-15)
    assert ps.min_density_closed_form("star", 30) == pytest.approx(30 / 58, abs=1e-15)
    assert ps.min_density_closed_form("path", 4) == pytest.approx(0.5, abs=1e-15)


def test_closed_form_unsupported_kind():
    with pytest.raises(ValueError, match="closed-form"):
        ps.min_density_closed_form("erdos_renyi", 10)


@pytest.mark.parametrize("kind,l", TABLE_CASES)
@pytest.mark.parametrize("n", range(3, 13))
def test_exact_matches_closed_form(kind, l, n):
    if kind == "nearest_neighbours" and (l is None or l > (n - 1) // 2):
        pytest.skip("l out of range for this n")
    g = ps.generate_topology(kind, n, l=l)
    expected = ps.min_density_closed_form(kind, n, l=l)
    assert ps.min_density_exact(g).delta == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------------------
# Heuristic
# ----------------------------------------------------------------------------


def test_heuristic_is_upper_bound_and_usually_tight():
    equal = 0
    trials = 20
    for s in range(trials):
        g = ps.erdos_renyi_graph(12, 0.3, seed=s)
        exact = ps.min_density_exact(g).delta
        heur = ps.min_density_heuristic(g, seed=s).delta
        assert heur >= exact - 1e-12
        if abs(heur - exact) <= 1e-12:
            equal += 1
    assert equal >= 0.9 * trials


def test_heuristic_ring30():
    result = ps.min_density_heuristic(ps.ring_graph(30), seed=0)
    assert result.delta == pytest.approx(4 / 30, abs=1e-12)
    assert result.method == "heuristic"


def test_heuristic_star30():
    assert ps.min_density_heuristic(ps.star_graph(30), seed=0).delta == pytest.approx(
        30 / 58, abs=1e-12
    )


def test_heuristic_is_deterministic_per_seed():
    g = ps.erdos_renyi_graph(18, 0.25, seed=5)
    r1 = ps.min_density_heuristic(g, seed=9)
    r2 = ps.min_density_heuristic(g, seed=9)
    assert r1.delta == r2.delta
    assert r1.sparsest_cut == r2.sparsest_cut


def _side(n: int, side2: list[int]) -> tuple[bool, ...]:
    return tuple(v not in side2 for v in range(n))


# Recorded from the single-start refinement loop that preceded the batched
# one; any change to the RNG stream or to a tie-break moves one of these.
HEURISTIC_GOLDEN = [
    ("flagship-ER30", ps.erdos_renyi_graph(30, 0.2, seed=7), 7, "0x1.08d3dcb08d3ddp+0",
     ps.Cut(_side(30, [5]), 29, 1, 2)),
    ("ring30", ps.ring_graph(30), 0, "0x1.1111111111111p-3",
     ps.Cut(_side(30, list(range(1, 16))), 15, 15, 2)),
    ("star30", ps.star_graph(30), 0, "0x1.08d3dcb08d3ddp-1", ps.Cut(_side(30, [1]), 29, 1, 1)),
    ("ER40", ps.erdos_renyi_graph(40, 0.15, seed=2), 5, "0x1.0690690690690p-1",
     ps.Cut(_side(40, [34]), 39, 1, 1)),
]


@pytest.mark.parametrize("g,seed,delta_hex,cut", [c[1:] for c in HEURISTIC_GOLDEN],
                         ids=[c[0] for c in HEURISTIC_GOLDEN])
def test_heuristic_golden_results(g, seed, delta_hex, cut):
    result = ps.min_density_heuristic(g, seed=seed)
    assert result == ps.MinDensityResult(float.fromhex(delta_hex), cut, "heuristic")


_NEVER = np.iinfo(np.int64).min // 2


def _kl_refine_per_class(adj, sides):
    """The batched refinement that preceded the lockstep one: every row has the
    same side size k, and the (R, k - j, N) int64 gain tensor of swap j is
    rebuilt from the free V1 vertices of each row."""
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


def _heuristic_per_class(g, seed):
    """The heuristic as a loop over size classes, each refined on its own, whose
    cuts are compared by exact density, then N1, then side."""
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    adj = g.adjacency()
    nbrs = _neighbour_lists(g)
    restarts = min_density._RESTARTS

    def refined_cuts():
        for k in range(1, n // 2 + 1):
            starts = [min_density._bfs_grown_side(g, k, rng, nbrs) if start < restarts // 2
                      else min_density._uniform_side(n, k, rng) for start in range(restarts)]
            yield from (ps.Cut.of(g, side) for side in _kl_refine_per_class(adj, np.array(starts)))

    def key(cut):
        return Fraction(cut.crossing_edges, cut.n1 * cut.n2), cut.n1, cut.side_assignment

    best = min(refined_cuts(), key=key)
    return ps.MinDensityResult(best.density_times_half_n(), best, "heuristic")


@pytest.mark.parametrize(
    "g,seed",
    [(ps.complete_graph(24), 0), (ps.complete_graph(24), 11),
     (ps.ring_graph(24), 0), (ps.ring_graph(24), 11),
     (ps.star_graph(25), 0), (ps.star_graph(25), 11),
     (ps.nearest_neighbours_graph(70, 2), 2), (ps.erdos_renyi_graph(70, 0.1, seed=3), 2)],
    ids=["complete24-s0", "complete24-s11", "ring24-s0", "ring24-s11", "star25-s0", "star25-s11",
         "circulant70-grouped", "ER70-grouped"],
)
def test_heuristic_equals_per_class_loop(g, seed, monkeypatch):
    groups = []
    passes = min_density._kl_passes

    def counted_passes(adj2, sides):
        groups.append(len(sides))
        return passes(adj2, sides)

    monkeypatch.setattr(min_density, "_kl_passes", counted_passes)
    assert ps.min_density_heuristic(g, seed=seed) == _heuristic_per_class(g, seed)
    assert sum(groups) == min_density._RESTARTS * (g.n_vertices // 2)
    if g.n_vertices == 70:  # the budget splits the batch
        assert len(groups) >= 2


def _swap_gain_matrix(adj, side, free1, free2):
    """Crossing-count reduction for every (u in free1) x (v in free2) swap."""
    in1 = adj @ side  # neighbours on side V1, per vertex
    deg = adj.sum(axis=1)
    in2 = deg - in1
    d = np.where(side, in2 - in1, in1 - in2)  # external minus internal
    return d[free1][:, None] + d[free2][None, :] - 2 * adj[np.ix_(free1, free2)]


def _kl_refine_single(adj, side):
    """Reference: Kernighan-Lin passes on one start, the gain matrix rebuilt per swap."""
    side = side.copy()
    n = side.shape[0]
    while True:
        locked = np.zeros(n, dtype=bool)
        moves, gains = [], []
        cumulative = 0
        work = side.copy()
        for _ in range(min(int(side.sum()), int(n - side.sum()))):
            free1 = np.nonzero(work & ~locked)[0]
            free2 = np.nonzero(~work & ~locked)[0]
            gain = _swap_gain_matrix(adj, work, free1, free2)
            flat = int(np.argmax(gain))
            u = int(free1[flat // free2.size])
            v = int(free2[flat % free2.size])
            cumulative += int(gain.flat[flat])
            work[u], work[v] = False, True
            locked[u] = locked[v] = True
            moves.append((u, v))
            gains.append(cumulative)
        best_prefix = int(np.argmax(gains))
        if gains[best_prefix] <= 0:
            return side
        for u, v in moves[: best_prefix + 1]:
            side[u], side[v] = False, True


def _neighbour_lists(g):
    """Each vertex's neighbours in ascending order, built from the edge pairs."""
    nbrs = [[] for _ in range(g.n_vertices)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(row) for row in nbrs]


def test_batched_refinement_equals_single_start_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, 26))
        family = draw(st.sampled_from(["random", "ring", "path", "star", "complete", "circulant"]))
        if family == "circulant" and n >= 3:
            return ps.nearest_neighbours_graph(n, draw(st.integers(1, (n - 1) // 2)))
        if family in ("ring", "path", "star", "complete"):
            return ps.generate_topology(family, n)
        # A random spanning tree keeps the graph connected; extra edges add cycles.
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = list(itertools.combinations(range(n), 2))
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
        return ps.Graph(n, sorted(edges))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(graphs(), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def check(g, restarts, seed):
        rng = np.random.default_rng(seed)
        adj = g.adjacency()
        nbrs = _neighbour_lists(g)
        n = g.n_vertices
        # Every class's starts, drawn in the heuristic's order.
        starts = np.array([min_density._bfs_grown_side(g, k, rng, nbrs) if r < restarts // 2 else
                           min_density._uniform_side(n, k, rng)
                           for k in range(1, n // 2 + 1) for r in range(restarts)])
        want = np.array([_kl_refine_single(adj, start) for start in starts])
        per_class = np.vstack([min_density._kl_refine(adj, starts[i:i + restarts])
                               for i in range(0, len(starts), restarts)])
        mixed = min_density._kl_refine(adj, starts)
        # A budget of about three widest rows splits the mixed batch into many groups.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(min_density, "_GAIN_BUDGET", 3 * (n // 2) * (n + 1))
            grouped = min_density._kl_refine(adj, starts)
        for name, got in (("per class", per_class), ("mixed", mixed), ("grouped", grouped)):
            bad = np.flatnonzero((got != want).any(axis=1))
            assert bad.size == 0, (name, np.count_nonzero(starts[bad[:1]]), np.flatnonzero(starts[bad[:1]]))

    check()


@pytest.mark.parametrize(
    "g",
    [ps.ring_graph(11), ps.path_graph(10), ps.star_graph(9),
     ps.erdos_renyi_graph(12, 0.25, seed=1), ps.erdos_renyi_graph(15, 0.15, seed=4)],
    ids=["ring11", "path10", "star9", "ER12", "ER15"],
)
def test_bfs_grown_side_is_connected_with_exactly_k_vertices(g):
    rng = np.random.default_rng(0)
    nbrs = _neighbour_lists(g)
    for k in range(1, g.n_vertices // 2 + 1):
        for _ in range(8):
            side = min_density._bfs_grown_side(g, k, rng, nbrs)
            assert side.dtype == bool and int(side.sum()) == k
            inside = [(u, v) for u, v in g.edges if side[u] and side[v]]
            label = {int(v): i for i, v in enumerate(np.flatnonzero(side))}
            induced = ps.Graph(k, [(label[u], label[v]) for u, v in inside])
            assert ps.is_connected(induced), (k, np.flatnonzero(side))


# ----------------------------------------------------------------------------
# Structural properties
# ----------------------------------------------------------------------------


def test_delta_at_most_half_n_with_equality_only_for_complete():
    rng = np.random.default_rng(1)
    for n in range(3, 9):
        assert ps.min_density_exact(ps.complete_graph(n)).delta == pytest.approx(n / 2, abs=1e-12)
        # any connected non-complete graph stays strictly below N/2
        for _ in range(5):
            g = ps.erdos_renyi_graph(n, 0.6, seed=int(rng.integers(10**9)))
            if g.n_edges == n * (n - 1) // 2:
                continue
            assert ps.min_density_exact(g).delta < n / 2 - 1e-12


def test_removing_an_edge_never_increases_delta():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 15:
        g = random_connected_graph(rng, 5, 10)
        base = ps.min_density_exact(g).delta
        edge = g.edges[int(rng.integers(g.n_edges))]
        smaller = ps.remove_edges(g, [edge])
        if not ps.is_connected(smaller):
            continue
        assert ps.min_density_exact(smaller).delta <= base + 1e-12
        checked += 1


# ----------------------------------------------------------------------------
# remove_edges
# ----------------------------------------------------------------------------


def test_remove_zero_edges_is_identity():
    g = ps.ring_graph(5)
    assert ps.remove_edges(g, []).edges == g.edges


def test_remove_missing_edge_errors():
    with pytest.raises(ValueError, match="not present"):
        ps.remove_edges(ps.path_graph(3), [(0, 2)])


def test_remove_hub_edges_disconnects_triangle():
    g = ps.remove_edges(ps.complete_graph(3), [(0, 1), (0, 2)])
    assert not ps.is_connected(g)


def test_ring_to_path_halves_delta():
    ring = ps.ring_graph(4)
    assert ps.min_density_exact(ring).delta == pytest.approx(1.0, abs=1e-12)
    path = ps.remove_edges(ring, [(0, 3)])
    assert ps.min_density_exact(path).delta == pytest.approx(0.5, abs=1e-12)
