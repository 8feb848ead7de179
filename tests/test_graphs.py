from __future__ import annotations

import numpy as np
import pytest

import pwsync as ps
from pwsync.graphs import graph_to_text


# ----------------------------------------------------------------------------
# Graph validation
# ----------------------------------------------------------------------------


def test_edges_are_normalised_and_sorted():
    g = ps.Graph(4, ((3, 1), (0, 2), (1, 0)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.n_edges == 3


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        ps.Graph(3, ((1, 1),))


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ps.Graph(3, ((0, 1), (1, 0)))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError, match="out of range"):
        ps.Graph(3, ((0, 3),))


def test_empty_vertex_set_rejected():
    with pytest.raises(ValueError):
        ps.Graph(0)


# ----------------------------------------------------------------------------
# Laplacian / incidence
# ----------------------------------------------------------------------------


def test_laplacian_single_edge():
    g = ps.Graph(2, ((0, 1),))
    assert np.array_equal(ps.laplacian(g), [[1, -1], [-1, 1]])


def test_laplacian_complete_triangle():
    lap = ps.laplacian(ps.complete_graph(3))
    assert np.array_equal(np.diag(lap), [2, 2, 2])
    off = lap[~np.eye(3, dtype=bool)]
    assert np.array_equal(off, -np.ones(6))


def test_laplacian_ring4_matches_hand_construction():
    # edges (0,1),(0,3),(1,2),(2,3)
    expected = np.array(
        [
            [2, -1, 0, -1],
            [-1, 2, -1, 0],
            [0, -1, 2, -1],
            [-1, 0, -1, 2],
        ]
    )
    lap = ps.laplacian(ps.ring_graph(4))
    assert np.array_equal(lap, expected)
    assert np.array_equal(lap.sum(axis=1), np.zeros(4))


def test_incidence_single_edge_column():
    b = ps.incidence(ps.Graph(2, ((0, 1),)))
    assert np.array_equal(b, [[1], [-1]])


def test_incidence_path3_reproduces_laplacian():
    g = ps.path_graph(3)
    b = ps.incidence(g)
    assert np.array_equal(b @ b.T, ps.laplacian(g))


def test_incidence_empty_edge_set():
    b = ps.incidence(ps.Graph(3))
    assert b.shape == (3, 0)


@pytest.mark.parametrize(
    "g",
    [
        ps.complete_graph(6),
        ps.star_graph(7),
        ps.path_graph(5),
        ps.ring_graph(8),
        ps.nearest_neighbours_graph(9, 2),
        ps.erdos_renyi_graph(10, 0.4, seed=3),
    ],
)
def test_incidence_times_transpose_equals_laplacian_exactly(g):
    b = ps.incidence(g)
    assert b.dtype.kind == "i"
    assert np.array_equal(b @ b.T, ps.laplacian(g))


def test_edge_array_is_built_once_and_read_only():
    g = ps.erdos_renyi_graph(10, 0.4, seed=3)
    u, v = g.edge_array()
    again = g.edge_array()
    assert again[0] is u and again[1] is v
    assert u.dtype == np.int64 and v.dtype == np.int64
    assert list(zip(u.tolist(), v.tolist())) == list(g.edges)
    for arr in (u, v):
        with pytest.raises(ValueError):
            arr[0] = 0
    # The cached arrays are not part of a graph's value.
    twin = ps.Graph(10, g.edges)
    assert twin == g and hash(twin) == hash(g)


def test_edge_array_of_edgeless_graph():
    u, v = ps.Graph(3).edge_array()
    assert u.shape == v.shape == (0,)
    assert np.array_equal(ps.Graph(3).degrees(), [0, 0, 0])


@pytest.mark.parametrize(
    "g",
    [
        ps.Graph(3),
        ps.star_graph(7),
        ps.nearest_neighbours_graph(9, 2),
        ps.erdos_renyi_graph(10, 0.4, seed=3),
    ],
)
def test_degrees_and_adjacency_match_edge_loops(g):
    deg = np.zeros(g.n_vertices, dtype=np.int64)
    adj = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
        adj[u, v] = adj[v, u] = 1
    assert np.array_equal(g.degrees(), deg)
    assert np.array_equal(g.adjacency(), adj)
    assert g.degrees().dtype == g.adjacency().dtype == np.int64


# ----------------------------------------------------------------------------
# Connectivity and algebraic connectivity
# ----------------------------------------------------------------------------


def test_single_vertex_is_connected():
    assert ps.is_connected(ps.Graph(1))


def test_two_isolated_vertices_not_connected():
    assert not ps.is_connected(ps.Graph(2))


def test_ring30_is_connected():
    assert ps.is_connected(ps.ring_graph(30))


def test_algebraic_connectivity_complete():
    assert ps.algebraic_connectivity(ps.complete_graph(5)) == pytest.approx(5.0, abs=1e-9)


def test_algebraic_connectivity_star():
    assert ps.algebraic_connectivity(ps.star_graph(6)) == pytest.approx(1.0, abs=1e-9)


def test_algebraic_connectivity_ring30():
    expected = 2.0 * (1.0 - np.cos(2.0 * np.pi / 30.0))
    value = ps.algebraic_connectivity(ps.ring_graph(30))
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(0.043705, abs=1e-6)


@pytest.mark.parametrize("n", range(3, 51))
def test_path_and_ring_closed_forms(n):
    assert ps.algebraic_connectivity(ps.path_graph(n)) == pytest.approx(
        2.0 * (1.0 - np.cos(np.pi / n)), abs=1e-9
    )
    assert ps.algebraic_connectivity(ps.ring_graph(n)) == pytest.approx(
        2.0 * (1.0 - np.cos(2.0 * np.pi / n)), abs=1e-9
    )


def test_algebraic_connectivity_zero_after_cutting_out_a_vertex():
    # Removing both edges of the middle vertex 1 disconnects the path.
    g = ps.remove_edges(ps.path_graph(4), [(0, 1), (1, 2)])
    assert not ps.is_connected(g)
    assert abs(ps.algebraic_connectivity(g)) <= 1e-9


def test_algebraic_connectivity_needs_two_vertices():
    with pytest.raises(ValueError):
        ps.algebraic_connectivity(ps.Graph(1))


# ----------------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------------


def test_star_hub_convention():
    assert ps.star_graph(4).edges == ((0, 1), (0, 2), (0, 3))


def test_ring4_every_degree_two():
    g = ps.ring_graph(4)
    assert g.n_edges == 4
    assert np.array_equal(g.degrees(), [2, 2, 2, 2])


def test_nearest_neighbours_edge_count():
    assert ps.nearest_neighbours_graph(6, 2).n_edges == 12


@pytest.mark.parametrize("n", range(3, 13))
def test_edge_count_closed_forms(n):
    assert ps.complete_graph(n).n_edges == n * (n - 1) // 2
    assert ps.star_graph(n).n_edges == n - 1
    assert ps.path_graph(n).n_edges == n - 1
    assert ps.ring_graph(n).n_edges == n
    for l in (1, 2):
        if l <= (n - 1) // 2:
            assert ps.nearest_neighbours_graph(n, l).n_edges == n * l


def test_nearest_neighbours_l_bounds():
    with pytest.raises(ValueError):
        ps.nearest_neighbours_graph(6, 3)
    with pytest.raises(ValueError):
        ps.nearest_neighbours_graph(6, 0)


def test_erdos_renyi_is_seeded_and_connected():
    g1 = ps.erdos_renyi_graph(20, 0.25, seed=11)
    g2 = ps.erdos_renyi_graph(20, 0.25, seed=11)
    g3 = ps.erdos_renyi_graph(20, 0.25, seed=12)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    assert ps.is_connected(g1)


def _pair_list_erdos_renyi(n, p, seed, max_retries):
    """Reference draw over a Python list of vertex pairs; also returns the retry count."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for attempt in range(max_retries):
        mask = rng.random(len(pairs)) < p
        g = ps.Graph(n, tuple(e for e, keep in zip(pairs, mask) if keep))
        if ps.is_connected(g):
            return g, attempt
    return None, max_retries


@pytest.mark.parametrize(
    "n, p, seed",
    [(8, 0.3, 0), (12, 0.15, 1), (12, 0.3, 5), (30, 0.2, 7), (60, 0.05, 2)],
)
def test_erdos_renyi_matches_pair_list_draw(n, p, seed):
    expected, _ = _pair_list_erdos_renyi(n, p, seed, 1000)
    assert ps.erdos_renyi_graph(n, p, seed=seed).edges == expected.edges


def test_erdos_renyi_pair_list_draw_with_retries():
    # seed 1 needs three rejected draws before a connected one.
    expected, retries = _pair_list_erdos_renyi(12, 0.15, 1, 1000)
    assert retries == 3
    assert ps.erdos_renyi_graph(12, 0.15, seed=1).edges == expected.edges
    # A budget one short of that raises, as the reference runs dry.
    assert _pair_list_erdos_renyi(12, 0.15, 1, 3)[0] is None
    with pytest.raises(RuntimeError, match="retries"):
        ps.erdos_renyi_graph(12, 0.15, seed=1, max_retries=3)


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(ValueError):
        ps.erdos_renyi_graph(5, 0.0)
    with pytest.raises(ValueError):
        ps.erdos_renyi_graph(5, 1.0)


def test_erdos_renyi_retry_budget_exhausted():
    with pytest.raises(RuntimeError, match="retries"):
        ps.erdos_renyi_graph(24, 1e-6, seed=0, max_retries=50)


def test_generate_topology_dispatch():
    assert ps.generate_topology("ring", 5).edges == ps.ring_graph(5).edges
    assert ps.generate_topology("nearest_neighbours", 7, l=2).n_edges == 14
    g = ps.generate_topology("erdos_renyi", 12, p=0.4, seed=2)
    assert ps.is_connected(g)
    with pytest.raises(ValueError, match="unknown topology"):
        ps.generate_topology("ringg", 5)
    with pytest.raises(ValueError, match="parameter l"):
        ps.generate_topology("nearest_neighbours", 7)
    with pytest.raises(ValueError, match="parameter p"):
        ps.generate_topology("erdos_renyi", 7)


def test_generators_require_two_vertices():
    with pytest.raises(ValueError):
        ps.complete_graph(1)


# ----------------------------------------------------------------------------
# Graph files
# ----------------------------------------------------------------------------


def test_graph_file_round_trip(tmp_path):
    g = ps.erdos_renyi_graph(9, 0.5, seed=4)
    path = tmp_path / "g.txt"
    ps.write_graph_file(g, path)
    assert ps.read_graph_file(path).edges == g.edges
    text = graph_to_text(g)
    assert text.splitlines()[0] == "9"


def test_graph_file_rejects_reversed_pair(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n2 1\n")
    with pytest.raises(ValueError, match="i < j"):
        ps.read_graph_file(path)


def test_graph_file_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 1\n")
    with pytest.raises(ValueError, match="i < j"):
        ps.read_graph_file(path)


def test_graph_file_rejects_duplicate(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n0 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        ps.read_graph_file(path)


def test_graph_file_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 3\n")
    with pytest.raises(ValueError, match="out of range"):
        ps.read_graph_file(path)


def test_graph_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("three\n0 1\n")
    with pytest.raises(ValueError, match="vertex count"):
        ps.read_graph_file(path)


def test_graph_file_rejects_empty(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        ps.read_graph_file(path)
