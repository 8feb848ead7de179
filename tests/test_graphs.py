from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

import pwsync as ps
from pwsync import graphs
from pwsync.cli import main
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


def test_every_edge_form_gives_the_same_graph():
    pairs = [(3, 1), (0, 2), (1, 0), (2, 4)]
    forms = [
        pairs,
        pairs[::-1],
        [(v, u) for u, v in pairs],
        np.array(pairs),
        np.array(pairs, dtype=np.int32)[::-1],
        zip(*zip(*pairs)),
        (pair for pair in pairs),
    ]
    graphs = [ps.Graph(5, edges) for edges in forms]
    for g in graphs:
        assert g == graphs[0] and hash(g) == hash(graphs[0])
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 4))
        assert all(type(x) is int for edge in g.edges for x in edge)
        u, v = g.edge_array()
        assert u.dtype == v.dtype == np.int64
        assert not u.flags.writeable and not v.flags.writeable
        assert np.all(u < v) and np.all(np.diff(u * 5 + v) > 0)
    assert graphs[0] != ps.Graph(6, pairs)
    assert graphs[0] != ps.Graph(5, pairs[:3])
    assert graphs[0] != pairs


def test_graph_is_immutable_and_survives_pickle_and_copy():
    g = ps.path_graph(3)
    with pytest.raises(AttributeError):
        g.n_vertices = 4
    with pytest.raises(AttributeError):
        g.edges = ()
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert twin == g and hash(twin) == hash(g)
        assert not any(arr.flags.writeable for arr in twin.edge_array())


@pytest.mark.parametrize(
    "edges, match",
    [
        ([(0, 1), (2, 2), (0, 9)], r"^self-loop \(2,2\)"),
        ([(0, 1), (0, 9), (2, 2)], r"^edge \(0,9\) out of range"),
        ([(0, 1), (-1, 2)], r"^edge \(-1,2\) out of range"),
        ([(7, 7)], r"^self-loop \(7,7\)"),
        (np.array([[4, 3], [0, 1], [3, 4]]), "duplicate"),
        ([(0, 1, 2)], "pairs"),
    ],
    ids=["self_loop_first", "range_first", "negative", "self_loop_out_of_range", "duplicate", "triple"],
)
def test_construction_errors_name_the_first_bad_edge(edges, match):
    with pytest.raises(ValueError, match=match):
        ps.Graph(5, edges)


# ----------------------------------------------------------------------------
# Incidence
# ----------------------------------------------------------------------------


def _laplacian(g):
    """Reference: the integer Laplacian L = D - A, written from the edge list."""
    u, v = g.edge_array()
    lap = np.zeros((g.n_vertices, g.n_vertices), dtype=np.int64)
    np.add.at(lap, (u, u), 1)
    np.add.at(lap, (v, v), 1)
    lap[u, v] = lap[v, u] = -1
    return lap


def test_incidence_single_edge_column():
    b = ps.incidence(ps.Graph(2, ((0, 1),)))
    assert np.array_equal(b, [[1], [-1]])


def test_incidence_path3_reproduces_laplacian():
    g = ps.path_graph(3)
    b = ps.incidence(g)
    assert np.array_equal(b @ b.T, _laplacian(g))


@pytest.mark.parametrize("n", [1, 3])
def test_edge_product_matches_the_dense_laplacian(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        size = int(rng.integers(2, 41))
        g = ps.Graph(size, {tuple(sorted(e)) for e in rng.integers(0, size, (3 * size, 2)) if e[0] != e[1]})
        uv = graphs._endpoints(g, n)
        x = rng.normal(scale=5.0, size=(size, n) if n > 1 else size)
        lx = graphs._edge_product(uv, x)
        np.testing.assert_allclose(lx, _laplacian(g) @ x, rtol=0, atol=1e-12 * max(1, g.n_edges))
        b = ps.incidence(g)
        assert np.array_equal(graphs._edge_product(uv, x, np.sign), b @ np.sign(b.T @ x))
        constant = np.broadcast_to(x[0], x.shape)
        assert np.all(graphs._edge_product(uv, constant) == 0.0)
        assert np.all(graphs._edge_product(uv, constant, np.sign) == 0.0)


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
    assert np.array_equal(b @ b.T, _laplacian(g))


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
    # A graph's value is its vertex count and these arrays.
    twin = ps.Graph(10, g.edges)
    assert twin == g and hash(twin) == hash(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ps.complete_graph(2),
        lambda: ps.complete_graph(6),
        lambda: ps.star_graph(2),
        lambda: ps.star_graph(6),
        lambda: ps.path_graph(2),
        lambda: ps.path_graph(6),
        lambda: ps.ring_graph(2),
        lambda: ps.ring_graph(3),
        lambda: ps.ring_graph(7),
        lambda: ps.nearest_neighbours_graph(9, 2),
        lambda: ps.erdos_renyi_graph(12, 0.3, seed=5),
        lambda: ps.remove_edges(ps.ring_graph(6), [(5, 0), (2, 3)]),
    ],
    ids=["K2", "K6", "star2", "star6", "path2", "path6", "ring2", "ring3", "ring7", "nn9_2", "ER12",
         "ring6_minus_two"],
)
def test_generated_graphs_match_the_validating_constructor(make):
    g = make()
    u, v = g.edge_array()
    assert u.dtype == v.dtype == np.int64
    assert not u.flags.writeable and not v.flags.writeable
    # Reversed input makes the constructor sort and check everything again.
    assert g == ps.Graph(g.n_vertices, np.column_stack((v, u))[::-1])


def test_graph_file_is_read_into_the_validated_form(tmp_path):
    g = ps.erdos_renyi_graph(9, 0.5, seed=4)
    path = tmp_path / "g.txt"
    lines = graph_to_text(g).splitlines()
    path.write_text("\n".join([lines[0], *lines[:0:-1], ""]))  # edges in reverse order
    read = ps.read_graph_file(path)
    assert read == g and read.edges == g.edges
    assert not any(arr.flags.writeable for arr in read.edge_array())


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


@pytest.mark.parametrize(
    "g, connected",
    [
        (ps.Graph(3), False),
        (ps.Graph(4, ((0, 1), (1, 2))), False),  # vertex 3 isolated
        (ps.Graph(4, ((1, 2), (2, 3))), False),  # vertex 0 isolated
        (ps.Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))), False),
        (ps.path_graph(40), True),
        (ps.star_graph(9), True),
    ],
    ids=["edgeless", "isolated_last", "isolated_root", "two_triangles", "path40", "star9"],
)
def test_is_connected_small_cases(g, connected):
    assert ps.is_connected(g) is connected


def _union_find_component_count(n, edges):
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[root(u)] = root(v)
    return len({root(x) for x in range(n)})


def test_is_connected_matches_union_find():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, 40))
        # Vertices join one of a few blocks; each vertex is linked to an
        # earlier vertex of its block or starts a new piece, and random
        # extra pairs may merge pieces. Edgeless graphs come from all-False.
        block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        edges = set()
        for v in range(1, n):
            earlier = [w for w in range(v) if block[w] == block[v]]
            if earlier and draw(st.booleans()):
                edges.add((draw(st.sampled_from(earlier)), v))
        if n > 1:
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            edges |= {(min(e), max(e)) for e in draw(st.lists(pair, max_size=3)) if e[0] != e[1]}
        return ps.Graph(n, edges)

    seen_counts = set()

    @hyp.settings(max_examples=200, deadline=None, derandomize=True)
    @hyp.given(graphs())
    def check(g):
        count = _union_find_component_count(g.n_vertices, g.edges)
        seen_counts.add(min(count, 3))
        assert ps.is_connected(g) is (count == 1)

    check()
    assert seen_counts == {1, 2, 3}


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


def _dense_lambda2(g):
    """Reference: the second of all eigenvalues of the dense Laplacian."""
    return float(np.linalg.eigvalsh(_laplacian(g).astype(np.float64))[1])


def test_lambda2_above_the_cap_matches_eigvalsh(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    monkeypatch.setattr(graphs, "DENSE_LAMBDA2_CAP", 1)

    @st.composite
    def connected_graphs(draw):
        n = draw(st.integers(2, 60))
        # A random spanning tree keeps the graph connected; extra pairs add cycles.
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(e), max(e)) for e in draw(st.lists(pair, max_size=3 * n)) if e[0] != e[1]}
        return ps.Graph(n, edges)

    proved = []

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(connected_graphs())
    def check(g):
        expected = _dense_lambda2(g)
        assert abs(ps.algebraic_connectivity(g) - expected) <= 1e-10 * max(1.0, expected)
        theta = graphs._lanczos_lambda2(g)
        if theta is not None:
            lower = graphs._lambda2_lower_bound(g, theta - 1e-9 * max(1.0, theta))
            if lower is not None:
                proved.append(g.n_vertices)
                assert lower <= expected

    check()
    assert len(proved) >= 60 and max(proved) > 30


@pytest.mark.parametrize(
    "g",
    [ps.erdos_renyi_graph(120, 0.05, seed=3), ps.nearest_neighbours_graph(90, 3), ps.star_graph(70),
     ps.complete_graph(40), ps.ring_graph(50)],
    ids=["ER120", "circulant90", "star70", "complete40", "ring50"],
)
def test_cholesky_proof_accepts_below_and_rejects_above_theta(g):
    theta = graphs._lanczos_lambda2(g)
    assert theta is not None
    kappa = 1e-9 * max(1.0, theta)
    lower = graphs._lambda2_lower_bound(g, theta - kappa)
    assert lower is not None and theta - 2 * kappa < lower <= theta - kappa <= _dense_lambda2(g)
    assert graphs._lambda2_lower_bound(g, theta + 1e-6 * max(1.0, theta)) is None


def test_cholesky_in_place_matches_numpy_across_panels():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 300))
    spd = x @ x.T + 300 * np.eye(300)
    a = spd.copy()
    assert graphs._cholesky_in_place(a)
    assert np.allclose(np.tril(a), np.linalg.cholesky(spd), rtol=0, atol=1e-12)
    indefinite = spd - 2 * np.linalg.eigvalsh(spd)[0] * np.eye(300)
    assert not graphs._cholesky_in_place(indefinite)


def test_lambda2_above_the_cap_is_the_same_on_every_call():
    g = ps.erdos_renyi_graph(800, 8 / 799, seed=5)
    assert graphs._lanczos_lambda2(g) is not None
    first = ps.algebraic_connectivity(g)
    assert first == ps.algebraic_connectivity(ps.Graph(g.n_vertices, g.edges))
    assert first == graphs._lanczos_lambda2(g)


@pytest.mark.parametrize("g", [ps.ring_graph(1000), ps.path_graph(600)], ids=["ring1000", "path600"])
def test_lambda2_falls_back_to_dense_when_lanczos_does_not_converge(g):
    assert graphs._lanczos_lambda2(g) is None
    assert ps.algebraic_connectivity(g) == _dense_lambda2(g)


def test_lambda2_of_a_disconnected_graph_above_the_cap_is_zero():
    half = ps.erdos_renyi_graph(300, 0.03, seed=2)
    u, v = half.edge_array()
    g = ps.Graph(600, np.column_stack((np.concatenate((u, u + 300)), np.concatenate((v, v + 300)))))
    assert g.n_vertices > graphs.DENSE_LAMBDA2_CAP and not ps.is_connected(g)
    assert abs(ps.algebraic_connectivity(g)) <= 1e-9


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


def test_erdos_renyi_pair_list_draw_with_retries(monkeypatch):
    # seed 1 needs three rejected draws before a connected one.
    expected, retries = _pair_list_erdos_renyi(12, 0.15, 1, 1000)
    assert retries == 3
    assert ps.erdos_renyi_graph(12, 0.15, seed=1).edges == expected.edges
    # A budget one short of that raises, as the reference runs dry.
    assert _pair_list_erdos_renyi(12, 0.15, 1, 3)[0] is None
    monkeypatch.setattr(graphs, "_ER_MAX_RETRIES", 3)
    with pytest.raises(RuntimeError, match="3 retries"):
        ps.erdos_renyi_graph(12, 0.15, seed=1)


def _triu_erdos_renyi(n, p, seed, max_retries=1000):
    """Reference draw over np.triu_indices, the whole pair list; also returns the retry count."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, 1)
    for attempt in range(max_retries):
        keep = rng.random(iu.size) < p
        g = ps.Graph(n, np.column_stack((iu[keep], iv[keep])))
        if ps.is_connected(g):
            return g, attempt
    return None, max_retries


def test_erdos_renyi_matches_triu_indices_draw_over_a_grid():
    retried = 0
    for n in (2, 3, 7, 30, 101, 250):
        for p in (0.05, 0.3, 0.9):
            for seed in (0, 1, 7):
                expected, retries = _triu_erdos_renyi(n, p, seed)
                if expected is None:
                    continue
                assert ps.erdos_renyi_graph(n, p, seed=seed) == expected, (n, p, seed)
                retried += retries > 0
    assert retried >= 1


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(ValueError):
        ps.erdos_renyi_graph(5, 0.0)
    with pytest.raises(ValueError):
        ps.erdos_renyi_graph(5, 1.0)


def test_erdos_renyi_retry_budget_exhausted(monkeypatch):
    monkeypatch.setattr(graphs, "_ER_MAX_RETRIES", 50)
    with pytest.raises(RuntimeError, match="50 retries"):
        ps.erdos_renyi_graph(24, 1e-6, seed=0)


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


def test_graph_file_rejects_bad_vertex_token(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n\n1 x\n")
    with pytest.raises(ValueError, match=r"bad\.txt:4: expected two integers"):
        ps.read_graph_file(path)
    assert main(["mindensity", "--graph", str(path)]) == 2
    assert f"error: {path}:4: " in capsys.readouterr().err


@pytest.mark.parametrize("header", ["0", "-2"])
def test_graph_file_rejects_empty_vertex_set(tmp_path, capsys, header):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n")
    with pytest.raises(ValueError, match=f"bad\\.txt: graph needs at least one vertex, got N={header}"):
        ps.read_graph_file(path)
    assert main(["mindensity", "--graph", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_graph_file_rejects_empty(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        ps.read_graph_file(path)
