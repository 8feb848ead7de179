from __future__ import annotations

import itertools

import numpy as np
import pytest

import pwsync as ps
from conftest import random_connected_graph


def params(a1, a2, g) -> ps.StarFunctionParams:
    return ps.StarFunctionParams(a1, a2, g)


# ----------------------------------------------------------------------------
# phi evaluation
# ----------------------------------------------------------------------------


def test_phi_vanishes_at_zero():
    assert ps.phi(params(1.0, 1.0, ps.ring_graph(4)), np.zeros(4)) == 0.0


def test_phi_single_edge_two_level_vector():
    g = ps.Graph(2, ((0, 1),))
    for a1, a2 in [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)]:
        assert ps.phi(params(a1, a2, g), [1.0, -1.0]) == pytest.approx(2 * a1 - 2 * a2, abs=1e-12)


def test_phi_without_edge_penalty_is_nonnegative():
    rng = np.random.default_rng(0)
    g = ps.ring_graph(6)
    for _ in range(50):
        e = rng.normal(size=6)
        e -= e.mean()
        assert ps.phi(params(1.0, 0.0, g), e) >= 0.0


def test_phi_rejects_nonzero_sum():
    with pytest.raises(ValueError, match="sum to zero"):
        ps.phi(params(1.0, 1.0, ps.ring_graph(4)), [1.0, 0.0, 0.0, 0.0])


def test_phi_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 4"):
        ps.phi(params(1.0, 1.0, ps.ring_graph(4)), [1.0, -1.0])


def test_negative_weights_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        ps.StarFunctionParams(-1.0, 1.0, ps.ring_graph(4))


def test_positive_homogeneity():
    rng = np.random.default_rng(1)
    g = ps.erdos_renyi_graph(7, 0.5, seed=2)
    p = params(1.3, 0.7, g)
    e = rng.normal(size=7)
    e -= e.mean()
    base = ps.phi(p, e)
    for k in (0.0, 0.5, 2.0, 7.0):
        assert ps.phi(p, k * e) == pytest.approx(k * base, rel=1e-12, abs=1e-12)


def cut(g: ps.Graph, v1) -> ps.Cut:
    """The cut of g whose side V1 holds the listed vertices."""
    side = np.zeros(g.n_vertices, dtype=bool)
    side[list(v1)] = True
    return ps.Cut.of(g, side)


def crossing_recount(g: ps.Graph, v1) -> int:
    """Crossing edges of the cut with side V1 = v1, by a plain set loop."""
    side1 = {int(i) for i in v1}
    return sum(1 for u, v in g.edges if (u in side1) != (v in side1))


# ----------------------------------------------------------------------------
# Cut generators
# ----------------------------------------------------------------------------


def test_generator_single_edge_split():
    gen = ps.bipartition_generator(cut(ps.path_graph(2), (0,)))
    np.testing.assert_allclose(gen, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)


def test_generator_one_vs_two_split():
    gen = ps.bipartition_generator(cut(ps.path_graph(3), (0,)))
    assert gen[0] > 0
    np.testing.assert_allclose(gen / gen[0], [1.0, -0.5, -0.5], atol=1e-14)


def test_generator_balanced_split_of_four():
    gen = ps.bipartition_generator(cut(ps.ring_graph(4), (0, 1)))
    np.testing.assert_allclose(gen / gen[0], [1.0, 1.0, -1.0, -1.0], atol=1e-14)


def test_generator_is_unit_norm_and_zero_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        members = rng.permutation(n)
        gen = ps.bipartition_generator(cut(ps.path_graph(n), members[:k]))
        assert np.linalg.norm(gen) == pytest.approx(1.0, abs=1e-12)
        assert abs(gen.sum()) <= 1e-12


def test_bipartition_validation():
    # Overlapping or non-covering clusters cannot be written as a mask.
    g = ps.path_graph(3)
    with pytest.raises(ValueError, match="nonempty"):
        ps.Cut.of(g, [False, False, False])
    with pytest.raises(ValueError, match="nonempty"):
        ps.Cut.of(g, [True, True, True])
    with pytest.raises(ValueError, match="length 3"):
        ps.Cut.of(g, [True, False])
    with pytest.raises(ValueError, match="length 3"):
        ps.Cut.of(g, np.ones((3, 1), dtype=bool))


def test_generator_matches_two_level_closed_form():
    # phi on a generator equals a1*(N1|eps1| + N2|eps2|) - a2*b*|eps1 - eps2|
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_connected_graph(rng, 4, 10)
        n = g.n_vertices
        k = int(rng.integers(1, n))
        members = rng.permutation(n)
        c = cut(g, members[:k])
        gen = ps.bipartition_generator(c)
        a1, a2 = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))
        eps1 = gen[c.side1()[0]]
        eps2 = gen[c.side2()[0]]
        assert c.crossing_edges == crossing_recount(g, members[:k])
        closed = a1 * (c.n1 * abs(eps1) + c.n2 * abs(eps2)) - a2 * c.crossing_edges * abs(eps1 - eps2)
        assert ps.phi(params(a1, a2, g), gen) == pytest.approx(closed, abs=1e-12)


# ----------------------------------------------------------------------------
# Cut.of against an independent recount
# ----------------------------------------------------------------------------


def test_cut_of_is_canonical_and_counts_crossings():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def graphs_and_masks(draw):
        n = draw(st.integers(2, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = ps.Graph(n, sorted(set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n)))))
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        hyp.assume(0 < mask.sum() < n)
        return g, mask

    @hyp.settings(max_examples=200, deadline=None, derandomize=True)
    @hyp.given(graphs_and_masks())
    def check(case):
        g, mask = case
        c = ps.Cut.of(g, mask)
        assert c == ps.Cut.of(g, ~mask)
        assert c.side_assignment[0] is True
        assert c.n1 + c.n2 == g.n_vertices
        assert c.n1 == sum(c.side_assignment)
        assert c.crossing_edges == crossing_recount(g, np.flatnonzero(mask))

    check()


# ----------------------------------------------------------------------------
# Critical a2 per cut
# ----------------------------------------------------------------------------


def test_min_a2_single_edge():
    assert ps.min_a2_for_bipartition(1.0, cut(ps.Graph(2, ((0, 1),)), (0,))) == pytest.approx(1.0)


def test_min_a2_ring4_adjacent_pairs():
    c = cut(ps.ring_graph(4), (0, 1))
    assert c.crossing_edges == 2
    assert ps.min_a2_for_bipartition(1.0, c) == pytest.approx(1.0)


def test_min_a2_star_leaf_split():
    c = cut(ps.star_graph(5), (1,))
    assert ps.min_a2_for_bipartition(1.0, c) == pytest.approx(1.6)


def test_min_a2_zero_crossing_is_error():
    g = ps.Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))  # two triangles
    with pytest.raises(ValueError, match="no crossing edges"):
        ps.min_a2_for_bipartition(1.0, cut(g, (0, 1, 2)))


def test_enumerate_bipartitions_requires_connected_clusters():
    path3 = ps.path_graph(3)
    found = [(tuple(c.side1()), tuple(c.side2())) for c in ps.enumerate_bipartitions(path3)]
    assert found == [((0,), (1, 2)), ((0, 1), (2,))]
    ring4 = ps.ring_graph(4)
    assert sum(1 for _ in ps.enumerate_bipartitions(ring4)) == 6
    star4 = ps.star_graph(4)  # centre 0: only single leaves split off
    found = [tuple(c.side2()) for c in ps.enumerate_bipartitions(star4)]
    assert found == [(3,), (2,), (1,)]


def _induces_connected_by_dfs(g, vertices) -> bool:
    """Set-based depth-first search over the edges inside `vertices`."""
    vertices = set(vertices)
    nbrs = {v: set() for v in vertices}
    for u, v in g.edges:
        if u in vertices and v in vertices:
            nbrs[u].add(v)
            nbrs[v].add(u)
    stack = [min(vertices)]
    reached = set(stack)
    while stack:
        for w in nbrs[stack.pop()] - reached:
            reached.add(w)
            stack.append(w)
    return reached == vertices


def test_enumerate_bipartitions_matches_per_side_search():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return ps.Graph(n, set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n))))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(graphs())
    def check(g):
        n = g.n_vertices
        expected = [
            (0, *rest)
            for r in range(n - 1)
            for rest in itertools.combinations(range(1, n), r)
            if _induces_connected_by_dfs(g, (0, *rest))
            and _induces_connected_by_dfs(g, set(range(n)) - {0, *rest})
        ]
        cuts = list(ps.enumerate_bipartitions(g))
        assert [tuple(c.side1()) for c in cuts] == expected
        assert all(c == ps.Cut.of(g, c.side_assignment) for c in cuts)

    check()


def test_max_min_a2_over_bipartitions_equals_inverse_density():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_connected_graph(rng, 4, 10)
        best = max(ps.min_a2_for_bipartition(1.0, c) for c in ps.enumerate_bipartitions(g))
        delta = ps.min_density_exact(g).delta
        assert best == pytest.approx(1.0 / delta, abs=1e-12)


# ----------------------------------------------------------------------------
# Global seminegativity oracle
# ----------------------------------------------------------------------------


def test_seminegativity_at_critical_ratio_passes():
    rng = np.random.default_rng(6)
    for trial in range(5):
        g = random_connected_graph(rng, 5, 10)
        delta = ps.min_density_exact(g).delta
        check = ps.check_global_seminegativity(params(1.0, 1.0 / delta, g), n_samples=50_000, seed=trial)
        assert check.passed, check.max_phi


def test_sparsest_cut_generator_witnesses_subcritical_violation():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_connected_graph(rng, 5, 10)
        result = ps.min_density_exact(g)
        gen = ps.bipartition_generator(result.sparsest_cut)
        value = ps.phi(params(1.0, 0.9 / result.delta, g), gen)
        assert value > 1e-10


def test_seminegativity_violation_vector_is_returned():
    g = ps.ring_graph(6)
    delta = ps.min_density_exact(g).delta
    p = params(1.0, 0.5 / delta, g)
    check = ps.check_global_seminegativity(p, n_samples=20_000, seed=0)
    assert not check.passed
    assert check.violation is not None
    assert ps.phi(p, check.violation) > 1e-10


def test_seminegativity_boundary_without_vertex_weight():
    # a1 = 0 keeps phi nonpositive regardless of a2
    check = ps.check_global_seminegativity(params(0.0, 1.0, ps.ring_graph(5)), n_samples=20_000, seed=1)
    assert check.passed
    assert check.max_phi <= 1e-12


def test_seminegativity_needs_connected_graph():
    with pytest.raises(ValueError, match="connected"):
        ps.check_global_seminegativity(params(1.0, 1.0, ps.Graph(4, ((0, 1), (2, 3)))))


def test_tripartition_shaped_vectors_stay_nonpositive_at_critical_ratio():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_connected_graph(rng, 5, 10)
        n = g.n_vertices
        delta = ps.min_density_exact(g).delta
        p = params(1.0, 1.0 / delta, g)
        for _ in range(20):
            sizes = rng.multinomial(n - 3, [1 / 3] * 3) + 1  # three nonempty clusters
            perm = rng.permutation(n)
            i1 = perm[: sizes[0]]
            i2 = perm[sizes[0] : sizes[0] + sizes[1]]
            eps1 = float(rng.uniform(0.2, 2.0))
            e = np.zeros(n)
            e[i1] = eps1
            e[i2] = -sizes[0] * eps1 / sizes[1]
            assert ps.phi(p, e) <= 1e-10


# ----------------------------------------------------------------------------
# Edge-list evaluation against the dense incidence matrix
# ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [
        ps.Graph(2, ((0, 1),)),
        ps.complete_graph(6),
        ps.star_graph(7),
        ps.ring_graph(8),
        ps.erdos_renyi_graph(10, 0.4, seed=3),
    ],
)
def test_phi_and_sampling_agree_with_incidence_reference(g):
    b = ps.incidence(g).astype(np.float64)
    rng = np.random.default_rng(g.n_edges)
    for a1, a2 in [(1.0, 0.0), (1.0, 0.1), (0.7, 2.5)]:
        p = params(a1, a2, g)
        for _ in range(20):
            e = rng.normal(size=g.n_vertices)
            e -= e.mean()
            ref = a1 * np.abs(e).sum() - a2 * np.abs(b.T @ e).sum()
            assert ps.phi(p, e) == pytest.approx(ref, rel=1e-12, abs=1e-12)

        check = ps.check_global_seminegativity(p, n_samples=500, seed=4)
        samples = np.random.default_rng(4).normal(size=(500, g.n_vertices))
        samples -= samples.mean(axis=1, keepdims=True)
        values = a1 * np.abs(samples).sum(axis=1) - a2 * np.abs(samples @ b).sum(axis=1)
        assert check.max_phi == pytest.approx(values.max(), rel=1e-12, abs=1e-12)
        assert check.passed == (values.max() <= 1e-10)
        if not check.passed:
            first = int(np.argmax(values > 1e-10))
            assert np.array_equal(check.violation, samples[first])
