from __future__ import annotations

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


# ----------------------------------------------------------------------------
# Bipartition generators
# ----------------------------------------------------------------------------


def test_generator_single_edge_split():
    gen = ps.bipartition_generator(ps.Bipartition((0,), (1,)))
    np.testing.assert_allclose(gen, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)


def test_generator_one_vs_two_split():
    gen = ps.bipartition_generator(ps.Bipartition((0,), (1, 2)))
    assert gen[0] > 0
    np.testing.assert_allclose(gen / gen[0], [1.0, -0.5, -0.5], atol=1e-14)


def test_generator_balanced_split_of_four():
    gen = ps.bipartition_generator(ps.Bipartition((0, 1), (2, 3)))
    np.testing.assert_allclose(gen / gen[0], [1.0, 1.0, -1.0, -1.0], atol=1e-14)


def test_generator_is_unit_norm_and_zero_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        members = rng.permutation(n)
        b = ps.Bipartition(tuple(members[:k]), tuple(members[k:]))
        gen = ps.bipartition_generator(b)
        assert np.linalg.norm(gen) == pytest.approx(1.0, abs=1e-12)
        assert abs(gen.sum()) <= 1e-12


def test_bipartition_validation():
    with pytest.raises(ValueError, match="nonempty"):
        ps.Bipartition((), (0, 1))
    with pytest.raises(ValueError, match="disjoint"):
        ps.Bipartition((0, 1), (1, 2))
    with pytest.raises(ValueError, match="cover"):
        ps.Bipartition((0,), (2,))


def test_generator_matches_two_level_closed_form():
    # phi on a generator equals a1*(N1|eps1| + N2|eps2|) - a2*b*|eps1 - eps2|
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_connected_graph(rng, 4, 10)
        n = g.n_vertices
        k = int(rng.integers(1, n))
        members = rng.permutation(n)
        b = ps.Bipartition(tuple(members[:k]), tuple(members[k:]))
        gen = ps.bipartition_generator(b)
        a1, a2 = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))
        eps1 = gen[b.cluster1[0]]
        eps2 = gen[b.cluster2[0]]
        n1, n2 = len(b.cluster1), len(b.cluster2)
        b_cross = ps.crossing_edge_count(g, b)
        closed = a1 * (n1 * abs(eps1) + n2 * abs(eps2)) - a2 * b_cross * abs(eps1 - eps2)
        assert ps.phi(params(a1, a2, g), gen) == pytest.approx(closed, abs=1e-12)


# ----------------------------------------------------------------------------
# Critical a2 per bipartition
# ----------------------------------------------------------------------------


def test_min_a2_single_edge():
    g = ps.Graph(2, ((0, 1),))
    assert ps.min_a2_for_bipartition(1.0, ps.Bipartition((0,), (1,)), g) == pytest.approx(1.0)


def test_min_a2_ring4_adjacent_pairs():
    g = ps.ring_graph(4)
    b = ps.Bipartition((0, 1), (2, 3))
    assert ps.crossing_edge_count(g, b) == 2
    assert ps.min_a2_for_bipartition(1.0, b, g) == pytest.approx(1.0)


def test_min_a2_star_leaf_split():
    g = ps.star_graph(5)
    b = ps.Bipartition((1,), (0, 2, 3, 4))
    assert ps.min_a2_for_bipartition(1.0, b, g) == pytest.approx(1.6)


def test_min_a2_zero_crossing_is_error():
    g = ps.Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))  # two triangles
    with pytest.raises(ValueError, match="no crossing edges"):
        ps.min_a2_for_bipartition(1.0, ps.Bipartition((0, 1, 2), (3, 4, 5)), g)


def test_enumerate_bipartitions_requires_connected_clusters():
    path3 = ps.path_graph(3)
    found = {(b.cluster1, b.cluster2) for b in ps.enumerate_bipartitions(path3)}
    assert found == {((0,), (1, 2)), ((0, 1), (2,))}
    ring4 = ps.ring_graph(4)
    assert sum(1 for _ in ps.enumerate_bipartitions(ring4)) == 6


def test_max_min_a2_over_bipartitions_equals_inverse_density():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_connected_graph(rng, 4, 10)
        best = max(ps.min_a2_for_bipartition(1.0, b, g) for b in ps.enumerate_bipartitions(g))
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
        gen = ps.bipartition_generator(ps.Bipartition.from_cut(result.sparsest_cut))
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
