"""Tests of the benchmark's oracles: each agrees with a known answer and
rejects a deliberately wrong value."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import pwsync as ps  # noqa: E402


def _ring(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _circulant(n, l):
    return sorted({tuple(sorted((i, (i + k) % n))) for i in range(n) for k in range(1, l + 1)})


def _step_args(field, g_diff, g_disc, c, cd, dt):
    eye = np.eye(field.dimension)
    return dict(
        a=field.a,
        d=field.d,
        switch_terms=[(t.gain, t.coordinate) for t in field.switch_terms],
        diff_edges=np.asarray(g_diff.edges).reshape(-1, 2),
        disc_edges=np.asarray(g_disc.edges).reshape(-1, 2),
        c=c,
        cd=cd,
        gamma=eye,
        gamma_d=eye,
        dt=dt,
    )


@pytest.fixture(scope="module")
def small_network():
    field = ps.relay_feedback_system()
    g_diff = ps.ring_graph(8)
    g_disc = ps.erdos_renyi_graph(8, 0.5, seed=3)
    config = ps.SimConfig(field, g_diff, g_disc, c=40.0, cd=3.0, dt=1e-3, t_end=0.02, init_seed=5)
    return field, g_diff, g_disc, config, ps.simulate(config)


def test_edge_list_step_reproduces_simulate(small_network):
    field, g_diff, g_disc, config, run = small_network
    series = oracles.edge_list_e_tot(config.initial(), 20, **_step_args(field, g_diff, g_disc, 40.0, 3.0, 1e-3))
    assert oracles.e_tot_agree(run.e_tot_series, series)


def test_edge_list_step_rejects_flipped_sign(small_network):
    field, g_diff, g_disc, config, run = small_network
    flipped = oracles.edge_list_e_tot(
        config.initial(), 20, **_step_args(field, g_diff, g_disc, 40.0, -3.0, 1e-3)
    )
    assert not oracles.e_tot_agree(run.e_tot_series, flipped)
    assert not oracles.e_tot_agree(run.e_tot_series[:-1], run.e_tot_series[1:])


def test_edge_list_coupling_is_zero_on_the_sync_manifold():
    field = ps.relay_feedback_system()
    x = np.tile([[0.3, -1.2, 2.5]], (6, 1))
    args = _step_args(field, ps.ring_graph(6), ps.complete_graph(6), 10.0, 2.0, 1e-3)
    uncoupled = dict(args, c=0.0, cd=0.0)
    assert np.array_equal(
        oracles.edge_list_euler_step(x, **args), oracles.edge_list_euler_step(x, **uncoupled)
    )


def test_brute_force_density_known_graphs():
    assert oracles.brute_force_min_density(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]) == 2
    assert oracles.brute_force_min_density(6, _ring(6)) == Fraction(2, 3)
    star = [(0, i) for i in range(1, 7)]
    assert oracles.brute_force_min_density(7, star) == Fraction(7, 12)


def test_brute_force_density_matches_exact_and_rejects_perturbed():
    g = ps.erdos_renyi_graph(11, 0.4, seed=2)
    exact = oracles.brute_force_min_density(11, g.edges)
    delta = ps.min_density_exact(g).delta
    assert oracles.density_agrees(delta, exact)
    assert not oracles.density_agrees(delta * (1 + 1e-9), exact)
    assert not oracles.density_agrees(delta, exact * Fraction(101, 100))


@pytest.mark.parametrize("n", [5, 6, 9, 10])
def test_closed_forms_match_brute_force(n):
    assert oracles.closed_form_min_density("ring", n) == oracles.brute_force_min_density(n, _ring(n))
    assert oracles.closed_form_min_density("path", n) == oracles.brute_force_min_density(n, _path(n))
    for l in range(1, (n - 1) // 2 + 1):
        assert oracles.closed_form_min_density(
            "nearest_neighbours", n, l
        ) == oracles.brute_force_min_density(n, _circulant(n, l))


def test_closed_form_rejects_wrong_parity_formula():
    n = 21  # odd: 4N/(N^2 - 1), not the even-N 4/N
    assert not oracles.density_agrees(4.0 / n, oracles.closed_form_min_density("ring", n))
    assert oracles.density_agrees(4.0 * n / (n * n - 1), oracles.closed_form_min_density("ring", n))


def test_cut_density_recount():
    assert oracles.cut_density(6, _ring(6), [0, 1, 2]) == Fraction(2, 3)
    with pytest.raises(ValueError):
        oracles.cut_density(6, _ring(6), [])


def test_lambda2_matches_ring_closed_form_and_rejects_perturbed():
    pytest.importorskip("networkx")
    n = 30
    ring_l2 = 2.0 - 2.0 * math.cos(2.0 * math.pi / n)
    assert oracles.lambda2_agrees(oracles.lambda2(n, _ring(n)), ring_l2)
    assert not oracles.lambda2_agrees(oracles.lambda2(n, _ring(n)), ring_l2 * (1 + 1e-6))
    assert oracles.lambda2(4, [(0, 1), (2, 3)]) == pytest.approx(0.0, abs=1e-12)
