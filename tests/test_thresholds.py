from __future__ import annotations

import numpy as np
import pytest

import pwsync as ps
import pwsync.thresholds
from conftest import random_connected_graph


def smooth_cert(n: int, q_scale: float = -1.0) -> ps.SigmaQuadCertificate:
    return ps.SigmaQuadCertificate(np.eye(n), q_scale * np.eye(n), np.zeros((n, n)))


# ----------------------------------------------------------------------------
# Gain formulas
# ----------------------------------------------------------------------------


def test_gains_reproduce_published_relay_values(relay_cert):
    # with the diffusive layer's connectivity taken as 1 and the published
    # minimum density 1.290 of the random discontinuous layer
    c_star, cd_star = ps.critical_gains(
        ps.mu2(relay_cert.q), 1.0, 1.0, ps.mu_inf(relay_cert.m), 1.290, 1.0
    )
    assert c_star == pytest.approx(50.312, abs=2e-3)
    assert cd_star == pytest.approx(3.102, abs=2e-3)


def test_report_on_actual_ring30_layer(relay, relay_cert, monkeypatch):
    g_diff = ps.ring_graph(30)
    g_disc = ps.erdos_renyi_graph(30, 0.2, seed=7)
    report = ps.compute_thresholds(
        relay_cert, np.eye(3), np.eye(3), g_diff, g_disc, field=relay, heuristic_seed=7
    )
    # the ring's true connectivity is far below 1, so c* is much larger than
    # the value obtained when lambda2 is taken as 1
    lam2 = 2 * (1 - np.cos(2 * np.pi / 30))
    assert report.lambda2 == pytest.approx(lam2, abs=1e-9)
    assert report.c_star == pytest.approx(50.3121463 / lam2, rel=1e-6)
    assert ps.critical_gains(report.mu2_q, 1.0, 1.0, 1.0, 1.0, 1.0)[0] == pytest.approx(
        50.312, abs=2e-3
    )
    assert report.mu_inf_m == 4.0
    assert report.delta_method == "heuristic"
    assert not report.delta_certified
    assert report.certificate_verified is True
    # one vertex above the cap: the same heuristic report
    monkeypatch.setattr(pwsync.thresholds, "EXACT_VERTEX_CAP", 29)
    assert report == ps.compute_thresholds(
        relay_cert, np.eye(3), np.eye(3), g_diff, g_disc, field=relay, heuristic_seed=7
    )


def test_zero_jump_budget_zeroes_discontinuous_gain():
    report = ps.compute_thresholds(
        smooth_cert(2, q_scale=1.0), np.eye(2), np.eye(2), ps.ring_graph(6), ps.ring_graph(6)
    )
    assert report.cd_star == 0.0


def test_nonpositive_mu2_q_allows_any_positive_gain():
    report = ps.compute_thresholds(
        smooth_cert(2, q_scale=-1.0), np.eye(2), np.eye(2), ps.ring_graph(6), ps.ring_graph(6)
    )
    assert report.c_star <= 0.0


def test_report_recomputes_bit_for_bit(relay_cert, monkeypatch):
    g_diff, g_disc = ps.ring_graph(8), ps.erdos_renyi_graph(8, 0.4, seed=1)
    report = ps.compute_thresholds(relay_cert, np.eye(3), np.eye(3), g_diff, g_disc)
    c_star, cd_star = ps.critical_gains(
        report.mu2_q,
        report.lambda2,
        report.mu2_lower_p_gamma,
        report.mu_inf_m,
        report.delta_d,
        report.mu_inf_lower_p_gamma_d,
    )
    assert report.c_star == c_star
    assert report.cd_star == cd_star
    assert report.delta_method == "exact"
    assert report.delta_certified
    # a graph exactly at the cap is still enumerated exactly
    monkeypatch.setattr(pwsync.thresholds, "EXACT_VERTEX_CAP", 8)
    assert report == ps.compute_thresholds(relay_cert, np.eye(3), np.eye(3), g_diff, g_disc)


def test_adding_discontinuous_edges_never_raises_cd_star(relay_cert):
    rng = np.random.default_rng(11)
    gamma = np.eye(3)
    checked = 0
    while checked < 10:
        g = random_connected_graph(rng, 5, 10)
        absent = [
            (i, j)
            for i in range(g.n_vertices)
            for j in range(i + 1, g.n_vertices)
            if (i, j) not in set(g.edges)
        ]
        if not absent:
            continue
        extra = absent[int(rng.integers(len(absent)))]
        g_diff = ps.ring_graph(g.n_vertices)
        before = ps.compute_thresholds(relay_cert, gamma, gamma, g_diff, g).cd_star
        bigger = ps.Graph(g.n_vertices, g.edges + (extra,))
        after = ps.compute_thresholds(relay_cert, gamma, gamma, g_diff, bigger).cd_star
        assert after <= before + 1e-12
        checked += 1


def test_scaling_gamma_d_divides_cd_star_exactly(relay_cert):
    g_diff = ps.ring_graph(6)
    g_disc = ps.erdos_renyi_graph(6, 0.5, seed=3)
    base = ps.compute_thresholds(relay_cert, np.eye(3), np.eye(3), g_diff, g_disc)
    doubled = ps.compute_thresholds(relay_cert, np.eye(3), 2.0 * np.eye(3), g_diff, g_disc)
    assert doubled.cd_star == base.cd_star / 2.0
    tripled = ps.compute_thresholds(relay_cert, np.eye(3), 3.0 * np.eye(3), g_diff, g_disc)
    assert tripled.cd_star == pytest.approx(base.cd_star / 3.0, rel=1e-15)


# ----------------------------------------------------------------------------
# Hypothesis violations
# ----------------------------------------------------------------------------


def test_disconnected_diffusive_layer_named(relay_cert):
    disconnected = ps.Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="diffusive layer graph is not connected"):
        ps.compute_thresholds(relay_cert, np.eye(3), np.eye(3), disconnected, ps.ring_graph(4))


def test_disconnected_discontinuous_layer_named(relay_cert):
    disconnected = ps.Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="discontinuous layer graph is not connected"):
        ps.compute_thresholds(relay_cert, np.eye(3), np.eye(3), ps.ring_graph(4), disconnected)


def test_nonpositive_inner_coupling_measures_named(relay_cert):
    g = ps.ring_graph(4)
    with pytest.raises(ValueError, match="mu2_lower"):
        ps.compute_thresholds(relay_cert, -np.eye(3), np.eye(3), g, g)
    with pytest.raises(ValueError, match="mu_inf_lower"):
        ps.compute_thresholds(relay_cert, np.eye(3), -np.eye(3), g, g)


def test_nan_inner_coupling_measure_is_a_violated_hypothesis(relay_cert):
    # NaN > tolerance is false, so a NaN measure fails the strict-positivity clause.
    g = ps.ring_graph(4)
    gamma_d = np.eye(3)
    gamma_d[1, 1] = np.nan
    match = r"hypothesis violated: mu_inf_lower\(P @ Gamma_d\) = nan is not strictly positive"
    with pytest.raises(ValueError, match=match):
        ps.compute_thresholds(relay_cert, np.eye(3), gamma_d, g, g)
    with pytest.raises(ValueError, match=match):
        ps.resilience_report(g, [[]], relay_cert, gamma_d)


def test_mismatched_layer_sizes_rejected(relay_cert):
    with pytest.raises(ValueError, match="vertex set"):
        ps.compute_thresholds(relay_cert, np.eye(3), np.eye(3), ps.ring_graph(4), ps.ring_graph(5))


def test_falsified_certificate_is_recorded_not_raised(relay):
    bare = ps.SigmaQuadCertificate(np.eye(3), relay.a, np.zeros((3, 3)))
    report = ps.compute_thresholds(
        bare, np.eye(3), np.eye(3), ps.ring_graph(6), ps.ring_graph(6), field=relay
    )
    assert report.certificate_verified is False


def test_certificate_check_skipped_without_field(relay_cert):
    report = ps.compute_thresholds(
        relay_cert, np.eye(3), np.eye(3), ps.ring_graph(6), ps.ring_graph(6)
    )
    assert report.certificate_verified is None


# ----------------------------------------------------------------------------
# Resilience scenarios
# ----------------------------------------------------------------------------


def test_ring_edge_removal_doubles_cd_star(relay_cert):
    ring = ps.ring_graph(10)
    results = ps.resilience_report(ring, [[], [(0, 9)]], relay_cert, np.eye(3))
    by_label = {r.label: r for r in results}
    assert by_label["scenario_0"].delta == pytest.approx(0.4, abs=1e-12)
    assert by_label["scenario_1"].delta == pytest.approx(0.2, abs=1e-12)
    assert by_label["scenario_1"].cd_star == pytest.approx(
        2.0 * by_label["scenario_0"].cd_star, rel=1e-12
    )
    # sorted by cd_star: the intact ring first
    assert results[0].label == "scenario_0"


def test_disconnecting_scenario_reported_not_fatal(relay_cert):
    ring = ps.ring_graph(6)
    results = ps.resilience_report(
        ring,
        [[(0, 1)], [(0, 1), (1, 2)]],
        relay_cert,
        np.eye(3),
        labels=["one", "isolate"],
    )
    by_label = {r.label: r for r in results}
    assert by_label["one"].error is None
    assert by_label["isolate"].error is not None
    assert "disconnect" in by_label["isolate"].error
    # error rows sort last
    assert results[-1].label == "isolate"


def test_empty_scenario_list():
    assert ps.resilience_report(ps.ring_graph(5), [], ps.relay_certificate(), np.eye(3)) == []
