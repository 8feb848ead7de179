"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each criterion prints a `[acceptance] PASS/FAIL <name>` line via the hook in
conftest.py.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time

import numpy as np
import pytest

import pwsync as ps

RELAY_A = np.array([[1.51, 1.0, 0.0], [-99.922, 0.0, 1.0], [-5.0, 0.0, 0.0]])

TABLE_ROWS = [("complete", None), ("star", None), ("path", None), ("ring", None),
              ("nearest_neighbours", 1), ("nearest_neighbours", 2)]

LAMBDA2_CLOSED_FORMS = {
    "complete": lambda n: float(n),
    "star": lambda n: 1.0,
    "path": lambda n: 2.0 * (1.0 - np.cos(np.pi / n)),
    "ring": lambda n: 2.0 * (1.0 - np.cos(2.0 * np.pi / n)),
}


def test_criterion_01_mu2_of_relay_matrix_within_tolerance_and_fast():
    ps.mu2(RELAY_A)  # warm-up (lazy LAPACK initialisation)
    best = min(
        (lambda t0: (ps.mu2(RELAY_A), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(5)
    )
    value = ps.mu2(RELAY_A)
    assert value == pytest.approx(50.312, abs=2e-3)
    assert best < 1e-3, f"mu2 of a 3x3 matrix took {best * 1e3:.3f} ms"


def test_criterion_02_mu_inf_of_jump_budget_is_exactly_four():
    single_entry = np.zeros((3, 3))
    single_entry[1, 0] = 4.0
    constructive = ps.relay_certificate().m
    assert np.array_equal(constructive, np.diag([2.0, 4.0, 2.0]))
    assert ps.mu_inf(single_entry) == 4.0
    assert ps.mu_inf(constructive) == 4.0


def test_criterion_03_discontinuous_gain_and_cut_consistency():
    _, cd_star = ps.critical_gains(50.312, 1.0, 1.0, 4.0, 1.290, 1.0)
    assert cd_star == pytest.approx(3.102, abs=2e-3)
    # published sparsest cut of the 30-node random layer: N1=17, N2=13, b=19
    identity = (30 / 2) * 19 / (17 * 13)
    assert identity == pytest.approx(1.2896, abs=5e-4)
    assert identity == pytest.approx(1.290, abs=5e-4)


def test_criterion_04_topology_table_cross_validation():
    t0 = time.perf_counter()
    for kind, l in TABLE_ROWS:
        for n in range(3, 13):
            if kind == "nearest_neighbours" and (l is None or l > (n - 1) // 2):
                continue
            g = ps.generate_topology(kind, n, l=l)
            delta = ps.min_density_exact(g).delta
            assert delta == pytest.approx(
                ps.min_density_closed_form(kind, n, l=l), abs=1e-12
            ), (kind, n, l)
            if kind in LAMBDA2_CLOSED_FORMS:
                assert ps.algebraic_connectivity(g) == pytest.approx(
                    LAMBDA2_CLOSED_FORMS[kind](n), abs=1e-9
                ), (kind, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"table cross-validation took {elapsed:.1f}s"


def test_criterion_05_star_oracle_equivalence_on_random_graphs():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(4, 11))
        p = float(rng.uniform(0.3, 0.7))
        g = ps.erdos_renyi_graph(n, p, seed=int(rng.integers(10**9)))
        exact = ps.min_density_exact(g)
        best = max(
            ps.min_a2_for_bipartition(1.0, c) for c in ps.enumerate_bipartitions(g)
        )
        assert best == pytest.approx(1.0 / exact.delta, abs=1e-12), trial

        tight = ps.StarFunctionParams(1.0, 1.0 / exact.delta, g)
        check = ps.check_global_seminegativity(tight, n_samples=100_000, seed=trial)
        assert check.passed, (trial, check.max_phi)

        generator = ps.bipartition_generator(exact.sparsest_cut)
        slack = ps.StarFunctionParams(1.0, 0.9 / exact.delta, g)
        assert ps.phi(slack, generator) > 1e-10, trial


def test_criterion_06_certificate_suite(relay, relay_cert):
    t0 = time.perf_counter()

    def scalar(relay_gain):
        return ps.PwsVectorField(
            a=np.array([[1.0]]),
            switch_terms=(ps.SwitchTerm(np.array([relay_gain]), 0),),
        )

    def cert(m):
        return ps.SigmaQuadCertificate(np.eye(1), np.eye(1), np.array([[m]]))

    inward = scalar(1.0)   # f(x) = x - sign(x)
    outward = scalar(-1.0)  # f(x) = x + sign(x)
    assert ps.verify_sigma_quad(inward, cert(0.0), seed=0).holds
    assert not ps.verify_sigma_quad(outward, cert(0.0), seed=0).holds
    assert ps.verify_sigma_quad(outward, cert(2.0), seed=0).holds

    check = ps.verify_sigma_quad(relay, relay_cert, n_samples=100_000, seed=0)
    assert check.holds and check.n_checked >= 100_000

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"certificate suite took {elapsed:.1f}s"


@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_criterion_07_sliding_benchmark(dt):
    e0 = 1.0
    g = ps.path_graph(2)
    cfg = ps.SimConfig(
        node_field=ps.PwsVectorField(a=np.zeros((1, 1))),
        graph_diffusive=g,
        graph_discontinuous=g,
        c=0.0,
        cd=1.0,
        dt=dt,
        t_end=0.6,
        initial_states=np.array([[e0 / 2.0], [-e0 / 2.0]]),
        decimation=1,
    )
    run = ps.simulate(cfg)
    diff = np.abs(run.trajectory[:, 0, 0] - run.trajectory[:, 1, 0])
    t_reach = e0 / 2.0 + 10 * dt
    after = run.trajectory_times >= t_reach
    assert after.any()
    assert diff[after].max() <= 2 * dt + 1e-12


def test_criterion_08_desk_scale_sufficiency(relay, relay_cert):
    t0 = time.perf_counter()
    gamma = np.eye(3)
    dt = 2e-4
    for n in (6, 10):
        g_diff = ps.ring_graph(n)
        for seed in range(5):
            g_disc = ps.erdos_renyi_graph(n, 0.3, seed=100 + seed)
            report = ps.compute_thresholds(relay_cert, gamma, gamma, g_diff, g_disc)
            assert report.delta_certified  # exact density, true connectivity
            above = ps.simulate(
                ps.SimConfig(
                    node_field=relay, graph_diffusive=g_diff, graph_discontinuous=g_disc,
                    c=1.05 * report.c_star, cd=1.05 * report.cd_star,
                    dt=dt, t_end=5.0, init_seed=seed, store_trajectory=False,
                )
            )
            assert not above.diverged
            assert above.e_tot_series[-1] < 0.01 * above.e_tot_series[0], (n, seed)
            below = ps.simulate(
                ps.SimConfig(
                    node_field=relay, graph_diffusive=g_diff, graph_discontinuous=g_disc,
                    c=0.1, cd=0.001,
                    dt=dt, t_end=5.0, init_seed=seed, store_trajectory=False,
                )
            )
            assert below.e_tot_series[-1] > 0.1 * below.e_tot_series[0], (n, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"desk-scale sufficiency took {elapsed:.1f}s"


# Instances for the resilience comparison: scanning seeds 0, 1, 2, ... of the
# 30-vertex p=0.2 generator, these are the first ten whose draw has minimum
# degree >= 3 (like the published instance) and admits removing 8
# sparsest-cut-crossing edges as well as 4+4 within-cluster edges under the
# rules of `_spread_removal` below. Rerunning that scan reproduces the list.
RESILIENCE_SEEDS = [46, 55, 96, 123, 192, 221, 236, 319, 381, 386]


def _spread_removal(g, candidates, count, degree_floor=3):
    """First `count` candidate edges (sorted order) whose removal keeps the
    graph connected and no endpoint below the degree floor."""
    chosen, current = [], g
    degrees = {i: int(d) for i, d in enumerate(g.degrees())}
    for edge in candidates:
        if len(chosen) == count:
            break
        u, v = edge
        if degrees[u] <= degree_floor or degrees[v] <= degree_floor:
            continue
        candidate = ps.remove_edges(current, [edge])
        if ps.is_connected(candidate):
            current = candidate
            chosen.append(edge)
            degrees[u] -= 1
            degrees[v] -= 1
    return chosen, current


def test_criterion_09_resilience_ordering():
    for seed in RESILIENCE_SEEDS:
        g = ps.erdos_renyi_graph(30, 0.2, seed=seed)
        assert int(g.degrees().min()) >= 3
        cut = ps.min_density_heuristic(g, seed=seed).sparsest_cut
        side1 = set(cut.side1())
        crossing = [e for e in g.edges if (e[0] in side1) != (e[1] in side1)]
        intra1 = [e for e in g.edges if e[0] in side1 and e[1] in side1]
        intra2 = [e for e in g.edges if e[0] not in side1 and e[1] not in side1]

        removed_inter, g_inter = _spread_removal(g, crossing, 8)
        assert len(removed_inter) == 8, seed
        removed_a, g_mid = _spread_removal(g, intra1, 4)
        removed_b, g_intra = _spread_removal(g_mid, intra2, 4)
        assert len(removed_a) + len(removed_b) == 8, seed

        delta_inter = ps.min_density_heuristic(g_inter, seed=seed).delta
        delta_intra = ps.min_density_heuristic(g_intra, seed=seed).delta
        assert delta_inter <= delta_intra + 1e-9, (seed, delta_inter, delta_intra)


def test_criterion_10_paper_demo_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "pwsync", "paper-demo", "--seed", "7",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out)
    first, second = outputs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert "below.csv" in names and "above.csv" in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # and they are the pinned seed-7 bytes
    digests = {name: hashlib.sha256((first / name).read_bytes()).hexdigest() for name in names}
    assert digests == {
        "summary.txt": "99c4785d3843493315be870e34519ab78a7bdccde9467dd1a9766af6c0617cf3",
        "above.csv": "d94eecfb5a631315a7be2c4a6e496acc50c75f0334ad305480fb0da5924f529a",
        "below.csv": "f876b92941e1bff3bb9538196b7234068cfe19e3c457ab607116c014bbde5c65",
        "above_meta.json": "5ab352d10883e4106e9cdef8020a6e384e832a04b66b53037002bc34535e849f",
        "below_meta.json": "810d730129fda1d197cf79d02622d991f380e5fcaaa891ae88e8f87387d5a2b4",
        "graph_diffusive.txt": "467c64263a7f887cd80fc78b191000b1af864061bc98b9f265b44d3c3a01fd7a",
        "graph_discontinuous.txt": "4d4754d09a87fdb280967638adf6a82e18607d9b8b1566242080772d35618fa7",
    }
    # qualitative reproduction: the above-threshold run ends closer to sync
    import json

    below = json.loads((first / "below_meta.json").read_text())
    above = json.loads((first / "above_meta.json").read_text())
    assert above["e_tot_final"] < below["e_tot_final"]
