from __future__ import annotations

import functools
import importlib
import json

import numpy as np
import pytest

import pwsync as ps
from pwsync.cli import AUTO_GAIN_FACTOR

sim_module = importlib.import_module("pwsync.simulate")


def free_particle(n: int = 1) -> ps.PwsVectorField:
    return ps.PwsVectorField(a=np.zeros((n, n)))


def two_node_config(**kwargs) -> ps.SimConfig:
    g = ps.path_graph(2)
    defaults = dict(
        node_field=free_particle(),
        graph_diffusive=g,
        graph_discontinuous=g,
        c=0.0,
        cd=1.0,
        dt=1e-3,
        t_end=0.7,
        initial_states=np.array([[0.5], [-0.5]]),
        decimation=1,
    )
    defaults.update(kwargs)
    return ps.SimConfig(**defaults)


# ----------------------------------------------------------------------------
# Coupling law
# ----------------------------------------------------------------------------


def test_coupling_vanishes_on_synchronized_states(relay):
    g = ps.ring_graph(5)
    cfg = ps.SimConfig(
        node_field=relay, graph_diffusive=g, graph_discontinuous=g, c=3.0, cd=2.0, dt=1e-3, t_end=1.0
    )
    states = np.tile([1.2, -0.4, 0.9], (5, 1))
    assert np.max(np.abs(ps.coupling(states, cfg))) <= 1e-12


def test_coupling_two_node_hand_expansion():
    # x0 - x1 = (2, 0): u0 = (x1 - x0) + sign(x1 - x0) = (-3, 0)
    g = ps.path_graph(2)
    cfg = ps.SimConfig(
        node_field=free_particle(2), graph_diffusive=g, graph_discontinuous=g,
        c=1.0, cd=1.0, dt=1e-3, t_end=1.0,
    )
    states = np.array([[2.0, 0.0], [0.0, 0.0]])
    u = ps.coupling(states, cfg)
    np.testing.assert_allclose(u[0], [-3.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(u[1], [3.0, 0.0], atol=1e-15)


def test_zero_gains_zero_coupling():
    g = ps.ring_graph(4)
    cfg = ps.SimConfig(
        node_field=free_particle(2), graph_diffusive=g, graph_discontinuous=g,
        c=0.0, cd=0.0, dt=1e-3, t_end=1.0,
    )
    states = np.random.default_rng(0).normal(size=(4, 2))
    assert np.max(np.abs(ps.coupling(states, cfg))) == 0.0


# The graph family of test_incidence_times_transpose_equals_laplacian_exactly,
# plus one larger sparse layer.
COUPLING_GRAPHS = [
    ps.complete_graph(6),
    ps.star_graph(7),
    ps.path_graph(5),
    ps.ring_graph(8),
    ps.nearest_neighbours_graph(9, 2),
    ps.erdos_renyi_graph(10, 0.4, seed=3),
    ps.erdos_renyi_graph(200, 0.05, seed=1),
]


def _layer_pairs():
    for g in COUPLING_GRAPHS:
        edgeless = ps.Graph(g.n_vertices)
        yield g, g
        yield g, edgeless
        yield edgeless, g


def _dense_coupling(states, cfg):
    """-(B B^T X) c Gamma^T - (B_d s(B_d^T X)) cd Gamma_d^T from dense incidence matrices."""
    b = ps.incidence(cfg.graph_diffusive).astype(np.float64)
    b_d = ps.incidence(cfg.graph_discontinuous).astype(np.float64)
    y_d = b_d.T @ states
    s = np.tanh(y_d / cfg.smooth_epsilon) if cfg.sign_mode == "smoothed" else np.sign(y_d)
    return -(b @ (b.T @ states)) @ (cfg.c * cfg.gamma.T) - (b_d @ s) @ (cfg.cd * cfg.gamma_d.T)


def _max_degree(g):
    return int(g.degrees().max())


@pytest.mark.parametrize("sign_mode", ["exact", "smoothed"])
@pytest.mark.parametrize("g_diff, g_disc", list(_layer_pairs()))
def test_coupling_matches_dense_incidence_reference(g_diff, g_disc, sign_mode):
    rng = np.random.default_rng(g_diff.n_vertices + 3 * g_disc.n_edges)
    n = 3
    cfg = ps.SimConfig(
        node_field=free_particle(n), graph_diffusive=g_diff, graph_discontinuous=g_disc,
        c=37.5, cd=2.25, gamma=rng.normal(size=(n, n)), gamma_d=rng.normal(size=(n, n)),
        dt=1e-3, t_end=1.0, sign_mode=sign_mode, smooth_epsilon=0.3,
    )
    states = rng.normal(scale=5.0, size=(g_diff.n_vertices, n))
    u = ps.coupling(states, cfg)
    ref = _dense_coupling(states, cfg)
    # Per-node sums of at most two terms, or of small integers (exact sign),
    # cannot depend on the summation order; otherwise the last bit may move.
    order_free = _max_degree(g_diff) <= 2 and (
        sign_mode == "exact" or _max_degree(g_disc) <= 2
    )
    if order_free:
        assert np.array_equal(u, ref)
    else:
        np.testing.assert_allclose(u, ref, rtol=1e-12, atol=0)
    synced = np.tile(states[0], (g_diff.n_vertices, 1))
    assert np.all(ps.coupling(synced, cfg) == 0.0)


# ----------------------------------------------------------------------------
# Error metrics
# ----------------------------------------------------------------------------


def test_error_metrics_synchronized():
    e_tot, per_node = ps.error_metrics(np.tile([1.0, 2.0], (4, 1)))
    assert e_tot == 0.0
    assert np.array_equal(per_node, np.zeros(4))


def test_error_metrics_two_opposite_nodes():
    e_tot, per_node = ps.error_metrics(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert e_tot == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(per_node, [1.0, 1.0], atol=1e-15)


def test_error_metrics_three_scalar_nodes():
    e_tot, per_node = ps.error_metrics(np.array([[1.0], [0.0], [-1.0]]))
    assert e_tot == pytest.approx(2.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(per_node, [1.0, 0.0, 1.0], atol=1e-15)


# ----------------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------------


def test_synchronization_manifold_is_invariant(relay):
    g = ps.ring_graph(4)
    x0 = np.tile([0.3, -1.0, 2.0], (4, 1))
    cfg = ps.SimConfig(
        node_field=relay, graph_diffusive=g, graph_discontinuous=g,
        c=5.0, cd=1.0, dt=1e-3, t_end=0.5, initial_states=x0,
    )
    run = ps.simulate(cfg)
    assert run.e_tot_series.max() <= 1e-12


def test_errors_sum_to_zero_along_run(relay):
    g = ps.erdos_renyi_graph(6, 0.5, seed=2)
    cfg = ps.SimConfig(
        node_field=relay, graph_diffusive=g, graph_discontinuous=g,
        c=2.0, cd=0.5, dt=1e-3, t_end=0.5, init_seed=4,
    )
    run = ps.simulate(cfg)
    for frame in run.trajectory:
        errors = frame - frame.mean(axis=0)
        assert np.max(np.abs(errors.sum(axis=0))) <= 1e-10
    assert np.all(run.e_tot_series >= 0.0)


def test_two_node_sliding_reaches_band():
    # the state difference closes at rate 2*cd, then chatters within 2*cd*dt
    cfg = two_node_config()
    run = ps.simulate(cfg)
    diff = np.abs(run.trajectory[:, 0, 0] - run.trajectory[:, 1, 0])
    t_reach = diff[0] / (2.0 * cfg.cd) + 10 * cfg.dt
    after = run.trajectory_times >= t_reach
    assert diff[after].max() <= 2 * cfg.cd * cfg.dt + 1e-12
    # exact linear decrease rate before the band: slope -2*cd
    early = run.trajectory_times <= 0.2
    slopes = np.diff(diff[early]) / cfg.dt
    np.testing.assert_allclose(slopes, -2.0 * cfg.cd, atol=1e-9)


def test_halving_dt_shifts_final_error_within_band():
    run_a = ps.simulate(two_node_config(dt=1e-3))
    run_b = ps.simulate(two_node_config(dt=5e-4))
    gap = abs(run_a.e_tot_series[-1] - run_b.e_tot_series[-1])
    assert gap <= 2 * 1e-3  # chattering band of the coarser step


def test_identical_config_reproduces_run_exactly(relay):
    g = ps.erdos_renyi_graph(5, 0.5, seed=9)
    cfg = dict(
        node_field=relay, graph_diffusive=g, graph_discontinuous=g,
        c=3.0, cd=0.7, dt=1e-3, t_end=0.3, init_seed=11,
    )
    run1 = ps.simulate(ps.SimConfig(**cfg))
    run2 = ps.simulate(ps.SimConfig(**cfg))
    assert np.array_equal(run1.e_tot_series, run2.e_tot_series)
    assert np.array_equal(run1.final_states, run2.final_states)


def test_divergence_is_truncated_and_flagged(tmp_path):
    g = ps.ring_graph(4)
    cfg = ps.SimConfig(
        node_field=free_particle(1), graph_diffusive=g, graph_discontinuous=g,
        c=1000.0, cd=0.0, dt=0.01, t_end=50.0, init_seed=0,  # Euler-unstable
    )
    run = ps.simulate(cfg)
    assert run.diverged
    assert np.all(np.isfinite(run.e_tot_series))
    assert run.times.shape == run.e_tot_series.shape
    assert run.times[-1] < 50.0
    assert run.divergence_step == run.times.shape[0]
    path = tmp_path / "meta.json"
    ps.write_run_metadata(run, path)
    meta = json.loads(path.read_text())
    assert meta["diverged"] is True
    assert meta["divergence_step"] == run.divergence_step


@pytest.mark.parametrize("store_trajectory", [False, True])
def test_diverged_run_keeps_last_finite_state(relay, store_trajectory):
    # explicit Euler is unstable here (dt * c * lambda_max(L) is about 4.8)
    cfg = ps.SimConfig(
        node_field=relay,
        graph_diffusive=ps.ring_graph(30),
        graph_discontinuous=ps.erdos_renyi_graph(30, 0.2, seed=0),
        c=1208.74, cd=4.536, dt=1e-3, t_end=1.0, init_seed=0,
        store_trajectory=store_trajectory,
    )
    run = ps.simulate(cfg)
    assert run.diverged and run.times.shape[0] - 1 == 264
    assert ps.error_metrics(run.final_states)[0] == pytest.approx(run.e_tot_series[-1], rel=1e-12)
    assert not np.array_equal(run.final_states, cfg.initial())


def test_smoothed_sign_mode_runs_clean(relay):
    g = ps.ring_graph(4)
    cfg = ps.SimConfig(
        node_field=free_particle(1), graph_diffusive=g, graph_discontinuous=g,
        c=0.0, cd=1.0, dt=1e-3, t_end=1.0,
        initial_states=np.array([[1.0], [0.5], [-0.5], [-1.0]]),
        sign_mode="smoothed", smooth_epsilon=0.05,
    )
    run = ps.simulate(cfg)
    assert run.e_tot_series[-1] < 0.1 * run.e_tot_series[0]


def test_above_threshold_gains_synchronize_relay_network(relay, relay_cert):
    # desk-scale sufficiency: 1.05x the computed gains with the true
    # connectivity and the exact minimum density
    n = 8
    g_diff = ps.ring_graph(n)
    g_disc = ps.erdos_renyi_graph(n, 0.3, seed=42)
    report = ps.compute_thresholds(relay_cert, np.eye(3), np.eye(3), g_diff, g_disc)
    assert report.delta_certified
    cfg = ps.SimConfig(
        node_field=relay, graph_diffusive=g_diff, graph_discontinuous=g_disc,
        c=1.05 * report.c_star, cd=1.05 * report.cd_star,
        dt=1e-4, t_end=5.0, init_seed=1, store_trajectory=False,
    )
    run = ps.simulate(cfg)
    assert not run.diverged
    assert run.e_tot_series[-1] < 0.01 * run.e_tot_series[0]


# ----------------------------------------------------------------------------
# Block-deferred Euler loop against the per-step loop
# ----------------------------------------------------------------------------


def _per_step_reference(config: ps.SimConfig) -> ps.SimulationRun:
    """The Euler loop with e_tot and a finiteness check after every step."""
    x = config.initial()
    n_steps = int(round(config.t_end / config.dt))
    field_ = config.node_field
    u = sim_module._coupling_operator(config)
    a_t = field_.a.T.copy()
    switch = [(term.gain, term.coordinate) for term in field_.switch_terms]
    times = np.arange(n_steps + 1) * config.dt
    e_tot = np.empty(n_steps + 1)
    e_tot[0], _ = ps.error_metrics(x)
    frames, frame_idx = [x.copy()], [0]
    diverged = False
    last = n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            drift = x @ a_t + field_.d
            for gain, coord in switch:
                drift -= np.sign(x[:, coord])[:, None] * gain
            x_next = x + config.dt * (drift + u(x))
            dev = x_next - x_next.mean(axis=0)
            e_tot[k] = np.sqrt((dev * dev).sum(axis=1)).mean()
            if not (np.all(np.isfinite(x_next)) and np.isfinite(e_tot[k])):
                diverged = True
                last = k - 1
                break
            x = x_next
            if k % config.decimation == 0 or k == n_steps:
                frames.append(x.copy())
                frame_idx.append(k)
    run = ps.SimulationRun(
        times=times[: last + 1], e_tot_series=e_tot[: last + 1], final_states=x, config=config,
        diverged=diverged,
    )
    if config.store_trajectory:
        run.trajectory_times = np.asarray(frame_idx, dtype=np.float64) * config.dt
        run.trajectory = np.stack(frames)
    return run


@functools.lru_cache(maxsize=None)
def _paper_demo_gains(seed: int):
    g_diff = ps.generate_topology("ring", 30)
    g_disc = ps.generate_topology("erdos_renyi", 30, p=0.2, seed=seed)
    report = ps.compute_thresholds(
        ps.relay_certificate(), np.eye(3), np.eye(3), g_diff, g_disc,
        field=ps.relay_feedback_system(), heuristic_seed=seed,
    )
    return g_diff, g_disc, AUTO_GAIN_FACTOR * report.c_star, AUTO_GAIN_FACTOR * report.cd_star


def _paper_demo_config(name: str) -> ps.SimConfig:
    """One run of `pwsync paper-demo --seed 7`, shortened to 3000 steps."""
    g_diff, g_disc, c_above, cd_above = _paper_demo_gains(7)
    c, cd = (0.1, 0.001) if name == "below" else (c_above, cd_above)
    return ps.SimConfig(
        node_field=ps.relay_feedback_system(), graph_diffusive=g_diff, graph_discontinuous=g_disc,
        c=c, cd=cd, gamma=np.eye(3), gamma_d=np.eye(3), dt=1e-4, t_end=0.3, init_seed=7,
    )


def _relay_config(**kwargs) -> ps.SimConfig:
    g = kwargs.pop("g", ps.erdos_renyi_graph(6, 0.5, seed=2))
    defaults = dict(
        node_field=ps.relay_feedback_system(), graph_diffusive=g, graph_discontinuous=g,
        c=2.0, cd=0.5, dt=1e-3, t_end=0.3, init_seed=4,
    )
    defaults.update(kwargs)
    return ps.SimConfig(**defaults)


def _divergence_config(step: int, store_trajectory: bool) -> ps.SimConfig:
    """Two free particles whose difference D triples in size every step.

    dt * c = 2 exactly, so D -> -3 D; e_tot = |D| / 2 and its square first
    overflows at `step`, half a factor of 3 from the boundary either side.
    """
    dt = 2.0**-10
    d0 = 2.0 * np.sqrt(np.finfo(np.float64).max) / 3.0 ** (step - 0.5)
    return two_node_config(
        c=2048.0, cd=0.0, dt=dt, t_end=(step + 10) * dt, decimation=3,
        initial_states=np.array([[d0 / 2], [-d0 / 2]]), store_trajectory=store_trajectory,
    )


def _offset_two_switch_field() -> ps.PwsVectorField:
    return ps.PwsVectorField(
        a=np.array([[0.4, -1.0], [1.0, 0.1]]),
        d=np.array([0.3, -0.2]),
        switch_terms=(
            ps.SwitchTerm(gain=np.array([1.0, -0.5]), coordinate=0),
            ps.SwitchTerm(gain=np.array([0.2, 0.7]), coordinate=1),
        ),
    )


_RNG_GAMMAS = np.random.default_rng(5).normal(size=(2, 3, 3))

BLOCK_CASES = {
    "paper_demo_below": lambda: _paper_demo_config("below"),
    "paper_demo_above": lambda: _paper_demo_config("above"),
    "fewer_steps_than_block": lambda: _relay_config(t_end=0.05),
    "decimation_not_dividing": lambda: _relay_config(decimation=7),
    "smoothed": lambda: _relay_config(sign_mode="smoothed", smooth_epsilon=0.05),
    "offset_two_switch_terms": lambda: _relay_config(
        node_field=_offset_two_switch_field(), c=3.0, cd=1.5, decimation=4
    ),
    "non_identity_gammas": lambda: _relay_config(gamma=_RNG_GAMMAS[0], gamma_d=_RNG_GAMMAS[1]),
    "edgeless_diffusive": lambda: _relay_config(graph_diffusive=ps.Graph(6)),
    "edgeless_discontinuous": lambda: _relay_config(graph_discontinuous=ps.Graph(6)),
    "er_1000": lambda: _relay_config(
        g=ps.erdos_renyi_graph(1000, 0.008, seed=11), c=50.0, cd=5.0, dt=1e-4, t_end=157e-4
    ),
}


def _assert_same_run(run: ps.SimulationRun, ref: ps.SimulationRun) -> None:
    for name in ("times", "e_tot_series", "final_states", "trajectory", "trajectory_times"):
        got, want = getattr(run, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert np.array_equal(got, want), name
    assert run.diverged == ref.diverged


@pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "block_default"])
def block_steps(request, monkeypatch):
    """The Euler loop's largest block, forced down to 1 or 7 steps, or left as shipped."""
    if request.param is not None:
        monkeypatch.setattr(sim_module, "_MAX_BLOCK_STEPS", request.param)
    return sim_module._MAX_BLOCK_STEPS


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_loop_matches_per_step_loop(case, block_steps):
    cfg = BLOCK_CASES[case]()
    _assert_same_run(ps.simulate(cfg), _per_step_reference(cfg))


@pytest.mark.parametrize("store_trajectory", [False, True])
@pytest.mark.parametrize("where", ["step_1", "first_of_block", "last_of_block"])
def test_block_loop_truncates_divergence_like_per_step_loop(where, store_trajectory, block_steps):
    step = {"step_1": 1, "first_of_block": block_steps + 1, "last_of_block": 2 * block_steps}[where]
    cfg = _divergence_config(step, store_trajectory)
    ref = _per_step_reference(cfg)
    assert ref.diverged and ref.times.shape[0] == step  # the case diverges where it says
    run = ps.simulate(cfg)
    _assert_same_run(run, ref)
    assert run.divergence_step == step


# ----------------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------------


def test_config_validation():
    g = ps.ring_graph(4)
    with pytest.raises(ValueError, match="dt"):
        ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                     c=1.0, cd=1.0, dt=2.0, t_end=1.0)
    with pytest.raises(ValueError, match="sign_mode"):
        ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                     c=1.0, cd=1.0, sign_mode="fuzzy")
    with pytest.raises(ValueError, match="4x1"):
        ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                     c=1.0, cd=1.0, initial_states=np.zeros((3, 1)))
    with pytest.raises(ValueError, match="vertex set"):
        ps.SimConfig(node_field=free_particle(), graph_diffusive=g,
                     graph_discontinuous=ps.ring_graph(5), c=1.0, cd=1.0)
    with pytest.raises(ValueError, match="1x1"):
        ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                     c=1.0, cd=1.0, gamma=np.eye(2))
    for eps, mode in ((0.0, "smoothed"), (-1e-3, "smoothed"), (float("nan"), "exact")):
        with pytest.raises(ValueError, match="smooth_epsilon"):
            ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                         c=1.0, cd=1.0, sign_mode=mode, smooth_epsilon=eps)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="initial_states"):
            ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                         c=1.0, cd=1.0, initial_states=np.array([[0.0], [bad], [1.0], [2.0]]))
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValueError, match="t_end"):
            ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                         c=1.0, cd=1.0, t_end=t_end)
    for amplitude in (1e308, -1e308, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="init_amplitude"):
            ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                         c=1.0, cd=1.0, init_amplitude=amplitude)


@pytest.mark.parametrize("name", ["c", "cd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_config_refuses_non_finite_gain(name, bad):
    g = ps.ring_graph(4)
    gains = {"c": 1.0, "cd": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
        ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g, **gains)


@pytest.mark.parametrize("name", ["gamma", "gamma_d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_config_refuses_non_finite_inner_coupling(name, bad):
    g = ps.ring_graph(4)
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        ps.SimConfig(node_field=free_particle(), graph_diffusive=g, graph_discontinuous=g,
                     c=1.0, cd=1.0, **{name: np.array([[bad]])})


# ----------------------------------------------------------------------------
# CSV and metadata output
# ----------------------------------------------------------------------------


def test_csv_output_round_trip(tmp_path, relay):
    g = ps.ring_graph(4)
    cfg = ps.SimConfig(
        node_field=relay, graph_diffusive=g, graph_discontinuous=g,
        c=2.0, cd=0.5, dt=1e-3, t_end=0.2, init_seed=3, decimation=10,
    )
    run = ps.simulate(cfg)
    path = tmp_path / "run.csv"
    ps.write_run_csv(run, path, per_node_errors=True)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,e_tot," + ",".join(f"e_node_{i}" for i in range(4))
    assert len(lines) == 1 + len(run.trajectory_times)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == run.e_tot_series[0]
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == run.times[-1]
    assert last[1] == run.e_tot_series[-1]


def test_csv_is_byte_identical_across_runs(tmp_path, relay):
    g = ps.erdos_renyi_graph(5, 0.6, seed=1)
    cfg = dict(
        node_field=relay, graph_diffusive=g, graph_discontinuous=g,
        c=1.0, cd=0.2, dt=1e-3, t_end=0.2, init_seed=5,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ps.write_run_csv(ps.simulate(ps.SimConfig(**cfg)), p1)
    ps.write_run_csv(ps.simulate(ps.SimConfig(**cfg)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_metadata_sidecar(tmp_path, relay):
    g = ps.ring_graph(4)
    cfg = ps.SimConfig(
        node_field=relay, graph_diffusive=g, graph_discontinuous=g,
        c=2.0, cd=0.5, dt=1e-3, t_end=0.2, init_seed=3,
    )
    run = ps.simulate(cfg)
    path = tmp_path / "meta.json"
    ps.write_run_metadata(run, path)
    meta = json.loads(path.read_text())
    assert meta["c"] == 2.0 and meta["cd"] == 0.5 and meta["dt"] == 1e-3
    assert meta["init_seed"] == 3
    assert meta["diverged"] is False
    assert run.divergence_step is None and "divergence_step" not in meta
    assert len(meta["graph_diffusive_sha256"]) == 64
    assert meta["graph_diffusive_sha256"] == meta["graph_discontinuous_sha256"]
    assert meta["e_tot_final"] == run.e_tot_series[-1]
