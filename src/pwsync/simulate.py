"""Fixed-step simulation of the two-layer coupled network.

Node i obeys  dx_i/dt = f(x_i; t) + u_i  with the control

    u_i = -c   * sum_j L_ij   Gamma   (x_j - x_i)
          -c_d * sum_j L_ij^d Gamma_d sign(x_j - x_i),

which by the Laplacian zero-row-sum property reduces, stacked over nodes, to

    U = -c * (B @ B^T @ X) @ Gamma^T - c_d * (B_d @ sign(B_d^T @ X)) @ Gamma_d^T,

with B, B_d the layers' incidence matrices, applied per edge. Integration is
explicit Euler: the discontinuous right-hand side rules out naive high-order
smooth steppers, and a fixed step is the standard desk-scale surrogate for
set-valued solutions, reaching sliding sets up to a chattering band of width
O(c_d * dt). sign(0) = 0 everywhere; an optional smoothed mode replaces the
coupling sign with tanh(y / epsilon) for chattering-free visuals.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PwsVectorField
# `incidence` is unused here, but bench/tracing.py wraps pwsync.simulate.incidence.
from .graphs import Graph, graph_to_text, incidence  # noqa: F401

__all__ = [
    "SimConfig",
    "SimulationRun",
    "coupling",
    "simulate",
    "error_metrics",
    "write_run_csv",
    "write_run_metadata",
]


@dataclass
class SimConfig:
    """Configuration of one coupled-network run."""

    node_field: PwsVectorField
    graph_diffusive: Graph
    graph_discontinuous: Graph
    c: float
    cd: float
    gamma: np.ndarray | None = None
    gamma_d: np.ndarray | None = None
    dt: float = 1e-3
    t_end: float = 5.0
    initial_states: np.ndarray | None = None
    init_seed: int = 0
    init_amplitude: float = 5.0
    sign_mode: str = "exact"  # "exact" | "smoothed"
    smooth_epsilon: float = 1e-3
    decimation: int = 10
    store_trajectory: bool = True

    def __post_init__(self) -> None:
        n = self.node_field.dimension
        if self.graph_diffusive.n_vertices != self.graph_discontinuous.n_vertices:
            raise ValueError("both coupling layers must share the vertex set")
        self.gamma = np.eye(n) if self.gamma is None else np.asarray(self.gamma, dtype=np.float64)
        self.gamma_d = (
            np.eye(n) if self.gamma_d is None else np.asarray(self.gamma_d, dtype=np.float64)
        )
        if self.gamma.shape != (n, n) or self.gamma_d.shape != (n, n):
            raise ValueError(f"inner coupling matrices must be {n}x{n}")
        if not (0 < self.dt < self.t_end):
            raise ValueError("need 0 < dt < t_end")
        if self.sign_mode not in ("exact", "smoothed"):
            raise ValueError(f"sign_mode must be 'exact' or 'smoothed', got {self.sign_mode!r}")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if self.initial_states is not None:
            x0 = np.asarray(self.initial_states, dtype=np.float64)
            if x0.shape != (self.n_nodes, n):
                raise ValueError(f"initial states must be {self.n_nodes}x{n}, got {x0.shape}")
            self.initial_states = x0

    @property
    def n_nodes(self) -> int:
        return self.graph_diffusive.n_vertices

    def initial(self) -> np.ndarray:
        if self.initial_states is not None:
            return self.initial_states.copy()
        rng = np.random.default_rng(self.init_seed)
        return rng.uniform(
            -self.init_amplitude, self.init_amplitude, (self.n_nodes, self.node_field.dimension)
        )


@dataclass
class SimulationRun:
    """Per-step total error series plus a decimated state trajectory."""

    times: np.ndarray
    e_tot_series: np.ndarray
    final_states: np.ndarray
    trajectory_times: np.ndarray | None = None
    trajectory: np.ndarray | None = None  # (frames, N, n)
    diverged: bool = False
    config_summary: dict = field(default_factory=dict)


def _coupling_operator(config: SimConfig):
    """The map X -> U of stacked states (N, n) to control inputs, built once per config.

    Each layer gathers the pairwise differences y = x_u - x_v over its edges
    (B^T X) and scatters them back to both endpoints (B y), so the coupling
    is *exactly* zero on the synchronization manifold; the L @ X form leaves
    FMA-order residuals that a chaotic node field then amplifies.
    """
    n = config.node_field.dimension
    sign = np.sign if config.sign_mode == "exact" else lambda y: np.tanh(y / config.smooth_epsilon)
    layers = []
    for g, gain_t, law in (
        (config.graph_diffusive, config.c * config.gamma.T, None),
        (config.graph_discontinuous, config.cd * config.gamma_d.T, sign),
    ):
        # Flat indices into X of every coordinate of each edge's endpoints: u's row, v's row.
        uv = (np.stack(g.edge_array())[:, :, None] * n + np.arange(n)).reshape(2, -1)
        if uv.size:
            layers.append((uv, gain_t, law))

    def op(x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape)
        for uv, gain_t, law in layers:
            d = x.ravel()[uv]
            y = d - d[::-1]  # rows x_u - x_v (B^T X) and x_v - x_u, exactly its negation
            y = y if law is None else law(y)
            out -= np.bincount(uv.ravel(), y.ravel(), x.size).reshape(x.shape) @ gain_t  # B y
        return out

    return op


def coupling(states: np.ndarray, config: SimConfig) -> np.ndarray:
    """Control input of every node for the given stacked states (N, n)."""
    return _coupling_operator(config)(np.asarray(states, dtype=np.float64))


def error_metrics(states: np.ndarray) -> tuple[float, np.ndarray]:
    """Total synchronization error and per-node errors.

    Per-node error is the 2-norm of the deviation from the average state;
    the total error is the mean of those norms.
    """
    states = np.asarray(states, dtype=np.float64)
    dev = states - states.mean(axis=0)
    per_node = np.linalg.norm(dev, axis=1)
    return float(per_node.mean()), per_node


def simulate(config: SimConfig) -> SimulationRun:
    """Explicit-Euler run; e_tot is recorded at every step.

    Deterministic for a fixed config (including seed). If the state stops
    being finite the run is truncated at the last finite step and flagged;
    final_states is then the state at that step.
    """
    x = config.initial()
    n_steps = int(round(config.t_end / config.dt))
    field_ = config.node_field

    u = _coupling_operator(config)
    a_t = field_.a.T.copy()
    d_vec = field_.d
    switch = [(term.gain, term.coordinate) for term in field_.switch_terms]

    times = np.arange(n_steps + 1) * config.dt
    e_tot = np.empty(n_steps + 1)
    e_tot[0], _ = error_metrics(x)

    frames = []
    frame_idx = []
    if config.store_trajectory:
        frames.append(x.copy())
        frame_idx.append(0)

    diverged = False
    last = n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            drift = x @ a_t + d_vec
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
            if config.store_trajectory and (k % config.decimation == 0 or k == n_steps):
                frames.append(x.copy())
                frame_idx.append(k)

    if diverged:
        times = times[: last + 1]
        e_tot = e_tot[: last + 1]

    run = SimulationRun(
        times=times,
        e_tot_series=e_tot,
        final_states=x,
        diverged=diverged,
        config_summary=_config_summary(config),
    )
    if config.store_trajectory:
        run.trajectory_times = np.asarray(frame_idx, dtype=np.float64) * config.dt
        run.trajectory = np.stack(frames)
    return run


def _graph_hash(g: Graph) -> str:
    return hashlib.sha256(graph_to_text(g).encode("ascii")).hexdigest()


def _config_summary(config: SimConfig) -> dict:
    return {
        "n_nodes": config.n_nodes,
        "state_dimension": config.node_field.dimension,
        "c": config.c,
        "cd": config.cd,
        "dt": config.dt,
        "t_end": config.t_end,
        "init_seed": config.init_seed,
        "init_amplitude": config.init_amplitude,
        "sign_mode": config.sign_mode,
        "smooth_epsilon": config.smooth_epsilon,
        "decimation": config.decimation,
        "graph_diffusive_sha256": _graph_hash(config.graph_diffusive),
        "graph_discontinuous_sha256": _graph_hash(config.graph_discontinuous),
        "chattering_band_note": "sliding reached up to a band of width O(cd*dt) under the exact sign",
    }


def _fmt(x: float) -> str:
    return repr(float(x))


def write_run_csv(run: SimulationRun, path, per_node_errors: bool = False) -> None:
    """Time series at the decimated cadence: header t,e_tot[,e_node_0..].

    Full float precision (round-trip repr), so identical runs yield
    byte-identical files.
    """
    if run.trajectory is None or run.trajectory_times is None:
        raise ValueError("run was recorded without a trajectory; rerun with store_trajectory")
    n_nodes = run.final_states.shape[0]
    header = "t,e_tot"
    if per_node_errors:
        header += "," + ",".join(f"e_node_{i}" for i in range(n_nodes))
    lines = [header]
    dt = run.config_summary.get("dt", run.trajectory_times[1] if len(run.trajectory_times) > 1 else 1.0)
    step_of_frame = np.rint(run.trajectory_times / dt).astype(int)
    for frame, k in enumerate(step_of_frame):
        row = [_fmt(run.times[k]), _fmt(run.e_tot_series[k])]
        if per_node_errors:
            _, per_node = error_metrics(run.trajectory[frame])
            row.extend(_fmt(v) for v in per_node)
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_run_metadata(run: SimulationRun, path) -> None:
    """Sidecar document describing the run (gains, seeds, step, graph hashes)."""
    meta = dict(run.config_summary)
    meta["diverged"] = run.diverged
    meta["e_tot_initial"] = float(run.e_tot_series[0])
    meta["e_tot_final"] = float(run.e_tot_series[-1])
    meta["n_steps_recorded"] = int(run.times.shape[0] - 1)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
