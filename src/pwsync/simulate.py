"""Fixed-step simulation of the two-layer coupled network.

Node i obeys  dx_i/dt = f(x_i) + u_i  with the control

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

The loop advances the state one step at a time into a buffer that holds a
block of steps. The bookkeeping runs once per block, vectorised over its
steps: e_tot, the divergence check and the decimated trajectory frames. A
run is truncated at the first step whose e_tot is not finite; steps that
the block computed past it are discarded.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

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
        for name, gain in (("c", self.c), ("cd", self.cd)):
            if not np.isfinite(gain):
                raise ValueError(f"{name} must be finite, got {gain!r}")
        if not np.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end!r}")
        if not (0 < self.dt < self.t_end):
            raise ValueError("need 0 < dt < t_end")
        if self.sign_mode not in ("exact", "smoothed"):
            raise ValueError(f"sign_mode must be 'exact' or 'smoothed', got {self.sign_mode!r}")
        if not np.isfinite(2.0 * self.init_amplitude):
            # rng.uniform(-a, a) needs the range 2a to be a finite float.
            raise ValueError(f"init_amplitude must be finite, as must twice it; got {self.init_amplitude!r}")
        if not self.smooth_epsilon > 0:
            raise ValueError(f"smooth_epsilon must be > 0, got {self.smooth_epsilon!r}")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if self.initial_states is not None:
            x0 = np.asarray(self.initial_states, dtype=np.float64)
            if x0.shape != (self.n_nodes, n):
                raise ValueError(f"initial states must be {self.n_nodes}x{n}, got {x0.shape}")
            if not np.all(np.isfinite(x0)):
                raise ValueError("initial_states must be finite")
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
    """Per-step total error series plus a decimated state trajectory, and the config that ran."""

    times: np.ndarray
    e_tot_series: np.ndarray
    final_states: np.ndarray
    config: SimConfig
    trajectory_times: np.ndarray | None = None
    trajectory: np.ndarray | None = None  # (frames, N, n)
    diverged: bool = False
    divergence_step: int | None = None  # first step with a non-finite e_tot


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


def _node_errors(states: np.ndarray) -> np.ndarray:
    """Per-node errors of a stack (..., N, n) of states: each node's 2-norm distance from the average."""
    dev = states - states.mean(axis=-2, keepdims=True)
    dev *= dev
    return np.sqrt(dev.sum(axis=-1))


def error_metrics(states: np.ndarray) -> tuple[float, np.ndarray]:
    """Total synchronization error and per-node errors.

    Per-node error is the 2-norm of the deviation from the average state;
    the total error is the mean of those norms.
    """
    per_node = _node_errors(np.asarray(states, dtype=np.float64))
    return float(per_node.mean()), per_node


# Steps per block of the Euler loop: about 256 KB of stacked states, at most 256 steps.
_BLOCK_BYTES = 1 << 18
_MAX_BLOCK_STEPS = 256


def simulate(config: SimConfig) -> SimulationRun:
    """Explicit-Euler run; e_tot is recorded at every step.

    Deterministic for a fixed config (including seed). The run is truncated
    at the first step whose e_tot is not finite (a non-finite state entry
    makes its whole column of deviations non-finite, so this also catches
    a non-finite state) and flagged; final_states is then the state at the
    step before.
    """
    x0 = config.initial()
    n_steps = int(round(config.t_end / config.dt))
    dt = config.dt
    decimation = config.decimation

    drift = config.node_field.evaluate_batch
    u = _coupling_operator(config)

    times = np.arange(n_steps + 1) * dt
    e_tot = np.empty(n_steps + 1)
    e_tot[0], _ = error_metrics(x0)

    # Row 0 holds the state entering the block; rows 1..m the block's steps.
    block = max(1, min(_MAX_BLOCK_STEPS, _BLOCK_BYTES // x0.nbytes, n_steps))
    buf = np.empty((block + 1,) + x0.shape)
    buf[0] = x0
    frames, frame_steps = [x0[None]], [np.zeros(1, dtype=np.int64)]

    divergence_step = None
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, block):
            stop = min(start + block, n_steps + 1)
            states = buf[1 : stop - start + 1]
            x = buf[0]
            for x_next in states:
                np.add(x, dt * (drift(x) + u(x)), out=x_next)
                x = x_next
            e_blk = e_tot[start:stop]
            _node_errors(states).mean(axis=1, out=e_blk)
            bad = np.flatnonzero(~np.isfinite(e_blk))
            if bad.size:  # keep only the steps before the first non-finite e_tot
                divergence_step = start + int(bad[0])
                stop = divergence_step
            if config.store_trajectory:
                ks = np.arange(start, stop)
                ks = ks[(ks % decimation == 0) | (ks == n_steps)]
                frames.append(buf[ks - start + 1])
                frame_steps.append(ks)
            buf[0] = buf[stop - start]
            if divergence_step is not None:
                break

    if divergence_step is not None:
        times = times[:divergence_step]
        e_tot = e_tot[:divergence_step]

    run = SimulationRun(
        times=times,
        e_tot_series=e_tot,
        final_states=buf[0].copy(),
        config=copy.copy(config),
        diverged=divergence_step is not None,
        divergence_step=divergence_step,
    )
    if config.store_trajectory:
        run.trajectory_times = np.concatenate(frame_steps).astype(np.float64) * dt
        run.trajectory = np.concatenate(frames)
    return run


def _graph_hash(g: Graph) -> str:
    return hashlib.sha256(graph_to_text(g).encode("ascii")).hexdigest()


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
    step_of_frame = np.rint(run.trajectory_times / run.config.dt).astype(int)
    node_errors = _node_errors(run.trajectory) if per_node_errors else None
    for frame, k in enumerate(step_of_frame):
        row = [_fmt(run.times[k]), _fmt(run.e_tot_series[k])]
        if per_node_errors:
            row.extend(_fmt(v) for v in node_errors[frame])
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_run_metadata(run: SimulationRun, path) -> None:
    """Sidecar document describing the run (gains, seeds, step, graph hashes)."""
    config = run.config
    meta = {
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
        "diverged": run.diverged,
        "e_tot_initial": float(run.e_tot_series[0]),
        "e_tot_final": float(run.e_tot_series[-1]),
        "n_steps_recorded": int(run.times.shape[0] - 1),
    }
    if run.diverged:
        meta["divergence_step"] = run.divergence_step
    with open(path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
