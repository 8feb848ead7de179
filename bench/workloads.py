"""The three benchmark workloads: flagship, large_sparse and cut_exact.

Every workload calls pwsync through module attributes (`cli.main`,
`simulate.simulate`, ...), so that the tracer's wrappers see the calls.
A workload has:

- `__init__`: makes the inputs from the seed and writes them under `out`;
- `warm_up`: one untimed pass, so that lazy set-up and caches are done;
- `pipeline`: one timed pass from the first call into pwsync to the last
  output written; it fills `self.stage` with the seconds of set-up,
  certification and simulation and the node-steps simulated;
- `extras`: untimed-by-wall repetitions that steady `setup_s` (and, on
  flagship, `certify_s`), skipped in the traced run;
- `check`: compares the outputs with the oracles, raising CheckFailed;
- `micro`: per-call timings of public functions for the per-layer table.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from tracing import time_calls

cli = importlib.import_module("pwsync.cli")
dynamics = importlib.import_module("pwsync.dynamics")
graphs = importlib.import_module("pwsync.graphs")
mm = importlib.import_module("pwsync.matrix_measures")
min_density = importlib.import_module("pwsync.min_density")
presets = importlib.import_module("pwsync.presets")
simulate = importlib.import_module("pwsync.simulate")
thresholds = importlib.import_module("pwsync.thresholds")

# Gains 5 % above the sufficient ones, as `gains: auto` and paper-demo use.
GAIN_FACTOR = 1.05
# An above-threshold run synchronises when e_tot ends below this share of its start.
SYNC_RATIO = 1e-2
# Samples of the (P, Q, M) certificate check, as compute_thresholds draws.
VERIFY_SAMPLES = 10_000
# Slack for comparing densities from different cuts, each rounded on its own.
ORDER_RTOL = 1e-12


class CheckFailed(Exception):
    """An output of pwsync disagrees with an oracle or a property of the method."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _hash_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir()) if p.is_file()}


def _relay_system_doc() -> dict:
    field = presets.relay_feedback_system()
    return {
        "a": field.a.tolist(),
        "switch_terms": [
            {"gain": t.gain.tolist(), "coordinate": t.coordinate} for t in field.switch_terms
        ],
    }


def _mu2_relay() -> float:
    """mu2(Q) of the relay system with P = I: top eigenvalue of (A + A^T)/2."""
    a = np.array([[1.51, 1.0, 0.0], [-99.922, 0.0, 1.0], [-5.0, 0.0, 0.0]])
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[-1])


def _sim_config(cfg, c: float, cd: float, *, store_trajectory: bool):
    return simulate.SimConfig(
        node_field=cfg.field,
        graph_diffusive=cfg.g_diffusive,
        graph_discontinuous=cfg.g_discontinuous,
        c=c,
        cd=cd,
        gamma=cfg.gamma,
        gamma_d=cfg.gamma_d,
        dt=cfg.dt,
        t_end=cfg.t_end,
        init_seed=cfg.seed,
        init_amplitude=cfg.init_amplitude,
        decimation=cfg.decimation,
        store_trajectory=store_trajectory,
    )


def _edges(g) -> np.ndarray:
    return np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)


def _coupling_micro(sim_cfg) -> dict[str, float]:
    """Per-call cost of coupling() per layer (the other layer edgeless),
    error_metrics() and the node field, on the run's initial states."""
    x = sim_cfg.initial()
    n = sim_cfg.n_nodes
    empty = graphs.Graph(n, ())
    diffusive_only = simulate.SimConfig(
        sim_cfg.node_field, sim_cfg.graph_diffusive, empty, sim_cfg.c, sim_cfg.cd,
        gamma=sim_cfg.gamma, gamma_d=sim_cfg.gamma_d, dt=sim_cfg.dt, t_end=sim_cfg.t_end,
    )
    discontinuous_only = simulate.SimConfig(
        sim_cfg.node_field, empty, sim_cfg.graph_discontinuous, sim_cfg.c, sim_cfg.cd,
        gamma=sim_cfg.gamma, gamma_d=sim_cfg.gamma_d, dt=sim_cfg.dt, t_end=sim_cfg.t_end,
    )
    return {
        "simulate.coupling_diffusive_us": 1e6 * time_calls(simulate.coupling, x, diffusive_only),
        "simulate.coupling_discontinuous_us": 1e6 * time_calls(simulate.coupling, x, discontinuous_only),
        "simulate.error_metrics_us": 1e6 * time_calls(simulate.error_metrics, x),
        "dynamics.field_eval_us": 1e6 * time_calls(sim_cfg.node_field.evaluate_batch, x),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out
        self.out.mkdir(parents=True, exist_ok=True)
        self.stage: dict[str, float] = {}
        self.certify_samples: list[float] = []

    def warm_up(self) -> None:
        self.pipeline()

    def heuristic_over_exact(self) -> float:
        return 0.0


# ----------------------------------------------------------------------------
# flagship: `pwsync paper-demo` at its defaults
# ----------------------------------------------------------------------------


class Flagship(Workload):
    """paper-demo: N = 30, ring + Erdos-Renyi p = 0.2, two runs of 20k steps.

    The demo runs with no options but --out, so its seed is its default 7
    and this workload does not depend on the benchmark seed. Simulation
    time is read by a bare timer around `pwsync.cli.simulate`, since the
    runs happen inside the demo.
    """

    name = "flagship"
    n = 30
    demo_seed = 7
    setup_reps = 200

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        self.hashes: list[dict[str, str]] = []
        original = cli.simulate

        def timed_simulate(config):
            t0 = time.perf_counter()
            run = original(config)
            self.stage["simulate"] += time.perf_counter() - t0
            self.stage["node_steps"] += config.n_nodes * (run.times.shape[0] - 1)
            return run

        cli.simulate = timed_simulate

    def _inputs(self):
        field = presets.relay_feedback_system()
        cert = presets.relay_certificate()
        g_diff = graphs.generate_topology("ring", self.n)
        g_disc = graphs.generate_topology("erdos_renyi", self.n, p=0.2, seed=self.demo_seed)
        return field, cert, g_diff, g_disc

    def pipeline(self) -> None:
        self.stage = {"simulate": 0.0, "node_steps": 0}
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["paper-demo", "--out", str(self.out)])
        if rc != 0:
            raise RuntimeError(f"paper-demo exited with {rc}")
        self.hashes.append(_hash_dir(self.out))

    def warm_up(self) -> None:
        super().warm_up()
        self.hashes.clear()

    def extras(self) -> list[float]:
        samples = []
        for _ in range(self.setup_reps):
            t0 = time.perf_counter()
            inputs = self._inputs()
            samples.append(time.perf_counter() - t0)
        field, cert, g_diff, g_disc = inputs
        eye = np.eye(3)
        t0 = time.perf_counter()
        thresholds.compute_thresholds(cert, eye, eye, g_diff, g_disc, field=field, heuristic_seed=self.demo_seed)
        self.certify_samples.append(time.perf_counter() - t0)
        return samples

    def _summary(self) -> dict[str, float]:
        text = (self.out / "summary.txt").read_text(encoding="ascii")
        rows = {
            "lambda2": r"lambda2\(L\) diffusive layer",
            "delta": r"delta discontinuous layer \([^)]*\)",
            "c_star": r"c_star",
            "cd_star": r"cd_star",
        }
        out = {}
        for key, label in rows.items():
            m = re.search(rf"^\s*{label}\s+(\S+)$", text, re.MULTILINE)
            require(m is not None, f"summary.txt has no {key} row")
            out[key] = float(m.group(1))
        m = re.search(r"sparsest cut found: N1=(\d+), N2=(\d+), b=(\d+)", text)
        require(m is not None, "summary.txt has no sparsest-cut row")
        out["n1"], out["n2"], out["b"] = (int(v) for v in m.groups())
        for name in ("below", "above"):
            m = re.search(rf"{name}-threshold run: c=(\S+), cd=(\S+), e_tot", text)
            require(m is not None, f"summary.txt has no {name}-threshold row")
            out[f"c_{name}"], out[f"cd_{name}"] = float(m.group(1)), float(m.group(2))
        return out

    def check(self) -> None:
        require(len(self.hashes) >= 1, "no completed round")
        require(
            all(h == self.hashes[0] for h in self.hashes),
            "paper-demo output bytes differ between runs of one invocation",
        )
        s = self._summary()
        ring_l2 = 2.0 - 2.0 * math.cos(2.0 * math.pi / self.n)
        require(abs(s["lambda2"] - ring_l2) <= 1e-12, f"lambda2(ring30) {s['lambda2']} != {ring_l2}")
        diff = graphs.read_graph_file(self.out / "graph_diffusive.txt")
        disc = graphs.read_graph_file(self.out / "graph_discontinuous.txt")
        require(
            oracles.lambda2_agrees(s["lambda2"], oracles.lambda2(self.n, diff.edges)),
            "lambda2 of the diffusive layer disagrees with networkx",
        )
        # c* = mu2(Q) / (lambda2 mu2_lower(P Gamma)), with P = Gamma = I so mu2_lower = 1.
        c_star = _mu2_relay() / ring_l2
        require(math.isclose(s["c_star"], c_star, rel_tol=1e-12), f"c_star {s['c_star']} != {c_star}")
        # cd* = mu_inf(M) / (delta mu_inf_lower(P Gamma_d)), M = diag(2|B|) = diag(2, 4, 2).
        require(
            math.isclose(s["cd_star"], 4.0 / s["delta"], rel_tol=1e-12),
            f"cd_star {s['cd_star']} != 4 / delta",
        )
        require(
            math.isclose(s["c_above"], GAIN_FACTOR * s["c_star"], rel_tol=1e-12)
            and math.isclose(s["cd_above"], GAIN_FACTOR * s["cd_star"], rel_tol=1e-12),
            "above-threshold gains are not 1.05 x the thresholds",
        )
        # delta is the recounted density of the cut pwsync returns for this graph.
        cut = min_density.min_density_heuristic(disc, seed=self.demo_seed).sparsest_cut
        require(
            (cut.n1, cut.n2, cut.crossing_edges) == (s["n1"], s["n2"], s["b"]),
            "returned cut differs from the one in summary.txt",
        )
        recount = oracles.cut_density(self.n, disc.edges, cut.side1())
        require(oracles.density_agrees(s["delta"], recount), f"delta {s['delta']} != recount {recount}")
        l2_disc = oracles.lambda2(self.n, disc.edges)
        require(
            l2_disc / 2.0 <= s["delta"] * (1 + ORDER_RTOL),
            f"delta {s['delta']} < lambda2(L_d)/2 = {l2_disc / 2}",
        )
        meta = {
            name: json.loads((self.out / f"{name}_meta.json").read_text(encoding="ascii"))
            for name in ("below", "above")
        }
        above, below = meta["above"], meta["below"]
        require(not above["diverged"], "above-threshold run diverged")
        require(
            above["e_tot_final"] < SYNC_RATIO * above["e_tot_initial"],
            f"above-threshold run did not synchronise: {above['e_tot_initial']} -> {above['e_tot_final']}",
        )
        require(above["e_tot_final"] < below["e_tot_final"], "above-threshold run ends above the below run")

    def micro(self) -> dict[str, float]:
        field, cert, g_diff, g_disc = self._inputs()
        s = self._summary()
        sim_cfg = simulate.SimConfig(
            field, g_diff, g_disc, s["c_above"], s["cd_above"], dt=1e-4, t_end=2.0, init_seed=self.demo_seed
        )
        return _coupling_micro(sim_cfg)


# ----------------------------------------------------------------------------
# large_sparse: one long-ish simulate run at N = 1000 from a config file
# ----------------------------------------------------------------------------


class LargeSparse(Workload):
    """Both layers Erdos-Renyi with mean degree 8 at N = 1000; 150 Euler steps.

    Gains are 1.05 x the sufficient ones, with delta at its certified lower
    bound lambda2(L_d)/2 (pwsync has no delta at this size). The warm-up
    computes them and writes them into the config as numbers; every round
    then loads that config, certifies again and simulates with its gains.
    """

    name = "large_sparse"
    n = 1000
    mean_degree = 8
    dt = 1e-4
    steps = 150
    oracle_steps = 30

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        rng = np.random.default_rng(seed)
        s_diff, s_disc, s_init = (int(v) for v in rng.integers(2**31, size=3))
        p = self.mean_degree / (self.n - 1)
        self.doc = {
            "version": 1,
            "system": _relay_system_doc(),
            "layers": {
                "diffusive": {"kind": "erdos_renyi", "n": self.n, "p": p, "seed": s_diff},
                "discontinuous": {"kind": "erdos_renyi", "n": self.n, "p": p, "seed": s_disc},
            },
            "sim": {"dt": self.dt, "t_end": self.steps * self.dt, "seed": s_init},
            "output": {"decimation": 10},
        }
        self.config_path = self.out / "config.json"
        self.config_path.write_text(json.dumps(self.doc, indent=2), encoding="ascii")
        self.hashes: list[dict[str, str]] = []

    def _certify(self, cfg) -> tuple[float, float]:
        l2 = graphs.algebraic_connectivity(cfg.g_diffusive)
        l2_d = graphs.algebraic_connectivity(cfg.g_discontinuous)
        check = dynamics.verify_sigma_quad(cfg.field, cfg.cert, n_samples=VERIFY_SAMPLES, seed=0)
        if not check.holds:
            raise RuntimeError("sampled certificate check failed")
        c_star, cd_star = thresholds.critical_gains(
            mm.mu2(cfg.cert.q),
            l2,
            mm.mu2_lower(cfg.cert.p @ cfg.gamma),
            mm.mu_inf(cfg.cert.m),
            l2_d / 2.0,
            mm.mu_inf_lower(cfg.cert.p @ cfg.gamma_d),
        )
        self.certified = {"lambda2": l2, "lambda2_d": l2_d, "c_star": c_star, "cd_star": cd_star}
        return GAIN_FACTOR * c_star, GAIN_FACTOR * cd_star

    def warm_up(self) -> None:
        cfg = cli.load_experiment_config(self.config_path)
        c, cd = self._certify(cfg)
        self.doc["gains"] = {"c": c, "cd": cd}
        self.config_path.write_text(json.dumps(self.doc, indent=2), encoding="ascii")
        warm = _sim_config(cfg, c, cd, store_trajectory=True)
        warm.t_end = 5 * self.dt
        simulate.simulate(warm)

    def pipeline(self) -> None:
        t0 = time.perf_counter()
        cfg = cli.load_experiment_config(self.config_path)
        t1 = time.perf_counter()
        self.gains = self._certify(cfg)
        t2 = time.perf_counter()
        self.sim_cfg = _sim_config(cfg, cfg.c, cfg.cd, store_trajectory=True)
        self.run = simulate.simulate(self.sim_cfg)
        t3 = time.perf_counter()
        simulate.write_run_csv(self.run, self.out / "run.csv")
        simulate.write_run_metadata(self.run, self.out / "run_meta.json")
        self.cfg = cfg
        self.stage = {
            "setup": t1 - t0,
            "certify": t2 - t1,
            "simulate": t3 - t2,
            "node_steps": self.n * (self.run.times.shape[0] - 1),
        }
        self.hashes.append(_hash_dir(self.out))

    def extras(self) -> list[float]:
        t0 = time.perf_counter()
        cli.load_experiment_config(self.config_path)
        return [self.stage["setup"], time.perf_counter() - t0]

    def check(self) -> None:
        require(len(self.hashes) >= 1, "no completed round")
        require(all(h == self.hashes[0] for h in self.hashes), "output bytes differ between rounds")
        cfg, run, sim_cfg = self.cfg, self.run, self.sim_cfg
        require(self.gains == (cfg.c, cfg.cd), "certified gains differ from the config's")
        spec_d = oracles.laplacian_spectrum(self.n, cfg.g_diffusive.edges)
        spec_s = oracles.laplacian_spectrum(self.n, cfg.g_discontinuous.edges)
        require(
            oracles.lambda2_agrees(self.certified["lambda2"], float(spec_d[1]))
            and oracles.lambda2_agrees(self.certified["lambda2_d"], float(spec_s[1])),
            "lambda2 disagrees with networkx",
        )
        require(self.dt * cfg.c * float(spec_d[-1]) < 2.0, "diffusive Euler step outside its stability region")
        require(not run.diverged, "run diverged")
        require(run.times.shape[0] == self.steps + 1, "run did not take every step")
        e = run.e_tot_series
        require(e[-1] < SYNC_RATIO * e[0], f"e_tot did not fall: {e[0]} -> {e[-1]}")
        field = cfg.field
        reference = oracles.edge_list_e_tot(
            sim_cfg.initial(),
            self.oracle_steps,
            a=field.a,
            d=field.d,
            switch_terms=[(t.gain, t.coordinate) for t in field.switch_terms],
            diff_edges=_edges(cfg.g_diffusive),
            disc_edges=_edges(cfg.g_discontinuous),
            c=cfg.c,
            cd=cfg.cd,
            gamma=cfg.gamma,
            gamma_d=cfg.gamma_d,
            dt=self.dt,
        )
        require(
            oracles.e_tot_agree(e[: self.oracle_steps + 1], reference),
            "edge-list oracle does not reproduce the e_tot prefix",
        )
        rng = np.random.default_rng(self.seed)
        synced = np.tile(rng.uniform(-5, 5, size=(1, 3)), (self.n, 1))
        require(np.all(simulate.coupling(synced, sim_cfg) == 0.0), "coupling is not zero on a synchronised state")

    def micro(self) -> dict[str, float]:
        return _coupling_micro(self.sim_cfg)


# ----------------------------------------------------------------------------
# cut_exact: certification sweep where delta is exact (N = 14..22)
# ----------------------------------------------------------------------------


def _random_connected_graph(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    """G(n, m): m distinct edges drawn uniformly, redrawn until connected."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        pick = sorted(pairs[k] for k in rng.choice(len(pairs), size=m, replace=False))
        if _connected(n, pick):
            return pick


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v in edges:
        parent[root(u)] = root(v)
    return len({root(i) for i in range(n)}) == 1


def _graph_text(n: int, edges) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in sorted(edges)]) + "\n"


class CutExact(Workload):
    """compute_thresholds on discontinuous layers where delta is exact.

    Closed-form layers (ring 22, path 21, 2-nearest-neighbour circulant 20)
    and random layers with a fixed edge count (so that the enumeration cost
    does not depend on the seed); N = 14 is small enough for brute force.
    resilience_report runs three edge-removal scenarios on the N = 20 random
    layer. Each layer gets a 2500-step run at 1.05 x the thresholds.
    """

    name = "cut_exact"
    closed_form = (("ring", 22, None), ("path", 21, None), ("nearest_neighbours", 20, 2))
    random_sizes = ((20, 57), (21, 52), (22, 60), (14, 30))
    resilience_layer = "random_20"
    brute_force_max_n = 14
    dt = 1e-4
    steps = 2500
    setup_reps = 10

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        rng = np.random.default_rng(seed)
        self.layers: dict[str, tuple[int, list[tuple[int, int]], tuple | None]] = {}
        for kind, n, l in self.closed_form:
            if kind == "ring":
                edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
            elif kind == "path":
                edges = [(i, i + 1) for i in range(n - 1)]
            else:
                edges = sorted({tuple(sorted((i, (i + k) % n))) for i in range(n) for k in range(1, l + 1)})
            self.layers[f"{kind}_{n}"] = (n, edges, (kind, l))
        for n, m in self.random_sizes:
            self.layers[f"random_{n}"] = (n, _random_connected_graph(rng, n, m), None)
        self.configs = []
        for label, (n, edges, _) in self.layers.items():
            (self.out / f"{label}.txt").write_text(_graph_text(n, edges), encoding="ascii")
            doc = {
                "version": 1,
                "system": _relay_system_doc(),
                "layers": {"diffusive": {"kind": "ring", "n": n}, "discontinuous": {"file": f"{label}.txt"}},
                "gains": "auto",
                "sim": {"dt": self.dt, "t_end": self.steps * self.dt, "seed": int(rng.integers(2**31))},
            }
            path = self.out / f"{label}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="ascii")
            self.configs.append((label, path))
        n, edges, _ = self.layers[self.resilience_layer]
        self.scenarios = []
        for size in (1, 2, 3):
            while True:
                drop = [edges[k] for k in sorted(rng.choice(len(edges), size=size, replace=False))]
                if _connected(n, [e for e in edges if e not in drop]):
                    break
            self.scenarios.append(drop)

    def _load(self) -> dict:
        return {label: cli.load_experiment_config(path) for label, path in self.configs}

    def pipeline(self) -> None:
        t0 = time.perf_counter()
        cfgs = self._load()
        t1 = time.perf_counter()
        self.reports, self.heuristic = {}, {}
        for label, cfg in cfgs.items():
            self.reports[label] = thresholds.compute_thresholds(
                cfg.cert, cfg.gamma, cfg.gamma_d, cfg.g_diffusive, cfg.g_discontinuous,
                field=cfg.field, heuristic_seed=cfg.seed,
            )
            self.heuristic[label] = min_density.min_density_heuristic(cfg.g_discontinuous, seed=cfg.seed)
        base = cfgs[self.resilience_layer]
        self.resilience = thresholds.resilience_report(
            base.g_discontinuous, self.scenarios, base.cert, base.gamma_d, heuristic_seed=base.seed
        )
        t2 = time.perf_counter()
        self.runs = {}
        node_steps = 0
        for label, cfg in cfgs.items():
            report = self.reports[label]
            sim_cfg = _sim_config(
                cfg, GAIN_FACTOR * report.c_star, GAIN_FACTOR * report.cd_star, store_trajectory=False
            )
            run = simulate.simulate(sim_cfg)
            self.runs[label] = run
            node_steps += sim_cfg.n_nodes * (run.times.shape[0] - 1)
        t3 = time.perf_counter()
        self.cfgs = cfgs
        self.stage = {"setup": t1 - t0, "certify": t2 - t1, "simulate": t3 - t2, "node_steps": node_steps}

    def extras(self) -> list[float]:
        samples = [self.stage["setup"]]
        for _ in range(self.setup_reps):
            t0 = time.perf_counter()
            self._load()
            samples.append(time.perf_counter() - t0)
        return samples

    def heuristic_over_exact(self) -> float:
        return max(self.heuristic[k].delta / self.reports[k].delta_d for k in self.reports)

    def check(self) -> None:
        mu2_q = _mu2_relay()
        for label, (n, edges, closed) in self.layers.items():
            report, heur, run = self.reports[label], self.heuristic[label], self.runs[label]
            require(report.delta_method == "exact", f"{label}: delta is not exact")
            if closed is not None:
                exact = oracles.closed_form_min_density(closed[0], n, closed[1])
                require(
                    oracles.density_agrees(report.delta_d, exact),
                    f"{label}: delta {report.delta_d} != closed form {exact}",
                )
            if n <= self.brute_force_max_n:
                exact = oracles.brute_force_min_density(n, edges)
                require(
                    oracles.density_agrees(report.delta_d, exact),
                    f"{label}: delta {report.delta_d} != brute force {exact}",
                )
            l2_d = oracles.lambda2(n, edges)
            require(
                l2_d / 2.0 <= report.delta_d * (1 + ORDER_RTOL)
                and report.delta_d <= heur.delta * (1 + ORDER_RTOL),
                f"{label}: lambda2/2 <= delta_exact <= delta_heuristic fails: "
                f"{l2_d / 2} {report.delta_d} {heur.delta}",
            )
            require(
                oracles.density_agrees(heur.delta, oracles.cut_density(n, edges, heur.sparsest_cut.side1())),
                f"{label}: heuristic delta is not its cut's density",
            )
            ring_l2 = 2.0 - 2.0 * math.cos(2.0 * math.pi / n)
            require(math.isclose(report.c_star, mu2_q / ring_l2, rel_tol=1e-9), f"{label}: c_star")
            require(math.isclose(report.cd_star, 4.0 / report.delta_d, rel_tol=1e-12), f"{label}: cd_star")
            e = run.e_tot_series
            require(
                not run.diverged and e[-1] < SYNC_RATIO * e[0],
                f"{label}: above-threshold run did not synchronise ({e[0]} -> {e[-1]})",
            )
        n, edges, _ = self.layers[self.resilience_layer]
        base_delta = self.reports[self.resilience_layer].delta_d
        require(len(self.resilience) == len(self.scenarios), "resilience: scenario count")
        for r in self.resilience:
            require(r.error is None, f"resilience {r.label}: {r.error}")
            kept = [e for e in edges if e not in set(r.removed_edges)]
            require(len(kept) == len(edges) - len(r.removed_edges), f"resilience {r.label}: removed edges")
            require(
                r.delta <= base_delta * (1 + ORDER_RTOL),
                f"resilience {r.label}: delta grew after removing edges",
            )
            require(
                oracles.lambda2(n, kept) / 2.0 <= r.delta * (1 + ORDER_RTOL),
                f"resilience {r.label}: delta < lambda2/2",
            )
            require(math.isclose(r.cd_star, 4.0 / r.delta, rel_tol=1e-12), f"resilience {r.label}: cd_star")

    def micro(self) -> dict[str, float]:
        label = max(self.cfgs, key=lambda k: self.cfgs[k].g_discontinuous.n_edges)
        cfg, report = self.cfgs[label], self.reports[label]
        return _coupling_micro(
            _sim_config(cfg, GAIN_FACTOR * report.c_star, GAIN_FACTOR * report.cd_star, store_trajectory=False)
        )


WORKLOADS = {w.name: w for w in (Flagship, LargeSparse, CutExact)}
