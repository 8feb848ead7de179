"""Command-line interface.

Subcommands: topology, mindensity, thresholds, simulate, resilience,
paper-demo. Experiment configuration lives in a JSON document (see
`ExperimentConfig` below); command-line flags override document fields. Every
run is deterministic for a fixed configuration and seed, producing
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import PwsVectorField, SigmaQuadCertificate, SwitchTerm, certificate_from_decomposition
from .graphs import (
    Graph,
    generate_topology,
    graph_to_text,
    read_graph_file,
    write_graph_file,
)
from .min_density import min_density_exact, min_density_heuristic
from .presets import relay_certificate, relay_feedback_system
from .simulate import SIGN_MODES, SimConfig, SimulationRun, _fmt, simulate, write_run_csv, write_run_metadata
from .thresholds import ThresholdReport, compute_thresholds, min_density_auto, resilience_report

__all__ = ["main", "ExperimentConfig", "load_experiment_config", "ConfigError"]

CONFIG_VERSION = 1
AUTO_GAIN_FACTOR = 1.05  # strictly above c*, at/above cd*


class ConfigError(ValueError):
    """Configuration document problem; the message names the offending field."""


# ----------------------------------------------------------------------------
# Experiment configuration document
# ----------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    field: PwsVectorField
    cert: SigmaQuadCertificate
    gamma: np.ndarray
    gamma_d: np.ndarray
    g_diffusive: Graph
    g_discontinuous: Graph
    c: float | None  # None: `gains: auto`
    cd: float | None
    dt: float
    t_end: float
    seed: int
    decimation: int
    out_dir: Path
    init_amplitude: float = SimConfig.init_amplitude
    sign_mode: str = SimConfig.sign_mode
    smooth_epsilon: float = SimConfig.smooth_epsilon
    per_node_errors: bool = False


def _expect_mapping(obj, path: str, keys: tuple[str, ...]) -> dict:
    """A JSON object with no key outside `keys`; `path` is "" for the whole document."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key in obj:
        if key not in keys:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"{where}: unknown key; expected one of {', '.join(keys)}")
    return obj


def _number(value, path: str) -> float:
    """A finite JSON number as a float; strings, bools, NaN and infinities are refused, not converted."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _numbers(obj, path: str) -> np.ndarray:
    """A (nested) list of finite JSON numbers as a float array; a ragged list leaves a list entry, refused."""
    entries = np.asarray(obj, dtype=object)
    return np.array([_number(x, path) for x in entries.flat], dtype=np.float64).reshape(entries.shape)


def _matrix(obj, path: str) -> np.ndarray:
    arr = _numbers(obj, path)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{path}: expected a square matrix, got shape {arr.shape}")
    return arr


def _vector(obj, path: str, length: int) -> np.ndarray:
    arr = _numbers(obj, path).reshape(-1)
    if arr.shape != (length,):
        raise ConfigError(f"{path}: expected length {length}, got {arr.shape[0]}")
    return arr


def _string(value, path: str, allowed: tuple[str, ...] | None = None) -> str:
    """A JSON string, one of `allowed` when given; other values are refused, not converted."""
    if not isinstance(value, str) or (allowed is not None and value not in allowed):
        expected = "a string" if allowed is None else "one of " + ", ".join(map(repr, allowed))
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return value


def _integer(value, path: str) -> int:
    """A JSON integer; floats, bools and strings are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _seed(value, path: str) -> int:
    seed = _integer(value, path)
    if seed < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, got {seed}")
    return seed


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _parse_system(doc: dict) -> tuple[PwsVectorField, SigmaQuadCertificate, np.ndarray, np.ndarray]:
    system_keys = ("a", "d", "switch_terms", "p", "m", "gamma", "gamma_d")
    sys_doc = _expect_mapping(doc.get("system"), "system", system_keys)
    if "a" not in sys_doc:
        raise ConfigError("system.a: required state matrix is missing")
    a = _matrix(sys_doc["a"], "system.a")
    n = a.shape[0]
    d = _vector(sys_doc["d"], "system.d", n) if "d" in sys_doc else None
    terms = []
    switch_terms = sys_doc.get("switch_terms", [])
    if not isinstance(switch_terms, list):
        raise ConfigError(f"system.switch_terms: expected a list, got {switch_terms!r}")
    for i, item in enumerate(switch_terms):
        item = _expect_mapping(item, f"system.switch_terms[{i}]", ("gain", "coordinate"))
        if "gain" not in item or "coordinate" not in item:
            raise ConfigError(f"system.switch_terms[{i}]: needs 'gain' and 'coordinate'")
        gain = _vector(item["gain"], f"system.switch_terms[{i}].gain", n)
        coord = _integer(item["coordinate"], f"system.switch_terms[{i}].coordinate")
        if not (0 <= coord < n):
            raise ConfigError(f"system.switch_terms[{i}].coordinate: {coord} out of range for n={n}")
        terms.append(SwitchTerm(gain=gain, coordinate=coord))
    field = PwsVectorField(a=a, d=d, switch_terms=tuple(terms))

    p = _matrix(sys_doc["p"], "system.p") if "p" in sys_doc else None
    m = None
    if "m" in sys_doc:
        m = _matrix(sys_doc["m"], "system.m")
        if m.shape != (n, n):
            raise ConfigError(f"system.m: expected {n}x{n}, got {m.shape}")
    try:
        cert = certificate_from_decomposition(field, p, m)
    except ValueError as exc:
        raise ConfigError(f"system.p: {exc}") from exc

    gamma = _matrix(sys_doc["gamma"], "system.gamma") if "gamma" in sys_doc else np.eye(n)
    gamma_d = _matrix(sys_doc["gamma_d"], "system.gamma_d") if "gamma_d" in sys_doc else np.eye(n)
    if gamma.shape != (n, n) or gamma_d.shape != (n, n):
        raise ConfigError(f"system.gamma / system.gamma_d: expected {n}x{n} matrices")
    return field, cert, gamma, gamma_d


def _parse_layer(doc, path: str, base_dir: Path) -> Graph:
    is_file = isinstance(doc, dict) and "file" in doc
    layer = _expect_mapping(doc, path, ("file",) if is_file else ("kind", "n", "l", "p", "seed"))
    if is_file:
        file = base_dir / _string(layer["file"], f"{path}.file")
        try:
            return read_graph_file(file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}.file: {exc}") from exc
    if "kind" not in layer or "n" not in layer:
        raise ConfigError(f"{path}: needs either 'file' or 'kind' plus 'n'")
    readers = {"n": _integer, "l": _integer, "seed": _seed}
    params = {key: read(layer[key], f"{path}.{key}") for key, read in readers.items() if key in layer}
    if "p" in layer:
        params["p"] = _number(layer["p"], f"{path}.p")
    kind = _string(layer["kind"], f"{path}.kind")
    try:
        return generate_topology(kind, **params)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    doc = _expect_mapping(doc, "", ("version", "system", "layers", "gains", "sim", "output"))
    version = doc.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"version: unsupported config version {version!r}")

    field, cert, gamma, gamma_d = _parse_system(doc)
    layers = _expect_mapping(doc.get("layers"), "layers", ("diffusive", "discontinuous"))
    g_diff = _parse_layer(layers.get("diffusive"), "layers.diffusive", path.parent)
    g_disc = _parse_layer(layers.get("discontinuous"), "layers.discontinuous", path.parent)
    if g_diff.n_vertices != g_disc.n_vertices:
        raise ConfigError("layers: diffusive and discontinuous layers must have the same N")

    gains = doc.get("gains", "auto")
    c = cd = None
    if gains != "auto":
        gains = _expect_mapping(gains, "gains", ("c", "cd"))
        if "c" not in gains or "cd" not in gains:
            raise ConfigError("gains: needs numeric 'c' and 'cd', or the string \"auto\"")
        c, cd = _number(gains["c"], "gains.c"), _number(gains["cd"], "gains.cd")

    sim_keys = ("dt", "t_end", "seed", "init_amplitude", "sign_mode", "smooth_epsilon")
    sim = _expect_mapping(doc.get("sim", {}), "sim", sim_keys)
    out = _expect_mapping(doc.get("output", {}), "output", ("directory", "decimation", "per_node_errors"))
    return ExperimentConfig(
        field=field,
        cert=cert,
        gamma=gamma,
        gamma_d=gamma_d,
        g_diffusive=g_diff,
        g_discontinuous=g_disc,
        c=c,
        cd=cd,
        dt=_number(sim.get("dt", SimConfig.dt), "sim.dt"),
        t_end=_number(sim.get("t_end", SimConfig.t_end), "sim.t_end"),
        seed=_seed(sim.get("seed", SimConfig.init_seed), "sim.seed"),
        init_amplitude=_number(sim.get("init_amplitude", SimConfig.init_amplitude), "sim.init_amplitude"),
        sign_mode=_string(sim.get("sign_mode", SimConfig.sign_mode), "sim.sign_mode", SIGN_MODES),
        smooth_epsilon=_number(sim.get("smooth_epsilon", SimConfig.smooth_epsilon), "sim.smooth_epsilon"),
        out_dir=Path(_string(out.get("directory", "."), "output.directory")),
        decimation=_integer(out.get("decimation", SimConfig.decimation), "output.decimation"),
        per_node_errors=_flag(out.get("per_node_errors", False), "output.per_node_errors"),
    )


def _thresholds(cfg: ExperimentConfig) -> ThresholdReport:
    return compute_thresholds(
        cfg.cert,
        cfg.gamma,
        cfg.gamma_d,
        cfg.g_diffusive,
        cfg.g_discontinuous,
        field=cfg.field,
        heuristic_seed=cfg.seed,
    )


def _resolve_gains(cfg: ExperimentConfig) -> tuple[float, float, ThresholdReport | None]:
    """Numeric gains from the document, or AUTO_GAIN_FACTOR times the thresholds."""
    if cfg.c is not None:
        return cfg.c, cfg.cd, None
    report = _thresholds(cfg)
    if report.certificate_verified is False:
        raise ConfigError(
            "gains: auto gains need the certificate hypothesis to hold, but a sampled "
            "counterexample falsified the (P, Q, M) growth bound for the node dynamics"
        )
    return AUTO_GAIN_FACTOR * report.c_star, AUTO_GAIN_FACTOR * report.cd_star, report


# ----------------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------------


# The numbers of a threshold report in text order: (JSON key and ThresholdReport attribute, text label).
_THRESHOLD_ROWS = (
    ("lambda2", "lambda2(L) diffusive layer"),
    ("delta_d", "delta discontinuous layer ({delta_label})"),
    ("mu2_q", "mu2(Q)"),
    ("mu2_lower_p_gamma", "mu2_lower(P Gamma)"),
    ("mu_inf_m", "mu_inf(M)"),
    ("mu_inf_lower_p_gamma_d", "mu_inf_lower(P Gamma_d)"),
    ("c_star", "c_star"),
    ("cd_star", "cd_star"),
)


def format_threshold_report(report: ThresholdReport) -> str:
    delta_label = "exact" if report.delta_certified else "heuristic, not certified"
    rows = [
        (label.format(delta_label=delta_label), _fmt(getattr(report, key))) for key, label in _THRESHOLD_ROWS
    ]
    verified = report.certificate_verified
    cert_note = {True: "passed sampling", False: "FALSIFIED by sampling", None: "not sampled"}[verified]
    rows.append(("certificate check", cert_note))
    if not report.delta_certified:
        rows.append(("note", "heuristic delta is an upper bound; cd_star is a lower bound"))
    width = max(len(name) for name, _ in rows)
    lines = ["threshold report"]
    lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
    return "\n".join(lines)


def threshold_report_json(report: ThresholdReport) -> str:
    payload = {key: getattr(report, key) for key, _ in _THRESHOLD_ROWS}
    payload.update(
        delta_method=report.delta_method,
        delta_certified=report.delta_certified,
        certificate_verified=report.certificate_verified,
    )
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------


def _cmd_topology(args) -> int:
    g = generate_topology(args.kind, args.n, l=args.l, p=args.p, seed=args.seed)
    if args.out:
        write_graph_file(g, args.out)
        print(f"wrote {args.kind} graph with N={g.n_vertices}, {g.n_edges} edges to {args.out}")
    else:
        sys.stdout.write(graph_to_text(g))
    return 0


def _cmd_mindensity(args) -> int:
    g = read_graph_file(args.graph)
    if args.exact:
        result = min_density_exact(g)
    elif args.heuristic:
        result = min_density_heuristic(g, seed=args.seed)
    else:
        result = min_density_auto(g, seed=args.seed)
    cut = result.sparsest_cut
    print(f"delta = {_fmt(result.delta)} ({result.method})")
    print(f"side 1 ({cut.n1} vertices): {' '.join(map(str, cut.side1()))}")
    print(f"side 2 ({cut.n2} vertices): {' '.join(map(str, cut.side2()))}")
    print(f"crossing edges b = {cut.crossing_edges}, N1 = {cut.n1}, N2 = {cut.n2}")
    return 0


def _cmd_thresholds(args) -> int:
    report = _thresholds(load_experiment_config(args.config))
    print(format_threshold_report(report))
    if args.json:
        payload = threshold_report_json(report)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload, encoding="ascii")
    return 0


def _sim_config(cfg: ExperimentConfig, c: float, cd: float) -> SimConfig:
    return SimConfig(
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
        sign_mode=cfg.sign_mode,
        smooth_epsilon=cfg.smooth_epsilon,
        decimation=cfg.decimation,
    )


def _write_run(cfg: ExperimentConfig, c: float, cd: float, stem: str) -> SimulationRun:
    """Simulate at gains (c, cd) and write <stem>.csv and <stem>_meta.json to the output directory."""
    run = simulate(_sim_config(cfg, c, cd))
    write_run_csv(run, cfg.out_dir / f"{stem}.csv", per_node_errors=cfg.per_node_errors)
    write_run_metadata(run, cfg.out_dir / f"{stem}_meta.json")
    return run


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    for name in ("dt", "t_end", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "c", None) is not None or getattr(args, "cd", None) is not None:
        if args.c is None or args.cd is None:
            raise ConfigError("gains: override flags --c and --cd must be given together")
        cfg.c, cfg.cd = args.c, args.cd
    if getattr(args, "out", None):
        cfg.out_dir = Path(args.out)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_experiment_config(args.config), args)
    c, cd, report = _resolve_gains(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    run = _write_run(cfg, c, cd, "run")
    if report is not None:
        (cfg.out_dir / "thresholds.json").write_text(threshold_report_json(report), encoding="ascii")
    status = (
        f"diverged (truncated) at step {run.divergence_step}" if run.diverged else "completed"
    )
    print(
        f"{status}: c={_fmt(c)} cd={_fmt(cd)} e_tot {_fmt(run.e_tot_series[0])} -> "
        f"{_fmt(run.e_tot_series[-1])}; wrote {cfg.out_dir / 'run.csv'}"
    )
    return 0


def _cmd_resilience(args) -> int:
    cfg = load_experiment_config(args.config)
    try:
        doc = json.loads(Path(args.scenarios).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"scenarios: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("scenarios")
    if not isinstance(doc, list):
        raise ConfigError("scenarios: expected a list (or an object with a 'scenarios' list)")
    labels = []
    removals = []
    for i, item in enumerate(doc):
        item = _expect_mapping(item, f"scenarios[{i}]", ("label", "remove"))
        labels.append(str(item.get("label", f"scenario_{i}")))
        edges = item.get("remove")
        if not isinstance(edges, list):
            raise ConfigError(f"scenarios[{i}].remove: expected a list of [i, j] pairs")
        pairs = []
        for j, edge in enumerate(edges):
            where = f"scenarios[{i}].remove[{j}]"
            if not isinstance(edge, list) or len(edge) != 2:
                raise ConfigError(f"{where}: expected an [i, j] pair, got {edge!r}")
            pairs.append(tuple(_integer(end, f"{where}[{k}]") for k, end in enumerate(edge)))
        removals.append(pairs)
    results = resilience_report(
        cfg.g_discontinuous,
        removals,
        cfg.cert,
        cfg.gamma_d,
        labels=labels,
        heuristic_seed=cfg.seed,
    )
    width = max(len(r.label) for r in results) if results else 5
    print(f"{'label'.ljust(width)}  {'delta':>22}  {'cd_star':>22}  method")
    for r in results:
        if r.error is not None:
            print(f"{r.label.ljust(width)}  {'-':>22}  {'-':>22}  error: {r.error}")
        else:
            print(
                f"{r.label.ljust(width)}  {_fmt(r.delta):>22}  {_fmt(r.cd_star):>22}  {r.delta_method}"
            )
    return 0


def _cmd_paper_demo(args) -> int:
    seed, n = args.seed, 30
    cfg = ExperimentConfig(
        field=relay_feedback_system(),
        cert=relay_certificate(),
        gamma=np.eye(3),
        gamma_d=np.eye(3),
        g_diffusive=generate_topology("ring", n),
        g_discontinuous=generate_topology("erdos_renyi", n, p=0.2, seed=seed),
        c=None,
        cd=None,
        dt=args.dt,
        t_end=args.t_end,
        seed=seed,
        decimation=args.decimation,
        out_dir=Path(args.out),
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_graph_file(cfg.g_diffusive, cfg.out_dir / "graph_diffusive.txt")
    write_graph_file(cfg.g_discontinuous, cfg.out_dir / "graph_discontinuous.txt")

    c_above, cd_above, report = _resolve_gains(cfg)
    runs = {
        name: _write_run(cfg, c, cd, name)
        for name, c, cd in (("below", 0.1, 0.001), ("above", c_above, cd_above))
    }

    density_cut = report.density.sparsest_cut
    lines = [
        f"two-layer synchronization demo (seed {seed})",
        f"nodes: {n} relay feedback systems (3 states each)",
        f"diffusive layer: ring, {cfg.g_diffusive.n_edges} edges; "
        f"discontinuous layer: Erdos-Renyi p=0.2, {cfg.g_discontinuous.n_edges} edges",
        "",
        format_threshold_report(report),
        "",
        f"sparsest cut found: N1={density_cut.n1}, N2={density_cut.n2}, "
        f"b={density_cut.crossing_edges}",
        "",
    ]
    for name, run in runs.items():
        lines.append(
            f"{name}-threshold run: c={_fmt(run.config.c)}, cd={_fmt(run.config.cd)}, "
            f"e_tot {_fmt(run.e_tot_series[0])} -> {_fmt(run.e_tot_series[-1])}"
        )
    converged = runs["above"].e_tot_series[-1] < runs["below"].e_tot_series[-1]
    lines.append(
        "above-threshold run ends with the smaller error"
        if converged
        else "WARNING: above-threshold run did not end with the smaller error"
    )
    summary = "\n".join(lines) + "\n"
    (cfg.out_dir / "summary.txt").write_text(summary, encoding="ascii")
    sys.stdout.write(summary)
    return 0


# ----------------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------------


def _seed_flag(text: str) -> int:
    """argparse type of the --seed flags; argparse names the flag in its error."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwsync",
        description=(
            "Coupling-gain certification and simulation for networks of "
            "piecewise-smooth systems with diffusive plus discontinuous coupling"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="generate a named topology and print/write it")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=_seed_flag, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("mindensity", help="minimum density and sparsest cut of a graph file")
    p.add_argument("--graph", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    p.add_argument("--seed", type=_seed_flag, default=0)
    p.set_defaults(func=_cmd_mindensity)

    p = sub.add_parser("thresholds", help="critical coupling gains for a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--json", default=None, help="also write the report as JSON ('-' for stdout)")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("simulate", help="run the coupled network described by a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--seed", type=_seed_flag, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--cd", type=float, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("resilience", help="minimum density and cd* across edge-removal scenarios")
    p.add_argument("--config", required=True)
    p.add_argument("--scenarios", required=True)
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser(
        "paper-demo",
        help="end-to-end demo: 30 relay nodes, ring + random layers, below/above-threshold runs",
    )
    p.add_argument("--seed", type=_seed_flag, default=7)
    p.add_argument("--out", default="paper_demo_out")
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t-end", dest="t_end", type=float, default=2.0)
    p.add_argument("--decimation", type=int, default=10)
    p.set_defaults(func=_cmd_paper_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
