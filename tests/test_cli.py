from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import pwsync as ps
import pwsync.cli
import pwsync.thresholds
from pwsync.cli import ConfigError, load_experiment_config, main

RELAY_A = [[1.51, 1.0, 0.0], [-99.922, 0.0, 1.0], [-5.0, 0.0, 0.0]]


def write_config(path, **overrides):
    doc = {
        "version": 1,
        "system": {
            "a": RELAY_A,
            "switch_terms": [{"gain": [1.0, -2.0, 1.0], "coordinate": 0}],
        },
        "layers": {
            "diffusive": {"kind": "ring", "n": 8},
            "discontinuous": {"kind": "erdos_renyi", "n": 8, "p": 0.4, "seed": 3},
        },
        "gains": {"c": 60.0, "cd": 4.0},
        "sim": {"dt": 1e-3, "t_end": 0.2, "seed": 1},
        "output": {"directory": str(path.parent / "out")},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


# ----------------------------------------------------------------------------
# topology / mindensity
# ----------------------------------------------------------------------------


def test_topology_writes_graph_file(tmp_path, capsys):
    out = tmp_path / "ring.txt"
    assert main(["topology", "--kind", "ring", "--n", "10", "--out", str(out)]) == 0
    g = ps.read_graph_file(out)
    assert g.n_edges == 10
    assert "ring" in capsys.readouterr().out


def test_topology_stdout_mode(capsys):
    assert main(["topology", "--kind", "star", "--n", "4"]) == 0
    assert capsys.readouterr().out == "4\n0 1\n0 2\n0 3\n"


def test_topology_bad_kind_fails_with_diagnostic(capsys):
    assert main(["topology", "--kind", "moebius", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "moebius" in err


def test_mindensity_ring10(tmp_path, capsys):
    out = tmp_path / "ring10.txt"
    ps.write_graph_file(ps.ring_graph(10), out)
    assert main(["mindensity", "--graph", str(out)]) == 0
    text = capsys.readouterr().out
    assert "delta = 0.4" in text
    assert "(exact)" in text
    assert "N1 = 5, N2 = 5" in text


def test_mindensity_heuristic_flag(tmp_path, capsys):
    out = tmp_path / "ring30.txt"
    ps.write_graph_file(ps.ring_graph(30), out)
    assert main(["mindensity", "--graph", str(out), "--heuristic", "--seed", "2"]) == 0
    text = capsys.readouterr().out
    assert "(heuristic)" in text
    assert repr(4 / 30) in text


def test_mindensity_exact_flag(tmp_path, capsys):
    out = tmp_path / "ring12.txt"
    ps.write_graph_file(ps.ring_graph(12), out)
    assert main(["mindensity", "--graph", str(out), "--exact"]) == 0
    text = capsys.readouterr().out
    assert f"delta = {1 / 3!r} (exact)" in text
    assert "crossing edges b = 2, N1 = 6, N2 = 6" in text


def test_mindensity_auto_heuristic_above_cap(tmp_path, capsys):
    out = tmp_path / "big.txt"
    ps.write_graph_file(ps.ring_graph(40), out)
    assert main(["mindensity", "--graph", str(out)]) == 0
    assert "(heuristic)" in capsys.readouterr().out


def test_mindensity_missing_file(capsys):
    assert main(["mindensity", "--graph", "/nonexistent/g.txt"]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------------


def test_thresholds_report_relay_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    json_out = tmp_path / "report.json"
    assert main(["thresholds", "--config", str(cfg), "--json", str(json_out)]) == 0
    text = capsys.readouterr().out
    assert "threshold report" in text
    assert "c_star" in text and "cd_star" in text
    report = json.loads(json_out.read_text())
    lam2 = 2 * (1 - np.cos(np.pi / 4))  # ring with n=8
    assert report["lambda2"] == pytest.approx(lam2, abs=1e-9)
    assert report["mu_inf_m"] == 4.0
    assert report["delta_method"] == "exact"
    assert report["certificate_verified"] is True
    assert "hypotheses" not in report


def test_thresholds_json_to_stdout_follows_the_text_report(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["thresholds", "--config", str(cfg), "--json", str(tmp_path / "report.json")]) == 0
    text = capsys.readouterr().out
    assert main(["thresholds", "--config", str(cfg), "--json", "-"]) == 0
    assert capsys.readouterr().out == text + (tmp_path / "report.json").read_text()


def test_thresholds_smooth_system_zero_cd(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        system={"a": [[-1.0, 0.0], [0.0, -1.0]]},
        layers={
            "diffusive": {"kind": "ring", "n": 6},
            "discontinuous": {"kind": "ring", "n": 6},
        },
    )
    assert main(["thresholds", "--config", str(cfg)]) == 0
    assert "cd_star 0.0" in " ".join(capsys.readouterr().out.split())


def test_thresholds_names_violated_hypothesis(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    doc = json.loads(cfg.read_text())
    doc["system"]["gamma"] = [[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]
    cfg.write_text(json.dumps(doc))
    assert main(["thresholds", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "hypothesis violated" in err and "mu2_lower" in err


def test_thresholds_bad_config_schema_names_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "system": {"a": [[1.0]]}, "layers": {"diffusive": {"kind": "hexagon", "n": 5}, "discontinuous": {"kind": "ring", "n": 5}}}))
    assert main(["thresholds", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "layers.diffusive" in err


def test_config_p_builds_the_constructive_certificate(tmp_path):
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    doc["system"]["p"] = (2.0 * np.eye(3)).tolist()
    cfg = write_config(tmp_path / "cfg.json", system=doc["system"])
    loaded = load_experiment_config(cfg)
    cert = loaded.cert
    expected = ps.certificate_from_decomposition(loaded.field, 2.0 * np.eye(3))
    for got, want in ((cert.p, expected.p), (cert.q, expected.q), (cert.m, expected.m)):
        assert np.array_equal(got, want)


def test_config_explicit_m_is_used_as_given(tmp_path):
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    m = [[3.0, 0.5, 0.0], [0.5, 7.0, 0.0], [0.0, 0.0, 1.0]]
    doc["system"]["m"] = m
    cert = load_experiment_config(write_config(tmp_path / "cfg.json", system=doc["system"])).cert
    assert np.array_equal(cert.m, m)
    assert np.array_equal(cert.q, RELAY_A)


@pytest.mark.parametrize(
    "key, value, prefix",
    [
        ("p", [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]], "system.p:"),
        ("m", [[1.0, 0.0], [0.0, 1.0]], "system.m:"),
        # Matrix and vector entries are finite JSON numbers: no strings, bools, NaN or infinities.
        ("a", [["1.51", "1", "0"], ["-99.922", "0", "1"], ["-5", "0", "0"]], "system.a:"),
        ("gamma", [[True, False, False], [False, True, False], [False, False, True]], "system.gamma:"),
        ("gamma_d", [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]], "system.gamma_d:"),
        ("gamma", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, float("inf")]], "system.gamma:"),
        ("m", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, "1"]], "system.m:"),
        ("d", [0.0, float("-inf"), 0.0], "system.d:"),
        ("d", [0.0, True, 0.0], "system.d:"),
        ("a", [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "system.a: expected a finite number, got [1.0, 0.0, 0.0]"),
    ],
    ids=["non_spd_p", "misshapen_m", "string_a", "bool_gamma", "nan_gamma_d", "inf_gamma", "string_m",
         "inf_d", "bool_d", "ragged_a"],
)
def test_config_bad_certificate_matrix_names_field(tmp_path, key, value, prefix):
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    doc["system"][key] = value
    cfg = write_config(tmp_path / "cfg.json", system=doc["system"])
    with pytest.raises(ConfigError) as info:
        load_experiment_config(cfg)
    assert str(info.value).startswith(prefix)


@pytest.mark.parametrize(
    "where, key, value, prefix",
    [
        (("sim",), "dt", "fast", "sim.dt:"),
        (("sim",), "t_end", [1.0], "sim.t_end:"),
        (("sim",), "seed", "one", "sim.seed:"),
        (("sim",), "seed", float("inf"), "sim.seed:"),
        (("sim",), "init_amplitude", None, "sim.init_amplitude:"),
        (("sim",), "smooth_epsilon", "tiny", "sim.smooth_epsilon:"),
        (("output",), "decimation", "ten", "output.decimation:"),
        (("output",), "directory", 3, "output.directory:"),
        (("gains",), "c", "big", "gains.c:"),
        (("gains",), "cd", None, "gains.cd:"),
        (("system", "switch_terms", 0), "coordinate", "first", "system.switch_terms[0].coordinate:"),
        (("layers", "diffusive"), "n", None, "layers.diffusive.n:"),
        (("layers", "discontinuous"), "p", [0.4], "layers.discontinuous.p:"),
        (("layers", "discontinuous"), "seed", float("inf"), "layers.discontinuous.seed:"),
        (("output",), "per_node_errors", "false", "output.per_node_errors:"),
        (("output",), "per_node_errors", 1, "output.per_node_errors:"),
        # Integer fields take only a JSON integer: no truncated float, no bool.
        (("sim",), "seed", 1.0, "sim.seed:"),
        (("sim",), "seed", True, "sim.seed:"),
        (("output",), "decimation", 2.5, "output.decimation:"),
        (("system", "switch_terms", 0), "coordinate", 0.5, "system.switch_terms[0].coordinate:"),
        (("layers", "diffusive"), "n", 8.7, "layers.diffusive.n:"),
        (("layers", "diffusive"), "l", 1.5, "layers.diffusive.l:"),
        (("layers", "discontinuous"), "seed", False, "layers.discontinuous.seed:"),
        # Seeds are non-negative.
        (("sim",), "seed", -1, "sim.seed: expected a non-negative integer, got -1"),
        (("layers", "discontinuous"), "seed", -3,
         "layers.discontinuous.seed: expected a non-negative integer, got -3"),
        # Float fields take only a finite JSON number: no numeric string, no bool, no NaN or infinity.
        (("sim",), "dt", "1e-4", "sim.dt: expected a finite number, got '1e-4'"),
        (("sim",), "dt", True, "sim.dt: expected a finite number, got True"),
        (("gains",), "c", "60", "gains.c: expected a finite number, got '60'"),
        (("layers", "discontinuous"), "p", "0.5", "layers.discontinuous.p: expected a finite number"),
        (("sim",), "dt", float("nan"), "sim.dt: expected a finite number, got nan"),
        (("sim",), "t_end", float("inf"), "sim.t_end: expected a finite number, got inf"),
        (("sim",), "init_amplitude", float("-inf"), "sim.init_amplitude: expected a finite number"),
        (("sim",), "smooth_epsilon", float("nan"), "sim.smooth_epsilon: expected a finite number"),
        (("gains",), "cd", float("nan"), "gains.cd: expected a finite number, got nan"),
        (("gains",), "c", 10**400, "gains.c: expected a finite number"),
        (("layers", "discontinuous"), "p", float("inf"), "layers.discontinuous.p: expected a finite number"),
        # Whole-document checks name the section.
        ((), "version", 2, "version: unsupported config version 2"),
        ((), "system", {}, "system.a: required state matrix is missing"),
        (("layers", "diffusive"), "n", 9, "layers: diffusive and discontinuous layers must have the same N"),
        ((), "gains", {"c": 60.0}, "gains: needs numeric 'c' and 'cd'"),
        # String fields take only a JSON string; sign_mode only one of the two modes.
        (("sim",), "sign_mode", 5, "sim.sign_mode: expected one of 'exact', 'smoothed', got 5"),
        (("sim",), "sign_mode", "fuzzy", "sim.sign_mode: expected one of 'exact', 'smoothed', got 'fuzzy'"),
        (("output",), "directory", ["out"], "output.directory: expected a string, got ['out']"),
        (("layers",), "discontinuous", {"file": 3}, "layers.discontinuous.file: expected a string, got 3"),
        (("layers", "diffusive"), "kind", ["ring"], "layers.diffusive.kind: expected a string, got ['ring']"),
        (("system",), "switch_terms", 5, "system.switch_terms: expected a list, got 5"),
    ],
)
def test_config_bad_scalar_names_field(tmp_path, capsys, where, key, value, prefix):
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    target = doc
    for step in where:
        target = target[step]
    target[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        load_experiment_config(cfg)
    assert str(info.value).startswith(prefix)
    assert main(["thresholds", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")


@pytest.mark.parametrize(
    "where, key",
    [((), "extra"), (("system",), "q"), (("system", "switch_terms", 0), "coord"), (("layers",), "third"),
     (("layers", "diffusive"), "seed_"), (("layers", "discontinuous"), "P"), (("gains",), "cd_star"),
     (("sim",), "tend"), (("output",), "decimaton")],
    ids=["top", "system", "switch_term", "layers", "layer", "other_layer", "gains", "sim", "output"],
)
def test_config_unknown_key_is_refused_by_path(tmp_path, capsys, where, key):
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    target = doc
    for step in where:
        target = target[step]
    target[key] = 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    path = ".".join([*(step for step in where if isinstance(step, str)), key])
    path = path.replace("switch_terms.", "switch_terms[0].")
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: unknown key"):
        load_experiment_config(cfg)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: unknown key")
    assert not (tmp_path / "out").exists()


def test_file_layer_takes_no_generator_keys(tmp_path):
    ps.write_graph_file(ps.ring_graph(8), tmp_path / "ring8.txt")
    layers = {"diffusive": {"kind": "ring", "n": 8}, "discontinuous": {"file": "ring8.txt"}}
    assert load_experiment_config(write_config(tmp_path / "ok.json", layers=layers)).g_discontinuous.n_edges == 8
    layers["discontinuous"]["n"] = 8
    with pytest.raises(ConfigError, match=r"^layers\.discontinuous\.n: unknown key; expected one of file$"):
        load_experiment_config(write_config(tmp_path / "cfg.json", layers=layers))


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
    (tmp_path / "experiment.json").write_text(block)
    cfg = load_experiment_config(tmp_path / "experiment.json")
    assert cfg.c is None and cfg.g_discontinuous.n_vertices == 30 and cfg.sign_mode == "exact"


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--config", "cfg.json"], ["paper-demo"], ["mindensity", "--graph", "g.txt"],
     ["topology", "--kind", "ring", "--n", "5"]],
    ids=["simulate", "paper-demo", "mindensity", "topology"],
)
def test_negative_seed_flag_is_refused_by_name(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--seed", "-1"])
    assert info.value.code == 2
    assert "argument --seed: expected a non-negative integer, got -1" in capsys.readouterr().err


def test_config_without_sim_or_output_takes_sim_config_defaults(tmp_path):
    doc = json.loads(write_config(tmp_path / "base.json").read_text())
    del doc["sim"], doc["output"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_experiment_config(path)
    got = pwsync.cli._sim_config(cfg, 1.0, 1.0)
    default = ps.SimConfig(cfg.field, cfg.g_diffusive, cfg.g_discontinuous, 1.0, 1.0)
    for name in ("dt", "t_end", "init_seed", "init_amplitude", "sign_mode", "smooth_epsilon", "decimation"):
        assert getattr(got, name) == getattr(default, name), name


def test_thresholds_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["thresholds", "--config", str(cfg)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------------


def test_simulate_writes_csv_and_metadata(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "run.csv").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["c"] == 60.0 and meta["cd"] == 4.0
    assert "completed" in capsys.readouterr().out


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o1/run.csv").read_bytes() == (tmp_path / "o2/run.csv").read_bytes()
    assert (tmp_path / "o1/run_meta.json").read_bytes() == (tmp_path / "o2/run_meta.json").read_bytes()


def test_simulate_auto_gains_write_threshold_sidecar(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", gains="auto")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "auto_out")]) == 0
    report = json.loads((tmp_path / "auto_out" / "thresholds.json").read_text())
    meta = json.loads((tmp_path / "auto_out" / "run_meta.json").read_text())
    assert meta["c"] == pytest.approx(1.05 * report["c_star"], rel=1e-12)
    assert meta["cd"] == pytest.approx(1.05 * report["cd_star"], rel=1e-12)


def test_auto_gain_outputs_keep_their_bytes(tmp_path, capsys):
    # SHA-256 of a small auto-gain run with per-node columns, and of its threshold report
    cfg = write_config(
        tmp_path / "cfg.json",
        gains="auto",
        sim={"dt": 1e-4, "t_end": 0.05, "seed": 1},
        output={"decimation": 50, "per_node_errors": True},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["thresholds", "--config", str(cfg), "--json", str(tmp_path / "report.json")]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out / "run.csv", out / "run_meta.json", out / "thresholds.json")
    }
    assert digests == {
        "run.csv": "94d217424a64cb820070a0a74fdb284af709f29344e241fb76029cab2ec4e6b1",
        "run_meta.json": "f307200a119e3315178e65cfc322f9909c15acf9761e40b1b3beb97051b68250",
        "thresholds.json": "69e5a2d279ffbba8c2d97aa91a1a1e297e84e02f6940fb09c88023e81a225d31",
    }
    assert (tmp_path / "report.json").read_bytes() == (out / "thresholds.json").read_bytes()


def test_simulate_names_divergence_step(tmp_path, capsys):
    # dt * c * lambda_max(ring-8) = 1e-3 * 1e5 * 4 = 400: explicit Euler diverges
    cfg = write_config(tmp_path / "cfg.json", gains={"c": 1e5, "cd": 0.0})
    assert main(["simulate", "--config", str(cfg)]) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["diverged"] is True
    step = meta["divergence_step"]
    assert step == meta["n_steps_recorded"] + 1
    assert f"diverged (truncated) at step {step}:" in capsys.readouterr().out


def test_simulate_refuses_infinite_t_end(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", sim={"dt": 1e-3, "t_end": float("inf"), "seed": 1})
    assert "Infinity" in cfg.read_text()
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: sim.t_end: expected a finite number, got inf\n"


@pytest.mark.parametrize("amplitude", [1e308, float("nan"), float("inf")])
def test_simulate_refuses_unusable_init_amplitude(tmp_path, capsys, amplitude):
    sim = {"dt": 1e-3, "t_end": 0.2, "seed": 1, "init_amplitude": amplitude}
    cfg = write_config(tmp_path / "cfg.json", sim=sim)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "init_amplitude" in err


def test_simulate_gain_override_needs_both_flags(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["simulate", "--config", str(cfg), "--c", "10.0"]) == 2
    assert "--c and --cd" in capsys.readouterr().err


def test_simulate_flag_overrides_document(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ov"),
                 "--dt", "0.002", "--seed", "9"]) == 0
    meta = json.loads((tmp_path / "ov" / "run_meta.json").read_text())
    assert meta["dt"] == 0.002 and meta["init_seed"] == 9


def test_simulate_gain_flags_override_document(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", gains="auto")
    out = tmp_path / "ov"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--c", "12.5", "--cd", "3.0"]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert (meta["c"], meta["cd"]) == (12.5, 3.0)
    assert not (out / "thresholds.json").exists()
    assert "c=12.5 cd=3.0" in capsys.readouterr().out
    # A non-finite gain is refused by name before anything runs.
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "nan"), "--c", "nan", "--cd", "1"]) == 2
    assert capsys.readouterr().err == "error: c must be finite, got nan\n"
    assert not (tmp_path / "nan" / "run.csv").exists()


# ----------------------------------------------------------------------------
# resilience
# ----------------------------------------------------------------------------


def test_resilience_table(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        layers={
            "diffusive": {"kind": "ring", "n": 10},
            "discontinuous": {"kind": "ring", "n": 10},
        },
    )
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps({
        "scenarios": [
            {"label": "intact", "remove": []},
            {"label": "one_edge", "remove": [[0, 9]]},
            {"label": "cut_off", "remove": [[0, 9], [0, 1]]},
        ]
    }))
    assert main(["resilience", "--config", str(cfg), "--scenarios", str(scenarios)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["label", "delta", "cd_star", "method"]
    # sorted by cd_star: intact ring first, severed scenario reported as error last
    assert lines[1].startswith("intact")
    assert lines[2].startswith("one_edge")
    assert lines[3].startswith("cut_off") and "error" in lines[3]


def test_resilience_bad_scenarios_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"scenarios": [{"label": "x"}]}))
    assert main(["resilience", "--config", str(cfg), "--scenarios", str(scn)]) == 2
    assert "scenarios[0].remove" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenarios, prefix",
    [
        ([{"remove": [[0.9, 1.2]]}], "scenarios[0].remove[0][0]:"),
        ([{"remove": [[1]]}], "scenarios[0].remove[0]:"),
        ([{"remove": [[0, 1], [2, True]]}], "scenarios[0].remove[1][1]:"),
        ([{"remove": []}, {"remove": [[0, "1"]]}], "scenarios[1].remove[0][1]:"),
        ([{"remove": [], "lable": "x"}], "scenarios[0].lable: unknown key"),
    ],
)
def test_resilience_bad_scenario_edge_names_its_path(tmp_path, capsys, scenarios, prefix):
    # An endpoint must be a JSON integer and an edge a pair; nothing is truncated.
    cfg = write_config(tmp_path / "cfg.json")
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"scenarios": scenarios}))
    assert main(["resilience", "--config", str(cfg), "--scenarios", str(scn)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")


# ----------------------------------------------------------------------------
# paper-demo
# ----------------------------------------------------------------------------


def test_paper_demo_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["paper-demo", "--seed", "3", "--out", str(out),
                 "--dt", "5e-4", "--t-end", "0.5"]) == 0
    for name in ("below.csv", "above.csv", "below_meta.json", "above_meta.json",
                 "graph_diffusive.txt", "graph_discontinuous.txt", "summary.txt"):
        assert (out / name).exists(), name
    summary = (out / "summary.txt").read_text()
    assert "threshold report" in summary
    assert "above-threshold run" in summary
    gd = ps.read_graph_file(out / "graph_discontinuous.txt")
    assert gd.n_vertices == 30 and ps.is_connected(gd)


def test_paper_demo_refuses_a_falsified_certificate(tmp_path, monkeypatch, capsys):
    # no jump budget: sampling pairs across the relay's switching plane falsifies it
    no_jumps = ps.certificate_from_decomposition(ps.relay_feedback_system(), m=np.zeros((3, 3)))
    monkeypatch.setattr(pwsync.cli, "relay_certificate", lambda: no_jumps)
    assert main(["paper-demo", "--t-end", "0.01", "--out", str(tmp_path / "demo")]) == 2
    assert "falsified" in capsys.readouterr().err
    assert not (tmp_path / "demo" / "above.csv").exists()


def test_paper_demo_solves_delta_once(tmp_path, monkeypatch, capsys):
    calls = []
    heuristic = ps.min_density_heuristic

    def counted(*args, **kwargs):
        calls.append(args)
        return heuristic(*args, **kwargs)

    monkeypatch.setattr(pwsync.thresholds, "min_density_heuristic", counted)
    monkeypatch.setattr(pwsync.cli, "min_density_heuristic", counted)
    assert main(["paper-demo", "--t-end", "0.01", "--out", str(tmp_path / "demo")]) == 0
    assert len(calls) == 1
    assert "sparsest cut found" in (tmp_path / "demo" / "summary.txt").read_text()
