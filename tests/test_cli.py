"""Command-line tests: config validation, report emission, verbs, exit codes."""

import json
import math

import numpy as np
import pytest

from shiftlog.campaigns import DEFAULT_TOLERANCES
from shiftlog.cli import load_config, main
from shiftlog.errors import ConfigError
from shiftlog.linalg import matrix_to_json


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None)
    assert cfg.seed == 42 and len(cfg.suites) == 6
    path = write_json(tmp_path / "c.json", {
        "seed": 7,
        "suites": ["bch", "logrep"],
        "dims": [2, 4],
        "tolerances": {"bch.adjoint_series_n12": 1e-7},
        "output": {"path": str(tmp_path / "r.json"), "format": "json"},
    })
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.suites == ("bch", "logrep")
    assert cfg.tolerances == {"bch.adjoint_series_n12": 1e-7}


@pytest.mark.parametrize("payload, fragment", [
    ({"suites": []}, "suites"),
    ({"suites": ["nope"]}, "unknown suite"),
    ({"dims": [0]}, "dims"),
    ({"dims": [512]}, "dims"),
    ({"seed": "x"}, "seed"),
    ({"tolerances": {"bogus.case": 1.0}}, "unknown case"),
    ({"output": {"format": "yaml", "path": "r"}}, "output"),
    ({"sweep_dims": [8, 8]}, "sweep_dims"),
    ({"sweep_dims": [8]}, "sweep_dims"),
    ({"seed": 1, "trajectory": "t.csv"}, "unknown key"),
    ({"seed": True}, "seed"),
    ({"tolerances": {"bch.order_law_k1": True}}, "tolerances"),
])
def test_load_config_rejects(tmp_path, payload, fragment):
    path = write_json(tmp_path / "bad.json", payload)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert fragment.split(".")[0] in str(err.value)


def test_config_parse_error_includes_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  bad\n}")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "line" in str(err.value)


def test_verify_exit_zero_and_report(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "seed": 42,
        "suites": ["logrep"],
        "output": {"path": str(tmp_path / "report.json"), "format": "json"},
    })
    assert main(["verify", "--config", cfg]) == 0
    text = (tmp_path / "report.json").read_text()
    payload_lines = [l for l in text.splitlines() if '"suite"' in l]
    assert payload_lines and all('"pass": true' in l for l in payload_lines)
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_nonzero_exit_on_failure(tmp_path):
    # an impossible tolerance forces a failing report and exit code 1
    cfg = write_json(tmp_path / "c.json", {
        "seed": 42,
        "suites": ["logrep"],
        "tolerances": {"logrep.reexponentiation": 1e-30},
    })
    assert main(["verify", "--config", cfg]) == 1


def test_verify_deterministic_bytes(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    cfg = {"seed": 11, "suites": ["bch"]}
    c1 = write_json(tmp_path / "c1.json", {**cfg, "output": {"path": str(out1)}})
    c2 = write_json(tmp_path / "c2.json", {**cfg, "output": {"path": str(out2)}})
    assert main(["verify", "--config", c1]) == 0
    assert main(["verify", "--config", c2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_all_suites(tmp_path):
    out = tmp_path / "full.json"
    cfg = write_json(tmp_path / "full.json.cfg", {
        "seed": 42,
        "output": {"path": str(out)},
    })
    assert main(["verify", "--config", cfg]) == 0
    text = out.read_text()
    for suite in ("matfun", "evolution", "logrep", "bch", "von_neumann", "sweep"):
        assert f'"suite": "{suite}"' in text


def test_verify_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    cfg = write_json(tmp_path / "c.json",
                     {"seed": 5, "suites": ["bch"],
                      "output": {"path": str(out), "format": "csv"}})
    assert main(["verify", "--config", cfg]) == 0
    assert out.read_text().startswith("suite,case,anchor,residual")


def test_verify_unwritable_output(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "seed": 5, "suites": ["bch"],
        "output": {"path": str(tmp_path / "missing" / "r.json")},
    })
    assert main(["verify", "--config", cfg]) == 3


def test_verify_bad_config_exit_code(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"suites": []})
    assert main(["verify", "--config", cfg]) == 2


def test_vn_demo(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    cfg = write_json(tmp_path / "vn.json", {
        "hamiltonian": matrix_to_json(np.diag([1.0, -1.0])),
        "rho0": matrix_to_json(0.5 * np.ones((2, 2))),
        "hbar": 1.0,
        "grid": {"start": 0.05, "stop": 1.0, "points": 20},
        "trajectory": str(traj),
    })
    assert main(["vn-demo", "--config", cfg]) == 0
    lines = traj.read_text().strip().split("\n")
    assert lines[0].startswith("t,rho_00_re")
    assert len(lines) == 21


def test_vn_demo_validates_inputs(tmp_path):
    bad_h = write_json(tmp_path / "a.json", {
        "hamiltonian": matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
        "rho0": matrix_to_json(0.5 * np.ones((2, 2))),
    })
    assert main(["vn-demo", "--config", bad_h]) == 2
    bad_rho = write_json(tmp_path / "b.json", {
        "hamiltonian": matrix_to_json(np.diag([1.0, -1.0])),
        "rho0": matrix_to_json(np.ones((2, 2))),  # trace 2
    })
    assert main(["vn-demo", "--config", bad_rho]) == 2


def test_vn_demo_rejects_empty_grid(tmp_path, capsys):
    cfg = write_json(tmp_path / "vn.json", {
        "hamiltonian": matrix_to_json(np.diag([1.0, -1.0])),
        "rho0": matrix_to_json(0.5 * np.ones((2, 2))),
        "grid": {"start": 0.05, "stop": 1.0, "points": 0},
        "trajectory": str(tmp_path / "traj.csv"),
    })
    assert main(["vn-demo", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "traj.csv").exists()


def test_sweep_verb(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = write_json(tmp_path / "s.json", {
        "family": {"kind": "diffusion", "dims": [8, 16, 32], "viscosity": 0.01},
        "t": 0.1, "s": 0.0,
        "output": {"path": str(out)},
    })
    assert main(["sweep", "--config", cfg]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("n,norm_A,")


def test_sweep_single_dim_and_bad_dim(tmp_path):
    ok = write_json(tmp_path / "one.json", {
        "family": {"kind": "diffusion", "dims": [4], "viscosity": 0.01},
        "t": 0.1, "output": {"path": str(tmp_path / "one.csv")}})
    assert main(["sweep", "--config", ok]) == 0
    bad = write_json(tmp_path / "bad.json", {
        "family": {"kind": "diffusion", "dims": [2]}, "t": 0.1})
    assert main(["sweep", "--config", bad]) == 2


def test_sweep_rejects_duplicate_dims(tmp_path, capsys):
    cfg = write_json(tmp_path / "dup.json", {
        "family": {"kind": "diffusion", "dims": [8, 8], "viscosity": 0.01},
        "t": 0.1, "output": {"path": str(tmp_path / "dup.csv")}})
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "strictly increasing" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "dup.csv").exists()


def test_bch_verb(tmp_path, capsys):
    x = np.zeros((3, 3))
    y = np.zeros((3, 3))
    x[0, 1] = 1.0
    y[1, 2] = 1.0
    xp = write_json(tmp_path / "x.json", matrix_to_json(x))
    yp = write_json(tmp_path / "y.json", matrix_to_json(y))
    assert main(["bch", xp, yp, "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "order 1" in out and "order 3" in out and "[X,[X,Y]]" in out


VN_CONFIG = {
    "hamiltonian": matrix_to_json(np.diag([1.0, -1.0])),
    "rho0": matrix_to_json(0.5 * np.ones((2, 2))),
}
SWEEP_CONFIG = {"family": {"kind": "diffusion", "dims": [8, 16], "viscosity": 0.01}, "t": 0.1}
ROTATION_BY_PI = np.array([[0.0, math.pi], [-math.pi, 0.0]])


def test_sweep_verb_advection_tdep(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {
        "family": {"kind": "advection_tdep", "dims": [8, 16, 32]},
        "t": 0.1, "output": {"path": str(tmp_path / "tdep.csv")}})
    assert main(["sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[PASS] sweep/norm_growth_slope:" in out and "3/3 checks passed" in out


def test_sweep_verdict_reads_tolerance_table(tmp_path, monkeypatch):
    monkeypatch.setitem(DEFAULT_TOLERANCES, "sweep.surrogate_band_ratio", 1.0)
    cfg = write_json(tmp_path / "s.json", {
        "family": {"kind": "diffusion", "dims": [8, 16, 32], "viscosity": 0.01},
        "t": 0.1, "output": {"path": str(tmp_path / "sweep.csv")}})
    assert main(["sweep", "--config", cfg]) == 1


def test_vn_demo_verdict_reads_tolerance_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(DEFAULT_TOLERANCES, "von_neumann.demo_trace_drift", -1.0)
    cfg = write_json(tmp_path / "vn.json", {**VN_CONFIG, "trajectory": str(tmp_path / "t.csv")})
    assert main(["vn-demo", "--config", cfg]) == 1
    assert "[FAIL] von_neumann/demo_trace_drift:" in capsys.readouterr().out


@pytest.mark.parametrize("verb, payload", [
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": 5}}),
    ("sweep", {**SWEEP_CONFIG, "t": None}),
    ("sweep", {**SWEEP_CONFIG, "budget": None}),
    ("sweep", {**SWEEP_CONFIG, "t": math.inf}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "advection", "dims": [8, 16], "speed": 0}}),
    ("vn-demo", {**VN_CONFIG, "hbar": "x"}),
    ("bch", (np.eye(2), np.eye(3))),
    ("bch", (ROTATION_BY_PI, np.zeros((2, 2)))),
    ("bch", (2e4 * np.eye(2), np.zeros((2, 2)))),
    ("vn-demo", {**VN_CONFIG, "trajectory": 7}),
    ("vn-demo", {**VN_CONFIG, "tolerance": 1e-3}),
    ("vn-demo", {**VN_CONFIG, "hbar": 1e-320}),
    ("vn-demo", {**VN_CONFIG, "hbar": 1e-300}),
    ("sweep", {**SWEEP_CONFIG, "output": {"path": "sweep.csv", "format": "json"}}),
], ids=["sweep-dims-int", "sweep-t-null", "sweep-budget-null", "sweep-t-inf",
        "sweep-speed-zero", "vn-hbar-str", "bch-shape-mismatch", "bch-branch-cut",
        "bch-norm-above-expm-limit", "vn-trajectory-int", "vn-tolerance-key",
        "vn-hbar-underflow", "vn-hbar-overflow", "sweep-output-format"])
def test_bad_input_is_one_stderr_line(tmp_path, capsys, verb, payload):
    if verb == "bch":
        argv = ["bch", write_json(tmp_path / "x.json", matrix_to_json(payload[0])),
                write_json(tmp_path / "y.json", matrix_to_json(payload[1]))]
    else:
        argv = [verb, "--config", write_json(tmp_path / "c.json", payload)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
