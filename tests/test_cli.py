"""Command-line tests: config validation, report emission, verbs, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftlog import campaigns, cli, unbounded
from shiftlog.campaigns import DEFAULT_SWEEP_DIMS, DEFAULT_TOLERANCES
from shiftlog.cli import load_config, main
from shiftlog.errors import SingularMatrixError
from shiftlog.matfun import fd_step


def matrix_to_json(a):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(a, dtype=complex)]


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
    ({"seed": -1}, "seed"),
    ({"tolerances": {"bch.order_law_k1": math.inf}}, "tolerances"),
    ({"tolerances": {"bch.order_law_k1": math.nan}}, "tolerances"),
    ({"tolerances": {"bch.order_law_k1": -1.0}}, "tolerances"),
])
def test_load_config_rejects(tmp_path, payload, fragment):
    path = write_json(tmp_path / "bad.json", payload)
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert fragment.split(".")[0] in str(err.value)


def test_load_config_accepts_zero_tolerance(tmp_path):
    path = write_json(tmp_path / "c.json", {"tolerances": {"bch.order_law_k1": 0}})
    assert load_config(path).tolerances == {"bch.order_law_k1": 0}


def test_config_parse_error_includes_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  bad\n}")
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert "line" in str(err.value)


def test_config_not_utf8_names_the_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"seed": "\u00e9"}'.encode("latin-1"))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {str(path)!r} is not UTF-8") and err.count("\n") == 1


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
    def records(tolerances):
        out = tmp_path / "r.json"
        cfg = write_json(tmp_path / "c.json", {
            "seed": 42, "suites": ["logrep"], "tolerances": tolerances,
            "output": {"path": str(out)}})
        rc = main(["verify", "--config", cfg])
        return rc, {r.pop("case"): r for r in json.loads(out.read_text())["reports"]}

    rc, tightened = records({"logrep.reexponentiation": 1e-30})
    assert rc == 1
    _, shipped = records({})
    # the override moves its own record's tolerance and verdict, no other record
    moved = tightened.pop("reexponentiation")
    assert moved == {**shipped.pop("reexponentiation"), "tolerance": 1e-30, "pass": False}
    assert tightened == shipped


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


@pytest.mark.parametrize("a", [1e3, 3e3, 5e3, 9e3])
def test_vn_demo_passes_on_a_large_hamiltonian(tmp_path, capsys, a):
    # ||H||_1 = a + 1.  At a fixed FD step of 1e-2 demo_residual read 7.5e-4
    # at a = 1e3, and at a = 3e3 the shifted-product logarithm left the
    # domain of logm_iss (exit 2).  An FD step sized by ||H||_1 +
    # max ||rho(t)||_1 read 1.1e-6, 7.3e-6, 1.3e-5 and 4.5e-5 (both exit 1), as
    # its rounding grows like ||H||_1^2.  The 3n x 3n jets read 2.2e-10,
    # 2.0e-9, 8.3e-9 and 1.8e-8, and the series' 2 Z_2 reads 1.2e-10, 1.9e-9,
    # 7.5e-9 and 3.0e-8.
    cfg = write_json(tmp_path / "vn.json", {
        **VN_CONFIG,
        "hamiltonian": matrix_to_json(np.array([[a, 1.0], [1.0, -a]])),
        "trajectory": str(tmp_path / "traj.csv"),
    })
    assert main(["vn-demo", "--config", cfg]) == 0
    assert capsys.readouterr().out.endswith("2/2 checks passed\n")


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


def test_vn_demo_tiny_hbar_grades_the_identity(tmp_path):
    # rho0 commutes with H, so the state never moves and cannot overflow; the
    # residual must not be scaled by 1/hbar.
    cfg = write_json(tmp_path / "vn.json", {
        "hamiltonian": matrix_to_json(np.diag([1.0, -1.0])),
        "rho0": matrix_to_json(np.diag([0.7, 0.3])),
        "hbar": 1e-300,
        "trajectory": str(tmp_path / "traj.csv"),
    })
    assert main(["vn-demo", "--config", cfg]) == 0


README = Path(__file__).resolve().parent.parent / "README.md"


def test_verify_imports_no_quadrature(tmp_path):
    # A fresh interpreter: the test process already holds scipy.  Every suite
    # runs on numpy alone, and none imports scipy.integrate or scipy at all.
    code = ("import sys; from shiftlog.cli import main; "
            "rc = main(['verify']); "
            "print(rc, 'scipy.integrate' in sys.modules, 'scipy' in sys.modules)")
    src = str(README.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 False False"


def test_readme_examples_run(tmp_path, monkeypatch):
    text = README.read_text()
    examples = dict(re.findall(r"Example `(\w+\.json)`.*?```json\n(.*?)```", text, re.S))
    assert sorted(examples) == ["campaign.json", "sweep.json", "vn.json"]
    monkeypatch.chdir(tmp_path)
    for name, body in examples.items():
        (tmp_path / name).write_text(body)
    assert main(["verify", "--config", "campaign.json", "--suite", "bch"]) == 0
    assert main(["vn-demo", "--config", "vn.json"]) == 0
    assert main(["sweep", "--config", "sweep.json"]) == 0
    walkthrough = text[text.index("## Walkthrough"):]
    assert all(f"`{key.split('.')[1]}`" in walkthrough for key in DEFAULT_TOLERANCES)


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


def test_sweep_verb_default_dims(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_json(tmp_path / "s.json", {
        "family": {"kind": "diffusion", "viscosity": 0.01}, "output": {"path": str(out)}})
    assert main(["sweep", "--config", cfg]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert tuple(int(row.split(",")[0]) for row in rows) == DEFAULT_SWEEP_DIMS


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
    assert main(["bch", xp, yp, "--order", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    # Log(e^X e^Y) = X + Y + [X, Y]/2 for this pair: order 1 misses
    # ||[X, Y]/2||_1 = 1/2, and every later order is exact up to rounding
    residuals = [float(line.split("residual")[1]) for line in out if line.startswith("order ")]
    assert [line.split(":")[0] for line in out[-8:]] == [f"order {k}" for k in range(1, 9)]
    assert residuals[0] == pytest.approx(0.5, rel=1e-12)
    assert max(residuals[1:]) <= 1e-14


VN_CONFIG = {
    "hamiltonian": matrix_to_json(np.diag([1.0, -1.0])),
    "rho0": matrix_to_json(0.5 * np.ones((2, 2))),
}
SWEEP_CONFIG = {"family": {"kind": "diffusion", "dims": [8, 16], "viscosity": 0.01}, "t": 0.1}
# grid sizes whose cubes sum to 2.38e8, above unbounded.GRID_WORK_LIMIT
OVER_LIMIT_DIMS = list(range(150, 257, 4))
ROTATION_BY_PI = np.array([[0.0, math.pi], [-math.pi, 0.0]])


def test_sweep_verb_advection_tdep(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {
        "family": {"kind": "advection_tdep", "dims": [8, 16, 32]},
        "t": 0.1, "output": {"path": str(tmp_path / "tdep.csv")}})
    assert main(["sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[PASS] sweep/norm_growth_slope:" in out and "3/3 checks passed" in out


def test_sweep_verb_marches_a_fast_modulated_member(tmp_path):
    # 3.2e8 magnus4 steps of f(tau) A0 are one exponential of the integral,
    # powered, so the member's work depends on n alone.
    cfg = write_json(tmp_path / "s.json", {
        "family": {"kind": "advection_tdep", "dims": [16], "speed": 1e7},
        "t": 1.0, "s": 0.0, "output": {"path": str(tmp_path / "fast.csv")}})
    assert main(["sweep", "--config", cfg]) == 0


def test_sweep_verb_names_an_overflowing_march(tmp_path, capsys):
    # 2 ||A_8||_1 (t - s) overflows to inf; the one line names the march's
    # rounding, not the int conversion that used to fail on it
    cfg = write_json(tmp_path / "s.json", {
        "family": {"kind": "advection", "dims": [8], "speed": 1e150}, "t": 1e160})
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n = 8: a march of inf steps rounds like inf")
    assert err.count("\n") == 1


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
    ("sweep", {**SWEEP_CONFIG, "budget": 5e9}),
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
    ("verify", {"seed": -1}),
    ("verify", ["--seed", "-1"]),
    ("verify", {"tolerances": {"bch.order_law_k1": math.inf}}),
    ("verify", {"tolerances": {"bch.order_law_k1": math.nan}}),
    ("verify", {"tolerances": {"bch.order_law_k1": -1.0}}),
    ("vn-demo", {**VN_CONFIG, "grid": {"start": -1, "stop": 0, "points": 3}}),
    ("vn-demo", {**VN_CONFIG, "grid": {"start": 0.05, "stop": 1.0, "points": 10**15}}),
    # H = [[a, 1], [1, -a]] at t = 0 with ||H||_1 above 2^510, refused where
    # the matrix is decoded (H^2 used to overflow in the product logarithm's
    # series, where demo_residual would read nan)
    ("vn-demo", {**VN_CONFIG, "grid": {"start": 0.0, "stop": 0.0, "points": 1},
                 "hamiltonian": matrix_to_json(np.array([[1e160, 1.0], [1.0, -1e160]]))}),
    ("vn-demo", {**VN_CONFIG, "grid": {"start": 0.0, "stop": 0.0, "points": 1},
                 "hamiltonian": matrix_to_json(np.array([[1e200, 1.0], [1.0, -1e200]]))}),
    # ||A_16(t)||_1 <= 24, so the FD window [t - h, t + h] of the n = 16 member
    # reaches back past s = 0
    ("sweep", {"family": {"kind": "advection_tdep", "dims": [16, 32]},
               "t": 0.5 * fd_step(24.0), "s": 0.0}),
    ("verify", {"dims": [True, 2], "suites": ["matfun"]}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": [8, 257]}}),
    ("verify", {"sweep_dims": [8, 257], "suites": ["sweep"]}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": OVER_LIMIT_DIMS}}),
    ("verify", {"sweep_dims": OVER_LIMIT_DIMS, "suites": ["sweep"]}),
    ("verify", {"suites": ["bch"], "output": {"path": ""}}),
    # stencil coefficients so large that the march's k steps round like
    # k 2^-53 > 1e-6, refused before any member is built (it would also round
    # a centred surrogate to 0 at speed 1e18 and viscosity 1e16, and overflow
    # at 1e20 and 1e17; below those, viscosity 1e10 and 1e14 and speed 1e14
    # and 1e16 returned a wrong U(t, s) and exited 0)
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "advection", "dims": [8, 16], "speed": 1e18}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "advection", "dims": [8, 16], "speed": 1e20}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": [8, 16],
                                          "viscosity": 1e16}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": [8, 16],
                                          "viscosity": 1e17}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": [8, 16],
                                          "viscosity": 1e10}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": [8, 16],
                                          "viscosity": 1e14}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "advection", "dims": [8, 16], "speed": 1e14}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "advection", "dims": [8, 16], "speed": 1e16}}),
    # an FD step of 1.6e-16 at t = 0.5, where the floats lie 1.1e-16 apart
    ("sweep", {"family": {"kind": "advection", "dims": [4, 8], "speed": 1e14},
               "t": 0.5, "s": 0.499999}),
    # matrix entries that are not [re, im] pairs of real numbers
    ("bch", ([[[1, 0, 7], [0, 0]], [[0, 0], [1, 0]]], np.zeros((2, 2)))),
    ("bch", ([[[True, False], [0, 0]], [[0, 0], [1, 0]]], np.zeros((2, 2)))),
    ("vn-demo", {**VN_CONFIG, "hamiltonian": [[[1, 0, 7], [0, 0]], [[0, 0], [-1, 0]]]}),
    ("vn-demo", {**VN_CONFIG, "hamiltonian": [[[True, False], [0, 0]], [[0, 0], [-1, 0]]]}),
    # e^800 overflows in expm's squarings; matrices of 1e308 entries have a
    # 1-norm above 2^510 and are refused where they are decoded
    ("bch", (np.diag([800.0, 0.0]), np.zeros((2, 2)))),
    ("bch", (np.full((2, 2), 1e308), np.full((2, 2), 1e308))),
    ("vn-demo", {**VN_CONFIG, "hamiltonian": matrix_to_json(np.full((2, 2), 1e308))}),
    # 1-norms above 2^510 whose column sums are finite: the Hermitian test's
    # H - H* and the commuting test's [rho0, H] overflowed, with a numpy
    # warning before the one line
    ("vn-demo", {**VN_CONFIG, "hamiltonian": matrix_to_json(np.diag([1.0, 1.0 + 1.7e308j]))}),
    ("vn-demo", {"hamiltonian": matrix_to_json(np.diag([1.0, -1.0])),
                 "rho0": matrix_to_json(np.array([[0.5, 1.7e308], [-1.7e308, 0.5]]))}),
    # files that are not a JSON object, or not UTF-8 (raw bytes)
    ("verify", b"[1, 2]"),
    ("vn-demo", b"[]"),
    ("sweep", b"[]"),
    ("verify", b"{\"seed\": \xff}"),
    # required parts missing or of the wrong kind
    ("verify", {"tolerances": [1e-3]}),
    ("vn-demo", {"rho0": VN_CONFIG["rho0"]}),
    ("vn-demo", {"hamiltonian": VN_CONFIG["hamiltonian"]}),
    ("sweep", {"t": 0.1}),
    # command lines argparse rejects
    ("verify", ["--format", "xml"]),
    ("verify", ["--seed", "abc"]),
    ("verify", ["--suite", "nope"]),
    ("verify", ["--bogus"]),
    ("bch", ["x.json", "y.json", "--order", "9"]),
    ("bch", ["x.json", "y.json", "--order", "0"]),
    ("frobnicate", []),
    ("sweep", []),
    # a stencil coefficient the family's kind does not read
    ("sweep", {**SWEEP_CONFIG, "family": {**SWEEP_CONFIG["family"], "speed": 1e30}}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "advection_tdep", "dims": [8, 16],
                                          "viscosity": 0.01}}),
], ids=["sweep-dims-int", "sweep-t-null", "sweep-budget-key", "sweep-t-inf",
        "sweep-speed-zero", "vn-hbar-str", "bch-shape-mismatch", "bch-branch-cut",
        "bch-norm-above-expm-limit", "vn-trajectory-int", "vn-tolerance-key",
        "vn-hbar-underflow", "vn-hbar-overflow", "sweep-output-format",
        "verify-seed-negative", "verify-seed-flag-negative", "verify-tolerance-inf",
        "verify-tolerance-nan", "verify-tolerance-negative", "vn-grid-before-zero",
        "vn-grid-points-huge", "vn-jet-scale-1e160", "vn-jet-scale-1e200",
        "sweep-fd-window-before-s", "verify-dims-bool", "sweep-dims-257",
        "verify-sweep-dims-257", "sweep-dims-over-limit", "verify-sweep-dims-over-limit",
        "verify-output-path-empty", "sweep-speed-1e18", "sweep-speed-1e20",
        "sweep-viscosity-1e16", "sweep-viscosity-1e17", "sweep-viscosity-1e10",
        "sweep-viscosity-1e14", "sweep-speed-1e14", "sweep-speed-1e16",
        "sweep-probes-round-together", "bch-entry-triple",
        "bch-entry-bool", "vn-entry-triple", "vn-entry-bool", "bch-expm-overflow",
        "bch-column-sum-overflow", "vn-column-sum-overflow", "vn-hermitian-test-overflow",
        "vn-commuting-test-overflow", "verify-config-list", "vn-config-list",
        "sweep-config-list", "verify-config-not-utf8", "verify-tolerances-list",
        "vn-no-hamiltonian", "vn-no-rho0", "sweep-no-family",
        "verify-format-flag-xml", "verify-seed-flag-str",
        "verify-suite-flag-unknown", "verify-unknown-flag", "bch-order-9", "bch-order-0",
        "unknown-verb", "sweep-no-config", "sweep-diffusion-speed",
        "sweep-advection_tdep-viscosity"])
def test_bad_input_is_one_stderr_line(tmp_path, capsys, verb, payload):
    if isinstance(payload, list):
        argv = [verb, *payload]
    elif isinstance(payload, bytes):  # the config file's raw contents
        (tmp_path / "c.json").write_bytes(payload)
        argv = [verb, "--config", str(tmp_path / "c.json")]
    elif verb == "bch":  # each operand is raw JSON or a matrix to encode
        argv = ["bch", *(write_json(tmp_path / f"{k}.json",
                                    m if isinstance(m, list) else matrix_to_json(m))
                         for k, m in zip("xy", payload))]
    else:
        argv = [verb, "--config", write_json(tmp_path / "c.json", payload)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "missing.json"],
    ["vn-demo", "--config", "missing.json"],
    ["sweep", "--config", "missing.json"],
    ["bch", "x.json", "missing.json"],
], ids=["verify", "vn-demo", "sweep", "bch"])
def test_unreadable_file_is_one_io_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "x.json", matrix_to_json(np.eye(2)))
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "io error: [Errno 2] No such file or directory: 'missing.json'\n")


def test_vn_demo_at_the_matrix_norm_bound_warns_nothing(tmp_path, capsys):
    # ||H||_1 and ||rho0||_1 at 2^509, within the 2^510 a decoded matrix may
    # have: the Hermitian and commuting tests and 2 Z_2 stay finite, so no
    # numpy warning (an error under this suite's filter) is raised
    a = 2.0 ** 509
    cfg = write_json(tmp_path / "vn.json", {
        "hamiltonian": matrix_to_json(np.array([[a, 1.0], [1.0, -a]])),
        "rho0": matrix_to_json(np.array([[0.5, a], [a, 0.5]])),
        "grid": {"start": 0.0, "stop": 0.0, "points": 1},
        "trajectory": str(tmp_path / "traj.csv"),
    })
    assert main(["vn-demo", "--config", cfg]) == 0
    assert capsys.readouterr().out.endswith("2/2 checks passed\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0 and "--suite" in capsys.readouterr().out


@pytest.mark.parametrize("verb, payload", [
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": [8, 257]}}),
    ("verify", {"sweep_dims": [8, 257], "suites": ["sweep"]}),
    ("sweep", {**SWEEP_CONFIG, "family": {"kind": "diffusion", "dims": OVER_LIMIT_DIMS}}),
    # the n = 8 member's FD window [t - h, t + h], h = fd_step(||A_8||_1 = 2.56),
    # starts before s
    ("sweep", {**SWEEP_CONFIG, "t": 0.5 * fd_step(2.56), "s": 0.0}),
    # the generator is defined from time 0 on
    ("sweep", {**SWEEP_CONFIG, "s": -1.0}),
], ids=["sweep", "verify", "sweep-over-limit", "sweep-fd-window-before-s", "sweep-negative-s"])
def test_grid_size_above_256_builds_no_member(tmp_path, monkeypatch, verb, payload):
    built = []
    stencil = unbounded.diffusion_matrix
    monkeypatch.setattr(unbounded, "diffusion_matrix",
                        lambda n, viscosity: built.append(n) or stencil(n, viscosity))
    assert main([verb, "--config", write_json(tmp_path / "c.json", payload)]) == 2
    assert built == []


def test_verify_refuses_over_limit_sweep_dims_before_any_suite(tmp_path, monkeypatch, capsys):
    # refused at config load, where the grid sizes are ruled on, not after
    # the five suites that run before the sweep
    ran = []
    monkeypatch.setattr(cli, "run_suites", lambda *args: ran.append(args) or [])
    cfg = write_json(tmp_path / "c.json", {"sweep_dims": OVER_LIMIT_DIMS})
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'sweep_dims': dims' cubes sum to 2.384e+08")
    assert err.count("\n") == 1
    assert ran == []


def test_verify_turns_a_library_refusal_into_one_stderr_line(monkeypatch, capsys):
    # a suite's refusal takes the same one-line exit as every other verb's
    def refuse(seed):
        raise SingularMatrixError("reciprocal condition 0.000e+00 below threshold 1e-14")

    monkeypatch.setattr(campaigns, "suite_bch", refuse)
    assert main(["verify", "--suite", "bch"]) == 2
    assert capsys.readouterr().err == (
        "config error: reciprocal condition 0.000e+00 below threshold 1e-14\n")
