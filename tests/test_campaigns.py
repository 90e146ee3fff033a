"""Campaign grading: window checks and the sweep records."""

import ast
import math
import time
from pathlib import Path

import pytest

import shiftlog

from shiftlog import bch, campaigns
from shiftlog.campaigns import Recorder, _window_excess, grade_sweep
from shiftlog.unbounded import DiscretizedFamily, SweepReport, SweepRow


@pytest.mark.parametrize("value, excess", [
    (2.0, 0.0),
    (1.0, 0.5),
    (3.0, 0.5),
    (math.inf, math.inf),
    (-math.inf, math.inf),
    (math.nan, math.inf),
])
def test_window_excess(value, excess):
    assert _window_excess(value, 1.5, 2.5) == excess


def sweep_report(kind, norms):
    rows = tuple(SweepRow(n, norm, norm / norms[0], 1.0, 1.0, 0.0, 1e-3, 0.0)
                 for n, norm in zip((8, 16, 32), norms))
    dims = tuple(r.n for r in rows)
    return SweepReport(DiscretizedFamily(kind, dims), 0.1, 0.0, rows)


@pytest.mark.parametrize("kind, norms, slope_passes", [
    ("diffusion", (1.0, 4.0, 16.0), True),
    ("diffusion", (1.0, 2.0, 4.0), False),   # order 1 is outside diffusion's window
    ("advection", (1.0, 2.0, 4.0), True),
    ("advection", (1.0, 1.0, 1.0), False),   # norms must strictly increase
])
def test_grade_sweep_slope_window(kind, norms, slope_passes):
    rec = Recorder("sweep")
    grade_sweep(rec, sweep_report(kind, norms))
    verdicts = {r.case: r.passed for r in rec.reports}
    assert verdicts == {"norm_growth_slope": slope_passes, "surrogate_band_ratio": True,
                        "shifted_identity_band": True}


def test_grade_sweep_one_row_has_no_slope():
    rec = Recorder("sweep")
    grade_sweep(rec, sweep_report("diffusion", (1.0,)))
    assert [r.case for r in rec.reports] == ["surrogate_band_ratio", "shifted_identity_band"]


def test_matfun_contour_time_is_charged_to_its_own_case(monkeypatch):
    oracle = campaigns.logm_contour

    def slow_contour(m, spec):
        time.sleep(0.01)
        return oracle(m, spec)

    monkeypatch.setattr(campaigns, "logm_contour", slow_contour)
    cases = {r.case: r for r in campaigns.suite_matfun(42, dims=(2,), count=5)}
    assert cases["contour_vs_iss"].runtime_ms >= 50.0


def test_hbar_scaling_fails_when_the_prefactor_ignores_hbar(monkeypatch):
    cases = {r.case: r for r in campaigns.suite_von_neumann(42)}
    assert cases["hbar_scaling"].passed
    evolve = bch.von_neumann_rhs

    def unit_hbar(rho0, h_op, hbar=1.0, tgrid=None):
        return evolve(rho0, h_op, 1.0, tgrid)

    monkeypatch.setattr(bch, "von_neumann_rhs", unit_hbar)
    cases = {r.case: r for r in campaigns.suite_von_neumann(42)}
    assert not cases["hbar_scaling"].passed


def test_every_exported_name_is_read_by_the_package():
    # A name the package exports but never reads outside __init__ serves only
    # its tests, and goes.  Reads are loaded names and
    # attribute accesses; a def or class statement is not a read.
    pkg = Path(shiftlog.__file__).parent
    init = ast.parse((pkg / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for path in pkg.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(exported - read) == []
