"""Campaign grading: window checks and the sweep records."""

import math

import pytest

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
