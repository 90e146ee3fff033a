"""Refinement-family tests: stencils, norm growth, sweep invariants."""

import numpy as np
import pytest

from shiftlog.errors import BudgetExceededError
from shiftlog.linalg import norm_1
from shiftlog.unbounded import (
    DEFAULT_SWEEP_BUDGET,
    SWEEP_COLUMNS,
    DiscretizedFamily,
    advection_matrix,
    build,
    diffusion_matrix,
    grid_potential,
    refinement_sweep,
    semigroup_residual,
    sweep_cost,
)


def test_advection_stencil_hand_values():
    # n = 4, c = 1, h = 1/4: rows are 2 * [0, 1, 0, -1] cyclic
    a = advection_matrix(4, 1.0)
    np.testing.assert_allclose(a[0].real, [0.0, 2.0, 0.0, -2.0])
    assert norm_1(a) == 4.0
    np.testing.assert_allclose(a, -a.T)  # skew-symmetric


def test_diffusion_stencil_hand_values():
    # n = 4, nu = 1: rows are 16 * [-2, 1, 0, 1] cyclic
    a = diffusion_matrix(4, 1.0)
    np.testing.assert_allclose(a[0].real, [-32.0, 16.0, 0.0, 16.0])
    assert norm_1(a) == 64.0
    np.testing.assert_allclose(a, a.T)  # symmetric


def test_diffusion_negative_semidefinite():
    a = diffusion_matrix(8, 0.5).real
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(8)
        assert x @ a @ x <= 1e-10


def test_modulation_normalized_at_zero():
    g = build("advection_tdep", 8)
    np.testing.assert_allclose(g.eval(0.0), advection_matrix(8, 1.0))


def test_build_rejects_small_grids():
    for kind in ("advection", "diffusion", "advection_tdep"):
        with pytest.raises(ValueError):
            build(kind, 2)
    with pytest.raises(ValueError):
        build("spectral", 8)


def test_family_validation():
    with pytest.raises(ValueError):
        DiscretizedFamily("diffusion", (16, 8))
    with pytest.raises(ValueError):
        DiscretizedFamily("diffusion", (8, 8))
    with pytest.raises(ValueError):
        DiscretizedFamily("diffusion", ())
    with pytest.raises(ValueError):
        DiscretizedFamily("unknown", (8, 16))


def test_norm_growth_ratios():
    norms = [norm_1(diffusion_matrix(n)) for n in (8, 16, 32)]
    np.testing.assert_allclose([v / norms[0] for v in norms], [1.0, 4.0, 16.0])
    adv = [norm_1(advection_matrix(n)) for n in (8, 16, 32)]
    np.testing.assert_allclose(adv, [8.0, 16.0, 32.0])


def test_grid_potential_bounded():
    assert norm_1(grid_potential(64)) <= 1.0 + 1e-12


def test_refinement_sweep_diffusion():
    family = DiscretizedFamily("diffusion", (8, 16, 32), viscosity=0.01)
    report = refinement_sweep(family, t=0.1, s=0.0)
    assert [r.n for r in report.rows] == [8, 16, 32]
    # quadratic norm growth
    assert 1.8 <= report.norm_slope() <= 2.2
    np.testing.assert_allclose([r.norm_A_ratio for r in report.rows],
                               [1.0, 4.0, 16.0])
    # surrogate norms stay within a narrow band while norm_A grows 16x
    assert report.band_ratio() <= 2.0
    # the shifted identity residual stays small and flat
    shifted = [r.residual_shifted_bch for r in report.rows]
    assert max(shifted) <= 1e-2
    # naive BCH residual on the raw generators grows monotonically
    naive = [r.residual_naive for r in report.rows]
    assert naive[0] < naive[1] < naive[2]
    # recovery stays finite at these scales
    assert all(np.isfinite(r.residual_recovery) for r in report.rows)


def test_refinement_sweep_advection_band():
    family = DiscretizedFamily("advection", (8, 16, 32))
    report = refinement_sweep(family, t=0.5, s=0.0)
    norms = [r.norm_A for r in report.rows]
    assert norms == sorted(norms) and norms[0] < norms[-1]
    assert report.band_ratio() <= 4.0
    # recovery error grows with the generator norm through the FD truncation
    # but stays small at these scales
    assert max(r.residual_recovery for r in report.rows) <= 1e-3


def test_sweep_csv_shape():
    family = DiscretizedFamily("diffusion", (8,), viscosity=0.01)
    report = refinement_sweep(family, t=0.1, s=0.0)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("8,")


def test_sweep_budget_guard():
    family = DiscretizedFamily("diffusion", (8, 16), viscosity=0.01)
    with pytest.raises(BudgetExceededError):
        refinement_sweep(family, t=0.1, s=0.0, budget=10.0)


def test_sweep_budget_accepts_diffusion_to_128():
    from shiftlog.campaigns import suite_sweep
    reports = suite_sweep(0, dims=(16, 32, 64, 128))
    assert len(reports) == 4 and all(r.passed for r in reports)


def test_sweep_budget_accepts_benchmark_configs():
    # The campaign's default sweep, the sweep suite at n = 16..96 and the
    # time-dependent advection sweep to n = 128, all at t = 0.1, s = 0.
    configs = [DiscretizedFamily("diffusion", (8, 16, 32, 64), viscosity=0.01),
               DiscretizedFamily("diffusion", (16, 32, 64, 96), viscosity=0.01),
               DiscretizedFamily("advection_tdep", (16, 32, 64, 128))]
    for family in configs:
        assert sweep_cost(family, 0.1, 0.0) <= DEFAULT_SWEEP_BUDGET


def test_sweep_budget_rejects_diffusion_to_256():
    family = DiscretizedFamily("diffusion", (32, 64, 128, 256), viscosity=0.01)
    with pytest.raises(BudgetExceededError):
        refinement_sweep(family, t=0.1, s=0.0)


def test_sweep_cost_charges_expm_per_step_only_when_generator_changes():
    const = sweep_cost(DiscretizedFamily("advection", (64,)), 0.1, 0.0)
    tdep = sweep_cost(DiscretizedFamily("advection_tdep", (64,)), 0.1, 0.0)
    assert tdep > 2.0 * const


def test_semigroup_residual_calibrated():
    family = DiscretizedFamily("diffusion", (8, 16, 32), viscosity=0.01)
    for n in family.dims:
        assert semigroup_residual(family, n, 0.1, 0.0) <= 1e-6
    tdep = DiscretizedFamily("advection_tdep", (8, 16))
    for n in tdep.dims:
        assert semigroup_residual(tdep, n, 0.5, 0.0) <= 1e-6
