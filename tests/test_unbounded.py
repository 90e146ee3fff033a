"""Refinement-family tests: stencils, norm growth, sweep invariants."""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from shiftlog import linalg, logrep, matfun, unbounded
from shiftlog.campaigns import DEFAULT_SWEEP_DIMS, DEFAULT_TOLERANCES, _ramp_integral
from shiftlog.evolution import GeneratorSpec, check_semigroup, march
from shiftlog.linalg import norm_1
from shiftlog.logrep import alt_generator, recovery_chain, select_kappa
from shiftlog.matfun import expm, fd_probes, fd_step
from shiftlog.unbounded import (
    GRID_WORK_LIMIT,
    SWEEP_COLUMNS,
    SWEEP_STEPPER,
    _calibrated_steps,
    DiscretizedFamily,
    advection_matrix,
    diffusion_matrix,
    grid_potential,
    refinement_sweep,
    semigroup_residual,
    tdep_integral,
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
    g = DiscretizedFamily("advection_tdep", (8,)).member(8)
    np.testing.assert_allclose(g.eval(0.0), advection_matrix(8, 1.0))


@pytest.mark.parametrize("integral, f", [
    (tdep_integral, lambda tau: 1 + mpmath.sin(2 * mpmath.pi * tau) / 2),
    (_ramp_integral, lambda tau: 1 + tau),
], ids=["advection_tdep", "campaign-ramp"])
def test_modulation_integral_keeps_its_relative_accuracy(integral, f):
    # A difference of primitives F(t) - F(s) for tdep_integral lost up to
    # 1e-11 relative over these cases with s <= 1, and 2e-8 with s >= 100.
    # Reducing t and s mod 2 before sin(pi (t + s)) took s >= 100 from up to
    # 1.8e-12 to 2.4e-16.
    with mpmath.workdps(40):
        for s in (0.0, 0.3, 100.0, 1000.0, 12345.678):
            for span in (1e-6, 2.5e-3, 0.1, 1.0):
                t = s + span
                exact = mpmath.quad(f, [mpmath.mpf(s), mpmath.mpf(t)])
                error = abs((mpmath.mpf(integral(s, t)) - exact) / exact)
                assert error <= 1e-15, (s, span, float(error))


def test_build_rejects_small_grids():
    for kind in ("advection", "diffusion", "advection_tdep"):
        with pytest.raises(ValueError):
            DiscretizedFamily(kind, (8,)).member(2)


def test_family_validation():
    with pytest.raises(ValueError):
        DiscretizedFamily("diffusion", (16, 8))
    with pytest.raises(ValueError):
        DiscretizedFamily("diffusion", (8, 8))
    with pytest.raises(ValueError):
        DiscretizedFamily("diffusion", ())
    with pytest.raises(ValueError):
        DiscretizedFamily("unknown", (8, 16))
    for bad in (True, 8.0, 3, 257):
        with pytest.raises(ValueError, match="4..256"):
            DiscretizedFamily("diffusion", (bad,))


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
    slope = np.polyfit(np.log([r.n for r in report.rows]),
                       np.log([r.norm_A for r in report.rows]), 1)[0]
    assert 1.8 <= slope <= 2.2
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
    # the FD step shrinks with the generator norm, so the recovery error
    # stays small
    assert max(r.residual_recovery for r in report.rows) <= 1e-3


def test_advection_tdep_recovery_keeps_its_relative_accuracy_to_256():
    # Each member's FD step is FD_STEP / ||A_n(t)||_1.  At a fixed 5e-3 the
    # relative error grew from 1.5e-6 at n = 16 to 5.4e-2 at n = 256; now it
    # reads 4.3e-8 to 2.9e-7.
    family = DiscretizedFamily("advection_tdep", (16, 32, 64, 128, 256))
    report = refinement_sweep(family, t=0.1, s=0.0)
    for row in report.rows:
        assert row.residual_recovery <= 1e-6 * family.norm(row.n, 0.1), row.n


def test_sweep_csv_shape():
    family = DiscretizedFamily("diffusion", (8,), viscosity=0.01)
    report = refinement_sweep(family, t=0.1, s=0.0)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("8,")


def test_sweep_refuses_a_march_that_cannot_hold_its_accuracy(monkeypatch):
    # k u above the campaign's tightest tolerance on U(t, s): viscosity 1e10
    # marches the n = 16 member in 2.0e12 steps (k u = 2.3e-4), and its
    # norm_a read 4e-5 off; refused before any member is built
    assert unbounded.MARCH_ROUNDING_LIMIT == DEFAULT_TOLERANCES["sweep.semigroup_calibrated"]
    built = []
    member = DiscretizedFamily.member
    monkeypatch.setattr(DiscretizedFamily, "member",
                        lambda self, n: built.append(n) or member(self, n))
    with pytest.raises(ValueError, match="rounds like"):
        refinement_sweep(DiscretizedFamily("diffusion", (8, 16), viscosity=1e10), t=0.1, s=0.0)
    assert built == []
    # the README's speed 1e7 at t - s = 1 is 3.2e8 steps, k u = 3.6e-8
    assert refinement_sweep(DiscretizedFamily("advection_tdep", (16,), speed=1e7), 1.0, 0.0).rows
    assert built == [16]


def test_sweep_refuses_a_march_length_that_overflows():
    # 2 ||A_8||_1 (t - s) = 1.6e311 is inf in floating point; the refusal
    # compares it with the limit before a step count (an int) is formed
    with pytest.raises(ValueError, match="march of inf steps rounds like inf"):
        refinement_sweep(DiscretizedFamily("advection", (8,), speed=1e150), 1e160, 0.0)


def test_sweep_refuses_probes_that_round_together(monkeypatch):
    # speed 1e14: h = fd_step(||A_4||_1 = 4e14) = 1.6e-16 at t = 0.5, where the
    # floats lie 1.1e-16 apart, so the probes round onto a few of them; read
    # as a stencil they gave recovery residuals of 10% and 47% of ||A_n||_1
    built = []
    member = DiscretizedFamily.member
    monkeypatch.setattr(DiscretizedFamily, "member",
                        lambda self, n: built.append(n) or member(self, n))
    with pytest.raises(ValueError, match="resolved at t0 = 0.5"):
        refinement_sweep(DiscretizedFamily("advection", (4, 8), speed=1e14), 0.5, 0.499999)
    assert built == []


@pytest.mark.parametrize("family", [
    DiscretizedFamily("diffusion", (16, 32, 64, 96), viscosity=0.01),
    DiscretizedFamily("advection_tdep", (16, 32, 64, 128)),
], ids=["diffusion", "advection_tdep"])
def test_benchmark_sweeps_probe_far_above_the_float_spacing(family):
    # the benchmark's sweeps at t = 0.1: every step is 1.7e-4 or more, over
    # 1e12 times the spacing of the floats there (1.4e-17)
    for n in family.dims:
        h = fd_step(family.norm(n, 0.1))
        assert h >= 1.7e-4
        assert fd_probes(0.1, h) == [0.1 - h, 0.1 - h / 2, 0.1 + h / 2, 0.1 + h]


def test_grid_rule_accepts_diffusion_to_128():
    from shiftlog.campaigns import suite_sweep
    reports = suite_sweep(0, dims=(16, 32, 64, 128))
    assert len(reports) == 4 and all(r.passed for r in reports)


def _load_benchmark_workloads() -> dict:
    # perfbench/workloads.py is data only; load it by path, as no package holds it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCHMARK_WORKLOADS = _load_benchmark_workloads()


def _benchmark_family(workload: str) -> tuple[str, tuple, dict]:
    """Kind, grid sizes and stencil of the refinement sweep a benchmark
    workload runs: the ``sweep`` verb's config, or the campaign's diffusion
    sweep under ``verify``."""
    spec = BENCHMARK_WORKLOADS[workload]
    cfg = spec["config"]
    if spec["argv"][0] == "verify":
        return "diffusion", tuple(cfg.get("sweep_dims", DEFAULT_SWEEP_DIMS)), {"viscosity": 0.01}
    fam = cfg["family"]
    stencil = {key: fam[key] for key in ("speed", "viscosity") if key in fam}
    return fam["kind"], tuple(fam.get("dims", DEFAULT_SWEEP_DIMS)), stencil


@pytest.mark.parametrize("kind, dims, stencil", [
    *map(_benchmark_family, BENCHMARK_WORKLOADS),
    # Each n = 256 member's march is five powered segments; the diffusion sweep
    # took 0.23-0.29 s and the advection_tdep one 0.23-0.30 s on a 2-vCPU Xeon
    # VM with one BLAS thread, at t = 0.1, s = 0.
    ("diffusion", (32, 64, 128, 256), {"viscosity": 0.01}),
    ("advection_tdep", (32, 64, 128, 256), {}),
], ids=[*BENCHMARK_WORKLOADS, "diffusion-to-256", "advection_tdep-to-256"])
def test_sweep_budget_admits(kind, dims, stencil):
    # The sweep's work budget is the grid rule.  The benchmark's families take
    # at most 1.9% of it, the two n <= 256 ones 15%.
    assert DiscretizedFamily(kind, dims, **stencil).dims == dims
    assert sum(n ** 3 for n in dims) <= 0.16 * GRID_WORK_LIMIT


def test_grid_rule_is_the_sum_of_cubes(monkeypatch):
    # cubes summing to GRID_WORK_LIMIT exactly are admitted, one more is not,
    # whatever the kind; a refused family builds no member
    built = []
    for name in ("advection_matrix", "diffusion_matrix"):
        stencil = getattr(unbounded, name)
        monkeypatch.setattr(unbounded, name,
                            lambda n, c, stencil=stencil: built.append(n) or stencil(n, c))
    at_limit = (145, 230, 236, 246, 251, 253, 254, 255, 256)
    one_over = (172, 213, 243, 245, 248, 253, 254, 255, 256)
    assert sum(n ** 3 for n in at_limit) == GRID_WORK_LIMIT
    assert sum(n ** 3 for n in one_over) == GRID_WORK_LIMIT + 1
    for kind in ("advection", "diffusion", "advection_tdep"):
        assert DiscretizedFamily(kind, at_limit).dims == at_limit
        for dims in (one_over, tuple(range(150, 257, 4))):
            with pytest.raises(ValueError, match="cubes sum to"):
                refinement_sweep(DiscretizedFamily(kind, dims), t=0.1, s=0.0)
    assert built == []


def test_powered_march_matches_expm_at_n128():
    # The sweep's march of a diffusion member, powered segment by segment,
    # against one exponential of the whole interval.
    family = DiscretizedFamily("diffusion", (128,), viscosity=0.01)
    g = family.member(128)
    steps = _calibrated_steps(family.norm(128, 0.0), 0.1)
    chain = recovery_chain([0.1], fd_step(family.norm(128, 0.1)))
    u = march(g, 0.0, chain, steps / 0.1, SWEEP_STEPPER)[0.1]
    exact = expm(0.1 * g.eval(0.0))
    assert norm_1(u - exact) <= 1e-12 * norm_1(exact)


def test_family_norm_is_the_members_norm():
    for family in (DiscretizedFamily("diffusion", (8,), viscosity=0.01),
                   DiscretizedFamily("advection", (8,), speed=0.3),
                   DiscretizedFamily("advection_tdep", (8,), speed=2.0)):
        for n in (8, 96, 256):
            for s in (0.0, 0.1, 0.37):
                measured = norm_1(family.member(n).eval(s))
                assert abs(family.norm(n, s) - measured) <= 1e-14 * measured


def test_calibrated_tdep_march_matches_the_closed_form():
    # The sweep's march of U(0.1, 0).  A(tau) = (1 + sin(2 pi tau) / 2) A0
    # commutes with itself, so U = expm(w A0) with w the integral of the
    # modulation over [0, 0.1], here from its primitive, not from the
    # family's integral.  magnus2 at 8 ||A|| (t - s) steps was 2.0e-6 to
    # 5.1e-6 off here, and the Gauss-Legendre node sum 4.6e-12 to 4.0e-11.
    family = DiscretizedFamily("advection_tdep", (16, 32, 64, 128, 256))
    w = 0.1 + (1.0 - math.cos(0.2 * math.pi)) / (4.0 * math.pi)
    for n in family.dims:
        steps = _calibrated_steps(family.norm(n, 0.0), 0.1)
        chain = recovery_chain([0.1], fd_step(family.norm(n, 0.1)))
        u = march(family.member(n), 0.0, chain, steps / 0.1, SWEEP_STEPPER)[0.1]
        exact = expm(w * advection_matrix(n))
        assert norm_1(u - exact) <= 1e-13 * norm_1(exact)


def test_calibrated_tdep_semigroup_holds_off_the_step_grid():
    # r = 0.4 t exactly, so the legs step at another h than U(t, s).  Each
    # leg is the exponential of its own integral, so only rounding is left;
    # the Gauss-Legendre node sum read 4.7e-12 to 1.7e-8 here.
    family = DiscretizedFamily("advection_tdep", (8, 16, 32, 64, 128))
    for n in family.dims:
        t = 0.5 if n <= 16 else 0.1
        steps = _calibrated_steps(family.norm(n, 0.0), t)
        assert check_semigroup(family.member(n), 0.0, 0.4 * t, t, steps, SWEEP_STEPPER) <= 1e-12


def test_sweep_member_takes_six_logarithms(monkeypatch):
    # a(t, s) of the member and of the grid potential, and a(tau, s) at the
    # four other FD probe times of one Richardson level.
    calls = []
    for module in (unbounded, logrep):
        monkeypatch.setattr(module, "alt_generator",
                            lambda u, kappa: calls.append(kappa) or alt_generator(u, kappa))
    refinement_sweep(DiscretizedFamily("advection_tdep", (16, 32)), t=0.1, s=0.0)
    assert len(calls) == 2 * 6


def test_sweep_member_marches_once_from_s(monkeypatch):
    logs = []
    member = DiscretizedFamily.member

    def logged_member(self, n):
        g, times = member(self, n), []
        logs.append(times)
        return GeneratorSpec(g.dim, g.T, lambda tau: times.append(tau) or g.func(tau))

    monkeypatch.setattr(DiscretizedFamily, "member", logged_member)
    family = DiscretizedFamily("advection_tdep", (16,))
    refinement_sweep(family, t=0.1, s=0.0)
    times = logs[-1]
    # A(s) for the naive BCH first and the reference A(t) of the recovery
    # residual last; every evaluation between them belongs to the march.
    assert times[0] == 0.0 and times[-1] == 0.1
    march = times[1:-1]
    assert march[0] >= 0.0 and march[-1] <= 0.1 + fd_step(family.norm(16, 0.1)) + 1e-12
    assert all(a <= b + 1e-12 for a, b in zip(march, march[1:]))


def test_advection_tdep_sweep_solve_count(solve_calls, sqrtm_db_calls, expm_calls, eval_calls):
    # the benchmark's time-dependent sweep; with two LU solves per
    # Denman-Beavers iteration it made 1110 solves.  Before the logarithm
    # centred U + kappa I on ln(c) I it made 557 solves in 95 square roots,
    # and 116 in 23 while the series disc was 1/4.  At a fixed FD step of
    # 5e-3 two n = 128 probes, at ||M / c - I||_1 = 0.52 and 0.53, took a
    # root; sized by each member's norm, no probe takes one.
    # Its magnus4 marches power one step exponential per segment, 20 in all,
    # and each member takes 6 more; a step exponential at every one of the
    # 140 steps made 168 expm calls, and magnus2 at 8 ||A|| (t - s) steps
    # 266.  Each member evaluates A(s) and A(t) only; stepped, the marches
    # made 280 evaluations more.  Each member took a seventh expm, the
    # recovery's expm(-a(t, s)), before the recovery read U(t, s) by one
    # solve: 48 -> 44.
    refinement_sweep(DiscretizedFamily("advection_tdep", (16, 32, 64, 128)), 0.1, 0.0)
    assert 0 < len(solve_calls) <= 14
    assert len(sqrtm_db_calls) == 0
    assert 0 < len(expm_calls) <= 44
    assert 0 < len(eval_calls) <= 8
    # The fixture does count: the n = 8 member at t = 0.5 takes two roots.
    refinement_sweep(DiscretizedFamily("advection_tdep", (8,)), 0.5, 0.0)
    assert len(sqrtm_db_calls) == 2


def test_diffusion_sweep_sqrtm_count(sqrtm_db_calls):
    # the benchmark's constant-generator sweep; 72 square roots before the
    # logarithm centred U + kappa I, and 15 while the series disc was 1/4.
    # Every centred U + kappa I now lies within the disc.  The fixture does
    # count: the advection_tdep member n = 8 at t = 0.5 takes 2 roots through it.
    family = DiscretizedFamily("diffusion", (16, 32, 64, 96), viscosity=0.01)
    refinement_sweep(family, 0.1, 0.0)
    assert len(sqrtm_db_calls) == 0
    refinement_sweep(DiscretizedFamily("advection_tdep", (8,)), 0.5, 0.0)
    assert len(sqrtm_db_calls) == 2


def test_sweep_kernels_run_on_real_matrices(replace_everywhere):
    # Every stencil, U(t, s), kappa and surrogate of the sweep is real, so every
    # exponential, logarithm and solve takes float64 (dgemm and dgesv), not
    # complex128.
    dtypes = {}
    for home, name in ((matfun, "expm"), (matfun, "logm_iss"), (linalg, "solve")):
        def recording(*args, _inner=getattr(home, name), _seen=dtypes.setdefault(name, [])):
            out = _inner(*args)
            _seen.append(out.dtype)
            return out

        replace_everywhere(home, name, recording)
    for family in (DiscretizedFamily("diffusion", (16, 32), viscosity=0.01),
                   DiscretizedFamily("advection_tdep", (16, 32))):
        refinement_sweep(family, 0.1, 0.0)
    assert all(dtypes.values())
    assert {name: set(seen) for name, seen in dtypes.items()} == dict.fromkeys(
        dtypes, {np.dtype(np.float64)})


# The largest relative move of each sweep column between float64 and
# complex128 stencils, measured at n = 16, 32, 64 on both families: norm_a
# 1.3e-15, kappa 2.1e-15, residual_naive 7.3e-13 and residual_shifted_bch
# 5.5e-11 (an absolute 2.7e-15 or less), and residual_recovery 1.1e-7 on
# advection_tdep.  Each bound is ten times that, rounded up to a power of ten.
# norm_A and its ratio are absolute values summed in the same order: equal.
REAL_SWEEP_MOVE = {"norm_A": 0.0, "norm_A_ratio": 0.0, "norm_a": 1e-13, "kappa": 1e-13,
                   "residual_naive": 1e-11, "residual_shifted_bch": 1e-9,
                   "residual_recovery": 1e-5}


@pytest.mark.parametrize("family", [
    DiscretizedFamily("diffusion", (16, 32, 64), viscosity=0.01),
    DiscretizedFamily("advection_tdep", (16, 32, 64)),
], ids=lambda family: family.kind)
def test_real_sweep_matches_the_sweep_on_complex_stencils(monkeypatch, family):
    real = refinement_sweep(family, 0.1, 0.0)
    for name in ("advection_matrix", "diffusion_matrix", "grid_potential"):
        monkeypatch.setattr(unbounded, name, lambda *args, _real=getattr(unbounded, name):
                            _real(*args).astype(np.complex128))
    cplx = refinement_sweep(family, 0.1, 0.0)
    columns = dict(REAL_SWEEP_MOVE)
    if family.kind == "diffusion":
        # I - kappa e^{-a} is about as singular as U, and the recovery amplifies
        # rounding by about 1e11: n = 64 moves 2.46e-5 -> 2.26e-5.  Not graded.
        del columns["residual_recovery"]
    for r, c in zip(real.rows, cplx.rows):
        for column, bound in columns.items():
            x, y = getattr(r, column), getattr(c, column)
            assert abs(x - y) <= bound * abs(y), (r.n, column, x, y)


def test_sweep_kappa_comes_from_the_march():
    family = DiscretizedFamily("advection_tdep", (16, 32))
    report = refinement_sweep(family, t=0.1, s=0.0)
    for row in report.rows:
        steps = _calibrated_steps(family.norm(row.n, 0.0), 0.1)
        chain = recovery_chain([0.1], fd_step(family.norm(row.n, 0.1)))
        u_at = march(family.member(row.n), 0.0, chain, steps / 0.1, SWEEP_STEPPER)
        assert row.kappa == select_kappa([u_at[0.1], expm(0.1 * grid_potential(row.n))])


def test_semigroup_residual_splits_the_calibrated_steps(monkeypatch):
    # diffusion nu = 0.01, n = 32, t = 0.1: 32 calibrated steps, split at
    # r = 0.04, off the step grid: ceil(12.8) and ceil(19.2) steps
    import shiftlog.evolution as evolution
    legs = []
    inner = evolution.propagate

    def recording(g, t, s, steps, stepper="rk4"):
        legs.append((t, s, steps))
        return inner(g, t, s, steps, stepper)

    monkeypatch.setattr(evolution, "propagate", recording)
    semigroup_residual(DiscretizedFamily("diffusion", (32,), viscosity=0.01), 32, 0.1, 0.0)
    r = 0.0 + 0.4 * 0.1
    assert legs == [(r, 0.0, 13), (0.1, r, 20), (0.1, 0.0, 32)]


def test_semigroup_residual_calibrated():
    # Above 0: at the midpoint a constant member's legs were S^16 S^16, S^32's
    # own chain of squarings, and the residual read exactly 0.
    family = DiscretizedFamily("diffusion", (8, 16, 32), viscosity=0.01)
    for n in family.dims:
        assert 0.0 < semigroup_residual(family, n, 0.1, 0.0) <= 1e-6
    tdep = DiscretizedFamily("advection_tdep", (8, 16))
    for n in tdep.dims:
        assert 0.0 < semigroup_residual(tdep, n, 0.5, 0.0) <= 1e-6
