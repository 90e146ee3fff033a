"""Campaign grading: window checks and the sweep records."""

import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest

import shiftlog

from shiftlog import bch, campaigns, cli, evolution, logrep, matfun
from shiftlog.campaigns import Recorder, _window_excess, grade_sweep
from shiftlog.evolution import GeneratorSpec
from shiftlog.linalg import norm_1
from shiftlog.matfun import fd_step
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

    def slow_contour(m):
        time.sleep(0.01)
        return oracle(m)

    monkeypatch.setattr(campaigns, "logm_contour", slow_contour)
    cases = {r.case: r for r in campaigns.suite_matfun(42, dims=(2,), count=5)}
    assert cases["contour_vs_iss"].runtime_ms >= 50.0


def test_hbar_scaling_fails_when_the_prefactor_ignores_hbar(monkeypatch):
    cases = {r.case: r for r in campaigns.suite_von_neumann(42)}
    assert cases["hbar_scaling"].passed
    evolve = bch.von_neumann_rhs

    def unit_hbar(rho0, h_op, hbar, tgrid):
        return evolve(rho0, h_op, 1.0, tgrid)

    monkeypatch.setattr(bch, "von_neumann_rhs", unit_hbar)
    cases = {r.case: r for r in campaigns.suite_von_neumann(42)}
    assert not cases["hbar_scaling"].passed


def _series_with_log_coefficients(c1, c2):
    """``bch.log_product_series`` at order 2 and kappa = 0, with c1 and c2 in
    place of the logarithm's degree-1 and degree-2 coefficients 1 and -1/2:
    with P_1 = Z_1 and P_2 = Z_2 + Z_1^2 / 2, Z_1 = c1 P_1 and
    Z_2 = c1 P_2 + c2 P_1^2."""
    exact = bch.log_product_series

    def faulty(x, y, order, kappa=0):
        assert order == 2 and kappa == 0
        z0, z1, z2 = exact(x, y, order, kappa)
        return [z0, c1 * z1, c1 * (z2 + z1 @ z1 / 2) + c2 * z1 @ z1]

    return faulty


# every von Neumann record that reads a second derivative
_SECOND_DERIVATIVE_RECORDS = {"frozen_commutator", "frozen_commuting_zero", "antisymmetry",
                              "reversed_pair_chain", "demo_residual",
                              "expansion_frozen_second", "expansion_integral_second"}


def test_von_neumann_checks_fail_on_a_wrong_logarithm_coefficient(replace_everywhere):
    # a degree-2 coefficient of -0.49: Z_2 gains 0.01 Z_1^2, so every second
    # derivative gains 0.02 (X + Y)^2, and the seven records that read one
    # fail; the first derivative, the trace drift and the hbar rescaling of
    # the states do not read it
    replace_everywhere(bch, "log_product_series", _series_with_log_coefficients(1.0, -0.49))
    failed = {r.case for r in campaigns.suite_von_neumann(42) if not r.passed}
    assert failed == _SECOND_DERIVATIVE_RECORDS


def test_von_neumann_checks_fail_on_a_wrong_degree_one_coefficient(replace_everywhere):
    # a degree-1 coefficient of 0.99: Z_1 = 0.99 (a1 + a2) fails
    # expansion_frozen_first, which otherwise reads exactly 0, and every
    # second derivative moves too
    replace_everywhere(bch, "log_product_series", _series_with_log_coefficients(0.99, -0.5))
    failed = {r.case for r in campaigns.suite_von_neumann(42) if not r.passed}
    assert failed == _SECOND_DERIVATIVE_RECORDS | {"expansion_frozen_first"}


def test_logarithm_checks_fail_on_a_wrong_logarithm_coefficient(replace_everywhere):
    # Log(M) + 0.01 (M - I)^2 moves logm_iss's series coefficient of degree 2
    # from -1/2 to -0.49.  It failed the seven von Neumann records above while
    # they read a logarithm of a jet product; it still fails nine records in
    # the suites that take logarithms
    exact = matfun.logm_iss

    def wrong_degree_two(m):
        m = np.asarray(m, dtype=complex)
        x = m - np.eye(len(m))
        return exact(m) + 0.01 * x @ x

    replace_everywhere(matfun, "logm_iss", wrong_degree_two)
    failed = {f"{r.suite}.{r.case}" for suite in ("matfun", "logrep", "bch")
              for r in campaigns.run_suites([suite], 42) if not r.passed}
    assert failed == {"matfun.contour_vs_iss", "matfun.exp_log_roundtrip",
                      "matfun.log_exp_roundtrip", "logrep.asymmetry_zero_kappa",
                      "logrep.recover_constant", "logrep.recover_modulated",
                      "logrep.reexponentiation", "bch.order_law_k2", "bch.order_law_k3"}


def _plain_central_difference(f, t0, h):
    """A second-order first derivative: the central difference at h alone."""
    return (f(t0 + h) - f(t0 - h)) / (2.0 * h)


def _richardson_factor_3(f, t0, h):
    """fd_derivative's first derivative with 3 D(h/2) - D(h) over 2: still
    second order, as the h^2 term is not cancelled."""
    d = [(f(t0 + w) - f(t0 - w)) / (2.0 * w) for w in (h, h / 2)]
    return (3.0 * d[1] - d[0]) / 2.0


@pytest.mark.parametrize("fault", [_plain_central_difference, _richardson_factor_3],
                         ids=["plain-central", "richardson-factor-3"])
def test_fd_order_ratio_fails_on_a_second_order_rule(replace_everywhere, fault):
    def fd_record():
        cases = {r.case: r for r in campaigns.suite_matfun(42, dims=(2,), count=5)}
        return cases["fd_order_ratio"]

    assert fd_record().passed
    replace_everywhere(matfun, "fd_derivative", fault)
    record = fd_record()
    # the error ratio reads about 4, below the window [11, 22]
    assert not record.passed and 6.0 <= record.residual <= 7.5


def _magnus4_commutator_scaled(sign):
    """``evolution._step_matrix`` with magnus4's commutator term times sign."""
    step_matrix = evolution._step_matrix

    def faulty(samples, h, stepper, i):
        if stepper != "magnus4" or samples[0] is samples[1]:
            return step_matrix(samples, h, stepper, i)
        a1, a2 = samples
        commutator = a2 @ a1 - a1 @ a2
        return evolution.expm(0.5 * h * (a1 + a2)
                              + sign * (math.sqrt(3.0) / 12.0) * h * h * commutator)

    return faulty


@pytest.mark.parametrize("sign", [-1.0, 0.0], ids=["flipped", "dropped"])
def test_magnus4_order_window_fails_without_its_commutator(monkeypatch, sign):
    reports = campaigns.suite_evolution(42)
    assert len(reports) == 8 and all(r.passed for r in reports)
    monkeypatch.setattr(evolution, "_step_matrix", _magnus4_commutator_scaled(sign))
    failed = [r.case for r in campaigns.suite_evolution(42) if not r.passed]
    assert failed == ["magnus4_order_window"]


def test_evolution_suite_steps_every_stepper_through_time(monkeypatch):
    # A stepper that no check steps on samples that differ is offered but
    # never graded: a constant generator's identical samples hide its
    # time-dependent terms.
    steppers = set()
    step_matrix = evolution._step_matrix

    def recording(samples, h, stepper, i):
        if any(x is not samples[0] for x in samples):
            steppers.add(stepper)
        return step_matrix(samples, h, stepper, i)

    monkeypatch.setattr(evolution, "_step_matrix", recording)
    assert all(r.passed for r in campaigns.suite_evolution(42))
    assert steppers == set(evolution.NODES)


def test_order_law_takes_each_exact_logarithm_once(monkeypatch):
    calls = []
    exact = bch.log_product

    def counting(x, y):
        calls.append(1)
        return exact(x, y)

    monkeypatch.setattr(bch, "log_product", counting)
    cases = {r.case: r for r in campaigns.suite_bch(42)}
    assert all(cases[f"order_law_k{k}"].passed for k in (1, 2, 3))
    # 10 pairs at 5 scales; the orders 1, 2 and 3 read the same logarithm
    assert len(calls) == 50


def test_order_law_takes_one_series_per_pair(log_product_series_calls):
    # each Z_j is homogeneous of degree j, so one series per pair serves every
    # scale t and order: 10 calls, where one per (pair, t, order) made 150.
    # The shifted identity takes 1 more for its trivial case and 30 for its
    # 10 pairs at 3 amplitudes.
    cases = {r.case: r for r in campaigns.suite_bch(42)}
    assert all(r.passed for r in cases.values())
    assert len(log_product_series_calls) == 10 + 1 + 30


def test_campaign_pass_solve_count(solve_calls):
    # one LU solve per Denman-Beavers iteration; with two it was 4172,
    # 2105 before the logarithm centred its input, and 1077 while the series
    # disc was 1/4
    reports = campaigns.run_suites(campaigns.SUITES, 42)
    assert all(r.passed for r in reports)
    assert 0 < len(solve_calls) <= 366


def test_campaign_pass_norm_1_count(norm_1_calls):
    # the logarithm's series runs to a degree fixed by the square-root
    # chain's last distance; measuring two norms per term it made 23,520,
    # 10,535 before the logarithm centred its input, and 7,287 while the
    # series disc was 1/4.  Step scales add 10: ||a1(0)||_1 + ||a2(0)||_1 of
    # 2 expansions (4) and ||A(t)||_1 at 6 recovery probes (6).  The von
    # Neumann jets' scales took 87 (||X||_1 + ||Y||_1 of 24 second
    # derivatives, ||H||_1 and every ||rho(t)||_1 of 3 trajectories, and also
    # ||a1'(0)||_1 + ||a2'(0)||_1 of the expansions), and the FD rule 83 when
    # it sized them.  fd_order_ratio's 4 more expm calls add 4.  The contour
    # oracle takes one norm per level after its first, and a first level of
    # 16 nodes instead of 64 adds 234: of its 200 calls, 33 stop at 32 nodes
    # (+0: from 64 they took the one check at 128), 100 at 64 (+1, the checks
    # at 32 and 64 against one at 128) and 67 at 128 to 512 (+2, the checks at
    # 32 and 64); 5,087 -> 5,321 measured.  Every expm and logm_iss takes one
    # norm here.  Reading the von Neumann derivatives off jets, not four FD
    # probes, took the suite's calls from 330 to 99 and 192 to 48 (-375,
    # 5,321 -> 4,950 measured); reading them off the series takes them to 22
    # (the trajectories' states) and 0: -125, and with the scales'
    # 87 -> 10, 4,950 -> 4,748 measured.  Recovering A(t) as (I + kappa
    # U^-1) d/dt a, one solve with U(t, s), drops an expm per recovery and
    # the logarithm at t of each logrep case: 12 expm and 6 logm_iss fewer,
    # -24 (4,748 -> 4,724 measured).  The matfun suite's sampler returns
    # each of its 200 draws with the exponential it already formed, so the
    # suite takes 200 expm fewer: -200 (4,724 -> 4,524 measured).
    reports = campaigns.run_suites(campaigns.SUITES, 42)
    assert all(r.passed for r in reports)
    assert 0 < len(norm_1_calls) <= 5009 + 10 + 4 + 234 - 375 - 125 - 24 - 200


def test_campaign_pass_resolvent_count(resolvent_stacks):
    # the contour oracle inverts one stack of resolvents per quadrature level.
    # Doubling from 64 nodes its 200 calls computed 28,032 per pass (187 stopped
    # at 128 nodes); from 16 they stop at 32 (33 calls), 64 (100), 128 (54),
    # 256 (10) and 512 (3): 18,464
    reports = campaigns.run_suites(campaigns.SUITES, 42)
    assert all(r.passed for r in reports)
    assert 0 < sum(resolvent_stacks) <= 18464


def test_campaign_pass_eval_and_matrix_power_count(eval_calls, matrix_power_calls):
    # a constant generator is powered from its matrix without sampling, and
    # so is a modulated one under magnus4 (unitary_norm_proxy's 256 magnus4
    # steps: one power instead of 512 evaluations); any other is
    # stepped without a matrix power.  When propagate sampled every step and
    # powered each run of identical samples, one pass made 14,775
    # evaluations and 2,862 matrix powers; with modulated generators stepped,
    # 7,026 and 58.
    reports = campaigns.run_suites(campaigns.SUITES, 42)
    assert all(r.passed for r in reports)
    assert 0 < len(eval_calls) <= 6770
    assert 0 < len(matrix_power_calls) <= 59


def test_constant_sweep_eval_count(eval_calls):
    # the benchmark's constant-generator sweep samples each member only for
    # its norm and its recovery reference; sampled at every step it made 1,534
    reports = campaigns.run_suites(["sweep"], 42, sweep_dims=(16, 32, 64, 96))
    assert all(r.passed for r in reports)
    assert 0 < len(eval_calls) <= 16


def test_suite_logrep_propagates_each_operator_once(monkeypatch):
    calls = []
    propagate = evolution.propagate

    def recording(g, t, s, steps, stepper="rk4"):
        calls.append((g, s, t))
        return propagate(g, t, s, steps, stepper)

    for module in (evolution, logrep, campaigns):
        if hasattr(module, "propagate"):
            monkeypatch.setattr(module, "propagate", recording)
    assert all(r.passed for r in campaigns.suite_logrep(42))
    by_generator = {}
    for g, s, t in calls:
        by_generator.setdefault(id(g), []).append((s, t))
    g8, rotation, modulated, g4 = by_generator.values()
    # U(0.3, 0), U(0.6, 0) and U(0.9, 0) off one march, and U(0.9, 0.3)
    assert g8 == [(0.0, 0.3), (0.3, 0.6), (0.6, 0.9), (0.3, 0.9)]
    # both asymmetry checks and the generic kappa read the one U(1, 0)
    assert g4 == [(0.0, 1.0)]
    # each march ends at the last probe plus the step of the largest ||A(t)||_1
    for segments, last, scale in ((rotation, 0.7, 1.0), (modulated, 0.4, 1.4)):
        assert segments[0][0] == 0.0 and segments[-1][1] == pytest.approx(last + fd_step(scale))
        assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))


@pytest.mark.parametrize("g, probes", [
    (GeneratorSpec.constant(np.array([[0.0, 1.0], [-1.0, 0.0]])), (0.3, 0.5, 0.7)),
    (GeneratorSpec.modulated(np.diag([1.0, -1.0]), campaigns._ramp, campaigns._ramp_integral),
     (0.2, 0.3, 0.4)),
])
def test_recovery_case_marches_once_across_its_probes(g, probes):
    times = []
    logged = GeneratorSpec(g.dim, g.T, lambda tau: times.append(tau) or g.func(tau))
    assert campaigns._recovery_case(logged, probes) <= 1e-5
    # The reference A(t) at each probe, which also sizes the FD step, then
    # one march from 0 past the last probe's FD window.
    reference, march = times[:len(probes)], times[len(probes):]
    assert reference == list(probes)
    h = fd_step(max(norm_1(g.eval(t)) for t in probes))
    assert march[0] == 0.0 and march[-1] == pytest.approx(probes[-1] + h)
    # monotone up to the rounding of tau = start + k * step
    assert all(a <= b + 1e-12 for a, b in zip(march, march[1:]))


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


def test_every_error_type_is_caught_and_every_raise_is_one_main_maps():
    # The package's own exception types earn their place by a caller that
    # catches them by name; every other refusal is a builtin that cli.main
    # maps to an exit.  TypeError is the report serializer's internal misuse.
    # A bare raise re-raises what its handler caught.
    pkg = Path(shiftlog.__file__).parent
    own = {node.name for node in ast.parse((pkg / "errors.py").read_text()).body
           if isinstance(node, ast.ClassDef)}
    caught, raised = set(), set()
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {ast.unparse(t).split(".")[-1] for t in types}
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add({"_fail": "ValueError"}.get(ast.unparse(exc), ast.unparse(exc)))
    assert sorted(own - {"ShiftlogError"} - caught) == []
    assert sorted(raised - own - {"ValueError", "OverflowError", "TypeError"}) == []
    assert type(cli._fail("field", "message")) is ValueError  # read as one above
