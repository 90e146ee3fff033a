"""Shifted-log representation tests: kappa selection, surrogate generators,
recovery of A(t), and the inverse-vs-shift asymmetry."""

import cmath
import math
import re

import numpy as np
import pytest

from shiftlog import logrep, matfun
from shiftlog.campaigns import _ramp, _ramp_integral
from shiftlog.errors import BranchCutError
from shiftlog.evolution import GeneratorSpec, march, propagate
from shiftlog.linalg import norm_1, solve
from shiftlog.logrep import (
    alt_generator,
    check_asymmetry,
    recover_generator,
    recovery_chain,
    select_kappa,
)
from shiftlog.matfun import FD_STEP, expm, fd_derivative, fd_probes, fd_step


def rand_c(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (scale / norm_1(a))


def test_select_kappa_identity_family():
    assert select_kappa([np.eye(4)]) == 2.0


def test_select_kappa_contractions():
    rng = np.random.default_rng(1)
    family = [rand_c(rng, 3, rng.uniform(0.2, 1.0)) for _ in range(5)]
    assert select_kappa(family) == 2.0 * max(norm_1(m) for m in family)
    contractions = [0.5 * np.eye(2), 0.9 * np.eye(2), np.eye(2)]
    assert select_kappa(contractions) == 2.0


def test_select_kappa_invertibility():
    rng = np.random.default_rng(2)
    family = [rand_c(rng, 4, 3.7 * f) for f in (0.4, 1.0, 0.7)]
    kappa = select_kappa(family)
    assert kappa == pytest.approx(7.4)
    for m in family:
        solve(m + kappa * np.eye(4), np.eye(4))  # must not raise


def test_select_kappa_rejects_empty_family():
    with pytest.raises(ValueError):
        select_kappa([])


def test_alt_generator_identity():
    a = alt_generator(np.eye(3), 2.0)
    np.testing.assert_allclose(a, math.log(3.0) * np.eye(3), atol=1e-14)


def test_alt_generator_diagonal():
    u = np.diag([math.e, 1.0 / math.e])
    a = alt_generator(u, 2.0 * math.e)
    expected = np.diag([math.log(3.0 * math.e),
                        math.log(2.0 * math.e + 1.0 / math.e)])
    np.testing.assert_allclose(a, expected, atol=1e-13)


def test_alt_generator_reexponentiation():
    rng = np.random.default_rng(3)
    g = GeneratorSpec.constant(rand_c(rng, 8, 1.5))
    u = propagate(g, 0.8, 0.0, 256)
    kappa = select_kappa([u])
    a = alt_generator(u, kappa)
    shifted = u + kappa * np.eye(8)
    assert norm_1(expm(a) - shifted) <= 1e-9 * norm_1(shifted)


def test_alt_generator_small_kappa_rejected():
    # spectrum of U + kappa I straddles the cut for this shift
    with pytest.raises(BranchCutError):
        alt_generator(np.diag([0.5, 2.0]), -0.6)


def recover(g, s, t, kappa, h=None, steps_per_unit=256, stepper="rk4"):
    """Recover A(t) the way the campaign does, off one march through its
    knots, at the step of ||A(t)||_1 unless ``h`` is given."""
    if h is None:
        h = fd_step(norm_1(g.eval(t)))
    u_at = march(g, s, recovery_chain([t], h), steps_per_unit, stepper)
    return recover_generator(u_at, t, kappa, h)


def test_recover_zero_generator():
    g = GeneratorSpec.constant(np.zeros((2, 2)))
    rec = recover(g, 0.0, 0.5, 2.0)
    assert norm_1(rec) <= 1e-9


def test_recover_constant_rotation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    g = GeneratorSpec.constant(a)
    u = propagate(g, 0.5, 0.0, 256)
    kappa = select_kappa([u])
    rec = recover(g, 0.0, 0.5, kappa)
    assert norm_1(rec - a) <= 1e-6


def test_recover_commuting_modulated():
    a0 = np.diag([1.0, -1.0]).astype(complex)
    g = GeneratorSpec.modulated(a0, _ramp, _ramp_integral)
    ops = [propagate(g, t, 0.0, 256) for t in (0.2, 0.3, 0.4)]
    kappa = select_kappa(ops)
    for t in (0.2, 0.3, 0.4):
        rec = recover(g, 0.0, t, kappa)
        assert norm_1(rec - (1.0 + t) * a0) <= 1e-6


def logged_generator(g, times):
    def func(t):
        times.append(t)
        return g.func(t)
    return GeneratorSpec(g.dim, g.T, func)


def probe_recorder(monkeypatch):
    """Record every time fd_derivative asks the recovery for."""
    asked = []

    def recording_fd(f, t0, h):
        def logged(tau):
            asked.append(tau)
            return f(tau)
        return fd_derivative(logged, t0, h)

    monkeypatch.setattr(logrep, "fd_derivative", recording_fd)
    return asked


@pytest.mark.parametrize("stepper", ["rk4", "magnus4"])
def test_recovery_evaluates_the_generator_on_one_march(stepper):
    g = GeneratorSpec.modulated(np.diag([1.0, -1.0]), _ramp, _ramp_integral)
    times = []
    h = fd_step(norm_1(g.eval(0.4)))
    recover(logged_generator(g, times), 0.1, 0.4, 3.0, h, steps_per_unit=64, stepper=stepper)
    # monotone up to the rounding of tau = start + k * step
    assert times[0] >= 0.1 and times[-1] <= 0.4 + h + 1e-12
    assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("decade", [0, 1, 2, 3])
def test_recovery_chain_knots_are_the_fd_probe_times(monkeypatch, decade):
    # a rotation at 1, 10, 100 and 1000 radians per unit time, recovered at
    # the step the rule takes from its norm: 2.0e-8 to 1.0e-6 relative, the
    # most at 1000, where U's eigenvalues e^{+-500i} lie nearest -kappa
    a = 10.0 ** decade * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    g = GeneratorSpec.constant(a)
    h = fd_step(norm_1(a))
    asked = probe_recorder(monkeypatch)
    kappa = select_kappa([propagate(g, 0.5, 0.0, 256, "magnus4")])
    rec = recover(g, 0.0, 0.5, kappa, h, stepper="magnus4")
    assert norm_1(rec - a) <= 1e-5 * norm_1(a)
    knots = recovery_chain([0.5], h)
    assert asked == fd_probes(0.5, h)
    assert knots == sorted([0.5, *asked])
    assert list(march(g, 0.0, knots, 256, "magnus4")) == knots


def test_recovery_rejects_a_probe_off_the_chain(monkeypatch):
    def off_chain_fd(f, t0, h):
        return f(t0 + 1.5 * h)

    monkeypatch.setattr(logrep, "fd_derivative", off_chain_fd)
    g = GeneratorSpec.constant(np.zeros((2, 2)))
    with pytest.raises(KeyError, match=re.escape(repr(0.5 + 1.5 * FD_STEP))):
        recover(g, 0.0, 0.5, 2.0)


def test_recovery_chain_is_exact_for_a_constant_generator(monkeypatch):
    rng = np.random.default_rng(7)
    a = rand_c(rng, 4, 1.0)
    g = GeneratorSpec.constant(a)
    h = fd_step(norm_1(a))
    asked = probe_recorder(monkeypatch)
    u_at = march(g, 0.1, recovery_chain([0.6], h), 100, "magnus4")
    recover_generator(u_at, 0.6, 3.0, h)
    assert asked == [tau for tau in u_at if tau != 0.6]
    for tau, u in u_at.items():
        assert norm_1(u - expm((tau - 0.1) * a)) <= 1e-12


def test_recovery_takes_no_exponential_and_logarithms_at_the_four_probes(
        replace_everywhere, expm_calls):
    # (I - kappa e^{-a(t, s)})^-1 = I + kappa U(t, s)^-1, as e^a = U + kappa I:
    # the recovery reads U(t, s) by one solve, and takes a logarithm only
    # where the derivative samples a(tau, s)
    rng = np.random.default_rng(11)
    a = rand_c(rng, 3, 1.0)
    h = fd_step(norm_1(a))
    u_at = march(GeneratorSpec.constant(a), 0.0, recovery_chain([0.5], h), 256, "magnus4")
    logged = []
    logm_iss = matfun.logm_iss
    replace_everywhere(matfun, "logm_iss", lambda m: logged.append(m) or logm_iss(m))
    marched = len(expm_calls)
    rec = recover_generator(u_at, 0.5, 3.0, h)
    assert len(expm_calls) == marched
    probes = fd_probes(0.5, h)
    assert len(logged) == len(probes) == 4
    for m, tau in zip(logged, probes):
        assert np.array_equal(m, u_at[tau] + 3.0 * np.eye(3))
    assert norm_1(rec - a) <= 1e-6 * norm_1(a)


def test_recovery_rejects_fd_window_before_s():
    g = GeneratorSpec.constant(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="precedes"):
        march(g, 0.0, recovery_chain([0.004], 5e-3), 256, "rk4")
    with pytest.raises(ValueError, match="precedes"):
        march(g, 0.3, recovery_chain([0.5, 0.305], 1e-2), 256, "rk4")


def test_recovery_rejects_a_probe_past_the_table():
    # a table ends at its last time; the probe t + h = 1.005 lies past it
    g = GeneratorSpec.from_table([0.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
    march(g, 0.0, recovery_chain([0.995], 5e-3), 256, "rk4")
    with pytest.raises(ValueError, match="T=1.0"):
        march(g, 0.0, recovery_chain([0.999], 5e-3), 256, "rk4")


def test_asymmetry_vanishes_at_zero_kappa():
    rng = np.random.default_rng(5)
    u = propagate(GeneratorSpec.constant(rand_c(rng, 4, 1.0)), 1.0, 0.0, 256)
    assert check_asymmetry(u, 0.0) <= 1e-10


def test_asymmetry_scalar_value():
    # U = 2I, kappa = 4: lhs = I/6, rhs = (1/2 + 4) I, gap = 13/3
    u = propagate(GeneratorSpec.constant(math.log(2.0) * np.eye(2)), 1.0, 0.0, 256)
    assert check_asymmetry(u, 4.0) == pytest.approx(13.0 / 3.0, rel=1e-9)


def test_asymmetry_generic_positive():
    rng = np.random.default_rng(6)
    u = propagate(GeneratorSpec.constant(rand_c(rng, 4, 1.0)), 1.0, 0.0, 256)
    assert check_asymmetry(u, 2.0 * norm_1(u)) > 0.1



def test_asymmetry_scalar_value_at_a_complex_kappa():
    # U = 2I, kappa = 4 + 2i: lhs = I / (6 + 2i) = (0.15 - 0.05i) I,
    # rhs = (4.5 + 2i) I, gap |-4.35 - 2.05i| = sqrt(23.125)
    assert check_asymmetry(2.0 * np.eye(2), 4.0 + 2.0j) == pytest.approx(
        math.sqrt(23.125), rel=1e-14)


def test_a_complex_kappa_shifts_and_recovers_a_real_generator():
    # Complex shifts are accepted wherever kappa is a parameter: for a real U,
    # a(t, s) = Log(U + kappa I) is complex, and the recovery reads the real
    # generator back through it as through a real kappa.
    rng = np.random.default_rng(47)
    a = rng.standard_normal((4, 4))
    a *= 1.0 / norm_1(a)
    g = GeneratorSpec.constant(a)
    u = propagate(g, 0.5, 0.0, 64, "magnus4")
    real_kappa = select_kappa([u])
    for kappa in (real_kappa, real_kappa + 1.5j, cmath.rect(real_kappa, 0.6)):
        surrogate = alt_generator(u, kappa)
        assert surrogate.dtype == (np.complex128 if isinstance(kappa, complex) else np.float64)
        shifted = u + kappa * np.eye(4)
        assert norm_1(expm(surrogate) - shifted) <= 1e-14 * norm_1(shifted)
        rec = recover(g, 0.0, 0.5, kappa, stepper="magnus4")
        assert norm_1(rec - a) <= 1e-7 * norm_1(a), kappa
