"""Propagator tests: accuracy, order, semigroup property."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlog.evolution import (
    GeneratorSpec,
    check_growth_bound,
    check_semigroup,
    march,
    march_segments,
    propagate,
)
from shiftlog.linalg import norm_1
from shiftlog.matfun import EXPM_NORM_LIMIT, expm
from shiftlog.campaigns import _ramp, _ramp_integral
from shiftlog.unbounded import DiscretizedFamily, tdep_integral, tdep_modulation


def rand_c(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (scale / norm_1(a))


def test_zero_generator_gives_identity():
    g = GeneratorSpec.constant(np.zeros((3, 3)))
    for steps in (1, 7, 64):
        u = propagate(g, 1.0, 0.0, steps)
        np.testing.assert_allclose(u, np.eye(3))
    u = propagate(g, 0.5, 0.5, 4)
    np.testing.assert_allclose(u, np.eye(3))


def test_constant_generator_matches_expm():
    rng = np.random.default_rng(1)
    a = rand_c(rng, 4, 2.0)
    g = GeneratorSpec.constant(a)
    u = propagate(g, 0.9, 0.1, 256, "rk4")
    assert norm_1(u - expm(0.8 * a)) <= 1e-8


def test_commuting_family_quadrature_oracle():
    # A(t) = f(t) A0 commutes with itself at all times, so
    # U(t, 0) = expm(int_0^t f) A0); the weight comes from scalar quadrature.
    rng = np.random.default_rng(2)
    a0 = rand_c(rng, 3, 1.0)
    g = GeneratorSpec.modulated(a0, tdep_modulation, tdep_integral)
    weight, _ = scipy.integrate.quad(
        lambda t: 1.0 + 0.5 * np.sin(2.0 * np.pi * t), 0.0, 0.7,
        epsabs=1e-13, epsrel=1e-13)
    u = propagate(g, 0.7, 0.0, 512, "rk4")
    assert norm_1(u - expm(weight * a0)) <= 1e-6


def test_semigroup_zero_generator():
    g = GeneratorSpec.constant(np.zeros((2, 2)))
    assert check_semigroup(g, 0.0, 0.5, 1.0, 16) == 0.0


def test_semigroup_constant_generator():
    rng = np.random.default_rng(3)
    g = GeneratorSpec.constant(rand_c(rng, 3, 1.0))
    assert check_semigroup(g, 0.0, 0.4, 1.0, 512) <= 1e-9


def test_semigroup_time_dependent():
    rng = np.random.default_rng(4)
    mats = [rand_c(rng, 4, 1.0) for _ in range(3)]
    g = GeneratorSpec.from_table([0.0, 0.5, 1.0], mats)
    assert check_semigroup(g, 0.0, 0.45, 0.9, 512) <= 1e-6


def test_semigroup_composes_through_one_march(monkeypatch):
    import shiftlog.evolution as evolution
    rng = np.random.default_rng(4)
    g = GeneratorSpec.from_table([0.0, 0.5, 1.0], [rand_c(rng, 4, 1.0) for _ in range(3)])
    legs = []
    inner = evolution.propagate

    def recording(g, t, s, steps, stepper="rk4"):
        legs.append((t, s, steps))
        return inner(g, t, s, steps, stepper)

    monkeypatch.setattr(evolution, "propagate", recording)
    residual = check_semigroup(g, 0.0, 0.4, 0.9, 512)
    # the product legs are the march's segments (228 and 285 steps at 512 / 0.9
    # per unit), then U(t, s) in one propagation of all 512 steps
    segments = march_segments(0.0, (0.4, 0.9), 512 / 0.9)
    assert [(b, a, k) for a, b, k in segments] == legs[:2] == [(0.4, 0.0, 228), (0.9, 0.4, 285)]
    assert legs[2:] == [(0.9, 0.0, 512)]
    assert residual <= 1e-6


def test_march_segments_split_on_the_step_grid_exactly():
    # A knot k steps into a grid of `steps` takes exactly k steps, though
    # s + k (t - s) / steps in floating point lands a few ulps off it.
    rng = np.random.default_rng(18)
    for _ in range(20000):
        steps = int(rng.integers(2, 5001))
        k = int(rng.integers(1, steps))
        s = rng.choice([0.0, rng.uniform(0.0, 1.0)])
        length = rng.choice([0.1, 0.5, 1.0, rng.uniform(1e-3, 2.0)])
        r, t = s + k * length / steps, s + length
        segments = march_segments(s, (r, t), steps / length)
        assert [n for _, _, n in segments] == [k, steps - k], (steps, k, s, length)
    # splits at k = round(0.4 steps) of step counts the sweep calibrates, t = 0.1
    for steps, legs in ((32, [13, 19]), (52, [21, 31]), (525, [210, 315]),
                        (33, [13, 20]), (103, [41, 62]), (132, [53, 79])):
        r = round(0.4 * steps) * 0.1 / steps
        assert [n for _, _, n in march_segments(0.0, (r, 0.1), steps / 0.1)] == legs


def test_stepper_order_ratios():
    rng = np.random.default_rng(5)
    base = rand_c(rng, 3, 1.0)
    drift = rand_c(rng, 3, 1.0)
    g = GeneratorSpec(3, 1.0, lambda t: base + np.sin(2 * np.pi * t) * drift)

    def ratio(stepper):
        u1 = propagate(g, 0.9, 0.0, 64, stepper)
        u2 = propagate(g, 0.9, 0.0, 128, stepper)
        u4 = propagate(g, 0.9, 0.0, 256, stepper)
        return norm_1(u1 - u2) / norm_1(u2 - u4)

    assert 11.0 <= ratio("rk4") <= 22.0
    # A(t) does not commute with A(t'), so magnus4's commutator term and its
    # sign decide its order; without either it falls to second order.
    assert 11.0 <= ratio("magnus4") <= 22.0


def test_growth_bound_cases():
    assert check_growth_bound(np.eye(2), 1.0, 1.0, 0.0)
    g = GeneratorSpec.constant(-np.eye(2))
    assert check_growth_bound(propagate(g, 1.0, 0.0, 64), 1.0, 1.0, 0.0)
    g2 = GeneratorSpec.constant(np.eye(2))
    assert not check_growth_bound(propagate(g2, 1.0, 0.0, 64), 1.0, 1.0, 0.5)
    # the envelope grows with the elapsed time t - s: e^1 > 2 > e^0.5
    assert check_growth_bound(2.0 * np.eye(2), 1.0, 1.0, 1.0)
    assert not check_growth_bound(2.0 * np.eye(2), 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_growth_bound(np.eye(2), 1.0, 0.0, 0.0)


def test_magnus_preserves_unitary_norm():
    g = DiscretizedFamily("advection_tdep", (16,)).member(16)
    u = propagate(g, 0.5, 0.0, 256, "magnus4")
    assert norm_1(u) <= np.sqrt(16) * (1.0 + 1e-6)


def test_propagate_validates_inputs():
    g = GeneratorSpec.constant(np.eye(2))
    with pytest.raises(ValueError):
        propagate(g, 0.5, 0.7, 16)
    with pytest.raises(ValueError):
        propagate(GeneratorSpec.from_table([0.0, 1.0], [np.eye(2), np.eye(2)]), 2.0, 0.0, 16)
    with pytest.raises(ValueError):
        propagate(g, 0.5, 0.0, 0)
    with pytest.raises(ValueError):
        propagate(g, 0.5, 0.0, 16, "euler")


def test_closed_forms_are_defined_for_every_time():
    # no horizon: a constant generator propagates past t = 1
    a = rand_c(np.random.default_rng(4), 3, 1.0)
    u = propagate(GeneratorSpec.constant(a), 2.0, 0.0, 512)
    assert norm_1(u - expm(2.0 * a)) <= 1e-10
    g = GeneratorSpec.modulated(a, _ramp, _ramp_integral)
    assert np.array_equal(g.eval(5.0), 6.0 * a)


def test_rk4_samples_the_midpoint_once_per_step():
    times = []
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = GeneratorSpec(2, math.inf, lambda t: times.append(t) or (1.0 + t) * a)
    propagate(g, 0.5, 0.0, 8, "rk4")
    h = 0.5 / 8
    assert times == [x for k in range(8) for x in (k * h, k * h + 0.5 * h, k * h + h)]


def test_propagate_flags_non_finite():
    g = GeneratorSpec.constant(1e200 * np.eye(2))
    with pytest.raises(OverflowError):
        propagate(g, 1.0, 0.0, 1, "rk4")


@pytest.mark.parametrize("stepper", ["rk4", "magnus4"])
def test_stepped_propagate_flags_an_overflow(stepper):
    # U grows like e^{800 t}: finite at t = 0.5, it overflows before t = 2,
    # and the one check when the stepping ends sees it
    a = 800.0 * np.eye(2)
    for g in (GeneratorSpec(2, math.inf, lambda t: a),
              GeneratorSpec.from_table([0.0, 2.0], [a, a])):
        assert np.all(np.isfinite(propagate(g, 0.5, 0.0, 40, stepper)))
        with pytest.raises(OverflowError, match=f"{stepper} propagation of 160 steps"):
            propagate(g, 2.0, 0.0, 160, stepper)


def test_march_segments_step_rule():
    # distinct knots in order; max(1, ceil(steps_per_unit * length)) steps each
    assert march_segments(0.125, [0.75, 0.25, 0.25, 0.5], 64) == [
        (0.125, 0.25, 8), (0.25, 0.5, 16), (0.5, 0.75, 16)]
    assert march_segments(0.0, [0.25, 0.5], 10) == [(0.0, 0.25, 3), (0.25, 0.5, 3)]
    assert march_segments(0.0, [1e-9], 10) == [(0.0, 1e-9, 1)]
    assert march_segments(0.5, [0.5], 10) == []
    with pytest.raises(ValueError, match="precedes"):
        march_segments(0.5, [0.25, 0.75], 10)


@pytest.mark.parametrize("stepper", ["rk4", "magnus4"])
def test_march_composes_its_segment_propagations(stepper):
    rng = np.random.default_rng(9)
    base, drift = rand_c(rng, 3, 1.0), rand_c(rng, 3, 1.0)
    g = GeneratorSpec(3, 1.0, lambda t: base + np.sin(2.0 * np.pi * t) * drift)
    u_at = march(g, 0.125, [0.125, 0.75, 0.25, 0.5], 64, stepper)
    assert list(u_at) == [0.125, 0.25, 0.5, 0.75]
    expected = np.eye(3)
    assert np.array_equal(u_at[0.125], expected)
    for a, b, steps in march_segments(0.125, list(u_at), 64):
        expected = propagate(g, b, a, steps, stepper) @ expected
        assert np.array_equal(u_at[b], expected)
    # every segment steps at h = 1/64, so the march is the direct
    # propagation up to the rounding of the composition
    assert norm_1(u_at[0.75] - propagate(g, 0.75, 0.125, 40, stepper)) <= 1e-12


def test_march_flags_a_composition_that_overflows():
    # each segment's U is finite (about 1e87); their product after four is not
    g = GeneratorSpec.constant(600.0 * np.eye(2))
    with pytest.raises(OverflowError, match="march to 2.0"):
        march(g, 0.0, [0.5, 1.0, 1.5, 2.0], 64, "rk4")


# Each way propagate builds U(t, s): a constant generator's one step matrix,
# powered, under either stepper; a modulated one's powered magnus4 step; a
# tabulated one, stepped by rk4.
REAL_BUILDS = {
    "constant-rk4": (GeneratorSpec.constant, "rk4"),
    "constant-magnus4": (GeneratorSpec.constant, "magnus4"),
    "modulated-magnus4": (lambda a: GeneratorSpec.modulated(a, _ramp, _ramp_integral), "magnus4"),
    "table-rk4": (lambda a: GeneratorSpec.from_table([0.0, 0.5, 1.0], [a, a @ a, -a]), "rk4"),
}


@pytest.mark.parametrize("build", REAL_BUILDS)
def test_real_generator_gives_a_real_propagator(build):
    # The same generator built from complex128 values marches through
    # zgemm where the real one takes dgemm; the two read 0 to 0.021 n u apart
    # (relative, 1-norm).  The bound is 32 n u.
    make, stepper = REAL_BUILDS[build]
    rng = np.random.default_rng(43)
    a = rng.standard_normal((6, 6))
    a *= 2.0 / norm_1(a)
    g = make(a)
    assert g.eval(0.3).dtype == np.float64
    real = propagate(g, 1.0, 0.0, 64, stepper)
    cplx = propagate(make(a.astype(np.complex128)), 1.0, 0.0, 64, stepper)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert norm_1(real - cplx) <= 32 * 6 * 2.0 ** -53 * norm_1(cplx)


@pytest.mark.parametrize("a", [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1j], [1j, 0.0]]],
                         ids=["real", "complex"])
@pytest.mark.parametrize("make", [GeneratorSpec.constant,
                                  lambda a: GeneratorSpec.modulated(a, _ramp, _ramp_integral)],
                         ids=["constant", "modulated"])
def test_u_s_s_takes_the_generator_dtype(eval_calls, make, a):
    # U(s, s) = I is in the dtype of the generator's matrix, as every later
    # U(t, s) is, and reading it samples no generator value
    g = make(a)
    dtype = np.asarray(a).dtype
    assert propagate(g, 0.5, 0.5, 4).dtype == dtype
    u_at = march(g, 0.5, [0.5, 0.7], 10, "magnus4")
    assert u_at[0.5].dtype == u_at[0.7].dtype == dtype
    assert eval_calls == []


def test_table_interpolation_midpoint():
    a0 = np.zeros((2, 2), dtype=complex)
    a1 = np.eye(2, dtype=complex)
    g = GeneratorSpec.from_table([0.0, 1.0], [a0, a1])
    np.testing.assert_allclose(g.eval(0.5), 0.5 * np.eye(2))


def _count_expm(monkeypatch):
    import shiftlog.evolution as evolution
    calls = []

    def counting_expm(a):
        calls.append(1)
        return expm(a)

    monkeypatch.setattr(evolution, "expm", counting_expm)
    return calls


def _magnus4_reference(g, t, s, steps):
    """magnus4 with a fresh expm(Omega) at every step, Omega from the
    samples at the two Gauss-Legendre nodes."""
    h = (t - s) / steps
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
    u = np.eye(g.dim, dtype=np.complex128)
    for k in range(steps):
        tau = s + k * h
        a1, a2 = g.eval(tau + c1 * h), g.eval(tau + c2 * h)
        omega = 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
        u = expm(omega) @ u
    return u


def _rk4_reference(g, t, s, steps):
    """rk4 stepped on the state U itself, one step after another."""
    h = (t - s) / steps
    u = np.eye(g.dim, dtype=np.complex128)
    for k in range(steps):
        tau = s + k * h
        k1 = g.eval(tau) @ u
        a_mid = g.eval(tau + 0.5 * h)
        k2 = a_mid @ (u + 0.5 * h * k1)
        k3 = a_mid @ (u + 0.5 * h * k2)
        k4 = g.eval(tau + h) @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _relative_error(u, ref):
    return norm_1(u - ref) / norm_1(ref)


def _same_array_generator(a, b):
    return GeneratorSpec(3, math.inf, lambda t: a)


def _bitwise_equal_table(a, b):
    # Small-integer entries and dyadic step times make the interpolated
    # samples on [0, 0.5] bitwise equal to a, each a new array.
    g = GeneratorSpec.from_table([0.0, 0.5, 1.0], [a, a.copy(), b])
    assert np.array_equal(g.eval(1 / 32), g.eval(3 / 32))
    return g


@pytest.mark.parametrize("stepper", ["rk4", "magnus4"])
@pytest.mark.parametrize("build", [_same_array_generator, _bitwise_equal_table],
                         ids=["same-array", "bitwise-equal-table"])
def test_generator_not_built_by_constant_is_stepped(monkeypatch, eval_calls, build, stepper):
    # Only GeneratorSpec.constant marks a generator constant: one that
    # returns the same values at every t is still sampled at every node and
    # takes one step matrix per step.
    a = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [3.0, 0.0, -1.0]], dtype=np.complex128)
    g = build(a, rand_c(np.random.default_rng(11), 3, 2.0))
    assert g.matrix is None
    steps = 16
    eval_calls.clear()
    calls = _count_expm(monkeypatch)
    u = propagate(g, 1.0, 0.0, steps, stepper)
    if stepper == "magnus4":
        assert len(eval_calls) == 2 * steps and len(calls) == steps
        reference = _magnus4_reference(g, 1.0, 0.0, steps)
    else:
        assert len(eval_calls) == 3 * steps and not calls
        reference = _rk4_reference(g, 1.0, 0.0, steps)
    assert _relative_error(u, reference) <= 1e-13


def test_magnus4_reuses_step_exponential_for_constant_generators(monkeypatch):
    # One expm per constant generator, then powered, so the result
    # agrees with the step-by-step product up to rounding, not bitwise.
    rng = np.random.default_rng(8)
    calls = _count_expm(monkeypatch)
    for g, steps in ((GeneratorSpec.constant(rand_c(rng, 4, 3.0)), 37),
                     (DiscretizedFamily("diffusion", (16,)).member(16), 64)):
        calls.clear()
        u = propagate(g, 0.9, 0.1, steps, "magnus4")
        assert len(calls) == 1
        assert _relative_error(u, _magnus4_reference(g, 0.9, 0.1, steps)) <= 1e-13


@pytest.mark.parametrize("stepper", ["rk4", "magnus4"])
def test_constant_generator_is_one_powered_step_matrix(monkeypatch, eval_calls, stepper):
    import shiftlog.evolution as evolution
    a = rand_c(np.random.default_rng(12), 4, 3.0)
    g = GeneratorSpec.constant(a)
    built = []
    step_matrix = evolution._step_matrix
    monkeypatch.setattr(evolution, "_step_matrix",
                        lambda *args: built.append(step_matrix(*args)) or built[-1])
    steps = 37
    u = propagate(g, 0.9, 0.1, steps, stepper)
    assert not eval_calls
    assert len(built) == 1
    if stepper != "rk4":
        assert np.array_equal(built[0], expm(((0.9 - 0.1) / steps) * a))
    assert u.tobytes() == np.linalg.matrix_power(built[0], steps).tobytes()


def _stepped(g):
    """The same family with no recorded matrix, so propagate steps it."""
    return GeneratorSpec(g.dim, g.T, g.func)


def test_magnus4_time_dependent_generator_takes_expm_every_step(monkeypatch, eval_calls):
    g = _stepped(DiscretizedFamily("advection_tdep", (16,)).member(16))
    assert g.matrix is None
    calls = _count_expm(monkeypatch)
    # every sample is a new array, so each step takes its own exponential
    u = propagate(g, 0.2, 0.0, 40, "magnus4")
    assert len(calls) == 40 and len(eval_calls) == 80
    assert np.array_equal(u, _magnus4_reference(g, 0.2, 0.0, 40))


@pytest.mark.parametrize("stepper", ["magnus4"])
def test_modulated_generator_is_one_powered_step_matrix(monkeypatch, eval_calls, stepper):
    # f(tau) A0 commutes with itself, so the Magnus march is one step matrix
    # expm((w / steps) A0) powered, w the integral of f over [s, t].
    import shiftlog.evolution as evolution
    a0 = rand_c(np.random.default_rng(13), 4, 3.0)
    g = GeneratorSpec.modulated(a0, tdep_modulation, tdep_integral)
    built = []
    step_matrix = evolution._step_matrix
    monkeypatch.setattr(evolution, "_step_matrix",
                        lambda *args: built.append(step_matrix(*args)) or built[-1])
    calls = _count_expm(monkeypatch)
    steps = 37
    u = propagate(g, 0.9, 0.1, steps, stepper)
    assert not eval_calls
    assert len(calls) == len(built) == 1
    assert np.array_equal(built[0], expm((tdep_integral(0.1, 0.9) / steps) * a0))
    assert u.tobytes() == np.linalg.matrix_power(built[0], steps).tobytes()


def test_magnus4_never_samples_the_modulation():
    # Summing f over both Gauss-Legendre nodes of every step, the powered
    # march called f 2 steps times; it now reads the integral once.
    calls = []
    g = GeneratorSpec.modulated(rand_c(np.random.default_rng(15), 3, 1.0),
                                lambda tau: calls.append(tau) or tdep_modulation(tau),
                                tdep_integral)
    steps = 37
    propagate(g, 0.9, 0.1, steps, "magnus4")
    assert calls == []
    propagate(g, 0.9, 0.1, steps, "rk4")
    assert len(calls) == 3 * steps


def test_rk4_steps_a_modulated_generator(eval_calls):
    # An rk4 step is a polynomial in h A0, not an exponential: not powered.
    g = GeneratorSpec.modulated(rand_c(np.random.default_rng(14), 3, 1.0), tdep_modulation,
                                tdep_integral)
    steps = 24
    u = propagate(g, 0.8, 0.0, steps, "rk4")
    assert len(eval_calls) == 3 * steps
    assert u.tobytes() == propagate(_stepped(g), 0.8, 0.0, steps, "rk4").tobytes()


def test_modulated_march_whose_total_exponent_exceeds_the_expm_limit():
    # ||(t - s) fbar A0||_1 = 1.66e4 > EXPM_NORM_LIMIT, but every step's
    # exponent is <= 1/2, so the powered march propagates as a stepped one
    # would.  A0 generates rotations: U = expm(w A0) turns by w * 1e4, and
    # the march by the same angle up to the rounding of w and of 45,000
    # steps; a turn by d moves U by at most 2 |d| in the 1-norm.
    a0 = 1e4 * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
    g = GeneratorSpec.modulated(a0, tdep_modulation, tdep_integral)
    t, steps = 1.5, 45_000
    w = t + 2.0 / (4.0 * math.pi)
    assert norm_1(w * a0) > EXPM_NORM_LIMIT
    assert (t / steps) * 1.5 * norm_1(a0) <= 0.5
    with pytest.raises(OverflowError):
        expm(w * a0)
    c, s = math.cos(w * 1e4), math.sin(w * 1e4)
    exact = np.array([[c, s], [-s, c]])
    u = propagate(g, t, 0.0, steps, "magnus4")
    assert norm_1(u - exact) <= 1e-9


def _sine_modulation(a, b, omega, phi):
    """f(tau) = a + b sin(omega tau + phi) and its integral over [s, t] in
    product form, a (t - s) + b sin(omega (t + s) / 2 + phi) (t - s)
    sinc(omega (t - s) / 2): no difference of primitives, which loses the b
    term's digits when omega (t - s) is small."""
    def integral(s, t):
        return (a * (t - s) + b * math.sin(0.5 * omega * (t + s) + phi)
                * (t - s) * float(np.sinc(0.5 * omega * (t - s) / math.pi)))
    return (lambda tau: a + b * math.sin(omega * tau + phi)), integral


# Rounding of a march.  Let u = 2^-53, L = ||A0||_1, F = max |f| and
# W = (t - s) F L, which bounds the 1-norm of every partial exponent.  A
# computed exponential of X, ||X||_1 <= 2, is within c u e^||X|| of e^X with
# c <= n + 4 (backward error <= u ||X|| by the Taylor degree, and rounding of
# the Paterson-Stockmeyer sum, whose terms add up in norm to at most e^||X||,
# and of at most one squaring).  A product of two matrices
# adds n u times the product of their norms.  The stepped march takes steps
# exponentials and products; the powered one takes one exponential and at
# most 2 log2(steps) products, whose errors the remaining powers amplify by
# at most steps.  Either is then within steps (2n + 7) u e^W of the
# exponential of its exact weight, and since ||U||_1 >= 1 / ||U^-1||_1 >=
# e^-W, two such are within 2 steps (2n + 7) u e^(2W) of each other,
# relatively.
MARCH_EXAMPLES = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), scale=st.floats(0.05, 1.0),
    a=st.floats(0.1, 1.0), ratio=st.floats(-0.99, 0.99),
    omega=st.floats(0.0, 20.0), phi=st.floats(0.0, 2.0 * math.pi),
    s=st.floats(0.0, 0.99), span=st.floats(1e-3, 1.0), steps=st.integers(1, 64))


def _sine_march(seed, n, scale, a, ratio, omega, phi, s, span, steps):
    """(g, t, A0, rounding bound) of a march of a sine-modulated generator."""
    t = min(1.0, s + span)
    assume(t > s)
    b = ratio * a
    a0 = rand_c(np.random.default_rng(seed), n, scale)
    g = GeneratorSpec.modulated(a0, *_sine_modulation(a, b, omega, phi))
    big_w = (t - s) * (a + abs(b)) * scale
    return g, t, a0, 2 * steps * (2 * n + 7) * 2.0 ** -53 * math.exp(2 * big_w)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(**MARCH_EXAMPLES)
def test_powered_modulated_march_matches_the_closed_form(
        seed, n, scale, a, ratio, omega, phi, s, span, steps):
    # The powered march computes expm(w A0) with w the generator's integral:
    # it differs from that closed form by rounding only.
    g, t, a0, rounding = _sine_march(seed, n, scale, a, ratio, omega, phi, s, span, steps)
    u = propagate(g, t, s, steps, "magnus4")
    assert _relative_error(u, expm(g.integral(s, t) * a0)) <= rounding


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(**MARCH_EXAMPLES)
def test_stepped_modulated_march_matches_the_powered_march(
        seed, n, scale, a, ratio, omega, phi, s, span, steps):
    # The stepped march computes expm(w_h A0), w_h the two-node Gauss-Legendre
    # sum for w, |w_h - w| <= (t - s) h^4 max|f| / 4320 with max|f| =
    # |b| omega^4.  With d = L |w_h - w|, ||e^(w_h A0) - e^(w A0)||_1 <=
    # ||e^(w_h A0)||_1 e^d (e^d - 1); the rest is rounding.
    g, t, a0, rounding = _sine_march(seed, n, scale, a, ratio, omega, phi, s, span, steps)
    h = (t - s) / steps
    d = (t - s) * h ** 4 * norm_1(a0) * abs(ratio * a) * omega ** 4 / 4320.0
    u = propagate(g, t, s, steps, "magnus4")
    ref = propagate(_stepped(g), t, s, steps, "magnus4")
    assert _relative_error(u, ref) <= math.exp(d) * math.expm1(d) + rounding
