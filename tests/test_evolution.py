"""Propagator tests: accuracy, order, semigroup property."""

import numpy as np
import pytest
import scipy.integrate

from shiftlog.errors import PropagationError
from shiftlog.evolution import (
    EvolutionOperator,
    GeneratorSpec,
    check_growth_bound,
    check_semigroup,
    lipschitz_estimate,
    propagate,
)
from shiftlog.linalg import norm_1
from shiftlog.matfun import expm


def rand_c(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (scale / norm_1(a))


def test_zero_generator_gives_identity():
    g = GeneratorSpec.constant(np.zeros((3, 3)), "zero")
    for steps in (1, 7, 64):
        u = propagate(g, 1.0, 0.0, steps)
        np.testing.assert_allclose(u.U, np.eye(3))
    u = propagate(g, 0.5, 0.5, 4)
    np.testing.assert_allclose(u.U, np.eye(3))


def test_constant_generator_matches_expm():
    rng = np.random.default_rng(1)
    a = rand_c(rng, 4, 2.0)
    g = GeneratorSpec.constant(a, "c")
    u = propagate(g, 0.9, 0.1, 256, "rk4")
    assert norm_1(u.U - expm(0.8 * a)) <= 1e-8


def test_commuting_family_quadrature_oracle():
    # A(t) = f(t) A0 commutes with itself at all times, so
    # U(t, 0) = expm(int_0^t f) A0); the weight comes from scalar quadrature.
    rng = np.random.default_rng(2)
    a0 = rand_c(rng, 3, 1.0)
    g = GeneratorSpec.modulated(a0, "one_plus_half_sin", gen_id="m")
    weight, _ = scipy.integrate.quad(
        lambda t: 1.0 + 0.5 * np.sin(2.0 * np.pi * t), 0.0, 0.7,
        epsabs=1e-13, epsrel=1e-13)
    u = propagate(g, 0.7, 0.0, 512, "rk4")
    assert norm_1(u.U - expm(weight * a0)) <= 1e-6


def test_semigroup_zero_generator():
    g = GeneratorSpec.constant(np.zeros((2, 2)), "zero")
    assert check_semigroup(g, 0.0, 0.5, 1.0, 16) == 0.0


def test_semigroup_constant_generator():
    rng = np.random.default_rng(3)
    g = GeneratorSpec.constant(rand_c(rng, 3, 1.0), "c")
    assert check_semigroup(g, 0.0, 0.4, 1.0, 512) <= 1e-9


def test_semigroup_time_dependent():
    rng = np.random.default_rng(4)
    mats = [rand_c(rng, 4, 1.0) for _ in range(3)]
    g = GeneratorSpec.from_table([0.0, 0.5, 1.0], mats)
    assert check_semigroup(g, 0.0, 0.45, 0.9, 512) <= 1e-6


def test_stepper_order_ratios():
    rng = np.random.default_rng(5)
    base = rand_c(rng, 3, 1.0)
    drift = rand_c(rng, 3, 1.0)
    g = GeneratorSpec("smooth", 3, 1.0,
                      lambda t: base + np.sin(2 * np.pi * t) * drift)

    def ratio(stepper):
        u1 = propagate(g, 0.9, 0.0, 64, stepper).U
        u2 = propagate(g, 0.9, 0.0, 128, stepper).U
        u4 = propagate(g, 0.9, 0.0, 256, stepper).U
        return norm_1(u1 - u2) / norm_1(u2 - u4)

    assert 11.0 <= ratio("rk4") <= 22.0
    assert 3.0 <= ratio("magnus2") <= 5.5


def test_growth_bound_cases():
    ident = EvolutionOperator(np.eye(2), 1.0, 0.0, "i", "rk4", 1)
    assert check_growth_bound(ident, 1.0, 0.0)
    g = GeneratorSpec.constant(-np.eye(2), "contract")
    assert check_growth_bound(propagate(g, 1.0, 0.0, 64), 1.0, 0.0)
    g2 = GeneratorSpec.constant(np.eye(2), "expand")
    assert not check_growth_bound(propagate(g2, 1.0, 0.0, 64), 1.0, 0.5)
    with pytest.raises(ValueError):
        check_growth_bound(ident, 0.0, 0.0)


def test_magnus_preserves_unitary_norm():
    from shiftlog.unbounded import build
    g = build("advection_tdep", 16)
    u = propagate(g, 0.5, 0.0, 256, "magnus2")
    assert norm_1(u.U) <= np.sqrt(16) * (1.0 + 1e-6)


def test_propagate_validates_inputs():
    g = GeneratorSpec.constant(np.eye(2), "c")
    with pytest.raises(ValueError):
        propagate(g, 0.5, 0.7, 16)
    with pytest.raises(ValueError):
        propagate(g, 2.0, 0.0, 16)
    with pytest.raises(ValueError):
        propagate(g, 0.5, 0.0, 0)
    with pytest.raises(ValueError):
        propagate(g, 0.5, 0.0, 16, "euler")


def test_propagate_flags_non_finite():
    g = GeneratorSpec.constant(1e200 * np.eye(2), "huge")
    with pytest.raises(PropagationError):
        propagate(g, 1.0, 0.0, 1, "rk4")


def test_table_interpolation_midpoint():
    a0 = np.zeros((2, 2), dtype=complex)
    a1 = np.eye(2, dtype=complex)
    g = GeneratorSpec.from_table([0.0, 1.0], [a0, a1])
    np.testing.assert_allclose(g.eval(0.5), 0.5 * np.eye(2))


def test_lipschitz_estimate_modulated():
    a0 = np.eye(2, dtype=complex)
    g = GeneratorSpec.modulated(a0, "affine", {"a": 0.0, "b": 2.0})
    # d/dt (2t A0) has norm 2; sampled proxy should land nearby
    assert abs(lipschitz_estimate(g) - 2.0) <= 1e-6


def _count_expm(monkeypatch):
    import shiftlog.evolution as evolution
    calls = []

    def counting_expm(a):
        calls.append(1)
        return expm(a)

    monkeypatch.setattr(evolution, "expm", counting_expm)
    return calls


def _magnus2_reference(g, t, s, steps):
    """magnus2 with a fresh expm(h A(midpoint)) at every step."""
    h = (t - s) / steps
    u = np.eye(g.dim, dtype=np.complex128)
    for k in range(steps):
        u = expm(h * g.eval(s + k * h + 0.5 * h)) @ u
    return u


def test_magnus2_reuses_step_exponential_for_constant_generators(monkeypatch):
    from shiftlog.unbounded import build
    rng = np.random.default_rng(8)
    calls = _count_expm(monkeypatch)
    for g, steps in ((GeneratorSpec.constant(rand_c(rng, 4, 3.0), "c"), 37),
                     (build("diffusion", 16), 64)):
        calls.clear()
        u = propagate(g, 0.9, 0.1, steps, "magnus2")
        assert len(calls) == 1
        assert np.array_equal(u.U, _magnus2_reference(g, 0.9, 0.1, steps))


def test_magnus2_time_dependent_generator_takes_expm_every_step(monkeypatch):
    from shiftlog.unbounded import build
    g = build("advection_tdep", 16)
    calls = _count_expm(monkeypatch)
    # The modulation 1 + sin(2 pi t)/2 is strictly increasing on [0, 0.2], so
    # no two midpoint samples coincide.
    u = propagate(g, 0.2, 0.0, 40, "magnus2")
    assert len(calls) == 40
    assert np.array_equal(u.U, _magnus2_reference(g, 0.2, 0.0, 40))
