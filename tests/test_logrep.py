"""Shifted-log representation tests: kappa selection, surrogate generators,
recovery of A(t), and the inverse-vs-shift asymmetry."""

import math

import numpy as np
import pytest

from shiftlog.errors import BranchCutError
from shiftlog.evolution import GeneratorSpec, propagate
from shiftlog.linalg import norm_1, solve
from shiftlog.logrep import (
    alt_generator,
    build_log_representation,
    check_asymmetry,
    recover_generator,
    select_kappa,
)
from shiftlog.matfun import FdConfig, expm


def rand_c(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (scale / norm_1(a))


def test_select_kappa_identity_family():
    choice = select_kappa([np.eye(4)])
    assert choice.kappa == 2.0
    assert choice.sup_norm == 1.0


def test_select_kappa_contractions():
    rng = np.random.default_rng(1)
    family = [rand_c(rng, 3, rng.uniform(0.2, 1.0)) for _ in range(5)]
    assert select_kappa(family).kappa == 2.0 * max(norm_1(m) for m in family)
    contractions = [0.5 * np.eye(2), 0.9 * np.eye(2), np.eye(2)]
    assert select_kappa(contractions).kappa == 2.0


def test_select_kappa_invertibility():
    rng = np.random.default_rng(2)
    family = [rand_c(rng, 4, 3.7 * f) for f in (0.4, 1.0, 0.7)]
    choice = select_kappa(family)
    assert choice.kappa == pytest.approx(7.4)
    for m in family:
        solve(m + choice.kappa * np.eye(4), np.eye(4))  # must not raise


def test_select_kappa_rejects_empty_and_small_margin():
    with pytest.raises(ValueError):
        select_kappa([])
    with pytest.raises(ValueError):
        select_kappa([np.eye(2)], margin=1.0)


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
    g = GeneratorSpec.constant(rand_c(rng, 8, 1.5), "g8")
    u = propagate(g, 0.8, 0.0, 256)
    kappa = select_kappa([u]).kappa
    a = alt_generator(u, kappa)
    shifted = u.U + kappa * np.eye(8)
    assert norm_1(expm(a) - shifted) <= 1e-9 * norm_1(shifted)


def test_alt_generator_small_kappa_rejected():
    # spectrum of U + kappa I straddles the cut for this shift
    with pytest.raises(BranchCutError):
        alt_generator(np.diag([0.5, 2.0]), -0.6)


def test_recover_zero_generator():
    g = GeneratorSpec.constant(np.zeros((2, 2)), "zero")
    rec = recover_generator(g, 0.0, 0.5, 2.0)
    assert norm_1(rec) <= 1e-9


def test_recover_constant_rotation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    g = GeneratorSpec.constant(a, "rot")
    u = propagate(g, 0.5, 0.0, 256)
    kappa = select_kappa([u]).kappa
    rec = recover_generator(g, 0.0, 0.5, kappa)
    assert norm_1(rec - a) <= 1e-6


def test_recover_commuting_modulated():
    a0 = np.diag([1.0, -1.0]).astype(complex)
    g = GeneratorSpec.modulated(a0, "affine", {"a": 1.0, "b": 1.0}, gen_id="m")
    ops = [propagate(g, t, 0.0, 256) for t in (0.2, 0.3, 0.4)]
    kappa = select_kappa(ops).kappa
    for t in (0.2, 0.3, 0.4):
        rec = recover_generator(g, 0.0, t, kappa,
                                FdConfig(h=1e-2, richardson_levels=1))
        assert norm_1(rec - (1.0 + t) * a0) <= 1e-6


def test_asymmetry_vanishes_at_zero_kappa():
    rng = np.random.default_rng(5)
    g = GeneratorSpec.constant(rand_c(rng, 4, 1.0), "g")
    chk = check_asymmetry(g, 0.0, 1.0, 0.0)
    assert chk.gap <= 1e-10


def test_asymmetry_scalar_value():
    # U = 2I, kappa = 4: lhs = I/6, rhs = (1/2 + 4) I, gap = 13/3
    g = GeneratorSpec.constant(math.log(2.0) * np.eye(2), "scale")
    chk = check_asymmetry(g, 0.0, 1.0, 4.0)
    assert chk.gap == pytest.approx(13.0 / 3.0, rel=1e-9)


def test_asymmetry_generic_positive():
    rng = np.random.default_rng(6)
    g = GeneratorSpec.constant(rand_c(rng, 4, 1.0), "g")
    u = propagate(g, 1.0, 0.0, 256)
    chk = check_asymmetry(g, 0.0, 1.0, 2.0 * norm_1(u.U))
    assert chk.gap > 0.1


def test_log_representation_grid_and_dump():
    rng = np.random.default_rng(7)
    g = GeneratorSpec.constant(rand_c(rng, 3, 1.0), "g3")
    rep = build_log_representation(g, [(0.0, 0.0), (0.5, 0.0), (0.8, 0.2)])
    # coincident times: a(s, s) = ln(1 + kappa) I for the real positive shift
    coincident = rep.a[(0.0, 0.0)]
    np.testing.assert_allclose(
        coincident, math.log(1.0 + rep.kappa.real) * np.eye(3), atol=1e-12)
    for t, s in rep.grid:
        u = propagate(g, t, s, 256)
        shifted = u.U + rep.kappa * np.eye(3)
        assert norm_1(expm(rep.a[(t, s)]) - shifted) <= 1e-9 * norm_1(shifted)
