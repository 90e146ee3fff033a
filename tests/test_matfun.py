"""Matrix-function tests: expm, sqrtm, both logm algorithms, derivatives."""

import math

import mpmath
import numpy as np
import pytest

from shiftlog.errors import BranchCutError, ContourError
from shiftlog.linalg import norm_1
from shiftlog.matfun import (
    ContourSpec,
    FdConfig,
    contour_for,
    expm,
    fd_derivative,
    logm_contour,
    logm_iss,
    sqrtm_db,
)


def rand_c(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (scale / norm_1(a))


# --- expm ---

def test_expm_zero():
    np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    np.testing.assert_allclose(expm(np.diag([1.0, -1.0])),
                               np.diag([math.e, 1.0 / math.e]), rtol=1e-14)


def test_expm_rotation_closed_form():
    theta = 0.3
    a = np.array([[0.0, theta], [-theta, 0.0]])
    expected = np.array([[math.cos(theta), math.sin(theta)],
                         [-math.sin(theta), math.cos(theta)]])
    np.testing.assert_allclose(expm(a), expected, atol=1e-15)


def test_expm_rejects_huge_norm():
    with pytest.raises(OverflowError):
        expm(2e4 * np.eye(2))


def test_expm_accuracy_large_scaling():
    # 40 squarings territory: still accurate against the diagonal closed form.
    a = np.diag([8.0, -8.0])
    np.testing.assert_allclose(expm(a), np.diag([math.exp(8), math.exp(-8)]),
                               rtol=1e-12)


def _expm_mpmath(a) -> np.ndarray:
    """exp(a) from mpmath at 40 significant digits, rounded to complex128."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                                       for row in a]))
        return np.array([[complex(e[i, j]) for j in range(a.shape[1])]
                         for i in range(a.shape[0])])


def test_expm_forward_error_against_mpmath():
    rng = np.random.default_rng(7)
    for n in (2, 4, 8):
        for norm in (0.1, 1.0, 8.0, 50.0):
            a = rand_c(rng, n, norm)
            ref = _expm_mpmath(a)
            assert norm_1(expm(a) - ref) <= 1e-14 * norm_1(ref), (n, norm)


# --- sqrtm ---

def test_sqrtm_identity_and_diagonal():
    np.testing.assert_allclose(sqrtm_db(np.eye(3)), np.eye(3), atol=1e-13)
    np.testing.assert_allclose(sqrtm_db(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-13)


def test_sqrtm_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = expm(rand_c(rng, 4, 1.0))
        root = sqrtm_db(m)
        assert norm_1(root @ root - m) <= 1e-11 * norm_1(m)


def test_sqrtm_branch_cut_rejection():
    with pytest.raises(BranchCutError):
        sqrtm_db(np.diag([-4.0, 1.0]))


# --- logm, both algorithms ---

def test_logm_iss_identity_and_diagonal():
    assert norm_1(logm_iss(np.eye(3))) <= 1e-14
    np.testing.assert_allclose(logm_iss(np.diag([2.0, 3.0])),
                               np.diag([math.log(2), math.log(3)]), atol=1e-14)


def test_logm_iss_nilpotent_exact():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(logm_iss(np.eye(2) + n), n, atol=1e-15)


def test_logm_iss_round_trips():
    rng = np.random.default_rng(19)
    for n in (2, 4, 8):
        for _ in range(10):
            a = rand_c(rng, n, rng.uniform(0.1, 0.6))
            m = expm(a)
            assert norm_1(logm_iss(m) - a) <= 1e-10
            assert norm_1(expm(logm_iss(m)) - m) <= 1e-12 * norm_1(m)


def test_logm_iss_branch_cut_rejection():
    with pytest.raises(BranchCutError):
        logm_iss(np.diag([-2.0, 1.0]))


def test_logm_contour_identity():
    value = logm_contour(np.eye(2), ContourSpec(1.0, 0.5, 64))
    assert norm_1(value) <= 1e-12


def test_logm_contour_diagonal():
    value = logm_contour(np.diag([2.0, 3.0]), ContourSpec(2.5, 1.2, 64))
    np.testing.assert_allclose(value, np.diag([math.log(2), math.log(3)]),
                               atol=1e-9)


def test_logm_contour_shifted_agreement():
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = expm(rand_c(rng, 4, 0.5)) + 3.0 * np.eye(4)
        ref = logm_iss(m)
        value = logm_contour(m, contour_for(m))
        assert norm_1(value - ref) <= 1e-8 * norm_1(ref)


def test_logm_agreement_random_dims():
    rng = np.random.default_rng(37)
    for n in (2, 4, 8, 16):
        a = rand_c(rng, n, 0.4)
        m = expm(a)
        ref = logm_iss(m)
        assert norm_1(logm_contour(m, contour_for(m)) - ref) <= 1e-8 * norm_1(ref)


def test_contour_validation():
    with pytest.raises(ContourError):
        ContourSpec(0.0, 1.0, 64)  # encloses the origin and crosses the cut
    with pytest.raises(ValueError):
        ContourSpec(1.0, -1.0, 64)
    # spectrum not enclosed by a valid circle elsewhere
    with pytest.raises(ContourError):
        logm_contour(np.diag([5.0, 6.0]), ContourSpec(1.0, 0.5, 64))
    # no admissible contour for spectra hugging the cut
    with pytest.raises(ContourError):
        contour_for(np.diag([1e-4, 4.0]))


# --- finite differences ---

def test_fd_linear_curve_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    d = fd_derivative(lambda t: t * a, 0.4, FdConfig(h=1e-3), order=1)
    np.testing.assert_allclose(d, a, atol=1e-12)


def test_fd_matrix_exponential_derivative():
    rng = np.random.default_rng(41)
    a = rand_c(rng, 3, 0.9)
    d = fd_derivative(lambda t: expm(t * a), 0.0,
                      FdConfig(h=1e-3, richardson_levels=1), order=1)
    assert norm_1(d - a) <= 1e-8


def test_fd_second_derivative_quadratic():
    c = np.array([[0.5, 0.1], [0.0, -0.2]], dtype=complex)
    d = fd_derivative(lambda t: t * t * c, 0.0, FdConfig(h=1e-3), order=2)
    assert norm_1(d - 2.0 * c) <= 1e-10


def test_fd_halving_reduces_error():
    rng = np.random.default_rng(43)
    a = rand_c(rng, 3, 1.0)
    curve = lambda t: expm(t * a)
    for levels in (0, 1):
        errs = []
        for h in (4e-2, 2e-2):
            cfg = FdConfig(h=h, richardson_levels=levels)
            errs.append(norm_1(fd_derivative(curve, 0.0, cfg, 1) - a))
        assert errs[0] / errs[1] >= 3.5


def test_fd_config_validation():
    with pytest.raises(ValueError):
        FdConfig(h=0.0)
    with pytest.raises(ValueError):
        FdConfig(h=1e-3, richardson_levels=4)
    with pytest.raises(ValueError):
        fd_derivative(lambda t: np.eye(2), 0.0, FdConfig(), order=3)
