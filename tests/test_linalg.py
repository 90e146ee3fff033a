"""Kernel tests: solve, norms, Gershgorin enclosures, matrix JSON."""

import numpy as np
import pytest

from shiftlog.errors import SingularMatrixError
from shiftlog.linalg import (
    as_matrix,
    gershgorin_discs,
    matrix_from_json,
    matrix_to_json,
    norm_1,
    off_branch_cut,
    solve,
    spectral_enclosure,
)


def rand_c(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (scale / norm_1(a))


def charpoly_eigvals(a):
    """Brute-force eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients rooted by numpy's companion solver.  Independent
    of the enclosure code under test; intended for n <= 8."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.roots(np.array(coeffs))


def test_solve_identity_system():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    np.testing.assert_allclose(solve(np.eye(2), b), b)


def test_solve_diagonal_inverse():
    x = solve(np.diag([2.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(x, np.diag([0.5, 0.25]))


def test_solve_multiply_round_trip():
    rng = np.random.default_rng(11)
    for n in (2, 8, 64):
        a = rand_c(rng, n, 2.0)
        c = rand_c(rng, n, 1.0)
        x = solve(a, a @ c)
        assert norm_1(x - c) <= 1e-9 * max(norm_1(c), 1e-12)


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((2, 2)), np.eye(2))


def test_inv_round_trip():
    rng = np.random.default_rng(3)
    a = rand_c(rng, 5, 1.0) + 2 * np.eye(5)
    np.testing.assert_allclose(a @ solve(a, np.eye(5)), np.eye(5), atol=1e-12)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_norm_1_examples():
    assert norm_1(np.zeros((3, 3))) == 0.0
    assert norm_1(np.eye(4)) == 1.0
    assert norm_1(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0


def test_norm_1_submultiplicative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rand_c(rng, 4, rng.uniform(0.1, 3.0))
        b = rand_c(rng, 4, rng.uniform(0.1, 3.0))
        assert norm_1(a @ b) <= norm_1(a) * norm_1(b) + 1e-12


def test_enclosure_diagonal():
    enc = spectral_enclosure(np.diag([1.0, 5.0]))
    assert set(enc.discs) == {(1.0 + 0j, 0.0), (5.0 + 0j, 0.0)}


def test_enclosure_symmetric_covering_disc():
    enc = spectral_enclosure(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert enc.discs == ((0j, 1.0), (0j, 1.0))
    assert enc.center == 0j and enc.radius == 1.0


def test_covering_disc_contains_all_discs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        enc = spectral_enclosure(rand_c(rng, 6, 2.0))
        for c, r in enc.discs:
            assert abs(c - enc.center) + r <= enc.radius + 1e-12


def test_gershgorin_contains_eigenvalues():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8):
        for _ in range(25):
            a = rand_c(rng, n, rng.uniform(0.5, 3.0))
            eigs = charpoly_eigvals(a)
            for axis in ("col", "row"):
                discs = gershgorin_discs(a, axis)
                for lam in eigs:
                    assert min(abs(lam - c) - r for c, r in discs) <= 1e-7


def test_off_branch_cut_decisions():
    assert off_branch_cut(np.eye(3))
    assert off_branch_cut(np.diag([2.0, 3.0]))
    # nilpotent offset: wide discs but point spectrum at 1
    assert off_branch_cut(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not off_branch_cut(np.diag([-1.0, 2.0]))
    assert not off_branch_cut(np.zeros((2, 2)))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(31)
    a = rand_c(rng, 3, 1.0)
    encoded = matrix_to_json(a)
    assert encoded[0][1] == [a[0, 1].real, a[0, 1].imag]
    np.testing.assert_allclose(matrix_from_json(encoded), a)


def test_matrix_json_malformed():
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 2.0]])
