"""Kernel tests: solve, norms, Gershgorin enclosures, matrix JSON decoding."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from shiftlog.errors import SingularMatrixError
from shiftlog.linalg import (
    RCOND_MIN,
    as_matrix,
    eye,
    gershgorin_discs,
    matrix_from_json,
    norm_1,
    off_branch_cut,
    ray_gap,
    solve,
)
from shiftlog.matfun import contour_for


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero pivot raises, and nothing warns
        for a in (np.array([[1.0, 1.0], [1.0, 1.0]]),  # exactly zero pivot
                  np.diag([1.0, 0.9 * RCOND_MIN])):   # condition just under RCOND_MIN
            with pytest.raises(SingularMatrixError, match="reciprocal condition"):
                solve(a, np.eye(2))
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((2, 2)), np.eye(2))
        x = solve(np.diag([1.0, 1.1 * RCOND_MIN]), np.eye(2))  # just over
    np.testing.assert_allclose(x, np.diag([1.0, 1.0 / (1.1 * RCOND_MIN)]))


def test_solve_rejects_a_perturbed_rank_one_matrix():
    # not diagonal: the condition, not a diagonal entry, decides; the inverse
    # that a general right-hand side needs is computed for the guard
    rng = np.random.default_rng(29)
    u, v = rand_c(rng, 4, 1.0)[:, :2].T
    near = np.outer(u, v) + 1e-16 * rand_c(rng, 4, 1.0)
    well = rand_c(rng, 4, 1.0) + 2.0 * np.eye(4)
    for b in (np.eye(4), rand_c(rng, 4, 1.0)[:, :2]):
        with pytest.raises(SingularMatrixError, match="reciprocal condition"):
            solve(near, b)
        x = solve(well, b)
        assert norm_1(well @ x - b) <= 1e-14 * norm_1(b)


def test_solve_equals_scipy_lu_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 7, 16, 33, 64, 128):
        a = rand_c(rng, n, rng.uniform(0.1, 10.0))
        for b in (np.eye(n, dtype=complex), rand_c(rng, n, 1.0)[:, :3],
                  rand_c(rng, n, 1.0)[:, 0]):
            x = solve(a, b)
            ref = lu_solve(lu_factor(a), b)
            assert x.shape == ref.shape and np.array_equal(x, ref), (n, b.shape)


def test_inv_round_trip():
    rng = np.random.default_rng(3)
    a = rand_c(rng, 5, 1.0) + 2 * np.eye(5)
    np.testing.assert_allclose(a @ solve(a, np.eye(5)), np.eye(5), atol=1e-12)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    # 0 x 0 is refused here, not inside expm's polynomial or logm_iss
    with pytest.raises(ValueError, match="expected a square matrix"):
        as_matrix(np.zeros((0, 0)))


@pytest.mark.parametrize("entries", [
    [[1.5, -2.0], [0.25, 3.0]],
    np.array([[1.5, -2.0], [0.25, 3.0]], dtype=np.float32),
    [[1, -2], [0, 3]],
    np.array([[1, -2], [0, 3]], dtype=np.int8),
    [[True, False], [False, True]],
], ids=["float", "float32", "int", "int8", "bool"])
def test_as_matrix_keeps_real_input_real(entries):
    m = as_matrix(entries)
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m, np.asarray(entries, dtype=np.float64))


@pytest.mark.parametrize("entries", [
    [[1.5, -2.0j], [0.25, 3.0]],
    np.array([[1.5, -2.0j], [0.25, 3.0]], dtype=np.complex64),
    np.array([[Fraction(3, 2), Fraction(-2)], [Fraction(1, 4), Fraction(3)]], dtype=object),
], ids=["complex", "complex64", "fraction-object"])
def test_as_matrix_makes_complex_and_object_input_complex(entries):
    m = as_matrix(entries)
    assert m.dtype == np.complex128
    np.testing.assert_array_equal(m, np.asarray(entries).astype(np.complex128))


def test_as_matrix_takes_a_matrix_of_its_dtype_as_it_is():
    for a in (np.eye(3), np.eye(3, dtype=np.complex128)):
        assert as_matrix(a) is a


def test_eye_is_real():
    i = eye(3)
    assert i.dtype == np.float64
    np.testing.assert_array_equal(i, np.identity(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                 complex(np.nan, 0.0)])
def test_as_matrix_rejects_non_finite_entries_on_both_paths(bad):
    a = np.array([[bad, 0], [0, 1]])
    assert a.dtype == (np.complex128 if isinstance(bad, complex) else np.float64)
    for entries in (a, a.astype(object)):  # the object array takes the complex path
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(entries)


def test_solve_and_norms_keep_the_dtype():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
    b = rng.standard_normal((5, 2))
    assert solve(a, b).dtype == solve(a, np.eye(5)).dtype == np.float64
    assert solve(a, b.astype(complex)).dtype == solve(a.astype(complex), b).dtype == np.complex128
    # real LU (dgesv) against the complex one (zgesv) on the same values
    x, z = solve(a, b), solve(a.astype(complex), b)
    assert norm_1(x - z) <= 5 * 2.0 ** -53 * norm_1(z) * norm_1(a) * norm_1(solve(a, np.eye(5)))
    assert norm_1(a) == norm_1(a.astype(complex))
    centers, radii = gershgorin_discs(a)
    assert centers.dtype == radii.dtype == np.float64


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
    # point discs at 1 and 5: the circle is centered between them, covering
    # radius 2 times the clearance factor 1.15
    assert contour_for(np.diag([1.0, 5.0]))[:3] == (3.0 + 0j, 2.0 * 1.15, "col")


def test_enclosure_symmetric_covering_disc():
    centers, radii = gershgorin_discs(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(centers, [0j, 0j])
    np.testing.assert_array_equal(radii, [1.0, 1.0])
    assert contour_for(np.array([[3.0, 1.0], [1.0, 3.0]]))[:3] == (3.0 + 0j, 1.15, "col")


def test_gershgorin_families_are_arrays():
    a = np.array([[1.0, 2.0, 0.0], [-1.0, 4.0, 3.0], [0.5, 0.0, 6.0]])
    centers, radii = gershgorin_discs(a, "col")
    np.testing.assert_array_equal(centers, [1.0, 4.0, 6.0])
    np.testing.assert_array_equal(radii, [1.5, 2.0, 3.0])
    centers, radii = gershgorin_discs(a, "row")
    np.testing.assert_array_equal(centers, [1.0, 4.0, 6.0])
    np.testing.assert_array_equal(radii, [2.0, 4.0, 0.5])
    # the contour is drawn around the family whose covering disc about the
    # mean diagonal entry is smaller: here rows (radius 14/3 against 16/3)
    shifted = a + 10.0 * np.eye(3)
    assert contour_for(shifted)[2] == "row"
    assert contour_for(shifted.T)[2] == "col"


def test_ray_gap_is_elementwise():
    gaps = ray_gap(np.array([2.0, -1.0 + 3.0j, 3.0 + 4.0j]), np.array([1.0, 1.0, 5.0]))
    np.testing.assert_array_equal(gaps, [1.0, 2.0, 0.0])
    assert ray_gap(-2.0, 0.5) == -0.5


def test_covering_disc_contains_all_discs():
    # the contour circle strictly contains every disc of the family it names
    # and returns
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rand_c(rng, 6, 2.0) + 6.0 * np.eye(6)
        center, radius, axis, (centers, radii) = contour_for(a)
        expected_centers, expected_radii = gershgorin_discs(a, axis)
        np.testing.assert_array_equal(centers, expected_centers)
        np.testing.assert_array_equal(radii, expected_radii)
        assert np.all(np.abs(centers - center) + radii < radius)


def test_gershgorin_contains_eigenvalues():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8):
        for _ in range(25):
            a = rand_c(rng, n, rng.uniform(0.5, 3.0))
            eigs = charpoly_eigvals(a)
            for axis in ("col", "row"):
                centers, radii = gershgorin_discs(a, axis)
                for lam in eigs:
                    assert (np.abs(lam - centers) - radii).min() <= 1e-7


def test_off_branch_cut_decisions():
    assert off_branch_cut(np.eye(3))
    assert off_branch_cut(np.diag([2.0, 3.0]))
    # nilpotent offset: wide discs but point spectrum at 1
    assert off_branch_cut(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # the same about the mean diagonal entry 3, where the center 1 fails
    assert off_branch_cut(np.array([[3.0, 5.0], [0.0, 3.0]]))
    assert not off_branch_cut(np.diag([-1.0, 2.0]))
    assert not off_branch_cut(np.zeros((2, 2)))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(31)
    a = rand_c(rng, 3, 1.0)
    encoded = [[[z.real, z.imag] for z in row] for row in a]
    np.testing.assert_allclose(matrix_from_json(encoded), a)


def test_matrix_json_malformed():
    # every entry is exactly two real numbers; booleans are not numbers here
    for obj in ([[1.0, 2.0]], [[[1, 0, 7]]], [[[True, False]]], [[[1.0, "0"]]], [[[1.0]]], 5):
        with pytest.raises(ValueError):
            matrix_from_json(obj)
