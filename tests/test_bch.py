"""BCH identity tests: product and conjugation series, the kappa-shifted
identity, and the second-derivative-of-logarithm machinery."""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from shiftlog import bch, campaigns
from shiftlog.bch import (
    adjoint_series,
    bch_truncated,
    commutator,
    kappa_shifted_bch,
    log_product,
    log_product_expansion,
    log_product_series,
    von_neumann_rhs,
    von_neumann_second_derivative,
)
from shiftlog.errors import ConvergenceRadiusError
from shiftlog.linalg import norm_1
from shiftlog.matfun import expm
from shiftlog.sampling import noncommuting_pair, rand_complex
from shiftlog.unbounded import advection_matrix


def loglog_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


# --- commutator ---

def test_commutator_basics():
    rng = np.random.default_rng(0)
    a = rand_complex(rng, 3)
    assert norm_1(commutator(a, a)) == 0.0
    assert norm_1(commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))) == 0.0


def test_commutator_pauli_pair():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    np.testing.assert_allclose(commutator(sx, sy),
                               np.array([[2j, 0.0], [0.0, -2j]]))


# --- adjoint (conjugation) series ---

def test_adjoint_series_degenerate_cases():
    rng = np.random.default_rng(1)
    a2 = rand_complex(rng, 3)
    for n in (0, 3, 12):
        np.testing.assert_allclose(adjoint_series(np.zeros((3, 3)), a2, n), a2)
    d1, d2 = np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0])
    np.testing.assert_allclose(adjoint_series(d1, d2, 12), d2)


def test_adjoint_series_converges_monotonically():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a1 = rand_complex(rng, 2, 0.5)
        a2 = rand_complex(rng, 2, 1.0)
        exact = expm(a1) @ a2 @ expm(-a1)
        res = [norm_1(exact - adjoint_series(a1, a2, n)) for n in range(2, 13)]
        assert res[-1] <= 1e-8
        for lo, hi in zip(res, res[1:]):
            if lo > 1e-12:
                assert hi <= lo * (1.0 + 1e-9)


# --- product series ---

def test_log_product_one_sided():
    rng = np.random.default_rng(3)
    x = rand_complex(rng, 3, 0.4)
    np.testing.assert_allclose(log_product(x, np.zeros((3, 3))), x, atol=1e-12)


def test_log_product_commuting_adds():
    d1 = np.diag([0.1, -0.2, 0.3])
    d2 = np.diag([0.4, 0.1, -0.3])
    np.testing.assert_allclose(log_product(d1, d2), d1 + d2, atol=1e-13)


def test_log_product_heisenberg_closed_form():
    # 2-step nilpotent pair: the series terminates at the first commutator
    x = np.zeros((3, 3), dtype=complex)
    y = np.zeros((3, 3), dtype=complex)
    x[0, 1] = 1.0
    y[1, 2] = 1.0
    expected = x + y
    expected[0, 2] = 0.5
    np.testing.assert_allclose(log_product(x, y), expected, atol=1e-14)


def test_bch_truncated_order_one_and_terms():
    rng = np.random.default_rng(4)
    x, y = rand_complex(rng, 2), rand_complex(rng, 2)
    np.testing.assert_allclose(bch_truncated(x, y, 1), x + y)
    with pytest.raises(ValueError):
        bch_truncated(x, y, 0)


def test_bch_truncated_hand_value():
    t = 0.3
    x = np.zeros((2, 2), dtype=complex)
    y = np.zeros((2, 2), dtype=complex)
    x[0, 1] = t
    y[1, 0] = t
    expected = x + y + 0.5 * t * t * np.diag([1.0, -1.0])
    np.testing.assert_allclose(bch_truncated(x, y, 2), expected)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7])
def test_bch_order_law(order):
    # the residual against the exact product log scales like t^(order+1);
    # order 4 also validates the -1/24 coefficient against the oracle.  From
    # order 5 on, t = 2^-3..2^-7 reaches the rounding floor (at 2^-5 and below
    # from order 6), so those orders take t = 2^-1..2^-4.
    rng = np.random.default_rng(5 + order)
    ts = [2.0 ** (-j) for j in (range(3, 8) if order <= 4 else range(1, 5))]
    for _ in range(4):
        x, y = noncommuting_pair(rng, 3)
        res = [norm_1(log_product(t * x, t * y) - bch_truncated(t * x, t * y, order))
               for t in ts]
        slope = loglog_slope(ts, res)
        assert order + 0.7 <= slope <= order + 1.3


def lie_words(x, y):
    # the BCH terms through degree 4, written out: X + Y, [X,Y]/2,
    # ([X,[X,Y]] - [Y,[X,Y]])/12 and -[Y,[X,[X,Y]]]/24
    c = commutator(x, y)
    return [x + y, c / 2, (commutator(x, c) - commutator(y, c)) / 12,
            -commutator(y, commutator(x, c)) / 24]


def test_log_product_series_matches_the_lie_words():
    rng = np.random.default_rng(20)
    for _ in range(10):
        x, y = noncommuting_pair(rng, 3)
        for t in (0.125, 0.5, 1.0):
            z = log_product_series(t * x, t * y, 4)
            assert norm_1(z[0]) == 0.0
            for zj, word in zip(z[1:], lie_words(t * x, t * y)):
                assert norm_1(zj - word) <= 1e-14 * norm_1(word)


def fraction_matrix(entries):
    return np.array([[Fraction(int(v)) for v in row] for row in entries], dtype=object)


def test_log_product_series_is_exact_on_nilpotent_integer_pairs():
    # strictly upper-triangular 4 x 4: every product of four vanishes, so
    # log(e^X e^Y) = N - N^2/2 + N^3/3 with N = e^X e^Y - I ends at degree 3,
    # and in rational arithmetic the series must reproduce it exactly.  For
    # the stacks [X_1, X_2] and [Y_1, Y_2], the exponents eps X_1 + eps^2 X_2
    # and eps Y_1 + eps^2 Y_2, the series ends at degree 6 and sums at eps = 1
    # to the same logarithm of e^{X_1 + X_2} e^{Y_1 + Y_2}
    rng = np.random.default_rng(21)
    ident = fraction_matrix(np.eye(4))

    def exact_log(x, y):
        exp_x = ident + x + x @ x / 2 + x @ x @ x / 6
        exp_y = ident + y + y @ y / 2 + y @ y @ y / 6
        n = exp_x @ exp_y - ident
        return n - n @ n / 2 + n @ n @ n / 3

    def nilpotent():
        return fraction_matrix(np.triu(rng.integers(-3, 4, (4, 4)), 1))

    for _ in range(5):
        x, y = nilpotent(), nilpotent()
        z = log_product_series(x, y, 5)
        assert (z[1] + z[2] + z[3] == exact_log(x, y)).all()
        assert (z[4] == 0).all() and (z[5] == 0).all()
    for _ in range(3):
        x, y = [nilpotent(), nilpotent()], [nilpotent(), nilpotent()]
        z = log_product_series(x, y, 8)
        assert (sum(z[1:7]) == exact_log(sum(x), sum(y))).all()
        assert (z[7] == 0).all() and (z[8] == 0).all()


@pytest.mark.parametrize("kappa", [Fraction(2), Fraction(-1, 2), Fraction(7, 3)])
def test_log_product_series_shifted_second_order_term(kappa):
    # exact: Z_1 = (a1 + a2)/(k+1), Z_2 = [a1, a2]/(2(k+1)) + k (a1 + a2)^2/(2(k+1)^2)
    rng = np.random.default_rng(22)
    a1, a2 = (fraction_matrix(rng.integers(-4, 5, (3, 3))) for _ in range(2))
    z = log_product_series(a1, a2, 2, kappa)
    s = a1 + a2
    assert (z[1] == s / (kappa + 1)).all()
    assert (z[2] == (a1 @ a2 - a2 @ a1) / (2 * (kappa + 1))
            + kappa * (s @ s) / (2 * (kappa + 1) ** 2)).all()
    np.testing.assert_allclose(z[0].astype(complex), math.log(kappa + 1) * np.eye(3))


def test_log_product_series_rejects_bad_input():
    x = np.eye(2)
    with pytest.raises(ValueError):
        log_product_series(x, x, -1)
    with pytest.raises(ValueError):
        log_product_series(x, x, 2, -1.0)
    with pytest.raises(ValueError):
        log_product_series(x, np.eye(3), 2)
    with pytest.raises(ValueError):
        log_product_series([x, np.eye(3)], x, 2)
    with pytest.raises(ValueError):
        log_product_series(np.zeros((0, 2, 2)), x, 2)
    # (1e160)^2 overflows: refused, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            log_product_series(1e160 * x, x, 2)


def mp_matrix(a):
    return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in a])


def from_mp(m, n):
    return np.array([[complex(m[i, j]) for j in range(n)] for i in range(n)])


def noncommuting_non_nilpotent_pairs(n, count=2):
    # unit-norm complex Gaussian pairs with ||[X, Y]||_1 > 0.05, so neither the
    # commutator nor the higher words vanish, and X^n, Y^n != 0
    rng = np.random.default_rng([24, n])
    pairs = [noncommuting_pair(rng, n) for _ in range(count)]
    assert all(norm_1(np.linalg.matrix_power(m, n)) > 1e-3 for pair in pairs for m in pair)
    return pairs


@pytest.mark.parametrize("n", [2, 3])
def test_log_product_series_against_mpmath(n):
    # sum_{j<=6} eps^j Z_j against Log(e^{G_x} e^{G_y}) at 40 digits, for two
    # pairs of matrices (G_x = eps X) and for the stacks [X, X'/2] and
    # [Y, Y'/2] built from them (G_x = eps X + eps^2 X'/2).  With
    # r = eps s + eps^2 s', s the summed 1-norms of the degree-1 coefficients
    # (2 here) and s' of the degree-2 ones, P = e^{G_x} e^{G_y} - I is
    # majorised by e^r - 1, so every ||Z_j|| eps^j is bounded by the Taylor
    # coefficient in eps of -log(2 - e^r) = sum_m (e^r - 1)^m / m: the
    # truncation error is at most that majorant's tail past degree 6.  The
    # exact error is eps^7 Z_7 + O(eps^8), so halving eps divides it by
    # 2^7 (1 + O(r)); a wrong Z_j, j <= 6, would leave an eps^j term that
    # falls by 2^j.
    def majorant_tail(s1, s2, eps):
        with mpmath.workdps(40):
            major = lambda e: -mpmath.log(2 - mpmath.exp(s1 * e + s2 * e * e))
            return float(major(eps) - mpmath.polyval(mpmath.taylor(major, 0, 6)[::-1], eps))

    def mp_exponent(stack, eps):
        return sum((mp_matrix(c) * mpmath.mpf(eps) ** (k + 1) for k, c in enumerate(stack)),
                   mpmath.zeros(n))

    (x, y), (x2, y2) = noncommuting_non_nilpotent_pairs(n)
    for gx, gy in ((x, y), (x2, y2), ([x, x2 / 2], [y, y2 / 2])):
        stacks = [g if isinstance(g, list) else [g] for g in (gx, gy)]
        s1 = norm_1(stacks[0][0]) + norm_1(stacks[1][0])
        s2 = sum(norm_1(stack[1]) for stack in stacks if len(stack) == 2)
        z = log_product_series(gx, gy, 6)
        errors = []
        for eps in (0.125, 0.0625):  # r <= 0.27, 0.13
            with mpmath.workdps(40):
                ref = from_mp(mpmath.logm(mpmath.expm(mp_exponent(stacks[0], eps))
                                          * mpmath.expm(mp_exponent(stacks[1], eps))), n)
            err = norm_1(sum(eps ** j * zj for j, zj in enumerate(z)) - ref)
            assert err <= majorant_tail(s1, s2, eps)
            # far above rounding (2^-53 ||ref||_1), so the ratio is the series'
            assert err >= 1e3 * 2.0 ** -53 * norm_1(ref)
            errors.append(err)
        assert 2.0 ** 6.5 <= errors[0] / errors[1] <= 2.0 ** 7.5


@pytest.mark.parametrize("n", [2, 3])
def test_vnsd_against_mpmath(n):
    # [X, Y] at 40 digits.  2 Z_2 is formed as 2 P_2 - P_1^2 with
    # P_1 = X + Y and P_2 = X^2/2 + XY + Y^2/2: four products and a few sums
    # of matrices bounded by s^2, s = ||X||_1 + ||Y||_1, each adding at most
    # about n u s^2, so 16 n u s^2 leaves a margin.
    u = 2.0 ** -53
    for x, y in noncommuting_non_nilpotent_pairs(n):
        with mpmath.workdps(40):
            mx, my = mp_matrix(x), mp_matrix(y)
            exact = from_mp(mx * my - my * mx, n)
        s = norm_1(x) + norm_1(y)
        assert norm_1(von_neumann_second_derivative(x, y) - exact) <= 16 * n * u * s * s


@pytest.mark.parametrize("n", [64, 128, 256])
def test_vnsd_on_an_unbounded_hamiltonian(n, expm_calls, logm_iss_calls):
    # H_n = i advection_n is Hermitian with ||H_n||_1 = n, and rho the pure
    # state of a Gaussian wave packet (width 0.1, wave number 5): [rho, H_n]
    # within the 16 n u s^2 of the mpmath test above, s = ||rho||_1 + ||H_n||_1
    # (measured 0.04-0.07 n u s^2, relative 2.0e-13, 1.1e-12 and 7.3e-12), and
    # no exponential or logarithm is taken.  A real packet is a poor probe:
    # with n/2 a power of two most of its products are exact
    x = np.arange(n) / n
    psi = np.exp(-0.5 * ((x - 0.5) / 0.1) ** 2 + 10j * np.pi * x)
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    h_op = 1j * advection_matrix(n)
    s = norm_1(rho) + norm_1(h_op)
    err = norm_1(von_neumann_second_derivative(rho, h_op) - commutator(rho, h_op))
    assert err <= 16 * n * 2.0 ** -53 * s * s
    assert len(expm_calls) == len(logm_iss_calls) == 0


def test_log_product_series_takes_a_complex_kappa():
    # Z_0 = Log(1 + kappa) I, Z_1 = (a1 + a2) / (1 + kappa) and Z_2 in closed
    # form, as in the Fraction case, for a complex kappa on real operands
    rng = np.random.default_rng(23)
    a1, a2 = rng.standard_normal((2, 3, 3))
    s = a1 + a2
    for kappa in (1.5 - 2.0j, -3.0 + 0.5j):
        z = log_product_series(a1, a2, 2, kappa)
        assert all(zj.dtype == np.complex128 for zj in z)
        assert (z[0] == cmath.log(1 + kappa) * np.eye(3)).all()
        np.testing.assert_allclose(z[1], s / (1 + kappa), rtol=1e-15)
        np.testing.assert_allclose(z[2], commutator(a1, a2) / (2 * (1 + kappa))
                                   + kappa * (s @ s) / (2 * (1 + kappa) ** 2), rtol=1e-14)


def test_log_product_series_is_real_for_a_real_kappa_above_minus_one():
    rng = np.random.default_rng(24)
    a1, a2 = rng.standard_normal((2, 3, 3))
    z = log_product_series(a1, a2, 3, 2.0)
    assert all(zj.dtype == np.float64 for zj in z)
    np.testing.assert_allclose(z[0], math.log(3.0) * np.eye(3), rtol=1e-16)
    # below -1 the logarithm of 1 + kappa < 0 takes its principal value
    z = log_product_series(a1, a2, 1, -3.0)
    assert z[0].dtype == np.complex128
    np.testing.assert_allclose(z[0], complex(math.log(2.0), math.pi) * np.eye(3), rtol=1e-16)


# --- kappa-shifted product identity ---

def test_shifted_bch_zero_operands():
    zero = np.zeros((2, 2), dtype=complex)
    assert kappa_shifted_bch(zero, zero, 2.0) <= 1e-12


def test_shifted_bch_commuting_nilpotent_direction():
    # commuting pair along one nilpotent direction: the identity is exact
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    residual = kappa_shifted_bch(0.1 * nil, 0.1 * nil, 2.0)
    assert residual <= 1e-3  # exact up to rounding in practice
    assert residual <= 1e-12


def test_shifted_bch_generic_pairs_scale_cubically():
    # the closed form carries the whole second-order term, kappa (a1+a2)^2 /
    # (2 (kappa+1)^2) included, so the residual is third order for every pair
    # (without that term it read slopes near 2)
    rng = np.random.default_rng(11)
    eps = [0.2, 0.1, 0.05]
    for _ in range(5):
        a1 = rand_complex(rng, 2, 1.0)
        a2 = rand_complex(rng, 2, 1.0)
        res = [kappa_shifted_bch(e * a1, e * a2, 2.0) for e in eps]
        assert 2.7 <= loglog_slope(eps, res) <= 3.3


def test_shifted_bch_with_a_complex_kappa_scales_cubically():
    # the same closed form at kappa = 2 + i and at a complex kappa on the
    # circle |kappa + 1| = 3, on real and on complex pairs
    rng = np.random.default_rng(13)
    eps = [0.2, 0.1, 0.05]
    for kappa in (2.0 + 1.0j, -1.0 + 3.0j):
        for a1, a2 in (rng.standard_normal((2, 2, 2)) / 2, (rand_complex(rng, 2, 1.0),
                                                            rand_complex(rng, 2, 1.0))):
            res = [kappa_shifted_bch(e * a1, e * a2, kappa) for e in eps]
            assert 2.7 <= loglog_slope(eps, res) <= 3.3, kappa
    zero = np.zeros((2, 2))
    assert kappa_shifted_bch(zero, zero, 2.0 + 1.0j) <= 1e-15


def test_shifted_bch_preconditions():
    rng = np.random.default_rng(12)
    a = rand_complex(rng, 2, 3.0)
    with pytest.raises(ConvergenceRadiusError):
        kappa_shifted_bch(a, a, 2.0)
    with pytest.raises(ValueError):
        kappa_shifted_bch(a, a, -1.0)


# --- second derivative of the logarithm ---

def test_vnsd_commuting_is_zero():
    x = np.diag([1.0, -0.5])
    y = np.diag([0.3, 0.9])
    assert norm_1(von_neumann_second_derivative(x, y)) <= 1e-8


def test_vnsd_hand_pair():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y = np.diag([1.0, -1.0]).astype(complex)
    expected = np.array([[0.0, -2.0], [2.0, 0.0]])
    assert norm_1(von_neumann_second_derivative(x, y) - expected) <= 1e-6


def test_vnsd_antisymmetry_and_reversed_chain():
    rng = np.random.default_rng(14)
    x = rand_complex(rng, 2, 0.8)
    y = rand_complex(rng, 2, 0.8)
    fwd = von_neumann_second_derivative(x, y)
    assert norm_1(von_neumann_second_derivative(y, x) + fwd) <= 2e-6
    assert norm_1(von_neumann_second_derivative(y, -x) - fwd) <= 2e-6


def test_vnsd_bilinearity():
    rng = np.random.default_rng(15)
    x = rand_complex(rng, 2, 0.5)
    y = rand_complex(rng, 2, 0.5)
    scaled = von_neumann_second_derivative(0.5 * x, y)
    assert norm_1(scaled - 0.5 * von_neumann_second_derivative(x, y)) <= 1e-6


def test_vnsd_matches_commutator_on_seeded_pairs():
    rng = np.random.default_rng(16)
    for _ in range(5):
        x = rand_complex(rng, 3, rng.uniform(0.3, 1.0))
        y = rand_complex(rng, 3, rng.uniform(0.3, 1.0))
        err = norm_1(von_neumann_second_derivative(x, y) - commutator(x, y))
        assert err <= 1e-5


# --- expansion of integrated products ---

def test_expansion_frozen_constant_families():
    rng = np.random.default_rng(17)
    b1 = rand_complex(rng, 2, 0.6)
    b2 = rand_complex(rng, 2, 0.6)
    rep = log_product_expansion(lambda s: b1, lambda s: b2)
    assert rep.first_residual <= 1e-7
    assert rep.second_residual <= 1e-5


def test_expansion_takes_no_logarithm_or_exponential(expm_calls, logm_iss_calls):
    # Z_1 and 2 Z_2 of one series of the stacks [a_i(0), a_i'(0) / 2]; one
    # logarithm of the product of two 3n x 3n jet exponentials took 1 logarithm
    # and 2 exponentials, and sampling the curve at its four nonzero FD probes
    # took 4 logarithms
    rng = np.random.default_rng(19)
    b1 = rand_complex(rng, 2, 0.6)
    b2 = rand_complex(rng, 2, 0.6)
    log_product_expansion(lambda s: b1, lambda s: b2)
    assert len(logm_iss_calls) == len(expm_calls) == 0


def test_expansion_zero_families():
    zero = np.zeros((2, 2), dtype=complex)
    rep = log_product_expansion(lambda s: zero, lambda s: zero)
    assert rep.first_residual <= 1e-12 and rep.second_residual <= 1e-9


def test_expansion_integral_mode_picks_up_drift():
    rng = np.random.default_rng(18)
    b1 = rand_complex(rng, 2, 0.4)
    b2 = rand_complex(rng, 2, 0.4)
    c1 = rand_complex(rng, 2, 0.3)
    c2 = rand_complex(rng, 2, 0.3)
    rep = log_product_expansion(lambda s: b1 + s * c1, lambda s: b2 + s * c2)
    # measured second coefficient = [a1, a2] + d/ds (a1 + a2) at 0; the
    # residual is about ||c1 + c2|| when the drift is left out
    assert norm_1(c1 + c2) > 1e-1
    assert rep.second_residual <= 1e-4


# --- von Neumann trajectory ---

def test_von_neumann_stationary_state():
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = np.diag([0.75, 0.25]).astype(complex)  # commutes with H
    rep = von_neumann_rhs(rho0, h_op, 1.0, np.linspace(0.0, 1.0, 5))
    for state in rep.states:
        np.testing.assert_allclose(state, rho0, atol=1e-12)
    assert max(rep.residuals) <= 1e-10


def test_von_neumann_rotating_coherence_closed_form():
    # rho(t) = e^{-iHt} rho0 e^{iHt}: off-diagonal phase rotates at rate 2
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ts = np.linspace(0.1, 1.0, 7)
    rep = von_neumann_rhs(rho0, h_op, 1.0, ts)
    for t, state in zip(rep.times, rep.states):
        np.testing.assert_allclose(state[0, 1], 0.5 * np.exp(-2j * t), atol=1e-9)
    assert max(rep.residuals) <= 1e-5
    assert rep.trace_drift <= 1e-9


def test_von_neumann_small_hbar_follows_the_closed_form():
    # |t H / hbar| reaches 1000: rho_01(t) = e^{-2it/hbar} / 2 at every grid time
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    ts = np.linspace(0.05, 1.0, 20)
    rep = von_neumann_rhs(rho0, h_op, 1e-3, ts)
    err = max(abs(state[0, 1] - 0.5 * np.exp(-2j * t / 1e-3))
              for t, state in zip(rep.times, rep.states))
    assert err <= 1e-10
    assert rep.trace_drift <= 1e-9


def test_von_neumann_takes_each_probe_exponential_once(expm_calls):
    # the campaign's demo: one exponential per state U and none for the
    # derivatives.  The jets took 41 (20 U, 20 jet exponentials of rho(t) and
    # one of H shared by every state); the FD sampler took 104 (20 U, 80
    # e^{s rho(t)} and 4 e^{s H}), and 180 when it took e^{s H} per state
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    rep = von_neumann_rhs(rho0, h_op, 1.0, np.linspace(0.05, 1.0, 20))
    assert len(expm_calls) == 20
    for state, residual in zip(rep.states, rep.residuals):
        assert residual == float(norm_1(commutator(state, h_op)
                                        - von_neumann_second_derivative(state, h_op)))


def test_each_product_logarithm_path_takes_no_logarithm(expm_calls, logm_iss_calls):
    # every path reads its derivatives off the series, with no logarithm and
    # no exponential beyond the trajectory's states U.  One logarithm of the
    # product of two jet exponentials took 1 per path (2 + 5 here), and the
    # FD sampler 4, one per nonzero probe
    rng = np.random.default_rng(23)
    x, y = rand_complex(rng, 3, 0.5), rand_complex(rng, 3, 0.5)
    von_neumann_second_derivative(x, y)
    log_product_expansion(lambda s: x, lambda s: y)
    assert len(logm_iss_calls) == len(expm_calls) == 0
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    rep = von_neumann_rhs(rho0, h_op, 1.0, np.linspace(0.05, 1.0, 5))
    assert len(rep.states) == 5 and len(logm_iss_calls) == 0 and len(expm_calls) == 5


def test_von_neumann_suite_takes_no_square_root(sqrtm_db_calls):
    # the suite takes no logarithm: every derivative is read off the series
    reports = campaigns.suite_von_neumann(42)
    assert all(r.passed for r in reports)
    assert len(sqrtm_db_calls) == 0


def test_von_neumann_hbar_prefactor():
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    r1 = von_neumann_rhs(rho0, h_op, 1.0, [0.3])
    r2 = von_neumann_rhs(rho0, h_op, 2.0, [0.3])
    # doubling hbar halves the motion: states differ, commutator scale halves
    v1 = commutator(r1.states[0], h_op)
    v2 = commutator(r2.states[0], h_op)
    assert norm_1(v1) > 0
    # at matched times the hbar=2 state equals the hbar=1 state at t/2
    r1_half = von_neumann_rhs(rho0, h_op, 1.0, [0.15])
    np.testing.assert_allclose(r2.states[0], r1_half.states[0], atol=1e-10)


def test_von_neumann_rejects_nonpositive_hbar():
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    for hbar in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="hbar"):
            von_neumann_rhs(rho0, h_op, hbar, [0.1])


def test_von_neumann_rejects_negative_times():
    # the trajectory starts at rho(0) = rho0, so a grid point before 0 has no state
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError, match="t = 0"):
        von_neumann_rhs(rho0, h_op, 1.0, np.linspace(-1.0, 0.0, 3))
