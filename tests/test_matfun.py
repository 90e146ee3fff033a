"""Matrix-function tests: expm, sqrtm, both logm algorithms, derivatives."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlog.errors import BranchCutError, ContourError, SingularMatrixError
from shiftlog import linalg, matfun
from shiftlog.linalg import eye, gershgorin_discs, norm_1, off_branch_cut, solve
from shiftlog.logrep import alt_generator, select_kappa
from shiftlog.matfun import (
    CONTOUR_NODES,
    EXPM_THETA,
    FD_STEP,
    SERIES_DISC,
    contour_for,
    expm,
    fd_derivative,
    fd_probes,
    fd_step,
    logm_contour,
    logm_iss,
    sqrtm_db,
)
from shiftlog.sampling import rand_log_admissible
from shiftlog.unbounded import advection_matrix, diffusion_matrix


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


def test_expm_refuses_an_overflowing_squaring():
    # ||A||_1 = 800 passes the norm guard, but e^800 > 1.8e308: the squarings
    # overflow, and the refusal comes without a RuntimeWarning
    with pytest.raises(OverflowError, match="expm overflows"):
        expm(np.diag([800.0, 0.0]))


def test_expm_accuracy_large_scaling():
    # ||A||_1 = 8, three squarings of T_20: still accurate against the
    # diagonal closed form.
    a = np.diag([8.0, -8.0])
    np.testing.assert_allclose(expm(a), np.diag([math.exp(8), math.exp(-8)]),
                               rtol=1e-12)


def _mpmath_reference(fn, a) -> np.ndarray:
    """fn(a) from mpmath at 40 significant digits, rounded to complex128."""
    with mpmath.workdps(40):
        e = fn(mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                              for row in a]))
        return np.array([[complex(e[i, j]) for j in range(a.shape[1])]
                         for i in range(a.shape[0])])


def test_expm_forward_error_against_mpmath():
    rng = np.random.default_rng(7)
    for n in (2, 4, 8):
        for norm in (0.1, 1.0, 8.0, 50.0):
            a = rand_c(rng, n, norm)
            ref = _mpmath_reference(mpmath.expm, a)
            assert norm_1(expm(a) - ref) <= 1e-14 * norm_1(ref), (n, norm)


# One input per Taylor degree 4, 6, 9, 12, 16 and 20, then T_20 after 1 and 6
# squarings.
LADDER_NORMS = (2e-4, 5e-3, 0.05, 0.2, 0.6, 1.2, 2.5, 50.0)


def test_expm_every_ladder_step_against_mpmath():
    thetas = list(EXPM_THETA.values())
    assert [sum(norm > theta for theta in thetas) for norm in LADDER_NORMS] == [0, 1, 2, 3, 4, 5, 6, 6]
    assert [math.ceil(math.log2(norm / thetas[-1])) for norm in LADDER_NORMS[5:]] == [0, 1, 6]
    rng = np.random.default_rng(41)
    for n in (2, 4, 8):
        # non-normal: a real diagonal in [-1, 1] under an upper triangle of norm 40..130
        tri = np.triu(rand_c(rng, n), 1)
        tri = tri * (rng.uniform(40.0, 130.0) / norm_1(tri)) + np.diag(rng.uniform(-1.0, 1.0, n))
        for a in [rand_c(rng, n, norm) for norm in LADDER_NORMS] + [tri]:
            ref = _mpmath_reference(mpmath.expm, a)
            assert norm_1(expm(a) - ref) <= 1e-13 * norm_1(ref), (n, norm_1(a))


def test_expm_takes_one_norm_and_no_solve_or_inverse(monkeypatch, norm_1_calls):
    # the Taylor polynomial and its squarings are products only
    def refuse(*args, **kwargs):
        raise AssertionError("expm called a LAPACK solve or inverse")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    rng = np.random.default_rng(43)
    cases = [rand_c(rng, 4, norm) for norm in LADDER_NORMS]
    cases += [c.real.copy() for c in cases]
    for a in cases:
        expm(a)
    assert len(norm_1_calls) == len(cases)


def _taylor_theta(m: int, terms: int = 160) -> float:
    """theta_m of Al-Mohy and Higham (2011): the root of sum_{k > m} |c_k|
    theta^(k-1) = 2^-53, where c_k are the Taylor coefficients of
    h(x) = log(e^-x T_m(x)) and T_m is the degree-m Taylor polynomial of e^x;
    mpmath, 40 digits."""
    with mpmath.workdps(40):
        # e^-x T_m(x) = sum_k g_k x^k, g_0 = 1
        g = [mpmath.fsum((-1) ** (k - j) / (mpmath.factorial(j) * mpmath.factorial(k - j))
                         for j in range(min(k, m) + 1)) for k in range(terms)]
        c = [mpmath.mpf(0)] * terms  # log g by k c_k = k g_k - sum_j j c_j g_(k-j)
        for k in range(1, terms):
            c[k] = g[k] - mpmath.fsum(j * c[j] * g[k - j] for j in range(1, k)) / k
        # T_m agrees with e^x through x^m, so h starts at x^(m+1)
        assert max(abs(ck) for ck in c[1:m + 1]) < mpmath.mpf(10) ** -35
        tail = [(k - 1, abs(c[k])) for k in range(m + 1, terms)]
        bound = lambda t: mpmath.fsum(ck * t**j for j, ck in tail) - mpmath.mpf(2) ** -53
        return float(mpmath.findroot(bound, (mpmath.mpf(0), mpmath.mpf(8)), solver="bisect"))


@pytest.mark.parametrize("m", sorted(EXPM_THETA))
def test_expm_theta_derived_from_the_backward_error_series(m):
    assert _taylor_theta(m) == pytest.approx(EXPM_THETA[m], rel=1e-12)


def test_rand_log_admissible_returns_the_draw_with_its_exponential():
    rng = np.random.default_rng(5)
    for n in (2, 4, 8):
        a, m = rand_log_admissible(rng, n)
        assert np.array_equal(m, expm(a)) and off_branch_cut(m)


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


def test_sqrtm_forward_error_against_mpmath():
    rng = np.random.default_rng(61)
    shift = np.diag(np.ones(5), 1)  # nilpotent: I + 3N is one Jordan block
    cases = [rand_log_admissible(rng, n)[1] for n in (2, 4, 8, 16)]
    for m in cases + [np.eye(6) + 3.0 * shift]:
        ref = _mpmath_reference(mpmath.sqrtm, m)
        assert norm_1(sqrtm_db(m) - ref) <= 1e-13 * norm_1(ref), m.shape


def test_sqrtm_takes_one_solve_per_iteration(monkeypatch):
    inverses = []

    def recording(a, b):
        x = solve(a, b)
        inverses.append(x)
        return x

    monkeypatch.setattr(matfun, "solve", recording)
    m = expm(rand_c(np.random.default_rng(5), 6, 1.0))
    root = sqrtm_db(m)
    # Replay Y_{k+1} = 1/2 Y_k (I + P_k^-1) on the recorded inverses: one per
    # iteration, so the stopping rule first holds after the last of them.
    ident, y, stops = eye(6), m, []
    for p_inv in inverses:
        y_next = 0.5 * y @ (ident + p_inv)
        stops.append(norm_1(y_next - y) <= 1e-13 * norm_1(y))
        y = y_next
    assert len(inverses) >= 3
    assert stops == [False] * (len(inverses) - 1) + [True]
    assert np.array_equal(root, y)


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
    # an all-zero diagonal is never admissible, so the centre c is never 0
    for m in ([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]], np.zeros((3, 3))):
        with pytest.raises(BranchCutError):
            logm_iss(np.array(m))


def test_logm_contour_identity():
    value = logm_contour(np.eye(2))
    assert norm_1(value) <= 1e-12


def test_logm_contour_diagonal():
    value = logm_contour(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(value, np.diag([math.log(2), math.log(3)]),
                               atol=1e-9)


def test_logm_contour_shifted_agreement():
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = expm(rand_c(rng, 4, 0.5)) + 3.0 * np.eye(4)
        ref = logm_iss(m)
        value = logm_contour(m)
        assert norm_1(value - ref) <= 1e-8 * norm_1(ref)


def test_logm_agreement_random_dims():
    rng = np.random.default_rng(37)
    for n in (2, 4, 8, 16):
        a = rand_c(rng, n, 0.4)
        m = expm(a)
        ref = logm_iss(m)
        assert norm_1(logm_contour(m) - ref) <= 1e-8 * norm_1(ref)


def _logm_contour_loop(m):
    """Reference: one solve per node, every level from scratch, on the
    circle of ``contour_for``.

    Returns the converged value and the node count of the converged level.
    """
    ident = eye(m.shape[0])
    center, radius = contour_for(m)[:2]

    def quadrature(nodes):
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        lam = center + radius * np.exp(1j * theta)
        total = np.zeros_like(ident)
        for lam_k, theta_k in zip(lam, theta):
            resolvent = solve(lam_k * ident - m, ident)
            total = total + np.log(lam_k) * resolvent * np.exp(1j * theta_k)
        return radius / nodes * total

    nodes = CONTOUR_NODES
    prev = quadrature(nodes)
    while nodes < 4096:
        nodes *= 2
        cur = quadrature(nodes)
        if norm_1(cur - prev) < 1e-9:
            return cur, nodes
        prev = cur
    raise AssertionError("reference quadrature did not converge")


def _record_inverse(monkeypatch, calls, transform=None):
    """Route np.linalg.inv through a wrapper that records (input, output)."""
    inv = np.linalg.inv

    def wrapper(a):
        out = inv(a)
        if transform is not None:
            out = transform(out)
        calls.append((a, out))
        return out

    monkeypatch.setattr(np.linalg, "inv", wrapper)


def test_logm_contour_matches_node_loop_with_reuse(monkeypatch):
    rng = np.random.default_rng(53)
    for n in (2, 4, 8, 16):
        for _ in range(3):
            m = rand_log_admissible(rng, n)[1]
            ref, converged_nodes = _logm_contour_loop(m)
            calls = []
            _record_inverse(monkeypatch, calls)
            value = logm_contour(m)
            monkeypatch.undo()
            assert norm_1(value - ref) <= 1e-13 * norm_1(ref), n
            # each level adds only its new nodes: 64, then 64, 128, ...
            sizes = [len(a) for a, _ in calls]
            assert sizes == [CONTOUR_NODES] + [CONTOUR_NODES * 2**j
                                               for j in range(len(sizes) - 1)]
            assert sum(sizes) == converged_nodes


def _singular(out):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("transform", [
    _singular,
    lambda out: np.full_like(out, np.nan),
    # the diagonal test matrix makes each Varah bound tight: 2x is past it
    lambda out: out * np.where(np.arange(len(out)) == 0, 2.0, 1.0)[:, None, None],
], ids=["singular", "nan", "twice_bound"])
def test_logm_contour_guard_rejects_bad_resolvents(monkeypatch, transform):
    _record_inverse(monkeypatch, [], transform)
    with pytest.raises(SingularMatrixError):
        logm_contour(np.diag([2.0, 3.0]))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 5, 8]),
       norm=st.floats(0.05, 3.0), shift=st.complex_numbers(max_magnitude=4.0))
def test_varah_bound_holds_at_every_node(seed, n, norm, shift):
    m = rand_c(np.random.default_rng(seed), n, norm) + shift * np.eye(n)
    try:
        contour_for(m)
    except ContourError:
        assume(False)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _record_inverse(mp, calls)
        logm_contour(m)
    for stack, inverse in calls:
        absb = np.abs(stack)
        diag = np.abs(np.diagonal(stack, axis1=-2, axis2=-1))
        # strict dominance margins of lam_k I - M over columns and over rows
        col = (2 * diag - absb.sum(axis=-2)).min(axis=-1)
        row = (2 * diag - absb.sum(axis=-1)).min(axis=-1)
        norm_col = np.abs(inverse).sum(axis=-2).max(axis=-1)
        norm_row = np.abs(inverse).sum(axis=-1).max(axis=-1)
        assert np.all((col > 0) | (row > 0))
        slack = 1.0 + 1e-12
        assert np.all((col <= 0) | (norm_col * col <= slack))
        assert np.all((row <= 0) | (norm_row * row <= slack))


def test_logm_forward_error_against_mpmath(resolvent_stacks):
    rng = np.random.default_rng(59)
    for n in (2, 4, 8):
        m = rand_log_admissible(rng, n)[1]
        ref = _mpmath_reference(mpmath.logm, m)
        scale = norm_1(ref)
        assert norm_1(logm_contour(m) - ref) <= 1e-13 * scale, n
        assert norm_1(logm_iss(m) - ref) <= 1e-13 * scale, n
    # the oracle's early and late stops, on the campaign's matrices: draws 2,
    # 4, 15 and 18 of seed 7 (n cycling 2, 4, 8) converge at 32 nodes, the
    # earliest stop of a first level of 16, and at 256, 32 and 512 nodes
    rng = np.random.default_rng(7)
    draws = [rand_log_admissible(rng, (2, 4, 8)[i % 3])[1] for i in range(19)]
    nodes = []
    for m in (draws[2], draws[4], draws[15], draws[18]):
        resolvent_stacks.clear()
        log_m = logm_contour(m)
        nodes.append(sum(resolvent_stacks))
        ref = _mpmath_reference(mpmath.logm, m)
        assert norm_1(log_m - ref) <= 1e-13 * norm_1(ref), (m.shape, nodes[-1])
    assert nodes == [32, 256, 32, 512]
    # ||M - I||_1 <= 1/4 takes no square root: the series alone does the work,
    # at 0.2499, at its shortest (1e-8) and non-normal (I + 0.2 N).  At
    # n = 16 only 0.2499: mpmath takes 2 s more for the others.
    near = [eye(n) + rand_c(rng, n, d) for n in (2, 4, 8) for d in (0.2499, 1e-3, 1e-8)]
    near.append(eye(16) + rand_c(rng, 16, 0.2499))
    for m in near + [eye(6) + 0.2 * np.diag(np.ones(5), 1)]:
        ref = _mpmath_reference(mpmath.logm, m)
        assert norm_1(logm_iss(m) - ref) <= 1e-13 * norm_1(ref), (m.shape, norm_1(m - eye(len(m))))


def test_logm_iss_centred_against_mpmath():
    # spectra far from 1, which the chain takes after the scalar centring:
    # the sweep's U + kappa I, and diagonals spread over six decades
    rng = np.random.default_rng(13)
    cases = []
    for n in (2, 4, 8):
        for zeta in (0.5, 3.0, 10.0):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = z + z.conj().T
            u = zeta * expm(1j * zeta * h / norm_1(h))
            cases.append(u + select_kappa([u]) * eye(n))
    cases += [np.diag([1e-3, 1.0, 1e3]), np.diag([0.01, 100.0]) + np.diag([1e-5], 1)]
    for m in cases:
        assert norm_1(m - eye(len(m))) > SERIES_DISC
        ref = _mpmath_reference(mpmath.logm, m)
        assert norm_1(logm_iss(m) - ref) <= 1e-13 * norm_1(ref), m.shape


def test_logm_iss_series_disc_against_mpmath(sqrtm_db_calls):
    # ||X||_1 up to 1/2 is the series' alone: no square root, at degree up to
    # 54 on normal and on upper-triangular (non-normal) X.  Chaining a root
    # below 1/4 first read up to 5.9e-15 here.
    rng = np.random.default_rng(25)
    cases = []
    for n in (2, 4, 8):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = np.linalg.qr(z)[0]
        normal = q @ np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ q.conj().T
        upper = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for x in (normal, upper):
            cases += [eye(n) + x * (d / norm_1(x)) for d in (0.3, 0.4, 0.45, SERIES_DISC)]
    for m in cases:
        ref = _mpmath_reference(mpmath.logm, m)
        assert norm_1(logm_iss(m) - ref) <= 1e-13 * norm_1(ref), (m.shape, norm_1(m - eye(len(m))))
    assert len(sqrtm_db_calls) == 0


def test_logm_iss_centring_adds_no_root(sqrtm_db_calls):
    # Shaped like the seed-42 campaign inputs on which the centring once cost
    # a root: the diagonal near 1 (in [0.86, 1.10]) and off-diagonal mass
    # putting ||M - I||_1 in (1/4, 1/2].  Centred by mean |m_jj| and chained
    # to 1/4, they took one root; within the series disc they take none.
    rng = np.random.default_rng(19)
    cases = [np.array([[0.86, 0.35], [0.13, 1.10]]), np.array([[1.10, 0.02], [0.38, 0.86]])]
    for n, spread, dist in ((4, 0.12, 0.3), (8, 0.06, 0.45), (8, 0.12, 0.49)):
        off = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.fill_diagonal(off, 0.0)
        diag = np.diag(1.0 + rng.uniform(-spread, spread, n))
        cases.append(diag + off * ((dist - norm_1(diag - eye(n))) / norm_1(off)))
    for m in cases:
        assert 0.25 < norm_1(m - eye(len(m))) <= SERIES_DISC
        ref = logm_contour(m)
        assert norm_1(logm_iss(m) - ref) <= 1e-12 * norm_1(ref), m.shape
    assert len(sqrtm_db_calls) == 0


def test_logm_iss_scale_equivariance():
    # Log(cM) = ln(c) I + Log(M) for real c > 0; without the centring the
    # square roots walked c down to 1 and the gap read 8e-15 to 7e-14
    rng = np.random.default_rng(17)
    m = expm(0.05 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))))
    log_m = logm_iss(m)
    for c in (1e-3, 7.0, 1e3):
        gap = norm_1(logm_iss(c * m) - math.log(c) * eye(6) - log_m)
        assert gap <= 1e-14 * norm_1(log_m), c


def test_contour_validation(monkeypatch):
    # no admissible contour for spectra hugging the cut, or enclosing the origin
    for m in (np.diag([1e-4, 4.0]), np.diag([-1.0, 1.0])):
        with pytest.raises(ContourError):
            contour_for(m)
        with pytest.raises(ContourError):
            logm_contour(m)
    # the oracle still confirms its precondition: a family outside the circle
    monkeypatch.setattr(matfun, "contour_for",
                        lambda m: (1.0 + 0j, 0.5, "col", gershgorin_discs(m, "col")))
    with pytest.raises(ContourError):
        logm_contour(np.diag([5.0, 6.0]))


def test_logm_contour_builds_each_gershgorin_family_once(monkeypatch):
    # contour_for builds the column and the row family, and the oracle
    # integrates around the one it returns instead of building it again
    calls = []

    def counting_discs(a, axis="col"):
        calls.append(axis)
        return gershgorin_discs(a, axis)

    for module in (linalg, matfun):
        monkeypatch.setattr(module, "gershgorin_discs", counting_discs)
    m = expm(rand_c(np.random.default_rng(3), 4, 0.5))
    log_m = logm_contour(m)
    assert sorted(calls) == ["col", "row"]
    assert norm_1(log_m - logm_iss(m)) <= 1e-8


def test_logm_contour_validates_its_input_once(as_matrix_calls):
    # contour_for validates m, and both Gershgorin families and the oracle's
    # stack are read off that one check
    rng = np.random.default_rng(3)
    for n in (2, 4, 8, 16):
        m = expm(rand_c(rng, n, 0.5))
        as_matrix_calls.clear()
        logm_contour(m)
        assert len(as_matrix_calls) == 1, n
    with pytest.raises(ValueError):
        logm_contour(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        logm_contour(np.ones((2, 3)))


# --- real input stays real ---

U = 2.0 ** -53

REAL_KERNELS = {"expm": expm, "sqrtm_db": sqrtm_db, "logm_iss": logm_iss,
                "alt_generator": lambda m: alt_generator(m, 2.0 * norm_1(m))}


@pytest.mark.parametrize("name", REAL_KERNELS)
def test_real_input_stays_real_and_matches_the_complex_path(name):
    # The same values through float64 (dgemm, dgesv) and complex128 (zgemm,
    # zgesv) differ by rounding only.  Measured up to 0.55 n u for expm, 0.35
    # for sqrtm_db and 0.59 for alt_generator; logm_iss read 13.5 n u at n = 2
    # and norm 8, where each path is itself 10 and 5.5 n u off the exact
    # logarithm a.  The bound is 32 n u.
    kernel = REAL_KERNELS[name]
    rng = np.random.default_rng(5)
    graded = 0
    for n in (2, 3, 8, 16, 64):
        for norm in (0.1, 1.0, 8.0):
            a = rng.standard_normal((n, n))
            a *= norm / norm_1(a)
            m = a if name == "expm" else expm(a)
            if name != "expm" and not off_branch_cut(m):
                continue
            real, cplx = kernel(m), kernel(m.astype(np.complex128))
            assert real.dtype == np.float64 and cplx.dtype == np.complex128
            assert norm_1(real - cplx) <= 32 * n * U * norm_1(cplx), (n, norm)
            graded += 1
    assert graded >= 11


def test_logm_iss_of_a_real_non_normal_matrix_against_mpmath():
    # a real, non-normal matrix whose eigenvalues 4.136 +- 2.187i are a
    # complex-conjugate pair; its column Gershgorin discs clear the cut.  Its
    # principal logarithm is real, and both paths read 1.9-2.4 u from
    # mpmath's (relative, 1-norm).
    m = np.array([[4.0, 1.0, 0.0], [-2.0, 4.0, 3.0], [0.5, -1.0, 5.0]])
    assert norm_1(m @ m.T - m.T @ m) > 1.0
    eigs = np.linalg.eigvals(m)
    assert np.sum(np.abs(eigs.imag) > 2.0) == 2 and np.isclose(eigs.imag.sum(), 0.0)
    ref = _mpmath_reference(mpmath.logm, m)
    assert not ref.imag.any()
    for a, out in ((m, np.float64), (m.astype(np.complex128), np.complex128)):
        log = logm_iss(a)
        assert log.dtype == out
        assert norm_1(log - ref) <= 8 * U * norm_1(ref)


@pytest.mark.parametrize("n", [128, 256])
def test_expm_of_the_sweep_stencils_against_scipy(n):
    # exponents of 1-norm 65.5 and 262 (diffusion, nu = 0.01) and 12.8 and
    # 25.6 (advection) at t = 0.1; they read 5.3e-15 to 1.8e-14 from scipy's
    for a in (0.1 * diffusion_matrix(n, 0.01), 0.1 * advection_matrix(n)):
        e = expm(a)
        ref = scipy.linalg.expm(a)
        assert e.dtype == np.float64
        assert norm_1(e - ref) <= 1e-13 * norm_1(ref)


# --- finite differences ---

def test_fd_linear_curve_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    d = fd_derivative(lambda t: t * a, 0.4, 1e-3)
    np.testing.assert_allclose(d, a, atol=1e-12)


def test_fd_matrix_exponential_derivative():
    rng = np.random.default_rng(41)
    a = rand_c(rng, 3, 0.9)
    d = fd_derivative(lambda t: expm(t * a), 0.0, 1e-3)
    assert norm_1(d - a) <= 1e-8


def test_fd_halving_reduces_error():
    # one Richardson level is fourth order: halving h cuts the error ~16-fold
    rng = np.random.default_rng(43)
    a = rand_c(rng, 3, 1.0)
    errs = [norm_1(fd_derivative(lambda t: expm(t * a), 0.0, h) - a) for h in (4e-2, 2e-2)]
    assert 11.0 <= errs[0] / errs[1] <= 22.0


# --- block-triangular exponential ---

def test_block_toeplitz_exponential_is_the_frechet_derivative():
    # the (1,2) block of expm([[A, E], [0, A]]) is L_exp(A, E) (Van Loan, IEEE
    # TAC 23(3), 1978), computed independently by scipy's Al-Mohy-Higham
    # algorithm
    rng = np.random.default_rng(45)
    for n, scale in ((2, 0.5), (4, 2.0), (8, 6.0)):
        a, e = rand_c(rng, n, scale), rand_c(rng, n, 1.0)
        exact = scipy.linalg.expm_frechet(a, e, compute_expm=False)
        block = expm(np.block([[a, e], [0 * a, a]]))[:n, n:]
        assert norm_1(block - exact) <= 1e-13 * norm_1(exact)


def test_fd_config_validation():
    # the rule's one input is its step h, or the scale fd_step sizes it from.
    # The floats at 0.5 lie 1.1e-16 apart: at h = 1e-20 every probe rounds to
    # 0.5, and the derivative of t A read 0; at 1.6e-16 it read 29% off A
    # (relative 1-norm); at 2e-12 the offsets stray by up to 2.2e-5 h, and it
    # read 4.3e-5 off; scale 1e160 gives h = 6.5e-162
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    for h in (0.0, -1e-3, math.inf, math.nan, fd_step(math.inf), fd_step(1e160),
              1e-20, 1.6e-16, 2e-12):
        with pytest.raises(ValueError, match="step h"):
            fd_derivative(lambda t: t * a, 0.5, h)
    assert fd_step(0.0) == fd_step(1.0) == FD_STEP
    assert fd_step(400.0) == FD_STEP / 400.0


def test_fd_takes_steps_the_floats_at_t0_resolve():
    # 1e-8 at 0.5 is off by at most 1.1e-8 of h; at t0 = 0 every offset is
    # exact down to the normal floats; and the README sweep's speed 1e7 at
    # t = 1 (h = 4.1e-10) is off by 3.6e-7 of h, below 1e-6
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    for t0, h in ((0.5, 1e-8), (0.0, 1e-300), (1.0, fd_step(1.6e8))):
        assert norm_1(fd_derivative(lambda t: t * a, t0, h) - a) <= 1e-6 * norm_1(a)
    with pytest.raises(ValueError, match="resolved"):
        fd_probes(math.nan, 1e-3)


@pytest.mark.parametrize("decade", [0, 1, 2, 3])
def test_fd_derivative_samples_each_probe_once(decade):
    # a skew-Hermitian generator of 1-norm 1.3 * 10**decade at the step the
    # rule gives it: the derivative keeps its relative accuracy as it grows,
    # from four samples, none at t0
    a = 10.0 ** decade * np.array([[0.3j, 1.0], [-1.0, 0.2j]])
    h = fd_step(norm_1(a))
    asked = []

    def curve(t):
        asked.append(t)
        return expm(t * a)

    first = fd_derivative(curve, 0.25, h)
    probes = fd_probes(0.25, h)
    assert len(probes) == 4 and probes == sorted(probes) and 0.25 not in probes
    assert asked == probes
    u = expm(0.25 * a)
    assert norm_1(first - a @ u) <= 1e-6 * norm_1(a @ u)


def test_fd_step_derived_from_the_first_derivative_error_model():
    # Read the weights on the four samples off fd_derivative itself, at h = 1,
    # and expand them exactly in Taylor terms.
    probes = fd_probes(0.0, 1.0)
    basis = np.eye(len(probes))
    weights = fd_derivative(lambda t: basis[probes.index(t)], 0.0, 1.0)
    w = [Fraction(float(x)).limit_denominator(1000) for x in weights]
    assert w == [Fraction(1, 6), Fraction(-4, 3), Fraction(4, 3), Fraction(-1, 6)]
    offsets = [Fraction(t).limit_denominator(4) for t in probes]
    moments = [sum(wj * oj ** k for wj, oj in zip(w, offsets)) / math.factorial(k)
               for k in range(7)]
    # exact on f' through degree 4; the first term it misses is -h^4 f^(5) / 480
    assert moments[:5] == [0, 1, 0, 0, 0] and moments[6] == 0
    assert moments[5] == Fraction(-1, 480)
    assert sum(abs(wj) for wj in w) == 3
    # the truncation term x^4 / 480 and the rounding term 3 u / x both stay
    # within sqrt(u) on [3.2e-8, 0.047]; FD_STEP lies above that window
    u = 2.0 ** -53
    top = (480.0 * math.sqrt(u)) ** 0.25
    bottom = 3.0 * math.sqrt(u)
    assert bottom == pytest.approx(3.16e-8, rel=1e-2) and top == pytest.approx(0.0474, rel=1e-2)
    assert FD_STEP == 0.065 > top
    assert FD_STEP ** 4 / 480.0 == pytest.approx(3.7e-8, rel=1e-2)
    assert 3.0 * u / FD_STEP == pytest.approx(5.1e-15, rel=1e-2)
    # measured at FD_STEP on a rotation, whose f^(5) = a^5 e^{ta} has 1-norm
    # 1 at t = 0: the error is the truncation term
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    err = norm_1(fd_derivative(lambda t: expm(t * a), 0.0, FD_STEP) - a)
    assert err == pytest.approx(FD_STEP ** 4 / 480.0, rel=1e-3)


def test_constructible_contour_implies_enclosure_off_the_cut():
    # contour_for's circle clears the cut by 0.12 r and holds every disc of its
    # family within r / 1.15 of the center, so each disc clears it by > 0.25 r
    rng = np.random.default_rng(61)
    constructible = 0
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        m = expm(rand_c(rng, n, rng.uniform(0.05, 4.0)))
        try:
            contour_for(m)
        except ContourError:
            continue
        constructible += 1
        assert off_branch_cut(m)
    assert constructible >= 200
