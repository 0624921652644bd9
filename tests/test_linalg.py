import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hadshock.errors import DegenerateQuadratic
from hadshock.linalg import cofactor, degenerate_leading
from hadshock.lopatinskii import _imag_roots, _root_error, _sqrt_anchored
from hadshock.materials import catalog
from hadshock.shock import ElasticState, _surface_term, build, freq_coeffs

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def square(d):
    return arrays(float, (d, d), elements=finite)


def test_cofactor_identity_matrix():
    assert np.array_equal(cofactor(np.eye(2)), np.eye(2))
    assert np.allclose(cofactor(np.eye(4)), np.eye(4))


def test_cofactor_2x2_closed_form():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(cofactor(A), np.array([[4.0, -3.0], [-2.0, 1.0]]))


def test_cofactor_4x4_fixed_determinant():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, size=(4, 4)) + 2 * np.eye(4)
    A *= (2.0 / np.linalg.det(A)) ** 0.25
    assert np.linalg.det(A) == pytest.approx(2.0, rel=1e-12)
    C = cofactor(A)
    assert np.allclose(C.T @ A, 2.0 * np.eye(4), atol=1e-12)


def test_cofactor_singular_matrix():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
    C = cofactor(A)
    assert np.allclose(C.T @ A, np.zeros((3, 3)), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_cofactor_identity_property(A):
    C = cofactor(A)
    with np.errstate(divide="ignore"):  # LAPACK's LU warns on subnormal pivots, as in cofactor
        det = np.linalg.det(A)
    scale = max(np.abs(A).max() ** 3, 1e-14)
    assert np.abs(C.T @ A - det * np.eye(3)).max() <= 1e-11 * max(scale, abs(det))


@settings(max_examples=60, deadline=None)
@given(square(4))
def test_cofactor_transpose_property(A):
    scale = max(1.0, np.abs(A).max() ** 3)
    assert np.abs(cofactor(A.T) - cofactor(A).T).max() <= 1e-13 * scale


def test_cofactor_large_dimension_paths():
    rng = np.random.default_rng(7)
    A = rng.uniform(-1, 1, size=(5, 5)) + 3 * np.eye(5)
    C = cofactor(A)
    assert np.allclose(C.T @ A, np.linalg.det(A) * np.eye(5), atol=1e-10)
    # singular 5x5 falls back to minor expansion
    B = A.copy()
    B[:, 0] = B[:, 1]
    C2 = cofactor(B)
    assert np.allclose(C2.T @ B, np.zeros((5, 5)), atol=1e-9)


def test_quad_roots_degenerate_leading():
    # the imaginary-axis root refuses a quadratic whose leading coefficient it cannot divide by
    assert degenerate_leading(1e-16, 1.0, 1.0)
    assert not degenerate_leading(1e-13, 1.0, 1.0)
    flags = degenerate_leading(np.array([1e-16, 1.0, 1.0]), 1.0, np.array([1.0, 1.0, 1e15]))
    assert flags.tolist() == [True, False, True]
    assert isinstance(_root_error(1), DegenerateQuadratic)


@settings(max_examples=80, deadline=None)
@given(st.floats(1.2, 20.0), st.floats(-200.0, -0.05))
def test_quad_roots_residual_and_vieta(kappa, alpha):
    # the imaginary-axis root t = a + c u, u >= 0, solves the squared equation
    # (c^2 - 1) u^2 + 2 a c u + a^2 - zeta = 0; by the sum of the roots, the other root
    # has a + c u < 0, so it solves only the squared equation
    m = catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": kappa})
    sf = build(m, ElasticState(np.eye(2)), alpha)
    coeffs = freq_coeffs(sf, [1.0])
    bv, t, failed = _imag_roots(sf, coeffs)
    assert failed == 0
    if np.isnan(t):
        assert bv > 0
        return
    a = np.sqrt(max(_surface_term(sf, coeffs.P), 0.0)) - sf.tau * coeffs.eta
    c = np.sqrt(sf.kappa2_plus) / sf.speed
    qa, qb, qc = c * c - 1.0, 2.0 * a * c, a * a - coeffs.zeta
    u = (t - a) / c
    scale = max(abs(qa), abs(qb), abs(qc))
    assert abs(qa * u * u + qb * u + qc) <= 1e-12 * max(scale, scale * u * u)
    other = -qb / qa - u
    assert abs(u * other - qc / qa) <= 1e-12 * max(1.0, abs(qc / qa), abs(u * other))
    assert a + c * other < 0.0 <= a + c * u


def test_sqrt_principal_examples():
    # (gamma^2 + zeta)^(1/2) continued from Re gamma > 0
    assert _sqrt_anchored(2.0, 0.0) == 2.0
    assert _sqrt_anchored(0.0, 4.0) == 2.0
    assert _sqrt_anchored(1j, 5.0) == 2.0  # inside the gap |t| < sqrt(zeta)
    assert _sqrt_anchored(3j, 5.0) == 2j
    assert _sqrt_anchored(-3j, 5.0) == -2j
    assert _sqrt_anchored(3j, 0.0) == 3j
    assert _sqrt_anchored(complex(-0.0, 3.0), 0.0) == 3j  # signed zero does not flip the cut
    assert _sqrt_anchored(complex(-0.0, -3.0), 0.0) == -3j
    # the axis values are the limits from Re gamma > 0
    assert _sqrt_anchored(complex(1e-300, 3.0), 0.0) == pytest.approx(3j, rel=1e-15)
    assert _sqrt_anchored(complex(1e-300, -3.0), 0.0) == pytest.approx(-3j, rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.complex_numbers(max_magnitude=1e3), st.floats(0.0, 1e6))
def test_sqrt_principal_squares_back(z, zeta):
    gamma = complex(abs(z.real), z.imag)
    w = complex(_sqrt_anchored(gamma, zeta))
    assert w.real >= 0.0
    assert abs(w * w - (gamma * gamma + zeta)) <= 1e-14 * max(1e-30, abs(gamma) ** 2 + zeta)


def _loop_minor_expansion(a):
    """One np.linalg.det call per minor: the expansion the stacked form replaced."""
    d = a.shape[0]
    rows = np.arange(d)
    cof = np.empty_like(a)
    for i in range(d):
        for j in range(d):
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(a[np.ix_(rows != i, rows != j)])
    return cof


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cofactor_stacked_minors_match_loop_bit_for_bit(d):
    rng = np.random.default_rng(d)
    mats = []
    for k in range(300):
        A = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 1:  # rank deficient: two proportional columns
            A[:, 0] = rng.uniform(-2.0, 2.0) * A[:, 1]
        elif k % 3 == 2:  # a zero row, so some minors are exact zeros
            A[rng.integers(d)] = 0.0
        mats.append(A)
        if d > 2:  # d = 2 is written out, with no minors
            got, want = cofactor(A), _loop_minor_expansion(A)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a (3, 100, d, d) stack: each slice gets the cofactor of the matrix on its own
    got = cofactor(np.array(mats).reshape(3, 100, d, d))
    want = np.array([cofactor(A) for A in mats]).reshape(got.shape)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_cofactor_product_equals_one_matrix_bit_for_bit(d):
    # a stack's cofactors are C-contiguous, as one matrix's are, so a later matmul on the
    # stack rounds as it does on each matrix
    rng = np.random.default_rng(d)
    X, nu = rng.standard_normal((5, 2, d, d)), rng.standard_normal(d)
    assert cofactor(X).flags.c_contiguous
    got = cofactor(X) @ nu
    want = np.array([[cofactor(A) @ nu for A in row] for row in X])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
