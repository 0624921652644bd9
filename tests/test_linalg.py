import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hadshock.errors import DegenerateQuadratic
from hadshock.linalg import cofactor, quad_roots, sqrt_principal

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


def test_quad_roots_simple():
    pair = quad_roots(1.0, 0.0, -1.0)
    assert pair.root_minus == pytest.approx(-1.0)
    assert pair.root_plus == pytest.approx(1.0)


def test_quad_roots_double_complex():
    pair = quad_roots(1.0, -2j, -1.0)  # (x - i)^2
    assert pair.root_minus == pytest.approx(1j)
    assert pair.root_plus == pytest.approx(1j)


def test_quad_roots_degenerate_leading():
    with pytest.raises(DegenerateQuadratic):
        quad_roots(1e-16, 1.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0), st.complex_numbers(max_magnitude=5.0),
       st.complex_numbers(max_magnitude=5.0))
def test_quad_roots_residual_and_vieta(a, b, c):
    if abs(a) <= 1e-13 * max(abs(b), abs(c), 1.0):
        return
    pair = quad_roots(a, b, c)
    scale = max(abs(a), abs(b), abs(c))
    for r in pair:
        assert abs(a * r * r + b * r + c) <= 1e-12 * max(scale, scale * abs(r) ** 2)
    root_scale = abs(pair.root_minus) + abs(pair.root_plus)
    assert abs(pair.root_minus + pair.root_plus + b / a) <= 1e-12 * max(1.0, abs(b / a), root_scale)
    assert abs(pair.root_minus * pair.root_plus - c / a) <= 1e-12 * max(1.0, abs(c / a))


def test_sqrt_principal_examples():
    assert sqrt_principal(4.0) == 2.0
    assert sqrt_principal(-9.0) == 3j
    assert sqrt_principal(complex(-9.0, -0.0)) == 3j  # signed zero does not flip the cut


@settings(max_examples=80, deadline=None)
@given(st.complex_numbers(max_magnitude=1e6))
def test_sqrt_principal_squares_back(z):
    w = sqrt_principal(z)
    assert w.real >= 0.0
    assert abs(w * w - z) <= 1e-14 * max(1e-30, abs(z))


def _loop_minor_expansion(a):
    """One np.linalg.det call per minor: the expansion the stacked form replaced."""
    d = a.shape[0]
    rows = np.arange(d)
    cof = np.empty_like(a)
    for i in range(d):
        for j in range(d):
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(a[np.ix_(rows != i, rows != j)])
    return cof


@pytest.mark.parametrize("d", [3, 4])
def test_cofactor_stacked_minors_match_loop_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for k in range(300):
        A = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 1:  # rank deficient: two proportional columns
            A[:, 0] = rng.uniform(-2.0, 2.0) * A[:, 1]
        elif k % 3 == 2:  # a zero row, so some minors are exact zeros
            A[rng.integers(d)] = 0.0
        got, want = cofactor(A), _loop_minor_expansion(A)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
