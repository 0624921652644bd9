"""Stability function of a Lax front and its root-location tools.

The normal-mode analysis of a front reduces to a scalar complex
function of the spatio-temporal frequency (lambda, xi_t).  Three
algebraically equivalent expressions are provided:

* ``delta_v1_values`` - quadratic in the stable root beta, in the
  original frequency lambda (completed-square form);
* ``delta_v2_values`` - in the remapped frequency gamma, where the
  square root (gamma^2 + zeta)^(1/2) carries all branch information;
* ``delta_v3_values`` - one linear factor of v2, defined when the
  stability parameter rho is negative; its zeros are exactly the zeros
  of v2 with positive real part.

Each of them, the stable root and the lambda <-> gamma map is written
once, under one name, as an array kernel over frequencies (...) and
transverse vectors that are one vector or a stack (..., k) broadcasting
against them.  A single frequency is a 0-d lambda or gamma with a 1-D
xi_t, and its value equals the matching element of any array call bit
for bit.  The kernel rounds the same at every array size because it
uses real arithmetic, complex sums, real multiples and numpy's complex
square root only; complex products go through ``_product``, which rounds
as Python's complex product does.

Branch convention: the square root of gamma^2 + zeta is the principal
branch for Re gamma != 0 (the argument never meets the negative real
axis there, so this is the analytic continuation anchored at xi_t = 0
where it reduces to gamma itself); on the imaginary axis gamma = i*t it
is the limit from Re gamma > 0, i.e. i*sgn(t)*sqrt(t^2 - zeta) once
t^2 exceeds zeta.

``_imag_roots`` locates the purely imaginary zeros (surface waves) of
the fronts and directions the classifier hands it, and ``winding``
counts zeros with positive real part by the argument principle along a
D-shaped contour.
"""

from typing import Callable

import numpy as np

from .errors import ContourThroughZero, DegenerateQuadratic, RhoNotNegative, VerificationError
from .linalg import degenerate_leading
from .shock import FrequencyCoefficients, ShockFront, _criterion, _surface_term, freq_coeffs

__all__ = [
    "stable_beta_values",
    "freq_map_values",
    "freq_unmap_values",
    "delta_v1_values",
    "delta_v2_values",
    "delta_v3_values",
    "v3_factors_values",
    "winding",
    "winding_number",
]


# ---------------------------------------------------------------------------
# the array kernel

def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _product(a, b) -> np.ndarray:
    """a b formed as (ar br - ai bi) + i (ar bi + ai br), as Python does."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _square(z) -> np.ndarray:
    """z**2, rounded as Python rounds it."""
    return _product(z, z)


def _sqrt_anchored(gamma, zeta) -> np.ndarray:
    """(gamma^2 + zeta)^(1/2), continued from Re gamma > 0."""
    g = np.asarray(gamma, dtype=complex)
    out = np.sqrt(_square(g) + zeta)
    out = np.where(out.real < 0, -out, out)
    t = g.imag
    zz = zeta - t * t
    axis_val = np.where(
        zz < 0, 1j * np.sign(t) * np.sqrt(np.abs(zz)), np.sqrt(np.maximum(zz, 0.0)) + 0j
    )
    return np.where(g.real == 0.0, axis_val, out)


def _gamma_from_lambda(sf: ShockFront, lam, eta) -> np.ndarray:
    c, d = np.sqrt(sf.kappa2_plus), np.sqrt(sf.kappa2_plus - sf.speed * sf.speed)
    return _complex(lam.real * c / d, (lam.imag * c + sf.speed * sf.h2_plus * eta / c) / d)


def _lambda_from_gamma(sf: ShockFront, gamma, eta) -> np.ndarray:
    c, d = np.sqrt(sf.kappa2_plus), np.sqrt(sf.kappa2_plus - sf.speed * sf.speed)
    return _complex(gamma.real * d / c, (gamma.imag * d - sf.speed * sf.h2_plus * eta / c) / c)


def _beta_from_gamma(sf: ShockFront, gamma, coeffs: FrequencyCoefficients) -> np.ndarray:
    s, k2 = sf.speed, sf.kappa2_plus
    root = _sqrt_anchored(gamma, coeffs.zeta)
    pref = s / np.sqrt(k2 * (k2 - s * s))
    shift = np.sqrt(k2 - s * s) / (s * np.sqrt(k2)) * sf.h2_plus * coeffs.eta
    return pref * (gamma + 1j * shift - np.sqrt(k2) / s * root)


def _v2_base(sf: ShockFront, gamma, coeffs: FrequencyCoefficients) -> np.ndarray:
    """gamma - (sqrt(kappa2+)/s)(gamma^2 + zeta)^(1/2) + i tau eta."""
    root = _sqrt_anchored(gamma, coeffs.zeta)
    return gamma - np.sqrt(sf.kappa2_plus) / sf.speed * root + 1j * (sf.tau * coeffs.eta)


def _require_negative_rho(sf: ShockFront, what: str):
    if not np.all(sf.rho < 0):  # every front of a stack
        raise RhoNotNegative(f"{what} requires rho < 0, got rho = {sf.rho}")


def freq_map_values(sf: ShockFront, lams, xi_t) -> np.ndarray:
    """Inject lambda into the gamma frequency where the root simplifies.

    gamma = (lambda sqrt(kappa2+) + i s h''(J+) eta / sqrt(kappa2+))
    / sqrt(kappa2+ - s^2); the map is a complex-affine bijection in
    lambda with Re gamma > 0 iff Re lambda > 0.
    """
    eta = freq_coeffs(sf, np.asarray(xi_t, dtype=float)).eta
    return _gamma_from_lambda(sf, np.asarray(lams, dtype=complex), eta)


def freq_unmap_values(sf: ShockFront, gammas, xi_t) -> np.ndarray:
    """lambda over gamma values (...): the exact inverse of freq_map_values."""
    eta = freq_coeffs(sf, np.asarray(xi_t, dtype=float)).eta
    return _lambda_from_gamma(sf, np.asarray(gammas, dtype=complex), eta)


def stable_beta_values(sf: ShockFront, lams, xi_t) -> np.ndarray:
    """The decaying normal-mode exponent: the root with Re beta < 0.

    Solves (kappa2+ - s^2) beta^2 - 2(lambda s + i h''(J+) eta) beta
    - (lambda^2 + omega) = 0, taking the branch that is continuous on
    Re lambda > 0 and equals -lambda / (sqrt(kappa2+) + s) at xi_t = 0.
    On the boundary Re lambda = 0 the closed form is the continuous
    extension.
    """
    lams = np.asarray(lams, dtype=complex)
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    return _beta_from_gamma(sf, _gamma_from_lambda(sf, lams, coeffs.eta), coeffs)


def beta_residual(sf: ShockFront, lams, xi_t, betas) -> np.ndarray:
    """Absolute residual of beta in its defining quadratic, over frequencies (...)."""
    lams, betas = np.asarray(lams, dtype=complex), np.asarray(betas, dtype=complex)
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    s, k2 = sf.speed, sf.kappa2_plus
    val = (
        _product((k2 - s * s) * betas, betas)
        - _product(2.0 * (lams * s + 1j * sf.h2_plus * coeffs.eta), betas)
        - (_square(lams) + coeffs.omega)
    )
    return np.hypot(val.real, val.imag)


def delta_v1_values(sf: ShockFront, lams, xi_t) -> np.ndarray:
    """Stability function over lambda, normalized by i/alpha.

    (kappa2+ - s^2) theta11 (beta - i eta/theta11)^2 + rho P.  The zero
    frequency (lambda = 0 with xi_t = 0), where the stability function is
    undefined, gives NaN.
    """
    lams = np.asarray(lams, dtype=complex)
    xi_t = np.asarray(xi_t, dtype=float)
    coeffs = freq_coeffs(sf, xi_t)
    beta = _beta_from_gamma(sf, _gamma_from_lambda(sf, lams, coeffs.eta), coeffs)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    vals = (k2 - s * s) * th11 * _square(beta - 1j * (coeffs.eta / th11)) + sf.rho * coeffs.P
    return np.where((lams == 0) & ~np.any(xi_t, axis=-1), complex(np.nan, np.nan), vals)


def delta_v2_values(sf: ShockFront, gammas, xi_t) -> np.ndarray:
    """Stability function over gamma, normalized to leading coefficient one.

    (gamma - (sqrt(kappa2+)/s)(gamma^2 + zeta)^(1/2) + i tau eta)^2
    + rho kappa2+ P / (s^2 theta11).  Relates to v1 by
    v1 = (s^2 theta11 / kappa2+) * v2 at the mapped frequency.
    """
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    base = _v2_base(sf, np.asarray(gammas, dtype=complex), coeffs)
    return _square(base) + _surface_term(sf, coeffs.P)


def delta_v3_values(sf: ShockFront, gammas, xi_t) -> np.ndarray:
    """The factor of v2 carrying all right-half-plane zeros (rho < 0 only).

    gamma - (sqrt(kappa2+)/s)(gamma^2 + zeta)^(1/2) + i tau eta
    + (sqrt(kappa2+)/s) sqrt(-rho P / theta11).
    """
    _require_negative_rho(sf, "delta_v3")
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    base = _v2_base(sf, np.asarray(gammas, dtype=complex), coeffs)
    return base + np.sqrt(sf.kappa2_plus) / sf.speed * np.sqrt(-sf.rho * coeffs.P / sf.theta11)


def v3_factors_values(sf: ShockFront, gammas, xi_t) -> tuple:
    """Both linear factors of v1/v2 in the rho < 0 factorization.

    Returns (f_minus, f_plus) with
    v1 = (kappa2+ - s^2) theta11 * f_minus * f_plus and
    delta_v3 = (sqrt(kappa2+ (kappa2+ - s^2)) / s) * f_plus; f_minus has
    strictly negative real part on Re gamma > 0, so it never vanishes.
    """
    _require_negative_rho(sf, "factorization")
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    beta = _beta_from_gamma(sf, np.asarray(gammas, dtype=complex), coeffs)
    delta = np.sqrt(-sf.rho * coeffs.P / (th11 * (k2 - s * s)))
    shift = 1j * (coeffs.eta / th11)
    return beta - delta - shift, beta + delta - shift


# ---------------------------------------------------------------------------
# imaginary-axis roots

def _imag_roots(sf, coeffs) -> tuple:
    """G, the imaginary-axis root t (NaN where none exists: rho <= 0 or G > 0) and the check
    that failed (0 for none; see _root_error), for frequency coefficients of unit
    transverse vectors that broadcast against the fields of a front or a stack.

    A zero gamma = i t of the stability function exists iff G <= 0 and rho > 0; it has
    t >= sqrt(zeta) and is unique, because the restriction to the axis is strictly
    decreasing in t.  The mirror zero at -t belongs to the flipped direction -xi_t."""
    bv = _criterion(sf, coeffs.eta, coeffs.P, coeffs.zeta)
    none = (sf.rho <= 0) | (bv > 0)
    # the root solves t = sqrt(zeta + u^2) = a + c u with c = sqrt(kappa2+)/s < -1; squared,
    # (c^2 - 1) u^2 + 2 a c u + a^2 - zeta = 0, whose other root has a + c u < 0, so u is
    # the smaller root: the one of larger size is q/qa with no cancellation in q, the other
    # qc/q by the product of the roots
    R = np.maximum(_surface_term(sf, coeffs.P), 0.0)
    a = np.sqrt(R) - sf.tau * coeffs.eta
    c = np.sqrt(sf.kappa2_plus) / sf.speed
    qa, qb, qc = c * c - 1.0, 2.0 * a * c, a * a - coeffs.zeta
    with np.errstate(all="ignore"):  # a degenerate row fails its check instead
        sq = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))  # >= 4 (c^2 - 1) zeta
        q = -0.5 * np.where(qb * sq >= 0.0, qb + sq, qb - sq)
        u = np.maximum(np.where(q == 0.0, 0.0, np.minimum(q / qa, qc / q)), 0.0)
        t = np.sqrt(coeffs.zeta + u * u)
        # delta_v2(i t) = R - (t - c u + tau eta)^2 is smooth in u, with an O(1)
        # slope at the root, so its value there is the residual of the root
        a_t = t - c * u + sf.tau * coeffs.eta
        a_sq = a_t * a_t
        # relative to the size of its terms, which grow with |alpha|
        off = ~(np.abs(R - a_sq) <= 1e-10 * np.maximum(1.0, np.maximum(R, a_sq)))
        quad = ~none & (bv != 0.0)
        failed = np.where(quad & degenerate_leading(qa, qb, qc), 1, np.where(quad & off, 2, 0))
    t = np.where(none, np.nan, np.where(bv == 0.0, np.sqrt(coeffs.zeta), t))
    return bv, t, failed


def _root_error(failed: int) -> Exception:
    """The typed error of a check that _imag_roots failed."""
    if failed == 1:
        return DegenerateQuadratic("leading coefficient of the imaginary-root quadratic too small")
    return VerificationError("imaginary-axis root refinement exceeded tolerance")


# ---------------------------------------------------------------------------
# argument-principle winding

MAX_PHASE_STEP = np.pi / 8.0  # a larger phase step between contour nodes is bisected
ZERO_TOL = 1e-12  # |f| below this share of max |f| counts as a zero on the contour
WINDING_NODES = 4096  # contour nodes before the first refinement round


def winding_number(f: Callable, R: float) -> int:
    """Winding of f around 0 along the D-shaped right-half-plane contour.

    The contour is the semicircle |w| = R, Re w >= 0, closed by the
    imaginary segment from iR to -iR, traversed counterclockwise.  f maps
    an array of contour points to an array of values; it is called once
    on the WINDING_NODES initial nodes and once per refinement round.  Phase
    increments are accumulated node to node; every step larger than
    MAX_PHASE_STEP is bisected in the next round.  Raises
    ContourThroughZero if |f| falls below ZERO_TOL * max|f| at any node.
    """

    def points(u: np.ndarray) -> np.ndarray:
        # u in [0, 1): first half semicircle (phi from -pi/2 to pi/2),
        # second half the segment iR -> -iR
        arc = R * np.exp(1j * (-0.5 * np.pi + 2.0 * u * np.pi))
        return np.where(u < 0.5, arc, 1j * (R * (1.0 - 4.0 * (u - 0.5))))

    u = np.linspace(0.0, 1.0, WINDING_NODES, endpoint=False)
    values = np.asarray(f(points(u)), dtype=complex)
    for _ in range(32):
        mags = np.abs(values)
        if mags.min() < ZERO_TOL * max(1.0, mags.max()):
            raise ContourThroughZero("contour value within zero tolerance")
        steps = np.angle(np.roll(values, -1) / values)
        bad = np.flatnonzero(np.abs(steps) > MAX_PHASE_STEP)
        if bad.size == 0:
            total = steps.sum()
            w = total / (2.0 * np.pi)
            if abs(w - round(w)) > 1e-2:
                raise ContourThroughZero(
                    f"accumulated phase {total!r} is not close to a multiple of 2*pi"
                )
            return int(round(w))
        if u.size > 1 << 20:
            raise ContourThroughZero("refinement exceeded node budget")
        lo, hi = u[bad], np.append(u[1:], 1.0)[bad]
        mid = 0.5 * (lo + hi)
        new = (mid > lo) & (mid < hi)  # adjacent floats leave no midpoint
        bad, mid = bad[new], mid[new]
        if mid.size:
            u = np.insert(u, bad + 1, mid)
            values = np.insert(values, bad + 1, np.asarray(f(points(mid)), dtype=complex))
    raise ContourThroughZero("phase refinement did not converge")


def winding(sf: ShockFront, xi_t, R: float) -> int:
    """Zeros of delta_v3 with Re gamma > 0 inside radius R, by argument.

    Defined for rho < 0.  As a structural cross-check, the origin must
    lie strictly inside the ellipse traced by the image of the short
    imaginary segment, i.e. -rho P / theta11 + (tau eta)^2 < zeta; a
    violation would contradict the factorization and raises
    VerificationError.  The expected count is zero for every admissible
    front.
    """
    _require_negative_rho(sf, "winding")
    xi_t = np.atleast_1d(np.asarray(xi_t, dtype=float))
    coeffs = freq_coeffs(sf, xi_t)
    te = sf.tau * coeffs.eta
    if not (-sf.rho * coeffs.P / sf.theta11 + te * te < coeffs.zeta):
        raise VerificationError(
            "origin not strictly inside the boundary ellipse; factorization violated"
        )
    return winding_number(lambda w: delta_v3_values(sf, w, xi_t), R)
