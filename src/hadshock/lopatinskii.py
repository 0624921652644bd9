"""Stability function of a Lax front and its root-location tools.

The normal-mode analysis of a front reduces to a scalar complex
function of the spatio-temporal frequency (lambda, xi_t).  Three
algebraically equivalent expressions are provided:

* ``delta_v1``   - quadratic in the stable root beta, in the original
  frequency lambda (completed-square form);
* ``delta_v2``   - in the remapped frequency gamma, where the square
  root (gamma^2 + zeta)^(1/2) carries all branch information;
* ``delta_v3``   - one linear factor of v2, defined when the stability
  parameter rho is negative; its zeros are exactly the zeros of v2 with
  positive real part.

Each of them, the stable root and the lambda <-> gamma map is written
once, as an array kernel over frequencies (...) and transverse vectors
that are one vector or a stack (..., k) broadcasting against them: the
``*_values`` functions.  The scalar entry points evaluate a batch of one
and unwrap it, so a scalar equals the matching element of any array call
bit for bit.  The kernel rounds the same at every array size because it
uses real arithmetic, complex sums, real multiples and numpy's complex
square root only; complex squares go through ``_square``, which rounds
as Python's complex product does.

Branch convention: the square root of gamma^2 + zeta is the principal
branch for Re gamma != 0 (the argument never meets the negative real
axis there, so this is the analytic continuation anchored at xi_t = 0
where it reduces to gamma itself); on the imaginary axis gamma = i*t it
is the limit from Re gamma > 0, i.e. i*sgn(t)*sqrt(t^2 - zeta) once
t^2 exceeds zeta.

``imag_scan`` locates purely imaginary zeros (surface waves) and
``winding`` counts zeros with positive real part by the argument
principle along a D-shaped contour.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContourThroughZero, RhoNotNegative, VerificationError
from .linalg import quad_roots
from .shock import FrequencyCoefficients, ShockFront, _criterion, _surface_term, freq_coeffs

__all__ = [
    "FrequencyPoint",
    "TransformedFrequency",
    "ImagScanResult",
    "stable_beta",
    "stable_beta_values",
    "freq_map",
    "freq_map_values",
    "freq_unmap",
    "freq_unmap_values",
    "delta_v1",
    "delta_v1_values",
    "delta_v2",
    "delta_v2_values",
    "delta_v3",
    "delta_v3_values",
    "v3_factors",
    "v3_factors_values",
    "imag_scan",
    "winding",
    "winding_number",
]


@dataclass
class FrequencyPoint:
    """Temporal frequency lambda (Re >= 0) and transverse wave vector."""

    lam: complex
    xi_t: np.ndarray

    def __post_init__(self):
        self.lam = complex(self.lam)
        self.xi_t = np.atleast_1d(np.asarray(self.xi_t, dtype=float))
        if self.lam == 0 and not np.any(self.xi_t):
            raise ValueError("lambda and xi_t cannot both vanish")

    @classmethod
    def normalized(cls, lam, xi_t):
        """Scale (lambda, xi_t) onto the unit hemisphere |lam|^2 + |xi|^2 = 1."""
        lam = complex(lam)
        xi_t = np.atleast_1d(np.asarray(xi_t, dtype=float))
        norm = np.sqrt(abs(lam) ** 2 + float(xi_t @ xi_t))
        if norm == 0:
            raise ValueError("cannot normalize the zero frequency")
        return cls(lam / norm, xi_t / norm)


@dataclass
class TransformedFrequency:
    """Remapped temporal frequency gamma and the same transverse vector."""

    gamma: complex
    xi_t: np.ndarray

    def __post_init__(self):
        self.gamma = complex(self.gamma)
        self.xi_t = np.atleast_1d(np.asarray(self.xi_t, dtype=float))


@dataclass
class ImagScanResult:
    roots: list
    boundary_value: float
    lambda_plus_beta_s: list


# ---------------------------------------------------------------------------
# the array kernel

def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _square(z) -> np.ndarray:
    """z**2 formed as (re^2 - im^2) + i (re im + im re), as Python does."""
    re, im = np.real(z), np.imag(z)
    return _complex(re * re - im * im, re * im + im * re)


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
    if not (sf.rho < 0):
        raise RhoNotNegative(f"{what} requires rho < 0, got rho = {sf.rho}")


def _batch_of_one(values, sf: ShockFront, z: complex, xi_t: np.ndarray):
    """A scalar entry point: the array kernel on a batch of one frequency."""
    return values(sf, np.array([z], dtype=complex), xi_t[None, :])


def freq_map_values(sf: ShockFront, lams, xi_t) -> np.ndarray:
    """gamma over lambda values (...) and transverse vectors xi_t."""
    eta = freq_coeffs(sf, np.asarray(xi_t, dtype=float)).eta
    return _gamma_from_lambda(sf, np.asarray(lams, dtype=complex), eta)


def freq_unmap_values(sf: ShockFront, gammas, xi_t) -> np.ndarray:
    """lambda over gamma values (...): the exact inverse of freq_map_values."""
    eta = freq_coeffs(sf, np.asarray(xi_t, dtype=float)).eta
    return _lambda_from_gamma(sf, np.asarray(gammas, dtype=complex), eta)


def stable_beta_values(sf: ShockFront, lams, xi_t) -> np.ndarray:
    """The stable root over lambda values (...) and transverse vectors xi_t."""
    lams = np.asarray(lams, dtype=complex)
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    return _beta_from_gamma(sf, _gamma_from_lambda(sf, lams, coeffs.eta), coeffs)


def delta_v1_values(sf: ShockFront, lams, xi_t) -> np.ndarray:
    """delta_v1 over lambda values (...) and transverse vectors xi_t.

    The zero frequency (lambda = 0 with xi_t = 0), where the stability
    function is undefined, gives NaN.
    """
    lams = np.asarray(lams, dtype=complex)
    xi_t = np.asarray(xi_t, dtype=float)
    coeffs = freq_coeffs(sf, xi_t)
    beta = _beta_from_gamma(sf, _gamma_from_lambda(sf, lams, coeffs.eta), coeffs)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    vals = (k2 - s * s) * th11 * _square(beta - 1j * (coeffs.eta / th11)) + sf.rho * coeffs.P
    return np.where((lams == 0) & ~np.any(xi_t, axis=-1), complex(np.nan, np.nan), vals)


def delta_v2_values(sf: ShockFront, gammas, xi_t) -> np.ndarray:
    """delta_v2 over gamma values (...) and transverse vectors xi_t."""
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    base = _v2_base(sf, np.asarray(gammas, dtype=complex), coeffs)
    return _square(base) + _surface_term(sf, coeffs.P)


def delta_v3_values(sf: ShockFront, gammas, xi_t) -> np.ndarray:
    """delta_v3 over gamma values (...) and transverse vectors xi_t (rho < 0 only)."""
    _require_negative_rho(sf, "delta_v3")
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    base = _v2_base(sf, np.asarray(gammas, dtype=complex), coeffs)
    return base + np.sqrt(sf.kappa2_plus) / sf.speed * np.sqrt(-sf.rho * coeffs.P / sf.theta11)


def v3_factors_values(sf: ShockFront, gammas, xi_t) -> tuple:
    """(f_minus, f_plus) over gamma values (...) and transverse vectors xi_t (rho < 0 only)."""
    _require_negative_rho(sf, "factorization")
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    beta = _beta_from_gamma(sf, np.asarray(gammas, dtype=complex), coeffs)
    delta = np.sqrt(-sf.rho * coeffs.P / (th11 * (k2 - s * s)))
    shift = 1j * (coeffs.eta / th11)
    return beta - delta - shift, beta + delta - shift


# ---------------------------------------------------------------------------
# scalar entry points

def freq_map(sf: ShockFront, fp: FrequencyPoint) -> TransformedFrequency:
    """Inject lambda into the gamma frequency where the root simplifies.

    gamma = (lambda sqrt(kappa2+) + i s h''(J+) eta / sqrt(kappa2+))
    / sqrt(kappa2+ - s^2); the map is a complex-affine bijection in
    lambda with Re gamma > 0 iff Re lambda > 0.
    """
    gamma = _batch_of_one(freq_map_values, sf, fp.lam, fp.xi_t)[0]
    return TransformedFrequency(complex(gamma), fp.xi_t)


def freq_unmap(sf: ShockFront, tf: TransformedFrequency) -> FrequencyPoint:
    """Exact inverse of freq_map."""
    lam = _batch_of_one(freq_unmap_values, sf, tf.gamma, tf.xi_t)[0]
    return FrequencyPoint(complex(lam), tf.xi_t)


def stable_beta(sf: ShockFront, fp: FrequencyPoint) -> complex:
    """The decaying normal-mode exponent: the root with Re beta < 0.

    Solves (kappa2+ - s^2) beta^2 - 2(lambda s + i h''(J+) eta) beta
    - (lambda^2 + omega) = 0, taking the branch that is continuous on
    Re lambda > 0 and equals -lambda / (sqrt(kappa2+) + s) at xi_t = 0.
    On the boundary Re lambda = 0 the closed form is the continuous
    extension.
    """
    return complex(_batch_of_one(stable_beta_values, sf, fp.lam, fp.xi_t)[0])


def beta_residual(sf: ShockFront, fp: FrequencyPoint, beta: complex) -> float:
    """Absolute residual of beta in its defining quadratic."""
    coeffs = freq_coeffs(sf, fp.xi_t)
    s, k2 = sf.speed, sf.kappa2_plus
    lam = fp.lam
    val = (
        (k2 - s * s) * beta * beta
        - 2.0 * (lam * s + 1j * sf.h2_plus * coeffs.eta) * beta
        - (lam * lam + coeffs.omega)
    )
    return abs(val)


def delta_v1(sf: ShockFront, fp: FrequencyPoint) -> complex:
    """Stability function over lambda, normalized by i/alpha.

    (kappa2+ - s^2) theta11 (beta - i eta/theta11)^2 + rho P.
    """
    return complex(_batch_of_one(delta_v1_values, sf, fp.lam, fp.xi_t)[0])


def delta_v2(sf: ShockFront, tf: TransformedFrequency) -> complex:
    """Stability function over gamma, normalized to leading coefficient one.

    (gamma - (sqrt(kappa2+)/s)(gamma^2 + zeta)^(1/2) + i tau eta)^2
    + rho kappa2+ P / (s^2 theta11).  Relates to v1 by
    v1 = (s^2 theta11 / kappa2+) * v2 at the mapped frequency.
    """
    return complex(_batch_of_one(delta_v2_values, sf, tf.gamma, tf.xi_t)[0])


def delta_v3(sf: ShockFront, tf: TransformedFrequency) -> complex:
    """The factor of v2 carrying all right-half-plane zeros (rho < 0 only).

    gamma - (sqrt(kappa2+)/s)(gamma^2 + zeta)^(1/2) + i tau eta
    + (sqrt(kappa2+)/s) sqrt(-rho P / theta11).
    """
    return complex(_batch_of_one(delta_v3_values, sf, tf.gamma, tf.xi_t)[0])


def v3_factors(sf: ShockFront, tf: TransformedFrequency):
    """Both linear factors of v1/v2 in the rho < 0 factorization.

    Returns (f_minus, f_plus) with
    v1 = (kappa2+ - s^2) theta11 * f_minus * f_plus and
    delta_v3 = (sqrt(kappa2+ (kappa2+ - s^2)) / s) * f_plus; f_minus has
    strictly negative real part on Re gamma > 0, so it never vanishes.
    """
    f_minus, f_plus = _batch_of_one(v3_factors_values, sf, tf.gamma, tf.xi_t)
    return complex(f_minus[0]), complex(f_plus[0])


# ---------------------------------------------------------------------------
# imaginary-axis roots

def imag_scan(sf: ShockFront, xi_t) -> ImagScanResult:
    """Locate purely imaginary zeros of the stability function.

    For a unit transverse vector, a zero gamma = i t with t >=
    sqrt(zeta) exists iff boundary_value = G(xi_t), the classifier
    criterion (sqrt(zeta) + tau*eta)^2 - rho kappa2+ P/(s^2 theta11),
    is <= 0 (and rho > 0); it is then unique because the restriction is
    strictly decreasing in t.  No zeros exist with |t| < sqrt(zeta).
    The mirror zero at negative t belongs to the flipped frequency
    -xi_t.  For every root the distance |lambda + beta*s| is reported; a
    root with lambda = -beta*s would be an artifact of dropping the curl
    constraint and is never produced by the stable branch.
    """
    xi_t = np.atleast_1d(np.asarray(xi_t, dtype=float))
    if abs(float(xi_t @ xi_t) - 1.0) > 1e-9:
        raise ValueError("imag_scan expects a unit transverse vector")
    coeffs = freq_coeffs(sf, xi_t)
    bv = float(_criterion(sf, coeffs.eta, coeffs.P, coeffs.zeta))
    result = ImagScanResult(roots=[], boundary_value=bv, lambda_plus_beta_s=[])
    if sf.rho <= 0 or bv > 0:
        return result

    if bv == 0.0:
        t_star = float(np.sqrt(coeffs.zeta))
    else:
        # the root solves t = sqrt(zeta + u^2) = a + c u with c = sqrt(kappa2+)/s
        # < -1; squared, (c^2 - 1) u^2 + 2 a c u + a^2 - zeta = 0, whose other
        # root has a + c u < 0
        R = max(_surface_term(sf, coeffs.P), 0.0)
        a = float(np.sqrt(R)) - sf.tau * coeffs.eta
        c = float(np.sqrt(sf.kappa2_plus)) / sf.speed
        roots = [r.real for r in quad_roots(c * c - 1.0, 2.0 * a * c, a * a - coeffs.zeta)]
        u_star = max(max(roots, key=lambda u: a + c * u), 0.0)
        t_star = float(np.sqrt(coeffs.zeta + u_star * u_star))
        # delta_v2(i t) = R - (t - c u + tau eta)^2 is smooth in u, with an O(1)
        # slope at the root, so its value there is the residual of the root
        a_t = t_star - c * u_star + sf.tau * coeffs.eta
        if abs(R - a_t * a_t) > 1e-10:
            raise VerificationError("imaginary-axis root refinement exceeded tolerance")
    result.roots.append(t_star)

    gamma = np.array([1j * t_star])
    lam = _lambda_from_gamma(sf, gamma, coeffs.eta)
    beta = _beta_from_gamma(sf, gamma, coeffs)
    result.lambda_plus_beta_s.append(float(np.abs(lam + beta * sf.speed)[0]))
    return result


# ---------------------------------------------------------------------------
# argument-principle winding

def winding_number(
    f: Callable,
    R: float,
    initial_nodes: int = 4096,
    max_phase_step: float = np.pi / 8.0,
    zero_tol: float = 1e-12,
) -> int:
    """Winding of f around 0 along the D-shaped right-half-plane contour.

    The contour is the semicircle |w| = R, Re w >= 0, closed by the
    imaginary segment from iR to -iR, traversed counterclockwise.  f maps
    an array of contour points to an array of values; it is called once
    on the initial nodes and once per refinement round.  Phase
    increments are accumulated node to node; every step larger than
    ``max_phase_step`` is bisected in the next round.  Raises
    ContourThroughZero if |f| falls below zero_tol * max|f| at any node.
    """

    def points(u: np.ndarray) -> np.ndarray:
        # u in [0, 1): first half semicircle (phi from -pi/2 to pi/2),
        # second half the segment iR -> -iR
        arc = R * np.exp(1j * (-0.5 * np.pi + 2.0 * u * np.pi))
        return np.where(u < 0.5, arc, 1j * (R * (1.0 - 4.0 * (u - 0.5))))

    u = np.linspace(0.0, 1.0, max(16, initial_nodes), endpoint=False)
    values = np.asarray(f(points(u)), dtype=complex)
    for _ in range(32):
        mags = np.abs(values)
        if mags.min() < zero_tol * max(1.0, mags.max()):
            raise ContourThroughZero("contour value within zero tolerance")
        steps = np.angle(np.roll(values, -1) / values)
        bad = np.flatnonzero(np.abs(steps) > max_phase_step)
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
