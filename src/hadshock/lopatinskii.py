"""Stability function of a Lax front and its root-location tools.

The normal-mode analysis of a front reduces to a scalar complex
function of the spatio-temporal frequency (lambda, xi_t).  Three
algebraically equivalent expressions are provided:

* ``delta_v1``   - quadratic in the stable root beta, in the original
  frequency lambda (raw double-sum form and completed-square form);
* ``delta_v2``   - in the remapped frequency gamma, where the square
  root (gamma^2 + zeta)^(1/2) carries all branch information;
* ``delta_v3``   - one linear factor of v2, defined when the stability
  parameter rho is negative; its zeros are exactly the zeros of v2 with
  positive real part.

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
from typing import Callable, Optional

import numpy as np

from .errors import ContourThroughZero, RhoNotNegative, VerificationError
from .linalg import quad_roots
from .shock import FrequencyCoefficients, ShockFront, freq_coeffs

__all__ = [
    "FrequencyPoint",
    "TransformedFrequency",
    "LopatinskiiValue",
    "ImagScanResult",
    "stable_beta",
    "freq_map",
    "freq_unmap",
    "delta_v1",
    "delta_v1_values",
    "delta_v2",
    "delta_v2_values",
    "delta_v3",
    "v3_factors",
    "evaluate",
    "imag_scan",
    "winding",
    "winding_number",
]

BOUNDARY_OFFSET = 1e-8


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

    @property
    def is_normalized(self) -> bool:
        return abs(abs(self.lam) ** 2 + float(self.xi_t @ self.xi_t) - 1.0) <= 1e-12


@dataclass
class TransformedFrequency:
    """Remapped temporal frequency gamma and the same transverse vector."""

    gamma: complex
    xi_t: np.ndarray

    def __post_init__(self):
        self.gamma = complex(self.gamma)
        self.xi_t = np.atleast_1d(np.asarray(self.xi_t, dtype=float))


@dataclass
class LopatinskiiValue:
    beta: complex
    delta_v1: complex
    delta_v2: complex
    delta_v3: Optional[complex]
    residual_beta: float


@dataclass
class ImagScanResult:
    roots: list
    boundary_value: float
    lambda_plus_beta_s: list


# ---------------------------------------------------------------------------
# branch-anchored square root and the stable root

def _sqrt_anchored(gamma, zeta: float):
    """(gamma^2 + zeta)^(1/2), continued from Re gamma > 0; vectorized."""
    g = np.asarray(gamma, dtype=complex)
    z = g * g + zeta
    out = np.sqrt(z)
    out = np.where(out.real < 0, -out, out)
    on_axis = g.real == 0.0
    if np.any(on_axis):
        t = g.imag
        zz = zeta - t * t
        neg = on_axis & (zz < 0)
        axis_val = np.where(
            neg, 1j * np.sign(t) * np.sqrt(np.abs(zz)), np.sqrt(np.maximum(zz, 0.0)) + 0j
        )
        out = np.where(on_axis, axis_val, out)
    if np.isscalar(gamma) or np.ndim(gamma) == 0:
        return complex(out)
    return out


def _beta_from_gamma(sf: ShockFront, gamma, coeffs: FrequencyCoefficients):
    s, k2 = sf.speed, sf.kappa2_plus
    root = _sqrt_anchored(gamma, coeffs.zeta)
    pref = s / np.sqrt(k2 * (k2 - s * s))
    shift = 1j * np.sqrt(k2 - s * s) / (s * np.sqrt(k2)) * sf.h2_plus * coeffs.eta
    return pref * (gamma + shift - np.sqrt(k2) / s * root)


# numpy's vectorised complex arithmetic rounds differently from Python's
# complex type: its product fuses multiply-adds and its quotient multiplies
# by a rounded reciprocal.  The lambda map and delta_v1 square and divide
# through the helpers below, which round as Python does, so delta_v1 and
# delta_v1_values agree bit for bit.  delta_v2_values keeps numpy's product,
# as the gamma grids always have; it can differ from the scalar delta_v2 in
# the last bits.

def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _square(z) -> np.ndarray:
    """z**2 formed as (re^2 - im^2) + i (re im + im re), as Python does."""
    re, im = np.real(z), np.imag(z)
    return _complex(re * re - im * im, re * im + im * re)


def _gamma_from_lambda(sf: ShockFront, lam, eta) -> np.ndarray:
    k2, s = sf.kappa2_plus, sf.speed
    num = lam * np.sqrt(k2) + 1j * s * sf.h2_plus * eta / np.sqrt(k2)
    d = np.sqrt(k2 - s * s)
    return _complex(np.real(num) / d, np.imag(num) / d)


def freq_map(sf: ShockFront, fp: FrequencyPoint) -> TransformedFrequency:
    """Inject lambda into the gamma frequency where the root simplifies.

    gamma = (lambda sqrt(kappa2+) + i s h''(J+) eta / sqrt(kappa2+))
    / sqrt(kappa2+ - s^2); the map is a complex-affine bijection in
    lambda with Re gamma > 0 iff Re lambda > 0.
    """
    coeffs = freq_coeffs(sf, fp.xi_t)
    return TransformedFrequency(complex(_gamma_from_lambda(sf, fp.lam, coeffs.eta)), fp.xi_t)


def freq_unmap(sf: ShockFront, tf: TransformedFrequency) -> FrequencyPoint:
    """Exact inverse of freq_map."""
    coeffs = freq_coeffs(sf, tf.xi_t)
    k2, s = sf.kappa2_plus, sf.speed
    lam = (tf.gamma * np.sqrt(k2 - s * s) - 1j * s * sf.h2_plus * coeffs.eta / np.sqrt(k2)) / np.sqrt(
        k2
    )
    return FrequencyPoint(lam, tf.xi_t)


def stable_beta(sf: ShockFront, fp: FrequencyPoint, boundary: str = "closed") -> complex:
    """The decaying normal-mode exponent: the root with Re beta < 0.

    Solves (kappa2+ - s^2) beta^2 - 2(lambda s + i h''(J+) eta) beta
    - (lambda^2 + omega) = 0, taking the branch that is continuous on
    Re lambda > 0 and equals -lambda / (sqrt(kappa2+) + s) at xi_t = 0.
    On the boundary Re lambda = 0 the closed form is the continuous
    extension; ``boundary='offset'`` instead evaluates at
    lambda + 1e-8 as a cross-check.
    """
    if boundary == "offset" and fp.lam.real == 0.0:
        fp = FrequencyPoint(fp.lam + BOUNDARY_OFFSET, fp.xi_t)
    coeffs = freq_coeffs(sf, fp.xi_t)
    tf = freq_map(sf, fp)
    return complex(_beta_from_gamma(sf, tf.gamma, coeffs))


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


# ---------------------------------------------------------------------------
# the three determinant forms

def delta_v1(sf: ShockFront, fp: FrequencyPoint, form: str = "completed") -> complex:
    """Stability function over lambda, normalized by i/alpha.

    ``form='completed'`` evaluates
    (kappa2+ - s^2) theta11 (beta - i eta/theta11)^2 + rho P, and
    ``form='raw'`` the equivalent double sum over transverse indices;
    the two agree to roundoff.
    """
    coeffs = freq_coeffs(sf, fp.xi_t)
    beta = stable_beta(sf, fp)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    if form == "completed":
        return complex(_delta_v1_from_parts(sf, beta, coeffs))
    if form == "raw":
        xi = fp.xi_t
        ssum = (k2 - s * s) * coeffs.Nsq + sf.alpha * (s * s - sf.material.mu) / sf.Jplus * float(
            xi @ sf.Theta[1:, 1:] @ xi
        )
        return (k2 - s * s) * th11 * beta * beta - 2j * beta * (k2 - s * s) * coeffs.eta - ssum
    raise ValueError(f"unknown form {form!r}")


def _delta_v1_from_parts(sf, beta, coeffs):
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    return (k2 - s * s) * th11 * _square(beta - 1j * coeffs.eta / th11) + sf.rho * coeffs.P


def delta_v1_values(sf: ShockFront, lams, xi_t) -> np.ndarray:
    """Vectorized completed-form delta_v1 over lambda values (...).

    xi_t is one transverse vector or a stack (..., k) that broadcasts
    against lams.  The zero frequency (lambda = 0 with xi_t = 0), where
    the stability function is undefined, gives NaN.
    """
    lams = np.asarray(lams, dtype=complex)
    xi_t = np.asarray(xi_t, dtype=float)
    coeffs = freq_coeffs(sf, xi_t)
    beta = _beta_from_gamma(sf, _gamma_from_lambda(sf, lams, coeffs.eta), coeffs)
    vals = np.asarray(_delta_v1_from_parts(sf, beta, coeffs))
    return np.where((lams == 0) & ~np.any(xi_t, axis=-1), complex(np.nan, np.nan), vals)


def _delta_v2_from_parts(sf, gamma, coeffs):
    s, k2, th11 = sf.speed, sf.kappa2_plus, sf.theta11
    root = _sqrt_anchored(gamma, coeffs.zeta)
    base = gamma - np.sqrt(k2) / s * root + 1j * sf.tau * coeffs.eta
    return base * base + sf.rho * k2 * coeffs.P / (s * s * th11)


def delta_v2(sf: ShockFront, tf: TransformedFrequency) -> complex:
    """Stability function over gamma, normalized to leading coefficient one.

    (gamma - (sqrt(kappa2+)/s)(gamma^2 + zeta)^(1/2) + i tau eta)^2
    + rho kappa2+ P / (s^2 theta11).  Relates to v1 by
    v1 = (s^2 theta11 / kappa2+) * v2 at the mapped frequency.
    """
    coeffs = freq_coeffs(sf, tf.xi_t)
    return complex(_delta_v2_from_parts(sf, tf.gamma, coeffs))


def delta_v2_values(sf: ShockFront, gammas, xi_t) -> np.ndarray:
    """Vectorized delta_v2 over gamma values (...).

    xi_t is one transverse vector or a stack (..., k) that broadcasts
    against gammas.
    """
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    return np.asarray(_delta_v2_from_parts(sf, np.asarray(gammas, dtype=complex), coeffs))


def delta_v3(sf: ShockFront, tf: TransformedFrequency) -> complex:
    """The factor of v2 carrying all right-half-plane zeros (rho < 0 only).

    gamma - (sqrt(kappa2+)/s)(gamma^2 + zeta)^(1/2) + i tau eta
    + (sqrt(kappa2+)/s) sqrt(-rho P / theta11).
    """
    if not (sf.rho < 0):
        raise RhoNotNegative(f"delta_v3 requires rho < 0, got rho = {sf.rho}")
    coeffs = freq_coeffs(sf, tf.xi_t)
    s, k2, th11 = sf.speed, sf.kappa2_plus, sf.theta11
    root = _sqrt_anchored(tf.gamma, coeffs.zeta)
    return complex(
        tf.gamma
        - np.sqrt(k2) / s * root
        + 1j * sf.tau * coeffs.eta
        + np.sqrt(k2) / s * np.sqrt(-sf.rho * coeffs.P / th11)
    )


def v3_factors(sf: ShockFront, tf: TransformedFrequency):
    """Both linear factors of v1/v2 in the rho < 0 factorization.

    Returns (f_minus, f_plus) with
    v1 = (kappa2+ - s^2) theta11 * f_minus * f_plus and
    delta_v3 = (sqrt(kappa2+ (kappa2+ - s^2)) / s) * f_plus; f_minus has
    strictly negative real part on Re gamma > 0, so it never vanishes.
    """
    if not (sf.rho < 0):
        raise RhoNotNegative(f"factorization requires rho < 0, got rho = {sf.rho}")
    coeffs = freq_coeffs(sf, tf.xi_t)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    beta = _beta_from_gamma(sf, tf.gamma, coeffs)
    delta = np.sqrt(-sf.rho * coeffs.P / (th11 * (k2 - s * s)))
    f_minus = beta - delta - 1j * coeffs.eta / th11
    f_plus = beta + delta - 1j * coeffs.eta / th11
    return complex(f_minus), complex(f_plus)


def evaluate(sf: ShockFront, fp: FrequencyPoint) -> LopatinskiiValue:
    """Bundle the stable root, all determinant versions and the root residual."""
    beta = stable_beta(sf, fp)
    tf = freq_map(sf, fp)
    v3 = delta_v3(sf, tf) if sf.rho < 0 else None
    return LopatinskiiValue(
        beta=beta,
        delta_v1=delta_v1(sf, fp),
        delta_v2=delta_v2(sf, tf),
        delta_v3=v3,
        residual_beta=beta_residual(sf, fp, beta),
    )


# ---------------------------------------------------------------------------
# imaginary-axis roots

def _imag_axis_Z(sf: ShockFront, coeffs: FrequencyCoefficients, u: float) -> float:
    """Real value of delta_v2 at gamma = i t, in the variable u = sqrt(t^2 - zeta) >= 0.

    In t the restriction has square-root sensitivity at the branch
    point t = sqrt(zeta); in u it is smooth with an O(1) slope at the
    root, so it measures the residual of the closed-form root.
    """
    s, k2, th11 = sf.speed, sf.kappa2_plus, sf.theta11
    t = np.sqrt(coeffs.zeta + u * u)
    return float(
        -((t - np.sqrt(k2) / s * u + sf.tau * coeffs.eta) ** 2)
        + sf.rho * k2 * coeffs.P / (s * s * th11)
    )


def imag_scan(sf: ShockFront, xi_t) -> ImagScanResult:
    """Locate purely imaginary zeros of the stability function.

    For a unit transverse vector, a zero gamma = i t with t >=
    sqrt(zeta) exists iff boundary_value = (sqrt(zeta) + tau*eta)^2
    - rho kappa2+ P/(s^2 theta11) <= 0 (and rho > 0); it is then unique
    because the restriction is strictly decreasing in t.  No zeros exist
    with |t| < sqrt(zeta).  The mirror zero at negative t belongs to the
    flipped frequency -xi_t.  For every root the distance |lambda +
    beta*s| is reported; a root with lambda = -beta*s would be an
    artifact of dropping the curl constraint and is never produced by
    the stable branch.
    """
    xi_t = np.atleast_1d(np.asarray(xi_t, dtype=float))
    if abs(float(xi_t @ xi_t) - 1.0) > 1e-9:
        raise ValueError("imag_scan expects a unit transverse vector")
    coeffs = freq_coeffs(sf, xi_t)
    sz = np.sqrt(coeffs.zeta)
    bv = (sz + sf.tau * coeffs.eta) ** 2 - sf.rho * sf.kappa2_plus * coeffs.P / (
        sf.speed**2 * sf.theta11
    )
    result = ImagScanResult(roots=[], boundary_value=float(bv), lambda_plus_beta_s=[])
    if sf.rho <= 0 or bv > 0:
        return result

    if bv == 0.0:
        t_star = float(sz)
    else:
        # the root solves t = sqrt(zeta + u^2) = a + c u with c = sqrt(kappa2+)/s
        # < -1; squared, (c^2 - 1) u^2 + 2 a c u + a^2 - zeta = 0, whose other
        # root has a + c u < 0
        k2, s = sf.kappa2_plus, sf.speed
        R = max(sf.rho * k2 * coeffs.P / (s * s * sf.theta11), 0.0)
        a = float(np.sqrt(R)) - sf.tau * coeffs.eta
        c = float(np.sqrt(k2)) / s
        roots = [r.real for r in quad_roots(c * c - 1.0, 2.0 * a * c, a * a - coeffs.zeta)]
        u_star = max(max(roots, key=lambda u: a + c * u), 0.0)
        if abs(_imag_axis_Z(sf, coeffs, u_star)) > 1e-10:
            raise VerificationError("imaginary-axis root refinement exceeded tolerance")
        t_star = float(np.sqrt(coeffs.zeta + u_star * u_star))
    result.roots.append(t_star)

    tf = TransformedFrequency(1j * t_star, xi_t)
    fp = freq_unmap(sf, tf)
    beta = complex(_beta_from_gamma(sf, tf.gamma, coeffs))
    result.lambda_plus_beta_s.append(abs(fp.lam + beta * sf.speed))
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
    imaginary segment from iR to -iR, traversed counterclockwise.
    Phase increments are accumulated node to node; any step larger than
    ``max_phase_step`` triggers local bisection of the parameter
    interval.  Raises ContourThroughZero if |f| falls below
    zero_tol * max|f| at any node.
    """

    def point(u: float) -> complex:
        # u in [0, 1): first half semicircle (phi from -pi/2 to pi/2),
        # second half the segment iR -> -iR
        if u < 0.5:
            phi = -0.5 * np.pi + 2.0 * u * np.pi
            return R * np.exp(1j * phi)
        y = R * (1.0 - 4.0 * (u - 0.5))
        return 1j * y

    n0 = max(16, initial_nodes)
    params = list(np.linspace(0.0, 1.0, n0, endpoint=False))
    cache = {u: f(point(u)) for u in params}

    for _ in range(32):
        values = [cache[u] for u in params]
        scale = max(1.0, max(abs(v) for v in values))
        if min(abs(v) for v in values) < zero_tol * scale:
            raise ContourThroughZero("contour value within zero tolerance")
        steps = []
        n = len(params)
        for k in range(n):
            v0, v1 = values[k], values[(k + 1) % n]
            steps.append(np.angle(v1 / v0))
        bad = [k for k, s in enumerate(steps) if abs(s) > max_phase_step]
        if not bad:
            total = sum(steps)
            w = total / (2.0 * np.pi)
            if abs(w - round(w)) > 1e-2:
                raise ContourThroughZero(
                    f"accumulated phase {total!r} is not close to a multiple of 2*pi"
                )
            return int(round(w))
        if len(params) > 1 << 20:
            raise ContourThroughZero("refinement exceeded node budget")
        for k in bad:
            u0 = params[k]
            u1 = params[(k + 1) % len(params)] if k < len(params) - 1 else 1.0
            mid = 0.5 * (u0 + u1)
            if mid not in cache:
                cache[mid] = f(point(mid))
        params = sorted(cache)
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
    if not (sf.rho < 0):
        raise RhoNotNegative(f"winding requires rho < 0, got rho = {sf.rho}")
    xi_t = np.atleast_1d(np.asarray(xi_t, dtype=float))
    coeffs = freq_coeffs(sf, xi_t)
    inside = -sf.rho * coeffs.P / sf.theta11 + (sf.tau * coeffs.eta) ** 2
    if not (inside < coeffs.zeta):
        raise VerificationError(
            "origin not strictly inside the boundary ellipse; factorization violated"
        )
    return winding_number(lambda w: delta_v3(sf, TransformedFrequency(w, xi_t)), R)
