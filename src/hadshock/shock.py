"""Construction and geometry of Lax shock fronts.

A front is parametrized by a base state (U+, v+) and a scalar intensity
``alpha``: the end state differs only in the first column of the
deformation gradient,

    U- = U+ - alpha (V1 x e1),      V = Cof U+,

the speed is the negative root of s^2 = mu + (h'(J+) - h'(J-))/alpha,
and v- = v+ + s alpha V1.  Besides the states, a ShockFront caches all
the scalar/tensor geometry the stability analysis consumes: the Gram
matrix theta of the cofactor columns, its 2x2-minor matrix Theta, the
cofactor-jump matrix M, the transverse sound speeds kappa2 on both
sides, the stability parameter rho and the positive constant tau.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AlphaOutOfRange,
    HtripleSignChange,
    NonPositiveJacobian,
    VerificationError,
    WrongSignForMaterial,
)
from .linalg import cofactor
from .materials import MaterialModel, piola_kirchhoff

__all__ = [
    "ElasticState",
    "ShockFront",
    "FrequencyCoefficients",
    "LaxReport",
    "alpha_max",
    "build",
    "lax_check",
    "genuine_nonlinearity",
    "freq_coeffs",
]

H3_SAMPLES = 256


@dataclass
class ElasticState:
    """Deformation gradient with positive determinant plus a velocity."""

    U: np.ndarray
    v: Optional[np.ndarray] = None

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        d = self.U.shape[0]
        if self.U.shape != (d, d) or d < 2:
            raise ValueError("U must be square with dim >= 2")
        if self.v is None:
            self.v = np.zeros(d)
        self.v = np.asarray(self.v, dtype=float)
        if self.v.shape != (d,):
            raise ValueError("v must be a d-vector")
        if np.linalg.det(self.U) <= 0:
            raise NonPositiveJacobian(f"det U = {np.linalg.det(self.U)} <= 0")

    @property
    def dim(self) -> int:
        return self.U.shape[0]


@dataclass
class FrequencyCoefficients:
    """Coefficients of a transverse frequency (or a stack of them) on a given shock.

    eta couples the front-normal cofactor column to the transverse ones,
    Nsq is the squared transverse cofactor image, omega the transverse
    symbol, P = theta11*Nsq - eta^2 >= 0 (zero only at xi_t = 0) and
    zeta = omega - h''(J+)^2 eta^2 / kappa2_plus > 0 for xi_t != 0.
    """

    eta: float
    omega: float
    Nsq: float
    P: float
    zeta: float


@dataclass
class LaxReport:
    ok: bool
    margins: tuple


@dataclass
class ShockFront:
    material: MaterialModel
    plus: ElasticState
    minus: ElasticState
    alpha: float
    speed: float
    Jplus: float
    Jminus: float
    V: np.ndarray
    theta: np.ndarray
    Theta: np.ndarray
    M: np.ndarray
    kappa2_plus: float
    kappa2_minus: float
    rho: float
    tau: float
    alpha_max: float

    @property
    def dim(self) -> int:
        return self.plus.dim

    @property
    def theta11(self) -> float:
        return float(self.theta[0, 0])

    @property
    def h2_plus(self) -> float:
        return float(self.material.h2(self.Jplus))

    def residual_scale(self) -> float:
        v1 = self.V[:, 0]
        return max(1.0, float(np.linalg.norm(self.plus.U)),
                   abs(self.speed) * float(np.linalg.norm(v1)))


def alpha_max(U_plus: np.ndarray) -> float:
    """Upper limit of admissible positive intensities: J+ / |V1|^2."""
    U_plus = np.asarray(U_plus, dtype=float)
    J = float(np.linalg.det(U_plus))
    if J <= 0:
        raise NonPositiveJacobian(f"det U = {J} <= 0")
    v1 = cofactor(U_plus)[:, 0]
    return J / float(v1 @ v1)


def _h3_interval_sign(m: MaterialModel, Jlo: float, Jhi: float) -> int:
    """Sign of h''' sampled on the open interval (Jlo, Jhi) plus endpoints.

    Returns -1 or +1 for a definite sign, 0 for identically zero, and
    raises HtripleSignChange when both strict signs occur.
    """
    J = np.linspace(Jlo, Jhi, H3_SAMPLES + 2)
    with np.errstate(over="ignore"):  # an infinite sample still has a sign
        vals = np.asarray(m.h3(J), dtype=float)
    has_pos = bool(np.any(vals > 0))
    has_neg = bool(np.any(vals < 0))
    if has_pos and has_neg:
        raise HtripleSignChange(
            f"h''' changes sign on ({Jlo:.6g}, {Jhi:.6g}); unsupported shock regime"
        )
    if has_neg:
        return -1
    if has_pos:
        return 1
    return 0


def _m_matrix(U_plus: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cofactor-jump matrix: signed minors of (V1, U2, ..., Ud), first column zero."""
    d = U_plus.shape[0]
    if d == 2:
        M = np.zeros((2, 2))
        M[:, 1] = U_plus[:, 1]
        return M
    if d == 3:
        v1 = V[:, 0]
        M = np.zeros((3, 3))
        M[:, 1] = np.cross(U_plus[:, 2], v1)
        M[:, 2] = -np.cross(U_plus[:, 1], v1)
        return M
    A = U_plus.copy()
    A[:, 0] = V[:, 0]
    M = cofactor(A)
    M[:, 0] = 0.0
    return M


def build(m: MaterialModel, plus: ElasticState, alpha: float) -> ShockFront:
    """Construct the Lax front of intensity alpha through the base state.

    Validates the admissible range alpha in (-inf, 0) U (0, alpha_max),
    requires h''' to keep one strict sign on the volume-ratio interval
    swept by the jump (negative sign for alpha < 0, positive for
    alpha > 0), and checks the jump conditions and strict Lax margins of
    the assembled front before returning it.
    """
    alpha = float(alpha)
    U_plus = plus.U
    d = plus.dim
    Jp = float(np.linalg.det(U_plus))
    V = cofactor(U_plus)
    v1 = V[:, 0]
    th11 = float(v1 @ v1)
    a_max = Jp / th11

    if not np.isfinite(alpha) or alpha == 0.0 or alpha >= a_max:
        raise AlphaOutOfRange(
            f"alpha must lie in (-inf, 0) U (0, {a_max:.6g}), got {alpha}"
        )
    Jm = Jp - alpha * th11

    sign = _h3_interval_sign(m, min(Jp, Jm), max(Jp, Jm))
    needed = -1 if alpha < 0 else 1
    if sign != needed:
        want = "h''' < 0" if needed < 0 else "h''' > 0"
        raise WrongSignForMaterial(
            f"alpha = {alpha} requires {want} on the jump interval "
            f"({min(Jp, Jm):.6g}, {max(Jp, Jm):.6g})"
        )

    try:
        s_sq = m.mu + (float(m.h1(Jp)) - float(m.h1(Jm))) / alpha
        h2_minus = float(m.h2(Jm))
    except OverflowError:
        raise AlphaOutOfRange(
            f"alpha = {alpha} overflows the material law at J- = {Jm:.6g}"
        ) from None
    s = -float(np.sqrt(s_sq))
    U_minus = U_plus - alpha * np.outer(v1, np.eye(d)[0])
    v_minus = plus.v + s * alpha * v1
    minus = ElasticState(U_minus, v_minus)

    theta = V.T @ V
    Theta = theta[0, 0] * theta - np.outer(theta[:, 0], theta[0, :])
    M = _m_matrix(U_plus, V)
    k2p = m.mu + float(m.h2(Jp)) * th11
    k2m = m.mu + h2_minus * th11  # first cofactor column is shared
    rho_val = (s_sq - m.mu) * (1.0 / th11 - alpha / Jp) - float(m.h2(Jp))
    tau_val = -m.mu * np.sqrt(k2p - s_sq) / (s * np.sqrt(k2p) * th11)

    sf = ShockFront(
        material=m, plus=plus, minus=minus, alpha=alpha, speed=s,
        Jplus=Jp, Jminus=Jm, V=V, theta=theta, Theta=Theta, M=M,
        kappa2_plus=k2p, kappa2_minus=k2m, rho=float(rho_val),
        tau=float(tau_val), alpha_max=a_max,
    )
    _validate(sf)
    return sf


def _validate(sf: ShockFront) -> None:
    scale = sf.residual_scale()
    jump_U1 = sf.plus.U[:, 0] - sf.minus.U[:, 0]
    jump_v = sf.plus.v - sf.minus.v
    r1 = np.linalg.norm(-sf.speed * jump_U1 - jump_v)
    sig_p = piola_kirchhoff(sf.material, sf.plus.U)
    sig_m = piola_kirchhoff(sf.material, sf.minus.U)
    r2 = np.linalg.norm(-sf.speed * jump_v - (sig_p[:, 0] - sig_m[:, 0]))
    if max(r1, r2) > 1e-11 * scale:
        raise VerificationError(
            f"jump-condition residuals {r1:.3e}, {r2:.3e} exceed 1e-11*{scale:.3e}"
        )
    report = lax_check(sf)
    if not report.ok:
        raise WrongSignForMaterial(
            f"constructed front violates strict Lax margins {report.margins}"
        )


def lax_check(sf: ShockFront) -> LaxReport:
    """Strict Lax margins; all three must be positive for a 1-shock."""
    m1 = -np.sqrt(sf.kappa2_minus) - sf.speed
    m2 = sf.speed + np.sqrt(sf.kappa2_plus)
    m3 = -np.sqrt(sf.material.mu) - sf.speed
    margins = (float(m1), float(m2), float(m3))
    return LaxReport(ok=all(v > 0 for v in margins), margins=margins)


def genuine_nonlinearity(m: MaterialModel, U: np.ndarray, direction=None) -> float:
    """Directional derivative of the extreme speed along its eigenvector.

    Equals -(1/(2 a1^2)) |V nu|^4 h'''(J), so it vanishes identically
    exactly when h''' does; its sign decides which intensity sign yields
    admissible fronts.
    """
    U = np.asarray(U, dtype=float)
    d = U.shape[0]
    J = float(np.linalg.det(U))
    if J <= 0:
        raise NonPositiveJacobian(f"det U = {J} <= 0")
    nu = np.eye(d)[0] if direction is None else np.asarray(direction, dtype=float)
    nu = nu / np.linalg.norm(nu)
    w = cofactor(U) @ nu
    wsq = float(w @ w)
    a1_sq = m.mu + float(m.h2(J)) * wsq
    return -0.5 / a1_sq * wsq**2 * float(m.h3(J))


def _coeff_algebra(sf: ShockFront, eta, Nsq, norms):
    """omega, P and zeta from eta, Nsq and |xi_t|^2; floats or broadcasting arrays."""
    h2p = sf.h2_plus
    eta2 = eta * eta
    omega = sf.material.mu * norms + h2p * Nsq
    P = sf.theta11 * Nsq - eta2
    zeta = omega - h2p**2 * eta2 / sf.kappa2_plus
    return omega, P, zeta


def _surface_term(sf: ShockFront, P):
    """rho kappa2+ P / (s^2 theta11): added in delta_v2, subtracted in the criterion G."""
    return sf.rho * sf.kappa2_plus * P / (sf.speed * sf.speed * sf.theta11)


def _criterion(sf: ShockFront, eta, P, zeta):
    """The classifier criterion G = (sqrt(zeta) + tau eta)^2 - rho kappa2+ P / (s^2 theta11)."""
    a = np.sqrt(np.maximum(zeta, 0.0)) + sf.tau * eta
    return a * a - _surface_term(sf, P)


def freq_coeffs(sf: ShockFront, xi_t) -> FrequencyCoefficients:
    """Frequency coefficients of transverse wave vectors xi_t of shape (..., k).

    One vector gives Python floats; a stack gives arrays of shape (...).
    Each vector of a stack goes through the same row-times-matrix products
    as a single one, so eta, Nsq and |xi_t|^2 match the single-vector
    values exactly.
    """
    xi_t = np.asarray(xi_t, dtype=float)
    if xi_t.ndim == 0 or xi_t.shape[-1] != sf.dim - 1:
        raise ValueError(f"xi_t must have length {sf.dim - 1}")
    th = sf.theta
    row, col = xi_t[..., None, :], xi_t[..., :, None]
    eta = (row @ th[0, 1:, None])[..., 0, 0]
    Nsq = (row @ th[1:, 1:] @ col)[..., 0, 0]
    norms = (row @ col)[..., 0, 0]
    if xi_t.ndim == 1:
        eta, Nsq, norms = float(eta), float(Nsq), float(norms)
    omega, P, zeta = _coeff_algebra(sf, eta, Nsq, norms)
    return FrequencyCoefficients(eta=eta, omega=omega, Nsq=Nsq, P=P, zeta=zeta)
