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
sides, h''(J+), the stability parameter rho and the positive constant tau.  A
FrontStack holds the fronts of many intensities through one base state.
"""

import functools
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ConfigError,
    HtripleSignChange,
    NonPositiveJacobian,
    VerificationError,
    WrongSignForMaterial,
)
from .linalg import cofactor
from .materials import MaterialModel, _jacobian

__all__ = [
    "ElasticState",
    "ShockFront",
    "FrontStack",
    "FrequencyCoefficients",
    "LaxReport",
    "alpha_max",
    "build",
    "build_stack",
    "lax_check",
    "genuine_nonlinearity",
    "freq_coeffs",
]

class ElasticState:
    """Deformation gradient with positive determinant plus a velocity."""

    def __init__(self, U, v=None):
        self.U = np.asarray(U, dtype=float)
        d = self.U.shape[0]
        if self.U.shape != (d, d) or d < 2:
            raise ValueError("U must be square with dim >= 2")
        self.v = np.zeros(d) if v is None else np.asarray(v, dtype=float)
        if self.v.shape != (d,):
            raise ValueError("v must be a d-vector")
        with np.errstate(all="ignore"):  # a det that overflows is inf, which build rejects
            _jacobian(self.U)

    @property
    def dim(self) -> int:
        return self.U.shape[0]


class FrequencyCoefficients(NamedTuple):
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


class LaxReport(NamedTuple):
    ok: bool
    margins: tuple


class _Base:
    """The base state and the geometry it fixes, shared by a front and a stack of fronts.

    Built by keyword, one argument for each field: the annotations of _Base and of the
    subclass.  A missing or unknown field is a TypeError."""

    material: MaterialModel
    plus: ElasticState
    Jplus: float
    V: np.ndarray
    theta: np.ndarray
    Theta: np.ndarray
    M: np.ndarray
    kappa2_plus: float
    h2_plus: float  # h''(J+)
    alpha_max: float

    def __init_subclass__(cls):
        cls._fields = frozenset(_BASE).union(cls.__annotations__)

    def __init__(self, **fields):
        if fields.keys() != self._fields:
            raise TypeError(f"{type(self).__name__} takes the fields {sorted(self._fields)}, "
                            f"got {sorted(fields)}")
        vars(self).update(fields)

    @property
    def dim(self) -> int:
        return self.plus.dim

    @property
    def theta11(self) -> float:
        return float(self.theta[0, 0])

    def _base(self) -> dict:
        return {name: getattr(self, name) for name in _BASE}

    def residual_scale(self):
        """max(1, |U+|, |s| |V1|), the least scale of a jump residual."""
        return np.maximum(max(1.0, float(np.linalg.norm(self.plus.U))),
                          np.abs(self.speed) * float(np.linalg.norm(self.V[:, 0])))


_BASE = tuple(_Base.__annotations__)


class ShockFront(_Base):
    minus: ElasticState
    alpha: float
    speed: float
    Jminus: float
    kappa2_minus: float
    rho: float
    tau: float


_ROWS = ("alpha", "speed", "Jminus", "kappa2_minus", "rho", "tau")


class FrontStack(_Base):
    """The Lax fronts of n intensities through one base state.

    The fields that move with alpha are (n, 1) columns, so that they broadcast
    against per-row arrays of frequencies; minus.U is (n, d, d) and minus.v (n, d).
    errors[i] is the typed error that stopped row i (its other fields mean nothing), or None.
    """

    minus: SimpleNamespace
    alpha: np.ndarray
    speed: np.ndarray
    Jminus: np.ndarray
    kappa2_minus: np.ndarray
    rho: np.ndarray
    tau: np.ndarray
    errors: list

    @classmethod
    def of(cls, sf: ShockFront) -> "FrontStack":
        """The stack of the one front sf."""
        return cls(**sf._base(), **{k: np.array([[getattr(sf, k)]]) for k in _ROWS},
                   minus=SimpleNamespace(U=sf.minus.U[None], v=sf.minus.v[None]), errors=[None])

    def rows(self, idx) -> "FrontStack":
        """The stack of the rows idx, an integer array."""
        return type(self)(**{**vars(self), **{k: getattr(self, k)[idx] for k in _ROWS},
                             "errors": [self.errors[i] for i in idx],
                             "minus": SimpleNamespace(U=self.minus.U[idx], v=self.minus.v[idx])})

    def front(self, i: int) -> ShockFront:
        return ShockFront(**self._base(), **{k: float(getattr(self, k)[i, 0]) for k in _ROWS},
                          minus=ElasticState(self.minus.U[i], self.minus.v[i]))


def alpha_max(U_plus: np.ndarray) -> float:
    """Upper limit of admissible positive intensities: J+ / |V1|^2."""
    U_plus = np.asarray(U_plus, dtype=float)
    with np.errstate(all="ignore"):
        J = _jacobian(U_plus)
        v1 = cofactor(U_plus)[:, 0]
        return _alpha_max(J, float(v1 @ v1))


def _alpha_max(J: float, th11: float) -> float:
    """alpha_max = J+ / |V1|^2 from th11 = |V1|^2.  AlphaOutOfRange when th11 or the
    quotient is zero or not finite: the cofactor column under- or overflowed, and no
    intensity range exists."""
    a_max = J / th11 if 0 < th11 < np.inf else np.nan
    if not 0 < a_max < np.inf:
        raise AlphaOutOfRange(f"alpha_max = J+ / |V1|^2 = {J!r} / {th11!r} is not a positive "
                              "finite number")
    return a_max


def _reject(errors: list, bad, make) -> None:
    """Give each row i where bad holds the error make(i), unless an earlier check failed there."""
    for i in np.flatnonzero(bad):
        if errors[i] is None:
            errors[i] = make(i)


def _live(errors: list) -> np.ndarray:
    return np.array([e is None for e in errors], dtype=bool)


def _m_matrix(U_plus: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cofactor-jump matrix: signed minors of (V1, U2, ..., Ud), first column zero."""
    A = U_plus.copy()
    A[:, 0] = V[:, 0]
    M = cofactor(A)
    M[:, 0] = 0.0
    return M


def _check_dimension(m: MaterialModel, d: int):
    """ConfigError for a law calibrated for another dimension than d, the side of U+."""
    if m.dimension is not None and m.dimension != d:
        raise ConfigError(f"the law is calibrated for d = {m.dimension}, but U+ is {d} x {d}")


def build(m: MaterialModel, plus: ElasticState, alpha: float) -> ShockFront:
    """The Lax front of intensity alpha through the base state: build_stack of the one
    intensity, raising its error."""
    fronts = build_stack(m, plus, [alpha])
    if fronts.errors[0] is not None:
        raise fronts.errors[0]
    return fronts.front(0)


def build_stack(m: MaterialModel, plus: ElasticState, alphas) -> FrontStack:
    """The Lax fronts of the intensities alphas through the base state, in one array pass.

    A front needs alpha in (-inf, 0) U (0, alpha_max) and h''' of one strict sign on
    the volume-ratio interval of the jump (negative for alpha < 0, positive for alpha
    > 0), read from the law's terms (MaterialModel.derivative_sign) at no J, then passes
    the jump conditions and strict Lax margins; a row keeps the typed error of the first
    check it fails, HtripleSignChange where the terms fix no sign.  J+, V, theta, Theta,
    M, kappa2+ and h''(J+) are computed once; a base state whose alpha_max is zero or not
    finite, or whose h''(J+) or kappa2+ is not finite, raises AlphaOutOfRange, and a law
    calibrated for another dimension than U+'s raises ConfigError.  Floating-point
    warnings are off: an overflowing row fails a check.
    """
    _check_dimension(m, plus.dim)
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    n, U_plus = alphas.size, plus.U
    errors = [None] * n
    with np.errstate(all="ignore"):
        Jp = float(np.linalg.det(U_plus))
        V = cofactor(U_plus)
        v1 = V[:, 0]
        th11 = float(v1 @ v1)  # the criterion reads theta[0, 0], which may differ in the last bit
        a_max, theta, h2p = _alpha_max(Jp, th11), V.T @ V, float(m.h2(Jp))
        k2p = m.mu + h2p * th11
        if not np.isfinite(k2p):  # also catches h''(J+), since th11 > 0
            raise AlphaOutOfRange(f"the base state's h''(J+) = {h2p!r} or kappa2+ = {k2p!r} "
                                  "is not finite")
        _reject(errors, ~np.isfinite(alphas) | (alphas == 0.0) | (alphas >= a_max),
                lambda i: AlphaOutOfRange(
                    f"alpha must lie in (-inf, 0) U (0, {a_max:.6g}), got {alphas[i]}"))
        Jm = Jp - alphas * th11
        lo, hi = np.minimum(Jp, Jm), np.maximum(Jp, Jm)
        sign = m.derivative_sign(3, lo, hi)
        _reject(errors, sign == 2, lambda i: HtripleSignChange(
            f"the terms of h''' fix no one sign on ({lo[i]:.6g}, {hi[i]:.6g}); unsupported "
            "shock regime"))
        _reject(errors, sign != np.where(alphas < 0, -1, 1), lambda i: WrongSignForMaterial(
            f"alpha = {alphas[i]} requires h''' {'<' if alphas[i] < 0 else '>'} 0 on the jump "
            f"interval ({lo[i]:.6g}, {hi[i]:.6g})"))
        h1m, h2m = m.h1(Jm), m.h2(Jm)
        s_sq = m.mu + (float(m.h1(Jp)) - h1m) / alphas
        _reject(errors, ~(np.isfinite(s_sq) & np.isfinite(h2m)), lambda i: AlphaOutOfRange(
            f"alpha = {alphas[i]} overflows the material law at J- = {Jm[i]:.6g}"))
        s = -np.sqrt(s_sq)
        U_minus = U_plus - alphas[:, None, None] * np.outer(v1, np.eye(plus.dim)[0])
        v_minus = plus.v + (s * alphas)[:, None] * v1
        live, det = _live(errors), np.ones(n)
        det[live] = np.linalg.det(U_minus[live])
        _reject(errors, det <= 0, lambda i: NonPositiveJacobian(f"det U = {det[i]} <= 0"))
        k2m = m.mu + h2m * th11  # first cofactor column is shared
        rho = (s_sq - m.mu) * (1.0 / th11 - alphas / Jp) - h2p
        tau = -m.mu * np.sqrt(k2p - s_sq) / (s * np.sqrt(k2p) * th11)
        col = functools.partial(np.expand_dims, axis=1)
        fronts = FrontStack(
            material=m, plus=plus, Jplus=Jp, V=V, theta=theta,
            Theta=theta[0, 0] * theta - np.outer(theta[:, 0], theta[0, :]),
            M=_m_matrix(U_plus, V), kappa2_plus=k2p, h2_plus=h2p, alpha_max=a_max,
            minus=SimpleNamespace(U=U_minus, v=v_minus), alpha=col(alphas), speed=col(s),
            Jminus=col(Jm), kappa2_minus=col(k2m), rho=col(rho), tau=col(tau), errors=errors)
        live = np.flatnonzero(_live(errors))
        for i, error in zip(live, _jump_and_lax_errors(fronts.rows(live))):
            errors[i] = error
    return fronts


def _jump_and_lax_errors(fr) -> list:
    """Per row of a front or a stack, the error of the first failing check of the jump
    conditions and then the strict Lax margins, or None.  A jump residual is relative to the
    larger of residual_scale() and the sizes of its terms, which grow with |alpha|; a row
    whose residual or scale overflows (the norms square the entries) cannot be checked."""
    norm = functools.partial(np.linalg.norm, axis=-1, keepdims=True)
    s, base, U_plus = fr.speed, fr.residual_scale(), fr.plus.U
    jump_U1, jump_v = U_plus[:, 0] - fr.minus.U[..., 0], fr.plus.v - fr.minus.v
    sig_p = _stress_column(fr.material, U_plus, fr.Jplus, fr.V[:, 0])
    sig_m = _minus_stress_column(fr)
    terms = (norm(-s * jump_U1 - jump_v), np.abs(s) * norm(jump_U1) + norm(jump_v),
             norm(-s * jump_v - (sig_p - sig_m)),
             np.abs(s) * norm(jump_v) + norm(sig_p) + norm(sig_m))
    r1 = np.ravel(terms[0] / np.maximum(base, terms[1]))
    r2 = np.ravel(terms[2] / np.maximum(base, terms[3]))
    margins = [np.ravel(v) for v in _lax_margins(fr)]
    errors, alphas = [None] * r1.size, np.ravel(fr.alpha)
    _reject(errors, ~np.ravel(np.all(np.isfinite(terms), axis=0)), lambda i: AlphaOutOfRange(
        f"alpha = {alphas[i]} overflows the jump-condition residuals"))
    _reject(errors, ~(np.maximum(r1, r2) <= 1e-11), lambda i: VerificationError(
        f"jump-condition residuals {r1[i]:.3e}, {r2[i]:.3e} relative to their terms exceed 1e-11"))
    _reject(errors, ~np.all(np.greater(margins, 0), axis=0), lambda i: WrongSignForMaterial(
        f"constructed front violates strict Lax margins {tuple(float(v[i]) for v in margins)}"))
    return errors


def _stress_column(m: MaterialModel, U: np.ndarray, J, v1: np.ndarray) -> np.ndarray:
    """First column mu U[..., 0] + h'(J) v1 of the Piola-Kirchhoff stress of U (or of a
    stack), given J = det U and the first cofactor column v1: bit for bit that of
    piola_kirchhoff, without its det and cofactor."""
    return m.mu * U[..., 0] + np.asarray(m.h1(J), dtype=float)[..., None] * v1


def _minus_stress_column(fr):
    """First column of the Piola-Kirchhoff stress of U-: U- differs from U+ only in its
    first column, which no minor of the first cofactor column reads, so that column is V1."""
    return _stress_column(fr.material, fr.minus.U, _jacobian(fr.minus.U), fr.V[:, 0])


def _lax_margins(fr) -> tuple:
    """The three strict Lax margins of a 1-shock: floats, or columns over a stack."""
    return (-np.sqrt(fr.kappa2_minus) - fr.speed, fr.speed + np.sqrt(fr.kappa2_plus),
            -np.sqrt(fr.material.mu) - fr.speed)


def lax_check(sf: ShockFront) -> LaxReport:
    """Strict Lax margins; all three must be positive for a 1-shock."""
    margins = tuple(float(v) for v in _lax_margins(sf))
    return LaxReport(ok=all(v > 0 for v in margins), margins=margins)


def genuine_nonlinearity(m: MaterialModel, U: np.ndarray, direction=None) -> float:
    """Directional derivative of the extreme speed along its eigenvector.

    Equals -(1/(2 a1^2)) |V nu|^4 h'''(J), so it vanishes identically
    exactly when h''' does; its sign decides which intensity sign yields
    admissible fronts.
    """
    U = np.asarray(U, dtype=float)
    d = U.shape[0]
    J = _jacobian(U)
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
    # float_power rounds each entry as Python's float power (libm pow) does, but overflows
    # to inf; an array's ** 2 would square instead, which differs in the last bit
    zeta = omega - np.float_power(h2p, 2) * eta2 / sf.kappa2_plus
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
    eta = (row @ th[..., 0, 1:, None])[..., 0, 0]
    Nsq = (row @ th[..., 1:, 1:] @ col)[..., 0, 0]
    norms = (row @ col)[..., 0, 0]
    if xi_t.ndim == 1:
        eta, Nsq, norms = float(eta), float(Nsq), float(norms)
    omega, P, zeta = _coeff_algebra(sf, eta, Nsq, norms)
    return FrequencyCoefficients(eta=eta, omega=omega, Nsq=Nsq, P=P, zeta=zeta)
