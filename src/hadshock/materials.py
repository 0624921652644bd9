"""Hadamard material models and their elastic tensors.

A material is a shear modulus ``mu`` plus a volumetric energy ``h(J)``
with derivatives ``h1, h2, h3``; the stored energy density is

    W(U) = (mu/2) tr(U^T U) + h(det U).

The built-in catalog covers the standard compressible neo-Hookean
extensions (Ciarlet-Geymonat, Blatz, Ogden foam, Levinson-Burgess,
Simo-Taylor, Ogden-Hill, Simo-Miehe, Bischoff-Arruda-Grosh).  Convexity
of h (h'' > 0) makes the acoustic tensor positive definite for every
deformation, which is what the shock machinery relies on.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadModuli, NonPositiveJacobian, UnknownModel, ZeroFrequency
from .linalg import cofactor

__all__ = [
    "MaterialModel",
    "HypothesisReport",
    "AcousticSpectrum",
    "CATALOG_NAMES",
    "catalog",
    "check_hypotheses",
    "energy",
    "piola_kirchhoff",
    "b_blocks",
    "acoustic_tensor",
    "acoustic_spectrum",
    "char_speeds",
    "default_J_grid",
]


@dataclass
class MaterialModel:
    """Shear modulus plus volumetric energy h with three derivatives.

    ``h, h1, h2, h3`` accept a float or a numpy array of J > 0 values; for
    a catalog law a float J gives the same value, bit for bit, as the same
    J inside an array, since every term is evaluated with numpy's ufuncs.
    ``declared_bulk`` records the bulk modulus the model was built from,
    when it was; the hypothesis report compares it with the small-strain
    bulk modulus implied by h''(1).
    """

    name: str
    mu: float
    h: Callable
    h1: Callable
    h2: Callable
    h3: Callable
    declared_bulk: Optional[float] = None
    dimension: Optional[int] = None
    derivatives_synthesized: bool = False

    def __post_init__(self):
        if not (self.mu > 0):
            raise BadModuli(f"shear modulus must be positive, got {self.mu}")


@dataclass
class HypothesisReport:
    """Outcome of sampling the material hypotheses on a J-grid."""

    h2_positive: bool
    h3_negative: bool
    free_stress: bool
    bulk_relation: bool
    poisson: float
    lame_first: float
    J_grid: np.ndarray
    fd_consistent: bool
    fd_max_rel_err: float
    effective_bulk: float
    h_nonincreasing: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.h2_positive
            and self.h3_negative
            and self.free_stress
            and self.bulk_relation
            and self.fd_consistent
        )


@dataclass
class AcousticSpectrum:
    """Eigenvalues of the acoustic tensor: kappa1 (d-1 fold) and kappa2 (simple)."""

    kappa1: float
    mult1: int
    kappa2: float
    mult2: int
    eigvec2: np.ndarray


# ---------------------------------------------------------------------------
# the catalog as a table of volumetric terms (module level so models stay picklable)

def _log(J, n, c):
    """c log J, or its n-th derivative c (-1)^(n-1) (n-1)! / J^n."""
    if n == 0:
        return c * np.log(J)
    return c * (-1) ** (n - 1) * math.factorial(n - 1) / np.power(J, n)


def _power(J, n, c, a, p):
    """c (J - a)^p, or its n-th derivative c p (p-1) ... (p-n+1) (J - a)^(p-n)."""
    k = c * math.prod(p - i for i in range(n))
    return k * np.power(J - a, p - n) if k else 0.0 * J


def _cosh(J, n, c, b):
    """c cosh b(J - 1), or its n-th derivative c b^n (cosh or sinh) b(J - 1)."""
    return c * b**n * (np.sinh if n % 2 else np.cosh)(b * (J - 1.0))


def _law(J, n, const, rows):
    """const plus the n-th derivatives of c phi(J) over the rows (phi, c, *args)."""
    out = const
    for phi, c, *args in rows:
        out = out + phi(J, n, c, *args)
    return out


def _require_poisson_positive(name, mu, kappa, d):
    if kappa is None:
        raise BadModuli(f"{name} requires kappa")
    if not (kappa > 2.0 * mu / d):
        raise BadModuli(f"{name} requires kappa > 2*mu/d, got kappa={kappa}, mu={mu}, d={d}")


# Each law validates its moduli and maps (mu, kappa, d, params) to (declared
# bulk modulus, constant, rows); h is -d mu/2 + constant + the rows, as
# written in catalog().

def _ciarlet_geymonat(mu, kappa, d, params):
    _require_poisson_positive("ciarlet-geymonat", mu, kappa, d)
    return kappa, 0.0, ((_log, -mu), (_power, 0.5 * kappa - mu / d, 1.0, 2.0))


def _blatz(mu, kappa, d, params):
    _require_poisson_positive("blatz", mu, kappa, d)
    lin, logc = kappa - 2.0 * mu / d, kappa + (d - 2.0) * mu / d
    return kappa, 0.0, ((_power, lin, 1.0, 1.0), (_log, -logc))


def _ogden_foam(mu, kappa, d, params):
    c1 = params.get("c1")
    if c1 is None:
        if kappa is None:
            raise BadModuli("ogden-foam requires c1 or kappa")
        _require_poisson_positive("ogden-foam", mu, kappa, d)
        c1 = (d * kappa - 2.0 * mu) / (2.0 * d * mu)
    c1 = float(c1)
    if not (c1 > 0):
        raise BadModuli(f"ogden-foam requires c1 > 0, got {c1}")
    if kappa is None:
        kappa = mu * (2.0 * c1 * d + 2.0) / d  # invert c1 = (d k - 2 mu)/(2 d mu)
    c = 0.5 * mu / c1
    return kappa, -c, ((_power, c, 0.0, -2.0 * c1),)


def _levinson_burgess(mu, kappa, d, params):
    _require_poisson_positive("levinson-burgess", mu, kappa, d)
    cbar = kappa / mu - 2.0 / d + 1.0
    return kappa, 0.0, ((_power, 0.5 * mu * cbar, 1.0, 2.0), (_power, -mu, 1.0, 1.0))


def _simo_taylor(mu, kappa, d, params):
    _require_poisson_positive("simo-taylor", mu, kappa, d)
    lam = kappa - 2.0 * mu / d
    return kappa, -0.25 * lam, ((_log, -(mu + 0.5 * lam)), (_power, 0.25 * lam, 0.0, 2.0))


def _ogden_hill(mu, kappa, d, params):
    b = float(params.get("b", 0.0))
    if not (b > 0):
        raise BadModuli(f"ogden-hill requires b > 0, got {b}")
    # b is an empirical coefficient, not a declared bulk modulus
    return None, 0.0, ((_power, 1.0 / b, 1.0, 2.0),)


def _simo_miehe(mu, kappa, d, params):
    if kappa is None or not (kappa > 0):
        raise BadModuli("simo-miehe requires kappa > 0")
    return kappa, -0.25 * kappa, ((_power, 0.25 * kappa, 0.0, 2.0), (_log, -0.5 * kappa))


def _bischoff_arruda_grosh(mu, kappa, d, params):
    cbar, b = float(params.get("cbar", 0.0)), float(params.get("b", 0.0))
    if not (cbar > 0 and b > 0):
        raise BadModuli(f"bischoff-arruda-grosh requires cbar, b > 0, got {cbar}, {b}")
    c = cbar / b**2
    return None, -c, ((_cosh, c, b),)


_LAWS = {
    "ciarlet-geymonat": _ciarlet_geymonat,
    "blatz": _blatz,
    "ogden-foam": _ogden_foam,
    "levinson-burgess": _levinson_burgess,
    "simo-taylor": _simo_taylor,
    "ogden-hill": _ogden_hill,
    "simo-miehe": _simo_miehe,
    "bischoff-arruda-grosh": _bischoff_arruda_grosh,
}
CATALOG_NAMES = tuple(_LAWS)


def _ensure_vectorized(f):
    """Make a user-supplied scalar callable accept numpy arrays of J; where it raises
    OverflowError (as Python's float arithmetic does) its value is NaN: the true value
    overflows, but its sign is unknown."""
    try:
        probe = np.asarray(f(np.array([0.5, 2.0])), dtype=float)
        if probe.shape == (2,):
            return f
    except Exception:
        pass

    def scalar(J):
        try:
            return f(J)
        except OverflowError:
            return np.nan

    return np.vectorize(scalar, otypes=[float])


def _fd_derivative(f):
    """High-order central difference d/dJ with a J-proportional step."""

    def deriv(J):
        J = np.asarray(J, dtype=float)
        e = 1e-3 * np.maximum(J, 1e-8)
        # 4th order 5-point stencil, Richardson-extrapolated once
        def d4(step):
            return (f(J - 2 * step) - 8 * f(J - step) + 8 * f(J + step) - f(J + 2 * step)) / (12 * step)

        a, b = d4(e), d4(e / 2.0)
        out = (16.0 * b - a) / 15.0
        return out if out.shape else float(out)

    return deriv


def catalog(name: str, params: dict) -> MaterialModel:
    """Build a catalog material (or wrap a custom one) from parameters.

    ``params`` carries the dimension ``d`` plus the moduli the requested
    form needs: ``mu`` always; ``kappa`` for the nearly incompressible
    forms; ``c1`` (or ``kappa``) for the Ogden foam; ``b`` for
    Ogden-Hill; ``cbar``/``b`` for Bischoff-Arruda-Grosh.  Each catalog
    law is h(J) = -d mu/2 plus

        ciarlet-geymonat       -mu log J + c2 (J-1)^2                  c2 = kappa/2 - mu/d
        blatz                  lin (J-1) - logc log J                  lin = kappa - 2mu/d,
                                                                       logc = kappa + (d-2)mu/d
        ogden-foam             (mu/2c1) (J^(-2c1) - 1)
        levinson-burgess       (mu cbar/2) (J-1)^2 - mu (J-1)          cbar = kappa/mu - 2/d + 1
        simo-taylor            -(mu + lam/2) log J + (lam/4) (J^2 - 1) lam = kappa - 2mu/d
        ogden-hill             (J-1)^2 / b
        simo-miehe             (kappa/4) (J^2 - 1) - (kappa/2) log J
        bischoff-arruda-grosh  (cbar/b^2) (cosh b(J-1) - 1)

    held in ``_LAWS`` as a constant plus rows c phi(J) of three term
    kinds, ``log J``, ``(J - a)^p`` and ``cosh b(J - 1)``, each of which
    writes its value and derivatives once.  For ``custom``, params supply
    callables ``h`` and optionally ``h1, h2, h3``; missing derivatives are
    synthesized by high-order central differences and flagged via
    ``derivatives_synthesized``.
    """
    params = dict(params)
    d = int(params.get("d", params.get("dimension", 3)))
    if d < 2:
        raise BadModuli(f"dimension must be >= 2, got {d}")
    mu = float(params.get("mu", 1.0))
    if not (mu > 0):
        raise BadModuli(f"mu must be positive, got {mu}")
    kappa = params.get("kappa")
    kappa = None if kappa is None else float(kappa)

    if name == "custom":
        h = _ensure_vectorized(params["h"])
        fns = [h]
        synthesized = False
        for key in ("h1", "h2", "h3"):
            g = params.get(key)
            if g is None:
                g = _fd_derivative(fns[-1])
                synthesized = True
            else:
                g = _ensure_vectorized(g)
            fns.append(g)
        return MaterialModel(
            name=params.get("label", "custom"), mu=mu, h=fns[0], h1=fns[1],
            h2=fns[2], h3=fns[3], declared_bulk=kappa, dimension=d,
            derivatives_synthesized=synthesized,
        )

    law = _LAWS.get(name)
    if law is None:
        raise UnknownModel(f"unknown material model {name!r}")
    kappa, const, rows = law(mu, kappa, d, params)
    h, h1, h2, h3 = (
        functools.partial(_law, n=n, const=-0.5 * d * mu + const if n == 0 else 0.0, rows=rows)
        for n in range(4)
    )
    return MaterialModel(name=name, mu=mu, h=h, h1=h1, h2=h2, h3=h3,
                         declared_bulk=kappa, dimension=d)


# ---------------------------------------------------------------------------
# hypothesis checks

def default_J_grid() -> np.ndarray:
    """Log-spaced sampling grid for the pointwise hypotheses on h."""
    return np.geomspace(1e-3, 1e3, 400)


def _fd_chain_error(g, g_prime, J):
    """Max relative error of g' against Richardson central differences of g.

    The step is proportional to J, so the check is scale invariant; the
    denominator mixes |g'| with |g|/J so identically-zero derivatives
    (e.g. a constant h'') are judged against the parent scale instead of
    against roundoff noise.  Points where g overflows are skipped.
    """
    rel = 1e-5
    e = rel * J
    with np.errstate(over="ignore", invalid="ignore"):
        def cd(step):
            return (g(J + step) - g(J - step)) / (2.0 * step)

        d1, d2 = cd(e), cd(e / 2.0)
        fd = (4.0 * d2 - d1) / 3.0
        an = g_prime(J)
        gj = np.abs(g(J))
    denom = np.maximum(np.abs(an), gj / J)
    ok = np.isfinite(fd) & np.isfinite(an) & np.isfinite(denom) & (denom > 0)
    if not np.any(ok):
        return 0.0
    return float(np.max(np.abs(fd[ok] - an[ok]) / denom[ok]))


def check_hypotheses(m: MaterialModel, d: int, J_grid=None) -> HypothesisReport:
    """Sample the convexity hypotheses and small-strain relations of m.

    Verifies on the grid: h'' > 0, h''' < 0, the stress-free reference
    h'(1) = -mu, the bulk relation kappa = mu(2/d - 1) + h''(1) against
    the declared bulk modulus, and consistency of h1..h3 with finite
    differences.  Poisson ratio and first Lame parameter are derived
    from the effective (h''-implied) bulk modulus.
    """
    J = np.asarray(default_J_grid() if J_grid is None else J_grid, dtype=float)
    if J.size == 0 or np.any(J <= 0):
        raise ValueError("J_grid must be a nonempty subset of (0, inf)")
    with np.errstate(over="ignore", invalid="ignore"):
        h2_vals = np.asarray(m.h2(J), dtype=float)
        h3_vals = np.asarray(m.h3(J), dtype=float)
        h1_vals = np.asarray(m.h1(J), dtype=float)
    h2_positive = bool(np.all(h2_vals > 0))
    h3_negative = bool(np.all(h3_vals < 0))
    h_nonincreasing = bool(np.all(h1_vals[np.isfinite(h1_vals)] <= 0))

    free_stress = bool(abs(float(m.h1(1.0)) + m.mu) <= 1e-9 * m.mu)
    effective_bulk = m.mu * (2.0 / d - 1.0) + float(m.h2(1.0))
    if m.declared_bulk is None:
        bulk_relation = True
    else:
        bulk_relation = bool(
            abs(m.declared_bulk - effective_bulk) <= 1e-9 * max(abs(m.declared_bulk), m.mu)
        )

    kap = effective_bulk
    poisson = (d * kap - 2.0 * m.mu) / (2.0 * m.mu + d * (d - 1.0) * kap)
    lame_first = kap - 2.0 * m.mu / d

    errs = [
        _fd_chain_error(m.h, m.h1, J),
        _fd_chain_error(m.h1, m.h2, J),
        _fd_chain_error(m.h2, m.h3, J),
    ]
    fd_max = max(errs)
    return HypothesisReport(
        h2_positive=h2_positive,
        h3_negative=h3_negative,
        free_stress=free_stress,
        bulk_relation=bulk_relation,
        poisson=float(poisson),
        lame_first=float(lame_first),
        J_grid=J,
        fd_consistent=bool(fd_max <= 1e-6),
        fd_max_rel_err=fd_max,
        effective_bulk=float(effective_bulk),
        h_nonincreasing=h_nonincreasing,
    )


# ---------------------------------------------------------------------------
# stress and acoustic tensors

def _jacobian(U: np.ndarray):
    """det U, a float for one matrix and an array for a stack; every one must be positive."""
    J = np.linalg.det(U)
    if J <= 0 if J.ndim == 0 else (J <= 0).any():
        raise NonPositiveJacobian(f"det U = {J} <= 0")
    return float(J) if J.ndim == 0 else J


def energy(m: MaterialModel, U: np.ndarray):
    """Stored energy density W(U) = (mu/2) tr(U^T U) + h(det U), of U or a (..., d, d) stack.

    A stack gives an array, each entry equal bit for bit to the call on its
    slice: each slice's d^2 squares are summed as one contiguous row, and h
    rounds the same for a float J as for an array of them.
    """
    U = np.asarray(U, dtype=float)
    J = _jacobian(U)
    sq = (U * U).reshape(U.shape[:-2] + (-1,)).sum(axis=-1)
    W = 0.5 * m.mu * sq + m.h(J)
    return float(W) if U.ndim == 2 else W


def piola_kirchhoff(m: MaterialModel, U: np.ndarray) -> np.ndarray:
    """First Piola-Kirchhoff stress: mu U + h'(J) Cof U, of one matrix or a (..., d, d) stack."""
    U = np.asarray(U, dtype=float)
    J = _jacobian(U)
    return m.mu * U + np.asarray(m.h1(J), dtype=float)[..., None, None] * cofactor(U)


def b_blocks(m: MaterialModel, U: np.ndarray) -> np.ndarray:
    """All second-derivative blocks: out[i - 1, j - 1] is B_i^j, with (l, k) entry d2W/dU_lj dU_ki.

    B_i^j = mu delta_ij I + h''(J) (V_j x V_i) + (h'(J)/J) (V_j x V_i - V_i x V_j),
    with V = Cof U, from one det, one cofactor and one h', h'' evaluation.
    """
    U = np.asarray(U, dtype=float)
    d = U.shape[0]
    J = _jacobian(U)
    Vt = cofactor(U).T
    ji = Vt[None, :, :, None] * Vt[:, None, None, :]  # [i, j] holds V_j x V_i
    out = float(m.h2(J)) * ji
    out += float(m.h1(J)) / J * (ji - ji.transpose(1, 0, 2, 3))
    out[range(d), range(d)] += m.mu * np.eye(d)
    return out


def acoustic_tensor(m: MaterialModel, U: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Symmetric acoustic tensor mu |xi|^2 I + h''(J) (V xi) x (V xi)."""
    U = np.asarray(U, dtype=float)
    xi = np.asarray(xi, dtype=float)
    J = _jacobian(U)
    d = U.shape[0]
    w = cofactor(U) @ xi
    return m.mu * float(xi @ xi) * np.eye(d) + float(m.h2(J)) * np.outer(w, w)


def acoustic_spectrum(m: MaterialModel, U: np.ndarray, xi: np.ndarray) -> AcousticSpectrum:
    """Closed-form eigenvalues of the acoustic tensor for xi != 0.

    kappa1 = mu |xi|^2 with multiplicity d-1 and kappa2 = kappa1
    + h''(J) |V xi|^2 with multiplicity 1 and eigenvector V xi.
    Both are positive whenever h'' > 0.
    """
    U = np.asarray(U, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if float(xi @ xi) == 0.0:
        raise ZeroFrequency("acoustic spectrum needs xi != 0")
    J = _jacobian(U)
    d = U.shape[0]
    w = cofactor(U) @ xi
    k1 = m.mu * float(xi @ xi)
    k2 = k1 + float(m.h2(J)) * float(w @ w)
    return AcousticSpectrum(kappa1=k1, mult1=d - 1, kappa2=k2, mult2=1, eigvec2=w)


def char_speeds(m: MaterialModel, U: np.ndarray):
    """Characteristic speeds in the e1 direction with multiplicities.

    Returns the five distinct speeds in ascending order as
    (value, multiplicity) pairs; multiplicities sum to d^2 + d.
    """
    U = np.asarray(U, dtype=float)
    J = _jacobian(U)
    d = U.shape[0]
    v1 = cofactor(U)[:, 0]
    c2 = np.sqrt(m.mu + float(m.h2(J)) * float(v1 @ v1))
    c1 = np.sqrt(m.mu)
    return [
        (-c2, 1),
        (-c1, d - 1),
        (0.0, d * d - d),
        (c1, d - 1),
        (c2, 1),
    ]
