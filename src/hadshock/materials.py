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
from typing import NamedTuple, Optional

import numpy as np

from .errors import BadModuli, BadParams, NonPositiveJacobian, UnknownModel, ZeroFrequency
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
]


class MaterialModel:
    """Shear modulus plus a volumetric energy h written as a table of terms.

    h(J) = const + the sum of the rows, each a term kind with its coefficients:
    ``("log", c)`` is c log J, ``("power", c, a, p)`` is c (J - a)^p and
    ``("cosh", c, b)`` is c cosh b(J - 1).  ``h, h1, h2, h3`` evaluate h and its
    first three derivatives at a float or a numpy array of J > 0 (complex J too, for
    the oracle's complex steps); a float J gives the same value, bit for bit, as the
    same J inside an array, since every term is evaluated with numpy's ufuncs.
    ``derivative_sign`` reads the sign of a derivative on an interval of J > 0, or on
    all of J > 0, from the rows alone.  The moduli are taken as given (``catalog``
    validates its own); a row of another kind is BadParams.  ``declared_bulk`` records
    the bulk modulus the model was built from, when it was; the hypothesis report
    compares it with the small-strain bulk modulus implied by h''(1).
    """

    def __init__(self, name: str, mu: float, rows, const: float = 0.0,
                 declared_bulk: Optional[float] = None, dimension: Optional[int] = None):
        self.name, self.mu, self.rows = name, mu, tuple(rows)
        if any(not row or row[0] not in _TERMS for row in self.rows):
            raise BadParams(f"a term row is (kind, c, *args) with kind in {list(_TERMS)}, "
                            f"got {list(rows)!r}")
        self.h, self.h1, self.h2, self.h3 = (
            functools.partial(_law, n=n, const=const if n == 0 else 0.0, rows=self.rows)
            for n in range(4))
        self.declared_bulk, self.dimension = declared_bulk, dimension

    def derivative_sign(self, n: int, lo, hi):
        """Sign of h's n-th derivative (n >= 1) on each [lo, hi] of J > 0 (lo = 0 and
        hi = inf give all J > 0), from the rows alone: -1, 0 or +1 where every nonzero row
        has that sign there, and 2 (undecided) otherwise."""
        out = np.zeros(np.shape(lo))
        for kind, c, *args in self.rows:
            s = _TERMS[kind][1](n, lo, hi, c, *args)
            out = np.where((s == 0) | (out == s), out, np.where(out == 0, s, 2))
        return out


class HypothesisReport(NamedTuple):
    """The signs of h', h'' and h''' on every J > 0, and the small-strain relations at J = 1."""

    h2_positive: bool
    h3_negative: bool
    free_stress: bool
    bulk_relation: bool
    poisson: float
    lame_first: float
    effective_bulk: float
    h_nonincreasing: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.h2_positive
            and self.h3_negative
            and self.free_stress
            and self.bulk_relation
        )


class AcousticSpectrum(NamedTuple):
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


def _log_sign(n, lo, hi, c):
    """sign(c) (-1)^(n-1), for every J > 0."""
    return np.sign(c) * (-1) ** (n - 1)


def _power_sign(n, lo, hi, c, a, p):
    """The coefficient's sign where p = n or lo >= a, so that (J - a)^(p-n) > 0 past lo;
    else 2."""
    k = np.sign(c * math.prod(p - i for i in range(n)))
    return k if k == 0 or p == n else np.where(lo >= a, k, 2)


def _cosh_sign(n, lo, hi, c, b):
    """sign(c) for even n; sign(c) sign(J - 1) for odd n, decided where lo >= 1 or hi <= 1."""
    s = np.sign(c)
    if n % 2 == 0 or s == 0:
        return s
    return np.where(lo >= 1, np.sign(hi - 1) * s, np.where(hi <= 1, -s, 2))


# each term kind: its n-th derivative at J, and that derivative's sign on [lo, hi]
_TERMS = {"log": (_log, _log_sign), "power": (_power, _power_sign), "cosh": (_cosh, _cosh_sign)}


def _law(J, n, const, rows):
    """const plus the n-th derivatives of the rows (kind, c, *args)."""
    out = const
    for kind, c, *args in rows:
        # in place once out is an array: one temporary fewer
        out += _TERMS[kind][0](J, n, c, *args)
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
    return kappa, 0.0, (("log", -mu), ("power", 0.5 * kappa - mu / d, 1.0, 2.0))


def _blatz(mu, kappa, d, params):
    _require_poisson_positive("blatz", mu, kappa, d)
    lin, logc = kappa - 2.0 * mu / d, kappa + (d - 2.0) * mu / d
    return kappa, 0.0, (("power", lin, 1.0, 1.0), ("log", -logc))


def _ogden_foam(mu, kappa, d, params):
    c1 = params.get("c1")
    if c1 is None:
        if kappa is None:
            raise BadModuli("ogden-foam requires c1 or kappa")
        _require_poisson_positive("ogden-foam", mu, kappa, d)
        c1 = (d * kappa - 2.0 * mu) / (2.0 * d * mu)
    if not (c1 > 0):
        raise BadModuli(f"ogden-foam requires c1 > 0, got {c1}")
    if kappa is None:
        kappa = mu * (2.0 * c1 * d + 2.0) / d  # invert c1 = (d k - 2 mu)/(2 d mu)
    c = 0.5 * mu / c1
    return kappa, -c, (("power", c, 0.0, -2.0 * c1),)


def _levinson_burgess(mu, kappa, d, params):
    _require_poisson_positive("levinson-burgess", mu, kappa, d)
    cbar = kappa / mu - 2.0 / d + 1.0
    return kappa, 0.0, (("power", 0.5 * mu * cbar, 1.0, 2.0), ("power", -mu, 1.0, 1.0))


def _simo_taylor(mu, kappa, d, params):
    _require_poisson_positive("simo-taylor", mu, kappa, d)
    lam = kappa - 2.0 * mu / d
    return kappa, -0.25 * lam, (("log", -(mu + 0.5 * lam)), ("power", 0.25 * lam, 0.0, 2.0))


def _ogden_hill(mu, kappa, d, params):
    b = params.get("b", 0.0)
    if not (b > 0):
        raise BadModuli(f"ogden-hill requires b > 0, got {b}")
    # b is an empirical coefficient, not a declared bulk modulus
    return None, 0.0, (("power", 1.0 / b, 1.0, 2.0),)


def _simo_miehe(mu, kappa, d, params):
    if kappa is None or not (kappa > 0):
        raise BadModuli("simo-miehe requires kappa > 0")
    return kappa, -0.25 * kappa, (("power", 0.25 * kappa, 0.0, 2.0), ("log", -0.5 * kappa))


def _bischoff_arruda_grosh(mu, kappa, d, params):
    cbar, b = params.get("cbar", 0.0), params.get("b", 0.0)
    if not (cbar > 0 and b > 0):
        raise BadModuli(f"bischoff-arruda-grosh requires cbar, b > 0, got {cbar}, {b}")
    c = cbar / b**2
    return None, -c, (("cosh", c, b),)


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
MAX_DIM = 8  # the largest dimension served: what the classifier's tests cover


def _modulus(key: str, value) -> float:
    """value as a finite float; BadModuli, naming the value as given, otherwise."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise BadModuli(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise BadModuli(f"{key} must be finite, got {value!r}")
    return x


def _dimension(value) -> int:
    """value as an integer in 2..MAX_DIM; BadModuli, naming the value as given, otherwise."""
    try:
        d = int(value)
        whole = d == float(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and 2 <= d <= MAX_DIM):
        raise BadModuli(f"dimension must lie in 2..{MAX_DIM}, got {value!r}")
    return d


def catalog(name: str, params: dict) -> MaterialModel:
    """Build a catalog material from parameters.

    ``params`` carries the dimension ``d``, an integer in 2..MAX_DIM, plus
    the moduli the requested form needs: ``mu`` always; ``kappa`` for the
    nearly incompressible forms; ``c1`` (or ``kappa``) for the Ogden foam;
    ``b`` for Ogden-Hill; ``cbar``/``b`` for Bischoff-Arruda-Grosh.  A
    parameter given as None counts as absent; a dimension or any of these
    five moduli that is not a finite number is BadModuli.  Each catalog
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

    held in ``_LAWS`` as a constant plus rows of the three term kinds of
    MaterialModel, ``log J``, ``(J - a)^p`` and ``cosh b(J - 1)``, each of
    which writes its value, its derivatives and their signs once.  Any other
    name is UnknownModel; a law of other terms is a MaterialModel of its own rows.
    """
    params = {key: v for key, v in params.items() if v is not None}
    d = _dimension(params.get("d", params.get("dimension", 3)))
    for key in ("mu", "kappa", "c1", "b", "cbar"):
        if key in params:
            params[key] = _modulus(key, params[key])
    mu, kappa = params.get("mu", 1.0), params.get("kappa")
    if not (mu > 0):
        raise BadModuli(f"mu must be positive, got {mu}")

    law = _LAWS.get(name)
    if law is None:
        raise UnknownModel(f"unknown material model {name!r}")
    kappa, const, rows = law(mu, kappa, d, params)
    return MaterialModel(name, mu, rows, const=-0.5 * d * mu + const, declared_bulk=kappa,
                         dimension=d)


# ---------------------------------------------------------------------------
# hypothesis checks

def check_hypotheses(m: MaterialModel, d: int) -> HypothesisReport:
    """The convexity hypotheses and small-strain relations of m.

    Reads h' <= 0, h'' > 0 and h''' < 0 on every J > 0 from m's rows
    (MaterialModel.derivative_sign on (0, inf)), and checks the stress-free
    reference h'(1) = -mu and the bulk relation kappa = mu(2/d - 1) + h''(1)
    against the declared bulk modulus: h is evaluated at J = 1 only.  Poisson
    ratio and first Lame parameter are derived from the effective (h''-implied)
    bulk modulus.
    """
    h1_sign, h2_sign, h3_sign = (m.derivative_sign(n, 0.0, np.inf) for n in (1, 2, 3))
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

    return HypothesisReport(
        h2_positive=bool(h2_sign == 1),
        h3_negative=bool(h3_sign == -1),
        free_stress=free_stress,
        bulk_relation=bulk_relation,
        poisson=float(poisson),
        lame_first=float(lame_first),
        effective_bulk=float(effective_bulk),
        h_nonincreasing=bool(h1_sign <= 0),
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
