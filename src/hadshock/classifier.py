"""Uniform-vs-weak stability classification of a Lax front.

The decision rule: a front with stability parameter rho <= 0 is
uniformly stable outright; for rho > 0 it is uniformly stable iff

    G(xi) = (sqrt(zeta) + tau*eta)^2 - rho kappa2+ P / (s^2 theta11)

stays positive for every unit transverse vector xi, and weakly stable
(a surface wave exists) as soon as G touches zero.  G is homogeneous of
degree two, so the sphere search decides the sign globally.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParams, DegenerateModuli, InvalidBracket
from .lopatinskii import _sqrt_anchored, imag_scan, winding
from .materials import MaterialModel
from .shock import (ElasticState, ShockFront, _coeff_algebra, _criterion, build, freq_coeffs,
                    lax_check)

__all__ = [
    "UNIFORM",
    "WEAK",
    "INCONSISTENT",
    "Witness",
    "StabilityVerdict",
    "classify",
    "criterion_values",
    "cg_alpha_star",
    "transition_alpha",
    "reference_delta",
]

UNIFORM = "uniform"
WEAK = "weak"
INCONSISTENT = "inconsistent"

MARGINAL_BAND = 1e-10


@dataclass
class Witness:
    """Frequency direction and imaginary-axis root certifying weak stability."""

    xi_t: np.ndarray
    t_root: float
    criterion_value: float


@dataclass
class StabilityVerdict:
    kind: str
    rho: float
    min_criterion: Optional[float] = None
    witness: Optional[Witness] = None
    marginal: bool = False
    diagnostic: Optional[str] = None


def criterion_values(sf: ShockFront, points: np.ndarray) -> np.ndarray:
    """Vectorized G over rows of unit transverse vectors."""
    c = freq_coeffs(sf, np.atleast_2d(np.asarray(points, dtype=float)))
    return _criterion(sf, c.eta, c.P, c.zeta)


# ---------------------------------------------------------------------------
# exact sphere minimum
#
# On the unit sphere G depends on xi only through N = xi^T theta_TT xi and
# eta = theta_1T . xi.  With w = sqrt(zeta) > 0, G = p w^2 + 2 tau eta w
# + r eta^2 + C0, a quadratic with no stationary point at w > 0, so the
# minimum lies where xi -> (N, eta) loses rank on the sphere:
# (theta_TT - sigma I) xi = c theta_1T.  In the eigenbasis theta_TT =
# V diag(lam) V^T, b = V^T theta_1T, that set is
#   - the points v_j and theta_1T / |theta_1T|;
#   - the curve y(sigma) = b / (lam - sigma) on each interval between
#     consecutive eigenvalues that b reaches, and beyond the outer ones;
#   - the whole eigenspace of a reached multiple eigenvalue;
#   - the segments t w_c + e, w_c = (theta_TT - lam_c I)^+ theta_1T and e in
#     the eigenspace, of an eigenvalue that b does not reach.
# Each 1-D piece is sampled on a fixed grid in a parameter u in (0, 1), at
# both signs of xi, and the lowest sampled local minima are refined by
# repeatedly shrinking their brackets; refining only the best sample can
# land in the wrong basin where a piece turns fast.

ROUNDING_RTOL = 1.4e-14  # relative size of rounding noise in theta and its eigenvalues
REACH_RTOL = 1e-10  # |b| share below which an eigenspace counts as unreached
MAX_REFINED = 32  # lowest sampled local minima refined per kind of piece
ZOOM_NODES = 17  # each refinement round shrinks a bracket 8-fold
ZOOM_ROUNDS = 17


def _curve_samples() -> np.ndarray:
    """u in (0, 1), log-dense at both ends where the sigma-curve turns fast."""
    ends = 10.0 ** np.linspace(-15.0, -1.0, 113)
    return np.sort(np.concatenate([np.linspace(0.0, 1.0, 513)[1:-1], ends, 1.0 - ends]))


def _critical_set(lam: np.ndarray, b: np.ndarray, theta11: float) -> tuple:
    """The rank-deficient set in eigen-coordinates.

    Returns its isolated points as rows, and its 1-D pieces grouped as
    (y, count, samples): y(piece, u) gives rows y for arrays of piece
    indices below count and parameters u.  A coupling b at rounding level
    (|b| <= sqrt(theta11 lam_max) bounds it) counts as zero: then only the
    eigenvectors remain.
    """
    k = lam.size
    eye = np.eye(k)
    bnorm = float(np.linalg.norm(b))
    if bnorm <= ROUNDING_RTOL * np.sqrt(theta11 * lam[-1]):
        return eye, []
    points = np.vstack([eye, b / bnorm])

    # cluster (numerically) equal eigenvalues; snap each cluster to its first member
    starts = np.flatnonzero(np.r_[True, np.diff(lam) > ROUNDING_RTOL * lam[-1]])
    bounds = list(zip(starts, np.r_[starts[1:], k]))
    snap = np.concatenate([np.full(hi - lo, lam[lo]) for lo, hi in bounds])
    reached = [float(np.linalg.norm(b[lo:hi])) > REACH_RTOL * bnorm for lo, hi in bounds]
    b_eff = b.copy()
    for (lo, hi), r in zip(bounds, reached):
        if not r:
            b_eff[lo:hi] = 0.0

    # sigma = anchor + gap * u between reached eigenvalues, anchor + gap * u / (1 - u)
    # below the smallest (gap < 0) and above the largest
    poles = np.array([lam[lo] for (lo, hi), r in zip(bounds, reached) if r])
    scale = float(lam[-1])
    anchor = np.r_[poles[0], poles]
    gap = np.r_[-scale, np.diff(poles), scale]
    infinite = np.r_[True, np.zeros(poles.size - 1, dtype=bool), True]

    def curve(piece, u):
        g = gap[piece]
        off = np.where(infinite[piece], g * u / (1.0 - u), g * u)
        D = (snap[None, :] - anchor[piece][:, None]) - off[:, None]
        out = np.zeros_like(D)
        np.divide(b_eff, D, out=out, where=(b_eff != 0.0)[None, :])
        return out

    pieces = [(curve, anchor.size, _curve_samples())]

    # arcs cos(pi u / 2) y0 + sin(pi u / 2) y1 between orthonormal y0, y1
    y0, y1 = [], []
    for (lo, hi), r in zip(bounds, reached):
        if r and hi - lo > 1:
            # the whole eigenspace: its reached direction turning into one it misses
            uc = np.zeros(k)
            uc[lo:hi] = b[lo:hi] / np.linalg.norm(b[lo:hi])
            j = lo + int(np.argmin(np.abs(uc[lo:hi])))
            e = eye[j] - uc[j] * uc
            y0.append(uc)
            y1.append(e / np.linalg.norm(e))
        elif not r:
            w = np.zeros(k)
            outside = np.r_[:lo, hi:k]
            w[outside] = b_eff[outside] / (snap[outside] - lam[lo])
            y0.append(w / np.linalg.norm(w))
            y1.append(eye[lo])
    if y0:
        y0, y1 = np.array(y0), np.array(y1)

        def arc(piece, u):
            return (np.cos(0.5 * np.pi * u)[:, None] * y0[piece]
                    + np.sin(0.5 * np.pi * u)[:, None] * y1[piece])

        pieces.append((arc, len(y0), np.linspace(0.0, 1.0, 257)))
    return points, pieces


def _sphere_coeffs(sf: ShockFront, lam: np.ndarray, b: np.ndarray, Y: np.ndarray):
    """eta, P and zeta of the unit directions along the eigen-coordinate rows Y."""
    sq = Y * Y
    norm2 = sq.sum(axis=1)
    eta = Y @ b / np.sqrt(norm2)
    _, P, zeta = _coeff_algebra(sf, eta, sq @ lam / norm2, 1.0)
    return eta, P, zeta


def _piece_minimum(sf: ShockFront, lam, b, y, n_pieces: int, us: np.ndarray) -> tuple:
    """Lowest G on the pieces y(piece, u), either sign of xi: (value, piece, u)."""
    n_u = us.size
    piece = np.repeat(np.arange(n_pieces), n_u)
    eta, P, zeta = _sphere_coeffs(sf, lam, b, y(piece, np.tile(us, n_pieces)))
    vals = np.stack([_criterion(sf, eta, P, zeta), _criterion(sf, -eta, P, zeta)]).reshape(-1, n_u)
    # sampled local minima (leftmost point of a plateau), lowest first
    left = np.c_[np.full(len(vals), np.inf), vals[:, :-1]]
    right = np.c_[vals[:, 1:], np.full(len(vals), np.inf)]
    row, i = np.nonzero((vals < left) & (vals <= right))
    keep = np.argsort(vals[row, i], kind="stable")[:MAX_REFINED]
    row, i = row[keep], i[keep]
    sign = np.where(row < n_pieces, 1.0, -1.0)
    piece = row % n_pieces
    lo, hi = us[np.maximum(i - 1, 0)], us[np.minimum(i + 1, n_u - 1)]
    n = row.size
    zoom = np.linspace(0.0, 1.0, ZOOM_NODES)
    for _ in range(ZOOM_ROUNDS):
        u = lo[:, None] + (hi - lo)[:, None] * zoom[None, :]
        eta, P, zeta = _sphere_coeffs(sf, lam, b, y(np.repeat(piece, ZOOM_NODES), u.ravel()))
        g = _criterion(sf, np.repeat(sign, ZOOM_NODES) * eta, P, zeta).reshape(n, -1)
        j = np.argmin(g, axis=1)
        lo = u[np.arange(n), np.maximum(j - 1, 0)]
        hi = u[np.arange(n), np.minimum(j + 1, ZOOM_NODES - 1)]
    best = int(np.argmin(g[np.arange(n), j]))
    return float(g[best, j[best]]), piece[best], u[best, j[best]]


def _sphere_minimum(sf: ShockFront) -> tuple:
    """Unit transverse direction minimizing G, and G there.

    Of the pair +/-xi the one whose first nonzero entry is negative is
    reported when both give the same value, so the witness is
    deterministic.
    """
    k = sf.dim - 1
    if k == 1:
        xi = np.ones(1)
    else:
        lam, vecs = np.linalg.eigh(sf.theta[1:, 1:])
        b = vecs.T @ sf.theta[0, 1:]
        points, pieces = _critical_set(lam, b, sf.theta11)
        eta, P, zeta = _sphere_coeffs(sf, lam, b, points)
        vals = np.minimum(_criterion(sf, eta, P, zeta), _criterion(sf, -eta, P, zeta))
        i = int(np.argmin(vals))
        best_val, y = vals[i], points[i]
        for fn, count, us in pieces:
            val, piece, u = _piece_minimum(sf, lam, b, fn, count, us)
            if val < best_val:
                best_val, y = val, fn(np.array([piece]), np.array([u]))[0]
        xi = vecs @ y
        xi /= np.linalg.norm(xi)
    if xi[np.flatnonzero(xi)[0]] > 0:
        xi = -xi
    pair = np.array([xi, -xi])
    vals = criterion_values(sf, pair)
    i = int(np.argmin(vals))
    return pair[i], float(vals[i])


def classify(sf: ShockFront, check_winding: bool = False) -> StabilityVerdict:
    """Decide uniform vs weak stability of a constructed Lax front.

    rho <= 0 short-circuits to Uniform with no sphere search.  For
    rho > 0 the criterion G is minimized over the unit sphere of
    transverse directions (exact two-point evaluation when the sphere is
    {-1, +1}; otherwise a search of the 1-D set where the minimum must
    lie, from one eigendecomposition of theta_TT).  A minimum within
    +/-1e-10 of zero is reported Weak with the ``marginal`` flag, since
    the exact threshold carries the root at t = sqrt(zeta).  With ``check_winding`` and rho < 0, a nonzero
    winding count (impossible for a consistent model) yields an
    Inconsistent verdict instead of a stability claim.
    """
    if not lax_check(sf).ok:
        raise InvalidBracket("classify requires a front with strict Lax margins")
    if sf.alpha > 0:
        warnings.warn(
            "classification is certified for the h''' < 0, alpha < 0 regime; "
            "alpha > 0 results are best-effort",
            stacklevel=2,
        )

    if sf.rho <= 0:
        if check_winding and sf.rho < 0:
            for xi in np.eye(sf.dim - 1):
                w = winding(sf, xi, R=20.0)
                if w != 0:
                    return StabilityVerdict(
                        kind=INCONSISTENT,
                        rho=sf.rho,
                        diagnostic=f"winding {w} != 0 at xi_t={xi.tolist()}, rho={sf.rho}",
                    )
        return StabilityVerdict(kind=UNIFORM, rho=sf.rho, min_criterion=None)

    x_best, v_best = _sphere_minimum(sf)

    if v_best >= MARGINAL_BAND:
        return StabilityVerdict(kind=UNIFORM, rho=sf.rho, min_criterion=v_best)

    marginal = abs(v_best) < MARGINAL_BAND
    scan = imag_scan(sf, x_best)
    if scan.roots:
        t_root = scan.roots[0]
    else:
        # marginal case with G just above zero: the root degenerates to
        # the branch point t = sqrt(zeta)
        t_root = float(np.sqrt(freq_coeffs(sf, x_best).zeta))
    witness = Witness(xi_t=x_best, t_root=t_root, criterion_value=v_best)
    return StabilityVerdict(
        kind=WEAK, rho=sf.rho, min_criterion=v_best, witness=witness, marginal=marginal
    )


def cg_alpha_star(mu: float, kappa: float) -> float:
    """Exact weak/uniform threshold intensity for the 2-D Ciarlet-Geymonat
    model with undeformed base state:
    -(mu + sqrt(mu^2 + 4(kappa^2 - mu^2))) / (2(kappa - mu)).
    """
    if not (mu > 0) or kappa <= mu:
        raise DegenerateModuli(f"requires kappa > mu > 0, got mu={mu}, kappa={kappa}")
    return -(mu + np.sqrt(mu**2 + 4.0 * (kappa**2 - mu**2))) / (2.0 * (kappa - mu))


def transition_alpha(
    m: MaterialModel,
    U_plus: np.ndarray,
    v_plus: np.ndarray,
    alpha_lo: float,
    alpha_hi: float,
    tol: float = 1e-6,
) -> Optional[float]:
    """Bisect the intensity at which the verdict flips inside a bracket.

    Both endpoints must build valid fronts; returns None when the
    verdict is the same at both ends, otherwise the flip location to
    within ``tol``.
    """

    def verdict_at(alpha: float) -> str:
        sf = build(m, ElasticState(U_plus, v_plus), alpha)
        return classify(sf).kind

    try:
        k_lo = verdict_at(alpha_lo)
        k_hi = verdict_at(alpha_hi)
    except Exception as exc:
        raise InvalidBracket(f"bracket endpoint failed to build/classify: {exc}") from exc
    if k_lo == k_hi:
        return None
    lo, hi = float(alpha_lo), float(alpha_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if verdict_at(mid) == k_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_delta(example: str, params: dict, gamma: complex, xi_t=None) -> complex:
    """Closed-form determinants of the two worked model scenarios.

    ``CG2D``: 2-D Ciarlet-Geymonat, undeformed base state.  ``Blatz3D``:
    3-D Blatz, undeformed base state, with |xi_t|^2 eliminated through
    the hemisphere constraint so the value depends on gamma alone.
    Both serve as independent cross-checks of delta_v2.
    """
    gamma = complex(gamma)
    mu = float(params["mu"])
    kappa = float(params["kappa"])
    alpha = float(params["alpha"])
    if example == "CG2D":
        if not (kappa > mu > 0):
            raise BadParams(f"CG2D requires kappa > mu > 0, got mu={mu}, kappa={kappa}")
        if alpha >= 0:
            raise BadParams(f"CG2D requires alpha < 0, got {alpha}")
        xi2 = 1.0 if xi_t is None else float(np.atleast_1d(xi_t)[0])
        s_sq = kappa + mu / (1.0 - alpha)
        k2 = mu + kappa
        c = np.sqrt(k2 / s_sq)  # -sqrt(kappa2+)/s with s < 0
        zeta = k2 * xi2 * xi2
        root = complex(_sqrt_anchored(gamma, zeta))
        return complex((gamma + c * root) ** 2 - alpha * (kappa**2 - mu**2) * xi2 * xi2 / s_sq)
    if example == "Blatz3D":
        if not (kappa > 2.0 * mu / 3.0) or not (mu > 0):
            raise BadParams(f"Blatz3D requires kappa > 2mu/3 > 0, got mu={mu}, kappa={kappa}")
        if alpha >= 0:
            raise BadParams(f"Blatz3D requires alpha < 0, got {alpha}")
        k2 = kappa + 4.0 * mu / 3.0
        s_sq = mu + (kappa + mu / 3.0) / (1.0 - alpha)
        c1 = np.sqrt(k2 / s_sq)  # -sqrt(kappa2+)/s
        xi_sq = 1.0 - (k2 - s_sq) / k2 * abs(gamma) ** 2
        if xi_sq < -1e-12:
            raise BadParams(f"gamma = {gamma} lies outside the remapped hemisphere")
        zeta = k2 * max(xi_sq, 0.0)
        root = complex(_sqrt_anchored(gamma, zeta))
        return complex((gamma + c1 * root) ** 2)
    raise BadParams(f"unknown reference example {example!r}")
