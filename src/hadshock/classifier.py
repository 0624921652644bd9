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
from .lopatinskii import _imag_roots, _root_error, _sqrt_anchored
from .materials import MaterialModel
from .shock import (ElasticState, FrontStack, ShockFront, _coeff_algebra, _criterion, _lax_margins,
                    _live, _surface_term, build, freq_coeffs)

__all__ = [
    "UNIFORM",
    "WEAK",
    "Witness",
    "StabilityVerdict",
    "classify",
    "classify_stack",
    "criterion_values",
    "cg_alpha_star",
    "transition_alpha",
    "reference_delta",
]

UNIFORM = "uniform"
WEAK = "weak"

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
# On each 1-D piece y(u), at both signs of xi, the minima of G are the roots where the
# closed-form dG/du turns from negative to non-negative (_piece_minima).

ROUNDING_RTOL = 1.4e-14  # relative size of rounding noise in theta and its eigenvalues
REACH_RTOL = 1e-10  # |b| share below which an eigenspace counts as unreached
MAX_STEPS = 64  # Illinois steps per bracket; the bracket usually collapses in far fewer
WIDTH_RTOL = 4.0 * np.finfo(float).eps  # a bracket this narrow relative to u has converged


def _critical_set(lam: np.ndarray, b: np.ndarray, theta11: float) -> tuple:
    """The rank-deficient set in eigen-coordinates.

    Returns its isolated points as rows, and its 1-D pieces grouped as
    (y, count, samples): y(piece, u) gives the rows y and their derivatives
    dy/du for arrays of piece indices below count and parameters u.  A coupling
    b at rounding level (|b| <= sqrt(theta11 lam_max) bounds it) counts as zero:
    then only the eigenvectors remain.
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
    coupled = (b_eff != 0.0)[None, :]

    def curve(piece, u):
        g = gap[piece]
        off = np.where(infinite[piece], g * u / (1.0 - u), g * u)
        dsigma = np.where(infinite[piece], g / ((1.0 - u) * (1.0 - u)), g)
        D = (snap[None, :] - anchor[piece][:, None]) - off[:, None]
        y, dy = np.zeros_like(D), np.zeros_like(D)
        np.divide(b_eff, D, out=y, where=coupled)
        np.divide(y * dsigma[:, None], D, out=dy, where=coupled)  # y' = b sigma' / D^2
        return y, dy

    # u in (0, 1), log-dense at both ends where the curve turns fast
    ends = 10.0 ** np.linspace(-15.0, -1.0, 113)
    us = np.sort(np.concatenate([np.linspace(0.0, 1.0, 513)[1:-1], ends, 1.0 - ends]))[::16]
    pieces = [(curve, anchor.size, us)]

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
            c, s = np.cos(0.5 * np.pi * u)[:, None], np.sin(0.5 * np.pi * u)[:, None]
            return c * y0[piece] + s * y1[piece], 0.5 * np.pi * (c * y1[piece] - s * y0[piece])

        pieces.append((arc, len(y0), np.linspace(0.0, 1.0, 17)))
    return points, pieces


def _unit(y: np.ndarray) -> tuple:
    """The rows y (..., k) scaled to unit length, and their lengths (..., 1)."""
    norm = np.sqrt((y * y).sum(axis=-1))[..., None]
    return y / norm, norm


def _eigen_criterion(fr, lam: np.ndarray, b: np.ndarray, v: np.ndarray) -> tuple:
    """G at the unit directions v (..., k) in eigen-coordinates, through N = v^T lam v and
    eta = b.v; also eta and zeta."""
    eta = v @ b
    _, P, zeta = _coeff_algebra(fr, eta, (v * v) @ lam, 1.0)
    return _criterion(fr, eta, P, zeta), eta, zeta


def _criterion_slope(fr, lam: np.ndarray, b: np.ndarray, y: np.ndarray, dy: np.ndarray):
    """G at the unit directions v = y / |y| of the eigen-coordinate rows y (..., k), and
    dG/du along a piece y(u) with y' = dy, by the chain rule through N and eta:
    G' = 2a (zeta' / (2 sqrt(zeta)) + tau eta') - c P' with a = sqrt(zeta) + tau eta and
    c = rho kappa2+ / (s^2 theta11)."""
    v, norm = _unit(y)
    dv = (dy - v * (v * dy).sum(axis=-1)[..., None]) / norm
    g, eta, zeta = _eigen_criterion(fr, lam, b, v)
    dN, deta = 2.0 * (v * dv) @ lam, dv @ b
    w, h2 = np.sqrt(np.maximum(zeta, 0.0)), fr.h2_plus
    dzeta = h2 * dN - 2.0 * h2 * h2 * eta * deta / fr.kappa2_plus
    dP = fr.theta11 * dN - 2.0 * eta * deta
    dG = 2.0 * (w + fr.tau * eta) * (0.5 * dzeta / w + fr.tau * deta) - _surface_term(fr, dP)
    return g, dG


def _piece_minima(fr: FrontStack, lam, b, y, n_pieces: int, us: np.ndarray) -> tuple:
    """Lowest G of each front on the pieces y(piece, u), either sign of xi: (value, piece, u).
    Each sample interval where dG/du turns from negative to non-negative brackets a root,
    and Illinois steps run on the brackets of all fronts as one array, each bracket
    stopping on its own, so no front's result depends on the others.  A bracket stops when
    its new point is not strictly inside or has slope exactly 0, or once it is no wider
    than WIDTH_RTOL relative to u, where a further step moves u by a few ulps at most."""
    n, n_u = fr.rho.shape[0], us.size
    Y, dY = y(np.repeat(np.arange(n_pieces), n_u), np.tile(us, n_pieces))
    sign = np.array([1.0, -1.0])[:, None, None, None]
    g, dg = (v.reshape(2, n, n_pieces, n_u)
             for v in _criterion_slope(fr, lam, b, sign * Y, sign * dY))
    side, front, piece, i = slot = np.nonzero((dg[..., :-1] < 0) & (dg[..., 1:] >= 0))
    right = (side, front, piece, i + 1)
    # Illinois: (u1, s1) is the latest point, (u0, s0) the bracket end on the other side
    u0, s0, u1, s1, g1 = us[i], dg[slot], us[i + 1], dg[right], g[right]
    at, k = fr.rows(front), np.arange(front.size)
    for _ in range(MAX_STEPS):
        if not k.size:
            break
        x = u1[k] - s1[k] * (u1[k] - u0[k]) / (s1[k] - s0[k])
        yx, dyx = (sign[side[k], 0] * v[:, None] for v in y(piece[k], x))
        gx, sx = (v[:, 0] for v in _criterion_slope(at.rows(k), lam, b, yx, dyx))
        moving = ((x - u0[k]) * (x - u1[k]) < 0) & (sx != 0)
        flip = (sx < 0) != (s1[k] < 0)
        u0[k], s0[k] = np.where(flip, u1[k], u0[k]), np.where(flip, s1[k], 0.5 * s0[k])
        u1[k], s1[k], g1[k] = x, sx, gx
        k = k[moving & (np.abs(x - u0[k]) > WIDTH_RTOL * np.maximum(x, u0[k]))]  # u >= 0
    u = np.broadcast_to(us, g.shape).copy()
    lower = g1 < g[slot]  # a root, unless the sample at its bracket's left end is lower
    u[slot], g[slot] = np.where(lower, u1, u[slot]), np.where(lower, g1, g[slot])
    g, u = (np.moveaxis(v, 1, 0).reshape(n, 2 * n_pieces * n_u) for v in (g, u))
    j = np.argmin(g, axis=1)  # each front's first candidate with the lowest value
    return g[np.arange(n), j], (j // n_u) % n_pieces, u[np.arange(n), j]


def _sphere_minima(fr: FrontStack) -> tuple:
    """Unit transverse direction minimizing G for each front of a stack, and G there.
    Of the pair +/-xi the one whose first nonzero entry is negative is reported when
    both give the same value, so the witness is deterministic."""
    n, k = fr.rho.shape[0], fr.dim - 1
    if k == 1:
        xi = np.ones((n, 1))
    else:
        lam, vecs = np.linalg.eigh(fr.theta[1:, 1:])
        b = vecs.T @ fr.theta[0, 1:]
        points, pieces = _critical_set(lam, b, fr.theta11)
        unit = _unit(points)[0]
        vals = _eigen_criterion(fr, lam, b, np.stack([unit, -unit])[:, None])[0].min(axis=0)
        i = np.argmin(vals, axis=1)
        best_val, y = vals[np.arange(n), i], points[i]
        for fn, count, us in pieces:
            val, piece, u = _piece_minima(fr, lam, b, fn, count, us)
            better = val < best_val
            best_val = np.where(better, val, best_val)
            y = np.where(better[:, None], fn(piece, u)[0], y)
        xi = (vecs @ y[..., None])[..., 0]
        xi /= np.sqrt(xi[:, None, :] @ xi[..., None])[:, 0]
    first = xi[np.arange(n), np.argmax(xi != 0, axis=1)]
    xi = np.where(first[:, None] > 0, -xi, xi)
    pair = np.stack([xi, -xi], axis=1)
    vals = criterion_values(fr, pair)
    i = np.argmin(vals, axis=1)
    return pair[np.arange(n), i], vals[np.arange(n), i]


def classify(sf: ShockFront) -> StabilityVerdict:
    """Uniform or weak stability of a constructed Lax front: classify_stack of the one
    front, raising its error."""
    verdict = classify_stack(FrontStack.of(sf))[0]
    if isinstance(verdict, Exception):
        raise verdict
    return verdict


def classify_stack(fronts: FrontStack) -> list:
    """Uniform or weak stability of each front of a stack, in one array pass.

    rho <= 0 short-circuits to Uniform with no sphere search.  For rho > 0 the
    criterion G is minimized over the unit sphere of transverse directions (two points
    when it is {-1, +1}; otherwise over the set where the minimum must lie, its isolated
    points and the roots of dG/du on its 1-D pieces, from one eigendecomposition of
    theta_TT).  A minimum within +/-1e-10 of zero is Weak with the ``marginal`` flag,
    since the exact threshold carries the root at t = sqrt(zeta); a Weak verdict's witness
    is the minimizing direction and its imaginary-axis root.  A row gets its verdict, or
    the typed error that stopped it in build_stack or of the first check here it fails.
    The alpha > 0 warning is given once per call.
    """
    out = list(fronts.errors)
    live = np.flatnonzero(_live(out))
    lax = np.greater(_lax_margins(fronts.rows(live)), 0).all(axis=0)[:, 0]
    for i in live[~lax]:
        out[i] = InvalidBracket("classify requires a front with strict Lax margins")
    live = live[lax]
    if np.any(fronts.alpha[live] > 0):
        warnings.warn("classification is certified for the h''' < 0, alpha < 0 regime; "
                      "alpha > 0 results are best-effort", stacklevel=2)
    rho = fronts.rho[live, 0]
    for i in live[rho <= 0]:
        out[i] = StabilityVerdict(kind=UNIFORM, rho=float(fronts.rho[i, 0]))
    searched = live[rho > 0]
    fr = fronts.rows(searched)
    x_best, v_best = _sphere_minima(fr)
    weak = v_best < MARGINAL_BAND
    for i, v in zip(searched[~weak], v_best[~weak].tolist()):
        out[i] = StabilityVerdict(kind=UNIFORM, rho=float(fronts.rho[i, 0]), min_criterion=v)
    fw, x_weak, v_weak = fr.rows(np.flatnonzero(weak)), x_best[weak], v_best[weak]
    coeffs = freq_coeffs(fw, x_weak[:, None, :])
    _, t, failed = _imag_roots(fw, coeffs)
    # marginal case with G just above zero: the root degenerates to the branch point sqrt(zeta)
    t = np.where(np.isnan(t), np.sqrt(coeffs.zeta), t)[:, 0]
    for i, x, v, t_root, f in zip(searched[weak], x_weak, v_weak.tolist(), t.tolist(),
                                  failed[:, 0].tolist()):
        out[i] = _root_error(f) if f else StabilityVerdict(
            kind=WEAK, rho=float(fronts.rho[i, 0]), min_criterion=v,
            witness=Witness(xi_t=x, t_root=t_root, criterion_value=v),
            marginal=abs(v) < MARGINAL_BAND)
    return out


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
