"""Uniform-vs-weak stability classification of a Lax front.

The decision rule: a front with stability parameter rho <= 0 is
uniformly stable outright; for rho > 0 it is uniformly stable iff

    G(xi) = (sqrt(zeta) + tau*eta)^2 - rho kappa2+ P / (s^2 theta11)

stays positive for every unit transverse vector xi, and weakly stable
(a surface wave exists) as soon as G touches zero.  G is homogeneous of
degree two, so the sphere search decides the sign globally.

Every alpha > 0 front is uniform with no search: build admits alpha > 0 only
when h''' > 0 on the jump interval, so J- < J+, and in divided differences of h'
rho = (J- - J+) ([h'; J+, J+, J-] + [h'; J+, J-] / J+) < 0 when h'' > 0.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import AlphaOutOfRange, InvalidBracket, VerificationError
from .lopatinskii import _imag_roots
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
    "transition_alpha",
]

UNIFORM = "uniform"
WEAK = "weak"

MARGINAL_BAND = 1e-10
TRANSITION_TOL = 1e-6  # the width to which transition_alpha bisects its bracket


class Witness(NamedTuple):
    """Frequency direction and imaginary-axis root certifying weak stability."""

    xi_t: np.ndarray
    t_root: float
    criterion_value: float


class StabilityVerdict(NamedTuple):
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
# dG/du within SLOPE_NOISE |grad_v G| |dy| / |y| of zero has the sign of its rounding error
SLOPE_NOISE = 64.0 * np.finfo(float).eps


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
    """G at the unit directions v = y / |y| of the eigen-coordinate rows y (..., k),
    dG/du along a piece y(u) with y' = dy, by the chain rule through N and eta:
    G' = 2a (zeta' / (2 sqrt(zeta)) + tau eta') - c P' with a = sqrt(zeta) + tau eta and
    c = rho kappa2+ / (s^2 theta11), and the rounding level of that G'.  The tangent
    dv = (dy - v (v.dy)) / |y| cancels where dy is nearly parallel to y, near a pole of
    the curve, and carries an error of about eps |dy| / |y|; G' is the gradient of G
    along dv, so its rounding level is SLOPE_NOISE |grad_v G| |dy| / |y|."""
    v, norm = _unit(y)
    dv = (dy - v * (v * dy).sum(axis=-1)[..., None]) / norm
    g, eta, zeta = _eigen_criterion(fr, lam, b, v)
    dN, deta = 2.0 * (v * dv) @ lam, dv @ b
    w, h2 = np.sqrt(np.maximum(zeta, 0.0)), fr.h2_plus
    dzeta = h2 * dN - 2.0 * h2 * h2 * eta * deta / fr.kappa2_plus
    dP = fr.theta11 * dN - 2.0 * eta * deta
    a, da, surface = w + fr.tau * eta, 0.5 * dzeta / w + fr.tau * deta, _surface_term(fr, dP)
    # dG/dN and dG/deta; |G_v| <= 2 lam_max |G_N| + |b| |G_eta| scales the error of dv
    c = _surface_term(fr, 1.0)
    g_N = a * h2 / w - c * fr.theta11
    g_eta = 2.0 * a * (fr.tau - h2 * h2 * eta / (fr.kappa2_plus * w)) + 2.0 * c * eta
    grad = 2.0 * lam[-1] * np.abs(g_N) + np.linalg.norm(b) * np.abs(g_eta)
    noise = SLOPE_NOISE * grad * np.sqrt((dy * dy).sum(axis=-1)) / norm[..., 0]
    return g, 2.0 * a * da - surface, noise


def _piece_minima(fr: FrontStack, lam, b, y, n_pieces: int, us: np.ndarray) -> tuple:
    """Lowest G of each front on the pieces y(piece, u), either sign of xi: (value, piece, u).
    Each sample interval where dG/du turns from negative to non-negative brackets a root,
    and Illinois steps run on the brackets of all fronts as one array, each bracket
    stopping on its own, so no front's result depends on the others.  A bracket stops when
    its new point is not strictly inside or has slope exactly 0, once it is no wider
    than WIDTH_RTOL relative to u, where a further step moves u by a few ulps at most, or
    once the slopes at both its ends are within their rounding level, where G is flat to
    rounding and the side of a further step is noise."""
    n, n_u = fr.rho.shape[0], us.size
    Y, dY = y(np.repeat(np.arange(n_pieces), n_u), np.tile(us, n_pieces))
    sign = np.array([1.0, -1.0])[:, None, None, None]
    g, dg, noise = (v.reshape(2, n, n_pieces, n_u)
                    for v in _criterion_slope(fr, lam, b, sign * Y, sign * dY))
    side, front, piece, i = slot = np.nonzero((dg[..., :-1] < 0) & (dg[..., 1:] >= 0))
    right = (side, front, piece, i + 1)
    # Illinois: (u1, s1) is the latest point, (u0, s0) the bracket end on the other side;
    # e0 and e1 are the rounding levels of their slopes
    u0, s0, e0, u1, s1, e1, g1 = (us[i], dg[slot], noise[slot], us[i + 1], dg[right],
                                  noise[right], g[right])
    at, k = fr.rows(front), np.arange(front.size)
    for _ in range(MAX_STEPS):
        if not k.size:
            break
        x = u1[k] - s1[k] * (u1[k] - u0[k]) / (s1[k] - s0[k])
        yx, dyx = (sign[side[k], 0] * v[:, None] for v in y(piece[k], x))
        gx, sx, ex = (v[:, 0] for v in _criterion_slope(at.rows(k), lam, b, yx, dyx))
        moving = ((x - u0[k]) * (x - u1[k]) < 0) & (sx != 0)
        flip = (sx < 0) != (s1[k] < 0)
        u0[k], s0[k], e0[k] = (np.where(flip, u1[k], u0[k]), np.where(flip, s1[k], 0.5 * s0[k]),
                               np.where(flip, e1[k], e0[k]))
        u1[k], s1[k], e1[k], g1[k] = x, sx, ex, gx
        wide = np.abs(x - u0[k]) > WIDTH_RTOL * np.maximum(x, u0[k])  # u >= 0
        k = k[moving & wide & ((np.abs(s0[k]) > e0[k]) | (np.abs(sx) > ex))]
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
    the typed error that stopped it in build_stack or of the first check here it fails; a
    row whose rho is not finite, or whose h''(J+)^2 or sphere minimum overflows, is
    AlphaOutOfRange.
    """
    out = list(fronts.errors)
    live = np.flatnonzero(_live(out))
    lax = np.greater(_lax_margins(fronts.rows(live)), 0).all(axis=0)[:, 0]
    for i in live[~lax]:
        out[i] = InvalidBracket("classify requires a front with strict Lax margins")
    live = live[lax]
    finite = np.isfinite(fronts.rho[live, 0])
    for i in live[~finite]:
        out[i] = AlphaOutOfRange(f"alpha = {fronts.alpha[i, 0]} gives rho = {fronts.rho[i, 0]}")
    live = live[finite]
    rho = fronts.rho[live, 0]
    for i in live[rho <= 0]:
        out[i] = StabilityVerdict(kind=UNIFORM, rho=float(fronts.rho[i, 0]))
    searched = live[rho > 0]
    with np.errstate(over="ignore"):
        h2_sq = np.float64(fronts.h2_plus) ** 2
    if np.isinf(h2_sq):  # G takes h''(J+)^2, so it has no float value on any front
        for i in searched:
            out[i] = AlphaOutOfRange(
                f"alpha = {fronts.alpha[i, 0]} overflows the criterion: h''(J+)^2 is not finite")
        return out
    fr = fronts.rows(searched)
    with np.errstate(all="ignore"):  # a front whose search overflows has no finite minimum
        x_best, v_best = _sphere_minima(fr)
    lost = ~np.isfinite(v_best)
    for i in searched[lost]:
        out[i] = AlphaOutOfRange(f"alpha = {fronts.alpha[i, 0]} overflows the criterion: its "
                                 "minimum over the sphere is not finite")
    weak = (v_best < MARGINAL_BAND) & ~lost
    uniform = ~weak & ~lost
    for i, v in zip(searched[uniform], v_best[uniform].tolist()):
        out[i] = StabilityVerdict(kind=UNIFORM, rho=float(fronts.rho[i, 0]), min_criterion=v)
    fw, x_weak, v_weak = fr.rows(np.flatnonzero(weak)), x_best[weak], v_best[weak]
    coeffs = freq_coeffs(fw, x_weak[:, None, :])
    _, t, failed = _imag_roots(fw, coeffs)
    # marginal case with G just above zero: the root degenerates to the branch point sqrt(zeta)
    t = np.where(np.isnan(t), np.sqrt(coeffs.zeta), t)[:, 0]
    for i, x, v, t_root, f in zip(searched[weak], x_weak, v_weak.tolist(), t.tolist(),
                                  failed[:, 0].tolist()):
        if f:
            out[i] = VerificationError("imaginary-axis root refinement exceeded tolerance")
            continue
        out[i] = StabilityVerdict(kind=WEAK, rho=float(fronts.rho[i, 0]), min_criterion=v,
                                  witness=Witness(xi_t=x, t_root=t_root, criterion_value=v),
                                  marginal=abs(v) < MARGINAL_BAND)
    return out


def transition_alpha(
    m: MaterialModel,
    U_plus: np.ndarray,
    v_plus: np.ndarray,
    alpha_lo: float,
    alpha_hi: float,
) -> Optional[float]:
    """Bisect the intensity at which the verdict flips inside a bracket.

    Both endpoints must build valid fronts; returns None when the
    verdict is the same at both ends, otherwise the flip location to
    within TRANSITION_TOL.
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
    while hi - lo > TRANSITION_TOL:
        mid = 0.5 * (lo + hi)
        if verdict_at(mid) == k_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
