"""Brute-force verification routes for every closed form in the package.

Nothing here reuses the simplified expressions under test: fluxes are
differentiated by complex step, the full (d^2+d)-dimensional frequency
symbol is assembled and diagonalized densely, and the stability
function is rebuilt from the raw jump vector.  The references that only
cross-checks use live here too: the residual of the stable root, the
rho < 0 factorization of the stability function with its winding count,
and the closed forms of the worked examples.  The ``verify_suite`` entry
point runs all identity checks over Lax-front scenarios drawn from Python's
``random.Random(seed)`` and reports the worst error per identity.
"""

import random
from types import SimpleNamespace

import numpy as np

from .classifier import criterion_values
from .errors import (BadParams, CharacteristicSpeed, ConfigError, DegenerateModuli, DomainError,
                     HadshockError, NoConvergence, RhoNotNegative, VerificationError)
from .linalg import cofactor
from .lopatinskii import (_beta_from_gamma, _product, _sqrt_anchored, _square, _v2_base,
                          delta_v1_values, delta_v2_values, freq_map_values, freq_unmap_values,
                          stable_beta_values, winding_number)
from .materials import (MAX_DIM, MaterialModel, acoustic_spectrum, acoustic_tensor, b_blocks,
                        catalog, char_speeds, energy, piola_kirchhoff)
from .shock import ElasticState, ShockFront, build, freq_coeffs, genuine_nonlinearity

__all__ = [
    "assemble_Aj",
    "assemble_symbol",
    "assemble_calA",
    "stress_jump",
    "jump_vector",
    "dense_eig",
    "g_matrices",
    "formula_left_eigenvector",
    "delta_hat_assembled",
    "delta_v1_raw_terms",
    "left_eigvec_residual",
    "hersh_counts",
    "beta_residual",
    "delta_v3_values",
    "v3_factors_values",
    "winding",
    "cg_alpha_star",
    "reference_delta",
    "sphere_min_reference",
    "fd_check_suite",
    "random_material",
    "random_shock",
    "sample_frequency",
    "verify_suite",
]

EIG_CLUSTER_TOL = 1e-7
SPHERE_POINTS = 8192  # the covering of the unit sphere that sphere_min_reference polishes
MIN_RE_LAMBDA = 0.05  # sample_frequency's least Re lambda
CONTROL_NODES = 24  # nodes per axis of the negative-control grid
STACK_BYTES = 1 << 19  # 512 KiB, about what one stacked verify call holds: bounds its memory
SHOCK_TRIES = 200  # draws random_shock makes before it gives up

# The assembly functions take the B-blocks ``b_blocks(m, U)`` (at U+ for a
# front), so that one scenario computes them once for every check.


def assemble_Aj(B: np.ndarray, j: int) -> np.ndarray:
    """Flux Jacobian in the j-th coordinate direction (1-based j), a dense
    (d^2+d) x (d^2+d) complex matrix, or a stack of them for B-blocks (..., d, d, d, d).

    State ordering: the d columns of U stacked first, velocity last.
    Block (j, v) holds -I_d and the velocity row holds the second
    derivative blocks -B_i^j.
    """
    d = B.shape[-1]
    n = d * d + d
    A = np.zeros(B.shape[:-4] + (n, n))
    A[..., (j - 1) * d : j * d, d * d :] = -np.eye(d)
    # column block i of the velocity row is -B_i^j
    A[..., d * d :, : d * d] = -np.moveaxis(B[..., j - 1, :, :], -3, -2).reshape(
        B.shape[:-4] + (d, d * d))
    return A.astype(complex)


def assemble_symbol(B: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Directional symbol sum(xi_j A^j), or a stack of them for B-blocks (..., d, d, d, d)."""
    d = B.shape[-1]
    xi = np.asarray(xi, dtype=float)
    A = np.zeros(B.shape[:-4] + (d * d + d, d * d + d), dtype=complex)
    for j in range(1, d + 1):
        if xi[j - 1] != 0.0:
            A += xi[j - 1] * assemble_Aj(B, j)
    return A


# The frequency functions take stacks, lam (...) and xi_t (..., k); one frequency is a 0-d
# lam with a 1-D xi_t.  verify_suite also hands them a dimension's scenarios as one stack
# (_stack_fronts): each field of the front gains a leading scenario axis, a scalar as an
# (S, 1) column against frequencies (S, m), a matrix as (S, 1, d, d); the B-blocks and the
# stress jump [[P]], which the caller passes next to the front, come as (S, 1, d, d, d, d)
# and (S, 1, d, d).  The characteristic-speed guard reads its speeds from the front's
# fields; A^j, A^1 - s I and its norm are computed once per call, and the dense work is one
# stacked solve, eig and svd.  Element i of a stack has the bits of the call on frequency
# i: stacked linear algebra and matmul run the same LAPACK/BLAS call per slice as long as
# the operands are C-contiguous (numpy's non-BLAS matmul loop rounds differently), and a
# complex product that one frequency takes in Python arithmetic is written out in real
# parts (numpy's vector loop may fuse its multiply-adds).


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the real or complex vectors x[..., :], rounded as np.linalg.norm of one
    vector (the real and imaginary dot products summed)."""
    x = np.ascontiguousarray(x)
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])


def stress_jump(sf: ShockFront) -> np.ndarray:
    """[[P]] = P(U+) - P(U-) of the first Piola-Kirchhoff stress, from one stacked call."""
    P = piola_kirchhoff(sf.material, np.stack((sf.plus.U, sf.minus.U)))
    return P[0] - P[1]


def _calA_factors(sf: ShockFront, B: np.ndarray, lam, xi_t):
    """(lambda I + i sum xi_j A^j, A^1 - s I) at U+: the first (..., n, n) over the
    frequencies, the second one (n, n) per front; the frequency symbol is num denom^(-1)."""
    d = sf.dim
    n = d * d + d
    s = np.asarray(sf.speed)
    # |s| against the characteristic speeds' sizes 0, sqrt(mu) and sqrt(kappa2+), which are
    # char_speeds' values at U+ bit for bit
    a = np.abs(s)
    gap = np.minimum.reduce([np.abs(a - c) for c in
                             (0.0, np.sqrt(sf.material.mu), np.sqrt(sf.kappa2_plus))])
    near = gap < 1e-10 * (1.0 + a)
    if np.any(near):
        raise CharacteristicSpeed(f"s = {float(s[near][0])} is characteristic for U+")
    xi_t = np.asarray(xi_t, dtype=float)
    num = np.asarray(lam, dtype=complex)[..., None, None] * np.eye(n, dtype=complex)
    for j in range(2, d + 1):
        num = num + 1j * xi_t[..., j - 2, None, None] * assemble_Aj(B, j)
    return num, assemble_Aj(B, 1) - s[..., None, None] * np.eye(n, dtype=complex)


def assemble_calA(sf: ShockFront, B: np.ndarray, lam, xi_t) -> np.ndarray:
    """Frequency symbol (lambda I + i sum xi_j A^j)(A^1 - s I)^(-1) at U+, (..., n, n)."""
    num, denom = _calA_factors(sf, B, lam, xi_t)
    # right-multiplication by the inverse via a solve on the transpose
    return np.swapaxes(np.linalg.solve(np.swapaxes(denom, -1, -2), np.swapaxes(num, -1, -2)),
                       -1, -2)


def left_eigvec_residual(sf: ShockFront, B: np.ndarray, lam, xi_t, l: np.ndarray,
                         beta) -> np.ndarray:
    """Relative residual of l as a left eigenvector of the frequency symbol for beta,
    ||l (lambda I + i sum xi_j A^j) - beta l (A^1 - s I)|| / (||l|| max(1, ||A^1 - s I||_2)):
    without the inverse, so a badly conditioned A^1 - s I adds no solve error."""
    num, denom = _calA_factors(sf, B, lam, xi_t)
    row = l[..., None, :]
    resid = (row @ num)[..., 0, :] - np.asarray(beta)[..., None] * (row @ denom)[..., 0, :]
    return _norms(resid) / (_norms(l) * np.maximum(1.0, np.linalg.norm(denom, 2, axis=(-2, -1))))


def jump_vector(sf: ShockFront, jump_sig: np.ndarray, lam, xi_t) -> np.ndarray:
    """lambda [[u]] + i sum_j xi_j [[f^j(u)]] from the raw state jumps and the stress jump
    jump_sig (``stress_jump(sf)``), (..., n)."""
    d = sf.dim
    xi_t = np.asarray(xi_t, dtype=float)
    jump_v = sf.plus.v - sf.minus.v
    jump_U = np.swapaxes(sf.plus.U - sf.minus.U, -1, -2)  # rows are the columns of [[U]]
    jump_u = np.concatenate((jump_U.reshape(jump_U.shape[:-2] + (d * d,)), jump_v),
                            axis=-1).astype(complex)
    K = np.asarray(lam, dtype=complex)[..., None] * jump_u
    for j in range(2, d + 1):
        fj = np.zeros_like(jump_u)
        fj[..., (j - 1) * d : j * d] = -jump_v
        fj[..., d * d :] = -jump_sig[..., :, j - 1]
        K = K + 1j * xi_t[..., j - 2, None] * fj
    return K


def _eig_and_norm(A: np.ndarray):
    """dense_eig's eigenvalues and the 2-norms of A."""
    A = np.asarray(A, dtype=complex)
    n, most = A.shape[-1], MAX_DIM * (MAX_DIM + 1)  # the symbol's side at the largest d served
    if n > most:
        raise DomainError(f"dense_eig is limited to dim <= {most}, got {n}")
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    norm = np.linalg.svd(A, compute_uv=False).max(axis=-1)
    res = np.linalg.norm(A @ vecs - vecs * vals[..., None, :], axis=-2)
    if np.any(res > 1e-9 * np.maximum(norm, 1e-30)[..., None]):
        raise NoConvergence(f"eigenpair residual {res.max():.3e} exceeds 1e-9 * ||A||")
    return vals, norm


def dense_eig(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of small dense matrices (..., n, n), residual-verified.

    Uses the standard Hessenberg-reduction/shifted-QR path and checks
    every extracted eigenpair to ||A v - lambda v|| <= 1e-9 ||A||.
    """
    return _eig_and_norm(A)[0]


def g_matrices(B: np.ndarray, beta, xi_t) -> np.ndarray:
    """The d complex blocks -beta B_k^1 + i sum_j xi_j B_k^j, block k at [..., k, :, :]."""
    xi_t, B = np.asarray(xi_t, dtype=float), np.ascontiguousarray(B)  # row-major blocks for BLAS
    G = -np.asarray(beta, dtype=complex)[..., None, None, None] * B[..., 0, :, :].astype(complex)
    for j in range(1, B.shape[-1]):
        G = G + 1j * xi_t[..., j - 1, None, None, None] * B[..., j, :, :]
    return G


def _q_vector(sf: ShockFront, beta, xi_t) -> np.ndarray:
    """q = V+ (i beta, xi_t)^T, (..., d)."""
    w = np.concatenate((1j * np.asarray(beta, dtype=complex)[..., None],
                        np.asarray(xi_t, dtype=float).astype(complex)), axis=-1)
    return (sf.V @ w[..., None])[..., 0]


def formula_left_eigenvector(sf: ShockFront, B: np.ndarray, lam, xi_t, beta) -> np.ndarray:
    """Left eigenvector (q^T G_1, ..., q^T G_d, (lambda + beta s) q^T)
    with q = V+ (i beta, xi_t)^T, (..., n)."""
    beta = np.asarray(beta, dtype=complex)
    q = _q_vector(sf, beta, xi_t)
    parts = (q[..., None, None, :] @ g_matrices(B, beta, xi_t))[..., 0, :]
    last = (np.asarray(lam, dtype=complex) + beta * sf.speed)[..., None] * q
    return np.concatenate((parts.reshape(q.shape[:-1] + (-1,)), last), axis=-1)


def delta_hat_assembled(sf: ShockFront, B: np.ndarray, jump_sig: np.ndarray, xi_t,
                        beta) -> np.ndarray:
    """Stability function rebuilt from B-tensor blocks and the raw stress jump jump_sig
    (``stress_jump(sf)``).

    q^T [ (beta s^2 I + G_1) [[U_1]] - i sum_j xi_j [[sigma_j]] ]; the
    closed form delta_v1 equals (i/alpha) times this.
    """
    d = sf.dim
    beta, xi_t = np.asarray(beta, dtype=complex), np.asarray(xi_t, dtype=float)
    G1 = g_matrices(B, beta, xi_t)[..., 0, :, :]
    jump_U1 = (sf.plus.U[..., 0] - sf.minus.U[..., 0]).astype(complex)
    s_sq = np.float_power(sf.speed, 2)[..., None, None]  # libm pow, as Python's s**2
    vec = ((beta[..., None, None] * s_sq * np.eye(d, dtype=complex) + G1)
           @ jump_U1[..., None])[..., 0]
    for j in range(2, d + 1):
        vec = vec - 1j * xi_t[..., j - 2, None] * jump_sig[..., :, j - 1]
    return (_q_vector(sf, beta, xi_t)[..., None, :] @ vec[..., :, None])[..., 0, 0]


def delta_v1_raw_terms(sf: ShockFront, lam, xi_t) -> tuple:
    """delta_v1 as the raw double sum over transverse indices, before the square is
    completed, in its three terms (sq, lin, ssum), delta_v1 = sq - lin - ssum:
    (kappa2+ - s^2) theta11 beta^2, 2i beta (kappa2+ - s^2) eta and
    (kappa2+ - s^2) Nsq + alpha (s^2 - mu)/J+ xi_t.Theta_TT xi_t."""
    xi = np.asarray(xi_t, dtype=float)
    coeffs = freq_coeffs(sf, xi)
    beta = stable_beta_values(sf, lam, xi)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    quad = (xi[..., None, :] @ sf.Theta[..., 1:, 1:] @ xi[..., :, None])[..., 0, 0]
    ssum = (k2 - s * s) * coeffs.Nsq + sf.alpha * (s * s - sf.material.mu) / sf.Jplus * quad
    return _product((k2 - s * s) * th11 * beta, beta), 2j * beta * (k2 - s * s) * coeffs.eta, ssum


def hersh_counts(sf: ShockFront, B: np.ndarray, lam, xi_t):
    """(stable count, size of the -lambda/s cluster) from dense eigenvalues, each (...).

    For an extreme front on Re lambda > 0 the stable count must be
    exactly one, and -lambda/s (which has positive real part) must
    appear with multiplicity d^2 - d.
    """
    vals, norm = _eig_and_norm(assemble_calA(sf, B, lam, xi_t))
    ref = -np.asarray(lam, dtype=complex) / sf.speed
    tol = EIG_CLUSTER_TOL * np.maximum(norm, 1.0)
    in_cluster = np.abs(vals - ref[..., None]) <= tol[..., None]
    stable = np.sum(~in_cluster & (vals.real < 0), axis=-1)
    return stable, np.sum(in_cluster, axis=-1)


# ---------------------------------------------------------------------------
# references: the stable root's residual, the rho < 0 factorization and its winding
# count, and the closed forms of the worked examples

def _require_negative_rho(sf: ShockFront, what: str):
    if not np.all(sf.rho < 0):  # every front of a stack
        raise RhoNotNegative(f"{what} requires rho < 0, got rho = {sf.rho}")


def beta_residual(sf: ShockFront, lams, xi_t, betas) -> np.ndarray:
    """Residual of beta in its defining quadratic relative to the size of its three terms,
    |sum| / max(1, |each term|), over frequencies (...)."""
    lams, betas = np.asarray(lams, dtype=complex), np.asarray(betas, dtype=complex)
    coeffs = freq_coeffs(sf, np.asarray(xi_t, dtype=float))
    s, k2 = sf.speed, sf.kappa2_plus
    quad = _product((k2 - s * s) * betas, betas)
    lin = _product(2.0 * (lams * s + 1j * sf.h2_plus * coeffs.eta), betas)
    const = _square(lams) + coeffs.omega
    scale = np.maximum(1.0, np.maximum.reduce([_abs(quad), _abs(lin), _abs(const)]))
    return _abs(quad - lin - const) / scale


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


def cg_alpha_star(mu: float, kappa: float) -> float:
    """Exact weak/uniform threshold intensity for the 2-D Ciarlet-Geymonat
    model with undeformed base state:
    -(mu + sqrt(mu^2 + 4(kappa^2 - mu^2))) / (2(kappa - mu)).
    """
    if not (mu > 0) or kappa <= mu:
        raise DegenerateModuli(f"requires kappa > mu > 0, got mu={mu}, kappa={kappa}")
    return -(mu + np.sqrt(mu**2 + 4.0 * (kappa**2 - mu**2))) / (2.0 * (kappa - mu))


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


# ---------------------------------------------------------------------------
# sphere minimum by dense sampling plus compass search

def _sphere_grid(k: int) -> np.ndarray:
    """Deterministic covering of the unit sphere in R^k (both hemispheres)."""
    n = SPHERE_POINTS
    if k == 1:
        return np.array([[-1.0], [1.0]])
    if k == 2:
        ang = 2.0 * np.pi * np.arange(n) / n
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if k == 3:
        i = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / n)
        golden = np.pi * (1.0 + np.sqrt(5.0))
        theta = golden * i
        return np.column_stack(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)]
        )
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((n, k))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sphere_min_reference(sf: ShockFront) -> float:
    """Minimum of the classifier criterion G over unit transverse vectors.

    Independent of the classifier's exact search: the best of a dense
    sphere covering (SPHERE_POINTS points; seeded random for k >= 4)
    polished by compass search from h = 0.25.  Each round evaluates the
    2k points x +- h e_i, renormalised, in one criterion_values call; it
    moves to the lowest of them if that is below G(x), and halves h
    otherwise, until h falls below 1e-13.
    """
    pts = _sphere_grid(sf.dim - 1)
    vals = criterion_values(sf, pts)
    i = int(np.argmin(vals))
    x, best, h = pts[i], float(vals[i]), 0.25
    steps = np.concatenate((np.eye(x.size), -np.eye(x.size)))
    while h >= 1e-13:
        trial = x + h * steps
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        vals = criterion_values(sf, trial)
        i = int(np.argmin(vals))
        if vals[i] < best:
            x, best = trial[i], float(vals[i])
        else:
            h *= 0.5
    return best


# ---------------------------------------------------------------------------
# complex-step identity checks

STEP = 1e-30  # the complex step t: f'(x) = Im f(x + i t) / t to rounding, as nothing is subtracted

FD_CHECKS = ("grad_det_vs_cofactor", "cofactor_derivative", "grad_energy_vs_piola",
             "hessian_vs_btensor", "genuine_nonlinearity")


def _fd_values(ms: list, U: np.ndarray, V: np.ndarray, B: np.ndarray, directions) -> dict:
    """fd_check_suite's errors at each U (S, d, d) in its material, with its Cof V, B-blocks
    B and GNL direction, (S,) each, as one stack.

    Every derivative is a complex step, from the d^2 + 1 states U + i t E_pq, one per entry
    (p, q), and U + i t z x nu along the extreme eigenvector z.  ``energy``,
    ``piola_kirchhoff`` and ``cofactor`` take real U only, so at these states the oracle
    forms its own W = mu/2 sum X*X + h(det X), which must be ``energy`` at U,
    P = mu X + h'(det X) Cof X and Cof X = det X X^-T.  X*X, not |X|^2, keeps each
    analytic; so must h be, as every catalog law is.
    """
    S, d = U.shape[:2]
    n = d * d
    J = np.linalg.det(U)
    mu = np.array([m.mu for m in ms])
    nu = directions / _norms(directions)[:, None]
    w = (V @ nu[..., None])[..., 0]
    a1 = -np.sqrt(mu + np.array([m.h2(j) for m, j in zip(ms, J)]) * (w * w).sum(axis=-1))
    z = -w / a1[:, None]  # the deformation part of the extreme right eigenvector
    moves = np.concatenate((np.broadcast_to(np.eye(n).reshape(n, d, d), (S, n, d, d)),
                            (z[:, :, None] * nu[:, None, :])[:, None]), axis=1)
    X = U[:, None] + (1j * STEP) * moves
    det = np.linalg.det(X)
    cof = det[..., None, None] * np.swapaxes(np.linalg.inv(X), -1, -2)
    h, h1, h2 = map(np.stack, zip(*[(m.h(j), m.h1(j), m.h2(j)) for m, j in zip(ms, det)]))
    W = 0.5 * mu[:, None] * (X * X)[:, :n].reshape(S, n, n).sum(axis=-1) + h[:, :n]
    P = mu[:, None, None, None] * X[:, :n] + h1[:, :n, None, None] * cof[:, :n]
    wz = (cof[:, n] * nu[:, None, :]).sum(axis=-1)
    speed = -np.sqrt(mu + h2[:, n] * (wz * wz).sum(axis=-1))
    # each derivative with the entry moved, (q, i), first: dP_pj / dU_qi is (B_i^j)_pq
    grad_det, dcof, grad_W, dP, dspeed = (np.imag(f) / STEP for f in
                                          (det[:, :n], cof[:, :n], W, P, speed))
    dP = dP.reshape(S, d, d, d, d).transpose(0, 2, 4, 3, 1)

    def err(a, b, scale):  # the largest |a - b| of each scenario, relative to scale
        return np.abs(a.reshape(S, -1) - b.reshape(S, -1)).max(axis=1) / scale

    Vmax = np.abs(V).max(axis=(1, 2))
    # the derivative of Cof along entry (q, i) is (V_qi V - V_i x V^q) / J
    closed = (V[..., :, :, None, None] * V[..., None, None, :, :]
              - np.swapaxes(V, -1, -2)[..., None, :, :, None] * V[..., :, None, None, :])
    W0 = np.array([energy(m, u) for m, u in zip(ms, U)])
    piola = np.stack([piola_kirchhoff(m, u) for m, u in zip(ms, U)])
    gnl = np.array([genuine_nonlinearity(*args) for args in zip(ms, U, nu)])
    return dict(zip(FD_CHECKS, (
        err(grad_det, V, np.maximum(1.0, Vmax)),
        err(dcof, closed / J[:, None, None, None, None],
            np.maximum(1.0, np.float_power(Vmax, 2) / J)),
        np.maximum(err(W.real, W0, np.maximum(1.0, np.abs(W0))),
                   err(grad_W, piola, np.maximum(1.0, np.abs(piola).max(axis=(1, 2))))),
        err(dP, B, np.abs(B).max(axis=(1, 2, 3, 4))),
        err(dspeed, gnl, np.maximum(1.0, np.abs(gnl))))))


def fd_check_suite(m: MaterialModel, U: np.ndarray, B: np.ndarray, seed: int = 0) -> dict:
    """Complex-step validation of the derivative identities at U.

    Checks the determinant gradient against Cof U, the cofactor derivative closed form, the
    stored energy (``energy``) and its gradient against P (``piola_kirchhoff``), the
    derivative of P against the B-blocks B (``b_blocks(m, U)``), and the
    genuine-nonlinearity derivative along the extreme eigenvector, in a direction drawn from
    ``random.Random(seed)``.  Passes when every error is at most 1e-12.  m's h must be
    analytic, as every catalog law's is.  verify runs the same checks on its scenarios as
    one stack.
    """
    U = np.asarray(U, dtype=float)
    direction = _normals(random.Random(seed), U.shape[0])
    values = _fd_values([m], U[None], cofactor(U)[None], np.asarray(B)[None], direction[None])
    report = {name: float(v[0]) for name, v in values.items()}
    report["pass"] = all(v <= 1e-12 for v in report.values())
    return report


# ---------------------------------------------------------------------------
# randomized scenarios

MATERIAL_POOL = ("ciarlet-geymonat", "blatz", "ogden-foam", "simo-taylor", "simo-miehe")


def _uniforms(rng: random.Random, lo: float, hi: float, n: int) -> np.ndarray:
    return np.array([rng.uniform(lo, hi) for _ in range(n)])


def _normals(rng: random.Random, n: int) -> np.ndarray:
    return np.array([rng.gauss(0.0, 1.0) for _ in range(n)])


def random_material(rng: random.Random, d: int) -> MaterialModel:
    """A random catalog material with h''' < 0 everywhere."""
    name = MATERIAL_POOL[rng.randrange(len(MATERIAL_POOL))]
    mu = rng.uniform(0.5, 2.0)
    if name == "ogden-foam":
        return catalog(name, {"d": d, "mu": mu, "c1": rng.uniform(0.5, 3.0)})
    if name == "simo-miehe":
        return catalog(name, {"d": d, "mu": mu, "kappa": rng.uniform(0.5, 3.0)})
    kappa = 2.0 * mu / d + rng.uniform(0.4, 2.5)
    return catalog(name, {"d": d, "mu": mu, "kappa": kappa})


def random_shock(rng: random.Random, d: int) -> ShockFront:
    """Random Lax front: U+ = I + 0.5 G with G uniform in [-1, 1] (drawn row by row) and
    det U+ > 0.2, a random_material, alpha uniform in [-3, -0.05] and v+ uniform in [-1, 1].

    A draw that ``build`` rejects with a ``HadshockError`` is drawn again; any other
    exception propagates, and SHOCK_TRIES rejected draws raise ``NoConvergence``.
    """
    for _ in range(SHOCK_TRIES):
        U = np.eye(d) + 0.5 * _uniforms(rng, -1.0, 1.0, d * d).reshape(d, d)
        if np.linalg.det(U) <= 0.2:
            continue
        m = random_material(rng, d)
        alpha = rng.uniform(-3.0, -0.05)
        try:
            return build(m, ElasticState(U, _uniforms(rng, -1.0, 1.0, d)), alpha)
        except HadshockError:
            continue
    raise NoConvergence(f"no admissible d={d} shock scenario in {SHOCK_TRIES} draws")


def sample_frequency(rng: random.Random, d: int) -> tuple:
    """(lambda, xi_t): a uniform-ish point on the frequency hemisphere with Re lambda
    at least MIN_RE_LAMBDA."""
    while True:
        lam = complex(abs(rng.gauss(0.0, 1.0)), rng.gauss(0.0, 1.0))
        xi = _normals(rng, d - 1)
        norm = np.sqrt(abs(lam) ** 2 + float(xi @ xi))
        lam, xi = lam / norm, xi / norm
        if lam.real >= MIN_RE_LAMBDA:
            return lam, xi


# ---------------------------------------------------------------------------
# the verify suite

def _rel(err, scale):
    return err / np.maximum(scale, 1e-30)


def _abs(z) -> np.ndarray:
    """|z| of complex z, rounded as Python's abs of a complex (np.abs may differ)."""
    return np.hypot(np.real(z), np.imag(z))


def _flag(holds) -> np.ndarray:
    """The value of a yes/no check: 0.0 where it holds, 1.0 elsewhere."""
    return np.where(holds, 0.0, 1.0)


class _Tracker:
    def __init__(self):
        self.checks = {}
        self.failure = None

    def record(self, name: str, err: float, tol: float, context: str):
        entry = self.checks.get(name)
        if entry is None:
            entry = self.checks[name] = {"max_err": 0.0, "tol": tol, "count": 0}
        entry["count"] += 1
        if err > entry["max_err"] or err != err:  # a NaN value stays the maximum
            entry["max_err"] = err
        if not err <= tol and self.failure is None:  # a NaN value fails
            self.failure = {"check": name, "err": err, "tol": tol, "context": context}

    @property
    def ok(self):
        return self.failure is None


# The checks of a scenario, in the order verify records them, with their tolerances: first
# SCENARIO_CHECKS, each with every value it has for the scenario, then FREQUENCY_CHECKS at
# its first, second and third frequency, then interior_nonvanishing.
SCENARIO_CHECKS = (
    ("rh_velocity", 1e-11), ("rh_momentum", 1e-11), ("stress_jump_closed_form", 1e-11),
    ("cofactor_jump", 1e-11), ("gram_minor_product", 1e-10), ("amplitude_scaling", 1e-13),
    ("rho_identity", 1e-13), ("speed_supersonic", 0.5), ("acoustic_double_sum", 1e-11),
    ("acoustic_spectrum_vs_eig", 1e-9), ("acoustic_eigvec", 1e-11),
    ("btensor_transpose_symmetry", 1e-12), ("char_speeds_vs_eig", 1e-8),
    *((f"fd_{name}", 1e-12) for name in FD_CHECKS))
# the last two, the rho < 0 factorization's, only for a front with rho < 0
FREQUENCY_CHECKS = (
    ("beta_residual", 1e-13), ("beta_stable_halfplane", 0.5), ("beta_not_curl_artifact", 0.5),
    ("map_roundtrip", 1e-13), ("P_nonnegative", 0.5), ("zeta_nonnegative", 0.5),
    ("zeta_tau_margin", 0.5), ("v1_raw_vs_completed", 1e-12), ("v1_vs_v2_mapped", 1e-10),
    ("v1_vs_assembled", 1e-10), ("left_eigvec_residual", 1e-10),
    ("jump_product_identity", 1e-10), ("hersh_stable_count", 0.5), ("hersh_cluster_size", 0.5),
    ("v3_factorization", 1e-11), ("v3_first_factor_stable", 0.5))


def _shock_values(fronts: list, sf: SimpleNamespace, jump_sig: np.ndarray) -> dict:
    """The shock checks of the fronts, stacked as sf (_stack_fronts) with their stress jumps
    (S, 1, d, d): (S,) each, (S, d) over the columns of [[P]]."""
    mu, s, alpha, U, Um = sf.material.mu, sf.speed, sf.alpha, sf.plus.U, sf.minus.U
    s_sq = np.float_power(s, 2)  # libm pow, as Python's s**2
    scale = np.stack([f.residual_scale() for f in fronts])[:, None]
    h1m = np.array([float(f.material.h1(f.Jminus)) for f in fronts])[:, None, None, None]
    h2p = np.array([float(f.material.h2(f.Jplus)) for f in fronts])[:, None]
    jump_v = sf.plus.v - sf.minus.v
    out = {"rh_velocity": _rel(_norms(-s[..., None] * (U - Um)[..., 0] - jump_v), scale),
           "rh_momentum": _rel(_norms(-s[..., None] * jump_v - jump_sig[..., 0]), scale)}
    closed = alpha[..., None, None] * ((s_sq - mu)[..., None, None] * sf.V + h1m * sf.M)
    closed[..., 0] = (alpha * s_sq)[..., None] * sf.V[..., 0]
    err = _norms(np.swapaxes(jump_sig - closed, -1, -2))
    out["stress_jump_closed_form"] = _rel(err, np.maximum(scale[..., None],
                                                          _norms(np.swapaxes(closed, -1, -2))))
    cof_p, cof_m = cofactor(np.stack((U, Um)))
    err = np.abs(cof_p - alpha[..., None, None] * sf.M - cof_m).max(axis=(-2, -1))
    out["cofactor_jump"] = _rel(err, np.maximum(1.0, np.abs(cof_m).max(axis=(-2, -1))))
    prod = np.swapaxes(sf.V, -1, -2) @ sf.M
    err = np.abs(prod - sf.Theta / sf.Jplus[..., None, None]).max(axis=(-2, -1))
    out["gram_minor_product"] = _rel(err, np.maximum(1.0, np.abs(prod).max(axis=(-2, -1))))
    amp = _norms((U - Um).reshape(U.shape[:-2] + (-1,)))
    err = np.abs(amp - np.abs(alpha) * _norms(sf.V[..., 0]))
    out["amplitude_scaling"] = _rel(err, np.maximum(1.0, amp))
    alt = (s_sq - mu) * sf.Jminus / (sf.theta11 * sf.Jplus) - h2p
    out["rho_identity"] = _rel(np.abs(sf.rho - alt), np.maximum(1.0, np.abs(sf.rho)))
    out["speed_supersonic"] = _flag(s_sq > mu)
    return {name: v[:, 0] for name, v in out.items()}


def _symmetric_eigvals(Q: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of real symmetric Q (..., d, d) by the symmetric solver, with
    every eigenpair checked to ||Q v - lambda v|| <= 1e-9 ||Q|| as dense_eig checks them."""
    try:
        vals, vecs = np.linalg.eigh(Q)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    res = np.linalg.norm(Q @ vecs - vecs * vals[..., None, :], axis=-2)
    # ||Q||_2 = max |lambda|
    if np.any(res > 1e-9 * np.maximum(np.abs(vals).max(axis=-1), 1e-30)[..., None]):
        raise NoConvergence(f"eigenpair residual {res.max():.3e} exceeds 1e-9 * ||Q||")
    return vals


def _material_values(fronts: list, B: np.ndarray, xis: np.ndarray) -> dict:
    """The material checks at the fronts' U+ with their B-blocks (S, d, d, d, d) and
    directions xi (S, d): (S,) each, (S, d^2) over the block pairs (i, j)."""
    S, d = B.shape[0], B.shape[-1]
    Q, spec, speeds = [], [], []
    for f, xi in zip(fronts, xis):  # the closed forms under test, at each front's material
        Q.append(acoustic_tensor(f.material, f.plus.U, xi))
        spec.append(acoustic_spectrum(f.material, f.plus.U, xi))
        speeds.append(np.concatenate([[v] * mult for v, mult in char_speeds(f.material, f.plus.U)]))
    Q, k2 = np.stack(Q), np.array([sp.kappa2 for sp in spec])
    # the terms xi_i xi_j B_i^j added one after another in row-major (i, j) order
    terms = (xis[:, :, None] * xis[:, None, :])[..., None, None] * B
    Qsum = np.add.reduce(terms.reshape(S, d * d, d, d), axis=1)
    out = {"acoustic_double_sum": _rel(np.abs(Q - Qsum).max(axis=(1, 2)),
                                       np.maximum(1.0, np.abs(Q).max(axis=(1, 2))))}
    expect = np.sort([np.r_[[sp.kappa1] * sp.mult1, [sp.kappa2]] for sp in spec], axis=-1)
    err = np.abs(_symmetric_eigvals(Q) - expect).max(axis=-1)
    out["acoustic_spectrum_vs_eig"] = _rel(err, np.maximum(1.0, np.abs(k2)))
    e2 = np.stack([sp.eigvec2 for sp in spec])
    resid = (Q @ e2[..., None])[..., 0] - k2[:, None] * e2
    out["acoustic_eigvec"] = _rel(_norms(resid), np.maximum(1.0, np.abs(k2)) * _norms(e2))
    # |B_j^i - (B_i^j)^T| in row-major (i, j) order
    out["btensor_transpose_symmetry"] = np.abs(np.swapaxes(B, 1, 2) - np.swapaxes(B, 3, 4)).max(
        axis=(3, 4)).reshape(S, d * d)
    vals = np.sort(dense_eig(assemble_symbol(B, np.eye(d)[0])).real)
    expect = np.sort(speeds)
    out["char_speeds_vs_eig"] = _rel(np.abs(vals - expect).max(axis=-1),
                                     np.maximum(1.0, np.abs(expect).max(axis=-1)))
    return out


def _frequency_values(fronts: list, sf: SimpleNamespace, B: np.ndarray, jump_sig: np.ndarray,
                      lams: np.ndarray, xis: np.ndarray) -> dict:
    """The frequency checks of the fronts, stacked as sf with their B-blocks and stress
    jumps, at their frequencies lams (S, 3) and xis (S, 3, d - 1): (S, 3) each, NaN for the
    rho < 0 checks of the other fronts.  A complex product that one frequency takes in
    Python arithmetic goes through _product, and a square through np.float_power."""
    s, k2, th11 = sf.speed, sf.kappa2_plus, sf.theta11
    betas = stable_beta_values(sf, lams, xis)
    gammas = freq_map_values(sf, lams, xis)
    coeffs = freq_coeffs(sf, xis)
    v1c = delta_v1_values(sf, lams, xis)
    sq, lin, ssum = delta_v1_raw_terms(sf, lams, xis)
    hat = delta_hat_assembled(sf, B, jump_sig, xis, betas)
    l = formula_left_eigenvector(sf, B, lams, xis, betas)
    lk = (l[..., None, :] @ jump_vector(sf, jump_sig, lams, xis)[..., :, None])[..., 0, 0]
    curl = lams + _product(betas, s)  # lambda + beta s
    v2 = _product(np.float_power(s, 2) * th11 / k2, delta_v2_values(sf, gammas, xis))
    stable, cluster = hersh_counts(sf, B, lams, xis)
    out = {
        "beta_residual": beta_residual(sf, lams, xis, betas),
        "beta_stable_halfplane": _flag(betas.real < 0),
        "beta_not_curl_artifact": _flag(_abs(curl) > 1e-10),
        "map_roundtrip": _abs(freq_unmap_values(sf, gammas, xis) - lams),
        "P_nonnegative": _flag(coeffs.P >= 0),
        "zeta_nonnegative": _flag(coeffs.zeta >= 0),
        "zeta_tau_margin": _flag(coeffs.zeta - np.float_power(sf.tau * coeffs.eta, 2) >= -1e-13),
        "v1_raw_vs_completed": _abs(v1c - (sq - lin - ssum)) / np.maximum(
            1.0, np.maximum.reduce([_abs(sq), _abs(lin), np.abs(ssum)])),
        "v1_vs_v2_mapped": _rel(_abs(v1c - v2), 1.0 + _abs(v1c)),
        "v1_vs_assembled": _rel(_abs(v1c - _product(1j / sf.alpha, hat)), 1.0 + _abs(v1c)),
        "left_eigvec_residual": left_eigvec_residual(sf, B, lams, xis, l, betas),
        "jump_product_identity": _rel(_abs(lk - _product(curl, hat)), 1.0 + _abs(lk)),
        "hersh_stable_count": _flag(stable == 1),
        "hersh_cluster_size": _flag(cluster == sf.dim**2 - sf.dim),
        "v3_factorization": np.full(lams.shape, np.nan),
        "v3_first_factor_stable": np.full(lams.shape, np.nan),
    }
    neg = np.array([f.rho < 0 for f in fronts])
    if neg.any():
        sub = _stack_fronts([f for f in fronts if f.rho < 0])
        f_minus, f_plus = v3_factors_values(sub, gammas[neg], xis[neg])
        scale = (sub.kappa2_plus - np.float_power(sub.speed, 2)) * sub.theta11
        prod = _product(_product(scale, f_minus), f_plus)
        out["v3_factorization"][neg] = _rel(_abs(prod - v1c[neg]), 1.0 + _abs(v1c[neg]))
        out["v3_first_factor_stable"][neg] = _flag(f_minus.real < 0)
    return out


def _draw(rng: random.Random, d: int, k: int) -> SimpleNamespace:
    """Scenario k of dimension d: its front and what its checks draw, in this order: the
    material checks' direction xi, the derivative checks' seed, three frequencies and the
    control direction."""
    sf = random_shock(rng, d)
    xi, fd_seed = _normals(rng, d), rng.randrange(2**31)
    lams, xis = zip(*(sample_frequency(rng, d) for _ in range(3)))
    control = _normals(rng, d - 1)
    return SimpleNamespace(
        sf=sf, xi=xi, fd_seed=fd_seed, lams=np.array(lams), xis=np.array(xis),
        control_xi=control / np.linalg.norm(control),
        ctx=f"d={d} scenario={k} material={sf.material.name} alpha={sf.alpha:.4f}")


def _stack(values) -> np.ndarray:
    """The values with a leading scenario axis and a frequency axis of size 1: (S, 1, ...)."""
    return np.array(list(values))[:, None]


def _stack_fronts(fronts: list) -> SimpleNamespace:
    """Fronts of one dimension as one front for the frequency functions: the ShockFront
    fields they read, each through _stack (scalars as (S, 1) columns)."""
    columns = ("alpha", "speed", "rho", "tau", "kappa2_plus", "h2_plus", "theta11", "Jplus",
               "Jminus", "V", "M", "theta", "Theta")
    return SimpleNamespace(
        dim=fronts[0].dim, material=SimpleNamespace(mu=_stack(f.material.mu for f in fronts)),
        **{side: SimpleNamespace(U=_stack(getattr(f, side).U for f in fronts),
                                 v=_stack(getattr(f, side).v for f in fronts))
           for side in ("plus", "minus")},
        **{name: _stack(getattr(f, name) for f in fronts) for name in columns})


def _scenario_values(drawn: list) -> dict:
    """Every check of the scenarios drawn as one stack: its values (S,) or (S, ...) over the
    scenarios, the frequency checks (S, 3), and interior_nonvanishing (S,), whether
    min |delta_v2| over the negative-control grid Re gamma in [0.01, 2], Im gamma in [-2, 2]
    at each scenario's control direction stays above 1e-6.  The closed forms under test
    run once per scenario, as each has its own material; each brute-force step, once."""
    fronts = [sc.sf for sc in drawn]
    B = np.stack([b_blocks(f.material, f.plus.U) for f in fronts])
    jump_sig = _stack(stress_jump(f) for f in fronts)
    sf = _stack_fronts(fronts)
    out = _shock_values(fronts, sf, jump_sig)
    out.update(_material_values(fronts, B, np.stack([sc.xi for sc in drawn])))
    fd = _fd_values([f.material for f in fronts], sf.plus.U[:, 0], sf.V[:, 0], B,
                    np.stack([_normals(random.Random(sc.fd_seed), sc.sf.dim) for sc in drawn]))
    out.update((f"fd_{name}", v) for name, v in fd.items())
    out.update(_frequency_values(fronts, sf, B[:, None], jump_sig,
                                 np.stack([sc.lams for sc in drawn]),
                                 np.stack([sc.xis for sc in drawn])))
    re = np.linspace(0.01, 2.0, CONTROL_NODES)
    im = np.linspace(-2.0, 2.0, CONTROL_NODES)
    G = (re[None, :] + 1j * im[:, None]).ravel()
    xi = np.stack([sc.control_xi for sc in drawn])[:, None, :]
    out["interior_nonvanishing"] = _flag(np.abs(delta_v2_values(sf, G, xi)).min(axis=-1) > 1e-6)
    return out


def _per_scenario(drawn: list, size: int):
    """(rows, None): _scenario_values over the scenarios drawn, as many at a time as fit
    STACK_BYTES at size bytes each, every check on the whole chunk, split into one dict per
    scenario.  When a stack raises, its scenarios are redone alone, in order: (the rows
    before the first that raises, its exception)."""
    rows, step = [], max(1, STACK_BYTES // size)
    for start in range(0, len(drawn), step):
        part = drawn[start : start + step]
        try:
            values = _scenario_values(part)
        except Exception:
            for sc in part:
                try:
                    values = _scenario_values([sc])
                except Exception as exc:
                    return rows, exc
                rows.append({name: v[0] for name, v in values.items()})
            raise
        rows += [{name: v[k] for name, v in values.items()} for k in range(len(part))]
    return rows, None


def verify_suite(seed: int = 0, scenarios: int = 50, dims=(2, 3, 4)) -> dict:
    """Run every oracle identity over random scenarios per dimension, drawn from
    ``random.Random(seed)``.

    Each dimension in 2..MAX_DIM, given at most once, draws its scenarios first, then checks
    them in chunks of as many as fit STACK_BYTES at one scenario's share of a stacked call
    (11 at d = 2 and 3, 5 at d = 4, 2 at d = 5, 1 from d = 6), each as one stack, then
    records scenario by scenario: SCENARIO_CHECKS, FREQUENCY_CHECKS at each of its three
    frequencies (the rho < 0 pair only where its rho < 0), interior_nonvanishing and (once
    per dimension, at the first rho < 0 front) winding_interior_zeros.  A value above its
    tolerance or NaN violates its identity, and recording stops after the first scenario
    with a violated identity.  An exception raised for a scenario propagates unless an
    earlier scenario violated an identity.  The report carries the seed, scenario counts,
    worst error per identity and the failure context if any.  A negative seed, fewer than
    one scenario or no dimension is a ConfigError, raised before any draw.
    """
    if not dims or not all(2 <= d <= MAX_DIM for d in dims) or len(set(dims)) < len(dims):
        raise ConfigError(f"verify_suite checks dims 2..{MAX_DIM}, each once, got {tuple(dims)!r}")
    if seed < 0 or scenarios < 1:
        raise ConfigError(f"verify_suite needs seed >= 0 and scenarios >= 1, got seed={seed}, "
                          f"scenarios={scenarios}")
    rng = random.Random(seed)
    t = _Tracker()
    for d in dims:
        if not t.ok:
            break
        drawn, error = [], None
        for k in range(scenarios):
            try:
                drawn.append(_draw(rng, d, k))
            except Exception as exc:  # raised once the recording reaches scenario k
                error = exc
                break
        # a scenario's bytes in a stacked call: about 5 times its largest array, its three
        # complex frequency symbols of side d^2 + d or its complex control grid (its d^2 + 1
        # complex d x d states for the derivative checks are smaller)
        size = 5 * max(48 * (d * d + d) ** 2, 16 * CONTROL_NODES**2)
        values, exc = _per_scenario(drawn, size)
        if exc is not None:
            drawn, error = drawn[: len(values)], exc
        first_negative = next((sc for sc in drawn if sc.sf.rho < 0), None)
        for sc, v in zip(drawn, values):
            if not t.ok:
                break
            sf = sc.sf
            records = [(name, err, tol) for name, tol in SCENARIO_CHECKS
                       for err in np.ravel(v[name]).tolist()]
            frequency = FREQUENCY_CHECKS if sf.rho < 0 else FREQUENCY_CHECKS[:-2]
            records += [(name, float(v[name][i]), tol) for i in range(3) for name, tol in frequency]
            records.append(("interior_nonvanishing", float(v["interior_nonvanishing"]), 0.5))
            if sc is first_negative:
                w = winding(sf, np.eye(d - 1)[0], R=20.0)
                records.append(("winding_interior_zeros", float(abs(w)), 0.5))
            for name, err, tol in records:
                t.record(name, err, tol, sc.ctx)
        if t.ok and error is not None:
            raise error
    report = {
        "ok": t.ok,
        "seed": seed,
        "scenarios_per_dim": scenarios,
        "dims": list(dims),
        "checks": t.checks,
    }
    if t.failure is not None:
        report["first_failure"] = t.failure
    return report
