"""Brute-force verification routes for every closed form in the package.

Nothing here reuses the simplified expressions under test: fluxes are
differentiated numerically, the full (d^2+d)-dimensional frequency
symbol is assembled and diagonalized densely, and the stability
function is rebuilt from the raw jump vector.  The ``verify_suite``
entry point runs all identity checks over randomized Lax-front
scenarios and reports the worst error per identity.
"""

from types import SimpleNamespace

import numpy as np

from .classifier import criterion_values
from .errors import CharacteristicSpeed, HadshockError, NoConvergence
from .linalg import cofactor
from .lopatinskii import (
    beta_residual,
    delta_v1_values,
    delta_v2_values,
    freq_map_values,
    freq_unmap_values,
    stable_beta_values,
    v3_factors_values,
    winding,
)
from .materials import (
    MaterialModel,
    acoustic_spectrum,
    acoustic_tensor,
    b_blocks,
    catalog,
    char_speeds,
    energy,
    piola_kirchhoff,
)
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
    "delta_v1_raw",
    "left_eigvec_residual",
    "hersh_counts",
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
STACK_BYTES = 1 << 16  # verify's largest array per stacked call: bounds a stack's memory

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
    """Directional symbol sum(xi_j A^j)."""
    d = B.shape[0]
    xi = np.asarray(xi, dtype=float)
    A = np.zeros((d * d + d, d * d + d), dtype=complex)
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
    """2-norms of the complex vectors x[..., :], rounded as np.linalg.norm of one vector
    (the real and imaginary dot products summed)."""
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
    n = A.shape[-1]
    if n > 30:
        raise ValueError(f"dense_eig is limited to dim <= 30, got {n}")
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


def delta_v1_raw(sf: ShockFront, lam, xi_t) -> np.ndarray:
    """delta_v1 as the raw double sum over transverse indices, before the square is
    completed: (kappa2+ - s^2)(theta11 beta^2 - 2i beta eta - Nsq)
    - alpha (s^2 - mu)/J+ xi_t.Theta_TT xi_t."""
    xi = np.asarray(xi_t, dtype=float)
    coeffs = freq_coeffs(sf, xi)
    beta = stable_beta_values(sf, lam, xi)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    quad = (xi[..., None, :] @ sf.Theta[..., 1:, 1:] @ xi[..., :, None])[..., 0, 0]
    ssum = (k2 - s * s) * coeffs.Nsq + sf.alpha * (s * s - sf.material.mu) / sf.Jplus * quad
    # p beta as Python rounds it
    p, br, bi = (k2 - s * s) * th11 * beta, beta.real, beta.imag
    p_beta = p.real * br - p.imag * bi + 1j * (p.real * bi + p.imag * br)
    return p_beta - 2j * beta * (k2 - s * s) * coeffs.eta - ssum


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
# sphere minimum by dense sampling plus local polish

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


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    k = x.size
    basis = []
    for e in np.eye(k):
        v = e - (e @ x) * x
        for b in basis:
            v -= (v @ b) * b
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
    return np.array(basis[: k - 1])


def sphere_min_reference(sf: ShockFront) -> float:
    """Minimum of the classifier criterion G over unit transverse vectors.

    Independent of the classifier's exact search: the best of a dense
    sphere covering (SPHERE_POINTS points; seeded random for k >= 4)
    polished by Nelder-Mead on a local chart.  Imports scipy.
    """
    from scipy.optimize import minimize

    pts = _sphere_grid(sf.dim - 1)
    vals = criterion_values(sf, pts)
    x0 = pts[int(np.argmin(vals))]
    best = float(vals.min())
    B = _tangent_basis(x0)
    if B.size == 0:
        return best

    def chart(t):
        v = x0 + t @ B
        return v / np.linalg.norm(v)

    res = minimize(
        lambda t: float(criterion_values(sf, chart(t)[None, :])[0]),
        np.zeros(B.shape[0]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400},
    )
    return min(best, float(criterion_values(sf, chart(res.x)[None, :])[0]))


# ---------------------------------------------------------------------------
# finite-difference identity checks

def _moves(U: np.ndarray, step) -> np.ndarray:
    """U with entry (p, q) moved by step at [0, p, q] and by -step at [1, p, q]: (2, d, d, d, d)."""
    n = U.size
    X = np.broadcast_to(U.ravel(), (2, n, n)).copy()
    X[0, range(n), range(n)] += step
    X[1, range(n), range(n)] -= step
    return X.reshape((2,) + U.shape + U.shape)


def _fd_det_cofactor(U: np.ndarray, V: np.ndarray):
    """(central-difference gradient of det at U, worst error of the closed-form derivative
    of Cof U over all indices), from one stencil; V is Cof U."""
    step = 1e-6 * (1.0 + np.abs(U).max())
    X = _moves(U, step)
    det = np.linalg.det(X)
    C = cofactor(X)
    fd = (C[0] - C[1]) / (2.0 * step)
    J = np.linalg.det(U)
    scale = max(1.0, float(np.abs(V).max()) ** 2 / J)
    # the derivative along entry (q, i) is (V_qi V - V_i x V^q) / J
    closed = V[:, :, None, None] * V - V.T[None, :, :, None] * V[:, None, None, :]
    return (det[0] - det[1]) / (2.0 * step), float(np.abs(fd - closed / J).max()) / scale


def _fd_hessian(m: MaterialModel, U: np.ndarray, step) -> np.ndarray:
    """Central-difference Hessian of W over the row-major entries of U, (d^2, d^2).

    The (a, b) and (b, a) stencils share their four states, so the distinct
    states (U, every single and every pair move) go to ``energy`` as one stack.
    """
    n = U.size
    a, b = np.triu_indices(n, 1)
    X = np.broadcast_to(U.ravel(), (1 + 2 * n + 4 * a.size, n)).copy()
    X[1 : 1 + 2 * n].reshape(2, n, n)[:, range(n), range(n)] += [[step], [-step]]
    pairs = X[1 + 2 * n :].reshape(2, 2, a.size, n)  # [sign of a, sign of b, pair, entry]
    k = range(a.size)
    pairs[0, :, k, a] += step
    pairs[1, :, k, a] -= step
    pairs[:, 0, k, b] += step
    pairs[:, 1, k, b] -= step
    W = energy(m, X.reshape((-1,) + U.shape))
    single = W[1 : 1 + 2 * n].reshape(2, n)
    # S[sa, sb][a, b] = W at U with a moved by sa and b by sb, for a != b
    S = np.zeros((2, 2, n, n))
    S[:, :, a, b] = W[1 + 2 * n :].reshape(2, 2, a.size)
    S[:, :, b, a] = S[:, :, a, b].transpose(1, 0, 2)
    H = (S[0, 0] - S[0, 1] - S[1, 0] + S[1, 1]) / (4.0 * step**2)
    H[range(n), range(n)] = (single[0] - 2.0 * W[0] + single[1]) / step**2
    return H


def _fd_hessian_btensor_err(m: MaterialModel, U: np.ndarray, B: np.ndarray) -> float:
    """Worst relative error of the B-blocks B at U against the FD Hessian of W."""
    d = U.shape[0]
    H = _fd_hessian(m, U, 1e-4 * (1.0 + np.abs(U).max()))
    # entry (p, q) of B_i^j is d2 W / dU_{p, j} dU_{q, i}: H[p d + j, q d + i]
    fd = H.reshape(d, d, d, d).transpose(3, 1, 0, 2)
    return float(np.abs(fd - B).max()) / float(np.abs(B).max())


def _fd_gnl_err(m: MaterialModel, U: np.ndarray, V: np.ndarray, direction: np.ndarray) -> float:
    """Directional derivative of the extreme speed against the closed form; V is Cof U."""
    nu = direction / np.linalg.norm(direction)

    def a1(mat, cof):
        w = cof @ nu
        return -np.sqrt(m.mu + float(m.h2(np.linalg.det(mat))) * float(w @ w))

    z = -(1.0 / a1(U, V)) * (V @ nu)  # deformation part of the right eigenvector
    Z = np.outer(z, nu)
    step = 1e-5 * (1.0 + np.abs(U).max())
    ahead, behind = U + step * Z, U - step * Z
    fd = (a1(ahead, cofactor(ahead)) - a1(behind, cofactor(behind))) / (2.0 * step)
    closed = genuine_nonlinearity(m, U, nu)
    return abs(fd - closed) / max(1.0, abs(closed))


def fd_check_suite(m: MaterialModel, U: np.ndarray, B: np.ndarray, seed: int = 0) -> dict:
    """Finite-difference validation of the derivative identities at U.

    Checks the determinant gradient against Cof U, the cofactor
    derivative closed form, the B-blocks B (``b_blocks(m, U)``) against
    the Hessian of the stored energy, and the genuine-nonlinearity
    derivative along the extreme eigenvector.  Passes when every error
    is at most 1e-5.
    """
    U = np.asarray(U, dtype=float)
    rng = np.random.default_rng(seed)
    V = cofactor(U)
    grad, err_cof = _fd_det_cofactor(U, V)
    report = {
        "grad_det_vs_cofactor": float(np.abs(grad - V).max()) / max(1.0, float(np.abs(V).max())),
        "cofactor_derivative": err_cof,
        "hessian_vs_btensor": _fd_hessian_btensor_err(m, U, B),
        "genuine_nonlinearity": _fd_gnl_err(m, U, V, rng.standard_normal(U.shape[0])),
    }
    report["pass"] = all(v <= 1e-5 for v in report.values())
    return report


# ---------------------------------------------------------------------------
# randomized scenarios

MATERIAL_POOL = ("ciarlet-geymonat", "blatz", "ogden-foam", "simo-taylor", "simo-miehe")


# rng annotations are strings: evaluating np.random would import numpy.random
def random_material(rng: "np.random.Generator", d: int) -> MaterialModel:
    """A random catalog material with h''' < 0 everywhere."""
    name = MATERIAL_POOL[rng.integers(len(MATERIAL_POOL))]
    mu = float(rng.uniform(0.5, 2.0))
    if name == "ogden-foam":
        return catalog(name, {"d": d, "mu": mu, "c1": float(rng.uniform(0.5, 3.0))})
    if name == "simo-miehe":
        return catalog(name, {"d": d, "mu": mu, "kappa": float(rng.uniform(0.5, 3.0))})
    kappa = 2.0 * mu / d + float(rng.uniform(0.4, 2.5))
    return catalog(name, {"d": d, "mu": mu, "kappa": kappa})


def random_shock(rng: "np.random.Generator", d: int, max_tries: int = 200) -> ShockFront:
    """Random well-conditioned Lax front: U+ = I + 0.5 G, alpha in [-3, -0.05].

    Scenarios whose transverse stiffness kappa2+ exceeds 150 are
    rejected: very stiff volumetric responses at small J+ blow up the
    coefficient scale of the frequency symbol, and the absolute residual
    contracts assume well-conditioned coverage.  A draw that ``build``
    rejects with a ``HadshockError`` is drawn again; any other exception
    propagates, and ``max_tries`` rejected draws raise ``NoConvergence``.
    """
    for _ in range(max_tries):
        U = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, size=(d, d))
        if np.linalg.det(U) <= 0.2:
            continue
        m = random_material(rng, d)
        alpha = float(rng.uniform(-3.0, -0.05))
        try:
            sf = build(m, ElasticState(U, rng.uniform(-1.0, 1.0, size=d)), alpha)
        except HadshockError:
            continue
        if sf.kappa2_plus > 150.0:
            continue
        return sf
    raise NoConvergence(f"no admissible d={d} shock scenario in {max_tries} draws")


def sample_frequency(rng: "np.random.Generator", d: int) -> tuple:
    """(lambda, xi_t): a uniform-ish point on the frequency hemisphere with Re lambda
    at least MIN_RE_LAMBDA."""
    while True:
        lam = complex(abs(rng.standard_normal()), rng.standard_normal())
        xi = rng.standard_normal(d - 1)
        norm = np.sqrt(abs(lam) ** 2 + float(xi @ xi))
        lam, xi = lam / norm, xi / norm
        if lam.real >= MIN_RE_LAMBDA:
            return lam, xi


# ---------------------------------------------------------------------------
# the verify suite

def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-30)


class _Tracker:
    def __init__(self):
        self.checks = {}
        self.failure = None

    def record(self, name: str, err: float, tol: float, context: str):
        entry = self.checks.get(name)
        if entry is None:
            entry = self.checks[name] = {"max_err": 0.0, "tol": tol, "count": 0}
        entry["count"] += 1
        if err > entry["max_err"]:
            entry["max_err"] = err
        if err > tol and self.failure is None:
            self.failure = {"check": name, "err": err, "tol": tol, "context": context}

    @property
    def ok(self):
        return self.failure is None


# The check functions yield (name, err, tol); verify_suite records them with the scenario.

def _shock_identities(sf: ShockFront, jump_sig: np.ndarray):
    m, d = sf.material, sf.dim
    scale = sf.residual_scale()
    v1 = sf.V[:, 0]

    jump_U1 = sf.plus.U[:, 0] - sf.minus.U[:, 0]
    jump_v = sf.plus.v - sf.minus.v
    yield "rh_velocity", _rel(np.linalg.norm(-sf.speed * jump_U1 - jump_v), scale), 1e-11
    yield (
        "rh_momentum",
        _rel(np.linalg.norm(-sf.speed * jump_v - jump_sig[:, 0]), scale),
        1e-11,
    )
    for j in range(d):
        if j == 0:
            closed = sf.alpha * sf.speed**2 * v1
        else:
            closed = sf.alpha * (
                (sf.speed**2 - m.mu) * sf.V[:, j]
                + float(m.h1(sf.Jminus)) * sf.M[:, j]
            )
        err = np.linalg.norm(jump_sig[:, j] - closed)
        yield "stress_jump_closed_form", _rel(err, max(scale, np.linalg.norm(closed))), 1e-11

    cof_m = cofactor(sf.minus.U)
    err = np.abs(cofactor(sf.plus.U) - sf.alpha * sf.M - cof_m).max()
    yield "cofactor_jump", _rel(err, max(1.0, np.abs(cof_m).max())), 1e-11

    prod = sf.V.T @ sf.M
    yield (
        "gram_minor_product",
        _rel(np.abs(prod - sf.Theta / sf.Jplus).max(), max(1.0, np.abs(prod).max())),
        1e-10,
    )

    amp = np.linalg.norm(sf.plus.U - sf.minus.U)
    yield (
        "amplitude_scaling",
        _rel(abs(amp - abs(sf.alpha) * np.linalg.norm(v1)), max(1.0, amp)),
        1e-13,
    )

    alt = (sf.speed**2 - m.mu) * sf.Jminus / (sf.theta11 * sf.Jplus) - float(m.h2(sf.Jplus))
    yield "rho_identity", _rel(abs(sf.rho - alt), max(1.0, abs(sf.rho))), 1e-13
    yield "speed_supersonic", 0.0 if sf.speed**2 > m.mu else 1.0, 0.5


def _symmetric_eigvals(Q: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric Q by the symmetric solver, with every
    eigenpair checked to ||Q v - lambda v|| <= 1e-9 ||Q|| as dense_eig checks them."""
    try:
        vals, vecs = np.linalg.eigh(Q)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    res = np.linalg.norm(Q @ vecs - vecs * vals, axis=0)
    if np.any(res > 1e-9 * max(np.abs(vals).max(), 1e-30)):  # ||Q||_2 = max |lambda|
        raise NoConvergence(f"eigenpair residual {res.max():.3e} exceeds 1e-9 * ||Q||")
    return vals


def _material_identities(sf: ShockFront, B: np.ndarray, table: list, xi: np.ndarray):
    m, d, U = sf.material, sf.dim, sf.plus.U
    Q = acoustic_tensor(m, U, xi)
    # the terms xi_i xi_j B_i^j added one after another in row-major (i, j) order
    Qsum = np.add.reduce(((xi[:, None] * xi)[..., None, None] * B).reshape(d * d, d, d))
    yield "acoustic_double_sum", _rel(np.abs(Q - Qsum).max(), max(1.0, np.abs(Q).max())), 1e-11

    spec = acoustic_spectrum(m, U, xi)
    expect = np.sort(np.r_[[spec.kappa1] * spec.mult1, [spec.kappa2]])
    yield (
        "acoustic_spectrum_vs_eig",
        _rel(np.abs(_symmetric_eigvals(Q) - expect).max(), max(1.0, abs(spec.kappa2))),
        1e-9,
    )
    resid = Q @ spec.eigvec2 - spec.kappa2 * spec.eigvec2
    yield (
        "acoustic_eigvec",
        _rel(np.linalg.norm(resid), max(1.0, abs(spec.kappa2)) * np.linalg.norm(spec.eigvec2)),
        1e-11,
    )

    # |B_j^i - (B_i^j)^T| in row-major (i, j) order
    for err in np.abs(np.swapaxes(B, 0, 1) - np.swapaxes(B, 2, 3)).max(axis=(2, 3)).ravel():
        yield "btensor_transpose_symmetry", err, 1e-12

    A1 = assemble_symbol(B, np.eye(d)[0])
    vals = np.sort(dense_eig(A1).real)
    expect = np.sort(np.concatenate([[v] * mult for v, mult in table]))
    yield (
        "char_speeds_vs_eig",
        _rel(np.abs(vals - expect).max(), max(1.0, np.abs(expect).max())),
        1e-8,
    )


def _draw(rng: "np.random.Generator", d: int, k: int) -> SimpleNamespace:
    """Scenario k of dimension d: its front; what depends on the material (the B-blocks, the
    stress jump and the characteristic speeds), once; the values of its shock, material and
    FD checks; its three frequencies and its control direction.  The rng draws come in the
    order in which verify has always made them."""
    sf = random_shock(rng, d)
    m, U = sf.material, sf.plus.U
    B = b_blocks(m, U)
    jump_sig = stress_jump(sf)
    records = [*_shock_identities(sf, jump_sig),
               *_material_identities(sf, B, char_speeds(m, U), rng.standard_normal(d))]
    fd = fd_check_suite(m, U, B, seed=int(rng.integers(2**31)))
    del fd["pass"]
    records += [(f"fd_{name}", err, 1e-5) for name, err in fd.items()]
    lams, xis = zip(*(sample_frequency(rng, d) for _ in range(3)))
    xi = rng.standard_normal(d - 1)
    return SimpleNamespace(
        sf=sf, B=B, stress_jump=jump_sig, records=records, lams=np.array(lams),
        xis=np.array(xis), control_xi=xi / np.linalg.norm(xi),
        ctx=f"d={d} scenario={k} material={m.name} alpha={sf.alpha:.4f}")


def _stack(values) -> np.ndarray:
    """The values with a leading scenario axis and a frequency axis of size 1: (S, 1, ...)."""
    return np.stack(list(values))[:, None]


def _stack_fronts(fronts: list) -> SimpleNamespace:
    """Fronts of one dimension as one front for the frequency functions: the ShockFront
    fields they read, each through _stack (scalars as (S, 1) columns)."""
    columns = ("alpha", "speed", "rho", "tau", "kappa2_plus", "h2_plus", "theta11", "Jplus",
               "V", "theta", "Theta")
    return SimpleNamespace(
        dim=fronts[0].dim, material=SimpleNamespace(mu=_stack(f.material.mu for f in fronts)),
        **{side: SimpleNamespace(U=_stack(getattr(f, side).U for f in fronts),
                                 v=_stack(getattr(f, side).v for f in fronts))
           for side in ("plus", "minus")},
        **{name: _stack(getattr(f, name) for f in fronts) for name in columns})


def _frequency_values(drawn: list) -> dict:
    """Every frequency function at the scenarios' frequencies, as one stack (S, 3, ...), and
    control_min (S,): min |delta_v2| over the negative-control grid Re gamma in [0.01, 2],
    Im gamma in [-2, 2] at each scenario's control direction."""
    sf = _stack_fronts([sc.sf for sc in drawn])
    B, jump_sig = _stack(sc.B for sc in drawn), _stack(sc.stress_jump for sc in drawn)
    lams, xis = np.stack([sc.lams for sc in drawn]), np.stack([sc.xis for sc in drawn])
    betas = stable_beta_values(sf, lams, xis)
    out = {"beta": betas, "beta_residual": beta_residual(sf, lams, xis, betas)}
    out["gamma"] = freq_map_values(sf, lams, xis)
    out["back"] = freq_unmap_values(sf, out["gamma"], xis)
    coeffs = freq_coeffs(sf, xis)
    out.update(P=coeffs.P, zeta=coeffs.zeta, eta=coeffs.eta)
    out["v1c"] = delta_v1_values(sf, lams, xis)
    out["v1r"] = delta_v1_raw(sf, lams, xis)
    out["v2"] = delta_v2_values(sf, out["gamma"], xis)
    out["hat"] = delta_hat_assembled(sf, B, jump_sig, xis, betas)
    out["l"] = formula_left_eigenvector(sf, B, lams, xis, betas)
    out["l_residual"] = left_eigvec_residual(sf, B, lams, xis, out["l"], betas)
    out["K"] = jump_vector(sf, jump_sig, lams, xis)
    out["stable"], out["cluster"] = hersh_counts(sf, B, lams, xis)
    re = np.linspace(0.01, 2.0, CONTROL_NODES)
    im = np.linspace(-2.0, 2.0, CONTROL_NODES)
    G = (re[None, :] + 1j * im[:, None]).ravel()
    xi = np.stack([sc.control_xi for sc in drawn])[:, None, :]
    out["control_min"] = np.abs(delta_v2_values(sf, G, xi)).min(axis=-1)
    return out


def _per_scenario(drawn: list, size: int):
    """(rows, None): _frequency_values over the scenarios drawn, as many at a time as fit
    STACK_BYTES at size bytes each, split into one dict per scenario.  When a stack raises,
    its scenarios are redone alone, in order: (the rows before the first that raises, its
    exception)."""
    rows, step = [], max(1, STACK_BYTES // size)
    for start in range(0, len(drawn), step):
        part = drawn[start : start + step]
        try:
            values = _frequency_values(part)
        except Exception:
            for sc in part:
                try:
                    values = _frequency_values([sc])
                except Exception as exc:
                    return rows, exc
                rows.append({name: v[0] for name, v in values.items()})
            raise
        rows += [{name: v[k] for name, v in values.items()} for k in range(len(part))]
    return rows, None


def _frequency_identities(sf: ShockFront, sc: SimpleNamespace, v: dict):
    """The frequency checks of one scenario, from its rows v of the stack."""
    if sf.rho < 0:
        factors = v3_factors_values(sf, v["gamma"], sc.xis)
    factor = sf.speed**2 * sf.theta11 / sf.kappa2_plus
    for i, lam in enumerate(sc.lams.tolist()):
        beta = complex(v["beta"][i])
        yield "beta_residual", float(v["beta_residual"][i]), 1e-11
        yield "beta_stable_halfplane", 0.0 if beta.real < 0 else 1.0, 0.5
        yield "beta_not_curl_artifact", 0.0 if abs(lam + beta * sf.speed) > 1e-10 else 1.0, 0.5
        yield "map_roundtrip", abs(complex(v["back"][i]) - lam), 1e-13

        P, zeta, eta = float(v["P"][i]), float(v["zeta"][i]), float(v["eta"][i])
        yield "P_nonnegative", 0.0 if P >= 0 else 1.0, 0.5
        yield "zeta_nonnegative", 0.0 if zeta >= 0 else 1.0, 0.5
        slack = zeta - (sf.tau * eta) ** 2
        yield "zeta_tau_margin", 0.0 if slack >= -1e-13 else 1.0, 0.5

        v1c, v1r, v2 = complex(v["v1c"][i]), complex(v["v1r"][i]), complex(v["v2"][i])
        yield "v1_raw_vs_completed", _rel(abs(v1c - v1r), 1.0 + abs(v1c)), 1e-12
        yield "v1_vs_v2_mapped", _rel(abs(v1c - factor * v2), 1.0 + abs(v1c)), 1e-10

        hat = complex(v["hat"][i])
        yield "v1_vs_assembled", _rel(abs(v1c - 1j / sf.alpha * hat), 1.0 + abs(v1c)), 1e-10
        yield "left_eigvec_residual", float(v["l_residual"][i]), 1e-10
        lk = complex(v["l"][i] @ v["K"][i])
        yield (
            "jump_product_identity",
            _rel(abs(lk - (lam + beta * sf.speed) * hat), 1.0 + abs(lk)),
            1e-10,
        )

        yield "hersh_stable_count", 0.0 if v["stable"][i] == 1 else 1.0, 0.5
        yield "hersh_cluster_size", 0.0 if v["cluster"][i] == sf.dim**2 - sf.dim else 1.0, 0.5

        if sf.rho < 0:
            f_minus, f_plus = (complex(f[i]) for f in factors)
            prod = (sf.kappa2_plus - sf.speed**2) * sf.theta11 * f_minus * f_plus
            yield "v3_factorization", _rel(abs(prod - v1c), 1.0 + abs(v1c)), 1e-11
            yield "v3_first_factor_stable", 0.0 if f_minus.real < 0 else 1.0, 0.5


def verify_suite(seed: int = 0, scenarios: int = 50, dims=(2, 3, 4)) -> dict:
    """Run every oracle identity over randomized scenarios per dimension.

    Each dimension draws its scenarios first, then evaluates their frequency and
    negative-control checks as one stack, then records scenario by scenario: shock,
    material, FD, frequency, control and (once per dimension, at the first rho < 0
    front) winding checks.  Recording stops after the first scenario with a violated
    identity.  An exception raised for a scenario propagates unless an earlier scenario
    violated an identity.  The report carries the seed, scenario counts, worst error per
    identity and the failure context if any.
    """
    rng = np.random.default_rng(seed)
    t = _Tracker()
    winding_done = set()
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
        # the bytes of a scenario's share of the stack's largest array: its three complex
        # frequency symbols (3, n, n) or its complex control grid
        n = d * d + d
        values, exc = _per_scenario(drawn, max(48 * n * n, 16 * CONTROL_NODES**2))
        if exc is not None:
            drawn, error = drawn[: len(values)], exc
        for sc, v in zip(drawn, values):
            if not t.ok:
                break
            sf = sc.sf
            records = [*sc.records, *_frequency_identities(sf, sc, v),
                       ("interior_nonvanishing", 0.0 if v["control_min"] > 1e-6 else 1.0, 0.5)]
            if sf.rho < 0 and d not in winding_done:
                winding_done.add(d)
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
