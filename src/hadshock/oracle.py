"""Brute-force verification routes for every closed form in the package.

Nothing here reuses the simplified expressions under test: fluxes are
differentiated numerically, the full (d^2+d)-dimensional frequency
symbol is assembled and diagonalized densely, and the stability
function is rebuilt from the raw jump vector.  The ``verify_suite``
entry point runs all identity checks over randomized Lax-front
scenarios and reports the worst error per identity.
"""

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

# The assembly functions take the B-blocks ``b_blocks(m, U)`` (at U+ for a
# front), so that one scenario computes them once for every check.


def assemble_Aj(B: np.ndarray, j: int) -> np.ndarray:
    """Flux Jacobian in the j-th coordinate direction (1-based j), a dense
    (d^2+d) x (d^2+d) complex matrix.

    State ordering: the d columns of U stacked first, velocity last.
    Block (j, v) holds -I_d and the velocity row holds the second
    derivative blocks -B_i^j.
    """
    d = B.shape[0]
    n = d * d + d
    A = np.zeros((n, n))
    A[(j - 1) * d : j * d, d * d :] = -np.eye(d)
    # column block i of the velocity row is -B_i^j
    A[d * d :, : d * d] = -B[:, j - 1].transpose(1, 0, 2).reshape(d, d * d)
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
# lam with a 1-D xi_t.  What does not depend on the frequency (the stress pair, the
# characteristic-speed guard, A^j, A^1 - s I and its norm) is computed once per call, and
# the dense work is one stacked solve, eig and svd.  Element i of a stack has the bits of
# the call on frequency i: stacked linear algebra and matmul run the same LAPACK/BLAS call
# per slice, and a complex product that one frequency takes in Python arithmetic is
# written out in real parts (numpy's vector loop may fuse its multiply-adds).


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the complex vectors x[..., :], rounded as np.linalg.norm of one vector
    (the real and imaginary dot products summed)."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])


def _stress_jump(sf: ShockFront) -> np.ndarray:
    """[[P]] = P(U+) - P(U-) of the first Piola-Kirchhoff stress, from one stacked call."""
    P = piola_kirchhoff(sf.material, np.stack((sf.plus.U, sf.minus.U)))
    return P[0] - P[1]


def _calA_factors(sf: ShockFront, B: np.ndarray, lam, xi_t):
    """(lambda I + i sum xi_j A^j, A^1 - s I) at U+: the first (..., n, n) over the
    frequencies, the second one (n, n); the frequency symbol is num denom^(-1)."""
    d = sf.dim
    n = d * d + d
    speeds = [v for v, _ in char_speeds(sf.material, sf.plus.U)]
    if min(abs(v - sf.speed) for v in speeds) < 1e-10 * (1.0 + abs(sf.speed)):
        raise CharacteristicSpeed(f"s = {sf.speed} is characteristic for U+")
    xi_t = np.asarray(xi_t, dtype=float)
    num = np.asarray(lam, dtype=complex)[..., None, None] * np.eye(n, dtype=complex)
    for j in range(2, d + 1):
        num = num + 1j * xi_t[..., j - 2, None, None] * assemble_Aj(B, j)
    return num, assemble_Aj(B, 1) - sf.speed * np.eye(n, dtype=complex)


def assemble_calA(sf: ShockFront, B: np.ndarray, lam, xi_t) -> np.ndarray:
    """Frequency symbol (lambda I + i sum xi_j A^j)(A^1 - s I)^(-1) at U+, (..., n, n)."""
    num, denom = _calA_factors(sf, B, lam, xi_t)
    # right-multiplication by the inverse via a solve on the transpose
    return np.swapaxes(np.linalg.solve(denom.T, np.swapaxes(num, -1, -2)), -1, -2)


def left_eigvec_residual(sf: ShockFront, B: np.ndarray, lam, xi_t, l: np.ndarray,
                         beta) -> np.ndarray:
    """Relative residual of l as a left eigenvector of the frequency symbol for beta,
    ||l (lambda I + i sum xi_j A^j) - beta l (A^1 - s I)|| / (||l|| max(1, ||A^1 - s I||_2)):
    without the inverse, so a badly conditioned A^1 - s I adds no solve error."""
    num, denom = _calA_factors(sf, B, lam, xi_t)
    row = l[..., None, :]
    resid = (row @ num)[..., 0, :] - np.asarray(beta)[..., None] * (row @ denom)[..., 0, :]
    return _norms(resid) / (_norms(l) * max(1.0, np.linalg.norm(denom, 2)))


def jump_vector(sf: ShockFront, lam, xi_t) -> np.ndarray:
    """lambda [[u]] + i sum_j xi_j [[f^j(u)]] from the raw state jumps, (..., n)."""
    d = sf.dim
    n = d * d + d
    xi_t = np.asarray(xi_t, dtype=float)
    jump_v = sf.plus.v - sf.minus.v
    jump_u = np.concatenate(((sf.plus.U - sf.minus.U).T.ravel(), jump_v)).astype(complex)
    jump_sig = _stress_jump(sf)
    K = np.asarray(lam, dtype=complex)[..., None] * jump_u
    for j in range(2, d + 1):
        fj = np.zeros(n, dtype=complex)
        fj[(j - 1) * d : j * d] = -jump_v
        fj[d * d :] = -jump_sig[:, j - 1]
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
    G = -np.asarray(beta, dtype=complex)[..., None, None, None] * B[:, 0].astype(complex)
    for j in range(1, B.shape[0]):
        G = G + 1j * xi_t[..., j - 1, None, None, None] * B[:, j]
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


def delta_hat_assembled(sf: ShockFront, B: np.ndarray, xi_t, beta) -> np.ndarray:
    """Stability function rebuilt from B-tensor blocks and raw stress jumps.

    q^T [ (beta s^2 I + G_1) [[U_1]] - i sum_j xi_j [[sigma_j]] ]; the
    closed form delta_v1 equals (i/alpha) times this.
    """
    d = sf.dim
    beta, xi_t = np.asarray(beta, dtype=complex), np.asarray(xi_t, dtype=float)
    G1 = g_matrices(B, beta, xi_t)[..., 0, :, :]
    jump_U1 = (sf.plus.U[:, 0] - sf.minus.U[:, 0]).astype(complex)
    jump_sig = _stress_jump(sf)
    vec = (beta[..., None, None] * sf.speed**2 * np.eye(d, dtype=complex) + G1) @ jump_U1
    for j in range(2, d + 1):
        vec = vec - 1j * xi_t[..., j - 2, None] * jump_sig[:, j - 1]
    return (_q_vector(sf, beta, xi_t)[..., None, :] @ vec[..., :, None])[..., 0, 0]


def delta_v1_raw(sf: ShockFront, lam, xi_t) -> np.ndarray:
    """delta_v1 as the raw double sum over transverse indices, before the square is
    completed: (kappa2+ - s^2)(theta11 beta^2 - 2i beta eta - Nsq)
    - alpha (s^2 - mu)/J+ xi_t.Theta_TT xi_t."""
    xi = np.asarray(xi_t, dtype=float)
    coeffs = freq_coeffs(sf, xi)
    beta = stable_beta_values(sf, lam, xi)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    quad = (xi[..., None, :] @ sf.Theta[1:, 1:] @ xi[..., :, None])[..., 0, 0]
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


def _fd_grad_det(U: np.ndarray) -> np.ndarray:
    step = 1e-6 * (1.0 + np.abs(U).max())
    det = np.linalg.det(_moves(U, step))
    return (det[0] - det[1]) / (2.0 * step)


def _fd_cof_derivative_err(U: np.ndarray) -> float:
    """Worst error of the closed-form derivative of Cof U over all indices."""
    J = np.linalg.det(U)
    V = cofactor(U)
    step = 1e-6 * (1.0 + np.abs(U).max())
    scale = max(1.0, float(np.abs(V).max()) ** 2 / J)
    C = cofactor(_moves(U, step))
    fd = (C[0] - C[1]) / (2.0 * step)
    # the derivative along entry (q, i) is (V_qi V - V_i x V^q) / J
    closed = V[:, :, None, None] * V - V.T[None, :, :, None] * V[:, None, None, :]
    return float(np.abs(fd - closed / J).max()) / scale


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


def _fd_gnl_err(m: MaterialModel, U: np.ndarray, direction: np.ndarray) -> float:
    """Directional derivative of the extreme speed against the closed form."""
    nu = direction / np.linalg.norm(direction)

    def a1(mat):
        w = cofactor(mat) @ nu
        return -np.sqrt(m.mu + float(m.h2(np.linalg.det(mat))) * float(w @ w))

    w0 = cofactor(U) @ nu
    z = -(1.0 / a1(U)) * w0  # deformation part of the right eigenvector
    Z = np.outer(z, nu)
    step = 1e-5 * (1.0 + np.abs(U).max())
    fd = (a1(U + step * Z) - a1(U - step * Z)) / (2.0 * step)
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
    err_det = float(np.abs(_fd_grad_det(U) - V).max()) / max(1.0, float(np.abs(V).max()))
    report = {
        "grad_det_vs_cofactor": err_det,
        "cofactor_derivative": _fd_cof_derivative_err(U),
        "hessian_vs_btensor": _fd_hessian_btensor_err(m, U, B),
        "genuine_nonlinearity": _fd_gnl_err(m, U, rng.standard_normal(U.shape[0])),
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
        entry = self.checks.setdefault(name, {"max_err": 0.0, "tol": tol, "count": 0})
        entry["count"] += 1
        if err > entry["max_err"]:
            entry["max_err"] = err
        if err > tol and self.failure is None:
            self.failure = {"check": name, "err": err, "tol": tol, "context": context}

    @property
    def ok(self):
        return self.failure is None


def _check_shock_identities(t: _Tracker, sf: ShockFront, rng, ctx: str):
    m, d = sf.material, sf.dim
    scale = sf.residual_scale()
    v1 = sf.V[:, 0]

    jump_U1 = sf.plus.U[:, 0] - sf.minus.U[:, 0]
    jump_v = sf.plus.v - sf.minus.v
    t.record("rh_velocity", _rel(np.linalg.norm(-sf.speed * jump_U1 - jump_v), scale), 1e-11, ctx)
    jump_sig = _stress_jump(sf)
    t.record(
        "rh_momentum",
        _rel(np.linalg.norm(-sf.speed * jump_v - jump_sig[:, 0]), scale),
        1e-11,
        ctx,
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
        t.record("stress_jump_closed_form", _rel(err, max(scale, np.linalg.norm(closed))), 1e-11, ctx)

    cof_m = cofactor(sf.minus.U)
    err = np.abs(cofactor(sf.plus.U) - sf.alpha * sf.M - cof_m).max()
    t.record("cofactor_jump", _rel(err, max(1.0, np.abs(cof_m).max())), 1e-11, ctx)

    prod = sf.V.T @ sf.M
    t.record(
        "gram_minor_product",
        _rel(np.abs(prod - sf.Theta / sf.Jplus).max(), max(1.0, np.abs(prod).max())),
        1e-10,
        ctx,
    )

    amp = np.linalg.norm(sf.plus.U - sf.minus.U)
    t.record(
        "amplitude_scaling",
        _rel(abs(amp - abs(sf.alpha) * np.linalg.norm(v1)), max(1.0, amp)),
        1e-13,
        ctx,
    )

    alt = (sf.speed**2 - m.mu) * sf.Jminus / (sf.theta11 * sf.Jplus) - float(m.h2(sf.Jplus))
    t.record("rho_identity", _rel(abs(sf.rho - alt), max(1.0, abs(sf.rho))), 1e-13, ctx)
    t.record("speed_supersonic", 0.0 if sf.speed**2 > m.mu else 1.0, 0.5, ctx)


def _check_material_identities(t: _Tracker, sf: ShockFront, B: np.ndarray, rng, ctx: str):
    m, d, U = sf.material, sf.dim, sf.plus.U
    xi = rng.standard_normal(d)
    Q = acoustic_tensor(m, U, xi)
    Qsum = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            Qsum += xi[i] * xi[j] * B[i, j]
    t.record("acoustic_double_sum", _rel(np.abs(Q - Qsum).max(), max(1.0, np.abs(Q).max())), 1e-11, ctx)

    spec = acoustic_spectrum(m, U, xi)
    evals = np.sort(dense_eig(Q.astype(complex)).real)
    expect = np.sort(np.r_[[spec.kappa1] * spec.mult1, [spec.kappa2]])
    t.record(
        "acoustic_spectrum_vs_eig",
        _rel(np.abs(evals - expect).max(), max(1.0, abs(spec.kappa2))),
        1e-9,
        ctx,
    )
    resid = Q @ spec.eigvec2 - spec.kappa2 * spec.eigvec2
    t.record(
        "acoustic_eigvec",
        _rel(np.linalg.norm(resid), max(1.0, abs(spec.kappa2)) * np.linalg.norm(spec.eigvec2)),
        1e-11,
        ctx,
    )

    for i in range(d):
        for j in range(d):
            t.record("btensor_transpose_symmetry", np.abs(B[j, i] - B[i, j].T).max(), 1e-12, ctx)

    table = char_speeds(m, U)
    A1 = assemble_symbol(B, np.eye(d)[0])
    vals = np.sort(dense_eig(A1).real)
    expect = np.sort(np.concatenate([[v] * mult for v, mult in table]))
    t.record(
        "char_speeds_vs_eig",
        _rel(np.abs(vals - expect).max(), max(1.0, np.abs(expect).max())),
        1e-8,
        ctx,
    )


def _check_frequency_identities(t: _Tracker, sf: ShockFront, B: np.ndarray, lams: np.ndarray,
                                xis: np.ndarray, ctx: str):
    """The frequency identities at lams (m,) and xis (m, k): computed on the stack, recorded
    frequency by frequency."""
    betas = stable_beta_values(sf, lams, xis)
    residuals = beta_residual(sf, lams, xis, betas)
    gammas = freq_map_values(sf, lams, xis)
    backs = freq_unmap_values(sf, gammas, xis)
    coeffs = freq_coeffs(sf, xis)
    v1cs = delta_v1_values(sf, lams, xis)
    v1rs = delta_v1_raw(sf, lams, xis)
    v2s = delta_v2_values(sf, gammas, xis)
    hats = delta_hat_assembled(sf, B, xis, betas)
    ls = formula_left_eigenvector(sf, B, lams, xis, betas)
    lresids = left_eigvec_residual(sf, B, lams, xis, ls, betas)
    Ks = jump_vector(sf, lams, xis)
    stables, clusters = hersh_counts(sf, B, lams, xis)
    if sf.rho < 0:
        factors = v3_factors_values(sf, gammas, xis)
    factor = sf.speed**2 * sf.theta11 / sf.kappa2_plus
    for i, lam in enumerate(lams.tolist()):
        beta = complex(betas[i])
        t.record("beta_residual", float(residuals[i]), 1e-11, ctx)
        t.record("beta_stable_halfplane", 0.0 if beta.real < 0 else 1.0, 0.5, ctx)
        t.record(
            "beta_not_curl_artifact",
            0.0 if abs(lam + beta * sf.speed) > 1e-10 else 1.0,
            0.5,
            ctx,
        )
        t.record("map_roundtrip", abs(complex(backs[i]) - lam), 1e-13, ctx)

        P, zeta, eta = float(coeffs.P[i]), float(coeffs.zeta[i]), float(coeffs.eta[i])
        t.record("P_nonnegative", 0.0 if P >= 0 else 1.0, 0.5, ctx)
        t.record("zeta_nonnegative", 0.0 if zeta >= 0 else 1.0, 0.5, ctx)
        slack = zeta - (sf.tau * eta) ** 2
        t.record("zeta_tau_margin", 0.0 if slack >= -1e-13 else 1.0, 0.5, ctx)

        v1c, v1r, v2 = complex(v1cs[i]), complex(v1rs[i]), complex(v2s[i])
        t.record("v1_raw_vs_completed", _rel(abs(v1c - v1r), 1.0 + abs(v1c)), 1e-12, ctx)
        t.record("v1_vs_v2_mapped", _rel(abs(v1c - factor * v2), 1.0 + abs(v1c)), 1e-10, ctx)

        hat = complex(hats[i])
        t.record(
            "v1_vs_assembled",
            _rel(abs(v1c - 1j / sf.alpha * hat), 1.0 + abs(v1c)),
            1e-10,
            ctx,
        )
        t.record("left_eigvec_residual", float(lresids[i]), 1e-10, ctx)
        lk = complex(ls[i] @ Ks[i])
        t.record(
            "jump_product_identity",
            _rel(abs(lk - (lam + beta * sf.speed) * hat), 1.0 + abs(lk)),
            1e-10,
            ctx,
        )

        t.record("hersh_stable_count", 0.0 if stables[i] == 1 else 1.0, 0.5, ctx)
        t.record("hersh_cluster_size", 0.0 if clusters[i] == sf.dim**2 - sf.dim else 1.0, 0.5, ctx)

        if sf.rho < 0:
            f_minus, f_plus = (complex(f[i]) for f in factors)
            prod = (sf.kappa2_plus - sf.speed**2) * sf.theta11 * f_minus * f_plus
            t.record("v3_factorization", _rel(abs(prod - v1c), 1.0 + abs(v1c)), 1e-11, ctx)
            t.record("v3_first_factor_stable", 0.0 if f_minus.real < 0 else 1.0, 0.5, ctx)


def _check_negative_control(t: _Tracker, sf: ShockFront, rng, ctx: str):
    """No interior zeros: |v2| stays above 1e-6 on a Re gamma in [0.01, 2] grid."""
    xi = rng.standard_normal(sf.dim - 1)
    xi /= np.linalg.norm(xi)
    re = np.linspace(0.01, 2.0, CONTROL_NODES)
    im = np.linspace(-2.0, 2.0, CONTROL_NODES)
    G = re[None, :] + 1j * im[:, None]
    vals = delta_v2_values(sf, G, xi)
    t.record("interior_nonvanishing", 0.0 if np.abs(vals).min() > 1e-6 else 1.0, 0.5, ctx)


def verify_suite(seed: int = 0, scenarios: int = 50, dims=(2, 3, 4)) -> dict:
    """Run every oracle identity over randomized scenarios per dimension.

    Stops at the first violated identity.  The report carries the seed,
    scenario counts, worst error per identity and the failure context if
    any.
    """
    rng = np.random.default_rng(seed)
    t = _Tracker()
    winding_done = set()
    for d in dims:
        for k in range(scenarios):
            if not t.ok:
                break
            sf = random_shock(rng, d)
            ctx = f"d={d} scenario={k} material={sf.material.name} alpha={sf.alpha:.4f}"
            B = b_blocks(sf.material, sf.plus.U)
            _check_shock_identities(t, sf, rng, ctx)
            _check_material_identities(t, sf, B, rng, ctx)
            fd = fd_check_suite(sf.material, sf.plus.U, B, seed=int(rng.integers(2**31)))
            del fd["pass"]
            for name, err in fd.items():
                t.record(f"fd_{name}", err, 1e-5, ctx)
            lams, xis = zip(*(sample_frequency(rng, d) for _ in range(3)))
            _check_frequency_identities(t, sf, B, np.array(lams), np.array(xis), ctx)
            _check_negative_control(t, sf, rng, ctx)
            if sf.rho < 0 and d not in winding_done:
                winding_done.add(d)
                xi = np.eye(d - 1)[0]
                w = winding(sf, xi, R=20.0)
                t.record("winding_interior_zeros", float(abs(w)), 0.5, ctx)
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
