"""Brute-force verification routes for every closed form in the package.

Nothing here reuses the simplified expressions under test: fluxes are
differentiated numerically, the full (d^2+d)-dimensional frequency
symbol is assembled and diagonalized densely, and the stability
function is rebuilt from the raw jump vector.  The ``verify_suite``
entry point runs all identity checks over randomized Lax-front
scenarios and reports the worst error per identity.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import criterion_values
from .errors import CharacteristicSpeed, NoConvergence
from .linalg import cofactor
from .lopatinskii import (
    FrequencyPoint,
    delta_v1,
    delta_v2,
    delta_v2_values,
    freq_map,
    freq_unmap,
    stable_beta,
    beta_residual,
    v3_factors,
    winding,
)
from .materials import (
    MaterialModel,
    acoustic_spectrum,
    acoustic_tensor,
    b_tensor,
    catalog,
    char_speeds,
    energy,
    piola_kirchhoff,
)
from .shock import ElasticState, ShockFront, build, freq_coeffs, genuine_nonlinearity

__all__ = [
    "AssembledSymbol",
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


@dataclass
class AssembledSymbol:
    """A dense (d^2+d) x (d^2+d) complex matrix in the frequency symbol family."""

    dim_n: int
    matrix: np.ndarray


def assemble_Aj(m: MaterialModel, U: np.ndarray, j: int) -> AssembledSymbol:
    """Flux Jacobian in the j-th coordinate direction (1-based j).

    State ordering: the d columns of U stacked first, velocity last.
    Block (j, v) holds -I_d and the velocity row holds the second
    derivative blocks -B_i^j.
    """
    U = np.asarray(U, dtype=float)
    d = U.shape[0]
    n = d * d + d
    A = np.zeros((n, n))
    j0 = j - 1
    A[j0 * d : (j0 + 1) * d, d * d :] = -np.eye(d)
    for i in range(1, d + 1):
        A[d * d :, (i - 1) * d : i * d] = -b_tensor(m, U, i, j)
    return AssembledSymbol(dim_n=n, matrix=A.astype(complex))


def assemble_symbol(m: MaterialModel, U: np.ndarray, xi: np.ndarray) -> AssembledSymbol:
    """Directional symbol sum(xi_j A^j)."""
    xi = np.asarray(xi, dtype=float)
    d = U.shape[0]
    n = d * d + d
    A = np.zeros((n, n), dtype=complex)
    for j in range(1, d + 1):
        if xi[j - 1] != 0.0:
            A += xi[j - 1] * assemble_Aj(m, U, j).matrix
    return AssembledSymbol(dim_n=n, matrix=A)


def _calA_factors(sf: ShockFront, fp: FrequencyPoint):
    """(lambda I + i sum xi_j A^j, A^1 - s I) at U+; the frequency symbol is num denom^(-1)."""
    m, U = sf.material, sf.plus.U
    d = sf.dim
    n = d * d + d
    speeds = [v for v, _ in char_speeds(m, U)]
    if min(abs(v - sf.speed) for v in speeds) < 1e-10 * (1.0 + abs(sf.speed)):
        raise CharacteristicSpeed(f"s = {sf.speed} is characteristic for U+")
    num = fp.lam * np.eye(n, dtype=complex)
    for j in range(2, d + 1):
        xi_j = fp.xi_t[j - 2]
        if xi_j != 0.0:
            num += 1j * xi_j * assemble_Aj(m, U, j).matrix
    return num, assemble_Aj(m, U, 1).matrix - sf.speed * np.eye(n, dtype=complex)


def assemble_calA(sf: ShockFront, fp: FrequencyPoint) -> AssembledSymbol:
    """Frequency symbol (lambda I + i sum xi_j A^j)(A^1 - s I)^(-1) at U+."""
    num, denom = _calA_factors(sf, fp)
    # right-multiplication by the inverse via a solve on the transpose
    cal = np.linalg.solve(denom.T, num.T).T
    return AssembledSymbol(dim_n=num.shape[0], matrix=cal)


def left_eigvec_residual(sf: ShockFront, fp: FrequencyPoint, l: np.ndarray, beta: complex) -> float:
    """Relative residual of l as a left eigenvector of the frequency symbol for beta,
    ||l (lambda I + i sum xi_j A^j) - beta l (A^1 - s I)|| / (||l|| max(1, ||A^1 - s I||_2)):
    without the inverse, so a badly conditioned A^1 - s I adds no solve error."""
    num, denom = _calA_factors(sf, fp)
    resid = np.linalg.norm(l @ num - beta * (l @ denom))
    return float(resid / (np.linalg.norm(l) * max(1.0, np.linalg.norm(denom, 2))))


def jump_vector(sf: ShockFront, fp: FrequencyPoint) -> np.ndarray:
    """lambda [[u]] + i sum_j xi_j [[f^j(u)]] from the raw state jumps."""
    d = sf.dim
    n = d * d + d
    Up, Um = sf.plus.U, sf.minus.U
    jump_u = np.zeros(n, dtype=complex)
    for j in range(d):
        jump_u[j * d : (j + 1) * d] = Up[:, j] - Um[:, j]
    jump_u[d * d :] = sf.plus.v - sf.minus.v

    sig_p = piola_kirchhoff(sf.material, Up)
    sig_m = piola_kirchhoff(sf.material, Um)
    jump_v = sf.plus.v - sf.minus.v

    K = fp.lam * jump_u
    for j in range(2, d + 1):
        xi_j = fp.xi_t[j - 2]
        if xi_j == 0.0:
            continue
        fj = np.zeros(n, dtype=complex)
        fj[(j - 1) * d : j * d] = -jump_v
        fj[d * d :] = -(sig_p[:, j - 1] - sig_m[:, j - 1])
        K += 1j * xi_j * fj
    return K


def dense_eig(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of a small dense matrix, residual-verified.

    Uses the standard Hessenberg-reduction/shifted-QR path and checks
    every extracted eigenpair to ||A v - lambda v|| <= 1e-9 ||A||.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if n > 30:
        raise ValueError(f"dense_eig is limited to dim <= 30, got {n}")
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    norm = np.linalg.norm(A, 2)
    res = np.linalg.norm(A @ vecs - vecs * vals[None, :], axis=0)
    if np.any(res > 1e-9 * max(norm, 1e-30)):
        raise NoConvergence(f"eigenpair residual {res.max():.3e} exceeds 1e-9 * ||A||")
    return vals


def g_matrices(sf: ShockFront, beta: complex, xi_t: np.ndarray):
    """The d complex blocks -beta B_k^1 + i sum_j xi_j B_k^j at U+."""
    m, U = sf.material, sf.plus.U
    d = sf.dim
    out = []
    for k in range(1, d + 1):
        G = -beta * b_tensor(m, U, k, 1).astype(complex)
        for j in range(2, d + 1):
            xi_j = xi_t[j - 2]
            if xi_j != 0.0:
                G += 1j * xi_j * b_tensor(m, U, k, j)
        out.append(G)
    return out


def formula_left_eigenvector(sf: ShockFront, fp: FrequencyPoint, beta: complex) -> np.ndarray:
    """Left eigenvector (q^T G_1, ..., q^T G_d, (lambda + beta s) q^T)
    with q = V+ (i beta, xi_t)^T."""
    d = sf.dim
    q = sf.V @ np.concatenate(([1j * beta], fp.xi_t.astype(complex)))
    Gs = g_matrices(sf, beta, fp.xi_t)
    parts = [q @ G for G in Gs]
    parts.append((fp.lam + beta * sf.speed) * q)
    return np.concatenate(parts)


def delta_hat_assembled(sf: ShockFront, fp: FrequencyPoint, beta: complex) -> complex:
    """Stability function rebuilt from B-tensor blocks and raw stress jumps.

    q^T [ (beta s^2 I + G_1) [[U_1]] - i sum_j xi_j [[sigma_j]] ]; the
    closed form delta_v1 equals (i/alpha) times this.
    """
    d = sf.dim
    q = sf.V @ np.concatenate(([1j * beta], fp.xi_t.astype(complex)))
    G1 = g_matrices(sf, beta, fp.xi_t)[0]
    jump_U1 = (sf.plus.U[:, 0] - sf.minus.U[:, 0]).astype(complex)
    sig_p = piola_kirchhoff(sf.material, sf.plus.U)
    sig_m = piola_kirchhoff(sf.material, sf.minus.U)
    vec = (beta * sf.speed**2 * np.eye(d, dtype=complex) + G1) @ jump_U1
    for j in range(2, d + 1):
        xi_j = fp.xi_t[j - 2]
        if xi_j != 0.0:
            vec -= 1j * xi_j * (sig_p[:, j - 1] - sig_m[:, j - 1])
    return complex(q @ vec)


def delta_v1_raw(sf: ShockFront, fp: FrequencyPoint) -> complex:
    """delta_v1 as the raw double sum over transverse indices, before the square is
    completed: (kappa2+ - s^2)(theta11 beta^2 - 2i beta eta - Nsq)
    - alpha (s^2 - mu)/J+ xi_t.Theta_TT xi_t."""
    coeffs = freq_coeffs(sf, fp.xi_t)
    beta = stable_beta(sf, fp)
    k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
    xi = fp.xi_t
    ssum = (k2 - s * s) * coeffs.Nsq + sf.alpha * (s * s - sf.material.mu) / sf.Jplus * float(
        xi @ sf.Theta[1:, 1:] @ xi
    )
    return (k2 - s * s) * th11 * beta * beta - 2j * beta * (k2 - s * s) * coeffs.eta - ssum


def hersh_counts(sf: ShockFront, fp: FrequencyPoint):
    """(stable count, size of the -lambda/s cluster) from dense eigenvalues.

    For an extreme front on Re lambda > 0 the stable count must be
    exactly one, and -lambda/s (which has positive real part) must
    appear with multiplicity d^2 - d.
    """
    cal = assemble_calA(sf, fp)
    vals = dense_eig(cal.matrix)
    ref = -fp.lam / sf.speed
    tol = EIG_CLUSTER_TOL * max(np.linalg.norm(cal.matrix, 2), 1.0)
    in_cluster = np.abs(vals - ref) <= tol
    others = vals[~in_cluster]
    stable = int(np.sum(others.real < 0))
    return stable, int(np.sum(in_cluster))


# ---------------------------------------------------------------------------
# sphere minimum by dense sampling plus local polish

def _sphere_grid(k: int, resolution: int) -> np.ndarray:
    """Deterministic covering of the unit sphere in R^k (both hemispheres)."""
    if k == 1:
        return np.array([[-1.0], [1.0]])
    if k == 2:
        n = 64 * resolution
        ang = 2.0 * np.pi * np.arange(n) / n
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if k == 3:
        n = 64 * resolution
        i = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / n)
        golden = np.pi * (1.0 + np.sqrt(5.0))
        theta = golden * i
        return np.column_stack(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)]
        )
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((64 * resolution, k))
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


def sphere_min_reference(sf: ShockFront, resolution: int = 128) -> float:
    """Minimum of the classifier criterion G over unit transverse vectors.

    Independent of the classifier's exact search: the best of a dense
    sphere covering (64 * resolution points; seeded random for k >= 4)
    polished by Nelder-Mead on a local chart.  Imports scipy.
    """
    from scipy.optimize import minimize

    pts = _sphere_grid(sf.dim - 1, resolution)
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

def _fd_grad_det(U: np.ndarray) -> np.ndarray:
    d = U.shape[0]
    step = 1e-6 * (1.0 + np.abs(U).max())
    out = np.empty_like(U)
    for i in range(d):
        for j in range(d):
            Up, Um = U.copy(), U.copy()
            Up[i, j] += step
            Um[i, j] -= step
            out[i, j] = (np.linalg.det(Up) - np.linalg.det(Um)) / (2.0 * step)
    return out


def _fd_cof_derivative_err(U: np.ndarray) -> float:
    """Worst error of the closed-form derivative of Cof U over all indices."""
    d = U.shape[0]
    J = np.linalg.det(U)
    V = cofactor(U)
    step = 1e-6 * (1.0 + np.abs(U).max())
    worst = 0.0
    scale = max(1.0, float(np.abs(V).max()) ** 2 / J)
    for q in range(d):
        for i in range(d):
            Up, Um = U.copy(), U.copy()
            Up[q, i] += step
            Um[q, i] -= step
            fd = (cofactor(Up) - cofactor(Um)) / (2.0 * step)
            closed = (V[q, i] * V - np.outer(V[:, i], V[q, :])) / J
            worst = max(worst, float(np.abs(fd - closed).max()) / scale)
    return worst


def _fd_hessian_btensor_err(m: MaterialModel, U: np.ndarray) -> float:
    """Worst relative error of all B-blocks against the FD Hessian of W."""
    d = U.shape[0]
    step = 1e-4 * (1.0 + np.abs(U).max())

    def W(*moves):
        """Stored energy at U with entry idx moved by sign * step for each (idx, sign)."""
        X = U.copy()
        for idx, sign in moves:
            X[idx] += sign * step
        return energy(m, X)

    blocks = {(i, j): b_tensor(m, U, i, j) for i in range(1, d + 1) for j in range(1, d + 1)}
    scale = max(np.abs(b).max() for b in blocks.values())
    worst = 0.0
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for p in range(d):
                for q in range(d):
                    # entry (p, q) of B_i^j is d2 W / dU_{p, j} dU_{q, i}
                    a_idx, b_idx = (p, j - 1), (q, i - 1)
                    if a_idx == b_idx:
                        fd = (W((a_idx, 1)) - 2.0 * W() + W((a_idx, -1))) / step**2
                    else:
                        fd = (W((a_idx, 1), (b_idx, 1)) - W((a_idx, 1), (b_idx, -1))
                              - W((a_idx, -1), (b_idx, 1)) + W((a_idx, -1), (b_idx, -1)))
                        fd /= 4.0 * step**2
                    worst = max(worst, abs(fd - blocks[(i, j)][p, q]) / scale)
    return worst


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


def fd_check_suite(m: MaterialModel, U: np.ndarray, seed: int = 0) -> dict:
    """Finite-difference validation of the derivative identities at U.

    Checks the determinant gradient against Cof U, the cofactor
    derivative closed form, the B-blocks against the Hessian of the
    stored energy, and the genuine-nonlinearity derivative along the
    extreme eigenvector.  Passes when every error is at most 1e-5.
    """
    U = np.asarray(U, dtype=float)
    rng = np.random.default_rng(seed)
    V = cofactor(U)
    err_det = float(np.abs(_fd_grad_det(U) - V).max()) / max(1.0, float(np.abs(V).max()))
    report = {
        "grad_det_vs_cofactor": err_det,
        "cofactor_derivative": _fd_cof_derivative_err(U),
        "hessian_vs_btensor": _fd_hessian_btensor_err(m, U),
        "genuine_nonlinearity": _fd_gnl_err(m, U, rng.standard_normal(U.shape[0])),
    }
    report["pass"] = all(v <= 1e-5 for k, v in report.items() if k != "pass")
    return report


# ---------------------------------------------------------------------------
# randomized scenarios

MATERIAL_POOL = ("ciarlet-geymonat", "blatz", "ogden-foam", "simo-taylor", "simo-miehe")


def random_material(rng: np.random.Generator, d: int) -> MaterialModel:
    """A random catalog material with h''' < 0 everywhere."""
    name = MATERIAL_POOL[rng.integers(len(MATERIAL_POOL))]
    mu = float(rng.uniform(0.5, 2.0))
    if name == "ogden-foam":
        return catalog(name, {"d": d, "mu": mu, "c1": float(rng.uniform(0.5, 3.0))})
    if name == "simo-miehe":
        return catalog(name, {"d": d, "mu": mu, "kappa": float(rng.uniform(0.5, 3.0))})
    kappa = 2.0 * mu / d + float(rng.uniform(0.4, 2.5))
    return catalog(name, {"d": d, "mu": mu, "kappa": kappa})


def random_shock(rng: np.random.Generator, d: int, max_tries: int = 200) -> ShockFront:
    """Random well-conditioned Lax front: U+ = I + 0.5 G, alpha in [-3, -0.05].

    Scenarios whose transverse stiffness kappa2+ exceeds 150 are
    rejected: very stiff volumetric responses at small J+ blow up the
    coefficient scale of the frequency symbol, and the absolute residual
    contracts assume well-conditioned coverage.
    """
    for _ in range(max_tries):
        U = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, size=(d, d))
        if np.linalg.det(U) <= 0.2:
            continue
        m = random_material(rng, d)
        alpha = float(rng.uniform(-3.0, -0.05))
        try:
            sf = build(m, ElasticState(U, rng.uniform(-1.0, 1.0, size=d)), alpha)
        except Exception:
            continue
        if sf.kappa2_plus > 150.0:
            continue
        return sf
    raise RuntimeError("failed to generate a random shock scenario")


def sample_frequency(rng: np.random.Generator, d: int, min_re: float = 0.05) -> FrequencyPoint:
    """Uniform-ish point on the frequency hemisphere with Re lambda bounded away from 0."""
    while True:
        lam = complex(abs(rng.standard_normal()), rng.standard_normal())
        xi = rng.standard_normal(d - 1)
        norm = np.sqrt(abs(lam) ** 2 + float(xi @ xi))
        lam, xi = lam / norm, xi / norm
        if lam.real >= min_re:
            return FrequencyPoint(lam, xi)


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
    sig_p = piola_kirchhoff(m, sf.plus.U)
    sig_m = piola_kirchhoff(m, sf.minus.U)
    t.record(
        "rh_momentum",
        _rel(np.linalg.norm(-sf.speed * jump_v - (sig_p[:, 0] - sig_m[:, 0])), scale),
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
        err = np.linalg.norm((sig_p[:, j] - sig_m[:, j]) - closed)
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


def _check_material_identities(t: _Tracker, sf: ShockFront, rng, ctx: str):
    m, d, U = sf.material, sf.dim, sf.plus.U
    xi = rng.standard_normal(d)
    Q = acoustic_tensor(m, U, xi)
    Qsum = np.zeros((d, d))
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            Qsum += xi[i - 1] * xi[j - 1] * b_tensor(m, U, i, j)
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

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            err = np.abs(b_tensor(m, U, j, i) - b_tensor(m, U, i, j).T).max()
            t.record("btensor_transpose_symmetry", err, 1e-12, ctx)

    table = char_speeds(m, U)
    A1 = assemble_symbol(m, U, np.eye(d)[0]).matrix
    vals = np.sort(dense_eig(A1).real)
    expect = np.sort(np.concatenate([[v] * mult for v, mult in table]))
    t.record(
        "char_speeds_vs_eig",
        _rel(np.abs(vals - expect).max(), max(1.0, np.abs(expect).max())),
        1e-8,
        ctx,
    )


def _check_frequency_identities(t: _Tracker, sf: ShockFront, fp: FrequencyPoint, ctx: str):
    m = sf.material
    beta = stable_beta(sf, fp)
    t.record("beta_residual", beta_residual(sf, fp, beta), 1e-11, ctx)
    t.record("beta_stable_halfplane", 0.0 if beta.real < 0 else 1.0, 0.5, ctx)
    t.record(
        "beta_not_curl_artifact",
        0.0 if abs(fp.lam + beta * sf.speed) > 1e-10 else 1.0,
        0.5,
        ctx,
    )

    tf = freq_map(sf, fp)
    back = freq_unmap(sf, tf)
    t.record("map_roundtrip", abs(back.lam - fp.lam), 1e-13, ctx)

    coeffs = freq_coeffs(sf, fp.xi_t)
    t.record("P_nonnegative", 0.0 if coeffs.P >= 0 else 1.0, 0.5, ctx)
    t.record("zeta_nonnegative", 0.0 if coeffs.zeta >= 0 else 1.0, 0.5, ctx)
    slack = coeffs.zeta - (sf.tau * coeffs.eta) ** 2
    t.record("zeta_tau_margin", 0.0 if slack >= -1e-13 else 1.0, 0.5, ctx)

    v1c = delta_v1(sf, fp)
    v1r = delta_v1_raw(sf, fp)
    t.record("v1_raw_vs_completed", _rel(abs(v1c - v1r), 1.0 + abs(v1c)), 1e-12, ctx)

    v2 = delta_v2(sf, tf)
    factor = sf.speed**2 * sf.theta11 / sf.kappa2_plus
    t.record("v1_vs_v2_mapped", _rel(abs(v1c - factor * v2), 1.0 + abs(v1c)), 1e-10, ctx)

    hat = delta_hat_assembled(sf, fp, beta)
    t.record(
        "v1_vs_assembled",
        _rel(abs(v1c - 1j / sf.alpha * hat), 1.0 + abs(v1c)),
        1e-10,
        ctx,
    )

    l = formula_left_eigenvector(sf, fp, beta)
    t.record("left_eigvec_residual", left_eigvec_residual(sf, fp, l, beta), 1e-10, ctx)

    K = jump_vector(sf, fp)
    lk = complex(l @ K)
    t.record(
        "jump_product_identity",
        _rel(abs(lk - (fp.lam + beta * sf.speed) * hat), 1.0 + abs(lk)),
        1e-10,
        ctx,
    )

    stable, cluster = hersh_counts(sf, fp)
    t.record("hersh_stable_count", 0.0 if stable == 1 else 1.0, 0.5, ctx)
    t.record("hersh_cluster_size", 0.0 if cluster == sf.dim**2 - sf.dim else 1.0, 0.5, ctx)

    if sf.rho < 0:
        f_minus, f_plus = v3_factors(sf, tf)
        prod = (sf.kappa2_plus - sf.speed**2) * sf.theta11 * f_minus * f_plus
        t.record("v3_factorization", _rel(abs(prod - v1c), 1.0 + abs(v1c)), 1e-11, ctx)
        t.record("v3_first_factor_stable", 0.0 if f_minus.real < 0 else 1.0, 0.5, ctx)


def _check_negative_control(t: _Tracker, sf: ShockFront, rng, ctx: str, n: int = 24):
    """No interior zeros: |v2| stays above 1e-6 on a Re gamma in [0.01, 2] grid."""
    xi = rng.standard_normal(sf.dim - 1)
    xi /= np.linalg.norm(xi)
    re = np.linspace(0.01, 2.0, n)
    im = np.linspace(-2.0, 2.0, n)
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
            _check_shock_identities(t, sf, rng, ctx)
            _check_material_identities(t, sf, rng, ctx)
            fd = fd_check_suite(sf.material, sf.plus.U, seed=int(rng.integers(2**31)))
            for name, err in fd.items():
                if name != "pass":
                    t.record(f"fd_{name}", err, 1e-5, ctx)
            for _ in range(3):
                fp = sample_frequency(rng, d)
                _check_frequency_identities(t, sf, fp, ctx)
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
