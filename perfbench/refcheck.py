"""Closed-form references for every output the benchmark checks.

Nothing here imports hadshock.  The references use only the volumetric
derivatives h'(J) and h''(J) of the catalog materials, written out below,
and the closed forms for base states U+ = Q diag(a) with Q a proper
rotation.  For such states the cofactor Gram matrix is diagonal, so the
coupling eta vanishes for every transverse direction and the sphere
minimum of the stability criterion has a closed form:

    J = prod(a),  n_i = (J / a_i)^2,  theta11 = n_1,
    s^2 = mu + (h'(J) - h'(J - alpha theta11)) / alpha,
    k2  = mu + h''(J) theta11,
    rho = (s^2 - mu)(1/theta11 - alpha/J) - h''(J),
    G(xi) = mu + c N(xi) on the unit sphere, c = h'' - rho k2 / s^2,
    N(xi) = sum_{i>=2} n_i xi_i^2.

Each ``check_*`` function returns None for a correct output and a short
message naming the first mismatch otherwise.
"""

import json
import math

import numpy as np

MARGINAL_BAND = 1e-10  # verdict threshold on the sphere minimum, as specified
REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# materials: h'(J) and h''(J) of the h''' < 0 catalog pool

def _cg(mu, kappa, d):
    c2 = 0.5 * kappa - mu / d
    return (lambda J: -mu / J + 2.0 * c2 * (J - 1.0),
            lambda J: mu / J**2 + 2.0 * c2)


def _blatz(mu, kappa, d):
    lin = kappa - 2.0 * mu / d
    logc = kappa + (d - 2.0) * mu / d
    return (lambda J: lin - logc / J,
            lambda J: logc / J**2)


def _foam(mu, c1, d):
    return (lambda J: -mu * J ** (-2.0 * c1 - 1.0),
            lambda J: mu * (2.0 * c1 + 1.0) * J ** (-2.0 * c1 - 2.0))


def _simo_taylor(mu, kappa, d):
    lam = kappa - 2.0 * mu / d
    return (lambda J: -mu / J + 0.5 * lam * (J - 1.0 / J),
            lambda J: mu / J**2 + 0.5 * lam * (1.0 + 1.0 / J**2))


def _simo_miehe(mu, kappa, d):
    return (lambda J: 0.5 * kappa * (J - 1.0 / J),
            lambda J: 0.5 * kappa * (1.0 + 1.0 / J**2))


_H_FORMS = {
    "ciarlet-geymonat": (_cg, "kappa"),
    "blatz": (_blatz, "kappa"),
    "ogden-foam": (_foam, "c1"),
    "simo-taylor": (_simo_taylor, "kappa"),
    "simo-miehe": (_simo_miehe, "kappa"),
}

POOL = tuple(_H_FORMS)


class Material:
    """A pool material: name, shear modulus, one coefficient and dimension."""

    def __init__(self, name, mu, coeff, d):
        form, self.coeff_flag = _H_FORMS[name]
        self.name, self.mu, self.coeff, self.d = name, float(mu), float(coeff), int(d)
        self.h1, self.h2 = form(self.mu, self.coeff, self.d)

    def argv(self):
        return [f"--material={self.name}", f"--mu={self.mu!r}",
                f"--{self.coeff_flag}={self.coeff!r}", f"--dim={self.d}"]


# ---------------------------------------------------------------------------
# fronts through U+ = Q diag(a)

class Front:
    """Closed-form quantities of the front of intensity alpha through Q diag(a)."""

    def __init__(self, mat, a, Q, alpha):
        a = np.asarray(a, dtype=float)
        self.mat, self.a, self.Q, self.alpha = mat, a, np.asarray(Q, dtype=float), float(alpha)
        mu = mat.mu
        self.J = float(np.prod(a))
        self.n = (self.J / a) ** 2
        self.theta11 = float(self.n[0])
        self.s2 = mu + (mat.h1(self.J) - mat.h1(self.J - self.alpha * self.theta11)) / self.alpha
        self.h2 = float(mat.h2(self.J))
        self.k2 = mu + self.h2 * self.theta11
        ds = self.s2 - mu
        self.rho = ds * (1.0 / self.theta11 - self.alpha / self.J) - self.h2
        # size of the terms that cancel in rho: its sign is only meaningful above this
        self.rho_scale = abs(ds) * (1.0 / self.theta11 + abs(self.alpha) / self.J) + self.h2
        # Blatz has rho = 0 identically: its sign, and so whether the sphere
        # search runs at all, is decided by rounding.  Such fronts are uniform
        # either way, and min_criterion may be absent or G_min.
        self.rho_zero = abs(self.rho) <= 1e-9 * self.rho_scale
        self.c = self.h2 - self.rho * self.k2 / self.s2
        tail = self.n[1:]
        self.n_star = float(tail.max() if self.c < 0 else tail.min())
        self.g_min = mu + self.n_star * self.c
        if self.rho <= 0:
            self.kind = "uniform"
        else:
            self.kind = "weak" if self.g_min < MARGINAL_BAND else "uniform"
        self.V1 = (self.J / a[0]) * self.Q[:, 0]

    @property
    def U(self):
        return self.Q * self.a[None, :]

    @property
    def searched(self):
        """True when the verdict needs the sphere search (rho > 0 beyond rounding)."""
        return self.rho > 0 and not self.rho_zero

    def decided(self):
        """False when only the polish tolerance would decide the verdict."""
        return not (self.rho > 0 or self.rho_zero) or abs(self.g_min) > 1e-6 * self.k2

    def witness_residual(self, xi, t):
        """Residual of the imaginary-axis root equation at (xi, t), and its scale."""
        xi = np.asarray(xi, dtype=float)
        N = float(np.sum(self.n[1:] * xi * xi))
        zeta = self.mat.mu * float(xi @ xi) + self.h2 * N
        P = self.theta11 * N
        u = math.sqrt(max(t * t - zeta, 0.0))
        lead = (t + math.sqrt(self.k2 / self.s2) * u) ** 2
        tail = self.rho * self.k2 * P / (self.s2 * self.theta11)
        return -lead + tail, max(1.0, lead, abs(tail)), t * t - zeta


def _close(got, ref, rel=REL_TOL):
    return got is not None and abs(got - ref) <= rel * max(1.0, abs(ref))


def _min_criterion_error(got, front):
    if front.rho_zero:
        ok = got is None or _close(got, front.g_min)
    elif front.rho <= 0:
        ok = got is None
    else:
        ok = _close(got, front.g_min)
    return None if ok else f"min_criterion {got} != {None if front.rho <= 0 else front.g_min}"


def _matrix_argv(U):
    return "--Uplus=" + ",".join(repr(float(x)) for x in np.asarray(U).ravel())


def front_argv(front):
    return front.mat.argv() + [_matrix_argv(front.U), f"--alpha={front.alpha!r}"]


def sweep_argv(mat, a, Q):
    return mat.argv() + [_matrix_argv(np.asarray(Q) * np.asarray(a)[None, :])]


# ---------------------------------------------------------------------------
# shock / classify / sweep reports

def check_shock(text, front):
    rep = json.loads(text)
    if not _close(rep["J_plus"], front.J, 1e-12):
        return f"J_plus {rep['J_plus']} != {front.J}"
    if not _close(rep["speed"], -math.sqrt(front.s2), 1e-9):
        return f"speed {rep['speed']} != {-math.sqrt(front.s2)}"
    U_minus = front.U - front.alpha * np.outer(front.V1, np.eye(front.mat.d)[0])
    err = float(np.abs(np.asarray(rep["U_minus"]) - U_minus).max())
    if err > 1e-9 * max(1.0, float(np.abs(U_minus).max())):
        return f"U_minus off by {err:.3e}"
    if not _close(rep["kappa2_plus"], front.k2, 1e-9):
        return f"kappa2_plus {rep['kappa2_plus']} != {front.k2}"
    if not _close(rep["rho"], front.rho, 1e-9):
        return f"rho {rep['rho']} != {front.rho}"
    margins = rep["lax"]["margins"]
    if rep["lax"]["ok"] is not True or len(margins) != 3 or not all(m > 0 for m in margins):
        return f"Lax margins {margins} not all positive"
    return None


def check_classify(text, front):
    rep = json.loads(text)
    if rep["kind"] != front.kind:
        return f"verdict {rep['kind']} != {front.kind}"
    if not _close(rep["rho"], front.rho, 1e-9):
        return f"rho {rep['rho']} != {front.rho}"
    err = _min_criterion_error(rep.get("min_criterion"), front)
    if err:
        return err
    wit = rep.get("witness")
    if (wit is not None) != (front.kind == "weak"):
        return "witness presence does not match the verdict"
    if wit is not None:
        xi = np.asarray(wit["xi_t"], dtype=float)
        if abs(float(xi @ xi) - 1.0) > 1e-9:
            return f"witness direction {xi.tolist()} is not a unit vector"
        res, scale, gap = front.witness_residual(xi, float(wit["t_root"]))
        if abs(res) > 1e-9 * scale or gap < -1e-9 * scale:
            return f"witness root residual {res:.3e} (scale {scale:.3e}, t^2 - zeta = {gap:.3e})"
    return None


def _cell(text):
    return float(text) if text else None


def check_sweep(text, fronts):
    lines = text.strip().splitlines()
    if lines[0] != "alpha,rho,min_criterion,verdict" or len(lines) != len(fronts) + 1:
        return f"sweep header/row count wrong ({len(lines) - 1} rows for {len(fronts)})"
    for k, (line, f) in enumerate(zip(lines[1:], fronts)):
        cells = line.split(",")
        alpha, rho, gmin = (_cell(c) for c in cells[:3])
        verdict = cells[3]
        if not _close(alpha, f.alpha, 1e-8):
            return f"row {k}: alpha {alpha} != {f.alpha}"
        if verdict != f.kind:
            return f"row {k} (alpha={f.alpha}): verdict {verdict} != {f.kind}"
        if not _close(rho, f.rho):
            return f"row {k}: rho {rho} != {f.rho}"
        err = _min_criterion_error(gmin, f)
        if err:
            return f"row {k}: {err}"
    return None


# ---------------------------------------------------------------------------
# grids

def _root(g, zeta):
    """(g^2 + zeta)^(1/2) continued from Re g > 0 onto the imaginary axis."""
    w = g * g + zeta
    r = np.sqrt(w)
    axis = (g.real == 0.0) & (w.real < 0.0)
    return np.where(axis, 1j * np.sign(g.imag) * np.sqrt(np.abs(w.real)), r)


def cg2d(mu, kappa, alpha, g):
    """Stability function of 2-D Ciarlet-Geymonat at the identity, xi_t = 1."""
    s2 = kappa + mu / (1.0 - alpha)
    k2 = mu + kappa
    return (g + math.sqrt(k2 / s2) * _root(g, k2)) ** 2 - alpha * (kappa**2 - mu**2) / s2


def cg2d_lambda(mu, kappa, alpha, lam):
    """delta_v1 of the same front: (s^2/k2) CG2D(lambda sqrt(k2) / sqrt(k2 - s^2))."""
    s2 = kappa + mu / (1.0 - alpha)
    k2 = mu + kappa
    return s2 / k2 * cg2d(mu, kappa, alpha, lam * math.sqrt(k2) / math.sqrt(k2 - s2))


def blatz3d(mu, kappa, alpha, g):
    """Restricted stability function of 3-D Blatz at the identity.

    Returns the values and xi^2 = 1 - (k2 - s^2)/k2 |g|^2; cells with
    xi^2 < 0 lie outside the remapped hemisphere.
    """
    k2 = kappa + 4.0 * mu / 3.0
    s2 = mu + (kappa + mu / 3.0) / (1.0 - alpha)
    xi_sq = 1.0 - (k2 - s2) / k2 * np.abs(g) ** 2
    vals = (g + math.sqrt(k2 / s2) * _root(g, k2 * np.maximum(xi_sq, 0.0))) ** 2
    return vals, xi_sq


def blatz3d_radius(mu, kappa, alpha):
    """|gamma| on the rim of the remapped hemisphere."""
    k2 = kappa + 4.0 * mu / 3.0
    s2 = mu + (kappa + mu / 3.0) / (1.0 - alpha)
    return math.sqrt(k2 / (k2 - s2))


def grid_nodes(re_range, im_range, n_re, n_im):
    """The cell coordinates in output order: imaginary part outer, real inner."""
    res = np.linspace(re_range[0], re_range[1], n_re)
    ims = np.linspace(im_range[0], im_range[1], n_im)
    return (res[None, :] + 1j * ims[:, None]).ravel()


def parse_grid(text, fmt):
    """(re, im, delta_re, delta_im) columns of a grid output; missing cells are NaN."""
    if fmt == "json":
        rows = json.loads(text)
        keys = ("re", "im", "delta_re", "delta_im")
        cols = [[np.nan if r[k] is None else r[k] for r in rows] for k in keys]
        return np.array(cols, dtype=float)
    lines = text.strip().splitlines()
    if lines[0] != "re,im,delta_re,delta_im,delta_abs,delta_arg":
        raise ValueError(f"unexpected grid header {lines[0]!r}")
    cols = [[float(c) if c else np.nan for c in ln.split(",")[:4]] for ln in lines[1:]]
    return np.array(cols, dtype=float).T


def check_grid(text, fmt, nodes, ref, inside=None):
    """Compare a grid output with reference values at the given nodes.

    ``inside`` is an optional signed margin per node (positive inside the
    domain); cells with a negative margin must be empty.  Cells within
    1e-9 of the rim may be either empty or correct.
    """
    try:
        re, im, dre, dim = parse_grid(text, fmt)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return f"unparseable grid: {exc}"
    if re.size != nodes.size:
        return f"grid has {re.size} cells, expected {nodes.size}"
    coord_err = np.abs(re + 1j * im - nodes) > 1e-8 * np.maximum(1.0, np.abs(nodes))
    if np.any(coord_err):
        k = int(np.flatnonzero(coord_err)[0])
        return f"cell {k} sits at {re[k]}+{im[k]}j, expected {nodes[k]}"
    got = dre + 1j * dim
    empty = np.isnan(dre) & np.isnan(dim)
    partial = np.isnan(dre) ^ np.isnan(dim)
    if np.any(partial):
        k = int(np.flatnonzero(partial)[0])
        return f"cell {k} at {nodes[k]} is half empty: {dre[k]}, {dim[k]}"
    must_fill = np.ones(nodes.size, bool) if inside is None else inside > 1e-9
    must_empty = np.zeros(nodes.size, bool) if inside is None else inside < -1e-9
    bad = (must_fill & empty) | (must_empty & ~empty)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        return f"cell {k} at {nodes[k]}: empty={bool(empty[k])} but margin {inside[k] if inside is not None else 1.0}"
    filled = ~empty
    err = np.abs(got[filled] - ref[filled]) / np.maximum(1.0, np.abs(ref[filled]))
    if err.size and not np.all(err <= REL_TOL):
        k = int(np.flatnonzero(filled)[np.argmax(err)])
        return f"cell {k} at {nodes[k]}: {got[k]} != {ref[k]} (rel err {err.max():.3e})"
    return None


# ---------------------------------------------------------------------------
# verify

def check_verify(text, seed, scenarios, dims):
    rep = json.loads(text)
    if rep.get("ok") is not True or "first_failure" in rep:
        return f"verify reported a failure: {rep.get('first_failure')}"
    if rep.get("seed") != seed or rep.get("scenarios_per_dim") != scenarios or rep.get("dims") != list(dims):
        return "verify echoed different seed, scenarios or dims"
    for name, entry in rep["checks"].items():
        if not entry["max_err"] <= entry["tol"]:
            return f"check {name}: max_err {entry['max_err']} > tol {entry['tol']}"
    count = rep["checks"].get("interior_nonvanishing", {}).get("count")
    if count != scenarios * len(dims):
        return f"interior_nonvanishing ran {count} times, expected {scenarios * len(dims)}"
    return None
