"""Seeded invocation lists for the two benchmark workloads.

A workload is a repeating *pass*: a fixed list of command kinds, each
drawn afresh from ``numpy.random.default_rng([seed, workload, pass])``,
so the same seed always gives the same argv.

``fronts`` answers questions about single fronts: cold ``shock`` and
``classify`` processes, then one verdict sweep per dimension.  It runs
process start-up, the lazy scipy import, ``build``, the sphere search
and its polish, and the thread pool; its output is small.  ``evaluate``
evaluates the stability function on grids and runs the oracle suite.  It
runs CSV/JSON emit, the ``lopatinskii`` kernels and the oracle
(``dense_eig``, ``cofactor``, ``b_tensor``, winding counts) and never
classifies.

Every invocation carries the reference check for its output.  Values go
on the command line as ``--flag=value`` with ``repr(float(x))``, because
argparse reads ``--Uplus -0.3,...`` as a missing value.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import refcheck as rc

WORKLOADS = ("fronts", "evaluate")

SWEEP_ALPHAS = (-12.0, -0.05)
SWEEP_STEPS = 200
SWEEP_DIMS = (2, 3, 4, 6)
GRID_N = 200
LAMBDA_N = 100
VERIFY_SCENARIOS = 20
VERIFY_DIMS = (2, 3, 4)


@dataclass
class Invocation:
    """One CLI run: its kind (the group its time is reported under), argv and check."""

    kind: str
    argv: list
    ext: str
    check: Callable
    work: int  # rows, grid cells, scenarios or fronts the invocation produces


@dataclass
class Draws:
    """How many seeded draws were rejected, and why."""

    undecided: int = 0  # only the polish tolerance would decide the verdict
    off_target: int = 0  # redrawn to meet the workload's verdict mix


def _material(rng, d):
    """A draw from the h''' < 0 pool, with the ranges of oracle.random_material."""
    name = rc.POOL[rng.integers(len(rc.POOL))]
    mu = float(rng.uniform(0.5, 2.0))
    if name in ("ogden-foam", "simo-miehe"):  # c1 and kappa respectively
        return rc.Material(name, mu, float(rng.uniform(0.5, 3.0)), d)
    return rc.Material(name, mu, 2.0 * mu / d + float(rng.uniform(0.4, 2.5)), d)


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _base(rng, d):
    return rng.uniform(0.7, 1.4, size=d), _rotation(rng, d)


def _front(rng, d, draws, want=None):
    """A decided front with alpha in [-12, -0.05]; ``want`` fixes a rho > 0 verdict."""
    while True:
        mat = _material(rng, d)
        a, Q = _base(rng, d)
        f = rc.Front(mat, a, Q, float(rng.uniform(-12.0, -0.05)))
        if not f.decided():
            draws.undecided += 1
        elif want is not None and (not f.searched or f.kind != want):
            draws.off_target += 1
        else:
            return f


def cold_cli(rng, index, draws):
    """Single shock reports at d = 2, 3, 4 and classify verdicts at d = 3, 4.

    Process start and imports dominate these; classify also pays the lazy
    scipy.optimize import.  One of the two classify fronts is weak, the
    other uniform with rho > 0, alternating by pass.
    """
    invs = []
    for d in (2, 3, 4):
        f = _front(rng, d, draws)
        invs.append(Invocation("cold_shock", ["shock"] + rc.front_argv(f), "json",
                               lambda t, f=f: rc.check_shock(t, f), 1))
    for k, d in enumerate((3, 4)):
        want = "weak" if (index + k) % 2 == 0 else "uniform"
        f = _front(rng, d, draws, want)
        invs.append(Invocation("cold_classify", ["classify"] + rc.front_argv(f), "json",
                               lambda t, f=f: rc.check_classify(t, f), 1))
    return invs


def sweeps(rng, index, draws):
    """One 200-step verdict sweep over alpha in [-12, -0.05] per d in {2, 3, 4, 6}.

    Each sweep has a fresh material and base state.  A draw where rounding
    could decide a row's verdict is redrawn, as is one whose sweep never
    turns weak: a sweep is how a user looks for the weak regime.
    """
    alphas = np.linspace(SWEEP_ALPHAS[0], SWEEP_ALPHAS[1], SWEEP_STEPS)
    invs = []
    for d in SWEEP_DIMS:
        while True:
            mat = _material(rng, d)
            a, Q = _base(rng, d)
            fronts = [rc.Front(mat, a, Q, float(x)) for x in alphas]
            if not all(f.decided() for f in fronts):
                draws.undecided += 1
            elif not any(f.kind == "weak" for f in fronts):
                draws.off_target += 1
            else:
                break
        argv = ["sweep"] + rc.sweep_argv(mat, a, Q) + [
            f"--alpha-range={SWEEP_ALPHAS[0]!r},{SWEEP_ALPHAS[1]!r}", f"--steps={SWEEP_STEPS}"]
        invs.append(Invocation(f"sweep_d{d}", argv, "csv",
                               lambda t, fr=fronts: rc.check_sweep(t, fr), SWEEP_STEPS))
    return invs


def _grid_argv(material, mu, kappa, d, alpha, re, im, n):
    return ["grid", f"--material={material}", f"--mu={mu!r}", f"--kappa={kappa!r}",
            f"--dim={d}", "--Uplus=identity", f"--alpha={alpha!r}",
            f"--grid-re={re[0]!r},{re[1]!r}", f"--grid-im={im[0]!r},{im[1]!r}",
            f"--grid-n={n},{n}"]


def grids(rng, index, draws):
    """Four stability-function grids on undeformed base states.

    The 2-D Ciarlet-Geymonat gamma grid in CSV and in JSON (vectorised
    evaluation, so output formatting dominates), the 3-D Blatz grid
    restricted to the remapped hemisphere (a Python loop of scalar
    delta_v2; the window is 1.2 times the hemisphere radius, so about 45%
    of the cells are empty) and a lambda grid (scalar delta_v1).
    """
    mu = float(rng.uniform(0.5, 2.0))
    kappa = mu * float(rng.uniform(1.5, 3.0))
    alpha = float(rng.uniform(-10.0, -4.0))
    re, im = (0.0, 2.0), (-2.0, 2.0)
    nodes = rc.grid_nodes(re, im, GRID_N, GRID_N)
    ref = rc.cg2d(mu, kappa, alpha, nodes)
    gamma = _grid_argv("ciarlet-geymonat", mu, kappa, 2, alpha, re, im, GRID_N)
    invs = [
        Invocation("grid_gamma", gamma, "csv",
                   lambda t: rc.check_grid(t, "csv", nodes, ref), GRID_N * GRID_N),
        Invocation("grid_gamma_json", gamma + ["--format=json"], "json",
                   lambda t: rc.check_grid(t, "json", nodes, ref), GRID_N * GRID_N),
    ]

    bmu = float(rng.uniform(0.5, 2.0))
    bkappa = 2.0 * bmu / 3.0 + float(rng.uniform(0.3, 2.0))
    balpha = float(rng.uniform(-8.0, -2.0))
    R = 1.2 * rc.blatz3d_radius(bmu, bkappa, balpha)
    bnodes = rc.grid_nodes((0.0, R), (-R, R), GRID_N, GRID_N)
    bref, inside = rc.blatz3d(bmu, bkappa, balpha, bnodes)
    invs.append(Invocation(
        "grid_restricted",
        _grid_argv("blatz", bmu, bkappa, 3, balpha, (0.0, R), (-R, R), GRID_N)
        + ["--restrict-gamma-tilde"], "csv",
        lambda t: rc.check_grid(t, "csv", bnodes, bref, inside), GRID_N * GRID_N))

    lmu = float(rng.uniform(0.5, 2.0))
    lkappa = lmu * float(rng.uniform(1.5, 3.0))
    lalpha = float(rng.uniform(-10.0, -1.0))
    lnodes = rc.grid_nodes(re, im, LAMBDA_N, LAMBDA_N)
    lref = rc.cg2d_lambda(lmu, lkappa, lalpha, lnodes)
    invs.append(Invocation(
        "grid_lambda",
        _grid_argv("ciarlet-geymonat", lmu, lkappa, 2, lalpha, re, im, LAMBDA_N) + ["--var=lambda"],
        "csv", lambda t: rc.check_grid(t, "csv", lnodes, lref), LAMBDA_N * LAMBDA_N))
    return invs


def verify(rng, index, draws):
    """The oracle identity suite, 20 scenarios for each of d = 2, 3, 4."""
    seed = int(rng.integers(2**31))
    dims = ",".join(str(d) for d in VERIFY_DIMS)
    argv = ["verify", f"--seed={seed}", f"--scenarios={VERIFY_SCENARIOS}", f"--dims={dims}"]
    return [Invocation("verify", argv, "json",
                       lambda t: rc.check_verify(t, seed, VERIFY_SCENARIOS, VERIFY_DIMS),
                       VERIFY_SCENARIOS * len(VERIFY_DIMS))]


PASSES = {
    "fronts": (cold_cli, sweeps),
    "evaluate": (grids, verify),
}


def make_pass(workload, seed, index, draws):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    return [inv for part in PASSES[workload] for inv in part(rng, index, draws)]
