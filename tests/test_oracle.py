import cmath
import collections
import json
import sys

import numpy as np
import pytest

from hadshock import oracle
from hadshock.cli import main
from hadshock.errors import (
    CharacteristicSpeed,
    ConfigError,
    DomainError,
    HadshockError,
    NoConvergence,
    WrongSignForMaterial,
)
from hadshock.linalg import cofactor
from hadshock.lopatinskii import (
    beta_residual,
    delta_v1_values,
    delta_v2_values,
    freq_map_values,
    freq_unmap_values,
    stable_beta_values,
    v3_factors_values,
)
from hadshock.materials import CATALOG_NAMES, b_blocks, catalog, char_speeds, energy
from hadshock.oracle import (
    FREQUENCY_CHECKS,
    SCENARIO_CHECKS,
    _fd_det_cofactor,
    _fd_gnl_err,
    _fd_hessian_btensor_err,
    _fd_values,
    assemble_Aj,
    assemble_calA,
    assemble_symbol,
    delta_hat_assembled,
    delta_v1_raw,
    dense_eig,
    fd_check_suite,
    formula_left_eigenvector,
    hersh_counts,
    jump_vector,
    left_eigvec_residual,
    random_shock,
    sample_frequency,
    stress_jump,
    verify_suite,
)
from hadshock.shock import ElasticState, build, freq_coeffs, genuine_nonlinearity


def quadratic_roots(a, b, c):
    """Both roots of a x^2 + b x + c = 0 by the textbook formula, ordered by real part
    and then imaginary part."""
    sq = cmath.sqrt(b * b - 4.0 * a * c)
    return sorted(((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)), key=lambda z: (z.real, z.imag))


def test_assemble_Aj_block_structure(cg2):
    U = np.array([[1.1, 0.2], [-0.1, 0.9]])
    B = b_blocks(cg2, U)
    for j in (1, 2):
        A = assemble_Aj(B, j)
        assert A.shape == (6, 6)
        j0 = j - 1
        assert np.array_equal(A[j0 * 2 : (j0 + 1) * 2, 4:6], -np.eye(2))
        for i in (1, 2):
            block = A[4:6, (i - 1) * 2 : i * 2]
            assert np.allclose(block, -B[i - 1, j - 1], atol=0)
        # all other entries vanish
        mask = np.ones((6, 6), dtype=bool)
        mask[j0 * 2 : (j0 + 1) * 2, 4:6] = False
        mask[4:6, :4] = False
        assert np.all(A[mask] == 0)


def test_assemble_A1_spectrum_matches_table(cg2):
    A = assemble_symbol(b_blocks(cg2, np.eye(2)), np.array([1.0, 0.0]))
    vals = np.sort(dense_eig(A).real)
    expect = np.sort([-np.sqrt(3), -1.0, 0.0, 0.0, 1.0, np.sqrt(3)])
    assert np.abs(vals - expect).max() <= 1e-8
    assert np.abs(dense_eig(A).imag).max() <= 1e-10


def test_assemble_symbol_diagonalizable(shock_pool):
    rng = np.random.default_rng(5)
    for sf in shock_pool[3][:3]:
        xi = rng.standard_normal(3)
        A = assemble_symbol(b_blocks(sf.material, sf.plus.U), xi)
        _, vecs = np.linalg.eig(A)
        assert np.isfinite(np.linalg.cond(vecs))
        assert np.linalg.cond(vecs) < 1e8


def test_cal_A_eigenvalue_content(cg2_shock):
    norm = np.hypot(abs(0.6 + 0.3j), 0.55)
    lam, xi = (0.6 + 0.3j) / norm, np.array([0.55]) / norm
    cal = assemble_calA(cg2_shock, b_blocks(cg2_shock.material, cg2_shock.plus.U), lam, xi)
    vals = dense_eig(cal)
    s = cg2_shock.speed
    # the d^2-d = 2 fold eigenvalue -lambda/s
    ref = -lam / s
    cluster = np.abs(vals - ref) <= 1e-7 * max(1.0, np.linalg.norm(cal, 2))
    assert int(cluster.sum()) == 2
    # the two transverse-family roots solve
    # (mu - s^2) b^2 - 2 lambda s b - (lambda^2 + mu |xi|^2) = 0, both unstable
    mu = cg2_shock.material.mu
    xi_sq = float(xi @ xi)
    mu_pair = quadratic_roots(mu - s * s, -2.0 * lam * s, -(lam**2 + mu * xi_sq))
    others = vals[~cluster]
    for r in mu_pair:
        assert min(abs(others - r)) <= 1e-8
        assert r.real > 0
    # the remaining pair solves the extreme-family quadratic
    coeffs = freq_coeffs(cg2_shock, xi)
    k2 = cg2_shock.kappa2_plus
    pair = quadratic_roots(
        k2 - s * s,
        -2.0 * (lam * s + 1j * cg2_shock.h2_plus * coeffs.eta),
        -(lam**2 + coeffs.omega),
    )
    for r in pair:
        assert min(abs(others - r)) <= 1e-8
    beta = stable_beta_values(cg2_shock, lam, xi)
    assert min(abs(np.array(pair) - beta)) <= 1e-10


def test_characteristic_speed_guard(cg2_shock):
    import copy

    B = b_blocks(cg2_shock.material, cg2_shock.plus.U)
    stacked_B = np.stack([B, B])[:, None]
    lams, xis = np.ones((2, 1)), np.zeros((2, 1, 1))
    assemble_calA(oracle._stack_fronts([cg2_shock, cg2_shock]), stacked_B, lams, xis)
    for speed in (-np.sqrt(cg2_shock.material.mu), -np.sqrt(cg2_shock.kappa2_plus)):
        sf = copy.copy(cg2_shock)
        sf.speed = speed
        with pytest.raises(CharacteristicSpeed, match=f"s = {speed} "):
            assemble_calA(sf, B, 1.0, np.zeros(1))
        # one characteristic front in a stack raises for the stack
        with pytest.raises(CharacteristicSpeed, match=f"s = {speed} "):
            assemble_calA(oracle._stack_fronts([cg2_shock, sf]), stacked_B, lams, xis)


def test_guard_speeds_are_the_characteristic_speeds():
    # the guard reads sqrt(mu) and sqrt(kappa2+) from the front; they must be char_speeds'
    # values at U+ to the last bit for every law that admits a front (the two with
    # h''' = 0 admit none)
    rng = np.random.default_rng(41)
    for d in range(2, 9):
        params = {"d": d, "mu": 1.3, "kappa": 2.5, "c1": 1.7, "b": 0.8, "cbar": 1.2}
        built = set()
        for name in CATALOG_NAMES:
            m = catalog(name, params)
            for _ in range(3):
                for base, alpha in ((np.eye(d), -0.5), (np.diag([1.5] + [1.0] * (d - 1)), 0.2)):
                    U = base + 0.05 * rng.uniform(-1, 1, size=(d, d))
                    try:
                        sf = build(m, ElasticState(U), alpha)
                    except HadshockError:
                        continue
                    table = char_speeds(m, sf.plus.U)
                    assert np.array_equal(_bits(np.sqrt(sf.kappa2_plus)), _bits(table[4][0]))
                    assert np.array_equal(_bits(np.sqrt(m.mu)), _bits(table[3][0]))
                    built.add(name)
        assert built == set(CATALOG_NAMES) - {"levinson-burgess", "ogden-hill"}


def test_jump_vector_zero_transverse(cg2_shock):
    K = jump_vector(cg2_shock, stress_jump(cg2_shock), 1.0, np.zeros(1))
    jU1 = cg2_shock.plus.U[:, 0] - cg2_shock.minus.U[:, 0]
    jv = cg2_shock.plus.v - cg2_shock.minus.v
    assert np.allclose(K[:2], jU1, atol=0)
    assert np.allclose(K[2:4], 0.0, atol=0)
    assert np.allclose(K[4:], jv, atol=0)


def test_left_eigenvector_and_jump_identities(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(900 + d, d)
        for sf in pool[:5]:
            B = b_blocks(sf.material, sf.plus.U)
            lam, xi = sample()
            beta = complex(stable_beta_values(sf, lam, xi))
            l = formula_left_eigenvector(sf, B, lam, xi, beta)
            cal = assemble_calA(sf, B, lam, xi)
            assert np.linalg.norm(l @ cal - beta * l) <= 1e-10 * np.linalg.norm(l)
            jump_sig = stress_jump(sf)
            K = jump_vector(sf, jump_sig, lam, xi)
            hat = delta_hat_assembled(sf, B, jump_sig, xi, beta)
            lk = complex(l @ K)
            assert abs(lk - (lam + beta * sf.speed) * hat) <= 1e-10 * (1.0 + abs(lk))
            # and the closed form v1 equals (i/alpha) * assembled value
            v1 = delta_v1_values(sf, lam, xi)
            assert abs(v1 - 1j / sf.alpha * hat) <= 1e-10 * (1.0 + abs(v1))


# Two d=4 ogden-foam fronts of the verify suite (seeds 1263816536 and
# 653669084) where ||l calA - beta l|| / ||l|| exceeded 1e-10 only through
# the solve with A^1 - s I inside calA (cond ~ 3e4, ||calA|| ~ 1e4).
FOAM_D4_CASES = [
    (
        {"d": 4, "mu": 1.0145024509992584, "c1": 2.9535550822722048},
        [[1.431238969928463, 0.2242328141129245, -0.37603557477342076, 0.46432650428833333],
         [0.19055492057159307, 1.3335347514881768, 0.08955386839242951, 0.08764108772599521],
         [0.43758731263057404, -0.10323712736959767, 1.35685349779397, -0.1807245303231494],
         [0.3557586011275833, -0.2781279805608614, -0.10121215802598293, 1.2897338218211392]],
        [0.8959590276921596, -0.36926454423734123, 0.6412529174655277, 0.8568984164984055],
        -2.0305871374272337,
        0.18226843676349747 - 0.5847201287085126j,
        [0.7326371816088206, -0.29277520875380275, -0.049051251832573584],
    ),
    (
        {"d": 4, "mu": 1.8026471974476184, "c1": 2.8476048397613165},
        [[1.2634509755497483, 0.47956152204523583, -0.02888185368501406, -0.41604278121803184],
         [-0.4476152065930141, 1.2600383158685404, -0.09710342711328546, -0.26606150138061646],
         [-0.23413605220868672, -0.438996155575177, 1.3443270670096479, -0.4703143490994498],
         [-0.0057975109303004535, 0.396043440662888, 0.1713953619129519, 1.3716933312085131]],
        [0.4741570533541093, -0.4206826024330752, 0.4139396016132115, 0.9709380586348682],
        -1.7763604732373293,
        0.7785702631298115 - 0.48096417764550536j,
        [-0.02689886157806843, 0.3455688368936105, 0.20581650906951068],
    ),
]


@pytest.mark.parametrize("case", FOAM_D4_CASES)
def test_left_eigvec_residual_is_rounding_level_and_catches_perturbation(case):
    params, U, v, alpha, lam, xi = case
    sf = build(catalog("ogden-foam", params), ElasticState(U, v), alpha)
    xi = np.array(xi)
    beta = complex(stable_beta_values(sf, lam, xi))
    B = b_blocks(sf.material, sf.plus.U)
    l = formula_left_eigenvector(sf, B, lam, xi, beta)
    assert left_eigvec_residual(sf, B, lam, xi, l, beta) <= 1e-12
    # a 1e-8 ||l|| change of any one component fails the 1e-10 check by far
    step = 1e-8 * np.linalg.norm(l)
    for e in np.eye(l.size):
        assert left_eigvec_residual(sf, B, lam, xi, l + step * e, beta) >= 1e-7


def test_hersh_counts(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(700 + d, d)
        for sf in pool[:5]:
            stable, cluster = hersh_counts(sf, b_blocks(sf.material, sf.plus.U), *sample())
            assert stable == 1
            assert cluster == d * d - d


def _frequency_functions(sf, B, jump_sig, lam, xi, beta):
    """Every frequency function of the oracle (and beta_residual) at lam (...), xi (..., k)."""
    l = formula_left_eigenvector(sf, B, lam, xi, beta)
    return {
        "delta_v1_raw": delta_v1_raw(sf, lam, xi),
        "delta_hat_assembled": delta_hat_assembled(sf, B, jump_sig, xi, beta),
        "formula_left_eigenvector": l,
        "jump_vector": jump_vector(sf, jump_sig, lam, xi),
        "assemble_calA": assemble_calA(sf, B, lam, xi),
        "left_eigvec_residual": left_eigvec_residual(sf, B, lam, xi, l, beta),
        "beta_residual": beta_residual(sf, lam, xi, beta),
        "hersh_counts": np.stack(hersh_counts(sf, B, lam, xi), axis=-1),
    }


def _bits(x):
    return np.ascontiguousarray(np.atleast_1d(x)).view(np.uint64)


def python_complex_forms(sf, lam, xi, beta):
    """beta_residual and delta_v1_raw at one frequency in Python complex arithmetic, as
    verify computed them before the stacks; numpy's vector complex product may fuse."""
    c = freq_coeffs(sf, xi)
    s, k2, th11 = sf.speed, sf.kappa2_plus, sf.theta11
    residual = abs((k2 - s * s) * beta * beta - 2.0 * (lam * s + 1j * sf.h2_plus * c.eta) * beta
                   - (lam * lam + c.omega))
    ssum = (k2 - s * s) * c.Nsq + sf.alpha * (s * s - sf.material.mu) / sf.Jplus * float(
        xi @ sf.Theta[1:, 1:] @ xi)
    raw = (k2 - s * s) * th11 * beta * beta - 2j * beta * (k2 - s * s) * c.eta - ssum
    return {"beta_residual": residual, "delta_v1_raw": raw}


def test_frequency_stack_equals_single_calls_bit_for_bit(shock_pool):
    # verify computes each scenario's frequencies as one stack; element i must be the
    # call on frequency i alone, as verify made it before, to the last bit
    rng = np.random.default_rng(131)
    checked = 0
    for d, pool in shock_pool.items():
        for sf in pool[:6]:
            B, jump_sig = b_blocks(sf.material, sf.plus.U), stress_jump(sf)
            lams, xis = (np.array(v) for v in zip(*(sample_frequency(rng, d) for _ in range(3))))
            betas = stable_beta_values(sf, lams, xis)
            stacked = _frequency_functions(sf, B, jump_sig, lams, xis, betas)
            for i in range(3):
                single = _frequency_functions(sf, B, jump_sig, complex(lams[i]), xis[i],
                                              complex(betas[i]))
                forms = python_complex_forms(sf, complex(lams[i]), xis[i], complex(betas[i]))
                for name, value in forms.items():
                    assert np.array_equal(_bits(value), _bits(single[name])), name
                for name, value in single.items():
                    assert np.shape(value) == stacked[name].shape[1:], name
                    assert np.array_equal(_bits(value), _bits(stacked[name][i])), name
            cal = stacked["assemble_calA"]
            assert np.array_equal(_bits([dense_eig(c) for c in cal]), _bits(dense_eig(cal)))
            checked += 1
    assert checked == 18


def _scenarios_with_both_rho_signs(d, count):
    """count verify scenarios of dimension d, among them fronts with rho < 0 and rho > 0."""
    rng = np.random.default_rng(2000 + d)
    drawn = [oracle._draw(rng, d, k) for k in range(count)]
    while len({bool(sc.sf.rho < 0) for sc in drawn}) < 2:
        drawn.append(oracle._draw(rng, d, len(drawn)))
    return drawn


def _single_frequency_values(sf, B, lam, xi):
    """The values verify's frequency checks compare for one scenario at one frequency, from
    the calls on the front and frequency alone."""
    beta = stable_beta_values(sf, lam, xi)
    gamma = freq_map_values(sf, lam, xi)
    coeffs = freq_coeffs(sf, xi)
    l = formula_left_eigenvector(sf, B, lam, xi, beta)
    stable, cluster = hersh_counts(sf, B, lam, xi)
    jump_sig = stress_jump(sf)
    return {
        "beta": beta, "beta_residual": beta_residual(sf, lam, xi, beta), "gamma": gamma,
        "back": freq_unmap_values(sf, gamma, xi), "P": coeffs.P, "zeta": coeffs.zeta,
        "eta": coeffs.eta, "v1c": delta_v1_values(sf, lam, xi), "v1r": delta_v1_raw(sf, lam, xi),
        "v2": delta_v2_values(sf, gamma, xi),
        "hat": delta_hat_assembled(sf, B, jump_sig, xi, beta),
        "l": l, "l_residual": left_eigvec_residual(sf, B, lam, xi, l, beta),
        "K": jump_vector(sf, jump_sig, lam, xi), "stable": stable, "cluster": cluster,
    }


def frequency_identities(sf, B, lams, xis):
    """verify's frequency checks of one scenario as (name, err, tol) in the order it records
    them, in Python scalar arithmetic on the calls at one frequency at a time, as verify
    computed them before the checks were stacked."""
    factor = sf.speed**2 * sf.theta11 / sf.kappa2_plus
    for lam, xi in zip(lams.tolist(), xis):
        v = _single_frequency_values(sf, B, lam, xi)
        beta = complex(v["beta"])
        yield "beta_residual", float(v["beta_residual"]), 1e-11
        yield "beta_stable_halfplane", 0.0 if beta.real < 0 else 1.0, 0.5
        yield "beta_not_curl_artifact", 0.0 if abs(lam + beta * sf.speed) > 1e-10 else 1.0, 0.5
        yield "map_roundtrip", abs(complex(v["back"]) - lam), 1e-13
        P, zeta, eta = float(v["P"]), float(v["zeta"]), float(v["eta"])
        yield "P_nonnegative", 0.0 if P >= 0 else 1.0, 0.5
        yield "zeta_nonnegative", 0.0 if zeta >= 0 else 1.0, 0.5
        yield "zeta_tau_margin", 0.0 if zeta - (sf.tau * eta) ** 2 >= -1e-13 else 1.0, 0.5
        v1c, v1r, v2 = complex(v["v1c"]), complex(v["v1r"]), complex(v["v2"])
        yield "v1_raw_vs_completed", abs(v1c - v1r) / (1.0 + abs(v1c)), 1e-12
        yield "v1_vs_v2_mapped", abs(v1c - factor * v2) / (1.0 + abs(v1c)), 1e-10
        hat = complex(v["hat"])
        yield "v1_vs_assembled", abs(v1c - 1j / sf.alpha * hat) / (1.0 + abs(v1c)), 1e-10
        yield "left_eigvec_residual", float(v["l_residual"]), 1e-10
        lk = complex(v["l"] @ v["K"])
        yield ("jump_product_identity", abs(lk - (lam + beta * sf.speed) * hat) / (1.0 + abs(lk)),
               1e-10)
        yield "hersh_stable_count", 0.0 if v["stable"] == 1 else 1.0, 0.5
        yield "hersh_cluster_size", 0.0 if v["cluster"] == sf.dim**2 - sf.dim else 1.0, 0.5
        if sf.rho < 0:
            f_minus, f_plus = (complex(f) for f in v3_factors_values(sf, v["gamma"], xi))
            prod = (sf.kappa2_plus - sf.speed**2) * sf.theta11 * f_minus * f_plus
            yield "v3_factorization", abs(prod - v1c) / (1.0 + abs(v1c)), 1e-11
            yield "v3_first_factor_stable", 0.0 if f_minus.real < 0 else 1.0, 0.5


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_scenario_stack_equals_single_calls_bit_for_bit(d):
    # verify checks a dimension's scenarios as one stack; every check value of scenario k
    # must be that of the one-scenario stack that verify falls back to when a stack raises,
    # to the last bit; so must its FD values be fd_check_suite's at its seed, and its
    # frequency values those of the scalar reference frequency_identities
    drawn = _scenarios_with_both_rho_signs(d, 4)
    stacked = oracle._scenario_values(drawn)
    S = len(drawn)
    width = {"stress_jump_closed_form": (d,), "btensor_transpose_symmetry": (d * d,)}
    shapes = {name: (S,) + width.get(name, ()) for name, _ in SCENARIO_CHECKS}
    shapes.update((name, (S, 3)) for name, _ in FREQUENCY_CHECKS)
    shapes["interior_nonvanishing"] = (S,)
    assert {name: value.shape for name, value in stacked.items()} == shapes
    sf_stack = oracle._stack_fronts([sc.sf for sc in drawn])
    B = np.stack([b_blocks(sc.sf.material, sc.sf.plus.U) for sc in drawn])[:, None]
    lams, xis = np.stack([sc.lams for sc in drawn]), np.stack([sc.xis for sc in drawn])
    cal = assemble_calA(sf_stack, B, lams, xis)
    assert cal.shape == (S, 3, d * d + d, d * d + d)
    one_by_one = [[dense_eig(c) for c in row] for row in cal]
    assert np.array_equal(_bits(dense_eig(cal)), _bits(one_by_one))
    re = np.linspace(0.01, 2.0, oracle.CONTROL_NODES)
    im = np.linspace(-2.0, 2.0, oracle.CONTROL_NODES)
    grid = re[None, :] + 1j * im[:, None]
    control_grid = delta_v2_values(sf_stack, grid.ravel(),
                                   np.stack([sc.control_xi for sc in drawn])[:, None, :])
    for k, sc in enumerate(drawn):
        alone = oracle._scenario_values([sc])
        for name, value in stacked.items():
            assert np.array_equal(_bits(value[k]), _bits(alone[name][0])), name
        m, U = sc.sf.material, sc.sf.plus.U
        fd = fd_check_suite(m, U, b_blocks(m, U), seed=sc.fd_seed)
        assert fd.pop("pass")
        for name, value in fd.items():
            assert np.array_equal(_bits(value), _bits(stacked[f"fd_{name}"][k])), name
        # the rho < 0 checks are recorded only for a front with rho < 0, chosen by its rho
        frequency = FREQUENCY_CHECKS if sc.sf.rho < 0 else FREQUENCY_CHECKS[:-2]
        expect = list(frequency_identities(sc.sf, B[k, 0], sc.lams, sc.xis))
        assert [(name, tol) for name, _, tol in expect] == [*frequency] * 3
        for j, (name, err, _) in enumerate(expect):
            assert np.array_equal(_bits(err), _bits(stacked[name][k, j // len(frequency)])), name
        for i in range(3):
            lam, xi = complex(sc.lams[i]), sc.xis[i]
            assert np.array_equal(_bits(assemble_calA(sc.sf, B[k, 0], lam, xi)), _bits(cal[k, i]))
        single_grid = delta_v2_values(sc.sf, grid, sc.control_xi)
        assert np.array_equal(_bits(single_grid.ravel()), _bits(control_grid[k]))
        nonvanishing = 0.0 if np.abs(single_grid).min() > 1e-6 else 1.0
        assert stacked["interior_nonvanishing"][k] == nonvanishing


def test_verify_report_does_not_depend_on_the_stack_size(monkeypatch):
    # one scenario per stacked call, a few, and a dimension's all at once
    reports = []
    for size in (1, 1 << 15, 1 << 30):
        monkeypatch.setattr(oracle, "STACK_BYTES", size)
        reports.append(json.dumps(verify_suite(seed=101, scenarios=7, dims=(2, 3, 4))))
    assert reports[0] == reports[1] == reports[2]


def _verify_fronts(seed, scenarios, dims):
    """The fronts verify_suite draws, in order, from a run with every check intact."""
    fronts = []
    real = oracle.random_shock
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "random_shock", lambda *a: fronts.append(real(*a)) or fronts[-1])
        assert verify_suite(seed=seed, scenarios=scenarios, dims=dims)["ok"]
    return fronts


def _fail_fd_at(monkeypatch, k, then=None):
    """The FD determinant check reads 1 at the scenario drawn k-th (0-based, over all
    dimensions), in a stack or alone; the draw after it raises then, if given."""
    drawn, real_draw, real_fd = [], oracle._draw, oracle._fd_values

    def draw(*args):
        if len(drawn) == k + 1 and then is not None:
            raise then
        drawn.append(real_draw(*args))
        return drawn[-1]

    def fd_values(ms, U, *args):
        values = real_fd(ms, U, *args)
        if len(drawn) > k:
            hit = [np.array_equal(u, drawn[k].sf.plus.U) for u in U]
            values["grad_det_vs_cofactor"][hit] = 1.0
        return values
    monkeypatch.setattr(oracle, "_draw", draw)
    monkeypatch.setattr(oracle, "_fd_values", fd_values)


def _fail_frequency_at(monkeypatch, alpha, value=1.0):
    """left_eigvec_residual reads value at every frequency of the front of intensity alpha."""
    real = oracle.left_eigvec_residual

    def patched(sf, *args):
        out = real(sf, *args)
        return np.where(np.asarray(sf.alpha) == alpha, value, out)
    monkeypatch.setattr(oracle, "left_eigvec_residual", patched)


def _raise_in_jump_vector_at(monkeypatch, alpha, exc):
    real = oracle.jump_vector

    def patched(sf, *args):
        if np.any(np.asarray(sf.alpha) == alpha):
            raise exc
        return real(sf, *args)
    monkeypatch.setattr(oracle, "jump_vector", patched)


@pytest.mark.parametrize("where", ["fd", "frequency"])
def test_verify_stops_after_the_first_failing_scenario(monkeypatch, where):
    k, seed = 2, 7
    if where == "fd":
        _fail_fd_at(monkeypatch, k)
        check = "fd_grad_det_vs_cofactor"
    else:
        _fail_frequency_at(monkeypatch, _verify_fronts(seed, 5, (2,))[k].alpha)
        check = "left_eigvec_residual"
    rep = verify_suite(seed=seed, scenarios=5, dims=(2, 3))
    assert not rep["ok"]
    assert rep["first_failure"]["check"] == check
    assert rep["first_failure"]["context"].startswith(f"d=2 scenario={k} ")
    # scenario k is recorded whole, nothing after it
    assert rep["checks"]["rh_velocity"]["count"] == k + 1
    assert rep["checks"]["beta_residual"]["count"] == 3 * (k + 1)
    assert rep["checks"]["interior_nonvanishing"]["count"] == k + 1
    assert rep["checks"][check]["max_err"] == 1.0


def test_a_nan_check_value_fails_verify(monkeypatch, capsys):
    # NaN > tol is False: a NaN value must still count as a violated identity
    k, seed = 1, 7
    _fail_frequency_at(monkeypatch, _verify_fronts(seed, 3, (2,))[k].alpha, np.nan)
    assert main(["verify", f"--seed={seed}", "--scenarios=3", "--dims=2"]) == 4
    rep = json.loads(capsys.readouterr().out)
    assert rep["first_failure"]["check"] == "left_eigvec_residual"
    assert rep["first_failure"]["err"] is None  # NaN is written as null
    assert rep["first_failure"]["context"].startswith(f"d=2 scenario={k} ")
    assert rep["checks"]["rh_velocity"]["count"] == k + 1


def test_verify_counts_follow_from_the_check_tables():
    seed, scenarios, dims = 7, 20, (2, 3, 4)
    fronts = _verify_fronts(seed, scenarios, dims)
    negative = [sum(f.rho < 0 for f in fronts[i * scenarios : (i + 1) * scenarios])
                for i in range(len(dims))]
    width = {"stress_jump_closed_form": lambda d: d, "btensor_transpose_symmetry": lambda d: d * d}
    expect = {name: sum(scenarios * width.get(name, lambda d: 1)(d) for d in dims)
              for name, _ in SCENARIO_CHECKS}
    expect.update((name, 3 * len(fronts)) for name, _ in FREQUENCY_CHECKS[:-2])
    expect.update((name, 3 * sum(negative)) for name, _ in FREQUENCY_CHECKS[-2:])
    expect["interior_nonvanishing"] = len(fronts)
    expect["winding_interior_zeros"] = sum(n > 0 for n in negative)
    rep = verify_suite(seed=seed, scenarios=scenarios, dims=dims)
    assert rep["ok"]
    assert {name: check["count"] for name, check in rep["checks"].items()} == expect
    assert (expect["rh_velocity"], expect["beta_residual"]) == (60, 180)
    assert (expect["stress_jump_closed_form"], expect["btensor_transpose_symmetry"]) == (180, 580)
    assert 0 < sum(negative) < 60 and expect["winding_interior_zeros"] == 3


@pytest.mark.parametrize("where", ["draw", "stack"])
def test_verify_exception_after_a_failure_reports_the_failure(monkeypatch, capsys, where):
    k, seed = 1, 7
    if where == "draw":
        _fail_fd_at(monkeypatch, k, then=RuntimeError("not reached before the failure"))
    else:
        fronts = _verify_fronts(seed, 4, (2,))
        _fail_fd_at(monkeypatch, k)
        _raise_in_jump_vector_at(monkeypatch, fronts[k + 1].alpha,
                                 RuntimeError("not reached before the failure"))
    code = main(["verify", f"--seed={seed}", "--scenarios=4", "--dims=2,3"])
    captured = capsys.readouterr()
    assert code == 4 and captured.err == ""
    rep = json.loads(captured.out)
    assert rep["first_failure"]["context"].startswith(f"d=2 scenario={k} ")
    assert rep["checks"]["rh_velocity"]["count"] == k + 1


def test_verify_exception_before_any_failure_propagates(monkeypatch, capsys):
    k, seed = 2, 7
    fronts = _verify_fronts(seed, 5, (2,))
    # a failure at k + 1 is never recorded: the exception at k ends the run
    _fail_fd_at(monkeypatch, k + 1)
    _raise_in_jump_vector_at(monkeypatch, fronts[k].alpha,
                             CharacteristicSpeed("s = -1.5 is characteristic for U+"))
    assert main(["verify", f"--seed={seed}", "--scenarios=5", "--dims=2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "CharacteristicSpeed: s = -1.5 is characteristic for U+\n"


def test_verify_takes_the_acoustic_spectrum_from_the_symmetric_solver():
    # complex geev does not converge on one d=4 acoustic tensor of this suite
    rep = verify_suite(seed=175785237, scenarios=20, dims=(2, 3, 4))
    assert rep["ok"], rep.get("first_failure")
    assert rep["checks"]["acoustic_spectrum_vs_eig"]["count"] == 60
    assert rep["checks"]["acoustic_spectrum_vs_eig"]["max_err"] <= 1e-14


def test_frequency_work_does_not_grow_with_the_stack(monkeypatch, cg2_shock):
    calls = collections.Counter()
    for name in ("piola_kirchhoff", "char_speeds"):
        def counted(*args, _f=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(oracle, name, counted)
    # per scenario, whatever its number of frequencies: one stacked stress pair, which the
    # frequency functions take as an argument, and one char_speeds table for the material
    # checks; the characteristic-speed guard reads the front's own fields
    rep = verify_suite(seed=7, scenarios=2, dims=(2, 3))
    assert rep["ok"] and rep["checks"]["beta_residual"]["count"] == 12
    assert calls == {"piola_kirchhoff": 4, "char_speeds": 4}
    sf = cg2_shock
    B, jump_sig = b_blocks(sf.material, sf.plus.U), stress_jump(sf)
    for n in (1, 7):
        calls.clear()
        lams = np.full(n, 0.6 + 0.3j)
        xis = np.full((n, 1), 0.55)
        _frequency_functions(sf, B, jump_sig, lams, xis, stable_beta_values(sf, lams, xis))
        assert calls == {}


def test_scenario_checks_do_not_grow_with_the_stack(monkeypatch):
    # with a dimension's scenarios in one stack, each brute-force step is one call for all
    monkeypatch.setattr(oracle, "STACK_BYTES", 1 << 30)
    calls = collections.Counter()
    real_dense_eig, real_eigh, real_det = oracle.dense_eig, np.linalg.eigh, np.linalg.det

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    def det(*args):  # the FD stencils' determinants, not those of draws or closed forms
        frame = sys._getframe(1)
        if (frame.f_globals["__name__"] == "hadshock.oracle"
                and frame.f_code.co_qualname.startswith("_fd")):
            calls["det"] += 1
        return real_det(*args)
    monkeypatch.setattr(oracle, "dense_eig", counted("dense_eig", real_dense_eig))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", real_eigh))
    monkeypatch.setattr(np.linalg, "det", det)
    for d in (2, 3, 4):
        counts = []
        for scenarios in (2, 7):
            calls.clear()
            assert verify_suite(seed=7, scenarios=scenarios, dims=(d,))["ok"]
            counts.append(dict(calls))
        assert counts[0] == counts[1] == {"dense_eig": 1, "eigh": 1, "det": 4}, d


def test_dense_eig_examples():
    vals = np.sort(dense_eig(np.diag([1.0, 2.0, 3.0]).astype(complex)).real)
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-12)
    # companion matrix of a quadratic agrees with the quadratic formula
    a, b, c = 2.0 + 1j, -3.0, 1.5 - 0.5j
    comp = np.array([[0.0, -c / a], [1.0, -b / a]], dtype=complex)
    roots = sorted(dense_eig(comp), key=lambda z: (z.real, z.imag))
    pair = quadratic_roots(a, b, c)
    assert all(abs(x - y) <= 1e-10 for x, y in zip(roots, pair))
    rng = np.random.default_rng(1)
    S = rng.standard_normal((6, 6))
    S = S + S.T
    assert np.abs(dense_eig(S.astype(complex)).imag).max() <= 1e-10


def test_dense_eig_dimension_guard():
    with pytest.raises(DomainError, match="dense_eig is limited to dim <= 30, got 31"):
        dense_eig(np.eye(31, dtype=complex))


@pytest.mark.parametrize("dims", [(6,), (9,), (2, 6)])
def test_verify_suite_rejects_unserved_dims_before_drawing(monkeypatch, dims):
    def drawn(*args):
        raise AssertionError("verify_suite drew a scenario")
    monkeypatch.setattr(oracle, "random_shock", drawn)
    with pytest.raises(ConfigError, match=r"verify_suite checks dims 2\.\.5"):
        verify_suite(seed=1, scenarios=2, dims=dims)


def test_fd_check_suite_passes(cg2):
    rng = np.random.default_rng(19)
    U = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
    rep = fd_check_suite(cg2, U, b_blocks(cg2, U), seed=3)
    assert rep["pass"]
    assert rep["grad_det_vs_cofactor"] <= 1e-7
    assert rep["cofactor_derivative"] <= 1e-6
    assert rep["hessian_vs_btensor"] <= 1e-5
    assert rep["genuine_nonlinearity"] <= 1e-5


def test_fd_check_suite_builds_one_stencil(monkeypatch, cg2):
    # the determinant gradient and the cofactor derivative share one stencil, and Cof U is
    # taken once for every check
    U = np.array([[1.1, 0.2], [-0.1, 0.9]])
    counts = collections.Counter()
    real_moves, real_cofactor = oracle._moves, oracle.cofactor

    def moves(*args):
        counts["_moves"] += 1
        return real_moves(*args)

    def counted_cofactor(X):
        counts["cofactor(U)"] += X.shape == U.shape and np.array_equal(X, U)
        return real_cofactor(X)
    monkeypatch.setattr(oracle, "_moves", moves)
    monkeypatch.setattr(oracle, "cofactor", counted_cofactor)
    assert fd_check_suite(cg2, U, b_blocks(cg2, U), seed=3)["pass"]
    assert counts == {"_moves": 1, "cofactor(U)": 1}


# The finite-difference checks as they were written before their stencils went
# into one stack; the stacked checks must reproduce them bit for bit.

def fd_grad_det_loop(U):
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


def fd_cof_derivative_err_loop(U):
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


def fd_gnl_err_reference(m, U, direction):
    """_fd_gnl_err as it was written before it took Cof U as an argument."""
    nu = direction / np.linalg.norm(direction)

    def a1(mat):
        w = cofactor(mat) @ nu
        return -np.sqrt(m.mu + float(m.h2(np.linalg.det(mat))) * float(w @ w))

    z = -(1.0 / a1(U)) * (cofactor(U) @ nu)
    Z = np.outer(z, nu)
    step = 1e-5 * (1.0 + np.abs(U).max())
    fd = (a1(U + step * Z) - a1(U - step * Z)) / (2.0 * step)
    closed = genuine_nonlinearity(m, U, nu)
    return abs(fd - closed) / max(1.0, abs(closed))


def fd_hessian_btensor_err_loop(m, U):
    d = U.shape[0]
    step = 1e-4 * (1.0 + np.abs(U).max())

    def W(*moves):
        X = U.copy()
        for idx, sign in moves:
            X[idx] += sign * step
        return energy(m, X)

    B = b_blocks(m, U)
    blocks = {(i, j): B[i - 1, j - 1] for i in range(1, d + 1) for j in range(1, d + 1)}
    scale = max(np.abs(b).max() for b in blocks.values())
    worst = 0.0
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for p in range(d):
                for q in range(d):
                    a_idx, b_idx = (p, j - 1), (q, i - 1)
                    if a_idx == b_idx:
                        fd = (W((a_idx, 1)) - 2.0 * W() + W((a_idx, -1))) / step**2
                    else:
                        fd = (W((a_idx, 1), (b_idx, 1)) - W((a_idx, 1), (b_idx, -1))
                              - W((a_idx, -1), (b_idx, 1)) + W((a_idx, -1), (b_idx, -1)))
                        fd /= 4.0 * step**2
                    worst = max(worst, abs(fd - blocks[(i, j)][p, q]) / scale)
    return worst


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_fd_checks_match_scalar_loops_bit_for_bit(d):
    # each check on one matrix, and on the stack of every catalog law's matrix at once
    rng, directions = np.random.default_rng(60 + d), np.random.default_rng(70 + d)
    params = {"d": d, "mu": 1.3, "kappa": 2.5, "c1": 1.7, "b": 0.8, "cbar": 1.2}
    ms, Us, nus = [], [], []
    for name in CATALOG_NAMES:
        m = catalog(name, params)
        U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        while np.linalg.det(U) <= 0.2:
            U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        grad, cof_err = _fd_det_cofactor(U, cofactor(U))
        assert grad.tobytes() == fd_grad_det_loop(U).tobytes()
        assert cof_err == fd_cof_derivative_err_loop(U)
        direction = directions.standard_normal(d)
        assert (_fd_gnl_err([m], U[None], cofactor(U)[None], direction[None])[0]
                == fd_gnl_err_reference(m, U, direction))
        assert (_fd_hessian_btensor_err([m], U[None], b_blocks(m, U)[None])[0]
                == fd_hessian_btensor_err_loop(m, U))
        ms.append(m), Us.append(U), nus.append(direction)
    U = np.stack(Us)
    stacked = _fd_values(ms, U, cofactor(U), np.stack([b_blocks(m, u) for m, u in zip(ms, U)]),
                         np.stack(nus))
    for k, (m, u) in enumerate(zip(ms, U)):
        assert stacked["cofactor_derivative"][k] == fd_cof_derivative_err_loop(u)
        assert stacked["genuine_nonlinearity"][k] == fd_gnl_err_reference(m, u, nus[k])
        assert stacked["hessian_vs_btensor"][k] == fd_hessian_btensor_err_loop(m, u)


# checks whose value depends on the B-blocks
BLOCK_CHECKS = {
    "acoustic_double_sum", "btensor_transpose_symmetry", "char_speeds_vs_eig",
    "fd_hessian_vs_btensor", "v1_vs_assembled", "left_eigvec_residual",
    "jump_product_identity", "hersh_stable_count", "hersh_cluster_size",
}


def test_batched_oracle_catches_a_wrong_block(monkeypatch):
    true_blocks = oracle.b_blocks

    def off_by(rel):
        def wrong(m, U):
            B = true_blocks(m, U)
            B[np.unravel_index(np.argmax(np.abs(B)), B.shape)] *= 1.0 + rel
            return B
        return wrong

    sf = random_shock(np.random.default_rng(11), 3)
    m, U = sf.material, sf.plus.U
    clean = fd_check_suite(m, U, oracle.b_blocks(m, U))["hessian_vs_btensor"]
    assert clean <= 1e-7
    # the FD Hessian is not built from the blocks: it sees a 1e-6 change far
    # above its noise, and a 1e-4 change fails its 1e-5 tolerance
    monkeypatch.setattr(oracle, "b_blocks", off_by(1e-6))
    assert fd_check_suite(m, U, oracle.b_blocks(m, U))["hessian_vs_btensor"] >= 0.5e-6
    rep = verify_suite(seed=7, scenarios=2, dims=(2,))
    assert not rep["ok"]
    assert rep["first_failure"]["check"] in BLOCK_CHECKS
    monkeypatch.setattr(oracle, "b_blocks", off_by(1e-4))
    assert fd_check_suite(m, U, oracle.b_blocks(m, U))["hessian_vs_btensor"] > 1e-5


def test_random_shock_does_not_retry_programming_errors(monkeypatch):
    calls = []

    def broken(*args):
        calls.append(args)
        raise TypeError("a bug in build")

    monkeypatch.setattr(oracle, "build", broken)
    with pytest.raises(TypeError):
        random_shock(np.random.default_rng(1), 2)
    assert len(calls) == 1


def test_random_shock_exhaustion_is_typed(monkeypatch, capsys):
    def rejected(*args):
        raise WrongSignForMaterial("never admissible")

    monkeypatch.setattr(oracle, "build", rejected)
    with pytest.raises(NoConvergence):
        random_shock(np.random.default_rng(1), 2, max_tries=5)
    assert main(["verify", "--seed=1", "--scenarios=1", "--dims=2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NoConvergence: no admissible d=2 shock scenario")


def test_random_shock_generator_properties():
    rng = np.random.default_rng(99)
    for d in (2, 3, 4):
        sf = random_shock(rng, d)
        assert sf.dim == d
        assert -3.0 <= sf.alpha <= -0.05
        assert np.linalg.det(sf.plus.U) > 0.2


def test_sample_frequency_on_hemisphere():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        lam, xi = sample_frequency(rng, d)
        assert lam.real >= 0.05
        assert abs(abs(lam) ** 2 + float(xi @ xi) - 1.0) <= 1e-12


def test_verify_suite_smoke():
    rep = verify_suite(seed=123, scenarios=2, dims=(2, 3))
    assert rep["ok"], rep.get("first_failure")
    assert rep["seed"] == 123
    assert rep["checks"]["beta_residual"]["count"] > 0


def test_verify_tracker_fails_fast():
    from hadshock.oracle import _Tracker

    t = _Tracker()
    t.record("fine", 1e-14, 1e-10, "ctx0")
    t.record("broken", 1e-3, 1e-10, "ctx1")
    t.record("broken", 2e-3, 1e-10, "ctx2")
    assert not t.ok
    assert t.failure["check"] == "broken"
    assert t.failure["context"] == "ctx1"  # first violation wins
    assert t.checks["broken"]["max_err"] == 2e-3


def test_verify_tracker_fails_on_nan():
    from hadshock.oracle import _Tracker

    t = _Tracker()
    t.record("fine", 0.0, 0.5, "ctx0")
    t.record("nan", float("nan"), 0.5, "ctx1")
    assert not t.ok
    assert t.failure["check"] == "nan" and t.failure["context"] == "ctx1"
