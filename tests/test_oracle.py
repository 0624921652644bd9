import cmath
import collections
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    delta_v1_values,
    delta_v2_values,
    freq_map_values,
    freq_unmap_values,
    stable_beta_values,
)
from hadshock.materials import CATALOG_NAMES, acoustic_tensor, b_blocks, catalog, char_speeds
from hadshock.oracle import (
    FREQUENCY_CHECKS,
    SCENARIO_CHECKS,
    _fd_values,
    assemble_Aj,
    assemble_calA,
    assemble_symbol,
    beta_residual,
    delta_hat_assembled,
    delta_v1_raw_terms,
    dense_eig,
    fd_check_suite,
    formula_left_eigenvector,
    hersh_counts,
    jump_vector,
    left_eigvec_residual,
    random_shock,
    sample_frequency,
    stress_jump,
    v3_factors_values,
    verify_suite,
)
from hadshock.shock import ElasticState, build, freq_coeffs


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


def test_hersh_cluster_holds_its_members_and_nothing_a_hair_away(monkeypatch, shock_pool,
                                                                frequency_sampler):
    # the d^2 - d members of -lambda/s sit within about 1e-13 max(||calA||, 1) of it, so the
    # 1e-10 window keeps them all; one member moved by 1e-9 of that scale leaves the cluster
    real = oracle._eig_and_norm
    for d, pool in shock_pool.items():
        sf, (lam, xi) = pool[0], frequency_sampler(900 + d, d)()
        B, ref = b_blocks(sf.material, sf.plus.U), -lam / sf.speed
        for shift, members in ((1e-11, d * d - d), (1e-9, d * d - d - 1)):
            def moved(A, shift=shift):
                vals, norm = real(A)
                vals = vals.copy()
                vals[np.argmin(np.abs(vals - ref))] += shift * max(float(norm), 1.0)
                return vals, norm
            monkeypatch.setattr(oracle, "_eig_and_norm", moved)
            assert hersh_counts(sf, B, lam, xi) == (1, members), (d, shift)


def test_verify_passes_the_seed_whose_cluster_took_a_distinct_eigenvalue():
    # seed 1964835785 at d = 4, scenario 4 (Ogden foam, alpha -0.0522): an eigenvalue of
    # calA that is not -lambda/s sat 6.8e-8 max(||calA||, 1) from it, inside a 1e-7 window
    rep = verify_suite(seed=1964835785, scenarios=20, dims=(2, 3, 4))
    assert rep["ok"], rep.get("first_failure")


def test_random_materials_have_h3_negative_on_every_J():
    # random_material's laws and moduli, as its docstring says: h''' < 0 on all J > 0,
    # read from the rows
    rng, drawn = random.Random(5), set()
    for d in range(2, 9):
        for _ in range(60):
            m = oracle.random_material(rng, d)
            drawn.add(m.name)
            assert m.derivative_sign(3, 0.0, np.inf) == -1, (m.name, m.rows)
    assert drawn == set(oracle.MATERIAL_POOL)


def _frequency_functions(sf, B, jump_sig, lam, xi, beta):
    """Every frequency function of the oracle (and beta_residual) at lam (...), xi (..., k)."""
    l = formula_left_eigenvector(sf, B, lam, xi, beta)
    sq, lin, ssum = delta_v1_raw_terms(sf, lam, xi)
    return {
        "delta_v1_raw": sq - lin - ssum,
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
    """beta_residual and the raw delta_v1 at one frequency in Python complex arithmetic, as
    verify computed them before the stacks; numpy's vector complex product may fuse."""
    c = freq_coeffs(sf, xi)
    s, k2, th11 = sf.speed, sf.kappa2_plus, sf.theta11
    terms = ((k2 - s * s) * beta * beta, 2.0 * (lam * s + 1j * sf.h2_plus * c.eta) * beta,
             lam * lam + c.omega)
    residual = abs(terms[0] - terms[1] - terms[2]) / max(1.0, *(abs(t) for t in terms))
    ssum = (k2 - s * s) * c.Nsq + sf.alpha * (s * s - sf.material.mu) / sf.Jplus * float(
        xi @ sf.Theta[1:, 1:] @ xi)
    raw = (k2 - s * s) * th11 * beta * beta - 2j * beta * (k2 - s * s) * c.eta - ssum
    return {"beta_residual": residual, "delta_v1_raw": raw}


def test_frequency_stack_equals_single_calls_bit_for_bit(shock_pool):
    # verify computes each scenario's frequencies as one stack; element i must be the
    # call on frequency i alone, as verify made it before, to the last bit
    rng = random.Random(131)
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
    rng = random.Random(2000 + d)
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
    sq, lin, ssum = delta_v1_raw_terms(sf, lam, xi)
    return {
        "beta": beta, "beta_residual": beta_residual(sf, lam, xi, beta), "gamma": gamma,
        "back": freq_unmap_values(sf, gamma, xi), "P": coeffs.P, "zeta": coeffs.zeta,
        "eta": coeffs.eta, "v1c": delta_v1_values(sf, lam, xi), "v1r": sq - lin - ssum,
        "v1_terms": (sq, lin, ssum), "v2": delta_v2_values(sf, gamma, xi),
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
        yield "beta_residual", float(v["beta_residual"]), 1e-13
        yield "beta_stable_halfplane", 0.0 if beta.real < 0 else 1.0, 0.5
        yield "beta_not_curl_artifact", 0.0 if abs(lam + beta * sf.speed) > 1e-10 else 1.0, 0.5
        yield "map_roundtrip", abs(complex(v["back"]) - lam), 1e-13
        P, zeta, eta = float(v["P"]), float(v["zeta"]), float(v["eta"])
        yield "P_nonnegative", 0.0 if P >= 0 else 1.0, 0.5
        yield "zeta_nonnegative", 0.0 if zeta >= 0 else 1.0, 0.5
        yield "zeta_tau_margin", 0.0 if zeta - (sf.tau * eta) ** 2 >= -1e-13 else 1.0, 0.5
        v1c, v1r, v2 = complex(v["v1c"]), complex(v["v1r"]), complex(v["v2"])
        scale = max(1.0, *(abs(complex(t)) for t in v["v1_terms"]))
        yield "v1_raw_vs_completed", abs(v1c - v1r) / scale, 1e-12
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
    # to the last bit; so must its derivative checks be fd_check_suite's at its seed, and its
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


def test_verify_checks_each_dimension_in_a_few_stacks(monkeypatch):
    # at the shipped STACK_BYTES one chunk rule covers every stacked call, the derivative
    # checks' included: 11, 11 and 5 scenarios per stack at d = 2, 3 and 4
    stacks, derivatives = collections.Counter(), collections.Counter()
    real_values, real_fd = oracle._scenario_values, oracle._fd_values

    def values(drawn):
        stacks[drawn[0].sf.dim] += 1
        return real_values(drawn)

    def fd_values(ms, U, *args):
        derivatives[U.shape[-1]] += 1
        return real_fd(ms, U, *args)
    monkeypatch.setattr(oracle, "_scenario_values", values)
    monkeypatch.setattr(oracle, "_fd_values", fd_values)
    assert verify_suite(seed=101, scenarios=20, dims=(2, 3, 4))["ok"]
    assert stacks == derivatives == {2: 2, 3: 2, 4: 4}


def _call_peaks(seed, scenarios, dims):
    """The tracemalloc peak of each _scenario_values call of verify_suite, after a warm-up run."""
    real, peaks = oracle._scenario_values, []

    def traced(drawn):
        tracemalloc.start()
        try:
            return real(drawn)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    assert verify_suite(seed=seed, scenarios=scenarios, dims=dims)["ok"]  # lazy imports, caches
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_scenario_values", traced)
        assert verify_suite(seed=seed, scenarios=scenarios, dims=dims)["ok"]
    return peaks


def test_verify_stacks_stay_below_their_former_peak():
    # a stacked call holds about 5 times its largest array; sized by that, no call of the
    # benchmark's 20 x {2, 3, 4} peaks above the largest before the chunk rule counted it
    # (951 536 B, the d = 3 stack of 20 with the finite-difference stencils); every
    # dimension's 20 in one call would peak at 1.8 MB, at d = 4
    peaks = _call_peaks(7, 20, (2, 3, 4))
    assert len(peaks) == 8 and max(peaks) <= 951_536


def test_verify_memory_does_not_grow_with_the_scenarios():
    # d = 5, two scenarios per stack.  What grows is the drawn scenarios and their rows of
    # values, measured at about 12.5 kB each (150 kB for 12 more); one stack of all 16 would
    # add about 3.6 MB
    verify_suite(seed=7, scenarios=2, dims=(5,))  # warm-up: lazy imports and caches
    peaks = []
    for scenarios in (4, 16):
        tracemalloc.start()
        try:
            assert verify_suite(seed=7, scenarios=scenarios, dims=(5,))["ok"]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 12 * 25_000


def _verify_fronts(seed, scenarios, dims):
    """The fronts verify_suite draws, in order, from a run with every check intact."""
    fronts = []
    real = oracle.random_shock
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "random_shock", lambda *a: fronts.append(real(*a)) or fronts[-1])
        assert verify_suite(seed=seed, scenarios=scenarios, dims=dims)["ok"]
    return fronts


def _fail_fd_at(monkeypatch, k, then=None):
    """The determinant-gradient check reads 1 at the scenario drawn k-th (0-based, over all
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
    assert rep["checks"]["left_eigvec_residual"]["max_err"] is None
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
    # a d = 4 scenario whose acoustic tensor (eigenvalues 8.845 x3 and 23.12) complex geev
    # does not converge on (numpy 2.4 on OpenBLAS 0.3.31); an earlier draw stream of verify
    # drew it at seed 175785237
    m = catalog("simo-miehe", {"d": 4, "mu": 1.342971760648683, "kappa": 1.2047507139291578})
    U = np.array([
        [1.2766210153648654, -0.15309224207077488, -0.24759015065052958, -0.03634786758048092],
        [0.36438237109683924, 1.0220724572033268, 0.16733749450516144, 0.002668115737624821],
        [-0.3281773280888415, 0.48392559075315456, 1.207237156508389, 0.2196925651120476],
        [0.22990379317439635, -0.11260877833847605, 0.2914699132572146, 1.2467295330973578]])
    v = np.array([-0.17694686783166902, -0.8805492613495145, 0.07951558989651875,
                  -0.21770238158381816])
    xi = np.array([-1.2290854416132173, 2.0959842058002827, 0.6976089768738789,
                   0.44239872601234237])
    sf = build(m, ElasticState(U, v), -2.4289309414795053)
    assert np.array_equal(acoustic_tensor(m, U, xi), [
        [14.621939315388252, -6.901347315636753, 0.31286656781229333, -1.1679462608375273],
        [-6.901347315636753, 17.089723625256365, -0.3737651855675636, 1.3952837913214955],
        [0.31286656781229333, -0.3737651855675636, 8.861992336641478, -0.06325397505003026],
        [-1.1679462608375273, 1.3952837913214955, -0.06325397505003026, 9.081178212517852]])
    values = oracle._material_values([sf], b_blocks(m, U)[None], xi[None])
    assert values["acoustic_spectrum_vs_eig"][0] <= 1e-14


def test_frequency_work_does_not_grow_with_the_stack(monkeypatch, cg2_shock):
    calls = collections.Counter()
    for name in ("piola_kirchhoff", "char_speeds"):
        def counted(*args, _f=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(oracle, name, counted)
    # per scenario, whatever its number of frequencies: one stacked stress pair, which the
    # frequency functions take as an argument, one P(U+) for the energy-gradient check and
    # one char_speeds table for the material checks; the characteristic-speed guard reads
    # the front's own fields
    rep = verify_suite(seed=7, scenarios=2, dims=(2, 3))
    assert rep["ok"] and rep["checks"]["beta_residual"]["count"] == 12
    assert calls == {"piola_kirchhoff": 8, "char_speeds": 4}
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

    def det(*args):  # the derivative checks' determinants, not those of draws or closed forms
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
        assert counts[0] == counts[1] == {"dense_eig": 1, "eigh": 1, "det": 2}, d


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
    # the symbol of the largest dimension served, d = 8, is 72 x 72
    assert dense_eig(np.eye(72, dtype=complex)).shape == (72,)
    with pytest.raises(DomainError, match="dense_eig is limited to dim <= 72, got 73"):
        dense_eig(np.eye(73, dtype=complex))


@pytest.mark.parametrize("dims", [(9,), (2, 9), (1,), (2, 2), (3, 2, 3)])
def test_verify_suite_rejects_unserved_dims_before_drawing(monkeypatch, dims):
    def drawn(*args):
        raise AssertionError("verify_suite drew a scenario")
    monkeypatch.setattr(oracle, "random_shock", drawn)
    with pytest.raises(ConfigError, match=r"verify_suite checks dims 2\.\.8"):
        verify_suite(seed=1, scenarios=2, dims=dims)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"scenarios": 0}, {"scenarios": -3},
                                    {"dims": ()}])
def test_verify_suite_rejects_empty_or_negative_arguments_before_drawing(monkeypatch, kwargs):
    # each would check nothing, or repeat the scenarios of -seed (random.Random takes |seed|)
    def drawn(*args):
        raise AssertionError("verify_suite drew a scenario")
    monkeypatch.setattr(oracle, "random_shock", drawn)
    with pytest.raises(ConfigError):
        verify_suite(**{"seed": 1, "scenarios": 2, "dims": (2,), **kwargs})


def test_fd_check_suite_passes(cg2):
    rng = np.random.default_rng(19)
    U = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
    rep = fd_check_suite(cg2, U, b_blocks(cg2, U), seed=3)
    assert rep.pop("pass")
    assert set(rep) == {"grad_det_vs_cofactor", "cofactor_derivative", "grad_energy_vs_piola",
                        "hessian_vs_btensor", "genuine_nonlinearity"}
    assert all(err <= 1e-14 for err in rep.values()), rep


def _catalog_laws(d):
    """Every catalog law at dimension d."""
    params = {"d": d, "mu": 1.3, "kappa": 2.5, "c1": 1.7, "b": 0.8, "cbar": 1.2}
    return [catalog(name, params) for name in CATALOG_NAMES]


@pytest.mark.parametrize("d", range(2, 9))
def test_every_catalog_law_passes_fd_check_suite(d):
    # the complex step through each law's term rows (log J, (J - a)^p, cosh b(J - 1)), on
    # both sides of J = 1 and under warnings-as-errors, also for the laws verify never
    # draws: Levinson-Burgess, Ogden-Hill and Bischoff-Arruda-Grosh
    rng = random.Random(80 + d)
    for m in _catalog_laws(d):
        for k, J in enumerate((0.7, 1.4, 0.9, 1.1)):
            U = np.zeros((d, d))
            while np.linalg.det(U) <= 0.2:
                U = np.eye(d) + 0.3 * np.array([[rng.uniform(-1, 1) for _ in range(d)]
                                                for _ in range(d)])
            U[:, 0] *= J / np.linalg.det(U)
            rep = fd_check_suite(m, U, b_blocks(m, U), seed=k)
            assert rep.pop("pass"), (m.name, J, rep)
            assert max(rep.values()) <= 1e-13, (m.name, J, rep)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_fd_checks_match_scalar_loops_bit_for_bit(d):
    # verify's stack of every catalog law's matrix at once against a loop of fd_check_suite
    # calls, one matrix each
    rng, directions = np.random.default_rng(60 + d), random.Random(70 + d)
    ms, Us, seeds = _catalog_laws(d), [], []
    for _ in ms:
        U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        while np.linalg.det(U) <= 0.2:
            U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        Us.append(U), seeds.append(directions.randrange(2**31))
    U = np.stack(Us)
    nus = np.stack([oracle._normals(random.Random(seed), d) for seed in seeds])
    stacked = _fd_values(ms, U, cofactor(U), np.stack([b_blocks(m, u) for m, u in zip(ms, U)]),
                         nus)
    for k, (m, u) in enumerate(zip(ms, U)):
        alone = fd_check_suite(m, u, b_blocks(m, u), seed=seeds[k])
        assert alone.pop("pass"), (m.name, alone)
        for name, value in alone.items():
            assert np.array_equal(_bits(value), _bits(stacked[name][k])), (m.name, name)


def test_verify_passes_the_seed_the_finite_differences_failed():
    # seed 119 at d = 8, scenario 10 (Ogden foam): the FD Hessian read 1.019e-5 > 1e-5 there
    rep = verify_suite(seed=119, scenarios=20, dims=(6, 7, 8))
    assert rep["ok"], rep.get("first_failure")
    assert rep["checks"]["fd_hessian_vs_btensor"]["max_err"] <= 1e-13


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

    sf = random_shock(random.Random(11), 3)
    m, U = sf.material, sf.plus.U
    clean = fd_check_suite(m, U, oracle.b_blocks(m, U))["hessian_vs_btensor"]
    assert clean <= 1e-14
    # the complex-step derivative of P is not built from the blocks: a 1e-10 change fails
    # its 1e-12 tolerance (the finite-difference Hessian's 1e-5 needed a 1e-4 change)
    monkeypatch.setattr(oracle, "b_blocks", off_by(1e-10))
    rep = fd_check_suite(m, U, oracle.b_blocks(m, U))
    assert not rep["pass"] and rep["hessian_vs_btensor"] >= 0.5e-10
    rep = verify_suite(seed=7, scenarios=2, dims=(2,))
    assert not rep["ok"]
    assert rep["first_failure"]["check"] in BLOCK_CHECKS


def test_random_shock_does_not_retry_programming_errors(monkeypatch):
    calls = []

    def broken(*args):
        calls.append(args)
        raise TypeError("a bug in build")

    monkeypatch.setattr(oracle, "build", broken)
    with pytest.raises(TypeError):
        random_shock(random.Random(1), 2)
    assert len(calls) == 1


def test_random_shock_exhaustion_is_typed(monkeypatch, capsys):
    def rejected(*args):
        raise WrongSignForMaterial("never admissible")

    monkeypatch.setattr(oracle, "build", rejected)
    with pytest.raises(NoConvergence):
        random_shock(random.Random(1), 2)
    assert main(["verify", "--seed=1", "--scenarios=1", "--dims=2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NoConvergence: no admissible d=2 shock scenario")


def test_random_shock_generator_properties():
    rng = random.Random(99)
    for d in (2, 3, 4):
        sf = random_shock(rng, d)
        assert sf.dim == d
        assert -3.0 <= sf.alpha <= -0.05
        assert np.linalg.det(sf.plus.U) > 0.2


def test_sample_frequency_on_hemisphere():
    rng = random.Random(4)
    for d in (2, 3, 4):
        lam, xi = sample_frequency(rng, d)
        assert lam.real >= 0.05
        assert abs(abs(lam) ** 2 + float(xi @ xi) - 1.0) <= 1e-12


def test_verify_suite_smoke():
    rep = verify_suite(seed=123, scenarios=2, dims=(2, 3))
    assert rep["ok"], rep.get("first_failure")
    assert rep["seed"] == 123
    assert rep["checks"]["beta_residual"]["count"] > 0


def _assert_verified(rep, seed, scenarios, dims):
    """What the benchmark requires of a verify report: ok, its arguments echoed, every
    worst error within its tolerance, and interior_nonvanishing on every scenario."""
    assert rep["ok"] and "first_failure" not in rep, rep.get("first_failure")
    assert (rep["seed"], rep["scenarios_per_dim"], rep["dims"]) == (seed, scenarios, list(dims))
    assert all(e["max_err"] <= e["tol"] for e in rep["checks"].values())
    assert rep["checks"]["interior_nonvanishing"]["count"] == scenarios * len(dims)


def test_verify_suite_serves_dimensions_six_to_eight():
    rep = verify_suite(seed=3, scenarios=2, dims=(6, 7, 8))
    _assert_verified(rep, 3, 2, (6, 7, 8))
    # each scenario's three frequencies went through dense eig of its (d^2 + d)-square symbol
    assert rep["checks"]["hersh_stable_count"]["count"] == 18
    assert rep["checks"]["fd_hessian_vs_btensor"]["count"] == 6


def test_verify_suite_checks_stiff_fronts():
    # scenarios with kappa2+ > 150 are verified like any other, not drawn again
    fronts = _verify_fronts(12, 3, (2, 3))
    assert max(f.kappa2_plus for f in fronts) > 1000.0


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from((6, 7, 8)))
def test_verify_suite_at_seeds_the_benchmark_draws(seed, d):
    # the benchmark runs verify at seeds from [0, 2^31); a failing report there is a wrong output
    for scenarios, dims in ((3, (2, 3, 4)), (1, (d,))):
        _assert_verified(verify_suite(seed=seed, scenarios=scenarios, dims=dims), seed,
                         scenarios, dims)


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
