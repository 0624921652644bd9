import cmath
import collections

import numpy as np
import pytest

from hadshock import oracle
from hadshock.cli import main
from hadshock.errors import CharacteristicSpeed, NoConvergence, WrongSignForMaterial
from hadshock.linalg import cofactor
from hadshock.lopatinskii import beta_residual, delta_v1_values, stable_beta_values
from hadshock.materials import CATALOG_NAMES, b_blocks, catalog, energy
from hadshock.oracle import (
    _fd_cof_derivative_err,
    _fd_grad_det,
    _fd_hessian_btensor_err,
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

    sf = copy.copy(cg2_shock)
    sf.speed = -np.sqrt(sf.material.mu)
    with pytest.raises(CharacteristicSpeed):
        assemble_calA(sf, b_blocks(sf.material, sf.plus.U), 1.0, np.zeros(1))


def test_jump_vector_zero_transverse(cg2_shock):
    K = jump_vector(cg2_shock, 1.0, np.zeros(1))
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
            K = jump_vector(sf, lam, xi)
            hat = delta_hat_assembled(sf, B, xi, beta)
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


def _frequency_functions(sf, B, lam, xi, beta):
    """Every frequency function of the oracle (and beta_residual) at lam (...), xi (..., k)."""
    l = formula_left_eigenvector(sf, B, lam, xi, beta)
    return {
        "delta_v1_raw": delta_v1_raw(sf, lam, xi),
        "delta_hat_assembled": delta_hat_assembled(sf, B, xi, beta),
        "formula_left_eigenvector": l,
        "jump_vector": jump_vector(sf, lam, xi),
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
            B = b_blocks(sf.material, sf.plus.U)
            lams, xis = (np.array(v) for v in zip(*(sample_frequency(rng, d) for _ in range(3))))
            betas = stable_beta_values(sf, lams, xis)
            stacked = _frequency_functions(sf, B, lams, xis, betas)
            for i in range(3):
                single = _frequency_functions(sf, B, complex(lams[i]), xis[i], complex(betas[i]))
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


def test_frequency_work_does_not_grow_with_the_stack(monkeypatch, cg2_shock):
    calls = collections.Counter()
    for name in ("piola_kirchhoff", "char_speeds"):
        def counted(*args, _f=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(oracle, name, counted)
    # per scenario, whatever its number of frequencies: one stacked stress pair each for the
    # shock identities, jump_vector and delta_hat_assembled; char_speeds for the material
    # checks and in the two symbol factorisations (left-eigenvector residual, Hersh counts)
    rep = verify_suite(seed=7, scenarios=2, dims=(2, 3))
    assert rep["ok"] and rep["checks"]["beta_residual"]["count"] == 12
    assert calls["piola_kirchhoff"] <= 3 * 4 and calls["char_speeds"] <= 3 * 4
    sf = cg2_shock
    B = b_blocks(sf.material, sf.plus.U)
    counts = []
    for n in (1, 7):
        calls.clear()
        lams = np.full(n, 0.6 + 0.3j)
        xis = np.full((n, 1), 0.55)
        _frequency_functions(sf, B, lams, xis, stable_beta_values(sf, lams, xis))
        counts.append(dict(calls))
    assert counts[0] == counts[1] == {"piola_kirchhoff": 2, "char_speeds": 3}


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
    with pytest.raises(ValueError):
        dense_eig(np.eye(31, dtype=complex))


def test_fd_check_suite_passes(cg2):
    rng = np.random.default_rng(19)
    U = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
    rep = fd_check_suite(cg2, U, b_blocks(cg2, U), seed=3)
    assert rep["pass"]
    assert rep["grad_det_vs_cofactor"] <= 1e-7
    assert rep["cofactor_derivative"] <= 1e-6
    assert rep["hessian_vs_btensor"] <= 1e-5
    assert rep["genuine_nonlinearity"] <= 1e-5


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
    rng = np.random.default_rng(60 + d)
    params = {"d": d, "mu": 1.3, "kappa": 2.5, "c1": 1.7, "b": 0.8, "cbar": 1.2}
    for name in CATALOG_NAMES:
        m = catalog(name, params)
        U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        while np.linalg.det(U) <= 0.2:
            U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        assert _fd_grad_det(U).tobytes() == fd_grad_det_loop(U).tobytes()
        assert _fd_cof_derivative_err(U) == fd_cof_derivative_err_loop(U)
        assert _fd_hessian_btensor_err(m, U, b_blocks(m, U)) == fd_hessian_btensor_err_loop(m, U)


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
    clean = _fd_hessian_btensor_err(m, U, oracle.b_blocks(m, U))
    assert clean <= 1e-7
    # the FD Hessian is not built from the blocks: it sees a 1e-6 change far
    # above its noise, and a 1e-4 change fails its 1e-5 tolerance
    monkeypatch.setattr(oracle, "b_blocks", off_by(1e-6))
    assert _fd_hessian_btensor_err(m, U, oracle.b_blocks(m, U)) >= 0.5e-6
    rep = verify_suite(seed=7, scenarios=2, dims=(2,))
    assert not rep["ok"]
    assert rep["first_failure"]["check"] in BLOCK_CHECKS
    monkeypatch.setattr(oracle, "b_blocks", off_by(1e-4))
    assert _fd_hessian_btensor_err(m, U, oracle.b_blocks(m, U)) > 1e-5


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
