import numpy as np
import pytest

from hadshock.errors import CharacteristicSpeed
from hadshock.linalg import quad_roots
from hadshock.lopatinskii import FrequencyPoint, delta_v1, stable_beta
from hadshock.materials import b_tensor, catalog
from hadshock.oracle import (
    assemble_Aj,
    assemble_calA,
    assemble_symbol,
    delta_hat_assembled,
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


def test_assemble_Aj_block_structure(cg2):
    U = np.array([[1.1, 0.2], [-0.1, 0.9]])
    for j in (1, 2):
        A = assemble_Aj(cg2, U, j).matrix
        assert A.shape == (6, 6)
        j0 = j - 1
        assert np.array_equal(A[j0 * 2 : (j0 + 1) * 2, 4:6], -np.eye(2))
        for i in (1, 2):
            block = A[4:6, (i - 1) * 2 : i * 2]
            assert np.allclose(block, -b_tensor(cg2, U, i, j), atol=0)
        # all other entries vanish
        mask = np.ones((6, 6), dtype=bool)
        mask[j0 * 2 : (j0 + 1) * 2, 4:6] = False
        mask[4:6, :4] = False
        assert np.all(A[mask] == 0)


def test_assemble_A1_spectrum_matches_table(cg2):
    A = assemble_symbol(cg2, np.eye(2), np.array([1.0, 0.0])).matrix
    vals = np.sort(dense_eig(A).real)
    expect = np.sort([-np.sqrt(3), -1.0, 0.0, 0.0, 1.0, np.sqrt(3)])
    assert np.abs(vals - expect).max() <= 1e-8
    assert np.abs(dense_eig(A).imag).max() <= 1e-10


def test_assemble_symbol_diagonalizable(shock_pool):
    rng = np.random.default_rng(5)
    for sf in shock_pool[3][:3]:
        xi = rng.standard_normal(3)
        A = assemble_symbol(sf.material, sf.plus.U, xi).matrix
        _, vecs = np.linalg.eig(A)
        assert np.isfinite(np.linalg.cond(vecs))
        assert np.linalg.cond(vecs) < 1e8


def test_cal_A_eigenvalue_content(cg2_shock):
    fp = FrequencyPoint.normalized(0.6 + 0.3j, [0.55])
    cal = assemble_calA(cg2_shock, fp)
    vals = dense_eig(cal.matrix)
    s = cg2_shock.speed
    # the d^2-d = 2 fold eigenvalue -lambda/s
    ref = -fp.lam / s
    cluster = np.abs(vals - ref) <= 1e-7 * max(1.0, np.linalg.norm(cal.matrix, 2))
    assert int(cluster.sum()) == 2
    # the two transverse-family roots solve
    # (mu - s^2) b^2 - 2 lambda s b - (lambda^2 + mu |xi|^2) = 0, both unstable
    mu = cg2_shock.material.mu
    xi_sq = float(fp.xi_t @ fp.xi_t)
    mu_pair = quad_roots(mu - s * s, -2.0 * fp.lam * s, -(fp.lam**2 + mu * xi_sq))
    others = vals[~cluster]
    for r in mu_pair:
        assert min(abs(others - r)) <= 1e-8
        assert r.real > 0
    # the remaining pair solves the extreme-family quadratic
    coeffs = freq_coeffs(cg2_shock, fp.xi_t)
    k2 = cg2_shock.kappa2_plus
    pair = quad_roots(
        k2 - s * s,
        -2.0 * (fp.lam * s + 1j * cg2_shock.h2_plus * coeffs.eta),
        -(fp.lam**2 + coeffs.omega),
    )
    for r in pair:
        assert min(abs(others - r)) <= 1e-8
    beta = stable_beta(cg2_shock, fp)
    assert min(abs(np.array(list(pair)) - beta)) <= 1e-10


def test_characteristic_speed_guard(cg2_shock):
    import copy

    sf = copy.copy(cg2_shock)
    sf.speed = -np.sqrt(sf.material.mu)
    with pytest.raises(CharacteristicSpeed):
        assemble_calA(sf, FrequencyPoint(1.0, [0.0]))


def test_jump_vector_zero_transverse(cg2_shock):
    K = jump_vector(cg2_shock, FrequencyPoint(1.0, [0.0]))
    jU1 = cg2_shock.plus.U[:, 0] - cg2_shock.minus.U[:, 0]
    jv = cg2_shock.plus.v - cg2_shock.minus.v
    assert np.allclose(K[:2], jU1, atol=0)
    assert np.allclose(K[2:4], 0.0, atol=0)
    assert np.allclose(K[4:], jv, atol=0)


def test_left_eigenvector_and_jump_identities(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(900 + d, d)
        for sf in pool[:5]:
            fp = sample()
            beta = stable_beta(sf, fp)
            l = formula_left_eigenvector(sf, fp, beta)
            cal = assemble_calA(sf, fp)
            assert np.linalg.norm(l @ cal.matrix - beta * l) <= 1e-10 * np.linalg.norm(l)
            K = jump_vector(sf, fp)
            hat = delta_hat_assembled(sf, fp, beta)
            lk = complex(l @ K)
            assert abs(lk - (fp.lam + beta * sf.speed) * hat) <= 1e-10 * (1.0 + abs(lk))
            # and the closed form v1 equals (i/alpha) * assembled value
            v1 = delta_v1(sf, fp)
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
    fp = FrequencyPoint(lam, xi)
    beta = stable_beta(sf, fp)
    l = formula_left_eigenvector(sf, fp, beta)
    assert left_eigvec_residual(sf, fp, l, beta) <= 1e-12
    # a 1e-8 ||l|| change of any one component fails the 1e-10 check by far
    step = 1e-8 * np.linalg.norm(l)
    for e in np.eye(l.size):
        assert left_eigvec_residual(sf, fp, l + step * e, beta) >= 1e-7


def test_hersh_counts(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(700 + d, d)
        for sf in pool[:5]:
            stable, cluster = hersh_counts(sf, sample())
            assert stable == 1
            assert cluster == d * d - d


def test_dense_eig_examples():
    vals = np.sort(dense_eig(np.diag([1.0, 2.0, 3.0]).astype(complex)).real)
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-12)
    # companion matrix of a quadratic agrees with the stable root solver
    a, b, c = 2.0 + 1j, -3.0, 1.5 - 0.5j
    comp = np.array([[0.0, -c / a], [1.0, -b / a]], dtype=complex)
    roots = sorted(dense_eig(comp), key=lambda z: (z.real, z.imag))
    pair = sorted(quad_roots(a, b, c), key=lambda z: (z.real, z.imag))
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
    rep = fd_check_suite(cg2, U, seed=3)
    assert rep["pass"]
    assert rep["grad_det_vs_cofactor"] <= 1e-7
    assert rep["cofactor_derivative"] <= 1e-6
    assert rep["hessian_vs_btensor"] <= 1e-5
    assert rep["genuine_nonlinearity"] <= 1e-5


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
        fp = sample_frequency(rng, d)
        assert fp.lam.real >= 0.05
        assert abs(abs(fp.lam) ** 2 + float(fp.xi_t @ fp.xi_t) - 1.0) <= 1e-12


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
