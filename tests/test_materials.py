import math
import re
import warnings

import numpy as np
import pytest

import hadshock.cli
from hadshock.errors import (AlphaOutOfRange, BadModuli, BadParams, DomainError,
                             NonPositiveJacobian, UnknownModel, WrongSignForMaterial,
                             ZeroFrequency)
from hadshock.linalg import cofactor
from hadshock.materials import (
    CATALOG_NAMES,
    MAX_DIM,
    MaterialModel,
    acoustic_spectrum,
    acoustic_tensor,
    b_blocks,
    catalog,
    char_speeds,
    check_hypotheses,
    energy,
    piola_kirchhoff,
)
from hadshock.oracle import dense_eig
from hadshock.shock import ElasticState, build, build_stack


def fd_gradient(f, U, step):
    out = np.empty_like(U)
    for idx in np.ndindex(U.shape):
        Up, Um = U.copy(), U.copy()
        Up[idx] += step
        Um[idx] -= step
        out[idx] = (f(Up) - f(Um)) / (2 * step)
    return out


# --------------------------------------------------------------------------
# catalog forms

def test_cg_d2_closed_form(cg2):
    J = np.array([0.5, 1.0, 1.3, 2.0])
    expect_h = -1.0 - np.log(J) + 0.5 * (J - 1.0) ** 2
    assert np.allclose(cg2.h(J), expect_h, rtol=1e-14)
    assert np.allclose(cg2.h2(J), 1.0 / J**2 + 1.0, rtol=1e-14)


def test_blatz_d3_h2():
    mu, kap = 1.3, 2.4
    m = catalog("blatz", {"d": 3, "mu": mu, "kappa": kap})
    J = np.array([0.7, 1.0, 1.9])
    assert np.allclose(m.h2(J), (kap + mu / 3.0) / J**2, rtol=1e-14)


def test_ogden_hill_h3_identically_zero():
    m = catalog("ogden-hill", {"d": 3, "mu": 1.0, "b": 0.5})
    J = np.geomspace(0.01, 100, 50)
    assert np.all(m.h3(J) == 0.0)
    rep = check_hypotheses(m, 3)
    assert not rep.h3_negative
    assert not rep.free_stress
    assert rep.h2_positive


def test_every_catalog_model_builds_and_is_convex():
    params = {
        "ciarlet-geymonat": {"kappa": 2.0},
        "blatz": {"kappa": 2.0},
        "ogden-foam": {"c1": 1.5},
        "levinson-burgess": {"kappa": 2.0},
        "simo-taylor": {"kappa": 2.0},
        "ogden-hill": {"b": 0.7},
        "simo-miehe": {"kappa": 2.0},
        "bischoff-arruda-grosh": {"cbar": 1.2, "b": 0.9},
    }
    for name in CATALOG_NAMES:
        m = catalog(name, {"d": 3, "mu": 1.0, **params[name]})
        rep = check_hypotheses(m, 3)
        assert rep.h2_positive, name


FORM_PARAMS = {
    "ciarlet-geymonat": {"mu": 1.3, "kappa": 2.4},
    "blatz": {"mu": 1.3, "kappa": 2.4},
    "ogden-foam": {"mu": 1.3, "c1": 1.5},
    "levinson-burgess": {"mu": 1.3, "kappa": 2.4},
    "simo-taylor": {"mu": 1.3, "kappa": 2.4},
    "ogden-hill": {"mu": 1.3, "b": 0.7},
    "simo-miehe": {"mu": 1.3, "kappa": 2.4},
    "bischoff-arruda-grosh": {"mu": 1.3, "cbar": 1.2, "b": 0.5},
}


def closed_form_h(name, J, d, mu, kappa=None, c1=None, b=None, cbar=None):
    """The catalog docstring's h(J), one line per law."""
    log = np.log
    if name == "ciarlet-geymonat":
        law = -mu * log(J) + (kappa / 2 - mu / d) * (J - 1) ** 2
    elif name == "blatz":
        law = (kappa - 2 * mu / d) * (J - 1) - (kappa + (d - 2) * mu / d) * log(J)
    elif name == "ogden-foam":
        law = mu / (2 * c1) * (J ** (-2 * c1) - 1)
    elif name == "levinson-burgess":
        law = mu * (kappa / mu - 2 / d + 1) / 2 * (J - 1) ** 2 - mu * (J - 1)
    elif name == "simo-taylor":
        lam = kappa - 2 * mu / d
        law = -(mu + lam / 2) * log(J) + lam / 4 * (J**2 - 1)
    elif name == "ogden-hill":
        law = (J - 1) ** 2 / b
    elif name == "simo-miehe":
        law = kappa / 4 * (J**2 - 1) - kappa / 2 * log(J)
    else:
        law = cbar / b**2 * (np.cosh(b * (J - 1)) - 1)
    return -d * mu / 2 + law


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_term_table_matches_closed_form(name, d):
    m = catalog(name, {"d": d, **FORM_PARAMS[name]})
    J = np.array([1e-3, 0.5, 1 - 1e-8, 1.0, 1 + 1e-8, 2.0, 1e3])
    np.testing.assert_allclose(m.h(J), closed_form_h(name, J, d, **FORM_PARAMS[name]), rtol=4e-15)
    for n, f in enumerate((m.h, m.h1, m.h2, m.h3)):
        assert isinstance(f(2.0), float), (name, n)
        assert f(J).shape == J.shape
        assert f(2.0) == f(J)[5]


@pytest.mark.parametrize("name", ["levinson-burgess", "ogden-hill"])
def test_quadratic_laws_have_exactly_zero_h3(name):
    m = catalog(name, {"d": 3, **FORM_PARAMS[name]})
    J = np.geomspace(0.01, 100, 12).reshape(3, 4)
    h3 = m.h3(J)
    assert h3.shape == J.shape and h3.dtype == float
    assert np.all(h3 == 0.0)
    assert m.h3(1.0) == 0.0 and isinstance(m.h3(1.0), float)


def test_nearly_incompressible_models_satisfy_small_strain_relations():
    for name in ("ciarlet-geymonat", "blatz", "ogden-foam", "levinson-burgess", "simo-taylor"):
        m = catalog(name, {"d": 3, "mu": 1.1, "kappa": 2.3})
        rep = check_hypotheses(m, 3)
        assert rep.free_stress, name
        assert rep.bulk_relation, name
        assert rep.h3_negative == (name != "levinson-burgess"), name


def test_simo_miehe_not_free_stress():
    m = catalog("simo-miehe", {"d": 3, "mu": 1.0, "kappa": 2.0})
    rep = check_hypotheses(m, 3)
    assert not rep.free_stress
    assert float(m.h1(1.0)) == pytest.approx(0.0, abs=1e-14)
    assert rep.h3_negative


def test_bag_h3_sign_flips_at_one():
    m = catalog("bischoff-arruda-grosh", {"d": 3, "mu": 1.0, "cbar": 1.0, "b": 1.0})
    rep = check_hypotheses(m, 3)
    assert not rep.h3_negative
    assert float(m.h3(2.0)) > 0 > float(m.h3(0.5))


def test_catalog_errors():
    with pytest.raises(UnknownModel):
        catalog("mooney-rivlin", {"d": 3, "mu": 1.0})
    with pytest.raises(BadModuli):
        catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 0.9})  # kappa <= 2 mu / d


@pytest.mark.parametrize("d", [1, 9, 10**300])
def test_catalog_serves_dimensions_two_to_eight(d):
    assert catalog("blatz", {"d": MAX_DIM, "mu": 1.0, "kappa": 2.0}).dimension == MAX_DIM == 8
    with pytest.raises(BadModuli, match="dimension must lie in 2..8"):
        catalog("blatz", {"d": d, "mu": 1.0, "kappa": 2.0})


@pytest.mark.parametrize("name, params, shown", [
    ("blatz", {"d": 2.5}, "2.5"),
    ("blatz", {"d": "x"}, "'x'"),
    ("blatz", {"d": 1e300}, "1e+300"),
    ("blatz", {"d": math.inf}, "inf"),
    ("blatz", {"d": [2]}, "[2]"),
    ("blatz", {"mu": "x"}, "'x'"),
    ("blatz", {"kappa": [2]}, "[2]"),
    ("blatz", {"kappa": math.inf}, "inf"),
    ("blatz", {"kappa": math.nan}, "nan"),
    ("ciarlet-geymonat", {"b": math.inf}, "inf"),  # a modulus the law does not read
    ("bischoff-arruda-grosh", {"cbar": math.inf, "b": 1.0}, "inf"),
    ("simo-miehe", {"kappa": math.inf}, "inf"),
])
def test_catalog_rejects_a_parameter_that_is_not_a_finite_number(name, params, shown):
    # each of these built a law (d = 2 from 2.5, or h''(1) NaN or inf) or raised untyped
    with pytest.raises(BadModuli, match=f"got {re.escape(shown)}$"):
        catalog(name, {"d": 2, "mu": 1.0, "kappa": 2.0, **params})


def test_catalog_takes_numbers_in_any_form_float_converts():
    m = catalog("blatz", {"d": 3.0, "mu": "1.5", "kappa": 2, "b": None})
    assert (m.dimension, m.mu, m.declared_bulk) == (3, 1.5, 2.0)
    with pytest.raises(BadModuli, match="got '3.5'$"):  # a whole number only
        catalog("blatz", {"d": "3.5", "mu": 1.0, "kappa": 2.0})


def test_poisson_and_lame(cg2):
    rep = check_hypotheses(cg2, 2)
    d, mu, kap = 2, 1.0, 2.0
    assert rep.poisson == pytest.approx((d * kap - 2 * mu) / (2 * mu + d * (d - 1) * kap))
    assert rep.lame_first == pytest.approx(kap - 2 * mu / d)


def _with_logged_calls(m, calls: list):
    """m, with each J its h, h1, h2 and h3 are called at appended to calls."""
    for attr in ("h", "h1", "h2", "h3"):
        setattr(m, attr, lambda J, f=getattr(m, attr): calls.append(J) or f(J))
    return m


def test_hypotheses_hold_on_every_J_and_evaluate_h_at_one_only():
    # (J - 1e-4)^3 has h'' < 0 below J = 1e-4, which a window [1e-3, 1e3] never sees
    hand = MaterialModel("hand", 1.0, [("power", 1.0, 1e-4, 3.0)])
    assert float(hand.h2(5e-5)) < 0 < hand.derivative_sign(2, 1e-3, 1e3)
    calls = []
    rep = check_hypotheses(_with_logged_calls(hand, calls), 3)
    assert not (rep.h2_positive or rep.h3_negative or rep.h_nonincreasing)
    for name in CATALOG_NAMES:
        check_hypotheses(_with_logged_calls(catalog(name, {"d": 3, **FORM_PARAMS[name]}),
                                            calls), 3)
    # the free stress and the bulk relation read h' and h'' at J = 1, and nothing else is read
    assert len(calls) == 2 * (1 + len(CATALOG_NAMES)) and all(J == 1.0 for J in calls)


def test_a_law_is_its_term_table():
    # no law is given as callables: "custom" names no law, each row is one of the three term
    # kinds, and a catalog law is the model of its rows, h to h''' alike
    with pytest.raises(UnknownModel):
        catalog("custom", {"d": 2, "mu": 1.0, "h": np.exp, "h1": np.exp, "h2": np.exp,
                           "h3": np.exp})
    for rows in ([("exp", 1.0)], [()], [("log", -1.0), ("Power", 1.0, 1.0, 2.0)]):
        with pytest.raises(BadParams, match="a term row is"):
            MaterialModel("bad", 1.0, rows)
    cg = catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 2.0})
    table = MaterialModel("cg", 1.0, [("log", -1.0), ("power", 0.5, 1.0, 2.0)], const=-1.0)
    J = np.geomspace(0.05, 20.0, 9)
    for f, g in zip((cg.h, cg.h1, cg.h2, cg.h3), (table.h, table.h1, table.h2, table.h3)):
        assert f(J).tobytes() == g(J).tobytes()


@pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
def test_term_signs_match_dense_samples(d):
    # on random intervals, some ending at J = 1 and some of zero width, the sign a law's rows
    # give its h'' and h''' is the one that 1001 samples of h2 and h3 show (2: both signs)
    rng = np.random.default_rng(d)
    lo = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 300))
    hi = lo * np.exp(rng.uniform(0.0, 2.0, 300))
    lo[:60], hi[:60] = np.minimum(lo[:60], 1.0), np.maximum(lo[:60], 1.0)
    hi[60:90] = lo[60:90]
    lo[90] = hi[90] = 1.0
    J = lo[:, None] + np.linspace(0.0, 1.0, 1001) * (hi - lo)[:, None]
    J[:, -1] = hi
    mu = rng.uniform(0.5, 2.0)
    params = {"d": d, "mu": mu, "kappa": 2.0 * mu / d + rng.uniform(0.1, 3.0),
              "c1": rng.uniform(0.2, 3.0), "b": rng.uniform(0.2, 2.0),
              "cbar": rng.uniform(0.2, 2.0)}
    wide = np.geomspace(1e-4, 1e4, 4001)
    for name in CATALOG_NAMES:
        m = catalog(name, params)
        for n, f in ((2, m.h2), (3, m.h3)):
            v = f(J)
            pos, neg = (v > 0).any(axis=1), (v < 0).any(axis=1)
            sampled = np.where(pos & neg, 2, pos.astype(int) - neg)
            assert np.array_equal(m.derivative_sign(n, lo, hi), sampled), (name, n)
        # and the hypotheses, read from the rows on all J > 0, are what samples show
        rep = check_hypotheses(m, d)
        with np.errstate(over="ignore"):  # cosh b(J - 1) is inf far out, of one sign
            sampled = (bool(np.all(m.h1(wide) <= 0)), bool(np.all(m.h2(wide) > 0)),
                       bool(np.all(m.h3(wide) < 0)))
        assert (rep.h_nonincreasing, rep.h2_positive, rep.h3_negative) == sampled, name


@pytest.mark.parametrize("row", [
    ("log", -1.3), ("power", 0.7, 1.0, 2.0), ("power", -0.4, 1.0, 1.0), ("power", 0.9, 0.0, -3.4),
    ("power", 0.25, 0.0, 2.0), ("power", 1.1, 0.0, 3.0), ("cosh", 0.8, 1.7)])
def test_term_derivatives_are_complex_steps_of_each_other(row):
    # each term kind writes its derivatives once: Im f_n(J + i e)/e = f_(n+1)(J) up to e^2
    m = MaterialModel("row", 1.0, [row])
    J = np.geomspace(0.05, 20.0, 60)
    step = 1e-20 * J
    fs = (m.h, m.h1, m.h2, m.h3)
    for n in range(3):
        np.testing.assert_allclose(fs[n](J + 1j * step).imag / step, fs[n + 1](J), rtol=1e-12,
                                   atol=0, err_msg=f"{row} n={n}")


# --------------------------------------------------------------------------
# stress tensors

def test_piola_stress_free_reference(cg2):
    assert np.allclose(piola_kirchhoff(cg2, np.eye(2)), np.zeros((2, 2)), atol=1e-14)


def test_piola_diagonal_example(cg2):
    U = np.diag([2.0, 1.0])
    # h'(2) = -1/2 + 1 = 1/2; Cof diag(2,1) = diag(1,2)
    expect = np.diag([2.0, 1.0]) + 0.5 * np.diag([1.0, 2.0])
    assert np.allclose(piola_kirchhoff(cg2, U), expect, rtol=1e-14)


def test_piola_matches_fd_energy_gradient(cg2):
    rng = np.random.default_rng(5)
    for _ in range(5):
        U = np.eye(2) + 0.4 * rng.uniform(-1, 1, size=(2, 2))
        if np.linalg.det(U) < 0.3:
            continue
        fd = fd_gradient(lambda V: energy(cg2, V), U, 1e-6)
        sig = piola_kirchhoff(cg2, U)
        assert np.abs(fd - sig).max() <= 1e-6 * max(1.0, np.abs(sig).max())


def cauchy(m, U):
    """Cauchy stress T = P U^T / J from the first Piola-Kirchhoff stress P."""
    return piola_kirchhoff(m, U) @ U.T / np.linalg.det(U)


def test_cauchy_identity_state(cg2):
    # T(I) = (mu + h'(1)) I; stress-free for the free-stress catalog forms
    T = cauchy(cg2, np.eye(2))
    assert np.allclose(T, (cg2.mu + float(cg2.h1(1.0))) * np.eye(2), atol=1e-14)
    m = catalog("simo-miehe", {"d": 3, "mu": 1.0, "kappa": 2.0})
    assert np.allclose(cauchy(m, np.eye(3)), m.mu * np.eye(3), rtol=1e-14)


def test_cauchy_consistency_and_mean_pressure():
    # T = (mu/J) U U^T + h'(J) I: symmetric, with mean pressure -h'(J) - mu I1 / (3 J)
    m = catalog("simo-taylor", {"d": 3, "mu": 1.2, "kappa": 2.6})
    rng = np.random.default_rng(11)
    U = np.eye(3) + 0.4 * rng.uniform(-1, 1, size=(3, 3))
    J = np.linalg.det(U)
    assert J > 0
    T = cauchy(m, U)
    expect = m.mu / J * U @ U.T + float(m.h1(J)) * np.eye(3)
    assert np.abs(T - expect).max() <= 1e-11 * np.abs(T).max()
    assert np.abs(T - T.T).max() <= 1e-12 * np.abs(T).max()
    I1 = float(np.sum(U * U))
    pbar = -np.trace(T) / 3.0
    assert pbar == pytest.approx(-float(m.h1(J)) - m.mu / 3.0 * I1 / J, rel=1e-12)


def test_nonpositive_jacobian_raises(cg2):
    with pytest.raises(NonPositiveJacobian):
        piola_kirchhoff(cg2, np.diag([1.0, -1.0]))
    with pytest.raises(NonPositiveJacobian):
        energy(cg2, np.diag([0.0, 1.0]))


# --------------------------------------------------------------------------
# B-tensor blocks

def test_b_tensor_diagonal_block_symmetric(cg2):
    rng = np.random.default_rng(2)
    U = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
    V = cofactor(U)
    J = np.linalg.det(U)
    blocks = b_blocks(cg2, U)
    for i in (1, 2):
        B = blocks[i - 1, i - 1]
        expect = cg2.mu * np.eye(2) + float(cg2.h2(J)) * np.outer(V[:, i - 1], V[:, i - 1])
        assert np.allclose(B, expect, rtol=1e-13)
        assert np.array_equal(B, B.T)


def test_b_tensor_transpose_relation():
    m = catalog("blatz", {"d": 3, "mu": 0.9, "kappa": 1.7})
    rng = np.random.default_rng(4)
    U = np.eye(3) + 0.3 * rng.uniform(-1, 1, size=(3, 3))
    B = b_blocks(m, U)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(B[j, i], B[i, j].T)


def test_b_tensor_matches_fd_hessian(cg2):
    rng = np.random.default_rng(9)
    U = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
    step = 1e-4 * (1 + np.abs(U).max())
    blocks = b_blocks(cg2, U)
    scale = np.abs(blocks).max()
    for i in (1, 2):
        for j in (1, 2):
            B = blocks[i - 1, j - 1]
            for p in range(2):
                for q in range(2):
                    def Wf(mat):
                        return energy(cg2, mat)

                    Upp, Upm, Ump, Umm = U.copy(), U.copy(), U.copy(), U.copy()
                    Upp[p, j - 1] += step; Upp[q, i - 1] += step
                    Upm[p, j - 1] += step; Upm[q, i - 1] -= step
                    Ump[p, j - 1] -= step; Ump[q, i - 1] += step
                    Umm[p, j - 1] -= step; Umm[q, i - 1] -= step
                    fd = (Wf(Upp) - Wf(Upm) - Wf(Ump) + Wf(Umm)) / (4 * step**2)
                    assert abs(fd - B[p, q]) <= 1e-5 * scale


CATALOG_PARAMS = {"mu": 1.3, "kappa": 2.5, "c1": 1.7, "b": 0.8, "cbar": 1.2}


def random_states(rng, d, n):
    """n random d x d states U = I + 0.4 uniform(-1, 1) with det U > 0.2."""
    out = []
    while len(out) < n:
        U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        if np.linalg.det(U) > 0.2:
            out.append(U)
    return np.array(out)


def b_block_formula(m, U, i, j):
    """B_i^j written out one block at a time (1-based i, j)."""
    d = U.shape[0]
    J = float(np.linalg.det(U))
    V = cofactor(U)
    vi, vj = V[:, i - 1], V[:, j - 1]
    out = float(m.h2(J)) * np.outer(vj, vi)
    out += float(m.h1(J)) / J * (np.outer(vj, vi) - np.outer(vi, vj))
    if i == j:
        out += m.mu * np.eye(d)
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_b_blocks_match_written_out_blocks_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    for name in CATALOG_NAMES:
        m = catalog(name, dict(CATALOG_PARAMS, d=d))
        for U in random_states(rng, d, 3):
            B = b_blocks(m, U)
            assert B.shape == (d, d, d, d)
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    expect = b_block_formula(m, U, i, j)
                    assert B[i - 1, j - 1].tobytes() == expect.tobytes()


def energy_formula(m, U):
    """W(U) = (mu/2) tr(U^T U) + h(det U) written out for one matrix, in float arithmetic."""
    return 0.5 * m.mu * float(np.sum(U * U)) + float(m.h(float(np.linalg.det(U))))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_energy_stack_matches_single_calls_bit_for_bit(d):
    rng = np.random.default_rng(50 + d)
    for name in CATALOG_NAMES:
        m = catalog(name, dict(CATALOG_PARAMS, d=d))
        # 100 states per law, so that an h rounding a stack differently from a float J
        # would show: numpy's vector power and Python's pow differ in the last bit for
        # about one Ogden-foam J in 50 on AVX-512 hosts
        S = random_states(rng, d, 100).reshape(4, 25, d, d)
        W = energy(m, S)
        assert W.shape == (4, 25)
        loop = np.array([[energy(m, U) for U in row] for row in S])
        assert W.tobytes() == loop.tobytes()
        formula = np.array([[energy_formula(m, U) for U in row] for row in S])
        assert W.tobytes() == formula.tobytes()
        assert type(energy(m, S[0, 0])) is float


def test_laws_round_the_same_for_floats_and_arrays():
    # every term is a numpy ufunc, so a float J rounds as the same J inside an array
    rng = np.random.default_rng(62)
    J = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 10_000))
    for name in CATALOG_NAMES:
        m = catalog(name, dict(CATALOG_PARAMS, d=3))
        for n, law in enumerate((m.h, m.h1, m.h2, m.h3)):
            single = np.array([law(x) for x in J.tolist()])
            assert law(J).tobytes() == single.tobytes(), (name, n)


@pytest.mark.parametrize("alpha", [-1e120, -1e300])
def test_huge_jump_is_domain_error(capsys, alpha):
    # h''' = -2/J^3 underflows to -0 at the far end of the jump interval, yet the log row
    # gives it its sign there; the huge jump ends as a typed error, not a traceback
    m = catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 2.0})
    with np.errstate(over="ignore"):
        assert m.h3(1.0 - alpha) == 0.0
    assert m.derivative_sign(3, 1.0, 1.0 - alpha) == -1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            build(m, ElasticState(np.eye(2)), alpha)
        assert build(m, ElasticState(np.eye(2)), -0.3).speed < 0
        assert hadshock.cli.main(["shock", "--material=ciarlet-geymonat", "--kappa=2",
                                  "--dim=2", f"--alpha={alpha!r}"]) == 3
    assert capsys.readouterr().err.count("\n") == 1


def test_huge_jump_overflow_is_alpha_out_of_range():
    # h(J-) = -log J + (J - 1)^2 / 2 overflows to inf at J- = 1e300 but not at 1e120: the
    # overflowing jump is AlphaOutOfRange, the finite one fails the Lax margins, a small one
    # builds, and a stack keeps each row's own error
    m = catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 2.0})
    with np.errstate(over="ignore"):
        assert m.h(1.0 + 1e300) == np.inf and np.isfinite(m.h(1.0 + 1e120))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlphaOutOfRange, match="overflows"):
            build(m, ElasticState(np.eye(2)), -1e300)
        with pytest.raises(WrongSignForMaterial):
            build(m, ElasticState(np.eye(2)), -1e120)
        errors = build_stack(m, ElasticState(np.eye(2)), [-0.3, -1e300, -1e120]).errors
    assert errors[0] is None
    assert [type(e) for e in errors[1:]] == [AlphaOutOfRange, WrongSignForMaterial]


def test_energy_stack_with_one_nonpositive_det_raises(cg2):
    S = random_states(np.random.default_rng(6), 2, 5)
    S[3] = np.diag([-1.0, 1.0])
    with pytest.raises(NonPositiveJacobian):
        energy(cg2, S)
    with pytest.raises(NonPositiveJacobian):
        b_blocks(cg2, S[3])


# --------------------------------------------------------------------------
# acoustic tensor and characteristic speeds

def test_acoustic_tensor_identity_state(cg2):
    Q = acoustic_tensor(cg2, np.eye(2), np.array([1.0, 0.0]))
    assert np.allclose(Q, np.eye(2) + 2.0 * np.outer([1, 0], [1, 0]), rtol=1e-14)
    assert np.array_equal(acoustic_tensor(cg2, np.eye(2), np.zeros(2)), np.zeros((2, 2)))


def test_acoustic_tensor_double_sum_oracle():
    m = catalog("simo-miehe", {"d": 3, "mu": 1.4, "kappa": 2.0})
    rng = np.random.default_rng(8)
    U = np.eye(3) + 0.4 * rng.uniform(-1, 1, size=(3, 3))
    xi = rng.standard_normal(3)
    Q = acoustic_tensor(m, U, xi)
    B = b_blocks(m, U)
    S = sum(xi[i] * xi[j] * B[i, j] for i in range(3) for j in range(3))
    assert np.abs(Q - S).max() <= 1e-11 * max(1.0, np.abs(Q).max())
    assert np.allclose(Q, Q.T, atol=1e-13)


def test_acoustic_spectrum_example(cg2):
    spec = acoustic_spectrum(cg2, np.eye(2), np.array([1.0, 0.0]))
    assert spec.kappa1 == pytest.approx(1.0)
    assert spec.kappa2 == pytest.approx(3.0)
    assert (spec.mult1, spec.mult2) == (1, 1)


def test_acoustic_spectrum_eigvec_and_rank(cg2, shock_pool):
    for sf in shock_pool[4][:3]:
        m, U = sf.material, sf.plus.U
        rng = np.random.default_rng(1)
        xi = rng.standard_normal(4)
        Q = acoustic_tensor(m, U, xi)
        spec = acoustic_spectrum(m, U, xi)
        assert np.linalg.norm(Q @ spec.eigvec2 - spec.kappa2 * spec.eigvec2) <= 1e-11 * max(
            1.0, abs(spec.kappa2)
        ) * np.linalg.norm(spec.eigvec2)
        vals = np.sort(dense_eig(Q.astype(complex)).real)
        expect = np.sort([spec.kappa1] * 3 + [spec.kappa2])
        assert np.abs(vals - expect).max() <= 1e-9 * max(1.0, spec.kappa2)
        # constant multiplicity: Q - kappa1 I has rank one
        sv = np.linalg.svd(Q - spec.kappa1 * np.eye(4), compute_uv=False)
        assert sv[1] <= 1e-10 * sv[0]
        # positive definite under h'' > 0
        assert np.all(np.linalg.eigvalsh(Q) > 0)


def test_zero_frequency_raises(cg2):
    with pytest.raises(ZeroFrequency):
        acoustic_spectrum(cg2, np.eye(2), np.zeros(2))


def test_char_speeds_example(cg2):
    table = char_speeds(cg2, np.eye(2))
    vals = [v for v, _ in table]
    mults = [mult for _, mult in table]
    assert vals == pytest.approx([-np.sqrt(3), -1.0, 0.0, 1.0, np.sqrt(3)])
    assert mults == [1, 1, 2, 1, 1]
    assert sum(mults) == 2 * 2 + 2


def test_char_speeds_multiplicity_sum(shock_pool):
    for d, pool in shock_pool.items():
        table = char_speeds(pool[0].material, pool[0].plus.U)
        assert sum(mult for _, mult in table) == d * d + d
        assert table[4][0] == pytest.approx(-table[0][0])


# --------------------------------------------------------------------------
# auxiliary identities

def test_cofactor_derivative_identity():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        U = np.eye(d) + 0.4 * rng.uniform(-1, 1, size=(d, d))
        J = np.linalg.det(U)
        V = cofactor(U)
        step = 1e-6 * (1 + np.abs(U).max())
        scale = max(1.0, np.abs(V).max() ** 2 / J)
        for q in range(d):
            for i in range(d):
                Up, Um = U.copy(), U.copy()
                Up[q, i] += step
                Um[q, i] -= step
                fd = (cofactor(Up) - cofactor(Um)) / (2 * step)
                closed = (V[q, i] * V - np.outer(V[:, i], V[q, :])) / J
                assert np.abs(fd - closed).max() <= 1e-6 * scale


def test_trace_invariant_domain_bound():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        for _ in range(20):
            U = np.eye(d) + 0.5 * rng.uniform(-1, 1, size=(d, d))
            J = np.linalg.det(U)
            if J <= 0:
                continue
            I1 = float(np.sum(U * U))
            assert I1 >= d * J ** (2.0 / d) - 1e-12
    # equality exactly at pure dilations
    U = 1.7 * np.eye(3)
    I1, J = float(np.sum(U * U)), float(np.linalg.det(U))
    assert I1 == pytest.approx(3 * J ** (2.0 / 3.0), rel=1e-13)
