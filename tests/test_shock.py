import dataclasses
import warnings

import numpy as np
import pytest

from hadshock import shock
from hadshock.errors import (
    AlphaOutOfRange,
    HtripleSignChange,
    NonPositiveJacobian,
    VerificationError,
    WrongSignForMaterial,
)
from hadshock.linalg import cofactor
from hadshock.materials import catalog, piola_kirchhoff
from hadshock.shock import (
    ElasticState,
    alpha_max,
    build,
    build_stack,
    freq_coeffs,
    genuine_nonlinearity,
    lax_check,
)


def test_elastic_state_validation():
    with pytest.raises(NonPositiveJacobian):
        ElasticState(np.diag([1.0, -2.0]))
    st = ElasticState(np.eye(3))
    assert np.array_equal(st.v, np.zeros(3))


def test_alpha_max_examples():
    assert alpha_max(np.eye(3)) == pytest.approx(1.0)
    assert alpha_max(np.diag([2.0, 1.0])) == pytest.approx(2.0)


def test_alpha_to_alpha_max_drives_Jminus_to_zero():
    # exponential volumetric energy: h'' > 0 and h''' > 0 everywhere, so the
    # positive-intensity branch is admissible all the way up to alpha_max
    m = catalog("custom", {"d": 2, "mu": 1.0, "h": np.exp, "h1": np.exp,
                           "h2": np.exp, "h3": np.exp})
    U = np.diag([2.0, 1.0])
    a_max = alpha_max(U)
    sf = build(m, ElasticState(U), 0.999999 * a_max)
    assert 0 < sf.Jminus < 1e-5 * sf.Jplus
    assert sf.Jminus == pytest.approx(sf.Jplus - 0.999999 * a_max * 1.0, rel=1e-9)


def test_build_cg_example(cg2_shock):
    sf = cg2_shock
    assert sf.Jminus == pytest.approx(1.3, rel=1e-14)
    assert sf.speed**2 == pytest.approx(2.0 + 1.0 / 1.3, rel=1e-14)
    assert sf.speed == pytest.approx(-1.664101, abs=1e-6)
    assert sf.rho == pytest.approx(0.3, rel=1e-13)  # -(kappa - mu) * alpha
    assert np.allclose(sf.minus.U, np.diag([1.3, 1.0]), rtol=1e-14)
    assert np.allclose(sf.minus.v, [sf.speed * (-0.3), 0.0], rtol=1e-14)


def test_build_blatz_rho_vanishes():
    m = catalog("blatz", {"d": 3, "mu": 1.0, "kappa": 2.0})
    rng = np.random.default_rng(17)
    for _ in range(10):
        U = np.eye(3) + 0.5 * rng.uniform(-1, 1, size=(3, 3))
        if np.linalg.det(U) <= 0.2:
            continue
        sf = build(m, ElasticState(U), float(rng.uniform(-3.0, -0.1)))
        assert abs(sf.rho) <= 1e-12 * max(1.0, sf.speed**2)


def test_build_ogden_foam_example(foam_shock):
    sf = foam_shock
    # h'(J) = -J^-5 for mu=1, c1=2: s^2 - mu = h'(2) - h'(1) = 31/32
    assert sf.speed**2 - 1.0 == pytest.approx(31.0 / 32.0, rel=1e-14)
    assert sf.rho == pytest.approx(31.0 / 16.0 - 5.0, rel=1e-14)
    assert sf.rho == pytest.approx(-3.0625)


def test_build_alpha_errors(cg2):
    state = ElasticState(np.eye(2))
    with pytest.raises(AlphaOutOfRange):
        build(cg2, state, 0.0)
    with pytest.raises(AlphaOutOfRange):
        build(cg2, state, 1.5)  # alpha_max = 1
    with pytest.raises(WrongSignForMaterial):
        build(cg2, state, 0.5)  # h''' < 0 requires alpha < 0


def test_build_rejects_vanishing_third_derivative():
    # h''' == 0 makes the speed sonic: no strict Lax front for any alpha
    m = catalog("levinson-burgess", {"d": 2, "mu": 1.0, "kappa": 2.0})
    with pytest.raises(WrongSignForMaterial):
        build(m, ElasticState(np.eye(2)), -0.5)


def test_build_positive_alpha_branch_and_sign_change():
    m = catalog("bischoff-arruda-grosh", {"d": 2, "mu": 1.0, "cbar": 2.0, "b": 1.5})
    # base state with J+ > 1; small alpha > 0 keeps the interval inside (1, J+)
    U = np.diag([1.5, 1.0])
    sf = build(m, ElasticState(U), 0.2)
    assert lax_check(sf).ok
    assert sf.speed < 0
    # interval straddling J = 1 flips the sign of h''' inside it
    with pytest.raises(HtripleSignChange):
        build(m, ElasticState(np.diag([0.9, 1.0])), -0.5)


def test_lax_margins_cg(cg2_shock):
    rep = lax_check(cg2_shock)
    assert rep.ok
    m1, m2, m3 = rep.margins
    assert m1 == pytest.approx(0.05422, abs=1e-5)
    assert m2 == pytest.approx(0.06795, abs=1e-5)
    assert m3 == pytest.approx(0.6641005886756874, rel=1e-12)


def test_lax_margins_close_at_sonic_limit(cg2):
    sf = build(cg2, ElasticState(np.eye(2)), -1e-4)
    m1, m2, _ = lax_check(sf).margins
    assert 0 < m1 < 1e-4 and 0 < m2 < 1e-4


def test_every_valid_build_is_lax(shock_pool):
    for pool in shock_pool.values():
        for sf in pool:
            assert lax_check(sf).ok
            assert sf.speed**2 > sf.material.mu


def test_genuine_nonlinearity_zero_for_quadratic_volumetric():
    m = catalog("levinson-burgess", {"d": 2, "mu": 1.0, "kappa": 2.0})
    rng = np.random.default_rng(23)
    for _ in range(5):
        U = np.eye(2) + 0.4 * rng.uniform(-1, 1, size=(2, 2))
        if np.linalg.det(U) > 0.2:
            assert genuine_nonlinearity(m, U) == 0.0


def test_genuine_nonlinearity_cg_identity_state(cg2):
    # h'''(1) = -2, extreme speed squared = 3
    assert genuine_nonlinearity(cg2, np.eye(2), [1.0, 0.0]) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_genuine_nonlinearity_matches_fd(cg2):
    rng = np.random.default_rng(31)
    for _ in range(4):
        U = np.eye(2) + 0.3 * rng.uniform(-1, 1, size=(2, 2))
        if np.linalg.det(U) < 0.3:
            continue
        nu = rng.standard_normal(2)
        nu /= np.linalg.norm(nu)

        def a1(mat):
            w = cofactor(mat) @ nu
            return -np.sqrt(cg2.mu + float(cg2.h2(np.linalg.det(mat))) * (w @ w))

        w0 = cofactor(U) @ nu
        Z = np.outer(-w0 / a1(U), nu)
        step = 1e-5
        fd = (a1(U + step * Z) - a1(U - step * Z)) / (2 * step)
        assert fd == pytest.approx(genuine_nonlinearity(cg2, U, nu), abs=1e-5)


# --------------------------------------------------------------------------
# geometry

def test_geometry_identity_base(cg2_shock):
    assert np.array_equal(cg2_shock.theta, np.eye(2))
    assert np.array_equal(cg2_shock.Theta, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(cg2_shock.M, np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_geometry_d3_cross_product_form(shock_pool):
    for sf in shock_pool[3][:4]:
        U, V = sf.plus.U, sf.V
        expect = np.zeros((3, 3))
        expect[:, 1] = np.cross(U[:, 2], V[:, 0])
        expect[:, 2] = -np.cross(U[:, 1], V[:, 0])
        assert np.allclose(sf.M, expect, rtol=1e-13, atol=1e-13)
        # general minor definition
        A = U.copy()
        A[:, 0] = V[:, 0]
        minors = cofactor(A)
        assert np.abs(sf.M[:, 1:] - minors[:, 1:]).max() <= 1e-11 * max(1, np.abs(minors).max())


def test_geometry_cofactor_jump_and_product(shock_pool):
    for d, pool in shock_pool.items():
        for sf in pool[:4]:
            cof_minus = cofactor(sf.minus.U)
            scale = max(1.0, np.abs(cof_minus).max())
            assert np.abs(cofactor(sf.plus.U) - sf.alpha * sf.M - cof_minus).max() <= 1e-11 * scale
            prod = sf.V.T @ sf.M
            assert np.abs(prod - sf.Theta / sf.Jplus).max() <= 1e-10 * max(1.0, np.abs(prod).max())
            # shared front-normal cofactor column, exactly as constructed
            assert np.array_equal(sf.V[:, 0], cof_minus[:, 0])


def test_theta_structure(shock_pool):
    for pool in shock_pool.values():
        for sf in pool[:3]:
            assert np.allclose(sf.theta, sf.theta.T, atol=0)
            assert np.allclose(sf.Theta[0, :], 0.0, atol=0)
            assert np.allclose(sf.Theta[:, 0], 0.0, atol=0)
            assert np.all(np.diag(sf.Theta)[1:] > 0)
            assert np.allclose(sf.Theta, sf.Theta.T, atol=1e-12 * max(1, np.abs(sf.Theta).max()))


# --------------------------------------------------------------------------
# frequency coefficients and scalar parameters

def test_freq_coeffs_zero(cg2_shock):
    c = freq_coeffs(cg2_shock, [0.0])
    assert (c.eta, c.omega, c.Nsq, c.P, c.zeta) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_freq_coeffs_identity_base(cg2_shock):
    c = freq_coeffs(cg2_shock, [0.7])
    assert c.eta == 0.0
    assert c.P == pytest.approx(0.49, rel=1e-14)
    assert c.zeta == pytest.approx(c.omega, rel=1e-14)
    assert c.zeta == pytest.approx(3.0 * 0.49, rel=1e-14)  # (mu + h''(1)) |xi|^2


def test_freq_coeffs_stack_matches_single_vectors(shock_pool):
    rng = np.random.default_rng(11)
    for d, pool in shock_pool.items():
        for sf in pool[:4]:
            xi = rng.standard_normal((3, 5, d - 1))
            stack = freq_coeffs(sf, xi)
            assert stack.eta.shape == stack.zeta.shape == (3, 5)
            for idx in np.ndindex(3, 5):
                one = freq_coeffs(sf, xi[idx])
                assert isinstance(one.eta, float) and isinstance(one.zeta, float)
                # the same products per vector; only Python's eta**2 in zeta may
                # round differently from numpy's square
                assert (stack.eta[idx], stack.Nsq[idx], stack.omega[idx], stack.P[idx]) == (
                    one.eta, one.Nsq, one.omega, one.P)
                assert stack.zeta[idx] == pytest.approx(one.zeta, rel=1e-15)


def test_zeta_tau_margin_closed_form(shock_pool):
    rng = np.random.default_rng(6)
    for d, pool in shock_pool.items():
        for sf in pool[:4]:
            xi = rng.standard_normal(d - 1)
            c = freq_coeffs(sf, xi)
            slack = c.zeta - (sf.tau * c.eta) ** 2
            mu, s2 = sf.material.mu, sf.speed**2
            closed = (
                mu * float(xi @ xi)
                + sf.h2_plus / sf.theta11 * c.P
                + mu * (s2 - mu) / (s2 * sf.theta11**2) * c.eta**2
            )
            assert slack == pytest.approx(closed, rel=1e-10, abs=1e-12)
            assert slack > 0
            assert c.P > 0
            assert c.zeta > 0


def test_rho_and_tau_values(cg2, cg2_weak_shock, foam_shock):
    assert cg2_weak_shock.rho == pytest.approx(8.0, rel=1e-13)
    assert foam_shock.rho == pytest.approx(-3.0625, rel=1e-14)
    assert cg2_weak_shock.tau > 0
    assert foam_shock.tau > 0
    k2, s, th11 = foam_shock.kappa2_plus, foam_shock.speed, foam_shock.theta11
    mu = foam_shock.material.mu
    assert foam_shock.tau == pytest.approx(
        -mu * np.sqrt(k2 - s * s) / (s * np.sqrt(k2) * th11), rel=1e-14
    )


def test_rho_identity(shock_pool):
    for pool in shock_pool.values():
        for sf in pool:
            alt = (sf.speed**2 - sf.material.mu) * sf.Jminus / (sf.theta11 * sf.Jplus) - sf.h2_plus
            assert abs(sf.rho - alt) <= 1e-13 * max(1.0, abs(sf.rho))


def test_rankine_hugoniot_residuals(shock_pool):
    for pool in shock_pool.values():
        for sf in pool:
            scale = sf.residual_scale()
            jU1 = sf.plus.U[:, 0] - sf.minus.U[:, 0]
            jv = sf.plus.v - sf.minus.v
            assert np.linalg.norm(-sf.speed * jU1 - jv) <= 1e-11 * scale
            sp = piola_kirchhoff(sf.material, sf.plus.U)
            sm = piola_kirchhoff(sf.material, sf.minus.U)
            assert np.linalg.norm(-sf.speed * jv - (sp[:, 0] - sm[:, 0])) <= 1e-11 * scale
            assert np.array_equal(sf.plus.U[:, 1:], sf.minus.U[:, 1:])


def test_stress_jump_closed_forms(shock_pool):
    for pool in shock_pool.values():
        for sf in pool[:5]:
            sp = piola_kirchhoff(sf.material, sf.plus.U)
            sm = piola_kirchhoff(sf.material, sf.minus.U)
            v1 = sf.V[:, 0]
            scale = sf.residual_scale()
            assert np.linalg.norm(
                (sp[:, 0] - sm[:, 0]) - sf.alpha * sf.speed**2 * v1
            ) <= 1e-11 * scale
            for j in range(1, sf.dim):
                closed = sf.alpha * (
                    (sf.speed**2 - sf.material.mu) * sf.V[:, j]
                    + float(sf.material.h1(sf.Jminus)) * sf.M[:, j]
                )
                assert np.linalg.norm((sp[:, j] - sm[:, j]) - closed) <= 1e-11 * max(
                    scale, np.linalg.norm(closed)
                )


def test_amplitude_scaling(shock_pool):
    for pool in shock_pool.values():
        for sf in pool[:5]:
            amp = np.linalg.norm(sf.plus.U - sf.minus.U)
            expect = abs(sf.alpha) * np.linalg.norm(sf.V[:, 0])
            assert amp == pytest.approx(expect, rel=1e-13)


def test_jump_residual_is_verification_error(cg2, monkeypatch):
    def skewed(m, U):
        return piola_kirchhoff(m, U) + 1e-6 * U

    monkeypatch.setattr(shock, "piola_kirchhoff", skewed)
    with pytest.raises(VerificationError, match="jump-condition residuals"):
        build(cg2, ElasticState(np.eye(2)), -0.3)


@pytest.mark.parametrize("alpha", [-0.3, -1e8])
@pytest.mark.parametrize("case", ["cg2-identity", "blatz3-sheared"])
def test_jump_check_catches_1e9_relative_changes(cg2, monkeypatch, case, alpha):
    if case == "cg2-identity":
        m, plus = cg2, ElasticState(np.eye(2))
    else:
        U = np.eye(3) + 0.3 * np.random.default_rng(3).uniform(-1, 1, (3, 3))
        m = catalog("blatz", {"d": 3, "mu": 1.0, "kappa": 2.0})
        plus = ElasticState(U, [0.2, -0.1, 0.4])
    sf = build(m, plus, alpha)
    moved = dataclasses.replace(sf, speed=sf.speed * (1 + 1e-9))
    assert isinstance(shock._jump_and_lax_errors(moved)[0], VerificationError)

    k = int(np.argmax(np.abs(piola_kirchhoff(m, sf.minus.U)[:, 0])))

    def skewed(material, U):  # one entry of sigma- moved by 1e-9 relative
        sig = piola_kirchhoff(material, U)
        if U is sf.minus.U:
            sig[k, 0] *= 1 + 1e-9
        return sig

    monkeypatch.setattr(shock, "piola_kirchhoff", skewed)
    assert isinstance(shock._jump_and_lax_errors(sf)[0], VerificationError)


def test_huge_alpha_raises_without_warning(cg2):
    # h''' overflows on the sampled jump interval, but its sign still decides
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlphaOutOfRange):
            build(cg2, ElasticState(np.eye(2)), -1e300)


def test_jump_scale_overflow_is_typed_error():
    # at alpha = -1.3e154 the stress column is finite (about 1.3e156), but the norms of the
    # jump residual square its entries, so the scale overflows: the row cannot be checked
    # and must not pass with a residual of 0
    m = catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 100.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fronts = build_stack(m, ElasticState(np.eye(2)), [-0.3, -1.3e154, -1e300])
    assert fronts.errors[0] is None
    assert all(isinstance(e, AlphaOutOfRange) for e in fronts.errors[1:])
