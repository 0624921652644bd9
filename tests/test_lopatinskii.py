import numpy as np
import pytest

from hadshock.classifier import classify, reference_delta
from hadshock.errors import ContourThroughZero, RhoNotNegative
from hadshock.lopatinskii import (
    beta_residual,
    delta_v1_values,
    delta_v2_values,
    delta_v3_values,
    freq_map_values,
    freq_unmap_values,
    _imag_roots,
    stable_beta_values,
    v3_factors_values,
    winding,
    winding_number,
)
from hadshock.materials import catalog
from hadshock.oracle import _stack_fronts, delta_v1_raw, sample_frequency
from hadshock.shock import ElasticState, build, freq_coeffs


# --------------------------------------------------------------------------
# stable root

def test_stable_beta_zero_transverse(cg2_shock):
    beta = stable_beta_values(cg2_shock, 1.0, [0.0])
    expect = -1.0 / (np.sqrt(3.0) + cg2_shock.speed)
    assert beta == pytest.approx(expect, rel=1e-12)
    assert beta == pytest.approx(-14.716656, abs=1e-5)


def test_stable_beta_residual_and_halfplane(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(100 + d, d)
        for sf in pool[:6]:
            for _ in range(4):
                lam, xi = sample()
                beta = complex(stable_beta_values(sf, lam, xi))
                assert beta.real < 0
                assert beta_residual(sf, lam, xi, beta) <= 1e-11
                assert abs(lam + beta * sf.speed) > 1e-10


def test_stable_beta_boundary_extension(cg2_weak_shock):
    for t in (0.3, 1.0, 2.2, -1.4):
        lam, xi = complex(0.0, t), [np.sqrt(max(0.0, 1 - t * t))] if abs(t) < 1 else [0.0]
        closed = stable_beta_values(cg2_weak_shock, lam, xi)
        offset = stable_beta_values(cg2_weak_shock, lam + 1e-8, xi)
        assert abs(closed - offset) <= 1e-6 * max(1.0, abs(closed))


# --------------------------------------------------------------------------
# frequency map

def test_freq_map_zero_transverse(cg2_shock):
    lam = 0.8 + 0.1j
    gamma = freq_map_values(cg2_shock, lam, [0.0])
    k2, s2 = cg2_shock.kappa2_plus, cg2_shock.speed**2
    assert gamma == pytest.approx(lam * np.sqrt(k2 / (k2 - s2)), rel=1e-14)


def test_freq_map_roundtrip(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(200 + d, d)
        for sf in pool[:5]:
            lam, xi = sample()
            back = freq_unmap_values(sf, freq_map_values(sf, lam, xi), xi)
            assert abs(back - lam) <= 1e-13


def test_freq_map_halfplane_sign(shock_pool, frequency_sampler):
    sample = frequency_sampler(7, 3)
    for sf in shock_pool[3][:5]:
        lam, xi = sample()
        gamma = freq_map_values(sf, lam, xi)
        assert gamma.real * lam.real > 0
        # hemisphere membership carries over: |lambda(gamma)|^2 + |xi|^2 = 1
        back = freq_unmap_values(sf, gamma, xi)
        assert abs(abs(back) ** 2 + float(xi @ xi) - 1.0) <= 1e-12


# --------------------------------------------------------------------------
# version 1

def test_delta_v1_one_dimensional_form(cg2_shock):
    th11, k2, s = 1.0, cg2_shock.kappa2_plus, cg2_shock.speed
    coeff = th11 * (np.sqrt(k2) - s) / (np.sqrt(k2) + s)
    assert delta_v1_values(cg2_shock, 1.0, [0.0]) == pytest.approx(coeff, rel=1e-12)
    assert delta_v1_values(cg2_shock, 1.0, [0.0]) == pytest.approx(49.98, abs=0.01)
    lam = np.exp(0.3j)
    val = delta_v1_values(cg2_shock, lam, [0.0])
    assert val == pytest.approx(coeff * lam * lam, rel=1e-12)


def test_delta_v1_raw_equals_completed(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(300 + d, d)
        for sf in pool[:6]:
            lam, xi = sample()
            a = delta_v1_values(sf, lam, xi)
            b = delta_v1_raw(sf, lam, xi)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_v1_v2_equivalence(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(400 + d, d)
        for sf in pool:
            for _ in range(3):
                lam, xi = sample()
                v1 = delta_v1_values(sf, lam, xi)
                v2 = delta_v2_values(sf, freq_map_values(sf, lam, xi), xi)
                factor = sf.speed**2 * sf.theta11 / sf.kappa2_plus
                assert abs(v1 - factor * v2) <= 1e-11 * (1.0 + abs(v1))


# --------------------------------------------------------------------------
# version 2

def test_delta_v2_degree_two_homogeneity(cg2_weak_shock, foam_shock):
    rng = np.random.default_rng(44)
    for sf in (cg2_weak_shock, foam_shock):
        for _ in range(6):
            gamma = complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
            xi = rng.standard_normal(1)
            c = rng.uniform(0.1, 5.0)
            a = delta_v2_values(sf, c * gamma, c * xi)
            b = delta_v2_values(sf, gamma, xi)
            assert abs(a - c * c * b) <= 1e-12 * max(1.0, abs(a))


def test_delta_v2_blatz_closed_form():
    mu, kap, alpha = 1.0, 1.0, -5.0
    m = catalog("blatz", {"d": 3, "mu": mu, "kappa": kap})
    sf = build(m, ElasticState(np.eye(3)), alpha)
    assert abs(sf.rho) <= 1e-14
    k2 = kap + 4.0 * mu / 3.0
    s2 = mu + (kap + mu / 3.0) / (1.0 - alpha)
    assert sf.kappa2_plus == pytest.approx(k2, rel=1e-14)
    assert sf.speed**2 == pytest.approx(s2, rel=1e-14)
    c1 = np.sqrt(k2 / s2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        gamma = complex(rng.uniform(0.01, 1.5), rng.uniform(-1.5, 1.5))
        xi = rng.standard_normal(2)
        val = delta_v2_values(sf, gamma, xi)
        root = np.sqrt(gamma * gamma + k2 * float(xi @ xi))
        if root.real < 0:
            root = -root
        expect = (gamma + c1 * root) ** 2
        assert abs(val - expect) <= 1e-12 * max(1.0, abs(expect))


def test_delta_v2_matches_cg2d_reference(cg2_shock):
    params = {"mu": 1.0, "kappa": 2.0, "alpha": -0.3}
    res = np.linspace(0.0, 2.0, 50)
    ims = np.linspace(-2.0, 2.0, 50)
    for re in res:
        gams = re + 1j * ims
        vals = delta_v2_values(cg2_shock, gams, [1.0])
        for g, v in zip(gams, vals):
            ref = reference_delta("CG2D", params, g, [1.0])
            assert abs(v - ref) <= 1e-11 * max(1.0, abs(ref))


# --------------------------------------------------------------------------
# version 3 and factorization

def test_delta_v3_requires_negative_rho(cg2_shock):
    with pytest.raises(RhoNotNegative):
        delta_v3_values(cg2_shock, 1.0, [1.0])
    with pytest.raises(RhoNotNegative):
        v3_factors_values(cg2_shock, 1.0, [1.0])


def test_v3_guard_takes_a_stack(foam_shock):
    # verify hands the factorization the stack of its rho < 0 fronts; one front with
    # rho >= 0 in a stack raises for the stack
    stack = _stack_fronts([foam_shock, foam_shock])
    gammas, xis = np.full((2, 1), 0.3 + 1.1j), np.ones((2, 1, foam_shock.dim - 1))
    f_minus, _ = v3_factors_values(stack, gammas, xis)
    assert f_minus.shape == (2, 1)
    stack.rho = np.array([[foam_shock.rho], [0.0]])
    with pytest.raises(RhoNotNegative):
        v3_factors_values(stack, gammas, xis)


def test_delta_v3_zero_transverse(foam_shock):
    for gamma in (1.0, 0.3 + 1.1j, 2.0 - 0.4j):
        val = delta_v3_values(foam_shock, gamma, [0.0])
        expect = gamma * (1.0 - np.sqrt(foam_shock.kappa2_plus) / foam_shock.speed)
        assert val == pytest.approx(expect, rel=1e-13)
        assert abs(val) > 0


def test_delta_v3_finite_nonzero(foam_shock):
    val = delta_v3_values(foam_shock, 1.0, [1.0])
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) > 0


def test_v3_factorization(shock_pool, frequency_sampler):
    checked = 0
    for d, pool in shock_pool.items():
        sample = frequency_sampler(500 + d, d)
        for sf in pool:
            if sf.rho >= 0:
                continue
            lam, xi = sample()
            gamma = freq_map_values(sf, lam, xi)
            f_minus, f_plus = v3_factors_values(sf, gamma, xi)
            v1 = delta_v1_values(sf, lam, xi)
            prod = (sf.kappa2_plus - sf.speed**2) * sf.theta11 * f_minus * f_plus
            assert abs(prod - v1) <= 1e-11 * (1.0 + abs(v1))
            assert f_minus.real < 0
            d1 = delta_v3_values(sf, gamma, xi)
            pref = np.sqrt(sf.kappa2_plus * (sf.kappa2_plus - sf.speed**2)) / sf.speed
            assert abs(pref * f_plus - d1) <= 1e-12 * max(1.0, abs(d1))
            checked += 1
    assert checked >= 3


# --------------------------------------------------------------------------
# one frequency rounds as the matching element of a stack

KERNELS = {
    "stable_beta": stable_beta_values,
    "freq_map": freq_map_values,
    "freq_unmap": freq_unmap_values,
    "delta_v1": delta_v1_values,
    "delta_v2": delta_v2_values,
    "delta_v3": delta_v3_values,
    "v3_factors_minus": lambda sf, zs, xis: v3_factors_values(sf, zs, xis)[0],
    "v3_factors_plus": lambda sf, zs, xis: v3_factors_values(sf, zs, xis)[1],
}


def _stacked_frequencies(rng, d, n=48):
    """Hemisphere samples, 8 points on the axis Re = 0 and 8 with xi_t = 0."""
    pts = [sample_frequency(rng, d) for _ in range(n)]
    zs = np.array([lam for lam, _ in pts])
    xis = np.array([xi for _, xi in pts])
    zs[:8] = 1j * zs[:8].imag
    xis[8:16] = 0.0
    return zs, xis


@pytest.mark.parametrize("name", list(KERNELS))
def test_scalar_equals_stacked_element_bit_for_bit(shock_pool, name):
    kernel = KERNELS[name]
    rng = np.random.default_rng(97)
    checked = 0
    for d, pool in shock_pool.items():
        for sf in pool:
            if name.startswith(("delta_v3", "v3_")) and sf.rho >= 0:
                continue
            zs, xis = _stacked_frequencies(rng, d)
            values = kernel(sf, zs, xis)
            singles = [kernel(sf, z, xi) for z, xi in zip(zs, xis)]  # 0-d z, 1-D xi
            assert values.shape == zs.shape
            assert all(v.shape == () for v in singles)
            assert np.array_equal(np.array(singles).view(np.uint64), values.view(np.uint64))
            checked += 1
    assert checked >= 6


# --------------------------------------------------------------------------
# imaginary-axis scan

def test_imag_scan_no_roots_for_nonpositive_rho(foam_shock):
    m = catalog("blatz", {"d": 3, "mu": 1.0, "kappa": 2.0})
    sfb = build(m, ElasticState(np.eye(3)), -2.0)
    for sf, xi in ((sfb, [1.0, 0.0]), (foam_shock, [1.0])):
        _, t, failed = _imag_roots(sf, freq_coeffs(sf, xi))
        assert np.isnan(t) and failed == 0
        assert classify(sf).witness is None


def test_imag_scan_cg_uniform_case(cg2_shock):
    bv, t, failed = _imag_roots(cg2_shock, freq_coeffs(cg2_shock, [1.0]))
    assert bv == pytest.approx(2.675, rel=1e-12)
    assert np.isnan(t) and failed == 0
    assert classify(cg2_shock).witness is None


def test_imag_scan_cg_weak_case(cg2_weak_shock):
    sf = cg2_weak_shock
    witness = classify(sf).witness
    assert witness.criterion_value == pytest.approx(3.0 * (1.0 - 72.0 / 19.0), rel=1e-12)
    t_star = witness.t_root
    assert t_star == pytest.approx(2.0544972097255703, rel=1e-10)
    # eta = 0 on this base, so +/-xi_t give the same root
    bv, t, failed = _imag_roots(sf, freq_coeffs(sf, [1.0]))
    assert (bv, t, failed) == (witness.criterion_value, t_star, 0)
    val = delta_v2_values(sf, 1j * t_star, [1.0])
    assert abs(val) <= 1e-8
    # the root is not a curl-constraint artifact lambda = -beta s
    lam = freq_unmap_values(sf, 1j * t_star, [1.0])
    beta = stable_beta_values(sf, lam, [1.0])
    assert abs(lam + beta * sf.speed) > 1e-6
    # no roots inside the branch gap |t| < sqrt(zeta)
    zeta = freq_coeffs(sf, [1.0]).zeta
    assert t_star >= np.sqrt(zeta)


def test_imag_scan_reflection_symmetry(cg2_weak_shock):
    ts = np.array([1.9, 2.05, 2.4])
    left = delta_v2_values(cg2_weak_shock, -1j * ts, [1.0])
    right = delta_v2_values(cg2_weak_shock, 1j * ts, [-1.0])
    assert np.allclose(left, right, rtol=1e-13)


# --------------------------------------------------------------------------
# winding

def test_winding_synthetic_oracle():
    assert winding_number(lambda w: w - 0.5, 2.0) == 1
    assert winding_number(lambda w: w + 0.5, 2.0) == 0


def test_winding_quadratic_zeros():
    # two zeros inside the half-disk
    assert winding_number(lambda w: (w - 0.5) * (w - 0.2 - 0.4j), 2.0) == 2


def test_winding_zero_on_contour_raises():
    with pytest.raises(ContourThroughZero):
        winding_number(lambda w: w - 1j, 2.0)


def test_winding_calls_f_on_arrays(foam_shock):
    sizes = []

    def counted(f):
        def wrapped(w):
            sizes.append(w.shape)
            return f(w)
        return wrapped

    assert winding_number(counted(lambda w: delta_v3_values(foam_shock, w, [1.0])), 20.0) == 0
    assert sizes[0] == (4096,) and len(sizes) <= 33
    # a zero just right of the imaginary axis forces bisection rounds
    sizes.clear()
    assert winding_number(counted(lambda w: w - (1e-3 + 0.5j)), 2.0) == 1
    assert 1 < len(sizes) <= 33


def test_winding_foam_shock(foam_shock):
    for R in (5.0, 20.0):
        assert winding(foam_shock, [1.0], R) == 0


def test_winding_requires_negative_rho(cg2_shock):
    with pytest.raises(RhoNotNegative):
        winding(cg2_shock, [1.0], 20.0)
