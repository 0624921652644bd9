import numpy as np
import pytest

from hadshock.classifier import reference_delta
from hadshock.errors import ContourThroughZero, RhoNotNegative
from hadshock.lopatinskii import (
    FrequencyPoint,
    TransformedFrequency,
    beta_residual,
    delta_v1,
    delta_v1_values,
    delta_v2,
    delta_v2_values,
    delta_v3,
    delta_v3_values,
    freq_map,
    freq_map_values,
    freq_unmap,
    freq_unmap_values,
    imag_scan,
    stable_beta,
    stable_beta_values,
    v3_factors,
    v3_factors_values,
    winding,
    winding_number,
)
from hadshock.materials import catalog
from hadshock.oracle import delta_v1_raw, sample_frequency
from hadshock.shock import ElasticState, build, freq_coeffs


# --------------------------------------------------------------------------
# stable root

def test_stable_beta_zero_transverse(cg2_shock):
    fp = FrequencyPoint(1.0, [0.0])
    beta = stable_beta(cg2_shock, fp)
    expect = -1.0 / (np.sqrt(3.0) + cg2_shock.speed)
    assert beta == pytest.approx(expect, rel=1e-12)
    assert beta == pytest.approx(-14.716656, abs=1e-5)


def test_stable_beta_residual_and_halfplane(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(100 + d, d)
        for sf in pool[:6]:
            for _ in range(4):
                fp = sample()
                beta = stable_beta(sf, fp)
                assert beta.real < 0
                assert beta_residual(sf, fp, beta) <= 1e-11
                assert abs(fp.lam + beta * sf.speed) > 1e-10


def test_stable_beta_boundary_extension(cg2_weak_shock):
    for t in (0.3, 1.0, 2.2, -1.4):
        fp = FrequencyPoint(complex(0.0, t), [np.sqrt(max(0.0, 1 - t * t))] if abs(t) < 1 else [0.0])
        closed = stable_beta(cg2_weak_shock, fp)
        offset = stable_beta(cg2_weak_shock, FrequencyPoint(fp.lam + 1e-8, fp.xi_t))
        assert abs(closed - offset) <= 1e-6 * max(1.0, abs(closed))


# --------------------------------------------------------------------------
# frequency map

def test_freq_map_zero_transverse(cg2_shock):
    fp = FrequencyPoint(0.8 + 0.1j, [0.0])
    tf = freq_map(cg2_shock, fp)
    k2, s2 = cg2_shock.kappa2_plus, cg2_shock.speed**2
    assert tf.gamma == pytest.approx(fp.lam * np.sqrt(k2 / (k2 - s2)), rel=1e-14)


def test_freq_map_roundtrip(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(200 + d, d)
        for sf in pool[:5]:
            fp = sample()
            back = freq_unmap(sf, freq_map(sf, fp))
            assert abs(back.lam - fp.lam) <= 1e-13
            assert np.array_equal(back.xi_t, fp.xi_t)


def test_freq_map_halfplane_sign(shock_pool, frequency_sampler):
    sample = frequency_sampler(7, 3)
    for sf in shock_pool[3][:5]:
        fp = sample()
        tf = freq_map(sf, fp)
        assert tf.gamma.real * fp.lam.real > 0
        # hemisphere membership carries over: |lambda(gamma)|^2 + |xi|^2 = 1
        back = freq_unmap(sf, tf)
        assert abs(abs(back.lam) ** 2 + float(fp.xi_t @ fp.xi_t) - 1.0) <= 1e-12


# --------------------------------------------------------------------------
# version 1

def test_delta_v1_one_dimensional_form(cg2_shock):
    th11, k2, s = 1.0, cg2_shock.kappa2_plus, cg2_shock.speed
    coeff = th11 * (np.sqrt(k2) - s) / (np.sqrt(k2) + s)
    fp = FrequencyPoint(1.0, [0.0])
    assert delta_v1(cg2_shock, fp) == pytest.approx(coeff, rel=1e-12)
    assert delta_v1(cg2_shock, fp) == pytest.approx(49.98, abs=0.01)
    lam = np.exp(0.3j)
    val = delta_v1(cg2_shock, FrequencyPoint(lam, [0.0]))
    assert val == pytest.approx(coeff * lam * lam, rel=1e-12)


def test_delta_v1_raw_equals_completed(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(300 + d, d)
        for sf in pool[:6]:
            fp = sample()
            a = delta_v1(sf, fp)
            b = delta_v1_raw(sf, fp)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_v1_v2_equivalence(shock_pool, frequency_sampler):
    for d, pool in shock_pool.items():
        sample = frequency_sampler(400 + d, d)
        for sf in pool:
            for _ in range(3):
                fp = sample()
                v1 = delta_v1(sf, fp)
                v2 = delta_v2(sf, freq_map(sf, fp))
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
            a = delta_v2(sf, TransformedFrequency(c * gamma, c * xi))
            b = delta_v2(sf, TransformedFrequency(gamma, xi))
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
        val = delta_v2(sf, TransformedFrequency(gamma, xi))
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
        delta_v3(cg2_shock, TransformedFrequency(1.0, [1.0]))


def test_delta_v3_zero_transverse(foam_shock):
    for gamma in (1.0, 0.3 + 1.1j, 2.0 - 0.4j):
        val = delta_v3(foam_shock, TransformedFrequency(gamma, [0.0]))
        expect = gamma * (1.0 - np.sqrt(foam_shock.kappa2_plus) / foam_shock.speed)
        assert val == pytest.approx(expect, rel=1e-13)
        assert abs(val) > 0


def test_delta_v3_finite_nonzero(foam_shock):
    val = delta_v3(foam_shock, TransformedFrequency(1.0, [1.0]))
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) > 0


def test_v3_factorization(shock_pool, frequency_sampler):
    checked = 0
    for d, pool in shock_pool.items():
        sample = frequency_sampler(500 + d, d)
        for sf in pool:
            if sf.rho >= 0:
                continue
            fp = sample()
            tf = freq_map(sf, fp)
            f_minus, f_plus = v3_factors(sf, tf)
            v1 = delta_v1(sf, fp)
            prod = (sf.kappa2_plus - sf.speed**2) * sf.theta11 * f_minus * f_plus
            assert abs(prod - v1) <= 1e-11 * (1.0 + abs(v1))
            assert f_minus.real < 0
            d1 = delta_v3(sf, tf)
            pref = np.sqrt(sf.kappa2_plus * (sf.kappa2_plus - sf.speed**2)) / sf.speed
            assert abs(pref * f_plus - d1) <= 1e-12 * max(1.0, abs(d1))
            checked += 1
    assert checked >= 3


# --------------------------------------------------------------------------
# scalar entry points are batches of one

SCALAR_AND_STACK = {
    "stable_beta": (lambda sf, z, xi: stable_beta(sf, FrequencyPoint(z, xi)), stable_beta_values),
    "freq_map": (lambda sf, z, xi: freq_map(sf, FrequencyPoint(z, xi)).gamma, freq_map_values),
    "freq_unmap": (
        lambda sf, z, xi: freq_unmap(sf, TransformedFrequency(z, xi)).lam, freq_unmap_values
    ),
    "delta_v1": (lambda sf, z, xi: delta_v1(sf, FrequencyPoint(z, xi)), delta_v1_values),
    "delta_v2": (lambda sf, z, xi: delta_v2(sf, TransformedFrequency(z, xi)), delta_v2_values),
    "delta_v3": (lambda sf, z, xi: delta_v3(sf, TransformedFrequency(z, xi)), delta_v3_values),
    "v3_factors_minus": (
        lambda sf, z, xi: v3_factors(sf, TransformedFrequency(z, xi))[0],
        lambda sf, zs, xis: v3_factors_values(sf, zs, xis)[0],
    ),
    "v3_factors_plus": (
        lambda sf, z, xi: v3_factors(sf, TransformedFrequency(z, xi))[1],
        lambda sf, zs, xis: v3_factors_values(sf, zs, xis)[1],
    ),
}


def _stacked_frequencies(rng, d, n=48):
    """Hemisphere samples, 8 points on the axis Re = 0 and 8 with xi_t = 0."""
    pts = [sample_frequency(rng, d) for _ in range(n)]
    zs = np.array([fp.lam for fp in pts])
    xis = np.array([fp.xi_t for fp in pts])
    zs[:8] = 1j * zs[:8].imag
    xis[8:16] = 0.0
    return zs, xis


@pytest.mark.parametrize("name", list(SCALAR_AND_STACK))
def test_scalar_equals_stacked_element_bit_for_bit(shock_pool, name):
    scalar, stacked = SCALAR_AND_STACK[name]
    rng = np.random.default_rng(97)
    checked = 0
    for d, pool in shock_pool.items():
        for sf in pool:
            if name.startswith(("delta_v3", "v3_")) and sf.rho >= 0:
                continue
            zs, xis = _stacked_frequencies(rng, d)
            values = stacked(sf, zs, xis)
            singles = np.array([scalar(sf, z, xi) for z, xi in zip(zs, xis)])
            assert values.shape == zs.shape
            assert np.array_equal(singles.view(np.uint64), values.view(np.uint64))
            checked += 1
    assert checked >= 6


# --------------------------------------------------------------------------
# imaginary-axis scan

def test_imag_scan_no_roots_for_nonpositive_rho(foam_shock):
    m = catalog("blatz", {"d": 3, "mu": 1.0, "kappa": 2.0})
    sfb = build(m, ElasticState(np.eye(3)), -2.0)
    assert imag_scan(sfb, [1.0, 0.0]).roots == []
    assert imag_scan(foam_shock, [1.0]).roots == []


def test_imag_scan_cg_uniform_case(cg2_shock):
    res = imag_scan(cg2_shock, [1.0])
    assert res.boundary_value == pytest.approx(2.675, rel=1e-12)
    assert res.roots == []


def test_imag_scan_cg_weak_case(cg2_weak_shock):
    res = imag_scan(cg2_weak_shock, [1.0])
    assert res.boundary_value == pytest.approx(3.0 * (1.0 - 72.0 / 19.0), rel=1e-12)
    assert len(res.roots) == 1
    t_star = res.roots[0]
    assert t_star == pytest.approx(2.0544972097255703, rel=1e-10)
    val = delta_v2(cg2_weak_shock, TransformedFrequency(1j * t_star, [1.0]))
    assert abs(val) <= 1e-8
    assert res.lambda_plus_beta_s[0] > 1e-6  # root is not a curl-constraint artifact
    # no roots inside the branch gap |t| < sqrt(zeta)
    zeta = freq_coeffs(cg2_weak_shock, [1.0]).zeta
    assert t_star >= np.sqrt(zeta)


def test_imag_scan_reflection_symmetry(cg2_weak_shock):
    ts = np.array([1.9, 2.05, 2.4])
    left = delta_v2_values(cg2_weak_shock, -1j * ts, [1.0])
    right = delta_v2_values(cg2_weak_shock, 1j * ts, [-1.0])
    assert np.allclose(left, right, rtol=1e-13)


def test_imag_scan_requires_unit_vector(cg2_shock):
    with pytest.raises(ValueError):
        imag_scan(cg2_shock, [2.0])


# --------------------------------------------------------------------------
# winding

def test_winding_synthetic_oracle():
    assert winding_number(lambda w: w - 0.5, 2.0, initial_nodes=256) == 1
    assert winding_number(lambda w: w + 0.5, 2.0, initial_nodes=256) == 0


def test_winding_quadratic_zeros():
    # two zeros inside the half-disk
    assert winding_number(lambda w: (w - 0.5) * (w - 0.2 - 0.4j), 2.0, initial_nodes=256) == 2


def test_winding_zero_on_contour_raises():
    with pytest.raises(ContourThroughZero):
        winding_number(lambda w: w - 1j, 2.0, initial_nodes=256)


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
