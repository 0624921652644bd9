import numpy as np
import pytest

from hadshock.classifier import (
    UNIFORM,
    WEAK,
    cg_alpha_star,
    classify,
    criterion_values,
    reference_delta,
    transition_alpha,
)
from hadshock.errors import BadParams, DegenerateModuli, InvalidBracket
from hadshock.lopatinskii import TransformedFrequency, delta_v2
from hadshock.materials import catalog
from hadshock.oracle import random_shock, sphere_min_reference
from hadshock.shock import ElasticState, build


def test_classify_cg_uniform(cg2_shock):
    v = classify(cg2_shock)
    assert v.kind == UNIFORM
    assert v.min_criterion == pytest.approx(2.675, rel=1e-12)
    assert v.witness is None
    assert not v.marginal


def test_classify_cg_weak(cg2_weak_shock):
    v = classify(cg2_weak_shock)
    assert v.kind == WEAK
    assert v.min_criterion == pytest.approx(3.0 * (1.0 - 72.0 / 19.0), rel=1e-12)
    assert v.witness is not None
    assert v.witness.criterion_value <= 0
    val = delta_v2(cg2_weak_shock, TransformedFrequency(1j * v.witness.t_root, v.witness.xi_t))
    assert abs(val) <= 1e-8


def test_classify_rho_nonpositive_short_circuit(foam_shock):
    v = classify(foam_shock)
    assert v.kind == UNIFORM
    assert v.min_criterion is None  # nonpositive rho decides outright; no sphere search
    # identically-zero rho floats to +/-1e-16; the verdict must be Uniform
    # either way, skipping the search whenever the sign lands nonpositive
    m = catalog("blatz", {"d": 3, "mu": 1.0, "kappa": 2.0})
    sfb = build(m, ElasticState(np.eye(3)), -1.7)
    vb = classify(sfb)
    assert vb.kind == UNIFORM
    if sfb.rho <= 0:
        assert vb.min_criterion is None


def test_classify_with_winding_check_consistent(foam_shock):
    v = classify(foam_shock, check_winding=True)
    assert v.kind == UNIFORM
    assert v.diagnostic is None


def test_classify_inconsistent_path(foam_shock, monkeypatch):
    # a nonzero winding count cannot occur for a consistent model; force one
    # to exercise the diagnostic verdict
    import hadshock.classifier as cls

    monkeypatch.setattr(cls, "winding", lambda sf, xi, R: 1)
    v = classify(foam_shock, check_winding=True)
    assert v.kind == "inconsistent"
    assert "winding" in v.diagnostic


def test_classify_d2_is_exact_two_point_min(cg2_weak_shock):
    v = classify(cg2_weak_shock)
    vals = criterion_values(cg2_weak_shock, np.array([[-1.0], [1.0]]))
    assert v.min_criterion == pytest.approx(float(vals.min()), rel=0, abs=0)


def test_classify_marginal_at_threshold(cg2):
    a_star = cg_alpha_star(1.0, 2.0)
    v = classify(build(cg2, ElasticState(np.eye(2)), a_star))
    assert v.marginal
    assert v.kind == WEAK
    assert abs(v.min_criterion) < 1e-10


def test_classify_positive_alpha_warns():
    m = catalog("bischoff-arruda-grosh", {"d": 2, "mu": 1.0, "cbar": 2.0, "b": 1.5})
    sf = build(m, ElasticState(np.diag([1.5, 1.0])), 0.2)
    with pytest.warns(UserWarning):
        classify(sf)


def test_classify_random_pool_summary(shock_pool):
    for pool in shock_pool.values():
        for sf in pool:
            v = classify(sf)
            assert v.kind in (UNIFORM, WEAK)
            if sf.rho <= 0:
                assert v.kind == UNIFORM
            if v.kind == WEAK:
                assert v.witness is not None
                tf = TransformedFrequency(1j * v.witness.t_root, v.witness.xi_t)
                assert abs(delta_v2(sf, tf)) <= 1e-8


def test_criterion_homogeneity(cg2_weak_shock, shock_pool):
    rng = np.random.default_rng(77)
    for sf in [cg2_weak_shock] + shock_pool[3][:3]:
        xi = rng.standard_normal(sf.dim - 1)
        g1 = float(criterion_values(sf, xi[None, :])[0])
        g2 = float(criterion_values(sf, 2.0 * xi[None, :])[0])
        assert g2 == pytest.approx(4.0 * g1, rel=1e-12)


def test_classify_min_matches_fine_grid(shock_pool):
    # independent oracle: brute-force minimum over a dense circle grid
    for sf in shock_pool[3][:4]:
        if sf.rho <= 0:
            continue
        v = classify(sf)
        ang = np.linspace(0.0, 2.0 * np.pi, 100001)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        grid_min = float(criterion_values(sf, pts).min())
        assert v.min_criterion <= grid_min + 1e-9
        assert v.min_criterion == pytest.approx(grid_min, rel=1e-6, abs=1e-8)


def _unit_sample(rng, k, n=200_000):
    pts = rng.standard_normal((n, k))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _assert_global_minimum(sf, sample):
    got = classify(sf).min_criterion
    ref = sphere_min_reference(sf)
    assert got <= ref + 1e-12 * max(1.0, abs(ref))
    assert got <= float(criterion_values(sf, sample).min()) + 1e-12 * max(1.0, abs(got))


@pytest.mark.parametrize("d", range(3, 9))
def test_classify_min_is_global(d):
    # independent oracles: the dense-grid plus Nelder-Mead reference and a
    # large random sample of the sphere; neither may beat the exact search
    rng = np.random.default_rng(4100 + d)
    sample = _unit_sample(rng, d - 1)
    checked = 0
    while checked < 15:
        sf = random_shock(rng, d)
        if sf.rho > 0:
            _assert_global_minimum(sf, sample)
            checked += 1


def _block_diagonal_base():
    # theta_1T misses the eigenspaces of the lower block entirely
    U = np.eye(5)
    U[:2, :2] = [[1.1, 0.3], [-0.25, 0.9]]
    U[2:, 2:] = np.diag([0.85, 1.2, 1.05])
    return U


def _rotated_diagonal_base():
    # U+ = Q diag(a): theta is diagonal, so theta_1T vanishes up to rounding
    q, r = np.linalg.qr(np.random.default_rng(8).standard_normal((5, 5)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q * np.array([0.9, 1.3, 0.8, 1.1, 1.25])[None, :]


@pytest.mark.parametrize("base", [_block_diagonal_base, _rotated_diagonal_base])
def test_classify_min_structured_base(base):
    m = catalog("simo-taylor", {"d": 5, "mu": 1.0, "kappa": 2.5})
    sf = build(m, ElasticState(base()), -3.0)
    assert sf.rho > 0
    _assert_global_minimum(sf, _unit_sample(np.random.default_rng(5), 4))


def test_classify_min_below_polished_grid_regression():
    # the grid plus Nelder-Mead search stopped at 1.43872 on this front
    sf = random_shock(np.random.default_rng(13), 6)
    v = classify(sf)
    assert v.min_criterion < 1.42428
    assert v.min_criterion == pytest.approx(1.4242717246987688, rel=1e-12)


def test_cg_alpha_star_value():
    a = cg_alpha_star(1.0, 2.0)
    assert a == pytest.approx(-(1.0 + np.sqrt(13.0)) / 2.0, rel=1e-15)
    assert a == pytest.approx(-2.3028, abs=1e-3)


def test_cg_alpha_star_zeroes_criterion():
    for mu, kap in ((1.0, 2.0), (0.7, 1.9), (1.3, 4.0)):
        a = cg_alpha_star(mu, kap)
        L = 1.0 + a * (1.0 - a) * (kap - mu) / (mu + (1.0 - a) * kap)
        assert abs(L) <= 1e-12


def test_cg_alpha_star_degenerate():
    with pytest.raises(DegenerateModuli):
        cg_alpha_star(1.0, 1.0)


def test_transition_alpha_cg(cg2):
    t = transition_alpha(cg2, np.eye(2), np.zeros(2), -10.0, -0.1)
    assert t == pytest.approx(cg_alpha_star(1.0, 2.0), abs=2e-6)


def test_transition_alpha_none_for_blatz():
    m = catalog("blatz", {"d": 3, "mu": 1.0, "kappa": 2.0})
    assert transition_alpha(m, np.eye(3), np.zeros(3), -10.0, -0.1) is None


def test_transition_alpha_none_in_foam_negative_rho_region():
    m = catalog("ogden-foam", {"d": 2, "mu": 1.0, "c1": 2.0})
    assert transition_alpha(m, np.eye(2), np.zeros(2), -2.0, -0.1) is None


def test_transition_alpha_invalid_bracket(cg2):
    with pytest.raises(InvalidBracket):
        transition_alpha(cg2, np.eye(2), np.zeros(2), -1.0, 0.5)  # upper end not buildable


# --------------------------------------------------------------------------
# closed-form reference determinants

def test_reference_cg2d_uniform_case_no_zeros():
    params = {"mu": 1.0, "kappa": 2.0, "alpha": -0.3}
    res = np.linspace(0.0, 2.0, 60)
    ims = np.linspace(-2.0, 2.0, 60)
    m = min(
        abs(reference_delta("CG2D", params, complex(r, i), [1.0]))
        for r in res
        for i in ims
    )
    assert m > 0.01


def test_reference_cg2d_weak_case_axis_zeros():
    params = {"mu": 1.0, "kappa": 2.0, "alpha": -8.0}
    t_star = 2.0544972097255703
    assert abs(reference_delta("CG2D", params, 1j * t_star, [1.0])) <= 1e-10
    # zeros must sit on the axis: just off it the value grows
    assert abs(reference_delta("CG2D", params, 0.05 + 1j * t_star, [1.0])) > 1e-3


def test_reference_blatz3d_nonvanishing():
    params = {"mu": 1.0, "kappa": 1.0, "alpha": -5.0}
    res = np.linspace(0.0, 1.0, 40)
    ims = np.linspace(-1.0, 1.0, 40)
    m = min(
        abs(reference_delta("Blatz3D", params, complex(r, i)))
        for r in res
        for i in ims
    )
    assert m > 0.01


def test_reference_delta_bad_params():
    with pytest.raises(BadParams):
        reference_delta("CG2D", {"mu": 2.0, "kappa": 1.0, "alpha": -1.0}, 1.0)
    with pytest.raises(BadParams):
        reference_delta("CG2D", {"mu": 1.0, "kappa": 2.0, "alpha": 0.5}, 1.0)
    with pytest.raises(BadParams):
        reference_delta("Blatz3D", {"mu": 1.0, "kappa": 1.0, "alpha": -5.0}, 10.0)
    with pytest.raises(BadParams):
        reference_delta("Euler1D", {"mu": 1.0, "kappa": 2.0, "alpha": -1.0}, 1.0)
