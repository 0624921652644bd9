import copy
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadshock.classifier import (
    UNIFORM,
    WEAK,
    StabilityVerdict,
    _critical_set,
    _criterion_slope,
    _eigen_criterion,
    _unit,
    classify,
    classify_stack,
    criterion_values,
    transition_alpha,
)
from hadshock.errors import (AlphaOutOfRange, BadParams, DegenerateModuli, HadshockError,
                             InvalidBracket)
from hadshock.lopatinskii import delta_v1_values, delta_v2_values
from hadshock.materials import CATALOG_NAMES, catalog
from hadshock.oracle import (cg_alpha_star, random_shock, reference_delta, sphere_min_reference,
                             winding)
from hadshock.shock import (H3_BLOCK_ROWS, ElasticState, FrontStack, _surface_term, alpha_max,
                            build, build_stack, freq_coeffs)


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
    val = delta_v2_values(cg2_weak_shock, 1j * v.witness.t_root, v.witness.xi_t)
    assert abs(val) <= 1e-8


# the strongest fronts of each law that build on the identity base (mu 1, kappa 2): the
# root quadratic's terms grow with |alpha| there, and its small root has no cancellation
STRONG_WEAK_ROWS = {("ciarlet-geymonat", 2): (14, 15), ("ciarlet-geymonat", 3): (14, 15),
                    ("ciarlet-geymonat", 4): (14, 15), ("simo-taylor", 2): (15,),
                    ("simo-taylor", 3): (14, 15, 16), ("simo-taylor", 4): (14, 15),
                    ("simo-miehe", 2): (14, 15), ("simo-miehe", 3): (14, 15),
                    ("simo-miehe", 4): (14, 15)}


@pytest.mark.parametrize("name, d", sorted(STRONG_WEAK_ROWS))
def test_strong_fronts_that_build_get_a_verdict(name, d):
    m = catalog(name, {"d": d, "mu": 1.0, "kappa": 2.0})
    weak = []
    for k in range(8, 20):
        try:
            sf = build(m, ElasticState(np.eye(d)), -10.0**k)
        except HadshockError:
            continue
        assert classify(sf).kind == WEAK, k
        weak.append(k)
    assert set(STRONG_WEAK_ROWS[name, d]) <= set(weak)


@pytest.mark.parametrize("k", [14, 15])
def test_strong_cg2_witness_is_a_zero_of_the_closed_form(k):
    # the witness i t_root zeroes the worked example's determinant to rounding in the size
    # R = rho kappa2+ P / (s^2 theta11) of its terms
    alpha = -10.0**k
    sf = build(catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 2.0}),
               ElasticState(np.eye(2)), alpha)
    w = classify(sf).witness
    R = _surface_term(sf, freq_coeffs(sf, w.xi_t).P)
    ref = reference_delta("CG2D", {"mu": 1.0, "kappa": 2.0, "alpha": alpha}, 1j * w.t_root,
                          w.xi_t)
    assert R > 1e13 and abs(ref) <= 1e-14 * R


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


def test_classify_with_winding_check_consistent(foam_shock, shock_pool):
    # rho < 0 decides Uniform outright; the argument principle agrees: no zero of
    # delta_v3 in the right half plane along any axis direction
    fronts = [foam_shock] + [sf for pool in shock_pool.values() for sf in pool if sf.rho < 0]
    assert len(fronts) >= 6
    for sf in fronts:
        assert classify(sf).kind == UNIFORM
        for xi in np.eye(sf.dim - 1):
            assert winding(sf, xi, R=20.0) == 0


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


def test_classify_positive_alpha_is_uniform():
    # build admits alpha > 0 only where h''' > 0, which makes rho < 0: uniform, with no
    # sphere search, and nothing warns
    m = catalog("bischoff-arruda-grosh", {"d": 2, "mu": 1.0, "cbar": 2.0, "b": 1.5})
    sf = build(m, ElasticState(np.diag([1.5, 1.0])), 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = classify(sf)
    assert (v.kind, v.min_criterion, v.witness) == (UNIFORM, None, None)
    assert v.rho == sf.rho < 0


def test_classify_random_pool_summary(shock_pool):
    for pool in shock_pool.values():
        for sf in pool:
            v = classify(sf)
            assert v.kind in (UNIFORM, WEAK)
            if sf.rho <= 0:
                assert v.kind == UNIFORM
            if v.kind == WEAK:
                assert v.witness is not None
                assert abs(delta_v2_values(sf, 1j * v.witness.t_root, v.witness.xi_t)) <= 1e-8


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
    # independent oracles: the dense-grid plus compass-search reference and a
    # large random sample of the sphere; neither may beat the exact search
    rng = random.Random(4100 + d)
    sample = _unit_sample(np.random.default_rng(4100 + d), d - 1)
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


def _rotation(seed, d):
    """A random rotation: the Q factor of a Gaussian matrix, with det Q = +1."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _rotated_diagonal_base():
    # U+ = Q diag(a): theta is diagonal, so theta_1T vanishes up to rounding
    return _rotation(8, 5) * np.array([0.9, 1.3, 0.8, 1.1, 1.25])[None, :]


@pytest.mark.parametrize("base", [_block_diagonal_base, _rotated_diagonal_base])
def test_classify_min_structured_base(base):
    m = catalog("simo-taylor", {"d": 5, "mu": 1.0, "kappa": 2.5})
    sf = build(m, ElasticState(base()), -3.0)
    assert sf.rho > 0
    _assert_global_minimum(sf, _unit_sample(np.random.default_rng(5), 4))


def test_classify_min_below_polished_grid_regression():
    # an earlier classifier search, a grid plus Nelder-Mead, stopped at 1.43872 on this front
    m = catalog("ciarlet-geymonat", {"d": 6, "mu": 0.9810522648842281, "kappa": 0.882337356590027})
    U = np.array([
        [1.3647975870165865, 0.355302514932059, 0.31102339878434215, -0.2385536385835234,
         -0.4228005422815786, 0.44646578044606333],
        [0.11379169104710185, 0.5026307536262997, 0.4104071780658378, 0.4848034752375554,
         -0.21370339583382958, 0.31366112303897953],
        [-0.41759205611869177, -0.061719952696578595, 1.3177037747448075, -0.09126666731022637,
         0.017749707186977104, -0.38296011652493367],
        [0.3140065192501118, -0.0021325916674878043, -0.25172080511332806, 1.2766861560008684,
         0.4792282891895626, 0.038343234076290034],
        [0.23715022262078356, 0.49276068884836266, -0.46987250362467603, 0.09897765236677125,
         1.4672952777915866, -0.38266342615668314],
        [-0.2768985050060797, 0.050228388983372896, 0.22232731071979595, 0.05275241539482933,
         0.047701795642366096, 0.5515388294743615]])
    v_plus = np.array([0.31934264169858295, -0.08843407984146934, 0.46530293369435327,
                       -0.04421993819611325, -0.7505573333881774, 0.20915977607468839])
    sf = build(m, ElasticState(U, v_plus), -0.17251845773269103)
    v = classify(sf)
    assert v.min_criterion < 1.42428
    assert v.min_criterion == pytest.approx(1.4242717246987688, rel=1e-12)


def _bits(x):
    return None if x is None else np.float64(x).view(np.uint64)


def _rows_match_per_front(m, U, alphas):
    """Batch sweep rows against build + classify per intensity, bit for bit; the batch verdicts."""
    plus = ElasticState(U)
    fronts = build_stack(m, plus, alphas)
    batch = classify_stack(fronts)
    assert len(batch) == len(alphas)
    for i, (alpha, got) in enumerate(zip(alphas, batch)):
        try:
            sf = build(m, plus, float(alpha))
            want = classify(sf)
        except HadshockError as exc:
            want = exc
        if isinstance(want, HadshockError):
            assert (type(got), str(got)) == (type(want), str(want)), alpha
            continue
        assert _bits(fronts.rho[i, 0]) == _bits(sf.rho) == _bits(got.rho), alpha
        assert _bits(got.min_criterion) == _bits(want.min_criterion), alpha
        assert (got.kind, got.marginal) == (want.kind, want.marginal), alpha
        if want.witness is not None:
            assert np.array_equal(got.witness.xi_t.view(np.uint64),
                                  want.witness.xi_t.view(np.uint64))
            assert _bits(got.witness.t_root) == _bits(want.witness.t_root)
    return batch


def _from_cofactor(V):
    """The base state whose cofactor matrix is V (det V > 0)."""
    return np.linalg.det(V) ** (1.0 / (V.shape[0] - 1)) * np.linalg.inv(V).T


def _arc_and_segment_base():
    # theta_TT = diag(0.64, 1, 1, 1.69): theta_1T reaches the double eigenvalue 1
    # (an arc) and misses 0.64 (a segment)
    V = np.diag([1.0, 0.8, 1.0, 1.0, 1.3])
    V[2:5, 0] = [0.3, 0.2, 0.1]
    return _from_cofactor(V)


@pytest.mark.parametrize("base", ["coupled", "arc_and_segment"])
def test_criterion_slope_matches_central_difference(base):
    # the closed-form dG/du along every piece of the critical set, at both signs of xi,
    # against a central difference of criterion_values at the unit directions
    U = (np.eye(4) + 0.3 * np.random.default_rng(3).uniform(-1.0, 1.0, (4, 4))
         if base == "coupled" else _arc_and_segment_base())
    m = catalog("simo-taylor", {"d": U.shape[0], "mu": 1.0, "kappa": 2.5})
    sf = build(m, ElasticState(U), -3.0)
    fr = FrontStack.of(sf)
    lam, vecs = np.linalg.eigh(sf.theta[1:, 1:])
    b = vecs.T @ sf.theta[0, 1:]
    _, pieces = _critical_set(lam, b, sf.theta11)
    # the coupled base has only the curve; the other adds an arc and a segment
    assert [count for _, count, _ in pieces] == ([4] if base == "coupled" else [3, 2])
    u, h = np.linspace(0.1, 0.9, 9), 1e-6
    for fn, count, _ in pieces:
        for piece in range(count):
            at = np.full(u.size, piece)
            y, dy = fn(at, u)
            for sign in (1.0, -1.0):
                g, slope, _ = _criterion_slope(fr, lam, b, sign * y, sign * dy)
                xi = [sign * (vecs @ fn(at, u + t)[0].T).T for t in (h, -h, 0.0)]
                g_plus, g_minus, g_at = (criterion_values(sf, x / np.linalg.norm(x, axis=1)[:, None])
                                         for x in xi)
                np.testing.assert_allclose(g[0], g_at, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(slope[0], (g_plus - g_minus) / (2.0 * h),
                                           rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("base", ["coupled", "arc_and_segment"])
def test_eigen_criterion_matches_criterion_values(base):
    # G at the isolated points of the critical set and at random rows, both signs, taken
    # in eigen-coordinates as the sphere search takes it, against criterion_values
    U = (np.eye(4) + 0.3 * np.random.default_rng(4).uniform(-1.0, 1.0, (4, 4))
         if base == "coupled" else _arc_and_segment_base())
    m = catalog("simo-taylor", {"d": U.shape[0], "mu": 1.0, "kappa": 2.5})
    sf = build(m, ElasticState(U), -3.0)
    lam, vecs = np.linalg.eigh(sf.theta[1:, 1:])
    b = vecs.T @ sf.theta[0, 1:]
    points, _ = _critical_set(lam, b, sf.theta11)
    y = np.vstack([points, np.random.default_rng(6).standard_normal((20, lam.size))])
    v = _unit(np.vstack([y, -y]))[0]
    g = _eigen_criterion(FrontStack.of(sf), lam, b, v)[0][0]
    np.testing.assert_allclose(g, criterion_values(sf, v @ vecs.T), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_sweep_rows_equal_per_front_eigenvector_bases(d):
    # U+ = Q diag(a), as in the benchmark's sweeps: theta_1T vanishes up to rounding
    rng = np.random.default_rng(60 + d)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    U = q * rng.uniform(0.7, 1.4, size=d)[None, :]
    for name, params in (("ciarlet-geymonat", {"kappa": 3.0}), ("ogden-foam", {"c1": 1.3})):
        m = catalog(name, {"d": d, "mu": 1.2, **params})
        kinds = {v.kind for v in _rows_match_per_front(m, U, np.linspace(-12.0, -0.05, 80))}
        assert UNIFORM in kinds


@pytest.mark.parametrize("d", range(3, 9))
def test_sweep_rows_equal_per_front_coupled_bases(d):
    rng = np.random.default_rng(70 + d)
    bases = [np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (d, d))]
    if d == 5:
        bases += [_block_diagonal_base(), _rotated_diagonal_base(), _arc_and_segment_base()]
    for U in bases:
        m = catalog("simo-taylor", {"d": d, "mu": 1.0, "kappa": 2.5})
        kinds = [v.kind for v in _rows_match_per_front(m, U, np.linspace(-9.0, -0.1, 40))]
        assert WEAK in kinds


def test_sweep_rows_need_every_refined_bracket():
    # a front of this sweep lands in the wrong basin when only its lowest
    # sampled minimum is refined; no row may lie above a sampled sphere minimum
    U = np.array([
        [1.336614221633348, 0.27120457721992486, -0.15415983427321522, -0.39529547480990856],
        [-0.06234732594982595, 1.3465724978705291, -0.4049301159303498, 0.42711639801862755],
        [0.1065845773497417, 0.025613633596595187, 1.0427917928031971, -0.4024121730043829],
        [-0.11942056938802614, 0.05210651928598409, 0.1378881530884427, 0.6276438659960205]])
    m = catalog("simo-miehe", {"d": 4, "mu": 1.7850545831399334, "kappa": 1.4448603743282633})
    alphas = np.linspace(-0.95, -0.75, 9)
    batch = _rows_match_per_front(m, U, alphas)
    sample = _unit_sample(np.random.default_rng(5), 3)
    for alpha, v in zip(alphas, batch):
        sf = build(m, ElasticState(U), alpha)
        assert v.min_criterion <= float(criterion_values(sf, sample).min()) + 1e-12


def test_sweep_rows_equal_per_front_errors_and_edges():
    bag = catalog("bischoff-arruda-grosh", {"d": 2, "mu": 1.0, "cbar": 2.0, "b": 1.5})
    # h''' changes sign past J = 1, alpha = 0 is out of range, alpha > 0 has the wrong sign
    rows = _rows_match_per_front(bag, 0.9 * np.eye(2), np.linspace(-3.0, 0.6, 37))
    names = {type(v).__name__ for v in rows}
    assert {"HtripleSignChange", "AlphaOutOfRange", "WrongSignForMaterial",
            "StabilityVerdict"} <= names
    # more rows than two h''' sampling blocks; the first block edge falls among the sign changes
    alphas = np.linspace(-3.0, 0.6, 73)
    assert alphas.size > 2 * H3_BLOCK_ROWS
    rows = _rows_match_per_front(bag, 0.9 * np.eye(2), alphas)
    assert {type(v).__name__ for v in rows[H3_BLOCK_ROWS - 1:H3_BLOCK_ROWS + 1]} == {
        "HtripleSignChange"}
    # alpha > 0 fronts, and intensities past alpha_max = 1.5
    rows = _rows_match_per_front(bag, np.diag([1.5, 1.0]), np.linspace(0.05, 1.8, 15))
    assert {"AlphaOutOfRange", "StabilityVerdict"} <= {type(v).__name__ for v in rows}
    # h''' = 0: no strict Lax front at any intensity
    lb = catalog("levinson-burgess", {"d": 3, "mu": 1.0, "kappa": 2.0})
    rows = _rows_match_per_front(lb, np.eye(3), np.linspace(-3.0, -0.1, 7))
    assert {type(v).__name__ for v in rows} == {"WrongSignForMaterial"}
    cg = catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 2.0})
    for steps in (0, 1):  # --steps 0 and 1
        assert len(_rows_match_per_front(cg, np.eye(2), np.linspace(-5.0, 0.5, steps))) == steps


def test_overflowing_criterion_is_typed_error_row(cg2):
    # G takes h''(J+)^2; where that overflows, a searched row is an error, not a verdict
    # from an infinite zeta, and nothing warns; rho <= 0 rows are still uniform
    fronts = build_stack(cg2, ElasticState(np.eye(2)), [-8.0, -0.3])
    assert fronts.rho[0, 0] > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weak, _ = classify_stack(fronts)
        huge = copy.copy(fronts)
        huge.h2_plus, huge.rho = 1e160, np.array([[1.0], [-1.0]])
        err, uniform = classify_stack(huge)
    assert weak.kind == WEAK
    assert isinstance(err, AlphaOutOfRange) and "h''(J+)^2" in str(err)
    assert (uniform.kind, uniform.min_criterion) == (UNIFORM, None)


def _property_base(family, exponent, seed, d):
    """One of four base-state families: a scaled identity, a near-identity and a scaled
    Gaussian matrix, whose magnitude exponent picks from [0, 1], and a diagonal matrix with
    entries 10^[-8, 8]; seed draws the noise and the diagonal."""
    rng = np.random.default_rng(seed)
    if family == "identity":
        return 10.0 ** (-3.0 + 6.0 * exponent) * np.eye(d)
    if family == "near-identity":
        return np.eye(d) + 10.0 ** (-12.0 + 12.0 * exponent) * rng.standard_normal((d, d))
    if family == "gaussian":
        return 10.0 ** (-100.0 + 200.0 * exponent) * rng.standard_normal((d, d))
    return np.diag(10.0 ** rng.uniform(-8.0, 8.0, d))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(CATALOG_NAMES), d=st.integers(2, 8),
       moduli=st.lists(st.floats(-6.0, 8.0), min_size=5, max_size=5),
       family=st.sampled_from(["identity", "near-identity", "gaussian", "diagonal"]),
       exponent=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       alphas=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)),
                       min_size=1, max_size=12))
def test_every_stack_row_is_a_finite_verdict_or_a_typed_error(name, d, moduli, family,
                                                              exponent, seed, alphas):
    # moduli log-uniform in 10^[-6, 8], intensities +-10^[-300, 300]: a row ends as a
    # verdict with finite numbers or as a typed error, a built front's stability function
    # is finite on a grid, and no float warning leaks
    mu, kappa, c1, b, cbar = (10.0 ** e for e in moduli)
    alphas = np.array([sign * 10.0 ** e for sign, e in alphas])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = catalog(name, {"d": d, "mu": mu, "kappa": kappa, "c1": c1, "b": b,
                               "cbar": cbar})
            fronts = build_stack(m, ElasticState(_property_base(family, exponent, seed, d)),
                                 alphas)
        except HadshockError:
            return
        rows = classify_stack(fronts)
        # the stability function on a 3 x 3 grid of each built front, over lambda and gamma
        built = np.flatnonzero([e is None for e in fronts.errors])
        grid = (np.array([0.5, 1.0, 2.0]) + 1j * np.array([[-1.0], [0.0], [1.0]])).ravel()
        xi = np.eye(d - 1)[0]
        values = [f(fronts.rows(built), grid, xi) for f in (delta_v1_values, delta_v2_values)
                  if built.size]
    assert len(rows) == alphas.size
    assert all(v.shape == (built.size, 9) and np.all(np.isfinite(v)) for v in values)
    for row in rows:
        if isinstance(row, HadshockError):
            continue
        assert isinstance(row, StabilityVerdict), row
        numbers = [row.rho]
        if row.min_criterion is not None:
            numbers.append(row.min_criterion)
        if row.witness is not None:
            numbers += [row.witness.t_root, row.witness.criterion_value, *row.witness.xi_t]
        assert np.all(np.isfinite(numbers)), row


def test_positive_alpha_stack_is_uniform():
    m = catalog("bischoff-arruda-grosh", {"d": 2, "mu": 1.0, "cbar": 2.0, "b": 1.5})
    fronts = build_stack(m, ElasticState(np.diag([1.5, 1.0])), np.linspace(0.1, 0.3, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = classify_stack(fronts)
    assert [(v.kind, v.min_criterion) for v in verdicts] == [(UNIFORM, None)] * 5
    assert [v.rho for v in verdicts] == fronts.rho[:, 0].tolist()
    assert np.all(fronts.rho < 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(law=st.sampled_from(["bischoff-arruda-grosh", "custom"]), d=st.integers(2, 6),
       moduli=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       stretch=st.lists(st.floats(1e-3, 0.1), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1), lowest=st.floats(-12.0, -1.0))
def test_every_positive_alpha_row_is_uniform_with_negative_rho(law, d, moduli, stretch, seed,
                                                               lowest):
    # build admits alpha > 0 only where h''' > 0 on the jump interval, so J- < J+ and
    # rho = (J- - J+)([h'; J+, J+, J-] + [h'; J+, J-]/J+) < 0: every built row is uniform
    # with no sphere search.  BAG's h''' > 0 at J > 1 and exp's everywhere; the base is a
    # rotation times stretches 10^[1e-3, 0.1], so J+ > 1, and the intensities run
    # geometrically from 10^lowest to 0.999 of alpha_max
    mu, cbar, b = (10.0 ** e for e in moduli)
    m = catalog(law, {"d": d, "mu": mu, "cbar": cbar, "b": b, "h": np.exp, "h1": np.exp,
                      "h2": np.exp, "h3": np.exp})
    U = _rotation(seed, d) * 10.0 ** np.array(stretch[:d])[None, :]
    alphas = np.geomspace(10.0 ** lowest, 0.999, 25) * alpha_max(U)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = classify_stack(build_stack(m, ElasticState(U), alphas))
    for row in rows:
        if not isinstance(row, HadshockError):
            assert (row.kind, row.min_criterion) == (UNIFORM, None) and row.rho < 0, row


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


def test_transition_alpha_lets_programming_errors_at_a_bracket_end_propagate(monkeypatch, cg2):
    # a domain error at a bracket end is an invalid bracket; a bug in build is not
    from hadshock import classifier

    real_build = classifier.build

    def build_failing_at(alpha, exc):
        def patched(m, state, a):
            if a == alpha:
                raise exc
            return real_build(m, state, a)
        return patched

    monkeypatch.setattr(classifier, "build", build_failing_at(-0.1, TypeError("a bug in build")))
    with pytest.raises(TypeError, match="a bug in build"):
        transition_alpha(cg2, np.eye(2), np.zeros(2), -10.0, -0.1)
    monkeypatch.setattr(classifier, "build",
                        build_failing_at(-0.1, AlphaOutOfRange("no front at this intensity")))
    with pytest.raises(InvalidBracket, match="no front at this intensity") as info:
        transition_alpha(cg2, np.eye(2), np.zeros(2), -10.0, -0.1)
    assert isinstance(info.value.__cause__, AlphaOutOfRange)


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
