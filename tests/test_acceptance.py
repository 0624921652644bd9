"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance is stated inline; nothing is deferred
to calibration.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hadshock.classifier import (
    UNIFORM,
    WEAK,
    classify,
    transition_alpha,
)
from hadshock.lopatinskii import (
    delta_v1_values,
    delta_v2_values,
    freq_map_values,
    stable_beta_values,
    winding_number,
)
from hadshock.materials import acoustic_spectrum, acoustic_tensor, b_blocks, catalog
from hadshock.oracle import (
    assemble_calA,
    cg_alpha_star,
    delta_hat_assembled,
    delta_v3_values,
    dense_eig,
    fd_check_suite,
    formula_left_eigenvector,
    hersh_counts,
    jump_vector,
    random_shock,
    reference_delta,
    stress_jump,
    v3_factors_values,
    verify_suite,
    winding,
)
from hadshock.shock import ElasticState, build


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL - {text}")
        raise
    print(f"[criterion {num:2d}] PASS - {text}")


def test_criterion_01_cg_threshold(cg2):
    with criterion(1, "Ciarlet-Geymonat threshold intensity"):
        t0 = time.perf_counter()
        a_star = cg_alpha_star(1.0, 2.0)
        assert a_star == pytest.approx(-(1.0 + np.sqrt(13.0)) / 2.0, rel=1e-14)
        assert abs(a_star - (-2.3028)) <= 1e-3
        t_bisect = transition_alpha(cg2, np.eye(2), np.zeros(2), -10.0, -0.1)
        assert t_bisect is not None
        assert abs(t_bisect - a_star) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_02_cg_sweep(cg2):
    with criterion(2, "verdict sweep reproduces the uniform/weak split"):
        t0 = time.perf_counter()
        a_star = cg_alpha_star(1.0, 2.0)
        state = ElasticState(np.eye(2))
        verdicts = []
        for alpha in np.linspace(-5.0, -0.1, 200):
            v = classify(build(cg2, state, float(alpha)))
            verdicts.append((float(alpha), v.kind))
        for alpha, kind in verdicts:
            expect = UNIFORM if alpha > a_star else WEAK
            assert kind == expect, (alpha, kind)
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a[1] != b[1])
        assert flips == 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.3f}s exceeds 5s"


def test_criterion_03_blatz_identity():
    with criterion(3, "Blatz fronts: rho vanishes, uniform, reference determinant"):
        t0 = time.perf_counter()
        m = catalog("blatz", {"d": 3, "mu": 1.0, "kappa": 1.0})
        rng = np.random.default_rng(33)
        count = 0
        while count < 100:
            U = np.eye(3) + 0.5 * rng.uniform(-1, 1, size=(3, 3))
            if np.linalg.det(U) <= 0.2:
                continue
            alpha = float(rng.uniform(-3.0, -0.05))
            sf = build(m, ElasticState(U), alpha)
            assert abs(sf.rho) <= 1e-12 * max(1.0, sf.speed**2)
            assert classify(sf).kind == UNIFORM
            count += 1

        params = {"mu": 1.0, "kappa": 1.0, "alpha": -5.0}
        sf = build(m, ElasticState(np.eye(3)), -5.0)
        k2, s2 = sf.kappa2_plus, sf.speed**2
        res = np.linspace(0.0, 1.0, 100)
        ims = np.linspace(-1.0, 1.0, 100)
        for re in res:
            for im in ims:
                g = complex(re, im)
                xi_sq = 1.0 - (k2 - s2) / k2 * abs(g) ** 2
                assert xi_sq >= 0.0
                val = delta_v2_values(sf, g, [np.sqrt(xi_sq), 0.0])
                ref = reference_delta("Blatz3D", params, g)
                assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.3f}s exceeds 30s"


def test_criterion_04_weak_witness(cg2_weak_shock):
    with criterion(4, "weak-stability witness root on the imaginary axis"):
        witness = classify(cg2_weak_shock).witness
        assert abs(witness.criterion_value - 3.0 * (1.0 - 72.0 / 19.0)) <= 1e-9
        t_star = witness.t_root
        val = delta_v2_values(cg2_weak_shock, 1j * t_star, witness.xi_t)
        assert abs(val) <= 1e-8


def test_criterion_05_version_equivalence(shock_pool, frequency_sampler):
    with criterion(5, "determinant version equivalence over random samples"):
        total = 0
        negative_rho = 0
        for d, pool in shock_pool.items():
            sample = frequency_sampler(5000 + d, d)
            for sf in pool:
                for _ in range(14):
                    lam, xi = sample()
                    v1 = delta_v1_values(sf, lam, xi)
                    gamma = freq_map_values(sf, lam, xi)
                    v2 = delta_v2_values(sf, gamma, xi)
                    factor = sf.speed**2 * sf.theta11 / sf.kappa2_plus
                    hat_mag = abs(sf.alpha) * abs(v1)
                    assert abs(v1 - factor * v2) <= 1e-10 * (1.0 + hat_mag)
                    if sf.rho < 0:
                        negative_rho += 1
                        f_minus, _ = v3_factors_values(sf, gamma, xi)
                        d1 = delta_v3_values(sf, gamma, xi)
                        pref = sf.speed / np.sqrt(
                            sf.kappa2_plus * (sf.kappa2_plus - sf.speed**2)
                        )
                        recon = (
                            (sf.kappa2_plus - sf.speed**2)
                            * sf.theta11
                            * f_minus
                            * (pref * d1)
                        )
                        assert abs(recon - v1) <= 1e-10 * (1.0 + hat_mag)
                    total += 1
        assert total >= 500, total
        assert negative_rho >= 20, negative_rho


def test_criterion_06_full_assembly_oracle(shock_pool, frequency_sampler):
    with criterion(6, "formula eigenvector against the dense frequency symbol"):
        total = 0
        for d, pool in shock_pool.items():
            sample = frequency_sampler(6000 + d, d)
            for sf in pool:
                B = b_blocks(sf.material, sf.plus.U)
                for _ in range(5):
                    lam, xi = sample()
                    beta = complex(stable_beta_values(sf, lam, xi))
                    l = formula_left_eigenvector(sf, B, lam, xi, beta)
                    cal = assemble_calA(sf, B, lam, xi)
                    assert np.linalg.norm(l @ cal - beta * l) <= 1e-10 * np.linalg.norm(l)
                    stable, cluster = hersh_counts(sf, B, lam, xi)
                    assert stable == 1
                    assert cluster == d * d - d
                    jump_sig = stress_jump(sf)
                    K = jump_vector(sf, jump_sig, lam, xi)
                    hat = delta_hat_assembled(sf, B, jump_sig, xi, beta)
                    recovered = complex(l @ K) / (lam + beta * sf.speed)
                    assert abs(recovered - hat) <= 1e-10 * (1.0 + abs(hat))
                    total += 1
        assert total >= 150, total


def test_criterion_07_tensor_identities():
    with criterion(7, "tensor identities against finite differences and dense eig"):
        rng = random.Random(77)
        for d in (2, 3, 4):
            for _ in range(50):
                sf = random_shock(rng, d)
                m, U = sf.material, sf.plus.U
                fd = fd_check_suite(m, U, b_blocks(m, U))
                assert fd["hessian_vs_btensor"] <= 1e-5
                assert fd["cofactor_derivative"] <= 1e-6
                xi = np.array([rng.gauss(0.0, 1.0) for _ in range(d)])
                spec = acoustic_spectrum(m, U, xi)
                Q = acoustic_tensor(m, U, xi)
                vals = np.sort(dense_eig(Q.astype(complex)).real)
                expect = np.sort(np.r_[[spec.kappa1] * (d - 1), [spec.kappa2]])
                scale = max(1.0, abs(spec.kappa2))
                assert np.abs(vals - expect).max() <= 1e-9 * scale
                assert int(np.sum(np.abs(vals - spec.kappa1) <= 1e-9 * scale)) == d - 1
                assert int(np.sum(np.abs(vals - spec.kappa2) <= 1e-9 * scale)) == 1
                prod = sf.V.T @ sf.M
                assert np.abs(prod - sf.Theta / sf.Jplus).max() <= 1e-10 * max(
                    1.0, np.abs(prod).max()
                )


def test_criterion_08_one_dimensional_stability():
    with criterion(8, "one-dimensional perturbations are uniformly stable"):
        rng = random.Random(88)
        for _ in range(50):
            d = rng.randrange(2, 5)
            sf = random_shock(rng, d)
            k2, s, th11 = sf.kappa2_plus, sf.speed, sf.theta11
            coeff = th11 * (np.sqrt(k2) - s) / (np.sqrt(k2) + s)
            phi = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05)
            lam = np.exp(1j * phi)
            val = delta_v1_values(sf, lam, np.zeros(d - 1))
            expect = coeff * lam * lam
            assert abs(val - expect) <= 1e-11 * max(1.0, abs(expect))
            assert abs(val) > 0


def test_criterion_09_negative_rho_winding(foam_shock):
    with criterion(9, "negative-rho front: winding count zero, synthetic oracle exact"):
        # independent evaluation of rho from first principles:
        # s^2 - mu = (h'(1) - h'(2)) / (-1) = 1 - 2^-5 = 31/32, theta11 = J+ = 1
        rho_direct = (31.0 / 32.0) * (1.0 + 1.0) - 5.0
        assert rho_direct == -3.0625
        assert foam_shock.rho == pytest.approx(rho_direct, rel=1e-14)
        for R in (5.0, 20.0, 100.0):
            assert winding(foam_shock, [1.0], R) == 0
        assert winding_number(lambda w: w - 0.5, 2.0) == 1
        assert winding_number(lambda w: w + 0.5, 2.0) == 0


def test_criterion_10_negative_control():
    with criterion(10, "no interior zeros across the verify suite"):
        report = verify_suite(seed=2024, scenarios=50, dims=(2, 3, 4))
        assert report["ok"], report.get("first_failure")
        assert report["checks"]["interior_nonvanishing"]["max_err"] == 0.0
        assert report["checks"]["winding_interior_zeros"]["max_err"] == 0.0
        assert report["checks"]["interior_nonvanishing"]["count"] >= 150
