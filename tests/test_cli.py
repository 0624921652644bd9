import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadshock
from hadshock import lopatinskii, materials, shock
from hadshock.classifier import reference_delta
from hadshock.cli import _csv_cell, main, to_json
from hadshock.errors import VerificationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_material_list(capsys):
    code, out = run(capsys, "material", "list")
    assert code == 0
    assert len(json.loads(out)["models"]) == 8


def test_material_check_cg(capsys):
    code, out = run(capsys, "material", "check", "--name", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["h2_positive"] and rep["h3_negative"]
    assert rep["free_stress"] and rep["bulk_relation"]
    assert rep["all_ok"]


def test_material_check_ogden_hill_fails(capsys):
    code, out = run(capsys, "material", "check", "--name", "ogden-hill",
                    "--mu", "1", "--b", "0.5", "--dim", "3")
    assert code == 4
    rep = json.loads(out)
    assert not rep["h3_negative"]
    assert not rep["free_stress"]


SHOCK_REPORT_KEYS = [
    "material", "alpha", "alpha_max", "speed", "J_plus", "J_minus",
    "U_plus", "U_minus", "v_plus", "v_minus", "V", "theta", "Theta", "M",
    "kappa2_plus", "kappa2_minus", "rho", "tau", "lax",
]


def test_shock_report_values(capsys):
    code, out = run(capsys, "shock", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "-0.3")
    assert code == 0
    rep = json.loads(out)
    assert list(rep.keys()) == SHOCK_REPORT_KEYS  # pinned schema
    assert rep["speed"] == pytest.approx(-1.664101, abs=1e-6)
    assert rep["rho"] == pytest.approx(0.3, rel=1e-12)
    assert rep["lax"]["ok"] is True
    assert "-1.6641005886756874" in out  # 17 significant digits


def test_shock_domain_errors(capsys):
    code, _ = run(capsys, "shock", "--material", "ciarlet-geymonat",
                  "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "0.5")
    assert code == 3
    code, _ = run(capsys, "shock", "--material", "ciarlet-geymonat",
                  "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "1.5")
    assert code == 3


def test_config_errors(capsys, tmp_path):
    code, _ = run(capsys, "shock", "--material", "not-a-model", "--mu", "1",
                  "--kappa", "2", "--dim", "2", "--alpha", "-0.5")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _ = run(capsys, "shock", "--config", str(bad), "--alpha", "-0.5")
    assert code == 2
    code, _ = run(capsys, "shock", "--material", "ciarlet-geymonat",
                  "--mu", "1", "--kappa", "2", "--dim", "2")
    assert code == 2  # missing alpha


def test_shock_from_config_file(capsys, tmp_path):
    cfg = {
        "material": {"name": "ciarlet-geymonat", "dimension": 2, "mu": 1.0, "kappa": 2.0},
        "U_plus": [[1.0, 0.0], [0.0, 1.0]],
        "v_plus": [0.0, 0.0],
        "alpha": -0.3,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    code, out = run(capsys, "shock", "--config", str(path))
    assert code == 0
    assert json.loads(out)["J_minus"] == pytest.approx(1.3)


def test_classify_commands(capsys):
    code, out = run(capsys, "classify", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "-0.3")
    assert code == 0
    assert json.loads(out)["kind"] == "uniform"
    code, out = run(capsys, "classify", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "-8")
    assert code == 0
    rep = json.loads(out)
    assert list(rep.keys()) == ["kind", "rho", "min_criterion", "witness", "diagnostics"]
    assert rep["kind"] == "weak"
    assert rep["witness"]["t_root"] == pytest.approx(2.0544972097255703, rel=1e-9)
    assert rep["witness"]["xi_t"] == [-1.0]  # lexicographic tie-break at equal minima
    assert "lax_margins" in rep["diagnostics"]
    code, out = run(capsys, "classify", "--material", "blatz",
                    "--mu", "1", "--kappa", "1", "--dim", "3", "--alpha", "-5")
    assert code == 0
    assert json.loads(out)["kind"] == "uniform"


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2",
                    "--alpha-range=-5,-0.1", "--steps", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,rho,min_criterion,verdict"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 30
    alphas = [float(r[0]) for r in rows]
    rhos = [float(r[1]) for r in rows]
    verdicts = [r[3] for r in rows]
    # rho = -(kappa - mu) alpha strictly decreasing in alpha
    assert all(a < b for a, b in zip(rhos[1:], rhos[:-1]))
    flips = [
        (alphas[i], alphas[i + 1])
        for i in range(len(rows) - 1)
        if verdicts[i] != verdicts[i + 1]
    ]
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo < -2.302775637731995 < hi


def test_material_check_from_config(capsys, tmp_path):
    cfg = {"name": "simo-miehe", "dimension": 3, "mu": 1.0, "kappa": 2.0}
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(cfg))
    code, out = run(capsys, "material", "check", "--config", str(path))
    assert code == 4  # free-stress condition fails for this form
    assert json.loads(out)["free_stress"] is False


def test_sweep_json_format(capsys):
    code, out = run(capsys, "sweep", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2",
                    "--alpha-range=-1,-0.5", "--steps", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert all(r["verdict"] == "uniform" for r in rows)
    assert rows[0]["alpha"] == pytest.approx(-1.0)


def test_sweep_blatz_all_uniform(capsys):
    code, out = run(capsys, "sweep", "--material", "blatz",
                    "--mu", "1", "--kappa", "2", "--dim", "3",
                    "--alpha-range=-4,-0.2", "--steps", "10")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert all(r[3] == "uniform" for r in rows)
    assert all(abs(float(r[1])) <= 1e-12 for r in rows)


def test_grid_csv_and_min_modulus(capsys):
    code, out = run(capsys, "grid", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "-0.3",
                    "--grid-re=0,2", "--grid-im=-2,2", "--grid-n", "200,200",
                    "--xi", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,delta_re,delta_im,delta_abs,delta_arg"
    mods = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert len(mods) == 40000
    assert min(mods) > 0.01


def test_grid_weak_case_minimum_on_axis(capsys):
    t_star = 2.0544972097255703
    code, out = run(capsys, "grid", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "-8",
                    "--grid-re=0,2", "--grid-im=-2.5,2.5", "--grid-n", "201,201",
                    "--xi", "1")
    assert code == 0
    rows = [[float(v) for v in ln.split(",")] for ln in out.strip().splitlines()[1:]]
    best = min(rows, key=lambda r: r[4])
    assert best[0] == 0.0  # minimum sits on the imaginary axis
    assert abs(abs(best[1]) - t_star) <= 0.03
    # zoomed grid: a node lands close enough to the root for the modulus
    # at the nearest node to drop below 1e-3
    code, out = run(capsys, "grid", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "-8",
                    "--grid-re=0,0.004", "--grid-im=2.050,2.059",
                    "--grid-n", "5,201", "--xi", "1")
    assert code == 0
    rows = [[float(v) for v in ln.split(",")] for ln in out.strip().splitlines()[1:]]
    best = min(rows, key=lambda r: r[4])
    assert best[0] == 0.0
    assert abs(best[1] - t_star) <= 5e-5
    assert best[4] <= 1e-3


def test_grid_restricted_matches_reference(capsys):
    code, out = run(capsys, "grid", "--material", "blatz",
                    "--mu", "1", "--kappa", "1", "--dim", "3", "--alpha", "-5",
                    "--grid-re=0,1", "--grid-im=-1,1", "--grid-n", "12,12",
                    "--xi", "1,0", "--restrict-gamma-tilde", "--format", "json")
    assert code == 0
    params = {"mu": 1.0, "kappa": 1.0, "alpha": -5.0}
    rows = json.loads(out)
    assert len(rows) == 144
    for row in rows:
        ref = reference_delta("Blatz3D", params, complex(row["re"], row["im"]))
        got = complex(row["delta_re"], row["delta_im"])
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


def test_grid_lambda_variable(capsys):
    code, out = run(capsys, "grid", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", "--alpha", "-0.3",
                    "--var", "lambda", "--grid-re=0.1,1", "--grid-im=-1,1",
                    "--grid-n", "8,8", "--xi", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 65


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "--seed", "5", "--scenarios", "2", "--dims", "2,3")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True


def test_deterministic_output(capsys):
    args = ("classify", "--material", "ciarlet-geymonat", "--mu", "1",
            "--kappa", "2", "--dim", "2", "--alpha", "-8")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_custom_material_config(capsys, tmp_path):
    # custom materials name a built-in h-form plus its raw coefficients
    cfg = {
        "material": {"name": "custom", "dimension": 2, "mu": 1.0,
                     "params": {"form": "ogden-foam", "c1": 2.0}},
        "U_plus": [[1.0, 0.0], [0.0, 1.0]],
        "alpha": -1.0,
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    code, out = run(capsys, "shock", "--config", str(path))
    assert code == 0
    assert json.loads(out)["rho"] == pytest.approx(-3.0625)


def test_thread_env_override(capsys, monkeypatch):
    args = ("sweep", "--material", "ciarlet-geymonat", "--mu", "1", "--kappa", "2",
            "--dim", "2", "--alpha-range=-3,-0.5", "--steps", "12")
    monkeypatch.setenv("HADSHOCK_THREADS", "1")
    _, serial = run(capsys, *args)
    monkeypatch.setenv("HADSHOCK_THREADS", "3")
    _, threaded = run(capsys, *args)
    assert serial == threaded


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _ = run(capsys, "shock", "--material", "ciarlet-geymonat", "--mu", "1",
                  "--kappa", "2", "--dim", "2", "--alpha", "-0.3", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["J_minus"] == pytest.approx(1.3)


CG2 = ("--material", "ciarlet-geymonat", "--mu", "1", "--kappa", "2", "--dim", "2")


def test_grid_n_needs_two_integers(capsys):
    code, _ = run(capsys, "grid", *CG2, "--alpha", "-1", "--grid-n", "10")
    assert code == 2


def test_non_finite_uplus_is_config_error(capsys):
    code, _ = run(capsys, "shock", *CG2, "--alpha", "-1", "--Uplus=nan,0,0,1")
    assert code == 2


def test_non_finite_vplus_is_config_error(capsys):
    code, _ = run(capsys, "shock", *CG2, "--alpha", "-1", "--vplus=0,inf")
    assert code == 2


def test_non_finite_alpha_is_config_error(capsys):
    code, _ = run(capsys, "classify", *CG2, "--alpha=nan")
    assert code == 2


def test_non_finite_config_is_config_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"material": {"name": "ciarlet-geymonat", "dimension": 2, "mu": 1.0, "kappa": 2.0},'
        ' "U_plus": [[1.0, NaN], [0.0, 1.0]], "alpha": -0.3}'
    )
    code, _ = run(capsys, "shock", "--config", str(path))
    assert code == 2


def test_overflowing_alpha_is_domain_error(capsys):
    code, _ = run(capsys, "shock", *CG2, "--alpha=-1e300")
    assert code == 3


def test_overflowing_jump_scale_is_domain_error(capsys):
    code = main(["shock", "--material=ciarlet-geymonat", "--mu=1", "--kappa=100", "--dim=2",
                 "--alpha=-1.3e154"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("AlphaOutOfRange: ") and captured.err.count("\n") == 1


def test_verification_error_exits_4(capsys, monkeypatch):
    import hadshock.cli as cli

    def fail(*args, **kwargs):
        raise VerificationError("forced")

    monkeypatch.setattr(cli.shock, "build", fail)
    code, _ = run(capsys, "shock", *CG2, "--alpha", "-1")
    assert code == 4


def _fresh_python(code, **env):
    """Stdout of ``code`` run by a fresh interpreter on this package, with the BLAS thread
    variables of this process dropped and ``env`` added."""
    src = os.path.dirname(os.path.dirname(hadshock.__file__))
    child = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    child.update(env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=child, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_verdict_path_imports_no_scipy():
    # a weak d=4 verdict with theta_1T != 0 (sphere search plus imaginary-axis
    # root), a d=4 sweep, a shock report and a grid, in a fresh interpreter:
    # none loads scipy or numpy.random
    d4 = ["--material=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=4",
          "--Uplus=1,0.3,0,0,0,1,0,0,0.2,0,1,0,0,0,0,1"]
    code = (
        "import json, sys\n"
        "from hadshock.cli import main\n"
        f"assert main(['classify', *{d4!r}, '--alpha=-3', '--out={os.devnull}']) == 0\n"
        f"assert main(['sweep', *{d4!r}, '--alpha-range=-8,-0.1', '--steps=20',"
        f" '--out={os.devnull}']) == 0\n"
        f"assert main(['shock', *{d4!r}, '--alpha=-3', '--out={os.devnull}']) == 0\n"
        f"assert main(['grid', *{d4!r}, '--alpha=-3', '--grid-n=5,5', '--out={os.devnull}']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                        or m == 'numpy.random')))\n"
    )
    assert json.loads(_fresh_python(code)) == []


def test_bare_package_import_loads_no_numpy():
    code = "import sys, hadshock; print('numpy' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


THREADS = ("import os, hadshock.cli; "
           "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_runs_one_blas_thread():
    # the idle OpenBLAS workers of a default numpy import would spin in every process
    assert _fresh_python(THREADS).split() == ["1", "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc and two CPUs")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_keeps_the_users_blas_threads(var):
    blas = "2" if var == "OPENBLAS_NUM_THREADS" else "None"
    assert _fresh_python(THREADS, **{var: "2"}).split() == [blas, "2"]


def test_jump_residual_exits_4(capsys, monkeypatch):
    def skewed(m, U):
        return materials.piola_kirchhoff(m, U) + 1e-6 * U

    monkeypatch.setattr(shock, "piola_kirchhoff", skewed)
    code, _ = run(capsys, "shock", *CG2, "--alpha", "-1")
    assert code == 4


def test_negative_sweep_steps_is_config_error(capsys):
    code, _ = run(capsys, "sweep", *CG2, "--alpha-range=-1,-0.5", "--steps=-1")
    assert code == 2


def test_overflowing_sweep_range_is_config_error(capsys):
    # hi - lo is not finite, so linspace cannot place the requested intensities
    code, out = run(capsys, "sweep", *CG2, "--alpha-range=-1e308,1e308", "--steps=3")
    assert (code, out) == (2, "")
    code, out = run(capsys, "sweep", *CG2, "--alpha-range=-1e308,-1e307", "--steps=3",
                    "--format=json")
    assert code == 0
    assert [row["alpha"] for row in json.loads(out)] == [-1e308, -5.5e307, -1e307]


@pytest.mark.parametrize("flag", ["--grid-re", "--grid-im"])
def test_overflowing_grid_range_is_config_error(capsys, flag):
    code = main(["grid", *CG2, "--alpha=-3", f"{flag}=-1e308,1e308", "--grid-n=3,3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("var", ["gamma", "lambda"])
def test_huge_grid_nodes_are_empty_cells_without_warnings(capsys, var):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["grid", *CG2, "--alpha=-3", "--grid-re=1e200,2e200", "--grid-n=2,2",
                     f"--var={var}"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 4 and all(row.endswith(",,,,") for row in rows)


def test_negative_verify_seed_is_config_error(capsys):
    code, _ = run(capsys, "verify", "--seed=-1", "--scenarios=1", "--dims=2")
    assert code == 2


@pytest.mark.parametrize("scenarios", ["0", "-1"])
def test_nonpositive_verify_scenarios_is_config_error(capsys, scenarios):
    # no scenario would run, and an empty check list would read as verified
    code, out = run(capsys, "verify", f"--scenarios={scenarios}", "--dims=2")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("argv", [
    ("material", "list"),
    ("material", "check", "--name=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=2"),
    ("shock", *CG2, "--alpha=-0.3"),
    ("classify", *CG2, "--alpha=-0.3"),
    ("verify", "--scenarios=1", "--dims=2"),
])
def test_format_is_only_taken_by_sweep_and_grid(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:  # argparse rejects the unknown option
        main([*argv, "--format=csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("alpha", [-1e4, -1e8, -1e12])
def test_strong_cg_shock_exits_0_with_closed_form_speed(capsys, alpha):
    code, out = run(capsys, "shock", *CG2, f"--alpha={alpha!r}")
    assert code == 0
    # identity base, mu = 1, kappa = 2: s^2 = kappa + mu / (1 - alpha)
    expect = 2.0 + 1.0 / (1.0 - alpha)
    assert json.loads(out)["speed"] ** 2 == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("name", ["ciarlet-geymonat", "blatz", "simo-taylor", "simo-miehe"])
@pytest.mark.parametrize("alpha", ["-1e8", "-1e12", "-1e30", "-1e100"])
def test_strong_shocks_never_fail_the_jump_check(capsys, name, alpha):
    # the jump check is relative to the terms it differences, which grow
    # with |alpha|; a Lax margin below rounding is a domain error (exit 3)
    code, _ = run(capsys, "shock", f"--material={name}", "--mu=1", "--kappa=2", "--dim=2",
                  "--Uplus=1.1,0.2,-0.1,0.9", f"--alpha={alpha}")
    assert code in (0, 3)


# the dense eigensolver takes the (d^2 + d)-dimensional symbol only up to d = 5, so a
# dimension outside 2..5 is rejected before any scenario runs
@pytest.mark.parametrize("dims", ["abc", "", "1", "2,,3", "0", "6", "2,6", "3,9"])
def test_bad_verify_dims_is_config_error(capsys, dims):
    code, out = run(capsys, "verify", f"--dims={dims}", "--scenarios=1")
    assert (code, out) == (2, "")


def test_restricted_grid_needs_nonzero_direction(capsys):
    argv = ("grid", *CG2, "--alpha=-0.3", "--grid-n=3,3", "--xi=0")
    code, out = run(capsys, *argv, "--restrict-gamma-tilde")
    assert (code, out) == (2, "")
    # the unrestricted grid at xi_t = 0 is a valid frequency and keeps its output
    code, out = run(capsys, *argv)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 9 and all(",," not in r for r in rows)


# ---------------------------------------------------------------------------
# the array grids against the per-cell loop they replaced

def _restricted_xi(sf, gamma, direction):
    """Transverse vector on the remapped hemisphere for one gamma, or None outside it."""
    k2, s = sf.kappa2_plus, sf.speed
    eta_dir = float(sf.theta[0, 1:] @ direction)
    w = np.sqrt((k2 - s * s) / k2) * gamma
    a = s * sf.h2_plus * eta_dir / k2
    A = 1.0 + a * a
    B = -2.0 * a * w.imag
    C = abs(w) ** 2 - 1.0
    disc = B * B - 4.0 * A * C
    if disc < 0:
        return None
    for mroot in ((-B + np.sqrt(disc)) / (2 * A), (-B - np.sqrt(disc)) / (2 * A)):
        if mroot >= 0:
            return mroot * direction
    return None


def _reference_grid(sf, var, restrict, xi, res, ims, fmt):
    """Grid text from the kernels called on one node at a time."""
    nan = complex(np.nan, np.nan)
    records = []
    for im in ims:
        for re, g in zip(res, res + 1j * im):
            if var == "lambda":
                v = lopatinskii.delta_v1_values(sf, g, xi)  # NaN at the zero frequency
            elif restrict:
                xt = _restricted_xi(sf, complex(g), xi / np.linalg.norm(xi))
                v = nan if xt is None else lopatinskii.delta_v2_values(sf, g, xt)
            else:
                v = lopatinskii.delta_v2_values(sf, g, xi)
            v = complex(v)
            records.append((float(re), float(im), v.real, v.imag, abs(v), float(np.angle(v))))
    keys = ("re", "im", "delta_re", "delta_im", "delta_abs", "delta_arg")
    if fmt == "json":
        return to_json([dict(zip(keys, r)) for r in records]) + "\n"
    return "\n".join([",".join(keys)] + [",".join(_csv_cell(x) for x in r) for r in records]) + "\n"


FOAM4 = ("--material=ogden-foam", "--mu=1", "--c1=2", "--dim=4",
         "--Uplus=1,0.3,0,0,0,1,0,0,0.2,0,1,0,0,0,0,1", "--alpha=-2")
BLATZ3 = ("--material=blatz", "--mu=1", "--kappa=1", "--dim=3", "--alpha=-5")


def _grid_case(capsys, scenario, var, restrict, xi, re, im, n, fmt):
    argv = ["grid", *scenario, f"--var={var}", f"--xi={xi}", f"--grid-re={re}",
            f"--grid-im={im}", f"--grid-n={n}", f"--format={fmt}"]
    if restrict:
        argv.append("--restrict-gamma-tilde")
    code, out = run(capsys, *argv)
    assert code == 0
    args = hadshock.cli.build_parser().parse_args(argv)
    m, state, alpha = hadshock.cli._scenario_from_args(args)
    sf = shock.build(m, state, alpha)
    (r0, r1), (i0, i1) = hadshock.cli._parse_range(re), hadshock.cli._parse_range(im)
    n_re, n_im = (int(v) for v in n.split(","))
    xi_vec = np.array([float(v) for v in xi.split(",")])
    ref = _reference_grid(sf, var, restrict, xi_vec, np.linspace(r0, r1, n_re),
                          np.linspace(i0, i1, n_im), fmt)
    return out, ref


LAMBDA_CASES = [
    # --grid-re=-0,1 starts at Re = +0.0 (linspace adds the start to 0 * step) and has a
    # node at lambda = 0; GAMMA_CASES below puts -0.0 on the axis
    (CG2 + ("--alpha=-3",), "0.7", "-0,1", "-1,1", "7,5"),
    (CG2 + ("--alpha=-1",), "0", "-0,1", "-1,1", "3,3"),
    (FOAM4, "0.3,-0.2,0.5", "0,1", "-1,1", "6,6"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", LAMBDA_CASES)
def test_lambda_grid_equals_per_cell_loop(capsys, case, fmt):
    scenario, xi, re, im, n = case
    out, ref = _grid_case(capsys, scenario, "lambda", False, xi, re, im, n, fmt)
    assert out == ref


RESTRICTED_CASES = [
    # the window reaches past the hemisphere, so some cells are empty; in the
    # sheared d=3 case some of them have a real but negative magnitude root
    (BLATZ3, "1,0", "0,1.5", "-1.5,1.5", "9,9"),
    (FOAM4, "0.3,-0.2,0.5", "-1,1", "-1,1", "11,11"),
    (("--material=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=3",
      "--Uplus=1,0.9,0,0,1,0,0,0,1", "--alpha=-2"), "1,0", "0,3", "-3,3", "13,13"),
]


@pytest.mark.parametrize("case", RESTRICTED_CASES)
def test_restricted_grid_equals_per_cell_loop(capsys, case):
    scenario, xi, re, im, n = case
    out, ref = _grid_case(capsys, scenario, "gamma", True, xi, re, im, n, "csv")
    assert out == ref
    # the array kernel rounds as its scalar batch of one does, so JSON's 17
    # digits agree too
    out, ref = _grid_case(capsys, scenario, "gamma", True, xi, re, im, n, "json")
    assert out == ref
    assert "null" in ref


GAMMA_CASES = [
    # Re runs down to -0.0 (linspace keeps the sign of its endpoint only: a start of -0
    # gives +0), which CSV prints as "-0" and JSON as 0; the odd Im axis has a node at 0
    (CG2 + ("--alpha=-3",), "1", "1,-0", "-1,1", "5,3"),
    (FOAM4, "0.3,-0.2,0.5", "0,2", "-2,2", "6,7"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", GAMMA_CASES)
def test_gamma_grid_equals_per_cell_loop(capsys, case, fmt):
    scenario, xi, re, im, n = case
    out, ref = _grid_case(capsys, scenario, "gamma", False, xi, re, im, n, fmt)
    assert out == ref
    if re == "1,-0":
        if fmt == "csv":
            assert [r.split(",")[:2] for r in out.splitlines()[1:] if r.startswith("-")] == [
                ["-0", "-1"], ["-0", "0"], ["-0", "1"]]
        else:
            cells = json.loads(out)
            assert [(c["re"], c["im"]) for c in cells[4::5]] == [(0, -1), (0, 0), (0, 1)]
            assert "-0," not in out and '"im": 0,' in out


def test_lambda_grid_zero_frequency_is_empty_cell(capsys):
    code, out = run(capsys, "grid", *CG2, "--alpha=-1", "--var=lambda", "--xi=0",
                    "--grid-re=0,1", "--grid-im=-1,1", "--grid-n=3,3")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows[3] == "0,0,,,,"
    assert all(",," not in r for i, r in enumerate(rows) if i != 3)
    code, out = run(capsys, "grid", *CG2, "--alpha=-1", "--var=lambda", "--xi=0",
                    "--grid-re=0,1", "--grid-im=-1,1", "--grid-n=3,3", "--format=json")
    assert code == 0
    cell = json.loads(out)[3]
    assert cell == {"re": 0, "im": 0, "delta_re": None, "delta_im": None,
                    "delta_abs": None, "delta_arg": None}


# ---------------------------------------------------------------------------
# negative values after a space, and a fuzz over argument vectors

@pytest.mark.parametrize("argv", [
    ("shock", *CG2, "--alpha", "-1e-2"),
    ("sweep", *CG2, "--steps=3", "--alpha-range", "-5,-0.1"),
    ("grid", *CG2, "--alpha=-3", "--grid-n=3,3", "--grid-im", "-1,1"),
])
def test_negative_value_after_space_reads_as_equals_form(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")


FUZZ_FLAGS = {  # mostly admissible values, some out of range, a few malformed
    "--material": ("ciarlet-geymonat", "blatz", "ogden-foam", "ogden-hill", "simo-miehe", "nosuch"),
    "--dim": ("2", "3", "4", "1", "x"),
    "--mu": ("1", "0.5", "2", "1e-3", "0", "-1"),
    "--kappa": ("2", "1", "0.5", "5", "-2"),
    "--c1": ("1", "2", "-1"),
    "--b": ("0.5", "1", "-1"),
    "--alpha": ("-0.3", "-1e-2", "-8", "-2", "0.5", "-1e-14", "-1e8", "-1e12", "-1e300", "nan",
                "abc"),
    "--Uplus": ("identity", "1,0,0,1", "1,0.3,0,1", "0,0,0,0", "-1,0,0,1", "1,2",
                "1,0,0,0,1,0,0,0,1"),
    "--vplus": ("zero", "1,0", "0.5,-0.2", "x,y"),
    "--alpha-range": ("-3,-0.1", "-5,-0.1", "-1e-2,-1e-3", "0.1,0.5", "-1,1", "1,2,3",
                      "-1e308,1e308", "-2,0.5", "-0.5,3", "0.5,2"),
    "--steps": ("0", "1", "3", "-1"),
    "--grid-re": ("0,2", "-1,1", "0,0", "1,2,3"),
    "--grid-im": ("-1,1", "-2,2", "0,0", "x"),
    "--grid-n": ("3,3", "2,2", "4,3", "1,1", "3,x"),
    "--xi": ("1", "1,0", "0", "0,0", "nan", "0.3,-0.2,0.5"),
    "--var": ("gamma", "lambda"),
    "--format": ("json", "csv", "xml"),
    "--seed": ("0", "3", "-1"),
    "--scenarios": ("0", "1", "-1", "-7"),
    "--dims": ("2", "3", "2,3", "1", "6", "abc"),
}
FUZZ_FLAGS["--name"] = FUZZ_FLAGS["--material"]
MATERIAL = ("--material", "--dim", "--mu", "--kappa", "--c1", "--b")
STATE = MATERIAL + ("--Uplus", "--vplus")
SCENARIO = ("--material=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=2", "--alpha=-0.5")
FUZZ_COMMANDS = {  # a valid command and the flags it takes; fuzzed flags come after and win
    ("material", "check"): (("--name=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=2"),
                            ("--name",) + MATERIAL[1:]),
    ("material", "list"): ((), ()),
    ("shock",): (SCENARIO, STATE + ("--alpha",)),
    ("classify",): (SCENARIO, STATE + ("--alpha",)),
    ("sweep",): (SCENARIO[:-1] + ("--alpha-range=-3,-0.1", "--steps=3"),
                 STATE + ("--alpha-range", "--steps", "--format")),
    ("grid",): (SCENARIO + ("--grid-n=3,3",),
                STATE + ("--alpha", "--var", "--grid-re", "--grid-im", "--grid-n", "--xi",
                         "--format")),
    ("verify",): (("--scenarios=1", "--dims=2"), ("--seed", "--scenarios", "--dims")),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    base, flags = FUZZ_COMMANDS[command]
    argv = [*command, *base]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)) if flags else ():
        value = draw(st.sampled_from(FUZZ_FLAGS[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    extra = draw(st.sampled_from([None] * 5 + ["--restrict-gamma-tilde", "--bogus", "-x", "-1"]))
    return argv if extra is None else argv + [extra]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument vector
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
