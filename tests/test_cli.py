import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadshock
from hadshock import cli, lopatinskii, shock
from hadshock.cli import COMMANDS, _csv_cell, build_parser, main, to_json
from hadshock.errors import ConfigError, VerificationError
from hadshock.oracle import cg_alpha_star, reference_delta


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


@pytest.mark.parametrize("cfg", [
    '[1, 2]', '"abc"', '{"material": 5}', '{"material": null}',
    '{"material": {"name": "blatz", "params": [1]}}', '{"material": {"name": ["blatz"]}}',
    '{"material": {"name": "custom", "params": {"form": "blatz"}}}'])
@pytest.mark.parametrize("command", [["shock", "--alpha=-0.5"], ["material", "check"]])
def test_config_of_the_wrong_json_shape_is_config_error(capsys, tmp_path, cfg, command):
    # the file, its material and the material's params must be objects, the name a string
    # that names a catalog law ("custom" names none)
    path = tmp_path / "cfg.json"
    path.write_text(cfg)
    code = main([*command, f"--config={path}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


def test_help_says_what_the_commands_do_and_the_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "{material,shock,classify,sweep,grid,verify}" in text
    for command in ("material", "shock", "classify", "sweep", "grid", "verify"):
        assert f"\n    {command} " in text  # each with its help line
    for code in ("0 ok", "2 configuration error", "3 domain error", "4 verification failure"):
        assert code in text
    for note in ("OPENBLAS", "gc.freeze", "os._exit", "HADSHOCK_THREADS"):
        assert note not in text


def test_positive_alpha_classify_is_uniform_and_quiet(capsys):
    code = main(["classify", "--material=bischoff-arruda-grosh", "--mu=1", "--cbar=2", "--b=1.5",
                 "--dim=2", "--Uplus=1.5,0;0,1", "--alpha=0.2"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    report = json.loads(captured.out)
    assert (report["kind"], report["min_criterion"]) == ("uniform", None)
    assert report["rho"] < 0


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


def test_classify_at_the_threshold_reports_marginal(capsys):
    # at the exact 2-D CG threshold the minimum is rounding noise inside the +/-1e-10 band:
    # weak, flagged marginal; a weak front off the threshold has no marginal key
    flags = ("classify", "--material=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=2")
    code, out = run(capsys, *flags, f"--alpha={float(cg_alpha_star(1.0, 2.0))!r}")
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["kind", "rho", "min_criterion", "witness", "marginal", "diagnostics"]
    assert rep["kind"] == "weak" and rep["marginal"] is True
    assert rep["min_criterion"] == pytest.approx(-1.78e-15, rel=0.01)
    code, out = run(capsys, *flags, "--alpha=-8")
    assert code == 0
    assert "marginal" not in json.loads(out)


@pytest.mark.parametrize("alpha", ["-1e6", "-1e9", "-1e12", "-1e13"])
def test_classify_strong_weak_front(capsys, alpha):
    # the witness root is checked relative to the size of its terms, which grow with |alpha|
    code, out = run(capsys, "classify", "--material", "ciarlet-geymonat",
                    "--mu", "1", "--kappa", "2", "--dim", "2", f"--alpha={alpha}")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "weak"
    w = rep["witness"]
    params = {"mu": 1.0, "kappa": 2.0, "alpha": float(alpha)}
    value = reference_delta("CG2D", params, 1j * w["t_root"], w["xi_t"])
    assert abs(value) <= 2e-15 * abs(rep["min_criterion"])


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
    # a config names its catalog law and gives the law's raw coefficients as params
    cfg = {
        "material": {"name": "ogden-foam", "dimension": 2, "mu": 1.0, "params": {"c1": 2.0}},
        "U_plus": [[1.0, 0.0], [0.0, 1.0]],
        "alpha": -1.0,
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    code, out = run(capsys, "shock", "--config", str(path))
    assert code == 0
    assert json.loads(out)["rho"] == pytest.approx(-3.0625)


def test_sweep_is_deterministic(capsys):
    args = ("sweep", "--material", "ciarlet-geymonat", "--mu", "1", "--kappa", "2",
            "--dim", "2", "--alpha-range=-3,-0.5", "--steps", "12")
    _, serial = run(capsys, *args)
    _, threaded = run(capsys, *args)
    assert serial == threaded


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _ = run(capsys, "shock", "--material", "ciarlet-geymonat", "--mu", "1",
                  "--kappa", "2", "--dim", "2", "--alpha", "-0.3", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["J_minus"] == pytest.approx(1.3)


CG2 = ("--material", "ciarlet-geymonat", "--mu", "1", "--kappa", "2", "--dim", "2")


@pytest.mark.parametrize("argv", [
    ("grid", *CG2, "--alpha=-3", "--grid-n=7,5"),
    ("grid", *CG2, "--alpha=-3", "--grid-n=7,5", "--format=json"),
    ("sweep", *CG2, "--alpha-range=-9,-0.1", "--steps=7"),
    ("shock", *CG2, "--alpha=-1"),
])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, out = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, f"--out={target}") == (code, "")
    assert code == 0 and target.read_bytes() == out.encode()


def _grid_peak(argv):
    """The tracemalloc peak of main(argv), after a warm-up run, with stdout discarded."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert main(argv) == 0  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_grid_text_is_never_held_whole():
    # a 200 x 200 JSON grid is 7.5 MB of text; it is written one Im row at a time
    assert _grid_peak(["grid", *CG2, "--alpha=-3", "--grid-n=200,200", "--format=json"]) < 8 * 2**20


def test_grid_memory_does_not_grow_with_the_im_rows():
    # the kernels run on GRID_BLOCK_CELLS cells at a time, so ten times the Im rows add only
    # their axis text (about 56 kB); the whole 200 x 400 restricted grid at once adds 10 MB
    argv = ["grid", "--material=blatz", "--mu=1", "--kappa=1", "--dim=3", "--alpha=-5",
            "--xi=1,0", "--restrict-gamma-tilde"]
    peaks = [_grid_peak(argv + [f"--grid-n=200,{n_im}"]) for n_im in (40, 400)]
    assert peaks[1] - peaks[0] < 200_000


# (argv, n_re, n_im, text an empty cell leaves) of a CSV, a JSON, a restricted and a lambda
# grid, the last two with empty cells: outside the remapped hemisphere, at the zero frequency
BLOCK_CASES = [
    (("grid", *CG2, "--alpha=-3", "--grid-n=7,5"), 7, 5, None),
    (("grid", *CG2, "--alpha=-8", "--grid-n=7,5", "--format=json"), 7, 5, None),
    (("grid", "--material=blatz", "--mu=1", "--kappa=1", "--dim=3", "--alpha=-5", "--xi=1,0",
      "--restrict-gamma-tilde", "--grid-re=0,2", "--grid-n=9,7"), 9, 7, ",,,,"),
    (("grid", *CG2, "--alpha=-1", "--var=lambda", "--xi=0", "--grid-re=0,1", "--grid-im=-1,1",
      "--grid-n=3,5", "--format=json"), 3, 5, "null"),
]


@pytest.mark.parametrize("argv, n_re, n_im, empty", BLOCK_CASES,
                         ids=["csv", "json", "restricted", "lambda"])
def test_grid_bytes_do_not_depend_on_the_block(capsys, monkeypatch, argv, n_re, n_im, empty):
    # one Im row per block, two (the last block short), and the whole grid at once
    outs = [run(capsys, *argv)]
    for cells in (1, 2 * n_re, n_re * n_im):
        monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", cells)
        outs.append(run(capsys, *argv))
    assert outs[0][0] == 0 and all(out == outs[0] for out in outs)
    assert empty is None or empty in outs[0][1]


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


def _identity_times(scale, d):
    return ",".join(repr(float(x)) for x in (scale * np.eye(d)).ravel())


@pytest.mark.parametrize("argv", [
    # |V1|^2 = 1e-426 underflows to 0, so alpha_max = J+ / |V1|^2 has no value
    ("shock", "--material=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=4",
     f"--Uplus={_identity_times(1e-71, 4)}", "--alpha=-1"),
    # h''(J+) overflows in cosh
    ("shock", "--material=bischoff-arruda-grosh", "--mu=1", "--cbar=1", "--b=300", "--dim=2",
     "--Uplus=2,0,0,2", "--alpha=0.1"),
    # det U+ overflows
    ("shock", "--material=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=3",
     f"--Uplus={_identity_times(1e154, 3)}", "--alpha=-1"),
    # h''(J+) = kappa2+ = inf at J+ = 1e-160, so rho would be NaN
    ("classify", "--material=blatz", "--mu=1", "--kappa=2", "--dim=2",
     "--Uplus=1e-80,0,0,1e-80", "--alpha=-1.5e9"),
    ("sweep", "--material=blatz", "--mu=1", "--kappa=2", "--dim=2",
     "--Uplus=1e-80,0,0,1e-80", "--alpha-range=-1e10,-1e9", "--steps=3"),
])
def test_extreme_base_state_exits_3_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("AlphaOutOfRange: ") and captured.err.count("\n") == 1


def test_overflowing_criterion_ends_as_error_rows(capsys):
    # h''(J+) is about 1e155, so h''(J+)^2 overflows: no row may raise OverflowError
    code = main(["sweep", "--material=ogden-foam", "--mu=313.5", "--c1=31.43", "--dim=7",
                 f"--Uplus={_identity_times(0.22477467, 7)}", "--alpha-range=-10,-0.001",
                 "--steps=5"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 5 and all(r.endswith(",error:AlphaOutOfRange") for r in rows)


def test_verification_error_exits_4(capsys, monkeypatch):
    import hadshock.cli as cli

    def fail(*args, **kwargs):
        raise VerificationError("forced")

    monkeypatch.setattr(cli.shock, "build", fail)
    code, _ = run(capsys, "shock", *CG2, "--alpha", "-1")
    assert code == 4


def _fresh_run(code, stdout=subprocess.PIPE, **env):
    """``code`` run to its end by a fresh interpreter on this package, with the BLAS thread
    variables and PYTHONUNBUFFERED of this process dropped and ``env`` added, its stdout
    going to ``stdout``: its exit code, stdout and stderr."""
    src = os.path.dirname(os.path.dirname(hadshock.__file__))
    child = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONUNBUFFERED")}
    child.update(env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=child, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def _fresh_python(code, **env):
    """Stdout of ``code`` run by a fresh interpreter (_fresh_run), which must exit 0."""
    done = _fresh_run(code, **env)
    done.check_returncode()
    return done.stdout


# runs hadshock.cli as ``python -m hadshock.cli`` does, after registering an atexit probe
AS_SCRIPT = ("import atexit, os, runpy, sys\n"
             "atexit.register(os.write, 2, b'interpreter teardown ran\\n')\n"
             "sys.argv = ['hadshock', *{argv!r}]\n"
             "runpy.run_module('hadshock.cli', run_name='__main__', alter_sys=True)\n")


@pytest.mark.parametrize("argv", [
    ("shock", *CG2, "--alpha=-1"),
    ("sweep", *CG2, "--alpha-range=-9,-0.1", "--steps=7", "--format=json"),
    ("grid", *CG2, "--alpha=-3", "--grid-n=4,3"),
    ("shock", "--material=nosuch", "--alpha=-1"),  # exit 2
    ("shock", *CG2, "--alpha=1"),  # exit 3
    ("material", "check", "--name=ogden-hill", "--mu=1", "--b=0.5", "--dim=3"),  # exit 4
])
def test_script_ends_without_teardown(capsys, argv):
    # the script path flushes and leaves by os._exit: no atexit handler runs, and output
    # and exit code are those of main(argv) in this process
    code = main(list(argv))
    want = capsys.readouterr()
    done = _fresh_run(AS_SCRIPT.format(argv=list(argv)))
    assert (done.returncode, done.stdout, done.stderr) == (code, want.out, want.err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("shock", *CG2, "--alpha=-1"),
    ("grid", *CG2, "--alpha=-3", "--grid-n=3,3"),
    ("grid", *CG2, "--alpha=-3", "--grid-n=200,200", "--format=json"),
])
def test_script_write_error_exits_2_with_one_line(argv):
    # stdout is block-buffered, so a small report fails only when it is flushed: _emit
    # flushes, main reports the error, and nothing is left for the interpreter to report
    with open("/dev/full", "w") as full:
        done = _fresh_run(AS_SCRIPT.format(argv=list(argv)), stdout=full)
    assert done.returncode == 2
    assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1


def test_installed_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hadshock"]
    with open(main.__code__.co_filename) as fh:
        tree = ast.parse(fh.read())
    (main_block,) = [node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'"]
    (call,) = main_block.body
    assert target == "hadshock.cli:" + ast.unparse(call.value.func)


def test_verdict_path_imports_no_scipy():
    # a weak d=4 verdict with theta_1T != 0 (sphere search plus imaginary-axis
    # root), a d=4 sweep, a shock report and the CSV, JSON, restricted and lambda
    # grids, in a fresh interpreter: none loads scipy, numpy.random or numpy.ma, nor
    # dataclasses or copy (the records are plain classes)
    d4 = ["--material=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=4",
          "--Uplus=1,0.3,0,0,0,1,0,0,0.2,0,1,0,0,0,0,1"]
    code = (
        "import json, sys\n"
        "from hadshock.cli import main\n"
        f"assert main(['classify', *{d4!r}, '--alpha=-3', '--out={os.devnull}']) == 0\n"
        f"assert main(['sweep', *{d4!r}, '--alpha-range=-8,-0.1', '--steps=20',"
        f" '--out={os.devnull}']) == 0\n"
        f"assert main(['shock', *{d4!r}, '--alpha=-3', '--out={os.devnull}']) == 0\n"
        f"for extra in ([], ['--format=json'], ['--restrict-gamma-tilde'], ['--var=lambda']):\n"
        f"    assert main(['grid', *{d4!r}, '--alpha=-3', '--grid-n=5,5', *extra,"
        f" '--out={os.devnull}']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                        or m in ('numpy.random', 'numpy.ma', 'dataclasses', 'copy'))))\n"
    )
    assert json.loads(_fresh_python(code)) == []


def test_verify_loads_neither_numpy_random_nor_openssl():
    # verify draws from random.Random; numpy.random would load nine extension modules and
    # OpenSSL's libcrypto (through secrets, hmac and _hashlib)
    code = (
        "import json, sys\n"
        "from hadshock.cli import main\n"
        f"assert main(['verify', '--seed=7', '--scenarios=2', '--dims=2',"
        f" '--out={os.devnull}']) == 0\n"
        "print(json.dumps(sorted(m for m in ('numpy.random', '_hashlib') if m in sys.modules)))\n"
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


# the collector's switch and freeze count after the import, then whether a cycle made
# afterwards is collected
GC_STATE = ("import gc, weakref\n"
            "{before}"
            "import hadshock.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
            "class Node: pass\n"
            "node = Node(); node.self = node; alive = weakref.ref(node); del node\n"
            "gc.collect()\n"
            "print(alive() is None)\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_import_freezes_and_keeps_the_gc_switch(enabled):
    # the objects the import made are frozen out of every later collection, the collector is
    # left on or off as it was, and garbage made afterwards is still collected
    before = "" if enabled else "gc.disable()\n"
    assert _fresh_python(GC_STATE.format(before=before)).split() == [str(enabled), "True", "True"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc and two CPUs")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_keeps_the_users_blas_threads(var):
    blas = "2" if var == "OPENBLAS_NUM_THREADS" else "None"
    assert _fresh_python(THREADS, **{var: "2"}).split() == [blas, "2"]


def test_jump_residual_exits_4(capsys, monkeypatch):
    stress_column = shock._stress_column

    def skewed(m, U, J, v1):  # sigma e1 of both states moved by 1e-6 U e1
        return stress_column(m, U, J, v1) + 1e-6 * U[..., 0]

    monkeypatch.setattr(shock, "_stress_column", skewed)
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


LEAF_ARGV = [
    ("material", "check", "--name=ciarlet-geymonat", "--mu=1", "--kappa=2", "--dim=2"),
    ("material", "list", "--out=report.json"),
    ("shock", *CG2, "--alpha", "-0.3", "--vplus=0.5,-0.2"),
    ("classify", *CG2, "--alpha=-0.3", "--Uplus=1,0.3,0,1"),
    ("sweep", *CG2, "--alpha-range", "-3,-0.1", "--steps=3", "--format=json"),
    ("grid", *CG2, "--alpha=-3", "--grid-n=3,3", "--xi=0.5", "--restrict-gamma-tilde"),
    ("verify", "--seed=4", "--scenarios=1", "--dims=2"),
]


@pytest.mark.parametrize("argv", LEAF_ARGV)
def test_the_named_commands_parser_parses_as_the_full_one(argv):
    one, full = build_parser(argv), build_parser()
    assert list(one._subparsers._group_actions[0].choices) == [argv[0]]  # one subparser
    assert one.parse_args(argv) == full.parse_args(argv)


def _parse_exit(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["shock", "--alpha=x"], ["sweep", *CG2], ["shock", "--bogus"],
    ["material"], *([name, "--help"] for name, *_ in COMMANDS),
])
def test_the_named_commands_parser_prints_as_the_full_one(argv):
    # help and usage errors, whose usage line names every command, are the same
    assert _parse_exit(build_parser(argv), argv) == _parse_exit(build_parser(), argv)


@pytest.mark.parametrize("x", [1.5, -0.0, 2.0**-1074, 1e300, np.inf, -np.inf, np.nan])
def test_float_and_float64_cells_are_the_same(x):
    finite = math.isfinite(x)
    assert _csv_cell(np.float64(x)) == _csv_cell(x) == (f"{x:.9g}" if finite else "")
    assert to_json(np.float64(x)) == to_json(x) == (f"{x + 0.0:.17g}" if finite else "null")


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
# dimension outside 2..5 is rejected before any scenario runs, and so is a repeated one,
# whose scenarios would share their failure contexts
@pytest.mark.parametrize("dims", ["abc", "", "1", "2,,3", "0", "9", "2,9", "3,9", "2,2", "3,2,3"])
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


FUZZ_FLAGS = {  # mostly admissible values, some out of range or extreme, a few malformed
    "--material": ("ciarlet-geymonat", "blatz", "ogden-foam", "ogden-hill", "simo-miehe", "nosuch"),
    "--dim": ("2", "3", "4", "1", "x"),
    "--mu": ("1", "0.5", "2", "1e-3", "0", "-1", "1e-71", "1e154", "1e300"),
    "--kappa": ("2", "1", "0.5", "5", "-2", "1e-300", "1e71", "1e154"),
    "--c1": ("1", "2", "-1", "1e-154", "1e71"),
    "--b": ("0.5", "1", "-1", "1e-71", "1e300"),
    "--alpha": ("-0.3", "-1e-2", "-8", "-2", "0.5", "-1e-14", "-1e8", "-1e12", "-1e300", "nan",
                "abc", "-1e-71", "-1e-154", "-1e-300", "-1e71", "-1e154", "1e-300"),
    "--Uplus": ("identity", "1,0,0,1", "1,0.3,0,1", "0,0,0,0", "-1,0,0,1", "1,2",
                "1,0,0,0,1,0,0,0,1", "1e-71,0,0,1e-71", "1e154,0,0,1e154", "1e-300,0,0,1",
                "1e300,0,0,1e-300", "1e71,0,0,0,1e71,0,0,0,1e71", _identity_times(1e-71, 4)),
    "--vplus": ("zero", "1,0", "0.5,-0.2", "x,y", "1e300,-1e300", "1e-154,0"),
    "--alpha-range": ("-3,-0.1", "-5,-0.1", "-1e-2,-1e-3", "0.1,0.5", "-1,1", "1,2,3",
                      "-1e308,1e308", "-2,0.5", "-0.5,3", "0.5,2", "-1e154,-1e-154",
                      "-1e-300,-1e-71"),
    "--steps": ("0", "1", "3", "-1"),
    "--grid-re": ("0,2", "-1,1", "0,0", "1,2,3", "0,1e154", "-1e300,1e300"),
    "--grid-im": ("-1,1", "-2,2", "0,0", "x", "-1e154,1e154", "1e-300,1e-71"),
    "--grid-n": ("3,3", "2,2", "4,3", "1,1", "3,x"),
    "--xi": ("1", "1,0", "0", "0,0", "nan", "0.3,-0.2,0.5", "1e300", "1e300,1e-300", "1e-154"),
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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument vector, with its usage
            code, parsed = exc.code, False
        else:
            parsed = True
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if parsed:  # a typed error is one stderr line and no output; a report, ok or not, none
        assert err.getvalue().count("\n") == (out.getvalue() == ""), (argv, err.getvalue())


# ---------------------------------------------------------------------------
# config files: a fuzz over their fields, and the law's dimension against U+

CONFIG_COMMANDS = (("shock",), ("classify",), ("sweep", "--alpha-range=-3,-0.1", "--steps=3"),
                   ("grid", "--grid-n=3,3"), ("material", "check"))
# admissible values are listed three times, so that a draw often builds a front
CONFIG_NAMES = ("ciarlet-geymonat", "blatz", "ogden-foam", "simo-miehe") * 3 + ("nosuch", 5,
                                                                               ["blatz"])
CONFIG_DIMS = (None, 2, 3, 4) * 3 + (1, 9, 2.5, 1e300, "x")


@st.composite
def _config(draw):
    """A config object: a material spec and optionally U_plus, v_plus and alpha."""
    dim = draw(st.sampled_from(CONFIG_DIMS))
    material = {"name": draw(st.sampled_from(CONFIG_NAMES)), "mu": 1.0, "kappa": 2.0}
    if dim is not None:
        material["dimension"] = dim
    cfg = {"material": material}
    side = dim if dim in (2, 3, 4) else 3  # U+ of the law's dimension, or of the default 3
    U = draw(st.sampled_from(("absent", "match") * 3 + ("other", "flat", "ragged", "nan", "text")))
    if U != "absent":
        n = side + 1 if U == "other" else side
        eye = (np.eye(n) + 0.1 * np.triu(np.ones((n, n)), 1)).tolist()
        cfg["U_plus"] = {"flat": sum(eye, []), "ragged": eye[:-1] + [eye[-1][:-1]],
                         "nan": eye[:-1] + [eye[-1][:-1] + [math.nan]],
                         "text": "identity"}.get(U, eye)
    v = draw(st.sampled_from(("absent", "match") * 3 + ("short",)))
    if v != "absent":
        cfg["v_plus"] = [0.1] * (side if v == "match" else side - 1)
    alpha = draw(st.sampled_from(("absent", -0.5, -8.0) * 3 + (math.nan, "x")))
    if alpha != "absent":
        cfg["alpha"] = alpha
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(CONFIG_COMMANDS), cfg=_config())
def test_cli_config_fuzz_exits_cleanly(tmp_path_factory, command, cfg):
    # every config file ends in a report or a typed error, as every flag vector does
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, f"--config={path}"])
    assert code in (0, 2, 3, 4), (cfg, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == (out.getvalue() == ""), (cfg, err.getvalue())


def test_law_of_another_dimension_than_uplus_is_config_error(capsys, tmp_path):
    # a d = 3 law with a 2 x 2 U+ is refused the same way from a config file and from flags
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps({
        "material": {"name": "ciarlet-geymonat", "dimension": 3, "mu": 1.0, "kappa": 2.0},
        "U_plus": [[1.0, 0.0], [0.0, 1.0]], "alpha": -0.3}))
    errors = []
    for argv in (["shock", f"--config={path}"],
                 ["shock", *CG2[:-1], "3", "--Uplus=1,0,0,1", "--alpha=-0.3"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        errors.append(captured.err)
    assert errors[0] == errors[1] == "config error: the law is calibrated for d = 3, but U+ is 2 x 2\n"
    m = hadshock.catalog("ciarlet-geymonat", {"d": 3, "mu": 1.0, "kappa": 2.0})
    with pytest.raises(ConfigError, match="calibrated for d = 3"):
        shock.build(m, shock.ElasticState(np.eye(2)), -0.3)


@pytest.mark.parametrize("first", ["1", "-1"])
def test_dimension_mismatch_is_config_error_whatever_the_sign_of_det(capsys, tmp_path, first):
    # a 3 x 3 U+ for a d = 2 law, with det U+ of either sign: the dimension is checked first
    path = tmp_path / "mismatch.json"
    U = [[float(first), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    path.write_text(json.dumps({"material": {"name": "ciarlet-geymonat", "dimension": 2,
                                             "mu": 1.0, "kappa": 2.0},
                                "U_plus": U, "alpha": -0.3}))
    for argv in (["shock", f"--config={path}"],
                 ["shock", *CG2, f"--Uplus={first},0,0,0,1,0,0,0,1", "--alpha=-0.3"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "config error: the law is calibrated for d = 2, but U+ is 3 x 3\n"


@pytest.mark.parametrize("command", [["shock"], ["material", "check"]])
def test_config_dimension_beyond_eight_is_config_error(capsys, tmp_path, command):
    path = tmp_path / "huge.json"
    path.write_text('{"material": {"name": "blatz", "dimension": 1e300, "mu": 1.0, "kappa": 2.0},'
                    ' "alpha": -0.3}')
    code = main([*command, f"--config={path}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("config error: dimension must lie in 2..8, got 1")
