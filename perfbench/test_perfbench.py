"""Self-tests of the benchmark: every reference check accepts the program's
output and rejects a deliberately corrupted copy of it."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import refcheck as rc
import run

HERE = Path(__file__).resolve().parent


def cli(tmp_path, argv, ext="json"):
    from hadshock.cli import main

    out = tmp_path / f"out.{ext}"
    assert main(argv + [f"--out={out}"]) == 0
    return out.read_text()


def front(seed, d, want=None):
    return inputs._front(np.random.default_rng(seed), d, inputs.Draws(), want)


def test_seeded_inputs_repeat():
    def argvs(seed):
        return [inv.argv for w in inputs.WORKLOADS for inv in inputs.make_pass(w, seed, 0, inputs.Draws())]

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)
    assert all(a.startswith("--") for argv in argvs(5) for a in argv[1:])


def test_shock_check(tmp_path):
    f = front(1, 3)
    text = cli(tmp_path, ["shock"] + rc.front_argv(f))
    assert rc.check_shock(text, f) is None
    rep = json.loads(text)
    for key, bad in (("speed", rep["speed"] * (1 + 1e-6)),
                     ("U_minus", (np.array(rep["U_minus"]) + 1e-6).tolist()),
                     ("lax", {"ok": True, "margins": [1.0, -1e-3, 1.0]})):
        assert rc.check_shock(json.dumps(dict(rep, **{key: bad})), f) is not None, key


@pytest.mark.parametrize("want", ["weak", "uniform"])
def test_classify_check(tmp_path, want):
    f = front(2, 3, want)
    text = cli(tmp_path, ["classify"] + rc.front_argv(f))
    assert rc.check_classify(text, f) is None
    rep = json.loads(text)
    flipped = dict(rep, kind="uniform" if want == "weak" else "weak")
    assert rc.check_classify(json.dumps(flipped), f) is not None
    shifted = dict(rep, min_criterion=rep["min_criterion"] + 1e-4 * max(1, abs(rep["min_criterion"])))
    assert rc.check_classify(json.dumps(shifted), f) is not None
    if want == "weak":
        bad = copy.deepcopy(rep)
        bad["witness"]["t_root"] *= 1 + 1e-6
        assert rc.check_classify(json.dumps(bad), f) is not None
        assert rc.check_classify(json.dumps({k: v for k, v in rep.items() if k != "witness"}), f)


def test_sweep_check(tmp_path):
    rng = np.random.default_rng(3)
    mat = inputs._material(rng, 3)
    a, Q = inputs._base(rng, 3)
    alphas = np.linspace(-12.0, -0.05, 12)
    fronts = [rc.Front(mat, a, Q, float(x)) for x in alphas]
    text = cli(tmp_path, ["sweep"] + rc.sweep_argv(mat, a, Q) + ["--alpha-range=-12.0,-0.05", "--steps=12"], "csv")
    assert rc.check_sweep(text, fronts) is None
    lines = text.strip().splitlines()
    row = lines[5].split(",")
    wrong_verdict = ",".join(row[:3] + ["weak" if row[3] == "uniform" else "uniform"])
    wrong_rho = ",".join([row[0], f"{float(row[1]) * 1.001:.9g}"] + row[2:])
    for bad in (lines[:5] + [wrong_verdict] + lines[6:], lines[:5] + [wrong_rho] + lines[6:], lines[:-1]):
        assert rc.check_sweep("\n".join(bad), fronts) is not None


def _corrupt_csv_cell(text, index, value):
    lines = text.strip().splitlines()
    cells = lines[index + 1].split(",")
    cells[2] = value
    lines[index + 1] = ",".join(cells)
    return "\n".join(lines)


def test_grid_checks(tmp_path):
    n = 24
    mu, kappa, alpha = 1.3, 3.1, -7.5
    re, im = (0.0, 2.0), (-2.0, 2.0)
    nodes = rc.grid_nodes(re, im, n, n)
    ref = rc.cg2d(mu, kappa, alpha, nodes)
    argv = inputs._grid_argv("ciarlet-geymonat", mu, kappa, 2, alpha, re, im, n)
    text = cli(tmp_path, argv, "csv")
    assert rc.check_grid(text, "csv", nodes, ref) is None
    assert rc.check_grid(_corrupt_csv_cell(text, 77, "0.5"), "csv", nodes, ref) is not None
    assert rc.check_grid(_corrupt_csv_cell(text, 77, ""), "csv", nodes, ref) is not None

    text = cli(tmp_path, argv + ["--format=json"])
    assert rc.check_grid(text, "json", nodes, ref) is None
    rows = json.loads(text)
    rows[13]["delta_im"] += 1e-4
    assert rc.check_grid(json.dumps(rows), "json", nodes, ref) is not None

    R = 1.2 * rc.blatz3d_radius(1.0, 1.0, -5.0)
    bnodes = rc.grid_nodes((0.0, R), (-R, R), n, n)
    bref, inside = rc.blatz3d(1.0, 1.0, -5.0, bnodes)
    text = cli(tmp_path, inputs._grid_argv("blatz", 1.0, 1.0, 3, -5.0, (0.0, R), (-R, R), n)
               + ["--restrict-gamma-tilde"], "csv")
    assert rc.check_grid(text, "csv", bnodes, bref, inside) is None
    outside = int(np.flatnonzero(inside < -1e-9)[0])
    filled = int(np.flatnonzero(inside > 1e-9)[0])
    assert rc.check_grid(_corrupt_csv_cell(text, outside, "0.25"), "csv", bnodes, bref, inside)
    assert rc.check_grid(_corrupt_csv_cell(text, filled, ""), "csv", bnodes, bref, inside)

    lnodes = rc.grid_nodes(re, im, n, n)
    lref = rc.cg2d_lambda(mu, kappa, alpha, lnodes)
    text = cli(tmp_path, argv + ["--var=lambda"], "csv")
    assert rc.check_grid(text, "csv", lnodes, lref) is None
    # the gamma-grid values are not the lambda-grid values
    assert rc.check_grid(text, "csv", nodes, ref) is not None


def test_verify_check(tmp_path):
    text = cli(tmp_path, ["verify", "--seed=4", "--scenarios=1", "--dims=2"])
    assert rc.check_verify(text, 4, 1, (2,)) is None
    rep = json.loads(text)
    assert rc.check_verify(json.dumps(dict(rep, ok=False)), 4, 1, (2,)) is not None
    bad = copy.deepcopy(rep)
    name = next(iter(bad["checks"]))
    bad["checks"][name]["max_err"] = 2 * bad["checks"][name]["tol"]
    assert rc.check_verify(json.dumps(bad), 4, 1, (2,)) is not None
    assert rc.check_verify(text, 4, 2, (2,)) is not None


def _trace(tmp_path, argv):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run([sys.executable, str(HERE / "tracer.py"), str(out)] + argv, env=env,
                   check=True, timeout=120)
    return json.loads(out.read_text())


def test_tracer_counts_repeat(tmp_path):
    argv = ["verify", "--seed=4", "--scenarios=2", "--dims=2", f"--out={tmp_path / 'v.json'}"]
    first, second = _trace(tmp_path, argv), _trace(tmp_path, argv)
    assert first["exit"] == 0 and first["hadshock_file"].startswith(str(HERE.parent / "src"))

    def counts(rep):
        return {n: (f["calls"], f["work"], f["errors"]) for n, f in rep["funcs"].items()}

    assert counts(first) == counts(second)
    funcs = first["funcs"]
    assert funcs["cli.main"]["calls"] == 1
    assert funcs["lopatinskii.winding_number"]["work"] > 0
    assert funcs["linalg.cofactor"]["calls"] > 0
    for f in funcs.values():
        assert f["self_s"] <= f["wall_s"] + 1e-9


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    trace = {"funcs": {}, "edges": {}, "threads": 1, "polish_attempts": 0, "polish_improved": 0,
             "scipy_modules": 0, "output_bytes": 0, "import_s": 0.1}
    fake = run.Result(inputs.Invocation("verify", [], "json", None, 1), None, None, wall=1.0, trace=trace)
    metrics, _ = run.trace_metrics([([fake], [fake])])
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == {k: unit for k, (_, unit) in metrics.items()}
