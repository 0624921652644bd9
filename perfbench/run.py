"""Benchmark of the hadshock command line, run as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every request is a fresh
``python -m hadshock.cli ...`` process on the checkout's ``src`` tree; one
client runs them in a closed loop, waiting for each before starting the
next.  ``HADSHOCK_THREADS`` is left unset, so the CLI picks its default
worker count.  Workloads, inputs and reference checks are in inputs.py
and refcheck.py; children are started and measured by launcher.py.

--trace 0 repeats passes of the workload (fresh seeded inputs each pass)
for at least S seconds and one whole pass, then reports the end-to-end
metrics: set-up time (median of fresh ``import hadshock.cli`` processes
spread over the run), the time of one pass at the measured rate (sum over
the pass's command kinds of each kind's mean wall time), its CPU time,
and the children's peak RSS.

--trace 1 repeats the first pass, each invocation once plainly and once
under tracer.py, as often as fits in S seconds (at least once), and
reports per-layer metrics from the traced copies: counts from the first
pass, times as medians over passes.  Counts repeat exactly for a given
seed.

Each output is checked against its reference after its clock stops.  In
the JSON result ``failed`` counts invocations that exited non-zero, timed
out or wrote a wrong output; ``correct`` is false when any output was
wrong.  The last stdout line is the JSON result; a per-kind table and
the per-layer detail go to stderr and, with every argv for replay and
the environment, to .perfbench-work/records/ in the checkout.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
TIMEOUT_S = 60.0
SETUP_PROBES = 10
IMPORT_PROBE = "import hadshock.cli, sys; sys.stdout.write(hadshock.cli.__file__)"
# imports everything any workload loads, so the bytecode cache is warm before timing
WARM_UP = "import hadshock.cli, scipy.optimize, sys; sys.stdout.write(hadshock.cli.__file__)"

END_TO_END = ("setup_s", "pass_s", "pass_cpu_s", "peak_rss_mb")
MODULES = ("cli", "shock", "classifier", "lopatinskii", "linalg", "materials", "oracle")
# modules both workloads call: their times are never zero; the others report busy shares only
TIMED_MODULES = ("cli", "shock", "linalg", "materials", "lopatinskii")
# (metric, traced function, field of the tracer's per-function totals)
FUNC_COUNTS = (
    ("cli.main.calls", "cli.main", "calls"),
    ("shock.build.calls", "shock.build", "calls"),
    ("shock.build.errors", "shock.build", "errors"),
    ("shock.freq_coeffs.calls", "shock.freq_coeffs", "calls"),
    ("classifier.classify.calls", "classifier.classify", "calls"),
    ("classifier.criterion_values.calls", "classifier.criterion_values", "calls"),
    ("classifier.criterion_values.points", "classifier.criterion_values", "work"),
    ("lopatinskii.imag_scan.calls", "lopatinskii.imag_scan", "calls"),
    ("lopatinskii.delta_v2_values.points", "lopatinskii.delta_v2_values", "work"),
    ("lopatinskii.delta_v2.calls", "lopatinskii.delta_v2", "calls"),
    ("lopatinskii.delta_v1.calls", "lopatinskii.delta_v1", "calls"),
    ("lopatinskii.stable_beta.calls", "lopatinskii.stable_beta", "calls"),
    ("lopatinskii.winding_number.calls", "lopatinskii.winding_number", "calls"),
    ("lopatinskii.winding_number.evals", "lopatinskii.winding_number", "work"),
    ("linalg.cofactor.calls", "linalg.cofactor", "calls"),
    ("materials.b_tensor.calls", "materials.b_tensor", "calls"),
    ("oracle.dense_eig.calls", "oracle.dense_eig", "calls"),
)
FUNC_TIMES = (
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.main.busy_s", "cli.main", "busy_s"),
    ("cli.main.wait_s", "cli.main", "wait_s"),
    ("shock.build.self_s", "shock.build", "self_s"),
    ("linalg.cofactor.self_s", "linalg.cofactor", "self_s"),
)
WORK_UNIT = {"sweep": "rows", "grid": "points", "verify": "scenarios"}


@dataclass
class Result:
    inv: object
    out: Path
    err: Path
    trace_path: Path = None  # set for a run under tracer.py
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    code: int = 0
    timed_out: bool = False
    error: str = None  # why the invocation failed: exit code, timeout or wrong output
    wrong: bool = False  # exited 0 but its output does not match the reference
    trace: dict = field(default=None, repr=False)


class Runner:
    """Runs one child at a time through launcher.py and records its measurements."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.count = 0
        env = dict(os.environ)
        for key in ("HADSHOCK_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
            env.pop(key, None)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         env=env, cwd=tmp, text=True)

    def close(self):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def run(self, cmd, err, stdout=os.devnull):
        req = {"cmd": cmd, "stdout": str(stdout), "stderr": str(err), "timeout": TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SystemExit(f"perfbench: launcher exited with {self.launcher.wait()}")
        r = json.loads(reply)
        return r["wall"], r["cpu"], r["maxrss_kb"], r["code"], r["timed_out"]

    def invoke(self, inv, traced=False):
        self.count += 1
        stem = self.tmp / f"{self.count:04d}"
        res = Result(inv, stem.with_suffix("." + inv.ext), stem.with_suffix(".err"))
        if traced:
            res.trace_path = stem.with_suffix(".trace")
            cmd = [sys.executable, str(HERE / "tracer.py"), str(res.trace_path)]
        else:
            cmd = [sys.executable, "-m", "hadshock.cli"]
        cmd = cmd + inv.argv + [f"--out={res.out}"]
        res.wall, res.cpu, res.rss_kb, res.code, res.timed_out = self.run(cmd, res.err)
        return res

    def probe(self, code):
        """Time a fresh interpreter running ``code``; return wall time and its stdout."""
        self.count += 1
        out = self.tmp / f"{self.count:04d}.stdout"
        err = out.with_suffix(".err")
        wall, _, _, rc, timed_out = self.run([sys.executable, "-c", code], err, out)
        if rc != 0 or timed_out:
            raise SystemExit(f"perfbench: import probe failed (exit {rc}):\n"
                             + err.read_text(errors="replace")[-2000:])
        return wall, out.read_text()


def check(res):
    """Fill res.error for a non-zero exit, a timeout or a wrong output, then delete the files.

    Outputs are deleted as soon as they are checked, so that tens of
    megabytes of grids are not written back to disk while later
    invocations are timed.
    """
    if res.timed_out:
        res.error = f"timed out after {TIMEOUT_S:.0f} s"
    elif res.code != 0:
        tail = res.err.read_text(errors="replace").strip().splitlines()[-3:]
        res.error = f"exit {res.code}: " + " | ".join(tail)
    else:
        try:
            res.error = res.inv.check(res.out.read_text())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            res.error = f"unreadable output: {type(exc).__name__}: {exc}"
        res.wrong = res.error is not None
    if res.trace_path is not None:
        if res.trace_path.exists():
            res.trace = json.loads(res.trace_path.read_text())
        elif res.error is None:
            res.error = "tracer wrote no trace"
            res.wrong = True
    for path in (res.out, res.err, res.trace_path):
        if path is not None:
            path.unlink(missing_ok=True)


def _by_kind(results, attr):
    kinds = {}
    for r in results:
        kinds.setdefault(r.inv.kind, []).append(getattr(r, attr))
    return kinds


def mean_pass(results, attr):
    """Time of one pass at the measured rate: per kind, total time over invocations, summed.

    A mean, not a median: a shared machine can switch between a fast and a
    slow state every few seconds, and the median of such bimodal samples
    jumps between the two levels from run to run where the mean moves
    smoothly with the share of time spent in each.
    """
    return sum(statistics.fmean(v) for v in _by_kind(results, attr).values())


def kind_table(results):
    """Per-kind numbers under the names the workloads were designed around."""
    walls = _by_kind(results, "wall")
    cpus = _by_kind(results, "cpu")
    work = {r.inv.kind: r.inv.work for r in results}
    table = {}
    for kind, wall in walls.items():
        group = kind.split("_")[0]
        if group == "cold":
            table[f"{kind}_p50_s"] = statistics.median(wall)
        else:
            table[f"{kind}_{WORK_UNIT[group]}_per_s"] = work[kind] * len(wall) / sum(wall)
        table[f"{kind}.n"] = len(wall)
        table[f"{kind}.p50_s"] = statistics.median(wall)
        table[f"{kind}.mean_s"] = statistics.fmean(wall)
        table[f"{kind}.cpu_mean_s"] = statistics.fmean(cpus[kind])
    return table


def measure(runner, workload, seed, seconds, draws):
    # set-up probes are spread over the run, so they see the same mix of
    # machine states as the invocations
    setup = [runner.probe(IMPORT_PROBE)[0]]
    results = []
    start = time.perf_counter()
    index = 0
    while True:
        batch = inputs.make_pass(workload, seed, index, draws)
        for k, inv in enumerate(batch):
            results.append(runner.invoke(inv))
            check(results[-1])
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
                setup.append(runner.probe(IMPORT_PROBE)[0])
            if elapsed >= seconds and (index > 0 or k == len(batch) - 1):
                break
        else:
            index += 1
            continue
        break
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (mean_pass(results, "wall"), "s"),
        "pass_cpu_s": (mean_pass(results, "cpu"), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in results) / 1024.0, "MB"),
    }
    detail = {"setup_probes_s": setup, "passes_started": index + 1, "kinds": kind_table(results)}
    return results, metrics, detail


def _pass_layers(traced):
    """Per-layer sums over the traced invocations of one pass."""
    funcs = {}
    for r in traced:
        for name, rec in r.trace["funcs"].items():
            tot = funcs.setdefault(name, dict.fromkeys(("calls", "work", "errors", "self_s",
                                                        "busy_s", "wait_s", "wall_s"), 0))
            for key in tot:
                tot[key] += rec[key]
    return funcs


def trace_metrics(passes):
    """Per-layer metrics from passes of (plain results, traced results), same inputs each pass."""
    first_plain, first = passes[0]
    funcs = _pass_layers(first)
    metrics = {}

    def get(name, key):
        return funcs.get(name, {}).get(key, 0)

    metrics["import.scipy_modules"] = (sum(r.trace["scipy_modules"] for r in first), "count")
    metrics["cli.output_bytes"] = (sum(r.trace["output_bytes"] for r in first), "B")
    for metric, name, key in FUNC_COUNTS:
        metrics[metric] = (get(name, key), "count")
    attempts = sum(r.trace["polish_attempts"] for r in first)
    improved = sum(r.trace["polish_improved"] for r in first)
    metrics["classifier.polish.attempts"] = (attempts, "count")
    metrics["classifier.polish.improved_frac"] = (improved / attempts if attempts else 0.0, "frac")
    metrics["trace.threads"] = (max(r.trace["threads"] for r in first), "count")

    timed = {}
    for plain, traced in passes:
        f = _pass_layers(traced)
        wall = sum(r.wall for r in traced)
        row = {"trace.overhead_frac": wall / sum(r.wall for r in plain) - 1.0}
        for metric, name, key in FUNC_TIMES:
            row[metric] = f.get(name, {}).get(key, 0.0)
        busy = sum(v["busy_s"] for v in f.values())
        for mod in MODULES:
            mine = [v for n, v in f.items() if n.split(".")[0] == mod]
            for key in ("self_s", "busy_s", "wait_s"):
                row[f"{mod}.{key}"] = sum(v[key] for v in mine)
            row[f"{mod}.busy_share"] = row[f"{mod}.busy_s"] / busy if busy else 0.0
        for metric, value in row.items():
            timed.setdefault(metric, []).append(value)
    imports = [r.trace["import_s"] for _, traced in passes for r in traced]
    metrics["import.hadshock_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_frac"] = (statistics.median(timed["trace.overhead_frac"]), "frac")
    for metric, _, _ in FUNC_TIMES:
        metrics[metric] = (statistics.median(timed[metric]), "s")
    for mod in TIMED_MODULES:
        for key in ("self_s", "busy_s", "wait_s"):
            metrics[f"{mod}.{key}"] = (statistics.median(timed[f"{mod}.{key}"]), "s")
    for mod in MODULES:
        metrics[f"{mod}.busy_share"] = (statistics.median(timed[f"{mod}.busy_share"]), "frac")

    counts_repeat = all(_counts(t) == _counts(first) for _, t in passes[1:])
    detail = {
        "passes": len(passes),
        "counts_repeat_across_passes": counts_repeat,
        "functions": {n: funcs[n] for n in sorted(funcs, key=lambda n: -funcs[n]["self_s"])},
        "first_call_s": {n: min(r.trace["funcs"][n]["first_call_s"] for r in first
                                if n in r.trace["funcs"]) for n in funcs},
        "parents": _merge_edges(first),
        "kinds_plain": kind_table(first_plain),
        "kinds_traced": kind_table(first),
    }
    return metrics, detail


def _counts(traced):
    return {n: (v["calls"], v["work"], v["errors"]) for n, v in _pass_layers(traced).items()}


def _merge_edges(traced):
    edges = {}
    for r in traced:
        for key, n in r.trace["edges"].items():
            edges[key] = edges.get(key, 0) + n
    return edges


def measure_traced(runner, workload, seed, seconds, draws):
    batch = inputs.make_pass(workload, seed, 0, draws)
    passes = []
    start = time.perf_counter()
    # repeat while the next pass is expected to end within the time budget
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        plain, traced = [], []
        for inv in batch:
            plain.append(runner.invoke(inv))
            check(plain[-1])
            traced.append(runner.invoke(inv, traced=True))
            check(traced[-1])
        passes.append((plain, traced))
    results = [r for plain, traced in passes for r in plain + traced]
    if any(r.trace is None for _, traced in passes for r in traced):
        return results, {}, {"error": "missing trace"}
    metrics, detail = trace_metrics(passes)
    return results, metrics, detail


def environment(workload, seed, seconds, trace):
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "hadshock_threads_env": os.environ.get("HADSHOCK_THREADS"),
        "default_workers": min(4, os.cpu_count() or 1), "git_commit": commit,
        "timeout_s": TIMEOUT_S,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hadshock" / "cli.py").is_file():
        print(f"perfbench: no hadshock source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runner = Runner(tmp)
    try:
        _, where = runner.probe(WARM_UP)
        if not Path(where).resolve().is_relative_to((ROOT / "src").resolve()):
            print(f"perfbench: hadshock imported from {where}, not from {ROOT / 'src'}",
                  file=sys.stderr)
            return 3
        env["hadshock_file"] = where
        draws = inputs.Draws()
        measure_fn = measure_traced if args.trace else measure
        results, metrics, detail = measure_fn(runner, args.workload, args.seed, args.seconds, draws)
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for r in results if r.error]
    wrong = [r for r in results if r.wrong]
    record = {
        "environment": env,
        "rejected_draws": {"undecided": draws.undecided, "off_target": draws.off_target},
        "metrics": {k: v[0] for k, v in metrics.items()},
        "detail": detail,
        "invocations": [
            {"kind": r.inv.kind, "argv": r.inv.argv, "traced": r.trace_path is not None,
             "wall_s": r.wall, "cpu_s": r.cpu, "rss_kb": r.rss_kb, "exit": r.code,
             "error": r.error}
            for r in results
        ],
    }
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(json.dumps({"environment": env, "rejected_draws": record["rejected_draws"],
                      "detail": {k: v for k, v in detail.items() if k != "functions"}}, indent=1),
          file=sys.stderr)
    for r in failed:
        print(f"FAILED {r.inv.kind}: {r.error}\n  argv: {' '.join(r.inv.argv)}", file=sys.stderr)
    print(f"record: {path}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong and bool(metrics),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
