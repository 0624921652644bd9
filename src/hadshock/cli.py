"""Command-line surface.

Subcommands: ``material check``/``material list``, ``shock``,
``classify``, ``sweep``, ``grid`` and ``verify``.  Reports are JSON (17
significant digits); grids and sweeps are CSV (9 significant digits) or,
with --format=json, JSON.  Every number printed comes from a library call.
Exit codes: 0 ok, 2 configuration error, 3 domain error, 4 verification
failure.  A grid is evaluated as one array over all its nodes, and its
text is written one Im row at a time, each row filled by one format call,
so the whole grid's text is never held; each axis value is formatted once,
and a node formats only its four stability-function columns.  The rows of a
sweep are one batch of fronts.  Every command writes its output through one
path that flushes it, so a failed write (a full disk, a closed pipe) is a
configuration error.
``HADSHOCK_THREADS`` is ignored.  The CLI runs OpenBLAS on one thread:
importing this module sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads,
unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set, which
then wins.  Every matrix here is at most 8 x 8, far below OpenBLAS's
threading threshold, so more workers would only spin idle.  Importing this
module also freezes (``gc.freeze``) the objects that exist once its imports
are done, with the cyclic garbage collector paused while they run, so no later
collection scans them; the collector is left on or off as it was.  The script entry
``run`` (the ``hadshock`` script and ``python -m hadshock.cli``) flushes stdout
and stderr after ``main`` returns and ends the process with ``os._exit``, which
skips the interpreter's teardown; ``main(argv)`` returns its exit code and keeps
the normal interpreter lifecycle.
"""

import argparse
import gc
import json
import math
import os
import re
import sys

# OpenBLAS reads its thread count once, when numpy loads it
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
# what the imports below make lives until the process ends, so a collection would only
# rescan it: collect nothing while they run, then move it out of every later collection
_gc_was_enabled = gc.isenabled()
gc.disable()

import numpy as np

from . import classifier, lopatinskii, materials, oracle, shock
from .errors import ConfigError, HadshockError, VerificationError

gc.freeze()
if _gc_was_enabled:
    gc.enable()

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# formatting

def _fmt_json_value(x):
    if isinstance(x, (bool, np.bool_)) or x is None or isinstance(x, (str, int)):
        return json.dumps(bool(x) if isinstance(x, np.bool_) else x)
    if isinstance(x, float):
        if not np.isfinite(x):
            return json.dumps(None)
        return f"{x + 0.0:.17g}"
    if isinstance(x, complex):
        return _fmt_json_value({"re": x.real, "im": x.imag})
    if isinstance(x, np.ndarray):
        return _fmt_json_value(x.tolist())
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt_json_value(v) for v in x) + "]"
    if isinstance(x, dict):
        items = (f"{json.dumps(str(k))}: {_fmt_json_value(v)}" for k, v in x.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(x, (np.floating,)):
        return _fmt_json_value(float(x))
    if isinstance(x, (np.integer,)):
        return json.dumps(int(x))
    raise TypeError(f"cannot serialize {type(x)!r}")


def to_json(obj) -> str:
    return _fmt_json_value(obj)


def _csv_cell(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        return "" if not np.isfinite(x) else f"{float(x):.9g}"
    return "" if x is None else str(x)


def _emit(text, out_path):
    """Write text, a string or an iterable of string chunks, to the file out_path or to
    stdout, add a newline unless the text ends with one, and flush: a failed write raises
    OSError here, which main reports."""
    fh = open(out_path, "w") if out_path else sys.stdout
    try:
        last = ""
        for chunk in [text] if isinstance(text, str) else text:
            fh.write(chunk)
            last = chunk
        if not last.endswith("\n"):
            fh.write("\n")
        fh.flush()
    finally:
        if fh is not sys.stdout:
            fh.close()


# ---------------------------------------------------------------------------
# configuration parsing

def _finite(values, what: str) -> np.ndarray:
    """Float array of the given numbers; ConfigError if any is not a finite number."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be numbers: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must be finite, got {values!r}")
    return arr


def _number(value, what: str) -> float:
    arr = _finite(value, what)
    if arr.ndim != 0:
        raise ConfigError(f"{what} must be a single number, got {value!r}")
    return float(arr)


def _floats(text: str, what: str) -> np.ndarray:
    return _finite([v for v in str(text).replace(";", ",").split(",") if v.strip()], what)


def _material_from_spec(spec: dict) -> materials.MaterialModel:
    spec = dict(spec)
    name = spec.pop("name", None)
    if name is None:
        raise ConfigError("material config needs a 'name'")
    params = dict(spec.pop("params", {}) or {})
    if name == "custom":
        form = params.pop("form", None)
        if form is None:
            raise ConfigError("custom material config needs params.form naming a built-in h-form")
        name = form
    for key in ("dimension", "dim", "d"):
        if key in spec and spec[key] is not None:
            params.setdefault("d", spec[key])
    for key in ("mu", "kappa", "b", "cbar", "c1"):
        if key in spec and spec[key] is not None:
            params.setdefault(key, spec[key])
    for key in ("mu", "kappa", "b", "cbar", "c1", "d"):
        if params.get(key) is not None:
            params[key] = _number(params[key], f"material parameter {key}")
    if "d" in params:
        if params["d"] != int(params["d"]):
            raise ConfigError(f"dimension must be an integer, got {params['d']!r}")
        params["d"] = int(params["d"])
    return materials.catalog(name, params)


def _material_from_args(args) -> materials.MaterialModel:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        spec = cfg.get("material", cfg)
        return _material_from_spec(spec)
    name = getattr(args, "material", None) or getattr(args, "name", None)
    if not name:
        raise ConfigError("provide --config or a material name")
    spec = {
        "name": name,
        "dimension": args.dim,
        "mu": args.mu,
        "kappa": args.kappa,
        "b": getattr(args, "b", None),
        "cbar": getattr(args, "cbar", None),
        "c1": getattr(args, "c1", None),
    }
    return _material_from_spec({k: v for k, v in spec.items() if v is not None})


def _parse_matrix(text: str, d: int) -> np.ndarray:
    if text.strip().lower() == "identity":
        return np.eye(d)
    vals = _floats(text, "--Uplus")
    if len(vals) != d * d:
        raise ConfigError(f"--Uplus needs {d * d} entries (row-major), got {len(vals)}")
    return vals.reshape(d, d)


def _parse_vector(text, d: int) -> np.ndarray:
    if text is None or (isinstance(text, str) and text.strip().lower() in ("", "zero", "zeros")):
        return np.zeros(d)
    vals = _floats(text, "vector")
    if len(vals) != d:
        raise ConfigError(f"vector needs {d} entries, got {len(vals)}")
    return vals


def _scenario_from_args(args, need_alpha: bool = True):
    """Material, base state and intensity (None if not needed) from --config or inline flags."""
    alpha = getattr(args, "alpha", None)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        m = _material_from_spec(cfg.get("material", cfg))
        d = m.dimension or 3
        U = _finite(cfg.get("U_plus", np.eye(d).tolist()), "U_plus")
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ConfigError(f"U_plus must be a square matrix, got shape {U.shape}")
        v = _finite(cfg.get("v_plus", np.zeros(U.shape[0]).tolist()), "v_plus")
        if v.shape != (U.shape[0],):
            raise ConfigError(f"v_plus needs {U.shape[0]} entries, got shape {v.shape}")
        alpha = cfg.get("alpha", alpha)
    else:
        m = _material_from_args(args)
        d = m.dimension or args.dim or 3
        U = _parse_matrix(args.Uplus or "identity", d)
        v = _parse_vector(getattr(args, "vplus", None), d)
    if alpha is not None:
        alpha = _number(alpha, "alpha")
    elif need_alpha:
        raise ConfigError("scenario needs --alpha")
    return m, shock.ElasticState(U, v), alpha


def _report_from_shock(sf: shock.ShockFront) -> dict:
    lax = shock.lax_check(sf)
    return {
        "material": {
            "name": sf.material.name,
            "mu": sf.material.mu,
            "kappa": sf.material.declared_bulk,
            "dimension": sf.dim,
        },
        "alpha": sf.alpha,
        "alpha_max": sf.alpha_max,
        "speed": sf.speed,
        "J_plus": sf.Jplus,
        "J_minus": sf.Jminus,
        "U_plus": sf.plus.U,
        "U_minus": sf.minus.U,
        "v_plus": sf.plus.v,
        "v_minus": sf.minus.v,
        "V": sf.V,
        "theta": sf.theta,
        "Theta": sf.Theta,
        "M": sf.M,
        "kappa2_plus": sf.kappa2_plus,
        "kappa2_minus": sf.kappa2_minus,
        "rho": sf.rho,
        "tau": sf.tau,
        "lax": {"ok": lax.ok, "margins": list(lax.margins)},
    }


def _verdict_report(sf, verdict) -> dict:
    lax = shock.lax_check(sf)
    rep = {
        "kind": verdict.kind,
        "rho": verdict.rho,
        "min_criterion": verdict.min_criterion,
    }
    if verdict.witness is not None:
        rep["witness"] = {
            "xi_t": verdict.witness.xi_t,
            "t_root": verdict.witness.t_root,
            "criterion_value": verdict.witness.criterion_value,
        }
    if verdict.marginal:
        rep["marginal"] = True
    rep["diagnostics"] = {"lax_margins": list(lax.margins), "alpha_max": sf.alpha_max}
    return rep


# ---------------------------------------------------------------------------
# subcommands

def _cmd_material(args) -> int:
    if args.material_cmd == "list":
        _emit(to_json({"models": list(materials.CATALOG_NAMES)}), args.out)
        return 0
    m = _material_from_args(args)
    d = m.dimension or args.dim or 3
    rep = materials.check_hypotheses(m, d)
    payload = {
        "name": m.name,
        "dimension": d,
        "mu": m.mu,
        "declared_bulk": m.declared_bulk,
        "h2_positive": rep.h2_positive,
        "h3_negative": rep.h3_negative,
        "free_stress": rep.free_stress,
        "bulk_relation": rep.bulk_relation,
        "poisson": rep.poisson,
        "lame_first": rep.lame_first,
        "effective_bulk": rep.effective_bulk,
        "h_nonincreasing": rep.h_nonincreasing,
        "fd_consistent": rep.fd_consistent,
        "fd_max_rel_err": rep.fd_max_rel_err,
        "all_ok": rep.all_ok,
    }
    _emit(to_json(payload), args.out)
    return 0 if rep.all_ok else 4


def _cmd_shock(args) -> int:
    m, state, alpha = _scenario_from_args(args)
    sf = shock.build(m, state, alpha)
    _emit(to_json(_report_from_shock(sf)), args.out)
    return 0


def _cmd_classify(args) -> int:
    m, state, alpha = _scenario_from_args(args)
    sf = shock.build(m, state, alpha)
    verdict = classifier.classify(sf)
    _emit(to_json(_verdict_report(sf, verdict)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    m, state, _ = _scenario_from_args(args, need_alpha=False)
    lo, hi = _parse_range(args.alpha_range)
    if args.steps < 0:
        raise ConfigError(f"--steps must not be negative, got {args.steps}")
    alphas = np.linspace(lo, hi, args.steps)
    verdicts = classifier.classify_stack(shock.build_stack(m, state, alphas))
    rows = [(alpha, None, None, f"error:{type(v).__name__}") if isinstance(v, HadshockError)
            else (alpha, v.rho, v.min_criterion, v.kind)
            for alpha, v in zip(alphas.tolist(), verdicts)]
    if args.format == "json":
        payload = [
            {"alpha": a, "rho": r, "min_criterion": c, "verdict": v} for a, r, c, v in rows
        ]
        _emit(to_json(payload), args.out)
    else:
        lines = ["alpha,rho,min_criterion,verdict"]
        lines += [",".join(_csv_cell(x) for x in r) for r in rows]
        _emit("\n".join(lines), args.out)
    return 0


def _parse_range(text: str):
    """(lo, hi) of a range flag; its width must be finite, so linspace can place nodes in it."""
    vals = _floats(text, "range")
    if len(vals) != 2:
        raise ConfigError(f"range needs two comma-separated numbers, got {text!r}")
    lo, hi = float(vals[0]), float(vals[1])
    if not np.isfinite(hi - lo):
        raise ConfigError(f"range {text!r} is too wide: {hi!r} - {lo!r} overflows")
    return lo, hi


def _hemisphere_xi(sf, gammas: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Transverse vectors (..., k) on the remapped hemisphere for gamma values (...).

    Solves |lambda(gamma, m*dir)|^2 + m^2 = 1 for the magnitude m >= 0
    of every cell at once; cells where gamma lies outside the hemisphere
    are NaN (the square root there is invalid; the grid runs under np.errstate).
    """
    k2, s = sf.kappa2_plus, sf.speed
    eta_dir = float(sf.theta[0, 1:] @ direction)
    w = np.sqrt((k2 - s * s) / k2) * gammas
    a = s * sf.h2_plus * eta_dir / k2
    # m^2 (1 + a^2) - 2 a Im(w) m + |w|^2 - 1 = 0; inside iff its larger root is >= 0
    A = 1.0 + a * a
    B = -2.0 * a * w.imag
    C = np.hypot(w.real, w.imag) ** 2 - 1.0
    m = (-B + np.sqrt(B * B - 4.0 * A * C)) / (2 * A)
    m[~(m >= 0)] = np.nan
    return m[..., None] * direction


GRID_KEYS = ("re", "im", "delta_re", "delta_im", "delta_abs", "delta_arg")


def _grid_rows(res: np.ndarray, ims: np.ndarray, vals: np.ndarray, fmt: str):
    """CSV or JSON of the grid values vals (n_im, n_re) at res + i ims, a record per node with
    Re varying fastest, as chunks of text: one chunk per Im row, filled by one %.

    Each axis value is formatted once.  Each pattern of finite delta columns has its own
    record template, with an empty CSV field or a JSON null where a value is not finite (its
    ``%.0s`` takes the value and prints nothing); a row's format string joins the templates
    of its records, and its arguments are the rows of one reused (n_re, 6) object array.
    The patterns that occur are the nonzero bins of a bincount of the codes 0..15 (np.unique
    would import numpy.ma).
    """
    deltas = np.stack([vals.real, vals.imag, np.hypot(vals.real, vals.imag), np.angle(vals)],
                      axis=-1)
    if fmt == "json":
        cell, missing, sep = "%.17g", "null", ", "
        res, ims, deltas = res + 0.0, ims + 0.0, deltas + 0.0  # no negative zeros, as in to_json
    else:
        cell, missing, sep = "%.9g", "", "\n"
    re_text, im_text = ([cell % x if math.isfinite(x) else missing for x in axis.tolist()]
                        for axis in (res, ims))
    bits = [1 << i for i in range(deltas.shape[-1])]
    codes = np.isfinite(deltas) @ bits  # which delta columns are finite, per node
    templates = {}
    for code in np.flatnonzero(np.bincount(codes.ravel())).tolist():
        fields = ["%s", "%s"] + [cell if code & b else missing + "%.0s" for b in bits]
        if fmt == "json":
            fields = [f"{json.dumps(key)}: {f}" for key, f in zip(GRID_KEYS, fields)]
            templates[code] = "{" + ", ".join(fields) + "}"
        else:
            templates[code] = ",".join(fields)
    args = np.empty((len(re_text), len(GRID_KEYS)), dtype=object)
    args[:, 0] = re_text
    lead = "[" if fmt == "json" else ",".join(GRID_KEYS) + "\n"
    for im, row_codes, row_deltas in zip(im_text, codes, deltas):
        args[:, 1] = im
        args[:, 2:] = row_deltas
        yield lead + sep.join(map(templates.__getitem__, row_codes.tolist())) % tuple(
            args.ravel().tolist())
        lead = sep
    if fmt == "json":
        yield "]"


def _cmd_grid(args) -> int:
    m, state, alpha = _scenario_from_args(args)
    sf = shock.build(m, state, alpha)
    re_lo, re_hi = _parse_range(args.grid_re)
    im_lo, im_hi = _parse_range(args.grid_im)
    nodes = args.grid_n.split(",")
    if len(nodes) != 2 or not all(v.strip().isdigit() for v in nodes):
        raise ConfigError(f"--grid-n needs two comma-separated integers, got {args.grid_n!r}")
    n_re, n_im = (int(v) for v in nodes)
    if n_re < 2 or n_im < 2:
        raise ConfigError("grid needs at least 2 nodes per axis")
    xi = _parse_vector(args.xi, sf.dim - 1) if args.xi else np.eye(sf.dim - 1)[0]
    res = np.linspace(re_lo, re_hi, n_re)
    ims = np.linspace(im_lo, im_hi, n_im)
    grid = res[None, :] + 1j * ims[:, None]  # row i holds Im = ims[i]
    with np.errstate(all="ignore"):  # a node too large to evaluate is an empty cell
        if args.var == "lambda":
            vals = lopatinskii.delta_v1_values(sf, grid, xi)
        else:
            if args.restrict_gamma_tilde:
                if not np.any(xi):
                    raise ConfigError("--restrict-gamma-tilde needs a nonzero --xi direction")
                xi = _hemisphere_xi(sf, grid, xi / np.linalg.norm(xi))
            vals = lopatinskii.delta_v2_values(sf, grid, xi)
    _emit(_grid_rows(res, ims, vals, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        dims = tuple(int(v) for v in args.dims.split(","))
    except ValueError:
        raise ConfigError(f"--dims needs comma-separated integers, got {args.dims!r}") from None
    if args.seed < 0:
        raise ConfigError(f"--seed must not be negative, got {args.seed}")
    if args.scenarios < 1:
        raise ConfigError(f"--scenarios must be positive, got {args.scenarios}")
    report = oracle.verify_suite(seed=args.seed, scenarios=args.scenarios, dims=dims)
    _emit(to_json(report), args.out)
    return 0 if report["ok"] else 4


# ---------------------------------------------------------------------------
# argument wiring

def _add_material_flags(p, with_name_flag=False):
    if with_name_flag:
        p.add_argument("--name", help="catalog model name")
    else:
        p.add_argument("--material", help="catalog model name")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--dim", type=int, default=None, help="space dimension d >= 2")
    p.add_argument("--mu", type=float, default=None, help="shear modulus")
    p.add_argument("--kappa", type=float, default=None, help="bulk modulus")
    p.add_argument("--b", type=float, default=None, help="empirical coefficient b")
    p.add_argument("--cbar", type=float, default=None, help="empirical coefficient c-bar")
    p.add_argument("--c1", type=float, default=None, help="foam exponent coefficient c1")


def _add_state_flags(p):
    p.add_argument("--Uplus", default="identity", help="base deformation gradient, row-major or 'identity'")
    p.add_argument("--vplus", default=None, help="base velocity, comma list or 'zero'")


def _add_out(p, tabular=False):
    """--out, plus --format for the commands that write CSV or JSON tables."""
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if tabular:
        p.add_argument("--format", choices=("json", "csv"), default="csv")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a token starting -<digit> or -.<digit> as a value, so
    exponent forms and lists (``--alpha -1e-2``, ``--grid-im -1,1``) parse as
    ``--alpha=-1e-2`` does; no option here looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hadshock", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    mat = sub.add_parser("material", help="material inspection")
    msub = mat.add_subparsers(dest="material_cmd", required=True)
    mchk = msub.add_parser("check", help="verify the material hypotheses")
    _add_material_flags(mchk, with_name_flag=True)
    _add_out(mchk)
    mlist = msub.add_parser("list", help="list catalog models")
    _add_out(mlist)

    shk = sub.add_parser("shock", help="build a Lax front and report it")
    _add_material_flags(shk)
    _add_state_flags(shk)
    shk.add_argument("--alpha", type=float, default=None, help="shock intensity")
    _add_out(shk)

    cls = sub.add_parser("classify", help="uniform/weak stability verdict")
    _add_material_flags(cls)
    _add_state_flags(cls)
    cls.add_argument("--alpha", type=float, default=None)
    _add_out(cls)

    swp = sub.add_parser("sweep", help="verdict sweep over an intensity range")
    _add_material_flags(swp)
    _add_state_flags(swp)
    swp.add_argument("--alpha-range", required=True, help="lo,hi")
    swp.add_argument("--steps", type=int, default=100)
    _add_out(swp, tabular=True)

    grd = sub.add_parser("grid", help="complex-plane grid of the stability function")
    _add_material_flags(grd)
    _add_state_flags(grd)
    grd.add_argument("--alpha", type=float, default=None)
    grd.add_argument("--var", choices=("gamma", "lambda"), default="gamma")
    grd.add_argument("--grid-re", default="0,2", help="lo,hi")
    grd.add_argument("--grid-im", default="-2,2", help="lo,hi")
    grd.add_argument("--grid-n", default="100,100", help="n_re,n_im")
    grd.add_argument("--xi", default=None, help="transverse frequency direction")
    grd.add_argument("--restrict-gamma-tilde", action="store_true",
                     help="eliminate |xi|^2 through the remapped hemisphere constraint")
    _add_out(grd, tabular=True)

    ver = sub.add_parser("verify", help="run the oracle identity suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--scenarios", type=int, default=50)
    ver.add_argument("--dims", default="2,3,4")
    _add_out(ver)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "material": _cmd_material,
        "shock": _cmd_shock,
        "classify": _cmd_classify,
        "sweep": _cmd_sweep,
        "grid": _cmd_grid,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.cmd](args)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except HadshockError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The script entry: main() on sys.argv, then the end of the process.

    Once both output streams are flushed (``--out`` files are closed inside main), the
    process ends with ``os._exit``, skipping the interpreter's teardown, which only frees
    objects.  An exception from main, argparse's SystemExit included, propagates and exits
    as before.  A flush that fails here fails on output whose write main has already
    reported: every write to stdout is _emit's, which flushes, and stderr is line-buffered.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
