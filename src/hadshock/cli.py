"""Command-line surface: the ``hadshock`` script and ``python -m hadshock.cli``."""

import argparse
import gc
import json
import math
import os
import re
import sys

# OpenBLAS reads its thread count once, when numpy loads it.  Run it on one thread unless
# OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set: every matrix here is at most 8 x 8, far
# below OpenBLAS's threading threshold, so more workers would only spin idle
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
# what the imports below make lives until the process ends, so a collection would only
# rescan it: collect nothing while they run, then move it out of every later collection
# (gc.freeze), and leave the collector on or off as it was
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
        return f"{x + 0.0:.17g}" if math.isfinite(x) else json.dumps(None)
    if isinstance(x, np.ndarray):
        return _fmt_json_value(x.tolist())
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt_json_value(v) for v in x) + "]"
    if isinstance(x, dict):
        items = (f"{json.dumps(str(k))}: {_fmt_json_value(v)}" for k, v in x.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(x)!r}")


def to_json(obj) -> str:
    return _fmt_json_value(obj)


def _csv_cell(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.9g}" if math.isfinite(x) else ""
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


def _load_config(path: str) -> tuple:
    """The JSON object in the config file at path, and its material spec: the object under
    "material", or else the whole file.  ConfigError unless both, and the spec's params,
    are JSON objects."""
    with open(path) as fh:
        cfg = json.load(fh)
    spec = cfg.get("material", cfg) if isinstance(cfg, dict) else None
    if not isinstance(spec, dict) or not isinstance(spec.get("params") or {}, dict):
        raise ConfigError(f"config {path} must be a JSON object whose material and its "
                          "params are objects")
    return cfg, spec


def _material_from_spec(spec: dict) -> materials.MaterialModel:
    spec = dict(spec)
    name = spec.pop("name", None)
    if name is None:
        raise ConfigError("material config needs a 'name'")
    params = dict(spec.pop("params", {}) or {})
    if not isinstance(name, str):
        raise ConfigError(f"a material name must be a string, got {name!r}")
    for key in ("dimension", "dim", "d"):
        if key in spec and spec[key] is not None:
            params.setdefault("d", spec[key])
    for key in ("mu", "kappa", "b", "cbar", "c1"):
        if key in spec and spec[key] is not None:
            params.setdefault(key, spec[key])
    return materials.catalog(name, params)


def _front_config(args) -> tuple:
    """The config object of the command's front and its material spec: the --config file,
    or else the same object made from the flags, with --Uplus (row-major) and --vplus read
    as arrays; --Uplus 'identity' and --vplus 'zero' leave their defaults."""
    if getattr(args, "config", None):
        return _load_config(args.config)
    name = getattr(args, "material", None) or getattr(args, "name", None)
    if not name:
        raise ConfigError("provide --config or a material name")
    spec = {"name": name, "dimension": args.dim, "mu": args.mu, "kappa": args.kappa,
            "b": args.b, "cbar": args.cbar, "c1": args.c1}
    cfg = {"material": {k: v for k, v in spec.items() if v is not None}}
    U = getattr(args, "Uplus", None)
    if U and U.strip().lower() != "identity":
        vals = _floats(U, "--Uplus")
        d = math.isqrt(vals.size)
        if d * d != vals.size:
            raise ConfigError(f"--Uplus needs d * d entries (row-major), got {vals.size}")
        cfg["U_plus"] = vals.reshape(d, d)
    v = getattr(args, "vplus", None)
    if v is not None and v.strip().lower() not in ("", "zero", "zeros"):
        cfg["v_plus"] = _floats(v, "--vplus")
    return cfg, cfg["material"]


def _scenario_from_args(args, need_alpha: bool = True):
    """Material, base state and intensity (None if not needed) of the command's config
    object: U_plus defaults to the identity in the law's dimension, v_plus to zero and alpha
    to --alpha.  The law's dimension must match U_plus's, by the rule build checks."""
    cfg, spec = _front_config(args)
    m = _material_from_spec(spec)
    U = _finite(cfg.get("U_plus", np.eye(m.dimension)), "U_plus")
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] < 2:
        raise ConfigError(f"U_plus must be a square matrix of side >= 2, got shape {U.shape}")
    shock._check_dimension(m, U.shape[0])  # before ElasticState checks det U+
    v = _finite(cfg.get("v_plus", np.zeros(U.shape[0])), "v_plus")
    if v.shape != (U.shape[0],):
        raise ConfigError(f"v_plus needs {U.shape[0]} entries, got shape {v.shape}")
    alpha = cfg.get("alpha", getattr(args, "alpha", None))
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
    m = _material_from_spec(_front_config(args)[1])
    rep = materials.check_hypotheses(m, m.dimension)
    payload = {"name": m.name, "dimension": m.dimension, "mu": m.mu,
               "declared_bulk": m.declared_bulk, **rep._asdict(), "all_ok": rep.all_ok}
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
GRID_BLOCK_CELLS = 8192  # cells a grid evaluates at a time: bounds its kernels' memory


def _grid_rows(res: np.ndarray, ims: np.ndarray, values, fmt: str):
    """CSV or JSON of the grid values at res + i ims, a record per node with Re varying
    fastest, as chunks of text: one chunk per Im row, filled by one %.

    values maps a block of Im values (r,) to the grid values (r, n_re) at its rows; it is
    called on blocks of as many rows as fit GRID_BLOCK_CELLS (at least one), in order, so
    the kernels' temporaries never span the whole grid.  Each axis value is formatted once.
    Each of the 16 patterns of finite delta columns has its own record template, with the
    empty CSV field or the JSON null written out where a value is not finite; a row's format
    string joins the templates of its records, and its arguments are the finite cells of one
    reused (n_re, 6) object array.
    """
    json_text = fmt == "json"
    cell, missing, sep = ("%.17g", "null", ", ") if json_text else ("%.9g", "", "\n")
    # + 0.0 writes no negative zeros in JSON, as in to_json
    re_text, im_text = ([cell % x if math.isfinite(x) else missing
                         for x in (axis + 0.0 if json_text else axis).tolist()]
                        for axis in (res, ims))
    bits = [1 << i for i in range(len(GRID_KEYS) - 2)]
    templates = []
    for code in range(1 << len(bits)):
        fields = ["%s", "%s"] + [cell if code & b else missing for b in bits]
        if json_text:
            fields = [f"{json.dumps(key)}: {f}" for key, f in zip(GRID_KEYS, fields)]
            templates.append("{" + ", ".join(fields) + "}")
        else:
            templates.append(",".join(fields))
    args = np.empty((len(re_text), len(GRID_KEYS)), dtype=object)
    args[:, 0] = re_text
    keep = np.ones(args.shape, dtype=bool)
    lead = "[" if json_text else ",".join(GRID_KEYS) + "\n"
    step = max(1, GRID_BLOCK_CELLS // len(re_text))
    for start in range(0, len(im_text), step):
        vals = values(ims[start : start + step])
        deltas = np.stack([vals.real, vals.imag, np.hypot(vals.real, vals.imag),
                           np.angle(vals)], axis=-1)
        if json_text:
            deltas += 0.0
        finite = np.isfinite(deltas)
        codes = finite @ bits  # which delta columns are finite, per node
        for im, row_codes, row_finite, row_deltas in zip(im_text[start : start + step], codes,
                                                         finite, deltas):
            args[:, 1] = im
            args[:, 2:] = row_deltas
            keep[:, 2:] = row_finite
            yield lead + sep.join(map(templates.__getitem__, row_codes.tolist())) % tuple(
                args[keep].tolist())
            lead = sep
        # the block's arrays (the row names are views) go before the next block's kernels run
        del vals, deltas, finite, codes, row_codes, row_finite, row_deltas
    if json_text:
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
    xi = _floats(args.xi, "--xi") if args.xi else np.eye(sf.dim - 1)[0]
    if xi.shape != (sf.dim - 1,):
        raise ConfigError(f"--xi needs {sf.dim - 1} entries, got {xi.size}")
    restrict = args.var == "gamma" and args.restrict_gamma_tilde
    if restrict and not np.any(xi):
        raise ConfigError("--restrict-gamma-tilde needs a nonzero --xi direction")
    res = np.linspace(re_lo, re_hi, n_re)

    def values(ims):
        grid = res[None, :] + 1j * ims[:, None]  # row i holds Im = ims[i]
        with np.errstate(all="ignore"):  # a node too large to evaluate is an empty cell
            if args.var == "lambda":
                return lopatinskii.delta_v1_values(sf, grid, xi)
            xi_t = _hemisphere_xi(sf, grid, xi / np.linalg.norm(xi)) if restrict else xi
            return lopatinskii.delta_v2_values(sf, grid, xi_t)
    _emit(_grid_rows(res, np.linspace(im_lo, im_hi, n_im), values, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        dims = tuple(int(v) for v in args.dims.split(","))
    except ValueError:
        raise ConfigError(f"--dims needs comma-separated integers, got {args.dims!r}") from None
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


DESCRIPTION = """\
Build Lax shock fronts in compressible Hadamard materials and decide whether each is
uniformly or weakly stable.  Reports are JSON (17 significant digits); sweeps and grids
are CSV (9 significant digits) or, with --format=json, JSON."""

EPILOG = """\
exit codes: 0 ok; 2 configuration error (bad flags, config file or output path);
3 domain error (the input has no front or no answer); 4 verification failure
(material check: a hypothesis fails; verify: an oracle check fails)."""


def _material_parsers(p):
    msub = p.add_subparsers(dest="material_cmd", required=True)
    mchk = msub.add_parser("check", help="verify the material hypotheses")
    _add_material_flags(mchk, with_name_flag=True)
    _add_out(mchk)
    _add_out(msub.add_parser("list", help="list catalog models"))


def _front_flags(p):
    """The flags of shock and classify: material, base state, --alpha and --out."""
    _add_material_flags(p)
    _add_state_flags(p)
    p.add_argument("--alpha", type=float, default=None, help="shock intensity")
    _add_out(p)


def _sweep_flags(p):
    _add_material_flags(p)
    _add_state_flags(p)
    p.add_argument("--alpha-range", required=True, help="lo,hi")
    p.add_argument("--steps", type=int, default=100)
    _add_out(p, tabular=True)


def _grid_flags(p):
    _add_material_flags(p)
    _add_state_flags(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--var", choices=("gamma", "lambda"), default="gamma")
    p.add_argument("--grid-re", default="0,2", help="lo,hi")
    p.add_argument("--grid-im", default="-2,2", help="lo,hi")
    p.add_argument("--grid-n", default="100,100", help="n_re,n_im")
    p.add_argument("--xi", default=None, help="transverse frequency direction")
    p.add_argument("--restrict-gamma-tilde", action="store_true",
                   help="eliminate |xi|^2 through the remapped hemisphere constraint")
    _add_out(p, tabular=True)


def _verify_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenarios", type=int, default=50)
    p.add_argument("--dims", default="2,3,4",
                   help=f"comma-separated dimensions, each once, in 2..{materials.MAX_DIM}")
    _add_out(p)


# (name, help, the function that adds its flags to its subparser, handler), in --help order
COMMANDS = (
    ("material", "check a law's hypotheses, or list the catalog", _material_parsers, _cmd_material),
    ("shock", "build a Lax front and report it", _front_flags, _cmd_shock),
    ("classify", "uniform/weak stability verdict", _front_flags, _cmd_classify),
    ("sweep", "verdict sweep over an intensity range", _sweep_flags, _cmd_sweep),
    ("grid", "complex-plane grid of the stability function", _grid_flags, _cmd_grid),
    ("verify", "check the closed forms against brute-force identities", _verify_flags, _cmd_verify),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The hadshock parser.  When argv names a command, only that command's subparser is
    built, since a process runs one command and the others would only cost start-up time.
    With no argv, -h or an unknown command all are built, so --help and the invalid-choice
    error list every command; the usage line always does."""
    names = [command[0] for command in COMMANDS]
    one = bool(argv) and argv[0] in names
    ap = _Parser(prog="hadshock", description=DESCRIPTION, epilog=EPILOG,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True,
                            metavar="{" + ",".join(names) + "}" if one else None)
    for name, help_text, add_flags, _ in COMMANDS:
        if not one or name == argv[0]:
            add_flags(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return next(cmd for name, _, _, cmd in COMMANDS if name == args.cmd)(args)
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
