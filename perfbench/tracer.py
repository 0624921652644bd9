"""Outside-in layer tracer for one hadshock CLI invocation.

Usage: python tracer.py TRACE_JSON ARGV...

Imports ``hadshock.cli``, replaces every public function object bound in
a ``hadshock`` module -- including ``from .x import f`` copies such as
``classifier.imag_scan`` -- with a timing wrapper, then runs
``hadshock.cli.main(ARGV)`` in this process.  The program itself carries
no trace code.

Each wrapped call is a span named ``<defining module>.<function>``.  Every
thread keeps its own span stack, so a span's parent is the innermost
wrapped call on the same thread; worker-thread spans have no parent.  Per
name the tracer sums calls, wall time, self wall time (wall minus the
wall of wrapped children) and self busy time (``time.thread_time`` minus
children's), plus calls per parent.  A few layers also count their work:
points for ``criterion_values`` and ``delta_v2_values``, integrand
evaluations for ``winding_number``, raised errors for every name, and
whether the Nelder-Mead polish in ``classify`` beat the sphere-grid
minimum.  The totals go to TRACE_JSON when main returns.
"""

import functools
import json
import os
import sys
import threading
import time
import types

MODULES = ("cli", "classifier", "lopatinskii", "linalg", "materials", "oracle", "shock")

_now = time.perf_counter
_cpu = time.thread_time


class _Thread:
    """Span stack and totals of one thread."""

    def __init__(self):
        self.stack = []
        self.stats = {}  # name -> [calls, wall, self_wall, self_busy, errors, first_wall, work]
        self.edges = {}  # (parent, name) -> calls
        self.polish = [0, 0]  # classify calls that polished, and how many beat the grid


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    def _thread(self):
        th = getattr(self._local, "th", None)
        if th is None:
            th = self._local.th = _Thread()
            with self._lock:
                self._threads.append(th)
        return th

    def wrap(self, name, fn, work=None, on_return=None):
        """Timing wrapper for fn.

        ``work(args, kwargs, frame)`` may return a work count and replacement
        arguments; ``on_return(th, frame, parent, args, result)`` inspects the
        result.  A frame is [name, child_wall, child_busy, note].
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            th = self._thread()
            stack = th.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0.0, None]
            units = 0
            if work is not None:
                units, args, kwargs = work(args, kwargs, frame)
            stack.append(frame)
            failed = True
            c0 = _cpu()
            w0 = _now()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                wall = _now() - w0
                busy = _cpu() - c0
                stack.pop()
                rec = th.stats.get(name)
                if rec is None:
                    rec = th.stats[name] = [0, 0.0, 0.0, 0.0, 0, wall, 0]
                rec[0] += 1
                rec[1] += wall
                rec[2] += wall - frame[1]
                rec[3] += busy - frame[2]
                rec[4] += failed
                rec[6] += units
                key = (parent[0] if parent else "", name)
                th.edges[key] = th.edges.get(key, 0) + 1
                if parent is not None:
                    parent[1] += wall
                    parent[2] += busy
                if on_return is not None and not failed:
                    on_return(th, frame, parent, args, result)

        return traced

    def install(self, package):
        """Wrap every public function object bound in hadshock and its modules."""
        wrapped = {}
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(package.__name__ + "."):
                    continue
                if id(value) not in wrapped:
                    name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    hooks = HOOKS.get(name, {})
                    wrapped[id(value)] = self.wrap(name, value, **hooks)
                setattr(mod, attr, wrapped[id(value)])
        return len(wrapped)

    def report(self):
        funcs, edges, polish = {}, {}, [0, 0]
        for th in self._threads:
            for name, rec in th.stats.items():
                tot = funcs.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0,
                                              "busy_s": 0.0, "errors": 0, "work": 0,
                                              "first_call_s": rec[5]})
                tot["calls"] += rec[0]
                tot["wall_s"] += rec[1]
                tot["self_s"] += rec[2]
                tot["busy_s"] += rec[3]
                tot["errors"] += rec[4]
                tot["work"] += rec[6]
            for (parent, name), n in th.edges.items():
                key = f"{parent}>{name}"
                edges[key] = edges.get(key, 0) + n
            polish[0] += th.polish[0]
            polish[1] += th.polish[1]
        for tot in funcs.values():
            tot["wait_s"] = tot["self_s"] - tot["busy_s"]
        return {"funcs": funcs, "edges": edges, "threads": len(self._threads),
                "polish_attempts": polish[0], "polish_improved": polish[1]}


# ---------------------------------------------------------------------------
# per-layer work counters

def _points(args, kwargs, frame):
    import numpy as np

    pts = args[1] if len(args) > 1 else kwargs["points"]
    return np.atleast_2d(np.asarray(pts)).shape[0], args, kwargs


def _gammas(args, kwargs, frame):
    import numpy as np

    g = args[1] if len(args) > 1 else kwargs["gammas"]
    return int(np.size(g)), args, kwargs


def _evals(args, kwargs, frame):
    """Count integrand evaluations by wrapping the function winding_number samples."""
    f = args[0] if args else kwargs["f"]
    frame[3] = 0

    def counted(w):
        frame[3] += 1
        return f(w)

    if args:
        return 0, (counted,) + tuple(args[1:]), kwargs
    return 0, args, dict(kwargs, f=counted)


def _after_winding(th, frame, parent, args, result):
    th.stats["lopatinskii.winding_number"][6] += frame[3]


def _after_criterion(th, frame, parent, args, result):
    """Remember the sphere-grid minimum: the first criterion evaluation inside classify."""
    if parent is not None and parent[0] == "classifier.classify" and parent[3] is None:
        parent[3] = float(result.min())


def _after_classify(th, frame, parent, args, result):
    sf = args[0]
    if sf.rho > 0 and sf.dim > 2 and frame[3] is not None:
        th.polish[0] += 1
        th.polish[1] += result.min_criterion < frame[3]


HOOKS = {
    "classifier.criterion_values": {"work": _points, "on_return": _after_criterion},
    "classifier.classify": {"on_return": _after_classify},
    "lopatinskii.delta_v2_values": {"work": _gammas},
    "lopatinskii.winding_number": {"work": _evals, "on_return": _after_winding},
}


def _out_path(argv):
    for arg in argv:
        if arg.startswith("--out="):
            return arg[len("--out="):]
    return None


def main(trace_path, argv):
    t0 = _now()
    import hadshock
    import hadshock.cli

    import_s = _now() - t0
    tracer = Tracer()
    wrapped = tracer.install(hadshock)
    code = 1
    t1 = _now()
    try:
        code = hadshock.cli.main(argv)
    finally:
        rep = tracer.report()
        rep.update(
            exit=code,
            main_s=_now() - t1,
            import_s=import_s,
            wrapped=wrapped,
            hadshock_file=hadshock.__file__,
            scipy_modules=sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        )
        out = _out_path(argv)
        rep["output_bytes"] = os.path.getsize(out) if out and os.path.exists(out) else 0
        with open(trace_path, "w") as fh:
            json.dump(rep, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
