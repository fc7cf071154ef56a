"""One child process of the benchmark: a set-up probe or one kamtori CLI call.

    python3 child.py setup ROOT OUT.json [--config CFG] [--verify]
    python3 child.py run ROOT OUT.json [--spans SPANS.csv] -- KAMTORI-ARGS...

`setup` times `import kamtori` + `load_config` + `build_run` (import only
with --verify) and records the numerical environment.  `run` calls
`kamtori.cli.main` exactly as the `kamtori` console script does, after
wrapping `kam.run` and the `verify` suites so that the check rows the CLI
judges its exit code by (with their `gating` flag, which no CSV carries)
can be written to OUT.json.  With --spans every public function of the
eight modules is wrapped from outside by `setattr` and one span per call
is kept in memory and written out at exit.

Functions imported by name into another module (`weights.eval_lambda`
inside `fourier`, `weights.eval_gamma` inside `homological` and `kam`) are
bound before the wrappers exist, so calls through those names are not
timed; their time shows as self time of the caller.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import glob
import importlib
import inspect
import json
import math
import os
import signal
import sys
import time

LAYERS = ("cfrac", "weights", "fourier", "homological", "kam", "model",
          "verify", "cli")
# private names traced besides the public ones: the export step of kam-run
EXTRA_SPANS = (("cli", "_dump_states"),)
# a child that outlives this is killed by the kernel, so the benchmark's
# own deadline holds even if the parent dies
ALARM_S = 175


def _die_with_parent() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return
    prctl = getattr(libc, "prctl", None)
    if prctl is not None:
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                          ctypes.c_ulong, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG


def _import_kamtori(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import kamtori
    import kamtori.cli
    src = os.path.realpath(os.path.join(root, "src", "kamtori"))
    if os.path.dirname(os.path.realpath(kamtori.__file__)) != src:
        raise SystemExit("kamtori imported from %s, not from %s"
                         % (kamtori.__file__, src))
    return kamtori.cli


def _blas_threads():
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": _blas_threads()}


def setup_probe(root: str, out: str, config: str | None, verify: bool) -> int:
    t0 = time.perf_counter()
    cli = _import_kamtori(root)
    if verify:
        import kamtori.verify  # noqa: F401  (the verify command imports it)
    if config:
        cli.build_run(cli.load_config(config))
    setup_s = time.perf_counter() - t0
    with open(out, "w") as fh:
        json.dump({"setup_s": setup_s, "env": _environment()}, fh)
    return 0


# -- row capture ---------------------------------------------------------------


class RowCapture:
    """Keeps the rows returned by kam.run (kam-run) or the suites (verify)."""

    def __init__(self):
        self.rows = []
        self.stopped = ""

    def install(self, cli, command: str) -> None:
        if command == "verify":
            import kamtori.verify as vf
            for name in dir(vf):
                if name.endswith("_suite"):
                    self._wrap(vf, name, self._keep_rows)
        elif command == "kam-run":
            self._wrap(cli.kam, "run", self._keep_summary)

    def _wrap(self, owner, attr, keep) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            keep(result)
            return result
        setattr(owner, attr, captured)

    def _keep_rows(self, rows) -> None:
        self.rows += list(rows)

    def _keep_summary(self, summary) -> None:
        self.rows += list(summary.rows)
        self.stopped = summary.stopped

    def as_dict(self) -> dict:
        return {"rows": len(self.rows), "stopped": self.stopped,
                "gating_failed": [r.check for r in self.rows
                                  if r.gating and not r.passed]}


# -- tracing -------------------------------------------------------------------


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _arg(fn, args, kwargs, name):
    return _signature(fn).bind(*args, **kwargs).arguments[name]


def _nbytes(series) -> int:
    # every coefficient array of one series has the same shape
    return len(series.coeffs) * next(iter(series.coeffs.values())).nbytes \
        if series.coeffs else 0


def _sumset_size(a: dict, b: dict) -> int:
    """|{i + j : i in supp a, j in supp b}|."""
    if not a or not b:
        return 0
    amin, amax, bmin, bmax = min(a), max(a), min(b), max(b)
    if amax - amin + 1 == len(a) and bmax - bmin + 1 == len(b):
        return amax + bmax - amin - bmin + 1
    import numpy as np
    ia = np.zeros(amax - amin + 1)
    ia[[k - amin for k in a]] = 1.0
    ib = np.zeros(bmax - bmin + 1)
    ib[[k - bmin for k in b]] = 1.0
    return int(np.count_nonzero(np.convolve(ia, ib) > 0.5))


def _count_multiply(c, fn, args, kwargs, out):
    a, b = args[0], args[1]
    c["fourier.multiply.conv_ops"] += len(a.coeffs) * len(b.coeffs) * a.nlambda
    c["fourier.multiply.bytes_computed"] += _nbytes(a) + _nbytes(b) + _nbytes(out)
    c["fourier.multiply.kept_modes"] += len(out.coeffs)
    c["fourier.multiply.sumset_modes"] += _sumset_size(a.coeffs, b.coeffs)


def _count_norm_r(c, fn, args, kwargs, out):
    f = args[0] if args else kwargs["f"]   # called ~1e5 times: no binding
    c["fourier.norm_r.coeffs"] += len(f.coeffs) * f.nlambda


def _count_solve(c, fn, args, kwargs, res):
    setup = _arg(fn, args, kwargs, "setup")
    u = _arg(fn, args, kwargs, "u")
    n_active = int(setup.active.sum()) if setup.active is not None else u.nlambda
    n = 2 * setup.K - 1
    c["homological.solve_homological.dense_ops"] += n_active * n ** 3
    c["homological.solve_homological.conditioning_pairs"] += n * n
    for row in res.rows:
        if row.check.startswith("||S^{-1} E P E^{-1}||"):
            key = "homological.solve_homological.max_dominance"
            c[key] = max(c[key], float(row.actual))


def _count_kam_step(c, fn, args, kwargs, result):
    state = _arg(fn, args, kwargs, "state")
    sched = _arg(fn, args, kwargs, "sched")
    new_state, report = result
    u = report.sub_u_norms
    c["kam.sub_steps"] += len(u) - 1
    c["kam.sub_steps_progress"] += sum(1 for a, b in zip(u, u[1:])
                                       if b <= (1.1 / math.e) * a)
    c["kam.K_max"] = max(c["kam.K_max"], sched.K(state.n))
    c["kam.active_points"] = int(new_state.active_mask().sum())


COUNTERS = {
    "fourier.multiply": _count_multiply,
    "fourier.norm_r": _count_norm_r,
    "homological.solve_homological": _count_solve,
    "kam.kam_step": _count_kam_step,
}


class Tracer:
    """Spans [name, parent, start, end, bookkeeping] kept in memory.

    `bookkeeping` is the time the wrappers of a span's direct children
    spent outside those children; it is taken off the span's self time so
    that counting work does not show as time of the layer above."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack = [-1]
        self.counters = collections.defaultdict(int)

    def install(self, modules: dict) -> None:
        for layer, mod in modules.items():
            names = [n for n, obj in vars(mod).items()
                     if not n.startswith("_") and inspect.isfunction(obj)
                     and obj.__module__ == mod.__name__]
            names += [attr for owner, attr in EXTRA_SPANS if owner == layer]
            for name in names:
                self._wrap(mod, name, "%s.%s" % (layer, name))

    def _wrap(self, owner, attr, span_name) -> None:
        fn = getattr(owner, attr)
        spans, stack, counters = self.spans, self.stack, self.counters
        count = COUNTERS.get(span_name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf()
            parent = stack[-1]
            span = [span_name, parent, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            ok = False
            span[2] = t1 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t2 = span[3] = perf()
                stack.pop()
                if ok and count is not None:
                    count(counters, fn, args, kwargs, result)
                if parent >= 0:
                    spans[parent][4] += (t1 - t0) + (perf() - t2)
            return result
        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,parent,run,start,end,bookkeeping\n")
            for i, (name, parent, start, end, bk) in enumerate(self.spans):
                fh.write("%d,%s,%d,%s,%r,%r,%r\n"
                         % (i, name, parent, self.run_id, start, end, bk))


def run_cli(root: str, out: str, spans_path: str | None, argv: list) -> int:
    cli = _import_kamtori(root)
    command = next((a for a in argv if not a.startswith("-")), "")
    capture = RowCapture()
    capture.install(cli, command)
    tracer = None
    if spans_path:
        modules = {layer: importlib.import_module("kamtori." + layer)
                   for layer in LAYERS}
        tracer = Tracer(run_id=os.path.basename(os.path.dirname(out)))
        tracer.install(modules)
    rc = cli.main(argv)
    record = capture.as_dict()
    record["exit"] = rc
    if tracer is not None:
        tracer.write(spans_path)
        record["counters"] = tracer.counters
        record["spans"] = len(tracer.spans)
    with open(out, "w") as fh:
        json.dump(record, fh)
    return rc


def main(argv: list) -> int:
    signal.alarm(ALARM_S)
    _die_with_parent()
    mode, root, out = argv[0], argv[1], argv[2]
    rest = argv[3:]
    if mode == "setup":
        config = rest[rest.index("--config") + 1] if "--config" in rest else None
        return setup_probe(root, out, config, "--verify" in rest)
    if mode == "run":
        cut = rest.index("--")
        opts, cli_argv = rest[:cut], rest[cut + 1:]
        spans = opts[opts.index("--spans") + 1] if "--spans" in opts else None
        return run_cli(root, out, spans, cli_argv)
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
