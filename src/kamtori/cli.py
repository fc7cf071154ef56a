"""Command-line front end: experiment runner, verification suites, CSV export.

Exit codes: 0 success, 1 certification failure (a measured bound violated),
2 configuration error.  All randomness comes from the seeded generator, and
runs are sequential regardless of --jobs, so identical configurations give
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import cfrac as cfr
from . import fourier as fr
from . import homological as hm
from . import kam
from . import model as md
from . import weights as wt
from .reporting import failed_gating, write_rows

EXIT_OK = 0
EXIT_CERT = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


# -- configuration ------------------------------------------------------------------

CONFIG_SCHEMA = {
    "alpha.kind": (str, "golden"),      # golden | sqrt2m1 | decimal | quotients
                                        # | liouville_pow10 | liouville_doubleexp
    "alpha.value": (str, ""),
    "alpha.quotients": (list, []),
    "alpha.depth": (int, 90),
    "alpha.precision_bits": (int, 256),
    "weight.family": (str, "analytic"),
    "weight.param": (float, 0.0),
    "bridges.A": (float, 2.0),
    "schedule.gamma": (float, 0.05),
    "schedule.tau": (float, 2.0),
    "schedule.r": (str, "1/2"),
    "schedule.s": (float, 0.5),
    "schedule.T": (float, 6.0),         # anchoring override; <= 0 -> theoretical
    "schedule.c": (float, 1.0),
    "schedule.L_cap": (int, 64),
    "schedule.K_cap": (int, 256),
    "jet.d_max": (int, 6),
    "model.preset": (str, "constant_forcing"),
    "model.eps": (float, 1e-8),
    "lambda.grid_points": (int, 257),
    "run.n_max": (int, 3),
    "run.force": (bool, False),         # accepted and ignored: every solve
                                        # runs; the benchmark's configs set it
}


def load_config(path: str | None) -> dict:
    """Flat dotted-key JSON object; unknown keys, values not of their key's
    JSON type (9.7 or true for an int key) and values out of range are
    rejected by name.  A str key takes any scalar."""
    cfg = {k: v for k, (_, v) in CONFIG_SCHEMA.items()}
    data = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("malformed config JSON: %s" % exc)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in data.items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError("unknown config key %r" % key)
        typ, _ = CONFIG_SCHEMA[key]
        try:
            new = [int(x) for x in value] if typ is list else typ(value)
        except (TypeError, ValueError):
            new = None
        if new is None or typ is not str and (
                new != value or isinstance(value, bool) != (typ is bool)):
            raise ConfigError("bad value for config key %r: %r" % (key, value))
        cfg[key] = new
    if min(cfg["schedule.L_cap"], cfg["schedule.K_cap"]) < 1 \
            or cfg["run.n_max"] < 0:
        raise ConfigError("schedule.L_cap and schedule.K_cap must be at "
                          "least 1, run.n_max at least 0")
    with _naming("schedule.r"):
        if Fraction(cfg["schedule.r"]) <= 0:
            raise ValueError("must be positive")
    return cfg


@contextlib.contextmanager
def _naming(source: str):
    """Report a ValueError raised in the block as a ConfigError that names
    the config keys or arguments it came from."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("%s: %s" % (source, exc)) from None


def build_alpha(cfg: dict) -> cfr.ContinuedFraction:
    kind = cfg["alpha.kind"]
    prec = cfg["alpha.precision_bits"]
    depth = cfg["alpha.depth"]
    need = {"decimal": "alpha.value", "quotients": "alpha.quotients"}.get(kind)
    if need and not cfg[need]:
        raise ConfigError("alpha.kind=%s requires %s" % (kind, need))
    with _naming((need + " or " if need else "") + "alpha.precision_bits"):
        if kind == "golden":
            return cfr.golden_mean(prec_bits=prec, depth=depth)
        if kind == "sqrt2m1":
            return cfr.sqrt2_minus_1(prec_bits=prec, depth=min(depth, 60))
        if kind == "decimal":
            return cfr.expand(cfg["alpha.value"], max_depth=depth,
                              prec_bits=prec)
        if kind == "quotients":
            return cfr.from_quotients(cfg["alpha.quotients"], prec_bits=prec,
                                      pad_to=depth)
        if kind == "liouville_pow10":
            return cfr.from_quotients([10**k for k in range(1, 9)],
                                      prec_bits=max(prec, 512), pad_to=depth)
        if kind == "liouville_doubleexp":
            return cfr.from_quotients([2 ** (2**k) for k in range(1, 8)],
                                      prec_bits=max(prec, 1024), pad_to=depth)
    raise ConfigError("unknown alpha.kind %r" % kind)


def build_weight(cfg: dict) -> wt.WeightFunction:
    with _naming("weight.family, weight.param"):
        return wt.WeightFunction(cfg["weight.family"], cfg["weight.param"])


def build_grid(cfg: dict) -> np.ndarray:
    """The config lambda grid: lambda.grid_points (at least 3) evenly
    spaced points over hm.LAMBDA_DOMAIN, for kam-run and solve-homological."""
    npts = cfg["lambda.grid_points"]
    if npts < 3:
        raise ConfigError("lambda.grid_points must be at least 3")
    return np.linspace(*hm.LAMBDA_DOMAIN, npts)


def build_run(cfg: dict):
    cf = build_alpha(cfg)
    weight = build_weight(cfg)
    with _naming("bridges.A"):
        bridges = cfr.select_bridges(cf, cfg["bridges.A"])
    T = cfg["schedule.T"] if cfg["schedule.T"] > 0 else None
    with _naming("bad schedule"):
        sched = kam.make_schedule(
            cf, bridges, weight, eps0=cfg["model.eps"],
            gamma0=cfg["schedule.gamma"], tau=cfg["schedule.tau"],
            s0=cfg["schedule.s"], r0=Fraction(cfg["schedule.r"]),
            c_const=cfg["schedule.c"], T_override=T,
            L_cap=cfg["schedule.L_cap"], K_cap=cfg["schedule.K_cap"])
    grid = build_grid(cfg)
    with _naming("model.preset"):
        spec = md.build_preset(cfg["model.preset"], cfg["model.eps"], cf, grid,
                               d_max=cfg["jet.d_max"], s_domain=cfg["schedule.s"])
    return cf, weight, bridges, sched, spec


# -- output helpers --------------------------------------------------------------------


def _exit_from_rows(rows) -> int:
    """EXIT_CERT when a gating row failed, after printing their count and
    the first five of them to stderr; else EXIT_OK."""
    failed = failed_gating(rows)
    if not failed:
        return EXIT_OK
    print("failing gating rows: %d%s" % (len(failed), ", the first 5"
                                          if len(failed) > 5 else ""),
          file=sys.stderr)
    write_rows(failed[:5], sys.stderr)
    return EXIT_CERT


# -- subcommands --------------------------------------------------------------------------


def cmd_cfrac(args) -> int:
    cfg = load_config(args.config)
    if args.alpha:
        if args.alpha in ("golden", "sqrt2m1", "liouville_pow10",
                          "liouville_doubleexp"):
            cfg["alpha.kind"] = args.alpha
        else:
            cfg["alpha.kind"] = "decimal"
            cfg["alpha.value"] = args.alpha
    cfg["alpha.depth"] = args.depth
    cf = build_alpha(cfg)
    sel = None
    if args.bridges is not None:
        with _naming("--bridges with --depth"):
            sel = cfr.select_bridges(cf, args.bridges)
    print("k,a_k,q_k,selected_flag,Qbar_flag")
    for k in range(0, cf.depth + 1):
        a_k = cf.a[k] if k >= 1 else 0
        selected = int(sel is not None and k in sel.indices)
        qbar = int(sel is not None and (k - 1) in sel.indices)
        print("%d,%d,%d,%d,%d" % (k, a_k, cf.q[k], selected, qbar))
    if sel is not None:
        rows = cfr.verify_bridges(cf, sel)
        write_rows(rows, sys.stderr)
        return _exit_from_rows(rows)
    return EXIT_OK


def cmd_norms(args) -> int:
    cfg = load_config(args.config)
    _, weight, _, _, spec = build_run(cfg)
    with _naming("--widths"):
        widths = [float(Fraction(x)) for x in args.widths.split(",")]
        if min(widths) < 0:
            raise ValueError("a width must be nonnegative")
    conj = md.conjugate_to_su11(spec)
    print("series,r,norm_r,analytic_norm")
    for name, series in (("U", conj.U), ("W", conj.W)):
        for r in widths:
            ctx = fr.WeightedNormContext(weight, r)
            print("%s,%r,%r,%r" % (name, r, fr.norm_r(series, ctx),
                                   fr.analytic_norm(series, ctx)))
    return EXIT_OK


def cmd_solve(args) -> int:
    if min(args.K, args.q_next, args.qbar) < 1 or args.gamma <= 0 \
            or min(args.r_tilde, args.sigma) < 0:
        raise ConfigError("--K, --q-next and --qbar must be at least 1, "
                          "--gamma positive, --r-tilde and --sigma at least 0")
    cfg = load_config(args.config)
    cf = build_alpha(cfg)
    weight = build_weight(cfg)
    grid = build_grid(cfg)
    try:
        u, B, b = (fr.read_coeff_dump(path, grid) if path else fr.zeros(grid)
                   for path in (args.input, args.B_input, args.b_input))
    except (OSError, ValueError) as exc:
        print("cannot read input dump: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    dc = hm.dc_from_exclusion(cf, args.gamma, args.tau, args.K, grid, B)
    # the solve runs on the DC set's points alone
    u, B, b = dc.restrict_level(u, B, b)
    if not len(dc.index):
        print("the DC set keeps no lambda point", file=sys.stderr)
        return EXIT_CERT
    r0 = float(Fraction(cfg["schedule.r"]))
    setup = hm.SolveSetup(B, dc, weight=weight, q_next=args.q_next,
                          qbar_n=args.qbar, r_b=r0, sigma=args.sigma,
                          eps0=cfg["model.eps"])
    res = hm.solve_homological(b, u, args.l, setup, args.r_tilde)
    if args.out:
        fr.write_coeff_dump(args.out, res.delta, dc.index)
        fr.write_coeff_dump(args.out + ".er", res.delta_er, dc.index)
    rows = dc.exclusion_rows + res.rows
    if not B.is_zero():
        rows += hm.b_equation_rows(B, setup.bcal, args.qbar, cf, weight,
                                   r=r0, rbar=args.r_tilde, r0=r0)
    write_rows(rows, sys.stdout)
    return _exit_from_rows(rows)


def cmd_kam_run(args) -> int:
    cfg = load_config(args.config)
    cf, weight, bridges, sched, spec = build_run(cfg)
    summary = kam.run(spec, sched, n_max=cfg["run.n_max"])
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".writable")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise ConfigError("output directory not writable: %s" % exc)
    with open(os.path.join(out, "summary.csv"), "w") as fh:
        fh.write("level,r_n,eps_target,U_norm,W_norm,residual,"
                 "excluded_measure\n")
        for rec in summary.records:
            fh.write("%d,%r,%r,%r,%r,%r,%r\n" % (
                rec.level, float(rec.r), float(rec.eps_target),
                float(rec.U_norm), float(rec.W_norm), float(rec.residual),
                float(rec.excluded_measure)))
    # wall clock lives in its own file so summary.csv stays byte-identical
    # across reruns and worker counts
    with open(os.path.join(out, "timings.csv"), "w") as fh:
        fh.write("level,wall_ms\n")
        for rec in summary.records:
            fh.write("%d,%.3f\n" % (rec.level, rec.wall_ms))
    with open(os.path.join(out, "exclusions.csv"), "w") as fh:
        fh.write("level,interval_lo,interval_hi\n")
        for lvl, lo, hi in summary.exclusion_intervals:
            fh.write("%d,%r,%r\n" % (lvl, float(lo), float(hi)))
    with open(os.path.join(out, "certification.csv"), "w") as fh:
        write_rows(summary.rows, fh)
    _dump_states(out, summary)
    if summary.stopped:
        print("stopped: %s" % summary.stopped, file=sys.stderr)
        return EXIT_CERT
    return _exit_from_rows(summary.rows)


def _dump_states(out: str, summary) -> None:
    """Each level's state and the final torus at that level's points, by
    their config-grid index."""
    for st in summary.states:
        tagbase = os.path.join(out, "level%d" % st.n)
        parts = [("_V00", st.V.entry(0, 0)), ("_U0", st.U.component(0)),
                 ("_U1", st.U.component(1))]
        parts += [("_W%d%d" % (i, j), st.W.entry(i, j))
                  for i in (0, 1) for j in (0, 1)]
        for tag, s in parts:
            fr.write_coeff_dump(tagbase + tag + ".dump", s, st.lambda_index)
    # the final torus: coefficient dump plus a theta-grid table
    final = summary.states[-1]
    X1 = final.torus().component(0)
    fr.write_coeff_dump(os.path.join(out, "torus_X0.dump"), X1,
                        final.lambda_index)
    thetas = (np.arange(256) / 256.0).tolist()
    K = md.torus_K(X1.sample(len(thetas)))
    with open(os.path.join(out, "torus_K.csv"), "w") as fh:
        fh.write("lambda_index,theta,K1,K2\n")
        for i, li in enumerate(final.lambda_index.tolist()):
            fh.write("".join("%d,%r,%r,%r\n" % (li, th, k1, k2) for th, k1, k2
                             in zip(thetas, K[:, i, 0].tolist(),
                                    K[:, i, 1].tolist())))


def cmd_verify(args) -> int:
    from . import verify as vf

    suites = {
        "weights": vf.weights_suite,
        "fourier": vf.fourier_suite,
        "cfrac": vf.cfrac_suite,
        "homological": vf.homological_suite,
        "model": vf.model_suite,
        "kam": vf.kam_suite,
    }
    if args.suite != "all" and args.suite not in suites:
        print("unknown suite %r (have: all %s)"
              % (args.suite, " ".join(suites)), file=sys.stderr)
        return EXIT_CONFIG
    if args.suite == "weights":
        # dedicated table: family, param, check, worst_margin, pass
        rows = vf.weights_suite(seed=args.seed)
        print("family,param,check,worst_margin,pass")
        for r in rows:
            fam, param = vf.weights_row_origin(r)
            print("%s,%r,%s,%r,%s" % (fam, param, r.check, r.actual,
                                      "pass" if r.passed else "FAIL"))
        return _exit_from_rows(rows)
    names = list(suites) if args.suite == "all" else [args.suite]
    rows: list = []
    for name in names:
        rows += suites[name](seed=args.seed)
    write_rows(rows, sys.stdout)
    return _exit_from_rows(rows)


# -- entry point -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kamtori",
        description="Certified KAM iteration for quasi-periodically forced "
                    "area-preserving maps")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker hint; execution is sequential and "
                        "deterministic regardless")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cfrac", help="continued fraction and CD bridges")
    c.add_argument("--alpha", default="golden")
    c.add_argument("--depth", type=int, default=40)
    c.add_argument("--bridges", type=float, default=None, metavar="A")
    c.add_argument("--config", default=None)
    c.set_defaults(func=cmd_cfrac)

    c = sub.add_parser("norms", help="weighted norm tables for the preset data")
    c.add_argument("--config", default=None)
    c.add_argument("--widths", default="0.5,0.1,0.01")
    c.set_defaults(func=cmd_norms)

    c = sub.add_parser("solve-homological", help="solve one homological equation")
    c.add_argument("--input", required=True, help="coefficient dump of u")
    c.add_argument("--B-input", default=None)
    c.add_argument("--b-input", default=None)
    c.add_argument("--l", type=int, choices=(1, 2), default=1)
    c.add_argument("--K", type=int, default=16)
    c.add_argument("--gamma", type=float, default=0.05)
    c.add_argument("--tau", type=float, default=2.0)
    c.add_argument("--q-next", type=int, default=5)
    c.add_argument("--qbar", type=int, default=8)
    c.add_argument("--r-tilde", type=float, default=0.01)
    c.add_argument("--sigma", type=float, default=0.002)
    c.add_argument("--out", default=None)
    c.add_argument("--config", default=None)
    c.set_defaults(func=cmd_solve)

    c = sub.add_parser("kam-run", help="full certified iteration")
    c.add_argument("--config", default=None)
    c.add_argument("--out", default=".")
    c.set_defaults(func=cmd_kam_run)

    c = sub.add_parser("verify", help="run the invariant verification suites")
    c.add_argument("--suite", default="all")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_verify)
    return p


# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_heap_warm() -> bool:
    """On glibc, serve blocks up to 8 MiB from the heap and keep up to
    16 MiB of it free; returns whether it did.  The defaults map a block
    above the largest one freed so far and give the heap top back past
    twice that size, so the solvers' 0.3-8 MiB temporaries were faulted in
    afresh on every call (kam-run, Liouvillean alpha on 33 lambda: 148 k
    minor faults, 7.9 k with these settings; golden mean on 257 lambda:
    241 k, 14 k)."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    if not libc.startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)
    return True


def main(argv=None) -> int:
    _keep_heap_warm()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, kam.DepthError, cfr.PrecisionExhausted) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
