"""The kamtori benchmark.

    python3 perfbench/run.py --workload golden-257 --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports kamtori from
`src/` there and nowhere else.  Each workload is run as fresh kamtori
processes, one after another (a closed loop with one client: the program
is single-threaded).  With `--trace 0` it launches processes until the next
one would end after `--seconds` (at least one), times each from launch to
exit, times set-up in separate probe processes, checks every output, and
prints the nine end-to-end metrics.  With `--trace 1` it runs the workload
once untraced and once with every public function of the eight modules
wrapped from outside, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the full record is written to
`.bench_runs/<workload>/seed<seed>-trace<t>/result.json`.

`--record-reference` runs the workload once and stores its outputs as the
reference the output checks compare against (see NOTES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
RUNS_DIR = ".bench_runs"

WORKLOADS = {
    # large coefficient products over a wide lambda grid (ROADMAP W2)
    "golden-257": {"command": "kam-run", "config": {
        "alpha.kind": "golden", "model.preset": "generating",
        "lambda.grid_points": 257, "run.n_max": 3, "run.force": True}},
    # Liouvillean regime, K up to 256: dense solves (ROADMAP W3); exits 1
    "liouville-33": {"command": "kam-run", "config": {
        "alpha.kind": "liouville_doubleexp", "model.preset": "generating",
        "lambda.grid_points": 33, "jet.d_max": 4, "run.n_max": 3,
        "run.force": True}},
    # many tiny series and the full-pivot oracles; the only seeded workload
    "verify-all": {"command": "verify"},
    # the benchmark's own smoke test (perfbench/smoke.py); not in BENCHMARK.json
    "smoke": {"command": "kam-run", "config": {
        "model.preset": "constant_forcing", "lambda.grid_points": 9,
        "run.n_max": 1}},
}

# (name, unit); the first four never read 0 and are the gated ones in
# BENCHMARK.json, the other five are enforced by the output checks
END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
    ("cert_rows", "count"), ("failed_share", "ratio"),
    ("gating_fail_rows", "count"), ("residual_final", "abs"),
    ("summary_rel_dev", "rel"), ("nonnumeric_cells", "count"),
]
GATED = ("wall_s", "setup_s", "peak_rss_mb", "cert_rows")

PER_LAYER = [
    ("fourier.multiply.calls", "count"), ("fourier.multiply.self_s", "s"),
    ("fourier.multiply.conv_ops", "count"),
    ("fourier.multiply.bytes_computed", "bytes"),
    ("fourier.multiply.kept_ratio", "ratio"),
    ("fourier.exp_i_scalar.calls", "count"), ("fourier.exp_i_scalar.self_s", "s"),
    ("fourier.exp_su11.calls", "count"), ("fourier.exp_su11.self_s", "s"),
    ("fourier.inverse_one_plus.calls", "count"),
    ("fourier.inverse_one_plus.self_s", "s"),
    ("fourier.norm_r.calls", "count"), ("fourier.norm_r.self_s", "s"),
    ("fourier.norm_r.coeffs", "count"),
    ("homological.solve_homological.calls", "count"),
    ("homological.solve_homological.self_s", "s"),
    ("homological.solve_homological.dense_ops", "count"),
    ("homological.solve_homological.conditioning_pairs", "count"),
    ("homological.solve_homological.max_dominance", "norm"),
    ("homological.solve_b_equation.self_s", "s"),
    ("homological.polar_decompose.calls", "count"),
    ("homological.polar_decompose.self_s", "s"),
    ("homological.resonance_zones.self_s", "s"),
    ("homological.certify_small_divisor.self_s", "s"),
    ("kam.level1_s", "s"), ("kam.level2_s", "s"), ("kam.level3_s", "s"),
    ("kam.sub_iteration_step.calls", "count"),
    ("kam.sub_iteration_step.self_s", "s"),
    ("kam.sub_steps_progress_ratio", "ratio"),
    ("kam.substitution_defect.self_s", "s"),
    ("kam.exclude_resonances.self_s", "s"),
    ("kam.K_max", "count"), ("kam.active_points", "count"),
    ("model.residual.calls", "count"), ("model.residual.self_s", "s"),
    ("model.reconstruct_torus.self_s", "s"),
    ("model.conjugate_to_su11.self_s", "s"),
    ("cfrac.expand_s", "s"), ("cfrac.select_bridges_s", "s"),
    ("cli.export_s", "s"), ("cli.export_bytes", "bytes"),
    ("verify.weights_s", "s"), ("verify.fourier_s", "s"),
    ("verify.cfrac_s", "s"), ("verify.homological_s", "s"),
    ("verify.model_s", "s"), ("verify.kam_s", "s"),
    ("trace.overhead_s", "s"),
]

SETUP_PROBES = 15
# one BLAS thread: the program is single-threaded and a second BLAS thread
# competes with the interpreter on a 2-CPU machine; recorded in every result
BLAS_THREADS = 1
RUN_DEADLINE_S = 170.0
# summary.csv against the reference: |x - ref| / max(|ref|, FLOOR * max|col|)
SUMMARY_RTOL = 1e-6
SUMMARY_FLOOR = 1e-6
# numeric columns of each output CSV (None: every column)
CSV_NUMERIC = {"summary.csv": None, "timings.csv": None,
               "exclusions.csv": None, "torus_K.csv": None,
               "certification.csv": ("bound", "actual")}
KEEP_OUTPUTS = ("summary.csv", "certification.csv")
ROW_RE = re.compile(r"^(.*?),([^,]*),([^,]*),(pass|FAIL),(.*)$")
WRAPPED_RE = re.compile(r"^np\.float64\((.*)\)$")


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad reference)."""


# -- small helpers -------------------------------------------------------------


def tail_percentile(values):
    """Highest of p99.9..p75 with at least ten samples above it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(values, n=1000,
                                           method="inclusive")[int(p * 10) - 1]
    return None


def parse_cell(text):
    """(value, wrapped) for a numeric cell; value None if unparseable."""
    try:
        return float(text), False
    except ValueError:
        m = WRAPPED_RE.match(text)
        if m:
            try:
                return float(m.group(1)), True
            except ValueError:
                pass
    return None, False


def read_csv(path):
    """(header, rows of cells); check-row files are split by ROW_RE."""
    with open(path) as fh:
        lines = fh.read().splitlines() or [""]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if header[:4] == ["check", "bound", "actual", "pass"]:
            m = ROW_RE.match(line)
            rows.append(list(m.groups()) if m else [line])
        else:
            rows.append(line.split(","))
    return header, rows


def count_cells(path, numeric):
    """(wrapped np.float64 cells, unparseable cells) in the numeric columns."""
    header, rows = read_csv(path)
    if numeric is not None and not set(numeric) <= set(header):
        return 0, 1 + len(rows)
    cols = range(len(header)) if numeric is None else \
        [header.index(c) for c in numeric]
    wrapped = bad = 0
    for row in rows:
        if len(row) != len(header):
            bad += 1
            continue
        for c in cols:
            value, w = parse_cell(row[c])
            wrapped += w
            bad += value is None
    return wrapped, bad


def summary_deviation(text, ref_text):
    """Largest deviation of summary.csv from the reference (inf if the
    shape differs or a cell does not parse)."""
    rows = [line.split(",") for line in text.splitlines()]
    ref = [line.split(",") for line in ref_text.splitlines()]
    if len(rows) != len(ref) or rows[0] != ref[0] or \
            any(len(r) != len(ref[0]) for r in rows[1:] + ref[1:]):
        return math.inf
    vals = [[parse_cell(c)[0] for c in r] for r in rows[1:]]
    refs = [[parse_cell(c)[0] for c in r] for r in ref[1:]]
    if any(v is None for r in vals + refs for v in r):
        return math.inf
    worst = 0.0
    for col in range(len(ref[0])):
        scale = SUMMARY_FLOOR * max(abs(r[col]) for r in refs)
        for v, r in zip(vals, refs):
            if v[col] != r[col]:
                denom = max(abs(r[col]), scale)
                worst = max(worst, abs(v[col] - r[col]) / denom
                            if denom > 0 else math.inf)
    return worst


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def sha256_of(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# -- the runner ----------------------------------------------------------------


class Runner:
    """Launches child processes one at a time and checks their outputs."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.work = os.path.join(root, RUNS_DIR, workload,
                                 "seed%d-trace%d" % (seed, trace))
        self.child_pid = None
        src = os.path.join(root, "src", "kamtori")
        self.source_sha = sha256_of(sorted(
            os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py")))
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.reference = None

    # processes

    def remaining(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, args, stdout_path, stderr_path):
        """Run child.py with args; returns (exit code, wall s, peak RSS MiB,
        CPU s)."""
        if self.remaining() <= 0:
            raise BenchError("out of time before launching %s" % args[0])
        cmd = [sys.executable, CHILD] + args
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            self.child_pid = proc.pid
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            self.child_pid = None
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)

    def kill_child(self):
        pid = self.child_pid
        if pid is not None:
            self.child_pid = None
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass

    # set-up probes

    def setup_probes(self, first, stop):
        d = os.path.join(self.work, "setup")
        os.makedirs(d, exist_ok=True)
        args = ["--verify"] if self.spec["command"] == "verify" else \
            ["--config", self.config_path]
        times, env, problems = [], None, []
        for i in range(first, stop):
            out = os.path.join(d, "probe%d.json" % i)
            rc = self.spawn(["setup", self.root, out] + args,
                            out + ".stdout", out + ".stderr")[0]
            if rc != 0 or not os.path.exists(out):
                problems.append("set-up probe %d exited %d" % (i, rc))
                continue
            with open(out) as fh:
                rec = json.load(fh)
            times.append(rec["setup_s"])
            env = env or rec["env"]
        return times, env, problems

    # one workload process

    def cli_args(self, outdir):
        if self.spec["command"] == "verify":
            return ["verify", "--suite", "all", "--seed", str(self.seed)]
        return ["kam-run", "--config", self.config_path, "--out", outdir]

    def run_once(self, tag, traced=False):
        d = os.path.join(self.work, tag)
        outdir = os.path.join(d, "out")
        os.makedirs(outdir)
        sidecar = os.path.join(d, "rows.json")
        spans = os.path.join(d, "spans.csv")
        opts = ["--spans", spans] if traced else []
        stdout = os.path.join(d, "stdout.txt")
        rc, wall, rss, cpu = self.spawn(
            ["run", self.root, sidecar] + opts + ["--"] + self.cli_args(outdir),
            stdout, os.path.join(d, "stderr.txt"))
        rec = {"tag": tag, "exit": rc, "wall_s": wall, "peak_rss_mb": rss,
               "cpu_s": cpu, "traced": traced, "dir": d}
        rec.update(self.check(rc, d, outdir, sidecar, stdout))
        rec["export_bytes"] = dir_bytes(outdir) + os.path.getsize(stdout)
        # checked already; drop the large files so repeated runs do not
        # fill the disk of the checkout
        for f in os.listdir(outdir):
            if f not in KEEP_OUTPUTS:
                os.remove(os.path.join(outdir, f))
        if traced and os.path.exists(spans):
            rec["spans_path"] = spans
        return rec

    def check(self, rc, d, outdir, sidecar, stdout):
        """Output checks of one process against the stored reference."""
        problems = []
        res = {"problems": problems, "cert_rows": 0, "gating_failed": [],
               "nonnumeric_cells": 0, "summary_rel_dev": None,
               "residual_final": None, "digest": None}
        if not os.path.exists(sidecar):
            with open(os.path.join(d, "stderr.txt"), errors="replace") as fh:
                tail = fh.read()[-400:]
            problems.append("exit %d without a row record: %s" % (rc, tail))
            return res
        with open(sidecar) as fh:
            side = json.load(fh)
        res["counters"] = side.get("counters")
        res["spans"] = side.get("spans")
        res["cert_rows"] = side["rows"]
        res["gating_failed"] = side["gating_failed"]
        expected_rc = 1 if side["gating_failed"] or side["stopped"] else 0
        if rc != expected_rc:
            problems.append("exit code %d, rows imply %d" % (rc, expected_rc))
        if side["stopped"]:
            problems.append("run stopped early: %s" % side["stopped"])
        ref = self.reference
        if ref is not None:
            if side["rows"] < ref["cert_rows"]:
                problems.append("%d check rows, reference has %d"
                                % (side["rows"], ref["cert_rows"]))
            allowed = list(ref["gating_failed"])
            for name in side["gating_failed"]:
                if name in allowed:
                    allowed.remove(name)
                else:
                    problems.append("gating row fails, passes in reference: "
                                    + name)
        if self.spec["command"] == "verify":
            files = {stdout: ("bound", "actual")}
            header, rows = read_csv(stdout)
            if len(rows) != side["rows"]:
                problems.append("%d rows printed, %d returned"
                                % (len(rows), side["rows"]))
            res["digest"] = sha256_of([stdout])
        else:
            files = {os.path.join(outdir, f): cols
                     for f, cols in CSV_NUMERIC.items()}
            summary = os.path.join(outdir, "summary.csv")
            if os.path.exists(summary):
                with open(summary) as fh:
                    text = fh.read()
                res["summary_csv"] = text
                res["digest"] = hashlib.sha256(text.encode()).hexdigest()
                last = text.splitlines()[-1].split(",")
                res["residual_final"] = parse_cell(last[5])[0]
                if ref is not None:
                    dev = summary_deviation(text, ref["summary_csv"])
                    res["summary_rel_dev"] = dev
                    if not dev <= SUMMARY_RTOL:
                        problems.append("summary.csv deviates from the "
                                        "reference by %.3g" % dev)
        for path, cols in files.items():
            if not os.path.exists(path):
                problems.append("missing output " + os.path.basename(path))
                continue
            wrapped, bad = count_cells(path, cols)
            res["nonnumeric_cells"] += wrapped + bad
            if bad:
                problems.append("%d cells of %s do not parse even unwrapped"
                                % (bad, os.path.basename(path)))
        return res

    # determinism across repeats and across runs of the same code

    def check_determinism(self, records):
        problems = []
        digests = {r["digest"] for r in records if r["digest"]}
        if len(digests) > 1:
            problems.append("output differs between repeats of one run")
        if len(digests) != 1:
            return problems
        what = "stdout" if self.spec["command"] == "verify" else "summary.csv"
        key = "%s|seed%d|%s" % (self.name, self.seed, self.source_sha) \
            if self.spec["command"] == "verify" else \
            "%s|%s" % (self.name, self.source_sha)
        path = os.path.join(self.root, RUNS_DIR, "digests.json")
        known = {}
        if os.path.exists(path):
            with open(path) as fh:
                known = json.load(fh)
        digest = digests.pop()
        if known.setdefault(key, digest) != digest:
            problems.append("%s differs from an earlier run of the same code"
                            % what)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1)
        os.replace(tmp, path)
        return problems

    # the whole run

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config_path = os.path.join(self.work, "config.json")
        if "config" in self.spec:
            with open(self.config_path, "w") as fh:
                json.dump(self.spec["config"], fh, indent=1)
        ref_path = os.path.join(REFERENCE_DIR, self.name + ".json")
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                self.reference = json.load(fh)

    def run(self):
        self.prepare()
        if self.reference is None:
            raise BenchError("no reference for workload %s; record one with "
                             "--record-reference" % self.name)
        # set-up is probed before and after the workload processes, so that
        # one slow spell of the machine does not set the whole median
        setup, env, problems = self.setup_probes(0, SETUP_PROBES // 2)
        records = []
        if self.trace:
            records.append(self.run_once("untraced"))
            records.append(self.run_once("traced", traced=True))
        else:
            t0 = time.monotonic()
            while True:
                records.append(self.run_once("p%d" % len(records)))
                elapsed = time.monotonic() - t0
                if elapsed + elapsed / len(records) > self.seconds or \
                        self.remaining() < 2.0 * elapsed / len(records) + 5.0:
                    break
        more, _, more_problems = self.setup_probes(SETUP_PROBES // 2,
                                                   SETUP_PROBES)
        setup += more
        problems += more_problems + self.check_determinism(records)
        return self.result(setup, env, records, problems)

    def record_reference(self):
        self.prepare()
        self.reference = None
        rec = self.run_once("reference")
        if rec["exit"] not in (0, 1) or rec["problems"]:
            raise BenchError("reference run failed: %s" % rec["problems"])
        ref = {"cert_rows": rec["cert_rows"],
               "gating_failed": rec["gating_failed"],
               "summary_csv": rec.get("summary_csv"),
               "source_sha256": self.source_sha}
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(os.path.join(REFERENCE_DIR, self.name + ".json"), "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        return ref

    # results

    def environment(self, env):
        try:
            nproc = len(os.sched_getaffinity(0))
        except AttributeError:
            nproc = os.cpu_count()
        rec = {"nproc": nproc, "cpu_model": cpu_model(),
               "blas_threads_requested": BLAS_THREADS, "seed": self.seed,
               "commit": commit_of(self.root),
               "source_sha256": self.source_sha, "seconds": self.seconds}
        rec.update(env or {})
        return rec

    def result(self, setup, env, records, problems):
        walls = [r["wall_s"] for r in records if not r["traced"]]
        failed_runs = [r for r in records if r["problems"]]
        e2e = {
            "wall_s": timing(walls),
            "setup_s": timing(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
            "cert_rows": min(r["cert_rows"] for r in records),
            "failed_share": sum(1 for r in records
                                if r["exit"] != 0 or r["problems"])
            / len(records),
            "gating_fail_rows": max(len(r["gating_failed"]) for r in records),
            "residual_final": records[-1]["residual_final"],
            "summary_rel_dev": max((r["summary_rel_dev"] for r in records
                                    if r["summary_rel_dev"] is not None),
                                   default=None),
            "nonnumeric_cells": max(r["nonnumeric_cells"] for r in records),
        }
        layers = None
        if self.trace:
            layers = layer_metrics(records[1], records[0]["wall_s"])
        all_problems = problems + [p for r in records for p in r["problems"]]
        return {
            "workload": self.name, "trace": self.trace,
            "loop": "closed, one client", "env": self.environment(env),
            "end_to_end": e2e, "per_layer": layers,
            "failing_gating_rows": records[-1]["gating_failed"],
            "problems": all_problems,
            "processes": [{k: v for k, v in r.items()
                           if k not in ("summary_csv", "counters")}
                          for r in records],
            "correct": not all_problems,
            "attempted": len(records),
            "failed": max(len(failed_runs), 1 if problems else 0),
        }


def timing(values):
    """Median, tail percentile and sample count of a list of times."""
    if not values:
        return {"median": math.nan, "n": 0, "tail": None}
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail": None if tail is None else {"p": tail[0], "value": tail[1]}}


# -- per-layer metrics from the spans of the traced process -----------------------


def read_spans(path):
    names, parents, durs, bks, starts = [], [], [], [], []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, name, parent, _, start, end, bk = line.rstrip("\n").split(",")
            names.append(name)
            parents.append(int(parent))
            starts.append(float(start))
            durs.append(float(end) - float(start))
            bks.append(float(bk))
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += durs[i]
    selfs = [d - c - b for d, c, b in zip(durs, child, bks)]
    return names, parents, starts, durs, selfs


def layer_metrics(traced, untraced_wall):
    """The PER_LAYER metrics of one traced process."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    if "spans_path" not in traced:
        return m
    names, parents, starts, durs, selfs = read_spans(traced["spans_path"])
    calls, self_s, incl = {}, {}, {}
    for n, d, s in zip(names, durs, selfs):
        calls[n] = calls.get(n, 0) + 1
        self_s[n] = self_s.get(n, 0.0) + s
        incl[n] = incl.get(n, 0.0) + d
    for key in m:
        base, _, stat = key.rpartition(".")
        if stat == "calls":
            m[key] = calls.get(base, 0)
        elif stat == "self_s":
            m[key] = self_s.get(base, 0.0)
    # levels: the i-th kam_step under each kam.run span is level i
    steps = {}
    for i, n in enumerate(names):
        if n == "kam.kam_step":
            steps.setdefault(parents[i], []).append(i)
    for idxs in steps.values():
        for level, i in enumerate(sorted(idxs, key=starts.__getitem__), 1):
            if level <= 3:
                m["kam.level%d_s" % level] += durs[i]
    m["cfrac.expand_s"] = sum(self_s.get("cfrac." + f, 0.0) for f in
                              ("expand", "from_quotients", "golden_mean",
                               "sqrt2_minus_1"))
    m["cfrac.select_bridges_s"] = incl.get("cfrac.select_bridges", 0.0)
    m["cli.export_s"] = incl.get("cli._dump_states", 0.0) + sum(
        s for n, s in self_s.items() if n.startswith("cli.cmd_"))
    m["cli.export_bytes"] = traced["export_bytes"]
    for suite in ("weights", "fourier", "cfrac", "homological", "model", "kam"):
        m["verify.%s_s" % suite] = incl.get("verify.%s_suite" % suite, 0.0)
    c = traced.get("counters") or {}
    m["fourier.multiply.conv_ops"] = c.get("fourier.multiply.conv_ops", 0)
    m["fourier.multiply.bytes_computed"] = c.get(
        "fourier.multiply.bytes_computed", 0)
    sumset = c.get("fourier.multiply.sumset_modes", 0)
    m["fourier.multiply.kept_ratio"] = \
        c.get("fourier.multiply.kept_modes", 0) / sumset if sumset else 0.0
    m["fourier.norm_r.coeffs"] = c.get("fourier.norm_r.coeffs", 0)
    for k in ("dense_ops", "conditioning_pairs", "max_dominance"):
        key = "homological.solve_homological." + k
        m[key] = c.get(key, 0)
    sub = c.get("kam.sub_steps", 0)
    m["kam.sub_steps_progress_ratio"] = \
        c.get("kam.sub_steps_progress", 0) / sub if sub else 0.0
    m["kam.K_max"] = c.get("kam.K_max", 0)
    m["kam.active_points"] = c.get("kam.active_points", 0)
    m["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return m


# -- output ----------------------------------------------------------------------


def fmt(v):
    if v is None:
        return "n/a"
    return "%.6g" % v if isinstance(v, float) else str(v)


def group_rows(names):
    """{check: [tags]} for row names of the form 'check [tag]'."""
    groups = {}
    for name in names:
        base, _, tag = name.partition(" [")
        groups.setdefault(base, []).append(tag.rstrip("]"))
    return groups


def print_report(res):
    env = res["env"]
    print("workload %s  seed %d  trace %d  loop: %s  processes %d"
          % (res["workload"], env["seed"], res["trace"], res["loop"],
             res["attempted"]))
    print("env: nproc %s | cpu %s | python %s | numpy %s | %s | blas threads "
          "%s (requested %s) | commit %s | src sha256 %s"
          % (env["nproc"], env["cpu_model"], env.get("python"),
             env.get("numpy"), env.get("blas"), env.get("blas_threads"),
             env["blas_threads_requested"], env["commit"],
             env["source_sha256"][:16]))
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        v = res["end_to_end"][name]
        if isinstance(v, dict):
            tail = "no percentile above the median with 10 samples beyond " \
                "it" if v["tail"] is None else \
                "p%g %s" % (v["tail"]["p"], fmt(v["tail"]["value"]))
            print("  %-18s %-12s %-6s median of n=%d; %s"
                  % (name, fmt(v["median"]), units[name], v["n"], tail))
        else:
            print("  %-18s %-12s %s" % (name, fmt(v), units[name]))
    fails = res["failing_gating_rows"]
    if fails:
        print("  failing gating rows (%d):" % len(fails))
        for base, tags in group_rows(fails).items():
            where = "" if tags == [""] else \
                "  [%s]" % tags[0] if len(tags) == 1 else \
                "  [%s] .. [%s]" % (tags[0], tags[-1])
            print("    %3d x %s%s" % (len(tags), base, where))
    if res["per_layer"] is not None:
        for name, unit in PER_LAYER:
            print("  %-50s %-14s %s" % (name, fmt(res["per_layer"][name]), unit))
    for p in res["problems"]:
        print("  PROBLEM: " + p)


def final_line(res):
    if res["trace"]:
        metrics = {n: {"value": res["per_layer"][n], "unit": u}
                   for n, u in PER_LAYER}
    else:
        units = dict(END_TO_END)
        metrics = {}
        for n in GATED:
            v = res["end_to_end"][n]
            metrics[n] = {"value": v["median"] if isinstance(v, dict) else v,
                          "unit": units[n]}
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None   # only when set-up or a run broke: not correct
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "kamtori", "cli.py")):
        print("no kamtori source tree at %s/src/kamtori; run from the root of "
              "a checkout" % root, file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.seconds, args.trace)

    def on_term(signum, frame):
        runner.kill_child()
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)
    try:
        if args.record_reference:
            ref = runner.record_reference()
            print("recorded reference for %s: %d rows, %d failing gating rows"
                  % (args.workload, ref["cert_rows"],
                     len(ref["gating_failed"])))
            return 0
        res = runner.run()
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        runner.kill_child()
    with open(os.path.join(runner.work, "result.json"), "w") as fh:
        json.dump(res, fh, indent=1, default=str)
    print_report(res)
    print(final_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
