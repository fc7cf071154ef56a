"""Smoke test of the benchmark itself, on a tiny constant_forcing run
(golden mean, 9 lambda points, n_max 1).

    python3 perfbench/smoke.py        # from the root of a checkout

It runs `run.py --workload smoke` untraced and traced and checks that the
last line is the contract's JSON object with a correct result, that the
gated metrics and the per-layer metrics are exactly those of
BENCHMARK.json with their units, that all nine end-to-end metrics are
printed by name and unit, that the result files parse, and that the
spans of the traced process nest, so that their self times do not overlap
and sum to at most the process's wall time.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SEED = 1
# slack for the float rounding of span timestamps
EPS_S = 1e-9


class SmokeFailure(Exception):
    pass


def check(cond, what):
    if not cond:
        raise SmokeFailure(what)


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, "run.py --trace %d exited %d: %s"
          % (trace, proc.returncode, proc.stderr[-2000:]))
    last = json.loads(proc.stdout.splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          "last line keys %s" % sorted(last))
    check(last["correct"] is True and last["failed"] == 0
          and last["attempted"] >= 1, "result not correct: %s" % last)
    path = os.path.join(bench.RUNS_DIR, "smoke",
                        "seed%d-trace%d" % (SEED, trace), "result.json")
    with open(path) as fh:
        result = json.load(fh)
    return proc.stdout, last, result


def units_of(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def check_spans(traced):
    names, parents, starts, durs, selfs = bench.read_spans(traced["spans_path"])
    check(names, "no spans recorded")
    ends = [s + d for s, d in zip(starts, durs)]
    last_end = {}
    for i in sorted(range(len(names)), key=starts.__getitem__):
        p = parents[i]
        if p >= 0:
            check(starts[p] <= starts[i] + EPS_S and ends[i] <= ends[p] + EPS_S,
                  "span %s lies outside its parent %s" % (names[i], names[p]))
        check(starts[i] + EPS_S >= last_end.get(p, -1e300),
              "span %s overlaps a sibling" % names[i])
        last_end[p] = ends[i]
    check(min(selfs) >= -EPS_S, "negative self time")
    total = sum(selfs)
    check(total <= traced["wall_s"], "self times sum to %.6f s > wall %.6f s"
          % (total, traced["wall_s"]))
    return len(names), total


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(gated == {n: u for n, u in bench.END_TO_END if n in bench.GATED},
          "BENCHMARK.json end_to_end differs from run.py")
    check(layers == dict(bench.PER_LAYER),
          "BENCHMARK.json per_layer differs from run.py")

    stdout, last, result = run_bench(0)
    check(units_of(last["metrics"]) == gated, "trace 0 metrics %s"
          % units_of(last["metrics"]))
    for name, unit in bench.END_TO_END:
        check(re.search(r"^\s+%s\s+\S+\s+%s(\s|$)" % (re.escape(name),
                                                      re.escape(unit)),
                        stdout, re.M), "%s [%s] not printed" % (name, unit))
    check(set(result["end_to_end"]) == {n for n, _ in bench.END_TO_END},
          "result.json end_to_end keys")
    for key in ("nproc", "cpu_model", "python", "numpy", "blas",
                "blas_threads", "seed", "commit"):
        check(key in result["env"], "environment lacks %s" % key)
    check(result["env"]["blas_threads"] is None
          or result["env"]["blas_threads"] <= result["env"]["nproc"],
          "more BLAS threads than CPUs")

    stdout, last, result = run_bench(1)
    check(units_of(last["metrics"]) == layers, "trace 1 metrics")
    traced = [p for p in result["processes"] if p["traced"]]
    check(len(traced) == 1 and "spans_path" in traced[0], "no traced process")
    nspans, total = check_spans(traced[0])
    print("smoke ok: %d spans, self times %.4f s <= traced wall %.4f s"
          % (nspans, total, traced[0]["wall_s"]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print("smoke FAILED: %s" % exc, file=sys.stderr)
        sys.exit(1)
