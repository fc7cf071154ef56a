import argparse
import csv
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from kamtori import cli
from kamtori import fourier as fr
from kamtori import homological as hm
from kamtori.reporting import CheckRow


def run_cli(args):
    return cli.main(args)


def test_cfrac_golden_fibonacci(capsys):
    code = run_cli(["cfrac", "--alpha", "golden", "--depth", "10"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k,a_k,q_k,selected_flag,Qbar_flag"
    qs = [int(line.split(",")[2]) for line in out[1:]]
    fib = [1, 1]
    while len(fib) < len(qs):
        fib.append(fib[-1] + fib[-2])
    assert qs == fib[: len(qs)]
    a_col = [int(line.split(",")[1]) for line in out[2:]]
    assert all(a == 1 for a in a_col)


def test_cfrac_with_bridges(capsys):
    code = run_cli(["cfrac", "--alpha", "golden", "--depth", "40",
                    "--bridges", "2"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    selected = [int(line.split(",")[3]) for line in out[1:]]
    assert sum(selected) >= 3


def test_unknown_config_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"nope.key": 1}))
    code = run_cli(["kam-run", "--config", str(cfgfile),
                    "--out", str(tmp_path)])
    assert code == 2
    assert "nope.key" in capsys.readouterr().err


def test_bad_config_value(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"lambda.grid_points": "many"}))
    code = run_cli(["kam-run", "--config", str(cfgfile),
                    "--out", str(tmp_path)])
    assert code == 2
    assert "lambda.grid_points" in capsys.readouterr().err


# (config, the key or phrase the message names): each exits 2 before a
# level runs; at 9.7, true, "123" and -1 nothing used to refuse the value
@pytest.mark.parametrize("config, named", [
    ({"schedule.r": "-1/2"}, "schedule.r"),
    ({"alpha.precision_bits": 64}, "alpha.precision_bits"),
    ({"schedule.L_cap": 0}, "schedule.L_cap"),
    ({"schedule.K_cap": 0}, "schedule.K_cap"),
    ({"bridges.A": 0.5}, "bridges.A"),
    ([1, 2], "JSON object"),
    ({"lambda.grid_points": 9.7}, "lambda.grid_points"),
    ({"run.n_max": True}, "run.n_max"),
    ({"alpha.kind": "quotients", "alpha.quotients": "123"}, "alpha.quotients"),
    ({"run.n_max": -1}, "run.n_max"),
], ids=["r", "precision", "L_cap", "K_cap", "A", "list", "float-int",
        "bool-int", "str-list", "n_max"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, config, named):
    if isinstance(config, dict):
        config = {"lambda.grid_points": 9, **config}
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps(config))
    assert run_cli(["kam-run", "--config", str(cfgfile),
                    "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, named", [
    (["solve-homological", "--input", "u.dump", "--K", "0"], "--K"),
    (["solve-homological", "--input", "u.dump", "--r-tilde", "-1"],
     "--r-tilde"),
    (["solve-homological", "--input", "u.dump", "--q-next", "0"],
     "--q-next"),
    (["norms", "--widths", "abc"], "--widths"),
    (["norms", "--widths=-1"], "--widths"),
    (["cfrac", "--alpha", "1.5"], "alpha must lie in (0,1)"),
    (["cfrac", "--depth", "0", "--bridges", "2"], "--depth"),
], ids=["K", "r-tilde", "q-next", "widths-abc", "widths-negative",
        "alpha", "depth"])
def test_malformed_argument_exits_2(capsys, argv, named):
    assert run_cli(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("line", ["0 0 abc 0.0", "99 0 0.1 0.0",
                                  "-1 0 0.1 0.0"],
                         ids=["not-a-number", "past-the-grid", "negative-index"])
@pytest.mark.parametrize("flag", ["--input", "--B-input"])
def test_malformed_dump_line_exits_2(tmp_path, capsys, line, flag):
    # a -1 used to be read into the last grid point
    grid = np.linspace(0.25, 0.75, 9)
    fr.write_coeff_dump(tmp_path / "u.dump",
                        fr.from_modes(grid, fr.SCALAR, {1: 1e-9}))
    bad = tmp_path / "bad.dump"
    bad.write_text("0 0 0.1 0.0\n" + line + "\n")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"lambda.grid_points": 9}))
    inputs = {"--input": tmp_path / "u.dump", flag: bad}
    argv = ["solve-homological", "--config", str(cfgfile)]
    for name, path in inputs.items():
        argv += [name, str(path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "%s line 2: not `lambda_index k re im` with 0 <= lambda_index " \
        "< 9: %r" % (bad, line) in err


def test_verify_weights_suite(capsys):
    code = run_cli(["verify", "--suite", "weights"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "family,param,check,worst_margin,pass"
    assert len(out) == 9  # header + 8 rows
    assert all(line.endswith(",pass") for line in out[1:])
    assert any(line.startswith("gevrey,0.5,") for line in out[1:])


def test_verify_all_suites(capsys):
    code = run_cli(["verify", "--suite", "all", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "check,bound,actual,pass,detail"
    assert len(out) == 49  # header + 48 rows
    assert all(",pass," in line for line in out[1:])
    # RFC 4180: a check or detail holding a comma is quoted
    assert all(len(row) == 5 for row in csv.reader(out))


def test_verify_unknown_suite(capsys):
    assert run_cli(["verify", "--suite", "nope"]) == 2


TINY = {
    "lambda.grid_points": 17,
    "run.n_max": 2,
    "alpha.depth": 60,
    "jet.d_max": 4,
    "model.eps": 1e-8,
}


def test_kam_run_outputs(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    code = run_cli(["kam-run", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ("level,r_n,eps_target,U_norm,W_norm,residual,"
                          "excluded_measure")
    assert len(summary) == 4  # header + levels 0..2
    assert (out / "exclusions.csv").exists()
    assert (out / "timings.csv").exists()
    assert (out / "certification.csv").exists()
    assert (out / "torus_K.csv").exists()
    assert (out / "level0_U0.dump").exists()
    # dump roundtrip on one exported series
    grid = np.linspace(0.25, 0.75, TINY["lambda.grid_points"])
    u0 = fr.read_coeff_dump(out / "level0_U0.dump", grid)
    assert not u0.is_zero()


def test_kam_run_determinism_across_jobs(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(TINY))
    outs = []
    for jobs, name in ((1, "a"), (8, "b")):
        out = tmp_path / name
        code = run_cli(["--jobs", str(jobs), "kam-run", "--config",
                        str(cfgfile), "--out", str(out)])
        assert code == 0
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_solve_homological_cli(tmp_path, capsys):
    grid = np.linspace(0.25, 0.75, 17)
    u = fr.from_modes(grid, fr.SCALAR, {1: 1e-9, -1: 1e-9})
    dump = tmp_path / "u.dump"
    fr.write_coeff_dump(dump, u)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"lambda.grid_points": 17}))
    out = tmp_path / "delta.dump"
    code = run_cli(["solve-homological", "--input", str(dump), "--l", "1",
                    "--K", "8", "--gamma", "0.05", "--tau", "2.0",
                    "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    assert out.exists()
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("check,")


@pytest.mark.parametrize("npts", [1, 2])
def test_short_config_grid_is_a_config_error(tmp_path, capsys, npts):
    # both commands build the config grid by one function, with its check
    grid = np.linspace(0.25, 0.75, npts)
    fr.write_coeff_dump(tmp_path / "u.dump",
                        fr.from_modes(grid, fr.SCALAR, {1: 1e-9}))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"lambda.grid_points": npts}))
    for argv in (["solve-homological", "--input", str(tmp_path / "u.dump")],
                 ["kam-run", "--out", str(tmp_path / "o")]):
        assert run_cli(argv + ["--config", str(cfgfile)]) == 2
        assert "lambda.grid_points must be at least 3" in \
            capsys.readouterr().err


def test_solve_homological_cli_shift_from_B(tmp_path, capsys):
    # B with a nonzero theta-mean: the DC set is built around lambda + [B]
    grid = np.linspace(0.25, 0.75, 17)
    u = fr.from_modes(grid, fr.SCALAR, {1: 1e-9, -1: 1e-9})
    B = fr.from_modes(grid, fr.SCALAR, {0: 1e-4, 1: 1e-5, -1: 1e-5})
    fr.write_coeff_dump(tmp_path / "u.dump", u)
    fr.write_coeff_dump(tmp_path / "B.dump", B)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"lambda.grid_points": 17}))
    code = run_cli(["solve-homological", "--input", str(tmp_path / "u.dump"),
                    "--B-input", str(tmp_path / "B.dump"), "--l", "1",
                    "--K", "8", "--gamma", "0.05", "--tau", "2.0",
                    "--config", str(cfgfile)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    shift = [r for r in out if r.startswith("DC shift matches [B]_theta,")]
    assert len(shift) == 1 and shift[0].split(",")[3] == "pass"


def test_solve_homological_cli_on_active_points(tmp_path, capsys):
    # the DC set around lambda + [B] excludes grid points (lambda~ = 1/2 at
    # least): the solve runs on the others, and the delta dump names them
    # by their index on the config grid
    grid = np.linspace(0.25, 0.75, 17)
    u = fr.from_modes(grid, fr.SCALAR, {1: 1e-9, -1: 1e-9, 2: 3e-10})
    B = fr.from_modes(grid, fr.SCALAR, {0: 1e-4, 1: 1e-5, -1: 1e-5})
    fr.write_coeff_dump(tmp_path / "u.dump", u)
    fr.write_coeff_dump(tmp_path / "B.dump", B)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"lambda.grid_points": 17}))
    out = tmp_path / "delta.dump"
    code = run_cli(["solve-homological", "--input", str(tmp_path / "u.dump"),
                    "--B-input", str(tmp_path / "B.dump"), "--l", "1",
                    "--K", "8", "--gamma", "0.05", "--tau", "2.0",
                    "--config", str(cfgfile), "--out", str(out)])
    assert code == 0        # every gating row passes
    capsys.readouterr()
    cfg = cli.load_config(str(cfgfile))
    dc = hm.dc_from_exclusion(cli.build_alpha(cfg), 0.05, 2.0, 8, grid, B)
    assert 0 < len(dc.index) < len(grid)
    for path in (out, tmp_path / "delta.dump.er"):
        index = {int(line.split()[0]) for line in
                 path.read_text().splitlines()}
        assert index <= set(dc.index.tolist())
    assert {int(line.split()[0]) for line in out.read_text().splitlines()} \
        == set(dc.index.tolist())


def test_norms_cli(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"lambda.grid_points": 9}))
    code = run_cli(["norms", "--config", str(cfgfile),
                    "--widths", "0.5,0.1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "series,r,norm_r,analytic_norm"
    assert len(out) == 5  # U and W at two widths


def test_exhaustion_exit_code(tmp_path, capsys):
    cfg = dict(TINY)
    cfg["schedule.gamma"] = 3.5    # zones swallow the whole interval
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    code = run_cli(["kam-run", "--config", str(cfgfile),
                    "--out", str(tmp_path / "o")])
    assert code == 1
    assert "exhausted" in capsys.readouterr().err


def test_exit_code_follows_gating_rows(capsys):
    soft = CheckRow("diagnostic", 1.0, 2.0, False, gating=False)
    hard = CheckRow("bound", 1.0, 2.0, False)
    assert cli._exit_from_rows([soft]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert cli._exit_from_rows([soft, hard]) == cli.EXIT_CERT
    assert capsys.readouterr().err.splitlines() == [
        "failing gating rows: 1", "check,bound,actual,pass,detail",
        "bound,1.0,2.0,FAIL,"]
    hard7 = [CheckRow("bound", 1.0, 2.0, False, "i=%d" % i) for i in range(7)]
    assert cli._exit_from_rows([soft] + hard7) == cli.EXIT_CERT
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "failing gating rows: 7, the first 5"
    assert list(csv.reader(err[2:])) == [list(r.csv_fields())
                                          for r in hard7[:5]]


def test_removed_seed_options(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli(["kam-run", "--seed", "1"])
    with pytest.raises(SystemExit):
        run_cli(["verify", "--config", "cfg.json"])
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"run.seed": 0}))
    assert run_cli(["kam-run", "--config", str(cfgfile),
                    "--out", str(tmp_path)]) == 2
    assert "run.seed" in capsys.readouterr().err


def test_removed_force_options():
    # every solve runs, so there is nothing to force
    with pytest.raises(SystemExit):
        run_cli(["kam-run", "--force"])
    with pytest.raises(SystemExit):
        run_cli(["solve-homological", "--input", "u.dump", "--force"])


def test_stopped_run_exits_1(tmp_path, capsys):
    # bridge level 5 is past the 60 partial quotients of alpha.depth: the
    # run stops on depth, and a stopped run is not a success
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "lambda.grid_points": 9, "run.n_max": 50, "alpha.depth": 60,
        "jet.d_max": 4, "model.eps": 1e-8}))
    code = run_cli(["kam-run", "--config", str(cfgfile),
                    "--out", str(tmp_path / "o")])
    assert code == 1
    assert "stopped: depth: bridge level 5 not available" in \
        capsys.readouterr().err


def test_removed_run_options(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli(["measure"])
    for key in ("run.stop_at_floor", "run.check_substitution"):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: True}))
        assert run_cli(["kam-run", "--config", str(cfgfile),
                        "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    return README.read_text().split("\n## %s\n" % title)[1].split("\n## ")[0]


def test_readme_lists_config_keys_and_commands():
    keys = set()
    for line in readme_section("Configuration").splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert keys == set(cli.CONFIG_SCHEMA)
    block = readme_section("CLI").split("```")[1]
    names = {m.group(1) for m in re.finditer(r"^([a-z][a-z-]*) {2,}", block,
                                             re.MULTILINE)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert names == set(sub.choices)


def run_generating(tmp_path, name, **extra):
    # the generating preset gives a nonzero DC shift, so the shifted
    # resonance zones reach exclusions.csv and summary.csv
    cfgfile = tmp_path / (name + ".json")
    cfgfile.write_text(json.dumps(dict(TINY, **{"model.preset": "generating"},
                                       **extra)))
    out = tmp_path / name
    code = run_cli(["kam-run", "--config", str(cfgfile), "--out", str(out)])
    return code, out


def _kam_run_summary(monkeypatch, tmp_path, name, config):
    """kam-run on config in-process: (exit code, output directory, the
    RunSummary kam.run returned)."""
    got = []
    real = cli.kam.run

    def keep(*args, **kwargs):
        got.append(real(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(cli.kam, "run", keep)
    cfgfile = tmp_path / (name + ".json")
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / name
    code = run_cli(["kam-run", "--config", str(cfgfile), "--out", str(out)])
    return code, out, got[0]


def test_kam_run_writes_only_the_points_of_each_level(monkeypatch, tmp_path):
    # the torus table and every dump hold the points of their level, named
    # by their config-grid index: the grid points outside every zone that
    # exclusions.csv lists
    config = dict(TINY, **{"model.preset": "generating"})
    code, out, summary = _kam_run_summary(monkeypatch, tmp_path, "o", config)
    assert code == 0
    grid = np.linspace(0.25, 0.75, TINY["lambda.grid_points"])
    zones = [tuple(map(float, line.split(",")[1:])) for line in
             (out / "exclusions.csv").read_text().splitlines()[1:]]
    active = np.flatnonzero(hm.IntervalUnion.full().subtract(zones)
                            .contains(grid))
    final = summary.states[-1]
    assert np.array_equal(final.lambda_index, active)
    assert 2 <= len(active) < len(grid)
    rows = (out / "torus_K.csv").read_text().splitlines()[1:]
    assert len(rows) == len(active) * 256
    assert sorted({int(r.split(",")[0]) for r in rows}) == active.tolist()
    for st in summary.states:
        dumps = [(out / ("level%d_%s.dump" % (st.n, name))).read_text()
                 for name in ("V00", "U0", "U1", "W00", "W01", "W10", "W11")]
        held = [{int(line.split()[0]) for line in text.splitlines()}
                for text in dumps if text]      # a zero series dumps nothing
        assert held and all(index == set(st.lambda_index.tolist())
                            for index in held)
    # read on the config grid, a dump holds its level's bits at its points
    u0 = fr.read_coeff_dump(out / ("level%d_U0.dump" % final.n), grid)
    assert np.array_equal(u0.restrict(active, grid[active]).data,
                          final.U.component(0).data)


def test_kam_run_csv_cells_are_numbers(tmp_path):
    _, out = run_generating(tmp_path, "out")
    for name in ("summary.csv", "timings.csv", "exclusions.csv",
                 "torus_K.csv"):
        lines = (out / name).read_text().splitlines()
        assert len(lines) > 1
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)
    with open(out / "certification.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # RFC 4180: a check or detail holding a comma is quoted
    assert rows[0] == ["check", "bound", "actual", "pass", "detail"]
    for _, bound, actual, _, _ in rows[1:]:
        float(bound)
        float(actual)


def test_run_force_is_ignored(tmp_path):
    # the solver lemma's hypotheses fail at level 0 here (||b||_rt), and the
    # a-posteriori rows certify the solves: the run passes, forced or not
    code, out = run_generating(tmp_path, "plain")
    forced_code, forced = run_generating(tmp_path, "forced",
                                         **{"run.force": True})
    assert code == forced_code == 0
    assert (out / "summary.csv").read_bytes() == \
        (forced / "summary.csv").read_bytes()
    with open(out / "certification.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert any(r[0].startswith("||b||_rt < g^2/(12 Q^{2tau^2}) [l=1] [n=0")
               and r[3] == "FAIL" for r in rows)


def _perfbench_run():
    """perfbench/run.py as a module."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_benchmark_configs_load(tmp_path):
    # a schema change that breaks a benchmark kam-run config fails here
    bench = _perfbench_run()
    configs = [w["config"] for w in bench.WORKLOADS.values()
               if w["command"] == "kam-run"]
    assert len(configs) >= 2
    for i, config in enumerate(configs):
        cfgfile = tmp_path / ("cfg%d.json" % i)
        cfgfile.write_text(json.dumps(config))
        cli.build_run(cli.load_config(str(cfgfile)))


@pytest.mark.parametrize("workload", ["golden-257", "liouville-33"])
def test_benchmark_output_check(monkeypatch, tmp_path, workload):
    # the benchmark's output check, in-process: no fewer check rows than the
    # reference, no gating row failing that passes there, and summary.csv
    # within its tolerance of the reference
    bench = _perfbench_run()
    ref = json.loads((pathlib.Path(bench.REFERENCE_DIR)
                      / (workload + ".json")).read_text())
    code, out, summary = _kam_run_summary(
        monkeypatch, tmp_path, workload, bench.WORKLOADS[workload]["config"])
    failed = [r.check for r in summary.rows if r.gating and not r.passed]
    assert summary.stopped == ""
    assert code == (1 if failed else 0)
    assert len(summary.rows) >= ref["cert_rows"]
    allowed = list(ref["gating_failed"])
    for name in failed:
        assert name in allowed, name
        allowed.remove(name)
    dev = bench.summary_deviation((out / "summary.csv").read_text(),
                                  ref["summary_csv"])
    assert dev <= bench.SUMMARY_RTOL


def test_benchmark_tracer_reads_solver_arguments(tmp_path):
    # perfbench/child.py binds solve_homological's arguments by the names
    # setup and u and reads setup.K, setup.active and u.nlambda: a traced
    # kam-run must finish and count the solves
    root = pathlib.Path(__file__).resolve().parents[1]
    (tmp_path / "cfg.json").write_text(json.dumps({
        "model.preset": "constant_forcing", "lambda.grid_points": 9,
        "run.n_max": 1}))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "run",
         str(root), "out.json", "--spans", "spans.csv", "--", "kam-run",
         "--config", "cfg.json", "--out", "res"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "out.json").read_text())
    assert record["exit"] == 0
    counters = record["counters"]
    for name in ("dense_ops", "conditioning_pairs", "max_dominance"):
        assert "homological.solve_homological." + name in counters
    assert counters["homological.solve_homological.dense_ops"] > 0
    spans = (tmp_path / "spans.csv").read_text().splitlines()
    assert any(line.split(",")[1] == "homological.solve_homological"
               for line in spans[1:])


HEAP_ROUNDS = """
import resource
import numpy as np
from kamtori import cli
cli._keep_heap_warm()
def rounds():
    for _ in range(20):
        blocks = [np.ones(1 << 17) for _ in range(3)]
        del blocks
rounds()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


def test_cli_keeps_freed_heap_for_temporaries():
    # three 1 MiB arrays made and freed, twenty rounds: glibc's defaults give
    # the 3 MiB heap top back after each round and fault it in again (9600
    # minor faults without the call); as the CLI sets it up, the pages stay
    if not cli._keep_heap_warm():
        pytest.skip("tunes glibc's allocator only")
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", HEAP_ROUNDS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100
