"""Acceptance gate: one test per criterion, tolerances pinned, one
pass/fail line printed per criterion."""

import functools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

from kamtori import cfrac as cfr
from kamtori import cli
from kamtori import fourier as fr
from kamtori import homological as hm
from kamtori import kam
from kamtori import model as md
from kamtori import verify as vf
from kamtori.fourier import WeightedNormContext
from kamtori.weights import WeightFunction

ANALYTIC = WeightFunction("analytic")
GEVREY = WeightFunction("gevrey", 0.5)
GM = cfr.golden_mean(prec_bits=512)


def report(num, ok, detail=""):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


rand_scalar = functools.partial(vf.rand_scalar, lam_linear=False)


# -- 1: continued fractions, exact arithmetic ------------------------------------------


def test_criterion_01_continued_fractions():
    ok = True
    for name, cf in (("golden", GM), ("sqrt2-1", cfr.sqrt2_minus_1(512))):
        # exact big-rational oracle: Euclid on a 500-bit dyadic approximation
        with mpmath.workprec(512):
            num = int(mpmath.floor(cf.alpha * 2**500))
        ok &= vf.convergents_match(cf, Fraction(num, 2**500), 20)
        # bracket with exact arithmetic, zero tolerance
        ok &= all(r.passed for r in vf.best_approx_rows(cf, 19))
    report(1, ok, "q exact + bracket, depth 20, golden & sqrt2-1")


# -- 2: CD bridges ----------------------------------------------------------------------


def test_criterion_02_cd_bridges():
    sel = cfr.select_bridges(GM, 2.0)
    rows = cfr.verify_bridges(GM, sel)
    ok = all(r.passed for r in rows) and sel.levels >= 4
    lv = cfr.from_quotients([10**k for k in range(1, 9)], prec_bits=512,
                            pad_to=40)
    sel2 = cfr.select_bridges(lv, 2.0)
    rows2 = cfr.verify_bridges(lv, sel2)
    ok &= all(r.passed for r in rows2) and sel2.levels >= 3
    report(2, ok, "golden levels=%d, a_k=10^k levels=%d"
           % (sel.levels, sel2.levels))


# -- 3: Banach algebra ---------------------------------------------------------------------


def test_criterion_03_banach_algebra():
    rng = np.random.default_rng(303)
    grid = np.linspace(0.25, 0.75, 5)
    worst = max(vf.banach_ratio(rng, grid, WeightedNormContext(w, 0.05), 100,
                                lam_linear=False) for w in (GEVREY, ANALYTIC))
    ok = worst <= 1.0 + 1e-10
    report(3, ok, "200 pairs, worst ratio %.3e" % worst)


# -- 4: truncation tail --------------------------------------------------------------------


def test_criterion_04_tail_bound():
    rng = np.random.default_rng(404)
    grid = np.linspace(0.25, 0.75, 5)
    worst, rows_ok = vf.tail_ratio(rng, grid, 100, lam_linear=False)
    assert rows_ok
    report(4, worst <= 1.0, "100 trials, worst ratio %.4f" % worst)


# -- 5: solver vs dense full pivot ------------------------------------------------------------


def test_criterion_05_solver_oracle():
    rng = np.random.default_rng(505)
    grid = np.linspace(0.25, 0.75, 7)
    gamma, tau, eps0, r0 = 0.05, 2.0, 1e-3, 0.5
    # consecutive golden denominator pairs (Q_{n+1}, Qbar_{n+1}); K <= 64
    pairs = [(9, 20), (11, 15), (13, 10), (17, 5)]  # (q-index, instances)
    worst_rel, worst_bound = 0.0, 0.0
    total = 0
    for jq, count in pairs:
        q_next, qbar_next = GM.q[jq], GM.q[jq + 1]
        K = math.isqrt(qbar_next)
        assert K <= 64
        qbar_n = GM.q[jq - 1]
        for _ in range(count):
            B = rand_scalar(rng, grid, min(qbar_n - 1, 12), real=True)
            ctxb = WeightedNormContext(ANALYTIC, r0)
            B = B.scale(0.5 * eps0 ** (1 / 3)
                        / max(fr.norm_r(B, ctxb), 1e-300))
            dc = hm.dc_from_exclusion(GM, gamma, tau, K, grid, B)
            # the solve runs on the DC set's active points
            keep, dc, B = dc.restrict_level(B)
            assert len(keep)
            lgrid = dc.lambda_grid
            setup = hm.SolveSetup(B, dc, weight=ANALYTIC, q_next=q_next,
                                  qbar_n=qbar_n, r_b=r0, sigma=2e-4,
                                  eps0=eps0)
            bb = gamma**2 / 12.0 / float(q_next) ** (2 * tau**2)
            b = rand_scalar(rng, lgrid, 4, scale=1.0)
            b = b.scale(0.3 * bb / max(fr.norm_r(b, setup.ctx(1e-3)), 1e-300))
            u = rand_scalar(rng, lgrid, K + 4, scale=1e-2)
            l = int(rng.integers(1, 3))
            res = hm.solve_homological(b, u, l, setup, 1e-3)
            total += 1
            # drawn inside the lemma's hypotheses: every row holds
            assert all(r.passed for r in res.rows)
            brow = [r for r in res.rows if r.check.startswith("||delta||")][0]
            worst_bound = max(worst_bound,
                              brow.actual / max(brow.bound, 1e-300))
            assert brow.passed
            # dense rebuild at sampled points
            stride = 3 if K > 32 else 1
            rel, _ = vf.full_pivot_deviation(u, res, l, setup,
                                             range(0, len(lgrid), stride))
            worst_rel = max(worst_rel, rel)
    ok = worst_rel <= 1e-10 and total == 50
    report(5, ok, "%d instances, worst rel %.2e, bound ratio %.2e"
           % (total, worst_rel, worst_bound))


# -- 6: B-equation ---------------------------------------------------------------------------


def test_criterion_06_b_equation():
    rng = np.random.default_rng(606)
    grid = np.linspace(0.25, 0.75, 5)
    # golden bridge Qbar_2 = 8, Qbar_3 = 144
    worst_res, worst_ratio = vf.b_equation_worst(
        rng, grid, GM, 8, 144, 20, (2, 60), (0.1, 1.0), lam_linear=False)
    ok = worst_res <= 1e-14 and worst_ratio <= 1.0
    report(6, ok, "residual %.2e, bound ratio %.3f" % (worst_res, worst_ratio))


# -- 7: polar decomposition -------------------------------------------------------------------


def test_criterion_07_polar():
    rng = np.random.default_rng(707)
    grid = np.linspace(0.25, 0.75, 5)
    worst, _ = vf.polar_worst(rng, grid, 50, lam_linear=False)
    report(7, worst <= 1e-12, "50 trials, worst pointwise %.2e" % worst)


# -- 8: small divisors -------------------------------------------------------------------------


def test_criterion_08_small_divisors():
    # admissible consecutive-denominator levels (the lemma's proof needs
    # Q_{n+1} >= 4/gamma = 400): golden q_14..q_17 = 610..2584, K up to 64
    ok, worst_margin = vf.small_divisor_scan(GM, (14, 15, 16, 17))
    report(8, ok, "4 levels, worst margin %.3e, zero violations"
           % worst_margin)


# -- 9: one KAM step at desk scale --------------------------------------------------------------


def test_criterion_09_one_kam_step():
    sel = cfr.select_bridges(GM, 2.0)
    sched = kam.make_schedule(GM, sel, ANALYTIC, eps0=1e-8, gamma0=0.05,
                              tau=2.0, s0=0.5, r0="1/2", T_override=6.0,
                              K_cap=256, L_cap=24)
    grid = np.linspace(0.25, 0.75, 33)
    spec = md.build_preset("constant_forcing", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=1)
    rows = summary.rows
    u1 = [r for r in rows if r.check.startswith("||U_{n+1}")][0]
    w1 = [r for r in rows if r.check.startswith("||W_{n+1}")][0]
    contraction = [r for r in rows if "sub contraction" in r.check]
    subst = [r for r in rows if r.check.startswith("substitution oracle")]
    ok = (u1.passed and w1.passed
          and all(r.passed for r in contraction)
          and subst and all(r.passed for r in subst))
    report(9, ok, "U1=%.2e<=%.2e, %d contraction rows, subst %.2e"
           % (u1.actual, u1.bound, len(contraction), subst[0].actual))


# -- 10: Liouvillean stress -----------------------------------------------------------------------


def test_criterion_10_liouvillean_stress():
    lv = cfr.from_quotients([2 ** (2**k) for k in range(1, 8)],
                            prec_bits=1024, pad_to=60)
    sel = cfr.select_bridges(lv, 2.0)
    sched = kam.make_schedule(lv, sel, ANALYTIC, eps0=1e-8, gamma0=0.05,
                              tau=2.0, s0=0.5, r0="1/2", T_override=6.0,
                              K_cap=256, L_cap=24)
    grid = np.linspace(0.25, 0.75, 33)
    spec = md.build_preset("constant_forcing", 1e-8, lv, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=3)
    res = [rec.residual for rec in summary.records]
    floor = 1e-13
    ok = (summary.stopped == "" and len(res) == 4
          and all(res[i + 1] <= res[i] or res[i + 1] <= floor
                  for i in range(3))
          and res[3] <= 1e-2 * res[0])
    report(10, ok, "residuals %s" % ", ".join("%.2e" % x for x in res))


# -- 11: area preservation ------------------------------------------------------------------------


def test_criterion_11_area_preservation():
    sel = cfr.select_bridges(GM, 2.0)
    sched = kam.make_schedule(GM, sel, ANALYTIC, eps0=1e-8, gamma0=0.05,
                              tau=2.0, s0=0.5, r0="1/2", T_override=6.0,
                              K_cap=64, L_cap=16)
    grid = np.linspace(0.25, 0.75, 17)
    spec = md.build_preset("generating", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=2)
    final = summary.states[-1]
    # each level factor on its lambda points (the rows), the composition of
    # the levels so far on the points each level keeps
    worst = max(r.actual for r in summary.rows
                if r.check == "composed factor det-1 <= 1e-8")
    worst_total = max(fr.det_minus_one(st.transform.matrix).sup_bound()
                      for st in summary.states[1:])
    row = md.check_area(spec.restrict(final.lambda_index, final.lambda_grid))
    ok = worst <= 1e-8 and worst_total <= 1e-8 and row.actual <= 1e-8
    report(11, ok, "factor det %.2e, end-to-end %.2e, map %.2e"
           % (worst, worst_total, row.actual))


# -- 12: measure estimate -------------------------------------------------------------------------


def test_criterion_12_measure():
    sel = cfr.select_bridges(GM, 2.0)
    sched = kam.make_schedule(GM, sel, ANALYTIC, eps0=1e-8, gamma0=0.05,
                              tau=2.0, s0=0.5, r0="1/2", T_override=6.0,
                              K_cap=256, L_cap=24)
    grid = np.linspace(0.25, 0.75, 33)
    # closed-form oracle at level 0 with B = 0
    dc = hm.dc_from_exclusion(GM, sched.gamma(0), sched.tau, sched.K(0), grid)
    dev = vf.exclusion_deviation(dc)
    ok = dev <= 1e-12
    # full-run bound
    spec = md.build_preset("constant_forcing", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=3)
    total = sum(rec.excluded_measure for rec in summary.records)
    eta_sum = float(mpmath.zeta(2)) - 1.25
    bound = 4 * sched.gamma0 * eta_sum * float(mpmath.zeta(sched.tau)) * 1.1
    ok &= total <= bound
    report(12, ok, "oracle dev %.2e, total %.4f <= %.4f"
           % (dev, total, bound))


# -- 13: determinism ------------------------------------------------------------------------------


def test_criterion_13_determinism(tmp_path):
    cfg = {"lambda.grid_points": 17, "run.n_max": 2, "alpha.depth": 60,
           "jet.d_max": 4, "model.eps": 1e-8}
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    blobs = []
    for jobs, tag in ((1, "a"), (8, "b")):
        out = tmp_path / tag
        code = cli.main(["--jobs", str(jobs), "kam-run", "--config",
                         str(cfgfile), "--out", str(out)])
        assert code == 0
        blobs.append((out / "summary.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(13, ok, "summary.csv byte-identical for --jobs 1 vs 8")
