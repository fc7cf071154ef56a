"""Invariant verification suites behind `kamtori verify`.

Each suite returns CheckRow lists; one row per certified property, built
from deterministic seeded instances so reruns are bit-identical.  The
random series, the full-pivot solve and the dense rebuild of the solver's
truncated system are the oracles the test suite shares.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import cfrac as cfr
from . import fourier as fr
from . import homological as hm
from . import kam
from . import model as md
from . import weights as wt
from .reporting import CheckRow

GRID5 = np.linspace(0.25, 0.75, 5)


def rand_scalar(rng, grid, support, scale=1.0, real=False,
                lam_linear=True) -> fr.FourierSeries:
    """Random trig polynomial; lambda-dependence at most linear so the
    finite-difference norm calculus stays exact.

    The draws, in order: the slope (if lam_linear), then per mode k = 1 ..
    support the real and imaginary parts of f_k and, unless real, of
    f_{-k}, then f_0 (if real)."""
    grid = np.asarray(grid, float)
    slope = rng.standard_normal() if lam_linear else 0.0
    profile = 1.0 + 0.3 * slope * (grid - 0.5)
    z = rng.standard_normal((support, 2 if real else 4))
    pos = scale * (z[:, 0] + 1j * z[:, 1])[:, None] * profile
    if real:
        neg = np.conj(pos)
        mid = [np.full((1, len(grid)), scale * rng.standard_normal())]
    else:
        neg = scale * (z[:, 2] + 1j * z[:, 3])[:, None] * profile
        mid = []
    modes = np.arange(-support, support + 1)
    if not real:
        modes = modes[modes != 0]
    data = np.concatenate([neg[::-1]] + mid + [pos])
    return fr._cleaned(grid, fr.SCALAR, modes, data)


# -- weights ---------------------------------------------------------------------


def weights_suite(seed: int = 0) -> list:
    rows = []
    fams = [wt.WeightFunction("analytic"), wt.WeightFunction("gevrey", 0.5),
            wt.WeightFunction("exp_log_pow", 0.5),
            wt.WeightFunction("log_pow", 2.0)]
    for w in fams:
        rows.append(wt.check_h1(w, 1000, seed=seed))
    # Gamma is eventually monotone; each family turns at a known point
    # (analytic: e, gevrey delta: e^{1/delta}, exp_log_pow sigma:
    # exp(((2-s)/s)^{1/s})), so the grids start above it
    grids = {
        "analytic": np.array([3.0, 10.0, 100.0, 1e4, 1e6]),
        "gevrey": np.array([10.0, 100.0, 1e4, 1e6]),
        "exp_log_pow": np.array([1e4, 1e6, 1e8, 1e10]),
        "log_pow": np.array([3.0, 10.0, 100.0, 1e4, 1e6]),
    }
    for w in fams:
        r = wt.check_h2_monotone(w, grids[w.family])
        rows.append(CheckRow("H2 Gamma monotone (%s)" % w.family, r.bound,
                             r.actual, r.passed, "eventual range"))
    return rows


_WEIGHT_PARAMS = {"analytic": 0.0, "gevrey": 0.5, "exp_log_pow": 0.5,
                  "log_pow": 2.0}


def weights_row_origin(row: CheckRow) -> tuple:
    """(family, param) a weights-suite row refers to (for the CSV table)."""
    text = row.check + " " + row.detail
    for fam in ("exp_log_pow", "log_pow", "gevrey", "analytic"):
        if fam in text:
            return fam, _WEIGHT_PARAMS[fam]
    return "", 0.0


# -- fourier ---------------------------------------------------------------------


def fourier_suite(seed: int = 0) -> list:
    rows = []
    rng = np.random.default_rng(1000 + seed)
    grid = GRID5
    n = 4096

    for w, tag in ((wt.WeightFunction("analytic"), "analytic"),
                   (wt.WeightFunction("gevrey", 0.5), "gevrey")):
        ctx = fr.WeightedNormContext(w, 0.05)
        worst = 0.0
        for _ in range(200):
            f = rand_scalar(rng, grid, rng.integers(1, 33))
            g = rand_scalar(rng, grid, rng.integers(1, 33))
            num = fr.norm_r(fr.multiply(f, g), ctx)
            den = fr.norm_r(f, ctx) * fr.norm_r(g, ctx)
            if den > 0:
                worst = max(worst, num / den)
        rows.append(CheckRow("Banach algebra ||fg|| <= ||f|| ||g|| (%s)" % tag,
                             1.0 + 1e-10, worst, worst <= 1.0 + 1e-10,
                             "200 trials"))

    f = rand_scalar(rng, grid, 10)
    t, tail = f.truncate(5), f.project_tail(5)
    part = (t + tail) - f
    rows.append(CheckRow("truncate/tail exact partition", 0.0,
                         part.sup_bound(), part.is_zero()))

    favg = f.average()
    quad = f.sample(n).mean(axis=0)
    dev = float(np.abs(favg - quad).max())
    rows.append(CheckRow("average equals quadrature", 1e-12, dev, dev <= 1e-12))

    g = rand_scalar(rng, grid, 8)
    prod = fr.multiply(f, g)
    pw = f.sample(n) * g.sample(n)
    fhat = np.fft.fft(pw, axis=0) / n
    worst = 0.0
    for k, v in zip(prod.modes.tolist(), prod.data):
        worst = max(worst, float(np.abs(fhat[k % n] - v).max()))
    rows.append(CheckRow("multiply matches quadrature re-extraction", 1e-10,
                         worst, worst <= 1e-10))

    B = rand_scalar(rng, grid, 4, scale=0.02, real=True)
    eB = fr.exp_i_scalar(B, 1)
    mod_dev = float(np.abs(np.abs(eB.sample(256)) - 1.0).max())
    rows.append(CheckRow("exp_i_scalar unit modulus", 1e-10, mod_dev,
                         mod_dev <= 1e-10))
    inv = fr.multiply(eB, fr.exp_i_scalar(B.scale(-1.0), 1)) - fr.one(grid)
    ctx = fr.WeightedNormContext(wt.WeightFunction("analytic"), 0.02)
    invn = fr.norm_r(inv, ctx)
    rows.append(CheckRow("exp(B) exp(-B) = 1", 1e-10, invn, invn <= 1e-10))

    d = rand_scalar(rng, grid, 4, scale=0.03)
    E, _ = fr.exp_su11(fr.off_diagonal(d))
    det_dev = fr.det_minus_one(E).sup_bound()
    rows.append(CheckRow("exp_su11 determinant 1", 1e-12, det_dev,
                         det_dev <= 1e-12))
    sdef = fr.su11_defect(E)
    rows.append(CheckRow("exp_su11 block pattern", 1e-12, sdef, sdef <= 1e-12))

    # L(y) <= y holds for gevrey only at y >= 1, so the dominance needs
    # 2 pi r >= 1 (every supported mode then has a large enough argument)
    ctxg = fr.WeightedNormContext(wt.WeightFunction("gevrey", 0.5), 0.2)
    worst = 0.0
    for _ in range(100):
        f = rand_scalar(rng, grid, rng.integers(1, 20))
        n1 = fr.norm_r(f, ctxg)
        n2 = fr.analytic_norm(f, ctxg)
        if n2 > 0:
            worst = max(worst, n1 / n2)
    rows.append(CheckRow("norm_r <= analytic_norm (gevrey, 2 pi r >= 1)",
                         1.0 + 1e-12, worst, worst <= 1.0 + 1e-12,
                         "100 trials"))
    return rows


# -- continued fractions ------------------------------------------------------------


def euclid_cf(frac: Fraction, max_depth: int) -> list:
    """The first max_depth partial quotients of frac by Euclid's algorithm:
    the exact big-rational oracle of the expansion."""
    out = []
    num, den = frac.numerator, frac.denominator
    while den and len(out) < max_depth:
        out.append(num // den)
        num, den = den, num - (num // den) * den
    return out


def cfrac_suite(seed: int = 0) -> list:
    rows = []
    for name, cf in (("golden", cfr.golden_mean(prec_bits=512)),
                     ("sqrt2-1", cfr.sqrt2_minus_1(prec_bits=512))):
        approx = cfr.alpha_as_fraction(cf, min(40, cf.depth))
        oracle = euclid_cf(approx, 21)
        match = all(oracle[k] == cf.a[k] for k in range(1, 21))
        qs_ok = True
        q0, q1 = 1, cf.a[1]
        qs = [q0, q1]
        for k in range(2, 21):
            qs.append(cf.a[k] * qs[-1] + qs[-2])
        qs_ok = qs == cf.q[:21]
        rows.append(CheckRow("cf quotients match big-rational oracle (%s)"
                             % name, 1.0, float(match and qs_ok),
                             match and qs_ok, "depth 20"))
        ba = cfr.best_approx_rows(cf, 20)
        rows.append(CheckRow("best-approx bracket all depths (%s)" % name,
                             1.0, float(all(r.passed for r in ba)),
                             all(r.passed for r in ba)))
    gm = cfr.golden_mean()
    sel = cfr.select_bridges(gm, 2.0)
    vb = cfr.verify_bridges(gm, sel)
    rows.append(CheckRow("CD bridges verified (golden, A=2)", 1.0,
                         float(all(r.passed for r in vb)),
                         all(r.passed for r in vb),
                         "levels=%d" % sel.levels))
    lv = cfr.from_quotients([10**k for k in range(1, 9)], prec_bits=512,
                            pad_to=40)
    sel2 = cfr.select_bridges(lv, 2.0)
    vb2 = cfr.verify_bridges(lv, sel2)
    rows.append(CheckRow("CD bridges verified (a_k=10^k, A=2)", 1.0,
                         float(all(r.passed for r in vb2)),
                         all(r.passed for r in vb2),
                         "levels=%d" % sel2.levels))
    hq = cfr.from_quotients([1, 1, 10**6] + [1] * 37)
    sel3 = cfr.select_bridges(hq, 2.0)
    captured = any(hq.q[i + 1] >= hq.q[i] ** 2 and i in sel3.indices
                   for i in range(hq.depth - 1))
    rows.append(CheckRow("bridge captures huge partial quotient", 1.0,
                         float(captured), captured))
    return rows


# -- homological ---------------------------------------------------------------------


def full_pivot(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with full pivoting: a dense oracle independent
    of LAPACK."""
    A = A.astype(complex).copy()
    rhs = rhs.astype(complex).copy()
    n = A.shape[0]
    piv = list(range(n))
    for col in range(n):
        sub = np.abs(A[col:, col:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        i += col
        j += col
        A[[col, i], :] = A[[i, col], :]
        rhs[[col, i]] = rhs[[i, col]]
        A[:, [col, j]] = A[:, [j, col]]
        piv[col], piv[j] = piv[j], piv[col]
        for r in range(col + 1, n):
            m = A[r, col] / A[col, col]
            A[r, col:] -= m * A[col, col:]
            rhs[r] -= m * rhs[col]
    x = np.zeros(n, complex)
    for r in range(n - 1, -1, -1):
        x[r] = (rhs[r] - A[r, r + 1:] @ x[r + 1:]) / A[r, r]
    out = np.zeros(n, complex)
    out[piv] = x
    return out


def dense_system(u, res, l: int, setup) -> tuple:
    """The truncated system (S + P) F = U of one solve rebuilt densely from
    its inputs (the level's B is setup.B), btilde and bcal: (A, rhs, F) with
    A[li], rhs[li] and the solver's delta_tilde F[li] over the modes
    |k| < K at grid point li."""
    grid = u.lambda_grid
    B = setup.B
    mser = B.truncate(setup.qbar_n).scale(-1.0) + \
        fr.constant(grid, B.average(), fr.SCALAR)
    phi = fr.exp_i_scalar(mser, l)
    utt = fr.multiply(fr.multiply(fr.exp_i_scalar(res.bcal, l), u), phi)
    lam_t = grid + np.real(B.average())
    ks = np.arange(-setup.K + 1, setup.K)
    n = len(ks)
    A = np.zeros((len(grid), n, n), complex)
    phases = np.array([setup.cf.phase(int(k)) for k in ks])
    A[:, np.arange(n), np.arange(n)] = \
        np.exp(2j * np.pi * l * lam_t)[:, None] - phases[None, :]
    for d, v in res.btilde.coeffs.items():
        if -n < d < n:
            i1, i2 = np.nonzero(ks[:, None] - ks[None, :] == d)
            A[:, i1, i2] += v[:, None]
    rhs = np.array([utt.coeff(int(k)) for k in ks]).T
    F = np.array([res.delta_tilde.coeff(int(k)) for k in ks]).T
    return A, rhs, F


def homological_suite(seed: int = 0) -> list:
    rows = []
    rng = np.random.default_rng(2000 + seed)
    gm = cfr.golden_mean()
    w = wt.WeightFunction("analytic")
    grid = GRID5
    sel = cfr.select_bridges(gm, 2.0)

    # B-equation: residual and exponential bound over random inputs
    qbar = sel.Qbar[3]           # 144
    qprev = sel.Qbar[2]          # 8
    r0 = 0.5
    r = r0 / qprev**2
    rbar = 2 * r0 / qbar**2
    worst_res, worst_ratio = 0.0, 0.0
    ctx_r = fr.WeightedNormContext(w, r)
    ctx_rbar = fr.WeightedNormContext(w, rbar)
    for _ in range(20):
        B = rand_scalar(rng, grid, int(rng.integers(2, 30)), real=True)
        nB = fr.norm_r(B, ctx_r)
        B = B.scale(0.1 * rng.uniform(0.2, 1.0) / nB)
        bc = hm.solve_b_equation(B, qbar, gm)
        resid = bc.shift(gm.phase) - bc + B.truncate(qbar) - \
            fr.constant(grid, B.average(), fr.SCALAR)
        worst_res = max(worst_res, resid.sup_bound())
        lhs = fr.norm_r(fr.exp_i_scalar(bc, 1), ctx_rbar)
        rhs = math.exp(8 * math.pi**2 * r0 * fr.norm_r(B, ctx_r))
        worst_ratio = max(worst_ratio, lhs / rhs)
    rows.append(CheckRow("B-equation residual coefficient-exact", 1e-14,
                         worst_res, worst_res <= 1e-14, "20 trials"))
    rows.append(CheckRow("||e^{i2piBcal}|| <= e^{8pi^2 r0 ||B||}", 1.0,
                         worst_ratio, worst_ratio <= 1.0, "20 trials"))

    # small divisors over admissible consecutive-denominator pairs: the
    # lemma's proof assumes Q_{n+1} >= 4/gamma, so the scanned levels start
    # where golden denominators clear 4/0.01 = 400
    lgrid = np.linspace(0.25, 0.75, 101)
    all_ok = True
    worst = math.inf
    for j in range(14, 18):  # q_j = 610, 987, 1597, 2584
        q_next, qbar_next = gm.q[j], gm.q[j + 1]
        K = math.isqrt(qbar_next)
        dc = hm.dc_from_exclusion(gm, 0.01, 2.0, K, lgrid)
        rws = hm.certify_small_divisor(dc, q_next, qbar_next)
        all_ok &= all(rr.passed for rr in rws)
        worst = min(worst, min(rr.actual - rr.bound for rr in rws))
    rows.append(CheckRow("small divisor lemma exhaustive (4 levels)", 0.0,
                         -worst, all_ok, "gamma=0.01 tau=2 Q>=4/gamma"))

    # a deliberately resonant parameter is detected
    lam_res = np.array([gm.frac_k(1)])  # lambda = alpha: k=1, l=1 resonance
    dc_bad = hm.DcSet(cf=gm, gamma=0.01, tau=2.0, K=3,
                      intervals=hm.IntervalUnion(((lam_res[0] - 1e-3,
                                                   lam_res[0] + 1e-3),)),
                      lambda_grid=lam_res, shift=np.zeros(1))
    viol = not all(r.passed for r in dc_bad.certify())
    rows.append(CheckRow("resonant parameter detected", 1.0, float(viol),
                         viol, "lambda = alpha"))

    # truncation tails
    ctx = fr.WeightedNormContext(wt.WeightFunction("gevrey", 0.5), 0.2)
    worst = 0.0
    for _ in range(100):
        f = rand_scalar(rng, grid, int(rng.integers(4, 40)))
        K = int(rng.integers(4, 16))
        sigma = 0.2 * rng.uniform(0.1, 0.45)   # keeps 2 pi K (r-sigma) > 1
        bound, actual, row = hm.tail_bound(f, K, 0.2, sigma, ctx)
        if bound > 0:
            worst = max(worst, actual / (bound * (1 + 1e-12)))
    rows.append(CheckRow("tail bound holds (100 trials)", 1.0, worst,
                         worst <= 1.0))

    # polar decomposition reconstruction
    worst = 0.0
    for _ in range(50):
        G = rand_scalar(rng, grid, int(rng.integers(1, 8)), scale=0.02)
        nG = fr.norm_r(G, fr.WeightedNormContext(w, 0.05))
        G = G.scale(0.1 * rng.uniform(0.1, 1.0) / max(nG, 1e-300))
        rho, B, _, _ = hm.polar_decompose(G)
        z = np.exp(2j * np.pi * grid)[None, :] + G.sample(4096)
        recon = (1.0 + rho.sample(4096)) * np.exp(
            2j * np.pi * (grid[None, :] + B.sample(4096)))
        worst = max(worst, float(np.abs(recon - z).max()))
    rows.append(CheckRow("polar reconstruction pointwise", 1e-12, worst,
                         worst <= 1e-12, "50 trials, 4096 points"))

    # solver versus dense full-pivot oracle, inside the solver's hypotheses:
    # B is scaled to half of both its precondition bounds and b to 0.3 of
    # its own, g^2/(12 Q^{2tau^2}).  Q = Qbar = 2 keeps that bound at 8e-7,
    # so b delta moves the solution far above rounding; at a Q like 89 it is
    # 5e-20 and every solve reduces to its diagonal
    K, gamma, tau = 16, 0.05, 2.0
    consts = dict(weight=w, q_next=2, qbar_n=2, r_b=0.05, sigma=0.001,
                  eps0=1e-6)
    q_pow = float(consts["q_next"]) ** (2 * tau**2)
    r_tilde = 0.005

    def solver_instance():
        B = rand_scalar(rng, grid, 5, scale=0.002, real=True)
        b = rand_scalar(rng, grid, 4, scale=1e-3)
        u = rand_scalar(rng, grid, K - 1, scale=1e-2)
        nB = fr.norm_r(B, fr.WeightedNormContext(w, consts["r_b"]))
        tail = fr.norm_r(B.project_tail(consts["qbar_n"]),
                         fr.WeightedNormContext(w, consts["r_b"] / 2))
        B = B.scale(0.5 * min(consts["eps0"] ** (1 / 3) / nB,
                              gamma**2 / (480 * math.pi**2 * q_pow) / tail))
        dc = hm.dc_from_exclusion(gm, gamma, tau, K, grid, B)
        setup = hm.SolveSetup(B, dc, **consts)
        b = b.scale(0.3 * gamma**2 / (12.0 * q_pow)
                    / fr.norm_r(b, setup.ctx(r_tilde)))
        return b, u, setup

    worst_bound, worst_resid = 0.0, 0.0
    for _ in range(20):
        b, u, setup = solver_instance()
        res = hm.solve_homological(b, u, int(rng.integers(1, 3)), setup,
                                   r_tilde)
        worst_resid = max(worst_resid,
                          max(r.actual for r in res.rows
                              if r.check.startswith("truncated-system")))
        bound_row = [r for r in res.rows if r.check.startswith("||delta||")][0]
        worst_bound = max(worst_bound, bound_row.actual
                          / max(bound_row.bound, 1e-300))
    rows.append(CheckRow("solver truncated residual exact", 1e-10,
                         worst_resid, worst_resid <= 1e-10, "20 trials"))
    rows.append(CheckRow("||delta|| within proposition bound", 1.0,
                         worst_bound, worst_bound <= 1.0, "20 trials"))

    # dense oracle on one instance per l
    for l in (1, 2):
        b, u, setup = solver_instance()
        res = hm.solve_homological(b, u, l, setup, r_tilde)
        A, rhs, mine = dense_system(u, res, l, setup)
        worst, felt = 0.0, 0.0
        for li in np.nonzero(setup.active)[0]:
            x = full_pivot(A[li], rhs[li])
            size = max(np.abs(x).max(), 1e-300)
            worst = max(worst, float(np.abs(x - mine[li]).max() / size))
            diag_only = rhs[li] / np.diagonal(A[li])
            felt = max(felt, float(np.abs(x - diag_only).max() / size))
        rows.append(CheckRow("solver matches full-pivot oracle (l=%d)" % l,
                             1e-10, worst, worst <= 1e-10,
                             "off-diagonal moves F by %.2g" % felt))
    return rows


# -- model -------------------------------------------------------------------------


def model_suite(seed: int = 0) -> list:
    rows = []
    rng = np.random.default_rng(3000 + seed)
    gm = cfr.golden_mean()
    grid = np.linspace(0.25, 0.75, 7)
    n = 128

    spec = md.build_preset("generating", 1e-4, gm, grid, d_max=4)
    conj = md.conjugate_to_su11(spec)
    worst = 0.0
    for _ in range(5):
        v = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.1
        X = np.empty((n, len(grid), 2), complex)
        X[..., 0] = v
        X[..., 1] = np.conj(v)
        x = np.einsum("ij,tlj->tli", md.M_INV, X)
        lhs = np.einsum("ij,tlj->tli", md.M_MAT, spec.eval_F(x))
        A = np.exp(2j * np.pi * grid)
        rhs = np.stack([A[None, :] * X[..., 0],
                        np.conj(A)[None, :] * X[..., 1]], axis=-1)
        rhs = rhs + conj.U.sample(n)
        rhs = rhs + np.einsum("tlij,tlj->tli", conj.W.sample(n), X)
        rhs = rhs + conj.R.eval_at_points(X)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    rows.append(CheckRow("conjugation identity MF(M^-1 X) = AX+U+WX+R",
                         1e-10, worst, worst <= 1e-10))

    rot = md.SkewMapSpec(eps=0.0, N=fr.PowerFourierSeries(4, grid,
                                                          fr.C2VECTOR, {}),
                         cf=gm, lambda_grid=grid)
    r1 = md.check_area(rot)
    rows.append(CheckRow("area: pure rotation", 1e-10, r1.actual,
                         r1.actual <= 1e-10))
    gen = md.build_preset("generating", 1e-6, gm, grid, d_max=4)
    r2 = md.check_area(gen)
    rows.append(CheckRow("area: generating-function preset", 1e-8, r2.actual,
                         r2.actual <= 1e-8))
    bad = md.build_preset("nonsymplectic", 1e-6, gm, grid, d_max=4)
    r3 = md.check_area(bad)
    rows.append(CheckRow("area: nonsymplectic counterexample detected",
                         1e-8, r3.actual,
                         1e-7 <= r3.actual <= 1e-5, "|det-1| ~ eps"))

    res, _ = md.residual(rot, fr.zeros(grid, fr.C2VECTOR), n_theta=256)
    rows.append(CheckRow("residual of trivial torus at eps=0", 0.0,
                         float(res.max()), float(res.max()) == 0.0))

    d = fr.from_modes(grid, fr.SCALAR, {0: 0.1 + 0.05j})
    fac = kam.TransformFactor(fr.eye(grid), fr.conjugate_pair(d))
    ident = kam.TransformFactor.identity(grid)
    dev = (fac.then(ident.matrix, ident.offset).offset - fac.offset).sup_bound()
    rows.append(CheckRow("reconstruction invariant under zero factor",
                         1e-12, dev, dev <= 1e-12))
    return rows


# -- kam ----------------------------------------------------------------------------


def kam_suite(seed: int = 0) -> list:
    rows = []
    gm = cfr.golden_mean()
    sel = cfr.select_bridges(gm, 2.0)
    w = wt.WeightFunction("analytic")
    sched = kam.make_schedule(gm, sel, w, eps0=1e-8, gamma0=0.05, tau=2.0,
                              s0=0.5, r0="1/2", T_override=6.0, K_cap=256,
                              L_cap=24)
    grid = np.linspace(0.25, 0.75, 33)
    spec = md.build_preset("constant_forcing", 1e-8, gm, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=2)
    ok = all(r.passed for r in summary.rows if r.gating)
    rows.append(CheckRow("one KAM step certification (preset a)", 1.0,
                         float(ok), ok,
                         "%d rows" % len(summary.rows)))
    u1 = [r for r in summary.rows if r.check.startswith("||U_{n+1}")][0]
    rows.append(u1)
    sub = [r for r in summary.rows
           if r.check.startswith("substitution oracle")]
    if sub:
        rows.append(sub[0])
    res_drop = summary.records[1].residual <= 1e-2 * summary.records[0].residual
    rows.append(CheckRow("residual drops by 100x after one step", 1.0,
                         float(res_drop), res_drop))
    area = [r for r in summary.rows if "composed factor det" in r.check]
    rows.append(CheckRow("composed factors area-preserving", 1e-8,
                         max(r.actual for r in area),
                         all(r.passed for r in area)))

    # closed-form measure oracle at level 0 (B = 0)
    dc = hm.dc_from_exclusion(gm, sched.gamma(0), 2.0, sched.K(0), grid)
    measured = dc.intervals.measure()
    clipped = []
    for lo, hi in dc.zones:
        clipped.append((max(lo, 0.25), min(hi, 0.75)))
    merged = hm.IntervalUnion.from_list([z for z in clipped if z[1] > z[0]])
    oracle = 0.5 - merged.measure()
    rows.append(CheckRow("exclusion measure equals interval-sum oracle",
                         1e-12, abs(measured - oracle),
                         abs(measured - oracle) <= 1e-12))
    mrow = [r for r in summary.rows if r.check.startswith("total excluded")]
    rows.append(mrow[0])
    return rows
