"""Invariant verification suites behind `kamtori verify`, and the oracles
they share with the test suite.

Each suite returns CheckRow lists; one row per certified property, built
from deterministic seeded instances so reruns are bit-identical.  Each
property that a suite, an acceptance criterion and a unit test all measure
is one function here; every caller passes its own random generator and
trial count and applies its own tolerance.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath
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


# (family, param) of the four weight families the suite checks
_WEIGHT_FAMILIES = (("analytic", 0.0), ("gevrey", 0.5), ("exp_log_pow", 0.5),
                    ("log_pow", 2.0))


def weights_suite(seed: int = 0) -> list:
    rows = []
    fams = [wt.WeightFunction(fam, param) for fam, param in _WEIGHT_FAMILIES]
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


def weights_row_origin(row: CheckRow) -> tuple:
    """(family, param) a weights-suite row refers to (for the CSV table)."""
    words = set(re.findall(r"\w+", row.check + " " + row.detail))
    for fam, param in _WEIGHT_FAMILIES:
        if fam in words:
            return fam, param
    return "", 0.0


# -- fourier ---------------------------------------------------------------------


def banach_ratio(rng, grid, ctx, trials: int, lam_linear=True) -> float:
    """Worst ||fg||_r / (||f||_r ||g||_r) in the norm of ctx over trials
    random pairs, each of support 1 .. 32."""
    worst = 0.0
    for _ in range(trials):
        f = rand_scalar(rng, grid, int(rng.integers(1, 33)),
                        lam_linear=lam_linear)
        g = rand_scalar(rng, grid, int(rng.integers(1, 33)),
                        lam_linear=lam_linear)
        num = fr.norm_r(fr.multiply(f, g), ctx)
        den = fr.norm_r(f, ctx) * fr.norm_r(g, ctx)
        if den > 0:
            worst = max(worst, num / den)
    return worst


def fourier_suite(seed: int = 0) -> list:
    rows = []
    rng = np.random.default_rng(1000 + seed)
    grid = GRID5
    n = 4096

    for w, tag in ((wt.WeightFunction("analytic"), "analytic"),
                   (wt.WeightFunction("gevrey", 0.5), "gevrey")):
        worst = banach_ratio(rng, grid, fr.WeightedNormContext(w, 0.05), 200)
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


def convergents_match(cf: cfr.ContinuedFraction, approx: Fraction,
                      depth: int) -> bool:
    """a_1 .. a_depth equal Euclid's quotients of approx (a rational close
    enough to alpha), and q_0 .. q_depth equal the recurrence
    q_k = a_k q_{k-1} + q_{k-2} from q_0 = 1, q_1 = a_1."""
    oracle = euclid_cf(approx, depth + 1)
    q = [1, cf.a[1]]
    for k in range(2, depth + 1):
        q.append(cf.a[k] * q[-1] + q[-2])
    return oracle[1:depth + 1] == cf.a[1:depth + 1] and q == cf.q[:depth + 1]


def best_approx_rows(cf: cfr.ContinuedFraction, depth: int) -> list:
    """1/(q_n + q_{n+1}) < ||q_n alpha|| <= 1/q_{n+1} for n <= depth, in
    cf's working precision.

    Starts at n = 1 unless a_1 >= 2: for a_1 = 1 the 0th convergent 0/1 is
    not the nearest integer to alpha (alpha > 1/2) and the stated bracket
    is false at n = 0; every use in the scheme has q_{n+1} >= 2.
    """
    rows = []
    n0 = 0 if cf.a[1] >= 2 else 1
    with mpmath.workprec(cf.prec_bits):
        for n in range(n0, min(depth, cf.depth - 1) + 1):
            qn, qn1 = cf.q[n], cf.q[n + 1]
            v = mpmath.frac(cf.alpha * qn)
            d = min(v, 1 - v)
            ok = mpmath.mpf(1) / (qn + qn1) < d <= mpmath.mpf(1) / qn1
            rows.append(CheckRow("best-approx bracket n=%d" % n, 0.0,
                                 float(d), bool(ok), "q_n=%d" % qn))
    return rows


def cfrac_suite(seed: int = 0) -> list:
    rows = []
    for name, cf in (("golden", cfr.golden_mean(prec_bits=512)),
                     ("sqrt2-1", cfr.sqrt2_minus_1(prec_bits=512))):
        match = convergents_match(
            cf, cfr.alpha_as_fraction(cf, min(40, cf.depth)), 20)
        rows.append(CheckRow("cf quotients match big-rational oracle (%s)"
                             % name, 1.0, float(match), match, "depth 20"))
        ba = best_approx_rows(cf, 20)
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
    its inputs (the level's B is setup.B), btilde and setup.bcal: (A, rhs,
    F) with A[li], rhs[li] and the solver's delta_tilde F[li] over the
    modes |k| < K at grid point li."""
    grid = u.lambda_grid
    B = setup.B
    mser = B.truncate(setup.qbar_n).scale(-1.0) + \
        fr.constant(grid, B.average(), fr.SCALAR)
    phi = fr.exp_i_scalar(mser, l)
    utt = fr.multiply(fr.multiply(fr.exp_i_scalar(setup.bcal, l), u), phi)
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


def full_pivot_deviation(u, res, l: int, setup, points) -> tuple:
    """The solve res of (S + P) F = U against full_pivot on its dense
    rebuild at the grid indices points: (worst |x - F| / max|x|, worst
    |x - U/diag(S + P)| / max|x|), the second showing how far the
    off-diagonal part moves the solution."""
    A, rhs, mine = dense_system(u, res, l, setup)
    worst, felt = 0.0, 0.0
    for li in points:
        x = full_pivot(A[li], rhs[li])
        size = max(np.abs(x).max(), 1e-300)
        worst = max(worst, float(np.abs(x - mine[li]).max() / size))
        diag_only = rhs[li] / np.diagonal(A[li])
        felt = max(felt, float(np.abs(x - diag_only).max() / size))
    return worst, felt


def b_equation_worst(rng, grid, cf, qbar_prev: int, qbar: int, trials: int,
                     support: tuple, scale: tuple, lam_linear=True) -> tuple:
    """Worst coefficient residual of hm.solve_b_equation and worst ratio
    ||e^{i2pi Bcal}||_rbar / e^{8 pi^2 r0 ||B||_r} (analytic weight,
    r0 = 1/2, r = r0/qbar_prev^2, rbar = 2 r0/qbar^2) over trials real B of
    support drawn from range(*support), scaled to ||B||_r = 0.1 u with u
    uniform on scale."""
    w = wt.WeightFunction("analytic")
    r0 = 0.5
    ctx_r = fr.WeightedNormContext(w, r0 / qbar_prev**2)
    ctx_rbar = fr.WeightedNormContext(w, 2 * r0 / qbar**2)
    worst_res, worst_ratio = 0.0, 0.0
    for _ in range(trials):
        B = rand_scalar(rng, grid, int(rng.integers(*support)), real=True,
                        lam_linear=lam_linear)
        B = B.scale(0.1 * rng.uniform(*scale)
                    / max(fr.norm_r(B, ctx_r), 1e-300))
        bc = hm.solve_b_equation(B, qbar, cf)
        resid = bc.shift(cf.phase) - bc + B.truncate(qbar) - \
            fr.constant(grid, B.average(), fr.SCALAR)
        worst_res = max(worst_res, resid.sup_bound())
        lhs = fr.norm_r(fr.exp_i_scalar(bc, 1), ctx_rbar)
        rhs = math.exp(8 * math.pi**2 * r0 * fr.norm_r(B, ctx_r))
        worst_ratio = max(worst_ratio, lhs / rhs)
    return worst_res, worst_ratio


def small_divisor_scan(cf, levels) -> tuple:
    """hm.certify_small_divisor at each level j of levels (Q_{n+1} = q_j,
    Qbar_{n+1} = q_{j+1}, K = isqrt(q_{j+1}), gamma = 0.01, tau = 2, 101
    lambda points): (every row passed, worst margin actual - bound)."""
    lgrid = np.linspace(0.25, 0.75, 101)
    all_ok, worst = True, math.inf
    for j in levels:
        q_next, qbar_next = cf.q[j], cf.q[j + 1]
        dc = hm.dc_from_exclusion(cf, 0.01, 2.0, math.isqrt(qbar_next), lgrid)
        rws = hm.certify_small_divisor(dc.restrict_level()[1], q_next,
                                       qbar_next)
        all_ok &= all(r.passed for r in rws)
        worst = min(worst, min(r.actual - r.bound for r in rws))
    return all_ok, worst


def tail_ratio(rng, grid, trials: int, lam_linear=True) -> tuple:
    """Worst ||R_K f||_{r-sigma} / hm.tail_bound (gevrey 1/2, r = 0.2) over
    trials random f of support 4 .. 39, K in 4 .. 15 and sigma in
    [0.02, 0.09], which keeps 2 pi K (r - sigma) > 1; and whether every
    tail_bound row passed."""
    ctx = fr.WeightedNormContext(wt.WeightFunction("gevrey", 0.5), 0.2)
    worst, rows_ok = 0.0, True
    for _ in range(trials):
        f = rand_scalar(rng, grid, int(rng.integers(4, 40)),
                        lam_linear=lam_linear)
        K = int(rng.integers(4, 16))
        sigma = 0.2 * rng.uniform(0.1, 0.45)
        bound, actual, row = hm.tail_bound(f, K, 0.2, sigma, ctx)
        if bound > 0:
            worst = max(worst, actual / (bound * (1 + 1e-12)))
        rows_ok &= row.passed
    return worst, rows_ok


def polar_worst(rng, grid, trials: int, lam_linear=True) -> tuple:
    """hm.polar_decompose of trials random G scaled to ||G||_{0.05} <= 0.1:
    (worst |(1 + rho) e^{2 pi i (lambda + B)} - (e^{2 pi i lambda} + G)|
    on 4096 theta points, worst imaginary part of rho and B)."""
    ctx = fr.WeightedNormContext(wt.WeightFunction("analytic"), 0.05)
    n = 4096
    worst, imag = 0.0, 0.0
    for _ in range(trials):
        G = rand_scalar(rng, grid, int(rng.integers(1, 8)), scale=0.02,
                        lam_linear=lam_linear)
        G = G.scale(0.1 * rng.uniform(0.1, 1.0)
                    / max(fr.norm_r(G, ctx), 1e-300))
        rho, B, _, _ = hm.polar_decompose(G)
        z = np.exp(2j * np.pi * grid)[None, :] + G.sample(n)
        recon = (1.0 + rho.sample(n)) * np.exp(
            2j * np.pi * (grid[None, :] + B.sample(n)))
        worst = max(worst, float(np.abs(recon - z).max()))
        imag = max(imag, fr.real_defect(rho), fr.real_defect(B))
    return worst, imag


def homological_suite(seed: int = 0) -> list:
    rows = []
    rng = np.random.default_rng(2000 + seed)
    gm = cfr.golden_mean()
    w = wt.WeightFunction("analytic")
    grid = GRID5
    sel = cfr.select_bridges(gm, 2.0)

    # B-equation at the golden bridge Qbar_2 = 8, Qbar_3 = 144
    worst_res, worst_ratio = b_equation_worst(
        rng, grid, gm, sel.Qbar[2], sel.Qbar[3], 20, (2, 30), (0.2, 1.0))
    rows.append(CheckRow("B-equation residual coefficient-exact", 1e-14,
                         worst_res, worst_res <= 1e-14, "20 trials"))
    rows.append(CheckRow("||e^{i2piBcal}|| <= e^{8pi^2 r0 ||B||}", 1.0,
                         worst_ratio, worst_ratio <= 1.0, "20 trials"))

    # small divisors over admissible consecutive-denominator pairs: the
    # lemma's proof assumes Q_{n+1} >= 4/gamma, so the scanned levels start
    # where golden denominators clear 4/0.01 = 400
    all_ok, worst = small_divisor_scan(gm, range(14, 18))  # q_j = 610 .. 2584
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

    worst, _ = tail_ratio(rng, grid, 100)
    rows.append(CheckRow("tail bound holds (100 trials)", 1.0, worst,
                         worst <= 1.0))

    worst, _ = polar_worst(rng, grid, 50)
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
        _, dc, B, b, u = dc.restrict_level(B, b, u)
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
        worst, felt = full_pivot_deviation(u, res, l, setup,
                                           range(len(setup.grid)))
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


def exclusion_deviation(dc: hm.DcSet, shift: float = 0.0) -> float:
    """|measure dc removes from the lambda range - the closed form| for a
    DC set built with the constant B = shift: its zones are the intervals
    of half-width gamma/(l (|k|+l)^tau) around (k alpha + m)/l - shift,
    |k| <= K (k = 0 included), l = 1, 2, clipped to the range."""
    lo, hi = hm.LAMBDA_DOMAIN
    zones = []
    for k in range(-dc.K, dc.K + 1):
        t = dc.cf.frac_k(k) if k > 0 else (-dc.cf.frac_k(-k) if k else 0.0)
        for l in (1, 2):
            w = dc.gamma / (l * (abs(k) + l) ** dc.tau)
            for m in range(-3, 4):
                c = (t + m) / l - shift
                if lo - w <= c <= hi + w:
                    zones.append((max(c - w, lo), min(c + w, hi)))
    oracle = hm.IntervalUnion.from_list([z for z in zones if z[1] > z[0]])
    removed = hm.IntervalUnion.full().measure() - dc.intervals.measure()
    return abs(removed - oracle.measure())


def exclusion_shifts(cf: cfr.ContinuedFraction, gamma: float) -> tuple:
    """Constant shifts the closed form is checked at: 0, 0.0731 and
    frac(alpha) - 3/4 - gamma/8, at which the k = 1, l = 1 zone (half-width
    gamma/4) is centred gamma/8 past the range's right end and still
    reaches lambda = 3/4."""
    return 0.0, 0.0731, cf.frac_k(1) - 0.75 - gamma / 8


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

    g0 = sched.gamma(0)
    dev = max(exclusion_deviation(
        hm.dc_from_exclusion(gm, g0, 2.0, sched.K(0), grid,
                             fr.constant(grid, shift)), shift)
        for shift in exclusion_shifts(gm, g0))
    rows.append(CheckRow("exclusion measure equals interval-sum oracle",
                         1e-12, dev, dev <= 1e-12, "constant B at 3 shifts"))
    mrow = [r for r in summary.rows if r.check.startswith("total excluded")]
    rows.append(mrow[0])
    return rows
