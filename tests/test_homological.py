import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from kamtori import cfrac as cfr
from kamtori import fourier as fr
from kamtori import homological as hm
from kamtori import verify as vf
from kamtori.fourier import WeightedNormContext
from kamtori.weights import WeightFunction, eval_lambda

from test_fourier import ref_coeff_O

GRID = np.linspace(0.25, 0.75, 9)
ANALYTIC = WeightFunction("analytic")
GM = cfr.golden_mean()


rand_scalar = functools.partial(vf.rand_scalar, lam_linear=False)


def active_part(dc, *series):
    """dc and the series on dc's active points, as a KAM level keeps them."""
    return list(dc.restrict_level(*series)[1:])


# -- interval unions --------------------------------------------------------------


def test_interval_union_subtract_and_measure():
    u = hm.IntervalUnion.full()
    assert u.measure() == 0.5
    v = u.subtract([(0.3, 0.35), (0.34, 0.4), (0.9, 1.0)])
    assert v.measure() == pytest.approx(0.4)
    assert list(v.contains([0.26, 0.32, 0.45])) == [True, False, True]
    w = v.subtract([(0.0, 1.0)])
    assert w.is_empty()


def _subtract_zone_by_zone(union, zones):
    """The reference: split every interval of the union by each zone in
    turn, dropping pieces of zero width after each zone."""
    current = [list(p) for p in union.intervals]
    for zlo, zhi in zones:
        nxt = []
        for a, b in current:
            if zhi <= a or zlo >= b:
                nxt.append([a, b])
                continue
            if zlo > a:
                nxt.append([a, min(zlo, b)])
            if zhi < b:
                nxt.append([max(zhi, a), b])
        current = [iv for iv in nxt if iv[1] > iv[0]]
    return tuple((float(a), float(b)) for a, b in current)


def test_interval_union_subtract_matches_zone_by_zone():
    # endpoints on a coarse lattice, so zones nest, touch each other and
    # the intervals, fall outside the range, shrink to points and leave
    # pieces of zero width
    rng = np.random.default_rng(7)
    lattice = np.arange(-4, 21) / 16

    def pairs(n):
        ends = np.sort(rng.choice(lattice, size=(n, 2)), axis=1)
        return [tuple(p) for p in ends.tolist()]

    for _ in range(2000):
        union = hm.IntervalUnion.from_list(pairs(rng.integers(0, 5)))
        if rng.random() < 0.3:      # touching pieces, as point zones leave
            union = hm.IntervalUnion(_subtract_zone_by_zone(
                union, [(p, p) for p, _ in pairs(2)]))
        zones = pairs(rng.integers(0, 7))
        assert union.subtract(zones).intervals == \
            _subtract_zone_by_zone(union, zones), (union, zones)


def test_interval_union_merge():
    u = hm.IntervalUnion.from_list([(0.3, 0.4), (0.35, 0.5), (0.6, 0.7)])
    assert u.intervals == ((0.3, 0.5), (0.6, 0.7))


# -- B-equation -------------------------------------------------------------------


def test_b_equation_constant_is_zero():
    B = fr.constant(GRID, 2.5)
    assert hm.solve_b_equation(B, 5, GM).is_zero()


def test_b_equation_cos_coefficient_division():
    B = fr.from_modes(GRID, fr.SCALAR, {1: 0.5, -1: 0.5})
    bc = hm.solve_b_equation(B, 5, GM)
    # coefficient-division oracle with the sign that satisfies the equation
    for k in (1, -1):
        expect = -0.5 / (GM.phase(k) - 1.0)
        assert np.allclose(bc.coeff(k), expect, rtol=1e-14)
    resid = bc.shift(GM.phase) - bc + B.truncate(5) \
        - fr.constant(GRID, B.average(), fr.SCALAR)
    assert resid.sup_bound() <= 1e-14


def test_b_equation_row_prints_the_bound_it_tests():
    # sup B > 1: the residual is held to 1e-14 sup B, and the row says so
    B = fr.from_modes(GRID, fr.SCALAR, {0: 1.5, 1: 0.2, -1: 0.2})
    bcal = hm.solve_b_equation(B, 5, GM)
    [row, _] = hm.b_equation_rows(B, bcal, 5, GM, ANALYTIC, r=0.05,
                                  rbar=0.04, r0=0.05)
    tested = 1e-14 * B.sup_bound()
    assert B.sup_bound() > 1.0
    assert float(row.csv_fields()[1]) == row.bound == tested
    assert row.passed == (row.actual <= tested)


def test_b_equation_high_modes_only():
    B = fr.from_modes(GRID, fr.SCALAR, {7: 0.5, -7: 0.5})
    assert hm.solve_b_equation(B, 5, GM).is_zero()


def test_b_equation_real_output():
    rng = np.random.default_rng(20)
    B = rand_scalar(rng, GRID, 6, real=True)
    bc = hm.solve_b_equation(B, 5, GM)
    assert fr.real_defect(bc) < 1e-14


def test_b_equation_rejects_complex():
    B = fr.from_modes(GRID, fr.SCALAR, {1: 1.0j})
    with pytest.raises(ValueError):
        hm.solve_b_equation(B, 5, GM)


def test_b_equation_exponential_bound():
    # Lemma setting: r = Qbar_{n-1}^{-2} r0, rbar = 2 Qbar_n^{-2} r0,
    # truncation at Qbar_n; golden selection gives (8, 144)
    rng = np.random.default_rng(21)
    _, ratio = vf.b_equation_worst(rng, GRID, GM, 8, 144, 20, (2, 40),
                                   (0.1, 1.0), lam_linear=False)
    assert ratio <= 1.0


# -- DC sets and small divisors -------------------------------------------------------


def test_dc_set_certifies():
    lgrid = np.linspace(0.25, 0.75, 101)
    dc = hm.dc_from_exclusion(GM, 0.01, 2.0, 5, lgrid)
    assert dc.intervals.measure() > 0.4
    [dc] = active_part(dc)
    assert all(r.passed for r in dc.certify())


def test_dc_k0_l2_zone_around_half():
    # k = 0, l = 2: the divisor e^{4 pi i lambda} - 1 vanishes at 1/2
    lgrid = np.linspace(0.25, 0.75, 101)
    dc = hm.dc_from_exclusion(GM, 0.04, 2.0, 3, lgrid)
    assert not dc.intervals.contains([0.5])[0]


def _zones_cell_by_cell(cf, gamma, tau, ks, lo, hi, grid, shift):
    # the reference: the same crossings found by a loop over m and over the
    # cells of the grid, continued by one cell of width w at each end
    zones = []
    dbeta = np.abs(np.gradient(shift, grid)).max()
    for k in ks:
        t = cf.frac_k(k) if k > 0 else (-cf.frac_k(-k) if k else 0.0)
        for l in (1, 2):
            w = gamma / ((abs(k) + l) ** tau * (l * (1.0 - dbeta)))
            h = list(l * (grid + shift) - t)
            x = [min(lo, grid[0]) - w] + list(grid) + [max(hi, grid[-1]) + w]
            h = [h[0] + (x[0] - x[1]) * ((h[1] - h[0]) / (x[2] - x[1]))] + h \
                + [h[-1] + (x[-1] - x[-2]) * ((h[-1] - h[-2]) / (x[-2] - x[-3]))]
            for m in range(math.ceil(min(h)), math.floor(max(h)) + 1):
                g = [v - m for v in h]
                for i in range(len(x)):
                    if g[i] == 0.0:
                        zones.append((x[i] - w, x[i] + w))
                    elif i + 1 < len(x) and g[i] * g[i + 1] < 0:
                        c = x[i] - g[i] * (x[i + 1] - x[i]) / (g[i + 1] - g[i])
                        zones.append((c - w, c + w))
    return zones


@pytest.mark.parametrize("domain", [(0.25, 0.75), (0.3, 0.6)])
def test_resonance_zones_match_cell_loop(domain):
    # a shift varying in lambda whose k = 1, l = 1 zone is centred just past
    # the grid's right end; a domain equal to the grid or inside it
    grid = np.linspace(0.25, 0.75, 33)
    shift = 0.01 * np.sin(6 * np.pi * grid) + GM.frac_k(1) - 0.761
    ks = [0] + [s * k for k in range(1, 13) for s in (1, -1)]
    dom = hm.IntervalUnion.from_list([domain, (0.65, 0.7)])
    zones, rows = hm.resonance_zones(GM, 0.01, 2.0, ks, dom, grid, shift)
    assert zones == _zones_cell_by_cell(GM, 0.01, 2.0, ks, dom.intervals[0][0],
                                        dom.intervals[-1][1], grid, shift)
    assert rows == []
    assert any(a < 0.75 < (a + b) / 2 for a, b in zones)
    with pytest.raises(ValueError, match="lambda grid"):
        hm.resonance_zones(GM, 0.01, 2.0, ks, dom, grid[:1], shift[:1])


def test_resonant_lambda_detected():
    lam = np.array([GM.frac_k(1)])  # lambda = alpha mod 1: k=1, l=1 resonance
    dc = hm.DcSet(cf=GM, gamma=0.01, tau=2.0, K=3,
                  intervals=hm.IntervalUnion(((lam[0] - 1e-4, lam[0] + 1e-4),)),
                  lambda_grid=lam, shift=np.zeros(1))
    rows = dc.certify()
    assert not all(r.passed for r in rows)
    assert "k=1 l=1" in rows[0].detail


def test_small_divisor_lemma_admissible_levels():
    # consecutive golden denominators with Q_{n+1} >= 4/gamma: the proof's
    # implicit largeness hypothesis holds and the scan is exhaustive
    ok, _ = vf.small_divisor_scan(GM, (14, 15, 16))  # q_j = 610, 987, 1597
    assert ok


def test_small_divisor_k0_vacuous_at_l1():
    # k = 0, l = 1 never resonates on [1/4, 3/4]
    om = np.linspace(0.25, 0.75, 51)
    assert np.abs(np.exp(2j * np.pi * om) - 1).min() > 1.0


def divisor_rows_oracle(dc, k_max):
    # the DC margin and the small-divisor minimum as loops over k and l
    om = dc.omega()
    worst_dc, where_dc, worst_sd, where_sd = math.inf, "", math.inf, ""
    for k in range(0, k_max + 1):
        t = dc.cf.frac_k(k) if k else 0.0
        for sk, tt in ((k, t), (-k, -t)) if k else ((0, 0.0),):
            for l in (1, 2):
                d = l * om - tt
                need = dc.gamma / (abs(sk) + l) ** dc.tau
                margin = float((np.abs(d - np.round(d)) - need).min())
                if margin < worst_dc:
                    worst_dc, where_dc = margin, "k=%d l=%d" % (sk, l)
                m = float(np.abs(np.exp(2j * np.pi * d) - 1.0).min())
                if m < worst_sd:
                    worst_sd, where_sd = m, "k=%d l=%d" % (sk, l)
    return (-worst_dc, where_dc), (worst_sd, where_sd)


@pytest.mark.parametrize("cf", [
    GM, cfr.from_quotients([2 ** (2**k) for k in range(1, 8)], prec_bits=1024,
                           pad_to=90)], ids=["golden", "liouville_doubleexp"])
@pytest.mark.parametrize("tau", [2.0, 1.7])
def test_divisor_table_rows_match_loops(cf, tau):
    lgrid = np.linspace(0.25, 0.75, 101)
    B = fr.constant(lgrid, 0.004 * np.sin(7 * lgrid))    # [B]_theta only
    [dc] = active_part(hm.dc_from_exclusion(cf, 0.002, tau, 40, lgrid, B))
    dc_row = dc.certify()[0]
    sd_row = hm.certify_small_divisor(dc, 987, 1597, k_max=30)[0]
    assert (dc_row.actual, dc_row.detail) == divisor_rows_oracle(dc, 40)[0]
    assert (sd_row.actual, sd_row.detail.split(" case")[0]) == \
        divisor_rows_oracle(dc, 30)[1]
    # the other order: the k_max = 30 table is built first, then grown to K
    [fresh] = active_part(hm.dc_from_exclusion(cf, 0.002, tau, 40, lgrid, B))
    assert hm.certify_small_divisor(fresh, 987, 1597, k_max=30) == [sd_row]
    assert fresh.certify() == [dc_row]


# -- truncation tails ---------------------------------------------------------------


def test_tail_bound_support_below_K():
    f = fr.from_modes(GRID, fr.SCALAR, {1: 1.0, -2: 1.0})
    ctx = WeightedNormContext(ANALYTIC, 0.2)
    bound, actual, row = hm.tail_bound(f, 8, 0.2, 0.05, ctx)
    assert actual == 0.0
    assert row.passed


def test_tail_bound_one_mode_closed_form():
    # single mode at k = K with analytic weight: actual = e^{2 pi K (r-s)},
    # bound = e^{-(s/r) 2 pi K (r-s)} e^{2 pi K r}; inequality reduces to
    # (s/r)(r-s) <= s, always true
    K, r, sigma = 8, 0.2, 0.05
    f = fr.from_modes(GRID, fr.SCALAR, {K: 1.0})
    ctx = WeightedNormContext(ANALYTIC, r)
    bound, actual, row = hm.tail_bound(f, K, r, sigma, ctx)
    assert actual == pytest.approx(math.exp(2 * math.pi * K * (r - sigma)),
                                   rel=1e-12)
    x = 2 * math.pi * K * (r - sigma)
    expect_bound = math.exp(-(sigma / r) * x) * math.exp(2 * math.pi * K * r)
    assert bound == pytest.approx(expect_bound, rel=1e-12)
    assert row.passed


def test_tail_bound_random_property():
    rng = np.random.default_rng(22)
    worst, _ = vf.tail_ratio(rng, GRID, 100, lam_linear=False)
    assert worst <= 1.0


def test_tail_bound_domain_error():
    f = fr.one(GRID)
    ctx = WeightedNormContext(ANALYTIC, 0.01)
    with pytest.raises(ValueError):
        hm.tail_bound(f, 2, 0.01, 0.005, ctx)


# -- polar decomposition ---------------------------------------------------------------


def test_polar_zero():
    rho, B, defect, wanted = hm.polar_decompose(fr.zeros(GRID))
    assert rho.is_zero() and B.is_zero() and defect == 0.0
    assert wanted == 256


def test_polar_real_constant():
    lam = np.array([0.5])
    G = fr.from_modes(lam, fr.SCALAR, {0: 0.1})
    rho, B, defect, _ = hm.polar_decompose(G)
    # -1 + 0.1 = -0.9 = 0.9 e^{i pi}: rho = -0.1, B = 0
    assert rho.average().real[0] == pytest.approx(-0.1, abs=1e-12)
    assert abs(B.average()[0]) < 1e-12
    assert defect < 1e-12


def test_polar_imaginary_constant():
    lam = np.array([0.5])
    G = fr.from_modes(lam, fr.SCALAR, {0: 0.1j})
    rho, B, defect, _ = hm.polar_decompose(G)
    assert rho.average().real[0] == pytest.approx(math.sqrt(1.01) - 1,
                                                  abs=1e-12)
    assert B.average().real[0] == pytest.approx(-math.atan(0.1) / (2 * math.pi),
                                                abs=1e-12)
    assert defect < 1e-12


def test_polar_random_reconstruction():
    rng = np.random.default_rng(23)
    worst, imag = vf.polar_worst(rng, GRID, 50, lam_linear=False)
    assert imag < 1e-12
    assert worst <= 1e-12


def test_polar_singularity_error():
    G = fr.constant(GRID, -0.6 * np.exp(2j * np.pi * GRID))
    # |h| = |e^{-2 pi i lambda} G| = 0.6 is past the 1/2 threshold
    with pytest.raises(hm.SingularityError):
        hm.polar_decompose(G)


GRID257 = np.linspace(0.25, 0.75, 257)


def test_polar_support_follows_G():
    # |h| ~ 1e-9: the second order, 1e-18 at modes up to 4, is kept and the
    # third, 1e-27, lies below the cut 32 eps |h|; no FFT floor survives
    G = fr.from_modes(GRID257, fr.SCALAR, {1: 1e-9 * (1 + 0.5j * GRID257),
                                          -1: 0.7e-9 * (GRID257 - 1j)})
    rho, B, defect, _ = hm.polar_decompose(G)
    assert len(rho.modes) <= 4 * G.max_mode + 1
    assert len(B.modes) <= 4 * G.max_mode + 1
    assert defect <= 1e-14


def log_oracle(G):
    """(rho, B) from log(1 + h) = h sum_n (-h)^n / (n + 1), h = e^{-2 pi i
    lambda} G, in the coefficient algebra: B = Im log / (2 pi) and rho =
    expm1(Re log) = x sum_n x^n / (n + 1)!, x = Re log."""
    h = G.scale(np.exp(-2j * np.pi * G.lambda_grid))
    [s] = fr._power_sums(h.scale(-1.0), [lambda n: n / (n + 1)], "log")
    log = fr.multiply(h, s)
    x = (log + log.conj()).scale(0.5)
    [e] = fr._power_sums(x, [lambda n: 1.0 / (n + 1)], "expm1")
    return fr.multiply(x, e), (log - log.conj()).scale(-0.25j / math.pi)


@pytest.mark.parametrize("size,tol", [(1e-9, 1e-24), (0.1, 1e-13)])
def test_polar_matches_log_oracle(size, tol):
    G = rand_scalar(np.random.default_rng(29), GRID, 2)
    G = G.scale(size / G.sup_bound())
    rho, B, _, _ = hm.polar_decompose(G)
    rho_o, B_o = log_oracle(G)
    # the errors scale with |h|, not with the O(1) rotation
    assert (rho - rho_o).sup_bound() <= tol
    assert (B - B_o).sup_bound() <= tol


# -- the solver -------------------------------------------------------------------------


R_TILDE = 0.005


def make_setup(B, dc, eps0=1e-6, weight=ANALYTIC):
    return hm.SolveSetup(B, dc, weight=weight, q_next=89, qbar_n=8, r_b=0.05,
                         sigma=0.001, eps0=eps0)


def test_solver_diagonal_division_oracle():
    [dc] = active_part(hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID))
    grid = dc.lambda_grid
    zero = fr.zeros(grid)
    u = fr.from_modes(grid, fr.SCALAR, {1: 1e-9, -1: 1e-9, 3: 0.5e-9})
    res = hm.solve_homological(zero, u, 1, make_setup(zero, dc), R_TILDE)
    for k, v in res.delta.coeffs.items():
        expect = u.coeff(k) / (np.exp(2j * np.pi * grid) - GM.phase(k))
        assert np.allclose(v, expect, rtol=1e-12)
    assert res.delta_er.is_zero()
    assert all(r.passed for r in res.rows)


def test_solver_ignores_values_at_excluded_lambda():
    # 1e-9 at an excluded lambda would let the drop rule erase the 1e-34
    # mode 0 that u holds at the active points; on the active points alone
    # no trace of it is left
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID)
    assert not dc.active_mask().all()
    data = np.zeros((2, len(GRID)), complex)
    data[0] = 1e-34
    clean = fr.FourierSeries(GRID, fr.SCALAR, np.array([0, 1]), data.copy())
    data[1, np.flatnonzero(~dc.active_mask())[0]] = 1e-9
    u = fr.FourierSeries(GRID, fr.SCALAR, np.array([0, 1]), data)
    dc, u, clean = active_part(dc, u, clean)
    assert u.support == clean.support == [0]
    assert np.array_equal(u.data, clean.data)
    zero = fr.zeros(dc.lambda_grid)
    res = hm.solve_homological(zero, u, 1, make_setup(zero, dc), R_TILDE)
    assert np.abs(res.delta.sample(16)).min() > 1e-35


def test_solver_zero_rhs():
    [dc] = active_part(hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID))
    zero = fr.zeros(dc.lambda_grid)
    res = hm.solve_homological(zero, zero, 1, make_setup(zero, dc), R_TILDE)
    assert res.delta.is_zero()
    assert res.delta_er.is_zero()


@pytest.mark.parametrize("l", [1, 2])
def test_solver_dense_full_pivot_oracle(l):
    rng = np.random.default_rng(24 + l)
    K = 9
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, K, GRID)
    for _ in range(10):
        B = rand_scalar(rng, GRID, 5, scale=0.002, real=True)
        b = rand_scalar(rng, GRID, 4, scale=1e-3)
        u = rand_scalar(rng, GRID, K - 1, scale=1e-2)
        dca, B, b, u = active_part(dc, B, b, u)
        setup = make_setup(B, dca)
        res = hm.solve_homological(b, u, l, setup, R_TILDE)
        worst, _ = vf.full_pivot_deviation(u, res, l, setup,
                                           range(0, len(setup.grid), 3))
        assert worst <= 1e-10


def residual_row(res):
    [row] = [r for r in res.rows if r.check.startswith("truncated-system")]
    return row


def neumann_steps(res):
    return int(re.match(r"neumann steps=(\d+)", residual_row(res).detail)[1])


@pytest.mark.parametrize("l", [1, 2])
def test_solver_neumann_full_pivot_oracle_K64(l):
    # n = 127 modes, every active point by the iteration, none densely
    rng = np.random.default_rng(70 + l)
    K = 64
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, K, GRID)
    B = rand_scalar(rng, GRID, 5, scale=0.002, real=True)
    b = rand_scalar(rng, GRID, 4, scale=1e-3)
    u = rand_scalar(rng, GRID, K - 1, scale=1e-2)
    dc, B, b, u = active_part(dc, B, b, u)
    assert len(dc.lambda_grid) >= 2
    setup = make_setup(B, dc)
    res = hm.solve_homological(b, u, l, setup, R_TILDE)
    assert "dense" not in residual_row(res).detail
    worst, _ = vf.full_pivot_deviation(u, res, l, setup,
                                       range(len(setup.grid)))
    assert worst <= 1e-10


def test_solver_neumann_stops_at_roundoff():
    # the last l = 2 solve of test_solver_dense_full_pivot_oracle: its plain
    # Neumann steps stall near 3e-17 of max|F| and never reach 1e-17
    rng = np.random.default_rng(26)
    K = 9
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, K, GRID)
    for _ in range(10):
        B = rand_scalar(rng, GRID, 5, scale=0.002, real=True)
        b = rand_scalar(rng, GRID, 4, scale=1e-3)
        u = rand_scalar(rng, GRID, K - 1, scale=1e-2)
    dc, B, b, u = active_part(dc, B, b, u)
    setup = make_setup(B, dc)
    res = hm.solve_homological(b, u, 2, setup, R_TILDE)
    A, rhs, _ = vf.dense_system(u, res, 2, setup)
    diag = np.einsum("mii->mi", A)
    x = rhs / diag
    rel = []
    for _ in range(40):
        new = (rhs - np.einsum("mij,mj->mi", A, x) + diag * x) / diag
        rel.append(float((np.abs(new - x).max(axis=1)
                          / np.abs(new).max(axis=1)).max()))
        x = new
    assert min(rel[20:]) > 1e-17
    assert neumann_steps(res) <= 30
    assert "dense" not in residual_row(res).detail
    assert residual_row(res).passed


def test_solver_full_equation_residual_identity():
    # substituting delta into the untruncated equation leaves exactly the
    # transported tail, measured in the algebra
    rng = np.random.default_rng(26)
    K = 9
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, K, GRID)
    B = rand_scalar(rng, GRID, 5, scale=0.002, real=True)
    b = rand_scalar(rng, GRID, 4, scale=1e-3)
    u = rand_scalar(rng, GRID, 14, scale=1e-2)   # modes beyond K: nonzero tail
    dc, B, b, u = active_part(dc, B, b, u)
    res = hm.solve_homological(b, u, 1, make_setup(B, dc), R_TILDE)
    assert not res.delta_er.is_zero()
    row = [r for r in res.rows if r.check.startswith("full residual")][0]
    assert row.passed
    # and the solution bound as measured
    brow = [r for r in res.rows if r.check.startswith("||delta||")][0]
    assert brow.passed


def assert_solved_past_hypotheses(res, setup, n_dense):
    # the solve runs: a finite delta, the failed hypotheses only report, and
    # the a-posteriori gating rows certify the dense solves
    assert np.isfinite(res.delta.data).all()
    rows = {r.check: r for r in res.rows}
    for check in ("||b||_rt < g^2/(12 Q^{2tau^2})",
                  "||S^{-1} E P E^{-1}|| < 1/2"):
        assert not rows[check].passed and not rows[check].gating
    assert all(r.passed for r in rows.values() if r.gating)
    dense = residual_row(res).detail.split("dense at lambda=")[1].split()
    assert len(dense) == n_dense == len(setup.grid)


def test_solver_reports_failed_preconditions():
    [dc] = active_part(hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID))
    grid = dc.lambda_grid
    setup = make_setup(fr.zeros(grid), dc)
    rng = np.random.default_rng(27)
    b = rand_scalar(rng, grid, 3, scale=1.0)  # far above the hypothesis bound
    u = rand_scalar(rng, grid, 5, scale=1.0)
    res = hm.solve_homological(b, u, 1, setup, R_TILDE)
    assert_solved_past_hypotheses(res, setup, 4)


def test_solver_reports_failed_conditioning():
    [dc] = active_part(hm.dc_from_exclusion(GM, 0.05, 2.0, 6, GRID))
    grid = dc.lambda_grid
    setup = make_setup(fr.zeros(grid), dc, eps0=1e6)
    rng = np.random.default_rng(28)
    b = rand_scalar(rng, grid, 3, scale=0.5)  # Neumann dominance far above 1/2
    u = rand_scalar(rng, grid, 5, scale=1.0)
    res = hm.solve_homological(b, u, 2, setup, R_TILDE)
    assert_solved_past_hypotheses(res, setup, 6)


# -- the windowed truncated solve against the full-window one ---------------------------------


def full_window_solve(btilde, utt, setup, l, dom):
    # the Neumann solve over all n = 2K - 1 modes, one FFT of length
    # >= 2n - 1 per step, as it ran before the window: the oracle of the
    # windowed solve (same stop rule, cap, stuck test and dense fallback)
    n = len(setup.ks)

    def zero_filled(s, width):
        near = s.truncate(width)
        out = np.zeros((2 * width - 1, len(setup.grid)), complex)
        out[near.modes + width - 1] = near.data
        return out

    sdiag = setup.terms(l).diagonal
    rhs = zero_filled(utt, setup.K).T
    diffs = zero_filled(btilde, n).T
    nfft = 1 << (2 * n - 2).bit_length()
    rate = dom if dom < 0.5 else 0.5
    cap = math.ceil(math.log(hm._EPS) / math.log(max(rate, 1e-300))) \
        + hm._NEUMANN_MARGIN
    x = rhs / sdiag
    prev = np.full(len(x), np.inf)
    run = np.flatnonzero(diffs.any(axis=1))
    bhat = np.fft.fft(diffs, nfft) if run.size else None
    stuck, steps = [], 0
    while run.size and steps < cap:
        px = np.fft.ifft(np.fft.fft(x[run], nfft) * bhat[run])
        new = (rhs[run] - px[:, n - 1:2 * n - 1]) / sdiag[run]
        step = np.abs(new - x[run]).max(axis=1)
        x[run] = new
        steps += 1
        done = step <= hm._NEUMANN_TOL * np.abs(new).max(axis=1)
        shrinking = step < prev[run]
        stuck.append(run[~done & ~shrinking])
        prev[run] = step
        run = run[~done & shrinking]
    dense = np.concatenate(stuck + [run]).astype(int)
    for i in dense:
        M = hm._toeplitz(diffs[i], n).copy()
        M[np.arange(n), np.arange(n)] += sdiag[i]
        x[i] = np.linalg.solve(M, rhs[i])
    return (fr._cleaned(setup.grid, fr.SCALAR, setup.ks,
                        np.ascontiguousarray(x.T)), steps, np.sort(dense))


def on_modes(rng, grid, modes, scale):
    # a complex series with random coefficients of size scale at modes
    z = rng.standard_normal((len(modes), 2))
    data = scale * (z[:, 0] + 1j * z[:, 1])[:, None] * (1.0 + grid - 0.5)
    return fr.FourierSeries(grid, fr.SCALAR, np.array(modes, np.int64), data)


def solver_inputs(b, u, l, setup):
    # btilde, utt and the measured dominance as solve_homological forms them
    t = setup.terms(l)
    btilde = t.tail_term + fr.multiply(b, t.phi)
    utt = fr.multiply(fr.multiply(t.e_plus, u), t.phi)
    s_inv, pe = hm._conditioning(btilde, setup, l, R_TILDE)
    return btilde, utt, s_inv * pe


def windowed_vs_full(btilde, utt, setup, l, dom):
    """The windowed solve matches the full-window one within 1e-14 of each
    mode's majorant (|U_k| + ||btilde||_1 max|F|) / |S_k| at every
    point, with the same step count and the same dense points; returns
    (the windowed F as a series, its steps, its dense points)."""
    got, steps, dense = hm._solve_truncated(btilde, utt, setup, l, dom)
    want, want_steps, want_dense = full_window_solve(btilde, utt, setup, l,
                                                     dom)
    assert steps == want_steps
    assert np.array_equal(dense, want_dense)
    K = setup.K
    F = np.array([got.coeff(int(k)) for k in setup.ks])
    W = np.array([want.coeff(int(k)) for k in setup.ks])
    U = np.array([utt.coeff(int(k)) for k in setup.ks])
    b1 = np.abs(btilde.truncate(2 * K - 1).data).sum(axis=0)
    S = np.abs(setup.terms(l).diagonal).T
    majorant = (np.abs(U) + b1 * np.abs(W).max(axis=0)) / S
    assert (np.abs(F - W) <= 1e-14 * majorant).all()
    return got, steps, dense


def liouville_setup(K, rng, grid_points=33):
    # the setup and its grid, the active points of the DC set
    grid = np.linspace(0.25, 0.75, grid_points)
    B = rand_scalar(rng, grid, 5, scale=0.002, real=True)
    dc, B = active_part(hm.dc_from_exclusion(GM, 0.01, 2.0, K, grid, B), B)
    return dc.lambda_grid, make_setup(B, dc)


@pytest.mark.parametrize("l", [1, 2])
def test_windowed_solve_liouville_shape(l):
    # K = 256 (n = 511 modes), a 7-mode right side and a 5-mode btilde: the
    # window starts at 7 modes and grows by 2 at each end per step
    rng = np.random.default_rng(80 + l)
    grid, setup = liouville_setup(256, rng)
    btilde = on_modes(rng, grid, range(-2, 3), 1e-4)
    utt = on_modes(rng, grid, range(-3, 4), 1e-2)
    dom = np.prod(hm._conditioning(btilde, setup, l, R_TILDE))
    got, steps, dense = windowed_vs_full(btilde, utt, setup, l, dom)
    assert steps >= 3 and not dense.size
    assert got.max_mode < 3 + 2 * steps + 1


def test_windowed_solve_zero_btilde_is_u_over_s():
    rng = np.random.default_rng(82)
    grid, setup = liouville_setup(256, rng)
    utt = on_modes(rng, grid, range(-3, 4), 1e-2)
    zero = fr.zeros(grid)
    got, steps, dense = hm._solve_truncated(zero, utt, setup, 1, 0.0)
    want, want_steps, _ = full_window_solve(zero, utt, setup, 1, 0.0)
    assert steps == want_steps == 0 and not dense.size
    assert got.support == want.support == list(range(-3, 4))
    assert got.data.tobytes() == want.data.tobytes()
    S = setup.terms(1).diagonal[:, setup.K - 4:setup.K + 3].T
    assert np.array_equal(got.data, utt.data / S)


@pytest.mark.parametrize("nnz", [4, 200, 500])
def test_windowed_solve_dense_data(nnz):
    # a 255-mode right side and a btilde of nnz modes about 0: the window
    # reaches all 511 modes in one or two steps
    rng = np.random.default_rng(83 + nnz)
    grid, setup = liouville_setup(256, rng)
    btilde = on_modes(rng, grid, np.arange(nnz) - nnz // 2, 1e-6 / nnz)
    utt = on_modes(rng, grid, range(-127, 128), 1e-2)
    dom = np.prod(hm._conditioning(btilde, setup, 2, R_TILDE))
    _, steps, dense = windowed_vs_full(btilde, utt, setup, 2, dom)
    assert steps >= 2 and not dense.size


def test_windowed_solve_reaches_the_clip():
    # K = 12: a right side at the edge of |k| < K and a btilde reaching 3
    # modes out; the window is clipped to |k| < K on its first step
    rng = np.random.default_rng(86)
    [dc] = active_part(hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID))
    grid = dc.lambda_grid
    setup = make_setup(fr.zeros(grid), dc)
    btilde = on_modes(rng, grid, [-3, -1, 2], 1e-3)
    utt = on_modes(rng, grid, [7, 9, 11, 12, 15], 1e-2)
    dom = np.prod(hm._conditioning(btilde, setup, 1, R_TILDE))
    got, steps, dense = windowed_vs_full(btilde, utt, setup, 1, dom)
    assert steps >= 3 and not dense.size
    assert got.support[-1] == 11 and got.support[0] < 7


def test_windowed_solve_stalled_points():
    # the solve of test_b_norms_measured_once_per_level whose iteration
    # stalls at two points, which are solved densely over all n modes
    rng = np.random.default_rng(62)
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID)
    B = rand_scalar(rng, GRID, 12, scale=0.002, real=True)
    b = rand_scalar(rng, GRID, 4, scale=1e-3)
    u = rand_scalar(rng, GRID, 8, scale=1e-2)
    dc, B, b, u = active_part(dc, B, b, u)
    setup = make_setup(B, dc)
    btilde, utt, dom = solver_inputs(b, u, 2, setup)
    _, _, dense = windowed_vs_full(btilde, utt, setup, 2, dom)
    assert np.array_equal(setup.grid[dense], [0.3125, 0.6875])


def test_windowed_solve_without_modes_below_K():
    # a right side with no mode |k| < K: F = 0 with no step
    rng = np.random.default_rng(87)
    [dc] = active_part(hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID))
    grid = dc.lambda_grid
    setup = make_setup(fr.zeros(grid), dc)
    btilde = on_modes(rng, grid, [-1, 1], 1e-3)
    utt = on_modes(rng, grid, [-14, 12], 1e-2)
    got, steps, dense = hm._solve_truncated(btilde, utt, setup, 1, 0.1)
    assert got.is_zero() and steps == 0 and not dense.size


def test_windowed_solve_working_set():
    # K = 256 on 33 lambda with a 6-mode right side and a 32-mode btilde:
    # the solve's arrays are sized by the modes it reaches, not by n = 511
    rng = np.random.default_rng(88)
    grid, setup = liouville_setup(256, rng)
    btilde = on_modes(rng, grid, range(-16, 16), 1e-5)
    utt = on_modes(rng, grid, range(-3, 3), 1e-2)
    dom = np.prod(hm._conditioning(btilde, setup, 2, R_TILDE))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, steps, _ = hm._solve_truncated(btilde, utt, setup, 2, dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert steps >= 2
    assert peak - start < 1.5 * 2**20


# -- the per-level solver object ----------------------------------------------------------


def conditioning_oracle(btilde, l, setup, r_tilde):
    # the measured norms as one double loop over (k1, k2)
    K = setup.K
    grid = btilde.lambda_grid
    om = grid + np.real(setup.B.average())
    davg = 0.0
    if len(grid) >= 2:
        davg = float(np.abs(np.gradient(om, grid) - 1.0).max())
    s_inv = 0.0
    for k in range(-K + 1, K):
        small = np.abs(np.exp(2j * np.pi * (l * om)) - setup.cf.phase(k))
        val = (1.0 / small + 2 * math.pi * l * (1.0 + davg) / small**2).max()
        s_inv = max(s_inv, float(val))
    c_O = {d: ref_coeff_O(v, grid) for d, v in btilde.coeffs.items()}
    lw = {k: eval_lambda(setup.weight, 2 * math.pi * k * r_tilde)
          for k in range(K)}
    pe = 0.0
    for k1 in range(-K + 1, K):
        tot = 0.0
        for k2 in range(-K + 1, K):
            c = c_O.get(k1 - k2)
            if c:
                tot += c * math.exp(min(lw[abs(k1)] - lw[abs(k2)], 700.0))
        pe = max(pe, tot)
    return s_inv, pe


# (K, r_tilde, modes): K = 256 is the liouville-33 size, n = 511 modes; at
# r_tilde = 2500 the weights spread by more than 700 (4.0e6 analytic, 2001
# gevrey), so ratios reach the clamp.  modes None takes the btilde of a
# solve (about 80 modes, summed in blocks of 32 diagonals at n = 511);
# otherwise btilde is drawn on those modes: at most 8 at K = 256, and at K =
# 12 (n = 23) modes |d| >= n that no row reaches
@pytest.mark.parametrize("K, r_tilde, modes", [
    (12, R_TILDE, None), (40, R_TILDE, None), (256, R_TILDE, None),
    (256, 2500.0, None), (256, R_TILDE, (-255, -7, -1, 0, 2, 3, 90, 510)),
    (12, R_TILDE, (-40, -23, -22, -1, 0, 5, 22, 23))],
    ids=["12", "40", "256", "wide-256", "sparse-256", "beyond-n"])
@pytest.mark.parametrize("weight", [ANALYTIC, WeightFunction("gevrey", 0.5)],
                         ids=["analytic", "gevrey"])
def test_conditioning_matches_double_loop(K, r_tilde, modes, weight):
    rng = np.random.default_rng(60 + K)
    grid = np.linspace(0.25, 0.75, 33)
    B = rand_scalar(rng, grid, 5, scale=0.002, real=True)
    dc, B = active_part(hm.dc_from_exclusion(GM, 0.01, 2.0, K, grid, B), B)
    grid = dc.lambda_grid
    assert len(grid) >= 2
    setup = make_setup(B, dc, weight=weight)
    lw = eval_lambda(weight, 2 * math.pi * np.arange(K) * r_tilde)
    assert (lw.max() - lw.min() > 700) == (r_tilde != R_TILDE)
    for l in (1, 2):
        if modes is None:
            b = rand_scalar(rng, grid, 4, scale=1e-3)
            u = rand_scalar(rng, grid, K - 1, scale=1e-2)
            btilde = hm.solve_homological(b, u, l, setup, R_TILDE).btilde
        else:
            btilde = on_modes(rng, grid, modes, 1e-3)
        s_inv, pe = hm._conditioning(btilde, setup, l, r_tilde)
        s_ref, pe_ref = conditioning_oracle(btilde, l, setup, r_tilde)
        assert s_inv == s_ref
        assert pe == pytest.approx(pe_ref, rel=1e-12, abs=0)
        n = 2 * K - 1
        if max(np.abs(btilde.modes)) >= n:
            assert pe == hm._conditioning(btilde.truncate(n), setup, l,
                                          r_tilde)[1]


def test_conditioning_same_bits_shared_or_fresh_setup():
    # pe depends on the solve's inputs only: a setup shared by the l = 1 and
    # l = 2 solves and at two widths gives the bits of a fresh one
    rng = np.random.default_rng(62)
    grid = np.linspace(0.25, 0.75, 33)
    B = rand_scalar(rng, grid, 5, scale=0.002, real=True)
    b = rand_scalar(rng, grid, 4, scale=1e-3)
    u = rand_scalar(rng, grid, 11, scale=1e-2)
    dc, B, b, u = active_part(hm.dc_from_exclusion(GM, 0.01, 2.0, 12, grid, B),
                              B, b, u)
    setup = make_setup(B, dc)
    for l in (1, 2):
        res = hm.solve_homological(b, u, l, setup, R_TILDE)
        for r in (R_TILDE, 0.004, R_TILDE):
            _, pe = hm._conditioning(res.btilde, setup, l, r)
            _, fresh = hm._conditioning(res.btilde, make_setup(B, dc), l, r)
            assert pe == fresh


def test_conditioning_working_set_is_linear_in_modes():
    # K = 256 (n = 511 modes) on 33 lambda: the setup holds no (n, n) array
    # and one conditioning call builds none (an (n, n) float array is 2 MiB)
    rng = np.random.default_rng(63)
    K = 256
    grid = np.linspace(0.25, 0.75, 33)
    B = rand_scalar(rng, grid, 5, scale=0.002, real=True)
    dc, B = active_part(hm.dc_from_exclusion(GM, 0.01, 2.0, K, grid, B), B)
    grid = dc.lambda_grid
    tracemalloc.start()
    try:
        setup = make_setup(B, dc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20
    b = rand_scalar(rng, grid, 4, scale=1e-3)
    u = rand_scalar(rng, grid, K - 1, scale=1e-2)
    res = hm.solve_homological(b, u, 2, setup, R_TILDE)
    fresh = make_setup(B, dc)
    fresh.terms(2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        hm._conditioning(res.btilde, fresh, 2, R_TILDE)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 0.25 * 2**20
    assert kept - start < 4096


def test_solver_refuses_other_l():
    rng = np.random.default_rng(61)
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID)
    B = rand_scalar(rng, GRID, 5, scale=0.002, real=True)
    b = rand_scalar(rng, GRID, 4, scale=1e-3)
    u = rand_scalar(rng, GRID, 8, scale=1e-2)
    dc, B, b, u = active_part(dc, B, b, u)
    setup = make_setup(B, dc)
    hm.solve_homological(b, u, 2, setup, R_TILDE)
    # the width of a solve is its own; the level's setup is shared
    hm.solve_homological(b, u, 1, setup, 0.004)
    with pytest.raises(ValueError, match="l must be 1 or 2"):
        hm.solve_homological(b, u, 3, setup, R_TILDE)


def test_b_norms_measured_once_per_level():
    rng = np.random.default_rng(62)
    dc = hm.dc_from_exclusion(GM, 0.05, 2.0, 12, GRID)
    B = rand_scalar(rng, GRID, 12, scale=0.002, real=True)
    b = rand_scalar(rng, GRID, 4, scale=1e-3)
    u = rand_scalar(rng, GRID, 8, scale=1e-2)
    dc, B, b, u = active_part(dc, B, b, u)
    setup = make_setup(B, dc)
    fresh = [hm.solve_homological(b, u, l, make_setup(B, dc), R_TILDE)
             for l in (1, 2)]
    shared = [hm.solve_homological(b, u, l, setup, R_TILDE)
              for l in (1, 2)]
    # the same rows, bit for bit, whether the setup is shared or not
    assert [r.rows for r in shared] == [r.rows for r in fresh]
    nB = fr.norm_r(B, setup.ctx(setup.r_b))
    tail = fr.norm_r(B.project_tail(setup.qbar_n), setup.ctx(setup.r_b / 2))
    assert setup.b_norms == (nB, tail)
    assert [r.actual for r in shared[0].rows[:2]] == [nB, tail]
    assert tail > 0
    # ||S^{-1} E P E^{-1}|| is 1.4e6 for l = 2: the iteration diverges at
    # two of the four points, which are solved densely instead
    for res in fresh + shared:
        assert np.isfinite(res.delta_tilde.data).all()
        assert residual_row(res).passed
    assert "dense" not in residual_row(fresh[0]).detail
    assert residual_row(fresh[1]).detail.endswith(
        " dense at lambda=0.3125 0.6875")


def test_verify_oracle_rows_feel_the_off_diagonal():
    # the verify suite's solver trials use constants where b delta is felt:
    # a solver that dropped P would miss the full-pivot solution by far more
    # than the rows' 1e-10
    rows = [r for r in vf.homological_suite(0)
            if r.check.startswith("solver matches full-pivot oracle")]
    assert len(rows) == 2
    for r in rows:
        assert r.passed
        felt = re.fullmatch(r"off-diagonal moves F by (\S+)", r.detail)
        assert float(felt[1]) > 100 * r.bound
