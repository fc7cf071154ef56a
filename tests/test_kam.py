import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kamtori import cfrac as cfr
from kamtori import fourier as fr
from kamtori import homological as hm
from kamtori import kam
from kamtori import model as md
from kamtori import verify as vf
from kamtori.weights import WeightFunction

GM = cfr.golden_mean()
SEL = cfr.select_bridges(GM, 2.0)
ANALYTIC = WeightFunction("analytic")


def make_sched(**kw):
    args = dict(eps0=1e-8, gamma0=0.05, tau=2.0, s0=0.5, r0="1/2",
                T_override=6.0, K_cap=256, L_cap=24)
    args.update(kw)
    return kam.make_schedule(GM, SEL, ANALYTIC, **args)


# -- schedule -------------------------------------------------------------------


def test_schedule_sequence_values():
    sched = make_sched(gamma0=0.1)
    assert kam.Schedule.eta(0) == 0.25
    assert sched.gamma(1) == pytest.approx(0.1 / 9)     # gamma0 eta_1
    assert sched.gamma(0) == pytest.approx(0.1 / 4)
    # s advances by the eta products
    assert sched.s(1) == pytest.approx(0.5 * 0.75)
    assert sched.s(2) == pytest.approx(0.5 * 0.75 * (1 - 1 / 9))


def test_schedule_contraction_strictly_decreasing():
    sched = make_sched()
    eps_vals = [sched.eps(n) for n in range(4)]
    assert all(b < a for a, b in zip(eps_vals, eps_vals[1:]))
    for n in range(1, 4):
        assert 0.0 <= sched.contraction(n) < 1.0


def test_schedule_widths_exact_fractions():
    sched = make_sched()
    for n in range(3):
        L = sched.L(n)
        rt0 = 2 * sched.r(n + 1)
        sigma = rt0 / (2 * L)
        assert rt0 - L * sigma == sched.r(n + 1)  # exact rational identity
        assert sched.r(n + 1) == sched.r0 / Fraction(sched.Qbar(n)) ** 2


def test_schedule_L_at_least_one():
    sched = make_sched()
    for n in range(3):
        assert sched.L(n) >= 1


def test_schedule_K_capped():
    sched = make_sched(K_cap=7)
    for n in range(3):
        assert sched.K(n) <= 7
        assert sched.K(n) <= math.isqrt(sched.Qbar(n + 1))
    assert sched.K(-1) == 0 and sched.K(-3) == 0


def test_schedule_anchoring_rows():
    sched = make_sched()
    names = [r.check for r in sched.rows]
    assert any("Q_{n0+1} <= T^{A^4}" in n for n in names)
    assert any("Qbar_{n0+1} >= T" in n for n in names)
    anchor = [r for r in sched.rows if "Q_{n0+1}" in r.check or
              "Qbar_{n0+1}" in r.check]
    assert all(r.passed for r in anchor)


def test_schedule_depth_error():
    shallow = cfr.select_bridges(cfr.from_quotients([1] * 8), 2.0)
    with pytest.raises(kam.DepthError):
        kam.make_schedule(GM, shallow, ANALYTIC, eps0=1e-8, gamma0=0.05,
                          tau=2.0, s0=0.5, r0="1/2", T_override=1e9)


# -- exclusions ------------------------------------------------------------------


def test_exclusion_closed_form_oracle():
    # the last shift puts a zone's centre past the grid's right end
    sched = make_sched()
    grid = np.linspace(0.25, 0.75, 33)
    for shift in vf.exclusion_shifts(GM, sched.gamma(0)):
        dc = hm.dc_from_exclusion(GM, sched.gamma(0), sched.tau, sched.K(0),
                                  grid, fr.constant(grid, shift))
        assert vf.exclusion_deviation(dc, shift) <= 1e-12, shift
        [row] = dc.restrict_level()[1].certify()
        assert row.passed, (shift, row)


def test_exclusion_row_fails_on_a_missed_zone(monkeypatch):
    # the row must compare the DC set with the closed form, not with the
    # zones the search itself returned
    search = hm.resonance_zones

    def drop_widest(*args):
        zones, rows = search(*args)
        widest = max(zones, key=lambda z: z[1] - z[0])
        return [z for z in zones if z != widest], rows

    monkeypatch.setattr(hm, "resonance_zones", drop_widest)
    [row] = [r for r in vf.kam_suite(0)
             if r.check == "exclusion measure equals interval-sum oracle"]
    assert not row.passed, row


def test_exclusion_measure_vanishes_with_gamma():
    grid = np.linspace(0.25, 0.75, 33)
    removed = []
    for g in (0.05, 0.005, 0.0005):
        sched = make_sched(gamma0=g)
        dc = hm.dc_from_exclusion(GM, sched.gamma(0), sched.tau,
                                  sched.K(0), grid)
        removed.append(hm.IntervalUnion.full().measure()
                       - dc.intervals.measure())
    assert removed[0] > removed[1] > removed[2]
    assert removed[2] < 0.01 * removed[0] * 15  # O(gamma) scaling


def test_exclusion_exhaustion():
    grid = np.linspace(0.25, 0.75, 33)
    sched = make_sched(gamma0=3.5)
    with pytest.raises(kam.ParameterExhausted, match="exhausted at level 0"):
        kam.kam_step(_blank_state(grid), sched)


def test_level_with_one_point_left_is_exhausted():
    # the k = 0, l = 2 zone removes lambda = 1/2: one point is left, and
    # neither the zone search nor the lambda-derivative has two
    grid = np.array([0.3, 0.5])
    with pytest.raises(kam.ParameterExhausted,
                       match="lambda points left: 1, a level needs 2"):
        kam.kam_step(_blank_state(grid), make_sched())
    spec = md.build_preset("constant_forcing", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, make_sched(), n_max=2)
    assert summary.stopped.startswith("exhausted: parameter set exhausted "
                                      "at level 0")
    assert "lambda points left: 1" in summary.stopped
    assert len(summary.states) == 1


def _generating_state(grid, eps=1e-6):
    spec = md.build_preset("generating", eps, GM, grid, d_max=4)
    conj = md.conjugate_to_su11(spec)
    return kam.initial_state(conj.U, conj.W, conj.R, grid)


def test_kam_step_keeps_the_active_points_on_one_grid():
    grid = np.linspace(0.25, 0.75, 33)
    state = _generating_state(grid)
    new, rep = kam.kam_step(state, make_sched(K_cap=32, L_cap=4))
    dc = hm.dc_from_exclusion(GM, make_sched().gamma(0), 2.0,
                              make_sched(K_cap=32).K(0), grid)
    keep = np.flatnonzero(dc.active_mask())
    assert 2 <= len(keep) < len(grid)
    assert np.array_equal(new.lambda_index, keep)
    assert np.array_equal(new.lambda_grid, grid[keep])
    assert new.omega == dc.intervals
    for s in (new.V, new.U, new.W, new.transform.matrix,
              new.transform.offset, *new.R.terms.values()):
        assert s.lambda_grid is new.lambda_grid
    # a restriction of the state keeps its columns and its config indices
    part = new.restrict(np.array([0, 2]), new.lambda_grid[[0, 2]])
    assert np.array_equal(part.lambda_index, keep[[0, 2]])
    assert np.array_equal(part.U.data, new.U.data[:, [0, 2]])
    assert part.omega == new.omega


def test_kam_step_ignores_values_at_excluded_lambda():
    # 1e-9 added to U and W at the lambda points level 0 excludes, on the
    # modes they hold and on a mode they do not: the level, which runs on
    # its active points alone, gives the same bits and the same rows
    grid = np.linspace(0.25, 0.75, 33)
    sched = make_sched(K_cap=32, L_cap=4)
    state = _generating_state(grid)
    new, rep = kam.kam_step(state, sched)
    out = np.setdiff1d(np.arange(len(grid)), new.lambda_index)
    assert len(out)

    def junk(s):
        modes = np.append(s.modes, 40)
        data = np.concatenate((s.data, np.zeros_like(s.data[:1])))
        data[:, out] += 1e-9
        return fr.FourierSeries(s.lambda_grid, s.kind, modes, data)

    dirty = dataclasses.replace(state, U=junk(state.U), W=junk(state.W))
    new_dirty, rep_dirty = kam.kam_step(dirty, sched)
    for a, b in ((new.U, new_dirty.U), (new.W, new_dirty.W),
                 (new.V, new_dirty.V)):
        assert a.support == b.support
        assert a.data.tobytes() == b.data.tobytes()
    assert rep.rows == rep_dirty.rows
    assert rep.U_norm == rep_dirty.U_norm and rep.W_norm == rep_dirty.W_norm


def test_measure_rows_bound():
    rows = kam.measure_rows([0.01, 0.004, 0.001], 0.05, 2.0)
    assert rows[-1].check.startswith("total excluded")
    assert rows[-1].passed
    # cumulative nondecreasing
    cums = [r.actual for r in rows[:-1]]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert kam.measure_rows([], 0.05, 2.0)[-1].actual == 0.0


# -- sub-iteration ----------------------------------------------------------------


def _blank_state(grid):
    return kam.initial_state(fr.zeros(grid, fr.C2VECTOR),
                             fr.zeros(grid, fr.SU11MATRIX),
                             fr.PowerFourierSeries(4, grid, fr.C2VECTOR, {}),
                             grid)


def _level_pieces(grid, gamma=0.05, K=12, state=None):
    """The DC set and the context of a level on grid, both on the DC set's
    active points, as kam_step moves a level there; ctx.grid is the level's
    grid."""
    state = _blank_state(grid) if state is None else state
    rho, B, _, _ = hm.polar_decompose(state.V.entry(0, 0))
    keep, dc, rho, B = hm.dc_from_exclusion(GM, gamma, 2.0, K, grid,
                                            B).restrict_level(rho, B)
    state = state.restrict(keep, dc.lambda_grid)
    setup = hm.SolveSetup(B, dc, weight=ANALYTIC, q_next=89, qbar_n=8,
                          r_b=0.05, sigma=0.002, eps0=1e-6)
    return dc, kam._level_context(state, rho, setup)


def _sub_state(ctx, U, W, R, hess):
    """Sub-step 0 of a level at width r_0 = 0.01 with ||d2R|| = hess."""
    return kam.SubState(0, fr.zeros(ctx.grid, fr.SU11MATRIX), U, W, R,
                        fr.norm_r(U, ctx.ctx(0.01)), hess)


def test_sub_step_zero_fixed_point():
    dc, ctx = _level_pieces(np.linspace(0.25, 0.75, 9))
    grid = ctx.grid
    sub = _sub_state(ctx, fr.zeros(grid, fr.C2VECTOR),
                     fr.zeros(grid, fr.SU11MATRIX),
                     fr.PowerFourierSeries(4, grid, fr.C2VECTOR, {}), 0.0)
    new, E, Delta, rows = kam.sub_iteration_step(ctx, sub, 1e-8,
                                                 0.01, 0.008, 0.5)
    assert E is None and Delta is None
    assert new.j == 1
    assert new.U.is_zero() and new.W.is_zero()


def test_sub_step_diagonal_W_absorbed():
    # purely diagonal W: off-diagonal split vanishes, D = 0, v absorbs all
    dc, ctx = _level_pieces(np.linspace(0.25, 0.75, 9))
    grid = ctx.grid
    w1 = fr.from_modes(grid, fr.SCALAR, {1: 1e-5, -1: 2e-5})
    W = fr.matrix_from_scalars(w1, fr.zeros(grid), fr.zeros(grid), w1.conj())
    sub = _sub_state(ctx, fr.zeros(grid, fr.C2VECTOR), W,
                     fr.PowerFourierSeries(4, grid, fr.C2VECTOR, {}), 0.0)
    new, E, Delta, rows = kam.sub_iteration_step(ctx, sub, 1e-8,
                                                 0.01, 0.008, 0.5)
    assert Delta.is_zero()
    assert (E - fr.eye(grid)).sup_bound() == 0.0   # D = 0 exactly
    assert (new.v.entry(0, 0) - w1).sup_bound() < 1e-20
    assert new.W.is_zero()    # snapped: the absorption is exact


def test_sub_step_substitution_oracle_independent():
    # desk-scale random instance; the oracle below re-evaluates both
    # equations on a 4096-point grid with plain numpy
    rng = np.random.default_rng(42)
    dc, ctx = _level_pieces(np.linspace(0.25, 0.75, 9))
    grid = ctx.grid

    def rando(support, scale, real=False):
        modes = {}
        for k in range(1, support + 1):
            c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            modes[k] = c
            modes[-k] = np.conj(c) if real else scale * (
                rng.standard_normal() + 1j * rng.standard_normal())
        return fr.from_modes(grid, fr.SCALAR, modes)

    u0 = rando(6, 1e-8)
    U = fr.conjugate_pair(u0)
    w1, w2 = rando(4, 1e-4), rando(4, 1e-4)
    W = fr.matrix_from_scalars(w1, w2, w2.conj(), w1.conj())
    R = fr.PowerFourierSeries(4, grid, fr.C2VECTOR, {})
    r20 = rando(3, 0.1)
    R.set_term((2, 0), fr.vector_from_scalars(r20, fr.zeros(grid)))
    R.set_term((0, 2), fr.vector_from_scalars(fr.zeros(grid), r20.conj()))
    sub = _sub_state(ctx, U, W, R, 1.0)
    new, E, Delta, rows = kam.sub_iteration_step(ctx, sub, 3e-8,
                                                 0.01, 0.008, 0.5)
    n = 4096
    alpha_phase = GM.phase

    def rhs(s, Xv):
        Zw = ctx.phase_diag + ctx.Vmat + s.v
        out = np.einsum("tlij,tlj->tli", Zw.sample(n), Xv)
        out += np.einsum("tlij,tlj->tli", s.W.sample(n), Xv)
        out += s.U.sample(n)
        out += s.R.eval_at_points(Xv)
        return out

    worst, scale = 0.0, 0.0
    for v in (0.11 + 0.03j, -0.02 + 0.09j):
        Y = np.empty((n, len(grid), 2), complex)
        Y[..., 0] = v
        Y[..., 1] = np.conj(v)
        Xj = np.einsum("tlij,tlj->tli", E.sample(n), Y) \
            + Delta.sample(n)
        t_old = rhs(sub, Xj)
        t_new = np.einsum("tlij,tlj->tli",
                          E.shift(alpha_phase).sample(n),
                          rhs(new, Y)) + Delta.shift(alpha_phase).sample(n)
        worst = max(worst, float(np.abs(t_old - t_new).max()))
        scale = max(scale, float(np.abs(t_old).max()))
    assert worst <= 1e-10 * scale
    # structure is preserved
    assert fr.c2_pair_defect(new.U) <= 1e-12 * max(1.0, new.U.sup_bound())
    assert fr.su11_defect(new.W) <= 1e-12 * max(1.0, new.W.sup_bound())
    assert new.R.low_degree_mass() == 0.0


def _whole_grid_substitution_defect(ctx, sub_old, sub_new, E, Delta,
                                    n_theta=256,
                                    probes=(0.1 + 0.05j, -0.03 + 0.2j)):
    """The substitution oracle on the whole theta-grid at once: every
    series sampled on all n_theta points, then the same pointwise identity
    and maxima as kam.substitution_defect; the reference for its blocks."""
    phase = ctx.setup.cf.phase

    def rhs(s, Xvals):
        Zw = ctx.phase_diag + ctx.Vmat + s.v
        out = np.einsum("tlij,tlj->tli", Zw.sample(n_theta), Xvals)
        out += np.einsum("tlij,tlj->tli", s.W.sample(n_theta), Xvals)
        out += s.U.sample(n_theta)
        out += s.R.eval_at_points(Xvals)
        return out

    worst, scale = 0.0, 0.0
    for v in probes:
        Y = np.empty((n_theta, len(ctx.grid), 2), complex)
        Y[..., 0] = v
        Y[..., 1] = np.conj(v)
        Xj = np.einsum("tlij,tlj->tli", E.sample(n_theta), Y) \
            + Delta.sample(n_theta)
        t_old = rhs(sub_old, Xj)
        t_new = np.einsum("tlij,tlj->tli", E.shift(phase).sample(n_theta),
                          rhs(sub_new, Y)) + Delta.shift(phase).sample(n_theta)
        worst = max(worst, float(np.abs(t_old - t_new).max()))
        scale = max(scale, float(np.abs(t_old).max()))
    return worst, scale


def _generating_level0(monkeypatch, grid, perturb=None):
    """kam_step at level 0 of a generating run on grid, with the arguments
    of its substitution_defect call recorded; perturb, if given, maps the
    Delta of the first sub-step before the level uses it."""
    calls = []
    real_defect, real_step = kam.substitution_defect, kam.sub_iteration_step

    def spy(*args, **kwargs):
        calls.append(args)
        return real_defect(*args, **kwargs)

    def step(ctx, sub, *args, **kwargs):
        new, E, Delta, rows = real_step(ctx, sub, *args, **kwargs)
        if perturb is not None and sub.j == 0:
            Delta = perturb(Delta)
        return new, E, Delta, rows

    monkeypatch.setattr(kam, "substitution_defect", spy)
    monkeypatch.setattr(kam, "sub_iteration_step", step)
    spec = md.build_preset("generating", 1e-6, GM, grid, d_max=4)
    conj = md.conjugate_to_su11(spec)
    state = kam.initial_state(conj.U, conj.W, conj.R, grid)
    _, rep = kam.kam_step(state, make_sched(K_cap=32, L_cap=4))
    [row] = [r for r in rep.rows
             if r.check == "substitution oracle <= 1e-10 relative"]
    return calls, row


def test_substitution_oracle_blocks_match_whole_grid(monkeypatch):
    # 33 lambda: blocks of 124 theta-points, so 256 ends in a partial
    # block of 8 and 100 is one partial block
    grid = np.linspace(0.25, 0.75, 33)
    calls, row = _generating_level0(monkeypatch, grid)
    assert row.passed and len(calls) == 1
    assert fr.block_rows(4 * len(grid)) == 124
    for n_theta in (256, 100):
        got = kam.substitution_defect(*calls[0], n_theta=n_theta)
        ref = _whole_grid_substitution_defect(*calls[0], n_theta=n_theta)
        assert ref[0] > 0.0 and ref[1] > 0.0
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-15 * r


def test_substitution_oracle_row_fails_on_seeded_delta_error(monkeypatch):
    grid = np.linspace(0.25, 0.75, 33)

    def perturb(Delta):
        return Delta + fr.conjugate_pair(fr.constant(Delta.lambda_grid, 1e-6))

    _, row = _generating_level0(monkeypatch, grid, perturb=perturb)
    assert not row.passed and row.gating
    assert row.actual > 1e4 * row.bound


def test_substitution_defect_memory_stays_in_theta_blocks():
    # L = 257: one (256, L, 2, 2) complex grid is 4 MiB; the oracle holds
    # about a dozen such grids when it samples the whole theta-grid
    rng = np.random.default_rng(43)
    dc, ctx = _level_pieces(np.linspace(0.25, 0.75, 257))
    grid = ctx.grid
    U = fr.conjugate_pair(vf.rand_scalar(rng, grid, 6, scale=1e-8))
    w1 = vf.rand_scalar(rng, grid, 4, scale=1e-4)
    w2 = vf.rand_scalar(rng, grid, 4, scale=1e-4)
    W = fr.matrix_from_scalars(w1, w2, w2.conj(), w1.conj())
    r20 = vf.rand_scalar(rng, grid, 3, scale=0.1)
    R = fr.PowerFourierSeries(4, grid, fr.C2VECTOR, {})
    R.set_term((2, 0), fr.vector_from_scalars(r20, fr.zeros(grid)))
    R.set_term((0, 2), fr.vector_from_scalars(fr.zeros(grid), r20.conj()))
    sub = _sub_state(ctx, U, W, R, 1.0)
    new, E, Delta, _ = kam.sub_iteration_step(ctx, sub, 3e-8, 0.01, 0.008,
                                              0.5)
    tracemalloc.start()
    try:
        worst, scale = kam.substitution_defect(ctx, sub, new, E, Delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst <= 1e-10 * scale
    assert peak < 8 * 2**20


# -- changes of variables ---------------------------------------------------------------


def test_transform_then_pointwise():
    # X = E1 X' + D1 followed by X' = E2 X'' + D2 is X = E1(E2 X'' + D2) + D1:
    # the composed series against the two factors applied in turn, sampled
    rng = np.random.default_rng(51)
    grid = np.linspace(0.25, 0.75, 9)
    n = 64

    def factor():
        E, _ = fr.exp_su11(fr.off_diagonal(vf.rand_scalar(rng, grid, 4,
                                                           scale=0.05)))
        return kam.TransformFactor(E, fr.conjugate_pair(
            vf.rand_scalar(rng, grid, 5, scale=0.1)))

    def apply(M, D, Y):
        return np.einsum("tlij,tlj->tli", M.sample(n), Y) + D.sample(n)

    f1, f2 = factor(), factor()
    comp = f1.then(f2.matrix, f2.offset)
    for v in (0.0, 0.3 - 0.2j, -0.1 + 0.4j):
        Y = np.empty((n, len(grid), 2), complex)
        Y[..., 0] = v
        Y[..., 1] = np.conj(v)
        ref = apply(f1.matrix, f1.offset, apply(f2.matrix, f2.offset, Y))
        got = apply(comp.matrix, comp.offset, Y)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# -- outer step and runs ---------------------------------------------------------------


def test_kam_step_zero_perturbation():
    grid = np.linspace(0.25, 0.75, 17)
    sched = make_sched()
    state = _blank_state(grid)
    new, rep = kam.kam_step(state, sched)
    assert new.n == 1
    assert new.U.is_zero() and new.W.is_zero()
    assert new.V.is_zero()
    assert state.transform is None
    assert (new.transform.matrix - fr.eye(new.lambda_grid)).sup_bound() == 0.0
    assert new.torus().is_zero()
    assert all(r.passed for r in rep.rows if r.gating)


def test_run_preset_a_one_step_kills_perturbation():
    grid = np.linspace(0.25, 0.75, 33)
    sched = make_sched()
    spec = md.build_preset("constant_forcing", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=2)
    assert summary.stopped == ""
    assert summary.records[1].U_norm == 0.0
    assert summary.records[1].residual <= 1e-2 * summary.records[0].residual
    assert all(r.passed for r in summary.rows if r.gating)
    # area preservation of every level factor and of their composition
    det_rows = [r for r in summary.rows
                if r.check == "composed factor det-1 <= 1e-8"]
    assert len(det_rows) == 2
    assert all(r.actual <= 1e-10 for r in det_rows)
    for st in summary.states[1:]:
        assert fr.det_minus_one(st.transform.matrix).sup_bound() <= 1e-10


def test_run_preset_b_forced_mechanism():
    grid = np.linspace(0.25, 0.75, 17)
    sched = make_sched(K_cap=64, L_cap=16)
    spec = md.build_preset("generating", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=2)
    assert summary.stopped == ""
    assert all(r.passed for r in summary.rows if r.gating)
    res = [rec.residual for rec in summary.records]
    assert res[1] < res[0] and res[2] < res[1]
    # V really moved: the normal form absorbed the diagonal part
    assert not summary.states[-1].V.is_zero()


def test_run_polar_reconstruction_row_every_level():
    # a generating run moves V, so levels 1 and 2 decompose a nonzero G
    grid = np.linspace(0.25, 0.75, 9)
    sched = make_sched(K_cap=32, L_cap=8)
    spec = md.build_preset("generating", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=3)
    polar = [r for r in summary.rows
             if r.check == "polar reconstruction pointwise <= 1e-12"]
    assert [r.detail for r in polar] == ["n=0", "n=1", "n=2"]
    assert all(r.gating and r.passed for r in polar)
    assert polar[0].actual == 0.0 and polar[1].actual > 0.0


def test_polar_grid_cap_row_reads_fail():
    # max mode 2048 wants a 4-times oversampled grid of 32768 > 1 << 14
    # points: the non-gating row reports it, the level still runs
    grid = np.linspace(0.25, 0.75, 3)
    g = fr.from_modes(grid, fr.SCALAR, {2048: 1e-4})
    V = fr.matrix_from_scalars(g, fr.zeros(grid), fr.zeros(grid), g.conj())
    state = dataclasses.replace(_blank_state(grid), V=V)
    _, rep = kam.kam_step(state, make_sched())
    [row] = [r for r in rep.rows if r.check == "polar grid <= 1<<14"]
    assert not row.passed and not row.gating
    assert row.actual == 32768.0 and row.bound == 16384.0
    assert row.detail == "n=0"


def test_run_depth_stop():
    grid = np.linspace(0.25, 0.75, 9)
    sched = make_sched()
    spec = md.build_preset("constant_forcing", 1e-8, GM, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=50)
    assert summary.stopped.startswith("depth")
    assert len(summary.records) >= 3


def test_run_liouvillean_stress():
    lv = cfr.from_quotients([2 ** (2**k) for k in range(1, 8)],
                            prec_bits=1024, pad_to=60)
    sel = cfr.select_bridges(lv, 2.0)
    sched = kam.make_schedule(lv, sel, ANALYTIC, eps0=1e-8, gamma0=0.05,
                              tau=2.0, s0=0.5, r0="1/2", T_override=6.0,
                              K_cap=256, L_cap=24)
    grid = np.linspace(0.25, 0.75, 33)
    spec = md.build_preset("constant_forcing", 1e-8, lv, grid, d_max=4)
    summary = kam.run(spec, sched, n_max=3)
    assert summary.stopped == ""
    assert len(summary.records) == 4
    res = [rec.residual for rec in summary.records]
    floor = 1e-13
    assert all(res[i + 1] <= res[i] or res[i + 1] <= floor
               for i in range(3))
    assert res[3] <= 1e-2 * res[0]
    # widths collapse fast: the Liouvillean price
    assert summary.records[3].r < 1e-6
    assert all(r.passed for r in summary.rows if r.gating)


def test_run_determinism():
    grid = np.linspace(0.25, 0.75, 17)
    sched = make_sched()
    spec = md.build_preset("constant_forcing", 1e-8, GM, grid, d_max=4)
    a = kam.run(spec, sched, n_max=2)
    b = kam.run(spec, sched, n_max=2)
    for ra, rb in zip(a.records, b.records):
        assert (ra.level, ra.r, ra.U_norm, ra.W_norm, ra.residual,
                ra.excluded_measure) == \
               (rb.level, rb.r, rb.U_norm, rb.W_norm, rb.residual,
                rb.excluded_measure)


def test_sub_step_generator_equation_residual():
    # the l = 2 path: the off-diagonal generator approximately solves
    # (A+V+v_{j+1}) D - D(.+a) (A+V+v_{j+1}) = -W_offdiag, verified as the
    # scalar entry equation in the algebra
    rng = np.random.default_rng(53)
    dc, ctx = _level_pieces(np.linspace(0.25, 0.75, 9))
    grid = ctx.grid

    w2 = fr.from_modes(grid, fr.SCALAR,
                       {k: 1e-4 * (rng.standard_normal()
                                   + 1j * rng.standard_normal())
                        for k in range(-4, 5)})
    W = fr.matrix_from_scalars(fr.zeros(grid), w2, w2.conj(), fr.zeros(grid))
    sub = _sub_state(ctx, fr.zeros(grid, fr.C2VECTOR), W,
                     fr.PowerFourierSeries(4, grid, fr.C2VECTOR, {}), 0.0)
    new, E, Delta, rows = kam.sub_iteration_step(ctx, sub, 1e-7,
                                                 0.01, 0.008, 0.5)
    # a correct generator kills the off-diagonal to quadratic order;
    # what survives in W_{j+1} is the |d|^2-sized diagonal, absorbed next pass
    ctxn = ctx.ctx(0.008)
    assert fr.norm_r(new.W, ctxn) <= fr.norm_r(W, ctx.ctx(0.01)) / math.e
    assert new.W.is_zero() or \
        new.W.entry(0, 1).sup_bound() <= 1e-3 * w2.sup_bound()


def test_norm_monotone_in_width():
    rng = np.random.default_rng(54)
    grid = np.linspace(0.25, 0.75, 9)
    modes = {k: rng.standard_normal() + 1j * rng.standard_normal()
             for k in range(-8, 9)}
    f = fr.from_modes(grid, fr.SCALAR, modes)
    vals = [fr.norm_r(f, fr.WeightedNormContext(ANALYTIC, r))
            for r in (0.01, 0.05, 0.1, 0.3)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def _same_series(a, b):
    return a.coeffs.keys() == b.coeffs.keys() and all(
        np.array_equal(v, b.coeffs[k]) for k, v in a.coeffs.items())


def test_shared_solve_setup_is_bit_identical(monkeypatch):
    # a level with a nonzero polar angle B, two sub-steps: every solve with
    # the level's shared setup gives the same bits as a solve that builds
    # its own
    rng = np.random.default_rng(55)
    grid = np.linspace(0.25, 0.75, 9)

    def rando(support, scale):
        return fr.from_modes(grid, fr.SCALAR, {
            k: scale * (rng.standard_normal() + 1j * rng.standard_normal())
            for k in range(-support, support + 1)})

    G = rando(3, 1e-3)
    z = fr.zeros(grid)
    state = _blank_state(grid)
    state.V = fr.matrix_from_scalars(G, z, z, G.conj())
    dc, ctx = _level_pieces(grid, state=state)
    grid = ctx.grid      # rando draws on the level's points from here on
    assert not ctx.setup.B.is_zero()
    U = fr.conjugate_pair(rando(6, 1e-8))
    w1, w2 = rando(4, 1e-4), rando(4, 1e-4)
    W = fr.matrix_from_scalars(w1, w2, w2.conj(), w1.conj())
    R = fr.PowerFourierSeries(4, grid, fr.C2VECTOR, {})
    start = _sub_state(ctx, U, W, R, 1.0)

    def two_steps():
        sub, out = start, []
        for r_j, r_j1 in ((0.01, 0.008), (0.008, 0.006)):
            sub, E, Delta, rows = kam.sub_iteration_step(
                ctx, sub, 3e-8, r_j, r_j1, 0.5)
            out.append((E, Delta, rows))
        return out

    shared = two_steps()
    solve = hm.solve_homological

    def solve_with_own_setup(b, u, l, setup, r_tilde, **kw):
        own = hm.SolveSetup(setup.B, dc, weight=setup.weight,
                            q_next=setup.q_next, qbar_n=setup.qbar_n,
                            r_b=setup.r_b, sigma=setup.sigma, eps0=setup.eps0)
        return solve(b, u, l, own, r_tilde, **kw)

    monkeypatch.setattr(hm, "solve_homological", solve_with_own_setup)
    fresh = two_steps()
    for (E1, D1, rows1), (E2, D2, rows2) in zip(shared, fresh):
        assert _same_series(E1, E2) and _same_series(D1, D2)
        assert rows1 == rows2
    assert "bcal" in vars(ctx.setup)      # the level solved its B-equation
