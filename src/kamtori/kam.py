"""The iteration engine: schedules, sub-iterations, outer steps, exclusions.

One outer step at level n runs L sub-steps, each of which absorbs the
diagonal part of the matrix perturbation into the normal form, solves two
homological equations (offset and off-diagonal generator), and reassembles
the new equation exactly in the coefficient algebra.  Every displayed
inequality of the scheme is re-measured and reported as a check row.  The
theoretical smallness constants are reported, not enforced, since the
engine's value is certifying the mechanism at reachable scales; but
solve_homological raises PreconditionError when any of its precondition
rows fails, gating or not, unless force is set (run.force in a config).
TransformFactor.then folds each sub-step into its level's factor and each
level's factor into the state's transform; the torus is its offset.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from . import fourier as fr
from . import homological as hm
from . import model as md
from .cfrac import BridgeSelection, ContinuedFraction
from .fourier import FourierSeries, PowerFourierSeries, WeightedNormContext
from .homological import IntervalUnion, SolveSetup
from .reporting import CheckRow
from .weights import WeightFunction, _ln_big, eval_gamma, gamma_sqrt_log


class DepthError(RuntimeError):
    """Bridge subsequence too short for the requested level."""


class ParameterExhausted(RuntimeError):
    """Every parameter value was excluded; carries diagnostics."""


# -- schedules -------------------------------------------------------------------


@dataclass
class Schedule:
    cf: ContinuedFraction
    bridges: BridgeSelection
    weight: WeightFunction
    n0: int
    eps0: float
    gamma0: float
    tau: float
    s0: float
    r0: Fraction
    L_cap: int = 64
    K_cap: int = 256
    rows: list = field(default_factory=list)

    # shifted bridge accessors ------------------------------------------------

    def Q(self, n: int) -> int:
        return self.bridges.Q[self._bridge(n)]

    def Qbar(self, n: int) -> int:
        return self.bridges.Qbar[self._bridge(n)]

    def _bridge(self, n: int) -> int:
        idx = n + self.n0
        if not 0 <= idx < self.bridges.levels:
            raise DepthError("bridge level %d not available (have %d, n0=%d)"
                             % (n, self.bridges.levels, self.n0))
        return idx

    # main iterative sequences --------------------------------------------------

    @staticmethod
    def eta(n: int) -> float:
        return 1.0 / (n + 2) ** 2

    def gamma(self, n: int) -> float:
        return self.gamma0 * self.eta(n)

    def r(self, n: int) -> Fraction:
        if n == 0:
            return self.r0
        return self.r0 / Fraction(self.Qbar(n - 1)) ** 2

    def s(self, n: int) -> float:
        out = self.s0
        for m in range(n):
            out *= 1.0 - self.eta(m)
        return out

    def contraction(self, n: int) -> float:
        """E_n = Qbar_n^{-sqrt(Gamma(Qbar_n^{1/3}))} for n >= 1 (0 on underflow)."""
        x = gamma_sqrt_log(self.weight, self.Qbar(n))
        return math.exp(-x) if x < 745 else 0.0

    def eps(self, n: int) -> float:
        out = self.eps0
        for m in range(1, n + 1):
            out *= self.contraction(m)
        return out

    def K(self, n: int) -> int:
        if n < 0:
            return 0
        return min(math.isqrt(self.Qbar(n + 1)), self.K_cap)

    def L_uncapped(self, n: int) -> float:
        return gamma_sqrt_log(self.weight, self.Qbar(n + 1))

    def L(self, n: int) -> int:
        x = self.L_uncapped(n)
        if not math.isfinite(x) or x >= self.L_cap:
            return self.L_cap
        L = math.floor(x)
        if L < x - 1e-12:
            L += 1
        return max(L, 1)


def make_schedule(cf: ContinuedFraction, bridges: BridgeSelection,
                  weight: WeightFunction, *, eps0: float, gamma0: float,
                  tau: float, s0: float, r0, A: Optional[float] = None,
                  c_const: float = 1.0, T_override: Optional[float] = None,
                  L_cap: int = 64, K_cap: int = 256) -> Schedule:
    """Anchoring constants, the theoretical smallness report and the index
    shift n0 with Q_{n0+1} <= T^{A^4} and Qbar_{n0+1} >= T."""
    rows = []
    r0 = Fraction(r0)
    A = bridges.A if A is None else A
    rows.append(CheckRow("A > 18 (theoretical)", 18.0, A, A > 18.0,
                         "desk-scale override allowed", gating=False))
    a4_need = (1.0 + 2.0 * math.log(48.0 * c_const)) / (4.0 * tau**2)
    rows.append(CheckRow("A^4 >= (1+2ln(48c))/(4tau^2)", a4_need, A**4,
                         A**4 >= a4_need, gating=False))

    gamma_target = 324.0 * A**8 * tau**4
    t_tilde = _first_gamma_crossing(weight, gamma_target)
    t_cubed = t_tilde**3 if t_tilde < 1e102 else math.inf
    T_theory = max(20.0 / float(r0), 48.0 * c_const / gamma0**2, t_cubed)
    T_used = float(T_override) if T_override is not None else T_theory
    rows.append(CheckRow("anchoring T (theory)", T_theory, T_used,
                         True, "override" if T_override is not None else "theory"))
    if not math.isfinite(T_used):
        raise DepthError("theoretical anchoring T is not reachable; "
                         "set schedule.T explicitly for desk-scale runs")

    lnT = math.log(max(T_used, 1.0 + 1e-12))
    m0 = None
    for k in range(bridges.levels):
        if _ln_big(bridges.Q[k]) <= lnT:
            m0 = k
    if m0 is None:
        m0 = 0
    if m0 + 1 >= bridges.levels:
        raise DepthError("continued fraction depth insufficient to anchor n0")
    n0 = m0 - 1 if _ln_big(bridges.Qbar[m0]) >= lnT else m0
    if n0 < 0:
        n0 = 0
    ok_upper = _ln_big(bridges.Q[n0 + 1]) <= A**4 * lnT
    ok_lower = _ln_big(bridges.Qbar[n0 + 1]) >= lnT
    rows.append(CheckRow("Q_{n0+1} <= T^{A^4}", A**4 * lnT,
                         _ln_big(bridges.Q[n0 + 1]), ok_upper, "log scale"))
    rows.append(CheckRow("Qbar_{n0+1} >= T", lnT,
                         _ln_big(bridges.Qbar[n0 + 1]), ok_lower, "log scale"))

    small = min(((1.0 / (16 * math.pi**2)) * math.log(2.0)) ** 3,
                math.exp(-18.0 * A**4 * tau**2 * lnT),
                (s0 / 240.0) ** 3)
    rows.append(CheckRow("theoretical smallness eps <= min{...}", small, eps0,
                         eps0 <= small, "reported, not enforced", gating=False))

    return Schedule(cf=cf, bridges=bridges, weight=weight, n0=n0, eps0=eps0,
                    gamma0=gamma0, tau=tau, s0=s0, r0=r0, L_cap=L_cap,
                    K_cap=K_cap, rows=rows)


def _first_gamma_crossing(weight: WeightFunction, target: float) -> float:
    x = 4.0
    for _ in range(2000):
        if eval_gamma(weight, x) >= target:
            return x
        x *= 2.0
        if x > 1e300:
            return math.inf
    return math.inf


# -- state ------------------------------------------------------------------------


@dataclass
class TransformFactor:
    """The change of variables X = matrix . X' + offset."""

    matrix: FourierSeries   # su11matrix
    offset: FourierSeries   # c2vector

    @staticmethod
    def identity(grid) -> "TransformFactor":
        return TransformFactor(fr.eye(grid), fr.zeros(grid, fr.C2VECTOR))

    def then(self, E: FourierSeries, Delta: FourierSeries) -> "TransformFactor":
        """This change followed by X' = E X'' + Delta: X = (matrix E) X'' +
        offset + matrix Delta."""
        return TransformFactor(fr.multiply(self.matrix, E),
                               self.offset + fr.multiply(self.matrix, Delta))


@dataclass
class KamState:
    n: int
    V: FourierSeries                # su11matrix, diagonal conjugate pair
    U: FourierSeries                # c2vector
    W: FourierSeries                # su11matrix
    R: PowerFourierSeries           # c2vector coefficients, degrees >= 2
    omega: IntervalUnion            # certified parameter set so far
    # the composition of every level so far; None (the identity) at level 0,
    # which keeps level 1's factor out of a product with fr.eye
    transform: Optional[TransformFactor]
    lambda_grid: np.ndarray

    def active_mask(self) -> np.ndarray:
        return self.omega.contains(self.lambda_grid)

    def torus(self) -> FourierSeries:
        """The c2vector torus X, the image of X' = 0 under transform."""
        if self.transform is None:
            return fr.zeros(self.lambda_grid, fr.C2VECTOR)
        return self.transform.offset


def initial_state(U: FourierSeries, W: FourierSeries, R: PowerFourierSeries,
                  lambda_grid) -> KamState:
    grid = np.asarray(lambda_grid, float)
    return KamState(n=0, V=fr.zeros(grid, fr.SU11MATRIX), U=U, W=W, R=R,
                    omega=IntervalUnion.full(), transform=None,
                    lambda_grid=grid)


@dataclass
class SubState:
    j: int
    v: FourierSeries                # accumulated diagonal absorption (su11)
    U: FourierSeries
    W: FourierSeries
    R: PowerFourierSeries
    U_norm: float                   # ||U||_{r_j}, measured once
    hess: float                     # ||d2R||_{r_j, s_j}, measured once


@dataclass
class LevelContext:
    """Per-level data shared by all sub-steps."""

    grid: np.ndarray
    Vmat: FourierSeries
    setup: SolveSetup               # B, cf, the mask and the level's solves
    phase_diag: FourierSeries       # diag(e^{2 pi i lambda}, e^{-2 pi i lambda})
    phase1: FourierSeries
    rho_phase_B: FourierSeries      # rho e^{2 pi i lambda} e^{2 pi i B}
    zetac_base: FourierSeries       # e^{-2 pi i lambda} + conj G

    def ctx(self, r) -> WeightedNormContext:
        return self.setup.ctx(r)


def _level_context(state: KamState, rho: FourierSeries,
                   setup: SolveSetup) -> LevelContext:
    grid = state.lambda_grid
    p1 = fr.lambda_phase(grid, 1)
    pm1 = fr.lambda_phase(grid, -1)
    z = fr.zeros(grid)
    return LevelContext(
        grid=grid, Vmat=state.V, setup=setup,
        phase_diag=fr.matrix_from_scalars(p1, z, z, pm1), phase1=p1,
        rho_phase_B=fr.multiply(fr.multiply(rho, p1), setup.exp_B(1)),
        zetac_base=pm1 + state.V.entry(1, 1))


# -- one sub-iteration --------------------------------------------------------------


def sub_iteration_step(ctx: LevelContext, sub: SubState, eps_j: float, r_j,
                       r_j1, s_j1: float, force: bool = False):
    """One j -> j+1 pass; returns (new SubState, E, Delta, rows)."""
    grid = ctx.grid
    setup = ctx.setup
    act = setup.active
    rows: list = []
    phase = setup.cf.phase
    eps_j1 = eps_j / math.e

    if sub.U.is_zero() and sub.W.is_zero():
        # fixed point of the sub-iteration: nothing to absorb or solve; the
        # norms carry over (||U|| is 0 at every width)
        return dataclasses.replace(sub, j=sub.j + 1), None, None, rows

    z = fr.zeros(grid)
    W1mat = fr.matrix_from_scalars(sub.W.entry(0, 0), z, z, sub.W.entry(1, 1))
    W2mat = fr.matrix_from_scalars(z, sub.W.entry(0, 1), sub.W.entry(1, 0), z)
    v1 = sub.v + W1mat
    g1 = v1.entry(0, 0)
    g1c = v1.entry(1, 1)
    Zfull = ctx.phase_diag + ctx.Vmat + v1
    zeta_c = ctx.zetac_base + g1c

    # offset equation: (e^{2 pi i lambda} + G + g) delta - delta(.+a) = -u
    b_delta = ctx.rho_phase_B + g1
    u_delta = sub.U.component(0).scale(-1.0)
    if u_delta.is_zero():
        delta = fr.zeros(grid)
    else:
        sol1 = hm.solve_homological(b_delta, u_delta, 1, setup, float(r_j),
                                    force=force)
        delta = sol1.delta
        rows += _tag(sol1.precondition_rows + sol1.rows, "l=1")
    Delta = fr.vector_from_scalars(delta, delta.conj())

    # generator equation, divided by the second diagonal entry
    W2_01 = sub.W.entry(0, 1)
    if W2_01.is_zero():
        dgen = fr.zeros(grid)
    else:
        h = fr.multiply(ctx.phase1, zeta_c) - fr.one(grid)
        recip = fr.multiply(ctx.phase1, fr.inverse_one_plus(h))
        e4pi = setup.terms(2).phase_B
        b_gen = fr.multiply(g1 - fr.multiply(e4pi, g1c), recip)
        w_rhs = fr.multiply(W2_01.scale(-1.0), recip)
        sol2 = hm.solve_homological(b_gen, w_rhs, 2, setup, float(r_j),
                                    force=force)
        dgen = sol2.delta
        rows += _tag(sol2.precondition_rows + sol2.rows, "l=2")
    Dmat = fr.matrix_from_scalars(z, dgen, dgen.conj(), z)

    E, Einv = fr.exp_su11(Dmat)
    EinvS = Einv.shift(phase)

    det_dev = fr.det_minus_one(E).sup_bound(act)
    rows.append(CheckRow("sub det(e^D)-1", 1e-10, det_dev, det_dev <= 1e-10))

    Zw = Zfull + W2mat
    C = sub.R.compose_affine(E.entry(0, 0), E.entry(0, 1), E.entry(1, 0),
                             E.entry(1, 1), delta, delta.conj())
    RD = C.term((0, 0))
    U_next = fr.multiply(EinvS, fr.multiply(Zw, Delta) + sub.U
                         - Delta.shift(phase) + RD)
    Mlin = fr.multiply(fr.multiply(EinvS, Zw), E)
    MR = fr.multiply(EinvS, fr.matrix_from_columns(C.term((1, 0)),
                                                   C.term((0, 1))))
    W_next = Mlin + MR - Zfull
    R_next = C.drop_low_degrees(2).matrix_multiply_left(EinvS)

    # a genuine pass contracts by e^{-1}; anything below 1e-12 of the input
    # scale is cancellation dust, so snap it to the exact fixed point
    ref = max(sub.U.sup_bound(act), sub.W.sup_bound(act))
    if U_next.sup_bound(act) <= 1e-12 * ref:
        U_next = fr.zeros(grid, fr.C2VECTOR)
    if W_next.sup_bound(act) <= 1e-12 * ref:
        W_next = fr.zeros(grid, fr.SU11MATRIX)

    # displayed sub-step estimates, re-measured
    cj = ctx.ctx(r_j)
    cj1 = ctx.ctx(r_j1)
    nD = fr.norm_r(Dmat, cj)
    rows.append(CheckRow("sub ||D_j|| <= eps_j^(1/3)", eps_j ** (1 / 3), nD,
                         nD <= eps_j ** (1 / 3), gating=False))
    nDel = fr.norm_r(Delta, cj)
    rows.append(CheckRow("sub ||Delta_j|| <= eps_j^(5/6)", eps_j ** (5 / 6),
                         nDel, nDel <= eps_j ** (5 / 6), gating=False))
    nU1 = fr.norm_r(U_next, cj1)
    rows.append(CheckRow("sub ||U_{j+1}|| <= eps_{j+1}", eps_j1, nU1,
                         nU1 <= eps_j1))
    rows.append(CheckRow("sub contraction ||U_{j+1}|| <= (1.1/e)||U_j||",
                         1.1 * sub.U_norm / math.e, nU1,
                         nU1 <= 1.1 * sub.U_norm / math.e,
                         gating=False))
    nW1 = fr.norm_r(W_next, cj1)
    rows.append(CheckRow("sub ||W_{j+1}|| <= eps_{j+1}^(1/2)",
                         math.sqrt(eps_j1), nW1, nW1 <= math.sqrt(eps_j1)))
    nv = fr.norm_r(v1, cj)
    vbound = sum(math.sqrt(eps_j * math.e ** (sub.j - m))
                 for m in range(sub.j + 1))
    rows.append(CheckRow("sub ||v_{j+1}|| <= sum eps_m^(1/2)", vbound, nv,
                         nv <= vbound))
    hess = fr.hessian_norm_bound(R_next, cj1, s_j1)
    hbound = (1.0 + 6.0 * eps_j ** (1 / 3)) * sub.hess
    rows.append(CheckRow("sub ||d2R_{j+1}|| <= (1+6eps_j^(1/3))||d2R_j||",
                         hbound, hess, hess <= hbound or sub.hess == 0.0))

    sdef = fr.su11_defect(W_next, act)
    wscale = max(1.0, W_next.sup_bound(act))
    rows.append(CheckRow("sub su11 pattern of W_{j+1}", 1e-12 * wscale, sdef,
                         sdef <= 1e-12 * wscale))
    cdef = fr.c2_pair_defect(U_next, act)
    uscale = max(1.0, U_next.sup_bound(act))
    rows.append(CheckRow("sub conjugate pair of U_{j+1}", 1e-12 * uscale, cdef,
                         cdef <= 1e-12 * uscale))

    new = SubState(sub.j + 1, v1, U_next, W_next, R_next, nU1, hess)
    return new, E, Delta, rows


def _tag(rows, tag):
    return [CheckRow(r.check + " [" + tag + "]", r.bound, r.actual, r.passed,
                     r.detail, r.gating) for r in rows]


def substitution_defect(ctx: LevelContext, sub_old: SubState,
                        sub_new: SubState, E: FourierSeries,
                        Delta: FourierSeries, n_theta: int = 256,
                        probes=(0.1 + 0.05j, -0.03 + 0.2j)) -> tuple:
    """Direct check that the transform maps the old equation to the new one:
    for X_j = E X_{j+1} + Delta the old right side at X_j must equal
    E(.+a) . (new right side at X_{j+1}) + Delta(.+a), pointwise on the
    n_theta-grid at every active lambda.

    Returns (worst deviation, equation scale); the identity holds to
    roundoff relative to the equation's own magnitude.  The grid is taken
    in blocks of fr.block_rows(4 L) theta-points with running maxima of
    the deviation and the scale, so no array spans the whole grid."""
    phase = ctx.setup.cf.phase
    act = ctx.setup.active
    nlam = len(ctx.grid)
    # (Zw, W, U, R) of each side; Zw = diag(e^{+-2 pi i lambda}) + V + v
    sides = [(ctx.phase_diag + ctx.Vmat + s.v, s.W, s.U, s.R)
             for s in (sub_old, sub_new)]
    maps = (E, Delta, E.shift(phase), Delta.shift(phase))
    step = fr.block_rows(4 * nlam)

    def rhs(side, lo, hi, Xvals):
        Zw, W, U, R = side
        out = np.einsum("tlij,tlj->tli", Zw.sample(n_theta, lo, hi), Xvals)
        out += np.einsum("tlij,tlj->tli", W.sample(n_theta, lo, hi), Xvals)
        out += U.sample(n_theta, lo, hi)
        out += R.eval_at_points(Xvals, n_theta, lo)
        return out

    worst = 0.0
    scale = 0.0
    for lo in range(0, n_theta, step):
        hi = min(lo + step, n_theta)
        Evals, Dvals, EvalsS, DvalsS = (m.sample(n_theta, lo, hi)
                                        for m in maps)
        for v in probes:
            Y = np.empty((hi - lo, nlam, 2), complex)
            Y[..., 0] = v
            Y[..., 1] = np.conj(v)
            Xj = np.einsum("tlij,tlj->tli", Evals, Y) + Dvals
            t_old = rhs(sides[0], lo, hi, Xj)
            t_new = np.einsum("tlij,tlj->tli", EvalsS,
                              rhs(sides[1], lo, hi, Y)) + DvalsS
            dev = np.abs(t_old - t_new)[:, act]
            mag = np.abs(t_old)[:, act]
            if dev.size:
                worst = max(worst, float(dev.max()))
                scale = max(scale, float(mag.max()))
    return worst, scale


# -- one outer step ---------------------------------------------------------------------


@dataclass
class StepReport:
    rows: list
    removed_measure: float
    U_norm: float
    W_norm: float
    sub_u_norms: list
    zones: list = field(default_factory=list)


def kam_step(state: KamState, sched: Schedule, force: bool = False) -> tuple:
    """One outer step: exclusion, L sub-iterations, composition; returns
    (new state, StepReport)."""
    n = state.n
    grid = state.lambda_grid
    rows: list = []

    rho, B, defect, polar_n = hm.polar_decompose(state.V.entry(0, 0))
    rows.append(CheckRow("polar reconstruction pointwise <= 1e-12", 1e-12,
                         defect, defect <= 1e-12, "n=%d" % n))
    rows.append(CheckRow("polar grid <= 1<<14", float(hm.POLAR_GRID_CAP),
                         float(polar_n), polar_n <= hm.POLAR_GRID_CAP,
                         "n=%d" % n, gating=False))

    # the level-n resonance band K_{n-3} <= |k| <= K_n around lambda + [B]
    dc = hm.dc_from_exclusion(sched.cf, sched.gamma(n), sched.tau, sched.K(n),
                              grid, B, domain=state.omega,
                              k_min=sched.K(n - 3))
    if dc.intervals.is_empty() or not dc.active_mask().any():
        raise ParameterExhausted(
            "parameter set exhausted at level %d (gamma=%.3g, band %d..%d, "
            "%d zones)" % (n, sched.gamma(n), sched.K(n - 3), sched.K(n),
                           len(dc.zones)))
    removed = state.omega.measure() - dc.intervals.measure()
    rows += dc.exclusion_rows
    rows += dc.certify()
    rows += hm.certify_small_divisor(dc, sched.Q(n + 1), sched.Qbar(n + 1),
                                     k_max=sched.K(n))

    L = sched.L(n)
    if sched.L_uncapped(n) > sched.L_cap:
        rows.append(CheckRow("L capped at L_cap", float(sched.L_cap),
                             sched.L_uncapped(n), False,
                             "level %d warning" % n, gating=False))
    rt0 = 2 * sched.r(n + 1)
    sigma_abs = rt0 / (2 * L)
    st0 = sched.s(n)
    eps_t = sched.eps(n)
    setup = SolveSetup(B, dc, weight=sched.weight, q_next=sched.Q(n + 1),
                       qbar_n=sched.Qbar(n), r_b=float(sched.r(n)),
                       sigma=float(sigma_abs), eps0=sched.eps0)
    active = setup.active
    ctx = _level_context(state, rho, setup)

    sub = SubState(0, fr.zeros(grid, fr.SU11MATRIX), state.U, state.W, state.R,
                   fr.norm_r(state.U, ctx.ctx(rt0)),
                   fr.hessian_norm_bound(state.R, ctx.ctx(rt0), st0))
    hess_start = sub.hess
    level = TransformFactor.identity(grid)
    sub_u_norms = [sub.U_norm]
    s_j = st0
    for j in range(L):
        r_j = rt0 - j * sigma_abs
        r_j1 = rt0 - (j + 1) * sigma_abs
        s_j1 = s_j - Schedule.eta(n) * Schedule.eta(j) * st0
        eps_j = eps_t * math.exp(-j)
        sub_old = sub
        sub, E, Delta, sub_rows = sub_iteration_step(
            ctx, sub, eps_j, r_j, r_j1, s_j1, force=force)
        rows += _tag(sub_rows, "n=%d j=%d" % (n, j))
        if E is None:
            break
        level = level.then(E, Delta)
        if j == 0:      # the substitution oracle on the level's first pass
            defect, eq_scale = substitution_defect(ctx, sub_old, sub, E, Delta)
            tol = 1e-10 * max(eq_scale, 1e-300)
            rows.append(CheckRow("substitution oracle <= 1e-10 relative",
                                 tol, defect, defect <= tol,
                                 "n=%d j=%d" % (n, j)))
        sub_u_norms.append(sub.U_norm)
        s_j = s_j1

    # widths land exactly on the next level (rational schedule)
    assert rt0 - L * sigma_abs == sched.r(n + 1)
    rows.append(CheckRow("schedule s_L >= s_{n+1}", sched.s(n + 1), s_j,
                         s_j >= sched.s(n + 1) - 1e-15))

    ctx_next = ctx.ctx(sched.r(n + 1))
    em1 = fr.norm_r(level.matrix - fr.eye(grid), ctx_next)
    ebound = math.exp(4.0 * eps_t ** (1 / 3)) - 1.0
    rows.append(CheckRow("||e^{D_{n+1}} - I|| <= e^{4eps_n^(1/3)}-1", ebound,
                         em1, em1 <= ebound, gating=False))
    doff = fr.norm_r(level.offset, ctx_next)
    rows.append(CheckRow("||Delta_{n+1}|| <= 4 eps_n^(5/6)",
                         4.0 * eps_t ** (5 / 6), doff,
                         doff <= 4.0 * eps_t ** (5 / 6), gating=False))
    det_dev = fr.det_minus_one(level.matrix).sup_bound(active)
    rows.append(CheckRow("composed factor det-1 <= 1e-8", 1e-8, det_dev,
                         det_dev <= 1e-8))

    V_new = state.V + sub.v
    nv = fr.norm_r(sub.v, ctx_next)
    rows.append(CheckRow("||V_{n+1}-V_n|| <= 3 eps_n^(1/2)",
                         3.0 * math.sqrt(eps_t), nv,
                         nv <= 3.0 * math.sqrt(eps_t)))
    v_off = max(V_new.entry(0, 1).sup_bound(active),
                V_new.entry(1, 0).sup_bound(active))
    vdef = max(fr.su11_defect(V_new, active), v_off)
    vscale = max(1.0, V_new.sup_bound(active))
    rows.append(CheckRow("V_{n+1} stays diagonal conjugate pair",
                         1e-12 * vscale, vdef, vdef <= 1e-12 * vscale))
    low = sub.R.low_degree_mass(active)
    rows.append(CheckRow("R jet degree<=1 vanishes", 0.0, low, low == 0.0))

    nU = sub.U_norm
    nW = fr.norm_r(sub.W, ctx_next)
    eps_next = sched.eps(n + 1)
    rows.append(CheckRow("||U_{n+1}|| <= eps_{n+1}", eps_next, nU,
                         nU <= eps_next))
    rows.append(CheckRow("||W_{n+1}|| <= eps_{n+1}^(1/2)",
                         math.sqrt(eps_next), nW, nW <= math.sqrt(eps_next)))
    hess_end = fr.hessian_norm_bound(sub.R, ctx_next, sched.s(n + 1))
    hb = math.exp(24.0 * eps_t ** (1 / 3)) * hess_start
    rows.append(CheckRow("||d2R_{n+1}|| <= e^{24 eps_n^(1/3)} ||d2R_n||", hb,
                         hess_end, hess_end <= hb or hess_start == 0.0))

    transform = level if state.transform is None \
        else state.transform.then(level.matrix, level.offset)
    new_state = KamState(n=n + 1, V=V_new, U=sub.U, W=sub.W, R=sub.R,
                         omega=dc.intervals, transform=transform,
                         lambda_grid=grid)
    report = StepReport(rows=rows, removed_measure=removed,
                        U_norm=nU, W_norm=nW, sub_u_norms=sub_u_norms,
                        zones=list(dc.zones))
    return new_state, report


# -- measure accounting --------------------------------------------------------------------


def measure_rows(removed_per_level, gamma0: float, tau: float) -> list:
    """Cumulative excluded measure against the tau-series bound."""
    rows = []
    total = 0.0
    for n, m in enumerate(removed_per_level):
        total += m
        rows.append(CheckRow("excluded measure cumulative (level %d)" % n,
                             math.inf, total, True))
    eta_sum = float(mpmath.zeta(2)) - 1.0 - 0.25    # sum_{n>=1} (n+2)^{-2}
    bound = 4.0 * gamma0 * eta_sum * float(mpmath.zeta(tau)) * 1.1
    rows.append(CheckRow("total excluded <= 4 g0 sum_eta sum_kappa (+10%)",
                         bound, total, total <= bound))
    return rows


# -- full runs --------------------------------------------------------------------------------


@dataclass
class LevelRecord:
    level: int
    r: float
    eps_target: float
    U_norm: float
    W_norm: float
    residual: float
    excluded_measure: float
    wall_ms: float = 0.0


@dataclass
class RunSummary:
    records: list
    rows: list
    states: list
    exclusion_intervals: list       # (level, lo, hi)
    stopped: str = ""


def run(spec, sched: Schedule, n_max: int, force: bool = False) -> RunSummary:
    """Iterate kam_step from the conjugated model, recording per-level
    certification and the invariance residual of the reconstructed torus."""
    import time

    conj = md.conjugate_to_su11(spec)
    state = initial_state(conj.U, conj.W, conj.R, spec.lambda_grid)
    records: list = []
    rows = list(sched.rows) + list(conj.rows)
    states = [state]
    exclusions: list = []
    stopped = ""

    ctx0 = WeightedNormContext(sched.weight, float(sched.r(0)),
                               active=state.active_mask())
    # the abstract theorem's eps0 dominates the measured initial data
    measured = max(fr.norm_r(state.U, ctx0), fr.norm_r(state.W, ctx0) ** 2)
    if measured > sched.eps0:
        sched = dataclasses.replace(sched, eps0=measured)
        rows.append(CheckRow("eps0 seeded from measured ||U_0||, ||W_0||^2",
                             measured, measured, True, "schedule bump"))
    hess0 = fr.hessian_norm_bound(state.R, ctx0, sched.s0)
    rows.append(CheckRow("initial ||d2R||_{r,s} <= 1", 1.0, hess0,
                         hess0 <= 1.0))
    res0, rrows = _torus_residual(spec, state)
    rows += rrows
    records.append(LevelRecord(
        level=0, r=float(sched.r(0)), eps_target=sched.eps(0),
        U_norm=fr.norm_r(state.U, ctx0), W_norm=fr.norm_r(state.W, ctx0),
        residual=res0, excluded_measure=0.0))

    for n in range(n_max):
        t0 = time.monotonic()
        try:
            state, rep = kam_step(state, sched, force=force)
        except DepthError as exc:
            stopped = "depth: %s" % exc
            break
        except ParameterExhausted as exc:
            stopped = "exhausted: %s" % exc
            break
        except (hm.PreconditionError, hm.ConditioningError) as exc:
            stopped = "solver refused at level %d: %s (force to proceed)" \
                % (state.n, exc)
            break
        wall_ms = 1000.0 * (time.monotonic() - t0)
        rows += rep.rows
        states.append(state)
        for lo, hi in rep.zones:
            exclusions.append((state.n - 1, lo, hi))
        res, rrows = _torus_residual(spec, state)
        rows += rrows
        records.append(LevelRecord(
            level=state.n, r=float(sched.r(state.n)),
            eps_target=sched.eps(state.n), U_norm=rep.U_norm,
            W_norm=rep.W_norm, residual=res,
            excluded_measure=rep.removed_measure, wall_ms=wall_ms))

    rows += measure_rows([r.excluded_measure for r in records[1:]],
                         sched.gamma0, sched.tau)
    return RunSummary(records=records, rows=rows, states=states,
                      exclusion_intervals=exclusions, stopped=stopped)


def _torus_residual(spec, state: KamState) -> tuple:
    """(max over the active lambda of the invariance residual of state's
    torus, its rows)."""
    mask = state.active_mask()
    res, rows = md.residual(spec, state.torus(), active=mask)
    return (float(res[mask].max()) if mask.any() else 0.0), rows
