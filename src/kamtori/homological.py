"""Cohomological equations with certified small divisors.

Pipeline for the variable-coefficient equation

    exp(2 pi i l (lambda + B)) delta + b delta - delta(. + alpha) = u :

kill the low modes of B through a difference equation (whose solution is a
trigonometric polynomial with an explicit exponential bound), then solve the
truncated conjugated equation, a diagonally dominant linear system, by its
Neumann series: one product per step, summed over the diagonals of the
coefficient (_diagonals) for all lambda-grid points at once and only on the
modes the data reaches, and one dense solve at any point where the series
does not converge.  Every bound the scheme relies on
(small divisors, truncation tails, solution size, Neumann dominance) is
re-measured and reported.

B, its cutoffs and the divisors stay fixed through a KAM level.  The
level's DcSet comes from dc_from_exclusion(..., B, ...), which removes the
resonance zones around lambda~ = lambda + [B]_theta, so the DC set and the
solver agree on B by construction.  The DcSet holds only the grid points
that survive the exclusion, with their indices; the level moves its series
onto them (restrict_level), and every solve, norm and row runs there.  One
SolveSetup per level, built from B and that DcSet, holds the B-equation's
solution, the exponentials of B, the divisors l lambda~ - k alpha (from
frac(k alpha), memoised on the ContinuedFraction) and ||S^{-1}||; every
solve of the level shares it and gives only its width r_tilde.
DcSet.divisors tabulates the same divisors at the DC set's grid points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Optional

import numpy as np

from . import fourier as fr
from .cfrac import ContinuedFraction
from .fourier import FourierSeries, WeightedNormContext
from .reporting import CheckRow
from .weights import WeightFunction, _ln_big, eval_gamma, eval_lambda

LAMBDA_DOMAIN = (0.25, 0.75)
_LS = (1, 2)        # the two l of the equations: e^{2 pi i l (lambda + B)}
_EPS = float(np.finfo(float).eps)
_NEUMANN_TOL = 4 * _EPS     # a step this small against max|F| is roundoff
_NEUMANN_MARGIN = 4         # steps beyond log(eps)/log(dom) before a fallback


class SingularityError(RuntimeError):
    pass


# -- unions of closed intervals -------------------------------------------------


@dataclass(frozen=True)
class IntervalUnion:
    intervals: tuple  # ((lo, hi), ...) sorted, disjoint, lo <= hi

    @staticmethod
    def full(lo: float = LAMBDA_DOMAIN[0], hi: float = LAMBDA_DOMAIN[1]) -> "IntervalUnion":
        return IntervalUnion(((float(lo), float(hi)),))

    @staticmethod
    def empty() -> "IntervalUnion":
        return IntervalUnion(())

    @staticmethod
    def from_list(pairs) -> "IntervalUnion":
        cleaned = sorted((float(a), float(b)) for a, b in pairs if b >= a)
        merged: list = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return IntervalUnion(tuple((a, b) for a, b in merged))

    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals

    def subtract(self, zones: Iterable[tuple]) -> "IntervalUnion":
        """Remove the open zones (lo, hi) from the union in one sweep over
        the zones merged by from_list; pieces of zero width are dropped."""
        cuts = IntervalUnion.from_list(zones).intervals
        if not cuts:
            return self
        out, i = [], 0
        for a, b in self.intervals:
            while i < len(cuts) and cuts[i][1] <= a:
                i += 1
            j = i
            while j < len(cuts) and cuts[j][0] < b:
                if cuts[j][0] > a:
                    out.append((a, cuts[j][0]))
                a = max(a, cuts[j][1])
                j += 1
            if a < b:
                out.append((a, b))
        return IntervalUnion(tuple(out))

    def contains(self, x) -> np.ndarray:
        pts = np.atleast_1d(np.asarray(x, float))
        mask = np.zeros(len(pts), bool)
        for a, b in self.intervals:
            mask |= (pts >= a) & (pts <= b)
        return mask


# -- resonance zones -------------------------------------------------------------


def resonance_zones(cf: ContinuedFraction, gamma: float, tau: float,
                    k_values: Iterable[int], domain: IntervalUnion,
                    grid: np.ndarray, shift: np.ndarray) -> tuple:
    """Zones where ||l (lambda + beta(lambda)) - k alpha|| < gamma/(|k|+l)^tau,
    beta = shift on the lambda grid.  k = 0 participates: the truncated
    system's zeroth divisor exp(2 pi i l lambda~) - 1 vanishes at 1/2, l = 2.

    One search serves every beta, 0 included: a zone is centred wherever
    h = l (lambda + beta) - k alpha, piecewise linear on the grid and
    continued along its end segments to w past the hull of the domain and
    the grid, crosses or meets an integer m, so zones centred past a grid
    end are found too.  The half-width w = gamma / ((|k|+l)^tau l (1 -
    max|beta'|)) uses the certified lower bound on the slope.  Zones come
    ordered by (k, l), then m, then lambda.
    """
    if len(grid) < 2:
        raise ValueError("the zone search needs a lambda grid of >= 2 points")
    rows: list = []
    if domain.is_empty():
        return [], rows
    max_dbeta = float(np.abs(np.gradient(shift, grid)).max())
    tlw = []
    for k in k_values:
        t = cf.frac_k(k) if k > 0 else (-cf.frac_k(-k) if k else 0.0)
        for l in _LS:
            slope_lb = l * (1.0 - max_dbeta)
            if slope_lb < 0.5:
                rows.append(CheckRow("resonance slope >= 1/2", 0.5, slope_lb,
                                     False, "k=%d l=%d" % (k, l)))
                slope_lb = max(slope_lb, 1e-6)
            tlw.append((t, l, gamma / ((abs(k) + l) ** tau * slope_lb)))
    # one row of h per (k, l), continued along its end segments to w past
    # the hull of the domain and the grid
    t, l, w = np.array(tlw, float).reshape(-1, 3).T
    x = np.column_stack((min(domain.intervals[0][0], grid[0]) - w,
                         np.broadcast_to(grid, (len(w), len(grid))),
                         max(domain.intervals[-1][1], grid[-1]) + w))
    h = l[:, None] * (grid + shift) - t[:, None]
    d0 = (h[:, 1] - h[:, 0]) / (grid[1] - grid[0])
    d1 = (h[:, -1] - h[:, -2]) / (grid[-1] - grid[-2])
    h = np.column_stack((h[:, 0] + (x[:, 0] - grid[0]) * d0, h,
                         h[:, -1] + (x[:, -1] - grid[-1]) * d1))
    # h - m changes sign on a segment for each integer m strictly inside
    # its range of h, and vanishes at a node where h is an integer
    first = np.floor(np.minimum(h[:, :-1], h[:, 1:])) + 1
    count = np.ceil(np.maximum(h[:, :-1], h[:, 1:])) - first
    flat = np.repeat(np.arange(count.size),
                     np.maximum(count, 0).astype(int).ravel())
    m = first.ravel()[flat] + np.arange(len(flat)) - np.searchsorted(flat, flat)
    row, seg = np.divmod(flat, count.shape[1])
    g0, g1 = h[row, seg] - m, h[row, seg + 1] - m
    c = x[row, seg] - g0 * (x[row, seg + 1] - x[row, seg]) / (g1 - g0)
    zrow, node = np.nonzero(h == np.floor(h))
    row, m = np.concatenate((row, zrow)), np.concatenate((m, h[zrow, node]))
    c = np.concatenate((c, x[zrow, node]))
    at = np.concatenate((2 * seg + 1, 2 * node))    # node i, then segment i
    order = np.lexsort((at, m, row))        # by (k, l), then m, then lambda
    c, w = c[order], w[row[order]]
    return list(zip((c - w).tolist(), (c + w).tolist())), rows


# -- Diophantine sets --------------------------------------------------------------



@dataclass
class DcSet:
    """Parameters lambda with || l (lambda + shift) - k alpha || >= gamma/(|k|+l)^tau
    for |k| <= K (k = 0 included), l = 1, 2, as a finite union of closed
    intervals.  The set holds only the grid points in its intervals, with
    their indices on the grid it was built from."""

    cf: ContinuedFraction
    gamma: float
    tau: float
    K: int
    intervals: IntervalUnion
    lambda_grid: np.ndarray  # the points in intervals
    shift: np.ndarray  # [B]_theta per point (zeros when B = 0)
    index: np.ndarray  # their indices on the grid the set was built from
    zones: list = field(default_factory=list)   # the zones removed
    exclusion_rows: list = field(default_factory=list)  # resonance slopes
    _table: Optional[tuple] = field(default=None, init=False, repr=False)

    def restrict_level(self, *series) -> tuple:
        """Each of series, given on the grid the set was built from, at the
        set's points, all on lambda_grid."""
        return tuple(s.restrict(self.index, self.lambda_grid) for s in series)

    def omega(self) -> np.ndarray:
        return self.lambda_grid + self.shift

    def divisors(self, k_max: int) -> tuple:
        """The divisor table at the grid points: ks = 0, 1, -1, ...,
        k_max, -k_max, d[i, l-1] = l Omega - ks[i] alpha and
        pw[i, l-1] = (|ks[i]| + l)^tau for l = 1, 2.  Built once for the
        largest k_max asked; smaller tables are its leading rows."""
        n = 2 * k_max + 1
        if self._table is None or len(self._table[0]) < n:
            ks = (np.arange(n) + 1) // 2 * np.where(np.arange(n) % 2, 1, -1)
            t = np.array([self.cf.frac_k(abs(k)) for k in ks.tolist()])
            pw = np.array([[(abs(k) + l) ** self.tau for l in _LS]
                           for k in ks.tolist()])
            d = np.array(_LS)[:, None] * self.omega() \
                - (t * np.sign(ks))[:, None, None]
            self._table = ks, d, pw
        return tuple(a[:n] for a in self._table)

    def certify(self) -> list:
        """Sampled certification at every grid point (k = 0 included)."""
        ks, d, pw = self.divisors(self.K)
        dist = np.abs(d - np.round(d))
        worst, where = _first_min(dist - (self.gamma / pw)[:, :, None], ks)
        return [CheckRow("DC certification margin", 0.0, -worst,
                         bool(worst >= 0.0), where)]


def _first_min(vals: np.ndarray, ks: np.ndarray) -> tuple:
    """Least vals[i, l-1, point] and its label; ties go to the first (k, l)."""
    per = vals.min(axis=2)
    i, j = divmod(int(np.argmin(per)), len(_LS))
    return float(per[i, j]), "k=%d l=%d" % (ks[i], _LS[j])


def dc_from_exclusion(cf: ContinuedFraction, gamma: float, tau: float, K: int,
                      lambda_grid, B: Optional[FourierSeries] = None, *,
                      domain: Optional[IntervalUnion] = None,
                      k_min: int = 0) -> DcSet:
    """The DC set of a level whose normal form is lambda + B: remove from
    domain (default the whole lambda range) every resonance zone of the
    shifted frequency lambda + [B]_theta with k_min <= |k| <= K, k = 0
    included while k_min is 0.  B = None means B = 0.  The DcSet holds the
    points of lambda_grid that survive, the removed zones and the
    resonance-slope rows."""
    grid = np.asarray(lambda_grid, float)
    dom = IntervalUnion.full() if domain is None else domain
    shift = np.zeros(len(grid)) if B is None else np.real(B.average())
    ks = [s * k for k in range(max(k_min, 1), K + 1) for s in (1, -1)]
    if k_min == 0:
        ks = [0] + ks
    zones, rows = resonance_zones(cf, gamma, tau, ks, dom, grid, shift)
    intervals = dom.subtract(zones)
    index = np.flatnonzero(intervals.contains(grid))
    return DcSet(cf=cf, gamma=gamma, tau=tau, K=K, intervals=intervals,
                 lambda_grid=grid[index], shift=shift[index], index=index,
                 zones=zones, exclusion_rows=rows)


def certify_small_divisor(dc: DcSet, q_next: int, qbar_next: int,
                          k_max: Optional[int] = None) -> list:
    """|exp(2 pi i (l Omega - k alpha)) - 1| >= 4 gamma q_next^{-tau^2}
    over all grid points, |k| <= sqrt(qbar_next), l = 1, 2."""
    K_lemma = math.isqrt(qbar_next)
    km = K_lemma if k_max is None else min(k_max, K_lemma)
    bound = 4.0 * dc.gamma * _float_pow(q_next, -dc.tau**2)
    ks, d, _ = dc.divisors(km)
    worst, where = _first_min(np.abs(np.exp(2j * np.pi * d) - 1.0), ks)
    case1 = _log_leq(qbar_next, q_next, 2 * dc.tau)
    return [CheckRow("small divisor |e^{i2pi(lW-ka)}-1| >= 4g Q^{-tau^2}",
                     bound, worst, bool(worst >= bound),
                     where + (" case1" if case1 else " case2"))]


def _float_pow(q: int, expo: float) -> float:
    try:
        return float(q) ** expo
    except OverflowError:
        return math.inf if expo > 0 else 0.0


def _log_leq(a: int, b: int, expo: float) -> bool:
    """a <= b**expo via logs (big-int safe)."""
    return _ln_big(a) <= expo * _ln_big(b)


# -- the B-equation ------------------------------------------------------------------


def solve_b_equation(B: FourierSeries, qbar: int, cf: ContinuedFraction) -> FourierSeries:
    """Unique trigonometric-polynomial solution of

        Bcal(theta + alpha) - Bcal(theta) = -T_qbar B + [B]_theta

    with modes 0 < |k| < qbar.  The printed coefficient formula has the
    divisor sign flipped; the sign used here makes the equation hold with
    coefficient-exact residual, which is asserted.
    """
    if B.kind != fr.SCALAR:
        raise fr.KindMismatch("solve_b_equation needs a scalar series")
    scale = max(B.sup_bound(), 1e-300)
    if fr.real_defect(B) > 1e-12 * max(scale, 1.0):
        raise ValueError("B must be real-valued")
    keep = (B.modes != 0) & (np.abs(B.modes) < qbar)
    ks = B.modes[keep]
    div = np.array([cf.phase(k) for k in ks.tolist()], complex) - 1.0
    small = np.abs(div) < 1e-300
    if small.any():
        raise ZeroDivisionError("vanishing divisor at k=%d" % ks[small][0])
    bcal = FourierSeries(B.lambda_grid, fr.SCALAR, ks,
                         -B.data[keep] / div[:, None])
    resid = _b_residual(B, bcal, qbar, cf)
    if resid.max_mode >= qbar and not resid.is_zero():
        raise AssertionError("truncation produced modes beyond qbar")
    if resid.sup_bound() > 1e-14 * max(scale, 1.0):
        raise AssertionError("B-equation residual %.3e above coefficient-exact "
                             "tolerance" % resid.sup_bound())
    return bcal


def _b_residual(B: FourierSeries, bcal: FourierSeries, qbar: int,
                cf: ContinuedFraction) -> FourierSeries:
    """Bcal(theta + alpha) - Bcal(theta) + T_qbar B - [B]_theta."""
    return bcal.shift(cf.phase) - bcal + B.truncate(qbar) \
        - fr.constant(B.lambda_grid, B.average(), fr.SCALAR)


def b_equation_rows(B: FourierSeries, bcal: FourierSeries, qbar: int,
                    cf: ContinuedFraction, weight: WeightFunction, r: float,
                    rbar: float, r0: float) -> list:
    """Residual and exponential-growth certification for the B-equation."""
    ctx_r = WeightedNormContext(weight, r)
    ctx_rbar = WeightedNormContext(weight, rbar)
    resid = _b_residual(B, bcal, qbar, cf)
    tol = 1e-14 * max(1.0, B.sup_bound())
    rows = [CheckRow("B-equation coefficient residual", tol,
                     resid.sup_bound(), resid.sup_bound() <= tol)]
    eb = fr.exp_i_scalar(bcal, 1)
    lhs = fr.norm_r(eb, ctx_rbar)
    rhs = math.exp(min(8 * math.pi**2 * r0 * fr.norm_r(B, ctx_r), 700.0))
    rows.append(CheckRow("||e^{i2pi Bcal}||_rbar <= e^{8pi^2 r0 ||B||_r}",
                         rhs, lhs, lhs <= rhs))
    return rows


# -- truncation tails ------------------------------------------------------------------


def _tail_decay(weight: WeightFunction, K: int, r: float,
                sigma: float) -> Optional[float]:
    """exp(-sigma/r * Gamma(x) ln x) at x = 2 pi K (r - sigma), the factor
    by which the modes past K shrink from width r to r - sigma; None when
    x <= 1, outside Gamma's domain."""
    x = 2 * math.pi * K * (r - sigma)
    if x <= 1.0:
        return None
    return math.exp(max(-(sigma / r) * eval_gamma(weight, x) * math.log(x),
                        -745.0))


def tail_bound(f: FourierSeries, K: int, r: float, sigma: float,
               ctx: WeightedNormContext) -> tuple:
    """Certified bound for || R_K f ||_{r - sigma}:

        exp(-sigma/r * Gamma(2 pi K (r-sigma)) ln(2 pi K (r-sigma))) ||f||_r.

    Returns (bound, actual, row); the inequality is asserted in the row.
    """
    if not 0 < sigma < r:
        raise ValueError("need 0 < sigma < r")
    decay = _tail_decay(ctx.weight, K, r, sigma)
    if decay is None:
        raise ValueError("2 pi K (r - sigma) must exceed 1 (Gamma domain)")
    bound = decay * fr.norm_r(f, ctx.with_r(r))
    actual = fr.norm_r(f.project_tail(K), ctx.with_r(r - sigma))
    row = CheckRow("tail ||R_K f||_{r-s} <= exp(-s Gamma ln / r)||f||_r",
                   bound * (1 + 1e-12), actual,
                   actual <= bound * (1 + 1e-12), "K=%d" % K)
    return bound, actual, row


# -- polar decomposition -----------------------------------------------------------------


# the largest theta-grid polar_decompose samples on
POLAR_GRID_CAP = 1 << 14
# polar_decompose needs max |e^{-2 pi i lambda} G| below this
POLAR_MAX_H = 0.5


def polar_decompose(G: FourierSeries) -> tuple:
    """Real rho, B with (1 + rho) e^{2 pi i (lambda + B)} = e^{2 pi i lambda} + G.

    With h = e^{-2 pi i lambda} G, sampled on a theta-grid oversampled 4
    times and capped at POLAR_GRID_CAP points, and max|h| < POLAR_MAX_H,
    1 + h stays in the right half-plane, so B = arg(1 + h) / (2 pi) is the
    principal argument, periodic in theta with no unwrapping, and rho =
    |1 + h| - 1 = (2 Re h + |h|^2) / (|1 + h| + 1).  Neither subtracts an
    O(1) value, so both carry errors of order eps |h|, and the re-expansion
    cuts at that scale.  Returns (rho, B, pointwise reconstruction defect,
    the grid size the oversampling wanted before the cap).
    """
    if G.kind != fr.SCALAR:
        raise fr.KindMismatch("polar_decompose needs a scalar series")
    grid = G.lambda_grid
    wanted = max(256, _next_pow2(4 * (2 * G.max_mode + 1)))
    if G.is_zero():
        z = fr.zeros(grid, fr.SCALAR)
        return z, z, 0.0, wanted
    n = min(wanted, POLAR_GRID_CAP)
    base = np.exp(2j * np.pi * grid)[None, :]
    vals = G.sample(n)  # (n, L)
    h = vals * np.conj(base)
    h_max = float(np.abs(h).max())
    if not h_max < POLAR_MAX_H:
        raise SingularityError("|e^{-2 pi i lambda} G| reaches %.3g >= %g"
                               % (h_max, POLAR_MAX_H))
    one_h = 1.0 + h
    rho = _series_from_grid((2 * h.real + np.abs(h) ** 2)
                            / (np.abs(one_h) + 1.0), grid, h_max)
    Bs = _series_from_grid(np.angle(one_h) / (2 * np.pi), grid, h_max)
    recon = (1.0 + rho.sample(n)) * np.exp(
        2j * np.pi * (grid[None, :] + Bs.sample(n)))
    defect = float(np.abs(recon - (base + vals)).max())
    return rho, Bs, defect, wanted


def _next_pow2(n: int) -> int:
    return 1 << max(8, (n - 1).bit_length())


def _series_from_grid(vals: np.ndarray, lambda_grid: np.ndarray,
                      scale: float) -> FourierSeries:
    """Fourier coefficients of real grid data (theta along axis 0) whose
    values carry an absolute error of a few eps * scale.

    The FFT adds a flat roundoff floor of about log2(n) eps scale at every
    mode; modes past the point where the true decay meets the floor
    32 eps scale are pure dust and are cut (weighted norms would otherwise
    amplify them astronomically).  The caller re-measures the
    reconstruction defect.
    """
    n = vals.shape[0]
    fhat = np.fft.fft(vals, axis=0) / n
    mag = np.abs(fhat).max(axis=1)
    idx = np.arange(n)
    k = np.where(idx <= n // 2, idx, idx - n)
    valid = idx != n // 2           # the unmatched Nyquist mode
    above = np.abs(k[valid & (mag >= 32.0 * _EPS * scale)])
    kcut = int(above.max()) + 1 if above.size else 0
    sel = valid & (np.abs(k) < max(kcut, 1))
    order = np.argsort(k[sel])
    return fr._cleaned(lambda_grid, fr.SCALAR, k[sel][order],
                       fhat[sel][order])


# -- the truncated solver -------------------------------------------------------------------


class SolveSetup:
    """What every homological solve of one KAM level shares.  Built once per
    level from B and the level's DC set (cf, gamma, tau, K, grid and
    shift), both on the level's points, and the level constants; computed
    when first needed: bcal
    (the B-equation's solution), e^{2 pi i l B}, terms(l) and the norms of
    the B hypotheses.  It holds no (n, n) array over the n = 2K - 1 modes,
    and no solve builds one but the dense fallback, for a point it solves:
    the conditioning check sums its matrix over btilde's diagonals
    (_conditioning), and the Neumann series runs on the modes its data
    reaches, its product summed over the same diagonals (_solve_truncated)."""

    def __init__(self, B: FourierSeries, dc: DcSet, *, weight: WeightFunction,
                 q_next: int, qbar_n: int, r_b: float, sigma: float,
                 eps0: float):
        self.B, self.weight = B, weight
        self.cf, self.gamma, self.tau, self.K = dc.cf, dc.gamma, dc.tau, dc.K
        self.grid, self.shift = dc.lambda_grid, dc.shift
        # every point is active; perfbench/child.py counts them by this
        self.active = np.ones(len(self.grid), bool)
        self.q_next = q_next        # Q_{n+1}
        self.qbar_n = qbar_n        # Qbar_n: B-equation truncation
        self.r_b = r_b              # width for the B hypotheses (= r_n)
        self.sigma, self.eps0 = sigma, eps0
        self.lam_t = self.grid + np.real(B.average())
        self.ks = np.arange(-self.K + 1, self.K)
        self._exp_B: dict = {}
        self._terms: dict = {}

    def ctx(self, r: float) -> WeightedNormContext:
        return WeightedNormContext(self.weight, float(r))

    @functools.cached_property
    def b_norms(self) -> tuple:
        """||B||_{r_b} and ||R_Qbar B||_{r_b/2}."""
        return (fr.norm_r(self.B, self.ctx(self.r_b)),
                fr.norm_r(self.B.project_tail(self.qbar_n),
                          self.ctx(self.r_b / 2)))

    @functools.cached_property
    def bcal(self) -> FourierSeries:
        if self.B.is_zero():
            return fr.zeros(self.grid, fr.SCALAR)
        return solve_b_equation(self.B, self.qbar_n, self.cf)

    def exp_B(self, l: int) -> FourierSeries:
        if l not in self._exp_B:
            self._exp_B[l] = fr.exp_i_scalar(self.B, l)
        return self._exp_B[l]

    def terms(self, l: int) -> SimpleNamespace:
        """e_plus, e_minus = e^{+-2 pi i l bcal}, e_minus_shifted = e_minus(.+a),
        phi = e^{2 pi i l (-T_qbar B + [B])}, the per-lambda array exp_lt =
        e^{2 pi i l lambda~}, tail_term = (e^{2 pi i l R_qbar B} - 1) exp_lt,
        phase_B = e^{2 pi i l (lambda + B)}, diagonal[lambda, k] = exp_lt -
        e^{2 pi i k a} (|k| < K) and s_inv = ||S^{-1}||."""
        if l not in self._terms:
            B, grid = self.B, self.grid
            lt = np.exp(2j * np.pi * l * self.lam_t)
            e_minus = fr.exp_i_scalar(self.bcal, -l)
            mser = B.truncate(self.qbar_n).scale(-1.0) + \
                fr.constant(grid, B.average(), fr.SCALAR)
            e_tail = fr.exp_i_scalar(B.project_tail(self.qbar_n), l)
            phases = np.array([self.cf.phase(k) for k in self.ks.tolist()])
            diagonal = lt[:, None] - phases[None, :]
            self._terms[l] = SimpleNamespace(
                e_plus=fr.exp_i_scalar(self.bcal, l), e_minus=e_minus,
                e_minus_shifted=e_minus.shift(self.cf.phase),
                phi=fr.exp_i_scalar(mser, l), exp_lt=lt,
                tail_term=(e_tail - fr.one(grid)).scale(lt),
                phase_B=fr.multiply(fr.lambda_phase(grid, l), self.exp_B(l)),
                diagonal=diagonal, s_inv=self._s_inv(diagonal, l))
        return self._terms[l]

    def _s_inv(self, diagonal: np.ndarray, l: int) -> float:
        """Measured row-sum norm of S^{-1}, lambda-derivative included."""
        small = np.abs(diagonal)
        davg = 0.0
        if len(self.grid) >= 2:
            davg = float(np.abs(np.gradient(self.lam_t, self.grid)
                                - 1.0).max())
        return float((1.0 / small
                      + 2 * math.pi * l * (1.0 + davg) / small**2).max())


@dataclass
class SolveResult:
    delta: FourierSeries
    delta_er: FourierSeries
    delta_tilde: FourierSeries
    btilde: FourierSeries
    rows: list = field(default_factory=list)


def solve_homological(b: FourierSeries, u: FourierSeries, l: int,
                      setup: SolveSetup, r_tilde: float) -> SolveResult:
    """Approximate solution of
        e^{2 pi i l (lambda + B)} delta + b delta - delta(theta+alpha) = u
    (B is the level's, setup.B) at width r_tilde per the two-step pipeline;
    returns delta, the error term and every certified bound.  The solve
    always runs: the lemma's hypotheses and the Neumann dominance are
    reported, and the a-posteriori gating rows (the truncated-system
    residual, the full residual against the transported tail, ||delta||)
    certify the solution."""
    if l not in _LS:
        raise ValueError("l must be 1 or 2")
    cf = setup.cf
    rows = _preconditions(b, setup, r_tilde)

    t = setup.terms(l)
    btilde = t.tail_term + fr.multiply(b, t.phi)
    utt = fr.multiply(fr.multiply(t.e_plus, u), t.phi)

    phi_norm = fr.norm_r(t.phi, setup.ctx(r_tilde))
    rows.append(CheckRow("||e^{i2pil(-T B + [B])}||_rt <= 2", 2.0, phi_norm,
                         phi_norm <= 2.0))

    # conditioning: measured Neumann dominance of the scaled system
    s_inv, pe_norm = _conditioning(btilde, setup, l, r_tilde)
    rows.append(CheckRow("||S^{-1}|| measured", math.inf, s_inv, True))
    dom = s_inv * pe_norm
    rows.append(CheckRow("||S^{-1} E P E^{-1}|| < 1/2", 0.5, dom, dom < 0.5,
                         gating=False))

    delta_tilde, steps, dense = _solve_truncated(btilde, utt, setup, l, dom)

    # exact residual of the truncated linear system
    bd = fr.multiply(btilde, delta_tilde)
    sys_res = (delta_tilde.scale(t.exp_lt) + bd
               - delta_tilde.shift(cf.phase) - utt).truncate(setup.K)
    u_scale = max(utt.sup_bound(), 1e-300)
    how = "neumann steps=%d" % steps
    if len(dense):
        how += " dense at lambda=" + " ".join("%.6g" % v
                                              for v in setup.grid[dense])
    res_sup = sys_res.sup_bound()
    rows.append(CheckRow("truncated-system residual <= 1e-10 ||u||",
                         1e-10 * u_scale, res_sup, res_sup <= 1e-10 * u_scale,
                         how))

    delta = fr.multiply(t.e_minus, delta_tilde)
    tail_part = (bd - utt).project_tail(setup.K)
    delta_er = fr.multiply(t.e_minus, tail_part)

    ctx_rt = setup.ctx(r_tilde)
    u_norm = fr.norm_r(u, ctx_rt)
    sol_bound = 32.0 * setup.gamma**-2 * _float_pow(setup.q_next,
                                                    2 * setup.tau**2) * u_norm
    d_norm = fr.norm_r(delta, ctx_rt)
    rows.append(CheckRow("||delta|| <= 32 g^-2 Q^{2tau^2} ||u||", sol_bound,
                         d_norm, d_norm <= sol_bound))

    decay = _tail_decay(setup.weight, setup.K, r_tilde, setup.sigma)
    if decay is not None:
        er_bound = 16.0 * decay * u_norm
        er_norm = fr.norm_r(delta_er, setup.ctx(r_tilde - setup.sigma))
        rows.append(CheckRow("||delta_er||_{rt-s} <= 16 exp(-s G ln / rt)||u||",
                             er_bound, er_norm, er_norm <= er_bound))

    # residual of the full (untruncated) equation equals the transported tail
    full_res = (fr.multiply(t.phase_B, delta)
                + fr.multiply(b, delta) - delta.shift(cf.phase) - u)
    transported = fr.multiply(t.e_minus_shifted, tail_part)
    mismatch = (full_res - transported).sup_bound()
    rows.append(CheckRow("full residual = transported tail (1e-10 rel)",
                         1e-10 * u_scale, mismatch, mismatch <= 1e-10 * u_scale))

    return SolveResult(delta=delta, delta_er=delta_er, delta_tilde=delta_tilde,
                       btilde=btilde, rows=rows)


def _preconditions(b, setup: SolveSetup, r_tilde: float) -> list:
    # the solver lemma's theoretical-constant hypotheses, reported as
    # non-gating rows; the DC shift row gates.  The B norms are the level's
    rows = []
    nB, tail = setup.b_norms
    rows.append(CheckRow("||B||_r <= eps0^(1/3)", setup.eps0 ** (1 / 3), nB,
                         nB <= setup.eps0 ** (1 / 3), gating=False))
    tb = setup.gamma**2 / (480 * math.pi**2) * _float_pow(setup.q_next,
                                                          -2 * setup.tau**2)
    rows.append(CheckRow("||R_Qbar B||_{r/2} <= g^2/(480pi^2 Q^{2tau^2})", tb,
                         tail, tail <= tb, gating=False))
    nb = fr.norm_r(b, setup.ctx(r_tilde))
    bb = setup.gamma**2 / 12.0 * _float_pow(setup.q_next, -2 * setup.tau**2)
    rows.append(CheckRow("||b||_rt < g^2/(12 Q^{2tau^2})", bb, nb,
                         nb < bb or (nb == 0.0 and bb == 0.0), gating=False))
    shift_dev = float(np.abs(np.real(setup.B.average()) - setup.shift).max())
    rows.append(CheckRow("DC shift matches [B]_theta", 1e-10, shift_dev,
                         shift_dev <= 1e-10))
    return rows


def _conditioning(btilde: FourierSeries, setup: SolveSetup, l: int,
                  r_tilde: float) -> tuple:
    """Measured row-sum norms of S^{-1} and E P E^{-1}; the second is the
    largest row sum of the width-scaled Toeplitz matrix
    |btilde_{k1-k2}|_O exp(min(lw(k1) - lw(k2), 700)) over the n = 2K - 1
    modes |k| < K, lw(k) = Lambda(2 pi |k| r).  Row k1 sums over the
    diagonals d = k1 - k2 that btilde holds (_diagonals): O(nnz n) work and
    no (n, n) array."""
    n = len(setup.ks)
    c_O = fr._row_max(btilde.data, btilde.lambda_grid)
    lw = eval_lambda(setup.weight, 2 * math.pi * np.abs(setup.ks) * r_tilde)
    pe = np.zeros(n)
    for j, rows, cols in _diagonals(btilde.modes, n):
        pe[rows] += c_O[j] * np.exp(np.minimum(lw[rows] - lw[cols], 700.0))
    return setup.terms(l).s_inv, float(pe.max())


def _diagonals(modes: np.ndarray, n: int):
    """For each mode d of modes with |d| < n, (its index, rows, cols): the
    slices of an n-mode window on which the Toeplitz matrix of the modes
    sets T[k1, k1 - d] = c_d, so T[rows, cols] holds c_d on its diagonal."""
    for j, d in enumerate(modes.tolist()):
        if abs(d) < n:
            yield (j, slice(max(d, 0), n + min(d, 0)),
                   slice(max(-d, 0), n - max(d, 0)))


def _solve_truncated(btilde: FourierSeries, utt: FourierSeries,
                     setup: SolveSetup, l: int, dom: float) -> tuple:
    """Solve (S + P) F = U at every grid point by the solver lemma's
    Neumann series F <- (U - P F) / S, all points at once, on the modes the
    data reaches: F starts on the window lo .. hi spanned by U's modes
    |k| < K, and each step widens the window by btilde's extreme modes,
    clipped to |k| < K.  P F is the Toeplitz product by btilde cut to the
    window, summed directly over btilde's diagonals (_diagonals), one slice
    product per diagonal for all running points.

    A point stops when its step falls to a few ulps of max|F|.  A point
    whose step stops shrinking first, or that still runs after
    log(eps)/log(min(dom, 1/2)) + a margin steps (dom = ||S^{-1} E P E^{-1}||
    as measured), does not converge: it is solved by one dense solve over
    all n = 2K - 1 modes instead, so no diverged iterate is returned.
    Returns (F, the number of steps, the grid indices solved densely)."""
    K, n = setup.K, len(setup.ks)
    u = utt.truncate(K)
    if u.is_zero():
        return fr.zeros(setup.grid), 0, np.zeros(0, int)
    diagonal = setup.terms(l).diagonal                     # (L, n)
    near = btilde.truncate(n)
    bmodes, bdata = near.modes, near.data.T                # (L, nnz)
    lo, hi = int(u.modes[0]), int(u.modes[-1])
    rhs = np.zeros((len(diagonal), hi - lo + 1), complex)
    rhs[:, u.modes - lo] = u.data.T
    x = rhs / diagonal[:, lo + K - 1:hi + K]
    rate = dom if dom < 0.5 else 0.5                       # NaN: 1/2
    cap = math.ceil(math.log(_EPS) / math.log(max(rate, 1e-300))) \
        + _NEUMANN_MARGIN
    prev = np.full(len(x), np.inf)
    run = np.flatnonzero(bdata.any(axis=1))    # where P = 0, F = U / S
    grow = (min(int(bmodes[0]), 0), max(int(bmodes[-1]), 0)) if run.size \
        else (0, 0)
    stuck, steps = [], 0
    while run.size and steps < cap:
        wider = max(lo + grow[0], 1 - K), min(hi + grow[1], K - 1)
        if wider != (lo, hi):
            pad = ((0, 0), (lo - wider[0], wider[1] - hi))
            x, rhs = np.pad(x, pad), np.pad(rhs, pad)
            lo, hi = wider
        xr, br = x[run], bdata[run]
        px = np.zeros_like(xr)
        for j, rows, cols in _diagonals(bmodes, hi - lo + 1):
            px[:, rows] += br[:, j, None] * xr[:, cols]
        new = (rhs[run] - px) / diagonal[run, lo + K - 1:hi + K]
        step = np.abs(new - xr).max(axis=1)
        x[run] = new
        steps += 1
        done = step <= _NEUMANN_TOL * np.abs(new).max(axis=1)
        shrinking = step < prev[run]
        stuck.append(run[~done & ~shrinking])
        prev[run] = step
        run = run[~done & shrinking]
    dense = np.concatenate(stuck + [run]).astype(int)
    if dense.size:
        pad = ((0, 0), (lo + K - 1, K - 1 - hi))
        x, rhs = np.pad(x, pad), np.pad(rhs, pad)
        lo, hi = 1 - K, K - 1
        k = np.arange(n)
        for i in dense:
            M = np.diag(diagonal[i])
            for j, rows, cols in _diagonals(bmodes, n):
                M[k[rows], k[cols]] += bdata[i, j]
            x[i] = np.linalg.solve(M, rhs[i])
    return (fr._cleaned(setup.grid, fr.SCALAR, np.arange(lo, hi + 1),
                        np.ascontiguousarray(x.T)),
            steps, np.sort(dense))
