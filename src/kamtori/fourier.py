"""Finite Fourier series over the circle with tabulated parameter dependence.

A series holds a finite map mode -> coefficient, where each coefficient is
tabulated on an ascending lambda-grid.  Three value kinds share the same
container: scalars, 2-vectors (conjugate pairs (v, vbar)) and 2x2 matrices
with the [[a, b], [conj b, conj a]] block pattern.  The kind is a shape tag;
the structural claims are checked where the scheme requires them, not
enforced by construction.

Weighted norms sum |f_k|_O * exp(L(2 pi |k| r)) where |.|_O is the sup over
the (active part of the) lambda-grid of value plus central-difference
lambda-derivative, reduced over vector/matrix entries by maximum.

After every algebra operation coefficients below DROP_REL times the largest
coefficient are removed, which keeps supports finite across the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .weights import WeightFunction, eval_lambda

DROP_REL = 1e-16
EXP_SERIES_MAX_TERMS = 64

SCALAR = "scalar"
C2VECTOR = "c2vector"
SU11MATRIX = "su11matrix"

_COMP_SHAPE = {SCALAR: (), C2VECTOR: (2,), SU11MATRIX: (2, 2)}


class KindMismatch(TypeError):
    pass


class PowerSeriesDiverged(ArithmeticError):
    """The 64-term cap was hit; inputs in the scheme are always small."""


@dataclass(frozen=True, eq=False)
class FourierSeries:
    lambda_grid: np.ndarray
    kind: str
    coeffs: dict  # int k -> complex ndarray of shape (L,) + comp shape

    def __post_init__(self):
        if self.kind not in _COMP_SHAPE:
            raise KindMismatch("unknown kind %r" % (self.kind,))

    # -- basic queries --------------------------------------------------------

    @property
    def nlambda(self) -> int:
        return len(self.lambda_grid)

    @property
    def support(self) -> list:
        return sorted(self.coeffs)

    @property
    def max_mode(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> np.ndarray:
        shape = (self.nlambda,) + _COMP_SHAPE[self.kind]
        v = self.coeffs.get(k)
        return v.copy() if v is not None else np.zeros(shape, complex)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._compat(other)
        out = {k: v.copy() for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            if k in out:
                out[k] = out[k] + v
            else:
                out[k] = v.copy()
        return _cleaned(self.lambda_grid, self.kind, out)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + other.scale(-1.0)

    def __mul__(self, other: "FourierSeries") -> "FourierSeries":
        return multiply(self, other)

    def scale(self, factor) -> "FourierSeries":
        """Multiply by a constant or a per-lambda array."""
        f = np.asarray(factor)
        if f.ndim == 1:
            f = f.reshape((self.nlambda,) + (1,) * len(_COMP_SHAPE[self.kind]))
        out = {k: v * f for k, v in self.coeffs.items()}
        return _cleaned(self.lambda_grid, self.kind, out)

    def shift(self, phase: Callable[[int], complex]) -> "FourierSeries":
        """theta -> theta + alpha on coefficients: f_k *= exp(2 pi i k alpha)."""
        out = {k: v * phase(k) for k, v in self.coeffs.items()}
        return _cleaned(self.lambda_grid, self.kind, out)

    def conj(self) -> "FourierSeries":
        """Series of theta -> conj(f(theta)) for real theta."""
        out = {-k: np.conj(v) for k, v in self.coeffs.items()}
        return FourierSeries(self.lambda_grid, self.kind, out)

    def truncate(self, K: int) -> "FourierSeries":
        """Keep modes |k| < K."""
        if K < 1:
            raise ValueError("K must be at least 1")
        out = {k: v.copy() for k, v in self.coeffs.items() if abs(k) < K}
        return FourierSeries(self.lambda_grid, self.kind, out)

    def project_tail(self, K: int) -> "FourierSeries":
        """Keep modes |k| >= K; truncate + project_tail partitions exactly."""
        if K < 1:
            raise ValueError("K must be at least 1")
        out = {k: v.copy() for k, v in self.coeffs.items() if abs(k) >= K}
        return FourierSeries(self.lambda_grid, self.kind, out)

    def average(self) -> np.ndarray:
        """f_0 per lambda-grid point."""
        return self.coeff(0)

    def component(self, i: int) -> "FourierSeries":
        if self.kind != C2VECTOR:
            raise KindMismatch("component() needs a vector series")
        return _cleaned(self.lambda_grid, SCALAR,
                        {k: v[:, i].copy() for k, v in self.coeffs.items()})

    def entry(self, i: int, j: int) -> "FourierSeries":
        if self.kind != SU11MATRIX:
            raise KindMismatch("entry() needs a matrix series")
        return _cleaned(self.lambda_grid, SCALAR,
                        {k: v[:, i, j].copy() for k, v in self.coeffs.items()})

    def eval_theta(self, thetas) -> np.ndarray:
        """Values on a theta-grid: shape (T, L) + comp shape."""
        t = np.asarray(thetas, dtype=float)
        shape = (len(t), self.nlambda) + _COMP_SHAPE[self.kind]
        out = np.zeros(shape, complex)
        for k, v in self.coeffs.items():
            e = np.exp(2j * np.pi * k * t)
            out += e.reshape((len(t),) + (1,) * (v.ndim)) * v[None, ...]
        return out

    def sup_bound(self, active: Optional[np.ndarray] = None) -> float:
        """sum_k max|f_k|: an upper bound for the sup over theta."""
        tot = 0.0
        for v in self.coeffs.values():
            vv = v if active is None else v[active]
            tot += float(np.abs(vv).max()) if vv.size else 0.0
        return tot

    def _compat(self, other: "FourierSeries"):
        if self.kind != other.kind:
            raise KindMismatch("kind mismatch: %s vs %s" % (self.kind, other.kind))
        if self.nlambda != other.nlambda or not np.array_equal(
                self.lambda_grid, other.lambda_grid):
            raise ValueError("lambda grids differ")


# -- constructors --------------------------------------------------------------


def zeros(lambda_grid, kind: str = SCALAR) -> FourierSeries:
    return FourierSeries(np.asarray(lambda_grid, float), kind, {})


def constant(lambda_grid, value, kind: str = SCALAR) -> FourierSeries:
    """Mode-0 series; value is a scalar, a per-lambda array, or a full array."""
    grid = np.asarray(lambda_grid, float)
    shape = (len(grid),) + _COMP_SHAPE[kind]
    arr = np.asarray(value, complex)
    if arr.shape == shape:
        c = arr.copy()
    elif arr.shape == _COMP_SHAPE[kind]:
        c = np.broadcast_to(arr, shape).copy()
    elif arr.ndim == 0 and kind == SCALAR:
        c = np.full(shape, complex(arr))
    elif arr.ndim == 1 and kind == SCALAR and len(arr) == len(grid):
        c = arr.astype(complex)
    else:
        raise ValueError("constant(): value shape %s incompatible" % (arr.shape,))
    if not np.any(c):
        return FourierSeries(grid, kind, {})
    return FourierSeries(grid, kind, {0: c})


def one(lambda_grid) -> FourierSeries:
    return constant(lambda_grid, 1.0, SCALAR)


def eye(lambda_grid) -> FourierSeries:
    return constant(lambda_grid, np.eye(2), SU11MATRIX)


def from_modes(lambda_grid, kind: str, modes: dict) -> FourierSeries:
    """modes: k -> scalar / per-lambda array / full coefficient array."""
    grid = np.asarray(lambda_grid, float)
    shape = (len(grid),) + _COMP_SHAPE[kind]
    out = {}
    for k, value in modes.items():
        arr = np.asarray(value, complex)
        if arr.shape == shape:
            out[int(k)] = arr.copy()
        elif arr.shape == _COMP_SHAPE[kind]:
            out[int(k)] = np.broadcast_to(arr, shape).copy()
        elif arr.ndim == 0:
            out[int(k)] = np.full(shape, complex(arr))
        else:
            raise ValueError("coefficient shape %s incompatible" % (arr.shape,))
    return _cleaned(grid, kind, out)


def vector_from_scalars(v0: FourierSeries, v1: FourierSeries) -> FourierSeries:
    v0._compat(v1)
    out = {}
    for k in set(v0.coeffs) | set(v1.coeffs):
        c = np.zeros((v0.nlambda, 2), complex)
        if k in v0.coeffs:
            c[:, 0] = v0.coeffs[k]
        if k in v1.coeffs:
            c[:, 1] = v1.coeffs[k]
        out[k] = c
    return _cleaned(v0.lambda_grid, C2VECTOR, out)


def matrix_from_scalars(a: FourierSeries, b: FourierSeries,
                        c: FourierSeries, d: FourierSeries) -> FourierSeries:
    for s in (b, c, d):
        a._compat(s)
    out = {}
    for k in set(a.coeffs) | set(b.coeffs) | set(c.coeffs) | set(d.coeffs):
        m = np.zeros((a.nlambda, 2, 2), complex)
        for (i, j), s in (((0, 0), a), ((0, 1), b), ((1, 0), c), ((1, 1), d)):
            if k in s.coeffs:
                m[:, i, j] = s.coeffs[k]
        out[k] = m
    return _cleaned(a.lambda_grid, SU11MATRIX, out)


def matrix_from_columns(col0: FourierSeries, col1: FourierSeries) -> FourierSeries:
    return matrix_from_scalars(col0.component(0), col1.component(0),
                               col0.component(1), col1.component(1))


def conjugate_pair(v0: FourierSeries) -> FourierSeries:
    """(v, vbar)^T from its first component."""
    return vector_from_scalars(v0, v0.conj())


def off_diagonal(d: FourierSeries) -> FourierSeries:
    """[[0, d], [dbar, 0]] from a scalar series."""
    z = zeros(d.lambda_grid, SCALAR)
    return matrix_from_scalars(z, d, d.conj(), z)


def lambda_phase(lambda_grid, l: int = 1) -> FourierSeries:
    """Mode-0 series exp(2 pi i l lambda) on the grid."""
    grid = np.asarray(lambda_grid, float)
    return constant(grid, np.exp(2j * np.pi * l * grid), SCALAR)


# -- the coefficient drop rule --------------------------------------------------


def _cleaned(grid, kind, coeffs: dict) -> FourierSeries:
    gmax = 0.0
    for v in coeffs.values():
        if v.size:
            m = float(np.abs(v).max())
            if m > gmax:
                gmax = m
    if gmax == 0.0:
        return FourierSeries(np.asarray(grid, float), kind, {})
    thr = DROP_REL * gmax
    out = {k: v for k, v in coeffs.items() if float(np.abs(v).max()) >= thr}
    return FourierSeries(np.asarray(grid, float), kind, out)


# -- products -------------------------------------------------------------------

_MUL_RULES = {
    (SCALAR, SCALAR): (SCALAR, "l,nl->nl"),
    (SCALAR, C2VECTOR): (C2VECTOR, "l,nli->nli"),
    (C2VECTOR, SCALAR): (C2VECTOR, "li,nl->nli"),
    (SCALAR, SU11MATRIX): (SU11MATRIX, "l,nlij->nlij"),
    (SU11MATRIX, SCALAR): (SU11MATRIX, "lij,nl->nlij"),
    (SU11MATRIX, C2VECTOR): (C2VECTOR, "lij,nlj->nli"),
    (SU11MATRIX, SU11MATRIX): (SU11MATRIX, "lij,nljk->nlik"),
}


def multiply(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Coefficient convolution with kind dispatch (left factor acts)."""
    rule = _MUL_RULES.get((a.kind, b.kind))
    if rule is None:
        raise KindMismatch("cannot multiply %s by %s" % (a.kind, b.kind))
    out_kind, ein = rule
    if a.nlambda != b.nlambda or not np.array_equal(a.lambda_grid, b.lambda_grid):
        raise ValueError("lambda grids differ")
    if a.is_zero() or b.is_zero():
        return zeros(a.lambda_grid, out_kind)
    bmin, bmax = min(b.coeffs), max(b.coeffs)
    bdense = _dense_modes(b, bmin, bmax)
    ak = sorted(a.coeffs)
    omin = ak[0] + bmin
    omax = ak[-1] + bmax
    odense = np.zeros((omax - omin + 1, a.nlambda) + _COMP_SHAPE[out_kind], complex)
    nb = bdense.shape[0]
    for k in ak:
        lo = k + bmin - omin
        odense[lo:lo + nb] += np.einsum(ein, a.coeffs[k], bdense)
    return _from_dense(a.lambda_grid, out_kind, odense, omin)


def _dense_modes(f: FourierSeries, kmin: int, kmax: int) -> np.ndarray:
    """Modes kmin..kmax as a zero-filled array (kmax - kmin + 1, L, ...)."""
    out = np.zeros((kmax - kmin + 1, f.nlambda) + _COMP_SHAPE[f.kind], complex)
    for k, v in f.coeffs.items():
        if kmin <= k <= kmax:
            out[k - kmin] = v
    return out


def _from_dense(grid, kind: str, arr: np.ndarray, kmin: int) -> FourierSeries:
    """Series with mode kmin + i from row i, zero rows dropped, cleaned."""
    rows = np.flatnonzero(arr.reshape(len(arr), -1).any(axis=1))
    return _cleaned(grid, kind, {int(i) + kmin: arr[i] for i in rows})


# -- structure defects -----------------------------------------------------------


def real_defect(s: FourierSeries, active: Optional[np.ndarray] = None) -> float:
    """Max deviation from f(theta) real, i.e. f_{-k} = conj(f_k)."""
    worst = 0.0
    for k in set(s.coeffs) | {-k for k in s.coeffs}:
        d = np.abs(s.coeff(-k) - np.conj(s.coeff(k)))
        if active is not None:
            d = d[active]
        if d.size:
            worst = max(worst, float(d.max()))
    return worst


def c2_pair_defect(v: FourierSeries, active: Optional[np.ndarray] = None) -> float:
    """Max deviation of component 2 from the conjugate of component 1."""
    if v.kind != C2VECTOR:
        raise KindMismatch("c2_pair_defect needs a vector series")
    worst = 0.0
    for k in set(v.coeffs) | {-k for k in v.coeffs}:
        d = np.abs(v.coeff(k)[:, 1] - np.conj(v.coeff(-k)[:, 0]))
        if active is not None:
            d = d[active]
        if d.size:
            worst = max(worst, float(d.max()))
    return worst


def su11_defect(w: FourierSeries, active: Optional[np.ndarray] = None) -> float:
    """Max deviation from the [[a, b], [conj b, conj a]] pattern."""
    if w.kind != SU11MATRIX:
        raise KindMismatch("su11_defect needs a matrix series")
    worst = 0.0
    for k in set(w.coeffs) | {-k for k in w.coeffs}:
        c = w.coeff(k)
        cr = np.conj(w.coeff(-k))
        d1 = np.abs(c[:, 1, 1] - cr[:, 0, 0])
        d2 = np.abs(c[:, 1, 0] - cr[:, 0, 1])
        if active is not None:
            d1, d2 = d1[active], d2[active]
        if d1.size:
            worst = max(worst, float(d1.max()), float(d2.max()))
    return worst


def det_minus_one(m: FourierSeries) -> FourierSeries:
    """det(m) - 1 as a scalar series (exact in the algebra)."""
    d = multiply(m.entry(0, 0), m.entry(1, 1)) - multiply(m.entry(0, 1),
                                                          m.entry(1, 0))
    return d - one(m.lambda_grid)


# -- weighted norms ----------------------------------------------------------------


@dataclass(frozen=True)
class WeightedNormContext:
    weight: WeightFunction
    r: float
    include_lambda_derivative: bool = True
    h: Optional[float] = None              # spacing override; grid coords otherwise
    active: Optional[np.ndarray] = None    # bool mask over the lambda-grid

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("width r must be nonnegative")
        if self.include_lambda_derivative and self.h is not None and self.h <= 0:
            raise ValueError("finite-difference step must be positive")

    def with_r(self, r) -> "WeightedNormContext":
        return replace(self, r=float(r))


def _coeff_O(v: np.ndarray, grid: np.ndarray, ctx: WeightedNormContext) -> float:
    """sup over active lambda of (|entry| + |d/dlambda entry|), max over entries."""
    if ctx.active is not None:
        v = v[ctx.active]
        grid = grid[ctx.active]
    if v.size == 0:
        return 0.0
    mag = np.abs(v)
    if ctx.include_lambda_derivative and len(grid) >= 2:
        if ctx.h is not None:
            dv = np.gradient(v, ctx.h, axis=0)
        else:
            dv = np.gradient(v, grid, axis=0)
        mag = mag + np.abs(dv)
    return float(mag.max())


def _modes_O(a: np.ndarray, grid: np.ndarray, ctx: WeightedNormContext) -> np.ndarray:
    """|a_k|_O of every row of a dense array a[k, lambda, ...]."""
    if ctx.active is not None:
        a = a[:, ctx.active]
        grid = grid[ctx.active]
    if a.shape[1] == 0:
        return np.zeros(len(a))
    mag = np.abs(a)
    if ctx.include_lambda_derivative and len(grid) >= 2:
        da = np.gradient(a, grid if ctx.h is None else ctx.h, axis=1)
        mag = mag + np.abs(da)
    return mag.reshape(len(a), -1).max(axis=1)


def _weight_factor(weight: WeightFunction, x: float) -> float:
    try:
        return math.exp(eval_lambda(weight, x))
    except OverflowError:
        return math.inf


def norm_r(f: FourierSeries, ctx: WeightedNormContext) -> float:
    """sum_k |f_k|_O exp(L(2 pi |k| r))."""
    if f.nlambda == 0:
        raise ValueError("empty lambda grid")
    tot = 0.0
    for k, v in f.coeffs.items():
        c = _coeff_O(v, f.lambda_grid, ctx)
        if c:
            tot += c * _weight_factor(ctx.weight, 2 * math.pi * abs(k) * ctx.r)
    return tot


def analytic_norm(f: FourierSeries, ctx: WeightedNormContext) -> float:
    """sum_k |f_k|_O exp(2 pi |k| r): the trig-polynomial analytic majorant."""
    tot = 0.0
    for k, v in f.coeffs.items():
        c = _coeff_O(v, f.lambda_grid, ctx)
        if c:
            x = 2 * math.pi * abs(k) * ctx.r
            tot += c * (math.exp(x) if x < 700 else math.inf)
    return tot


# -- exponentials -------------------------------------------------------------------


def exp_i_scalar(B: FourierSeries, l: int = 1,
                 require_real: bool = True) -> FourierSeries:
    """exp(2 pi i l B) by power series in the coefficient algebra."""
    if B.kind != SCALAR:
        raise KindMismatch("exp_i_scalar needs a scalar series")
    if require_real:
        scale = max(B.sup_bound(), 1.0)
        if real_defect(B) > 1e-12 * scale:
            raise ValueError("exp_i_scalar: series is not real-valued")
    S = B.scale(2j * math.pi * l)
    acc = one(B.lambda_grid)
    term = one(B.lambda_grid)
    for n in range(1, EXP_SERIES_MAX_TERMS + 1):
        term = multiply(term, S).scale(1.0 / n)
        acc = acc + term
        if term.sup_bound() < 1e-16 * max(1.0, acc.sup_bound()):
            return acc
    raise PowerSeriesDiverged("exp_i_scalar: term cap hit; input too large")


def exp_su11(D: FourierSeries) -> FourierSeries:
    """exp(D) for D = [[0, d], [dbar, 0]] via D^2 = (d*dbar) I:

    exp(D) = A I + B D with A = cosh-type, B = sinh-type series in d*dbar,
    so det(exp D) = A^2 - B^2 d dbar = 1 identically in the algebra.
    """
    if D.kind != SU11MATRIX:
        raise KindMismatch("exp_su11 needs a matrix series")
    dscale = max(1e-300, max((float(np.abs(v).max()) for v in D.coeffs.values()),
                             default=0.0))
    diag_mass = 0.0
    for v in D.coeffs.values():
        diag_mass = max(diag_mass, float(np.abs(v[:, 0, 0]).max()),
                        float(np.abs(v[:, 1, 1]).max()))
    if diag_mass > 1e-14 * dscale:
        raise ValueError("exp_su11: diagonal must vanish")
    b = D.entry(0, 1)
    c = D.entry(1, 0)
    u = multiply(b, c)
    grid = D.lambda_grid
    A = one(grid)
    Bs = one(grid)
    termA = one(grid)
    termB = one(grid)
    for m in range(1, EXP_SERIES_MAX_TERMS + 1):
        termA = multiply(termA, u).scale(1.0 / ((2 * m - 1) * (2 * m)))
        termB = multiply(termB, u).scale(1.0 / ((2 * m) * (2 * m + 1)))
        A = A + termA
        Bs = Bs + termB
        if (termA.sup_bound() < 1e-16 * max(1.0, A.sup_bound())
                and termB.sup_bound() < 1e-16 * max(1.0, Bs.sup_bound())):
            break
    else:
        raise PowerSeriesDiverged("exp_su11: term cap hit; input too large")
    return matrix_from_scalars(A, multiply(Bs, b), multiply(Bs, c), A)


def inverse_one_plus(h: FourierSeries, max_terms: int = EXP_SERIES_MAX_TERMS
                     ) -> FourierSeries:
    """(1 + h)^{-1} by Neumann series; needs sup bound of h below 1."""
    if h.kind != SCALAR:
        raise KindMismatch("inverse_one_plus needs a scalar series")
    if h.sup_bound() >= 0.9:
        raise PowerSeriesDiverged("inverse_one_plus: perturbation too large")
    acc = one(h.lambda_grid)
    term = one(h.lambda_grid)
    for _ in range(max_terms):
        term = multiply(term, h).scale(-1.0)
        acc = acc + term
        if term.sup_bound() < 1e-16 * max(1.0, acc.sup_bound()):
            return acc
    raise PowerSeriesDiverged("inverse_one_plus: term cap hit")


# -- jets in (v, vbar) ------------------------------------------------------------


def _compositions3(m: int):
    for a in range(m + 1):
        for b in range(m + 1 - a):
            yield a, b, m - a - b


def _multinom3(m: int, a: int, b: int, c: int) -> int:
    return math.factorial(m) // (math.factorial(a) * math.factorial(b)
                                 * math.factorial(c))


@dataclass
class PowerFourierSeries:
    """Jet sum_m f_m(theta, lambda) x^m, |m| <= d_max, m in N^2.

    Coefficients f_m are FourierSeries of a uniform kind.
    """

    d_max: int
    lambda_grid: np.ndarray
    kind: str
    terms: dict = field(default_factory=dict)  # (m1, m2) -> FourierSeries

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.terms.values())

    def term(self, m) -> FourierSeries:
        s = self.terms.get(tuple(m))
        return s if s is not None else zeros(self.lambda_grid, self.kind)

    def set_term(self, m, series: FourierSeries):
        if series.kind != self.kind:
            raise KindMismatch("jet coefficient kind mismatch")
        if sum(m) > self.d_max:
            raise ValueError("monomial degree exceeds d_max")
        if series.is_zero():
            self.terms.pop(tuple(m), None)
        else:
            self.terms[tuple(m)] = series

    def add_term(self, m, series: FourierSeries):
        self.set_term(m, self.term(m) + series)

    def copy(self) -> "PowerFourierSeries":
        return PowerFourierSeries(self.d_max, self.lambda_grid, self.kind,
                                  dict(self.terms))

    def scale(self, factor) -> "PowerFourierSeries":
        return PowerFourierSeries(
            self.d_max, self.lambda_grid, self.kind,
            {m: s.scale(factor) for m, s in self.terms.items()})

    def drop_low_degrees(self, min_degree: int = 2) -> "PowerFourierSeries":
        return PowerFourierSeries(
            self.d_max, self.lambda_grid, self.kind,
            {m: s for m, s in self.terms.items() if sum(m) >= min_degree})

    def low_degree_mass(self, active=None) -> float:
        """Coefficient mass at degrees <= 1 (should vanish for remainders)."""
        tot = 0.0
        for m, s in self.terms.items():
            if sum(m) <= 1:
                tot += s.sup_bound(active)
        return tot

    def eval_at_series(self, d1: FourierSeries, d2: FourierSeries) -> FourierSeries:
        """Value at x = (d1, d2), both scalar series, in the algebra."""
        p1 = _power_table(d1, self.d_max)
        p2 = _power_table(d2, self.d_max)
        acc = zeros(self.lambda_grid, self.kind)
        for (m1, m2), f in sorted(self.terms.items()):
            acc = acc + multiply(f, multiply(p1[m1], p2[m2]))
        return acc

    def eval_at_points(self, x: np.ndarray, thetas) -> np.ndarray:
        """Value at pointwise arguments x of shape (T, L, 2); returns
        (T, L) + comp shape."""
        acc = None
        for (m1, m2), f in sorted(self.terms.items()):
            vals = f.eval_theta(thetas)
            mono = (x[..., 0] ** m1) * (x[..., 1] ** m2)
            contrib = vals * mono.reshape(mono.shape + (1,) * (vals.ndim - 2))
            acc = contrib if acc is None else acc + contrib
        if acc is None:
            shape = (len(np.atleast_1d(thetas)), len(self.lambda_grid)) + \
                _COMP_SHAPE[self.kind]
            acc = np.zeros(shape, complex)
        return acc

    def derivative_terms(self, axis: int) -> "PowerFourierSeries":
        """Jet of the partial derivative along x_axis."""
        out = PowerFourierSeries(self.d_max, self.lambda_grid, self.kind, {})
        for (m1, m2), f in self.terms.items():
            m = (m1, m2)
            if m[axis] == 0:
                continue
            new = (m1 - 1, m2) if axis == 0 else (m1, m2 - 1)
            out.add_term(new, f.scale(float(m[axis])))
        return out

    def compose_affine(self, e11, e12, e21, e22, d1, d2) -> "PowerFourierSeries":
        """Substitute x = E y + d, all six entries scalar series.

        Exact: an affine substitution cannot raise the degree.
        """
        dm = self.d_max
        tabs = {name: _power_table(s, dm) for name, s in
                (("e11", e11), ("e12", e12), ("e21", e21), ("e22", e22),
                 ("d1", d1), ("d2", d2))}
        out = PowerFourierSeries(dm, self.lambda_grid, self.kind, {})
        for (m1, m2), f in sorted(self.terms.items()):
            for a1, b1, c1 in _compositions3(m1):
                w1 = _multinom3(m1, a1, b1, c1)
                s1 = _chain_mul([tabs["e11"][a1], tabs["e12"][b1],
                                 tabs["d1"][c1]])
                for a2, b2, c2 in _compositions3(m2):
                    w2 = _multinom3(m2, a2, b2, c2)
                    s2 = _chain_mul([tabs["e21"][a2], tabs["e22"][b2],
                                     tabs["d2"][c2]])
                    scalar = multiply(s1, s2).scale(float(w1 * w2))
                    if scalar.is_zero():
                        continue
                    out.add_term((a1 + a2, b1 + b2), multiply(f, scalar))
        return out

    def matrix_multiply_left(self, m: FourierSeries) -> "PowerFourierSeries":
        """m(theta, lambda) . f_m for every coefficient (vector-kind jets)."""
        return PowerFourierSeries(
            self.d_max, self.lambda_grid, self.kind,
            {mm: multiply(m, s) for mm, s in self.terms.items()})

    def __add__(self, other: "PowerFourierSeries") -> "PowerFourierSeries":
        out = self.copy()
        for m, s in other.terms.items():
            out.add_term(m, s)
        return out

    def conj_swap_defect(self, thetas=None, active=None) -> float:
        """Deviation from: swapping conjugate arguments conjugate-swaps the
        output, coefficientwise: f2_m = conj-series of f1 at swapped m."""
        if self.kind != C2VECTOR:
            raise KindMismatch("conj_swap_defect needs vector coefficients")
        worst = 0.0
        keys = set(self.terms) | {(m2, m1) for (m1, m2) in self.terms}
        for (m1, m2) in keys:
            f = self.term((m1, m2))
            g = self.term((m2, m1))
            d = g.component(0).conj() - f.component(1)
            worst = max(worst, d.sup_bound(active))
        return worst


def _power_table(s: FourierSeries, n: int) -> list:
    tab = [one(s.lambda_grid), s]
    for _ in range(2, n + 1):
        tab.append(multiply(tab[-1], s))
    return tab[: n + 1]


def _chain_mul(factors: Iterable[FourierSeries]) -> FourierSeries:
    acc = None
    for f in factors:
        acc = f if acc is None else multiply(acc, f)
    return acc


def norm_rs(jet: PowerFourierSeries, ctx: WeightedNormContext, s: float) -> float:
    """sum_m ||f_m||_r s^{|m|}: the boundary value of the jet majorant."""
    if s <= 0:
        raise ValueError("radius s must be positive")
    tot = 0.0
    for m, f in jet.terms.items():
        tot += norm_r(f, ctx) * s ** (m[0] + m[1])
    return tot


def hessian_norm_bound(jet: PowerFourierSeries, ctx: WeightedNormContext,
                       s: float) -> float:
    """Majorant for the second x-derivatives: sum_m |m|(|m|-1)||f_m|| s^{|m|-2}."""
    tot = 0.0
    for m, f in jet.terms.items():
        d = m[0] + m[1]
        if d >= 2:
            tot += d * (d - 1) * norm_r(f, ctx) * s ** (d - 2)
    return tot


# -- coefficient dump format ---------------------------------------------------------


def write_coeff_dump(path, s: FourierSeries):
    """Bit-exact scalar dump: one line `lambda_index k re im` per coefficient."""
    if s.kind != SCALAR:
        raise KindMismatch("dump format is per scalar component")
    with open(path, "w") as fh:
        for k in sorted(s.coeffs):
            v = s.coeffs[k]
            for li in range(s.nlambda):
                fh.write("%d %d %r %r\n" % (li, k, float(v[li].real),
                                            float(v[li].imag)))


def read_coeff_dump(path, lambda_grid) -> FourierSeries:
    grid = np.asarray(lambda_grid, float)
    coeffs: dict = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            li, k = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
            if k not in coeffs:
                coeffs[k] = np.zeros(len(grid), complex)
            coeffs[k][li] = re + 1j * im
    return FourierSeries(grid, SCALAR, coeffs)
