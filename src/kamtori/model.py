"""The concrete skew-product map and its conjugation into matrix coordinates.

F(x, theta, lambda) = L(lambda) x + eps N(x, theta, lambda) with L a rigid
rotation by 2 pi lambda.  The Taylor split at x = 0 produces the constant,
linear and remainder data; the constant change of variables K = M^{-1} X
diagonalizes L and puts the linear part into the conjugate-pair matrix
class.  A torus arrives in those coordinates as the c2vector series X that
the KAM iteration composes (kam.KamState.torus); K = M^{-1} X, which
torus_K reads from samples of X1.  Invariance of a torus is measured
directly: the residual R = F(K) - K(. + alpha) is formed in the coefficient
algebra, exactly since the jet of F is polynomial in x, and its sup per
parameter value is taken over the 4096-point grid theta_j = j/4096,
sampled in fixed-size blocks of j.  Every pointwise evaluation here
(eval_F, the samples of R and X1) is on such a grid: row j of its input or
output is theta_j = j/n.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier as fr
from .cfrac import ContinuedFraction
from .fourier import FourierSeries, PowerFourierSeries
from .reporting import CheckRow

SQRT2 = math.sqrt(2.0)

# K = M^{-1} X with M diagonalizing the rotation
M_MAT = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / SQRT2
M_INV = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / SQRT2

PRESETS = ("constant_forcing", "generating", "nonsymplectic")

@dataclass
class SkewMapSpec:
    """eps, the x-jet of N (2-vector coefficients) and the rotation number."""

    eps: float
    N: PowerFourierSeries          # coefficients: 2-vector FourierSeries
    cf: ContinuedFraction
    lambda_grid: np.ndarray
    s_domain: float = 0.5
    preset: str = ""

    def restrict(self, index, grid: np.ndarray) -> "SkewMapSpec":
        """The map at the lambda-grid points index, on grid."""
        return dataclasses.replace(self, N=self.N.restrict(index, grid),
                                   lambda_grid=grid)

    def rotation(self) -> np.ndarray:
        """L(lambda): (L, 2, 2) rotation matrices."""
        ang = 2 * np.pi * self.lambda_grid
        c, s = np.cos(ang), np.sin(ang)
        out = np.empty((len(self.lambda_grid), 2, 2))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
        return out

    def eval_F(self, x: np.ndarray) -> np.ndarray:
        """F at pointwise x of shape (T, L, 2), x[j] at theta_j = j/T;
        complex output, real for real x by construction of the presets."""
        L = self.rotation()
        lin = np.einsum("lij,tlj->tli", L, x)
        pert = self.N.eval_at_points(x)
        return lin + self.eps * pert


def torus_K(x1: np.ndarray) -> np.ndarray:
    """K = M^{-1} X = sqrt2 (Re X1, Im X1) from samples x1 of the torus's
    first component X1 (any shape; K adds a last axis of length 2)."""
    return np.stack([SQRT2 * x1.real, SQRT2 * x1.imag], axis=-1)


# -- presets --------------------------------------------------------------------


def _cos_ser(grid, k=1, amp=1.0):
    return fr.from_modes(grid, fr.SCALAR, {k: amp / 2, -k: amp / 2})


def _sin_ser(grid, k=1, amp=1.0):
    return fr.from_modes(grid, fr.SCALAR, {k: -0.5j * amp, -k: 0.5j * amp})


def build_preset(name: str, eps: float, cf: ContinuedFraction, lambda_grid,
                 d_max: int = 6, s_domain: float = 0.5) -> SkewMapSpec:
    """Built-in perturbations; each is polynomial in x so the jet is exact."""
    grid = np.asarray(lambda_grid, float)
    jet = PowerFourierSeries(d_max, grid, fr.C2VECTOR, {})
    if name == "constant_forcing":
        jet.set_term((0, 0), fr.vector_from_scalars(_cos_ser(grid),
                                                    _sin_ser(grid)))
    elif name == "generating":
        # rotation composed with the exact-symplectic shear
        # (x, y) -> (x, y + eps (c0 + c1 x + c2 x^2)); N = L . (0, c_j)
        c0 = _cos_ser(grid) + _sin_ser(grid, k=2, amp=0.5)
        c1 = _cos_ser(grid, amp=0.5)
        c2 = _cos_ser(grid, amp=0.25) + _sin_ser(grid, amp=0.25)
        ang = 2 * np.pi * grid
        for m, c in (((0, 0), c0), ((1, 0), c1), ((2, 0), c2)):
            jet.set_term(m, fr.vector_from_scalars(
                c.scale(-np.sin(ang)), c.scale(np.cos(ang))))
    elif name == "nonsymplectic":
        jet.set_term((1, 0), fr.vector_from_scalars(_cos_ser(grid),
                                                    fr.zeros(grid)))
    else:
        raise ValueError("unknown preset %r (have %s)" % (name, PRESETS))
    return SkewMapSpec(eps=eps, N=jet, cf=cf, lambda_grid=grid,
                       s_domain=s_domain, preset=name)


# -- conjugation into matrix coordinates -------------------------------------------


@dataclass
class ConjugatedSystem:
    U: FourierSeries               # c2vector
    W: FourierSeries               # su11matrix
    R: PowerFourierSeries          # c2vector coefficients, degrees >= 2
    rows: list = field(default_factory=list)


def conjugate_to_su11(spec: SkewMapSpec) -> ConjugatedSystem:
    """Taylor split V + S x + P at x = 0, then U = MV, W = M S M^{-1},
    R(X) = M P(M^{-1} X) as a jet with vanishing degree-<=1 part."""
    grid = spec.lambda_grid
    eps = spec.eps
    v_term = spec.N.term((0, 0))
    V1, V2 = v_term.component(0).scale(eps), v_term.component(1).scale(eps)
    U = fr.vector_from_scalars(
        (V1 + V2.scale(1j)).scale(1 / SQRT2),
        (V1 - V2.scale(1j)).scale(1 / SQRT2))

    sx = spec.N.term((1, 0))
    sy = spec.N.term((0, 1))
    S = fr.matrix_from_scalars(sx.component(0).scale(eps),
                               sy.component(0).scale(eps),
                               sx.component(1).scale(eps),
                               sy.component(1).scale(eps))
    Mm = fr.constant(grid, M_MAT, fr.SU11MATRIX)
    Mi = fr.constant(grid, M_INV, fr.SU11MATRIX)
    W = fr.multiply(fr.multiply(Mm, S), Mi)

    # remainder jet: degrees >= 2 of eps N, argument x = M^{-1} X
    P = PowerFourierSeries(spec.N.d_max, grid, fr.C2VECTOR, {})
    for m, f in spec.N.terms.items():
        if sum(m) >= 2:
            P.set_term(m, f.scale(eps))
    e11 = fr.constant(grid, M_INV[0, 0], fr.SCALAR)
    e12 = fr.constant(grid, M_INV[0, 1], fr.SCALAR)
    e21 = fr.constant(grid, M_INV[1, 0], fr.SCALAR)
    e22 = fr.constant(grid, M_INV[1, 1], fr.SCALAR)
    zero = fr.zeros(grid, fr.SCALAR)
    R = P.compose_affine(e11, e12, e21, e22, zero, zero)
    R = R.matrix_multiply_left(Mm).drop_low_degrees(2)

    swap = R.conj_swap_defect()
    scale = max([1.0] + [f.sup_bound() for f in R.terms.values()])
    low = R.low_degree_mass()
    rows = [CheckRow("R jet degree<=1 vanishes", 0.0, low, low == 0.0),
            CheckRow("R conjugate-swap symmetry", 1e-12 * scale, swap,
                     swap <= 1e-12 * scale)]
    return ConjugatedSystem(U=U, W=W, R=R, rows=rows)


# -- area preservation ----------------------------------------------------------------


def check_area(spec: SkewMapSpec, n_theta: int = 24, n_x: int = 3,
               step: float = 1e-6) -> CheckRow:
    """Max |det dF/dx - 1| over an (x, theta, lambda) grid by central
    finite differences."""
    L = len(spec.lambda_grid)
    xs = np.linspace(-0.3 * spec.s_domain, 0.3 * spec.s_domain, n_x)
    worst = 0.0
    for x1 in xs:
        for x2 in xs:
            base = np.broadcast_to(np.array([x1, x2]),
                                   (n_theta, L, 2)).astype(complex)
            jac = np.empty((n_theta, L, 2, 2), complex)
            for col in range(2):
                dx = np.zeros(2)
                dx[col] = step
                fp = spec.eval_F(base + dx)
                fm = spec.eval_F(base - dx)
                jac[..., col] = (fp - fm) / (2 * step)
            det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
            worst = max(worst, float(np.abs(det - 1.0).max()))
    return CheckRow("area |det dF - 1| on grid", 1e-8, worst, worst <= 1e-8,
                    spec.preset)


# -- invariance residual -----------------------------------------------------------------


def residual(spec: SkewMapSpec, X: FourierSeries,
             n_theta: int = 4096) -> tuple:
    """Per-lambda sup of |F(K(theta)) - K(theta + alpha)| for the torus X
    (a c2vector series in matrix coordinates, on the grid of spec); the
    headline observable.  Returns (per-lambda array, rows); the
    analyticity-ball row takes sup |K| over every lambda.

    R = F(K) - K(. + alpha) is one vector series, formed in the algebra
    from K1 = (X1 + conj X1)/sqrt2 and K2 = (X1 - conj X1)/(sqrt2 i), the K
    that torus_K gives from samples of X1: L(lambda) K by per-lambda scaling
    and eps N(K) by eval_at_series, exact because the jet is polynomial in
    x.  R and X1 are then sampled on n_theta points, fr.block_rows(2 L) at
    a time, so no array spans the whole theta-grid.
    """
    X1 = X.component(0)
    K1 = (X1 + X1.conj()).scale(1 / SQRT2)
    K2 = (X1 - X1.conj()).scale(-1j / SQRT2)
    L = spec.rotation()
    FK = fr.vector_from_scalars(K1.scale(L[:, 0, 0]) + K2.scale(L[:, 0, 1]),
                                K1.scale(L[:, 1, 0]) + K2.scale(L[:, 1, 1]))
    FK = FK + spec.N.eval_at_series(K1, K2).scale(spec.eps)
    R = FK - fr.vector_from_scalars(K1, K2).shift(spec.cf.phase)
    per_lambda = np.zeros(len(spec.lambda_grid))
    kmax = 0.0
    step = fr.block_rows(2 * len(spec.lambda_grid))
    for start in range(0, n_theta, step):
        stop = min(start + step, n_theta)
        np.maximum(per_lambda,
                   _norm2(R.sample(n_theta, start, stop)).max(axis=0),
                   out=per_lambda)
        kvals = _norm2(torus_K(X1.sample(n_theta, start, stop)))
        kmax = max(kmax, float(kvals.max(initial=0.0)))
    rows = [CheckRow("torus stays in analyticity ball |K| < s",
                     spec.s_domain, kmax, kmax < spec.s_domain)]
    return per_lambda, rows


def _norm2(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of length 2.  Written out because
    numpy reduces a length-2 axis slowly; the same bits as
    sqrt((|v|**2).sum(axis=-1))."""
    return np.sqrt(np.abs(v[..., 0]) ** 2 + np.abs(v[..., 1]) ** 2)
