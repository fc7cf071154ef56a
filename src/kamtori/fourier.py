"""Finite Fourier series over the circle with tabulated parameter dependence.

A series is two arrays: `modes`, the sorted integer modes it holds, and
`data`, one C-contiguous complex array of shape (len(modes), L) + comp
shape whose row i is the coefficient of mode modes[i] on an ascending
lambda-grid of L points.  Every operation works on these two arrays;
`coeffs` is a read-only {k: row} view built on access.  Three value kinds
share the store: scalars, 2-vectors (conjugate pairs (v, vbar)) and 2x2
matrices with the [[a, b], [conj b, conj a]] block pattern.  The kind is a
shape tag; the structural claims are checked where the scheme requires
them, not enforced by construction.

Weighted norms sum |f_k|_O * exp(L(2 pi |k| r)) where |.|_O is the sup over
the lambda-grid of value plus central-difference lambda-derivative, reduced
over vector/matrix entries by maximum.  A KAM level holds only its
parameter points (restrict), so no value at an excluded lambda enters a
norm, a bound or the drop rule.  Norms
and sup bounds sum over the modes in ascending order.  Every per-mode
maximum (norms, sup bounds, the drop rule) is reduced one block of mode
rows at a time, BLOCK_VALUES complex values per block (block_rows), so no
temporary grows with modes times L; theta-grid checks elsewhere sample in
blocks of the same size.

A series is sampled only on uniform grids theta_j = j/n (`sample`), with
the argument j k reduced mod n in integers, so no rounded 2 pi theta k
enters.  Two kernels, chosen by counted work as products are: a table
kernel, one matrix product of the cached roots W_n[j k mod n] with the
coefficient rows, for a block of the grid or few modes over many lambda
columns; and an FFT kernel, the modes folded mod n and one inverse FFT,
for the whole grid with many modes over few columns.

Products are direct convolutions, never FFTs: an FFT product carries an
error of about eps ||a|| ||b|| at every mode, which the weighted norms
amplify on the small high modes, while a direct sum keeps each output
coefficient within a few ulps of its own majorant sum_j |a_j| |b_{k-j}|.
The same holds for the homological solver's Toeplitz products, which sum
over the coefficient's diagonals.  Sampling may use an FFT because its
error is absolute, about log2(n) eps sum_k |f_k| per value, and no
weighted norm reads a sample.

After every algebra operation the rows below DROP_REL times the largest
coefficient and the rows that are exactly zero are removed, which keeps
supports finite across the iteration.  A result holding NaN or inf is
refused with ValueError, and so is a product's factor holding them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

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


def _union(*modes: np.ndarray) -> np.ndarray:
    """Sorted union of mode vectors; np.union1d would import numpy.ma."""
    return np.array(sorted(set().union(*(m.tolist() for m in modes))),
                    np.int64)


def _same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two lambda-grids are equal; one grid object is equal to
    itself without a comparison."""
    return a is b or (len(a) == len(b) and np.array_equal(a, b))


def _row_shape(grid: np.ndarray, kind: str) -> tuple:
    if kind not in _COMP_SHAPE:
        raise KindMismatch("unknown kind %r" % (kind,))
    return (len(grid),) + _COMP_SHAPE[kind]


@dataclass(frozen=True, eq=False)
class FourierSeries:
    lambda_grid: np.ndarray
    kind: str
    modes: np.ndarray   # sorted distinct int64 modes
    data: np.ndarray    # complex (len(modes), L) + comp shape; row i: modes[i]

    def __post_init__(self):
        if self.kind not in _COMP_SHAPE:
            raise KindMismatch("unknown kind %r" % (self.kind,))

    # -- basic queries --------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """Read-only {k: coefficient row} view of the store."""
        rows = self.data.view()
        rows.flags.writeable = False
        return dict(zip(self.modes.tolist(), rows))

    @property
    def nlambda(self) -> int:
        return len(self.lambda_grid)

    @property
    def support(self) -> list:
        return self.modes.tolist()

    @property
    def max_mode(self) -> int:
        return int(np.abs(self.modes).max()) if len(self.modes) else 0

    def is_zero(self) -> bool:
        return len(self.modes) == 0

    def coeff(self, k: int) -> np.ndarray:
        i = int(np.searchsorted(self.modes, k))
        if i < len(self.modes) and self.modes[i] == k:
            return self.data[i].copy()
        return np.zeros(self.data.shape[1:], complex)

    def _rows(self, keep: np.ndarray) -> "FourierSeries":
        return FourierSeries(self.lambda_grid, self.kind, self.modes[keep],
                             self.data[keep])

    def restrict(self, index, grid: np.ndarray) -> "FourierSeries":
        """The series at the lambda-grid points index, on grid (one grid
        object per level keeps _same_grid at its identity test)."""
        return _cleaned(grid, self.kind, self.modes, self.data[:, index])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._compat(other)
        if np.array_equal(self.modes, other.modes):
            return _cleaned(self.lambda_grid, self.kind, self.modes,
                            self.data + other.data)
        modes = _union(self.modes, other.modes)
        data = np.zeros((len(modes),) + self.data.shape[1:], complex)
        mine = np.searchsorted(modes, self.modes)
        data[mine] = self.data
        held = np.zeros(len(modes), bool)
        held[mine] = True
        # a row only one side holds is copied, not added to 0, which would
        # turn its -0.0 parts into +0.0
        at = np.searchsorted(modes, other.modes)
        both = held[at]
        data[at[both]] += other.data[both]
        data[at[~both]] = other.data[~both]
        return _cleaned(self.lambda_grid, self.kind, modes, data)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + other.scale(-1.0)

    def __mul__(self, other: "FourierSeries") -> "FourierSeries":
        return multiply(self, other)

    def scale(self, factor) -> "FourierSeries":
        """Multiply by a constant or a per-lambda array."""
        f = np.asarray(factor)
        if f.ndim == 1:
            f = f.reshape((self.nlambda,) + (1,) * len(_COMP_SHAPE[self.kind]))
        return _cleaned(self.lambda_grid, self.kind, self.modes, self.data * f)

    def shift(self, phase: Callable[[int], complex]) -> "FourierSeries":
        """theta -> theta + alpha on coefficients: f_k *= exp(2 pi i k alpha)."""
        p = np.array([phase(k) for k in self.modes.tolist()], complex)
        p = p.reshape((-1,) + (1,) * (self.data.ndim - 1))
        return _cleaned(self.lambda_grid, self.kind, self.modes, self.data * p)

    def conj(self) -> "FourierSeries":
        """Series of theta -> conj(f(theta)) for real theta."""
        return FourierSeries(self.lambda_grid, self.kind, -self.modes[::-1],
                             np.conj(self.data[::-1]))

    def truncate(self, K: int) -> "FourierSeries":
        """Keep modes |k| < K."""
        if K < 1:
            raise ValueError("K must be at least 1")
        return self._rows(np.abs(self.modes) < K)

    def project_tail(self, K: int) -> "FourierSeries":
        """Keep modes |k| >= K; truncate + project_tail partitions exactly."""
        if K < 1:
            raise ValueError("K must be at least 1")
        return self._rows(np.abs(self.modes) >= K)

    def average(self) -> np.ndarray:
        """f_0 per lambda-grid point."""
        return self.coeff(0)

    def component(self, i: int) -> "FourierSeries":
        if self.kind != C2VECTOR:
            raise KindMismatch("component() needs a vector series")
        return _cleaned(self.lambda_grid, SCALAR, self.modes, self.data[:, :, i])

    def entry(self, i: int, j: int) -> "FourierSeries":
        if self.kind != SU11MATRIX:
            raise KindMismatch("entry() needs a matrix series")
        return _cleaned(self.lambda_grid, SCALAR, self.modes, self.data[:, :, i, j])

    def sample(self, n: int, start: int = 0,
               stop: Optional[int] = None) -> np.ndarray:
        """Values at theta_j = j/n for start <= j < stop (stop defaults to
        n): shape (stop - start, L) + comp shape.  The argument j k is
        reduced mod n in integers, so each value is an exact-argument sum
        of the coefficients times n-th roots of unity; the whole grid may
        take the FFT kernel, any other range takes the table kernel."""
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise ValueError("sample: need 0 <= start <= stop <= n")
        shape = (stop - start,) + self.data.shape[1:]
        rows = self.data.reshape(len(self.modes), math.prod(self.data.shape[1:]))
        if rows.size == 0:
            return np.zeros(shape, complex)
        if stop - start == n and _fft_wins(len(self.modes), n, rows.shape[1]):
            vals = _sample_fft(self.modes, rows, n)
        else:
            vals = _sample_table(self.modes, rows, n, start, stop)
        return vals.reshape(shape)

    def sup_bound(self) -> float:
        """sum_k max|f_k|: an upper bound for the sup over theta."""
        return sum(_row_max(self.data).tolist(), 0.0)

    def _compat(self, other: "FourierSeries"):
        if self.kind != other.kind:
            raise KindMismatch("kind mismatch: %s vs %s" % (self.kind, other.kind))
        if not _same_grid(self.lambda_grid, other.lambda_grid):
            raise ValueError("lambda grids differ")


# -- constructors --------------------------------------------------------------


def zeros(lambda_grid, kind: str = SCALAR) -> FourierSeries:
    grid = np.asarray(lambda_grid, float)
    return FourierSeries(grid, kind, np.zeros(0, np.int64),
                         np.zeros((0,) + _row_shape(grid, kind), complex))


def constant(lambda_grid, value, kind: str = SCALAR) -> FourierSeries:
    """Mode-0 series; value is a scalar, a per-lambda array, or a full array."""
    grid = np.asarray(lambda_grid, float)
    shape = _row_shape(grid, kind)
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
        return zeros(grid, kind)
    return FourierSeries(grid, kind, np.zeros(1, np.int64), c[None])


def one(lambda_grid) -> FourierSeries:
    return constant(lambda_grid, 1.0, SCALAR)


def eye(lambda_grid) -> FourierSeries:
    return constant(lambda_grid, np.eye(2), SU11MATRIX)


def from_modes(lambda_grid, kind: str, modes: dict) -> FourierSeries:
    """modes: k -> scalar / per-lambda array / full coefficient array."""
    grid = np.asarray(lambda_grid, float)
    shape = _row_shape(grid, kind)
    ks = sorted(modes, key=int)
    data = np.zeros((len(ks),) + shape, complex)
    for row, k in zip(data, ks):
        arr = np.asarray(modes[k], complex)
        if arr.shape not in (shape, _COMP_SHAPE[kind]) and arr.ndim != 0:
            raise ValueError("coefficient shape %s incompatible" % (arr.shape,))
        row[...] = arr
    return _cleaned(grid, kind, np.array(ks, np.int64), data)


def _assemble(kind: str, parts) -> FourierSeries:
    """A vector or matrix series from (entry index, scalar series) pairs;
    entries no part names are zero."""
    grid = parts[0][1].lambda_grid
    modes = _union(*(s.modes for _, s in parts))
    data = np.zeros((len(modes),) + _row_shape(grid, kind), complex)
    for idx, s in parts:
        data[(np.searchsorted(modes, s.modes), slice(None)) + idx] = s.data
    return _cleaned(grid, kind, modes, data)


def vector_from_scalars(v0: FourierSeries, v1: FourierSeries) -> FourierSeries:
    v0._compat(v1)
    return _assemble(C2VECTOR, [((0,), v0), ((1,), v1)])


def matrix_from_scalars(a: FourierSeries, b: FourierSeries,
                        c: FourierSeries, d: FourierSeries) -> FourierSeries:
    for s in (b, c, d):
        a._compat(s)
    return _assemble(SU11MATRIX, [((0, 0), a), ((0, 1), b), ((1, 0), c),
                                  ((1, 1), d)])


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


# -- blocked row reductions -------------------------------------------------------

# complex values in one block of a per-mode reduction or a theta-grid check:
# its temporaries stay near BLOCK_VALUES * 16 bytes (0.25 MiB) whatever the
# number of modes, lambda points or theta points
BLOCK_VALUES = 1 << 14


def block_rows(row_values: int) -> int:
    """Rows of row_values complex values each that fill one block."""
    return max(1, BLOCK_VALUES // max(row_values, 1))


def _row_max(a: np.ndarray, grid: Optional[np.ndarray] = None) -> np.ndarray:
    """Per row of a[k, lambda, ...]: the max over lambda and the entries of
    |a_k|, plus |d/dlambda a_k| by np.gradient on grid when a grid of at
    least two points is given: |a_k|_O.  Reduced one block of rows at a
    time."""
    if len(a) == 0:
        return np.zeros(0)
    width = a.size // len(a)
    stencil = None if grid is None \
        else _stencil(np.asarray(grid, float).tobytes())
    step = block_rows(width)
    if step >= len(a):
        return _block_max(a, stencil)
    return np.concatenate([_block_max(a[lo:lo + step], stencil)
                           for lo in range(0, len(a), step)])


def _block_max(blk: np.ndarray, stencil: Optional[tuple]) -> np.ndarray:
    mag = np.abs(blk)
    if stencil is not None:
        mag += np.abs(_gradient(blk, stencil))
    return mag.reshape(len(blk), -1).max(axis=1)


@functools.lru_cache(maxsize=64)
def _stencil(grid: bytes) -> Optional[tuple]:
    """np.gradient's spacing on the float64 grid of these bytes, None below
    two points, cached per grid: (a, b, c, dx_0, dx_n) as np.gradient
    computes them for a 1-d spacing, b None on a uniform grid, where a is
    2 dx; read-only."""
    pts = np.frombuffer(grid)
    if len(pts) < 2:
        return None
    dx = np.diff(pts)
    if (dx == dx[0]).all():
        return 2. * dx[0], None, None, dx[0], dx[0]
    dx1, dx2 = dx[0:-1], dx[1:]
    a = -(dx2) / (dx1 * (dx1 + dx2))
    b = (dx2 - dx1) / (dx1 * dx2)
    c = dx1 / (dx2 * (dx1 + dx2))
    for arr in (a, b, c):
        arr.flags.writeable = False
    return a, b, c, dx[0], dx[-1]


def _gradient(f: np.ndarray, stencil: tuple) -> np.ndarray:
    """np.gradient(f, pts, axis=1) for the points whose _stencil is given,
    by np.gradient's own expressions (edge_order 1), so bit for bit."""
    a, b, c, dx_0, dx_n = stencil
    out = np.empty_like(f)
    mid = out[:, 1:-1]
    if b is None:
        np.subtract(f[:, 2:], f[:, :-2], out=mid)
        mid /= a
    else:
        # a f[:-2] + b f[1:-1] + c f[2:], summed left to right in place
        shape = (1, -1) + (1,) * (f.ndim - 2)
        np.multiply(a.reshape(shape), f[:, :-2], out=mid)
        mid += b.reshape(shape) * f[:, 1:-1]
        mid += c.reshape(shape) * f[:, 2:]
    out[:, 0] = (f[:, 1] - f[:, 0]) / dx_0
    out[:, -1] = (f[:, -1] - f[:, -2]) / dx_n
    return out


# -- the coefficient drop rule --------------------------------------------------


def _cleaned(grid, kind, modes: np.ndarray, data: np.ndarray) -> FourierSeries:
    """The series without its zero rows and its rows below the drop rule;
    a row holding NaN or inf raises ValueError."""
    grid = np.asarray(grid, float)
    if data.size == 0:
        return zeros(grid, kind)
    rowmax = _row_max(data)
    top = rowmax.max()
    if not np.isfinite(top):
        raise ValueError("series coefficients hold NaN or inf")
    keep = (rowmax >= DROP_REL * top) & (rowmax > 0)
    if keep.all() and data.flags.c_contiguous:
        return FourierSeries(grid, kind, modes, data)
    return FourierSeries(grid, kind, modes[keep], data[keep])


# -- products -------------------------------------------------------------------

# (left kind, right kind) -> (product kind, block product, multiply-adds per
# lambda of one block row): the block product multiplies one left
# coefficient by the rows of the right factor, or the rows of the left
# factor by one right coefficient, by broadcasting over the leading axes;
# 2x2 matrix products are written out over the inner index
_MUL_RULES = {
    (SCALAR, SCALAR): (SCALAR, lambda x, y: x * y, 1),
    (SCALAR, C2VECTOR): (C2VECTOR, lambda x, y: x[..., None] * y, 2),
    (C2VECTOR, SCALAR): (C2VECTOR, lambda x, y: x * y[..., None], 2),
    (SCALAR, SU11MATRIX): (SU11MATRIX, lambda x, y: x[..., None, None] * y, 4),
    (SU11MATRIX, SCALAR): (SU11MATRIX, lambda x, y: x * y[..., None, None], 4),
    (SU11MATRIX, C2VECTOR): (C2VECTOR, lambda x, y: (
        x[..., 0] * y[..., :1] + x[..., 1] * y[..., 1:]), 4),
    (SU11MATRIX, SU11MATRIX): (SU11MATRIX, lambda x, y: (
        x[..., :1] * y[..., None, 0, :] + x[..., 1:] * y[..., None, 1, :]), 8),
}

# The cost of each product kernel in units of one complex multiply-add of a
# slice add (see CHANGES.md for the measurement): a slice add of n block rows
# costs n times their multiply-adds plus _SLICE_CALL, and zero-filling a
# span one unit per row and lambda; np.convolve of two zero-filled spans
# costs _CONV_MAC per multiply-add, _CONV_OUT per output term and
# _CONV_CALL per call, one call per lambda.
_SLICE_CALL = 1200.0
_CONV_MAC = 0.25
_CONV_OUT = 9.0
_CONV_CALL = 1100.0


def _span(s: FourierSeries) -> int:
    return int(s.modes[-1] - s.modes[0]) + 1


def _plan(a: FourierSeries, b: FourierSeries, macs: int) -> str:
    """The kernel with the least work for a*b, whose block rows take `macs`
    multiply-adds per lambda: "convolve" (scalar products only), or the
    factor whose modes the slice adds loop over, "a" or "b"; the other
    factor is zero-filled over its span."""
    na, nb, sa, sb = len(a.modes), len(b.modes), _span(a), _span(b)
    L = a.nlambda
    cost = {"a": na * (sb * L * macs + _SLICE_CALL) + (sb > nb) * sb * L,
            "b": nb * (sa * L * macs + _SLICE_CALL) + (sa > na) * sa * L}
    if a.kind == SCALAR and b.kind == SCALAR:
        cost["convolve"] = L * (_CONV_MAC * sa * sb + _CONV_OUT * (sa + sb - 1)
                                + _CONV_CALL)
    return min(cost, key=cost.get)


def _span_rows(s: FourierSeries) -> np.ndarray:
    """The rows of s zero-filled over its span modes[0] .. modes[-1]."""
    if _span(s) == len(s.modes):
        return s.data
    rows = np.zeros((_span(s),) + s.data.shape[1:], complex)
    rows[s.modes - s.modes[0]] = s.data
    return rows


def multiply(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Coefficient convolution with kind dispatch (left factor acts).

    Direct convolution, so each output coefficient carries an error of a
    few ulps of its own majorant sum_j |a_j| |b_{k-j}|.  Large scalar
    products take one np.convolve per lambda over the zero-filled spans;
    all others add one block product per mode of one factor into a
    contiguous slice of the output, over the other factor's zero-filled
    span.  _plan picks the kernel with the least work.  A factor holding
    NaN or inf is refused with ValueError."""
    rule = _MUL_RULES.get((a.kind, b.kind))
    if rule is None:
        raise KindMismatch("cannot multiply %s by %s" % (a.kind, b.kind))
    out_kind, block, macs = rule
    if not _same_grid(a.lambda_grid, b.lambda_grid):
        raise ValueError("lambda grids differ")
    if not (np.isfinite(a.data).all() and np.isfinite(b.data).all()):
        raise ValueError("multiply: a factor holds NaN or inf")
    if a.is_zero() or b.is_zero():
        return zeros(a.lambda_grid, out_kind)
    omin = int(a.modes[0] + b.modes[0])
    nout = int(a.modes[-1] + b.modes[-1]) - omin + 1
    plan = _plan(a, b, macs)
    if plan == "convolve":
        out = np.empty((a.nlambda, nout), complex)
        for row, x, y in zip(out, _span_rows(a).T, _span_rows(b).T):
            row[:] = np.convolve(x, y)
        out = out.T
    else:
        out = np.zeros((nout,) + _row_shape(a.lambda_grid, out_kind), complex)
        loop, other = (a, b) if plan == "a" else (b, a)
        rows, n = _span_rows(other), _span(other)
        for k, v in zip((loop.modes - loop.modes[0]).tolist(), loop.data):
            out[k:k + n] += block(v, rows) if plan == "a" else block(rows, v)
    return _cleaned(a.lambda_grid, out_kind, np.arange(omin, omin + nout), out)


# -- theta sampling ---------------------------------------------------------------

# The cost of the two sampling kernels per theta-point, in units of one
# complex multiply-add of the table kernel's matrix product (see CHANGES.md
# for the measurement): the table kernel gathers m roots at _TABLE_GATHER
# each and multiplies them into the cols coefficient columns; the FFT
# kernel costs _FFT_POINT per column and per factor of log2 n.
_TABLE_GATHER = 43.0
_FFT_POINT = 5.5


def _fft_wins(m: int, n: int, cols: int) -> bool:
    """Whether one length-n FFT per column costs less than the table
    kernel for m modes on the whole n-grid."""
    return m * (cols + _TABLE_GATHER) > _FFT_POINT * math.log2(n) * cols


@functools.lru_cache(maxsize=32)
def _roots(n: int) -> np.ndarray:
    """W_n[r] = exp(2 pi i r / n), read-only.  Built from |r| <= n/2 with
    W_n[n - r] = conj(W_n[r]), so the argument never exceeds pi and the
    table is exactly conjugate-symmetric."""
    w = np.empty(n, complex)
    half = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    w[:n // 2 + 1] = half
    w[n // 2 + 1:] = np.conj(half[1:(n + 1) // 2][::-1])
    w.flags.writeable = False
    return w


def _sample_table(modes: np.ndarray, rows: np.ndarray, n: int, start: int,
                  stop: int) -> np.ndarray:
    """sum_k rows[k] W_n[j k mod n] for start <= j < stop: one matrix
    product of the gathered roots with the coefficient rows."""
    j = np.arange(start, stop)
    return _roots(n)[np.multiply.outer(j, modes) % n] @ rows


def _sample_fft(modes: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """sum_k rows[k] e^{2 pi i j k / n} for j = 0 .. n-1 by one inverse FFT
    of the modes folded mod n.  The sorted modes of one period q (k = q n
    + r) form one run of rows with distinct r, so each period is one
    indexed add."""
    folded = np.zeros((n, rows.shape[1]), complex)
    period = modes // n
    cuts = (np.flatnonzero(np.diff(period)) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(modes)]):
        folded[modes[lo:hi] - period[lo] * n] += rows[lo:hi]
    return np.fft.ifft(folded, axis=0, norm="forward")


# -- structure defects -----------------------------------------------------------


def _mirrored(s: FourierSeries) -> tuple:
    """Zero-filled rows of s at the modes M = supp s | -supp s (ascending),
    and the same rows at -M."""
    modes = _union(s.modes, -s.modes)
    rows = np.zeros((len(modes),) + s.data.shape[1:], complex)
    rows[np.searchsorted(modes, s.modes)] = s.data
    return rows, rows[::-1]


def real_defect(s: FourierSeries) -> float:
    """Max deviation from f(theta) real, i.e. f_{-k} = conj(f_k)."""
    f, f_neg = _mirrored(s)
    return float(np.abs(f_neg - np.conj(f)).max(initial=0.0))


def c2_pair_defect(v: FourierSeries) -> float:
    """Max deviation of component 2 from the conjugate of component 1."""
    if v.kind != C2VECTOR:
        raise KindMismatch("c2_pair_defect needs a vector series")
    f, f_neg = _mirrored(v)
    return float(np.abs(f[:, :, 1] - np.conj(f_neg[:, :, 0]))
                 .max(initial=0.0))


def su11_defect(w: FourierSeries) -> float:
    """Max deviation from the [[a, b], [conj b, conj a]] pattern."""
    if w.kind != SU11MATRIX:
        raise KindMismatch("su11_defect needs a matrix series")
    f, f_neg = _mirrored(w)
    # (d_k, c_k) against (conj a_{-k}, conj b_{-k})
    return float(np.abs(f[:, :, 1, ::-1] - np.conj(f_neg[:, :, 0, :]))
                 .max(initial=0.0))


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

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("width r must be nonnegative")

    def with_r(self, r) -> "WeightedNormContext":
        return replace(self, r=float(r))


def _exp(y: float) -> float:
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def _weighted_sum(f: FourierSeries, ctx: WeightedNormContext, lam) -> float:
    """sum_k |f_k|_O exp(lam(2 pi |k| r)) in ascending k, over the modes
    with |f_k|_O != 0."""
    c = _row_max(f.data, f.lambda_grid)
    nz = c != 0
    y = lam(2 * math.pi * np.abs(f.modes[nz]) * float(ctx.r))
    return sum((ci * _exp(yi) for ci, yi in zip(c[nz].tolist(), y.tolist())),
               0.0)


def norm_r(f: FourierSeries, ctx: WeightedNormContext) -> float:
    """sum_k |f_k|_O exp(L(2 pi |k| r))."""
    if f.nlambda == 0:
        raise ValueError("empty lambda grid")
    return _weighted_sum(f, ctx, lambda y: eval_lambda(ctx.weight, y))


def analytic_norm(f: FourierSeries, ctx: WeightedNormContext) -> float:
    """sum_k |f_k|_O exp(2 pi |k| r): the trig-polynomial analytic majorant."""
    return _weighted_sum(f, ctx, lambda y: np.where(y < 700, y, np.inf))


# -- exponentials -------------------------------------------------------------------


def exp_i_scalar(B: FourierSeries, l: int = 1) -> FourierSeries:
    """exp(2 pi i l B) by power series in the coefficient algebra; B must
    be real-valued."""
    if B.kind != SCALAR:
        raise KindMismatch("exp_i_scalar needs a scalar series")
    scale = max(B.sup_bound(), 1.0)
    if real_defect(B) > 1e-12 * scale:
        raise ValueError("exp_i_scalar: series is not real-valued")
    [acc] = _power_sums(B.scale(2j * math.pi * l), [lambda n: 1.0 / n],
                        "exp_i_scalar: term cap hit; input too large")
    return acc


def exp_su11(D: FourierSeries) -> tuple:
    """(exp(D), exp(-D)) for D = [[0, d], [dbar, 0]] via D^2 = (d*dbar) I:

    exp(+-D) = A I +- B D with A = cosh-type, B = sinh-type series in
    d*dbar, so det(exp(+-D)) = A^2 - B^2 d dbar = 1 identically in the
    algebra; both signs share A and B.
    """
    if D.kind != SU11MATRIX:
        raise KindMismatch("exp_su11 needs a matrix series")
    mag = np.abs(D.data)
    dscale = max(1e-300, float(mag.max()) if mag.size else 0.0)
    diag_mass = float(mag[..., [0, 1], [0, 1]].max()) if mag.size else 0.0
    if diag_mass > 1e-14 * dscale:
        raise ValueError("exp_su11: diagonal must vanish")
    b = D.entry(0, 1)
    c = D.entry(1, 0)
    A, Bs = _power_sums(multiply(b, c),
                        [lambda m: 1.0 / ((2 * m - 1) * (2 * m)),
                         lambda m: 1.0 / ((2 * m) * (2 * m + 1))],
                        "exp_su11: term cap hit; input too large")
    Eb = multiply(Bs, b)
    Ec = multiply(Bs, c)
    return (matrix_from_scalars(A, Eb, Ec, A),
            matrix_from_scalars(A, Eb.scale(-1.0), Ec.scale(-1.0), A))


def inverse_one_plus(h: FourierSeries) -> FourierSeries:
    """(1 + h)^{-1} by Neumann series; needs sup bound of h below 1."""
    if h.kind != SCALAR:
        raise KindMismatch("inverse_one_plus needs a scalar series")
    if h.sup_bound() >= 0.9:
        raise PowerSeriesDiverged("inverse_one_plus: perturbation too large")
    [acc] = _power_sums(h, [lambda n: -1.0], "inverse_one_plus: term cap hit")
    return acc


def _power_sums(x: FourierSeries, factors: list, cap_error: str) -> list:
    """The sums 1 + t_1 + t_2 + ... with t_n = factor(n) t_{n-1} x, one per
    factor, in the coefficient algebra.  They stop together once every last
    term is below 1e-16 max(1, |sum|); PowerSeriesDiverged(cap_error) after
    EXP_SERIES_MAX_TERMS terms."""
    sums = [one(x.lambda_grid) for _ in factors]
    terms = [one(x.lambda_grid) for _ in factors]
    for n in range(1, EXP_SERIES_MAX_TERMS + 1):
        for i, factor in enumerate(factors):
            terms[i] = multiply(terms[i], x).scale(factor(n))
            sums[i] = sums[i] + terms[i]
        if all(t.sup_bound() < 1e-16 * max(1.0, s.sup_bound())
               for t, s in zip(terms, sums)):
            return sums
    raise PowerSeriesDiverged(cap_error)


# -- jets in (v, vbar) ------------------------------------------------------------


@dataclass
class PowerFourierSeries:
    """Jet sum_m f_m(theta, lambda) x^m, m in N^2.

    Coefficients f_m are FourierSeries of a uniform kind.  d_max is a
    degree guard for set_term only; no table is sized by it.  Jets are
    composed with an affine map by Horner's rule (compose_affine).
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

    def drop_low_degrees(self, min_degree: int = 2) -> "PowerFourierSeries":
        return PowerFourierSeries(
            self.d_max, self.lambda_grid, self.kind,
            {m: s for m, s in self.terms.items() if sum(m) >= min_degree})

    def low_degree_mass(self) -> float:
        """Coefficient mass at degrees <= 1 (should vanish for remainders)."""
        tot = 0.0
        for m, s in self.terms.items():
            if sum(m) <= 1:
                tot += s.sup_bound()
        return tot

    def restrict(self, index, grid: np.ndarray) -> "PowerFourierSeries":
        """The jet at the lambda-grid points index, on grid."""
        return PowerFourierSeries(self.d_max, grid, self.kind, {
            m: s.restrict(index, grid) for m, s in self.terms.items()})

    def eval_at_series(self, d1: FourierSeries, d2: FourierSeries) -> FourierSeries:
        """Value at x = (d1, d2), both scalar series, in the algebra:
        compose_affine with E = 0, read at the monomial (0, 0)."""
        z = zeros(self.lambda_grid)
        return self.compose_affine(z, z, z, z, d1, d2).term((0, 0))

    def eval_at_points(self, x: np.ndarray, n: Optional[int] = None,
                       start: int = 0) -> np.ndarray:
        """Value at pointwise arguments x of shape (T, L, 2), x[j] at
        theta = (start + j)/n on the n-grid (n defaults to T, a whole
        grid); returns (T, L) + comp shape."""
        n = len(x) if n is None else n
        acc = None
        for (m1, m2), f in sorted(self.terms.items()):
            vals = f.sample(n, start, start + len(x))
            mono = (x[..., 0] ** m1) * (x[..., 1] ** m2)
            contrib = vals * mono.reshape(mono.shape + (1,) * (vals.ndim - 2))
            acc = contrib if acc is None else acc + contrib
        if acc is None:
            acc = np.zeros(x.shape[:2] + _COMP_SHAPE[self.kind], complex)
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

        By Horner's rule on jets in y, {(m1, m2): series}: in x2 = e21 y1 +
        e22 y2 + d2 within each power of x1, then in x1 = e11 y1 + e12 y2 +
        d1, each step one _horner_step.  Exact: an affine substitution
        cannot raise the degree, and no step exceeds the jet's own degree.
        """
        rows: dict = {}
        for (m1, m2), f in self.terms.items():
            rows.setdefault(m1, {})[m2] = f
        acc: dict = {}
        for m1 in range(max(rows, default=-1), -1, -1):
            row, g = rows.get(m1, {}), {}
            for m2 in range(max(row, default=-1), -1, -1):
                g = _horner_step(g, e21, e22, d2,
                                 {(0, 0): row[m2]} if m2 in row else {})
            acc = _horner_step(acc, e11, e12, d1, g)
        out = PowerFourierSeries(self.d_max, self.lambda_grid, self.kind, {})
        for m, s in sorted(acc.items()):
            out.set_term(m, s)
        return out

    def matrix_multiply_left(self, m: FourierSeries) -> "PowerFourierSeries":
        """m(theta, lambda) . f_m for every coefficient (vector-kind jets)."""
        return PowerFourierSeries(
            self.d_max, self.lambda_grid, self.kind,
            {mm: multiply(m, s) for mm, s in self.terms.items()})

    def conj_swap_defect(self) -> float:
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
            worst = max(worst, d.sup_bound())
        return worst


def _horner_step(p: dict, e1: FourierSeries, e2: FourierSeries,
                 d: FourierSeries, c: dict) -> dict:
    """p (e1 y1 + e2 y2 + d) + c for jets p, c in y, {(m1, m2): series};
    a zero e1, e2 or d forms no product."""
    out = dict(c)
    for (a1, a2), f in p.items():
        for m, s in (((a1 + 1, a2), e1), ((a1, a2 + 1), e2), ((a1, a2), d)):
            if not s.is_zero():
                h = multiply(f, s)
                out[m] = out[m] + h if m in out else h
    return out


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


def write_coeff_dump(path, s: FourierSeries, lambda_index=None):
    """Bit-exact scalar dump: one line `lambda_index k re im` per coefficient
    and grid point i of s, lambda_index[i] (default i) its index on the grid
    a reader is given."""
    if s.kind != SCALAR:
        raise KindMismatch("dump format is per scalar component")
    index = np.arange(s.nlambda) if lambda_index is None else lambda_index
    index = np.asarray(index).tolist()
    with open(path, "w") as fh:
        for k, v in zip(s.modes.tolist(), s.data):
            fh.write("".join("%d %d %r %r\n" % (li, k, re, im) for li, re, im
                             in zip(index, v.real.tolist(),
                                    v.imag.tolist())))


def read_coeff_dump(path, lambda_grid) -> FourierSeries:
    """The dumped series on lambda_grid; a point the dump omits reads 0.  A
    malformed line raises ValueError naming the file and the line."""
    grid = np.asarray(lambda_grid, float)
    coeffs: dict = {}
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.split():
                continue
            try:
                li, k, re, im = line.split()
                li, k, v = int(li), int(k), float(re) + 1j * float(im)
                if not 0 <= li < len(grid):
                    raise ValueError
            except ValueError:
                raise ValueError("%s line %d: not `lambda_index k re im` with "
                                 "0 <= lambda_index < %d: %r" % (
                                     path, n, len(grid), line.strip())) from None
            if k not in coeffs:
                coeffs[k] = np.zeros(len(grid), complex)
            coeffs[k][li] = v
    return from_modes(grid, SCALAR, coeffs)
