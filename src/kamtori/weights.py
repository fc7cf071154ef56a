"""Weight functions for ultra-differentiable Fourier norms.

Four families are supported, interpolating between real-analytic and
barely-C-infinity regularity:

    analytic      L(y) = y
    gevrey        L(y) = y**delta,            0 < delta < 1
    exp_log_pow   L(y) = exp((ln y)**sigma),  0 < sigma < 1  (0 for y <= 1)
    log_pow       L(y) = (ln y)**beta,        beta > 1       (0 for y <= 1)

Each family carries the derived quantity Gamma(x) = x*L'(x)/ln(x), the
growth rate that drives truncation-tail estimates.  Two sampled hypothesis
checks are provided: subadditivity of L (Banach-algebra property of the
norms) and eventual monotonicity of Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reporting import CheckRow

FAMILIES = ("analytic", "gevrey", "exp_log_pow", "log_pow")

# default upper end of the sampled hypothesis grids
X_MAX_DEFAULT = 1e8

# Gamma(x) is singular at x = 1; checks stay away from it
GAMMA_X_MIN = 1.0 + 1e-9


class ConfigurationError(ValueError):
    """Family / parameter combination outside the stated open intervals."""


@dataclass(frozen=True)
class WeightFunction:
    family: str
    param: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError("unknown weight family %r" % (self.family,))
        if self.family == "gevrey" and not 0.0 < self.param < 1.0:
            raise ConfigurationError("gevrey exponent must lie in (0,1)")
        if self.family == "exp_log_pow" and not 0.0 < self.param < 1.0:
            raise ConfigurationError("exp_log_pow exponent must lie in (0,1)")
        if self.family == "log_pow" and not self.param > 1.0:
            raise ConfigurationError("log_pow exponent must exceed 1")

    def __call__(self, y):
        return eval_lambda(self, y)


def eval_lambda(w: WeightFunction, y):
    """L(y) for scalar or ndarray y >= 0.

    exp_log_pow and log_pow are extended by 0 on [0, 1]; the scheme only
    ever evaluates them at large arguments.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0):
        raise ValueError("weight argument must be nonnegative")
    if w.family == "analytic":
        out = arr.copy()
    elif w.family == "gevrey":
        out = arr**w.param
    elif w.family == "exp_log_pow":
        out = np.zeros_like(arr)
        big = arr > 1.0
        out[big] = np.exp(np.log(arr[big]) ** w.param)
    else:  # log_pow
        out = np.zeros_like(arr)
        big = arr > 1.0
        out[big] = np.log(arr[big]) ** w.param
    if np.ndim(y) == 0:
        return float(out)
    return out


def eval_gamma(w: WeightFunction, x):
    """Gamma(x) = x L'(x) / ln(x), defined for x > 1."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= GAMMA_X_MIN):
        raise ValueError("Gamma is evaluated only for x > 1")
    ln = np.log(arr)
    if w.family == "analytic":
        out = arr / ln
    elif w.family == "gevrey":
        out = w.param * arr**w.param / ln
    elif w.family == "exp_log_pow":
        out = w.param * ln ** (w.param - 2.0) * np.exp(ln**w.param)
    else:
        out = w.param * ln ** (w.param - 2.0)
    if np.ndim(x) == 0:
        return float(out)
    return out


def gamma_sqrt_log(w: WeightFunction, q: int) -> float:
    """sqrt(Gamma(q**(1/3))) * ln(q) for a (possibly huge) integer q.

    Works in log space so denominators of astronomic size degrade to
    inf rather than overflowing.
    """
    lnq = _ln_big(q)
    x = math.exp(lnq / 3.0) if lnq / 3.0 < 700 else math.inf
    if not math.isfinite(x):
        return math.inf
    if x <= GAMMA_X_MIN:
        raise ValueError("q too small for the Gamma schedule (q^(1/3) <= 1)")
    return math.sqrt(eval_gamma(w, x)) * lnq


def _ln_big(q: int) -> float:
    if q <= 0:
        raise ValueError("positive integer expected")
    try:
        return math.log(q)
    except OverflowError:
        # ln via bit length: q = m * 2**e with m in [1, 2)
        e = q.bit_length() - 1
        m = q / (1 << e)
        return math.log(m) + e * math.log(2.0)


# -- deterministic low-discrepancy grids -------------------------------------

_PLASTIC = 1.32471795724474602596  # root of x^3 = x + 1


def lowdisc(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """n points of the R_d Kronecker sequence in (0, 1]^dim.

    Bit-identical across runs for a fixed (n, dim, seed).
    """
    alphas = np.array([_PLASTIC ** -(i + 1) for i in range(dim)])
    idx = np.arange(1, n + 1, dtype=float)[:, None] + float(seed)
    pts = (0.5 + idx * alphas[None, :]) % 1.0
    return 1.0 - pts  # map [0,1) to (0,1]


# -- hypothesis checks --------------------------------------------------------


def check_h1(w: WeightFunction, samples: int, x_max: float = X_MAX_DEFAULT,
             seed: int = 0) -> CheckRow:
    """Sampled subadditivity check L(x+y) <= L(x) + L(y) + 1e-12.

    Reports the worst margin L(x)+L(y)-L(x+y) over a deterministic
    quasi-random grid on (0, x_max]^2; a violation yields a failed row,
    not an exception.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    pts = lowdisc(samples, 2, seed) * x_max
    x, y = pts[:, 0], pts[:, 1]
    margin = eval_lambda(w, x) + eval_lambda(w, y) - eval_lambda(w, x + y)
    worst = float(margin.min())
    return CheckRow(
        check="H1 subadditivity",
        bound=-1e-12,
        actual=worst,
        passed=bool(worst >= -1e-12),
        detail="%s(%g) n=%d" % (w.family, w.param, samples),
    )


def check_h2_monotone(w: WeightFunction, grid) -> CheckRow:
    """Gamma nondecreasing along an ascending grid of points > 1."""
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise ValueError("grid must hold at least two points")
    if np.any(np.diff(arr) <= 0):
        raise ValueError("grid must be strictly ascending")
    if np.any(arr <= GAMMA_X_MIN):
        raise ValueError("grid points must exceed 1")
    g = eval_gamma(w, arr)
    worst = float(np.diff(g).min())
    return CheckRow(
        check="H2 Gamma monotone",
        bound=-1e-12,
        actual=worst,
        passed=bool(worst >= -1e-12),
        detail="%s(%g) grid[%g..%g]" % (w.family, w.param, arr[0], arr[-1]),
    )
