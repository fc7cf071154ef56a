"""Continued fractions, best rational approximations and CD-bridge selection.

The rotation number alpha is held as a high-precision mpmath float; all
convergent numerators/denominators are exact Python integers, so the
best-approximation inequalities and bridge conditions can be re-verified
without floating error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import mpf

from .reporting import CheckRow

DEFAULT_PREC_BITS = 256
LOG_SLACK = mpf("1e-30")


class PrecisionExhausted(ValueError):
    """Expansion hit a (near-)rational tail; carries the last safe depth."""

    def __init__(self, depth: int):
        super().__init__(
            "continued fraction expansion exhausted working precision at depth %d "
            "(input rational within tolerance?)" % depth
        )
        self.depth = depth


@dataclass
class ContinuedFraction:
    """alpha in (0,1) with partial quotients a_k and exact convergents p_k/q_k.

    Index convention: a[0] = 0 is the integer part, quotients start at a[1];
    p = [0, 1, ...], q = [1, a_1, ...] so that q[k] = a[k] q[k-1] + q[k-2].
    """

    alpha: mpf
    a: list[int]
    p: list[int]
    q: list[int]
    prec_bits: int
    _frac_cache: dict = field(default_factory=dict, repr=False)
    _phase_cache: dict = field(default_factory=dict, repr=False)

    @property
    def depth(self) -> int:
        return len(self.a) - 1

    def frac_k(self, k: int) -> float:
        """k*alpha mod 1, reduced at working precision, in [0,1); memoised."""
        if k not in self._frac_cache:
            with mpmath.workprec(self.prec_bits):
                v = mpmath.frac(self.alpha * k)
                self._frac_cache[k] = float(v + 1 if v < 0 else v)
        return self._frac_cache[k]

    def small_divisor(self, k: int) -> float:
        """||k alpha||_T via high-precision reduction."""
        with mpmath.workprec(self.prec_bits):
            v = mpmath.frac(self.alpha * abs(k))
            return float(min(v, 1 - v))

    def phase(self, k: int) -> complex:
        """exp(2 pi i k alpha), accurate to double precision for any k."""
        c = self._phase_cache.get(k)
        if c is None:
            t = self.frac_k(k)
            c = complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
            self._phase_cache[k] = c
        return c


def expand(alpha, max_depth: int = 64, tol: float = 1e-60,
           prec_bits: int = DEFAULT_PREC_BITS) -> ContinuedFraction:
    """Expand alpha in (0,1) into partial quotients and exact convergents.

    Stops at max_depth.  If some remainder alpha_k falls below tol the
    input is rational to working precision and PrecisionExhausted is
    raised, naming the last reliable depth.
    """
    if prec_bits < 256:
        raise ValueError("working precision must be at least 256 bits")
    with mpmath.workprec(prec_bits):
        a0 = mpf(alpha) if not isinstance(alpha, str) else mpf(alpha)
        if not (0 < a0 < 1):
            raise ValueError("alpha must lie in (0,1)")
        a = [0]
        rem = a0
        for k in range(1, max_depth + 1):
            if rem < tol:
                raise PrecisionExhausted(k - 1)
            inv = 1 / rem
            ak = int(mpmath.floor(inv))
            rem = inv - ak
            a.append(ak)
        p, q = _convergents(a[1:])
        return ContinuedFraction(alpha=a0, a=a, p=p[1:], q=q[1:],
                                 prec_bits=prec_bits)


def _convergents(quotients) -> tuple:
    """Exact p_k, q_k of [0; a_1, a_2, ...] for k = -1, 0, 1, ...:
    p_k = a_k p_{k-1} + p_{k-2} and the same for q, from p_{-1} = q_0 = 1
    and p_0 = q_{-1} = 0."""
    p, q = [1, 0], [0, 1]
    for ak in quotients:
        p.append(ak * p[-1] + p[-2])
        q.append(ak * q[-1] + q[-2])
    return p, q


def from_quotients(quotients, prec_bits: int = DEFAULT_PREC_BITS,
                   pad_to: int = 0) -> ContinuedFraction:
    """Build alpha = [0; a_1, a_2, ...] exactly from its partial quotients.

    The list may be padded with trailing 1s (golden tail) up to pad_to so
    that constructed Liouvillean numbers stay irrational to precision.
    """
    quots = [int(x) for x in quotients]
    if any(x < 1 for x in quots):
        raise ValueError("partial quotients must be positive")
    if pad_to > len(quots):
        quots = quots + [1] * (pad_to - len(quots))
    p, q = _convergents(quots)
    # extend far enough that the value is exact at working precision
    pe, pe2, qe, qe2 = p[-1], p[-2], q[-1], q[-2]
    with mpmath.workprec(prec_bits):
        while qe.bit_length() * 2 < prec_bits + 64:
            pe, pe2 = pe + pe2, pe
            qe, qe2 = qe + qe2, qe
        alpha = mpf(pe) / mpf(qe)
        return ContinuedFraction(alpha=alpha, a=[0] + quots, p=p[1:],
                                 q=q[1:], prec_bits=prec_bits)


def golden_mean(prec_bits: int = DEFAULT_PREC_BITS, depth: int = 90) -> ContinuedFraction:
    with mpmath.workprec(prec_bits):
        return expand((mpmath.sqrt(5) - 1) / 2, max_depth=depth,
                      prec_bits=prec_bits)


def sqrt2_minus_1(prec_bits: int = DEFAULT_PREC_BITS, depth: int = 60) -> ContinuedFraction:
    with mpmath.workprec(prec_bits):
        return expand(mpmath.sqrt(2) - 1, max_depth=depth, prec_bits=prec_bits)


# -- CD bridges ---------------------------------------------------------------


def _pow_leq(base: int, expo: float, value: int) -> bool:
    """value <= base**expo, exact when expo is integral."""
    if float(expo).is_integer():
        return value <= base ** int(expo)
    with mpmath.workprec(512):
        return mpf(value) <= mpmath.exp(mpf(expo) * mpmath.log(mpf(base))) * (1 + LOG_SLACK)


def _pow_geq(base: int, expo: float, value: int) -> bool:
    """value >= base**expo, exact when expo is integral."""
    if float(expo).is_integer():
        return value >= base ** int(expo)
    with mpmath.workprec(512):
        return mpf(value) >= mpmath.exp(mpf(expo) * mpmath.log(mpf(base))) * (1 - LOG_SLACK)


def is_cd_bridge(cf: ContinuedFraction, m: int, n: int, A: float, B: float,
                 C: float) -> bool:
    """(q_m, q_n) forms a CD(A,B,C) bridge:

    q_{i+1} <= q_i**A for i = m..n-1, and q_m**C >= q_n >= q_m**B.
    """
    if not (0 <= m <= n <= cf.depth):
        raise IndexError("bridge indices out of range")
    q = cf.q
    for i in range(m, n):
        if not _pow_leq(q[i], A, q[i + 1]):
            return False
    return _pow_leq(q[m], C, q[n]) and _pow_geq(q[m], B, q[n])


@dataclass(frozen=True)
class BridgeSelection:
    A: float
    indices: tuple[int, ...]          # n_k, ascending, indices into cf.q
    Q: tuple[int, ...]                # q_{n_k}
    Qbar: tuple[int, ...]             # q_{n_k + 1}

    @property
    def levels(self) -> int:
        return len(self.indices)


def _jump(cf: ContinuedFraction, j: int, A: float) -> bool:
    return _pow_geq(cf.q[j], A, cf.q[j + 1])


def select_bridges(cf: ContinuedFraction, A: float) -> BridgeSelection:
    """Greedy subsequence Q_k = q_{n_k} with Q_0 = 1 satisfying, for each k,
    Q_{k+1} <= Qbar_k**(A^4) and either Qbar_k >= Q_k**A or the pairs
    (Qbar_{k-1}, Q_k), (Q_k, Q_{k+1}) both CD(A, A, A^3) bridges.

    The scan prefers advancing to the next index where the first
    alternative holds; otherwise it ladders forward through CD bridges.
    All conditions are re-verified post hoc; if the tail cannot be
    certified the selection is truncated to the verified prefix.
    """
    if A < 1:
        raise ValueError("A must be at least 1")
    maxj = cf.depth - 1  # need q_{j+1} for Qbar
    if maxj < 0:
        raise ValueError("insufficient continued fraction depth")
    sel = [0]
    while True:
        m = sel[-1]
        prev_ok = True
        if len(sel) >= 2:
            prev_ok = is_cd_bridge(cf, sel[-2] + 1, m, A, A, A**3)
        nxt = _next_index(cf, m, A, prev_ok, maxj)
        if nxt is None:
            break
        sel.append(nxt)
    sel = _verified_prefix(cf, sel, A)
    return BridgeSelection(
        A=A,
        indices=tuple(sel),
        Q=tuple(cf.q[j] for j in sel),
        Qbar=tuple(cf.q[j + 1] for j in sel),
    )


def _next_index(cf: ContinuedFraction, m: int, A: float, prev_ok: bool,
                maxj: int) -> Optional[int]:
    A3 = A**3
    A4 = A**4
    cands = [j for j in range(m + 1, maxj + 1)
             if _pow_leq(cf.q[m + 1], A4, cf.q[j])]
    if not cands:
        return None
    if _jump(cf, m, A):
        jumps = [j for j in cands if _jump(cf, j, A)]
        if jumps:
            return jumps[0]
        ladder = [j for j in cands if is_cd_bridge(cf, m + 1, j, A, A, A3)]
        return ladder[0] if ladder else None
    if not prev_ok:
        return None
    ladder = [j for j in cands if is_cd_bridge(cf, m, j, A, A, A3)
              and is_cd_bridge(cf, m + 1, j, A, A, A3)]
    if not ladder:
        return None
    jumps = [j for j in ladder if _jump(cf, j, A)]
    return jumps[0] if jumps else ladder[0]


def _pair_conditions(cf: ContinuedFraction, sel, k: int, A: float) -> tuple:
    """The lemma's two conditions on pair k of the selected indices sel
    (needs sel[k+1]): (growth Q_{k+1} <= Qbar_k^{A^4}, either a jump at
    sel[k] or, past k = 0, CD bridges on both sides of it).  The jump at
    k = 0 always holds (q_0 = 1)."""
    m = sel[k]
    growth = _pow_leq(cf.q[m + 1], A**4, cf.q[sel[k + 1]])
    either = _jump(cf, m, A) or (
        k >= 1 and is_cd_bridge(cf, sel[k - 1] + 1, m, A, A, A**3)
        and is_cd_bridge(cf, m, sel[k + 1], A, A, A**3))
    return growth, either


def _verified_prefix(cf: ContinuedFraction, sel: list[int], A: float) -> list[int]:
    good = 1
    for k in range(len(sel) - 1):
        if all(_pair_conditions(cf, sel, k, A)):
            good = k + 2
        else:
            break
    return sel[:good]


def verify_bridges(cf: ContinuedFraction, sel: BridgeSelection) -> list[CheckRow]:
    """Exact re-verification of the selection's stated inequalities."""
    rows = []
    A = sel.A
    rows.append(CheckRow("bridge Q_0 = 1", 1.0, float(sel.Q[0]),
                         sel.Q[0] == 1))
    for k in range(sel.levels - 1):
        ok_growth, either = _pair_conditions(cf, sel.indices, k, A)
        rows.append(CheckRow("bridge Q_{k+1} <= Qbar_k^A4 (k=%d)" % k,
                             A**4, 0.0, ok_growth,
                             "Q=%d Qbar=%d" % (sel.Q[k + 1], sel.Qbar[k])))
        rows.append(CheckRow("bridge either/or (k=%d)" % k, 1.0,
                             1.0 if either else 0.0, either))
        # Lemma consequences
        rows.append(CheckRow("bridge Q_{k+1} >= Q_k^A (k=%d)" % k, 0.0, 0.0,
                             _pow_geq(sel.Q[k], A, sel.Q[k + 1])))
        rows.append(CheckRow("bridge Qbar_{k+1} >= Qbar_k^A (k=%d)" % k, 0.0,
                             0.0, _pow_geq(sel.Qbar[k], A, sel.Qbar[k + 1])))
    return rows


def alpha_as_fraction(cf: ContinuedFraction, depth: int) -> Fraction:
    """Convergent p_depth / q_depth as an exact rational."""
    if not (1 <= depth <= cf.depth):
        raise IndexError("depth out of range")
    return Fraction(cf.p[depth], cf.q[depth])
