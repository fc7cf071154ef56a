from fractions import Fraction

import mpmath
import pytest

from kamtori import cfrac as cfr
from kamtori.verify import best_approx_rows, euclid_cf


def fib_q(n):
    q = [1, 1]
    while len(q) <= n:
        q.append(q[-1] + q[-2])
    return q[: n + 1]


def test_golden_expansion_matches_oracle():
    cf = cfr.golden_mean(prec_bits=512)
    # oracle: Euclid on a 512-bit rational approximation of alpha
    with mpmath.workprec(512):
        num = int(mpmath.floor(cf.alpha * 2**500))
        approx = Fraction(num, 2**500)
    oracle = euclid_cf(approx, 25)
    assert oracle[0] == 0
    assert all(a == 1 for a in oracle[1:25])
    assert cf.a[1:25] == oracle[1:25]
    assert cf.q[:12] == fib_q(11)  # 1,1,2,3,5,8,13,21,34,55,89,144


def test_sqrt2_expansion():
    cf = cfr.sqrt2_minus_1(prec_bits=512)
    assert all(a == 2 for a in cf.a[1:20])
    # q = 1, 2, 5, 12, 29, 70, ...
    q = [1, 2]
    for _ in range(8):
        q.append(2 * q[-1] + q[-2])
    assert cf.q[:10] == q


def test_rational_input_raises():
    with pytest.raises(cfr.PrecisionExhausted) as exc:
        cfr.expand(0.5, max_depth=10)
    assert exc.value.depth == 1


def test_expand_precision_stability():
    a = cfr.expand("0.3217509914350928", max_depth=12, prec_bits=256)
    b = cfr.expand("0.3217509914350928", max_depth=12, prec_bits=512)
    assert a.a == b.a


def test_convergent_recursion_exact():
    cf = cfr.golden_mean()
    for k in range(2, cf.depth):
        assert cf.q[k] == cf.a[k] * cf.q[k - 1] + cf.q[k - 2]
        assert cf.p[k] == cf.a[k] * cf.p[k - 1] + cf.p[k - 2]


@pytest.mark.parametrize("maker", [cfr.golden_mean, cfr.sqrt2_minus_1])
def test_best_approximation_bracket(maker):
    cf = maker(prec_bits=512)
    rows = best_approx_rows(cf, 20)
    assert rows and all(r.passed for r in rows)


def test_best_approximation_exhaustive():
    # ||k alpha|| >= ||q_{n-1} alpha|| for 1 <= k < q_n, q_n <= 1e4
    cf = cfr.golden_mean(prec_bits=512)
    n = max(i for i in range(len(cf.q)) if cf.q[i] <= 10**4)
    floor_val = cf.small_divisor(cf.q[n - 1])
    worst = min(cf.small_divisor(k) for k in range(1, cf.q[n]))
    assert worst >= floor_val


def test_small_divisor_matches_norm():
    cf = cfr.sqrt2_minus_1()
    with mpmath.workprec(256):
        for k in (1, 5, 29, 12, 1000):
            v = mpmath.frac(cf.alpha * k)
            expect = float(min(v, 1 - v))
            assert cf.small_divisor(k) == pytest.approx(expect, abs=1e-15)


def test_is_cd_bridge_vacuous_single_index():
    cf = cfr.golden_mean()
    # m = n: empty chain, needs q_m^C >= q_m >= q_m^B, i.e. B <= 1 <= C
    assert cfr.is_cd_bridge(cf, 3, 3, 2.0, 1.0, 8.0)
    assert not cfr.is_cd_bridge(cf, 3, 3, 2.0, 2.0, 8.0)  # q_3^2 = 9 > 3


def test_is_cd_bridge_golden_exact():
    cf = cfr.golden_mean()
    # m=2, n=4, A=B=2, C=8: q3<=q2^2 (3<=4), q4<=q3^2 (5<=9),
    # q2^8 >= q4 >= q2^2 (256 >= 5 >= 4): all hold
    assert cfr.is_cd_bridge(cf, 2, 4, 2.0, 2.0, 8.0)
    # sqrt2-1: chain q_{m+1} <= q_m^2 exactly checkable
    s2 = cfr.sqrt2_minus_1()
    assert cfr.is_cd_bridge(s2, 2, 3, 2.0, 1.0, 8.0)  # 12 <= 25, 5^8>=12>=5


def test_is_cd_bridge_fractional_exponent():
    cf = cfr.sqrt2_minus_1()
    # non-integral exponents go through the high-precision log path
    assert cfr.is_cd_bridge(cf, 2, 3, 2.5, 1.0, 7.5)


def test_select_bridges_golden_verified():
    cf = cfr.golden_mean()
    sel = cfr.select_bridges(cf, 2.0)
    assert sel.Q[0] == 1
    assert sel.levels >= 5
    rows = cfr.verify_bridges(cf, sel)
    assert all(r.passed for r in rows)


def test_select_bridges_huge_quotient():
    # one huge partial quotient must be captured by a jump level
    cf = cfr.from_quotients([1, 1, 10**6] + [1] * 37)
    sel = cfr.select_bridges(cf, 2.0)
    rows = cfr.verify_bridges(cf, sel)
    assert all(r.passed for r in rows)
    assert 2 in sel.indices            # Q_k = q_2 = 2, Qbar_k = 2000001
    k = sel.indices.index(2)
    assert sel.Qbar[k] == 2 * 10**6 + 1
    assert sel.Qbar[k] >= sel.Q[k] ** 2


def test_select_bridges_liouvillean():
    cf = cfr.from_quotients([10**k for k in range(1, 9)], prec_bits=512,
                            pad_to=40)
    sel = cfr.select_bridges(cf, 2.0)
    rows = cfr.verify_bridges(cf, sel)
    assert all(r.passed for r in rows)
    assert sel.levels >= 3


def test_select_bridges_depth_zero():
    cf = cfr.from_quotients([3, 1])
    sel = cfr.select_bridges(cf, 2.0)
    assert sel.Q[0] == 1


def test_lemma_growth_inequalities():
    cf = cfr.golden_mean()
    sel = cfr.select_bridges(cf, 2.0)
    for k in range(sel.levels - 1):
        assert sel.Q[k + 1] >= sel.Q[k] ** 2
        assert sel.Qbar[k + 1] >= sel.Qbar[k] ** 2
        assert sel.Q[k + 1] <= sel.Qbar[k] ** 16


def test_from_quotients_value_consistency():
    cf = cfr.from_quotients([2] * 30, prec_bits=256)
    s2 = cfr.sqrt2_minus_1(prec_bits=256)
    assert float(cf.alpha) == pytest.approx(float(s2.alpha), abs=1e-60)


def test_phase_accuracy_large_k():
    cf = cfr.golden_mean(prec_bits=512)
    k = 10**9 + 7
    with mpmath.workprec(512):
        t = mpmath.frac(cf.alpha * k)
        expect = complex(mpmath.cos(2 * mpmath.pi * t),
                         mpmath.sin(2 * mpmath.pi * t))
    got = cf.phase(k)
    assert abs(got - expect) < 1e-14


def test_expand_requires_precision():
    with pytest.raises(ValueError):
        cfr.expand("0.618", max_depth=5, prec_bits=128)


@pytest.mark.parametrize("cf", [
    cfr.golden_mean(),
    cfr.from_quotients([2 ** (2**k) for k in range(1, 8)], prec_bits=1024,
                       pad_to=90),   # liouville_doubleexp
], ids=["golden", "liouville_doubleexp"])
def test_frac_k_memo_matches_fresh_mpmath(cf):
    for k in range(-300, 301):
        first = cf.frac_k(k)
        with mpmath.workprec(cf.prec_bits):
            v = mpmath.frac(cf.alpha * k)
            if v < 0:
                v += 1
        assert k in cf._frac_cache
        assert first == cf.frac_k(k) == float(v)
