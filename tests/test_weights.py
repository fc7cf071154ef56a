import math

import numpy as np
import pytest

from kamtori import weights as wt
from kamtori.weights import WeightFunction, eval_gamma, eval_lambda

E = math.e


def central_diff(w, x, h=None):
    # independent derivative oracle
    h = 1e-6 * x if h is None else h
    return (eval_lambda(w, x + h) - eval_lambda(w, x - h)) / (2 * h)


def test_eval_lambda_examples():
    assert eval_lambda(WeightFunction("analytic"), 3.0) == 3.0
    assert eval_lambda(WeightFunction("gevrey", 0.5), 4.0) == 2.0
    # (ln e^2)^2 = 4: hand-checkable arithmetic
    assert eval_lambda(WeightFunction("log_pow", 2.0), E**2) == pytest.approx(4.0, abs=1e-12)


def test_eval_lambda_small_argument_convention():
    assert eval_lambda(WeightFunction("log_pow", 2.0), 0.5) == 0.0
    assert eval_lambda(WeightFunction("exp_log_pow", 0.5), 1.0) == 0.0
    assert eval_lambda(WeightFunction("analytic"), 0.0) == 0.0


def test_eval_gamma_examples():
    # analytic at e: x/ln x = e
    assert eval_gamma(WeightFunction("analytic"), E) == pytest.approx(E, rel=1e-14)
    # gevrey 1/2 at e^2: delta x^delta / ln x = 0.5 e / 2 = e/4
    # (cross-checked below by the finite-difference oracle)
    g = eval_gamma(WeightFunction("gevrey", 0.5), E**2)
    assert g == pytest.approx(E / 4, rel=1e-13)
    w = WeightFunction("gevrey", 0.5)
    fd = E**2 * central_diff(w, E**2) / math.log(E**2)
    assert g == pytest.approx(fd, rel=1e-7)
    # log_pow beta=2: Gamma = beta (ln x)^{beta-2} = 2 for every x
    w2 = WeightFunction("log_pow", 2.0)
    assert eval_gamma(w2, E**4) == pytest.approx(2.0, rel=1e-13)
    fd2 = E**4 * central_diff(w2, E**4) / 4.0
    assert fd2 == pytest.approx(2.0, rel=1e-7)


def test_gamma_domain():
    with pytest.raises(ValueError):
        eval_gamma(WeightFunction("analytic"), 1.0)
    with pytest.raises(ValueError):
        eval_gamma(WeightFunction("gevrey", 0.5), 0.5)


def test_parameter_ranges():
    with pytest.raises(wt.ConfigurationError):
        WeightFunction("gevrey", 1.5)
    with pytest.raises(wt.ConfigurationError):
        WeightFunction("log_pow", 1.0)
    with pytest.raises(wt.ConfigurationError):
        WeightFunction("nope")


@pytest.mark.parametrize("fam,param", [
    ("analytic", 0.0), ("gevrey", 0.5), ("gevrey", 0.9),
    ("exp_log_pow", 0.5), ("log_pow", 2.0), ("log_pow", 3.5),
])
def test_strictly_increasing(fam, param):
    w = WeightFunction(fam, param)
    grid = np.geomspace(1.5, 1e8, 200)
    vals = eval_lambda(w, grid)
    assert np.all(np.diff(vals) > 1e-14)


@pytest.mark.parametrize("fam,param", [
    ("analytic", 0.0), ("gevrey", 0.5), ("exp_log_pow", 0.5),
    ("log_pow", 2.0),
])
def test_closed_form_derivative_vs_finite_differences(fam, param):
    # Lambda'(x) = Gamma(x) ln(x) / x, the derivative the solver's decay
    # factor takes through eval_gamma
    w = WeightFunction(fam, param)
    pts = 2.0 + (1e6 - 2.0) * wt.lowdisc(100, 1, seed=3)[:, 0]
    for x in pts:
        fd = central_diff(w, float(x))
        cf = eval_gamma(w, float(x)) * math.log(x) / x
        assert cf == pytest.approx(fd, rel=1e-6)


def test_analytic_gamma_identity():
    w = WeightFunction("analytic")
    for x in [1.5, 2.0, 10.0, 1e3, 1e7]:
        assert eval_gamma(w, x) * math.log(x) == pytest.approx(x, rel=1e-14)


def test_h1_analytic_equality():
    row = wt.check_h1(WeightFunction("analytic"), 1000)
    assert row.passed
    assert row.actual == 0.0  # exact equality for L(x) = x


def test_h1_gevrey_concavity():
    # concavity of x^delta implies subadditivity; the grid check is the oracle
    row = wt.check_h1(WeightFunction("gevrey", 0.5), 1000)
    assert row.passed
    assert row.actual > 0


def test_h1_log_pow_recorded_outcome():
    # sampled check passes on the default uniform grid (both-small pairs are
    # never drawn); the pointwise violation at small arguments is real:
    w = WeightFunction("log_pow", 2.0)
    row = wt.check_h1(w, 1000)
    assert row.passed  # frozen outcome for the deterministic default grid
    assert eval_lambda(w, 2 * E) > 2 * eval_lambda(w, E)  # the actual gap


def test_h1_deterministic():
    a = wt.check_h1(WeightFunction("gevrey", 0.5), 500)
    b = wt.check_h1(WeightFunction("gevrey", 0.5), 500)
    assert a.actual == b.actual  # bit-identical reruns


def test_h2_monotone_analytic_small_x():
    # x/ln x decreases on (1, e): expected failure recorded
    row = wt.check_h2_monotone(WeightFunction("analytic"), [2.0, 3.0, 4.0])
    assert not row.passed
    row2 = wt.check_h2_monotone(WeightFunction("analytic"), [3.0, 4.0, 5.0])
    assert row2.passed


def test_h2_monotone_gevrey_and_exp_log_pow():
    assert wt.check_h2_monotone(WeightFunction("gevrey", 0.5),
                                [10.0, 100.0, 1000.0]).passed
    assert wt.check_h2_monotone(WeightFunction("exp_log_pow", 0.5),
                                [1e4, 1e6, 1e8]).passed


def test_gamma_sqrt_log_big_integers():
    w = WeightFunction("analytic")
    v = wt.gamma_sqrt_log(w, 10**40)
    x = 10.0 ** (40 / 3)
    expect = math.sqrt(x / math.log(x)) * 40 * math.log(10.0)
    assert v == pytest.approx(expect, rel=1e-12)
    assert wt.gamma_sqrt_log(w, 10**2000) == math.inf


def test_h1_requires_samples():
    with pytest.raises(ValueError):
        wt.check_h1(WeightFunction("analytic"), 99)
