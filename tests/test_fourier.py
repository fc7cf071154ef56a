import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from kamtori import fourier as fr
from kamtori import verify as vf
from kamtori.fourier import WeightedNormContext
from kamtori.weights import WeightFunction, eval_lambda

GRID = np.linspace(0.25, 0.75, 5)
N_THETA = 4096
ANALYTIC = WeightFunction("analytic")
GEVREY = WeightFunction("gevrey", 0.5)


rand_scalar = functools.partial(vf.rand_scalar, lam_linear=False)


def cos_series(grid=GRID):
    return fr.from_modes(grid, fr.SCALAR, {1: 0.5, -1: 0.5})


# -- norms ------------------------------------------------------------------------


def test_norm_constant():
    f = fr.constant(GRID, 5.0)
    ctx = WeightedNormContext(ANALYTIC, 0.3)
    assert fr.norm_r(f, ctx) == 5.0  # Lambda(0) = 0


def test_norm_cos_analytic():
    ctx = WeightedNormContext(ANALYTIC, 0.1)
    # two coefficients of 1/2 at k = +-1: 2 * (1/2) e^{0.2 pi}
    assert fr.norm_r(cos_series(), ctx) == pytest.approx(
        math.exp(0.2 * math.pi), rel=1e-14)


def test_norm_cos_gevrey():
    ctx = WeightedNormContext(GEVREY, 0.1)
    assert fr.norm_r(cos_series(), ctx) == pytest.approx(
        math.exp(math.sqrt(0.2 * math.pi)), rel=1e-14)


def test_norm_includes_lambda_derivative():
    vals = 1.0 + (GRID - 0.5)  # slope 1 in lambda
    f = fr.from_modes(GRID, fr.SCALAR, {0: vals})
    ctx = WeightedNormContext(ANALYTIC, 0.1)
    # sup(|f| + |df/dlambda|) = 1.25 + 1 at the right endpoint
    assert fr.norm_r(f, ctx) == pytest.approx(2.25, rel=1e-12)


def test_norm_vector_matrix_max_over_entries():
    v = fr.vector_from_scalars(fr.constant(GRID, 3.0), fr.constant(GRID, -7.0))
    ctx = WeightedNormContext(ANALYTIC, 0.1)
    assert fr.norm_r(v, ctx) == 7.0


def test_empty_grid_rejected():
    f = fr.zeros(np.array([]))
    with pytest.raises(ValueError):
        fr.norm_r(f, WeightedNormContext(ANALYTIC, 0.1))


# -- truncation -------------------------------------------------------------------


def test_truncate_tail_examples():
    f = fr.from_modes(GRID, fr.SCALAR, {0: 1.0, 3: 1.0})
    t = f.truncate(2)
    tail = f.project_tail(2)
    assert t.support == [0]
    assert tail.support == [3]
    g = fr.from_modes(GRID, fr.SCALAR, {0: 2.0, 1: 1.0, -2: 1.0})
    assert g.truncate(1).support == [0]  # average term only


def test_truncate_partition_exhaustive():
    rng = np.random.default_rng(5)
    f = rand_scalar(rng, GRID, 10)
    t, tail = f.truncate(5), f.project_tail(5)
    for k in f.coeffs:
        lhs = t.coeff(k) + tail.coeff(k)
        assert np.array_equal(lhs, f.coeff(k))
    assert set(t.coeffs) | set(tail.coeffs) == set(f.coeffs)
    assert not (set(t.coeffs) & set(tail.coeffs))


# -- average ----------------------------------------------------------------------


def test_average_examples():
    assert np.all(cos_series().average() == 0)
    assert np.all(fr.constant(GRID, 3.0).average() == 3.0)
    rng = np.random.default_rng(6)
    f = rand_scalar(rng, GRID, 7)
    quad = f.sample(N_THETA).mean(axis=0)
    assert np.abs(f.average() - quad).max() < 1e-12


# -- products ---------------------------------------------------------------------


def test_multiply_identity_and_phase():
    rng = np.random.default_rng(7)
    f = rand_scalar(rng, GRID, 6)
    prod = fr.multiply(f, fr.one(GRID))
    for k in f.coeffs:
        assert np.allclose(prod.coeff(k), f.coeff(k), rtol=0, atol=0)
    e1 = fr.from_modes(GRID, fr.SCALAR, {1: 1.0})
    em1 = fr.from_modes(GRID, fr.SCALAR, {-1: 1.0})
    p = fr.multiply(e1, em1)
    assert p.support == [0]
    assert np.allclose(p.coeff(0), 1.0)


def test_multiply_quadrature_oracle():
    rng = np.random.default_rng(8)
    f = rand_scalar(rng, GRID, 9)
    g = rand_scalar(rng, GRID, 6)
    prod = fr.multiply(f, g)
    pointwise = f.sample(N_THETA) * g.sample(N_THETA)
    fft = np.fft.fft(pointwise, axis=0) / N_THETA
    for k, v in prod.coeffs.items():
        assert np.abs(fft[k % N_THETA] - v).max() < 1e-10


def test_multiply_kind_dispatch():
    v = fr.conjugate_pair(cos_series())
    m = fr.eye(GRID)
    assert fr.multiply(m, v).kind == fr.C2VECTOR
    assert fr.multiply(m, m).kind == fr.SU11MATRIX
    with pytest.raises(fr.KindMismatch):
        fr.multiply(v, v)
    with pytest.raises(fr.KindMismatch):
        fr.multiply(v, m)


def test_banach_algebra_200_trials():
    rng = np.random.default_rng(9)
    for w in (ANALYTIC, GEVREY):
        ratio = vf.banach_ratio(rng, GRID, WeightedNormContext(w, 0.05), 100,
                                lam_linear=False)
        assert ratio <= 1 + 1e-10


# -- shifts and conjugation ----------------------------------------------------------


def test_shift_matches_pointwise():
    from kamtori import cfrac as cfr
    gm = cfr.golden_mean()
    rng = np.random.default_rng(10)
    f = rand_scalar(rng, GRID, 5)
    sh = f.shift(gm.phase)
    alpha = float(gm.alpha)
    # off the grid: the loop at theta + alpha
    direct = eval_theta_loop(f, 1, (np.arange(64) / N_THETA + alpha) % 1.0)
    assert np.abs(sh.sample(N_THETA, 0, 64) - direct).max() < 1e-9


def test_conj_series_pointwise():
    rng = np.random.default_rng(11)
    f = rand_scalar(rng, GRID, 5)
    c = f.conj()
    assert np.abs(c.sample(N_THETA, 0, 64)
                  - np.conj(f.sample(N_THETA, 0, 64))).max() < 1e-13


# -- exponentials ---------------------------------------------------------------------


def test_exp_i_scalar_trivial():
    z = fr.zeros(GRID)
    e = fr.exp_i_scalar(z, 1)
    assert e.support == [0]
    assert np.allclose(e.coeff(0), 1.0)
    c = fr.constant(GRID, 0.125)
    e2 = fr.exp_i_scalar(c, 2)
    assert np.allclose(e2.coeff(0), np.exp(2j * np.pi * 2 * 0.125))


def test_exp_i_scalar_pointwise_oracle():
    B = fr.from_modes(GRID, fr.SCALAR, {1: 0.005, -1: 0.005})  # 0.01 cos
    e = fr.exp_i_scalar(B, 1)
    vals = e.sample(N_THETA)
    expect = np.exp(2j * np.pi * B.sample(N_THETA))
    assert np.abs(vals - expect).max() < 1e-10
    assert np.abs(np.abs(vals) - 1).max() < 1e-10


def test_exp_i_scalar_rejects_complex():
    B = fr.from_modes(GRID, fr.SCALAR, {1: 1.0j})
    with pytest.raises(ValueError):
        fr.exp_i_scalar(B, 1)


def test_exp_i_scalar_inverse_identity():
    rng = np.random.default_rng(12)
    B = rand_scalar(rng, GRID, 4, scale=0.02, real=True)
    prod = fr.multiply(fr.exp_i_scalar(B, 1), fr.exp_i_scalar(B.scale(-1), 1))
    dev = fr.norm_r(prod - fr.one(GRID), WeightedNormContext(ANALYTIC, 0.05))
    assert dev < 1e-10


def test_exp_su11_constant_oracle():
    c = 0.3
    D = fr.off_diagonal(fr.constant(GRID, c))
    E, E_inv = fr.exp_su11(D)
    # 2x2 matrix exponential oracle for [[0, c], [c, 0]] and its inverse
    for mat, sign in ((E, 1.0), (E_inv, -1.0)):
        m = mat.coeff(0)[0]
        assert m[0, 0] == pytest.approx(np.cosh(c), rel=1e-14)
        assert m[0, 1] == pytest.approx(sign * np.sinh(c), rel=1e-14)
        assert m[1, 0] == pytest.approx(sign * np.sinh(c), rel=1e-14)


def test_exp_su11_determinant_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = rand_scalar(rng, GRID, 4, scale=0.02)
        E, E_inv = fr.exp_su11(fr.off_diagonal(d))
        vals = E.sample(256)
        det = vals[..., 0, 0] * vals[..., 1, 1] - vals[..., 0, 1] * vals[..., 1, 0]
        assert np.abs(det - 1).max() < 1e-12
        inv = E_inv.sample(256)
        prod = np.einsum("tlij,tljk->tlik", vals, inv)
        assert np.abs(prod - np.eye(2)).max() < 1e-12


def test_exp_su11_inverse_equals_exp_of_minus_D():
    # e^{-D} from the shared series equals the exponential of -D; negating
    # the products exactly may flip the sign of a zero part, so compare values
    rng = np.random.default_rng(19)
    for _ in range(5):
        D = fr.off_diagonal(rand_scalar(rng, GRID, 4, scale=0.05))
        _, E_inv = fr.exp_su11(D)
        direct, _ = fr.exp_su11(D.scale(-1.0))
        assert E_inv.support == direct.support
        assert np.array_equal(E_inv.data, direct.data)


def test_exp_su11_rejects_diagonal():
    D = fr.matrix_from_scalars(fr.constant(GRID, 0.1), fr.zeros(GRID),
                               fr.zeros(GRID), fr.constant(GRID, 0.1))
    with pytest.raises(ValueError):
        fr.exp_su11(D)


def test_exp_series_cap():
    big = fr.constant(GRID, 50.0)
    with pytest.raises(fr.PowerSeriesDiverged):
        fr.exp_i_scalar(big, 2)


# -- structure preservation --------------------------------------------------------------


def test_structure_preserved_by_algebra():
    rng = np.random.default_rng(14)
    v = fr.conjugate_pair(rand_scalar(rng, GRID, 4))
    a, b = rand_scalar(rng, GRID, 3), rand_scalar(rng, GRID, 3)
    W = fr.matrix_from_scalars(a, b, b.conj(), a.conj())
    assert fr.c2_pair_defect(v) < 1e-15
    assert fr.su11_defect(W) < 1e-15
    # products keep the patterns
    assert fr.c2_pair_defect(fr.multiply(W, v)) < 1e-13
    W2 = fr.matrix_from_scalars(*(rand_scalar(rng, GRID, 2)
                                  for _ in range(2)),
                                *(fr.zeros(GRID), fr.zeros(GRID)))
    prod = fr.multiply(W, W)
    assert fr.su11_defect(prod) < 1e-13
    assert fr.su11_defect(fr.exp_su11(fr.off_diagonal(a))[0]) < 1e-13
    assert fr.c2_pair_defect(v.truncate(3)) < 1e-15


# -- analytic norm ---------------------------------------------------------------------


def test_analytic_norm_examples():
    ctx = WeightedNormContext(ANALYTIC, 0.1)
    assert fr.analytic_norm(fr.one(GRID), ctx) == 1.0
    assert fr.analytic_norm(cos_series(), ctx) == pytest.approx(
        math.exp(0.2 * math.pi), rel=1e-14)


def test_analytic_norm_dominates_when_argument_large():
    # Lambda(y) <= y needs y >= 1 for gevrey: with 2 pi r >= 1 every
    # supported mode qualifies
    rng = np.random.default_rng(15)
    ctx = WeightedNormContext(GEVREY, 0.2)
    for _ in range(100):
        f = rand_scalar(rng, GRID, int(rng.integers(1, 20)))
        assert fr.norm_r(f, ctx) <= fr.analytic_norm(f, ctx) * (1 + 1e-12)


def test_analytic_norm_small_argument_counterexample():
    # recorded: for 2 pi |k| r < 1 the gevrey weight exceeds the analytic one
    f = fr.from_modes(GRID, fr.SCALAR, {1: 1.0})
    ctx = WeightedNormContext(GEVREY, 0.01)
    assert fr.norm_r(f, ctx) > fr.analytic_norm(f, ctx)


# -- jets -----------------------------------------------------------------------------


def test_jet_eval_and_compose():
    rng = np.random.default_rng(16)
    jet = fr.PowerFourierSeries(4, GRID, fr.C2VECTOR, {})
    for m in [(2, 0), (1, 1), (0, 3)]:
        jet.set_term(m, fr.conjugate_pair(rand_scalar(rng, GRID, 2)))
    d1 = rand_scalar(rng, GRID, 2, scale=0.1)
    d2 = d1.conj()
    val = jet.eval_at_series(d1, d2)
    # pointwise oracle
    x = np.stack([d1.sample(128), d2.sample(128)], axis=-1)
    direct = jet.eval_at_points(x)
    assert np.abs(val.sample(128) - direct).max() < 1e-12


def test_jet_affine_composition_exact():
    rng = np.random.default_rng(17)
    jet = fr.PowerFourierSeries(3, GRID, fr.C2VECTOR, {})
    jet.set_term((2, 0), fr.conjugate_pair(rand_scalar(rng, GRID, 2)))
    jet.set_term((1, 2), fr.conjugate_pair(rand_scalar(rng, GRID, 1)))
    e = [rand_scalar(rng, GRID, 1, scale=0.5) for _ in range(4)]
    d1 = rand_scalar(rng, GRID, 1, scale=0.2)
    d2 = rand_scalar(rng, GRID, 1, scale=0.2)
    comp = jet.compose_affine(e[0], e[1], e[2], e[3], d1, d2)
    assert all(sum(m) <= 3 for m in comp.terms)
    # pointwise oracle at random y
    n = 64
    for v in (0.05 + 0.02j, -0.07j):
        y = np.empty((n, len(GRID), 2), complex)
        y[..., 0] = v
        y[..., 1] = 0.3 * np.conj(v)
        x = np.empty_like(y)
        x[..., 0] = (e[0].sample(n) * y[..., 0]
                     + e[1].sample(n) * y[..., 1] + d1.sample(n))
        x[..., 1] = (e[2].sample(n) * y[..., 0]
                     + e[3].sample(n) * y[..., 1] + d2.sample(n))
        lhs = comp.eval_at_points(y)
        rhs = jet.eval_at_points(x)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_jet_derivative_matches_central_difference():
    rng = np.random.default_rng(18)
    jet = fr.PowerFourierSeries(4, GRID, fr.C2VECTOR, {})
    for m in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1),
              (2, 2), (0, 4)]:
        jet.set_term(m, fr.conjugate_pair(rand_scalar(rng, GRID, 2)))
    x = rng.uniform(-0.5, 0.5, (64, len(GRID), 2)).astype(complex)
    h = 1e-6
    for axis in (0, 1):
        der = jet.derivative_terms(axis)
        down = np.eye(2, dtype=int)[axis]
        assert set(der.terms) == {(m1 - down[0], m2 - down[1])
                                  for m1, m2 in jet.terms if (m1, m2)[axis]}
        step = h * down
        fd = (jet.eval_at_points(x + step)
              - jet.eval_at_points(x - step)) / (2 * h)
        exact = der.eval_at_points(x)
        assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact).max()
    # the degree-0 term drops out of both derivatives
    const = fr.PowerFourierSeries(4, GRID, fr.C2VECTOR,
                                  {(0, 0): jet.term((0, 0))})
    assert const.derivative_terms(0).is_zero()
    assert const.derivative_terms(1).is_zero()


def compose_affine_multinomial(jet, e11, e12, e21, e22, d1, d2):
    """x = E y + d substituted by the multinomial expansion
    x1^m1 = sum m1!/(a! b! c!) (e11 y1)^a (e12 y2)^b d1^c, and likewise
    x2^m2: the reference for the jet product."""
    def power(s, n):
        p = fr.one(GRID)
        for _ in range(n):
            p = fr.multiply(p, s)
        return p

    def expand(m, e1, e2, d):
        out = {}
        for a in range(m + 1):
            for b in range(m + 1 - a):
                w = math.factorial(m) // (math.factorial(a) * math.factorial(b)
                                          * math.factorial(m - a - b))
                s = fr.multiply(fr.multiply(power(e1, a), power(e2, b)),
                                power(d, m - a - b))
                out[(a, b)] = s.scale(float(w))
        return out

    out = fr.PowerFourierSeries(jet.d_max, GRID, jet.kind, {})
    for (m1, m2), f in sorted(jet.terms.items()):
        for (a1, b1), s1 in expand(m1, e11, e12, d1).items():
            for (a2, b2), s2 in expand(m2, e21, e22, d2).items():
                out.add_term((a1 + a2, b1 + b2),
                             fr.multiply(f, fr.multiply(s1, s2)))
    return out


def rand_jet(rng, kind, d_max, nterms):
    monos = [(a, d - a) for d in range(d_max + 1) for a in range(d + 1)]
    jet = fr.PowerFourierSeries(d_max, GRID, kind, {})
    for i in rng.choice(len(monos), nterms, replace=False):
        f = rand_scalar(rng, GRID, 2)
        jet.set_term(monos[i], fr.conjugate_pair(f) if kind == fr.C2VECTOR
                     else f)
    return jet


@pytest.mark.parametrize("kind", [fr.SCALAR, fr.C2VECTOR])
def test_jet_compose_matches_multinomial_expansion(kind):
    rng = np.random.default_rng(51)
    z = fr.zeros(GRID)
    for trial in range(6):
        jet = rand_jet(rng, kind, 4, 6)
        e = [rand_scalar(rng, GRID, 2, scale=0.5) for _ in range(4)]
        d = [rand_scalar(rng, GRID, 2, scale=0.3) for _ in range(2)]
        if trial % 3 == 1:
            e = [z] * 4             # x = d: the value in the algebra
        if trial % 3 == 2:
            d = [z] * 2             # a linear substitution
        comp = jet.compose_affine(*e, *d)
        ref = compose_affine_multinomial(jet, *e, *d)
        scale = max(float(np.abs(s.data).max()) for s in ref.terms.values())
        assert all(sum(m) <= 4 for m in comp.terms)
        for m in set(comp.terms) | set(ref.terms):
            a, b = comp.term(m), ref.term(m)
            for k in set(a.support) | set(b.support):
                assert np.abs(a.coeff(k) - b.coeff(k)).max() <= 1e-13 * scale


def test_jet_identity_substitution():
    rng = np.random.default_rng(52)
    one, z = fr.one(GRID), fr.zeros(GRID)
    for kind in (fr.SCALAR, fr.C2VECTOR):
        jet = rand_jet(rng, kind, 4, 8)
        comp = jet.compose_affine(one, z, z, one, z, z)
        assert set(comp.terms) == set(jet.terms)
        for m, f in jet.terms.items():
            assert np.array_equal(comp.term(m).modes, f.modes)
            assert np.array_equal(comp.term(m).data, f.data)


def test_jet_compose_products_do_not_grow_with_d_max(monkeypatch):
    rng = np.random.default_rng(53)
    e = [rand_scalar(rng, GRID, 1, scale=0.5) for _ in range(4)]
    d = [rand_scalar(rng, GRID, 1, scale=0.2) for _ in range(2)]
    f = [fr.conjugate_pair(rand_scalar(rng, GRID, 2)) for _ in range(3)]
    calls = []
    multiply = fr.multiply
    monkeypatch.setattr(fr, "multiply",
                        lambda a, b: calls.append(1) or multiply(a, b))
    counts = []
    for d_max in (2, 6):
        jet = fr.PowerFourierSeries(d_max, GRID, fr.C2VECTOR, {})
        for m, s in zip([(2, 0), (1, 1), (0, 2)], f):
            jet.set_term(m, s)
        calls.clear()
        jet.compose_affine(*e, *d)
        counts.append(len(calls))
    # Horner's rule in x2 takes 3 + 9 products for f_02 x2^2 and 3 for
    # f_11 x2, then in x1 3 + 9: no product by 1
    assert counts == [27, 27]


def test_jet_degree_guard():
    jet = fr.PowerFourierSeries(2, GRID, fr.SCALAR, {})
    with pytest.raises(ValueError):
        jet.set_term((2, 1), fr.one(GRID))


# -- dumps -------------------------------------------------------------------------------


def test_coeff_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    f = rand_scalar(rng, GRID, 6, scale=math.pi)
    path = tmp_path / "f.dump"
    fr.write_coeff_dump(path, f)
    g = fr.read_coeff_dump(path, GRID)
    assert set(g.coeffs) == set(f.coeffs)
    for k in f.coeffs:
        assert np.array_equal(g.coeff(k), f.coeff(k))  # bit-exact contract


def test_coeff_dump_of_restricted_series(tmp_path):
    # a series on points 0, 2, 3 of GRID is dumped with those indices; read
    # on GRID it holds the same bits there and 0 at the other points
    rng = np.random.default_rng(19)
    f = rand_scalar(rng, GRID, 6, scale=math.pi)
    idx = np.array([0, 2, 3])
    path = tmp_path / "f.dump"
    fr.write_coeff_dump(path, f.restrict(idx, GRID[idx]), idx)
    assert {int(line.split()[0]) for line in path.read_text().splitlines()} \
        == {0, 2, 3}
    g = fr.read_coeff_dump(path, GRID)
    assert np.array_equal(g.restrict(idx, GRID[idx]).data,
                          f.restrict(idx, GRID[idx]).data)
    assert not g.data[:, [1, 4]].any()


@pytest.mark.parametrize("kind", [fr.SCALAR, fr.C2VECTOR, fr.SU11MATRIX])
def test_restrict_keeps_columns_on_one_grid(kind):
    # the kept lambda-columns bit for bit, on the grid object given; a row
    # held only at the dropped points goes, and so does the drop rule's
    # reference to their values
    rng = np.random.default_rng(48)
    f, a = gapped(rng, kind)
    idx = np.array([1, 2, 4])
    grid = GRID[idx]
    g = f.restrict(idx, grid)
    assert g.lambda_grid is grid and g.support == f.support
    assert np.array_equal(g.data, f.data[:, idx])
    data = np.zeros((2, len(GRID)) + fr._COMP_SHAPE[kind], complex)
    data[0, idx] = 1e-30
    data[1, 0] = 1.0
    h = fr.FourierSeries(GRID, kind, np.array([0, 5]), data).restrict(idx,
                                                                       grid)
    assert h.support == [0]
    jet = fr.PowerFourierSeries(4, GRID, kind, {(2, 0): f, (1, 1): f.conj()})
    rj = jet.restrict(idx, grid)
    assert rj.lambda_grid is grid and set(rj.terms) == {(2, 0), (1, 1)}
    assert all(s.lambda_grid is grid for s in rj.terms.values())
    assert np.array_equal(rj.term((1, 1)).data, f.conj().data[:, idx])


# -- the coefficient store against per-mode reference loops ----------------------

GAPPED = (-7, -2, 0, 3, 8)
KINDS = (fr.SCALAR, fr.C2VECTOR, fr.SU11MATRIX)


def gapped(rng, kind, modes=GAPPED):
    """A random series on the given modes and its coefficients as a dict."""
    shape = (len(GRID),) + fr._COMP_SHAPE[kind]
    coeffs = {k: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for k in modes}
    return fr.from_modes(GRID, kind, coeffs), coeffs


def ref_cleaned(coeffs):
    # the drop rule, one mode at a time
    gmax = max((float(np.abs(v).max()) for v in coeffs.values()), default=0.0)
    return {k: v for k, v in coeffs.items()
            if float(np.abs(v).max()) >= 1e-16 * gmax and np.any(v)}


def assert_store(s, coeffs):
    """s holds exactly coeffs, bit for bit, in a sorted mode vector."""
    assert s.support == sorted(coeffs)
    assert s.data.shape == (len(coeffs), len(GRID)) + fr._COMP_SHAPE[s.kind]
    for k, v in coeffs.items():
        assert np.array_equal(s.coeff(k), v)


def ref_coeff_O(v, grid):
    """|f_k|_O of one coefficient: sup over lambda of |entry| +
    |d/dlambda entry|, max over entries."""
    if v.size == 0:
        return 0.0
    mag = np.abs(v)
    if len(grid) >= 2:
        mag = mag + np.abs(np.gradient(v, grid, axis=0))
    return float(mag.max())


@pytest.mark.parametrize("kind", KINDS)
def test_store_add_sub_scale_shift_conj(kind):
    from kamtori import cfrac as cfr
    gm = cfr.golden_mean()
    rng = np.random.default_rng(40)
    f, a = gapped(rng, kind)
    g, b = gapped(rng, kind, (-9, -2, 1, 3))
    summed = {k: a[k] + b[k] if k in b else a[k] for k in a}
    summed.update({k: v for k, v in b.items() if k not in a})
    assert_store(f + g, summed)
    assert_store(f + f, {k: v + v for k, v in a.items()})
    diff = {k: a[k] - b[k] if k in b else a[k] for k in a}
    diff.update({k: -v for k, v in b.items() if k not in a})
    assert_store(f - g, diff)
    lam = 1.0 + GRID
    factor = lam.reshape((len(GRID),) + (1,) * len(fr._COMP_SHAPE[kind]))
    assert_store(f.scale(lam), {k: v * factor for k, v in a.items()})
    assert_store(f.scale(2j), {k: v * 2j for k, v in a.items()})
    assert_store(f.shift(gm.phase), {k: v * gm.phase(k) for k, v in a.items()})
    assert_store(f.conj(), {-k: np.conj(v) for k, v in a.items()})


@pytest.mark.parametrize("kind", KINDS)
def test_store_truncate_tail_component_entry(kind):
    rng = np.random.default_rng(41)
    f, a = gapped(rng, kind)
    for K in (1, 3, 7, 8, 9):
        assert_store(f.truncate(K), {k: v for k, v in a.items() if abs(k) < K})
        assert_store(f.project_tail(K),
                     {k: v for k, v in a.items() if abs(k) >= K})
    if kind == fr.C2VECTOR:
        for i in (0, 1):
            assert_store(f.component(i),
                         ref_cleaned({k: v[:, i] for k, v in a.items()}))
    if kind == fr.SU11MATRIX:
        for i in (0, 1):
            for j in (0, 1):
                ref = {k: v[:, i, j] for k, v in a.items()}
                assert_store(f.entry(i, j), ref_cleaned(ref))


# the product of one left and one right coefficient, per rule of multiply
PAIR_PRODUCT = {
    (fr.SCALAR, fr.SCALAR): "l,l->l",
    (fr.SCALAR, fr.C2VECTOR): "l,li->li",
    (fr.C2VECTOR, fr.SCALAR): "li,l->li",
    (fr.SCALAR, fr.SU11MATRIX): "l,lij->lij",
    (fr.SU11MATRIX, fr.SCALAR): "lij,l->lij",
    (fr.SU11MATRIX, fr.C2VECTOR): "lij,lj->li",
    (fr.SU11MATRIX, fr.SU11MATRIX): "lij,ljk->lik",
}


@pytest.mark.parametrize("kinds", [(fr.SCALAR, fr.SCALAR),
                                   (fr.SCALAR, fr.C2VECTOR),
                                   (fr.SU11MATRIX, fr.SCALAR),
                                   (fr.SU11MATRIX, fr.C2VECTOR),
                                   (fr.SU11MATRIX, fr.SU11MATRIX)])
def test_store_multiply_per_mode(kinds):
    rng = np.random.default_rng(42)
    f, a = gapped(rng, kinds[0])
    g, b = gapped(rng, kinds[1], (-5, -4, 0, 6))
    ein = PAIR_PRODUCT[kinds]
    ref: dict = {}
    for k1, v1 in sorted(a.items()):
        for k2, v2 in sorted(b.items()):
            ref[k1 + k2] = ref.get(k1 + k2, 0) + np.einsum(ein, v1, v2)
    prod = fr.multiply(f, g)
    assert prod.support == sorted(ref_cleaned(ref))
    for k, v in ref.items():
        assert np.allclose(prod.coeff(k), v, rtol=1e-15, atol=0)


def test_store_multiply_drops_cancelled_rows():
    # (e_1 + e_-1)(e_1 - e_-1) = e_2 - e_-2: mode 0 cancels exactly
    f = fr.from_modes(GRID, fr.SCALAR, {1: 1.0, -1: 1.0})
    g = fr.from_modes(GRID, fr.SCALAR, {1: 1.0, -1: -1.0})
    assert fr.multiply(f, g).support == [-2, 2]


def test_store_defects_per_mode():
    rng = np.random.default_rng(43)
    for kind in KINDS:
        f, a = gapped(rng, kind)
        zero = np.zeros_like(a[0])
        worst = 0.0
        for k in set(a) | {-k for k in a}:
            c, cr = a.get(k, zero), np.conj(a.get(-k, zero))
            if kind == fr.SCALAR:
                d = np.abs(a.get(-k, zero) - np.conj(c))
            elif kind == fr.C2VECTOR:
                d = np.abs(c[:, 1] - cr[:, 0])
            else:
                d = np.maximum(np.abs(c[:, 1, 1] - cr[:, 0, 0]),
                               np.abs(c[:, 1, 0] - cr[:, 0, 1]))
            worst = max(worst, float(d.max()))
        defect = {fr.SCALAR: fr.real_defect, fr.C2VECTOR: fr.c2_pair_defect,
                  fr.SU11MATRIX: fr.su11_defect}[kind]
        assert defect(f) == worst
        # on a subset of the lambda-grid: the worst of those points only
        even = np.arange(0, len(GRID), 2)
        assert defect(f.restrict(even, GRID[even])) == max(
            float(defect(fr.FourierSeries(GRID[[i]], kind, f.modes,
                                          f.data[:, [i]]))) for i in even)
    # series with the structure have no defect
    d, _ = gapped(rng, fr.SCALAR)
    assert fr.real_defect(d + d.conj()) == 0.0
    assert fr.c2_pair_defect(fr.conjugate_pair(d)) == 0.0
    assert fr.su11_defect(fr.matrix_from_scalars(d, d.conj(), d, d.conj())) \
        == 0.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("weight", [ANALYTIC, GEVREY], ids=["analytic",
                                                            "gevrey"])
def test_store_norms_per_mode(kind, weight):
    rng = np.random.default_rng(44)
    f, a = gapped(rng, kind)
    ctx = WeightedNormContext(weight, 0.05)
    # the whole grid, and three of its points, as a level keeps them
    for idx in (np.arange(len(GRID)), np.array([0, 2, 3])):
        tot, analytic, sup = 0.0, 0.0, 0.0
        for k in sorted(a):       # ascending, as the store sums
            c = ref_coeff_O(a[k][idx], GRID[idx])
            y = 2 * math.pi * abs(k) * 0.05
            tot += c * math.exp(eval_lambda(weight, y))
            analytic += c * math.exp(2 * math.pi * abs(k) * 0.05)
            sup += float(np.abs(a[k][idx]).max())
        g = f.restrict(idx, GRID[idx])
        assert fr.norm_r(g, ctx) == tot
        assert fr.analytic_norm(g, ctx) == analytic
        assert g.sup_bound() == sup


def _wide_store(rows=500, L=257):
    """A (rows, L, 2, 2) complex store on an L-point lambda-grid, a mask
    of about 60% of that grid's points, and the grid."""
    rng = np.random.default_rng(45)
    shape = (rows, L, 2, 2)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = np.linspace(0.25, 0.75, L)
    return a, rng.random(L) < 0.6, grid


def test_blocked_row_reductions_match_whole_array():
    # 500 rows of 257 x 4 values: 15-row blocks, so block edges fall
    # inside the data and the last block is partial
    a, act, grid = _wide_store()
    assert fr.block_rows(a[0].size) == 15 and len(a) % 15 != 0
    # the whole grid, and the points of a level that keeps about 60% of it
    for d, g in ((a, grid), (a[:, act], grid[act])):
        ref = (np.abs(d) + np.abs(np.gradient(d, g, axis=1))).reshape(
            len(a), -1).max(axis=1)
        got = fr._row_max(d, g)
        assert np.array_equal(got, ref)         # bit for bit
        s = fr.FourierSeries(g, fr.SU11MATRIX, np.arange(len(a)), d)
        assert s.sup_bound() == sum(
            np.abs(d).reshape(len(a), -1).max(axis=1).tolist(), 0.0)


def test_blocked_row_reductions_bounded_memory():
    # the blocked reduction's temporaries stay near one block however many
    # modes and lambda points the store has: the store is 7.8 MiB, and one
    # |.| over all of it would already be 3.9 MiB of floats
    a, act, grid = _wide_store()
    for d, g in ((a, grid), (a[:, act], grid[act])):
        tracemalloc.start()
        try:
            fr._row_max(d, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("case", ["uniform", "masked", "two-point",
                                  "matrix"])
def test_cached_stencil_is_np_gradient(case):
    # the lambda-derivative of |.|_O from the cached spacing, bit for bit
    # np.gradient(blk, grid, axis=1), on the grids np.gradient treats apart;
    # "masked" is the points a mask keeps of a uniform grid, as a level does
    rng = np.random.default_rng(46)
    grid, shape = np.linspace(0.25, 0.75, 33), (7, 33)
    if case == "uniform":
        grid, shape = 0.25 + 0.0625 * np.arange(9), (7, 9)  # exact spacing
    elif case == "masked":
        grid = grid[rng.random(33) < 0.6]
        shape = (7, len(grid))
    elif case == "two-point":
        grid, shape = np.array([0.3, 0.55]), (7, 2)
    else:
        grid, shape = np.sort(rng.random(17)), (7, 17, 2, 2)
    blk = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stencil = fr._stencil(grid.tobytes())
    assert (stencil[1] is None) == (case in ("uniform", "two-point"))
    assert fr._stencil(grid.copy().tobytes()) is stencil   # cached by value
    want = np.gradient(blk, grid, axis=1)
    assert fr._gradient(blk, stencil).tobytes() == want.tobytes()


def test_add_equal_modes_matches_union_path():
    # the sum of two series on the same modes is the union path's sum bit
    # for bit, signed zeros included: -0.0 + -0.0 stays -0.0
    rng = np.random.default_rng(47)
    modes = np.array(GAPPED)
    for kind in KINDS:
        shape = (len(modes), len(GRID)) + fr._COMP_SHAPE[kind]
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a[1] = complex(-0.0, 1.0)
        b[1] = complex(-0.0, 2.0)
        a[2].real, b[2].real = 0.0, -0.0
        f = fr.FourierSeries(GRID, kind, modes, a)
        g = fr.FourierSeries(GRID, kind, modes, b)
        # g with one more mode, all zero: f + wider takes the union path
        wider = fr.FourierSeries(GRID, kind, np.append(modes, 20),
                                 np.concatenate((b, np.zeros_like(b[:1]))))
        got, want = f + g, f + wider
        assert got.support == want.support == list(GAPPED)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.signbit(got.data[1].real).all()
        assert not np.signbit(got.data[2].real).any()


def test_grid_check_by_value():
    # a grid equal in value but another object passes; another grid raises
    f = cos_series(GRID)
    g = cos_series(GRID.copy())
    assert f.lambda_grid is not g.lambda_grid
    assert np.array_equal((f + g).data, 2 * f.data)
    assert np.array_equal(fr.multiply(f, g).data,
                          fr.multiply(f, f).data)
    for grid in (GRID + 1e-3, GRID[:4]):
        h = cos_series(grid)
        with pytest.raises(ValueError, match="lambda grids differ"):
            f + h
        with pytest.raises(ValueError, match="lambda grids differ"):
            fr.multiply(f, h)


def test_store_zero_series_and_empty_grid():
    ctx = WeightedNormContext(ANALYTIC, 0.1)
    for kind in KINDS:
        z = fr.zeros(GRID, kind)
        assert z.is_zero() and z.support == [] and z.coeffs == {}
        assert z.data.shape == (0, len(GRID)) + fr._COMP_SHAPE[kind]
        assert (z + z).is_zero() and z.scale(3.0).is_zero()
        assert z.conj().is_zero() and z.truncate(3).is_zero()
        assert z.project_tail(3).is_zero() and z.max_mode == 0
        assert fr.norm_r(z, ctx) == 0.0 and z.sup_bound() == 0.0
        assert not np.any(z.sample(N_THETA, 0, 4))
        assert not np.any(z.coeff(2))
        assert fr.multiply(fr.one(GRID), z).is_zero()
    assert fr.real_defect(fr.zeros(GRID)) == 0.0
    assert fr.su11_defect(fr.zeros(GRID, fr.SU11MATRIX)) == 0.0
    assert fr.from_modes(GRID, fr.SCALAR, {3: 0.0}).is_zero()
    empty = np.array([])
    e = fr.from_modes(empty, fr.SCALAR, {1: 1.0})
    assert e.is_zero() and e.data.shape == (0, 0)
    assert e.sup_bound() == 0.0 and fr.real_defect(e) == 0.0
    assert fr.multiply(e, e).is_zero()
    assert e.sample(N_THETA, 0, 3).shape == (3, 0)


def test_store_refuses_non_finite_rows():
    # the drop rule keeps the rows at or above DROP_REL of the largest
    f = fr.from_modes(GRID, fr.SCALAR, {-2: 1.0, 3: 1e-17, 5: 2e-16})
    assert f.support == [-2, 5]
    assert np.array_equal(f.coeff(5), np.full(len(GRID), 2e-16 + 0j))
    # a NaN or inf row is refused, not dropped: an all-NaN series that came
    # back as the zero series would pass every later ||.|| <= bound row
    partial = np.ones(len(GRID))
    partial[:3] = np.nan
    for rows in ({-2: 1.0, 0: partial, 3: 1e-17},
                 {1: np.nan, 4: np.nan},
                 {1: np.inf, 2: 1.0},
                 {0: -np.inf}):
        with pytest.raises(ValueError, match="NaN or inf"):
            fr.from_modes(GRID, fr.SCALAR, rows)
    v = np.ones((len(GRID), 2), complex)
    v[4, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or inf"):
        fr.from_modes(GRID, fr.C2VECTOR, {0: 1.0, 1: v})
    # an operation whose result overflows is refused too
    big = fr.constant(GRID, 1e308)
    with pytest.raises(ValueError, match="NaN or inf"), \
            np.errstate(over="ignore"):
        big + big
    with pytest.raises(ValueError, match="NaN or inf"):
        big.scale(np.nan)


def test_store_coeffs_view_matches_store():
    rng = np.random.default_rng(45)
    for kind in KINDS:
        f, _ = gapped(rng, kind)
        view = f.coeffs
        assert list(view) == f.support == list(GAPPED)
        assert f.modes.dtype == np.int64
        assert np.all(np.diff(f.modes) > 0)
        for i, (k, v) in enumerate(view.items()):
            assert np.array_equal(v, f.data[i])
        with pytest.raises(ValueError):
            view[GAPPED[0]][0] = 1.0          # read-only


# -- the product kernels against per-pair references -----------------------------

EPS = np.finfo(float).eps
SUPPORTS = {
    "gapped": ((-7, -2, 0, 3, 8), (-5, -4, 0, 6)),
    "sparse": ((-40, 0, 3, 57), (-31, 2, 90)),
    "contiguous": (tuple(range(-30, 31)), tuple(range(-25, 26))),
}


def pair_reference(a, b, kinds, dtype=complex):
    """sum over the pairs k1 + k2 = k of a_k1 b_k2 in ascending k1, and the
    majorant sum |a_k1| |b_k2| of each output mode."""
    ein = PAIR_PRODUCT[kinds]
    ref, major = {}, {}
    for k1, v1 in sorted(a.items()):
        for k2, v2 in sorted(b.items()):
            k = k1 + k2
            ref[k] = ref.get(k, 0) + np.einsum(ein, v1.astype(dtype),
                                                v2.astype(dtype))
            major[k] = major.get(k, 0) + np.einsum(ein, np.abs(v1),
                                                    np.abs(v2))
    return ref, major


def kernels(kinds):
    return ("a", "b", "convolve") if kinds == (fr.SCALAR, fr.SCALAR) \
        else ("a", "b")


@pytest.mark.parametrize("support", sorted(SUPPORTS))
@pytest.mark.parametrize("kinds", sorted(fr._MUL_RULES))
def test_multiply_kernels_match_pair_reference(kinds, support, monkeypatch):
    rng = np.random.default_rng(46)
    left, right = SUPPORTS[support]
    f, a = gapped(rng, kinds[0], left)
    g, b = gapped(rng, kinds[1], right)
    ref, major = pair_reference(a, b, kinds)
    n = min(len(a), len(b))
    expect = fr.multiply(f, g)
    for plan in kernels(kinds):
        monkeypatch.setattr(fr, "_plan", lambda *args, plan=plan: plan)
        prod = fr.multiply(f, g)
        assert prod.kind == fr._MUL_RULES[kinds][0]
        assert prod.support == sorted(ref_cleaned(ref))
        for k, v in ref.items():
            assert np.all(np.abs(prod.coeff(k) - v) <= 4 * n * EPS * major[k])
        # the kernels differ only by the order of the sums
        assert prod.support == expect.support


@pytest.mark.parametrize("kinds", sorted(fr._MUL_RULES))
def test_multiply_kernels_drop_cancelled_rows(kinds, monkeypatch):
    # (e_1 + e_-1)(e_1 - e_-1) = e_2 - e_-2: mode 0 cancels exactly
    one_a = np.ones((len(GRID),) + fr._COMP_SHAPE[kinds[0]])
    one_b = np.ones((len(GRID),) + fr._COMP_SHAPE[kinds[1]])
    f = fr.from_modes(GRID, kinds[0], {1: one_a, -1: one_a})
    g = fr.from_modes(GRID, kinds[1], {1: one_b, -1: -one_b})
    for plan in kernels(kinds):
        monkeypatch.setattr(fr, "_plan", lambda *args, plan=plan: plan)
        assert fr.multiply(f, g).support == [-2, 2]


def test_multiply_crossover_sides():
    # small products take the slice adds, large scalar ones np.convolve,
    # and a factor with a wide gapped span is never zero-filled under a
    # loop over the other factor's many modes
    rng = np.random.default_rng(47)
    grid = np.linspace(0.25, 0.75, 33)
    small = rand_scalar(rng, grid, 3)
    large = rand_scalar(rng, grid, 60)
    wide = fr.from_modes(grid, fr.SCALAR, {-120: 1.0, 0: 2.0, 120: 3.0})
    assert fr._plan(small, small, 1) in ("a", "b")
    assert fr._plan(large, large, 1) == "convolve"
    assert fr._plan(large, wide, 1) == "b"
    assert fr._plan(wide, large, 1) == "a"
    m = fr.constant(grid, np.eye(2), fr.SU11MATRIX)
    assert fr._plan(m, fr.conjugate_pair(large), 4) == "a"
    for f, g in ((small, small), (large, large), (large, wide)):
        ref, major = pair_reference(f.coeffs, g.coeffs,
                                    (fr.SCALAR, fr.SCALAR))
        prod = fr.multiply(f, g)
        n = min(len(f.modes), len(g.modes))
        for k, v in ref.items():
            assert np.all(np.abs(prod.coeff(k) - v) <= 4 * n * EPS * major[k])


def test_multiply_tail_precision(monkeypatch):
    # every coefficient of the product, down to the smallest, is accurate
    # to a few ulps of its own majorant: what the weighted norms need
    modes = range(-50, 51)
    rng = np.random.default_rng(48)

    def decaying():
        return {k: np.exp(-0.3 * abs(k)) * (rng.standard_normal(len(GRID))
                                            + 1j * rng.standard_normal(len(GRID)))
                for k in modes}

    a, b = decaying(), decaying()
    f = fr.from_modes(GRID, fr.SCALAR, a)
    g = fr.from_modes(GRID, fr.SCALAR, b)
    ref, major = pair_reference(a, b, (fr.SCALAR, fr.SCALAR), np.clongdouble)
    n = len(modes)

    def worst(prod):
        return max(float((np.abs(prod.coeff(k) - ref[k]) / major[k]).max())
                   for k in ref)

    for plan in kernels((fr.SCALAR, fr.SCALAR)):
        monkeypatch.setattr(fr, "_plan", lambda *args, plan=plan: plan)
        prod = fr.multiply(f, g)
        assert prod.support == list(range(-100, 101))   # nothing dropped
        assert worst(prod) <= 4 * n * EPS
    # an FFT product carries an error of eps ||a|| ||b|| at every mode,
    # far above the majorant of the small tail modes
    nfft = 256                       # >= 201: no term wraps around
    fa, fb = np.zeros((nfft, len(GRID)), complex), np.zeros((nfft, len(GRID)),
                                                            complex)
    fa[f.modes % nfft], fb[g.modes % nfft] = f.data, g.data
    c = np.fft.ifft(np.fft.fft(fa, axis=0) * np.fft.fft(fb, axis=0), axis=0)
    ks = np.arange(-100, 101)
    fft_prod = fr.FourierSeries(GRID, fr.SCALAR, ks, c[ks % nfft])
    assert worst(fft_prod) > 1e3 * 4 * n * EPS


@pytest.mark.parametrize("kinds", [(fr.SCALAR, fr.SCALAR),
                                   (fr.SU11MATRIX, fr.C2VECTOR)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multiply_refuses_non_finite(kinds, bad):
    rng = np.random.default_rng(49)
    f, a = gapped(rng, kinds[0], (0, 1))
    g, _ = gapped(rng, kinds[1], (0, 3))
    a[1] = a[1].copy()
    a[1].flat[2] = bad
    # the drop rule alone would hide the bad row and shrink the support
    bad_f = fr.FourierSeries(GRID, kinds[0], f.modes, np.stack([a[0], a[1]]))
    with pytest.raises(ValueError, match="NaN or inf"):
        fr.multiply(bad_f, g)
    if kinds[0] == kinds[1]:
        with pytest.raises(ValueError, match="NaN or inf"):
            fr.multiply(g, bad_f)


# -- theta sampling -------------------------------------------------------------


def eval_theta_loop(s, n, j):
    """The values at theta = j/n, one mode at a time.  For integer j the
    argument k j is reduced mod n in integers, so it is exact; a float j is
    a point off the grid, and its argument k j / n is rounded."""
    j = np.asarray(j)
    out = np.zeros((len(j),) + s.data.shape[1:], complex)
    for k, v in zip(s.modes.tolist(), s.data):
        e = np.exp(2j * np.pi * ((k * j) % n / n))
        out += e.reshape((len(j),) + (1,) * v.ndim) * v[None, ...]
    return out


def both_kernels(f, n):
    rows = f.data.reshape(len(f.modes), -1)
    shape = (n,) + f.data.shape[1:]
    return (fr._sample_table(f.modes, rows, n, 0, n).reshape(shape),
            fr._sample_fft(f.modes, rows, n).reshape(shape))


@pytest.mark.parametrize("kind", KINDS)
def test_sample_matches_mode_loop(kind):
    rng = np.random.default_rng(50)
    for modes in (GAPPED, tuple(range(-40, 41)), (-300, 2, 511)):
        f, a = gapped(rng, kind, modes)
        scale = sum(float(np.abs(v).max()) for v in a.values())
        # full grids, then grids smaller than the span, where modes alias
        for n in (4096, 512, 64, 7, 1):
            ref = eval_theta_loop(f, n, np.arange(n))
            for vals in both_kernels(f, n) + (f.sample(n),):
                assert vals.shape == (n, len(GRID)) + fr._COMP_SHAPE[kind]
                assert np.abs(vals - ref).max() <= 1e-14 * scale
        # blocks of a grid take the table kernel
        for n, start, stop in ((4096, 1000, 1256), (512, 511, 512),
                               (64, 3, 40)):
            vals = f.sample(n, start, stop)
            assert vals.shape == (stop - start, len(GRID)) + \
                fr._COMP_SHAPE[kind]
            assert np.abs(vals - eval_theta_loop(f, n, np.arange(start, stop))
                          ).max() <= 1e-14 * scale
        assert f.sample(64, 3, 3).shape == (0, len(GRID)) + \
            fr._COMP_SHAPE[kind]
    z = fr.zeros(GRID, kind)
    assert z.sample(64, 10, 20).shape == (10, len(GRID)) + fr._COMP_SHAPE[kind]
    assert not np.any(z.sample(64))


def test_sample_high_modes_match_mpmath():
    # the rounded argument 2 pi theta k of an exp matrix is off by about
    # 2e-13 of the scale at mode 511; reducing j k mod n keeps 1e-14
    rng = np.random.default_rng(51)
    grid = GRID[:2]
    modes = (-300, 2, 511)
    coeffs = {k: rng.standard_normal(2) + 1j * rng.standard_normal(2)
              for k in modes}
    f = fr.from_modes(grid, fr.SCALAR, coeffs)
    scale = sum(float(np.abs(v).max()) for v in coeffs.values())
    cs = [[mpmath.mpc(complex(x)) for x in coeffs[k]] for k in modes]
    with mpmath.workdps(30):
        for n in (512, 4096):
            ref = np.empty((n, len(grid)), complex)
            for j in range(n):
                ph = [mpmath.expjpi(mpmath.mpf(2 * j * k) / n) for k in modes]
                for li in range(len(grid)):
                    ref[j, li] = complex(mpmath.fsum(p * c[li]
                                                     for p, c in zip(ph, cs)))
            for vals in both_kernels(f, n) + (f.sample(n),):
                assert np.abs(vals - ref).max() <= 1e-14 * scale


def test_sample_kernel_choice_and_range():
    # the FFT kernel only for the whole grid and only where it is cheaper:
    # many modes over few columns, not few modes over many columns
    assert fr._fft_wins(50, 4096, 5)
    assert not fr._fft_wins(20, 4096, 514)
    assert not fr._fft_wins(8, 256, 1028)
    f = fr.from_modes(GRID, fr.SCALAR, {k: 1.0 for k in range(-25, 25)})
    for start, stop in ((-1, 3), (3, 2), (0, 65)):
        with pytest.raises(ValueError):
            f.sample(64, start, stop)
