import math
import tracemalloc

import numpy as np
import pytest

from kamtori import cfrac as cfr
from kamtori import fourier as fr
from kamtori import kam
from kamtori import model as md
from kamtori import verify as vf

GRID = np.linspace(0.25, 0.75, 7)
GM = cfr.golden_mean()
N_THETA = 256
SQ2 = math.sqrt(2.0)


def empty_spec(eps=0.0):
    return md.SkewMapSpec(eps=eps,
                          N=fr.PowerFourierSeries(4, GRID, fr.C2VECTOR, {}),
                          cf=GM, lambda_grid=GRID)


def test_conjugate_zero_perturbation():
    conj = md.conjugate_to_su11(empty_spec())
    assert conj.U.is_zero() and conj.W.is_zero() and conj.R.is_zero()


def test_conjugate_constant_forcing():
    eps = 1e-8
    spec = md.build_preset("constant_forcing", eps, GM, GRID, d_max=4)
    conj = md.conjugate_to_su11(spec)
    # N = (cos, sin): U = (eps/sqrt2) (cos + i sin, conj)^T = e^{i2pi theta}
    u0 = conj.U.component(0)
    assert np.allclose(u0.coeff(1), eps / SQ2, rtol=1e-14)
    assert np.abs(u0.coeff(-1)).max() < 1e-22  # cos + i sin = e^{i2pi theta}
    assert conj.W.is_zero() and conj.R.is_zero()
    assert fr.c2_pair_defect(conj.U) < 1e-20


def test_conjugate_identity_linear_part():
    # S = eps I -> W display entries W1 = 2 eps, W2 = 0, matrix = eps I
    eps = 1e-3
    jet = fr.PowerFourierSeries(4, GRID, fr.C2VECTOR, {})
    jet.set_term((1, 0), fr.vector_from_scalars(fr.one(GRID), fr.zeros(GRID)))
    jet.set_term((0, 1), fr.vector_from_scalars(fr.zeros(GRID), fr.one(GRID)))
    spec = md.SkewMapSpec(eps=eps, N=jet, cf=GM, lambda_grid=GRID)
    conj = md.conjugate_to_su11(spec)
    m = conj.W.coeff(0)
    assert np.allclose(m[:, 0, 0], eps, rtol=1e-13)
    assert np.abs(m[:, 0, 1]).max() < 1e-18
    W1_display = 2 * m[0, 0, 0]
    assert W1_display == pytest.approx(2 * eps, rel=1e-13)


def test_conjugation_identity_pointwise():
    # MF(M^{-1} X) = A X + U + W X + R(X) on a grid, |x| < s/2
    rng = np.random.default_rng(30)
    spec = md.build_preset("generating", 1e-4, GM, GRID, d_max=4)
    conj = md.conjugate_to_su11(spec)
    A = np.exp(2j * np.pi * GRID)
    for _ in range(5):
        v = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.1
        X = np.empty((N_THETA, len(GRID), 2), complex)
        X[..., 0] = v
        X[..., 1] = np.conj(v)
        x = np.einsum("ij,tlj->tli", md.M_INV, X)
        lhs = np.einsum("ij,tlj->tli", md.M_MAT, spec.eval_F(x))
        rhs = np.stack([A[None, :] * X[..., 0],
                        np.conj(A)[None, :] * X[..., 1]], axis=-1)
        rhs = rhs + conj.U.sample(N_THETA)
        rhs = rhs + np.einsum("tlij,tlj->tli", conj.W.sample(N_THETA), X)
        rhs = rhs + conj.R.eval_at_points(X)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_conjugate_R_jet_swap_symmetry():
    spec = md.build_preset("generating", 1e-4, GM, GRID, d_max=4)
    conj = md.conjugate_to_su11(spec)
    assert conj.R.low_degree_mass() == 0.0
    assert conj.R.conj_swap_defect() < 1e-18
    swap = [r for r in conj.rows if r.check == "R conjugate-swap symmetry"]
    assert len(swap) == 1 and swap[0].passed and swap[0].gating


def test_conjugate_R_swap_row_fails_on_broken_pair():
    # an imaginary x^2 coefficient in the second component makes the map
    # complex, so R's coefficients stop being conjugate-swapped pairs
    spec = md.build_preset("generating", 1e-4, GM, GRID, d_max=4)
    f = spec.N.term((2, 0))
    spec.N.set_term((2, 0), fr.vector_from_scalars(
        f.component(0), f.component(1).scale(1j)))
    row = [r for r in md.conjugate_to_su11(spec).rows
           if r.check == "R conjugate-swap symmetry"][0]
    assert not row.passed and row.gating
    assert row.actual > 1e-6


def test_check_area_rotation():
    row = md.check_area(empty_spec())
    assert row.passed
    assert row.actual <= 1e-10


def test_check_area_generating():
    spec = md.build_preset("generating", 1e-6, GM, GRID, d_max=4)
    row = md.check_area(spec)
    assert row.passed
    assert row.actual <= 1e-8


def test_check_area_nonsymplectic_counterexample():
    eps = 1e-6
    spec = md.build_preset("nonsymplectic", eps, GM, GRID, d_max=4)
    row = md.check_area(spec)
    assert not row.passed
    assert 0.1 * eps <= row.actual <= 10 * eps  # |det - 1| ~ eps


def test_residual_zero_map_zero_torus():
    res, rows = md.residual(empty_spec(), fr.zeros(GRID, fr.C2VECTOR),
                            n_theta=256)
    assert res.max() == 0.0
    # leaving the analyticity ball decides the exit code
    [ball] = [r for r in rows if r.check.startswith("torus stays in")]
    assert ball.gating and ball.passed and ball.detail == ""


def test_residual_level0_equals_forcing_size():
    eps = 1e-8
    spec = md.build_preset("constant_forcing", eps, GM, GRID)
    res, _ = md.residual(spec, fr.zeros(GRID, fr.C2VECTOR), n_theta=512)
    assert res.max() == pytest.approx(eps, rel=1e-10)  # |N(0,theta)| = 1


def test_residual_lipschitz_in_noise():
    eps = 1e-8
    spec = md.build_preset("constant_forcing", eps, GM, GRID)
    base = fr.zeros(GRID, fr.C2VECTOR)
    res0, _ = md.residual(spec, base, n_theta=512)
    noise = 1e-6
    pert = fr.conjugate_pair(fr.constant(GRID, noise / SQ2))
    res1, _ = md.residual(spec, base + pert, n_theta=512)
    bump = res1.max() - res0.max()
    assert 0.05 * noise <= bump <= 20 * noise


def residual_pointwise(spec, X, n_theta):
    """F(K) - K(. + alpha) evaluated pointwise on the whole theta-grid for
    the torus X: the reference for model.residual.  Returns (per-lambda
    sup, sup |K|).  X1 is sampled on the theta-blocks model.residual takes
    (fr.block_rows(2 L) points; a single block is the whole grid, which
    may take the FFT kernel), so that sup |K| can be compared bit for
    bit."""
    X1 = X.component(0)
    step = fr.block_rows(2 * len(spec.lambda_grid))
    v = np.concatenate([X1.sample(n_theta, lo, min(lo + step, n_theta))
                        for lo in range(0, n_theta, step)])
    K = np.stack([SQ2 * v.real, SQ2 * v.imag], axis=-1).astype(complex)
    FK = spec.eval_F(K)
    Kshift = md.torus_K(X1.shift(spec.cf.phase).sample(n_theta))
    diff = FK - Kshift
    per_lambda = np.sqrt((np.abs(diff) ** 2).sum(axis=-1)).max(axis=0)
    kmax = float(np.sqrt((np.abs(K) ** 2).sum(axis=-1)).max())
    return per_lambda, kmax


@pytest.mark.parametrize("preset", ["generating", "nonsymplectic"])
def test_residual_matches_pointwise_formula(preset):
    rng = np.random.default_rng(33)
    spec = md.build_preset(preset, 0.05, GM, GRID)
    # 4096: a partial last theta-block; 1000: one block, the whole grid
    for n_theta in (4096, 1000):
        for _ in range(3):
            X1 = vf.rand_scalar(rng, GRID, 6, scale=0.02)
            X = fr.conjugate_pair(X1)
            res, rows = md.residual(spec, X, n_theta=n_theta)
            ref, kmax = residual_pointwise(spec, X, n_theta)
            assert ref.max() > 1e-3
            assert np.abs(res - ref).max() <= 1e-12 * ref.max()
            [ball] = [r for r in rows if r.check.startswith("torus stays in")]
            assert ball.actual == kmax


def test_residual_ball_row_reads_only_active_lambda():
    # |K| = sqrt2 |X1| = 0.8 > s only at the first lambda; a level that
    # excludes it holds the map and the torus at the other points only
    spec = empty_spec()
    vals = np.full(len(GRID), 0.01, complex)
    vals[0] = 0.8 / SQ2
    X = fr.conjugate_pair(fr.constant(GRID, vals))
    active = np.arange(1, len(GRID))

    def ball(spec, X):
        _, rows = md.residual(spec, X, n_theta=64)
        [row] = [r for r in rows if r.check.startswith("torus stays in")]
        return row

    row = ball(spec.restrict(active, GRID[active]),
               X.restrict(active, GRID[active]))
    assert row.passed
    assert row.actual == pytest.approx(SQ2 * 0.01, rel=1e-12)
    row = ball(spec, X)
    assert not row.passed
    assert row.actual == pytest.approx(0.8, rel=1e-12)


def test_residual_memory_stays_in_theta_blocks():
    grid = np.linspace(0.25, 0.75, 257)
    spec = md.build_preset("generating", 1e-3, GM, grid)
    X1 = vf.rand_scalar(np.random.default_rng(34), grid, 6, scale=0.01)
    X = fr.conjugate_pair(X1)
    tracemalloc.start()
    try:
        md.residual(spec, X, n_theta=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # half of one (4096, L, 2) complex array over the whole theta-grid
    assert peak < 4096 * len(grid) * 2 * 16 / 2


def test_reconstruct_empty_and_constant_factor():
    # the level-0 state carries no transform: its torus is X = 0
    assert kam.initial_state(fr.zeros(GRID, fr.C2VECTOR),
                             fr.zeros(GRID, fr.SU11MATRIX),
                             fr.PowerFourierSeries(4, GRID, fr.C2VECTOR, {}),
                             GRID).torus().is_zero()
    c = 0.1 + 0.05j
    X = kam.TransformFactor(fr.eye(GRID),
                            fr.conjugate_pair(fr.constant(GRID, c))).offset
    # K = M^{-1}(c, cbar)^T = sqrt2 (Re c, Im c)
    K = md.torus_K(X.component(0).sample(10))
    assert K.shape == (10, len(GRID), 2)
    assert np.allclose(K[..., 0], SQ2 * c.real)
    assert np.allclose(K[..., 1], SQ2 * c.imag)
    assert fr.c2_pair_defect(X) < 1e-15


def test_reconstruct_invariant_under_zero_factor():
    rng = np.random.default_rng(31)
    d = fr.from_modes(GRID, fr.SCALAR,
                      {1: 0.1 * rng.standard_normal(), 0: 0.05})
    fac = kam.TransformFactor(fr.eye(GRID), fr.conjugate_pair(d))
    ident = kam.TransformFactor.identity(GRID)
    assert (fac.then(ident.matrix, ident.offset).offset
            - fac.offset).sup_bound() <= 1e-12


def test_torus_stays_real_through_factors():
    d1 = fr.from_modes(GRID, fr.SCALAR, {1: 0.02 + 0.01j})
    d2 = fr.from_modes(GRID, fr.SCALAR, {-2: 0.03 - 0.01j})
    E1, _ = fr.exp_su11(fr.off_diagonal(d1))
    E2, _ = fr.exp_su11(fr.off_diagonal(d2))
    off1 = fr.conjugate_pair(fr.from_modes(GRID, fr.SCALAR, {2: 0.05j}))
    off2 = fr.conjugate_pair(fr.from_modes(GRID, fr.SCALAR, {1: 0.04}))
    X = kam.TransformFactor(E1, off1).then(E2, off2).offset
    assert fr.c2_pair_defect(X) < 1e-12
    K = md.torus_K(X.component(0).sample(N_THETA))
    assert np.abs(np.imag(K)).max() < 1e-12


def test_unknown_preset():
    with pytest.raises(ValueError):
        md.build_preset("nope", 1e-8, GM, GRID)
