import io

import numpy as np
import pytest

from afgeo import corner, curvature, mass, metrics
from afgeo.grid import RadialGrid


@pytest.fixture(scope="module")
def base():
    grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32, outer_num=512)
    return metrics.build_schwarzschild_isotropic(1.0, grid)


@pytest.fixture(scope="module")
def valid_corner(base):
    return corner.corner_example(base, 4.0, 0.1)


@pytest.fixture(scope="module")
def invalid_corner(base):
    return corner.corner_example(base, 4.0, -0.1)


def test_corner_grid_has_interface_node():
    g = corner.make_corner_grid(0.5, 4.0, 300.0)
    assert g.node_at(4.0) is not None
    assert g.r_max == pytest.approx(300.0)


def test_smooth_split_trivial_condition(base):
    cm = corner.split_metric(base, 4.0)
    Hm, Hp, ok = corner.corner_condition(cm)
    assert ok
    assert abs(Hm - Hp) < 1e-5


def test_condition_matches_jump_formula(base, valid_corner):
    Hm, Hp, ok = corner.corner_condition(valid_corner)
    assert ok
    i0 = base.grid.node_at(4.0)
    pred = (base.n - 1) * 0.1 / (2.0 * np.sqrt(base.A[i0]) * base.B[i0])
    assert (Hm - Hp) == pytest.approx(pred, rel=1e-4)


def test_negative_strength_violates(invalid_corner):
    Hm, Hp, ok = corner.corner_condition(invalid_corner)
    assert not ok and Hm < Hp


def test_inner_piece_nonnegative_scalar(valid_corner):
    R = curvature.scalar_curvature(valid_corner.inner)
    assert np.min(R) > -1e-9
    assert valid_corner.inner.check_smooth_center()


def test_strength_cap(base):
    with pytest.raises(ValueError):
        corner.corner_example(base, 4.0, 0.5)  # inner factor would lose R >= 0


def test_discontinuous_pieces_rejected(base, valid_corner):
    bad_inner = valid_corner.inner.copy()
    bad_inner.A = bad_inner.A * 1.01
    with pytest.raises(ValueError):
        corner.CornerMetric(bad_inner, valid_corner.outer, 4.0, 3, 1.0)


def test_mass_unchanged_by_corner(base, valid_corner):
    comb = valid_corner.combined()
    radii = [min(comb.grid.r, key=lambda x: abs(x - t)) for t in (50, 100, 200)]
    rep = mass.adm_mass(comb, radii)
    assert abs(rep.mass - 16 * np.pi) / (16 * np.pi) < 1e-3


def test_dump_load_roundtrip(valid_corner):
    text = valid_corner.dumps()
    assert "# corner r0=4" in text
    back = corner.CornerMetric.load(io.StringIO(text))
    assert back.r0 == valid_corner.r0
    assert np.array_equal(back.inner.B, valid_corner.inner.B)
    assert np.array_equal(back.outer.A, valid_corner.outer.A)


def test_mollify_identity_for_smooth(base):
    # smooth base with R > 0 everywhere, so the certificate is noise-immune
    smooth = metrics.build_conformal(0.5, 3, base.grid)
    cm = corner.split_metric(smooth, 4.0)
    sm, rep = corner.mollify(cm, 1e-2)
    assert rep.satisfied
    assert rep.neg_part < 1e-3
    # metric essentially untouched
    comb = cm.combined()
    assert np.max(np.abs(sm.B - comb.B) / comb.B) < 1e-8


def test_mollify_valid_ladder(valid_corner):
    K_vals = []
    for eps in (1e-1, 1e-2, 1e-3):
        sm, rep = corner.mollify(valid_corner, eps)
        assert rep.satisfied, f"certificate failed at eps={eps}"
        assert rep.neg_part < eps
        assert rep.sandwich_lo >= 1 - eps and rep.sandwich_hi <= 1 + eps
        assert rep.support_ok
        K_vals.append(rep.K_measured)
    # single K bounds the whole ladder
    assert min(K_vals) > -10.0


def test_mollify_k_uniform_deep_ladder():
    grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 64,
                                   outer_num=1024)
    cm = corner.corner_example(
        metrics.build_schwarzschild_isotropic(1.0, grid), 4.0, 0.1)
    K_vals = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        _, rep = corner.mollify(cm, eps)
        assert rep.satisfied
        K_vals.append(rep.K_measured)
    assert min(K_vals) > -10.0


def test_mollify_invalid_floor(invalid_corner):
    floors = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, rep = corner.mollify(invalid_corner, eps)
        assert not rep.satisfied
        floors.append(rep.neg_part)
    # negative part does not vanish along the ladder
    assert min(floors) > 1.0


def test_mollified_sampling_on_foreign_grid(valid_corner):
    target = RadialGrid.staggered(300.0, 2048)
    sm, rep = corner.mollify(valid_corner, 1e-2, grid=target)
    assert rep.satisfied
    assert sm.grid is target
    assert np.all(sm.A > 0) and np.all(sm.B > 0)


def test_deviation_matches_spline_difference(valid_corner):
    # sigma = 0.2: the convolution nodes reach r0 - 0.3, across several pieces
    fits = valid_corner.fits
    r0 = valid_corner.r0
    x = np.linspace(r0 - 1.5 * 0.2, r0, 301)
    assert np.count_nonzero((fits.dev.x > x[0]) & (fits.dev.x < r0)) >= 1
    for k in range(3):
        ref = fits.inner(x, k) - fits.outer(x, k)
        assert np.max(np.abs(fits.dev(x, k) - ref)) < 1e-13
    assert np.all(fits.dev(np.linspace(r0 + 1e-9, r0 + 0.3, 50)) == 0.0)
    assert np.allclose(fits.jump, fits.outer(r0, 1) - fits.inner(r0, 1),
                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("sig, h, blend_tol, inner_tol", [
    (1e-2, 1e-5, (1e-7, 1e-4), (5e-6, 1e-2)),
    (0.2, 1e-4, (1e-7, 1e-5), (5e-6, 1e-3)),   # blend terms well above noise
])
def test_eval_derivatives_match_differences(valid_corner, sig, h, blend_tol,
                                            inner_tol):
    mc = corner.MollifiedCorner(valid_corner, sig)
    # blend zone (sigma/2 < |r - r0| < sigma): the quadrature rule is fixed,
    # so eval's derivatives are those of its values up to the step error;
    # inside, the split point moves with r and adds the 16-point rule's error
    for zone, (tol1, tol2) in (([-0.9, -0.7, -0.6, 0.6, 0.8], blend_tol),
                               ([-0.3, -0.1, 0.0, 0.1, 0.3], inner_tol)):
        r = valid_corner.r0 + sig * np.array(zone)
        jet = mc.eval(r, 2)
        lo, mid, hi = (mc.eval(r + s * h) for s in (-1, 0, 1))
        for f in "AB":
            d1 = (hi[f][0] - lo[f][0]) / (2 * h)
            d2 = (hi[f][0] - 2 * mid[f][0] + lo[f][0]) / h ** 2
            assert np.max(np.abs(d1 - jet[f][1])) < tol1
            assert np.max(np.abs(d2 - jet[f][2])) < tol2


def test_mollify_k_free_of_blend_roundoff(valid_corner):
    # sigma = 1e-6 at eps = 1e-3: blend derivatives grow like sigma^-2, so any
    # roundoff in the deviation would show up in inf R
    K = [corner.mollify(valid_corner, eps)[1].K_measured for eps in (1e-2, 1e-3)]
    assert abs(K[1] - K[0]) < 1e-3 * abs(K[0])
