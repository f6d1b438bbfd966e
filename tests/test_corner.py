import io
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import PPoly

from afgeo import corner, curvature, mass, metrics, mollifier
from afgeo.grid import RadialGrid, Spline


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


def test_corner_grid_refuses_outer_cells_past_r_max():
    # 10^5 cells no shorter than fine_dr cannot fit between 3 r0 and r_max
    with pytest.raises(ValueError, match="overrun"):
        corner.make_corner_grid(0.5, 4.0, 300.0, outer_num=100000)


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
    mc, rep = corner.mollify(cm, 1e-2)
    assert rep.satisfied
    assert rep.neg_part < 1e-3
    # metric essentially untouched
    comb = cm.combined()
    sm = mc.sample(comb.grid)
    assert np.max(np.abs(sm.B - comb.B) / comb.B) < 1e-8


def test_mollify_valid_ladder(valid_corner):
    K_vals = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, rep = corner.mollify(valid_corner, eps)
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
    mc, rep = corner.mollify(valid_corner, 1e-2)
    assert rep.satisfied
    sm = mc.sample(target)
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


def test_descending_deviation_matches_ppoly(valid_corner):
    # the same coefficients through scipy's PPoly, whose descending
    # breakpoints expand every piece about its right end as Spline does
    dev = valid_corner.fits.dev
    ref = PPoly(dev.c, dev.x)
    r0 = valid_corner.r0
    # across every piece, then a batch in the last piece before r0
    for x in (np.concatenate([np.linspace(dev.x[-1] - 0.1, r0 + 0.5, 2001),
                              dev.x[1:-1], [r0, dev.x[0] + 1.0]]),
              np.linspace(r0 - 0.05, r0, 3000)):
        jets = dev.jets(x, 2)
        for k in range(3):
            want = ref(x, k)
            assert (np.max(np.abs(jets[k] - want))
                    <= 1e-14 * np.max(np.abs(want)))
    # r0 belongs to the inner piece, where D' is minus the derivative jump
    assert np.array_equal(dev(r0, 1), ref(r0, 1))
    assert np.allclose(dev(r0, 1), -valid_corner.fits.jump, rtol=1e-12)


def test_support_check_reads_the_corner_data(base):
    # the fits reproduce the node data to roundoff; a data value that no
    # longer matches them, far outside the collar, must fail the certificate
    cm = corner.corner_example(base, 4.0, 0.1)
    cm.fits  # fitted to the data before the bump
    cm.outer.A = cm.outer.A.copy()
    cm.outer.A[cm.outer.grid.node_at(5.0)] += 1e-12
    rep = corner._certificate(corner.MollifiedCorner(cm, 1e-2), 10.0, 1e-2)
    assert not rep.support_ok and not rep.satisfied


def test_support_check_refuses_a_far_node_the_collar_reaches():
    # r = 3.7 passes the far-node rule r <= r0 - sigma at sigma = 0.3, but
    # (r - r0) / sigma rounds to -0.9999999999999994, inside the collar
    # -1 < s < 1/2, so the collar blends there too
    r = np.concatenate([np.linspace(0.5, 3.6, 32), [3.7, 3.8, 3.9, 4.0],
                        np.linspace(4.1, 40.0, 200)])
    cm = corner.split_metric(
        metrics.build_conformal(0.4, 3, RadialGrid(r)), 4.0)
    for sig, ok in ((0.3, False), (0.29, True), (0.31, True)):
        rep = corner._certificate(corner.MollifiedCorner(cm, sig), 10.0, 0.5)
        assert rep.support_ok is ok, sig


def test_collar_tables_built_once(monkeypatch, valid_corner, invalid_corner):
    # every sigma of every corner reuses the one table build on the fixed
    # scaled collar; a cache that missed would rebuild them at each attempt
    builds, sigmas = [], []
    collar, init = mollifier.collar, corner.MollifiedCorner.__init__

    def counted_collar(s):
        builds.append(s is mollifier.COLLAR_S)
        return collar(s)

    def counted_init(self, cm, sigma):
        sigmas.append(sigma)
        init(self, cm, sigma)

    monkeypatch.setattr(mollifier, "collar", counted_collar)
    monkeypatch.setattr(corner.MollifiedCorner, "__init__", counted_init)
    mollifier.certificate_collar.cache_clear()
    for cm, eps in [(valid_corner, 1e-1), (valid_corner, 1e-2),
                    (valid_corner, 1e-3), (invalid_corner, 1e-1)]:
        corner.mollify(cm, eps)
    assert len(sigmas) == 14  # 3 valid, then 11 halvings of the invalid one
    assert builds.count(True) == 1
    # the moment tables: one build, read by every attempt
    info = mollifier.certificate_collar.cache_info()
    assert (info.misses, info.hits) == (1, 13)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is float64 here")
def test_collar_moments_g0_g1_summed_exactly():
    # the blend derivatives multiply G_0 and G_1 by up to 1 / sigma: on the
    # collar they must match exact rational sums over the float nodes and
    # weights to 1e-18, where a float64 sum errs by about 1e-16
    at, t, wt, dens, chi = mollifier.collar(mollifier.COLLAR_S)
    s = mollifier.COLLAR_S[at]
    H0 = mollifier.certificate_collar()[2][0]  # chi G on the collar
    for j in np.linspace(0, len(s) - 1, 41).astype(int):
        x = Fraction(s[j])
        for m in (0, 1):
            exact = sum(Fraction(w) * (x - Fraction(ti)) ** m
                        for w, ti in zip(wt[:, j], t[:, j]))
            exact -= x ** m if s[j] <= 0 else 0
            got = H0[j, m] / chi[0][j, 0]
            assert abs(got - float(exact)) <= 1e-18 + 4e-16 * abs(got), (j, m)


@pytest.mark.parametrize("sig", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("strength", [0.1, -0.1])
def test_collar_tables_match_direct_eval(base, sig, strength):
    # the moment tables at the exact collar points r0 + sigma s, against
    # eval's per-node convolution at the float radii rc, whose scaled radii
    # (rc - r0) / sigma differ from COLLAR_S by up to ulp(r0) / sigma: the
    # collar points are known only to ulp(r0)
    cm = corner.corner_example(base, 4.0, strength)
    mc = corner.MollifiedCorner(cm, sig)
    rc = cm.r0 + sig * mollifier.COLLAR_S
    raw, fast = mc.collar_jets()
    direct = mc.eval(rc, 2)
    tol = 10 * np.finfo(float).eps * cm.r0 / sig
    for f in "AB":
        for k in range(3):
            err = np.max(np.abs(fast[f][k] - direct[f][k]))
            assert err <= tol * np.max(np.abs(direct[f][k])), (f, k, err)
    # the unmollified fits carry no sigma^-k factor
    assert np.max(np.abs(raw - mc._raw(rc)[0])) <= 5e-15 * np.max(raw)


def test_wide_collar_takes_per_node_path(monkeypatch, valid_corner):
    # sigma = 0.25: the convolution nodes reach r0 - 0.375, across four
    # pieces of D (each 3/32 wide), where no one polynomial about r0 holds
    grid = valid_corner.combined().grid
    mc, rep = corner.mollify(valid_corner, 0.5)
    assert rep.sigma == 0.25 and rep.satisfied
    sm = mc.sample(grid)

    def per_node(self):
        rc = self.r0 + self.sigma * mollifier.COLLAR_S
        return self._raw(rc)[0], self.eval(rc, 2)

    monkeypatch.setattr(corner.MollifiedCorner, "collar_jets", per_node)
    mc_ref, rep_ref = corner.mollify(valid_corner, 0.5)
    sm_ref = mc_ref.sample(grid)
    assert rep == rep_ref
    assert np.array_equal(sm.A, sm_ref.A) and np.array_equal(sm.B, sm_ref.B)


def test_certificate_never_evaluates_collar_nodes(monkeypatch, base):
    # the benchmark's four mollify calls take the moment tables for every
    # collar, and the far nodes' sums from sigma-free tables: over the 14
    # attempts a spline sees each fresh corner's two pieces once, and never
    # the 16 x 2999 convolution nodes of a collar or a per-attempt far node
    valid, invalid = (corner.corner_example(base, 4.0, s) for s in (0.1, -0.1))
    sizes = []
    jets = Spline.jets

    def counted(self, r, order=0):
        sizes.append(np.size(r))
        return jets(self, r, order)

    monkeypatch.setattr(Spline, "jets", counted)
    for cm, eps in [(valid, 1e-1), (valid, 1e-2), (valid, 1e-3),
                    (invalid, 1e-1)]:
        corner.mollify(cm, eps)
    pieces = [valid.inner.grid.num, valid.outer.grid.num]
    assert sorted(sizes) == sorted(pieces * 2)


def _composite_certificate(mc, K_target, epsilon):
    """The certificate as it was measured before the sigma-free tables: one
    trapezoid over the far nodes and the collar, and the support check by
    evaluating the mollified metric at every far node."""
    cm = mc.cm
    n = cm.n
    sig = mc.sigma
    ri = cm.inner.grid.r
    ro = cm.outer.grid.r
    Ri, Ro = (curvature.scalar_curvature(p) for p in (cm.inner, cm.outer))
    keep_i = ri <= mc.r0 - sig
    keep_o = ro >= mc.r0 + sig
    rc = mc.r0 + sig * mollifier.COLLAR_S
    raw, jet = mc.collar_jets()
    Rc = curvature.scalar(n, rc, [*jet["A"], *jet["B"]])
    Ac, Bc = jet["A"][0], jet["B"][0]
    r = np.concatenate([ri[keep_i], rc, ro[keep_o]])
    R = np.concatenate([Ri[keep_i], Rc, Ro[keep_o]])
    A = np.concatenate([cm.inner.A[keep_i], Ac, cm.outer.A[keep_o]])
    B = np.concatenate([cm.inner.B[keep_i], Bc, cm.outer.B[keep_o]])
    dens = metrics.volume_element(n, r, A, B)
    neg = np.where(R < 0, -R, 0.0)
    neg_part = float(np.trapezoid(neg * dens, r))
    neg_measure = float(np.trapezoid((R < 0) * dens, r))
    K_measured = float(np.min(R))
    A0, B0 = raw.T
    ratios = np.concatenate([Ac / A0, Bc / B0])
    ni = np.count_nonzero(keep_i)
    far = np.r_[:ni, ni + len(rc):len(r)]
    jet_far = mc.eval(r[far])
    moved = max(np.max(np.abs(jet_far[f][0] - v[far]))
                for f, v in zip("AB", (A, B)))
    support_ok = bool(moved < 1e-14)
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    satisfied = (neg_part < epsilon and K_measured > -K_target
                 and lo >= 1 - epsilon and hi <= 1 + epsilon and support_ok)
    return corner.SmoothingReport(epsilon, sig, K_measured, neg_part,
                                  neg_measure, lo, hi, support_ok,
                                  bool(satisfied))


_CORNERS = {
    "valid": lambda base: corner.corner_example(base, 4.0, 0.1),
    "invalid": lambda base: corner.corner_example(base, 4.0, -0.1),
    # R < 0 on both pieces: the inner far nodes add to the sums too
    "split-bump": lambda base: corner.split_metric(
        metrics.build_angular_bump(0.2, 3, base.grid), 4.0)}


# 0.25: sigma > 1/32 drops far nodes next to r0; 0.5: the per-node collar;
# 2: the first collar, sigma = 4, reaches r = 0, where R is nan
@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
@pytest.mark.parametrize("eps", [1e-3, 1e-1, 0.25, 0.5, 2.0])
@pytest.mark.parametrize("kind", sorted(_CORNERS))
def test_certificate_matches_composite_grid(monkeypatch, base, eps, kind):
    cm = _CORNERS[kind](base)
    attempts = []
    certificate = corner._certificate

    def recorded(mc, K_target, epsilon):
        rep = certificate(mc, K_target, epsilon)
        attempts.append((_composite_certificate(mc, K_target, epsilon), rep))
        return rep

    monkeypatch.setattr(corner, "_certificate", recorded)
    corner.mollify(cm, eps)
    assert attempts
    for want, got in attempts:
        for f, v in vars(want).items():
            if f in ("neg_part", "neg_measure"):
                assert getattr(got, f) == pytest.approx(v, rel=1e-13,
                                                        nan_ok=True), f
            else:
                assert getattr(got, f) == v or np.isnan([getattr(got, f), v]).all(), f


@pytest.mark.parametrize("side", ["inner", "outer"])
def test_support_check_reads_the_far_node_next_to_the_collar(base, side):
    # sigma = 1/32, the fine spacing: r0 -/+ sigma is a node outside the
    # collar, r0 a node inside it; the fits are built before the data moves
    sig = 1.0 / 32
    for r, fails in ((4.0 + (sig if side == "outer" else -sig), True),
                     (4.0, False)):
        cm = corner.corner_example(base, 4.0, 0.1)
        cm.fits
        piece = getattr(cm, side)
        piece.A = piece.A.copy()
        piece.A[piece.grid.node_at(r)] += 1e-12
        rep = corner._certificate(corner.MollifiedCorner(cm, sig), 10.0, 0.5)
        assert rep.support_ok is not fails, r


@pytest.mark.parametrize("eps", [0.0, -0.01, np.nan, np.inf])
def test_mollify_refuses_epsilon_not_finite_positive(valid_corner, eps):
    with pytest.raises(ValueError, match="finite and > 0"):
        corner.mollify(valid_corner, eps)


def test_gauss_legendre_matches_leggauss():
    from numpy.polynomial.legendre import leggauss

    z, w = mollifier.gauss_legendre()
    x, v = leggauss(16)
    assert np.max(np.abs(z - x)) <= 1e-16
    assert np.max(np.abs(w - v)) <= 4e-16
    # 16 points integrate degree 31 exactly
    assert abs(np.sum(w * z ** 30) - 2 / 31) <= 1e-15
    assert abs(np.sum(w * z ** 31)) <= 1e-15
