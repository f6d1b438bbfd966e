import dataclasses
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from afgeo import cli, corner, curvature, mass, metrics
from afgeo.grid import RadialGrid, Spline, fornberg_weights


def split_metric(metric, r0):
    """View a single radial metric as a (trivial) corner at the node r0."""
    i0 = metric.grid.node_at(r0)
    if i0 is None:
        raise ValueError(f"r0={r0} is not a grid node")
    gi = RadialGrid(metric.grid.r[:i0 + 1])
    go = RadialGrid(metric.grid.r[i0:])
    inner = metrics.RadialMetric(gi, metric.n, metric.A[:i0 + 1],
                                 metric.B[:i0 + 1], metric.delta)
    outer = metrics.RadialMetric(go, metric.n, metric.A[i0:], metric.B[i0:],
                                 metric.delta)
    return corner.CornerMetric(inner, outer, float(metric.grid.r[i0]),
                               metric.n, metric.delta)


@pytest.fixture(scope="module")
def base():
    grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32, outer_num=512)
    return metrics.build_schwarzschild_isotropic(1.0, 3, grid)


@pytest.fixture(scope="module")
def valid_corner(base):
    return corner.corner_example(base, 4.0, 0.1)


@pytest.fixture(scope="module")
def invalid_corner(base):
    return corner.corner_example(base, 4.0, -0.1)


def test_corner_grid_has_interface_node():
    g = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32,
                                outer_num=256)
    assert g.node_at(4.0) is not None
    assert g.r_max == pytest.approx(300.0)


def test_corner_grid_refuses_outer_cells_past_r_max():
    # 10^5 cells no shorter than fine_dr cannot fit between 3 r0 and r_max
    with pytest.raises(ValueError, match="overrun"):
        corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32,
                                outer_num=100000)


def test_corner_grid_refuses_r_max_inside_the_fine_lattice():
    # fine_dr = 1/8 from r_min = 0.3 ends at 12.175, past 3 r0 = 12.15: an
    # r_max between the two is refused by the lattice's end, before the
    # outer cells take a power of a negative span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r_max=12.16 must lie past "
                           "12.175, where the fine lattice ends near 3 r0 "
                           "= 12.15"):
            corner.make_corner_grid(0.3, 4.05, 12.16, fine_dr=1 / 8,
                                    outer_num=256)


@pytest.mark.parametrize("kw", [{"fine_dr": 0.0}, {"fine_dr": -1 / 32},
                                {"fine_dr": np.nan}, {"fine_dr": np.inf},
                                {"outer_num": 0}, {"outer_num": -5}],
                         ids=["dr-0", "dr-negative", "dr-nan", "dr-inf",
                              "num-0", "num-negative"])
def test_corner_grid_refuses_a_bad_spacing_or_cell_count(kw):
    # before the check, 0 divided by zero and -5 indexed an empty array
    (key, value), = kw.items()
    with pytest.raises(ValueError, match=f"{key}={value:g}"):
        corner.make_corner_grid(0.5, 4.0, 300.0, **{
            "fine_dr": 1.0 / 32, "outer_num": 256, **kw})


def test_smooth_split_trivial_condition(base):
    cm = split_metric(base, 4.0)
    Hm, Hp, ok, _ = corner.corner_condition(cm)
    assert ok
    assert abs(Hm - Hp) < 1e-5


def test_condition_matches_jump_formula(base, valid_corner):
    Hm, Hp, ok, _ = corner.corner_condition(valid_corner)
    assert ok
    i0 = base.grid.node_at(4.0)
    pred = (base.n - 1) * 0.1 / (2.0 * np.sqrt(base.A[i0]) * base.B[i0])
    assert (Hm - Hp) == pytest.approx(pred, rel=1e-4)


@pytest.mark.parametrize("strength", [0.1, -0.1])
def test_condition_matches_closed_form(base, strength):
    # the mean curvature 2 (1 + 2 r u'/u) / (r u^2) of the sphere r = r0 in
    # the conformally flat u^4 delta: outside, Schwarzschild u = 1 + 1/(2r);
    # inside, U = u0 + q0 (F(r0) - F(r)) with U'(r0-) = -q0 / r0^2, q0 read
    # back from the inner data
    cm = corner.corner_example(base, 4.0, strength)
    r0, ri = cm.r0, cm.inner.grid.r
    F = 5 * ri ** 2 / r0 ** 3 - 5 * ri ** 3 / r0 ** 4 + 1.5 * ri ** 4 / r0 ** 5
    U = cm.inner.A ** 0.25
    q0 = (U[0] - U[-1]) / (F[-1] - F[0])

    def H(u, du):
        return 2 * (1 + 2 * r0 * du / u) / (r0 * u ** 2)

    Hm, Hp, ok, _ = corner.corner_condition(cm)
    assert abs(Hm - H(U[-1], -q0 / r0 ** 2)) < 1e-9
    assert abs(Hp - H(1 + 0.5 / r0, -0.5 / r0 ** 2)) < 1e-9
    assert ok is (strength > 0)


def test_negative_strength_violates(invalid_corner):
    Hm, Hp, ok, _ = corner.corner_condition(invalid_corner)
    assert not ok and Hm < Hp


@pytest.mark.parametrize("strength", [0.1, -0.1])
def test_mass_jump_matches_mean_curvature_closed_form(base, strength):
    # m = phi^(n-2) (1 - f1^2) / 2 and H = (n-1) f1 / phi on each side of
    # r0, with phi = r0 sqrt(B) continuous: m(+) - m(-) is
    # phi^n (H(-)^2 - H(+)^2) / (2 (n-1)^2)
    cm = corner.corner_example(base, 4.0, strength)
    Hm, Hp, ok, dm = corner.corner_condition(cm)
    n, phi = cm.n, cm.r0 * np.sqrt(cm.outer.B[0])
    closed = phi ** n * (Hm ** 2 - Hp ** 2) / (2 * (n - 1) ** 2)
    assert dm == pytest.approx(closed, rel=1e-12)
    # H(-) >= H(+) is a mass that does not drop outward across the corner
    assert (dm >= 0) is ok
    assert abs(dm) > 0.4


def test_corner_report_prints_the_mass_jump_in_mass_units(valid_corner,
                                                          tmp_path):
    # the CLI's default corner is the valid_corner fixture
    assert cli.run(["corner", "--eps", "1e-1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "corner.txt").read_text().splitlines()
    jump = float(next(v for k, _, v in (x.partition("=") for x in lines)
                      if k == "mass_jump"))
    dm = corner.corner_condition(valid_corner)[3]
    # the unnormalized convention of `mass`'s mass=: 16 pi m in n = 3
    assert jump == pytest.approx(16 * np.pi * dm, rel=1e-11)


def test_inner_piece_nonnegative_scalar(valid_corner):
    R = curvature.scalar_curvature(valid_corner.inner)
    assert np.min(R) > -1e-9


def test_strength_cap(base):
    with pytest.raises(ValueError):
        corner.corner_example(base, 4.0, 0.5)  # inner factor would lose R >= 0


def _window_inner_A(base, r0, strength):
    """corner_example's inner A = B, u'(r0) from a Fornberg window of the
    five nodes about r0: the reference grid.deriv's row must equal."""
    grid = base.grid
    i0 = grid.node_at(r0)
    win = slice(i0 - 2, i0 + 3)
    u = base.B[win] ** 0.25
    w = fornberg_weights(grid.r[i0], grid.r[None, win], 1)[:, 1]
    du0, u0 = float(np.einsum("ij,ij->i", w, u[None])[0]), float(u[2])
    q0 = -r0 ** 2 * (du0 + strength / (4.0 * u0 ** 3))
    ri = grid.r[:i0 + 1]
    F = 5.0 * ri ** 2 / r0 ** 3 - 5.0 * ri ** 3 / r0 ** 4 + 1.5 * ri ** 4 / r0 ** 5
    return (u0 + q0 * (F[-1] - F)) ** 4


@pytest.mark.parametrize("r_min, r0, r_max, fine_dr, outer_num", [
    (0.5, 4.0, 300.0, 1 / 32, 512), (0.5, 2.0, 100.0, 1 / 16, 256),
    (1.0, 6.0, 200.0, 1 / 64, 384), (0.25, 3.0, 60.0, 1 / 8, 128)])
def test_corner_example_inner_piece_equals_the_window_build(
        r_min, r0, r_max, fine_dr, outer_num):
    grid = corner.make_corner_grid(r_min, r0, r_max, fine_dr=fine_dr,
                                   outer_num=outer_num)
    for base, strengths in (
            (metrics.build_schwarzschild_isotropic(1.0, 3, grid), (0.05, -0.1)),
            (metrics.build_schwarzschild_isotropic(0.3, 3, grid), (0.01, -0.2)),
            (metrics.build_conformal(0.4, 3, grid), (0.02, -0.1)),
            (metrics.build_flat(3, grid), (-0.1,))):
        for s in strengths:
            inner = corner.corner_example(base, r0, s).inner
            want = _window_inner_A(base, r0, s)
            assert np.array_equal(inner.A, want)
            assert np.array_equal(inner.B, want)


def test_discontinuous_pieces_rejected(base, valid_corner):
    bad_inner = dataclasses.replace(valid_corner.inner,
                                    A=valid_corner.inner.A * 1.01)
    with pytest.raises(ValueError):
        corner.CornerMetric(bad_inner, valid_corner.outer, 4.0, 3, 1.0)


def test_mass_unchanged_by_corner(base, valid_corner):
    comb = valid_corner.combined()
    radii = [min(comb.grid.r, key=lambda x: abs(x - t)) for t in (50, 100, 200)]
    rep = mass.adm_mass(comb, radii)
    assert abs(rep.mass - 16 * np.pi) / (16 * np.pi) < 1e-3


def test_mollify_identity_for_smooth(base):
    # smooth base with R > 0 everywhere, so the certificate is noise-immune
    smooth = metrics.build_conformal(0.5, 3, base.grid)
    cm = split_metric(smooth, 4.0)
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
        metrics.build_schwarzschild_isotropic(1.0, 3, grid), 4.0, 0.1)
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


def _moved_data_corner(base):
    """The valid corner with one outer data value moved off its fit far
    outside every collar: the support check fails at every width."""
    cm = corner.corner_example(base, 4.0, 0.1)
    cm.fits  # fitted to the data before it moves
    cm.outer.A = cm.outer.A.copy()
    cm.outer.A[cm.outer.grid.node_at(5.0)] += 1e-12
    return cm


# passed at the first width (0.1); refused where K first fails on a corner
# that fails the condition: at the first width (-0.1), at the second after
# the first passes K (-9.59) but fails neg_part (15.9) (-0.05); support
# fails at every width, and the condition holds, so all 11 run (moved)
@pytest.mark.parametrize("strength, eps", [
    (0.1, 1e-1), (0.1, 1e-2), (0.1, 1e-3), (-0.1, 1e-1), (-0.05, 1e-1),
    ("moved", 1e-1)])
def test_mollify_returns_the_complete_certificate(base, strength, eps):
    # the width mollify returns gets _certificate's report, bit for bit
    cm = (_moved_data_corner(base) if strength == "moved"
          else corner.corner_example(base, 4.0, strength))
    mc, rep = corner.mollify(cm, eps)
    want = corner._certificate(corner.MollifiedCorner(cm, mc.sigma), eps)
    assert [repr(v) for v in vars(rep).values()] == [
        repr(v) for v in vars(want).values()]
    assert rep.satisfied is (strength == 0.1)
    refused = {-0.1: eps ** 2, -0.05: eps ** 2 / 2, "moved": eps ** 2 / 2 ** 10}
    if not rep.satisfied:
        assert rep.sigma == refused[strength]
    assert rep.support_ok is (strength != "moved")


def _every_width(cm, eps):
    """`_certificate` at each of the 11 widths from sigma = eps^2 down, the
    ladder with no early stop."""
    sigma = max(eps ** 2, 1e-7)
    floor = max(1e-9, sigma / 2 ** 10)
    reps = [corner._certificate(corner.MollifiedCorner(cm, sigma), eps)]
    while sigma * 0.5 >= floor:
        sigma *= 0.5
        reps.append(corner._certificate(corner.MollifiedCorner(cm, sigma),
                                        eps))
    return reps


# at eps 0.1 the 1st, 2nd, 4th and 7th widths, sigma = 0.01, 0.005, 0.00125
# and 1.5625e-4: not always the first
@pytest.mark.parametrize("strength, width", [
    (-0.1, 1), (-0.05, 2), (-0.01, 4), (-0.001, 7)])
@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_refused_width_is_never_mended_by_a_narrower_one(base, strength,
                                                         width, eps):
    # a corner with H(-) < H(+) keeps the jump's term, falling like
    # -1/sigma, and the far nodes grow as sigma halves, so their min R only
    # falls: from the width mollify stops at, every narrower width fails and
    # inf R never rises
    cm = corner.corner_example(base, 4.0, strength)
    assert not corner.corner_condition(cm)[2]
    reps = _every_width(cm, eps)
    assert len(reps) == 11
    _, rep = corner.mollify(cm, eps)
    k = [r.sigma for r in reps].index(rep.sigma)
    assert [repr(v) for v in vars(rep).values()] == [
        repr(v) for v in vars(reps[k]).values()]
    assert not any(r.satisfied for r in reps[k:])
    K = [r.K_measured for r in reps[k:]]
    assert all(b <= a for a, b in zip(K, K[1:]))
    assert rep.K_measured <= -corner.K_TARGET
    if eps == 1e-1:
        assert k + 1 == width and rep.sigma == eps ** 2 / 2 ** k


# tight-K: the valid corner under K_TARGET = 0.01 fails inf R at every
# width, and meets the condition, so all 11 run
@pytest.mark.parametrize("kind, eps", [
    ("valid", 1e-1), ("valid", 1e-2), ("valid", 1e-3), ("moved", 1e-1),
    ("tight-K", 1e-1)])
def test_mollify_returns_the_full_ladders_width(monkeypatch, base, kind, eps):
    # a corner that meets the condition halves as before the stop rule: the
    # first width that passes, or the last
    cm = (_moved_data_corner(base) if kind == "moved"
          else corner.corner_example(base, 4.0, 0.1))
    if kind == "tight-K":
        monkeypatch.setattr(corner, "K_TARGET", 0.01)
    reps = _every_width(cm, eps)
    if kind == "tight-K":
        assert all(r.K_measured <= -0.01 for r in reps)
    want = next((r for r in reps if r.satisfied), reps[-1])
    _, rep = corner.mollify(cm, eps)
    assert [repr(v) for v in vars(rep).values()] == [
        repr(v) for v in vars(want).values()]


@pytest.mark.parametrize("strength, widths", [(-0.1, 1), (-0.05, 2)])
def test_mollify_stops_at_a_refusal_no_narrower_width_mends(
        monkeypatch, base, strength, widths):
    # at -0.1 the first width fails K and is returned; at -0.05 the first
    # passes K (-9.59) and fails neg_part (15.9), the second fails K.  Of
    # the 11 widths the ladder held, only these take their collar jets
    cm = corner.corner_example(base, 4.0, strength)
    calls = []
    jets = corner.MollifiedCorner.collar_jets

    def counted_jets(self):
        calls.append(self.sigma)
        return jets(self)

    monkeypatch.setattr(corner.MollifiedCorner, "collar_jets", counted_jets)
    _, rep = corner.mollify(cm, 0.1)
    assert not rep.satisfied and rep.K_measured <= -corner.K_TARGET
    assert len(calls) == widths and rep.sigma == calls[-1]


def test_mollified_sampling_on_foreign_grid(valid_corner):
    target = RadialGrid.staggered(300.0, 2048)
    mc, rep = corner.mollify(valid_corner, 1e-2)
    assert rep.satisfied
    sm = mc.sample(target)
    assert sm.grid is target
    assert np.all(sm.A > 0) and np.all(sm.B > 0)


def test_deviation_matches_spline_difference(valid_corner):
    # the Taylor forms about r0 are the inner fit's last piece and the outer
    # fit's first, each across its end piece, and T, the polynomial the
    # collar smooths, is the inner fit minus the outer fit's first piece
    # continued inward, across the inner fit's last piece
    from numpy.polynomial import polynomial as P

    fits = valid_corner.fits
    r0 = valid_corner.r0
    x = np.linspace(fits.inner.x[-2], r0, 301)
    inner, outer = (s.jets(x, 2) for s in (fits.inner, fits.outer))
    for k in range(3):
        T = P.polyval(x - r0, P.polyder(fits.taylor[2], k)).T
        assert np.max(np.abs(T - (inner[k] - outer[k]))) < 1e-13
    for fit, taylor, x in ((fits.inner, fits.taylor[0], x),
                           (fits.outer, fits.taylor[1],
                            np.linspace(r0, fits.outer.x[1], 301))):
        want = fit.jets(x, 2)
        for k in range(3):
            got = P.polyval(x - r0, P.polyder(taylor, k)).T
            assert np.max(np.abs(got - want[k])) < 1e-13
    # T's slope at r0 is minus the (A', B') jump, outer minus inner
    jump = fits.outer.jets(r0, 1)[1] - fits.inner.jets(r0, 1)[1]
    assert np.allclose(-fits.taylor[2][1], jump, rtol=0, atol=1e-13)


@pytest.mark.parametrize("sig, h, blend_tol, inner_tol", [
    (1e-2, 1e-5, (1e-7, 1e-4), (1e-6, 1e-3)),
    (0.2, 1e-4, (1e-7, 1e-5), (1e-7, 1e-5)),   # blend terms well above noise
])
def test_eval_derivatives_match_differences(valid_corner, sig, h, blend_tol,
                                            inner_tol):
    mc = corner.MollifiedCorner(valid_corner, sig)
    # blend zone (sigma/2 < |r - r0| < sigma) and inside: the collar term is
    # closed form, so eval's derivatives are those of its values up to the
    # step error; also at r0 - sigma/2, where the C-infinity bump's split
    # 16-point rule made them jump (the differences missed eval's by 1.9e-5
    # and 3.9 at sigma = 1e-2)
    for zone, (tol1, tol2) in (([-0.9, -0.7, -0.6, 0.6, 0.8], blend_tol),
                               ([-0.3, -0.1, 0.0, 0.1, 0.3], inner_tol),
                               ([-0.5], (1e-8, 1e-3))):
        r = valid_corner.r0 + sig * np.array(zone)
        jet = mc.eval(r, 2)
        lo, mid, hi = (mc.eval(r + s * h) for s in (-1, 0, 1))
        for f in range(2):
            d1 = (hi[0, :, f] - lo[0, :, f]) / (2 * h)
            d2 = (hi[0, :, f] - 2 * mid[0, :, f] + lo[0, :, f]) / h ** 2
            assert np.max(np.abs(d1 - jet[1, :, f])) < tol1
            assert np.max(np.abs(d2 - jet[2, :, f])) < tol2


# 0.5 and 1: sigma = 0.25 and 1, across the fits' knots
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 0.5, 1.0])
def test_mass_ledger_closes_across_the_collar(valid_corner, eps):
    # dm/dr = phi^(n-1) phi_r R / (2 (n-1)) from eval's jets, integrated over
    # r0 +/- 1.2 sigma, is the jump of the Misner-Sharp mass m there (the
    # C-infinity bump, whose weights missed unit mass, left 1.3e-6; the split
    # rule on the deviation spline, 1.1e-12 at sigma = 1).  Each piece
    # between the cutoff's, the bump's and the fits' breakpoints takes the
    # 16-point rule through the float nodes eval sees: at sigma = 1e-6 their
    # rounding moves a Gauss-Legendre node by 1e-9 of its piece
    from numpy.polynomial.legendre import leggauss, legvander

    mc, rep = corner.mollify(valid_corner, eps)
    n, r0, sig = valid_corner.n, valid_corner.r0, mc.sigma
    z = leggauss(16)[0]
    edges = r0 + sig * np.array([-1.2, -1.0, -0.5, 0.0, 0.5, 1.0, 1.2])
    knots = np.concatenate([valid_corner.fits.inner.x,
                            valid_corner.fits.outer.x])
    edges = np.union1d(edges, knots[(knots > edges[0]) & (knots < edges[-1])])
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        r = (a + b) / 2 + (b - a) / 2 * z
        V = legvander(2 * (r - a) / (b - a) - 1, len(z) - 1)
        w = np.linalg.solve(V.T, np.eye(len(z))[0]) * (b - a)
        jet = mc.eval(r, 2)
        sB = np.sqrt(jet[0, :, 1])
        phi, phi_r = r * sB, sB + r * jet[1, :, 1] / (2 * sB)
        total += w @ (phi ** (n - 1) * phi_r * curvature.scalar(n, r, jet))
    m = curvature.mass_function(n, edges[[0, -1]], mc.eval(edges[[0, -1]], 2))
    assert abs(total / (2 * (n - 1)) - (m[1] - m[0])) < 1e-13


def test_eval_takes_radii_in_any_order(valid_corner):
    # collar_operator reads ascending scaled radii: eval sorts the collar's,
    # so repeats, both ends of the collar, the kink and radii outside it give
    # the jets they give in order, and radii with none in the collar get the
    # raw fits
    mc = corner.MollifiedCorner(valid_corner, 0.25)
    s = np.array([-0.9, 0.3, -0.5, -0.7, 0.0, 0.3, 0.5, 0.7, -0.25, 1e-9,
                  -1.0, 1.2])
    r = mc.r0 + mc.sigma * s
    order = np.argsort(s)
    assert np.array_equal(mc.eval(r, 2)[:, order], mc.eval(r[order], 2))
    out = r[(s >= 0.5) | (s <= -1.0)]
    assert np.array_equal(mc.eval(out, 2), mc._raw(out, 2))


def test_sample_moves_only_the_collar(valid_corner):
    # sigma = 0.25 on spacing 1/8: the nodes at -1 < s < 1/2, r = 3.875 and
    # 4, and no other; r = 4.125, at s = 1/2, keeps the raw fits' values
    grid = RadialGrid.uniform(0.5, 300.5, 2401)
    mc = corner.MollifiedCorner(valid_corner, 0.25)
    sm = mc.sample(grid)
    moved = np.stack([sm.A, sm.B], axis=-1) != mc._raw(grid.r)[0]
    assert grid.r[moved.any(axis=-1)].tolist() == [3.875, 4.0]


def test_every_jet_producer_builds_one_layout(valid_corner):
    # the parity stencils, a spline fit, the mollified corner and the
    # certificate's collar tables all give the 2-jet of (A, B) as one float
    # array, derivative order first and field last; curvature reads each
    # as it comes, and the single-node slice jet[:, i] alike
    cm = valid_corner
    g = cm.combined()
    mc = corner.MollifiedCorner(cm, 1e-2)
    r = cm.r0 + np.linspace(-0.02, 0.02, 41)  # across the collar
    rc = cm.r0 + mc.sigma * corner.COLLAR_S
    raw, collar = mc.collar_jets()
    assert isinstance(raw, np.ndarray) and raw.dtype == float
    assert raw.shape == (len(rc), 2)
    for x, jet in [(g.grid.r, curvature.jet(g.grid, g.A, g.B)),
                   (r, cm.fits.inner.jets(r, 2)), (r, mc.eval(r, 2)),
                   (rc, collar)]:
        assert isinstance(jet, np.ndarray) and jet.dtype == float
        assert jet.shape == (3, len(x), 2)
        R = curvature.scalar(cm.n, x, jet)
        assert R.shape == x.shape and np.all(np.isfinite(R))
        i = len(x) // 3
        assert curvature.scalar(cm.n, x[i], jet[:, i]) == R[i]


def test_mollify_k_free_of_blend_roundoff(valid_corner):
    # sigma = 1e-6 at eps = 1e-3: blend derivatives grow like sigma^-2, so any
    # roundoff in the deviation would show up in inf R
    K = [corner.mollify(valid_corner, eps)[1].K_measured for eps in (1e-2, 1e-3)]
    assert abs(K[1] - K[0]) < 1e-3 * abs(K[0])


def test_support_check_reads_the_corner_data(base):
    # the fits reproduce the node data to roundoff; a data value that no
    # longer matches them, far outside the collar, must fail the certificate
    cm = _moved_data_corner(base)
    rep = corner._certificate(corner.MollifiedCorner(cm, 1e-2), 1e-2)
    assert not rep.support_ok and not rep.satisfied


def test_support_check_refuses_a_far_node_the_collar_reaches():
    # r = 3.7 passes the far-node rule r <= r0 - sigma at sigma = 0.3, but
    # (r - r0) / sigma rounds to -0.9999999999999994, inside the collar
    # -1 < s < 1/2, so the collar blends there too
    r = np.concatenate([np.linspace(0.5, 3.6, 32), [3.7, 3.8, 3.9, 4.0],
                        np.linspace(4.1, 40.0, 200)])
    cm = split_metric(
        metrics.build_conformal(0.4, 3, RadialGrid(r)), 4.0)
    for sig, ok in ((0.3, False), (0.29, True), (0.31, True)):
        rep = corner._certificate(corner.MollifiedCorner(cm, sig), 0.5)
        assert rep.support_ok is ok, sig


def test_collar_tables_built_once(monkeypatch, valid_corner, invalid_corner):
    # the operator on the fixed scaled collar is built once per process, and
    # every sigma of every corner reuses the one build: no attempt builds
    # one at its own radii, and a cache that missed would rebuild it at each
    builds, sigmas = [], []
    operator, init = corner.collar_operator, corner.MollifiedCorner.__init__

    def counted_operator(s):
        builds.append(len(s))
        return operator(s)

    def counted_init(self, cm, sigma):
        sigmas.append(sigma)
        init(self, cm, sigma)

    monkeypatch.setattr(corner, "collar_operator", counted_operator)
    monkeypatch.setattr(corner.MollifiedCorner, "__init__", counted_init)
    corner.certificate_collar.cache_clear()
    for cm, eps in [(valid_corner, 1e-1), (valid_corner, 1e-2),
                    (valid_corner, 1e-3), (invalid_corner, 1e-1)]:
        corner.mollify(cm, eps)
    assert len(sigmas) == 4  # 3 valid, then the invalid one's first width
    assert builds == [2999]  # the certificate's collar, -1 < s < 1/2
    # the operator table: one build, read by every attempt
    info = corner.certificate_collar.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_collar_attempts_map_no_fresh_memory():
    # each sigma attempt writes its jets in place and frees its largest
    # arrays early, so once a first mollify has loaded the tables and fitted
    # the corner, the 11 attempts of a second one reuse the heap's pages:
    # the corner whose data moved off its fits fails support at every width.
    # Whether glibc trims them in between depends on the heap's layout, so
    # three layouts: 0 faults each, against 770 to 1 200 in some layout
    # when every attempt paid for fresh memory
    script = """
import resource, sys
import numpy as np
from afgeo import corner, metrics
layout = [np.empty(n) for n in range(1, 8 * int(sys.argv[1]), 8)]
grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32, outer_num=512)
cm = corner.corner_example(metrics.build_schwarzschild_isotropic(1.0, 3, grid),
                           4.0, 0.1)
cm.fits
cm.outer.A = cm.outer.A.copy()
cm.outer.A[cm.outer.grid.node_at(5.0)] += 1e-12
corner.mollify(cm, 0.1)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mc, rep = corner.mollify(cm, 0.1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, rep.sigma)
"""
    src = str(Path(corner.__file__).resolve().parents[1])
    for k in (0, 4, 9):
        out = subprocess.run([sys.executable, "-c", script, str(k)],
                             check=True, env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True).stdout.split()
        assert float(out[1]) == 0.1 ** 2 / 2 ** 10  # all 11 attempts ran
        assert int(out[0]) < 100, k


def test_collar_tables_are_read_only():
    # every sigma of every corner shares them: an in-place write must fail
    # (times 1.0, which would leave the shared values as they are)
    at, powers, H = corner.certificate_collar()
    for table in (powers, H):
        with pytest.raises(ValueError, match="read-only"):
            table *= 1.0


def bump_moment(s, m):
    """G_m(s) = int_s^{1/2} rho(t) (s - t)^m dt - s^m [s <= 0], exactly:
    rho(t) (s - t)^m = 315/128 (1 - 4 t^2)^4 (s - t)^m in powers t^p of t,
    integrated term by term in Fractions."""
    x = Fraction(s)
    lo, hi = max(x, Fraction(-1, 2)), Fraction(1, 2)
    exact = Fraction(0)
    for j in range(5):
        for i in range(m + 1):
            p = 2 * j + i
            c = Fraction(315, 128) * comb(4, j) * (-4) ** j
            c *= comb(m, i) * x ** (m - i) * (-1) ** i
            exact += c * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
    return exact - (x ** m if x <= 0 else 0)


def test_collar_moments_g0_g1_summed_exactly():
    # the blend derivatives multiply G_0 and G_1 by up to 1 / sigma: on the
    # collar the closed-form table must match the bump's exact rational
    # integrals to 1e-18, where a float64 sum errs by about 1e-16, and hold
    # them at exactly 0 in the blend zone s <= -1/2
    at, powers, H = corner.certificate_collar()
    s = corner.COLLAR_S[at]
    chi = corner.blend(s)[0]
    for j in np.linspace(0, len(s) - 1, 41).astype(int):
        for m in (0, 1):
            got = H[0, j, m] / chi[j]
            exact = float(bump_moment(s[j], m))
            assert abs(got - exact) <= 1e-18 + 4e-16 * abs(got), (j, m)
    assert not H[:, s <= -0.5, :2].any()


def direct_conv_nodes(s):
    """The split 16-point Gauss-Legendre rule of the bump at kink offsets s,
    exact on it times a quintic: the nodes t on [s, 1/2], their weights and
    the bump density at s, every s on its own."""
    from numpy.polynomial.legendre import leggauss

    c = np.clip(s, -0.5, 0.5)
    z, gw = leggauss(16)
    half = (0.5 - c) / 2
    t = half * z[:, None] + (c + 0.5) / 2

    def psi(x):
        return 315 / 128 * np.maximum(1.0 - 4.0 * x * x, 0.0) ** 4

    return t, half * gw[:, None] * psi(t), psi(s)


def direct_certificate_collar():
    """The collar tables built directly: every column's split rule, the
    moments summed over its nodes in float64, then chi_j G @ POWER_DERIV[k -
    j] summed over j by Leibniz' rule."""
    s = corner.COLLAR_S
    at = np.flatnonzero(corner.in_collar(s))
    x = s[at]
    t, wt, dens = direct_conv_nodes(x)
    chi = [c[:, None] for c in corner.blend(x)]
    G = np.stack([np.sum(wt * (x - t) ** m, axis=0) - x ** m * (x <= 0)
                  for m in range(6)], axis=1)
    H = []
    for k in range(3):
        conv = sum(comb(k, j) * chi[j] * G @ corner.POWER_DERIV[k - j]
                   for j in range(k + 1))
        H.append(np.hstack([conv, (k == 2) * chi[0] * dens[:, None]]))
    return at, np.vander(s, 6, True), np.stack(H)


def test_collar_tables_equal_the_direct_build():
    # the closed-form operator H is the split rule's float sums to their
    # roundoff; the collar slice and the powers are the direct build's bits
    at, powers, H = direct_certificate_collar()
    fast_at, fast_powers, fast_H = corner.certificate_collar()
    assert np.arange(len(corner.COLLAR_S))[fast_at].tolist() == at.tolist()
    assert np.array_equal(fast_powers, powers)
    assert fast_H.shape == H.shape == (3, 2999, 7)
    assert np.max(np.abs(fast_H - H)) <= 1e-13


def test_bump_density_integrates_to_one_at_every_split():
    # the bump's mass on [s, 1/2] is G_0(s) + [s <= 0], and on [-1/2, s] its
    # mirror image, that on [-s, 1/2]: one unit wherever the collar splits
    # the bump; and the density of the jump term, normalized once and not
    # per offset (the C-infinity bump's drifted by 8.5e-6 across the collar)
    from numpy.polynomial.legendre import leggauss

    s = np.concatenate([corner.COLLAR_S, np.linspace(-0.6, 0.6, 1001)])
    s = np.unique(s[np.abs(s) < 0.5])
    upper = [corner.collar_operator(x)[0, :, 0] + (x <= 0)
             for x in (s, -s[::-1])]
    assert np.max(np.abs(upper[0] + upper[1][::-1] - 1.0)) <= 1e-13
    z, w = leggauss(16)
    dens = corner.collar_operator(z / 2)[2, :, 6]
    assert abs(w @ dens / 2 - 1.0) <= 1e-13


@pytest.mark.parametrize("sig", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("strength", [0.1, -0.1])
def test_collar_tables_match_direct_eval(base, sig, strength):
    # the operator table at the exact collar points r0 + sigma s, against
    # eval's per-node convolution at the float radii rc, whose scaled radii
    # (rc - r0) / sigma differ from COLLAR_S by up to ulp(r0) / sigma: the
    # collar points are known only to ulp(r0)
    cm = corner.corner_example(base, 4.0, strength)
    mc = corner.MollifiedCorner(cm, sig)
    rc = cm.r0 + sig * corner.COLLAR_S
    raw, fast = mc.collar_jets()
    direct = mc.eval(rc, 2)
    tol = 10 * np.finfo(float).eps * cm.r0 / sig
    for f in range(2):
        for k in range(3):
            err = np.max(np.abs(fast[k, :, f] - direct[k, :, f]))
            assert err <= tol * np.max(np.abs(direct[k, :, f])), (f, k, err)
    # the unmollified fits carry no sigma^-k factor
    assert np.max(np.abs(raw - mc._raw(rc)[0])) <= 5e-15 * np.max(raw)


def test_wide_collar_takes_per_node_path(monkeypatch, valid_corner):
    # sigma = 0.25: the collar reaches r0 - 0.25, across six pieces of the
    # inner fit (the last 3/32 wide, the rest 1/32), where no one polynomial
    # about r0 holds the raw fields
    grid = valid_corner.combined().grid
    mc, rep = corner.mollify(valid_corner, 0.5)
    assert rep.sigma == 0.25 and rep.satisfied
    sm = mc.sample(grid)

    def per_node(self):
        rc = self.r0 + self.sigma * corner.COLLAR_S
        return self._raw(rc)[0], self.eval(rc, 2)

    monkeypatch.setattr(corner.MollifiedCorner, "collar_jets", per_node)
    mc_ref, rep_ref = corner.mollify(valid_corner, 0.5)
    sm_ref = mc_ref.sample(grid)
    assert rep == rep_ref
    assert np.array_equal(sm.A, sm_ref.A) and np.array_equal(sm.B, sm_ref.B)


def test_certificate_never_evaluates_collar_nodes(monkeypatch, base):
    # the benchmark's four mollify calls take the operator table for every
    # collar, and the far nodes from each corner's `CornerMetric.far`: over
    # the 4 attempts a spline sees each fresh corner's two pieces once, and
    # r0 once for each piece's Taylor form and, on the refused corner,
    # once more for each piece's 2-jet in `corner_condition`; never the 2999
    # radii of a collar or a per-attempt far node.  The pieces' stencil R
    # is built once per piece of each fresh corner, never once per width
    valid, invalid = (corner.corner_example(base, 4.0, s) for s in (0.1, -0.1))
    sizes, stencils = [], []
    jets, stencil_R = Spline.jets, corner.scalar_curvature

    def counted(self, r, order=0):
        sizes.append(np.size(r))
        return jets(self, r, order)

    def counted_R(metric):
        stencils.append(metric.grid.num)
        return stencil_R(metric)

    monkeypatch.setattr(Spline, "jets", counted)
    monkeypatch.setattr(corner, "scalar_curvature", counted_R)
    for cm, eps in [(valid, 1e-1), (valid, 1e-2), (valid, 1e-3),
                    (invalid, 1e-1)]:
        corner.mollify(cm, eps)
    pieces = [valid.inner.grid.num, valid.outer.grid.num]
    assert sorted(sizes) == sorted(pieces * 2 + [1] * 6)
    assert stencils == pieces * 2


def _composite_certificate(mc, epsilon):
    """The certificate measured from scratch: the pieces' stencil R, one
    np.trapezoid over the far nodes and the collar, and the support check
    by evaluating the mollified metric at every far node."""
    cm = mc.cm
    n = cm.n
    sig = mc.sigma
    ri = cm.inner.grid.r
    ro = cm.outer.grid.r
    Ri, Ro = (curvature.scalar_curvature(p) for p in (cm.inner, cm.outer))
    keep_i = ri <= mc.r0 - sig
    keep_o = ro >= mc.r0 + sig
    rc = mc.r0 + sig * corner.COLLAR_S
    raw, jet = mc.collar_jets()
    Rc = curvature.scalar(n, rc, jet)
    Ac, Bc = jet[0].T
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
    moved = max(np.max(np.abs(jet_far[0, :, f] - v[far]))
                for f, v in enumerate((A, B)))
    support_ok = bool(moved < 1e-14)
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    satisfied = (neg_part < epsilon and K_measured > -corner.K_TARGET
                 and lo >= 1 - epsilon and hi <= 1 + epsilon and support_ok)
    return corner.SmoothingReport(epsilon, sig, K_measured, neg_part,
                                  neg_measure, lo, hi, support_ok,
                                  bool(satisfied))


_CORNERS = {
    "valid": lambda base: corner.corner_example(base, 4.0, 0.1),
    "invalid": lambda base: corner.corner_example(base, 4.0, -0.1),
    # R < 0 on both pieces: the inner far nodes add to the sums too
    "split-bump": lambda base: split_metric(
        metrics.build_angular_bump(0.2, 3, base.grid), 4.0)}


# 0.25: sigma > 1/32 drops far nodes next to r0; 0.5: the per-node collar;
# 1: the widest collars, sigma = 1 and 1/2; 2: the first collar, sigma = 4,
# would read down to r = -2, so mollify refuses it before any attempt
@pytest.mark.parametrize("eps", [1e-3, 1e-1, 0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", sorted(_CORNERS))
def test_certificate_matches_composite_grid(monkeypatch, base, eps, kind):
    # every width mollify tries, its complete certificate against the
    # composite one
    cm = _CORNERS[kind](base)
    widths = []
    init = corner.MollifiedCorner.__init__

    def recorded(self, cm, sigma):
        init(self, cm, sigma)
        widths.append(self)

    monkeypatch.setattr(corner.MollifiedCorner, "__init__", recorded)
    if eps == 2.0:
        with pytest.raises(ValueError, match="outside the corner's domain"):
            corner.mollify(cm, eps)
        assert not widths
        return
    corner.mollify(cm, eps)
    assert widths
    for mc in widths:
        want = _composite_certificate(mc, eps)
        got = corner._certificate(mc, eps)
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
        rep = corner._certificate(corner.MollifiedCorner(cm, sig), 0.5)
        assert rep.support_ok is not fails, r


@pytest.mark.parametrize("eps", [0.0, -0.01, np.nan, np.inf])
def test_mollify_refuses_epsilon_not_finite_positive(valid_corner, eps):
    with pytest.raises(ValueError, match="finite and > 0"):
        corner.mollify(valid_corner, eps)


def test_mollify_refuses_a_first_collar_that_reads_below_the_corner(
        valid_corner):
    # r0 = 4, r_lo = 0.5: the bump's deepest reach in the sigma = eps^2
    # collar, r0 - 3 sigma/2, is 0.125 inside at eps = 1.5 and 0.011 outside
    # at eps = 1.53
    corner.mollify(valid_corner, 1.5)
    with pytest.raises(ValueError, match=r"r0 - 3 sigma/2 = 0\.48865 "):
        corner.mollify(valid_corner, 1.53)

