import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afgeo.grid import RadialGrid, sphere_area
from afgeo import curvature, flow, mass, metrics, oracle


def _mass_function(g):
    """m(r) of the metric g at its grid nodes."""
    return curvature.mass_function(
        g.n, g.grid.r, curvature.jet(g.grid, g.A, g.B))


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(0.5, 300.0, 2048)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mass_function_schwarzschild_converges_fourth_order(n):
    # m is exactly 1 on every sphere; the stencil error falls ~16x per
    # halving of dr
    errs = []
    for num in (1024, 2048):
        g = RadialGrid.staggered(60.0, num)
        m = _mass_function(metrics.build_schwarzschild_isotropic(1.0, n, g))
        errs.append(np.max(np.abs(m[g.r >= 1.0] - 1.0)))
    assert errs[1] < 1e-4
    assert errs[0] > 12.0 * errs[1]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mass_function_distorted_flat_vanishes_across_the_kink(n):
    # flat space in kinked coordinates: m is invariant under the radial
    # change of coordinates, so max|m| -> 0 as the fixed-width kink resolves
    errs = [np.max(np.abs(_mass_function(metrics.build_distorted_flat(
        n, RadialGrid.staggered(60.0, num), smooth_width=0.5))))
        for num in (1024, 2048, 4096)]
    assert errs[2] < 1e-4
    assert errs[0] > 4.0 * errs[1] > 16.0 * errs[2]


_PROFILES = {"conformal": lambda n, g: metrics.build_conformal(0.5, n, g),
             "angular-bump": lambda n, g: metrics.build_angular_bump(0.2, n, g)}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_mass_function_integrates_scalar_curvature(name, n):
    # m(r2) - m(r1) = int phi^(n-1) phi_r R / (2(n-1)) dr exactly; the
    # trapezoid gap closes at second order
    gaps = []
    for num in (1024, 2048, 4096):
        grid = RadialGrid.staggered(60.0, num)
        g = _PROFILES[name](n, grid)
        r, jet = grid.r, curvature.jet(grid, g.A, g.B)
        B, dB = jet[0, :, 1], jet[1, :, 1]
        phi, dphi = r * np.sqrt(B), np.sqrt(B) + r * dB / (2.0 * np.sqrt(B))
        dens = phi ** (n - 1) * dphi * curvature.scalar(n, r, jet)
        i1, i2 = (grid.node_at(x) for x in grid.snap((1.0, 20.0)))
        m = curvature.mass_function(n, r, jet)
        dm = m[i2] - m[i1]
        integral = np.trapezoid(dens[i1:i2 + 1], r[i1:i2 + 1]) / (2 * (n - 1))
        gaps.append(abs(dm - integral) / abs(dm))
    assert gaps[2] < 2e-4
    assert gaps[0] > 10.0 * gaps[2]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mass_matches_oracle_flux_ladder(n):
    # the independent Cartesian flux quadrature, extrapolated by the same
    # fit, agrees within the two ladders' error bars
    grid = RadialGrid.staggered(300.0, 2048)
    g = metrics.build_conformal(0.5, n, grid)
    radii = grid.snap((50.0, 100.0, 200.0))
    ref, ref_err = mass.fit_power_tail(
        radii, oracle.flux_quadrature(g, np.array(radii)), n)
    rep = mass.adm_mass(g, radii)
    assert abs(rep.mass - ref) <= rep.mass_err + ref_err


def test_adm_mass_extrapolation(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    radii = [min(grid.r, key=lambda x: abs(x - t)) for t in (50, 100, 200)]
    rep = mass.adm_mass(sch, radii)
    assert rep.converged
    assert abs(rep.mass - 16 * np.pi) / (16 * np.pi) < 1e-3


def test_adm_mass_flat_constant_ladder(grid):
    flat = metrics.build_flat(3, grid)
    radii = [min(grid.r, key=lambda x: abs(x - t)) for t in (50, 100, 200)]
    rep = mass.adm_mass(flat, radii)
    assert rep.converged
    assert abs(rep.mass) < 1e-8


def test_mass_report_lines(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    radii = [min(grid.r, key=lambda x: abs(x - t)) for t in (50, 100, 200)]
    rep = mass.adm_mass(sch, radii)
    text = "\n".join(rep.lines())
    assert "mass=" in text and "mass_err=" in text


def test_distorted_flat_zero_mass():
    g = RadialGrid.uniform(0.25, 300.0, 2048)
    m = metrics.build_distorted_flat(3, g, kink_radius=3.0, amp=0.05)
    radii = [min(g.r, key=lambda x: abs(x - t)) for t in (50, 100, 200)]
    rep = mass.adm_mass(m, radii)
    assert abs(rep.mass) < 1e-3


def test_mass_err_covers_true_error():
    g = RadialGrid.staggered(300.0, 2048)
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, g)
    rep = mass.adm_mass(sch, g.snap((50.0, 100.0, 200.0)))
    assert rep.converged
    assert abs(rep.mass - 16 * np.pi) < rep.mass_err < 1e-3 * 16 * np.pi
    assert abs(rep.mass - 16 * np.pi) < 1e-6 * 16 * np.pi


def test_short_ladder_not_converged(grid):
    # rungs close in, where m(r) of the conformal metric still changes: the
    # leave-one-out extrapolations disagree by more than the tolerance
    g = metrics.build_conformal(0.5, 3, grid)
    with pytest.warns(UserWarning, match="mass ladder did not converge"):
        rep = mass.adm_mass(g, grid.snap((8.0, 12.0, 16.0)))
    assert not rep.converged
    assert rep.mass_err > 1e-3 * abs(rep.mass)


def test_repeated_rung_rejected(grid):
    flat = metrics.build_flat(3, grid)
    r1, r2 = grid.snap((50.0, 100.0))
    with pytest.raises(ValueError, match="distinct"):
        mass.adm_mass(flat, [r1, r1, r2])


_amp = st.floats(0.01, 0.3) | st.floats(-0.3, -0.01)


@settings(max_examples=20, deadline=None)
@given(amp=_amp, center=st.floats(3.0, 20.0), width=st.floats(0.5, 3.0))
def test_mass_unchanged_by_compact_diffeomorphism(grid, amp, center, width):
    # phi = r + amp width (1 - u^2)^4 / 2 with u = (r - center) / width: the
    # identity outside [center - width, center + width], and monotone since
    # |phi' - 1| < 0.3; the mass is read far outside its support
    u = np.clip((grid.r - center) / width, -1.0, 1.0)
    phi = grid.r + 0.5 * amp * width * (1.0 - u ** 2) ** 4
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    moved = flow.pullback(sch, phi)
    assert np.max(np.abs(moved.A - sch.A)) > 1e-3 * abs(amp)
    radii = grid.snap((50.0, 100.0, 200.0))
    m0, m1 = mass.adm_mass(sch, radii), mass.adm_mass(moved, radii)
    assert abs(m1.mass - m0.mass) <= 1e-9 * abs(m0.mass)
    assert m1.converged


def test_ladder_takes_one_jet(monkeypatch):
    # the 2-jet is taken once per ladder, and each rung's value is bitwise
    # mass_function of that jet at the rung, in the units of the mass
    grid = RadialGrid.uniform(0.5, 300.0, 768)
    g = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    radii = grid.snap((100.0, 150.0, 200.0))
    full = curvature.jet(grid, g.A, g.B)
    ref = [4 * sphere_area(3) * curvature.mass_function(3, r, full[:, i])
           for r, i in zip(radii, map(grid.node_at, radii))]
    calls = []
    monkeypatch.setattr(mass, "jet", lambda *a: calls.append(a)
                        or curvature.jet(*a))
    assert list(mass.adm_mass(g, radii).rung_mass) == ref
    assert len(calls) == 1
