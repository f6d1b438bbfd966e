import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afgeo.grid import RadialGrid, sphere_area
from afgeo import flow, mass, metrics, oracle
from afgeo.curvature import scalar_curvature
from afgeo.mass import adm_mass_flux


def mass_parts_residual(metric, r, mass, direction=None):
    """Residual of the integrated scalar-curvature identity at inner radius r.

    Evaluates int_{M \\ B_r} R dV + flux(r) + the two correction volume
    integrals (from the oracle), minus the given mass.  Shrinks like
    r^(-lambda) for metrics with integrable R.
    """
    grid = metric.grid
    i0 = grid.node_at(r)
    if i0 is None:
        raise ValueError(f"r={r} is not a grid node")
    dens = metric.volume_density()
    int_R = np.trapezoid((scalar_curvature(metric) * dens)[i0:], grid.r[i0:])
    corr = oracle.mass_correction_density(metric, grid.r[i0:], direction)
    int_corr = np.trapezoid(corr * dens[i0:], grid.r[i0:])
    return float(int_R + adm_mass_flux(metric, r) + int_corr - mass)


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(0.5, 300.0, 2048)


def test_flux_flat_zero(grid):
    flat = metrics.build_flat(3, grid)
    r = grid.r[grid.num // 2]
    assert abs(mass.adm_mass_flux(flat, r)) < 1e-9


def test_flux_schwarzschild_closed_form(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    for target in (50.0, 100.0):
        r = min(grid.r, key=lambda x: abs(x - target))
        exact = 16.0 * np.pi * (1 + 1 / (2 * r)) ** 3
        assert mass.adm_mass_flux(sch, r) == pytest.approx(exact, rel=1e-7)


def test_flux_matches_quadrature_oracle(grid):
    m = metrics.build_conformal(0.4, 3, grid)
    r = min(grid.r, key=lambda x: abs(x - 50))
    ref = oracle.flux_quadrature(m, r)
    assert mass.adm_mass_flux(m, r) == pytest.approx(ref, rel=1e-6)


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


def test_mass_parts_residual_shrinks():
    g = RadialGrid.geometric(0.5, 3000.0, 1024, ratio=1.004)
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, g)
    radii = [min(g.r, key=lambda x: abs(x - t)) for t in (50, 100, 200)]
    m0 = 16.0 * np.pi
    res = [abs(mass_parts_residual(sch, r, mass=m0,
                                   direction=oracle.unit_direction(3, 7)))
           for r in radii]
    assert res[2] < res[0]  # monotone shrink across the ladder
    # fitted decay exponent at least 2 delta + 2 - n - 0.3 = 0.7
    lam = np.polyfit(np.log(radii), np.log(res), 1)[0]
    assert -lam > 0.7


def test_mass_parts_residual_flat_zero(grid):
    flat = metrics.build_flat(3, grid)
    r = min(grid.r, key=lambda x: abs(x - 50))
    # limited by finite-difference noise in the oracle correction integrand
    assert abs(mass_parts_residual(flat, r, mass=0.0)) < 1e-5


def test_mass_err_covers_true_error():
    g = RadialGrid.staggered(300.0, 2048)
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, g)
    rep = mass.adm_mass(sch, g.snap((50.0, 100.0, 200.0)))
    assert rep.converged
    assert abs(rep.mass - 16 * np.pi) < rep.mass_err < 1e-3 * 16 * np.pi
    assert abs(rep.mass - 16 * np.pi) < 1e-6 * 16 * np.pi


def test_short_ladder_not_converged(grid):
    # rungs close in: the leave-one-out extrapolations disagree by more than
    # the tolerance, although the mass itself is good to 1e-4
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    with pytest.warns(UserWarning, match="did not converge"):
        rep = mass.adm_mass(sch, grid.snap((8.0, 12.0, 16.0)))
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


def test_ladder_takes_one_derivative(monkeypatch):
    # B' is taken once per ladder, and each rung's flux is bitwise the
    # closed form with B' taken for that rung alone
    grid = RadialGrid.uniform(0.5, 300.0, 768)
    g = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    radii = grid.snap((100.0, 150.0, 200.0))
    ref = []
    for r in radii:
        i = grid.node_at(r)
        dB = grid.deriv(g.B, 1, parity=True)[i]
        val = (g.A[i] - g.B[i]) / r - dB
        ref.append(float(sphere_area(3) * r ** 2 * 2 * val))
    calls = []
    deriv = RadialGrid.deriv
    monkeypatch.setattr(RadialGrid, "deriv", lambda self, *a, **k:
                        calls.append(a) or deriv(self, *a, **k))
    assert list(mass.adm_mass(g, radii).flux) == ref
    assert len(calls) == 1
