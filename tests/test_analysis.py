import io

import numpy as np
import pytest

from afgeo import analysis, corner, curvature, flow, metrics
from afgeo.grid import RadialGrid


@pytest.fixture(scope="module")
def wide_flat():
    grid = RadialGrid.geometric(0.25, 300.0, 1200, 1.004)
    return metrics.build_flat(3, grid)


def test_cutoff_value_constraints(wide_flat):
    f, _ = analysis.build_cutoff(4.0, 16.0, wide_flat)
    r = wide_flat.grid.r
    assert np.all((f > 0) & (f <= 2.0))
    inner = r < 4.0
    assert np.max(np.abs(f[inner] - 1.0 / 16.0)) < 1e-12
    mid = (8.0 <= r) & (r <= 16.0)
    assert np.min(f[mid]) >= 1.0
    tail = r > 32.0
    assert np.all(f[tail] <= r[tail] ** -4.0 + 1e-12)


def test_cutoff_ladder_constant_stable(wide_flat):
    rep = analysis.cutoff_report(wide_flat)
    assert rep.passed
    assert rep.measured["C_spread"] < 2.0
    assert rep.measured["C_meas_min"] > 0


def test_cutoff_parameter_validation(wide_flat):
    with pytest.raises(ValueError):
        analysis.build_cutoff(0.5, 16.0, wide_flat)
    with pytest.raises(ValueError):
        analysis.build_cutoff(4.0, 7.0, wide_flat)
    with pytest.raises(ValueError):
        analysis.build_cutoff(4.0, 200.0, wide_flat)


def test_gronwall_trivial_and_equality_cases():
    t = np.linspace(0.0, 1.0, 64)
    ok = analysis.gronwall_check(t, np.exp(-t), 0.0, 0.0)
    assert ok.passed and ok.measured["failure_mode"] == "none"
    edge = analysis.gronwall_check(t, np.exp(t), 1.0, 0.0)
    assert edge.passed
    bad = analysis.gronwall_check(t, np.exp(2.0 * t), 1.0, 0.0)
    assert not bad.passed
    assert bad.measured["failure_mode"] == "hypothesis"


def test_negative_part_vanishes_for_nonnegative_curvature(wide_flat):
    assert analysis.negative_part(wide_flat) < 1e-6
    conf = metrics.build_conformal(0.4, 3, wide_flat.grid)
    assert np.min(curvature.scalar_curvature(conf)[2:]) > 0
    assert analysis.negative_part(conf) < 1e-6


@pytest.fixture(scope="module")
def invalid_smoothed():
    grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32,
                                   outer_num=512)
    base = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    cm = corner.corner_example(base, 4.0, -0.1)
    mc, _ = corner.mollify(cm, 1e-2)
    return mc.sample(cm.combined().grid)


def _masked_negative_part(metric):
    """integral of |R| over {R < 0} by the trapezoid rule, the weight of the
    5 nodes at each end zeroed."""
    R = curvature.scalar_curvature(metric)
    w = metric.volume_density()
    w[:5] = w[-5:] = 0.0
    return np.trapezoid(w * np.where(R < 0.0, -R, 0.0), metric.grid.r)


def test_negative_part_matches_masked_quadrature(invalid_smoothed):
    v = analysis.negative_part(invalid_smoothed)
    ref = _masked_negative_part(invalid_smoothed)
    assert v > 1.0
    assert abs(v - ref) <= 1e-12 * ref


def test_negative_part_counts_small_curvature_in_full():
    # |R| ~ 1e-5 here, far below the 1e-4 scale at which a smoothed penalty
    # (sqrt(R^2 + delta) - R) / 2 stops telling R_- from |R| / 2
    g = metrics.build_conformal(-1e-6, 3, RadialGrid.staggered(40.0, 512))
    v = analysis.negative_part(g)
    ref = _masked_negative_part(g)
    assert ref > 0
    assert abs(v - ref) <= 1e-12 * ref


@pytest.fixture(scope="module")
def conformal_traj():
    grid = RadialGrid.staggered(40.0, 512)
    g0 = metrics.build_conformal(0.3, 3, grid)
    return flow.evolve(g0, g0, flow.FlowConfig(T_final=2e-3, monitor_every=4))


def test_rneg_monitor_trivial_pass(conformal_traj):
    rep = analysis.rneg_monitor(conformal_traj, K=1.0)
    assert rep.passed
    assert rep.measured["neg_part_max"] < 1e-6


def test_l1_tail_monitor(conformal_traj):
    rep = analysis.l1_tail_monitor(conformal_traj, (5.0, 10.0, 20.0))
    assert rep.passed
    sup5 = rep.measured["eta_sup_r5"]
    sup20 = rep.measured["eta_sup_r20"]
    assert sup20 < sup5


def test_boundary_gradient_monitor(conformal_traj):
    rep = analysis.boundary_gradient_monitor(conformal_traj, (5.0, 10.0, 20.0))
    assert rep.passed
    assert rep.measured["sup_flux_outer"] <= rep.measured["inf_flux_inner"]


def test_weighted_decay_monitor(conformal_traj):
    rep = analysis.weighted_decay_monitor(conformal_traj)
    assert rep.passed
    assert np.isfinite(rep.measured["w2_max_late"])


def test_mass_constancy_experiment():
    grid = RadialGrid.uniform(0.5, 120.0, 1024)
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    rep, traj = analysis.mass_constancy_experiment(
        sch, sch, flow.FlowConfig(T_final=2e-3, monitor_every=2))
    assert rep.passed
    assert rep.measured["drift_rel"] < 1e-4
    assert abs(rep.measured["mass_initial"] - 16 * np.pi) / (16 * np.pi) < 1e-2


def test_mass_constancy_flat_is_zero():
    grid = RadialGrid.staggered(60.0, 512)
    fl = metrics.build_flat(3, grid)
    rep, _ = analysis.mass_constancy_experiment(
        fl, fl, flow.FlowConfig(T_final=1e-3, monitor_every=5),
        radii=(30.0, 40.0, 50.0))
    assert rep.passed
    assert abs(rep.measured["mass_final"]) < 1e-6


def test_mass_liminf_smoke():
    grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32,
                                   outer_num=512)
    base = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    cm = corner.corner_example(base, 4.0, 0.1)
    cfg = flow.FlowConfig(T_final=2e-3, monitor_every=1)
    rep, traj = analysis.mass_liminf_experiment(
        cm, (1e-1, 1e-2), cfg,
        grid=RadialGrid.uniform(0.5, 300.0, 1024))
    # at T = 2e-3 the flow has not yet lifted R above the floor (the
    # mass-liminf defaults run to T = 0.2), so the measured values are checked
    assert rep.measured["mass_neutrality_rel"] < 1e-7
    assert rep.measured["mass_spread_rel"] < 1e-7
    assert rep.measured["final_R_min"] == pytest.approx(-0.0142, rel=1e-2)
    ref = 16 * np.pi
    assert abs(rep.measured["mass_base"] - ref) / ref < 1e-6
    assert abs(rep.measured["mass_limit"] - ref) / ref < 1e-6


def test_zero_mass_smoke():
    cfg = flow.FlowConfig(T_final=2e-3, monitor_every=10, fairness=1.5)
    rep, traj = analysis.zero_mass_experiment(
        cfg, grid=RadialGrid.staggered(60.0, 512))
    # at T = 2e-3 the flow has not yet flattened R below R_tol (criterion 6
    # checks the verdict at T = 0.05), so the measured values are checked
    assert abs(rep.measured["mass"]) < 1e-3
    assert rep.measured["sup_R_final"] < 1.0
    assert rep.measured["roundtrip_c0"] < 0.2
    assert rep.measured["map_recovery_c0"] < 0.1


def test_monitor_report_output(conformal_traj):
    rep = analysis.l1_tail_monitor(conformal_traj, (5.0, 10.0))
    text = "\n".join(rep.lines())
    assert "monitor=l1_tail" in text
    assert "passed=" in text
    buf = io.StringIO()
    rep.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 1 + len(rep.series)
