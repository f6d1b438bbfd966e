import io

import numpy as np
import pytest

from afgeo import curvature, flow, mass, metrics, oracle
from afgeo.grid import RadialGrid


@pytest.fixture(scope="module")
def lock_grid():
    return RadialGrid.uniform(0.5, 60.0, 1024)


def test_deturck_vector_matches_oracle(lock_grid):
    g = metrics.build_schwarzschild_isotropic(1.0, lock_grid)
    h = metrics.build_flat(3, lock_grid)
    W = flow.deturck_vector(g, h)
    for target in (5.0, 20.0):
        i = int(np.argmin(np.abs(lock_grid.r - target)))
        ref = oracle.deturck_vector_oracle(g, h, lock_grid.r[i])
        assert W[i] == pytest.approx(ref, rel=1e-5)


def test_deturck_vector_vanishes_on_background(lock_grid):
    g = metrics.build_conformal(0.3, 3, lock_grid)
    W = flow.deturck_vector(g, g)
    assert np.max(np.abs(W)) < 1e-13


def test_rhs_matches_closed_form_flat_background(lock_grid):
    g = metrics.build_schwarzschild_isotropic(1.0, lock_grid)
    h = metrics.build_flat(3, lock_grid)
    rA, rB = flow.eta_rhs(h, g.A - h.A, g.B - h.B, freeze_outer=0)
    oA, oB = oracle.tensor_eta_rhs(h, g.A - h.A, g.B - h.B)
    sel = (lock_grid.r > 2.0) & (lock_grid.r < 55.0)
    assert np.max(np.abs(rA - oA)[sel] / (1 + np.abs(oA[sel]))) < 1e-4
    assert np.max(np.abs(rB - oB)[sel] / (1 + np.abs(oB[sel]))) < 1e-4


def test_rhs_matches_closed_form_curved_background(lock_grid):
    # nonflat background exercises the Riemann and quadratic terms
    g = metrics.build_schwarzschild_isotropic(1.0, lock_grid)
    h = metrics.build_conformal(0.4, 3, lock_grid)
    rA, rB = flow.eta_rhs(h, g.A - h.A, g.B - h.B, freeze_outer=0)
    oA, oB = oracle.tensor_eta_rhs(h, g.A - h.A, g.B - h.B)
    sel = (lock_grid.r > 2.0) & (lock_grid.r < 55.0)
    assert np.max(np.abs(rA - oA)[sel] / (1 + np.abs(oA[sel]))) < 1e-4
    assert np.max(np.abs(rB - oB)[sel] / (1 + np.abs(oB[sel]))) < 1e-4


def test_zero_eta_reduces_to_background_ricci(lock_grid):
    h = metrics.build_conformal(0.4, 3, lock_grid)
    z = np.zeros(lock_grid.num)
    rA, rB = flow.eta_rhs(h, z, z, freeze_outer=0)
    oA, oB = oracle.tensor_eta_rhs(h, z, z)
    sel = slice(8, -8)
    assert np.max(np.abs(rA - oA)[sel]) < 1e-12
    assert np.max(np.abs(rB - oB)[sel]) < 1e-12


_GRIDS = {"staggered": lambda: RadialGrid.staggered(20.0, 256),
          "excised": lambda: RadialGrid.uniform(0.5, 20.0, 256)}
_BACKGROUNDS = {"flat": metrics.build_flat,
                "conformal": lambda n, grid: metrics.build_conformal(0.3, n,
                                                                     grid)}


@pytest.mark.parametrize("background", sorted(_BACKGROUNDS))
@pytest.mark.parametrize("grid_kind", sorted(_GRIDS))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_matches_tensor_kernel(n, grid_kind, background):
    grid = _GRIDS[grid_kind]()
    h = _BACKGROUNDS[background](n, grid)
    g = metrics.build_angular_bump(0.2, n, grid, width=2.0)
    eA, eB = g.A - h.A, g.B - h.B
    got = flow.eta_rhs(h, eA, eB, freeze_outer=0)
    ref = oracle.tensor_eta_rhs(h, eA, eB)
    got += (flow.deturck_vector(g, h),)
    ref += (oracle.tensor_deturck_vector(g, h),)
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(b))


def _schwarzschild_jets(m, r):
    """Exact (A, A', A'', B, B', B'') of isotropic Schwarzschild, A = B = u^4."""
    u = 1.0 + m / (2.0 * r)
    du = -m / (2.0 * r ** 2)
    ddu = m / r ** 3
    A = u ** 4
    dA = 4.0 * u ** 3 * du
    ddA = 12.0 * u ** 2 * du ** 2 + 4.0 * u ** 3 * ddu
    return A, dA, ddA, A, dA, ddA


def test_rhs_discretization_converges():
    errs = []
    for num in (512, 1024):
        grid = RadialGrid.uniform(0.5, 60.0, num)
        g = metrics.build_schwarzschild_isotropic(1.0, grid)
        h = metrics.build_flat(3, grid)
        rA, _ = flow.eta_rhs(h, g.A - h.A, g.B - h.B, freeze_outer=0)
        one, zero = np.ones(num), np.zeros(num)
        flat_jets = (one, zero, zero, one, zero, zero)
        exact, _ = flow._rhs_pointwise(3, grid.r,
                                       _schwarzschild_jets(1.0, grid.r),
                                       flat_jets)
        sel = (grid.r > 2.0) & (grid.r < 55.0)
        errs.append(np.max(np.abs(rA - exact)[sel]))
    # interior stencils are 4th order; demand at least cubic gain
    assert errs[0] / errs[1] > 8.0


def test_flat_data_is_stationary():
    grid = RadialGrid.staggered(40.0, 256)
    fl = metrics.build_flat(3, grid)
    traj = flow.evolve(fl, metrics.build_flat(3, grid),
                       flow.FlowConfig(T_final=1e-3, monitor_every=5))
    last = traj.snapshots[-1]
    assert np.max(np.abs(last.eta_A)) < 1e-12
    assert np.max(np.abs(last.eta_B)) < 1e-12


def test_step_halving_second_order():
    grid = RadialGrid.staggered(40.0, 256)
    h = metrics.build_flat(3, grid)
    g0 = metrics.build_angular_bump(0.1, 3, grid, width=2.0)
    eA0, eB0 = g0.A - h.A, g0.B - h.B

    def integrate(dt, steps):
        eA, eB = eA0.copy(), eB0.copy()
        for _ in range(steps):
            eA, eB = flow.h_flow_step(h, eA, eB, dt)
        return eA

    dt = 0.5 * flow.stable_dt(grid, g0.A, g0.B, 3, 0.2)
    ref = integrate(dt / 4, 16)
    err1 = np.max(np.abs(integrate(dt, 4) - ref))
    err2 = np.max(np.abs(integrate(dt / 2, 8) - ref))
    assert err1 / err2 > 3.0


def test_scalar_positivity_is_preserved():
    grid = RadialGrid.staggered(40.0, 512)
    g0 = metrics.build_conformal(0.3, 3, grid)
    traj = flow.evolve(g0, g0, flow.FlowConfig(T_final=2e-3, monitor_every=4))
    sel = grid.r < 35.0
    floor = np.min(curvature.scalar_curvature(g0)[sel])
    assert floor > 0
    for s in traj.snapshots:
        assert np.min(curvature.scalar_curvature(s.metric)[sel]) > 0.5 * floor


def test_mass_nearly_constant_along_flow():
    grid = RadialGrid.uniform(0.5, 120.0, 1024)
    sch = metrics.build_schwarzschild_isotropic(1.0, grid)
    traj = flow.evolve(sch, sch, flow.FlowConfig(T_final=2e-3, monitor_every=2))
    radii = [grid.r[np.argmin(np.abs(grid.r - t))] for t in (60, 80, 100)]
    masses = [mass.adm_mass(s.metric, radii).mass for s in traj.snapshots]
    ref = 16 * np.pi
    assert all(abs(m - ref) / ref < 1e-2 for m in masses)
    assert (max(masses) - min(masses)) / ref < 1e-4


def test_unfair_background_aborts():
    grid = RadialGrid.staggered(40.0, 256)
    g = metrics.build_conformal(0.5, 3, grid)
    h = metrics.build_flat(3, grid)
    with pytest.raises(flow.FlowAbort):
        flow.evolve(g, h, flow.FlowConfig(T_final=1e-3))


def test_nonuniform_grid_rejected():
    grid = RadialGrid.geometric(0.5, 40.0, 256, 1.01)
    g = metrics.build_flat(3, grid)
    with pytest.raises(ValueError):
        flow.evolve(g, g, flow.FlowConfig(T_final=1e-3))


def test_grid_with_origin_node_rejected():
    # the right-hand side divides by r at the first node
    grid = RadialGrid.uniform(0.0, 20.0, 64)
    g = metrics.build_conformal(0.2, 3, grid)
    with pytest.raises(ValueError, match="staggered"):
        flow.evolve(g, g, flow.FlowConfig(T_final=1e-3))


@pytest.fixture(scope="module")
def conformal_run():
    grid = RadialGrid.staggered(40.0, 768)
    g0 = metrics.build_conformal(0.2, 3, grid)
    h = metrics.build_flat(3, grid)
    cfg = flow.FlowConfig(T_final=4e-3, monitor_every=1, fairness=3.0)
    return flow.evolve(g0, h, cfg)


def test_scalar_evolution_residual_needs_advection(conformal_run):
    res_with = flow.scalar_evolution_residual(conformal_run, True)
    res_without = flow.scalar_evolution_residual(conformal_run, False)
    sel = slice(4, -4)
    a = np.max(np.abs(res_with[:, sel]))
    b = np.max(np.abs(res_without[:, sel]))
    assert a < 0.01
    assert b / a > 10.0


def test_scalar_evolution_residual_refines():
    maxima = []
    for num in (384, 768):
        grid = RadialGrid.staggered(40.0, num)
        g0 = metrics.build_conformal(0.2, 3, grid)
        cfg = flow.FlowConfig(T_final=1e-3, monitor_every=1)
        traj = flow.evolve(g0, g0, cfg)
        res = flow.scalar_evolution_residual(traj)
        maxima.append(np.max(np.abs(res[:, 4:-4])))
    assert maxima[1] < 0.5 * maxima[0]


@pytest.fixture(scope="module")
def distorted_run():
    grid = RadialGrid.staggered(40.0, 1024)
    g0 = metrics.build_distorted_flat(3, grid, kink_radius=3.0, amp=0.05)
    h = metrics.build_flat(3, grid)
    cfg = flow.FlowConfig(T_final=4e-3, monitor_every=2, fairness=1.5)
    return g0, flow.evolve(g0, h, cfg)


def test_lipschitz_data_smooths(distorted_run):
    _, traj = distorted_run
    snaps = [s for s in traj.snapshots if s.t >= traj.config.T_final / 10]
    vals = [np.sqrt(s.t) * s.diagnostics["wnorm2"] for s in snaps]
    # second derivatives obey the parabolic sqrt(t) gain and keep improving
    assert vals[-1] < vals[0]
    first = traj.snapshots[1]
    assert snaps[-1].diagnostics["wnorm1"] < first.diagnostics["wnorm1"]


def test_diffeo_roundtrip_recovers_initial_data(distorted_run):
    g0, traj = distorted_run
    phi = flow.extract_diffeomorphism(traj)
    gT = traj.snapshots[-1].metric
    pb = flow.pullback(gT, phi.at_time(0.0))
    sel = slice(4, -4)
    gauge = max(np.max(np.abs(pb.A - g0.A)[sel]), np.max(np.abs(pb.B - g0.B)[sel]))
    raw = max(np.max(np.abs(gT.A - g0.A)[sel]), np.max(np.abs(gT.B - g0.B)[sel]))
    assert gauge < 0.5 * raw


def test_taylor_identity_flags_wrong_map(conformal_run):
    traj = conformal_run
    grid = traj.snapshots[0].metric.grid
    phi = flow.extract_diffeomorphism(traj)
    k = len(traj.snapshots) // 2
    g_mid = traj.snapshots[k].metric
    gT = traj.snapshots[-1].metric
    good = flow.taylor_consistency_check(phi.at_time(traj.times()[k]), g_mid, gT)
    wrong = np.clip(phi.at_time(traj.times()[k]) * 0.9, grid.r[0], None)
    bad = flow.taylor_consistency_check(wrong, g_mid, gT)
    assert bad > 2.0 * good


def test_pullback_of_flat_by_smooth_map_stays_flat():
    grid = RadialGrid.staggered(40.0, 512)
    fl = metrics.build_flat(3, grid)
    phi = grid.r * (1.0 + 0.05 * np.exp(-((grid.r - 5.0) / 2.0) ** 2))
    g = flow.pullback(fl, phi)
    R = curvature.scalar_curvature(g)
    assert np.max(np.abs(R[8:-4])) < 1e-6


def test_evolve_counts_steps_and_rhs_evals():
    grid = RadialGrid.staggered(40.0, 256)
    g0 = metrics.build_conformal(0.2, 3, grid)
    traj = flow.evolve(g0, g0, flow.FlowConfig(T_final=2e-3, monitor_every=4))
    # Heun: two RHS evaluations per accepted step
    assert traj.steps == len(traj.dt_history) == 3
    assert traj.rhs_evals == 6
    assert sum(traj.dt_history) == pytest.approx(2e-3, rel=1e-12)


def test_trajectory_dump_format():
    grid = RadialGrid.staggered(20.0, 64)
    fl = metrics.build_flat(3, grid)
    traj = flow.evolve(fl, fl, flow.FlowConfig(T_final=1e-3, monitor_every=5))
    buf = io.StringIO()
    traj.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,r,A,B,R,W"
    assert len(lines) == 1 + len(traj.snapshots) * grid.num
