import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from afgeo import cli, corner, curvature, flow, mass, metrics, norms, oracle
from afgeo.grid import RadialGrid


def taylor_consistency_check(phi, g_t, g_T):
    """Sup-norm residual of the radial second-derivative identity
    phi'' = Gamma^r_rr(g_t) phi' - Gamma^r_rr(g_T)(phi) (phi')^2."""
    grid = g_t.grid
    phi = np.asarray(phi, dtype=float)
    dphi = grid.deriv(phi, 1, parity=False)
    ddphi = grid.deriv(phi, 2, parity=False)
    gam_t = grid.deriv(g_t.A, 1, parity=True) / (2.0 * g_t.A)
    sA = CubicSpline(grid.r, g_T.A)
    gam_T = sA(phi, 1) / (2.0 * sA(phi))
    resid = ddphi - gam_t * dphi + gam_T * dphi ** 2
    inner = slice(3, -3)
    return float(np.max(np.abs(resid[inner])))


def scalar_evolution_residual(trajectory, include_advection=True):
    """Pointwise residual of dR/dt = Lap R + 2|Ric|^2 + W dR/dr across
    consecutive snapshot triples.  Returns array (len-2, num_nodes)."""
    snaps = trajectory.snapshots
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots")
    grid = snaps[0].metric.grid
    R_all = [curvature.scalar_curvature(s.metric) for s in snaps]
    out = []
    for i in range(1, len(snaps) - 1):
        s = snaps[i]
        dRdt = (R_all[i + 1] - R_all[i - 1]) / (snaps[i + 1].t - snaps[i - 1].t)
        R = R_all[i]
        dR = grid.deriv(R, 1, parity=True)
        resid = (dRdt - s.metric.laplacian(R)
                 - 2.0 * curvature.ricci_norm_sq(s.metric))
        if include_advection:
            resid = resid - s.W * dR
        out.append(resid)
    return np.array(out)


@pytest.fixture(scope="module")
def lock_grid():
    return RadialGrid.uniform(0.5, 60.0, 1024)


def test_deturck_vector_matches_oracle(lock_grid):
    g = metrics.build_schwarzschild_isotropic(1.0, 3, lock_grid)
    h = metrics.build_flat(3, lock_grid)
    W = flow.deturck_vector(g, flow.Background(h))
    for target in (5.0, 20.0):
        i = int(np.argmin(np.abs(lock_grid.r - target)))
        ref = oracle.deturck_vector_oracle(g, h, lock_grid.r[i])
        assert W[i] == pytest.approx(ref, rel=1e-5)


def test_deturck_vector_vanishes_on_background(lock_grid):
    g = metrics.build_conformal(0.3, 3, lock_grid)
    W = flow.deturck_vector(g, flow.Background(g))
    assert np.max(np.abs(W)) < 1e-13


def test_rhs_matches_closed_form_flat_background(lock_grid):
    g = metrics.build_schwarzschild_isotropic(1.0, 3, lock_grid)
    h = metrics.build_flat(3, lock_grid)
    rA, rB = flow.eta_rhs(flow.Background(h),
                          np.stack([g.A - h.A, g.B - h.B], -1)).T
    oA, oB = oracle.tensor_eta_rhs(h, g.A - h.A, g.B - h.B)
    sel = (lock_grid.r > 2.0) & (lock_grid.r < 55.0)
    assert np.max(np.abs(rA - oA)[sel] / (1 + np.abs(oA[sel]))) < 1e-4
    assert np.max(np.abs(rB - oB)[sel] / (1 + np.abs(oB[sel]))) < 1e-4


def test_rhs_matches_closed_form_curved_background(lock_grid):
    # nonflat background exercises the Riemann and quadratic terms
    g = metrics.build_schwarzschild_isotropic(1.0, 3, lock_grid)
    h = metrics.build_conformal(0.4, 3, lock_grid)
    rA, rB = flow.eta_rhs(flow.Background(h),
                          np.stack([g.A - h.A, g.B - h.B], -1)).T
    oA, oB = oracle.tensor_eta_rhs(h, g.A - h.A, g.B - h.B)
    sel = (lock_grid.r > 2.0) & (lock_grid.r < 55.0)
    assert np.max(np.abs(rA - oA)[sel] / (1 + np.abs(oA[sel]))) < 1e-4
    assert np.max(np.abs(rB - oB)[sel] / (1 + np.abs(oB[sel]))) < 1e-4


def test_zero_eta_reduces_to_background_ricci(lock_grid):
    h = metrics.build_conformal(0.4, 3, lock_grid)
    z = np.zeros(lock_grid.num)
    rA, rB = flow.eta_rhs(flow.Background(h), np.stack([z, z], -1)).T
    oA, oB = oracle.tensor_eta_rhs(h, z, z)
    sel = slice(8, -8)
    assert np.max(np.abs(rA - oA)[sel]) < 1e-12
    assert np.max(np.abs(rB - oB)[sel]) < 1e-12


_GRIDS = {"staggered": lambda: RadialGrid.staggered(20.0, 256),
          "excised": lambda: RadialGrid.uniform(0.5, 20.0, 256),
          "geometric": lambda: RadialGrid.geometric(0.5, 40.0, 256, 1.01),
          "corner": lambda: corner.make_corner_grid(0.5, 4.0, 40.0,
                                                    fine_dr=1 / 16,
                                                    outer_num=128)}
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
    got = tuple(flow.eta_rhs(flow.Background(h), np.stack([eA, eB], -1)).T)
    ref = oracle.tensor_eta_rhs(h, eA, eB)
    got += (flow.deturck_vector(g, flow.Background(h)),)
    ref += (oracle.tensor_deturck_vector(g, h),)
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(b))


def _schwarzschild_jets(m, r):
    """Exact 2-jet of isotropic Schwarzschild, A = B = u^4, shape (3, N, 2)."""
    u = 1.0 + m / (2.0 * r)
    du = -m / (2.0 * r ** 2)
    ddu = m / r ** 3
    A = u ** 4
    dA = 4.0 * u ** 3 * du
    ddA = 12.0 * u ** 2 * du ** 2 + 4.0 * u ** 3 * ddu
    return np.stack([[A, dA, ddA]] * 2, axis=-1)


def test_rhs_discretization_converges():
    errs = []
    for num in (512, 1024):
        grid = RadialGrid.uniform(0.5, 60.0, num)
        g = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
        h = metrics.build_flat(3, grid)
        rA, _ = flow.eta_rhs(flow.Background(h),
                             np.stack([g.A - h.A, g.B - h.B], -1)).T
        # the flat background's stencil jets are exact to roundoff (5e-13)
        exact, _ = flow._rhs_pointwise(_schwarzschild_jets(1.0, grid.r),
                                       flow.Background(h))
        sel = (grid.r > 2.0) & (grid.r < 55.0)
        errs.append(np.max(np.abs(rA - exact)[sel]))
    # interior stencils are 4th order; demand at least cubic gain
    assert errs[0] / errs[1] > 8.0


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("grid", [
    RadialGrid.staggered(40.0, 256), RadialGrid.uniform(0.5, 40.0, 256),
    RadialGrid.geometric(0.5, 40.0, 256, 1.01),
    corner.make_corner_grid(0.5, 4.0, 40.0, fine_dr=1 / 16, outer_num=128)],
    ids=["staggered", "excised-uniform", "geometric", "corner"])
def test_flat_data_is_stationary(grid, n):
    fl = metrics.build_flat(n, grid)
    traj = flow.evolve(fl, metrics.build_flat(n, grid),
                       flow.FlowConfig(T_final=1e-3, monitor_every=5))
    last = traj.snapshots[-1]
    assert np.max(np.abs(last.eta[:, 0])) < 1e-12
    assert np.max(np.abs(last.eta[:, 1])) < 1e-12


def test_step_halving_second_order():
    grid = RadialGrid.staggered(40.0, 256)
    h = metrics.build_flat(3, grid)
    g0 = metrics.build_angular_bump(0.1, 3, grid, width=2.0)
    eA0, eB0 = g0.A - h.A, g0.B - h.B

    bg = flow.Background(h)

    def integrate(dt, steps):
        eta = np.stack([eA0, eB0], -1)
        for _ in range(steps):
            eta = flow.h_flow_step(bg, eta, dt)
        return eta[:, 0]

    dt = 0.5 * flow.stable_dt(grid, g0.A, g0.B, 3)
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
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
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


@pytest.mark.parametrize("kw", [
    {"T_final": np.inf}, {"T_final": np.nan}, {"T_final": 0.0},
    {"fairness": np.nan}, {"fairness": np.inf}, {"fairness": 0.9}])
def test_flow_config_refuses_what_no_flow_can_honour(kw):
    # T_final = inf would step until the flow aborts, or forever on a flat
    # background; so it is refused here and never run
    with pytest.raises(ValueError, match="must be finite"):
        flow.FlowConfig(**{"T_final": 1e-3, **kw})


@pytest.mark.parametrize("grid, code", [
    # first node 0.17 dr from the origin: flat space passed the old gate,
    # then aborted with exit 3, "fairness lost at t=0.0016"
    ("uniform:rmin=0.01,rmax=60,num=1024", 2),
    ("geometric:rmin=0.5,rmax=40,num=256,ratio=1.01", 0)],
    ids=["uniform-rmin-0.01", "geometric"])
def test_flow_grid_needs_its_first_node_half_a_cell_out(grid, code, tmp_path):
    assert cli.run(["flow", "--metric", "flat", "--grid", grid,
                    "--out", str(tmp_path)]) == code


def test_grid_closer_to_the_origin_than_half_a_cell_rejected():
    # 2 r[0] / dr_min = 0.58; flat data on this grid aborted at t = 0.003
    g = metrics.build_flat(3, RadialGrid.geometric(0.01, 40.0, 256, 1.01))
    with pytest.raises(ValueError, match=r"r\[0\] = 0.01 .* dr_min = 0.0343"):
        flow.evolve(g, g, flow.FlowConfig(T_final=1e-3))


@pytest.mark.parametrize("grid, frozen", [
    (RadialGrid.staggered(20.0, 128), [-2, -1]),
    (RadialGrid.uniform(0.5, 20.0, 128), [0, 1, -2, -1])])
def test_step_holds_the_frozen_boundary_nodes(grid, frozen):
    # the outer edge always; the inner edge only where the grid is excised
    g0 = metrics.build_conformal(0.2, 3, grid)
    h = metrics.build_conformal(0.19, 3, grid)
    bg = flow.Background(h)
    assert bg.frozen.tolist() == frozen
    eA, eB = g0.A - h.A, g0.B - h.B
    dt = flow.stable_dt(grid, g0.A, g0.B, 3)
    nA, nB = flow.h_flow_step(bg, np.stack([eA, eB], -1), dt).T
    held = (nA == eA) & (nB == eB)
    assert np.flatnonzero(held).tolist() == sorted(i % grid.num
                                                   for i in frozen)


def _per_field_rhs(bg, eA, eB):
    """(dt eta_A, dt eta_B) written field by field, each of its own
    arithmetic: the reference the one-array flow state must equal."""
    gj = bg.jet + curvature.jet(bg.h.grid, eA, eB)
    (A, B), (dA, dB), (ddA, ddB) = gj.swapaxes(1, -1)
    W, dW = flow._deturck(bg, A, B, dA, dB, ddA, ddB)
    ric_rad, ric_tan = curvature.ricci(bg.n, bg.r, gj)
    return (-2.0 * A * ric_rad + W * dA + 2.0 * A * dW,
            -2.0 * B * ric_tan + W * (dB + 2.0 * B / bg.r))


def _per_field_heun(bg, eA, eB, dt):
    kA1, kB1 = _per_field_rhs(bg, eA, eB)
    kA1[bg.frozen] = kB1[bg.frozen] = 0.0
    kA2, kB2 = _per_field_rhs(bg, eA + dt * kA1, eB + dt * kB1)
    kA2[bg.frozen] = kB2[bg.frozen] = 0.0
    return eA + 0.5 * dt * (kA1 + kA2), eB + 0.5 * dt * (kB1 + kB2)


@pytest.mark.parametrize("grid", [
    RadialGrid.staggered(40.0, 256), RadialGrid.uniform(0.5, 40.0, 256),
    corner.make_corner_grid(0.5, 4.0, 40.0, fine_dr=1 / 16, outer_num=128)],
    ids=["staggered", "excised-uniform", "corner"])
@pytest.mark.parametrize("n", [3, 5])
def test_one_array_step_equals_the_per_field_step_bit_for_bit(grid, n):
    h = metrics.build_conformal(0.3, n, grid)
    g0 = metrics.build_angular_bump(0.2, n, grid, width=2.0)
    bg = flow.Background(h)
    eA, eB = g0.A - h.A, g0.B - h.B
    eta = np.stack([eA, eB], -1)
    assert np.array_equal(flow.eta_rhs(bg, eta).T, _per_field_rhs(bg, eA, eB))
    dt = flow.stable_dt(grid, g0.A, g0.B, n)
    for _ in range(3):  # the frozen nodes are compared too
        eta = flow.h_flow_step(bg, eta, dt)
        eA, eB = _per_field_heun(bg, eA, eB, dt)
        assert np.array_equal(eta, np.stack([eA, eB], -1))
    # evolve: the per-field loop, its step sizes from g = h + eta
    T = 7.5 * dt
    traj = flow.evolve(g0, h, flow.FlowConfig(T_final=T, monitor_every=3,
                                              fairness=3.0))
    eA, eB, t, steps = g0.A - h.A, g0.B - h.B, 0.0, 0
    while t < T - 1e-15:
        gA, gB = h.A + eA, h.B + eB
        if steps % 3 == 0:
            s = traj.snapshots[steps // 3]
            assert s.t == t and np.array_equal(s.eta, np.stack([eA, eB], -1))
            assert np.array_equal(s.metric.A, gA)
            assert np.array_equal(s.metric.B, gB)
        dt = min(flow.stable_dt(grid, gA, gB, n), T - t)
        assert dt == traj.dt_history[steps]
        eA, eB = _per_field_heun(bg, eA, eB, dt)
        t, steps = t + dt, steps + 1
    assert steps == traj.steps
    assert np.array_equal(traj.snapshots[-1].eta, np.stack([eA, eB], -1))


def test_grid_with_origin_node_rejected():
    # the right-hand side divides by r at the first node: no grid has one
    with pytest.raises(ValueError, match="staggered"):
        RadialGrid.uniform(0.0, 20.0, 64)


@pytest.fixture(scope="module")
def conformal_run():
    grid = RadialGrid.staggered(40.0, 768)
    g0 = metrics.build_conformal(0.2, 3, grid)
    h = metrics.build_flat(3, grid)
    cfg = flow.FlowConfig(T_final=4e-3, monitor_every=1, fairness=3.0)
    return flow.evolve(g0, h, cfg)


def test_scalar_evolution_residual_needs_advection(conformal_run):
    res_with = scalar_evolution_residual(conformal_run, True)
    res_without = scalar_evolution_residual(conformal_run, False)
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
        res = scalar_evolution_residual(traj)
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
    snaps = [s for s in traj.snapshots if s.t >= traj.times()[-1] / 10]
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
    good = taylor_consistency_check(phi.at_time(traj.times()[k]), g_mid, gT)
    wrong = np.clip(phi.at_time(traj.times()[k]) * 0.9, grid.r[0], None)
    bad = taylor_consistency_check(wrong, g_mid, gT)
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


def test_trajectory_dump_bytes_match_row_format():
    # the block per snapshot writes exactly what a row-by-row f-string wrote
    grid = RadialGrid.staggered(20.0, 64)
    g = metrics.build_conformal(0.2, 3, grid)
    traj = flow.evolve(g, metrics.build_conformal(0.19, 3, grid),
                       flow.FlowConfig(T_final=1e-3, monitor_every=2))
    want = ["t,r,A,B,R,W"]
    for s in traj.snapshots:
        R = curvature.scalar_curvature(s.metric)
        for j, r in enumerate(s.metric.grid.r):
            want.append(f"{s.t:.12g},{r:.12g},{s.metric.A[j]:.12g},"
                        f"{s.metric.B[j]:.12g},{R[j]:.12g},{s.W[j]:.12g}")
    buf = io.StringIO()
    traj.dump(buf)
    assert buf.getvalue() == "\n".join(want) + "\n"


def test_eta_rhs_reads_the_background_jet(monkeypatch):
    # inside eta_rhs the only jet taken is eta's: h's comes from the
    # background that evolve builds once
    grid = RadialGrid.staggered(40.0, 256)
    g0 = metrics.build_conformal(0.2, 3, grid)
    inside, counts = [], {"rhs": 0, "jet": 0}
    eta_rhs, jet = flow.eta_rhs, flow.jet

    def counted_rhs(*args, **kwargs):
        counts["rhs"] += 1
        inside.append(True)
        try:
            return eta_rhs(*args, **kwargs)
        finally:
            inside.pop()

    def counted_jet(grid, A, B):
        counts["jet"] += bool(inside)
        return jet(grid, A, B)

    monkeypatch.setattr(flow, "eta_rhs", counted_rhs)
    monkeypatch.setattr(flow, "jet", counted_jet)
    traj = flow.evolve(g0, g0, flow.FlowConfig(T_final=2e-3, monitor_every=4))
    assert counts["rhs"] == traj.rhs_evals == 6
    assert counts["jet"] == counts["rhs"]


def test_trajectory_dump_format():
    grid = RadialGrid.staggered(20.0, 64)
    fl = metrics.build_flat(3, grid)
    traj = flow.evolve(fl, fl, flow.FlowConfig(T_final=1e-3, monitor_every=5))
    buf = io.StringIO()
    traj.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,r,A,B,R,W"
    assert len(lines) == 1 + len(traj.snapshots) * grid.num


_bump_amp = st.floats(0.05, 0.5) | st.floats(-0.5, -0.05)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), a=_bump_amp, b=_bump_amp,
       wa=st.floats(1.0, 4.0), wb=st.floats(1.0, 4.0))
# W and dW/dr of 7e-15 and 3e-14 at r = 0.04-0.12, from dividing before
# differencing, once broke the |Ric|^2 bound here, where max |Ric|^2 is 8e-6
@example(n=3, a=0.0625, b=0.0625, wa=1.5234375, wb=2.59375)
def test_rhs_at_zero_eta_is_minus_twice_ricci(n, a, b, wa, wb):
    # g = h: W vanishes, so dt A = -2 A Ric_rad and dt B = -2 B Ric_tan
    grid = RadialGrid.staggered(20.0, 256)
    A = 1.0 + a * np.exp(-(grid.r / wa) ** 2)
    B = 1.0 + b / (1.0 + (grid.r / wb) ** 2)
    h = metrics.RadialMetric(grid, n, A, B)
    z = np.zeros(grid.num)
    rA, rB = flow.eta_rhs(flow.Background(h), np.stack([z, z], -1)).T
    rad, tan = -rA / (2.0 * A), -rB / (2.0 * B)
    R = curvature.scalar_curvature(h)
    ric2 = curvature.ricci_norm_sq(h)
    assert np.max(np.abs(rad + (n - 1) * tan - R)) <= 1e-10 * np.max(np.abs(R))
    assert (np.max(np.abs(rad ** 2 + (n - 1) * tan ** 2 - ric2))
            <= 1e-10 * np.max(ric2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_deturck_vector_is_exactly_zero_at_the_background(n):
    # g = h: like terms are differenced before any division, so W and dW/dr
    # cancel to the bit, not to roundoff
    grid = RadialGrid.staggered(20.0, 256)
    A = 1.0 + 0.0625 * np.exp(-(grid.r / 1.5234375) ** 2)
    B = 1.0 + 0.0625 / (1.0 + (grid.r / 2.59375) ** 2)
    bg = flow.Background(metrics.RadialMetric(grid, n, A, B))
    (A, B), (dA, dB), (ddA, ddB) = bg.jet.swapaxes(1, -1)
    W, dW = flow._deturck(bg, A, B, dA, dB, ddA, ddB)
    assert not np.any(W) and not np.any(dW)


def test_fairness_checked_once_at_the_start_and_once_per_step(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return norms.fairness_ratios(*args)

    monkeypatch.setattr(flow, "fairness_ratios", counted)
    grid = RadialGrid.staggered(40.0, 256)
    g0 = metrics.build_conformal(0.2, 3, grid)
    traj = flow.evolve(g0, g0, flow.FlowConfig(T_final=2e-3, monitor_every=1))
    # the initial metric against f, then every step against 2f - 1
    assert [c[-1] for c in calls] == pytest.approx([1.1] + [1.2] * traj.steps)


def test_fairness_checked_at_every_step():
    # g(0) = h is curved, so g(t) leaves h at once; with 2f - 1 = 1 + 2e-9
    # the first step already breaks fairness, long before any snapshot
    grid = RadialGrid.staggered(40.0, 256)
    g0 = metrics.build_conformal(0.2, 3, grid)
    cfg = flow.FlowConfig(T_final=1e-2, monitor_every=1000,
                          fairness=1.0 + 1e-9)
    with pytest.raises(flow.FlowAbort, match="fairness lost") as e:
        flow.evolve(g0, g0, cfg)
    t = float(str(e.value).split("t=")[1].split(":")[0])
    dt = flow.stable_dt(grid, g0.A, g0.B, 3)
    assert t == pytest.approx(dt, rel=1e-5)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("case", ["zero-mass", "conformal"])
def test_snapshot_monitors_equal_a_fresh_evaluation(n, case):
    # W and the decay norms are computed when first read, from the
    # snapshot's metric and eta: bitwise what deturck_vector and
    # eta_sup_norms give, one key per number
    grid = RadialGrid.staggered(40.0, 256)
    if case == "zero-mass":
        g0 = metrics.build_distorted_flat(n, grid, amp=0.01,
                                          smooth_width=6 * grid.dr_min)
        h = metrics.build_flat(n, grid)
    else:
        g0 = h = metrics.build_conformal(0.2, n, grid)
    traj = flow.evolve(g0, h, flow.FlowConfig(T_final=2e-3, monitor_every=2))
    assert len(traj.snapshots) > 2
    for s in traj.snapshots:
        W = flow.deturck_vector(s.metric, flow.Background(h))
        w0, w1, w2 = norms.eta_sup_norms(grid, s.eta, g0.delta)
        assert s.W.tobytes() == W.tobytes()
        assert s.diagnostics == {"wnorm0": w0, "wnorm1": w1, "wnorm2": w2}


@pytest.mark.parametrize("argv, code, each", [
    (["mass-constancy", "--grid", "uniform:rmin=0.5,rmax=120,num=256",
      "--T", "5e-2", "--monitor-every", "1"], 0, 0),
    # at T = 0.02, R has not yet cleared its floor: exit 1
    (["mass-liminf", "--grid", "uniform:rmin=0.5,rmax=120,num=512",
      "--T", "2e-2", "--eps", "1e-1,5e-2"], 1, 0),
    (["zero-mass", "--grid", "staggered:rmax=60,num=256", "--T", "2.5e-2",
      "--monitor-every", "2", "--amp", "0.01"], 0, 1)],
    ids=["mass-constancy", "mass-liminf", "zero-mass"])
def test_snapshot_monitors_run_only_where_a_report_reads_them(
        argv, code, each, monkeypatch, tmp_path):
    # the mass experiments read each snapshot's metric and time only;
    # zero-mass reads every W and the gradient norm, each computed once
    calls = {"deturck_vector": 0, "eta_sup_norms": 0}
    trajectories = []

    def counted(name):
        fn = getattr(flow, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def evolve(*args):
        trajectories.append(run_evolve(*args))
        return trajectories[-1]

    run_evolve = flow.evolve
    for name in calls:
        monkeypatch.setattr(flow, name, counted(name))
    monkeypatch.setattr(flow, "evolve", evolve)
    assert cli.run(argv + ["--out", str(tmp_path)]) == code
    snaps = sum(len(t.snapshots) for t in trajectories)
    assert snaps > 2
    assert calls == {"deturck_vector": each * snaps,
                     "eta_sup_norms": each * snaps}


def test_positivity_abort_names_its_step_and_node(monkeypatch):
    grid = RadialGrid.staggered(20.0, 128)
    h = metrics.build_conformal(0.2, 3, grid)
    bg = flow.Background(h)
    z = np.zeros(grid.num)
    eta_B = z.copy()
    eta_B[[7, 9]] = -2.0 * h.B[[7, 9]]
    with pytest.raises(flow.FlowAbort, match="positivity") as e:
        flow.eta_rhs(bg, np.stack([z, eta_B], -1))
    assert (e.value.node, e.value.t, e.value.step) == (7, None, None)
    # evolve adds the step that failed and the time it was to reach
    rhs, seen = flow.eta_rhs, []

    def fail_on_third(bg, eta):
        seen.append(0)
        if len(seen) == 3:
            raise flow.FlowAbort("metric positivity lost", node=7)
        return rhs(bg, eta)

    monkeypatch.setattr(flow, "eta_rhs", fail_on_third)
    with pytest.raises(flow.FlowAbort) as e:
        flow.evolve(h, h, flow.FlowConfig(T_final=1e-2))
    dt = flow.stable_dt(grid, h.A, h.B, 3)
    assert (e.value.step, e.value.node) == (2, 7)
    assert e.value.t > dt


def test_nan_abort_names_its_step_and_first_bad_node(monkeypatch):
    grid = RadialGrid.staggered(20.0, 128)
    h = metrics.build_conformal(0.2, 3, grid)
    step = flow.h_flow_step

    failed = []

    def nan_at_node_5(bg, eta, dt):
        eta = step(bg, eta, dt)
        eta[5, 1] = eta[11, 0] = np.nan
        failed.append((h.A + eta[:, 0], h.B + eta[:, 1]))
        return eta

    monkeypatch.setattr(flow, "h_flow_step", nan_at_node_5)
    with pytest.raises(flow.FlowAbort, match="NaN") as e:
        flow.evolve(h, h, flow.FlowConfig(T_final=1e-2))
    dt = flow.stable_dt(grid, h.A, h.B, 3)
    assert (e.value.step, e.value.node) == (1, 5)
    assert e.value.t == dt
    # the least A and B of the failed state pass over its NaNs
    mA, mB = (float(np.nanmin(f)) for f in failed[-1])
    assert (e.value.min_A, e.value.min_B) == (mA, mB)
    assert (f"t={dt:.6g} step=1 node=5 min_A={mA:.6g} min_B={mB:.6g}"
            == e.value.where())
    # the message keeps the time the failed step started from
    assert str(e.value) == "NaN detected at t=0"


def test_fairness_abort_names_the_extreme_ratio():
    grid = RadialGrid.staggered(40.0, 256)
    g0 = metrics.build_conformal(0.2, 3, grid)
    cfg = flow.FlowConfig(T_final=1e-2, monitor_every=1000,
                          fairness=1.0 + 1e-9)
    with pytest.raises(flow.FlowAbort, match="fairness lost") as e:
        flow.evolve(g0, g0, cfg)
    a = e.value
    assert a.step == 1 and a.t == flow.stable_dt(grid, g0.A, g0.B, 3)
    # the ratio named is the end of the range farther from 1
    lo, hi = a.ratios
    g1 = flow.evolve(g0, g0, flow.FlowConfig(T_final=a.t)).snapshots[-1]
    ratio = (getattr(g1.metric, a.field)[a.node]
             / getattr(g0, a.field)[a.node])
    assert ratio == (lo if lo * hi < 1.0 else hi)


def test_aborts_carry_the_least_A_and_B_of_the_failed_state():
    # positivity: the stage metric g = h + eta that failed
    grid = RadialGrid.staggered(20.0, 128)
    h = metrics.build_conformal(0.2, 3, grid)
    eta_B = np.zeros(grid.num)
    eta_B[[7, 9]] = -2.0 * h.B[[7, 9]]
    with pytest.raises(flow.FlowAbort, match="positivity") as e:
        flow.eta_rhs(flow.Background(h),
                     np.stack([np.zeros(grid.num), eta_B], -1))
    assert e.value.min_A == np.min(h.A)
    assert e.value.min_B == np.min(h.B + eta_B) < 0
    assert e.value.where() == (f"node=7 min_A={np.min(h.A):.6g} "
                               f"min_B={np.min(h.B + eta_B):.6g}")
    # fairness: the state whose ratios failed, here g after step 1
    grid = RadialGrid.staggered(40.0, 256)
    g0 = metrics.build_conformal(0.2, 3, grid)
    with pytest.raises(flow.FlowAbort, match="fairness lost") as e:
        flow.evolve(g0, g0, flow.FlowConfig(T_final=1e-2, monitor_every=1000,
                                            fairness=1.0 + 1e-9))
    g1 = flow.evolve(g0, g0, flow.FlowConfig(T_final=e.value.t))
    g1 = g1.snapshots[-1].metric
    assert (e.value.min_A, e.value.min_B) == (np.min(g1.A), np.min(g1.B))
    # a field that is NaN everywhere reads NaN, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = flow.FlowAbort("NaN", state=(np.full(4, np.nan),
                                         np.array([2.0, np.nan, 1.5])))
    assert np.isnan(a.min_A) and a.min_B == 1.5
    assert flow.FlowAbort("x").where() == ""
