import io

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
    rA, rB = flow.eta_rhs(flow.Background(h), g.A - h.A, g.B - h.B)
    oA, oB = oracle.tensor_eta_rhs(h, g.A - h.A, g.B - h.B)
    sel = (lock_grid.r > 2.0) & (lock_grid.r < 55.0)
    assert np.max(np.abs(rA - oA)[sel] / (1 + np.abs(oA[sel]))) < 1e-4
    assert np.max(np.abs(rB - oB)[sel] / (1 + np.abs(oB[sel]))) < 1e-4


def test_rhs_matches_closed_form_curved_background(lock_grid):
    # nonflat background exercises the Riemann and quadratic terms
    g = metrics.build_schwarzschild_isotropic(1.0, 3, lock_grid)
    h = metrics.build_conformal(0.4, 3, lock_grid)
    rA, rB = flow.eta_rhs(flow.Background(h), g.A - h.A, g.B - h.B)
    oA, oB = oracle.tensor_eta_rhs(h, g.A - h.A, g.B - h.B)
    sel = (lock_grid.r > 2.0) & (lock_grid.r < 55.0)
    assert np.max(np.abs(rA - oA)[sel] / (1 + np.abs(oA[sel]))) < 1e-4
    assert np.max(np.abs(rB - oB)[sel] / (1 + np.abs(oB[sel]))) < 1e-4


def test_zero_eta_reduces_to_background_ricci(lock_grid):
    h = metrics.build_conformal(0.4, 3, lock_grid)
    z = np.zeros(lock_grid.num)
    rA, rB = flow.eta_rhs(flow.Background(h), z, z)
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
    got = flow.eta_rhs(flow.Background(h), eA, eB)
    ref = oracle.tensor_eta_rhs(h, eA, eB)
    got += (flow.deturck_vector(g, flow.Background(h)),)
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
        g = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
        h = metrics.build_flat(3, grid)
        rA, _ = flow.eta_rhs(flow.Background(h), g.A - h.A, g.B - h.B)
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
    assert np.max(np.abs(last.eta_A)) < 1e-12
    assert np.max(np.abs(last.eta_B)) < 1e-12


def test_step_halving_second_order():
    grid = RadialGrid.staggered(40.0, 256)
    h = metrics.build_flat(3, grid)
    g0 = metrics.build_angular_bump(0.1, 3, grid, width=2.0)
    eA0, eB0 = g0.A - h.A, g0.B - h.B

    bg = flow.Background(h)

    def integrate(dt, steps):
        eA, eB = eA0.copy(), eB0.copy()
        for _ in range(steps):
            eA, eB = flow.h_flow_step(bg, eA, eB, dt)
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
    assert bg.frozen == frozen
    eA, eB = g0.A - h.A, g0.B - h.B
    dt = flow.stable_dt(grid, g0.A, g0.B, 3, 0.2)
    nA, nB = flow.h_flow_step(bg, eA, eB, dt)
    held = (nA == eA) & (nB == eB)
    assert np.flatnonzero(held).tolist() == sorted(i % grid.num
                                                   for i in frozen)


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
    rA, rB = flow.eta_rhs(flow.Background(h), z, z)
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
    W, dW = flow._deturck(bg.jet, bg)
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
    dt = flow.stable_dt(grid, g0.A, g0.B, 3, cfg.cfl)
    assert t == pytest.approx(dt, rel=1e-5)
