"""Acceptance gate: one printed pass/fail line per criterion.

Each test exercises a full pipeline at desk scale with pinned tolerances.
The per-criterion lines are echoed in a terminal-summary section at the end
of the pytest run.
"""

import time

import numpy as np
import pytest

import conftest
from afgeo import analysis, cli, corner, curvature, flow, heatdemo
from afgeo import mass, metrics
from afgeo.grid import RadialGrid, sphere_area


def _report(num, label, ok, detail):
    line = (f"criterion {num:2d} [{label}]: "
            f"{'PASS' if ok else 'FAIL'}  ({detail})")
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


# -- shared heavy fixtures --------------------------------------------------

@pytest.fixture(scope="module")
def corner_base():
    grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32,
                                   outer_num=512)
    return metrics.build_schwarzschild_isotropic(1.0, 3, grid)


@pytest.fixture(scope="module")
def valid_cm(corner_base):
    return corner.corner_example(corner_base, 4.0, 0.1)


@pytest.fixture(scope="module")
def flow_grid():
    return RadialGrid.uniform(0.5, 300.0, 1024)


@pytest.fixture(scope="module")
def corner_run(valid_cm, flow_grid):
    """Mollified valid corner (eps = 1e-2) evolved against itself."""
    mc, cert = corner.mollify(valid_cm, 1e-2)
    assert cert.satisfied
    sm = mc.sample(flow_grid)
    cfg = flow.FlowConfig(T_final=0.2, monitor_every=20)
    traj = flow.evolve(sm, sm, cfg)
    return cert, cfg, traj


# -- criteria ---------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_1_mass_computation(n):
    t0 = time.perf_counter()
    grid = RadialGrid.staggered(300.0, 2048)
    g = metrics.build_schwarzschild_isotropic(1.0, n, grid)
    rep = mass.adm_mass(g, grid.snap((50.0, 100.0, 200.0)))
    wall = time.perf_counter() - t0
    # m = 1 in the flux normalisation: 2 (n - 1) |S^(n-1)|, 16 pi at n = 3
    target = 2 * (n - 1) * sphere_area(n)
    rel = abs(rep.mass - target) / target
    _report(1, f"mass computation, n = {n}", rel < 1e-3 and wall < 5.0,
            f"rel_err={rel:.2e} wall={wall:.1f}s")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_2_mass_constancy(n):
    t0 = time.perf_counter()
    target = 2 * (n - 1) * sphere_area(n)  # m = 1, as in criterion 1
    grid = RadialGrid.uniform(0.5, 300.0, 2048)
    g = metrics.build_schwarzschild_isotropic(1.0, n, grid)
    cfg = flow.FlowConfig(T_final=0.01, monitor_every=2)
    rep, _ = analysis.mass_constancy_experiment(
        g, g, cfg, radii=grid.snap((100.0, 150.0, 200.0)))
    errs = [abs(row["mass"] - target) / target for row in rep.series]
    # grid-dependent component: m(r0) against m = 1, which it equals on
    # every sphere of Schwarzschild, so only the stencil error is left
    m_err = []
    for num in (1024, 2048):
        gr = RadialGrid.uniform(0.5, 300.0, num)
        gg = metrics.build_schwarzschild_isotropic(1.0, n, gr)
        i = gr.node_at(gr.snap((50.0,))[0])
        jet = curvature.jet(gr, gg.A, gg.B)[:, i]
        m_err.append(abs(curvature.mass_function(n, gr.r[i], jet) - 1.0))
    wall = time.perf_counter() - t0
    halves = m_err[0] >= 2.0 * m_err[1]
    ok = max(errs) < 1e-2 and halves and wall < 120.0
    _report(2, f"mass constancy, n = {n}", ok,
            f"max_rel_err={max(errs):.2e} "
            f"refine_ratio={m_err[0] / m_err[1]:.1f} wall={wall:.0f}s")


def test_criterion_3_negative_part_bound(corner_run):
    cert, _, traj = corner_run
    rep = analysis.rneg_monitor(traj, abs(cert.K_measured))
    ok = rep.passed and rep.measured["margin"] >= 2.0
    _report(3, "negative-part bound", ok,
            f"K={abs(cert.K_measured):.3f} "
            f"neg_max={rep.measured['neg_part_max']:.2e} "
            f"margin={rep.measured['margin']:.1f}x")


def test_criterion_4_smoothing_certificate(valid_cm, corner_base):
    K_vals = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, rep = corner.mollify(valid_cm, eps)
        assert rep.satisfied and rep.neg_part < eps
        K_vals.append(rep.K_measured)
    invalid = corner.corner_example(corner_base, 4.0, -0.1)
    floors = []
    for eps in (1e-1, 1e-2, 1e-3):
        _, rep = corner.mollify(invalid, eps)
        assert not rep.satisfied
        floors.append(rep.neg_part)
    ok = min(K_vals) > -10.0 and min(floors) > 1.0
    _report(4, "smoothing certificate", ok,
            f"K_min={min(K_vals):.3f} invalid_floor={min(floors):.2f}")


def test_criterion_5_mass_liminf(valid_cm, flow_grid):
    cfg = flow.FlowConfig(T_final=0.2, monitor_every=20)
    rep, _ = analysis.mass_liminf_experiment(
        valid_cm, (1e-1, 1e-2, 1e-3), cfg,
        radii=(100.0, 150.0, 200.0), grid=flow_grid)
    ok = rep.passed and rep.measured["final_R_min"] >= -1e-4
    _report(5, "mass lower semicontinuity", ok,
            f"limit={rep.measured['mass_limit']:.4f} "
            f"base={rep.measured['mass_base']:.4f} "
            f"R_min={rep.measured['final_R_min']:.1e}")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_6_zero_mass_rigidity(n):
    cfg = flow.FlowConfig(T_final=0.05, monitor_every=20, fairness=1.2)
    rep, _ = analysis.zero_mass_experiment(
        cfg, grid=RadialGrid.staggered(60.0, 1024), n=n)
    _report(6, f"zero-mass rigidity, n = {n}", rep.passed,
            f"mass={rep.measured['mass']:.1e} "
            f"supR={rep.measured['sup_R_final']:.1e} "
            f"roundtrip={rep.measured['roundtrip_c0']:.1e}")


def test_criterion_7_oracle_equivalence(tmp_path):
    t0 = time.perf_counter()
    code = cli.run(["verify", "--out", str(tmp_path)])
    wall = time.perf_counter() - t0
    text = (tmp_path / "verify.txt").read_text()
    worst = float(text.split("worst_rel=")[1].splitlines()[0])
    ok = code == 0 and worst < 1e-5 and wall < 10.0
    _report(7, "oracle equivalence", ok,
            f"worst_rel={worst:.1e} wall={wall:.0f}s")


def test_criterion_8_weighted_decay(corner_run):
    _, _, traj = corner_run
    rep = analysis.weighted_decay_monitor(traj)
    _report(8, "weighted decay", rep.passed,
            f"w0={rep.measured['w0_max']:.2e} "
            f"w1={rep.measured['w1_max']:.2e} "
            f"w2_late={rep.measured['w2_max_late']:.2e}")


def test_criterion_9_heat_demo():
    p = heatdemo.initial_profile()
    sel = (p.x >= 20.0) & (p.x <= 50.0)
    sups = []
    for _ in range(4):
        p = heatdemo.heat_evolve(p, 0.25)
        sups.append(float(np.max(p.x[sel] ** 2 * np.abs(p.f[sel]))))
    lo, hi = heatdemo.SUP_K0_BAND
    in_band = min(sups) >= lo and max(sups) <= hi
    # order check against a fine reference on a short domain
    ref = heatdemo.heat_evolve(heatdemo.initial_profile(30.0, 0.0125), 0.1)
    errs = []
    for dx in (0.05, 0.025):
        q = heatdemo.heat_evolve(heatdemo.initial_profile(30.0, dx), 0.1)
        fi = np.interp(q.x, ref.x, ref.f)
        errs.append(float(np.max(np.abs(q.f - fi))))
    ratio = errs[0] / errs[1]
    _report(9, "heat demo", in_band and ratio > 3.0,
            f"sup_band=[{min(sups):.3f},{max(sups):.3f}] "
            f"order_ratio={ratio:.1f}")


def test_criterion_10_cutoff_suite():
    grid = RadialGrid.geometric(0.25, 300.0, 1200, 1.004)
    rep = analysis.cutoff_report(metrics.build_flat(3, grid))
    ok = rep.passed and rep.measured["C_spread"] < 2.0
    _report(10, "cutoff suite", ok,
            f"C_spread={rep.measured['C_spread']:.3f} "
            f"C_max={rep.measured['C_meas_max']:.2f}")
