"""Monitors and end-to-end experiments for the flow of radial metrics.

Each monitor consumes an immutable trajectory (or metric) and produces a
MonitorReport: measured quantities, the tolerances they were held to, and a
verdict.  Experiments chain construction, smoothing, evolution and monitors.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import smoothstep
from .metrics import build_flat, build_distorted_flat, radial_kink_map, volume_element
from .curvature import scalar_curvature
from .mollifier import negative_parts
from . import corner as corner_mod
from . import flow as flow_mod
from . import mass as mass_mod

CUTOFF_LADDER = ((2.0, 8.0), (4.0, 16.0), (8.0, 32.0))  # (r1, r2) rungs
VALUE_TOL = 1e-6       # slack of the cutoff's nodewise value constraints
GRONWALL_TOL = 1e-9    # relative slack of both Gronwall comparisons
RNEG_TOL = 1e-6        # absolute slack of the negative-part cap
L1_MONO_TOL = 1e-9     # tail growth along the radius ladder still monotone
FLUX_TOL = 1e-12       # slack of the boundary-flux comparisons
W2_FLOOR_FRAC = 0.1    # the second-derivative norm counts from t >= this T
ZERO_MASS_TOLS = {"mass_tol": 1e-3, "R_tol": 1e-4, "roundtrip_tol": 1e-2,
                  "map_tol": 1e-1}


@dataclass
class MonitorReport:
    monitor: str
    passed: bool
    tolerances: dict
    measured: dict
    series: list = field(default_factory=list)  # rows of {column: value}

    def lines(self):
        out = [f"monitor={self.monitor}", f"passed={self.passed}"]
        out += [f"tol_{k}={v:g}" for k, v in self.tolerances.items()]
        out += [f"{k}={v}" for k, v in self.measured.items()]
        return out

    def write_csv(self, fh):
        if not self.series:
            return
        cols = list(self.series[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in self.series:
            fh.write(",".join(f"{row[c]:.12g}" for c in cols) + "\n")


# -- cutoff functions -------------------------------------------------------

@dataclass
class CutoffFunction:
    r1: float
    r2: float
    values: np.ndarray
    C_meas: float


def _cubic_step(x):
    # quadratic onset keeps sup(f''/f) at the ramp start independent of scale
    x = np.clip(x, 0.0, 1.0)
    return x ** 2 * (3.0 - 2.0 * x)


def build_cutoff(r1, r2, metric):
    """Product cutoff: a bump rising from 1/r1^2 to 1 + 1/r1^2 across
    [r1, 2r1], flat to r2, then decaying to r^{-n-1} beyond 2r2.

    Satisfies Delta f <= C f with C independent of (r1, r2).
    """
    if not 1.0 < r1:
        raise ValueError("need r1 > 1")
    if not 2.0 * r1 < r2:
        raise ValueError("need r2 > 2 r1")
    if not r2 < metric.grid.r_max / 2.0:
        raise ValueError("need r2 < r_max / 2")
    r = metric.grid.r
    bump = _cubic_step(r / r1 - 1.0) + 1.0 / r1 ** 2
    top = 1.0 + 1.0 / r1 ** 2
    n = metric.n
    target = np.where(r > 1.0, r ** (-(n + 1.0)) / top, 1.0)
    chi = smoothstep(r / r2 - 1.0)
    taper = np.exp(chi * np.log(target))
    f = bump * taper
    lap = metric.laplacian(f)
    sel = slice(3, -3)  # clipped boundary stencils excluded
    C_meas = float(np.max(lap[sel] / f[sel]))
    return CutoffFunction(r1, r2, f, C_meas)


def cutoff_report(metric):
    """Nodewise value constraints plus ladder stability of C_meas."""
    r = metric.grid.r
    rows = []
    checks = []
    cs = []
    n = metric.n
    for r1, r2 in CUTOFF_LADDER:
        co = build_cutoff(r1, r2, metric)
        f = co.values
        inner = r < r1
        mid = (2.0 * r1 <= r) & (r <= r2)
        tail = r > 2.0 * r2
        ok = (bool(np.all((f > 0) & (f <= 2.0 + VALUE_TOL)))
              and bool(np.all(np.abs(f[inner] - 1.0 / r1 ** 2) <= VALUE_TOL))
              and bool(np.all(f[mid] >= 1.0 - VALUE_TOL))
              and bool(np.all(f[tail] <= r[tail] ** -(n + 1.0) + VALUE_TOL)))
        checks.append(ok)
        cs.append(co.C_meas)
        rows.append({"r1": r1, "r2": r2, "C_meas": co.C_meas, "values_ok": ok})
    spread = max(cs) / max(min(cs), 1e-300)
    passed = all(checks) and min(cs) > 0 and spread < 2.0
    return MonitorReport("cutoff", passed,
                         {"value_tol": VALUE_TOL, "C_spread_max": 2.0},
                         {"C_meas_min": min(cs), "C_meas_max": max(cs),
                          "C_spread": spread}, rows)


# -- discrete Gronwall ------------------------------------------------------

def gronwall_check(times, F, A, B):
    """Discrete check of F' <= A F + B on [0,1] and of the integrated bound
    F(t) <= e^A F(0) + B e^A.  A hypothesis failure is reported as such
    rather than as a bound failure."""
    times = np.asarray(times, dtype=float)
    F = np.asarray(F, dtype=float)
    if times[0] < 0 or times[-1] > 1.0 + 1e-12:
        raise ValueError("time series must lie in [0, 1]")
    hyp_ok = True
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        # one exact integrating-factor step of the comparison ODE
        bound = np.exp(A * dt) * F[i] + B * dt * np.exp(A * dt)
        if F[i + 1] > bound + GRONWALL_TOL * (1.0 + abs(bound)):
            hyp_ok = False
            break
    glob = np.exp(A) * F[0] + B * np.exp(A)
    bound_ok = bool(np.all(F <= glob + GRONWALL_TOL * (1.0 + abs(glob))))
    if hyp_ok and bound_ok:
        mode = "none"
    elif not hyp_ok:
        mode = "hypothesis"
    else:
        mode = "bound"
    rows = [{"t": t, "F": f} for t, f in zip(times, F)]
    return MonitorReport("gronwall", hyp_ok and bound_ok,
                         {"tol": GRONWALL_TOL},
                         {"failure_mode": mode, "global_bound": glob,
                          "F_max": float(np.max(F))}, rows)


# -- negative part of the scalar curvature ----------------------------------

def _weighted_R(metric):
    """R and dV/dr at the nodes, the weight of the 5 nodes at each end zeroed:
    their clipped stencils' noise, scaled by the r^{n-1} volume weight, would
    otherwise dominate small integrals."""
    w = metric.volume_density()
    w[:5] = 0.0
    w[-5:] = 0.0
    return scalar_curvature(metric), w


def negative_part(metric):
    """integral of |R| over {R < 0}: the trapezoid of the corner
    certificate's integrand."""
    R, w = _weighted_R(metric)
    return float(metric.grid.trapz(negative_parts(R, w)[:, 0]))


def rneg_monitor(trajectory, K):
    """negative_part(g(t)) <= e^K negative_part(g(0)) + RNEG_TOL at every
    snapshot."""
    snaps = trajectory.snapshots
    p0 = negative_part(snaps[0].metric)
    cap = np.exp(K) * p0 + RNEG_TOL
    rows = []
    worst = 0.0
    worst_late = 0.0
    for s in snaps:
        p = negative_part(s.metric)
        rows.append({"t": s.t, "neg_part": p, "cap": cap})
        worst = max(worst, p)
        if s.t > snaps[0].t:
            worst_late = max(worst_late, p)
    # the t=0 comparison is an equality up to e^K, so the margin is only
    # informative once the flow has acted
    margin = cap / worst_late if worst_late > 0 else np.inf
    return MonitorReport("rneg", worst <= cap, {"abs_tol": RNEG_TOL},
                         {"K": K, "neg_part_initial": p0,
                          "neg_part_max": worst, "margin": margin}, rows)


# -- scalar-curvature tails and boundary fluxes -----------------------------

def _tail_integral(metric, r0):
    R, w = _weighted_R(metric)
    r = metric.grid.r
    mask = r >= r0
    return float(np.trapezoid((w * np.abs(R))[mask], r[mask]))


def l1_tail_monitor(trajectory, radii):
    """Tails integral(|R|) over r > r0 for the radius ladder: decreasing in r
    at every snapshot, and bounded by a single curve eta~(r) = sup over t."""
    radii = sorted(radii)
    rows = []
    sup_curve = np.zeros(len(radii))
    mono_ok = True
    for s in trajectory.snapshots:
        tails = [_tail_integral(s.metric, r0) for r0 in radii]
        if np.any(np.diff(tails) > L1_MONO_TOL):
            mono_ok = False
        sup_curve = np.maximum(sup_curve, tails)
        row = {"t": s.t}
        row.update({f"tail_r{r0:g}": v for r0, v in zip(radii, tails)})
        rows.append(row)
    # growth constant of the doubling relation eta~(2r) <= C (r^-2 + eta(r)),
    # with eta measured on the initial data
    eta0 = {r0: _tail_integral(trajectory.snapshots[0].metric, r0)
            for r0 in radii}
    C_fit = 0.0
    for i, r0 in enumerate(radii):
        if 2.0 * r0 in radii:
            j = radii.index(2.0 * r0)
            C_fit = max(C_fit, sup_curve[j] / (r0 ** -2 + eta0[r0]))
    meas = {f"eta_sup_r{r0:g}": v for r0, v in zip(radii, sup_curve)}
    meas["C_fit"] = C_fit
    return MonitorReport("l1_tail", mono_ok and np.all(np.isfinite(sup_curve)),
                         {"mono_tol": L1_MONO_TOL}, meas, rows)


def boundary_gradient_flux(metric, r0):
    """integral of |grad R| over the metric sphere r = r0."""
    grid = metric.grid
    i = int(np.argmin(np.abs(grid.r - r0)))
    dR = grid.deriv(scalar_curvature(metric), 1, parity=True)
    A = metric.A[i]
    dV = volume_element(metric.n, grid.r[i], A, metric.B[i])  # area * sqrt(A)
    return float(dV * np.abs(dR[i]) / A)


def boundary_gradient_monitor(trajectory, radii):
    """Flux of |grad R| through spheres: decreasing across the radius ladder,
    uniformly for t in the second half of the run."""
    radii = sorted(radii)
    T = trajectory.times()[-1]
    rows = []
    dec_ok = True
    sup_outer = 0.0
    inf_inner = np.inf
    for s in trajectory.snapshots:
        fluxes = [boundary_gradient_flux(s.metric, r0) for r0 in radii]
        row = {"t": s.t}
        row.update({f"flux_r{r0:g}": v for r0, v in zip(radii, fluxes)})
        rows.append(row)
        if s.t >= T / 2.0:
            if np.any(np.diff(fluxes) > FLUX_TOL):
                dec_ok = False
            sup_outer = max(sup_outer, fluxes[-1])
            inf_inner = min(inf_inner, fluxes[0])
    uniform_ok = sup_outer <= inf_inner + FLUX_TOL
    return MonitorReport("boundary_gradient", dec_ok and uniform_ok,
                         {"tol": FLUX_TOL},
                         {"sup_flux_outer": sup_outer,
                          "inf_flux_inner": inf_inner}, rows)


# -- experiments ------------------------------------------------------------

def mass_constancy_experiment(metric, h, config, radii=(60.0, 80.0, 100.0),
                              rel_tol=1e-2):
    """Evolve and track the extrapolated mass of every snapshot."""
    traj = flow_mod.evolve(metric, h, config)
    targets = metric.grid.snap(radii)
    rows = []
    for s in traj.snapshots:
        rep = mass_mod.adm_mass(s.metric, targets)
        rows.append({"t": s.t, "mass": rep.mass, "mass_err": rep.mass_err})
    m0 = rows[0]["mass"]
    scale = max(abs(m0), 1.0)
    drift = max(abs(row["mass"] - m0) for row in rows) / scale
    report = MonitorReport("mass_constancy", drift < rel_tol,
                           {"rel_tol": rel_tol},
                           {"mass_initial": m0,
                            "mass_err_initial": rows[0]["mass_err"],
                            "mass_final": rows[-1]["mass"],
                            "mass_err_final": rows[-1]["mass_err"],
                            "drift_rel": drift}, rows)
    return report, traj


def mass_liminf_experiment(cm, eps_ladder, config, grid,
                           radii=(60.0, 80.0, 100.0), rel_tol=1e-2,
                           r_floor_tol=1e-4, K_target=10.0):
    """Smooth the corner at each epsilon, evolve, and compare masses.

    Checks: smoothing is mass-neutral across the ladder before the flow, all
    evolved masses stay near the base mass, the smallest-epsilon final mass
    does not exceed the ladder minimum, and R(g(T)) clears the floor.
    collar_nodes counts the grid nodes inside each certified collar
    |r - r0| < sigma: where it is 0 the grid samples the unsmoothed corner."""
    if not eps_ladder:
        raise ValueError("the epsilon ladder is empty")
    base = cm.combined()
    targets = grid.snap(radii)
    base_mass = mass_mod.adm_mass(base, base.grid.snap(radii)).mass
    rows = []
    pre_masses = []
    all_masses = []
    collar_nodes = []
    for eps in sorted(eps_ladder, reverse=True):
        mc, cert = corner_mod.mollify(cm, eps, K_target=K_target)
        if not cert.satisfied:
            raise flow_mod.FlowAbort(f"smoothing certificate failed at eps={eps}")
        sm = mc.sample(grid)
        collar = int(np.count_nonzero(np.abs(grid.r - cm.r0) < cert.sigma))
        collar_nodes.append(collar)
        pre = mass_mod.adm_mass(sm, targets).mass
        pre_masses.append(pre)
        traj = flow_mod.evolve(sm, sm, config)
        for s in traj.snapshots:
            rep = mass_mod.adm_mass(s.metric, targets)
            all_masses.append(rep.mass)
            rows.append({"eps": eps, "t": s.t, "mass": rep.mass,
                         "mass_err": rep.mass_err, "collar_nodes": collar})
    RT = scalar_curvature(traj.snapshots[-1].metric)
    sel = grid.r < 0.9 * grid.r_max
    final_R_min = float(np.min(RT[sel]))
    limit_mass = rows[-1]["mass"]
    scale = max(abs(base_mass), 1.0)
    neutral = max(abs(m - base_mass) for m in pre_masses) / scale
    near = max(abs(m - base_mass) for m in all_masses) / scale
    liminf_ok = limit_mass <= min(all_masses) + rel_tol * scale
    passed = (neutral < rel_tol and near < rel_tol and liminf_ok
              and final_R_min >= -r_floor_tol)
    report = MonitorReport("mass_liminf", passed,
                           {"rel_tol": rel_tol, "R_floor": r_floor_tol},
                           {"mass_base": base_mass,
                            "mass_neutrality_rel": neutral,
                            "mass_spread_rel": near,
                            "mass_limit": limit_mass,
                            "final_R_min": final_R_min,
                            "collar_nodes_min": min(collar_nodes)}, rows)
    return report, traj


def zero_mass_experiment(config, grid, kink_radius=3.0, amp=0.05, n=3):
    """Flat metric in kinked coordinates: mass 0, flow flattens, and the
    extracted diffeomorphism recovers both the data and the coordinate map.

    The kink is resolved over 6 grid cells: sub-cell corner structure is
    unrepresentable and pointwise sampling of the bare Lipschitz map
    injects a phase-dependent curvature moment."""
    smooth_width = 6.0 * grid.dr_min
    g0 = build_distorted_flat(n, grid, kink_radius=kink_radius, amp=amp,
                              smooth_width=smooth_width)
    h = build_flat(n, grid)
    targets = grid.snap(grid.r_max * np.array([0.5, 0.7, 0.9]))
    rep0 = mass_mod.adm_mass(g0, targets)
    traj = flow_mod.evolve(g0, h, config)
    gT = traj.snapshots[-1].metric
    R = scalar_curvature(gT)
    sel = grid.r < 0.8 * grid.r_max
    supR = float(np.max(np.abs(R[sel])))
    phi = flow_mod.extract_diffeomorphism(traj)
    pb = flow_mod.pullback(gT, phi.at_time(0.0))
    s2 = (grid.r > grid.r[4]) & sel
    rt_err = max(float(np.max(np.abs(pb.A - g0.A)[s2])),
                 float(np.max(np.abs(pb.B - g0.B)[s2])))
    Phi = radial_kink_map(grid.r, kink_radius, amp,
                          smooth_width=smooth_width)
    phi_err = float(np.max(np.abs(phi.at_time(0.0) - Phi)[s2]))
    rows = [{"t": s.t, "max_grad_eta": s.diagnostics["max_grad_eta"]}
            for s in traj.snapshots]
    tols = ZERO_MASS_TOLS
    passed = (abs(rep0.mass) < tols["mass_tol"] and supR < tols["R_tol"]
              and rt_err < tols["roundtrip_tol"] and phi_err < tols["map_tol"])
    report = MonitorReport("zero_mass", passed, dict(tols),
                           {"mass": rep0.mass, "mass_err": rep0.mass_err,
                            "sup_R_final": supR,
                            "roundtrip_c0": rt_err,
                            "map_recovery_c0": phi_err}, rows)
    return report, traj


def weighted_decay_monitor(trajectory):
    """Uniform boundedness of the weighted sup-norms of eta along the run;
    the second-derivative norm is only required once t >= W2_FLOOR_FRAC T."""
    T = trajectory.times()[-1]
    rows = []
    w0m = w1m = 0.0
    w2m = 0.0
    for s in trajectory.snapshots:
        d = s.diagnostics
        rows.append({"t": s.t, "w0": d["wnorm0"], "w1": d["wnorm1"],
                     "w2": d["wnorm2"]})
        w0m = max(w0m, d["wnorm0"])
        w1m = max(w1m, d["wnorm1"])
        if s.t >= W2_FLOOR_FRAC * T:
            w2m = max(w2m, d["wnorm2"])
    start = trajectory.snapshots[0].diagnostics
    base = max(start["wnorm0"], start["wnorm1"], 1.0)
    passed = bool(np.isfinite(w0m) and np.isfinite(w1m) and np.isfinite(w2m)
                  and w0m <= 2.0 * base and w1m <= 2.0 * base)
    return MonitorReport("weighted_decay", passed,
                         {"growth_cap": 2.0},
                         {"w0_max": w0m, "w1_max": w1m,
                          "w2_max_late": w2m}, rows)
