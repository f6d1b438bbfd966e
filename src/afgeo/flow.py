"""Background-gauged (DeTurck) flow of radial metrics.

The evolved unknown is eta = g - h, componentwise on the grid.  The right-hand
side is dt g = -2 Ric(g) + Lie_W g in the warped-product reduction, a
pointwise closed form in the 2-jets of g and h; the DeTurck vector W and its
radial derivative are both exact functions of those jets.  The full Cartesian
tensor equation in oracle.py locks the kernel in the tests.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .grid import RadialGrid
from .metrics import RadialMetric
from .curvature import scalar_curvature, ricci_norm_sq, _phi_jets
from .norms import is_delta_fair, eta_sup_norms


class FlowAbort(RuntimeError):
    """Numerical abort: NaN, positivity loss or fairness violation."""


# -- closed-form right-hand side ---------------------------------------------

def _jets(grid, A, B):
    """(A, A', A'', B, B', B'') from the parity stencils."""
    d = grid.deriv
    return (A, d(A, 1, parity=True), d(A, 2, parity=True),
            B, d(B, 1, parity=True), d(B, 2, parity=True))


def _deturck(m, r, gj, hj):
    """W = g^pq (Gamma^r_pq - Gamma~^r_pq) and dW/dr, in closed form from the
    2-jets gj of g and hj of the background h.

    W = P/(2A) + (m/2) Q S with P = A'/A - A~'/A~ - m (B'/B + 2/r),
    Q = B~'/B~ + 2/r and S = B~/(A~ B); dW/dr is their exact derivative, so
    no derivative of sampled W is ever taken.
    """
    A, dA, ddA, B, dB, ddB = gj
    Ah, dAh, ddAh, Bh, dBh, ddBh = hj
    P = dA / A - dAh / Ah - m * (dB / B + 2.0 / r)
    Q = dBh / Bh + 2.0 / r
    S = Bh / (Ah * B)
    W = P / (2.0 * A) + 0.5 * m * Q * S
    # like terms of g and h are differenced first, so they cancel exactly
    # when g = h
    dP = ((ddA / A - ddAh / Ah) - ((dA / A) ** 2 - (dAh / Ah) ** 2)
          - m * (ddB / B - (dB / B) ** 2 - 2.0 / r ** 2))
    dQ = ddBh / Bh - (dBh / Bh) ** 2 - 2.0 / r ** 2
    dS = S * (dBh / Bh - dAh / Ah - dB / B)
    dW = (dP - P * dA / A) / (2.0 * A) + 0.5 * m * (dQ * S + Q * dS)
    return W, dW


def _rhs_pointwise(n, r, gj, hj):
    """(dt A, dt B) of dt g = -2 Ric(g) + Lie_W g in the warped-product
    reduction, from the 2-jets of g and of the background h."""
    m = n - 1
    A, dA, _, B, dB, ddB = gj
    W, dW = _deturck(m, r, gj, hj)
    phi, f1, f2 = _phi_jets(r, A, B, dA, dB, ddB)
    dt_A = 2.0 * m * A * f2 / phi + W * dA + 2.0 * A * dW
    dt_B = ((2.0 * phi * f2 - 2.0 * (m - 1) * (1.0 - f1 ** 2)) / r ** 2
            + W * (dB + 2.0 * B / r))
    return dt_A, dt_B


def deturck_vector(g, h):
    """Radial contravariant component of W^k = g^{pq}(Gamma^k_pq - Gamma~^k_pq)."""
    if g.grid is not h.grid and not np.array_equal(g.grid.r, h.grid.r):
        raise ValueError("metrics must share a grid")
    return _deturck(g.n - 1, g.grid.r, _jets(g.grid, g.A, g.B),
                    _jets(h.grid, h.A, h.B))[0]


def eta_rhs(h, eta_A, eta_B, freeze_outer=2, freeze_inner=0):
    """Time derivative of (eta_A, eta_B) under the background-gauged flow.

    The jets of g = h + eta are those of h plus those of eta, each from the
    parity stencils; the frozen end nodes hold their values.
    """
    grid = h.grid
    hj = _jets(grid, h.A, h.B)
    gj = tuple(a + b for a, b in zip(hj, _jets(grid, eta_A, eta_B)))
    if np.any(gj[0] <= 0) or np.any(gj[3] <= 0):
        raise FlowAbort("metric positivity lost")
    out_A, out_B = _rhs_pointwise(h.n, grid.r, gj, hj)
    for out in (out_A, out_B):
        out[:freeze_inner] = 0.0
        out[len(out) - freeze_outer:] = 0.0
    return out_A, out_B


# -- time stepping ----------------------------------------------------------

@dataclass
class FlowConfig:
    T_final: float
    cfl: float = 0.2
    monitor_every: int = 10     # snapshot cadence, in accepted steps
    K_target: float = 10.0
    fairness: float = 1.1       # background must stay this fair to g(t)
    freeze_outer: int = 2
    freeze_inner: int = None    # None: 0 if r[0] < dr (staggered), else 2

    def __post_init__(self):
        if self.T_final <= 0:
            raise ValueError("T_final must be positive")
        if not 0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")


@dataclass
class FlowState:
    t: float
    metric: RadialMetric
    h: RadialMetric
    eta_A: np.ndarray
    eta_B: np.ndarray
    W: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class FlowTrajectory:
    snapshots: list
    dt_history: list
    h: RadialMetric
    config: FlowConfig
    steps: int = 0          # accepted time steps
    rhs_evals: int = 0      # eta_rhs evaluations over those steps

    def times(self):
        return np.array([s.t for s in self.snapshots])

    def dump(self, fh):
        fh.write("t,r,A,B,R,W\n")
        for s in self.snapshots:
            R = scalar_curvature(s.metric)
            for j, r in enumerate(s.metric.grid.r):
                fh.write(f"{s.t:.12g},{r:.12g},{s.metric.A[j]:.12g},"
                         f"{s.metric.B[j]:.12g},{R[j]:.12g},{s.W[j]:.12g}\n")


def stable_dt(grid, A, B, n, cfl):
    return cfl * grid.dr_min ** 2 * min(float(np.min(A)), float(np.min(B))) / (2 * n)


HEUN_STAGES = 2  # eta_rhs evaluations per h_flow_step


def h_flow_step(h, eta_A, eta_B, dt, freeze_outer=2, freeze_inner=0):
    """One Heun (RK2) step of the eta evolution."""
    kA1, kB1 = eta_rhs(h, eta_A, eta_B, freeze_outer, freeze_inner)
    kA2, kB2 = eta_rhs(h, eta_A + dt * kA1, eta_B + dt * kB1,
                       freeze_outer, freeze_inner)
    return eta_A + 0.5 * dt * (kA1 + kA2), eta_B + 0.5 * dt * (kB1 + kB2)


def _snapshot(t, h, eta_A, eta_B, delta):
    g = RadialMetric(h.grid, h.n, h.A + eta_A, h.B + eta_B, delta)
    W = deturck_vector(g, h)
    w0, w1, w2 = eta_sup_norms(g, h, delta)
    diag = {"max_grad_eta": w1, "wnorm0": w0, "wnorm1": w1, "wnorm2": w2}
    return FlowState(t, g, h, eta_A.copy(), eta_B.copy(), W, diag)


def evolve(metric, h, config):
    """Method-of-lines integration of the gauged flow up to T_final.

    Requires a uniform grid (the CFL bound is a single number) with no node
    at r = 0 (the right-hand side divides by r), and the background within
    the configured fairness of the initial metric.
    """
    grid = metric.grid
    if grid.spacing != "uniform":
        raise ValueError("flow integration requires a uniform grid")
    if grid.r[0] <= 0.0:
        raise ValueError("flow grid has a node at r = 0, where the right-hand "
                         "side divides by r; use a staggered grid "
                         "(r_j = (j + 1/2) dr) to reach the origin")
    if not np.array_equal(grid.r, h.grid.r):
        raise ValueError("metric and background must share a grid")
    ok, rng = is_delta_fair(h, metric, config.fairness)
    if not ok:
        raise FlowAbort(f"background not {config.fairness}-fair: ratios {rng}")

    freeze_inner = config.freeze_inner
    if freeze_inner is None:
        # excised inner boundary: no center symmetry, hold the edge fixed
        freeze_inner = 0 if grid.r[0] < grid.dr_min else 2

    eta_A = metric.A - h.A
    eta_B = metric.B - h.B
    t = 0.0
    snapshots = [_snapshot(t, h, eta_A, eta_B, metric.delta)]
    dts = []
    step = 0
    while t < config.T_final - 1e-15:
        dt = min(stable_dt(grid, h.A + eta_A, h.B + eta_B, h.n, config.cfl),
                 config.T_final - t)
        eta_A, eta_B = h_flow_step(h, eta_A, eta_B, dt, config.freeze_outer,
                                   freeze_inner)
        if np.any(~np.isfinite(eta_A)) or np.any(~np.isfinite(eta_B)):
            raise FlowAbort(f"NaN detected at t={t:.6g}")
        t += dt
        step += 1
        dts.append(dt)
        if step % config.monitor_every == 0 or t >= config.T_final - 1e-15:
            snap = _snapshot(t, h, eta_A, eta_B, metric.delta)
            ok, rng = is_delta_fair(h, snap.metric, 2 * config.fairness - 1)
            if not ok:
                raise FlowAbort(f"fairness lost at t={t:.6g}: ratios {rng}")
            snapshots.append(snap)
    return FlowTrajectory(snapshots, dts, h, config, steps=step,
                          rhs_evals=HEUN_STAGES * step)


# -- comparisons and diagnostics -------------------------------------------

def scalar_evolution_residual(trajectory, include_advection=True):
    """Pointwise residual of dR/dt = Lap R + 2|Ric|^2 + W dR/dr across
    consecutive snapshot triples.  Returns array (len-2, num_nodes)."""
    snaps = trajectory.snapshots
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots")
    grid = snaps[0].metric.grid
    R_all = [scalar_curvature(s.metric) for s in snaps]
    out = []
    for i in range(1, len(snaps) - 1):
        s = snaps[i]
        dRdt = (R_all[i + 1] - R_all[i - 1]) / (snaps[i + 1].t - snaps[i - 1].t)
        R = R_all[i]
        dR = grid.deriv(R, 1, parity=True)
        resid = dRdt - s.metric.laplacian(R) - 2.0 * ricci_norm_sq(s.metric)
        if include_advection:
            resid = resid - s.W * dR
        out.append(resid)
    return np.array(out)


@dataclass
class DiffeoMap:
    """Radial maps phi_t(r) at the snapshot times, phi_T = identity."""
    grid: RadialGrid
    times: np.ndarray
    maps: list  # one array per time, on grid.r

    def __post_init__(self):
        for phi in self.maps:
            if np.any(np.diff(phi) <= 0):
                raise FlowAbort("diffeomorphism lost monotonicity")

    def at_time(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        return self.maps[i]


def extract_diffeomorphism(trajectory, substeps=8):
    """Integrate d phi / dt = W(phi, t) backward from T with RK4; W cubic in
    r, linear in t between snapshots."""
    snaps = trajectory.snapshots
    grid = snaps[0].metric.grid
    times = trajectory.times()
    splines = [CubicSpline(grid.r, s.W) for s in snaps]

    def Wfun(x, t):
        j = int(np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2))
        t0, t1 = times[j], times[j + 1]
        lam = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1 - lam) * splines[j](x) + lam * splines[j + 1](x)

    phi = grid.r.copy()
    maps = [None] * len(snaps)
    maps[-1] = phi.copy()
    for j in range(len(snaps) - 1, 0, -1):
        t_hi, t_lo = times[j], times[j - 1]
        dt = (t_lo - t_hi) / substeps  # negative
        t = t_hi
        for _ in range(substeps):
            k1 = Wfun(phi, t)
            k2 = Wfun(phi + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = Wfun(phi + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = Wfun(phi + dt * k3, t + dt)
            phi = phi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        maps[j - 1] = phi.copy()
    return DiffeoMap(grid, times, maps)


def pullback(metric, phi):
    """Pullback of a radial metric by the radial map phi (sampled on the
    metric's grid): A -> (phi')^2 A(phi), B -> (phi/r)^2 B(phi)."""
    grid = metric.grid
    phi = np.asarray(phi, dtype=float)
    dr = grid.dr_min
    if np.any(phi < grid.r[0] - dr) or np.any(phi > grid.r[-1] + dr):
        raise ValueError("map leaves the grid; cannot interpolate")
    dphi = grid.deriv(phi, 1, parity=False)
    phi = np.clip(phi, grid.r[0], grid.r[-1])
    sA = CubicSpline(grid.r, metric.A)
    sB = CubicSpline(grid.r, metric.B)
    A = dphi ** 2 * sA(phi)
    B = (phi / grid.r) ** 2 * sB(phi)
    return RadialMetric(grid, metric.n, A, B, metric.delta)


def taylor_consistency_check(phi, g_t, g_T):
    """Sup-norm residual of the radial second-derivative identity
    phi'' = Gamma^r_rr(g_t) phi' - Gamma^r_rr(g_T)(phi) (phi')^2."""
    grid = g_t.grid
    phi = np.asarray(phi, dtype=float)
    dphi = grid.deriv(phi, 1, parity=False)
    ddphi = grid.deriv(phi, 2, parity=False)
    gam_t = g_t.dA(1) / (2.0 * g_t.A)
    sA = CubicSpline(grid.r, g_T.A)
    gam_T = sA(phi, 1) / (2.0 * sA(phi))
    resid = ddphi - gam_t * dphi + gam_T * dphi ** 2
    inner = slice(3, -3)
    return float(np.max(np.abs(resid[inner])))
