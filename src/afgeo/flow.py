"""Background-gauged (DeTurck) flow of radial metrics.

The evolved unknown is eta = g - h, componentwise on the grid.  The right-hand
side is dt g = -2 Ric(g) + Lie_W g in the warped-product reduction, a
pointwise closed form in the 2-jets of g and h; the DeTurck vector W and its
radial derivative are both exact functions of those jets.  The full Cartesian
tensor equation in oracle.py locks the kernel in the tests.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import RadialGrid, Spline, interp_spline
from .metrics import RadialMetric
from .curvature import jet, ricci, scalar_curvature, ricci_norm_sq
from .norms import fairness_ratios, is_delta_fair, eta_sup_norms


class FlowAbort(RuntimeError):
    """Numerical abort: NaN, positivity loss or fairness violation."""


# -- closed-form right-hand side ---------------------------------------------

class Background:
    """The fixed background h of the gauged flow, with all the right-hand side
    reads of h alone: its 2-jet from the parity stencils and the h-only terms
    of `_deturck`.  `evolve` builds one for every stage."""

    def __init__(self, h):
        self.h, self.n, self.r = h, h.n, h.grid.r
        self.jet = Ah, dAh, ddAh, Bh, dBh, ddBh = jet(h.grid, h.A, h.B)
        self.lA, lB, self.ddA = dAh / Ah, dBh / Bh, ddAh / Ah
        self.two_r, self.two_r2 = 2.0 / self.r, 2.0 / self.r ** 2
        self.Q, self.lBA = lB + self.two_r, lB - self.lA
        self.half_mQ = 0.5 * (h.n - 1) * self.Q
        self.dQ = ddBh / Bh - lB ** 2 - self.two_r2


def _deturck(gj, bg):
    """W = g^pq (Gamma^r_pq - Gamma~^r_pq) and dW/dr, in closed form from the
    2-jet gj of g and the background bg.

    W = P/(2A) + (m/2) Q S with P = A'/A - A~'/A~ - m (B'/B + 2/r),
    Q = B~'/B~ + 2/r and S = B~/(A~ B); dW/dr is their exact derivative, so
    no derivative of sampled W is ever taken.
    """
    A, dA, ddA, B, dB, ddB = gj
    m = bg.n - 1
    lA, lB = dA / A, dB / B
    P = lA - bg.lA - m * (lB + bg.two_r)
    S = bg.jet[3] / (bg.jet[0] * B)
    W = P / (2.0 * A) + bg.half_mQ * S
    # like terms of g and h are differenced first, so they cancel exactly
    # when g = h
    dP = ((ddA / A - bg.ddA) - (lA ** 2 - bg.lA ** 2)
          - m * (ddB / B - lB ** 2 - bg.two_r2))
    dS = S * (bg.lBA - lB)
    dW = (dP - P * dA / A) / (2.0 * A) + 0.5 * m * (bg.dQ * S + bg.Q * dS)
    return W, dW


def _rhs_pointwise(gj, bg):
    """(dt A, dt B) of dt g = -2 Ric(g) + Lie_W g in the warped-product
    reduction, from the 2-jet of g and the background."""
    A, dA, _, B, dB, _ = gj
    W, dW = _deturck(gj, bg)
    ric_rad, ric_tan = ricci(bg.n, bg.r, gj)
    dt_A = -2.0 * A * ric_rad + W * dA + 2.0 * A * dW
    dt_B = -2.0 * B * ric_tan + W * (dB + 2.0 * B / bg.r)
    return dt_A, dt_B


def deturck_vector(g, bg):
    """Radial contravariant component of W^k = g^{pq}(Gamma^k_pq - Gamma~^k_pq)."""
    if g.grid is not bg.h.grid and not np.array_equal(g.grid.r, bg.r):
        raise ValueError("metrics must share a grid")
    return _deturck(jet(g.grid, g.A, g.B), bg)[0]


def eta_rhs(bg, eta_A, eta_B, freeze_outer=2, freeze_inner=0):
    """Time derivative of (eta_A, eta_B) under the background-gauged flow.

    The jets of g = h + eta are those of h plus those of eta, each from the
    parity stencils; the frozen end nodes hold their values.
    """
    gj = tuple(a + b for a, b in zip(bg.jet, jet(bg.h.grid, eta_A, eta_B)))
    if np.any(gj[0] <= 0) or np.any(gj[3] <= 0):
        raise FlowAbort("metric positivity lost")
    out_A, out_B = _rhs_pointwise(gj, bg)
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
    fairness: float = 1.1       # background must stay this fair to g(t)

    def __post_init__(self):
        if self.T_final <= 0:
            raise ValueError("T_final must be positive")
        if not 0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be at least 1")


@dataclass
class FlowState:
    t: float
    metric: RadialMetric
    eta_A: np.ndarray
    eta_B: np.ndarray
    W: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class FlowTrajectory:
    snapshots: list
    dt_history: list
    config: FlowConfig
    steps: int = 0          # accepted time steps
    rhs_evals: int = 0      # eta_rhs evaluations over those steps

    def times(self):
        return np.array([s.t for s in self.snapshots])

    def dump(self, fh):
        fh.write("t,r,A,B,R,W\n")
        for s in self.snapshots:
            g = s.metric
            cols = [np.full(g.grid.num, s.t), g.grid.r, g.A, g.B,
                    scalar_curvature(g), s.W]
            # one %-format per snapshot; %.12g formats a float as {:.12g}
            fh.write(("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n" * g.grid.num)
                     % tuple(np.column_stack(cols).ravel().tolist()))


def stable_dt(grid, A, B, n, cfl):
    return cfl * grid.dr_min ** 2 * min(float(np.min(A)), float(np.min(B))) / (2 * n)


HEUN_STAGES = 2  # eta_rhs evaluations per h_flow_step


def h_flow_step(bg, eta_A, eta_B, dt, freeze_inner=0):
    """One Heun (RK2) step of the eta evolution against the background bg."""
    kA1, kB1 = eta_rhs(bg, eta_A, eta_B, freeze_inner=freeze_inner)
    kA2, kB2 = eta_rhs(bg, eta_A + dt * kA1, eta_B + dt * kB1,
                       freeze_inner=freeze_inner)
    return eta_A + 0.5 * dt * (kA1 + kA2), eta_B + 0.5 * dt * (kB1 + kB2)


def _snapshot(t, bg, eta_A, eta_B, delta):
    h = bg.h
    g = RadialMetric(h.grid, h.n, h.A + eta_A, h.B + eta_B, delta)
    W = deturck_vector(g, bg)
    w0, w1, w2 = eta_sup_norms(g, h, delta)
    diag = {"max_grad_eta": w1, "wnorm0": w0, "wnorm1": w1, "wnorm2": w2}
    return FlowState(t, g, eta_A.copy(), eta_B.copy(), W, diag)


def evolve(metric, h, config):
    """Method-of-lines integration of the gauged flow up to T_final.

    Requires a uniform grid (the CFL bound is a single number) with no node
    at r = 0 (the right-hand side divides by r), and the background within
    the configured fairness f of the initial metric; every step must keep
    it within 2f - 1.
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

    # excised inner boundary: no center symmetry, hold the edge fixed
    inner = 0 if grid.r[0] < grid.dr_min else 2

    bg = Background(h)
    eta_A = metric.A - h.A
    eta_B = metric.B - h.B
    t = 0.0
    snapshots = [_snapshot(t, bg, eta_A, eta_B, metric.delta)]
    dts = []
    step = 0
    while t < config.T_final - 1e-15:
        dt = min(stable_dt(grid, h.A + eta_A, h.B + eta_B, h.n, config.cfl),
                 config.T_final - t)
        eta_A, eta_B = h_flow_step(bg, eta_A, eta_B, dt, freeze_inner=inner)
        if np.any(~np.isfinite(eta_A)) or np.any(~np.isfinite(eta_B)):
            raise FlowAbort(f"NaN detected at t={t:.6g}")
        t += dt
        step += 1
        dts.append(dt)
        # h and its curvature were checked above; only the ratios move
        ok, rng = fairness_ratios(h, h.A + eta_A, h.B + eta_B,
                                  2 * config.fairness - 1)
        if not ok:
            raise FlowAbort(f"fairness lost at t={t:.6g}: ratios {rng}")
        if step % config.monitor_every == 0 or t >= config.T_final - 1e-15:
            snapshots.append(_snapshot(t, bg, eta_A, eta_B, metric.delta))
    return FlowTrajectory(snapshots, dts, config, steps=step,
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
    # one solve for every snapshot's W, each a field of the spline
    W = interp_spline(grid.r, np.stack([s.W for s in snaps], axis=-1))

    phi = grid.r.copy()
    maps = [None] * len(snaps)
    maps[-1] = phi.copy()
    for j in range(len(snaps) - 1, 0, -1):
        t_lo, t_hi = times[j - 1], times[j]
        # only the two snapshots that bracket this interval
        pair = Spline(W.c[..., j - 1:j + 1], W.x)

        def Wfun(x, t):
            lam = 0.0 if t_hi == t_lo else (t - t_lo) / (t_hi - t_lo)
            w = pair(x)
            return (1 - lam) * w[:, 0] + lam * w[:, 1]

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
    AB = interp_spline(grid.r, np.stack([metric.A, metric.B], axis=-1))(phi)
    A = dphi ** 2 * AB[:, 0]
    B = (phi / grid.r) ** 2 * AB[:, 1]
    return RadialMetric(grid, metric.n, A, B, metric.delta)
