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
from .curvature import jet, ricci, scalar_curvature
from .norms import fairness_ratios, eta_sup_norms


class FlowAbort(RuntimeError):
    """Numerical abort: NaN, positivity loss or fairness violation."""


# -- closed-form right-hand side ---------------------------------------------

class Background:
    """The fixed background h of the gauged flow, with all the right-hand side
    reads of h alone: its 2-jet from the parity stencils and the h-only terms
    of `_deturck`, and the boundary nodes the flow holds fixed: the last two,
    and the first two of an excised grid (r[0] >= dr_min), which has no
    center symmetry.  `evolve` builds one for every stage."""

    def __init__(self, h):
        self.h, self.n, self.r = h, h.n, h.grid.r
        self.frozen = ([0, 1, -2, -1] if h.grid.r[0] >= h.grid.dr_min
                       else [-2, -1])
        self.jet = Ah, dAh, ddAh, Bh, dBh, ddBh = jet(h.grid, h.A, h.B)
        self.lA, self.lB = lA, lB = dAh / Ah, dBh / Bh
        self.lA2, self.lB2 = lA ** 2, lB ** 2
        self.ddA, self.ddB = ddAh / Ah, ddBh / Bh
        self.lBA, half_m = lB - lA, 0.5 * (h.n - 1)
        self.half_mQ = half_m * (lB + 2.0 / self.r)
        self.half_mdQ = half_m * (self.ddB - self.lB2 - 2.0 / self.r ** 2)


def _deturck(gj, bg):
    """W = g^pq (Gamma^r_pq - Gamma~^r_pq) and dW/dr, in closed form from the
    2-jet gj of g and the background bg.

    W = D/(2A) + (m/2) Q E with D = A'/A - A~'/A~ - m (B'/B - B~'/B~),
    Q = B~'/B~ + 2/r and E = B~/(A~ B) - 1/A = (B~ A - A~ B)/(A~ A B): like
    terms are differenced before any division, so W = dW/dr = 0 exactly at
    g = h.  dW/dr is their exact derivative; no sampled W is differentiated.
    """
    A, dA, ddA, B, dB, ddB = gj
    m, A2 = bg.n - 1, 2.0 * A
    lA, lB = dA / A, dB / B
    dlA, dlB = lA - bg.lA, lB - bg.lB
    D = dlA - m * dlB
    E = (bg.jet[3] * A - bg.jet[0] * B) / (bg.jet[0] * A * B)
    W = D / A2 + bg.half_mQ * E
    dD = ((ddA / A - bg.ddA) - (lA ** 2 - bg.lA2)
          - m * ((ddB / B - bg.ddB) - (lB ** 2 - bg.lB2)))
    dE = E * (bg.lBA - lB) + (dlA - dlB) / A
    dW = (dD - D * lA) / A2 + bg.half_mdQ * E + bg.half_mQ * dE
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


def eta_rhs(bg, eta_A, eta_B):
    """Time derivative of (eta_A, eta_B) under the background-gauged flow, at
    every node.

    The jets of g = h + eta are those of h plus those of eta, each from the
    parity stencils.
    """
    gj = tuple(a + b for a, b in zip(bg.jet, jet(bg.h.grid, eta_A, eta_B)))
    if np.any(gj[0] <= 0) or np.any(gj[3] <= 0):
        raise FlowAbort("metric positivity lost")
    return _rhs_pointwise(gj, bg)


# -- time stepping ----------------------------------------------------------

@dataclass
class FlowConfig:
    T_final: float
    cfl: float = 0.2
    monitor_every: int = 10     # snapshot cadence, in accepted steps
    fairness: float = 1.1       # background must stay this fair to g(t)

    def __post_init__(self):
        if not 0 < self.T_final < np.inf:
            raise ValueError(f"T_final must be finite and > 0, got "
                             f"{self.T_final:g}")
        if not 1 <= self.fairness < np.inf:
            raise ValueError(f"fairness must be finite and >= 1, got "
                             f"{self.fairness:g}")
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
    """The explicit step cfl dr_min^2 min(A, B) / (2n): dr_min^2 covers the
    1/r^2 terms of the right-hand side where r >= dr_min / 2."""
    return cfl * grid.dr_min ** 2 * min(float(np.min(A)), float(np.min(B))) / (2 * n)


HEUN_STAGES = 2  # eta_rhs evaluations per h_flow_step


def h_flow_step(bg, eta_A, eta_B, dt):
    """One Heun (RK2) step of the eta evolution against the background bg;
    the nodes of bg.frozen hold their values."""
    kA1, kB1 = eta_rhs(bg, eta_A, eta_B)
    kA1[bg.frozen] = kB1[bg.frozen] = 0.0
    kA2, kB2 = eta_rhs(bg, eta_A + dt * kA1, eta_B + dt * kB1)
    kA2[bg.frozen] = kB2[bg.frozen] = 0.0
    return eta_A + 0.5 * dt * (kA1 + kA2), eta_B + 0.5 * dt * (kB1 + kB2)


def _snapshot(t, bg, eta_A, eta_B, delta):
    h = bg.h
    g = RadialMetric(h.grid, h.n, h.A + eta_A, h.B + eta_B, delta)
    W = deturck_vector(g, bg)
    w0, w1, w2 = eta_sup_norms(g, h, delta)
    diag = {"max_grad_eta": w1, "wnorm0": w0, "wnorm1": w1, "wnorm2": w2}
    return FlowState(t, g, eta_A.copy(), eta_B.copy(), W, diag)


def evolve(metric, h, config):
    """Method-of-lines integration of the gauged flow up to T_final, on any
    grid with 2 r[0] >= dr_min (where stable_dt holds; a staggered grid sits
    at equality) and with the background within the configured fairness f
    of the initial metric; every step must keep it within 2f - 1 and finite.
    """
    grid = metric.grid
    if 2.0 * grid.r[0] < grid.dr_min * (1.0 - 1e-9):
        raise ValueError(f"flow grid's first node r[0] = {grid.r[0]:g} lies "
                         f"within half its smallest cell dr_min = "
                         f"{grid.dr_min:g} of the origin; use a staggered "
                         "grid (r_j = (j + 1/2) dr) to reach the origin")
    if not np.array_equal(grid.r, h.grid.r):
        raise ValueError("metric and background must share a grid")
    ok, rng = fairness_ratios(h, metric.A, metric.B, config.fairness)
    if not ok:
        raise FlowAbort(f"background not {config.fairness}-fair: ratios {rng}")

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
        eta_A, eta_B = h_flow_step(bg, eta_A, eta_B, dt)
        if np.any(~np.isfinite(eta_A)) or np.any(~np.isfinite(eta_B)):
            raise FlowAbort(f"NaN detected at t={t:.6g}")
        t += dt
        step += 1
        dts.append(dt)
        ok, rng = fairness_ratios(h, h.A + eta_A, h.B + eta_B,
                                  2 * config.fairness - 1)
        if not ok:
            raise FlowAbort(f"fairness lost at t={t:.6g}: ratios {rng}")
        if step % config.monitor_every == 0 or t >= config.T_final - 1e-15:
            snapshots.append(_snapshot(t, bg, eta_A, eta_B, metric.delta))
    return FlowTrajectory(snapshots, dts, config, steps=step,
                          rhs_evals=HEUN_STAGES * step)


# -- the gauge diffeomorphism ----------------------------------------------

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


def extract_diffeomorphism(trajectory):
    """Integrate d phi / dt = W(phi, t) backward from T with RK4, 8 steps
    between snapshots; W cubic in r, linear in t between snapshots."""
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

        dt = (t_lo - t_hi) / 8  # negative
        t = t_hi
        for _ in range(8):
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
