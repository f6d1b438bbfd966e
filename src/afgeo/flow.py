"""Background-gauged (DeTurck) flow of radial metrics.

The evolved unknown is eta = g - h, componentwise on the grid.  The right-hand
side is dt g = -2 Ric(g) + Lie_W g in the warped-product reduction, a
pointwise closed form in the 2-jets of g and h; the DeTurck vector W and its
radial derivative are both exact functions of those jets.  The full Cartesian
tensor equation in oracle.py locks the kernel in the tests.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Spline, interp_spline
from .metrics import RadialMetric
from .curvature import jet, ricci, scalar_curvature
from .norms import fairness_ratios, eta_sup_norms


class FlowAbort(RuntimeError):
    """Numerical abort: NaN, positivity loss or fairness violation.

    An abort of `evolve` says where: the time t and number of the step whose
    result failed (step 0 is the initial data), the first bad node, for
    a fairness loss the range (lo, hi) of the ratios g/h with the field,
    "A" or "B", and node of the extreme one, and the least A and B over the
    nodes of the failed state (g_A, g_B), NaNs passed over.  What does not
    apply is None.
    """

    def __init__(self, message, t=None, step=None, node=None, field=None,
                 ratios=None, state=None):
        super().__init__(message)
        self.t, self.step, self.node = t, step, node
        self.field, self.ratios = field, ratios
        # fmin skips NaNs, and gives NaN without a warning where all are
        self.min_A, self.min_B = (None, None) if state is None else (
            float(np.fmin.reduce(f)) for f in state)

    def where(self):
        """The attributes that are set, as `key=value` words."""
        lo, hi = self.ratios or (None, None)
        items = {"t": self.t, "step": self.step, "node": self.node,
                 "field": self.field, "ratio_lo": lo, "ratio_hi": hi,
                 "min_A": self.min_A, "min_B": self.min_B}
        return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in items.items() if v is not None)


# -- closed-form right-hand side ---------------------------------------------

class Background:
    """The fixed background h of the gauged flow, with all the right-hand side
    reads of h alone: its 2-jet from the parity stencils and the h-only terms
    of `_deturck`, and the boundary nodes the flow holds fixed: the last two,
    and the first two of an excised grid (r[0] >= dr_min), which has no
    center symmetry.  `evolve` builds one for every stage."""

    def __init__(self, h):
        self.h, self.n, self.r = h, h.n, h.grid.r
        self.frozen = np.array([0, 1, -2, -1] if h.grid.r[0] >= h.grid.dr_min
                               else [-2, -1])
        self.jet = j = jet(h.grid, h.A, h.B)
        (lA, lB), (self.ddA, self.ddB) = (j[1:] / j[0]).swapaxes(1, -1)
        self.lA, self.lB, self.lA2, self.lB2 = lA, lB, lA ** 2, lB ** 2
        self.lBA, half_m = lB - lA, 0.5 * (h.n - 1)
        self.half_mQ = half_m * (lB + 2.0 / self.r)
        self.half_mdQ = half_m * (self.ddB - self.lB2 - 2.0 / self.r ** 2)


def _deturck_w(bg, A, B, dA, dB):
    """W = g^pq (Gamma^r_pq - Gamma~^r_pq) in closed form from the 1-jet
    (A, B, A', B') of g and the background bg, with the pieces of it that
    dW/dr reads.

    W = D/(2A) + (m/2) Q E with D = A'/A - A~'/A~ - m (B'/B - B~'/B~),
    Q = B~'/B~ + 2/r and E = B~/(A~ B) - 1/A = (B~ A - A~ B)/(A~ A B): like
    terms are differenced before any division, so W = 0 exactly at g = h.
    """
    m, A2 = bg.n - 1, 2.0 * A
    lA, lB = dA / A, dB / B
    dlA, dlB = lA - bg.lA, lB - bg.lB
    D = dlA - m * dlB
    E = (bg.h.B * A - bg.h.A * B) / (bg.h.A * A * B)
    return D / A2 + bg.half_mQ * E, (A2, lA, lB, dlA, dlB, D, E)


def _deturck(bg, A, B, dA, dB, ddA, ddB):
    """W and dW/dr from the 2-jet of g: dW/dr is the exact derivative of
    `_deturck_w`'s closed form, zero exactly at g = h too; no sampled W is
    differentiated."""
    W, (A2, lA, lB, dlA, dlB, D, E) = _deturck_w(bg, A, B, dA, dB)
    m = bg.n - 1
    dD = ((ddA / A - bg.ddA) - (lA ** 2 - bg.lA2)
          - m * ((ddB / B - bg.ddB) - (lB ** 2 - bg.lB2)))
    dE = E * (bg.lBA - lB) + (dlA - dlB) / A
    dW = (dD - D * lA) / A2 + bg.half_mdQ * E + bg.half_mQ * dE
    return W, dW


def _rhs_pointwise(gj, bg):
    """(dt A, dt B), one (2, N) array, of dt g = -2 Ric(g) + Lie_W g in the
    warped-product reduction, from the 2-jet of g and the background."""
    (A, B), (dA, dB), (ddA, ddB) = gj.swapaxes(1, -1)
    W, dW = _deturck(bg, A, B, dA, dB, ddA, ddB)
    ric_rad, ric_tan = ricci(bg.n, bg.r, gj)
    dt = np.empty((2, len(bg.r)))
    np.add(-2.0 * A * ric_rad + W * dA, 2.0 * A * dW, out=dt[0])
    np.add(-2.0 * B * ric_tan, W * (dB + 2.0 * B / bg.r), out=dt[1])
    return dt


def deturck_vector(g, bg):
    """Radial contravariant component of W^k = g^{pq}(Gamma^k_pq - Gamma~^k_pq)."""
    if g.grid is not bg.h.grid and not np.array_equal(g.grid.r, bg.r):
        raise ValueError("metrics must share a grid")
    d = g.grid.deriv
    return _deturck_w(bg, g.A, g.B, d(g.A, 1, parity=True),
                      d(g.B, 1, parity=True))[0]


def eta_rhs(bg, eta):
    """Time derivative of eta = g - h, shape (N, 2), under the
    background-gauged flow, at every node.

    The jets of g = h + eta are those of h plus those of eta, each from the
    parity stencils.
    """
    gj = bg.jet + jet(bg.h.grid, *eta.T)
    bad = gj[0] <= 0
    if bad.any():
        raise FlowAbort("metric positivity lost",
                        node=int(np.argmax(bad.any(axis=1))), state=gj[0].T)
    return _rhs_pointwise(gj, bg).T


# -- time stepping ----------------------------------------------------------

CFL = 0.2  # the Courant number of stable_dt


@dataclass
class FlowConfig:
    T_final: float
    monitor_every: int = 10     # snapshot cadence, in accepted steps
    fairness: float = 1.1       # background must stay this fair to g(t)

    def __post_init__(self):
        if not 0 < self.T_final < np.inf:
            raise ValueError(f"T_final must be finite and > 0, got "
                             f"{self.T_final:g}")
        if not 1 <= self.fairness < np.inf:
            raise ValueError(f"fairness must be finite and >= 1, got "
                             f"{self.fairness:g}")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be at least 1")


@dataclass
class FlowState:
    """One snapshot of a run, eta = g - h of shape (N, 2).  The DeTurck
    vector W and the decay norms of eta against the run's background bg are
    computed when first read."""
    t: float
    metric: RadialMetric
    eta: np.ndarray
    bg: Background

    @cached_property
    def W(self):
        return deturck_vector(self.metric, self.bg)

    @cached_property
    def diagnostics(self):
        w = eta_sup_norms(self.metric.grid, self.eta, self.metric.delta)
        return dict(zip(("wnorm0", "wnorm1", "wnorm2"), w))


@dataclass
class FlowTrajectory:
    snapshots: list
    dt_history: list
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


def stable_dt(grid, A, B, n):
    """The explicit step CFL dr_min^2 min(A, B) / (2n): dr_min^2 covers the
    1/r^2 terms of the right-hand side where r >= dr_min / 2."""
    return CFL * grid.dr_min ** 2 * min(float(np.min(A)), float(np.min(B))) / (2 * n)


HEUN_STAGES = 2  # eta_rhs evaluations per h_flow_step


def h_flow_step(bg, eta, dt):
    """One Heun (RK2) step of eta, shape (N, 2), against the background bg;
    the nodes of bg.frozen hold their values."""
    k1 = eta_rhs(bg, eta)
    k1[bg.frozen] = 0.0
    k2 = eta_rhs(bg, eta + dt * k1)
    k2[bg.frozen] = 0.0
    return eta + 0.5 * dt * (k1 + k2)


def _fairness_abort(message, bg, g, ratios, t, step):
    """The FlowAbort of a fairness loss of g, shape (N, 2); the extreme ratio
    g/h is the one at the end of `ratios` farther from 1."""
    lo, hi = ratios
    pick = np.argmin if lo * hi < 1.0 else np.argmax
    field, node = divmod(int(pick((g / bg.jet[0]).T)), len(g))
    return FlowAbort(message, t=t, step=step, node=node, field="AB"[field],
                     ratios=ratios, state=g.T)


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
    # g, eta = g - h and each Heun stage are (N, 2) arrays, field last like
    # bg.jet[0], which holds h.  g = h + eta is formed once per step: the
    # step size, the NaN and fairness checks and the snapshot read it
    bg, g = Background(h), np.array([metric.A, metric.B]).T
    ok, rng = fairness_ratios(h, *g.T, config.fairness)
    if not ok:
        raise _fairness_abort(f"background not {config.fairness}-fair: "
                              f"ratios {rng}", bg, g, rng, 0.0, 0)
    eta = g - bg.jet[0]
    g = bg.jet[0] + eta
    t = 0.0

    def snapshot():
        gm = RadialMetric(h.grid, h.n, *g.T, metric.delta)
        return FlowState(t, gm, eta, bg)

    snapshots = [snapshot()]
    dts = []
    step = 0
    while t < config.T_final - 1e-15:
        dt = min(stable_dt(grid, *g.T, h.n), config.T_final - t)
        try:
            eta = h_flow_step(bg, eta, dt)
        except FlowAbort as e:
            e.t, e.step = t + dt, step + 1
            raise
        g = bg.jet[0] + eta
        finite = np.isfinite(eta).all(axis=1)
        if not finite.all():
            raise FlowAbort(f"NaN detected at t={t:.6g}", t=t + dt,
                            step=step + 1, node=int(np.argmin(finite)),
                            state=g.T)
        t += dt
        step += 1
        dts.append(dt)
        ok, rng = fairness_ratios(h, *g.T, 2 * config.fairness - 1)
        if not ok:
            raise _fairness_abort(f"fairness lost at t={t:.6g}: ratios {rng}",
                                  bg, g, rng, t, step)
        if step % config.monitor_every == 0 or t >= config.T_final - 1e-15:
            snapshots.append(snapshot())
    return FlowTrajectory(snapshots, dts, steps=step,
                          rhs_evals=HEUN_STAGES * step)


# -- the gauge diffeomorphism ----------------------------------------------

@dataclass
class DiffeoMap:
    """Radial maps phi_t(r) at the snapshot times, phi_T = identity, and the
    RK4 steps taken over each snapshot interval, earliest first."""
    times: np.ndarray
    maps: list  # one array per time, on the trajectory's grid
    rk4_steps: list

    def __post_init__(self):
        for phi in self.maps:
            if np.any(np.diff(phi) <= 0):
                raise FlowAbort("diffeomorphism lost monotonicity")

    def at_time(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        return self.maps[i]


MAP_STEP_LIP = 5e-4  # the most dt L, L a Lipschitz bound of W, per RK4 step


def extract_diffeomorphism(trajectory):
    """Integrate d phi / dt = W(phi, t) backward from T with RK4; W cubic in
    r, linear in t between snapshots.  An interval of length dt takes
    max(1, ceil(dt L / MAP_STEP_LIP)) steps, L the largest |dW/dr| bound
    |a1| + 2h|a2| + 3h^2|a3| over the spline pieces, of width h, of the two
    snapshots that bracket it."""
    snaps = trajectory.snapshots
    grid = snaps[0].metric.grid
    times = trajectory.times()
    # one solve for every snapshot's W, each a field of the spline
    W = interp_spline(grid.r, np.stack([s.W for s in snaps], axis=-1))
    h = np.diff(W.x)[:, None]
    a3, a2, a1 = np.abs(W.c[:3])
    lip = np.max(a1 + 2.0 * h * a2 + 3.0 * h ** 2 * a3, axis=0)

    phi = grid.r.copy()
    maps = [None] * len(snaps)
    maps[-1] = phi.copy()
    rk4_steps = [0] * (len(snaps) - 1)
    for j in range(len(snaps) - 1, 0, -1):
        t_lo, t_hi = times[j - 1], times[j]
        work = (t_hi - t_lo) * lip[j - 1:j + 1].max() / MAP_STEP_LIP
        if not np.isfinite(work):
            raise FlowAbort(f"DeTurck vector not finite between t={t_lo:.6g}"
                            f" and t={t_hi:.6g}", t=float(t_hi))
        n = rk4_steps[j - 1] = max(1, math.ceil(work))
        # only the two snapshots that bracket this interval
        pair = Spline(W.c[..., j - 1:j + 1], W.x)

        def Wfun(x, t):
            lam = 0.0 if t_hi == t_lo else (t - t_lo) / (t_hi - t_lo)
            w = pair(x)
            return (1 - lam) * w[:, 0] + lam * w[:, 1]

        dt = (t_lo - t_hi) / n  # negative
        t = t_hi
        for _ in range(n):
            k1 = Wfun(phi, t)
            k2 = Wfun(phi + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = Wfun(phi + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = Wfun(phi + dt * k3, t + dt)
            phi = phi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        maps[j - 1] = phi.copy()
    return DiffeoMap(times, maps, rk4_steps)


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
