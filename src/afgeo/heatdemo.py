"""1-D heat equation desk check: polynomial spatial decay of the data is
inherited, but not improved, by the smoothing of the evolution.

The probe initial profile sin(x)/(1+x^2) decays like x^-2; the per-annulus
suprema of x^2 |d^k f| stay bounded away from zero for positive time.
"""

from dataclasses import dataclass

import numpy as np

from .grid import check_nodes

# heat-demo's gate: every per-annulus sup of x^2 |f|, at every time, lies in
# this band
SUP_K0_BAND = (0.05, 1.1)


@dataclass
class HeatProfile:
    x: np.ndarray
    f: np.ndarray
    t: float

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    @property
    def x_max(self):
        return float(self.x[-1])


def initial_profile(x_max=200.0, dx=0.05):
    """Probe data sin(x)/(1 + x^2) on a symmetric grid of at least 3 nodes."""
    finite = (0 < dx < np.inf and 0 < x_max < np.inf
              and 2 * x_max / dx < np.inf)
    if not finite or (num := int(round(2 * x_max / dx))) < 2:
        raise ValueError(f"dx={dx:g}, x_max={x_max:g}: need both finite and "
                         "> 0, and from 3 to finitely many nodes")
    check_nodes(num + 1, f"x_max={x_max:g} over dx={dx:g}")
    x = np.linspace(-x_max, x_max, num + 1)
    return HeatProfile(x, np.sin(x) / (1.0 + x ** 2), 0.0)


def _rhs(f, dx):
    # flux form: d/dt f_i = (F_{i+1/2} - F_{i-1/2}) / dx, F = df/dx centered;
    # far-field Dirichlet f = 0 outside the domain
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx ** 2
    out[0] = 0.0
    out[-1] = 0.0
    return out


def heat_evolve(profile, T):
    """Heun time stepping of df/dt = d^2f/dx^2 up to time t + T, in steps of
    0.4 dx^2."""
    if not 0 <= T < np.inf:
        raise ValueError(f"T must be finite and >= 0, got {T:g}")
    dx = profile.dx
    dt = 0.4 * dx ** 2
    f = profile.f.copy()
    f[0] = 0.0
    f[-1] = 0.0
    remaining = T
    while remaining > 1e-15:
        step = min(dt, remaining)
        k1 = _rhs(f, dx)
        k2 = _rhs(f + step * k1, dx)
        f = f + 0.5 * step * (k1 + k2)
        remaining -= step
    return HeatProfile(profile.x, f, profile.t + T)


def dyadic_annuli(x_max):
    """[X, 2X] doublings from 10 up to x_max / 4 (boundary region excluded)."""
    out = []
    X = 10.0
    while 2.0 * X <= x_max / 4.0:
        out.append((X, 2.0 * X))
        X *= 2.0
    return out


def decay_profile(profile, k):
    """Per-annulus sup of x^2 |d^k f / dx^k| for k <= 2, on the dyadic
    annuli."""
    if k > 2:
        raise ValueError("only derivatives up to order 2")
    g = profile.f
    for _ in range(k):
        g = np.gradient(g, profile.dx)
    vals = []
    ax = np.abs(profile.x)
    for lo, hi in dyadic_annuli(profile.x_max):
        sel = (ax >= lo) & (ax <= hi)
        vals.append((lo, float(np.max(profile.x[sel] ** 2 * np.abs(g[sel])))))
    return vals


def decay_table(profiles):
    """Rows `t, X, sup_k0, sup_k1, sup_k2`, one per profile and annulus."""
    rows = []
    for p in profiles:
        per_k = [dict(decay_profile(p, k)) for k in range(3)]
        for X in sorted(per_k[0]):
            rows.append({"t": p.t, "X": X,
                         "sup_k0": per_k[0][X], "sup_k1": per_k[1][X],
                         "sup_k2": per_k[2][X]})
    return rows
