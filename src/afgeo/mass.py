"""ADM mass: the Misner-Sharp mass m(r) of the radial core, extrapolated
along a radius ladder.

Convention: the mass carries no normalizing constant (the raw boundary flux
lim_r int_{dB_r} (g_ij,j - g_jj,i) dS^i, which is 2 (n-1) omega_{n-1} times
the limit of m(r)).  To convert to the standard normalized mass divide by
2 (n-1) omega_{n-1}; for n = 3 that is 16 pi.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curvature import jet, mass_function
from .grid import sphere_area

MASS_REL_TOL = 1e-3  # converged: mass_err below this times max(1, |mass|)


def _at_zero(x, f):
    """Value at x = 0 of the polynomial through the points (x, f)."""
    # Lagrange weights at 0: the product over j != i of x_j / (x_j - x_i)
    x = x.tolist()
    w = [math.prod(xj / (xj - xi) for j, xj in enumerate(x) if j != i)
         for i, xi in enumerate(x)]
    return float(np.dot(w, f))


def fit_power_tail(radii, values, n):
    """Extrapolate the ladder of rung masses to r = infinity; returns
    (mass, mass_err).

    The rung masses tend to the mass in powers of x = r^-(n-2) (Bartnik
    1986, Comm. Pure Appl. Math. 39), so the polynomial in x through every
    rung, read at x = 0, is the mass.  mass_err is the spread of the
    extrapolations that leave out one rung each.
    """
    x = np.asarray(radii, dtype=float) ** -(n - 2.0)
    f = np.asarray(values, dtype=float)
    keep = ~np.eye(len(x), dtype=bool)
    loo = [_at_zero(x[k], f[k]) for k in keep]
    return _at_zero(x, f), float(max(loo) - min(loo))


@dataclass
class MassReport:
    radii: np.ndarray
    rung_mass: np.ndarray  # m(r) at each rung, in the units of mass
    mass: float
    mass_err: float
    converged: bool

    def lines(self):
        out = [f"mass={self.mass:.12g}", f"mass_err={self.mass_err:.6g}",
               f"converged={self.converged}"]
        out += [f"mass_r{r:g}={m:.12g}"
                for r, m in zip(self.radii, self.rung_mass)]
        return out


def adm_mass(metric, radii):
    """Extrapolated mass from m(r) on a ladder of >= 3 radii, grid nodes."""
    radii = sorted(float(r) for r in radii)
    if len(set(radii)) < len(radii) or len(radii) < 3:
        raise ValueError(f"need at least 3 distinct radii, got {radii}")
    n, grid, idx = metric.n, metric.grid, []
    for r in radii:
        i = grid.node_at(r)
        if i is None:
            raise ValueError(f"r={r} is not a grid node")
        if abs(metric.A[i] - 1.0) > 0.5:
            warnings.warn(f"mass radius r={r} outside asymptotic regime "
                          "(|A-1| > 0.5)")
        idx.append(i)
    j = jet(grid, metric.A, metric.B)[:, idx]
    rung = 2 * (n - 1) * sphere_area(n) * mass_function(n, grid.r[idx], j)
    m, err = fit_power_tail(radii, rung, n)
    converged = err < MASS_REL_TOL * max(1.0, abs(m))
    if not converged:
        warnings.warn(f"mass ladder did not converge: mass_err={err:.3g}")
    return MassReport(np.array(radii), rung, m, err, converged)
