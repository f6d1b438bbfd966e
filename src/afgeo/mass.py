"""ADM mass: flux integrals and their extrapolation along a radius ladder.

Convention: the mass carries no normalizing constant (the raw boundary flux
lim_r int_{dB_r} (g_ij,j - g_jj,i) dS^i).  To convert to the standard
normalized mass divide by 2 (n-1) omega_{n-1}; for n = 3 that is 16 pi.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import sphere_area

MASS_REL_TOL = 1e-3  # converged: mass_err below this times max(1, |mass|)


def adm_mass_flux(metric, r):
    """Mass flux through the coordinate sphere of radius r (closed radial form).

    flux = omega_{n-1} r^{n-1} (n-1) [ (A-B)/r - B' ].
    """
    return _fluxes(metric, [r])[0]


def _fluxes(metric, radii):
    """The flux through each sphere of `radii`, from one B' on the grid."""
    dB = metric.grid.deriv(metric.B, 1, parity=True)
    n, out = metric.n, []
    for r in radii:
        i = metric.grid.node_at(r)
        if i is None:
            raise ValueError(f"r={r} is not a grid node")
        if abs(metric.A[i] - 1.0) > 0.5:
            warnings.warn(f"flux radius r={r} outside asymptotic regime "
                          "(|A-1| > 0.5)")
        val = (metric.A[i] - metric.B[i]) / r - dB[i]
        out.append(float(sphere_area(n) * r ** (n - 1) * (n - 1) * val))
    return out


def _at_zero(x, f):
    """Value at x = 0 of the polynomial through the points (x, f)."""
    # Lagrange weights at 0: the product over j != i of x_j / (x_j - x_i)
    w = [np.prod([x[j] / (x[j] - x[i]) for j in range(len(x)) if j != i])
         for i in range(len(x))]
    return float(np.dot(w, f))


def fit_power_tail(radii, values, n):
    """Extrapolate the flux ladder to r = infinity; returns (mass, mass_err).

    The flux is a power series in x = r^-(n-2) (Bartnik 1986, Comm. Pure
    Appl. Math. 39), so the polynomial in x through every rung, read at
    x = 0, is the mass.  mass_err is the spread of the extrapolations that
    leave out one rung each.
    """
    x = np.asarray(radii, dtype=float) ** -(n - 2.0)
    f = np.asarray(values, dtype=float)
    keep = ~np.eye(len(x), dtype=bool)
    loo = [_at_zero(x[k], f[k]) for k in keep]
    return _at_zero(x, f), float(max(loo) - min(loo))


@dataclass
class MassReport:
    radii: np.ndarray
    flux: np.ndarray
    mass: float
    mass_err: float
    converged: bool

    def lines(self):
        out = [f"mass={self.mass:.12g}", f"mass_err={self.mass_err:.6g}",
               f"converged={self.converged}"]
        out += [f"flux_r{r:g}={f:.12g}" for r, f in zip(self.radii, self.flux)]
        return out


def adm_mass(metric, radii):
    """Extrapolated mass from a ladder of >= 3 flux radii."""
    radii = sorted(float(r) for r in radii)
    if len(set(radii)) < len(radii) or len(radii) < 3:
        raise ValueError(f"need at least 3 distinct radii, got {radii}")
    flux = np.array(_fluxes(metric, radii))
    m, err = fit_power_tail(radii, flux, metric.n)
    converged = err < MASS_REL_TOL * max(1.0, abs(m))
    if not converged:
        warnings.warn(f"flux ladder did not converge: mass_err={err:.3g}")
    return MassReport(np.array(radii), flux, m, err, converged)
