"""ADM mass: flux integrals, ladder extrapolation, integration-by-parts residual.

Convention: the mass carries no normalizing constant (the raw boundary flux
lim_r int_{dB_r} (g_ij,j - g_jj,i) dS^i).  To convert to the standard
normalized mass divide by 2 (n-1) omega_{n-1}; for n = 3 that is 16 pi.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .grid import sphere_area
from .curvature import scalar_curvature
from . import oracle


def adm_mass_flux(metric, r):
    """Mass flux through the coordinate sphere of radius r (closed radial form).

    flux = omega_{n-1} r^{n-1} (n-1) [ (A-B)/r - B' ].
    """
    i = metric.grid.node_at(r)
    if i is None:
        raise ValueError(f"r={r} is not a grid node")
    if abs(metric.A[i] - 1.0) > 0.5:
        warnings.warn(f"flux radius r={r} outside asymptotic regime (|A-1| > 0.5)")
    n = metric.n
    dB = metric.grid.deriv(metric.B, 1, parity=True)[i]
    val = (metric.A[i] - metric.B[i]) / r - dB
    return float(sphere_area(n) * r ** (n - 1) * (n - 1) * val)


def fit_power_tail(radii, values):
    """Fit values(r) = m + a r^(-lam); returns (m, a, lam, max residual)."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    f0 = values[-1] + (values[-1] - values[-2]) * 0.5
    scale = max(1.0, np.max(np.abs(values)))

    def model(p):
        m, a, lam = p
        return m + a * radii ** (-lam)

    def resid(p):
        return (model(p) - values) / scale

    a0 = (values[0] - f0) * radii[0]
    sol = least_squares(resid, x0=[f0, a0, 1.0], bounds=([-np.inf, -np.inf, 0.05],
                                                         [np.inf, np.inf, 20.0]))
    m, a, lam = sol.x
    return float(m), float(a), float(lam), float(np.max(np.abs(resid(sol.x))) * scale)


@dataclass
class MassReport:
    radii: np.ndarray
    flux: np.ndarray
    mass: float
    lam_fit: float
    fit_residual: float
    converged: bool

    def lines(self):
        out = [f"mass={self.mass:.12g}", f"lambda_fit={self.lam_fit:.6g}",
               f"fit_residual={self.fit_residual:.6g}", f"converged={self.converged}"]
        out += [f"flux_r{r:g}={f:.12g}" for r, f in zip(self.radii, self.flux)]
        return out


def adm_mass(metric, radii):
    """Extrapolated mass from a ladder of >= 3 flux radii."""
    radii = sorted(float(r) for r in radii)
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    flux = np.array([adm_mass_flux(metric, r) for r in radii])
    spread = np.max(flux) - np.min(flux)
    if spread < 1e-8 * max(1.0, np.max(np.abs(flux))):
        # constant ladder (e.g. flat): no tail to fit
        return MassReport(np.array(radii), flux, float(np.mean(flux)), np.inf, 0.0, True)
    m, a, lam, res = fit_power_tail(radii, flux)
    converged = res < 0.05 * max(spread, 1e-12)
    if not converged:
        warnings.warn("flux ladder did not fit a clean power tail")
    return MassReport(np.array(radii), flux, m, lam, res, converged)


def mass_parts_residual(metric, r, mass=None, direction=None):
    """Residual of the integrated scalar-curvature identity at inner radius r.

    Evaluates int_{M \\ B_r} R dV + flux(r) + the two correction volume
    integrals, minus the extrapolated mass.  Shrinks like r^(-lambda) for
    metrics with integrable R.
    """
    grid = metric.grid
    i0 = grid.node_at(r)
    if i0 is None:
        raise ValueError(f"r={r} is not a grid node")
    if mass is None:
        ladder = [grid.r[int(k)] for k in (grid.num - 1, int(grid.num * 0.9),
                                           int(grid.num * 0.8))]
        mass = adm_mass(metric, ladder).mass

    dens = metric.volume_density()
    R = scalar_curvature(metric)
    int_R = np.trapezoid((R * dens)[i0:], grid.r[i0:])

    cm = oracle.CartesianMetric(metric)
    corr = np.array([oracle.mass_correction_density(metric, ri, direction, cm=cm)
                     for ri in grid.r[i0:]])
    int_corr = np.trapezoid(corr * dens[i0:], grid.r[i0:])

    return float(int_R + adm_mass_flux(metric, r) + int_corr - mass)
