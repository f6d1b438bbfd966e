"""Closed-form curvature of radial metrics, via the warped-product reduction.

All formulas are phrased in terms of the areal factor phi = r sqrt(B) and its
derivatives with respect to proper radius; they are locked in by the general
Cartesian finite-difference formulas in oracle.py.
"""

import numpy as np

from .grid import fornberg_weights


def _phi_jets(r, A, B, dA, dB, ddB):
    """phi = r sqrt(B) and its first two derivatives with respect to proper
    radius, f1 and f2, from pointwise values and radial derivatives."""
    sB = np.sqrt(B)
    phi = r * sB
    dphi = sB + r * dB / (2.0 * sB)
    ddphi = dB / sB + r * (ddB / (2.0 * sB) - dB ** 2 / (4.0 * B * sB))
    f1 = dphi / np.sqrt(A)
    f2 = (ddphi - dphi * dA / (2.0 * A)) / A
    return phi, f1, f2


def _phi_derivs(metric):
    """phi, d phi/d(proper radius), d^2 phi/d(proper radius)^2 on the grid."""
    return _phi_jets(metric.grid.r, metric.A, metric.B, metric.dA(1),
                    metric.dB(1), metric.dB(2))


def _fill_origin(grid, values):
    """Quadratic extrapolation into an exact r=0 node, where 0/0 forms appear."""
    if grid.includes_origin():
        w = fornberg_weights(0.0, grid.r[1:4], 0)[0]
        values = values.copy()
        values[0] = w @ values[1:4]
    return values


def scalar_curvature(metric):
    """Scalar curvature R(r) of g = A dr^2 + B r^2 dOmega^2."""
    m = metric.n - 1
    phi, f1, f2 = _phi_derivs(metric)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = m * ((m - 1) * (1.0 - f1 ** 2) / phi ** 2 - 2.0 * f2 / phi)
    return _fill_origin(metric.grid, R)


def scalar_curvature_pointwise(n, r, A, B, dA, dB, ddB):
    """R from pointwise values and radial derivatives (no grid stencils)."""
    m = n - 1
    phi, f1, f2 = _phi_jets(r, A, B, dA, dB, ddB)
    return m * ((m - 1) * (1.0 - f1 ** 2) / phi ** 2 - 2.0 * f2 / phi)


def ricci_norm_sq(metric):
    """|Ric|^2(r), squared norm of the Ricci tensor."""
    m = metric.n - 1
    phi, f1, f2 = _phi_derivs(metric)
    with np.errstate(divide="ignore", invalid="ignore"):
        rad = -m * f2 / phi
        tan = -f2 / phi + (m - 1) * (1.0 - f1 ** 2) / phi ** 2
        out = rad ** 2 + m * tan ** 2
    return _fill_origin(metric.grid, out)


def sectional_bound(metric):
    """sup over the grid of the two radial sectional curvatures of the metric."""
    phi, f1, f2 = _phi_derivs(metric)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_rad = -f2 / phi
        k_tan = (1.0 - f1 ** 2) / phi ** 2
    k_rad = _fill_origin(metric.grid, k_rad)
    k_tan = _fill_origin(metric.grid, k_tan)
    return float(np.max(np.maximum(np.abs(k_rad), np.abs(k_tan))))


def one_sided_deriv(grid, f, i0, side, order=1, width=5):
    """Derivative of sampled f at node i0 using nodes on one side only."""
    if side == "-":
        lo = max(0, i0 - width + 1)
        sel = slice(lo, i0 + 1)
    elif side == "+":
        hi = min(grid.num, i0 + width)
        sel = slice(i0, hi)
    else:
        raise ValueError("side must be '-' or '+'")
    nodes = grid.r[sel]
    if len(nodes) < order + 2:
        raise ValueError("not enough nodes on that side")
    c = fornberg_weights(grid.r[i0], nodes, order)
    return float(c[order] @ np.asarray(f, dtype=float)[sel])


def mean_curvature_sphere(metric, r0, side=None):
    """Mean curvature of the coordinate sphere r = r0 w.r.t. the outward normal.

    H = (n-1) (d/dr)(r sqrt(B)) / (sqrt(A) r sqrt(B)); `side` ('-' or '+')
    selects one-sided stencils for metrics with a derivative kink at r0.
    """
    grid = metric.grid
    i0 = grid.node_at(r0)
    if i0 is None:
        raise ValueError(f"r0={r0} is not a grid node")
    A0 = metric.A[i0]
    B0 = metric.B[i0]
    if side is None:
        dB0 = metric.dB(1)[i0]
    else:
        dB0 = one_sided_deriv(grid, metric.B, i0, side)
    phi, f1, _ = _phi_jets(r0, A0, B0, 0.0, dB0, 0.0)
    return float((metric.n - 1) * f1 / phi)
