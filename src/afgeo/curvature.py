"""Closed-form curvature of radial metrics, via the warped-product reduction.

Every curvature is read from one 2-jet of (A, B), through the two sectional
curvatures k_rad and k_tan; the general Cartesian finite-difference formulas
in oracle.py lock them in.
"""

import numpy as np


def jet(grid, A, B):
    """The 2-jet (A, A', A'', B, B', B'') from the parity stencils."""
    d = grid.deriv
    return (A, d(A, 1, parity=True), d(A, 2, parity=True),
            B, d(B, 1, parity=True), d(B, 2, parity=True))


def _phi_jets(r, jet):
    """phi = r sqrt(B) and its first two derivatives with respect to proper
    radius, f1 and f2, from a 2-jet."""
    A, dA, _, B, dB, ddB = jet
    sB = np.sqrt(B)
    phi = r * sB
    dphi = sB + r * dB / (2.0 * sB)
    ddphi = dB / sB + r * (ddB / (2.0 * sB) - dB ** 2 / (4.0 * B * sB))
    f1 = dphi / np.sqrt(A)
    f2 = (ddphi - dphi * dA / (2.0 * A)) / A
    return phi, f1, f2


def sectional(r, jet):
    """Sectional curvatures (k_rad, k_tan) = (-f2/phi, (1 - f1^2)/phi^2) of
    the planes through the radial direction and tangent to the sphere."""
    phi, f1, f2 = _phi_jets(r, jet)
    return -f2 / phi, (1.0 - f1 ** 2) / phi ** 2


def ricci(n, r, jet):
    """Ricci eigenvalues: (n-1) k_rad once (radial direction) and
    k_rad + (n-2) k_tan n-1 times (tangent to the sphere)."""
    k_rad, k_tan = sectional(r, jet)
    return (n - 1) * k_rad, k_rad + (n - 2) * k_tan


def scalar(n, r, jet):
    """Scalar curvature R = (n-1)(2 k_rad + (n-2) k_tan) from a 2-jet."""
    k_rad, k_tan = sectional(r, jet)
    return (n - 1) * (2.0 * k_rad + (n - 2) * k_tan)


def mean_curvature(n, r, jet):
    """Mean curvature H = (n-1) f1/phi of the sphere of radius r, outward
    normal, from a 2-jet."""
    phi, f1, _ = _phi_jets(r, jet)
    return (n - 1) * f1 / phi


def _on_grid(metric, fn):
    """fn(n, r, jet) of the metric at its grid nodes."""
    return fn(metric.n, metric.grid.r, jet(metric.grid, metric.A, metric.B))


def scalar_curvature(metric):
    """Scalar curvature R(r) of g = A dr^2 + B r^2 dOmega^2."""
    return _on_grid(metric, scalar)


def ricci_norm_sq(metric):
    """|Ric|^2(r), squared norm of the Ricci tensor."""
    def norm_sq(n, r, j):
        rad, tan = ricci(n, r, j)
        return rad ** 2 + (n - 1) * tan ** 2
    return _on_grid(metric, norm_sq)

