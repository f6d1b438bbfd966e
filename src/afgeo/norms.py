"""Weighted decay norms and the fairness check between metric pairs."""

import numpy as np

from .curvature import jet
from .grid import rho_weight


def fairness_ratios(h, A, B, fairness):
    """(ok, (lo, hi)): whether the ratios A / h.A and B / h.B, radial and
    tangential, lie in [1/fairness, fairness] at every node."""
    ratios = np.concatenate([A / h.A, B / h.B])
    lo = float(np.min(ratios))
    hi = float(np.max(ratios))
    tol = 1e-12
    ok = lo >= 1.0 / fairness * (1.0 - tol) and hi <= fairness * (1.0 + tol)
    return bool(ok), (lo, hi)


def eta_sup_norms(grid, eta, delta):
    """Monitored decay quantities of eta = g - h, shape (N, 2): the sup terms
    sup rho^(delta+j) |d^j eta|, j = 0, 1, 2, of the C^2_delta norm,
    componentwise over (A - A_h, B - B_h)."""
    ej = jet(grid, *eta.T)
    rho = rho_weight(grid.r)[:, None]
    return np.array([np.max(rho ** (delta + j) * np.abs(ej[j]))
                     for j in range(3)])
