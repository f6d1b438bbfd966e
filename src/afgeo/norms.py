"""Weighted decay norms and the fairness check between metric pairs."""

import numpy as np


def _sup_terms(grid, f, k, delta):
    """sup rho^(delta+j) |d^j f| for j = 0..k."""
    rho = grid.rho()
    derivs = [f] + [grid.deriv(f, order=j, parity=True)
                    for j in range(1, k + 1)]
    return np.array([np.max(rho ** (delta + j) * np.abs(df))
                     for j, df in enumerate(derivs)])


def fairness_ratios(h, A, B, fairness):
    """(ok, (lo, hi)): whether the ratios A / h.A and B / h.B, radial and
    tangential, lie in [1/fairness, fairness] at every node."""
    ratios = np.concatenate([A / h.A, B / h.B])
    lo = float(np.min(ratios))
    hi = float(np.max(ratios))
    tol = 1e-12
    ok = lo >= 1.0 / fairness * (1.0 - tol) and hi <= fairness * (1.0 + tol)
    return bool(ok), (lo, hi)


def eta_sup_norms(g, h, delta):
    """Monitored decay quantities of eta = g - h: the sup terms
    sup rho^(delta+j) |d^j eta|, j = 0, 1, 2, of the C^2_delta norm,
    componentwise over (A - A_h, B - B_h)."""
    return np.max([_sup_terms(g.grid, f, 2, delta)
                   for f in (g.A - h.A, g.B - h.B)], axis=0)
