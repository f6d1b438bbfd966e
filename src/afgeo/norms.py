"""Weighted decay norms and the fairness check between metric pairs."""

from dataclasses import dataclass

import numpy as np

from .curvature import sectional_bound


@dataclass
class MetricDiff:
    """One or more radial fields sharing a grid, measured against rho decay."""

    grid: object
    fields: list


def metric_diff(g, h):
    """Componentwise difference of two radial metrics on the same grid."""
    if g.grid is not h.grid and not np.array_equal(g.grid.r, h.grid.r):
        raise ValueError("metrics must share a grid")
    return MetricDiff(g.grid, [g.A - h.A, g.B - h.B])


def field_diff(grid, f):
    return MetricDiff(grid, [np.asarray(f, dtype=float)])


@dataclass
class WeightedNormReport:
    k: int
    alpha: float
    delta: float
    sup_terms: np.ndarray  # sup rho^(delta+j) |d^j f|, j = 0..k
    holder: float          # banded pairwise seminorm on the k-th derivative
    total: float

    def lines(self):
        out = [f"k={self.k}", f"alpha={self.alpha:g}", f"delta={self.delta:g}"]
        out += [f"sup_{j}={v:.12g}" for j, v in enumerate(self.sup_terms)]
        out += [f"holder={self.holder:.12g}", f"total={self.total:.12g}"]
        return out


def _holder_seminorm(grid, fk, weight_exp, alpha):
    """Banded pairwise max over node pairs with separation <= rho/2.

    A lower bound of the continuum seminorm (only grid pairs are sampled).
    """
    r = grid.r
    rho = grid.rho()
    best = 0.0
    n = grid.num
    for d in range(1, n):
        sep = r[d:] - r[:-d]
        w = np.minimum(rho[d:], rho[:-d])
        mask = sep <= 0.5 * w
        if not np.any(mask):
            break
        vals = w[mask] ** weight_exp * np.abs(fk[d:] - fk[:-d])[mask] / sep[mask] ** alpha
        best = max(best, float(np.max(vals)))
    return best


def _sup_terms(grid, f, k, delta):
    """sup rho^(delta+j) |d^j f| for j = 0..k, and the k-th derivative."""
    rho = grid.rho()
    sups = np.zeros(k + 1)
    df = f
    for j in range(k + 1):
        if j > 0:
            df = grid.deriv(f, order=j, parity=True)
        sups[j] = float(np.max(rho ** (delta + j) * np.abs(df)))
    return sups, df


def weighted_norm(diff, k, alpha, delta):
    """C^{k,alpha}_delta norm of a radial field bundle: sum of the sup terms
    sup rho^(delta+j)|d^j f| for j <= k plus the weighted Hölder seminorm."""
    if k > 2:
        raise ValueError("k <= 2 supported")
    grid = diff.grid
    sups = np.zeros(k + 1)
    holder = 0.0
    for f in diff.fields:
        s, dk = _sup_terms(grid, np.asarray(f, dtype=float), k, delta)
        sups = np.maximum(sups, s)
        holder = max(holder, _holder_seminorm(grid, dk, delta + k + alpha, alpha))
    return WeightedNormReport(k, alpha, delta, sups, holder,
                              float(np.sum(sups) + holder))


def fairness_ratios(h, A, B, fairness):
    """(ok, (lo, hi)): whether the ratios A / h.A and B / h.B, radial and
    tangential, lie in [1/fairness, fairness] at every node."""
    if fairness < 1.0:
        raise ValueError("fairness must be >= 1")
    ratios = np.concatenate([A / h.A, B / h.B])
    lo = float(np.min(ratios))
    hi = float(np.max(ratios))
    tol = 1e-12
    ok = lo >= 1.0 / fairness * (1.0 - tol) and hi <= fairness * (1.0 + tol)
    return bool(ok), (lo, hi)


def is_delta_fair(h, g, fairness):
    """True iff the ratios of g to h lie in [1/fairness, fairness] at every
    node and h has finite curvature."""
    ok, rng = fairness_ratios(h, g.A, g.B, fairness)
    return ok and bool(np.isfinite(sectional_bound(h))), rng


def eta_sup_norms(g, h, delta):
    """Monitored decay quantities of eta = g - h: the sup terms
    sup rho^(delta+j) |d^j eta|, j = 0, 1, 2, of the C^2_delta norm,
    componentwise over (A - A_h, B - B_h)."""
    return np.max([_sup_terms(g.grid, f, 2, delta)[0]
                   for f in (g.A - h.A, g.B - h.B)], axis=0)
