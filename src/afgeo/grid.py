"""Radial grids, finite-difference derivatives and the weight function rho."""

import math

import numpy as np

MIN_NODES = 16


def sphere_area(n):
    """Area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at points z on nodes x.

    z has shape (...) and x shape (..., nd): one node window per evaluation
    point, all handled by one pass of the classic Fornberg recursion.
    Returns an array of shape (..., m+1, nd); row k holds the weights of the
    k-th derivative.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    nd = x.shape[-1]
    c = np.zeros(x.shape[:-1] + (m + 1, nd))
    c1 = 1.0
    c4 = x[..., 0] - z
    c[..., 0, 0] = 1.0
    for i in range(1, nd):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., k, i] = (c1 * (k * c[..., k - 1, i - 1]
                                          - c5 * c[..., k, i - 1]) / c2)
                c[..., 0, i] = -c1 * c5 * c[..., 0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[..., k, j] = (c4 * c[..., k, j] - k * c[..., k - 1, j]) / c3
            c[..., 0, j] = c4 * c[..., 0, j] / c3
        c1 = c2
    return c


def smoothstep(x):
    """Quintic smoothstep: 0 -> 1 on [0, 1] with zero 1st and 2nd derivatives at ends."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x ** 2)


def rho_weight(r):
    """Decay weight rho: 1 for r <= 1, r for r >= 2, cubic Hermite blend between."""
    r = np.asarray(r, dtype=float)
    t = np.clip(r - 1.0, 0.0, 1.0)
    blend = 1.0 + 2.0 * t ** 2 - t ** 3
    return np.where(r <= 1.0, 1.0, np.where(r >= 2.0, r, blend))


class RadialGrid:
    """Strictly increasing radial nodes plus cached finite-difference operators.

    Interior derivatives use 5-point (4th order on uniform spacing) stencils;
    near the ends the stencil window is clipped, giving one-sided formulas.
    A parity flag mirrors the nodes across r = 0 for fields even in r.
    """

    def __init__(self, r, spacing="custom"):
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or len(r) < MIN_NODES:
            raise ValueError(f"grid needs >= {MIN_NODES} nodes")
        if np.any(np.diff(r) <= 0):
            raise ValueError("grid radii must be strictly increasing")
        if r[0] < 0:
            raise ValueError("negative radii not allowed")
        self.r = r
        self.spacing = spacing
        self._stencils = {}

    @classmethod
    def uniform(cls, r_min, r_max, num):
        return cls(np.linspace(r_min, r_max, num), spacing="uniform")

    @classmethod
    def staggered(cls, r_max, num):
        """Uniform cell-centered grid r_j = (j + 1/2) h; no node at r = 0."""
        h = r_max / num
        return cls((np.arange(num) + 0.5) * h, spacing="uniform")

    @classmethod
    def geometric(cls, r_min, r_max, num, ratio):
        """Spacing grows by `ratio` per cell, starting from r_min."""
        if ratio <= 1.0:
            raise ValueError("ratio must exceed 1")
        steps = ratio ** np.arange(num - 1)
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        r = r_min + (r_max - r_min) * cum / cum[-1]
        return cls(r, spacing="geometric")

    @property
    def num(self):
        return len(self.r)

    @property
    def r_max(self):
        return float(self.r[-1])

    @property
    def dr_min(self):
        return float(np.min(np.diff(self.r)))

    def rho(self):
        return rho_weight(self.r)

    def includes_origin(self):
        return self.r[0] == 0.0

    def on_nodes(self, fn):
        """fn(r) at the nodes.  At an exact r = 0 node, where fn meets 0/0
        forms, the value is extrapolated quadratically from the next three."""
        with np.errstate(divide="ignore", invalid="ignore"):
            values = fn(self.r)
        if self.includes_origin():
            values[0] = fornberg_weights(0.0, self.r[1:4], 0)[0] @ values[1:4]
        return values

    def _build_stencils(self, order, parity):
        width = 5
        # parity: two ghosts mirrored across r = 0 (even extension), nearest
        # last, skipping an exact r=0 node
        k0 = 1 if self.includes_origin() else 0
        ghost = np.array([k0 + 1, k0] if parity else [], dtype=int)
        rg = np.concatenate([-self.r[ghost], self.r])
        gmap = np.concatenate([ghost, np.arange(self.num)])
        offset = len(ghost)
        ng = len(rg)
        # window start of every row, clipped to one-sided near the ends
        lo = np.clip(np.arange(self.num) + offset - width // 2, 0, ng - width)
        win = lo[:, None] + np.arange(width)
        w = fornberg_weights(self.r, rg[win], order)[:, order]
        return gmap[win], w

    def deriv(self, f, order=1, parity=False):
        """Radial derivative of sampled values f. parity=True treats f as even in r."""
        f = np.asarray(f, dtype=float)
        key = (order, bool(parity))
        if key not in self._stencils:
            self._stencils[key] = self._build_stencils(order, parity)
        idx, w = self._stencils[key]
        return np.einsum("ij,ij->i", w, f[idx])

    def trapz(self, f):
        return np.trapezoid(f, self.r)

    def snap(self, targets):
        """The node radius nearest to each target radius."""
        return [float(self.r[np.argmin(np.abs(self.r - t))]) for t in targets]

    def node_at(self, r0, tol=1e-9):
        """Index of the node equal to r0, or None."""
        i = int(np.argmin(np.abs(self.r - r0)))
        if abs(self.r[i] - r0) <= tol * max(1.0, abs(r0)):
            return i
        return None
