"""Radial grids, finite-difference derivatives and the weight function rho."""

import math
from functools import cached_property

import numpy as np

MIN_NODES = 16
MAX_NODES = 2 ** 24  # the most nodes a grid may have: 128 MiB a field
BLOCK = 32  # rows per dense block of _solve_banded


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
    z = np.asarray(z, dtype=float)
    # node-major: each c[k, i] below is one contiguous row over the points
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0).copy()
    nd = len(x)
    c = np.zeros((m + 1, nd) + x.shape[1:])
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, nd):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return np.moveaxis(c, (0, 1), (-2, -1))


def check_nodes(num, what):
    """Refuse a grid of more than MAX_NODES nodes before numpy allocates
    it; `what` names the input that asked for them."""
    if not num <= MAX_NODES:
        raise ValueError(f"{what} asks for {num:g} nodes, more than "
                         f"MAX_NODES = {MAX_NODES}")


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
    """Strictly increasing radial nodes, all > 0 (a staggered grid reaches
    the origin), plus cached finite-difference operators.

    Interior derivatives use 5-point (4th order on uniform spacing) stencils;
    near the ends the stencil window is clipped, giving one-sided formulas.
    A parity flag mirrors the nodes across r = 0 for fields even in r.
    """

    def __init__(self, r):
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or len(r) < MIN_NODES:
            raise ValueError(f"grid needs >= {MIN_NODES} nodes")
        if not np.isfinite(r).all():
            raise ValueError("grid radii must be finite")
        if np.any(np.diff(r) <= 0):
            raise ValueError("grid radii must be strictly increasing")
        if not r[0] > 0:
            raise ValueError(f"grid's first node r[0] = {r[0]:g} is not > 0; "
                             "a staggered grid reaches the origin")
        self.r = r
        self._stencils = {}  # parity -> (idx, w)

    @classmethod
    def uniform(cls, r_min, r_max, num):
        check_nodes(num, f"num={num}")
        return cls(np.linspace(r_min, r_max, num))

    @classmethod
    def staggered(cls, r_max, num):
        """Uniform cell-centered grid r_j = (j + 1/2) h; no node at r = 0."""
        check_nodes(num, f"num={num}")
        h = r_max / num
        return cls((np.arange(num) + 0.5) * h)

    @classmethod
    def geometric(cls, r_min, r_max, num, ratio):
        """Spacing grows by `ratio` per cell, starting from r_min."""
        if ratio <= 1.0:
            raise ValueError("ratio must exceed 1")
        check_nodes(num, f"num={num}")
        steps = ratio ** np.arange(num - 1)
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        r = r_min + (r_max - r_min) * cum / cum[-1]
        return cls(r)

    @property
    def num(self):
        return len(self.r)

    @property
    def r_max(self):
        return float(self.r[-1])

    @cached_property
    def dr_min(self):
        return float(np.min(np.diff(self.r)))

    def _build_stencils(self, parity):
        width = 5
        # parity: two ghosts mirrored across r = 0 (even extension), nearest
        # last
        ghost = np.array([1, 0] if parity else [], dtype=int)
        rg = np.concatenate([-self.r[ghost], self.r])
        gmap = np.concatenate([ghost, np.arange(self.num)])
        offset = len(ghost)
        ng = len(rg)
        # window start of every row, clipped to one-sided near the ends
        lo = np.clip(np.arange(self.num) + offset - width // 2, 0, ng - width)
        win = lo[:, None] + np.arange(width)
        # one Fornberg pass: row k of order 2 is that of its own pass
        w = fornberg_weights(self.r, rg[win], 2)
        return gmap[win], np.ascontiguousarray(w.transpose(1, 0, 2))

    def stencils(self, parity):
        """(idx, w) of the 5-point stencils: f[idx] gathers every node's
        window of f, and w[k], of shape (N, 5), weighs it into the k-th
        derivative, k = 0, 1, 2.  parity=True treats f as even in r."""
        if parity not in self._stencils:
            self._stencils[parity] = self._build_stencils(parity)
        return self._stencils[parity]

    def deriv(self, f, order=1, parity=False):
        """Radial derivative of sampled values f. parity=True treats f as even in r."""
        if order not in (0, 1, 2):
            raise ValueError(f"deriv takes order 0, 1 or 2, not {order}")
        idx, w = self.stencils(parity)
        f = np.asarray(f, dtype=float)
        return np.einsum("ij,ij->i", w[order], f[idx])

    def snap(self, targets):
        """The node radius nearest to each target radius.  A target that is
        not finite, or lies outside [r[0], r[-1]] by more than the end
        cell's width, is refused."""
        r, out = self.r, []
        for t in targets:
            if not 2 * r[0] - r[1] <= t <= 2 * r[-1] - r[-2]:
                raise ValueError(f"radius {t:g} lies off the grid "
                                 f"[{r[0]:g}, {r[-1]:g}] by more than a cell")
            out.append(float(r[np.argmin(np.abs(r - t))]))
        return out

    def node_at(self, r0):
        """Index of the node equal to r0 to 1e-9 relative, or None."""
        i = int(np.argmin(np.abs(self.r - r0)))
        if abs(self.r[i] - r0) <= 1e-9 * max(1.0, abs(r0)):
            return i
        return None


# -- interpolating splines ----------------------------------------------------

class Spline:
    """Piecewise polynomial in Horner form.

    c[k - p, i, ...] is the p-th Taylor coefficient of piece i about its
    first breakpoint x[i]; trailing axes of c are fields.  The breakpoints
    ascend; piece i holds x[i] but not x[i+1], and points beyond the ends
    use the end pieces.
    """

    def __init__(self, c, x):
        self.c = np.asarray(c, dtype=float)
        self.x = np.asarray(x, dtype=float)
        # field-major copy: the gather and the Horner passes run on rows
        # contiguous in the evaluation points
        k1, pieces = self.c.shape[:2]
        self._cf = np.ascontiguousarray(
            self.c.reshape(k1, pieces, -1).transpose(2, 0, 1))

    def jets(self, r, order=0):
        """f, f', ..., f^(order) at radii r, one array of shape (order + 1,)
        + r.shape + the field shape, from one search and one gather.

        Horner runs field-major, in place in the returned array: the p-th
        derivative of sum_q a[k-q] dx^q gives term q the factor q!/(q-p)!.
        """
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        k = len(self.c) - 1
        shape = r.shape + self.c.shape[2:]
        # the interior breakpoints give the piece, with the end pieces
        # reaching beyond the ends
        i = np.searchsorted(self.x[1:-1], flat, side="right")
        a = np.take(self._cf, i, axis=2).transpose(1, 0, 2)
        dx = flat - self.x[i]
        out = np.empty((order + 1,) + a.shape[1:])
        for p, f in enumerate(out):
            f[...] = a[0] * math.perm(k, p) if p else a[0]
            for q in range(k - 1, p - 1, -1):
                f *= dx
                f += a[k - q] * math.perm(q, p) if p else a[k - q]
        return out.transpose(0, 2, 1).reshape((order + 1,) + shape)

    def __call__(self, r):
        return self.jets(r)[0]


def _bspline_basis(t, k, x, ell):
    """The B-splines on knots t that are nonzero on [t[ell], t[ell+1]), at
    x, for every degree d <= k (Cox-de Boor recursion): entry d has shape
    (len(x), d+1), column q for B_(ell-d+q) of degree d."""
    h = [np.ones((1, len(x)))]
    for d in range(1, k + 1):
        # rows q = 1..d: the knots t[ell+q-d] and t[ell+q]
        knots = t[np.arange(1 - d, d + 1)[:, None] + ell]
        xa, xb = knots[:d], knots[d:]
        w = h[-1] / (xb - xa)
        cur = np.zeros((d + 1, len(x)))
        cur[1:] = w * (x - xa)
        cur[:-1] += w * (xb - x)
        h.append(cur)
    return [v.T for v in h]


def _solve_banded(band, first, y):
    """Solve M a = y, row i of M holding band[i] from column first[i].

    Block Thomas elimination over dense diagonal blocks, with no pivoting
    between blocks: a B-spline collocation matrix is totally positive (de
    Boor, A Practical Guide to Splines, 1978), so every Schur complement is
    too.  The columns of y are right-hand sides of the one elimination.
    """
    n, w = band.shape
    k = w - 1
    P = -(-n // BLOCK)
    # block b's rows hold columns b BLOCK - k .. (b+1) BLOCK + k: k columns
    # coupling back, the diagonal block, k coupling forward, then y; rows
    # past n are identity rows that pad the system to whole blocks
    M = np.zeros((P * BLOCK, BLOCK + 2 * k + y.shape[1]))
    i = np.arange(n)[:, None]
    M[i, first[:, None] + np.arange(w) - i // BLOCK * BLOCK + k] = band
    pad = np.arange(n, P * BLOCK)
    M[pad, pad % BLOCK + k] = 1.0
    M[:n, BLOCK + 2 * k:] = y
    M = M.reshape(P, BLOCK, -1)
    low, diag, aug = M[:, :, :k], M[:, :, k:BLOCK + k], M[:, :, BLOCK + k:]
    sol = []
    for b in range(P):
        if b:
            # only the first k rows couple back, to the last k columns
            T = low[b, :k] @ sol[-1][-k:]
            diag[b, :k, :k] -= T[:, :k]
            aug[b, :k, k:] -= T[:, k:]
        sol.append(np.linalg.solve(diag[b], aug[b]))
    out = [sol[-1][:, k:]]
    for s in sol[-2::-1]:
        out.append(s[:, k:] - s[:, :k] @ out[-1][:k])
    return np.concatenate(out[::-1])[:n]


def interp_spline(x, y, k=3):
    """Not-a-knot interpolating spline of odd degree k through (x, y).

    The spline of scipy's make_interp_spline(x, y, k), for k = 3 also
    CubicSpline's default: knots x[0] k+1 times, x[m+1:-m-1] and x[-1] k+1
    times, m = (k-1)/2.  Trailing axes of y are fields sharing the one
    collocation solve.  Returns the Horner-form Spline on the distinct knots.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if k % 2 != 1 or n < k + 1:
        raise ValueError("need an odd degree k and at least k+1 points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    m = (k - 1) // 2
    t = np.concatenate([np.full(k + 1, x[0]), x[m + 1:n - m - 1],
                        np.full(k + 1, x[-1])])
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    a = _solve_banded(_bspline_basis(t, k, x, ell)[k], ell - k,
                      y.reshape(n, -1))
    # Taylor coefficients about each left knot t[l]: the p-th derivative
    # has the B-spline coefficients of degree k - p below (de Boor)
    left = np.arange(k, n)
    basis = _bspline_basis(t, k, t[left], left)
    c = np.empty((k + 1, len(left), a.shape[1]))
    for p in range(k + 1):
        d = k - p
        # the d+1 B-splines of degree d, in order: a[left - d + q]
        c[d] = sum(basis[d][:, q, None] * a[k - d + q:n - d + q]
                   for q in range(d + 1)) / math.factorial(p)
        if p < k:
            a[p + 1:] = (d * (a[p + 1:] - a[p:-1])
                         / (t[p + 1 + d:n + d] - t[p + 1:n])[:, None])
    return Spline(c.reshape(c.shape[:2] + y.shape[1:]), t[k:n + 1])
