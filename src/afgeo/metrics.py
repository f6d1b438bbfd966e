"""Radial asymptotically flat metrics g = A dr^2 + B r^2 dOmega^2."""

from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, smoothstep, sphere_area


def volume_element(n, r, A, B):
    """dV/dr = |S^(n-1)| sqrt(A B^(n-1)) r^(n-1), the volume per unit dr."""
    return sphere_area(n) * np.sqrt(A * B ** (n - 1)) * r ** (n - 1)


@dataclass
class RadialMetric:
    """Sampled radial metric; in Cartesian coordinates
    g_ij = B delta_ij + (A - B) x_i x_j / r^2.
    """

    grid: RadialGrid
    n: int
    A: np.ndarray
    B: np.ndarray
    delta: float = 1.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.n < 3:
            raise ValueError("dimension must be >= 3")
        if self.A.shape != self.grid.r.shape or self.B.shape != self.grid.r.shape:
            raise ValueError("A, B must be sampled on the grid")
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ValueError("metric coefficients must be finite")
        if np.any(self.A <= 0) or np.any(self.B <= 0):
            raise ValueError("metric coefficients must be positive")

    # -- sampled-profile helpers -------------------------------------------

    def volume_density(self):
        """dV/dr at the nodes; see volume_element."""
        return volume_element(self.n, self.grid.r, self.A, self.B)

    def laplacian(self, f):
        """Laplace-Beltrami operator of the metric on a radial function f."""
        dens = self.volume_density()
        df = self.grid.deriv(f, 1, parity=True)
        return self.grid.deriv(dens / self.A * df, 1, parity=False) / dens


def build_flat(n, grid):
    """Euclidean reference metric: A = B = 1."""
    one = np.ones_like(grid.r)
    return RadialMetric(grid, n, one.copy(), one.copy(), delta=float(n - 2))


def build_schwarzschild_isotropic(m, n, grid):
    """Isotropic Schwarzschild (Tangherlini) slice: A = B = u^{4/(n-2)},
    u = 1 + m/(2 r^{n-2})."""
    if grid.r[0] <= 0:
        raise ValueError("Schwarzschild in isotropic coordinates needs r > 0")
    if m < 0:
        raise ValueError("mass must be nonnegative")
    u = 1.0 + m / (2.0 * grid.r ** (n - 2))
    A = u ** (4.0 / (n - 2))
    return RadialMetric(grid, n, A, A.copy(), delta=float(n - 2))


def build_conformal(c, n, grid):
    """Conformally flat metric (1 + c q)^{4/(n-2)} delta with q = (1+r^2)^{-(n-2)/2}.

    q is smooth at the origin and decays like the Green's function, so
    delta = n-2.  Requires 1 + c q > 0.
    """
    q = (1.0 + grid.r ** 2) ** (-(n - 2) / 2.0)
    U = 1.0 + c * q
    if np.any(U <= 0):
        raise ValueError("conformal factor must stay positive")
    A = U ** (4.0 / (n - 2))
    return RadialMetric(grid, n, A, A.copy(), delta=float(n - 2))


def build_angular_bump(c, n, grid, width=1.0):
    """Anisotropic smooth test metric: A = 1, B = 1 + c/(1 + (r/width)^2)^{n/2}."""
    if not 0 < width < np.inf:
        raise ValueError(f"width={width:g}: the width must be finite and > 0")
    B = 1.0 + c / (1.0 + (grid.r / width) ** 2) ** (n / 2.0)
    if np.any(B <= 0):
        raise ValueError("B must stay positive")
    return RadialMetric(grid, n, np.ones_like(B), B, delta=float(n))


def _smooth_pos(u, w):
    """C^3 regularisation of max(0, u), active only on |u| <= w; its
    derivative in u is smoothstep((u/w + 1)/2)."""
    x = np.clip((u / w + 1.0) / 2.0, 0.0, 1.0)
    # antiderivative of the quintic smoothstep
    T = x ** 4 * (2.5 - 3.0 * x + x ** 2)
    return np.where(u >= w, u, 2.0 * w * T)


def _kink_profile(r, k, amp, smooth_width):
    """p(r) = amp * max(0, 1 - (r/k)^2) and its derivative, optionally with
    the derivative kink at r = k resolved over the given radial width."""
    if not 0 < k < np.inf:
        raise ValueError(f"kink={k:g}: the kink radius must be finite and > 0")
    u = 1.0 - (r / k) ** 2
    du = -2.0 * r / k ** 2
    if smooth_width > 0.0:
        # the kink sits where u crosses 0 with slope |u'(k)| = 2/k
        w = smooth_width * 2.0 / k
        return (amp * _smooth_pos(u, w),
                amp * smoothstep((u / w + 1.0) / 2.0) * du)
    return amp * np.maximum(0.0, u), amp * np.where(u > 0.0, du, 0.0)


def radial_kink_map(r, kink_radius, amp, smooth_width=0.0):
    """Lipschitz radial map Phi(r) = r (1 + amp * max(0, 1 - (r/kink_radius)^2)).

    Phi' jumps at kink_radius; Phi = Id beyond it; smooth (even profile) at
    r=0.  A positive smooth_width resolves the derivative jump over that
    radial distance, leaving the map unchanged elsewhere.
    """
    r = np.asarray(r, dtype=float)
    p, _ = _kink_profile(r, kink_radius, amp, smooth_width)
    return r * (1.0 + p)


def build_distorted_flat(n, grid, kink_radius=3.0, amp=0.05, smooth_width=0.0):
    """Pullback of the flat metric by a radial map with a derivative kink.

    A = Phi'^2, B = (Phi/r)^2: a Lipschitz metric isometric to flat space,
    hence zero mass; the kink sits at kink_radius."""
    r = grid.r
    p, dp = _kink_profile(r, kink_radius, amp, smooth_width)
    dphi = 1.0 + p + r * dp
    if np.any(dphi <= 0):
        raise ValueError("kink amplitude too large: map not monotone")
    A = dphi ** 2
    B = (1.0 + p) ** 2
    return RadialMetric(grid, n, A, B, delta=float(n))
