"""The corner certificate's sigma-free tables.  The mollifier's are functions
of the scaled radius s = (r - r0) / sigma alone: the polynomial bump of
half-width 1/2, the cutoff chi of the collar -1 < s < 1 and the collar
operator, from the bump's closed-form moments at any scaled radii and built
once on the certificate's fixed collar; `corner` scales them by sigma.  A
corner piece's FarTable holds the certificate's running sums over its
nodes."""

from functools import cache
from math import comb, perm
from typing import NamedTuple

import numpy as np

from .curvature import scalar_curvature
from .grid import smoothstep

COLLAR_S = np.linspace(-1.0, 1.0, 4001)  # certificate collar, in sigma


def _psi(x):
    """The C^3 bump (1 - 4 x^2)^4 / (128/315) of unit mass on |x| < 1/2."""
    return 315 / 128 * np.maximum(1.0 - 4.0 * x * x, 0.0) ** 4


def blend(s):
    """[chi, chi', chi''] of the cutoff chi: 1 on |s| <= 1/2, 0 on |s| >= 1,
    a quintic smoothstep between; in r, the k-th is divided by sigma^k."""
    x = np.clip(2.0 * np.abs(s) - 1.0, 0.0, 1.0)
    return [1.0 - smoothstep(x), -60.0 * np.sign(s) * x ** 2 * (1 - x) ** 2,
            -240.0 * x * (1 - x) * (1 - 2 * x)]


def in_collar(s):
    """-1 < s < 1/2, where the mollifier moves the fields."""
    return (s > -1.0) & (s < 0.5)


def _powers(x, n):
    """x^0, ..., x^(n-1) as the rows of an (n, len(x)) array."""
    p = np.empty((n, len(x)))
    p[0] = 1.0
    for m in range(1, n):
        np.multiply(p[m - 1], x, out=p[m])
    return p


# POWER_DERIV[p] @ c: the coefficients of the p-th derivative of
# sum_q c_q s^q, q = 0..5 (c_q moves to power q - p, times perm(q, p))
POWER_DERIV = [np.diag([perm(q, p) for q in range(p, 6)], p) for p in range(3)]


def collar_operator(s):
    """The (3, len(s), 7) collar operator H at ascending scaled radii s in
    the collar, -1 < s < 1/2.  Where T = sum_q d_q (r - r0)^q is the
    corner's polynomial part, the collar adds chi ((T [r < r0]) * rho - T [r
    < r0]), whose k-th derivative at r0 + sigma s is H_k @ [d_q sigma^q;
    jump sigma^(k-1)] / sigma^k, jump = -d_1: the blend derivatives times the
    moments G_m(s) = int_s^{1/2} rho(t) (s - t)^m dt - s^m [s <= 0], m =
    0..5, by Leibniz' rule, plus the bump-density jump."""
    lo, hi = np.searchsorted(s, [-0.5, 0.0], "right")
    # built transposed: each column of a table is one contiguous row
    H = np.zeros((3, 7, len(s)))
    G = H[0, :6]  # chi G, chi = 1 but in the blend zone
    # s <= 0: G = B - L, B_m(s) = sum_j C(m, j) mu_j s^(m-j) over the bump's
    # moments mu_2 = 1/44, mu_4 = 3/2288 and L_m(s) = int_{-1/2}^s rho(t) (s
    # - t)^m dt, 0 on s <= -1/2: there G_0 = G_1 = 0 exactly.  s > 0: G_m(s)
    # = (-1)^m L_m(-s).  L_m(-|s|) = a^(5+m) sum_j c_mj b^j, a, b = 1/2 -/+
    # |s|, c_mj = 630 C(4, j) B(5 + j, 5 - j + m) > 0 (B Euler's beta): no
    # sum cancels
    np.matmul([[1 / 44, 0, 0, 0], [0, 3 / 44, 0, 0], [3 / 2288, 0, 6 / 44, 0],
               [0, 15 / 2288, 0, 10 / 44]], _powers(s, 4), out=G[2:])
    a, b = 0.5 - np.abs(s[lo:]), 0.5 + np.abs(s[lo:])
    L = np.matmul([[comb(4 + j, j) * perm(4 - j + m, m) / perm(9 + m, m)
                    for j in range(5)] for m in range(6)], _powers(b, 5))
    L *= a ** 5
    L[1:] *= _powers(a, 6)[1:]
    G[:, lo:hi] -= L[:, :hi - lo]
    G[:, hi:] = L[:, hi - lo:] * [[1], [-1], [1], [-1], [1], [-1]]
    for k in (1, 2):
        np.multiply(G[:6 - k], [[perm(q, k)] for q in range(k, 6)],
                    out=H[k, k:6])
    H[2, 6] = _psi(s)  # 0 on s <= -1/2
    # the blend zone, k descending: rows k - j still hold G @ POWER_DERIV
    chi, Hb = blend(s[:lo]), H[:, 2:6, :lo]
    for k in (2, 1, 0):
        Hb[k] = sum(comb(k, j) * chi[j] * Hb[k - j] for j in range(k + 1))
    return H.transpose(0, 2, 1)


@cache
def certificate_collar():
    """The tables on COLLAR_S, built once per process and shared, read-only,
    by every sigma and every corner: the collar slice, the powers s^m and
    `collar_operator` there."""
    i = np.flatnonzero(in_collar(COLLAR_S))
    powers, H = _powers(COLLAR_S, 6).T, collar_operator(COLLAR_S[i])
    powers.flags.writeable = H.flags.writeable = False
    return slice(i[0], i[-1] + 1), powers, H


class FarTable(NamedTuple):
    """One piece's sigma-free certificate data, its nodes ordered from the
    far end toward r0: entry k of a running column covers the k farthest."""
    key: np.ndarray      # r on the inner piece, -r on the outer: ascending
    r: np.ndarray
    y: np.ndarray        # (|R_-| dV/dr, [R < 0] dV/dr) per node
    integral: np.ndarray  # trapezoid of y over the k farthest nodes
    R_min: np.ndarray    # min R over them (inf for k = 0)
    moved: np.ndarray    # max |fit - data| over them (0 for k = 0)


def negative_parts(R, dens):
    """The integrands (|R_-| dV/dr, [R < 0] dV/dr) of the certificate."""
    return np.stack([np.where(R < 0, -R, 0.0) * dens, (R < 0) * dens], -1)


def far_table(metric, fit, sign):
    """A corner piece's FarTable; sign -1 reverses the outer piece."""
    R = scalar_curvature(metric)
    moved = np.max(np.abs(fit(metric.grid.r)
                          - np.stack([metric.A, metric.B], axis=-1)), axis=-1)
    r, y, R, moved = (v[::sign] for v in (
        metric.grid.r, negative_parts(R, metric.volume_density()), R, moved))
    seg = np.abs(np.diff(r))[:, None] * (y[1:] + y[:-1]) / 2.0
    return FarTable(sign * r, r, y,
                    np.cumsum(np.vstack([np.zeros((2, 2)), seg]), axis=0),
                    np.minimum.accumulate(np.r_[np.inf, R]),
                    np.maximum.accumulate(np.r_[0.0, moved]))
