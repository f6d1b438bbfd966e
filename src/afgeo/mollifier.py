"""The corner certificate's sigma-free tables.  The mollifier's are functions
of the scaled radius s = (r - r0) / sigma alone: the normalized bump of
half-width 1/2 and its split 16-point Gauss-Legendre rule, the cutoff chi of
the collar -1 < s < 1 and the operator of the certificate's fixed collar,
shipped as COLLAR_OPERATOR; `corner` scales them by sigma, and a new rule
replaces `conv_nodes` here and regenerates COLLAR_OPERATOR.  A corner
piece's FarTable holds the certificate's running sums over its nodes."""

import os
from functools import cache
from math import perm
from typing import NamedTuple

import numpy as np

from .curvature import scalar_curvature
from .grid import smoothstep

COLLAR_S = np.linspace(-1.0, 1.0, 4001)  # certificate collar, in sigma
COLLAR_OPERATOR = os.path.join(os.path.dirname(__file__), "collar_operator.npy")
REGENERATE = "PYTHONPATH=src python tests/test_corner.py"


@cache
def gauss_legendre():
    """16-point Gauss-Legendre rule on [-1, 1], built on first use (Golub-Welsch:
    the eigenvalues of the Jacobi matrix, one Newton step on the three-term
    recurrence, weights 2 / ((1 - z^2) P_n'(z)^2))."""
    n = 16

    def legendre(z):
        p0, p1 = np.ones_like(z), z
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
        return p1, n * (z * p1 - p0) / (z * z - 1)  # P_n, P_n'

    k = np.arange(1.0, n)
    z = np.linalg.eigvalsh(np.diag(k / np.sqrt(4 * k * k - 1), -1))
    p, dp = legendre(z)
    z = z - p / dp
    z = (z - z[::-1]) / 2  # the rule is symmetric
    dp = legendre(z)[1]
    return z, 2 / ((1 - z * z) * dp * dp)


def _psi(x):
    """The unnormalized bump exp(-1 / (1 - 4 x^2)) of half-width 1/2."""
    return np.exp(-1.0 / (1.0 - np.clip(2.0 * x, -1 + 1e-14, 1 - 1e-14) ** 2))


def conv_nodes(s):
    """Split Gauss-Legendre rule of the normalized bump of half-width 1/2 at
    kink offsets s: the nodes t on [s, 1/2], their normalized weights and the
    bump density at s, for the exact jump term.  Nodes on [-1/2, s] would sit
    at r - sigma t >= r0, where the deviation vanishes.  Built node by node,
    once per distinct clip(s, -1/2, 1/2): every s <= -1/2 shares one rule."""
    c, col = np.unique(np.clip(s, -0.5, 0.5), return_inverse=True)
    z, gw = gauss_legendre()
    mid = np.stack([(c - 0.5) / 2, (c + 0.5) / 2])  # [-1/2, c], [c, 1/2]
    half = np.stack([(c + 0.5) / 2, (0.5 - c) / 2])
    t, wt = np.empty((2, len(z), len(s)))
    Z = 0.0  # the weights summed in node order, [-1/2, c] first
    for zi, gi, ti, wi in zip(z, gw, t, wt):
        tp = half * zi + mid
        wp = half * gi * _psi(tp)
        Z = Z + wp[0]
        tp[1].take(col, out=ti, mode="clip")  # "clip": no buffered copy
        wp[1].take(col, out=wi, mode="clip")
    Z = sum(wt, Z[col])
    wt /= Z
    return t, wt, _psi(s) / Z  # dens exactly 0 for |s| >= 1/2


def blend(s):
    """[chi, chi', chi''] of the cutoff chi: 1 on |s| <= 1/2, 0 on |s| >= 1,
    a quintic smoothstep between; in r, the k-th is divided by sigma^k."""
    x = np.clip(2.0 * np.abs(s) - 1.0, 0.0, 1.0)
    return [1.0 - smoothstep(x), -60.0 * np.sign(s) * x ** 2 * (1 - x) ** 2,
            -240.0 * x * (1 - x) * (1 - 2 * x)]


def in_collar(s):
    """-1 < s < 1/2, where the mollifier moves the fields."""
    return (s > -1.0) & (s < 0.5)


def collar(s):
    """The mollifier's tables at scaled radii s = (r - r0) / sigma: the
    indices of the collar `in_collar`, `conv_nodes` and `blend` there.  In r
    the nodes are sigma t, the density dens / sigma."""
    at = np.flatnonzero(in_collar(s))
    return at, *conv_nodes(s[at]), [chi[:, None] for chi in blend(s[at])]


# POWER_DERIV[p] @ c: the coefficients of the p-th derivative of
# sum_q c_q s^q, q = 0..5 (c_q moves to power q - p, times perm(q, p))
POWER_DERIV = [np.diag([perm(q, p) for q in range(p, 6)], p) for p in range(3)]


@cache
def certificate_collar():
    """The tables on COLLAR_S, loaded once per process and shared, read-only,
    by every sigma and every corner: the collar slice, the powers s^m and
    the (3, N, 7) operator H as COLLAR_OPERATOR ships it.  Where D is one
    polynomial sum_q d_q (r - r0)^q, the collar adds H_k @ [d_q sigma^q;
    jump sigma^(k-1)] / sigma^k to the k-th derivative at r0 + sigma s: the
    blend derivatives times the moments G_m(s) = sum_i w_i (s - t_i)^m -
    s^m [s <= 0], m = 0..5, by Leibniz' rule, plus the bump-density jump."""
    i = np.flatnonzero(in_collar(COLLAR_S))
    try:
        H = np.load(COLLAR_OPERATOR, allow_pickle=False)
        if H.shape != (3, len(i), 7) or H.dtype != float:
            raise ValueError(f"{H.dtype} {H.shape}, not float64 "
                             f"(3, {len(i)}, 7) for COLLAR_S")
    except (OSError, ValueError) as err:
        raise RuntimeError(f"bad collar operator table {COLLAR_OPERATOR}: "
                           f"{err}; regenerate it with `{REGENERATE}`") from err
    powers = np.vander(COLLAR_S, 6, True)
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
