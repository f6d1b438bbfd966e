"""The mollifier's sigma-free tables, functions of the scaled radius
s = (r - r0) / sigma alone: the normalized bump of half-width 1/2 and its
split 16-point Gauss-Legendre rule, the cutoff chi of the collar
-1 < s < 1 and the moment tables of the corner certificate's fixed collar.
`corner` scales them by sigma; a new quadrature rule replaces `conv_nodes`
here and nothing else.
"""

from functools import cache
from math import comb, perm

import numpy as np

from .grid import smoothstep

COLLAR_S = np.linspace(-1.0, 1.0, 4001)  # certificate collar, in sigma


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


def conv_nodes(s):
    """Split Gauss-Legendre rule of the normalized bump of half-width 1/2 at
    kink offsets s: the nodes t on [s, 1/2], their normalized weights and the
    bump density at s, for the exact jump term.  Nodes on [-1/2, s] would sit
    at r - sigma t >= r0, where the deviation vanishes."""
    c = np.clip(s, -0.5, 0.5)
    z, gw = gauss_legendre()
    mid = np.stack([(c - 0.5) / 2, (c + 0.5) / 2])[:, None]  # [-1/2, c], [c, 1/2]
    half = np.stack([(c + 0.5) / 2, (0.5 - c) / 2])[:, None]
    t = (mid + half * z[:, None]).reshape(2 * len(z), len(s))
    jac = (half * gw[:, None]).reshape(t.shape)

    def psi(x):
        u = np.clip(2.0 * x, -1 + 1e-14, 1 - 1e-14)
        return np.exp(-1.0 / (1.0 - u ** 2))

    wt = jac * psi(t)
    Z = np.sum(wt, axis=0)
    dens = psi(s) / Z  # exactly 0 for |s| >= 1/2
    return t[len(z):], wt[len(z):] / Z, dens


def blend(s):
    """[chi, chi', chi''] of the cutoff chi: 1 on |s| <= 1/2, 0 on |s| >= 1,
    a quintic smoothstep between; in r, the k-th is divided by sigma^k."""
    x = np.clip(2.0 * np.abs(s) - 1.0, 0.0, 1.0)
    return [1.0 - smoothstep(x), -60.0 * np.sign(s) * x ** 2 * (1 - x) ** 2,
            -240.0 * x * (1 - x) * (1 - 2 * x)]


def collar(s):
    """The mollifier's tables at scaled radii s = (r - r0) / sigma: the
    collar -1 < s < 1/2 (a slice when contiguous), `conv_nodes` and `blend`
    there.  In r the nodes are sigma t, the density dens / sigma."""
    at = np.flatnonzero((s > -1.0) & (s < 0.5))
    if at.size and at[-1] - at[0] == at.size - 1:
        at = slice(at[0], at[-1] + 1)
    return at, *conv_nodes(s[at]), [chi[:, None] for chi in blend(s[at])]


# POWER_DERIV[p] @ c: the coefficients of the p-th derivative of
# sum_q c_q s^q, q = 0..5 (c_q moves to power q - p, times perm(q, p))
POWER_DERIV = [np.diag([perm(q, p) for q in range(p, 6)], p) for p in range(3)]


@cache
def certificate_collar():
    """The tables on COLLAR_S, built once per process and shared by every
    sigma and every corner; no caller writes to them: the collar slice, the
    powers s^m and H_k, k = 0, 1, 2.  Where D is one polynomial
    sum_q d_q (r - r0)^q, the collar adds H_k @ [d_q sigma^q; jump
    sigma^(k-1)] / sigma^k to the k-th derivative at r0 + sigma s: the blend
    derivatives times the moments G_m(s) = sum_i w_i (s - t_i)^m
    - s^m [s <= 0], m = 0..5, by Leibniz' rule, and the bump-density jump
    term.  G comes from running products; the blend derivatives multiply the
    roundoff of G_0 and G_1 by up to 1 / sigma, so these two are summed in
    np.longdouble."""
    at, t, wt, dens, chi = collar(COLLAR_S)
    x = COLLAR_S[at].astype(np.longdouble)
    term, u, sm, G = wt.astype(x.dtype), x - t, (x <= 0).astype(x.dtype), []
    for m in range(6):
        G.append(term.sum(axis=0) - sm)
        if m == 1:
            term, u, sm, x = (v.astype(float) for v in (term, u, sm, x))
        term *= u
        sm *= x
    G, H = np.stack(G, axis=1).astype(float), []
    for k in range(3):
        conv = sum(comb(k, j) * chi[j] * G @ POWER_DERIV[k - j]
                   for j in range(k + 1))
        H.append(np.hstack([conv, (k == 2) * chi[0] * dens[:, None]]))
    return at, np.vander(COLLAR_S, 6, True), H
