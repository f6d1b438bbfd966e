"""General-formula oracles for the radial closed forms.

Everything here works on the Cartesian embedding
g_ij(x) = B(|x|) delta_ij + (A - B)(|x|) x_i x_j / |x|^2.
The pointwise oracles read A, B through splines and take derivatives by
centered 5-point finite differences, at every point of an array at once;
the tensor flow equation at the end takes the grid's radial stencils and
evaluates the full tensor expression at every node.  Used to lock in the
closed-form reductions, never in inner loops.
"""

from functools import cache

import numpy as np

from .grid import interp_spline, sphere_area
from .metrics import RadialMetric


def unit_direction(n, seed=0):
    """Deterministic pseudo-random unit vector, away from coordinate axes."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _diff5(fun, x):
    """[..., k, ...] = d fun / d x^k at the points x (..., n) by centered
    5-point differences of step h = 0.01 max(1, 0.1 |x|) at each point."""
    h = 0.01 * np.maximum(1.0, 0.1 * np.linalg.norm(x, axis=-1))
    steps = h[..., None, None] * np.eye(x.shape[-1])  # (..., k, n)

    def f(s):
        return fun(x[..., None, :] + s * steps)

    d = -f(2) + 8 * f(1) - 8 * f(-1) + f(-2)
    return d / (12 * h).reshape(h.shape + (1,) * (d.ndim - h.ndim))


def _lower(dg):
    """Gamma_{lij} = (d_i g_lj + d_j g_li - d_l g_ij) / 2 from dg[..., k, i, j]."""
    return 0.5 * (np.einsum("...ilj->...lij", dg)
                  + np.einsum("...jli->...lij", dg) - dg)


def _points(n, r, direction):
    """The points r * direction, (*shape(r), n)."""
    return np.multiply.outer(r, unit_direction(n) if direction is None
                             else np.asarray(direction, dtype=float))


class CartesianMetric:
    """Radial metric evaluated as a full Cartesian tensor field at points x
    of shape (..., n); tensor indices follow the point axes."""

    def __init__(self, metric):
        self.n = metric.n
        # quintic spline of (A, B): second derivatives stay O(dr^4) accurate
        self._AB = interp_spline(
            metric.grid.r, np.stack([metric.A, metric.B], -1), k=5)

    def g(self, x):
        r = np.linalg.norm(x, axis=-1)[..., None, None]
        A, B = np.moveaxis(self._AB(r), -1, 0)
        xx = np.einsum("...i,...j->...ij", x, x)
        return B * np.eye(self.n) + (A - B) * xx / r ** 2

    def dg(self, x):
        """dg[..., k, i, j] = d g_ij / d x^k, 5-point centered differences."""
        return _diff5(self.g, x)

    def christoffel(self, x):
        """Gamma[..., k, i, j] = Gamma^k_ij."""
        return np.einsum("...kl,...lij->...kij", np.linalg.inv(self.g(x)),
                         _lower(self.dg(x)))

    def ricci(self, x):
        """Ricci tensor by nested finite differences of the Christoffel symbols."""
        # dGamma[..., c, k, i, j] = d_c Gamma^k_ij
        dGamma = _diff5(self.christoffel, x)
        G = self.christoffel(x)
        # Riem^a_{bcd} = d_c Gamma^a_db - d_d Gamma^a_cb + G^a_ce G^e_db - G^a_de G^e_cb
        riem = (np.einsum("...cadb->...abcd", dGamma)
                - np.einsum("...dacb->...abcd", dGamma)
                + np.einsum("...ace,...edb->...abcd", G, G)
                - np.einsum("...ade,...ecb->...abcd", G, G))
        return np.einsum("...abad->...bd", riem)


# The point oracles take a radius or an array of radii r and evaluate at
# r * direction; the result has the shape of r.

def scalar_curvature_oracle(metric, r, direction=None):
    """R at radius r from the full Cartesian formula (Christoffels + contractions)."""
    cm = CartesianMetric(metric)
    x = _points(metric.n, r, direction)
    return np.einsum("...ij,...ij->...", np.linalg.inv(cm.g(x)), cm.ricci(x))


def ricci_norm_sq_oracle(metric, r, direction=None):
    cm = CartesianMetric(metric)
    x = _points(metric.n, r, direction)
    ric = cm.ricci(x)
    ginv = np.linalg.inv(cm.g(x))
    return np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, ric, ric)


def mean_curvature_oracle(metric, r, direction=None):
    """H of the sphere |x| = r via the divergence of the unit normal."""
    cm = CartesianMetric(metric)
    x = _points(metric.n, r, direction)

    def nu_cov(y):
        N = y / np.linalg.norm(y, axis=-1)[..., None]
        ginv = np.linalg.inv(cm.g(y))
        norm = np.sqrt(np.einsum("...ij,...i,...j->...", ginv, N, N))
        return N / norm[..., None]

    dnu = _diff5(nu_cov, x)  # [..., i, j] = d_i nu_j
    nu = nu_cov(x)
    ginv = np.linalg.inv(cm.g(x))
    nuup = np.einsum("...ij,...j->...i", ginv, nu)
    proj = ginv - np.einsum("...i,...j->...ij", nuup, nuup)
    cov = dnu - np.einsum("...kij,...k->...ij", cm.christoffel(x), nu)
    return np.einsum("...ij,...ij->...", proj, cov)


def deturck_vector_oracle(g_metric, h_metric, r, direction=None):
    """Contravariant radial component of W^k = g^{pq}(Gamma^k_pq - Gamma~^k_pq)."""
    cg, ch = CartesianMetric(g_metric), CartesianMetric(h_metric)
    x = _points(g_metric.n, r, direction)
    W = np.einsum("...pq,...kpq->...k", np.linalg.inv(cg.g(x)),
                  cg.christoffel(x) - ch.christoffel(x))
    return np.einsum("...k,...k->...", W, x) / np.linalg.norm(x, axis=-1)


def _flux_integrand(cm, x):
    """(g_ij,j - g_jj,i) xhat_i at the points x."""
    dg = cm.dg(x)
    vec = np.einsum("...jij->...i", dg) - np.einsum("...ijj->...i", dg)
    return np.einsum("...i,...i->...", vec, x) / np.linalg.norm(x, axis=-1)


def flux_quadrature(metric, r, npoints=12000):
    """Brute-force surface quadrature of the mass flux integrand over |x| = r
    (a radius or an array of radii).

    n = 3 uses a latitude-longitude product grid with >= npoints nodes;
    higher dimensions exploit rotational symmetry by averaging the constant
    integrand over a handful of directions.
    """
    n = metric.n
    if n == 3:
        # Gauss-Legendre in cos(theta) x uniform phi (trapezoid, exact for periodic)
        nth = max(8, int(np.sqrt(npoints / 2.0)))
        nph = 2 * nth
        u, wu = np.polynomial.legendre.leggauss(nth)
        ph = (np.arange(nph) + 0.5) * 2.0 * np.pi / nph
        s = np.sqrt(1.0 - u * u)[:, None]
        dirs = np.stack(np.broadcast_arrays(s * np.cos(ph), s * np.sin(ph),
                                            u[:, None]), axis=-1).reshape(-1, 3)
        w = np.repeat(wu, nph) * (2.0 * np.pi / nph)
    else:
        dirs = np.array([unit_direction(n, 3 + k) for k in range(6)])
        w = np.full(6, sphere_area(n) / 6)
    vals = _flux_integrand(CartesianMetric(metric), np.multiply.outer(r, dirs))
    return vals @ w * np.power(r, n - 1)


# -- the full tensor flow equation at the axis point x = r e1 -----------------
# Radial tensors there are combinations of delta_ab, the axis projector and 1/r
# factors; no warped-product reduction is used, unlike flow.py.

@cache
def _idx(n):
    I = np.eye(n)
    e = np.zeros(n)
    e[0] = 1.0
    E = np.outer(e, e)
    # U1[c,a,b] * r = d_c (x_a x_b / r^2) at x = r e1
    U1 = (np.einsum("ca,b->cab", I, e) + np.einsum("cb,a->cab", I, e)
          - 2.0 * np.einsum("c,a,b->cab", e, e, e))
    # U2[d,c,a,b] * r^2 = d_d d_c (x_a x_b / r^2) at x = r e1
    U2 = (np.einsum("ca,db->dcab", I, I) + np.einsum("cb,da->dcab", I, I)
          - 2.0 * np.einsum("d,ca,b->dcab", e, I, e)
          - 2.0 * np.einsum("d,cb,a->dcab", e, I, e)
          - 2.0 * (np.einsum("da,b,c->dcab", I, e, e)
                   + np.einsum("db,a,c->dcab", I, e, e)
                   + np.einsum("dc,a,b->dcab", I, e, e))
          + 8.0 * np.einsum("d,c,a,b->dcab", e, e, e, e))
    return {"I": I, "e": e, "E": E, "U1": U1, "U2": U2,
            "dI": np.einsum("c,ab->cab", e, I),
            "dE": np.einsum("c,ab->cab", e, E),
            "Icd_I": np.einsum("dc,ab->dcab", I, I),
            "ee_I": np.einsum("d,c,ab->dcab", e, e, I),
            "Icd_E": np.einsum("dc,ab->dcab", I, E),
            "ee_E": np.einsum("d,c,ab->dcab", e, e, E),
            "eU1": np.einsum("c,dab->cdab", e, U1)}


def _sym_fields(n, r, beta, gamma, d1b, d1g, d2b=None, d2g=None):
    """Value / first / second Cartesian derivatives of the symmetric field
    S_ab = beta(r) delta_ab + gamma(r) x_a x_b / r^2 at the point r e1.

    Returns (S, DS, DDS) with DS[c,a,b] = d_c S_ab, DDS[d,c,a,b]; the second
    derivative block is skipped when d2b is None.
    """
    ix = _idx(n)
    S = beta[:, None, None] * ix["I"] + gamma[:, None, None] * ix["E"]
    DS = (d1b[:, None, None, None] * ix["dI"]
          + d1g[:, None, None, None] * ix["dE"]
          + (gamma / r)[:, None, None, None] * ix["U1"])
    if d2b is None:
        return S, DS, None
    sh = (slice(None), None, None, None, None)
    DDS = (d2b[sh] * ix["ee_I"] + (d1b / r)[sh] * (ix["Icd_I"] - ix["ee_I"])
           + d2g[sh] * ix["ee_E"] + (d1g / r)[sh] * (ix["Icd_E"] - ix["ee_E"])
           + (d1g / r)[sh] * (ix["eU1"]
                              + np.einsum("cdab->dcab", ix["eU1"]))
           + (gamma / r ** 2)[sh] * ix["U2"])
    return S, DS, DDS


def _metric_point(metric, second=False):
    """(m, minv, Dm, DDm) of a RadialMetric at the axis points."""
    grid = metric.grid
    r = grid.r
    A, B = metric.A, metric.B
    d = grid.deriv
    dA, dB = d(A, 1, parity=True), d(B, 1, parity=True)
    if second:
        ddA, ddB = d(A, 2, parity=True), d(B, 2, parity=True)
        m, Dm, DDm = _sym_fields(metric.n, r, B, A - B, dB, dA - dB,
                                 ddB, ddA - ddB)
    else:
        m, Dm, DDm = _sym_fields(metric.n, r, B, A - B, dB, dA - dB)
    ix = _idx(metric.n)
    minv = (1.0 / B)[:, None, None] * ix["I"] \
        + (1.0 / A - 1.0 / B)[:, None, None] * ix["E"]
    return m, minv, Dm, DDm


def _christoffel(minv, Dm):
    return np.einsum("Nkl,Nlab->Nkab", minv, _lower(Dm))


def _dchristoffel(minv, Dm, DDm):
    """DG[d,k,a,b] = d_d Gamma^k_ab."""
    dminv = -np.einsum("Nka,Nlb,Ndab->Ndkl", minv, minv, Dm)
    return (np.einsum("Ndkl,Nlab->Ndkab", dminv, _lower(Dm))
            + np.einsum("Nkl,Ndlab->Ndkab", minv, _lower(DDm)))


def _riemann_lower(m, G, DG):
    """R[a,b,c,d] = m_ae (d_c G^e_db - d_d G^e_cb + G^e_cf G^f_db - G^e_df G^f_cb)."""
    up = (np.einsum("Ncedb->Nebcd", DG) - np.einsum("Ndecb->Nebcd", DG)
          + np.einsum("Necf,Nfdb->Nebcd", G, G)
          - np.einsum("Nedf,Nfcb->Nebcd", G, G))
    return np.einsum("Nae,Nebcd->Nabcd", m, up)


def tensor_deturck_vector(g, h):
    """Radial contravariant component of W^k = g^{pq}(Gamma^k_pq - Gamma~^k_pq)."""
    if g.grid is not h.grid and not np.array_equal(g.grid.r, h.grid.r):
        raise ValueError("metrics must share a grid")
    _, ginv, Dg, _ = _metric_point(g)
    _, hinv, Dh, _ = _metric_point(h)
    Gg = _christoffel(ginv, Dg)
    Gh = _christoffel(hinv, Dh)
    W = np.einsum("Npq,Nkpq->Nk", ginv, Gg - Gh)
    return W[:, 0]


def tensor_eta_rhs(h, eta_A, eta_B):
    """Time derivative of (eta_A, eta_B) under the background-gauged flow,
    at every node (no boundary nodes are frozen).

    Full tensor right-hand side: g^{cd} nabla_c nabla_d eta_ab, the two
    curvature terms of the background, and the quadratic gradient terms with
    coefficients (1/2)(1, +2, -2, -4); nabla is the h-connection.
    """
    grid = h.grid
    n = h.n
    r = grid.r
    g_metric = RadialMetric(grid, n, h.A + eta_A, h.B + eta_B, h.delta)
    hm, hinv, Dh, DDh = _metric_point(h, second=True)
    Gh = _christoffel(hinv, Dh)
    DGh = _dchristoffel(hinv, Dh, DDh)
    Rh = _riemann_lower(hm, Gh, DGh)

    gm, ginv, _, _ = _metric_point(g_metric)

    db = grid.deriv(eta_B, 1, parity=True)
    dg_ = grid.deriv(eta_A - eta_B, 1, parity=True)
    ddb = grid.deriv(eta_B, 2, parity=True)
    ddg = grid.deriv(eta_A - eta_B, 2, parity=True)
    eta, Deta, DDeta = _sym_fields(n, r, eta_B, eta_A - eta_B, db, dg_, ddb, ddg)

    # first and second h-covariant derivatives of eta
    C = (Deta - np.einsum("Neca,Neb->Ncab", Gh, eta)
         - np.einsum("Necb,Nae->Ncab", Gh, eta))
    DC = (DDeta
          - np.einsum("Ndeca,Neb->Ndcab", DGh, eta)
          - np.einsum("Neca,Ndeb->Ndcab", Gh, Deta)
          - np.einsum("Ndecb,Nae->Ndcab", DGh, eta)
          - np.einsum("Necb,Ndae->Ndcab", Gh, Deta))
    CC = (DC - np.einsum("Nedc,Neab->Ndcab", Gh, C)
          - np.einsum("Neda,Nceb->Ndcab", Gh, C)
          - np.einsum("Nedb,Ncae->Ndcab", Gh, C))

    lap = np.einsum("Ncd,Ndcab->Nab", ginv, CC)
    curv = np.einsum("Ncd,Nap,Npq,Nbcqd->Nab", ginv, gm, hinv, Rh)
    curv = curv + np.einsum("Nab->Nba", curv)
    quad = 0.5 * (np.einsum("Ncd,Npq,Napc,Nbqd->Nab", ginv, ginv, C, C)
                  + 2.0 * np.einsum("Ncd,Npq,Ncap,Nqbd->Nab", ginv, ginv, C, C)
                  - 2.0 * np.einsum("Ncd,Npq,Ncap,Ndbq->Nab", ginv, ginv, C, C)
                  - 4.0 * np.einsum("Ncd,Npq,Napc,Ndbq->Nab", ginv, ginv, C, C))
    rhs = lap - curv + quad
    return rhs[:, 0, 0].copy(), rhs[:, 1, 1].copy()
