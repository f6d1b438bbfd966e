"""General-formula oracles for the radial closed forms.

Everything here works on the Cartesian embedding
g_ij(x) = B(|x|) delta_ij + (A - B)(|x|) x_i x_j / |x|^2.
The pointwise oracles read A, B through splines and take derivatives by
centered 5-point finite differences; the tensor flow equation at the end
takes the grid's radial stencils and evaluates the full tensor expression
node by node.  Slow by construction; used to lock in the closed-form
reductions, never in inner loops.
"""

import numpy as np
from scipy.interpolate import make_interp_spline

from .grid import sphere_area
from .metrics import RadialMetric


def unit_direction(n, seed=0):
    """Deterministic pseudo-random unit vector, away from coordinate axes."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _diff5(fun, x, h):
    """[k] = d fun / d x^k at x by centered 5-point differences of step h."""
    return np.array([(-fun(x + 2 * h * e) + 8 * fun(x + h * e)
                      - 8 * fun(x - h * e) + fun(x - 2 * h * e)) / (12 * h)
                     for e in np.eye(len(x))])


class CartesianMetric:
    """Radial metric evaluated as a full Cartesian tensor field."""

    def __init__(self, metric):
        self.n = metric.n
        r = metric.grid.r
        # quintic splines: second derivatives stay O(dr^4) accurate
        self._A = make_interp_spline(r, metric.A, k=5)
        self._B = make_interp_spline(r, metric.B, k=5)
        self.r_lo = r[0]
        self.r_hi = r[-1]

    def g(self, x):
        r = np.linalg.norm(x)
        A = self._A(r)
        B = self._B(r)
        out = B * np.eye(self.n)
        out += (A - B) * np.outer(x, x) / r ** 2
        return out

    def step(self, x):
        return 0.01 * max(1.0, 0.1 * np.linalg.norm(x))

    def dg(self, x, h=None):
        """dg[k, i, j] = d g_ij / d x^k, 5-point centered differences."""
        return _diff5(self.g, x, h or self.step(x))

    def christoffel(self, x, h=None):
        """Gamma[k, i, j] = Gamma^k_ij."""
        low = self.christoffel_lower(x, h)
        return np.einsum("kl,lij->kij", np.linalg.inv(self.g(x)), low)

    def christoffel_lower(self, x, h=None):
        """Gamma_{lij} = (d_i g_lj + d_j g_li - d_l g_ij) / 2."""
        dg = self.dg(x, h)
        return 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg)
                      - np.einsum("lij->lij", dg))

    def ricci(self, x, h=None):
        """Ricci tensor by nested finite differences of the Christoffel symbols."""
        h = h or self.step(x)
        # dGamma[c, k, i, j] = d_c Gamma^k_ij
        dGamma = _diff5(self.christoffel, x, h)
        G = self.christoffel(x, h)
        # Riem^a_{bcd} = d_c Gamma^a_db - d_d Gamma^a_cb + G^a_ce G^e_db - G^a_de G^e_cb
        riem = (np.einsum("cadb->abcd", dGamma) - np.einsum("dacb->abcd", dGamma)
                + np.einsum("ace,edb->abcd", G, G) - np.einsum("ade,ecb->abcd", G, G))
        return np.einsum("abad->bd", riem)


def scalar_curvature_oracle(metric, r, direction=None):
    """R at radius r from the full Cartesian formula (Christoffels + contractions)."""
    cm = CartesianMetric(metric)
    x = r * (direction if direction is not None else unit_direction(metric.n))
    ric = cm.ricci(x)
    return float(np.einsum("ij,ij->", np.linalg.inv(cm.g(x)), ric))


def ricci_norm_sq_oracle(metric, r, direction=None):
    cm = CartesianMetric(metric)
    x = r * (direction if direction is not None else unit_direction(metric.n))
    ric = cm.ricci(x)
    ginv = np.linalg.inv(cm.g(x))
    return float(np.einsum("ik,jl,ij,kl->", ginv, ginv, ric, ric))


def mean_curvature_oracle(metric, r, direction=None):
    """H of the sphere |x| = r via the divergence of the unit normal."""
    cm = CartesianMetric(metric)
    n = metric.n
    x = r * (direction if direction is not None else unit_direction(n))

    def nu_cov(y):
        N = y / np.linalg.norm(y)
        ginv = np.linalg.inv(cm.g(y))
        norm = np.sqrt(ginv @ N @ N)
        return N / norm

    dnu = _diff5(nu_cov, x, cm.step(x))  # [i, j] = d_i nu_j
    G = cm.christoffel(x)
    nu = nu_cov(x)
    ginv = np.linalg.inv(cm.g(x))
    nuup = ginv @ nu
    proj = ginv - np.outer(nuup, nuup)
    cov = dnu - np.einsum("kij,k->ij", G, nu)
    return float(np.einsum("ij,ij->", proj, cov))


def deturck_vector_oracle(g_metric, h_metric, r, direction=None):
    """Contravariant radial component of W^k = g^{pq}(Gamma^k_pq - Gamma~^k_pq)."""
    cg = CartesianMetric(g_metric)
    ch = CartesianMetric(h_metric)
    x = r * (direction if direction is not None else unit_direction(g_metric.n))
    ginv = np.linalg.inv(cg.g(x))
    Vg = np.einsum("pq,kpq->k", ginv, cg.christoffel(x))
    Vh = np.einsum("pq,kpq->k", ginv, ch.christoffel(x))
    return float((Vg - Vh) @ (x / np.linalg.norm(x)))


def flux_integrand(metric, r, direction):
    """(g_ij,j - g_jj,i) xhat_i at the point r * direction."""
    cm = CartesianMetric(metric)
    x = r * np.asarray(direction, dtype=float)
    dg = cm.dg(x)
    vec = np.einsum("jij->i", dg) - np.einsum("ijj->i", dg)
    return float(vec @ (x / np.linalg.norm(x)))


def flux_quadrature(metric, r, npoints=12000, seed=3):
    """Brute-force surface quadrature of the mass flux integrand over |x| = r.

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
        cm = CartesianMetric(metric)
        total = 0.0
        for uu, w in zip(u, wu):
            s = np.sqrt(1.0 - uu * uu)
            for p in ph:
                d = np.array([s * np.cos(p), s * np.sin(p), uu])
                x = r * d
                dg = cm.dg(x)
                vec = np.einsum("jij->i", dg) - np.einsum("ijj->i", dg)
                total += w * float(vec @ d)
        total *= (2.0 * np.pi / nph) * r ** 2
        return total
    vals = [flux_integrand(metric, r, unit_direction(n, seed + k)) for k in range(6)]
    return float(np.mean(vals)) * sphere_area(n) * r ** (n - 1)


def mass_correction_density(metric, r, direction=None, cm=None):
    """Integrand (per metric volume) of the two correction terms in the
    integrated scalar-curvature identity: g^{ij}Gamma_i d_j log|g| / 2 minus
    the triple-Christoffel contraction."""
    cm = cm or CartesianMetric(metric)
    x = r * (direction if direction is not None else unit_direction(metric.n))
    g = cm.g(x)
    ginv = np.linalg.inv(g)
    low = cm.christoffel_lower(x)
    Gam = np.einsum("pq,jpq->j", ginv, low)
    dg = cm.dg(x)
    dlog = np.einsum("pq,jpq->j", ginv, dg)
    X = float(ginv @ Gam @ dlog)
    Y = float(np.einsum("ij,kl,pq,ikp,jql->", ginv, ginv, ginv, low, low))
    return 0.5 * X - Y


# -- the full tensor flow equation at the axis point x = r e1 -----------------
# Radial tensors there are combinations of delta_ab, the axis projector and 1/r
# factors; no warped-product reduction is used, unlike flow.py.

_IDX_CACHE = {}


def _idx(n):
    if n in _IDX_CACHE:
        return _IDX_CACHE[n]
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
    out = {"I": I, "e": e, "E": E, "U1": U1, "U2": U2,
           "dI": np.einsum("c,ab->cab", e, I),
           "dE": np.einsum("c,ab->cab", e, E),
           "Icd_I": np.einsum("dc,ab->dcab", I, I),
           "ee_I": np.einsum("d,c,ab->dcab", e, e, I),
           "Icd_E": np.einsum("dc,ab->dcab", I, E),
           "ee_E": np.einsum("d,c,ab->dcab", e, e, E),
           "eU1": np.einsum("c,dab->cdab", e, U1)}
    _IDX_CACHE[n] = out
    return out


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
    low = 0.5 * (np.einsum("Nalb->Nlab", Dm) + np.einsum("Nbla->Nlab", Dm)
                 - Dm)
    return np.einsum("Nkl,Nlab->Nkab", minv, low)


def _dchristoffel(minv, Dm, DDm):
    """DG[d,k,a,b] = d_d Gamma^k_ab."""
    dminv = -np.einsum("Nka,Nlb,Ndab->Ndkl", minv, minv, Dm)
    low = 0.5 * (np.einsum("Nalb->Nlab", Dm) + np.einsum("Nbla->Nlab", Dm)
                 - Dm)
    dlow = 0.5 * (np.einsum("Ndalb->Ndlab", DDm) + np.einsum("Ndbla->Ndlab", DDm)
                  - DDm)
    return (np.einsum("Ndkl,Nlab->Ndkab", dminv, low)
            + np.einsum("Nkl,Ndlab->Ndkab", minv, dlow))


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
