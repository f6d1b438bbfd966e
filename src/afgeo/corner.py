"""Corner (Lipschitz) radial metrics across a sphere r = r0 and their smoothing.

A corner metric is continuous with a possible jump in the first radial
derivatives at r0.  The mean-curvature comparison H(-) >= H(+) across the
interface decides whether the distributional scalar curvature is nonnegative
there; mollification turns a valid corner into a smooth metric whose negative
scalar-curvature mass can be certified small.
"""

import io
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np
from scipy.interpolate import PPoly, make_interp_spline
from scipy.optimize import brentq

from .grid import RadialGrid, smoothstep, sphere_area
from .metrics import RadialMetric
from .curvature import (mean_curvature_sphere, scalar_curvature,
                        scalar_curvature_pointwise)

CONT_TOL = 1e-12


class CornerFits(NamedTuple):
    inner: PPoly         # (A, B) on the inner piece, trailing field axis
    outer: PPoly         # (A, B) on the outer piece
    dev: PPoly           # D = inner - outer's first piece; 0 for r > r0
    jump: np.ndarray     # (A', B') jump across r0, outer minus inner


def _quintic(m):
    """Quintic interpolant of (A, B) on one piece, in Horner form, with the
    zero-length intervals of the knot vector dropped."""
    pps = [PPoly.from_spline(make_interp_spline(m.grid.r, v, k=5))
           for v in (m.A, m.B)]
    keep = np.diff(pps[0].x) > 0
    return PPoly(np.stack([p.c[:, keep] for p in pps], axis=-1),
                 np.append(pps[0].x[:-1][keep], pps[0].x[-1]))


def _shift(c, h):
    """PPoly coefficients c (highest power first, in powers of x - a)
    re-expanded in powers of x - (a + h)."""
    k = len(c) - 1
    return np.array([sum(comb(q, p) * h ** (q - p) * c[k - q]
                         for q in range(p, k + 1)) for p in range(k, -1, -1)])


def _deviation(inner, outer, r0, r_hi):
    """D = inner - (outer's first piece continued inward), zero on (r0, r_hi].

    Convolving D rather than the field removes the O(f'') smoothing bias of
    the blend zone.  The breakpoints descend, so scipy expands every piece
    about its right end: next to r0, D is its Taylor form about r0, a sum of
    small terms rather than the difference of two O(1) values.
    """
    b = inner.x[1:, None]  # right end of each inner piece
    d = (_shift(inner.c, b - inner.x[:-1, None])
         - _shift(outer.c[:, :1], b - r0))
    c = np.concatenate([np.zeros_like(d[:, :1]), d[:, ::-1]], axis=1)
    return PPoly(c, np.append(r_hi, inner.x[::-1]))


@dataclass
class CornerMetric:
    inner: RadialMetric   # on [r_lo, r0], last node exactly at r0
    outer: RadialMetric   # on [r0, r_max], first node exactly at r0
    r0: float
    n: int
    delta: float

    def __post_init__(self):
        ri = self.inner.grid.r
        ro = self.outer.grid.r
        if abs(ri[-1] - self.r0) > CONT_TOL or abs(ro[0] - self.r0) > CONT_TOL:
            raise ValueError("pieces must meet exactly at r0")
        if self.inner.n != self.n or self.outer.n != self.n:
            raise ValueError("dimension mismatch between pieces")
        if (abs(self.inner.A[-1] - self.outer.A[0]) > CONT_TOL
                or abs(self.inner.B[-1] - self.outer.B[0]) > CONT_TOL):
            raise ValueError("metric discontinuous at r0")

    def combined(self):
        """Single RadialMetric on the union grid (r0 kept once)."""
        r = np.concatenate([self.inner.grid.r, self.outer.grid.r[1:]])
        A = np.concatenate([self.inner.A, self.outer.A[1:]])
        B = np.concatenate([self.inner.B, self.outer.B[1:]])
        return RadialMetric(RadialGrid(r), self.n, A, B, self.delta)

    # -- file format: two metric blocks split by a `# corner r0=` line ------

    def dump(self, fh):
        self.inner.dump(fh)
        fh.write(f"# corner r0={self.r0:.17g}\n")
        self.outer.dump(fh)

    def dumps(self):
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def load(cls, fh):
        text = fh.read()
        head, sep, tail = text.partition("# corner r0=")
        if not sep:
            raise ValueError("missing corner separator line")
        line, _, rest = tail.partition("\n")
        r0 = float(line)
        inner = RadialMetric.load(io.StringIO(head))
        outer = RadialMetric.load(io.StringIO(rest))
        return cls(inner, outer, r0, inner.n, inner.delta)

    @cached_property
    def fits(self):
        """One-sided fits and the deviation polynomial, built once per corner
        and shared by every collar width."""
        inner, outer = _quintic(self.inner), _quintic(self.outer)
        dev = _deviation(inner, outer, self.r0, self.outer.grid.r[-1])
        return CornerFits(inner, outer, dev, -dev.c[-2, 1])


def make_corner_grid(r_min, r0, r_max, fine_dr=1.0 / 32, fine_until=None,
                     outer_num=256):
    """Grid with a node exactly at r0: uniform spacing fine_dr out to
    fine_until, then geometrically stretched to r_max."""
    if fine_until is None:
        fine_until = 3.0 * r0
    k0 = round((r0 - r_min) / fine_dr)
    if abs(r_min + k0 * fine_dr - r0) > 1e-12 * r0:
        raise ValueError("r0 must sit on the fine lattice")
    m = round((fine_until - r_min) / fine_dr)
    fine = r_min + fine_dr * np.arange(m + 1)
    span = r_max - fine[-1]

    def gap(ratio):
        return fine_dr * (ratio ** (outer_num + 1) - ratio) / (ratio - 1) - span

    hi = 1.5 * (span / fine_dr) ** (1.0 / outer_num)
    ratio = brentq(gap, 1.0 + 1e-12, hi)
    steps = fine_dr * ratio ** np.arange(1, outer_num + 1)
    outer = fine[-1] + np.cumsum(steps)
    outer[-1] = r_max
    return RadialGrid(np.concatenate([fine, outer]))


def split_metric(metric, r0):
    """View a single radial metric as a (trivial) corner at the node r0."""
    i0 = metric.grid.node_at(r0)
    if i0 is None:
        raise ValueError(f"r0={r0} is not a grid node")
    gi = RadialGrid(metric.grid.r[:i0 + 1])
    go = RadialGrid(metric.grid.r[i0:])
    inner = RadialMetric(gi, metric.n, metric.A[:i0 + 1], metric.B[:i0 + 1],
                         metric.delta)
    outer = RadialMetric(go, metric.n, metric.A[i0:], metric.B[i0:], metric.delta)
    return CornerMetric(inner, outer, float(metric.grid.r[i0]), metric.n,
                        metric.delta)


def corner_condition(cm, tol=1e-8):
    """One-sided mean curvatures at the interface and the comparison
    H(-) >= H(+) (outward normal on both sides)."""
    H_minus = mean_curvature_sphere(cm.inner, cm.r0, side="-")
    H_plus = mean_curvature_sphere(cm.outer, cm.r0, side="+")
    return H_minus, H_plus, bool(H_minus >= H_plus - tol)


def corner_example(base, r0, strength):
    """Corner metric from a conformally flat base (n = 3): the outer piece is
    the base itself, the inner piece is conformally flat with factor U chosen
    so that B'(r0-) - B'(r0+) = strength while R >= 0 away from the corner.

    U solves -r^2 U'(r) = q0 * S(r/r0) (S the quintic smoothstep), with U and
    U' matched at r0; q0 >= 0 keeps Delta U <= 0 and hence R >= 0, which caps
    the admissible strength at -4 u(r0)^3 u'(r0) r0 ... see the q0 check below.
    """
    grid = base.grid
    i0 = grid.node_at(r0)
    if i0 is None or i0 < 5 or i0 > grid.num - 6:
        raise ValueError("r0 must be an interior grid node")
    if base.n != 3:
        raise ValueError("corner example implemented for n = 3")
    if np.max(np.abs(base.A - base.B)) > 1e-12:
        raise ValueError("base must be conformally flat (A = B)")

    u = base.B ** 0.25
    du = grid.deriv(u, 1, parity=True)
    u0 = float(u[i0])
    # target inner slope: B' jump of `strength` means U' gains strength/(4 u0^3)
    dU0 = float(du[i0]) + strength / (4.0 * u0 ** 3)
    q0 = -r0 ** 2 * dU0
    if q0 < 0:
        raise ValueError("strength too large: inner factor would lose R >= 0")

    ri = grid.r[:i0 + 1]
    # I(r) = int_r^r0 S(t/r0)/t^2 dt, antiderivative of the quintic in closed form
    F = 5.0 * ri ** 2 / r0 ** 3 - 5.0 * ri ** 3 / r0 ** 4 + 1.5 * ri ** 4 / r0 ** 5
    U = u0 + q0 * (F[-1] - F)
    if np.any(U <= 0):
        raise ValueError("inner conformal factor not positive")
    Ain = U ** 4

    gi = RadialGrid(ri)
    go = RadialGrid(grid.r[i0:])
    inner = RadialMetric(gi, 3, Ain, Ain.copy(), base.delta)
    outer = RadialMetric(go, 3, base.A[i0:], base.B[i0:], base.delta)
    return CornerMetric(inner, outer, float(grid.r[i0]), 3, base.delta)


# -- mollification ----------------------------------------------------------

@dataclass
class SmoothingReport:
    epsilon: float
    sigma: float
    K_measured: float        # inf R over the certificate grid
    neg_part: float          # integral of |R| over {R < 0}
    neg_measure: float       # volume of {R < 0} (reported, not asserted)
    sandwich_lo: float
    sandwich_hi: float
    support_ok: bool
    satisfied: bool

    def lines(self):
        return [f"epsilon={self.epsilon:g}", f"sigma={self.sigma:g}",
                f"K_measured={self.K_measured:.12g}",
                f"neg_part={self.neg_part:.12g}",
                f"neg_measure={self.neg_measure:.12g}",
                f"sandwich_lo={self.sandwich_lo:.12g}",
                f"sandwich_hi={self.sandwich_hi:.12g}",
                f"support_ok={self.support_ok}",
                f"satisfied={self.satisfied}"]


class MollifiedCorner:
    """Smooth evaluation of the mollified corner metric at arbitrary radii.

    Inside a collar of half-width sigma around r0 the fields are replaced by
    their convolution with a normalized bump of half-width sigma/2, blended in
    with a smooth cutoff so that the metric is untouched outside the collar.
    """

    _GL = np.polynomial.legendre.leggauss(16)

    def __init__(self, cm, sigma):
        self.cm = cm
        self.sigma = float(sigma)
        self.r0 = cm.r0

    def _raw(self, x, order=0):
        """One-sided evaluation of the unmollified (A, B), shape (len(x), 2)."""
        x = np.asarray(x, dtype=float)
        f = self.cm.fits
        lo = x <= self.r0
        out = np.empty(x.shape + (2,))
        out[lo] = f.inner(x[lo], order)
        out[~lo] = f.outer(x[~lo], order)
        return out

    def _conv_nodes(self, r):
        """Per-point split Gauss-Legendre rule for the normalized bump.

        Returns (nodes t, normalized weights, normalized bump density at the
        kink offset c = r - r0) so the derivative jump term is exact.  Only
        the nodes on [c, w] are returned: those on [-w, c] sit at r - t >= r0,
        where the deviation vanishes.
        """
        r = np.asarray(r, dtype=float)
        w = 0.5 * self.sigma  # bump half-width
        c = np.clip(r - self.r0, -w, w)
        z, gw = self._GL
        mid = np.stack([(c - w) / 2, (c + w) / 2])[:, None]  # [-w, c], [c, w]
        half = np.stack([(c + w) / 2, (w - c) / 2])[:, None]
        t = (mid + half * z[:, None]).reshape(2 * len(z), len(r))
        jac = (half * gw[:, None]).reshape(t.shape)

        def psi(x):
            u = np.clip(x / w, -1 + 1e-14, 1 - 1e-14)
            return np.exp(-1.0 / (1.0 - u ** 2))

        wt = jac * psi(t)
        Z = np.sum(wt, axis=0)
        inside = np.abs(r - self.r0) < w
        dens = np.where(inside, psi(np.where(inside, r - self.r0, 0.0)), 0.0) / Z
        return t[len(z):], wt[len(z):] / Z, dens

    def _blend(self, r, order=0):
        """Cutoff: 1 on |r-r0| <= sigma/2, 0 outside |r-r0| >= sigma; smooth."""
        w = 0.5 * self.sigma
        d = np.asarray(r, dtype=float) - self.r0
        x = (np.abs(d) - w) / w
        if order == 0:
            return 1.0 - smoothstep(x)
        xc = np.clip(x, 0.0, 1.0)
        edge = (x > 0) & (x < 1)
        if order == 1:
            dS = 30.0 * xc ** 2 * (1 - xc) ** 2
            return np.where(edge, -dS * np.sign(d) / w, 0.0)
        if order == 2:
            ddS = 60.0 * xc * (1 - xc) * (1 - 2 * xc)
            return np.where(edge, -ddS / w ** 2, 0.0)
        raise ValueError("order <= 2")

    def eval(self, r, order=0):
        """Mollified A and B with their radial derivatives up to order <= 2:
        {"A": [A, A', ...], "B": [B, B', ...]} at radii r.

        The collar adds chi * (D * bump - D) to the one-sided fits, D the
        deviation polynomial.  Its derivatives are convolutions of D's
        derivatives, plus the exact bump-density jump term at second order,
        combined with the analytic blend derivatives by Leibniz' rule.  The
        nodes, the blend and the collar mask are computed once for both fields
        and every order.
        """
        r = np.asarray(r, dtype=float)
        jets = [self._raw(r, k) for k in range(order + 1)]
        # the deviation and its convolution vanish for r >= r0 + sigma/2
        d = r - self.r0
        collar = (d > -self.sigma) & (d < 0.5 * self.sigma)
        if np.any(collar):
            fits = self.cm.fits
            rc = r[collar]
            t, wt, dens = self._conv_nodes(rc)
            x = rc[None, :] - t
            chi = [self._blend(rc, k)[:, None] for k in range(order + 1)]
            diff = [np.einsum("ij,ijf->jf", wt, fits.dev(x, k)) - fits.dev(rc, k)
                    for k in range(order + 1)]
            if order == 2:
                diff[2] += fits.jump * dens[:, None]
            for k in range(order + 1):
                jets[k][collar] += sum(comb(k, j) * chi[j] * diff[k - j]
                                       for j in range(k + 1))
        return {f: [jet[:, i] for jet in jets] for i, f in enumerate("AB")}

    def sample(self, grid, delta=None):
        """Mollified metric sampled on a grid (need not contain r0)."""
        jet = self.eval(grid.r)
        return RadialMetric(grid, self.cm.n, jet["A"][0], jet["B"][0],
                            self.cm.delta if delta is None else delta)


def _certificate(mc, K_target, epsilon):
    """Measure the four smoothing properties on a composite dense grid.

    Outside the collar the metric is untouched, so R comes from the accurate
    grid stencils of each smooth piece; inside, from spline + bump derivatives.
    """
    cm = mc.cm
    n = cm.n
    sig = mc.sigma
    ri = cm.inner.grid.r
    ro = cm.outer.grid.r
    Ri = scalar_curvature(cm.inner)
    Ro = scalar_curvature(cm.outer)
    keep_i = ri <= mc.r0 - sig
    keep_o = ro >= mc.r0 + sig

    rc = np.linspace(mc.r0 - sig, mc.r0 + sig, 4001)
    far = np.concatenate([ri[keep_i], ro[keep_o]])
    m = len(rc)
    jet = mc.eval(np.concatenate([rc, far]), 2)
    Ac, A1, _ = (a[:m] for a in jet["A"])
    Bc, B1, B2 = (b[:m] for b in jet["B"])
    Rc = scalar_curvature_pointwise(n, rc, Ac, Bc, A1, B1, B2)

    r = np.concatenate([ri[keep_i], rc, ro[keep_o]])
    R = np.concatenate([Ri[keep_i], Rc, Ro[keep_o]])
    A = np.concatenate([cm.inner.A[keep_i], Ac, cm.outer.A[keep_o]])
    B = np.concatenate([cm.inner.B[keep_i], Bc, cm.outer.B[keep_o]])

    dens = sphere_area(n) * np.sqrt(A * B ** (n - 1)) * r ** (n - 1)
    neg = np.where(R < 0, -R, 0.0)
    neg_part = float(np.trapezoid(neg * dens, r))
    neg_measure = float(np.trapezoid((R < 0) * dens, r))
    K_measured = float(np.min(R))

    A0, B0 = mc._raw(rc).T
    ratios = np.concatenate([Ac / A0, Bc / B0])
    moved = np.stack([jet["A"][0][m:], jet["B"][0][m:]], axis=-1) - mc._raw(far)
    support_ok = bool(np.max(np.abs(moved)) < 1e-14)
    sandwich_lo = float(np.min(ratios))
    sandwich_hi = float(np.max(ratios))

    satisfied = (neg_part < epsilon and K_measured > -K_target
                 and sandwich_lo >= 1 - epsilon and sandwich_hi <= 1 + epsilon
                 and support_ok)
    return SmoothingReport(epsilon, mc.sigma, K_measured, neg_part, neg_measure,
                           sandwich_lo, sandwich_hi, support_ok, bool(satisfied))


def mollify(cm, epsilon, K_target=10.0, grid=None):
    """Smooth a corner metric in a collar around r0; certify the result.

    The collar half-width starts at epsilon^2 and halves until the certificate
    (neg_part < epsilon, inf R > -K_target, sandwich, support) passes; if no
    width works the last report is returned with satisfied=False.
    """
    # starting collar width eps^2, floored where blend-derivative roundoff
    # (growing like sigma^-2) would swamp the certificate
    sigma = max(epsilon ** 2, 1e-7)
    floor = max(1e-9, sigma / 2 ** 10)
    best = None
    while True:
        mc = MollifiedCorner(cm, sigma)
        rep = _certificate(mc, K_target, epsilon)
        if rep.satisfied or sigma * 0.5 < floor:
            best = (mc, rep)
            break
        if best is None or rep.neg_part < best[1].neg_part:
            best = (mc, rep)
        sigma *= 0.5
    mc, rep = best
    target = grid if grid is not None else cm.combined().grid
    return mc.sample(target), rep
