"""Corner (Lipschitz) radial metrics across a sphere r = r0 and their smoothing.

A corner metric is continuous with a possible jump in the first radial
derivatives at r0.  The mean-curvature comparison H(-) >= H(+) across the
interface decides whether the distributional scalar curvature is nonnegative
there; mollification turns a valid corner into a smooth metric whose negative
scalar-curvature mass can be certified small.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np

from .grid import RadialGrid, Spline, fornberg_weights, interp_spline
from .metrics import RadialMetric, volume_element
from .curvature import mean_curvature, scalar
from .mollifier import (COLLAR_S, POWER_DERIV, certificate_collar, collar,
                        far_table, in_collar, negative_parts)

CONT_TOL = 1e-12


class CornerFits(NamedTuple):
    inner: Spline        # (A, B) on the inner piece, trailing field axis
    outer: Spline        # (A, B) on the outer piece
    dev: Spline          # D = inner - outer's first piece; 0 for r > r0
    jump: np.ndarray     # (A', B') jump across r0, outer minus inner
    taylor: list         # about r0, lowest power first: the inner fit's last
                         # piece, the outer fit's first, D's piece at r0


def _quintic(m):
    """Quintic interpolant of (A, B) on one piece, in Horner form."""
    return interp_spline(m.grid.r, np.stack([m.A, m.B], axis=-1), k=5)


def _shift(c, h):
    """Spline coefficients c (highest power first, in powers of x - a)
    re-expanded in powers of x - (a + h)."""
    k = len(c) - 1
    out = np.zeros(np.broadcast_shapes(c.shape, np.shape(h)))
    for e in range(k + 1):  # out[k - p] += comb(p + e, p) h^e c[k - p - e]
        w = np.array([comb(p + e, p) for p in range(k - e + 1)], ndmin=c.ndim)
        out[:k - e + 1] += w.T * h ** e * c[k - e::-1]
    return out[::-1]


def _deviation(inner, outer, r0, r_hi):
    """D = inner - (outer's first piece continued inward), zero on (r0, r_hi].

    Convolving D rather than the field removes the O(f'') smoothing bias of
    the blend zone.  The breakpoints descend, so every piece is expanded
    about its right end: next to r0, D is its Taylor form about r0, a sum of
    small terms rather than the difference of two O(1) values.
    """
    b = inner.x[1:, None]  # right end of each inner piece
    d = (_shift(inner.c, b - inner.x[:-1, None])
         - _shift(outer.c[:, :1], b - r0))
    c = np.concatenate([np.zeros_like(d[:, :1]), d[:, ::-1]], axis=1)
    return Spline(c, np.append(r_hi, inner.x[::-1]))


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

    @cached_property
    def fits(self):
        """One-sided fits, the deviation polynomial and their Taylor forms at
        r0, built once per corner and shared by every collar width."""
        inner, outer = _quintic(self.inner), _quintic(self.outer)
        dev = _deviation(inner, outer, self.r0, self.outer.grid.r[-1])
        taylor = [_shift(p, self.r0 - x)[::-1] for p, x in (
            (inner.c[:, -1], inner.x[-2]), (outer.c[:, 0], outer.x[0]),
            (dev.c[:, 1], dev.x[1]))]
        return CornerFits(inner, outer, dev, -dev.c[-2, 1], taylor)

    @cached_property
    def far(self):
        """Each piece's `mollifier.FarTable`, read outside every collar width."""
        return (far_table(self.inner, self.fits.inner, 1),
                far_table(self.outer, self.fits.outer, -1))


def make_corner_grid(r_min, r0, r_max, fine_dr=1.0 / 32, outer_num=256):
    """Grid with a node exactly at r0: uniform spacing fine_dr out to 3 r0,
    then geometrically stretched to r_max."""
    if not 0 < fine_dr < np.inf or outer_num < 1:
        raise ValueError(f"need a finite fine_dr > 0 and outer_num >= 1, got "
                         f"fine_dr={fine_dr:g}, outer_num={outer_num}")
    k0 = round((r0 - r_min) / fine_dr)
    if abs(r_min + k0 * fine_dr - r0) > 1e-12 * r0:
        raise ValueError("r0 must sit on the fine lattice")
    m = round((3.0 * r0 - r_min) / fine_dr)
    fine = r_min + fine_dr * np.arange(m + 1)
    span = r_max - fine[-1]

    def gap(ratio):
        return fine_dr * (ratio ** (outer_num + 1) - ratio) / (ratio - 1) - span

    # gap increases with the ratio: bisect to adjacent floats, keep the
    # one nearer the root
    lo, hi = 1.0 + 1e-12, 1.5 * (span / fine_dr) ** (1.0 / outer_num)
    if gap(lo) >= 0:
        raise ValueError(f"{outer_num} outer cells of at least {fine_dr} "
                         f"overrun r_max={r_max}")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
    ratio = min(lo, hi, key=lambda q: abs(gap(q)))
    steps = fine_dr * ratio ** np.arange(1, outer_num + 1)
    outer = fine[-1] + np.cumsum(steps)
    outer[-1] = r_max
    return RadialGrid(np.concatenate([fine, outer]))


def corner_condition(cm):
    """One-sided mean curvatures at r0, from the fits' Taylor forms, and the
    comparison H(-) >= H(+) (outward normal on both sides), to within 1e-8."""
    # a Taylor form holds f^(k) / k!, so the 2-jet is t[:3] times (1, 1, 2)
    H_minus, H_plus = (float(mean_curvature(cm.n, cm.r0, (
        t[:3] * [[1.0], [1.0], [2.0]]).T.ravel())) for t in cm.fits.taylor[:2])
    return H_minus, H_plus, bool(H_minus >= H_plus - 1e-8)


def corner_example(base, r0, strength):
    """Corner metric from a conformally flat base (n = 3): the outer piece is
    the base itself, the inner piece is conformally flat with factor U chosen
    so that B'(r0-) - B'(r0+) = strength while R >= 0 away from the corner.

    U solves -r^2 U'(r) = q0 * S(r/r0) (S the quintic smoothstep), with U and
    U' matched at r0; q0 >= 0, which holds exactly when strength <=
    -4 u(r0)^3 u'(r0) (u = B^(1/4) of the base), keeps Delta U <= 0 and R >= 0.
    """
    grid = base.grid
    i0 = grid.node_at(r0)
    if i0 is None or i0 < 5 or i0 > grid.num - 6:
        raise ValueError("r0 must be an interior grid node")
    if base.n != 3:
        raise ValueError("corner example implemented for n = 3")
    if np.max(np.abs(base.A - base.B)) > 1e-12:
        raise ValueError("base must be conformally flat (A = B)")

    win = slice(i0 - 2, i0 + 3)  # u = B^(1/4) on grid.deriv's row at i0
    u = base.B[win] ** 0.25
    w = fornberg_weights(grid.r[i0], grid.r[None, win], 1)[:, 1]
    du0, u0 = float(np.einsum("ij,ij->i", w, u[None])[0]), float(u[2])
    # target inner slope: B' jump of `strength` means U' gains strength/(4 u0^3)
    q0 = -r0 ** 2 * (du0 + strength / (4.0 * u0 ** 3))
    if q0 < 0:
        raise ValueError("strength too large: inner factor would lose R >= 0")

    ri = grid.r[:i0 + 1]
    # I(r) = int_r^r0 S(t/r0)/t^2 dt, antiderivative of the quintic in closed form
    F = 5.0 * ri ** 2 / r0 ** 3 - 5.0 * ri ** 3 / r0 ** 4 + 1.5 * ri ** 4 / r0 ** 5
    U = u0 + q0 * (F[-1] - F)
    Ain = U ** 4

    inner = RadialMetric(RadialGrid(ri), 3, Ain, Ain.copy(), base.delta)
    outer = RadialMetric(RadialGrid(grid.r[i0:]), 3, base.A[i0:], base.B[i0:],
                         base.delta)
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
        """`field=value`: epsilon and sigma as %g, other numbers to 12 digits."""
        return [f"{k}={v:g}" if k in ("epsilon", "sigma") else f"{k}={v}"
                if isinstance(v, bool) else f"{k}={v:.12g}"
                for k, v in vars(self).items()]


class MollifiedCorner:
    """Smooth evaluation of the mollified corner metric at arbitrary radii.

    Inside a collar of half-width sigma around r0 the fields are replaced by
    their convolution with a normalized bump of half-width sigma/2, blended in
    with a smooth cutoff so that the metric is untouched outside the collar.
    """

    def __init__(self, cm, sigma):
        self.cm = cm
        self.sigma = float(sigma)
        self.r0 = cm.r0

    def _raw(self, x, order=0):
        """One-sided jets of the unmollified (A, B): order+1 arrays of shape
        (len(x), 2), r0 on the inner side."""
        x = np.asarray(x, dtype=float)
        f = self.cm.fits
        lo = x <= self.r0
        out = [np.empty(x.shape + (2,)) for _ in range(order + 1)]
        for side, fit in ((lo, f.inner), (~lo, f.outer)):
            for o, j in zip(out, fit.jets(x[side], order)):
                o[side] = j
        return out

    def eval(self, r, order=0):
        """Mollified A and B with their radial derivatives up to order <= 2:
        {"A": [A, A', ...], "B": [B, B', ...]} at radii r.

        The collar adds chi * (D * bump - D) to the one-sided fits, D the
        deviation polynomial.  Its derivatives are convolutions of D's
        derivatives, plus the exact bump-density jump term at second order,
        combined with the analytic blend derivatives by Leibniz' rule.
        """
        if order > 2:
            raise ValueError("order <= 2")
        r = np.asarray(r, dtype=float)
        jets = self._raw(r, order)
        at, t, wt, dens, chi = collar((r - self.r0) / self.sigma)
        if wt.size:
            fits = self.cm.fits
            rc = r[at]
            # nodes from the floats rc the fits see: rounding them apart
            # would be amplified by the sigma^-2 blend derivatives
            diff = [np.einsum("ij,ijf->jf", wt, conv) - d for conv, d in
                    zip(fits.dev.jets(rc - self.sigma * t, order),
                        fits.dev.jets(rc, order))]
            if order == 2:
                diff[2] += fits.jump * (dens / self.sigma)[:, None]
            for k in range(order + 1):
                jets[k][at] += sum(comb(k, j) * chi[j] / self.sigma ** j
                                   * diff[k - j] for j in range(k + 1))
        return {f: [jet[:, i] for jet in jets] for i, f in enumerate("AB")}

    def collar_jets(self):
        """Raw (A, B) and the mollified 2-jets at r0 + sigma COLLAR_S.  When
        D's piece at r0 holds every node, down to r0 - 3 sigma / 2, and the
        fits' pieces there hold r0 -/+ sigma, each is one polynomial about
        r0: a jet is a few (N x 6)(6 x 2) products of the tables of
        `certificate_collar` with its coefficients.  Otherwise eval, node
        by node."""
        f, r0, sig = self.cm.fits, self.r0, self.sigma
        if 1.5 * sig > r0 - f.dev.x[2] or sig > f.outer.x[1] - r0:
            rc = r0 + sig * COLLAR_S
            return self._raw(rc)[0], self.eval(rc, 2)
        a, b, d = (c * sig ** np.arange(6.0)[:, None] for c in f.taylor)
        at, powers, H = certificate_collar()
        lo = np.searchsorted(COLLAR_S, 0.0, "right")  # the rows s <= 0
        jets = np.empty((3, len(COLLAR_S), 2))  # every product in place
        np.matmul(powers[:lo], POWER_DERIV @ a, out=jets[:, :lo])
        np.matmul(powers[lo:], POWER_DERIV @ b, out=jets[:, lo:])
        raw = jets[0].copy()
        for k, jet in enumerate(jets):
            jet /= sig ** k
            conv = H[k] @ np.vstack([d, f.jump * sig ** (k - 1)])
            jet[at] += np.divide(conv, sig ** k, out=conv)
        return raw, {k: [jet[:, i] for jet in jets] for i, k in enumerate("AB")}

    def sample(self, grid):
        """Mollified metric sampled on a grid (need not contain r0)."""
        jet = self.eval(grid.r)
        return RadialMetric(grid, self.cm.n, jet["A"][0], jet["B"][0],
                            self.cm.delta)


def _certificate(mc, K_target, epsilon):
    """Measure the four smoothing properties.

    Outside the collar |r - r0| < sigma the metric is untouched: R comes from
    the grid stencils of each smooth piece, and each sum there is a running
    one of `CornerMetric.far`.  Inside, R comes from spline + bump
    derivatives; a trapezoid over the collar and the nearest far nodes joins
    the two."""
    cm, sig, r0 = mc.cm, mc.sigma, mc.r0
    rc = r0 + sig * COLLAR_S
    raw, jet = mc.collar_jets()
    Ac, Bc = jet["A"][0], jet["B"][0]
    ratios = np.stack([Ac, Bc], -1) / raw
    sandwich_lo, sandwich_hi = float(np.min(ratios)), float(np.max(ratios))
    del raw, ratios  # a lower peak: glibc keeps the heap between attempts
    Rc = scalar(cm.n, rc, [*jet["A"], *jet["B"]])

    # the far nodes: r <= r0 - sigma inside, r >= r0 + sigma outside; their
    # nearest, [k - 1:k], is empty when k = 0
    (ti, ki), (to, ko) = ((t, np.searchsorted(t.key, s * r0 - sig, "right"))
                          for t, s in zip(cm.far, (1, -1)))
    x = np.concatenate([ti.r[ki - 1:ki], rc, to.r[ko - 1:ko]])
    y = np.concatenate([ti.y[ki - 1:ki],
                        negative_parts(Rc, volume_element(cm.n, rc, Ac, Bc)),
                        to.y[ko - 1:ko]])
    seg = np.add(y[1:], y[:-1])  # np.trapezoid's terms, in place
    seg *= np.diff(x)[:, None]
    seg /= 2.0
    neg_part, neg_measure = (np.cumsum(seg, 0, out=seg)[-1] + ti.integral[ki]
                             + to.integral[ko]).tolist()
    K_measured = float(np.min([ti.R_min[ki], np.min(Rc), to.R_min[ko]]))

    # outside the collar the metric must be the corner's own data: the fits
    # match it there, and the collar adds nothing at any far node
    far = np.concatenate([ti.r[:ki], to.r[:ko]])
    support_ok = bool(max(ti.moved[ki], to.moved[ko]) < 1e-14
                      and not in_collar((far - r0) / sig).any())

    satisfied = (neg_part < epsilon and K_measured > -K_target
                 and sandwich_lo >= 1 - epsilon and sandwich_hi <= 1 + epsilon
                 and support_ok)
    return SmoothingReport(epsilon, mc.sigma, K_measured, neg_part, neg_measure,
                           sandwich_lo, sandwich_hi, support_ok, bool(satisfied))


def mollify(cm, epsilon, K_target=10.0):
    """Smooth a corner metric in a collar around r0; certify the result.

    The collar half-width starts at epsilon^2 and halves until the certificate
    (neg_part < epsilon, inf R > -K_target, sandwich, support) passes; if no
    width works the last report is returned with satisfied=False.  Returns
    the MollifiedCorner (`sample` puts it on a grid) and the report.  An
    epsilon whose first collar leaves the corner's domain is refused."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon:g}")
    # starting collar width eps^2, floored where blend-derivative roundoff
    # (growing like sigma^-2) would swamp the certificate
    sigma = max(epsilon ** 2, 1e-7)
    # the widest collar reads the fits from its deepest convolution node,
    # r0 - 3 sigma / 2, out to r0 + sigma: both must lie in the corner
    lo, hi = cm.r0 - 1.5 * sigma, cm.r0 + sigma
    r_lo, r_hi = cm.inner.grid.r[0], cm.outer.grid.r[-1]
    if not r_lo <= lo < hi <= r_hi:
        raise ValueError(
            f"epsilon={epsilon:g}: the first collar, sigma = epsilon^2 = "
            f"{sigma:g}, reads r0 - 3 sigma/2 = {lo:g} to r0 + sigma = {hi:g}, "
            f"outside the corner's domain [{r_lo:g}, {r_hi:g}]")
    floor = max(1e-9, sigma / 2 ** 10)
    while True:
        mc = MollifiedCorner(cm, sigma)
        rep = _certificate(mc, K_target, epsilon)
        if rep.satisfied or sigma * 0.5 < floor:
            break
        sigma *= 0.5
    return mc, rep
