"""Corner (Lipschitz) radial metrics across a sphere r = r0 and their smoothing.

A corner metric is continuous with a possible jump in the first radial
derivatives at r0.  The mean-curvature comparison H(-) >= H(+) across the
interface decides whether the distributional scalar curvature is nonnegative
there; mollification turns a valid corner into a smooth metric whose negative
scalar-curvature mass can be certified small.  The certificate's collar
tables are functions of the scaled radius s = (r - r0) / sigma alone, built
once per process; a corner piece's FarTable holds its running sums.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb, perm
from typing import NamedTuple

import numpy as np

from .grid import RadialGrid, Spline, check_nodes, interp_spline, smoothstep
from .metrics import RadialMetric, volume_element
from .curvature import mass_function, mean_curvature, scalar, scalar_curvature

CONT_TOL = 1e-12
K_TARGET = 10.0  # the certificate's bound inf R > -K_TARGET


class CornerFits(NamedTuple):
    inner: Spline        # (A, B) on the inner piece, trailing field axis
    outer: Spline        # (A, B) on the outer piece
    taylor: list         # about r0, lowest power first: the inner fit's last
                         # piece, the outer fit's first, and T, the first
                         # minus the second: the part the collar smooths;
                         # -T[1] is the (A', B') jump, outer minus inner


def _quintic(m):
    """Quintic interpolant of (A, B) on one piece, in Horner form."""
    return interp_spline(m.grid.r, np.stack([m.A, m.B], axis=-1), k=5)


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
        """One-sided fits and the Taylor forms of their pieces at r0, built
        once per corner and shared by every collar width."""
        inner, outer = _quintic(self.inner), _quintic(self.outer)
        # f^(k)(r0) / k!: r0 ends the inner fit and starts the outer
        taylor = [s.jets(self.r0, 5) / [[1.0], [1], [2], [6], [24], [120]]
                  for s in (inner, outer)]
        taylor.append(taylor[0] - taylor[1])
        return CornerFits(inner, outer, taylor)

    @cached_property
    def far(self):
        """Each piece's `FarTable`, read outside every collar width."""
        return (far_table(self.inner, self.fits.inner, 1),
                far_table(self.outer, self.fits.outer, -1))


def make_corner_grid(r_min, r0, r_max, fine_dr, outer_num):
    """Grid with a node exactly at r0: uniform spacing fine_dr out to 3 r0,
    then geometrically stretched to r_max."""
    if not (np.isfinite([r_min, r0, r_max]).all() and 0 < r_min < r0):
        raise ValueError(f"need finite radii and 0 < r_min < r0, got r_min="
                         f"{r_min:g}, r0={r0:g}, r_max={r_max:g}")
    if not 0 < fine_dr < np.inf or outer_num < 1:
        raise ValueError(f"need a finite fine_dr > 0 and outer_num >= 1, got "
                         f"fine_dr={fine_dr:g}, outer_num={outer_num}")
    # counted in floats: past the largest float it is inf, where round raises
    check_nodes((3.0 * r0 - r_min) / fine_dr + 1 + outer_num, f"fine_dr="
                f"{fine_dr:g} (density {1 / fine_dr:g}) with outer_num="
                f"{outer_num}")
    k0 = round((r0 - r_min) / fine_dr)
    if abs(r_min + k0 * fine_dr - r0) > 1e-12 * r0:
        raise ValueError(f"r0={r0:g} must sit on the fine lattice r_min + k "
                         f"fine_dr, r_min={r_min:g}, fine_dr={fine_dr:g}")
    m = round((3.0 * r0 - r_min) / fine_dr)
    fine = r_min + fine_dr * np.arange(m + 1)
    span = r_max - fine[-1]
    if not span > 0:
        raise ValueError(f"r_max={r_max:g} must lie past {fine[-1]:g}, where "
                         f"the fine lattice ends near 3 r0 = {3.0 * r0:g}")

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
    """One-sided mean curvatures at r0, from the fits' 2-jets there, the
    comparison H(-) >= H(+) (outward normal on both sides), to within 1e-8,
    and the jump of the Misner-Sharp mass across r0, outer minus inner:
    phi^n (H(-)^2 - H(+)^2) / (2 (n-1)^2), of the sign of H(-) - H(+)."""
    jets = [fit.jets(cm.r0, 2) for fit in (cm.fits.inner, cm.fits.outer)]
    H_minus, H_plus = (float(mean_curvature(cm.n, cm.r0, j)) for j in jets)
    m_minus, m_plus = (float(mass_function(cm.n, cm.r0, j)) for j in jets)
    return (H_minus, H_plus, bool(H_minus >= H_plus - 1e-8),
            m_plus - m_minus)


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

    u = base.B ** 0.25
    du0, u0 = float(grid.deriv(u)[i0]), float(u[i0])
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

    Inside a collar of half-width sigma around r0 the corner's polynomial
    part T, the inner fit's piece at r0 minus the outer fit's, cut off at
    r0, is replaced by its convolution with a normalized bump of half-width
    sigma/2, blended in with a smooth cutoff so that the metric is untouched
    outside the collar.  The rest of the inner fit's difference from the
    outer's is C^4 and zero on the inner fit's last piece: it stays as it
    is, and the mollified metric is C^4.
    """

    def __init__(self, cm, sigma):
        self.cm = cm
        self.sigma = float(sigma)
        self.r0 = cm.r0

    def _raw(self, x, order=0):
        """One-sided jets of the unmollified (A, B), shape (order + 1,
        len(x), 2), r0 on the inner side."""
        x = np.asarray(x, dtype=float)
        f = self.cm.fits
        lo = x <= self.r0
        out = np.empty((order + 1,) + x.shape + (2,))
        for side, fit in ((lo, f.inner), (~lo, f.outer)):
            out[:, side] = fit.jets(x[side], order)
        return out

    def eval(self, r, order=0):
        """Mollified A and B with their radial derivatives up to order <= 2
        at radii r: the jet of `curvature`, shape (order + 1, len(r), 2).

        The one-sided fits plus, in the collar, `collar_operator` at the
        scaled radii times T's coefficients and the derivative jump: the
        closed-form convolution of T, combined with the analytic blend
        derivatives by Leibniz' rule.
        """
        if order > 2:
            raise ValueError("order <= 2")
        r = np.asarray(r, dtype=float)
        jets = self._raw(r, order)
        s = (r - self.r0) / self.sigma
        at = np.flatnonzero(in_collar(s))
        at = at[np.argsort(s[at])]
        H = collar_operator(s[at])
        for k, coef in enumerate(self._coefficients()[:order + 1]):
            jets[k, at] += H[k] @ coef / self.sigma ** k
        return jets

    def _coefficients(self):
        """What `collar_operator`'s H_k multiplies, k = 0, 1, 2: T's
        coefficients times sigma^q over the jump times sigma^(k-1)."""
        f, sig = self.cm.fits, self.sigma
        d = f.taylor[2] * sig ** np.arange(6.0)[:, None]
        return [np.vstack([d, -f.taylor[2][1] * sig ** (k - 1)])
                for k in range(3)]

    def collar_jets(self):
        """Raw (A, B), shape (N, 2), and the mollified 2-jet, shape (3, N,
        2), at the N radii r0 + sigma COLLAR_S.  When the fits' pieces at r0
        hold r0 -/+ sigma, the raw fields are polynomials about r0 too: a jet
        is a few (N x 6)(6 x 2) products of the tables of
        `certificate_collar` with the Taylor coefficients.  Otherwise eval."""
        f, r0, sig = self.cm.fits, self.r0, self.sigma
        if sig > r0 - f.inner.x[-2] or sig > f.outer.x[1] - r0:
            rc = r0 + sig * COLLAR_S
            return self._raw(rc)[0], self.eval(rc, 2)
        a, b = (c * sig ** np.arange(6.0)[:, None] for c in f.taylor[:2])
        at, powers, H = certificate_collar()
        lo = np.searchsorted(COLLAR_S, 0.0, "right")  # the rows s <= 0
        jets = np.empty((3, len(COLLAR_S), 2))  # every product in place
        np.matmul(powers[:lo], POWER_DERIV @ a, out=jets[:, :lo])
        np.matmul(powers[lo:], POWER_DERIV @ b, out=jets[:, lo:])
        raw = jets[0].copy()
        for k, (jet, coef) in enumerate(zip(jets, self._coefficients())):
            jet /= sig ** k
            conv = H[k] @ coef
            jet[at] += np.divide(conv, sig ** k, out=conv)
        return raw, jets

    def sample(self, grid):
        """Mollified metric sampled on a grid (need not contain r0)."""
        A, B = self.eval(grid.r)[0].T
        return RadialMetric(grid, self.cm.n, A, B, self.cm.delta)


def _certificate(mc, epsilon):
    """Measure the four smoothing properties of one collar width.

    Outside the collar |r - r0| < sigma the metric is untouched: R comes from
    the grid stencils of each smooth piece, and each sum there is a running
    one of `CornerMetric.far`.  Inside, R comes from spline + bump
    derivatives; a trapezoid over the collar and the nearest far nodes joins
    the two."""
    cm, sig, r0 = mc.cm, mc.sigma, mc.r0
    rc = r0 + sig * COLLAR_S
    raw, jet = mc.collar_jets()
    ratios = jet[0] / raw
    sandwich_lo, sandwich_hi = float(np.min(ratios)), float(np.max(ratios))
    del raw, ratios  # a lower peak: glibc keeps the heap between attempts
    Rc = scalar(cm.n, rc, jet)

    # the far nodes: r <= r0 - sigma inside, r >= r0 + sigma outside; their
    # nearest, [k - 1:k], is empty when k = 0
    (ti, ki), (to, ko) = ((t, np.searchsorted(t.key, s * r0 - sig, "right"))
                          for t, s in zip(cm.far, (1, -1)))
    K_measured = float(np.min([ti.R_min[ki], np.min(Rc), to.R_min[ko]]))
    # outside the collar the metric must be the corner's own data: the fits
    # match it there, and the collar adds nothing at any far node
    far = np.concatenate([ti.r[:ki], to.r[:ko]])
    support_ok = bool(max(ti.moved[ki], to.moved[ko]) < 1e-14
                      and not in_collar((far - r0) / sig).any())
    del far  # not held through the integral

    x = np.concatenate([ti.r[ki - 1:ki], rc, to.r[ko - 1:ko]])
    y = np.concatenate([ti.y[ki - 1:ki], negative_parts(
        Rc, volume_element(cm.n, rc, *jet[0].T)), to.y[ko - 1:ko]])
    seg = np.add(y[1:], y[:-1])  # np.trapezoid's terms, in place
    seg *= np.diff(x)[:, None]
    seg /= 2.0
    neg_part, neg_measure = (np.cumsum(seg, 0, out=seg)[-1] + ti.integral[ki]
                             + to.integral[ko]).tolist()
    satisfied = (K_measured > -K_TARGET and sandwich_lo >= 1 - epsilon
                 and sandwich_hi <= 1 + epsilon and support_ok
                 and neg_part < epsilon)
    return SmoothingReport(epsilon, sig, K_measured, neg_part, neg_measure,
                           sandwich_lo, sandwich_hi, support_ok,
                           bool(satisfied))


def mollify(cm, epsilon):
    """Smooth a corner metric in a collar around r0; certify the result.

    The collar half-width starts at epsilon^2 and halves until
    `_certificate` (neg_part < epsilon, inf R > -K_TARGET, sandwich,
    support) passes; if no width works the last report is returned with
    satisfied=False.  A width that fails inf R on a corner that fails
    `corner_condition` is returned at once, refused: with H(-) < H(+) the
    mollified R keeps the jump's term, which falls like -1/sigma, and each
    far table's R_min is a running minimum that only falls as the collar
    narrows, so no narrower width can mend it.  Returns the MollifiedCorner
    (`sample` puts it on a grid) and the report.  An epsilon whose first
    collar leaves the corner's domain is refused."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon:g}")
    # starting collar width eps^2, floored where blend-derivative roundoff
    # (growing like sigma^-2) would swamp the certificate
    sigma = max(epsilon ** 2, 1e-7)
    # the widest collar's bump weighs T, the inner fit's piece at r0
    # continued, down to r0 - 3 sigma / 2, and its cutoff reaches r0 +
    # sigma: both must lie in the corner
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
        rep = _certificate(mc, epsilon)
        # corner_condition is read only at a width that fails inf R
        if (rep.satisfied or sigma * 0.5 < floor
                or not rep.K_measured > -K_TARGET
                and not corner_condition(cm)[2]):
            return mc, rep
        sigma *= 0.5
