import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline, make_interp_spline

from afgeo.corner import make_corner_grid
from afgeo.grid import (MIN_NODES, RadialGrid, fornberg_weights,
                        interp_spline, rho_weight, smoothstep, sphere_area)


def test_sphere_area_known_values():
    assert sphere_area(3) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2.0 * np.pi ** 2, rel=1e-14)


def test_fornberg_reproduces_polynomial_derivatives():
    x = np.array([0.0, 0.3, 0.7, 1.1, 1.6])
    c = fornberg_weights(0.7, x, 2)
    f = 2.0 + 3.0 * x - 1.5 * x ** 2 + 0.25 * x ** 3
    assert c[0] @ f == pytest.approx(2.0 + 3.0 * 0.7 - 1.5 * 0.49 + 0.25 * 0.343, abs=1e-12)
    assert c[1] @ f == pytest.approx(3.0 - 3.0 * 0.7 + 0.75 * 0.49, abs=1e-12)
    assert c[2] @ f == pytest.approx(-3.0 + 1.5 * 0.7, abs=1e-12)


def test_fornberg_batched_is_exact_for_quartics():
    # one row per evaluation point, each on its own non-uniform window
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(-1.0, 2.0, size=(6, 5)), axis=1)
    z = x[:, 1] + 0.3 * (x[:, 3] - x[:, 1])
    c = fornberg_weights(z, x, 2)
    assert c.shape == (6, 3, 5)
    for p in range(5):
        f = x ** p
        d1 = p * z ** (p - 1) if p >= 1 else 0.0 * z
        d2 = p * (p - 1) * z ** (p - 2) if p >= 2 else 0.0 * z
        for k, exact in enumerate((z ** p, d1, d2)):
            got = np.einsum("ij,ij->i", c[:, k], f)
            assert np.allclose(got, exact, rtol=0, atol=1e-10)
    # each row equals the single-window call
    for i in range(len(z)):
        assert np.array_equal(c[i], fornberg_weights(z[i], x[i], 2))


def test_one_fornberg_pass_serves_every_lower_order():
    # the recursion's row k never reads a row above k, so the stencils of
    # orders 0..2 taken from one order-2 pass are those of their own passes
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.0, 2.0, (40, 5)), axis=-1)
    z = rng.uniform(0.0, 2.0, 40)
    full = fornberg_weights(z, x, 2)
    for m in range(3):
        assert np.array_equal(full[:, m], fornberg_weights(z, x, m)[:, m])
    # so deriv does not depend on the order in which the orders are asked
    r = np.sort(rng.uniform(0.1, 5.0, 64))
    f = np.cos(r)
    g1, g2 = RadialGrid(r), RadialGrid(r)
    first = [g1.deriv(f, o, parity=True) for o in (1, 2)]
    second = [g2.deriv(f, o, parity=True) for o in (2, 1)][::-1]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert sorted(g1._stencils) == [(1, True), (2, True)]  # the one pass
    assert np.allclose(g1.deriv(f, 0, parity=True), f, rtol=0, atol=1e-12)


def test_fornberg_uniform_five_point_first_derivative():
    h = 0.25
    c = fornberg_weights(1.0, 1.0 + h * np.arange(-2, 3), 1)
    ref = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    assert np.allclose(c[1], ref, rtol=0, atol=1e-13)


def test_smoothstep_ends():
    assert smoothstep(np.array([-1.0, 0.0, 1.0, 2.0])) == pytest.approx([0, 0, 1, 1])
    # zero slope at both ends
    eps = 1e-6
    assert smoothstep(np.array([eps]))[0] < 1e-12
    assert 1.0 - smoothstep(np.array([1 - eps]))[0] < 1e-12


def test_rho_weight_plateau_and_linear():
    r = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 100.0])
    assert rho_weight(r) == pytest.approx([1, 1, 1, 2, 5, 100])
    # monotone through the blend
    rr = np.linspace(0.9, 2.1, 200)
    assert np.all(np.diff(rho_weight(rr)) >= 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(1, 0, 100))
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(0, 1, MIN_NODES - 1))
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(-1, 1, 100))


def test_staggered_avoids_origin():
    g = RadialGrid.staggered(10.0, 100)
    assert g.r[0] == pytest.approx(0.05)
    assert g.dr_min == pytest.approx(0.1)


def test_deriv_fourth_order_interior():
    errs = []
    for num in (128, 256):
        g = RadialGrid.uniform(0.5, 10.0, num)
        f = np.sin(g.r)
        d = g.deriv(f, 1)
        i = slice(4, -4)
        errs.append(np.max(np.abs(d[i] - np.cos(g.r[i]))))
    assert errs[0] / errs[1] > 12.0  # 4th order: factor ~16


def test_deriv_parity_even_function():
    # staggered: no node at 0, the ghosts mirror the first nodes; the
    # stencils are exact on even polynomials of degree <= 4 at every node
    # (on a small domain, where r^4 / dr^2 keeps the roundoff near 1e-12)
    g = RadialGrid.staggered(2.0, 64)
    for p in (2, 4):
        f = g.r ** p
        for order, exact in ((1, p * g.r ** (p - 1)),
                             (2, p * (p - 1) * g.r ** (p - 2))):
            d = g.deriv(f, order, parity=True)
            assert np.max(np.abs(d - exact)) < 1e-10, (p, order)


def test_deriv_nonuniform_grid():
    g = RadialGrid.geometric(1.0, 50.0, 256, ratio=1.01)
    f = g.r ** 3
    d = g.deriv(f, 2)
    assert np.max(np.abs(d - 6.0 * g.r)) < 1e-8  # exact for cubics


def test_snap_refuses_targets_beyond_an_end_cell():
    g = RadialGrid.uniform(1.0, 10.0, 91)  # cells of 0.1
    assert g.snap([0.92, 5.04, 10.08]) == [g.r[0], g.r[40], g.r[-1]]
    for t in (0.85, 10.15, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="off the grid"):
            g.snap([5.0, t])


def test_node_at():
    g = RadialGrid.uniform(1.0, 11.0, 101)
    assert g.node_at(6.0) == 50
    assert g.node_at(6.03) is None


_SPLINE_GRIDS = {
    "uniform": lambda n: RadialGrid.uniform(0.5, 20.0, n).r,
    "staggered": lambda n: RadialGrid.staggered(60.0, n).r,
    "geometric": lambda n: RadialGrid.geometric(0.5, 300.0, n, 1.01).r,
    # uniform to 3 r0, then stretched: the grid of the corner fits
    "corner": lambda n: make_corner_grid(0.5, 2.0, 60.0, fine_dr=1.0 / 8,
                                         outer_num=n).r,
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_SPLINE_GRIDS)), k=st.sampled_from([3, 5]),
       n=st.integers(16, 300), fields=st.sampled_from([(), (1,), (3,)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_interp_spline_matches_scipy(kind, k, n, fields, seed):
    x = _SPLINE_GRIDS[kind](n)
    rng = np.random.default_rng(seed)
    # smooth data plus noise: the noise drives the collocation solve hardest
    y = (np.sin(x[:, None] / rng.uniform(0.5, 5.0, fields or (1,)))
         + 0.1 * rng.standard_normal((len(x),) + (fields or (1,))))
    y = y.reshape((len(x),) + fields)
    ours = interp_spline(x, y, k)
    refs = [make_interp_spline(x, y, k=k)]
    if k == 3:
        refs.append(CubicSpline(x, y))
    # the nodes, points between them and a little beyond either end; then a
    # batch inside one piece, which Spline evaluates without a gather
    j = int(rng.integers(len(x) - 1))
    for r in (np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                              [x[0] - 0.1 * (x[1] - x[0]), x[-1] + 0.1]]),
              np.linspace(x[j], x[j + 1], 2000, endpoint=False)):
        jets = ours.jets(r, 2)
        for ref in refs:
            for nu, tol in ((0, 1e-12), (2, 1e-9)):
                want = ref(r, nu)
                assert jets[nu].shape == want.shape
                assert (np.max(np.abs(jets[nu] - want))
                        <= tol * np.max(np.abs(want)))


def test_interp_spline_needs_odd_degree_and_increasing_nodes():
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        interp_spline(x, x, 4)
    with pytest.raises(ValueError):
        interp_spline(x[::-1], x, 3)


# -- the loop-by-loop builds, kept as references ------------------------------

def point_major_fornberg(z, x, m):
    """Fornberg's recursion with the points as the leading axes."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    nd = x.shape[-1]
    c = np.zeros(x.shape[:-1] + (m + 1, nd))
    c1, c4 = 1.0, x[..., 0] - z
    c[..., 0, 0] = 1.0
    for i in range(1, nd):
        c2, c5, c4 = 1.0, c4, x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(min(i, m), 0, -1):
                    c[..., k, i] = (c1 * (k * c[..., k - 1, i - 1]
                                          - c5 * c[..., k, i - 1]) / c2)
                c[..., 0, i] = -c1 * c5 * c[..., 0, i - 1] / c2
            for k in range(min(i, m), 0, -1):
                c[..., k, j] = (c4 * c[..., k, j] - k * c[..., k - 1, j]) / c3
            c[..., 0, j] = c4 * c[..., 0, j] / c3
        c1 = c2
    return c


def column_basis(t, k, x, ell):
    """Cox-de Boor one B-spline column at a time."""
    h = [np.ones((len(x), 1))]
    for d in range(1, k + 1):
        cur = np.zeros((len(x), d + 1))
        for q in range(1, d + 1):
            xb, xa = t[ell + q], t[ell + q - d]
            w = h[-1][:, q - 1] / (xb - xa)
            cur[:, q - 1] += w * (xb - x)
            cur[:, q] = w * (x - xa)
        h.append(cur)
    return h


def wide_window_solve(band, first, y, block=32):
    """Block Thomas with each block row stored over three whole blocks."""
    n, w = band.shape
    k, P = w - 1, -(-n // block)
    N = P * block
    first = np.concatenate([first, np.arange(n, N)])
    band = np.concatenate([band, np.eye(1, w).repeat(N - n, axis=0)])
    b, i = np.divmod(np.arange(N), block)
    M = np.zeros((P, block, 3 * block))
    M[b[:, None], i[:, None],
      first[:, None] + np.arange(w) - (b[:, None] - 1) * block] = band
    rhs = np.zeros((N, y.shape[1]))
    rhs[:n] = y
    low, diag = M[:, :, :block], M[:, :, block:2 * block]
    aug = np.concatenate([M[:, :, 2 * block:2 * block + k],
                          rhs.reshape(P, block, -1)], axis=2)
    sol = []
    for b in range(P):
        if b:
            T = low[b, :k, -k:] @ sol[-1][-k:]
            diag[b, :k, :k] -= T[:, :k]
            aug[b, :k, k:] -= T[:, k:]
        sol.append(np.linalg.solve(diag[b], aug[b]))
    out = [sol[-1][:, k:]]
    for s in sol[-2::-1]:
        out.append(s[:, k:] - s[:, :k] @ out[-1][:k])
    return np.concatenate(out[::-1])[:n]


def einsum_taylor_spline(x, y, k):
    """interp_spline's coefficients from the references above, with the
    Taylor sums taken by einsum over gathered coefficients."""
    n, m = len(x), (k - 1) // 2
    t = np.concatenate([np.full(k + 1, x[0]), x[m + 1:n - m - 1],
                        np.full(k + 1, x[-1])])
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    a = wide_window_solve(column_basis(t, k, x, ell)[k], ell - k,
                          y.reshape(n, -1))
    left = np.arange(k, n)
    basis = column_basis(t, k, t[left], left)
    c = np.empty((k + 1, len(left), a.shape[1]))
    for p in range(k + 1):
        d = k - p
        idx = left[:, None] - d + np.arange(d + 1)
        c[d] = (np.einsum("iq,iqf->if", basis[d], a[idx])
                / np.prod(np.arange(1.0, p + 1)))
        if p < k:
            j = np.arange(p + 1, n)
            a[p + 1:] = d * (a[p + 1:] - a[p:-1]) / (t[j + d] - t[j])[:, None]
    return c.reshape(c.shape[:2] + y.shape[1:])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(), (7,), (40,), (4, 3)])
def test_fornberg_equals_the_point_major_recursion(shape, m):
    rng = np.random.default_rng(len(shape) * 10 + m)
    x = np.sort(rng.uniform(0.0, 3.0, shape + (5,)), axis=-1)
    z = rng.uniform(0.0, 3.0, shape)
    got, want = fornberg_weights(z, x, m), point_major_fornberg(z, x, m)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("n", [6, 31, 32, 33, 113, 769])
def test_interp_spline_equals_the_loop_by_loop_build(k, n):
    # the same sums in the same order: equal to the last bit
    rng = np.random.default_rng(n + k)
    x = np.cumsum(rng.uniform(0.05, 1.0, n))
    y = rng.normal(size=(n, 2))
    got = interp_spline(x, y, k)
    assert np.array_equal(got.c, einsum_taylor_spline(x, y, k))
