import numpy as np
import pytest

from afgeo.corner import make_corner_grid
from afgeo.grid import RadialGrid
from afgeo import curvature, metrics, oracle


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(0.5, 50.0, 1024)


def test_flat_curvature_zero(grid):
    flat = metrics.build_flat(3, grid)
    assert np.max(np.abs(curvature.scalar_curvature(flat))) < 1e-12
    assert np.max(np.abs(curvature.ricci_norm_sq(flat))) < 1e-12
    k = curvature.sectional(grid.r, curvature.jet(grid, flat.A, flat.B))
    assert np.max(np.abs(k)) < 1e-12


def test_schwarzschild_scalar_flat(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    R = curvature.scalar_curvature(sch)
    sel = grid.r > 2.0  # away from the steep inner boundary layer
    assert np.max(np.abs(R[sel])) < 1e-6  # R identically 0 for this slice
    # but the metric is curved
    k = curvature.sectional(grid.r, curvature.jet(grid, sch.A, sch.B))
    assert np.max(np.abs(k)) > 0.01


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mean_curvature_flat_exact(n):
    g = RadialGrid.uniform(0.5, 50.0, 256)
    flat = metrics.build_flat(n, g)
    H = curvature.mean_curvature(n, g.r, curvature.jet(g, flat.A, flat.B))
    assert H == pytest.approx((n - 1) / g.r, rel=1e-12)


def test_scalar_curvature_matches_oracle(grid):
    m = metrics.build_conformal(0.4, 3, grid)
    R = curvature.scalar_curvature(m)
    for r in (2.0, 5.0):
        i = grid.node_at(r)
        ref = oracle.scalar_curvature_oracle(m, r)
        assert abs(R[i] - ref) / (1 + abs(ref)) < 1e-5


def test_ricci_norm_matches_oracle(grid):
    m = metrics.build_angular_bump(0.3, 3, grid)
    F = curvature.ricci_norm_sq(m)
    i = grid.node_at(2.0)
    ref = oracle.ricci_norm_sq_oracle(m, 2.0)
    assert abs(F[i] - ref) / (1 + abs(ref)) < 1e-5


def test_mean_curvature_matches_oracle(grid):
    m = metrics.build_conformal(0.4, 3, grid)
    i = grid.node_at(5.0)
    H = curvature.mean_curvature(3, grid.r[i],
                                 curvature.jet(grid, m.A, m.B)[:, i])
    ref = oracle.mean_curvature_oracle(m, 5.0)
    assert abs(H - ref) / (1 + abs(ref)) < 1e-6


@pytest.mark.parametrize("kind", ["staggered", "uniform", "geometric",
                                  "corner"])
def test_jet_equals_deriv_bit_for_bit(kind):
    # one gather and one einsum over the stencil table: the sums of deriv
    # in the same order
    g = {"staggered": lambda: RadialGrid.staggered(60.0, 256),
         "uniform": lambda: RadialGrid.uniform(0.5, 300.0, 768),
         "geometric": lambda: RadialGrid.geometric(0.5, 300.0, 1024, 1.008),
         "corner": lambda: make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32,
                                            outer_num=512)}[kind]()
    rng = np.random.default_rng(len(kind))
    A = 1.0 + 0.3 * np.sin(g.r) + 0.01 * rng.normal(size=g.num)
    B = 1.0 + 1.0 / g.r + 0.01 * rng.normal(size=g.num)
    j = curvature.jet(g, A, B)
    assert j.shape == (3, g.num, 2)
    for f, col in ((A, 0), (B, 1)):
        assert j[0, :, col].tobytes() == f.tobytes()
        for k in (1, 2):
            want = g.deriv(f, k, parity=True)
            assert j[k, :, col].tobytes() == want.tobytes()
