import numpy as np
import pytest

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
    H = curvature.mean_curvature(3, grid.r[i], [
        f[i] for f in curvature.jet(grid, m.A, m.B)])
    ref = oracle.mean_curvature_oracle(m, 5.0)
    assert abs(H - ref) / (1 + abs(ref)) < 1e-6
