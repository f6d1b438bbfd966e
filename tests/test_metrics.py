import math

import numpy as np
import pytest

from afgeo.grid import RadialGrid, rho_weight
from afgeo import metrics


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(0.5, 100.0, 512)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_metric_refuses_coefficients_not_finite(grid, bad):
    A = np.ones_like(grid.r)
    A[7] = bad
    for fields in ((A, np.ones_like(A)), (np.ones_like(A), A)):
        with pytest.raises(ValueError, match="finite"):
            metrics.RadialMetric(grid, 3, *fields)


def test_flat(grid):
    flat = metrics.build_flat(3, grid)
    assert np.all(flat.A == 1.0) and np.all(flat.B == 1.0)


def test_schwarzschild_values(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    i = grid.node_at(100.0)
    assert sch.A[i] == pytest.approx((1 + 1 / 200) ** 4, rel=1e-14)
    assert sch.n == 3 and sch.delta == 1.0
    with pytest.raises(ValueError):
        metrics.build_schwarzschild_isotropic(-1.0, 3, grid)
    with pytest.raises(ValueError, match="staggered"):
        metrics.build_schwarzschild_isotropic(
            1.0, 3, RadialGrid.uniform(0.0, 10.0, 64))


@pytest.mark.parametrize("n", [4, 5])
def test_schwarzschild_in_higher_dimensions(grid, n):
    # Tangherlini in isotropic coordinates: u^(4/(n-2)), u = 1 + m/(2 r^(n-2))
    sch = metrics.build_schwarzschild_isotropic(2.0, n, grid)
    r = grid.r[50]
    assert sch.A[50] == pytest.approx((1 + 1 / r ** (n - 2)) ** (4 / (n - 2)),
                                      rel=1e-14)
    assert np.array_equal(sch.A, sch.B)
    assert sch.n == n and sch.delta == n - 2


def test_conformal_positive_and_decay(grid):
    m = metrics.build_conformal(0.5, 4, grid)
    assert np.all(m.A > 0)
    assert m.delta == 2.0
    # decay at the rate delta: rho^delta (|A-1| + |B-1|) stays bounded on
    # the outer half of the grid
    half = grid.num // 2
    dev = np.abs(m.A[half:] - 1.0) + np.abs(m.B[half:] - 1.0)
    assert np.max(rho_weight(grid.r[half:]) ** m.delta * dev) < 10.0
    with pytest.raises(ValueError):
        metrics.build_conformal(-2.0, 3, grid)


def test_validation(grid):
    with pytest.raises(ValueError):
        metrics.RadialMetric(grid, 2, np.ones(grid.num), np.ones(grid.num))
    with pytest.raises(ValueError):
        metrics.RadialMetric(grid, 3, -np.ones(grid.num), np.ones(grid.num))


def test_distorted_flat_is_kinked_but_flat(grid):
    m = metrics.build_distorted_flat(3, grid, kink_radius=3.0, amp=0.05)
    # identity beyond the kink
    far = grid.r > 3.0
    assert np.max(np.abs(m.A[far] - 1.0)) < 1e-14
    assert np.max(np.abs(m.B[far] - 1.0)) < 1e-14
    # continuous but with a derivative jump at the kink radius
    assert np.all(np.diff(metrics.radial_kink_map(grid.r, 3.0, 0.05)) > 0)
    with pytest.raises(ValueError):
        metrics.build_distorted_flat(3, grid, amp=2.0)


def test_flat_volume_density_integrates_to_ball_volume():
    grid = RadialGrid.uniform(1e-9, 2.0, 2001)
    for n in (3, 4, 5):
        vol = grid.trapz(metrics.build_flat(n, grid).volume_density())
        ball = math.pi ** (n / 2) * 2.0 ** n / math.gamma(n / 2 + 1)
        assert vol == pytest.approx(ball, rel=1e-6)
