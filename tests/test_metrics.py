import io
import math

import numpy as np
import pytest

from afgeo.grid import RadialGrid
from afgeo import metrics


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(0.5, 100.0, 512)


def test_flat(grid):
    flat = metrics.build_flat(3, grid)
    assert np.all(flat.A == 1.0) and np.all(flat.B == 1.0)
    assert flat.measured_kappa() == 0.0


def test_schwarzschild_values(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, grid)
    i = grid.node_at(100.0)
    assert sch.A[i] == pytest.approx((1 + 1 / 200) ** 4, rel=1e-14)
    assert sch.n == 3 and sch.delta == 1.0
    with pytest.raises(ValueError):
        metrics.build_schwarzschild_isotropic(-1.0, grid)
    with pytest.raises(ValueError):
        metrics.build_schwarzschild_isotropic(1.0, RadialGrid.uniform(0.0, 10.0, 64))


def test_conformal_positive_and_decay(grid):
    m = metrics.build_conformal(0.5, 4, grid)
    assert np.all(m.A > 0)
    assert m.delta == 2.0
    # kappa finite: rho^delta deviation bounded
    assert m.measured_kappa() < 10.0
    with pytest.raises(ValueError):
        metrics.build_conformal(-2.0, 3, grid)


def test_validation(grid):
    with pytest.raises(ValueError):
        metrics.RadialMetric(grid, 2, np.ones(grid.num), np.ones(grid.num))
    with pytest.raises(ValueError):
        metrics.RadialMetric(grid, 3, -np.ones(grid.num), np.ones(grid.num))


def test_smooth_center_check():
    g0 = RadialGrid.uniform(0.0, 10.0, 256)
    m = metrics.build_conformal(0.5, 3, g0)
    assert m.check_smooth_center()
    bad = m.copy()
    bad.B = bad.B * (1.0 + 0.1 * g0.r)  # odd component: kink at origin
    assert not bad.check_smooth_center()


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


def test_dump_load_roundtrip(grid):
    m = metrics.build_schwarzschild_isotropic(1.0, grid)
    text = m.dumps()
    assert text.startswith("# n=3 delta=1\n")
    back = metrics.RadialMetric.load(io.StringIO(text))
    assert back.n == m.n and back.delta == m.delta
    assert np.array_equal(back.A, m.A) and np.array_equal(back.B, m.B)
    assert np.array_equal(back.grid.r, grid.r)


def test_flat_volume_density_integrates_to_ball_volume():
    grid = RadialGrid.uniform(0.0, 2.0, 2001)
    for n in (3, 4, 5):
        vol = grid.trapz(metrics.build_flat(n, grid).volume_density())
        ball = math.pi ** (n / 2) * 2.0 ** n / math.gamma(n / 2 + 1)
        assert vol == pytest.approx(ball, rel=1e-6)
