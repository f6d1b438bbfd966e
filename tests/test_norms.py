import numpy as np
import pytest

from afgeo.grid import RadialGrid
from afgeo import metrics, norms


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.geometric(0.5, 300.0, 1024, ratio=1.008)


def _sups(grid, f, delta=1.0):
    """eta_sup_norms of the field f as eta_A over flat space (eta_B = 0)."""
    h = metrics.build_flat(3, grid)
    g = metrics.RadialMetric(grid, 3, h.A + f, h.B.copy())
    return norms.eta_sup_norms(g, h, delta)


def test_zero_field(grid):
    assert np.array_equal(_sups(grid, np.zeros(grid.num)), np.zeros(3))


def test_rho_decay_unit_sup(grid):
    sup0 = _sups(grid, grid.rho() ** (-1.5), 1.5)[0]
    assert sup0 == pytest.approx(1.0, abs=1e-6)


def test_schwarzschild_minus_flat_stable_under_refinement():
    vals = []
    for num, ratio in ((1024, 1.008), (2048, 1.004)):
        g = RadialGrid.geometric(0.5, 300.0, num, ratio)
        sch = metrics.build_schwarzschild_isotropic(1.0, 3, g)
        vals.append(norms.eta_sup_norms(sch, metrics.build_flat(3, g), 1.0))
    assert np.all(np.isfinite(vals[0]))
    assert np.all(np.abs(vals[1] - vals[0]) < 0.02 * vals[0])


def test_norm_axioms_random_fields(grid):
    # each sup term is a seminorm: triangle inequality and exact scaling
    rng = np.random.default_rng(0)
    a = 0.05 * rng.normal(size=grid.num)
    b = 0.05 * rng.normal(size=grid.num)
    na, nb, nab, nsa = (_sups(grid, f) for f in (a, b, a + b, 3.0 * a))
    assert np.all(nab <= (na + nb) * (1 + 1e-12))
    assert np.all(np.abs(nsa - 3.0 * na) <= 1e-12 * nsa)


def test_fairness_decisions(grid):
    h = metrics.build_flat(3, grid)
    two = metrics.RadialMetric(grid, 3, 2.0 * h.A, 2.0 * h.B, 1.0)
    assert norms.is_delta_fair(h, h, 1.0)[0]
    ok, rng_ = norms.is_delta_fair(h, two, 1.5)
    assert not ok and rng_[1] == pytest.approx(2.0)
    assert norms.is_delta_fair(h, two, 2.0)[0]
    with pytest.raises(ValueError):
        norms.is_delta_fair(h, h, 0.5)


def test_eta_sup_norms_decay_pattern(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    flat = metrics.build_flat(3, grid)
    w = norms.eta_sup_norms(sch, flat, 1.0)
    assert np.all(np.isfinite(w)) and np.all(w > 0)


def test_eta_sup_norms_weight_jth_derivative_by_rho_delta_plus_j():
    # eta_A = r^2: the stencils are exact on it, and rho = r at r_max = 10
    grid = RadialGrid.uniform(0.5, 10.0, 256)
    h = metrics.build_flat(3, grid)
    g = metrics.RadialMetric(grid, 3, 1.0 + grid.r ** 2, np.ones(grid.num))
    got = norms.eta_sup_norms(g, h, 1.0)
    assert got == pytest.approx([1e3, 2e3, 2e3], rel=1e-9)
