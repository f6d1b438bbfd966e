import numpy as np
import pytest

from afgeo.grid import RadialGrid
from afgeo import metrics, norms


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.geometric(0.5, 300.0, 1024, ratio=1.008)


def test_zero_field(grid):
    rep = norms.weighted_norm(norms.field_diff(grid, np.zeros(grid.num)), 2, 0.25, 1.0)
    assert rep.total == 0.0


def test_rho_decay_unit_sup(grid):
    f = grid.rho() ** (-1.5)
    rep = norms.weighted_norm(norms.field_diff(grid, f), 0, 0.25, 1.5)
    assert rep.sup_terms[0] == pytest.approx(1.0, abs=1e-6)


def test_schwarzschild_minus_flat_stable_under_refinement():
    vals = []
    for num, ratio in ((1024, 1.008), (2048, 1.004)):
        g = RadialGrid.geometric(0.5, 300.0, num, ratio)
        d = norms.metric_diff(metrics.build_schwarzschild_isotropic(1.0, g),
                              metrics.build_flat(3, g))
        vals.append(norms.weighted_norm(d, 1, 0.25, 1.0).total)
    assert np.isfinite(vals[0])
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


def test_norm_axioms_random_fields(grid):
    rng = np.random.default_rng(0)
    a = rng.normal(size=grid.num)
    b = rng.normal(size=grid.num)
    na = norms.weighted_norm(norms.field_diff(grid, a), 1, 0.25, 1.0).total
    nb = norms.weighted_norm(norms.field_diff(grid, b), 1, 0.25, 1.0).total
    nab = norms.weighted_norm(norms.field_diff(grid, a + b), 1, 0.25, 1.0).total
    nsa = norms.weighted_norm(norms.field_diff(grid, 3.0 * a), 1, 0.25, 1.0).total
    assert nab <= na + nb + 1e-12 * (na + nb)
    assert abs(nsa - 3.0 * na) <= 1e-12 * nsa


def test_k_cap(grid):
    with pytest.raises(ValueError):
        norms.weighted_norm(norms.field_diff(grid, np.zeros(grid.num)), 3, 0.25, 1.0)


def test_fairness_decisions(grid):
    h = metrics.build_flat(3, grid)
    two = metrics.RadialMetric(grid, 3, 2.0 * h.A, 2.0 * h.B, 1.0)
    assert norms.is_delta_fair(h, h, 1.0)[0]
    ok, rng_ = norms.is_delta_fair(h, two, 1.5)
    assert not ok and rng_[1] == pytest.approx(2.0)
    assert norms.is_delta_fair(h, two, 2.0)[0]
    with pytest.raises(ValueError):
        norms.is_delta_fair(h, h, 0.5)


def test_metric_diff_requires_shared_grid(grid):
    other = RadialGrid.uniform(0.5, 300.0, 1024)
    with pytest.raises(ValueError):
        norms.metric_diff(metrics.build_flat(3, grid), metrics.build_flat(3, other))


def test_eta_sup_norms_decay_pattern(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, grid)
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
    sups = norms.weighted_norm(norms.metric_diff(g, h), 2, 0.25, 1.0).sup_terms
    assert np.array_equal(got, sups)
