import numpy as np
import pytest

from afgeo.grid import RadialGrid, rho_weight
from afgeo import metrics, norms


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.geometric(0.5, 300.0, 1024, ratio=1.008)


def sup_norms(g, h, delta):
    """eta_sup_norms of eta = g - h."""
    return norms.eta_sup_norms(g.grid, np.stack([g.A - h.A, g.B - h.B], -1),
                               delta)


def _sups(grid, f, delta=1.0):
    """eta_sup_norms of the field f as eta_A over flat space (eta_B = 0)."""
    h = metrics.build_flat(3, grid)
    g = metrics.RadialMetric(grid, 3, h.A + f, h.B.copy())
    return sup_norms(g, h, delta)


def test_zero_field(grid):
    assert np.array_equal(_sups(grid, np.zeros(grid.num)), np.zeros(3))


def test_rho_decay_unit_sup(grid):
    sup0 = _sups(grid, rho_weight(grid.r) ** (-1.5), 1.5)[0]
    assert sup0 == pytest.approx(1.0, abs=1e-6)


def test_schwarzschild_minus_flat_stable_under_refinement():
    vals = []
    for num, ratio in ((1024, 1.008), (2048, 1.004)):
        g = RadialGrid.geometric(0.5, 300.0, num, ratio)
        sch = metrics.build_schwarzschild_isotropic(1.0, 3, g)
        vals.append(sup_norms(sch, metrics.build_flat(3, g), 1.0))
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
    assert norms.fairness_ratios(h, h.A, h.B, 1.0)[0]
    ok, rng_ = norms.fairness_ratios(h, two.A, two.B, 1.5)
    assert not ok and rng_[1] == pytest.approx(2.0)
    assert norms.fairness_ratios(h, two.A, two.B, 2.0)[0]


def test_eta_sup_norms_decay_pattern(grid):
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    flat = metrics.build_flat(3, grid)
    w = sup_norms(sch, flat, 1.0)
    assert np.all(np.isfinite(w)) and np.all(w > 0)


def test_eta_sup_norms_weight_jth_derivative_by_rho_delta_plus_j():
    # eta_A = r^2: the stencils are exact on it, and rho = r at r_max = 10
    grid = RadialGrid.uniform(0.5, 10.0, 256)
    h = metrics.build_flat(3, grid)
    g = metrics.RadialMetric(grid, 3, 1.0 + grid.r ** 2, np.ones(grid.num))
    got = sup_norms(g, h, 1.0)
    assert got == pytest.approx([1e3, 2e3, 2e3], rel=1e-9)


def per_field_sup_norms(g, h, delta):
    """eta_sup_norms field by field: sup rho^(delta+j) |d^j f| for each of
    f = A - A_h and B - B_h from deriv, then the larger of the two."""
    rho = rho_weight(g.grid.r)
    terms = []
    for f in (g.A - h.A, g.B - h.B):
        derivs = [f] + [g.grid.deriv(f, j, parity=True) for j in (1, 2)]
        terms.append([np.max(rho ** (delta + j) * np.abs(d))
                      for j, d in enumerate(derivs)])
    return np.max(terms, axis=0)


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_eta_sup_norms_equal_the_per_field_reference(grid, delta):
    # one jet of eta: the same products and maxima, bit for bit, with the
    # larger noise on A, then on B, so that each field sets the maxima
    sch = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    flat = metrics.build_flat(3, grid)
    rng = np.random.default_rng(1)
    nA, nB = rng.normal(size=(2, grid.num))
    for sA, sB in ((0.02, 0.01), (0.01, 0.02)):
        g = metrics.RadialMetric(grid, 3, sch.A + sA * nA, sch.B + sB * nB,
                                 delta)
        for a, b in ((g, flat), (g, sch), (sch, g)):
            got = sup_norms(a, b, delta)
            want = per_field_sup_norms(a, b, delta)
            assert got.shape == (3,) and got.tobytes() == want.tobytes()
