import io
import tracemalloc

import numpy as np
import pytest

from afgeo import analysis, heatdemo
from afgeo.grid import MAX_NODES


def gaussian_profile(sigma=2.0, x_max=200.0, dx=0.05):
    num = int(round(2 * x_max / dx))
    x = np.linspace(-x_max, x_max, num + 1)
    f = np.exp(-x ** 2 / (2.0 * sigma ** 2))
    return heatdemo.HeatProfile(x, f, 0.0)


@pytest.fixture(scope="module")
def run():
    p0 = heatdemo.initial_profile()
    times = [0.0, 0.25, 0.5, 1.0]
    profiles = [p0]
    for i in range(1, len(times)):
        profiles.append(heatdemo.heat_evolve(profiles[-1],
                                             times[i] - times[i - 1]))
    return profiles


def test_zero_time_is_identity():
    p0 = heatdemo.initial_profile(x_max=50.0)
    p1 = heatdemo.heat_evolve(p0, 0.0)
    inner = slice(1, -1)
    assert np.array_equal(p0.f[inner], p1.f[inner])


def test_maximum_principle(run):
    cap = np.max(np.abs(run[0].f))
    for p in run[1:]:
        assert np.max(np.abs(p.f)) <= cap + 1e-12


def test_integral_conserved(run):
    vals = [np.trapezoid(p.f, p.x) for p in run]
    scale = np.trapezoid(np.abs(run[0].f), run[0].x)
    assert all(abs(v - vals[0]) <= 1e-6 * scale for v in vals[1:])


def test_gaussian_variance_grows_by_2t():
    p0 = gaussian_profile(sigma=2.0, x_max=60.0)
    T = 0.5
    p1 = heatdemo.heat_evolve(p0, T)

    def variance(p):
        m = np.trapezoid(p.f, p.x)
        return np.trapezoid(p.x ** 2 * p.f, p.x) / m

    growth = variance(p1) - variance(p0)
    assert growth == pytest.approx(2.0 * T, rel=1e-2)


def test_initial_annulus_sup_near_one():
    p0 = heatdemo.initial_profile()
    vals = dict(heatdemo.decay_profile(p0, 0))  # the annulus [20, 40]
    assert 0.95 <= vals[20.0] <= 1.0


def test_decay_floor_and_ceiling(run):
    # sup x^2 |f| stays within [0.05, 1.1] on every annulus at every time
    for p in run:
        for _, v in heatdemo.decay_profile(p, 0):
            assert 0.05 <= v <= 1.1


def test_first_derivative_floor(run):
    late = run[-1]
    for _, v in heatdemo.decay_profile(late, 1):
        assert v >= 0.05


def test_second_order_convergence():
    T = 0.1

    def solve(dx):
        p0 = heatdemo.initial_profile(x_max=30.0, dx=dx)
        return heatdemo.heat_evolve(p0, T)

    ref = solve(0.0125)
    errs = []
    for dx in (0.05, 0.025):
        p = solve(dx)
        stride = int(round(dx / 0.0125))
        errs.append(np.max(np.abs(p.f - ref.f[::stride])))
    assert errs[0] / errs[1] > 3.0


def test_csv_table(run):
    buf = io.StringIO()
    rows = heatdemo.decay_table(run)
    analysis.MonitorReport("heat_decay", True, {}, {}, rows).write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,X,sup_k0,sup_k1,sup_k2"
    assert len(lines) == 1 + len(rows)
    n_annuli = len(heatdemo.dyadic_annuli(run[0].x_max))
    assert len(rows) == len(run) * n_annuli


def test_profile_beyond_max_nodes_is_refused_before_allocating():
    # 2 x_max / dx = MAX_NODES cells make MAX_NODES + 1 nodes: refused from
    # the count, with no array made
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_NODES"):
            heatdemo.initial_profile(x_max=MAX_NODES / 2 * 0.05, dx=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
