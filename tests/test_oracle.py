import ast
from pathlib import Path

import numpy as np
import pytest

from afgeo import metrics, oracle
from afgeo.grid import RadialGrid

# the modules whose closed forms the oracle checks
CHECKED = ("curvature", "flow", "mass", "norms", "analysis", "corner")


def _point_oracles(g, flat):
    return {"R": lambda r: oracle.scalar_curvature_oracle(g, r),
            "ric2": lambda r: oracle.ricci_norm_sq_oracle(g, r),
            "H": lambda r: oracle.mean_curvature_oracle(g, r),
            "W": lambda r: oracle.deturck_vector_oracle(g, flat, r),
            "flux": lambda r: oracle.flux_quadrature(g, r, npoints=200)}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("label", ["R", "ric2", "H", "W", "flux"])
def test_radius_array_matches_per_radius_calls(n, label):
    grid = RadialGrid.uniform(0.5, 40.0, 1024)
    fun = _point_oracles(metrics.build_conformal(0.4, n, grid),
                         metrics.build_flat(n, grid))[label]
    radii = np.array(grid.snap((2.0, 5.0, 10.0, 20.0)))
    got = fun(radii)
    assert got.shape == radii.shape
    assert got == pytest.approx([fun(r) for r in radii], rel=1e-12, abs=0)


def _imported_modules(tree):
    """Every module an import statement in the tree names, relative
    imports resolved inside the afgeo package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["afgeo" if node.level else None,
                                          node.module]))
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def test_oracle_imports_none_of_the_code_it_checks():
    # grid is not checked: verify checks curvature, flow and mass, none of
    # which reads the spline, and test_interp_spline_matches_scipy pins the
    # spline to scipy's
    imported = _imported_modules(ast.parse(Path(oracle.__file__).read_text()))
    assert "afgeo.grid" in imported  # the resolution sees relative imports
    assert not imported & {f"afgeo.{m}" for m in CHECKED}


def test_no_module_imports_scipy():
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        imported = _imported_modules(ast.parse(path.read_text()))
        assert not {m for m in imported if m.split(".")[0] == "scipy"}, path
