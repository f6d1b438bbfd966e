"""Mass of the Schwarzschild slice from its flux ladder.

The unnormalized mass flux through coordinate spheres converges to 16 pi m
as the radius grows; the polynomial in 1/r through the ladder, read at
1/r = 0, extrapolates it, with the leave-one-out spread as mass_err.
"""

import numpy as np

from afgeo import mass, metrics
from afgeo.grid import RadialGrid


def main():
    grid = RadialGrid.staggered(300.0, 2048)
    g = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    radii = grid.snap((50.0, 100.0, 200.0))
    rep = mass.adm_mass(g, radii)
    print("flux ladder for Schwarzschild m=1 (target 16 pi = %.6f):" % (16 * np.pi))
    for line in rep.lines():
        print(" ", line)
    exact = [16 * np.pi * (1 + 0.5 / r) ** 3 for r in radii]
    for r, e in zip(radii, exact):
        print(f"  closed-form flux at r={r:.4g}: {e:.6f}")


if __name__ == "__main__":
    main()
