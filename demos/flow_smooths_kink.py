"""Zero-mass rigidity at desk scale.

Flat space written in kinked radial coordinates has zero mass and vanishing
distributional curvature. The background-gauged flow smooths the kink; the
extracted diffeomorphism pulls the evolved metric back onto the initial data.
"""

import numpy as np

from afgeo import curvature, flow, mass, metrics
from afgeo.grid import RadialGrid


def main():
    grid = RadialGrid.staggered(60.0, 1024)
    g0 = metrics.build_distorted_flat(3, grid, kink_radius=3.0, amp=0.05,
                                      smooth_width=6 * grid.dr_min)
    h = metrics.build_flat(3, grid)
    radii = grid.snap((30.0, 42.0, 54.0))
    print("mass of the kinked metric:", mass.adm_mass(g0, radii).mass)
    traj = flow.evolve(g0, h, flow.FlowConfig(T_final=0.05, monitor_every=10,
                                              fairness=1.2))
    sel = grid.r < 48.0
    for s in traj.snapshots[:: max(1, len(traj.snapshots) // 6)]:
        R = curvature.scalar_curvature(s.metric)
        print(f"t={s.t:.4f}  sup|R|={np.max(np.abs(R[sel])):.3e}  "
              f"sup|grad eta|={s.diagnostics['max_grad_eta']:.3e}")
    phi = flow.extract_diffeomorphism(traj)
    pb = flow.pullback(traj.snapshots[-1].metric, phi.at_time(0.0))
    err = np.max(np.abs(pb.B - g0.B)[4:-4])
    print("round-trip C0 error (B):", err)


if __name__ == "__main__":
    main()
