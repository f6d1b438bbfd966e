"""Smoothing a corner metric along an epsilon ladder.

A Schwarzschild base is given a mean-curvature jump H(-) > H(+) at r0 = 4;
mollification produces smooth metrics whose scalar-curvature negative part
vanishes with epsilon. Flipping the jump sign leaves a negative-part floor.
"""

from afgeo import corner, metrics


def main():
    grid = corner.make_corner_grid(0.5, 4.0, 300.0, fine_dr=1.0 / 32,
                                   outer_num=512)
    base = metrics.build_schwarzschild_isotropic(1.0, 3, grid)
    for strength in (0.1, -0.1):
        cm = corner.corner_example(base, 4.0, strength)
        Hm, Hp, ok = corner.corner_condition(cm)
        print(f"strength={strength:+g}: H(-)={Hm:.6f} H(+)={Hp:.6f} "
              f"jump condition {'holds' if ok else 'violated'}")
        for eps in (1e-1, 1e-2, 1e-3):
            _, cert = corner.mollify(cm, eps)
            print(f"  eps={eps:g}: certificate "
                  f"{'pass' if cert.satisfied else 'FAIL'} "
                  f"neg_part={cert.neg_part:.3e} K={cert.K_measured:.3f}")


if __name__ == "__main__":
    main()
