"""Minimize the reduced interaction energy near the k=8 crown.

The functional couples each spike to the boundary through its depth and
to the other spikes through the profile's exponential tail; with
alternating signs the crown balances the two at offset delta*. Starting
from a rotated copy of the crown, the constrained descent walks back to
an equal-chord polygon. Energies are handled as (log|S|, sign) pairs
since S is exponentially small in eps.
"""

import numpy as np

from spikecrown import geometry as geo
from spikecrown import packing as pk
from spikecrown import reduced_energy as red
from spikecrown.ground_state import shoot
from spikecrown.nonlinearity import Nonlinearity


def main():
    disk = geo.PlanarDomain(geo.circle(1.0))
    profile = shoot(Nonlinearity(p=3.0, dim_n=2))
    delta_star, crown = pk.critical_distance(disk, 8)
    eps = delta_star / 12.0
    eta = delta_star / 10.0
    model = red.ReducedEnergyModel(disk, profile, eps, delta_star, eta)

    log_abs, sign, _ = red.evaluate_energy(model, crown)
    print(f"eps = {eps:.6f}, delta* = {delta_star:.6f}")
    print(f"crown energy: sign {sign:+d}, log|S| = {log_abs:.4f}"
          f"  (-eps log|S| = {-eps * log_abs:.4f}, 2 delta* = {2 * delta_star:.4f})")

    # perturb along the curve by a quarter of the margin, then descend;
    # the inner parallel curve shares the boundary's parameter, so the
    # boundary feet are the crown's parameters on it
    gamma = geo.inner_parallel_curve(disk.boundary, delta_star)
    ts = disk.foot(crown.points)
    shifted = [gamma.param_at_arclength(gamma.arclength(t) + eta / 4.0)
               for t in ts]
    init = pk.make_configuration(
        disk, np.array([gamma.point(t) for t in shifted]), signs=crown.signs)

    cfg_min, log_min, trace, stop = red.minimize_energy(model, init)
    print(f"\nminimized in {int(trace[-1][0])} iterations (stop: {stop}), "
          f"log|S| = {log_min:.6f}")
    print("last trace rows (iter, log_M, grad_norm, min_chord, min_dist):")
    for row in trace[-3:]:
        print(f"  {int(row[0]):3d}  {row[1]:+.6f}  {row[2]:.3e}"
              f"  {row[3]:.6f}  {row[4]:.6f}")

    depths = -disk.signed_distance(cfg_min.points)
    pts = cfg_min.points
    chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    print(f"\nmax |depth - delta*| = {np.abs(depths - delta_star).max():.3e}"
          f"  (allowance 5 eps = {5 * eps:.3e})")
    print(f"max |chord - 2 delta*| = {np.abs(chords - 2 * delta_star).max():.3e}")


if __name__ == "__main__":
    main()
