"""Full pipeline on a small case: 4 alternating spikes on the unit disk.

pack -> minimize -> assemble the ansatz -> Newton on the cut-cell
discretization. The converged field should keep exactly k peaks of
alternating sign near the crown, each with amplitude close to the
profile's w(0), and the discrete energy should sit near k * e1 * eps^2.
"""

import numpy as np

from spikecrown import geometry as geo
from spikecrown import packing as pk
from spikecrown import pde
from spikecrown import reduced_energy as red
from spikecrown.ground_state import normalization_constants, shoot
from spikecrown.nonlinearity import Nonlinearity


def main():
    disk = geo.PlanarDomain(geo.circle(1.0))
    nl = Nonlinearity(p=3.0, dim_n=2)
    profile = shoot(nl)
    e1, _ = normalization_constants(profile)

    k = 4
    delta_star, crown = pk.critical_distance(disk, k)
    eps = delta_star / 8.0
    print(f"k = {k}, delta* = {delta_star:.6f}, eps = delta*/8 = {eps:.6f}")

    model = red.ReducedEnergyModel(disk, profile, eps, delta_star,
                                   delta_star / 10.0)
    cfg_min, _, trace, stop = red.minimize_energy(model, crown)
    print(f"energy minimized in {int(trace[-1][0])} iterations (stop: {stop})")

    grid = pde.discretize(disk, eps / 4.0)
    print(f"grid: {grid.n_nodes} unknowns at h = {grid.h:.5f}, "
          f"{grid.n_reclassified} rim node(s) reclassified exterior")

    ansatz = pde.assemble_ansatz(grid, profile, eps, cfg_min)
    sol, hist = pde.newton_solve(grid, nl, eps, ansatz)
    print(f"Newton: {len(hist) - 1} iterations, "
          f"residual {hist[0]:.2e} -> {hist[-1]:.2e}")

    peaks = pde.extract_peaks(grid, sol, expected=k)
    print("\npeaks (x, y, sign, amplitude):")
    for loc, sign, amp in peaks:
        print(f"  {loc[0]:+.6f}  {loc[1]:+.6f}  {sign:+d}  {amp:.6f}")
    print(f"profile amplitude w(0) = {profile.w0:.6f}")

    energy = pde.discrete_energy(grid, nl, eps, sol)
    print(f"\ndiscrete energy = {energy:.8f}"
          f"  (k e1 eps^2 = {k * e1 * eps ** 2:.8f})")


if __name__ == "__main__":
    main()
