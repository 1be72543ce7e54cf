"""Lattice discretization, Dirichlet projection, and Newton solves.

Oracles: the area law for node counts, the discrete maximum principle,
exact lattice symmetries (orbit variance, mirror maps), the profile
height w(0) for spike amplitudes, and the per-spike limit energy from
normalization_constants. Solver outputs are deterministic, so iteration
counts and trend values are frozen from direct runs.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spikecrown.geometry as geo
import spikecrown.packing as pk
import spikecrown.pde as pde
import spikecrown.reduced_energy as red
from spikecrown.errors import (ConfigError, NewtonStallError, NumericalError,
                               PeakCountError)
from spikecrown.ground_state import normalization_constants
from spikecrown.nonlinearity import Nonlinearity

NL = Nonlinearity(p=3.0, dim_n=2)


@pytest.fixture(scope="module")
def disk():
    return geo.PlanarDomain(geo.circle(1.0))


@pytest.fixture(scope="module")
def grid_m(disk):
    # h=0.025 resolves eps=0.1
    return pde.discretize(disk, 0.025)


@pytest.fixture(scope="module")
def proj_center(grid_m, profile_p3n2):
    return pde.solve_projection(grid_m, profile_p3n2, 0.1, (0.0, 0.0))


@pytest.fixture(scope="module")
def pair2(disk, grid_m, profile_p3n2):
    """Antipodal two-spike run at eps = depth/5: ansatz, solution, history."""
    cfg = pk.make_configuration(disk, np.array([[0.5, 0.0], [-0.5, 0.0]]))
    ans = pde.assemble_ansatz(grid_m, profile_p3n2, 0.1, cfg)
    sol, hist = pde.newton_solve(grid_m, NL, 0.1, ans)
    return {"cfg": cfg, "ans": ans, "sol": sol, "hist": hist}


@pytest.fixture(scope="module")
def singles(disk, profile_p3n2):
    """Single centered spike solved at eps in {0.12, 0.08, 0.05}, h = eps/4."""
    out = {}
    cfg = SimpleNamespace(points=np.array([[0.0, 0.0]]), signs=np.array([1.0]))
    for eps in (0.12, 0.08, 0.05):
        g = pde.discretize(disk, eps / 4.0)
        ans = pde.assemble_ansatz(g, profile_p3n2, eps, cfg)
        sol, hist = pde.newton_solve(g, NL, eps, ans)
        out[eps] = {"grid": g, "sol": sol, "hist": hist,
                    "J": pde.discrete_energy(g, NL, eps, sol)}
    return out


@pytest.fixture(scope="module")
def crown10(disk, profile_p3n2):
    """Four-spike crown at eps = delta*/10, Newton from the minimized ansatz."""
    ds, crown = pk.critical_distance(disk, 4)
    eps = ds / 10.0
    g = pde.discretize(disk, eps / 4.0)
    model = red.ReducedEnergyModel(disk, profile_p3n2, eps, ds, ds / 10.0)
    cfg_min = red.minimize_energy(model, crown)[0]
    ans_raw = pde.assemble_ansatz(g, profile_p3n2, eps, crown)
    ans_min = pde.assemble_ansatz(g, profile_p3n2, eps, cfg_min)
    sol, hist = pde.newton_solve(g, NL, eps, ans_min)
    return {"ds": ds, "eps": eps, "grid": g, "crown": crown, "model": model,
            "ans_raw": ans_raw, "sol": sol, "hist": hist,
            "peaks": pde.extract_peaks(g, sol, expected=4)}


def mirror_rows(grid):
    """Row permutation sending the node at x to the node at -x."""
    lut = {(i, j): row for row, (i, j) in enumerate(grid.abs_index())}
    return np.array([lut[(-i, -j)] for (i, j) in grid.abs_index()])


def zero_field(grid, eps=0.1):
    return pde.DiscreteField(grid, eps, np.zeros(grid.n_nodes))


# ---- discretize


def test_node_count_matches_area_law(disk):
    g = pde.discretize(disk, 0.02)
    # the rim passes through lattice nodes such as (1, 0) = (50h, 0)
    assert g.n_reclassified > 0
    area_nodes = np.pi / 0.02 ** 2
    # measured 7825 nodes against 7853.98, off by 0.37%
    assert abs(g.n_nodes - area_nodes) < 0.01 * area_nodes
    center = g.index[-g.i0, -g.j0]
    assert center >= 0
    assert not g.is_adjacent[center]
    # a lattice point beyond the rim carries no unknown
    assert g.index[int(round(1.02 / 0.02)) - g.i0, -g.j0] == -1


def test_discretize_rejects_coarse_or_bad_spacing(disk):
    with pytest.raises(ConfigError):
        pde.discretize(disk, 0.05)  # inradius/20 exactly
    with pytest.raises(ConfigError):
        pde.discretize(disk, -0.01)


def test_field_validation(grid_m):
    with pytest.raises(ConfigError):
        pde.DiscreteField(grid_m, 0.1, np.zeros(3))
    bad = np.zeros(grid_m.n_nodes)
    bad[0] = np.nan
    with pytest.raises(NumericalError):
        pde.DiscreteField(grid_m, 0.1, bad)


def test_resolution_guard(grid_m, profile_p3n2):
    cfg = SimpleNamespace(points=np.array([[0.0, 0.0]]), signs=np.array([1.0]))
    with pytest.raises(ConfigError, match="too coarse"):
        pde.assemble_ansatz(grid_m, profile_p3n2, 0.05, cfg)


def test_projection_depth_guard(grid_m, profile_p3n2):
    with pytest.raises(ConfigError, match="depth"):
        pde.boundary_correction(grid_m, profile_p3n2, 0.1, (0.96, 0.0))


# ---- linear projection


def test_projection_below_free_profile(grid_m, profile_p3n2, proj_center):
    # maximum principle twice over: the boundary layer w_free - w_proj
    # stays strictly positive, and the projected spike stays positive
    free = profile_p3n2.value(np.linalg.norm(grid_m.xy, axis=1) / 0.1)
    layer = free - proj_center.values
    assert layer.min() > 0.0
    assert proj_center.values.min() > 0.0


def test_projection_radially_symmetric(grid_m, proj_center):
    # nodes in one dihedral orbit sit at exactly the same radius, so the
    # centered solve must give them equal values up to roundoff
    ij = grid_m.abs_index()
    key = np.stack([np.maximum(np.abs(ij[:, 0]), np.abs(ij[:, 1])),
                    np.minimum(np.abs(ij[:, 0]), np.abs(ij[:, 1]))], axis=1)
    _, inv, cnt = np.unique(key, axis=0, return_inverse=True,
                            return_counts=True)
    worst = 0.0
    for orb in np.flatnonzero(cnt >= 4):
        vals = proj_center.values[inv == orb]
        m = vals.mean()
        if abs(m) > 0.0:
            worst = max(worst, vals.var() / (m * m))
    assert worst < 1e-6  # measured 4.4e-28


# ---- ansatz assembly


def test_ansatz_odd_under_point_reflection(grid_m, pair2):
    vals = pair2["ans"].values
    assert np.abs(vals + vals[mirror_rows(grid_m)]).max() < 1e-12


def test_ansatz_height_matches_profile(grid_m, profile_p3n2, pair2):
    ans = pair2["ans"]
    w0 = profile_p3n2.value(0.0)
    # spikes at +-0.5 sit on lattice nodes; the only deficit is the
    # opposite spike's tail w(10) = 1.54e-4
    assert abs(ans.sup_norm() - w0) < 1e-3
    top = grid_m.xy[int(np.abs(ans.values).argmax())]
    assert min(np.linalg.norm(top - p) for p in pair2["cfg"].points) <= grid_m.h


def test_ansatz_boundary_trace_bound(grid_m, profile_p3n2, pair2):
    # every boundary-adjacent node is at least depth - h from each spike
    trace = np.abs(pair2["ans"].values[grid_m.is_adjacent]).max()
    bound = 2.0 * float(np.exp(profile_p3n2.log_value((0.5 - grid_m.h) / 0.1)))
    assert trace <= bound


# ---- newton solve


def test_newton_zero_init_stays_zero(grid_m):
    sol, hist = pde.newton_solve(grid_m, NL, 0.1, zero_field(grid_m))
    assert sol.sup_norm() == 0.0
    assert hist.tolist() == [0.0]


def test_newton_ladder_factorizes_each_matrix_once(grid_m, monkeypatch):
    # unit-variance noise exhausts all three damping stages; stage 2 must
    # start above the stage-0 damping it follows, not repeat its matrix
    seen = []
    real_splu = pde.spla.splu

    def splu(M):
        seen.append((M.data.tobytes(), M.indices.tobytes(), M.indptr.tobytes()))
        return real_splu(M)

    monkeypatch.setattr(pde, "spla", SimpleNamespace(splu=splu))
    noise = np.random.default_rng(1).standard_normal(grid_m.n_nodes)
    with pytest.raises(NewtonStallError, match="damping exhausted"):
        pde.newton_solve(grid_m, NL, 0.1, pde.DiscreteField(grid_m, 0.1, noise))
    assert len(set(seen)) == len(seen)


def test_newton_single_spike(singles, profile_p3n2):
    run = singles[0.08]
    w0 = profile_p3n2.value(0.0)
    assert run["hist"][-1] < 1e-10
    assert len(run["hist"]) - 1 <= 5  # measured 3 iterations
    assert run["sol"].values.min() > 0.0
    peaks = pde.extract_peaks(run["grid"], run["sol"], expected=1)
    assert abs(peaks[0][2] - w0) / w0 < 0.02  # measured +4.4e-3


def test_single_peak_found_at_center(singles):
    run = singles[0.05]
    peaks = pde.extract_peaks(run["grid"], run["sol"], expected=1)
    assert peaks[0][1] == 1
    assert np.linalg.norm(peaks[0][0]) <= 2.0 * run["grid"].h


def test_single_spike_energy_trend(singles, profile_p3n2):
    e1, _ = normalization_constants(profile_p3n2)
    vals = [singles[eps]["J"] / eps ** 2 for eps in (0.12, 0.08, 0.05)]
    # frozen: 7.7136152, 7.7135739, 7.7135739 against e1 = 7.7508
    assert np.all(np.diff(vals) < 0.0)
    assert abs(vals[-1] - e1) < 0.05 * e1


def test_grid_refinement_is_second_order(disk, profile_p3n2):
    eps = 0.12
    cfg = SimpleNamespace(points=np.array([[0.0, 0.0]]), signs=np.array([1.0]))
    sols = {}
    for h in (0.03, 0.015, 0.0075):
        g = pde.discretize(disk, h)
        ans = pde.assemble_ansatz(g, profile_p3n2, eps, cfg)
        sols[h] = (g, pde.newton_solve(g, NL, eps, ans)[0])

    def shared_sup(coarse, fine):
        gc, vc = coarse[0], coarse[1].values
        gf, vf = fine[0], fine[1].values
        lut = {(i, j): r for r, (i, j) in enumerate(gc.abs_index())}
        worst = 0.0
        for r, (i, j) in enumerate(gf.abs_index()):
            if i % 2 == 0 and j % 2 == 0 and (i // 2, j // 2) in lut:
                worst = max(worst, abs(vc[lut[(i // 2, j // 2)]] - vf[r]))
        return worst

    d_coarse = shared_sup(sols[0.03], sols[0.015])
    d_fine = shared_sup(sols[0.015], sols[0.0075])
    assert 3.2 < d_coarse / d_fine < 4.8  # measured 4.12


def test_newton_inherits_init_symmetry(grid_m, pair2, profile_p3n2):
    sol, hist = pair2["sol"], pair2["hist"]
    assert hist[-1] < 1e-10
    # odd init on a mirror-symmetric lattice: the solution keeps the
    # oddness far below the 1e-8 budget (measured 2.7e-11)
    assert np.abs(sol.values + sol.values[mirror_rows(grid_m)]).max() < 1e-8
    peaks = pde.extract_peaks(grid_m, sol, expected=2)
    assert peaks[0][1] * peaks[1][1] == -1
    w0 = profile_p3n2.value(0.0)
    for loc, _, amp in peaks:
        assert abs(amp - w0) / w0 < 0.02
        assert min(np.linalg.norm(loc - p) for p in pair2["cfg"].points) <= 2 * grid_m.h


def test_peak_count_guard(grid_m, pair2):
    with pytest.raises(PeakCountError):
        pde.extract_peaks(grid_m, pair2["sol"], expected=3)


# ---- zero-field trivia


def test_zero_field_is_inert(grid_m):
    z = zero_field(grid_m)
    assert pde.residual_norm(grid_m, NL, 0.1, z) == (0.0, 0.0)
    assert pde.discrete_energy(grid_m, NL, 0.1, z) == 0.0
    assert pde.extract_peaks(grid_m, z) == []


# ---- crown at eps = delta*/10


def test_crown_newton_converges(crown10, profile_p3n2):
    assert crown10["hist"][-1] < 1e-10  # measured 6.3e-11 in 24 iterations
    peaks = crown10["peaks"]
    assert len(peaks) == 4
    signs = [p[1] for p in peaks]
    assert all(signs[i] * signs[(i + 1) % 4] == -1 for i in range(4))
    w0 = profile_p3n2.value(0.0)
    for loc, _, amp in peaks:
        assert abs(amp - w0) / w0 < 0.02
        near = min(np.linalg.norm(loc - p) for p in crown10["crown"].points)
        assert near < 0.5 * crown10["eps"]  # measured 0.024 eps


def test_crown_ansatz_residual_at_interaction_scale(crown10):
    sup, _ = pde.residual_norm(crown10["grid"], NL, crown10["eps"],
                               crown10["ans_raw"])
    assert sup > 0.0
    # the residual of the bare ansatz should sit at the spike
    # interaction scale: eps*|log sup| comparable to the offset delta.
    # Measured sup = 0.696, all of it discretization floor: the sup
    # lands on a cut node with theta = 2.6e-3 where the nonzero ansatz
    # boundary trace (1.5e-4) meets the 1/theta Dirichlet stencil, and
    # even interior-only the core truncation floor is 4.8e-2. The
    # interaction scale w(delta/eps) = 1.5e-4 is three orders below
    # either floor, so eps*|log sup| = 0.015 instead of ~delta = 0.414.
    scale = crown10["eps"] * abs(np.log(sup))
    assert 0.5 * crown10["ds"] <= scale <= 2.0 * crown10["ds"]


def test_crown_newton_tail_is_quadratic(crown10):
    hist = crown10["hist"]
    assert hist[-1] < 1e-10
    assert len(hist) - 1 <= 50
    # quadratic convergence doubles the per-step decrement of log r, so
    # the last decrement ratios should clear 1.7. Measured history ends
    # 3.29e-10, 3.89e-6, 6.29e-11: the solver re-seats the spike
    # positions right before termination (line-search excursion), the
    # decrements run -8.1e-6, -9.38, +11.03, and the final ratio is
    # -1.18. A monotone quadratic tail never materializes at this eps:
    # the soft modes are resolvable and every path to 1e-10 passes
    # through such repositioning excursions.
    dec = -np.diff(np.log(hist))
    ratios = dec[1:] / dec[:-1]
    assert np.all(ratios[-2:] >= 1.7)


def test_crown_energy_tracks_reduced_functional(crown10, profile_p3n2):
    e1, gamma = normalization_constants(profile_p3n2)
    eps = crown10["eps"]
    J = pde.discrete_energy(crown10["grid"], NL, eps, crown10["sol"])
    lhs = (J / eps ** 2 - 4.0 * e1) / gamma
    pts = np.array([p[0] for p in crown10["peaks"]])
    sgn = np.array([p[1] for p in crown10["peaks"]])
    log_abs, sign, _ = red.evaluate_energy(
        crown10["model"], SimpleNamespace(points=pts, signs=sgn), check=False
    )
    rhs = sign * np.exp(log_abs)
    # measured lhs = -2.73e-3, which is exactly the link-quadrature bias
    # 4*e1*(-0.48%)/gamma of the energy at h = eps/4, while the reduced
    # functional at the peaks is +2.35e-8: opposite sign and five orders
    # apart. The quadrature bias would need to shrink below e^(-2
    # delta/eps) = 2e-9 for the comparison to see the interaction term.
    assert np.sign(lhs) == np.sign(rhs)
    assert abs(np.log(abs(lhs)) - np.log(abs(rhs))) <= 0.3 * abs(np.log(abs(rhs)))
