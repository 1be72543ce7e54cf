"""Tests for the spike interaction energy and its minimization.

Oracles: a two-spike configuration on the disk with both depths 0.3 and
separation 0.5 at eps = 0.1 has

    S = 1/2 (e^-6 + e^-6) + w(5) = e^-6 + w(5),

checkable by direct summation in extended precision. A single spike is
pure boundary term. On the disk every crown quantity is symmetric, so
tangential gradient components vanish and the minimizer must be a
regular polygon; its radius is pinned only to O(eps), which is what the
5*eps post-check encodes. The closed-form gradient is checked against
central differences of the whole energy (fd_gradient below).
"""

from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from spikecrown import geometry as geo
from spikecrown import packing as pk
from spikecrown import pde
from spikecrown import reduced_energy as re_
from spikecrown.errors import (
    BoundaryTrappedError,
    ConfigError,
    ParallelCurveDegeneracyError,
)


@pytest.fixture(scope="module")
def disk():
    return geo.PlanarDomain(geo.circle(1.0))


@pytest.fixture(scope="module")
def crown8(disk):
    ds, cfg = pk.critical_distance(disk, 8)
    return ds, cfg


def model_for(disk, prof, eps, ds, eta=None):
    return re_.ReducedEnergyModel(disk, prof, eps, delta=ds,
                                  eta=ds / 10 if eta is None else eta)


def fd_gradient(model, config, step=None):
    """Oracle: central differences of the rescaled energy
    e^{2*delta/eps} * S, coordinate by coordinate, with step
    max(1e-7, eps*1e-5) unless given. Probe points skip the
    admissibility check (they may poke marginally outside the set)."""
    signs = np.asarray(config.signs, dtype=int)
    if step is None:
        step = max(1e-7, model.epsilon * 1e-5)

    def scaled(flat):
        cfg = SimpleNamespace(points=flat.reshape(-1, 2), signs=signs)
        log_abs, sign, _ = re_.evaluate_energy(model, cfg, check=False)
        return sign * np.exp(log_abs + 2.0 * model.delta / model.epsilon)

    flat = np.asarray(config.points, dtype=float).ravel()
    g = np.empty(flat.size)
    for c in range(flat.size):
        e = np.zeros(flat.size)
        e[c] = step
        g[c] = (scaled(flat + e) - scaled(flat - e)) / (2.0 * step)
    return g


def fd_hessian(model, config, step=1e-6):
    """Oracle: central differences of the closed-form gradient
    (reduced_energy._gradient), column by column."""
    signs = np.asarray(config.signs, dtype=int)
    flat = np.asarray(config.points, dtype=float).ravel()
    H = np.empty((flat.size, flat.size))
    for c in range(flat.size):
        e = np.zeros(flat.size)
        e[c] = step
        g_plus, g_minus = (re_._gradient(re_._Evaluation(model, (flat + s * e).reshape(-1, 2)),
                                         signs) for s in (1.0, -1.0))
        H[:, c] = (g_plus - g_minus) / (2.0 * step)
    return H


def counting_evaluations(monkeypatch):
    """Wrap reduced_energy._Evaluation; returns the list that grows by
    one per construction."""
    made = []

    class Counted(re_._Evaluation):
        def __init__(self, model, pts):
            made.append(1)
            super().__init__(model, pts)

    monkeypatch.setattr(re_, "_Evaluation", Counted)
    return made


# ------------------------------------------------------------------ model

def test_model_rejects_scale_violation(disk, profile_p3n2):
    with pytest.raises(ConfigError):
        re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.11, delta=0.5, eta=0.2)


def test_model_rejects_bad_margin(disk, profile_p3n2):
    with pytest.raises(ConfigError):
        re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3, eta=0.15)
    with pytest.raises(ConfigError):
        re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3, eta=0.0)


def test_model_rejects_unknown_form(disk, profile_p3n2):
    with pytest.raises(ConfigError):
        re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3,
                               eta=0.1, form="exact")


def test_numeric_form_needs_resolving_grid(disk, profile_p3n2):
    with pytest.raises(ConfigError):
        re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3,
                               eta=0.1, form="psi_numeric")
    coarse = pde.discretize(disk, 0.02)  # coarser than eps/4 = 0.0125
    with pytest.raises(ConfigError):
        re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3,
                               eta=0.1, form="psi_numeric", grid=coarse)


def test_model_is_immutable(disk, profile_p3n2):
    m = re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3, eta=0.1)
    with pytest.raises(Exception):
        m.epsilon = 0.01


# ------------------------------------------------------- boundary exponent

def test_exponent_leading_is_twice_depth(disk, profile_p3n2):
    m = re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3, eta=0.1)
    assert abs(re_.boundary_exponent(m, [0.7, 0.0]) - 0.6) < 1e-12


def test_exponent_rejects_shallow_point(disk, profile_p3n2):
    m = re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3, eta=0.1)
    with pytest.raises(ConfigError):
        re_.boundary_exponent(m, [0.95, 0.0])


def test_exponent_numeric_converges_and_is_symmetric(disk, profile_p3n2):
    # |psi - 2d| must shrink strictly along eps = 0.1, 0.05, 0.025 and
    # stay inside the eps*log(1/eps) window; symmetric points agree to
    # grid tolerance. Measured deviations: 0.157, 0.0657, 0.0249.
    devs = []
    for eps in (0.1, 0.05, 0.025):
        grid = pde.discretize(disk, eps / 4)
        m = re_.ReducedEnergyModel(disk, profile_p3n2, eps, delta=0.5, eta=0.1,
                                   form="psi_numeric", grid=grid)
        psi = re_.boundary_exponent(m, [0.7, 0.0])
        devs.append(abs(psi - 0.6))
        assert devs[-1] < eps * np.log(1.0 / eps)
        for q in ([0.0, 0.7], [-0.7, 0.0], [0.0, -0.7]):
            assert abs(re_.boundary_exponent(m, q) - psi) < 1e-8
    assert devs[0] > devs[1] > devs[2]


# --------------------------------------------------------------- evaluate

def test_two_spike_oracle_direct_summation(disk, profile_p3n2):
    # the (delta, eta) slots only enter membership and scaling, so any
    # admissible model that accepts eps gives the same energy; this
    # configuration itself sits outside every valid admissible set
    # (separation 0.5 < 2*delta - eta for all delta >= 5*eps), hence
    # check=False
    m = re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.1, delta=0.5, eta=0.24)
    th = np.arcsin(0.25 / 0.7)
    pts = 0.7 * np.array([[np.cos(th), np.sin(th)], [np.cos(th), -np.sin(th)]])
    cfg = pk.SpikeConfiguration(pts)
    log_abs, sign, bd = re_.evaluate_energy(m, cfg, check=False)
    assert sign == 1
    mpmath.mp.dps = 50
    w5 = profile_p3n2.value(5.0)
    direct = mpmath.mpf(0.5) * (mpmath.exp(-6) + mpmath.exp(-6)) + mpmath.mpf(w5)
    assert abs(np.exp(log_abs) - float(direct)) < 1e-13 * float(direct)
    assert len(bd.log_boundary) == 2
    assert len(bd.repulsive) == 1 and len(bd.attractive) == 0
    rep = re_.in_configuration_set(m, cfg)
    assert not rep and rep.reason == "distance"


def test_single_spike_is_pure_boundary_term(disk, profile_p3n2):
    m = re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3, eta=0.1)
    cfg = SimpleNamespace(points=np.array([[0.7, 0.0]]), signs=np.array([1]))
    log_abs, sign, bd = re_.evaluate_energy(m, cfg)
    assert sign == 1
    assert abs(log_abs - (np.log(0.5) - 0.6 / 0.05)) < 1e-12
    assert len(bd.repulsive) == 0 and len(bd.attractive) == 0


def test_crown_log_scaling_budget_at_eps_tenth(disk, crown8, profile_p3n2):
    # measured deviation is 15.74%: the prefactor term eps*log(C)/2 with
    # C ~ 22.4 (boundary 4 plus adjacent-pair amplitudes) only drops
    # under 15% of delta* around eps ~ delta*/10.7
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    log_abs, sign, _ = re_.evaluate_energy(m, crown)
    assert sign == 1
    assert abs(log_abs * m.epsilon / (-2.0) - ds) <= 0.15 * ds


def test_crown_log_scaling_tightens(disk, crown8, profile_p3n2):
    ds, crown = crown8
    devs = []
    for frac in (8, 10, 12, 16):
        m = model_for(disk, profile_p3n2, ds / frac, ds)
        log_abs, _, _ = re_.evaluate_energy(m, crown)
        devs.append(abs(log_abs * m.epsilon / (-2.0) - ds) / ds)
    assert devs[0] > devs[1] > devs[2] > devs[3]


def test_scaling_law_last_within_ten_percent(disk, crown8, profile_p3n2):
    ds, crown = crown8
    vals = []
    for frac in (8, 12, 16):
        m = model_for(disk, profile_p3n2, ds / frac, ds)
        log_abs, _, _ = re_.evaluate_energy(m, crown)
        vals.append(-m.epsilon * log_abs)
    gaps = [abs(v - 2.0 * ds) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.10 * 2.0 * ds


def test_breakdown_sign_structure_bound(disk, crown8, profile_p3n2):
    # non adjacent same sign pairs are separated by more than one extra
    # delta of distance, so their terms sit below e^{-(delta+1e-3)/eps}
    # of the adjacent scale
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    _, _, bd = re_.evaluate_energy(m, crown)
    assert len(bd.repulsive) == 16 and len(bd.attractive) == 12
    adj = max(lw for i, j, lw in bd.repulsive
              if (j - i) % 8 == 1 or (i - j) % 8 == 1)
    worst_same = max(lw for _, _, lw in bd.attractive)
    assert worst_same <= adj - (ds + 1e-3) / m.epsilon


def test_cancellation_is_recorded_on_balanced_parts(disk, profile_p3n2):
    # same-sign pair tuned so the attractive term equals the boundary
    # sum: log w(r)/1 = -6 has a root near r = 7.4
    m = re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.1, delta=0.5, eta=0.24)
    r = brentq(lambda t: profile_p3n2.log_value(t) + 6.0, 4.0, 12.0,
               xtol=1e-15, rtol=8.9e-16)
    th = np.arcsin(0.05 * r / 0.7)
    pts = 0.7 * np.array([[np.cos(th), np.sin(th)], [np.cos(th), -np.sin(th)]])
    cfg = SimpleNamespace(points=pts, signs=np.array([1, 1]))
    log_abs, sign, bd = re_.evaluate_energy(m, cfg, check=False)
    assert bd.cancellation <= 1e-12
    # value still returned, and it is tiny against either part
    assert log_abs < -6.0 - 20.0
    # without a negative part nothing cancels
    lone = SimpleNamespace(points=pts[:1], signs=np.array([1]))
    assert re_.evaluate_energy(m, lone, check=False)[2].cancellation == 1.0


def test_evaluate_rejects_inadmissible_when_checked(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    shallow = crown.points * 1.2
    cfg = SimpleNamespace(points=shallow, signs=np.asarray(crown.signs))
    with pytest.raises(ConfigError):
        re_.evaluate_energy(m, cfg)


# ------------------------------------------------------------- membership

def test_membership_accepts_crown(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    assert re_.in_configuration_set(m, crown)


def test_membership_reports_short_chord(disk, crown8, profile_p3n2):
    # slide one spike along the crown circle until its chord to the
    # previous spike is 2*delta - 2*eta, keeping depths exact
    ds, crown = crown8
    eta = ds / 10
    m = model_for(disk, profile_p3n2, ds / 12, ds, eta=eta)
    pts = np.asarray(crown.points).copy()
    r = np.linalg.norm(pts[0])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    gap = 2.0 * np.arcsin((2.0 * ds - 2.0 * eta) / (2.0 * r))
    th[1] = th[0] + gap
    pts[1] = r * np.array([np.cos(th[1]), np.sin(th[1])])
    rep = re_.in_configuration_set(m, SimpleNamespace(points=pts, signs=crown.signs))
    assert not rep and rep.reason == "distance"


def test_membership_reports_projection_collision(disk, crown8, profile_p3n2):
    ds, crown = crown8
    eta = ds / 10
    m = model_for(disk, profile_p3n2, ds / 12, ds, eta=eta)
    pts = np.asarray(crown.points).copy()
    # same ray as spike 0, different depth: projections collide
    pts[1] = pts[0] * (1.0 - eta / 2 / np.linalg.norm(pts[0]))
    rep = re_.in_configuration_set(m, SimpleNamespace(points=pts, signs=crown.signs))
    assert not rep and rep.reason == "order"


def test_membership_reports_depth_violation(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    pts = np.asarray(crown.points).copy()
    # radius up: depth drops to 0.8 delta, under the window floor 0.9 delta
    pts[3] *= (1.0 - 0.8 * ds) / np.linalg.norm(pts[3])
    rep = re_.in_configuration_set(m, SimpleNamespace(points=pts, signs=crown.signs))
    assert not rep and rep.reason == "depth"
    assert "3" in rep.detail


def projection_membership(model, pts):
    """Oracle: the admissibility report with the cyclic order taken from
    project_to_curve onto the inner parallel curve at delta, one spike at
    a time; returns (report, projection parameters or None)."""
    k = len(pts)
    depths = -model.dom.signed_distance(pts)
    lo, hi = model.delta - model.eta, model.delta + model.eta
    for i, d in enumerate(depths):
        if not (lo < d < hi):
            return re_.MembershipReport(
                False, "depth", f"spike {i} at depth {d:.6g} outside ({lo:.6g}, {hi:.6g})"
            ), None
    gamma = geo.inner_parallel_curve(model.dom.boundary, model.delta)
    ts = np.array([geo.project_to_curve(gamma, p)[0] for p in pts])
    gaps = np.mod(np.diff(ts, append=ts[0]), 1.0)
    if np.any(gaps < 1e-12) or abs(gaps.sum() - 1.0) > 1e-9:
        return re_.MembershipReport(
            False, "order", f"projections {np.array2string(ts, precision=6)} not in cyclic order"
        ), ts
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    iu, ju = np.triu_indices(k, 1)
    floor = 2.0 * model.delta - model.eta
    tight = dist[iu, ju] <= floor
    if tight.any():
        a = int(np.argmax(tight))
        return re_.MembershipReport(
            False,
            "distance",
            f"pair ({iu[a]},{ju[a]}) at distance {dist[iu[a], ju[a]]:.6g} <= {floor:.6g}",
        ), ts
    return re_.MembershipReport(True), ts


def assert_membership_matches_oracle(m, crown, seed):
    # jitter of up to eta in each coordinate, and a swap of two
    # neighbours in every fourth sample, reaches every report
    rng = np.random.default_rng(seed)
    reasons = set()
    for n in range(40):
        pts = np.asarray(crown.points) + rng.uniform(-1, 1, (crown.k, 2)) * m.eta * (n % 4) / 3
        if n % 4 == 1:
            pts[[0, 1]] = pts[[1, 0]]
        rep, ts = projection_membership(m, pts)
        assert re_._membership(re_._Evaluation(m, pts)) == rep
        reasons.add(rep.reason)
        if ts is not None:
            gap = np.abs(np.mod(m.dom.foot(pts), 1.0) - ts) % 1.0
            assert np.minimum(gap, 1.0 - gap).max() < 1e-12
    assert reasons == {None, "depth", "order", "distance"}


def test_membership_matches_projection_oracle_disk(disk, crown8, profile_p3n2):
    ds, crown = crown8
    assert_membership_matches_oracle(model_for(disk, profile_p3n2, ds / 12, ds), crown, 11)


def test_membership_matches_projection_oracle_ellipse(profile_p3n2):
    egg = geo.PlanarDomain(geo.ellipse(1.5, 1.0))
    ds, crown = pk.critical_distance(egg, 6)
    m = re_.ReducedEnergyModel(egg, profile_p3n2, ds / 12, delta=ds, eta=ds / 4)
    assert_membership_matches_oracle(m, crown, 12)


def test_membership_and_gradient_make_one_nearest_point_query(
        disk, crown8, profile_p3n2, monkeypatch):
    # depths, cyclic order and the boundary slopes all come from one
    # PlanarDomain.nearest call on the configuration
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    calls = []
    nearest = geo.PlanarDomain.nearest

    def counted(dom, X):
        calls.append(len(X))
        return nearest(dom, X)

    monkeypatch.setattr(geo.PlanarDomain, "nearest", counted)
    pts = np.asarray(crown.points, dtype=float)
    ev = re_._Evaluation(m, pts)
    assert re_._membership(ev)
    re_._signed_terms(ev, np.asarray(crown.signs, dtype=int))
    re_._gradient(ev, np.asarray(crown.signs, dtype=int))
    assert calls == [crown.k]


def test_model_rejects_degenerate_target_curve(profile_p3n2):
    # 1/kappa_max = b^2/a = 0.5 on the 2x1 ellipse: no inner parallel
    # curve at delta = 0.6, so no admissible set either
    egg = geo.PlanarDomain(geo.ellipse(2.0, 1.0))
    with pytest.raises(ParallelCurveDegeneracyError):
        re_.ReducedEnergyModel(egg, profile_p3n2, epsilon=0.1, delta=0.6, eta=0.1)


# --------------------------------------------------------------- gradient

def test_gradient_tangential_components_vanish(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    g = re_.energy_gradient(m, crown).reshape(-1, 2)
    pts = np.asarray(crown.points)
    rad = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    tan = np.stack([-rad[:, 1], rad[:, 0]], axis=1)
    assert np.abs(np.einsum("ij,ij->i", g, tan)).max() < 1e-6
    # the radial components agree across spikes by symmetry
    radials = np.einsum("ij,ij->i", g, rad)
    assert np.ptp(radials) < 1e-5 * np.abs(radials).max()


def test_gradient_pushed_spike_restores(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    pts = np.asarray(crown.points).copy()
    u = pts[0] / np.linalg.norm(pts[0])
    pts[0] -= 0.01 * u  # push 0.01 inward, off the target curve
    cfg = SimpleNamespace(points=pts, signs=crown.signs)
    g = re_.energy_gradient(m, cfg).reshape(-1, 2)
    # descent (-g) must point back outward along the spike's ray
    assert float(g[0] @ u) < 0.0
    # sign confirmed by direct evaluation on both sides
    pts_in = np.asarray(crown.points).copy()
    pts_in[0] -= 0.01 * u
    pts_out = np.asarray(crown.points).copy()
    pts_out[0] += 0.01 * u
    la_in, _, _ = re_.evaluate_energy(m, SimpleNamespace(points=pts_in, signs=crown.signs), check=False)
    la_out, _, _ = re_.evaluate_energy(m, SimpleNamespace(points=pts_out, signs=crown.signs), check=False)
    assert la_in > la_out


def test_gradient_richardson_consistency(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    pts = np.asarray(crown.points).copy()
    rng = np.random.default_rng(3)
    pts += (ds / 200) * rng.standard_normal(pts.shape)
    cfg = SimpleNamespace(points=pts, signs=crown.signs)
    s = max(1e-7, m.epsilon * 1e-5)
    g1 = fd_gradient(m, cfg, step=s)
    g2 = fd_gradient(m, cfg, step=s / 2)
    rich = (4.0 * g2 - g1) / 3.0
    assert np.linalg.norm(g1 - rich) < 1e-4 * np.linalg.norm(rich)


def assert_matches_oracle(m, cfg):
    g = re_.energy_gradient(m, cfg)
    oracle = fd_gradient(m, cfg)
    assert np.linalg.norm(g - oracle) < 1e-6 * np.linalg.norm(oracle)


def test_gradient_matches_oracle_perturbed_disk_crown(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    rng = np.random.default_rng(5)
    pts = np.asarray(crown.points) + (ds / 200) * rng.standard_normal((8, 2))
    assert_matches_oracle(m, SimpleNamespace(points=pts, signs=crown.signs))


def test_gradient_matches_oracle_ellipse_crown(profile_p3n2):
    egg = geo.PlanarDomain(geo.ellipse(1.5, 1.0))
    ds, crown = pk.critical_distance(egg, 6)
    m = re_.ReducedEnergyModel(egg, profile_p3n2, ds / 12, delta=ds, eta=ds / 4)
    assert_matches_oracle(m, crown)


def test_gradient_matches_oracle_psi_numeric(disk, profile_p3n2):
    # coarse scale eps = delta*/5 on the k=4 disk crown keeps the grid
    # small; the oracle costs 16 energies of 4 boundary-layer solves each
    ds, crown = pk.critical_distance(disk, 4)
    eps = ds / 5
    grid = pde.discretize(disk, eps / 4)
    m = re_.ReducedEnergyModel(disk, profile_p3n2, eps, delta=ds, eta=ds / 10,
                               form="psi_numeric", grid=grid)
    rng = np.random.default_rng(7)
    pts = np.asarray(crown.points) + (ds / 200) * rng.standard_normal((4, 2))
    assert_matches_oracle(m, SimpleNamespace(points=pts, signs=crown.signs))


def test_psi_numeric_gradient_queries_each_point_once(disk, profile_p3n2, monkeypatch):
    # one query for the configuration and one per slope read-off (4 per
    # spike); boundary_correction's 2h guard reads the depth it is given
    ds, crown = pk.critical_distance(disk, 4)
    eps = ds / 5
    grid = pde.discretize(disk, eps / 4)
    m = re_.ReducedEnergyModel(disk, profile_p3n2, eps, delta=ds, eta=ds / 10,
                               form="psi_numeric", grid=grid)
    P = np.asarray(crown.points[0], dtype=float)
    depth = -disk.signed_distance(P)
    assert (pde.boundary_correction(grid, profile_p3n2, eps, P, depth=depth)[1]
            == pde.boundary_correction(grid, profile_p3n2, eps, P)[1])
    calls = []
    nearest = geo.PlanarDomain.nearest

    def counted(dom, X, guess=None):
        calls.append(len(X))
        return nearest(dom, X, guess)

    monkeypatch.setattr(geo.PlanarDomain, "nearest", counted)
    re_.energy_gradient(m, crown)
    assert calls == [4] + [1] * 16


@pytest.mark.parametrize("case", ["disk k=6 delta*/5", "ellipse 1.5x1 k=6 delta*/12"])
def test_hessian_matches_differences_of_gradient(disk, profile_p3n2, case):
    # measured agreement: 9e-11 (disk) and 2.5e-10 (ellipse) of the
    # largest entry
    if case.startswith("disk"):
        dom, frac, eta_frac = disk, 5.0, 10.0
    else:
        dom, frac, eta_frac = geo.PlanarDomain(geo.ellipse(1.5, 1.0)), 12.0, 4.0
    ds, crown = pk.critical_distance(dom, 6)
    m = re_.ReducedEnergyModel(dom, profile_p3n2, ds / frac, delta=ds, eta=ds / eta_frac)
    rng = np.random.default_rng(13)
    pts = np.asarray(crown.points) + (ds / 200) * rng.standard_normal((6, 2))
    cfg = SimpleNamespace(points=pts, signs=crown.signs)
    H = re_._hessian(re_._Evaluation(m, pts), np.asarray(crown.signs, dtype=int))
    assert H.shape == (12, 12)
    assert np.array_equal(H, H.T)
    oracle = fd_hessian(m, cfg)
    assert np.abs(H - oracle).max() < 1e-6 * np.abs(oracle).max()


def test_gradient_rejects_inadmissible(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    cfg = SimpleNamespace(points=np.asarray(crown.points) * 0.5, signs=crown.signs)
    with pytest.raises(ConfigError):
        re_.energy_gradient(m, cfg)


# --------------------------------------------------------------- minimize

def rotated_crown(disk, crown, ds, arc):
    gamma = geo.inner_parallel_curve(disk.boundary, ds)
    pts = np.asarray(crown.points)
    ts = np.array([geo.project_to_curve(gamma, p)[0] for p in pts])
    ts2 = np.array([gamma.param_at_arclength(gamma.arclength(t) + arc) for t in ts])
    return pk.make_configuration(disk, np.array([gamma.point(t) for t in ts2]),
                                 signs=crown.signs)


def polygon_fit_residual(pts):
    """Max distance to the best-fit regular polygon (mean radius, mean
    phase), assuming the points arrive in cyclic order."""
    k = len(pts)
    r = np.linalg.norm(pts, axis=1)
    th = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    base = th - np.arange(k) * (2.0 * np.pi / k) * np.sign(th[1] - th[0])
    phase = base.mean()
    ideal = r.mean() * np.stack([
        np.cos(phase + np.arange(k) * 2.0 * np.pi / k * np.sign(th[1] - th[0])),
        np.sin(phase + np.arange(k) * 2.0 * np.pi / k * np.sign(th[1] - th[0])),
    ], axis=1)
    return float(np.linalg.norm(pts - ideal, axis=1).max())


def test_minimize_from_rotated_crown(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    init = rotated_crown(disk, crown, ds, m.eta / 4)
    cfg, log_min, trace, _ = re_.minimize_energy(m, init)
    pts = np.asarray(cfg.points)
    depth = -disk.signed_distance(pts)
    assert np.abs(depth - ds).max() < 5.0 * m.epsilon
    chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert np.abs(chords - 2.0 * ds).max() < 5.0 * m.epsilon
    assert polygon_fit_residual(pts) < 1e-6
    assert trace.shape[1] == 5


def test_minimize_exact_crown_stops_fast(disk, crown8, profile_p3n2):
    # the stated expectation is that the crown's whole gradient is
    # already at tolerance within five iterations; only the tangential
    # part actually vanishes by symmetry
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    cfg, log_min, trace, _ = re_.minimize_energy(m, crown)
    assert int(trace[-1][0]) <= 5
    assert trace[-1][2] < 1e-9


def test_minimize_queries_each_configuration_once(
        disk, crown8, profile_p3n2, monkeypatch):
    # a line-search trial's admissibility, energy and (once accepted)
    # gradient and trace row all read one PlanarDomain.nearest query
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    queried = []
    nearest = geo.PlanarDomain.nearest

    def recorded(dom, X):
        queried.append(np.asarray(X).tobytes())
        return nearest(dom, X)

    monkeypatch.setattr(geo.PlanarDomain, "nearest", recorded)
    made = counting_evaluations(monkeypatch)
    trace = re_.minimize_energy(m, crown)[2]
    # one query per evaluation, and at least one evaluation per trace row
    assert len(queried) == len(made) >= len(trace)
    repeats = len(queried) - len(set(queried))
    assert repeats == 0


@pytest.mark.parametrize("frac", [5.0, 6.0])
def test_minimize_disk_k6_stops_on_gradient(disk, profile_p3n2, frac):
    # the benchmark's reduce inputs: disk, k=6, leading form; the
    # central-difference gradient stalled here at norms 8e-8 and 1.1e-7
    ds, crown = pk.critical_distance(disk, 6)
    m = model_for(disk, profile_p3n2, ds / frac, ds)
    _, _, trace, stop = re_.minimize_energy(m, crown)
    assert stop == "gradient"
    assert trace[-1][2] < 1e-9


@pytest.mark.parametrize("frac", [5.0, 6.0])
def test_minimize_disk_k6_newton_is_cheap(disk, profile_p3n2, frac, monkeypatch):
    # the benchmark's reduce inputs; Newton on the closed-form Hessian
    # measured 4 iterations and 5 evaluations per scale, where BFGS took
    # 22 and 19 iterations
    ds, crown = pk.critical_distance(disk, 6)
    m = model_for(disk, profile_p3n2, ds / frac, ds)
    made = counting_evaluations(monkeypatch)
    _, _, trace, stop = re_.minimize_energy(m, crown)
    assert stop == "gradient"
    assert int(trace[-1][0]) <= 6
    assert len(made) <= 12


def test_minimize_trace_is_monotone_enough(disk, crown8, profile_p3n2):
    # energy never increases along accepted Newton steps, beyond the
    # rounding allowance of the line search (1e-13 relative)
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    init = rotated_crown(disk, crown, ds, m.eta / 4)
    trace = re_.minimize_energy(m, init)[2]
    logs = trace[:, 1]
    assert np.all(np.diff(logs) < 1e-12)


def test_minimize_rotation_equivariance(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 10, ds)
    base = rotated_crown(disk, crown, ds, m.eta / 4)
    c = np.cos(0.3)
    s = np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    turned = pk.make_configuration(disk, np.asarray(base.points) @ R.T,
                                   signs=base.signs)
    log_a = re_.minimize_energy(m, base)[1]
    log_b = re_.minimize_energy(m, turned)[1]
    assert abs(log_a - log_b) < 1e-10


def test_minimize_preserves_signs_and_membership(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    init = rotated_crown(disk, crown, ds, m.eta / 4)
    cfg = re_.minimize_energy(m, init)[0]
    assert list(cfg.signs) == list(crown.signs)
    assert re_.in_configuration_set(m, cfg)


def test_minimize_rejects_inadmissible_init(disk, crown8, profile_p3n2):
    ds, crown = crown8
    m = model_for(disk, profile_p3n2, ds / 12, ds)
    bad = SimpleNamespace(points=np.asarray(crown.points) * 0.6, signs=crown.signs)
    with pytest.raises(ConfigError):
        re_.minimize_energy(m, bad)


def test_minimize_single_spike_traps_at_depth_ceiling(disk, profile_p3n2):
    # one spike's energy decreases monotonically with depth, so descent
    # drives it into the deep wall of the admissible window and every
    # step size eventually lands outside
    m = re_.ReducedEnergyModel(disk, profile_p3n2, epsilon=0.05, delta=0.3, eta=0.06)
    init = SimpleNamespace(points=np.array([[0.655, 0.0]]), signs=np.array([1]))
    with pytest.raises(BoundaryTrappedError):
        re_.minimize_energy(m, init)


def test_minimize_ellipse_interior_beats_boundary(profile_p3n2):
    egg = geo.PlanarDomain(geo.ellipse(1.5, 1.0))
    ds, crown = pk.critical_distance(egg, 6)
    eta = ds / 4
    m = re_.ReducedEnergyModel(egg, profile_p3n2, ds / 12, delta=ds, eta=eta)
    cfg, log_min, _, _ = re_.minimize_energy(m, crown)
    assert re_.in_configuration_set(m, cfg)
    assert list(cfg.signs) == [1, -1, 1, -1, 1, -1]
    pts = np.asarray(cfg.points)
    bd = egg.boundary
    rng = np.random.default_rng(11)
    worst = np.inf
    for n in range(100):
        probe = pts.copy()
        j = int(rng.integers(0, 6))
        if n % 2 == 0:
            # depth stratum: pin spike j to one wall of the window
            _, q = geo.project_to_curve(bd, probe[j])
            depth = np.linalg.norm(probe[j] - q)
            target = ds - eta if rng.random() < 0.5 else ds + eta
            probe[j] = q + (probe[j] - q) * (target / depth)
        else:
            # chord stratum: squeeze an adjacent pair to 2*delta - eta
            i2 = (j + 1) % 6
            mid = 0.5 * (probe[j] + probe[i2])
            half = 0.5 * (2.0 * ds - eta)
            u = probe[i2] - probe[j]
            u /= np.linalg.norm(u)
            probe[j] = mid - half * u
            probe[i2] = mid + half * u
        la, sgn, _ = re_.evaluate_energy(
            m, SimpleNamespace(points=probe, signs=cfg.signs), check=False)
        if sgn > 0:
            worst = min(worst, la)
    assert log_min < worst


# ------------------------------------------------------------ equivalence

def test_leading_vs_numeric_log_drift_shrinks(disk, crown8, profile_p3n2):
    ds, crown = crown8
    rel = []
    for frac in (8, 12):
        eps = ds / frac
        grid = pde.discretize(disk, eps / 4)
        lead = model_for(disk, profile_p3n2, eps, ds)
        num = re_.ReducedEnergyModel(disk, profile_p3n2, eps, delta=ds,
                                     eta=ds / 10, form="psi_numeric", grid=grid)
        la_l, _, _ = re_.evaluate_energy(lead, crown)
        la_n, _, _ = re_.evaluate_energy(num, crown)
        rel.append(abs(la_n - la_l) / abs(la_l))
    assert rel[1] < rel[0]
