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
import scipy.sparse as sp
from numpy.testing import assert_allclose

import spikecrown.geometry as geo
import spikecrown.packing as pk
import spikecrown.pde as pde
import spikecrown.reduced_energy as red
from spikecrown.errors import (ConfigError, LinearSolveError, NewtonStallError,
                               NumericalError, PeakCountError)
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
    return solve_projection(grid_m, profile_p3n2, 0.1, (0.0, 0.0))


@pytest.fixture(scope="module")
def pair2(disk, grid_m, profile_p3n2):
    """Antipodal two-spike run at eps = depth/5: ansatz, solution, history."""
    cfg = pk.make_configuration(disk, np.array([[0.5, 0.0], [-0.5, 0.0]]))
    ans = pde.assemble_ansatz(grid_m, profile_p3n2, 0.1, cfg)
    sol, hist, trail, _, _ = pde.newton_solve(grid_m, NL, 0.1, profile_p3n2, cfg)
    return {"cfg": cfg, "ans": ans, "sol": sol, "hist": hist, "trail": trail}


@pytest.fixture(scope="module")
def singles(disk, profile_p3n2):
    """Single centered spike solved at eps in {0.12, 0.08, 0.05}, h = eps/4."""
    out = {}
    cfg = SimpleNamespace(points=np.array([[0.0, 0.0]]), signs=np.array([1.0]))
    for eps in (0.12, 0.08, 0.05):
        g = pde.discretize(disk, eps / 4.0)
        sol, hist, _, _, _ = pde.newton_solve(g, NL, eps, profile_p3n2, cfg)
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
    sol, hist, _, _, _ = pde.newton_solve(g, NL, eps, profile_p3n2, cfg_min)
    return {"ds": ds, "eps": eps, "grid": g, "crown": crown, "model": model,
            "ans_raw": ans_raw, "sol": sol, "hist": hist,
            "peaks": pde.extract_peaks(g, sol, expected=4)}


def mirror_rows(grid):
    """Row permutation sending the node at x to the node at -x."""
    lut = {(i, j): row for row, (i, j) in enumerate(grid.abs_index())}
    return np.array([lut[(-i, -j)] for (i, j) in grid.abs_index()])


def zero_field(grid, eps=0.1):
    return pde.DiscreteField(grid, eps, np.zeros(grid.n_nodes))


# ---- oracles built on the public pieces


def free_profile(grid, profile, eps, P):
    r = np.linalg.norm(grid.xy - np.asarray(P, dtype=float), axis=1) / eps
    return profile.value(r)


def ansatz_per_spike(grid, profile, eps, config):
    """The crown ansatz as a sum of one free profile per spike."""
    vals = np.zeros(grid.n_nodes)
    for pt, sgn in zip(config.points, config.signs):
        vals += sgn * free_profile(grid, profile, eps, pt)
    return vals


def solve_projection(grid, profile, eps, P):
    """Profile minus its boundary layer: the Dirichlet-projected spike."""
    d_field, _ = pde.boundary_correction(grid, profile, eps, P)
    return pde.DiscreteField(grid, eps, free_profile(grid, profile, eps, P) - d_field.values)


def residual_norm(grid, nl, eps, fld):
    """Sup and (h-weighted) l2 norm of the discrete operator at the field."""
    res = grid.operator(eps).A @ fld.values + nl.f(fld.values)
    return float(np.abs(res).max(initial=0.0)), float(grid.h * np.sqrt((res * res).sum()))


def sup_norm(fld):
    return float(np.abs(fld.values).max(initial=0.0))


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
        pde.discretize(disk, 0.05)  # the centroid's depth/20 exactly
    with pytest.raises(ConfigError):
        pde.discretize(disk, -0.01)


def test_coarse_ellipse_spacing_names_the_centroid_depth():
    # h = 0.05 is not below the centroid's depth/20, so the grid is
    # refused as on the disk
    dom = geo.make_domain({"kind": "ellipse", "a": 1.2, "b": 1.0})
    with pytest.raises(ConfigError,
                       match=r"spacing 0\.05 too coarse: need h < centroid depth/20 = 0\.05$"):
        pde.discretize(dom, 0.05)


def test_fine_ellipse_grid_skips_the_inradius_search(monkeypatch):
    # one query of the centroid's depth, the first of the grid's, decides
    # the spacing; every other query is a batch of nodes
    dom = geo.make_domain({"kind": "ellipse", "a": 1.2, "b": 1.0})
    queries = []
    signed_distance = dom.signed_distance
    monkeypatch.setattr(dom, "signed_distance", lambda x: queries.append(np.shape(x))
                        or signed_distance(x))
    assert pde.discretize(dom, 0.04).n_nodes > 0
    assert queries[0] == (2,) and (2,) not in queries[1:]


def test_lattice_spans_the_boundary_table_off_the_origin():
    # a lopsided egg turned by 0.3 around (2, 1): the lattice's box is the
    # boundary table's with two nodes to spare on every side, so its rim
    # carries no unknown, and every unknown lies inside
    h = 0.04
    th = 2.0 * np.pi * np.arange(40) / 40 + 0.3
    r = 1.0 + 0.12 * np.cos(th - 0.3) + 0.05 * np.sin(2.0 * (th - 0.3))
    dom = geo.PlanarDomain(geo.spline_curve(
        np.stack([r * np.cos(th), r * np.sin(th)], axis=1) + (2.0, 1.0)))
    g = pde.discretize(dom, h)
    pts = dom.boundary.points
    lo = np.array([g.i0, g.j0]) * h
    hi = (np.array([g.i0, g.j0]) + g.shape - 1) * h
    assert (lo <= pts.min(axis=0) - 2.0 * h).all() and (hi >= pts.max(axis=0) + 2.0 * h).all()
    assert (g.index[[0, -1], :] == -1).all() and (g.index[:, [0, -1]] == -1).all()
    assert (dom.signed_distance(g.xy) < 0.0).all()


def plain_cuts(dom, legs, h, i_lo, j_lo):
    """Cut fractions by 53 halvings of the signed distance along each leg."""
    base = (legs[:, :2] + (i_lo, j_lo)) * h
    dirs = pde._LEG_DIR[legs[:, 2]]
    lo, hi = np.zeros(len(legs)), np.ones(len(legs))
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        neg = dom.signed_distance(base + mid[:, None] * h * dirs) < 0.0
        lo[neg] = mid[neg]
        hi[~neg] = mid[~neg]
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("spec,h", [
    # a solve on the disk's k=4 crown at eps = delta*/6, h = eps/4
    ({"kind": "circle", "radius": 1.0}, np.sqrt(0.5) / (1.0 + np.sqrt(0.5)) / 24.0),
    ({"kind": "ellipse", "a": 1.2, "b": 1.0}, 0.01),
], ids=["disk", "ellipse-1.2x1"])
def test_cut_bisection_with_foot_guesses_keeps_the_bits(spec, h, monkeypatch):
    # each halving hands its feet to the next query; the fractions keep
    # the bits of a plain bisection on the signed distance
    dom = geo.make_domain(spec)
    got = pde.discretize(dom, h)
    monkeypatch.setattr(pde, "_measure_cuts", plain_cuts)
    assert np.array_equal(got.theta, pde.discretize(dom, h).theta)


@pytest.mark.parametrize("spec", [
    {"kind": "circle", "radius": 1.0},
    {"kind": "ellipse", "a": 1.2, "b": 1.0},
    {"kind": "ellipse", "a": 2.0, "b": 1.0},
    {"kind": "superellipse", "a": 1.0, "b": 1.0, "m": 4.0},
], ids=["disk", "ellipse-1.2x1", "ellipse-2x1", "superellipse"])
def test_band_classification_matches_every_node(spec, monkeypatch):
    # oracle: the signed distance of every lattice node, deep ones too
    dom = geo.make_domain(spec)
    for h in (0.04, 0.021, 0.009):
        got = pde.discretize(dom, h)
        with monkeypatch.context() as m:
            m.setattr(pde, "_inside", lambda d, nodes, _h: d.signed_distance(nodes) < 0.0)
            want = pde.discretize(dom, h)
        assert np.array_equal(got.index, want.index)
        assert np.array_equal(got.theta, want.theta)
        assert np.array_equal(got.xy, want.xy)
        assert got.n_reclassified == want.n_reclassified


def test_inside_is_exact_between_table_chord_and_arc(disk):
    # these points lie inside the curve but outside the inscribed table
    # polygon, so only the exact distance near the curve gets them right
    bd = disk.boundary
    arc_mid = bd.point(bd.t_nodes + 0.5 / len(bd.t_nodes))
    chord_mid = 0.5 * (bd.points + np.roll(bd.points, -1, axis=0))
    X = 0.5 * (arc_mid + chord_mid)
    assert (disk.signed_distance(X) < 0.0).all()
    assert pde._inside(disk, X, 1e-4).all()
    assert pde._inside(disk, X, 0.04).all()


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
    assert abs(sup_norm(ans) - w0) < 1e-3
    top = grid_m.xy[int(np.abs(ans.values).argmax())]
    assert min(np.linalg.norm(top - p) for p in pair2["cfg"].points) <= grid_m.h


@pytest.mark.parametrize("make", [
    lambda dom, pts: pk.make_configuration(dom, pts, [-1, 1, -1, 1]),
    lambda dom, pts: SimpleNamespace(points=pts, signs=np.array([1.0, -1.0, 1.0, -1.0])),
], ids=["configuration", "float-signs"])
def test_ansatz_is_the_per_spike_sum_bit_for_bit(disk, grid_m, profile_p3n2, make):
    # every spike has nodes on both sides of r_tail
    pts = np.array([[0.31, 0.07], [-0.05, 0.52], [-0.44, -0.13], [0.12, -0.58]])
    cfg = make(disk, pts)
    r = np.linalg.norm(grid_m.xy[:, None, :] - pts, axis=-1) / 0.1
    assert (r < profile_p3n2.r_tail).any(axis=0).all()
    assert (r > profile_p3n2.r_tail).any(axis=0).all()
    got = pde.assemble_ansatz(grid_m, profile_p3n2, 0.1, cfg).values
    assert np.array_equal(got, ansatz_per_spike(grid_m, profile_p3n2, 0.1, cfg))


def test_ansatz_boundary_trace_bound(grid_m, profile_p3n2, pair2):
    # every boundary-adjacent node is at least depth - h from each spike
    trace = np.abs(pair2["ans"].values[grid_m.is_adjacent]).max()
    bound = 2.0 * float(np.exp(profile_p3n2.log_value((0.5 - grid_m.h) / 0.1)))
    assert trace <= bound


# ---- newton solve


def test_newton_zero_init_stays_zero(grid_m, profile_p3n2):
    empty = SimpleNamespace(points=np.zeros((0, 2)), signs=np.zeros(0))
    sol, hist, trail, positions, _ = pde.newton_solve(grid_m, NL, 0.1, profile_p3n2, empty)
    assert sup_norm(sol) == 0.0
    assert hist.tolist() == [0.0]
    assert trail == []
    assert positions.shape == (0, 2)


def test_newton_factorizes_only_the_jacobian_once_per_iteration(
        disk, profile_p3n2, monkeypatch):
    # the bordered system is solved from the LU of J alone: no other
    # matrix (such as J'J) is factorized, no iteration factorizes twice,
    # and the trail flags exactly the iterations that did; while the
    # contraction is small an LU serves several steps. The first LU
    # orders A's pattern by minimum degree; every later one factors
    # J[:, q] in the natural ordering, q being the first LU's order
    grid = pde.discretize(disk, 0.025)  # its operator has factorized nothing yet
    A = grid.operator(0.1).A.tocsc()
    seen = []
    real_splu = pde.spla.splu
    q = np.argsort(real_splu(A, **pde._SPLU_OPTIONS).perm_c)
    Aq = A[:, q]

    def splu(M, **kwargs):
        seen.append((M.shape, M.indices.tobytes(), M.indptr.tobytes(), kwargs))
        return real_splu(M, **kwargs)

    monkeypatch.setattr(pde, "spla", SimpleNamespace(splu=splu))
    cfg = SimpleNamespace(points=np.array([[0.5, 0.0], [-0.5, 0.0]]),
                          signs=np.array([1.0, -1.0]))
    _, hist, trail, _, _ = pde.newton_solve(grid, NL, 0.1, profile_p3n2, cfg)
    factorized = sum(lu for _, _, _, lu in trail)
    assert len(seen) == factorized
    assert factorized < len(trail) == len(hist) - 1  # measured 6 LUs in 12 iterations
    assert seen[0] == (A.shape, A.indices.tobytes(), A.indptr.tobytes(), pde._SPLU_OPTIONS)
    natural = {**pde._SPLU_OPTIONS, "permc_spec": "NATURAL"}
    assert all(entry == (A.shape, Aq.indices.tobytes(), Aq.indptr.tobytes(), natural)
               for entry in seen[1:])
    assert any(moved for _, _, moved, _ in trail)


def test_newton_moves_the_spikes_only_from_a_fresh_lu(pair2):
    # a move reads S = Z'J^{-1}Z and J^{-1}Z, so the iteration that
    # moves factorizes J at its own iterate, even after a kept LU
    trail = pair2["trail"]
    assert any(moved for _, _, moved, _ in trail)
    assert all(lu for _, _, moved, lu in trail if moved)


def test_newton_makes_a_failed_step_from_a_kept_lu_again_from_a_fresh_one(
        grid_m, profile_p3n2, monkeypatch):
    # at a loose reuse threshold a step from the rim spike's kept LU
    # fails the monotonicity test; the same bordered residual is then
    # solved again from a new LU instead of damping the stale step
    monkeypatch.setattr(pde, "_NEWTON_REUSE_THETA", 0.6)
    steps = []
    real_refine = pde._refine_solve

    def refine(solve, apply, norm_a, b, rtol, what):
        steps.append((solve.__self__, b.copy()))
        return real_refine(solve, apply, norm_a, b, rtol, what)

    monkeypatch.setattr(pde, "_refine_solve", refine)
    cfg = SimpleNamespace(points=np.array([[0.93, 0.0]]), signs=np.array([1.0]))
    with pytest.raises(NewtonStallError):
        pde.newton_solve(grid_m, NL, 0.1, profile_p3n2, cfg)
    redone = [i for i in range(1, len(steps) - 1)
              if np.array_equal(steps[i][1], steps[i + 1][1])]
    assert redone  # measured 2
    for i in redone:
        kept, fresh = steps[i][0], steps[i + 1][0]
        assert kept is steps[i - 1][0] and fresh is not kept


def test_bordered_lu_matches_the_assembled_matrix(grid_m, profile_p3n2):
    # oracle: the bordered matrix [[J, Z], [Z', 0]] that _BorderedLU
    # applies without assembling, built here with sp.bmat
    P, signs = np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, -1.0])
    U, Z = pde._ansatz_and_modes(grid_m, profile_p3n2, 0.1, P, signs)
    op = grid_m.operator(0.1)
    A = op.A
    J = (A + sp.diags(NL.fprime(U))).tocsc()
    K = pde._BorderedLU(op, NL.fprime(U), Z)
    Zs = sp.csr_matrix(Z)
    M = sp.bmat([[J, Zs], [Zs.T, None]], format="csr")
    norm_m = float(np.max(np.abs(M).sum(axis=1)))
    assert K.norm_a == pytest.approx(norm_m, rel=1e-14)
    v = np.random.default_rng(3).standard_normal(M.shape[0])
    assert_allclose(K.dot(v), M @ v, rtol=0.0,
                    atol=1e-14 * norm_m * np.abs(v).max())
    # a Newton step at the ansatz reaches 1e-12 normwise backward error
    b = np.concatenate([A @ U + NL.f(U), np.zeros(Z.shape[1])])
    x = pde._refine_solve(K.solve, K.dot, K.norm_a, b, 1e-12, "oracle step")
    sup = pde._sup
    assert sup(b - M @ x) <= 1e-12 * (norm_m * sup(x) + sup(b))


def test_operator_lu_solves_as_splu_bit_for_bit(disk, profile_p3n2, monkeypatch):
    # oracle: _splu on (A + sp.diags(f')).tocsc(), which orders every
    # Jacobian afresh. At each Newton iterate the operator's Jacobian
    # has its values and pattern, and its LU (the first ordered by
    # minimum degree, the rest in that order) solves a vector and the
    # (n, 2k) translation modes to the same bits, in the same layout
    grid = pde.discretize(disk, 0.025)
    op = grid.operator(0.1)
    fps = []
    jacobian = op.jacobian

    def recording(fp):
        fps.append(fp.copy())
        return jacobian(fp)

    monkeypatch.setattr(op, "jacobian", recording)
    P, signs = np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, -1.0])
    pde.newton_solve(grid, NL, 0.1, profile_p3n2, SimpleNamespace(points=P, signs=signs))
    assert len(fps) >= 3  # measured 6
    _, Z = pde._ansatz_and_modes(grid, profile_p3n2, 0.1, P, signs)
    b = np.random.default_rng(5).standard_normal(grid.n_nodes)
    for fp in fps:
        want = (op.A + sp.diags(fp)).tocsc()
        got = jacobian(fp)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        lu_want, lu_got = pde._splu(want), op.factorize(got)
        for rhs in (b, Z):
            x_want, x_got = lu_want.solve(rhs), lu_got.solve(rhs)
            assert np.array_equal(x_got, x_want)
            assert x_got.strides == x_want.strides
    assert np.array_equal(op.solve(b), pde._refine_solve(
        pde._splu(op.A.tocsc()).solve, op.A.dot, op.norm_a, b, 1e-11, "oracle"))


def test_lu_order_depends_on_the_pattern_alone(grid_m, profile_p3n2):
    # minimum degree reads the pattern of M' + M, not its values, so A
    # and every Jacobian A + diag(f') are factorized in one column order
    A = grid_m.operator(0.1).A.tocsc()
    q = np.argsort(pde._splu(A).perm_c)
    U, _ = pde._ansatz_and_modes(grid_m, profile_p3n2, 0.1, np.array([[0.5, 0.0]]), [1.0])
    for scale in (1.0, 0.5, -2.0):
        J = grid_m.operator(0.1).jacobian(NL.fprime(scale * U))
        assert np.array_equal(np.argsort(pde._splu(J).perm_c), q)


def test_bordered_lu_with_a_singular_schur_complement_raises(grid_m, profile_p3n2):
    # a zero translation mode makes S = Z'J^{-1}Z singular; the solve
    # fails as a toolkit error, never as numpy's LinAlgError
    P, signs = np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, -1.0])
    U, Z = pde._ansatz_and_modes(grid_m, profile_p3n2, 0.1, P, signs)
    Z[:, 1] = 0.0
    K = pde._BorderedLU(grid_m.operator(0.1), NL.fprime(U), Z)
    with pytest.raises(LinearSolveError, match="Schur complement"):
        K.solve(np.ones(grid_m.n_nodes + Z.shape[1]))


def test_newton_stalls_on_a_spike_at_the_rim(grid_m, profile_p3n2):
    # at depth 0.07 < eps = 0.1 the spike's core meets the rim; the
    # solve must report the stall rather than return a field
    cfg = SimpleNamespace(points=np.array([[0.93, 0.0]]), signs=np.array([1.0]))
    # the spike walks inward by about 0.05 per position update and is
    # still moving when the iteration cap is hit, which the report says
    with pytest.raises(NewtonStallError, match=r"[1-9]\d* position updates, last move 0\.0[1-9]"):
        pde.newton_solve(grid_m, NL, 0.1, profile_p3n2, cfg)


def test_newton_single_spike(singles, profile_p3n2):
    run = singles[0.08]
    w0 = profile_p3n2.value(0.0)
    assert run["hist"][-1] < 1e-10
    assert len(run["hist"]) - 1 <= 5  # measured 4 iterations from 1 LU
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
        sols[h] = (g, pde.newton_solve(g, NL, eps, profile_p3n2, cfg)[0])

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
    # oddness far below the 1e-8 budget (measured 1.6e-12)
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


def test_peak_order_ignores_the_sign_of_noise_behind_the_centroid(grid_m):
    # four bumps of alternating sign; the one on the negative x-axis sits
    # 1e-11 above or below it, as rounding noise in a solve leaves it
    def peaks(noise):
        pts = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, noise], [0.0, -0.5]])
        vals = sum(s * np.exp(-((grid_m.xy - p) ** 2).sum(axis=1) / 0.01)
                   for p, s in zip(pts, (1.0, -1.0, 1.0, -1.0)))
        return pde.extract_peaks(grid_m, pde.DiscreteField(grid_m, 0.1, vals),
                                 expected=4)

    above, below = peaks(1e-11), peaks(-1e-11)
    y_above, y_below = (min(run, key=lambda p: p[0][0])[0][1] for run in (above, below))
    assert y_above > 0.0 > y_below  # the noise reached the located peak
    assert [p[1] for p in above] == [p[1] for p in below] == [1, -1, 1, -1]
    for a, b in zip(above, below):
        assert_allclose(a[0], b[0], atol=1e-9)


# ---- zero-field trivia


def test_zero_field_is_inert(grid_m):
    z = zero_field(grid_m)
    assert residual_norm(grid_m, NL, 0.1, z) == (0.0, 0.0)
    assert pde.discrete_energy(grid_m, NL, 0.1, z) == 0.0
    assert pde.extract_peaks(grid_m, z) == []


# ---- crowns


def test_coarse_crown_newton_converges(disk, profile_p3n2):
    # disk k=6 at the coarsest admissible scale delta*/5, started from
    # the reduced minimizer; a Newton that leaves the spike positions to
    # the Jacobian's translation modes stalls here at 5.7e-7
    ds, crown = pk.critical_distance(disk, 6)
    eps = ds / 5.0
    model = red.ReducedEnergyModel(disk, profile_p3n2, eps, ds, ds / 10.0)
    cfg = red.minimize_energy(model, crown)[0]
    g = pde.discretize(disk, eps / 4.0)
    sol, hist, trail, _, _ = pde.newton_solve(g, NL, eps, profile_p3n2, cfg)
    assert hist[-1] < 1e-10  # measured 4.6e-14 in 22 iterations, 9 LUs
    assert any(moved for _, _, moved, _ in trail)
    peaks = pde.extract_peaks(g, sol, expected=6)
    assert all(peaks[i][1] * peaks[(i + 1) % 6][1] == -1 for i in range(6))


# ---- crown at eps = delta*/10


def test_crown_newton_converges(crown10, profile_p3n2):
    assert crown10["hist"][-1] < 1e-10  # measured 7.5e-12 in 17 iterations, 7 LUs
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
    sup, _ = residual_norm(crown10["grid"], NL, crown10["eps"],
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
    # the last decrement ratios should clear 1.7. Measured: 17 iterations,
    # the history ending 4.89e-9, 1.77e-10, 1.15e-6, 7.45e-12: the spikes
    # move at 1.77e-10, just above the 1e-10 tolerance, the decrements
    # run 3.32, -8.78, +11.95, and the last two ratios are -2.65 and
    # -1.36. A monotone quadratic tail never materializes at this eps:
    # the soft modes are resolvable and every path to 1e-10 passes
    # through such position updates.
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
