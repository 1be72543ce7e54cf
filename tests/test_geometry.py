"""Curves, domains, distances, offsets, and the convexity inequalities."""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize
from scipy.spatial import cKDTree
from scipy.special import ellipe

from spikecrown import geometry as geo
from spikecrown import verify
from spikecrown.errors import (
    ConfigError,
    NonUniqueProjectionError,
    ParallelCurveDegeneracyError,
    PropertyViolationError,
)

_SWEEP_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pack_sweep.py")
_SWEEP_SPEC = importlib.util.spec_from_file_location("pack_sweep", _SWEEP_PATH)
pack_sweep = importlib.util.module_from_spec(_SWEEP_SPEC)
_SWEEP_SPEC.loader.exec_module(pack_sweep)


@pytest.fixture(scope="module")
def unit_circle():
    return geo.circle(1.0)


@pytest.fixture(scope="module")
def ell21():
    return geo.ellipse(2.0, 1.0)


def test_circle_length(unit_circle):
    assert abs(unit_circle.total_length - 2 * np.pi) < 1e-10


def test_ellipse_length_matches_elliptic_integral(ell21):
    # perimeter of x^2/4 + y^2 = 1 is 8 E(m) with m = 1 - b^2/a^2
    exact = 8.0 * ellipe(0.75)
    assert abs(exact - 9.688448220547675) < 1e-12
    assert abs(ell21.total_length - exact) < 1e-7


def test_superellipse_length_refinement_stable(monkeypatch):
    c1 = geo.superellipse(1.5, 1.0, 4.0)
    monkeypatch.setattr(geo, "_TABLE_N", 8192)
    c2 = geo.superellipse(1.5, 1.0, 4.0)
    rel = abs(c1.total_length - c2.total_length) / c2.total_length
    assert rel < 1e-8


def test_signed_distance_circle_points(unit_circle):
    dom = geo.PlanarDomain(unit_circle)
    assert dom.signed_distance((0.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
    assert dom.signed_distance((0.5, 0.0)) == pytest.approx(-0.5, abs=1e-12)


def test_signed_distance_ellipse_center(ell21):
    dom = geo.PlanarDomain(ell21)
    assert abs(dom.signed_distance((0.0, 0.0)) + 1.0) < 1e-8


def test_signed_distance_circle_batch_oracle(unit_circle):
    dom = geo.PlanarDomain(unit_circle)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.4, 1.4, size=(500, 2))
    r = np.hypot(pts[:, 0], pts[:, 1])
    pts = pts[np.abs(r - 1.0) > 1e-3]  # keep the sign test clean
    got = dom.signed_distance(pts)
    exact = np.hypot(pts[:, 0], pts[:, 1]) - 1.0
    assert_allclose(got, exact, atol=1e-12)


def test_projection_circle(unit_circle):
    t, p = geo.project_to_curve(unit_circle, (0.3, 0.0))
    assert_allclose(p, [1.0, 0.0], atol=1e-12)
    assert t == pytest.approx(0.0, abs=1e-12)


def test_projection_circle_center_ambiguous(unit_circle):
    with pytest.raises(NonUniqueProjectionError):
        geo.project_to_curve(unit_circle, (0.0, 0.0))


def test_projection_ellipse_vertex(ell21):
    # (1.5, 0) is the focal point of the right vertex: still a unique
    # nearest point, sitting exactly at the end of the medial segment
    t, p = geo.project_to_curve(ell21, (1.5, 0.0))
    assert_allclose(p, [2.0, 0.0], atol=1e-6)


def test_projection_ellipse_medial_tie(ell21):
    with pytest.raises(NonUniqueProjectionError):
        geo.project_to_curve(ell21, (0.5, 0.0))


def test_inner_parallel_circle_is_circle(unit_circle):
    # Steiner's formula on the circle's table: constant curvature, and
    # every point at radius 0.7 (measured 2.2e-16)
    g = geo.inner_parallel_curve(unit_circle, 0.3)
    assert g.kappa_min == g.kappa_max and g.constant_curvature
    assert np.abs(np.hypot(g.points[:, 0], g.points[:, 1]) - 0.7).max() <= 4.4e-16
    assert abs(g.total_length - 2 * np.pi * 0.7) < 1e-10
    assert_allclose(g.curvatures, 1.0 / 0.7, rtol=1e-12)


def test_constant_curvature_allows_rounding_only(unit_circle):
    # a round ellipse's a*b/g**1.5 spreads by ulps (6.7e-16 measured) and
    # counts as constant; an ellipse 1e-9 off round does not
    assert unit_circle.constant_curvature
    round_ellipse = geo.ellipse(1.0, 1.0)
    assert round_ellipse.kappa_max > round_ellipse.curvatures.min()
    assert round_ellipse.constant_curvature
    assert not geo.ellipse(1.0 + 1e-9, 1.0).constant_curvature


def test_disk_offsets_need_no_quadrature(unit_circle, monkeypatch):
    def quadrature(provider):
        raise AssertionError("an offset's table comes from its base's")

    monkeypatch.setattr(geo, "_quadrature_table", quadrature)
    for delta in (0.1, 0.3, 0.9):
        geo.inner_parallel_curve(unit_circle, delta)


def test_inner_parallel_steiner(ell21):
    g = geo.inner_parallel_curve(ell21, 0.2)
    assert abs((ell21.total_length - g.total_length) - 2 * np.pi * 0.2) < 1e-12


def _egg():
    th = 2.0 * np.pi * np.arange(40) / 40
    r = 1.0 + 0.12 * np.cos(th) + 0.05 * np.sin(2.0 * th)
    return geo.spline_curve(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))


@pytest.fixture(scope="module")
def offset_bases():
    return {"ellipse": geo.ellipse(2.0, 1.0), "ellipse1.2": geo.ellipse(1.2, 1.0),
            "superellipse": geo.superellipse(1.2, 1.0, 4.0), "spline": _egg()}


@pytest.mark.parametrize("name", ["circle", "ellipse", "superellipse", "spline"])
@pytest.mark.parametrize("offset", [0.0, 0.2])
def test_every_curve_query_has_the_bits_of_frame(offset_bases, unit_circle, name, offset):
    g = unit_circle if name == "circle" else offset_bases[name]
    if offset:
        g = geo.inner_parallel_curve(g, offset)
    for t in (np.linspace(-0.3, 1.7, 997), 0.37):
        p, d1, kappa = g.frame(t)
        speed = np.linalg.norm(d1, axis=-1)
        tangent = d1 / speed[..., None]
        normal = np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
        assert np.array_equal(g.point(t), p) and np.array_equal(g.d1(t), d1)
        assert np.array_equal(g.speed(t), speed)
        assert np.array_equal(g.tangent(t), tangent)
        assert np.array_equal(g.normal(t), normal)
        assert np.array_equal(g.curvature(t), kappa)
        for depth in (0.05, 0.05 + 0.1 * np.abs(np.sin(7.0 * np.asarray(t)))):
            want = p - (depth[..., None] if np.ndim(depth) else depth) * normal
            assert np.array_equal(g.point_at_depth(t, depth), want)


def test_length_has_the_bits_of_linalg_norm():
    rng = np.random.default_rng(11)
    zero = np.zeros((3, 2))
    tiny = rng.uniform(-1.0, 1.0, (50, 2)) * 1e-160  # squares underflow
    huge = rng.uniform(-1.0, 1.0, (50, 2)) * 1e160  # squares overflow
    for v in (rng.normal(size=(1000, 2)), rng.normal(size=(7, 30, 2)) * 1e3,
              zero, tiny, huge, np.concatenate([tiny, huge, zero])):
        with np.errstate(over="ignore"):
            assert_array_equal(geo._length(v), np.linalg.norm(v, axis=-1))


def _old_normal(d1):
    """The outward normal as np.linalg.norm and np.stack made it."""
    t = d1 / np.linalg.norm(d1, axis=-1, keepdims=True)
    return np.stack([t[..., 1], -t[..., 0]], axis=-1)


def test_lean_frames_have_the_bits_of_the_stacked_formulas():
    rng = np.random.default_rng(12)
    for d1 in (rng.normal(size=(500, 2)), rng.normal(size=(4, 9, 2)), rng.normal(size=2)):
        assert_array_equal(geo._outward_normal_from_d1(d1), _old_normal(d1))
    a, b, delta = 1.2, 1.0, 0.2
    base = geo._EllipseProvider(a, b)
    offset = geo._OffsetProvider(base, delta)
    for t in (rng.uniform(-1.0, 2.0, 300), rng.uniform(0.0, 1.0, (5, 7)), 0.37):
        th = 2.0 * np.pi * np.asarray(t)
        c, s = np.cos(th), np.sin(th)
        g = a**2 * s**2 + b**2 * c**2
        p = np.stack([a * c, b * s], axis=-1)
        d1 = 2.0 * np.pi * np.stack([-a * s, b * c], axis=-1)
        kappa = a * b / g**1.5
        for got, want in zip(base.frame(t), (p, d1, kappa)):
            assert_array_equal(got, want)
        want = (p - delta * _old_normal(d1), d1 * (1.0 - delta * kappa)[..., None],
                kappa / (1.0 - delta * kappa))
        for got, w in zip(offset.frame(t), want):
            assert_array_equal(got, w)


@pytest.mark.parametrize("name", ["ellipse", "ellipse1.2", "superellipse"])
@pytest.mark.parametrize("delta", [0.1, 0.3])
def test_offset_table_matches_quadrature(offset_bases, name, delta):
    # Steiner's formula on the base table against a table built from the
    # offset's own parameterization by quadrature (measured <= 2.9e-14)
    base = offset_bases[name]
    g = geo.inner_parallel_curve(base, delta)
    q = geo.ConvexCurve(geo._OffsetProvider(base._provider, delta),
                        flat_tol=2.0 * base._flat_tol)
    assert np.abs(g.arclengths - q.arclengths).max() < 1e-13
    assert abs(g.total_length - q.total_length) < 1e-13
    assert np.array_equal(g.points, q.points)
    assert np.array_equal(g.curvatures, q.curvatures)
    assert_allclose(g.speeds, q.speeds, rtol=1e-15, atol=0.0)


def test_offset_table_on_a_spline_closes_at_its_length(offset_bases):
    # kappa |P'| kinks at the knots, so quadrature of the offset's speed
    # is off by 1e-10 there; the turning angles give the length instead,
    # and the arclength of the last cell meets it
    base = offset_bases["spline"]
    assert abs(base.tangent_angles[-1] + _turn(base.tangents[-1], base.tangents[0])
               - 2.0 * np.pi) < 1e-13
    for delta in (0.1, 0.3):
        g = geo.inner_parallel_curve(base, delta)
        assert abs((base.total_length - g.total_length) - 2.0 * np.pi * delta) < 1e-12
        assert abs(g.arclength(np.nextafter(1.0, 0.0)) - g.total_length) < 1e-12


def _turn(a, b):
    return np.arctan2(a[0] * b[1] - a[1] * b[0], a @ b)


def test_inner_parallel_degenerate(unit_circle, ell21):
    with pytest.raises(ParallelCurveDegeneracyError):
        geo.inner_parallel_curve(unit_circle, 1.1)
    # kappa_max of the 2x1 ellipse is a/b^2 = 2, so 0.6 > 1/2 degenerates
    with pytest.raises(ParallelCurveDegeneracyError):
        geo.inner_parallel_curve(ell21, 0.6)


def test_parallel_projection_reflexive(ell21):
    g = geo.inner_parallel_curve(ell21, 0.2)
    for t in (0.05, 0.3, 0.62, 0.88):
        x = g.point(t)
        _, p = geo.project_to_curve(g, x)
        assert np.linalg.norm(p - x) < 1e-9


def test_boundary_reflexivity(ell21):
    dom = geo.PlanarDomain(ell21)
    xb = ell21.point(np.linspace(0.0, 1.0, 200, endpoint=False))
    assert np.abs(dom.signed_distance(xb)).max() < 1e-9


def distance_gradient(dom, x, step=1e-5):
    """Oracle: grad signed_distance by central differences."""
    x = np.asarray(x, dtype=float)
    return np.array([(dom.signed_distance(x + e) - dom.signed_distance(x - e))
                     / (2 * step) for e in step * np.eye(2)])


def test_eikonal(unit_circle, ell21):
    for curve in (unit_circle, ell21):
        dom = geo.PlanarDomain(curve)
        for x in [(0.3, 0.4), (-0.2, 0.55), (0.6, -0.1)]:
            assert abs(np.linalg.norm(distance_gradient(dom, x)) - 1.0) < 1e-4


def test_foot_normals_are_distance_gradient(unit_circle, ell21):
    pts = np.array([(0.3, 0.4), (-0.2, 0.55), (0.6, -0.1), (0.05, -0.7)])
    circ = geo.PlanarDomain(unit_circle)
    radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.abs(circ.boundary.normal(circ.foot(pts)) - radial).max() < 1e-14
    dom = geo.PlanarDomain(ell21)
    oracle = np.array([distance_gradient(dom, x) for x in pts])
    assert np.abs(dom.boundary.normal(dom.foot(pts)) - oracle).max() < 1e-8


def random_spline(b, a2, a3, phase):
    """A perturbed ellipse through 24 control points; where the
    interpolant is not strictly convex, spline_curve refuses it."""
    th = 2 * np.pi * np.arange(24) / 24
    r = 1.0 + a2 * np.cos(2 * th + phase) + a3 * np.sin(3 * th)
    try:
        return geo.spline_curve(np.column_stack([r * np.cos(th), b * r * np.sin(th)]))
    except ConfigError:
        assume(False)


def random_spline_points(test):
    """Give test a random spline, parameters ts on it and a depth in
    [0, 0.95] in units of the smallest radius of curvature."""
    return settings(max_examples=30, deadline=None)(given(
        b=st.floats(0.5, 1.0), a2=st.floats(-0.04, 0.04),
        a3=st.floats(-0.02, 0.02), phase=st.floats(0.0, 2 * np.pi),
        ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        depth=st.floats(0.0, 0.95))(test))


@random_spline_points
def test_foot_matches_projection_on_random_splines(b, a2, a3, phase, ts, depth):
    curve = random_spline(b, a2, a3, phase)
    dom = geo.PlanarDomain(curve)
    ts = np.array(ts)
    # interior points up to 0.95 of the smallest radius of curvature deep
    X = curve.point(ts) - (depth / curve.kappa_max) * curve.normal(ts)
    foot = np.mod(dom.foot(X), 1.0)
    for x, t in zip(X, foot):
        try:
            t_proj = geo.project_to_curve(curve, x)[0]
        except NonUniqueProjectionError:
            continue
        gap = abs(t - t_proj) % 1.0
        assert min(gap, 1.0 - gap) < 1e-10


@random_spline_points
def test_signed_distance_and_eikonal_on_random_splines(b, a2, a3, phase, ts, depth):
    curve = random_spline(b, a2, a3, phase)
    dom = geo.PlanarDomain(curve)
    ts = np.array(ts)
    d = depth / curve.kappa_max
    X = curve.point(ts) - d * curve.normal(ts)
    # the inward normal at distance d < 1/kappa_max keeps its foot
    # (Blaschke's rolling theorem); measured worst 2.5e-16 in the
    # distance and 3.3e-16 in the foot over 40 curves at depths up to
    # 0.95/kappa_max
    assert np.abs(dom.signed_distance(X) + d).max() < 1e-14
    gap = np.abs(np.mod(dom.foot(X), 1.0) - ts)
    assert np.minimum(gap, 1.0 - gap).max() < 1e-14
    # measured worst 3.7e-8
    for x in X:
        assert abs(np.linalg.norm(distance_gradient(dom, x)) - 1.0) < 1e-6


def test_deep_points_keep_their_foot_on_the_ellipse(ell21):
    # kappa_max = 2 at the vertices (+-2, 0); measured worst 1.8e-15 in
    # the distance and 1.1e-16 in the foot
    dom = geo.PlanarDomain(ell21)
    ts = np.linspace(0.0, 1.0, 97, endpoint=False) + 0.003
    for frac in (0.0, 0.25, 0.5, 0.75, 0.9, 0.95):
        d = frac / ell21.kappa_max
        X = ell21.point(ts) - d * ell21.normal(ts)
        t, dist = dom.nearest(X)
        assert np.abs(dist + d).max() < 1e-14
        gap = np.abs(np.mod(t, 1.0) - ts)
        assert np.minimum(gap, 1.0 - gap).max() < 1e-14


class CountingTree:
    """The boundary's kd-tree, counting the query points it is asked."""

    def __init__(self, curve):
        self._tree = cKDTree(curve.points)
        self.asked = 0

    def query(self, X):
        self.asked += len(X)
        return self._tree.query(X)


def _egg():
    th = 2.0 * np.pi * np.arange(40) / 40
    r = 1.0 + 0.12 * np.cos(th) + 0.05 * np.sin(2.0 * th)
    return geo.spline_curve(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))


@pytest.fixture(scope="module")
def guess_domains():
    curves = {"disk": geo.circle(1.0), "ellipse": geo.ellipse(2.0, 1.0),
              "superellipse": geo.superellipse(1.0, 0.8, 4.0), "egg": _egg()}
    return {name: geo.PlanarDomain(c) for name, c in curves.items()}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["disk", "egg", "ellipse", "superellipse"]),
       ts=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=8),
       depth=st.floats(0.0, 0.999),
       cells=st.one_of(st.floats(-1.0, 1.0), st.integers(3, 40), st.integers(-40, -3)))
def test_nearest_from_a_guess_has_the_kdtree_bits(guess_domains, name, ts, depth, cells):
    # a guess within a cell of a foot at depth below 1/kappa_max starts
    # Newton from the kd-tree's node; one 3 or more cells off asks it
    dom = guess_domains[name]
    bd = dom.boundary
    ts = np.array(ts)
    X = bd.point(ts) - (depth / bd.kappa_max) * bd.normal(ts)
    want = dom.nearest(X)
    bd._tree = tree = CountingTree(bd)
    try:
        got = dom.nearest(X, guess=ts + cells / bd._n)
    finally:
        bd._tree = None
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if isinstance(cells, int):  # guesses 3 or more cells off
        assert tree.asked == len(X)


def test_nearest_guess_leaves_tied_nodes_to_the_kdtree(unit_circle):
    # feet at cell midpoints are equidistant from two nodes; rounding
    # orders them, and the window's pick disagreed with the kd-tree's
    # on 2 of these 20000 points, moving t in its last bits
    dom = geo.PlanarDomain(unit_circle)
    n = unit_circle._n
    rng = np.random.default_rng(1)
    t = (rng.integers(0, n, 20000) + 0.5) / n
    X = unit_circle.point(t) - rng.uniform(0.0, 0.999, t.size)[:, None] * unit_circle.normal(t)
    want, got = dom.nearest(X), dom.nearest(X, guess=t)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_nearest_guess_nan_means_no_guess(ell21):
    dom = geo.PlanarDomain(ell21)
    ts = np.array([0.1, 0.35, 0.8])
    X = ell21.point(ts) - 0.2 * ell21.normal(ts)
    ell21._tree = tree = CountingTree(ell21)
    try:
        got = dom.nearest(X, guess=np.array([np.nan, 0.35, np.nan]))
    finally:
        ell21._tree = None
    assert tree.asked == 2
    want = dom.nearest(X)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    with pytest.raises(ConfigError):
        dom.nearest(X, guess=ts[:2])


def test_convexity_margin_circle_closed_form(unit_circle):
    # nu_P.(P-Q) = |P-Q|^2 / (2R) on a circle; minimum at |P-Q| = dsep
    for dsep in (0.3, 0.5, 1.0):
        m = verify.check_strict_convexity(unit_circle, dsep)
        assert abs(m - dsep**2 / 2.0) < 1e-9


def test_convexity_margin_zero_sep(unit_circle):
    assert verify.check_strict_convexity(unit_circle, 0.0) == 0.0


def _ellipse_margin_oracle(a, b, dsep):
    """Dense closed-form pair scan plus constrained polish, built only
    from raw ellipse formulas."""
    th = np.linspace(0.0, 2 * np.pi, 1000, endpoint=False)
    P = np.column_stack([a * np.cos(th), b * np.sin(th)])
    nr = np.column_stack([b * np.cos(th), a * np.sin(th)])
    nr /= np.linalg.norm(nr, axis=1)[:, None]
    best, pair = np.inf, (0, 0)
    for lo in range(0, len(th), 200):
        diff = P[lo : lo + 200, None, :] - P[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        val = np.einsum("ik,ijk->ij", nr[lo : lo + 200], diff)
        val = np.where(dist >= dsep, val, np.inf)
        k = np.unravel_index(np.argmin(val), val.shape)
        if val[k] < best:
            best, pair = float(val[k]), (lo + k[0], k[1])

    def pt(t):
        return np.array([a * np.cos(t), b * np.sin(t)])

    def nu(t):
        v = np.array([b * np.cos(t), a * np.sin(t)])
        return v / np.linalg.norm(v)

    res = minimize(
        lambda z: float(nu(z[0]) @ (pt(z[0]) - pt(z[1]))),
        np.array([th[pair[0]], th[pair[1]]]),
        method="SLSQP",
        constraints=[
            {
                "type": "ineq",
                "fun": lambda z: float(np.linalg.norm(pt(z[0]) - pt(z[1])) - dsep),
            }
        ],
        options={"ftol": 1e-14, "maxiter": 300},
    )
    assert res.success
    return min(best, float(res.fun))


def test_convexity_margin_ellipse_vs_brute_force(ell21):
    oracle = _ellipse_margin_oracle(2.0, 1.0, 0.5)
    m = verify.check_strict_convexity(ell21, 0.5)
    assert m > 0
    assert abs(m - oracle) < 1e-6


def test_contraction_circle_passes(unit_circle):
    m = verify.check_strict_convexity(unit_circle, 0.5)
    rep = verify.contraction_check(unit_circle, 0.5, m / 2, 10_000, seed=7)
    assert rep.n_violations == 0
    assert rep.worst_slack > 0.0


def test_contraction_algebraic_bound(unit_circle):
    # independent of the sampler: for |P-Q| >= dsep on the unit circle and
    # shifts below the margin, the squared-distance drop dominates
    # 2(eta1+eta2)*margin - (eta1+eta2)^2
    dsep, m = 0.5, 0.125
    th = np.linspace(0.0, 2 * np.pi, 60)
    for i, a1 in enumerate(th):
        a2 = a1 + 2.1 * np.arcsin(dsep / 2.0) + 0.07 * i
        P = np.array([np.cos(a1), np.sin(a1)])
        Q = np.array([np.cos(a2), np.sin(a2)])
        e1, e2 = 0.061 * (1 + np.sin(3 * a1)) / 2, 0.061 * (1 + np.cos(2 * a2)) / 2
        orig = np.linalg.norm(P - Q)
        assert orig >= dsep
        moved = np.linalg.norm(P * (1 - e1) - Q * (1 - e2))
        drop = orig**2 - moved**2
        assert drop >= 2 * (e1 + e2) * m - (e1 + e2) ** 2 - 1e-12


def test_contraction_large_eta_fails(unit_circle):
    m = verify.check_strict_convexity(unit_circle, 0.5)
    with pytest.raises(PropertyViolationError) as exc:
        verify.contraction_check(unit_circle, 0.5, 3 * m, 10_000, seed=7)
    rep = exc.value.report
    assert rep.n_violations > 0
    assert rep.worst_slack <= 0.0


def _polar_points(rfun, n=48):
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    r = rfun(th)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def test_spline_curve_accepts_convex_rejects_dented():
    convex = _polar_points(lambda th: 1.0 + 0.1 * np.cos(2 * th))
    c = geo.spline_curve(convex)
    assert c.kappa_min > 0
    dom = geo.PlanarDomain(c)
    assert dom.signed_distance(dom.centroid) < 0

    dented = _polar_points(lambda th: 1.0 + 0.4 * np.cos(3 * th))
    with pytest.raises(ConfigError):
        geo.spline_curve(dented)


def test_spline_curve_reorients_clockwise_input():
    pts = _polar_points(lambda th: 1.0 + 0.1 * np.cos(2 * th))
    c1 = geo.spline_curve(pts)
    c2 = geo.spline_curve(pts[::-1])
    assert abs(c1.total_length - c2.total_length) < 1e-12


def test_curve_from_csv(tmp_path):
    pts = _polar_points(lambda th: 1.0 + 0.1 * np.cos(2 * th))
    path = tmp_path / "boundary.csv"
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in pts:
            fh.write(f"{x:.17g},{y:.17g}\n")
    c = geo.curve_from_csv(path)
    ref = geo.spline_curve(pts)
    assert abs(c.total_length - ref.total_length) < 1e-12


def test_make_curve_dispatch():
    circle = geo.make_curve({"kind": "circle", "radius": 2.0})
    assert isinstance(circle._provider, geo._CircleProvider)
    assert circle._provider.radius == 2.0
    ellipse = geo.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    assert isinstance(ellipse._provider, geo._EllipseProvider)
    assert (ellipse._provider.a, ellipse._provider.b) == (2.0, 1.0)
    with pytest.raises(ConfigError):
        geo.make_curve({"kind": "hyperbola"})
    with pytest.raises(ConfigError):
        geo.make_curve({"kind": "ellipse", "a": 2.0})
    with pytest.raises(ConfigError):
        geo.make_curve("circle")


def test_normals_outward(unit_circle, ell21):
    for curve in (unit_circle, ell21):
        out = np.einsum(
            "ij,ij->i", curve.normals, curve.points - curve._centroid
        )
        assert out.min() > 0


def test_arclength_roundtrip(ell21):
    ts = np.array([0.0, 0.123, 0.5, 0.771, 0.9999])
    ss = ell21.arclength(ts)
    assert np.abs(ell21.param_at_arclength(ss) - ts).max() < 1e-12
    assert abs(ell21.arclength(1.0) - ell21.total_length) < 1e-12
    assert ell21.arclength(np.empty(0)).shape == (0,)


def test_inradius(unit_circle, ell21):
    # both are centrally symmetric, so the centroid is an incenter and its
    # depth the inradius, 1 on each
    assert abs(geo.PlanarDomain(unit_circle).centroid_depth - 1.0) < 1e-9
    assert abs(geo.PlanarDomain(ell21).centroid_depth - 1.0) < 1e-6


def grid_inradius(dom, n=400):
    """(largest depth over an n x n grid on the box of the boundary
    table, the grid's cell diagonal). The depth of a node is its
    distance to the nearest of every fourth table point, inside when
    that point's outward normal faces away from it. That is never less
    than the node's true depth, so the inradius is at most the largest
    depth plus a cell diagonal; the points are dense enough that the
    largest depth exceeds the inradius by at most about 2e-5."""
    bd = dom.boundary
    pts, normals = bd.points[::4], bd.normals[::4]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    xs, ys = np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n)
    X = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    d, j = cKDTree(pts).query(X)
    inside = np.einsum("ij,ij->i", X - pts[j], normals[j]) < 0.0
    return float(d[inside].max()), float(np.hypot(xs[1] - xs[0], ys[1] - ys[0]))


def _lopsided_egg():
    """x = cos t, y = 0.8 sin t (1 + 0.2 cos t) at 40 points, around
    (3, -1): no symmetry, and its centroid lies off its incenter."""
    t = 2.0 * np.pi * np.arange(40) / 40
    pts = np.stack([np.cos(t), 0.8 * np.sin(t) * (1.0 + 0.2 * np.cos(t))], axis=1)
    return geo.spline_curve(pts + (3.0, -1.0))


@pytest.mark.parametrize("name", [*pack_sweep.DOMAINS, "lopsided egg"])
def test_depth_bounds_meet_a_grid_oracle(name):
    # Blaschke's rolling theorem: the inradius is at least 1/kappa_max,
    # so the crown's offset top 0.95/kappa_max lies inside; Minkowski-Radon:
    # the centroid's depth is at least 2/3 of the inradius, so the input
    # checks of choose_spike_count and discretize refuse at most a third
    # more than an inradius bound would
    dom = (geo.PlanarDomain(_lopsided_egg()) if name == "lopsided egg"
           else geo.make_domain(pack_sweep.DOMAINS[name]))
    r_in, spacing = grid_inradius(dom)
    assert 1.0 / dom.boundary.kappa_max <= r_in + spacing
    assert dom.centroid_depth >= 2.0 / 3.0 * r_in
    if name in ("disk", "ellipse 2x1"):
        # test_inradius's two domains, whose inradius is 1
        assert abs(r_in - 1.0) <= spacing


@pytest.mark.parametrize("spec", [
    {"kind": "circle", "radius": 1.0},
    {"kind": "ellipse", "a": 1.2, "b": 1.0},
    {"kind": "ellipse", "a": 3.0, "b": 1.0},
    {"kind": "superellipse", "a": 1.0, "b": 1.0, "m": 3.0},
], ids=["disk", "ellipse-1.2x1", "ellipse-3x1", "superellipse-m3"])
def test_centroid_depth_bounds_the_inradius(spec, monkeypatch):
    # one query, cached, and never deeper than the grid oracle's inradius
    dom = geo.make_domain(spec)
    queries = []
    nearest = dom.nearest
    monkeypatch.setattr(dom, "nearest", lambda X, guess=None: queries.append(len(X))
                        or nearest(X, guess))
    depth = dom.centroid_depth
    assert dom.centroid_depth == depth == -dom.signed_distance(dom.centroid)
    assert queries == [1, 1]
    r_in, spacing = grid_inradius(dom)
    assert depth <= r_in + spacing
