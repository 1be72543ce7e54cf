"""Strictly convex planar curves and the domains they bound.

A boundary curve is represented by a smooth parameterization t in [0,1)
together with a dense precomputed table (points, tangents, outward
normals, curvature, cumulative arclength). Everything downstream only
needs the table for bracketing; final answers always come from the
underlying parameterization, so table resolution limits robustness, not
accuracy.

Supported shapes: circles, ellipses, superellipses |x/a|^m + |y/b|^m = 1
with m >= 2, and periodic cubic splines through sampled control points.
Offsetting inward by delta < 1/kappa_max yields the inner parallel curve
with curvature kappa/(1 - delta*kappa); no third derivatives are needed
for that, which is why a provider has one method, frame: point, first
derivative and curvature from one pass. Every curve query reads it,
through ConvexCurve.frame. The packing Newtons and the oracle march
call frame once per step on small batches, so frames fill their
(..., 2) arrays in place and lengths come from _length, not np.stack
and np.linalg.norm: the same bits, fewer numpy calls. The offset's table
comes from its base's by Steiner's formula: the same tangents, points
moved by -delta*nu, speeds and curvatures rescaled by (1 - delta*kappa),
and each arc shortened by delta times its turning angle. Every offset,
a circle's included, is built that way.
"""

from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .errors import (
    ConfigError,
    IntegrationError,
    NonUniqueProjectionError,
    ParallelCurveDegeneracyError,
)

_TABLE_N = 4096  # nodes of every curve's parameter table
_GAUSS5 = np.polynomial.legendre.leggauss(5)
_GAUSS10 = np.polynomial.legendre.leggauss(10)
_FOOT_TOL, _FOOT_STEPS, _FOOT_FLOOR = 1e-15, 20, 1e-2  # see PlanarDomain.nearest
# two table nodes this close to a query (relative, in squared distance)
# may be ordered apart by rounding; PlanarDomain._nearest_nodes leaves
# them to the kd-tree
_NODE_TIE = 1e-9
# curvature tables spread by at most this times kappa_max count as constant
_CONSTANT_KAPPA = 1e-12

def _length(v):
    """|v| over a last axis of length 2, with np.linalg.norm's bits (its
    sum of squares is an add.reduce, which adds two terms in order) and
    none of its overhead."""
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def _unit_tangent(d1):
    return d1 / _length(d1)[..., None]


def _outward_normal_from_d1(d1):
    # counterclockwise parameterization: outward = tangent rotated -90 deg
    speed = _length(d1)
    nu = np.empty_like(d1)
    nu[..., 0] = d1[..., 1] / speed
    nu[..., 1] = -(d1[..., 0] / speed)
    return nu


class _CircleProvider:
    def __init__(self, radius, center):
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)

    def frame(self, t):
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        c, s = np.cos(th), np.sin(th)
        return (self.center + self.radius * np.stack([c, s], axis=-1),
                (2.0 * np.pi * self.radius) * np.stack([-s, c], axis=-1),
                np.full(np.shape(th), 1.0 / self.radius))


class _EllipseProvider:
    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)

    def frame(self, t):
        th = 2.0 * np.pi * np.asarray(t, dtype=float)
        c, s = np.cos(th), np.sin(th)
        g = self.a**2 * s**2 + self.b**2 * c**2
        p, d1 = np.empty((2, *th.shape, 2))
        p[..., 0], p[..., 1] = self.a * c, self.b * s
        d1[..., 0], d1[..., 1] = 2.0 * np.pi * (-self.a * s), 2.0 * np.pi * (self.b * c)
        return p, d1, self.a * self.b / g**1.5


class _SplineProvider:
    """Periodic cubic spline r(t) on [0,1]; curvature from r', r''."""

    def __init__(self, spline):
        self._s = spline
        self._s1 = spline.derivative(1)
        self._s2 = spline.derivative(2)

    def frame(self, t):
        tm = np.mod(np.asarray(t, dtype=float), 1.0)
        d1 = self._s1(tm)
        d2 = self._s2(tm)
        cross = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        return self._s(tm), d1, cross / _length(d1)**3


class _OffsetProvider:
    """Inward offset by delta of a base curve, built without second
    derivatives of the offset map: the unit tangent is preserved, the
    speed picks up the factor (1 - delta*kappa), and the curvature is
    kappa / (1 - delta*kappa)."""

    def __init__(self, base, delta):
        self.base = base
        self.delta = float(delta)

    def frame(self, t):
        p, d1, k = self.base.frame(t)
        shrink = 1.0 - self.delta * k
        return (p - self.delta * _outward_normal_from_d1(d1),
                d1 * shrink[..., None], k / shrink)


def _polygon_area_centroid(pts):
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return area, np.array([cx, cy])


class _Table(NamedTuple):
    """A curve's values at the nodes t_j = j/_TABLE_N, with its point at
    t = 1 (for the closure check) and its length."""

    end: np.ndarray
    points: np.ndarray
    speeds: np.ndarray
    tangents: np.ndarray
    curvatures: np.ndarray
    arclengths: np.ndarray
    total_length: float


def _segment_lengths(provider, t_nodes, rule):
    nodes, weights = rule
    n = len(t_nodes)
    h = 1.0 / n
    # Gauss points of every [t_j, t_j+h], evaluated in one vector call
    tt = t_nodes[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)
    sp = _length(provider.frame(tt.ravel())[1]).reshape(n, -1)
    return (h / 2.0) * sp @ weights


def _quadrature_table(provider):
    """The table from the provider, arclengths by Gauss-10 quadrature per
    cell, checked against Gauss-5."""
    n = _TABLE_N
    t_nodes = np.arange(n) / n
    points, d1, curvatures = provider.frame(t_nodes)
    speeds = _length(d1)
    seg5 = _segment_lengths(provider, t_nodes, _GAUSS5)
    seg10 = _segment_lengths(provider, t_nodes, _GAUSS10)
    ell5, ell10 = seg5.sum(), seg10.sum()
    if abs(ell5 - ell10) > 1e-8 * ell10:
        raise IntegrationError(
            f"arclength quadrature not converged: {ell5!r} vs {ell10!r}"
        )
    s = np.concatenate([[0.0], np.cumsum(seg10)])
    return _Table(provider.frame(1.0)[0], points, speeds, d1 / speeds[:, None],
                  curvatures, s[:-1], float(s[-1]))


def _offset_table(curve, provider):
    """The table of the inward offset by provider.delta of curve, from
    curve's own table (Steiner's formula): arcs shorten by delta times
    their turning angle, and the whole curve by 2*pi*delta."""
    delta = provider.delta
    shrink = 1.0 - delta * curve.curvatures
    return _Table(provider.frame(1.0)[0], curve.points - delta * curve.normals,
                  curve.speeds * shrink, curve.tangents,
                  curve.curvatures / shrink,
                  curve.arclengths - delta * curve.tangent_angles,
                  curve.total_length - 2.0 * np.pi * delta)


class ConvexCurve:
    """Closed strictly convex curve with a dense parameter table.

    The parameter t lives on [0,1) and wraps; all evaluation methods
    accept scalars or arrays and any real t. The table comes from the
    provider by quadrature, or is given (inner_parallel_curve derives it
    from the base curve's). Either way _check_table validates closure,
    counterclockwise orientation, outward normals, positive
    curvature (a small negative dip is tolerated only for flat-vertex
    curves like superellipses, where spline interpolation of the exact
    points wobbles at the curvature zeros), and single winding.
    """

    def __init__(self, provider, flat_tol=0.0, table=None):
        self._provider = provider
        self._flat_tol = float(flat_tol)
        n = self._n = _TABLE_N
        if table is None:
            table = _quadrature_table(provider)
        self.t_nodes = np.arange(n) / n
        self.points = table.points
        self.speeds = table.speeds
        self.tangents = table.tangents
        self.normals = np.stack(
            [self.tangents[:, 1], -self.tangents[:, 0]], axis=-1
        )
        self.curvatures = table.curvatures
        self.arclengths, self.total_length = table.arclengths, table.total_length
        # the table closed at t = 1, for lookups of s(t) and t(s)
        self.s_closed = np.append(self.arclengths, self.total_length)
        self.t_closed = np.append(self.t_nodes, 1.0)
        self.kappa_max = float(self.curvatures.max())
        self.kappa_min = max(float(self.curvatures.min()), 0.0)
        # a circle's, and a round ellipse's, whose a*b/g**1.5 spreads by ulps
        self.constant_curvature = bool(
            self.kappa_max - self.kappa_min <= _CONSTANT_KAPPA * self.kappa_max)
        self._check_table(table.end)
        self._tree = None
        self._angles = None

    def _check_table(self, end):
        gap = np.linalg.norm(end - self.points[0])
        if gap > 1e-10:
            raise ConfigError(f"curve does not close: endpoint gap {gap:.2e}")
        kmin = float(self.curvatures.min())
        if kmin <= 0.0 and kmin < -self._flat_tol:
            raise ConfigError(
                f"curve is not strictly convex: min curvature {kmin:.3e}"
            )
        area, centroid = _polygon_area_centroid(self.points)
        if area <= 0.0:
            raise ConfigError("parameterization must run counterclockwise")
        self._centroid = centroid
        out = np.einsum("ij,ij->i", self.normals, self.points - centroid)
        if out.min() <= 0.0:
            raise ConfigError("normals are not consistently outward")
        turning = float(
            np.sum(self.curvatures * np.diff(self.arclengths, append=self.total_length))
        )
        if abs(turning - 2.0 * np.pi) > 0.05:
            raise ConfigError(
                f"total turning {turning:.4f} differs from 2*pi; curve winds "
                "more than once or is not simple"
            )

    @property
    def tangent_angles(self):
        """Tangent angle at each node less that at t = 0: the sum of the
        exact angles between consecutive node tangents."""
        if self._angles is None:
            t, t_next = self.tangents[:-1], self.tangents[1:]
            cross = t[:, 0] * t_next[:, 1] - t[:, 1] * t_next[:, 0]
            step = np.arctan2(cross, np.einsum("ij,ij->i", t, t_next))
            self._angles = np.concatenate([[0.0], np.cumsum(step)])
        return self._angles

    # -- evaluation -----------------------------------------------------------

    def frame(self, t):
        """(point, first derivative, curvature) at t, from one provider
        pass; every other query below reads it."""
        return self._provider.frame(t)

    def point(self, t):
        return self.frame(t)[0]

    def d1(self, t):
        return self.frame(t)[1]

    def speed(self, t):
        return _length(self.d1(t))

    def tangent(self, t):
        return _unit_tangent(self.d1(t))

    def normal(self, t):
        return _outward_normal_from_d1(self.d1(t))

    def curvature(self, t):
        return self.frame(t)[2]

    def point_at_depth(self, t, depth):
        """The point at depth along the inward normal at t: point(t) -
        depth * normal(t), from one frame pass."""
        p, d1, _ = self.frame(t)
        return p - np.asarray(depth)[..., None] * _outward_normal_from_d1(d1)

    def arclength(self, t):
        """Cumulative arclength s(t) from t=0, valid for any real t."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tm = np.mod(np.atleast_1d(t), 1.0)
        wraps = np.floor(np.atleast_1d(t) - tm + 0.5)  # integer wrap count
        j = np.minimum((tm * self._n).astype(int), self._n - 1)
        t0 = self.t_nodes[j]
        half = (tm - t0) / 2.0
        nodes, weights = _GAUSS5
        tt = t0[:, None] + (nodes[None, :] + 1.0) * half[:, None]
        sp = _length(self.d1(tt.ravel())).reshape(tt.shape)
        s = self.arclengths[j] + half * (sp @ weights) + wraps * self.total_length
        return s[0] if scalar else s

    def param_at_arclength(self, s):
        """Inverse of arclength; linear table lookup plus Newton polish."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        sm = np.mod(np.atleast_1d(s), self.total_length)
        t = np.interp(sm, self.s_closed, self.t_closed)
        for _ in range(2):
            t = t - (self.arclength(t) - sm) / self.speed(t)
        t = np.mod(t, 1.0)
        return t[0] if scalar else t

    # -- cached acceleration structures --------------------------------------

    @property
    def kdtree(self):
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree


# -- constructors -------------------------------------------------------------


def _finite(what, val):
    """val as a float; a bool, string, None or non-finite value is a ConfigError."""
    try:
        if isinstance(val, (bool, np.bool_, str, bytes)):
            raise TypeError
        x = float(val)
    except (TypeError, ValueError, OverflowError):
        x = np.nan
    if not np.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {val!r}")
    return x


def _positive(what, val):
    x = _finite(what, val)
    if not x > 0:
        raise ConfigError(f"{what} must be positive, got {val!r}")
    return x


def _circle_args(radius, center=(0.0, 0.0)):
    try:
        cx, cy = center
    except (TypeError, ValueError):
        raise ConfigError(f"circle center must be a pair of numbers, got {center!r}") from None
    center = (_finite("circle center", cx), _finite("circle center", cy))
    return _positive("circle radius", radius), center


def circle(radius, center=(0.0, 0.0)):
    return ConvexCurve(_CircleProvider(*_circle_args(radius, center)))


def _ellipse_args(a, b):
    return _positive("ellipse semi-axis a", a), _positive("ellipse semi-axis b", b)


def ellipse(a, b):
    return ConvexCurve(_EllipseProvider(*_ellipse_args(a, b)))


def _superellipse_point(a, b, m, th):
    c, s = np.cos(th), np.sin(th)
    x = a * np.sign(c) * np.abs(c) ** (2.0 / m)
    y = b * np.sign(s) * np.abs(s) ** (2.0 / m)
    return np.stack([x, y], axis=-1)


def _superellipse_args(a, b, m):
    a, b = _positive("superellipse semi-axis a", a), _positive("superellipse semi-axis b", b)
    m = _finite("superellipse exponent", m)
    if m < 2:
        raise ConfigError(f"superellipse exponent must be >= 2, got {m}")
    return a, b, m


def superellipse(a, b, m):
    """|x/a|^m + |y/b|^m = 1, interpolated through exact points placed
    uniformly in arclength. For m > 2 the curvature vanishes at the four
    axis crossings, so the convexity gate tolerates the interpolation
    wobble there (below 1e-3) instead of demanding a positive floor."""
    a, b, m = _superellipse_args(a, b, m)
    n = _TABLE_N
    mm = 4 * n
    th = np.linspace(0.0, 2.0 * np.pi, mm + 1)
    pts = _superellipse_point(a, b, m, th)
    chord = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]
    )
    s_targets = chord[-1] * np.arange(n) / n
    th_nodes = np.interp(s_targets, chord, th)
    data = _superellipse_point(a, b, m, th_nodes)
    data = np.vstack([data, data[:1]])
    ts = np.arange(n + 1) / n
    sp = CubicSpline(ts, data, axis=0, bc_type="periodic")
    flat_tol = 1e-3 if m > 2 else 0.0
    return ConvexCurve(_SplineProvider(sp), flat_tol)


def _spline_args(points):
    """The control points, counterclockwise and closed (first repeated last)."""
    try:
        pts = np.asarray(points)
    except ValueError:  # ragged nesting
        pts = None
    if pts is None or pts.dtype.kind not in "iuf" or not np.isfinite(pts).all():
        raise ConfigError(f"spline control points must be finite numbers, got {points!r}")
    pts = pts.astype(float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise ConfigError("need at least 4 planar control points")
    if np.linalg.norm(pts[0] - pts[-1]) < 1e-12:
        pts = pts[:-1]
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    if area < 0:
        pts = pts[::-1]
    closed = np.vstack([pts, pts[:1]])
    if np.linalg.norm(np.diff(closed, axis=0), axis=1).min() < 1e-12:
        raise ConfigError("duplicate consecutive control points")
    return closed


def spline_curve(points):
    """Closed periodic cubic spline through sampled boundary points.

    Points may be listed clockwise; they are reoriented. Construction
    fails with ConfigError when the interpolant is not strictly convex.
    """
    closed = _spline_args(points)
    u = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(closed, axis=0), axis=1))])
    u /= u[-1]
    sp = CubicSpline(u, closed, axis=0, bc_type="periodic")
    return ConvexCurve(_SplineProvider(sp))


def curve_from_csv(path):
    """Control points from a CSV of x,y rows (optional header)."""
    try:
        try:
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError:
            pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read spline points from {path!r}: {exc}") from None
    return spline_curve(pts)


# the keys each curve kind reads besides "kind"; a spline takes one of
# points and csv
_SPEC_KEYS = {"circle": {"radius", "center"}, "ellipse": {"a", "b"},
              "superellipse": {"a", "b", "m"}, "spline": {"points", "csv"}}


def _spec_call(spec):
    """The constructor a curve spec names, the check of its arguments,
    and the arguments as given."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"curve spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ConfigError(f"unknown curve kind {kind!r}")
    unknown = sorted(set(spec) - _SPEC_KEYS[kind] - {"kind"})
    if unknown:
        raise ConfigError(f"unknown {kind} spec keys {unknown}")
    if {"points", "csv"} <= spec.keys():
        raise ConfigError("a spline spec takes points or csv, not both")
    try:
        if kind == "circle":
            return circle, _circle_args, (spec["radius"], spec.get("center", (0.0, 0.0)))
        if kind == "ellipse":
            return ellipse, _ellipse_args, (spec["a"], spec["b"])
        if kind == "superellipse":
            return superellipse, _superellipse_args, (spec["a"], spec["b"], spec["m"])
        if "csv" in spec:
            # the file is read only when the curve is built
            return curve_from_csv, lambda path: path, (spec["csv"],)
        return spline_curve, _spline_args, (spec["points"],)
    except KeyError as exc:
        raise ConfigError(f"curve spec {spec!r} missing field {exc}") from None


def check_curve_spec(spec):
    """Raise ConfigError unless spec has a known kind, that kind's keys
    and valid numbers; builds no curve, so a config is checked when it
    is read."""
    _, check, args = _spec_call(spec)
    check(*args)


def make_curve(spec):
    """Curve from a plain dict, e.g. {"kind": "ellipse", "a": 2.0, "b": 1.0}."""
    build, _, args = _spec_call(spec)
    return build(*args)


def _vertex_offset(X, points, j):
    """Per row of X, the vertex of the parabola through its squared
    distances to nodes j-1, j and j+1, in cells from node j, clipped to
    one cell. Its three node differences per row are freed on return,
    before the foot iteration's own temporaries are made."""
    near = X[:, None, :] - points[(j[:, None] + np.arange(-1, 2)) % len(points)]
    d2m, d20, d2p = np.einsum("ijk,ijk->ji", near, near)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.nan_to_num(0.5 * (d2m - d2p) / (d2m - 2.0 * d20 + d2p))
    return np.clip(alpha, -1.0, 1.0)


class PlanarDomain:
    """Region bounded by a strictly convex curve; distances are signed
    negative inside."""

    def __init__(self, boundary):
        if not isinstance(boundary, ConvexCurve):
            raise ConfigError("domain boundary must be a ConvexCurve")
        self.boundary = boundary
        self._centroid_depth = None

    def nearest(self, X, guess=None):
        """(t, d) per row of X: the parameter t of its nearest boundary
        point (its foot, also its projection parameter on every inner
        parallel curve) and its signed distance d, negative inside.

        From the parabolic vertex through the nearest table node, Newton
        on the tangency residual (P - x).P' with slope |P'|^2 (1 - kappa*d)
        converges quadratically until a step is at most _FOOT_TOL in t, or
        for _FOOT_STEPS steps, with one provider frame per step. The slope floor _FOOT_FLOOR*|P'|^2 and the
        one-cell step clip keep focal and medial-axis points finite.

        guess, optional, holds a foot parameter per row (NaN for none)
        and only saves the kd-tree query: within a cell of the foot of a
        point at depth below 1/kappa_max the answer has the same bits
        (see _nearest_nodes). A guess far from the foot falls back on the
        kd-tree unless its window holds another local minimum of the
        distance, which Newton would then polish instead.
        """
        X = np.asarray(X, dtype=float)
        if not np.all(np.isfinite(X)):
            raise ConfigError("query points must be finite")
        bd = self.boundary
        n = bd._n
        j = self._nearest_nodes(X, guess)
        t = bd.t_nodes[j] + _vertex_offset(X, bd.points, j) / n
        rows = np.arange(len(X))
        for _ in range(_FOOT_STEPS):
            tr = t[rows]
            p, d1, kappa = bd.frame(tr)
            diff = p - X[rows]
            depth = np.einsum("ij,ij->i", diff, _outward_normal_from_d1(d1))
            slope = np.einsum("ij,ij->i", d1, d1) * np.maximum(
                1.0 - kappa * depth, _FOOT_FLOOR)
            step = np.clip(np.einsum("ij,ij->i", diff, d1) / slope, -1.0 / n, 1.0 / n)
            t[rows] = tr - step
            rows = rows[np.abs(step) > _FOOT_TOL]
            if not rows.size:
                break
        p, d1, _ = bd.frame(t)
        diff = X - p
        dist = _length(diff)
        side = np.einsum("ij,ij->i", _outward_normal_from_d1(d1), diff)
        return t, np.where(side >= 0.0, dist, -dist)

    def _nearest_nodes(self, X, guess):
        """Index of the table node nearest to each row of X.

        A row with a guess takes the nearest of the four nodes around
        its guess when that node is one of the middle two, clearly
        nearer than the runner-up: the distance falls towards it from
        both ends of the window, so it is the kd-tree's node whenever
        the guess lies within a cell of a foot whose depth is below
        1/kappa_max. Every other row asks the kd-tree.
        """
        bd = self.boundary
        n = bd._n
        j = np.zeros(len(X), dtype=np.intp)
        ask = np.ones(len(X), dtype=bool)
        if guess is not None:
            guess = np.asarray(guess, dtype=float)
            if guess.shape != (len(X),):
                raise ConfigError(f"need one foot guess per query point, got shape {guess.shape}")
            rows = np.nonzero(np.isfinite(guess))[0]
            j0 = np.floor(np.mod(guess[rows], 1.0) * n).astype(np.intp)
            window = (j0[:, None] + np.arange(-1, 3)) % n
            diff = X[rows, None, :] - bd.points[window]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            best = np.argmin(d2, axis=1)
            runner_up = np.partition(d2, 1, axis=1)[:, 1]
            ok = ((best == 1) | (best == 2)) & (
                runner_up - d2[np.arange(len(rows)), best] > _NODE_TIE * runner_up)
            j[rows[ok]] = window[ok, best[ok]]
            ask[rows[ok]] = False
        if ask.any():
            j[ask] = bd.kdtree.query(X[ask])[1]
        return j

    def signed_distance(self, x):
        """Distance to the boundary, negative inside. Accepts a single
        point or an (n,2) batch; never raises on medial-axis points."""
        x = np.asarray(x, dtype=float)
        d = self.nearest(np.atleast_2d(x))[1]
        return float(d[0]) if x.ndim == 1 else d

    def foot(self, X):
        """Parameter of the nearest boundary point to each row of X."""
        return self.nearest(X)[0]

    @property
    def centroid(self):
        return self.boundary._centroid.copy()

    @property
    def centroid_depth(self):
        """Depth of the centroid, one nearest-point query, cached. By
        Minkowski-Radon it is at least 2/3 of the inradius, and on a
        centrally symmetric domain it is the inradius; discretize and
        choose_spike_count bound their inputs by it."""
        if self._centroid_depth is None:
            self._centroid_depth = -self.signed_distance(self.centroid)
        return self._centroid_depth


def make_domain(spec):
    return PlanarDomain(make_curve(spec))


# -- module-level operations --------------------------------------------------


def project_to_curve(curve, x):
    """Nearest-point projection onto the curve.

    Returns (t_star, point). The dense table supplies brackets around
    every local minimum of the distance; the winner is polished by a
    bracketed root of (P(t)-x).P'(t), which stays quadratic where the
    plain distance is too flat to compare. Ambiguity (a medial-axis
    query, or two refined minima within 1e-9 relative) raises."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise ConfigError(f"query point must be a finite pair, got {x!r}")
    n = curve._n
    D = np.linalg.norm(curve.points - x, axis=1)
    dmin = float(D.min())
    near = D <= dmin + 1e-9 * max(1.0, dmin)
    if near.sum() > n // 8:
        raise NonUniqueProjectionError(
            f"point {x} is nearly equidistant from a large boundary arc"
        )
    is_min = (D < np.roll(D, 1)) & (D <= np.roll(D, -1))
    cand = np.nonzero(is_min)[0]
    keep = cand[D[cand] <= dmin + curve.total_length / n]
    h = 1.0 / n

    def g(t):
        return float(np.dot(curve.point(t) - x, curve.d1(t)))

    refined = []
    for j in keep[np.argsort(D[keep])][:8]:
        tj = curve.t_nodes[j]
        lo, hi = tj - h, tj + h
        glo, gj, ghi = g(lo), g(tj), g(hi)
        if glo < 0.0 < gj:
            ts = brentq(g, lo, tj, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        elif gj < 0.0 < ghi:
            ts = brentq(g, tj, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        elif glo < 0.0 < ghi:
            ts = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        else:
            ts = tj
        refined.append((float(np.linalg.norm(curve.point(ts) - x)), ts))
    refined.sort()
    best_d, best_t = refined[0]
    for other_d, other_t in refined[1:]:
        sep = abs(other_t - best_t) % 1.0
        sep = min(sep, 1.0 - sep)
        if sep > 4.0 * h and other_d - best_d <= 1e-9 * max(1.0, best_d):
            raise NonUniqueProjectionError(
                f"two projection candidates for {x}: distances "
                f"{best_d:.12e} and {other_d:.12e}"
            )
    return float(np.mod(best_t, 1.0)), curve.point(best_t)


def inner_parallel_curve(curve, delta):
    """Locus of interior points at distance delta from the curve; its
    table is derived from the curve's (_offset_table)."""
    delta = float(delta)
    if not delta > 0.0:
        raise ConfigError(f"offset distance must be positive, got {delta}")
    if delta * curve.kappa_max >= 1.0:
        raise ParallelCurveDegeneracyError(
            f"offset {delta} reaches 1/kappa_max = {1.0 / curve.kappa_max:.6g}; "
            "inner parallel curve degenerates"
        )
    prov = _OffsetProvider(curve._provider, delta)
    return ConvexCurve(prov, flat_tol=2.0 * curve._flat_tol, table=_offset_table(curve, prov))

