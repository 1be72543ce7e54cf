"""Equal-chord crown packings on inner parallel curves.

The optimal placement of k interior points maximizing
min(depth to the boundary, half pairwise distances) is an equal-chord
polygon inscribed in the inner parallel curve at the critical offset
delta*, where the closing chord equals exactly 2*delta: a fold of the
closed equal-chord polygons, the root of a regular extended system
(Moore and Spence, SIAM J. Numer. Anal. 17, 1980). One batched Newton
closes polygons at a fixed offset, another solves for the fold. This
module also samples the boundary strata of the admissible neighborhood
for the gap property. equal_chord_march is only an oracle for the tests
and criterion 3.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
# brentq is unused here; perfbench/layers.py hooks this binding
from scipy.optimize import brentq  # noqa: F401

from .errors import (
    ConfigError,
    NoCriticalDeltaError,
    PackingConsistencyError,
    PropertyViolationError,
)
# project_to_curve is unused here; perfbench/layers.py hooks this binding
from .geometry import inner_parallel_curve, project_to_curve  # noqa: F401

_NEWTON_STEPS = 100  # steps of the closure and fold iterations, halvings of a closure step
_DELTA_TOL = 1e-13  # a converged fold step moves delta by at most this
_CHORD_TOL = 1e-12  # converged closure and fold residuals, chords over l
_SCAN_PHASES = 16  # start phases of a closing-chord scan
_MIN_GAP = 1e-9  # a Newton row is given up where some t_{i+1} - t_i falls to this
_OFFSET_LIMIT = 0.95  # offsets stay below this fraction of 1/kappa_max
_GAP_SAMPLES = 10_000  # sampled configurations of boundary_gap_check


@dataclass(frozen=True)
class SpikeConfiguration:
    """Cyclically ordered spike centers with alternating signs.

    signs[i] = (-1)^i with the first spike positive; alternation around
    a closed loop forces k even.
    """

    points: np.ndarray
    signs: np.ndarray = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigError(f"points must be (k,2), got shape {pts.shape}")
        k = len(pts)
        if k < 2 or k % 2 != 0:
            raise ConfigError(f"spike count must be even and >= 2, got {k}")
        signs = self.signs
        if signs is None:
            signs = np.array([1 if i % 2 == 0 else -1 for i in range(k)])
        signs = np.asarray(signs, dtype=int)
        if signs.shape != (k,) or np.any(np.abs(signs) != 1):
            raise ConfigError("signs must be +-1 per spike")
        if np.any(signs[1:] * signs[:-1] != -1) or signs[0] * signs[-1] != -1:
            raise ConfigError("signs must alternate cyclically")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "signs", signs)

    @property
    def k(self):
        return len(self.points)

    def validate(self, dom):
        """Points strictly inside; cyclic order strictly increasing in
        the boundary foot parameter."""
        feet, dist = dom.nearest(self.points)
        depth = -dist
        if depth.min() <= 0:
            raise ConfigError(
                f"spike {int(np.argmin(depth))} is not strictly inside"
            )
        rolled = np.mod(feet - feet[0], 1.0)
        if np.any(np.diff(rolled) <= 0):
            raise ConfigError("spikes are not in strictly increasing cyclic order")
        return depth


def make_configuration(dom, points, signs=None):
    cfg = SpikeConfiguration(points, signs)
    cfg.validate(dom)
    return cfg


def packing_functional(dom, points):
    """min over spikes of (signed depth to the boundary) and over pairs
    of half distances. Exterior points contribute negative depth, so
    the value stays a faithful objective for maximization."""
    if isinstance(points, SpikeConfiguration):
        points = points.points
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return float(_phi_batch(dom, pts[None])[0])


def _phi_batch(dom, pts_batch, feet=None):
    """packing_functional over a (m, k, 2) batch in one vector pass;
    feet, (m, k) and NaN where unknown, are foot guesses for
    PlanarDomain.nearest."""
    m, k, _ = pts_batch.shape
    guess = None if feet is None else feet.reshape(m * k)
    depth = -dom.nearest(pts_batch.reshape(m * k, 2), guess)[1].reshape(m, k)
    diff = pts_batch[:, :, None, :] - pts_batch[:, None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    iu = np.triu_indices(k, k=1)
    half = dist[:, iu[0], iu[1]].min(axis=1, initial=np.inf) / 2.0
    return np.minimum(depth.min(axis=1), half)


def equal_chord_march(curve, k, chord, t0=0.0):
    """March k equal chords per row of (chord, t0), broadcast, with no
    Newton: an independent oracle. Each vertex is the first sign change
    of |P - p| - chord ahead of the last vertex p on table cells, from
    two cells before the table's arclength-chord point (a chord is never
    longer than its arc; a whole lap if 64 cells show none), then 45
    halvings of its cell to a few ulps. Returns points (m, k, 2),
    unwrapped ts (m, k+1) and defect (m,), the arclength advanced less
    the curve length; a row that cannot place a chord has defect +inf,
    and NaN parameters and points from there on."""
    chord, t0 = (np.array(a, dtype=float).ravel()
                 for a in np.broadcast_arrays(chord, t0))
    if not np.all(chord > 0):
        raise ConfigError(f"chord must be positive, got {chord.min()}")
    if not k >= 2:
        raise ConfigError(f"need at least 2 vertices, got {k}")
    n, m, ell = curve._n, len(t0), curve.total_length
    s_ext = np.concatenate([curve.arclengths, curve.arclengths + ell, [2.0 * ell]])
    t_ext = np.arange(2 * n + 1) / n  # two laps of the table
    ts, pts = np.full((m, k + 1), np.nan), np.full((m, k, 2), np.nan)
    ts[:, 0], pts[:, 0] = t0, curve.point(t0)

    def gap(x, rows, i):  # |P(x) - P(ts[:, i - 1])| - chord, per row
        q = curve.point(x) - pts[rows, i - 1, None]
        return np.hypot(q[..., 0], q[..., 1]) - chord[rows, None]

    rows = np.arange(m)
    for i in range(1, k + 1):
        t = ts[:, i - 1]
        frac = t - np.floor(t)
        ta = t - frac + np.interp(np.interp(frac, t_ext, s_ext) + chord, s_ext, t_ext)
        lo, hi = np.full((2, m), np.nan)
        for start, cells in ((np.maximum(ta - 2.0 / n, t), 64), (t, n)):
            x = start[rows, None] + np.arange(cells + 1) / n
            f = gap(x, rows, i)
            cross = (f[:, :-1] < 0.0) & (f[:, 1:] >= 0.0)
            j = np.argmax(cross, axis=1)
            hit = np.nonzero(cross[np.arange(rows.size), j])[0]
            lo[rows[hit]], hi[rows[hit]] = x[hit, j[hit]], x[hit, j[hit] + 1]
            rows = np.delete(rows, hit)
        rows = np.nonzero(np.isfinite(lo))[0]
        a, b = lo[rows], hi[rows]
        for _ in range(45):
            mid = 0.5 * (a + b)
            below = gap(mid[:, None], rows, i)[:, 0] < 0.0
            a, b = np.where(below, mid, a), np.where(below, b, mid)
        ts[rows, i] = 0.5 * (a + b)
        if i < k:
            pts[rows, i] = curve.point(ts[rows, i])
    defect = np.full(m, np.inf)
    defect[rows] = curve.arclength(ts[rows, k]) - curve.arclength(t0[rows]) - ell
    return pts, ts, defect


def _chords(q, dq, *more):
    """Chord i of each closed polygon q (m, k, 2), from vertex i to vertex
    i + 1 mod k, with the vertices moving at dq: (lengths (m, k), unit
    chords u, their derivatives dr, a square Jacobian whose first k rows
    are the lengths' in t_0..t_{k-1}, then in more). dr stacks the
    derivatives in t_i and t_{i+1}, -dq_i and dq_{i+1}, then more."""
    m, k, _ = q.shape
    r = np.roll(q, -1, axis=1) - q
    chord = np.hypot(r[..., 0], r[..., 1])
    u = r / chord[..., None]
    dr = np.stack([-dq, np.roll(dq, -1, axis=1), *more])
    along, i = (u * dr).sum(-1), np.arange(k)
    jac = np.zeros((m, k + len(more), k + len(more)))
    jac[:, i, i], jac[:, i, (i + 1) % k] = along[:2]
    jac[:, :k, k:] = np.moveaxis(along[2:], 0, -1)
    return chord, u, dr, jac


def _equal_arcs(curve, k, t0):
    """The k-gons (m, k) with vertices l/k of arclength apart from each
    start phase t0 (m,) in [0, 1), by the table (s_closed, t_closed)."""
    ell = curve.total_length
    s = np.interp(t0, curve.t_closed, curve.s_closed)[:, None] + ell * np.arange(k) / k
    ahead = np.floor(s / ell)
    t = ahead + np.interp(s - ahead * ell, curve.s_closed, curve.t_closed)
    t[:, 0] = t0
    return t


def _close_polygons(curve, ts):
    """Closed, ordered equal-chord polygons inscribed in curve, one from
    each start polygon ts (m, k): (ts (m, k), chord c (m,), closed (m,));
    not always the first-branch polygon equal_chord_march closes from t_0.

    Newton in y = (c, t_1..t_{k-1}) on the rows |P(t_{i+1}) - P(t_i)| - c
    (t_k = t_0 + 1), from ts and its mean chord. Each step is cut so that
    no gap t_{i+1} - t_i shrinks by more than half, then halved until the
    largest residual falls (Deuflhard, Newton Methods for Nonlinear
    Problems, 2004). A row is closed once a step from residuals within
    _CHORD_TOL*l (l the curve length) ends within it, with positive gaps.
    Rows with a singular Jacobian, a gap down to _MIN_GAP, or a step that
    no halving lowers are given up."""
    def system(t0, y):  # residuals and Jacobian; t_0 is held, its column is c's
        q, dq, _ = curve.frame(np.column_stack([t0, y[:, 1:]]))
        chord, _, _, jac = _chords(q, dq)
        jac[:, :, 0] = -1.0
        return chord - y[:, :1], jac

    t0, tol = ts[:, 0], _CHORD_TOL * curve.total_length
    y = np.column_stack([np.zeros(len(ts)), ts[:, 1:]])
    res, jac = system(t0, y)
    y[:, 0] = res.mean(axis=1)
    res -= y[:, :1]
    size, rows, start = np.abs(res).max(axis=1), np.arange(len(y)), np.full(len(y), np.inf)
    for _ in range(_NEWTON_STEPS):
        # a row stops after a step from within tol, or one that no halving lowers
        gaps = np.diff(np.column_stack([t0[rows], y[rows, 1:], t0[rows] + 1.0]), axis=1)
        det = np.linalg.det(jac)
        live = (start > tol) & np.isfinite(det) & (det != 0.0) & (gaps.min(axis=1) > _MIN_GAP)
        rows, res, jac, gaps = rows[live], res[live], jac[live], gaps[live]
        if not rows.size:
            break
        step = np.linalg.solve(jac, res[..., None])[..., 0]
        shrink = np.diff(np.pad(step[:, 1:], ((0, 0), (1, 1))), axis=1)
        alpha = 1.0 / np.maximum(2.0 * shrink / gaps, 1.0).max(axis=1)
        start, todo = size[rows], np.arange(rows.size)
        for _ in range(_NEWTON_STEPS):
            trial = y[rows[todo]] - alpha[todo, None] * step[todo]
            r, j = system(t0[rows[todo]], trial)
            s = np.abs(r).max(axis=1)
            fell = s < size[rows[todo]]
            i = todo[fell]
            y[rows[i]], size[rows[i]], res[i], jac[i] = trial[fell], s[fell], r[fell], j[fell]
            todo = todo[~fell & (start[todo] > tol)]  # a step from within tol is not halved
            alpha[todo] *= 0.5
            if not todo.size:
                break
        start[todo] = 0.0
    ts = np.column_stack([t0, y[:, 1:]])
    order = (np.diff(np.column_stack([ts, t0 + 1.0]), axis=1) > 0.0).all(axis=1)
    return ts, y[:, 0], (size <= tol) & order


def _fold_system(bd, k, x):
    """Residuals (m, k+1) and Jacobian at rows x = (t_0..t_{k-1}, delta) on
    the base curve bd: F_i = |Q(t_{i+1}) - Q(t_i)| - 2 delta (t_k = t_0 + 1,
    Q = P - delta nu), then prod_i (u_i.T_{i+1})/(u_i.T_i) - 1 (u the unit
    chord, T the unit tangent), zero where the Jacobian in t is singular;
    unlike its log, it holds past 90 degrees between chord and tangent."""
    delta = x[:, k, None]
    p, d1, kappa = bd.frame(x[:, :k])
    speed = np.hypot(d1[..., 0], d1[..., 1])
    tan = d1 / speed[..., None]
    nu = np.stack([tan[..., 1], -tan[..., 0]], axis=-1)
    q, dq = p - delta[..., None] * nu, d1 * (1.0 - delta * kappa)[..., None]
    # each at vertex i + 1, in place i: chord i's far end
    tan1, nu1, bend1 = (np.roll(a, -1, axis=1) for a in (tan, nu, kappa * speed))
    chord, u, dr, jac = _chords(q, dq, nu - nu1)  # the last column: chord i's in delta
    jac[:, :k, k] -= 2.0
    perp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    turn = (perp * dr).sum(-1) / chord
    beta, alpha = (u * tan1).sum(-1), (u * tan).sum(-1)
    d_beta = turn * (perp * tan1).sum(-1)
    d_beta[1] -= bend1 * (u * nu1).sum(-1)
    d_alpha = turn * (perp * tan).sum(-1)
    d_alpha[0] -= kappa * speed * (u * nu).sum(-1)
    ratio = beta.prod(axis=1) / alpha.prod(axis=1)
    row = ratio[:, None] * (d_beta / beta - d_alpha / alpha)
    jac[:, k, :k], jac[:, k, k] = row[0] + np.roll(row[1], 1, axis=1), row[2].sum(axis=1)
    return np.column_stack([chord - 2.0 * delta, ratio - 1.0]), jac


def _short_at(bd, k, delta):
    """bd's inner parallel curve at delta, and whether a k-gon closed
    from one of _SCAN_PHASES phases has a chord over 2*delta: k chords of
    2*delta fall short of a lap there."""
    gamma = inner_parallel_curve(bd, delta)
    phases = np.arange(_SCAN_PHASES) / _SCAN_PHASES
    _, c, closed = _close_polygons(gamma, _equal_arcs(gamma, k, phases))
    return gamma, bool((closed & (c > 2.0 * delta)).any())


def _fold_newton(bd, k, x):
    """Newton on _fold_system from all rows of x at once; returns x and the
    converged rows: a full step moving delta by <= _DELTA_TOL from residuals
    <= _CHORD_TOL (chords over l), t left noisy where the phase hardly
    matters. Steps halve at most a gap t_{i+1} - t_i or a margin of delta to
    (0, 1/kappa_max); rows singular or with a gap down to _MIN_GAP are
    given up. Where the fold row vanishes (constant curvature) t_0 is held."""
    x, pinned = x.copy(), bd.constant_curvature
    scale = np.append(np.full(k, bd.total_length), 1.0)
    done, rows = np.zeros(len(x), dtype=bool), np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        res, jac = _fold_system(bd, k, x[rows])
        if pinned:
            res, jac = res[:, :k], jac[:, :k, 1:]
        det = np.linalg.det(jac)
        rows, res, jac = (a[np.isfinite(det) & (det != 0.0)] for a in (rows, res, jac))
        step = np.linalg.solve(jac, res[..., None])[..., 0]
        if pinned:
            step = np.column_stack([np.zeros(len(rows)), step])
        t, d = x[rows, :k], x[rows, k]
        room = np.column_stack([np.diff(t, axis=1, append=t[:, :1] + 1.0), d,
                                1.0 / bd.kappa_max - d])
        shrink = np.column_stack([np.diff(step[:, :k], axis=1, append=step[:, :1]),
                                  step[:, k], -step[:, k]])
        alpha = 1.0 / np.maximum(2.0 * shrink / room, 1.0).max(axis=1)
        x[rows] -= alpha[:, None] * step
        conv = ((alpha == 1.0) & (np.abs(step[:, k]) <= _DELTA_TOL)
                & (np.abs(res / scale[:res.shape[1]]).max(axis=1) <= _CHORD_TOL))
        done[rows[conv]] = True
        gone = (room[:, :k] - alpha[:, None] * shrink[:, :k]).min(axis=1) <= _MIN_GAP
        rows = rows[~conv & ~gone]
        if not rows.size:
            break
    return x, done


def _critical_offset(bd, k, lo, hi):
    """(delta, ts (k,)) of the critical k-gon of chords 2*delta on (lo, hi):
    the largest fold inside, by _fold_newton from each local maximum over
    _SCAN_PHASES phases of the closing chord at the circle estimate R
    sin(pi/k)/(1 + sin(pi/k)), R = l/(2 pi), clipped into [lo, hi]. Folds
    within 1e-12 l tie; the smallest foot mod 1 wins and starts the polygon,
    so the crown's phase follows from the domain. NoCriticalDeltaError
    says why no fold was found."""
    s = np.sin(np.pi / k)
    d0 = min(max(bd.total_length / (2.0 * np.pi) * s / (1.0 + s), lo), hi)
    gamma = inner_parallel_curve(bd, d0)
    # where the curvature is constant every phase is alike
    phases = np.zeros(1) if bd.constant_curvature else np.arange(_SCAN_PHASES) / _SCAN_PHASES
    ts, c, closed = _close_polygons(gamma, _equal_arcs(gamma, k, phases))
    c = np.where(closed, c, -np.inf)
    starts = closed & (c >= np.roll(c, 1)) & (c >= np.roll(c, -1))
    x, done = _fold_newton(bd, k, np.column_stack([ts[starts], np.full(starts.sum(), d0)]))
    d = x[:, k]
    keep = done & (lo < d) & (d < hi)
    if not keep.any():
        why = (f"the folds reached, {np.sort(d[done])}, lie outside" if done.any() else
               f"no fold converged in {_NEWTON_STEPS} steps from {starts.sum()} starts on")
        raise NoCriticalDeltaError(f"critical offset for k={k}: {why} ({lo:.6g}, {hi:.6g})")
    tied = np.nonzero(keep & (d >= d[keep].max() - 1e-12 * bd.total_length))[0]
    i, j = np.unravel_index(np.argmin(np.mod(x[tied, :k], 1.0)), (len(tied), k))
    return float(d[tied[i]]), np.roll(x[tied[i], :k], -j)


def _offset_top(bd):
    """The largest offset any crown search tries, _OFFSET_LIMIT/kappa_max
    of the curve bd: the inner parallel curve is regular below
    1/kappa_max, and by Blaschke's rolling theorem the inradius is at
    least that, so the top always lies inside the domain."""
    return _OFFSET_LIMIT / bd.kappa_max


def critical_distance(dom, k):
    """Critical offset delta* and its equal-chord crown configuration.

    The bracket is as wide as the offset curves allow: from l/(4k), l
    the curve length (or half the top when l/(4k) is no lower), to
    _offset_top. One closure scan probes the top (_short_at); where a
    closing chord still exceeds 2*delta there, there is no root and
    NoCriticalDeltaError is raised. Otherwise _critical_offset solves
    for the fold on the bracket. The crown satisfies: vertex depths
    delta*, adjacent chords 2*delta*, non-adjacent pairs >= 2*delta*;
    violations raise PackingConsistencyError."""
    if k % 2 != 0:
        raise ConfigError(f"spike count must be even, got {k}")
    if k < 4:
        raise ConfigError(
            "crown closure needs k >= 4 (at k=2 the closing chord equals "
            "the offset-curve diameter and the polygon degenerates)")
    bd = dom.boundary
    d_hi = _offset_top(bd)
    d_lo = bd.total_length / (4.0 * k)
    if d_lo >= d_hi:
        d_lo = 0.5 * d_hi
    if _short_at(bd, k, d_hi)[1]:
        raise NoCriticalDeltaError(
            f"no critical offset for k={k}: a closing chord exceeds 2*delta at "
            f"the top of ({d_lo:.4g}, {d_hi:.4g}), still short of a lap")
    delta_star, ts = _critical_offset(bd, k, d_lo, d_hi)
    pts = bd.point_at_depth(ts, delta_star)
    config = SpikeConfiguration(pts)

    depth_dev, chord_dev = _crown_deviations(dom, pts, delta_star)
    if depth_dev > 1e-8:
        raise PackingConsistencyError(
            f"vertex depths deviate from delta* by {depth_dev:.2e}")
    if chord_dev > 1e-8:
        raise PackingConsistencyError(
            f"adjacent chords deviate from 2*delta* by {chord_dev:.2e}")
    nonadj = _min_nonadjacent(pts)
    if nonadj < 2.0 * delta_star - 1e-8:
        raise PackingConsistencyError(
            f"non-adjacent pair at distance {nonadj:.12g} < 2*delta*")
    phi = packing_functional(dom, pts)
    if abs(phi - delta_star) > 1e-8:
        raise PackingConsistencyError(
            f"packing functional {phi:.12g} != delta* {delta_star:.12g}"
        )
    return delta_star, config


def _crown_deviations(dom, pts, delta):
    """(max |depth - delta|, max |chord - 2*delta|) over the cyclic
    points pts: how far they are from an equal-chord crown at delta."""
    depth = -dom.signed_distance(pts)
    chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    return (float(np.abs(depth - delta).max()),
            float(np.abs(chords - 2.0 * delta).max()))


def _min_nonadjacent(pts):
    """Least distance between two of the cyclic points pts that are not
    neighbours (inf for fewer than four points)."""
    k = len(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    idx = np.arange(k)
    sep = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(sep, k - sep)
    return float(dist[sep >= 2].min(initial=np.inf))


def choose_spike_count(dom, delta0):
    """Smallest even k strictly above boundary length / (2*delta0), for
    delta0 below 0.9 of the centroid's depth (PlanarDomain.centroid_depth)."""
    bound = 0.9 * dom.centroid_depth
    if not 0.0 < delta0 < bound:
        raise ConfigError(
            f"delta0 must lie in (0, 0.9*centroid depth) = (0, {bound:.6g}), got {delta0}")
    ratio = dom.boundary.total_length / (2.0 * delta0)
    return 2 * (int(np.floor(ratio / 2.0)) + 1)


def _ring_plus_deep_family(dom, k, delta_star, eta, rng, n_members):
    """Adversarial boundary-stratum family: a (k-1)-ring packed at its
    own critical offset, capped at the depth tube's top, and closed
    from n_members random phases at once, plus one point pinned at the
    deep stratum depth delta* + eta, midway between the ring's first
    two vertices. Returns (configurations, their foot parameters, NaN
    where the depth reaches 1/kappa_max, number of rings that closed).
    The top is delta* + 0.9 eta, or _offset_top when that reaches
    1/kappa_max. A ring still short of a lap there (_short_at)
    sits at the top; otherwise _critical_offset solves on (delta*, top)."""
    bd = dom.boundary
    hi = delta_star + 0.9 * eta
    if hi * bd.kappa_max >= 1.0:
        hi = _offset_top(bd)
    gamma, short = _short_at(bd, k - 1, hi)
    if not short:
        # from the crown's phase, k-1 chords of 2*delta* fall one chord's
        # arc short of a lap, so the ring's closing chord at delta* is longer
        gamma = inner_parallel_curve(bd, _critical_offset(bd, k - 1, delta_star, hi)[0])
    shifts = rng.uniform(0.0, 1.0, n_members)
    ts, _, closed = _close_polygons(gamma, _equal_arcs(gamma, k - 1, shifts))
    ts = ts[closed]
    mid = 0.5 * (ts[:, 0] + ts[:, 1])
    deep_d = delta_star + eta
    deep = bd.point_at_depth(mid, deep_d)
    pts = np.concatenate([gamma.point(ts), deep[:, None]], axis=1)
    feet = np.column_stack([ts, _known_feet(bd, mid, deep_d)])
    return pts, feet, len(ts)


def _known_feet(bd, ts, depths):
    """ts where the depth is below 1/kappa_max, NaN elsewhere."""
    return np.where(depths * bd.kappa_max < 1.0, ts, np.nan)


class GapCounts(NamedTuple):
    """The gap check's counts: rings closed of those tried, the rows
    scored, and the chord samples kept in the tube of those drawn."""

    closed: int
    tried: int
    n_scored: int
    chord_kept: int
    chord_tried: int


def boundary_gap_check(dom, crown, delta_star, eta, seed=0):
    """Sample _GAP_SAMPLES configurations on the boundary strata of the
    admissible neighborhood of the critical crown (its points, (k, 2), or
    a SpikeConfiguration): depth pinned at delta* +- eta, an adjacent
    chord pinned at 2*delta* - eta, plus an adversarial ring-and-deep-point
    family. Returns (sup of the packing functional over the samples,
    delta* - sup, GapCounts).

    The cyclic-order-collapse stratum is vacuous for the eta used here:
    collapsing two projections forces a chord below 2*delta* - eta first.
    A nonpositive gap raises PropertyViolationError."""
    if eta < 0:
        raise ConfigError(f"eta must be nonnegative, got {eta}")
    if eta == 0.0:
        return 0.0, float(delta_star), GapCounts(0, 0, 0, 0, 0)  # empty boundary stratum
    if isinstance(crown, SpikeConfiguration):
        crown = crown.points
    k = len(crown)
    rng = np.random.default_rng(seed)
    bd = dom.boundary
    base_t = dom.foot(np.asarray(crown, dtype=float))

    n_samples = _GAP_SAMPLES
    n_family = min(max(n_samples // 50, 8), 256)
    n_chord = n_samples // 4
    n_depth = n_samples - n_chord - n_family

    def jitter(m):
        """Parameters and depths of m copies of the crown jittered inside the tube."""
        ts = base_t[None, :] + rng.uniform(-1.0, 1.0, (m, k)) * (
            eta / (3.0 * np.maximum(bd.speed(base_t), 1e-9))[None, :]
        )
        return ts, delta_star + rng.uniform(-0.9, 0.9, (m, k)) * eta

    # depth strata: jitter the crown inside the tube, then pin one spike
    # at delta* - eta or delta* + eta
    ts, ds = jitter(n_depth)
    pin_idx = rng.integers(0, k, n_depth)
    pin_val = np.where(rng.random(n_depth) < 0.5, delta_star - eta, delta_star + eta)
    ds[np.arange(n_depth), pin_idx] = pin_val
    pts_depth = bd.point_at_depth(ts, ds)
    # below 1/kappa_max a tube point's building parameter is its foot
    # (Blaschke's rolling theorem), so it seeds the foot query
    feet_depth = _known_feet(bd, ts, ds)

    # chord stratum: place one neighbor at exactly 2*delta* - eta from
    # its predecessor, nearly along the curve direction
    ts2, ds2 = jitter(n_chord)
    pts_chord = bd.point_at_depth(ts2, ds2)
    j = rng.integers(0, k, n_chord)
    tang = bd.tangent(ts2[np.arange(n_chord), j])
    ang = rng.uniform(-0.2, 0.2, n_chord)
    ca, sa = np.cos(ang), np.sin(ang)
    rot = np.stack(
        [ca * tang[:, 0] - sa * tang[:, 1], sa * tang[:, 0] + ca * tang[:, 1]],
        axis=1,
    )
    target = pts_chord[np.arange(n_chord), j] + (2.0 * delta_star - eta) * rot
    pts_chord[np.arange(n_chord), (j + 1) % k] = target
    feet_chord = _known_feet(bd, ts2, ds2)
    # the moved neighbour's foot is unknown; its own query supplies it
    foot_t, dist_t = dom.nearest(target)
    feet_chord[np.arange(n_chord), (j + 1) % k] = foot_t
    keep = (-dist_t > delta_star - eta) & (-dist_t < delta_star + eta)
    pts_chord, feet_chord = pts_chord[keep], feet_chord[keep]

    fam, feet_fam, n_closed = _ring_plus_deep_family(dom, k, delta_star, eta, rng,
                                                     n_family)

    batch = np.concatenate([pts_depth, pts_chord, fam])
    phis = _phi_batch(dom, batch, np.concatenate([feet_depth, feet_chord, feet_fam]))
    worst = int(np.argmax(phis))
    sup = float(phis[worst])
    gap = float(delta_star - sup)
    if gap <= 0.0:
        raise PropertyViolationError(
            f"boundary stratum reaches phi = {sup:.8g} >= delta* = "
            f"{delta_star:.8g}; eta = {eta} too large",
            report={"sup_boundary": sup, "worst_points": batch[worst]},
        )
    return sup, gap, GapCounts(n_closed, n_family, len(batch), len(pts_chord), n_chord)
