"""Equal-chord crown packings on inner parallel curves.

The optimal placement of k interior points maximizing
min(depth to the boundary, half pairwise distances) is an equal-chord
polygon inscribed in the inner parallel curve at the critical offset
delta*, where the closing chord equals exactly 2*delta. This module
marches equal chords around a curve, closes the polygon by root-finding
on the chord length, root-finds the critical offset, and samples the
boundary strata of the admissible neighborhood for the gap property.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    ChordInfeasibleError,
    ClosureError,
    ConfigError,
    NoCriticalDeltaError,
    PackingConsistencyError,
    PropertyViolationError,
)
# project_to_curve is unused here; perfbench/layers.py hooks this binding
from .geometry import inner_parallel_curve, project_to_curve  # noqa: F401

_INFEASIBLE = 1e9  # closure defect of a march whose chord cannot be placed


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


def _phi_batch(dom, pts_batch):
    """packing_functional over a (m, k, 2) batch in one vector pass."""
    m, k, _ = pts_batch.shape
    depth = -dom.signed_distance(pts_batch.reshape(m * k, 2)).reshape(m, k)
    diff = pts_batch[:, :, None, :] - pts_batch[:, None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    iu = np.triu_indices(k, k=1)
    half = dist[:, iu[0], iu[1]].min(axis=1, initial=np.inf) / 2.0
    return np.minimum(depth.min(axis=1), half)


def _first_chord_root(curve, t_cur, p_cur, chord):
    """Smallest t > t_cur with |P(t) - p_cur| = chord, to 1e-13."""
    n = curve._n
    h = 1.0 / n
    for span in (256, n):
        js = np.arange(1, span + 1)
        f = np.linalg.norm(curve.point(t_cur + js * h) - p_cur, axis=1) - chord
        f = np.concatenate([[-chord], f])
        cross = np.nonzero((f[:-1] < 0.0) & (f[1:] >= 0.0))[0]
        if len(cross):
            j = int(cross[0])
            return brentq(
                lambda t: float(np.linalg.norm(curve.point(t) - p_cur) - chord),
                t_cur + j * h,
                t_cur + (j + 1) * h,
                xtol=1e-13,
                rtol=8.9e-16,
                maxiter=200,
            )
    raise ChordInfeasibleError(
        f"no point of the curve lies at chord {chord} ahead of t={t_cur:.6f}"
    )


def equal_chord_march(curve, k, chord, t0=0.0):
    """March k equal chords from t0; returns (points, ts, defect).

    Each vertex is the first point ahead of the previous one at distance
    chord. ts has k+1 entries, unwrapped and strictly increasing; defect
    is the total arclength advanced minus the curve length (negative
    when the chord is too short to wrap once). A chord that no point
    ahead reaches raises ChordInfeasibleError."""
    chord = float(chord)
    if not chord > 0:
        raise ConfigError(f"chord must be positive, got {chord}")
    if not k >= 2:
        raise ConfigError(f"need at least 2 vertices, got {k}")
    ts = np.empty(k + 1)
    ts[0] = t0
    pts = np.empty((k, 2))
    pts[0] = curve.point(t0)
    for i in range(k):
        ts[i + 1] = _first_chord_root(curve, ts[i], curve.point(ts[i]), chord)
        if i + 1 < k:
            pts[i + 1] = curve.point(ts[i + 1])
    defect = float(curve.arclength(ts[-1]) - curve.arclength(ts[0]) - curve.total_length)
    return pts, ts, defect


def _defect(curve, k, chord, t0):
    try:
        return equal_chord_march(curve, k, chord, t0)[2]
    except ChordInfeasibleError:
        return _INFEASIBLE


def close_polygon(curve, k, t0=0.0):
    """Chord c* whose k-step equal-chord march from t0 closes, and its
    polygon; returns (points, ts, c_star).

    One brentq on the fixed bracket (0.25*l/k, 1.2*l/k), l the curve
    length; the upper march overshoots, as a chord is never longer than
    its arc (or cannot be placed). The defect jumps where the march's
    first root ahead jumps, and brentq may converge onto such a jump: a
    march at c* that misses closure by over 1e-9*l raises ClosureError.
    """
    if k < 3:
        raise ConfigError(f"closure needs k >= 3, got {k}")
    ell = curve.total_length
    c_lo, c_hi = 0.25 * ell / k, 1.2 * ell / k
    d_lo, d_hi = _defect(curve, k, c_lo, t0), _defect(curve, k, c_hi, t0)
    if not (d_lo < 0.0 < d_hi):
        raise ClosureError(
            f"closure defect has no sign change on chord bracket "
            f"({c_lo:.6g}, {c_hi:.6g}): {d_lo:.3e} .. {d_hi:.3e}"
        )
    c_star = brentq(
        lambda c: _defect(curve, k, c, t0),
        c_lo,
        c_hi,
        xtol=1e-13,
        rtol=8.9e-16,
        maxiter=300,
    )
    pts, ts, defect = equal_chord_march(curve, k, c_star, t0)
    if abs(defect) > 1e-9 * ell:
        raise ClosureError(f"the march at chord {c_star:.12g} from t0={t0} "
                           f"misses closure by {defect:.3e}")
    return pts, ts, float(c_star)


def _min_defect_over_t0(curve, k, delta, t0_hint=None, coarse=16, xatol=1e-9):
    """min over start parameters of the chord-2*delta closure defect."""
    if curve.kind == "circle":
        return _defect(curve, k, 2.0 * delta, 0.0), 0.0
    t_grid = np.arange(coarse) / coarse
    vals = [_defect(curve, k, 2.0 * delta, t) for t in t_grid]
    order = [t_grid[int(np.argmin(vals))]]
    if t0_hint is not None:
        order.append(t0_hint)
    best_v, best_t = np.inf, 0.0
    w = 1.0 / coarse
    for tc in order:
        res = minimize_scalar(
            lambda t: _defect(curve, k, 2.0 * delta, t),
            bounds=(tc - w, tc + w),
            method="bounded",
            options={"xatol": xatol},
        )
        if res.fun < best_v:
            best_v, best_t = float(res.fun), float(res.x)
    return best_v, best_t


def _critical_delta(dom, k, t0_samples=16):
    """Root of min_t0 defect(delta, t0, chord=2*delta) in delta; returns
    (delta_star, points). Accepts any k >= 3; evenness is enforced
    by the public wrapper."""
    bd = dom.boundary
    ell = bd.total_length
    d_lo = ell / (4.0 * k)
    d_hi = min(0.95 / bd.kappa_max, 0.9 * dom.inradius)
    state = {"t0": None}

    def g(delta):
        gamma = inner_parallel_curve(bd, delta)
        val, t0 = _min_defect_over_t0(
            gamma, k, delta, t0_hint=state["t0"], coarse=t0_samples
        )
        state["t0"] = t0
        return val

    g_hi = g(d_hi)
    tries = 0
    while not g_hi < _INFEASIBLE and tries < 10:  # chord infeasible at the top end
        d_hi = 0.5 * (d_hi + d_lo)
        g_hi = g(d_hi)
        tries += 1
    g_lo = g(d_lo)
    tries = 0
    while g_lo >= 0.0 and tries < 6:
        d_lo *= 0.5
        g_lo = g(d_lo)
        tries += 1
    if not (g_lo < 0.0 < g_hi):
        raise NoCriticalDeltaError(
            f"no critical offset for k={k}: defect spans "
            f"{g_lo:.3e} .. {g_hi:.3e} on ({d_lo:.4g}, {d_hi:.4g})"
        )
    delta_star = brentq(g, d_lo, d_hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)
    gamma = inner_parallel_curve(bd, delta_star)
    _, t0 = _min_defect_over_t0(
        gamma, k, delta_star, t0_hint=state["t0"], coarse=t0_samples, xatol=1e-12
    )
    return float(delta_star), equal_chord_march(gamma, k, 2.0 * delta_star, t0)[0]


def critical_distance(dom, k, t0_samples=16):
    """Critical offset delta* and its equal-chord crown configuration.

    Solves closure-chord = 2*delta by bisection in delta, maximizing the
    phase over the march start. The returned crown satisfies: vertex
    depths delta*, adjacent chords 2*delta*, non-adjacent pairs >=
    2*delta*; violations raise PackingConsistencyError."""
    if k % 2 != 0:
        raise ConfigError(f"spike count must be even, got {k}")
    if k < 4:
        raise ConfigError(
            "crown closure needs k >= 4 (at k=2 the closing chord equals "
            "the offset-curve diameter and the march degenerates)"
        )
    delta_star, pts = _critical_delta(dom, k, t0_samples)
    config = SpikeConfiguration(pts)

    depth = -dom.signed_distance(pts)
    if np.abs(depth - delta_star).max() > 1e-8:
        raise PackingConsistencyError(
            f"vertex depths deviate from delta* by "
            f"{np.abs(depth - delta_star).max():.2e}"
        )
    chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    if np.abs(chords - 2.0 * delta_star).max() > 1e-8:
        raise PackingConsistencyError(
            f"adjacent chords deviate from 2*delta* by "
            f"{np.abs(chords - 2 * delta_star).max():.2e}"
        )
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    idx = np.arange(k)
    sep = np.minimum((idx[:, None] - idx[None, :]) % k, (idx[None, :] - idx[:, None]) % k)
    nonadj = dist[sep >= 2]
    if len(nonadj) and nonadj.min() < 2.0 * delta_star - 1e-8:
        raise PackingConsistencyError(
            f"non-adjacent pair at distance {nonadj.min():.12g} < 2*delta*"
        )
    phi = packing_functional(dom, pts)
    if abs(phi - delta_star) > 1e-8:
        raise PackingConsistencyError(
            f"packing functional {phi:.12g} != delta* {delta_star:.12g}"
        )
    return delta_star, config


def choose_spike_count(dom, delta0):
    """Smallest even k strictly above boundary length / (2*delta0)."""
    if not 0.0 < delta0 < 0.9 * dom.inradius:
        raise ConfigError(
            f"delta0 must lie in (0, 0.9*inradius), got {delta0}"
        )
    ratio = dom.boundary.total_length / (2.0 * delta0)
    return 2 * (int(np.floor(ratio / 2.0)) + 1)


def _ring_plus_deep_family(dom, k, delta_star, eta, rng, n_members):
    """Adversarial boundary-stratum family: a (k-1)-ring packed at its
    own critical offset (clamped into the depth tube) plus one point
    pinned at the deep stratum depth delta* + eta."""
    try:
        ring_delta, ring_pts = _critical_delta(dom, k - 1)
    except (NoCriticalDeltaError, ChordInfeasibleError, ClosureError):
        return np.empty((0, k, 2))
    lo, hi = delta_star - 0.9 * eta, delta_star + 0.9 * eta
    ring_delta = float(np.clip(ring_delta, max(lo, 1e-6), hi))
    gamma = inner_parallel_curve(dom.boundary, ring_delta)
    out = []
    for _ in range(n_members):
        shift = rng.uniform(0.0, 1.0)
        try:
            pts, ts, _ = close_polygon(gamma, k - 1, t0=shift)
        except (ClosureError, ChordInfeasibleError):
            continue
        # deep point at the pinned stratum depth, in the largest gap
        mid = 0.5 * (ts[0] + ts[1])
        deep = dom.boundary.point(mid) - (delta_star + eta) * dom.boundary.normal(mid)
        cfg = np.vstack([pts, deep])
        out.append(cfg)
    return np.array(out) if out else np.empty((0, k, 2))


def boundary_gap_check(dom, k, delta_star, eta, n_samples=10_000, seed=0):
    """Sample the boundary strata of the admissible neighborhood (depth
    pinned at delta* +- eta, an adjacent chord pinned at 2*delta* - eta,
    plus an adversarial ring-and-deep-point family) and return
    (sup of the packing functional over the samples, delta* - sup).

    The cyclic-order-collapse stratum is vacuous for the eta used here:
    collapsing two projections forces a chord below 2*delta* - eta first.
    A nonpositive gap raises PropertyViolationError."""
    if eta < 0:
        raise ConfigError(f"eta must be nonnegative, got {eta}")
    if eta == 0.0:
        return 0.0, float(delta_star)  # empty boundary stratum
    rng = np.random.default_rng(seed)
    bd = dom.boundary
    gamma = inner_parallel_curve(bd, delta_star)
    base_pts, base_ts, _ = close_polygon(gamma, k)
    base_t = np.mod(base_ts[:-1], 1.0)

    n_family = min(max(n_samples // 50, 8), 256)
    n_chord = n_samples // 4
    n_depth = n_samples - n_chord - n_family

    def tube_points(ts, depths):
        return bd.point(ts) - depths[..., None] * bd.normal(ts)

    # depth strata: jitter the crown inside the tube, then pin one spike
    # at delta* - eta or delta* + eta
    m = n_depth
    ts = base_t[None, :] + rng.uniform(-1.0, 1.0, (m, k)) * (
        eta / (3.0 * np.maximum(bd.speed(base_t), 1e-9))[None, :]
    )
    ds = delta_star + rng.uniform(-0.9, 0.9, (m, k)) * eta
    pin_idx = rng.integers(0, k, m)
    pin_val = np.where(rng.random(m) < 0.5, delta_star - eta, delta_star + eta)
    ds[np.arange(m), pin_idx] = pin_val
    pts_depth = tube_points(ts, ds)

    # chord stratum: place one neighbor at exactly 2*delta* - eta from
    # its predecessor, nearly along the curve direction
    m2 = n_chord
    ts2 = base_t[None, :] + rng.uniform(-1.0, 1.0, (m2, k)) * (
        eta / (3.0 * np.maximum(bd.speed(base_t), 1e-9))[None, :]
    )
    ds2 = delta_star + rng.uniform(-0.9, 0.9, (m2, k)) * eta
    pts_chord = tube_points(ts2, ds2)
    j = rng.integers(0, k, m2)
    tang = gamma.tangent(ts2[np.arange(m2), j])
    ang = rng.uniform(-0.2, 0.2, m2)
    ca, sa = np.cos(ang), np.sin(ang)
    rot = np.stack(
        [ca * tang[:, 0] - sa * tang[:, 1], sa * tang[:, 0] + ca * tang[:, 1]],
        axis=1,
    )
    target = pts_chord[np.arange(m2), j] + (2.0 * delta_star - eta) * rot
    pts_chord[np.arange(m2), (j + 1) % k] = target
    depth_t = -dom.signed_distance(target)
    keep = (depth_t > delta_star - eta) & (depth_t < delta_star + eta)
    pts_chord = pts_chord[keep]

    fam = _ring_plus_deep_family(dom, k, delta_star, eta, rng, n_family)

    batches = [b for b in (pts_depth, pts_chord, fam) if len(b)]
    sup = -np.inf
    worst = None
    for b in batches:
        phis = _phi_batch(dom, b)
        i = int(np.argmax(phis))
        if phis[i] > sup:
            sup = float(phis[i])
            worst = b[i]
    gap = float(delta_star - sup)
    if gap <= 0.0:
        raise PropertyViolationError(
            f"boundary stratum reaches phi = {sup:.8g} >= delta* = "
            f"{delta_star:.8g}; eta = {eta} too large",
            report={"sup_boundary": sup, "worst_points": worst},
        )
    return sup, gap
