"""Interaction energy of a spike configuration and its minimization.

The energy of k signed spikes at P_1..P_k is

    S(P) = 1/2 sum_i exp(-psi(P_i)/eps) - sum_{i<j} s_i s_j w(|P_i-P_j|/eps)

where psi is the boundary-interaction exponent (2*depth in the leading
form, or measured from the discrete boundary layer) and w the radial
profile. Every term is exponentially small in 1/eps, so all arithmetic
runs on logarithms, with signed accumulators combined once at the end.
Minimization works on the rescaled functional e^{2*delta/eps} * S, which
is O(1) on configurations near the target crown.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import pde
from .packing import SpikeConfiguration
from .errors import (
    BoundaryTrappedError,
    ConfigError,
    ParallelCurveDegeneracyError,
)

_LOG_HALF = float(np.log(0.5))
# minimize_energy stops below this gradient norm, or after _MAX_ITER steps
_GRAD_TOL = 1e-9
_MAX_ITER = 500


@dataclass(frozen=True)
class ReducedEnergyModel:
    """Energy model for one domain, profile, and scale.

    form "leading" uses psi = 2*depth; "psi_numeric" measures psi from
    the discrete boundary layer and needs a grid resolving eps (h <=
    eps/4). delta is the target crown offset, eta the margin of the
    admissible configuration set; the inner parallel curve at delta must
    not degenerate (delta * kappa_max < 1).
    """

    dom: geo.PlanarDomain
    profile: object
    epsilon: float
    delta: float
    eta: float
    form: str = "leading"
    grid: object = None

    def __post_init__(self):
        if not isinstance(self.dom, geo.PlanarDomain):
            raise ConfigError("dom must be a PlanarDomain")
        eps, delta, eta = self.epsilon, self.delta, self.eta
        if not (np.isfinite(eps) and eps > 0.0):
            raise ConfigError(f"epsilon must be positive, got {eps}")
        if not (np.isfinite(delta) and delta > 0.0):
            raise ConfigError(f"delta must be positive, got {delta}")
        if eps > delta / 5.0 * (1.0 + 1e-12):
            raise ConfigError(
                f"scale separation requires eps <= delta/5, got eps={eps}, delta={delta}"
            )
        if not (0.0 < eta < delta / 2.0):
            raise ConfigError(f"margin must satisfy 0 < eta < delta/2, got {eta}")
        if delta * self.dom.boundary.kappa_max >= 1.0:
            raise ParallelCurveDegeneracyError(
                f"offset {delta} reaches 1/kappa_max; the inner parallel curve degenerates")
        if self.form not in ("leading", "psi_numeric"):
            raise ConfigError(f"unknown form {self.form!r}")
        if self.form == "psi_numeric":
            if self.grid is None:
                raise ConfigError("psi_numeric form needs a grid")
            pde._require_resolution(self.grid, eps)


def boundary_exponent(model, P):
    """psi(P): -eps * log of the spike's boundary correction at its center.

    Leading form returns 2*depth exactly; psi_numeric solves the
    boundary-layer problem on the model grid. Tends to 2*depth as eps
    shrinks.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (2,) or not np.all(np.isfinite(P)):
        raise ConfigError(f"point must be a finite pair, got {P!r}")
    return float(_exponents(model, P[None])[0])


def _exponents(model, pts):
    """psi at each row of pts, from one batched depth query."""
    depths = -model.dom.signed_distance(pts)
    if depths.min() < model.eta:
        raise ConfigError(f"point at depth {depths.min():.4g} is shallower "
                          f"than the margin {model.eta}")
    if model.form == "leading":
        return 2.0 * depths
    return np.array([pde.boundary_correction(model.grid, model.profile, model.epsilon, p)[1]
                     for p in pts])


def _exponent_slopes(model, pts):
    """grad psi at each row of pts, shape (k, 2); see energy_gradient."""
    if model.form == "leading":
        return -2.0 * model.dom.boundary.normal(model.dom.foot(pts))
    h = max(1e-7, model.epsilon * 1e-5)
    rows = [[boundary_exponent(model, p + e) - boundary_exponent(model, p - e)
             for e in h * np.eye(2)] for p in pts]
    return np.array(rows) / (2.0 * h)


def _pair_distances(pts):
    """(i, j, |P_i - P_j|) over i < j. vecdot runs the dot kernel of the
    one-point np.linalg.norm, so distances match it bit for bit."""
    iu, ju = np.triu_indices(len(pts), 1)
    diff = pts[iu] - pts[ju]
    return iu, ju, np.sqrt(np.vecdot(diff, diff))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term logs: boundary terms and signed pair interactions.

    pair rows are (i, j, log_w); repulsive pairs carry opposite spike
    signs (positive contribution), attractive pairs equal signs
    (negative contribution). cancellation is |P - N| / max(P, N), see _combine.
    """

    log_boundary: np.ndarray
    repulsive: list
    attractive: list
    cancellation: float


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    reason: str = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def in_configuration_set(model, config):
    """Admissibility of a configuration: depth window, cyclic order,
    pair separation.

    The admissible set demands delta-eta < depth(P_i) < delta+eta,
    strictly increasing cyclic order of the projections onto the inner
    parallel curve at delta, and |P_i - P_j| > 2*delta - eta for every
    pair. That curve shares the boundary's parameter, so the projection
    parameters are the boundary foot parameters (PlanarDomain.foot).
    Returns a report naming the first failed condition.
    """
    return _membership(model, np.asarray(config.points, dtype=float))


def _membership(model, pts):
    k = len(pts)
    depths = -model.dom.signed_distance(pts)
    lo, hi = model.delta - model.eta, model.delta + model.eta
    for i, d in enumerate(depths):
        if not (lo < d < hi):
            return MembershipReport(
                False, "depth", f"spike {i} at depth {d:.6g} outside ({lo:.6g}, {hi:.6g})"
            )
    if k == 1:
        return MembershipReport(True)
    ts = np.mod(model.dom.foot(pts), 1.0)
    gaps = np.mod(np.diff(ts, append=ts[0]), 1.0)
    if np.any(gaps < 1e-12) or abs(gaps.sum() - 1.0) > 1e-9:
        return MembershipReport(
            False, "order", f"projections {np.array2string(ts, precision=6)} not in cyclic order"
        )
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    iu, ju = np.triu_indices(k, 1)
    floor = 2.0 * model.delta - model.eta
    tight = dist[iu, ju] <= floor
    if tight.any():
        a = int(np.argmax(tight))
        return MembershipReport(
            False,
            "distance",
            f"pair ({iu[a]},{ju[a]}) at distance {dist[iu[a], ju[a]]:.6g} <= {floor:.6g}",
        )
    return MembershipReport(True)


def _require_admissible(model, pts, what="configuration"):
    rep = _membership(model, pts)
    if not rep:
        raise ConfigError(f"{what} not admissible ({rep.reason}): {rep.detail}")


def _signed_terms(model, pts, signs):
    """Log-space terms of S: (positive logs, negative logs, breakdown parts)."""
    log_b = _LOG_HALF - _exponents(model, pts) / model.epsilon
    iu, ju, r = _pair_distances(pts)
    lw = model.profile.log_value(r / model.epsilon)
    repulsive = signs[iu] * signs[ju] < 0
    rows = list(zip(iu.tolist(), ju.tolist(), lw.tolist(), repulsive))
    parts = (log_b, [r[:3] for r in rows if r[3]], [r[:3] for r in rows if not r[3]])
    return np.concatenate([log_b, lw[repulsive]]), lw[~repulsive], parts


def _combine(pos, neg):
    """Signed log-sum: (log|S|, sign, cancellation). cancellation is
    |P - N| / max(P, N) for the summed positive and negative parts, 1.0
    without a negative part; near 0, log|S| keeps few digits."""
    lp = np.logaddexp.reduce(pos)
    if neg.size == 0:
        return float(lp), 1, 1.0
    ln = np.logaddexp.reduce(neg)
    m = max(lp, ln)
    # one of a, b is exactly 1, so |a - b| is the relative size
    a, b = np.exp(lp - m), np.exp(ln - m)
    diff = a - b
    if diff == 0.0:
        return -np.inf, 1, 0.0
    sign = 1 if diff > 0.0 else -1
    return float(m + np.log(abs(diff))), sign, float(abs(diff))


def evaluate_energy(model, config, check=True):
    """(log|S|, sign, breakdown) of a configuration's energy.

    check=False skips the admissibility test; the energy itself is
    defined for any interior points deeper than the margin. The
    breakdown's cancellation tells how many digits log|S| keeps.
    """
    pts = np.asarray(config.points, dtype=float)
    if check:
        _require_admissible(model, pts)
    pos, neg, parts = _signed_terms(model, pts, np.asarray(config.signs, dtype=int))
    log_abs, sign, cancellation = _combine(pos, neg)
    return log_abs, sign, EnergyBreakdown(*parts, cancellation)


def energy_gradient(model, config):
    """Gradient of the rescaled energy e^{2*delta/eps} * S, shape (2k,).

    Closed form by the chain rule, in the energy's log arithmetic (w'/w
    comes from the profile): spike i gets

        -1/(2 eps) e^{(2 delta - psi_i)/eps} grad psi_i
        - sum_j s_i s_j e^{2 delta/eps} w'(r_ij/eps)/eps (P_i - P_j)/r_ij

    In the leading form grad psi = -2 * outward normal at the foot point.
    In psi_numeric form it is the central difference of boundary_exponent
    with step max(1e-7, eps*1e-5): four boundary-layer solves per spike
    against the cached LU. Raises ConfigError off the admissible set.
    """
    pts = np.asarray(config.points, dtype=float)
    _require_admissible(model, pts)
    return _gradient(model, pts, np.asarray(config.signs, dtype=int))


def _gradient(model, pts, signs):
    eps = model.epsilon
    shift = 2.0 * model.delta / eps
    boundary = np.exp(shift - _exponents(model, pts) / eps) / (-2.0 * eps)
    g = boundary[:, None] * _exponent_slopes(model, pts)
    iu, ju, r = _pair_distances(pts)
    coef = (-(signs[iu] * signs[ju]) * np.exp(model.profile.log_value(r / eps) + shift)
            * model.profile.log_derivative(r / eps) / (eps * r))
    pull = coef[:, None] * (pts[iu] - pts[ju])
    np.add.at(g, iu, pull)
    np.subtract.at(g, ju, pull)
    return g.ravel()


def minimize_energy(model, init):
    """Minimize the rescaled energy over the admissible set.

    BFGS on the 2k spike coordinates with the closed-form gradient;
    steps leaving the admissible set are rejected by halving (up to 20
    times). Returns (SpikeConfiguration, log|S| at the minimizer, trace,
    stop); trace rows are (iteration, log_energy, gradient_norm, min
    adjacent chord, min pair distance), and stop is "gradient" (norm
    below _GRAD_TOL), "step" (accepted step below 1e-12), "line_search"
    (no admissible trial lowered the energy) or "max_iter" (_MAX_ITER
    steps taken).
    """
    pts0 = np.asarray(init.points, dtype=float)
    signs = np.asarray(init.signs, dtype=int)
    _require_admissible(model, pts0, "init")

    def energy(x):
        pos, neg, _ = _signed_terms(model, x.reshape(-1, 2), signs)
        log_e, sign, _ = _combine(pos, neg)
        return log_e, sign * np.exp(log_e + 2.0 * model.delta / model.epsilon)

    def geometry_row(x):
        p = x.reshape(-1, 2)
        if len(p) == 1:
            return np.nan, np.nan
        chords = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)
        return float(chords.min()), float(_pair_distances(p)[2].min())

    x = pts0.ravel().copy()
    log_e, f = energy(x)
    g = _gradient(model, pts0, signs)
    H = np.eye(x.size)
    trace = []
    step = np.inf
    for it in range(_MAX_ITER + 1):
        # the last trace row always describes the returned point
        gn = float(np.linalg.norm(g))
        trace.append((it, log_e, gn) + geometry_row(x))
        if gn < _GRAD_TOL or step < 1e-12 or it == _MAX_ITER:
            stop = "gradient" if gn < _GRAD_TOL else "step" if step < 1e-12 else "max_iter"
            break
        d = -H @ g
        if float(d @ g) >= 0.0:
            H = np.eye(x.size)
            d = -g
        alpha = 1.0
        x_new = None
        saw_admissible = False
        for _ in range(20):
            cand = x + alpha * d
            if _membership(model, cand.reshape(-1, 2)):
                saw_admissible = True
                log_cand, f_cand = energy(cand)
                # f has ~1e-14 relative rounding (exp of a log-sum of size
                # ~20); a strict test would stall once the decrease sinks below it
                if f_cand <= f + 1e-4 * alpha * float(d @ g) + 1e-13 * abs(f):
                    x_new = cand
                    break
            alpha *= 0.5
        if x_new is None:
            if not saw_admissible:
                raise BoundaryTrappedError(
                    "every step size leaves the admissible configuration set"
                )
            stop = "line_search"
            break
        g_new = _gradient(model, x_new.reshape(-1, 2), signs)
        s = x_new - x
        y = g_new - g
        ys = float(y @ s)
        if ys > 1e-12 * np.linalg.norm(y) * np.linalg.norm(s):
            rho = 1.0 / ys
            I = np.eye(x.size)
            H = (I - rho * np.outer(s, y)) @ H @ (I - rho * np.outer(y, s)) + rho * np.outer(s, s)
        x, log_e, f, g = x_new, log_cand, f_cand, g_new
        step = float(np.linalg.norm(s))

    return SpikeConfiguration(x.reshape(-1, 2), signs=signs), log_e, np.array(trace), stop
