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

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import pde
from .errors import (
    BoundaryTrappedError,
    CancellationWarning,
    ConfigError,
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
    admissible configuration set.
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
        if self.form not in ("leading", "psi_numeric"):
            raise ConfigError(f"unknown form {self.form!r}")
        if self.form == "psi_numeric":
            if self.grid is None:
                raise ConfigError("psi_numeric form needs a grid")
            pde._require_resolution(self.grid, eps)

    @property
    def target_curve(self):
        """Inner parallel curve at distance delta (cached)."""
        cached = self.__dict__.get("_target_curve")
        if cached is None:
            cached = geo.inner_parallel_curve(self.dom.boundary, self.delta)
            object.__setattr__(self, "_target_curve", cached)
        return cached


def boundary_exponent(model, P):
    """psi(P): -eps * log of the spike's boundary correction at its center.

    Leading form returns 2*depth exactly; psi_numeric solves the
    boundary-layer problem on the model grid. Tends to 2*depth as eps
    shrinks.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (2,) or not np.all(np.isfinite(P)):
        raise ConfigError(f"point must be a finite pair, got {P!r}")
    depth = -float(model.dom.signed_distance(P))
    if depth < model.eta:
        raise ConfigError(
            f"point at depth {depth:.4g} is shallower than the margin {model.eta}"
        )
    if model.form == "leading":
        return 2.0 * depth
    _, psi = pde.boundary_correction(model.grid, model.profile, model.epsilon, P)
    return psi


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term logs: boundary terms and signed pair interactions.

    pair rows are (i, j, log_w); repulsive pairs carry opposite spike
    signs (positive contribution), attractive pairs equal signs
    (negative contribution).
    """

    log_boundary: np.ndarray
    repulsive: list
    attractive: list


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
    strictly increasing cyclic order of the projections onto the target
    curve, and |P_i - P_j| > 2*delta - eta for every pair. Returns a
    report naming the first failed condition.
    """
    pts = np.asarray(config.points, dtype=float)
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
    gamma = model.target_curve
    ts = np.array([geo.project_to_curve(gamma, p)[0] for p in pts])
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


def _signed_terms(model, pts, signs):
    """Log-space terms of S: (positive logs, negative logs, breakdown)."""
    eps = model.epsilon
    k = len(pts)
    log_b = np.empty(k)
    for i in range(k):
        log_b[i] = _LOG_HALF - boundary_exponent(model, pts[i]) / eps
    pos = list(log_b)
    neg = []
    rep, att = [], []
    for i in range(k):
        for j in range(i + 1, k):
            lw = float(model.profile.log_value(np.linalg.norm(pts[i] - pts[j]) / eps))
            if signs[i] * signs[j] < 0:
                rep.append((i, j, lw))
                pos.append(lw)
            else:
                att.append((i, j, lw))
                neg.append(lw)
    return pos, neg, EnergyBreakdown(log_b, rep, att)


def _combine(pos, neg):
    """Signed log-sum: (log|S|, sign). Warns on catastrophic cancellation."""
    lp = np.logaddexp.reduce(np.asarray(pos))
    if not neg:
        return float(lp), 1
    ln = np.logaddexp.reduce(np.asarray(neg))
    m = max(lp, ln)
    a, b = np.exp(lp - m), np.exp(ln - m)
    diff = a - b
    if abs(diff) <= 1e-12 * max(a, b):
        warnings.warn(
            f"positive and negative energy parts cancel to {abs(diff):.2e} relative; "
            "few digits remain",
            CancellationWarning,
            stacklevel=3,
        )
    if diff == 0.0:
        return -np.inf, 1
    sign = 1 if diff > 0.0 else -1
    return float(m + np.log(abs(diff))), sign


def evaluate_energy(model, config, check=True):
    """(log|S|, sign, breakdown) of a configuration's energy.

    check=False skips the admissibility test; the energy itself is
    defined for any interior points deeper than the margin.
    """
    pts = np.asarray(config.points, dtype=float)
    signs = np.asarray(config.signs, dtype=int)
    if check:
        rep = in_configuration_set(model, config)
        if not rep:
            raise ConfigError(f"configuration not admissible ({rep.reason}): {rep.detail}")
    pos, neg, breakdown = _signed_terms(model, pts, signs)
    log_abs, sign = _combine(pos, neg)
    return log_abs, sign, breakdown


def _scaled_value(model, pts, signs):
    """e^{2*delta/eps} * S, an O(1) number near the target crown."""
    pos, neg, _ = _signed_terms(model, pts, signs)
    log_abs, sign = _combine(pos, neg)
    return sign * np.exp(log_abs + 2.0 * model.delta / model.epsilon)


def energy_gradient(model, config, step=None):
    """Central-difference gradient of the rescaled energy, shape (2k,).

    Differentiates e^{2*delta/eps} * S coordinate by coordinate with
    step max(1e-7, eps*1e-5) unless overridden. Probe points skip the
    admissibility check (they may poke marginally outside the set).
    """
    pts = np.asarray(config.points, dtype=float)
    signs = np.asarray(config.signs, dtype=int)
    rep = in_configuration_set(model, config)
    if not rep:
        raise ConfigError(f"configuration not admissible ({rep.reason}): {rep.detail}")
    if step is None:
        step = max(1e-7, model.epsilon * 1e-5)
    flat = pts.ravel()
    g = np.empty(flat.size)
    for c in range(flat.size):
        fp = flat.copy()
        fp[c] += step
        tp = _scaled_value(model, fp.reshape(-1, 2), signs)
        fm = flat.copy()
        fm[c] -= step
        tm = _scaled_value(model, fm.reshape(-1, 2), signs)
        g[c] = (tp - tm) / (2.0 * step)
    return g


def _config_like(config, pts):
    from types import SimpleNamespace

    from .packing import SpikeConfiguration

    signs = np.asarray(config.signs, dtype=int)
    if len(pts) >= 2 and len(pts) % 2 == 0:
        return SpikeConfiguration(pts, signs=signs)
    return SimpleNamespace(points=pts, signs=signs)


def minimize_energy(model, init):
    """Minimize the rescaled energy over the admissible set.

    BFGS on the 2k spike coordinates; steps leaving the admissible set
    are rejected by halving (up to 20 times). Returns (configuration,
    log|S| at the minimizer, trace) where trace rows are (iteration,
    log_energy, gradient_norm, min adjacent chord, min pair distance).
    A minimizer farther than 5*eps from the target crown distances gets
    a warning, not an error: the finite-eps minimizer drifts from the
    limit polygon at order eps.
    """
    pts0 = np.asarray(init.points, dtype=float)
    signs = np.asarray(init.signs, dtype=int)
    rep = in_configuration_set(model, init)
    if not rep:
        raise ConfigError(f"init not admissible ({rep.reason}): {rep.detail}")
    k = len(pts0)

    def fval(x):
        return _scaled_value(model, x.reshape(-1, 2), signs)

    def grad(x):
        return energy_gradient(model, _config_like(init, x.reshape(-1, 2)))

    def admissible(x):
        return bool(in_configuration_set(model, _config_like(init, x.reshape(-1, 2))))

    def geometry_row(x):
        p = x.reshape(-1, 2)
        if k == 1:
            return np.nan, np.nan
        chords = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)
        dist = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
        iu, ju = np.triu_indices(k, 1)
        return float(chords.min()), float(dist[iu, ju].min())

    x = pts0.ravel().copy()
    f = fval(x)
    g = grad(x)
    H = np.eye(x.size)
    trace = []
    for it in range(_MAX_ITER):
        gn = float(np.linalg.norm(g))
        log_e, _, _ = evaluate_energy(model, _config_like(init, x.reshape(-1, 2)), check=False)
        trace.append((it, log_e, gn) + geometry_row(x))
        if gn < _GRAD_TOL:
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
            if admissible(cand):
                saw_admissible = True
                f_cand = fval(cand)
                if f_cand <= f + 1e-4 * alpha * float(d @ g):
                    x_new = cand
                    f_new = f_cand
                    break
            alpha *= 0.5
        if x_new is None:
            if not saw_admissible:
                raise BoundaryTrappedError(
                    "every step size leaves the admissible configuration set"
                )
            break
        g_new = grad(x_new)
        s = x_new - x
        y = g_new - g
        ys = float(y @ s)
        if ys > 1e-12 * np.linalg.norm(y) * np.linalg.norm(s):
            rho = 1.0 / ys
            I = np.eye(x.size)
            H = (I - rho * np.outer(s, y)) @ H @ (I - rho * np.outer(y, s)) + rho * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        if float(np.linalg.norm(s)) < 1e-12:
            break

    pts_min = x.reshape(-1, 2)
    log_min, _, _ = evaluate_energy(model, _config_like(init, pts_min), check=False)
    depths = -model.dom.signed_distance(pts_min)
    drift = float(np.abs(depths - model.delta).max())
    if k >= 2:
        chords = np.linalg.norm(np.roll(pts_min, -1, axis=0) - pts_min, axis=1)
        drift = max(drift, float(np.abs(chords - 2.0 * model.delta).max()))
    if drift > 5.0 * model.epsilon:
        warnings.warn(
            f"minimizer is {drift:.4g} from the target crown distances "
            f"(allowance 5*eps = {5 * model.epsilon:.4g})",
            stacklevel=2,
        )
    return _config_like(init, pts_min), log_min, np.array(trace)
