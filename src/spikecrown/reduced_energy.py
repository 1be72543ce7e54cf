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
from functools import cached_property

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
    return float(_Evaluation(model, P[None]).psi[0])


def _pair_distances(pts):
    """(i, j, |P_i - P_j|) over i < j. vecdot runs the dot kernel of the
    one-point np.linalg.norm, so distances match it bit for bit."""
    iu, ju = np.triu_indices(len(pts), 1)
    diff = pts[iu] - pts[ju]
    return iu, ju, np.sqrt(np.vecdot(diff, diff))


class _Evaluation:
    """One configuration's feet, depths and pair distances, from one
    nearest-point query and one pair-distance pass. Admissibility, psi,
    the energy and the gradient all read them; psi is computed on first
    use, since in psi_numeric form it costs k boundary-layer solves, and
    so are the profile's logs at the scaled pair distances rho."""

    def __init__(self, model, pts):
        self.model, self.pts = model, pts
        self.feet, dist = model.dom.nearest(pts)
        self.depths = -dist
        self.iu, self.ju, self.r = _pair_distances(pts)

    @cached_property
    def psi(self):
        model = self.model
        if self.depths.min() < model.eta:
            raise ConfigError(f"point at depth {self.depths.min():.4g} is shallower "
                              f"than the margin {model.eta}")
        if model.form == "leading":
            return 2.0 * self.depths
        return np.array([pde.boundary_correction(model.grid, model.profile, model.epsilon, p,
                                                 depth=d)[1]
                         for p, d in zip(self.pts, self.depths)])

    @cached_property
    def rho(self):
        return self.r / self.model.epsilon

    @cached_property
    def log_w(self):
        """log w(rho) per pair."""
        return self.model.profile.log_value(self.rho)

    @cached_property
    def dlog_w(self):
        """w'(rho)/w(rho) per pair."""
        return self.model.profile.log_derivative(self.rho)

    @cached_property
    def slopes(self):
        """grad psi at each spike, shape (k, 2); see energy_gradient. The
        gradient and the Hessian share it, so psi_numeric pays its central
        differences once per configuration."""
        model = self.model
        if model.form == "leading":
            return -2.0 * model.dom.boundary.normal(self.feet)
        h = max(1e-7, model.epsilon * 1e-5)
        rows = [[boundary_exponent(model, p + e) - boundary_exponent(model, p - e)
                 for e in h * np.eye(2)] for p in self.pts]
        return np.array(rows) / (2.0 * h)


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
    parameters are the boundary foot parameters (PlanarDomain.nearest).
    Returns a report naming the first failed condition.
    """
    return _membership(_Evaluation(model, np.asarray(config.points, dtype=float)))


def _membership(ev):
    model = ev.model
    lo, hi = model.delta - model.eta, model.delta + model.eta
    for i, d in enumerate(ev.depths):
        if not (lo < d < hi):
            return MembershipReport(
                False, "depth", f"spike {i} at depth {d:.6g} outside ({lo:.6g}, {hi:.6g})"
            )
    if len(ev.pts) == 1:
        return MembershipReport(True)
    ts = np.mod(ev.feet, 1.0)
    gaps = np.mod(np.diff(ts, append=ts[0]), 1.0)
    if np.any(gaps < 1e-12) or abs(gaps.sum() - 1.0) > 1e-9:
        return MembershipReport(
            False, "order", f"projections {np.array2string(ts, precision=6)} not in cyclic order"
        )
    iu, ju, r = ev.iu, ev.ju, ev.r
    floor = 2.0 * model.delta - model.eta
    tight = r <= floor
    if tight.any():
        a = int(np.argmax(tight))
        return MembershipReport(
            False, "distance", f"pair ({iu[a]},{ju[a]}) at distance {r[a]:.6g} <= {floor:.6g}"
        )
    return MembershipReport(True)


def _require_admissible(ev, what="configuration"):
    rep = _membership(ev)
    if not rep:
        raise ConfigError(f"{what} not admissible ({rep.reason}): {rep.detail}")


def _signed_terms(ev, signs):
    """Log-space terms of S: (positive logs, negative logs, repulsive
    pair mask). The positive logs are the k boundary terms followed by
    the repulsive pairs'."""
    repulsive = signs[ev.iu] * signs[ev.ju] < 0
    log_b = _LOG_HALF - ev.psi / ev.model.epsilon
    return (np.concatenate([log_b, ev.log_w[repulsive]]), ev.log_w[~repulsive],
            repulsive)


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
    ev = _Evaluation(model, np.asarray(config.points, dtype=float))
    if check:
        _require_admissible(ev)
    pos, neg, repulsive = _signed_terms(ev, np.asarray(config.signs, dtype=int))
    log_abs, sign, cancellation = _combine(pos, neg)
    rows = list(zip(ev.iu.tolist(), ev.ju.tolist(), ev.log_w.tolist(), repulsive))
    return log_abs, sign, EnergyBreakdown(pos[:len(ev.pts)],
                                          [r[:3] for r in rows if r[3]],
                                          [r[:3] for r in rows if not r[3]], cancellation)


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
    ev = _Evaluation(model, np.asarray(config.points, dtype=float))
    _require_admissible(ev)
    return _gradient(ev, np.asarray(config.signs, dtype=int))


def _gradient(ev, signs):
    model, pts, iu, ju, r = ev.model, ev.pts, ev.iu, ev.ju, ev.r
    eps = model.epsilon
    shift = 2.0 * model.delta / eps
    boundary = np.exp(shift - ev.psi / eps) / (-2.0 * eps)
    g = boundary[:, None] * ev.slopes
    coef = (-(signs[iu] * signs[ju]) * np.exp(ev.log_w + shift) * ev.dlog_w / (eps * r))
    pull = coef[:, None] * (pts[iu] - pts[ju])
    np.add.at(g, iu, pull)
    np.subtract.at(g, ju, pull)
    return g.ravel()


def _hessian(ev, signs):
    """Hessian of the rescaled energy e^{2*delta/eps} * S, shape (2k, 2k).

    Closed form in the gradient's log arithmetic. The boundary term
    b_i = 1/2 e^{(2 delta - psi_i)/eps} adds

        b_i (grad psi grad psi'/eps^2 - hess psi/eps)

    to block (i, i), with hess psi = -2 kappa/(1 - kappa d) T T' from the
    boundary's curvature kappa and tangent T at the foot and the depth d
    (psi = 2*depth; psi_numeric takes the same curvature term with its own
    grad psi). With rho = r_ij/eps and u = (P_i - P_j)/r_ij, a pair adds

        B = -s_i s_j e^{2 delta/eps} w(rho) [(w''/w)/eps^2 u u'
                                             + (w'/w)/(eps r_ij) (I - u u')]

    to blocks (i, i) and (j, j) and -B to (i, j) and (j, i); w''/w is
    RadialProfile.log_second_derivative.
    """
    model, pts, iu, ju, r = ev.model, ev.pts, ev.iu, ev.ju, ev.r
    eps, prof, bd = model.epsilon, model.profile, model.dom.boundary
    shift = 2.0 * model.delta / eps
    k = len(pts)
    H = np.zeros((k, k, 2, 2))
    kappa = bd.curvature(ev.feet)
    T = bd.tangent(ev.feet)
    gp = ev.slopes
    b = 0.5 * np.exp(shift - ev.psi / eps)
    hess_psi = (-2.0 * kappa / (1.0 - kappa * ev.depths))[:, None, None] * _outer(T, T)
    H[np.arange(k), np.arange(k)] = b[:, None, None] * (_outer(gp, gp) / eps ** 2
                                                         - hess_psi / eps)
    ddw = prof.log_second_derivative(ev.rho)
    u = (pts[iu] - pts[ju]) / r[:, None]
    uu = _outer(u, u)
    B = (-(signs[iu] * signs[ju]) * np.exp(ev.log_w + shift))[:, None, None] * (
        (ddw / eps ** 2)[:, None, None] * uu + (ev.dlog_w / (eps * r))[:, None, None] * (np.eye(2) - uu))
    np.add.at(H, (iu, iu), B)
    np.add.at(H, (ju, ju), B)
    np.subtract.at(H, (iu, ju), B)
    np.subtract.at(H, (ju, iu), B)
    return H.transpose(0, 2, 1, 3).reshape(2 * k, 2 * k)


def _outer(a, b):
    """Row-wise outer products of (m, 2) arrays, shape (m, 2, 2)."""
    return a[:, :, None] * b[:, None, :]


def minimize_energy(model, init):
    """Minimize the rescaled energy over the admissible set.

    Modified Newton on the 2k spike coordinates with the closed-form
    gradient and Hessian (_hessian): the step is -V diag(1/|lam|) V' g
    over the Hessian's eigenpairs, each |lam| floored at 1e-8 of the
    largest (the disk's rotation is a zero eigenvalue), so every step is
    a descent direction. Steps leaving the admissible set are rejected by
    halving (up to 20 times), and so are steps that miss the Armijo
    decrease. Each trial point is evaluated once: one nearest-point query
    and one pair-distance pass serve its admissibility test, its energy
    and, once accepted, its gradient, Hessian and trace row. Returns
    (SpikeConfiguration, log|S| at the minimizer, trace, stop); trace
    rows are (iteration, log_energy, gradient_norm, min adjacent chord,
    min pair distance), and stop is "gradient" (norm below _GRAD_TOL),
    "step" (accepted step below 1e-12), "line_search" (no admissible
    trial lowered the energy) or "max_iter" (_MAX_ITER steps taken).
    """
    signs = np.asarray(init.signs, dtype=int)
    ev = _Evaluation(model, np.asarray(init.points, dtype=float))
    _require_admissible(ev, "init")

    def energy(ev):
        pos, neg, _ = _signed_terms(ev, signs)
        log_e, sign, _ = _combine(pos, neg)
        return log_e, sign * np.exp(log_e + 2.0 * model.delta / model.epsilon)

    def geometry_row(ev):
        p = ev.pts
        if len(p) == 1:
            return np.nan, np.nan
        chords = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)
        return float(chords.min()), float(ev.r.min())

    x = ev.pts.ravel().copy()
    log_e, f = energy(ev)
    g = _gradient(ev, signs)
    trace = []
    step = np.inf
    for it in range(_MAX_ITER + 1):
        # the last trace row always describes the returned point
        gn = float(np.linalg.norm(g))
        trace.append((it, log_e, gn) + geometry_row(ev))
        if gn < _GRAD_TOL or step < 1e-12 or it == _MAX_ITER:
            stop = "gradient" if gn < _GRAD_TOL else "step" if step < 1e-12 else "max_iter"
            break
        lam, V = np.linalg.eigh(_hessian(ev, signs))
        lam = np.abs(lam)
        d = -V @ ((V.T @ g) / np.maximum(lam, 1e-8 * lam.max()))
        alpha = 1.0
        new = None
        saw_admissible = False
        for _ in range(20):
            trial = _Evaluation(model, (x + alpha * d).reshape(-1, 2))
            if _membership(trial):
                saw_admissible = True
                log_cand, f_cand = energy(trial)
                # f has ~1e-14 relative rounding (exp of a log-sum of size
                # ~20); a strict test would stall once the decrease sinks below it
                if f_cand <= f + 1e-4 * alpha * float(d @ g) + 1e-13 * abs(f):
                    new = trial
                    break
            alpha *= 0.5
        if new is None:
            if not saw_admissible:
                raise BoundaryTrappedError(
                    "every step size leaves the admissible configuration set"
                )
            stop = "line_search"
            break
        step = float(np.linalg.norm(new.pts.ravel() - x))
        x, ev, log_e, f, g = new.pts.ravel(), new, log_cand, f_cand, _gradient(new, signs)

    return SpikeConfiguration(x.reshape(-1, 2), signs=signs), log_e, np.array(trace), stop
