"""The ten-point acceptance checklist behind `spike-crown verify`.

verification_report runs ten frozen checks of the profile, the crown,
the reduced energy and the Newton solve, and returns the verdict. The
sampled checks of strict convexity and of the inward-shift contraction
live here as well, since only criterion 9 uses them.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import geometry as geo
from . import packing as pk
from . import pde
from . import reduced_energy as red
from .errors import ConfigError, NumericalError, PropertyViolationError, SpikeCrownError
from .ground_state import shoot
from .nonlinearity import Nonlinearity

_PAIR_CHUNK = 256  # rows of P per block of _pair_scan
_GRID_LEVELS = 7  # bracket refinements of _delta_grid_search


# ------------------------------------------- convexity and contraction

def _pair_scan(P, N, delta_sep):
    """Exhaustive ordered-pair scan of nu_P.(P-Q) over |P-Q| >= delta_sep."""
    best = np.inf
    best_pair = (0, 0)
    chunk = _PAIR_CHUNK
    for lo in range(0, len(P), chunk):
        hi = min(lo + chunk, len(P))
        diff = P[lo:hi, None, :] - P[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        val = np.einsum("ik,ijk->ij", N[lo:hi], diff)
        val = np.where(dist >= delta_sep, val, np.inf)
        k = np.unravel_index(np.argmin(val), val.shape)
        if val[k] < best:
            best = float(val[k])
            best_pair = (lo + k[0], k[1])
    return best, best_pair


def check_strict_convexity(curve, delta_sep):
    """Minimum of nu_P.(P-Q) over boundary pairs with |P-Q| >= delta_sep.

    Positive margin quantifies strict convexity at separation delta_sep.
    A subsampled exhaustive scan locates the minimizing pair; a
    constrained local polish then removes the grid bias. delta_sep = 0
    degenerates to the coincident-pair value 0."""
    delta_sep = float(delta_sep)
    if delta_sep < 0:
        raise ConfigError(f"separation must be nonnegative, got {delta_sep}")
    stride = 2
    P = curve.points[::stride]
    N = curve.normals[::stride]
    margin, (i0, j0) = _pair_scan(P, N, delta_sep)
    if not np.isfinite(margin):
        return np.inf  # delta_sep exceeds the diameter: empty pair set
    if delta_sep == 0.0:
        return margin
    tp0 = curve.t_nodes[stride * i0]
    tq0 = curve.t_nodes[stride * j0]

    def objective(z):
        p = curve.point(z[0])
        nu = curve.normal(z[0])
        return float(np.dot(nu, p - curve.point(z[1])))

    def constraint(z):
        return float(np.linalg.norm(curve.point(z[0]) - curve.point(z[1])) - delta_sep)

    res = minimize(
        objective,
        np.array([tp0, tq0]),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": constraint}],
        options={"ftol": 1e-14, "maxiter": 200},
    )
    if res.success and constraint(res.x) > -1e-10:
        margin = min(margin, float(res.fun))
    return margin


@dataclass
class ContractionReport:
    """Outcome of sampling the two-point inward-shift inequality."""

    n_samples: int
    n_violations: int
    worst_slack: float
    eta_max: float
    worst_case: tuple


def contraction_check(curve, delta_sep, eta_max, n_samples, seed=0):
    """Sample pairs P,Q with |P-Q| >= delta_sep and inward shifts
    eta1, eta2 in [0, eta_max]; verify the shifted points are strictly
    closer than |P-Q|. Raises PropertyViolationError (report attached)
    on any failure; otherwise returns the report with the worst slack."""
    eta_max = float(eta_max)
    if eta_max < 0:
        raise ConfigError(f"eta_max must be nonnegative, got {eta_max}")
    rng = np.random.default_rng(seed)
    tp = np.empty(0)
    tq = np.empty(0)
    for _ in range(200):
        need = n_samples - len(tp)
        if need <= 0:
            break
        cand_p = rng.uniform(0.0, 1.0, 2 * need + 16)
        cand_q = rng.uniform(0.0, 1.0, 2 * need + 16)
        d = np.linalg.norm(curve.point(cand_p) - curve.point(cand_q), axis=1)
        ok = d >= delta_sep
        tp = np.concatenate([tp, cand_p[ok]])
        tq = np.concatenate([tq, cand_q[ok]])
    if len(tp) < n_samples:
        raise ConfigError(
            f"separation {delta_sep} excludes almost every boundary pair"
        )
    tp, tq = tp[:n_samples], tq[:n_samples]
    P, Q = curve.point(tp), curve.point(tq)
    nup = curve.normal(tp)
    nuq = curve.normal(tq)
    eta1 = rng.uniform(0.0, eta_max, n_samples)
    eta2 = rng.uniform(0.0, eta_max, n_samples)
    orig = np.linalg.norm(P - Q, axis=1)
    moved = np.linalg.norm((P - eta1[:, None] * nup) - (Q - eta2[:, None] * nuq), axis=1)
    slack = orig - moved
    worst = int(np.argmin(slack))
    report = ContractionReport(
        n_samples=int(n_samples),
        n_violations=int(np.count_nonzero(slack <= 0.0)),
        worst_slack=float(slack[worst]),
        eta_max=eta_max,
        worst_case=(float(tp[worst]), float(tq[worst]), float(eta1[worst]), float(eta2[worst])),
    )
    if report.n_violations > 0:
        raise PropertyViolationError(
            f"{report.n_violations} of {n_samples} sampled pairs moved apart "
            f"(worst slack {report.worst_slack:.3e}); eta_max {eta_max} too large",
            report,
        )
    return report


# ------------------------------------------------------------ helpers

def _unit_disk():
    return geo.PlanarDomain(geo.circle(1.0))


def _best_phase_defect(gamma, k, chord):
    """The least closure defect over start phases, one oracle march per
    phase grid: 48 phases pick one; 4 rounds of 9-phase grids, each a
    quarter as wide as the last, polish it, each without its middle,
    the incumbent, once that is scored. The incumbent yields only to a
    strictly smaller defect."""
    best, tb = np.inf, 0.0
    widths = [1.0 / 48.0 / 4.0**r for r in range(4)]
    for width in [None] + widths:
        phases = (np.arange(48) / 48.0 if width is None
                  else tb + np.linspace(-width, width, 9))
        phases = np.delete(phases, 4) if best < np.inf else phases
        defect = pk.equal_chord_march(gamma, k, chord, phases)[2]
        i = int(np.argmin(defect))
        if defect[i] < best:
            best, tb = float(defect[i]), float(phases[i])
    return best


def _delta_grid_search(dom, k):
    """Locate the critical offset by pure grid refinement.

    At each offset the closure defect of the equal-chord march (chord
    2*delta) is minimized over the starting phase; the defect is
    negative below the critical offset and not above it. Each level
    bisects the indices of a 9-point grid on the bracket down to one
    cell, the next level's bracket. Independent of the production
    solver's Newton and phase handling; the bracket's top is the
    solver's, packing._offset_top.
    """
    bd = dom.boundary

    def below(d):
        gamma = geo.inner_parallel_curve(bd, float(d))
        return _best_phase_defect(gamma, k, 2.0 * d) < 0.0

    lo = 0.05
    hi = pk._offset_top(bd)
    if not below(lo) or below(hi):
        raise NumericalError("defect did not change sign across the bracket")
    for _level in range(_GRID_LEVELS):
        # the grid's own points, not midpoints of (lo, hi), keep the
        # cells, and so grid_search, bit for bit
        grid = np.linspace(lo, hi, 9)
        a, b = 0, 8
        while b - a > 1:
            mid = (a + b) // 2
            a, b = (mid, b) if below(grid[mid]) else (a, mid)
        lo, hi = grid[a], grid[b]
    return 0.5 * (lo + hi)


def _rotated_crown(dom, crown, delta_star, arc):
    gamma = geo.inner_parallel_curve(dom.boundary, delta_star)
    ts = dom.foot(crown.points)
    ts2 = [gamma.param_at_arclength(gamma.arclength(t) + arc) for t in ts]
    return pk.make_configuration(dom, np.array([gamma.point(t) for t in ts2]),
                                 signs=crown.signs)


def _polygon_fit_residual(pts):
    """Max distance to the best regular polygon (mean radius and phase),
    points assumed in cyclic order around the origin."""
    k = len(pts)
    r = np.linalg.norm(pts, axis=1)
    th = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    orient = np.sign(th[1] - th[0])
    slots = np.arange(k) * (2.0 * np.pi / k) * orient
    phase = (th - slots).mean()
    ideal = r.mean() * np.stack([np.cos(phase + slots),
                                 np.sin(phase + slots)], axis=1)
    return float(np.linalg.norm(pts - ideal, axis=1).max())


def _alternating(peaks):
    sgs = [sg for _, sg, _ in peaks]
    return all(sgs[i] * sgs[(i + 1) % len(sgs)] == -1 for i in range(len(sgs)))


def _dihedral_defect(grid, fld):
    """Sup over the 7 nontrivial square-lattice symmetries of
    |v(T(node)) - v(node)|; the maps permute the node set exactly on a
    centered disk, and an alternating crown is invariant under all of
    them (each map shifts the peak index by an even amount). A map that
    sends a node off the node set raises NumericalError."""
    i, j = grid.abs_index().T
    maps = ((-j, i), (-i, -j), (j, -i), (i, -j), (-i, j), (j, i), (-j, -i))
    nx, ny = grid.shape
    v = fld.values
    worst = 0.0
    for ti, tj in maps:
        li, lj = ti - grid.i0, tj - grid.j0
        if not ((li >= 0) & (li < nx) & (lj >= 0) & (lj < ny)).all():
            raise NumericalError("symmetry map sends a node outside the grid")
        perm = grid.index[li, lj]
        if (perm < 0).any():
            raise NumericalError("symmetry map sends a node off the node set")
        worst = max(worst, float(np.abs(v[perm] - v).max()))
    return worst


# ----------------------------------------------------------- criteria

def _criterion_profile_closed_forms():
    z = np.linspace(0.0, 15.0, 1501)
    z_far = np.linspace(15.0, 20.0, 501)
    closed = ((3.0, lambda r: 1.5 / np.cosh(0.5 * r) ** 2),
              (4.0, lambda r: math.sqrt(2.0) / np.cosh(r)))
    meas = {}
    ok = True
    for p, exact in closed:
        profile = shoot(Nonlinearity(p=p, dim_n=1))
        sup = float(np.abs(profile.value(z) - exact(z)).max())
        ratio = profile.derivative(z_far) / profile.value(z_far)
        dev = float(np.abs(ratio + 1.0).max())
        meas[f"sup_error_p{p:g}"] = sup
        meas[f"decay_ratio_dev_p{p:g}"] = dev
        ok = ok and sup < 1e-6 and dev < 5e-3
    return ok, meas


def _criterion_circle_closed_form():
    worst_rel = 0.0
    worst_chord = 0.0
    for radius in (0.5, 1.0, 2.0):
        dom = geo.PlanarDomain(geo.circle(radius))
        for k in (4, 8, 16, 32):
            delta_star, crown = pk.critical_distance(dom, k)
            s = math.sin(math.pi / k)
            exact = radius * s / (1.0 + s)
            worst_rel = max(worst_rel, abs(delta_star - exact) / exact)
            steps = np.roll(crown.points, -1, axis=0) - crown.points
            chords = np.hypot(steps[:, 0], steps[:, 1])
            worst_chord = max(worst_chord,
                              float(np.abs(chords - 2.0 * delta_star).max()))
    ok = worst_rel < 1e-8 and worst_chord < 1e-8
    return ok, {"worst_rel_error": worst_rel, "worst_chord_dev": worst_chord}


def _criterion_ellipse_search():
    dom = geo.PlanarDomain(geo.ellipse(2.0, 1.0))
    delta_star, crown = pk.critical_distance(dom, 10)
    found = _delta_grid_search(dom, 10)
    min_nonadj = pk._min_nonadjacent(crown.points)
    ok = abs(found - delta_star) < 1e-6 and min_nonadj > 2.0 * delta_star
    return ok, {"delta_star": delta_star, "grid_search": found,
                "difference": abs(found - delta_star),
                "min_nonadjacent_dist": min_nonadj,
                "twice_delta_star": 2.0 * delta_star}


def _criterion_boundary_gap(dom, delta_star, crown, seed):
    sup_phi, gap, _ = pk.boundary_gap_check(dom, crown, delta_star,
                                            delta_star / 10.0, seed=seed)
    ok = sup_phi < delta_star - 1e-3
    return ok, {"sup_phi": sup_phi, "delta_star": delta_star, "gap": gap}


def _criterion_exponent_trend(profile):
    dom = _unit_disk()
    P = np.array([0.7, 0.0])
    devs, dropped = [], []
    for eps in (0.1, 0.05, 0.025):
        grid = pde.discretize(dom, eps / 4.0)
        _, psi = pde.boundary_correction(grid, profile, eps, P)
        devs.append(abs(psi - 0.6))
        dropped.append(grid.n_reclassified)
    ok = devs[0] > devs[1] > devs[2]
    return ok, {"deviations": devs, "reclassified_nodes": dropped}


def _criterion_energy_scaling(profile, dom, delta_star, crown):
    devs = []
    for frac in (8.0, 12.0, 16.0):
        eps = delta_star / frac
        model = red.ReducedEnergyModel(dom, profile, eps, delta_star,
                                       delta_star / 10.0)
        log_abs, _, _ = red.evaluate_energy(model, crown)
        devs.append(abs(-eps * log_abs / (2.0 * delta_star) - 1.0))
    ok = devs[0] > devs[1] > devs[2] and devs[-1] < 0.10
    return ok, {"relative_deviations": devs}


def _criterion_minimizer_location(profile, dom, delta_star, crown):
    eps = delta_star / 12.0
    eta = delta_star / 10.0
    model = red.ReducedEnergyModel(dom, profile, eps, delta_star, eta)
    init = _rotated_crown(dom, crown, delta_star, eta / 4.0)
    pts = red.minimize_energy(model, init)[0].points
    depth_dev, chord_dev = pk._crown_deviations(dom, pts, delta_star)
    fit = _polygon_fit_residual(pts)
    ok = depth_dev < 5.0 * eps and chord_dev < 5.0 * eps and fit < 1e-6
    return ok, {"max_depth_dev": depth_dev, "max_chord_dev": chord_dev,
                "allowance": 5.0 * eps, "polygon_fit": fit}


def _criterion_newton_family(profile, dom, delta_star, crown, nl):
    """Newton from the raw crown ansatz at delta*/{8,12,16}; also hands
    back the finest solve (grid, field) for the symmetry check."""
    rows = []
    finest = None
    for frac in (8.0, 12.0, 16.0):
        eps = delta_star / frac
        grid = pde.discretize(dom, eps / 4.0)
        sol, hist, _, _, ansatz = pde.newton_solve(grid, nl, eps, profile, crown)
        peaks = pde.extract_peaks(grid, sol)
        drift = max(
            float(np.linalg.norm(crown.points - loc, axis=1).min())
            for loc, _, _ in peaks)
        scaled = math.exp(delta_star / (2.0 * eps)) * float(
            np.abs(sol.values - ansatz.values).max())
        rows.append({"eps": eps, "final_residual": float(hist[-1]),
                     "n_peaks": len(peaks),
                     "alternating": _alternating(peaks),
                     "peak_drift": drift, "scaled_ansatz_gap": scaled,
                     "reclassified_nodes": grid.n_reclassified})
        finest = (grid, sol)
    conv = all(r["final_residual"] < 1e-10 for r in rows)
    peaks_ok = all(r["n_peaks"] == 8 and r["alternating"] for r in rows)
    drift_ok = (rows[0]["peak_drift"] > rows[1]["peak_drift"]
                > rows[2]["peak_drift"])
    gap_ok = (rows[0]["scaled_ansatz_gap"] > rows[1]["scaled_ansatz_gap"]
              > rows[2]["scaled_ansatz_gap"])
    meas = {"family": rows, "converged": conv, "peaks_ok": peaks_ok,
            "drift_decreasing": drift_ok, "scaled_gap_decreasing": gap_ok}
    return conv and peaks_ok and drift_ok and gap_ok, meas, finest


def _criterion_contraction(seed):
    specs = ({"kind": "circle", "radius": 1.0},
             {"kind": "ellipse", "a": 2.0, "b": 1.0},
             {"kind": "ellipse", "a": 1.5, "b": 1.0})
    total = 0
    worst = math.inf
    for spec in specs:
        curve = geo.make_curve(spec)
        for dsep in (0.3, 0.6):
            margin = check_strict_convexity(curve, dsep)
            rep = contraction_check(curve, dsep, margin / 2.0, 10_000, seed=seed)
            total += rep.n_violations
            worst = min(worst, rep.worst_slack)
    return total == 0, {"n_violations": total, "worst_slack": worst}


def _criterion_symmetry(finest):
    """Dihedral defect of criterion 8's finest solve, None if it raised."""
    if finest is None:
        raise NumericalError("newton family stage unavailable")
    defect = _dihedral_defect(*finest)
    return defect < 1e-8, {"dihedral_defect": defect}


def _check(say, cid, name, fn, *args):
    """Run criterion fn, which returns (passed, measured, *handed_on);
    returns its verdict entry and the list handed on, empty if fn raised
    a toolkit error, which the entry records as a failure."""
    t0 = time.perf_counter()
    handed = []
    try:
        ok, meas, *handed = fn(*args)
        entry = {"id": cid, "name": name, "pass": bool(ok), "measured": meas}
    except SpikeCrownError as exc:
        entry = {"id": cid, "name": name, "pass": False,
                 "error": f"{type(exc).__name__}: {exc}"}
    status = "PASS" if entry["pass"] else "FAIL"
    say(f"criterion {cid:2d} {name}: {status} "
        f"({time.perf_counter() - t0:.1f} s)")
    return entry, handed


def verification_report(seed=0, echo=None):
    """Run the ten frozen acceptance checks and return the verdict dict.

    Pure compute: nothing is written to disk, wall times go only
    through `echo`, so the returned dict is deterministic for a given
    seed. Checks that raise a toolkit error are recorded as failed with
    the error named; later checks still run.
    """
    say = echo if echo is not None else (lambda line: None)
    nl = Nonlinearity(p=3.0, dim_n=2)
    profile = shoot(nl)
    disk = _unit_disk()
    delta_star, crown = pk.critical_distance(disk, 8)
    crown_args = (profile, disk, delta_star, crown)
    entries = []
    finest = None
    for cid, name, fn, args in (
            (1, "radial-profile-closed-forms", _criterion_profile_closed_forms, ()),
            (2, "circle-crown-closed-form", _criterion_circle_closed_form, ()),
            (3, "ellipse-crown-grid-search", _criterion_ellipse_search, ()),
            (4, "admissible-boundary-gap", _criterion_boundary_gap,
             (disk, delta_star, crown, seed)),
            (5, "boundary-exponent-trend", _criterion_exponent_trend, (profile,)),
            (6, "reduced-energy-scaling", _criterion_energy_scaling, crown_args),
            (7, "minimizer-location", _criterion_minimizer_location, crown_args),
            (8, "newton-from-crown-family", _criterion_newton_family,
             crown_args + (nl,)),
            (9, "inward-shift-contraction", _criterion_contraction, (seed,))):
        entry, handed = _check(say, cid, name, fn, *args)
        entries.append(entry)
        finest = handed[0] if handed else finest  # criterion 8's finest solve
    entries.append(_check(say, 10, "solution-symmetry", _criterion_symmetry, finest)[0])
    return {"criteria": entries,
            "all_pass": all(e["pass"] for e in entries),
            "seed": seed}
