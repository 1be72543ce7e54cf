"""Finite differences for eps^2*Lap(v) - v + f(v) = 0 with zero Dirichlet data.

The domain is covered by a uniform lattice aligned to absolute
coordinates (node (i, j) sits at exactly (i*h, j*h)), so grids at h and
h/2 share nodes and nested-refinement comparisons need no interpolation.
Boundary legs that cross the curve get Shortley-Weller cut stencils,
which keep the operator second order up to the boundary; that accuracy
matters because the boundary correction enters exponents downstream.

The linear projection problem is solved in difference form: instead of
discretizing the source f(w) near the spike core, where truncation error
is worst, we solve for the correction D = w_free - w_proj, which
satisfies eps^2*Lap(D) - D = 0 with D = w_free on the boundary. D is a
smooth boundary layer, the discrete maximum principle makes it strictly
positive, and the spike profile never meets the difference operator.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConfigError,
    LinearSolveError,
    NewtonStallError,
    DivergenceError,
    NumericalError,
    PeakCountError,
    ProjectionAccuracyError,
)

# leg order: +x, -x, +y, -y
_LEG_DIR = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
_LEG_SHIFT = [(1, 0), (-1, 0), (0, 1), (0, -1)]
_OPP = [1, 0, 3, 2]

# newton_solve converges below this sup residual, within _NEWTON_MAX_ITER
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50


class Grid2D:
    """Cut-cell lattice over a convex domain.

    Nodes strictly inside the curve carry unknowns; a node is "interior"
    when all four legs reach another unknown and "boundary adjacent"
    when at least one leg is cut by the curve at fraction theta in
    (0, 1]. Exterior nodes do not exist as far as the algebra is
    concerned.
    """

    def __init__(self, dom, h, i0, j0, shape, index, xy, nbr, theta, n_reclassified):
        self.domain = dom
        self.h = float(h)
        self.i0 = int(i0)
        self.j0 = int(j0)
        self.shape = shape
        self.index = index
        self.xy = xy
        self.nbr = nbr
        self.theta = theta
        self.is_adjacent = (nbr < 0).any(axis=1)
        self.n_nodes = len(xy)
        self.n_reclassified = int(n_reclassified)
        self._op_cache = {}

    def abs_index(self):
        """(n, 2) lattice indices in absolute units (node = index * h)."""
        ij = np.argwhere(self.index >= 0)
        order = self.index[ij[:, 0], ij[:, 1]]
        out = np.empty_like(ij)
        out[order] = ij + (self.i0, self.j0)
        return out

    def operator(self, eps):
        """Cached factorized eps^2*Lap_h - I with Dirichlet cut legs."""
        key = float(eps)
        if key not in self._op_cache:
            self._op_cache[key] = _Operator(self, key)
        return self._op_cache[key]


def discretize(dom, h):
    """Classify lattice nodes against the domain and measure cut legs.

    Cut fractions are found by bisection of the signed distance along
    the leg (53 halvings, so the root is resolved to machine precision
    relative to h). A leg shorter than 1e-8*h would make the stencil
    singular, so its inner node is reclassified exterior and the scan
    repeats; the grid's n_reclassified counts those nodes.
    """
    h = float(h)
    if not h > 0:
        raise ConfigError(f"spacing must be positive, got {h}")
    if h >= dom.inradius / 20.0:
        raise ConfigError(
            f"spacing {h} too coarse: need h < inradius/20 = {dom.inradius / 20.0:.4g}"
        )
    pts = dom.boundary.point(np.linspace(0.0, 1.0, 2048, endpoint=False))
    i_lo = int(np.floor(pts[:, 0].min() / h)) - 2
    i_hi = int(np.ceil(pts[:, 0].max() / h)) + 2
    j_lo = int(np.floor(pts[:, 1].min() / h)) - 2
    j_hi = int(np.ceil(pts[:, 1].max() / h)) + 2
    nx, ny = i_hi - i_lo + 1, j_hi - j_lo + 1
    ii, jj = np.meshgrid(np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1),
                         indexing="ij")
    nodes = np.stack([ii.ravel() * h, jj.ravel() * h], axis=1)
    dist = dom.signed_distance(nodes).reshape(nx, ny)
    inside = dist < 0.0
    n_inside = int(inside.sum())

    for _scan in range(8):
        legs = _cut_legs(inside)
        theta = _measure_cuts(dom, legs, h, i_lo, j_lo)
        bad = theta < 1e-8
        if not bad.any():
            break
        for (bi, bj, _leg) in legs[bad][:, :3]:
            inside[bi, bj] = False
    else:
        raise NumericalError("cut classification did not stabilize")

    index = -np.ones((nx, ny), dtype=np.int64)
    order = np.argwhere(inside)
    index[order[:, 0], order[:, 1]] = np.arange(len(order))
    xy = (order + (i_lo, j_lo)) * h

    n = len(order)
    nbr = -np.ones((n, 4), dtype=np.int64)
    theta_arr = np.ones((n, 4))
    for leg, (di, dj) in enumerate(_LEG_SHIFT):
        nbr[:, leg] = index[order[:, 0] + di, order[:, 1] + dj]
    for row in range(len(legs)):
        li, lj, leg = legs[row]
        theta_arr[index[li, lj], leg] = theta[row]

    return Grid2D(dom, h, i_lo, j_lo, (nx, ny), index, xy, nbr, theta_arr, n_inside - n)


def _cut_legs(inside):
    """(m, 3) array of (i, j, leg) for inside nodes with exterior legs."""
    out = []
    for leg, (di, dj) in enumerate(_LEG_SHIFT):
        shifted = np.roll(inside, (-di, -dj), axis=(0, 1))
        # lattice has a 2-cell exterior margin, so roll wraparound never
        # touches an inside node
        cut = inside & ~shifted
        ij = np.argwhere(cut)
        out.append(np.column_stack([ij, np.full(len(ij), leg)]))
    return np.concatenate(out, axis=0)


def _measure_cuts(dom, legs, h, i_lo, j_lo):
    base = (legs[:, :2] + (i_lo, j_lo)) * h
    dirs = _LEG_DIR[legs[:, 2]]
    lo = np.zeros(len(legs))
    hi = np.ones(len(legs))
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        d = dom.signed_distance(base + mid[:, None] * h * dirs)
        neg = d < 0.0
        lo[neg] = mid[neg]
        hi[~neg] = mid[~neg]
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values on a Grid2D; the value on the curve itself is 0."""

    grid: Grid2D
    eps: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ConfigError(
                f"field has {v.shape} values for {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise NumericalError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    def sup_norm(self):
        return float(np.abs(self.values).max(initial=0.0))


class _Operator:
    """eps^2*Lap_h - I in CSR form plus the Dirichlet coupling data.

    For a cut leg the stencil weight multiplies the (known) boundary
    value instead of an unknown; rows/coefs/points record exactly those
    couplings so inhomogeneous data lands on the right-hand side.
    """

    def __init__(self, grid, eps):
        self.grid = grid
        self.eps = eps
        n = grid.n_nodes
        h2 = grid.h * grid.h
        th = grid.theta
        scale = 2.0 * eps * eps / h2
        diag = -scale * (1.0 / (th[:, 0] * th[:, 1]) + 1.0 / (th[:, 2] * th[:, 3])) - 1.0
        rows = [np.arange(n)]
        cols = [np.arange(n)]
        vals = [diag]
        cut_rows, cut_coefs, cut_pts = [], [], []
        for leg in range(4):
            tl = th[:, leg]
            to = th[:, _OPP[leg]]
            coef = scale / (tl * (tl + to))
            has = grid.nbr[:, leg] >= 0
            rows.append(np.flatnonzero(has))
            cols.append(grid.nbr[has, leg])
            vals.append(coef[has])
            cut = np.flatnonzero(~has)
            cut_rows.append(cut)
            cut_coefs.append(coef[cut])
            cut_pts.append(grid.xy[cut] + tl[cut, None] * grid.h * _LEG_DIR[leg])
        self.A = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()
        self.cut_rows = np.concatenate(cut_rows)
        self.cut_coefs = np.concatenate(cut_coefs)
        self.cut_points = np.concatenate(cut_pts)
        self._lu = None

    @property
    def lu(self):
        if self._lu is None:
            self._lu = spla.splu(self.A.tocsc())
        return self._lu

    def solve(self, b, what="linear solve"):
        return _refine_solve(self.lu, self.A, b, 1e-11, what)


def _refine_solve(lu, A, b, rtol, what):
    """LU solve polished by iterative refinement to backward error rtol.

    The residual is normalized by |A|*|x| + |b| (normwise backward
    error), not by |b| alone: a spike Jacobian carries translation
    modes at the interaction scale, its condition number reaches 1e13,
    and no solver can push the plain relative residual past
    roundoff * condition there.
    """
    norm_a = float(np.max(np.abs(A).sum(axis=1)))
    b_inf = float(np.abs(b).max(initial=0.0))
    x = lu.solve(b)
    for _ in range(6):
        r = b - A @ x
        scale = max(norm_a * float(np.abs(x).max(initial=0.0)) + b_inf, 1e-300)
        rel = float(np.abs(r).max(initial=0.0)) / scale
        if rel <= rtol:
            return x
        x = x + lu.solve(r)
    raise LinearSolveError(f"{what}: backward error {rel:.2e} > {rtol:.0e}")


def _require_resolution(grid, eps):
    if grid.h > eps / 4.0 + 1e-12 * eps:
        raise ConfigError(
            f"spacing {grid.h} too coarse for eps={eps}: need h <= eps/4"
        )


def _free_profile(grid, profile, eps, P):
    r = np.linalg.norm(grid.xy - np.asarray(P, dtype=float), axis=1) / eps
    return profile.value(r)


def boundary_correction(grid, profile, eps, P):
    """Boundary layer D = w_free - w_proj and the exponent psi = -eps*log D(P).

    D solves eps^2*Lap(D) - D = 0 with D = w(|x - P|/eps) on the curve;
    it is strictly positive by the maximum principle and decays like
    exp(-d(x)/eps) from the boundary inward, so psi(P) approaches twice
    the depth of P as eps shrinks.
    """
    _require_resolution(grid, eps)
    P = np.asarray(P, dtype=float)
    depth = -float(grid.domain.signed_distance(P))
    if depth < 2.0 * grid.h:
        raise ConfigError(
            f"spike at depth {depth:.4g} needs at least 2h = {2 * grid.h:.4g}"
        )
    op = grid.operator(eps)
    g = profile.value(np.linalg.norm(op.cut_points - P, axis=1) / eps)
    b = np.zeros(grid.n_nodes)
    np.add.at(b, op.cut_rows, -op.cut_coefs * g)
    d_vals = op.solve(b, what="boundary correction")
    if d_vals.min() <= 0.0:
        raise ProjectionAccuracyError(
            f"boundary layer lost positivity (min {d_vals.min():.3e})"
        )
    d_at_p = _interp_quadratic(grid, d_vals, P)
    if d_at_p <= 0.0:
        raise ProjectionAccuracyError("boundary layer non-positive at the spike point")
    psi = -eps * float(np.log(d_at_p))
    return DiscreteField(grid, eps, d_vals), psi


def solve_projection(grid, profile, eps, P):
    """Profile minus its boundary layer: the Dirichlet-projected spike."""
    d_field, _ = boundary_correction(grid, profile, eps, P)
    w_free = _free_profile(grid, profile, eps, P)
    return DiscreteField(grid, eps, w_free - d_field.values)


def _interp_quadratic(grid, values, x):
    """Biquadratic read-off of a nodal field at an off-node point.

    Uses the 3x3 patch around the nearest node; all nine nodes must
    carry unknowns, which holds whenever x is at depth 2h or more.
    """
    h = grid.h
    ic = int(round(x[0] / h)) - grid.i0
    jc = int(round(x[1] / h)) - grid.j0
    nx, ny = grid.shape
    if not (1 <= ic < nx - 1 and 1 <= jc < ny - 1):
        raise ConfigError(f"point {x} outside the grid patch")
    patch = grid.index[ic - 1:ic + 2, jc - 1:jc + 2]
    if (patch < 0).any():
        raise ConfigError(f"point {x} too close to the boundary to interpolate")
    xi = x[0] / h - (grid.i0 + ic)
    et = x[1] / h - (grid.j0 + jc)
    wx = np.array([0.5 * xi * (xi - 1.0), 1.0 - xi * xi, 0.5 * xi * (xi + 1.0)])
    wy = np.array([0.5 * et * (et - 1.0), 1.0 - et * et, 0.5 * et * (et + 1.0)])
    return float(wx @ values[patch] @ wy)


def assemble_ansatz(grid, profile, eps, config):
    """Sum of signed free profiles centered at the configuration points.

    The sum is exponentially small but nonzero near the curve; values at
    boundary-adjacent nodes are kept as computed, since the ansatz only
    seeds Newton and the solve itself enforces the boundary condition.
    """
    _require_resolution(grid, eps)
    vals = np.zeros(grid.n_nodes)
    for pt, sgn in zip(config.points, config.signs):
        vals += sgn * _free_profile(grid, profile, eps, pt)
    return DiscreteField(grid, eps, vals)


def residual_norm(grid, nl, eps, fld):
    """Sup and (h-weighted) l2 norm of the discrete operator at the field."""
    op = grid.operator(eps)
    res = op.A @ fld.values + nl.f(fld.values)
    sup = float(np.abs(res).max(initial=0.0))
    l2 = float(grid.h * np.sqrt((res * res).sum()))
    return sup, l2


def newton_solve(grid, nl, eps, init):
    """Damped Newton for the discrete spike equation.

    Jacobian = eps^2*Lap_h - I + diag(f'(v)). A spike cluster has
    near-null modes (translations of each spike, rotation of a crown)
    whose eigenvalues sit at the interaction scale e^(-2*delta/eps).
    They make the raw Newton step useless in two opposite ways: when
    the soft eigenvalues are resolvable, tiny residual components
    along them blow up into function-space excursions of norm far
    beyond the quadratic model's validity; when they fall below what a
    backward-stable solve can resolve, the step's soft content is
    rounding noise with enormous norm. Each iteration therefore runs a
    three-stage trial ladder.

    Stage 0 solves the Marquardt-regularized normal equations
    (J'J + mu*diag(J'J)) s = -J'r with a fixed small mu, which bounds
    the soft-subspace gain and leaves stiff components untouched; this
    is the workhorse that polishes the residual whenever the spike
    positions are already right. It accepts only on a clear decrease
    (below 0.9x the worst of the last five iterations), because at a
    plateau the suppressed step keeps buying marginal decreases
    forever without touching the actual obstruction.

    Stage 1 is what runs at such a plateau: a line search along the
    unregularized direction, which is the only direction that can
    reposition spikes toward their finite-eps equilibrium. Its sup
    residual lands orders of magnitude above the plateau (quadratic
    spill of a large move), so acceptance uses the natural
    monotonicity test of affine-covariant Newton instead: accept when
    the remaining displacement J^{-1}r(v_try) drops below
    (1 - alpha/2) of the step, capped at 0.9 so that noise directions,
    whose remaining displacement hugs (1 - alpha), are never accepted
    at any step length.

    Stage 2 escalates mu when both fail, shortening the step toward
    steepest descent; it starts at 8x the stage-0 mu, whose step was
    just rejected. All linear solves carry iterative refinement to
    1e-12 normwise backward error. f' is patched to 0 below
    |v| = 1e-14: for p < 3 the true f' has unbounded slope at 0 and
    the patch removes far-field noise.
    """
    _require_resolution(grid, eps)
    op = grid.operator(eps)
    A = op.A
    v = init.values.copy()

    def res(u):
        return A @ u + nl.f(u)

    r = res(v)
    sup = float(np.abs(r).max(initial=0.0))
    history = [sup]
    sup0 = sup
    mu_floor = 1e-8
    for _ in range(_NEWTON_MAX_ITER):
        if sup < _NEWTON_TOL:
            return DiscreteField(grid, eps, v), np.array(history)
        if not np.isfinite(sup) or sup > 1e6 * (sup0 + 1.0):
            raise DivergenceError(
                f"residual grew to {sup:.3e} from {sup0:.3e}; init outside basin"
            )
        fp = nl.fprime(v)
        fp[np.abs(v) < 1e-14] = 0.0
        J = (A + sp.diags(fp)).tocsr()
        ref = max(history[-5:])
        accepted = False
        jtj = None
        lu_full = None
        step_full = None
        nf = 0.0
        alpha = 1.0
        mu = mu_floor
        stage = 0
        for _trial in range(19):
            if stage == 1:
                # line search along the unregularized direction: solve
                # J itself (the normal equations square the conditioning
                # and scramble the components that carry repositioning)
                if lu_full is None:
                    M = J.tocsc()
                    lu_full = spla.splu(M)
                    step_full = _refine_solve(lu_full, M, -r, 1e-12, "Newton step")
                    nf = float(np.linalg.norm(step_full))
                lu = lu_full
                step = step_full if alpha == 1.0 else alpha * step_full
            else:
                if jtj is None:
                    jtj = (J.T @ J).tocsr()
                    d = jtj.diagonal()
                M = (jtj + sp.diags(mu * d)).tocsc()
                lu = spla.splu(M)
                step = _refine_solve(lu, M, -(J.T @ r), 1e-12, "Newton step")
            v_try = v + step
            r_try = res(v_try)
            sup_try = float(np.abs(r_try).max(initial=0.0))
            if np.isfinite(sup_try) and sup_try < 1e6 * (sup0 + 1.0):
                if stage == 1:
                    # natural monotonicity: accept when the remaining
                    # displacement J^{-1}r drops below (1 - alpha/2) of
                    # the step. The 0.9 cap rejects noise directions,
                    # whose remaining displacement hugs (1 - alpha)
                    # while a genuine valley ride drops well below it.
                    back = lu.solve(r_try)
                    gate = min(1.0 - 0.5 * alpha, 0.9) * nf
                    accepted = bool(np.linalg.norm(back) < gate)
                else:
                    # demand a real decrease: marginal acceptances at a
                    # plateau would otherwise creep forever and starve
                    # the line-search stage
                    accepted = sup_try < 0.9 * ref
            if accepted:
                break
            if stage == 0:
                stage = 1
            elif stage == 1:
                alpha *= 0.5
                if alpha < 2.0 ** -11:
                    stage = 2
                    mu = 8.0 * mu_floor
            else:
                mu *= 8.0
        if not accepted:
            raise NewtonStallError(
                f"damping exhausted at residual {sup:.3e}"
            )
        v, r, sup = v_try, r_try, sup_try
        history.append(sup)
    if sup < _NEWTON_TOL:
        return DiscreteField(grid, eps, v), np.array(history)
    raise NewtonStallError(
        f"no convergence in {_NEWTON_MAX_ITER} iterations (residual {sup:.3e})"
    )


def discrete_energy(grid, nl, eps, fld):
    """J(v) = 1/2 int eps^2|grad v|^2 + v^2 - int F(v), link quadrature.

    Each lattice link contributes its squared difference quotient times
    its cell strip; cut legs use the shortened length with value 0 at
    the curve end, which is the one-sided gradient at boundary-adjacent
    nodes. Zeroth-order terms use midpoint cells h^2 per node.
    """
    v = fld.values
    h = grid.h
    grad2 = 0.0
    for leg in (0, 2):  # +x and +y cover every full link once
        has = grid.nbr[:, leg] >= 0
        dv = v[grid.nbr[has, leg]] - v[has]
        grad2 += (dv * dv).sum()
    for leg in range(4):  # every cut leg belongs to exactly one node
        cut = grid.nbr[:, leg] < 0
        th = grid.theta[cut, leg]
        grad2 += (v[cut] * v[cut] / th).sum()
    h2 = h * h
    quad = 0.5 * (eps * eps * grad2 + h2 * (v * v).sum())
    return float(quad - h2 * nl.F(v).sum())


def extract_peaks(grid, fld, expected=None):
    """Strict 8-neighbor extrema above half the max amplitude.

    Each peak location is polished by a least-squares quadratic on its
    3x3 patch (shift clipped to one cell). Returns (location, sign,
    amplitude) triples in cyclic order around the peak centroid; a
    mismatch against `expected` raises PeakCountError.
    """
    nx, ny = grid.shape
    V = np.zeros((nx, ny))
    ij = np.argwhere(grid.index >= 0)
    V[ij[:, 0], ij[:, 1]] = fld.values[grid.index[ij[:, 0], ij[:, 1]]]
    amp = np.abs(V).max(initial=0.0)
    peaks = []
    if amp > 0.0:
        core = V[1:-1, 1:-1]
        hi = np.ones_like(core, dtype=bool)
        lo = np.ones_like(core, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                nb = V[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj]
                hi &= core > nb
                lo &= core < nb
        cand = np.argwhere((hi | lo) & (np.abs(core) > 0.5 * amp)) + 1
        for (ci, cj) in cand:
            patch = V[ci - 1:ci + 2, cj - 1:cj + 2]
            du, dv = _quadratic_vertex(patch)
            loc = np.array([(grid.i0 + ci + du) * grid.h,
                            (grid.j0 + cj + dv) * grid.h])
            peaks.append((loc, int(np.sign(V[ci, cj])), float(abs(V[ci, cj]))))
    if len(peaks) > 1:
        ctr = np.mean([p[0] for p in peaks], axis=0)
        ang = [np.arctan2(p[0][1] - ctr[1], p[0][0] - ctr[0]) for p in peaks]
        peaks = [peaks[i] for i in np.argsort(ang)]
    if expected is not None and len(peaks) != expected:
        raise PeakCountError(f"found {len(peaks)} peaks, expected {expected}")
    return peaks


def _quadratic_vertex(patch):
    # LSQ fit of a + b*u + c*v + d*u^2 + e*u*v + f*v^2 over the 3x3 patch
    u, w = np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij")
    M = np.stack([np.ones(9), u.ravel(), w.ravel(), u.ravel() ** 2,
                  (u * w).ravel(), w.ravel() ** 2], axis=1)
    a, b, c, d, e, f = np.linalg.lstsq(M, patch.ravel(), rcond=None)[0]
    H = np.array([[2.0 * d, e], [e, 2.0 * f]])
    det = np.linalg.det(H)
    if abs(det) < 1e-12:
        return 0.0, 0.0
    du, dv = np.linalg.solve(H, [-b, -c])
    return float(np.clip(du, -1.0, 1.0)), float(np.clip(dv, -1.0, 1.0))
