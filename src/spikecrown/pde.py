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
# newton_solve keeps J's LU for the next step after an undamped step
# whose contraction theta is below this
_NEWTON_REUSE_THETA = 0.05

# every sparse LU in this module (see _splu); _Operator.factorize
# swaps in the natural ordering once the pattern's order is known
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 2, "panel_size": 4}


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

    h must lie below the centroid's depth/20 (PlanarDomain.centroid_depth:
    the inradius on a centrally symmetric domain, at least 2/3 of it on
    any other). The lattice spans the boundary table's box. A node is
    inside when its signed distance is negative; _inside computes that
    distance only near the curve. Cut fractions are found by bisection
    of the signed distance along the leg (53 halvings, so the root is
    resolved to machine precision relative to h), each query handing
    its feet to the next (PlanarDomain.nearest's guess). A leg
    shorter than 1e-8*h would make the stencil singular, so its inner
    node is reclassified exterior and the scan repeats; the grid's
    n_reclassified counts those nodes.
    """
    h = float(h)
    if not h > 0:
        raise ConfigError(f"spacing must be positive, got {h}")
    if h >= dom.centroid_depth / 20.0:
        raise ConfigError(
            f"spacing {h} too coarse: need h < centroid depth/20 = {dom.centroid_depth / 20.0:.4g}"
        )
    pts = dom.boundary.points
    i_lo = int(np.floor(pts[:, 0].min() / h)) - 2
    i_hi = int(np.ceil(pts[:, 0].max() / h)) + 2
    j_lo = int(np.floor(pts[:, 1].min() / h)) - 2
    j_hi = int(np.ceil(pts[:, 1].max() / h)) + 2
    nx, ny = i_hi - i_lo + 1, j_hi - j_lo + 1
    ii, jj = np.meshgrid(np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1),
                         indexing="ij")
    nodes = np.stack([ii.ravel() * h, jj.ravel() * h], axis=1)
    inside = _inside(dom, nodes, h).reshape(nx, ny)
    n_inside = int(inside.sum())

    for _scan in range(8):
        legs = _cut_legs(inside)
        theta = _measure_cuts(dom, legs, h, i_lo, j_lo)
        bad = theta < 1e-8
        if not bad.any():
            break
        inside[legs[bad, 0], legs[bad, 1]] = False
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
    theta_arr[index[legs[:, 0], legs[:, 1]], legs[:, 2]] = theta

    return Grid2D(dom, h, i_lo, j_lo, (nx, ny), index, xy, nbr, theta_arr, n_inside - n)


def _inside(dom, nodes, h):
    """dom.signed_distance(nodes) < 0, with exact distances only near the curve.

    A node closer to the centroid than its depth less r lies in the
    inscribed disk about the centroid, more than r from the curve: it is
    inside with no query. Of the rest, only nodes within r of a table
    node get the exact nearest-point query. Every other node lies more
    than r - c from the curve, where c is the largest table chord (each
    arc between table nodes stays within c of an end), so with r > c its
    side is that of the inscribed table polygon. The polygon is convex
    and star-shaped about the centroid: the table edge whose angular
    sector holds the node decides. r is 4h, raised to twice the largest
    chord if that is more, so the answer is exact whatever h.
    """
    bd = dom.boundary
    pts = bd.points
    edges = np.roll(pts, -1, axis=0) - pts
    r = max(4.0 * h, 2.0 * float(np.hypot(edges[:, 0], edges[:, 1]).max()))
    c = dom.centroid
    inside = np.hypot(nodes[:, 0] - c[0], nodes[:, 1] - c[1]) < dom.centroid_depth - r
    rest = np.flatnonzero(~inside)
    is_near = np.isfinite(bd.kdtree.query(nodes[rest], distance_upper_bound=r)[0])
    near, far = rest[is_near], rest[~is_near]
    inside[near] = dom.signed_distance(nodes[near]) < 0.0
    start = np.arctan2(pts[0, 1] - c[1], pts[0, 0] - c[0])

    def angle(X):  # about the centroid, in [start, start + 2 pi)
        return start + np.mod(np.arctan2(X[:, 1] - c[1], X[:, 0] - c[0]) - start,
                              2.0 * np.pi)

    j = np.searchsorted(angle(pts), angle(nodes[far]), side="right") - 1
    rel = nodes[far] - pts[j]
    inside[far] = edges[j, 0] * rel[:, 1] - edges[j, 1] * rel[:, 0] > 0.0
    return inside


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
    foot = None
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        foot, d = dom.nearest(base + mid[:, None] * h * dirs, foot)
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


class _Operator:
    """eps^2*Lap_h - I in CSR form plus the Dirichlet coupling data.

    For a cut leg the stencil weight multiplies the (known) boundary
    value instead of an unknown; rows/coefs/points record exactly those
    couplings so inhomogeneous data lands on the right-hand side.

    It is also the one place that factorizes matrices with A's pattern:
    A itself (lu) and the Jacobians A + diag(f') (jacobian, factorize).
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
        self.norm_a = float(np.max(np.abs(self.A).sum(axis=1)))
        # A in CSC, rows sorted in each column, and where its diagonal sits
        self._csc = self.A.tocsc()
        indptr = self._csc.indptr
        self._diag = np.flatnonzero(
            self._csc.indices == np.repeat(np.arange(n), np.diff(indptr)))
        self._order = None  # set by the first factorize
        self._lu = None

    @property
    def lu(self):
        if self._lu is None:
            self._lu = self.factorize(self._csc)
        return self._lu

    def jacobian(self, fp):
        """A + diag(fp) in CSC, with the values and pattern of
        (A + sp.diags(fp)).tocsc(): fp is added to A's diagonal in place."""
        data = self._csc.data.copy()
        data[self._diag] += fp
        return sp.csc_matrix((data, self._csc.indices, self._csc.indptr),
                             shape=self.A.shape)

    def factorize(self, M):
        """LU of M, a CSC matrix with A's pattern, that solves as _splu(M)'s.

        SuperLU factors Pr M Pc, and M Pc = M[:, q] with
        q = argsort(perm_c). The ordering depends on the pattern alone,
        so only the first LU runs _splu's minimum degree, and it records
        q. Every later one factors M[:, q], a gather of M's data, with
        the natural ordering. That gives _splu's factors bit for bit
        (permuting the rows by q as well does not), and its solve puts
        x[q] = y back.
        """
        if self._order is None:
            lu = _splu(M)
            q = np.argsort(lu.perm_c)
            indptr = self._csc.indptr
            lens = np.diff(indptr)[q]
            indptr_q = np.concatenate([[0], np.cumsum(lens)])
            gather = np.repeat(indptr[q] - indptr_q[:-1], lens) + np.arange(len(M.data))
            self._order = q, gather, self._csc.indices[gather], indptr_q
            return lu
        q, gather, indices_q, indptr_q = self._order
        Mq = sp.csc_matrix((M.data[gather], indices_q, indptr_q), shape=M.shape)
        return _ColumnPermutedLU(
            spla.splu(Mq, **{**_SPLU_OPTIONS, "permc_spec": "NATURAL"}), q)

    def solve(self, b):
        return _refine_solve(self.lu.solve, self.A.dot, self.norm_a, b, 1e-11,
                             "boundary correction")


class _ColumnPermutedLU:
    """An LU of M[:, q] that solves M x = b."""

    def __init__(self, lu, q):
        self._lu = lu
        self._q = q

    def solve(self, b):
        y = self._lu.solve(b)
        x = np.empty_like(y)  # keeps SuperLU's layout: Fortran order for a matrix b
        x[self._q] = y
        return x


def _splu(M):
    """Sparse LU of a matrix with the lattice's symmetric structure.

    Minimum degree on the pattern of M' + M leaves a third to a half
    less fill than COLAMD's column ordering on these stencils (George
    and Liu 1981; Li, ACM TOMS 2005). The options are _SPLU_OPTIONS.
    SuperLU's relaxed supernodes merge small subtrees of the elimination
    tree into dense blocks, explicit zeros included (Demmel, Eisenstat,
    Gilbert, Li and Liu, SIAM J. Matrix Anal. Appl. 20, 1999). At scipy's
    default relax and panel_size the LU of a disk Jacobian with 10k to
    42k nodes stores 28-53% more entries than at relax=2, panel_size=4,
    and takes 1.6-2.5 times as long. Keep relax <= panel_size: a sweep
    at relax=32, panel_size=4 crashed the process once, and 60 repeats
    did not bring it back.
    """
    return spla.splu(M, **_SPLU_OPTIONS)


def _refine_solve(solve, apply, norm_a, b, rtol, what):
    """solve(b) polished by iterative refinement to backward error rtol.

    apply is the product with the matrix A that solve inverts, and
    norm_a its infinity norm. The residual is normalized by
    |A|*|x| + |b| (normwise backward error), not by |b| alone: a spike
    Jacobian carries translation modes at the interaction scale, its
    condition number reaches 1e13, and no solver can push the plain
    relative residual past roundoff * condition there.
    """
    b_inf = float(np.abs(b).max(initial=0.0))
    x = solve(b)
    for _ in range(6):
        r = b - apply(x)
        scale = max(norm_a * float(np.abs(x).max(initial=0.0)) + b_inf, 1e-300)
        rel = float(np.abs(r).max(initial=0.0)) / scale
        if rel <= rtol:
            return x
        x = x + solve(r)
    raise LinearSolveError(f"{what}: backward error {rel:.2e} > {rtol:.0e}")


def _require_resolution(grid, eps):
    if grid.h > eps / 4.0 + 1e-12 * eps:
        raise ConfigError(
            f"spacing {grid.h} too coarse for eps={eps}: need h <= eps/4"
        )


def boundary_correction(grid, profile, eps, P, depth=None):
    """Boundary layer D = w_free - w_proj and the exponent psi = -eps*log D(P).

    D solves eps^2*Lap(D) - D = 0 with D = w(|x - P|/eps) on the curve;
    it is strictly positive by the maximum principle and decays like
    exp(-d(x)/eps) from the boundary inward, so psi(P) approaches twice
    the depth of P as eps shrinks. depth, P's depth in the domain if
    the caller holds it, feeds only the 2h guard; without it the domain
    is queried.
    """
    _require_resolution(grid, eps)
    P = np.asarray(P, dtype=float)
    if depth is None:
        depth = -float(grid.domain.signed_distance(P))
    if depth < 2.0 * grid.h:
        raise ConfigError(
            f"spike at depth {depth:.4g} needs at least 2h = {2 * grid.h:.4g}"
        )
    op = grid.operator(eps)
    g = profile.value(np.linalg.norm(op.cut_points - P, axis=1) / eps)
    b = np.zeros(grid.n_nodes)
    np.add.at(b, op.cut_rows, -op.cut_coefs * g)
    d_vals = op.solve(b)
    if d_vals.min() <= 0.0:
        raise ProjectionAccuracyError(
            f"boundary layer lost positivity (min {d_vals.min():.3e})"
        )
    d_at_p = _interp_quadratic(grid, d_vals, P)
    if d_at_p <= 0.0:
        raise ProjectionAccuracyError("boundary layer non-positive at the spike point")
    psi = -eps * float(np.log(d_at_p))
    return DiscreteField(grid, eps, d_vals), psi


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
    P = np.asarray(config.points, dtype=float).reshape(-1, 2)
    return DiscreteField(grid, eps, _ansatz_and_modes(grid, profile, eps, P, config.signs)[0])


class _BorderedLU:
    """[[J, Z], [Z', 0]] solved from an LU of J (Keller's bordering).

    J = A + diag(fp), with A the operator op's, is built and factorized
    by op (_Operator.jacobian and factorize). W = J^{-1}Z and the Schur
    complement S = Z'W are formed once, so a solve costs one back-solve
    with J and a 2k x 2k solve. The bordered matrix itself is never assembled:
    dot applies it as [J x + Z y; Z' x], and norm_a is its infinity
    norm, the larger of the row sums |J| + |Z| and the column sums of
    |Z|.
    """

    def __init__(self, op, fp, Z):
        J = op.jacobian(fp)
        self.lu = op.factorize(J)
        self.J = J
        self.Z = Z
        self.W = self.lu.solve(Z)
        self.S = Z.T @ self.W
        absZ = np.abs(Z)
        rows = np.asarray(np.abs(J).sum(axis=1)).ravel() + absZ.sum(axis=1)
        cols = absZ.sum(axis=0)
        self.norm_a = float(max(rows.max(initial=0.0), cols.max(initial=0.0)))

    def dot(self, v):
        n = self.Z.shape[0]
        x, y = v[:n], v[n:]
        return np.concatenate([self.J @ x + self.Z @ y, self.Z.T @ x])

    def solve(self, b):
        n = self.Z.shape[0]
        x = self.lu.solve(b[:n])
        y = _dense_solve(self.S, self.Z.T @ x - b[n:], "Schur complement Z'J^{-1}Z")
        return np.concatenate([x - self.W @ y, y])


def _dense_solve(M, b, what):
    """np.linalg.solve(M, b), a singular M raised as LinearSolveError."""
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"{what}: {exc}") from exc


def _sup(x):
    return float(np.abs(x).max(initial=0.0))


def _ansatz_and_modes(grid, profile, eps, P, signs):
    """The ansatz U at spike positions P and its translation modes Z.

    U = sum_i s_i w(|x - P_i|/eps) is what assemble_ansatz returns; column
    2i + a of Z is s_i w'(r/eps)/eps * (P_i - x)_a / r, with r = |x - P_i|.
    One profile pass per spike gives both.
    """
    U, Z = np.zeros(grid.n_nodes), np.zeros((grid.n_nodes, 2 * len(P)))
    for i, (pt, sgn) in enumerate(zip(P, signs)):
        d = pt - grid.xy
        r = np.linalg.norm(d, axis=1)
        w, dw = profile.value_and_derivative(r / eps)
        U += sgn * w
        slope = sgn * dw / (eps * np.where(r > 0.0, r, 1.0))
        Z[:, 2 * i:2 * i + 2] = slope[:, None] * d
    return U, Z


def newton_solve(grid, nl, eps, profile, config):
    """Damped Newton for the crown at config, in Lyapunov-Schmidt form.

    The Jacobian J = eps^2*Lap_h - I + diag(f'(v)) of a k-spike field
    has 2k soft modes, the spike translations, with eigenvalues at the
    interaction scale e^(-2*delta/eps). So the spike positions P are
    outer unknowns, and for fixed P the solve is bordered:

        A u + f(u) + Z lam = 0,    Z'(u - U_P) = 0,

    where U_P is the ansatz at P and Z = dU_P/dP its translation modes.
    Each step solves the bordered system from an LU of J (minimum
    degree on J' + J, found once per operator, see
    _Operator.factorize), refined to 1e-12 normwise backward
    error against the bordered matrix, which _BorderedLU applies but
    never assembles. The step is halved until the correction that the
    same LU computes at the trial point falls below (1 - alpha/2) of
    the step (natural monotonicity, Deuflhard 2004); the ratio of the
    two is the contraction theta. An undamped step with theta below
    _NEWTON_REUSE_THETA keeps its LU for the next step, which is then a
    simplified Newton step; such a step that fails the monotonicity
    test is undone and made again from a fresh LU of J, never damped.
    The previous LU is freed before the next one is made.

    When the bordered residual stops falling (below 1e-2 times the
    tolerance, or above half its value before the step) while the
    plain residual A u + f(u) = -Z lam has not converged, the spikes
    move by the Newton step on lam(P) = 0: P += (Z'Z)^{-1} S lam with
    S = Z'J^{-1}Z, u += J^{-1}Z lam, lam = 0. S and J^{-1}Z come from
    the LU that iteration made for its step or, after a step from a
    kept LU, from a fresh LU of J at the current iterate: a stale J
    makes the moves overshoot. No LU is kept across a move, so a kept
    LU always borders J with the current Z. With no spikes this is
    plain damped Newton. f' is patched to 0 below |v| = 1e-14: for
    p < 3 the true f' has unbounded slope at 0 and the patch removes
    far-field noise.

    Returns (field, history, trail, positions, ansatz): the sup of the
    plain residual at the start and after each iteration; per iteration
    the step length, |lam| (the value moved on, if the spikes moved),
    whether they moved and whether the iteration factorized J; the
    final spike positions P, one row per spike; and the starting ansatz
    at config, assemble_ansatz's field.
    """
    _require_resolution(grid, eps)
    op = grid.operator(eps)
    A = op.A
    n = grid.n_nodes
    P = np.array(config.points, dtype=float).reshape(-1, 2)
    signs = np.asarray(config.signs, dtype=float)

    def bordered_lu(u, Z):
        fp = nl.fprime(u)
        fp[np.abs(u) < 1e-14] = 0.0
        return _BorderedLU(op, fp, Z)

    U, Z = _ansatz_and_modes(grid, profile, eps, P, signs)
    ansatz = DiscreteField(grid, eps, U)
    u = U.copy()
    lam = np.zeros(Z.shape[1])
    r = A @ u + nl.f(u)
    sup0 = sup = _sup(r)
    history, trail, last_move, K = [sup], [], 0.0, None
    while sup >= _NEWTON_TOL:
        if len(trail) == _NEWTON_MAX_ITER:
            raise NewtonStallError(
                f"no convergence in {_NEWTON_MAX_ITER} iterations (residual {sup:.3e}; "
                f"{sum(t[3] for t in trail)} LU factorizations, "
                f"{sum(t[2] for t in trail)} position updates, last move {last_move:.3g})")
        if not np.isfinite(sup) or sup > 1e6 * (sup0 + 1.0):
            raise DivergenceError(
                f"residual grew to {sup:.3e} from {sup0:.3e}; init outside basin"
            )
        x = np.concatenate([u, lam])
        rb = np.concatenate([r + Z @ lam, Z.T @ (u - U)])
        fresh = K is None
        if fresh:
            K = bordered_lu(u, Z)
        step = -_refine_solve(K.solve, K.dot, K.norm_a, rb, 1e-12, "Newton step")
        size = float(np.linalg.norm(step))
        alpha = 1.0
        while True:
            u, lam = np.split(x + alpha * step, [n])
            r = A @ u + nl.f(u)
            rb_try = np.concatenate([r + Z @ lam, Z.T @ (u - U)])
            correction = float(np.linalg.norm(K.solve(rb_try)))
            if correction < (1.0 - 0.5 * alpha) * size:
                break
            if not fresh:
                K = None  # free the kept LU before the next one is made
                K, fresh = bordered_lu(x[:n], Z), True
                step = -_refine_solve(K.solve, K.dot, K.norm_a, rb, 1e-12, "Newton step")
                size = float(np.linalg.norm(step))
                continue
            alpha *= 0.5
            if alpha < 2.0 ** -11:
                raise NewtonStallError(f"damping exhausted at residual {sup:.3e}")
        sup, sup_b = _sup(r), _sup(rb_try)
        moved = bool(lam.size) and sup >= _NEWTON_TOL and (
            sup_b < 1e-2 * _NEWTON_TOL or sup_b > 0.5 * _sup(rb))
        if moved and not fresh:
            K = None  # a move reads S and W from an LU of the current iterate
            K, fresh = bordered_lu(u, Z), True
        trail.append((alpha, float(np.linalg.norm(lam)), moved, fresh))
        if moved:
            move = _dense_solve(Z.T @ Z, K.S @ lam, "position move Z'Z").reshape(-1, 2)
            P, last_move = P + move, float(np.linalg.norm(move, axis=1).max())
            u = u + K.W @ lam
            lam = np.zeros_like(lam)
            U, Z = _ansatz_and_modes(grid, profile, eps, P, signs)
            r = A @ u + nl.f(u)
            sup = _sup(r)
        if moved or alpha < 1.0 or correction >= _NEWTON_REUSE_THETA * size:
            K = None  # freed now; the next step factorizes J afresh
        history.append(sup)
    return DiscreteField(grid, eps, u), np.array(history), trail, P, ansatz


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
    amplitude) triples in cyclic order around the peak centroid, by
    angle from -pi (angles within 1e-9 of +pi count as -pi); a mismatch
    against `expected` raises PeakCountError.
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
        ang = np.array([np.arctan2(p[0][1] - ctr[1], p[0][0] - ctr[0]) for p in peaks])
        # a peak on the ray behind the centroid must not jump between
        # first and last place on the sign of rounding noise in its y
        ang[ang > np.pi - 1e-9] = -np.pi
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
