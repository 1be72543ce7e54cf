"""Radial ground-state profile of lap(w) - w + f(w) = 0 on R^N.

w(0) is found by Brent's method on the signed miss of each shot: a shot
from too low a w(0) turns back up at some radius r_ev, one from too high
a w(0) crosses zero there, and either leaves the ground state like
(w(0) - w*) e^r against its e^-r decay, so +-exp(-2 r_ev) is nearly
linear in w(0) through the root. The profile is tabulated on a fine
grid with exact nodal derivatives and continued by its far-field
formula beyond r_tail. The far part of the table comes from a backward
integration started on the asymptotic series at large radius, which
keeps the growing mode out of the data the decay-constant fit sees.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.special import i0e, k0e, k1e, kve

from .errors import (
    ConfigError,
    DecayFitError,
    IntegrationError,
    IterationError,
    NoGroundStateError,
)
from .nonlinearity import Nonlinearity

_R_MATCH = 10.0
_R_BACK = 24.0
_R_SERIES = 1e-3  # largest start radius of a shot (see _series_start)
_R_MAX = 20.0  # shots run to here; the table ends here too
_SHOOT_XTOL = 1e-13  # brentq's absolute and relative tolerances on w(0)
_SHOOT_RTOL = 1e-15
_SHOOT_MAXITER = 100  # brentq iterations before shoot gives up
_H_R = 0.005  # spacing of the profile table
_MATCH_RTOL = 1e-13  # rtol of the forward and backward shots the table is read from


def _rhs(r, y, nl):
    # f(w) = |w|^(p-2) w written out: Nonlinearity.f would validate its
    # argument on every call, and _integrate checks the whole shot once
    w, wp = y
    return (wp, w - np.abs(w) ** (nl.p - 2.0) * w - (nl.dim_n - 1) / r * wp)


def _integrate(nl, span, y0, rtol, atol, **options):
    """One DOP853 shot of the profile ODE over span from y0. A shot that
    stops short (solve_ivp status -1) or holds a non-finite state raises
    IntegrationError; overflow on the way is reported that way, not
    warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(_rhs, span, y0, args=(nl,), method="DOP853", rtol=rtol,
                        atol=atol, **options)
    if sol.status < 0:
        raise IntegrationError(f"shot over {span} failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise IntegrationError(f"shot over {span} left the finite range")
    return sol


def _series_start(nl, w0):
    """Start radius r_s of a shot from w0 and its state [w, w'] there, on
    the series w0 + a r^2 + b r^4 about the removable singularity at 0:
    a = (w0 - f(w0)) / (2N), b = (1 - f'(w0)) a / (4 (N + 2)). r_s is
    _R_SERIES, or less where the first neglected term c r^6 would exceed
    1e-17 w0, c = ((1 - f'(w0)) b - f''(w0) a^2 / 2) / (6 (N + 4)) and
    f'' = (p - 2) f' / w0. Terms beyond the float range raise
    IntegrationError."""
    n, p = nl.dim_n, nl.p
    with np.errstate(over="ignore", invalid="ignore"):
        a = (w0 - nl.f(w0)) / (2.0 * n)
        fp = nl.fprime(w0)
        b = (1.0 - fp) * a / (4.0 * (n + 2))
        c = ((1.0 - fp) * b - 0.5 * (p - 2.0) * fp / w0 * a * a) / (6.0 * (n + 4))
        r_s = _R_SERIES
        if abs(c) * r_s**6 > 1e-17 * w0:
            r_s = (1e-17 * w0 / abs(c)) ** (1.0 / 6.0)
        r2 = r_s * r_s
        y0 = [w0 + (a + b * r2) * r2, (2.0 * a + 4.0 * b * r2) * r_s]
    if not (r_s > 0.0 and np.all(np.isfinite(y0))):
        raise IntegrationError(f"series start of the shot from w(0) = {w0:.6g} "
                               "leaves the finite range")
    return r_s, y0


def _classify(nl, w0, rtol):
    def hit_zero(r, y, nl):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    def turn_up(r, y, nl):
        return y[1]

    turn_up.terminal = True
    turn_up.direction = 1

    r_s, y0 = _series_start(nl, w0)
    sol = _integrate(nl, (r_s, _R_MAX), y0, rtol, 1e-18, events=[hit_zero, turn_up])
    if sol.t_events[0].size:
        return "cross", sol.t_events[0][0]
    if sol.t_events[1].size and sol.y_events[1][0][0] > 1e-12:
        return "turn", sol.t_events[1][0]
    return "decay", _R_MAX


def _miss(nl, w0):
    """Signed miss of the strict shot from w0: +exp(-2 r_ev) for a shot
    that turns up at r_ev, -exp(-2 r_ev) for one that crosses zero there,
    0 for one that decays through r = 20."""
    kind, r_ev = _classify(nl, w0, rtol=1e-12)
    if kind == "decay":
        return 0.0
    miss = np.exp(-2.0 * r_ev)
    return miss if kind == "turn" else -miss


def _kve(order, r):
    """kve(order, r) = K_order(r) e^r, on the fast kernels where there is
    one: k0e/k1e for orders 0 and 1, the closed forms for +-1/2 and 3/2."""
    if order == 0.0:
        return k0e(r)
    if order == 1.0:
        return k1e(r)
    if abs(order) == 0.5:
        return np.sqrt(np.pi / (2.0 * r))
    if order == 1.5:
        return np.sqrt(np.pi / (2.0 * r)) * (1.0 + 1.0 / r)
    return kve(order, r)


def _tail_pieces(p, dim_n, A, r):
    """Far-field formula: exact linear part plus leading nonlinear term.
    Returns (nu, C, q, damp, lin, corr), the value being lin + corr."""
    nu, C, B, q = _tail_coeffs(p, dim_n, A)
    damp = np.exp(-r)
    lin = C * r ** (-nu) * _kve(nu, r) * damp
    corr = B * np.exp(-(p - 1.0) * r) * r ** (-q)
    return nu, C, q, damp, lin, corr


def _tail_value(p, dim_n, A, r):
    """The far field's value alone: one kve pass instead of two."""
    *_, lin, corr = _tail_pieces(p, dim_n, A, r)
    return lin + corr


def _tail_value_deriv(p, dim_n, A, r):
    nu, C, q, damp, lin, corr = _tail_pieces(p, dim_n, A, r)
    dlin = -C * r ** (-nu) * _kve(nu + 1.0, r) * damp
    dcorr = corr * (-(p - 1.0) - q / r)
    return lin + corr, dlin + dcorr


def _forward_solve(nl, w0):
    r_s, y0 = _series_start(nl, w0)
    return _integrate(nl, (r_s, _R_MATCH), y0, _MATCH_RTOL, 1e-18, dense_output=True)


def _backward_solve(nl, A):
    """Shot from the far field of decay constant A at r = 24 back to 10,
    and its value there. That value rescales A, so one that is not
    positive raises DecayFitError (A^(p-1) would be a NaN)."""
    w, dw = _tail_value_deriv(nl.p, nl.dim_n, A, _R_BACK)
    sol = _integrate(nl, (_R_BACK, _R_MATCH), [w, dw], _MATCH_RTOL, 1e-30,
                     dense_output=True)
    w_match = sol.y[0, -1]
    if not (np.isfinite(w_match) and w_match > 0.0):
        raise DecayFitError(f"backward shot from A = {A:.6g} reaches "
                            f"w({_R_MATCH:g}) = {w_match:.6g}")
    return sol, w_match


def _tail_coeffs(p, dim_n, A):
    nu = (dim_n - 2) / 2.0
    C = A * np.sqrt(2.0 / np.pi)
    B = -(A ** (p - 1.0)) / ((p - 1.0) ** 2 - 1.0)
    q = (p - 1.0) * (dim_n - 1) / 2.0
    return nu, C, B, q


@dataclass(frozen=True)
class RadialProfile:
    """Tabulated decaying radial profile with its far-field formula.

    The table covers [0, 20] at the spacing of r_grid (shoot uses _H_R)
    with exact nodal derivatives; value/derivative use cubic Hermite
    interpolation up to r_tail and the far-field formula beyond. decay_A
    is the constant of the w ~ A r^{-(N-1)/2} e^{-r} law.
    """

    p: float
    dim_n: int
    r_grid: np.ndarray
    w_values: np.ndarray
    w_prime_values: np.ndarray
    w0: float
    decay_A: float
    r_tail: float

    def __post_init__(self):
        spline = CubicHermiteSpline(self.r_grid, self.w_values, self.w_prime_values)
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_dspline", spline.derivative())
        object.__setattr__(self, "_d2spline", spline.derivative(2))

    def _tail_parts(self, r):
        return _tail_value_deriv(self.p, self.dim_n, self.decay_A, r)

    def _split(self, r, near, far, parts=()):
        """near(r) up to r_tail, far(r) beyond; a scalar r gives a scalar.

        With parts=(m,), near and far return m arrays each, and so does
        this, stacked on a leading axis.
        """
        r = _check_radius(r)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty(parts + r.shape)
        low = r <= self.r_tail
        if low.any():
            out[..., low] = near(r[low])
        if (~low).any():
            out[..., ~low] = far(r[~low])
        return out[..., 0][()] if scalar else out

    def value(self, r):
        return self._split(r, self._spline,
                           lambda rt: _tail_value(self.p, self.dim_n, self.decay_A, rt))

    def derivative(self, r):
        return self._split(r, self._dspline, lambda rt: self._tail_parts(rt)[1])

    def value_and_derivative(self, r):
        """(value(r), derivative(r)) from one pass over r and one far-field call."""
        w, dw = self._split(r, lambda x: (self._spline(x), self._dspline(x)),
                            self._tail_parts, parts=(2,))
        return w, dw

    def log_value(self, r):
        """log w(r), finite far beyond double-precision underflow."""
        return self._split(r, lambda x: np.log(self._spline(x)), self._log_tail)

    def log_derivative(self, r):
        """w'(r)/w(r), finite far beyond double-precision underflow."""
        return self._split(r, lambda x: self._dspline(x) / self._spline(x),
                           self._log_derivative_tail)

    def log_second_derivative(self, r):
        """w''(r)/w(r). Up to r_tail it is the table's own curvature, the
        exact slope of log_derivative there (the profile equation differs
        from it by about 2e-6 relative, the cubic's interpolation error);
        beyond, the profile equation w'' = w - w^(p-1) - (N-1)/r w' in log
        form."""
        return self._split(r, lambda x: self._d2spline(x) / self._spline(x),
                           self._log_second_derivative_tail)

    def _tail_terms(self, rt):
        """The far field as lin * (1 + ratio), lin = C rt^-nu kve(nu, rt) e^-rt
        and ratio = corr/lin (see _tail_value_deriv): nu, C, q, kve, ratio."""
        nu, C, B, q = _tail_coeffs(self.p, self.dim_n, self.decay_A)
        kv_scaled = _kve(nu, rt)
        ratio = (B / C) * np.exp(-(self.p - 2.0) * rt) * rt ** (nu - q) / kv_scaled
        return nu, C, q, kv_scaled, ratio

    def _log_tail(self, rt):
        return self._log_tail_of(rt, self._tail_terms(rt))

    def _log_derivative_tail(self, rt):
        return self._log_derivative_tail_of(rt, self._tail_terms(rt))

    def _log_tail_of(self, rt, terms):
        nu, C, _, kv_scaled, ratio = terms
        return np.log(C) - nu * np.log(rt) + np.log(kv_scaled) - rt + np.log1p(ratio)

    def _log_derivative_tail_of(self, rt, terms):
        # (lin' + corr') / (lin + corr), divided through by lin
        nu, _, q, kv_scaled, ratio = terms
        return (-_kve(nu + 1.0, rt) / kv_scaled - ratio * (self.p - 1.0 + q / rt)) / (1.0 + ratio)

    def _log_second_derivative_tail(self, rt):
        terms = self._tail_terms(rt)
        return (1.0 - np.exp((self.p - 2.0) * self._log_tail_of(rt, terms))
                - (self.dim_n - 1) / rt * self._log_derivative_tail_of(rt, terms))


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ConfigError("radius must be nonnegative")
    return r


def shoot(nl: Nonlinearity):
    """Compute the decaying radial profile by shooting on w(0).

    Brackets w(0) between a shot that turns back up and one that crosses
    zero, then finds the threshold by Brent's method on the signed miss
    +-exp(-2 r_ev) of each shot (see _miss), to 1e-13 in w(0). A shot
    that decays monotonically through r = 20 ends the search at once.
    The returned table is forward-integrated on the core and
    backward-integrated from the asymptotic series on the far side,
    matched at r = 10, which pins the decay constant to ~1e-8.
    """
    lo, hi = 0.1, 10.0
    # the bracket ends' strict shots, which brentq reads again
    misses = {lo: _miss(nl, lo), hi: _miss(nl, hi)}
    if misses[lo] == 0.0:
        w_star = lo
    elif misses[hi] == 0.0:
        w_star = hi
    else:
        if not misses[lo] > 0.0 > misses[hi]:
            # scan for a valid bracket before giving up
            grid = np.geomspace(0.05, 50.0, 40)
            kinds = [_classify(nl, w, rtol=1e-9)[0] for w in grid]
            bracket = None
            for i in range(len(grid) - 1):
                if kinds[i] == "turn" and kinds[i + 1] == "cross":
                    bracket = (grid[i], grid[i + 1])
                    break
            if bracket is None:
                raise NoGroundStateError(
                    f"no shooting bracket for p={nl.p}, N={nl.dim_n}"
                )
            lo, hi = bracket
        try:
            w_star, info = brentq(
                lambda w0: misses[w0] if w0 in misses else _miss(nl, w0), lo, hi,
                xtol=_SHOOT_XTOL, rtol=_SHOOT_RTOL, maxiter=_SHOOT_MAXITER,
                full_output=True, disp=False)
        except ValueError as exc:  # the strict shots disagree with the scan's bracket
            raise IterationError(f"shooting on w(0) in [{lo:.16g}, {hi:.16g}]: "
                                 f"{exc}") from exc
        if not info.converged:
            raise IterationError(f"shooting on w(0) in [{lo:.16g}, {hi:.16g}] did not "
                                 f"converge in {info.iterations} iterations")

    fw = _forward_solve(nl, w_star)
    w_f, wp_f = fw.y[0, -1], fw.y[1, -1]
    if w_f <= 0:
        raise NoGroundStateError("converged shot lost positivity before matching")

    m = (nl.dim_n - 1) / 2.0
    A = w_f * _R_MATCH**m * np.exp(_R_MATCH)
    bw, w_b = _backward_solve(nl, A)
    for _ in range(3):
        A *= w_f / w_b
        bw, w_b = _backward_solve(nl, A)

    h_r = _H_R
    r_grid = np.round(np.arange(0.0, _R_MAX + 0.5 * h_r, h_r), 12)
    w = np.empty_like(r_grid)
    wp = np.empty_like(r_grid)
    w[0], wp[0] = w_star, 0.0
    fwd = (r_grid > 0) & (r_grid <= _R_MATCH)
    back = r_grid > _R_MATCH
    w[fwd], wp[fwd] = fw.sol(r_grid[fwd])
    w[back], wp[back] = bw.sol(r_grid[back])

    if np.any(w <= 0) or np.any(np.diff(w) >= 0) or np.any(wp[1:] > 0):
        raise NoGroundStateError("tabulated profile is not positive decreasing")

    for r_tail in (12.0, 14.0, 16.0, 18.0):
        idx = int(round(r_tail / h_r))
        tail_val = _tail_value_deriv(nl.p, nl.dim_n, A, r_grid[idx:idx + 1])[0][0]
        if abs(w[idx] - tail_val) <= 1e-6 * abs(tail_val):
            return RadialProfile(p=nl.p, dim_n=nl.dim_n, r_grid=r_grid, w_values=w,
                                 w_prime_values=wp, w0=w_star, decay_A=A, r_tail=r_tail)
    raise DecayFitError("far-field formula never matched the table to 1e-6")


def _quad_checked(fun, a, b, points=None, what=""):
    # epsabs is pushed below what quad can certify, so it warns about
    # roundoff; the explicit error check below is the one that matters.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(fun, a, b, points=points, limit=400, epsabs=1e-13, epsrel=1e-11)
    if err > 1e-7 * max(1.0, abs(val)):
        raise IntegrationError(f"quadrature for {what} unreliable (err {err:.2e})")
    return val


def normalization_constants(profile: RadialProfile):
    """Per-spike limit energy e1 and the weighted interaction mass gamma.

    e1 = (1/2) int (|grad w|^2 + w^2) - int F(w); gamma = int f(w) e^{z1}.
    Both reduce to radial integrals (a cosh weight in 1d, a Bessel I0
    weight in 2d) evaluated adaptively with the far-field formula past
    the end of the table.
    """
    nl = Nonlinearity(p=profile.p, dim_n=profile.dim_n)
    n = profile.dim_n
    if n not in (1, 2):
        raise ConfigError("normalization constants implemented for N in {1, 2}")
    r_cut = max(60.0, 40.0 / (profile.p - 2.0))
    pts = [profile.r_tail, profile.r_grid[-1]]

    def density(r):
        wv, wd = profile.value_and_derivative(r)
        return 0.5 * (wd * wd + wv * wv) - nl.F(wv)

    if n == 1:
        e1 = 2.0 * _quad_checked(density, 0.0, r_cut, points=pts, what="e1")
        gamma = 2.0 * _quad_checked(
            lambda r: nl.f(profile.value(r)) * np.cosh(r), 0.0, r_cut, points=pts, what="gamma"
        )
    else:
        e1 = 2.0 * np.pi * _quad_checked(
            lambda r: density(r) * r, 0.0, r_cut, points=pts, what="e1"
        )
        gamma = 2.0 * np.pi * _quad_checked(
            lambda r: nl.f(profile.value(r)) * i0e(r) * np.exp(r) * r,
            0.0,
            r_cut,
            points=pts,
            what="gamma",
        )
    if gamma <= 0:
        raise IntegrationError("gamma must be positive for a positive profile")
    return float(e1), float(gamma)
