import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import closed_form_1d
from spikecrown import cli
from spikecrown import ground_state as gs
from spikecrown.errors import ConfigError, DecayFitError, IntegrationError, NoGroundStateError
from spikecrown.ground_state import RadialProfile, normalization_constants, shoot
from spikecrown.nonlinearity import Nonlinearity


def decay_constant(profile):
    """Oracle: refit the decay constant from the tabulated plateau on [12, 18].

    Independent of the constant stored at shoot time: least squares of
    w r^{(N-1)/2} e^r against 1 and 1/r. Spread above 1e-2 relative
    signals an unconverged shot.
    """
    m = (profile.dim_n - 1) / 2.0
    sel = (profile.r_grid >= 12.0) & (profile.r_grid <= 18.0)
    r = profile.r_grid[sel]
    g = profile.w_values[sel] * r**m * np.exp(r)
    design = np.column_stack([np.ones_like(r), 1.0 / r])
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    fitted = design @ coef
    spread = np.max(np.abs(g - fitted)) / abs(coef[0])
    if spread > 1e-2:
        raise DecayFitError(f"plateau spread {spread:.2e} exceeds 1e-2")
    return float(coef[0]), float(spread)


def test_shoot_p3_closed_form(profile_p3n1):
    npt.assert_allclose(profile_p3n1.w0, 1.5, atol=1e-10)
    r = np.linspace(0.0, 15.0, 1500)
    err = np.abs(profile_p3n1.value(r) - closed_form_1d(3.0, r))
    assert err.max() < 1e-6


def test_shoot_p4_closed_form(profile_p4n1):
    npt.assert_allclose(profile_p4n1.w0, np.sqrt(2.0), atol=1e-10)
    r = np.linspace(0.0, 15.0, 1500)
    err = np.abs(profile_p4n1.value(r) - closed_form_1d(4.0, r))
    assert err.max() < 1e-6


def test_decay_ratio_window(profile_p3n1, profile_p4n1):
    r = np.linspace(15.0, 20.0, 200)
    for prof in (profile_p3n1, profile_p4n1):
        ratio = prof.derivative(r) / prof.value(r)
        assert ratio.max() < -1.0 + 5e-3
        assert ratio.min() > -1.0 - 5e-3


def test_decay_ratio_2d_has_algebraic_part(profile_p3n2):
    # in 2d the log-derivative is -1 - 1/(2r) + O(1/r^2), not -1 itself
    r = np.linspace(15.0, 20.0, 100)
    ratio = profile_p3n2.derivative(r) / profile_p3n2.value(r)
    npt.assert_allclose(ratio, -1.0 - 0.5 / r, atol=2e-3)


def test_table_monotone_positive(profile_p3n2):
    assert profile_p3n2.w_values.min() > 0
    assert np.all(np.diff(profile_p3n2.w_values) < 0)
    assert np.all(profile_p3n2.w_prime_values[1:] < 0)
    assert profile_p3n2.w_prime_values[0] == 0.0
    assert abs(profile_p3n2.value(20.0)) < 1e-6


def test_ode_residual_on_table(profile_p3n1, profile_p4n2):
    # 5-point differences: 4th order, truncation well under the 1e-6 gate
    for prof in (profile_p3n1, profile_p4n2):
        nl = Nonlinearity(p=prof.p, dim_n=prof.dim_n)
        w = prof.w_values
        r = prof.r_grid
        h = r[1] - r[0]
        i = np.arange(2, len(r) - 2)
        d2 = (-w[i - 2] + 16 * w[i - 1] - 30 * w[i] + 16 * w[i + 1] - w[i + 2]) / (
            12 * h * h
        )
        d1 = (w[i - 2] - 8 * w[i - 1] + 8 * w[i + 1] - w[i + 2]) / (12 * h)
        res = d2 + (prof.dim_n - 1) / r[i] * d1 - w[i] + nl.f(w[i])
        assert np.abs(res).max() < 1e-6


def test_eval_at_origin_and_interior(profile_p3n1):
    assert profile_p3n1.value(0.0) == profile_p3n1.w0
    assert profile_p3n1.derivative(0.0) == 0.0
    npt.assert_allclose(
        profile_p3n1.value(2.0), closed_form_1d(3.0, 2.0), rtol=1e-8
    )


def test_tail_formula_far_out(profile_p3n2):
    # far past the table the value comes from the far-field formula
    v30 = profile_p3n2.value(30.0)
    assert 0 < v30 < 1e-11
    ratio = profile_p3n2.derivative(30.0) / v30
    assert -1.1 < ratio < -0.9


def test_tail_continuity(profile_p3n1, profile_p3n2, profile_p4n2):
    for prof in (profile_p3n1, profile_p3n2, profile_p4n2):
        rt = prof.r_tail
        below = prof.value(rt)
        above = prof.value(rt + 1e-12)
        assert abs(below - above) < 1e-6 * abs(below)


def test_negative_radius_rejected(profile_p3n1):
    with pytest.raises(ConfigError):
        profile_p3n1.value(-0.5)
    with pytest.raises(ConfigError):
        profile_p3n1.derivative(np.array([1.0, -2.0]))


def test_value_and_derivative_is_one_pass_of_both(profile_p3n2):
    # the same bits as value and derivative, for scalars on both sides
    # of r_tail and for an array that straddles it
    rt = profile_p3n2.r_tail
    radii = (2.5, rt + 3.0, np.array([0.0, 1.3, rt + 1e-9, rt, 31.0, rt - 0.2]))
    for r in radii:
        w, dw = profile_p3n2.value_and_derivative(r)
        w_ref, dw_ref = profile_p3n2.value(r), profile_p3n2.derivative(r)
        assert type(w) is type(w_ref) and type(dw) is type(dw_ref)
        assert np.array_equal(w, w_ref) and np.array_equal(dw, dw_ref)


def test_value_far_field_is_the_value_of_the_full_far_field(profile_p3n2):
    # value's tail skips the slope's kve pass but keeps its bits
    prof = profile_p3n2
    r = np.array([prof.r_tail + 1e-9, 14.2, 19.99, 20.0, 31.0, 55.0])
    full = gs._tail_value_deriv(prof.p, prof.dim_n, prof.decay_A, r)[0]
    assert np.array_equal(prof.value(r), full)
    assert prof.value(31.0) == full[4]


def _rhs_via_f(r, y, nl):
    """Oracle: the profile ODE with f taken from Nonlinearity.f."""
    w, wp = y
    return (wp, w - nl.f(w) - (nl.dim_n - 1) / r * wp)


@pytest.mark.parametrize("p,dim_n", [(3.0, 2), (4.0, 1), (5.0, 2), (3.0, 3)])
def test_inline_rhs_matches_nonlinearity_f(p, dim_n, monkeypatch):
    nl = Nonlinearity(p=p, dim_n=dim_n)
    lean = shoot(nl)
    monkeypatch.setattr(gs, "_rhs", _rhs_via_f)
    ref = shoot(nl)
    assert lean.w0 == ref.w0 and lean.decay_A == ref.decay_A
    assert lean.r_tail == ref.r_tail
    assert np.array_equal(lean.w_values, ref.w_values)
    assert np.array_equal(lean.w_prime_values, ref.w_prime_values)


def test_shot_that_leaves_the_finite_range_raises():
    # w'' ~ -w^3 overflows at w(1) = 1e110: the integrator cannot place
    # a finite step and stops short
    with pytest.raises(IntegrationError):
        gs._integrate(Nonlinearity(p=3.0, dim_n=2), (1.0, 5.0), [1e110, 0.0],
                      1e-12, 1e-18)


@pytest.mark.parametrize("fault", ["stalled", "non-finite"])
def test_failed_shot_is_never_called_decay(fault, monkeypatch):
    # a shot that stops short used to fall through to "decay"
    real = gs.solve_ivp

    def faulty(*args, **kwargs):
        sol = real(*args, **kwargs)
        if fault == "stalled":
            sol.status, sol.message = -1, "Required step size is too small."
        else:
            sol.y[0, -1] = np.nan
        return sol

    monkeypatch.setattr(gs, "solve_ivp", faulty)
    with pytest.raises(IntegrationError):
        gs._classify(Nonlinearity(p=3.0, dim_n=1), 1.0, rtol=1e-11)


def test_backward_shot_below_zero_is_a_decay_fit_error():
    # at p = 2.1, N = 1 the first backward shot ends below zero at r = 10;
    # rescaling by it made the decay constant negative and its far field
    # NaN, which solve_ivp refused with a bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0 = time.perf_counter()
        with pytest.raises(DecayFitError, match="backward shot"):
            shoot(Nonlinearity(p=2.1, dim_n=1))
        assert time.perf_counter() - t0 < 1.0


def test_decay_constant_closed_forms(profile_p3n1, profile_p4n1):
    a3, spread3 = decay_constant(profile_p3n1)
    npt.assert_allclose(a3, 6.0, rtol=1e-4)
    assert spread3 < 1e-3
    a4, spread4 = decay_constant(profile_p4n1)
    npt.assert_allclose(a4, 2.0 * np.sqrt(2.0), rtol=1e-4)
    assert spread4 < 1e-3


def test_decay_constant_matches_stored(profile_p3n2):
    a, spread = decay_constant(profile_p3n2)
    npt.assert_allclose(a, profile_p3n2.decay_A, rtol=1e-3)
    assert spread < 1e-3


def test_decay_fit_rejects_corrupted_table(profile_p3n1):
    prof = profile_p3n1
    w_bad = prof.w_values.copy()
    sel = prof.r_grid >= 14.0
    w_bad[sel] *= np.exp(0.5 * (prof.r_grid[sel] - 14.0))  # break the decay law
    bad = RadialProfile(
        p=prof.p,
        dim_n=prof.dim_n,
        r_grid=prof.r_grid,
        w_values=w_bad,
        w_prime_values=prof.w_prime_values,
        w0=prof.w0,
        decay_A=prof.decay_A,
        r_tail=prof.r_tail,
    )
    with pytest.raises(DecayFitError):
        decay_constant(bad)


def test_gamma_oracle_p3(profile_p3n1):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    oracle = mpmath.quad(
        lambda z: (1.5 * mpmath.sech(z / 2) ** 2) ** 2 * mpmath.e**z,
        [-mpmath.inf, 0, mpmath.inf],
    )
    e1, gamma = normalization_constants(profile_p3n1)
    npt.assert_allclose(gamma, float(oracle), rtol=1e-6)
    npt.assert_allclose(gamma, 12.0, rtol=1e-6)
    npt.assert_allclose(e1, 1.2, rtol=1e-6)


def test_normalization_p4(profile_p4n1):
    e1, gamma = normalization_constants(profile_p4n1)
    npt.assert_allclose(gamma, 4.0 * np.sqrt(2.0), rtol=1e-6)
    npt.assert_allclose(e1, 4.0 / 3.0, rtol=1e-6)


def test_gamma_positive_all_profiles(profile_p3n2, profile_p4n2):
    for prof in (profile_p3n2, profile_p4n2):
        e1, gamma = normalization_constants(prof)
        assert gamma > 0
        assert e1 > 0


def test_energy_identity(profile_p3n2):
    # int(|w'|^2 + w^2) = p int F for decaying solutions, so
    # e1 = (p/2 - 1) int F; check the quadratures against each other
    from scipy.integrate import quad

    prof = profile_p3n2
    nl = Nonlinearity(p=prof.p, dim_n=prof.dim_n)
    intF = 2 * np.pi * quad(
        lambda r: nl.F(prof.value(r)) * r, 0, 60, points=[12.0, 20.0], limit=300
    )[0]
    e1, _ = normalization_constants(prof)
    npt.assert_allclose(e1, (prof.p / 2.0 - 1.0) * intF, rtol=1e-8)


def test_self_convergence_under_refinement(monkeypatch):
    nl = Nonlinearity(p=4.0, dim_n=2)
    coarse = shoot(nl)
    monkeypatch.setattr(gs, "_H_R", 0.0025)
    fine = shoot(nl)
    e1_c, g_c = normalization_constants(coarse)
    e1_f, g_f = normalization_constants(fine)
    assert abs(e1_c - e1_f) / abs(e1_f) < 1e-5
    assert abs(g_c - g_f) / abs(g_f) < 1e-5
    assert abs(coarse.w0 - fine.w0) < 1e-9


def test_shoot_builds_one_profile(monkeypatch):
    # each r_tail candidate is checked against the far-field formula
    # alone; only the accepted one becomes a RadialProfile
    built = []
    init = RadialProfile.__post_init__

    def counted(self):
        built.append(self.r_tail)
        init(self)

    monkeypatch.setattr(RadialProfile, "__post_init__", counted)
    prof = shoot(Nonlinearity(p=2.7, dim_n=2))
    assert built == [prof.r_tail]


def _collocation_oracle(p, n_nodes=4000):
    # independent boundary-value solve: damped Newton on central
    # differences over [0, 20], symmetry condition at the origin
    nl = Nonlinearity(p=p, dim_n=2)
    r = np.linspace(0.0, 20.0, n_nodes)
    h = r[1] - r[0]
    # init with the right curvature at the origin; plain Newton then
    # contracts quadratically to the FD roundoff floor (~1e-11)
    u = 2.2 * np.exp(-(r**2))

    def residual(u):
        res = np.empty_like(u)
        res[0] = 2.0 * nl.dim_n * (u[1] - u[0]) / h**2 - u[0] + nl.f(u[0])
        interior = slice(1, -1)
        ri = r[interior]
        res[interior] = (
            (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
            + (nl.dim_n - 1) / ri * (u[2:] - u[:-2]) / (2 * h)
            - u[1:-1]
            + nl.f(u[1:-1])
        )
        res[-1] = u[-1]
        return res

    def jacobian(u):
        n = len(u)
        main = np.empty(n)
        lower = np.empty(n - 1)
        upper = np.empty(n - 1)
        main[0] = -2.0 * nl.dim_n / h**2 - 1.0 + nl.fprime(u[0])
        upper[0] = 2.0 * nl.dim_n / h**2
        ri = r[1:-1]
        main[1:-1] = -2.0 / h**2 - 1.0 + nl.fprime(u[1:-1])
        upper[1:] = 1.0 / h**2 + (nl.dim_n - 1) / ri / (2 * h)
        lower[:-1] = 1.0 / h**2 - (nl.dim_n - 1) / ri / (2 * h)
        main[-1] = 1.0
        lower[-1] = 0.0
        return sp.diags([lower, main, upper], [-1, 0, 1], format="csc")

    converged = False
    for _ in range(40):
        res = residual(u)
        if np.abs(res).max() < 1e-9:
            converged = True
            break
        u = u + spla.spsolve(jacobian(u), -res)
    assert converged, "collocation oracle did not converge"
    assert u[0] > 1.0 and np.all(u[:-1] > 0)
    return r, u


def test_collocation_oracle_2d():
    nl = Nonlinearity(p=4.0, dim_n=2)
    prof = shoot(nl)
    r, u = _collocation_oracle(4.0)
    assert abs(u[0] - prof.w0) < 1e-4
    # decay constant from the oracle, fitted where the far boundary
    # condition has not contaminated the tail yet
    sel = (r >= 10.0) & (r <= 14.0)
    g = u[sel] * r[sel] ** 0.5 * np.exp(r[sel])
    design = np.column_stack([np.ones(sel.sum()), 1 / r[sel], 1 / r[sel] ** 2])
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    npt.assert_allclose(coef[0], prof.decay_A, rtol=1e-3)


def test_profile_round_trip(tmp_path, monkeypatch, profile_p4n2):
    # the CLI's writer and reader are the profile's only file format
    cfg = cli.config_from_dict({"p": 4.0, "N": 2})
    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setattr(cli, "shoot", lambda nl: profile_p4n2)
    cli.run_ground_state(cfg, str(first))
    loaded = cli._read_profile(cfg, str(first))
    monkeypatch.setattr(cli, "shoot", lambda nl: loaded)
    cli.run_ground_state(cfg, str(second))
    for name in ("profile.csv", "profile.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    npt.assert_array_equal(loaded.w_values, profile_p4n2.w_values)
    assert loaded.decay_A == profile_p4n2.decay_A


def test_runtime_budget():
    import time

    t0 = time.perf_counter()
    shoot(Nonlinearity(p=3.0, dim_n=1))
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"shoot took {dt:.2f}s"
