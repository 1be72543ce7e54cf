from dataclasses import dataclass, field

import numpy as np
import numpy.testing as npt
import pytest

from spikecrown.errors import ConfigError
from spikecrown.nonlinearity import Nonlinearity, _subcritical_bound


def test_values_p3():
    nl = Nonlinearity(p=3.0)
    assert nl.f(0.0) == 0.0
    assert nl.f(2.0) == 4.0
    assert nl.f(-2.0) == -4.0
    npt.assert_allclose(nl.F(3.0), 9.0, rtol=0, atol=0)
    assert nl.fprime(2.0) == 4.0


def test_values_p4():
    nl = Nonlinearity(p=4.0)
    npt.assert_allclose(nl.f(1.5), 3.375, rtol=1e-15)
    assert nl.F(0.0) == 0.0
    assert nl.fprime(0.0) == 0.0


def test_oddness_exact():
    nl = Nonlinearity(p=2.7)
    t = np.linspace(-10.0, 10.0, 4001)
    npt.assert_array_equal(nl.f(-t), -nl.f(t))


def test_antiderivative_consistency():
    # central difference of F matches f to 1e-8 relative away from 0
    nl = Nonlinearity(p=3.5)
    t = np.linspace(0.1, 10.0, 200)
    t = np.concatenate([-t[::-1], t])
    h = 1e-5
    fd = (nl.F(t + h) - nl.F(t - h)) / (2 * h)
    npt.assert_allclose(fd, nl.f(t), rtol=1e-8)


def test_derivative_consistency():
    nl = Nonlinearity(p=3.0)
    t = np.linspace(0.1, 10.0, 200)
    h = 1e-6
    fd = (nl.f(t + h) - nl.f(t - h)) / (2 * h)
    npt.assert_allclose(fd, nl.fprime(t), rtol=1e-6)


def test_construction_rejects_bad_p():
    with pytest.raises(ConfigError):
        Nonlinearity(p=2.0)
    with pytest.raises(ConfigError):
        Nonlinearity(p=1.5)
    with pytest.raises(ConfigError):
        Nonlinearity(p=float("nan"))
    # supercritical in 3d: bound is 6
    with pytest.raises(ConfigError):
        Nonlinearity(p=6.0, dim_n=3)
    Nonlinearity(p=5.9, dim_n=3)


def test_non_finite_argument():
    nl = Nonlinearity(p=3.0)
    with pytest.raises(ConfigError):
        nl.f(float("inf"))
    with pytest.raises(ConfigError):
        nl.F(np.array([1.0, float("nan")]))


@dataclass
class HypothesisReport:
    """Pass/fail record for the structural hypotheses on f."""

    p: float
    dim_n: int
    growth_ok: bool = False
    subcritical_ok: bool = False
    odd_ok: bool = False
    zero_at_origin_ok: bool = False
    monotone_ok: bool = False
    notes: list = field(default_factory=list)

    @property
    def all_ok(self):
        return (
            self.growth_ok
            and self.subcritical_ok
            and self.odd_ok
            and self.zero_at_origin_ok
            and self.monotone_ok
        )


def validate_hypotheses(p, dim_n=2, n_samples=2001, t_max=10.0):
    """Report which structural hypotheses the power family satisfies.

    Report-only: never raises for a bad p. Samples f on a symmetric grid
    and checks exact oddness, vanishing value and derivative at zero, and
    monotone growth on t > 0. The p > 2 and subcritical conditions are
    checked arithmetically.
    """
    report = HypothesisReport(p=float(p), dim_n=int(dim_n))
    report.growth_ok = np.isfinite(p) and p > 2.0
    report.subcritical_ok = bool(report.growth_ok and p < _subcritical_bound(dim_n))
    if not report.growth_ok:
        report.notes.append(f"p > 2 violated (p = {p})")
        return report
    if not report.subcritical_ok:
        report.notes.append(f"subcritical bound violated in dimension {dim_n}")
        return report

    nl = Nonlinearity(p=float(p), dim_n=int(dim_n))
    t = np.linspace(-t_max, t_max, n_samples)
    ft = nl.f(t)
    report.odd_ok = bool(np.array_equal(nl.f(-t), -ft))
    report.zero_at_origin_ok = bool(nl.f(0.0) == 0.0 and nl.fprime(0.0) == 0.0)
    pos = t[t > 0]
    report.monotone_ok = bool(np.all(np.diff(nl.f(pos)) > 0))
    return report


def test_hypothesis_report_passes():
    for p in (3.0, 2.5):
        rep = validate_hypotheses(p)
        assert rep.all_ok, rep


def test_hypothesis_report_bad_p():
    rep = validate_hypotheses(1.5)
    assert not rep.all_ok
    assert not rep.growth_ok
    assert rep.notes
