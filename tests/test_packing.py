"""Tests for equal-chord crown packing on inner parallel curves.

Oracle: on a disk of radius R every quantity has a closed form. The
k-gon inscribed in the circle of radius R - delta has side
2*(R - delta)*sin(pi/k); setting the side equal to 2*delta gives

    delta*(k) = R * sin(pi/k) / (1 + sin(pi/k)).

Everything on the circle is checked against that, and the generic
machinery (the closure and fold Newtons, phase ties) is exercised on
ellipses where no closed form exists.
"""

import importlib.util
import os
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spikecrown import geometry as geo
from spikecrown import packing as pk
from spikecrown.errors import (
    ConfigError,
    NoCriticalDeltaError,
    PropertyViolationError,
)


_SWEEP_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pack_sweep.py")
_SWEEP_SPEC = importlib.util.spec_from_file_location("pack_sweep", _SWEEP_PATH)
pack_sweep = importlib.util.module_from_spec(_SWEEP_SPEC)
_SWEEP_SPEC.loader.exec_module(pack_sweep)


def _close_one(curve, k, t0=0.0):
    """pk._close_polygons from the equal-arclength k-gon at the one start
    phase t0, which must close: (points, ts, closing chord)."""
    ts, c, closed = pk._close_polygons(curve, pk._equal_arcs(curve, k, np.array([float(t0)])))
    assert closed[0] and ts[0, 0] == t0
    return curve.point(ts[0]), ts[0], float(c[0])


def circle_law(R, k):
    s = np.sin(np.pi / k)
    return R * s / (1.0 + s)


@pytest.fixture(scope="module")
def disk():
    return geo.PlanarDomain(geo.circle(1.0))


@pytest.fixture(scope="module")
def egg():
    return geo.PlanarDomain(geo.ellipse(2.0, 1.0))


# ---------------------------------------------------------------- functional

def test_packing_functional_depth_limited(disk):
    # two points at depth 0.2, chord 1.6: depth is the binding term
    pts = np.array([[0.8, 0.0], [-0.8, 0.0]])
    assert_allclose(pk.packing_functional(disk, pts), 0.2, atol=1e-12)


def test_packing_functional_chord_limited(disk):
    # deep pair: half distance 0.1 beats depth 0.9
    pts = np.array([[0.1, 0.0], [-0.1, 0.0]])
    assert_allclose(pk.packing_functional(disk, pts), 0.1, atol=1e-12)


def test_packing_functional_boundary_and_exterior(disk):
    assert abs(pk.packing_functional(disk, np.array([[1.0, 0.0]]))) < 1e-12
    assert pk.packing_functional(disk, np.array([[1.3, 0.0]])) < -0.29


def test_packing_functional_accepts_configuration(disk):
    pts = np.array([[0.5, 0.0], [-0.5, 0.0]])
    cfg = pk.SpikeConfiguration(pts)
    assert pk.packing_functional(disk, cfg) == pk.packing_functional(disk, pts)


# ------------------------------------------------------------- configuration

def test_configuration_rejects_odd_count():
    pts = np.array([[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0]])
    with pytest.raises(ConfigError):
        pk.SpikeConfiguration(pts)


def test_configuration_rejects_non_alternating():
    pts = np.array([[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0], [0.0, -0.3]])
    with pytest.raises(ConfigError):
        pk.SpikeConfiguration(pts, signs=[1, 1, -1, -1])


def test_configuration_default_signs_alternate():
    pts = np.array([[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0], [0.0, -0.3]])
    cfg = pk.SpikeConfiguration(pts)
    assert list(cfg.signs) == [1, -1, 1, -1]
    assert cfg.k == 4


def test_validate_rejects_exterior_point(disk):
    pts = np.array([[0.3, 0.0], [0.0, 1.3], [-0.3, 0.0], [0.0, -0.3]])
    with pytest.raises(ConfigError):
        pk.make_configuration(disk, pts)


# ------------------------------------------------------------------- marching

def test_march_closes_octagon_on_circle():
    c = geo.circle(1.0)
    chord = 2.0 * np.sin(np.pi / 8)
    pts, ts, defect = (a[0] for a in pk.equal_chord_march(c, 8, chord))
    assert abs(defect) < 1e-9
    ch = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert_allclose(ch, chord, atol=1e-9)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12


def test_march_small_chord_under_shoots():
    c = geo.circle(1.0)
    pts, ts, defect = (a[0] for a in pk.equal_chord_march(c, 8, 0.5))
    assert defect < -0.1
    ch = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
    assert ch.max() - ch.min() < 1e-12


def test_march_chord_exceeding_diameter_reads_inf():
    # beside a row that closes the square, a chord longer than the
    # diameter is placed nowhere: +inf defect, NaN parameters and points
    c = geo.circle(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts, ts, defect = pk.equal_chord_march(c, 4, [2.05, np.sqrt(2.0)], 0.3)
    assert np.isinf(defect[0]) and ts[0, 0] == 0.3
    assert np.isnan(ts[0, 1:]).all() and np.isnan(pts[0, 1:]).all()
    assert abs(defect[1]) < 1e-9 and np.isfinite(pts[1]).all()


# -------------------------------------------------------------------- closure

def test_close_polygon_octagon():
    c = geo.circle(1.4)
    pts, ts, cstar = _close_one(c, 8)
    assert abs(cstar - 2.0 * 1.4 * np.sin(np.pi / 8)) < 1e-9


def test_close_polygon_triangle():
    c = geo.circle(0.7)
    pts, ts, cstar = _close_one(c, 3)
    assert abs(cstar - np.sqrt(3.0) * 0.7) < 1e-9


def test_close_polygon_rotation_invariant_on_circle():
    c = geo.circle(1.0)
    _, _, c0 = _close_one(c, 8, t0=0.0)
    _, _, c1 = _close_one(c, 8, t0=0.37)
    assert abs(c0 - c1) < 1e-10


def test_close_polygon_ellipse_equal_chords():
    gamma = geo.inner_parallel_curve(geo.ellipse(2.0, 1.0), 0.2)
    pts, ts, cstar = _close_one(gamma, 6)
    ch = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert ch.max() - ch.min() < 1e-9
    # vertices sit on the offset curve
    d = geo.PlanarDomain(gamma).signed_distance(pts)
    assert np.abs(d).max() < 1e-9


def test_close_polygon_phase_dependence_on_ellipse():
    # The closing chord genuinely depends on the start point off the
    # circle: k=4 on an ellipse offset gives a rhombus from one phase
    # and a near square from another, with very different sides.
    gamma = geo.inner_parallel_curve(geo.ellipse(2.0, 1.0), 0.05)
    _, _, ca = _close_one(gamma, 4, t0=0.0)
    _, _, cb = _close_one(gamma, 4, t0=0.2)
    assert abs(ca - cb) > 0.1


def test_close_polygon_closes_where_the_march_jumps():
    # From t0=0.125 the march's closure defect jumps across zero near
    # chord 1.863 (-1.36 to +1.00), so no chord closes the march there;
    # the polygon Newton closes an ordered equal-chord 4-gon all the
    # same. It is not the march's: the oracle at its chord ends 1.57 short.
    gamma = geo.inner_parallel_curve(geo.ellipse(2.0, 1.0), 0.05)
    pts, ts, c = _close_one(gamma, 4, t0=0.125)
    assert abs(c - 1.8509) < 1e-4
    chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert np.abs(chords - c).max() <= 1e-12
    assert (np.diff(np.append(ts, ts[0] + 1.0)) > 0.0).all()
    assert np.abs(geo.PlanarDomain(gamma).signed_distance(pts)).max() < 1e-9
    assert abs(pk.equal_chord_march(gamma, 4, c, 0.125)[2][0] + 1.57) < 0.01


def test_closure_steps_keep_the_cyclic_order(round_egg):
    # from start polygons crowded into a third of the lap or spread over
    # all of it, every damped step keeps the gaps positive and t_0 held,
    # and no warning is raised: the crowded starts are driven onto
    # collapsing chords and given up, most spread ones close
    bd = round_egg.boundary
    rng = np.random.default_rng(0)
    t = np.sort(np.concatenate([rng.uniform(0.0, 0.3, (12, 6)), rng.uniform(0.0, 1.0, (12, 6))]),
                axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts, c, closed = pk._close_polygons(bd, t)
    gaps = np.diff(np.column_stack([ts, ts[:, 0] + 1.0]), axis=1)
    assert (gaps > 0.0).all() and (ts[:, 0] == t[:, 0]).all()
    assert not closed[:12].any() and closed[12:].sum() >= 8
    pts = bd.point(ts[closed])
    chords = np.linalg.norm(np.roll(pts, -1, axis=1) - pts, axis=-1)
    assert np.abs(chords - c[closed, None]).max() <= pk._CHORD_TOL * bd.total_length
    assert (gaps[closed] > 0.1).all()


# ---------------------------------------------------------------- oracle march

ORACLE_CURVES = {
    "disk": lambda: geo.circle(1.0),
    "ellipse 2x1 offset 0.15": lambda: geo.inner_parallel_curve(
        geo.ellipse(2.0, 1.0), 0.15),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_march_rows_have_the_bits_of_one_row_calls(name):
    # so batching the oracle cannot move a defect, and with it the
    # verdict of acceptance criterion 3; start phases run over several
    # laps, and chords from l/10 to 0.6*l reach the whole-lap scan and
    # the unplaceable
    curve = ORACLE_CURVES[name]()
    rng = np.random.default_rng(5)
    for k in (3, 10):
        t0 = rng.uniform(-1.5, 2.5, 16)
        chord = rng.uniform(0.1, 0.6, 16) * curve.total_length
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = pk.equal_chord_march(curve, k, chord, t0)
        for i in range(len(t0)):
            for got, want in zip(pk.equal_chord_march(curve, k, chord[i], t0[i]), batch):
                assert_array_equal(got[0], want[i])
        assert np.isinf(batch[2]).any() and np.isfinite(batch[2]).any()


def test_packing_reaches_neither_scalar_march_nor_brentq(monkeypatch):
    calls = {"equal_chord_march": 0, "brentq": 0}

    def counted(name):
        fn = getattr(pk, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pk, name, counted(name))
    monkeypatch.setattr(pk, "_GAP_SAMPLES", 1500)
    dom = geo.PlanarDomain(geo.ellipse(1.2, 1.0))
    ds, crown = pk.critical_distance(dom, 4)
    pk.boundary_gap_check(dom, crown, ds, ds / 10.0, seed=0)
    assert calls == {"equal_chord_march": 0, "brentq": 0}


# ---------------------------------------------------------- critical distance

def test_critical_distance_matches_circle_law(disk):
    for k in (8, 16):
        ds, cfg = pk.critical_distance(disk, k)
        assert abs(ds - circle_law(1.0, k)) < 1e-8 * circle_law(1.0, k)
        assert cfg.k == k


def test_critical_distance_rejects_odd_and_tiny_k(disk):
    with pytest.raises(ConfigError):
        pk.critical_distance(disk, 7)
    with pytest.raises(ConfigError):
        pk.critical_distance(disk, 2)


@pytest.fixture(scope="module")
def round_egg():
    return geo.PlanarDomain(geo.ellipse(1.5, 1.0))


def test_critical_crown_consistency_on_ellipse(round_egg):
    ds, cfg = pk.critical_distance(round_egg, 6)
    pts = cfg.points
    depth = -round_egg.signed_distance(pts)
    assert_allclose(depth, ds, atol=1e-8)
    ch = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert_allclose(ch, 2.0 * ds, atol=1e-8)
    # every non adjacent pair is at least one chord away
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    idx = np.arange(6)
    sep = np.minimum((idx[:, None] - idx[None, :]) % 6,
                     (idx[None, :] - idx[:, None]) % 6)
    assert dist[sep >= 2].min() > 2.0 * ds - 1e-8
    assert abs(pk.packing_functional(round_egg, pts) - ds) < 1e-8


def test_crown_phase_follows_from_the_domain(round_egg, monkeypatch):
    # at delta* every vertex of the critical polygon closes it; the
    # smallest foot breaks the tie, whatever the starts: scans of 12 to
    # 24 phases, and each start of the 16-phase scan on its own
    ds, crown = pk.critical_distance(round_egg, 6)
    first = np.asarray(crown.points)[0]
    fold = pk._fold_newton
    runs = []
    for phases in (12, 20, 24):
        monkeypatch.setattr(pk, "_SCAN_PHASES", phases)
        runs.append(pk.critical_distance(round_egg, 6))
    monkeypatch.setattr(pk, "_SCAN_PHASES", 16)
    for j in range(3):
        monkeypatch.setattr(pk, "_fold_newton",
                            lambda bd, k, x, j=j: fold(bd, k, x[j % len(x):][:1]))
        runs.append(pk.critical_distance(round_egg, 6))
    for d, c in runs:
        assert abs(d - ds) < 1e-13
        assert np.linalg.norm(np.asarray(c.points)[0] - first) < 1e-9
        assert list(c.signs) == list(crown.signs)


def test_too_few_spikes_on_elongated_domain_raises(egg):
    # a hexagon crown on the 2:1 ellipse would need delta past the
    # offset smoothness limit 0.95/kappa_max, so there is no root
    with pytest.raises(NoCriticalDeltaError):
        pk.critical_distance(egg, 6)


@pytest.mark.parametrize("domain", [
    {"kind": "ellipse", "a": 2.0, "b": 1.0},
    {"kind": "ellipse", "a": 3.0, "b": 1.0},
    {"kind": "superellipse", "a": 1.0, "b": 1.0, "m": 4.0},
], ids=lambda d: d["kind"] + str(d["a"]))
def test_four_spikes_past_the_offset_limit_have_no_critical_delta(domain, monkeypatch):
    # l/16 lies above 0.95/kappa_max on these domains, so the bracket's
    # lower end starts below its upper one instead of building an offset
    # curve past 1/kappa_max; a closing chord exceeds 2*delta at its top,
    # the one offset probed, and no fold is sought
    dom = geo.make_domain(domain)
    calls = count_top_probes(monkeypatch)
    solves = count_critical_offset(monkeypatch)
    with pytest.raises(NoCriticalDeltaError, match="closing chord exceeds"):
        pk.critical_distance(dom, 4)
    assert calls == [pk._offset_top(dom.boundary)]
    assert solves == []


def count_top_probes(monkeypatch):
    # the offset of each _short_at call
    calls = []
    probe = pk._short_at

    def counted(bd, k, delta):
        calls.append(delta)
        return probe(bd, k, delta)

    monkeypatch.setattr(pk, "_short_at", counted)
    return calls


@pytest.mark.parametrize("domain", [
    {"kind": "circle", "radius": 1.0},
    {"kind": "ellipse", "a": 1.2, "b": 1.0},
], ids=lambda d: d["kind"])
def test_crown_bracket_is_probed_once_at_its_top(domain, monkeypatch):
    # one probe at the top, then one fold solve on the whole bracket,
    # which builds one offset curve, for its scan
    dom = geo.make_domain(domain)
    calls = count_top_probes(monkeypatch)
    solves = count_critical_offset(monkeypatch)
    builds = []
    offset = pk.inner_parallel_curve
    monkeypatch.setattr(pk, "inner_parallel_curve",
                        lambda curve, delta: builds.append(delta) or offset(curve, delta))
    pk.critical_distance(dom, 4)
    assert calls == [pk._offset_top(dom.boundary)]
    assert [(k, hi) for k, _, hi in solves] == [(4, pk._offset_top(dom.boundary))]
    assert len(builds) == 2


@pytest.mark.parametrize("name", list(pack_sweep.DOMAINS))
def test_offset_top_keeps_the_bits_of_the_min(name):
    # the top is the curvature term alone, the bits of
    # min(0.95/kappa_max, 0.9 r_in) wherever 0.9 of the centroid's depth
    # reaches it: on every domain but the disk, where 0.9 r_in = 0.9
    # lies below the top, 0.95
    dom = geo.make_domain(pack_sweep.DOMAINS[name])
    top = pk._offset_top(dom.boundary)
    assert top == pk._OFFSET_LIMIT / dom.boundary.kappa_max
    assert (0.9 * dom.centroid_depth >= top) == (name != "disk")


def test_ellipse_crown_and_gap_check_skip_the_inradius_search():
    # neither the crown nor the gap check asks how deep the domain is:
    # their offsets stop below 0.95/kappa_max, read from the curve
    dom = geo.make_domain({"kind": "ellipse", "a": 1.2, "b": 1.0})
    ds, crown = pk.critical_distance(dom, 4)
    pk.boundary_gap_check(dom, crown, ds, ds / 10.0, seed=0)
    assert dom._centroid_depth is None


def test_disk_crown_top_is_the_curvature_term():
    # 0.95 on the unit disk, above 0.9 of its inradius; the k=4 crown's
    # delta* is the pack sweep's recorded bits
    dom = geo.make_domain({"kind": "circle", "radius": 1.0})
    assert abs(pk._offset_top(dom.boundary) - 0.95) < 1e-15
    assert pk.critical_distance(dom, 4)[0] == 0.41421356237309503


@pytest.mark.parametrize("base,phases", [
    (geo.circle(1.0), 1),
    (geo.ellipse(1.2, 1.0), pk._SCAN_PHASES),
    (geo.ellipse(1.0, 1.0), 1),
], ids=["circle", "ellipse", "round ellipse"])
def test_constant_curvature_marches_phase_zero_alone(base, phases, monkeypatch):
    # a circle's offset has constant curvature, so one start phase closes
    # as well as any other; a round ellipse's curvature spreads by ulps
    # only, and counts as constant too. The top probe closes all its
    # phases first, whatever the curvature.
    starts = []
    close = pk._close_polygons

    def recorded(curve, ts):
        starts.append(len(ts))
        return close(curve, ts)

    monkeypatch.setattr(pk, "_close_polygons", recorded)
    pk.critical_distance(geo.PlanarDomain(base), 4)
    assert starts == [pk._SCAN_PHASES, phases]


def test_critical_delta_is_maximal(disk, round_egg):
    # by the oracle march: at delta* - h some phase's march of chord
    # 2*delta falls short of a lap, and at delta* + h every phase's
    # overshoots, so no equal-chord polygon closes there
    phases = np.arange(48) / 48
    for dom, k in ((disk, 8), (round_egg, 6)):
        ds = pk.critical_distance(dom, k)[0]
        below, above = (
            pk.equal_chord_march(geo.inner_parallel_curve(dom.boundary, d), k,
                                 2.0 * d, phases)[2]
            for d in (ds - 1e-3, ds + 1e-3))
        assert below.min() < 0.0 < above.min()


def test_round_ellipse_meets_the_circle_law():
    # the curvature of ellipse(1, 1) spreads by ulps; counted as constant,
    # it takes the circle's pinned fold
    dom = geo.PlanarDomain(geo.ellipse(1.0, 1.0))
    assert dom.boundary.constant_curvature
    for k in (4, 6, 8):
        ds, crown = pk.critical_distance(dom, k)
        assert abs(ds - circle_law(1.0, k)) <= pk._DELTA_TOL
        assert_allclose(np.asarray(crown.points)[0], [1.0 - ds, 0.0], atol=1e-15)


# pack-spline's domain: 24 points of the 1.3x1 ellipse
_TH = 2.0 * np.pi * np.arange(24) / 24
SPLINE_EGG = {"kind": "spline", "points": np.stack([1.3 * np.cos(_TH), np.sin(_TH)], axis=1).tolist()}


def _spline_egg():
    return geo.make_domain(SPLINE_EGG)


@pytest.mark.parametrize("dom,k", [
    (geo.PlanarDomain(geo.ellipse(1.2, 1.0)), 4),
    (_spline_egg(), 3),
], ids=["ellipse 1.2x1", "spline egg"])
def test_fold_jacobian_matches_differences(dom, k):
    # every row of the analytic Jacobian, the fold row's included,
    # against central differences of the residuals
    bd = dom.boundary
    rng = np.random.default_rng(2)
    x = np.column_stack([np.sort(rng.uniform(0.0, 1.0, (4, k)), axis=1),
                         rng.uniform(0.2, 0.5, 4)])
    _, jac = pk._fold_system(bd, k, x)
    h = 1e-6
    for j in range(k + 1):
        e = np.zeros(k + 1)
        e[j] = h
        fd = (pk._fold_system(bd, k, x + e)[0] - pk._fold_system(bd, k, x - e)[0]) / (2.0 * h)
        assert np.abs(jac[:, :, j] - fd).max() <= 1e-6 * np.abs(fd).max()


def test_spline_egg_ring_sits_at_a_verified_fold():
    # pack-spline's 3-ring: its offset, chords and fold row at the fold
    # that the gap check's ring solve returns
    dom = _spline_egg()
    ds, _ = pk.critical_distance(dom, 4)
    d, ts = pk._critical_offset(dom.boundary, 3, ds, ds + 0.09 * ds)
    assert abs(d - 0.5039769788086753) <= 1e-13
    res, _ = pk._fold_system(dom.boundary, 3, np.append(np.unwrap(ts, period=1.0), d)[None])
    assert np.abs(res[0, :3]).max() <= 1e-12
    assert abs(res[0, 3]) <= 1e-12


def test_fold_solve_says_why_it_fails(round_egg, monkeypatch):
    bd = round_egg.boundary
    ds = pk.critical_distance(round_egg, 6)[0]
    with pytest.raises(NoCriticalDeltaError, match="lie outside"):
        pk._critical_offset(bd, 6, 0.5 * ds, ds - 1e-3)
    monkeypatch.setattr(pk, "_NEWTON_STEPS", 1)
    with pytest.raises(NoCriticalDeltaError, match="no fold converged in 1 steps"):
        pk._critical_offset(bd, 6, 0.5 * ds, 1.5 * ds)


def test_fold_steps_keep_the_cyclic_order(round_egg):
    # from far starts, polygons crowded into a third of the lap or spread
    # over all of it at offsets from 0.05 to 0.6, every damped step keeps
    # the gaps and the offset positive, and no warning is raised: the
    # crowded starts are driven onto a collapsing chord and given up,
    # most spread ones reach a fold
    bd = round_egg.boundary
    rng = np.random.default_rng(0)
    t = np.concatenate([rng.uniform(0.0, 0.3, (12, 6)), rng.uniform(0.0, 1.0, (12, 6))])
    x = np.column_stack([np.sort(t, axis=1), rng.uniform(0.05, 0.6, 24)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, done = pk._fold_newton(bd, 6, x)
    gaps = np.diff(np.column_stack([x[:, :6], x[:, 0] + 1.0]), axis=1)
    assert (gaps > 0.0).all() and (x[:, 6] > 0.0).all()
    assert not done[:12].any() and done[12:].sum() >= 10
    assert (gaps[done] > 0.1).all()


# ----------------------------------------------------------------- even count

def test_choose_spike_count_frozen_examples(disk):
    # perimeter 2*pi: ratios 10.47, 6.98 round up to the next even count
    assert pk.choose_spike_count(disk, 0.3) == 12
    assert pk.choose_spike_count(disk, 0.45) == 8
    # ratio exactly 6 must still go strictly above
    assert pk.choose_spike_count(disk, np.pi / 6.0) == 8


def test_choose_spike_count_rejects_bad_delta(disk):
    with pytest.raises(ConfigError):
        pk.choose_spike_count(disk, 0.0)
    with pytest.raises(ConfigError):
        pk.choose_spike_count(disk, 2.0)


def test_choose_spike_count_below_the_depth_bound_skips_the_search(monkeypatch):
    # perimeter 6.93; the ratio 9.89 rounds up to the next even count,
    # after one query of the centroid's depth
    dom = geo.make_domain({"kind": "ellipse", "a": 1.2, "b": 1.0})
    queries = []
    signed_distance = dom.signed_distance
    monkeypatch.setattr(dom, "signed_distance", lambda x: queries.append(np.shape(x))
                        or signed_distance(x))
    assert pk.choose_spike_count(dom, 0.35) == 10
    assert queries == [(2,)]


def test_choose_spike_count_refuses_the_disk_at_its_depth_bound():
    # 0.9 lies above 0.9 of the disk's centroid depth, 1 - 2e-16
    dom = geo.make_domain({"kind": "circle", "radius": 1.0})
    with pytest.raises(ConfigError, match=r"0\.9\*centroid depth\) = \(0, 0\.9\), got 0\.9$"):
        pk.choose_spike_count(dom, 0.9)


def test_choose_spike_count_bound_off_the_incenter():
    # the rotated egg moved to (2, 1): centroid depth 0.94962, inradius
    # about 0.9545, so the bound is 0.9 * 0.94962 = 0.85465, where an
    # inradius bound would take delta0 up to 0.859; perimeter 6.32, so
    # the ratio 3.72 rounds up to 4
    dom = geo.make_domain(pack_sweep.DOMAINS["rotated egg +(2,1)"])
    assert pk.choose_spike_count(dom, 0.85) == 4
    with pytest.raises(ConfigError, match=r"centroid depth\) = \(0, 0\.854653\), got 0\.857$"):
        pk.choose_spike_count(dom, 0.857)


# ------------------------------------------------------------------ two point

@dataclass
class TwoPointReport:
    passed: bool
    counts: np.ndarray
    delta: float
    threshold_hint: str


def two_point_check(curve, delta, n_samples=32):
    """Count, for sampled P on the inner parallel curve at offset delta,
    the parameter roots of |point(t) - P| = 2*delta. Exactly two roots
    everywhere is the regime the crown construction relies on."""
    gamma = geo.inner_parallel_curve(curve, delta)
    t_samples = np.arange(n_samples) / n_samples
    counts = np.empty(n_samples, dtype=int)
    for i, tp in enumerate(t_samples):
        p = gamma.point(tp)
        f = np.linalg.norm(gamma.points - p, axis=1) - 2.0 * delta
        # each sign change of the cyclic nodal sequence is one crossing
        counts[i] = int(np.count_nonzero(f * np.roll(f, -1) < 0.0))
    return TwoPointReport(
        passed=bool(np.all(counts == 2)),
        counts=counts,
        delta=float(delta),
        threshold_hint="roots vanish once 2*delta exceeds the local reach "
        "of the offset curve",
    )


def test_two_point_check_passes_small_delta(disk):
    rep = two_point_check(disk.boundary, 0.2)
    assert rep.passed
    assert all(c == 2 for c in rep.counts)


def test_two_point_check_fails_past_half_inradius(disk):
    # gamma_0.55 has diameter 0.9 < chord 1.1: no intersection at all
    rep = two_point_check(disk.boundary, 0.55)
    assert not rep.passed
    assert max(rep.counts) == 0


# --------------------------------------------------------------- boundary gap

def circle_crown(R, k):
    # the critical crown on the disk: a regular k-gon at depth delta*
    th = 2.0 * np.pi * np.arange(k) / k
    return (R - circle_law(R, k)) * np.stack([np.cos(th), np.sin(th)], axis=1)


def test_boundary_gap_positive_in_thin_tube(disk, monkeypatch):
    monkeypatch.setattr(pk, "_GAP_SAMPLES", 1500)
    ds = circle_law(1.0, 8)
    sup, gap, _ = pk.boundary_gap_check(disk, circle_crown(1.0, 8), ds,
                                        ds / 10.0, seed=0)
    assert gap > 0.0
    assert sup < ds - 1e-3


def test_boundary_gap_degenerate_tube(disk):
    ds = circle_law(1.0, 8)
    assert pk.boundary_gap_check(disk, circle_crown(1.0, 8), ds, 0.0) == (
        0.0, ds, (0, 0, 0, 0, 0))


def count_critical_offset(monkeypatch):
    # one (k, lo, hi) per offset solve: its count and its bracket
    calls = []
    solve = pk._critical_offset

    def counted(bd, k, lo, hi):
        calls.append((k, lo, hi))
        return solve(bd, k, lo, hi)

    monkeypatch.setattr(pk, "_critical_offset", counted)
    return calls


def test_boundary_gap_violated_in_fat_tube(disk, monkeypatch):
    # with eta comparable to delta* a 7 ring plus one deep spike beats
    # the critical 8 crown, so the margin claim must fail loudly; the
    # ring cannot be placed at the tube top, so its offset is solved for
    # on a bracket from delta*
    monkeypatch.setattr(pk, "_GAP_SAMPLES", 1500)
    ds = circle_law(1.0, 8)
    calls = count_critical_offset(monkeypatch)
    with pytest.raises(PropertyViolationError) as exc:
        pk.boundary_gap_check(disk, circle_crown(1.0, 8), ds, 0.6, seed=0)
    rep = exc.value.report
    assert rep["sup_boundary"] > ds
    assert len(rep["worst_points"]) == 8
    assert [(k, lo) for k, lo, _ in calls] == [(7, ds)]


@pytest.mark.parametrize("domain,k,solves,want", [
    ({"kind": "circle", "radius": 1.0}, 4, 0,
     (0.40405567956328614, 0.010157882809808894, (200, 200, 7500, 0, 2500))),
    ({"kind": "circle", "radius": 1.0}, 6, 0,
     (0.32605795884265865, 0.007275374490674669, (200, 200, 7500, 0, 2500))),
    ({"kind": "ellipse", "a": 1.2, "b": 1.0}, 4, 1,
     (0.4483942335591803, 0.010451493252809252, (200, 200, 7500, 0, 2500))),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, 10, 1,
     (0.3562398142723962, 0.007272250883125664, (200, 200, 7887, 387, 2500))),
    ({"kind": "superellipse", "a": 1.0, "b": 1.0, "m": 4.0}, 6, 1,
     (0.351952961567877, 0.007880583133705987, (200, 200, 7742, 242, 2500))),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, 8, 1,
     (0.4217901888941555, 0.006752895450583496, (200, 200, 7868, 368, 2500))),
    (SPLINE_EGG, 4, 1,
     (0.47245001050458457, 0.010798286601522933, (200, 200, 7500, 0, 2500))),
])
def test_ring_offset_is_solved_only_inside_the_tube(domain, k, solves, want, monkeypatch):
    # On the disk the (k-1)-ring's critical offset lies above the tube,
    # so the ring sits at the tube top with no offset solve; on the
    # others it lies inside, and is solved for on (delta*, tube top).
    # The disk rows are those of the disk's offsets by Steiner's formula.
    # The 1.2x1 sup and gap are also those of a ring offset solved on the
    # crown's whole bracket, for the crown that starts at foot 0 (the
    # smallest-foot tie rule). On the superellipse that bracket ends at
    # 0.95/kappa_max, below the 5-ring's offset, which only (delta*,
    # tube top) reaches.
    # The rows follow the fold solve's crowns. The disk's delta* moved by
    # -3.3e-16 (k=4) and -7.8e-14 (k=6, now 1/3 to the bit), the 1.2x1's
    # by -5.0e-16, and each sup with it; the 2x1's delta* kept its bits
    # and its crown's points moved by ulps, moving sup by -5.6e-17. The
    # superellipse's crown is now the mirror image t -> -t of the earlier
    # one, which the old phase search reached alone: both are critical,
    # and the smallest foot, 0.0188 against 0.125, picks the new one. The
    # gap check's draws are not mirrored with it, so its whole row moved.
    # The last two rows are the ring families that the vertex-by-vertex
    # march closed in part, 76 and 88 of 200 rings; the polygon Newton
    # closes them all, and sup and gap keep their bits.
    dom = geo.make_domain(domain)
    ds, crown = pk.critical_distance(dom, k)
    calls = count_critical_offset(monkeypatch)
    assert pk.boundary_gap_check(dom, crown, ds, ds / 10.0, seed=0) == want
    assert [(n, lo) for n, lo, _ in calls] == [(k - 1, ds)] * solves


def test_boundary_gap_rejects_negative_eta(disk):
    with pytest.raises(ConfigError):
        pk.boundary_gap_check(disk, circle_crown(1.0, 8), 0.27, -0.1)


def test_boundary_gap_samples_around_the_critical_crown():
    # On this asymmetric egg the critical crown's feet are 0.1200,
    # 0.3794, 0.6245 and 0.8733, and the polygon closed from phase 0
    # has chord 0.8250 against 2*delta* = 0.8331; strata jittered
    # around that polygon stayed 9.2 eta below delta*.
    th = 2.0 * np.pi * np.arange(40) / 40
    r = 1.0 + 0.12 * np.cos(th) + 0.05 * np.sin(2.0 * th)
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1) @ rot.T
    dom = geo.PlanarDomain(geo.spline_curve(pts))
    ds, crown = pk.critical_distance(dom, 4)
    eta = 1e-3 * ds
    sup, gap, counts = pk.boundary_gap_check(dom, crown, ds, eta)
    assert 0.0 < gap < 3.0 * eta
    assert counts == (200, 200, 7500, 0, 2500)
