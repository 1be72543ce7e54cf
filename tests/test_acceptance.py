"""The ten acceptance checks, one test per criterion.

The checklist is computed once per module by verify.verification_report
(seed 0) and each test then asserts its criterion's measured values at
the stated tolerances, so a failure names the exact quantity that
missed. Closed-form oracles (sech profiles, circle crown offsets) are
independent of the production code paths; the rest are property checks
(trends over an eps family, counts, zero violations).
"""

import numpy as np
import pytest

from spikecrown import verify


@pytest.fixture(scope="module")
def report():
    return verify.verification_report(seed=0)


def entry(report, cid):
    e = report["criteria"][cid - 1]
    assert e["id"] == cid
    print(f"criterion {cid:2d} [{e['name']}]: "
          + ("PASS" if e["pass"] else "FAIL"))
    assert "error" not in e, e.get("error")
    return e


def test_criterion_01_profile_closed_forms(report):
    e = entry(report, 1)
    m = e["measured"]
    assert m["sup_error_p3"] < 1e-6
    assert m["sup_error_p4"] < 1e-6
    assert m["decay_ratio_dev_p3"] < 5e-3
    assert m["decay_ratio_dev_p4"] < 5e-3
    assert e["pass"]


def test_criterion_02_circle_crown_closed_form(report):
    e = entry(report, 2)
    assert e["measured"]["worst_rel_error"] < 1e-8
    assert e["measured"]["worst_chord_dev"] < 1e-8
    assert e["pass"]


def test_criterion_03_ellipse_grid_search(report):
    e = entry(report, 3)
    m = e["measured"]
    assert m["difference"] < 1e-6
    # the search returns a cell midpoint that only the defects' signs
    # choose, so an oracle that moves the verdict moves this value
    assert m["grid_search"] == 0.3635120570659638
    assert m["min_nonadjacent_dist"] > m["twice_delta_star"]
    assert e["pass"]


def _marched_rows(monkeypatch):
    """The row count of each oracle march that verify makes from now on."""
    rows = []
    march = verify.pk.equal_chord_march

    def counted(curve, k, chord, t0):
        rows.append(len(t0))
        return march(curve, k, chord, t0)

    monkeypatch.setattr(verify.pk, "equal_chord_march", counted)
    return rows


def test_phase_polish_marches_the_incumbent_once(monkeypatch):
    # a polish grid's middle is the incumbent; once a grid has marched
    # it, its defect is known and the next grids leave it out
    rows = _marched_rows(monkeypatch)
    gamma = verify.geo.inner_parallel_curve(verify.geo.ellipse(1.2, 1.0), 0.45)
    verify._best_phase_defect(gamma, 4, 0.9)
    assert rows == [48, 8, 8, 8, 8]


def test_grid_search_bisects_each_grid_on_the_1_2x1_ellipse(monkeypatch):
    # the least-defect phase drifts with delta, so each offset searches
    # its phases afresh; 2 bracket ends and 3 offsets per level, each
    # with 5 phase grids
    rows = _marched_rows(monkeypatch)
    dom = verify.geo.PlanarDomain(verify.geo.ellipse(1.2, 1.0))
    found = verify._delta_grid_search(dom, 4)
    assert abs(found - verify.pk.critical_distance(dom, 4)[0]) < 1e-6
    assert len(rows) == 5 * (2 + 3 * verify._GRID_LEVELS) == 115


def test_criterion_04_boundary_gap(report):
    e = entry(report, 4)
    m = e["measured"]
    assert m["sup_phi"] < m["delta_star"] - 1e-3
    assert e["pass"]


def test_criterion_05_exponent_trend(report):
    e = entry(report, 5)
    devs = e["measured"]["deviations"]
    assert len(devs) == 3
    assert devs[0] > devs[1] > devs[2]
    assert e["pass"]


def test_criterion_06_energy_scaling(report):
    e = entry(report, 6)
    devs = e["measured"]["relative_deviations"]
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.10
    assert e["pass"]


def test_criterion_07_minimizer_location(report):
    e = entry(report, 7)
    m = e["measured"]
    assert m["max_depth_dev"] < m["allowance"]
    assert m["max_chord_dev"] < m["allowance"]
    assert m["polygon_fit"] < 1e-6
    assert e["pass"]


def test_criterion_08_newton_family(report):
    e = entry(report, 8)
    m = e["measured"]
    assert m["converged"]          # every final sup-residual < 1e-10
    assert m["peaks_ok"]           # exactly 8 alternating peaks each
    assert m["drift_decreasing"]   # peak drift shrinks with eps
    # The remaining clause wants exp(delta*/(2 eps)) * sup|v - ansatz|
    # decreasing in eps as well. The discrete gap bottoms out at the
    # h = eps/4 truncation floor instead of following the continuum
    # rate, so the amplified sequence grows and this clause fails.
    table = ", ".join(
        f"eps={r['eps']:.5f}: {r['scaled_ansatz_gap']:.4g}"
        for r in m["family"])
    assert e["pass"], f"scaled ansatz gap not decreasing ({table})"


def test_criterion_09_contraction_suite(report):
    e = entry(report, 9)
    m = e["measured"]
    assert m["n_violations"] == 0
    assert m["worst_slack"] > 0.0
    assert e["pass"]


def test_criterion_10_solution_symmetry(report):
    e = entry(report, 10)
    assert e["measured"]["dihedral_defect"] < 1e-8
    assert e["pass"]


def test_verdict_shape(report):
    assert [e["id"] for e in report["criteria"]] == list(range(1, 11))
    assert report["all_pass"] == all(e["pass"] for e in report["criteria"])
    assert report["seed"] == 0
