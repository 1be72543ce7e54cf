"""The crown and gap check over 60 domain and spike-count cases, against
a recorded run.

Usage:

    python tools/pack_sweep.py [--checkout DIR] [--record COMMIT]

Each case builds one of ten domains (the unit disk, the 1.2x1, 1.5x1,
2x1 and 3x1 ellipses, the m=3 and m=4 superellipses, 24-point spline
eggs of 1.3x1 and 1.6x1, and a 40-point egg with no symmetry, turned by
0.3 and moved off the origin, whose centroid is not its incenter) and,
for k in 4, 6, 8, 10, 12 and 16, calls
`packing.critical_distance` and then `packing.boundary_gap_check` with
eta = delta*/10 and seed 0. The package comes from DIR's `src` (default:
the checkout holding this script).

Without `--record` the script compares each case with `pack_sweep.json`
beside it: a recorded delta* must be met to within 1e-13, a recorded
error by an error of the same type, and a recorded count of the gap
check's closed rings by at least as many. It prints one line per case,
with the closed rings now and as recorded, and exits 1 if some case
disagrees. `--record COMMIT` writes `pack_sweep.json` from this run
instead, naming COMMIT, the commit DIR holds, as its source.
"""

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "pack_sweep.json")
DELTA_TOL = 1e-13


def _egg(a):
    return {"kind": "spline",
            "points": [[a * math.cos(2.0 * math.pi * j / 24), math.sin(2.0 * math.pi * j / 24)]
                       for j in range(24)]}


def _rotated_egg():
    """r = 1 + 0.12 cos(th) + 0.05 sin(2 th) at 40 angles, turned by 0.3
    and moved by (2, 1)."""
    c, s = math.cos(0.3), math.sin(0.3)
    points = []
    for j in range(40):
        th = 2.0 * math.pi * j / 40
        r = 1.0 + 0.12 * math.cos(th) + 0.05 * math.sin(2.0 * th)
        x, y = r * math.cos(th), r * math.sin(th)
        points.append([c * x - s * y + 2.0, s * x + c * y + 1.0])
    return {"kind": "spline", "points": points}


DOMAINS = {
    "disk": {"kind": "circle", "radius": 1.0},
    "ellipse 1.2x1": {"kind": "ellipse", "a": 1.2, "b": 1.0},
    "ellipse 1.5x1": {"kind": "ellipse", "a": 1.5, "b": 1.0},
    "ellipse 2x1": {"kind": "ellipse", "a": 2.0, "b": 1.0},
    "ellipse 3x1": {"kind": "ellipse", "a": 3.0, "b": 1.0},
    "superellipse m=3": {"kind": "superellipse", "a": 1.0, "b": 1.0, "m": 3.0},
    "superellipse m=4": {"kind": "superellipse", "a": 1.0, "b": 1.0, "m": 4.0},
    "egg 1.3x1": _egg(1.3),
    "egg 1.6x1": _egg(1.6),
    "rotated egg +(2,1)": _rotated_egg(),
}
KS = (4, 6, 8, 10, 12, 16)


def run_case(geo, pk, spec, k):
    """{"delta_star", "error", "ring_closed"} of one case; delta_star is
    None where the crown raised, error None where nothing raised."""
    out = {"delta_star": None, "error": None, "ring_closed": None}
    dom = geo.make_domain(spec)
    try:
        ds, crown = pk.critical_distance(dom, k)
        out["delta_star"] = ds
        out["ring_closed"] = pk.boundary_gap_check(dom, crown, ds, ds / 10.0, seed=0)[2].closed
    except Exception as exc:  # the type is the record
        out["error"] = type(exc).__name__
    return out


def disagreement(got, want):
    """Why got does not match the recorded want, or None."""
    if (got["delta_star"] is None) != (want["delta_star"] is None):
        return f"delta* {got['delta_star']!r}, recorded {want['delta_star']!r}"
    if got["delta_star"] is not None and not abs(got["delta_star"] - want["delta_star"]) <= DELTA_TOL:
        return f"delta* off the record by {got['delta_star'] - want['delta_star']:.2e}"
    if got["error"] != want["error"]:
        return f"raised {got['error']}, recorded {want['error']}"
    if want["ring_closed"] is not None and got["ring_closed"] < want["ring_closed"]:
        return f"closed {got['ring_closed']} rings, recorded {want['ring_closed']}"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=os.path.dirname(HERE))
    ap.add_argument("--record", metavar="COMMIT")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    import numpy
    import scipy
    from spikecrown import geometry as geo
    from spikecrown import packing as pk

    recorded = None
    if not args.record:
        with open(RECORD) as fh:
            recorded = {(c["domain"], c["k"]): c for c in json.load(fh)["cases"]}
    cases, bad = [], 0
    for name, spec in DOMAINS.items():
        for k in KS:
            start = time.perf_counter()
            got = run_case(geo, pk, spec, k)
            wall = time.perf_counter() - start
            cases.append({"domain": name, "k": k, **got})
            outcome = got["error"] or f"{got['delta_star']!r}"
            line = f"{name:19s} k={k:2d}  {outcome:22s} rings {got['ring_closed']}"
            if recorded is not None:
                want = recorded[(name, k)]
                why = disagreement(got, want)
                bad += why is not None
                diff = ("" if got["delta_star"] is None or want["delta_star"] is None
                        else f"  diff {got['delta_star'] - want['delta_star']:+.1e}")
                line += f" (recorded {want['ring_closed']}){diff}  {why or 'ok'}"
            print(f"{line}  {wall:.2f} s", flush=True)
    if args.record:
        source = {"commit": args.record, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__}
        with open(RECORD, "w") as fh:
            json.dump({"source": source, "cases": cases}, fh, indent=1)
            fh.write("\n")
    else:
        print(f"{len(cases) - bad} of {len(cases)} cases agree with {os.path.basename(RECORD)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
