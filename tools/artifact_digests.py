"""SHA-256 of every file that a fixed set of CLI runs writes.

Usage:

    python tools/artifact_digests.py [CHECKOUT] [--verify] [--against OTHER]

Runs each case below with `python -m spikecrown` from CHECKOUT's `src`
(default: the checkout holding this script), each in a fresh temporary
directory, and prints one `sha256  case/path` line per written file and
one `exit  case  code` line per command, sorted. Two checkouts that
write the same bits print the same lines, so `diff` of two outputs is
the bit-for-bit check of a refactor. `--verify` adds `verify --seed 0`,
which takes about 15 s on a busy 2-core host (about 55 s for the whole
run).

`--against OTHER` runs every case in both checkouts and prints, instead
of the digests, one line per file whose bytes differ: the largest
absolute difference over its numeric CSV cells and JSON leaves and the
largest relative one, |a - b| / max(|a|, |b|), or what keeps the two
from lining up (a missing file, a changed header, shape
or text cell). Exit codes that differ get an `exit` line, and the last
line counts the files that are byte-identical.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

DISK = {"kind": "circle", "radius": 1.0}
ELLIPSE = {"kind": "ellipse", "a": 1.2, "b": 1.0}
ELLIPSE_2X1 = {"kind": "ellipse", "a": 2.0, "b": 1.0}
SUPERELLIPSE = {"kind": "superellipse", "a": 1.0, "b": 1.0, "m": 4.0}
# 24 points of the 1.3x1 ellipse, interpolated by a periodic spline
SPLINE = {"kind": "spline",
          "points": [[1.3 * math.cos(2.0 * math.pi * j / 24), math.sin(2.0 * math.pi * j / 24)]
                     for j in range(24)]}

# (case, command, config, extra arguments)
CASES = [
    ("ground-state-p3n2", "ground-state", {"p": 3.0, "N": 2}, []),
    ("ground-state-p4n1", "ground-state", {"p": 4.0, "N": 1}, []),
    ("pack-ellipse", "pack", {"domain": ELLIPSE, "k": 4}, ["--seed", "7"]),
    # its gap check solves for a 9-ring's offset
    ("pack-ellipse-2x1", "pack", {"domain": ELLIPSE_2X1, "k": 10}, []),
    # sized by delta0, so choose_spike_count runs: k = 10
    ("pack-ellipse-delta0", "pack", {"domain": ELLIPSE, "delta0": 0.35}, []),
    ("pack-disk", "pack", {"domain": DISK, "k": 8}, []),
    ("pack-superellipse", "pack", {"domain": SUPERELLIPSE, "k": 6}, []),
    ("pack-spline", "pack", {"domain": SPLINE, "k": 4}, []),
    ("reduce-disk", "reduce", {"domain": DISK, "k": 6, "eps_fractions": [5, 6]}, []),
    ("reduce-ellipse-psi", "reduce",
     {"domain": ELLIPSE, "k": 4, "eps_fractions": [6], "form": "psi_numeric"}, []),
    ("solve-disk", "solve", {"domain": DISK, "k": 4, "eps_fractions": [6]}, []),
    ("solve-disk-continuation", "solve", {"domain": DISK, "k": 4, "eps_fractions": [6, 7]},
     ["--continuation"]),
    # a Newton solve without the disk's symmetry
    ("solve-ellipse", "solve", {"domain": ELLIPSE, "k": 4, "eps_fractions": [6]}, []),
    ("config-error-seed", "ground-state", {"seed": None}, []),
    ("config-error-p", "ground-state", {"p": None}, []),
    ("config-error-no-scales", "reduce", {"domain": DISK, "k": 4}, []),
    ("config-error-domain-number", "pack", {"domain": {"kind": "circle", "radius": "a"},
                                            "k": 4}, []),
    ("config-error-domain-key", "pack",
     {"domain": {"kind": "circle", "radius": 1.0, "centre": [0.5, 0.0]}, "k": 4}, []),
]
VERIFY_CASE = ("verify", "verify", {}, ["--seed", "0"])


def run_case(src, command, config, extra):
    """Exit code of one case and {path: bytes} of the files it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "spikecrown", command, "--config", cfg_path,
             "--out", out, *extra],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        files = {}
        for root, _, names in os.walk(out):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
    return proc.returncode, files


def digest_lines(case, code, files):
    lines = [f"exit  {case}  {code}"]
    lines.extend(f"{hashlib.sha256(data).hexdigest()}  {case}/{name}"
                 for name, data in files.items())
    return lines


class Mismatch(Exception):
    """The two files do not line up value for value."""


def _number_gap(a, b):
    """(absolute, relative) difference of two numbers."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


def _max_gap(gaps):
    """Largest absolute and largest relative difference of a sequence of
    (absolute, relative) pairs, each taken on its own."""
    gap_abs = gap_rel = 0.0
    for a, r in gaps:
        gap_abs, gap_rel = max(gap_abs, a), max(gap_rel, r)
    return gap_abs, gap_rel


def _csv_gap(a, b):
    ra = list(csv.reader(a.decode().splitlines()))
    rb = list(csv.reader(b.decode().splitlines()))
    if not ra or not rb or ra[0] != rb[0]:
        raise Mismatch("header differs")
    if [len(r) for r in ra] != [len(r) for r in rb]:
        raise Mismatch("shape differs")
    gaps = []
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                gaps.append(_number_gap(float(x), float(y)))
            except ValueError:
                raise Mismatch(f"text cell {x!r} against {y!r}") from None
    return _max_gap(gaps)


def _json_gap(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"keys differ: {sorted(a.keys() ^ b.keys())}")
        return _max_gap(_json_gap(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch("list length differs")
        return _max_gap(_json_gap(x, y) for x, y in zip(a, b))
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers:
        return _number_gap(float(a), float(b))
    if a != b:
        raise Mismatch(f"leaf {a!r} against {b!r}")
    return 0.0, 0.0


def value_gap(name, a, b):
    """Largest absolute and largest relative difference between two
    versions of one artifact, over its numbers."""
    if name.endswith(".csv"):
        return _csv_gap(a, b)
    if name.endswith(".json"):
        return _json_gap(json.loads(a), json.loads(b))
    raise Mismatch("neither CSV nor JSON")


def compare_lines(case, mine, theirs):
    """Report lines for one case run in two checkouts, and the count of
    byte-identical files."""
    (code_a, files_a), (code_b, files_b) = mine, theirs
    lines = [] if code_a == code_b else [f"exit  {case}  {code_a} against {code_b}"]
    same = 0
    for name in sorted(files_a.keys() | files_b.keys()):
        label = f"{case}/{name}"
        if name not in files_b or name not in files_a:
            where = "this checkout" if name in files_a else "the other"
            lines.append(f"only in {where}  {label}")
        elif files_a[name] == files_b[name]:
            same += 1
        else:
            try:
                gap_abs, gap_rel = value_gap(name, files_a[name], files_b[name])
                lines.append(f"max |diff| {gap_abs:.3g}  max rel {gap_rel:.3g}  {label}")
            except Mismatch as exc:
                lines.append(f"differs  {label}  ({exc})")
    return lines, same


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=here,
                    help="repository checkout to run (default: this one)")
    ap.add_argument("--verify", action="store_true",
                    help="also run `verify --seed 0` (about 10 s)")
    ap.add_argument("--against", metavar="OTHER", default=None,
                    help="also run OTHER checkout and report how each differing "
                         "file's values differ")
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    cases = CASES + ([VERIFY_CASE] if args.verify else [])
    if args.against is None:
        lines = []
        for case, *spec in cases:
            lines.extend(digest_lines(case, *run_case(src, *spec)))
        print("\n".join(sorted(lines)))
        return 0
    other = os.path.join(os.path.abspath(args.against), "src")
    lines, same = [], 0
    for case, *spec in cases:
        case_lines, case_same = compare_lines(
            case, run_case(src, *spec), run_case(other, *spec))
        lines.extend(case_lines)
        same += case_same
    print("\n".join(lines + [f"{same} files byte-identical"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
