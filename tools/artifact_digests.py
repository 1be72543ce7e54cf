"""SHA-256 of every file that a fixed set of CLI runs writes.

Usage:

    python tools/artifact_digests.py [CHECKOUT] [--verify]

Runs each case below with `python -m spikecrown` from CHECKOUT's `src`
(default: the checkout holding this script), each in a fresh temporary
directory, and prints one `sha256  case/path` line per written file and
one `exit  case  code` line per command, sorted. Two checkouts that
write the same bits print the same lines, so `diff` of two outputs is
the bit-for-bit check of a refactor. `--verify` adds `verify --seed 0`,
which takes about 90 s.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

DISK = {"kind": "circle", "radius": 1.0}
ELLIPSE = {"kind": "ellipse", "a": 1.2, "b": 1.0}

# (case, command, config, extra arguments)
CASES = [
    ("ground-state-p3n2", "ground-state", {"p": 3.0, "N": 2}, []),
    ("ground-state-p4n1", "ground-state", {"p": 4.0, "N": 1}, []),
    ("pack-ellipse", "pack", {"domain": ELLIPSE, "k": 4}, ["--seed", "7"]),
    ("pack-disk", "pack", {"domain": DISK, "k": 8}, []),
    ("reduce-disk", "reduce", {"domain": DISK, "k": 6, "eps_fractions": [5, 6]}, []),
    ("reduce-ellipse-psi", "reduce",
     {"domain": ELLIPSE, "k": 4, "eps_fractions": [6], "form": "psi_numeric"}, []),
    ("solve-disk", "solve", {"domain": DISK, "k": 4, "eps_fractions": [6]}, []),
    ("solve-disk-continuation", "solve", {"domain": DISK, "k": 4, "eps_fractions": [6, 7]},
     ["--continuation"]),
    ("config-error-seed", "ground-state", {"seed": None}, []),
    ("config-error-p", "ground-state", {"p": None}, []),
    ("config-error-no-scales", "reduce", {"domain": DISK, "k": 4}, []),
]
VERIFY_CASE = ("verify", "verify", {}, ["--seed", "0"])


def run_case(src, case, command, config, extra):
    """Lines for one case: its exit code and the digest of each file it wrote."""
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
        lines = [f"exit  {case}  {proc.returncode}"]
        for root, _, files in os.walk(out):
            for name in files:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append(f"{digest}  {case}/{os.path.relpath(path, out)}")
    return lines


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?", default=here,
                    help="repository checkout to run (default: this one)")
    ap.add_argument("--verify", action="store_true",
                    help="also run `verify --seed 0` (about 90 s)")
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    cases = CASES + ([VERIFY_CASE] if args.verify else [])
    lines = []
    for case in cases:
        lines.extend(run_case(src, *case))
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
