"""Freeze the reference values that the output checks compare against.

    python3 perfbench/freeze_reference.py --commit <id>

Runs every workload's set-up and stage once, with seed 0, and rewrites
reference.json. Run it only on a commit whose numbers are the contract;
the file records that commit and the library versions used.
"""

import argparse
import contextlib
import json
import platform
import sys
import tempfile

import run
from workloads import REFERENCE_PATH, VALUES, WORKLOADS, stage_argv, write_upstream

KEEP = {"solve": ("peaks",), "pack": ("delta_star", "k"), "reduce": ("log_M",)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True,
                    help="commit the reference values come from")
    args = ap.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import numpy
    import scipy
    from spikecrown import cli

    doc = {"source": {
        "commit": args.commit,
        "command": "python3 perfbench/freeze_reference.py",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": 0,
    }}
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as d:
            with contextlib.redirect_stdout(sys.stderr):
                rc = write_upstream(cli, wl, 0, d) or cli.main(stage_argv(wl.stage, d))
            if rc:
                raise SystemExit(f"{name}: stage failed with exit code {rc}")
            values = VALUES[wl.stage](d)
        doc[name] = {key: values[key] for key in KEEP[wl.stage]}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
