"""Write one workload's upstream artifacts in a fresh interpreter.

    python3 perfbench/upstream.py <workload> <seed> <out_dir>

run.py times this script end to end as the workload's set-up: the
interpreter start, `import spikecrown`, and every upstream stage.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, write_upstream  # noqa: E402


def main(argv):
    from spikecrown import cli

    name, seed, out_dir = argv
    return write_upstream(cli, WORKLOADS[name], int(seed), out_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
