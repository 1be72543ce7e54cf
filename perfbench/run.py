"""Benchmark of the spike-crown pipeline: one CLI stage per workload.

Run from the repository root, with numpy and scipy installed:

    python3 perfbench/run.py --workload solve-disk --seed 1 --seconds 15 --trace 0

Set-up writes the workload's upstream artifacts in a fresh interpreter
(upstream.py) and is timed end to end; it is repeated SETUPS times and
setup_s is the median. The timed stage then runs in this process through
spikecrown.cli.main, one call at a time (a closed loop with one client),
each call on a fresh copy of the set-up directory, until --seconds have
passed and at least MIN_CALLS calls were made. Every call's output is
checked against the frozen reference, and its result files must hash
the same as the first call's; a call that exits non-zero, raises, fails
a check or differs in a hash counts as failed.

Stage calls and set-ups run with SPIKE_CROWN_THREADS=1, so the cli runs
its per-scale jobs one after another.

--trace 1 measures the layers instead: set-up runs in process with the
tracer's hooks installed, then one untraced call, one call with the
cli's default thread pool when the workload has several scales, and one
traced call. Per-layer metrics cover the traced set-up and the traced
call; the spans go to perfbench/_runs/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

SETUPS = 2
MIN_CALLS = 2
# stop starting calls once this much time has gone, so a slow machine
# still ends the run well inside its time limit
MAX_TIMED_S = 110.0
SETUP_TIMEOUT_S = 120.0


class Call:
    def __init__(self, wall, cpu, digest, errors):
        self.wall = wall
        self.cpu = cpu
        self.digest = digest
        self.errors = errors


def digest_dir(path):
    """SHA-256 of every file under path, by relative name."""
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def diff_digests(got, want):
    names = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
    return [f"{name} differs from the first call's" for name in names]


def call_stage(cli, wl, setup_dir, call_dir, ref, around=None):
    """One checked stage call on a copy of setup_dir."""
    from workloads import stage_argv

    shutil.copytree(setup_dir, call_dir)
    rc = None
    ctx = around() if around is not None else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with ctx, contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(stage_argv(wl.stage, call_dir))
    except Exception:  # a raising stage is a failed call, not a crash
        traceback.print_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    print(f"{os.path.basename(call_dir)}: {wall:.3f} s wall, {cpu:.3f} s cpu",
          file=sys.stderr)
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if rc == 0:
        try:
            errors = wl.check(call_dir, ref)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            errors = [f"unreadable output: {exc!r}"]
    return Call(wall, cpu, digest_dir(call_dir), errors)


def fresh_setup(wl, seed, out_dir):
    """Set-up in a new interpreter; returns (seconds, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "upstream.py"), wl.name,
           str(seed), out_dir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0, proc.returncode


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            for err in errors:
                print(f"FAILED {what}: {err}", file=sys.stderr)


def timed_run(wl, ref, seed, seconds, work):
    tally = Tally()
    setup_s = []
    first = None
    for i in range(SETUPS):
        d = os.path.join(work, f"setup{i}")
        wall, rc = fresh_setup(wl, seed, d)
        if rc != 0:
            raise SystemExit(f"set-up exited with code {rc}")
        setup_s.append(wall)
        got = digest_dir(d)
        first = first or got
        tally.add(f"set-up {i}", diff_digests(got, first))

    from spikecrown import cli

    setup_dir = os.path.join(work, "setup0")
    calls = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(calls) >= MIN_CALLS and (
                elapsed >= seconds or elapsed + calls[-1].wall > MAX_TIMED_S):
            break
        c = call_stage(cli, wl, setup_dir,
                       os.path.join(work, f"call{len(calls)}"), ref)
        if calls:
            c.errors += diff_digests(c.digest, calls[0].digest)
        tally.add(f"call {len(calls)}", c.errors)
        calls.append(c)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "job_s": (statistics.median(c.wall for c in calls), "s"),
        "job_cpu_s": (statistics.median(c.cpu for c in calls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    shown = dict(metrics, fail_ratio=(tally.failed / tally.attempted, "ratio"))
    notes = {"setup_s": f"median of {len(setup_s)} set-ups",
             "job_s": f"median of {len(calls)} calls",
             "job_cpu_s": f"median of {len(calls)} calls"}
    return tally, metrics, shown, notes


def traced_run(wl, ref, seed, work):
    from spikecrown import cli
    from workloads import write_upstream

    import layers
    from tracer import Tracer

    tally = Tally()
    tracer = Tracer()
    setup_dir = os.path.join(work, "setup")
    layers.instrument(tracer)
    try:
        rc = write_upstream(
            cli, wl, seed, setup_dir,
            around=lambda stage: tracer.job(f"setup.{stage}", f"cli.{stage}"))
    finally:
        tracer.unpatch()
    if rc != 0:
        raise SystemExit(f"set-up exited with code {rc}")

    plain = call_stage(cli, wl, setup_dir, os.path.join(work, "plain"), ref)
    tally.add("untraced call", plain.errors)

    pooled = None
    if wl.uses_pool:
        del os.environ["SPIKE_CROWN_THREADS"]  # the cli's default cap
        try:
            pooled = call_stage(cli, wl, setup_dir, os.path.join(work, "pooled"), ref)
        finally:
            os.environ["SPIKE_CROWN_THREADS"] = "1"
        tally.add("pooled call",
                  pooled.errors + diff_digests(pooled.digest, plain.digest))

    layers.instrument(tracer)
    try:
        traced = call_stage(cli, wl, setup_dir, os.path.join(work, "traced"), ref,
                            around=lambda: tracer.job(wl.stage, f"cli.{wl.stage}"))
    finally:
        tracer.unpatch()
    tally.add("traced call", traced.errors + diff_digests(traced.digest, plain.digest))

    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    metrics["cli.pool_speedup"] = (plain.wall / pooled.wall if pooled else 0.0, "ratio")
    metrics["cli.cpu_per_wall"] = (pooled.cpu / pooled.wall if pooled else 0.0, "ratio")
    os.makedirs(RUNS, exist_ok=True)
    trace_path = os.path.join(RUNS, f"trace-{wl.name}-seed{seed}.json")
    tracer.dump(trace_path)
    no_pool = "0: this stage runs one job, so no pool"
    notes = {"trace.overhead_s": "traced minus untraced wall of one call",
             "cli.pool_speedup": ("single-threaded wall / pooled wall" if pooled
                                  else no_pool),
             "cli.cpu_per_wall": "of the pooled call" if pooled else no_pool}
    print(f"trace written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    return tally, metrics, metrics, notes


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, load_reference

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spikecrown", "cli.py")):
        print(f"no spikecrown sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Stage calls run with one worker thread: on two shared cores the
    # pool's wall time (two GIL-bound threads) varied by 20% between
    # processes, far beyond the bounds. The traced run times the pool.
    os.environ["SPIKE_CROWN_THREADS"] = "1"
    # Likewise for BLAS threads, and numpy's transparent huge pages made
    # peak RSS vary by 10% between runs of the same solve.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

    wl = WORKLOADS[args.workload]
    ref = load_reference()[wl.name]
    os.makedirs(RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUNS)
    try:
        if args.trace:
            tally, metrics, shown, notes = traced_run(wl, ref, args.seed, work)
        else:
            tally, metrics, shown, notes = timed_run(wl, ref, args.seed,
                                                     args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}: spike-crown {wl.stage}, seed {args.seed}")
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
