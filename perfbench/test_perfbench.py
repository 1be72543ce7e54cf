"""Tests of the benchmark itself.

    python3 -m pytest perfbench                 # everything, about 4 minutes
    python3 -m pytest perfbench -m "not slow"   # checks and tracer only
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
from tracer import Span, Tracer, _union_length
from workloads import WORKLOADS, check_pack, check_reduce, check_solve, load_reference

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    with open(BENCHMARK) as fh:
        return json.load(fh)


def test_names_are_plain():
    doc = spec()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
    assert all(NAME.fullmatch(n) for n in WORKLOADS)


def test_every_workload_has_a_reference():
    ref = load_reference()
    assert set(WORKLOADS) <= set(ref)
    assert ref["source"]["commit"]


# ---------------------------------------------------- output checks

def write_solve(d, peaks, residual=1e-12):
    with open(os.path.join(d, "solve_000.json"), "w") as fh:
        json.dump({"final_residual": residual,
                   "peaks": [{"x": x, "y": y, "sign": s, "amplitude": 1.0}
                             for x, y, s in peaks]}, fh)


def write_pack(d, delta_star, k, gap=0.01, chord_dev=0.0):
    with open(os.path.join(d, "pack.json"), "w") as fh:
        json.dump({"delta_star": delta_star, "k": k, "gap": gap}, fh)
    with open(os.path.join(d, "crown.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("i", "x", "y", "sign", "chord_to_next", "d_gamma"))
        for i in range(k):
            chord = 2.0 * delta_star + (chord_dev if i == 0 else 0.0)
            w.writerow((i, 0.0, 0.0, (-1) ** i, repr(chord), delta_star))


def write_reduce(d, log_m, admissible=True):
    jobs = []
    for i, val in enumerate(log_m):
        name = f"reduce_{i:03d}.json"
        with open(os.path.join(d, name), "w") as fh:
            json.dump({"log_M": val, "checks": {"admissible": admissible,
                                                "grad_norm": 1e-7}}, fh)
        jobs.append({"file": name})
    with open(os.path.join(d, "reduce.json"), "w") as fh:
        json.dump({"jobs": jobs}, fh)


def test_solve_check(tmp_path):
    ref = load_reference()["solve-disk"]
    peaks = [list(p) for p in ref["peaks"]]
    write_solve(tmp_path, peaks)
    assert check_solve(tmp_path, ref) == []
    write_solve(tmp_path, peaks, residual=2e-10)
    assert check_solve(tmp_path, ref)
    moved = [p[:] for p in peaks]
    moved[1][0] += 1e-4
    write_solve(tmp_path, moved)
    assert check_solve(tmp_path, ref)
    flipped = [p[:] for p in peaks]
    flipped[2][2] *= -1
    write_solve(tmp_path, flipped)
    assert check_solve(tmp_path, ref)
    write_solve(tmp_path, peaks[:-1])
    assert check_solve(tmp_path, ref)


def test_pack_check(tmp_path):
    ref = load_reference()["pack-ellipse"]
    write_pack(tmp_path, ref["delta_star"], ref["k"])
    assert check_pack(tmp_path, ref) == []
    write_pack(tmp_path, ref["delta_star"] + 1e-5, ref["k"])
    assert check_pack(tmp_path, ref)
    write_pack(tmp_path, ref["delta_star"], ref["k"], chord_dev=1e-7)
    assert check_pack(tmp_path, ref)
    write_pack(tmp_path, ref["delta_star"], ref["k"], gap=0.0)
    assert check_pack(tmp_path, ref)


def test_reduce_check(tmp_path):
    ref = load_reference()["reduce-disk"]
    write_reduce(tmp_path, ref["log_M"])
    assert check_reduce(tmp_path, ref) == []
    write_reduce(tmp_path, [ref["log_M"][0], ref["log_M"][1] + 1e-5])
    assert check_reduce(tmp_path, ref)
    write_reduce(tmp_path, ref["log_M"], admissible=False)
    assert check_reduce(tmp_path, ref)


def test_digest_mismatch_is_reported(tmp_path):
    (tmp_path / "a.json").write_text("{}")
    first = run.digest_dir(tmp_path)
    assert run.diff_digests(run.digest_dir(tmp_path), first) == []
    (tmp_path / "a.json").write_text("{} ")
    assert run.diff_digests(run.digest_dir(tmp_path), first)


# ----------------------------------------------------------- tracer

def test_union_length_merges_overlaps():
    assert _union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert _union_length([(-1, 2)], 0, 1) == 1
    assert _union_length([], 0, 1) == 0


def test_self_times_and_outer_totals():
    t = Tracer()
    t.spans = [Span(1, "cli.solve", 0.0, 10.0, None, 0, "j"),
               Span(2, "pde.newton", 1.0, 9.0, 1, 0, "j"),
               Span(3, "pde.lu", 2.0, 5.0, 2, 0, "j"),
               Span(4, "packing.root_find", 0.0, 0.5, 1, 0, "j"),
               Span(5, "packing.root_find", 0.1, 0.2, 4, 0, "j")]
    own = t.self_times()
    assert own["cli"] == pytest.approx(1.5)
    assert own["pde"] == pytest.approx(8.0)
    assert own["packing"] == pytest.approx(0.5)
    totals = t.outer_totals()
    assert totals["packing.root_find"] == pytest.approx(0.5)
    assert totals["pde.lu"] == pytest.approx(3.0)


def test_instrument_restores_every_hook():
    import layers
    from spikecrown import cli, geometry, packing, pde, reduced_energy

    mods = (cli, geometry, packing, pde, reduced_energy,
            geometry.ConvexCurve, geometry.PlanarDomain)
    before = [dict(vars(m)) for m in mods]
    t = Tracer()
    layers.instrument(t)
    assert pde.spla is not before[3]["spla"]
    t.unpatch()
    assert [dict(vars(m)) for m in mods] == before


# ------------------------------------------------- whole benchmark

def run_bench(workload, trace, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_output_has_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    want = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = run_bench("pack-ellipse", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
