"""Config plumbing, subcommands, artifact schemas, and determinism.

Command tests run `python -m spikecrown`, the install-free form of the
spike-crown command, in a subprocess on small jobs (unit disk, k = 4).
The child imports the same source tree as this module, so no install is
needed; the acceptance checklist itself is exercised elsewhere.
Oracles: closed-form circle quantities, the profile amplitude from the
written header, and byte comparison of rerun artifacts.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spikecrown
from spikecrown import cli, errors, pde, verify
from spikecrown import geometry as geo
from spikecrown.errors import ConfigError, NumericalError

SQRT2M1 = 0.41421356237309503  # critical offset of the k=4 crown on the unit disk

# Directory holding the imported spikecrown package. It goes first on the
# child's PYTHONPATH as an absolute path: the child runs in a temporary
# cwd, where a relative entry such as PYTHONPATH=src no longer resolves,
# and it must run this code rather than some other installed copy.
SOURCE_ROOT = str(Path(spikecrown.__file__).resolve().parents[1])


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "spikecrown", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def write_job(path, **overrides):
    job = {"domain": {"kind": "circle", "radius": 1.0}}
    job.update(overrides)
    path.write_text(json.dumps(job))
    return path


# --------------------------------------------------------------- config

def test_config_round_trip_bit_exact():
    cfg = cli.config_from_dict({
        "domain": {"kind": "ellipse", "a": 2.0, "b": 1.0},
        "k": 8, "eps_fractions": [8.0, 12.0], "seed": 42,
    })
    text = cli.serialize_config(cfg)
    again = cli.config_from_dict(json.loads(text))
    assert again == cfg
    assert cli.serialize_config(again) == text


def test_config_digest_ignores_key_order():
    a = cli.config_from_dict({"k": 8, "p": 3.0})
    b = cli.config_from_dict({"p": 3.0, "k": 8})
    assert cli.config_digest(a) == cli.config_digest(b)
    c = cli.config_from_dict({"k": 10, "p": 3.0})
    assert cli.config_digest(c) != cli.config_digest(a)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.config_from_dict({"epsilonn": [0.1]})


@pytest.mark.parametrize("raw", [
    {"seed": -1},
    {"seed": 2 ** 64},
    {"form": "subleading"},
    {"h_divisor": 0.0},
    # the solver needs h <= eps/4; a coarser rule fails only after the
    # ground state, pack and reduce have run
    {"h_divisor": 2.0},
    {"epsilon": 0.1},
    {"N": 2.5},
    {"domain": "circle"},
    {"k": "x"},
    # float() reads True as 1.0 and "3" as 3.0; a config must not
    {"h_divisor": True},
    {"epsilon": [True, "0.05"]},
    {"p": "3"},
    {"eta": False},
    # non-finite numbers would reach the config hash as NaN
    {"h_divisor": float("nan")},
    {"p": float("nan")},
    {"eta": float("nan")},
    {"delta0": -float("inf")},
])
def test_config_rejects_bad_values(raw):
    # parsing and direct construction run the same checks
    with pytest.raises(ConfigError):
        cli.config_from_dict(raw)
    with pytest.raises(ConfigError):
        cli.JobConfig(**raw)


@pytest.mark.parametrize("key", ["seed", "p"])
def test_null_number_is_config_error(tmp_path, key):
    # a JSON null used to reach JobConfig unchecked: seed crashed with a
    # TypeError traceback, p was accepted and pack ran to completion
    write_job(tmp_path / "job.json", k=4, **{key: None})
    r = run_cli(["pack", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["type"] == "ConfigError"
    assert key in err["error"]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(f.name for f in dataclasses.fields(cli.JobConfig))),
    _JSON_VALUES))
@example({"p": 3})  # an int p once stayed an int on construction
def test_fuzzed_config_is_job_or_config_error(raw):
    try:
        cfg = cli.config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, cli.JobConfig)
    # direct construction runs the same coercions, so it stamps the same digest
    direct = cli.JobConfig(**raw)
    assert direct == cfg
    assert cli.config_digest(direct) == cli.config_digest(cfg)


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("SPIKE_CROWN_THREADS", "3")
    assert cli.thread_cap() == 3
    monkeypatch.setenv("SPIKE_CROWN_THREADS", "0")
    with pytest.raises(ConfigError):
        cli.thread_cap()
    monkeypatch.setenv("SPIKE_CROWN_THREADS", "many")
    with pytest.raises(ConfigError):
        cli.thread_cap()
    monkeypatch.delenv("SPIKE_CROWN_THREADS")
    assert cli.thread_cap() >= 1


def test_missing_config_file_exits_2(tmp_path):
    code = cli.main(["pack", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["type"] == "ConfigError"


def test_seed_override_validated(tmp_path):
    job = write_job(tmp_path / "job.json", k=4)
    code = cli.main(["pack", "--config", str(job), "--out", str(tmp_path),
                     "--seed", "-1"])
    assert code == 2


def test_config_object_validates_itself():
    # the checks live on JobConfig, so a replaced field is checked too
    with pytest.raises(ConfigError, match="seed must fit in 64 bits"):
        cli.JobConfig(seed=-1)
    cfg = cli.config_from_dict({"k": 4})
    with pytest.raises(ConfigError, match="h_divisor must be positive"):
        dataclasses.replace(cfg, h_divisor=0.0)


def test_continuation_is_a_solve_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pack", "--continuation", "--config",
                  str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert exc.value.code == 2


# every failure class the package defines, ConfigError and NumericalError included
SPIKE_CROWN_ERRORS = sorted(
    (c for c in vars(errors).values() if isinstance(c, type)
     and issubclass(c, errors.SpikeCrownError) and c is not errors.SpikeCrownError),
    key=lambda c: c.__name__)


@pytest.mark.parametrize("exc_type", SPIKE_CROWN_ERRORS, ids=lambda c: c.__name__)
def test_failure_exit_rule(tmp_path, monkeypatch, capsys, exc_type):
    def failing_stage(cfg, out_dir):
        raise exc_type("stubbed stage failure")

    monkeypatch.setattr(cli, "run_pack", failing_stage)
    job = write_job(tmp_path / "job.json", k=4)
    code = 2 if exc_type in (ConfigError, errors.ParallelCurveDegeneracyError) else 3
    assert cli.main(["pack", "--config", str(job), "--out", str(tmp_path)]) == code
    prefix = "config error" if code == 2 else "numerical failure"
    out, err = capsys.readouterr()
    assert err == f"{prefix}: stubbed stage failure\n"
    assert "done in" not in out
    doc = json.loads((tmp_path / "error.json").read_text())
    assert doc == {"error": "stubbed stage failure", "type": exc_type.__name__,
                   "exit_code": code}


def test_successful_rerun_clears_a_stale_error_json(tmp_path, monkeypatch):
    def failing_stage(cfg, out_dir):
        raise errors.NumericalError("stubbed stage failure")

    job = write_job(tmp_path / "job.json", k=4)
    argv = ["pack", "--config", str(job), "--out", str(tmp_path)]
    monkeypatch.setattr(cli, "run_pack", failing_stage)
    assert cli.main(argv) == 3
    assert (tmp_path / "error.json").exists()
    monkeypatch.setattr(cli, "run_pack", lambda cfg, out: (4, 0.4, 0.04, None))
    assert cli.main(argv) == 0
    assert not (tmp_path / "error.json").exists()


@pytest.mark.parametrize("argv", [["ground-state"], ["pack"], ["reduce"], ["solve"],
                                  ["solve", "--continuation"], ["verify"]],
                         ids=" ".join)
def test_every_command_prints_done_in_once(tmp_path, monkeypatch, capsys, argv):
    # the stages are stubbed: this covers only the command layer
    solves = []
    profile = types.SimpleNamespace(w0=1.5, decay_A=2.0)
    job = {"eps": 0.1, "log_M": -1.0, "iterations": 3, "final_residual": 1e-12}
    monkeypatch.setattr(cli, "run_ground_state", lambda cfg, out: (profile, 1.2, 12.0))
    monkeypatch.setattr(cli, "run_pack", lambda cfg, out: (4, 0.4, 0.04, None))
    monkeypatch.setattr(cli, "run_reduce", lambda cfg, out: [job])
    monkeypatch.setattr(cli, "run_solve",
                        lambda cfg, out, continuation: solves.append(continuation) or [job])
    monkeypatch.setattr(verify, "verification_report",
                        lambda seed, echo: {"criteria": [], "all_pass": True})
    cfg_path = write_job(tmp_path / "job.json", k=4)
    assert cli.main([*argv, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "done in" in line] == [lines[-1]]
    assert lines[-1].startswith("done in ") and lines[-1].endswith(" s")
    assert solves == ([argv == ["solve", "--continuation"]] if argv[0] == "solve" else [])


@pytest.mark.parametrize("domain", [
    {"kind": "circle", "radius": "a"},
    {"kind": "ellipse", "a": None, "b": 1},
    {"kind": "superellipse", "a": 1, "b": 1, "m": "x"},
    {"kind": "circle", "radius": float("inf")},
    {"kind": "circle", "radius": -1.0},
    {"kind": "spline", "points": "abc"},
    {"kind": "spline", "points": [[0, 0], [1, 0], [1, 1], [0, "x"]]},
    {"kind": "spline", "csv": "missing.csv"},
    {"kind": "spline", "csv": "missing.csv", "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
    {"kind": "circle", "radius": 1.0, "center": "ab"},
    {"kind": "circle", "radius": 1.0, "center": [0]},
    {"kind": "circle", "radius": 1.0, "center": [0.0, float("nan")]},
    {"kind": "ellipse", "a": True, "b": 1},
    {"kind": "circle", "radius": 1.0, "centre": [0.5, 0]},
    {"kind": ["circle"], "radius": 1.0},
], ids=lambda d: json.dumps(d, allow_nan=True))
def test_malformed_domain_exits_2(tmp_path, monkeypatch, domain):
    monkeypatch.chdir(tmp_path)  # "missing.csv" is looked up here
    job = write_job(tmp_path / "job.json", domain=domain, k=4)
    out = tmp_path / "o"
    assert cli.main(["pack", "--config", str(job), "--out", str(out)]) == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc["type"] == "ConfigError" and doc["exit_code"] == 2
    assert not (out / "pack.json").exists()


@pytest.mark.parametrize("command", ["ground-state", "verify"])
def test_malformed_domain_exits_2_on_commands_without_a_domain(tmp_path, monkeypatch,
                                                               command):
    # the domain spec is checked when the config is read, so a command
    # that never builds the domain still refuses it
    monkeypatch.setattr(verify, "verification_report",
                        lambda seed, echo: {"criteria": [], "all_pass": True})
    job = write_job(tmp_path / "job.json", domain={"kind": "circle", "radius": "a"})
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(job), "--out", str(out)]) == 2
    doc = json.loads((out / "error.json").read_text())
    assert doc == {"error": "circle radius must be a finite number, got 'a'",
                   "type": "ConfigError", "exit_code": 2}
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_output_path_under_a_file_exits_2(tmp_path, capsys):
    job = write_job(tmp_path / "job.json", k=4)
    (tmp_path / "afile").write_text("")
    assert cli.main(["pack", "--config", str(job), "--out",
                     str(tmp_path / "afile" / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot use output directory")


# -------------------------------------------------------------- writers

def per_cell(v):
    # oracle: the CSV cell formatter before its Python-float fast path
    if isinstance(v, (bool, np.bool_)):
        raise ValueError("no boolean CSV cells")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def test_csv_bytes_match_the_per_cell_formatter(tmp_path):
    floats = [0.1, -0.0, 1e-310, 1e300, -2.5e-17, 1.0 / 3.0, 7.0]
    ints = [0, -3, np.int64(2 ** 40), np.int32(-7), 5, 6, 7]
    path = tmp_path / "t.csv"
    for cast in (float, np.float64):
        rows = [(i, cast(x), cast(-x)) for i, x in zip(ints, floats)]
        want = "i,x,y\n" + "".join(",".join(per_cell(v) for v in row) + "\n"
                                  for row in rows)
        cli._write_csv(path, ("i", "x", "y"), rows)
        assert path.read_bytes() == want.encode()
    # the field writer's table: one float array, as rows or whole
    table = np.array(floats).reshape(-1, 1) * [1.0, -1.0, 3.0]
    want = "x,y,value\n" + "".join(",".join(per_cell(v) for v in row) + "\n"
                                   for row in table)
    for rows in (table.tolist(), table):
        cli._write_csv(path, ("x", "y", "value"), rows)
        assert path.read_bytes() == want.encode()
    for flag in (True, np.bool_(False)):
        with pytest.raises(ValueError, match="boolean"):
            cli._write_csv(tmp_path / "b.csv", ("a",), [(flag,)])


def test_csv_bytes_match_the_per_cell_formatter_at_the_edges(tmp_path):
    # signed zeros, the least subnormal, infinities, nan, and integers
    # past 2^53 (where a float would round them) keep the per-cell bytes
    floats = [-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.7976931348623157e308]
    ints = [2 ** 62 + 1, -(2 ** 63), np.int64(2 ** 63 - 1), np.uint64(2 ** 64 - 1),
            10 ** 30, 0, -1, 2 ** 53 + 1]
    path = tmp_path / "t.csv"
    rows = list(zip(ints, floats, [np.float64(v) for v in floats]))
    want = "i,x,y\n" + "".join(",".join(per_cell(v) for v in row) + "\n" for row in rows)
    cli._write_csv(path, ("i", "x", "y"), rows)
    assert path.read_bytes() == want.encode()
    for table in (np.array(floats).reshape(-1, 2),
                  np.array([2 ** 62 + 1, -(2 ** 63), 2 ** 63 - 1, 7], dtype=np.int64).reshape(-1, 2)):
        cli._write_csv(path, ("a", "b"), table)
        want = "a,b\n" + "".join(",".join(per_cell(v) for v in row) + "\n" for row in table)
        assert path.read_bytes() == want.encode()
    cli._write_csv(path, ("a", "b"), [])
    assert path.read_bytes() == b"a,b\n"
    with pytest.raises(ValueError, match="boolean"):
        cli._write_csv(path, ("a", "b"), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="boolean"):
        cli._write_csv(path, ("a",), [(1,), (True,)])
    # no one conversion prints both 3 and 0.5 as the per-cell formatter did
    with pytest.raises(ValueError, match="mixes"):
        cli._write_csv(path, ("a",), [(3,), (0.5,)])


# ------------------------------------------------- acceptance helpers

def _grid(center):
    dom = geo.PlanarDomain(geo.circle(1.0, center=center))
    return pde.discretize(dom, 0.04)


def test_dihedral_defect_matches_node_lookup():
    grid = _grid((0.0, 0.0))
    vals = np.random.default_rng(3).standard_normal(grid.n_nodes)
    fld = pde.DiscreteField(grid, 0.16, vals)
    # oracle: look each mapped node up by its lattice coordinates
    lut = {(int(i), int(j)): r for r, (i, j) in enumerate(grid.abs_index())}
    worst = 0.0
    for T in (lambda i, j: (-j, i), lambda i, j: (-i, -j),
              lambda i, j: (j, -i), lambda i, j: (i, -j),
              lambda i, j: (-i, j), lambda i, j: (j, i),
              lambda i, j: (-j, -i)):
        perm = [lut[T(int(i), int(j))] for i, j in grid.abs_index()]
        worst = max(worst, float(np.abs(vals[perm] - vals).max()))
    assert verify._dihedral_defect(grid, fld) == worst


def test_dihedral_defect_off_center_is_numerical_error():
    grid = _grid((0.3, 0.1))
    fld = pde.DiscreteField(grid, 0.16, np.zeros(grid.n_nodes))
    with pytest.raises(NumericalError, match="symmetry map"):
        verify._dihedral_defect(grid, fld)


def _entry(cid, ok=True, error=None):
    entry = {"id": cid, "name": f"check-{cid}", "pass": ok}
    if error is None:
        entry["measured"] = {"value": 0.5 * cid}
    else:
        entry["error"] = error
    return entry


@pytest.mark.parametrize("failing, error, code", [
    (None, None, 0),
    (8, None, 1),
    (10, "NumericalError: newton family stage unavailable", 3),
], ids=["all-pass", "criterion-fails", "criterion-raises"])
def test_verify_exit_code_and_verdict(tmp_path, monkeypatch, failing, error, code):
    # the checklist itself is stubbed: this covers only the command
    entries = [_entry(cid, ok=cid != failing, error=error if cid == failing else None)
               for cid in range(1, 11)]
    report = {"criteria": entries, "all_pass": failing is None, "seed": 5}
    calls = []

    def fake_report(seed=0, echo=None):
        calls.append(seed)
        echo("criterion lines go to stdout")
        return report

    monkeypatch.setattr(verify, "verification_report", fake_report)
    job = write_job(tmp_path / "job.json")
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert cli.main(["verify", "--config", str(job), "--out", str(out),
                     "--seed", "5"]) == code
    assert time.perf_counter() - t0 < 1.0
    assert calls == [5]
    cfg = dataclasses.replace(cli.parse_config(str(job)), seed=5)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict == {**report, **cli._stamp(cfg)}
    assert not (out / "error.json").exists()


# --------------------------------------------------------- ground-state

def test_ground_state_prints_closed_form_amplitude(tmp_path):
    job = write_job(tmp_path / "job.json", p=3.0, N=1, out=str(tmp_path / "o"))
    del job  # config carries out; no --out needed
    r = run_cli(["ground-state", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    first = r.stdout.splitlines()[0]
    assert first.startswith("w0 = ")
    assert abs(float(first.split("=")[1]) - 1.5) <= 1e-12
    out = tmp_path / "o"
    for name in ("profile.csv", "profile.json", "constants.json"):
        assert (out / name).exists()
    consts = json.loads((out / "constants.json").read_text())
    assert abs(consts["e1"] - 1.2) < 1e-6
    assert abs(consts["gamma"] - 12.0) < 1e-6
    assert consts["version"] == cli.__version__
    assert len(consts["config_sha256"]) == 64


def test_ground_state_profile_reloads_identically(tmp_path):
    write_job(tmp_path / "job.json", p=4.0, N=2, out=str(tmp_path / "o"))
    r = run_cli(["ground-state", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    out = tmp_path / "o"
    # the stamped header keys must not break the loader
    cfg = cli.config_from_dict({"p": 4.0, "N": 2})
    prof = cli._read_profile(cfg, out)
    again = cli._read_profile(cfg, out)
    assert prof.w0 == again.w0
    assert np.array_equal(prof.w_values, again.w_values)
    header = json.loads((out / "profile.json").read_text())
    assert header["w0"] == prof.w0
    assert header["p"] == 4.0


def test_ground_state_subcritical_rejected(tmp_path):
    write_job(tmp_path / "job.json", p=1.5, N=1, out=str(tmp_path / "o"))
    r = run_cli(["ground-state", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 2
    err = json.loads((tmp_path / "o" / "error.json").read_text())
    assert err["type"] == "ConfigError"
    assert "p" in err["error"]


def test_ground_state_decay_fit_failure_exits_3(tmp_path):
    write_job(tmp_path / "job.json", p=2.1, N=1, out=str(tmp_path / "o"))
    r = run_cli(["ground-state", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr
    err = json.loads((tmp_path / "o" / "error.json").read_text())
    assert err["type"] == "DecayFitError"
    assert err["exit_code"] == 3


# ----------------------------------------------------------------- pack

def test_pack_auto_spike_count(tmp_path):
    write_job(tmp_path / "job.json", delta0=0.3, out=str(tmp_path / "o"))
    r = run_cli(["pack", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "k = 12" in r.stdout
    meta = json.loads((tmp_path / "o" / "pack.json").read_text())
    exact = np.sin(np.pi / 12) / (1.0 + np.sin(np.pi / 12))
    assert abs(meta["delta_star"] - exact) / exact < 1e-8
    assert meta["gap"] > 0.0
    rows = (tmp_path / "o" / "crown.csv").read_text().splitlines()
    assert rows[0] == "i,x,y,sign,chord_to_next,d_gamma"
    assert len(rows) == 13
    tab = np.genfromtxt(rows[1:], delimiter=",")
    signs = tab[:, 3].astype(int)
    assert np.all(signs * np.roll(signs, -1) == -1)
    np.testing.assert_allclose(tab[:, 4], 2 * meta["delta_star"], atol=1e-8)


def test_pack_rejects_nonconvex_spline(tmp_path):
    th = np.arange(48) / 48.0 * 2 * np.pi
    rr = 1.0 + 0.4 * np.cos(3 * th)
    pts = np.column_stack([rr * np.cos(th), rr * np.sin(th)])
    write_job(tmp_path / "job.json", k=6, out=str(tmp_path / "o"),
              domain={"kind": "spline", "points": pts.tolist()})
    r = run_cli(["pack", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 2
    err = json.loads((tmp_path / "o" / "error.json").read_text())
    assert err["type"] == "ConfigError"


def test_eps_above_scale_separation_rejected(tmp_path):
    # delta*/5 = 0.0828 for the k=4 crown; 0.1 is refused once the pack
    # gives delta*, before any minimization
    write_job(tmp_path / "job.json", k=4, epsilon=[0.1],
              out=str(tmp_path / "o"))
    r = run_cli(["reduce", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 2
    assert "delta*/5" in r.stderr


@pytest.mark.parametrize("command", ["reduce", "solve"])
def test_missing_scales_rejected_before_pack(tmp_path, command):
    # the check used to run after the pack, which wrote pack.json and
    # crown.csv before the command failed
    job = write_job(tmp_path / "job.json", k=4)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(job), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "ConfigError"
    assert err["error"] == "config needs epsilon or eps_fractions"
    assert sorted(os.listdir(out)) == ["error.json"]


def test_zero_eps_fraction_is_config_error(tmp_path):
    # delta*/0 used to raise a bare ZeroDivisionError: a traceback, exit
    # 1 and no error.json; the config check now refuses it up front
    write_job(tmp_path / "job.json", k=4, eps_fractions=[0])
    r = run_cli(["reduce", "--config", "job.json"], cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["type"] == "ConfigError"


def test_reduce_recomputes_pack_for_another_domain(tmp_path):
    # pack.json from the unit disk must not serve a reduce on radius 1.02,
    # whose k=4 critical offset is 1.02 * (sqrt(2) - 1)
    write_job(tmp_path / "disk.json", k=4)
    write_job(tmp_path / "wide.json", k=4, eps_fractions=[5.0],
              domain={"kind": "circle", "radius": 1.02})
    r = run_cli(["pack", "--config", "disk.json", "--out", "o"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["reduce", "--config", "wide.json", "--out", "o"], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    meta = json.loads((tmp_path / "o" / "pack.json").read_text())
    assert abs(meta["delta_star"] - 1.02 * SQRT2M1) < 1e-10
    assert meta["inputs"]["domain"]["radius"] == 1.02
    doc = json.loads((tmp_path / "o" / "reduce_000.json").read_text())
    assert abs(doc["eps"] - 1.02 * SQRT2M1 / 5.0) < 1e-12


def test_minimizers_reload_only_for_their_inputs(tmp_path):
    cfg = cli.config_from_dict({"domain": {"kind": "circle", "radius": 1.0},
                                "k": 4, "eps_fractions": [5.0]})
    out = str(tmp_path)
    cli.run_reduce(cfg, out)
    dom = cli._domain_from_config(cfg)
    eps_list = [SQRT2M1 / 5.0]
    assert len(cli._minimized_configs(cfg, out, dom, eps_list)) == 1
    for change in ({"eta": 0.03}, {"p": 4.0}, {"form": "psi_numeric"}):
        other = dataclasses.replace(cfg, **change)
        assert cli._minimized_configs(other, out, dom, eps_list) is None, change


# ------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One cheap end-to-end solve (k=4, eps = delta*/8) shared below.

    No prior stage has run, so this also covers the auto-compute path
    for the profile and the crown."""
    root = tmp_path_factory.mktemp("pipe")
    out = root / "out"
    job = write_job(root / "job.json", k=4, eps_fractions=[8.0], out=str(out))
    r = run_cli(["solve", "--config", str(job)], cwd=root)
    assert r.returncode == 0, r.stderr
    return {"root": root, "out": out, "job": job}


def test_solve_writes_all_artifacts(pipeline):
    names = ["profile.csv", "profile.json", "constants.json", "pack.json",
             "crown.csv", "reduce.json", "reduce_000.json", "trace_000.csv",
             "solve.json", "solve_000.json", "field_000.csv",
             "residuals_000.csv"]
    for name in names:
        assert (pipeline["out"] / name).exists(), name


def test_minimization_trace_schema(pipeline):
    rows = (pipeline["out"] / "trace_000.csv").read_text().splitlines()
    assert rows[0] == "iter,log_M,grad_norm,min_chord,min_dist"
    tab = np.genfromtxt(rows[1:], delimiter=",")
    tab = np.atleast_2d(tab)
    assert np.array_equal(tab[:, 0], np.arange(len(tab)))
    assert np.all(np.isfinite(tab))
    # scaled functional is O(1) near the crown, so log_M sits near -2*delta/eps
    meta = json.loads((pipeline["out"] / "pack.json").read_text())
    assert abs(meta["delta_star"] - SQRT2M1) < 1e-10


def test_pack_records_ring_family(pipeline):
    meta = json.loads((pipeline["out"] / "pack.json").read_text())
    assert meta["ring_family"] == {"closed": 200, "tried": 200}


def test_pack_records_the_rows_the_gap_check_scored(pipeline):
    # 7,300 depth rows, the chord stratum's samples that stayed inside
    # the depth tube and the closed rings
    meta = json.loads((pipeline["out"] / "pack.json").read_text())
    chord = meta["chord_stratum"]
    assert chord["tried"] == 2500 and 0 <= chord["kept"] <= chord["tried"]
    assert meta["n_samples"] == 7300 + chord["kept"] + meta["ring_family"]["closed"]


def test_reduce_result_schema(pipeline):
    doc = json.loads((pipeline["out"] / "reduce_000.json").read_text())
    eps = doc["eps"]
    assert abs(eps - SQRT2M1 / 8.0) < 1e-12
    assert doc["signs"] == [1, -1, 1, -1]
    assert len(doc["points"]) == 4
    assert doc["checks"]["admissible"] is True
    assert doc["checks"]["max_depth_dev"] < 5 * eps
    assert doc["checks"]["max_chord_dev"] < 5 * eps
    assert doc["log_M"] < 0.0
    assert doc["stop"] in ("gradient", "step", "line_search", "max_iter")
    # the alternating k=4 crown has attractive diagonal pairs
    assert 0.0 < doc["checks"]["cancellation"] < 1.0
    assert len(doc["config_sha256"]) == 64


def test_solve_result_schema(pipeline):
    doc = json.loads((pipeline["out"] / "solve_000.json").read_text())
    assert doc["final_residual"] < 1e-10
    assert doc["iterations"] >= 1
    peaks = doc["peaks"]
    assert len(peaks) == 4
    sgs = [p["sign"] for p in peaks]
    assert all(sgs[i] * sgs[(i + 1) % 4] == -1 for i in range(4))
    header = json.loads((pipeline["out"] / "profile.json").read_text())
    for p in peaks:
        assert abs(p["amplitude"] - header["w0"]) / header["w0"] < 0.02
        radius = np.hypot(p["x"], p["y"])
        assert abs(radius - (1.0 - SQRT2M1)) < 0.1
    # the solver's final spike positions, each within a cell of its peak
    h = doc["eps"] / 4.0
    positions = np.array(doc["positions"])
    assert positions.shape == (4, 2)
    for p in peaks:
        assert np.hypot(*(positions - (p["x"], p["y"])).T).min() < h


def test_residual_history_matches_result(pipeline):
    doc = json.loads((pipeline["out"] / "solve_000.json").read_text())
    rows = (pipeline["out"] / "residuals_000.csv").read_text().splitlines()
    assert rows[0] == "iter,sup_residual,step,lam_norm,moved,lu"
    tab = np.atleast_2d(np.genfromtxt(rows[1:], delimiter=","))
    assert len(tab) == doc["iterations"] + 1
    assert tab[-1, 1] == doc["final_residual"]
    assert tab[:, 4].sum() == doc["position_updates"]
    assert tab[0, 5] == 0 and tab[1, 5] == 1
    assert tab[:, 5].sum() == doc["lu_factorizations"]


def test_field_csv_covers_grid(pipeline):
    rows = (pipeline["out"] / "field_000.csv").read_text().splitlines()
    assert rows[0] == "x,y,value"
    assert len(rows) > 10_000
    tab = np.genfromtxt(rows[1:], delimiter=",")
    header = json.loads((pipeline["out"] / "profile.json").read_text())
    assert np.abs(tab[:, 2]).max() < 1.1 * header["w0"]
    assert np.hypot(tab[:, 0], tab[:, 1]).max() < 1.0


def test_solve_rerun_is_byte_identical(pipeline):
    # second run reloads profile, crown, and minimizer from disk, redoes
    # the Newton solve under a capped pool, and must reproduce every byte
    watched = ["reduce_000.json", "solve_000.json", "field_000.csv",
               "trace_000.csv", "residuals_000.csv", "crown.csv"]
    before = {n: (pipeline["out"] / n).read_bytes() for n in watched}
    r = run_cli(["solve", "--config", str(pipeline["job"])],
                cwd=pipeline["root"], env_extra={"SPIKE_CROWN_THREADS": "1"})
    assert r.returncode == 0, r.stderr
    for n in watched:
        assert (pipeline["out"] / n).read_bytes() == before[n], n


def test_continuation_walks_eps_downward(tmp_path):
    out = tmp_path / "o"
    job = write_job(tmp_path / "job.json", k=4, eps_fractions=[7.0, 8.0],
                    out=str(out))
    r = run_cli(["solve", "--config", str(job), "--continuation"],
                cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    index = json.loads((out / "solve.json").read_text())
    assert index["continuation"] is True
    eps = [j["eps"] for j in index["jobs"]]
    assert abs(eps[0] - SQRT2M1 / 7.0) < 1e-12
    assert abs(eps[1] - SQRT2M1 / 8.0) < 1e-12
    for j in index["jobs"]:
        assert j["final_residual"] < 1e-10


def _ansatz_as_solution(grid, nl, eps, profile, config):
    ansatz = pde.assemble_ansatz(grid, profile, eps, config)
    return ansatz, [0.0], [], np.asarray(config.points, dtype=float), ansatz


@pytest.mark.filterwarnings("error")
def test_pool_jobs_record_their_own_diagnostics(tmp_path, monkeypatch):
    # the warning filter list is process-wide and catch_warnings is not
    # thread-safe, so nothing on the reduce and solve paths may enter it;
    # each job reports its grid's dropped rim nodes in its own file
    # instead. h = 1/50 and 1/80 put lattice nodes on the unit circle.
    cfg = cli.config_from_dict({"domain": {"kind": "circle", "radius": 1.0},
                                "k": 4, "epsilon": [0.08, 0.05]})
    out = str(tmp_path)
    cli.run_pack(cfg, out)
    cli.run_ground_state(cfg, out)
    entries = []

    class Recording(warnings.catch_warnings):
        def __enter__(self):
            entries.append(threading.current_thread())
            return super().__enter__()

    monkeypatch.setenv("SPIKE_CROWN_THREADS", "2")
    monkeypatch.setattr(warnings, "catch_warnings", Recording)
    # Newton is not under test: the ansatz stands in for the solution
    monkeypatch.setattr(pde, "newton_solve", _ansatz_as_solution)
    cli.run_reduce(cfg, out)
    cli.run_solve(cfg, out)
    assert entries == []
    dom = cli._domain_from_config(cfg)
    for idx, eps in enumerate(cfg.epsilon):
        doc = json.loads((tmp_path / f"solve_{idx:03d}.json").read_text())
        expected = pde.discretize(dom, eps / 4).n_reclassified
        assert expected > 0
        assert doc["reclassified_nodes"] == expected


def _no_shoot(nl):
    raise AssertionError("the profile was recomputed")


def test_crlf_profile_is_reused(tmp_path, monkeypatch, profile_p3n2):
    # csv.writer wrote profile.csv with CRLF line ends; such a file
    # still loads, bit for bit, and is left as it is
    cfg = cli.config_from_dict({"p": 3.0, "N": 2})
    monkeypatch.setattr(cli, "shoot", lambda nl: profile_p3n2)
    cli.run_ground_state(cfg, str(tmp_path))
    path = tmp_path / "profile.csv"
    crlf = path.read_bytes().replace(b"\n", b"\r\n")
    path.write_bytes(crlf)
    monkeypatch.setattr(cli, "shoot", _no_shoot)
    prof = cli._load_or_make_profile(cfg, str(tmp_path))
    assert path.read_bytes() == crlf
    for name in ("r_grid", "w_values", "w_prime_values"):
        assert np.array_equal(getattr(prof, name), getattr(profile_p3n2, name)), name
    for name in ("p", "dim_n", "w0", "decay_A", "r_tail"):
        assert getattr(prof, name) == getattr(profile_p3n2, name), name


def _cut_mid_row(text):
    # end inside the third cell of a middle row: what is left still
    # parses as three numbers, but the file ends without a newline
    start = text.index("\n", len(text) // 2) + 1
    return text[:text.index(",", text.index(",", start) + 1) + 4]


def _drop_key(key):
    return lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != key})


@pytest.mark.parametrize("name, corrupt", [
    ("pack.json", lambda text: '{"k": 6'),
    ("profile.json", _drop_key("N")),
    ("reduce_000.json", lambda text: text[:len(text) // 2]),
    ("crown.csv", lambda text: ""),
    ("profile.csv", lambda text: text.partition("\n")[0] + "\n"),
    ("profile.csv", _cut_mid_row),
], ids=["truncated-pack", "profile-without-N", "truncated-minimizer",
        "empty-crown", "header-only-profile", "profile-cut-mid-row"])
@pytest.mark.filterwarnings("error")
def test_unreadable_artifact_is_recomputed(tmp_path, monkeypatch, name, corrupt):
    # a truncated or incomplete upstream file is recomputed, as a stale
    # one is, to the same bytes; it used to escape main as a traceback
    job = write_job(tmp_path / "job.json", k=4, eps_fractions=[5.0])
    out = tmp_path / "o"
    assert cli.main(["reduce", "--config", str(job), "--out", str(out)]) == 0
    path = out / name
    before = path.read_bytes()
    path.write_text(corrupt(path.read_text()))
    monkeypatch.setattr(pde, "newton_solve", _ansatz_as_solution)
    assert cli.main(["solve", "--config", str(job), "--out", str(out)]) == 0
    assert path.read_bytes() == before
    assert not (out / "error.json").exists()
