"""Batch driver behind the spike-crown command.

Five subcommands cover the pipeline on one job config: ground-state
tabulates the radial profile, pack builds the crown geometry, reduce
minimizes the interaction energy per eps, solve runs the full Newton
verification per eps, and verify runs the frozen acceptance checklist
of the verify module end to end.

JobConfig coerces and checks every field when it is built, whether
from a JSON file, by direct construction or by dataclasses.replace.
This module alone knows the artifact formats: every file, the profile
table included, goes through one atomic writer (temp file plus rename),
CSVs end their lines with LF, and each stage reloads what an earlier
stage wrote when its recorded inputs match the config.

Runs are reproducible: results depend only on (config, seed), floats
are printed at 17 significant digits, and every result JSON embeds the
config hash and the package version. Wall-clock timings go to stdout
only, never into result files, so repeated runs produce byte-identical
artifacts. The SPIKE_CROWN_THREADS environment variable caps the worker
pool used for independent eps jobs.
"""

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import geometry as geo
from . import packing as pk
from . import pde
from . import reduced_energy as red
from . import verify
from .errors import ConfigError, SpikeCrownError
from .ground_state import RadialProfile, normalization_constants, shoot
from .nonlinearity import Nonlinearity


# ------------------------------------------------------------- config

@dataclasses.dataclass(frozen=True)
class JobConfig:
    """One batch job: domain, exponents, scales, and output policy.

    epsilon lists absolute scales; eps_fractions adds delta*/f for each
    entry f once the critical distance is known, so a config can pin
    scales relative to a crown it has not computed yet. h_divisor sets
    the grid rule h = eps/h_divisor, and is at least 4, as the solver
    needs h <= eps/4. Either k or delta0 sizes the crown; eta defaults
    to delta*/10. Every field is coerced and checked here, so
    config_from_dict, direct construction and dataclasses.replace all
    give the same config, with the same digest.
    """

    domain: dict = None
    p: float = 3.0
    N: int = 2
    epsilon: tuple = ()
    eps_fractions: tuple = ()
    delta0: float = None
    k: int = None
    eta: float = None
    h_divisor: float = 4.0
    form: str = "leading"
    out: str = "."
    seed: int = 0

    def __post_init__(self):
        if self.domain is not None:
            if not isinstance(self.domain, dict):
                raise ConfigError("domain must be a JSON object")
            geo.check_curve_spec(self.domain)
        for key in ("epsilon", "eps_fractions"):
            val = getattr(self, key)
            if not isinstance(val, (list, tuple)):
                raise ConfigError(f"{key} must be a list of numbers")
            object.__setattr__(self, key, tuple(geo._positive(f"{key} entries", v) for v in val))
        for key in ("p", "h_divisor", "delta0", "eta"):
            val = getattr(self, key)
            if val is not None:
                object.__setattr__(self, key, geo._finite(key, val))
        for key in ("N", "k", "seed"):
            val = getattr(self, key)
            if isinstance(val, float) and val.is_integer():
                object.__setattr__(self, key, int(val))
            elif val is not None and (isinstance(val, bool) or not isinstance(val, int)):
                raise ConfigError(f"{key} must be an integer")
        for key in ("p", "N", "h_divisor", "seed"):
            val = getattr(self, key)
            if val is None:
                raise ConfigError(f"{key} must be a number, got {val!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.h_divisor < 4:
            raise ConfigError("h_divisor must be positive and at least 4 (h <= eps/4), "
                              f"got {self.h_divisor}")
        if self.form not in ("leading", "psi_numeric"):
            raise ConfigError(f"unknown form {self.form!r}")
        if not isinstance(self.out, str):
            raise ConfigError("out must be a path string")


def config_from_dict(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(JobConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    return JobConfig(**raw)


def parse_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(raw)


def serialize_config(cfg):
    """Canonical JSON text; parse(serialize(cfg)) == cfg bit-exact."""
    doc = {}
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = list(val)
        doc[f.name] = val
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_digest(cfg):
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def _stamp(cfg):
    return {"config_sha256": config_digest(cfg), "version": __version__}


# the config fields each reusable artifact is computed from
_PACK_INPUTS = ("domain", "k", "delta0", "eta")
_REDUCE_INPUTS = _PACK_INPUTS + ("p", "N", "form", "h_divisor")


def _inputs(cfg, keys):
    """Those fields as JSON reads them back, for recording and comparing."""
    return json.loads(json.dumps({key: getattr(cfg, key) for key in keys}))


# what reading a missing, truncated or hand-edited artifact raises
_UNREADABLE = (OSError, ValueError, LookupError, TypeError, AttributeError,
               StopIteration, SpikeCrownError)


def _reread(read, *args):
    """read(*args), or None when its artifact is unusable and must be recomputed."""
    try:
        return read(*args)
    except _UNREADABLE:
        return None


# ------------------------------------------------------------ writers

def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, "." + os.path.basename(path) + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _column_format(cells):
    """The % conversion of one CSV column: %d when every cell is an
    integer (NumPy's included), else %.17g, which prints float(v) the
    way f"{float(v):.17g}" does."""
    if any(isinstance(v, (bool, np.bool_)) for v in cells):
        raise ValueError("no boolean CSV cells")
    ints = [isinstance(v, (int, np.integer)) for v in cells]
    if all(ints):
        return "%d"
    if any(ints):
        raise ValueError("a CSV column mixes integers with floats")
    return "%.17g"


def _write_csv(path, columns, rows):
    """Header, then rows through one % row template.

    rows is a 2-D NumPy array or an iterable of equal-length rows; each
    column takes its conversion from its cells (_column_format), or
    from the array's dtype.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind == "b":
            raise ValueError("no boolean CSV cells")
        formats = ["%d" if rows.dtype.kind in "iu" else "%.17g"] * rows.shape[1]
        cells, n_rows = rows.ravel().tolist(), rows.shape[0]
    else:
        table = [tuple(row) for row in rows]
        formats = [_column_format(col) for col in zip(*table)]
        cells, n_rows = [v for row in table for v in row], len(table)
    body = ((",".join(formats) + "\n") * n_rows) % tuple(cells)
    _atomic_write(path, ",".join(columns) + "\n" + body)


def thread_cap():
    """Worker limit from SPIKE_CROWN_THREADS, else the CPU count."""
    raw = os.environ.get("SPIKE_CROWN_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(
                f"SPIKE_CROWN_THREADS must be an integer, got {raw!r}") from None
        if n < 1:
            raise ConfigError(f"SPIKE_CROWN_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def _map_jobs(fn, items):
    cap = min(thread_cap(), len(items))
    if cap <= 1:
        return [fn(it) for it in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=cap) as pool:
        return list(pool.map(fn, items))


# ------------------------------------------------------------- stages

def _domain_from_config(cfg):
    if not cfg.domain:
        raise ConfigError("config needs a domain for this command")
    return geo.make_domain(cfg.domain)


_PROFILE_COLUMNS = ("r", "w", "w_prime")


def run_ground_state(cfg, out_dir):
    profile = shoot(Nonlinearity(p=cfg.p, dim_n=cfg.N))
    _write_csv(os.path.join(out_dir, "profile.csv"), _PROFILE_COLUMNS,
               np.column_stack([profile.r_grid, profile.w_values, profile.w_prime_values]))
    _write_json(os.path.join(out_dir, "profile.json"),
                {"p": profile.p, "N": profile.dim_n, "w0": profile.w0,
                 "A": profile.decay_A, "r_tail": profile.r_tail, **_stamp(cfg)})
    e1, gamma = normalization_constants(profile)
    _write_json(os.path.join(out_dir, "constants.json"),
                {"w0": profile.w0, "A": profile.decay_A,
                 "e1": e1, "gamma": gamma, **_stamp(cfg)})
    return profile, e1, gamma


def run_pack(cfg, out_dir, dom=None):
    if dom is None:
        dom = _domain_from_config(cfg)
    if cfg.k is not None:
        k = cfg.k
    elif cfg.delta0 is not None:
        k = pk.choose_spike_count(dom, cfg.delta0)
    else:
        raise ConfigError("config needs k or delta0 to size the crown")
    delta_star, crown = pk.critical_distance(dom, k)
    eta = cfg.eta if cfg.eta is not None else delta_star / 10.0
    if not 0.0 < eta < delta_star / 2.0:
        raise ConfigError(f"eta must lie in (0, delta*/2), got {eta}")
    sup_phi, gap, counts = pk.boundary_gap_check(
        dom, crown, delta_star, eta, seed=cfg.seed)
    pts = crown.points
    steps = np.roll(pts, -1, axis=0) - pts
    chords = np.hypot(steps[:, 0], steps[:, 1])
    depths = -dom.signed_distance(pts)
    _write_csv(os.path.join(out_dir, "crown.csv"),
               ("i", "x", "y", "sign", "chord_to_next", "d_gamma"),
               [(i, pts[i, 0], pts[i, 1], int(crown.signs[i]),
                 chords[i], depths[i]) for i in range(k)])
    _write_json(os.path.join(out_dir, "pack.json"),
                {"k": k, "delta_star": delta_star, "eta": eta,
                 "sup_phi_boundary": sup_phi, "gap": gap,
                 "n_samples": counts.n_scored, "seed": cfg.seed,
                 "ring_family": {"closed": counts.closed, "tried": counts.tried},
                 "chord_stratum": {"kept": counts.chord_kept, "tried": counts.chord_tried},
                 "inputs": _inputs(cfg, _PACK_INPUTS), **_stamp(cfg)})
    return k, delta_star, eta, crown


def _read_pack(cfg, out_dir, dom):
    with open(os.path.join(out_dir, "pack.json")) as fh:
        meta = json.load(fh)
    if meta.get("inputs") != _inputs(cfg, _PACK_INPUTS):
        return None
    with open(os.path.join(out_dir, "crown.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != meta["k"]:
        return None
    pts = np.array([[float(row["x"]), float(row["y"])] for row in rows])
    crown = pk.make_configuration(dom, pts, [int(row["sign"]) for row in rows])
    return meta["k"], float(meta["delta_star"]), float(meta["eta"]), crown


def _load_or_make_pack(cfg, out_dir, dom):
    return _reread(_read_pack, cfg, out_dir, dom) or run_pack(cfg, out_dir, dom)


def _read_profile(cfg, out_dir):
    with open(os.path.join(out_dir, "profile.json")) as fh:
        header = json.load(fh)
    if float(header["p"]) != cfg.p or int(header["N"]) != cfg.N:
        return None
    with open(os.path.join(out_dir, "profile.csv")) as fh:
        names, *rows = fh.readlines()
    # a file cut mid-row ends without a newline; a header-only one has no rows[-1]
    if names != ",".join(_PROFILE_COLUMNS) + "\n" or not rows[-1].endswith("\n"):
        return None
    table = np.array([row.split(",") for row in rows], dtype=float)
    return RadialProfile(p=cfg.p, dim_n=cfg.N, r_grid=table[:, 0],
                         w_values=table[:, 1], w_prime_values=table[:, 2],
                         w0=float(header["w0"]), decay_A=float(header["A"]),
                         r_tail=float(header["r_tail"]))


def _load_or_make_profile(cfg, out_dir):
    return _reread(_read_profile, cfg, out_dir) or run_ground_state(cfg, out_dir)[0]


def _eps_list(cfg, delta_star):
    eps = list(cfg.epsilon) + [delta_star / f for f in cfg.eps_fractions]
    for e in eps:
        if e > delta_star / 5.0 * (1.0 + 1e-12):
            raise ConfigError(
                f"scale separation needs eps <= delta*/5 = "
                f"{delta_star / 5.0:.6g}, got {e:.6g}")
    return eps


def _planar_inputs(cfg, out_dir, command):
    """Domain, crown, scale list and profile that reduce and solve share,
    each loaded from out_dir or computed there."""
    if cfg.N != 2:
        raise ConfigError(f"{command} works on planar domains; config N must be 2")
    if not (cfg.epsilon or cfg.eps_fractions):
        raise ConfigError("config needs epsilon or eps_fractions")
    dom = _domain_from_config(cfg)
    k, delta_star, eta, crown = _load_or_make_pack(cfg, out_dir, dom)
    eps_list = _eps_list(cfg, delta_star)
    profile = _load_or_make_profile(cfg, out_dir)
    return dom, k, delta_star, eta, crown, eps_list, profile


def run_reduce(cfg, out_dir):
    dom, _, delta_star, eta, crown, eps_list, profile = _planar_inputs(
        cfg, out_dir, "reduce")

    def one(item):
        idx, eps = item
        grid = None
        if cfg.form == "psi_numeric":
            grid = pde.discretize(dom, eps / cfg.h_divisor)
        model = red.ReducedEnergyModel(dom, profile, eps, delta_star, eta,
                                       form=cfg.form, grid=grid)
        cfg_min, _, trace, stop = red.minimize_energy(model, crown)
        tag = f"{idx:03d}"
        _write_csv(os.path.join(out_dir, f"trace_{tag}.csv"),
                   ("iter", "log_M", "grad_norm", "min_chord", "min_dist"),
                   [(int(r[0]), r[1], r[2], r[3], r[4]) for r in trace])
        log_abs, sign, breakdown = red.evaluate_energy(model, cfg_min, check=False)
        rep = red.in_configuration_set(model, cfg_min)
        pts = cfg_min.points
        depth_dev, chord_dev = pk._crown_deviations(dom, pts, delta_star)
        doc = {"eps": eps,
               "points": [[float(x), float(y)] for x, y in pts],
               "signs": [int(s) for s in cfg_min.signs],
               "log_M": log_abs,
               "energy_sign": int(sign),
               "iterations": int(trace[-1][0]),
               "stop": stop,
               "checks": {"admissible": bool(rep),
                          "max_depth_dev": depth_dev,
                          "max_chord_dev": chord_dev,
                          "grad_norm": float(trace[-1][2]),
                          "cancellation": breakdown.cancellation},
               "inputs": _inputs(cfg, _REDUCE_INPUTS),
               **_stamp(cfg)}
        if grid is not None:
            doc["reclassified_nodes"] = grid.n_reclassified
        _write_json(os.path.join(out_dir, f"reduce_{tag}.json"), doc)
        return {"eps": eps, "file": f"reduce_{tag}.json", "log_M": log_abs,
                "iterations": int(trace[-1][0])}

    jobs = _map_jobs(one, list(enumerate(eps_list)))
    _write_json(os.path.join(out_dir, "reduce.json"),
                {"jobs": jobs, **_stamp(cfg)})
    return jobs


def _read_minimizer(cfg, out_dir, dom, idx, eps):
    with open(os.path.join(out_dir, f"reduce_{idx:03d}.json")) as fh:
        doc = json.load(fh)
    if (not math.isclose(doc["eps"], eps, rel_tol=1e-12, abs_tol=0.0)
            or doc.get("inputs") != _inputs(cfg, _REDUCE_INPUTS)):
        return None
    return pk.make_configuration(dom, np.asarray(doc["points"], dtype=float),
                                 np.asarray(doc["signs"], dtype=int))


def _minimized_configs(cfg, out_dir, dom, eps_list):
    """Reload per-eps minimizers if reduce already ran for this list and
    these inputs; None if any is missing, unreadable or stale."""
    out = [_reread(_read_minimizer, cfg, out_dir, dom, idx, eps)
           for idx, eps in enumerate(eps_list)]
    return None if any(c is None for c in out) else out


def run_solve(cfg, out_dir, continuation=False):
    dom, k, _, _, _, eps_list, profile = _planar_inputs(cfg, out_dir, "solve")
    configs = _minimized_configs(cfg, out_dir, dom, eps_list)
    if configs is None:
        run_reduce(cfg, out_dir)
        configs = _minimized_configs(cfg, out_dir, dom, eps_list)
    nl = Nonlinearity(p=cfg.p, dim_n=2)

    def one(idx, eps, init_config):
        grid = pde.discretize(dom, eps / cfg.h_divisor)
        sol, hist, trail, positions, _ = pde.newton_solve(grid, nl, eps, profile, init_config)
        peaks = pde.extract_peaks(grid, sol, expected=k)
        energy = pde.discrete_energy(grid, nl, eps, sol)
        tag = f"{idx:03d}"
        _write_csv(os.path.join(out_dir, f"field_{tag}.csv"), ("x", "y", "value"),
                   np.column_stack([grid.xy, sol.values]))
        steps = [(0.0, 0.0, False, False)] + trail
        _write_csv(os.path.join(out_dir, f"residuals_{tag}.csv"),
                   ("iter", "sup_residual", "step", "lam_norm", "moved", "lu"),
                   [(i, res, step, lam, int(moved), int(lu))
                    for i, (res, (step, lam, moved, lu)) in enumerate(zip(hist, steps))])
        doc = {"eps": eps,
               "iterations": len(hist) - 1,
               "final_residual": float(hist[-1]),
               "position_updates": sum(moved for _, _, moved, _ in trail),
               "lu_factorizations": sum(lu for _, _, _, lu in trail),
               "energy": energy,
               "reclassified_nodes": grid.n_reclassified,
               "peaks": [{"x": float(loc[0]), "y": float(loc[1]),
                          "sign": int(sg), "amplitude": float(amp)}
                         for loc, sg, amp in peaks],
               "positions": positions.tolist(),
               **_stamp(cfg)}
        _write_json(os.path.join(out_dir, f"solve_{tag}.json"), doc)
        return peaks, {"eps": eps, "file": f"solve_{tag}.json",
                       "iterations": len(hist) - 1,
                       "final_residual": float(hist[-1])}

    summaries = [None] * len(eps_list)
    if continuation:
        # hard cases: walk the eps list top down, seeding each run with
        # the peak locations found at the previous (larger) eps
        prev = None
        for idx in sorted(range(len(eps_list)), key=lambda i: -eps_list[i]):
            init = configs[idx]
            if prev is not None:
                init = pk.make_configuration(dom, prev[0], prev[1])
            peaks, summaries[idx] = one(idx, eps_list[idx], init)
            prev = (np.array([loc for loc, _, _ in peaks]),
                    np.array([sg for _, sg, _ in peaks], dtype=int))
    else:
        summaries = _map_jobs(lambda it: one(it[0], it[1], configs[it[0]])[1],
                              list(enumerate(eps_list)))
    _write_json(os.path.join(out_dir, "solve.json"),
                {"jobs": summaries, "continuation": bool(continuation),
                 **_stamp(cfg)})
    return summaries


# ----------------------------------------------------------- commands

def cmd_ground_state(cfg, out_dir):
    profile, e1, gamma = run_ground_state(cfg, out_dir)
    print(f"w0 = {profile.w0:.17g}")
    print(f"A = {profile.decay_A:.17g}")
    print(f"e1 = {e1:.17g}")
    print(f"gamma = {gamma:.17g}")
    return 0


def cmd_pack(cfg, out_dir):
    k, delta_star, eta, _ = run_pack(cfg, out_dir)
    print(f"k = {k}")
    print(f"delta_star = {delta_star:.17g}")
    print(f"eta = {eta:.17g}")
    return 0


def cmd_reduce(cfg, out_dir):
    for job in run_reduce(cfg, out_dir):
        print(f"eps = {job['eps']:.6g}: log_M = {job['log_M']:.6g} "
              f"after {job['iterations']} iterations")
    return 0


def cmd_solve(cfg, out_dir, continuation):
    for job in run_solve(cfg, out_dir, continuation=continuation):
        print(f"eps = {job['eps']:.6g}: residual {job['final_residual']:.3g} "
              f"after {job['iterations']} iterations")
    return 0


def cmd_verify(cfg, out_dir):
    report = verify.verification_report(seed=cfg.seed, echo=print)
    _write_json(os.path.join(out_dir, "verdict.json"), {**report, **_stamp(cfg)})
    print("verdict: " + ("all-pass" if report["all_pass"] else "FAIL"))
    if report["all_pass"]:
        return 0
    if any("error" in entry for entry in report["criteria"]):
        return 3
    return 1


# name: (help, handler, the subcommand's own flags, which reach the
# handler as keyword arguments)
_COMMANDS = {
    "ground-state": ("tabulate the radial profile and its constants", cmd_ground_state, {}),
    "pack": ("compute the critical offset and the crown polygon", cmd_pack, {}),
    "reduce": ("minimize the reduced interaction energy per eps", cmd_reduce, {}),
    "solve": ("run the full Newton verification per eps", cmd_solve,
              {"--continuation": {"action": "store_true",
                                  "help": "solve the eps list in descending order, "
                                          "seeding each run with the previous peak "
                                          "locations"}}),
    "verify": ("run the acceptance checklist and write a verdict", cmd_verify, {}),
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="spike-crown",
        description="Construct and verify alternating-sign spike crowns "
                    "on convex planar domains.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to a JSON job config")
        p.add_argument("--out", default=None,
                       help="output directory (default: the config's out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        for flag, opts in flags.items():
            p.add_argument(flag, **opts)
    own = vars(ap.parse_args(argv))
    command, config, out, seed = (own.pop(key) for key in ("command", "config", "out", "seed"))
    out_dir = out or "."
    try:
        cfg = parse_config(config)
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        out_dir = out or cfg.out
        try:
            os.makedirs(out_dir, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):  # an earlier run's failure
                os.remove(os.path.join(out_dir, "error.json"))
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {out_dir!r}: {exc}") from None
        t0 = time.perf_counter()
        code = _COMMANDS[command][1](cfg, out_dir, **own)
        print(f"done in {time.perf_counter() - t0:.1f} s")
        return code
    except SpikeCrownError as exc:
        code = 2 if isinstance(exc, ConfigError) else 3
        print(f"{'config error' if code == 2 else 'numerical failure'}: {exc}",
              file=sys.stderr)
        with contextlib.suppress(OSError):
            _write_json(os.path.join(out_dir, "error.json"),
                        {"error": str(exc), "type": type(exc).__name__, "exit_code": code})
        return code
