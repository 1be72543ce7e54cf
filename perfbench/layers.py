"""Where the tracer hooks into spikecrown, and the per-layer metrics.

Every hook wraps a public name at a module attribute, so calls that go
through that attribute (including calls inside the module, which look
the name up at call time) are seen. Names imported by value into
another module are wrapped at each binding that the pipeline uses.
"""

from spikecrown import cli, pde
from spikecrown import geometry as geo
from spikecrown import packing as pk
from spikecrown import reduced_energy as red


def instrument(t):
    """Install every hook on tracer t; t.unpatch() removes them."""
    # ground_state, reached through the names cli imported
    t.wrap(cli, "shoot", "ground_state.shoot")
    t.wrap(cli, "normalization_constants", "ground_state.constants")

    # geometry; packing holds its own bindings of two functions
    offset = t.wrap(geo, "inner_parallel_curve", "geometry.offset_curve")
    t.patch(pk, "inner_parallel_curve", offset)
    project = t.wrap(geo, "project_to_curve", "geometry.project")
    t.patch(pk, "project_to_curve", project)
    t.wrap(geo.PlanarDomain, "signed_distance", "geometry.signed_distance",
           after=_count_points)
    t.wrap_count(geo.ConvexCurve, "point", "geometry.point_calls")
    t.wrap(geo, "brentq", "geometry.root_find")

    t.wrap(pk, "critical_distance", "packing.critical_distance")
    t.wrap(pk, "boundary_gap_check", "packing.boundary_gap")
    t.wrap(pk, "equal_chord_march", "packing.march")
    t.wrap(pk, "brentq", "packing.root_find")

    t.wrap(red, "minimize_energy", "reduced_energy.minimize",
           after=_minimize_done)
    t.wrap(red, "energy_gradient", "reduced_energy.gradient")
    t.wrap(red, "boundary_exponent", "reduced_energy.boundary_exponent")

    t.wrap(pde, "discretize", "pde.discretize",
           after=lambda t, args, grid: t.count("pde.nodes", grid.n_nodes))
    t.wrap(pde, "newton_solve", "pde.newton", after=_newton_done)
    t.wrap(pde, "boundary_correction", "pde.boundary_correction")
    t.wrap(pde, "assemble_ansatz", "pde.ansatz")
    t.wrap(pde, "extract_peaks", "pde.peaks")
    t.wrap(pde, "discrete_energy", "pde.energy")
    t.patch(pde, "spla", _SplaProxy(pde.spla, t))

    t.wrap(cli, "_atomic_write", "cli.write",
           after=lambda t, args, _: t.count("cli.bytes_written",
                                            len(args[1].encode("utf-8"))))


def _count_points(t, args, _):
    x = args[1]
    t.count("geometry.signed_distance_points",
            len(x) if getattr(x, "ndim", 0) > 1 else 1)


def _minimize_done(t, args, result):
    trace = result[2]
    t.count("reduced_energy.iterations", int(trace[-1][0]))
    t.record_max("reduced_energy.final_grad_norm", float(trace[-1][2]))


def _newton_done(t, args, result):
    history = result[1]
    t.count("pde.newton_iterations", len(history) - 1)
    t.record_max("pde.newton_final_residual", float(history[-1]))


class _SplaProxy:
    """Stands in for scipy.sparse.linalg inside pde only: splu is timed
    and returns an LU whose solves are counted and timed."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def splu(self, *args, **kwargs):
        with self._tracer.span("pde.lu"):
            lu = self._module.splu(*args, **kwargs)
        self._tracer.record_max("pde.lu_fill_max_nnz", int(lu.nnz))
        return _LUProxy(lu, self._tracer)


class _LUProxy:
    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, *args, **kwargs):
        with self._tracer.span("pde.back_solve"):
            return self._lu.solve(*args, **kwargs)


# name -> (unit, how it is read off the trace); "_s" metrics are the
# summed time of the outermost spans of that name
_TIMES = {
    "ground_state.shoot_s": "ground_state.shoot",
    "ground_state.constants_s": "ground_state.constants",
    "geometry.offset_curve_s": "geometry.offset_curve",
    "geometry.signed_distance_s": "geometry.signed_distance",
    "geometry.project_s": "geometry.project",
    "packing.critical_distance_s": "packing.critical_distance",
    "packing.boundary_gap_s": "packing.boundary_gap",
    "reduced_energy.minimize_s": "reduced_energy.minimize",
    "reduced_energy.gradient_s": "reduced_energy.gradient",
    "pde.discretize_s": "pde.discretize",
    "pde.newton_s": "pde.newton",
    "pde.lu_s": "pde.lu",
    "pde.back_solve_s": "pde.back_solve",
    "pde.boundary_correction_s": "pde.boundary_correction",
    "pde.ansatz_s": "pde.ansatz",
    "pde.peaks_s": "pde.peaks",
    "pde.energy_s": "pde.energy",
    "cli.write_s": "cli.write",
}
_CALLS = {
    "geometry.offset_curves": "geometry.offset_curve",
    "geometry.projections": "geometry.project",
    "geometry.root_finds": "geometry.root_find",
    "packing.marches": "packing.march",
    "packing.root_finds": "packing.root_find",
    "reduced_energy.gradients": "reduced_energy.gradient",
    "reduced_energy.boundary_exponents": "reduced_energy.boundary_exponent",
    "pde.lu_factorizations": "pde.lu",
    "pde.back_solves": "pde.back_solve",
    "pde.boundary_corrections": "pde.boundary_correction",
}
_COUNTS = ("geometry.point_calls", "geometry.signed_distance_points",
           "reduced_energy.iterations", "pde.nodes", "pde.newton_iterations",
           "cli.bytes_written")
_MAXIMA = {"reduced_energy.final_grad_norm": "norm",
           "pde.newton_final_residual": "sup",
           "pde.lu_fill_max_nnz": "count"}
LAYERS = ("ground_state", "geometry", "packing", "reduced_energy", "pde", "cli")


def layer_metrics(t):
    """Every per-layer metric as name -> (value, unit). A layer the
    traced calls never reach reads 0."""
    out = {}
    totals = t.outer_totals()
    calls = t.span_counts()
    for name, span in _TIMES.items():
        out[name] = (totals.get(span, 0.0), "s")
    for name, span in _CALLS.items():
        out[name] = (calls.get(span, 0), "count")
    for name in _COUNTS:
        out[name] = (t.counts.get(name, 0), "count")
    for name, unit in _MAXIMA.items():
        out[name] = (t.maxima.get(name, 0), unit)
    iters = t.counts.get("pde.newton_iterations", 0)
    out["pde.lu_per_iteration"] = (
        calls.get("pde.lu", 0) / iters if iters else 0.0, "ratio")
    own = t.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    out["trace.spans"] = (len(t.spans), "count")
    return out
