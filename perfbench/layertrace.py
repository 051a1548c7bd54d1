"""Per-layer spans and counters for one sdwave run, installed from outside.

The tracer wraps every public function and every public method (plus
``__init__``) of the classes defined in each sdwave module, and rebinds each
name a caller looks the function up by: module globals such as
``sdwave.lod.element_rhs`` (``lod`` imports it by name) and values of
module-level dicts such as ``sdwave.cli.RUNNERS``. No file of ``src/`` changes.

A span is ``(name, start, end, parent, run_id)``. Spans stay in memory and are
written once the run ends. A span's self time is its duration minus the
durations of its direct children; the run is single-threaded (``--workers 1``),
so children never overlap.
"""

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("mesh", "assembly", "interpolation", "linalg", "lod", "evolution",
          "rb", "harness", "cli")

# metric -> spans whose self times it sums
SELF_TIME = {
    "mesh.patch_s": ("mesh.element_patch", "mesh.node_patch"),
    "mesh.refine_s": ("mesh.build_uniform_mesh", "mesh.refine",
                      "mesh.Mesh.__init__", "mesh.NestedMeshPair.__init__"),
    "assembly.forms_s": ("assembly.build_forms", "assembly.DiscreteForms.__init__",
                         "assembly.assemble_mass", "assembly.assemble_stiffness"),
    "assembly.element_rhs_s": ("assembly.element_rhs",),
    "assembly.h1_norm_s": ("assembly.h1_norm",),
    "interpolation.build_s": ("interpolation.build_interpolator",),
    "interpolation.kernel_constraints_s": ("interpolation.kernel_constraints",),
    "linalg.factor_s": ("linalg.factor", "linalg.factor_saddle",
                        "linalg.Factorization.__init__",
                        "linalg.SaddleFactorization.__init__"),
    "linalg.solve_s": ("linalg.Factorization.solve", "linalg.SaddleFactorization.solve"),
    "lod.corrector_set_s": ("lod.build_corrector_set",),
    "lod.element_correctors_s": ("lod.compute_element_correctors",),
    "lod.transients_s": ("lod.transients_for_all_nodes",
                         "lod.compute_transient_correctors"),
    "lod.cache_save_s": ("lod.save_corrector_cache",),
    "lod.cache_load_s": ("lod.load_corrector_cache",),
    "evolution.online_s": ("evolution.localized_gfem_solve",),
    "evolution.reference_s": ("evolution.ideal_gfem_solve", "evolution.fine_fem_solve"),
    "evolution.error_norm_s": ("evolution.rel_h1_final", "evolution.rel_l2h1"),
    "rb.compress_s": ("rb.compress_transients",),
    "rb.build_rb_s": ("rb.build_rb",),
    "harness.driver_self_s": ("harness.run_exp_k", "harness.run_exp_H",
                              "harness.run_exp_rb"),
    "harness.emit_s": ("harness.emit",),
}

# metric -> spans whose number it counts
CALLS = {
    "mesh.patch_calls": ("mesh.element_patch", "mesh.node_patch"),
    "assembly.element_rhs_calls": ("assembly.element_rhs",),
    "assembly.h1_norm_calls": ("assembly.h1_norm",),
    "interpolation.kernel_constraints_calls": ("interpolation.kernel_constraints",),
    "linalg.factor_calls": ("linalg.Factorization.__init__",),
    "lod.element_correctors_calls": ("lod.compute_element_correctors",),
    "rb.build_rb_calls": ("rb.build_rb",),
}

_SOLVES = ("linalg.Factorization.solve", "linalg.SaddleFactorization.solve")
_MB = 1024.0 * 1024.0


def _observe_factorization(tracer, args, result):
    # args[0] is the Factorization being built; its SuperLU object holds L and U
    lu = getattr(args[0], "_lu", None)
    if lu is not None:
        tracer.count["linalg.factor_fill_nnz"] += lu.L.nnz + lu.U.nnz


def _observe_patch_dofs(tracer, args, result):
    tracer.patch_dof_sets.add(result.tobytes())


def _observe_transients(tracer, args, result):
    for tc in result.values():
        tracer.count["lod.transient_rows"] += tc.xi.shape[0]
        tracer.count["lod.transient_mb"] += tc.xi.nbytes / _MB


def _observe_cache_load(tracer, args, result):
    if result is not None and result[1] is not None:
        _observe_transients(tracer, args, result[1])


def _observe_build_rb(tracer, args, result):
    tracer.m_selected.append(result.m_selected)
    tracer.count["rb.basis_mb"] += (result.Z.nbytes + result.a_hat.nbytes
                                    + result.k_hat.nbytes) / _MB


def _observe_online(tracer, args, result):
    tracer.count["online_steps"] += result.grid.n_steps - 1


OBSERVERS = {
    "linalg.Factorization.__init__": _observe_factorization,
    "lod.patch_fine_dofs": _observe_patch_dofs,
    "lod.transients_for_all_nodes": _observe_transients,
    "lod.load_corrector_cache": _observe_cache_load,
    "rb.build_rb": _observe_build_rb,
    "evolution.localized_gfem_solve": _observe_online,
}


class Tracer:
    """Span recorder; ``install`` wraps the sdwave package in place."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []             # [name, start, end, parent index or -1]
        self._stack = []
        self.count = defaultdict(float)
        self.patch_dof_sets = set()
        self.m_selected = []

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self):
        modules = {layer: importlib.import_module("sdwave." + layer) for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap("%s.%s" % (layer, attr), obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__"
                                                       or not meth.startswith("_")):
                            setattr(obj, meth,
                                    self.wrap("%s.%s.%s" % (layer, attr, meth), fn))
        # rebind every name under which a caller finds a wrapped function
        namespaces = list(modules.values()) + [importlib.import_module("sdwave")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            obj[key] = replaced[value]

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self):
        """Per-layer metrics (unit-less values) computed from the spans."""
        own = self.self_times()
        self_by_name = defaultdict(float)
        calls_by_name = defaultdict(int)
        layer_self = defaultdict(float)
        solve_calls = 0
        for (name, _, _, parent), seconds in zip(self.spans, own):
            self_by_name[name] += seconds
            calls_by_name[name] += 1
            layer_self[name.split(".", 1)[0]] += seconds
            # a saddle solve calls a plain solve: count only the outermost one
            if name in _SOLVES and (parent < 0 or self.spans[parent][0] not in _SOLVES):
                solve_calls += 1

        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_by_name[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls_by_name[n] for n in names)
        out["linalg.solve_calls"] = solve_calls
        out["linalg.factor_fill_nnz"] = int(self.count["linalg.factor_fill_nnz"])
        saddles = calls_by_name["linalg.factor_saddle"]
        out["lod.patch_reuse"] = len(self.patch_dof_sets) / saddles if saddles else 0.0
        out["lod.transient_rows"] = int(self.count["lod.transient_rows"])
        out["lod.transient_mb"] = self.count["lod.transient_mb"]
        steps = self.count["online_steps"]
        out["evolution.online_step_ms"] = (1e3 * out["evolution.online_s"] / steps
                                           if steps else 0.0)
        out["rb.m_selected_mean"] = (sum(self.m_selected) / len(self.m_selected)
                                     if self.m_selected else 0.0)
        out["rb.basis_mb"] = self.count["rb.basis_mb"]
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self[layer]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")
