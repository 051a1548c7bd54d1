"""The benchmark's outside tracer (perfbench/layertrace.py) finds sdwave code by
name and reads what it returns. A rename or a changed return shape would
silently zero its counters, so both are checked here. perfbench/ is only read.
"""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np

from sdwave.assembly import DiscreteForms
from sdwave.evolution import localized_gfem_solve
from sdwave.harness import random_field
from sdwave.linalg import Factorization
from sdwave.lod import (CorrectorConfig, Patch, TransientCorrectors,
                        build_corrector_set, cache_key, load_corrector_cache,
                        patch_fine_dofs, save_corrector_cache,
                        transients_for_all_nodes)
from sdwave.mesh import Mesh, NestedMeshPair, element_patch
from sdwave.rb import build_rb

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    # exec the source rather than import it, so nothing is written under perfbench/
    module = types.ModuleType("layertrace")
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), module.__dict__)
    return module


layertrace = _load_layertrace()

# names the time metrics still list after their functions were deleted; each
# reads 0, and a name that comes back must leave this set
GONE = {"assembly.build_forms", "assembly.element_rhs", "assembly.h1_norm",
        "interpolation.kernel_constraints", "linalg.factor", "mesh.build_uniform_mesh",
        "mesh.refine", "rb.compress_transients"}


def _resolve(name):
    """The function the tracer wraps under name, or None if there is none."""
    layer, *path = name.split(".")
    module = importlib.import_module("sdwave." + layer)
    owner = module
    for part in path:
        if (part.startswith("_") and part != "__init__") or part not in vars(owner):
            return None
        parent, owner = owner, vars(owner)[part]
    if not inspect.isfunction(owner):
        return None
    # the tracer wraps only what the module itself defines
    defined = parent if inspect.isclass(parent) else owner
    return owner if defined.__module__ == module.__name__ else None


def test_observed_names_are_public_sdwave_functions():
    for name in layertrace.OBSERVERS:
        assert _resolve(name) is not None, name


def test_time_metrics_name_public_sdwave_functions():
    # a renamed or deleted function reads 0 in its metric, which no run shows
    names = {name for table in (layertrace.SELF_TIME, layertrace.CALLS)
             for spans in table.values() for name in spans}
    assert GONE <= names
    for name in sorted(names):
        assert (_resolve(name) is None) == (name in GONE), name


def test_observers_read_what_the_functions_return(tmp_path):
    pair = NestedMeshPair(Mesh(4), 2)
    forms = DiscreteForms(pair, random_field(pair.fine, 0.1, 10.0, 1),
                          random_field(pair.fine, 0.1, 10.0, 2), 0.1)
    config = CorrectorConfig(k=2)
    tracer = layertrace.Tracer(run_id=0)
    seen = set()

    def observe(name, args, result):
        layertrace.OBSERVERS[name](tracer, args, result)
        seen.add(name)

    correctors = build_corrector_set(forms, config)
    seq = transients_for_all_nodes(correctors, horizon=5)
    rows = sum(tc.xi.shape[0] for tc in seq.values())
    observe("lod.transients_for_all_nodes", (), seq)
    assert rows > 0 and tracer.count["lod.transient_rows"] == rows

    key = cache_key(forms, config, 5)
    save_corrector_cache(tmp_path, key, correctors, seq)
    loaded = load_corrector_cache(tmp_path, key, forms, config, 5)
    assert isinstance(loaded[1], dict) and set(loaded[1]) == set(seq)
    assert all(isinstance(tc, TransientCorrectors) for tc in loaded[1].values())
    observe("lod.load_corrector_cache", (tmp_path, key, forms, config, 5), loaded)
    assert tracer.count["lod.transient_rows"] == 2 * rows

    zeros = np.zeros(pair.coarse.n_dofs)
    trajectory = localized_gfem_solve(correctors, seq, 1.0, 5, zeros, zeros)
    observe("evolution.localized_gfem_solve", (), trajectory)
    assert tracer.count["online_steps"] == 4

    fact = Factorization(forms.K_tilde)
    observe("linalg.Factorization.__init__", (fact, forms.K_tilde), None)
    assert tracer.count["linalg.factor_fill_nnz"] > 0

    dofs = patch_fine_dofs(pair, element_patch(pair.coarse, 0, 1))
    observe("lod.patch_fine_dofs", (), dofs)
    assert tracer.patch_dof_sets == {dofs.tobytes()}

    tc = seq[0]
    basis = build_rb(tc.xi, Patch(forms, tc.dofs))
    observe("rb.build_rb", (), basis)
    assert tracer.m_selected == [basis.m_selected] and tracer.count["rb.basis_mb"] > 0

    assert seen == set(layertrace.OBSERVERS)
