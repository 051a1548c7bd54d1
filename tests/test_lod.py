import builtins
import dataclasses
import shutil
import tracemalloc
import weakref
import zipfile
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from sdwave import linalg, lod
from sdwave.assembly import DiscreteForms, element_rhs_block, h1_norms
from sdwave.evolution import TimeGrid, _GlobalSaddle
from sdwave.linalg import (ConstraintViolationError, Factorization,
                           SaddleFactorization, factor_saddle)
from sdwave.lod import (CorrectorConfig, Patch, TransientCorrectors,
                        build_corrector_set, cache_key,
                        compute_element_correctors,
                        compute_transient_correctors, decay_profile,
                        form_values, load_corrector_cache, patch_fine_dofs,
                        save_corrector_cache, transient_patch,
                        transients_for_all_nodes)
from sdwave.mesh import (Mesh, NestedMeshPair, element_patch, node_patch,
                         prolongation, saturating_k)

from conftest import (constraint_rows, power_snapshots, saddle_matrix, saddle_of,
                      stored_zeros_forms)

TAU = 0.02


def test_config_validation():
    with pytest.raises(ValueError):
        CorrectorConfig(k=0)
    with pytest.raises(ValueError):
        CorrectorConfig(k=1, form_choice="c_only")


@pytest.mark.parametrize("k", [2.5, 2.0, True, np.bool_(True), "2"],
                         ids=["float", "whole_float", "bool", "numpy_bool", "str"])
def test_config_rejects_non_integer_k(k):
    with pytest.raises(ValueError, match="integer"):
        CorrectorConfig(k=k)


def test_element_correctors_vanish_at_r1(problem81):
    pair = problem81.pair
    patch = Patch(problem81.forms, patch_fine_dofs(pair, element_patch(pair.coarse, 30, 2)))
    contrib = compute_element_correctors(patch, 30)
    assert contrib
    for vec in contrib.values():
        assert np.abs(vec).max() <= 1e-12


@pytest.mark.parametrize("problem", ["problem21", "problem81"])
def test_corrector_set_skips_elements_without_patch_dofs(request, problem):
    # at h = H the k = 1 patches of the corner elements hold no interior fine
    # dof; such an element contributes nothing, where it used to fail in Patch
    problem = request.getfixturevalue(problem)
    coarse = problem.pair.coarse
    sizes = [patch_fine_dofs(problem.pair, element_patch(coarse, t, 1)).size
             for t in range(coarse.n_elements)]
    assert 0 in sizes
    cs = build_corrector_set(problem.forms, CorrectorConfig(k=1))
    assert np.abs(cs.phi).max() <= 1e-12
    assert np.abs((cs.Q - prolongation(problem.pair)).toarray()).max() <= 1e-12


def test_constant_on_element_gives_zero_rhs(problem44):
    # gradient of a constant vanishes on the element, so no correction is driven
    pair, forms = problem44.pair, problem44.forms
    t_inner = 2 * (1 * pair.coarse.n + 1)  # cell (1,1): closure avoids the boundary
    _, out = element_rhs_block(pair, forms.tilde_values, t_inner,
                               np.ones((pair.fine.n_dofs, 1)), [0])
    assert np.abs(out).max() <= 1e-13


@pytest.fixture(scope="module")
def saturated_set(problem44):
    cfg = CorrectorConfig(k=saturating_k(problem44.pair.coarse))
    return build_corrector_set(problem44.forms, cfg)


def test_saturated_matches_global_solve(request, saturated_set):
    # the element loop at a saturating k against one global saddle solve per
    # column, and against the ideal method's basis, built with one block
    # solve of every coarse column on its global factorization
    for name in ("problem44", "problem84"):
        problem = request.getfixturevalue(name)
        pair, forms = problem.pair, problem.forms
        saturated = (saturated_set if name == "problem44" else build_corrector_set(
            forms, CorrectorConfig(k=saturating_k(pair.coarse))))
        P = prolongation(pair)
        saddle = saddle_of(forms.K_tilde, forms.interp)
        for dof in range(0, pair.coarse.n_dofs, 2):
            lam = np.asarray(P[:, dof].todense()).ravel()
            w, _ = saddle.solve(forms.K_tilde @ lam)
            phi = np.asarray(saturated.phi[:, dof].todense()).ravel()
            assert h1_norms(forms, [w - phi])[0] <= 1e-9 * h1_norms(forms, [w])[0]
        ideal = _GlobalSaddle(forms, TimeGrid(forms.tau, 2))
        for got, want in ((ideal.Q, saturated.Q.toarray()), (ideal.M_ms, saturated.M_ms),
                          (ideal.A_ms, saturated.A_ms), (ideal.B_ms, saturated.B_ms)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


def test_fine_scale_membership(problem44, saturated_set):
    residual = problem44.forms.interp @ saturated_set.phi
    assert np.abs(residual.toarray()).max() <= 1e-10


def test_modified_basis_has_full_rank(problem44, saturated_set):
    rank = np.linalg.matrix_rank(saturated_set.Q.toarray())
    assert rank == problem44.n_coarse_dofs


def test_saturated_energy_orthogonality(problem44, saturated_set):
    pair, forms = problem44.pair, problem44.forms
    saddle = saddle_of(forms.K_tilde, forms.interp)
    rng = np.random.default_rng(31)
    q = saturated_set.Q @ rng.standard_normal(pair.coarse.n_dofs)
    w, _ = saddle.solve(forms.K_tilde @ rng.standard_normal(pair.fine.n_dofs))
    rel = abs(q @ (forms.K_tilde @ w)) / np.prod(h1_norms(forms, [q, w]))
    assert rel <= 1e-9


def test_a_only_orthogonality(problem44):
    pair, forms = problem44.pair, problem44.forms
    cfg = CorrectorConfig(k=saturating_k(pair.coarse), form_choice="a_only")
    cs = build_corrector_set(forms, cfg)
    saddle = saddle_of(forms.K_A, forms.interp)
    rng = np.random.default_rng(32)
    q = cs.Q @ rng.standard_normal(pair.coarse.n_dofs)
    w, _ = saddle.solve(forms.K_A @ rng.standard_normal(pair.fine.n_dofs))
    rel = abs(q @ (forms.K_A @ w)) / np.prod(h1_norms(forms, [q, w]))
    assert rel <= 1e-9


def test_corrector_support(problem44):
    pair, forms = problem44.pair, problem44.forms
    cfg = CorrectorConfig(k=1)
    cs = build_corrector_set(forms, cfg)
    coarse = pair.coarse
    for dof in (0, pair.coarse.n_dofs // 2):
        vertex = coarse.interior_nodes[dof]
        allowed = set()
        for T in node_patch(coarse, vertex, 1):
            allowed.update(patch_fine_dofs(pair, element_patch(coarse, T, 1)).tolist())
        support = set(np.flatnonzero(np.abs(
            np.asarray(cs.phi[:, dof].todense()).ravel()) > 1e-14).tolist())
        assert support <= allowed


def _counting_factor_saddle(monkeypatch):
    from sdwave import linalg
    calls = []

    def counting(kkt, n):
        calls.append(n)
        return factor_saddle(kkt, n)

    monkeypatch.setattr(linalg, "factor_saddle", counting)
    return calls


@pytest.mark.parametrize("k", [1, None], ids=["k1", "saturating"])
def test_each_distinct_patch_factored_once(problem44, monkeypatch, k):
    # elements on one patch (all of them once the patches saturate) share its
    # factorization; an element with no interior vertex solves nothing, so
    # its patch is never factored
    pair = problem44.pair
    coarse = pair.coarse
    k = k or saturating_k(coarse)
    calls = _counting_factor_saddle(monkeypatch)
    build_corrector_set(problem44.forms, CorrectorConfig(k=k))
    patches = {patch_fine_dofs(pair, element_patch(coarse, t, k)).tobytes()
               for t in range(coarse.n_elements)
               if np.any(coarse.dof_index[coarse.triangles[t]] >= 0)}
    assert len(calls) == len(patches)


def test_element_patch_freed_after_its_element(problem44, monkeypatch):
    # with every element patch distinct, at most the patch being solved on and
    # the one before it may be alive, not one per element so far
    from sdwave import lod
    pair = problem44.pair
    coarse = pair.coarse
    keys = {patch_fine_dofs(pair, element_patch(coarse, t, 1)).tobytes()
            for t in range(coarse.n_elements)}
    assert len(keys) == coarse.n_elements
    live = weakref.WeakSet()
    counts = []

    class CountedPatch(Patch):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)
            counts.append(len(live))

    monkeypatch.setattr(lod, "Patch", CountedPatch)
    build_corrector_set(problem44.forms, CorrectorConfig(k=1))
    assert len(counts) == coarse.n_elements
    assert max(counts) <= 2


def _list_and_concatenate_corrector_set(forms, config):
    """Q, M_ms, A_ms and B_ms with phi's triplets gathered in per-element
    lists and joined by np.concatenate: the reference order of its entries."""
    pair = forms.pair
    coarse = pair.coarse
    patches = {}
    rows, cols, vals = [], [], []
    for t in range(coarse.n_elements):
        dofs = patch_fine_dofs(pair, element_patch(coarse, t, config.k))
        patch = patches.setdefault(dofs.tobytes(), Patch(forms, dofs, config.form_choice))
        for dof, w in compute_element_correctors(patch, t).items():
            nz = np.flatnonzero(w)
            rows.append(patch.dofs[nz])
            cols.append(np.full(nz.size, dof, dtype=np.int64))
            vals.append(w[nz])
    phi = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(pair.fine.n_dofs, coarse.n_dofs),
    )
    phi.sum_duplicates()
    Q = (prolongation(pair) - phi).tocsr()
    return Q, [(Q.T @ m @ Q).toarray() for m in (forms.M, forms.K_A, forms.K_B)]


@pytest.mark.parametrize("form_choice", lod.FORM_CHOICES)
@pytest.mark.parametrize("k", [1, 2, None], ids=["k1", "k2", "saturating"])
def test_corrector_set_bitwise_equals_list_and_concatenate(problem44, k, form_choice):
    forms = problem44.forms
    config = CorrectorConfig(k=k or saturating_k(forms.pair.coarse), form_choice=form_choice)
    cs = build_corrector_set(forms, config)
    Q, galerkin = _list_and_concatenate_corrector_set(forms, config)
    _assert_same_csr(cs.Q, Q)
    for got, want in zip((cs.M_ms, cs.A_ms, cs.B_ms), galerkin):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_corrector_set_peak_memory_per_triplet_entry(problem84):
    # phi's triplets take 16 B an entry and scipy's CSR copy of them 12 B more;
    # the bound leaves room for the smaller temporaries of the build
    pair = problem84.pair
    coarse = pair.coarse
    prolongation(pair)  # cached on the pair, so built outside the trace
    # at saturation every element's patch holds every fine dof
    entries = pair.fine.n_dofs * int((coarse.dof_index[coarse.triangles] >= 0).sum())
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_corrector_set(problem84.forms, CorrectorConfig(k=saturating_k(coarse)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 40 * entries


@pytest.fixture
def node_dofs(problem44):
    coarse = problem44.pair.coarse
    vertex = coarse.interior_nodes[coarse.n_dofs // 2]
    return patch_fine_dofs(problem44.pair, node_patch(coarse, vertex, 2))


def _assert_same_compressed(a, b):
    assert a.format == b.format and a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _assert_same_csr(a, b):
    assert a.format == "csr"
    _assert_same_compressed(a, b)


def test_patch_blocks_equal_direct_slices(problem44, node_dofs):
    forms, pair = problem44.forms, problem44.pair
    coarse = pair.coarse
    dof_sets = [node_dofs]
    for k in (1, 2, saturating_k(coarse)):
        dof_sets += [patch_fine_dofs(pair, element_patch(coarse, t, k))
                     for t in (0, 5, coarse.n_elements - 1)]
    for dofs in dof_sets:
        patch = Patch(forms, dofs)
        for block, full in ((patch.k_tilde, forms.K_tilde), (patch.k_a, forms.K_A)):
            _assert_same_csr(block, full[dofs][:, dofs].tocsr())
        _assert_same_csr(patch.C, constraint_rows(forms.interp, dofs))


@pytest.mark.parametrize("form_choice", lod.FORM_CHOICES)
@pytest.mark.parametrize("case", ["problem44", "problem84", "stored-zeros"])
def test_gathered_patch_systems_equal_the_assembled_ones(request, case, form_choice):
    # one gather from the forms' saddle matrix gives the bytes of the system
    # assembled from the patch block and constraint rows, and C is a view
    # of its trailing columns
    problem = request.getfixturevalue("problem44" if case == "stored-zeros" else case)
    forms = stored_zeros_forms(problem) if case == "stored-zeros" else problem.forms
    pair, coarse = problem.pair, problem.pair.coarse
    full = getattr(forms, lod._FORM_BLOCKS[form_choice])
    stride = 1 if case != "problem84" else 5
    for k in range(1, saturating_k(coarse) + 1):
        sets = [patch_fine_dofs(pair, element_patch(coarse, t, k))
                for t in range(k % stride, coarse.n_elements, stride)]
        sets += [patch_fine_dofs(pair, node_patch(coarse, coarse.interior_nodes[x], k))
                 for x in range(k % stride, coarse.n_dofs, stride)]
        for dofs in sets:
            if dofs.size == 0:
                continue
            patch = Patch(forms, dofs, form_choice)
            C = constraint_rows(forms.interp, dofs)
            _assert_same_compressed(patch.kkt, saddle_matrix(full[dofs][:, dofs], C))
            _assert_same_compressed(patch.C, C)
            assert np.shares_memory(patch.C.data, patch.kkt.data)
            assert np.shares_memory(patch.C.indices, patch.kkt.indices)


@pytest.mark.parametrize("dofs", [
    [], [[1, 2], [3, 4]], [1.0, 2.0], [True, False], [3, 2, 5], [2, 2, 5], [-1, 0, 3],
    [0, 10**6]], ids=["empty", "2d", "float", "bool", "unsorted", "duplicate",
                      "negative", "beyond"])
def test_patch_rejects_malformed_dofs(problem44, dofs):
    # the blocks are gathered, and element blocks placed, by ascending dofs
    with pytest.raises(ValueError, match="patch dofs"):
        Patch(problem44.forms, np.array(dofs))


def test_patch_reading_blocks_does_not_factor(problem44, node_dofs, monkeypatch):
    calls = _counting_factor_saddle(monkeypatch)
    patch = Patch(problem44.forms, node_dofs)
    assert patch.k_a.nnz > 0 and patch.k_tilde.nnz > 0
    assert calls == []


@pytest.mark.parametrize("choice, block", [("a_plus_tau_b", "k_tilde"),
                                           ("a_only", "k_a"), ("b_only", "k_b")])
def test_patch_factors_once_for_many_solves(problem44, node_dofs, monkeypatch,
                                            choice, block):
    forms = problem44.forms
    full = {"k_tilde": forms.K_tilde, "k_a": forms.K_A, "k_b": forms.K_B}[block]
    calls = _counting_factor_saddle(monkeypatch)
    patch = Patch(forms, node_dofs, choice)
    rng = np.random.default_rng(36)
    for _ in range(5):
        r = rng.standard_normal(node_dofs.size)
        w = patch.solve(r)
        # the fine-scale part of the saddle solve on the chosen form's block
        expected, _ = saddle_of(full[node_dofs][:, node_dofs], patch.C).solve(r)
        np.testing.assert_array_equal(w, expected)
    assert calls == [node_dofs.size]


def test_patch_rejects_unknown_form(problem44, node_dofs):
    with pytest.raises(ValueError):
        Patch(problem44.forms, node_dofs, "c_only")


class _AssembledPatch(Patch):
    """A Patch whose saddle system is assembled from its block and
    its constraint rows, and whose C C^T is the sparse product: each patch as
    it was built before the gather."""

    @cached_property
    def kkt(self):
        block = self._restrict(getattr(self.forms, lod._FORM_BLOCKS[self.form_choice]))
        return saddle_matrix(block, constraint_rows(self.forms.interp, self.dofs))

    @cached_property
    def _kernel_factors(self):
        return self.C.T, scipy.linalg.cho_factor((self.C @ self.C.T).toarray())


def _assembled_transient_patch(correctors, x_dof):
    # the first right-hand side from the patch rows of K_A times q_x
    forms, config = correctors.forms, correctors.config
    patch = _AssembledPatch(forms, lod._node_dofs(forms.pair, x_dof, config.k),
                            config.form_choice)
    q_x = np.asarray(correctors.Q[:, x_dof].todense()).ravel()
    rows = linalg._submatrix(forms.K_A, patch.dofs, np.arange(forms.K_A.shape[1]))
    return patch, rows @ q_x


def _assembled_element_rhs_block(pair, tilde_values, t_coarse, V, columns):
    # the rows of the prolongation, read from its dense copy
    return element_rhs_block(pair, tilde_values, t_coarse, V.toarray(), columns)


@pytest.mark.parametrize("form_choice", lod.FORM_CHOICES)
def test_gathered_build_equals_the_assembled_build(problem44, monkeypatch, form_choice):
    # the corrector set, its power iterates and certified sequences and the
    # ideal method's basis, each built through the gathered patch systems,
    # against the same builds on patches assembled from their blocks
    forms = problem44.forms
    config = CorrectorConfig(k=2, form_choice=form_choice)
    kinds = ("power", "lanczos") if form_choice == "a_plus_tau_b" else ("power",)

    def build():
        cs = build_corrector_set(forms, config)
        return cs, {g: (power_snapshots(cs, 12) if g == "power"
                        else transients_for_all_nodes(cs, 12)) for g in kinds}

    gathered, gathered_seq = build()
    ideal = _GlobalSaddle(forms, TimeGrid(forms.tau, 2))
    with monkeypatch.context() as m:
        m.setattr(lod, "Patch", _AssembledPatch)
        m.setattr(lod, "transient_patch", _assembled_transient_patch)
        m.setattr(lod, "element_rhs_block", _assembled_element_rhs_block)
        assembled, assembled_seq = build()
    _assert_same_csr(gathered.Q, assembled.Q)
    for name in ("M_ms", "A_ms", "B_ms"):
        np.testing.assert_array_equal(getattr(gathered, name), getattr(assembled, name))
    for g in kinds:
        for d, tc in assembled_seq[g].items():
            got = gathered_seq[g][d]
            np.testing.assert_array_equal(got.dofs, tc.dofs)
            np.testing.assert_array_equal(got.xi, tc.xi)
            assert got.solves == tc.solves
            if g == "lanczos":
                np.testing.assert_array_equal(got.alpha, tc.alpha)
                np.testing.assert_array_equal(got.beta, tc.beta)
                assert (got.norm1, got.bound) == (tc.norm1, tc.bound)
    # the ideal basis on the global system assembled from K_tilde and the
    # interpolator, as the solver built it before it factored the forms' one
    saddle = factor_saddle(saddle_matrix(forms.K_tilde, forms.interp),
                           forms.fine.n_dofs, _symmetric=True)
    P = prolongation(forms.pair)
    np.testing.assert_array_equal(
        ideal.Q, P.toarray() - saddle.solve((forms.K_tilde @ P).toarray())[0])


def test_gathered_system_with_a_zero_constraint_row_is_degenerate(problem44):
    # a constraint row with no entry in the patch columns, gathered with the
    # patch's own, leaves a zero row in C, which the factorization rejects
    forms = problem44.forms
    n = forms.fine.n_dofs
    dofs = patch_fine_dofs(problem44.pair, element_patch(problem44.pair.coarse, 0, 1))
    weight = np.asarray(abs(forms.interp[:, dofs]).sum(axis=1)).ravel()
    own, far = np.flatnonzero(weight > 0.0), np.flatnonzero(weight == 0.0)
    assert own.size > 0 and far.size > 0
    index = np.concatenate((dofs, n + np.union1d(own, far[:1])))
    kkt = linalg._submatrix(forms.saddle_matrix("K_tilde"), index, index)
    C = linalg._saddle_constraints(kkt, dofs.size)
    assert C.shape[0] == own.size + 1 and np.diff(C.indptr).min() == 0
    with pytest.raises(linalg.DegenerateConstraintError):
        factor_saddle(kkt, dofs.size)


def test_transients_vanish_at_r1(problem81):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem81.forms, cfg)
    tc = compute_transient_correctors(cs, problem81.n_coarse_dofs // 2, 5)
    assert np.abs(tc.xi).max() <= 1e-12


@pytest.fixture(scope="module")
def transient_node(problem44):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem44.forms, cfg)
    x_dof = problem44.n_coarse_dofs // 2
    tc = compute_transient_correctors(cs, x_dof, 25)
    return cs, x_dof, tc


def test_transient_decay_and_membership(problem44, transient_node):
    _, _, tc = transient_node
    forms = problem44.forms
    H1p = (forms.K_1 + forms.M)[tc.dofs][:, tc.dofs]
    h1s = np.array([np.sqrt(x @ (H1p @ x)) for x in tc.xi])
    assert np.all(h1s[1:] < h1s[:-1])
    full = np.zeros(problem44.n_fine_dofs)
    full[tc.dofs] = tc.xi[0]
    assert np.abs(forms.interp @ full).max() <= 1e-10


def test_first_step_matches_direct_global_solve(problem44):
    # with a saturated patch the recursion's first step is one projection solve
    pair, forms = problem44.pair, problem44.forms
    cfg = CorrectorConfig(k=saturating_k(pair.coarse))
    cs = build_corrector_set(forms, cfg)
    dof = pair.coarse.n_dofs // 2
    tc = compute_transient_correctors(cs, dof, 2)
    q_x = np.asarray(cs.Q[:, dof].todense()).ravel()
    w, _ = saddle_of(forms.K_tilde, forms.interp).solve(forms.K_A @ q_x)
    xi1 = np.zeros(pair.fine.n_dofs)
    xi1[tc.dofs] = tc.xi[0]
    assert h1_norms(forms, [xi1 - w])[0] <= 1e-9 * h1_norms(forms, [w])[0]


def test_a_only_first_step_degenerates(problem44):
    # pure a-Ritz correctors make the first right-hand side a-orthogonal to
    # the fine-scale space, so the recursion starts from (almost) nothing
    pair, forms = problem44.pair, problem44.forms
    cfg = CorrectorConfig(k=saturating_k(pair.coarse), form_choice="a_only")
    cs = build_corrector_set(forms, cfg)
    dof = pair.coarse.n_dofs // 2
    tc = compute_transient_correctors(cs, dof, 2)
    xi1 = np.zeros(pair.fine.n_dofs)
    xi1[tc.dofs] = tc.xi[0]
    q_x = np.asarray(cs.Q[:, dof].todense()).ravel()
    assert h1_norms(forms, [xi1])[0] <= 1e-9 * h1_norms(forms, [q_x])[0]


def test_superposition_identity_scripted(problem44, transient_node):
    # scripted coarse coefficients: the weighted sum of stored corrections
    # reproduces the per-step fine-scale solves
    cs, x_dof, tc = transient_node
    forms = problem44.forms
    solver = Patch(forms, tc.dofs, cs.config.form_choice)
    K_A_patch = forms.K_A[tc.dofs][:, tc.dofs]
    q_x = np.asarray(cs.Q[:, x_dof].todense()).ravel()
    r1 = (forms.K_A @ q_x)[tc.dofs]

    rng = np.random.default_rng(33)
    alpha = rng.uniform(-1.0, 1.0, 20)
    H1p = (forms.K_1 + forms.M)[tc.dofs][:, tc.dofs]
    w_direct = np.zeros(tc.dofs.size)
    for n in range(1, 16):
        w_direct = solver.solve(K_A_patch @ w_direct + alpha[n - 1] * r1)
        lmax = min(n, tc.xi.shape[0])
        coeff = alpha[n - np.arange(1, lmax + 1)]
        w_super = tc.xi[:lmax].T @ coeff
        err = np.sqrt((w_direct - w_super) @ (H1p @ (w_direct - w_super)))
        ref = np.sqrt(w_direct @ (H1p @ w_direct))
        assert err <= 1e-9 * ref


def _per_step_sequence(patch, rhs, horizon):
    # the sequence as one checked solve per step computes it, the oracle for
    # the blocked loop of compute_transient_correctors
    steps = [patch.solve(rhs)]
    for _ in range(1, horizon):
        steps.append(patch.solve(patch.k_a @ steps[-1]))
    return np.array(steps)


def _assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def k2_set(problem44):
    return build_corrector_set(problem44.forms, CorrectorConfig(k=2))


def test_transient_patch_first_rhs_is_the_whole_grid_product(problem44, k2_set):
    pair, forms = problem44.pair, problem44.forms
    for x_dof in (0, pair.coarse.n_dofs // 2, pair.coarse.n_dofs - 1):
        q_x = np.asarray(k2_set.Q[:, x_dof].todense()).ravel()
        patch, rhs = transient_patch(k2_set, x_dof)
        _assert_bitwise(rhs, (forms.K_A @ q_x)[patch.dofs])


@pytest.mark.parametrize("k", [2, 3])
def test_set_coupling_is_the_product_of_Q_and_K_A(tmp_path, problem84, k):
    # a set makes K_A Q once; its transpose is the Q^T K_A that the memory
    # term reads, entry for entry, for a built and for a loaded set
    forms = problem84.forms
    cs = build_corrector_set(forms, CorrectorConfig(k=k))
    assert cs.KQ is cs.KQ
    assert np.array_equal(cs.KQ.T.toarray(), (cs.Q.T @ forms.K_A).toarray())
    key = cache_key(forms, cs.config, 5)
    save_corrector_cache(tmp_path, key, cs)
    loaded, _ = load_corrector_cache(tmp_path, key, forms, cs.config, 5)
    assert np.array_equal(loaded.KQ.toarray(), cs.KQ.toarray())


def _blocked_and_per_step(problem, correctors, horizon):
    args = (correctors, problem.n_coarse_dofs // 2)
    tc = compute_transient_correctors(*args, horizon)
    patch, rhs = lod.transient_patch(*args)
    return tc.xi, _per_step_sequence(patch, rhs, horizon)


@pytest.mark.parametrize("horizon", [1, 2, 16, 17, 33])
def test_blocked_sequence_equals_per_step(problem44, k2_set, horizon):
    blocked, per_step = _blocked_and_per_step(problem44, k2_set, horizon)
    assert blocked.shape[0] == horizon
    _assert_bitwise(blocked, per_step)


def test_blocked_sequence_zero_first_rhs(problem44, k2_set, monkeypatch):
    def zero_rhs(*args):
        patch, rhs = transient_patch(*args)
        return patch, np.zeros_like(rhs)

    monkeypatch.setattr(lod, "transient_patch", zero_rhs)
    blocked, per_step = _blocked_and_per_step(problem44, k2_set, 17)
    assert blocked.shape[0] == 17 and not blocked.any()
    # a bare solve of a zero right-hand side may give -0.0 where the checked
    # solve sets 0.0, so the members are compared by value
    np.testing.assert_array_equal(blocked, per_step)


def _count_checked_solves(monkeypatch):
    """The list that records every checked saddle solve."""
    saddle_solve = SaddleFactorization.solve
    checked = []

    def counted(self, r):
        checked.append(None)
        return saddle_solve(self, r)

    monkeypatch.setattr(SaddleFactorization, "solve", counted)
    return checked


def _perturb_bare_solve(monkeypatch, call, shift):
    """Make the given call of Factorization._raw_solve (1-based) return its
    solution plus shift(solution); returns the list of checked saddle solves."""
    raw_solve = Factorization._raw_solve
    calls = []

    def perturbed(self, b):
        x = raw_solve(self, b)
        calls.append(None)
        return x + shift(x) if len(calls) == call else x

    monkeypatch.setattr(Factorization, "_raw_solve", perturbed)
    return _count_checked_solves(monkeypatch)


def _shift_first(x):
    shift = np.zeros_like(x)
    shift[0] = 1e-3 * np.abs(x).max()
    return shift


def test_blocked_sequence_replays_a_residual_miss(problem44, k2_set, monkeypatch):
    # member 1 is the first raw solve, so call 20 is member 20, mid-block
    _, per_step = _blocked_and_per_step(problem44, k2_set, 33)
    checked = _perturb_bare_solve(monkeypatch, 20, _shift_first)
    args = (k2_set, problem44.n_coarse_dofs // 2)
    tc = compute_transient_correctors(*args, 33)
    # member 1 and the replayed member 20 went through the checked solve
    assert len(checked) == 2
    _assert_bitwise(tc.xi, per_step)


def _pass_every_residual_test(monkeypatch):
    monkeypatch.setattr(Factorization, "_misses",
                        lambda self, b, x, tol: np.zeros(b.shape[1], dtype=bool))


def test_blocked_sequence_raises_on_a_kept_constraint_violation(problem44, k2_set,
                                                                monkeypatch):
    # a residual test that passes everything leaves the constraint test to
    # catch a corrupted member
    _pass_every_residual_test(monkeypatch)
    _perturb_bare_solve(monkeypatch, 5, lambda x: np.full_like(x, 1.0))
    args = (k2_set, problem44.n_coarse_dofs // 2)
    with pytest.raises(ConstraintViolationError):
        compute_transient_correctors(*args, 16)


def _fall_back_at_the_first_checked_solve(monkeypatch):
    """Give every Patch a symmetric-mode saddle factorization whose solves are
    1.5 times the solution, which one refinement step cannot mend, so that
    its first checked solve falls back to the default factorization."""
    def saddle(patch):
        fact = factor_saddle(patch.kkt, patch.dofs.size, _symmetric=True)
        raw_solve = fact._fact._raw_solve
        fact._fact._raw_solve = lambda b: 1.5 * raw_solve(b)
        return fact

    prop = cached_property(saddle)
    prop.__set_name__(Patch, "saddle")
    monkeypatch.setattr(Patch, "saddle", prop)


@pytest.mark.parametrize("build, members", [
    (compute_transient_correctors, lambda tc: tc.xi),
    (lod._certified_transients, lambda tc: tc.members())], ids=["power", "lanczos"])
def test_sequence_bare_solves_on_the_fallback_factors(k2_set, monkeypatch, build, members):
    # a sequence that binds the bare solve before its loop keeps solving on
    # the discarded symmetric-mode factors, so every block's first bare solve
    # misses and is replayed: 520 solves and 41 checked solves for the power
    # iterates, 281 and 26 for Lanczos
    clean = build(k2_set, 1, 40)
    _fall_back_at_the_first_checked_solve(monkeypatch)
    checked = _count_checked_solves(monkeypatch)
    tc = build(k2_set, 1, 40)
    # the first checked solve, and its repetition after the fallback
    _check(len(checked) == 2, "%d checked solves" % len(checked))
    _check(tc.solves == clean.solves, "%d solves, %d clean" % (tc.solves, clean.solves))
    _assert_bitwise(members(tc), members(clean))


# ----------------------------------------------------------------------------
# certified sequences from the Lanczos basis. Their checks raise through
# _check, so they stay active under python -O, which strips assert statements.

def _check(ok, what):
    if not ok:
        pytest.fail(what)


def _energy_norms(patch, rows):
    rows = np.atleast_2d(rows)
    return np.sqrt(np.maximum(np.einsum("li,li->l", rows, (patch.k_tilde @ rows.T).T), 0.0))


@pytest.fixture(scope="module", params=["problem44", "problem84"])
def lanczos_set(request):
    problem = request.getfixturevalue(request.param)
    return problem, build_corrector_set(problem.forms, CorrectorConfig(k=2))


def _nodes(problem):
    # a corner node and a central one
    return (0, problem.n_coarse_dofs // 2)


@pytest.mark.parametrize("horizon", [1, 2, 16, 120])
def test_certified_members_lie_within_tol_of_the_power_iterates(lanczos_set, horizon):
    problem, cs = lanczos_set
    for x_dof in _nodes(problem):
        power = compute_transient_correctors(cs, x_dof, horizon)
        certified = lod._certified_transients(cs, x_dof, horizon)
        members = certified.members()
        _check(certified.horizon == horizon and members.shape == (horizon, power.dofs.size),
               "sequence length")
        patch = Patch(problem.forms, power.dofs)
        norm1 = _energy_norms(patch, power.xi[0])[0]
        _check(abs(certified.norm1 - norm1) <= 1e-14 * norm1,
               "norm1 is the energy norm of the checked solve")
        _check(_energy_norms(patch, members[0] - power.xi[0])[0] <= 1e-15 * norm1,
               "the first member is the checked solve, to round-off")
        worst = _energy_norms(patch, members - power.xi).max()
        _check(worst <= lod.CERTIFY_TOL * norm1,
               "node %d: member error %.2e of %.2e" % (x_dof, worst, norm1))
        _check(certified.bound <= lod.CERTIFY_TOL, "bound %.2e" % certified.bound)
        # the Krylov space of `horizon` members is spanned after horizon steps
        _check(certified.solves <= horizon + 1, "%d solves" % certified.solves)
        if horizon <= 2:
            _check(certified.bound == 0.0, "members before M are exact")


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_certified_bound_covers_the_true_error(lanczos_set, tol, monkeypatch):
    # a loose tolerance stops the basis early, where the error is well above
    # the round-off of the power iterates
    problem, cs = lanczos_set
    horizon = 120
    monkeypatch.setattr(lod, "CERTIFY_TOL", tol)
    for x_dof in _nodes(problem):
        power = compute_transient_correctors(cs, x_dof, horizon)
        certified = lod._certified_transients(cs, x_dof, horizon)
        patch = Patch(problem.forms, power.dofs)
        norm1 = _energy_norms(patch, power.xi[0])[0]
        worst = _energy_norms(patch, certified.members() - power.xi).max() / norm1
        _check(certified.bound <= tol, "bound %.2e above tol %.0e" % (certified.bound, tol))
        _check(worst <= certified.bound + 1e-13,
               "node %d: error %.2e above the bound %.2e" % (x_dof, worst, certified.bound))


def _uncut(monkeypatch):
    # the basis of the step the loop stopped at, as kept before the cut
    monkeypatch.setattr(lod, "_shortest_certified",
                        lambda alpha, beta, horizon, bound: (alpha.size, bound))


@pytest.mark.parametrize("horizon", [16, 400])
def test_certified_basis_is_its_smallest_certified_prefix(lanczos_set, horizon,
                                                          monkeypatch):
    problem, cs = lanczos_set
    cut = transients_for_all_nodes(cs, horizon)
    with monkeypatch.context() as patched:
        _uncut(patched)
        uncut = transients_for_all_nodes(cs, horizon)
    shorter = 0
    for d, tc in cut.items():
        rows = tc.xi.shape[0]
        _check(tc.bound <= lod.CERTIFY_TOL, "node %d: bound %.2e" % (d, tc.bound))
        _check(tc.bound == lod._certified_bound(tc.alpha, tc.beta, horizon),
               "node %d: the bound is the prefix's own" % d)
        if rows > 1:
            one_less = lod._certified_bound(tc.alpha[:-1], tc.beta[:-1], horizon)
            _check(one_less > lod.CERTIFY_TOL,
                   "node %d: %d rows, one less is certified at %.2e" % (d, rows, one_less))
        whole = uncut[d]
        _check(rows <= whole.xi.shape[0] and tc.solves == whole.solves,
               "node %d: the cut takes no step" % d)
        for name in ("xi", "alpha", "beta"):
            _check(getattr(tc, name).tobytes() == getattr(whole, name)[:rows].tobytes(),
                   "node %d: %s is the leading part of the uncut basis" % (d, name))
        _check(tc.norm1 == whole.norm1, "node %d: norm1" % d)
        shorter += rows < whole.xi.shape[0]
    _check(shorter > 0, "no basis was cut")


def test_certified_members_meet_the_constraints(lanczos_set):
    problem, cs = lanczos_set
    for x_dof in _nodes(problem):
        patch, first = transient_patch(cs, x_dof)
        xi = lod._certified_transients(cs, x_dof, 120).members()
        # each member against the right-hand side of the step that makes it
        rhs_norms = np.linalg.norm(np.vstack([first, (patch.k_a @ xi[:-1].T).T]), axis=1)
        violation = np.abs(patch.C @ xi.T).max(axis=0)
        _check(np.all(violation <= linalg.SADDLE_TOL * rhs_norms),
               "node %d: worst |C xi| / |rhs| %.2e"
               % (x_dof, (violation / rhs_norms).max()))


def test_lanczos_basis_is_orthonormal_and_T_tridiagonal(lanczos_set):
    problem, cs = lanczos_set
    for x_dof in _nodes(problem):
        patch, first = transient_patch(cs, x_dof)
        _, Z, alpha, beta, _, _ = lod._lanczos(patch, first, 120)
        m = alpha.size
        T = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        gram = Z @ (patch.k_tilde @ Z.T)
        projected = Z @ (patch.k_a @ Z.T)
        _check(np.abs(gram - np.eye(m)).max() <= 1e-12,
               "K_tilde-orthonormal to %.1e" % np.abs(gram - np.eye(m)).max())
        _check(np.abs(projected - T).max() <= 1e-12,
               "Z K_A Z^T is T to %.1e" % np.abs(projected - T).max())
        _check(np.abs(patch.C @ Z[1:].T).max() <= 1e-12,
               "the basis lies in the kernel")


def test_invariant_krylov_space_ends_the_basis_early(problem44, monkeypatch):
    # k = 1 patches are small: the Krylov space of G becomes invariant long
    # before the horizon, and the basis stops there at a tolerance no bound meets
    cs = build_corrector_set(problem44.forms, CorrectorConfig(k=1))
    horizon = 400
    tol = lod.CERTIFY_TOL
    monkeypatch.setattr(lod, "CERTIFY_TOL", 1e-300)
    for x_dof in _nodes(problem44):
        patch, first = transient_patch(cs, x_dof)
        kernel = patch.dofs.size - patch.C.shape[0]
        _, Z, _, _, _, solves = lod._lanczos(patch, first, horizon)
        _check(Z.shape[0] <= kernel < horizon,
               "%d basis vectors in a kernel of %d" % (Z.shape[0], kernel))
        power = compute_transient_correctors(cs, x_dof, horizon)
        certified = lod._certified_transients(cs, x_dof, horizon)
        _check(certified.solves == solves, "solves %d, %d" % (certified.solves, solves))
        norm1 = _energy_norms(patch, power.xi[0])[0]
        worst = _energy_norms(patch, certified.members() - power.xi).max()
        _check(worst <= tol * norm1, "member error %.2e" % (worst / norm1))


def test_certified_sequence_zero_first_rhs(problem44, k2_set, monkeypatch):
    def zero_rhs(*args):
        patch, rhs = transient_patch(*args)
        return patch, np.zeros_like(rhs)

    monkeypatch.setattr(lod, "transient_patch", zero_rhs)
    tc = lod._certified_transients(k2_set, problem44.n_coarse_dofs // 2, 17)
    _check(tc.horizon == 17 and tc.norm1 == 0.0, "a zero first member")
    _check(tc.members().shape[0] == 17 and not tc.members().any(), "17 zero members")
    _check(tc.solves == 1 and tc.bound == 0.0, "no Lanczos step")


def test_certified_sequence_replays_a_residual_miss(problem44, k2_set, monkeypatch):
    x_dof = problem44.n_coarse_dofs // 2
    power = compute_transient_correctors(k2_set, x_dof, 120)
    clean = lod._certified_transients(k2_set, x_dof, 120)
    # call 1 is the checked first member, so call 10 is the bare solve of step 9
    checked = _perturb_bare_solve(monkeypatch, 10, _shift_first)
    tc = lod._certified_transients(k2_set, x_dof, 120)
    # the first member and the replayed step went through the checked solve
    _check(len(checked) == 2, "%d checked solves" % len(checked))
    # the steps after the miss in its block are solved again
    _check(tc.solves > clean.solves, "%d solves, %d clean" % (tc.solves, clean.solves))
    patch = Patch(problem44.forms, power.dofs)
    norm1 = _energy_norms(patch, power.xi[0])[0]
    worst = _energy_norms(patch, tc.members() - power.xi).max()
    _check(worst <= lod.CERTIFY_TOL * norm1, "member error %.2e" % (worst / norm1))


def test_certified_sequence_raises_on_a_constraint_violation(problem44, k2_set,
                                                             monkeypatch):
    _pass_every_residual_test(monkeypatch)
    _perturb_bare_solve(monkeypatch, 5, lambda x: np.full_like(x, 1.0))
    with pytest.raises(ConstraintViolationError):
        lod._certified_transients(k2_set, problem44.n_coarse_dofs // 2, 40)


def test_certified_sequences_need_the_damped_form(problem44):
    cs = build_corrector_set(problem44.forms, CorrectorConfig(k=2, form_choice="a_only"))
    with pytest.raises(ValueError, match="a_plus_tau_b"):
        transients_for_all_nodes(cs, 4)


@pytest.mark.parametrize("horizon", [0, -1, 2.0, True])
def test_transients_reject_a_bad_horizon(k2_set, horizon):
    # the certified path failed with an IndexError at horizon 0
    with pytest.raises(ValueError, match="horizon"):
        transients_for_all_nodes(k2_set, horizon)


def test_transients_for_all_nodes_are_certified(problem44, k2_set):
    # every node's sequence is certified, in its Lanczos form; the power
    # iterates are lod.Snapshots, a record of their own
    certified = transients_for_all_nodes(k2_set, 20)
    _check(sorted(certified) == list(range(problem44.n_coarse_dofs)), "every node")
    for d, tc in certified.items():
        power = compute_transient_correctors(k2_set, d, 20)
        _check(type(tc) is TransientCorrectors and type(power) is lod.Snapshots, "the kinds")
        _check(power.solves >= 20 and power.horizon == 20, "power iterates are solved")
        _check(tc.horizon == 20 and tc.members().shape == power.xi.shape, "same lengths")
        _check(tc.bound <= lod.CERTIFY_TOL and tc.solves <= 21,
               "bound %.2e, %d solves" % (tc.bound, tc.solves))


def _whole_grid_element_rhs(pair, tilde_values, t_coarse, v):
    # the element right-hand side as it was assembled before it moved onto T:
    # over the whole fine grid, from a full-length v
    fine = pair.fine
    elems = pair.fibers[t_coarse]
    tri = fine.triangles[elems]
    g = fine.gradients()[elems]
    grad_v = np.einsum("mi,mid->md", fine.expand(v)[tri], g)
    w = (tilde_values[elems] * fine.areas()[elems])[:, None] * np.einsum(
        "md,mid->mi", grad_v, g)
    return np.bincount(tri.ravel(), weights=w.ravel(),
                       minlength=fine.n_vertices)[fine.interior_nodes]


@pytest.mark.parametrize("k", [1, 2, None], ids=["k1", "k2", "saturating"])
def test_element_block_solve_equals_per_vertex_solves(problem44, k):
    # one block solve per element, on a right-hand side built on T, gives bit
    # for bit the per-vertex solves of the whole-grid right-hand sides
    pair, forms = problem44.pair, problem44.forms
    coarse = pair.coarse
    k = k or saturating_k(coarse)
    P = prolongation(pair)
    tilde = form_values(forms, "a_plus_tau_b")
    for t in (0, 5, coarse.n_elements // 2):
        patch = Patch(forms, patch_fine_dofs(pair, element_patch(coarse, t, k)))
        got = compute_element_correctors(patch, t)
        dofs = [d for d in coarse.dof_index[coarse.triangles[t]] if d >= 0]
        assert list(got) == dofs
        for dof in dofs:
            lam = np.asarray(P[:, dof].todense()).ravel()
            rhs = _whole_grid_element_rhs(pair, tilde, t, lam)
            fine_dofs, block = element_rhs_block(pair, tilde, t, lam[:, None], [0])
            on_t = np.zeros_like(rhs)
            on_t[fine_dofs] = block[:, 0]
            _assert_bitwise(on_t, rhs)
            _assert_bitwise(np.ascontiguousarray(got[dof]),
                            patch.solve(rhs[patch.dofs]))


def test_fine_mask_matches_fiber_loop(problem44):
    # the mask of a patch's fine elements, as it was set fiber by fiber
    pair = problem44.pair
    coarse = pair.coarse
    patches = [element_patch(coarse, t, k) for t in (0, 13, coarse.n_elements - 1)
               for k in (1, 2, saturating_k(coarse))]
    patches += [node_patch(coarse, x, k) for x in coarse.interior_nodes[::4]
                for k in (1, 3)]
    for elems in patches:
        expected = np.zeros(pair.fine.n_elements, dtype=bool)
        for t in elems:
            expected[pair.fibers[t]] = True
        np.testing.assert_array_equal(lod._fine_mask(pair, elems), expected)


def _whole_mesh_patch_fine_dofs(pair, coarse_elements):
    # patch_fine_dofs as it was: two products over every fine vertex
    fine = pair.fine
    mask = lod._fine_mask(pair, coarse_elements)
    outside = fine._vert_elem.dot((~mask).astype(np.int8))
    inside = fine._vert_elem.dot(mask.astype(np.int8))
    ok = (outside == 0) & (inside > 0) & (fine.dof_index >= 0)
    return fine.dof_index[np.flatnonzero(ok)]


def test_patch_fine_dofs_match_the_whole_mesh_products(problem84):
    pair = problem84.pair
    coarse = pair.coarse
    for k in range(1, saturating_k(coarse) + 1):
        patches = [element_patch(coarse, t, k) for t in range(coarse.n_elements)]
        patches += [node_patch(coarse, x, k) for x in coarse.interior_nodes]
        for elems in patches + [np.empty(0, dtype=np.int64)]:
            got = patch_fine_dofs(pair, elems)
            want = _whole_mesh_patch_fine_dofs(pair, elems)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_decay_profile_examples(problem44, transient_node):
    cs, x_dof, tc = transient_node
    pair = problem44.pair
    xi1 = np.zeros(problem44.n_fine_dofs)
    xi1[tc.dofs] = tc.xi[0]
    prof = decay_profile(xi1, pair, x_dof)
    assert np.all(np.diff(prof[:, 1]) <= 1e-14)
    assert prof[-1, 1] == 0.0
    # support inside N^2(x) means the profile vanishes from j = 2 on
    assert prof[prof[:, 0] >= 2, 1].max() <= 1e-12

    phi = np.asarray(cs.phi[:, x_dof].todense()).ravel()
    prof_phi = decay_profile(phi, pair, x_dof)
    mask = prof_phi[:, 1] > 1e-12
    slope = np.polyfit(prof_phi[mask, 0], np.log(prof_phi[mask, 1]), 1)[0]
    assert slope < 0.0


def test_decay_profile_runs_until_the_patch_covers_the_mesh(problem84):
    # node (n - 1, 1) of the 8 x 8 coarse mesh needs 14 layers; the profile
    # used to stop at j = n = 8, with energy still outside the patch
    pair = problem84.pair
    coarse = pair.coarse
    vertex = coarse.n + 1 + coarse.n - 1
    covering = [j for j in range(1, saturating_k(coarse) + 1)
                if node_patch(coarse, vertex, j).size == coarse.n_elements]
    assert covering[0] == 14
    prof = decay_profile(np.ones(pair.fine.n_dofs), pair, int(coarse.dof_index[vertex]))
    np.testing.assert_array_equal(prof[:, 0], np.arange(1, covering[0] + 1))
    np.testing.assert_array_equal(prof[-1], (covering[0], 0.0))
    assert np.all(prof[:-1, 1] > 0.0)


def test_project_initial_data(problem44, saturated_set):
    interp = problem44.forms.interp
    assert np.all(saturated_set.Q @ np.zeros(problem44.n_coarse_dofs) == 0.0)
    rng = np.random.default_rng(34)
    u = rng.standard_normal(problem44.n_coarse_dofs)
    lifted = saturated_set.Q @ u
    assert np.abs(interp @ lifted - u).max() <= 1e-10


def test_project_initial_data_r1(problem81):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem81.forms, cfg)
    P = prolongation(problem81.pair)
    rng = np.random.default_rng(35)
    u = rng.standard_normal(problem81.n_coarse_dofs)
    assert np.abs(cs.Q @ u - P @ u).max() <= 1e-12


def test_cache_roundtrip(tmp_path, problem44, certified_nodes):
    cs, seq = certified_nodes
    x_dof = problem44.n_coarse_dofs // 2
    tc = seq[x_dof]
    key = cache_key(problem44.forms, cs.config, 25)
    path = save_corrector_cache(tmp_path, key, cs, {x_dof: tc})
    loaded = load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25)
    assert loaded is not None
    cs2, transients2 = loaded
    assert cs2.config == cs.config
    # the set is tied to the forms it was loaded for, each sequence to the set
    assert cs2.forms is problem44.forms
    assert transients2[x_dof].correctors is cs2
    assert np.abs((cs2.Q - cs.Q).toarray()).max() == 0.0
    np.testing.assert_array_equal(cs2.A_ms, cs.A_ms)
    np.testing.assert_array_equal(transients2[x_dof].xi, tc.xi)
    np.testing.assert_array_equal(transients2[x_dof].dofs, tc.dofs)
    assert load_corrector_cache(tmp_path, "missing", problem44.forms, cs.config, 25) is None
    # a file copied under another key is not served for it
    other = cache_key(problem44.forms, cs.config, 26)
    shutil.copy(path, tmp_path / (other + ".npz"))
    assert load_corrector_cache(tmp_path, other, problem44.forms, cs.config, 26) is None
    # neither is an unreadable one
    data = Path(path).read_bytes()
    for size in (0, 10, len(data) // 2, len(data) - 1):
        with open(path, "wb") as fh:
            fh.write(data[:size])
        assert load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None


@pytest.fixture(scope="module")
def certified_nodes(problem44):
    cs = build_corrector_set(problem44.forms, CorrectorConfig(k=2))
    return cs, transients_for_all_nodes(cs, 25)


def test_certified_cache_roundtrip(tmp_path, problem44, certified_nodes):
    # a certified sequence is stored in its Lanczos form, bit for bit, with
    # the bound and horizon it was certified for
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    save_corrector_cache(tmp_path, key, cs, seq)
    cs2, seq2 = load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25)
    assert sorted(seq2) == sorted(seq)
    assert any(tc.bound > 0.0 for tc in seq.values())
    for d, tc in seq.items():
        got = seq2[d]
        assert type(got) is TransientCorrectors and got.correctors is cs2
        for name in ("dofs", "xi", "alpha", "beta"):
            want = getattr(tc, name)
            assert getattr(got, name).dtype == want.dtype
            assert getattr(got, name).tobytes() == want.tobytes()
        assert got.xi.shape[0] < got.horizon == tc.horizon == 25
        assert (got.norm1, got.bound) == (tc.norm1, tc.bound)
        assert type(got.norm1) is float and type(got.bound) is float
        assert got.solves == 0


def _misfit(tc, change):
    if change == "short-alpha":
        return dataclasses.replace(tc, alpha=tc.alpha[:-1])
    if change == "long-beta":
        return dataclasses.replace(tc, beta=np.append(tc.beta, 0.0))
    if change == "narrow-Z":
        return dataclasses.replace(tc, xi=tc.xi[:, :-1])
    return dataclasses.replace(tc, xi=tc.xi[:-1])          # "short-Z"


@pytest.mark.parametrize("change", ["short-alpha", "long-beta", "narrow-Z", "short-Z"])
def test_cache_with_a_basis_that_does_not_fit_is_a_miss(tmp_path, problem44,
                                                         certified_nodes, change):
    # checked with if, not assert, so the miss holds under python -O
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    x_dof = problem44.n_coarse_dofs // 2
    save_corrector_cache(tmp_path, key, cs, {**seq, x_dof: _misfit(seq[x_dof], change)})
    _check(load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None,
           "a file whose basis does not fit was served")


@pytest.mark.parametrize("change", ["wide-Q", "trimmed-A_ms", "nan-M_ms", "inf-B_ms",
                                    "integer-A_ms", "vector-M_ms"])
def test_cache_with_a_set_that_does_not_fit_is_a_miss(tmp_path, problem44,
                                                      certified_nodes, change):
    # the coarse step reads A_ms in every memory term: a misfit set would fail
    # there with an untyped numpy error, or step on NaN
    cs, seq = certified_nodes
    name = change.split("-")[1]
    gram = getattr(cs, name)
    if change == "wide-Q":
        misfit = dataclasses.replace(cs, Q=sparse.hstack([cs.Q, cs.Q[:, :1]]).tocsr())
    elif change == "trimmed-A_ms":
        misfit = dataclasses.replace(cs, A_ms=gram[:, :-1])
    elif change == "integer-A_ms":
        misfit = dataclasses.replace(cs, A_ms=gram.astype(np.int64))
    elif change == "vector-M_ms":
        misfit = dataclasses.replace(cs, M_ms=gram[0])
    else:
        value = np.nan if change.startswith("nan") else np.inf
        misfit = dataclasses.replace(cs, **{name: np.full_like(gram, value)})
    key = cache_key(problem44.forms, cs.config, 25)
    save_corrector_cache(tmp_path, key, misfit, seq)
    _check(load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None,
           "a file whose corrector set does not fit was served")


# the cache stores one kind of sequence, the certified one in its Lanczos
# form: the "lanczos" kind of the tests below
@pytest.mark.parametrize("kind", ["lanczos"])
@pytest.mark.parametrize("counts", ["one-short", "one-over", "negative", "moved",
                                    "fewer-nodes"])
def test_cache_whose_row_counts_do_not_split_the_rows_is_a_miss(tmp_path, problem44,
                                                                certified_nodes, counts,
                                                                kind):
    # the rows of every node are one entry, cut into blocks of the node's
    # dofs, which the key fixes
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    path = save_corrector_cache(tmp_path, key, cs, seq)
    with np.load(path) as data:
        payload = dict(data)
    stored = payload["transient_row_counts"]
    widths = np.array([seq[d].dofs.size for d in payload["transient_nodes"]])
    _check(stored @ widths == payload["transient_rows"].size,
           "the saved counts split the rows")
    if counts == "one-short":
        stored[-1] -= 1
    elif counts == "one-over":
        stored[0] += 1
    elif counts == "negative":
        # the count of rows still fits
        stored[0] += stored[1] + 1
        stored[1] = -1
    elif counts == "moved":
        # so does the count of rows: a row moves to a node of another width
        other = np.flatnonzero(widths != widths[0])[0]
        stored[0] -= 1
        stored[other] += 1
    else:
        payload["transient_row_counts"] = stored[1:]
    np.savez(path, **payload)
    _check(load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None,
           "a file whose row counts do not split its rows was served")


@pytest.mark.parametrize("kind", ["lanczos"])
def test_cache_with_a_node_of_no_rows_is_a_miss(tmp_path, problem44, certified_nodes,
                                                kind):
    # one node's count set to 0, and its rows, alpha and beta cut to fit, was
    # served: the recurrence then added that node's weight into the first row
    # of the next node. Every sequence keeps at least one row
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    path = save_corrector_cache(tmp_path, key, cs, seq)
    with np.load(path) as data:
        payload = dict(data)
    counts = payload["transient_row_counts"]
    i = problem44.n_coarse_dofs // 2
    widths = np.array([seq[d].dofs.size for d in payload["transient_nodes"]])
    start = counts[:i] @ widths[:i]
    payload["transient_rows"] = np.delete(payload["transient_rows"],
                                          np.s_[start:start + counts[i] * widths[i]])
    first = counts[:i].sum()
    for name in ("transient_alpha", "transient_beta"):
        payload[name] = np.delete(payload[name], np.s_[first:first + counts[i]])
    counts[i] = 0
    np.savez(path, **payload)
    _check(load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None,
           "a file with a node of no rows was served")


@pytest.mark.parametrize("kind", ["lanczos", "set-only"])
@pytest.mark.parametrize("corruption", ["nan-data", "index-beyond", "indptr-beyond",
                                        "float-shape", "three-entry-shape"])
def test_cache_with_a_corrupt_Q_is_a_miss(tmp_path, problem44, certified_nodes, kind,
                                          corruption):
    # each was served: the online stage then stepped on a NaN and failed on
    # non-finite states, or read far outside Q's columns and segfaulted, or
    # read entries past Q's data; a float shape raised TypeError out of the
    # loader. A file of the corrector set only, as exp-rb writes, misses alike
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    path = save_corrector_cache(tmp_path, key, cs, seq if kind == "lanczos" else None)
    with np.load(path) as data:
        payload = dict(data)
    middle = payload["Q_data"].size // 2
    if corruption == "nan-data":
        payload["Q_data"][middle] = np.nan
    elif corruption == "index-beyond":
        payload["Q_indices"][middle] = 10**6
    elif corruption == "float-shape":
        payload["Q_shape"] = payload["Q_shape"].astype(float)
    elif corruption == "three-entry-shape":
        payload["Q_shape"] = np.append(payload["Q_shape"], 1)
    else:
        # an inner entry, so that the last still ends the data
        payload["Q_indptr"][payload["Q_indptr"].size // 2] = payload["Q_data"].size + 1
    np.savez(path, **payload)
    _check(load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None,
           "a file with a corrupt Q (%s) was served" % corruption)


@pytest.mark.parametrize("change", ["zero", "three-short", "float"])
def test_cache_of_another_horizon_is_a_miss(tmp_path, problem44, certified_nodes, change):
    # each was served: a sequence shorter than the key's horizon then failed
    # the online stage's check of its length, where the run should rebuild it
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    path = save_corrector_cache(tmp_path, key, cs, seq)
    with np.load(path) as data:
        payload = dict(data)
    middle = problem44.n_coarse_dofs // 2
    if change == "zero":
        payload["transient_horizon"][middle] = 0
    elif change == "three-short":
        payload["transient_horizon"][middle] -= 3
    elif change == "float":
        payload["transient_horizon"] = payload["transient_horizon"].astype(float)
    np.savez(path, **payload)
    _check(load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None,
           "a file of another horizon (%s) was served" % change)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["xi", "alpha", "beta", "norm1", "bound"])
def test_cache_with_a_non_finite_sequence_is_a_miss(tmp_path, problem44, certified_nodes,
                                                    name, value):
    # a NaN row was served, and the online stage failed on non-finite states
    cs, seq = certified_nodes
    x_dof = problem44.n_coarse_dofs // 2
    tc = seq[x_dof]
    spoiled = getattr(tc, name)
    if isinstance(spoiled, np.ndarray):
        spoiled = spoiled.copy()
        spoiled.flat[spoiled.size // 2] = value
    else:
        spoiled = value
    key = cache_key(problem44.forms, cs.config, 25)
    save_corrector_cache(tmp_path, key, cs,
                         {**seq, x_dof: dataclasses.replace(tc, **{name: spoiled})})
    _check(load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None,
           "a file with a non-finite %s was served" % name)


@pytest.mark.parametrize("kind", ["lanczos"])
def test_loaded_rows_are_views_of_one_entry(tmp_path, problem44, certified_nodes, kind):
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    save_corrector_cache(tmp_path, key, cs, seq)
    _, loaded = load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25)
    buffer = loaded[0].xi.base
    _check(buffer is not None and buffer.ndim == 1
           and buffer.size == sum(tc.xi.size for tc in seq.values()), "one rows entry")
    for d, tc in loaded.items():
        _check(np.shares_memory(tc.xi, buffer) and tc.xi.base is buffer,
               "node %d: its rows are a view of the entry" % d)
        _check(tc.xi.tobytes() == seq[d].xi.tobytes(), "node %d: its rows" % d)


def test_loaded_dofs_are_derived_from_the_key(tmp_path, problem84, monkeypatch):
    # the file stores no dofs: each node's are those of its patch, as built
    cs = build_corrector_set(problem84.forms, CorrectorConfig(k=3))
    seq = transients_for_all_nodes(cs, 3)
    key = cache_key(problem84.forms, cs.config, 3)
    path = save_corrector_cache(tmp_path, key, cs, seq)
    with zipfile.ZipFile(path) as archive:
        names = archive.namelist()
    _check(not any("dofs" in name for name in names), "stored entries %s" % names)
    _, loaded = load_corrector_cache(tmp_path, key, problem84.forms, cs.config, 3)
    _check(sorted(loaded) == list(range(problem84.n_coarse_dofs)), "every node")
    for d, tc in seq.items():
        _check(loaded[d].dofs.dtype == tc.dofs.dtype
               and loaded[d].dofs.tobytes() == tc.dofs.tobytes(), "node %d: dofs" % d)
    # the loader derives them: rows that do not fit the derived widths miss
    monkeypatch.setattr(lod, "_node_dofs", lambda pair, x_dof, k: tc.dofs[:-1])
    _check(load_corrector_cache(tmp_path, key, problem84.forms, cs.config, 3) is None,
           "rows served on dofs they do not fit")


def test_cache_miss_closes_the_file(tmp_path, problem44, certified_nodes,
                                    monkeypatch):
    # a truncated entry fails inside np.load, after the file was opened
    cs, seq = certified_nodes
    key = cache_key(problem44.forms, cs.config, 25)
    path = save_corrector_cache(tmp_path, key, cs, seq)
    data = Path(path).read_bytes()
    opened = []
    real_open = builtins.open

    def recording_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        return fh

    for size in (10, len(data) // 2, len(data) - 1):
        Path(path).write_bytes(data[:size])
        with monkeypatch.context() as patched:
            patched.setattr(builtins, "open", recording_open)
            assert load_corrector_cache(tmp_path, key, problem44.forms, cs.config, 25) is None
    assert opened and all(fh.closed for fh in opened)


def test_cache_key_covers_every_input(problem44):
    forms = problem44.forms
    config = CorrectorConfig(k=2)
    base = cache_key(forms, config, 10)
    assert cache_key(forms, CorrectorConfig(k=2), 10) == base
    # a numpy integer k is accepted and keys the same file as the Python int
    assert cache_key(forms, CorrectorConfig(k=np.int64(2)), 10) == base
    scaled = DiscreteForms(problem44.pair, 10.0 * problem44.field_a.values,
                           problem44.field_b, TAU)
    stepped = DiscreteForms(problem44.pair, problem44.field_a, problem44.field_b,
                            TAU * (1 + 1e-12))
    variants = [
        cache_key(scaled, config, 10),
        cache_key(forms, CorrectorConfig(k=3), 10),
        cache_key(forms, CorrectorConfig(k=2, form_choice="a_only"), 10),
        cache_key(stepped, config, 10),
        cache_key(forms, config, 11),
    ]
    assert len(set(variants + [base])) == len(variants) + 1


def _pinned_forms():
    # the coefficients are exact binary fractions, the same on every platform
    pair = NestedMeshPair(Mesh(4), 2)
    n = pair.fine.n_elements
    return DiscreteForms(pair, 1.0 + np.arange(n) % 3, 0.5 * (1.0 + np.arange(n) % 5),
                         0.02)


# the keys of these inputs in earlier cache formats: the first two from
# before the cache format and the generator were keyed, the next three of
# format 2, which stored sequences cut short by a stop tolerance it hashed,
# the next three of format 3, which stored the members of certified
# sequences, the next three of format 4, which stored each node's dofs as
# an entry of its own, the last three of format 5, which stored each node's
# rows as an entry of its own, and the dofs the key fixes
_OLD_FORMAT_KEYS = (
    "k2_a_plus_tau_b_83cb82afdb841db22410a0051edd26196a527870d92008061cf1786f89587295",
    "k3_a_only_902e923463c53ffa528ba8e907ef843a6ce9a0b7a99621cf97a57ae315aa22b7",
    "k2_a_plus_tau_b_25623439b95b70d725006e8cea7576440f939976fa256bd64dbb3b29ae8843e3",
    "k3_a_only_9546048526b9d354ceecbce46d39416aef899add6b6cfb859df8326c996f1450",
    "k2_a_plus_tau_b_b4bfa3a6ed393e378acc83182f391dbc6de0bd6eeba836bd522c6c83fcfb3d56",
    "k2_a_plus_tau_b_f74af52292c8b55980406ef1df53545740e1e21d857125cdf6fc3fc536007726",
    "k3_a_only_c8fb2474b1ec8427e026b6cf1fea52a9db0903d4b03349eaf5fbebcdabc7f27a",
    "k2_a_plus_tau_b_adbf64e12aeb7db50d01e7168a9c81d124d25edc58a5dce363656e8738cb7683",
    "k2_a_plus_tau_b_72181747bb422d942816eaf674f1827eda3135a198793a97dff78860107a8c40",
    "k3_a_only_72c09d5d99cb54d7ac590f60671b16f51517b07634f283453e9b5936dc7f59b2",
    "k2_a_plus_tau_b_c5418bf262293458ad83ee0a6bf52d07c45115a4cc6f2948c9375adf9e8aa60e",
    "k2_a_plus_tau_b_c15bb7864ad50aa2d342d467f8d41f9484f5ce209b52408213c0d33ccc11cca3",
    "k3_a_only_4f8c4794cf4f8a6bb4c99eb46c866a185bfb5b1073dec0795d5d15fa5ad32a78",
    "k2_a_plus_tau_b_cbbf73ebdb219c63910e6d4a1f79ac28a00f6045b3eb71949820e72b804a6e87",
)


def test_cache_key_is_pinned():
    # cache file names change only with CACHE_FORMAT or the keyed inputs
    forms = _pinned_forms()
    keys = (cache_key(forms, CorrectorConfig(k=2), 10),
            cache_key(forms, CorrectorConfig(k=3, form_choice="a_only"), 50))
    assert keys == (
        "k2_a_plus_tau_b_718a84c9c4e941c295623ddada746c63418ff8a075a756cb5d02576012e9d0ab",
        "k3_a_only_a2cb7d2bc06dbd0cc8ff4651fa39ba852a43c1209024147509b51c4e91c34986")
    assert not set(keys) & set(_OLD_FORMAT_KEYS)


def test_cache_of_another_format_is_a_miss(tmp_path, certified_nodes):
    # a file of an old format sits under its old name, which no key gives
    cs, seq = certified_nodes
    pinned = _pinned_forms()
    olds = [save_corrector_cache(tmp_path, old_key, cs, seq)
            for old_key in _OLD_FORMAT_KEYS if old_key.startswith("k2_")]
    key = cache_key(pinned, CorrectorConfig(k=2), 10)
    assert load_corrector_cache(tmp_path, key, pinned, CorrectorConfig(k=2), 10) is None
    for old in olds:
        shutil.copy(old, tmp_path / (key + ".npz"))
        assert load_corrector_cache(tmp_path, key, pinned, CorrectorConfig(k=2), 10) is None
