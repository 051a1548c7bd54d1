import shutil

import numpy as np
import pytest

from sdwave.assembly import DiscreteForms, h1_norm
from sdwave.harness import random_field
from sdwave.linalg import factor_saddle
from sdwave.lod import (CorrectorConfig, build_corrector_set, cache_key,
                        compute_element_correctors,
                        compute_transient_correctors, decay_profile,
                        load_corrector_cache, patch_fine_dofs,
                        project_initial_data, save_corrector_cache,
                        transients_for_all_nodes)
from sdwave.mesh import element_patch, node_patch, prolongation, saturating_k

TAU = 0.02


def test_config_validation():
    with pytest.raises(ValueError):
        CorrectorConfig(k=0, tau=TAU)
    with pytest.raises(ValueError):
        CorrectorConfig(k=1, tau=-1.0)
    with pytest.raises(ValueError):
        CorrectorConfig(k=1, tau=TAU, form_choice="c_only")


def test_tau_mismatch_rejected(problem44):
    with pytest.raises(ValueError):
        build_corrector_set(problem44.pair, problem44.interp, problem44.forms,
                            CorrectorConfig(k=2, tau=0.5))


def test_element_correctors_vanish_at_r1(problem81):
    contrib = compute_element_correctors(problem81.pair, problem81.interp,
                                         problem81.forms, 30,
                                         CorrectorConfig(k=2, tau=TAU))
    assert contrib
    for vec in contrib.values():
        assert np.abs(vec).max() <= 1e-12


def test_constant_on_element_gives_zero_rhs(problem44):
    # gradient of a constant vanishes on the element, so no correction is driven
    from sdwave.assembly import element_rhs
    pair, forms = problem44.pair, problem44.forms
    t_inner = 2 * (1 * pair.coarse.n + 1)  # cell (1,1): closure avoids the boundary
    out = element_rhs(pair, forms.tilde_values, t_inner,
                      np.ones(pair.fine.n_dofs))
    assert np.abs(out).max() <= 1e-13


@pytest.fixture(scope="module")
def saturated_set(problem44):
    cfg = CorrectorConfig(k=saturating_k(problem44.pair.coarse), tau=TAU)
    return build_corrector_set(problem44.pair, problem44.interp,
                               problem44.forms, cfg)


def test_saturated_matches_global_solve(problem44, saturated_set):
    pair, forms, interp = problem44.pair, problem44.forms, problem44.interp
    P = prolongation(pair)
    saddle = factor_saddle(forms.K_tilde, interp.matrix)
    for dof in range(0, pair.coarse.n_dofs, 2):
        lam = np.asarray(P[:, dof].todense()).ravel()
        w, _ = saddle.solve(forms.K_tilde @ lam)
        phi = np.asarray(saturated_set.phi[:, dof].todense()).ravel()
        assert h1_norm(forms, w - phi) <= 1e-9 * h1_norm(forms, w)


def test_fine_scale_membership(problem44, saturated_set):
    residual = problem44.interp.matrix @ saturated_set.phi
    assert np.abs(residual.toarray()).max() <= 1e-10


def test_modified_basis_has_full_rank(problem44, saturated_set):
    rank = np.linalg.matrix_rank(saturated_set.Q.toarray())
    assert rank == problem44.n_coarse_dofs


def test_saturated_energy_orthogonality(problem44, saturated_set):
    pair, forms, interp = problem44.pair, problem44.forms, problem44.interp
    saddle = factor_saddle(forms.K_tilde, interp.matrix)
    rng = np.random.default_rng(31)
    q = saturated_set.Q @ rng.standard_normal(pair.coarse.n_dofs)
    w, _ = saddle.solve(forms.K_tilde @ rng.standard_normal(pair.fine.n_dofs))
    rel = abs(q @ (forms.K_tilde @ w)) / (h1_norm(forms, q) * h1_norm(forms, w))
    assert rel <= 1e-9


def test_a_only_orthogonality(problem44):
    pair, forms, interp = problem44.pair, problem44.forms, problem44.interp
    cfg = CorrectorConfig(k=saturating_k(pair.coarse), tau=TAU, form_choice="a_only")
    cs = build_corrector_set(pair, interp, forms, cfg)
    saddle = factor_saddle(forms.K_A, interp.matrix)
    rng = np.random.default_rng(32)
    q = cs.Q @ rng.standard_normal(pair.coarse.n_dofs)
    w, _ = saddle.solve(forms.K_A @ rng.standard_normal(pair.fine.n_dofs))
    rel = abs(q @ (forms.K_A @ w)) / (h1_norm(forms, q) * h1_norm(forms, w))
    assert rel <= 1e-9


def test_corrector_support(problem44):
    pair, forms, interp = problem44.pair, problem44.forms, problem44.interp
    cfg = CorrectorConfig(k=1, tau=TAU)
    cs = build_corrector_set(pair, interp, forms, cfg)
    coarse = pair.coarse
    for dof in (0, pair.coarse.n_dofs // 2):
        vertex = coarse.interior_nodes[dof]
        allowed = set()
        for T in node_patch(coarse, vertex, 1):
            allowed.update(patch_fine_dofs(pair, element_patch(coarse, T, 1)).tolist())
        support = set(np.flatnonzero(np.abs(
            np.asarray(cs.phi[:, dof].todense()).ravel()) > 1e-14).tolist())
        assert support <= allowed


def test_workers_agree(problem44):
    cfg = CorrectorConfig(k=2, tau=TAU)
    cs1 = build_corrector_set(problem44.pair, problem44.interp, problem44.forms, cfg)
    cs2 = build_corrector_set(problem44.pair, problem44.interp, problem44.forms,
                              cfg, workers=2)
    assert np.abs((cs1.Q - cs2.Q).toarray()).max() <= 1e-14
    one = transients_for_all_nodes(problem44.pair, problem44.interp,
                                   problem44.forms, cs1, horizon=4)
    two = transients_for_all_nodes(problem44.pair, problem44.interp,
                                   problem44.forms, cs1, horizon=4, workers=2)
    for d in one:
        np.testing.assert_array_equal(one[d].xi, two[d].xi)


@pytest.mark.parametrize("k", [1, None], ids=["k1", "saturating"])
def test_workers_factor_each_patch_once(problem44, monkeypatch, k):
    # concurrent elements on one patch must not each factor it
    from sdwave import linalg
    pair = problem44.pair
    k = k or saturating_k(pair.coarse)
    calls = []

    def counting(A, C):
        calls.append(A.shape[0])
        return factor_saddle(A, C)

    monkeypatch.setattr(linalg, "factor_saddle", counting)
    build_corrector_set(pair, problem44.interp, problem44.forms,
                        CorrectorConfig(k=k, tau=TAU), workers=2)
    patches = {patch_fine_dofs(pair, element_patch(pair.coarse, t, k)).tobytes()
               for t in range(pair.coarse.n_elements)}
    assert len(calls) == len(patches)


def test_transients_vanish_at_r1(problem81):
    cfg = CorrectorConfig(k=2, tau=TAU)
    cs = build_corrector_set(problem81.pair, problem81.interp, problem81.forms, cfg)
    tc = compute_transient_correctors(problem81.pair, problem81.interp,
                                      problem81.forms, cs,
                                      problem81.n_coarse_dofs // 2, horizon=5)
    assert np.abs(tc.xi).max() <= 1e-12


@pytest.fixture(scope="module")
def transient_node(problem44):
    cfg = CorrectorConfig(k=2, tau=TAU)
    cs = build_corrector_set(problem44.pair, problem44.interp, problem44.forms, cfg)
    tc = compute_transient_correctors(problem44.pair, problem44.interp,
                                      problem44.forms, cs,
                                      problem44.n_coarse_dofs // 2,
                                      horizon=25, stop_tol=0.0)
    return cs, tc


def test_transient_decay_and_membership(problem44, transient_node):
    _, tc = transient_node
    forms, interp = problem44.forms, problem44.interp
    H1p = (forms.K_1 + forms.M)[tc.dofs][:, tc.dofs]
    h1s = np.array([np.sqrt(x @ (H1p @ x)) for x in tc.xi])
    assert np.all(h1s[1:] < h1s[:-1])
    full = np.zeros(problem44.n_fine_dofs)
    full[tc.dofs] = tc.xi[0]
    assert np.abs(interp.matrix @ full).max() <= 1e-10


def test_first_step_matches_direct_global_solve(problem44):
    # with a saturated patch the recursion's first step is one projection solve
    pair, forms, interp = problem44.pair, problem44.forms, problem44.interp
    cfg = CorrectorConfig(k=saturating_k(pair.coarse), tau=TAU)
    cs = build_corrector_set(pair, interp, forms, cfg)
    dof = pair.coarse.n_dofs // 2
    tc = compute_transient_correctors(pair, interp, forms, cs, dof, horizon=2)
    q_x = np.asarray(cs.Q[:, dof].todense()).ravel()
    w, _ = factor_saddle(forms.K_tilde, interp.matrix).solve(forms.K_A @ q_x)
    xi1 = np.zeros(pair.fine.n_dofs)
    xi1[tc.dofs] = tc.xi[0]
    assert h1_norm(forms, xi1 - w) <= 1e-9 * h1_norm(forms, w)


def test_a_only_first_step_degenerates(problem44):
    # pure a-Ritz correctors make the first right-hand side a-orthogonal to
    # the fine-scale space, so the recursion starts from (almost) nothing
    pair, forms, interp = problem44.pair, problem44.forms, problem44.interp
    cfg = CorrectorConfig(k=saturating_k(pair.coarse), tau=TAU, form_choice="a_only")
    cs = build_corrector_set(pair, interp, forms, cfg)
    dof = pair.coarse.n_dofs // 2
    tc = compute_transient_correctors(pair, interp, forms, cs, dof, horizon=2)
    xi1 = np.zeros(pair.fine.n_dofs)
    xi1[tc.dofs] = tc.xi[0]
    q_x = np.asarray(cs.Q[:, dof].todense()).ravel()
    assert h1_norm(forms, xi1) <= 1e-9 * h1_norm(forms, q_x)


def test_superposition_identity_scripted(problem44, transient_node):
    # scripted coarse coefficients: the weighted sum of stored corrections
    # reproduces the per-step fine-scale solves
    cs, tc = transient_node
    pair, forms, interp = problem44.pair, problem44.forms, problem44.interp
    from sdwave.lod import _PatchSolver, form_matrix
    solver = _PatchSolver(pair, interp, form_matrix(forms, cs.config.form_choice),
                          tc.dofs)
    K_A_patch = forms.K_A[tc.dofs][:, tc.dofs]
    q_x = np.asarray(cs.Q[:, tc.x_dof].todense()).ravel()
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


def test_decay_profile_examples(problem44, transient_node):
    cs, tc = transient_node
    pair, forms = problem44.pair, problem44.forms
    xi1 = np.zeros(problem44.n_fine_dofs)
    xi1[tc.dofs] = tc.xi[0]
    prof = decay_profile(xi1, pair, tc.x_dof, forms)
    assert np.all(np.diff(prof[:, 1]) <= 1e-14)
    assert prof[-1, 1] == 0.0
    # support inside N^2(x) means the profile vanishes from j = 2 on
    assert prof[prof[:, 0] >= 2, 1].max() <= 1e-12

    phi = np.asarray(cs.phi[:, tc.x_dof].todense()).ravel()
    prof_phi = decay_profile(phi, pair, tc.x_dof, forms)
    mask = prof_phi[:, 1] > 1e-12
    slope = np.polyfit(prof_phi[mask, 0], np.log(prof_phi[mask, 1]), 1)[0]
    assert slope < 0.0


def test_project_initial_data(problem44, saturated_set):
    interp = problem44.interp
    assert np.all(project_initial_data(saturated_set,
                                       np.zeros(problem44.n_coarse_dofs)) == 0.0)
    rng = np.random.default_rng(34)
    u = rng.standard_normal(problem44.n_coarse_dofs)
    lifted = project_initial_data(saturated_set, u)
    assert np.abs(interp.matrix @ lifted - u).max() <= 1e-10


def test_project_initial_data_r1(problem81):
    cfg = CorrectorConfig(k=2, tau=TAU)
    cs = build_corrector_set(problem81.pair, problem81.interp, problem81.forms, cfg)
    P = prolongation(problem81.pair)
    rng = np.random.default_rng(35)
    u = rng.standard_normal(problem81.n_coarse_dofs)
    assert np.abs(project_initial_data(cs, u) - P @ u).max() <= 1e-12


def test_cache_roundtrip(tmp_path, problem44, transient_node):
    cs, tc = transient_node
    key = cache_key(problem44.forms, cs.config, 25, 0.0)
    path = save_corrector_cache(tmp_path, key, cs, {tc.x_dof: tc})
    loaded = load_corrector_cache(tmp_path, key, problem44.pair)
    assert loaded is not None
    cs2, transients2 = loaded
    assert cs2.config == cs.config
    assert np.abs((cs2.Q - cs.Q).toarray()).max() == 0.0
    np.testing.assert_array_equal(cs2.A_ms, cs.A_ms)
    np.testing.assert_array_equal(transients2[tc.x_dof].xi, tc.xi)
    np.testing.assert_array_equal(transients2[tc.x_dof].dofs, tc.dofs)
    assert load_corrector_cache(tmp_path, "missing", problem44.pair) is None
    # a file copied under another key is not served for it
    other = cache_key(problem44.forms, cs.config, 26, 0.0)
    shutil.copy(path, tmp_path / (other + ".npz"))
    assert load_corrector_cache(tmp_path, other, problem44.pair) is None
    # neither is an unreadable one
    data = open(path, "rb").read()
    for size in (0, 10, len(data) // 2, len(data) - 1):
        with open(path, "wb") as fh:
            fh.write(data[:size])
        assert load_corrector_cache(tmp_path, key, problem44.pair) is None


def test_cache_key_covers_every_input(problem44):
    forms = problem44.forms
    config = CorrectorConfig(k=2, tau=TAU)
    base = cache_key(forms, config, 10, 1e-12)
    assert cache_key(forms, CorrectorConfig(k=2, tau=TAU), 10, 1e-12) == base
    scaled = DiscreteForms(problem44.pair, 10.0 * problem44.field_a.values,
                           problem44.field_b, TAU)
    variants = [
        cache_key(scaled, config, 10, 1e-12),
        cache_key(forms, CorrectorConfig(k=3, tau=TAU), 10, 1e-12),
        cache_key(forms, CorrectorConfig(k=2, tau=TAU, form_choice="a_only"), 10, 1e-12),
        cache_key(forms, CorrectorConfig(k=2, tau=TAU * (1 + 1e-12)), 10, 1e-12),
        cache_key(forms, config, 11, 1e-12),
        cache_key(forms, config, 10, 1e-10),
    ]
    assert len(set(variants + [base])) == len(variants) + 1
