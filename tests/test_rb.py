import numpy as np
import pytest

from sdwave import lod
from sdwave.evolution import TimeGrid, localized_gfem_solve, rel_h1_final
from sdwave.lod import (CorrectorConfig, Patch, TransientCorrectors,
                        build_corrector_set, cache_key, compute_transient_correctors,
                        load_corrector_cache, save_corrector_cache,
                        transients_for_all_nodes)
from sdwave.rb import (EmptyBasisError, build_rb, compress_transients, lift,
                       node_reductions, rb_gfem_solve, rb_step,
                       snapshot_singular_values)

N_STEPS = 20


@pytest.fixture(scope="module")
def snapshots44(problem44):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem44.forms, cfg)
    tc = compute_transient_correctors(cs, problem44.n_coarse_dofs // 2, horizon=20)
    return cs, tc


def _patch(problem, tc):
    return Patch(problem.forms, tc.dofs)


def _patch_norm(problem, dofs):
    H1p = (problem.forms.K_1 + problem.forms.M)[dofs][:, dofs]
    return lambda v: np.sqrt(max(v @ (H1p @ v), 0.0))


def test_duplicate_snapshots_collapse(problem44, snapshots44):
    _, tc = snapshots44
    stacked = np.vstack([tc.xi[0], tc.xi[0]])
    basis = build_rb(stacked, _patch(problem44, tc))
    assert basis.Z.shape[1] == 1
    assert basis.m_selected == 1


@pytest.mark.parametrize("tol_rel", [-1e-10, 1.0, 2.0, float("nan")],
                         ids=["negative", "one", "two", "nan"])
def test_build_rb_rejects_tolerance_outside_unit_interval(problem44, snapshots44,
                                                          tol_rel):
    _, tc = snapshots44
    with pytest.raises(ValueError, match="tol_rel"):
        build_rb(tc.xi, _patch(problem44, tc), tol_rel=tol_rel)


def test_orthonormal_snapshots_all_accepted(problem44, snapshots44):
    _, tc = snapshots44
    pre = build_rb(tc.xi[:6], _patch(problem44, tc), tol_rel=0.0)
    again = build_rb(pre.Z.T, _patch(problem44, tc))
    assert again.Z.shape[1] == 6
    atilde = problem44.forms.K_tilde[tc.dofs][:, tc.dofs]
    overlap = np.abs(again.Z.T @ (atilde @ pre.Z))
    np.testing.assert_allclose(np.abs(np.diag(overlap)), 1.0, atol=1e-9)


def test_zero_first_snapshot_rejected(problem44, snapshots44):
    _, tc = snapshots44
    with pytest.raises(EmptyBasisError):
        build_rb(np.zeros((1, tc.dofs.size)), _patch(problem44, tc))
    # a node whose sequence carries no energy keeps its stored zero sequence
    zero = {problem44.n_coarse_dofs // 2: TransientCorrectors(
        tc.dofs, np.zeros((6, tc.dofs.size)), tc.correctors)}
    reductions = node_reductions(zero, (2, 4))
    assert all(node.basis is None for node in reductions.values())
    compressed = compress_transients(zero, reductions, 2, horizon=6)
    assert [c.xi.shape for c in compressed.values()] == [(6, tc.dofs.size)]


def test_basis_prefix_is_the_smaller_basis(problem44, snapshots44):
    # Gram-Schmidt is sequential and stops at its first rejection
    _, tc = snapshots44
    big = build_rb(tc.xi, _patch(problem44, tc))
    for m in (1, 3, 5, 10, tc.xi.shape[0]):
        small = build_rb(tc.xi[:m], _patch(problem44, tc))
        assert small.m_selected == min(m, big.m_selected)
        np.testing.assert_array_equal(small.Z, big.Z[:, :small.m_selected])
        np.testing.assert_array_equal(big.prefix(m).Z, small.Z)


def test_basis_invariants(problem44, snapshots44):
    _, tc = snapshots44
    basis = build_rb(tc.xi, _patch(problem44, tc))
    m = basis.Z.shape[1]
    assert np.abs(basis.a_hat - np.eye(m)).max() <= 1e-10
    # basis columns stay fine-scale
    IH = problem44.forms.interp
    for j in range(m):
        full = np.zeros(problem44.n_fine_dofs)
        full[tc.dofs] = basis.Z[:, j]
        assert np.abs(IH @ full).max() <= 1e-10


def test_projection_consistency(problem44, snapshots44):
    _, tc = snapshots44
    basis = build_rb(tc.xi, _patch(problem44, tc))
    atilde = problem44.forms.K_tilde[tc.dofs][:, tc.dofs]
    nrm = _patch_norm(problem44, tc.dofs)
    for l in range(basis.m_selected):
        c = basis.Z.T @ (atilde @ tc.xi[l])
        assert nrm(lift(basis, c) - tc.xi[l]) <= 1e-9 * nrm(tc.xi[l])


def test_rb_step_zero_and_shape(problem44, snapshots44):
    _, tc = snapshots44
    basis = build_rb(tc.xi[:5], _patch(problem44, tc))
    assert np.all(rb_step(basis, np.zeros(basis.Z.shape[1])) == 0.0)
    with pytest.raises(ValueError):
        rb_step(basis, np.zeros(basis.Z.shape[1] + 1))


def test_full_basis_recursion_matches_direct(problem44, snapshots44):
    _, tc = snapshots44
    basis = build_rb(tc.xi, _patch(problem44, tc), tol_rel=0.0)
    atilde = problem44.forms.K_tilde[tc.dofs][:, tc.dofs]
    nrm = _patch_norm(problem44, tc.dofs)
    c = basis.Z.T @ (atilde @ tc.xi[0])
    for l in range(1, tc.xi.shape[0]):
        c = rb_step(basis, c)
        assert nrm(lift(basis, c) - tc.xi[l]) <= 1e-9 * nrm(tc.xi[l])


def test_recursion_contracts(problem44, snapshots44):
    _, tc = snapshots44
    basis = build_rb(tc.xi, _patch(problem44, tc))
    eigs = np.linalg.eigvals(np.linalg.solve(basis.a_hat, basis.k_hat))
    assert np.abs(eigs).max() < 1.0


def test_singular_values(problem44, snapshots44):
    _, tc = snapshots44
    single = snapshot_singular_values(tc.xi[:1], _patch(problem44, tc))
    atilde = problem44.forms.K_tilde[tc.dofs][:, tc.dofs]
    assert single[0] == pytest.approx(np.sqrt(tc.xi[0] @ (atilde @ tc.xi[0])), rel=1e-12)
    dup = snapshot_singular_values(np.vstack([tc.xi[0], tc.xi[0]]),
                                   _patch(problem44, tc))
    assert dup[1] <= 1e-12 * dup[0]
    sv = snapshot_singular_values(tc.xi, _patch(problem44, tc))
    assert np.all(np.diff(sv) <= 0.0)


@pytest.fixture(scope="module")
def localized44(problem44):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem44.forms, cfg)
    seq = transients_for_all_nodes(cs, horizon=N_STEPS)
    zc = np.zeros(problem44.n_coarse_dofs)
    reference = localized_gfem_solve(cs, seq, 1.0, N_STEPS, zc, zc)
    return cs, seq, reference


def test_rb_rejects_transients_of_another_corrector_set(problem44, localized44,
                                                       foreign_k2_44):
    # an equal config passed the old check of the localized solve
    cs, _, _ = localized44
    seq = transients_for_all_nodes(foreign_k2_44, horizon=N_STEPS - 1)
    reductions = node_reductions(seq, (5,))
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="another corrector set"):
        rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=5)


def test_rb_rejects_a_missing_node(problem44, localized44):
    # the node went without a fine-scale correction
    cs, seq, _ = localized44
    partial = {d: tc for d, tc in seq.items() if d != 0}
    reductions = node_reductions(partial, (5,))
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="per coarse node"):
        rb_gfem_solve(cs, partial, reductions, 1.0, N_STEPS, zc, zc, m_max=5)


def test_rb_gfem_uncompressed_is_identical(problem44, localized44):
    cs, seq, reference = localized44
    zc = np.zeros(problem44.n_coarse_dofs)
    reductions = node_reductions(seq, (N_STEPS,))
    traj = rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=N_STEPS)
    assert rel_h1_final(problem44.forms, traj, reference) <= 1e-12


def test_rb_gfem_steps_at_forms_tau(problem44, localized44):
    cs, seq, _ = localized44
    zc = np.zeros(problem44.n_coarse_dofs)
    reductions = node_reductions(seq, (5,))
    traj = rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=5)
    assert traj.grid == TimeGrid(problem44.forms.tau, N_STEPS)
    with pytest.raises(ValueError, match="two time steps"):
        rb_gfem_solve(cs, seq, reductions, 1.0, 1, zc, zc, m_max=5)


def test_rb_gfem_gap_shrinks_with_m(problem44, localized44):
    cs, seq, reference = localized44
    zc = np.zeros(problem44.n_coarse_dofs)
    gaps = []
    for m in (1, 5, 10):
        reductions = node_reductions(seq, (m,))
        traj = rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=m)
        gaps.append(rel_h1_final(problem44.forms, traj, reference))
    assert gaps[2] < gaps[1] < gaps[0]


def _oracle_sequence(problem, tc, m, horizon):
    """Per-M basis, continuation stepped with rb_step and lifted one by one."""
    kept = tc.xi[:m]
    if m >= tc.xi.shape[0]:
        return kept
    basis = build_rb(kept, _patch(problem, tc))
    atilde = problem.forms.K_tilde[tc.dofs][:, tc.dofs]
    c = basis.Z.T @ (atilde @ kept[-1])
    rows = list(kept)
    for _ in range(m, horizon):
        c = rb_step(basis, c)
        rows.append(lift(basis, c))
    return np.array(rows)


def test_shared_basis_compression_matches_oracle(problem44, localized44):
    _, seq, _ = localized44
    reductions = node_reductions(seq, (1, 5, 10))
    assert set(reductions) == set(seq)
    for m in (1, 5, 10):
        compressed = compress_transients(seq, reductions, m, horizon=N_STEPS)
        for d, tc in seq.items():
            expected = _oracle_sequence(problem44, tc, m, N_STEPS)
            got = compressed[d].xi
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got[:m], tc.xi[:m])
            scale = np.abs(expected).max()
            assert np.abs(got - expected).max() <= 1e-10 * scale, (d, m)


def test_compression_rejects_bases_built_too_small(problem44, localized44):
    _, seq, _ = localized44
    reductions = node_reductions(seq, (1, 5))
    with pytest.raises(ValueError):
        compress_transients(seq, reductions, 10, horizon=N_STEPS)
    with pytest.raises(ValueError):
        compress_transients(seq, reductions, 0, horizon=N_STEPS)


def test_node_reductions_reject_corrupt_dofs(problem44, snapshots44):
    # patch dofs read back from a corrupt cache, out of order or out of range
    _, tc = snapshots44
    for dofs in (tc.dofs[::-1], tc.dofs + problem44.n_fine_dofs):
        corrupt = TransientCorrectors(dofs, tc.xi, tc.correctors)
        with pytest.raises(ValueError, match="patch dofs"):
            node_reductions({problem44.n_coarse_dofs // 2: corrupt}, (5,))


def test_every_sequence_has_exactly_horizon_rows(problem44, tmp_path, monkeypatch):
    # power, certified, cache-loaded and compressed sequences alike, also at a
    # node whose first member, and so its first snapshot's energy, is zero
    forms = problem44.forms
    cs = build_corrector_set(forms, CorrectorConfig(k=2))
    horizon = 17
    zero = problem44.n_coarse_dofs // 2
    transient_patch = lod.transient_patch

    def zero_rhs_at_one_node(correctors, x_dof, Q_csc=None):
        patch, rhs = transient_patch(correctors, x_dof, Q_csc)
        return patch, np.zeros_like(rhs) if x_dof == zero else rhs

    monkeypatch.setattr(lod, "transient_patch", zero_rhs_at_one_node)
    zc = np.zeros(problem44.n_coarse_dofs)
    for generator in lod.GENERATORS:
        seq = transients_for_all_nodes(cs, horizon, generator=generator)
        assert not seq[zero].xi.any()
        key = cache_key(forms, cs.config, horizon, generator)
        save_corrector_cache(tmp_path, key, cs, seq)
        _, loaded = load_corrector_cache(tmp_path, key, forms, cs.config)
        reductions = node_reductions(seq, (1, 5))
        assert reductions[zero].basis is None
        families = [seq, loaded] + [compress_transients(seq, reductions, m, horizon)
                                    for m in (1, 5)]
        for family in families:
            assert sorted(family) == list(range(problem44.n_coarse_dofs))
            for tc in family.values():
                assert tc.xi.shape == (horizon, tc.dofs.size)
        # and a run of horizon + 1 steps reads every member
        rb_gfem_solve(cs, seq, reductions, 1.0, horizon + 1, zc, zc, m_max=1)
