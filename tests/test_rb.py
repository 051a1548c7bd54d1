import numpy as np
import pytest

from sdwave import lod, rb
from sdwave.evolution import TimeGrid, localized_gfem_solve, rel_h1_final
from sdwave.lod import (CorrectorConfig, Patch, TransientCorrectors,
                        build_corrector_set, cache_key, compute_transient_correctors,
                        load_corrector_cache, save_corrector_cache,
                        transients_for_all_nodes)
from sdwave.rb import (EmptyBasisError, build_rb, node_reductions, rb_gfem_solve,
                       snapshot_singular_values)

from conftest import _per_step_superposition

N_STEPS = 20


@pytest.fixture(scope="module")
def snapshots44(problem44):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem44.forms, cfg)
    tc = compute_transient_correctors(cs, problem44.n_coarse_dofs // 2, 20, lod._k_a_q(cs))
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


def _step(basis, c):
    """The projected recursion's next coefficients, a_hat^-1 k_hat c."""
    return np.linalg.solve(basis.a_hat, basis.k_hat @ c)


def test_orthonormal_snapshots_all_accepted(problem44, snapshots44, monkeypatch):
    _, tc = snapshots44
    with monkeypatch.context() as m:
        m.setattr(rb, "RB_TOL", 0.0)
        pre = build_rb(tc.xi[:6], _patch(problem44, tc))
    again = build_rb(pre.Z.T, _patch(problem44, tc))
    assert again.Z.shape[1] == 6
    atilde = problem44.forms.K_tilde[tc.dofs][:, tc.dofs]
    overlap = np.abs(again.Z.T @ (atilde @ pre.Z))
    np.testing.assert_allclose(np.abs(np.diag(overlap)), 1.0, atol=1e-9)


def test_zero_first_snapshot_rejected(problem44, snapshots44):
    _, tc = snapshots44
    with pytest.raises(EmptyBasisError):
        build_rb(np.zeros((1, tc.dofs.size)), _patch(problem44, tc))
    # a node whose sequence carries no energy runs as one zero row
    x = problem44.n_coarse_dofs // 2
    zero = {x: TransientCorrectors(tc.dofs, np.zeros((6, tc.dofs.size)), tc.correctors)}
    reductions = node_reductions(zero, (2, 4))
    assert all(node.basis is None for node in reductions.values())
    rows = rb._band(x, zero[x], reductions[x], 2)[1]
    assert rows.shape == (1, tc.dofs.size) and not rows.any()


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
        assert nrm(basis.Z @ c - tc.xi[l]) <= 1e-9 * nrm(tc.xi[l])


def test_full_basis_recursion_matches_direct(problem44, snapshots44, monkeypatch):
    _, tc = snapshots44
    monkeypatch.setattr(rb, "RB_TOL", 0.0)
    basis = build_rb(tc.xi, _patch(problem44, tc))
    atilde = problem44.forms.K_tilde[tc.dofs][:, tc.dofs]
    nrm = _patch_norm(problem44, tc.dofs)
    c = basis.Z.T @ (atilde @ tc.xi[0])
    for l in range(1, tc.xi.shape[0]):
        c = _step(basis, c)
        assert nrm(basis.Z @ c - tc.xi[l]) <= 1e-9 * nrm(tc.xi[l])


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
    seq = transients_for_all_nodes(cs, horizon=N_STEPS, generator="power")
    zc = np.zeros(problem44.n_coarse_dofs)
    reference = localized_gfem_solve(cs, seq, 1.0, N_STEPS, zc, zc)
    return cs, seq, reference


def test_rb_rejects_transients_of_another_corrector_set(problem44, localized44,
                                                       foreign_k2_44):
    # an equal config passed the old check of the localized solve
    cs, _, _ = localized44
    seq = transients_for_all_nodes(foreign_k2_44, horizon=N_STEPS - 1, generator="power")
    reductions = node_reductions(seq, (5,))
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="another corrector set"):
        rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=5)


def test_rb_rejects_certified_sequences(problem44, localized44, monkeypatch):
    # their stored rows are a Lanczos basis, which would be read as snapshots;
    # each entry point refuses them before any work
    cs, power, _ = localized44
    certified = transients_for_all_nodes(cs, horizon=N_STEPS - 1)
    reductions = node_reductions(power, (5,))

    def no_work(*args, **kwargs):
        raise AssertionError("worked on certified sequences")

    for name in ("Patch", "build_rb", "localized_gfem_solve", "_check_transients",
                 "_Recurrence", "_gfem_steps"):
        monkeypatch.setattr(rb, name, no_work)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="certified"):
        node_reductions(certified, (5,))
    with pytest.raises(ValueError, match="certified"):
        rb_gfem_solve(cs, certified, reductions, 1.0, N_STEPS, zc, zc, m_max=5)
    # one certified node among power iterates is refused as well
    mixed = {**power, 0: certified[0]}
    with pytest.raises(ValueError, match="certified"):
        node_reductions(mixed, (5,))


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
    """Per-M basis, continuation stepped with _step and lifted one by one; a
    node whose first snapshot carries no energy keeps its zero sequence."""
    kept = tc.xi[:m]
    if m >= tc.xi.shape[0]:
        return kept
    try:
        basis = build_rb(kept, _patch(problem, tc))
    except EmptyBasisError:
        return tc.xi[:horizon]
    atilde = problem.forms.K_tilde[tc.dofs][:, tc.dofs]
    c = basis.Z.T @ (atilde @ kept[-1])
    rows = list(kept)
    for _ in range(m, horizon):
        c = _step(basis, c)
        rows.append(basis.Z @ c)
    return np.array(rows)


@pytest.fixture(scope="module")
def zero_node44(problem44, localized44):
    """localized44's corrector set with power iterates whose middle node has
    a zero first member, and so a first snapshot without energy."""
    cs, _, _ = localized44
    zero = problem44.n_coarse_dofs // 2
    transient_patch = lod.transient_patch

    def zero_rhs_at_one_node(correctors, x_dof, KQ):
        patch, rhs = transient_patch(correctors, x_dof, KQ)
        return patch, np.zeros_like(rhs) if x_dof == zero else rhs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lod, "transient_patch", zero_rhs_at_one_node)
        seq = transients_for_all_nodes(cs, horizon=N_STEPS, generator="power")
    assert not seq[zero].xi.any()
    return seq


def test_shared_basis_compression_matches_oracle(problem44, localized44, zero_node44):
    # the bands of rb_gfem_solve against the lifted rows of the oracle, summed
    # per step, also with a zero node; a band keeps the first m members exact
    cs, seq, _ = localized44
    rng = np.random.default_rng(7)
    alpha0, alpha1 = rng.standard_normal((2, problem44.n_coarse_dofs))
    for family in (seq, zero_node44):
        reductions = node_reductions(family, (1, 5, 10))
        assert set(reductions) == set(family)
        for m in (1, 5, 10, N_STEPS):
            got = rb_gfem_solve(cs, family, reductions, 1.0, N_STEPS, alpha0, alpha1,
                                m_max=m)
            lifted = {d: TransientCorrectors(
                tc.dofs, _oracle_sequence(problem44, tc, m, N_STEPS), cs)
                for d, tc in family.items()}
            alpha, states = _per_step_superposition(cs, lifted, problem44.forms, 1.0,
                                                    N_STEPS, alpha0, alpha1)
            for d, tc in family.items():
                if m < N_STEPS and reductions[d].basis is not None:
                    rows = rb._band(d, tc, reductions[d], m)[1]
                    np.testing.assert_array_equal(rows[:m], tc.xi[:m])
            for name, want in (("states", states), ("alpha", alpha)):
                error = np.linalg.norm(getattr(got, name) - want)
                assert error <= 1e-12 * np.linalg.norm(want), (name, m)


def test_compression_rejects_bases_built_too_small(problem44, localized44):
    cs, seq, _ = localized44
    reductions = node_reductions(seq, (1, 5))
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="no reduced basis of 10"):
        rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=10)
    with pytest.raises(ValueError, match="m_max"):
        rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=0)


@pytest.mark.parametrize("m_max", [0, -1, 1.5, True, "5", None, np.float64(5.0)],
                         ids=["zero", "negative", "float", "bool", "string", "none",
                              "numpy-float"])
def test_rb_gfem_rejects_a_bad_m_max_before_any_work(problem44, localized44, monkeypatch,
                                                     m_max):
    # 1.5 failed in slicing after the bases were read, and True ran as 1
    cs, seq, _ = localized44
    reductions = node_reductions(seq, (1, 5))

    def no_work(*args, **kwargs):
        raise AssertionError("worked on a bad m_max")

    for name in ("localized_gfem_solve", "_check_transients", "_band", "_Recurrence",
                 "_gfem_steps"):
        monkeypatch.setattr(rb, name, no_work)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="m_max"):
        rb_gfem_solve(cs, seq, reductions, 1.0, N_STEPS, zc, zc, m_max=m_max)


def test_node_reductions_reject_corrupt_dofs(problem44, snapshots44):
    # patch dofs read back from a corrupt cache, out of order or out of range
    _, tc = snapshots44
    for dofs in (tc.dofs[::-1], tc.dofs + problem44.n_fine_dofs):
        corrupt = TransientCorrectors(dofs, tc.xi, tc.correctors)
        with pytest.raises(ValueError, match="patch dofs"):
            node_reductions({problem44.n_coarse_dofs // 2: corrupt}, (5,))


def test_every_sequence_has_exactly_horizon_rows(problem44, tmp_path, monkeypatch):
    # power, certified and cache-loaded sequences alike, also at a node whose
    # first member, and so its first snapshot's energy, is zero
    forms = problem44.forms
    cs = build_corrector_set(forms, CorrectorConfig(k=2))
    horizon = 17
    zero = problem44.n_coarse_dofs // 2
    transient_patch = lod.transient_patch

    def zero_rhs_at_one_node(correctors, x_dof, KQ):
        patch, rhs = transient_patch(correctors, x_dof, KQ)
        return patch, np.zeros_like(rhs) if x_dof == zero else rhs

    monkeypatch.setattr(lod, "transient_patch", zero_rhs_at_one_node)
    zc = np.zeros(problem44.n_coarse_dofs)
    for generator in lod.GENERATORS:
        seq = transients_for_all_nodes(cs, horizon, generator=generator)
        assert not seq[zero].members().any()
        key = cache_key(forms, cs.config, horizon, generator)
        save_corrector_cache(tmp_path, key, cs, seq)
        cs_loaded, loaded = load_corrector_cache(tmp_path, key, forms, cs.config, horizon)
        families = [seq, loaded]
        if generator == "power":
            reductions = node_reductions(seq, (1, 5))
            assert reductions[zero].basis is None
            # and a run of horizon + 1 steps reads every member
            rb_gfem_solve(cs, seq, reductions, 1.0, horizon + 1, zc, zc, m_max=1)
        for family in families:
            assert sorted(family) == list(range(problem44.n_coarse_dofs))
            for tc in family.values():
                assert tc.horizon == horizon
                assert tc.members().shape == (horizon, tc.dofs.size)
        localized_gfem_solve(cs_loaded, loaded, 1.0, horizon + 1, zc, zc)
