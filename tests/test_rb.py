import dataclasses
import warnings

import numpy as np
import pytest

from sdwave import lod, rb
from sdwave.evolution import TimeGrid, localized_gfem_solve, rel_h1_final, transient_horizon
from sdwave.harness import ExperimentConfig, _forms, run_exp_rb
from sdwave.lod import (CorrectorConfig, Patch, TransientCorrectors, build_corrector_set,
                        cache_key, compute_transient_correctors, load_corrector_cache,
                        save_corrector_cache, transients_for_all_nodes)
from sdwave.rb import (EmptyBasisError, build_rb, node_reductions, rb_gfem_solve,
                       snapshot_singular_values)

from conftest import _per_step_superposition, power_snapshots

N_STEPS = 20


@pytest.fixture(scope="module")
def snapshots44(problem44):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem44.forms, cfg)
    tc = compute_transient_correctors(cs, problem44.n_coarse_dofs // 2, 20)
    return cs, tc


def _patch(problem, tc):
    return Patch(problem.forms, tc.dofs)


def _zero_rhs_at(zero):
    """lod.transient_patch with a zero first right-hand side at node zero, so
    that its first member, and its first snapshot's energy, is zero."""
    transient_patch = lod.transient_patch

    def zero_rhs(correctors, x_dof):
        patch, rhs = transient_patch(correctors, x_dof)
        return patch, np.zeros_like(rhs) if x_dof == zero else rhs

    return zero_rhs


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


def test_zero_first_snapshot_rejected(problem44, snapshots44, zero_node44):
    _, tc = snapshots44
    with pytest.raises(EmptyBasisError):
        build_rb(np.zeros((1, tc.dofs.size)), _patch(problem44, tc))
    # a node whose sequence carries no energy runs as one zero row
    x = problem44.n_coarse_dofs // 2
    node = zero_node44[x]
    assert node.basis is None and node.n_snapshots == 10
    rows = rb._band(x, node, 2)[1]
    assert rows.shape == (1, node.dofs.size) and not rows.any()


def test_h_equal_H_keeps_no_remainder_the_kernel_projection_zeroed():
    # at h = H the interpolation kernel is empty and the power iterates are
    # round-off: build_rb normalized a remainder that the kernel projection
    # left at zero energy, so exp-rb failed on non-finite states (under
    # -W error on the RuntimeWarning of the division); such a node now keeps
    # no snapshot and runs as one zero row
    cfg = ExperimentConfig(p=3, q=3, M=(1, 2), T=0.2, seed=1)
    cs = build_corrector_set(_forms(cfg, cfg.q), CorrectorConfig(k=cfg.q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes = node_reductions(cs, transient_horizon(cfg.n_steps), cfg.M)
        rows, _ = run_exp_rb(cfg)
    assert any(node.basis is None and node.xi.any() for node in nodes.values())
    gaps = [row[column] for row in rows for column in ("rel_h1_final", "rel_l2h1")]
    assert len(rows) == 2 and max(gaps) <= 1e-12, gaps


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
    # the one-pass records, and exp-rb's reference: their unreduced run
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem44.forms, cfg)
    nodes = node_reductions(cs, N_STEPS, (1, 5, 10))
    zc = np.zeros(problem44.n_coarse_dofs)
    reference = rb_gfem_solve(cs, nodes, 1.0, N_STEPS, zc, zc, N_STEPS - 1)
    return cs, nodes, reference


def test_rb_rejects_transients_of_another_corrector_set(problem44, localized44,
                                                       foreign_k2_44):
    # an equal config passed the old check of the localized solve
    cs, _, _ = localized44
    foreign = node_reductions(foreign_k2_44, N_STEPS - 1, (5,))
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="another corrector set"):
        rb_gfem_solve(cs, foreign, 1.0, N_STEPS, zc, zc, m_max=5)


def test_rb_rejects_certified_sequences(problem44, localized44, monkeypatch):
    # their stored rows are a Lanczos basis, which would be read as snapshots;
    # rb_gfem_solve refuses every value that is not one of its records, the
    # bare power iterates of lod too, before any work, also unreduced
    cs, nodes, _ = localized44
    certified = transients_for_all_nodes(cs, horizon=N_STEPS - 1)
    power = power_snapshots(cs, N_STEPS)

    def no_work(*args, **kwargs):
        raise AssertionError("worked on foreign sequences")

    for name in ("build_rb", "_check_transients", "_band", "_Recurrence", "_gfem_steps"):
        monkeypatch.setattr(rb, name, no_work)
    zc = np.zeros(problem44.n_coarse_dofs)
    # one certified node among the records is refused as well
    for family in (certified, power, {**nodes, 0: certified[0]}):
        for m_max in (5, N_STEPS):
            with pytest.raises(ValueError, match="NodeReduction"):
                rb_gfem_solve(cs, family, 1.0, N_STEPS, zc, zc, m_max=m_max)


def test_rb_rejects_short_snapshots(problem44, localized44):
    # reduced or not, a run reads transient_horizon(n_steps) members
    cs, nodes, _ = localized44
    short = dict(nodes)
    short[0] = dataclasses.replace(nodes[0], xi=nodes[0].xi[:N_STEPS - 2])
    zc = np.zeros(problem44.n_coarse_dofs)
    for m_max in (5, N_STEPS - 1):
        with pytest.raises(ValueError, match="fewer than"):
            rb_gfem_solve(cs, short, 1.0, N_STEPS, zc, zc, m_max=m_max)


def test_rb_rejects_a_missing_node(problem44, localized44):
    # the node went without a fine-scale correction
    cs, nodes, _ = localized44
    partial = {d: node for d, node in nodes.items() if d != 0}
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="per coarse node"):
        rb_gfem_solve(cs, partial, 1.0, N_STEPS, zc, zc, m_max=5)


def test_rb_gfem_uncompressed_is_identical(problem44, localized44):
    # from m_max = horizon on, the run is the per-step superposition of the
    # snapshots, exactly the reference whatever bases the records hold
    cs, _, reference = localized44
    zc = np.zeros(problem44.n_coarse_dofs)
    nodes = node_reductions(cs, N_STEPS, (N_STEPS,))
    assert all(node.basis is None and node.n_snapshots == 0 for node in nodes.values())
    traj = rb_gfem_solve(cs, nodes, 1.0, N_STEPS, zc, zc, m_max=N_STEPS)
    np.testing.assert_array_equal(traj.states, reference.states)
    members = {x: (node.dofs, node.xi) for x, node in nodes.items()}
    alpha, states = _per_step_superposition(cs, members, problem44.forms, 1.0, N_STEPS,
                                            zc, zc)
    assert np.linalg.norm(traj.alpha - alpha) <= 1e-12 * np.linalg.norm(alpha)
    assert np.linalg.norm(traj.states - states) <= 1e-12 * np.linalg.norm(states)


def test_rb_gfem_steps_at_forms_tau(problem44, localized44):
    cs, nodes, _ = localized44
    zc = np.zeros(problem44.n_coarse_dofs)
    traj = rb_gfem_solve(cs, nodes, 1.0, N_STEPS, zc, zc, m_max=5)
    assert traj.grid == TimeGrid(problem44.forms.tau, N_STEPS)
    with pytest.raises(ValueError, match="two time steps"):
        rb_gfem_solve(cs, nodes, 1.0, 1, zc, zc, m_max=5)


def test_rb_gfem_gap_shrinks_with_m(problem44, localized44):
    cs, nodes, reference = localized44
    zc = np.zeros(problem44.n_coarse_dofs)
    gaps = []
    for m in (1, 5, 10):
        traj = rb_gfem_solve(cs, nodes, 1.0, N_STEPS, zc, zc, m_max=m)
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
    """localized44's records, built as there, where the middle node has a zero
    first member, and so a first snapshot without energy."""
    cs, _, _ = localized44
    zero = problem44.n_coarse_dofs // 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lod, "transient_patch", _zero_rhs_at(zero))
        nodes = node_reductions(cs, N_STEPS, (1, 5, 10))
    assert not nodes[zero].xi.any()
    return nodes


def _assert_two_pass_build(correctors, horizon, m_values):
    """Each record of node_reductions equals, byte for byte, what the two
    passes exp-rb used to make give: compute_transient_correctors, then
    build_rb on a fresh Patch of its dofs."""
    nodes = node_reductions(correctors, horizon, m_values)
    assert sorted(nodes) == list(range(correctors.Q.shape[1]))
    n = min(max(m_values), horizon)
    for d, node in nodes.items():
        power = compute_transient_correctors(correctors, d, horizon)
        patch = Patch(correctors.forms, power.dofs)
        assert np.array_equal(node.dofs, power.dofs) and np.array_equal(node.xi, power.xi)
        assert node.solves == power.solves and node.n_snapshots == n
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(node.a_tilde, part), getattr(patch.k_tilde, part))
        try:
            basis = build_rb(power.xi[:n], patch)
        except EmptyBasisError:
            assert node.basis is None and not power.xi.any()
            continue
        assert node.basis.m_selected == basis.m_selected
        for part in ("Z", "a_hat", "k_hat"):
            assert np.array_equal(getattr(node.basis, part), getattr(basis, part)), (d, part)
    return nodes


def test_node_reductions_are_the_two_pass_build(problem44, problem84, localized44,
                                                monkeypatch):
    # one patch per node serves its power iterates and its basis; the rb gate
    # amplifies round-off upstream of build_rb, so nothing may move
    cs, _, _ = localized44
    _assert_two_pass_build(cs, N_STEPS, (1, 5, 10))
    k3 = build_corrector_set(problem84.forms, CorrectorConfig(k=3))
    _assert_two_pass_build(k3, 49, (1, 5, 10, 15))
    zero = problem44.n_coarse_dofs // 2
    monkeypatch.setattr(lod, "transient_patch", _zero_rhs_at(zero))
    assert _assert_two_pass_build(cs, N_STEPS, (1, 5, 10))[zero].basis is None


def test_shared_basis_compression_matches_oracle(problem44, localized44, zero_node44):
    # the bands of rb_gfem_solve against the lifted rows of the oracle, summed
    # per step, also with a zero node; a band keeps the first m members exact
    cs, nodes, _ = localized44
    rng = np.random.default_rng(7)
    alpha0, alpha1 = rng.standard_normal((2, problem44.n_coarse_dofs))
    for family in (nodes, zero_node44):
        for m in (1, 5, 10, N_STEPS):
            got = rb_gfem_solve(cs, family, 1.0, N_STEPS, alpha0, alpha1, m_max=m)
            lifted = {d: (node.dofs, _oracle_sequence(problem44, node, m, N_STEPS))
                      for d, node in family.items()}
            alpha, states = _per_step_superposition(cs, lifted, problem44.forms, 1.0,
                                                    N_STEPS, alpha0, alpha1)
            for d, node in family.items():
                if m < N_STEPS and node.basis is not None:
                    rows = rb._band(d, node, m)[1]
                    np.testing.assert_array_equal(rows[:m], node.xi[:m])
            for name, want in (("states", states), ("alpha", alpha)):
                error = np.linalg.norm(getattr(got, name) - want)
                assert error <= 1e-12 * np.linalg.norm(want), (name, m)


def test_compression_rejects_bases_built_too_small(problem44, localized44):
    cs, _, _ = localized44
    zc = np.zeros(problem44.n_coarse_dofs)
    # records built for M = 1, 5, and records without a basis (min(M) >= horizon)
    for m_values, m_max in (((1, 5), 10), ((N_STEPS,), 5)):
        nodes = node_reductions(cs, N_STEPS, m_values)
        with pytest.raises(ValueError, match="no reduced basis of %d" % m_max):
            rb_gfem_solve(cs, nodes, 1.0, N_STEPS, zc, zc, m_max=m_max)
        with pytest.raises(ValueError, match="m_max"):
            rb_gfem_solve(cs, nodes, 1.0, N_STEPS, zc, zc, m_max=0)


@pytest.mark.parametrize("m_max", [0, -1, 1.5, True, "5", None, np.float64(5.0)],
                         ids=["zero", "negative", "float", "bool", "string", "none",
                              "numpy-float"])
def test_rb_gfem_rejects_a_bad_m_max_before_any_work(problem44, localized44, monkeypatch,
                                                     m_max):
    # 1.5 failed in slicing after the bases were read, and True ran as 1
    cs, nodes, _ = localized44

    def no_work(*args, **kwargs):
        raise AssertionError("worked on a bad m_max")

    for name in ("_check_transients", "_band", "_Recurrence", "_gfem_steps"):
        monkeypatch.setattr(rb, name, no_work)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="m_max"):
        rb_gfem_solve(cs, nodes, 1.0, N_STEPS, zc, zc, m_max=m_max)


@pytest.mark.parametrize("horizon", [0, -1, 2.0, True])
def test_node_reductions_reject_a_bad_horizon_before_any_patch(localized44, monkeypatch,
                                                               horizon):
    # horizon 0 gave records of no rows, which rb_gfem_solve refused only
    # later as too short, and 2.0 a TypeError
    cs, _, _ = localized44

    def no_patch(*args, **kwargs):
        raise AssertionError("built a patch for a bad horizon")

    monkeypatch.setattr(lod, "Patch", no_patch)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        node_reductions(cs, horizon, (1,))


def test_node_reductions_take_a_numpy_horizon(localized44):
    cs, _, _ = localized44
    nodes = node_reductions(cs, np.int64(3), (1,))
    assert all(node.horizon == 3 for node in nodes.values())


def test_every_sequence_has_exactly_horizon_rows(problem44, tmp_path, monkeypatch):
    # power, rb's, certified and cache-loaded sequences alike, also at a node
    # whose first member, and so its first snapshot's energy, is zero
    forms = problem44.forms
    cs = build_corrector_set(forms, CorrectorConfig(k=2))
    horizon = 17
    zero = problem44.n_coarse_dofs // 2
    monkeypatch.setattr(lod, "transient_patch", _zero_rhs_at(zero))
    zc = np.zeros(problem44.n_coarse_dofs)
    power = power_snapshots(cs, horizon)
    nodes = node_reductions(cs, horizon, (1, 5))
    assert not (power[zero].xi.any() or nodes[zero].xi.any())
    assert nodes[zero].basis is None
    # and a run of horizon + 1 steps reads every member
    rb_gfem_solve(cs, nodes, 1.0, horizon + 1, zc, zc, m_max=1)
    seq = transients_for_all_nodes(cs, horizon)
    assert not seq[zero].members().any()
    key = cache_key(forms, cs.config, horizon)
    save_corrector_cache(tmp_path, key, cs, seq)
    cs_loaded, loaded = load_corrector_cache(tmp_path, key, forms, cs.config, horizon)
    for family in (power, nodes, seq, loaded):
        assert sorted(family) == list(range(problem44.n_coarse_dofs))
        for tc in family.values():
            assert tc.horizon == horizon
            rows = tc.members() if isinstance(tc, TransientCorrectors) else tc.xi
            assert rows.shape == (horizon, tc.dofs.size)
    localized_gfem_solve(cs_loaded, loaded, 1.0, horizon + 1, zc, zc)
