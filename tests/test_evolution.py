import dataclasses

import numpy as np
import pytest
import scipy.linalg

from sdwave import linalg, lod
from sdwave.assembly import DiscreteForms, assemble_load, h1_norms
from sdwave.evolution import (_BLOCK, TimeGrid, Trajectory, _gfem_steps, _multiscale,
                              _Recurrence, aux_fine_solve, aux_gfem_solve,
                              discrete_energy, fine_fem_solve, galerkin_wave_solve,
                              ideal_gfem_solve, localized_gfem_solve,
                              localized_gfem_solve_direct, rel_h1_final,
                              rel_l2h1, transient_horizon)
from sdwave.harness import random_field
from sdwave.linalg import factor_saddle
from sdwave.lod import (CorrectorConfig, TransientCorrectors, build_corrector_set,
                        transients_for_all_nodes)
from sdwave.mesh import Mesh, NestedMeshPair, prolongation, saturating_k

TAU = 0.02


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 1)


def test_trajectory_rejects_nonfinite():
    with pytest.raises(ValueError):
        Trajectory(TimeGrid(0.1, 2), np.array([[0.0], [np.nan], [0.0]]))


def test_fine_fem_zero_data_zero_source(problem44):
    zeros = np.zeros(problem44.n_fine_dofs)
    traj = fine_fem_solve(problem44.forms, 0.0, zeros, zeros, 5)
    assert np.all(traj.states == 0.0)


def test_fine_fem_single_dof_recurrence():
    # coarse n=2, h=1/2: one interior dof with M = 1/8, K_A = K_B = 4, F = 1/4;
    # the scalar backward difference recurrence is reproduced exactly
    pair = NestedMeshPair(Mesh(2), 1)
    ones = np.ones(pair.fine.n_elements)
    forms = DiscreteForms(pair, ones, ones, TAU)
    traj = fine_fem_solve(forms, 1.0, np.zeros(1), np.zeros(1), 600)
    u = [0.0, 0.0]
    for n in range(2, 601):
        lhs = (1 / 8) / TAU ** 2 + 4 / TAU + 4
        rhs = 0.25 + (1 / 8) * (2 * u[-1] - u[-2]) / TAU ** 2 + 4 * u[-1] / TAU
        u.append(rhs / lhs)
    np.testing.assert_allclose(traj.states.ravel(), u, atol=1e-14)
    assert traj.states[-1, 0] == pytest.approx(1.0 / 16.0, rel=1e-4)


def test_energy_dissipation(problem44):
    rng = np.random.default_rng(40)
    u0 = rng.standard_normal(problem44.n_fine_dofs)
    u1 = u0 + 0.01 * rng.standard_normal(problem44.n_fine_dofs)
    traj = fine_fem_solve(problem44.forms, 0.0, u0, u1, 60)
    E = discrete_energy(problem44.forms, traj)
    assert np.all(np.diff(E) <= 1e-12 * E[0])


@pytest.fixture(scope="module")
def saturated44(problem44):
    cfg = CorrectorConfig(k=saturating_k(problem44.pair.coarse))
    return build_corrector_set(problem44.forms, cfg)


def test_ideal_gfem_zero_problem(problem44, saturated44):
    zc = np.zeros(problem44.n_coarse_dofs)
    traj = ideal_gfem_solve(saturated44, 0.0, 5, zc, zc)
    assert np.all(traj.states == 0.0)


def test_oracle_collapse_at_r1(problem81):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem81.forms, cfg)
    n_steps = 10
    zc = np.zeros(problem81.n_coarse_dofs)
    seq = transients_for_all_nodes(cs, horizon=10)
    loc = localized_gfem_solve(cs, seq, 1.0, n_steps, zc, zc)
    zeros = np.zeros(problem81.n_fine_dofs)
    ref = fine_fem_solve(problem81.forms, 1.0, zeros, zeros, n_steps)
    assert rel_l2h1(problem81.forms, loc, ref) <= 1e-8


def test_localized_saturated_matches_ideal(problem44, saturated44):
    n_steps = 12
    zc = np.zeros(problem44.n_coarse_dofs)
    seq = transients_for_all_nodes(saturated44, horizon=12)
    loc = localized_gfem_solve(saturated44, seq, 1.0, n_steps, zc, zc)
    ideal = ideal_gfem_solve(saturated44, 1.0, n_steps, zc, zc)
    assert rel_l2h1(problem44.forms, loc, ideal) <= 1e-8


def test_superposition_path_matches_direct_debug_path(problem44):
    cfg = CorrectorConfig(k=2)
    cs = build_corrector_set(problem44.forms, cfg)
    seq = transients_for_all_nodes(cs, horizon=12)
    n_steps = 12
    zc = np.zeros(problem44.n_coarse_dofs)
    loc = localized_gfem_solve(cs, seq, 1.0, n_steps, zc, zc)
    direct = localized_gfem_solve_direct(cs, 1.0, n_steps, zc, zc)
    assert rel_l2h1(problem44.forms, loc, direct) <= 1e-9


@pytest.fixture(scope="module")
def k2_44(problem44):
    return build_corrector_set(problem44.forms, CorrectorConfig(k=2))


def test_localized_nonzero_initial_data_matches_direct_and_ideal(problem44, k2_44,
                                                                 saturated44):
    # alpha^0 enters no fine-scale correction: states[1] carries none, so w^n
    # sums the lags l <= n - 1 only, as the direct and ideal schemes do
    rng = np.random.default_rng(43)
    alpha0, alpha1 = rng.standard_normal((2, problem44.n_coarse_dofs))
    n_steps = 12
    forms = problem44.forms

    seq = transients_for_all_nodes(k2_44, horizon=12)
    loc = localized_gfem_solve(k2_44, seq, 1.0, n_steps, alpha0, alpha1)
    direct = localized_gfem_solve_direct(k2_44, 1.0, n_steps, alpha0, alpha1)
    assert rel_l2h1(forms, loc, direct) <= 1e-9

    seq = transients_for_all_nodes(saturated44, horizon=12)
    loc = localized_gfem_solve(saturated44, seq, 1.0, n_steps, alpha0, alpha1)
    ideal = ideal_gfem_solve(saturated44, 1.0, n_steps, alpha0, alpha1)
    assert rel_l2h1(forms, loc, ideal) <= 1e-8


def test_error_norms_equal_per_state_h1_norms(problem44):
    # the error norms take the states' H1 energies from one sparse product
    # per block of steps; they equal bit for bit the sums of one H1 norm per
    # state
    forms = problem44.forms
    rng = np.random.default_rng(40)
    grid = TimeGrid(TAU, 2 * _BLOCK + 5)
    shape = (grid.n_steps + 1, problem44.n_fine_dofs)
    trajectory = Trajectory(grid, rng.standard_normal(shape))
    reference = Trajectory(grid, rng.standard_normal(shape))

    def norm(v):
        return float(np.sqrt(max(v @ (forms._h1_matrix @ v), 0.0)))

    num = den = 0.0
    for n in range(1, grid.n_steps + 1):
        num += TAU * norm(trajectory.states[n] - reference.states[n]) ** 2
        den += TAU * norm(reference.states[n]) ** 2
    assert rel_l2h1(forms, trajectory, reference) == np.sqrt(num / den)
    final = norm(trajectory.states[-1] - reference.states[-1]) / norm(reference.states[-1])
    assert rel_h1_final(forms, trajectory, reference) == final
    assert h1_norms(forms, [reference.states[3]])[0] == norm(reference.states[3])


def _per_step_superposition(correctors, transients, forms, f, n_steps, alpha0, alpha1):
    """Oracle for localized_gfem_solve: the fine-scale part re-summed from the
    members of every sequence in every step, w^n = sum_x sum_{l=1}^{n-1}
    alpha_x^{n-l} xi_x^l, and fed back through Q^T K_A u^{n-1}."""
    members = {x: tc.members(n_steps - 1) for x, tc in transients.items()}
    tau = forms.tau
    Q = correctors.Q
    lhs = scipy.linalg.lu_factor(correctors.M_ms / tau + correctors.A_ms
                                 + tau * correctors.B_ms)
    alpha = np.zeros((n_steps + 1, Q.shape[1]))
    alpha[0] = alpha0
    alpha[1] = alpha1
    states = np.zeros((n_steps + 1, forms.fine.n_dofs))
    states[0] = Q @ alpha0
    states[1] = Q @ alpha1
    for n in range(2, n_steps + 1):
        rhs = (tau * (Q.T @ assemble_load(forms.fine, f, n * tau))
               + Q.T @ (forms.K_A @ states[n - 1])
               + correctors.M_ms @ (2.0 * alpha[n - 1] - alpha[n - 2]) / tau)
        alpha[n] = scipy.linalg.lu_solve(lhs, rhs)
        states[n] = Q @ alpha[n]
        lags = np.arange(1, n)
        for x, tc in transients.items():
            states[n, tc.dofs] += members[x][lags - 1].T @ alpha[n - lags, x]
    return alpha, states


def _pulse(x, y, t):
    return np.sin(20.0 * t) * (1.0 + x * y)


# two whole blocks of the memory term and a remainder
MULTI_BLOCK = 2 * _BLOCK + 5


@pytest.mark.parametrize("n_steps, horizon, f, data", [
    (12, 20, 1.0, False),           # sequences longer than the time grid
    (12, 12, _pulse, False),        # time-dependent source
    (12, 12, 1.0, True),            # nonzero initial data
    (MULTI_BLOCK, MULTI_BLOCK + 8, 1.0, False),
    (MULTI_BLOCK, MULTI_BLOCK + 8, 1.0, True),
    (MULTI_BLOCK, MULTI_BLOCK + 8, _pulse, True),
    (2, 12, 1.0, True),             # the one step of the shortest grid
], ids=["long-sequences", "time-dependent-f", "initial-data", "multi-block",
        "multi-block-initial-data", "multi-block-long-sequences", "two-steps"])
def test_localized_matches_per_step_superposition(problem44, k2_44, n_steps, horizon,
                                                  f, data):
    # both hooks: the recurrence of the certified sequences and the
    # superposition of the power iterates
    forms = problem44.forms
    rng = np.random.default_rng(44)
    alpha0, alpha1 = (rng.standard_normal((2, problem44.n_coarse_dofs)) if data
                      else np.zeros((2, problem44.n_coarse_dofs)))
    for generator in lod.GENERATORS:
        seq = transients_for_all_nodes(k2_44, horizon=horizon, generator=generator)
        loc = localized_gfem_solve(k2_44, seq, f, n_steps, alpha0, alpha1)
        alpha, states = _per_step_superposition(k2_44, seq, forms, f, n_steps,
                                                alpha0, alpha1)
        assert np.linalg.norm(loc.alpha - alpha) <= 1e-12 * np.linalg.norm(alpha)
        assert np.linalg.norm(loc.states - states) <= 1e-12 * np.linalg.norm(states)


def test_transient_config_mismatch_rejected(problem44, saturated44):
    other = build_corrector_set(problem44.forms, CorrectorConfig(k=2))
    seq = transients_for_all_nodes(other, horizon=4)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError):
        localized_gfem_solve(saturated44, seq, 1.0, 4, zc, zc)


def test_transients_of_another_corrector_set_rejected(problem44, k2_44, foreign_k2_44):
    # an equal config passed the old check, so the solve superposed sequences
    # built at another step or on other coefficients
    seq = transients_for_all_nodes(foreign_k2_44, horizon=4)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="another corrector set"):
        localized_gfem_solve(k2_44, seq, 1.0, 5, zc, zc)


@pytest.mark.parametrize("change, match", [
    ("missing", "per coarse node"), ("negative", "per coarse node"),
    ("beyond", "per coarse node"), ("short", "fewer than")])
def test_localized_rejects_anything_but_one_full_sequence_per_node(problem44, k2_44,
                                                                   change, match):
    # a missing node ran without its correction, and a key of -1 or n_coarse
    # was superposed as another node's; a short sequence dropped the lags
    # past its end
    n_steps = 6
    seq = transients_for_all_nodes(k2_44, horizon=transient_horizon(n_steps))
    last = problem44.n_coarse_dofs - 1
    if change == "missing":
        del seq[0]
    elif change == "negative":
        seq[-1] = seq.pop(last)
    elif change == "beyond":
        seq[last + 1] = seq[0]
    else:
        # a certified sequence serves the horizon it was certified for, which
        # its basis rows do not tell
        seq[last] = dataclasses.replace(seq[last], horizon=transient_horizon(n_steps) - 1)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match=match):
        localized_gfem_solve(k2_44, seq, 1.0, n_steps, zc, zc)


def test_localized_rejects_short_stored_members(problem44, k2_44):
    n_steps = 6
    seq = transients_for_all_nodes(k2_44, transient_horizon(n_steps), generator="power")
    tc = seq[0]
    seq[0] = TransientCorrectors(tc.dofs, tc.xi[:-1], tc.correctors)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="fewer than"):
        localized_gfem_solve(k2_44, seq, 1.0, n_steps, zc, zc)


# ----------------------------------------------------------------------------
# the recurrence of the certified sequences against the superposition of
# their members

@pytest.fixture(scope="module", params=["problem44", "problem84"])
def recurrence_problem(request):
    problem = request.getfixturevalue(request.param)
    return problem, build_corrector_set(problem.forms, CorrectorConfig(k=2))


def _members_of(seq, horizon):
    return {x: TransientCorrectors(tc.dofs, tc.members(horizon), tc.correctors)
            for x, tc in seq.items()}


def _assert_recurrence_matches_members(correctors, seq, n_steps):
    """The certified run against _Superposition fed the lifted members."""
    assert all(tc.certified for tc in seq.values())
    rng = np.random.default_rng(45)
    alpha0, alpha1 = rng.standard_normal((2, correctors.Q.shape[1]))
    got = localized_gfem_solve(correctors, seq, _pulse, n_steps, alpha0, alpha1)
    lifted = _members_of(seq, transient_horizon(n_steps))
    want = localized_gfem_solve(correctors, lifted, _pulse, n_steps, alpha0, alpha1)
    assert np.linalg.norm(got.states - want.states) <= 1e-12 * np.linalg.norm(want.states)
    assert np.linalg.norm(got.alpha - want.alpha) <= 1e-12 * np.linalg.norm(want.alpha)


@pytest.mark.parametrize("n_steps, horizon", [(2, 1), (12, 30), (MULTI_BLOCK, 60)],
                         ids=["two-steps", "shorter-run", "multi-block"])
def test_recurrence_matches_superposition_of_members(recurrence_problem, n_steps, horizon):
    # a run may be shorter than the horizon its sequences were certified for
    _, cs = recurrence_problem
    seq = transients_for_all_nodes(cs, horizon)
    assert all(tc.horizon == horizon for tc in seq.values())
    _assert_recurrence_matches_members(cs, seq, n_steps)


def test_recurrence_with_a_zero_first_member(recurrence_problem, monkeypatch):
    problem, cs = recurrence_problem
    zero = problem.n_coarse_dofs // 2
    real = lod.transient_patch

    def zero_rhs(correctors, x_dof, Q_csc=None):
        patch, rhs = real(correctors, x_dof, Q_csc)
        return patch, (np.zeros_like(rhs) if x_dof == zero else rhs)

    monkeypatch.setattr(lod, "transient_patch", zero_rhs)
    seq = transients_for_all_nodes(cs, 20)
    assert seq[zero].norm1 == 0.0 and not seq[zero].members().any()
    _assert_recurrence_matches_members(cs, seq, 21)


def test_recurrence_with_a_full_basis(recurrence_problem, monkeypatch):
    # at a tolerance no bound meets, each basis runs to M = horizon
    _, cs = recurrence_problem
    monkeypatch.setattr(lod, "CERTIFY_TOL", 0.0)
    horizon = 6
    seq = transients_for_all_nodes(cs, horizon)
    assert all(tc.xi.shape[0] == horizon for tc in seq.values())
    _assert_recurrence_matches_members(cs, seq, horizon + 1)


def test_recurrence_on_an_invariant_krylov_space(recurrence_problem, monkeypatch):
    # k = 1 patches are small: each Krylov space turns invariant long before
    # the horizon, where the basis ends
    problem, _ = recurrence_problem
    cs = build_corrector_set(problem.forms, CorrectorConfig(k=1))
    monkeypatch.setattr(lod, "CERTIFY_TOL", 1e-300)
    horizon = 400
    seq = transients_for_all_nodes(cs, horizon)
    assert max(tc.xi.shape[0] for tc in seq.values()) < horizon
    _assert_recurrence_matches_members(cs, seq, horizon + 1)


class _CoupledRecurrence(_Recurrence):
    """The recurrence as it stepped certified sequences before node bands: one
    array couple, beta, for both off-diagonals."""

    def __init__(self, correctors, transients, grid):
        seqs = [transients[x] for x in range(correctors.Q.shape[1])]
        super().__init__(correctors, [(tc.dofs, tc.xi, tc.alpha, tc.beta, tc.beta,
                                       tc.norm1) for tc in seqs], grid)
        ends = np.cumsum([tc.xi.shape[0] for tc in seqs])
        couple = np.concatenate([tc.beta for tc in seqs])
        self.couple = couple[:-1]
        self.couple[ends[:-1] - 1] = 0.0
        self.lower = self.upper = None

    def _advance(self, n, alpha):
        prev, t = self.t[n - 1], self.t[n]
        np.multiply(self.diag, prev, out=t)
        t[1:] += self.couple * prev[:-1]
        t[:-1] += self.couple * prev[1:]
        t[self.first] += self.weight * alpha[n - 1]


def test_certified_band_steps_as_one_coupling(recurrence_problem):
    # a certified band has lower = upper = beta: the same arithmetic, bit for
    # bit, as the single coupling array it replaces
    _, cs = recurrence_problem
    n_steps = MULTI_BLOCK
    seq = transients_for_all_nodes(cs, transient_horizon(n_steps))
    rng = np.random.default_rng(46)
    alpha0, alpha1 = rng.standard_normal((2, cs.Q.shape[1]))
    got = localized_gfem_solve(cs, seq, _pulse, n_steps, alpha0, alpha1)
    grid = TimeGrid(cs.forms.tau, n_steps)
    want = _gfem_steps(*_multiscale(cs), _pulse, grid, (alpha0, alpha1),
                       _CoupledRecurrence(cs, seq, grid))
    np.testing.assert_array_equal(got.states, want.states)
    np.testing.assert_array_equal(got.alpha, want.alpha)


def test_localized_rejects_mixed_kinds(problem44, k2_44):
    n_steps = 6
    seq = transients_for_all_nodes(k2_44, transient_horizon(n_steps))
    seq[0] = _members_of(seq, transient_horizon(n_steps))[0]
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="mix"):
        localized_gfem_solve(k2_44, seq, 1.0, n_steps, zc, zc)


def test_steady_state_b_orthogonality(problem44):
    # the solution drifts toward b-orthogonality against the fine-scale space;
    # forms and correctors are built at the step of the run
    pair = problem44.pair
    forms = DiscreteForms(pair, problem44.field_a, problem44.field_b, 0.05)
    saturated = build_corrector_set(forms, CorrectorConfig(k=saturating_k(pair.coarse)))
    zc = np.zeros(problem44.n_coarse_dofs)
    traj = ideal_gfem_solve(saturated, 1.0, 200, zc, zc)
    saddle = factor_saddle(forms.K_tilde, forms.interp)
    rng = np.random.default_rng(41)

    def residual(u):
        ub = np.sqrt(u @ (forms.K_B @ u))
        worst = 0.0
        for _ in range(4):
            z, _ = saddle.solve(forms.K_tilde @ rng.standard_normal(u.size))
            zb = np.sqrt(z @ (forms.K_B @ z))
            worst = max(worst, abs(z @ (forms.K_B @ u)) / (zb * ub))
        return worst

    assert residual(traj.states[-1]) <= 0.2 * residual(traj.states[2])


def test_aux_exactness_without_source(problem44, saturated44):
    rng = np.random.default_rng(42)
    alpha0 = rng.standard_normal(problem44.n_coarse_dofs)
    z0 = saturated44.Q @ alpha0
    n_steps = 20
    fine = aux_fine_solve(problem44.forms, 0.0, z0, n_steps)
    gfem = aux_gfem_solve(saturated44, 0.0, alpha0, n_steps)
    for n in range(1, 21):
        err = h1_norms(problem44.forms, [fine.states[n] - gfem.states[n]])[0]
        assert err <= 1e-9 * h1_norms(problem44.forms, [fine.states[n]])[0]


def test_aux_zero(problem44, saturated44):
    n_steps = 4
    fine = aux_fine_solve(problem44.forms, 0.0,
                          np.zeros(problem44.n_fine_dofs), n_steps)
    assert np.all(fine.states == 0.0)
    gfem = aux_gfem_solve(saturated44, 0.0, np.zeros(problem44.n_coarse_dofs), n_steps)
    assert np.all(gfem.states == 0.0)


def test_aux_convergence_rate():
    # aux GFEM error behaves like H times the accumulated source norm
    errs = []
    for q in (2, 3, 4):
        pair = NestedMeshPair(Mesh(2 ** q), 2 ** (5 - q))
        A = random_field(pair.fine, 0.1, 1000.0, 1)
        B = random_field(pair.fine, 0.1, 1000.0, 2)
        forms = DiscreteForms(pair, A, B, TAU)
        cs = build_corrector_set(forms, CorrectorConfig(k=saturating_k(pair.coarse)))
        n_steps = 25
        fine = aux_fine_solve(forms, 1.0, np.zeros(pair.fine.n_dofs), n_steps)
        gfem = aux_gfem_solve(cs, 1.0, np.zeros(pair.coarse.n_dofs), n_steps)
        errs.append(h1_norms(forms, [fine.states[-1] - gfem.states[-1]])[0]
                    / h1_norms(forms, [fine.states[-1]])[0])
    rate = -np.polyfit(np.arange(2, 5), np.log2(errs), 1)[0]
    assert rate >= 1.0


def test_fem_baseline_collapses_at_r1(problem81):
    n_steps = 8
    zc = np.zeros(problem81.n_coarse_dofs)
    P = prolongation(problem81.pair)
    fem = galerkin_wave_solve(P, problem81.forms, 1.0, n_steps, zc, zc)
    zeros = np.zeros(problem81.n_fine_dofs)
    ref = fine_fem_solve(problem81.forms, 1.0, zeros, zeros, n_steps)
    assert rel_l2h1(problem81.forms, fem, ref) <= 1e-10


def test_error_norms_zero_for_identical(problem44):
    zeros = np.zeros(problem44.n_fine_dofs)
    traj = fine_fem_solve(problem44.forms, 1.0, zeros, zeros, 4)
    assert rel_h1_final(problem44.forms, traj, traj) == 0.0
    assert rel_l2h1(problem44.forms, traj, traj) == 0.0


def test_every_solver_steps_at_forms_tau(problem44):
    # no solver takes a step: each trajectory's grid is the forms' step
    pair = problem44.pair
    forms = DiscreteForms(pair, problem44.field_a, problem44.field_b, 0.05)
    cs = build_corrector_set(forms, CorrectorConfig(k=2))
    seq = transients_for_all_nodes(cs, horizon=3)
    zc = np.zeros(problem44.n_coarse_dofs)
    zf = np.zeros(problem44.n_fine_dofs)
    trajectories = [
        fine_fem_solve(forms, 1.0, zf, zf, 3),
        galerkin_wave_solve(prolongation(pair), forms, 1.0, 3, zc, zc),
        ideal_gfem_solve(cs, 1.0, 3, zc, zc),
        localized_gfem_solve(cs, seq, 1.0, 3, zc, zc),
        localized_gfem_solve_direct(cs, 1.0, 3, zc, zc),
        aux_fine_solve(forms, 1.0, zf, 3),
        aux_gfem_solve(cs, 1.0, zc, 3),
    ]
    for trajectory in trajectories:
        assert trajectory.grid == TimeGrid(forms.tau, 3)
        assert trajectory.states.shape[0] == 4


@pytest.mark.parametrize("n_steps", [1, 2.0, True], ids=["one", "float", "bool"])
def test_solvers_reject_a_bad_step_count(problem44, monkeypatch, n_steps):
    # rejected before any factorization
    def no_factor(*args):
        raise AssertionError("factored before checking n_steps")

    monkeypatch.setattr(linalg, "Factorization", no_factor)
    monkeypatch.setattr(linalg, "factor_saddle", no_factor)
    zf = np.zeros(problem44.n_fine_dofs)
    with pytest.raises(ValueError, match="n_steps|two time steps"):
        fine_fem_solve(problem44.forms, 1.0, zf, zf, n_steps)
    with pytest.raises(ValueError, match="n_steps|two time steps"):
        aux_fine_solve(problem44.forms, 1.0, zf, n_steps)
