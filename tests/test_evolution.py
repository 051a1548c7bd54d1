import numpy as np
import pytest
import scipy.linalg

from sdwave.assembly import DiscreteForms, assemble_load, h1_norms
from sdwave.evolution import (_BLOCK, TimeGrid, Trajectory, aux_fine_solve,
                              aux_gfem_solve, discrete_energy, fine_fem_solve,
                              galerkin_wave_solve, ideal_gfem_solve,
                              localized_gfem_solve,
                              localized_gfem_solve_direct, rel_h1_final,
                              rel_l2h1)
from sdwave.harness import random_field
from sdwave.linalg import factor_saddle
from sdwave.lod import (CorrectorConfig, build_corrector_set,
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
    grid = TimeGrid(TAU, 5)
    zeros = np.zeros(problem44.n_fine_dofs)
    traj = fine_fem_solve(problem44.forms, 0.0, zeros, zeros, grid)
    assert np.all(traj.states == 0.0)


def test_fine_fem_single_dof_recurrence():
    # coarse n=2, h=1/2: one interior dof with M = 1/8, K_A = K_B = 4, F = 1/4;
    # the scalar backward difference recurrence is reproduced exactly
    pair = NestedMeshPair(Mesh(2), 1)
    ones = np.ones(pair.fine.n_elements)
    forms = DiscreteForms(pair, ones, ones, TAU)
    grid = TimeGrid(TAU, 600)
    traj = fine_fem_solve(forms, 1.0, np.zeros(1), np.zeros(1), grid)
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
    traj = fine_fem_solve(problem44.forms, 0.0, u0, u1, TimeGrid(TAU, 60))
    E = discrete_energy(problem44.forms, traj)
    assert np.all(np.diff(E) <= 1e-12 * E[0])


@pytest.fixture(scope="module")
def saturated44(problem44):
    cfg = CorrectorConfig(k=saturating_k(problem44.pair.coarse), tau=TAU)
    return build_corrector_set(problem44.pair, problem44.interp,
                               problem44.forms, cfg)


def test_ideal_gfem_zero_problem(problem44, saturated44):
    grid = TimeGrid(TAU, 5)
    zc = np.zeros(problem44.n_coarse_dofs)
    traj = ideal_gfem_solve(saturated44, problem44.interp, problem44.forms,
                            0.0, grid, zc, zc)
    assert np.all(traj.states == 0.0)


def test_oracle_collapse_at_r1(problem81):
    cfg = CorrectorConfig(k=2, tau=TAU)
    cs = build_corrector_set(problem81.pair, problem81.interp, problem81.forms, cfg)
    grid = TimeGrid(TAU, 10)
    zc = np.zeros(problem81.n_coarse_dofs)
    seq = transients_for_all_nodes(problem81.pair, problem81.interp,
                                   problem81.forms, cs, horizon=10)
    loc = localized_gfem_solve(cs, seq, problem81.forms, 1.0, grid, zc, zc)
    zeros = np.zeros(problem81.n_fine_dofs)
    ref = fine_fem_solve(problem81.forms, 1.0, zeros, zeros, grid)
    assert rel_l2h1(problem81.forms, loc, ref) <= 1e-8


def test_localized_saturated_matches_ideal(problem44, saturated44):
    grid = TimeGrid(TAU, 12)
    zc = np.zeros(problem44.n_coarse_dofs)
    seq = transients_for_all_nodes(problem44.pair, problem44.interp,
                                   problem44.forms, saturated44,
                                   horizon=12, stop_tol=0.0)
    loc = localized_gfem_solve(saturated44, seq, problem44.forms, 1.0, grid, zc, zc)
    ideal = ideal_gfem_solve(saturated44, problem44.interp, problem44.forms,
                             1.0, grid, zc, zc)
    assert rel_l2h1(problem44.forms, loc, ideal) <= 1e-8


def test_superposition_path_matches_direct_debug_path(problem44):
    cfg = CorrectorConfig(k=2, tau=TAU)
    cs = build_corrector_set(problem44.pair, problem44.interp, problem44.forms, cfg)
    seq = transients_for_all_nodes(problem44.pair, problem44.interp,
                                   problem44.forms, cs, horizon=12, stop_tol=0.0)
    grid = TimeGrid(TAU, 12)
    zc = np.zeros(problem44.n_coarse_dofs)
    loc = localized_gfem_solve(cs, seq, problem44.forms, 1.0, grid, zc, zc)
    direct = localized_gfem_solve_direct(cs, problem44.interp, problem44.forms,
                                         1.0, grid, zc, zc)
    assert rel_l2h1(problem44.forms, loc, direct) <= 1e-9


@pytest.fixture(scope="module")
def k2_44(problem44):
    return build_corrector_set(problem44.pair, problem44.interp, problem44.forms,
                               CorrectorConfig(k=2, tau=TAU))


def test_localized_nonzero_initial_data_matches_direct_and_ideal(problem44, k2_44,
                                                                 saturated44):
    # alpha^0 enters no fine-scale correction: states[1] carries none, so w^n
    # sums the lags l <= n - 1 only, as the direct and ideal schemes do
    rng = np.random.default_rng(43)
    alpha0, alpha1 = rng.standard_normal((2, problem44.n_coarse_dofs))
    grid = TimeGrid(TAU, 12)
    forms, interp = problem44.forms, problem44.interp

    seq = transients_for_all_nodes(problem44.pair, interp, forms, k2_44,
                                   horizon=12, stop_tol=0.0)
    loc = localized_gfem_solve(k2_44, seq, forms, 1.0, grid, alpha0, alpha1)
    direct = localized_gfem_solve_direct(k2_44, interp, forms, 1.0, grid,
                                         alpha0, alpha1)
    assert rel_l2h1(forms, loc, direct) <= 1e-9

    seq = transients_for_all_nodes(problem44.pair, interp, forms, saturated44,
                                   horizon=12, stop_tol=0.0)
    loc = localized_gfem_solve(saturated44, seq, forms, 1.0, grid, alpha0, alpha1)
    ideal = ideal_gfem_solve(saturated44, interp, forms, 1.0, grid, alpha0, alpha1)
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


def _per_step_superposition(correctors, transients, forms, f, grid, alpha0, alpha1):
    """Oracle for localized_gfem_solve: the fine-scale part re-summed from every
    stored sequence in every step, w^n = sum_x sum_{l=1}^{n-1} alpha_x^{n-l} xi_x^l,
    and fed back through Q^T K_A u^{n-1}."""
    tau = grid.tau
    Q = correctors.Q
    lhs = scipy.linalg.lu_factor(correctors.M_ms / tau + correctors.A_ms
                                 + tau * correctors.B_ms)
    alpha = np.zeros((grid.n_steps + 1, Q.shape[1]))
    alpha[0] = alpha0
    alpha[1] = alpha1
    states = np.zeros((grid.n_steps + 1, forms.fine.n_dofs))
    states[0] = Q @ alpha0
    states[1] = Q @ alpha1
    for n in range(2, grid.n_steps + 1):
        rhs = (tau * (Q.T @ assemble_load(forms.fine, f, n * tau))
               + Q.T @ (forms.K_A @ states[n - 1])
               + correctors.M_ms @ (2.0 * alpha[n - 1] - alpha[n - 2]) / tau)
        alpha[n] = scipy.linalg.lu_solve(lhs, rhs)
        states[n] = Q @ alpha[n]
        for tc in transients.values():
            lags = np.arange(1, min(n - 1, tc.xi.shape[0]) + 1)
            states[n, tc.dofs] += tc.xi[lags - 1].T @ alpha[n - lags, tc.x_dof]
    return alpha, states


def _pulse(x, y, t):
    return np.sin(20.0 * t) * (1.0 + x * y)


# two whole blocks of the memory term and a remainder
MULTI_BLOCK = 2 * _BLOCK + 5


@pytest.mark.parametrize("n_steps, horizon, stop_tol, f, data", [
    (12, 12, 0.3, 1.0, False),      # sequences of mixed lengths, some shorter than N
    (12, 20, 0.0, 1.0, False),      # sequences longer than the time grid
    (12, 12, 0.0, _pulse, False),   # time-dependent source
    (12, 12, 0.0, 1.0, True),       # nonzero initial data
    (MULTI_BLOCK, MULTI_BLOCK + 8, 0.1, 1.0, False),
    (MULTI_BLOCK, MULTI_BLOCK + 8, 0.1, 1.0, True),
    (MULTI_BLOCK, MULTI_BLOCK + 8, 0.0, _pulse, True),
    (2, 12, 0.0, 1.0, True),        # the one step of the shortest grid
], ids=["mixed-lengths", "long-sequences", "time-dependent-f", "initial-data",
        "multi-block-mixed-lengths", "multi-block-initial-data",
        "multi-block-long-sequences", "two-steps"])
def test_localized_matches_per_step_superposition(problem44, k2_44, n_steps, horizon,
                                                  stop_tol, f, data):
    grid = TimeGrid(TAU, n_steps)
    forms, interp = problem44.forms, problem44.interp
    seq = transients_for_all_nodes(problem44.pair, interp, forms, k2_44,
                                   horizon=horizon, stop_tol=stop_tol)
    lengths = sorted(tc.xi.shape[0] for tc in seq.values())
    if stop_tol > 0:
        assert lengths[0] < grid.n_steps and lengths[0] < lengths[-1]
    if n_steps == MULTI_BLOCK:
        # blocks cut through sequences shorter than one block and longer than N
        assert lengths[-1] > n_steps
        assert (lengths[0] < _BLOCK) == (stop_tol > 0)
    rng = np.random.default_rng(44)
    alpha0, alpha1 = (rng.standard_normal((2, problem44.n_coarse_dofs)) if data
                      else np.zeros((2, problem44.n_coarse_dofs)))

    loc = localized_gfem_solve(k2_44, seq, forms, f, grid, alpha0, alpha1)
    alpha, states = _per_step_superposition(k2_44, seq, forms, f, grid,
                                            alpha0, alpha1)
    assert np.linalg.norm(loc.alpha - alpha) <= 1e-12 * np.linalg.norm(alpha)
    assert np.linalg.norm(loc.states - states) <= 1e-12 * np.linalg.norm(states)


def test_transient_config_mismatch_rejected(problem44, saturated44):
    other = build_corrector_set(problem44.pair, problem44.interp,
                                problem44.forms, CorrectorConfig(k=2, tau=TAU))
    seq = transients_for_all_nodes(problem44.pair, problem44.interp,
                                   problem44.forms, other, horizon=4)
    grid = TimeGrid(TAU, 4)
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError):
        localized_gfem_solve(saturated44, seq, problem44.forms, 1.0, grid, zc, zc)


def test_steady_state_b_orthogonality(problem44, saturated44):
    # the solution drifts toward b-orthogonality against the fine-scale space
    forms, interp = problem44.forms, problem44.interp
    grid = TimeGrid(0.05, 200)
    zc = np.zeros(problem44.n_coarse_dofs)
    traj = ideal_gfem_solve(saturated44, interp, forms, 1.0, grid, zc, zc)
    saddle = factor_saddle(forms.K_tilde, interp)
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
    grid = TimeGrid(TAU, 20)
    fine = aux_fine_solve(problem44.forms, 0.0, z0, grid)
    gfem = aux_gfem_solve(saturated44, problem44.interp, problem44.forms,
                          0.0, alpha0, grid)
    for n in range(1, 21):
        err = h1_norms(problem44.forms, [fine.states[n] - gfem.states[n]])[0]
        assert err <= 1e-9 * h1_norms(problem44.forms, [fine.states[n]])[0]


def test_aux_zero(problem44, saturated44):
    grid = TimeGrid(TAU, 4)
    fine = aux_fine_solve(problem44.forms, 0.0,
                          np.zeros(problem44.n_fine_dofs), grid)
    assert np.all(fine.states == 0.0)
    gfem = aux_gfem_solve(saturated44, problem44.interp, problem44.forms, 0.0,
                          np.zeros(problem44.n_coarse_dofs), grid)
    assert np.all(gfem.states == 0.0)


def test_aux_convergence_rate():
    # aux GFEM error behaves like H times the accumulated source norm
    errs = []
    for q in (2, 3, 4):
        pair = NestedMeshPair(Mesh(2 ** q), 2 ** (5 - q))
        A = random_field(pair.fine, 0.1, 1000.0, 1)
        B = random_field(pair.fine, 0.1, 1000.0, 2)
        forms = DiscreteForms(pair, A, B, TAU)
        from sdwave.interpolation import build_interpolator
        interp = build_interpolator(pair)
        cs = build_corrector_set(pair, interp, forms,
                                 CorrectorConfig(k=saturating_k(pair.coarse), tau=TAU))
        grid = TimeGrid(TAU, 25)
        fine = aux_fine_solve(forms, 1.0, np.zeros(pair.fine.n_dofs), grid)
        gfem = aux_gfem_solve(cs, interp, forms, 1.0,
                              np.zeros(pair.coarse.n_dofs), grid)
        errs.append(h1_norms(forms, [fine.states[-1] - gfem.states[-1]])[0]
                    / h1_norms(forms, [fine.states[-1]])[0])
    rate = -np.polyfit(np.arange(2, 5), np.log2(errs), 1)[0]
    assert rate >= 1.0


def test_fem_baseline_collapses_at_r1(problem81):
    grid = TimeGrid(TAU, 8)
    zc = np.zeros(problem81.n_coarse_dofs)
    P = prolongation(problem81.pair)
    fem = galerkin_wave_solve(P, problem81.forms, 1.0, grid, zc, zc)
    zeros = np.zeros(problem81.n_fine_dofs)
    ref = fine_fem_solve(problem81.forms, 1.0, zeros, zeros, grid)
    assert rel_l2h1(problem81.forms, fem, ref) <= 1e-10


def test_error_norms_zero_for_identical(problem44):
    grid = TimeGrid(TAU, 4)
    zeros = np.zeros(problem44.n_fine_dofs)
    traj = fine_fem_solve(problem44.forms, 1.0, zeros, zeros, grid)
    assert rel_h1_final(problem44.forms, traj, traj) == 0.0
    assert rel_l2h1(problem44.forms, traj, traj) == 0.0
