import dataclasses

import numpy as np
import pytest

from sdwave import linalg, lod
from sdwave.assembly import DiscreteForms, h1_norms
from sdwave.evolution import (_BLOCK, _WINDOW, TimeGrid, Trajectory, _GlobalSaddle,
                              _gfem_steps, _multiscale, _PerStep, _Recurrence,
                              aux_fine_solve, aux_gfem_solve,
                              discrete_energy, fine_fem_solve, galerkin_wave_solve,
                              ideal_gfem_solve, localized_gfem_solve,
                              rel_h1_final, rel_l2h1, transient_horizon)
from sdwave.harness import random_field
from sdwave.linalg import InaccurateSolveError, SingularSystemError
from sdwave.lod import (CorrectorConfig, TransientCorrectors, build_corrector_set,
                        transients_for_all_nodes)
from sdwave.mesh import Mesh, NestedMeshPair, prolongation, saturating_k

from sdwave.rb import node_reductions, rb_gfem_solve

from conftest import (_per_step_superposition, certified_members, localized_gfem_solve_direct,
                      saddle_of)

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


def test_ideal_gfem_zero_problem(problem44):
    zc = np.zeros(problem44.n_coarse_dofs)
    traj = ideal_gfem_solve(problem44.forms, 0.0, 5, zc, zc)
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
    ideal = ideal_gfem_solve(problem44.forms, 1.0, n_steps, zc, zc)
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
    ideal = ideal_gfem_solve(forms, 1.0, n_steps, alpha0, alpha1)
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


def _pulse(x, y, t):
    return np.sin(20.0 * t) * (1.0 + x * y)


# two whole blocks of the checked saddle steps (linalg._BLOCK), and of the
# memory term (evolution._BLOCK, of the same size), and a remainder
MULTI_BLOCK = 2 * linalg._BLOCK + 5

# a run whose band coordinates wrap the window twice, with N + 1 = 150 not a
# multiple of the window
WRAPS = 2 * _WINDOW + 21


@pytest.mark.parametrize("n_steps, horizon, f, data, zero", [
    (12, 20, 1.0, False, False),            # sequences longer than the time grid
    (12, 12, _pulse, False, False),         # time-dependent source
    (12, 12, 1.0, True, False),             # nonzero initial data
    (MULTI_BLOCK, MULTI_BLOCK + 8, 1.0, False, False),
    (MULTI_BLOCK, MULTI_BLOCK + 8, 1.0, True, False),
    (MULTI_BLOCK, MULTI_BLOCK + 8, _pulse, True, False),
    (2, 12, 1.0, True, False),              # the one step of the shortest grid
    (WRAPS, WRAPS - 1, _pulse, True, False),
    (MULTI_BLOCK, MULTI_BLOCK, _pulse, True, True),
], ids=["long-sequences", "time-dependent-f", "initial-data", "multi-block",
        "multi-block-initial-data", "multi-block-long-sequences", "two-steps",
        "wraps-the-window", "zero-first-member"])
def test_localized_matches_per_step_superposition(problem44, k2_44, monkeypatch, n_steps,
                                                  horizon, f, data, zero):
    # both kinds of sequence run through the recurrence: the certified
    # sequences of localized_gfem_solve as Lanczos bands, and the power
    # iterates of rb_gfem_solve's unreduced run as shift registers, also
    # where a run wraps the window of band coordinates and where the middle
    # node's first member is zero
    forms = problem44.forms
    rng = np.random.default_rng(44)
    alpha0, alpha1 = (rng.standard_normal((2, problem44.n_coarse_dofs)) if data
                      else np.zeros((2, problem44.n_coarse_dofs)))
    if zero:
        middle = problem44.n_coarse_dofs // 2
        real = lod.transient_patch

        def zero_rhs(correctors, x_dof):
            patch, rhs = real(correctors, x_dof)
            return patch, (np.zeros_like(rhs) if x_dof == middle else rhs)

        monkeypatch.setattr(lod, "transient_patch", zero_rhs)
    seq = transients_for_all_nodes(k2_44, horizon=horizon)
    nodes = node_reductions(k2_44, horizon, (horizon,))
    assert not zero or not (seq[middle].members().any() or nodes[middle].xi.any())
    runs = ((localized_gfem_solve(k2_44, seq, f, n_steps, alpha0, alpha1),
             certified_members(seq, n_steps)),
            (rb_gfem_solve(k2_44, nodes, f, n_steps, alpha0, alpha1,
                           transient_horizon(n_steps)),
             {x: (node.dofs, node.xi) for x, node in nodes.items()}))
    for got, members in runs:
        alpha, states = _per_step_superposition(k2_44, members, forms, f, n_steps,
                                                alpha0, alpha1)
        assert np.linalg.norm(got.alpha - alpha) <= 1e-12 * np.linalg.norm(alpha)
        assert np.linalg.norm(got.states - states) <= 1e-12 * np.linalg.norm(states)


# ----------------------------------------------------------------------------
# the global stepper of the ideal and auxiliary GFEM

class _CheckedOracle(_PerStep):
    """The fine-scale hook the global stepper replaces: one checked saddle
    solve per step, in the default factorization, of K_A u^{n-1} = K_A (Q
    alpha^{n-1} + w^{n-1})."""

    def __init__(self, correctors, grid):
        forms = correctors.forms
        super().__init__(correctors.Q, forms, grid)
        self.saddle = saddle_of(forms.K_tilde, forms.interp)

    def memory(self, n, alpha):
        fine = self.K_A @ (self.Q @ alpha[n - 1] + self.w[n - 1])
        self.w[n] = self.saddle.solve(fine)[0]
        return self.QT @ fine


def _ideal_oracle(correctors, f, n_steps, alpha0, alpha1):
    grid = TimeGrid(correctors.forms.tau, n_steps)
    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1),
                       _CheckedOracle(correctors, grid))


def _aux_oracle(correctors, f, alpha0, n_steps):
    grid = TimeGrid(correctors.forms.tau, n_steps)
    Q, _, A_ms, B_ms, forms = _multiscale(correctors)
    return _gfem_steps(Q, np.zeros_like(A_ms), A_ms, B_ms, forms, f, grid, (alpha0,),
                       _CheckedOracle(correctors, grid))


def _assert_same_trajectory(got, want, rtol=1e-12):
    assert np.linalg.norm(got.alpha - want.alpha) <= rtol * np.linalg.norm(want.alpha)
    assert np.linalg.norm(got.states - want.states) <= rtol * np.linalg.norm(want.states)


@pytest.fixture(scope="module")
def initial_data(problem44):
    return np.random.default_rng(45).standard_normal((2, problem44.n_coarse_dofs))


@pytest.mark.parametrize("n_steps", [2, linalg._BLOCK + 1, MULTI_BLOCK],
                         ids=["one-step", "block-and-one", "multi-block"])
def test_global_stepper_matches_per_step_checked_solves(problem44, saturated44,
                                                        initial_data, n_steps):
    # the oracle steps on the element-loop saturated set, the solvers on the
    # basis of their own global factorization
    forms = problem44.forms
    alpha0, alpha1 = initial_data
    _assert_same_trajectory(ideal_gfem_solve(forms, 1.0, n_steps, alpha0, alpha1),
                            _ideal_oracle(saturated44, 1.0, n_steps, alpha0, alpha1))
    _assert_same_trajectory(aux_gfem_solve(forms, 1.0, alpha0, n_steps),
                            _aux_oracle(saturated44, 1.0, alpha0, n_steps))


def test_global_stepper_replays_a_missed_bare_solve(problem44, initial_data,
                                                    monkeypatch):
    forms = problem44.forms
    alpha0, alpha1 = initial_data
    want = ideal_gfem_solve(forms, 1.0, MULTI_BLOCK, alpha0, alpha1)
    raw_solve = linalg.Factorization._raw_solve
    checked_solve = linalg.SaddleFactorization.solve
    bare, checked = [], []

    def perturbed(self, b):
        if b.ndim == 2:
            # the basis block solve and its refinement
            return raw_solve(self, b)
        bare.append(b.copy())
        x = raw_solve(self, b)
        # steps 2 .. 17 fill the first block; this is step 22 of the second
        return x * (1.0 + 1e-6) if len(bare) == linalg._BLOCK + 5 else x

    def counted(self, r):
        checked.append(r)
        return checked_solve(self, r)

    monkeypatch.setattr(linalg.Factorization, "_raw_solve", perturbed)
    monkeypatch.setattr(linalg.SaddleFactorization, "solve", counted)
    got = ideal_gfem_solve(forms, 1.0, MULTI_BLOCK, alpha0, alpha1)
    # the basis is one checked block solve of every coarse column; of the
    # steps, step 22 is solved again through the checked solve, and the steps
    # after it are solved again from its state
    basis, *steps = checked
    assert basis.shape == (problem44.n_fine_dofs, problem44.n_coarse_dofs)
    assert len(steps) == 1
    np.testing.assert_array_equal(steps[0], bare[linalg._BLOCK + 4][:steps[0].size])
    np.testing.assert_array_equal(got.alpha, want.alpha)
    np.testing.assert_array_equal(got.states, want.states)


def _scale_solves(monkeypatch, steps_only=False):
    """Make every bare solve 1.5 times the solution, or with steps_only those
    from the first linalg._CheckedSteps on, after the basis is built. Returns
    the list that marks the steps begun; clearing it restarts the wait."""
    raw_solve = linalg.Factorization._raw_solve
    steps_init = linalg._CheckedSteps.__init__
    stepping = []

    def scaled_solve(self, b):
        x = raw_solve(self, b)
        return 1.5 * x if stepping or not steps_only else x

    def steps_begin(self, *args):
        stepping.append(True)
        steps_init(self, *args)

    monkeypatch.setattr(linalg.Factorization, "_raw_solve", scaled_solve)
    monkeypatch.setattr(linalg._CheckedSteps, "__init__", steps_begin)
    return stepping


def test_global_stepper_raises_where_refinement_cannot_mend(problem44, initial_data,
                                                             monkeypatch):
    # every solve, the refinement's and the fallback factorization's too, is
    # 1.5 times the solution: the basis block solve misses in both orderings
    alpha0, alpha1 = initial_data
    _scale_solves(monkeypatch)
    with pytest.raises(InaccurateSolveError):
        ideal_gfem_solve(problem44.forms, 1.0, MULTI_BLOCK, alpha0, alpha1)
    with pytest.raises(InaccurateSolveError):
        aux_gfem_solve(problem44.forms, 1.0, alpha0, MULTI_BLOCK)


def test_global_steps_raise_where_refinement_cannot_mend(problem44, initial_data,
                                                         monkeypatch):
    # as above, from the time steps on: the basis is accurate, and the replay
    # of the first step misses in both orderings
    alpha0, alpha1 = initial_data
    stepping = _scale_solves(monkeypatch, steps_only=True)
    with pytest.raises(InaccurateSolveError):
        ideal_gfem_solve(problem44.forms, 1.0, MULTI_BLOCK, alpha0, alpha1)
    assert stepping
    stepping.clear()
    with pytest.raises(InaccurateSolveError):
        aux_gfem_solve(problem44.forms, 1.0, alpha0, MULTI_BLOCK)


def test_global_solvers_factor_once(problem44, initial_data, monkeypatch):
    # the basis and the time steps share one symmetric-mode factorization
    forms = problem44.forms
    alpha0, alpha1 = initial_data
    splu = linalg._splu
    modes = []

    def counted(matrix, symmetric=False):
        modes.append(symmetric)
        return splu(matrix, symmetric)

    monkeypatch.setattr(linalg, "_splu", counted)
    ideal_gfem_solve(forms, 1.0, MULTI_BLOCK, alpha0, alpha1)
    assert modes == [True]
    modes.clear()
    aux_gfem_solve(forms, 1.0, alpha0, MULTI_BLOCK)
    assert modes == [True]


def test_global_stepper_falls_back_from_a_singular_symmetric_mode(problem44, saturated44,
                                                                  initial_data,
                                                                  monkeypatch):
    alpha0, alpha1 = initial_data
    want = _ideal_oracle(saturated44, 1.0, MULTI_BLOCK, alpha0, alpha1)
    splu = linalg._splu
    modes = []

    def singular_symmetric(matrix, symmetric=False):
        modes.append(symmetric)
        if symmetric:
            raise SingularSystemError("singular system")
        return splu(matrix, symmetric)

    monkeypatch.setattr(linalg, "_splu", singular_symmetric)
    got = ideal_gfem_solve(problem44.forms, 1.0, MULTI_BLOCK, alpha0, alpha1)
    assert modes == [True, False]
    _assert_same_trajectory(got, want)


def test_global_stepper_factors_the_forms_saddle_matrix(problem44, initial_data,
                                                        monkeypatch):
    # the one saddle matrix the patches gather from is factored whole, in
    # symmetric mode and, where that is singular, in the default one
    forms = problem44.forms
    alpha0, alpha1 = initial_data
    splu = linalg._splu
    factored = []

    def singular_symmetric(matrix, symmetric=False):
        factored.append((matrix, symmetric))
        if symmetric:
            raise SingularSystemError("singular system")
        return splu(matrix, symmetric)

    monkeypatch.setattr(linalg, "_splu", singular_symmetric)
    ideal_gfem_solve(forms, 1.0, MULTI_BLOCK, alpha0, alpha1)
    full = forms.saddle_matrix("K_tilde")
    assert [mode for _, mode in factored] == [True, False]
    assert all(matrix is full for matrix, _ in factored)


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


# ----------------------------------------------------------------------------
# the recurrence of the certified sequences against the per-step
# superposition of their members

@pytest.fixture(scope="module", params=["problem44", "problem84"])
def recurrence_problem(request):
    problem = request.getfixturevalue(request.param)
    return problem, build_corrector_set(problem.forms, CorrectorConfig(k=2))


def _assert_recurrence_matches_members(correctors, seq, n_steps):
    """The certified run against the per-step superposition of its lifted
    members."""
    assert all(isinstance(tc, TransientCorrectors) for tc in seq.values())
    rng = np.random.default_rng(45)
    alpha0, alpha1 = rng.standard_normal((2, correctors.Q.shape[1]))
    got = localized_gfem_solve(correctors, seq, _pulse, n_steps, alpha0, alpha1)
    alpha, states = _per_step_superposition(correctors, certified_members(seq, n_steps),
                                            correctors.forms, _pulse, n_steps, alpha0,
                                            alpha1)
    assert np.linalg.norm(got.states - states) <= 1e-12 * np.linalg.norm(states)
    assert np.linalg.norm(got.alpha - alpha) <= 1e-12 * np.linalg.norm(alpha)


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

    def zero_rhs(correctors, x_dof):
        patch, rhs = real(correctors, x_dof)
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
        window = self.t.shape[0]
        prev, t = self.t[(n - 1) % window], self.t[n % window]
        np.multiply(self.diag, prev, out=t)
        t[1:] += self.couple * prev[:-1]
        t[:-1] += self.couple * prev[1:]
        t[self.first] += self.weight * alpha[n - 1]


def test_certified_band_steps_as_one_coupling(recurrence_problem):
    # a certified band has lower = upper = beta: the same arithmetic, bit for
    # bit, as the single coupling array it replaces, also where the run wraps
    # the window of band coordinates
    _, cs = recurrence_problem
    rng = np.random.default_rng(46)
    alpha0, alpha1 = rng.standard_normal((2, cs.Q.shape[1]))
    for n_steps in (MULTI_BLOCK, WRAPS):
        seq = transients_for_all_nodes(cs, transient_horizon(n_steps))
        got = localized_gfem_solve(cs, seq, _pulse, n_steps, alpha0, alpha1)
        grid = TimeGrid(cs.forms.tau, n_steps)
        want = _gfem_steps(*_multiscale(cs), _pulse, grid, (alpha0, alpha1),
                           _CoupledRecurrence(cs, seq, grid))
        np.testing.assert_array_equal(got.states, want.states)
        np.testing.assert_array_equal(got.alpha, want.alpha)


class _SingleFill(_Recurrence):
    """The recurrence as it filled the fine states before the window: the
    band coordinates of every step kept, t[n] = t^n, and the states filled
    once after the loop, one product per node."""

    def __init__(self, correctors, bands, grid):
        super().__init__(correctors, bands, grid)
        self.t = np.zeros((grid.n_steps + 1, self.t.shape[1]))

    def _advance(self, n, alpha):
        prev, t = self.t[n - 1], self.t[n]
        np.multiply(self.diag, prev, out=t)
        t[1:] += self.lower * prev[:-1]
        t[:-1] += self.upper * prev[1:]
        t[self.first] += self.weight * alpha[n - 1]

    def memory(self, n, alpha):
        if n >= 3:
            self._advance(n - 1, alpha)
        return self.A_ms @ alpha[n - 1] + self.G @ self.t[n - 1]

    def states(self, alpha):
        n_steps = alpha.shape[0] - 1
        self._advance(n_steps, alpha)
        states = self.Q @ alpha.T
        for dofs, R, span in self.items:
            states[dofs, 2:] += R.T @ self.t[2:, span].T
        return np.ascontiguousarray(states.T)


def _bands(seq):
    """The node bands localized_gfem_solve steps certified sequences as."""
    return [(tc.dofs, tc.xi, tc.alpha, tc.beta, tc.beta, tc.norm1)
            for _, tc in sorted(seq.items())]


@pytest.fixture(scope="module")
def wrapping_sequences(recurrence_problem):
    _, cs = recurrence_problem
    return transients_for_all_nodes(cs, transient_horizon(WRAPS))


# N + 1 = 3 (the shortest grid), below the window, one window, two windows,
# and a last window cut short
@pytest.mark.parametrize("n_steps", [2, _WINDOW // 2, _WINDOW - 1, 2 * _WINDOW - 1,
                                     WRAPS],
                         ids=["two-steps", "below", "one-window", "two-windows", "cut"])
def test_window_fills_the_states_of_the_single_fill(recurrence_problem,
                                                     wrapping_sequences, n_steps):
    # the window keeps min(_WINDOW, N + 1) steps of band coordinates and fills
    # the states during the loop; only the blocking of the fill products moves
    # the states, and the coefficients are the same
    _, cs = recurrence_problem
    bands = _bands(wrapping_sequences)
    rng = np.random.default_rng(47)
    alpha0, alpha1 = rng.standard_normal((2, cs.Q.shape[1]))
    grid = TimeGrid(cs.forms.tau, n_steps)
    hook = _Recurrence(cs, bands, grid)
    got = _gfem_steps(*_multiscale(cs), _pulse, grid, (alpha0, alpha1), hook)
    assert hook.t.shape[0] == min(_WINDOW, n_steps + 1)
    want = _gfem_steps(*_multiscale(cs), _pulse, grid, (alpha0, alpha1),
                       _SingleFill(cs, bands, grid))
    np.testing.assert_array_equal(got.alpha, want.alpha)
    assert np.linalg.norm(got.states - want.states) <= 1e-13 * np.linalg.norm(want.states)


def test_steady_state_b_orthogonality(problem44):
    # the solution drifts toward b-orthogonality against the fine-scale space;
    # forms and correctors are built at the step of the run
    pair = problem44.pair
    forms = DiscreteForms(pair, problem44.field_a, problem44.field_b, 0.05)
    zc = np.zeros(problem44.n_coarse_dofs)
    traj = ideal_gfem_solve(forms, 1.0, 200, zc, zc)
    saddle = saddle_of(forms.K_tilde, forms.interp)
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
    gfem = aux_gfem_solve(problem44.forms, 0.0, alpha0, n_steps)
    for n in range(1, 21):
        err = h1_norms(problem44.forms, [fine.states[n] - gfem.states[n]])[0]
        assert err <= 1e-9 * h1_norms(problem44.forms, [fine.states[n]])[0]


def test_aux_zero(problem44):
    n_steps = 4
    fine = aux_fine_solve(problem44.forms, 0.0,
                          np.zeros(problem44.n_fine_dofs), n_steps)
    assert np.all(fine.states == 0.0)
    gfem = aux_gfem_solve(problem44.forms, 0.0, np.zeros(problem44.n_coarse_dofs),
                          n_steps)
    assert np.all(gfem.states == 0.0)


def test_aux_convergence_rate():
    # aux GFEM error behaves like H times the accumulated source norm
    errs = []
    for q in (2, 3, 4):
        pair = NestedMeshPair(Mesh(2 ** q), 2 ** (5 - q))
        A = random_field(pair.fine, 0.1, 1000.0, 1)
        B = random_field(pair.fine, 0.1, 1000.0, 2)
        forms = DiscreteForms(pair, A, B, TAU)
        n_steps = 25
        fine = aux_fine_solve(forms, 1.0, np.zeros(pair.fine.n_dofs), n_steps)
        gfem = aux_gfem_solve(forms, 1.0, np.zeros(pair.coarse.n_dofs), n_steps)
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


@pytest.mark.parametrize("case", ["longer", "half-step"])
@pytest.mark.parametrize("norm", [rel_h1_final, rel_l2h1], ids=["final", "l2h1"])
def test_error_norms_reject_another_time_grid(problem44, norm, case):
    # a 10-step run against a 20-step reference compared the states of two
    # different times, and the same states on half the step read 0
    forms = problem44.forms
    zeros = np.zeros(problem44.n_fine_dofs)
    run = fine_fem_solve(forms, 1.0, zeros, zeros, 10)
    reference = (fine_fem_solve(forms, 1.0, zeros, zeros, 20) if case == "longer"
                 else Trajectory(TimeGrid(forms.tau / 2, 10), run.states))
    with pytest.raises(ValueError, match="steps on"):
        norm(forms, run, reference)


class _OneProduct(_PerStep):
    """_PerStep as it added Q alpha to the states, one product of all steps."""

    def states(self, alpha):
        self.w += (self.Q @ alpha.T).T
        return self.w


class _GlobalOneProduct(_GlobalSaddle):
    states = _OneProduct.states


def test_per_step_adds_the_coarse_part_in_blocks(problem44, initial_data):
    # Q alpha, added _BLOCK steps at a time, gives the states of one product
    # over all steps, for the sparse basis of the coarse FEM and the dense
    # basis of the ideal method; WRAPS + 1 steps are no multiple of _BLOCK
    forms = problem44.forms
    grid = TimeGrid(forms.tau, WRAPS)
    P = prolongation(forms.pair)
    grams = [(P.T @ mat @ P).toarray() for mat in (forms.M, forms.K_A, forms.K_B)]
    fem = [_gfem_steps(P, *grams, forms, _pulse, grid, tuple(initial_data), hook)
           for hook in (None, _OneProduct(P, forms, grid))]
    ideal = []
    for cls in (_GlobalSaddle, _GlobalOneProduct):
        hook = cls(forms, grid)
        ideal.append(_gfem_steps(*_multiscale(hook), _pulse, grid, tuple(initial_data),
                                 hook))
    for got, want in (fem, ideal):
        np.testing.assert_array_equal(got.alpha, want.alpha)
        assert np.linalg.norm(got.states - want.states) <= 1e-14 * np.linalg.norm(want.states)


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
        ideal_gfem_solve(forms, 1.0, 3, zc, zc),
        localized_gfem_solve(cs, seq, 1.0, 3, zc, zc),
        localized_gfem_solve_direct(cs, 1.0, 3, zc, zc),
        aux_fine_solve(forms, 1.0, zf, 3),
        aux_gfem_solve(forms, 1.0, zc, 3),
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
    zc = np.zeros(problem44.n_coarse_dofs)
    with pytest.raises(ValueError, match="n_steps|two time steps"):
        fine_fem_solve(problem44.forms, 1.0, zf, zf, n_steps)
    with pytest.raises(ValueError, match="n_steps|two time steps"):
        aux_fine_solve(problem44.forms, 1.0, zf, n_steps)
    with pytest.raises(ValueError, match="n_steps|two time steps"):
        ideal_gfem_solve(problem44.forms, 1.0, n_steps, zc, zc)
    with pytest.raises(ValueError, match="n_steps|two time steps"):
        aux_gfem_solve(problem44.forms, 1.0, zc, n_steps)
