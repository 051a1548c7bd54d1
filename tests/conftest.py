import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from sdwave import lod
from sdwave.assembly import DiscreteForms, assemble_load
from sdwave.evolution import TimeGrid, _gfem_steps, _multiscale, _PerStep
from sdwave.harness import random_field
from sdwave.linalg import factor_saddle
from sdwave.lod import CorrectorConfig, build_corrector_set
from sdwave.mesh import Mesh, NestedMeshPair

TAU = 0.02


class ProblemBundle:
    def __init__(self, q, r, seed=1, tau=TAU, lo=0.1, hi=1000.0):
        self.pair = NestedMeshPair(Mesh(q), r)
        self.field_a = random_field(self.pair.fine, lo, hi, seed)
        self.field_b = random_field(self.pair.fine, lo, hi, seed + 1)
        self.forms = DiscreteForms(self.pair, self.field_a, self.field_b, tau)
        self.tau = tau

    @property
    def n_coarse_dofs(self):
        return self.pair.coarse.n_dofs

    @property
    def n_fine_dofs(self):
        return self.pair.fine.n_dofs


@pytest.fixture(scope="session")
def problem44():
    # coarse 4x4, refinement 4: the workhorse mid-size setup
    return ProblemBundle(4, 4)


@pytest.fixture(scope="session")
def problem84():
    # coarse 8x8, refinement 4: the mesh pair of the benchmark (p=5, q=3)
    return ProblemBundle(8, 4)


@pytest.fixture(scope="session")
def problem81():
    # h = H: the fine-scale space is trivial
    return ProblemBundle(8, 1)


@pytest.fixture(scope="session")
def problem21():
    # h = H on a 2x2 coarse mesh: one interior node
    return ProblemBundle(2, 1)


@pytest.fixture(scope="session")
def problem82():
    return ProblemBundle(8, 2)


@pytest.fixture(scope="session", params=["tau", "coefficients"])
def foreign_k2_44(request, problem44):
    """A k = 2 corrector set whose config equals problem44's k = 2 one, built
    at another step or on other coefficients."""
    p = problem44
    if request.param == "tau":
        forms = DiscreteForms(p.pair, p.field_a, p.field_b, 2.5 * p.tau)
    else:
        forms = DiscreteForms(p.pair, p.field_b, p.field_a, p.tau)
    return build_corrector_set(forms, CorrectorConfig(k=2))


def stored_zeros_forms(problem):
    """Forms of problem whose interpolator holds explicit zeros, one row
    nothing else, set before any saddle matrix is built from it."""
    forms = DiscreteForms(problem.pair, problem.field_a, problem.field_b, problem.tau)
    interp = forms.interp.copy()
    interp.data[::3] = 0.0
    interp.data[interp.indptr[1]:interp.indptr[2]] = 0.0
    forms.interp = interp
    return forms


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


class _PerNodeSolves(_PerStep):
    """Oracle for localized_gfem_solve: every node's fine-scale part solved on
    its patch in every step, w_x^n = S_x(K_A w_x^{n-1} + alpha_x^{n-1} K_A q_x),
    and w^n their sum."""

    def __init__(self, correctors, grid):
        super().__init__(correctors.Q, correctors.forms, grid)
        KQ = lod._k_a_q(correctors)
        self.patches = [lod.transient_patch(correctors, d, KQ)
                        for d in range(correctors.Q.shape[1])]
        self.w_node = [np.zeros(patch.dofs.size) for patch, _ in self.patches]

    def memory(self, n, alpha):
        coarse = super().memory(n, alpha)
        for d, (patch, r1) in enumerate(self.patches):
            self.w_node[d] = patch.solve(patch.k_a @ self.w_node[d] + alpha[n - 1, d] * r1)
            self.w[n, patch.dofs] += self.w_node[d]
        return coarse


def localized_gfem_solve_direct(correctors, f, n_steps, alpha0, alpha1):
    """The localized GFEM with the per-node patch systems solved directly in
    every step (_PerNodeSolves)."""
    grid = TimeGrid(correctors.forms.tau, n_steps)
    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1),
                       _PerNodeSolves(correctors, grid))


def saddle_matrix(A, C):
    """The CSC of the saddle matrix [[A, C^T], [C, 0]] of the blocks A and C,
    as sparse.bmat builds it."""
    A, C = sparse.csr_matrix(A), sparse.csr_matrix(C)
    return sparse.bmat([[A, C.T], [C, None]], format="csc")


def saddle_of(A, C, _symmetric=False):
    """factor_saddle of saddle_matrix(A, C); bound at import, so a test that
    counts the factorizations of linalg.factor_saddle does not count this
    one."""
    return factor_saddle(saddle_matrix(A, C), A.shape[0], _symmetric)


def constraint_rows(interp, dofs):
    """The rows of the interpolator restricted to the patch dofs, zero rows
    removed, by scipy's fancy indexing: C w = 0 characterizes the
    fine-scale functions supported on the patch. The reference for the
    constraint rows lod.Patch gathers."""
    C = interp[:, dofs].tocsr()
    row_weight = np.abs(C).sum(axis=1).A.ravel()
    return C[np.flatnonzero(row_weight > 0.0)].tocsr()
