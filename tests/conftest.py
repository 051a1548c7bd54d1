import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from sdwave import linalg
from sdwave.assembly import DiscreteForms, assemble_load
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


def saddle_of(A, C, _symmetric=False):
    """factor_saddle of the saddle matrix [[A, C^T], [C, 0]] of the blocks A
    and C, built from them by linalg._saddle_matrix; bound at import, so a
    test that counts the factorizations of linalg.factor_saddle does not
    count this one."""
    kkt = linalg._saddle_matrix(sparse.csc_matrix(A), sparse.csr_matrix(C))
    return factor_saddle(kkt, A.shape[0], _symmetric)
