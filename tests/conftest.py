import pytest

from sdwave.assembly import DiscreteForms
from sdwave.harness import random_field
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
def problem81():
    # h = H: the fine-scale space is trivial
    return ProblemBundle(8, 1)


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
