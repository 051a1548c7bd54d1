import numpy as np
import pytest
import scipy.sparse as sparse

from sdwave.assembly import DiscreteForms, h1_norms
from sdwave.interpolation import build_interpolator, kernel_constraints
from sdwave.lod import patch_fine_dofs
from sdwave.mesh import (Mesh, NestedMeshPair, element_patch, prolongation,
                         saturating_k)


@pytest.mark.parametrize("q,r", [(2, 2), (4, 4), (8, 2)])
def test_projection_property(q, r):
    pair = NestedMeshPair(Mesh(q), r)
    interp = build_interpolator(pair)
    P = prolongation(pair)
    E = interp @ P - sparse.eye(pair.coarse.n_dofs)
    assert np.abs(E.toarray()).max() <= 1e-14


def test_constants_reproduced_away_from_boundary(problem44):
    interp, pair = problem44.interp, problem44.pair
    values = interp @ np.ones(pair.fine.n_dofs)
    coarse = pair.coarse
    for dof, vert in enumerate(coarse.interior_nodes):
        i, j = vert % (coarse.n + 1), vert // (coarse.n + 1)
        if 1 < i < coarse.n - 1 and 1 < j < coarse.n - 1:
            assert abs(values[dof] - 1.0) <= 1e-13


def test_kernel_constraints_full_patch(problem44):
    interp = problem44.interp
    all_dofs = np.arange(problem44.n_fine_dofs)
    C = kernel_constraints(interp, all_dofs)
    assert C.shape == interp.shape
    with pytest.raises(ValueError):
        kernel_constraints(interp, np.array([], dtype=int))


def test_kernel_constraints_are_the_nonzero_patch_rows(problem44):
    interp = problem44.interp
    dofs = patch_fine_dofs(problem44.pair, element_patch(problem44.pair.coarse, 0, 1))
    restricted = interp[:, dofs].toarray()
    nonzero = np.flatnonzero(np.abs(restricted).sum(axis=1) > 0.0)
    C = kernel_constraints(interp, dofs)
    assert C.shape[0] == nonzero.size < interp.shape[0]
    np.testing.assert_array_equal(C.toarray(), restricted[nonzero])


def _parent_kernel_constraints(interp, dofs):
    # the constraint rows by scipy fancy indexing, the reference for the gather
    C = interp[:, dofs].tocsr()
    row_weight = np.abs(C).sum(axis=1).A.ravel()
    return C[np.flatnonzero(row_weight > 0.0)].tocsr()


@pytest.mark.parametrize("k", [1, 2, None], ids=["k1", "k2", "saturating"])
@pytest.mark.parametrize("stored_zeros", [False, True], ids=["plain", "stored-zeros"])
def test_kernel_constraints_equal_fancy_indexing(problem44, k, stored_zeros):
    pair, interp = problem44.pair, problem44.interp
    coarse = pair.coarse
    if stored_zeros:
        # explicit zeros, and one row that holds nothing else
        interp = interp.copy()
        interp.data[::3] = 0.0
        interp.data[interp.indptr[1]:interp.indptr[2]] = 0.0
    dropped = 0
    for t in range(coarse.n_elements):
        dofs = patch_fine_dofs(pair, element_patch(coarse, t, k or saturating_k(coarse)))
        C, ref = kernel_constraints(interp, dofs), _parent_kernel_constraints(interp, dofs)
        assert C.format == ref.format == "csr" and C.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(C, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (t, name)
        dropped += C.shape[0] < interp.shape[0]
    # a patch short of the whole mesh drops the rows of the nodes far from
    # it, and every patch drops the row of stored zeros
    assert (dropped > 0) == (k is not None or stored_zeros)


@pytest.mark.parametrize("dofs", [[[1, 2]], [3, 2, 5], [2, 2, 5], [-1, 4], [0, 10**6],
                                  [0.0, 1.0]],
                         ids=["2d", "unsorted", "duplicate", "negative", "beyond", "float"])
def test_kernel_constraints_reject_malformed_dofs(problem44, dofs):
    with pytest.raises(ValueError, match="patch dofs"):
        kernel_constraints(problem44.interp, np.array(dofs))


def test_coarse_functions_are_not_fine_scale(problem44):
    pair, interp = problem44.pair, problem44.interp
    P = prolongation(pair)
    patch = element_patch(pair.coarse, 0, 2)
    dofs = patch_fine_dofs(pair, patch)
    C = kernel_constraints(interp, dofs)
    rng = np.random.default_rng(21)
    y = rng.standard_normal(pair.coarse.n_dofs)
    w = (P @ y)[dofs]
    assert np.abs(C @ w).max() > 1e-6


def test_kernel_trivial_at_r1(problem81):
    pair, interp = problem81.pair, problem81.interp
    patch = element_patch(pair.coarse, 10, 2)
    dofs = patch_fine_dofs(pair, patch)
    C = kernel_constraints(interp, dofs).toarray()
    assert np.linalg.matrix_rank(C) == dofs.size


def test_local_stability_estimate():
    # ||v - I_H v||_L2 <= C H ||v||_H1 with an empirically stable constant
    estimates = []
    for q, p in ((3, 5), (4, 6)):
        pair = NestedMeshPair(Mesh(2 ** q), 2 ** (p - q))
        interp = build_interpolator(pair)
        P = prolongation(pair)
        forms = DiscreteForms(pair, np.ones(pair.fine.n_elements),
                            np.ones(pair.fine.n_elements), 0.02)
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(8):
            v = rng.standard_normal(pair.fine.n_dofs)
            diff = v - P @ (interp @ v)
            l2 = np.sqrt(diff @ (forms.M @ diff))
            worst = max(worst, l2 * pair.coarse.n / h1_norms(forms, [v])[0])
        estimates.append(worst)
    assert all(np.isfinite(estimates))
    assert max(estimates) < 1.0
    assert max(estimates) / min(estimates) < 2.0
