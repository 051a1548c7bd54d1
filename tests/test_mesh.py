import numpy as np
import pytest
import scipy.sparse as sparse

from sdwave.mesh import (Mesh, NestedMeshPair, element_patch, node_patch,
                         prolongation, saturating_k)


@pytest.mark.parametrize("n,nv,nt,ni", [(1, 4, 2, 0), (2, 9, 8, 1), (16, 289, 512, 225)])
def test_counts(n, nv, nt, ni):
    m = Mesh(n)
    assert m.n_vertices == nv
    assert m.n_elements == nt
    assert m.n_dofs == ni


def test_invalid_subdivisions():
    with pytest.raises(ValueError):
        Mesh(0)


def test_orientation_and_area():
    m = Mesh(16)
    assert np.all(m.areas() > 0)
    assert abs(m.areas().sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (4, 4)])
def test_refine_fibers(n, r):
    pair = NestedMeshPair(Mesh(n), r)
    assert pair.fine.n == r * n
    sizes = {f.size for f in pair.fibers}
    assert sizes == {r * r}
    if r == 1:
        assert np.array_equal(pair.parent_map, np.arange(pair.fine.n_elements))


def test_parent_containment():
    pair = NestedMeshPair(Mesh(4), 4)
    fine, coarse = pair.fine, pair.coarse
    g = coarse.gradients()
    for t in range(fine.n_elements):
        T = pair.parent_map[t]
        corner = coarse.vertices[coarse.triangles[T, 0]]
        for p in fine.vertices[fine.triangles[t]]:
            l1 = g[T, 1] @ (p - corner)
            l2 = g[T, 2] @ (p - corner)
            bary = (1.0 - l1 - l2, l1, l2)
            assert min(bary) >= -1e-12 and max(bary) <= 1 + 1e-12


def _brute_force_neighbors(mesh, elems):
    verts = set(mesh.triangles[sorted(elems)].ravel().tolist())
    out = set()
    for t, tri in enumerate(mesh.triangles):
        if verts.intersection(tri.tolist()):
            out.add(t)
    return out


def test_element_patch_against_brute_force():
    m = Mesh(8)
    center = 2 * (4 * 8 + 4)
    expected = _brute_force_neighbors(m, {center})
    assert set(element_patch(m, center, 1).tolist()) == expected
    expected2 = _brute_force_neighbors(m, expected)
    assert set(element_patch(m, center, 2).tolist()) == expected2


def test_patch_monotone_and_saturating():
    m = Mesh(6)
    rng = np.random.default_rng(4)
    for t in rng.integers(0, m.n_elements, size=8):
        prev = set()
        for k in range(1, saturating_k(m) + 1):
            cur = set(element_patch(m, int(t), k).tolist())
            assert prev.issubset(cur)
            prev = cur
        assert len(prev) == m.n_elements


def test_node_patch_incidence():
    m = Mesh(8)
    center = 4 * 9 + 4
    patch = node_patch(m, center, 1)
    # on the diagonal mesh an interior node touches exactly 6 elements
    assert patch.size == 6
    brute = {t for t, tri in enumerate(m.triangles) if center in tri}
    assert set(patch.tolist()) == brute
    near_boundary = 1 * 9 + 1
    assert node_patch(m, near_boundary, 1).size == 6
    corner_adjacent = 0  # boundary vertex
    assert node_patch(m, corner_adjacent, 1).size < 6
    assert node_patch(m, center, saturating_k(m)).size == m.n_elements


@pytest.mark.parametrize("k", [0, -1])
def test_patch_builders_reject_k_below_one(k):
    m = Mesh(4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        element_patch(m, 0, k)
    with pytest.raises(ValueError, match="k must be >= 1"):
        node_patch(m, 6, k)


def test_every_node_patch_covers_the_mesh_at_saturating_k():
    # lod.decay_profile grows node patches up to saturating_k
    for n in (2, 5, 8):
        m = Mesh(n)
        for x in m.interior_nodes:
            assert node_patch(m, x, saturating_k(m)).size == m.n_elements


def test_prolongation_identity_at_r1():
    pair = NestedMeshPair(Mesh(4), 1)
    P = prolongation(pair)
    assert (P - sparse.eye(pair.coarse.n_dofs)).nnz == 0


def test_prolongation_partition_of_unity():
    pair = NestedMeshPair(Mesh(4), 4)
    P = prolongation(pair)
    sums = np.asarray(P.sum(axis=1)).ravel()
    fine, r = pair.fine, pair.r
    for row, vert in enumerate(fine.interior_nodes):
        i, j = vert % (fine.n + 1), vert // (fine.n + 1)
        ci, cj = i // r, j // r
        if 1 <= ci <= pair.coarse.n - 2 and 1 <= cj <= pair.coarse.n - 2 \
                and i % r and j % r:
            assert abs(sums[row] - 1.0) <= 1e-14
    assert P.min() >= 0.0 and P.max() <= 1.0


def test_prolongation_edge_midpoint():
    pair = NestedMeshPair(Mesh(2), 2)
    P = prolongation(pair)
    fine, coarse = pair.fine, pair.coarse
    center_dof = coarse.dof_index[1 * 3 + 1]
    mid = fine.dof_index[2 * 5 + 1]  # midpoint of a horizontal coarse edge
    assert abs(P[mid, center_dof] - 0.5) <= 1e-15


def test_prolongation_samples_identity_on_coarse_nodes():
    pair = NestedMeshPair(Mesh(4), 2)
    P = prolongation(pair)
    for dof, vert in enumerate(pair.coarse.interior_nodes):
        i, j = vert % (pair.coarse.n + 1), vert // (pair.coarse.n + 1)
        fine_vert = (j * pair.r) * (pair.fine.n + 1) + i * pair.r
        row = pair.fine.dof_index[fine_vert]
        col = np.asarray(P[row].todense()).ravel()
        assert abs(col[dof] - 1.0) <= 1e-15
        assert np.all(np.delete(col, dof) == 0.0)
