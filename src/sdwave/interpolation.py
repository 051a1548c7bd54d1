"""Quasi-interpolation from fine to coarse dofs and its kernel constraints.

The operator composes an element-wise L2 projection onto affine functions with
arithmetic averaging of the per-element values at every interior coarse node.
"""

import numpy as np
import scipy.sparse as sparse

from . import linalg

# inverse of the barycentric Gram pattern [[2,1,1],[1,2,1],[1,1,2]]
_GRAM_INV_PATTERN = 0.25 * np.array(
    [[3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]]
)


def build_interpolator(pair):
    """The fine-to-coarse interpolation matrix of a nested pair, sparse
    (coarse dofs x fine dofs), CSR with sorted indices."""
    coarse = pair.coarse
    fine = pair.fine
    ntc = coarse.n_elements
    npf = fine.n_vertices

    parent = pair.parent_map
    tri_f = fine.triangles
    areas_f = fine.areas()

    # barycentric coordinates of points w.r.t. the parent coarse element:
    # lambda_i(p) = delta_i0-ish via value at corner 0 plus gradient term
    cg = coarse.gradients()[parent]          # (ntf, 3, 2)
    corner0 = coarse.vertices[coarse.triangles[parent, 0]]  # (ntf, 2)

    def coarse_bary(points):
        rel = points - corner0
        lam = np.einsum("mid,md->mi", cg, rel)
        lam[:, 0] += 1.0
        return lam  # (ntf, 3)

    pts = fine.vertices[tri_f]  # (ntf, 3, 2)
    edges = [(0, 1), (1, 2), (2, 0)]

    rows = []
    cols = []
    vals = []
    for ea, eb in edges:
        mid = 0.5 * (pts[:, ea] + pts[:, eb])
        lam = coarse_bary(mid)  # (ntf, 3)
        w = (areas_f / 6.0)[:, None] * lam  # quadrature weight times moment basis
        for endpoint in (ea, eb):
            cols.append(np.repeat(tri_f[:, endpoint], 3))
            rows.append((3 * parent[:, None] + np.arange(3)).ravel())
            vals.append(w.ravel())

    moments = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * ntc, npf),
    )

    # per-element projection: invert the 3x3 barycentric Gram matrix blockwise
    area_c = 0.5 * (coarse.h ** 2)
    gram_inv = (12.0 / area_c) * _GRAM_INV_PATTERN
    block_inv = sparse.kron(sparse.eye(ntc, format="csr"), sparse.csr_matrix(gram_inv))
    projected = block_inv @ moments  # rows: per-element affine coefficients

    # node averaging over the coarse elements meeting each interior node
    card = np.asarray(coarse._vert_elem.sum(axis=1)).ravel()
    tri_c = coarse.triangles
    avg_rows = []
    avg_cols = []
    avg_vals = []
    for loc in range(3):
        verts = tri_c[:, loc]
        dof = coarse.dof_index[verts]
        keep = dof >= 0
        avg_rows.append(dof[keep])
        avg_cols.append(3 * np.flatnonzero(keep) + loc)
        avg_vals.append(1.0 / card[verts[keep]])
    averaging = sparse.csr_matrix(
        (np.concatenate(avg_vals), (np.concatenate(avg_rows), np.concatenate(avg_cols))),
        shape=(coarse.n_dofs, 3 * ntc),
    )

    matrix = (averaging @ projected)[:, fine.interior_nodes].tocsr()
    matrix.sort_indices()
    return matrix


def kernel_constraints(interp, patch_dofs):
    """Rows of the interpolation matrix restricted to a patch, zero rows removed.

    C w = 0 characterizes the fine-scale functions supported on the patch.
    patch_dofs must be ascending fine dofs. lod.Patch gathers the same rows
    with its saddle system.
    """
    patch_dofs = linalg._check_indices(patch_dofs, interp.shape[1], "patch dofs")
    in_patch = np.zeros(interp.shape[1], dtype=bool)
    in_patch[patch_dofs] = True
    # the rows with a nonzero entry in a patch column
    hits = np.concatenate(([0], np.cumsum(in_patch[interp.indices] & (interp.data != 0.0))))
    rows = np.flatnonzero(hits[interp.indptr[1:]] > hits[interp.indptr[:-1]])
    return linalg._submatrix(interp, rows, patch_dofs)
