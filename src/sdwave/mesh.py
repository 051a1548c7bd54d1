"""Uniform nested triangulations of the unit square and coarse-grid patches."""

import numpy as np
import scipy.sparse as sparse


class Mesh:
    """Criss-cross triangulation of the unit square with n cells per side.

    Each square cell is split along its lower-left to upper-right diagonal.
    Vertices are numbered row by row (y-major), elements cell by cell with
    the lower triangle first.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("mesh subdivision count must be >= 1")
        self.n = n
        self.h = 1.0 / n

        idx = np.arange(n + 1)
        xx, yy = np.meshgrid(idx / n, idx / n)
        self.vertices = np.column_stack([xx.ravel(), yy.ravel()])

        ii, jj = np.meshgrid(np.arange(n), np.arange(n))
        ii = ii.ravel()
        jj = jj.ravel()
        v00 = jj * (n + 1) + ii
        v10 = v00 + 1
        v01 = v00 + (n + 1)
        v11 = v01 + 1
        lower = np.column_stack([v00, v10, v11])
        upper = np.column_stack([v00, v11, v01])
        tris = np.empty((2 * n * n, 3), dtype=np.int64)
        tris[0::2] = lower
        tris[1::2] = upper
        self.triangles = tris

        gi, gj = np.meshgrid(idx, idx)
        interior = (gi.ravel() > 0) & (gi.ravel() < n) & (gj.ravel() > 0) & (gj.ravel() < n)
        self.interior_nodes = np.flatnonzero(interior)
        self.dof_index = np.full((n + 1) * (n + 1), -1, dtype=np.int64)
        self.dof_index[self.interior_nodes] = np.arange(self.interior_nodes.size)

        # element <-> vertex incidence for patch growth
        nt = self.triangles.shape[0]
        npts = self.vertices.shape[0]
        ones = np.ones(3 * nt, dtype=np.int8)
        rows = np.repeat(np.arange(nt), 3)
        self._elem_vert = sparse.csr_matrix(
            (ones, (rows, self.triangles.ravel())), shape=(nt, npts)
        )
        self._vert_elem = self._elem_vert.T.tocsr()

        self._areas = None
        self._grads = None

    @property
    def n_elements(self):
        return self.triangles.shape[0]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_dofs(self):
        return self.interior_nodes.size

    def areas(self):
        """Signed element areas (positive for this mesh)."""
        if self._areas is None:
            self._compute_geometry()
        return self._areas

    def gradients(self):
        """Gradients of the three barycentric basis functions per element, (nt, 3, 2)."""
        if self._grads is None:
            self._compute_geometry()
        return self._grads

    def _compute_geometry(self):
        p = self.vertices[self.triangles]  # (nt, 3, 2)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self._areas = 0.5 * area2
        g = np.empty((self.triangles.shape[0], 3, 2))
        # grad(lambda_i) = rot90(p_j - p_k) / (2 area), (j, k) opposite to i
        g[:, 0, 0] = p[:, 1, 1] - p[:, 2, 1]
        g[:, 0, 1] = p[:, 2, 0] - p[:, 1, 0]
        g[:, 1, 0] = p[:, 2, 1] - p[:, 0, 1]
        g[:, 1, 1] = p[:, 0, 0] - p[:, 2, 0]
        g[:, 2, 0] = p[:, 0, 1] - p[:, 1, 1]
        g[:, 2, 1] = p[:, 1, 0] - p[:, 0, 0]
        g /= area2[:, None, None]
        self._grads = g

    def expand(self, v_interior):
        """Zero-extend a vector of interior dofs to all vertices."""
        full = np.zeros(self.n_vertices)
        full[self.interior_nodes] = v_interior
        return full


class NestedMeshPair:
    """Coarse mesh of width H and its uniform refinement of width h = H / r."""

    def __init__(self, coarse, r):
        if r < 1:
            raise ValueError("refinement ratio must be >= 1")
        self.coarse = coarse
        self.fine = Mesh(r * coarse.n)
        self.r = r

        nf = self.fine.n
        t = np.arange(self.fine.n_elements)
        cell = t // 2
        parity = t % 2
        i = cell % nf
        j = cell // nf
        ci = i // r
        cj = j // r
        a = i - ci * r
        b = j - cj * r
        base = 2 * (cj * coarse.n + ci)
        self.parent_map = np.where(b < a, base, np.where(b > a, base + 1, base + parity))

        order = np.argsort(self.parent_map, kind="stable")
        counts = np.bincount(self.parent_map, minlength=coarse.n_elements)
        self.fibers = np.split(order, np.cumsum(counts)[:-1])
        self._prolongation = None


def _grow(mesh, mask, layers):
    nt = mesh.n_elements
    for _ in range(layers):
        if mask.sum() == nt:
            break
        verts = mesh._vert_elem.dot(mask.astype(np.int8)) > 0
        mask = mesh._elem_vert.dot(verts.astype(np.int8)) > 0
    return mask


def saturating_k(mesh):
    """Patch size guaranteeing N^k covers the whole mesh.

    Growth against the cell diagonal advances one cell per two layers, so the
    worst starting element needs 2n - 1 layers on an n x n mesh.
    """
    return 2 * mesh.n


def element_patch(mesh, t, k):
    """Elements of N^k(T): k layers of vertex-neighbors around element t."""
    if k < 1:
        raise ValueError("patch size k must be >= 1")
    mask = np.zeros(mesh.n_elements, dtype=bool)
    mask[t] = True
    return np.flatnonzero(_grow(mesh, mask, k))


def node_patch(mesh, x, k):
    """Elements of N^k(x): the elements incident to vertex x, grown k-1 times."""
    if k < 1:
        raise ValueError("patch size k must be >= 1")
    mask = np.zeros(mesh.n_elements, dtype=bool)
    mask[mesh._vert_elem.getrow(x).indices] = True
    return np.flatnonzero(_grow(mesh, mask, k - 1))


def prolongation(pair):
    """Coarse-to-fine interpolation matrix on interior dofs.

    Column x samples the coarse hat function at x on the interior fine nodes.
    Cached on the pair after the first call.
    """
    if pair._prolongation is not None:
        return pair._prolongation
    nc = pair.coarse.n
    r = pair.r
    fine = pair.fine

    ij = fine.interior_nodes
    i = ij % (fine.n + 1)
    j = ij // (fine.n + 1)
    ci = (i // r).clip(max=nc - 1)
    cj = (j // r).clip(max=nc - 1)
    xi = (i - ci * r) / r
    eta = (j - cj * r) / r

    lower = eta <= xi
    # barycentric weights on the containing coarse triangle, per corner of the cell
    w00 = np.where(lower, 1.0 - xi, 1.0 - eta)
    w10 = np.where(lower, xi - eta, 0.0)
    w11 = np.where(lower, eta, xi)
    w01 = np.where(lower, 0.0, eta - xi)

    ncv = nc + 1
    c00 = cj * ncv + ci
    c10 = c00 + 1
    c01 = c00 + ncv
    c11 = c01 + 1

    rows = np.tile(np.arange(ij.size), 4)
    cols = np.concatenate([c00, c10, c11, c01])
    vals = np.concatenate([w00, w10, w11, w01])

    keep = (vals != 0.0) & (pair.coarse.dof_index[cols] >= 0)
    rows = rows[keep]
    cols = pair.coarse.dof_index[cols[keep]]
    vals = vals[keep]

    P = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(fine.n_dofs, pair.coarse.n_dofs)
    )
    P.sum_duplicates()
    pair._prolongation = P
    return P
