"""P1 assembly of mass, stiffness and load, coefficient fields, discrete norms."""

import numpy as np
import scipy.sparse as sparse

from . import linalg
from .interpolation import build_interpolator

# consistent P1 mass matrix is area/12 * MASS_PATTERN
MASS_PATTERN = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


class CoefficientField:
    """One strictly positive scalar per fine element."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_elements,):
            raise ValueError("coefficient field must carry one value per element")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("coefficient values must be finite and strictly positive")
        self.mesh = mesh
        self.values = values


def _symmetric_csr(rows, cols, vals, ndof):
    # assemble the upper triangle, then mirror: bitwise symmetric by construction
    upper = rows <= cols
    U = sparse.csr_matrix((vals[upper], (rows[upper], cols[upper])), shape=(ndof, ndof))
    U.sum_duplicates()
    strict = sparse.triu(U, k=1)
    A = (U + strict.T).tocsr()
    A.sort_indices()
    return A


def _coefficient_values(mesh, field):
    if field is None:
        return np.ones(mesh.n_elements)
    if isinstance(field, CoefficientField):
        if field.mesh is not mesh and field.mesh.n != mesh.n:
            raise ValueError("coefficient field lives on a different mesh")
        return field.values
    return CoefficientField(mesh, field).values


def assemble_stiffness(mesh, field=None, full=False):
    """Stiffness matrix for the given per-element coefficient (unit if None).

    Exact for P1 since the gradients are element-wise constant. Returns the
    matrix on interior dofs unless full=True.
    """
    values = _coefficient_values(mesh, field)
    g = mesh.gradients()
    areas = mesh.areas()
    local = np.einsum("tid,tjd->tij", g, g) * (areas * values)[:, None, None]

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = _symmetric_csr(rows, cols, local.ravel(), mesh.n_vertices)
    if full:
        return K
    free = mesh.interior_nodes
    return K[free][:, free].tocsr()


def assemble_mass(mesh, full=False):
    """Consistent P1 mass matrix."""
    areas = mesh.areas()
    local = (areas[:, None, None] / 12.0) * MASS_PATTERN
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    M = _symmetric_csr(rows, cols, local.ravel(), mesh.n_vertices)
    if full:
        return M
    free = mesh.interior_nodes
    return M[free][:, free].tocsr()


def assemble_load(mesh, f, t=0.0, full=False):
    """Load vector by the vertex quadrature rule (exact for constant f)."""
    if callable(f):
        fv = np.asarray(f(mesh.vertices[:, 0], mesh.vertices[:, 1], t), dtype=float)
        fv = np.broadcast_to(fv, (mesh.n_vertices,))
    else:
        fv = np.full(mesh.n_vertices, float(f))
    if not np.all(np.isfinite(fv)):
        raise ValueError("source function produced non-finite values")
    tri = mesh.triangles
    w = (mesh.areas()[:, None] / 3.0) * fv[tri]
    load = np.bincount(tri.ravel(), weights=w.ravel(), minlength=mesh.n_vertices)
    if full:
        return load
    return load[mesh.interior_nodes]


def element_rhs_block(pair, tilde_values, t_coarse, V, columns):
    """The functionals z -> integral over coarse element T of
    (A + tau B) grad v . grad z, for v the given columns of V (interior fine
    dofs x any, dense or sparse), assembled on the fine elements of T only.

    Reads only the rows of V at the interior fine dofs of T's closure, and
    returns those dofs (ascending) with the (dofs, columns) block there. The
    entries of a CSR V are added into zeros, as its toarray adds them.
    """
    fine = pair.fine
    elems = pair.fibers[t_coarse]
    tri = fine.triangles[elems]
    verts, local = np.unique(tri, return_inverse=True)
    local = local.ravel()
    dofs = fine.dof_index[verts]
    inside = dofs >= 0
    values = np.zeros((verts.size, len(columns)))
    if sparse.issparse(V):
        where = np.full(V.shape[1], -1, dtype=np.int64)
        where[columns] = np.arange(len(columns))
        pos, ends = linalg._row_positions(V, dofs[inside])
        cols = where[V.indices[pos]]
        keep = cols >= 0
        rows = np.repeat(np.flatnonzero(inside), np.diff(ends, prepend=0))
        values[rows[keep], cols[keep]] += V.data[pos[keep]]
    else:
        values[inside] = V[dofs[inside]][:, columns]
    g = fine.gradients()[elems]  # (m, 3, 2)
    weight = (tilde_values[elems] * fine.areas()[elems])[:, None]

    out = np.empty_like(values)
    for j in range(len(columns)):
        grad_v = np.einsum("mi,mid->md", values[local, j].reshape(tri.shape), g)
        w = weight * np.einsum("md,mid->mi", grad_v, g)
        out[:, j] = np.bincount(local, weights=w.ravel(), minlength=verts.size)
    return dofs[inside], out[inside]


class DiscreteForms:
    """Assembled fine-grid forms and interpolator for one coefficient pair and
    time step; tau is the one step every corrector and solver reads."""

    def __init__(self, pair, field_a, field_b, tau):
        if not 0.0 < tau < np.inf:
            raise ValueError("time step must be positive and finite, got %r" % (tau,))
        fine = pair.fine
        self.pair = pair
        self.tau = tau
        self.a_values = _coefficient_values(fine, field_a)
        self.b_values = _coefficient_values(fine, field_b)
        self.tilde_values = self.a_values + tau * self.b_values

        self.M = assemble_mass(fine)
        self.K_A = assemble_stiffness(fine, self.a_values)
        self.K_B = assemble_stiffness(fine, self.b_values)
        self.K_1 = assemble_stiffness(fine)
        self.K_tilde = (self.K_A + tau * self.K_B).tocsr()
        self._h1_matrix = (self.K_1 + self.M).tocsr()
        self.interp = build_interpolator(pair)
        self._saddles = {}

    @property
    def fine(self):
        return self.pair.fine

    def saddle_matrix(self, name, keep=True):
        """The CSC of [[K, I^T], [I, 0]], for K the form `name` ("K_tilde",
        "K_A" or "K_B") and I the interpolator: the saddle system over the
        interpolation kernel, built on first use and kept for the patches,
        which gather their systems from it. With keep=False (the one global
        factorization of evolution._GlobalSaddle) a matrix not yet kept is
        built and not kept."""
        if name not in ("K_tilde", "K_A", "K_B"):
            raise ValueError("no saddle matrix of %r" % (name,))
        if name in self._saddles:
            return self._saddles[name]
        K, interp = getattr(self, name), self.interp
        matrix = sparse.bmat([[K, interp.T], [interp, None]], format="csc")
        if keep:
            self._saddles[name] = matrix
        return matrix


def h1_norms(forms, states):
    """The H1 norm of each row of states, from one sparse product."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    products = np.ascontiguousarray((forms._h1_matrix @ states.T).T)
    return [float(np.sqrt(max(v @ hv, 0.0))) for v, hv in zip(states, products)]

