"""Reduced-basis compression of the transient correction sequences."""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import lod
from .evolution import (_check_transients, _gfem_steps, _multiscale, _Recurrence,
                        transient_horizon)

# Gram-Schmidt stops at a remainder of RB_TOL times its snapshot's energy norm
RB_TOL = 1e-10


class EmptyBasisError(ValueError):
    """Raised when Gram-Schmidt keeps no snapshot."""


@dataclass
class ReducedBasis:
    Z: np.ndarray          # (patch dofs, m), orthonormal in the weighted product
    a_hat: np.ndarray      # Z^T (K_A + tau K_B) Z, identity up to roundoff
    k_hat: np.ndarray      # Z^T K_A Z
    m_selected: int

    def prefix(self, m):
        """The basis that build_rb returns for the first m of the snapshots.

        Gram-Schmidt is sequential and stops at its first rejection, so that
        basis is exactly the leading min(m, m_selected) columns of this one.
        """
        m = min(m, self.m_selected)
        return ReducedBasis(self.Z[:, :m], self.a_hat[:m, :m], self.k_hat[:m, :m], m)


def build_rb(snapshots, patch):
    """Gram-Schmidt in the energy inner product with tolerance-gated truncation.

    A snapshot is rejected once its orthogonalized remainder falls below
    RB_TOL times its own energy norm; collection stops at the first
    rejection. Near-dependent snapshots leave rounding noise outside the
    fine-scale space, so accepted directions are projected back onto the
    interpolation kernel before they join the basis; collection also stops
    where that projection leaves no energy (h = H, whose kernel is empty).
    EmptyBasisError if no snapshot is kept. patch (an lod.Patch on the
    snapshots' dofs) supplies the restricted forms and constraints.
    """
    snapshots = np.atleast_2d(np.asarray(snapshots, dtype=float))
    a_tilde = patch.k_tilde

    def dot(u, v):
        return float(u @ (a_tilde @ v))

    basis = []
    for s in snapshots:
        norm_s = np.sqrt(max(dot(s, s), 0.0))
        v = s.copy()
        for _ in range(2):  # modified Gram-Schmidt plus one reorthogonalization
            for z in basis:
                v -= dot(z, v) * z
        norm_v = np.sqrt(max(dot(v, v), 0.0))
        if norm_v <= RB_TOL * norm_s:
            break
        v = patch.kernel_project(v)
        for z in basis:
            v -= dot(z, v) * z
        norm_v = np.sqrt(max(dot(v, v), 0.0))
        if norm_v == 0.0:
            break
        basis.append(v / norm_v)
    if not basis:
        raise EmptyBasisError("empty basis: no snapshot carries energy in the kernel")

    Z = np.column_stack(basis)
    a_hat = Z.T @ (a_tilde @ Z)
    k_hat = Z.T @ (patch.k_a @ Z)
    return ReducedBasis(Z, a_hat, k_hat, len(basis))


def snapshot_singular_values(snapshots, patch):
    """Singular values of the snapshot family in the energy inner product of
    patch (an lod.Patch on the snapshots' dofs).

    Uses a Cholesky factor of the patch energy matrix instead of the Gram
    matrix: squaring through the Gram eigenproblem floors the small values
    near sqrt(eps) and would hide the machine-precision tail.
    """
    snapshots = np.atleast_2d(np.asarray(snapshots, dtype=float))
    if snapshots.shape[0] == 0:
        raise ValueError("need at least one snapshot")
    chol = scipy.linalg.cholesky(patch.k_tilde.toarray(), lower=False)
    return scipy.linalg.svdvals(chol @ snapshots.T)


@dataclass
class NodeReduction:
    """One coarse node's power iterates and the reduced basis built from their
    leading n_snapshots, both on the node's one patch (node_reductions)."""
    dofs: np.ndarray
    xi: np.ndarray         # (horizon, patch dofs): xi^1 .. xi^horizon
    correctors: lod.CorrectorSet    # the set they were built from
    solves: int
    n_snapshots: int       # 0 where no basis was built
    a_tilde: object        # patch block of K_A + tau K_B, for the projection
    basis: ReducedBasis    # None if unbuilt or if build_rb kept no snapshot
    horizon = property(lambda self: self.xi.shape[0])   # the members served


def node_reductions(correctors, horizon, m_values):
    """Every coarse node's record, keyed by its dof, in one pass per node on
    the Patch of lod.transient_patch: the power iterates xi^1 .. xi^horizon
    and, if horizon > min(m_values), one basis at RB_TOL from the first
    min(max(m_values), horizon), whose prefix rb_gfem_solve takes for each
    snapshot count. The patch goes before the next node's."""
    lod._check_horizon(horizon)
    m_values = tuple(m_values)
    if not m_values or min(m_values) < 1:
        raise ValueError("snapshot counts must be >= 1")
    n = min(max(m_values), horizon) if min(m_values) < horizon else 0
    out = {}
    for d in range(correctors.Q.shape[1]):
        patch, first = lod.transient_patch(correctors, d)
        xi, solves = lod._power_iterates(patch, first, horizon)
        a_tilde = basis = None
        if n:
            a_tilde = patch.k_tilde
            try:
                basis = build_rb(xi[:n], patch)
            except EmptyBasisError:
                pass
        out[d] = NodeReduction(patch.dofs, xi, correctors, solves, n, a_tilde, basis)
    return out


def _band(x, node, m):
    """The band (see evolution._Recurrence) of node x's first m members and
    their continuation xi^{m+1+j} = Z G^j v in its reduced basis, where
    G = a_hat^-1 k_hat and v = G Z^T a_tilde xi^m.

    The m members are rows kept exact as a shift register. For the tail,
    a_hat = L L^T and L^T v = r P e_1 (a Householder QR); W = L^-T P is
    a_hat-orthonormal, and W^T k_hat W = Q_h H Q_h^T with Q_h e_1 = e_1. So
    xi^{m+1+j} = r Z W Q_h H^j e_1: row m feeds the tail rows (Z W Q_h)^T
    with r, and the tridiagonal of H couples them (the rest is round-off). A
    node whose basis kept no snapshot has one zero row.
    """
    if node.n_snapshots < m:
        raise ValueError("no reduced basis of %d snapshots for node %d" % (m, x))
    if node.basis is None:
        return node.dofs, np.zeros((1, node.dofs.size)), *np.zeros((3, 1)), 1.0
    stored = node.xi[:m]
    basis = node.basis.prefix(m)
    v = np.linalg.solve(basis.a_hat, basis.k_hat) @ (basis.Z.T @ (node.a_tilde @ stored[-1]))
    if not v.any():
        return node.dofs, stored, np.zeros(m), np.ones(m), np.zeros(m), 1.0
    L = scipy.linalg.cholesky(basis.a_hat, lower=True, check_finite=False)
    P, r = np.linalg.qr((L.T @ v)[:, None], mode="complete")
    W = scipy.linalg.solve_triangular(L.T, P, lower=False, check_finite=False)
    H, Q_h = scipy.linalg.hessenberg(W.T @ basis.k_hat @ W, calc_q=True, check_finite=False)
    return (node.dofs, np.concatenate([stored, (W @ Q_h).T @ basis.Z.T]),
            np.concatenate([np.zeros(m), np.diag(H)]),
            np.concatenate([np.ones(m - 1), r[0], np.diag(H, -1), [0.0]]),
            np.concatenate([np.zeros(m), np.diag(H, 1), [0.0]]), 1.0)


def rb_gfem_solve(correctors, nodes, f, n_steps, alpha0, alpha1, m_max):
    """Localized GFEM on the records of node_reductions, nodes (checked as
    evolution._check_transients checks sequences), each node one band of
    evolution._Recurrence: beyond the first m_max members, from its reduced
    basis; from m_max = h = transient_horizon(n_steps) on, xi^1 .. xi^h
    unreduced, as the shift register (dofs, xi[:h], 0, 1, 0, 1)."""
    if not isinstance(m_max, numbers.Integral) or isinstance(m_max, bool) or m_max < 1:
        raise ValueError("m_max must be an integer >= 1, got %r" % (m_max,))
    if not all(isinstance(node, NodeReduction) for node in nodes.values()):
        raise ValueError("rb_gfem_solve reads the NodeReduction records of node_reductions")
    grid = _check_transients(correctors, nodes, n_steps)
    h = transient_horizon(n_steps)
    bands = [(node.dofs, node.xi[:h], np.zeros(h), np.ones(h), np.zeros(h), 1.0)
             if m_max >= h else _band(x, node, m_max)
             for x, node in sorted(nodes.items())]
    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1),
                       _Recurrence(correctors, bands, grid))
