"""Reduced-basis compression of the transient correction sequences."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .evolution import TimeGrid, localized_gfem_solve, transient_horizon
from .lod import Patch, TransientCorrectors

# Gram-Schmidt stops at a remainder of RB_TOL times its snapshot's energy norm
RB_TOL = 1e-10


class EmptyBasisError(ValueError):
    """Raised when the first snapshot carries no energy."""


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


def build_rb(snapshots, patch, tol_rel=RB_TOL):
    """Gram-Schmidt in the energy inner product with tolerance-gated truncation.

    A snapshot is rejected once its orthogonalized remainder falls below
    tol_rel times its own energy norm; collection stops at the first
    rejection. Near-dependent snapshots leave rounding noise outside the
    fine-scale space, so accepted directions are projected back onto the
    interpolation kernel before they join the basis. patch (an lod.Patch on
    the snapshots' dofs) supplies the restricted forms and constraints.
    """
    if not 0.0 <= tol_rel < 1.0:
        raise ValueError("tol_rel must lie in [0, 1), got %r" % (tol_rel,))
    snapshots = np.atleast_2d(np.asarray(snapshots, dtype=float))
    if snapshots.shape[0] == 0:
        raise EmptyBasisError("no snapshots supplied")
    a_tilde = patch.k_tilde

    def dot(u, v):
        return float(u @ (a_tilde @ v))

    first = np.sqrt(max(dot(snapshots[0], snapshots[0]), 0.0))
    if first == 0.0:
        raise EmptyBasisError("empty basis: first snapshot has zero energy")

    basis = []
    consumed = 0
    for s in snapshots:
        norm_s = np.sqrt(max(dot(s, s), 0.0))
        v = s.copy()
        for _ in range(2):  # modified Gram-Schmidt plus one reorthogonalization
            for z in basis:
                v -= dot(z, v) * z
        norm_v = np.sqrt(max(dot(v, v), 0.0))
        if norm_v <= tol_rel * norm_s or norm_v == 0.0:
            break
        v = patch.kernel_project(v)
        for z in basis:
            v -= dot(z, v) * z
        v /= np.sqrt(max(dot(v, v), 0.0))
        basis.append(v)
        consumed += 1

    Z = np.column_stack(basis)
    a_hat = Z.T @ (a_tilde @ Z)
    k_hat = Z.T @ (patch.k_a @ Z)
    return ReducedBasis(Z, a_hat, k_hat, consumed)


def rb_step(basis, c_prev):
    """Advance the projected recursion by one time step."""
    c_prev = np.asarray(c_prev, dtype=float)
    if c_prev.shape != (basis.Z.shape[1],):
        raise ValueError("coefficient vector does not match the basis size")
    return np.linalg.solve(basis.a_hat, basis.k_hat @ c_prev)


def lift(basis, c):
    return basis.Z @ np.asarray(c, dtype=float)


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


def _require_members(transients):
    """Reject certified sequences: their stored rows are a Lanczos basis, not
    snapshots."""
    if any(tc.certified for tc in transients.values()):
        raise ValueError("reduced bases are built from stored members (the power "
                         "iterates); got certified sequences in Lanczos form")


@dataclass
class NodeReduction:
    """One node's reduced basis, built once for every M up to n_snapshots."""
    n_snapshots: int       # leading snapshots the basis was built from
    a_tilde: object        # patch block of K_A + tau K_B, for the projection
    basis: ReducedBasis    # None when the first snapshot carries no energy


def node_reductions(transients, m_values):
    """Per-node reduced bases for a sweep over the snapshot counts m_values.

    Each node whose sequence is longer than the smallest count gets one basis,
    at the tolerance RB_TOL, from its first min(max(m_values), length)
    snapshots; compress_transients takes the prefix of it for each count.
    """
    _require_members(transients)
    m_values = tuple(m_values)
    if not m_values or min(m_values) < 1:
        raise ValueError("snapshot counts must be >= 1")
    out = {}
    for d, tc in transients.items():
        length = tc.xi.shape[0]
        if min(m_values) >= length:
            continue
        n = min(max(m_values), length)
        patch = Patch(tc.correctors.forms, tc.dofs)
        try:
            basis = build_rb(tc.xi[:n], patch)
        except EmptyBasisError:
            basis = None
        out[d] = NodeReduction(n, patch.k_tilde, basis)
    return out


def _continuation(node, kept, steps):
    """The `steps` members after `kept`, stepped in basis coordinates as
    c <- a_hat^-1 k_hat c and lifted with one product at the end."""
    basis = node.basis.prefix(kept.shape[0])
    G = np.linalg.solve(basis.a_hat, basis.k_hat)
    c = basis.Z.T @ (node.a_tilde @ kept[-1])
    coeffs = np.empty((basis.m_selected, steps))
    for j in range(steps):
        c = G @ c
        coeffs[:, j] = c
    return (basis.Z @ coeffs).T


def compress_transients(transients, reductions, m_max, horizon):
    """Replace each correction sequence by its first m_max members plus
    reduced-basis continuations up to the horizon; returns the sequences per
    node.

    reductions (from node_reductions) holds one basis per node, shared by
    every m_max up to the snapshot count it was built from. A node whose
    first snapshot carries no energy keeps its stored sequence, which is zero.
    """
    _require_members(transients)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    compressed = {}
    for d, tc in transients.items():
        stored = tc.xi
        m_avail = min(m_max, stored.shape[0])
        rows = stored[:m_avail]
        if m_avail < stored.shape[0]:
            node = reductions.get(d)
            if node is None or node.n_snapshots < m_avail:
                raise ValueError("no reduced basis of %d snapshots for node %d"
                                 % (m_avail, d))
            if node.basis is None:
                rows = stored
            elif horizon > m_avail:
                rows = np.vstack([rows, _continuation(node, rows, horizon - m_avail)])
        compressed[d] = TransientCorrectors(tc.dofs, rows, tc.correctors)
    return compressed


def rb_gfem_solve(correctors, transients, reductions, f, n_steps, alpha0, alpha1, m_max):
    """Localized GFEM where corrections beyond the first m_max steps come from
    the per-node reduced bases in reductions (from node_reductions)."""
    _require_members(transients)
    TimeGrid(correctors.forms.tau, n_steps)  # rejects a bad n_steps before the compression
    compressed = compress_transients(transients, reductions, m_max,
                                     transient_horizon(n_steps))
    return localized_gfem_solve(correctors, compressed, f, n_steps, alpha0, alpha1)
