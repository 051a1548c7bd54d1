"""Reduced-basis compression of the transient correction sequences."""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .evolution import (_check_transients, _gfem_steps, _multiscale, _Recurrence,
                        transient_horizon)
from .lod import Patch, Snapshots

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


def build_rb(snapshots, patch):
    """Gram-Schmidt in the energy inner product with tolerance-gated truncation.

    A snapshot is rejected once its orthogonalized remainder falls below
    RB_TOL times its own energy norm; collection stops at the first
    rejection. Near-dependent snapshots leave rounding noise outside the
    fine-scale space, so accepted directions are projected back onto the
    interpolation kernel before they join the basis. patch (an lod.Patch on
    the snapshots' dofs) supplies the restricted forms and constraints.
    """
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
        if norm_v <= RB_TOL * norm_s or norm_v == 0.0:
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


def _require_snapshots(snapshots):
    """Reject sequences other than lod.Snapshots: the rows of a certified
    sequence are a Lanczos basis, not snapshots."""
    if not all(isinstance(tc, Snapshots) for tc in snapshots.values()):
        raise ValueError("reduced bases are built from lod.Snapshots, the power iterates")


@dataclass
class NodeReduction:
    """One node's reduced basis, built once for every M up to n_snapshots."""
    n_snapshots: int       # leading snapshots the basis was built from
    a_tilde: object        # patch block of K_A + tau K_B, for the projection
    basis: ReducedBasis    # None when the first snapshot carries no energy


def node_reductions(snapshots, m_values):
    """Per-node reduced bases for a sweep over the snapshot counts m_values.

    Each node whose sequence is longer than the smallest count gets one basis,
    at the tolerance RB_TOL, from its first min(max(m_values), length)
    snapshots; rb_gfem_solve takes the prefix of it for each count.
    """
    _require_snapshots(snapshots)
    m_values = tuple(m_values)
    if not m_values or min(m_values) < 1:
        raise ValueError("snapshot counts must be >= 1")
    out = {}
    for d, tc in snapshots.items():
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


def _band(x, tc, node, m):
    """The node band (see evolution._Recurrence) of tc's first m members and
    their continuation xi^{m+1+j} = Z G^j v in node's reduced basis, where
    G = a_hat^-1 k_hat and v = G Z^T a_tilde xi^m.

    The m members are rows kept exact as a shift register. For the tail,
    a_hat = L L^T and L^T v = r P e_1 (a Householder QR); W = L^-T P is
    a_hat-orthonormal, and W^T k_hat W = Q_h H Q_h^T with Q_h e_1 = e_1. So
    xi^{m+1+j} = r Z W Q_h H^j e_1: row m feeds the tail rows (Z W Q_h)^T
    with r, and the tridiagonal of H couples them (the rest is round-off). A
    node whose first snapshot carries no energy has one zero row.
    """
    if node is None or node.n_snapshots < m:
        raise ValueError("no reduced basis of %d snapshots for node %d" % (m, x))
    if node.basis is None:
        return tc.dofs, np.zeros((1, tc.dofs.size)), *np.zeros((3, 1)), 1.0
    stored = tc.xi[:m]
    basis = node.basis.prefix(m)
    v = np.linalg.solve(basis.a_hat, basis.k_hat) @ (basis.Z.T @ (node.a_tilde @ stored[-1]))
    if not v.any():
        return tc.dofs, stored, np.zeros(m), np.ones(m), np.zeros(m), 1.0
    L = scipy.linalg.cholesky(basis.a_hat, lower=True, check_finite=False)
    P, r = np.linalg.qr((L.T @ v)[:, None], mode="complete")
    W = scipy.linalg.solve_triangular(L.T, P, lower=False, check_finite=False)
    H, Q_h = scipy.linalg.hessenberg(W.T @ basis.k_hat @ W, calc_q=True, check_finite=False)
    return (tc.dofs, np.concatenate([stored, (W @ Q_h).T @ basis.Z.T]),
            np.concatenate([np.zeros(m), np.diag(H)]),
            np.concatenate([np.ones(m - 1), r[0], np.diag(H, -1), [0.0]]),
            np.concatenate([np.zeros(m), np.diag(H, 1), [0.0]]), 1.0)


def rb_gfem_solve(correctors, snapshots, reductions, f, n_steps, alpha0, alpha1, m_max):
    """Localized GFEM on the snapshots (checked as evolution._check_transients
    checks sequences), each node one band of evolution._Recurrence: beyond
    the first m_max members, from its reduced basis in reductions (from
    node_reductions); from m_max = h = transient_horizon(n_steps) on, xi^1 ..
    xi^h unreduced, as the shift register (dofs, xi[:h], 0, 1, 0, 1)."""
    if not isinstance(m_max, numbers.Integral) or isinstance(m_max, bool) or m_max < 1:
        raise ValueError("m_max must be an integer >= 1, got %r" % (m_max,))
    _require_snapshots(snapshots)
    grid = _check_transients(correctors, snapshots, n_steps)
    h = transient_horizon(n_steps)
    bands = [(tc.dofs, tc.xi[:h], np.zeros(h), np.ones(h), np.zeros(h), 1.0)
             if m_max >= h else _band(x, tc, reductions.get(x), m_max)
             for x, tc in sorted(snapshots.items())]
    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1),
                       _Recurrence(correctors, bands, grid))
