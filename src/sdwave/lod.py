"""Patch-localized correctors, multiscale basis, transient corrections, decay diagnostics."""

import hashlib
import math
import numbers
import os
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from . import linalg
from .assembly import MASS_PATTERN, element_rhs_block
from .mesh import element_patch, node_patch, prolongation, saturating_k

FORM_CHOICES = ("a_plus_tau_b", "a_only", "b_only")

# a certified sequence lies within CERTIFY_TOL times the energy norm of its
# first member of the power iterates, in the energy norm, member by member
CERTIFY_TOL = 1e-11

# "lanczos": certified sequences kept as their Lanczos basis; "power": one
# saddle solve per member
GENERATORS = ("lanczos", "power")

# the version of how the cached arrays are computed and stored
CACHE_FORMAT = 6


@dataclass(frozen=True)
class CorrectorConfig:
    """Patch size and corrector form; the time step is the forms' own, forms.tau."""
    k: int
    form_choice: str = "a_plus_tau_b"

    def __post_init__(self):
        if not isinstance(self.k, numbers.Integral) or isinstance(self.k, bool):
            raise ValueError("patch size k must be an integer, got %r" % (self.k,))
        # a numpy integer is stored as the int, whose repr the cache key hashes
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise ValueError("patch size k must be >= 1")
        if self.form_choice not in FORM_CHOICES:
            raise ValueError("unknown form choice %r" % (self.form_choice,))


def form_values(forms, choice):
    if choice == "a_plus_tau_b":
        return forms.tilde_values
    if choice == "a_only":
        return forms.a_values
    return forms.b_values


def _fine_mask(pair, coarse_elements):
    """Mask over the fine elements whose parent is one of coarse_elements."""
    in_patch = np.zeros(pair.coarse.n_elements, dtype=bool)
    in_patch[coarse_elements] = True
    return in_patch[pair.parent_map]


def patch_fine_dofs(pair, coarse_elements):
    """Interior fine dofs of functions supported on the given coarse elements.

    Only the vertices of the patch's fine elements (the fibers of the coarse
    ones) are candidates, counted over the range of their indices; one of
    them is interior when the patch holds every element around it.
    """
    fine = pair.fine
    if len(coarse_elements) == 0:
        return np.empty(0, dtype=fine.dof_index.dtype)
    elements = np.concatenate([pair.fibers[t] for t in coarse_elements])
    verts = fine.triangles[elements].ravel()
    lo, hi = verts.min(), verts.max() + 1
    inside = np.bincount(verts - lo, minlength=hi - lo)
    dofs = fine.dof_index[lo:hi]
    return dofs[(inside == np.diff(fine._vert_elem.indptr[lo:hi + 1])) & (dofs >= 0)]


# the form whose saddle system each form choice solves
_FORM_BLOCKS = dict(zip(FORM_CHOICES, ("K_tilde", "K_A", "K_B")))


class Patch:
    """The forms restricted to the fine dofs of one coarse patch, and the
    saddle system of the chosen form there with its factorization, each
    built on first use. The system is gathered from the forms' global saddle
    matrix (DiscreteForms.saddle_matrix) at the patch dofs and the rows of
    their kernel constraints; C is a view of its trailing columns."""

    def __init__(self, forms, dofs, form_choice="a_plus_tau_b"):
        if form_choice not in FORM_CHOICES:
            raise ValueError("unknown form choice %r" % (form_choice,))
        self.forms = forms
        # the blocks are gathered, and element blocks placed, by ascending dofs
        self.dofs = linalg._check_indices(dofs, forms.fine.n_dofs, "patch dofs")
        self.form_choice = form_choice

    def _restrict(self, matrix):
        return linalg._submatrix(matrix, self.dofs, self.dofs)

    @cached_property
    def k_tilde(self):
        return self._restrict(self.forms.K_tilde)

    @cached_property
    def k_a(self):
        return self._restrict(self.forms.K_A)

    @cached_property
    def kkt(self):
        """The CSC of [[block, C^T], [C, 0]] for the chosen form's block: the
        global saddle matrix at the patch dofs, then at n + the rows of the
        interpolator with a nonzero entry in a patch column, with n the fine
        dofs."""
        full = self.forms.saddle_matrix(_FORM_BLOCKS[self.form_choice])
        n = self.forms.fine.n_dofs
        # the patch columns' entries below row n are the interpolator's
        pos, _ = linalg._row_positions(full, self.dofs)
        rows = full.indices[pos]
        index = np.zeros(full.shape[0], dtype=bool)
        index[self.dofs] = True
        index[rows[(rows >= n) & (full.data[pos] != 0.0)]] = True
        index = np.flatnonzero(index)
        return linalg._submatrix(full, index, index)

    @cached_property
    def C(self):
        return linalg._saddle_constraints(self.kkt, self.dofs.size)

    @cached_property
    def saddle(self):
        return linalg.factor_saddle(self.kkt, self.dofs.size)

    def solve(self, rhs_patch):
        """The fine-scale part w of the saddle solve with patch right-hand side."""
        w, _ = self.saddle.solve(rhs_patch)
        return w

    @cached_property
    def _kernel_factors(self):
        # C^T, made once, and the Cholesky factor of C C^T. C times the dense
        # C^T adds each entry's terms in the order of the sparse product
        # C C^T, at about a quarter of its cost
        C = self.C
        return C.T, scipy.linalg.cho_factor(C @ C.toarray().T)

    def kernel_project(self, v):
        """The Euclidean projection of v onto the kernel of C.

        LAPACK's potrs is called directly: it is the solve of
        scipy.linalg.cho_solve, without its checks of every call.
        """
        c_t, (factor, lower) = self._kernel_factors
        y = self.C @ v
        if y.size:
            y, info = scipy.linalg.lapack.dpotrs(factor, y, lower=lower)
            if info != 0:
                raise ValueError("illegal argument %d of potrs" % -info)
        return v - c_t @ y


def compute_element_correctors(patch, t_coarse):
    """Per-vertex corrector contributions of one coarse element on its patch.

    Returns a dict mapping the coarse dof of each interior vertex of T to its
    contribution on patch.dofs. The vertices' right-hand sides are assembled
    on T and solved as one block.
    """
    pair = patch.forms.pair
    coarse = pair.coarse
    dofs = coarse.dof_index[coarse.triangles[t_coarse]]
    dofs = dofs[dofs >= 0]
    if dofs.size == 0:
        return {}
    fine_dofs, rhs = element_rhs_block(pair, form_values(patch.forms, patch.form_choice),
                                       t_coarse, prolongation(pair), dofs)
    # T's closure lies in every patch N^k(T), so its fine dofs are patch dofs
    block = np.zeros((patch.dofs.size, dofs.size))
    block[np.searchsorted(patch.dofs, fine_dofs)] = rhs
    w = patch.solve(block)
    return {dof: w[:, j] for j, dof in enumerate(dofs)}


@dataclass
class CorrectorSet:
    config: CorrectorConfig
    forms: object               # the DiscreteForms the set was built on
    Q: sparse.csr_matrix        # modified basis, columns lambda_x - phi_x
    M_ms: np.ndarray
    A_ms: np.ndarray
    B_ms: np.ndarray

    @property
    def phi(self):
        """The correctors, fine dofs x coarse dofs: prolongation minus Q."""
        return (prolongation(self.forms.pair) - self.Q).tocsr()


def build_corrector_set(forms, config):
    """Assemble all element correctors and the modified coarse basis.

    The nonzeros of phi go into triplet arrays allocated once, at their bound
    of |patch dofs| per interior vertex of each element, in element order:
    that order fixes the round-off of the repeated entries scipy sums as it
    builds phi.
    """
    pair = forms.pair
    coarse = pair.coarse

    # the fine dofs of each distinct coarse patch are found once and shared
    # by its elements
    dofs_of = {}
    element_dofs = []
    for t in range(coarse.n_elements):
        elements = element_patch(coarse, t, config.k)
        key = elements.tobytes()
        if key not in dofs_of:
            dofs_of[key] = patch_fine_dofs(pair, elements)
        element_dofs.append(dofs_of[key])

    shape = (pair.fine.n_dofs, coarse.n_dofs)
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    n_vertices = (coarse.dof_index[coarse.triangles] >= 0).sum(axis=1)
    size = int(sum(dofs.size * m for dofs, m in zip(element_dofs, n_vertices)))
    rows = np.empty(size, dtype=index)
    cols = np.empty(size, dtype=index)
    vals = np.empty(size)
    end = 0

    # elements with the same patch dofs share one Patch, so each is factored
    # once, and it is dropped after its last element; a patch without fine
    # dofs (h = H) carries no corrector
    last = {dofs.tobytes(): t for t, dofs in enumerate(element_dofs)}
    patches = {}
    for t, dofs in enumerate(element_dofs):
        if dofs.size == 0:
            continue
        key = dofs.tobytes()
        if key not in patches:
            patches[key] = Patch(forms, dofs, config.form_choice)
        patch = patches.pop(key) if last[key] == t else patches[key]
        for dof, w in compute_element_correctors(patch, t).items():
            nz = np.flatnonzero(w)
            start, end = end, end + nz.size
            rows[start:end] = patch.dofs[nz]
            cols[start:end] = dof
            vals[start:end] = w[nz]
    phi = sparse.csr_matrix((vals[:end], (rows[:end], cols[:end])), shape=shape)
    del rows, cols, vals
    phi.sum_duplicates()

    P = prolongation(pair)
    Q = (P - phi).tocsr()
    M_ms = (Q.T @ forms.M @ Q).toarray()
    A_ms = (Q.T @ forms.K_A @ Q).toarray()
    B_ms = (Q.T @ forms.K_B @ Q).toarray()
    return CorrectorSet(config, forms, Q, M_ms, A_ms, B_ms)


@dataclass
class TransientCorrectors:
    """One coarse node's correction sequence xi^1 .. xi^horizon on its patch.

    Power iterates are stored as their members: the rows of xi. A certified
    sequence (_certified_transients) is stored in its Lanczos form: the rows
    of xi are the K_tilde-orthonormal basis Z, alpha and beta[:-1] are the
    diagonal and off-diagonal of the tridiagonal T, beta[-1] is the remainder
    norm beta_M, and norm1 is the energy norm of xi^1. Its member j + 1 is
    norm1 Z^T T^j e_1, for j < horizon (members).
    """
    dofs: np.ndarray
    xi: np.ndarray              # (rows, patch dofs): the members, or Z
    correctors: CorrectorSet    # the set the sequence was built from
    # the saddle solves spent building the sequence, and its certified bound
    # (the largest energy error of a member, over the energy norm of the
    # first); the solves are 0 for a sequence read from the cache, and the
    # bound is 0 for power iterates
    solves: int = 0
    bound: float = 0.0
    alpha: np.ndarray = None    # the Lanczos form; None for stored members
    beta: np.ndarray = None
    norm1: float = 0.0
    horizon: int = None         # the members served; the rows of stored members

    def __post_init__(self):
        if self.horizon is None:
            self.horizon = self.xi.shape[0]
        elif not self.certified and self.horizon != self.xi.shape[0]:
            raise ValueError("stored members serve their %d rows, not a horizon of %r"
                             % (self.xi.shape[0], self.horizon))

    @property
    def certified(self):
        """Whether the sequence is in its Lanczos form."""
        return self.alpha is not None

    def members(self, count=None):
        """The members xi^1 .. xi^count, (count, patch dofs); count defaults
        to the horizon. A certified sequence lifts them with one product."""
        count = self.horizon if count is None else count
        if not 0 <= count <= self.horizon:
            raise ValueError("a sequence of horizon %d has no %r members"
                             % (self.horizon, count))
        if not self.certified:
            return self.xi[:count]
        powers = _tridiagonal_powers(self.alpha, self.beta[:-1], count)
        return (self.norm1 * powers).T @ self.xi


def _node_dofs(pair, x_dof, k):
    """The fine dofs of coarse node x_dof's patch of size k, on which its
    correction sequence lives."""
    return patch_fine_dofs(pair, node_patch(pair.coarse, pair.coarse.interior_nodes[x_dof], k))


def _k_a_q(correctors):
    """K_A Q in CSC, for transient_patch."""
    return (correctors.forms.K_A @ correctors.Q).tocsc()


def transient_patch(correctors, x_dof, KQ):
    """The Patch of coarse node x_dof and the first right-hand side
    (K_A q_x)[patch.dofs] of its fine-scale correction sequence.

    The right-hand side is read from column x_dof of KQ = _k_a_q(correctors),
    which callers make once for all nodes. Each entry is the sum of a
    whole-grid product K_A q_x, in the same order: the terms at the zeros of
    q_x, which that product adds too, change no sum.
    """
    forms, config = correctors.forms, correctors.config
    patch = Patch(forms, _node_dofs(forms.pair, x_dof, config.k), config.form_choice)
    span = slice(KQ.indptr[x_dof], KQ.indptr[x_dof + 1])
    column = np.zeros(KQ.shape[0])
    column[KQ.indices[span]] = KQ.data[span]
    return patch, column[patch.dofs]


def compute_transient_correctors(correctors, x_dof, horizon, KQ):
    """Fine-scale correction sequence of one coarse node on its patch, its
    `horizon` members xi^1 .. xi^horizon.

    The first step projects the modified hat function, later steps reuse the
    factorized left-hand side. The members are steps of linalg._CheckedSteps,
    the first through the checked solve, so they are those of one checked
    solve per step. KQ is as for transient_patch.
    """
    patch, first = transient_patch(correctors, x_dof, KQ)
    xi = np.empty((horizon, patch.dofs.size))
    steps, l = linalg._CheckedSteps(patch.saddle, checked=1), 0
    while l < horizon:
        xi[l] = steps.solve(l, first if l == 0 else patch.k_a @ xi[l - 1])
        l = steps.next(l, last=l + 1 == horizon)
    return TransientCorrectors(patch.dofs, xi, correctors, steps.solves)


# the most Lanczos steps between two evaluations of the certified bound
_BOUND_EVERY = 8
# a Lanczos remainder below this fraction of ||G z_M|| spans nothing new: the
# Krylov space is invariant
_INVARIANT_TOL = 1e-12


def _tridiagonal_powers(alpha, beta, count):
    """The columns T^i e_1, i < count, of the tridiagonal T with diagonal
    alpha and off-diagonal beta, by doubling: T^(s+c) e_1 = T^s (T^c e_1).
    Entries below the band of T^i stay exact zeros."""
    m = alpha.size
    T = np.zeros((m, m))
    T.flat[::m + 1] = alpha
    T.flat[1::m + 1] = beta
    T.flat[m::m + 1] = beta
    powers = np.zeros((m, count))
    powers[0, :1] = 1.0
    power, filled = T, 1          # power = T^filled
    while filled < count:
        take = min(filled, count - filled)
        powers[:, filled:filled + take] = power @ powers[:, :take]
        filled += take
        if filled < count:
            power = power @ power
    return powers


def _certified_bound(alpha, beta, horizon):
    """beta_M sum_{i < horizon - 1} |e_M^T T^i e_1|, for the M x M tridiagonal
    T with diagonal alpha and off-diagonal beta[:-1], and beta_M = beta[-1]."""
    powers = _tridiagonal_powers(alpha, beta[:-1], horizon - 1)
    return float(beta[-1] * np.abs(powers[-1]).sum())


def _shortest_certified(alpha, beta, horizon, bound):
    """(M', its bound) for the Lanczos basis of M = alpha.size rows and
    bound `bound`: scanned back from M, the shortest prefix whose bound is
    still at most CERTIFY_TOL. The prefix of M' rows is the basis after step
    M', with the remainder norm beta[M' - 1]."""
    M = alpha.size
    while M > 1:
        shorter = _certified_bound(alpha[:M - 1], beta[:M - 1], horizon)
        if shorter > CERTIFY_TOL:
            break
        M, bound = M - 1, shorter
    return M, bound


def _lanczos(patch, first, horizon):
    """The Lanczos basis, in the K_tilde product, of G = (K_tilde on the
    interpolation kernel)^-1 K_A from xi^1, the checked solve of first.

    Returns (norm1, Z, alpha, beta, bound, solves). The M rows of Z are
    K_tilde-orthonormal and lie in the kernel; z_1 = xi1 / norm1, where norm1
    is the energy norm of xi1. alpha and beta[:-1] are the diagonal and the
    off-diagonal of T = Z K_A Z^T, and beta_M = beta[-1] is the norm of the
    remainder of G z_M. So G Z^T = Z^T T + beta_M z_{M+1} e_M^T, and each
    member xi^{j+1} = G^j xi1 lies within norm1 * bound, in the energy norm,
    of norm1 Z^T T^j e_1 for j < horizon, where
    bound = beta_M sum_{i < horizon - 1} |e_M^T T^i e_1| (G is a contraction).

    Each step is one saddle solve of K_A z_M; its remainder is
    reorthogonalized against Z twice, projected onto the kernel and
    normalized. The steps end at the first M tried whose bound is at most
    CERTIFY_TOL; at M = horizon, where the bound vanishes; or once the remainder
    falls below _INVARIANT_TOL times ||G z_M||, where the Krylov space is
    invariant. The bound falls about geometrically in M, so the next M tried
    is where the last two tries extrapolate to CERTIFY_TOL, at most _BOUND_EVERY
    steps on (the first try is at M = _BOUND_EVERY). The basis returned is
    then the shortest prefix whose bound is still at most CERTIFY_TOL
    (_shortest_certified), so the cut adds no solve. The steps' solves are
    those of linalg._CheckedSteps, like the power iterates', so a step whose
    bare solve misses its check is replayed through the checked solve.
    """
    tol = CERTIFY_TOL
    saddle = patch.saddle
    X, K = patch.k_tilde, patch.k_a
    n = patch.dofs.size
    xi1 = saddle.solve(first)[0]
    x_xi1 = X @ xi1
    norm1 = np.sqrt(max(xi1 @ x_xi1, 0.0))
    if norm1 == 0.0:
        # a zero first member: the one-vector basis z_1 = 0, T = [0] gives
        # zero members
        return norm1, np.zeros((1, n)), np.zeros(1), np.zeros(1), 0.0, 1
    # z_{M+1} and K_tilde z_{M+1} are rows M of Z and XZ
    Z = np.empty((horizon + 1, n))
    XZ = np.empty_like(Z)
    Z[0], XZ[0] = xi1 / norm1, x_xi1 / norm1
    alpha, beta = np.empty(horizon), np.empty(horizon)
    steps = linalg._CheckedSteps(saddle)
    M = 0             # steps taken; step s solves for G z_s
    tried, tried_bound, next_try = 0, 1.0, _BOUND_EVERY
    while True:
        w = steps.solve(M + 1, K @ Z[M])
        M += 1
        h = XZ[:M] @ w
        w -= h @ Z[:M]
        again = XZ[:M] @ w
        w -= again @ Z[:M]
        h += again
        w = patch.kernel_project(w)
        x_w = X @ w
        b = math.sqrt(max(w @ x_w, 0.0))
        alpha[M - 1], beta[M - 1] = h[M - 1], b
        invariant = b * b <= _INVARIANT_TOL ** 2 * (h @ h + b * b)
        if not invariant:
            np.divide(w, b, out=Z[M])
            np.divide(x_w, b, out=XZ[M])
        stop = invariant or M == horizon
        if stop or M >= next_try:
            bound = _certified_bound(alpha[:M], beta[:M], horizon)
            stop = stop or bound <= tol
            if not stop:
                rate = math.log(bound / tried_bound) / (M - tried)
                ahead = math.log(tol / bound) / rate if rate < 0.0 else _BOUND_EVERY
                tried, tried_bound = M, bound
                next_try = M + min(max(math.ceil(ahead), 1), _BOUND_EVERY)
        resume = steps.next(M, last=stop)
        if stop and resume > M:
            break
        # M stays, or goes back to just before a missed step, taken again
        M = resume - 1
    M, bound = _shortest_certified(alpha[:M], beta[:M], horizon, bound)
    # copies, so that the horizon-long scratch arrays are freed
    return (norm1, Z[:M].copy(), alpha[:M].copy(), beta[:M].copy(), bound,
            1 + steps.solves)


def _certified_transients(correctors, x_dof, horizon, KQ):
    """The correction sequence of compute_transient_correctors in the Lanczos
    form of the node's basis (_lanczos): every member lies within CERTIFY_TOL
    of the power iterate, as the basis certifies.
    """
    if correctors.config.form_choice != "a_plus_tau_b":
        # only K_A + tau K_B makes G a contraction, which the bound needs
        raise ValueError("certified sequences need the a_plus_tau_b form, got %r"
                         % (correctors.config.form_choice,))
    patch, first = transient_patch(correctors, x_dof, KQ)
    norm1, Z, alpha, beta, bound, solves = _lanczos(patch, first, horizon)
    return TransientCorrectors(patch.dofs, Z, correctors, solves, bound,
                               alpha, beta, float(norm1), horizon)


def transients_for_all_nodes(correctors, horizon, generator="lanczos"):
    """Transient correctors for every interior coarse node, keyed by its dof,
    each of `horizon` members.

    The generator (one of GENERATORS) is "lanczos" for certified sequences in
    their Lanczos form (_certified_transients) or "power" for the stored
    power iterates (compute_transient_correctors).
    """
    if generator not in GENERATORS:
        raise ValueError("generator must be one of %s, got %r" % (GENERATORS, generator))
    if not isinstance(horizon, numbers.Integral) or isinstance(horizon, bool) or horizon < 1:
        raise ValueError("horizon must be an integer >= 1, got %r" % (horizon,))
    build = _certified_transients if generator == "lanczos" else compute_transient_correctors
    KQ = _k_a_q(correctors)
    return {d: build(correctors, d, horizon, KQ)
            for d in range(correctors.Q.shape[1])}


def _element_h1_energies(mesh, v_full):
    tri = mesh.triangles
    g = mesh.gradients()
    areas = mesh.areas()
    vloc = v_full[tri]                       # (nt, 3)
    grad = np.einsum("mi,mid->md", vloc, g)
    semi = areas * np.einsum("md,md->m", grad, grad)
    mass = (areas / 12.0) * np.einsum("mi,ij,mj->m", vloc, MASS_PATTERN, vloc)
    return semi + mass


def decay_profile(v, pair, x_dof):
    """H1 norm of v outside growing node patches, as (j, value) rows, up to
    the first j whose patch covers the mesh."""
    coarse = pair.coarse
    fine = pair.fine
    vertex = coarse.interior_nodes[x_dof]
    energies = _element_h1_energies(fine, fine.expand(np.asarray(v, dtype=float)))

    rows = []
    for j in range(1, saturating_k(coarse) + 1):
        patch = node_patch(coarse, vertex, j)
        outside = float(energies[~_fine_mask(pair, patch)].sum())
        rows.append((j, np.sqrt(max(outside, 0.0))))
        if patch.size == coarse.n_elements:
            break
    return np.array(rows)


# ----------------------------------------------------------------------------
# binary corrector cache

def cache_key(forms, config, horizon, generator="lanczos"):
    """File key for a corrector set (and its transients) built from these inputs.

    The digest covers everything the cached arrays depend on: CACHE_FORMAT,
    both coefficient arrays, the exact time step forms.tau, the patch size,
    the form, the mesh pair, the transient horizon, and the generator of the
    sequences ("power", or "lanczos" with CERTIFY_TOL).
    """
    if generator not in GENERATORS:
        raise ValueError("generator must be one of %s, got %r" % (GENERATORS, generator))
    if generator == "lanczos":
        generator += ":" + CERTIFY_TOL.hex()
    pair = forms.pair
    digest = hashlib.sha256()
    digest.update(forms.a_values.tobytes())
    digest.update(forms.b_values.tobytes())
    digest.update(repr((CACHE_FORMAT, float(forms.tau).hex(), config.k, config.form_choice,
                        pair.coarse.n, pair.r, horizon, generator)).encode())
    return "k%d_%s_%s" % (config.k, config.form_choice, digest.hexdigest())


def save_corrector_cache(cache_dir, key, correctors, transients=None):
    """Write the corrector set, and the sequences if given, under key.

    The sequences are stored by node, in ascending order: the nodes, and
    each node's rows (its members, or the Lanczos basis Z) in one entry,
    flattened and concatenated, with one count of rows per node. The nodes'
    dofs are not stored: the key fixes them (_node_dofs). Certified sequences
    also store one array each of the nodes' alpha and beta, concatenated,
    and of their horizons, norm1 and certified bounds.
    """
    os.makedirs(cache_dir, exist_ok=True)
    Q = correctors.Q.tocsr()
    payload = {
        "key": np.array(key),
        "M_ms": correctors.M_ms,
        "A_ms": correctors.A_ms,
        "B_ms": correctors.B_ms,
        "Q_data": Q.data,
        "Q_indices": Q.indices,
        "Q_indptr": Q.indptr,
        "Q_shape": np.array(Q.shape),
    }
    seqs = []
    if transients is not None:
        nodes = sorted(transients)
        seqs = [transients[d] for d in nodes]
        kinds = {tc.certified for tc in seqs}
        if len(kinds) > 1:
            raise ValueError("cannot cache certified sequences and power iterates "
                             "in one file")
        payload["transient_nodes"] = np.array(nodes, dtype=np.int64)
        payload["transient_row_counts"] = np.array([tc.xi.shape[0] for tc in seqs],
                                                   dtype=np.int64)
        if kinds == {True}:
            payload["transient_horizon"] = np.array([tc.horizon for tc in seqs],
                                                    dtype=np.int64)
            payload["transient_norm1"] = np.array([tc.norm1 for tc in seqs])
            payload["transient_bound"] = np.array([tc.bound for tc in seqs])
            payload["transient_alpha"] = np.concatenate([tc.alpha for tc in seqs])
            payload["transient_beta"] = np.concatenate([tc.beta for tc in seqs])
    path = os.path.join(cache_dir, key + ".npz")
    tmp = path + ".tmp"
    # the layout of np.savez: one .npy entry per array, stored uncompressed
    with open(tmp, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, array in payload.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array(entry, array, allow_pickle=False)
        if transients is not None:
            _write_rows(archive, "transient_rows.npy", [tc.xi for tc in seqs])
    os.replace(tmp, path)
    return path


def _write_rows(archive, name, blocks):
    """One 1-D float entry of the blocks, each flattened, in order: one
    header, then each block's bytes, so no concatenated copy is made."""
    blocks = [np.ascontiguousarray(block, dtype=np.float64) for block in blocks]
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
              "fortran_order": False, "shape": (sum(block.size for block in blocks),)}
    with archive.open(name, "w", force_zip64=True) as entry:
        np.lib.format.write_array_header_1_0(entry, header)
        for block in blocks:
            entry.write(memoryview(block).cast("B"))


def load_corrector_cache(cache_dir, key, forms, config, horizon):
    """(correctors, transients or None) stored under key, or None on a miss.

    key must be the cache_key built from forms, config and horizon, which the
    file does not repeat; the loaded set carries forms, and each sequence the
    dofs of its node's patch (_node_dofs). A file is a miss where it was
    written under another key; cannot be read in full (corrupt, truncated);
    holds a Q_shape that is not the two integers (fine dofs, coarse dofs), a
    Q whose data are not finite float64, or that fails scipy's full CSR
    format check (integer indices within the columns, indptr ascending within
    the entries), or an M_ms, A_ms or B_ms that is not a finite float coarse
    x coarse array; holds nodes that are not ascending coarse dofs, or row
    counts that are not positive or do not split its rows into blocks of the
    nodes' dofs (every sequence keeps at least one row: a Lanczos basis its
    first, power iterates their horizon >= 1); holds power iterates whose row
    counts, or certified sequences whose integer horizons, are not horizon;
    or holds rows or a Lanczos form that is not finite or does not fit the
    counts. The checks are not asserts, so they hold under python -O.
    """
    path = os.path.join(cache_dir, key + ".npz")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if str(data["key"]) != key:
                return None
            q_data, q_indices, q_indptr, q_shape = (data[name] for name in (
                "Q_data", "Q_indices", "Q_indptr", "Q_shape"))
            n_coarse = forms.pair.coarse.n_dofs
            shape = (forms.pair.fine.n_dofs, n_coarse)
            if not (_finite_floats(q_data)
                    and q_indices.dtype.kind == q_indptr.dtype.kind == "i"
                    and q_shape.dtype.kind == "i" and q_shape.shape == (2,)
                    and tuple(q_shape) == shape):
                return None
            Q = sparse.csr_matrix((q_data, q_indices, q_indptr), shape=shape)
            # indices within the columns, and indptr ascending within the
            # entries; a ValueError is a miss
            Q.check_format(full_check=True)
            grams = [data[name] for name in ("M_ms", "A_ms", "B_ms")]
            if not all(g.shape == (n_coarse, n_coarse) and g.dtype == np.float64
                       and np.isfinite(g).all() for g in grams):
                return None
            correctors = CorrectorSet(config, forms, Q, *grams)
            transients = None
            if "transient_nodes" in data:
                transients = _load_transients(data, correctors, horizon)
                if transients is None:
                    return None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    return correctors, transients


def _finite_floats(array):
    """Whether array is float64 with finite entries only."""
    return array.dtype == np.float64 and bool(np.isfinite(array).all())


def _load_transients(data, correctors, horizon):
    """The sequences of horizon members of an open cache file, each node's
    rows a view of the one rows entry, or None where the file does not fit
    (load_corrector_cache)."""
    pair, k = correctors.forms.pair, correctors.config.k
    nodes, counts = data["transient_nodes"], data["transient_row_counts"]
    if not (nodes.ndim == 1 and counts.shape == nodes.shape
            and np.issubdtype(nodes.dtype, np.integer)
            and np.issubdtype(counts.dtype, np.integer) and np.all(counts >= 1)
            and np.all(np.diff(nodes) > 0)
            and (nodes.size == 0 or (nodes[0] >= 0 and nodes[-1] < pair.coarse.n_dofs))):
        return None
    dofs = [_node_dofs(pair, d, k) for d in nodes]
    sizes = counts * np.array([node_dofs.size for node_dofs in dofs], dtype=np.int64)
    rows = data["transient_rows"]
    if not (rows.ndim == 1 and rows.size == sizes.sum() and _finite_floats(rows)):
        return None
    ends = np.cumsum(sizes)
    xis = [rows[end - size:end].reshape(count, node_dofs.size)
           for end, size, count, node_dofs in zip(ends, sizes, counts, dofs)]
    if "transient_norm1" not in data:
        if not np.all(counts == horizon):
            return None
        return {int(d): TransientCorrectors(dofs[i], xis[i], correctors)
                for i, d in enumerate(nodes)}
    horizons, norms, bounds, alphas, betas = (data["transient_" + name] for name in (
        "horizon", "norm1", "bound", "alpha", "beta"))
    if not (horizons.shape == norms.shape == bounds.shape == nodes.shape
            and horizons.dtype.kind == "i" and np.all(horizons == horizon)
            and alphas.shape == betas.shape == (counts.sum(),)
            and all(_finite_floats(a) for a in (norms, bounds, alphas, betas))):
        return None
    transients = {}
    end = 0
    for i, d in enumerate(nodes):
        start, end = end, end + counts[i]
        transients[int(d)] = TransientCorrectors(dofs[i], xis[i], correctors, 0,
                                                 float(bounds[i]), alphas[start:end],
                                                 betas[start:end], float(norms[i]),
                                                 int(horizons[i]))
    return transients
