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
from .interpolation import kernel_constraints
from .mesh import element_patch, node_patch, prolongation

FORM_CHOICES = ("a_plus_tau_b", "a_only", "b_only")

# a certified sequence lies within CERTIFY_TOL times the energy norm of its
# first member of the power iterates, in the energy norm, member by member
CERTIFY_TOL = 1e-11

# "lanczos": certified members lifted from a Lanczos basis; "power": one
# saddle solve per member
GENERATORS = ("lanczos", "power")

# the version of how the cached arrays are computed and stored
CACHE_FORMAT = 3


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
    """Interior fine dofs of functions supported on the given coarse elements."""
    fine = pair.fine
    mask = _fine_mask(pair, coarse_elements)
    outside = fine._vert_elem.dot((~mask).astype(np.int8))
    inside = fine._vert_elem.dot(mask.astype(np.int8))
    ok = (outside == 0) & (inside > 0) & (fine.dof_index >= 0)
    return fine.dof_index[np.flatnonzero(ok)]


# the patch block each form choice factors
_FORM_BLOCKS = dict(zip(FORM_CHOICES, ("k_tilde", "k_a", "k_b")))


class Patch:
    """The forms and the fine-scale kernel constraints restricted to the fine
    dofs of one coarse patch, each built on first use, and the saddle
    factorization of the chosen form's block for the patch solves."""

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
    def k_b(self):
        return self._restrict(self.forms.K_B)

    @cached_property
    def C(self):
        return kernel_constraints(self.forms.interp, self.dofs)

    @cached_property
    def saddle(self):
        block = getattr(self, _FORM_BLOCKS[self.form_choice])
        return linalg.factor_saddle(block, self.C)

    def solve(self, rhs_patch):
        """The fine-scale part w of the saddle solve with patch right-hand side."""
        w, _ = self.saddle.solve(rhs_patch)
        return w

    @cached_property
    def _kernel_factors(self):
        # C^T, made once, and the Cholesky factor of C C^T
        return self.C.T, scipy.linalg.cho_factor((self.C @ self.C.T).toarray())

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
    dofs: np.ndarray
    xi: np.ndarray              # (steps, patch dofs)
    correctors: CorrectorSet    # the set the sequence was built from
    # the saddle solves spent building xi, and its certified bound (the
    # largest energy error of a member, over the energy norm of the first);
    # both are 0 for a sequence read from the cache, and the bound is 0 for
    # power iterates
    solves: int = 0
    bound: float = 0.0


def transient_patch(correctors, x_dof, Q_csc=None):
    """The Patch of coarse node x_dof and the first right-hand side
    (K_A q_x)[patch.dofs] of its fine-scale correction sequence.

    Q_csc is correctors.Q in CSC, made once by callers that build many nodes.
    """
    forms, config = correctors.forms, correctors.config
    pair = forms.pair
    vertex = pair.coarse.interior_nodes[x_dof]
    patch = Patch(forms, patch_fine_dofs(pair, node_patch(pair.coarse, vertex, config.k)),
                  config.form_choice)
    Q = correctors.Q.tocsc() if Q_csc is None else Q_csc
    span = slice(Q.indptr[x_dof], Q.indptr[x_dof + 1])
    q_x = np.zeros(Q.shape[0])
    q_x[Q.indices[span]] = Q.data[span]
    # the patch rows of K_A, each summed in the order of a whole-grid product
    k_a_rows = linalg._submatrix(forms.K_A, patch.dofs, np.arange(forms.K_A.shape[1]))
    return patch, k_a_rows @ q_x


# members of a transient sequence solved between two checks
_BLOCK = 16


def compute_transient_correctors(correctors, x_dof, horizon, Q_csc=None):
    """Fine-scale correction sequence of one coarse node on its patch, its
    `horizon` members xi^1 .. xi^horizon.

    The first step projects the modified hat function, later steps reuse the
    factorized left-hand side. Members are solved in blocks of _BLOCK with
    bare LU solves, and each block is checked with the tolerances of the
    checked solve. The first member, and the first one that misses its
    residual test, starts a block through the checked solve, so the members
    are those of one checked solve per step. Q_csc is as for transient_patch.
    """
    patch, first = transient_patch(correctors, x_dof, Q_csc)
    saddle = patch.saddle
    solve_bare = saddle._fact._raw_solve
    n = patch.dofs.size
    xi = np.empty((horizon, n))
    # one full right-hand side [K_A xi^{l-1}; 0] and bare solution per row
    rhs = np.zeros((_BLOCK, n + saddle.C.shape[0]))
    sol = np.empty_like(rhs)
    length = 0        # members accepted so far
    checked = 1       # solve the block's first member through the checked solve
    solves = 0
    while length < horizon:
        size = min(_BLOCK, horizon - length)
        for i in range(size):
            rhs[i, :n] = first if length + i == 0 else patch.k_a @ xi[length + i - 1]
            if i < checked:
                xi[length + i] = saddle.solve(rhs[i, :n])[0]
            else:
                sol[i] = solve_bare(rhs[i])
                xi[length + i] = sol[i, :n]
        solves += size
        accurate = checked + saddle.count_accurate(rhs[checked:size].T,
                                                    sol[checked:size].T)
        # the block ends at its first miss, which the next block replays
        # through the checked solve
        length, checked = length + accurate, 1 if accurate < size else 0
    return TransientCorrectors(patch.dofs, xi, correctors, solves)


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


def _lanczos(patch, first, horizon):
    """The Lanczos basis, in the K_tilde product, of G = (K_tilde on the
    interpolation kernel)^-1 K_A from xi^1, the checked solve of first.

    Returns (xi1, norm1, Z, alpha, beta, bound, solves). The M rows of Z are
    K_tilde-orthonormal and lie in the kernel; z_1 = xi1 / norm1, where norm1
    is the energy norm of xi1. alpha and beta[:-1] are the diagonal and the
    off-diagonal of T = Z K_A Z^T, and beta_M = beta[-1] is the norm of the
    remainder of G z_M. So G Z^T = Z^T T + beta_M z_{M+1} e_M^T, and each
    member xi^{j+1} = G^j xi1 lies within norm1 * bound, in the energy norm,
    of norm1 Z^T T^j e_1 for j < horizon, where
    bound = beta_M sum_{i < horizon - 1} |e_M^T T^i e_1| (G is a contraction).

    Each step is one saddle solve of K_A z_M; its remainder is
    reorthogonalized against Z twice, projected onto the kernel and
    normalized. The basis ends at the first M tried whose bound is at most
    CERTIFY_TOL; at M = horizon, where the bound vanishes; or once the remainder
    falls below _INVARIANT_TOL times ||G z_M||, where the Krylov space is
    invariant. The bound falls about geometrically in M, so the next M tried
    is where the last two tries extrapolate to CERTIFY_TOL, at most _BOUND_EVERY
    steps on (the first try is at M = _BOUND_EVERY). Solves are bare LU
    solves, checked in blocks of _BLOCK like the power iterates', and a step
    whose solve misses its check is replayed through the checked solve.
    """
    tol = CERTIFY_TOL
    saddle = patch.saddle
    solve_bare = saddle._fact._raw_solve
    X, K = patch.k_tilde, patch.k_a
    n = patch.dofs.size
    xi1 = saddle.solve(first)[0]
    x_xi1 = X @ xi1
    norm1 = np.sqrt(max(xi1 @ x_xi1, 0.0))
    if norm1 == 0.0:
        # a zero first member: the one-vector basis z_1 = 0, T = [0] lifts
        # the zero members after it
        return xi1, norm1, np.zeros((1, n)), np.zeros(1), np.zeros(1), 0.0, 1
    # z_{M+1} and K_tilde z_{M+1} are rows M of Z and XZ
    Z = np.empty((horizon + 1, n))
    XZ = np.empty_like(Z)
    Z[0], XZ[0] = xi1 / norm1, x_xi1 / norm1
    alpha, beta = np.empty(horizon), np.empty(horizon)
    rhs = np.zeros((_BLOCK, n + saddle.C.shape[0]))
    sol = np.empty_like(rhs)
    M = 0             # steps taken; step s solves for G z_s
    start = 1         # the step in row 0 of the block
    checked = 0       # leading rows of the block solved through the checked solve
    solves = 1
    tried, tried_bound, next_try = 0, 1.0, _BOUND_EVERY
    while True:
        i = M + 1 - start
        rhs[i, :n] = K @ Z[M]
        if i < checked:
            w = saddle.solve(rhs[i, :n])[0]
        else:
            sol[i] = solve_bare(rhs[i])
            w = sol[i, :n].copy()
        solves += 1
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
        if stop or i + 1 == _BLOCK:
            accurate = checked + saddle.count_accurate(rhs[checked:i + 1].T,
                                                        sol[checked:i + 1].T)
            if accurate <= i:
                # replay the first step that missed through the checked solve
                M, start, checked = start + accurate - 1, start + accurate, 1
                continue
            if stop:
                break
            start, checked = M + 1, 0
    return xi1, norm1, Z[:M], alpha[:M], beta[:M], bound, solves


def _certified_transients(correctors, x_dof, horizon, Q_csc=None):
    """The correction sequence of compute_transient_correctors, each member
    after the first lifted from the node's Lanczos basis (_lanczos) with one
    product, within CERTIFY_TOL of the power iterate as the basis certifies.
    The first member is the power iterate's checked solve.
    """
    if correctors.config.form_choice != "a_plus_tau_b":
        # only K_A + tau K_B makes G a contraction, which the bound needs
        raise ValueError("certified sequences need the a_plus_tau_b form, got %r"
                         % (correctors.config.form_choice,))
    patch, first = transient_patch(correctors, x_dof, Q_csc)
    # the rows of the sequence are allocated before the basis's scratch
    # arrays, so that these leave no hole in the heap below them when freed
    # (a hole kept the peak RSS of a kcold run 1 MB higher)
    xi = np.empty((horizon, patch.dofs.size))
    xi1, norm1, Z, alpha, beta, bound, solves = _lanczos(patch, first, horizon)
    powers = _tridiagonal_powers(alpha, beta[:-1], horizon)
    xi[0] = xi1
    np.matmul((norm1 * powers[:, 1:]).T, Z, out=xi[1:])
    return TransientCorrectors(patch.dofs, xi, correctors, solves, bound)


def transients_for_all_nodes(correctors, horizon, generator="lanczos"):
    """Transient correctors for every interior coarse node, keyed by its dof,
    each of `horizon` members.

    The generator (one of GENERATORS) is "lanczos" for certified sequences
    (_certified_transients) or "power" for the power iterates
    (compute_transient_correctors).
    """
    if generator not in GENERATORS:
        raise ValueError("generator must be one of %s, got %r" % (GENERATORS, generator))
    if not isinstance(horizon, numbers.Integral) or isinstance(horizon, bool) or horizon < 1:
        raise ValueError("horizon must be an integer >= 1, got %r" % (horizon,))
    build = _certified_transients if generator == "lanczos" else compute_transient_correctors
    Q_csc = correctors.Q.tocsc()
    return {d: build(correctors, d, horizon, Q_csc)
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
    """H1 norm of v outside growing node patches, as (j, value) rows."""
    coarse = pair.coarse
    fine = pair.fine
    vertex = coarse.interior_nodes[x_dof]
    energies = _element_h1_energies(fine, fine.expand(np.asarray(v, dtype=float)))

    rows = []
    for j in range(1, coarse.n + 1):
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
    if transients is not None:
        payload["transient_dofs_list"] = np.array(sorted(transients), dtype=np.int64)
        for d, tc in transients.items():
            payload["xi_%d" % d] = tc.xi
            payload["dofs_%d" % d] = tc.dofs
    path = os.path.join(cache_dir, key + ".npz")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, path)
    return path


def load_corrector_cache(cache_dir, key, forms, config):
    """(correctors, transients or None) stored under key, or None on a miss.

    key must be the cache_key built from forms and config, which the file
    does not repeat; the loaded set carries forms. A file that was written
    under another key or cannot be read in full (corrupt, truncated) is a miss.
    """
    path = os.path.join(cache_dir, key + ".npz")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if str(data["key"]) != key:
                return None
            Q = sparse.csr_matrix(
                (data["Q_data"], data["Q_indices"], data["Q_indptr"]),
                shape=tuple(data["Q_shape"]),
            )
            correctors = CorrectorSet(config, forms, Q,
                                      data["M_ms"], data["A_ms"], data["B_ms"])
            transients = None
            if "transient_dofs_list" in data:
                transients = {}
                for d in data["transient_dofs_list"]:
                    d = int(d)
                    transients[d] = TransientCorrectors(
                        data["dofs_%d" % d], data["xi_%d" % d], correctors
                    )
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    return correctors, transients
