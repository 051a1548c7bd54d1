"""Patch-localized correctors, multiscale basis, transient corrections, decay diagnostics."""

import hashlib
import os
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from . import linalg
from .assembly import MASS_PATTERN, element_rhs_block
from .interpolation import kernel_constraints
from .mesh import element_patch, node_patch, prolongation

FORM_CHOICES = ("a_plus_tau_b", "a_only", "b_only")

# a correction sequence ends once its H1 norm falls to STOP_TOL times its first
STOP_TOL = 1e-12


@dataclass(frozen=True)
class CorrectorConfig:
    """Patch size and corrector form; the time step is the forms' own, forms.tau."""
    k: int
    form_choice: str = "a_plus_tau_b"

    def __post_init__(self):
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
    def h1(self):
        return self._restrict(self.forms._h1_matrix)

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
    """Assemble all element correctors and the modified coarse basis."""
    pair = forms.pair
    coarse = pair.coarse

    # elements with the same patch dofs share one Patch, so each is factored
    # once, and it is dropped after its last element
    element_dofs = [patch_fine_dofs(pair, element_patch(coarse, t, config.k))
                    for t in range(coarse.n_elements)]
    last = {dofs.tobytes(): t for t, dofs in enumerate(element_dofs)}
    patches = {}
    rows = []
    cols = []
    vals = []
    for t, dofs in enumerate(element_dofs):
        key = dofs.tobytes()
        if key not in patches:
            patches[key] = Patch(forms, dofs, config.form_choice)
        patch = patches.pop(key) if last[key] == t else patches[key]
        for dof, w in compute_element_correctors(patch, t).items():
            nz = np.flatnonzero(w)
            rows.append(patch.dofs[nz])
            cols.append(np.full(nz.size, dof, dtype=np.int64))
            vals.append(w[nz])
    if rows:
        phi = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(pair.fine.n_dofs, coarse.n_dofs),
        )
    else:
        phi = sparse.csr_matrix((pair.fine.n_dofs, coarse.n_dofs))
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


def compute_transient_correctors(correctors, x_dof, horizon, stop_tol=STOP_TOL, Q_csc=None):
    """Fine-scale correction sequence of one coarse node on its patch.

    The first step projects the modified hat function, later steps reuse the
    factorized left-hand side; iteration stops at the horizon or once the
    H1 norm has dropped below stop_tol relative to the first step.

    Members are solved in blocks of _BLOCK with bare LU solves. After a block
    the stop test picks the members to keep, and only those are checked, with
    the tolerances of the checked solve; members past the stop are dropped
    unchecked. The first member, and the first one that misses its residual
    test, starts a block through the checked solve, so the kept members are
    those of one checked solve per step. Q_csc is as for transient_patch.
    """
    patch, first = transient_patch(correctors, x_dof, Q_csc)
    saddle = patch.saddle
    solve_bare = saddle._fact._raw_solve
    n = patch.dofs.size
    xi = np.empty((horizon, n))
    # one full right-hand side [K_A xi^{l-1}; 0] and bare solution per row
    rhs = np.zeros((_BLOCK, n + saddle.C.shape[0]))
    sol = np.empty_like(rhs)
    length = 0        # members kept so far
    checked = 1       # solve the block's first member through the checked solve
    while True:
        size = min(_BLOCK, horizon - length)
        for i in range(size):
            rhs[i, :n] = first if length + i == 0 else patch.k_a @ xi[length + i - 1]
            if i < checked:
                xi[length + i] = saddle.solve(rhs[i, :n])[0]
            else:
                sol[i] = solve_bare(rhs[i])
                xi[length + i] = sol[i, :n]
        members = xi[length:length + size]
        h1_members = np.ascontiguousarray((patch.h1 @ members.T).T)
        kept, stop = size, False
        for i in range(size):
            norm = np.sqrt(max(members[i] @ h1_members[i], 0.0))
            if length + i == 0:
                norm1 = norm
            if length + i + 1 < horizon and norm <= stop_tol * norm1:
                kept, stop = i + 1, True
                break
        accurate = checked + saddle.count_accurate(rhs[checked:kept].T,
                                                    sol[checked:kept].T)
        if accurate < kept:
            # replay the first member that missed through the checked solve
            length, checked = length + accurate, 1
            continue
        length, checked = length + kept, 0
        if stop or length == horizon:
            break
    xi = xi if length == horizon else xi[:length].copy()
    return TransientCorrectors(patch.dofs, xi, correctors)


def transients_for_all_nodes(correctors, horizon, stop_tol=STOP_TOL):
    """Transient correctors for every interior coarse node, keyed by its dof."""
    Q_csc = correctors.Q.tocsc()
    return {d: compute_transient_correctors(correctors, d, horizon, stop_tol, Q_csc)
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

def cache_key(forms, config, horizon, stop_tol):
    """File key for a corrector set (and its transients) built from these inputs.

    The digest covers everything the cached arrays depend on: both coefficient
    arrays, the exact time step forms.tau, the patch size, the form, the mesh
    pair, and the transient horizon and stop tolerance.
    """
    pair = forms.pair
    digest = hashlib.sha256()
    digest.update(forms.a_values.tobytes())
    digest.update(forms.b_values.tobytes())
    digest.update(repr((float(forms.tau).hex(), config.k, config.form_choice,
                        pair.coarse.n, pair.r, horizon, float(stop_tol).hex())).encode())
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
