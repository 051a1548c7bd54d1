"""Patch-localized correctors, multiscale basis, transient corrections, decay diagnostics."""

import hashlib
import os
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from . import linalg
from .assembly import MASS_PATTERN, element_rhs
from .interpolation import kernel_constraints
from .mesh import element_patch, node_patch, prolongation

FORM_CHOICES = ("a_plus_tau_b", "a_only", "b_only")


@dataclass(frozen=True)
class CorrectorConfig:
    k: int
    tau: float
    form_choice: str = "a_plus_tau_b"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("patch size k must be >= 1")
        if self.tau <= 0.0:
            raise ValueError("time step must be positive")
        if self.form_choice not in FORM_CHOICES:
            raise ValueError("unknown form choice %r" % (self.form_choice,))


def form_values(forms, choice):
    if choice == "a_plus_tau_b":
        return forms.tilde_values
    if choice == "a_only":
        return forms.a_values
    return forms.b_values


def patch_fine_dofs(pair, coarse_elements):
    """Interior fine dofs of functions supported on the given coarse elements."""
    fine = pair.fine
    mask = np.zeros(fine.n_elements, dtype=bool)
    for t in np.asarray(coarse_elements).ravel():
        mask[pair.fibers[t]] = True
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

    def __init__(self, interp, forms, dofs, form_choice="a_plus_tau_b"):
        if form_choice not in FORM_CHOICES:
            raise ValueError("unknown form choice %r" % (form_choice,))
        self.interp = interp
        self.forms = forms
        self.dofs = dofs
        self.form_choice = form_choice

    def _restrict(self, matrix):
        return matrix[self.dofs][:, self.dofs].tocsr()

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
        return kernel_constraints(self.interp, self.dofs)

    @cached_property
    def saddle(self):
        block = getattr(self, _FORM_BLOCKS[self.form_choice])
        return linalg.factor_saddle(block, self.C)

    def solve(self, rhs_patch):
        """The fine-scale part w of the saddle solve with patch right-hand side."""
        w, _ = self.saddle.solve(rhs_patch)
        return w


def compute_element_correctors(pair, forms, t_coarse, patch):
    """Per-vertex corrector contributions of one coarse element on its patch.

    Returns a dict mapping the coarse dof of each interior vertex of T to its
    contribution on patch.dofs.
    """
    coarse = pair.coarse
    tilde = form_values(forms, patch.form_choice)
    P = prolongation(pair)

    out = {}
    for vertex in coarse.triangles[t_coarse]:
        dof = coarse.dof_index[vertex]
        if dof < 0:
            continue
        lam = np.asarray(P[:, dof].todense()).ravel()
        out[dof] = patch.solve(element_rhs(pair, tilde, t_coarse, lam)[patch.dofs])
    return out


@dataclass
class CorrectorSet:
    config: CorrectorConfig
    pair: object
    Q: sparse.csr_matrix        # modified basis, columns lambda_x - phi_x
    M_ms: np.ndarray
    A_ms: np.ndarray
    B_ms: np.ndarray

    @property
    def phi(self):
        """The correctors, fine dofs x coarse dofs: prolongation minus Q."""
        return (prolongation(self.pair) - self.Q).tocsr()


def build_corrector_set(pair, interp, forms, config):
    """Assemble all element correctors and the modified coarse basis."""
    if abs(config.tau - forms.tau) > 1e-15 * max(1.0, forms.tau):
        raise ValueError("corrector config and forms disagree on the time step")
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
            patches[key] = Patch(interp, forms, dofs, config.form_choice)
        patch = patches.pop(key) if last[key] == t else patches[key]
        for dof, w in compute_element_correctors(pair, forms, t, patch).items():
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
    return CorrectorSet(config, pair, Q, M_ms, A_ms, B_ms)


@dataclass
class TransientCorrectors:
    x_dof: int
    dofs: np.ndarray
    xi: np.ndarray              # (steps, patch dofs)
    config: CorrectorConfig


def transient_patch(pair, interp, forms, correctors, x_dof):
    """The Patch of coarse node x_dof and the first right-hand side
    (K_A q_x)[patch.dofs] of its fine-scale correction sequence."""
    config = correctors.config
    vertex = pair.coarse.interior_nodes[x_dof]
    patch = Patch(interp, forms,
                  patch_fine_dofs(pair, node_patch(pair.coarse, vertex, config.k)),
                  config.form_choice)
    q_x = np.asarray(correctors.Q[:, x_dof].todense()).ravel()
    return patch, (forms.K_A @ q_x)[patch.dofs]


def compute_transient_correctors(pair, interp, forms, correctors, x_dof, horizon,
                                 stop_tol=1e-12):
    """Fine-scale correction sequence of one coarse node on its patch.

    The first step projects the modified hat function, later steps reuse the
    factorized left-hand side; iteration stops at the horizon or once the
    H1 norm has dropped below stop_tol relative to the first step.
    """
    patch, rhs = transient_patch(pair, interp, forms, correctors, x_dof)

    steps = []
    xi = patch.solve(rhs)
    steps.append(xi)
    norm1 = np.sqrt(max(xi @ (patch.h1 @ xi), 0.0))
    for _ in range(1, horizon):
        if np.sqrt(max(steps[-1] @ (patch.h1 @ steps[-1]), 0.0)) <= stop_tol * norm1:
            break
        xi = patch.solve(patch.k_a @ steps[-1])
        steps.append(xi)
    return TransientCorrectors(x_dof, patch.dofs, np.array(steps), correctors.config)


def transients_for_all_nodes(pair, interp, forms, correctors, horizon,
                             stop_tol=1e-12):
    """Transient correctors for every interior coarse node."""
    return {d: compute_transient_correctors(pair, interp, forms, correctors, d,
                                            horizon, stop_tol)
            for d in range(pair.coarse.n_dofs)}


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
        mask = np.zeros(fine.n_elements, dtype=bool)
        for t in patch:
            mask[pair.fibers[t]] = True
        outside = float(energies[~mask].sum())
        rows.append((j, np.sqrt(max(outside, 0.0))))
        if patch.size == coarse.n_elements:
            break
    return np.array(rows)


# ----------------------------------------------------------------------------
# binary corrector cache

def cache_key(forms, config, horizon, stop_tol):
    """File key for a corrector set (and its transients) built from these inputs.

    The digest covers everything the cached arrays depend on: both coefficient
    arrays, the exact time step, the patch size, the form, the mesh pair, and
    the transient horizon and stop tolerance.
    """
    pair = forms.pair
    digest = hashlib.sha256()
    digest.update(forms.a_values.tobytes())
    digest.update(forms.b_values.tobytes())
    digest.update(repr((float(config.tau).hex(), config.k, config.form_choice,
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


def load_corrector_cache(cache_dir, key, pair, config):
    """(correctors, transients or None) stored under key, or None on a miss.

    key must be the cache_key built from config, which the file does not
    repeat. A file that was written under another key or cannot be read in
    full (corrupt, truncated) is a miss.
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
            correctors = CorrectorSet(config, pair, Q,
                                      data["M_ms"], data["A_ms"], data["B_ms"])
            transients = None
            if "transient_dofs_list" in data:
                transients = {}
                for d in data["transient_dofs_list"]:
                    d = int(d)
                    transients[d] = TransientCorrectors(
                        d, data["dofs_%d" % d], data["xi_%d" % d], config
                    )
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    return correctors, transients
