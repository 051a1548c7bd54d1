"""Patch-localized correctors, multiscale basis, transient corrections, decay diagnostics."""

import hashlib
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


def form_matrix(forms, choice):
    if choice == "a_plus_tau_b":
        return forms.K_tilde
    if choice == "a_only":
        return forms.K_A
    return forms.K_B


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


class _PatchSolver:
    """Saddle factorization of a patch form with fine-scale kernel constraints."""

    def __init__(self, pair, interp, matrix, dofs):
        self.dofs = dofs
        self.A = matrix[dofs][:, dofs].tocsr()
        self.C = kernel_constraints(interp, dofs)
        self.fact = linalg.factor_saddle(self.A, self.C)

    def solve(self, rhs_patch):
        w, _ = self.fact.solve(rhs_patch)
        return w


def compute_element_correctors(pair, interp, forms, t_coarse, config, solver=None):
    """Per-vertex corrector contributions of one coarse element on its patch.

    Returns a dict mapping the coarse dof of each interior vertex of T to the
    zero-extended fine dof vector of its contribution.
    """
    coarse = pair.coarse
    if solver is None:
        patch = element_patch(coarse, t_coarse, config.k)
        dofs = patch_fine_dofs(pair, patch)
        solver = _PatchSolver(pair, interp, form_matrix(forms, config.form_choice), dofs)

    tilde = form_values(forms, config.form_choice)
    P = prolongation(pair)

    out = {}
    for vertex in coarse.triangles[t_coarse]:
        dof = coarse.dof_index[vertex]
        if dof < 0:
            continue
        lam = np.asarray(P[:, dof].todense()).ravel()
        rhs = element_rhs(pair, tilde, t_coarse, lam)[solver.dofs]
        w = solver.solve(rhs)
        full = np.zeros(pair.fine.n_dofs)
        full[solver.dofs] = w
        out[dof] = full
    return out


@dataclass
class CorrectorSet:
    config: CorrectorConfig
    pair: object
    phi: sparse.csr_matrix      # fine dofs x coarse dofs
    Q: sparse.csr_matrix        # modified basis, columns lambda_x - phi_x
    M_ms: np.ndarray
    A_ms: np.ndarray
    B_ms: np.ndarray


def build_corrector_set(pair, interp, forms, config, workers=1):
    """Assemble all element correctors and the modified coarse basis."""
    if abs(config.tau - forms.tau) > 1e-15 * max(1.0, forms.tau):
        raise ValueError("corrector config and forms disagree on the time step")
    coarse = pair.coarse
    matrix = form_matrix(forms, config.form_choice)

    # elements that share a patch share its factorization: collect the distinct
    # patches first, so that each is factored exactly once even across threads
    element_keys = []
    distinct = {}
    for t in range(coarse.n_elements):
        dofs = patch_fine_dofs(pair, element_patch(coarse, t, config.k))
        key = dofs.tobytes()
        distinct.setdefault(key, dofs)
        element_keys.append(key)

    def patch_solver(dofs):
        return _PatchSolver(pair, interp, matrix, dofs)

    def one_element(t, solver):
        return compute_element_correctors(pair, interp, forms, t, config,
                                          solver=solver)

    def run(mapper):
        solvers = dict(zip(distinct, mapper(patch_solver, distinct.values())))
        return list(mapper(one_element, range(coarse.n_elements),
                           [solvers[key] for key in element_keys]))

    if workers > 1:
        # patch solves are independent; assembly below keeps a fixed order
        with ThreadPoolExecutor(max_workers=workers) as pool:
            contributions = run(pool.map)
    else:
        contributions = run(map)

    rows = []
    cols = []
    vals = []
    for contrib in contributions:
        for dof, vec in contrib.items():
            nz = np.flatnonzero(vec)
            rows.append(nz)
            cols.append(np.full(nz.size, dof, dtype=np.int64))
            vals.append(vec[nz])
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
    return CorrectorSet(config, pair, phi.tocsr(), Q, M_ms, A_ms, B_ms)


@dataclass
class TransientCorrectors:
    x_dof: int
    dofs: np.ndarray
    xi: np.ndarray              # (steps, patch dofs)
    config: CorrectorConfig


def compute_transient_correctors(pair, interp, forms, correctors, x_dof, horizon,
                                 stop_tol=1e-12):
    """Fine-scale correction sequence of one coarse node on its patch.

    The first step projects the modified hat function, later steps reuse the
    factorized left-hand side; iteration stops at the horizon or once the
    H1 norm has dropped below stop_tol relative to the first step.
    """
    config = correctors.config
    coarse = pair.coarse
    vertex = coarse.interior_nodes[x_dof]
    patch = node_patch(coarse, vertex, config.k)
    dofs = patch_fine_dofs(pair, patch)
    solver = _PatchSolver(pair, interp, form_matrix(forms, config.form_choice), dofs)

    K_A_patch = forms.K_A[dofs][:, dofs].tocsr()
    H1_patch = forms._h1_matrix[dofs][:, dofs].tocsr()

    q_x = np.asarray(correctors.Q[:, x_dof].todense()).ravel()
    rhs = (forms.K_A @ q_x)[dofs]

    steps = []
    xi = solver.solve(rhs)
    steps.append(xi)
    norm1 = np.sqrt(max(xi @ (H1_patch @ xi), 0.0))
    for _ in range(1, horizon):
        if np.sqrt(max(steps[-1] @ (H1_patch @ steps[-1]), 0.0)) <= stop_tol * norm1:
            break
        xi = solver.solve(K_A_patch @ steps[-1])
        steps.append(xi)
    return TransientCorrectors(x_dof, dofs, np.array(steps), config)


def transients_for_all_nodes(pair, interp, forms, correctors, horizon,
                             stop_tol=1e-12, workers=1):
    """Transient correctors for every interior coarse node."""
    n_dofs = pair.coarse.n_dofs

    def one(d):
        return compute_transient_correctors(pair, interp, forms, correctors, d,
                                            horizon, stop_tol)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            items = list(pool.map(one, range(n_dofs)))
    else:
        items = [one(d) for d in range(n_dofs)]
    return {tc.x_dof: tc for tc in items}


def _element_h1_energies(mesh, v_full):
    tri = mesh.triangles
    g = mesh.gradients()
    areas = mesh.areas()
    vloc = v_full[tri]                       # (nt, 3)
    grad = np.einsum("mi,mid->md", vloc, g)
    semi = areas * np.einsum("md,md->m", grad, grad)
    mass = (areas / 12.0) * np.einsum("mi,ij,mj->m", vloc, MASS_PATTERN, vloc)
    return semi + mass


def decay_profile(v, pair, x_dof, forms):
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


def project_initial_data(correctors, u_coarse):
    """Representative in the multiscale space with the given coarse coefficients."""
    return correctors.Q @ np.asarray(u_coarse, dtype=float)


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
    payload = {
        "key": np.array(key),
        "k": correctors.config.k,
        "tau": correctors.config.tau,
        "form_choice": np.array(correctors.config.form_choice),
        "M_ms": correctors.M_ms,
        "A_ms": correctors.A_ms,
        "B_ms": correctors.B_ms,
    }
    for name, mat in (("phi", correctors.phi), ("Q", correctors.Q)):
        csr = mat.tocsr()
        payload[name + "_data"] = csr.data
        payload[name + "_indices"] = csr.indices
        payload[name + "_indptr"] = csr.indptr
        payload[name + "_shape"] = np.array(csr.shape)
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


def load_corrector_cache(cache_dir, key, pair):
    """(correctors, transients or None) stored under key, or None on a miss.

    A file that was written under another key or cannot be read in full
    (corrupt, truncated) is a miss.
    """
    path = os.path.join(cache_dir, key + ".npz")
    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if str(data["key"]) != key:
                return None
            config = CorrectorConfig(
                k=int(data["k"]), tau=float(data["tau"]),
                form_choice=str(data["form_choice"]),
            )

            def csr(name):
                return sparse.csr_matrix(
                    (data[name + "_data"], data[name + "_indices"], data[name + "_indptr"]),
                    shape=tuple(data[name + "_shape"]),
                )

            correctors = CorrectorSet(config, pair, csr("phi"), csr("Q"),
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
