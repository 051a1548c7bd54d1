"""Backward Euler time steppers: fine FEM, ideal and localized GFEM, auxiliary problem."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .assembly import assemble_load, h1_norms
from .lod import transient_patch


@dataclass(frozen=True)
class TimeGrid:
    tau: float
    n_steps: int

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("time step must be positive")
        if self.n_steps < 2:
            raise ValueError("need at least two time steps")


@dataclass
class Trajectory:
    grid: TimeGrid
    states: np.ndarray                 # (n_steps + 1, fine dofs)
    alpha: np.ndarray = None           # coarse coefficients where applicable

    def __post_init__(self):
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")


def _load(forms, f, project=lambda fine: fine):
    """t -> project(fine load vector), formed once when f is a constant."""
    if callable(f):
        return lambda t: project(assemble_load(forms.fine, f, t))
    constant = project(assemble_load(forms.fine, f))
    return lambda t: constant


def fine_fem_solve(forms, f, u0, u1, grid):
    """Reference backward Euler FEM for the damped wave equation."""
    tau = grid.tau
    lhs = (forms.M / tau**2 + forms.K_A / tau + forms.K_B).tocsc()
    fact = linalg.Factorization(lhs)
    load = _load(forms, f)

    states = np.zeros((grid.n_steps + 1, forms.fine.n_dofs))
    states[0] = u0
    states[1] = u1
    for n in range(2, grid.n_steps + 1):
        rhs = (load(n * tau)
               + forms.M @ (2.0 * states[n - 1] - states[n - 2]) / tau**2
               + forms.K_A @ states[n - 1] / tau)
        states[n] = fact.solve(rhs)
    return Trajectory(grid, states)


def discrete_energy(forms, trajectory):
    """E^n = 0.5 ||du^n||_M^2 + 0.5 ||u^n||_b^2 for n = 1..N."""
    tau = trajectory.grid.tau
    states = trajectory.states
    out = []
    for n in range(1, states.shape[0]):
        du = (states[n] - states[n - 1]) / tau
        out.append(0.5 * du @ (forms.M @ du) + 0.5 * states[n] @ (forms.K_B @ states[n]))
    return np.array(out)


def _gfem_steps(Q, M_ms, A_ms, B_ms, forms, f, grid, alpha0, alpha1,
                fine_scale=None):
    """Backward Euler in the span of Q, the one loop behind every coarse-space scheme.

    Step n solves (M/tau + A + tau B) alpha^n = tau Q^T F^n + Q^T K_A u^{n-1}
    + M (2 alpha^{n-1} - alpha^{n-2}) / tau, where u^n = Q alpha^n + w^n. The
    fine-scale part w enters only through fine_scale: fine_scale.memory(n, alpha)
    returns Q^T K_A u^{n-1} and fine_scale.states(alpha) the fine states after
    the loop. Without one, w = 0.
    """
    tau = grid.tau
    QT = Q.T
    if fine_scale is None:
        fine_scale = _PerStep(Q, forms, grid)
    lhs = scipy.linalg.lu_factor(M_ms / tau + A_ms + tau * B_ms)
    load = _load(forms, f, lambda fine: tau * (QT @ fine))

    alpha = np.zeros((grid.n_steps + 1, Q.shape[1]))
    alpha[0] = alpha0
    alpha[1] = alpha1
    for n in range(2, grid.n_steps + 1):
        rhs = (load(n * tau)
               + fine_scale.memory(n, alpha)
               + M_ms @ (2.0 * alpha[n - 1] - alpha[n - 2]) / tau)
        alpha[n] = scipy.linalg.lu_solve(lhs, rhs)
    return Trajectory(grid, fine_scale.states(alpha), alpha=alpha)


class _PerStep:
    """Fine-scale part computed in every step as w^n = correct(n, alpha, K_A u^{n-1});
    w = 0 without correct. Initial states carry no fine-scale part.

    w^n depends on step n - 1 alone, so it is computed with the memory term of
    step n, before alpha^n is solved.
    """

    def __init__(self, Q, forms, grid, correct=None):
        self.Q, self.QT, self.K_A, self.correct = Q, Q.T, forms.K_A, correct
        self.w = np.zeros((grid.n_steps + 1, Q.shape[0]))

    def memory(self, n, alpha):
        fine = self.K_A @ (self.Q @ alpha[n - 1] + self.w[n - 1])
        if self.correct is not None:
            self.w[n] = self.correct(n, alpha, fine)
        return self.QT @ fine

    def states(self, alpha):
        self.w += (self.Q @ alpha.T).T
        return self.w


# steps per block: the memory term reads Gamma once per block, and the error
# norms take one sparse product per block, which bounds their temporaries
_BLOCK = 16


class _Superposition:
    """Fine-scale part superposed from stored per-node correction sequences,
    w^n = sum_x sum_{l=1}^{n-1} alpha_x^{n-l} xi_x^l (alpha^0 never enters).

    The coarse step sees w only through Q^T K_A w^{n-1}, so the loop runs on
    the coarse memory matrices Gamma_l, column x = Q^T K_A xi_x^l, and the fine
    states are filled once after it, one triangular Toeplitz product per node.
    """

    def __init__(self, correctors, transients, forms, grid):
        Q = self.Q = correctors.Q
        n_coarse = Q.shape[1]
        self.items = [(tc.x_dof, tc.dofs, tc.xi) for tc in transients.values()]
        lags = min(max((xi.shape[0] for _, _, xi in self.items), default=0),
                   grid.n_steps - 2)
        # lag-major, gamma[l, x] = Gamma_l[:, x]; lag 0 is the coarse part A_ms
        self.gamma = np.zeros((lags + 1, n_coarse, n_coarse))
        self.gamma[0] = correctors.A_ms.T
        QT_K_A = (Q.T @ forms.K_A).toarray()
        for x, dofs, xi in self.items:
            length = min(xi.shape[0], lags)
            self.gamma[1:length + 1, x] = xi[:length] @ QT_K_A[:, dofs].T
        # reverse time: row N - m holds alpha^m, so the lags 0, 1, ... of step n
        # are consecutive rows; row N (alpha^0, which never enters) and the
        # rows past it stay zero, so a window may run past alpha^1
        self.n_steps = grid.n_steps
        self.past = np.zeros((grid.n_steps + _BLOCK, n_coarse))
        self.known = None

    def memory(self, n, alpha):
        n_coarse = self.past.shape[1]
        row = self.n_steps - (n - 1)
        self.past[row] = alpha[n - 1]
        lags = self.gamma.shape[0]
        gamma = self.gamma.reshape(-1, n_coarse)
        j = (n - 2) % _BLOCK
        if j == 0:
            # one product gives steps n .. n + b - 1 every term whose alpha is
            # known now: the window of step n + i starts i rows early, on rows
            # of alphas still to come, which read zero
            b = min(_BLOCK, self.n_steps - n + 1)
            terms = min(n + b - 2, lags)
            flat = self.past.ravel()
            windows = np.stack([flat[(row - i) * n_coarse:(row - i + terms) * n_coarse]
                                for i in range(b)])
            self.known = windows @ gamma[:terms * n_coarse]
        # the lags inside the block, alpha^{n-1} .. alpha^{n-j}
        inner = min(j, lags)
        return (self.known[j]
                + gamma[:inner * n_coarse].T @ self.past[row:row + inner].ravel())

    def states(self, alpha):
        self.gamma = self.past = self.known = None
        # time runs along the rows of one fine dof, so a node adds contiguous runs
        states = self.Q @ alpha.T
        n_steps = alpha.shape[0] - 1
        for x, dofs, xi in self.items:
            length = min(xi.shape[0], n_steps - 1)
            # row i, column l - 1: the weight alpha_x^{i+2-l} of xi^l in w^{i+2};
            # the leading length x length block T is lower triangular
            weights = scipy.linalg.toeplitz(alpha[1:n_steps, x], np.zeros(length))
            # xi^T T^T = (T xi)^T, with xi^T and T^T the Fortran views of xi and T
            states[dofs, 2:length + 2] += scipy.linalg.blas.dtrmm(
                1.0, weights[:length].T, xi[:length].T, side=1, lower=0)
            if length < n_steps - 1:
                states[dofs, length + 2:] += xi[:length].T @ weights[length:].T
        return np.ascontiguousarray(states.T)


def _multiscale(correctors):
    return correctors.Q, correctors.M_ms, correctors.A_ms, correctors.B_ms


def galerkin_wave_solve(basis, forms, f, grid, alpha0, alpha1):
    """Damped wave scheme posed in the span of the given basis, no fine correction.

    Used for the coarse FEM baseline (basis = prolongation) and for the
    single-coefficient corrected bases.
    """
    grams = [(basis.T @ mat @ basis).toarray() for mat in (forms.M, forms.K_A, forms.K_B)]
    return _gfem_steps(basis, *grams, forms, f, grid, alpha0, alpha1)


def ideal_gfem_solve(correctors, interp, forms, f, grid, alpha0, alpha1):
    """GFEM with global correctors: coarse multiscale step plus one fine-scale
    solve per time step; initial data lives in the multiscale space."""
    saddle = linalg.factor_saddle(forms.K_tilde, interp)
    return _gfem_steps(*_multiscale(correctors), forms, f, grid, alpha0, alpha1,
                       _PerStep(correctors.Q, forms, grid,
                                lambda n, alpha, memory: saddle.solve(memory)[0]))


def localized_gfem_solve(correctors, transients, forms, f, grid, alpha0, alpha1):
    """Localized GFEM: the fine-scale part is superposed from the stored
    per-node correction sequences weighted by the coarse coefficient history."""
    if any(tc.config != correctors.config for tc in transients.values()):
        raise ValueError("transient correctors were built for another config")
    return _gfem_steps(*_multiscale(correctors), forms, f, grid, alpha0, alpha1,
                       _Superposition(correctors, transients, forms, grid))


def localized_gfem_solve_direct(correctors, interp, forms, f, grid, alpha0, alpha1):
    """Debug variant: per-node fine-scale systems solved directly in every step."""
    Q_csc = correctors.Q.tocsc()
    patches = [transient_patch(correctors.pair, interp, forms, correctors, d, Q_csc)
               for d in range(correctors.pair.coarse.n_dofs)]
    w_prev = [np.zeros(patch.dofs.size) for patch, _ in patches]

    def patch_solves(n, alpha, memory):
        w = np.zeros(forms.fine.n_dofs)
        for d, (patch, r1) in enumerate(patches):
            w_prev[d] = patch.solve(patch.k_a @ w_prev[d] + alpha[n - 1, d] * r1)
            w[patch.dofs] += w_prev[d]
        return w

    return _gfem_steps(*_multiscale(correctors), forms, f, grid, alpha0, alpha1,
                       _PerStep(correctors.Q, forms, grid, patch_solves))


def aux_fine_solve(forms, f, z0, grid):
    """First-order auxiliary problem on the fine mesh."""
    tau = grid.tau
    fact = linalg.Factorization(forms.K_tilde)
    load = _load(forms, f)
    states = np.zeros((grid.n_steps + 1, forms.fine.n_dofs))
    states[0] = z0
    for n in range(1, grid.n_steps + 1):
        states[n] = fact.solve(tau * load(n * tau) + forms.K_A @ states[n - 1])
    return Trajectory(grid, states)


def aux_gfem_solve(correctors, interp, forms, f, alpha0, grid):
    """GFEM for the auxiliary problem; reproduces the fine solution when f = 0."""
    tau = grid.tau
    Q = correctors.Q
    QT = Q.T
    lhs = scipy.linalg.lu_factor(correctors.A_ms + tau * correctors.B_ms)
    saddle = linalg.factor_saddle(forms.K_tilde, interp)
    load = _load(forms, f, lambda fine: tau * (QT @ fine))

    alpha = np.zeros((grid.n_steps + 1, Q.shape[1]))
    alpha[0] = alpha0
    states = np.zeros((grid.n_steps + 1, forms.fine.n_dofs))
    states[0] = Q @ alpha[0]
    for n in range(1, grid.n_steps + 1):
        memory = forms.K_A @ states[n - 1]
        alpha[n] = scipy.linalg.lu_solve(lhs, load(n * tau) + QT @ memory)
        w, _ = saddle.solve(memory)
        states[n] = Q @ alpha[n] + w
    return Trajectory(grid, states, alpha=alpha)


# ----------------------------------------------------------------------------
# error norms

def rel_h1_final(forms, trajectory, reference):
    """Relative H1 distance of the final states."""
    final = reference.states[-1]
    error, denom = h1_norms(forms, [trajectory.states[-1] - final, final])
    return error / denom if denom > 0 else error


def rel_l2h1(forms, trajectory, reference):
    """Relative time-integrated H1 error, (sum tau ||e^n||^2)^(1/2), n >= 1."""
    tau = trajectory.grid.tau
    num = 0.0
    den = 0.0
    for start in range(1, trajectory.states.shape[0], _BLOCK):
        steps = slice(start, start + _BLOCK)
        errors = h1_norms(forms, trajectory.states[steps] - reference.states[steps])
        norms = h1_norms(forms, reference.states[steps])
        for error, norm in zip(errors, norms):
            num += tau * error ** 2
            den += tau * norm ** 2
    return np.sqrt(num / den) if den > 0 else np.sqrt(num)
