"""Backward Euler time steppers: fine FEM, ideal and localized GFEM, auxiliary problem."""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .assembly import assemble_load, h1_norms
from .lod import transient_patch


@dataclass(frozen=True)
class TimeGrid:
    """The steps of one trajectory; every solver builds it from forms.tau and
    its n_steps before any work."""
    tau: float
    n_steps: int

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("time step must be positive")
        if not isinstance(self.n_steps, numbers.Integral) or isinstance(self.n_steps, bool):
            raise ValueError("n_steps must be an integer, got %r" % (self.n_steps,))
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


def fine_fem_solve(forms, f, u0, u1, n_steps):
    """Reference backward Euler FEM for the damped wave equation."""
    grid = TimeGrid(forms.tau, n_steps)
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


def _gfem_steps(Q, M_ms, A_ms, B_ms, forms, f, grid, initial, fine_scale=None):
    """Backward Euler in the span of Q, the one loop behind every coarse-space scheme.

    Step n solves (M/tau + A + tau B) alpha^n = tau Q^T F^n + Q^T K_A u^{n-1}
    + M (2 alpha^{n-1} - alpha^{n-2}) / tau, where u^n = Q alpha^n + w^n, after
    the initial coefficients (alpha^0, alpha^1), or (alpha^0,) with M = 0. The
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
    alpha[:len(initial)] = initial
    for n in range(len(initial), grid.n_steps + 1):
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
    It reads the members xi^1 .. xi^{N-1} of each sequence, N = grid.n_steps.
    """

    def __init__(self, correctors, transients, grid):
        Q = self.Q = correctors.Q
        n_coarse = Q.shape[1]
        horizon = transient_horizon(grid.n_steps)
        self.items = [(x, tc.dofs, tc.xi[:horizon]) for x, tc in transients.items()]
        # lag-major, gamma[l, x] = Gamma_l[:, x]; lag 0 is the coarse part A_ms,
        # and step N reads the lags up to N - 2 from the memory matrices
        lags = horizon - 1
        self.gamma = np.zeros((lags + 1, n_coarse, n_coarse))
        self.gamma[0] = correctors.A_ms.T
        QT_K_A = (Q.T @ correctors.forms.K_A).toarray()
        for x, dofs, xi in self.items:
            self.gamma[1:, x] = xi[:lags] @ QT_K_A[:, dofs].T
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
            # row i, column l - 1: the weight alpha_x^{i+2-l} of xi^l in w^{i+2};
            # T is lower triangular
            weights = scipy.linalg.toeplitz(alpha[1:n_steps, x], np.zeros(n_steps - 1))
            # xi^T T^T = (T xi)^T, with xi^T and T^T the Fortran views of xi and T
            states[dofs, 2:] += scipy.linalg.blas.dtrmm(1.0, weights.T, xi.T,
                                                        side=1, lower=0)
        return np.ascontiguousarray(states.T)


class _Recurrence:
    """Fine-scale part of sequences given as node bands (dofs, R, diag, lower,
    upper, w), stepped in band coordinates: w^n = sum_x R_x^T t_x^n, where
    t_x^{n+1} = T_x t_x^n + w_x alpha_x^n e_1 and t^1 = 0, which is the
    superposition of _Superposition over the members w_x R_x^T T_x^{l-1} e_1.
    T_x is tridiagonal: diag, lower[i] from row i into row i + 1 and upper[i]
    from row i + 1 into row i; each last entry couples to no row.

    The coordinates of all nodes are stacked, so a step is a few vector
    operations. The coarse step reads Q^T K_A u^{n-1} = A_ms alpha^{n-1} +
    G t^{n-1}, with G = [(Q^T K_A)[:, dofs_x] R_x^T]_x, and the fine states
    are filled once after the loop, one product per node.
    """

    def __init__(self, correctors, bands, grid):
        self.Q, self.A_ms = correctors.Q, correctors.A_ms
        dofs, rows, diag, lower, upper, weight = zip(*bands)
        counts = [R.shape[0] for R in rows]
        ends = np.cumsum(counts)
        self.first = ends - counts
        self.diag, self.weight = np.concatenate(diag), np.array(weight)
        # no coupling crosses a node boundary
        self.lower, self.upper = np.concatenate(lower)[:-1], np.concatenate(upper)[:-1]
        self.lower[ends[:-1] - 1] = self.upper[ends[:-1] - 1] = 0.0
        QT_K_A = (self.Q.T @ correctors.forms.K_A).toarray()
        self.G = np.empty((self.Q.shape[1], ends[-1]))
        self.items = [(d, R, slice(end - R.shape[0], end))
                      for d, R, end in zip(dofs, rows, ends)]
        for d, R, span in self.items:
            self.G[:, span] = QT_K_A[:, d] @ R.T
        # t[n] = t^n; t^0 and t^1 stay zero
        self.t = np.zeros((grid.n_steps + 1, ends[-1]))

    def _advance(self, n, alpha):
        """t^n from t^{n-1} and alpha^{n-1}, n >= 2."""
        prev, t = self.t[n - 1], self.t[n]
        np.multiply(self.diag, prev, out=t)
        t[1:] += self.lower * prev[:-1]
        t[:-1] += self.upper * prev[1:]
        t[self.first] += self.weight * alpha[n - 1]

    def memory(self, n, alpha):
        if n >= 3:
            self._advance(n - 1, alpha)
        return self.A_ms @ alpha[n - 1] + self.G @ self.t[n - 1]

    def states(self, alpha):
        n_steps = alpha.shape[0] - 1
        self._advance(n_steps, alpha)
        self.G = None
        states = self.Q @ alpha.T
        for dofs, R, span in self.items:
            states[dofs, 2:] += R.T @ self.t[2:, span].T
        return np.ascontiguousarray(states.T)


def transient_horizon(n_steps):
    """The length of the correction sequences a run of n_steps reads: the
    superposition takes xi^1 .. xi^{n_steps - 1}."""
    return n_steps - 1


def _multiscale(correctors):
    return correctors.Q, correctors.M_ms, correctors.A_ms, correctors.B_ms, correctors.forms


def _global_saddle(correctors, grid):
    """The fine-scale hook of the ideal and auxiliary GFEM: one global saddle
    solve per step."""
    forms = correctors.forms
    saddle = linalg.factor_saddle(forms.K_tilde, forms.interp)
    return _PerStep(correctors.Q, forms, grid,
                    lambda n, alpha, memory: saddle.solve(memory)[0])


def galerkin_wave_solve(basis, forms, f, n_steps, alpha0, alpha1):
    """Damped wave scheme posed in the span of the given basis, no fine correction.

    Used for the coarse FEM baseline (basis = prolongation) and for the
    single-coefficient corrected bases.
    """
    grid = TimeGrid(forms.tau, n_steps)
    grams = [(basis.T @ mat @ basis).toarray() for mat in (forms.M, forms.K_A, forms.K_B)]
    return _gfem_steps(basis, *grams, forms, f, grid, (alpha0, alpha1))


def ideal_gfem_solve(correctors, f, n_steps, alpha0, alpha1):
    """GFEM with global correctors: coarse multiscale step plus one fine-scale
    solve per time step; initial data lives in the multiscale space."""
    grid = TimeGrid(correctors.forms.tau, n_steps)
    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1),
                       _global_saddle(correctors, grid))


def _check_transients(correctors, transients, n_steps):
    """The TimeGrid of n_steps, after checking that transients hold one sequence
    of correctors per coarse node, keyed 0 .. n_coarse - 1, each of a horizon
    of at least transient_horizon(n_steps) members."""
    grid = TimeGrid(correctors.forms.tau, n_steps)
    if any(tc.correctors is not correctors for tc in transients.values()):
        raise ValueError("transient correctors were built from another corrector set")
    n_coarse = correctors.Q.shape[1]
    if set(transients) != set(range(n_coarse)):
        raise ValueError("transients must hold one sequence per coarse node, keyed "
                         "0 .. %d" % (n_coarse - 1))
    horizon = transient_horizon(n_steps)
    for x, tc in transients.items():
        if tc.horizon < horizon:
            raise ValueError("the sequence of node %d has %d members, fewer than the "
                             "%d a run of %d steps reads"
                             % (x, tc.horizon, horizon, n_steps))
    return grid


def localized_gfem_solve(correctors, transients, f, n_steps, alpha0, alpha1):
    """Localized GFEM: the fine-scale part is the superposition of the
    per-node correction sequences (see _check_transients) weighted by the
    coarse coefficient history. Certified sequences run through _Recurrence,
    each as the band (dofs, Z, alpha, beta, beta, norm1), stored members (the
    power iterates) through _Superposition; a mix of the two is rejected."""
    grid = _check_transients(correctors, transients, n_steps)
    kinds = {tc.certified for tc in transients.values()}
    if len(kinds) > 1:
        raise ValueError("transients mix certified sequences and stored members")
    hook = (_Recurrence(correctors, [(tc.dofs, tc.xi, tc.alpha, tc.beta, tc.beta, tc.norm1)
                                     for _, tc in sorted(transients.items())], grid)
            if kinds == {True} else _Superposition(correctors, transients, grid))
    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1), hook)


def localized_gfem_solve_direct(correctors, f, n_steps, alpha0, alpha1):
    """Debug variant: per-node fine-scale systems solved directly in every step."""
    forms = correctors.forms
    grid = TimeGrid(forms.tau, n_steps)
    Q_csc = correctors.Q.tocsc()
    patches = [transient_patch(correctors, d, Q_csc)
               for d in range(forms.pair.coarse.n_dofs)]
    w_prev = [np.zeros(patch.dofs.size) for patch, _ in patches]

    def patch_solves(n, alpha, memory):
        w = np.zeros(forms.fine.n_dofs)
        for d, (patch, r1) in enumerate(patches):
            w_prev[d] = patch.solve(patch.k_a @ w_prev[d] + alpha[n - 1, d] * r1)
            w[patch.dofs] += w_prev[d]
        return w

    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1),
                       _PerStep(correctors.Q, forms, grid, patch_solves))


def aux_fine_solve(forms, f, z0, n_steps):
    """First-order auxiliary problem on the fine mesh."""
    grid = TimeGrid(forms.tau, n_steps)
    tau = grid.tau
    fact = linalg.Factorization(forms.K_tilde)
    load = _load(forms, f)
    states = np.zeros((grid.n_steps + 1, forms.fine.n_dofs))
    states[0] = z0
    for n in range(1, grid.n_steps + 1):
        states[n] = fact.solve(tau * load(n * tau) + forms.K_A @ states[n - 1])
    return Trajectory(grid, states)


def aux_gfem_solve(correctors, f, alpha0, n_steps):
    """GFEM for the auxiliary problem; reproduces the fine solution when f = 0."""
    grid = TimeGrid(correctors.forms.tau, n_steps)
    Q, _, A_ms, B_ms, forms = _multiscale(correctors)
    return _gfem_steps(Q, np.zeros_like(A_ms), A_ms, B_ms, forms, f, grid, (alpha0,),
                       _global_saddle(correctors, grid))


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
