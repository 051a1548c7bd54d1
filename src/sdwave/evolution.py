"""Backward Euler time steppers: fine FEM, ideal and localized GFEM, auxiliary problem."""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .assembly import assemble_load, h1_norms
from .mesh import prolongation


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


class Trajectory:
    """The fine states u^0 .. u^N of a run on grid, and its coarse
    coefficients alpha where applicable.

    The states are one (N + 1, fine dofs) array, checked here, or, for a
    localized run, a reader that fills them window by window
    (_Recurrence.steps) and checks each window it reads; then alpha is
    checked here. The error norms read every trajectory through _steps;
    states holds them all in one array.
    """

    def __init__(self, grid, states, alpha=None):
        self.grid, self.alpha, self._states = grid, alpha, states
        if isinstance(states, np.ndarray):
            if not np.all(np.isfinite(states)):
                raise ValueError("trajectory contains non-finite states")
        elif not np.all(np.isfinite(alpha)):
            raise ValueError("trajectory contains non-finite coefficients")

    def _steps(self, lo, hi):
        """The states of steps lo .. min(hi, N + 1) - 1."""
        hi = min(hi, self.grid.n_steps + 1)
        if isinstance(self._states, np.ndarray):
            return self._states[lo:hi]
        return self._states.steps(lo, hi)

    @property
    def states(self):
        """Every state, (N + 1, fine dofs); a reader fills a new array."""
        return self._steps(0, self.grid.n_steps + 1)


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
    out = []
    for start in range(1, trajectory.grid.n_steps + 1, _BLOCK):
        states = trajectory._steps(start - 1, start + _BLOCK)
        for prev, state in zip(states[:-1], states[1:]):
            du = (state - prev) / tau
            out.append(0.5 * du @ (forms.M @ du) + 0.5 * state @ (forms.K_B @ state))
    return np.array(out)


def _gfem_steps(Q, M_ms, A_ms, B_ms, forms, f, grid, initial, fine_scale=None):
    """Backward Euler in the span of Q, the one loop behind every coarse-space scheme.

    Step n solves (M/tau + A + tau B) alpha^n = tau Q^T F^n + Q^T K_A u^{n-1}
    + M (2 alpha^{n-1} - alpha^{n-2}) / tau, where u^n = Q alpha^n + w^n, after
    the initial coefficients (alpha^0, alpha^1), or (alpha^0,) with M = 0. The
    fine-scale part w enters only through fine_scale: fine_scale.memory(n, alpha)
    returns Q^T K_A u^{n-1}, fine_scale.resume(n) the step to take after step
    n, and fine_scale.states(alpha) the fine states after the loop, as one
    array or as a reader of them (see Trajectory). Without one, w = 0.
    LAPACK's getrs is called directly: it is the solve of
    scipy.linalg.lu_solve, without its checks of every call; Trajectory
    rejects a non-finite state.
    """
    tau = grid.tau
    QT = Q.T
    if fine_scale is None:
        fine_scale = _PerStep(Q, forms, grid)
    lu, piv = scipy.linalg.lu_factor(M_ms / tau + A_ms + tau * B_ms)
    load = _load(forms, f, lambda fine: tau * (QT @ fine))

    alpha = np.zeros((grid.n_steps + 1, Q.shape[1]))
    alpha[:len(initial)] = initial
    n = len(initial)
    while n <= grid.n_steps:
        rhs = (load(n * tau)
               + fine_scale.memory(n, alpha)
               + M_ms @ (2.0 * alpha[n - 1] - alpha[n - 2]) / tau)
        alpha[n], info = scipy.linalg.lapack.dgetrs(lu, piv, rhs)
        if info != 0:
            raise ValueError("illegal argument %d of getrs" % -info)
        n = fine_scale.resume(n)
    return Trajectory(grid, fine_scale.states(alpha), alpha=alpha)


class _StepOn:
    """A fine-scale hook whose steps stand: the loop always steps on."""

    def resume(self, n):
        return n + 1


class _PerStep(_StepOn):
    """Fine-scale part w^n held per step, w = 0 here; a subclass sets w^n in
    memory(n, alpha). Initial states carry no fine-scale part.

    w^n depends on step n - 1 alone, so it is computed with the memory term of
    step n, before alpha^n is solved.
    """

    def __init__(self, Q, forms, grid):
        self.Q, self.QT, self.K_A = Q, Q.T, forms.K_A
        self.w = np.zeros((grid.n_steps + 1, Q.shape[0]))

    def memory(self, n, alpha):
        return self.QT @ (self.K_A @ (self.Q @ alpha[n - 1] + self.w[n - 1]))

    def states(self, alpha):
        for lo in range(0, alpha.shape[0], _BLOCK):
            self.w[lo:lo + _BLOCK] += (self.Q @ alpha[lo:lo + _BLOCK].T).T
        return self.w


# steps per block of the error norms and of _PerStep's Q alpha, which take one
# product per block to bound their temporaries
_BLOCK = 16

# steps of band coordinates, and of filled fine states, that _Recurrence
# keeps
_WINDOW = 64


class _GlobalSaddle(_PerStep):
    """The ideal method on the one global saddle system S of K_tilde over the
    interpolation kernel, the forms' saddle matrix, which the forms keep only
    for the patches that gather from it, factored once in symmetric mode
    (linalg falls back to the default factorization).

    Its basis is Q = P - S^-1 (K_tilde P), dense: the prolongation P minus the
    fine-scale part of one checked block solve of all coarse columns, with
    the grams M_ms, A_ms, B_ms and the dense coupling KQ = K_A Q. Its
    fine-scale part w^n is the saddle solve of K_A u^{n-1} = KQ alpha^{n-1} +
    K_A w^{n-1}, and the coarse step reads Q^T K_A u^{n-1} = A_ms alpha^{n-1}
    + KQ^T w^{n-1}. The time steps are the steps of linalg._CheckedSteps, so
    the states are those of one checked solve per step.
    """

    def __init__(self, forms, grid):
        saddle = linalg.factor_saddle(forms.saddle_matrix("K_tilde", keep=False),
                                      forms.fine.n_dofs,
                                      _symmetric=True)
        P = prolongation(forms.pair)
        Q = P.toarray() - saddle.solve((forms.K_tilde @ P).toarray())[0]
        super().__init__(Q, forms, grid)
        self.forms = forms
        self.KQ = forms.K_A @ Q
        self.M_ms = Q.T @ (forms.M @ Q)
        self.A_ms = Q.T @ self.KQ
        self.B_ms = Q.T @ (forms.K_B @ Q)
        self.steps = linalg._CheckedSteps(saddle)
        self.n_steps = grid.n_steps

    def memory(self, n, alpha):
        self.w[n] = self.steps.solve(n, self.KQ @ alpha[n - 1] + self.K_A @ self.w[n - 1])
        return self.A_ms @ alpha[n - 1] + self.KQ.T @ self.w[n - 1]

    def resume(self, n):
        return self.steps.next(n, last=n == self.n_steps)


class _Recurrence(_StepOn):
    """Fine-scale part of sequences given as node bands (dofs, R, diag, lower,
    upper, w), stepped in band coordinates: w^n = sum_x R_x^T t_x^n, where
    t_x^{n+1} = T_x t_x^n + w_x alpha_x^n e_1 and t^1 = 0, which is the
    superposition w^n = sum_x sum_{l=1}^{n-1} alpha_x^{n-l} xi_x^l of the
    members xi_x^l = w_x R_x^T T_x^{l-1} e_1 (alpha^0 never enters).
    T_x is tridiagonal: diag, lower[i] from row i into row i + 1 and upper[i]
    from row i + 1 into row i; each last entry couples to no row.

    The coordinates of all nodes are stacked, so a step is a few vector
    operations. The coarse step reads Q^T K_A u^{n-1} = A_ms alpha^{n-1} +
    G t^{n-1}, with G = [(correctors.KQ^T)[:, dofs_x] R_x^T]_x. Only a window
    of W = min(_WINDOW, N + 1) steps of t is kept, t^n in row n mod W, up to
    t^last, the newest step held. The states are this reader (steps): after
    the loop t holds the last window, and reading a window steps t on to its
    last step, from t^1 = 0 again if the window lies behind t^last, and fills
    its states from t; so a run read in step order replays each earlier
    window once.
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
        QT_K_A = correctors.KQ.T.toarray()
        self.G = np.empty((self.Q.shape[1], ends[-1]))
        self.items = [(d, R, slice(end - R.shape[0], end))
                      for d, R, end in zip(dofs, rows, ends)]
        for d, R, span in self.items:
            self.G[:, span] = QT_K_A[:, d] @ R.T
        # t[n % window] = t^n for n <= last; t^0 and t^1 are zero
        self.t = np.zeros((min(_WINDOW, grid.n_steps + 1), ends[-1]))
        self.last = 1

    def _advance(self, alpha):
        """t^{last+1} from t^last and alpha^last."""
        window, n = self.t.shape[0], self.last
        prev, t = self.t[n % window], self.t[(n + 1) % window]
        np.multiply(self.diag, prev, out=t)
        t[1:] += self.lower * prev[:-1]
        t[:-1] += self.upper * prev[1:]
        t[self.first] += self.weight * alpha[n]
        self.last = n + 1

    def _fill(self, lo, hi, alpha):
        """The fine states of steps lo .. hi - 1 of one window, from its rows
        0 .. hi - lo - 1 of t."""
        block = self.Q @ alpha[lo:hi].T
        for dofs, R, span in self.items:
            block[dofs] += R.T @ self.t[:hi - lo, span].T
        return np.ascontiguousarray(block.T)

    def memory(self, n, alpha):
        if n >= 3:
            self._advance(alpha)
        return self.A_ms @ alpha[n - 1] + self.G @ self.t[(n - 1) % self.t.shape[0]]

    def states(self, alpha):
        self._advance(alpha)
        self.G = None
        self.alpha, self.held = alpha, (None, None)
        return self

    def steps(self, lo, hi):
        """The states of steps lo .. hi - 1, copied from the windows that
        hold them (_window)."""
        window = self.t.shape[0]
        out = np.empty((hi - lo, self.Q.shape[0]))
        for start in range(lo - lo % window, hi, window):
            states = self._window(start)
            a, b = max(lo, start), min(hi, start + window)
            out[a - lo:b - lo] = states[a - start:b - start]
        return out

    def _window(self, lo):
        """The checked states of the window that starts at step lo. Only the
        last window read is held."""
        if self.held[0] != lo:
            self.held = None, None      # freed before the next one is filled
            alpha = self.alpha
            hi = min(lo + self.t.shape[0], alpha.shape[0])
            if self.last >= hi:
                self.t[:2], self.last = 0.0, 1
            while self.last < hi - 1:
                self._advance(alpha)
            states = self._fill(lo, hi, alpha)
            if not np.all(np.isfinite(states)):
                raise ValueError("trajectory contains non-finite states")
            self.held = lo, states
        return self.held[1]


def transient_horizon(n_steps):
    """The length of the correction sequences a run of n_steps reads: the
    superposition takes xi^1 .. xi^{n_steps - 1}."""
    return n_steps - 1


def _multiscale(correctors):
    """The basis, grams and forms of a corrector set or of _GlobalSaddle."""
    return correctors.Q, correctors.M_ms, correctors.A_ms, correctors.B_ms, correctors.forms


def galerkin_wave_solve(basis, forms, f, n_steps, alpha0, alpha1):
    """Damped wave scheme posed in the span of the given basis, no fine correction.

    Used for the coarse FEM baseline (basis = prolongation) and for the
    single-coefficient corrected bases.
    """
    grid = TimeGrid(forms.tau, n_steps)
    grams = [(basis.T @ mat @ basis).toarray() for mat in (forms.M, forms.K_A, forms.K_B)]
    return _gfem_steps(basis, *grams, forms, f, grid, (alpha0, alpha1))


def ideal_gfem_solve(forms, f, n_steps, alpha0, alpha1):
    """GFEM with global correctors: coarse multiscale step plus one fine-scale
    solve per time step, both on the one global saddle factorization
    (_GlobalSaddle); initial data lives in the multiscale space."""
    grid = TimeGrid(forms.tau, n_steps)
    ideal = _GlobalSaddle(forms, grid)
    return _gfem_steps(*_multiscale(ideal), f, grid, (alpha0, alpha1), ideal)


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
    per-node certified sequences (see _check_transients) weighted by the
    coarse coefficient history, stepped by _Recurrence, each sequence as the
    band (dofs, Z, alpha, beta, beta, norm1) of its Lanczos form."""
    grid = _check_transients(correctors, transients, n_steps)
    bands = [(tc.dofs, tc.xi, tc.alpha, tc.beta, tc.beta, tc.norm1)
             for _, tc in sorted(transients.items())]
    return _gfem_steps(*_multiscale(correctors), f, grid, (alpha0, alpha1),
                       _Recurrence(correctors, bands, grid))


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


def aux_gfem_solve(forms, f, alpha0, n_steps):
    """GFEM for the auxiliary problem on the basis and global saddle
    factorization of the ideal method; reproduces the fine solution when f = 0."""
    grid = TimeGrid(forms.tau, n_steps)
    ideal = _GlobalSaddle(forms, grid)
    return _gfem_steps(ideal.Q, np.zeros_like(ideal.A_ms), ideal.A_ms, ideal.B_ms, forms,
                       f, grid, (alpha0,), ideal)


# ----------------------------------------------------------------------------
# error norms

def _check_grids(trajectory, reference):
    if trajectory.grid != reference.grid:
        raise ValueError("the trajectory steps on %s, its reference on %s"
                         % (trajectory.grid, reference.grid))


def rel_h1_final(forms, trajectory, reference):
    """Relative H1 distance of the final states, of trajectories on one TimeGrid."""
    _check_grids(trajectory, reference)
    last = trajectory.grid.n_steps
    final = reference._steps(last, last + 1)[0]
    error, denom = h1_norms(forms, [trajectory._steps(last, last + 1)[0] - final, final])
    return error / denom if denom > 0 else error


def rel_l2h1(forms, trajectory, reference):
    """Relative time-integrated H1 error, (sum tau ||e^n||^2)^(1/2), n >= 1,
    of trajectories on one TimeGrid."""
    _check_grids(trajectory, reference)
    tau = trajectory.grid.tau
    num = 0.0
    den = 0.0
    for start in range(1, trajectory.grid.n_steps + 1, _BLOCK):
        want = reference._steps(start, start + _BLOCK)
        errors = h1_norms(forms, trajectory._steps(start, start + _BLOCK) - want)
        norms = h1_norms(forms, want)
        for error, norm in zip(errors, norms):
            num += tau * error ** 2
            den += tau * norm ** 2
    return np.sqrt(num / den) if den > 0 else np.sqrt(num)
