"""Sparse direct factorizations and saddle-point solves with Lagrange multipliers."""

import threading

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

SOLVE_TOL = 1e-12
SADDLE_TOL = 1e-10


class SingularSystemError(RuntimeError):
    """Raised when a factorization hits an exactly singular system."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class DegenerateConstraintError(ValueError):
    """Raised when the constraint rows are rank deficient (a zero row included)."""


class InaccurateSolveError(SingularSystemError):
    """Raised when a direct solve misses its residual tolerance after refinement."""


class ConstraintViolationError(InaccurateSolveError):
    """Raised when a saddle solution violates its constraints beyond tolerance."""


def _find_pivot(matrix):
    # dense rank-revealing QR, only affordable for small systems
    n = matrix.shape[0]
    if n > 4096:
        return None
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)
    _, r_mat, perm = scipy.linalg.qr(dense, pivoting=True)
    diag = np.abs(np.diag(r_mat))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    small = np.flatnonzero(diag <= n * np.finfo(float).eps * scale)
    if small.size == 0:
        return int(perm[-1])
    return int(perm[small[0]])


def _splu(matrix):
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as err:
        if "singular" in str(err).lower():
            raise SingularSystemError(
                "singular system", pivot=_find_pivot(matrix)
            ) from err
        raise


class Factorization:
    """Reusable direct factorization; solves are serialized by a lock."""

    def __init__(self, matrix):
        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = matrix.tocsr()
        self._lu = _splu(matrix)
        self._lock = threading.Lock()

    @property
    def shape(self):
        return self.matrix.shape

    def _raw_solve(self, b):
        with self._lock:
            return self._lu.solve(b)

    def _misses(self, b, x, tol=SOLVE_TOL):
        """Per column of the (n, c) blocks b and x, whether x misses the residual
        tolerance tol * ||b|| of its own column (a NaN misses)."""
        residual = b - self.matrix @ x
        return ~(np.linalg.norm(residual, axis=0) <= tol * np.linalg.norm(b, axis=0))

    def solve(self, b, tol=SOLVE_TOL):
        """x with matrix @ x = b, for a vector b or column by column of an
        (n, c) block; each column is held to its own residual tolerance."""
        b = np.asarray(b, dtype=float)
        x = self._raw_solve(b)
        # column views of b and x, a single column for a vector
        cols_b = b.reshape(b.shape[0], -1)
        cols_x = x.reshape(cols_b.shape)
        cols_x[:, np.linalg.norm(cols_b, axis=0) == 0.0] = 0.0
        miss = self._misses(cols_b, cols_x, tol)
        if miss.any():
            # one step of iterative refinement on the columns that missed
            cols_x[:, miss] += self._raw_solve(
                cols_b[:, miss] - self.matrix @ cols_x[:, miss])
            miss = self._misses(cols_b, cols_x, tol)
        if miss.any():
            raise InaccurateSolveError("direct solve residual too large")
        return x


class SaddleFactorization:
    """Factorization of [[A, C^T], [C, 0]]; every row of C must be nonzero."""

    def __init__(self, A, C):
        A = A.tocsr()
        C = C.tocsr()
        self.n = A.shape[0]
        self.C = C
        kkt = sparse.bmat([[A, C.T], [C, None]], format="csc")
        try:
            self._fact = Factorization(kkt)
        except SingularSystemError as err:
            if factorizes(A):
                raise DegenerateConstraintError(
                    "degenerate constraint rows in saddle system"
                ) from err
            raise

    def _check_constraints(self, r, w, tol):
        # r and w are (n, c) blocks; a zero column of r constrains nothing
        norm_r = np.linalg.norm(r, axis=0)
        violated = (norm_r > 0.0) & ~(np.max(np.abs(self.C @ w), axis=0) <= tol * norm_r)
        if violated.any():
            raise ConstraintViolationError("constraint violated")

    def solve(self, r, tol=SADDLE_TOL):
        """(w, mu) for a vector r or column by column of an (n, c) block."""
        r = np.asarray(r, dtype=float)
        rhs = np.concatenate([r, np.zeros((self.C.shape[0],) + r.shape[1:])])
        sol = self._fact.solve(rhs, tol=tol)
        w = sol[: self.n]
        self._check_constraints(r.reshape(self.n, -1), w.reshape(self.n, -1), tol)
        return w, sol[self.n :]

    def count_accurate(self, rhs, sol, tol=SADDLE_TOL):
        """How many leading columns of sol, unchecked solves of the full
        right-hand sides rhs = [r; 0] (both (n + constraints, c) blocks), pass
        the residual test of solve. Raises ConstraintViolationError where one
        of those breaks its constraints, as solve would."""
        miss = np.flatnonzero(self._fact._misses(rhs, sol, tol))
        good = miss[0] if miss.size else rhs.shape[1]
        self._check_constraints(rhs[: self.n, :good], sol[: self.n, :good], tol)
        return int(good)


def factorizes(matrix):
    try:
        spla.splu(matrix.tocsc())
        return True
    except RuntimeError:
        return False


def factor_saddle(A, C):
    """Factor the saddle system once for repeated right-hand sides."""
    return SaddleFactorization(A, C)
