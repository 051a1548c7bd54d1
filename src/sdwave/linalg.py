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

    def solve(self, b, tol=SOLVE_TOL):
        b = np.asarray(b, dtype=float)
        norm_b = np.linalg.norm(b)
        if norm_b == 0.0:
            return np.zeros_like(b)
        x = self._raw_solve(b)
        residual = b - self.matrix @ x
        if np.linalg.norm(residual) > tol * norm_b:
            # one step of iterative refinement
            x = x + self._raw_solve(residual)
            residual = b - self.matrix @ x
        if not np.linalg.norm(residual) <= tol * norm_b:
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

    def solve(self, r, tol=SADDLE_TOL):
        r = np.asarray(r, dtype=float)
        rhs = np.concatenate([r, np.zeros(self.C.shape[0])])
        sol = self._fact.solve(rhs, tol=tol)
        w = sol[: self.n]
        norm_r = np.linalg.norm(r)
        if norm_r > 0.0 and not np.max(np.abs(self.C @ w)) <= tol * norm_r:
            raise ConstraintViolationError("constraint violated")
        return w, sol[self.n :]


def factorizes(matrix):
    try:
        spla.splu(matrix.tocsc())
        return True
    except RuntimeError:
        return False


def factor_saddle(A, C):
    """Factor the saddle system once for repeated right-hand sides."""
    return SaddleFactorization(A, C)
