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


# the SuperLU options of symmetric mode: a minimum-degree ordering on A^T + A
# and diagonal pivots (X. S. Li, SuperLU users' guide)
_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))


def _splu(matrix, symmetric=False):
    try:
        return spla.splu(matrix, **(_SYMMETRIC if symmetric else {}))
    except RuntimeError as err:
        if "singular" in str(err).lower():
            # a symmetric-mode failure is refactored in the default mode, so
            # its pivot is not searched for
            raise SingularSystemError(
                "singular system", pivot=None if symmetric else _find_pivot(matrix)
            ) from err
        raise


def _check_indices(index, size, what):
    """index as an array, after checking that it is a non-empty 1-D integer
    array, strictly ascending and within [0, size); raises ValueError."""
    index = np.asarray(index)
    if index.ndim != 1 or index.size == 0 or not np.issubdtype(index.dtype, np.integer):
        raise ValueError("%s must be a non-empty 1-D integer array" % what)
    signed = index.astype(np.int64)
    if signed[0] < 0 or signed[-1] >= size or np.any(np.diff(signed) <= 0):
        raise ValueError("%s must be strictly ascending within [0, %d)" % (what, size))
    return index


def _row_positions(A, rows):
    """(pos, ends) for the rows (the columns of a CSC) `rows` of a compressed
    A: pos are the positions in A of their entries, row after row, and ends
    the end of each row's run in pos."""
    starts = A.indptr[rows]
    counts = A.indptr[rows + 1] - starts
    ends = np.cumsum(counts, dtype=np.int64)
    pos = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)
    return pos, ends


def _submatrix(A, rows, cols):
    """A[rows][:, cols] of a canonical CSR A, gathered through a column map.
    A canonical CSC A is gathered the same way by its columns: rows picks
    its columns and cols its rows, so the result is the CSC of
    A[cols][:, rows].

    cols must be strictly ascending; rows may be any row indices. The
    indptr, indices and data are those scipy's fancy indexing gives,
    explicit zeros included.
    """
    rows = np.asarray(rows)
    csr = A.format == "csr"
    # in A's index dtypes, which hold every value of the result, so that the
    # constructor neither scans nor casts them where they are scipy's choice
    where = np.full(A.shape[1] if csr else A.shape[0], -1, dtype=A.indices.dtype)
    where[cols] = np.arange(len(cols))
    pos, ends = _row_positions(A, rows)
    new_cols = where[A.indices[pos]]
    keep = new_cols >= 0
    kept = np.zeros(keep.size + 1, dtype=A.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    indptr = kept[np.concatenate(([0], ends))]
    shape = (len(rows), len(cols)) if csr else (len(cols), len(rows))
    return A.__class__((A.data[pos[keep]], new_cols[keep], indptr), shape=shape)


def _saddle_matrix(A, C):
    """The CSC of [[A, C^T], [C, 0]] from the CSC of A and the CSR of C.

    For canonical A and C, indptr, indices and data are those scipy.sparse's
    block constructor gives, explicit zeros included; splu sums the
    duplicates of any other input.
    """
    n = A.shape[0]
    if A.shape != (n, n) or C.shape[1] != n:
        raise ValueError("saddle blocks must be n x n and constraints x n")
    c_cols = C.tocsc()
    a_counts = np.diff(A.indptr)
    c_counts = np.diff(c_cols.indptr)
    indptr = np.concatenate(([0], np.cumsum(a_counts + c_counts, dtype=np.int64)))
    indptr = np.concatenate((indptr, indptr[-1] + C.indptr[1:]))
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.result_type(A.dtype, C.dtype))
    # column j < n holds A's column j, then C's column j below it; column
    # n + i holds row i of C
    a_pos = np.arange(A.nnz) + np.repeat(indptr[:n] - A.indptr[:-1], a_counts)
    c_pos = np.arange(c_cols.nnz) + np.repeat(indptr[:n] + a_counts - c_cols.indptr[:-1],
                                              c_counts)
    indices[a_pos] = A.indices
    data[a_pos] = A.data
    indices[c_pos] = c_cols.indices + n
    data[c_pos] = c_cols.data
    indices[indptr[n]:] = C.indices
    data[indptr[n]:] = C.data
    size = n + C.shape[0]
    return sparse.csc_matrix((data, indices, indptr), shape=(size, size))


class Factorization:
    """Reusable direct factorization; solves are serialized by a lock.

    _symmetric factors in SuperLU's symmetric mode (_SYMMETRIC), which has no
    fallback of its own: SaddleFactorization supplies it.
    """

    def __init__(self, matrix, _symmetric=False):
        # SuperLU and the residuals share one CSC copy: a CSC matvec adds each
        # row's products in the same column order as a CSR one
        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = matrix
        self._lu = _splu(matrix, _symmetric)
        self._lock = threading.Lock()

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


def _saddle_constraints(kkt, n):
    """The CSR of C in the CSC kkt = [[A, C^T], [C, 0]] of an n x n A, its
    data and indices views of kkt's: row i of C is column n + i of kkt, whose
    entries all lie above its zero block."""
    start = kkt.indptr[n]
    data, indices = kkt.data[start:], kkt.indices[start:]
    C = sparse.csr_matrix((data, indices, kkt.indptr[n:] - start),
                          shape=(kkt.shape[0] - n, n))
    # the constructor copies a view of a much larger array; the view holds
    # the same entries
    C.data, C.indices = data, indices
    return C


class SaddleFactorization:
    """Factorization of the CSC kkt = [[A, C^T], [C, 0]] of an n x n A, as
    _saddle_matrix builds it; every row of C must be nonzero. A C without
    rows leaves the system unconstrained.

    _symmetric factors in symmetric mode, and falls back to the default
    factorization (SuperLU's COLAMD ordering and partial pivoting) where that
    raises SingularSystemError or a checked solve misses its residual or
    constraint test after refinement; the solve is then repeated. The
    argument goes once symmetric mode is the only ordering.
    """

    def __init__(self, kkt, n, _symmetric=False):
        self.n = n
        self.C = _saddle_constraints(kkt, n)
        self._symmetric = _symmetric
        try:
            self._fact = self._factor(kkt)
        except SingularSystemError as err:
            if factorizes(kkt[:n, :n]):
                raise DegenerateConstraintError(
                    "degenerate constraint rows in saddle system"
                ) from err
            raise

    def _factor(self, kkt):
        """kkt factored in symmetric mode while that is chosen and does not
        raise SingularSystemError, else in the default one."""
        if self._symmetric:
            try:
                return Factorization(kkt, _symmetric=True)
            except SingularSystemError:
                self._symmetric = False
        return Factorization(kkt)

    def _check_constraints(self, r, w, tol):
        # r and w are (n, c) blocks; a zero column of r, or a C without rows,
        # constrains nothing
        norm_r = np.linalg.norm(r, axis=0)
        worst = np.max(np.abs(self.C @ w), axis=0, initial=0.0)
        violated = (norm_r > 0.0) & ~(worst <= tol * norm_r)
        if violated.any():
            raise ConstraintViolationError("constraint violated")

    def solve(self, r, tol=SADDLE_TOL):
        """(w, mu) for a vector r or column by column of an (n, c) block."""
        r = np.asarray(r, dtype=float)
        rhs = np.concatenate([r, np.zeros((self.C.shape[0],) + r.shape[1:])])
        try:
            sol = self._fact.solve(rhs, tol=tol)
            w = sol[: self.n]
            self._check_constraints(r.reshape(self.n, -1), w.reshape(self.n, -1), tol)
        except InaccurateSolveError:
            if not self._symmetric:
                raise
            self._symmetric = False
            self._fact = self._factor(self._fact.matrix)
            return self.solve(r, tol)
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


# steps of a _CheckedSteps recurrence solved between two checks
_BLOCK = 16


class _CheckedSteps:
    """One checked saddle solve per step of a recurrence whose right-hand
    side comes from the previous step, made from bare LU solves: the steps
    are checked together (count_accurate) once per block of _BLOCK and at the
    last step, and the `checked` leading steps, and a block's first miss,
    which the loop is sent back to, go through the checked solve. A bare
    solve reads saddle._fact at each call, so the factors of a symmetric-mode
    fallback serve every later step. solves counts every solve, replays too.
    """

    def __init__(self, saddle, checked=0):
        self.saddle = saddle
        # one full right-hand side [r; 0] and bare solution per row
        self.rhs = np.zeros((_BLOCK, saddle.n + saddle.C.shape[0]))
        self.sol = np.empty_like(self.rhs)
        self.start = None           # the step in row 0 of the block, from the first solve
        self.checked = checked      # leading rows of the block solved through the checked solve
        self.solves = 0

    def solve(self, step, r):
        """w of the saddle solve of step, with right-hand side r."""
        if self.start is None:
            self.start = step
        i, n = step - self.start, self.saddle.n
        self.rhs[i, :n] = r
        self.solves += 1
        if i < self.checked:
            return self.saddle.solve(self.rhs[i, :n])[0]
        self.sol[i] = self.saddle._fact._raw_solve(self.rhs[i])
        return self.sol[i, :n].copy()

    def next(self, step, last=False):
        """The step to solve after step: step + 1, or at the end of a block,
        or at the last step, the block's first miss, if any."""
        i = step - self.start
        if i + 1 < _BLOCK and not last:
            return step + 1
        checked = self.checked
        accurate = checked + self.saddle.count_accurate(self.rhs[checked:i + 1].T,
                                                        self.sol[checked:i + 1].T)
        # the next block starts at the first miss, replayed through the
        # checked solve
        self.start, self.checked = self.start + accurate, 1 if accurate <= i else 0
        return self.start


def factorizes(matrix):
    try:
        spla.splu(matrix.tocsc())
        return True
    except RuntimeError:
        return False


def factor_saddle(kkt, n, _symmetric=False):
    """Factor the saddle system kkt (SaddleFactorization) once for repeated
    right-hand sides."""
    return SaddleFactorization(kkt, n, _symmetric)
