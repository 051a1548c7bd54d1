import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sparse

import sdwave
from sdwave import linalg
from sdwave.linalg import (ConstraintViolationError, DegenerateConstraintError,
                           Factorization, InaccurateSolveError,
                           SingularSystemError)

from conftest import constraint_rows, saddle_of


def test_identity_solve():
    fact = Factorization(sparse.eye(3, format="csc"))
    np.testing.assert_allclose(fact.solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_diagonal_solve():
    A = sparse.diags([2.0, 4.0]).tocsc()
    np.testing.assert_allclose(Factorization(A).solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_random_spd_residual():
    rng = np.random.default_rng(0)
    R = rng.standard_normal((50, 50))
    A = sparse.csc_matrix(R @ R.T + 50.0 * np.eye(50))
    b = rng.standard_normal(50)
    x = Factorization(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_zero_rhs_gives_zero():
    A = sparse.diags([2.0, 4.0]).tocsc()
    assert np.all(Factorization(A).solve(np.zeros(2)) == 0.0)


def test_singular_matrix_reports_pivot():
    A = sparse.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError) as err:
        Factorization(A)
    assert "singular" in str(err.value)
    assert err.value.pivot == 1


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        Factorization(sparse.csc_matrix(np.ones((2, 3))))


def test_saddle_hand_example():
    # eliminate by hand: w1 = 0 from the constraint, then w2 = 1 and mu = 1
    A = sparse.eye(2, format="csr")
    C = sparse.csr_matrix(np.array([[1.0, 0.0]]))
    w, mu = saddle_of(A, C).solve(np.array([1.0, 1.0]))
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(mu, [1.0], atol=1e-12)


def test_saddle_zero_rhs():
    A = sparse.eye(3, format="csr")
    C = sparse.csr_matrix(np.array([[1.0, 1.0, 0.0]]))
    w, mu = saddle_of(A, C).solve(np.zeros(3))
    assert np.all(w == 0.0) and np.all(mu == 0.0)


def test_saddle_rejects_zero_rows():
    # a patch drops the zero rows; a zero row left in is degenerate
    A = sparse.eye(2, format="csr")
    C = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateConstraintError):
        saddle_of(A, C)


def test_saddle_without_constraint_rows():
    # patch dofs that meet no nonzero interpolation entry give a 0-row C; the
    # constraint check raised numpy's ValueError on the empty maximum
    interp = sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]]))
    C = constraint_rows(interp, np.array([1, 3]))
    assert C.shape == (0, 2)
    saddle = saddle_of(sparse.eye(2, format="csr"), C)
    r = np.array([3.0, -2.0])
    w, mu = saddle.solve(r)
    np.testing.assert_array_equal(w, r)
    assert mu.shape == (0,)
    w, mu = saddle.solve(np.column_stack([r, 2.0 * r]))
    np.testing.assert_array_equal(w, np.column_stack([r, 2.0 * r]))
    assert mu.shape == (0, 2)
    rhs = np.column_stack([r, r, r])
    sol = np.column_stack([r, r, r + 1.0])
    assert saddle.count_accurate(rhs, sol) == 2


def test_saddle_constraint_residual():
    rng = np.random.default_rng(1)
    R = rng.standard_normal((30, 30))
    A = sparse.csc_matrix(R @ R.T + 30.0 * np.eye(30))
    C = sparse.csr_matrix(rng.standard_normal((4, 30)))
    r = rng.standard_normal(30)
    w, mu = saddle_of(A, C).solve(r)
    norm_r = np.linalg.norm(r)
    assert np.max(np.abs(C @ w)) <= 1e-10 * norm_r
    assert np.linalg.norm(A @ w + C.T @ mu - r) <= 1e-10 * norm_r


def _saddle_problem():
    rng = np.random.default_rng(3)
    R = rng.standard_normal((30, 30))
    A = sparse.csc_matrix(R @ R.T + 30.0 * np.eye(30))
    C = sparse.csr_matrix(rng.standard_normal((4, 30)))
    return A, C, rng.standard_normal(30)


def test_symmetric_mode_saddle_solve():
    # the same residual and constraint checks hold in symmetric mode
    A, C, r = _saddle_problem()
    saddle = saddle_of(A, C, _symmetric=True)
    w, mu = saddle.solve(r)
    assert saddle._symmetric
    norm_r = np.linalg.norm(r)
    assert np.max(np.abs(C @ w)) <= 1e-10 * norm_r
    assert np.linalg.norm(A @ w + C.T @ mu - r) <= 1e-10 * norm_r
    np.testing.assert_allclose(w, saddle_of(A, C).solve(r)[0], rtol=0, atol=1e-12)


def test_symmetric_mode_falls_back_on_a_singular_factorization(monkeypatch):
    A, C, r = _saddle_problem()
    splu = linalg._splu
    modes = []

    def singular_symmetric(matrix, symmetric=False):
        modes.append(symmetric)
        if symmetric:
            raise SingularSystemError("singular system")
        return splu(matrix, symmetric)

    monkeypatch.setattr(linalg, "_splu", singular_symmetric)
    saddle = saddle_of(A, C, _symmetric=True)
    assert modes == [True, False] and not saddle._symmetric
    monkeypatch.undo()
    np.testing.assert_array_equal(saddle.solve(r)[0], saddle_of(A, C).solve(r)[0])


def _corrupt(fact, how):
    """Make the solves of fact miss: each bare solve 1.5 times the solution,
    which one step of refinement cannot mend, or a checked solve of ones,
    which breaks the constraints."""
    if how == "residual":
        raw_solve = fact._raw_solve
        fact._raw_solve = lambda b: 1.5 * raw_solve(b)
    else:
        fact.solve = lambda rhs, tol: np.ones(rhs.shape)


@pytest.mark.parametrize("how, error", [("residual", InaccurateSolveError),
                                        ("constraints", ConstraintViolationError)])
def test_symmetric_mode_falls_back_when_a_checked_solve_misses(how, error):
    A, C, r = _saddle_problem()
    saddle = saddle_of(A, C, _symmetric=True)
    symmetric = saddle._fact
    _corrupt(symmetric, how)
    w, _ = saddle.solve(r)
    assert saddle._fact is not symmetric and not saddle._symmetric
    np.testing.assert_array_equal(w, saddle_of(A, C).solve(r)[0])
    # the default factorization has no fallback: a miss there raises
    _corrupt(saddle._fact, how)
    with pytest.raises(error):
        saddle.solve(r)


# ----------------------------------------------------------------------------
# the checked-steps rule of repeated saddle solves

def _count_checked_solves(saddle):
    """Record the right-hand side of every checked solve of saddle."""
    solve = saddle.solve
    checked = []

    def counted(r):
        checked.append(np.array(r))
        return solve(r)

    saddle.solve = counted
    return checked


def _perturb_bare_call(saddle, call):
    """Make the given call (1-based) of the current factors' raw solve return
    1 + 1e-6 times its solution, which misses the residual test."""
    raw_solve = saddle._fact._raw_solve
    calls = []

    def perturbed(b):
        calls.append(None)
        x = raw_solve(b)
        return x * (1.0 + 1e-6) if len(calls) == call else x

    saddle._fact._raw_solve = perturbed


def _stepped(saddle, A, r, count, first_checked=False):
    """w_0 .. w_{count-1} of the recurrence r_0 = r, r_s = A w_{s-1}, solved
    as _CheckedSteps, and the steps; with first_checked, w_0 is the checked
    solve, as lod._power_iterates solves its first member."""
    steps = linalg._CheckedSteps(saddle)
    w = np.empty((count, r.size))
    s = 0
    if first_checked:
        w[0], s = saddle.solve(r)[0], 1
    while s < count:
        w[s] = steps.solve(s, r if s == 0 else A @ w[s - 1])
        s = steps.next(s, last=s + 1 == count)
    return w, steps


def _per_step(A, C, r, count):
    # the oracle: one checked solve per step
    saddle = saddle_of(A, C)
    w = [saddle.solve(r)[0]]
    for _ in range(1, count):
        w.append(saddle.solve(A @ w[-1])[0])
    return np.array(w)


def test_checked_steps_replay_a_mid_block_miss_once():
    A, C, r = _saddle_problem()
    count = 2 * linalg._BLOCK + 5
    saddle = saddle_of(A, C)
    checked = _count_checked_solves(saddle)
    # call 20 is the bare solve of step 19, the fourth of the second block
    _perturb_bare_call(saddle, 20)
    w, steps = _stepped(saddle, A, r, count)
    np.testing.assert_array_equal(w, _per_step(A, C, r, count))
    assert len(checked) == 1
    np.testing.assert_array_equal(checked[0], A @ w[18])
    # steps 19 .. 31 are solved twice
    assert steps.solves == count + 13


def test_checked_steps_check_a_short_last_block():
    A, C, r = _saddle_problem()
    count = linalg._BLOCK + 3
    saddle = saddle_of(A, C)
    checked = _count_checked_solves(saddle)
    # the bare solve of the last step, in a last block of three
    _perturb_bare_call(saddle, count)
    w, steps = _stepped(saddle, A, r, count)
    np.testing.assert_array_equal(w, _per_step(A, C, r, count))
    assert len(checked) == 1 and steps.solves == count + 1


def test_checked_steps_bare_solve_on_the_fallback_factors():
    # a symmetric-mode solve that refinement cannot mend: the first checked
    # solve falls back, and every bare solve after it uses the new factors
    A, C, r = _saddle_problem()
    count = 2 * linalg._BLOCK + 5
    saddle = saddle_of(A, C, _symmetric=True)
    _corrupt(saddle._fact, "residual")
    checked = _count_checked_solves(saddle)
    w, steps = _stepped(saddle, A, r, count, first_checked=True)
    assert not saddle._symmetric
    np.testing.assert_array_equal(w, _per_step(A, C, r, count))
    # step 0, solved again after the fallback; no bare solve misses
    assert len(checked) == 2 and 1 + steps.solves == count


def _sparse_block(rng, rows, cols, density):
    return rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)


@pytest.mark.parametrize("stored", [False, True], ids=["empty-row", "stored-zero-row"])
def test_saddle_matrix_with_zero_constraint_row(stored):
    rng = np.random.default_rng(5)
    A = sparse.csr_matrix(_sparse_block(rng, 6, 6, 0.3) + 6.0 * np.eye(6))
    dense = np.eye(3, 6)
    dense[1] = 0.0
    C = sparse.csr_matrix(dense)
    if stored:
        C = sparse.csr_matrix((np.array([1.0, 0.0, 1.0]), np.array([0, 3, 2]),
                               np.array([0, 1, 2, 3])), shape=(3, 6))
    with pytest.raises(DegenerateConstraintError):
        saddle_of(A, C)


def test_degenerate_constraints_detected():
    A = sparse.eye(3, format="csr")
    C = sparse.csr_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(DegenerateConstraintError):
        saddle_of(A, C)


def test_concurrent_solves_deterministic():
    rng = np.random.default_rng(2)
    R = rng.standard_normal((40, 40))
    A = sparse.csc_matrix(R @ R.T + 40.0 * np.eye(40))
    fact = Factorization(A)
    rhs = [rng.standard_normal(40) for _ in range(16)]
    serial = [fact.solve(b) for b in rhs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(fact.solve, rhs))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_accuracy_checks_survive_python_O():
    # a corrupted triangular solve and a corrupted saddle solution must raise
    # even when assert statements are compiled away, for a single vector and
    # for one bad column of a block
    assert issubclass(ConstraintViolationError, InaccurateSolveError)
    assert issubclass(InaccurateSolveError, SingularSystemError)
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import scipy.sparse as sparse
        from sdwave.linalg import (ConstraintViolationError, Factorization,
                                   InaccurateSolveError, SaddleFactorization)

        def attempt(label, call, error):
            try:
                print(label, "returned", call())
            except error:
                print(label, "raised")

        print("optimize", sys.flags.optimize)
        fact = Factorization(sparse.eye(3, format="csc"))
        fact._raw_solve = lambda b: np.full(np.shape(b), 14.0)
        attempt("solve", lambda: fact.solve(np.array([1.0, 2.0, 3.0])),
                InaccurateSolveError)
        # exact on the first column of the block, halved everywhere else, so
        # the refinement step cannot mend the second column
        good = np.array([[1.0], [2.0], [3.0]])
        fact._raw_solve = lambda b: np.where(b == good, b, 0.5 * b)
        block = np.hstack([good, [[4.0], [5.0], [6.0]]])
        attempt("block solve", lambda: fact.solve(block), InaccurateSolveError)

        C = sparse.csr_matrix(np.array([[1.0, 0.0]]))
        kkt = sparse.bmat([[sparse.eye(2), C.T], [C, None]], format="csc")
        saddle = SaddleFactorization(kkt, 2)
        saddle._fact.solve = lambda rhs, tol: np.array([1.0, 1.0, 0.0])
        attempt("saddle", lambda: saddle.solve(np.array([1.0, 1.0]))[0],
                ConstraintViolationError)
        # column 0 keeps w_1 = 0, column 1 breaks it
        saddle._fact.solve = lambda rhs, tol: np.array([[0.0, 1.0], [1.0, 1.0],
                                                        [1.0, 0.0]])
        attempt("block saddle", lambda: saddle.solve(np.ones((2, 2)))[0],
                ConstraintViolationError)

        # bare solves of [r; 0]: column 0 exact, column 1 off by 14 in w_2
        saddle = SaddleFactorization(kkt, 2)
        rhs = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        sol = np.array([[0.0, 0.0], [1.0, 15.0], [1.0, 1.0]])
        attempt("count", lambda: saddle.count_accurate(rhs, sol), InaccurateSolveError)
        # a residual test that passes everything leaves the constraint test
        saddle._fact._misses = lambda b, x, tol: np.zeros(b.shape[1], dtype=bool)
        sol[0, 1] = 1.0
        attempt("count", lambda: saddle.count_accurate(rhs, sol),
                ConstraintViolationError)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdwave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:7] == [
        "optimize 1", "solve raised", "block solve raised", "saddle raised",
        "block saddle raised", "count returned 1", "count raised"]
