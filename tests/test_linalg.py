import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sparse

import sdwave
from sdwave.linalg import (ConstraintViolationError, DegenerateConstraintError,
                           Factorization, InaccurateSolveError,
                           SingularSystemError, factor_saddle)


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
    w, mu = factor_saddle(A, C).solve(np.array([1.0, 1.0]))
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(mu, [1.0], atol=1e-12)


def test_saddle_zero_rhs():
    A = sparse.eye(3, format="csr")
    C = sparse.csr_matrix(np.array([[1.0, 1.0, 0.0]]))
    w, mu = factor_saddle(A, C).solve(np.zeros(3))
    assert np.all(w == 0.0) and np.all(mu == 0.0)


def test_saddle_rejects_zero_rows():
    # kernel_constraints drops the zero rows; a zero row left in is degenerate
    A = sparse.eye(2, format="csr")
    C = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateConstraintError):
        factor_saddle(A, C)


def test_saddle_constraint_residual():
    rng = np.random.default_rng(1)
    R = rng.standard_normal((30, 30))
    A = sparse.csc_matrix(R @ R.T + 30.0 * np.eye(30))
    C = sparse.csr_matrix(rng.standard_normal((4, 30)))
    r = rng.standard_normal(30)
    w, mu = factor_saddle(A, C).solve(r)
    norm_r = np.linalg.norm(r)
    assert np.max(np.abs(C @ w)) <= 1e-10 * norm_r
    assert np.linalg.norm(A @ w + C.T @ mu - r) <= 1e-10 * norm_r


def test_degenerate_constraints_detected():
    A = sparse.eye(3, format="csr")
    C = sparse.csr_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(DegenerateConstraintError):
        factor_saddle(A, C)


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
    # even when assert statements are compiled away
    assert issubclass(ConstraintViolationError, InaccurateSolveError)
    assert issubclass(InaccurateSolveError, SingularSystemError)
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import scipy.sparse as sparse
        from sdwave.linalg import (ConstraintViolationError, Factorization,
                                   InaccurateSolveError, SaddleFactorization)

        print("optimize", sys.flags.optimize)
        fact = Factorization(sparse.eye(3, format="csc"))
        fact._raw_solve = lambda b: np.full(3, 14.0)
        try:
            print("solve returned", fact.solve(np.array([1.0, 2.0, 3.0])))
        except InaccurateSolveError:
            print("solve raised")
        saddle = SaddleFactorization(sparse.eye(2, format="csr"),
                                     sparse.csr_matrix(np.array([[1.0, 0.0]])))
        saddle._fact.solve = lambda rhs, tol: np.array([1.0, 1.0, 0.0])
        try:
            print("saddle returned", saddle.solve(np.array([1.0, 1.0]))[0])
        except ConstraintViolationError:
            print("saddle raised")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdwave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["optimize 1", "solve raised", "saddle raised"]
