import numpy as np
import pytest

from sdwave.assembly import (CoefficientField, DiscreteForms, assemble_load,
                             assemble_mass, assemble_stiffness, element_rhs_block)
from sdwave.harness import random_field
from sdwave.mesh import Mesh, NestedMeshPair

from conftest import saddle_matrix


def test_unit_stiffness_stencil():
    # closed-form P1 stencil on right triangles: diagonal 4, axis neighbors -1
    for n in (4, 8):
        m = Mesh(n)
        K = assemble_stiffness(m)
        np.testing.assert_allclose(K.diagonal(), 4.0)
        center = m.dof_index[(n // 2) * (n + 1) + n // 2]
        east = m.dof_index[(n // 2) * (n + 1) + n // 2 + 1]
        north = m.dof_index[(n // 2 + 1) * (n + 1) + n // 2]
        assert K[center, east] == -1.0
        assert K[center, north] == -1.0


def test_stiffness_scaling_linearity():
    m = Mesh(4)
    values = np.linspace(1.0, 2.0, m.n_elements)
    K1 = assemble_stiffness(m, values)
    K3 = assemble_stiffness(m, 3.0 * values)
    diff = np.abs((K3 - 3.0 * K1).toarray()).max()
    assert diff <= 1e-14 * np.abs(K3.toarray()).max()


def test_stiffness_row_sums_before_elimination():
    m = Mesh(6)
    K = assemble_stiffness(m, full=True)
    assert np.abs(np.asarray(K.sum(axis=1))).max() <= 1e-13


def test_assembled_matrices_bitwise_symmetric():
    pair = NestedMeshPair(Mesh(3), 2)
    field = random_field(pair.fine, 0.1, 1000.0, 9)
    K = assemble_stiffness(pair.fine, field, full=True)
    M = assemble_mass(pair.fine, full=True)
    assert (K != K.T).nnz == 0
    assert (M != M.T).nnz == 0


def test_mass_total_and_diagonal():
    m = Mesh(8)
    assert abs(assemble_mass(m, full=True).sum() - 1.0) <= 1e-14
    Mi = assemble_mass(m)
    np.testing.assert_allclose(Mi.diagonal(), m.h ** 2 / 2.0, rtol=1e-14)


def test_mass_empty_at_n1():
    M = assemble_mass(Mesh(1))
    assert M.shape == (0, 0)


def test_load_constant_and_linearity():
    m = Mesh(8)
    L1 = assemble_load(m, 1.0)
    np.testing.assert_allclose(L1, m.h ** 2, rtol=1e-14)
    assert np.all(assemble_load(m, 0.0) == 0.0)
    np.testing.assert_allclose(assemble_load(m, 3.5), 3.5 * L1, rtol=1e-14)


def test_load_callable_and_nonfinite():
    m = Mesh(4)
    L = assemble_load(m, lambda x, y, t: x + t, t=2.0)
    assert L.shape == (m.n_dofs,)
    with pytest.raises(ValueError):
        assemble_load(m, lambda x, y, t: np.full_like(x, np.inf))


def test_coefficient_field_validation():
    m = Mesh(2)
    with pytest.raises(ValueError):
        CoefficientField(m, np.zeros(m.n_elements))
    with pytest.raises(ValueError):
        CoefficientField(m, np.ones(3))
    f = CoefficientField(m, np.full(m.n_elements, 2.0))
    assert np.all(f.values == 2.0)
    # raw arrays are held to the same rule as fields
    pair = NestedMeshPair(m, 1)
    with pytest.raises(ValueError):
        DiscreteForms(pair, -np.ones(m.n_elements), np.full(m.n_elements, np.nan), 0.1)
    with pytest.raises(ValueError):
        assemble_stiffness(m, np.full(m.n_elements, np.inf))


@pytest.mark.parametrize("tau", [-1.0, 0.0, np.nan, np.inf, -np.inf],
                         ids=["negative", "zero", "nan", "inf", "minus-inf"])
def test_forms_reject_a_bad_time_step(tau):
    # the forms hold the one time step every corrector and solver reads
    pair = NestedMeshPair(Mesh(2), 1)
    ones = np.ones(pair.fine.n_elements)
    with pytest.raises(ValueError, match="time step"):
        DiscreteForms(pair, ones, ones, tau)


def test_mismatched_mesh_rejected():
    m = Mesh(4)
    other = random_field(Mesh(8), 0.5, 2.0, 0)
    with pytest.raises(ValueError):
        assemble_stiffness(m, other)


def test_element_rhs_zero_and_partition(problem44):
    pair, forms = problem44.pair, problem44.forms
    rng = np.random.default_rng(12)
    v = rng.standard_normal(pair.fine.n_dofs)
    _, out = element_rhs_block(pair, forms.tilde_values, 0, np.zeros((v.size, 1)), [0])
    assert np.all(out == 0.0)
    total = np.zeros_like(v)
    for T in range(pair.coarse.n_elements):
        dofs, out = element_rhs_block(pair, forms.tilde_values, T, v[:, None], [0])
        total[dofs] += out[:, 0]
    ref = forms.K_tilde @ v
    assert np.abs(total - ref).max() <= 1e-12 * np.abs(ref).max()


def test_element_rhs_locality(problem44):
    pair, forms = problem44.pair, problem44.forms
    from sdwave.mesh import element_patch
    from sdwave.lod import patch_fine_dofs
    rng = np.random.default_rng(13)
    v = rng.standard_normal(pair.fine.n_dofs)
    T = pair.coarse.n_elements // 2
    dofs, out = element_rhs_block(pair, forms.tilde_values, T, v[:, None], [0])
    support_dofs = set(patch_fine_dofs(pair, element_patch(pair.coarse, T, 1)).tolist())
    assert np.any(out) and set(dofs.tolist()) <= support_dofs


def test_forms_energy_and_coefficient_bounds(problem44):
    forms = problem44.forms
    rng = np.random.default_rng(14)
    v = rng.standard_normal(problem44.n_fine_dofs)
    a = v @ (forms.K_A @ v)
    b = v @ (forms.K_B @ v)
    assert v @ (forms.K_tilde @ v) == pytest.approx(a + forms.tau * b, rel=1e-12)
    lo, hi = problem44.field_a.values.min(), problem44.field_a.values.max()
    k1 = v @ (forms.K_1 @ v)
    assert lo * k1 <= a <= hi * k1


def test_element_rhs_block_reads_sparse_rows_as_their_dense_copy(problem44):
    # the rows of a CSR V are gathered entry by entry, stored zeros too, into
    # the values its dense copy holds, for any order of the columns
    from sdwave.mesh import prolongation
    pair, forms = problem44.pair, problem44.forms
    P = prolongation(pair)
    stored = P.copy()
    stored.data[::4] = 0.0
    coarse = pair.coarse
    for V in (P, stored):
        dense = V.toarray()
        for t in range(coarse.n_elements):
            columns = coarse.dof_index[coarse.triangles[t]]
            columns = columns[columns >= 0][::-1]
            if columns.size == 0:
                continue
            got = element_rhs_block(pair, forms.tilde_values, t, V, columns)
            want = element_rhs_block(pair, forms.tilde_values, t, dense, columns)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_saddle_matrix_is_built_once_per_form(problem44):
    # the blocks [[K, I^T], [I, 0]] of each form as sparse.bmat builds them
    pair = problem44.pair
    forms = DiscreteForms(pair, problem44.field_a, problem44.field_b, problem44.tau)
    for name in ("K_tilde", "K_A", "K_B"):
        full = forms.saddle_matrix(name)
        assert forms.saddle_matrix(name) is full
        want = saddle_matrix(getattr(forms, name), forms.interp)
        assert full.format == want.format == "csc"
        for part in ("indptr", "indices", "data"):
            a, b = getattr(full, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="saddle matrix"):
        forms.saddle_matrix("M")
