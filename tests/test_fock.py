import numpy as np
import pytest
import scipy.sparse as sp_mat

from photonflow import (
    DensityMatrix,
    InvalidInput,
    ModeSpace,
    Operator,
    annihilation,
    creation,
    fock_density,
    fock_state,
    mixed_fock_density,
    tensor_embed,
)
from reference import apply, identity, number, partial_trace, population, unflatten


def test_mode_space_dimensions():
    sp = ModeSpace([3, 4, 2])
    assert sp.total_dim == 24
    assert sp.n_modes == 3


def test_mode_space_rejects_small_dims():
    with pytest.raises(InvalidInput):
        ModeSpace([3, 1])


def test_flat_index_round_trip():
    sp = ModeSpace([3, 4, 2])
    for idx in range(sp.total_dim):
        assert sp.flatten(unflatten(sp, idx)) == idx


def test_flat_index_last_mode_fastest():
    sp = ModeSpace([3, 4])
    # row-major: (n0, n1) -> n0*4 + n1
    assert sp.flatten((1, 2)) == 6
    assert unflatten(sp, 7) == (1, 3)


def test_annihilation_on_single_fock_state():
    sp = ModeSpace([3])
    a = annihilation(sp, 0)
    out = apply(a, fock_state(sp, (1,)))
    assert np.allclose(out, fock_state(sp, (0,)))


def test_annihilation_of_vacuum_is_zero():
    sp = ModeSpace([3])
    out = apply(annihilation(sp, 0), fock_state(sp, (0,)))
    assert np.allclose(out, 0.0)


def test_number_operator_eigenvalue():
    sp = ModeSpace([4])
    n = number(sp, 0)
    v = fock_state(sp, (2,))
    assert np.real(v.conj() @ apply(n, v)) == pytest.approx(2.0)


def test_ladder_matrix_elements():
    sp = ModeSpace([6])
    ad = creation(sp, 0).matrix
    for n in range(5):
        assert ad[n + 1, n] == pytest.approx(np.sqrt(n + 1))


def test_hard_truncation_kills_top_level():
    sp = ModeSpace([4])
    top = fock_state(sp, (3,))
    assert np.allclose(apply(creation(sp, 0), top), 0.0)


def test_commutator_below_truncation():
    sp = ModeSpace([7])
    a = annihilation(sp, 0).matrix
    comm = a @ a.conj().T - a.conj().T @ a
    sub = comm[:6, :6]
    assert np.allclose(sub, np.eye(6), atol=1e-14)


def test_annihilation_rejects_bad_mode():
    sp = ModeSpace([3, 3])
    with pytest.raises(InvalidInput):
        annihilation(sp, 2)


def test_tensor_embed_acts_on_selected_mode():
    sp = ModeSpace([2, 2])
    a0 = annihilation(sp, 0)
    out = apply(a0, fock_state(sp, (1, 0)))
    assert np.allclose(out, fock_state(sp, (0, 0)))


def test_tensor_embed_identity_is_identity():
    sp = ModeSpace([3, 2])
    embedded = tensor_embed(sp, np.eye(2), 1)
    assert np.allclose(embedded.matrix, np.eye(6))


def test_tensor_embed_ladder_rule_on_second_mode():
    sp = ModeSpace([3, 3])
    a1 = annihilation(sp, 1)
    out = apply(a1, fock_state(sp, (1, 2)))
    assert np.allclose(out, np.sqrt(2) * fock_state(sp, (1, 1)))


def test_tensor_embed_rejects_dimension_mismatch():
    sp = ModeSpace([3, 2])
    with pytest.raises(InvalidInput):
        tensor_embed(sp, np.eye(3), 1)


def test_adjoint_involution():
    sp = ModeSpace([3, 2])
    op = annihilation(sp, 0) @ creation(sp, 1)
    back = op.adjoint().adjoint()
    assert np.allclose(op.matrix, back.matrix)


def test_composition_associative():
    sp = ModeSpace([3, 3])
    rng = np.random.default_rng(11)
    ops = []
    for _ in range(3):
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        ops.append(Operator(sp, sp_mat.csr_matrix(m).toarray()))
    x, y, z = ops
    left = (x @ y) @ z
    right = x @ (y @ z)
    assert np.allclose(left.matrix, right.matrix, atol=1e-12)


def test_apply_transfers_photon():
    sp = ModeSpace([2, 2])
    op = creation(sp, 0) @ annihilation(sp, 1)
    out = apply(op, fock_state(sp, (0, 1)))
    assert np.allclose(out, fock_state(sp, (1, 0)))


def test_apply_identity_to_density():
    sp = ModeSpace([2, 2])
    rho = fock_density(sp, (1, 0))
    out = apply(identity(sp), rho)
    assert np.allclose(out.matrix, rho.matrix)


def test_apply_twice_annihilates_single_photon():
    sp = ModeSpace([3])
    a = annihilation(sp, 0)
    out = apply(a @ a, fock_state(sp, (1,)))
    assert np.allclose(out, 0.0)


def test_apply_rejects_space_mismatch():
    a = annihilation(ModeSpace([3]), 0)
    rho = fock_density(ModeSpace([4]), (0,))
    with pytest.raises(InvalidInput):
        apply(a, rho)


def test_partial_trace_product_state():
    sp = ModeSpace([2, 2])
    rho = fock_density(sp, (0, 1))
    red = partial_trace(rho, [0])
    assert np.allclose(red.matrix, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_partial_trace_entangled_gives_maximally_mixed():
    sp = ModeSpace([2, 2])
    v = (fock_state(sp, (0, 1)) + fock_state(sp, (1, 0))) / np.sqrt(2)
    red = partial_trace(DensityMatrix.from_state_vector(sp, v), [1])
    assert np.allclose(red.matrix, 0.5 * np.eye(2), atol=1e-14)


def test_partial_trace_preserves_trace():
    sp = ModeSpace([2, 3, 2])
    rng = np.random.default_rng(4)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = DensityMatrix(sp, m @ m.conj().T)
    red = partial_trace(rho, [1])
    assert red.trace() == pytest.approx(rho.trace(), abs=1e-12)
    assert red.hermiticity_defect() <= 1e-12


def test_partial_trace_recovers_product_factor():
    sp = ModeSpace([2, 3])
    rng = np.random.default_rng(9)
    va = rng.normal(size=2) + 1j * rng.normal(size=2)
    vb = rng.normal(size=3) + 1j * rng.normal(size=3)
    va /= np.linalg.norm(va)
    vb /= np.linalg.norm(vb)
    joint = np.kron(va, vb)
    rho = DensityMatrix.from_state_vector(sp, joint)
    red = partial_trace(rho, [1])
    assert np.allclose(red.matrix, np.outer(vb, vb.conj()), atol=1e-14)


def test_partial_trace_rejects_empty_keep():
    sp = ModeSpace([2, 2])
    with pytest.raises(InvalidInput):
        partial_trace(fock_density(sp, (0, 0)), [])


def test_mixed_fock_density_normalizes():
    sp = ModeSpace([2, 2])
    rho = mixed_fock_density(sp, {(1, 0): 2.0, (0, 1): 2.0})
    assert rho.trace() == pytest.approx(1.0)
    assert population(rho, (1, 0)) == pytest.approx(0.5)


def test_density_matrix_invariant_helpers():
    sp = ModeSpace([2, 2])
    rho = fock_density(sp, (1, 1))
    assert rho.hermiticity_defect() == 0.0
    assert rho.min_eigenvalue() >= -1e-15
    assert rho.purity() == pytest.approx(1.0)
