import numpy as np
import pytest
import scipy.linalg as sla

from photonflow import (
    ConfigurationError,
    DensityMatrix,
    InvalidInput,
    LindbladModel,
    ModeSpace,
    asymptotic_transfer_map,
    evolve,
    fock_density,
    fock_state,
    interference_transfer_jump,
    mixed_fock_density,
    purification_predicate,
    trace_distance,
    transfer_jump,
)
from photonflow.lindblad import _superoperator
from reference import dark_state_check, lindblad_rhs, number, population, transfer_map_entries


def two_mode_model(dims=(2, 2), gamma=1.0):
    sp = ModeSpace(dims)
    return sp, LindbladModel(sp, [(transfer_jump(sp), gamma)])


# --- right-hand side -------------------------------------------------------


def test_rhs_vacuum_is_stationary():
    sp, model = two_mode_model()
    d = lindblad_rhs(model, fock_density(sp, (0, 0)))
    assert np.allclose(d.matrix, 0.0)


def test_rhs_single_photon_transfer_rate():
    # d<n1>/dt = -gamma for one photon waiting in mode 1
    sp, model = two_mode_model()
    d = lindblad_rhs(model, fock_density(sp, (1, 0)))
    rate = np.real(DensityMatrix(sp, d.matrix).expectation(number(sp, 0)))
    assert rate == pytest.approx(-1.0)


def test_rhs_mode2_only_is_dark():
    sp, model = two_mode_model(dims=(2, 4))
    for n in range(4):
        d = lindblad_rhs(model, fock_density(sp, (0, n)))
        assert np.allclose(d.matrix, 0.0)


def test_rhs_traceless_and_hermitian():
    sp, model = two_mode_model(dims=(3, 3))
    rng = np.random.default_rng(3)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = DensityMatrix(sp, m @ m.conj().T / 9.0)
    d = lindblad_rhs(model, rho).matrix
    assert abs(np.trace(d)) <= 1e-12 * np.linalg.norm(rho.matrix)
    assert np.max(np.abs(d - d.conj().T)) <= 1e-12


def test_rhs_matches_superoperator():
    sp, model = two_mode_model(dims=(3, 3))
    rng = np.random.default_rng(7)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = DensityMatrix(sp, m @ m.conj().T)
    direct = lindblad_rhs(model, rho).matrix
    vec = (_superoperator(model) @ rho.matrix.reshape(-1)).reshape(9, 9)
    assert np.allclose(direct, vec, atol=1e-12)


def test_rhs_rejects_space_mismatch():
    _, model = two_mode_model()
    with pytest.raises(InvalidInput):
        lindblad_rhs(model, fock_density(ModeSpace([3, 3]), (0, 0)))


def test_superfluorescent_enhancement():
    # instantaneous gain of mode 2 is gamma * n * (m + 1)
    sp = ModeSpace([4, 5])
    model = LindbladModel(sp, [(transfer_jump(sp), 1.3)])
    for n, m in [(1, 0), (2, 1), (3, 3)]:
        d = lindblad_rhs(model, fock_density(sp, (n, m)))
        gain = np.real(DensityMatrix(sp, d.matrix).expectation(number(sp, 1)))
        assert gain == pytest.approx(1.3 * n * (m + 1), rel=1e-12)


# --- time evolution --------------------------------------------------------


def test_evolve_single_photon_exponential():
    sp, model = two_mode_model()
    res = evolve(model, fock_density(sp, (1, 0)), 2.0)
    assert population(res.states[-1], (1, 0)) == pytest.approx(np.exp(-2.0), abs=1e-6)
    assert res.trace_drift <= 1e-8


def test_evolve_dark_initial_state_is_constant():
    sp, model = two_mode_model()
    res = evolve(model, fock_density(sp, (0, 1)), 5.0)
    assert trace_distance(res.states[-1], fock_density(sp, (0, 1))) <= 1e-12


def test_evolve_matches_rate_matrix_oracle():
    # Fock-diagonal states obey a closed birth-death system; its
    # exponential is an integrator-independent oracle
    sp = ModeSpace([3, 3])
    model = LindbladModel(sp, [(transfer_jump(sp), 1.0)])
    res = evolve(model, fock_density(sp, (2, 0)), 1.7, snapshot_stride=50)
    chain = [(2, 0), (1, 1), (0, 2)]  # rates n(m+1): 2, 2
    rm = np.array([[-2.0, 0.0, 0.0], [2.0, -2.0, 0.0], [0.0, 2.0, 0.0]])
    n1 = number(sp, 0)
    for t, dm in zip(res.times, res.states):
        p = sla.expm(rm * t) @ np.array([1.0, 0.0, 0.0])
        oracle = sum(prob * occ[0] for prob, occ in zip(p, chain))
        assert np.real(dm.expectation(n1)) == pytest.approx(oracle, abs=1e-8)


def test_evolve_photon_number_conserved():
    sp = ModeSpace([3, 5])
    model = LindbladModel(sp, [(transfer_jump(sp), 1.0)])
    res = evolve(model, fock_density(sp, (2, 1)), 3.0)
    total = res.observables["pop_mode1"] + res.observables["pop_mode2"]
    assert np.max(np.abs(total - total[0])) <= 1e-9


def test_evolve_is_linear():
    sp, model = two_mode_model(dims=(3, 4))
    ra = fock_density(sp, (2, 0))
    rb = fock_density(sp, (1, 1))
    alpha = 0.3
    mix = DensityMatrix(sp, alpha * ra.matrix + (1 - alpha) * rb.matrix)
    t = 1.2
    ea = evolve(model, ra, t).states[-1].matrix
    eb = evolve(model, rb, t).states[-1].matrix
    em = evolve(model, mix, t).states[-1].matrix
    assert np.max(np.abs(em - (alpha * ea + (1 - alpha) * eb))) <= 1e-9


def test_evolve_positivity_and_trace():
    sp, model = two_mode_model(dims=(3, 4))
    rho0 = mixed_fock_density(sp, {(2, 0): 0.4, (1, 1): 0.3, (0, 1): 0.3})
    res = evolve(model, rho0, 10.0)
    for dm in res.states:
        assert dm.min_eigenvalue() >= -1e-8
        assert dm.hermiticity_defect() <= 1e-12
    assert res.trace_drift <= 1e-8


def test_evolve_with_hamiltonian_rotates_coherence():
    sp = ModeSpace([2, 2])
    model = LindbladModel(sp, [(transfer_jump(sp), 1.0)], hamiltonian=2.5 * number(sp, 0))
    v = (fock_state(sp, (0, 0)) + fock_state(sp, (1, 0))) / np.sqrt(2)
    res = evolve(model, DensityMatrix.from_state_vector(sp, v), 1.0)
    coh = res.states[-1].matrix[sp.flatten((1, 0)), sp.flatten((0, 0))]
    predicted = 0.5 * np.exp(-0.5) * np.exp(-1j * 2.5)
    assert coh == pytest.approx(predicted, abs=1e-5)


# --- closed-form transfer map ----------------------------------------------


def test_map_merges_fock_states():
    sp = ModeSpace([3, 6])
    fin = asymptotic_transfer_map(fock_density(sp, (2, 1)))
    assert population(fin, (0, 3)) == pytest.approx(1.0)
    assert trace_distance(fin, fock_density(sp, (0, 3))) <= 1e-14


def test_map_purifies_single_photon_mixture():
    sp = ModeSpace([2, 2])
    rho0 = mixed_fock_density(sp, {(1, 0): 0.5, (0, 1): 0.5})
    fin = asymptotic_transfer_map(rho0)
    assert population(fin, (0, 1)) == pytest.approx(1.0)


def test_map_dephases_mode1_superposition():
    # (a0|0> + a1|1>) x |0> ends diagonal with weights |a_n|^2
    sp = ModeSpace([2, 3])
    a0, a1 = 0.6, 0.8
    v = a0 * fock_state(sp, (0, 0)) + a1 * fock_state(sp, (1, 0))
    fin = asymptotic_transfer_map(DensityMatrix.from_state_vector(sp, v))
    assert population(fin, (0, 0)) == pytest.approx(a0**2)
    assert population(fin, (0, 1)) == pytest.approx(a1**2)
    assert fin.matrix[sp.flatten((0, 0)), sp.flatten((0, 1))] == pytest.approx(0.0)


def test_map_preserves_photon_number_and_validity():
    sp = ModeSpace([3, 7])
    rho0 = mixed_fock_density(sp, {(2, 1): 0.5, (1, 3): 0.2, (0, 2): 0.3})
    fin = asymptotic_transfer_map(rho0)
    n_tot_before = 0.5 * 3 + 0.2 * 4 + 0.3 * 2
    n_after = np.real(fin.expectation(number(sp, 1)))
    assert n_after == pytest.approx(n_tot_before, abs=1e-12)
    assert abs(fin.trace() - 1.0) <= 1e-12
    assert fin.min_eigenvalue() >= -1e-12
    # mode 1 exactly in vacuum
    t = fin.matrix.reshape(3, 7, 3, 7)
    assert np.allclose(t[1:, :, :, :], 0.0) and np.allclose(t[:, :, 1:, :], 0.0)


@pytest.mark.parametrize("dims", [(3, 7), (4, 4), (5, 3)])
def test_map_adds_the_entries_of_the_loop(dims):
    # a random state on the sectors that mode 2 holds, mode-1 coherences included
    sp = ModeSpace(list(dims))
    rng = np.random.default_rng(sum(dims))
    n1, n2 = np.indices(dims)
    keep = ((n1 + n2) < dims[1]).ravel()
    a = (rng.normal(size=(sp.total_dim,) * 2) + 1j * rng.normal(size=(sp.total_dim,) * 2))
    a *= np.outer(keep, keep)
    rho0 = DensityMatrix(sp, a @ a.conj().T / np.trace(a @ a.conj().T))
    assert np.array_equal(asymptotic_transfer_map(rho0).matrix, transfer_map_entries(rho0))


def test_map_rejects_insufficient_truncation():
    sp = ModeSpace([3, 3])
    with pytest.raises(ConfigurationError):
        asymptotic_transfer_map(fock_density(sp, (2, 2)))


def test_map_agrees_with_long_time_evolution():
    sp = ModeSpace([3, 6])
    model = LindbladModel(sp, [(transfer_jump(sp), 1.0)])
    rho0 = mixed_fock_density(sp, {(2, 1): 0.6, (1, 0): 0.4})
    res = evolve(model, rho0, 30.0, snapshot_stride=10**9)
    fin = asymptotic_transfer_map(rho0)
    assert trace_distance(res.states[-1], fin) <= 1e-4


# --- purity predicate -------------------------------------------------------


def test_predicate_fock_inputs_give_unit_vector_witness():
    sp = ModeSpace([3, 6])
    report = purification_predicate(fock_density(sp, (2, 1)))
    assert report.pure
    expected = np.zeros(6)
    expected[3] = 1.0
    assert np.allclose(np.abs(report.witness), expected, atol=1e-9)


def test_predicate_rejects_distinguishable_mixture():
    # equal mixture of two and one total photons stays mixed
    sp = ModeSpace([3, 4])
    rho0 = mixed_fock_density(sp, {(2, 0): 0.5, (0, 1): 0.5})
    report = purification_predicate(rho0)
    assert not report.pure
    assert report.purity == pytest.approx(0.5, abs=1e-9)


def test_predicate_identity_on_mode1_vacuum():
    sp = ModeSpace([2, 4])
    phi = np.array([0.5, 0.5j, np.sqrt(0.5), 0.0])
    v = np.kron(np.array([1.0, 0.0]), phi)
    report = purification_predicate(DensityMatrix.from_state_vector(sp, v))
    assert report.pure
    # witness equals the mode-2 amplitudes up to a global phase
    overlap = abs(np.vdot(report.witness.conj(), phi))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_predicate_witness_factorizes_output():
    sp = ModeSpace([2, 4])
    # product state |1> x phi satisfies the purification structure
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    v = np.kron(np.array([0.0, 1.0]), np.array([phi[0], phi[1], 0.0, 0.0]))
    report = purification_predicate(DensityMatrix.from_state_vector(sp, v))
    assert report.pure
    assert report.witness_defect <= 1e-9


def eigh_witness(block):
    """The witness from the leading eigenpair of the block's Hermitian part."""
    vals, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
    return np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1].conj()


@pytest.mark.parametrize("seed", range(6))
def test_predicate_witness_matches_eigh_witness(seed):
    # mode 1 in vacuum: the map is the identity, and the block is phi phi^dagger
    rng = np.random.default_rng(seed)
    d2 = 2 + seed
    sp = ModeSpace([2, d2])
    phi = rng.normal(size=d2) + 1j * rng.normal(size=d2)
    phi /= np.linalg.norm(phi)
    report = purification_predicate(DensityMatrix.from_state_vector(sp, np.kron([1.0, 0.0], phi)))
    assert report.pure
    block = report.final_state.matrix.reshape(2, d2, 2, d2)[0, :, 0, :]
    ref = eigh_witness(block)
    overlap = np.vdot(report.witness, ref)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(report.witness * overlap / abs(overlap) - ref)) <= 1e-12


# --- interference dark state ------------------------------------------------


def three_mode_interference_model(gamma=1.0):
    sp = ModeSpace([2, 2, 2])
    return sp, LindbladModel(sp, [(interference_transfer_jump(sp, (0, 1), 2), gamma)])


def test_dark_state_is_protected():
    sp, model = three_mode_interference_model()
    psi = (fock_state(sp, (0, 1, 0)) - fock_state(sp, (1, 0, 0))) / np.sqrt(2)
    times, fid = dark_state_check(model, psi, 10.0)
    assert np.max(np.abs(fid - 1.0)) <= 1e-9


def test_bright_state_decays_at_twice_the_rate():
    sp, model = three_mode_interference_model()
    psi = (fock_state(sp, (0, 1, 0)) + fock_state(sp, (1, 0, 0))) / np.sqrt(2)
    times, fid = dark_state_check(model, psi, 3.0)
    assert np.max(np.abs(fid - np.exp(-2.0 * times))) <= 1e-6
    assert fid[-1] <= np.exp(-5.9)


def test_vacuum_fidelity_constant():
    sp, model = three_mode_interference_model()
    psi = fock_state(sp, (0, 0, 0))
    _, fid = dark_state_check(model, psi, 5.0)
    assert np.max(np.abs(fid - 1.0)) <= 1e-12


def test_model_rejects_nonpositive_rate():
    sp = ModeSpace([2, 2])
    with pytest.raises(InvalidInput):
        LindbladModel(sp, [(transfer_jump(sp), 0.0)])
