"""Exact propagation at every level against independent oracles.

The reference paths are the fixed-step RK4 integrators the reservoir
level, the Markov ports, the master equation, the port-2 reflection and
the four-port router used before they were propagated exactly, kept here at reduced size, the
router's co-rotating Taylor propagation that its memory-kernel solve replaced, plus
numpy.linalg.eigh, closed forms, the dense phase matrices that the
exponential sums replaced, the blocked direct exponential sum that their nonuniform FFT
replaced and its one-block-per-pass form, long-double direct sums at every caller's size,
per-block Cauchy sums that the batched kernels replaced (off a comb) and long-double
Cauchy sums for the comb's interpolated far field, the general secular solve
that the closed form for uniform combs bypasses, scipy.special's digamma and
trigamma, the scipy.sparse.kron construction of the master-equation generator,
the propagation of all d^2 density-matrix entries that the reachable support replaced,
the per-interval Taylor propagation that the master equation's interval propagators replaced,
the DensityMatrix methods that the observables and invariants on that support replaced,
the router's per-class bath filters and 8-point kernel sums that its bath channels and
closed-form kernel replaced, a 16-point Gauss-Legendre rule for those kernel sums,
the per-step solve for the cavity amplitude that its online FFT convolution replaced,
long-double direct sums for the chirp-z comb sums, the per-level rules for the
recorded steps that ``sample_steps`` replaced, the Markov filter's sequential step
recurrence that its doubling scan replaced, and the port-2 reflection through a
secular solve of its own (``reference.reflect_port2_mirrored``), which the reflection
on C2 replaced, and the two-upper-mode interference through a propagator of its own
(``reference.interference_own_propagator``), which ``evolve_exact`` on the symmetric
mode replaced.
"""

import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.special

from photonflow import _integrate

from photonflow import (
    ContinuumGrid,
    DensityMatrix,
    InvalidInput,
    LindbladModel,
    ModeSpace,
    ReservoirSpec,
    SingleExcitationState,
    TwoUpperModeState,
    annihilation,
    coupling_for_diode_rate,
    coupling_for_rate,
    creation,
    custom_pulse,
    evolve,
    evolve_exact,
    evolve_full,
    evolve_markov,
    fock_density,
    fock_state,
    gaussian_pulse,
    interference_evolve,
    interference_transfer_jump,
    mixed_fock_density,
    port2_output_decomposition,
    project_pulse,
    reflect_port2,
    simulation_window,
    transfer_jump,
    zeno_evolve,
    zeno_scan,
)
from photonflow._integrate import (_arrowhead_eigensystem, _block_slices, _comb_spacing,
                                   _polygamma, comb_sum, exp_sum, fft_size, sample_steps,
                                   steps_for, taylor_propagate)
from photonflow.diode import (_GREGORY, _LEAF, _NODE_WEIGHTS, _NODES, _REACH, _START,
                              _START_ITERATIONS, _STENCIL, _BathChannels, _generator_norm,
                              _kernel_integrals, _lagrange, _linear_filter, _quadrature_grid,
                              _solve_cavity, _stencil, intensity_centroid)
from photonflow.lindblad import _phi, _superoperator, state_fidelity
from photonflow.reservoir import _default_dt, _ExactPropagator
from photonflow.scenario import (RunOutcome, _master_report, parse_scenario, parse_scenario_text,
                                 validate_scenario)
from reference import (cauchy_long_double, classes_per_block, exp_sum_blocked,
                       exp_sum_per_block, interference_own_propagator, linear_filter_recurrence,
                       modes_per_block, number, reconstruct_field, reflect_port2_mirrored,
                       taylor_evolve)


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


# --- RK4 reference path ----------------------------------------------------------


def rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_trajectory(rhs, y0, t0, nsteps, dt):
    ys = [np.asarray(y0, dtype=complex)]
    for step in range(nsteps):
        ys.append(rk4_step(rhs, t0 + step * dt, ys[-1], dt))
    return np.array(ys)


def single_excitation_rhs(spec, n_upper=1):
    """Interaction-picture amplitudes: n_upper modes sharing one channel."""
    om = spec.frequencies()
    g = complex(spec.coupling)

    def rhs(t, y):
        out = np.empty_like(y)
        ph = np.exp(1j * om * t)
        out[:n_upper] = 1j * g * np.dot(ph, y[n_upper:])
        out[n_upper:] = (1j * np.conj(g) * np.sum(y[:n_upper])) * ph.conj()
        return out

    return rhs


def markov_rk4(gamma, gamma1, gamma2, pulse, t_final, dt):
    """Leakage, convolved and factorized yields carried as RK4 components."""
    nsteps, dt = steps_for(t_final, dt)
    half_width = 0.5 * (gamma + gamma1)

    def rhs(t, y):
        f_amp, rho = y[0], y[1]
        phi = complex(pulse.amplitude(t))
        return np.array(
            [
                phi - half_width * f_amp,
                -gamma2 * rho + gamma1 * gamma2 * gamma * abs(f_amp) ** 2,
                abs(phi - gamma1 * f_amp) ** 2,
                rho.real,
                gamma1 * gamma * abs(f_amp) ** 2,
            ],
            dtype=complex,
        )

    y = np.zeros(5, dtype=complex)
    for step in range(nsteps):
        y = rk4_step(rhs, step * dt, y, dt)
    return y[2].real, y[3].real, y[4].real


def random_state(rng, f, t0):
    c = 0.1 * (rng.normal(size=f) + 1j * rng.normal(size=f))
    return SingleExcitationState(0.6 + 0.3j, c, t0)


# --- secular eigenpairs -------------------------------------------------------------


def arrowhead(spec):
    om = spec.frequencies()
    k = np.diag(np.concatenate(([0.0], om)))
    k[0, 1:] = k[1:, 0] = abs(spec.coupling)
    return k


def secular_eigenvectors(eig):
    vecs = np.empty((eig.poles.size + 1, eig.roots.size))
    for ks in _block_slices(eig.roots.size):
        vecs[0, ks] = eig.inv_norm[ks]
        vecs[1:, ks] = (eig.z / eig.gaps(ks)).T * eig.inv_norm[ks]
    return vecs


@pytest.mark.parametrize(
    "spec",
    [
        ReservoirSpec(f=40, eps_max=10.0, coupling=coupling_for_rate(40, 10.0, 1.0)),
        ReservoirSpec(f=100, eps_max=25.0, coupling=0.3 * np.exp(0.4j)),
        ReservoirSpec(f=100, eps_max=5.0, coupling=3.0),
        ReservoirSpec(f=60, eps_max=10.0, coupling=0.2, spectrum="lorentzian",
                      center=6.0, width=2.0),
    ],
)
def test_secular_eigenpairs_match_eigh(spec):
    eig = _ExactPropagator(spec.frequencies(), spec.coupling).eig
    values, vectors = np.linalg.eigh(arrowhead(spec))
    order = np.argsort(eig.roots)
    assert np.max(np.abs(eig.roots[order] - values)) <= 1e-12
    ours = secular_eigenvectors(eig)[:, order]
    signs = np.sign(np.sum(ours * vectors, axis=0))
    assert np.max(np.abs(ours - vectors * signs)) <= 1e-12
    assert np.max(np.abs(ours.T @ ours - np.eye(ours.shape[1]))) <= 1e-12


# --- closed-form secular function of a uniform comb --------------------------------


def port_comb(n):
    grid = ContinuumGrid(n_q=n, delta_max=20.0, gamma=4.0)
    return grid.detunings(), np.full(n, grid.kappa)


def general_eigensystem(monkeypatch, poles, z):
    """The secular solve summing over the poles, also where the closed form applies."""
    with monkeypatch.context() as patch:
        patch.setattr(_integrate, "_comb_spacing", lambda poles, z: None)
        return _arrowhead_eigensystem(poles, z)


@pytest.mark.parametrize("poles, z", [
    *(port_comb(n) for n in (1, 2, 3, 160, 400, 2400)),
    (np.linspace(-5.0, 5.0, 100), np.full(100, 3.0)),  # symmetric: the middle root is 0
    (5.0 + 0.1 * np.arange(401), np.full(401, 0.3)),  # wholly above 0
], ids=["n1", "n2", "n3", "n160", "n400", "n2400", "symmetric-strong", "above-zero"])
def test_comb_secular_solve_matches_general_path(monkeypatch, poles, z):
    assert _comb_spacing(poles, z) is not None
    comb = _arrowhead_eigensystem(poles, z)
    general = general_eigensystem(monkeypatch, poles, z)
    spacing = poles[1] - poles[0] if poles.size > 1 else 1.0
    assert np.max(np.abs(comb.roots - general.roots)) <= 1e-12 * spacing
    assert np.max(np.abs(comb.inv_norm / general.inv_norm - 1.0)) <= 1e-12
    assert 0 < comb.iterations <= 8 or poles.size == 1
    if poles.size == 100:
        assert abs(comb.roots[50]) <= 1e-15


def test_polygamma_matches_scipy():
    x = np.concatenate((np.geomspace(1e-3, 1e6, 4000), np.linspace(1.0, 2.0, 1001)))
    psi, dpsi = _polygamma(x)
    ref = scipy.special.digamma(x)
    assert np.max(np.abs(psi - ref) / np.maximum(np.abs(ref), 1.0)) <= 4e-15
    assert np.max(np.abs(dpsi / scipy.special.polygamma(1, x) - 1.0)) <= 2e-15


def test_perturbed_comb_takes_general_path(monkeypatch):
    poles, z = port_comb(400)
    moved = poles.copy()
    moved[137] += 1e-6 * (poles[1] - poles[0])
    unequal = z.copy()
    unequal[5] *= 1.0 + 1e-15
    for p, zz in ((moved, z), (poles, unequal)):
        assert _comb_spacing(p, zz) is None
        ours, general = _arrowhead_eigensystem(p, zz), general_eigensystem(monkeypatch, p, zz)
        assert np.array_equal(ours.roots, general.roots)
        assert np.array_equal(ours.inv_norm, general.inv_norm)


@pytest.mark.parametrize("omegas", [
    -ContinuumGrid(n_q=400, delta_max=10.0, gamma=4.0).detunings(),
    ReservoirSpec(f=90, eps_max=10.0, coupling=0.2, spectrum="lorentzian",
                  center=6.0, width=2.0).frequencies(),
], ids=["comb", "lorentzian"])
def test_cauchy_kernel_matches_per_block_division(omegas):
    rng = np.random.default_rng(omegas.size)
    eig = _ExactPropagator(omegas, 0.3).eig
    bright = rng.normal(size=eig.poles.size) + 1j * rng.normal(size=eig.poles.size)
    coef = eig.coefficients(0.2 - 0.1j, bright)
    out = eig.lower_at(coef, 3.7)
    if eig.cauchy is None:  # off a comb: the bits of the per-block division
        assert np.array_equal(coef, modes_per_block(eig, 0.2 - 0.1j, bright))
        assert np.array_equal(out, classes_per_block(eig, coef, 3.7))
    else:  # on a comb the far field goes through FFTs: sums in long double bound it
        assert_cauchy_products_match_long_double(eig, 0.2 - 0.1j, bright, coef, 3.7, out)


def assert_cauchy_products_match_long_double(eig, c0, bright, coef, tau, out):
    for got, ref in zip((coef, out), cauchy_long_double(eig, c0, bright, coef, tau)):
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_q", [1, 5, 100, 160, 400, 2400, 8800])
def test_comb_cauchy_products_match_long_double_sums(n_q):
    # n_q = 1 and 5 lie wholly in the near field; at 100 to 400 the outer roots lie past
    # half a spacing from their origin, and at 100 and 160 the midpoint root on it, and
    # those are summed directly; 2400 is the router's C2 and 8800 the shipped reflection's
    eig = ContinuumGrid(n_q=n_q, delta_max=0.005 * n_q + 2.0, gamma=20.0).cavity
    cauchy = eig.cauchy
    assert cauchy is not None and cauchy.size == fft_size(2 * n_q - 1)
    if n_q in (100, 160, 400):
        assert cauchy.direct.size > 0
    rng = np.random.default_rng(n_q)
    bright = rng.normal(size=n_q) + 1j * rng.normal(size=n_q)
    coef = eig.coefficients(0.3 + 0.5j, bright)
    assert_cauchy_products_match_long_double(eig, 0.3 + 0.5j, bright, coef, 2.9,
                                             eig.lower_at(coef, 2.9))


def test_excited_state_builds_no_cauchy_product():
    # an empty reservoir skips the sums: the coefficients keep their bits, and the
    # comb's node spectra are never built
    prop = ReservoirSpec(f=400, eps_max=50.0, coupling=0.3).propagator
    coef, _ = prop.modes(1.0, np.zeros(400))
    assert np.array_equal(coef, modes_per_block(prop.eig, 1.0, np.zeros(prop.eig.poles.size)))
    assert "cauchy" not in vars(prop.eig)


@pytest.mark.parametrize("eig", [
    _ExactPropagator(ReservoirSpec(f=400, eps_max=10.0, coupling=0.3).frequencies(), 0.3).eig,
    _ExactPropagator(ReservoirSpec(f=90, eps_max=10.0, coupling=0.2, spectrum="lorentzian",
                                   center=6.0, width=2.0).frequencies(), 0.2).eig,
    ContinuumGrid(n_q=160, delta_max=4.0, gamma=20.0).cavity,
    ContinuumGrid(n_q=2400, delta_max=45.0, gamma=20.0).cavity,
], ids=["equidistant-f400", "lorentzian-f90", "c2-n160", "c2-n2400"])
def test_eigenbasis_coefficients_and_lower_components_invert(eig):
    # the eigenvectors are orthonormal: writing a state into their basis and reading it
    # back at tau = 0 returns it, and keeps its upper component and its norm
    rng = np.random.default_rng(eig.poles.size)
    c0 = 0.4 - 0.7j
    b = rng.normal(size=eig.poles.size) + 1j * rng.normal(size=eig.poles.size)
    coef = eig.coefficients(c0, b)
    assert np.max(np.abs(eig.lower_at(coef, 0.0) - b)) <= 1e-13 * np.max(np.abs(b))
    assert abs(np.sum(coef * eig.inv_norm) - c0) <= 1e-13 * abs(c0)
    norm_sq = abs(c0) ** 2 + np.sum(np.abs(b) ** 2)
    assert abs(np.sum(np.abs(coef) ** 2) - norm_sq) <= 1e-13 * norm_sq


def test_negligible_coupling_is_deflated():
    spec = ReservoirSpec(f=20, eps_max=5.0, coupling=1e-30)
    eig = _ExactPropagator(spec.frequencies(), spec.coupling).eig
    assert eig.poles.size == 0
    assert np.array_equal(eig.roots, [0.0])


# --- reservoir dynamics against RK4 --------------------------------------------------


def test_exact_survival_and_final_amplitudes_match_rk4():
    rng = np.random.default_rng(7)
    spec = ReservoirSpec(f=60, eps_max=10.0, coupling=coupling_for_rate(60, 10.0, 1.0) * 1j)
    state = random_state(rng, spec.f, t0=0.37)
    traj = evolve_exact(spec, state, t_final=2.0)
    nsteps = traj.times.size - 1
    ref = rk4_trajectory(
        single_excitation_rhs(spec), np.concatenate(([state.c0], state.c)), state.t,
        nsteps, traj.times[1] - traj.times[0],
    )
    assert np.max(np.abs(np.abs(ref[:, 0]) ** 2 - traj.survival)) <= 1e-9
    assert abs(traj.c0[-1] - ref[-1, 0]) <= 1e-9
    assert np.max(np.abs(traj.c_final - ref[-1, 1:])) <= 1e-9


def test_rabi_closed_form_for_one_class():
    g, w = 0.7, 1.3
    spec = ReservoirSpec(f=1, eps_max=2.0, coupling=g, spectrum="custom", omegas=(w,))
    traj = evolve_exact(spec, t_final=20.0)
    rabi = np.sqrt(g**2 + 0.25 * w**2)
    t = traj.times
    expected = 1.0 - (g / rabi) ** 2 * np.sin(rabi * t) ** 2
    assert np.max(np.abs(traj.survival - expected)) <= 1e-12
    amp = np.exp(0.5j * w * t) * (np.cos(rabi * t) - 0.5j * w / rabi * np.sin(rabi * t))
    assert np.max(np.abs(traj.c0 - amp)) <= 1e-12


def test_duplicate_frequencies_match_rk4():
    rng = np.random.default_rng(3)
    omegas = (-2.0, 0.5, 0.5, 0.5, 1.0, -2.0, 3.0)
    spec = ReservoirSpec(f=7, eps_max=5.0, coupling=0.4, spectrum="custom", omegas=omegas)
    state = random_state(rng, spec.f, t0=0.1)
    dt = 0.25 * 0.02 / spec.eps_max
    traj = evolve_exact(spec, state, t_final=5.0, dt=dt)
    ref = rk4_trajectory(
        single_excitation_rhs(spec), np.concatenate(([state.c0], state.c)), state.t,
        traj.times.size - 1, dt,
    )
    assert np.max(np.abs(np.abs(ref[:, 0]) ** 2 - traj.survival)) <= 1e-9
    assert np.max(np.abs(traj.c_final - ref[-1, 1:])) <= 1e-9


def test_zeno_cumulative_matches_segment_loop():
    spec = ReservoirSpec(f=60, eps_max=25.0, coupling=coupling_for_rate(60, 25.0, 1.0))
    rhs = single_excitation_rhs(spec)
    for tau in (0.04, 0.004):
        dt = 0.02 / spec.eps_max / 8
        result = zeno_evolve(spec, t_final=20 * tau, tau_m=tau)
        nsteps, h = steps_for(tau, dt)
        y = np.concatenate(([1.0], np.zeros(spec.f))).astype(complex)
        cumulative, t = [1.0], 0.0
        for _ in range(20):
            end = rk4_trajectory(rhs, y, t, nsteps, h)[-1]
            cumulative.append(cumulative[-1] * abs(end[0]) ** 2 / np.sum(np.abs(end) ** 2))
            y = np.zeros_like(y)
            y[0] = end[0] / abs(end[0])
            t += tau
        assert np.max(np.abs(np.array(cumulative) / result.survival - 1.0)) <= 1e-10


@pytest.mark.parametrize("ctor", [TwoUpperModeState.single, TwoUpperModeState.symmetric,
                                  TwoUpperModeState.antisymmetric])
def test_interference_matches_two_mode_rk4(ctor):
    spec = ReservoirSpec(f=80, eps_max=10.0, coupling=coupling_for_rate(80, 10.0, 1.0) * 1j)
    state = ctor(spec.f)
    dt = 0.25 * 0.02 / spec.eps_max
    traj = interference_evolve(spec, state, 2.0, dt=dt)
    ref = rk4_trajectory(
        single_excitation_rhs(spec, n_upper=2),
        np.concatenate(([state.c0, state.c0p], state.c)), state.t, traj.times.size - 1, dt,
    )
    assert np.max(np.abs(ref[:, 0] - traj.c0)) <= 1e-9
    assert np.max(np.abs(ref[:, 1] - traj.c0p)) <= 1e-9


@pytest.mark.parametrize("setup", ["shipped-antisymmetric", "shipped-symmetric", "shipped-single",
                                   "complex-coupling-t0"])
def test_interference_matches_its_own_propagator(setup):
    # interference_evolve is evolve_exact on the symmetric mode's spec; the path it
    # replaced builds the sqrt(2) g_c propagator itself and gives the same bits
    if setup.startswith("shipped"):
        c = parse_scenario(SCENARIO_DIR / "interference.ini").inputs
        spec, t_final, dt = c.spec, c.t_final, c.dt
        state = getattr(TwoUpperModeState, setup.split("-")[1])(spec.f)
    else:
        spec = ReservoirSpec(f=80, eps_max=10.0,
                             coupling=coupling_for_rate(80, 10.0, 1.0) * np.exp(0.7j))
        rng = np.random.default_rng(4)
        z = rng.normal(size=spec.f + 2) + 1j * rng.normal(size=spec.f + 2)
        state = TwoUpperModeState(z[0], z[1], z[2:], t=0.37)
        t_final, dt = 2.0, None
    traj = interference_evolve(spec, state, t_final, dt=dt)
    ref = interference_own_propagator(spec, state, t_final, dt=dt)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.c0, ref.c0) and np.array_equal(traj.c0p, ref.c0p)


def test_interference_makes_no_cauchy_product(monkeypatch):
    # the class amplitudes at the end are built only when read, and interference never
    # reads them; the shipped states start with an empty reservoir, so modes() needs none
    c = parse_scenario(SCENARIO_DIR / "interference.ini").inputs
    calls = []
    gaps = _integrate._Eigensystem.gaps

    def counted(self, ks):
        calls.append(ks)
        return gaps(self, ks)

    monkeypatch.setattr(_integrate._Eigensystem, "gaps", counted)
    interference_evolve(c.spec, getattr(TwoUpperModeState, c.state)(c.spec.f), c.t_final, c.dt)
    assert calls == []


def test_decay_builds_its_final_classes_when_read():
    c = parse_scenario(SCENARIO_DIR / "markov_decay.ini").inputs
    traj = evolve_exact(c.spec, None, c.t_final, c.dt)
    prop = c.spec.propagator
    coef, dark = prop.modes(1.0, prop.to_frame(np.zeros(c.spec.f, dtype=complex), 0.0))
    tau = traj.times[-1]  # t0 = 0
    assert np.array_equal(traj.c_final, prop.classes_at(coef, dark, tau, tau))
    assert traj.c_final is traj.c_final  # built once


# --- Markov ports against RK4 ------------------------------------------------------


@pytest.mark.parametrize("gamma1, gamma2, duration", [(1.0, 20.0, 8.0), (0.3, 20.0, 8.0),
                                                      (2.0, 200.0, 10.0)])
def test_markov_integrals_match_rk4_at_tenth_step(gamma1, gamma2, duration):
    gamma, dt = 1.0, 0.02
    pulse = gaussian_pulse(t0=3 * duration, duration=duration)
    t_final = simulation_window(pulse, gamma=gamma, gamma1=gamma1, gamma2=gamma2)
    mk = evolve_markov(gamma, gamma1, gamma2, pulse, t_final, dt)
    leakage, convolved, factorized = markov_rk4(gamma, gamma1, gamma2, pulse, t_final, dt / 10)
    assert mk.leakage == pytest.approx(leakage, abs=1e-6)
    assert mk.yield_convolved == pytest.approx(convolved, abs=1e-6)
    assert mk.yield_factorized == pytest.approx(factorized, abs=1e-6)


def test_markov_is_stable_beyond_the_rk4_limit():
    # gamma2 * dt = 4 exceeds the RK4 stability limit of about 2.79
    pulse = gaussian_pulse(t0=30.0, duration=10.0)
    t_final = simulation_window(pulse, gamma=1.0, gamma2=200.0)
    mk = evolve_markov(1.0, 1.0, 200.0, pulse, t_final, dt=0.02)
    assert np.all(np.isfinite(mk.rho_out))
    assert mk.leakage + mk.yield_convolved == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("rate_dt", [2e-5, 0.0125, 0.02, 0.4, 4.0, 40.0])
@pytest.mark.parametrize("n", [6501, 2])
@pytest.mark.parametrize("dtype", [float, complex])
def test_linear_filter_scan_matches_sequential_recurrence(rate_dt, n, dtype):
    # 2e-5 is nearly a prefix sum; at 40 the scan stops where decay**span underflows
    dt = 0.02
    rng = np.random.default_rng(28)
    u, u_mid = (rng.standard_normal(m) + (1j * rng.standard_normal(m) if dtype is complex else 0)
                for m in (n, n - 1))
    y, y_mid = _linear_filter(rate_dt / dt, dt, u, u_mid)
    ref, ref_mid = linear_filter_recurrence(rate_dt / dt, dt, u, u_mid)
    assert y.dtype == ref.dtype and y.shape == ref.shape and y[0] == 0.0
    assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(y_mid - ref_mid)) <= 1e-13 * np.max(np.abs(ref_mid))


# --- master equation against RK4 on the same superoperator ---------------------------


def random_density(rng, space):
    d = space.total_dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return DensityMatrix(space, rho / np.trace(rho))


def transfer_model():
    space = ModeSpace([3, 4])
    return LindbladModel(space, [(transfer_jump(space), 1.3)])


def interference_model():
    space = ModeSpace([2, 2, 2])
    return LindbladModel(space, [(interference_transfer_jump(space, (0, 1), 2), 0.8)])


def hamiltonian_model():
    space = ModeSpace([2, 3])
    hop = creation(space, 0) @ annihilation(space, 1)
    ham = number(space, 0) * 2.5 + number(space, 1) * 0.7 + (hop + hop.adjoint()) * 0.4
    return LindbladModel(space, [(transfer_jump(space), 1.0)], hamiltonian=ham)


@pytest.mark.parametrize("make_model", [transfer_model, interference_model, hamiltonian_model],
                         ids=["transfer", "interference", "hamiltonian"])
def test_master_equation_taylor_matches_rk4(make_model):
    model = make_model()
    rho0 = random_density(np.random.default_rng(11), model.space)
    dt, stride, substeps = 0.05, 5, 100
    res = evolve(model, rho0, 2.0, dt=dt, snapshot_stride=stride)
    gen = _superoperator(model)
    ref = rk4_trajectory(lambda t, y: gen @ y, rho0.matrix.reshape(-1), 0.0,
                         (res.times.size - 1) * stride * substeps, dt / substeps)
    d = model.space.total_dim
    for j, dm in enumerate(res.states):
        assert np.max(np.abs(dm.matrix - ref[j * stride * substeps].reshape(d, d))) <= 1e-9


def kron_superoperator(model):
    """The generator as a scipy.sparse CSR matrix, summed as the master equation reads."""
    d = model.space.total_dim
    eye = sps.identity(d, dtype=complex, format="csr")
    s = sps.csr_matrix((d * d, d * d), dtype=complex)
    if model.hamiltonian is not None:
        h = sps.csr_matrix(model.hamiltonian.matrix)
        s = s + (-1j) * (sps.kron(h, eye) - sps.kron(eye, h.T))
    for op, rate in model.jumps:
        l = sps.csr_matrix(op.matrix)
        ldl = (l.conj().T @ l).tocsr()
        s = s + rate * (sps.kron(l, l.conj()) - 0.5 * sps.kron(ldl, eye)
                        - 0.5 * sps.kron(eye, ldl.T))
    return sps.csr_matrix(s)


@pytest.mark.parametrize("make_model", [transfer_model, interference_model, hamiltonian_model],
                         ids=["transfer", "interference", "hamiltonian"])
def test_generator_matches_scipy_kron(make_model):
    model = make_model()
    gen = _superoperator(model)
    ref = kron_superoperator(model)
    ref.sort_indices()
    coo = ref.tocoo()
    assert np.array_equal(gen.rows, coo.row) and np.array_equal(gen.cols, coo.col)
    assert np.array_equal(gen.vals, coo.data)
    assert gen.onenorm() == abs(ref).sum(axis=0).max()
    rng = np.random.default_rng(5)
    y = rng.normal(size=gen.n) + 1j * rng.normal(size=gen.n)
    if np.all(gen.vals.imag == 0):
        assert np.array_equal(gen @ y, ref @ y)
    else:
        # numpy's SIMD complex product may round unlike the scalar products of scipy's loop
        assert np.max(np.abs(gen @ y - ref @ y)) <= 4e-16 * np.max(np.abs(ref @ y))


# --- master equation on its reachable support against the full space ------------------


def full_space_evolve(model, rho0, t_final, dt, stride):
    """Every snapshot of the propagation of all d^2 entries, y + Phi_h (S y) folded as
    d x d matrices, with Phi_h built on the whole generator: the loop that the
    propagation on the reachable support replaced."""
    gen = _superoperator(model)
    d = model.space.total_dim
    nsteps, dt = steps_for(t_final, dt)

    def fold(v):
        m = v.reshape(d, d)
        return (0.5 * (m + m.conj().T)).reshape(-1)

    y = rho0.matrix.reshape(-1).astype(complex)
    states = [y]
    steps = list(range(stride, nsteps, stride)) + [nsteps]
    for prev, step in zip([0] + steps, steps):
        phi, _ = _phi(gen, (step - prev) * dt, gen.onenorm())
        y = fold(y + phi @ (gen @ y))
        states.append(y)
    return [v.reshape(d, d) for v in states]


def purification_4x8():
    space = ModeSpace([4, 8])
    model = LindbladModel(space, [(transfer_jump(space), 1.0)])
    return model, mixed_fock_density(space, {(3, 0): 0.5, (2, 1): 0.3, (1, 3): 0.2})


def interference_state(sign):
    def make():
        model = interference_model()
        psi = (fock_state(model.space, (0, 1, 0)) + sign * fock_state(model.space, (1, 0, 0)))
        return model, DensityMatrix.from_state_vector(model.space, psi / np.sqrt(2.0))
    return make


def hamiltonian_fock():
    model = hamiltonian_model()
    return model, fock_density(model.space, (1, 1))


def non_hermitian_fock():
    # the pattern of a non-Hermitian H is not transpose-symmetric: the fold fills the mirror
    space = ModeSpace([2, 3])
    hop = creation(space, 0) @ annihilation(space, 1)
    model = LindbladModel(space, [(transfer_jump(space), 1.0)], hamiltonian=hop * 0.4)
    return model, fock_density(space, (0, 2))


def random_full():
    model = transfer_model()
    return model, random_density(np.random.default_rng(3), model.space)


def zero_state():
    model = transfer_model()
    d = model.space.total_dim
    return model, DensityMatrix(model.space, np.zeros((d, d)))


SUPPORT_CASES = [purification_4x8, interference_state(-1.0), interference_state(1.0),
                 hamiltonian_fock, non_hermitian_fock, random_full, zero_state]
SUPPORT_IDS = ["mixture-4x8", "dark", "bright", "hamiltonian", "non-hermitian", "random", "zero"]


@pytest.mark.parametrize("make_case", SUPPORT_CASES, ids=SUPPORT_IDS)
def test_support_propagation_matches_full_space(make_case):
    model, rho0 = make_case()
    res = evolve(model, rho0, 2.0, dt=0.05, snapshot_stride=4)
    ref = full_space_evolve(model, rho0, 2.0, 0.05, 4)
    assert len(res.states) == len(ref)
    for dm, m in zip(res.states, ref):
        assert dm.matrix.tobytes() == m.tobytes()  # also the signs of zeros
    # the support holds every entry that is ever nonzero (the dark state's stay 0 by cancellation)
    assert res.propagated_entries >= np.count_nonzero(np.any(np.array(ref) != 0, axis=0))
    assert (res.generator_products > 0) == (res.propagated_entries > 0)


@pytest.mark.parametrize("make_case", SUPPORT_CASES, ids=SUPPORT_IDS)
def test_interval_propagators_match_per_interval_taylor(make_case):
    # 40 samples at stride 3: twelve intervals of 3 samples and a last one of 1
    model, rho0 = make_case()
    res = evolve(model, rho0, 2.0, dt=0.05, snapshot_stride=3)
    ref = taylor_evolve(model, rho0, 2.0, 0.05, 3)
    assert res.support.shape == ref.shape
    scale = np.max(np.abs(ref), initial=0.0)
    assert np.max(np.abs(res.support - ref), initial=0.0) <= 1e-13 * scale


def test_full_random_state_propagators_stay_on_their_components():
    # every one of the 1024 entries of a random 4x8 state is propagated; the transfer
    # joins them in 583 chains of at most 4 entries, so Phi_h keeps at most sum b^2 of them
    space = ModeSpace([4, 8])
    model = LindbladModel(space, [(transfer_jump(space), 1.0)])
    rho0 = random_density(np.random.default_rng(3), space)
    res = evolve(model, rho0, 2.0, dt=0.05, snapshot_stride=4)  # one interval length
    gen = _superoperator(model)
    sizes = np.bincount(_integrate.components(gen.n, gen.rows, gen.cols))
    sizes = sizes[sizes > 0]
    assert res.propagated_entries == 1024
    assert (sizes.size, sizes.max(), np.sum(sizes**2)) == (583, 4, 2244)
    assert 0 < res.propagator_entries <= 2244
    ref = taylor_evolve(model, rho0, 2.0, 0.05, 4)
    assert np.max(np.abs(res.support - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_dark_state_support_is_stationary():
    # S y is exactly 0 on the dark state, so y + Phi_h (S y) is y bit for bit; only
    # the first fold turns the -0 imaginary parts of rho0's outer product into +0
    model, rho0 = interference_state(-1.0)()
    res = evolve(model, rho0, 2.0, dt=0.05, snapshot_stride=3)
    assert np.array_equal(res.support, np.broadcast_to(res.support[0], res.support.shape))
    assert len({row.tobytes() for row in res.support[1:]}) == 1


@pytest.mark.parametrize("make_case", SUPPORT_CASES, ids=SUPPORT_IDS)
def test_reachable_support_is_closed(make_case):
    model, rho0 = make_case()
    gen = _superoperator(model)
    d = model.space.total_dim
    flip = np.arange(d * d).reshape(d, d).T.reshape(-1)
    idx = gen.reachable(rho0.matrix.reshape(-1), mirror=flip)
    assert np.array_equal(np.sort(flip[idx]), idx)
    off = np.ones(d * d, dtype=bool)
    off[idx] = False
    rng = np.random.default_rng(9)
    v = np.zeros(d * d, dtype=complex)
    v[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    assert not np.any((gen @ v)[off])
    sub = gen.restrict(idx)
    assert np.array_equal(sub @ v[idx], (gen @ v)[idx])
    if model.hamiltonian is None or make_case is hamiltonian_fock:
        # a Hermitian generator's pattern is transpose-symmetric on its own
        seed = rho0.matrix + rho0.matrix.T
        assert np.array_equal(gen.reachable(seed.reshape(-1), np.arange(gen.n)), idx)


@pytest.mark.parametrize("make_case", SUPPORT_CASES, ids=SUPPORT_IDS)
def test_support_observables_match_density_matrices(make_case):
    model, rho0 = make_case()
    res = evolve(model, rho0, 2.0, dt=0.05, snapshot_stride=4)
    states = res.states
    assert states[0] is rho0
    assert np.array_equal(res.hermiticity_defects(), [dm.hermiticity_defect() for dm in states])
    # a 1x1 block is its diagonal entry and a block of every index the full
    # matrix, so LAPACK sees what it sees on the full matrix; a larger block
    # inside it is reduced without the indices between its own, and may
    # differ from the full matrix in the last bit
    d = model.space.total_dim
    exact = all(b.size in (1, d) for b in res.blocks)
    full = np.array([dm.min_eigenvalue() for dm in states])
    bound = 0.0 if exact else 4e-16 * np.max(np.abs(res.support), initial=1.0)
    assert np.max(np.abs(res.min_eigenvalues() - full)) <= bound
    ref = {"trace": [np.real(dm.trace()) for dm in states],
           "purity": [dm.purity() for dm in states]}
    for k in range(model.space.n_modes):
        op = number(model.space, k)
        ref[f"pop_mode{k + 1}"] = [np.real(dm.expectation(op)) for dm in states]
    assert list(res.observables) == list(ref)
    for name, col in ref.items():
        # the sums run over the support alone, so they regroup
        assert np.max(np.abs(res.observables[name] - col)) <= 4e-16 * np.max(np.abs(col)), name
    psi = np.random.default_rng(2).normal(size=model.space.total_dim) + 0j
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    dense = [np.real(np.sum(np.conj(psi)[:, None] * psi[None, :] * dm.matrix)) for dm in states]
    assert np.max(np.abs(state_fidelity(res, psi) - dense)) <= 4e-16 * np.max(np.abs(dense))
    # the blocks split the covered indices, and no entry joins two of them
    covered = np.concatenate([np.array([], dtype=int), *res.blocks])
    assert np.array_equal(np.sort(covered), np.unique(res.entries // d))
    matrices = np.array([dm.matrix for dm in states])
    for b in res.blocks:
        assert not np.any(matrices[:, b][:, :, np.setdiff1d(np.arange(d), b)])


def test_fock_mixture_invariants_need_no_lapack(monkeypatch):
    model, rho0 = purification_4x8()

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd", "solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    res = evolve(model, rho0, 20.0, dt=0.0016, snapshot_stride=10)
    outcome = RunOutcome()
    _master_report(outcome, res)
    assert outcome.invariant_failures == []
    assert outcome.derived["largest_block"] == 1
    assert outcome.derived["support_blocks"] == len(res.blocks) > 1
    with pytest.raises(AssertionError, match="LAPACK"):
        res.states[-1].min_eigenvalue()


# --- four-port router against RK4 --------------------------------------------------------


def router_rk4(grid1, grid2, spec, p0, t_final, dt, substeps):
    """Lab-frame amplitudes (P, Q, R, S) stepped by RK4 at dt / substeps; the
    populations at the samples of evolve_full and the final amplitudes."""
    n1, f, n2 = grid1.n_q, spec.f, grid2.n_q
    d1, d2, om = grid1.detunings(), grid2.detunings(), spec.frequencies()
    k1, k2, g = grid1.kappa, grid2.kappa, complex(spec.coupling)
    iq, ir, is_ = n1, slice(n1 + 1, n1 + 1 + f), slice(n1 + 1 + f, None)

    def rhs(t, y):
        out = np.empty_like(y)
        ph = np.exp(1j * om * t)
        s = y[is_].reshape(f, n2)
        out[:n1] = -1j * d1 * y[:n1] - 1j * k1 * y[iq]
        out[iq] = -1j * k1 * np.sum(y[:n1]) + 1j * g * np.sum(ph * y[ir])
        out[ir] = 1j * np.conj(g) * ph.conj() * y[iq] - 1j * k2 * np.sum(s, axis=1)
        out[is_] = (-1j * d2[None, :] * s - 1j * k2 * y[ir][:, None]).ravel()
        return out

    nsteps, dt = steps_for(t_final, dt)
    stride = max(1, int(round(0.1 / dt)))
    parts = (slice(0, n1), iq, ir, is_)
    y = np.zeros(n1 + 1 + f + f * n2, dtype=complex)
    y[:n1] = p0
    h = dt / substeps
    pops = [[np.sum(np.abs(y[part]) ** 2) for part in parts]]
    for step in range(1, nsteps + 1):
        for sub in range(substeps):
            y = rk4_step(rhs, ((step - 1) * substeps + sub) * h, y, h)
        if step % stride == 0 or step == nsteps:
            pops.append([np.sum(np.abs(y[part]) ** 2) for part in parts])
    return np.array(pops).T, y[:n1], y[iq], y[ir], y[is_].reshape(f, n2)


def test_router_matches_rk4():
    # a wide reservoir comb, so that the frame turns R and S by over a radian
    gamma, gamma1, gamma2, duration = 1.0, 1.0, 5.0, 2.0
    pulse = gaussian_pulse(t0=3 * duration, duration=duration)
    spec = ReservoirSpec(f=6, eps_max=0.05,
                         coupling=coupling_for_diode_rate(6, 0.05, gamma2, gamma))
    grid1 = ContinuumGrid(n_q=32, delta_max=3.0, gamma=gamma1)
    grid2 = ContinuumGrid(n_q=32, delta_max=3.0, gamma=gamma2)
    t_final = simulation_window(pulse, gamma=gamma, gamma1=gamma1, gamma2=gamma2)
    p0 = project_pulse(grid1, pulse)
    traj = evolve_full(grid1, grid2, spec, p0, t_final)
    pops, p, q, r, s = router_rk4(grid1, grid2, spec, p0, t_final, 0.02, substeps=4)
    ours = np.array([traj.port1, traj.cavity1, traj.mode2, traj.port2])
    assert ours.shape == pops.shape
    for got, ref in zip(ours, pops):
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(ref)
    final, classes = traj.final, traj.bath.classes
    assert np.max(np.abs(final.p - p)) <= 1e-8 * np.max(np.abs(p))
    # q and r end near zero, so they are held to their peaks over the run
    assert abs(final.q - q) <= 1e-8 * np.sqrt(np.max(pops[1]))
    assert np.max(np.abs(classes(final.r) - r)) <= 1e-8 * np.sqrt(np.max(pops[2]))
    assert np.max(np.abs(classes(final.s) - s)) <= 1e-8 * np.max(np.abs(s))
    assert traj.norm_drift <= 1e-12


def test_router_quadrature_rules_are_exact_for_degree_7():
    x, w = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(_NODES - 0.5 * (1.0 + x))) <= 1e-15
    assert np.max(np.abs(_NODE_WEIGHTS - 0.5 * w)) <= 1e-15
    for k in range(8):
        def integral(j, c):  # of ((x - c) / c)^k over [0, j]
            return c * (((j - c) / c) ** (k + 1) - (-1) ** (k + 1)) / (k + 1)

        # the start rows over the points 0..7, then Gregory weights with and without overlap
        nodes = np.arange(8.0)
        assert np.max(np.abs(_START @ ((nodes - 3.5) / 3.5) ** k - integral(nodes, 3.5))) <= 1e-14
        for n in (8, 11, 15, 40):
            weights = np.ones(n + 1)
            weights[:8] += _GREGORY
            weights[n - 7:] += _GREGORY[::-1]
            u = ((np.arange(n + 1.0) - n / 2) / (n / 2)) ** k
            assert abs(np.sum(weights * u) - integral(n, n / 2)) <= 1e-13 * n


def router_taylor(grid1, grid2, spec, p0, t_final, dt):
    """Amplitudes (P, Q, R', S') in the co-rotating frame R'_l = exp(i w_l t) R_l,
    S'_ql = exp(i w_l t) S_ql, where the generator is constant, moved from one
    sample of evolve_full to the next by taylor_propagate; the populations at
    those samples and the final lab-frame amplitudes."""
    n1, f, n2 = grid1.n_q, spec.f, grid2.n_q
    nsteps, dt = steps_for(t_final, dt)
    stride = max(1, int(round(0.1 / dt)))
    norm = _generator_norm(grid1, grid2.cavity, spec)
    om = spec.frequencies()
    k1, k2, g = grid1.kappa, grid2.kappa, complex(spec.coupling)
    md1 = -1j * grid1.detunings()
    mds = -1j * (grid2.detunings()[None, :] - om[:, None])
    iq, ir, is_ = n1, slice(n1 + 1, n1 + 1 + f), slice(n1 + 1 + f, None)

    def generator(v):
        out = np.empty_like(v)
        s = v[is_].reshape(f, n2)
        out[:n1] = md1 * v[:n1] - 1j * k1 * v[iq]
        out[iq] = -1j * k1 * np.sum(v[:n1]) + 1j * g * np.sum(v[ir])
        out[ir] = 1j * om * v[ir] + 1j * np.conj(g) * v[iq] - 1j * k2 * np.sum(s, axis=1)
        out[is_] = (mds * s - 1j * k2 * v[ir][:, None]).ravel()
        return out

    y = np.zeros(n1 + 1 + f + f * n2, dtype=complex)
    y[:n1] = p0
    steps = list(range(stride, nsteps, stride)) + [nsteps]
    parts = (slice(0, n1), iq, ir, is_)
    pops = [[np.sum(np.abs(y[part]) ** 2) for part in parts]]
    for prev, step in zip([0] + steps, steps):
        y, _ = taylor_propagate(generator, y, (step - prev) * dt, norm)
        pops.append([np.sum(np.abs(y[part]) ** 2) for part in parts])
    lab = np.exp(-1j * om * t_final)
    return np.array(pops).T, y[:n1], y[iq], lab * y[ir], lab[:, None] * y[is_].reshape(f, n2)


@pytest.mark.parametrize("t0, dt, t_final", [
    (6.0, 0.02, None),  # the setup of test_router_matches_rk4
    (2.0, 0.02, None),  # the pulse is at 61% of its peak when the run starts
    (6.0, 0.005, 17.33),  # the last sample interval is 6 steps of dt, not 20
    (6.0, 0.1, 17.33),  # dt shrinks to 17.33 / 174
], ids=["rk4-setup", "early-pulse", "dt-0.005", "dt-0.1"])
def test_router_matches_taylor(t0, dt, t_final):
    gamma, gamma1, gamma2, duration = 1.0, 1.0, 5.0, 2.0
    pulse = gaussian_pulse(t0=t0, duration=duration)
    spec = ReservoirSpec(f=6, eps_max=0.05,
                         coupling=coupling_for_diode_rate(6, 0.05, gamma2, gamma))
    grid1 = ContinuumGrid(n_q=32, delta_max=3.0, gamma=gamma1)
    grid2 = ContinuumGrid(n_q=32, delta_max=3.0, gamma=gamma2)
    if t_final is None:
        t_final = simulation_window(pulse, gamma=gamma, gamma1=gamma1, gamma2=gamma2)
    p0 = project_pulse(grid1, pulse)
    traj = evolve_full(grid1, grid2, spec, p0, t_final, dt)
    pops, p, q, r, s = router_taylor(grid1, grid2, spec, p0, t_final, dt)
    assert traj.times.size == pops.shape[1]
    for got, ref in zip([traj.port1, traj.cavity1, traj.mode2, traj.port2], pops):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(ref)
    final, classes = traj.final, traj.bath.classes
    assert np.max(np.abs(final.p - p)) <= 1e-9 * np.max(np.abs(p))
    assert abs(final.q - q) <= 1e-9 * np.sqrt(np.max(pops[1]))
    assert np.max(np.abs(classes(final.r) - r)) <= 1e-9 * np.sqrt(np.max(pops[2]))
    assert np.max(np.abs(classes(final.s) - s)) <= 1e-9 * np.max(np.abs(s))
    assert traj.norm_drift <= 1e-12


# --- four-port router against its per-class filters -------------------------------------


def solve_cavity_direct(int_f, kc, h):
    """The memory-kernel solve for Q as it was before its online convolution: the
    same start system for Q_1..Q_7, then each Q_j explicitly from the Gregory
    weights, one step per grid point, O(n^2)."""
    n = int_f.size - 1
    order = _GREGORY.size
    q = np.zeros(n + 1, dtype=complex)
    j = np.arange(1, order)
    lag = j[:, None] - j[None, :]
    kl = h * _START[1:, 1:] * np.where(lag >= 0, kc[np.abs(lag)], -np.conj(kc[np.abs(lag)]))
    for _ in range(_START_ITERATIONS):
        q[1:order] = int_f[1:order] - np.einsum("jm,m->j", kl, q[1:order])
    kmod = kc.copy()
    kmod[1:order] *= 1.0 + _GREGORY[1:]
    kmod_rev = kmod[::-1].copy()
    # the start terms sum_m a_m Q_m kc_(j-m) of every j, by lo = n - j
    start = np.einsum("i,ji->j", _GREGORY * q[:order],
                      np.lib.stride_tricks.sliding_window_view(kc[::-1], order))
    for j in range(order, n + 1):
        lo = n - j
        q[j] = int_f[j] - h * (np.einsum("i,i->", kmod_rev[lo:n], q[:j]) + start[lo])
    return q


def random_kernel(n, seed):
    """int F and Kc on n + 1 points of a bath of 12 modes at random frequencies, with
    h times the bound 5 on the frequencies and the kernel norm at 0.15."""
    rng = np.random.default_rng(seed)
    norm = 5.0
    h = 0.15 / norm
    t = np.arange(n + 1)[:, None] * h
    freqs = rng.uniform(-0.5 * norm, 0.5 * norm, 12)
    weights = rng.uniform(0.0, 1.0, 12)
    weights *= 0.25 * norm**2 / weights.sum()
    kc = np.sum(weights * (1.0 - np.exp(-1j * freqs * t)) / (1j * freqs), axis=1)
    drive = rng.normal(size=5) + 1j * rng.normal(size=5)
    int_f = np.sum(drive * (1.0 - np.exp(-1j * rng.uniform(-1.0, 1.0, 5) * t)), axis=1)
    return int_f, kc, h


# leaf counts that are odd and leave partial blocks at several levels of the carries
@pytest.mark.parametrize("n", [20, 4264, 12000, _LEAF + 8, 2 * _LEAF + 7, 2 * _LEAF + 9,
                               3 * _LEAF + 8, 5 * _LEAF + 100, 8 * _LEAF + 8, 8 * _LEAF + 9],
                         ids=["20", "4264", "12000", "one-leaf-and-one", "two-leaves",
                              "two-leaves-and-two", "three-leaves-and-one",
                              "five-leaves-and-a-part", "eight-leaves-and-one",
                              "eight-leaves-and-two"])
def test_solve_cavity_matches_direct_solve(n):
    int_f, kc, h = random_kernel(n, seed=n)
    q = _solve_cavity(int_f, kc, h)
    ref = solve_cavity_direct(int_f, kc, h)
    assert np.max(np.abs(q - ref)) <= 1e-11 * np.max(np.abs(ref))


# quadrature steps at most per Gauss-Legendre panel of a filter: a filter integrand
# oscillates below twice the norm bound, so a panel spans at most 2.4 rad of it,
# where the rule of order 8 errs by about 2e-17 of the integral
_PANEL = 8


def _interval_rule(start: int, length: float, n: int):
    """Gauss-Legendre rule of order 8 for int_0^length u(start + x) phi(x) dx, in
    equal panels of at most ``_PANEL`` steps, for u known on the grid points 0..n.

    Returns the nodes x, their weights, the first grid point used and the matrix
    that interpolates u at each node and, in its last row, at x = length, each on
    the ``_STENCIL`` points around the step that holds it.
    """
    panels = math.ceil(length / _PANEL)
    width = length / panels
    x = np.append(np.concatenate([(p + _NODES) * width for p in range(panels)]), length)
    firsts = [_stencil(start + int(xi), n) for xi in x]
    lo = min(firsts)
    interp = np.zeros((x.size, max(firsts) + _STENCIL - lo))
    for g, first in enumerate(firsts):
        points = np.arange(first, first + _STENCIL) - start
        interp[g, first - lo:first - lo + _STENCIL] = _lagrange(points, x[g:g + 1])[0]
    return x[:-1], np.tile(width * _NODE_WEIGHTS, panels), lo, interp


def evolve_full_per_class(grid1, grid2, spec, p0, t_final, dt):
    """The router as it was before its bath channels and closed-form kernel sums:
    int F and Kc from the 8-point rule in each step over all four sums, and every
    class of C2 eigenmodes filtered on its own, node by node.  The populations at
    the samples of evolve_full and the final lab-frame (P, R, S)."""
    n1, f, n2 = grid1.n_q, spec.f, grid2.n_q
    d1, k1, om = grid1.detunings(), grid1.kappa, spec.frequencies()
    c2 = grid2.cavity
    steps, dt, marks, h, n = _quadrature_grid(grid1, c2, spec, t_final, dt)
    step_f = np.zeros(n, dtype=complex)
    step_k = np.zeros(n, dtype=complex)
    for x, w in zip(_NODES, _NODE_WEIGHTS):
        t0 = x * h
        step_f += w * exp_sum(-d1, -1j * k1 * p0, t0, h, n)
        gw = exp_sum(-c2.roots, c2.inv_norm**2, t0, h, n) * exp_sum(om, np.ones(f), t0, h, n)
        step_k += w * (k1 * k1 * exp_sum(-d1, np.ones(n1), t0, h, n) + spec.coupling_sq * gw)
    q = solve_cavity_direct(np.concatenate(([0], np.cumsum(h * step_f))),
                            np.concatenate(([0], np.cumsum(h * step_k))), h)

    v0 = c2.inv_norm
    freqs = np.concatenate((d1, (c2.roots[None, :] - om[:, None]).ravel()))
    drive = np.concatenate((np.full(n1, -1j * k1), np.tile(1j * np.conj(spec.coupling) * v0, f)))
    x = np.zeros(freqs.size, dtype=complex)
    x[:n1] = p0
    b = x[n1:].reshape(f, n2 + 1)
    pops = [[np.sum(np.abs(p0) ** 2), 0.0, 0.0, 0.0]]
    rules = {}
    for start, end in zip([0] + marks, marks):
        start = int(start)
        key = (min(start, 3), end - start)
        if key not in rules:
            nodes, weights, lo, interp = _interval_rule(start, end - start, n)
            rules[key] = ([h * w * drive * np.exp(-1j * h * (end - start - xg) * freqs)
                           for xg, w in zip(nodes, weights)],
                          np.exp(-1j * h * (end - start) * freqs), lo - start, interp)
        node_weights, decay, offset, interp = rules[key]
        x *= decay
        *at_nodes, q_end = interp @ q[start + offset:][:interp.shape[1]]
        for w, qg in zip(node_weights, at_nodes):
            x += w * qg
        r = b @ v0
        mode2 = np.sum(np.abs(r) ** 2)
        pops.append([np.sum(np.abs(x[:n1]) ** 2), abs(q_end) ** 2, mode2,
                     np.sum(np.abs(b) ** 2) - mode2])
    lab = np.exp(-1j * om * t_final)
    s = np.array([classes_per_block(c2, row, 0.0) for row in b])
    return np.array(pops).T, x[:n1].copy(), lab * r, lab[:, None] * s


# the router file of the benchmark (seed 1): x = 0.036 gives M = 9 channels for f = 80
ROUTER_BENCHMARK = """
[scenario]
name = router-diode-full
kind = DiodeFull

[reservoir]
f = 80
eps_max = 0.0005
target_gamma = 1.004918

[diode]
gamma1 = 1.011545
gamma2 = 19.288662

[grid1]
n_q = 160
delta_max = 3.0

[grid2]
n_q = 160
delta_max = 3.0

[pulse]
duration = 15.0
t0 = 50.081053

[run]
t_final = 142.0
dt = 0.02
"""

# the quadrature-step cap: the small router at coupling 62 takes 196,844 steps
ROUTER_COUPLING_62 = """
[scenario]
name = router
kind = DiodeFull

[reservoir]
f = 40
eps_max = 0.002
coupling = 62

[diode]
gamma1 = 1.0
gamma2 = 20.0

[grid1]
n_q = 160
delta_max = 4.0

[grid2]
n_q = 160
delta_max = 4.0

[pulse]
duration = 8.0
"""


@pytest.mark.parametrize("edits, channels, last_mark", [
    ({}, 9, 7100.0),
    ({"eps_max = 0.0005": "eps_max = 0.05"}, 80, 7100.0),
    # 28,398 steps of dt: the last sample falls half a quadrature step off the grid
    ({"t_final = 142.0": "t_final = 141.99", "dt = 0.02": "dt = 0.005"}, 9, 7099.5),
], ids=["channels", "wide-band-classes", "off-grid-last-mark"])
def test_router_matches_per_class_filters(edits, channels, last_mark):
    text = ROUTER_BENCHMARK
    for old, new in edits.items():
        text = text.replace(old, new)
    c = validate_scenario(parse_scenario_text(text))
    p0 = project_pulse(c.grid1, c.pulse)
    traj = evolve_full(c.grid1, c.grid2, c.spec, p0, c.t_final, c.dt)
    assert traj.bath.channels == channels
    assert _quadrature_grid(c.grid1, c.grid2.cavity, c.spec, c.t_final, c.dt)[2][-1] == last_mark
    pops, p, r, s = evolve_full_per_class(c.grid1, c.grid2, c.spec, p0, c.t_final, c.dt)
    for got, ref in zip([traj.port1, traj.cavity1, traj.mode2, traj.port2], pops):
        assert np.max(np.abs(got - ref)) <= 2e-12 * np.max(ref)
    final, classes = traj.final, traj.bath.classes
    assert np.max(np.abs(final.p - p)) <= 2e-12 * np.max(np.abs(p))
    # R ends near zero, so it is held to its peak over the run
    assert np.max(np.abs(classes(final.r) - r)) <= 2e-12 * np.sqrt(np.max(pops[2]))
    assert np.max(np.abs(classes(final.s) - s)) <= 2e-12 * np.max(np.abs(s))


# the reflection file of the router benchmark (seed 1): its 2400-mode comb sets the memory
# high-water mark of that workload
ROUTER_REFLECTION = """
[scenario]
name = router-port2-reflection
kind = Port2Reflection

[diode]
gamma2 = 20.630340

[grid2]
n_q = 2400
delta_max = 45.0

[pulse]
duration = 10.0
t0 = 33.684924

[run]
t_final = 86.0
"""


def test_router_memory_stays_below_its_reflection(monkeypatch):
    # evolve_full keeps one table of return-function samples, (8, n + 7), and the arrays
    # of one bath channel at a time.  The yardstick is the reflection with a secular solve
    # of its own (the mirrored path) and its Cauchy products divided 32 roots at a time,
    # the path that poles off a comb take; on C2 the reflection takes no more, solve and
    # node spectra included
    router = validate_scenario(parse_scenario_text(ROUTER_BENCHMARK))
    reflection = validate_scenario(parse_scenario_text(ROUTER_REFLECTION))
    grid2, s0, t_final = reflection.grid2, reflection.s0, reflection.t_final

    def mirrored_per_block():
        with monkeypatch.context() as patch:
            patch.setattr(_integrate._Eigensystem, "cauchy", None)
            return reflect_port2_mirrored(grid2, s0, t_final)

    peaks = []
    for call in (lambda: evolve_full(router.grid1, router.grid2, router.spec, router.p0,
                                     router.t_final, router.dt),
                 mirrored_per_block,
                 lambda: reflect_port2(dataclasses.replace(grid2), s0, t_final)):
        call()  # a first call fills the caches that they keep
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]
    assert peaks[2] <= peaks[1]


def test_solve_cavity_matches_direct_solve_on_the_router_kernel():
    c = validate_scenario(parse_scenario_text(ROUTER_BENCHMARK))
    p0 = project_pulse(c.grid1, c.pulse)
    c2 = c.grid2.cavity
    _, _, _, h, n = _quadrature_grid(c.grid1, c2, c.spec, c.t_final, c.dt)
    bath = _BathChannels.build(c.spec.frequencies(), c.t_final)
    int_f, kc, _ = _kernel_integrals(c.grid1, c.spec, p0, c2, bath, h, n)
    assert n == 7104
    ref = solve_cavity_direct(int_f, kc, h)
    assert np.max(np.abs(_solve_cavity(int_f, kc, h) - ref)) <= 1e-11 * np.max(np.abs(ref))


def port2_output_decomposition_phase_matrix(traj):
    """The per-class port-2 fields from the final S of the classes and the dense
    (n_q, n_t) phase matrix, their Gram matrix by a second gemm and the class norms
    by a separate trapezoid rule: fields, class weights, rho_out, min overlap,
    weighted purity, completeness."""
    final, grid2 = traj.final, traj.grid2
    ts = np.arange(0.0, final.t, 0.1)
    phases = np.exp(-1j * np.outer(grid2.detunings(), ts - final.t))
    fields = np.sqrt(grid2.spacing / (2.0 * np.pi)) * (traj.bath.classes(final.s) @ phases)
    norms_sq = np.trapezoid(np.abs(fields) ** 2, ts, axis=1)
    w = np.full(ts.size, 0.1)
    w[0] = w[-1] = 0.05
    gram = (fields * w[None, :]) @ fields.conj().T
    diag = np.sqrt(np.real(np.diag(gram)))
    safe = np.where(diag > 0, diag, 1.0)
    overlaps = np.abs(gram) / np.outer(safe, safe)
    weights = norms_sq / max(np.sum(norms_sq), 1e-300)
    relevant = np.where(norms_sq >= 1e-3 * np.max(norms_sq))[0]
    sub = overlaps[np.ix_(relevant, relevant)]
    min_overlap = float(np.min(sub)) if relevant.size >= 2 else 1.0
    residual = (np.sum(np.abs(final.p) ** 2) + abs(final.q) ** 2
                + np.sum(np.abs(traj.bath.classes(final.r)) ** 2))
    return (fields, weights, np.sum(np.abs(fields) ** 2, axis=0), min_overlap,
            float(np.einsum("i,j,ij->", weights, weights, overlaps**2)),
            float(np.sum(norms_sq) + residual))


def router_without_coupling():
    """f = 4 classes at coupling 1e-30 (kept as classes), photon in port 1."""
    pulse = gaussian_pulse(t0=24.0, duration=8.0)
    grid1 = ContinuumGrid(n_q=160, delta_max=4.0, gamma=1.0)
    grid2 = ContinuumGrid(n_q=160, delta_max=4.0, gamma=20.0)
    spec = ReservoirSpec(f=4, eps_max=2e-3, coupling=1e-30)
    return evolve_full(grid1, grid2, spec, project_pulse(grid1, pulse),
                       simulation_window(pulse, gamma=1.0, gamma2=20.0))


@functools.cache
def router_benchmark(eps_max):
    c = validate_scenario(parse_scenario_text(
        ROUTER_BENCHMARK.replace("eps_max = 0.0005", f"eps_max = {eps_max}")))
    return evolve_full(c.grid1, c.grid2, c.spec, project_pulse(c.grid1, c.pulse), c.t_final, c.dt)


@pytest.mark.parametrize("make_traj, channels", [
    (lambda: router_benchmark("0.0005"), 9), (lambda: router_benchmark("0.05"), 80),
    (router_without_coupling, 4)], ids=["channels", "wide-band-classes", "no-coupling"])
def test_decomposition_matches_phase_matrix(make_traj, channels):
    traj = make_traj()
    assert traj.bath.channels == channels
    assert traj.final.s.shape == (channels, 160)
    dec = port2_output_decomposition(traj)
    fields, weights, rho_out, min_overlap, purity, completeness = (
        port2_output_decomposition_phase_matrix(traj))
    for got, ref in [(traj.bath.classes(dec.channel_fields), fields),
                     (dec.class_weights, weights), (dec.rho_out, rho_out)]:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(dec.min_overlap - min_overlap) <= 1e-12
    assert abs(dec.weighted_purity - purity) <= 1e-12
    assert abs(dec.completeness - completeness) <= 1e-12


def test_decomposition_temporaries_stay_small():
    # the (n_q, n_t) phase matrix and the gemm operands of the f class fields took
    # 7.0 MiB here on top of the 1.8 MiB the result held with its f = 80 class fields;
    # M = 9 channel fields need a fraction of one, and the result holds only them
    traj = router_benchmark("0.0005")
    tracemalloc.start()
    try:
        dec = port2_output_decomposition(traj)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.channel_fields.shape == (9, 1420)
    assert held <= 2**19
    assert peak - held <= 2 * 2**20


@pytest.mark.parametrize("f, eps_max, t_final", [(80, 0.0005, 142.0), (200, 0.0005, 410.0),
                                                 (40, 0.01, 150.0), (80, 0.02, 142.0),
                                                 (7, 0.001, 100.0)])
def test_bath_channels_cut_the_series_at_its_first_term_below_2_to_minus_60(f, eps_max, t_final):
    om = ReservoirSpec(f=f, eps_max=eps_max, coupling=1.0).frequencies()
    bath = _BathChannels.build(om, t_final)
    x = np.max(np.abs(om - bath.centre)) * t_final / 2
    m = bath.channels
    if bath.basis is None:  # the classes are kept: the series is no shorter, or cancels
        first = next(k for k in range(1, 200) if x**k / math.factorial(k) <= 2.0**-60)
        assert first >= f or x > 2.0
        return
    assert m < f and x <= 2.0
    assert x**m / math.factorial(m) <= 2.0**-60 < x ** (m - 1) / math.factorial(m - 1)
    # U R is the Taylor matrix A, U has orthonormal columns, and the phases are rebuilt
    u = 2.0 * np.linspace(0.0, t_final, 7) / t_final - 1.0
    taylor = np.exp(-0.5j * t_final * (om - bath.centre))[:, None] * np.array(
        [(-0.5j * t_final * (om - bath.centre)) ** k / math.factorial(k) for k in range(m)]).T
    assert np.max(np.abs(bath.basis @ bath.mix - taylor)) <= 1e-14 * np.max(np.abs(taylor))
    assert np.max(np.abs(bath.basis.conj().T @ bath.basis - np.eye(m))) <= 1e-14
    s = (u + 1.0) * t_final / 2
    phases = bath.classes(np.array([bath.drive(s, n) for n in range(m)]))
    assert np.max(np.abs(phases - np.exp(-1j * np.outer(om - bath.centre, s)))) <= 1e-14


def kernel_integrals_16(grid1, spec, p0, c2, h, n):
    """int F and Kc with every sum (D, F, G and W) from ``exp_sum`` at the nodes of a
    16-point Gauss-Legendre rule in each step."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    d1, k1, om = grid1.detunings(), grid1.kappa, spec.frequencies()
    step_f = np.zeros(n, dtype=complex)
    step_k = np.zeros(n, dtype=complex)
    for x, w in zip(0.5 * (1.0 + x16), 0.5 * w16):
        t0 = x * h
        step_f += w * exp_sum(-d1, -1j * k1 * p0, t0, h, n)
        gw = exp_sum(-c2.roots, c2.inv_norm**2, t0, h, n) * exp_sum(om, np.ones(om.size), t0, h, n)
        step_k += w * (k1 * k1 * exp_sum(-d1, np.ones(d1.size), t0, h, n) + spec.coupling_sq * gw)
    return (np.concatenate(([0], np.cumsum(h * step_f))),
            np.concatenate(([0], np.cumsum(h * step_k))))


@pytest.mark.parametrize("n_q, spectrum", [(160, {}), (161, {}),
                                           (160, {"spectrum": "lorentzian", "center": 3e-4,
                                                  "width": 2e-4})],
                         ids=["even-grid", "odd-grid-mode-at-zero", "lorentzian"])
def test_kernel_integrals_match_16_point_rule(n_q, spectrum):
    gamma2, duration, t_final = 19.3, 15.0, 142.0
    spec = ReservoirSpec(f=80, eps_max=0.0005,
                         coupling=coupling_for_diode_rate(80, 0.0005, gamma2, 1.0), **spectrum)
    grid1 = ContinuumGrid(n_q=n_q, delta_max=3.0, gamma=1.0)
    grid2 = ContinuumGrid(n_q=160, delta_max=3.0, gamma=gamma2)
    p0 = project_pulse(grid1, gaussian_pulse(t0=50.0, duration=duration))
    c2 = grid2.cavity
    _, _, _, h, n = _quadrature_grid(grid1, c2, spec, t_final, 0.02)
    bath = _BathChannels.build(spec.frequencies(), t_final)
    assert bath.basis is not None
    int_f, kc, _ = _kernel_integrals(grid1, spec, p0, c2, bath, h, n)
    ref_f, ref_k = kernel_integrals_16(grid1, spec, p0, c2, h, n)
    assert int_f[0] == kc[0] == 0.0
    assert np.max(np.abs(int_f - ref_f)) <= 1e-13 * np.max(np.abs(ref_f))
    # G at other node times rounds its phases lambda t differently, by about |lambda| t eps
    # (5e-14 of G near t_final): the two rules differ by 1.4e-13 of max|Kc| here
    assert np.max(np.abs(kc - ref_k)) <= 1e-12 * np.max(np.abs(ref_k))


# --- port-2 reflection against RK4 ------------------------------------------------------


def reflection_rk4(grid, s0, t_final, dt):
    """Port-2 comb plus bare cavity, (S_q, C), stepped from (s0, 0)."""
    det, kap, n = grid.detunings(), grid.kappa, grid.n_q

    def rhs(t, y):
        out = np.empty_like(y)
        out[:n] = -1j * det * y[:n] - 1j * kap * y[n]
        out[n] = -1j * kap * np.sum(y[:n])
        return out

    nsteps, dt = steps_for(t_final, dt)
    y = np.concatenate((s0, [0.0])).astype(complex)
    for step in range(nsteps):
        y = rk4_step(rhs, step * dt, y, dt)
    return y[:n]


@pytest.mark.parametrize("n_q, delta_max, gamma2, duration", [(400, 10.0, 4.0, 10.0),
                                                               (700, 20.0, 4.0, 10.0)])
def test_reflection_matches_rk4(n_q, delta_max, gamma2, duration):
    pulse = gaussian_pulse(t0=3 * duration, duration=duration)
    grid = ContinuumGrid(n_q=n_q, delta_max=delta_max, gamma=gamma2)
    t_final = simulation_window(pulse, gamma2=gamma2)
    s0 = project_pulse(grid, pulse)
    ref = reflect_port2(grid, s0, t_final)
    s_rk4 = reflection_rk4(grid, s0, t_final, 0.005)
    field = reconstruct_field(grid, s_rk4, ref.times, t_ref=t_final)
    assert np.max(np.abs(ref.out_field - field)) <= 1e-6 * np.max(np.abs(field))
    delay = intensity_centroid(ref.times, field) - intensity_centroid(ref.times, ref.in_field)
    assert abs(ref.delay - delay) <= 1e-6
    assert abs(ref.out_norm - 1.0) <= 1e-10


@pytest.mark.parametrize("n_q, delta_max, gamma2, duration, t0, t_final", [
    (160, 3.0, 2.0, 15.0, 50.0, 142.0),
    (2400, 45.0, 20.0, 10.0, 33.5, 86.0),  # the benchmark's reflection file
    (8800, 60.0, 20.0, 50.0, 150.0, None),  # scenarios/port2_reflection.ini
])
def test_reflection_on_c2_equals_the_mirrored_solve(n_q, delta_max, gamma2, duration, t0,
                                                     t_final):
    # poles -d_q are the comb reversed, so C2's eigenpairs give the same bits
    grid = ContinuumGrid(n_q=n_q, delta_max=delta_max, gamma=gamma2)
    pulse = gaussian_pulse(t0=t0, duration=duration)
    s0 = project_pulse(grid, pulse)
    t_final = t_final or simulation_window(pulse, gamma2=gamma2)
    ref = reflect_port2_mirrored(grid, s0, t_final)
    got = reflect_port2(grid, s0, t_final)
    assert np.array_equal(got.out_field, ref.out_field)
    assert np.array_equal(got.out_norm, ref.out_norm)
    assert got.secular_iterations == grid.cavity.iterations


# --- exponential sums by a nonuniform FFT ---------------------------------------------


@pytest.mark.parametrize("n", [1, 31, 32, 33, 1000])
def test_exp_sum_matches_dense_phase_matrix(n):
    rng = np.random.default_rng(n)
    freqs = rng.uniform(-40.0, 40.0, 57)
    weights = rng.normal(size=57) + 1j * rng.normal(size=57)
    times = -3.0 + np.arange(n) * 0.0371
    dense = weights @ np.exp(1j * np.outer(freqs, times))
    got = exp_sum(freqs, weights, -3.0, 0.0371, n)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
    # the direct sum kept as an oracle: 17 blocks per numpy pass give the bits of one
    assert np.array_equal(exp_sum_blocked(freqs, weights, times),
                          exp_sum_per_block(freqs, weights, times))


def test_exp_sum_with_many_frequencies_matches_per_block_passes():
    rng = np.random.default_rng(2)
    freqs = rng.uniform(-40.0, 40.0, 1100)  # one block per numpy pass
    weights = rng.normal(size=1100) + 1j * rng.normal(size=1100)
    times = 0.5 + np.arange(100) * 0.0371
    assert np.array_equal(exp_sum_blocked(freqs, weights, times),
                          exp_sum_per_block(freqs, weights, times))


def exp_sum_long_double(freqs, weights, t0, h, js):
    """sum_k weights[..., k] exp(i freqs_k (t0 + j h)) at the samples ``js``, every phase
    and its cosine and sine in long double."""
    ld = np.longdouble
    out = np.empty(weights.shape[:-1] + (len(js),), dtype=complex)
    re, im = weights.real.astype(ld), weights.imag.astype(ld)
    for i, j in enumerate(js):
        phase = freqs.astype(ld) * (ld(t0) + ld(int(j)) * ld(h))
        cos, sin = np.cos(phase), np.sin(phase)
        out[..., i] = (np.sum(re * cos - im * sin, axis=-1).astype(float)
                       + 1j * np.sum(re * sin + im * cos, axis=-1).astype(float))
    return out


def _survival_sum(name):
    """The free run's sum of ``evolve_exact`` on a shipped reservoir file."""
    c = parse_scenario(SCENARIO_DIR / name).inputs
    nsteps, dt = steps_for(c.t_final, _default_dt(c.spec) if c.dt is None else c.dt)
    prop = c.spec.propagator
    coef, _ = prop.modes(1.0, np.zeros(c.spec.f, dtype=complex))
    return prop.eig.roots, coef * prop.eig.inv_norm, 0.0, dt, nsteps + 1


def _kernel_sum(text):
    """The one sum of ``_kernel_integrals`` over the C2 roots at its eight nodes."""
    c = validate_scenario(parse_scenario_text(text))
    c2 = c.grid2.cavity
    _, _, _, h, n = _quadrature_grid(c.grid1, c2, c.spec, c.t_final, c.dt)
    at_nodes = c2.inv_norm**2 * np.exp(-1j * np.outer(_NODES * h, c2.roots))
    return -c2.roots, at_nodes, -_REACH * h, h, n + 2 * _REACH + 1


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is not extended")
@pytest.mark.parametrize("case, m, n_t", [
    (lambda: _survival_sum("markov_decay.ini"), 401, 7501),
    (lambda: _survival_sum("anti_zeno_scan.ini"), 401, 7501),
    (lambda: _kernel_sum(ROUTER_BENCHMARK), 161, 7111),
    (lambda: _kernel_sum((SCENARIO_DIR / "diode_full.ini").read_text()), 401, 20511),
    (lambda: _kernel_sum(ROUTER_COUPLING_62), 161, 196851),
], ids=["markov-decay-survival", "anti-zeno-survival", "router-kernel", "shipped-kernel",
        "coupling-62-kernel"])
def test_exp_sum_matches_long_double_sum(case, m, n_t):
    freqs, weights, t0, h, n = case()
    assert (freqs.size, n) == (m, n_t)
    js = np.unique(np.linspace(0, n - 1, 61).astype(int))
    ref = exp_sum_long_double(freqs, weights, t0, h, js)
    err = np.abs(exp_sum(freqs, weights, t0, h, n)[..., js] - ref)
    # of each sum's sum |w|, which bounds every sample
    assert np.all(err <= 3e-14 * np.sum(np.abs(weights), axis=-1, keepdims=True))


@pytest.mark.parametrize("m, n, spread, t0", [
    (7, 1, 40.0, 0.3), (7, 2, 40.0, 0.3), (1, 500, 40.0, 0.3), (1, 1, 40.0, 0.0),
    (200, 300, 300.0, -0.7),  # phases w h of up to 15 rad per sample
], ids=["n=1", "n=2", "m=1", "m=1-n=1", "phases-beyond-pi"])
def test_exp_sum_edge_sizes_match_long_double_sum(m, n, spread, t0):
    rng = np.random.default_rng(m * 1000 + n)
    freqs = rng.uniform(-spread, spread, m)
    weights = rng.normal(size=m) + 1j * rng.normal(size=m)
    ref = exp_sum_long_double(freqs, weights, t0, 0.05, range(n))
    err = np.max(np.abs(exp_sum(freqs, weights, t0, 0.05, n) - ref))
    assert err <= 3e-14 * np.sum(np.abs(weights))


def test_exp_sum_rows_are_separate_sums_and_zero_weights_give_zeros():
    rng = np.random.default_rng(11)
    freqs = rng.uniform(-4.0, 4.0, 161)
    weights = rng.normal(size=(2, 4, 161)) + 1j * rng.normal(size=(2, 4, 161))
    weights[1, 2] = 0.0
    got = exp_sum(freqs, weights, 0.13, 0.02, 700)
    assert got.shape == (2, 4, 700)
    for row in np.ndindex(2, 4):
        assert np.array_equal(got[row], exp_sum(freqs, weights[row], 0.13, 0.02, 700))
    # an all-zero sum is exactly zero: the dark antisymmetric state stays exactly dark
    assert np.all(got[1, 2] == 0.0)
    assert np.all(exp_sum(freqs, np.zeros(161), 0.0, 0.02, 33) == 0.0)


def test_custom_pulse_spectrum_rejects_nonuniform_omega():
    ts = np.linspace(0.0, 20.0, 31)
    with pytest.raises(InvalidInput):
        custom_pulse(ts, np.exp(-((ts - 10.0) ** 2))).spectrum(np.array([0.0, 1.0, 3.0]))


def test_custom_pulse_spectrum_matches_dense_trapezoid():
    ts = np.linspace(0.0, 20.0, 301) ** 1.5  # nonuniform samples are allowed
    values = np.exp(-((ts - 40.0) ** 2) / 50.0) * np.exp(-0.7j * ts)
    omega = ContinuumGrid(n_q=90, delta_max=3.0, gamma=1.0).detunings()
    dense = np.trapezoid(np.exp(1j * np.outer(omega, ts)) * values[None, :], ts, axis=1)
    got = custom_pulse(ts, values).spectrum(omega)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


# --- recorded steps -------------------------------------------------------------------


def snapshot_steps_of_evolve_exact(nsteps, stride):
    steps = list(range(stride, nsteps + 1, stride))
    if not steps or steps[-1] != nsteps:
        steps.append(nsteps)
    return steps


def strided_sample_indices(nsteps, stride):
    n = nsteps + 1  # samples 0..nsteps
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return [int(i) for i in idx[1:]]  # sample 0 is the initial state, not a step


@pytest.mark.parametrize("rule", [
    lambda nsteps, stride: list(range(stride, nsteps, stride)) + [nsteps],
    snapshot_steps_of_evolve_exact,
    strided_sample_indices,
], ids=["evolve-and-quadrature-grid", "evolve-exact", "strided-csv-rows"])
def test_sample_steps_matches_every_rule_it_replaced(rule):
    for nsteps in range(1, 60):
        for stride in range(1, 70):
            assert sample_steps(nsteps, stride) == rule(nsteps, stride), (nsteps, stride)


def _small_router():
    pulse = gaussian_pulse(t0=6.0, duration=2.0)
    grid1 = ContinuumGrid(n_q=32, delta_max=3.0, gamma=1.0)
    grid2 = ContinuumGrid(n_q=32, delta_max=3.0, gamma=5.0)
    spec = ReservoirSpec(f=6, eps_max=0.05, coupling=coupling_for_diode_rate(6, 0.05, 5.0, 1.0))
    return grid1, grid2, spec, project_pulse(grid1, pulse)


def _transfer_case():
    space = ModeSpace([2, 3])
    model = LindbladModel(space, [(transfer_jump(space, 0, 1), 1.0)])
    return model, fock_density(space, (1, 0))


_FLAT = ReservoirSpec(f=40, eps_max=10.0, coupling=coupling_for_rate(40, 10.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda: steps_for(1.0, -0.1),
    lambda: steps_for(-1.0, 0.1),
    lambda: sample_steps(10, 0),
    lambda: evolve(*_transfer_case(), 1.0, dt=-0.1),
    lambda: evolve(*_transfer_case(), 1.0, snapshot_stride=0),
    lambda: evolve_markov(1.0, 1.0, 5.0, gaussian_pulse(t0=6.0, duration=2.0), 20.0, dt=-0.02),
    lambda: evolve_full(*_small_router(), 20.0, dt=-0.02),
    lambda: evolve_exact(_FLAT, t_final=-1.0),
    lambda: interference_evolve(_FLAT, TwoUpperModeState.single(_FLAT.f), -1.0),
    lambda: zeno_evolve(_FLAT, tau_m=0.0),
    lambda: zeno_scan(_FLAT, [0.0]),
], ids=["steps-dt", "steps-t_final", "sample-stride", "evolve-dt", "evolve-stride", "markov-dt",
        "full-dt", "exact-t_final", "interference-t_final", "zeno-tau", "zeno-scan-tau"])
def test_propagators_reject_a_bad_step(call):
    with pytest.raises(InvalidInput):
        call()


# --- chirp-z sums over a uniform comb ---------------------------------------------------


def comb_sum_long_double(f0, df, weights, t0, h, js):
    """sum_k weights_k exp(i (f0 + k df)(t0 + j h)) at the samples ``js``, every phase
    and its cosine and sine in long double."""
    ld = np.longdouble
    freqs = ld(f0) + np.arange(weights.size).astype(ld) * ld(df)
    out = np.empty(len(js), dtype=complex)
    for i, j in enumerate(js):
        phase = freqs * (ld(t0) + ld(int(j)) * ld(h))
        out[i] = np.sum(weights * (np.cos(phase) + 1j * np.sin(phase)).astype(complex))
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is not extended")
@pytest.mark.parametrize("n_q, delta_max, n_t, t0, h", [
    (8800, 60.0, 8010, -400.5, 0.05),  # the shipped reflection's out field
    (8800, 60.0, 8010, 0.0, 0.05),  # and its in field
    (400, 2.5, 20505, 0.0, 0.02),  # the shipped router's port-1 integrals, m^2 up to 4.2e8
    (400, 2.5, 4100, -410.0, 0.1),  # the shipped router's channel fields
    (2400, 45.0, 1720, -86.0, 0.05),  # the benchmark's reflection
], ids=["reflection-out", "reflection-in", "mode-integrals", "channel-fields",
        "benchmark-reflection"])
def test_comb_sum_matches_long_double_sum(n_q, delta_max, n_t, t0, h):
    grid = ContinuumGrid(n_q=n_q, delta_max=delta_max, gamma=1.0)
    d = grid.detunings()
    rng = np.random.default_rng(n_q + n_t)
    weights = np.exp(-(d / (0.1 * delta_max)) ** 2) * np.exp(2j * np.pi * rng.random(n_q))
    f0, df = 0.5 * (n_q - 1) * grid.spacing, -grid.spacing
    js = np.unique(np.linspace(0, n_t - 1, 61).astype(int))
    ref = comb_sum_long_double(f0, df, weights, t0, h, js)
    scale = np.max(np.abs(ref))
    err = np.max(np.abs(comb_sum(f0, df, weights, t0, h, n_t)[js] - ref)) / scale
    times = t0 + np.arange(n_t) * h
    err_exp_sum = np.max(np.abs(exp_sum_blocked(-d, weights, times)[js] - ref)) / scale
    assert err <= max(err_exp_sum, 3e-12)
    # the phases reduced exactly leave the FFTs' roundoff, about 1e-15 here; phases
    # rounded once at their full size (up to 2.4e4 rad) erred by up to 1.6e-12
    assert err <= 2e-14


@pytest.mark.parametrize("n_q, n_t", [(1, 1), (1, 2), (1, 40), (7, 1), (7, 2), (160, 2)])
def test_comb_sum_edge_sizes_match_direct_sum(n_q, n_t):
    rng = np.random.default_rng(n_q * 100 + n_t)
    weights = rng.normal(size=n_q) + 1j * rng.normal(size=n_q)
    f0, df, t0, h = 1.3, -0.05, -2.5, 0.37
    freqs = f0 + np.arange(n_q) * df
    dense = np.exp(1j * np.outer(t0 + np.arange(n_t) * h, freqs)) @ weights
    got = comb_sum(f0, df, weights, t0, h, n_t)
    assert got.shape == (n_t,)
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.sum(np.abs(weights))


def test_comb_sum_rows_are_separate_sums():
    rng = np.random.default_rng(5)
    weights = rng.normal(size=(3, 50)) + 1j * rng.normal(size=(3, 50))
    rows = comb_sum(0.7, 0.02, weights, 1.0, 0.3, 90)
    for w, row in zip(weights, rows):
        one = comb_sum(0.7, 0.02, w, 1.0, 0.3, 90)
        assert np.max(np.abs(row - one)) <= 1e-14 * np.sum(np.abs(w))


def test_reconstruct_field_rejects_nonuniform_times():
    grid = ContinuumGrid(n_q=16, delta_max=2.0, gamma=1.0)
    with pytest.raises(InvalidInput):
        reconstruct_field(grid, np.ones(16), np.array([0.0, 1.0, 3.0]))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 100, 101, 7104, 20504, 128024])
def test_fft_size_is_the_next_5_smooth_length(n):
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    size = fft_size(n)
    assert size >= n and smooth(size)
    assert not any(smooth(m) for m in range(n, size))
