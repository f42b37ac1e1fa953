import tracemalloc

import numpy as np
import pytest

from photonflow import (
    ConfigurationError,
    ContinuumGrid,
    InvalidInput,
    ReservoirSpec,
    coupling_for_diode_rate,
    custom_pulse,
    evolve_full,
    evolve_markov,
    exponential_pulse,
    gaussian_pulse,
    impedance_scan,
    loaded_transfer_rate,
    port2_output_decomposition,
    project_pulse,
    reflect_port2,
    simulation_window,
)
from reference import reconstruct_field

# compact parameter point used by most tests: same rate hierarchy as the
# production point (1/T << gamma1 = gamma << gamma2) at a fraction of the cost
GAMMA, GAMMA1, GAMMA2, T = 1.0, 1.0, 20.0, 8.0
F, N_Q, DMAX = 40, 160, 4.0


def mini_spec():
    g = coupling_for_diode_rate(F, 2e-3, GAMMA2, GAMMA)
    return ReservoirSpec(f=F, eps_max=2e-3, coupling=g)


def mini_setup():
    spec = mini_spec()
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    grid1 = ContinuumGrid(n_q=N_Q, delta_max=DMAX, gamma=GAMMA1)
    grid2 = ContinuumGrid(n_q=N_Q, delta_max=DMAX, gamma=GAMMA2)
    t_final = simulation_window(pulse, gamma=GAMMA, gamma1=GAMMA1, gamma2=GAMMA2)
    return spec, pulse, grid1, grid2, t_final


@pytest.fixture(scope="module")
def mini_run():
    spec, pulse, grid1, grid2, t_final = mini_setup()
    p0 = project_pulse(grid1, pulse)
    traj = evolve_full(grid1, grid2, spec, p0, t_final)
    mk = evolve_markov(GAMMA, GAMMA1, GAMMA2, pulse, t_final, dt=0.01)
    return traj, mk


# --- grid and pulse -----------------------------------------------------------


def test_grid_loss_rate_identity():
    grid = ContinuumGrid(n_q=128, delta_max=5.0, gamma=3.7)
    assert 2 * np.pi * grid.kappa**2 / grid.spacing == pytest.approx(3.7, abs=1e-12)


def test_grid_detunings_symmetric():
    grid = ContinuumGrid(n_q=64, delta_max=4.0, gamma=1.0)
    det = grid.detunings()
    assert np.allclose(det, -det[::-1])
    assert det.max() < 4.0


def test_project_pulse_unit_norm_and_reconstruction():
    grid = ContinuumGrid(n_q=256, delta_max=4.0, gamma=1.0)
    pulse = gaussian_pulse(t0=30.0, duration=10.0)
    amps = project_pulse(grid, pulse)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-10)
    ts = np.linspace(0.0, 60.0, 500)
    rec = reconstruct_field(grid, amps, ts)
    target = pulse.amplitude(ts)
    assert np.max(np.abs(rec - target)) <= 0.01 * np.max(np.abs(target))


def test_project_pulse_rejects_wide_bandwidth():
    grid = ContinuumGrid(n_q=64, delta_max=1.0, gamma=1.0)
    with pytest.raises(ConfigurationError):
        project_pulse(grid, gaussian_pulse(t0=3.0, duration=1.0))


def test_single_mode_field_is_pure_phasor():
    grid = ContinuumGrid(n_q=1, delta_max=1.0, gamma=1.0)
    ts = np.linspace(0.0, 10.0, 200)
    field = reconstruct_field(grid, np.array([1.0]), ts)
    assert np.ptp(np.abs(field)) <= 1e-12


def test_two_symmetric_modes_beat():
    # detunings +-1: intensity cos^2(t), period pi
    grid = ContinuumGrid(n_q=2, delta_max=2.0, gamma=1.0)
    amps = np.array([1.0, 1.0]) / np.sqrt(2)
    ts = np.linspace(0.0, np.pi, 201)
    inten = np.abs(reconstruct_field(grid, amps, ts)) ** 2
    assert inten[0] == pytest.approx(inten[-1], rel=1e-9)
    assert inten[100] <= 1e-12 * inten[0]


def test_exponential_pulse_normalized():
    from photonflow import exponential_pulse

    pulse = exponential_pulse(rate=2.0, t_stop=10.0)
    ts = np.linspace(-10.0, 10.0, 20001)
    norm = np.trapezoid(np.abs(pulse.amplitude(ts)) ** 2, ts)
    assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("pulse", [
    gaussian_pulse(t0=3.0, duration=1.5),
    exponential_pulse(rate=2.0, t_stop=4.0),
    custom_pulse([0.0, 0.7, 1.5, 3.0], [0.0, 1.0 + 0.5j, 0.8, 0.0]),
], ids=["gaussian", "exponential", "custom"])
def test_spectrum_at_a_scalar_is_its_value_in_a_list(pulse):
    at = pulse.spectrum(0.5)
    assert np.ndim(at) == 0
    assert at == pulse.spectrum([0.5])[0]
    if pulse.kind == "custom":  # the trapezoid rule over the samples, summed directly
        t, v = np.array(pulse.sample_times), np.array(pulse.sample_values)
        g = v * np.exp(0.5j * t)
        assert abs(at - np.sum(0.5 * np.diff(t) * (g[1:] + g[:-1]))) <= 1e-14


# --- transfer-rate mapping ----------------------------------------------------


def test_loaded_rate_narrow_band_limit():
    # quasi-degenerate classes: rate -> 4 f |g|^2 / gamma2
    spec = ReservoirSpec(f=50, eps_max=1e-4, coupling=0.1)
    rate = loaded_transfer_rate(spec, 10.0)
    assert rate == pytest.approx(4 * 50 * 0.01 / 10.0, rel=1e-6)


def test_loaded_rate_wide_band_limit():
    # comb much wider than the loss: golden-rule rate pi f |g|^2 / eps
    # reduced by the band-edge factor (2/pi) arctan(2 eps / gamma2)
    from photonflow import markov_rate

    spec = ReservoirSpec(f=4000, eps_max=400.0, coupling=0.1)
    gamma2 = 2.0
    rate = loaded_transfer_rate(spec, gamma2)
    edge = (2.0 / np.pi) * np.arctan(2.0 * spec.eps_max / gamma2)
    assert rate == pytest.approx(markov_rate(spec) * edge, rel=1e-6)
    assert rate == pytest.approx(markov_rate(spec), rel=2e-3)


def test_coupling_inversion_for_diode():
    g = coupling_for_diode_rate(F, 2e-3, GAMMA2, GAMMA)
    spec = ReservoirSpec(f=F, eps_max=2e-3, coupling=g)
    assert loaded_transfer_rate(spec, GAMMA2) == pytest.approx(GAMMA, abs=1e-12)


# --- full four-port dynamics ---------------------------------------------------


def test_full_run_unitarity_and_routing(mini_run):
    traj, _ = mini_run
    assert traj.norm_drift <= 1e-8
    assert traj.port1[-1] <= 0.01          # leakage
    assert traj.port2[-1] >= 0.95          # yield
    assert traj.cavity1[-1] + traj.mode2[-1] <= 1e-4
    total = traj.port1[-1] + traj.port2[-1] + traj.cavity1[-1] + traj.mode2[-1]
    assert total == pytest.approx(1.0, abs=1e-6)


def test_full_matches_markov_cavity_population(mini_run):
    # the short pulse of the compact point carries ~6x the relative
    # bandwidth of the production point, so the adiabatic-following
    # corrections are larger here; the 5% acceptance bound is asserted
    # at the production point in test_acceptance.py
    traj, mk = mini_run
    qm = np.interp(traj.times, mk.times, np.abs(mk.q) ** 2)
    mask = qm > 1e-2 * qm.max()
    rel = np.abs(traj.cavity1[mask] - qm[mask]) / qm[mask]
    assert np.max(rel) <= 0.06


def test_decoupled_cavity_reflects_everything():
    # no reservoir coupling and no mode-2 loss: bare one-sided cavity
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    grid1 = ContinuumGrid(n_q=N_Q, delta_max=DMAX, gamma=GAMMA1)
    grid2 = ContinuumGrid(n_q=N_Q, delta_max=DMAX, gamma=1e-12)
    spec = ReservoirSpec(f=4, eps_max=2e-3, coupling=1e-30)
    t_final = simulation_window(pulse, gamma1=GAMMA1)
    p0 = project_pulse(grid1, pulse)
    traj = evolve_full(grid1, grid2, spec, p0, t_final)
    assert traj.port1[-1] == pytest.approx(1.0, abs=1e-8)
    assert traj.port2[-1] <= 1e-12


def test_grid_independence(mini_run):
    traj, _ = mini_run
    spec, pulse, _, _, t_final = mini_setup()
    grid1 = ContinuumGrid(n_q=2 * N_Q, delta_max=2 * DMAX, gamma=GAMMA1)
    grid2 = ContinuumGrid(n_q=2 * N_Q, delta_max=2 * DMAX, gamma=GAMMA2)
    p0 = project_pulse(grid1, pulse)
    doubled = evolve_full(grid1, grid2, spec, p0, t_final)
    assert abs(doubled.port1[-1] - traj.port1[-1]) <= 1e-3
    assert abs(doubled.port2[-1] - traj.port2[-1]) <= 1e-3


def test_full_run_rejects_window_beyond_recurrence():
    spec, pulse, grid1, grid2, _ = mini_setup()
    p0 = project_pulse(grid1, pulse)
    with pytest.raises(ConfigurationError):
        evolve_full(grid1, grid2, spec, p0, 2.0 * grid1.recurrence_time)


def test_full_run_rejects_bad_initial_size():
    spec, pulse, grid1, grid2, t_final = mini_setup()
    with pytest.raises(InvalidInput):
        evolve_full(grid1, grid2, spec, np.ones(3, dtype=complex), t_final)


# --- markov reduction -----------------------------------------------------------


def test_markov_zero_input_gives_zero_output():
    pulse = custom_pulse([0.0, 1.0], [0.0, 0.0])
    mk = evolve_markov(1.0, 1.0, 20.0, pulse, 5.0, dt=0.01)
    assert np.allclose(mk.rho_out, 0.0)
    assert np.allclose(np.abs(mk.phi_out1), 0.0)


def test_markov_impedance_matched_cancellation():
    # slowly varying input: residual reflection ~ d(phi)/dt / gamma
    pulse = gaussian_pulse(t0=150.0, duration=50.0)
    mk = evolve_markov(GAMMA, GAMMA, GAMMA2, pulse, simulation_window(pulse, gamma=GAMMA), dt=0.02)
    assert np.max(np.abs(mk.phi_out1)) <= 0.05 * np.max(np.abs(mk.phi_in))


def test_markov_factorized_yield_in_fast_loss_regime():
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    mk = evolve_markov(GAMMA, GAMMA1, GAMMA2, pulse, simulation_window(pulse, gamma=GAMMA), dt=0.01)
    assert mk.yield_convolved == pytest.approx(mk.yield_factorized, rel=0.05)


def test_markov_energy_balance():
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    mk = evolve_markov(GAMMA, GAMMA1, GAMMA2, pulse, simulation_window(pulse, gamma=GAMMA), dt=0.01)
    assert mk.leakage + mk.yield_convolved == pytest.approx(1.0, abs=1e-4)


# --- port-2 reflection ------------------------------------------------------------


def test_reflection_unit_norm_and_delay():
    # band much wider than the loss rate so the resonance is representable;
    # resonant group delay 4/gamma2 with the finite-band reduction factor
    gamma2 = 4.0
    pulse = gaussian_pulse(t0=36.0, duration=12.0)
    grid = ContinuumGrid(n_q=700, delta_max=20.0, gamma=gamma2)
    ref = reflect_port2(grid, project_pulse(grid, pulse), simulation_window(pulse, gamma2=gamma2))
    assert ref.out_norm == pytest.approx(1.0, abs=1e-8)
    predicted = (4.0 / gamma2) * (1.0 - gamma2 / (np.pi * grid.delta_max))
    assert ref.delay == pytest.approx(predicted, rel=0.03)
    assert ref.delay == pytest.approx(4.0 / gamma2, rel=0.10)


def test_reflection_without_cavity_has_no_delay():
    gamma2 = 1e-12
    pulse = gaussian_pulse(t0=30.0, duration=10.0)
    grid = ContinuumGrid(n_q=400, delta_max=10.0, gamma=gamma2)
    ref = reflect_port2(grid, project_pulse(grid, pulse), 110.0)
    assert abs(ref.delay) <= 1e-6
    assert ref.out_norm == pytest.approx(1.0, abs=1e-10)


def test_reflection_detuned_pulse_has_reduced_delay():
    gamma2 = 4.0
    carrier = 12.0  # 3 linewidths off resonance
    ts = np.linspace(0.0, 72.0, 14001)
    env = (np.pi * 12.0**2) ** -0.25 * np.exp(-((ts - 36.0) ** 2) / (2 * 12.0**2))
    pulse = custom_pulse(ts, env * np.exp(-1j * carrier * ts))
    grid = ContinuumGrid(n_q=1600, delta_max=45.0, gamma=gamma2)
    ref = reflect_port2(grid, project_pulse(grid, pulse), 85.0)
    on_resonance = 4.0 / gamma2
    # Lorentzian dispersion: delay/(4/g2) = 1/(1+(2 delta/g2)^2) = 1/37
    assert ref.delay <= 0.1 * on_resonance
    assert ref.out_norm == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("t_final", [np.nan, -1.0])
def test_reflection_rejects_a_window_that_is_not_positive(t_final):
    grid = ContinuumGrid(n_q=400, delta_max=10.0, gamma=4.0)
    s0 = project_pulse(grid, gaussian_pulse(t0=0.0, duration=10.0))
    with pytest.raises(ConfigurationError, match="positive and finite"):
        reflect_port2(grid, s0, t_final)


def test_reflection_memory_stays_blocked():
    # the dense (n_t, n_q) phase matrix of each resynthesized field took
    # 147 MiB here; blocks of 32 samples need a few MiB
    grid = ContinuumGrid(n_q=2400, delta_max=45.0, gamma=20.0)
    pulse = gaussian_pulse(t0=33.0, duration=10.0)
    tracemalloc.start()
    try:
        reflect_port2(grid, project_pulse(grid, pulse), 86.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# --- port-2 output decomposition ----------------------------------------------------


def test_decomposition_factorizes_and_completes(mini_run):
    traj, mk = mini_run
    dec = port2_output_decomposition(traj)
    assert dec.min_overlap >= 0.99
    assert dec.weighted_purity >= 0.99
    assert dec.completeness == pytest.approx(1.0, abs=1e-6)
    # pointwise match vs the reduced model; the compact point's wider
    # pulse bandwidth costs a few percent more than the production point
    rho_m = np.interp(dec.times, mk.times, mk.rho_out)
    mask = rho_m > 0.01 * rho_m.max()
    rel = np.abs(dec.rho_out[mask] - rho_m[mask]) / rho_m[mask]
    assert np.max(rel) <= 0.10


def test_decomposition_empty_without_coupling():
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    grid1 = ContinuumGrid(n_q=N_Q, delta_max=DMAX, gamma=GAMMA1)
    grid2 = ContinuumGrid(n_q=N_Q, delta_max=DMAX, gamma=GAMMA2)
    spec = ReservoirSpec(f=4, eps_max=2e-3, coupling=1e-30)
    t_final = simulation_window(pulse, gamma1=GAMMA1, gamma2=GAMMA2)
    traj = evolve_full(grid1, grid2, spec, project_pulse(grid1, pulse), t_final)
    dec = port2_output_decomposition(traj)
    assert np.max(np.abs(dec.channel_fields)) <= 1e-12


# --- impedance matching ---------------------------------------------------------------


def test_impedance_scan_minimum_at_matching():
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    t_final = simulation_window(pulse, gamma=GAMMA)
    rows = impedance_scan(GAMMA, GAMMA2, pulse, [0.25, 0.5, 1.0, 2.0, 4.0], t_final, dt=0.01)
    leakages = [r[1] for r in rows]
    assert np.argmin(leakages) == 2
    assert rows[2][2] >= 0.95


def test_impedance_small_coupling_reflects_everything():
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    t_final = simulation_window(pulse, gamma=GAMMA)
    rows = impedance_scan(GAMMA, GAMMA2, pulse, [1e-4], t_final, dt=0.01)
    assert rows[0][1] >= 0.99


def test_impedance_matching_needs_long_pulses():
    long_pulse = gaussian_pulse(t0=3 * T, duration=T)
    short_pulse = gaussian_pulse(t0=6.0, duration=2.0)
    long_rows = impedance_scan(
        GAMMA, GAMMA2, long_pulse, [1.0], simulation_window(long_pulse, gamma=GAMMA), dt=0.01
    )
    short_rows = impedance_scan(
        GAMMA, GAMMA2, short_pulse, [1.0], simulation_window(short_pulse, gamma=GAMMA), dt=0.005
    )
    assert short_rows[0][1] >= 5.0 * long_rows[0][1]


def test_simulation_window_formula():
    pulse = gaussian_pulse(t0=150.0, duration=50.0)
    window = simulation_window(pulse, gamma=1.0, gamma1=1.0, gamma2=20.0)
    assert window == pytest.approx(150 + 250 + 10.0)
