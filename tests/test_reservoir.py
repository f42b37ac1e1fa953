import numpy as np
import pytest

from photonflow import (
    ConfigurationError,
    InvalidInput,
    ReservoirSpec,
    SingleExcitationState,
    TwoUpperModeState,
    coupling_for_rate,
    evolve_exact,
    fit_decay_rate,
    interference_evolve,
    markov_rate,
    recurrence_time,
    zeno_evolve,
    zeno_scan,
)

from photonflow import reservoir
from reference import equidistant_response_closed_form, response_function


def flat_spec(f=200, eps_max=25.0, gamma=1.0):
    return ReservoirSpec(f=f, eps_max=eps_max, coupling=coupling_for_rate(f, eps_max, gamma))


# --- spectra and response kernel -------------------------------------------


def test_equidistant_frequencies():
    spec = ReservoirSpec(f=4, eps_max=8.0, coupling=1.0)
    assert np.allclose(spec.frequencies(), [-6.0, -2.0, 2.0, 6.0])


def test_lorentzian_sampling_is_deterministic_and_bounded():
    spec = ReservoirSpec(
        f=100, eps_max=10.0, coupling=1.0, spectrum="lorentzian", center=3.0, width=0.5
    )
    w = spec.frequencies()
    assert np.array_equal(w, spec.frequencies())
    assert w.min() >= -10.0 and w.max() <= 10.0
    # quantile sampling concentrates lines near the center
    assert np.sum(np.abs(w - 3.0) < 2.0) > 60


def test_custom_spectrum_round_trip():
    spec = ReservoirSpec(
        f=3, eps_max=5.0, coupling=1.0, spectrum="custom", omegas=(-1.0, 0.0, 2.0)
    )
    assert np.allclose(spec.frequencies(), [-1.0, 0.0, 2.0])


def test_response_at_zero_counts_classes():
    spec = ReservoirSpec(f=7, eps_max=3.0, coupling=0.5)
    assert response_function(spec, 0.0) == pytest.approx(7 * 0.25)


def test_response_conjugate_symmetry():
    spec = flat_spec(f=31, eps_max=4.0)
    ts = np.linspace(0.1, 5.0, 17)
    fwd = response_function(spec, ts)
    bck = response_function(spec, -ts)
    assert np.allclose(bck, fwd.conj(), atol=1e-14)


def test_closed_form_matches_direct_sum():
    spec = ReservoirSpec(f=7, eps_max=3.0, coupling=0.5)
    ts = np.linspace(0.0, 12.0, 431)
    direct = response_function(spec, ts)
    closed = equidistant_response_closed_form(spec, ts)
    assert np.max(np.abs(direct - closed)) <= 1e-12 * np.max(np.abs(direct))


def test_response_revives_at_recurrence():
    spec = ReservoirSpec(f=7, eps_max=3.0, coupling=0.5)
    t_rec = recurrence_time(spec)
    assert abs(response_function(spec, t_rec)) == pytest.approx(
        abs(response_function(spec, 0.0)), rel=1e-9
    )


def test_markov_rate_formula_and_scalings():
    spec = ReservoirSpec(f=400, eps_max=50.0, coupling=np.sqrt(0.0398))
    assert markov_rate(spec) == pytest.approx(np.pi * 400 * 0.0398 / 50.0)
    assert markov_rate(spec) == pytest.approx(1.0, abs=1e-3)
    double_f = ReservoirSpec(f=800, eps_max=50.0, coupling=np.sqrt(0.0398))
    assert markov_rate(double_f) == pytest.approx(2 * markov_rate(spec))
    wide = ReservoirSpec(f=400, eps_max=100.0, coupling=np.sqrt(0.0398))
    assert markov_rate(wide) == pytest.approx(0.5 * markov_rate(spec))


def test_markov_rate_requires_equidistant():
    spec = ReservoirSpec(
        f=10, eps_max=5.0, coupling=1.0, spectrum="lorentzian", center=0.0, width=1.0
    )
    with pytest.raises(ConfigurationError):
        markov_rate(spec)


def test_coupling_inversion():
    g = coupling_for_rate(400, 50.0, 1.0)
    spec = ReservoirSpec(f=400, eps_max=50.0, coupling=g)
    assert markov_rate(spec) == pytest.approx(1.0, abs=1e-12)


# --- exact evolution ---------------------------------------------------------


def test_decoupled_state_is_frozen():
    spec = ReservoirSpec(f=20, eps_max=5.0, coupling=1e-30)
    traj = evolve_exact(spec, t_final=2.0)
    assert np.max(np.abs(traj.survival - 1.0)) <= 1e-12


def test_exact_decay_matches_golden_rule():
    spec = flat_spec(f=200, eps_max=25.0, gamma=1.0)
    traj = evolve_exact(spec, t_final=3.0)
    mask = (traj.times >= 0.5) & (traj.times <= 3.0)
    rel = np.abs(traj.survival[mask] / np.exp(-traj.times[mask]) - 1.0)
    assert np.max(rel) <= 0.05


def test_norm_conservation():
    spec = flat_spec(f=100, eps_max=10.0)
    traj = evolve_exact(spec, t_final=4.0)
    c0, c = traj.c0[-1], traj.c_final
    norm = abs(c0) ** 2 + np.sum(np.abs(c) ** 2)
    assert abs(norm - 1.0) <= 1e-9 * 4.0


def test_few_mode_dynamics_is_quasi_periodic():
    spec = ReservoirSpec(f=2, eps_max=2.0, coupling=0.7)
    traj = evolve_exact(spec, t_final=40.0)
    # amplitude returns: no permanent decay with two reservoir modes
    second_half = traj.survival[traj.times > 20.0]
    assert second_half.max() >= 0.9


def test_step_guard():
    spec = flat_spec(f=50, eps_max=10.0)
    with pytest.raises(ConfigurationError):
        evolve_exact(spec, t_final=1.0, dt=1.0 / spec.eps_max)


def test_survival_revival_near_recurrence():
    spec = flat_spec(f=50, eps_max=50.0, gamma=1.0)
    t_rec = recurrence_time(spec)
    traj = evolve_exact(spec, t_final=1.3 * t_rec)
    pre = traj.survival[(traj.times >= 2.0) & (traj.times <= 0.95 * t_rec)]
    post = traj.survival[(traj.times >= 0.95 * t_rec) & (traj.times <= 1.3 * t_rec)]
    assert post.max() - pre.min() >= 0.1


# --- decay-rate fitting ------------------------------------------------------


def test_fit_recovers_synthetic_exponential():
    ts = np.linspace(0.0, 3.0, 400)
    gamma, resid = fit_decay_rate(ts, np.exp(-2.0 * ts), (0.2, 2.8))
    assert gamma == pytest.approx(2.0, abs=1e-9)
    assert resid <= 1e-9


def test_fit_constant_trajectory_gives_zero():
    ts = np.linspace(0.0, 3.0, 100)
    gamma, _ = fit_decay_rate(ts, np.ones_like(ts), (0.0, 3.0))
    assert gamma == pytest.approx(0.0, abs=1e-9)


def test_fit_cross_level_consistency():
    spec = flat_spec(f=200, eps_max=25.0, gamma=1.0)
    traj = evolve_exact(spec, t_final=3.0)
    gamma, _ = fit_decay_rate(traj.times, traj.survival, (0.5, 3.0))
    assert gamma == pytest.approx(markov_rate(spec), rel=0.05)


def test_fit_rejects_zero_survival():
    ts = np.linspace(0.0, 1.0, 10)
    s = np.ones_like(ts)
    s[5] = 0.0
    with pytest.raises(InvalidInput):
        fit_decay_rate(ts, s, (0.0, 1.0))


# --- measurement protocols ---------------------------------------------------


def test_zeno_decoupled_survival_is_one():
    spec = ReservoirSpec(f=20, eps_max=5.0, coupling=1e-30)
    res = zeno_evolve(spec, t_final=2.0, tau_m=0.1)
    assert np.allclose(res.survival, 1.0)
    assert res.gamma_eff == pytest.approx(0.0, abs=1e-9)


def test_zeno_long_period_reduces_to_free_decay():
    spec = flat_spec(f=200, eps_max=25.0, gamma=1.0)
    res = zeno_evolve(spec, t_final=20.0, tau_m=2.0)
    assert res.gamma_eff == pytest.approx(markov_rate(spec), rel=0.10)


def test_zeno_short_period_freezes_decay():
    spec = flat_spec(f=200, eps_max=25.0, gamma=1.0)
    tau = 0.1 / spec.eps_max
    res = zeno_evolve(spec, t_final=60 * tau, tau_m=tau)
    # short-time analytic estimate: survival 1 - g(0) tau^2 per segment
    g0 = spec.f * spec.coupling_sq
    estimate = g0 * tau
    assert res.gamma_eff == pytest.approx(estimate, rel=0.2)
    assert res.gamma_eff < 0.5 * markov_rate(spec)


def test_zeno_monotone_on_flat_spectrum():
    spec = flat_spec(f=200, eps_max=25.0, gamma=1.0)
    taus = [x / spec.eps_max for x in (1.0, 0.5, 0.2, 0.1, 0.05)]
    results = zeno_scan(spec, taus, n_measurements=40)
    rates = [r.gamma_eff for r in results]
    assert all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))
    for r in results:
        assert np.all(np.diff(r.survival) <= 1e-12)


def test_anti_zeno_on_detuned_spectrum():
    f, eps = 200, 25.0
    g = coupling_for_rate(f, eps, 1.0)
    spec = ReservoirSpec(
        f=f, eps_max=eps, coupling=g, spectrum="lorentzian",
        center=0.8 * eps, width=0.05 * eps,
    )
    free = evolve_exact(spec, t_final=3.0)
    gamma_free, _ = fit_decay_rate(free.times, free.survival, (0.5, 3.0))
    results = zeno_scan(spec, [1.0 / eps, 0.5 / eps], n_measurements=40)
    assert max(r.gamma_eff for r in results) > 1.5 * gamma_free


def test_zeno_requires_enough_measurements():
    spec = flat_spec(f=20, eps_max=5.0)
    with pytest.raises(ConfigurationError):
        zeno_evolve(spec, t_final=0.5, tau_m=0.1)


# --- two interfering upper modes ---------------------------------------------


def test_free_run_and_zeno_scan_share_one_eigensystem(monkeypatch):
    built = []

    class CountingPropagator(reservoir._ExactPropagator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(reservoir, "_ExactPropagator", CountingPropagator)
    spec = flat_spec(f=60)
    free = evolve_exact(spec, t_final=1.0)
    scan = zeno_scan(spec, [0.04, 0.02], n_measurements=10)
    assert len(built) == 1
    assert free.survival[-1] < 1.0 and len(scan) == 2


def test_interference_antisymmetric_state_is_dark():
    spec = flat_spec(f=200, eps_max=25.0, gamma=1.0)
    traj = interference_evolve(spec, TwoUpperModeState.antisymmetric(spec.f), 10.0)
    assert np.max(np.abs(traj.survival - 1.0)) <= 1e-9


def test_interference_symmetric_state_decays_doubled():
    spec = flat_spec(f=400, eps_max=100.0, gamma=1.0)
    traj = interference_evolve(spec, TwoUpperModeState.symmetric(spec.f), 3.0)
    gamma, _ = fit_decay_rate(traj.times, traj.survival, (0.25, 1.5))
    assert gamma == pytest.approx(2.0, rel=0.05)


def test_interference_single_mode_keeps_dark_half():
    spec = flat_spec(f=200, eps_max=25.0, gamma=1.0)
    traj = interference_evolve(spec, TwoUpperModeState.single(spec.f), 3.0)
    assert traj.survival[-1] == pytest.approx(0.5, abs=0.02)


def test_interference_norm_conserved():
    spec = flat_spec(f=100, eps_max=10.0)
    state = TwoUpperModeState.symmetric(spec.f)
    traj = interference_evolve(spec, state, 2.0)
    # reservoir amplitudes are not returned; survival + transfer stays below 1
    assert np.all(traj.survival <= 1.0 + 1e-9)


def test_state_constructors_are_normalized():
    s1 = SingleExcitationState.excited(5)
    assert s1.norm_sq() == pytest.approx(1.0)
    for ctor in (
        TwoUpperModeState.symmetric,
        TwoUpperModeState.antisymmetric,
        TwoUpperModeState.single,
    ):
        assert ctor(5).norm_sq() == pytest.approx(1.0)
