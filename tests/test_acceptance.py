"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
Criterion 8 contains one sub-check (the reflection centroid delay bound
2/gamma2) that is analytically unattainable: the resonant group delay of
a one-sided cavity is 4/gamma2 (three independent derivations and the
numerics in test_diode.py agree).  That sub-check is implemented exactly
as stated and marked as an expected failure; the measured delay is
asserted against the physical value in criterion 8f.
"""

import time

import numpy as np
import pytest

from photonflow import (
    ContinuumGrid,
    LindbladModel,
    ModeSpace,
    ReservoirSpec,
    TwoUpperModeState,
    coupling_for_diode_rate,
    coupling_for_rate,
    evolve,
    evolve_exact,
    evolve_full,
    evolve_markov,
    fit_decay_rate,
    fock_density,
    fock_state,
    gaussian_pulse,
    interference_evolve,
    interference_transfer_jump,
    markov_rate,
    mixed_fock_density,
    port2_output_decomposition,
    project_pulse,
    recurrence_time,
    reflect_port2,
    simulation_window,
    trace_distance,
    transfer_jump,
    asymptotic_transfer_map,
)
from reference import dark_state_check, population


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


# --- criterion 1: Markov-limit emergence -------------------------------------


def test_criterion_01_markov_limit():
    f, eps_max = 400, 50.0
    spec = ReservoirSpec(f=f, eps_max=eps_max, coupling=coupling_for_rate(f, eps_max, 1.0))
    assert markov_rate(spec) == pytest.approx(1.0, abs=1e-12)
    start = time.perf_counter()
    traj = evolve_exact(spec, t_final=3.0)
    wall = time.perf_counter() - start
    mask = (traj.times >= 0.5) & (traj.times <= 3.0)
    rel = np.max(np.abs(traj.survival[mask] / np.exp(-traj.times[mask]) - 1.0))
    report(
        "criterion 01 markov-limit",
        rel <= 0.05 and wall < 30.0,
        f"max rel deviation {rel:.4f} <= 0.05 on [0.5, 3], wall {wall:.2f}s < 30s",
    )


# --- criterion 2: recurrence ---------------------------------------------------


def test_criterion_02_recurrence():
    f, eps_max = 50, 50.0
    spec = ReservoirSpec(f=f, eps_max=eps_max, coupling=coupling_for_rate(f, eps_max, 1.0))
    t_rec = recurrence_time(spec)
    traj = evolve_exact(spec, t_final=1.3 * t_rec)
    pre = traj.survival[(traj.times >= 2.0) & (traj.times <= 0.95 * t_rec)]
    post = traj.survival[(traj.times >= 0.95 * t_rec) & (traj.times <= 1.3 * t_rec)]
    rise = post.max() - pre.min()
    report(
        "criterion 02 recurrence",
        rise >= 0.1,
        f"revival rise {rise:.3f} >= 0.1 near t_rec = {t_rec:.2f}",
    )


# --- criterion 3: Fock merging --------------------------------------------------


def test_criterion_03_fock_merging():
    space = ModeSpace([3, 6])
    model = LindbladModel(space, [(transfer_jump(space), 1.0)])
    rho0 = fock_density(space, (2, 1))
    res = evolve(model, rho0, 30.0, snapshot_stride=10**9)
    target = fock_density(space, (0, 3))
    dist = trace_distance(res.states[-1], target)
    mapped = asymptotic_transfer_map(rho0)
    exact = trace_distance(mapped, target)
    report(
        "criterion 03 fock-merging",
        dist <= 1e-4 and exact <= 1e-12,
        f"evolve distance {dist:.2e} <= 1e-4, closed form exact to {exact:.1e}",
    )


# --- criterion 4: mixed-state purification ---------------------------------------


def test_criterion_04_purification():
    space = ModeSpace([2, 2])
    model = LindbladModel(space, [(transfer_jump(space), 1.0)])
    rho0 = mixed_fock_density(space, {(1, 0): 0.5, (0, 1): 0.5})
    res = evolve(model, rho0, 30.0, snapshot_stride=10**9)
    purity = res.states[-1].purity()
    pop = population(res.states[-1], (0, 1))
    report(
        "criterion 04 purification",
        purity >= 1.0 - 1e-6 and abs(pop - 1.0) <= 1e-6,
        f"purity {purity:.9f} >= 1-1e-6, final state |0,1> population {pop:.9f}",
    )


# --- criterion 5: dark state in both models ---------------------------------------


def test_criterion_05_dark_state():
    # master-equation level
    space = ModeSpace([2, 2, 2])
    model = LindbladModel(space, [(interference_transfer_jump(space, (0, 1), 2), 1.0)])
    dark = (fock_state(space, (0, 1, 0)) - fock_state(space, (1, 0, 0))) / np.sqrt(2)
    bright = (fock_state(space, (0, 1, 0)) + fock_state(space, (1, 0, 0))) / np.sqrt(2)
    _, fid_dark = dark_state_check(model, dark, 10.0)
    times_b, fid_bright = dark_state_check(model, bright, 3.0)
    rate_l, _ = fit_decay_rate(times_b, fid_bright, (0.25, 1.5))

    # exact single-excitation level
    f, eps_max = 400, 100.0
    spec = ReservoirSpec(f=f, eps_max=eps_max, coupling=coupling_for_rate(f, eps_max, 1.0))
    traj_d = interference_evolve(spec, TwoUpperModeState.antisymmetric(f), 10.0)
    traj_b = interference_evolve(spec, TwoUpperModeState.symmetric(f), 3.0)
    rate_e, _ = fit_decay_rate(traj_b.times, traj_b.survival, (0.25, 1.5))

    dark_dev = max(np.max(np.abs(fid_dark - 1.0)), np.max(np.abs(traj_d.survival - 1.0)))
    ok = dark_dev <= 1e-9 and abs(rate_l - 2.0) <= 0.1 and abs(rate_e - 2.0) <= 0.1
    report(
        "criterion 05 dark-state",
        ok,
        f"dark deviation {dark_dev:.1e} <= 1e-9, bright rate "
        f"{rate_l:.4f} (jump) / {rate_e:.4f} (exact) = 2 +- 5%",
    )


# --- criterion 6: decay freezing under rapid measurement ---------------------------


def test_criterion_06_zeno_suppression():
    from photonflow import zeno_scan

    f, eps_max = 400, 50.0
    spec = ReservoirSpec(f=f, eps_max=eps_max, coupling=coupling_for_rate(f, eps_max, 1.0))
    free = evolve_exact(spec, t_final=3.0)
    gamma_free, _ = fit_decay_rate(free.times, free.survival, (0.5, 3.0))
    taus = [x / eps_max for x in (1.0, 0.5, 0.2, 0.1, 0.05)]
    results = zeno_scan(spec, taus, n_measurements=60)
    rates = [r.gamma_eff for r in results]
    monotone = all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))
    # validate the 0.5 threshold against the short-time analytic estimate
    # S(tau) ~ 1 - g(0) tau^2, i.e. gamma_eff ~ g(0) tau
    g0 = f * spec.coupling_sq
    estimate = g0 * taus[-1]
    estimate_ok = abs(rates[-1] - estimate) <= 0.2 * estimate and estimate < 0.5 * gamma_free
    ok = monotone and rates[-1] < 0.5 * gamma_free and estimate_ok
    report(
        "criterion 06 zeno-suppression",
        ok,
        f"rates {['%.4f' % r for r in rates]} monotone, "
        f"gamma_eff(0.05/eps) = {rates[-1]:.4f} < 0.5*gamma_free = {0.5 * gamma_free:.4f}, "
        f"short-time estimate {estimate:.4f}",
    )


# --- criterion 7: decay acceleration on a detuned spectrum --------------------------


def test_criterion_07_anti_zeno():
    from photonflow import zeno_scan

    f, eps_max = 400, 50.0
    g = coupling_for_rate(f, eps_max, 1.0)
    spec = ReservoirSpec(
        f=f, eps_max=eps_max, coupling=g, spectrum="lorentzian",
        center=0.8 * eps_max, width=0.05 * eps_max,
    )
    free = evolve_exact(spec, t_final=3.0)
    gamma_free, _ = fit_decay_rate(free.times, free.survival, (0.5, 3.0))
    taus = [x / eps_max for x in (1.0, 0.5, 0.2, 0.1, 0.05)]
    results = zeno_scan(spec, taus, n_measurements=60)
    best = max(results, key=lambda r: r.gamma_eff)
    report(
        "criterion 07 anti-zeno",
        best.gamma_eff > 1.5 * gamma_free,
        f"gamma_eff({best.tau_m:.4g}) = {best.gamma_eff:.4f} > 1.5*gamma_free = "
        f"{1.5 * gamma_free:.4f}",
    )


# --- criteria 8 and 9: the four-port router ------------------------------------------


DIODE = dict(gamma=1.0, gamma1=1.0, gamma2=20.0, T=50.0, f=200, n_q=400, eps_max=5e-4)


@pytest.fixture(scope="module")
def diode_run():
    p = DIODE
    g = coupling_for_diode_rate(p["f"], p["eps_max"], p["gamma2"], p["gamma"])
    spec = ReservoirSpec(f=p["f"], eps_max=p["eps_max"], coupling=g)
    pulse = gaussian_pulse(t0=3 * p["T"], duration=p["T"])
    t_final = simulation_window(pulse, gamma=p["gamma"], gamma1=p["gamma1"],
                                gamma2=p["gamma2"])
    grid1 = ContinuumGrid(n_q=p["n_q"], delta_max=2.5, gamma=p["gamma1"])
    grid2 = ContinuumGrid(n_q=p["n_q"], delta_max=2.5, gamma=p["gamma2"])
    p0 = project_pulse(grid1, pulse)
    start = time.perf_counter()
    traj = evolve_full(grid1, grid2, spec, p0, t_final)
    wall = time.perf_counter() - start
    mk = evolve_markov(p["gamma"], p["gamma1"], p["gamma2"], pulse, t_final, dt=0.02)
    return traj, mk, pulse, t_final, wall


def test_criterion_08a_diode_routing(diode_run):
    traj, _, _, _, wall = diode_run
    leakage, port2 = traj.port1[-1], traj.port2[-1]
    ok = leakage <= 0.01 and port2 >= 0.95 and wall < 300.0
    report(
        "criterion 08a diode-routing",
        ok,
        f"leakage {leakage:.5f} <= 1%, yield {port2:.5f} >= 95%, wall {wall:.0f}s < 300s",
    )


def test_criterion_08b_full_vs_markov(diode_run):
    traj, mk, _, _, _ = diode_run
    qm = np.interp(traj.times, mk.times, np.abs(mk.q) ** 2)
    # noise floor: the hard t=0 turn-on injects ~1e-4 broadband intensity
    mask = qm > 1e-3 * qm.max()
    rel = np.max(np.abs(traj.cavity1[mask] - qm[mask]) / qm[mask])
    report(
        "criterion 08b full-vs-markov",
        rel <= 0.05,
        f"max |Q|^2 relative deviation {rel:.4f} <= 0.05",
    )


def test_criterion_08c_unitarity(diode_run):
    traj, _, _, _, _ = diode_run
    energy = traj.port1[-1] + traj.port2[-1] + traj.cavity1[-1] + traj.mode2[-1]
    ok = traj.norm_drift <= 1e-8 and abs(energy - 1.0) <= 1e-6
    report(
        "criterion 08c unitarity",
        ok,
        f"norm drift {traj.norm_drift:.2e} <= 1e-8, energy bookkeeping {energy:.9f}",
    )


@pytest.fixture(scope="module")
def reflection_run():
    # reflection needs a band much wider than gamma2; the f x n_q diode
    # state is not involved, so a dense wide comb is affordable here
    gamma2, T = DIODE["gamma2"], DIODE["T"]
    pulse = gaussian_pulse(t0=3 * T, duration=T)
    t_final = simulation_window(pulse, gamma2=gamma2)
    # comb spacing leaves > 4 pulse widths between the window end and the
    # periodic ghost of the input, keeping its tail below the norm budget
    grid = ContinuumGrid(n_q=8800, delta_max=60.0, gamma=gamma2)
    return reflect_port2(grid, project_pulse(grid, pulse), t_final), gamma2


def test_criterion_08d_reflection_norm(reflection_run):
    ref, _ = reflection_run
    report(
        "criterion 08d reflection-norm",
        abs(ref.out_norm - 1.0) <= 1e-8,
        f"port-2 input reflected with norm {ref.out_norm:.10f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated bound 2/gamma2 +- 20% conflicts with the analytic resonant group "
        "delay of a one-sided cavity, 4/gamma2; see criterion 08f for the "
        "verified value"
    ),
)
def test_criterion_08e_reflection_delay_as_stated(reflection_run):
    ref, gamma2 = reflection_run
    stated = 2.0 / gamma2
    ok = abs(ref.delay - stated) <= 0.2 * stated
    report(
        "criterion 08e reflection-delay-as-stated",
        ok,
        f"measured delay {ref.delay:.4f} vs stated bound {stated:.4f} +- 20%",
    )


def test_criterion_08f_reflection_delay_verified(reflection_run):
    ref, gamma2 = reflection_run
    physical = 4.0 / gamma2
    report(
        "criterion 08f reflection-delay-verified",
        abs(ref.delay - physical) <= 0.2 * physical,
        f"measured delay {ref.delay:.4f} = 4/gamma2 ({physical:.4f}) +- 20%",
    )


def test_criterion_09_output_factorization(diode_run):
    traj, mk, _, _, _ = diode_run
    dec = port2_output_decomposition(traj)
    integral_conv = mk.yield_convolved
    integral_fact = mk.yield_factorized
    integrals_ok = abs(integral_conv - integral_fact) <= 0.05 * integral_conv
    ok = dec.min_overlap >= 0.99 and integrals_ok
    report(
        "criterion 09 output-factorization",
        ok,
        f"min per-class overlap {dec.min_overlap:.5f} >= 0.99, "
        f"integral rho_out {integral_conv:.5f} vs factorized {integral_fact:.5f}",
    )


# --- criterion 10: closed form vs integrator on a randomized suite --------------------


def test_criterion_10_cross_implementation_oracle():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(20):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(4, 9))
        space = ModeSpace([d1, d2])
        weights = {}
        for n in range(d1):
            for m in range(d2):
                if n + m <= d2 - 1 and rng.random() < 0.7:
                    weights[(n, m)] = float(rng.random())
        if not weights:
            weights[(0, 0)] = 1.0
        rho0 = mixed_fock_density(space, weights)
        model = LindbladModel(space, [(transfer_jump(space), 1.0)])
        res = evolve(model, rho0, 30.0, snapshot_stride=10**9)
        dist = trace_distance(res.states[-1], asymptotic_transfer_map(rho0))
        worst = max(worst, dist)
    report(
        "criterion 10 cross-oracle",
        worst <= 1e-4,
        f"worst trace distance over 20 random Fock-diagonal states {worst:.2e} <= 1e-4",
    )
