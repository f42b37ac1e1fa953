"""Every exported entry takes only arguments it can compute with.

Each case calls one public constructor or function, or a constructor and the
function that uses what it built, at small sizes, under ``time_limit``.  Some
arguments are edited: a number to one of 0, -1, nan, inf, 1e308, 2.5, an
empty or a 0-d array; a sequence to an empty or 0-d array, or to one of
another length or with one such entry.  Each argument has a domain.  A call
whose arguments are all inside their domains returns finite values in every
field or raises a PhotonflowError; one with an argument outside its domain
raises a PhotonflowError, and after a single edit, as on the command line,
that error names the edited argument.
"""

import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photonflow import (ContinuumGrid, ModeSpace, ReservoirSpec, coupling_for_diode_rate,
                        coupling_for_rate, custom_pulse, evolve, evolve_exact, evolve_markov,
                        exponential_pulse, fit_decay_rate, fock_density, gaussian_pulse,
                        impedance_scan, loaded_transfer_rate, mixed_fock_density, project_pulse,
                        reflect_port2, simulation_window, transfer_jump, zeno_evolve,
                        zeno_scan)
from photonflow._integrate import sample_steps, steps_for
from photonflow.errors import InvalidInput, PhotonflowError
from photonflow.lindblad import LindbladModel
from test_scenario import time_limit

SCALARS = [0, -1, math.nan, math.inf, 1e308, 2.5, np.array(1.0)]
BAD = SCALARS + [np.array([])]


def real(v, a) -> bool:
    """One finite real number, not text."""
    try:
        return not isinstance(v, str) and np.ndim(v) == 0 and math.isfinite(float(v))
    except (TypeError, ValueError):
        return False


def positive(v, a) -> bool:
    return real(v, a) and float(v) > 0


def count(least: int):
    def ok(v, a) -> bool:
        try:
            return operator.index(v) >= least
        except TypeError:
            return False
    return ok


def each(ok, least=0, size=None):
    """A one-dimensional sequence of at least ``least`` entries, or of ``size(args)``,
    each of which passes ``ok``."""
    def check(v, a) -> bool:
        return (np.ndim(v) == 1 and len(v) >= least and (size is None or len(v) == size(a))
                and all(ok(x, a) for x in v))
    return check


def weights_ok(v, a) -> bool:
    v = v if np.ndim(v) else [v]  # a single weight is a mixture of one state
    return (each(lambda w, a: real(w, a) and float(w) >= 0, least=1)(v, a)
            and 0.0 < sum(float(w) for w in v) < math.inf)


def reservoir(f, eps_max, coupling, **spectrum):
    return ReservoirSpec(f=f, eps_max=eps_max, coupling=coupling, **spectrum)


def master(rate, t_final, dt, stride):
    space = ModeSpace([2, 3])
    model = LindbladModel(space, [(transfer_jump(space), rate)])
    return evolve(model, fock_density(space, (1, 0)), t_final, dt=dt, snapshot_stride=stride)


def mixture(weights):
    """The mixture of the first Fock states of two qubits with these weights."""
    weights = weights if np.ndim(weights) else [weights]
    return mixed_fock_density(ModeSpace([2, 2]), dict(zip([(0, 0), (1, 0), (0, 1)], weights)))


def reflection(n_q, delta_max, gamma, t0, duration, t_final):
    grid = ContinuumGrid(n_q=n_q, delta_max=delta_max, gamma=gamma)
    return reflect_port2(grid, project_pulse(grid, gaussian_pulse(t0, duration)), t_final)


SPEC = dict(f=(8, count(1)), eps_max=(4.0, positive), coupling=(0.5, real))
PULSE = gaussian_pulse(t0=10.0, duration=2.0)

# name -> (call, {argument: (valid value, domain[, the names its error may carry])}); a domain
# sees the value and all arguments
ENTRIES = {
    "ModeSpace": (lambda mode_dims: fock_density(ModeSpace(mode_dims), (0,) * len(mode_dims)),
                  {"mode_dims": ([2, 3], each(count(2), least=1))}),
    "mixed_fock_density": (mixture, {"weights": ([0.5, 0.5], weights_ok)}),
    "evolve": (master, {"rate": (1.0, positive), "t_final": (1.0, positive),
                        "dt": (0.1, positive), "stride": (2, count(1))}),
    "evolve_exact": (lambda t_final, dt, **spec: evolve_exact(reservoir(**spec), None,
                                                              t_final, dt),
                     {**SPEC, "t_final": (1.0, positive), "dt": (0.01, positive)}),
    "evolve_exact-lorentzian": (
        lambda center, width, **spec: evolve_exact(
            reservoir(**spec, spectrum="lorentzian", center=center, width=width), None, 1.0,
            0.01),
        {**SPEC, "center": (0.5, real), "width": (1.0, positive)}),
    "evolve_exact-custom": (
        lambda omegas, **spec: evolve_exact(reservoir(**spec, spectrum="custom",
                                                      omegas=omegas), None, 1.0, 0.01),
        {**SPEC, "f": (3, count(1)),
         "omegas": ([-1.0, 0.0, 1.0], each(real, size=lambda a: a["f"] if count(1)(a["f"], a)
                                             else -1))}),
    "zeno_evolve": (lambda t_final, tau_m, **spec: zeno_evolve(reservoir(**spec), t_final,
                                                               tau_m),
                    {**SPEC, "t_final": (1.0, positive), "tau_m": (0.05, positive)}),
    "zeno_scan": (lambda taus, n_measurements: zeno_scan(reservoir(8, 4.0, 0.5), taus,
                                                         n_measurements),
                  {"taus": ([0.05, 0.1], each(positive, least=1)),
                   "n_measurements": (20, count(10))}),
    "coupling_for_rate": (coupling_for_rate, {"f": (8, count(1)), "eps_max": (1.0, positive),
                                              "gamma": (1.0, positive)}),
    "coupling_for_diode_rate": (coupling_for_diode_rate,
                                {"f": (6, count(1)), "eps_max": (0.05, positive),
                                 "gamma2": (5.0, positive), "gamma_target": (1.0, positive)}),
    "loaded_transfer_rate": (lambda gamma2, **spec: loaded_transfer_rate(reservoir(**spec),
                                                                         gamma2),
                             {**SPEC, "gamma2": (5.0, positive)}),
    "reflect_port2": (reflection, {"n_q": (400, count(1)), "delta_max": (10.0, positive),
                                   "gamma": (4.0, positive), "t0": (0.0, real),
                                   "duration": (2.0, positive), "t_final": (10.0, positive)}),
    "exponential_pulse": (lambda rate, t_stop: evolve_markov(
                              1.0, 1.0, 5.0, exponential_pulse(rate, t_stop), 20.0, 0.05),
                          {"rate": (1.0, positive), "t_stop": (5.0, real)}),
    "custom_pulse": (lambda times, values: evolve_markov(
                         1.0, 1.0, 5.0, custom_pulse(times, values), 20.0, 0.05),
                     {"times": ([0.0, 1.0, 2.0], each(real, least=2)),
                      "values": ([0.0, 1.0, 0.0], each(real, size=lambda a: np.size(a["times"])))}),
    "evolve_markov": (lambda gamma, gamma1, gamma2, t0, duration, t_final, dt: evolve_markov(
                          gamma, gamma1, gamma2, gaussian_pulse(t0, duration), t_final, dt),
                      {"gamma": (1.0, positive), "gamma1": (1.0, positive),
                       "gamma2": (20.0, positive), "t0": (0.0, real),
                       "duration": (2.0, positive), "t_final": (20.0, positive),
                       "dt": (0.05, positive)}),
    "impedance_scan": (lambda gamma, gamma2, ratios: impedance_scan(gamma, gamma2, PULSE,
                                                                    ratios, 20.0, 0.05),
                       {"gamma": (1.0, positive), "gamma2": (5.0, positive),
                        # evolve_markov checks gamma1 = ratio gamma
                        "ratios": ([0.5, 2.0], each(positive, least=1), {"ratios", "gamma1"})}),
    "simulation_window": (lambda gamma, gamma2: simulation_window(PULSE, gamma=gamma,
                                                                  gamma2=gamma2),
                          {"gamma": (1.0, positive), "gamma2": (5.0, positive)}),
    "steps_for": (steps_for, {"t_final": (1.0, positive), "dt": (0.1, positive)}),
    "sample_steps": (sample_steps, {"nsteps": (10, count(1)), "stride": (3, count(1))}),
}


@st.composite
def calls(draw):
    """An entry, and a bad value for each of some of its arguments."""
    name = draw(st.sampled_from(sorted(ENTRIES)))
    drawn = {}
    for arg, (valid, *_) in ENTRIES[name][1].items():
        bad = st.sampled_from(BAD)
        if isinstance(valid, list):  # a sequence: empty, 0-d, of another length or one bad entry
            bad = st.one_of(st.sampled_from(BAD[-2:]),
                            st.integers(0, 3).map(lambda k: valid[:1] * k),
                            st.builds(lambda k, i, x: valid[:1] * k + [x] + valid[:1] * i,
                                      st.integers(0, 2), st.integers(0, 1),
                                      st.sampled_from(SCALARS)))
        if draw(st.booleans()):
            drawn[arg] = draw(bad)
    return name, drawn


def finite_fields(x) -> bool:
    """Every number, array and dataclass field in ``x`` is finite."""
    if isinstance(x, (list, tuple)):
        return all(finite_fields(v) for v in x)
    if dataclasses.is_dataclass(x):
        return all(finite_fields(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (np.ndarray, np.number, float, complex)):
        return bool(np.all(np.isfinite(x)))
    return True


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(call=calls())
@example(call=("coupling_for_rate", {"f": 0}))  # coupling_for_rate(0, 1.0, 1.0)
@example(call=("ModeSpace", {"mode_dims": [2.5, 3]}))
@example(call=("evolve_exact", {"f": 2.5}))  # ReservoirSpec(f=2.5, ...)
@example(call=("evolve_exact", {"coupling": math.nan}))
@example(call=("reflect_port2", {"delta_max": math.nan}))  # ContinuumGrid(400, nan, 4.0)
@example(call=("reflect_port2", {"n_q": 400.5}))  # ContinuumGrid(400.5, 10.0, 4.0)
@example(call=("evolve_markov", {"duration": math.nan}))  # gaussian_pulse(0.0, nan)
@example(call=("evolve_markov", {"gamma": math.nan}))  # evolve_markov(nan, 1.0, 20.0, ...)
def test_every_export_takes_only_arguments_it_can_compute_with(call):
    name, drawn = call
    entry, params = ENTRIES[name]
    args = {arg: drawn.get(arg, spec[0]) for arg, spec in params.items()}
    outside = [arg for arg, spec in params.items() if not spec[1](args[arg], args)]
    try:
        with time_limit():
            result = entry(**args)
    except PhotonflowError as exc:
        if len(drawn) == 1 and outside == list(drawn):  # one edit, as on a command line, is named
            names = params[outside[0]][2] if len(params[outside[0]]) > 2 else {outside[0]}
            assert exc.arg in names, f"{name}: {exc!r} names {exc.arg!r}, not {outside[0]}"
        return
    assert not outside, f"{name} accepted {sorted(outside)} = {[args[a] for a in outside]}"
    assert finite_fields(result), f"{name} returned a value that is not finite"


@pytest.mark.parametrize("call, named", [
    (lambda: fit_decay_rate(np.arange(5.0), np.ones(4), (0, 4)), "survival"),
    (lambda: fit_decay_rate(np.arange(5.0), np.ones(5), (0, 2, 4)), "window"),
    # each frequency is a float, but their differences are not
    (lambda: evolve_exact(reservoir(2, 1.0, 0.1, spectrum="custom", omegas=(-1e308, 1e308)),
                          None, 1.0, 0.01), "omegas"),
], ids=["unequal-lengths", "three-number-window", "omegas-span"])
def test_sequences_that_do_not_fit_together_are_named(call, named):
    # the property test edits one entry of a sequence, which reaches none of these
    with pytest.raises(InvalidInput) as exc:
        call()
    assert exc.value.arg == named
