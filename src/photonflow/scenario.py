"""File-defined experiments: parsing, validation, execution, outputs.

Scenario files are flat key-value text with sections, one section per
parameter block::

    [scenario]
    name = transfer-demo
    kind = LindbladTransfer

    [space]
    dims = 3 4

    [model]
    gamma = 1.0

    [initial]
    state = fock 1 0

    [run]
    t_final = 5.0

    [output]
    dir = out
    stride = 10

Numbers are decimal literals (exponent notation allowed), lists are
whitespace separated, ``#`` starts a comment.  No expression evaluation.
A key the kind's build never reads is rejected, and every validation
message names the offending ``section.key``.

Each run writes ``timeseries.csv`` and/or ``summary.csv`` plus a
``manifest.ini`` that echoes the scenario, lists derived quantities,
results, and the outcome of the physical invariant checks.  Outputs are
deterministic: fixed summation orders, CSV cells all floats printed with
17 significant digits, so identical inputs give byte-identical CSVs.

Every kind is one ``_Kind`` record in ``_KINDS``: a build that reads its
keys into typed inputs, derives what needs only the file (projected
pulses, the purification map, C2's eigenpairs) and runs every
configuration check, and a runner that works only on those inputs.  The
keys a build reads are the kind's schema; the results its runner
returns, in their order, are what the command line prints and what a
scan summarizes.  A ``Scenario`` is built once, when it is made, and
carries that build as ``inputs``; a run runs it.  A runner returns each
CSV as its named columns, in order.

A build parses text into numbers; the library owns their ranges.  Each
value goes to the function that checks it, also where the run first sees
it, under ``_guard``, which names the key, so a file that validates does
not fail its run on a range.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import diode as dio
from . import fock, lindblad, reservoir
from ._integrate import sample_steps, steps_for
from .errors import (ConfigurationError, InvalidInput, InvariantViolation, ScenarioError,
                     check_count, check_positive, check_sequence)

__all__ = [
    "Scenario",
    "RunOutcome",
    "KINDS",
    "parse_scenario",
    "parse_scenario_text",
    "validate_scenario",
    "run_scenario",
    "scan_scenario",
]


@dataclass
class Scenario:
    name: str
    kind: str
    sections: dict  # section -> {key -> raw string}
    looked_up: set = field(default_factory=set, compare=False, repr=False)  # (section, key)
    # the kind's build of these sections, made with the record; a run runs it
    inputs: SimpleNamespace = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.inputs = validate_scenario(self)

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        self.looked_up.add((section, key))
        return self.sections.get(section, {}).get(key, default)

    def with_override(self, section: str, key: str, value: str) -> "Scenario":
        new = {s: dict(kv) for s, kv in self.sections.items()}
        new.setdefault(section, {})[key] = value
        return Scenario(self.name, self.kind, new)


# ---------------------------------------------------------------------------
# parsing


def parse_scenario_text(text: str) -> Scenario:
    sections: dict = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\0" in raw:
            raise ScenarioError(f"line {lineno}: NUL character")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ScenarioError(f"line {lineno}: empty section name")
            if current in sections:
                raise ScenarioError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ScenarioError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key {current}.{key}")
        sections[current][key] = value

    if "scenario" not in sections:
        raise ScenarioError("missing [scenario] section")
    head = sections["scenario"]
    for req in ("name", "kind"):
        if req not in head:
            raise ScenarioError(f"scenario.{req}: required key is missing")
    name, kind = head["name"], head["kind"]
    # the name is the run's directory under the output directory
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ScenarioError(f"scenario.name: must be a single path component, got {name!r}")
    if kind not in KINDS:
        raise ScenarioError(f"scenario.kind: unknown kind {kind!r}; expected one of {KINDS}")
    return Scenario(name, kind, sections)


def parse_scenario(path) -> Scenario:
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    try:
        # utf-8-sig drops a byte-order mark
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}")
    return parse_scenario_text(text)


def _err(path: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{path}: {msg}")


def _guard(path: str, check: Callable, *args, names: Optional[dict] = None, **kwargs):
    """``check(*args, **kwargs)``, its configuration errors re-raised naming a key: the one
    ``names`` gives the argument at fault, else ``section.argument`` under a bare section
    ``path``, else ``path``."""
    try:
        return check(*args, **kwargs)
    except (ConfigurationError, InvalidInput) as exc:
        bare = exc.arg and "." not in path
        raise _err((names or {}).get(exc.arg) or (f"{path}.{exc.arg}" if bare else path), str(exc))


_REQUIRED = object()


def _get(sc: Scenario, path: str, parse: Callable, default=_REQUIRED):
    """``parse(path, raw)`` of the value at ``section.key``, or ``default`` if absent."""
    section, key = path.split(".")
    raw = sc.get(section, key)
    if raw is not None:
        return parse(path, raw)
    if default is _REQUIRED:
        raise _err(path, "required key is missing")
    return default


def _as_text(path: str, raw: str) -> str:
    return raw


def _one_of(*choices: str) -> Callable[[str, str], str]:
    def parse(path: str, raw: str) -> str:
        if raw not in choices:
            raise _err(path, f"expected {'|'.join(choices)}, got {raw!r}")
        return raw
    return parse


def _as_float(path: str, raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise _err(path, f"not a number: {raw!r}")
    if not math.isfinite(x):
        raise _err(path, f"not a finite number: {raw!r}")
    return x


def _as_positive(path: str, raw: str) -> float:
    return _guard(path, check_positive, path.split(".")[1], _as_float(path, raw))


def _as_int(path: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _err(path, f"not an integer: {raw!r}")


def _float_list(path: str, raw: str) -> list[float]:
    toks = raw.replace(",", " ").split()
    if not toks:
        raise _err(path, "empty list")
    return [_as_float(path, t) for t in toks]


def _int_list(path: str, raw: str) -> list[int]:
    toks = raw.replace(",", " ").split()
    if not toks:
        raise _err(path, "empty list")
    return [_as_int(path, t) for t in toks]


def _stride(sc: Scenario, default: int = 10) -> int:
    n = _get(sc, "output.stride", _as_int, default)
    return _guard("output.stride", check_count, "stride", n)


def _run_times(sc: Scenario, t_final, dt) -> tuple:
    """run.t_final and run.dt, each falling back to the kind's default, on a grid
    that ``steps_for`` accepts."""
    t_final = _get(sc, "run.t_final", _as_float, t_final)
    dt = _get(sc, "run.dt", _as_float, dt)
    _guard("run", steps_for, t_final, dt)
    return t_final, dt


# ---------------------------------------------------------------------------
# typed builds: every configuration check a run would make, before it runs


def _mode_space(sc: Scenario, n_modes: int) -> fock.ModeSpace:
    dims = _get(sc, "space.dims", _int_list)
    _guard("space.dims", check_sequence, "dims", dims, size=n_modes)
    return _guard("space.dims", fock.ModeSpace, dims)


def _fock_initial(sc: Scenario, space: fock.ModeSpace) -> fock.DensityMatrix:
    raw = _get(sc, "initial.state", _as_text)
    toks = raw.split()
    if toks[:1] == ["fock"]:
        occ = [_as_int("initial.state", t) for t in toks[1:]]
        return _guard("initial.state", fock.fock_density, space, occ)
    if toks[:1] == ["mixed"]:
        weights = {}
        for part in " ".join(toks[1:]).split(";"):
            nums = part.split()
            if len(nums) != space.n_modes + 1:
                raise _err("initial.state", "each mixed component is: weight n1 n2 ...")
            w = _as_float("initial.state", nums[0])
            if w < 0:
                raise _err("initial.state", "weights must be nonnegative")
            occ = tuple(_as_int("initial.state", x) for x in nums[1:])
            weights[occ] = weights.get(occ, 0.0) + w
        return _guard("initial.state", fock.mixed_fock_density, space, weights)
    raise _err("initial.state", f"expected 'fock ...' or 'mixed ...', got {raw!r}")


def _dark_psi(sc: Scenario, space: fock.ModeSpace) -> np.ndarray:
    sign = -1.0 if _get(sc, "initial.state", _one_of("dark", "bright")) == "dark" else 1.0
    v = fock.fock_state(space, (0, 1, 0)) + sign * fock.fock_state(space, (1, 0, 0))
    return v / np.sqrt(2.0)


def _master_inputs(sc: Scenario, space, jump, rho0, decay_times=None) -> SimpleNamespace:
    """Master-equation inputs; run.t_final is required unless ``decay_times``
    gives its default in units of 1/gamma, and run.dt (the sampling
    interval) defaults to lindblad's default."""
    gamma = _get(sc, "model.gamma", _as_float)
    model = _guard("model.gamma", lindblad.LindbladModel, space, [(jump, gamma)])
    t_final = _REQUIRED if decay_times is None else decay_times / gamma
    t_final, dt = _run_times(sc, t_final, lindblad._default_dt(model))
    stride = _stride(sc)
    _guard("run.dt", lindblad._samples, model, t_final, dt, stride)
    return SimpleNamespace(space=space, model=model, rho0=rho0, gamma=gamma, t_final=t_final,
                           dt=dt, stride=stride)


def _build_transfer(sc: Scenario, decay_times: Optional[float] = None) -> SimpleNamespace:
    space = _mode_space(sc, 2)
    return _master_inputs(sc, space, lindblad.transfer_jump(space, 0, 1), _fock_initial(sc, space),
                          decay_times)


def _build_purification(sc: Scenario) -> SimpleNamespace:
    """A transfer run long enough (30/gamma by default) to reach the asymptotic map,
    and that map's purification report, which needs mode 2 to hold every photon."""
    inputs = _build_transfer(sc, decay_times=30.0)
    inputs.report = _guard("space.dims", lindblad.purification_predicate, inputs.rho0)
    return inputs


def _build_dark_state(sc: Scenario) -> SimpleNamespace:
    space = _mode_space(sc, 3)
    jump = lindblad.interference_transfer_jump(space, (0, 1), 2)
    psi = _dark_psi(sc, space)
    inputs = _master_inputs(sc, space, jump, fock.DensityMatrix.from_state_vector(space, psi))
    inputs.psi = psi
    return inputs


def _build_reservoir(sc: Scenario, gamma2: Optional[float] = None) -> reservoir.ReservoirSpec:
    """The [reservoir] spec, checked at unit coupling first so that each error names its own
    key.  ``target_gamma`` is inverted through the loss-filtered diode rate of that spec
    when ``gamma2`` is given, and else through the golden rule."""
    f = _get(sc, "reservoir.f", _as_int)
    eps_max = _get(sc, "reservoir.eps_max", _as_float)
    spectrum = _get(sc, "reservoir.spectrum", _one_of(*reservoir.SPECTRA), "equidistant")
    kwargs: dict = {}
    if spectrum == "lorentzian":
        kwargs["center"] = _get(sc, "reservoir.center", _as_float)
        kwargs["width"] = _get(sc, "reservoir.width", _as_float)
    if spectrum == "custom":
        kwargs["omegas"] = tuple(_get(sc, "reservoir.omegas", _float_list))

    coupling = _get(sc, "reservoir.coupling", _as_positive, None)
    target = _get(sc, "reservoir.target_gamma", _as_float, None)
    if coupling is None and target is None:
        raise _err("reservoir.coupling", "give either coupling or target_gamma")
    if coupling is not None and target is not None:
        raise _err("reservoir.coupling", "coupling and target_gamma are mutually exclusive")
    spec = _guard("reservoir", reservoir.ReservoirSpec, f=f, eps_max=eps_max,
                  coupling=1.0 if coupling is None else coupling, spectrum=spectrum, **kwargs)
    if target is None:
        return spec
    key = "reservoir.target_gamma"
    if gamma2 is not None:
        coupling = _guard(key, dio._coupling_for_loaded_rate, spec, gamma2, target,
                          names={"gamma2": "diode.gamma2"})
    elif spectrum != "equidistant":
        raise _err(key, "rate inversion needs the equidistant spectrum")
    else:
        coupling = _guard(key, reservoir.coupling_for_rate, f, eps_max, target)
    return _guard(key, replace, spec, coupling=coupling)


def _reservoir_run(sc: Scenario, propagated: Callable = lambda spec: spec) -> tuple:
    """Spec, run.t_final and run.dt of a reservoir kind; dt must resolve ``propagated(spec)``."""
    spec = _build_reservoir(sc)
    t_final, dt = _run_times(sc, _REQUIRED, reservoir._default_dt(spec))
    coupling = "reservoir.coupling" if sc.get("reservoir", "coupling") else "reservoir.target_gamma"
    _guard("run.dt", reservoir._check_dt, _guard(coupling, propagated, spec), dt,
           names={"coupling": coupling})
    return spec, t_final, dt


def _fit_window(sc: Scenario, t_final: float, dt: float) -> tuple[float, float]:
    """fit.window (default: the last 90% of the run), with two samples on the run's grid."""
    w = tuple(_get(sc, "fit.window", _float_list, [0.1 * t_final, t_final]))
    n, step = steps_for(t_final, dt)
    _guard("fit.window", reservoir._window_mask, np.arange(n + 1) * step, w)
    return w


def _build_decay(sc: Scenario) -> SimpleNamespace:
    spec, t_final, dt = _reservoir_run(sc)
    return SimpleNamespace(spec=spec, t_final=t_final, dt=dt,
                           window=_fit_window(sc, t_final, dt), stride=_stride(sc, 1))


def _build_zeno(sc: Scenario) -> SimpleNamespace:
    spec, t_final, dt = _reservoir_run(sc)
    taus = _get(sc, "zeno.taus", _float_list)
    n_meas = _guard("zeno", reservoir._scan_measurements, taus,
                    _get(sc, "zeno.n_measurements", _as_int, 60))
    return SimpleNamespace(spec=spec, t_final=t_final, dt=dt, window=_fit_window(sc, t_final, dt),
                           taus=taus, n_meas=n_meas)


_INTERFERENCE_STATES = {
    "antisymmetric": reservoir.TwoUpperModeState.antisymmetric,
    "symmetric": reservoir.TwoUpperModeState.symmetric,
    "single": reservoir.TwoUpperModeState.single,
}


def _build_interference(sc: Scenario) -> SimpleNamespace:
    spec, t_final, dt = _reservoir_run(sc, reservoir._symmetric_mode)
    name = _get(sc, "initial.state", _one_of(*_INTERFERENCE_STATES))
    return SimpleNamespace(spec=spec, t_final=t_final, dt=dt, state=name, stride=_stride(sc, 1))


def _build_pulse(sc: Scenario) -> dio.Pulse:
    duration = _get(sc, "pulse.duration", _as_float)
    t0 = _get(sc, "pulse.t0", _as_float, 3.0 * duration)
    pulse = _guard("pulse", dio.gaussian_pulse, t0=t0, duration=duration)
    if not pulse.support()[1] > 0.0:
        raise _err("pulse.t0", f"the pulse ends at t0 + 4 duration = {pulse.support()[1]:g}, "
                               "before the run starts at t = 0")
    return pulse


def _build_grid(
    sc: Scenario, section: str, port: str, gamma: float, pulse: dio.Pulse, t_final: float
) -> dio.ContinuumGrid:
    n_q = _get(sc, f"{section}.n_q", _as_int)
    delta_max = _get(sc, f"{section}.delta_max", _as_float)
    grid = _guard(section, dio.ContinuumGrid, n_q=n_q, delta_max=delta_max, gamma=gamma)
    _guard(section, dio._check_bandwidth, grid, pulse)
    _guard(section, dio._check_window, grid, t_final, port)
    return grid


def _build_diode_full(sc: Scenario) -> SimpleNamespace:
    pulse = _build_pulse(sc)
    gamma1 = _get(sc, "diode.gamma1", _as_float)
    gamma2 = _get(sc, "diode.gamma2", _as_float)
    spec = _build_reservoir(sc, gamma2)
    gamma_eff = _guard("reservoir.coupling", dio.loaded_transfer_rate, spec, gamma2,
                       names={"gamma2": "diode.gamma2"})
    window = _guard("diode", dio.simulation_window, pulse, gamma_eff=gamma_eff, gamma1=gamma1,
                    gamma2=gamma2)
    t_final, dt = _run_times(sc, window, 0.02)
    grid1 = _build_grid(sc, "grid1", "port-1", gamma1, pulse, t_final)
    p0 = _guard("grid1", dio.project_pulse, grid1, pulse)
    grid2 = _build_grid(sc, "grid2", "port-2", gamma2, pulse, t_final)
    samples, step, *_, n = _guard("run.t_final", dio._quadrature_grid, grid1, grid2.cavity, spec,
                                  t_final, dt)
    # the run compares with the Markov |q|^2 on its samples and rho_out on the output grid,
    # where each is positive
    mk = _guard("run.t_final", dio.evolve_markov, gamma_eff, gamma1, gamma2, pulse, t_final, 0.02)
    markov = (np.interp(np.array([0] + samples) * step, mk.times, np.abs(mk.q) ** 2),
              np.interp(np.arange(0.0, t_final, dio._SAMPLE_SPACING), mk.times, mk.rho_out))
    if not all(np.max(ref) > 0.0 for ref in markov):
        raise _err("run.t_final", f"t_final = {t_final:g} ends before the Markov reference "
                                  "has a cavity-1 population and a port-2 output to compare with")
    return SimpleNamespace(spec=spec, gamma_eff=gamma_eff, gamma1=gamma1, gamma2=gamma2,
                           grid1=grid1, grid2=grid2, pulse=pulse, p0=p0, t_final=t_final,
                           dt=dt, markov=markov, quadrature_steps=n)


def _build_diode_markov(sc: Scenario) -> SimpleNamespace:
    pulse = _build_pulse(sc)
    gamma, gamma1, gamma2 = (_get(sc, f"diode.{k}", _as_float)
                             for k in ("gamma", "gamma1", "gamma2"))
    _guard("diode", dio._check_rates, gamma, gamma1, gamma2)
    t_final, dt = _run_times(sc, dio.simulation_window(pulse, gamma=gamma, gamma1=gamma1,
                                                       gamma2=gamma2), 0.02)
    return SimpleNamespace(gamma=gamma, gamma1=gamma1, gamma2=gamma2, pulse=pulse,
                           t_final=t_final, dt=dt, stride=_stride(sc, 1))


def _build_port2_reflection(sc: Scenario) -> SimpleNamespace:
    pulse = _build_pulse(sc)
    gamma2 = _get(sc, "diode.gamma2", _as_float)
    window = _guard("diode", dio.simulation_window, pulse, gamma2=gamma2)
    t_final = _get(sc, "run.t_final", _as_float, window)
    grid2 = _build_grid(sc, "grid2", "port-2", gamma2, pulse, t_final)
    s0 = _guard("grid2", dio.project_pulse, grid2, pulse)
    _guard("run.t_final", dio._reflection_samples, t_final)
    return SimpleNamespace(gamma2=gamma2, grid2=grid2, s0=s0, t_final=t_final)


def _build_impedance_scan(sc: Scenario) -> SimpleNamespace:
    pulse = _build_pulse(sc)
    gamma, gamma2 = (_get(sc, f"diode.{k}", _as_float) for k in ("gamma", "gamma2"))
    ratios = _get(sc, "scan.ratios", _float_list)
    # diode.evolve_markov takes gamma1 = ratio gamma
    _guard("diode", dio._check_scan, gamma, gamma2, ratios,
           names={"ratios": "scan.ratios", "gamma1": "scan.ratios"})
    t_final, dt = _run_times(sc, dio.simulation_window(pulse, gamma=gamma, gamma2=gamma2), 0.02)
    return SimpleNamespace(gamma=gamma, gamma2=gamma2, ratios=ratios, pulse=pulse,
                           t_final=t_final, dt=dt)


# ---------------------------------------------------------------------------
# execution: every runner works on the inputs its kind's build returned


@dataclass
class RunOutcome:
    derived: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    invariant_failures: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)  # CSV file name -> {column: values}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _check(outcome: RunOutcome, name: str, value: float, ok: bool) -> None:
    outcome.invariants[name] = value
    if not ok:
        outcome.invariant_failures.append(name)


def _master_report(outcome: RunOutcome, res: lindblad.EvolutionResult) -> None:
    """The propagator's work and the support's blocks in [derived], and the
    invariants of every snapshot; ``largest_block > 1`` means LAPACK ran.
    The last snapshot, built in full, checks the support's observables."""
    outcome.derived["propagated_entries"] = res.propagated_entries
    outcome.derived["generator_products"] = res.generator_products
    outcome.derived["propagator_entries"] = res.propagator_entries
    outcome.derived["support_blocks"] = len(res.blocks)
    outcome.derived["largest_block"] = max((b.size for b in res.blocks), default=0)
    _check(outcome, "trace_drift", res.trace_drift, res.trace_drift <= 1e-8)
    min_eig = float(np.min(res.min_eigenvalues()))
    _check(outcome, "min_eigenvalue", min_eig, min_eig >= -1e-8)
    herm = float(np.max(res.hermiticity_defects()))
    _check(outcome, "hermiticity_defect", herm, herm <= 1e-12)
    full = abs(res.observables["purity"][-1] - res.states[-1].purity())
    _check(outcome, "purity_vs_full_matrix", full, full <= 1e-12)


def _evolve_master(c: SimpleNamespace) -> lindblad.EvolutionResult:
    return lindblad.evolve(c.model, c.rho0, c.t_final, dt=c.dt, snapshot_stride=c.stride)


def _transfer_timeseries(res: lindblad.EvolutionResult) -> dict:
    obs = res.observables
    return {"t": res.times, "pop_mode1": obs["pop_mode1"], "pop_mode2": obs["pop_mode2"],
            "purity": obs["purity"], "trace": obs["trace"]}


def _run_lindblad_transfer(c: SimpleNamespace) -> RunOutcome:
    res = _evolve_master(c)
    out = RunOutcome(derived={"gamma": c.gamma, "total_dim": c.space.total_dim})
    _master_report(out, res)
    out.tables["timeseries.csv"] = _transfer_timeseries(res)
    out.results = {
        "pop_mode1_final": res.observables["pop_mode1"][-1],
        "pop_mode2_final": res.observables["pop_mode2"][-1],
        "purity_final": res.observables["purity"][-1],
    }
    return out


def _run_purification_map(c: SimpleNamespace) -> RunOutcome:
    res = _evolve_master(c)
    report = c.report  # the closed-form map, applied by the build
    dist = fock.trace_distance(res.states[-1], report.final_state)
    out = RunOutcome(derived={"gamma": c.gamma, "total_dim": c.space.total_dim})
    if report.witness is not None:
        out.derived["witness_abs"] = " ".join(_fmt(a) for a in np.abs(report.witness))
    _master_report(out, res)
    _check(out, "evolve_vs_map_distance", dist, dist <= 1e-4)
    out.tables["timeseries.csv"] = _transfer_timeseries(res)
    out.results = {
        "map_purity": report.purity,
        "pure": float(report.pure),
        "evolve_vs_map_distance": dist,
        "purity_final": res.observables["purity"][-1],
    }
    return out


def _run_dark_state(c: SimpleNamespace) -> RunOutcome:
    res = _evolve_master(c)
    fid = lindblad.state_fidelity(res, c.psi)
    out = RunOutcome(derived={"gamma": c.gamma})
    _master_report(out, res)
    rate, residual = reservoir.fit_decay_rate(
        res.times, np.maximum(fid, 1e-300), (res.times[0], res.times[-1])
    )
    out.tables["timeseries.csv"] = {"t": res.times, "fidelity": fid}
    out.results = {
        "fidelity_final": fid[-1],
        "fidelity_min": float(fid.min()),
        "fitted_rate": rate,
        "fit_residual": residual,
    }
    return out


def _run_microscopic_decay(c: SimpleNamespace) -> RunOutcome:
    spec = c.spec
    traj = reservoir.evolve_exact(spec, None, t_final=c.t_final, dt=c.dt)
    drift = abs(abs(traj.c0[-1]) ** 2 + float(np.sum(np.abs(traj.c_final) ** 2)) - 1.0)
    out = RunOutcome(derived={"coupling": float(abs(spec.coupling)), "spectrum": spec.spectrum})
    # the golden rule and the comb recurrence hold only for the equidistant comb
    if spec.spectrum == "equidistant":
        out.derived["recurrence_time"] = reservoir.recurrence_time(spec)
        out.results["gamma_markov"] = reservoir.markov_rate(spec)
    gamma_fit, residual = reservoir.fit_decay_rate_or_nan(traj.times, traj.survival, c.window)
    _check(out, "norm_drift", drift, drift <= 1e-9 * max(1.0, c.t_final))
    _check(out, "gamma_fit_finite", gamma_fit, math.isfinite(gamma_fit))
    idx = [0] + sample_steps(traj.times.size - 1, c.stride)
    out.tables["timeseries.csv"] = {"t": traj.times[idx], "survival": traj.survival[idx]}
    out.results.update(gamma_fit=gamma_fit, fit_residual=residual,
                       survival_final=traj.survival[-1])
    return out


def _run_zeno_scan(c: SimpleNamespace) -> RunOutcome:
    spec = c.spec
    free = reservoir.evolve_exact(spec, None, t_final=c.t_final, dt=c.dt)
    gamma_free, _ = reservoir.fit_decay_rate_or_nan(free.times, free.survival, c.window)

    results = reservoir.zeno_scan(spec, c.taus, n_measurements=c.n_meas)
    out = RunOutcome(derived={"coupling": float(abs(spec.coupling)), "spectrum": spec.spectrum,
                              "n_measurements": c.n_meas})
    # a reservoir too weakly coupled to decay on the window leaves no rate to compare with
    _check(out, "gamma_free_positive", gamma_free, gamma_free > 0.0)
    ratios = [r.gamma_eff / gamma_free if gamma_free > 0.0 else math.nan for r in results]
    for i, r in enumerate(results):
        # a period whose no-decay probability underflows to 0 has the rate nan, and fails
        _check(out, f"gamma_eff_nonnegative_{i}", r.gamma_eff, r.gamma_eff >= 0.0)
        s = r.survival
        _check(out, f"survival_monotone_{i}", float(np.max(np.diff(s))), bool(np.all(np.diff(s) <= 1e-12)))
    # rate non-increasing as the measurement period shrinks
    ordered = sorted(results, key=lambda r: -r.tau_m)
    monotone = all(
        ordered[i].gamma_eff >= ordered[i + 1].gamma_eff - 1e-12
        for i in range(len(ordered) - 1)
    )
    out.tables["summary.csv"] = {
        "tau_m": [r.tau_m for r in results],
        "gamma_eff": [r.gamma_eff for r in results],
        "ratio_to_free": ratios,
        "fit_residual": [r.fit_residual for r in results],
    }
    out.results = {
        "gamma_free": gamma_free,
        "gamma_eff_min": min(r.gamma_eff for r in results),
        "gamma_eff_max": max(r.gamma_eff for r in results),
        "max_ratio_to_free": max(ratios),
        "monotone_in_tau": float(monotone),
    }
    return out


def _run_interference(c: SimpleNamespace) -> RunOutcome:
    state0 = _INTERFERENCE_STATES[c.state](c.spec.f)
    traj = reservoir.interference_evolve(c.spec, state0, c.t_final, dt=c.dt)
    surv = traj.survival
    out = RunOutcome(derived={"coupling": float(abs(c.spec.coupling)), "initial": c.state})
    # the upper modes never hold more than the one photon; a nan fails this too
    most = float(np.max(surv))
    _check(out, "survival_at_most_one", most, most <= 1.0 + 1e-9)
    idx = [0] + sample_steps(traj.times.size - 1, c.stride)
    out.tables["timeseries.csv"] = {
        "t": traj.times[idx],
        "survival_total": surv[idx],
        "pop_a": np.abs(traj.c0[idx]) ** 2,
        "pop_b": np.abs(traj.c0p[idx]) ** 2,
    }
    out.results = {"survival_final": surv[-1], "survival_min": float(surv.min())}
    return out


def _max_rel_err(got: np.ndarray, ref: np.ndarray, mask: np.ndarray) -> float:
    """Largest relative deviation over ``mask``; nan when the mask is empty."""
    return float(np.max(np.abs(got[mask] - ref[mask]) / ref[mask])) if mask.any() else math.nan


def _run_diode_full(c: SimpleNamespace) -> RunOutcome:
    traj = dio.evolve_full(c.grid1, c.grid2, c.spec, c.p0, c.t_final, dt=c.dt)
    dec = dio.port2_output_decomposition(traj)
    qm, rho_m = c.markov  # on traj.times and dec.times
    # floor excludes the turn-on transient of the hard t=0 start
    q_err = _max_rel_err(traj.cavity1, qm, qm > 1e-3 * qm.max())
    rho_err = _max_rel_err(dec.rho_out, rho_m, rho_m > 0.01 * rho_m.max())

    out = RunOutcome(derived={
        "coupling": float(abs(c.spec.coupling)),
        "gamma_effective": c.gamma_eff,
        "kappa1": c.grid1.kappa,
        "kappa2": c.grid2.kappa,
        "t_final": c.t_final,
        "quadrature_step": traj.quadrature_step,
        "quadrature_steps": traj.quadrature_steps,
        "secular_iterations": traj.secular_iterations,
        "bath_channels": traj.bath.channels,
    })
    _check(out, "norm_drift", traj.norm_drift, traj.norm_drift <= 1e-8)
    energy = traj.port1[-1] + traj.port2[-1] + traj.cavity1[-1] + traj.mode2[-1]
    _check(out, "energy_sum", energy, abs(energy - 1.0) <= 1e-6)
    _check(out, "cavity_residual", traj.cavity1[-1] + traj.mode2[-1],
           traj.cavity1[-1] + traj.mode2[-1] <= 1e-4)
    _check(out, "completeness", dec.completeness, abs(dec.completeness - 1.0) <= 1e-6)
    out.tables["timeseries.csv"] = {"t": traj.times, "port1": traj.port1, "cavity1": traj.cavity1,
                                    "mode2_atoms": traj.mode2, "port2": traj.port2}
    out.results = {
        "leakage": traj.port1[-1],
        "port2_yield": traj.port2[-1],
        "q_match_rel_err": q_err,
        "rho_out_match_rel_err": rho_err,
        "min_overlap": dec.min_overlap,
        "weighted_purity": dec.weighted_purity,
        "norm_drift": traj.norm_drift,
    }
    finite = bool(np.all(np.isfinite(list(out.results.values()))))
    _check(out, "results_finite", finite, finite)
    return out


def _port_invariants(outcome: RunOutcome, results, leakage, port2_yield) -> None:
    """Markov port results are finite and leakage plus port-2 yield is at most one photon."""
    finite = bool(np.all(np.isfinite(results)))
    _check(outcome, "results_finite", finite, finite)
    total = float(np.max(np.add(leakage, port2_yield)))
    # a nan total compares false, so it fails here too
    _check(outcome, "leakage_plus_yield", total, total <= 1.0 + 1e-6)


def _run_diode_markov(c: SimpleNamespace) -> RunOutcome:
    mk = dio.evolve_markov(c.gamma, c.gamma1, c.gamma2, c.pulse, c.t_final, c.dt)
    out = RunOutcome(derived={"t_final": c.t_final, "dt": c.dt})
    out.results = {
        "leakage": mk.leakage,
        "port2_yield": mk.yield_convolved,
        "yield_factorized": mk.yield_factorized,
    }
    _port_invariants(out, list(out.results.values()), mk.leakage, mk.yield_convolved)
    idx = [0] + sample_steps(mk.times.size - 1, c.stride)
    out.tables["timeseries.csv"] = {
        "t": mk.times[idx],
        "q_abs2": np.abs(mk.q[idx]) ** 2,
        "phi_out1_abs2": np.abs(mk.phi_out1[idx]) ** 2,
        "rho_out": mk.rho_out[idx],
        "phi_out2_abs2": np.abs(mk.phi_out2[idx]) ** 2,
    }
    return out


def _run_port2_reflection(c: SimpleNamespace) -> RunOutcome:
    ref = dio.reflect_port2(c.grid2, c.s0, c.t_final)
    cauchy = c.grid2.cavity.cauchy  # the comb's Cauchy products that the reflection ran
    out = RunOutcome(derived={"t_final": c.t_final, "gamma2": c.gamma2,
                              "secular_iterations": ref.secular_iterations,
                              "cauchy_fft_length": cauchy.size,
                              "cauchy_direct_roots": cauchy.direct.size})
    _check(out, "out_norm", ref.out_norm, abs(ref.out_norm - 1.0) <= 1e-8)
    out.tables["timeseries.csv"] = {"t": ref.times, "out_intensity": np.abs(ref.out_field) ** 2,
                                    "in_intensity": np.abs(ref.in_field) ** 2}
    out.results = {"out_norm": ref.out_norm, "delay": ref.delay}
    return out


def _run_impedance_scan(c: SimpleNamespace) -> RunOutcome:
    rows = dio.impedance_scan(c.gamma, c.gamma2, c.pulse, c.ratios, c.t_final, c.dt)
    out = RunOutcome(derived={"t_final": c.t_final})
    ratio, leakage, port2_yield = np.array(rows).T
    _port_invariants(out, rows, leakage, port2_yield)
    out.tables["summary.csv"] = {"gamma1_over_gamma": ratio, "leakage": leakage,
                                 "port2_yield": port2_yield}
    best = min(rows, key=lambda r: r[1])
    out.results = {"best_ratio": best[0], "min_leakage": best[1]}
    return out


# ---------------------------------------------------------------------------
# the kind table


@dataclass
class _Kind:
    build: Callable[[Scenario], SimpleNamespace]  # typed parse and every configuration check
    run: Callable[[SimpleNamespace], RunOutcome]  # sees only what build returned


_ZENO = _Kind(_build_zeno, _run_zeno_scan)

_KINDS: dict[str, _Kind] = {
    "LindbladTransfer": _Kind(_build_transfer, _run_lindblad_transfer),
    "PurificationMap": _Kind(_build_purification, _run_purification_map),
    "DarkState": _Kind(_build_dark_state, _run_dark_state),
    "MicroscopicDecay": _Kind(_build_decay, _run_microscopic_decay),
    "ZenoScan": _ZENO,
    "AntiZenoScan": _ZENO,
    "InterferenceExact": _Kind(_build_interference, _run_interference),
    "DiodeFull": _Kind(_build_diode_full, _run_diode_full),
    "DiodeMarkov": _Kind(_build_diode_markov, _run_diode_markov),
    "Port2Reflection": _Kind(_build_port2_reflection, _run_port2_reflection),
    "ImpedanceScan": _Kind(_build_impedance_scan, _run_impedance_scan),
}

KINDS = tuple(_KINDS)

# read by every kind's parse or by the command line, not by a build
_ALWAYS_ACCEPTED = {("scenario", "name"), ("scenario", "kind"), ("output", "dir")}


def validate_scenario(sc: Scenario) -> SimpleNamespace:
    """Build ``sc``, then reject every section and key the build did not read.

    The build parses every value and runs every configuration check a
    run would make; its result is what the kind's runner receives.
    """
    sc.looked_up.clear()  # only this build's lookups count
    inputs = _KINDS[sc.kind].build(sc)
    accepted = sc.looked_up | _ALWAYS_ACCEPTED
    known_sections = {section for section, _ in accepted}
    for section, kv in sc.sections.items():
        if section not in known_sections:
            raise _err(section, f"unknown section for kind {sc.kind}")
        for key in kv:
            if (section, key) not in accepted:
                raise _err(f"{section}.{key}", f"unknown key for kind {sc.kind}")
    return inputs


# ---------------------------------------------------------------------------
# outputs


def _write_csv(path: Path, table: dict) -> None:
    """The column names as the header, then one row of floats per entry of the columns, each
    row formatted whole; columns of unequal length raise ValueError."""
    line = ",".join(["%.17g"] * len(table)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(table) + "\n")
        fh.writelines(line % row for row in zip(*table.values(), strict=True))


def _write_manifest(path: Path, sc: Scenario, outcome: RunOutcome, wall: float, files) -> None:
    """One ``[section]`` per block, one ``key = value`` line per entry, blank lines between."""
    failures = outcome.invariant_failures
    blocks = {
        "manifest": {"name": sc.name, "kind": sc.kind,
                     "status": "invariant-failure" if failures else "completed",
                     "wall_seconds": wall},
        "scenario": {f"{s}.{k}": v for s, kv in sc.sections.items() for k, v in kv.items()},
        "derived": outcome.derived,
        "results": outcome.results,
        "invariants": {**outcome.invariants, "failures": " ".join(failures) or "none",
                       "all_ok": not failures},
        "outputs": {"files": " ".join(files)},
    }
    path.write_text("\n".join(f"[{name}]\n" + "".join(f"{k} = {_fmt(v)}\n" for k, v in kv.items())
                              for name, kv in blocks.items()))


def run_scenario(sc: Scenario, outdir) -> RunOutcome:
    """Execute one scenario's build and write its outputs under ``outdir``.

    The manifest is written only when the run completes; invariant
    failures are recorded in it and then raised as InvariantViolation.
    """
    start = time.perf_counter()
    outcome = _KINDS[sc.kind].run(sc.inputs)
    wall = time.perf_counter() - start

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, table in outcome.tables.items():
        _write_csv(out / fname, table)
    _write_manifest(out / "manifest.ini", sc, outcome, wall, [*outcome.tables, "manifest.ini"])
    if outcome.invariant_failures:
        raise InvariantViolation(
            f"scenario {sc.name!r}: invariant checks failed: "
            + ", ".join(outcome.invariant_failures), outcome.results
        )
    return outcome


def _scan_point(args):
    value, sc, outdir = args
    try:
        return value, run_scenario(sc, outdir).results, None
    except InvariantViolation as exc:
        return value, exc.results, f"{Path(outdir).name} ({exc})"


def scan_scenario(sc: Scenario, axis: str, values, outdir, jobs: int = 1):
    """Run one scenario per axis value; return the ``(value, results)`` pairs.

    ``axis`` is ``section.key`` and must name a numeric scalar in the
    scenario.  At least one value is needed, and every point is built
    before any point runs, so a configuration error leaves nothing
    written; each worker runs the build it is sent.  ``scan_summary.csv``
    has the axis and the first point's result names as its header; rows
    appear in the order of ``values`` regardless of execution order, and
    each row is identical to an independent run of the modified scenario.
    Every point runs; the scan then raises InvariantViolation naming those that failed.
    """
    if "." not in axis:
        raise ScenarioError(f"axis must be 'section.key', got {axis!r}")
    section, key = axis.split(".", 1)
    if section not in sc.sections or key not in sc.sections.get(section, {}):
        raise ScenarioError(f"axis {axis}: no such key in the scenario")
    try:
        float(sc.sections[section][key])
    except ValueError:
        raise ScenarioError(f"axis {axis}: existing value is not a numeric scalar")
    values = [_as_float(axis, str(v)) for v in values]
    if not values:
        raise ScenarioError(f"axis {axis}: no scan values given")
    points = []
    for value in values:
        try:
            points.append(sc.with_override(section, key, _fmt(value)))
        except (ScenarioError, ConfigurationError, InvalidInput) as exc:
            raise ScenarioError(f"scan point {axis} = {_fmt(value)}: {exc}")

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(v, p, out / f"point_{i:03d}") for i, (v, p) in enumerate(zip(values, points))]
    # the default fork start method forks every worker up front
    jobs = max(1, min(jobs, len(tasks), os.cpu_count() or 1))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_scan_point, tasks))
    else:
        points = [_scan_point(t) for t in tasks]
    # the points differ only in one number, so they share the kind, the
    # spectrum and with them the result names
    rows = [(value, res) for value, res, _ in points]
    _write_csv(out / "scan_summary.csv",
               {axis: values, **{name: [res[name] for _, res in rows] for name in rows[0][1]}})
    failed = "; ".join(failure for _, _, failure in points if failure)
    if failed:
        raise InvariantViolation(f"scan over {axis}: {failed}; summary in "
                                 f"{out / 'scan_summary.csv'}")
    return rows
