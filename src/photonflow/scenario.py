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
    stride = 10

    [output]
    dir = out

Numbers are decimal literals (exponent notation allowed), lists are
whitespace separated, ``#`` starts a comment.  No expression evaluation.
Unknown sections or keys are rejected, and every validation message
names the offending ``section.key``.

Each run writes ``timeseries.csv`` and/or ``summary.csv`` plus a
``manifest.ini`` that echoes the scenario, lists derived quantities,
results, and the outcome of the physical invariant checks.  Outputs are
deterministic: fixed summation orders, floats serialized with 17
significant digits, so identical input files give byte-identical CSVs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import diode as dio
from . import fock, lindblad, reservoir
from .errors import InvalidInput, InvariantViolation, ScenarioError

__all__ = [
    "Scenario",
    "RunOutcome",
    "KINDS",
    "parse_scenario",
    "parse_scenario_text",
    "validate_scenario",
    "run_scenario",
    "scan_scenario",
    "summary_fields",
]

KINDS = (
    "LindbladTransfer",
    "PurificationMap",
    "DarkState",
    "MicroscopicDecay",
    "ZenoScan",
    "AntiZenoScan",
    "InterferenceExact",
    "DiodeFull",
    "DiodeMarkov",
    "Port2Reflection",
    "ImpedanceScan",
)


@dataclass
class Scenario:
    name: str
    kind: str
    sections: dict  # section -> {key -> raw string}

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
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
    kind = head["kind"]
    if kind not in KINDS:
        raise ScenarioError(f"scenario.kind: unknown kind {kind!r}; expected one of {KINDS}")
    sc = Scenario(name=head["name"], kind=kind, sections=sections)
    validate_scenario(sc)
    return sc


def parse_scenario(path) -> Scenario:
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    return parse_scenario_text(p.read_text())


def _err(path: str, msg: str) -> ScenarioError:
    return ScenarioError(f"{path}: {msg}")


def _need(sc: Scenario, section: str, key: str) -> str:
    val = sc.get(section, key)
    if val is None:
        raise _err(f"{section}.{key}", "required key is missing")
    return val


def _as_float(path: str, raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise _err(path, f"not a number: {raw!r}")
    if not math.isfinite(x):
        raise _err(path, f"not a finite number: {raw!r}")
    return x


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


def _positive(path: str, x: float) -> float:
    if x <= 0:
        raise _err(path, f"must be positive, got {x:g}")
    return x


# schema: kind -> {section: {key: required}}
_COMMON = {
    "scenario": {"name": True, "kind": True},
    "output": {"dir": False, "stride": False},
}


def _schema(kind: str) -> dict:
    s = {k: dict(v) for k, v in _COMMON.items()}
    if kind in ("LindbladTransfer", "PurificationMap", "DarkState"):
        s["space"] = {"dims": True}
        s["model"] = {"gamma": True}
        s["initial"] = {"state": True}
        s["run"] = {"t_final": kind != "PurificationMap", "dt": False}
    elif kind in ("MicroscopicDecay", "InterferenceExact"):
        s["reservoir"] = _RESERVOIR_KEYS.copy()
        s["run"] = {"t_final": True, "dt": False}
        if kind == "MicroscopicDecay":
            s["fit"] = {"window": False}
        else:
            s["initial"] = {"state": True}
    elif kind in ("ZenoScan", "AntiZenoScan"):
        s["reservoir"] = _RESERVOIR_KEYS.copy()
        s["zeno"] = {"taus": True, "n_measurements": False}
        s["run"] = {"t_final": True, "dt": False}
        s["fit"] = {"window": False}
    elif kind == "DiodeFull":
        s["reservoir"] = _RESERVOIR_KEYS.copy()
        s["diode"] = {"gamma1": True, "gamma2": True}
        s["grid1"] = {"n_q": True, "delta_max": True}
        s["grid2"] = {"n_q": True, "delta_max": True}
        s["pulse"] = _PULSE_KEYS.copy()
        s["run"] = {"t_final": False, "dt": False}
    elif kind == "DiodeMarkov":
        s["diode"] = {"gamma": True, "gamma1": True, "gamma2": True}
        s["pulse"] = _PULSE_KEYS.copy()
        s["run"] = {"t_final": False, "dt": False}
    elif kind == "Port2Reflection":
        s["diode"] = {"gamma2": True}
        s["grid2"] = {"n_q": True, "delta_max": True}
        s["pulse"] = _PULSE_KEYS.copy()
        s["run"] = {"t_final": False, "dt": False}
    elif kind == "ImpedanceScan":
        s["diode"] = {"gamma": True, "gamma2": True}
        s["scan"] = {"ratios": True}
        s["pulse"] = _PULSE_KEYS.copy()
        s["run"] = {"t_final": False, "dt": False}
    return s


_RESERVOIR_KEYS = {
    "f": True,
    "eps_max": True,
    "spectrum": False,
    "coupling": False,
    "target_gamma": False,
    "center": False,
    "width": False,
    "omegas": False,
}

_PULSE_KEYS = {
    "kind": False,
    "duration": True,
    "t0": False,
}


def validate_scenario(sc: Scenario) -> None:
    """Structural validation plus re-checks of module preconditions."""
    schema = _schema(sc.kind)
    for section, kv in sc.sections.items():
        if section not in schema:
            raise _err(section, f"unknown section for kind {sc.kind}")
        for key in kv:
            if key not in schema[section]:
                raise _err(f"{section}.{key}", f"unknown key for kind {sc.kind}")
    for section, keys in schema.items():
        for key, required in keys.items():
            if required and sc.get(section, key) is None:
                raise _err(f"{section}.{key}", "required key is missing")
    # value-level checks go through the builders
    _stride(sc)
    if sc.kind in ("LindbladTransfer", "PurificationMap", "DarkState"):
        _build_lindblad_inputs(sc)
    elif sc.kind in ("MicroscopicDecay", "ZenoScan", "AntiZenoScan", "InterferenceExact"):
        _, t_final, _ = _build_reservoir_run(sc)
        if sc.kind in ("ZenoScan", "AntiZenoScan"):
            _build_zeno(sc)
        if sc.kind == "InterferenceExact":
            _interference_state(sc)
        else:
            _fit_window(sc, t_final)
    elif sc.kind in ("DiodeFull", "DiodeMarkov", "Port2Reflection", "ImpedanceScan"):
        _build_diode_inputs(sc)


# ---------------------------------------------------------------------------
# typed builders (shared between validation and execution)


def _build_lindblad_inputs(sc: Scenario):
    dims = _int_list("space.dims", _need(sc, "space", "dims"))
    if sc.kind == "DarkState" and len(dims) != 3:
        raise _err("space.dims", "DarkState needs exactly three modes (two upper, one target)")
    if sc.kind in ("LindbladTransfer", "PurificationMap") and len(dims) != 2:
        raise _err("space.dims", f"{sc.kind} needs exactly two modes")
    try:
        space = fock.ModeSpace(dims)
    except InvalidInput as exc:
        raise _err("space.dims", str(exc))
    gamma = _positive("model.gamma", _as_float("model.gamma", _need(sc, "model", "gamma")))

    raw_state = _need(sc, "initial", "state")
    toks = raw_state.split()
    if sc.kind == "DarkState":
        if raw_state not in ("dark", "bright"):
            raise _err("initial.state", f"expected dark|bright, got {raw_state!r}")
        sign = -1.0 if raw_state == "dark" else 1.0
        v = fock.fock_state(space, (0, 1, 0)) + sign * fock.fock_state(space, (1, 0, 0))
        rho0 = fock.DensityMatrix.from_state_vector(space, v / np.sqrt(2.0))
    elif toks[0] == "fock":
        occ = [_as_int("initial.state", t) for t in toks[1:]]
        if len(occ) != space.n_modes:
            raise _err("initial.state", f"fock needs {space.n_modes} occupation numbers")
        try:
            rho0 = fock.fock_density(space, occ)
        except InvalidInput as exc:
            raise _err("initial.state", str(exc))
    elif toks[0] == "mixed":
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
        try:
            rho0 = fock.mixed_fock_density(space, weights)
        except InvalidInput as exc:
            raise _err("initial.state", str(exc))
    else:
        raise _err("initial.state", f"expected 'fock ...' or 'mixed ...', got {raw_state!r}")

    raw_tf = sc.get("run", "t_final")
    t_final = (
        _positive("run.t_final", _as_float("run.t_final", raw_tf))
        if raw_tf is not None
        else 30.0 / gamma
    )
    dt = _optional_dt(sc)
    if sc.kind == "DarkState":
        jump = lindblad.interference_transfer_jump(space, (0, 1), 2)
    else:
        jump = lindblad.transfer_jump(space, 0, 1)
    model = lindblad.LindbladModel(space, [(jump, gamma)])
    if dt is not None and dt > lindblad.stability_limit(model) + 1e-15:
        raise _err(
            "run.dt",
            f"dt * gamma * n_max^2 = {dt * gamma * (max(dims) - 1) ** 2:.3g} "
            "exceeds the stability guard 0.1",
        )
    return space, model, rho0, gamma, t_final, dt


def _build_reservoir(sc: Scenario) -> reservoir.ReservoirSpec:
    f = _as_int("reservoir.f", _need(sc, "reservoir", "f"))
    if f < 1:
        raise _err("reservoir.f", f"need at least one spectral class, got {f}")
    eps_max = _positive("reservoir.eps_max", _as_float("reservoir.eps_max", _need(sc, "reservoir", "eps_max")))
    spectrum = sc.get("reservoir", "spectrum", "equidistant")
    if spectrum not in reservoir.SPECTRA:
        raise _err("reservoir.spectrum", f"expected one of {reservoir.SPECTRA}, got {spectrum!r}")
    kwargs: dict = {}
    if spectrum == "lorentzian":
        kwargs["center"] = _as_float("reservoir.center", _need(sc, "reservoir", "center"))
        kwargs["width"] = _positive("reservoir.width", _as_float("reservoir.width", _need(sc, "reservoir", "width")))
    if spectrum == "custom":
        kwargs["omegas"] = tuple(_float_list("reservoir.omegas", _need(sc, "reservoir", "omegas")))

    raw_coupling = sc.get("reservoir", "coupling")
    raw_target = sc.get("reservoir", "target_gamma")
    if raw_coupling is None and raw_target is None:
        raise _err("reservoir.coupling", "give either coupling or target_gamma")
    if raw_coupling is not None and raw_target is not None:
        raise _err("reservoir.coupling", "coupling and target_gamma are mutually exclusive")
    if raw_coupling is not None:
        coupling = _as_float("reservoir.coupling", raw_coupling)
        _positive("reservoir.coupling", coupling)
    else:
        target = _positive("reservoir.target_gamma", _as_float("reservoir.target_gamma", raw_target))
        if sc.kind == "DiodeFull":
            gamma2 = _positive("diode.gamma2", _as_float("diode.gamma2", _need(sc, "diode", "gamma2")))
            coupling = dio.coupling_for_diode_rate(f, eps_max, gamma2, target, spectrum, **kwargs)
        else:
            if spectrum != "equidistant":
                raise _err("reservoir.target_gamma", "rate inversion needs the equidistant spectrum")
            coupling = reservoir.coupling_for_rate(f, eps_max, target)
    try:
        return reservoir.ReservoirSpec(
            f=f, eps_max=eps_max, coupling=coupling, spectrum=spectrum, **kwargs
        )
    except InvalidInput as exc:
        raise _err("reservoir", str(exc))


def _optional_dt(sc: Scenario) -> Optional[float]:
    raw = sc.get("run", "dt")
    return _positive("run.dt", _as_float("run.dt", raw)) if raw is not None else None


def _build_reservoir_run(sc: Scenario):
    """Reservoir, run.t_final and run.dt (the sampling interval) of a reservoir kind."""
    spec = _build_reservoir(sc)
    t_final = _positive("run.t_final", _as_float("run.t_final", _need(sc, "run", "t_final")))
    return spec, t_final, _optional_dt(sc)


def _fit_window(sc: Scenario, t_final: float) -> tuple[float, float]:
    raw = sc.get("fit", "window")
    if raw is None:
        return (0.1 * t_final, t_final)
    w = _float_list("fit.window", raw)
    if len(w) != 2 or w[0] >= w[1]:
        raise _err("fit.window", "window is 't_a t_b' with t_a < t_b")
    return (w[0], w[1])


def _build_zeno(sc: Scenario) -> tuple[list, int]:
    taus = [_positive("zeno.taus", t) for t in _float_list("zeno.taus", _need(sc, "zeno", "taus"))]
    raw_n = sc.get("zeno", "n_measurements")
    n_meas = _as_int("zeno.n_measurements", raw_n) if raw_n is not None else 60
    if n_meas < 10:
        raise _err("zeno.n_measurements", f"need at least 10 measurements, got {n_meas}")
    return taus, n_meas


_INTERFERENCE_STATES = {
    "antisymmetric": reservoir.TwoUpperModeState.antisymmetric,
    "symmetric": reservoir.TwoUpperModeState.symmetric,
    "single": reservoir.TwoUpperModeState.single,
}


def _interference_state(sc: Scenario) -> str:
    name = _need(sc, "initial", "state")
    if name not in _INTERFERENCE_STATES:
        raise _err("initial.state", f"expected antisymmetric|symmetric|single, got {name!r}")
    return name


def _build_pulse(sc: Scenario) -> dio.Pulse:
    kind = sc.get("pulse", "kind", "gaussian")
    if kind != "gaussian":
        raise _err("pulse.kind", f"scenario files support gaussian pulses, got {kind!r}")
    duration = _positive("pulse.duration", _as_float("pulse.duration", _need(sc, "pulse", "duration")))
    raw_t0 = sc.get("pulse", "t0")
    t0 = _as_float("pulse.t0", raw_t0) if raw_t0 is not None else 3.0 * duration
    return dio.gaussian_pulse(t0=t0, duration=duration)


def _build_grid(sc: Scenario, section: str, gamma: float) -> dio.ContinuumGrid:
    n_q = _as_int(f"{section}.n_q", _need(sc, section, "n_q"))
    delta_max = _positive(
        f"{section}.delta_max", _as_float(f"{section}.delta_max", _need(sc, section, "delta_max"))
    )
    try:
        return dio.ContinuumGrid(n_q=n_q, delta_max=delta_max, gamma=gamma)
    except InvalidInput as exc:
        raise _err(section, str(exc))


def _build_diode_inputs(sc: Scenario):
    pulse = _build_pulse(sc)
    dt = _optional_dt(sc)

    if sc.kind == "DiodeMarkov":
        gamma = _positive("diode.gamma", _as_float("diode.gamma", _need(sc, "diode", "gamma")))
        gamma1 = _positive("diode.gamma1", _as_float("diode.gamma1", _need(sc, "diode", "gamma1")))
        gamma2 = _positive("diode.gamma2", _as_float("diode.gamma2", _need(sc, "diode", "gamma2")))
        t_final = _run_window(sc, pulse, gamma, gamma1, gamma2)
        return {"gamma": gamma, "gamma1": gamma1, "gamma2": gamma2, "pulse": pulse,
                "t_final": t_final, "dt": dt if dt is not None else 0.02}

    if sc.kind == "ImpedanceScan":
        gamma = _positive("diode.gamma", _as_float("diode.gamma", _need(sc, "diode", "gamma")))
        gamma2 = _positive("diode.gamma2", _as_float("diode.gamma2", _need(sc, "diode", "gamma2")))
        ratios = _float_list("scan.ratios", _need(sc, "scan", "ratios"))
        for r in ratios:
            _positive("scan.ratios", r)
        t_final = _run_window(sc, pulse, gamma, gamma2)
        return {"gamma": gamma, "gamma2": gamma2, "ratios": ratios, "pulse": pulse,
                "t_final": t_final, "dt": dt if dt is not None else 0.02}

    if sc.kind == "Port2Reflection":
        gamma2 = _positive("diode.gamma2", _as_float("diode.gamma2", _need(sc, "diode", "gamma2")))
        grid2 = _build_grid(sc, "grid2", gamma2)
        t_final = _run_window(sc, pulse, gamma2)
        _precheck_grid(sc, "grid2", grid2, pulse, t_final)
        return {"gamma2": gamma2, "grid2": grid2, "pulse": pulse, "t_final": t_final, "dt": dt}

    # DiodeFull
    gamma1 = _positive("diode.gamma1", _as_float("diode.gamma1", _need(sc, "diode", "gamma1")))
    gamma2 = _positive("diode.gamma2", _as_float("diode.gamma2", _need(sc, "diode", "gamma2")))
    spec = _build_reservoir(sc)
    gamma_eff = dio.loaded_transfer_rate(spec, gamma2)
    grid1 = _build_grid(sc, "grid1", gamma1)
    grid2 = _build_grid(sc, "grid2", gamma2)
    t_final = _run_window(sc, pulse, gamma_eff, gamma1, gamma2)
    _precheck_grid(sc, "grid1", grid1, pulse, t_final)
    _precheck_grid(sc, "grid2", grid2, pulse, t_final)
    return {"spec": spec, "gamma_eff": gamma_eff, "gamma1": gamma1, "gamma2": gamma2,
            "grid1": grid1, "grid2": grid2, "pulse": pulse, "t_final": t_final, "dt": dt}


def _run_window(sc: Scenario, pulse: dio.Pulse, *rates: float) -> float:
    raw = sc.get("run", "t_final")
    if raw is not None:
        return _positive("run.t_final", _as_float("run.t_final", raw))
    return dio.simulation_window(pulse, *rates)


def _precheck_grid(sc, section, grid, pulse, t_final):
    if pulse.bandwidth > grid.delta_max / 5.0:
        raise _err(
            f"{section}.delta_max",
            f"pulse bandwidth {pulse.bandwidth:.3g} exceeds delta_max/5 = "
            f"{grid.delta_max / 5.0:.3g} (pulse spectrum must fit the grid)",
        )
    if grid.recurrence_time <= t_final:
        raise _err(
            f"{section}.n_q",
            f"comb recurrence {grid.recurrence_time:.4g} is inside the simulation "
            f"window {t_final:.4g}; increase n_q or decrease delta_max",
        )


# ---------------------------------------------------------------------------
# execution


@dataclass
class RunOutcome:
    derived: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    invariant_failures: list = field(default_factory=list)
    csv_files: list = field(default_factory=list)  # (filename, header, rows)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _stride(sc: Scenario, default: int = 10) -> int:
    raw = sc.get("output", "stride")
    if raw is None:
        return default
    n = _as_int("output.stride", raw)
    if n < 1:
        raise _err("output.stride", f"stride must be >= 1, got {n}")
    return n


def _check(outcome: RunOutcome, name: str, value: float, ok: bool) -> None:
    outcome.invariants[name] = value
    if not ok:
        outcome.invariant_failures.append(name)


def _lindblad_invariants(outcome: RunOutcome, res: lindblad.EvolutionResult) -> None:
    _check(outcome, "trace_drift", res.trace_drift, res.trace_drift <= 1e-8)
    min_eig = min(dm.min_eigenvalue() for dm in res.states)
    _check(outcome, "min_eigenvalue", min_eig, min_eig >= -1e-8)
    herm = max(dm.hermiticity_defect() for dm in res.states)
    _check(outcome, "hermiticity_defect", herm, herm <= 1e-12)


def _run_lindblad_transfer(sc: Scenario) -> RunOutcome:
    space, model, rho0, gamma, t_final, dt = _build_lindblad_inputs(sc)
    res = lindblad.evolve(model, rho0, t_final, dt=dt, snapshot_stride=_stride(sc))
    out = RunOutcome()
    out.derived = {"gamma": gamma, "total_dim": space.total_dim}
    _lindblad_invariants(out, res)
    header = ["t", "pop_mode1", "pop_mode2", "purity", "trace"]
    rows = zip(
        res.times,
        res.observables["pop_mode1"],
        res.observables["pop_mode2"],
        res.observables["purity"],
        res.observables["trace"],
    )
    out.csv_files.append(("timeseries.csv", header, rows))
    out.results = {
        "pop_mode1_final": res.observables["pop_mode1"][-1],
        "pop_mode2_final": res.observables["pop_mode2"][-1],
        "purity_final": res.observables["purity"][-1],
    }
    return out


def _run_purification_map(sc: Scenario) -> RunOutcome:
    space, model, rho0, gamma, t_final, dt = _build_lindblad_inputs(sc)
    res = lindblad.evolve(model, rho0, t_final, dt=dt, snapshot_stride=_stride(sc))
    report = lindblad.purification_predicate(rho0)
    dist = fock.trace_distance(res.states[-1], report.final_state)
    out = RunOutcome()
    out.derived = {"gamma": gamma, "total_dim": space.total_dim}
    if report.witness is not None:
        out.derived["witness_abs"] = " ".join(_fmt(a) for a in np.abs(report.witness))
    _lindblad_invariants(out, res)
    _check(out, "evolve_vs_map_distance", dist, dist <= 1e-4)
    header = ["t", "pop_mode1", "pop_mode2", "purity", "trace"]
    rows = zip(
        res.times,
        res.observables["pop_mode1"],
        res.observables["pop_mode2"],
        res.observables["purity"],
        res.observables["trace"],
    )
    out.csv_files.append(("timeseries.csv", header, rows))
    out.results = {
        "map_purity": report.purity,
        "pure": float(report.pure),
        "evolve_vs_map_distance": dist,
        "purity_final": res.observables["purity"][-1],
    }
    return out


def _run_dark_state(sc: Scenario) -> RunOutcome:
    space, model, rho0, gamma, t_final, dt = _build_lindblad_inputs(sc)
    res = lindblad.evolve(model, rho0, t_final, dt=dt, snapshot_stride=_stride(sc))
    # fidelity against the initial pure state
    vals, vecs = np.linalg.eigh(rho0.matrix)
    psi = vecs[:, -1]
    fid = np.array([np.real(psi.conj() @ dm.matrix @ psi) for dm in res.states])
    out = RunOutcome()
    out.derived = {"gamma": gamma}
    _lindblad_invariants(out, res)
    rate, residual = reservoir.fit_decay_rate(
        res.times, np.maximum(fid, 1e-300), (res.times[0], res.times[-1])
    )
    out.csv_files.append(("timeseries.csv", ["t", "fidelity"], zip(res.times, fid)))
    out.results = {
        "fidelity_final": fid[-1],
        "fidelity_min": float(fid.min()),
        "fitted_rate": rate,
        "fit_residual": residual,
    }
    return out


def _microscopic_invariants(outcome: RunOutcome, drift: float, t_final: float) -> None:
    bound = 1e-9 * max(1.0, t_final)
    _check(outcome, "norm_drift", drift, drift <= bound)


def _run_microscopic_decay(sc: Scenario) -> RunOutcome:
    spec, t_final, dt = _build_reservoir_run(sc)
    traj = reservoir.evolve_exact(spec, None, t_final=t_final, dt=dt, snapshot_stride=10**9)
    _, c0_f, c_f = traj.snapshots[-1]
    drift = abs(abs(c0_f) ** 2 + float(np.sum(np.abs(c_f) ** 2)) - 1.0)
    out = RunOutcome()
    out.derived = {
        "coupling": float(abs(spec.coupling)),
        "spectrum": spec.spectrum,
        "recurrence_time": (
            reservoir.recurrence_time(spec) if spec.spectrum == "equidistant" else float("nan")
        ),
    }
    gamma_markov = (
        reservoir.markov_rate(spec) if spec.spectrum == "equidistant" else float("nan")
    )
    gamma_fit, residual = reservoir.fit_decay_rate(
        traj.times, traj.survival, _fit_window(sc, t_final)
    )
    _microscopic_invariants(out, drift, t_final)
    stride = _stride(sc, 1)
    idx = np.arange(0, traj.times.size, stride)
    if idx[-1] != traj.times.size - 1:
        idx = np.append(idx, traj.times.size - 1)
    out.csv_files.append(
        ("timeseries.csv", ["t", "survival"], zip(traj.times[idx], traj.survival[idx]))
    )
    out.results = {
        "gamma_markov": gamma_markov,
        "gamma_fit": gamma_fit,
        "fit_residual": residual,
        "survival_final": traj.survival[-1],
    }
    return out


def _run_zeno_scan(sc: Scenario) -> RunOutcome:
    spec, t_final, dt = _build_reservoir_run(sc)
    taus, n_meas = _build_zeno(sc)

    free = reservoir.evolve_exact(spec, None, t_final=t_final, dt=dt)
    gamma_free, _ = reservoir.fit_decay_rate(free.times, free.survival, _fit_window(sc, t_final))

    results = reservoir.zeno_scan(spec, taus, n_measurements=n_meas, dt=dt)
    out = RunOutcome()
    out.derived = {"coupling": float(abs(spec.coupling)), "spectrum": spec.spectrum,
                   "n_measurements": n_meas}
    rows = []
    for i, r in enumerate(results):
        rows.append((r.tau_m, r.gamma_eff, r.gamma_eff / gamma_free, r.fit_residual))
        nonneg = r.gamma_eff >= 0.0
        _check(out, f"gamma_eff_nonnegative_{i}", r.gamma_eff, nonneg)
        s = r.survival
        _check(out, f"survival_monotone_{i}", float(np.max(np.diff(s))), bool(np.all(np.diff(s) <= 1e-12)))
    # rate non-increasing as the measurement period shrinks
    ordered = sorted(results, key=lambda r: -r.tau_m)
    monotone = all(
        ordered[i].gamma_eff >= ordered[i + 1].gamma_eff - 1e-12
        for i in range(len(ordered) - 1)
    )
    out.csv_files.append(
        ("summary.csv", ["tau_m", "gamma_eff", "ratio_to_free", "fit_residual"], rows)
    )
    ratios = [r.gamma_eff / gamma_free for r in results]
    out.results = {
        "gamma_free": gamma_free,
        "gamma_eff_min": min(r.gamma_eff for r in results),
        "gamma_eff_max": max(r.gamma_eff for r in results),
        "max_ratio_to_free": max(ratios),
        "monotone_in_tau": float(monotone),
    }
    return out


def _run_interference(sc: Scenario) -> RunOutcome:
    spec, t_final, dt = _build_reservoir_run(sc)
    name = _interference_state(sc)
    state0 = _INTERFERENCE_STATES[name](spec.f)
    traj = reservoir.interference_evolve(spec, state0, t_final, dt=dt)
    surv = traj.survival
    out = RunOutcome()
    out.derived = {"coupling": float(abs(spec.coupling)), "initial": name}
    stride = _stride(sc, 1)
    idx = np.arange(0, traj.times.size, stride)
    if idx[-1] != traj.times.size - 1:
        idx = np.append(idx, traj.times.size - 1)
    out.csv_files.append(
        (
            "timeseries.csv",
            ["t", "survival_total", "pop_a", "pop_b"],
            zip(
                traj.times[idx],
                surv[idx],
                np.abs(traj.c0[idx]) ** 2,
                np.abs(traj.c0p[idx]) ** 2,
            ),
        )
    )
    out.results = {"survival_final": surv[-1], "survival_min": float(surv.min())}
    return out


def _run_diode_full(sc: Scenario) -> RunOutcome:
    cfg = _build_diode_inputs(sc)
    spec, gamma_eff = cfg["spec"], cfg["gamma_eff"]
    gamma1, gamma2 = cfg["gamma1"], cfg["gamma2"]
    grid1, grid2, pulse, t_final = cfg["grid1"], cfg["grid2"], cfg["pulse"], cfg["t_final"]
    p0 = dio.project_pulse(grid1, pulse)
    traj = dio.evolve_full(grid1, grid2, spec, p0, t_final, dt=cfg["dt"])
    mk = dio.evolve_markov(gamma_eff, gamma1, gamma2, pulse, t_final, dt=0.02)
    dec = dio.port2_output_decomposition(traj)

    qf = traj.q_abs2
    qm = np.interp(traj.q_times, mk.times, np.abs(mk.q) ** 2)
    # floor excludes the turn-on transient of the hard t=0 start
    floor = 1e-3 * qm.max()
    mask = qm > floor
    q_err = float(np.max(np.abs(qf[mask] - qm[mask]) / qm[mask]))
    rho_m = np.interp(dec.times, mk.times, mk.rho_out)
    rmask = rho_m > 0.01 * rho_m.max()
    rho_err = float(np.max(np.abs(dec.rho_out[rmask] - rho_m[rmask]) / rho_m[rmask]))

    out = RunOutcome()
    out.derived = {
        "coupling": float(abs(spec.coupling)),
        "gamma_effective": gamma_eff,
        "kappa1": grid1.kappa,
        "kappa2": grid2.kappa,
        "t_final": t_final,
    }
    _check(out, "norm_drift", traj.norm_drift, traj.norm_drift <= 1e-8)
    energy = traj.port1[-1] + traj.port2[-1] + traj.cavity1[-1] + traj.mode2[-1]
    _check(out, "energy_sum", energy, abs(energy - 1.0) <= 1e-6)
    _check(out, "cavity_residual", traj.cavity1[-1] + traj.mode2[-1],
           traj.cavity1[-1] + traj.mode2[-1] <= 1e-4)
    _check(out, "completeness", dec.completeness, abs(dec.completeness - 1.0) <= 1e-6)
    out.csv_files.append(
        (
            "timeseries.csv",
            ["t", "port1", "cavity1", "mode2_atoms", "port2"],
            zip(traj.times, traj.port1, traj.cavity1, traj.mode2, traj.port2),
        )
    )
    out.results = {
        "leakage": traj.port1[-1],
        "port2_yield": traj.port2[-1],
        "q_match_rel_err": q_err,
        "rho_out_match_rel_err": rho_err,
        "min_overlap": dec.min_overlap,
        "weighted_purity": dec.weighted_purity,
        "norm_drift": traj.norm_drift,
    }
    return out


def _port_invariants(outcome: RunOutcome, results, leakage, port2_yield) -> None:
    """Markov port results are finite and leakage plus port-2 yield is at most one photon."""
    finite = bool(np.all(np.isfinite(results)))
    _check(outcome, "results_finite", finite, finite)
    total = float(np.max(np.add(leakage, port2_yield)))
    # a nan total compares false, so it fails here too
    _check(outcome, "leakage_plus_yield", total, total <= 1.0 + 1e-6)


def _run_diode_markov(sc: Scenario) -> RunOutcome:
    cfg = _build_diode_inputs(sc)
    mk = dio.evolve_markov(
        cfg["gamma"], cfg["gamma1"], cfg["gamma2"], cfg["pulse"], cfg["t_final"], cfg["dt"]
    )
    out = RunOutcome()
    out.derived = {"t_final": cfg["t_final"], "dt": cfg["dt"]}
    out.results = {
        "leakage": mk.leakage,
        "port2_yield": mk.yield_convolved,
        "yield_factorized": mk.yield_factorized,
    }
    _port_invariants(out, list(out.results.values()), mk.leakage, mk.yield_convolved)
    stride = _stride(sc, 1)
    idx = np.arange(0, mk.times.size, stride)
    if idx[-1] != mk.times.size - 1:
        idx = np.append(idx, mk.times.size - 1)
    out.csv_files.append(
        (
            "timeseries.csv",
            ["t", "q_abs2", "phi_out1_abs2", "rho_out", "phi_out2_abs2"],
            zip(
                mk.times[idx],
                np.abs(mk.q[idx]) ** 2,
                np.abs(mk.phi_out1[idx]) ** 2,
                mk.rho_out[idx],
                np.abs(mk.phi_out2[idx]) ** 2,
            ),
        )
    )
    return out


def _run_port2_reflection(sc: Scenario) -> RunOutcome:
    cfg = _build_diode_inputs(sc)
    ref = dio.reflect_port2(cfg["grid2"], cfg["pulse"], cfg["gamma2"], cfg["t_final"], cfg["dt"])
    out = RunOutcome()
    out.derived = {"t_final": cfg["t_final"], "gamma2": cfg["gamma2"]}
    _check(out, "out_norm", ref.out_norm, abs(ref.out_norm - 1.0) <= 1e-8)
    out.csv_files.append(
        (
            "timeseries.csv",
            ["t", "out_intensity", "in_intensity"],
            zip(ref.times, np.abs(ref.out_field) ** 2, np.abs(ref.in_field) ** 2),
        )
    )
    out.results = {"out_norm": ref.out_norm, "delay": ref.delay}
    return out


def _run_impedance_scan(sc: Scenario) -> RunOutcome:
    cfg = _build_diode_inputs(sc)
    rows = dio.impedance_scan(
        cfg["gamma"], cfg["gamma2"], cfg["pulse"], cfg["ratios"], cfg["t_final"], cfg["dt"]
    )
    out = RunOutcome()
    out.derived = {"t_final": cfg["t_final"]}
    table = np.array(rows)
    _port_invariants(out, table, table[:, 1], table[:, 2])
    out.csv_files.append(
        ("summary.csv", ["gamma1_over_gamma", "leakage", "port2_yield"], rows)
    )
    best = min(rows, key=lambda r: r[1])
    out.results = {"best_ratio": best[0], "min_leakage": best[1]}
    return out


_RUNNERS: dict[str, Callable[[Scenario], RunOutcome]] = {
    "LindbladTransfer": _run_lindblad_transfer,
    "PurificationMap": _run_purification_map,
    "DarkState": _run_dark_state,
    "MicroscopicDecay": _run_microscopic_decay,
    "ZenoScan": _run_zeno_scan,
    "AntiZenoScan": _run_zeno_scan,
    "InterferenceExact": _run_interference,
    "DiodeFull": _run_diode_full,
    "DiodeMarkov": _run_diode_markov,
    "Port2Reflection": _run_port2_reflection,
    "ImpedanceScan": _run_impedance_scan,
}

_SUMMARY_FIELDS: dict[str, tuple] = {
    "LindbladTransfer": ("pop_mode1_final", "pop_mode2_final", "purity_final"),
    "PurificationMap": ("map_purity", "pure", "evolve_vs_map_distance", "purity_final"),
    "DarkState": ("fidelity_final", "fidelity_min", "fitted_rate", "fit_residual"),
    "MicroscopicDecay": ("gamma_markov", "gamma_fit", "fit_residual", "survival_final"),
    "ZenoScan": ("gamma_free", "gamma_eff_min", "gamma_eff_max", "max_ratio_to_free", "monotone_in_tau"),
    "AntiZenoScan": ("gamma_free", "gamma_eff_min", "gamma_eff_max", "max_ratio_to_free", "monotone_in_tau"),
    "InterferenceExact": ("survival_final", "survival_min"),
    "DiodeFull": ("leakage", "port2_yield", "q_match_rel_err", "rho_out_match_rel_err",
                  "min_overlap", "weighted_purity", "norm_drift"),
    "DiodeMarkov": ("leakage", "port2_yield", "yield_factorized"),
    "Port2Reflection": ("out_norm", "delay"),
    "ImpedanceScan": ("best_ratio", "min_leakage"),
}


def summary_fields(kind: str) -> tuple:
    return _SUMMARY_FIELDS[kind]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_manifest(path: Path, sc: Scenario, outcome: RunOutcome, wall: float, files) -> None:
    lines = ["[manifest]"]
    lines.append(f"name = {sc.name}")
    lines.append(f"kind = {sc.kind}")
    lines.append(f"status = {'invariant-failure' if outcome.invariant_failures else 'completed'}")
    lines.append(f"wall_seconds = {_fmt(wall)}")
    lines.append("")
    lines.append("[scenario]")
    for section, kv in sc.sections.items():
        for key, val in kv.items():
            lines.append(f"{section}.{key} = {val}")
    lines.append("")
    lines.append("[derived]")
    for k, v in outcome.derived.items():
        lines.append(f"{k} = {_fmt(v)}")
    lines.append("")
    lines.append("[results]")
    for k, v in outcome.results.items():
        lines.append(f"{k} = {_fmt(v)}")
    lines.append("")
    lines.append("[invariants]")
    for k, v in outcome.invariants.items():
        lines.append(f"{k} = {_fmt(v)}")
    lines.append(f"failures = {' '.join(outcome.invariant_failures) if outcome.invariant_failures else 'none'}")
    lines.append(f"all_ok = {'false' if outcome.invariant_failures else 'true'}")
    lines.append("")
    lines.append("[outputs]")
    lines.append(f"files = {' '.join(files)}")
    path.write_text("\n".join(lines) + "\n")


def run_scenario(sc: Scenario, outdir) -> RunOutcome:
    """Execute one scenario and write its outputs under ``outdir``.

    The manifest is written only when the run completes; invariant
    failures are recorded in it and then raised as InvariantViolation.
    """
    start = time.perf_counter()
    outcome = _RUNNERS[sc.kind](sc)
    wall = time.perf_counter() - start

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for fname, header, rows in outcome.csv_files:
        _write_csv(out / fname, header, rows)
        files.append(fname)
    _write_manifest(out / "manifest.ini", sc, outcome, wall, files + ["manifest.ini"])
    if outcome.invariant_failures:
        raise InvariantViolation(
            f"scenario {sc.name!r}: invariant checks failed: "
            + ", ".join(outcome.invariant_failures)
        )
    return outcome


def _scan_point(args):
    sc, section, key, value, outdir = args
    mod = sc.with_override(section, key, _fmt(value))
    mod = Scenario(mod.name, mod.kind, mod.sections)
    validate_scenario(mod)
    outcome = run_scenario(mod, outdir)
    return [value] + [outcome.results[f] for f in summary_fields(sc.kind)]


def scan_scenario(sc: Scenario, axis: str, values, outdir, jobs: int = 1):
    """Run one scenario per axis value, collecting a fixed-order summary.

    ``axis`` is ``section.key`` and must name a numeric scalar in the
    scenario.  Rows appear in the order of ``values`` regardless of
    execution order, and each row is identical to an independent run of
    the modified scenario.
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

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [
        (sc, section, key, v, out / f"point_{i:03d}") for i, v in enumerate(values)
    ]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_point, tasks))
    else:
        rows = [_scan_point(t) for t in tasks]
    header = [axis] + list(summary_fields(sc.kind))
    _write_csv(out / "scan_summary.csv", header, rows)
    return rows
