"""Seeded scenario files for the three benchmark workloads.

Each workload is a list of photonflow CLI calls (``run`` or ``scan``) over
scenario files generated here.  The seed draws only physical values from
fixed ranges: rates, the Fock mixture of the initial state, the pulse
centre, the Zeno periods.  State sizes, grids, time windows and step
counts do not depend on it, so every seed does the same amount of work.
The rate hierarchy ``1/T << gamma1 = gamma << gamma2`` of the production
scenarios holds for every draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

SCAN_JOBS = 2


@dataclass(frozen=True)
class Step:
    """One CLI call of a workload over one generated scenario file."""

    name: str  # scenario name, also the file stem and output directory
    kind: str
    text: str
    axis: str | None = None  # set for a scan
    values: tuple = ()
    expect: dict = field(default_factory=dict)  # reference values for the oracle

    @property
    def filename(self) -> str:
        return f"{self.name}.ini"

    @property
    def is_scan(self) -> bool:
        return self.axis is not None

    def result_dir(self, out_dir):
        return out_dir / (self.name + "_scan" if self.is_scan else self.name)

    def argv(self, scenario_dir, out_dir) -> list:
        path = str(scenario_dir / self.filename)
        if not self.is_scan:
            return ["run", path, "--out", str(out_dir)]
        return ["scan", path, "--axis", self.axis, "--values", ",".join(self.values),
                "--out", str(out_dir), "--jobs", str(SCAN_JOBS)]


def _num(x: float) -> str:
    return f"{x:.6f}"


def _scenario(name: str, kind: str, sections: dict) -> str:
    lines = ["[scenario]", f"name = {name}", f"kind = {kind}"]
    for section, keys in sections.items():
        lines.append("")
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def _step(name, kind, sections, **kw) -> Step:
    return Step(name=name, kind=kind, text=_scenario(name, kind, sections), **kw)


# --- router: the four-port diode and the port-2 reflection ------------------


def router(rng: random.Random) -> list[Step]:
    # Each t_final covers t0 + 5T + 10/(slowest rate) for every draw and stays
    # inside the comb recurrence pi n_q / delta_max (167.6 for both grids).
    # Pulse centres at or after 3.2 T keep DiodeFull's q_match_rel_err
    # (hard turn-on at t = 0) below 0.04 against the 0.05 oracle.
    gamma = rng.uniform(0.95, 1.05)
    gamma1 = gamma * rng.uniform(0.97, 1.03)
    gamma2 = rng.uniform(19.0, 21.0)
    full = _step("router-diode-full", "DiodeFull", {
        "reservoir": {"f": 80, "eps_max": 0.0005, "target_gamma": _num(gamma)},
        "diode": {"gamma1": _num(gamma1), "gamma2": _num(gamma2)},
        "grid1": {"n_q": 160, "delta_max": 3.0},
        "grid2": {"n_q": 160, "delta_max": 3.0},
        "pulse": {"duration": 15.0, "t0": _num(rng.uniform(48.0, 52.0))},
        "run": {"t_final": 142.0, "dt": 0.02},
    })
    reflection = _step("router-port2-reflection", "Port2Reflection", {
        "diode": {"gamma2": _num(gamma2)},
        "grid2": {"n_q": 2400, "delta_max": 45.0},
        "pulse": {"duration": 10.0, "t0": _num(rng.uniform(32.0, 35.0))},
        "run": {"t_final": 86.0},
    }, expect={"gamma2": float(_num(gamma2))})
    return [full, reflection]


# --- open_system: master equation and microscopic reservoir -----------------

# RK4 step of the reservoir level (its default 0.02/eps_max at eps_max = 50)
# and the Zeno periods as whole numbers of that step
_RES_DT = 0.0004
_ZENO_STEPS = (50, 25, 10, 5, 3)


def _fock_mixture(rng: random.Random, d1: int, d2: int) -> str:
    """Random Fock-diagonal mixture inside the mode-2 truncation."""
    parts = []
    for n in range(d1):
        for m in range(d2):
            if n + m <= d2 - 1 and rng.random() < 0.7:
                parts.append(f"{_num(rng.uniform(0.05, 1.0))} {n} {m}")
    if not parts:
        parts.append("1.0 0 0")
    return "mixed " + " ; ".join(parts)


def _zeno_taus(rng: random.Random) -> str:
    # each period stays inside ((k - 1) dt, k dt], so the step count is fixed
    return " ".join(_num((k - rng.uniform(0.0, 0.5)) * _RES_DT) for k in _ZENO_STEPS)


def _comb(target_gamma: float) -> dict:
    return {"f": 400, "eps_max": 50.0, "target_gamma": _num(target_gamma)}


def open_system(rng: random.Random) -> list[Step]:
    steps = []
    # dt * gamma * n_max^2 stays below the 0.1 guard for gamma <= 1.2
    for dims, dt in (((4, 8), 0.0016), ((3, 6), 0.0032)):
        steps.append(_step(f"open-purification-{dims[0]}x{dims[1]}", "PurificationMap", {
            "space": {"dims": f"{dims[0]} {dims[1]}"},
            "model": {"gamma": _num(rng.uniform(0.8, 1.2))},
            "initial": {"state": _fock_mixture(rng, *dims)},
            "run": {"t_final": 20.0, "dt": dt},
            "output": {"stride": 10},
        }))
    steps.append(_step("open-dark-state", "DarkState", {
        "space": {"dims": "3 3 3"},
        "model": {"gamma": _num(rng.uniform(0.8, 1.2))},
        "initial": {"state": "dark"},
        "run": {"t_final": 10.0, "dt": 0.01},
        "output": {"stride": 10},
    }))
    steps.append(_step("open-markov-decay", "MicroscopicDecay", {
        "reservoir": _comb(rng.uniform(0.9, 1.1)),
        "run": {"t_final": 3.0, "dt": _RES_DT},
        "fit": {"window": "0.5 3.0"},
        "output": {"stride": 10},
    }))
    # 40 measurements per period and a free run to t = 2 (the acceptance
    # suite uses 60 and 3) keep a repetition short; the oracles still hold
    steps.append(_step("open-zeno-scan", "ZenoScan", {
        "reservoir": _comb(rng.uniform(0.9, 1.1)),
        "zeno": {"taus": _zeno_taus(rng), "n_measurements": 40},
        "run": {"t_final": 2.0, "dt": _RES_DT},
        "fit": {"window": "0.5 2.0"},
    }))
    # detuned Lorentzian line; the coupling realizes a flat-comb rate near 1
    coupling = math.sqrt(rng.uniform(0.9, 1.1) * 50.0 / (math.pi * 400))
    steps.append(_step("open-anti-zeno-scan", "AntiZenoScan", {
        "reservoir": {"f": 400, "eps_max": 50.0, "coupling": f"{coupling:.12f}",
                      "spectrum": "lorentzian", "center": _num(rng.uniform(38.0, 42.0)),
                      "width": 2.5},
        "zeno": {"taus": _zeno_taus(rng), "n_measurements": 40},
        "run": {"t_final": 2.0, "dt": _RES_DT},
        "fit": {"window": "0.5 2.0"},
    }))
    steps.append(_step("open-interference", "InterferenceExact", {
        "reservoir": _comb(rng.uniform(0.9, 1.1)),
        "initial": {"state": "antisymmetric"},
        "run": {"t_final": 3.0, "dt": _RES_DT},
        "output": {"stride": 25},
    }))
    return steps


# --- param_sweep: many short problems through `photonflow scan` -------------


def param_sweep(rng: random.Random) -> list[Step]:
    gammas = tuple(_num(0.5 + k / 16.0 + rng.uniform(-0.01, 0.01)) for k in range(17))
    transfer = _step("sweep-lindblad-transfer", "LindbladTransfer", {
        "space": {"dims": "3 4"},
        "model": {"gamma": gammas[8]},
        "initial": {"state": rng.choice(("fock 1 0", "fock 2 0", "fock 2 1"))},
        "run": {"t_final": 5.0, "dt": 0.005},
        "output": {"stride": 20},
    }, axis="model.gamma", values=gammas)

    sizes = tuple(str(f) for f in range(100, 401, 20))
    # short problems: twice the default step, a window well before the
    # f = 100 comb recurrence (2 pi at eps_max = 50)
    decay = _step("sweep-markov-decay", "MicroscopicDecay", {
        "reservoir": _comb(rng.uniform(0.9, 1.1)),
        "run": {"t_final": 2.0, "dt": 2 * _RES_DT},
        "fit": {"window": "0.5 2.0"},
        "output": {"stride": 10},
    }, axis="reservoir.f", values=sizes)

    gamma = _num(rng.uniform(0.9, 1.1))
    # gamma1 = gamma * 2^(k/4), k = -8..8: the matched point k = 0 is on the grid
    gamma1s = tuple(_num(float(gamma) * 2.0 ** (k / 4.0)) for k in range(-8, 9))
    markov = _step("sweep-diode-markov", "DiodeMarkov", {
        "diode": {"gamma": gamma, "gamma1": gamma, "gamma2": _num(rng.uniform(19.0, 21.0))},
        "pulse": {"duration": 10.0, "t0": _num(rng.uniform(30.0, 33.0))},
        "run": {"t_final": 130.0, "dt": 0.02},
        "output": {"stride": 25},
    }, axis="diode.gamma1", values=gamma1s, expect={"gamma": float(gamma)})
    return [transfer, decay, markov]


WORKLOADS = {"router": router, "open_system": open_system, "param_sweep": param_sweep}


def build(workload: str, seed: int) -> list[Step]:
    """The steps of ``workload`` for ``seed``; the same seed gives the same files."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
