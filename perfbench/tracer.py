"""Spans around the calls into photonflow's public functions.

The tracer wraps each public function of the layers in every module
namespace that holds it, so that calls resolved by name (``cli`` imports
``run_scenario`` from ``scenario``; ``lindblad`` imports helpers from
``fock``) are seen too.  ``DensityMatrix`` methods are wrapped on the
class.  Nothing in photonflow changes.

Spans (id, parent id, function, start, end, process) are kept in memory
and written as JSON lines when the workload ends.  Scan workers are
forked after the wrappers are installed: a worker keeps the stack of
open spans it inherited, so its spans name their parent in the main
process, and it writes its spans after each task it runs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from pathlib import Path

# layer -> the functions whose self time it sums, as "module.attr" or
# "module.Class.method" under the photonflow package
LAYERS = {
    "scenario.parse": ("scenario.parse_scenario", "scenario.parse_scenario_text",
                       "scenario.validate_scenario"),
    "scenario.self": ("scenario.run_scenario", "scenario.scan_scenario"),
    "lindblad.evolve": ("lindblad.evolve",),
    "lindblad.map": ("lindblad.asymptotic_transfer_map", "lindblad.purification_predicate"),
    "fock.observables": ("fock.DensityMatrix.purity", "fock.DensityMatrix.expectation",
                         "fock.DensityMatrix.min_eigenvalue",
                         "fock.DensityMatrix.hermiticity_defect", "fock.trace_distance"),
    "reservoir.evolve_exact": ("reservoir.evolve_exact",),
    "reservoir.zeno_scan": ("reservoir.zeno_scan", "reservoir.zeno_evolve"),
    "reservoir.interference": ("reservoir.interference_evolve",),
    "reservoir.fit": ("reservoir.fit_decay_rate",),
    "diode.evolve_full": ("diode.evolve_full",),
    "diode.reflect_port2": ("diode.reflect_port2",),
    "diode.project_pulse": ("diode.project_pulse",),
    "diode.decomposition": ("diode.port2_output_decomposition",),
    "diode.evolve_markov": ("diode.evolve_markov", "diode.impedance_scan"),
}

_NAMESPACES = ("cli", "scenario", "lindblad", "fock", "reservoir", "diode")


def _file_sizes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


# run_scenario(sc, outdir) and scan_scenario(sc, axis, values, outdir, ...)
# are called with positional arguments by cli and by the scan workers
def _run_attrs(args, kwargs, result):
    outdir = Path(args[1])
    wall = None
    for line in (outdir / "manifest.ini").read_text().splitlines():
        if line.startswith("wall_seconds = "):
            wall = float(line.split("=", 1)[1])
            break
    return {"bytes": _file_sizes(outdir), "runner_s": wall}


def _scan_attrs(args, kwargs, result):
    outdir = Path(args[3])
    return {"bytes": (outdir / "scan_summary.csv").stat().st_size}


def _evolve_attrs(args, kwargs, result):
    return {"snapshots": len(result.states)}


_ATTRS = {
    "scenario.run_scenario": _run_attrs,
    "scenario.scan_scenario": _scan_attrs,
    "lindblad.evolve": _evolve_attrs,
}


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self, spool_dir: Path, workload: str, run_id: str):
        self.spool_dir = Path(spool_dir)
        self.workload = workload
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.base_depth = 0
        self.worker = False
        self._ids = itertools.count()
        self.spool_dir.mkdir(parents=True, exist_ok=True)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function named in LAYERS in all photonflow namespaces."""
        mods = {name: importlib.import_module(f"photonflow.{name}") for name in _NAMESPACES}
        for names in LAYERS.values():
            for qual in names:
                mod_name, *path = qual.split(".")
                owner = mods[mod_name]
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
                wrapped = self._wrap(qual, original)
                setattr(owner, path[-1], wrapped)
                if len(path) == 1:
                    for mod in mods.values():
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a scan worker: keep the inherited open spans as parents, drop the
        # finished ones (the main process writes those)
        self.spans = []
        self.base_depth = len(self.stack)
        self.worker = True

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sid = f"{os.getpid()}-{next(self._ids)}"
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            self.spans.append((sid, parent, name, start, end, os.getpid(), attrs))
            if self.worker and len(self.stack) == self.base_depth:
                self.flush()
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def flush(self) -> None:
        """Append the finished spans of this process to its spool file."""
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for sid, parent, name, start, end, pid, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": start, "end": end,
                    "pid": pid, "workload": self.workload, "run": self.run_id, "attrs": attrs,
                }) + "\n")
        self.spans = []


def load_spans(spool_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(spool_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def layer_metrics(spans: list[dict], main_pid: int) -> dict:
    """Per-layer self times, call counts and counters of one traced repetition."""
    layer_of = {fn: layer for layer, fns in LAYERS.items() for fn in fns}
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = 0.0
        out[f"{layer}_calls"] = 0
    out["scenario.write_s"] = 0.0
    out["scenario.bytes_written"] = 0
    out["lindblad.snapshots"] = 0
    for s in spans:
        layer = layer_of[s["name"]]
        out[f"{layer}_s"] += own[s["id"]]
        out[f"{layer}_calls"] += 1
        attrs = s["attrs"] or {}
        out["scenario.bytes_written"] += attrs.get("bytes", 0)
        out["lindblad.snapshots"] += attrs.get("snapshots", 0)
        if attrs.get("runner_s") is not None:
            out["scenario.write_s"] += (s["end"] - s["start"]) - attrs["runner_s"]
    out["trace.spans"] = len(spans)
    out["trace.worker_spans"] = sum(1 for s in spans if s["pid"] != main_pid)
    return out
