"""Correctness gate: the acceptance-suite bounds applied to each CLI call.

A call passes when its exit code is 0, every manifest it wrote says
``all_ok = true``, and its results meet the oracle of its scenario kind.
The CSV bytes of a call are hashed so that repetitions of one seed can be
compared.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import math
from pathlib import Path


def read_manifest(path: Path) -> dict:
    """Sections of a ``manifest.ini`` as nested dicts of raw strings."""
    parser = configparser.RawConfigParser()
    parser.optionxform = str
    parser.read_string(path.read_text())
    return {section: dict(parser[section]) for section in parser.sections()}


def _value(section: dict, key: str) -> float:
    return float(section[key])


def _purification(res, expect):
    return [("evolve_vs_map_distance <= 1e-4 (criteria 03/10)",
             _value(res, "evolve_vs_map_distance") <= 1e-4)]


def _dark_state(res, expect):
    dev = max(abs(1.0 - _value(res, "fidelity_min")), abs(1.0 - _value(res, "fidelity_final")))
    return [("dark-state fidelity deviation <= 1e-9 (criterion 05)", dev <= 1e-9)]


def _markov_decay(res, expect):
    markov = _value(res, "gamma_markov")
    return [("gamma_fit within 5% of gamma_markov (criterion 01)",
             abs(_value(res, "gamma_fit") - markov) <= 0.05 * markov)]


def _zeno(res, expect):
    return [("Zeno rates monotone in tau (criterion 06)", _value(res, "monotone_in_tau") == 1.0)]


def _anti_zeno(res, expect):
    return [("anti-Zeno maximum > 1.5 gamma_free (criterion 07)",
             _value(res, "gamma_eff_max") > 1.5 * _value(res, "gamma_free"))]


def _interference(res, expect):
    dev = max(abs(1.0 - _value(res, "survival_min")), abs(1.0 - _value(res, "survival_final")))
    return [("dark-state survival deviation <= 1e-9 (criterion 05)", dev <= 1e-9)]


def _diode_full(res, expect):
    return [
        ("leakage <= 1% (criterion 08a)", _value(res, "leakage") <= 0.01),
        ("port-2 yield >= 95% (criterion 08a)", _value(res, "port2_yield") >= 0.95),
        ("q_match_rel_err <= 0.05 (criterion 08b)", _value(res, "q_match_rel_err") <= 0.05),
        ("norm drift <= 1e-8 (criterion 08c)", _value(res, "norm_drift") <= 1e-8),
        ("min_overlap >= 0.99 (criterion 09)", _value(res, "min_overlap") >= 0.99),
    ]


def _reflection(res, expect):
    physical = 4.0 / expect["gamma2"]
    return [
        ("reflected norm within 1e-8 of 1 (criterion 08d)", abs(_value(res, "out_norm") - 1.0) <= 1e-8),
        ("delay within 20% of 4/gamma2 (criterion 08f)",
         abs(_value(res, "delay") - physical) <= 0.2 * physical),
    ]


RUN_ORACLES = {
    "PurificationMap": _purification,
    "DarkState": _dark_state,
    "MicroscopicDecay": _markov_decay,
    "ZenoScan": _zeno,
    "AntiZenoScan": _anti_zeno,
    "InterferenceExact": _interference,
    "DiodeFull": _diode_full,
    "Port2Reflection": _reflection,
}


def check_manifest(manifest: dict, kind: str, expect: dict) -> list[str]:
    """Names of the checks one run's manifest misses."""
    misses = []
    if manifest.get("invariants", {}).get("all_ok") != "true":
        misses.append("manifest all_ok = true")
    oracle = RUN_ORACLES.get(kind)
    if oracle is not None:
        try:
            misses.extend(name for name, ok in oracle(manifest["results"], expect) if not ok)
        except (KeyError, ValueError) as exc:
            misses.append(f"manifest results unreadable: {exc!r}")
    return misses


def check_scan(step, result_dir: Path) -> list[str]:
    """Every point ran, passed its invariants and gave a finite summary row."""
    summary = result_dir / "scan_summary.csv"
    if not summary.is_file():
        return ["scan_summary.csv written"]
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    misses = []
    if len(body) != len(step.values):
        misses.append(f"{len(step.values)} summary rows (got {len(body)})")
    try:
        table = [[float(x) for x in row] for row in body]
    except ValueError:
        return misses + ["summary rows numeric"]
    if not all(math.isfinite(x) for row in table for x in row):
        misses.append("summary rows finite")
    if [row[0] for row in table] != [float(v) for v in step.values]:
        misses.append("summary rows in axis order")
    for i in range(len(step.values)):
        manifest = result_dir / f"point_{i:03d}" / "manifest.ini"
        if not manifest.is_file():
            misses.append(f"point {i} manifest written")
        elif read_manifest(manifest).get("invariants", {}).get("all_ok") != "true":
            misses.append(f"point {i} all_ok = true")
    if step.kind == "DiodeMarkov" and table and not misses:
        col = header.index("leakage")
        best = min(table, key=lambda row: row[col])[0]
        if abs(best - step.expect["gamma"]) > 1e-9 * step.expect["gamma"]:
            misses.append("DiodeMarkov leakage minimum at gamma1 = gamma")
    return misses


def check_step(step, out_dir: Path, exit_code: int) -> list[str]:
    """Every check one CLI call of a workload misses; empty when it passed."""
    if exit_code != 0:
        return [f"exit code 0 (got {exit_code})"]
    result_dir = step.result_dir(out_dir)
    if step.is_scan:
        return check_scan(step, result_dir)
    manifest = result_dir / "manifest.ini"
    if not manifest.is_file():
        return ["manifest.ini written"]
    return check_manifest(read_manifest(manifest), step.kind, step.expect)


def csv_digest(result_dir: Path) -> str:
    """SHA-256 over the names and bytes of every CSV file below ``result_dir``."""
    h = hashlib.sha256()
    for path in sorted(result_dir.rglob("*.csv")):
        h.update(str(path.relative_to(result_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
