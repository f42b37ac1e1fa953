import collections
import configparser
import contextlib
import io
import itertools
import math
import os
import re
import signal
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonflow import diode, lindblad, reservoir
from photonflow._integrate import SparseGenerator
from photonflow.cli import main
from photonflow.errors import ScenarioError
from photonflow.scenario import (
    KINDS,
    RunOutcome,
    _write_csv,
    parse_scenario,
    parse_scenario_text,
    run_scenario,
    scan_scenario,
)
from reference import write_csv_rows

LINDBLAD_SCENARIO = """
[scenario]
name = transfer
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
stride = 20
"""

MICRO_SCENARIO = """
[scenario]
name = micro
kind = MicroscopicDecay

[reservoir]
f = 120
eps_max = 20.0
coupling = {coupling}

[run]
t_final = 2.5

[fit]
window = 0.4 2.5

[output]
stride = 10
"""

ZENO_SCENARIO = """
[scenario]
name = zeno
kind = ZenoScan

[reservoir]
f = 120
eps_max = 20.0
target_gamma = 1.0

[zeno]
taus = 0.05 0.025 0.01 0.005 0.0025
n_measurements = 30

[run]
t_final = 2.5

[fit]
window = 0.4 2.5
"""

MARKOV_DIODE_SCENARIO = """
[scenario]
name = diode-markov
kind = DiodeMarkov

[diode]
gamma = 1.0
gamma1 = 1.0
gamma2 = 20.0

[pulse]
duration = 8.0

[run]
dt = 0.01
"""


PORT2_SCENARIO = """
[scenario]
name = refl
kind = Port2Reflection

[diode]
gamma2 = 2.0

[grid2]
n_q = 400
delta_max = 4.0

[pulse]
duration = 4.0
"""

# a Port2Reflection with every key set
PORT2_FILE = """
[scenario]
name = refl
kind = Port2Reflection

[diode]
gamma2 = {gamma2}

[grid2]
n_q = {n_q}
delta_max = {delta_max}

[pulse]
duration = {duration}
t0 = {t0}

[run]
t_final = {t_final}
"""

# a DiodeFull whose port-1 comb resynthesizes its pulse with 2.18% error; the
# rest of its build holds (quadrature_steps = 6004)
DIODE_RESYNTHESIS = """
[scenario]
name = router
kind = DiodeFull

[reservoir]
f = 20
eps_max = 0.0005
target_gamma = 1

[diode]
gamma1 = 1
gamma2 = 20

[grid1]
n_q = 100
delta_max = 2.5

[grid2]
n_q = 160
delta_max = 3

[pulse]
duration = 25
t0 = 60

[run]
t_final = 120
"""

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def micro_coupling():
    return float(np.sqrt(1.0 * 20.0 / (np.pi * 120)))


# --- parsing and validation -------------------------------------------------


def test_parse_minimal_lindblad_scenario():
    sc = parse_scenario_text(LINDBLAD_SCENARIO)
    assert sc.name == "transfer"
    assert sc.kind == "LindbladTransfer"
    assert sc.get("space", "dims") == "3 4"


def test_parse_rejects_negative_rate():
    bad = LINDBLAD_SCENARIO.replace("gamma = 1.0", "gamma = -1")
    with pytest.raises(ScenarioError, match="model.gamma.*positive"):
        parse_scenario_text(bad)


def test_parse_rejects_unknown_key():
    bad = LINDBLAD_SCENARIO.replace("stride = 20", "strides = 20")
    with pytest.raises(ScenarioError, match="output.strides"):
        parse_scenario_text(bad)


def test_parse_rejects_unknown_kind():
    bad = LINDBLAD_SCENARIO.replace("LindbladTransfer", "Nonsense")
    with pytest.raises(ScenarioError, match="scenario.kind"):
        parse_scenario_text(bad)


def test_parse_rejects_bandwidth_violation():
    text = """
[scenario]
name = refl
kind = Port2Reflection

[diode]
gamma2 = 2.0

[grid2]
n_q = 64
delta_max = 2.0

[pulse]
duration = 1.0
"""
    with pytest.raises(ScenarioError, match="bandwidth"):
        parse_scenario_text(text)


def test_parse_rejects_recurrence_violation():
    text = """
[scenario]
name = refl
kind = Port2Reflection

[diode]
gamma2 = 2.0

[grid2]
n_q = 16
delta_max = 10.0

[pulse]
duration = 12.0
"""
    with pytest.raises(ScenarioError, match="recurrence"):
        parse_scenario_text(text)


def test_parse_rejects_duplicate_key():
    bad = LINDBLAD_SCENARIO.replace("t_final = 5.0", "t_final = 5.0\nt_final = 6.0")
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario_text(bad)


def test_mixed_state_parsing(tmp_path):
    text = LINDBLAD_SCENARIO.replace("state = fock 1 0", "state = mixed 0.5 1 0 ; 0.5 0 1")
    text = text.replace("t_final = 5.0", "t_final = 30.0")
    sc = parse_scenario_text(text)
    outcome = run_scenario(sc, tmp_path / "o")
    assert outcome.results["purity_final"] >= 1.0 - 1e-6


# --- execution ---------------------------------------------------------------


def test_lindblad_run_matches_analytic_decay(tmp_path):
    sc = parse_scenario_text(LINDBLAD_SCENARIO)
    run_scenario(sc, tmp_path / "o")
    rows = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()
    header = rows[0].split(",")
    it, ip = header.index("t"), header.index("pop_mode1")
    for line in rows[1:]:
        cells = line.split(",")
        assert abs(float(cells[ip]) - np.exp(-float(cells[it]))) <= 1e-6


def test_run_writes_manifest_with_invariants(tmp_path):
    sc = parse_scenario_text(LINDBLAD_SCENARIO)
    run_scenario(sc, tmp_path / "o")
    manifest = (tmp_path / "o" / "manifest.ini").read_text()
    assert "status = completed" in manifest
    assert "all_ok = true" in manifest
    assert "trace_drift" in manifest


def test_run_is_deterministic(tmp_path):
    sc = parse_scenario_text(MICRO_SCENARIO.format(coupling=micro_coupling()))
    run_scenario(sc, tmp_path / "a")
    run_scenario(sc, tmp_path / "b")
    a = (tmp_path / "a" / "timeseries.csv").read_bytes()
    b = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert a == b


def test_csv_writer_writes_the_bytes_of_the_row_loop_and_rejects_ragged_columns(tmp_path):
    odd = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 3, -7.0, 1e17, 0.1, 2.0 / 3.0]
    tables = [{"t": np.arange(len(odd)) * 0.02, "odd": odd, "whole": list(range(len(odd)))},
              {"x": [1.5], "y": np.array([-2.0])}]
    for i, table in enumerate(tables):
        _write_csv(tmp_path / f"new{i}.csv", table)
        write_csv_rows(tmp_path / f"old{i}.csv", table)
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()
    # the row loop cut every column to the shortest without a word
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "ragged.csv", {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})


def test_zeno_scan_summary_is_monotone(tmp_path):
    sc = parse_scenario_text(ZENO_SCENARIO)
    outcome = run_scenario(sc, tmp_path / "o")
    assert outcome.results["monotone_in_tau"] == 1.0
    rows = (tmp_path / "o" / "summary.csv").read_text().splitlines()
    assert len(rows) == 6  # header + 5 periods
    rates = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))


def test_diode_markov_run_yield(tmp_path):
    sc = parse_scenario_text(MARKOV_DIODE_SCENARIO)
    outcome = run_scenario(sc, tmp_path / "o")
    assert outcome.results["port2_yield"] >= 0.95
    assert outcome.results["leakage"] <= 0.01


def test_invariant_failure_recorded_and_raised(tmp_path, monkeypatch):
    from photonflow import scenario as sc_mod

    def failing_runner(sc):
        out = RunOutcome()
        sc_mod._check(out, "trace_drift", 1.0, False)
        return out

    monkeypatch.setattr(sc_mod._KINDS["LindbladTransfer"], "run", failing_runner)
    sc = parse_scenario_text(LINDBLAD_SCENARIO)
    from photonflow.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        run_scenario(sc, tmp_path / "o")
    manifest = (tmp_path / "o" / "manifest.ini").read_text()
    assert "status = invariant-failure" in manifest
    assert "failures = trace_drift" in manifest


# --- scans ---------------------------------------------------------------------


def test_scan_rows_match_independent_runs(tmp_path):
    sc = parse_scenario_text(MICRO_SCENARIO.format(coupling=micro_coupling()))
    rows = scan_scenario(sc, "reservoir.f", [60, 120], tmp_path / "scan")
    for value, subdir in zip((60, 120), ("point_000", "point_001")):
        single = run_scenario(
            sc.with_override("reservoir", "f", str(int(value))), tmp_path / f"solo{value}"
        )
        scan_csv = (tmp_path / "scan" / subdir / "timeseries.csv").read_bytes()
        solo_csv = (tmp_path / f"solo{value}" / "timeseries.csv").read_bytes()
        assert scan_csv == solo_csv
    summary = (tmp_path / "scan" / "scan_summary.csv").read_text().splitlines()
    assert summary[0].startswith("reservoir.f,")
    assert len(summary) == 3


def test_scan_rate_linear_in_class_number(tmp_path):
    # fixed coupling: the golden-rule rate is linear in f
    sc = parse_scenario_text(MICRO_SCENARIO.format(coupling=micro_coupling()))
    rows = scan_scenario(sc, "reservoir.f", [60, 120, 180], tmp_path / "scan")
    rates = [results["gamma_fit"] for _, results in rows]
    assert rates[1] / rates[0] == pytest.approx(2.0, rel=0.05)
    assert rates[2] / rates[0] == pytest.approx(3.0, rel=0.05)


def test_scan_rejects_empty_values(tmp_path):
    # the summary's header is the first point's result names, so a scan needs a point
    sc = parse_scenario_text(MICRO_SCENARIO.format(coupling=micro_coupling()))
    with pytest.raises(ScenarioError, match="no scan values"):
        scan_scenario(sc, "reservoir.f", [], tmp_path / "scan")
    assert not (tmp_path / "scan").exists()


def test_scan_rejects_non_numeric_axis(tmp_path):
    sc = parse_scenario_text(MICRO_SCENARIO.format(coupling=micro_coupling()))
    with pytest.raises(ScenarioError, match="numeric"):
        scan_scenario(sc, "scenario.name", [1.0], tmp_path / "scan")


def test_scan_parallel_matches_serial(tmp_path):
    sc = parse_scenario_text(MICRO_SCENARIO.format(coupling=micro_coupling()))
    scan_scenario(sc, "reservoir.f", [60, 120], tmp_path / "serial", jobs=1)
    scan_scenario(sc, "reservoir.f", [60, 120], tmp_path / "par", jobs=2)
    a = (tmp_path / "serial" / "scan_summary.csv").read_bytes()
    b = (tmp_path / "par" / "scan_summary.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_file_and_scan_point_is_built_once(tmp_path, monkeypatch, jobs):
    # the count is kept in a file, so that builds in forked scan workers count too
    from photonflow import scenario as sc_mod

    log = tmp_path / "builds.log"
    kind = sc_mod._KINDS["LindbladTransfer"]
    build = kind.build

    def counted_build(sc):
        with open(log, "a") as fh:
            fh.write("build\n")
        return build(sc)

    def builds(*argv):
        log.write_text("")
        assert main(list(argv)) == 0
        return len(log.read_text().splitlines())

    monkeypatch.setattr(kind, "build", counted_build)
    path = write(tmp_path, "sc.ini", LINDBLAD_SCENARIO)
    assert builds("validate", path) == 1
    assert builds("run", path, "--out", str(tmp_path / "run")) == 1
    # the file once, then each of the three points once; the workers build nothing
    assert builds("scan", path, "--axis", "model.gamma", "--values", "0.5,1,2",
                  "--out", str(tmp_path / "scan"), "--jobs", str(jobs)) == 4


# --- command line ----------------------------------------------------------------


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_validate_and_run(tmp_path, capsys):
    path = write(tmp_path, "sc.ini", LINDBLAD_SCENARIO)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "pop_mode1_final" in out
    assert (tmp_path / "out" / "transfer" / "timeseries.csv").is_file()


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.ini", LINDBLAD_SCENARIO.replace("gamma = 1.0", "gamma = -2"))
    assert main(["run", path]) == 2
    assert "model.gamma" in capsys.readouterr().err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2


def test_cli_scan(tmp_path):
    path = write(tmp_path, "sc.ini", MICRO_SCENARIO.format(coupling=micro_coupling()))
    rc = main(
        ["scan", path, "--axis", "reservoir.f", "--values", "60,120",
         "--out", str(tmp_path / "scan")]
    )
    assert rc == 0
    summary = (tmp_path / "scan" / "micro_scan" / "scan_summary.csv").read_text()
    assert summary.count("\n") == 3


def test_cli_invariant_failure_exit_code(tmp_path, monkeypatch):
    from photonflow import scenario as sc_mod

    def failing_runner(sc):
        out = RunOutcome()
        sc_mod._check(out, "norm_drift", 1.0, False)
        return out

    monkeypatch.setattr(sc_mod._KINDS["LindbladTransfer"], "run", failing_runner)
    path = write(tmp_path, "sc.ini", LINDBLAD_SCENARIO)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3


# --- exit-code contract on malformed numbers ----------------------------------------


def test_cli_zeno_window_needs_two_times(tmp_path, capsys):
    path = write(tmp_path, "z.ini", ZENO_SCENARIO.replace("window = 0.4 2.5", "window = 0.5"))
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "fit.window" in capsys.readouterr().err


def test_cli_validate_rejects_zero_stride(tmp_path, capsys):
    path = write(tmp_path, "s.ini", LINDBLAD_SCENARIO.replace("stride = 20", "stride = 0"))
    assert main(["validate", path]) == 2
    assert "output.stride" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("gamma = 1.0", "gamma = nan", "model.gamma"),
    ("t_final = 5.0", "t_final = inf", "run.t_final"),
    ("t_final = 5.0", "t_final = 1e999", "run.t_final"),
])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, old, new, key):
    path = write(tmp_path, "n.ini", LINDBLAD_SCENARIO.replace(old, new))
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    (ZENO_SCENARIO.replace("t_final = 2.5", "t_final = 2.5\ndt = 1.0"), "run.dt"),
    (MICRO_SCENARIO.format(coupling=micro_coupling())
     .replace("t_final = 2.5", "t_final = 3").replace("window = 0.4 2.5", "window = 5 6"),
     "fit.window"),
    (PORT2_SCENARIO + "\n[run]\ndt = 5.0\n", "run.dt"),
    (LINDBLAD_SCENARIO.replace("state = fock 1 0", "state ="), "initial.state"),
    # each case below was checked only by the run: the pulse resynthesizes from its
    # projection with 2.18% error, over the 1% bound ...
    (PORT2_FILE.format(gamma2=1, n_q=100, delta_max=2.5, duration=25, t0=60, t_final=120),
     "grid2"),
    (DIODE_RESYNTHESIS, "grid1"),
    # ... the reflected fields would take 8e7 samples, more than one comb_sum takes ...
    (PORT2_FILE.format(gamma2=0.0001, n_q=2000, delta_max=0.001, duration=6000, t0=30000,
                       t_final=4e6), "run.t_final"),
    # ... and the photon pair outgrows mode 2 of the closed-form map
    (LINDBLAD_SCENARIO.replace("LindbladTransfer", "PurificationMap")
     .replace("dims = 3 4", "dims = 2 2").replace("fock 1 0", "fock 1 1"), "space.dims"),
    # samples 5e-324 apart: the trapezoid of the reflected intensity underflowed to 0
    (PORT2_FILE.format(gamma2=4, n_q=400, delta_max=10, duration=10, t0=0, t_final="1e-320"),
     "run.t_final"),
    # a snapshot interval of 2 at this rate would take over 1e7 Taylor sub-steps
    (LINDBLAD_SCENARIO.replace("gamma = 1.0", "gamma = 1e300")
     .replace("t_final = 5.0", "t_final = 5.0\ndt = 0.1"), "run.dt"),
], ids=["zeno-dt", "decay-window", "port2-dt", "empty-state", "port2-resynthesis",
        "diode-full-resynthesis", "port2-samples", "purification-truncation",
        "port2-subnormal-samples", "master-substeps"])
def test_cli_validate_rejects_what_run_rejects(tmp_path, capsys, text, key):
    path = write(tmp_path, "v.ini", text)
    assert main(["validate", path]) == 2
    assert key in capsys.readouterr().err
    # the run stops at its build, before it allocates what the file asks for (the
    # 8e7 reflection samples took 644 MiB) or writes anything
    tracemalloc.start()
    try:
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_reflects_a_pulse_over_a_1e_300_window(tmp_path):
    # samples 5e-304 apart are normal doubles, so the centroids stay finite
    path = write(tmp_path, "r.ini", PORT2_FILE.format(gamma2=4, n_q=400, delta_max=10,
                                                      duration=10, t0=0, t_final="1e-300"))
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name, named", [
    ("markov_decay", "gamma_fit_finite"),
    ("zeno_scan", "gamma_free_positive"),
    ("anti_zeno_scan", "gamma_free_positive"),
])
def test_free_decay_whose_survival_vanishes_fails_its_invariants(tmp_path, capsys, monkeypatch,
                                                                 name, named):
    # survival that is 0 in the fit window leaves no rate: the run ends in exit 3
    # with its manifest, not in exit 2 after a clean validate
    evolve_exact = reservoir.evolve_exact

    def vanishing(*args, **kwargs):
        traj = evolve_exact(*args, **kwargs)
        traj.c0[traj.times.size // 2:-1] = 0.0  # the last sample enters the norm check
        return traj

    monkeypatch.setattr(reservoir, "evolve_exact", vanishing)
    path = str(SCENARIO_DIR / f"{name}.ini")
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    assert named in capsys.readouterr().err
    (manifest,) = (tmp_path / "out").rglob("manifest.ini")
    assert f"failures = {named}\n" in manifest.read_text()


def test_zeno_scan_whose_survival_underflows_fails_its_invariants(tmp_path, capsys):
    # 60 periods of 2 and 1 at target_gamma = 20 leave a no-decay probability below
    # the float range: a result of the run, which ends in exit 3 with its manifest
    sections = sections_of((SCENARIO_DIR / "zeno_scan.ini").read_text())
    sections["reservoir"]["target_gamma"] = "20.0"
    sections["zeno"]["taus"] = "2.0 1.0"
    path = write(tmp_path, "z.ini", text_of(sections))
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    assert "gamma_eff_nonnegative_0" in capsys.readouterr().err
    run = tmp_path / "out" / "zeno-scan"
    assert (run / "summary.csv").is_file()
    manifest = (run / "manifest.ini").read_text()
    assert "gamma_eff_nonnegative_0 = nan\n" in manifest
    assert "failures = gamma_eff_nonnegative_0 gamma_eff_nonnegative_1\n" in manifest


def test_cli_scan_checks_every_point_before_running(tmp_path, capsys):
    text = MICRO_SCENARIO.format(coupling=micro_coupling()).replace(
        "t_final = 2.5", "t_final = 2.5\ndt = 0.0005")
    path = write(tmp_path, "sc.ini", text)
    rc = main(["scan", path, "--axis", "run.dt", "--values", "0.0005,1.0",
               "--out", str(tmp_path / "scan")])
    assert rc == 2
    assert "run.dt" in capsys.readouterr().err
    assert not (tmp_path / "scan").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_runs_every_point_past_an_invariant_failure(tmp_path, capsys, jobs):
    # at target_gamma = 1e-300 the free decay rate is 0, which fails the second point
    rc = main(["scan", str(SCENARIO_DIR / "zeno_scan.ini"), "--axis", "reservoir.target_gamma",
               "--values", "1.0,1e-300,1.1", "--out", str(tmp_path), "--jobs", str(jobs)])
    assert rc == 3
    assert "point_001 (scenario 'zeno-scan': invariant checks failed" in capsys.readouterr().err
    scan = tmp_path / "zeno-scan_scan"
    assert len(list(scan.glob("point_00[0-2]/manifest.ini"))) == 3
    assert "all_ok = false" in (scan / "point_001" / "manifest.ini").read_text()
    lines = (scan / "scan_summary.csv").read_text().splitlines()
    assert len(lines) == 4
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0, 1e-300, 1.1]
    assert "nan" in lines[2].split(",")


@pytest.mark.parametrize("n_points, cpus", [(2, 64), (3, 2)])
def test_scan_clamps_worker_count(tmp_path, monkeypatch, n_points, cpus):
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    sc = parse_scenario_text(MICRO_SCENARIO.format(coupling=micro_coupling()))
    values = [60, 120, 180][:n_points]
    rows = scan_scenario(sc, "reservoir.f", values, tmp_path / "scan", jobs=5000)
    assert started == [2]
    assert [r[0] for r in rows] == values


def test_shipped_scenarios_validate_and_cover_every_kind():
    paths = sorted(SCENARIO_DIR.glob("*.ini"))
    assert all(main(["validate", str(p)]) == 0 for p in paths)
    assert {parse_scenario(p).kind for p in paths} == set(KINDS)


def test_cli_scan_rejects_non_numeric_values(tmp_path, capsys):
    path = write(tmp_path, "sc.ini", MICRO_SCENARIO.format(coupling=micro_coupling()))
    rc = main(["scan", path, "--axis", "reservoir.f", "--values", "60,abc",
               "--out", str(tmp_path / "scan")])
    assert rc == 2
    assert "reservoir.f" in capsys.readouterr().err


def test_cli_scan_rejects_empty_values(tmp_path, capsys):
    path = write(tmp_path, "sc.ini", LINDBLAD_SCENARIO)
    rc = main(["scan", path, "--axis", "model.gamma", "--values", ",",
               "--out", str(tmp_path / "scan")])
    assert rc == 2
    assert "--values" in capsys.readouterr().err
    assert not (tmp_path / "scan").exists()


SCAN_F = ["scan", "{path}", "--axis", "reservoir.f", "--out", "{out}"]


@pytest.mark.parametrize("argv, code, named", [
    ([*SCAN_F, "--values", "-1,2"], 2, "error: scan point reservoir.f = -1:"),
    ([*SCAN_F, "--values", "60", "--jobs", "abc"], 2, "argument --jobs: invalid int value: 'abc'"),
    (["run"], 2, "the following arguments are required: scenario"),
    (["simulate", "{path}"], 2, "invalid choice: 'simulate'"),
    (["validate", "{path}", "--extra"], 2, "unrecognized arguments: --extra"),
    ([*SCAN_F, "--values"], 2, "argument --values: expected one argument"),
    (["-h"], 0, "usage: photonflow"),
    (["scan", "-h"], 0, "usage: photonflow scan"),
], ids=["negative-values", "jobs-abc", "run-without-file", "unknown-command", "extra-argument",
        "values-without-list", "help", "scan-help"])
def test_cli_returns_the_exit_code_of_a_command_line_error_or_help(tmp_path, capsys, argv,
                                                                   code, named):
    # main returns the code instead of raising SystemExit, and the message names the argument
    path = write(tmp_path, "sc.ini", MICRO_SCENARIO.format(coupling=micro_coupling()))
    argv = [a.format(path=path, out=tmp_path / "scan") for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert named in (captured.err if code else captured.out)
    assert not (tmp_path / "scan").exists()


# --- Markov port invariants -------------------------------------------------------------


def test_diode_markov_fast_loss_regression(tmp_path, capsys):
    # gamma2 * dt = 4 diverged under RK4 and wrote port2_yield = nan with all_ok = true
    text = MARKOV_DIODE_SCENARIO.replace("gamma2 = 20.0", "gamma2 = 200.0")
    path = write(tmp_path, "m.ini", text.replace("dt = 0.01", "dt = 0.02"))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    outcome = run_scenario(parse_scenario_text(open(path).read()), tmp_path / "again")
    values = np.array(list(outcome.results.values()))
    assert np.all(np.isfinite(values))
    assert outcome.results["leakage"] + outcome.results["port2_yield"] == pytest.approx(1.0, abs=1e-4)
    manifest = (tmp_path / "out" / "diode-markov" / "manifest.ini").read_text()
    assert "results_finite = true" in manifest
    assert "leakage_plus_yield" in manifest
    assert "all_ok = true" in manifest


def test_port_invariants_fail_on_nan_and_excess():
    from photonflow.scenario import _port_invariants

    out = RunOutcome()
    _port_invariants(out, [0.1, float("nan")], 0.1, float("nan"))
    assert out.invariant_failures == ["results_finite", "leakage_plus_yield"]
    out = RunOutcome()
    _port_invariants(out, [[1.0, 0.5, 0.6]], [0.5], [0.6])
    assert out.invariant_failures == ["leakage_plus_yield"]


def test_impedance_scan_checks_invariants(tmp_path):
    text = """
[scenario]
name = impedance
kind = ImpedanceScan

[diode]
gamma = 1.0
gamma2 = 20.0

[scan]
ratios = 0.5 1.0 2.0

[pulse]
duration = 8.0
"""
    outcome = run_scenario(parse_scenario_text(text), tmp_path / "o")
    assert outcome.invariants["results_finite"] is True
    assert outcome.invariants["leakage_plus_yield"] <= 1.0 + 1e-6
    assert outcome.results["best_ratio"] == 1.0


CALL_LIMIT_S = 30.0  # no call of the exit-code tests takes a second; a hang fails its case


@contextlib.contextmanager
def time_limit():
    """Raise TimeoutError in the block once it has run ``CALL_LIMIT_S`` (SIGALRM: a
    forked scan worker inherits no timer, and the pool stops with the call)."""
    def expire(signum, frame):
        raise TimeoutError(f"call still running after {CALL_LIMIT_S:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def sections_of(text: str) -> dict:
    """section -> {key -> value} of a scenario text."""
    sections: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            current = sections.setdefault(line[1:-1], {})
        elif line:
            k, v = line.split("=", 1)
            current[k.strip()] = v.strip()
    return sections


def shipped_with(name: str, section: str, key: str, value: str) -> str:
    """Text of a shipped scenario with ``section.key`` set to ``value``."""
    return edited(sections_of((SCENARIO_DIR / f"{name}.ini").read_text()), section, key, value)


def edited(sections: dict, section: str, key: str, value: str) -> str:
    """The scenario text of ``sections`` with ``section.key`` set to ``value``."""
    sections = {s: dict(kv) for s, kv in sections.items()}
    sections.setdefault(section, {})[key] = value
    if section == "reservoir":  # a reservoir takes its coupling or its target rate, not both
        other = {"coupling": "target_gamma", "target_gamma": "coupling"}.get(key)
        sections[section].pop(other, None)
    return text_of(sections)


def text_of(sections: dict) -> str:
    return "\n".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in sections.items()
    )


@pytest.mark.parametrize("name, section, key, value", [
    ("markov_decay", "run", "t_final", "1e300"),
    ("markov_decay", "reservoir", "eps_max", "1e300"),
    ("zeno_scan", "run", "t_final", "1e300"),
    ("zeno_scan", "reservoir", "eps_max", "1e300"),
    ("anti_zeno_scan", "run", "t_final", "1e300"),
    ("anti_zeno_scan", "reservoir", "eps_max", "1e300"),
    ("lindblad_transfer", "model", "gamma", "1e300"),
    ("lindblad_transfer", "run", "t_final", "1e300"),
    ("dark_state", "model", "gamma", "1e300"),
    ("dark_state", "run", "t_final", "1e300"),
    ("diode_markov", "run", "dt", "1e-300"),
    ("diode_markov", "diode", "gamma", "1e-300"),
    ("diode_markov", "pulse", "duration", "1e300"),
    ("impedance_scan", "diode", "gamma", "1e-300"),
    ("interference", "run", "t_final", "1e300"),
    ("diode_full", "reservoir", "coupling", "1e3"),  # 4e7 quadrature steps
])
def test_cli_validate_rejects_grids_too_long_to_hold(tmp_path, capsys, name, section, key, value):
    path = write(tmp_path, "g.ini", shipped_with(name, section, key, value))
    assert main(["validate", path]) == 2
    assert "run.t_final" in capsys.readouterr().err


@pytest.mark.parametrize("name, section, key", [
    ("zeno_scan", "zeno", "taus"),
    ("dark_state", "run", "t_final"),
])
def test_cli_fits_decay_on_a_1e_300_window(tmp_path, name, section, key):
    # the exponential fit runs in the window's own time unit, so its length does not matter
    path = write(tmp_path, "w.ini", shipped_with(name, section, key, "1e-300"))
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name, section, key, value, code, named", [
    ("zeno_scan", "reservoir", "target_gamma", "1e-300", 3, "gamma_free_positive"),
    ("anti_zeno_scan", "reservoir", "coupling", "1e-300", 3, "gamma_free_positive"),
    ("anti_zeno_scan", "reservoir", "center", "1e300", 3, "gamma_free_positive"),
    ("diode_markov", "pulse", "duration", "1e-300", 2, "pulse.duration"),
    ("diode_full", "reservoir", "eps_max", "1e300", 2, "reservoir.target_gamma"),
    ("diode_full", "diode", "gamma2", "1e300", 2, "reservoir.target_gamma"),
    # the Markov reference of the comparisons has no sample on so short a window
    ("diode_full", "run", "t_final", "1e-300", 2, "run.t_final"),
    ("diode_full", "run", "t_final", "0.05", 2, "run.t_final"),
    ("diode_full", "pulse", "t0", "-1e300", 2, "pulse.t0"),
    ("diode_full", "reservoir", "coupling", "1e300", 2, "reservoir.coupling"),
    ("lindblad_transfer", "initial", "state", "mixed 1.7e308 1 0 ; 1.7e308 0 1", 2,
     "initial.state"),
    ("interference", "reservoir", "coupling", "1e300", 2, "reservoir.coupling"),
    ("impedance_scan", "diode", "gamma", "1e300", 2, "diode.gamma"),
    # the coupling, not eps_max, sets the fastest phase that dt must resolve
    ("markov_decay", "reservoir", "coupling", "1e140", 2, "reservoir.coupling"),
    ("markov_decay", "reservoir", "target_gamma", "1e300", 2, "reservoir.target_gamma"),
    ("zeno_scan", "reservoir", "target_gamma", "1e300", 2, "reservoir.target_gamma"),
    # each rule the library owns, run by the build through the constructor that checks it
    ("markov_decay", "reservoir", "f", "0", 2, "reservoir.f"),
    ("markov_decay", "reservoir", "eps_max", "-1", 2, "reservoir.eps_max"),
    ("anti_zeno_scan", "reservoir", "width", "0", 2, "reservoir.width"),
    ("zeno_scan", "reservoir", "target_gamma", "0", 2, "reservoir.target_gamma"),
    ("diode_full", "reservoir", "target_gamma", "-1", 2, "reservoir.target_gamma"),
    ("diode_full", "reservoir", "coupling", "1e-300", 2, "reservoir.coupling"),
    ("lindblad_transfer", "model", "gamma", "0", 2, "model.gamma"),
    ("lindblad_transfer", "space", "dims", "3 4 5", 2, "space.dims"),
    ("lindblad_transfer", "initial", "state", "fock 1 0 0", 2, "initial.state"),
    ("lindblad_transfer", "run", "t_final", "-1", 2, "run.t_final"),
    ("lindblad_transfer", "output", "stride", "0", 2, "output.stride"),
    ("markov_decay", "run", "dt", "0", 2, "run.dt"),
    ("diode_markov", "pulse", "duration", "0", 2, "pulse.duration"),
    ("diode_markov", "diode", "gamma1", "0", 2, "diode.gamma1"),
    ("diode_full", "grid1", "delta_max", "0", 2, "grid1.delta_max"),
    ("port2_reflection", "grid2", "delta_max", "-1", 2, "grid2.delta_max"),
    ("port2_reflection", "run", "t_final", "0", 2, "run.t_final"),
    ("zeno_scan", "zeno", "taus", "0", 2, "zeno.taus"),
    ("impedance_scan", "scan", "ratios", "-1", 2, "scan.ratios"),
    # the window, the Zeno count and periods and the ImpedanceScan rates, checked by the library
    ("markov_decay", "fit", "window", "0.5 1 2", 2, "fit.window"),
    ("zeno_scan", "zeno", "n_measurements", "100000000", 2, "zeno.n_measurements"),
    ("zeno_scan", "zeno", "n_measurements", "1" + "0" * 400, 2, "zeno.n_measurements"),
    ("zeno_scan", "zeno", "taus", "1e308", 2, "zeno.taus"),  # 60 periods overflow
    ("impedance_scan", "scan", "ratios", "0", 2, "scan.ratios"),
    ("impedance_scan", "scan", "ratios", "1 0", 2, "scan.ratios"),
    ("impedance_scan", "diode", "gamma2", "-1", 2, "diode.gamma2"),
    # the rates that simulation_window checks, each under its own key
    ("diode_full", "diode", "gamma1", "-1", 2, "diode.gamma1"),
    ("diode_full", "diode", "gamma2", "0", 2, "diode.gamma2"),
    ("port2_reflection", "diode", "gamma2", "-1", 2, "diode.gamma2"),
])
def test_cli_single_key_edit_exits_2_or_3(tmp_path, capsys, name, section, key, value, code, named):
    # a configuration error names a key at validate; a run that cannot hold
    # its invariants reports them in the manifest; neither ends in a traceback
    path = write(tmp_path, "e.ini", shipped_with(name, section, key, value))
    with time_limit():
        assert main(["validate", path]) == (2 if code == 2 else 0)
    with time_limit():
        assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert f"error: {named}:" in err and key in err
    else:
        (manifest,) = (tmp_path / "out").rglob("manifest.ini")
        assert f"failures = {named}\n" in manifest.read_text()


@pytest.mark.parametrize("ratios, shown", [("-1", "-1.0"), ("0", "0.0"), ("1 0", "0.0")])
def test_impedance_scan_error_shows_the_ratio(tmp_path, capsys, ratios, shown):
    # the ratio is checked before it scales gamma into gamma1
    path = write(tmp_path, "r.ini", shipped_with("impedance_scan", "scan", "ratios", ratios))
    assert main(["validate", path]) == 2
    assert f"error: scan.ratios: ratios must be positive and finite, got {shown}\n" in (
        capsys.readouterr().err)


def test_purification_work_does_not_follow_the_rate(tmp_path):
    # the default window 30 / gamma and dt make h grow as 1 / gamma and ||S||_1 as gamma,
    # so the ceil(h ||S||_1) sub-steps of the interval propagators do not move
    products = set()
    for gamma in ("1", "1e-4", "1e-300"):
        path = write(tmp_path, "p.ini", shipped_with("purification", "model", "gamma", gamma))
        out = tmp_path / gamma
        with time_limit():
            assert main(["run", path, "--out", str(out)]) == 0
        assert "all_ok = true\n" in next(out.rglob("manifest.ini")).read_text()
        products.add(_derived(out)["generator_products"])
    assert len(products) == 1


# --- a kind accepts exactly the keys its build reads ----------------------------------------


@pytest.mark.parametrize("name, section, key, value", [
    ("markov_decay", "reservoir", "center", "40.0"),
    ("markov_decay", "reservoir", "width", "2.5"),
    ("markov_decay", "reservoir", "omegas", "1 2 3"),
    ("zeno_scan", "output", "stride", "5"),
    ("diode_full", "output", "stride", "5"),
    ("port2_reflection", "output", "stride", "5"),
    ("impedance_scan", "output", "stride", "5"),
    ("diode_full", "pulse", "kind", "gaussian"),
])
def test_cli_validate_rejects_a_key_the_build_ignores(tmp_path, capsys, name, section, key, value):
    path = write(tmp_path, "k.ini", shipped_with(name, section, key, value))
    assert main(["validate", path]) == 2
    assert f"error: {section}.{key}: unknown key for kind" in capsys.readouterr().err


@pytest.mark.parametrize("name, section, key", [
    ("lindblad_transfer", "run", "t_final"),
    ("dark_state", "run", "t_final"),
    ("lindblad_transfer", "initial", "state"),
    ("dark_state", "initial", "state"),
    ("interference", "initial", "state"),
])
def test_cli_validate_names_a_missing_required_key(tmp_path, capsys, name, section, key):
    sections = sections_of((SCENARIO_DIR / f"{name}.ini").read_text())
    del sections[section][key]
    path = write(tmp_path, "m.ini", text_of(sections))
    assert main(["validate", path]) == 2
    assert f"error: {section}.{key}: required key is missing" in capsys.readouterr().err


def test_cli_validate_rejects_an_unknown_section(tmp_path, capsys):
    path = write(tmp_path, "b.ini", LINDBLAD_SCENARIO + "\n[bogus]\n")
    assert main(["validate", path]) == 2
    assert "error: bogus: unknown section for kind LindbladTransfer" in capsys.readouterr().err


# --- files and directories ----------------------------------------------------------------


def test_cli_reads_a_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf" + LINDBLAD_SCENARIO.encode())
    assert main(["validate", str(path)]) == 0


def test_cli_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(LINDBLAD_SCENARIO.replace("transfer", "transf\xe9r").encode("latin-1"))
    assert main(["validate", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_cli_rejects_a_nul_character(tmp_path, capsys):
    path = write(tmp_path, "z.ini", LINDBLAD_SCENARIO.replace("stride = 20", "dir = a\0b"))
    assert main(["run", path]) == 2
    assert "NUL character" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["", ".", "..", "../../x", "a/b", "a\\b"])
def test_cli_rejects_a_name_that_is_not_one_path_component(tmp_path, capsys, name):
    path = write(tmp_path, "n.ini", LINDBLAD_SCENARIO.replace("name = transfer", f"name = {name}"))
    out = tmp_path / "a" / "b"
    assert main(["run", path, "--out", str(out)]) == 2
    assert "error: scenario.name:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n.ini"]


@pytest.mark.parametrize("command", [
    ["run"], ["scan", "--axis", "model.gamma", "--values", "1,2"],
], ids=["run", "scan"])
def test_cli_names_an_output_directory_it_cannot_create(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = write(tmp_path, "o.ini", LINDBLAD_SCENARIO)
    assert main([*command, path, "--out", str(blocker / "x")]) == 2
    assert f"error: --out: cannot create {blocker / 'x'}" in capsys.readouterr().err
    path = write(tmp_path, "o.ini", LINDBLAD_SCENARIO.replace("stride = 20", f"dir = {blocker}"))
    assert main([*command, path]) == 2
    assert f"error: output.dir: cannot create {blocker}" in capsys.readouterr().err


ROUTER_SCENARIO = """
[scenario]
name = router
kind = DiodeFull

[reservoir]
f = 40
eps_max = 0.002
target_gamma = 1.0

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

# an engineered spectrum: no golden-rule rate and no comb recurrence
LORENTZIAN_SCENARIO = """
[scenario]
name = lorentzian
kind = MicroscopicDecay

[reservoir]
f = 120
eps_max = 20.0
coupling = 0.2
spectrum = lorentzian
center = 0.0
width = 5.0

[run]
t_final = 2.5

[fit]
window = 0.4 2.5

[output]
stride = 10
"""

REFLECTION_SCENARIO = """
[scenario]
name = reflection
kind = Port2Reflection

[diode]
gamma2 = 4.0

[grid2]
n_q = 400
delta_max = 10.0

[pulse]
duration = 10.0
"""


def _derived(out: Path) -> configparser.SectionProxy:
    manifest = configparser.ConfigParser()
    manifest.read(next(out.rglob("manifest.ini")))
    return manifest["derived"]


def test_diode_full_run_solves_cavity2_once(tmp_path, monkeypatch):
    # the parse builds the scenario once, and evolve_full uses the C2 its grid2 keeps
    calls = []
    solve = diode._arrowhead_eigensystem

    def counted_solve(poles, z):
        calls.append(poles)
        return solve(poles, z)

    monkeypatch.setattr(diode, "_arrowhead_eigensystem", counted_solve)
    path = tmp_path / "router.ini"
    path.write_text(ROUTER_SCENARIO)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    derived = _derived(tmp_path / "out")
    assert 0 < int(derived["secular_iterations"]) <= 8
    # x = eps_max t_final / 2 = 0.074 cuts the Taylor series of the 40 classes at 11 terms
    assert float(derived["t_final"]) == 74.0 and int(derived["bath_channels"]) == 11


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_point_runs_the_cavity2_its_build_solved(tmp_path, monkeypatch, jobs):
    # each point's build solves C2 on its grid2 and its run, also in a --jobs worker,
    # uses that solve; the count is kept in a file, so forked workers count too
    from photonflow import scenario as sc_mod

    log = tmp_path / "solves.log"
    solve = diode._arrowhead_eigensystem
    kind = sc_mod._KINDS["DiodeFull"]
    run = kind.run
    running = []

    def counted_solve(poles, z):
        with open(log, "a") as fh:
            fh.write(f"{'run' if running else 'build'} {poles.size}\n")
        return solve(poles, z)

    def marked_run(inputs):
        running.append(True)
        try:
            return run(inputs)
        finally:
            running.pop()

    monkeypatch.setattr(diode, "_arrowhead_eigensystem", counted_solve)
    monkeypatch.setattr(kind, "run", marked_run)
    sc = parse_scenario_text(ROUTER_SCENARIO)
    log.write_text("")
    rows = scan_scenario(sc, "grid2.n_q", [160, 170], tmp_path / "scan", jobs=jobs)
    assert [value for value, _ in rows] == [160, 170]
    assert log.read_text().splitlines() == ["build 160", "build 170"]


def test_diode_full_build_inverts_target_gamma_on_its_own_spec(monkeypatch):
    # the spec is made at unit coupling, which the inversion reads, and once more at the
    # coupling it gives, with the bits of coupling_for_diode_rate's
    made = []
    post_init = reservoir.ReservoirSpec.__post_init__

    def counted(self):
        made.append(self.coupling)
        post_init(self)

    monkeypatch.setattr(reservoir.ReservoirSpec, "__post_init__", counted)
    spec = parse_scenario_text(ROUTER_SCENARIO).inputs.spec
    assert made == [1.0, spec.coupling]
    assert spec.coupling == diode.coupling_for_diode_rate(40, 0.002, 20.0, 1.0)


def test_validate_states_the_quadrature_steps_of_a_diode_full_run(tmp_path, capsys):
    # the coupling sets the generator norm and with it the step: 40 takes 29 times the
    # 4444 steps of the target-rate file
    path = write(tmp_path, "router.ini",
                 ROUTER_SCENARIO.replace("target_gamma = 1.0", "coupling = 40"))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["OK: router (DiodeFull)",
                                                    "quadrature_steps = 128024"]
    path = write(tmp_path, "lindblad.ini", LINDBLAD_SCENARIO)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["OK: transfer (LindbladTransfer)"]


def test_reflection_run_records_secular_iterations(tmp_path):
    path = tmp_path / "reflection.ini"
    path.write_text(REFLECTION_SCENARIO)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert 0 < int(_derived(tmp_path / "out")["secular_iterations"]) <= 8


def test_lorentzian_decay_leaves_out_results_that_do_not_apply(tmp_path, capsys):
    path = tmp_path / "lorentzian.ini"
    path.write_text(LORENTZIAN_SCENARIO)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "gamma_markov" not in capsys.readouterr().out
    text = next((tmp_path / "out").rglob("manifest.ini")).read_text()
    manifest = configparser.ConfigParser()
    manifest.read_string(text)
    assert list(manifest["results"]) == ["gamma_fit", "fit_residual", "survival_final"]
    assert "recurrence_time" not in manifest["derived"]
    assert not re.search(r"\b(nan|inf)\b", text)


def test_master_build_makes_the_generator_its_run_propagates(tmp_path, monkeypatch):
    # the build bounds the sub-steps on the generator, which the model keeps for the run
    made = []
    superoperator = lindblad._superoperator
    monkeypatch.setattr(lindblad, "_superoperator", lambda model: made.append(model)
                        or superoperator(model))
    sc = parse_scenario_text(LINDBLAD_SCENARIO)
    assert len(made) == 1 and made[0] is sc.inputs.model
    run_scenario(sc, tmp_path / "out")
    assert len(made) == 1


def test_master_run_records_support_and_products(tmp_path, monkeypatch):
    # fock 1 0 on 3 x 4 modes: only the photon's two diagonal entries of the 144 move,
    # one component of S's pattern, so the build carries 2 columns of 2 entries and
    # their identity part (8 entries), and each snapshot multiplies S and Phi_h by 2
    sizes = []  # the length of every vector a SparseGenerator multiplies
    matmul = SparseGenerator.__matmul__

    def counted(self, y):
        sizes.append(y.size)
        return matmul(self, y)

    monkeypatch.setattr(SparseGenerator, "__matmul__", counted)
    path = SCENARIO_DIR / "lindblad_transfer.ini"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    derived = _derived(tmp_path / "out")
    assert int(derived["total_dim"]) ** 2 == 144
    assert int(derived["propagated_entries"]) == 2
    assert int(derived["generator_products"]) == len(sizes) > 0 and set(sizes) == {2, 8}
    assert int(derived["propagator_entries"]) == 3  # no entry leads back to the source


# --- the exit-code contract under single-key edits -------------------------------------------

# every shipped file that runs in well under a second, with reduced-size
# stand-ins for the two that do not, and a decay on an engineered spectrum,
# which has fewer results than one on the equidistant comb
FAST_FILES = {
    p.stem: sections_of(p.read_text())
    for p in sorted(SCENARIO_DIR.glob("*.ini")) if p.stem not in ("diode_full", "port2_reflection")
}
FAST_FILES.update(diode_full=sections_of(ROUTER_SCENARIO),
                  port2_reflection=sections_of(REFLECTION_SCENARIO),
                  lorentzian_decay=sections_of(LORENTZIAN_SCENARIO))
# an edit sets a key of its own file or adds one that another kind reads
EDITABLE_KEYS = sorted(
    {(s, k) for kv in FAST_FILES.values() for s in kv for k in kv[s]} - {("scenario", "name")}
)
EDIT_VALUES = [
    "0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", "nan", "inf", "-inf", "abc", "",
    "0.5 3.0", "1 0", "2", "0.05", "1.5", "40", "dark", "lorentzian", "DarkState",
]


def single_key_edit_exit_code(name: str, edit: tuple, value: str) -> int:
    """The exit code of one edit of a FAST_FILES file, checked against the contract:
    a configuration error is exit 2 at validate; a validated file runs to exit 0
    with finite results, or to exit 3 naming its failed invariants."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.ini"
        path.write_text(edited(FAST_FILES[name], *edit, value))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with time_limit():
                code = main(["validate", str(path)])
            assert code in (0, 2)
            if code == 2:
                return code
            with time_limit():
                code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 3)
        if code == 0:
            manifest = configparser.ConfigParser()
            manifest.read(next((Path(tmp) / "out").rglob("manifest.ini")))
            assert all(math.isfinite(float(v)) for v in manifest["results"].values())
        return code


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(name=st.sampled_from(sorted(FAST_FILES)), edit=st.sampled_from(EDITABLE_KEYS),
       value=st.sampled_from(EDIT_VALUES))
def test_cli_exit_code_contract_under_single_key_edits(name, edit, value):
    single_key_edit_exit_code(name, edit, value)


@pytest.mark.skipif(os.environ.get("PHOTONFLOW_EXHAUSTIVE") != "1",
                    reason="all 6,480 single-key edits, about 30 s: set PHOTONFLOW_EXHAUSTIVE=1")
def test_cli_exit_code_contract_under_every_single_key_edit():
    # the whole space the property test samples from, each failing edit listed
    codes, failures = collections.Counter(), []
    for name, edit, value in itertools.product(sorted(FAST_FILES), EDITABLE_KEYS, EDIT_VALUES):
        try:
            codes[single_key_edit_exit_code(name, edit, value)] += 1
        except Exception as exc:  # a broken contract, a traceback, a warning or a hang
            failures.append(f"{name}: {'.'.join(edit)} = {value!r}: {exc!r}")
    print(f"exit codes of {sum(codes.values())} edits: {dict(sorted(codes.items()))}")
    assert not failures, "\n".join(failures)


# a reduced decay for the scan arguments: its numeric keys, its two-number fit window,
# a key it does not have and a name without a section
SCAN_SCENARIO = """
[scenario]
name = scan
kind = MicroscopicDecay

[reservoir]
f = 40
eps_max = 20.0
target_gamma = 1.0

[run]
t_final = 1.0
dt = 0.0025

[fit]
window = 0.2 1.0

[output]
stride = 10
"""
# each axis with values that run, or none
SCAN_AXES = {
    "reservoir.f": ["30", "50"], "reservoir.eps_max": ["10", "20"],
    "reservoir.target_gamma": ["0.5", "2"], "run.t_final": ["1", "1.5"], "run.dt": ["0.002"],
    "output.stride": ["1", "30"], "fit.window": [], "reservoir.coupling": [], "f": [],
}
SCAN_BAD_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "abc", ""]


@st.composite
def scan_arguments(draw):
    """An axis and a list of values: values that run, or those mixed with bad ones."""
    axis = draw(st.sampled_from(sorted(SCAN_AXES)))
    good = SCAN_AXES[axis] or ["1"]
    values = draw(st.one_of(st.lists(st.sampled_from(good), min_size=1, max_size=3),
                            st.lists(st.sampled_from(good + SCAN_BAD_VALUES), max_size=4)))
    return axis, values


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(args=scan_arguments(), jobs=st.sampled_from([0, 1, 2]))
def test_cli_exit_code_contract_under_scan_arguments(args, jobs):
    # a scan exits 2 on a bad axis or value, 3 when a point fails an invariant, and
    # 0 with one summary row per value, in the order given
    axis, values = args
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ini"
        path.write_text(SCAN_SCENARIO)
        argv = ["scan", str(path), "--axis", axis, "--values", ",".join(values),
                "--jobs", str(jobs), "--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with time_limit():
                code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            rows = (Path(tmp) / "scan_scan" / "scan_summary.csv").read_text().splitlines()[1:]
            assert [float(row.split(",")[0]) for row in rows] == [float(v) for v in values if v]


@pytest.mark.parametrize("name", sorted(FAST_FILES))
def test_run_prints_the_manifest_results_in_order(tmp_path, capsys, name):
    path = tmp_path / "s.ini"
    path.write_text(text_of(FAST_FILES[name]))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    printed = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()
               if " = " in line]
    manifest = configparser.ConfigParser()
    manifest.read(next((tmp_path / "out").rglob("manifest.ini")))
    assert printed == list(manifest["results"])
