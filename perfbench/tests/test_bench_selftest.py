"""Fast self-tests of the benchmark harness (not part of the tier-1 suite).

    python -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# --- seeded generator ----------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_files(workload):
    a = workloads.build(workload, 7)
    b = workloads.build(workload, 7)
    assert [(s.filename, s.text, s.values) for s in a] == [(s.filename, s.text, s.values) for s in b]
    c = workloads.build(workload, 8)
    assert [s.text for s in a] != [s.text for s in c]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_leaves_sizes_and_windows_fixed(workload):
    fixed = ("dims", "f", "n_q", "delta_max", "t_final", "dt", "duration", "n_measurements",
             "stride", "eps_max", "width")

    def sizes(step):
        keys = {}
        for line in step.text.splitlines():
            key, _, value = line.partition(" = ")
            if key in fixed:
                keys.setdefault(key, []).append(value)
        return keys, len(step.values)

    runs = [[sizes(s) for s in workloads.build(workload, seed)] for seed in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_zeno_periods_keep_their_step_counts():
    import math

    for seed in range(20):
        for step in workloads.build("open_system", seed):
            for line in step.text.splitlines():
                if line.startswith("taus = "):
                    taus = [float(x) for x in line.split("=")[1].split()]
                    counts = [math.ceil(t / workloads._RES_DT - 1e-12) for t in taus]
                    assert tuple(counts) == workloads._ZENO_STEPS


# --- self time -------------------------------------------------------------------


def span(sid, parent, start, end, name="scenario.run_scenario", pid=1, attrs=None):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "pid": pid, "attrs": attrs}


def test_self_time_is_duration_minus_child_cover():
    spans = [
        span("a", None, 0.0, 10.0),
        # two overlapping children (parallel scan workers) and one that
        # ends after its parent: their union inside [0, 10] is [1, 5] + [8, 10]
        span("b", "a", 1.0, 3.0, pid=2),
        span("c", "a", 2.0, 5.0, pid=3),
        span("d", "a", 8.0, 12.0),
        span("e", "b", 1.5, 2.5),
    ]
    own = tracer.self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 6.0)
    assert own["b"] == pytest.approx(2.0 - 1.0)
    assert own["c"] == pytest.approx(3.0)
    assert own["e"] == pytest.approx(1.0)


def test_layer_metrics_sum_self_times_and_counters():
    spans = [
        span("r", None, 0.0, 4.0, attrs={"bytes": 100, "runner_s": 3.0}),
        span("e", "r", 0.5, 2.5, name="lindblad.evolve", attrs={"snapshots": 11}),
        span("p", "e", 1.0, 1.5, name="fock.DensityMatrix.purity"),
        span("q", "e", 1.5, 2.0, name="fock.DensityMatrix.purity", pid=9),
    ]
    m = tracer.layer_metrics(spans, main_pid=1)
    assert m["scenario.self_s"] == pytest.approx(2.0)
    assert m["lindblad.evolve_s"] == pytest.approx(1.0)
    assert m["fock.observables_s"] == pytest.approx(1.0)
    assert m["fock.observables_calls"] == 2
    assert m["scenario.write_s"] == pytest.approx(1.0)
    assert m["scenario.bytes_written"] == 100
    assert m["lindblad.snapshots"] == 11
    assert m["trace.worker_spans"] == 1


# --- oracle gate -------------------------------------------------------------------


GOOD_DIODE = textwrap.dedent("""\
    [manifest]
    name = router-diode-full
    kind = DiodeFull
    status = completed
    wall_seconds = 5.0

    [results]
    leakage = 0.002
    port2_yield = 0.998
    q_match_rel_err = 0.03
    rho_out_match_rel_err = 0.06
    min_overlap = 0.9999
    weighted_purity = 0.9999
    norm_drift = 3e-12

    [invariants]
    norm_drift = 3e-12
    failures = none
    all_ok = true
""")


def _write_run(tmp_path, text):
    step = workloads.build("router", 1)[0]
    result_dir = step.result_dir(tmp_path)
    result_dir.mkdir(parents=True)
    (result_dir / "manifest.ini").write_text(text)
    return step


def test_oracle_passes_a_good_manifest(tmp_path):
    step = _write_run(tmp_path, GOOD_DIODE)
    assert oracles.check_step(step, tmp_path, 0) == []


@pytest.mark.parametrize("old, new", [
    ("leakage = 0.002", "leakage = 0.2"),
    ("q_match_rel_err = 0.03", "q_match_rel_err = 0.051"),
    ("min_overlap = 0.9999", "min_overlap = 0.98"),
    ("all_ok = true", "all_ok = false"),
    ("port2_yield = 0.998", "port2_yield = nan"),
])
def test_oracle_fails_a_corrupted_manifest(tmp_path, old, new):
    step = _write_run(tmp_path, GOOD_DIODE.replace(old, new))
    assert oracles.check_step(step, tmp_path, 0)


def test_oracle_fails_a_nonzero_exit(tmp_path):
    step = _write_run(tmp_path, GOOD_DIODE)
    assert oracles.check_step(step, tmp_path, 3)


def test_scan_oracle_needs_every_finite_row(tmp_path):
    step = workloads.build("param_sweep", 1)[2]  # DiodeMarkov over gamma1
    result_dir = step.result_dir(tmp_path)
    gamma = step.expect["gamma"]
    rows = []
    for i, v in enumerate(step.values):
        point = result_dir / f"point_{i:03d}"
        point.mkdir(parents=True)
        (point / "manifest.ini").write_text("[invariants]\nall_ok = true\n")
        rows.append(f"{v},{abs(float(v) - gamma) + 0.01},0.9,0.9")
    header = "diode.gamma1,leakage,port2_yield,yield_factorized\n"
    (result_dir / "scan_summary.csv").write_text(header + "\n".join(rows) + "\n")
    assert oracles.check_step(step, tmp_path, 0) == []
    (result_dir / "scan_summary.csv").write_text(header + "\n".join(rows[:-1]) + "\n")
    assert oracles.check_step(step, tmp_path, 0)
    rows[3] = rows[3].replace(",0.9,0.9", ",nan,0.9")
    (result_dir / "scan_summary.csv").write_text(header + "\n".join(rows) + "\n")
    assert oracles.check_step(step, tmp_path, 0)


def test_csv_digest_sees_a_changed_byte(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "timeseries.csv").write_text("t,x\n0,1\n")
    first = oracles.csv_digest(tmp_path)
    (tmp_path / "a" / "timeseries.csv").write_text("t,x\n0,2\n")
    assert oracles.csv_digest(tmp_path) != first


# --- tracer on a real scan --------------------------------------------------------


def test_tracer_sees_cli_calls_and_forked_scan_workers(tmp_path):
    script = textwrap.dedent(f"""
        import json, os, sys
        from pathlib import Path
        sys.path.insert(0, {str(BENCH)!r})
        import tracer
        from photonflow import cli
        tr = tracer.Tracer(Path("spans"), "selftest", "run0")
        tr.install()
        Path("s.ini").write_text(
            "[scenario]\\nname = t\\nkind = LindbladTransfer\\n[space]\\ndims = 2 2\\n"
            "[model]\\ngamma = 1.0\\n[initial]\\nstate = fock 1 0\\n[run]\\nt_final = 0.5\\n")
        assert cli.main(["run", "s.ini", "--out", "out"]) == 0
        assert cli.main(["scan", "s.ini", "--axis", "model.gamma", "--values", "1,2,3",
                         "--out", "out", "--jobs", "2"]) == 0
        tr.flush()
        print(json.dumps(os.getpid()))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    main_pid = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = tracer.load_spans(tmp_path / "spans")
    names = [s["name"] for s in spans]
    assert names.count("scenario.run_scenario") == 4  # one run, three scan points
    assert names.count("scenario.scan_scenario") == 1
    assert "fock.DensityMatrix.purity" in names
    scan = next(s for s in spans if s["name"] == "scenario.scan_scenario")
    workers = [s for s in spans if s["pid"] != main_pid]
    assert workers, "scan worker spans reach the trace"
    top = [s for s in workers if s["name"] == "scenario.run_scenario"]
    assert len(top) == 3 and all(s["parent"] == scan["id"] for s in top)
    m = tracer.layer_metrics(spans, main_pid)
    assert m["lindblad.evolve_calls"] == 4
    assert m["scenario.bytes_written"] > 0
