"""CSV bytes and import footprint, each checked in a fresh interpreter."""

import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = SRC.parent / "scenarios"

MICRO = """
[scenario]
name = micro
kind = MicroscopicDecay

[reservoir]
f = 200
eps_max = 25.0
target_gamma = 1.0

[run]
t_final = 2.0

[output]
stride = 5
"""

INTERFERENCE = """
[scenario]
name = interference
kind = InterferenceExact

[reservoir]
f = 200
eps_max = 25.0
target_gamma = 1.0

[initial]
state = single

[run]
t_final = 2.0

[output]
stride = 5
"""

LINDBLAD = """
[scenario]
name = transfer
kind = LindbladTransfer

[space]
dims = 3 4

[model]
gamma = 1.0

[initial]
state = mixed 0.5 2 0 ; 0.3 1 1 ; 0.2 0 1

[run]
t_final = 5.0

[output]
stride = 20
"""

PORT2 = """
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

DIODE = """
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


def _python(args, threads=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


MASTER_KINDS = ("LindbladTransfer", "PurificationMap", "DarkState")


@pytest.mark.parametrize("text", [MICRO, INTERFERENCE, LINDBLAD, PORT2,
                                  (SCENARIOS / "dark_state.ini").read_text(),
                                  (SCENARIOS / "purification.ini").read_text(), DIODE,
                                  (SCENARIOS / "diode_full.ini").read_text(),
                                  (SCENARIOS / "diode_markov.ini").read_text(),
                                  (SCENARIOS / "anti_zeno_scan.ini").read_text()],
                         ids=["micro", "interference", "lindblad-transfer", "port2-reflection",
                              "dark-state", "shipped-purification", "diode-full",
                              "shipped-diode-full", "shipped-diode-markov", "shipped-anti-zeno"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, text):
    scenario = tmp_path / "sc.ini"
    scenario.write_text(text)
    digests, results, invariants = [], [], []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        proc = _python(["-m", "photonflow.cli", "run", str(scenario), "--out", str(out)], threads)
        assert proc.returncode == 0, proc.stderr
        # a timeseries, or a Zeno kind's summary of its periods
        csvs = sorted(out.rglob("*.csv"))
        assert csvs
        digests.append({csv.relative_to(out): csv.read_bytes() for csv in csvs})
        manifest = configparser.ConfigParser()
        manifest.read(csvs[0].parent / "manifest.ini")
        results.append(dict(manifest["results"]))
        invariants.append(dict(manifest["invariants"]))
    assert digests[0] == digests[1]
    # the DiodeFull results, port-2 decomposition included, are computed without BLAS
    if "kind = DiodeFull" in text:
        assert results[0] == results[1]
    # the master-equation invariants come from the support; LAPACK sees only its blocks
    if any(f"kind = {kind}" in text for kind in MASTER_KINDS):
        assert invariants[0] == invariants[1]


def test_import_loads_no_dense_linear_algebra():
    proc = _python(["-c", "import sys, photonflow, photonflow.cli; print('\\n'.join(sys.modules))"])
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert [m for m in loaded if m.split(".")[0] in ("scipy", "threadpoolctl")] == []


def test_runs_with_scipy_blocked(tmp_path):
    scenario = SCENARIOS / "lindblad_transfer.ini"
    blocked = ("import sys; sys.modules['scipy'] = None; from photonflow.cli import main; "
               f"sys.exit(main(['run', {str(scenario)!r}, '--out', {str(tmp_path / 'blocked')!r}]))")
    proc = _python(["-c", blocked])
    assert proc.returncode == 0, proc.stderr
    proc = _python(["-m", "photonflow.cli", "run", str(scenario), "--out", str(tmp_path / "free")])
    assert proc.returncode == 0, proc.stderr
    (csv,) = (tmp_path / "blocked").rglob("timeseries.csv")
    (ref,) = (tmp_path / "free").rglob("timeseries.csv")
    assert csv.read_bytes() == ref.read_bytes()
