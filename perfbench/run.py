"""photonflow benchmark: seeded workloads through the public CLI.

    python3 perfbench/run.py --workload router|open_system|param_sweep \
        --seed N --seconds S --trace 0|1

Run from any directory of a checkout that holds ``src/photonflow``.  Each
repetition is a fresh interpreter (``child.py``) that imports photonflow,
generates the workload's scenario files from the seed, validates them and
then makes the workload's ``run``/``scan`` calls one after another (one
closed-loop client).  Repetitions continue until ``--seconds`` is used up
(at least two, so that the CSV bytes of one seed can be compared).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of traced repetitions, which alternate with untraced ones.  Every call is
checked against the acceptance-suite oracles (``oracles.py``); any miss
makes the command exit 1.  Details, the environment and the trace are
written under ``.perfbench_out/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from statistics import median, median_low
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # extra set-up-only interpreters per run, after one warm-up
MIN_REPS = 2
CHILD_TIMEOUT = 120.0
ROTATE_SECONDS = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# modules with their own line-count metric (leading underscores dropped from
# the metric name); src.lines counts every module
MODULES = ("__init__", "_integrate", "cli", "diode", "errors", "fock", "lindblad",
           "reservoir", "scenario")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(workload: str) -> dict:
    """Environment of a repetition: photonflow from the checkout with its
    bytecode cached, and processes x BLAS threads <= nproc (one thread per
    scan worker)."""
    procs = workloads.SCAN_JOBS if workload == "param_sweep" else 1
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(max(1, nproc() // procs)) for var in THREAD_VARS})
    return env


def spawn(workload, seed, workdir: Path, env, trace=False, setup_only=False) -> dict:
    """Run one repetition in a fresh interpreter and return its result.

    A single-process repetition is moved to the next CPU every
    ROTATE_SECONDS.  On a shared host the speed of each CPU drifts on its
    own, and a repetition left on one CPU read up to 40% faster or slower
    than the next; rotating halves the repetition-to-repetition spread.
    Scan workers inherit their parent's CPU set when they fork, so
    ``param_sweep`` is not rotated.
    """
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    cpus = sorted(os.sched_getaffinity(0))
    rotate = workload != "param_sweep" and len(cpus) > 1
    with open(workdir / "child.log", "w") as log:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)], env=env,
                                stdout=log, stderr=subprocess.STDOUT, cwd=workdir)
        try:
            turn = 0
            while proc.poll() is None:
                if time.monotonic() - spawned_at > CHILD_TIMEOUT:
                    raise RuntimeError(f"benchmark child exceeded {CHILD_TIMEOUT} s")
                time.sleep(ROTATE_SECONDS)
                if rotate:
                    turn += 1
                    try:
                        os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
                    except ProcessLookupError:  # exited since poll()
                        pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    elapsed = time.monotonic() - spawned_at
    result_file = workdir / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        raise RuntimeError(f"benchmark child failed ({proc.returncode}); see {workdir / 'child.log'}")
    result = json.loads(result_file.read_text())
    result["elapsed_s"] = elapsed
    return result


def source_lines() -> dict:
    """Non-blank, non-comment lines of every photonflow module."""
    counts = {}
    for path in sorted((ROOT / "src" / "photonflow").glob("*.py")):
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        counts[path.stem] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    return counts


def commit_id() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return ref


def run(args) -> int:
    steps = workloads.build(args.workload, args.seed)
    out_base = ROOT / ".perfbench_out"
    run_dir = out_base / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(args.workload)
    deadline = time.monotonic() + args.seconds

    attempted = failed = 0
    failures = []

    def setup_probe(i):
        nonlocal attempted, failed
        res = spawn(args.workload, args.seed, run_dir / f"setup{i}", env, setup_only=True)
        shutil.rmtree(run_dir / f"setup{i}")
        attempted += 1
        if any(res["validate_exit_codes"]):
            failed += 1
            failures.append({"probe": i, "validate_exit_codes": res["validate_exit_codes"]})
        return res

    # the warm-up writes bytecode caches and fills the file cache; not counted
    setup_probe(0)
    setups = [setup_probe(i)["setup_s"] for i in range(1, SETUP_PROBES + 1)]

    reps, digests = [], {}
    spans_all = []
    while len(reps) < MIN_REPS or time.monotonic() + median(
            [r["elapsed_s"] for r in reps]) <= deadline:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_dir = run_dir / f"rep{len(reps)}"
        res = spawn(args.workload, args.seed, rep_dir, env, trace=traced)
        res["traced"] = traced
        res["misses"] = {}
        for step, code in zip(steps, res["exit_codes"]):
            attempted += 1
            misses = oracles.check_step(step, rep_dir / "out", code)
            digest = oracles.csv_digest(step.result_dir(rep_dir / "out"))
            if digests.setdefault(step.name, digest) != digest:
                misses.append("CSV bytes identical to the first repetition of this seed")
            if misses:
                failed += 1
                res["misses"][step.name] = misses
                failures.append({"rep": len(reps), "step": step.name, "misses": misses})
        if traced:
            spans = tracer.load_spans(rep_dir / "spans")
            res["layers"] = tracer.layer_metrics(spans, res["pid"])
            spans_all.extend(spans)
        else:
            setups.append(res["setup_s"])
        shutil.rmtree(rep_dir)
        reps.append(res)

    plain = [r for r in reps if not r["traced"]]
    wall = median([r["wall_s"] for r in plain])
    metrics = {}
    if not args.trace:
        metrics["wall_s"] = (wall, "s")
        metrics["setup_s"] = (median(setups), "s")
        metrics["peak_rss_mib"] = (median([r["peak_rss_mib"] for r in plain]), "MiB")
    else:
        traced_reps = [r for r in reps if r["traced"]]
        for key in traced_reps[0]["layers"]:
            unit = "s" if key.endswith("_s") else "count"
            pick = median if unit == "s" else median_low  # counts stay whole
            metrics[key] = (pick([r["layers"][key] for r in traced_reps]), unit)
        cpu = median([r["cpu_s"] for r in plain])
        metrics["process.cpu_s"] = (cpu, "s")
        metrics["process.cpu_util"] = (cpu / wall, "ratio")
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced_reps]) - wall, "s")
        lines = source_lines()
        metrics["src.lines"] = (sum(lines.values()), "count")
        for mod in MODULES:
            metrics[f"{mod.strip('_')}.lines"] = (lines.get(mod, 0), "count")
        with open(run_dir / "trace.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans_all)

    environment = {
        "commit": commit_id(),
        **reps[0]["versions"],
        "blas": reps[0]["blas"],
        "nproc": nproc(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "scan_jobs": workloads.SCAN_JOBS,
        "src_lines": source_lines(),
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "environment": environment,
        "setup_samples_s": setups, "repetitions": reps, "csv_sha256": digests,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "results.json").write_text(json.dumps(details, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetitions "
          f"({len(plain)} untraced), {len(setups)} set-up samples; details in "
          f"{run_dir.relative_to(ROOT)}/results.json")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for f in failures:
        print(f"  FAILED: {f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "photonflow" / "__init__.py").is_file():
        print(f"error: no photonflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
