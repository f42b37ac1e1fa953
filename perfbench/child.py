"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py``.  Imports photonflow from the checkout, writes the
workload's scenario files for the seed, passes each through
``photonflow validate`` and then, unless ``--setup-only``, makes the
workload's ``run`` and ``scan`` calls in sequence through
``photonflow.cli.main``.  Writes its timings and exit codes to
``<workdir>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _call(cli, argv: list, log) -> int:
    """Exit code of ``photonflow <argv>``; an escaping exception counts as 1."""
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        log.write(traceback.format_exc())
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from photonflow import cli

    import workloads

    workdir = Path(args.workdir)
    scenario_dir = workdir / "scenarios"
    out_dir = workdir / "out"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    result = {"pid": os.getpid()}
    with open(workdir / "photonflow.log", "w") as log:
        if args.trace:
            import tracer

            tr = tracer.Tracer(workdir / "spans", args.workload, workdir.name)
            tr.install()
        steps = workloads.build(args.workload, args.seed)
        for step in steps:
            (scenario_dir / step.filename).write_text(step.text)
        result["validate_exit_codes"] = [
            _call(cli, ["validate", str(scenario_dir / s.filename)], log) for s in steps
        ]
        t_first = time.monotonic()
        result["setup_s"] = t_first - args.spawned_at
        if not args.setup_only:
            cpu0 = _cpu_seconds()
            result["exit_codes"], result["step_s"] = [], []
            for step in steps:
                t0 = time.monotonic()
                result["exit_codes"].append(_call(cli, step.argv(scenario_dir, out_dir), log))
                result["step_s"].append(time.monotonic() - t0)
            result["wall_s"] = time.monotonic() - t_first
            result["cpu_s"] = _cpu_seconds() - cpu0
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            result["peak_rss_mib"] = (own + workers) / 1024.0
        if args.trace:
            tr.flush()
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    try:
        result["blas"] = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        result["blas"] = "unknown"
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
