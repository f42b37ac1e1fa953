"""Command-line front end.

    photonflow run SCENARIO [--out DIR]
    photonflow scan SCENARIO --axis SECTION.KEY --values v1,v2,... [--out DIR] [--jobs N]
    photonflow validate SCENARIO

``validate`` prints OK and, for a DiodeFull file, the quadrature steps of
its memory-kernel solve, the work its run implies.

Exit codes: 0 success, 2 parse or configuration error, 3 runtime
invariant failure.  ``main`` returns them and never raises ``SystemExit``:
a command-line error returns 2, with argparse's message naming the
argument on stderr, and ``-h`` returns 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, InvalidInput, InvariantViolation, ScenarioError
from .scenario import parse_scenario, run_scenario, scan_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonflow",
        description="Config-driven simulator of irreversible photon transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file")
    p_run.add_argument("scenario", help="path to a scenario file")
    p_run.add_argument("--out", default=None, help="output directory (default: [output] dir)")

    p_scan = sub.add_parser("scan", help="run a scenario once per axis value")
    p_scan.add_argument("scenario", help="path to a scenario template")
    p_scan.add_argument("--axis", required=True, help="parameter to vary, as section.key")
    p_scan.add_argument("--values", required=True, help="comma-separated numeric values")
    p_scan.add_argument("--out", default=None, help="output directory")
    p_scan.add_argument("--jobs", type=int, default=1, help="parallel scan workers")

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario", help="path to a scenario file")
    return parser


def _outdir(sc, override, suffix=""):
    """The run's directory under ``--out`` or ``output.dir``, checked before
    anything runs: its nearest existing ancestor must be a writable directory."""
    if override is not None:
        key, base = "--out", override
    else:
        key, base = "output.dir", sc.get("output", "dir", "out")
    out = Path(base) / (sc.name + suffix)
    ancestor = next(p for p in (out, *out.parents) if os.path.exists(p))
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ScenarioError(f"{key}: cannot create {out}: {ancestor} is not a writable directory")
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a value list that starts with "-" (--values -1,2) would otherwise be read as an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--values" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"--values={argv[i + 1]}"]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # -h (0) or an argparse error (2), which it names on stderr
        return exc.code
    try:
        sc = parse_scenario(args.scenario)
        if args.command == "validate":
            print(f"OK: {sc.name} ({sc.kind})")
            # the work a DiodeFull run implies: its memory-kernel solve has n steps
            steps = getattr(sc.inputs, "quadrature_steps", None)
            if steps is not None:
                print(f"quadrature_steps = {steps}")
            return 0
        if args.command == "run":
            outdir = _outdir(sc, args.out)
            for key, value in run_scenario(sc, outdir).results.items():
                print(f"{key} = {value:.10g}")
            print(f"outputs written to {outdir}")
            return 0
        # scan
        values = [v for v in args.values.split(",") if v.strip() != ""]
        if not values:
            raise ScenarioError("--values: no scan values given")
        outdir = _outdir(sc, args.out, suffix="_scan")
        scan_scenario(sc, args.axis, values, outdir, jobs=args.jobs)
        print(f"scan summary written to {outdir / 'scan_summary.csv'}")
        return 0
    except (ScenarioError, ConfigurationError, InvalidInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
