"""Command-line entry point for the benchmark harness.

Usage::

    python -m repro.bench list
    python -m repro.bench fig13
    python -m repro.bench fig06 fig07 --effort full
    python -m repro.bench all --effort quick
    python -m repro.bench fig07 fig21 --sanitize
"""

import argparse
import contextlib
import sys

from repro.analysis import sanitizers
from repro.bench.registry import FIGURES, run_figure
from repro.bench.timing import wall_timer
from repro.bench.workloads import shared_runs


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        help="figure ids (e.g. fig13), 'all', or 'list'",
    )
    parser.add_argument(
        "--effort",
        choices=("quick", "full"),
        default="quick",
        help="workload sizing preset (default: quick)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the SWMR and leak sanitizers armed; a violation "
        "raises, and the run fails if no SWMR check ran",
    )
    args = parser.parse_args(argv)

    if args.figures == ["list"]:
        for figure_id in sorted(FIGURES):
            print(f"{figure_id:14s} {FIGURES[figure_id].__doc__.splitlines()[0]}")
        return 0

    targets = sorted(FIGURES) if args.figures == ["all"] else args.figures
    armed = sanitizers.sanitized() if args.sanitize else contextlib.nullcontext()
    # The figures of one invocation share their runs (Figs 3 and 13 show the same ones).
    with armed as suite, shared_runs() as runs:
        # Under an already-armed process (pytest --sanitize) count only this run.
        checks_before = (suite.swmr_checks, suite.leak_checks) if suite else (0, 0)
        for figure_id in targets:
            hits_before = runs.hits
            with wall_timer() as timer:
                result = run_figure(figure_id, effort=args.effort)
            print(result.format_table())
            print(
                f"[{figure_id} completed in {timer.seconds:.1f}s wall, "
                f"{runs.hits - hits_before} shared runs reused]\n"
            )
    if suite is not None:
        swmr_checks = suite.swmr_checks - checks_before[0]
        leak_checks = suite.leak_checks - checks_before[1]
        print(f"[sanitizers: {swmr_checks} SWMR checks, {leak_checks} leak checks, no violation]")
        if swmr_checks == 0:
            print("no SWMR check ran: the sanitizers never fired", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
