"""Workload command line: ``python -m repro.synth <command> <benchmark>``.

Commands::

    info gcc            program summary + validation + key distributions
    trace gcc out.npz   generate a trace and save it to a file
    list                list the available benchmark profiles
"""

from __future__ import annotations

import argparse
import sys

from repro.evalx.report import format_percent, render_table
from repro.synth.profiles import BENCHMARK_NAMES, get_profile
from repro.synth.stats_view import compute_stats
from repro.synth.validate import validate_workload
from repro.synth.workloads import load_workload


def _cmd_list() -> int:
    rows = []
    for name in BENCHMARK_NAMES:
        profile = get_profile(name)
        rows.append(
            [
                name,
                profile.paper.input_name,
                profile.paper.static_tasks,
                profile.paper.distinct_tasks_seen,
                profile.default_dynamic_tasks,
            ]
        )
    print(render_table(
        ["benchmark", "paper input", "paper static", "paper distinct",
         "default trace"],
        rows,
    ))
    return 0


def _cmd_info(name: str, n_tasks: int | None) -> int:
    workload = load_workload(name, n_tasks=n_tasks)
    from repro.isa.display import format_program_summary

    # The summary describes the whole program, so this builds one.
    print(format_program_summary(workload.compiled.program))
    print()
    report = validate_workload(workload)
    print(report)
    print()
    stats = compute_stats(workload)
    rows = [
        ["single-exit tasks (static)",
         format_percent(stats.static_arity[1], 1)],
        ["dynamic indirect share",
         format_percent(stats.dynamic_indirect_share, 1)],
        ["dynamic return share",
         format_percent(stats.dynamic_types["return"], 1)],
        ["instructions / dynamic task",
         f"{stats.instructions_per_task:.1f}"],
        ["distinct tasks seen", workload.trace.distinct_tasks_seen()],
    ]
    print(render_table(["metric", "value"], rows))
    return 0 if report.ok else 1


def _cmd_trace(name: str, path: str, n_tasks: int | None) -> int:
    workload = load_workload(name, n_tasks=n_tasks)
    workload.trace.save(path)
    print(
        f"wrote {len(workload.trace)} task records "
        f"({workload.trace.total_instructions()} instructions) to {path}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.synth",
        description="Generate and inspect synthetic Multiscalar workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available benchmark profiles")
    info = sub.add_parser("info", help="summarise and validate a workload")
    info.add_argument("benchmark", choices=BENCHMARK_NAMES)
    info.add_argument("--tasks", type=int, default=None)
    trace = sub.add_parser("trace", help="generate and save a trace")
    trace.add_argument("benchmark", choices=BENCHMARK_NAMES)
    trace.add_argument("output", help="output .npz path")
    trace.add_argument("--tasks", type=int, default=None)
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info(args.benchmark, args.tasks)
    return _cmd_trace(args.benchmark, args.output, args.tasks)


if __name__ == "__main__":
    sys.exit(main())
