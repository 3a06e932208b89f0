"""Extension: how task granularity affects predictability.

§3.2 notes that "the characteristics of tasks are dependent on the
compiler heuristics used to break a program into tasks" and that accuracy
is therefore compiler-dependent. This experiment turns that remark into a
measurement: re-partition the same source program with different task-size
caps and measure how exit-prediction accuracy and task shape respond.
Bigger tasks bury more control flow inside each task (fewer, harder
exits); smaller tasks expose more, easier exits but shrink the effective
instruction window.
"""

from __future__ import annotations

from dataclasses import replace

from repro.compiler import PartitionConfig, compile_program
from repro.evalx.experiments.common import effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.sim.functional import simulate_exit_prediction
from repro.synth.executor import TraceExecutor
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import get_profile
from repro.synth.workloads import Workload

_BENCHMARKS = ("xlisp", "gcc")
_QUICK_BENCHMARKS = ("xlisp",)
_BLOCK_CAPS = (2, 4, 8, 16)
_DEFAULT_TASKS = 120_000
_SPEC = "6-5-8-9(3)"


def _build_workload(name: str, cap: int, n_tasks: int) -> Workload:
    profile = replace(get_profile(name), max_blocks_per_task=cap)
    # A re-partitioned program has no trace-cache entry: compile and
    # execute its own.
    program_cfg = SyntheticProgramGenerator(profile).generate()
    compiled = compile_program(
        program_cfg,
        name=f"{name}-cap{cap}",
        config=PartitionConfig(max_blocks_per_task=cap),
    )
    trace = TraceExecutor(
        compiled, seed=profile.seed, phase_period=profile.phase_period
    ).run(n_tasks)
    return Workload(profile=profile, compiled=compiled, trace=trace)


def _cell(name: str, cap: int, tasks: int) -> dict[str, float]:
    """Shape and accuracy of one benchmark re-partitioned at one cap."""
    workload = _build_workload(name, cap, tasks)
    stats = simulate_exit_prediction(
        workload, PathExitPredictor(DolcSpec.parse(_SPEC))
    )
    return {
        "static_tasks": float(
            workload.compiled.program.static_task_count
        ),
        "insns_per_task": (
            workload.trace.total_instructions() / len(workload.trace)
        ),
        "miss_rate": stats.miss_rate,
    }


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    benchmarks = _QUICK_BENCHMARKS if quick else _BENCHMARKS
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    # The trace is rebuilt per (benchmark, cap) pair, so no prewarm hint.
    return [
        Cell(
            label=f"{name}:cap{cap}",
            fn=_cell,
            kwargs={"name": name, "cap": cap, "tasks": tasks},
        )
        for name in benchmarks
        for cap in _BLOCK_CAPS
    ]


def combine(
    cells: list[Cell],
    results: list[dict[str, float]],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    rows = []
    data: dict[str, dict[int, dict[str, float]]] = {}
    for cell, point in zip(cells, results):
        name = cell.kwargs["name"]
        cap = cell.kwargs["cap"]
        data.setdefault(name, {})
        if is_failure(point):  # keep-going gap: a "-" row
            rows.append([name, cap, "-", "-", "-"])
            continue
        data[name][cap] = point
        rows.append(
            [
                name,
                cap,
                int(point["static_tasks"]),
                f"{point['insns_per_task']:.1f}",
                f"{point['miss_rate'] * 100:.2f}%",
            ]
        )
    text = render_table(
        ["Benchmark", "max blocks/task", "static tasks",
         "insns/dyn task", "exit miss"],
        rows,
        title=f"task granularity sweep, PATH {_SPEC}",
    )
    return ExperimentResult(
        experiment_id="ext_tasksize",
        title="Task granularity vs predictability (§3.2)",
        text=text,
        data=data,
    )
