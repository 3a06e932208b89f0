"""Extension: confidence-gated speculation control, measured in IPC.

Closes the loop on ``ext_confidence``: instead of only scoring the
estimator, use it — a low-confidence task prediction makes the sequencer
*wait* for resolution rather than speculate. Gating trades lost overlap on
correct-but-unconfident predictions against avoided squashes on wrong
ones.

The result is a crossover study. With the default machine (mispredicts
redirect at completion plus a small penalty), gating *loses* everywhere:
stalling costs the same overlap a squash would have cost, and it also
stalls on correct-but-unconfident predictions. Gating only pays when
recovery is expensive (e.g. a deep recovery penalty modelling state repair
cost), which the second sweep shows — the classic speculation-control
trade-off (Grunwald et al. style) reproduced at task granularity.
"""

from __future__ import annotations

from repro.evalx.experiments.common import BENCHMARKS, effective_tasks
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.confidence import ResettingConfidenceEstimator
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import HeaderTaskPredictor
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim.timing import TimingConfig, simulate_timing
from repro.synth.workloads import load_workload

_DEFAULT_TASKS = 150_000
_SPEC = "6-5-8-9(3)"
_THRESHOLDS = (2, 4, 8)
#: Recovery costs swept: the default cheap redirect and an expensive one.
_PENALTIES = (3, 40)


def _predictor(workload):
    return HeaderTaskPredictor(
        program=workload.headers,
        exit_predictor=PathExitPredictor(DolcSpec.parse(_SPEC)),
        cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse("5-5-6-7(3)")),
        ras=ReturnAddressStack(depth=32),
    )


def _cell(
    name: str, penalty: int, tasks: int, thresholds: tuple[int, ...]
) -> dict[str, float]:
    """Ungated and per-threshold gated IPC for one (benchmark, penalty)."""
    config = TimingConfig(task_mispredict_penalty=penalty)
    workload = load_workload(name, n_tasks=tasks)
    ungated = simulate_timing(
        workload, _predictor(workload), config=config
    )
    point = {"ungated": ungated.ipc}
    for threshold in thresholds:
        gated = simulate_timing(
            workload,
            _predictor(workload),
            config=config,
            confidence_gate=ResettingConfidenceEstimator(
                DolcSpec.parse(_SPEC), threshold=threshold
            ),
        )
        point[f"gated_t{threshold}"] = gated.ipc
    return point


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    thresholds = _THRESHOLDS[1:2] if quick else _THRESHOLDS
    tasks = effective_tasks(n_tasks, quick, _DEFAULT_TASKS)
    return [
        Cell(
            label=f"{name}:p{penalty}",
            fn=_cell,
            kwargs={
                "name": name,
                "penalty": penalty,
                "tasks": tasks,
                "thresholds": thresholds,
            },
            workload=(name, tasks),
        )
        for penalty in _PENALTIES
        for name in BENCHMARKS
    ]


def combine(
    cells: list[Cell],
    results: list[dict[str, float]],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    thresholds = _THRESHOLDS[1:2] if quick else _THRESHOLDS
    points = dict(zip((c.label for c in cells), results))
    sections = []
    data: dict[str, dict[str, dict[str, float]]] = {}
    for penalty in _PENALTIES:
        rows = []
        for name in BENCHMARKS:
            point = points[f"{name}:p{penalty}"]
            if is_failure(point):  # keep-going gap: a "-" row
                rows.append(
                    [name, "-"] + ["-"] * len(thresholds)
                )
                continue
            data.setdefault(name, {})[f"penalty{penalty}"] = point
            rows.append(
                [name, f"{point['ungated']:.2f}"]
                + [f"{point[f'gated_t{t}']:.2f}" for t in thresholds]
            )
        headers = ["Benchmark", "ungated"] + [
            f"gated t={t}" for t in thresholds
        ]
        sections.append(
            render_table(
                headers, rows,
                title=(
                    f"IPC, mispredict recovery penalty = {penalty} cycles"
                ),
            )
        )
    return ExperimentResult(
        experiment_id="ext_gating",
        title="Confidence-gated speculation control (IPC)",
        text="\n\n".join(sections),
        data=data,
    )
