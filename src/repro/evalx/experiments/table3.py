"""Table 3: CTTB-only vs exit predictor with RAS and a small CTTB.

Reproduces Table 3: next-task *address* miss rates, depth-7 history. The
CTTB-only method predicts without header information at ~4x the storage;
the paper reports it 4-54% worse, mostly because returns lose the RAS.

One cell per benchmark, covering both prediction methods.
"""

from __future__ import annotations

from repro.evalx.experiments.common import (
    BENCHMARKS,
    CTTB_ONLY_SPEC,
    SMALL_CTTB_SPEC,
    effective_tasks,
)
from repro.evalx.parallel import Cell, is_failure
from repro.evalx.report import format_percent, render_table
from repro.evalx.result import ExperimentResult
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import (
    CttbOnlyTaskPredictor,
    HeaderTaskPredictor,
)
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim.functional import simulate_task_prediction
from repro.synth.profiles import get_profile
from repro.synth.workloads import load_workload

#: Depth-7, 14-bit exit predictor — the paper's "14 bits of index" (8KB).
_EXIT_SPEC = "7-4-9-9(3)"

#: Paper's Table 3 miss rates (percent) for side-by-side reporting.
PAPER_CTTB_ONLY = {
    "gcc": 10.5, "compress": 19.8, "espresso": 2.6, "sc": 5.3, "xlisp": 7.9,
}
PAPER_EXIT_PREDICTOR = {
    "gcc": 6.8, "compress": 19.1, "espresso": 2.5, "sc": 4.6, "xlisp": 5.6,
}


def _cell(name: str, tasks: int) -> dict[str, float]:
    """Both Table 3 prediction methods on one benchmark."""
    workload = load_workload(name, n_tasks=tasks)

    cttb_only = CttbOnlyTaskPredictor(
        CorrelatedTaskTargetBuffer(DolcSpec.parse(CTTB_ONLY_SPEC))
    )
    only_stats = simulate_task_prediction(workload, cttb_only)

    header_predictor = HeaderTaskPredictor(
        program=workload.headers,
        exit_predictor=PathExitPredictor(DolcSpec.parse(_EXIT_SPEC)),
        cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse(SMALL_CTTB_SPEC)),
        ras=ReturnAddressStack(depth=32),
    )
    header_stats = simulate_task_prediction(workload, header_predictor)

    return {
        "cttb_only_miss": only_stats.address_miss_rate,
        "exit_predictor_miss": header_stats.address_miss_rate,
        "cttb_only_kbytes": only_stats.storage_bits / 8 / 1024,
        "exit_predictor_kbytes": header_stats.storage_bits / 8 / 1024,
        "return_miss_cttb_only": only_stats.miss_rate_for("return"),
        "return_miss_header": header_stats.miss_rate_for("return"),
    }


def cells(n_tasks: int | None = None, quick: bool = False) -> list[Cell]:
    out = []
    for name in BENCHMARKS:
        tasks = effective_tasks(
            n_tasks, quick, get_profile(name).default_dynamic_tasks
        )
        out.append(
            Cell(
                label=name,
                fn=_cell,
                kwargs={"name": name, "tasks": tasks},
                workload=(name, tasks),
            )
        )
    return out


def combine(
    cells: list[Cell],
    results: list[dict[str, float]],
    n_tasks: int | None = None,
    quick: bool = False,
) -> ExperimentResult:
    rows = []
    data: dict[str, dict[str, float]] = {}
    for cell, payload in zip(cells, results):
        name = cell.label
        if is_failure(payload):  # keep-going gap: paper columns only
            rows.append(
                [name, "-", f"{PAPER_CTTB_ONLY[name]:.1f}%",
                 "-", f"{PAPER_EXIT_PREDICTOR[name]:.1f}%"]
            )
            continue
        data[name] = payload
        rows.append(
            [
                name,
                format_percent(payload["cttb_only_miss"], 1),
                f"{PAPER_CTTB_ONLY[name]:.1f}%",
                format_percent(payload["exit_predictor_miss"], 1),
                f"{PAPER_EXIT_PREDICTOR[name]:.1f}%",
            ]
        )
    # Storage is config-determined, identical across benchmarks — quote
    # it from any benchmark that succeeded.
    sized = next(iter(data.values()), None)
    storage_note = "" if sized is None else (
        f"\nCTTB-only storage: {sized['cttb_only_kbytes']:.0f}KB; "
        "exit predictor + RAS + small CTTB: "
        f"{sized['exit_predictor_kbytes']:.0f}KB"
    )
    text = render_table(
        ["Benchmark", "CTTB-only", "(paper)",
         "Exit pred.+RAS+CTTB", "(paper)"],
        rows,
    ) + storage_note
    return ExperimentResult(
        experiment_id="table3",
        title="Miss rates: CTTB-only vs exit predictor with RAS & CTTB",
        text=text,
        data=data,
    )
