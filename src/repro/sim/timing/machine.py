"""The Multiscalar timing model: sequencer + ring + FIFO commit.

For each dynamic task *i* the model computes three times:

* ``start_i = max(dispatch_i, unit_free_i)`` — the sequencer hands the task
  to the next ring unit once both the prediction pipeline and the unit are
  ready;
* ``finish_i = max(start_i + exec_i, finish_{i-1} + forward_i)`` — execution
  takes ``exec_i`` cycles, but a fraction of the task (``forward_fraction``)
  cannot complete until its program-order predecessor has forwarded
  registers and memory;
* ``commit_i = max(finish_i, commit_{i-1} + commit_interval)`` — strictly
  FIFO retirement.

``exec_i = startup + ceil(instructions / issue_width) +
intra_mispredicts × penalty`` comes from the trace.

Prediction enters through the dispatch time of the *next* task: a correct
prediction lets the sequencer dispatch ``dispatch_interval`` cycles later;
a misprediction is discovered only when task *i* completes, so the correct
successor dispatches at ``finish_i + task_mispredict_penalty`` and all
younger (wrong-path) work is squashed — which is precisely how better task
predictors buy IPC in Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors.base import NextTaskPredictor
from repro.sim.functional import batched_task_prediction_column
from repro.sim.timing.config import TimingConfig
from repro.sim.timing.ring import ProcessingRing
from repro.sim.timing.scan import (
    CODE_CORRECT,
    CODE_GATED,
    CODE_MISPREDICT,
    max_plus_timing_scan,
)
from repro.synth.workloads import Workload
from repro.utils.memo import DerivedColumnCache, int64_column

#: Cycle columns per (trace, config knobs) — identical for every
#: predictor scheme swept over the same trace.
_CYCLE_CACHE = DerivedColumnCache()


@dataclass(frozen=True)
class TimingResult:
    """Outcome of a timing run.

    Attributes:
        cycles: Total cycles to commit the whole trace.
        instructions: Instructions retired.
        tasks: Dynamic tasks committed.
        task_mispredicts: Next-task predictions that were wrong.
        intra_mispredicts: Intra-task branch mispredicts (from the trace).
    """

    cycles: int
    instructions: int
    tasks: int
    task_mispredicts: int
    intra_mispredicts: int
    mispredict_stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def task_mispredict_rate(self) -> float:
        """Fraction of tasks whose successor was mispredicted."""
        return self.task_mispredicts / self.tasks if self.tasks else 0.0

    @property
    def mispredict_stall_fraction(self) -> float:
        """Share of total cycles spent waiting on sequencer redirects."""
        return (
            self.mispredict_stall_cycles / self.cycles if self.cycles
            else 0.0
        )


def _batched_timing(
    workload: Workload,
    predictor: NextTaskPredictor,
    trace,
    config: TimingConfig,
    confidence_gate,
) -> TimingResult | None:
    """Column-wise timing run, or None without exact batched forms.

    Phase A resolves every per-task prediction outcome as numpy columns
    (the batched predictors never mutate their objects); phase B
    evaluates the timing recurrences in one max-plus scan
    (:mod:`repro.sim.timing.scan`). Bit-identical to the stepped loop.
    """
    predicted = batched_task_prediction_column(workload, predictor, trace)
    if predicted is None:
        return None
    correct = predicted == int64_column(trace.next_addr)
    gated = None
    if confidence_gate is not None:
        gate_fn = getattr(confidence_gate, "batch_gate_columns", None)
        if gate_fn is None:
            return None
        confident = gate_fn(trace.task_addr, correct)
        if confident is None:
            return None
        gated = ~confident

    instructions = int64_column(trace.instructions)
    intra_misses = int64_column(trace.internal_mispredicts)

    def cycle_columns() -> tuple[np.ndarray, np.ndarray]:
        exec_col = (
            config.task_startup_cycles
            + -(-instructions // config.issue_width)  # ceil division
            + intra_misses * config.intra_mispredict_penalty
        )
        forward_col = (config.forward_fraction * exec_col).astype(np.int64)
        return exec_col, forward_col

    exec_cycles, forward_stalls = _CYCLE_CACHE.get(
        (trace.instructions, trace.internal_mispredicts),
        (
            "cycles",
            config.task_startup_cycles,
            config.issue_width,
            config.intra_mispredict_penalty,
            config.forward_fraction,
        ),
        cycle_columns,
    )
    if config.dependence_aware:

        def dependence_mask() -> np.ndarray:
            headers = workload.headers
            rows = headers.rows(trace.task_addr)
            prev_create = np.empty(len(rows), dtype=np.int64)
            prev_create[0] = 0xFFFF  # pre-trace state feeds task 0
            prev_create[1:] = headers.create_mask[rows[:-1]]
            return (prev_create & headers.use_mask[rows]) != 0

        dependent = _CYCLE_CACHE.get(
            (trace.task_addr, workload), "dependence", dependence_mask
        )
        forward_stalls = np.where(dependent, forward_stalls, 0)

    codes = np.where(correct, CODE_CORRECT, CODE_MISPREDICT)
    if gated is not None:
        codes = np.where(gated, CODE_GATED, codes)
    cycles, stalls = max_plus_timing_scan(
        exec_cycles,
        forward_stalls,
        codes,
        config.n_units,
        config.dispatch_interval,
        config.task_mispredict_penalty,
        config.commit_interval,
    )
    return TimingResult(
        cycles=cycles,
        instructions=int(instructions.sum()),
        tasks=len(instructions),
        task_mispredicts=int((codes == CODE_MISPREDICT).sum()),
        intra_mispredicts=int(intra_misses.sum()),
        mispredict_stall_cycles=stalls,
    )


def simulate_timing(
    workload: Workload,
    predictor: NextTaskPredictor,
    config: TimingConfig | None = None,
    limit: int | None = None,
    confidence_gate=None,
    vectorize: bool = True,
) -> TimingResult:
    """Replay the workload's trace through the timing model.

    ``predictor`` supplies next-task predictions exactly as in the
    functional simulator (predict, then update with the actual outcome —
    the §3.1 idealisations).

    ``confidence_gate`` optionally enables speculation control: an object
    with ``is_high_confidence(task_addr)`` and ``update(task_addr,
    correct)`` (e.g. :class:`repro.predictors.confidence.
    ResettingConfidenceEstimator`). A low-confidence prediction is not
    acted on — the sequencer waits for the task to resolve (losing
    overlap) instead of speculating (risking a squash). High-confidence
    predictions dispatch as usual.

    When the predictor (and the gate, if any) advertise exact batched
    forms, the run is evaluated as numpy columns plus a max-plus scan —
    same results, no per-task Python loop. ``vectorize=False`` forces
    the stepped loop (required when the caller inspects predictor state
    afterwards, since batched runs never mutate the objects).
    """
    config = config or TimingConfig()
    trace = workload.trace if limit is None else workload.trace.head(limit)
    if vectorize and len(trace.task_addr):
        result = _batched_timing(
            workload, predictor, trace, config, confidence_gate
        )
        if result is not None:
            return result
    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()
    cf_codes = trace.cf_type.tolist()
    next_addrs = trace.next_addr.tolist()
    instructions = trace.instructions.tolist()
    intra_misses = trace.internal_mispredicts.tolist()

    ring = ProcessingRing(config.n_units)
    predict = predictor.predict
    update = predictor.update

    create_masks: list[int] | None = None
    if config.dependence_aware:
        headers = workload.headers
        rows = headers.rows(trace.task_addr)
        create_masks = headers.create_mask[rows].tolist()
        use_masks = headers.use_mask[rows].tolist()

    issue_width = config.issue_width
    startup = config.task_startup_cycles
    intra_penalty = config.intra_mispredict_penalty
    forward_fraction = config.forward_fraction
    dispatch_interval = config.dispatch_interval
    mispredict_penalty = config.task_mispredict_penalty
    commit_interval = config.commit_interval

    dispatch = 0
    prev_finish = 0
    prev_commit = 0
    prev_create_mask = 0xFFFF  # the pre-trace machine state feeds task 0
    total_instructions = 0
    total_intra_misses = 0
    task_mispredicts = 0
    mispredict_stalls = 0

    n_records = len(task_addrs)
    for i in range(n_records):
        addr = task_addrs[i]
        insns = instructions[i]
        intra = intra_misses[i]
        total_instructions += insns
        total_intra_misses += intra

        exec_cycles = (
            startup
            + -(-insns // issue_width)  # ceil division
            + intra * intra_penalty
        )
        start = max(dispatch, ring.unit_free_time())
        if create_masks is None:
            forward_stall = int(forward_fraction * exec_cycles)
        else:
            dependent = bool(prev_create_mask & use_masks[i])
            forward_stall = (
                int(forward_fraction * exec_cycles) if dependent else 0
            )
            prev_create_mask = create_masks[i]
        finish = max(start + exec_cycles, prev_finish + forward_stall)
        commit = max(finish, prev_commit + commit_interval)
        ring.occupy_and_commit(commit)

        next_addr = next_addrs[i]
        predicted = predict(addr)
        update(addr, actual_exits[i], cf_codes[i], next_addr)
        correct = predicted == next_addr
        if confidence_gate is not None:
            gated = not confidence_gate.is_high_confidence(addr)
            confidence_gate.update(addr, correct)
            if gated:
                # Speculation control: don't act on a low-confidence
                # prediction — wait for the task to resolve. No squash and
                # no redirect penalty, but all overlap with the successor
                # is lost.
                dispatch = finish
                prev_finish = finish
                prev_commit = commit
                continue
        if correct:
            dispatch = dispatch + dispatch_interval
        else:
            task_mispredicts += 1
            restart = finish + mispredict_penalty
            ring.squash_speculative(restart)
            mispredict_stalls += max(
                0, restart - (dispatch + dispatch_interval)
            )
            dispatch = restart
        prev_finish = finish
        prev_commit = commit

    return TimingResult(
        cycles=prev_commit,
        instructions=total_instructions,
        tasks=n_records,
        task_mispredicts=task_mispredicts,
        intra_mispredicts=total_intra_misses,
        mispredict_stall_cycles=mispredict_stalls,
    )
