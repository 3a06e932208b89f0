"""Trace-driven functional simulation of inter-task prediction.

Implements the paper's methodology (§3.1) exactly:

* **Update timing** — predictor structures are updated immediately after
  each prediction; no staleness is modelled.
* **Pollution** — simulation never proceeds past a mispredicted task, so
  history always reflects the actual path (equivalent to a recovery
  mechanism that repairs prediction state perfectly). Concretely, every
  ``predict`` is followed by an ``update`` with the actual outcome.

Three entry points mirror the paper's three measurement kinds: exit
prediction (Figures 6/7/10/11), indirect target prediction (Figures 8/12),
and full next-task address prediction (Table 3).

Each simulator has two execution strategies that produce bit-identical
statistics:

* a **generic loop** that drives any predictor through its
  ``predict``/``update`` interface, one trace record at a time; and
* a **batched kernel** used when the predictor advertises an exact
  vectorized equivalent — the ideal (alias-free) predictors and target
  buffers expose their per-step table keys as dense integer ids
  (``batch_plan`` / ``batch_slot_ids``), and stateless predictors expose
  whole-column predictions (``predict_column``). The kernels replace
  per-step tuple hashing and method dispatch with numpy preprocessing
  plus a tight integer loop over only the steps that can miss.

Pass ``vectorize=False`` to force the generic loop (the equivalence tests
do exactly that). Batched kernels never mutate the predictor object; a
predictor that must be inspected after simulation should be driven with
``vectorize=False``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.predictors.base import ExitPredictor, NextTaskPredictor
from repro.predictors.pht import replay_clamped
from repro.predictors.ttb import pretarget_column
from repro.sim.result import (
    ExitPredictionStats,
    TargetPredictionStats,
    TaskPredictionStats,
)
from repro.synth.trace import CF_TYPE_FROM_CODE
from repro.synth.workloads import Workload
from repro.utils.memo import int64_column

#: Codes of INDIRECT_BRANCH / INDIRECT_CALL in trace arrays.
_INDIRECT_CODES = (3, 4)

#: Length of a per-control-flow-code count column.
_N_CODES = max(CF_TYPE_FROM_CODE) + 1


def _check_single_exit_legality(
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    multiway: np.ndarray,
) -> None:
    """A single-exit task can only ever take exit 0 in a legal trace."""
    bad = np.flatnonzero(~multiway & (actual_exits != 0))
    if bad.size:
        step = int(bad[0])
        raise SimulationError(
            f"single-exit task {int(task_addrs[step]):#x} took exit "
            f"{int(actual_exits[step])}"
        )


def _exit_replay(
    predictor: ExitPredictor,
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Per-step predicted exits and table keys, or None.

    The one batched form of ``predict``/``update`` pairs over a trace; see
    :func:`batched_exit_prediction_column`. The keys are the per-step
    table entries of a ``batch_plan`` predictor (only multiway steps
    touch theirs), None for a stateless ``predict_column`` one.
    """
    plan_fn = getattr(predictor, "batch_plan", None)
    column_fn = getattr(predictor, "predict_column", None)
    if plan_fn is not None:
        plan = plan_fn(task_addrs, actual_exits)
        if plan is None:
            return None
        group_ids, table = plan
        predicted, _, _ = replay_clamped(
            table, group_ids, int64_column(actual_exits), n_exits_col
        )
    elif column_fn is not None:
        predicted = np.asarray(
            column_fn(task_addrs, n_exits_col), dtype=np.int64
        )
        group_ids = None
    else:
        return None
    _check_single_exit_legality(task_addrs, actual_exits, n_exits_col > 1)
    return predicted, group_ids


def batched_exit_prediction_column(
    predictor: ExitPredictor,
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> np.ndarray | None:
    """Per-step predicted exits via the predictor's batched kernel.

    Returns the full int64 column a sequence of ``predict``/``update``
    pairs would produce — 0 at single-exit steps, clamped into the legal
    range at multiway ones — without mutating the predictor, or None when
    it advertises no exact batched form. This is the exit-choice half of
    the batched task predictors and the timing simulator's fast path.
    """
    replay = _exit_replay(predictor, task_addrs, actual_exits, n_exits_col)
    return None if replay is None else replay[0]


def simulate_exit_prediction(
    workload: Workload,
    predictor: ExitPredictor,
    limit: int | None = None,
    vectorize: bool = True,
) -> ExitPredictionStats:
    """Run ``predictor`` over the workload's trace; return accuracy stats.

    Uses the predictor's batched kernel when it advertises an exact one
    (see the module docstring); set ``vectorize=False`` to force the
    step-by-step loop.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    n_exits_col = workload.headers.n_exits_of(trace.task_addr)
    if vectorize:
        replay = _exit_replay(
            predictor, trace.task_addr, trace.exit_index, n_exits_col
        )
        if replay is not None:
            predicted, group_ids = replay
            multiway = n_exits_col > 1
            misses = int(
                np.count_nonzero(
                    multiway & (predicted != int64_column(trace.exit_index))
                )
            )
            return ExitPredictionStats(
                trials=len(predicted),
                misses=misses,
                multiway_trials=int(multiway.sum()),
                multiway_misses=misses,
                states_touched=(
                    predictor.states_touched()
                    if group_ids is None
                    else int(np.count_nonzero(np.bincount(group_ids[multiway])))
                ),
                storage_bits=predictor.storage_bits(),
            )

    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()
    exit_counts = n_exits_col.tolist()

    predict = predictor.predict
    update = predictor.update
    trials = len(task_addrs)
    misses = 0
    multiway_trials = 0
    multiway_misses = 0
    for addr, actual, n_exits in zip(task_addrs, actual_exits, exit_counts):
        predicted = predict(addr, n_exits)
        if n_exits > 1:
            multiway_trials += 1
            if predicted != actual:
                misses += 1
                multiway_misses += 1
        elif predicted != actual:  # cannot happen for legal traces
            raise SimulationError(
                f"single-exit task {addr:#x} took exit {actual}"
            )
        update(addr, n_exits, actual)
    return ExitPredictionStats(
        trials=trials,
        misses=misses,
        multiway_trials=multiway_trials,
        multiway_misses=multiway_misses,
        states_touched=predictor.states_touched(),
        storage_bits=predictor.storage_bits(),
    )


def simulate_indirect_target_prediction(
    workload: Workload,
    buffer,
    limit: int | None = None,
    vectorize: bool = True,
) -> TargetPredictionStats:
    """Measure a TTB/CTTB on the workload's indirect exits.

    ``buffer`` is any object with the target-buffer interface
    (``predict``/``update``/``observe_step``/``entries_touched``/
    ``storage_bits``). Every retired task is fed to ``observe_step`` so
    path-indexed buffers track program progress; predictions happen only at
    INDIRECT_BRANCH / INDIRECT_CALL exits. Buffers that advertise
    ``batch_slot_ids`` run through a batched kernel instead (identical
    results); ``vectorize=False`` forces the step loop.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    indirect_mask = np.isin(trace.cf_type, _INDIRECT_CODES)
    indirect_steps = np.flatnonzero(indirect_mask)

    if vectorize:
        batch_fn = getattr(buffer, "batch_slot_ids", None)
        if batch_fn is not None:
            if getattr(buffer, "observes_steps", True):
                # Path-indexed slots depend on every step; compute the
                # full column, then keep the indirect rows.
                slot_ids = batch_fn(trace.task_addr)
                if slot_ids is not None:
                    slot_ids = slot_ids[indirect_steps]
            else:
                # History-free slots: only the indirect rows matter.
                slot_ids = batch_fn(trace.task_addr[indirect_steps])
            if slot_ids is not None:
                # Every indirect step reads, then trains, its slot: a
                # slot's first touch is a compulsory miss.
                targets = int64_column(trace.next_addr)[indirect_steps]
                wrong = pretarget_column(
                    slot_ids, np.ones(len(slot_ids), dtype=bool), targets
                ) != targets
                _, first_touch = np.unique(slot_ids, return_index=True)
                wrong[first_touch] = True
                return TargetPredictionStats(
                    trials=int(indirect_steps.size),
                    misses=int(wrong.sum()),
                    entries_touched=len(first_touch),
                    storage_bits=buffer.storage_bits(),
                )

    trials = int(indirect_steps.size)
    misses = 0
    if not getattr(buffer, "observes_steps", True):
        # The buffer ignores non-indirect steps; only visit indirect ones.
        task_addrs = trace.task_addr[indirect_steps].tolist()
        next_addrs = trace.next_addr[indirect_steps].tolist()
        for addr, next_addr in zip(task_addrs, next_addrs):
            if buffer.predict(addr) != next_addr:
                misses += 1
            buffer.update(addr, next_addr)
    else:
        task_addrs = trace.task_addr.tolist()
        next_addrs = trace.next_addr.tolist()
        flags = indirect_mask.tolist()
        for addr, is_indirect, next_addr in zip(
            task_addrs, flags, next_addrs
        ):
            if is_indirect:
                if buffer.predict(addr) != next_addr:
                    misses += 1
                buffer.update(addr, next_addr)
            buffer.observe_step(addr)
    return TargetPredictionStats(
        trials=trials,
        misses=misses,
        entries_touched=buffer.entries_touched(),
        storage_bits=buffer.storage_bits(),
    )


def batched_task_prediction_column(
    workload: Workload,
    predictor: NextTaskPredictor,
    trace,
) -> np.ndarray | None:
    """Per-step predicted next-task addresses, or None.

    Composes the predictor's exit-choice column (when it has an exit
    predictor) with its batched address resolution
    (``batch_predicted_addrs``). The predictor object is not mutated;
    only freshly constructed predictors may be batched. Shared by
    :func:`simulate_task_prediction` and the timing simulator's fast
    path.
    """
    batch_fn = getattr(predictor, "batch_predicted_addrs", None)
    if batch_fn is None:
        return None
    predicted_exits = None
    exit_predictor = getattr(predictor, "exit_predictor", None)
    if exit_predictor is not None:
        n_exits_col = workload.headers.n_exits_of(trace.task_addr)
        predicted_exits = batched_exit_prediction_column(
            exit_predictor, trace.task_addr, trace.exit_index, n_exits_col
        )
        if predicted_exits is None:
            return None
    return batch_fn(
        trace.task_addr,
        predicted_exits,
        trace.exit_index,
        trace.cf_type,
        trace.next_addr,
    )


def simulate_task_prediction(
    workload: Workload,
    predictor: NextTaskPredictor,
    limit: int | None = None,
    vectorize: bool = True,
) -> TaskPredictionStats:
    """Measure full next-task-address prediction accuracy (Table 3).

    Uses the predictor's batched column when it advertises an exact one
    (see the module docstring); ``vectorize=False`` forces the loop.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    if vectorize:
        predicted = batched_task_prediction_column(
            workload, predictor, trace
        )
        if predicted is not None:
            wrong = predicted != int64_column(trace.next_addr)
            return _task_stats(
                trace,
                np.bincount(trace.cf_type[wrong], minlength=_N_CODES),
                predictor.storage_bits(),
            )

    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()
    cf_codes = trace.cf_type.tolist()
    next_addrs = trace.next_addr.tolist()

    # Miss counters are indexed by the raw control-flow code, keeping the
    # inner loop free of string conversions.
    misses_by_code = [0] * _N_CODES
    predict = predictor.predict
    update = predictor.update
    for addr, actual_exit, cf_code, next_addr in zip(
        task_addrs, actual_exits, cf_codes, next_addrs
    ):
        if predict(addr) != next_addr:
            misses_by_code[cf_code] += 1
        update(addr, actual_exit, cf_code, next_addr)
    return _task_stats(trace, misses_by_code, predictor.storage_bits())


def _task_stats(trace, code_misses, storage_bits: int) -> TaskPredictionStats:
    """Table 3 statistics from the per-control-flow-code miss counts."""
    code_trials = np.bincount(trace.cf_type, minlength=_N_CODES)

    def by_type(counts) -> dict[str, int]:
        return {
            str(CF_TYPE_FROM_CODE[code]): int(count)
            for code, count in enumerate(counts)
            if count
        }

    return TaskPredictionStats(
        trials=len(trace.task_addr),
        address_misses=int(sum(code_misses)),
        misses_by_type=by_type(code_misses),
        trials_by_type=by_type(code_trials),
        storage_bits=storage_bits,
    )
