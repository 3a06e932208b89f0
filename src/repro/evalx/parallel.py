"""Parallel experiment engine: fan (benchmark x config) cells to workers.

Every paper experiment is a grid of independent simulations, so each
driver module exposes its grid explicitly: ``cells(n_tasks=...,
quick=..., **kwargs)`` returns :class:`Cell` work units (a module-level
function plus picklable keyword arguments), and ``combine(cells,
results, ...)`` assembles the payloads, in cell order, into an
:class:`~repro.evalx.result.ExperimentResult`.

:func:`run_sharded` runs the grid serially (the default) or, when
``jobs`` asks for workers, on the sweep service's lease queue served by
forked workers (:mod:`repro.evalx.service.local`). Results are
byte-identical either way: cells share no mutable state and are
assembled in cell order.

A failed cell is repaired locally instead of squashing the sweep, in
the spirit of the paper's control-flow speculation. One loop,
:func:`run_attempts`, retries a failing cell with exponential backoff
(:class:`RetryPolicy`) on every path; a worker's death or timeout
counts against the same budget; with ``keep_going`` a final failure
becomes a typed :class:`CellFailure` gap, and without it the first one
stops the run and raises. A
:class:`~repro.evalx.checkpoint.CheckpointStore` persists each
completed cell as it finishes, so a killed run resumes byte-identically;
SIGINT/SIGTERM stop the run cleanly and leave the store consistent. A
:class:`~repro.evalx.metrics.RunMetrics` records every attempt, and
:mod:`repro.evalx.faults` hooks the same choke points, inert unless a
plan is installed.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import CellExecutionError
from repro.evalx import faults
from repro.evalx.checkpoint import (
    CheckpointCorrupt,
    CheckpointKeyError,
    CheckpointStore,
    cell_fingerprint,
)
from repro.evalx.metrics import RunMetrics
from repro.evalx.report import render_failures
from repro.evalx.result import ExperimentResult
from repro.synth.workloads import (
    CHECKPOINT_ENV,
    cache_counters,
    prewarm_workload,
    trace_cache_path,
)


@dataclass(frozen=True)
class Cell:
    """One independent work unit of an experiment grid.

    Attributes:
        label: Human-readable cell name (``"gcc:path"``) used in progress
            and error messages.
        fn: A module-level function (picklable by reference) computing the
            cell's payload from ``kwargs``.
        kwargs: Keyword arguments for ``fn``; must be picklable.
        workload: Optional ``(benchmark, n_tasks)`` this cell will load,
            so the scheduler can pre-warm shared traces before fan-out.
    """

    label: str
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    workload: tuple[str, int | None] | None = None


@dataclass(frozen=True)
class CellFailure:
    """Typed stand-in payload for a cell whose failure became final.

    In ``keep_going`` mode this object occupies the failed cell's result
    slot; ``combine`` implementations render it as a gap (``-``) and the
    final report carries the full list in
    :attr:`~repro.evalx.result.ExperimentResult.failures`.

    Attributes:
        label: The failed cell's label.
        kind: ``"error"`` (the cell raised), ``"timeout"`` (exceeded the
            per-cell deadline), ``"crash"`` (its worker process died),
            or ``"quarantined"`` (the sweep service gave up re-leasing
            it).
        error: Human-readable description of the last failure.
        attempts: Attempts consumed, including the final one.
        wall_seconds: Wall time of the last attempt.
    """

    label: str
    kind: str
    error: str
    attempts: int
    wall_seconds: float


def is_failure(payload: Any) -> bool:
    """True when a result slot holds a :class:`CellFailure` gap."""
    return isinstance(payload, CellFailure)


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-handling knobs for :func:`execute_cells`.

    Attributes:
        retries: Extra attempts granted to a failing cell (0 = fail on
            the first error). Errors, worker crashes and timeouts all
            draw on this one budget.
        backoff_seconds: Delay before the first retry; doubles on each
            subsequent one (exponential backoff).
        timeout_seconds: Per-cell wall-clock deadline, enforced only
            when cells run in forked workers (a serial in-process cell
            cannot be preempted).
    """

    retries: int = 0
    backoff_seconds: float = 0.25
    timeout_seconds: float | None = None


#: Policy used when the caller passes none: fail fast, no deadline.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class CellCheckpoint:
    """Where :func:`execute_cells` persists completed payloads: a store,
    the experiment id its records carry, and one fingerprint per cell
    (``None`` for a cell that cannot be checkpointed; it still runs)."""

    store: CheckpointStore
    experiment: str
    keys: tuple[str | None, ...]

    def save(
        self, index: int, cell: Cell, payload: Any, metrics: RunMetrics
    ) -> None:
        """Persist one completed cell (a no-op for an unkeyed one)."""
        key = self.keys[index]
        if key is None:
            return
        saved = self.store.save(key, cell.label, self.experiment, payload)
        metrics.checkpoint_event(
            cell.label, "saved" if saved else "save-failed", key
        )


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None`` (the default) means serial; ``0`` means one worker per CPU;
    positive values are taken literally.
    """
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise CellExecutionError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass
class _CellOutcome:
    """What the instrumented cell runner returns per successful attempt."""

    payload: Any
    worker_pid: int
    wall_seconds: float
    cache: dict[str, int]


def _run_cell_instrumented(cell: Cell, attempt: int = 1) -> _CellOutcome:
    """Run one cell and measure it (executes inside the worker).

    The fault hook fires first: inert unless a chaos plan is installed
    (see :mod:`repro.evalx.faults`), in which case a planned victim
    attempt raises, hangs, or hard-kills this worker right here.
    """
    faults.fire(cell.label, attempt)
    before = cache_counters()
    started = time.perf_counter()
    payload = cell.fn(**cell.kwargs)
    wall = time.perf_counter() - started
    after = cache_counters()
    return _CellOutcome(
        payload=payload,
        worker_pid=os.getpid(),
        wall_seconds=wall,
        cache={
            k: after[k] - before.get(k, 0)
            for k in after
            if after[k] > before.get(k, 0)
        },
    )


def cell_error(cell: Cell, error: str) -> CellExecutionError:
    """The typed error for a cell whose failure is final."""
    return CellExecutionError(
        f"cell {cell.label!r} ({getattr(cell.fn, '__module__', '?')}) "
        f"failed: {error}",
        cell_label=cell.label,
    )


def _prewarm(cells: Sequence[Cell]) -> None:
    """Generate each distinct workload once, before workers exist."""
    seen: set[tuple[str, int | None]] = set()
    for cell in cells:
        if cell.workload is not None and cell.workload not in seen:
            seen.add(cell.workload)
            prewarm_workload(*cell.workload)


def _backoff(policy: RetryPolicy, attempts: int) -> float:
    return policy.backoff_seconds * (2 ** max(attempts - 1, 0))


def run_attempts(
    cell: Cell,
    policy: RetryPolicy,
    metrics: RunMetrics,
    first: int = 1,
    lost: threading.Event | None = None,
    publish: Callable[[Any], None] | None = None,
) -> tuple[_CellOutcome | CellFailure | None, Exception | None]:
    """Run a cell's attempts ``first`` .. ``policy.retries + 1``.

    The one retry loop: every attempt is one ``cell`` metrics record,
    and each attempt after the first waits out the exponential backoff
    of the one before it. ``first`` is above 1 when earlier attempts
    were already spent elsewhere (a worker that died running the cell).
    ``publish`` is the last step of a successful attempt: an exception
    from it fails the attempt like one from the cell, so a result that
    cannot be published is retried and then becomes a failure.
    Returns ``(outcome, None)`` on success, ``(failure, exc)`` once the
    budget is spent, or ``(None, None)`` when ``lost`` is set before an
    attempt starts (the caller no longer owns the cell).
    """
    attempt = first
    while True:
        if attempt > 1:
            time.sleep(_backoff(policy, attempt - 1))
        if lost is not None and lost.is_set():
            return None, None
        started = time.perf_counter()
        try:
            outcome = _run_cell_instrumented(cell, attempt)
            if publish is not None:
                publish(outcome.payload)
        except Exception as exc:
            wall = time.perf_counter() - started
            final = attempt > policy.retries
            metrics.cell_attempt(
                cell.label,
                status="error",
                attempt=attempt,
                wall_seconds=wall,
                final=final,
                worker_pid=os.getpid(),
                error=repr(exc),
            )
            if final:
                failure = CellFailure(
                    cell.label, "error", repr(exc), attempt, wall
                )
                return failure, exc
            attempt += 1
            continue
        metrics.cell_attempt(
            cell.label,
            status="ok",
            attempt=attempt,
            wall_seconds=outcome.wall_seconds,
            worker_pid=outcome.worker_pid,
            cache=outcome.cache,
        )
        return outcome, None


def execute_cells(
    cells: Sequence[Cell],
    jobs: int | None = None,
    *,
    keep_going: bool = False,
    retry: RetryPolicy | None = None,
    metrics: RunMetrics | None = None,
    on_result: Callable[[Cell, Any], None] | None = None,
    checkpoint: CellCheckpoint | None = None,
) -> list:
    """Run every cell and return payloads in cell order.

    With ``jobs`` resolving to one worker (or a single cell) this is a
    plain in-process loop with no disk I/O beyond ``checkpoint``;
    otherwise the grid runs on the lease queue under ``jobs`` forked
    workers (:func:`repro.evalx.service.local.run_local`).

    A cell whose failure is final (its :class:`RetryPolicy` attempts are
    exhausted) raises :class:`~repro.errors.CellExecutionError` naming
    the cell — stopping every other cell first so the error surfaces
    promptly — unless ``keep_going`` is set, in which case its result
    slot holds a :class:`CellFailure` and the sweep completes.

    ``checkpoint`` persists each completed payload as it finishes.
    ``on_result`` is invoked in the parent process for every successful
    payload (never for :class:`CellFailure` gaps).
    """
    policy = retry or DEFAULT_RETRY_POLICY
    recorder = metrics or RunMetrics.disabled()
    n_workers = resolve_jobs(jobs)
    if n_workers <= 1 or len(cells) <= 1:
        return _execute_serial(
            cells, policy, keep_going, recorder, on_result, checkpoint
        )
    # Imported here: the service package builds on this module.
    from repro.evalx.service.local import run_local

    _prewarm(cells)
    return run_local(
        cells, n_workers, policy, keep_going, recorder, on_result, checkpoint
    )


def _execute_serial(
    cells: Sequence[Cell],
    policy: RetryPolicy,
    keep_going: bool,
    metrics: RunMetrics,
    on_result: Callable[[Cell, Any], None] | None = None,
    checkpoint: CellCheckpoint | None = None,
) -> list:
    """In-process execution with the same retry/keep-going semantics.

    Per-cell timeouts are not enforced here: a cell running in the
    parent process cannot be preempted without threads or signals.
    """
    results: list[Any] = []
    for index, cell in enumerate(cells):
        outcome, exc = run_attempts(cell, policy, metrics)
        if isinstance(outcome, CellFailure):
            if not keep_going:
                raise cell_error(cell, outcome.error) from exc
            results.append(outcome)
            continue
        assert outcome is not None
        results.append(outcome.payload)
        if checkpoint is not None:
            checkpoint.save(index, cell, outcome.payload, metrics)
        if on_result is not None:
            on_result(cell, outcome.payload)
    return results


@contextmanager
def handle_signals(handler: Callable[[str], None]):
    """Route SIGINT and SIGTERM to ``handler(signal name)`` in the block.

    The previous handlers come back on the way out. Handlers can only
    be installed from the main thread; elsewhere this does nothing.
    """
    previous: dict[int, Any] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(
                    signum, lambda n, _: handler(signal.Signals(n).name)
                )
            except (ValueError, OSError):  # e.g. a sub-interpreter
                pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


@contextmanager
def _graceful_interrupts(recorder: RunMetrics):
    """Convert SIGINT/SIGTERM into a clean, resumable stop.

    Both signals raise ``KeyboardInterrupt`` at the scheduler's next
    bytecode boundary; the workers are stopped on the way out, an
    ``interrupt`` event is flushed to the metrics stream, and the
    interrupt re-raises. The checkpoint store needs no special handling
    — its writes are atomic and happen per completed cell, so whatever
    finished before the signal is already durable.
    """
    received: list[str] = []

    def interrupt(name: str) -> None:
        received.append(name)
        raise KeyboardInterrupt

    try:
        with handle_signals(interrupt):
            yield
    except KeyboardInterrupt:
        recorder.interrupted(received[-1] if received else "SIGINT")
        raise


def _announce_faults(plan, cells: Sequence[Cell], recorder: RunMetrics):
    """Emit one ``armed`` fault event per trigger aimed at this grid."""
    labels = {cell.label for cell in cells}
    for trigger in plan.triggers:
        if trigger.label in labels:
            recorder.fault_event(
                trigger.label, trigger.action, trigger.attempt, "armed"
            )


def _corrupt_records(plan, action: str, cells, recorder, path_of) -> None:
    """Apply planned ``action`` damage to each victim cell's record.

    ``path_of(index, cell)`` names the on-disk record (or is falsy when
    the cell has none), so detection and repair run against real damage.
    """
    done: set[str] = set()  # a second flip would undo the first
    for trigger in plan.store_triggers():
        for index, cell in enumerate(cells):
            if trigger.action != action or cell.label != trigger.label:
                continue
            path = path_of(index, cell)
            if cell.label not in done and path and faults.corrupt_file(path):
                done.add(cell.label)
                recorder.fault_event(
                    cell.label, action, trigger.attempt, "fired"
                )
                break


def _prefill_from_store(
    store: CheckpointStore,
    experiment_id: str,
    cells: Sequence[Cell],
    results: list,
    fingerprints: dict[int, str],
    plan,
    recorder: RunMetrics,
) -> None:
    """Fingerprint every cell; serve verified records when resuming.

    Fills ``fingerprints`` for all checkpointable cells (so completions
    get persisted either way) and, when the store was opened with
    ``resume=True``, fills ``results`` slots from verified records.
    Planned ``corrupt-checkpoint`` faults are applied just before the
    loads.
    """
    for index, cell in enumerate(cells):
        try:
            fingerprints[index] = cell_fingerprint(experiment_id, cell)
        except CheckpointKeyError as exc:
            recorder.checkpoint_event(
                cell.label, "unfingerprintable", reason=str(exc)
            )
    if not store.resume:
        return
    if plan is not None:
        _corrupt_records(
            plan, "corrupt-checkpoint", cells, recorder,
            lambda i, _: i in fingerprints
            and store.path_for(fingerprints[i]),
        )
    for index, fingerprint in fingerprints.items():
        label = cells[index].label
        record = store.load(fingerprint, label)
        if isinstance(record, CheckpointCorrupt):
            recorder.checkpoint_event(
                label, "corrupt", fingerprint, record.reason
            )
        elif record is not None:
            results[index] = record.payload
            recorder.checkpoint_event(label, "resume", fingerprint)


def run_sharded(
    module,
    n_tasks: int | None = None,
    quick: bool = False,
    jobs: int | None = None,
    keep_going: bool = False,
    retry: RetryPolicy | None = None,
    metrics: RunMetrics | None = None,
    checkpoint: CheckpointStore | None = None,
    **kwargs,
) -> ExperimentResult:
    """Run a cell-structured experiment module end to end.

    ``keep_going``, ``retry`` and ``metrics`` thread straight through to
    :func:`execute_cells`; the results are assembled by
    :func:`assemble_result`.

    ``checkpoint`` makes the run durable: every completed cell is
    persisted atomically as it finishes, and a store opened with
    ``resume=True`` skips cells whose verified record already exists —
    so a killed run restarts and completes with byte-identical output
    to an uninterrupted one. SIGINT/SIGTERM are caught, flushed to the
    metrics stream, and re-raised, leaving the store consistent.
    """
    recorder = metrics or RunMetrics.disabled()
    cells = module.cells(n_tasks=n_tasks, quick=quick, **kwargs)
    experiment_id = module.__name__.rsplit(".", 1)[-1]
    recorder.begin_experiment(
        experiment_id, n_cells=len(cells), jobs=resolve_jobs(jobs)
    )
    plan = faults.active_plan()
    if plan is not None:
        _announce_faults(plan, cells, recorder)
        _corrupt_records(
            plan, "corrupt-trace", cells, recorder,
            lambda _, cell: cell.workload
            and trace_cache_path(*cell.workload),
        )
    pending = object()
    results: list[Any] = [pending] * len(cells)
    fingerprints: dict[int, str] = {}
    if checkpoint is not None:
        _prefill_from_store(
            checkpoint,
            experiment_id,
            cells,
            results,
            fingerprints,
            plan,
            recorder,
        )
    remaining = [i for i, slot in enumerate(results) if slot is pending]
    persist = None
    previous_env = os.environ.get(CHECKPOINT_ENV)
    if checkpoint is not None:
        persist = CellCheckpoint(
            checkpoint,
            experiment_id,
            tuple(fingerprints.get(i) for i in remaining),
        )
        # Publish the store location so the workload prewarm sweep can
        # reap orphaned record temp files from earlier killed runs.
        os.environ[CHECKPOINT_ENV] = str(checkpoint.directory)
    try:
        with _graceful_interrupts(recorder):
            executed = execute_cells(
                [cells[i] for i in remaining],
                jobs=jobs,
                keep_going=keep_going,
                retry=retry,
                metrics=recorder,
                checkpoint=persist,
            )
    finally:
        if checkpoint is not None:
            if previous_env is None:
                os.environ.pop(CHECKPOINT_ENV, None)
            else:
                os.environ[CHECKPOINT_ENV] = previous_env
        recorder.end_experiment()
    for index, payload in zip(remaining, executed):
        results[index] = payload
    return assemble_result(
        module, cells, results, n_tasks=n_tasks, quick=quick, **kwargs
    )


def assemble_result(
    module, cells: Sequence[Cell], results: list, **kwargs
) -> ExperimentResult:
    """Combine a grid's results, listing any failed cells as gaps.

    Calls the driver's ``combine`` with the cells and results in cell
    order. Failed cells (keep-going mode) are listed in the result's
    ``failures`` field, appended to the report text, and recorded under
    ``data["_failed_cells"]`` so both humans and shape-checking tests
    can see the gaps. Local runs and sweep-service jobs both end here,
    which is what makes a fetched job byte-identical to a local run.
    """
    result = module.combine(cells, results, **kwargs)
    failures = tuple(r for r in results if is_failure(r))
    if failures:
        result = replace(
            result,
            failures=failures,
            text=result.text + "\n\n" + render_failures(failures),
        )
        result.data["_failed_cells"] = [f.label for f in failures]
    return result
