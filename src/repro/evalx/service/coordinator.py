"""The sweep coordinator: expand jobs, watch progress, combine results.

The coordinator owns the job state machine; workers only ever touch the
lease queue and the checkpoint store. One ``run_once`` pass:

1. **Expand** every ``submitted`` job — import its experiment driver,
   build the cell grid, fingerprint each cell (the task id), estimate
   costs, pack balanced shards, publish the queue manifest, and move
   the job to ``running``. A sweep whose cells cannot be fingerprinted
   cannot be distributed and fails immediately with a clear error.
2. **Finalise** every ``running`` job whose cells have all resolved —
   load each cell's verified checkpoint record (a corrupt record is
   discarded exactly as ``--resume`` does, reopening the cell for
   workers), slot job-scoped fail markers in as
   :class:`~repro.evalx.parallel.CellFailure` gaps, assemble them with
   :func:`~repro.evalx.parallel.assemble_result` (the same tail a local
   run ends in), and publish the pickled
   :class:`~repro.evalx.result.ExperimentResult`.

Because payloads round-trip pickle exactly as checkpoint resume does,
a job's fetched result is byte-identical to a serial ``run_sharded`` of
the same grid — regardless of how many workers served it, in what
order, or how many of them died along the way.

The squash-vs-local-repair discipline the engine follows extends here
to hosts: losing a worker never squashes the sweep; its leases expire,
surviving workers re-lease exactly the unfinished cells, and the
completed records stand.

The coordinator itself is crash-safe in the same sense:

* ``_expand`` is idempotent — a coordinator killed after publishing
  the manifest but before moving the record to ``running`` leaves a
  ``submitted`` job with a manifest on disk, and the next expansion
  pass *adopts* that manifest instead of re-expanding.
* ``reconcile`` (run at ``serve`` startup) repairs the two other
  torn states a dead coordinator can leave: a ``running`` job with no
  readable manifest is demoted to ``submitted`` for re-expansion, and
  a ``done`` job whose result pickle is missing or unreadable is
  demoted to ``running`` so the next pass re-finalises it from the
  still-present checkpoint records.
* Deadlines and cancellation bound a job's lifetime: a job past its
  spec's ``timeout_seconds`` moves to the terminal ``expired`` state,
  and :meth:`Coordinator.cancel` moves an in-flight job to
  ``cancelled``; workers stop serving either at their next poll.

Chaos hooks: :func:`repro.evalx.faults.fire` runs on the synthetic
stage labels ``expand:<job_id>`` (after the manifest is durable,
before the record moves to ``running``) and ``finalise:<job_id>``
(after the result is durable, before the record moves to ``done``) —
the two crash windows above — so ``repro-chaos`` can kill a real
coordinator at exactly the instants the recovery paths exist for.
"""

from __future__ import annotations

import importlib
import pickle
import threading
import time
from pathlib import Path

from repro.evalx import faults
from repro.evalx.checkpoint import (
    CheckpointKeyError,
    CheckpointStore,
    cell_fingerprint,
)
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import assemble_result, is_failure
from repro.evalx.result import ExperimentResult
from repro.evalx.service import manifest as mf
from repro.evalx.service.costs import CostModel, shard_cells
from repro.evalx.service.jobs import (
    TERMINAL_STATES,
    JobRecord,
    JobStatus,
    JobStore,
)
from repro.evalx.service.queue import LeaseQueue

#: Default shard count per job when the submitter does not say.
DEFAULT_SHARDS = 4


class Coordinator:
    """Drives jobs through ``submitted -> running -> done | failed``.

    Args:
        root: The shared service directory.
        cost_model: Cell-cost estimates for shard balancing; default
            uncalibrated (pure trace-length).
        n_shards: Shards per job (worker-affinity granularity).
        metrics: Optional recorder for checkpoint/lease events.
    """

    def __init__(
        self,
        root: str | Path,
        cost_model: CostModel | None = None,
        n_shards: int = DEFAULT_SHARDS,
        metrics: RunMetrics | None = None,
    ) -> None:
        self.root = Path(root)
        self.jobs = JobStore(self.root)
        self.store = CheckpointStore(self.root / "store", resume=True)
        self.queue = LeaseQueue(self.store, metrics=metrics)
        self.cost_model = cost_model or CostModel()
        self.n_shards = n_shards
        self.metrics = metrics or RunMetrics.disabled()
        self._drain = threading.Event()

    # -- one scheduling pass ------------------------------------------

    def run_once(self) -> dict[str, int]:
        """Expand and finalise whatever is ready; returns counts.

        Deadline enforcement runs first, so a job that expired while
        the coordinator was away is retired before any work is spent
        expanding or finalising it.
        """
        expired = self._expire_deadlines()
        expanded = sum(
            self._expand(record)
            for record in self.jobs.list_jobs(state="submitted")
        )
        finished = sum(
            self._finalise(record)
            for record in self.jobs.list_jobs(state="running")
        )
        open_jobs = len(self.jobs.list_jobs(state="submitted")) + len(
            self.jobs.list_jobs(state="running")
        )
        return {
            "expanded": expanded,
            "finished": finished,
            "expired": expired,
            "open": open_jobs,
        }

    def request_drain(self) -> None:
        """Ask :meth:`serve` to stop after the in-flight pass.

        Signal-safe; the CLI wires SIGTERM/SIGINT here so a drained
        coordinator finishes its current expand/finalise pass (all of
        whose writes are atomic) and exits cleanly.
        """
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def serve(
        self,
        poll_seconds: float = 0.5,
        exit_when_idle: bool = False,
        max_rounds: int | None = None,
    ) -> None:
        """Poll until told to stop (or, optionally, until idle).

        Startup begins with :meth:`reconcile`, so a coordinator that
        replaced one that died mid-flight repairs any torn job state
        before scheduling new work.
        """
        self.reconcile()
        rounds = 0
        while not self._drain.is_set():
            summary = self.run_once()
            rounds += 1
            if exit_when_idle and summary["open"] == 0:
                return
            if max_rounds is not None and rounds >= max_rounds:
                return
            if self._drain.wait(poll_seconds):
                return

    # -- lifecycle control --------------------------------------------

    def cancel(self, job_id: str, reason: str = "") -> JobRecord:
        """Cancel an in-flight job (terminal ``cancelled`` state).

        Raises :class:`~repro.evalx.service.jobs.JobError` for unknown
        or already-terminal jobs. Workers notice at their next poll;
        any lease they hold on the job simply expires unrenewed once
        the in-flight cell resolves.
        """
        record = self.jobs.cancel(job_id, reason=reason)
        self.metrics.job_event(
            job_id, "cancelled", reason=record.error
        )
        return record

    def _expire_deadlines(self) -> int:
        """Retire every non-terminal job past its submission deadline."""
        expired = 0
        for record in self.jobs.list_jobs():
            if record.state in TERMINAL_STATES:
                continue
            limit = record.spec.timeout_seconds
            if limit is None or limit <= 0:
                continue
            if time.time() - record.submitted_ts < limit:
                continue
            reason = (
                f"deadline of {limit:g}s after submission exceeded"
            )
            self.jobs.update(record, state="expired", error=reason)
            self.metrics.job_event(
                record.job_id, "deadline_expired", reason=reason
            )
            expired += 1
        return expired

    def reconcile(self) -> dict[str, int]:
        """Repair job records a dead coordinator left inconsistent.

        Two torn states are possible (every individual write is
        atomic, so only *pairs* of writes can be interrupted):

        * ``running`` with no readable manifest — the manifest was
          lost or damaged after the record moved; demote to
          ``submitted`` so the next pass re-expands (deterministically,
          to the same fingerprints — completed cells are kept).
        * ``done`` with a missing/unreadable result pickle — demote to
          ``running`` so the next pass re-finalises from the checkpoint
          records, which re-publishes a byte-identical result.

        Returns ``{"requeued": ..., "rebuilt": ...}`` counts.
        """
        requeued = 0
        rebuilt = 0
        for record in self.jobs.list_jobs():
            if record.state == "running":
                try:
                    mf.read_manifest(self.root, record.job_id)
                except mf.ManifestError:
                    self.jobs.update(
                        record,
                        state="submitted",
                        cells_total=0,
                        shards=0,
                        estimated_cost=0.0,
                    )
                    self.metrics.job_event(
                        record.job_id,
                        "requeued",
                        reason="running job has no readable manifest",
                    )
                    requeued += 1
            elif record.state == "done":
                if self._result_ok(record.job_id):
                    continue
                self.jobs.update(record, state="running")
                self.metrics.job_event(
                    record.job_id,
                    "refinalise",
                    reason="done job result missing or unreadable",
                )
                rebuilt += 1
        return {"requeued": requeued, "rebuilt": rebuilt}

    def _result_ok(self, job_id: str) -> bool:
        """Whether the published result pickle loads as a result."""
        try:
            with open(self.jobs.result_path(job_id), "rb") as handle:
                return isinstance(pickle.load(handle), ExperimentResult)
        except Exception:
            # Damaged pickles raise essentially anything (EOFError,
            # UnpicklingError, AttributeError...); any of it means the
            # result must be rebuilt from the checkpoint records.
            return False

    # -- status -------------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        """Live cell-level progress for one job."""
        record = self.jobs.get(job_id)
        done = failed = leased = 0
        if record.state in ("running", "done"):
            try:
                manifest = mf.read_manifest(self.root, job_id)
            except mf.ManifestError:
                manifest = None
            if manifest is not None:
                records = self.store.fingerprints()
                fails = mf.failed_fingerprints(self.root, job_id)
                live_leases = self.store.leases()
                for entry in manifest.cells:
                    if entry.fingerprint in records:
                        done += 1
                    elif entry.fingerprint in fails:
                        failed += 1
                    elif entry.fingerprint in live_leases:
                        leased += 1
        return JobStatus(
            job_id=record.job_id,
            state=record.state,
            tenant=record.spec.tenant,
            experiment=record.spec.experiment,
            cells_total=record.cells_total,
            cells_done=done,
            cells_failed=failed,
            cells_leased=leased,
            shards=record.shards,
            error=record.error,
        )

    # -- expansion ----------------------------------------------------

    def _expand(self, record: JobRecord) -> bool:
        """Expand one submitted job (idempotent across crashes).

        If a previous coordinator died between publishing the manifest
        and moving the record to ``running``, the manifest on disk is
        adopted as-is — re-expansion would produce the same cells (the
        grid is deterministic), but adopting keeps the pass cheap and
        the manifest bytes identical.
        """
        spec = record.spec
        if self._adopt_manifest(record):
            return True
        try:
            module = importlib.import_module(
                f"repro.evalx.experiments.{spec.experiment}"
            )
            cells = module.cells(
                n_tasks=spec.n_tasks, quick=spec.quick, **spec.params
            )
        except Exception as exc:
            self.jobs.update(
                record,
                state="failed",
                error=f"cannot expand sweep: {exc!r}",
            )
            return False
        try:
            fingerprints = [
                cell_fingerprint(spec.experiment, cell) for cell in cells
            ]
        except CheckpointKeyError as exc:
            self.jobs.update(
                record,
                state="failed",
                error=(
                    "sweep has unfingerprintable cells and cannot be "
                    f"distributed: {exc}"
                ),
            )
            return False
        costs = [
            self.cost_model.estimate(spec.experiment, cell)
            for cell in cells
        ]
        shards, total = shard_cells(
            cells, self.n_shards, spec.experiment, self.cost_model
        )
        mf.write_manifest(
            self.root,
            record.job_id,
            spec.experiment,
            cells,
            fingerprints,
            costs,
            shards,
        )
        # Chaos stage hook: the manifest is durable but the record is
        # still `submitted` — the exact crash window _adopt_manifest
        # repairs on the next coordinator's pass.
        faults.fire(f"expand:{record.job_id}", 1)
        self.jobs.update(
            record,
            state="running",
            cells_total=len(cells),
            shards=len(shards),
            estimated_cost=total,
        )
        return True

    def _adopt_manifest(self, record: JobRecord) -> bool:
        """Promote a submitted job whose manifest already exists.

        The leftover of a coordinator killed mid-expand: manifest
        durable, record not yet ``running``. Adopting re-derives the
        bookkeeping from the manifest and moves the record on, without
        rewriting the manifest (workers may already be serving it).
        """
        try:
            manifest = mf.read_manifest(self.root, record.job_id)
        except mf.ManifestError:
            return False
        if manifest.experiment != record.spec.experiment:
            return False
        self.jobs.update(
            record,
            state="running",
            cells_total=len(manifest.cells),
            shards=len(manifest.shards),
            estimated_cost=sum(
                shard.estimated_cost for shard in manifest.shards
            ),
        )
        return True

    # -- finalisation -------------------------------------------------

    def _finalise(self, record: JobRecord) -> bool:
        job_id = record.job_id
        try:
            manifest = mf.read_manifest(self.root, job_id)
        except mf.ManifestError as exc:
            self.jobs.update(record, state="failed", error=str(exc))
            return False
        done = self.store.fingerprints()
        fails = mf.failed_fingerprints(self.root, job_id)
        if any(
            entry.fingerprint not in done
            and entry.fingerprint not in fails
            for entry in manifest.cells
        ):
            return False  # still in flight
        results = mf.read_results(
            self.root, job_id, self.store, manifest.cells, self.metrics
        )
        if results is None:
            return False  # a corrupt record reopened its cell
        failure = next((r for r in results if is_failure(r)), None)
        if failure is not None and not record.spec.keep_going:
            self.jobs.update(
                record,
                state="failed",
                error=(
                    f"cell {failure.label!r} failed "
                    f"({failure.kind} after {failure.attempts} "
                    f"attempt(s)): {failure.error}"
                ),
            )
            return False
        spec = record.spec
        cells = [entry.cell for entry in manifest.cells]
        try:
            module = importlib.import_module(
                f"repro.evalx.experiments.{spec.experiment}"
            )
            result = assemble_result(
                module,
                cells,
                results,
                n_tasks=spec.n_tasks,
                quick=spec.quick,
                **spec.params,
            )
        except Exception as exc:
            self.jobs.update(
                record, state="failed", error=f"combine failed: {exc!r}"
            )
            return False
        self.jobs.save_result(job_id, result)
        # Chaos stage hook: the result is durable but the record still
        # says `running` — the crash window reconcile()'s done-result
        # check and a plain re-finalise both repair.
        faults.fire(f"finalise:{job_id}", 1)
        self.jobs.update(record, state="done")
        return True
