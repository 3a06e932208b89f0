"""The sweep worker: fairly lease cells, run them, persist records.

A worker is one process on one host. Each ``run_once``:

1. Picks the running job this worker has served *least* (ties go to
   the older submission) — the fair round-robin that keeps two tenants'
   concurrent sweeps interleaving instead of queueing behind each
   other.
2. Walks that job's shards in order, preferring to stay on a shard it
   already works (shard affinity keeps the cost-balanced grouping
   meaningful) and leases the first open cell: no checkpoint record, no
   fail marker, no live lease. Expired leases are stolen — unless the
   expired claim's cross-steal attempt counter has reached
   ``max_lease_attempts``, in which case the cell is *quarantined*: a
   poison cell that kills every worker that leases it is finalised as a
   typed ``quarantined`` fail marker instead of crash-looping the fleet
   forever. Known-failed fingerprints are memoised per job, so a claim
   pass stats at most one new marker per candidate cell instead of
   rescanning the whole fails directory.
3. Runs the cell in-process through the engine's one retry loop
   (:func:`~repro.evalx.parallel.run_attempts`), under a heartbeat
   thread that renews the lease for as long as the cell takes. The
   attempt count starts after any attempts the cell already spent in
   workers that died running it (a local run's parent records those).
4. Publishes the result as an ordinary checkpoint record — the durable
   "done" bit every other participant polls — and releases the lease.
   A failure that survives the retry budget becomes a job-scoped fail
   marker instead. Before *any* publication the worker re-confirms it
   still owns the lease (`queue.owns`): a zombie worker — one that hung
   past its TTL, lost the lease to a thief, and woke up again — walks
   away instead of overwriting what the thief published.

Graceful drain: :meth:`Worker.request_drain` (wired to SIGTERM/SIGINT
by the CLI) lets the in-flight cell finish, then stops the serve loop
before the next claim — leases are released by the normal completion
path and the exit is clean.

Local runs: ``--jobs N`` forks N workers over a run-scoped service
directory (:mod:`repro.evalx.service.local`). Such a worker is given
its parent's pid and exits once the parent is gone, checked on every
heartbeat tick (at least every ``PARENT_CHECK_SECONDS``) and before
every claim, so a killed run leaves no orphans.

Chaos hooks: :func:`repro.evalx.faults.fire` runs at the top of every
cell attempt exactly as in serial runs (``raise``/``hang``/``kill``),
and it runs again with the service actions right after a lease is
acquired — with the lease's attempt generation, so ``kill-worker@X~0``
kills *every* worker that ever leases X (a poison cell) — and a
planned ``kill-worker`` fault dies holding a live lease, the precise
crash the expiry/steal path exists to repair.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ExperimentError
from repro.evalx import faults
from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import CellFailure, RetryPolicy, run_attempts
from repro.evalx.service import manifest as mf
from repro.evalx.service.jobs import JobRecord, JobStore
from repro.evalx.service.queue import (
    DEFAULT_TTL_SECONDS,
    Lease,
    LeaseQueue,
)


def default_worker_id() -> str:
    """``host:pid`` — unique per live worker process across hosts."""
    return f"{socket.gethostname()}:{os.getpid()}"


#: Consecutive failed lease renewals before a worker concludes it no
#: longer holds the cell. Three beats at TTL/3 means ownership is
#: declared lost right around the moment the unrenewed lease actually
#: expires and becomes stealable.
RENEW_FAILURE_THRESHOLD = 3

#: Exit status of a local worker that found its parent gone.
ORPHAN_EXIT_STATUS = 3

#: How often a local worker's heartbeat checks that its parent lives.
PARENT_CHECK_SECONDS = 0.5

#: Lease generations (fresh claim + steals) a cell may burn before it
#: is quarantined. Three mirrors the engine's renew threshold: worker
#: deaths are rare and independent, so three in a row on one cell is a
#: poison cell, not bad luck.
DEFAULT_MAX_LEASE_ATTEMPTS = 3


@dataclass
class _Held:
    """The lease a worker's heartbeat thread renews."""

    entry: mf.ManifestCell
    job_id: str
    lost: threading.Event
    renew_at: float
    failures: int = 0  # consecutive failed renewals


class Worker:
    """One lease-and-run loop over a shared service directory.

    Args:
        root: The shared service directory.
        worker_id: Lease-ownership identity; defaults to ``host:pid``.
        ttl_seconds: Lease lifetime between heartbeats.
        retry: Engine retry policy for in-process attempts (the
            per-cell timeout is not enforced here, like the serial
            path; a dead worker is handled by lease expiry instead, or
            by the parent of a local run).
        metrics: Optional recorder (cell attempts + lease events).
        renew_failure_threshold: Consecutive heartbeat renewal
            failures after which the worker treats its lease as lost
            and abandons the cell instead of publishing.
        max_lease_attempts: Lease generations (fresh + steals) a cell
            may burn before this worker quarantines it instead of
            stealing the expired claim.
        store: Where records and leases live; defaults to the service
            directory's ``store``. A local run passes the caller's
            checkpoint store.
        parent_pid: Set for a forked local worker: the worker exits
            once ``os.getppid()`` no longer returns it.
        job: Set for a forked local worker: the one running job it
            serves and its manifest, handed over in memory instead of
            read from the job store.
    """

    def __init__(
        self,
        root: str | Path,
        worker_id: str | None = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        retry: RetryPolicy | None = None,
        metrics: RunMetrics | None = None,
        renew_failure_threshold: int = RENEW_FAILURE_THRESHOLD,
        max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS,
        store: CheckpointStore | None = None,
        parent_pid: int | None = None,
        job: tuple[JobRecord, mf.Manifest] | None = None,
    ) -> None:
        self.root = Path(root)
        self.worker_id = worker_id or default_worker_id()
        self.jobs = JobStore(self.root)
        self.store = store or CheckpointStore(
            self.root / "store", resume=True
        )
        self.parent_pid = parent_pid
        self.metrics = metrics or RunMetrics.disabled()
        self.queue = LeaseQueue(
            self.store, ttl_seconds=ttl_seconds, metrics=self.metrics
        )
        self.retry = retry or RetryPolicy()
        self.renew_failure_threshold = max(1, renew_failure_threshold)
        self.max_lease_attempts = max(1, max_lease_attempts)
        self._served: dict[str, int] = {}
        self._shard_affinity: dict[str, int] = {}
        # Per-job memo of fingerprints with a recorded fail marker, so
        # a claim pass checks one path per candidate instead of
        # re-globbing the fails directory every time.
        self._failed: dict[str, set[str]] = {}
        # A manifest never changes once published (a re-expansion
        # rebuilds the same cells), so each job's is read once.
        self._manifests: dict[str, mf.Manifest] = {}
        self._pinned = job[0] if job is not None else None
        if job is not None:
            self._manifests[job[0].job_id] = job[1]
        self._done: dict[str, set[str]] = {}
        self._drain = threading.Event()
        self._held: _Held | None = None  # None between cells
        self._beat: threading.Thread | None = None
        self._beat_lock = threading.Lock()
        self._beat_wake = threading.Event()

    # -- scheduling ---------------------------------------------------

    def _job_ring(self) -> list[JobRecord]:
        """Running jobs, least-served by this worker first."""
        if self._pinned is not None:
            return [self._pinned]
        running = self.jobs.list_jobs(state="running")
        return sorted(
            running,
            key=lambda r: (
                self._served.get(r.job_id, 0),
                r.submitted_ts,
                r.job_id,
            ),
        )

    def _is_failed(self, job_id: str, fingerprint: str) -> bool:
        """Whether the cell already has a final fail marker.

        Positive answers are memoised (markers are never retracted
        within a job), so steady-state claims cost one ``stat`` per
        still-open candidate rather than a directory glob per claim.
        """
        memo = self._failed.setdefault(job_id, set())
        if fingerprint in memo:
            return True
        if mf.fail_path(self.root, job_id, fingerprint).exists():
            memo.add(fingerprint)
            return True
        return False

    def _claim(
        self, job: JobRecord
    ) -> tuple[mf.ManifestCell, Lease] | None:
        """Lease the next open cell of one job, or None.

        An expired lease whose attempt counter has reached
        ``max_lease_attempts`` marks a poison cell: instead of stealing
        it (and probably dying like the previous owners), the cell is
        quarantined with a typed fail marker and skipped.

        Cells seen done are skipped unchecked until a pass finds
        nothing, which forgets them (a record discarded as corrupt
        reopens its cell): a claim costs O(open cells), not O(grid).
        """
        done = self._done.setdefault(job.job_id, set())
        manifest = self._manifests.get(job.job_id)
        if manifest is None:
            try:
                manifest = mf.read_manifest(self.root, job.job_id)
            except mf.ManifestError:
                return None
            self._manifests[job.job_id] = manifest
        shards = list(manifest.shards)
        # Shard affinity: resume the shard this worker last served so
        # the cost-balanced grouping stays a grouping.
        preferred = self._shard_affinity.get(job.job_id)
        if preferred is not None:
            shards.sort(key=lambda s: (s.index != preferred, s.index))
        for shard in shards:
            for entry in manifest.shard_cells(shard):
                if entry.fingerprint in done or self._is_failed(
                    job.job_id, entry.fingerprint
                ):
                    continue
                if self.store.has(entry.fingerprint):
                    done.add(entry.fingerprint)
                    continue
                current = self.queue.read(entry.fingerprint)
                if current is not None and not current.expired():
                    continue  # a live worker holds it
                if (
                    current is not None
                    and current.attempt >= self.max_lease_attempts
                ):
                    self._quarantine(job, entry, current)
                    continue
                lease = self.queue.acquire(
                    entry.fingerprint,
                    entry.label,
                    job.job_id,
                    self.worker_id,
                )
                if lease is not None:
                    self._shard_affinity[job.job_id] = shard.index
                    return entry, lease
        done.clear()
        return None

    def _quarantine(
        self, job: JobRecord, entry: mf.ManifestCell, lease: Lease
    ) -> None:
        """Finalise a poison cell as failed instead of re-leasing it.

        First writer wins on the marker, so of N workers noticing the
        exhausted claim at once exactly one records the quarantine (and
        clears the dead lease); the rest just memoise the marker.
        """
        failure = CellFailure(
            label=entry.label,
            kind=mf.QUARANTINED,
            error=(
                f"cell burned {lease.attempt} lease attempt(s) — its "
                "workers keep dying or losing the lease; quarantined "
                f"at the {self.max_lease_attempts}-attempt threshold "
                "instead of being re-leased"
            ),
            attempts=lease.attempt,
            wall_seconds=0.0,
        )
        if mf.write_fail(
            self.root, job.job_id, entry.fingerprint, failure
        ):
            self.metrics.lease_event(
                entry.label,
                "quarantined",
                entry.fingerprint,
                worker=self.worker_id,
                job=job.job_id,
            )
            self.queue.clear(entry.fingerprint)
        self._failed.setdefault(job.job_id, set()).add(
            entry.fingerprint
        )

    def run_once(self) -> str | None:
        """Serve one cell from the fairest job; its label, or None."""
        for job in self._job_ring():
            claimed = self._claim(job)
            if claimed is None:
                continue
            entry, lease = claimed
            self._served[job.job_id] = (
                self._served.get(job.job_id, 0) + 1
            )
            faults.fire(entry.label, lease.attempt, faults.SERVICE_ACTIONS)
            self._execute(job, entry)
            return entry.label
        return None

    def request_drain(self) -> None:
        """Ask :meth:`serve` to stop once in-flight work finishes.

        Signal-safe (a bare ``Event.set``), so the CLI's SIGTERM/SIGINT
        handlers call it directly: the current cell runs to completion
        (or is abandoned by the normal ownership checks), its lease is
        released on the usual path, and the loop exits cleanly instead
        of leasing another cell.
        """
        self._drain.set()

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def _orphaned(self) -> bool:
        """Whether this is a local worker whose parent has gone."""
        return self.parent_pid is not None and (
            os.getppid() != self.parent_pid
        )

    def serve(
        self,
        poll_seconds: float = 0.5,
        max_cells: int | None = None,
        idle_rounds: int = 3,
    ) -> int:
        """Run cells until ``max_cells``, a drain, or an empty queue.

        ``idle_rounds`` consecutive empty polls end the loop (pass a
        large value for a long-lived daemon worker); returns the number
        of cells this worker completed or finalised as failed.
        """
        ran = 0
        idle = 0
        while not self._drain.is_set() and not self._orphaned():
            label = self.run_once()
            if label is None:
                idle += 1
                if idle >= idle_rounds:
                    return ran
                if self._drain.wait(poll_seconds):
                    return ran
                continue
            idle = 0
            ran += 1
            if max_cells is not None and ran >= max_cells:
                return ran
        return ran

    # -- execution ----------------------------------------------------

    def _execute(self, job: JobRecord, entry: mf.ManifestCell) -> None:
        """Run one leased cell with retries under a heartbeat.

        When the heartbeat declares the lease lost (``lost`` set after
        repeated renewal failures), nothing is published: a checkpoint
        record or fail marker written by a worker that no longer holds
        the cell would race the worker that re-leased it. Ownership is
        additionally re-probed on disk (`queue.owns`) right before each
        publication: a zombie worker frozen past its TTL can wake and
        reach this point *before* its heartbeat accumulates enough
        failures to set ``lost``, and must still not overwrite whatever
        the thief published. Saving the record is part of each attempt:
        a result that cannot be saved fails the attempt, so it ends as
        a fail marker instead of an open cell leased again forever.
        """
        lost = self._hold(entry, job.job_id)
        try:
            policy = replace(
                self.retry,
                retries=max(self.retry.retries, job.spec.retries),
            )
            spent = mf.read_spent(self.root, job.job_id, entry.fingerprint)
            published = False

            def publish(payload) -> None:
                nonlocal published
                if lost.is_set() or not self.queue.owns(
                    entry.fingerprint, self.worker_id
                ):
                    return  # not ours any more: abandoned below
                saved = self.store.save(
                    entry.fingerprint,
                    entry.label,
                    job.spec.experiment,
                    payload,
                )
                self.metrics.checkpoint_event(
                    entry.label,
                    "saved" if saved else "save-failed",
                    entry.fingerprint,
                )
                if not saved:
                    # The record is the only way the result gets out.
                    raise ExperimentError(
                        "cell result could not be published (not "
                        "picklable, or the store write failed)"
                    )
                published = True

            outcome, _ = run_attempts(
                entry.cell,
                policy,
                self.metrics,
                first=spent + 1,
                lost=lost,
                publish=publish,
            )
            if lost.is_set():
                self._abandon(job, entry)
                return
            if published:
                action = "completed"
            elif isinstance(outcome, CellFailure) and self.queue.owns(
                entry.fingerprint, self.worker_id
            ):
                if not mf.write_fail(
                    self.root, job.job_id, entry.fingerprint, outcome
                ):
                    # Someone else's marker is already final.
                    self._abandon(job, entry)
                    return
                action = "failed"
            else:
                self._abandon(job, entry)
                return
            self.metrics.lease_event(
                entry.label,
                action,
                entry.fingerprint,
                worker=self.worker_id,
                job=job.job_id,
            )
        finally:
            self._hold(None, job.job_id)
            self.queue.release(entry.fingerprint, self.worker_id)

    def _abandon(self, job: JobRecord, entry: mf.ManifestCell) -> None:
        """Walk away from a cell whose lease this worker lost.

        Publishes nothing — no checkpoint record, no fail marker —
        because whoever re-leases the cell owns its outcome now. The
        cell stays open (or already belongs to the thief), so no work
        is lost, only the duplicate publication.
        """
        self.metrics.lease_event(
            entry.label,
            "abandoned",
            entry.fingerprint,
            worker=self.worker_id,
            job=job.job_id,
        )

    def _hold(
        self, entry: mf.ManifestCell | None, job_id: str
    ) -> threading.Event:
        """Hand the heartbeat thread the lease to renew (None: stop).

        Returns the lease's ``lost`` event. Renewals run under the same
        lock, so once the lease is handed back none is in flight and a
        release cannot race one. One thread serves every cell of this
        worker; it is started here when none is running.
        """
        lost = threading.Event()
        interval = max(self.queue.ttl_seconds / 3.0, 0.05)
        with self._beat_lock:
            self._held = None
            if entry is not None:
                renew_at = time.monotonic() + interval
                self._held = _Held(entry, job_id, lost, renew_at)
                if self._beat is None:
                    self._beat = threading.Thread(
                        target=self._heartbeat, daemon=True
                    )
                    self._beat.start()
        self._beat_wake.set()
        return lost

    def _heartbeat(self) -> None:
        """Renew the held lease at a third of its TTL.

        A renewal can fail because ownership moved (the lease expired
        while this worker was descheduled and someone stole it) or
        because the write itself failed (ENOSPC, queue directory
        removed). Either way the lease is dying under a live worker:
        after ``renew_failure_threshold`` consecutive failures the
        thread sets ``lost`` and stops renewing it, and the executor
        abandons the cell instead of publishing a result it no longer
        owns. The thread exits once a whole interval passes with no
        lease held; the next lease starts a new one.

        A local worker's heartbeat also wakes every
        ``PARENT_CHECK_SECONDS`` to watch its parent: once the parent is
        gone the whole process exits, whatever the cell is doing.
        """
        interval = max(self.queue.ttl_seconds / 3.0, 0.05)
        tick = interval
        if self.parent_pid is not None:
            tick = min(interval, PARENT_CHECK_SECONDS)
        idle_since = None
        while True:
            with self._beat_lock:
                held = self._held
                wait = tick
                if held is not None and not held.lost.is_set():
                    wait = min(tick, held.renew_at - time.monotonic())
            self._beat_wake.wait(max(wait, 0.0))
            self._beat_wake.clear()
            if self._orphaned():
                os._exit(ORPHAN_EXIT_STATUS)
            with self._beat_lock:
                held = self._held
                now = time.monotonic()
                if held is None:
                    idle_since = idle_since or now
                    if now - idle_since >= interval:
                        self._beat = None
                        return
                    continue
                idle_since = None
                if now < held.renew_at or held.lost.is_set():
                    continue
                held.renew_at = now + interval
                if self.queue.renew(
                    held.entry.fingerprint,
                    held.entry.label,
                    held.job_id,
                    self.worker_id,
                ):
                    held.failures = 0
                    continue
                held.failures += 1
                if held.failures >= self.renew_failure_threshold:
                    held.lost.set()
