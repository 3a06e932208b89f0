"""Local ``--jobs N`` runs: the lease queue served by forked workers.

:func:`run_local` forks N :class:`~repro.evalx.service.worker.Worker`
loops after the workload prewarm, so they inherit its warm caches and
the grid, as one running job with its manifest, in memory. Fail
markers go to a temporary service directory; leases and records go to
the caller's checkpoint store when there is one, so a killed run
resumes from them. The parent relays their
metrics records to its own recorder, charges a dead worker's death to
the cell its lease names as one attempt of that cell's retry budget
(kind ``crash``, or ``timeout`` when the parent killed it for outliving
the per-cell deadline) and forks a replacement, and without
``keep_going`` stops everything at the first final failure. The next
worker to lease a charged cell reads the attempts already spent
(:func:`~repro.evalx.service.manifest.write_spent`), so attempt
numbers, fault-injection victims and retry budgets match a serial run.
"""

from __future__ import annotations

import fcntl
import os
import shutil
import signal
import socket
import sys
import tempfile
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing import Pipe
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Any

from repro.errors import CellExecutionError
from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import (
    Cell,
    CellCheckpoint,
    CellFailure,
    RetryPolicy,
    cell_error,
    is_failure,
)
from repro.evalx.service import manifest as mf
from repro.evalx.service.costs import Shard
from repro.evalx.service.jobs import JobRecord, JobSpec
from repro.evalx.service.queue import LeaseQueue
from repro.evalx.service.worker import Worker


def _forward(name: str):
    def forward(self, *args, **kwargs):
        self._conn.send((name, args, kwargs))

    return forward


class _Relay(RunMetrics):
    """A forked worker's recorder: sends each record to the parent."""

    def __init__(self, conn: Connection) -> None:
        super().__init__(path=None, progress=False)
        self._conn = conn

    cell_attempt = _forward("cell_attempt")
    checkpoint_event = _forward("checkpoint_event")
    lease_event = _forward("lease_event")


@dataclass
class _Child:
    """The parent's view of one forked worker."""

    pid: int
    worker_id: str
    key: str | None = None  # the cell it holds a lease on
    since: float = 0.0  # when its current attempt started
    timed_out: bool = False


class _LocalRun:
    def __init__(
        self,
        root: Path,
        cells: Sequence[Cell],
        policy: RetryPolicy,
        keep_going: bool,
        metrics: RunMetrics,
        checkpoint: CellCheckpoint | None,
    ) -> None:
        self.root = root
        self.cells = list(cells)
        self.policy = policy
        self.keep_going = keep_going
        self.metrics = metrics
        # Records in a throwaway store are this run's plumbing, not
        # checkpoint events worth reporting.
        self.report_saves = checkpoint is not None
        if checkpoint is None:
            checkpoint = CellCheckpoint(
                CheckpointStore(root / "store"),
                "local",
                (None,) * len(self.cells),
            )
        self.store = checkpoint.store
        # An unfingerprintable cell gets a run-unique key; its record is
        # not content-addressed, so it is deleted once read back.
        self.unkeyed = {i for i, k in enumerate(checkpoint.keys) if k is None}
        self.keys = [
            key or f"{root.name}-{i}" for i, key in enumerate(checkpoint.keys)
        ]
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.queue = LeaseQueue(self.store)
        self.children: dict[Connection, _Child] = {}
        self.spent: dict[str, int] = {}
        self.host = socket.gethostname()
        self.parent_pid = os.getpid()
        for key in self.keys:
            # This run owns its cells: a claim left by a killed run is
            # dropped, and a fresh (non-resume) run recomputes a cell
            # instead of serving an old record.
            self.queue.clear(key)
            if not self.store.resume:
                self.store.path_for(key).unlink(missing_ok=True)
        # The forked workers inherit the job and its manifest: one
        # shard in grid order, so cells are leased first come, first
        # served, in the order the grid lists them.
        self.job_id = "local"
        spec = JobSpec(
            experiment=checkpoint.experiment,
            keep_going=keep_going,
            retries=policy.retries,
        )
        self.job = JobRecord(self.job_id, "running", spec, time.time())
        self.manifest = mf.Manifest(
            self.job_id,
            spec.experiment,
            tuple(
                mf.ManifestCell(i, cell.label, self.keys[i], 0.0, cell)
                for i, cell in enumerate(self.cells)
            ),
            (Shard(0, tuple(range(len(self.cells))), 0.0),),
        )

    def fork(self) -> None:
        reader, writer = Pipe(duplex=False)
        pid = os.fork()
        if pid == 0:  # the child: one worker loop, then exit
            code = 0
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                reader.close()
                for sibling in self.children:
                    sibling.close()
                worker = Worker(
                    self.root,
                    retry=self.policy,
                    metrics=_Relay(writer),
                    store=self.store,
                    parent_pid=self.parent_pid,
                    job=(self.job, self.manifest),
                )
                signal.signal(
                    signal.SIGTERM, lambda *_: worker.request_drain()
                )
                worker.serve(poll_seconds=0.0, idle_rounds=1)
            except BaseException:  # never unwind into the parent's frames
                traceback.print_exc()
                code = 1
            finally:
                sys.stderr.flush()
                os._exit(code)
        writer.close()
        self.children[reader] = _Child(pid, f"{self.host}:{pid}")

    def supervise(self) -> None:
        """Relay records and handle deaths until every worker exits."""
        limit = self.policy.timeout_seconds
        while self.children:
            ready = wait(list(self.children), None if limit is None else 0.05)
            for conn in ready:
                child = self.children[conn]
                try:
                    while conn.poll():
                        self._relay(child, *conn.recv())
                except EOFError:
                    del self.children[conn]
                    conn.close()
                    self._reap(child)
            now = time.monotonic()
            for child in self.children.values():
                if limit is not None and child.key and not child.timed_out:
                    if now - child.since > limit:
                        child.timed_out = True
                        os.kill(child.pid, signal.SIGKILL)

    def _relay(self, child: _Child, name: str, args, kwargs) -> None:
        if name == "lease_event":  # (label, action, fingerprint): tracked
            if args[1] in ("leased", "steal"):
                child.key, child.since = args[2], time.monotonic()
            elif args[1] in ("released", "abandoned"):
                child.key = None
            return
        if name == "checkpoint_event" and not self.report_saves:
            return
        getattr(self.metrics, name)(*args, **kwargs)
        if name == "cell_attempt" and child.key is not None:
            self.spent[child.key] = kwargs["attempt"]
            child.since = time.monotonic()
            final = kwargs.get("final", True)
            if final and kwargs["status"] != "ok" and not self.keep_going:
                raise cell_error(
                    self.cells[self.index[child.key]], kwargs["error"]
                )

    def _reap(self, child: _Child) -> None:
        """Charge an exited worker's death to the cell its lease names."""
        _, status = os.waitpid(child.pid, 0)
        if status == 0:
            return  # it served until idle, releasing every lease
        key = child.key
        lease = self.queue.read(key) if key is not None else None
        if lease is not None and lease.worker == child.worker_id:
            if self.store.has(key) or mf.read_fail(
                self.root, self.job_id, key
            ):
                self.queue.clear(key)  # it died after publishing
            else:
                self._charge(key, child, status)
        elif not child.timed_out:
            return  # it died holding no cell: nothing to charge or redo
        self.fork()

    def _charge(self, key: str, child: _Child, status: int) -> None:
        cell = self.cells[self.index[key]]
        attempt = self.spent[key] = self.spent.get(key, 0) + 1
        wall = time.monotonic() - child.since
        final = attempt > self.policy.retries
        kind, error = "crash", (
            f"worker process {child.pid} died (exit status "
            f"{os.waitstatus_to_exitcode(status)})"
        )
        if child.timed_out:
            kind, error = "timeout", (
                "cell exceeded the per-cell timeout of "
                f"{self.policy.timeout_seconds}s"
            )
        self.metrics.cell_attempt(
            cell.label, status=kind, attempt=attempt, wall_seconds=wall,
            final=final, worker_pid=child.pid, error=error,
        )
        # Record the outcome before clearing the lease reopens the cell.
        if not final:
            mf.write_spent(self.root, self.job_id, key, attempt)
        elif self.keep_going:
            failure = CellFailure(cell.label, kind, error, attempt, wall)
            mf.write_fail(self.root, self.job_id, key, failure)
        self.queue.clear(key)
        if final and not self.keep_going:
            raise cell_error(cell, error)

    def results(self, on_result: Callable[[Cell, Any], None] | None) -> list:
        """Read back what the workers published, in cell order."""
        results = mf.read_results(
            self.root, self.job_id, self.store, self.manifest.cells,
            self.metrics,
        )
        if results is None:
            raise CellExecutionError(
                "every worker exited with a cell still unresolved"
            )
        for i in self.unkeyed:
            self.store.path_for(self.keys[i]).unlink(missing_ok=True)
        for cell, payload in zip(self.cells, results):
            if on_result is not None and not is_failure(payload):
                on_result(cell, payload)
        return results

    def stop(self) -> None:
        """Kill and reap every worker still running."""
        for conn, child in self.children.items():
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
            conn.close()
        self.children.clear()


def _lock_run_dir() -> tuple[Path, int]:
    """A fresh run directory and an open fd holding its ``lock``.

    The lock file is locked before it gets its name, so every ``lock``
    another run can see belongs to a live run or to a dead one.
    """
    root = Path(tempfile.mkdtemp(prefix=f"repro-run-{os.getpid()}-"))
    fd = os.open(root / ".lock", os.O_CREAT | os.O_RDWR)
    fcntl.flock(fd, fcntl.LOCK_EX)
    os.rename(root / ".lock", root / "lock")
    return root, fd


def _remove_dead_runs() -> None:
    """Remove run directories whose run is gone.

    A run and the workers it forked hold its directory's lock while
    they live. The kernel drops it when the last of them exits, so a
    lock that can be taken proves the run gone, whichever PID namespace
    or container it ran in.
    """
    for lock in Path(tempfile.gettempdir()).glob("repro-run-*/lock"):
        try:
            fd = os.open(lock, os.O_RDWR)
        except OSError:
            continue  # removed meanwhile
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            shutil.rmtree(lock.parent, ignore_errors=True)
        except OSError:
            pass  # its run is still alive
        finally:
            os.close(fd)


def run_local(
    cells: Sequence[Cell],
    n_workers: int,
    policy: RetryPolicy,
    keep_going: bool,
    metrics: RunMetrics,
    on_result: Callable[[Cell, Any], None] | None = None,
    checkpoint: CellCheckpoint | None = None,
) -> list:
    """Run a grid under ``n_workers`` forked lease-queue workers.

    Same contract as :func:`repro.evalx.parallel.execute_cells`:
    payloads (or :class:`~repro.evalx.parallel.CellFailure` gaps) in
    cell order. The temporary service directory is removed on the way
    out, together with any worker still running; directories that
    killed runs left behind are removed on the way in.
    """
    _remove_dead_runs()
    root, lock = _lock_run_dir()
    try:
        run = _LocalRun(root, cells, policy, keep_going, metrics, checkpoint)
        try:
            for _ in range(min(n_workers, len(cells))):
                run.fork()
            run.supervise()
            return run.results(on_result)
        finally:
            run.stop()
    finally:
        shutil.rmtree(root, ignore_errors=True)
        os.close(lock)
