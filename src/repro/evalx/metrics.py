"""Run observability: JSONL metrics, live progress, and run manifests.

:class:`RunMetrics` is the recorder the experiment scheduler threads
through every cell execution. It serves three audiences at once:

* **machines** — one JSON object per line appended to ``--metrics PATH``
  (schema below), so dashboards and CI can parse where wall-clock time
  went without scraping logs;
* **humans watching** — a single live progress line on stderr (only when
  stderr is a terminal, so logs stay clean);
* **humans later** — a run manifest (git sha, config, jobs, per-profile
  seeds) written next to the metrics file, enough to re-run the exact
  sweep.

Metrics JSONL schema (one record per line, ``event`` discriminates):

``experiment_start``
    ``{"event", "ts", "experiment", "cells", "jobs"}``
``cell``
    ``{"event", "ts", "experiment", "cell", "status", "attempt",
    "final", "wall_seconds", "worker_pid", "cache", "error"}`` —
    one record per *attempt*; ``status`` is ``ok`` / ``error`` /
    ``timeout`` / ``crash``; ``final`` is false when a retry follows;
    ``cache`` holds the :func:`repro.synth.workloads.cache_counters`
    deltas observed by that attempt (trace/program hits and builds).
``checkpoint``
    ``{"event", "ts", "experiment", "cell", "action", "fingerprint",
    "reason"}`` — one record per checkpoint-store interaction;
    ``action`` is ``resume`` (verified record served, cell skipped),
    ``saved`` (completed cell persisted), ``save-failed``, ``corrupt``
    (record failed verification and was discarded; ``reason`` says
    why), or ``unfingerprintable`` (kwargs not canonicalizable — cell
    runs but is never checkpointed).
``fault``
    ``{"event", "ts", "experiment", "cell", "action", "attempt",
    "phase"}`` — injected-fault bookkeeping; ``phase`` is ``armed``
    (the plan targets this cell in this experiment) or ``fired``
    (parent-side store corruption applied). Worker-side faults show up
    as ordinary ``cell`` failure records.
``lease``
    ``{"event", "ts", "experiment", "cell", "action", "fingerprint",
    "worker", "job"}`` — one record per sweep-service lease
    interaction (:mod:`repro.evalx.service.queue`); ``action`` is
    ``leased`` (fresh claim), ``steal`` (an expired lease was taken
    over), ``heartbeat`` (renewal), ``released``, ``completed`` (the
    lease resolved into a checkpoint record), ``failed`` (the cell's
    failure became final and a fail marker was written), ``abandoned``
    (the worker lost lease ownership mid-cell and published nothing),
    or ``quarantined`` (the lease attempt counter hit the poison-cell
    threshold and the cell was finalised as failed instead of
    re-leased).
``job``
    ``{"event", "ts", "experiment", "job", "action", "reason"}`` — one
    record per job-lifecycle transition the coordinator drives outside
    the normal expand/finalise flow; ``action`` is ``cancelled`` (an
    operator cancelled the job), ``deadline_expired`` (the job outlived
    its ``timeout_seconds``), ``requeued`` (startup reconciliation
    demoted a manifest-less ``running`` job to ``submitted``), or
    ``refinalise`` (reconciliation found a ``done`` job with an
    unreadable result and demoted it to ``running`` for a rebuild).
``drain``
    ``{"event", "ts", "experiment", "role", "signal", "served"}`` — a
    sweep-service worker or coordinator caught SIGTERM/SIGINT, finished
    (or abandoned) its in-flight work, released leases, and is about to
    exit cleanly; ``served`` counts cells completed before the drain.
``interrupt``
    ``{"event", "ts", "experiment", "signal"}`` — the run caught
    SIGINT/SIGTERM, flushed, and is about to re-raise; everything
    recorded before this line is resumable state.
``experiment``
    ``{"event", "ts", "experiment", "cells", "resumed", "failed",
    "retries", "wall_seconds"}`` — the per-experiment total.

Everything here is observability only: recorders never influence cell
scheduling or payloads, so results stay bit-identical with or without
``--metrics``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, TextIO


class RunMetrics:
    """Append-only JSONL recorder plus a live stderr progress line.

    Args:
        path: File to append JSONL records to; ``None`` records nothing.
        progress: Force the stderr progress line on/off; ``None`` (the
            default) enables it only when stderr is a terminal.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        progress: bool | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._handle: TextIO | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        if progress is None:
            progress = bool(getattr(sys.stderr, "isatty", lambda: False)())
        self._progress = progress
        self._experiment = "?"
        self._total = 0
        self._done = 0
        self._failed = 0
        self._retries = 0
        self._resumed = 0
        self._started = 0.0

    @classmethod
    def disabled(cls) -> RunMetrics:
        """A recorder that records nothing (the scheduler's default)."""
        return cls(path=None, progress=False)

    # -- lifecycle ----------------------------------------------------

    def begin_experiment(
        self, experiment_id: str, n_cells: int, jobs: int
    ) -> None:
        """Mark the start of one experiment's cell grid."""
        self._experiment = experiment_id
        self._total = n_cells
        self._done = 0
        self._failed = 0
        self._retries = 0
        self._resumed = 0
        self._started = time.perf_counter()
        self._record("experiment_start", cells=n_cells, jobs=jobs)
        self._draw_progress()

    def cell_attempt(
        self,
        label: str,
        status: str,
        attempt: int,
        wall_seconds: float,
        final: bool = True,
        worker_pid: int | None = None,
        cache: dict[str, int] | None = None,
        error: str | None = None,
    ) -> None:
        """Record one attempt of one cell (``status``: ok/error/timeout/crash)."""
        self._record(
            "cell",
            cell=label,
            status=status,
            attempt=attempt,
            final=final,
            wall_seconds=round(wall_seconds, 6),
            worker_pid=worker_pid,
            cache=cache or None,
            error=error,
        )
        if final:
            self._done += 1
            if status != "ok":
                self._failed += 1
        else:
            self._retries += 1
        self._draw_progress()

    def checkpoint_event(
        self,
        label: str,
        action: str,
        fingerprint: str = "",
        reason: str | None = None,
    ) -> None:
        """Record one checkpoint-store interaction for one cell.

        ``action``: ``resume`` / ``saved`` / ``save-failed`` /
        ``corrupt`` / ``unfingerprintable``. A ``resume`` also advances
        the progress line — the cell's slot is filled without running.
        """
        self._record(
            "checkpoint",
            cell=label,
            action=action,
            fingerprint=fingerprint or None,
            reason=reason,
        )
        if action == "resume":
            self._done += 1
            self._resumed += 1
            self._draw_progress()

    def lease_event(
        self,
        label: str,
        action: str,
        fingerprint: str = "",
        worker: str = "",
        job: str = "",
    ) -> None:
        """Record one sweep-service lease interaction for one cell.

        ``action``: ``leased`` / ``steal`` / ``heartbeat`` /
        ``released`` / ``completed`` / ``failed`` / ``abandoned`` /
        ``quarantined``.
        """
        self._record(
            "lease",
            cell=label,
            action=action,
            fingerprint=fingerprint or None,
            worker=worker or None,
            job=job or None,
        )

    def job_event(
        self, job_id: str, action: str, reason: str = ""
    ) -> None:
        """Record one job-lifecycle transition (sweep service).

        ``action``: ``cancelled`` / ``deadline_expired`` /
        ``requeued`` / ``refinalise`` — the coordinator-driven
        transitions that happen outside the normal expand/finalise
        flow, so operators can audit why a job left the queue.
        """
        self._record("job", job=job_id, action=action, reason=reason or None)

    def drain_event(
        self, role: str, signal_name: str, served: int | None = None
    ) -> None:
        """Record a graceful sweep-service drain and flush.

        Emitted by the worker/coordinator CLIs after a SIGTERM/SIGINT
        drained the loop: in-flight work finished or was abandoned,
        leases were released, and the process is about to exit cleanly.
        """
        self._record("drain", role=role, signal=signal_name, served=served)
        if self._progress:
            sys.stderr.write(
                f"\n[{role} drained after {signal_name}]\n"
            )
            sys.stderr.flush()

    def fault_event(
        self, label: str, action: str, attempt: int, phase: str
    ) -> None:
        """Record an injected fault (``phase``: armed / fired)."""
        self._record(
            "fault", cell=label, action=action, attempt=attempt, phase=phase
        )

    def interrupted(self, signal_name: str) -> None:
        """Record a graceful interrupt (SIGINT/SIGTERM) and flush.

        Emitted after the workers are stopped and before the interrupt
        re-raises; every record before this line is durable, so a
        ``--resume`` of the same checkpoint dir picks up exactly here.
        """
        self._record("interrupt", signal=signal_name)
        if self._progress:
            sys.stderr.write(f"\n[interrupted by {signal_name}]\n")
            sys.stderr.flush()

    def end_experiment(self) -> None:
        """Record the experiment total and finish the progress line."""
        self._record(
            "experiment",
            cells=self._total,
            resumed=self._resumed,
            failed=self._failed,
            retries=self._retries,
            wall_seconds=round(time.perf_counter() - self._started, 6),
        )
        if self._progress:
            self._draw_progress()
            sys.stderr.write("\n")
            sys.stderr.flush()

    def close(self) -> None:
        """Flush and close the JSONL file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> RunMetrics:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ----------------------------------------------------

    def _record(self, event: str, **fields: Any) -> None:
        """Append one record; fields that are ``None`` are left out."""
        if self._handle is None:
            return
        record = {
            "event": event,
            "ts": time.time(),
            "experiment": self._experiment,
            **{k: v for k, v in fields.items() if v is not None},
        }
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()

    def _draw_progress(self) -> None:
        if not self._progress:
            return
        elapsed = time.perf_counter() - self._started
        line = (
            f"\r[{self._experiment}] {self._done}/{self._total} cells"
            f", {self._failed} failed, {self._retries} retried"
            f", {elapsed:.1f}s"
        )
        sys.stderr.write(line.ljust(60))
        sys.stderr.flush()


def git_sha(repo_dir: Path | None = None) -> str:
    """Best-effort git revision of the source tree ("unknown" offline)."""
    if repo_dir is None:
        repo_dir = Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def write_manifest(
    path: str | Path,
    experiments: list[str] | tuple[str, ...],
    config: dict[str, Any],
) -> Path:
    """Write the run manifest JSON next to the results.

    Captures everything needed to reproduce the run: git sha, CLI
    config (tasks/quick/jobs/retry knobs), and each benchmark profile's
    seed. Returns the path written.
    """
    from repro.synth.profiles import BENCHMARK_NAMES, get_profile

    manifest = {
        "created_ts": time.time(),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "experiments": list(experiments),
        "config": config,
        "seeds": {
            name: get_profile(name).seed for name in BENCHMARK_NAMES
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, indent=2, default=str) + "\n",
        encoding="utf-8",
    )
    return path
