"""Distributed sweep service: lease cells to multi-host workers.

The cells/combine protocol (:mod:`repro.evalx.parallel`) plus the
content-addressed checkpoint store (:mod:`repro.evalx.checkpoint`) is
already a work-queue substrate: a cell fingerprint is a task id and a
checkpoint record is its durable result. This package layers the three
missing pieces on top and turns the single-host engine into a
multi-tenant service:

* **Lease queue** (:mod:`~repro.evalx.service.queue`) — workers claim a
  cell by atomically creating ``<fingerprint>.lease.json`` next to the
  record it will become; a heartbeat thread renews the lease while the
  cell runs, and a lease whose renewal stops (worker SIGKILLed, host
  lost) expires and is stolen by a surviving worker. A *completed*
  lease is just the existing atomic ``.ckpt.json`` record, so
  crash-recovery and byte-identical resume come for free. Leases are an
  anti-duplication optimisation, never a correctness mechanism: results
  are content-addressed and idempotent, so the worst a lost race costs
  is one duplicate execution.
* **Cost-model partitioner** (:mod:`~repro.evalx.service.costs`) — the
  coordinator estimates each cell as *trace length x config weight*
  (weights calibrated from :class:`~repro.evalx.metrics.RunMetrics`
  wall-time records) and packs cells into balanced shards (LPT greedy)
  instead of fanning out blindly; a shard is the unit of worker
  affinity, a cell the unit of leasing.
* **Async job API** (:mod:`~repro.evalx.service.jobs`,
  :mod:`~repro.evalx.service.coordinator`) — ``submit(sweep) -> job
  id``, ``status(job)``, ``fetch(job) -> ExperimentResult``, with fair
  round-robin scheduling across concurrent tenants: a worker always
  serves the job it has served least, so two tenants submitting at once
  see interleaved progress, not head-of-line blocking.

Everything is plain files under one service directory, so "multi-host"
means "hosts sharing a filesystem" (NFS, a CI workspace, one box with
many processes) with reasonably synchronised clocks for lease expiry::

    <root>/
      jobs/    <id>.job.json          job record (state machine)
               <id>.result.pkl        combined ExperimentResult
      queue/   <id>/manifest.json     cells + fingerprints + shards
               <id>/fails/<fp>.json   final per-cell failure markers
               <id>/spent/<fp>        attempts spent by dead workers
      store/   <fp>.ckpt.json         completed-cell records (PR 4)
               <fp>.lease.json        in-flight claims

CLI entry points: ``repro-sweep`` (submit/status/fetch),
``repro-sweep-coordinator`` and ``repro-sweep-worker`` (or
``python -m repro.evalx.service <command>``).
"""

from __future__ import annotations

from repro.evalx.service.coordinator import Coordinator
from repro.evalx.service.costs import CostModel, Shard, shard_cells
from repro.evalx.service.jobs import (
    TERMINAL_STATES,
    JobError,
    JobSpec,
    JobStatus,
    JobStore,
)
from repro.evalx.service.queue import Lease, LeaseQueue
from repro.evalx.service.worker import DEFAULT_MAX_LEASE_ATTEMPTS, Worker

__all__ = [
    "Coordinator",
    "CostModel",
    "DEFAULT_MAX_LEASE_ATTEMPTS",
    "JobError",
    "JobSpec",
    "JobStatus",
    "JobStore",
    "Lease",
    "LeaseQueue",
    "Shard",
    "TERMINAL_STATES",
    "Worker",
    "shard_cells",
]
