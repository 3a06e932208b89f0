"""Filesystem lease queue layered on the checkpoint store.

A lease is one worker's claim on one cell, written as
``<fingerprint>.lease.json`` in the same directory as the checkpoint
record the cell will become. The protocol is deliberately tiny:

* **Acquire** — the complete claim is hard-linked into place, which
  fails if a lease already exists. Exactly one worker wins a fresh
  claim, and no reader ever sees a half-written one; everyone else
  moves on to the next open cell.
* **Heartbeat** — the owner periodically rewrites the lease (atomic
  tmp + ``os.replace``) pushing ``expires_at`` forward. A healthy
  worker's lease never expires, however long the cell runs.
* **Expiry + steal** — a lease whose ``expires_at`` has passed marks a
  dead worker (SIGKILL, OOM, lost host). Any worker may steal it by
  replacing the file with its own claim and re-reading to confirm
  ownership (last writer wins). A steal carries the previous claim's
  ``attempt`` counter forward, incremented — the lease generation — so
  a poison cell that keeps killing its workers is visible as a chain of
  expired high-attempt leases and can be quarantined instead of
  re-leased forever (:mod:`repro.evalx.service.worker`).
* **Complete** — the worker persists the cell's checkpoint record and
  unlinks the lease. A record on disk always outranks any lease.

Leases reduce duplicate work; they do not guard correctness. Results
are content-addressed and byte-identical regardless of which worker
computes them, and record publication is an atomic ``os.replace`` — so
the worst a steal race can cost is one redundant execution, never a
wrong or torn result. Expiry compares ``expires_at`` against the local
clock, which is the one cross-host assumption: hosts sharing the
service directory must also share a reasonably synchronised clock.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.metrics import RunMetrics

#: Default seconds before an unrenewed lease may be stolen.
DEFAULT_TTL_SECONDS = 30.0


@dataclass(frozen=True)
class Lease:
    """One worker's on-disk claim on one cell.

    ``attempt`` is the lease *generation*: 1 on a fresh claim, +1 each
    time an expired claim is stolen. Renewals by the same owner keep
    it. Because a healthy worker's lease never expires, the counter
    approximates "how many workers died (or abandoned) holding this
    cell" — the signal the quarantine policy thresholds on.
    """

    fingerprint: str
    label: str
    job: str
    worker: str
    expires_at: float
    created_ts: float
    attempt: int = 1

    def expired(self, now: float | None = None) -> bool:
        """Whether the claim may be stolen (heartbeats stopped).

        A lease is valid strictly *before* ``expires_at``: at the
        boundary instant it is already stealable, so a TTL of t seconds
        never protects a claim for longer than t.
        """
        return (time.time() if now is None else now) >= self.expires_at


class LeaseQueue:
    """Lease operations over one :class:`CheckpointStore` directory.

    Args:
        store: The store whose records are the durable "done" state;
            lease files live next to its records.
        ttl_seconds: How long a lease stays valid past its last renewal.
        metrics: Optional recorder; every acquire/steal/heartbeat/
            release/complete is a ``lease`` event.
    """

    def __init__(
        self,
        store: CheckpointStore,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        metrics: RunMetrics | None = None,
    ) -> None:
        if ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be > 0, got {ttl_seconds!r}: a "
                "non-positive TTL makes every lease born expired"
            )
        self.store = store
        self.ttl_seconds = ttl_seconds
        self.metrics = metrics or RunMetrics.disabled()

    # -- reading ------------------------------------------------------

    def read(self, fingerprint: str) -> Lease | None:
        """The current lease for a fingerprint, or None.

        An unreadable or truncated lease file (a claim torn by a crash
        mid-write cannot happen — writes are atomic — but a hand-edited
        or damaged one can) is treated as expired-at-epoch so it gets
        stolen rather than wedging the cell forever.
        """
        path = self.store.lease_path_for(fingerprint)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            return Lease(
                fingerprint=fingerprint,
                label=str(record["label"]),
                job=str(record["job"]),
                worker=str(record["worker"]),
                expires_at=float(record["expires_at"]),
                created_ts=float(record.get("created_ts", 0.0)),
                attempt=int(record.get("attempt", 1)),
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # attempt 0: a damaged claim loses its generation count, so
            # the steal restarts it at 1 rather than inheriting garbage.
            return Lease(
                fingerprint=fingerprint,
                label="?",
                job="?",
                worker="?",
                expires_at=0.0,
                created_ts=0.0,
                attempt=0,
            )

    def state(self, fingerprint: str) -> str:
        """``done`` / ``leased`` / ``expired`` / ``open`` for one cell."""
        if self.store.has(fingerprint):
            return "done"
        lease = self.read(fingerprint)
        if lease is None:
            return "open"
        return "expired" if lease.expired() else "leased"

    # -- claiming -----------------------------------------------------

    def acquire(
        self, fingerprint: str, label: str, job: str, worker: str
    ) -> Lease | None:
        """Try to claim a cell; the owned lease when this worker won.

        Fresh cells are claimed with an exclusive link (attempt 1);
        an expired lease is stolen with an atomic replace followed by a
        re-read, so of N racing stealers exactly the last writer
        proceeds — and the stolen claim carries ``attempt + 1``.
        Returns ``None`` when the cell is done, validly leased by
        someone else, or the race was lost (truthiness is claim
        success, so boolean call sites read unchanged).
        """
        if self.store.has(fingerprint):
            return None
        path = self.store.lease_path_for(fingerprint)
        fresh = self._make(fingerprint, label, job, worker, attempt=1)
        tmp = path.with_name(f".{fingerprint}.lease.tmp-{os.getpid()}")
        try:
            self.store.directory.mkdir(parents=True, exist_ok=True)
            # Link a complete temp file into place: a racing reader
            # never sees a half-written claim, which would read as
            # damaged and so as stealable.
            tmp.write_text(self._body(fresh), encoding="utf-8")
            try:
                os.link(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        except FileExistsError:
            current = self.read(fingerprint)
            if current is None:
                # Released between our create and read; next round.
                return None
            if not current.expired():
                return None
            taken = self._make(
                fingerprint,
                label,
                job,
                worker,
                attempt=current.attempt + 1,
            )
            if not self._replace(path, fingerprint, self._body(taken)):
                return None
            stolen = self.read(fingerprint)
            if stolen is None or stolen.worker != worker:
                return None  # lost the steal race to a later writer
            self.metrics.lease_event(
                label, "steal", fingerprint, worker=worker, job=job
            )
            return stolen
        except OSError:
            return None
        if self.store.has(fingerprint):
            # The owner published and released while we claimed it.
            path.unlink(missing_ok=True)
            return None
        self.metrics.lease_event(
            label, "leased", fingerprint, worker=worker, job=job
        )
        return fresh

    def renew(self, fingerprint: str, label: str, job: str, worker: str) -> bool:
        """Heartbeat: push the owned lease's expiry forward.

        Returns False when this worker no longer owns the lease (it was
        stolen after an expiry, or the cell completed and the lease is
        gone) — the caller keeps running regardless, since duplicate
        execution is harmless, but stops renewing. The claim's
        ``attempt`` generation is preserved across renewals.
        """
        current = self.read(fingerprint)
        if current is None or current.worker != worker:
            return False
        path = self.store.lease_path_for(fingerprint)
        renewed = self._make(
            fingerprint, label, job, worker, attempt=current.attempt
        )
        if not self._replace(path, fingerprint, self._body(renewed)):
            return False
        self.metrics.lease_event(
            label, "heartbeat", fingerprint, worker=worker, job=job
        )
        return True

    def owns(self, fingerprint: str, worker: str) -> bool:
        """Whether ``worker`` still holds a live claim on the cell.

        The publication guard: a worker that was descheduled long
        enough for its lease to expire (and possibly be stolen) calls
        this right before persisting a record or fail marker, and walks
        away instead of overwriting whatever the thief published. An
        expired-but-unstolen claim also reads as not-owned — the cell
        is already up for grabs, so publishing under it would race the
        next claimant.
        """
        current = self.read(fingerprint)
        return (
            current is not None
            and current.worker == worker
            and not current.expired()
        )

    def release(self, fingerprint: str, worker: str) -> None:
        """Drop this worker's lease, if it still owns one."""
        current = self.read(fingerprint)
        if current is None or current.worker != worker:
            return
        try:
            self.store.lease_path_for(fingerprint).unlink()
        except OSError:
            pass
        self.metrics.lease_event(
            current.label,
            "released",
            fingerprint,
            worker=worker,
            job=current.job,
        )

    def clear(self, fingerprint: str) -> None:
        """Drop a cell's lease regardless of owner (quarantine path).

        Only correct once a durable artifact outranking the lease — a
        checkpoint record or a fail marker — is already on disk for the
        cell; anyone racing us re-reads that artifact, not the lease.
        """
        try:
            self.store.lease_path_for(fingerprint).unlink()
        except OSError:
            pass

    # -- internals ----------------------------------------------------

    def _make(
        self,
        fingerprint: str,
        label: str,
        job: str,
        worker: str,
        attempt: int,
    ) -> Lease:
        now = time.time()
        return Lease(
            fingerprint=fingerprint,
            label=label,
            job=job,
            worker=worker,
            expires_at=now + self.ttl_seconds,
            created_ts=now,
            attempt=attempt,
        )

    def _body(self, lease: Lease) -> str:
        return (
            json.dumps(
                {
                    "fingerprint": lease.fingerprint,
                    "label": lease.label,
                    "job": lease.job,
                    "worker": lease.worker,
                    "expires_at": lease.expires_at,
                    "created_ts": lease.created_ts,
                    "attempt": lease.attempt,
                },
                sort_keys=True,
            )
            + "\n"
        )

    def _replace(self, path, fingerprint: str, body: str) -> bool:
        tmp = path.with_name(f".{fingerprint}.lease.tmp-{os.getpid()}")
        try:
            tmp.write_text(body, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return False
        return True
