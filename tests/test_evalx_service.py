"""The distributed sweep service: leases, costs, jobs, end-to-end.

Three properties anchor the suite, mirroring the engine's existing
fault-tolerance contracts:

* a job fetched from the service equals a serial ``run_sharded`` of the
  same sweep exactly (``.text`` and ``.data`` equality — the repo's
  byte-identity criterion for round-tripped results);
* a dead worker never wedges a sweep: its expired leases are stolen and
  the surviving workers finish the job;
* two tenants submitting concurrently get fair interleaving from a
  shared worker pool, not FIFO starvation.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.evalx.checkpoint import CheckpointStore, cell_fingerprint
from repro.evalx.faults import KILL_EXIT_STATUS
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import Cell, CellFailure
from repro.evalx.registry import run_experiment
from repro.evalx.service import (
    Coordinator,
    CostModel,
    JobSpec,
    JobStore,
    LeaseQueue,
    Worker,
    shard_cells,
)
from repro.evalx.service import manifest as mf
from repro.evalx.service.__main__ import main as service_main
from repro.evalx.service.jobs import JobError

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small traces keep the double (serial + service) runs cheap.
_TASKS = 3_000


def _noop() -> None:
    return None


def _queue(tmp_path, ttl=30.0, metrics=None) -> LeaseQueue:
    store = CheckpointStore(tmp_path / "store", resume=True)
    return LeaseQueue(store, ttl_seconds=ttl, metrics=metrics)


class TestLeaseQueue:
    FP = "f" * 16  # fingerprint shape is irrelevant to the queue

    def test_exclusive_acquire(self, tmp_path):
        queue = _queue(tmp_path)
        assert queue.acquire(self.FP, "gcc", "job1", "w1")
        assert queue.state(self.FP) == "leased"
        assert not queue.acquire(self.FP, "gcc", "job1", "w2")
        assert queue.read(self.FP).worker == "w1"

    def test_claim_never_exposes_a_half_written_lease(
        self, tmp_path, monkeypatch
    ):
        # A reader racing a fresh claim must see no lease or a whole
        # one; a torn claim would read as damaged, hence stealable.
        queue = _queue(tmp_path)
        seen = []
        real_link = os.link

        def racing_link(src, dst):
            seen.append(queue.read(self.FP))
            real_link(src, dst)
            seen.append(queue.read(self.FP))

        monkeypatch.setattr(os, "link", racing_link)
        assert queue.acquire(self.FP, "gcc", "job1", "w1")
        assert seen[0] is None
        assert seen[1].worker == "w1" and not seen[1].expired()

    def test_cell_published_during_a_claim_is_not_leased(
        self, tmp_path, monkeypatch
    ):
        # The owner saves its record and releases its lease between
        # this worker's done-check and its claim: the claim is dropped.
        queue = _queue(tmp_path)
        real_link = os.link

        def owner_finishes_first(src, dst):
            queue.store.save(self.FP, "gcc", "table2", 42)
            real_link(src, dst)

        monkeypatch.setattr(os, "link", owner_finishes_first)
        assert queue.acquire(self.FP, "gcc", "job1", "w2") is None
        assert queue.store.leases() == set()

    def test_release_requires_ownership(self, tmp_path):
        queue = _queue(tmp_path)
        queue.acquire(self.FP, "gcc", "job1", "w1")
        queue.release(self.FP, "w2")  # non-owner: no-op
        assert queue.state(self.FP) == "leased"
        queue.release(self.FP, "w1")
        assert queue.state(self.FP) == "open"

    def test_expired_lease_is_stolen(self, tmp_path):
        dead = _queue(tmp_path, ttl=0.05)
        assert dead.acquire(self.FP, "gcc", "job1", "dead-worker")
        time.sleep(0.1)
        live = _queue(tmp_path, ttl=30.0)
        assert live.state(self.FP) == "expired"
        assert live.acquire(self.FP, "gcc", "job1", "w2")
        assert live.read(self.FP).worker == "w2"
        assert live.state(self.FP) == "leased"

    def test_renew_requires_ownership(self, tmp_path):
        queue = _queue(tmp_path, ttl=0.2)
        queue.acquire(self.FP, "gcc", "job1", "w1")
        first_expiry = queue.read(self.FP).expires_at
        time.sleep(0.02)
        assert queue.renew(self.FP, "gcc", "job1", "w1")
        assert queue.read(self.FP).expires_at > first_expiry
        assert not queue.renew(self.FP, "gcc", "job1", "w2")

    def test_record_on_disk_outranks_any_lease(self, tmp_path):
        queue = _queue(tmp_path)
        queue.store.save(self.FP, "gcc", "table2", {"v": 1})
        assert queue.state(self.FP) == "done"
        assert not queue.acquire(self.FP, "gcc", "job1", "w1")

    def test_damaged_lease_reads_as_expired(self, tmp_path):
        queue = _queue(tmp_path)
        queue.store.directory.mkdir(parents=True, exist_ok=True)
        queue.store.lease_path_for(self.FP).write_text("not json")
        assert queue.state(self.FP) == "expired"
        # ... so the cell is stolen rather than wedged forever.
        assert queue.acquire(self.FP, "gcc", "job1", "w1")
        assert queue.read(self.FP).worker == "w1"


def _metrics_file(tmp_path) -> Path:
    records = [
        {"event": "cell", "status": "ok", "experiment": "table4",
         "cell": "gcc:PATH", "wall_seconds": 9.0},
        {"event": "cell", "status": "ok", "experiment": "table4",
         "cell": "gcc:CTL-1", "wall_seconds": 3.0},
        {"event": "cell", "status": "ok", "experiment": "table4",
         "cell": "sc:PATH", "wall_seconds": 9.0},
        {"event": "cell", "status": "ok", "experiment": "table4",
         "cell": "sc:CTL-1", "wall_seconds": 3.0},
        # Failed attempts and foreign events must not skew weights.
        {"event": "cell", "status": "error", "experiment": "table4",
         "cell": "sc:PATH", "wall_seconds": 500.0},
        {"event": "lease", "action": "steal", "cell": "sc:PATH"},
    ]
    path = tmp_path / "run.jsonl"
    lines = [json.dumps(record) for record in records] + ["not json"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestCostModel:
    def test_calibration_from_metrics(self, tmp_path):
        model = CostModel.from_metrics(_metrics_file(tmp_path))
        # Overall mean wall is 6.0s: PATH (9.0s) weighs 1.5, CTL-1 0.5.
        assert model.weight("table4", "gcc:PATH") == pytest.approx(1.5)
        assert model.weight("table4", "gcc:CTL-1") == pytest.approx(0.5)
        # Uncalibrated variants and experiments degrade to weight 1.
        assert model.weight("table4", "gcc:Perfect") == 1.0
        assert model.weight("table2", "gcc:PATH") == 1.0

    def test_unreadable_calibration_is_not_fatal(self, tmp_path):
        model = CostModel.from_metrics(tmp_path / "missing.jsonl")
        assert model.weight("table4", "gcc:PATH") == 1.0

    def test_estimate_scales_with_trace_length(self):
        model = CostModel({("table4", "PATH"): 2.0})
        cell = Cell(
            label="gcc:PATH", fn=_noop, kwargs={},
            workload=("gcc", 1000),
        )
        assert model.estimate("table4", cell) == pytest.approx(2000.0)

    def test_shards_balance_and_cover(self):
        cells = [
            Cell(label=f"c{i}", fn=_noop, kwargs={},
                 workload=("gcc", tasks))
            for i, tasks in enumerate([100, 90, 50, 40, 30, 10])
        ]
        shards, total = shard_cells(cells, 3, "table2")
        assert total == pytest.approx(320.0)
        covered = sorted(i for s in shards for i in s.cell_indices)
        assert covered == list(range(len(cells)))
        # LPT keeps the makespan near the 320/3 ~ 107 ideal.
        assert max(s.estimated_cost for s in shards) <= 120
        # ... and the packing is deterministic.
        assert shard_cells(cells, 3, "table2")[0] == shards

    def test_more_shards_than_cells_collapses(self):
        cells = [
            Cell(label="only", fn=_noop, kwargs={},
                 workload=("gcc", 10))
        ]
        shards, _ = shard_cells(cells, 8, "table2")
        assert len(shards) == 1
        assert shards[0].cell_indices == (0,)


class TestJobStore:
    def test_submit_get_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(
            JobSpec(experiment="table2", quick=True, tenant="alice")
        )
        assert job_id.startswith("alice-")
        record = store.get(job_id)
        assert record.state == "submitted"
        assert record.spec.experiment == "table2"
        assert record.spec.quick

    def test_fetch_gates_on_state(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(JobSpec(experiment="table2"))
        with pytest.raises(JobError, match="not done"):
            store.fetch(job_id)
        store.update(store.get(job_id), state="failed", error="boom")
        with pytest.raises(JobError, match="boom"):
            store.fetch(job_id)

    def test_unknown_job(self, tmp_path):
        with pytest.raises(JobError, match="unknown"):
            JobStore(tmp_path).get("nope")

    def test_listing_filters_by_state(self, tmp_path):
        store = JobStore(tmp_path)
        ids = {
            store.submit(JobSpec(experiment="table2"))
            for _ in range(3)
        }
        listed = store.list_jobs()
        assert {record.job_id for record in listed} == ids
        store.update(listed[0], state="failed", error="x")
        assert len(store.list_jobs(state="submitted")) == 2
        assert len(store.list_jobs(state="failed")) == 1


class TestServiceEndToEnd:
    def test_job_matches_serial_run(self, tmp_path):
        serial = run_experiment("table2", n_tasks=_TASKS, quick=True)
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        coordinator = Coordinator(tmp_path, n_shards=2)
        assert coordinator.run_once()["expanded"] == 1
        status = coordinator.status(job_id)
        assert status.state == "running"
        assert status.cells_total > 0
        served = Worker(tmp_path, worker_id="w1").serve(
            poll_seconds=0.01, idle_rounds=2
        )
        assert served == status.cells_total
        assert coordinator.run_once()["finished"] == 1
        result = jobs.fetch(job_id)
        assert result.text == serial.text
        assert result.data == serial.data
        final = coordinator.status(job_id)
        assert final.state == "done"
        assert final.cells_done == final.cells_total

    def test_unknown_experiment_fails_the_job(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(JobSpec(experiment="nosuch"))
        Coordinator(tmp_path).run_once()
        record = jobs.get(job_id)
        assert record.state == "failed"
        assert "cannot expand" in record.error
        with pytest.raises(JobError):
            jobs.fetch(job_id)


class TestLeaseExpiryReLease:
    def test_dead_workers_cell_is_stolen_and_finished(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        coordinator = Coordinator(tmp_path)
        coordinator.run_once()
        first = mf.read_manifest(tmp_path, job_id).cells[0]
        # A worker leases a cell, then dies without ever heartbeating.
        dead = _queue(tmp_path, ttl=0.05)
        assert dead.acquire(
            first.fingerprint, first.label, job_id, "dead:1"
        )
        time.sleep(0.1)
        metrics_path = tmp_path / "metrics.jsonl"
        with RunMetrics(path=metrics_path) as metrics:
            Worker(
                tmp_path, worker_id="w2", metrics=metrics
            ).serve(poll_seconds=0.01, idle_rounds=2)
        coordinator.run_once()
        assert jobs.get(job_id).state == "done"
        events = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        steals = [
            event for event in events
            if event.get("event") == "lease"
            and event.get("action") == "steal"
        ]
        assert len(steals) == 1
        assert steals[0]["worker"] == "w2"
        assert steals[0]["fingerprint"] == first.fingerprint


class TestTenantFairness:
    def test_single_worker_interleaves_two_tenants(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_a = jobs.submit(
            JobSpec(experiment="table2", n_tasks=2_000, quick=True,
                    tenant="alice")
        )
        time.sleep(0.01)  # distinct submitted_ts anchors the ring order
        # Different n_tasks keeps the fingerprints disjoint; identical
        # sweeps would legitimately share cells through the store.
        job_b = jobs.submit(
            JobSpec(experiment="table2", n_tasks=2_002, quick=True,
                    tenant="bob")
        )
        Coordinator(tmp_path).run_once()
        worker = Worker(tmp_path, worker_id="solo")
        order = []
        while True:
            before = dict(worker._served)
            if worker.run_once() is None:
                break
            order.append(
                next(
                    job for job, count in worker._served.items()
                    if count != before.get(job, 0)
                )
            )
        assert set(order) == {job_a, job_b}
        assert order[0] == job_a  # the older submission goes first
        # Strict alternation: the least-served running job always wins,
        # so neither tenant ever gets two consecutive cells while the
        # other still has open work.
        pairs = min(order.count(job_a), order.count(job_b))
        for i in range(2 * pairs - 1):
            assert order[i] != order[i + 1], order
        coordinator = Coordinator(tmp_path)
        coordinator.run_once()
        assert jobs.get(job_a).state == "done"
        assert jobs.get(job_b).state == "done"


class TestServiceCLI:
    def test_submit_rejects_unknown_experiment(self, tmp_path):
        assert (
            service_main(["submit", "nosuch", "--dir", str(tmp_path)])
            == 2
        )

    def test_submit_status_fetch_cycle(self, tmp_path, capsys):
        assert service_main([
            "submit", "table2", "--dir", str(tmp_path),
            "--tasks", str(_TASKS), "--quick",
        ]) == 0
        job_id = capsys.readouterr().out.strip()
        # Fetch before the job resolves fails fast with a hint.
        assert (
            service_main(["fetch", "--dir", str(tmp_path), job_id]) == 3
        )
        capsys.readouterr()
        Coordinator(tmp_path).run_once()
        Worker(tmp_path, worker_id="w").serve(
            poll_seconds=0.01, idle_rounds=2
        )
        Coordinator(tmp_path).run_once()
        assert (
            service_main(["status", "--dir", str(tmp_path), job_id])
            == 0
        )
        assert "[done]" in capsys.readouterr().out
        assert (
            service_main(["fetch", "--dir", str(tmp_path), job_id]) == 0
        )
        serial = run_experiment("table2", n_tasks=_TASKS, quick=True)
        # ``fetch`` prints the rendered report (title + body).
        assert capsys.readouterr().out.rstrip("\n") == str(serial)


@pytest.mark.slow
class TestWorkerKillMidSweep:
    """SIGKILL-equivalent death of a worker holding a live lease: the
    survivors must finish the sweep byte-identically to a serial run."""

    def test_killed_worker_sweep_completes_byte_identically(
        self, tmp_path
    ):
        serial = run_experiment("table2", n_tasks=_TASKS, quick=True)
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        coordinator = Coordinator(tmp_path)
        coordinator.run_once()  # expand, so the chaos plan sees labels
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        victim = subprocess.run(
            [
                sys.executable, "-m", "repro.evalx.service", "worker",
                "--dir", str(tmp_path), "--worker-id", "victim",
                "--ttl", "0.5", "--poll", "0.05",
                "--inject-faults", "kill-worker@gcc",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert victim.returncode == KILL_EXIT_STATUS, victim.stderr
        # The victim died holding a live lease on the gcc cell.
        leased = CheckpointStore(tmp_path / "store", resume=True).leases()
        assert leased, "victim should have died mid-lease"
        time.sleep(0.6)  # let the orphaned lease expire
        Worker(tmp_path, worker_id="survivor").serve(
            poll_seconds=0.05, idle_rounds=3
        )
        coordinator.run_once()
        assert jobs.get(job_id).state == "done"
        result = jobs.fetch(job_id)
        assert result.text == serial.text
        assert result.data == serial.data


class TestLeaseExpiryBoundary:
    """`Lease.expired` pinned at the exact boundary, plus TTL validation."""

    FP = "f" * 16

    def test_lease_is_stealable_at_exactly_expires_at(self, tmp_path):
        queue = _queue(tmp_path, ttl=5.0)
        assert queue.acquire(self.FP, "gcc", "job1", "w1")
        lease = queue.read(self.FP)
        assert not lease.expired(now=lease.expires_at - 1e-6)
        # At the boundary instant the TTL has fully elapsed: a lease of
        # t seconds never protects a claim for longer than t.
        assert lease.expired(now=lease.expires_at)
        assert lease.expired(now=lease.expires_at + 1e-6)

    def test_non_positive_ttl_rejected_at_construction(self, tmp_path):
        store = CheckpointStore(tmp_path / "store", resume=True)
        for ttl in (0.0, -1.0):
            with pytest.raises(ValueError, match="ttl_seconds"):
                LeaseQueue(store, ttl_seconds=ttl)


class TestCostModelFallbacks:
    """Calibration degradation is loud, and blind lookups are counted."""

    def test_all_zero_wall_times_fall_back_to_uniform(self, tmp_path):
        records = [
            {"event": "cell", "status": "ok", "experiment": "table4",
             "cell": "gcc:PATH", "wall_seconds": 0.0},
            {"event": "cell", "status": "ok", "experiment": "table4",
             "cell": "gcc:CTL-1", "wall_seconds": 0.0},
        ]
        path = tmp_path / "zero.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n",
            encoding="utf-8",
        )
        with pytest.warns(RuntimeWarning, match="uniform"):
            model = CostModel.from_metrics(path)
        # The variants stay *known*, at an explicit uniform weight ...
        assert model.weights[("table4", "PATH")] == 1.0
        assert model.weights[("table4", "CTL-1")] == 1.0
        # ... so looking them up is not an unknown-variant miss.
        assert model.weight("table4", "gcc:PATH") == 1.0
        assert model.unknown_variant_misses == 0

    def test_unknown_variant_lookups_are_counted(self):
        model = CostModel({("table4", "PATH"): 2.0})
        assert model.weight("table4", "gcc:PATH") == 2.0
        assert model.unknown_variant_misses == 0
        assert model.weight("table4", "gcc:Perfect") == 1.0
        assert model.weight("table2", "gcc:PATH") == 1.0
        assert model.unknown_variant_misses == 2


class TestShardCellsProperties:
    """Property-style guarantees of the LPT packing."""

    @staticmethod
    def _uniform_cells(n, tasks=50):
        return [
            Cell(label=f"c{i}:X", fn=_noop, kwargs={},
                 workload=("gcc", tasks))
            for i in range(n)
        ]

    def test_equal_cost_ties_pack_deterministically(self):
        cells = self._uniform_cells(13)
        first = shard_cells(cells, 4, "table2")
        for _ in range(5):
            assert shard_cells(cells, 4, "table2") == first

    def test_equal_cost_max_min_load_ratio_bounded(self):
        for n, m in [(12, 4), (13, 4), (7, 3), (16, 5), (5, 5)]:
            shards, total = shard_cells(
                self._uniform_cells(n), m, "table2"
            )
            loads = [s.estimated_cost for s in shards]
            # Equal costs spread ceil/floor: never more than 2x apart.
            assert max(loads) / min(loads) <= 2.0
            assert sum(loads) == pytest.approx(total)

    def test_lpt_makespan_bound_holds_for_skewed_costs(self):
        tasks = [970, 130, 130, 640, 25, 25, 25, 410, 3, 888]
        cells = [
            Cell(label=f"c{i}:X", fn=_noop, kwargs={},
                 workload=("gcc", t))
            for i, t in enumerate(tasks)
        ]
        shards, total = shard_cells(cells, 4, "table2")
        # Greedy-LPT guarantee: makespan <= mean load + one max cell.
        assert max(s.estimated_cost for s in shards) <= (
            total / len(shards) + max(tasks)
        )


class _AlwaysFailRenewQueue(LeaseQueue):
    """A queue whose heartbeat renewals always fail (ENOSPC stand-in)."""

    def renew(self, fingerprint, label, job, worker):
        return False


def _slow_cell(seconds: float) -> dict:
    time.sleep(seconds)
    return {"ok": True}


class TestWorkerAbandonsLostLease:
    """Repeated renewal failure must end in abandonment, not publication.

    Before the fix the heartbeat thread swallowed renewal failures and
    the worker published anyway — while the silently expired lease let
    another worker re-lease the same cell and publish too.
    """

    def test_renew_failures_abandon_the_cell(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(JobSpec(experiment="table2"))
        record = jobs.get(job_id)
        cell = Cell(
            label="gcc:SLOW",
            fn=_slow_cell,
            kwargs={"seconds": 0.6},
            workload=("gcc", 100),
        )
        fingerprint = cell_fingerprint("table2", cell)
        shards, _ = shard_cells([cell], 1, "table2")
        mf.write_manifest(
            tmp_path, job_id, "table2", [cell], [fingerprint],
            [100.0], shards,
        )
        jobs.update(record, state="running", cells_total=1, shards=1)
        metrics_path = tmp_path / "worker.jsonl"
        with RunMetrics(path=metrics_path) as metrics:
            worker = Worker(
                tmp_path,
                worker_id="w1",
                ttl_seconds=0.15,
                metrics=metrics,
            )
            worker.queue = _AlwaysFailRenewQueue(
                worker.store, ttl_seconds=0.15, metrics=metrics
            )
            label = worker.run_once()
        assert label == "gcc:SLOW"
        # Nothing was published: no checkpoint record, no fail marker.
        assert not worker.store.has(fingerprint)
        assert fingerprint not in mf.failed_fingerprints(
            tmp_path, job_id
        )
        events = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        actions = [
            event["action"]
            for event in events
            if event.get("event") == "lease"
        ]
        assert "abandoned" in actions
        assert "completed" not in actions
        assert "failed" not in actions


class TestLeaseAttemptCounter:
    """The cross-steal attempt counter: 1 fresh, +1 per steal, kept by
    renewals, reset by damage."""

    FP = "f" * 16

    def test_fresh_acquire_is_attempt_one(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.acquire(self.FP, "gcc", "job1", "w1")
        assert lease.attempt == 1

    def test_steal_chain_increments_attempt(self, tmp_path):
        dead = _queue(tmp_path, ttl=0.05)
        assert dead.acquire(self.FP, "gcc", "job1", "wA").attempt == 1
        time.sleep(0.1)
        stolen = dead.acquire(self.FP, "gcc", "job1", "wB")
        assert stolen.attempt == 2
        time.sleep(0.1)
        assert dead.acquire(self.FP, "gcc", "job1", "wC").attempt == 3

    def test_renew_preserves_attempt(self, tmp_path):
        dead = _queue(tmp_path, ttl=0.05)
        dead.acquire(self.FP, "gcc", "job1", "wA")
        time.sleep(0.1)
        live = _queue(tmp_path, ttl=30.0)
        assert live.acquire(self.FP, "gcc", "job1", "wB").attempt == 2
        assert live.renew(self.FP, "gcc", "job1", "wB")
        assert live.read(self.FP).attempt == 2

    def test_damaged_lease_restarts_the_count(self, tmp_path):
        queue = _queue(tmp_path)
        queue.store.directory.mkdir(parents=True, exist_ok=True)
        queue.store.lease_path_for(self.FP).write_text("not json")
        assert queue.read(self.FP).attempt == 0
        # The steal of a damaged claim starts over at generation 1.
        assert queue.acquire(self.FP, "gcc", "job1", "w1").attempt == 1


class TestQuarantine:
    """A cell whose workers keep dying is finalised, not re-leased."""

    def _expanded_job(self, tmp_path, **spec):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(
                experiment="table2", n_tasks=_TASKS, quick=True, **spec
            )
        )
        Coordinator(tmp_path).run_once()
        return jobs, job_id, mf.read_manifest(tmp_path, job_id)

    def test_attempt_counter_survives_a_steal_chain(self, tmp_path):
        """A killed, B stole and was killed, C must quarantine — the
        counter travels across workers, not within one."""
        jobs, job_id, manifest = self._expanded_job(
            tmp_path, keep_going=True
        )
        target = next(e for e in manifest.cells if e.label == "gcc")
        dead = _queue(tmp_path, ttl=0.05)
        assert dead.acquire(
            target.fingerprint, target.label, job_id, "wA"
        ).attempt == 1
        time.sleep(0.1)
        assert dead.acquire(
            target.fingerprint, target.label, job_id, "wB"
        ).attempt == 2
        time.sleep(0.1)
        metrics_path = tmp_path / "metrics.jsonl"
        with RunMetrics(path=metrics_path) as metrics:
            Worker(
                tmp_path,
                worker_id="wC",
                metrics=metrics,
                max_lease_attempts=2,
            ).serve(poll_seconds=0.01, idle_rounds=2)
        failure = mf.read_fail(tmp_path, job_id, target.fingerprint)
        assert failure is not None
        assert failure.kind == mf.QUARANTINED
        assert failure.attempts == 2
        # The dead lease was cleared alongside the marker.
        assert _queue(tmp_path).read(target.fingerprint) is None
        events = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        quarantined = [
            e for e in events
            if e.get("event") == "lease"
            and e.get("action") == "quarantined"
        ]
        assert len(quarantined) == 1
        assert quarantined[0]["fingerprint"] == target.fingerprint
        # keep_going finalisation turns the marker into a typed gap.
        Coordinator(tmp_path).run_once()
        result = jobs.fetch(job_id)
        assert result.data["_failed_cells"] == ["gcc"]
        assert result.failures[0].kind == mf.QUARANTINED

    def test_below_threshold_expiry_is_stolen_not_quarantined(
        self, tmp_path
    ):
        jobs, job_id, manifest = self._expanded_job(tmp_path)
        target = manifest.cells[0]
        dead = _queue(tmp_path, ttl=0.05)
        dead.acquire(target.fingerprint, target.label, job_id, "wA")
        time.sleep(0.1)
        Worker(tmp_path, worker_id="wB").serve(
            poll_seconds=0.01, idle_rounds=2
        )
        assert mf.read_fail(
            tmp_path, job_id, target.fingerprint
        ) is None
        Coordinator(tmp_path).run_once()
        assert jobs.get(job_id).state == "done"

    def test_claim_pass_never_rescans_the_fails_directory(
        self, tmp_path, monkeypatch
    ):
        """Quarantined/failed fingerprints are skipped via the per-job
        memo + a single marker stat, not a directory glob per claim."""
        jobs, job_id, manifest = self._expanded_job(
            tmp_path, keep_going=True
        )
        target = manifest.cells[0]
        assert mf.write_fail(
            tmp_path,
            job_id,
            target.fingerprint,
            CellFailure(
                label=target.label, kind="error", error="pre-failed",
                attempts=1, wall_seconds=0.0,
            ),
        )

        def _no_rescans(*args, **kwargs):
            raise AssertionError(
                "Worker._claim must not glob failed_fingerprints"
            )

        monkeypatch.setattr(
            mf, "failed_fingerprints", _no_rescans
        )
        worker = Worker(tmp_path, worker_id="w1")
        served = worker.serve(poll_seconds=0.01, idle_rounds=2)
        monkeypatch.undo()
        # Every open cell ran; the pre-failed one was skipped via memo.
        assert served == len(manifest.cells) - 1
        assert target.fingerprint in worker._failed[job_id]
        Coordinator(tmp_path).run_once()
        assert jobs.get(job_id).state == "done"


def _hijacked_cell(root: str, label: str) -> dict:
    """A cell that simulates a thief winning mid-run: the zombie's
    lease is replaced and the thief's record published while the
    original owner is still executing. The cell discovers its own
    fingerprint from the one live lease (its fingerprint cannot appear
    in its kwargs — the fingerprint is computed over them)."""
    store = CheckpointStore(Path(root) / "store", resume=True)
    (fingerprint,) = store.leases()
    thief_queue = LeaseQueue(store, ttl_seconds=30.0)
    store.lease_path_for(fingerprint).unlink()
    assert thief_queue.acquire(fingerprint, label, "job", "thief")
    store.save(fingerprint, label, "table2", {"winner": "thief"})
    return {"winner": "zombie"}


class TestZombiePublishGuard:
    """A worker that lost its lease mid-cell must not overwrite the
    thief's publication (the regression window: the zombie wakes before
    its heartbeat accumulates enough failures to flag the loss)."""

    def test_zombie_cannot_overwrite_thiefs_record(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(JobSpec(experiment="table2"))
        record = jobs.get(job_id)
        cell = Cell(
            label="gcc:HIJACK",
            fn=_hijacked_cell,
            kwargs={"root": str(tmp_path), "label": "gcc:HIJACK"},
            workload=("gcc", 100),
        )
        fingerprint = cell_fingerprint("table2", cell)
        shards, _ = shard_cells([cell], 1, "table2")
        mf.write_manifest(
            tmp_path, job_id, "table2", [cell], [fingerprint],
            [100.0], shards,
        )
        jobs.update(record, state="running", cells_total=1, shards=1)
        metrics_path = tmp_path / "zombie.jsonl"
        with RunMetrics(path=metrics_path) as metrics:
            label = Worker(
                tmp_path, worker_id="zombie", metrics=metrics
            ).run_once()
        assert label == "gcc:HIJACK"
        store = CheckpointStore(tmp_path / "store", resume=True)
        loaded = store.load(fingerprint, "gcc:HIJACK")
        assert loaded.payload == {"winner": "thief"}
        events = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        actions = [
            e["action"] for e in events if e.get("event") == "lease"
        ]
        assert "abandoned" in actions
        assert "completed" not in actions

    def test_fail_marker_is_first_writer_wins(self, tmp_path):
        failure = CellFailure(
            label="gcc", kind="error", error="first", attempts=1,
            wall_seconds=0.0,
        )
        assert mf.write_fail(tmp_path, "job1", "f" * 16, failure)
        second = CellFailure(
            label="gcc", kind="error", error="zombie verdict",
            attempts=9, wall_seconds=0.0,
        )
        assert not mf.write_fail(tmp_path, "job1", "f" * 16, second)
        kept = mf.read_fail(tmp_path, "job1", "f" * 16)
        assert kept.error == "first"


class TestJobStoreHardening:
    """Damaged, missing, and misshapen records are typed errors."""

    def _damaged(self, tmp_path, body: str) -> tuple[JobStore, str]:
        store = JobStore(tmp_path)
        job_id = store.submit(JobSpec(experiment="table2"))
        store.path_for(job_id).write_text(body, encoding="utf-8")
        return store, job_id

    @pytest.mark.parametrize(
        "body", ["null", "[1, 2]", '"a string"', '{"spec": 42}',
                 "{not json", ""]
    )
    def test_damaged_record_raises_jobeerror(self, tmp_path, body):
        store, job_id = self._damaged(tmp_path, body)
        with pytest.raises(JobError, match=job_id):
            store.get(job_id)

    def test_damaged_record_is_skipped_by_listing(self, tmp_path):
        store, _ = self._damaged(tmp_path, "null")
        healthy = store.submit(JobSpec(experiment="table2"))
        listed = store.list_jobs()
        assert [r.job_id for r in listed] == [healthy]

    def test_record_deleted_between_list_and_get(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(JobSpec(experiment="table2"))
        store.path_for(job_id).unlink()
        with pytest.raises(JobError, match="unknown"):
            store.get(job_id)

    def test_invalid_state_update_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.get(store.submit(JobSpec(experiment="table2")))
        with pytest.raises(JobError, match="invalid job state"):
            store.update(record, state="exploded")

    def test_status_cli_reports_damaged_record_typed(
        self, tmp_path, capsys
    ):
        store, job_id = self._damaged(tmp_path, "null")
        assert service_main(
            ["status", "--dir", str(tmp_path), job_id]
        ) == 1
        err = capsys.readouterr().err
        assert "malformed" in err or "unreadable" in err

    def test_fetch_cli_reports_unknown_job_typed(
        self, tmp_path, capsys
    ):
        assert service_main(
            ["fetch", "--dir", str(tmp_path), "ghost"]
        ) == 1
        assert "unknown job" in capsys.readouterr().err

    def test_unreadable_result_is_typed(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(JobSpec(experiment="table2"))
        store.update(store.get(job_id), state="done")
        store.result_path(job_id).write_bytes(b"\x80\x04 garbage")
        with pytest.raises(JobError, match="unreadable"):
            store.fetch(job_id)


class TestCancelAndDeadlines:
    """Operator cancellation and submission deadlines are terminal."""

    def test_cancel_requires_a_live_job(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(JobError, match="unknown"):
            store.cancel("ghost")
        job_id = store.submit(JobSpec(experiment="table2"))
        cancelled = store.cancel(job_id, reason="operator says so")
        assert cancelled.state == "cancelled"
        assert "operator says so" in cancelled.error
        with pytest.raises(JobError, match="already cancelled"):
            store.cancel(job_id)

    def test_fetch_of_cancelled_job_names_the_reason(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(JobSpec(experiment="table2"))
        store.cancel(job_id, reason="budget cut")
        with pytest.raises(JobError, match="budget cut"):
            store.fetch(job_id)

    def test_cancel_cli_roundtrip(self, tmp_path, capsys):
        assert service_main([
            "submit", "table2", "--dir", str(tmp_path), "--quick",
        ]) == 0
        job_id = capsys.readouterr().out.strip()
        assert service_main([
            "cancel", "--dir", str(tmp_path), job_id,
            "--reason", "operator request",
        ]) == 0
        assert "[cancelled]" in capsys.readouterr().out
        assert JobStore(tmp_path).get(job_id).state == "cancelled"
        # Cancelling a terminal job is a typed, clean failure.
        assert service_main(
            ["cancel", "--dir", str(tmp_path), job_id]
        ) == 1
        assert "already cancelled" in capsys.readouterr().err

    def test_submit_rejects_non_positive_timeout(self, tmp_path):
        assert service_main([
            "submit", "table2", "--dir", str(tmp_path),
            "--job-timeout", "0",
        ]) == 2

    def test_deadline_expiry_is_terminal_and_stops_workers(
        self, tmp_path
    ):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(
                experiment="table2", n_tasks=_TASKS, quick=True,
                timeout_seconds=0.2,
            )
        )
        coordinator = Coordinator(tmp_path)
        coordinator.run_once()
        time.sleep(0.25)
        assert coordinator.run_once()["expired"] == 1
        assert jobs.get(job_id).state == "expired"
        with pytest.raises(JobError, match="expired"):
            jobs.fetch(job_id)
        assert Worker(tmp_path, worker_id="late").serve(
            poll_seconds=0.01, idle_rounds=2
        ) == 0
        # A terminal job is never retired twice.
        assert coordinator.run_once()["expired"] == 0

    def test_no_deadline_means_no_expiry(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        coordinator = Coordinator(tmp_path)
        assert coordinator.run_once()["expired"] == 0
        assert jobs.get(job_id).state == "running"


class TestCoordinatorRecovery:
    """reconcile() repairs the torn states a dead coordinator leaves."""

    def _finished_job(self, tmp_path) -> tuple[JobStore, str]:
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        Coordinator(tmp_path).run_once()
        Worker(tmp_path, worker_id="w1").serve(
            poll_seconds=0.01, idle_rounds=2
        )
        Coordinator(tmp_path).run_once()
        assert jobs.get(job_id).state == "done"
        return jobs, job_id

    def test_running_without_manifest_is_requeued(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        Coordinator(tmp_path).run_once()
        mf.manifest_path(tmp_path, job_id).unlink()
        counts = Coordinator(tmp_path).reconcile()
        assert counts == {"requeued": 1, "rebuilt": 0}
        assert jobs.get(job_id).state == "submitted"
        # The next pass re-expands deterministically and completes.
        Coordinator(tmp_path).run_once()
        Worker(tmp_path, worker_id="w2").serve(
            poll_seconds=0.01, idle_rounds=2
        )
        Coordinator(tmp_path).run_once()
        assert jobs.get(job_id).state == "done"

    def test_done_without_result_is_refinalised(self, tmp_path):
        jobs, job_id = self._finished_job(tmp_path)
        reference = jobs.fetch(job_id)
        jobs.result_path(job_id).unlink()
        coordinator = Coordinator(tmp_path)
        counts = coordinator.reconcile()
        assert counts == {"requeued": 0, "rebuilt": 1}
        assert jobs.get(job_id).state == "running"
        coordinator.run_once()
        rebuilt = jobs.fetch(job_id)
        assert rebuilt.text == reference.text
        assert rebuilt.data == reference.data

    def test_healthy_tree_reconciles_to_zero(self, tmp_path):
        _, _ = self._finished_job(tmp_path)
        assert Coordinator(tmp_path).reconcile() == {
            "requeued": 0, "rebuilt": 0,
        }

    def test_adopted_manifest_is_not_rewritten(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        Coordinator(tmp_path).run_once()
        manifest_path = mf.manifest_path(tmp_path, job_id)
        before = manifest_path.read_bytes()
        # Simulate the mid-expand crash: record back to submitted with
        # the manifest already durable.
        jobs.update(jobs.get(job_id), state="submitted")
        assert Coordinator(tmp_path).run_once()["expanded"] == 1
        record = jobs.get(job_id)
        assert record.state == "running"
        assert record.cells_total > 0
        assert manifest_path.read_bytes() == before


class TestGracefulDrain:
    """The first signal finishes in-flight work and exits cleanly."""

    def test_predrained_worker_serves_nothing(self, tmp_path):
        jobs = JobStore(tmp_path)
        jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        Coordinator(tmp_path).run_once()
        worker = Worker(tmp_path, worker_id="drained")
        worker.request_drain()
        assert worker.draining
        assert worker.serve(poll_seconds=0.01, idle_rounds=99) == 0

    def test_predrained_coordinator_returns_after_reconcile(
        self, tmp_path
    ):
        coordinator = Coordinator(tmp_path)
        coordinator.request_drain()
        coordinator.serve(poll_seconds=0.01)  # returns immediately

    @pytest.mark.slow
    def test_sigterm_drains_worker_and_flushes_metrics(self, tmp_path):
        jobs = JobStore(tmp_path)
        job_id = jobs.submit(
            JobSpec(experiment="table2", n_tasks=_TASKS, quick=True)
        )
        Coordinator(tmp_path).run_once()
        metrics_path = tmp_path / "drain.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        # The hang fault pins the victim inside a known cell so the
        # signal provably lands mid-flight (see tools/smoke_lint.py for
        # the same discipline in CI shell).
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro.evalx.service", "worker",
                "--dir", str(tmp_path), "--worker-id", "draining",
                "--ttl", "30", "--poll", "0.05",
                "--metrics", str(metrics_path),
                "--inject-faults", "hang(1.0)@gcc",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        store = CheckpointStore(tmp_path / "store", resume=True)
        manifest = mf.read_manifest(tmp_path, job_id)
        gcc = next(e for e in manifest.cells if e.label == "gcc")
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if store.lease_path_for(gcc.fingerprint).exists():
                break
            time.sleep(0.02)
        victim.send_signal(signal.SIGTERM)
        _, err = victim.communicate(timeout=120)
        assert victim.returncode == 0, err
        assert "drained after SIGTERM" in err
        # The in-flight cell finished and its record was published.
        assert store.has(gcc.fingerprint)
        events = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        drains = [e for e in events if e.get("event") == "drain"]
        assert len(drains) == 1
        assert drains[0]["role"] == "worker"
        assert drains[0]["signal"] == "SIGTERM"
        # No lease was left behind: the normal path released it.
        assert not store.leases()


class TestJobAndDrainMetrics:
    """The new RunMetrics event kinds serialise as documented."""

    def test_job_event_schema(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with RunMetrics(path=path) as metrics:
            metrics.job_event("j1", "cancelled", reason="operator")
            metrics.job_event("j2", "deadline_expired")
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert events[0]["event"] == "job"
        assert events[0]["job"] == "j1"
        assert events[0]["action"] == "cancelled"
        assert events[0]["reason"] == "operator"
        assert events[1]["action"] == "deadline_expired"

    def test_drain_event_schema(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with RunMetrics(path=path) as metrics:
            metrics.drain_event("worker", "SIGTERM", served=3)
            metrics.drain_event("coordinator", "SIGINT")
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert events[0] == {
            **events[0],
            "event": "drain",
            "role": "worker",
            "signal": "SIGTERM",
            "served": 3,
        }
        assert events[1]["role"] == "coordinator"
        assert "served" not in events[1] or events[1]["served"] is None
