"""``repro-chaos``: deterministic chaos campaigns for the sweep service.

The service's lease queue also runs every local ``--jobs N`` sweep
(:mod:`repro.evalx.service.local`), so the campaign covers both: the
service scenarios drive coordinator and worker processes over a shared
tree, and the ``local-*`` scenarios drive the ``python -m repro.evalx``
CLI itself.

The service's robustness claims — lease steal, poison-cell quarantine,
coordinator crash recovery, typed terminal states, zombie-publication
guards — are each backed by unit tests, but unit tests exercise one
seam at a time with hand-built fixtures. This module drives the *real*
service (real coordinator and worker processes over a real service
tree) through a seeded scenario matrix and machine-verifies the
system-level invariants the robustness work promises:

* **no lost jobs** — every submitted job reaches a terminal state;
* **no double publication** — at most one worker completes each cell,
  and a zombie never overwrites what a thief published;
* **quarantine within N attempts** — a poison cell burns exactly
  ``max_lease_attempts`` lease generations before it is finalised as a
  typed ``quarantined`` gap, never a fourth;
* **byte-identity** — every surviving job's fetched result equals an
  in-process serial run of the same sweep (``.text``/``.data``
  equality, the repo's byte-identity criterion).

Each scenario runs in its own service directory, so campaigns compose
without cross-contamination. Faults are injected only through the
CLI's explicit ``--inject-faults`` opt-in (subprocess victims) or
:func:`repro.evalx.faults.corrupt_file` (disk damage) — the campaign
process itself never arms the injector, so in-process reference runs
and "clean" recovery actors behave exactly as production code.

Determinism: the same ``--seed`` yields the same fault plans
(:meth:`~repro.evalx.faults.FaultPlan.compile` is seeded) and hence the
same pass/fail outcome per invariant. The JSON report separates that
stable core (``outcomes``: scenario -> ordered ``[name, ok]`` pairs)
from free-form diagnostic detail, so two runs with one seed can be
compared exactly.

Scenarios (``--scenarios all`` runs the lot, in this order)::

    kill-worker-mid-lease      worker SIGKILLed holding a live lease
    kill-coordinator-mid-expand    crash between manifest + record
    kill-coordinator-mid-finalise  crash between result + record
    hang-steal-zombie          frozen worker loses its lease, wakes up
    corrupt-lease              damaged claim must be stolen, not wedge
    corrupt-job-record         one bad record must not sink the rest
    corrupt-result             damaged pickle is rebuilt byte-identical
    poison-cell                3 kills then quarantine, never a 4th
    deadline-expiry            job past its deadline retires, typed
    cancel-mid-flight          cancelled job stops work, typed
    two-tenant-interference    tenant A's poison never bleeds into B
    local-kill-resume          SIGKILLed --jobs 2 run: no orphans, resumes
    local-corrupt-record       damaged record detected, only it re-runs
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.evalx import faults
from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.metrics import RunMetrics
from repro.evalx.registry import run_experiment
from repro.evalx.service import manifest as mf
from repro.evalx.service.coordinator import Coordinator
from repro.evalx.service.jobs import JobError, JobSpec, JobStore
from repro.evalx.service.queue import LeaseQueue
from repro.evalx.service.worker import Worker

#: Default trace length per cell — small enough that the in-process
#: reference runs stay cheap, long enough to be a real sweep.
DEFAULT_TASKS = 3_000

#: Hard cap on any single condition wait. Scenario *outcomes* never
#: depend on timing — waits poll for durable on-disk conditions — so a
#: generous cap only bounds how long a genuinely broken build can hang.
WAIT_SECONDS = 120.0


@dataclass
class Check:
    """One verified invariant: a stable name plus free-form detail."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Scenario:
    """One scenario's working state: a private service tree + checks."""

    name: str
    dir: Path
    seed: int
    tasks: int
    checks: list[Check] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name=name, ok=bool(ok), detail=detail))
        status = "ok  " if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"  {status} {name}{suffix}", flush=True)
        return bool(ok)

    def expect_job_error(self, name: str, call, needle: str = "") -> None:
        """Check that ``call()`` raises a typed JobError naming ``needle``."""
        try:
            call()
        except JobError as exc:
            self.check(name, needle in str(exc), str(exc))
        except Exception as exc:
            self.check(name, False, repr(exc))
        else:
            self.check(name, False, "returned normally")

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


class Campaign:
    """A seeded scenario matrix over per-scenario service trees."""

    def __init__(self, root: str | Path, seed: int, tasks: int) -> None:
        self.root = Path(root)
        self.seed = seed
        self.tasks = tasks
        self._references: dict[tuple, object] = {}

    def reference(self, experiment: str, **kwargs):
        """The serial in-process result every service run must equal.

        Cached per (experiment, kwargs) so a campaign pays for each
        sweep's ground truth once.
        """
        key = (experiment, json.dumps(kwargs, sort_keys=True))
        if key not in self._references:
            self._references[key] = run_experiment(
                experiment, n_tasks=self.tasks, quick=True, **kwargs
            )
        return self._references[key]

    def run(self, names: list[str]) -> dict:
        """Run the named scenarios; returns the JSON-ready report."""
        scenarios = []
        for name in names:
            print(f"=== scenario {name} ===", flush=True)
            scenario = Scenario(
                name=name,
                dir=self.root / name,
                seed=self.seed,
                tasks=self.tasks,
            )
            scenario.dir.mkdir(parents=True, exist_ok=True)
            try:
                SCENARIOS[name](self, scenario)
            except Exception as exc:  # harness bug ≠ silent pass
                scenario.check(
                    "scenario ran without harness error",
                    False,
                    repr(exc),
                )
            scenarios.append(scenario)
        return self.report(scenarios)

    def report(self, scenarios: list[Scenario]) -> dict:
        return {
            "seed": self.seed,
            "tasks": self.tasks,
            "ok": all(s.ok for s in scenarios),
            # The deterministic core: same seed -> identical outcomes.
            "outcomes": {
                s.name: [[c.name, c.ok] for c in s.checks]
                for s in scenarios
            },
            # Free-form diagnostics (may mention pids, timings, paths).
            "details": {
                s.name: [
                    {"name": c.name, "ok": c.ok, "detail": c.detail}
                    for c in s.checks
                ]
                for s in scenarios
            },
        }


# -- subprocess plumbing ----------------------------------------------


def _subprocess_env() -> dict[str, str]:
    """A child env with the repo importable and the injector disarmed.

    Victims opt into faults via ``--inject-faults`` on their own
    command line; inheriting a stale ``REPRO_FAULTS`` from the campaign
    environment would arm the wrong process.
    """
    env = dict(os.environ)
    env.pop(faults.ENV_VAR, None)
    src = str(Path(repro.__file__).resolve().parents[1])
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not extra else src + os.pathsep + extra
    return env


def _service_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.evalx.service", *args]


def _evalx_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.evalx", *args]


def _run_service(*args: str, timeout: float = 300.0):
    return subprocess.run(
        _service_cmd(*args),
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def live_group_members(pgid: int) -> list[int]:
    """Pids in a process group that have not exited (Linux ``/proc``).

    Zombies count as exited: they run nothing, whether or not whoever
    adopted them has reaped them yet.
    """
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # After the parenthesised command: state, ppid, pgrp, ...
            fields = stat.read_text().rsplit(")", 1)[-1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


def _wait(condition, timeout: float = WAIT_SECONDS) -> bool:
    """Poll a durable on-disk condition until true (or the cap)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.02)
    return bool(condition())


def _store(scenario: Scenario) -> CheckpointStore:
    return CheckpointStore(scenario.dir / "store", resume=True)


def _queue(scenario: Scenario, ttl: float = 30.0) -> LeaseQueue:
    return LeaseQueue(_store(scenario), ttl_seconds=ttl)


def _leases_stealable(scenario: Scenario) -> bool:
    """Whether every surviving lease has expired (or vanished)."""
    store = _store(scenario)
    queue = LeaseQueue(store)
    for fingerprint in store.leases():
        lease = queue.read(fingerprint)
        if lease is not None and not lease.expired():
            return False
    return True


def _events(path: Path, kind: str) -> list[dict]:
    """The metrics records of one ``event`` kind in a JSONL file."""
    events = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return events
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event.get("event") == kind:
            events.append(event)
    return events


def _submit(
    scenario: Scenario, experiment: str = "table2", **spec
) -> str:
    return JobStore(scenario.dir).submit(
        JobSpec(
            experiment=experiment,
            n_tasks=scenario.tasks,
            quick=True,
            **spec,
        )
    )


def _serve_clean(
    scenario: Scenario,
    worker_id: str,
    metrics_path: Path | None = None,
    max_lease_attempts: int = 3,
) -> int:
    """A fault-free in-process worker draining the scenario's queue."""
    with RunMetrics(path=metrics_path) as metrics:
        return Worker(
            scenario.dir,
            worker_id=worker_id,
            metrics=metrics,
            max_lease_attempts=max_lease_attempts,
        ).serve(poll_seconds=0.05, idle_rounds=3)


def _check_identical(
    campaign: Campaign,
    scenario: Scenario,
    job_id: str,
    experiment: str = "table2",
    **kwargs,
) -> None:
    """Finalise, fetch a done job, and compare it to the serial run."""
    Coordinator(scenario.dir).run_once()
    jobs = JobStore(scenario.dir)
    record = jobs.get(job_id)
    if not scenario.check(
        "job reached the done state", record.state == "done",
        f"state={record.state} error={record.error}",
    ):
        return
    result = jobs.fetch(job_id)
    reference = campaign.reference(experiment, **kwargs)
    scenario.check(
        "result byte-identical to a serial run",
        result.text == reference.text and result.data == reference.data,
    )


# -- scenarios --------------------------------------------------------


def scenario_kill_worker_mid_lease(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A worker dies holding a live lease; survivors finish the job."""
    job_id = _submit(scenario)
    Coordinator(scenario.dir).run_once()
    victim = _run_service(
        "worker", "--dir", str(scenario.dir),
        "--worker-id", "victim", "--ttl", "0.5", "--poll", "0.05",
        "--inject-faults", "kill-worker@gcc",
        "--fault-seed", str(scenario.seed),
    )
    scenario.check(
        "victim worker hard-killed mid-lease",
        victim.returncode == faults.KILL_EXIT_STATUS,
        f"exit={victim.returncode} stderr={victim.stderr[-500:]}",
    )
    scenario.check(
        "victim left an orphaned lease behind",
        bool(_store(scenario).leases()),
    )
    scenario.check(
        "orphaned lease expired", _wait(lambda: _leases_stealable(scenario))
    )
    survivor_metrics = scenario.dir / "survivor.jsonl"
    _serve_clean(scenario, "survivor", survivor_metrics)
    _check_identical(campaign, scenario, job_id)
    completions: dict[str, int] = {}
    for event in _events(survivor_metrics, "lease"):
        if event.get("action") == "completed":
            fingerprint = event.get("fingerprint", "?")
            completions[fingerprint] = completions.get(fingerprint, 0) + 1
    scenario.check(
        "no cell published twice",
        all(count == 1 for count in completions.values()),
        f"completions={completions}",
    )


def scenario_kill_coordinator_mid_expand(
    campaign: Campaign, scenario: Scenario
) -> None:
    """Crash after the manifest is durable, before the record moves."""
    jobs = JobStore(scenario.dir)
    job_id = _submit(scenario)
    crashed = _run_service(
        "coordinator", "--dir", str(scenario.dir),
        "--poll", "0.05", "--rounds", "2",
        "--inject-faults", f"kill@expand:{job_id}",
        "--fault-seed", str(scenario.seed),
    )
    scenario.check(
        "coordinator hard-killed mid-expand",
        crashed.returncode == faults.KILL_EXIT_STATUS,
        f"exit={crashed.returncode} stderr={crashed.stderr[-500:]}",
    )
    manifest_path = mf.manifest_path(scenario.dir, job_id)
    scenario.check(
        "manifest is durable", manifest_path.exists()
    )
    scenario.check(
        "record still submitted (the torn state)",
        jobs.get(job_id).state == "submitted",
    )
    before = manifest_path.read_bytes()
    Coordinator(scenario.dir).run_once()
    scenario.check(
        "restarted coordinator adopted the manifest",
        jobs.get(job_id).state == "running",
    )
    scenario.check(
        "adoption left the manifest bytes untouched",
        manifest_path.read_bytes() == before,
    )
    record = jobs.get(job_id)
    scenario.check(
        "adopted bookkeeping matches the manifest",
        record.cells_total == len(mf.read_manifest(
            scenario.dir, job_id
        ).cells),
    )
    _serve_clean(scenario, "w1")
    _check_identical(campaign, scenario, job_id)


def scenario_kill_coordinator_mid_finalise(
    campaign: Campaign, scenario: Scenario
) -> None:
    """Crash after the result is durable, before the record moves."""
    jobs = JobStore(scenario.dir)
    job_id = _submit(scenario)
    Coordinator(scenario.dir).run_once()
    _serve_clean(scenario, "w1")
    crashed = _run_service(
        "coordinator", "--dir", str(scenario.dir),
        "--poll", "0.05", "--rounds", "2",
        "--inject-faults", f"kill@finalise:{job_id}",
        "--fault-seed", str(scenario.seed),
    )
    scenario.check(
        "coordinator hard-killed mid-finalise",
        crashed.returncode == faults.KILL_EXIT_STATUS,
        f"exit={crashed.returncode} stderr={crashed.stderr[-500:]}",
    )
    scenario.check(
        "result is durable", jobs.result_path(job_id).exists()
    )
    scenario.check(
        "record still running (the torn state)",
        jobs.get(job_id).state == "running",
    )
    _check_identical(campaign, scenario, job_id)


def scenario_hang_steal_zombie(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A frozen worker's lease is stolen; the zombie must not publish."""
    job_id = _submit(scenario)
    Coordinator(scenario.dir).run_once()
    manifest = mf.read_manifest(scenario.dir, job_id)
    target = next(e for e in manifest.cells if e.label == "gcc")
    queue = _queue(scenario)
    victim_metrics = scenario.dir / "zombie.jsonl"
    victim = subprocess.Popen(
        _service_cmd(
            "worker", "--dir", str(scenario.dir),
            "--worker-id", "zombie", "--ttl", "0.5", "--poll", "0.05",
            "--metrics", str(victim_metrics),
            "--inject-faults", "hang(2.0)@gcc",
            "--fault-seed", str(scenario.seed),
        ),
        env=_subprocess_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        def _zombie_holds_target() -> bool:
            lease = queue.read(target.fingerprint)
            return lease is not None and lease.worker == "zombie"

        grabbed = _wait(_zombie_holds_target)
        scenario.check("zombie leased the target cell", grabbed)
        # Freeze the whole process — heartbeat thread included — so the
        # lease genuinely expires under a still-alive owner.
        os.kill(victim.pid, signal.SIGSTOP)
        scenario.check(
            "frozen zombie's lease expired",
            _wait(
                lambda: (
                    (lease := queue.read(target.fingerprint)) is None
                    or lease.expired()
                    or lease.worker != "zombie"
                )
            ),
        )
        _serve_clean(scenario, "thief")
        record_path = _store(scenario).path_for(target.fingerprint)
        scenario.check(
            "thief completed the stolen cell", record_path.exists()
        )
        published = record_path.read_bytes()
        os.kill(victim.pid, signal.SIGCONT)
        victim.wait(timeout=WAIT_SECONDS)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)
    scenario.check(
        "woken zombie exited cleanly (no crash, no republish)",
        victim.returncode == 0,
        f"exit={victim.returncode}",
    )
    scenario.check(
        "thief's record bytes survived the zombie",
        record_path.read_bytes() == published,
    )
    zombie_actions = [
        event.get("action")
        for event in _events(victim_metrics, "lease")
        if event.get("fingerprint") == target.fingerprint
    ]
    scenario.check(
        "zombie abandoned instead of completing",
        "completed" not in zombie_actions
        and "abandoned" in zombie_actions,
        f"actions={zombie_actions}",
    )
    _check_identical(campaign, scenario, job_id)


def scenario_corrupt_lease(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A damaged claim reads as expired-at-epoch and is stolen."""
    job_id = _submit(scenario)
    Coordinator(scenario.dir).run_once()
    manifest = mf.read_manifest(scenario.dir, job_id)
    target = manifest.cells[0]
    # A *valid* long-lived claim would wedge the cell for its full TTL;
    # corruption must fail open (stealable), not closed.
    wedge = _queue(scenario, ttl=3600.0)
    wedge.acquire(target.fingerprint, target.label, job_id, "wedge")
    scenario.check(
        "cell wedged behind a long-lived claim",
        wedge.state(target.fingerprint) == "leased",
    )
    faults.corrupt_file(
        _store(scenario).lease_path_for(target.fingerprint)
    )
    scenario.check(
        "damaged claim reads as expired, not valid",
        wedge.state(target.fingerprint) == "expired",
    )
    worker_metrics = scenario.dir / "worker.jsonl"
    _serve_clean(scenario, "w1", worker_metrics)
    steals = [
        event for event in _events(worker_metrics, "lease")
        if event.get("action") == "steal"
        and event.get("fingerprint") == target.fingerprint
    ]
    scenario.check("damaged claim was stolen", len(steals) == 1)
    _check_identical(campaign, scenario, job_id)


def scenario_corrupt_job_record(
    campaign: Campaign, scenario: Scenario
) -> None:
    """One damaged job record neither sinks the fleet nor leaks raw
    exceptions."""
    from repro.evalx.service.__main__ import main as service_main

    jobs = JobStore(scenario.dir)
    job_a = _submit(scenario, tenant="alice")
    job_b = JobStore(scenario.dir).submit(
        JobSpec(
            experiment="table2",
            n_tasks=scenario.tasks + 2,
            quick=True,
            tenant="bob",
        )
    )
    faults.corrupt_file(jobs.path_for(job_b))
    scenario.expect_job_error(
        "damaged record raises a typed JobError", lambda: jobs.get(job_b)
    )
    scenario.check(
        "status CLI survives the damaged record",
        service_main(["status", "--dir", str(scenario.dir)]) == 0,
    )
    Coordinator(scenario.dir).run_once()
    _serve_clean(scenario, "w1")
    _check_identical(campaign, scenario, job_a)


def scenario_corrupt_result(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A damaged result pickle is detected and rebuilt byte-identically."""
    jobs = JobStore(scenario.dir)
    job_id = _submit(scenario)
    Coordinator(scenario.dir).run_once()
    _serve_clean(scenario, "w1")
    Coordinator(scenario.dir).run_once()
    scenario.check(
        "job finished before the damage",
        jobs.get(job_id).state == "done",
    )
    faults.corrupt_file(jobs.result_path(job_id))
    scenario.expect_job_error(
        "damaged result raises a typed JobError",
        lambda: jobs.fetch(job_id),
    )
    coordinator = Coordinator(scenario.dir)
    counts = coordinator.reconcile()
    scenario.check(
        "reconcile demoted the job for re-finalisation",
        counts["rebuilt"] == 1,
        f"counts={counts}",
    )
    coordinator.run_once()
    _check_identical(campaign, scenario, job_id)


def _doomed_worker(
    scenario: Scenario, generation: int, max_lease_attempts: int
) -> bool:
    """Run a worker that dies on every lease of ``gcc``; did it die so?"""
    run = _run_service(
        "worker", "--dir", str(scenario.dir),
        "--worker-id", f"doomed-{generation}",
        "--ttl", "0.4", "--poll", "0.05",
        "--max-lease-attempts", str(max_lease_attempts),
        "--inject-faults", "kill-worker@gcc~0",
        "--fault-seed", str(scenario.seed),
    )
    return scenario.check(
        f"lease generation {generation} killed its worker",
        run.returncode == faults.KILL_EXIT_STATUS,
        f"exit={run.returncode} stderr={run.stderr[-300:]}",
    )


def scenario_poison_cell(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A cell that kills every worker is quarantined after exactly 3
    lease generations and surfaces as a typed keep-going gap."""
    jobs = JobStore(scenario.dir)
    job_id = _submit(scenario, keep_going=True)
    Coordinator(scenario.dir).run_once()
    manifest = mf.read_manifest(scenario.dir, job_id)
    target = next(e for e in manifest.cells if e.label == "gcc")
    queue = _queue(scenario)
    kills = 0
    for generation in (1, 2, 3):
        kills += _doomed_worker(scenario, generation, 3)
        lease = queue.read(target.fingerprint)
        scenario.check(
            f"poison cell's lease carries attempt {generation}",
            lease is not None and lease.attempt == generation,
            f"lease={lease}",
        )
        scenario.check(
            f"generation {generation} lease expired",
            _wait(lambda: _leases_stealable(scenario)),
        )
    clean_metrics = scenario.dir / "clean.jsonl"
    _serve_clean(scenario, "clean", clean_metrics, max_lease_attempts=3)
    failure = mf.read_fail(scenario.dir, job_id, target.fingerprint)
    scenario.check(
        "poison cell quarantined with a typed marker",
        failure is not None and failure.kind == mf.QUARANTINED,
        f"failure={failure}",
    )
    scenario.check(
        "quarantine records exactly 3 burned lease attempts",
        kills == 3
        and failure is not None
        and failure.attempts == 3,
        f"kills={kills} failure={failure}",
    )
    quarantines = [
        event for event in _events(clean_metrics, "lease")
        if event.get("action") == "quarantined"
    ]
    scenario.check(
        "quarantine emitted one metrics event", len(quarantines) == 1
    )
    Coordinator(scenario.dir).run_once()
    record = jobs.get(job_id)
    scenario.check(
        "keep-going job finished around the gap",
        record.state == "done",
        f"state={record.state} error={record.error}",
    )
    if record.state == "done":
        result = jobs.fetch(job_id)
        scenario.check(
            "quarantined cell surfaced as the only gap",
            result.data.get("_failed_cells") == ["gcc"]
            and len(result.failures) == 1
            and result.failures[0].kind == mf.QUARANTINED,
        )


def scenario_deadline_expiry(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A job past its submission deadline retires, typed + terminal."""
    jobs = JobStore(scenario.dir)
    job_id = JobStore(scenario.dir).submit(
        JobSpec(
            experiment="table2",
            n_tasks=scenario.tasks,
            quick=True,
            timeout_seconds=0.4,
        )
    )
    metrics_path = scenario.dir / "coordinator.jsonl"
    with RunMetrics(path=metrics_path) as metrics:
        coordinator = Coordinator(scenario.dir, metrics=metrics)
        coordinator.run_once()  # expands before the deadline passes
        time.sleep(0.5)
        summary = coordinator.run_once()
    scenario.check(
        "deadline pass retired the job",
        summary["expired"] == 1,
        f"summary={summary}",
    )
    scenario.check(
        "expired state is terminal",
        jobs.get(job_id).state == "expired",
    )
    scenario.expect_job_error(
        "fetch of an expired job is a typed error",
        lambda: jobs.fetch(job_id),
        "expired",
    )
    served = Worker(scenario.dir, worker_id="late").serve(
        poll_seconds=0.02, idle_rounds=2
    )
    scenario.check(
        "no worker serves an expired job", served == 0,
        f"served={served}",
    )
    scenario.check(
        "deadline_expired metrics event recorded",
        any(
            event.get("action") == "deadline_expired"
            for event in _events(metrics_path, "job")
        ),
    )


def scenario_cancel_mid_flight(
    campaign: Campaign, scenario: Scenario
) -> None:
    """Cancelling a running job stops work and releases in-flight
    leases by expiry."""
    jobs = JobStore(scenario.dir)
    job_id = _submit(scenario)
    Coordinator(scenario.dir).run_once()
    manifest = mf.read_manifest(scenario.dir, job_id)
    target = manifest.cells[0]
    # A worker is mid-cell when the operator cancels.
    inflight = _queue(scenario, ttl=0.3)
    inflight.acquire(
        target.fingerprint, target.label, job_id, "inflight"
    )
    metrics_path = scenario.dir / "cancel.jsonl"
    with RunMetrics(path=metrics_path) as metrics:
        record = Coordinator(scenario.dir, metrics=metrics).cancel(
            job_id, reason="operator request"
        )
    scenario.check(
        "cancel moved the job to the terminal state",
        record.state == "cancelled"
        and jobs.get(job_id).state == "cancelled",
    )
    scenario.expect_job_error(
        "fetch of a cancelled job is a typed error",
        lambda: jobs.fetch(job_id),
        "cancelled",
    )
    served = Worker(scenario.dir, worker_id="post-cancel").serve(
        poll_seconds=0.02, idle_rounds=2
    )
    scenario.check(
        "no worker serves a cancelled job", served == 0,
        f"served={served}",
    )
    scenario.check(
        "in-flight lease expires unrenewed",
        _wait(
            lambda: (
                (lease := inflight.read(target.fingerprint)) is None
                or lease.expired()
            )
        ),
    )
    scenario.expect_job_error(
        "double cancel is a typed error",
        lambda: Coordinator(scenario.dir).cancel(job_id),
    )
    scenario.check(
        "cancelled metrics event recorded",
        any(
            event.get("action") == "cancelled"
            for event in _events(metrics_path, "job")
        ),
    )


def scenario_two_tenant_interference(
    campaign: Campaign, scenario: Scenario
) -> None:
    """Tenant A's poison cell must not perturb tenant B's job at all."""
    jobs = JobStore(scenario.dir)
    job_a = _submit(scenario, keep_going=True, tenant="alice")
    # Tenant B sweeps figure7, whose labels are "name:scheme" — the
    # exact-match glob "gcc" in the poison spec can only ever hit
    # tenant A's bare "gcc" cell.
    job_b = JobStore(scenario.dir).submit(
        JobSpec(
            experiment="figure7",
            n_tasks=scenario.tasks,
            quick=True,
            tenant="bob",
            params={"benchmarks": ["gcc"]},
        )
    )
    Coordinator(scenario.dir).run_once()
    for generation in (1, 2):
        _doomed_worker(scenario, generation, 2)
        scenario.check(
            f"generation {generation} lease expired",
            _wait(lambda: _leases_stealable(scenario)),
        )
    _serve_clean(scenario, "clean", max_lease_attempts=2)
    Coordinator(scenario.dir).run_once()
    record_a = jobs.get(job_a)
    scenario.check(
        "tenant A finished around its quarantined cell",
        record_a.state == "done",
        f"state={record_a.state} error={record_a.error}",
    )
    if record_a.state == "done":
        result_a = jobs.fetch(job_a)
        scenario.check(
            "tenant A's only gap is the poison cell",
            result_a.data.get("_failed_cells") == ["gcc"],
        )
    _check_identical(
        campaign,
        scenario,
        job_b,
        experiment="figure7",
        benchmarks=["gcc"],
    )


def _local_cmd(scenario: Scenario, *extra: str) -> list[str]:
    """A checkpointed ``--jobs 2`` table2 CLI run of the scenario size."""
    return _evalx_cmd(
        "table2", "--quick", "--tasks", str(scenario.tasks), "--jobs", "2",
        "--checkpoint-dir", str(scenario.dir / "ckpt"), *extra,
    )


def _local_run(
    campaign: Campaign, scenario: Scenario, name: str, *extra: str
) -> list[dict]:
    """A :func:`_local_cmd` run that must reproduce the serial result;
    returns its checkpoint and experiment metrics records."""
    metrics = scenario.dir / f"{name}.jsonl"
    run = subprocess.run(
        _local_cmd(scenario, "--metrics", str(metrics), *extra),
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    scenario.check(
        f"{name} run byte-identical to a serial run",
        run.returncode == 0
        and campaign.reference("table2").text in run.stdout,
        f"exit={run.returncode} stderr={run.stderr[-500:]}",
    )
    return _events(metrics, "checkpoint") + _events(metrics, "experiment")


def scenario_local_kill_resume(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A checkpointed ``--jobs 2`` run loses its parent to SIGKILL
    mid-sweep; its workers exit on their own and ``--resume`` finishes
    byte-identically, serving every record they published."""
    records = scenario.dir / "ckpt"
    # The hang pins one cell, so the run cannot finish before the kill.
    victim = subprocess.Popen(
        _local_cmd(
            scenario, "--inject-faults", "hang(300)@xlisp",
            "--fault-seed", str(scenario.seed),
        ),
        env=_subprocess_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        scenario.check(
            "run published records while a cell was pinned",
            _wait(lambda: len(list(records.glob("*.ckpt.json"))) >= 2)
            and victim.poll() is None,
        )
        # Only the parent dies, as under the OOM killer.
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=WAIT_SECONDS)
        scenario.check(
            "no worker of the killed run survives its parent",
            _wait(lambda: not live_group_members(victim.pid), 30.0),
        )
    finally:
        if live_group_members(victim.pid):
            os.killpg(victim.pid, signal.SIGKILL)
        victim.kill()
        victim.wait(timeout=30)
    persisted = len(list(records.glob("*.ckpt.json")))
    scenario.check("killed mid-sweep", 2 <= persisted < 5, f"{persisted}")
    events = _local_run(campaign, scenario, "resumed", "--resume")
    served = [e for e in events if e.get("action") == "resume"]
    summary = events[-1] if events else {}
    scenario.check(
        "every surviving record was served, none re-run",
        len(served) == summary.get("resumed") == persisted
        and summary.get("failed") == 0,
        f"summary={summary}",
    )


def scenario_local_corrupt_record(
    campaign: Campaign, scenario: Scenario
) -> None:
    """A damaged record in a ``--jobs 2`` store is caught by its
    checksum on resume, and only that cell re-runs."""
    _local_run(campaign, scenario, "populating")
    records = sorted((scenario.dir / "ckpt").glob("*.ckpt.json"))
    scenario.check("every cell left a record", len(records) == 5)
    if records:
        faults.corrupt_file(records[0])
    events = _local_run(campaign, scenario, "repairing", "--resume")
    actions = [e.get("action") for e in events]
    scenario.check(
        "damage detected by checksum, only that cell re-ran",
        actions.count("corrupt") == 1
        and actions.count("resume") == 4
        and actions.count("saved") == 1,
        f"actions={actions}",
    )


#: Scenario registry, in campaign order. Names are the CLI vocabulary.
SCENARIOS = {
    "kill-worker-mid-lease": scenario_kill_worker_mid_lease,
    "kill-coordinator-mid-expand": scenario_kill_coordinator_mid_expand,
    "kill-coordinator-mid-finalise": (
        scenario_kill_coordinator_mid_finalise
    ),
    "hang-steal-zombie": scenario_hang_steal_zombie,
    "corrupt-lease": scenario_corrupt_lease,
    "corrupt-job-record": scenario_corrupt_job_record,
    "corrupt-result": scenario_corrupt_result,
    "poison-cell": scenario_poison_cell,
    "deadline-expiry": scenario_deadline_expiry,
    "cancel-mid-flight": scenario_cancel_mid_flight,
    "two-tenant-interference": scenario_two_tenant_interference,
    "local-kill-resume": scenario_local_kill_resume,
    "local-corrupt-record": scenario_local_corrupt_record,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description=(
            "Run a deterministic chaos campaign against the sweep "
            "service and local --jobs runs, and machine-verify their "
            "robustness invariants."
        ),
    )
    parser.add_argument(
        "--scenarios", default="all",
        help="'all' or a comma-separated subset of: "
        + ", ".join(SCENARIOS),
    )
    parser.add_argument(
        "--seed", type=int, default=1302,
        help="fault-plan seed; one seed -> one outcome (default 1302)",
    )
    parser.add_argument(
        "--dir", default="chaos-campaign", metavar="DIR",
        help="campaign root; each scenario gets a subdirectory",
    )
    parser.add_argument(
        "--tasks", type=int, default=DEFAULT_TASKS,
        help=f"trace length per cell (default {DEFAULT_TASKS})",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="JSON report path (default <dir>/chaos-report.json)",
    )
    args = parser.parse_args(argv)
    if args.scenarios == "all":
        names = list(SCENARIOS)
    else:
        names = [
            name.strip()
            for name in args.scenarios.split(",")
            if name.strip()
        ]
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(
                f"error: unknown scenario(s) {unknown}; known: "
                f"{', '.join(SCENARIOS)}",
                file=sys.stderr,
            )
            return 2
    campaign = Campaign(args.dir, seed=args.seed, tasks=args.tasks)
    report = campaign.run(names)
    out = Path(args.out or (Path(args.dir) / "chaos-report.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    total = sum(len(checks) for checks in report["outcomes"].values())
    failed = sum(
        1
        for checks in report["outcomes"].values()
        for _, ok in checks
        if not ok
    )
    print(
        f"[chaos] {len(names)} scenario(s), {total} invariant(s), "
        f"{failed} failure(s); report: {out}"
    )
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
