"""Sweep-service CLI: ``python -m repro.evalx.service <command>``.

Commands::

    submit  EXPERIMENT --dir DIR [--tasks N --quick --keep-going
            --retries N --tenant NAME --params JSON --job-timeout S]
                                                -> prints the job id
    status  --dir DIR [JOB_ID]                  -> one line per job
    fetch   --dir DIR JOB_ID [--wait [--timeout S]]
                                                -> prints the report
    cancel  --dir DIR JOB_ID [--reason TEXT --metrics FILE]
                                                -> terminal `cancelled`
    coordinator --dir DIR [--poll S --shards N --exit-when-idle
            --rounds N --calibrate-metrics FILE... --metrics FILE
            --inject-faults SPEC --fault-seed N]
    worker  --dir DIR [--worker-id ID --ttl S --poll S --max-cells N
            --idle-rounds N --retries N --retry-backoff S
            --max-lease-attempts N --metrics FILE
            --inject-faults SPEC --fault-seed N]

The console scripts ``repro-sweep``, ``repro-sweep-coordinator`` and
``repro-sweep-worker`` map to the same commands.

The worker and coordinator loops drain gracefully: the first
SIGTERM/SIGINT finishes (or abandons) the in-flight work, releases
leases on the normal path, records a ``drain`` metrics event, and
exits 0; a second signal interrupts immediately.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evalx.service",
        description=(
            "Distributed sweep service: submit sweeps as jobs, lease "
            "their cells to workers over a shared directory, fetch "
            "byte-identical results."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dir(p):
        p.add_argument(
            "--dir", required=True, metavar="DIR",
            help="shared service directory (jobs/, queue/, store/)",
        )

    submit = sub.add_parser("submit", help="enqueue one sweep as a job")
    add_dir(submit)
    submit.add_argument(
        "experiment",
        help="experiment id to sweep (e.g. table2, table4, figure7)",
    )
    submit.add_argument("--tasks", type=int, default=None)
    submit.add_argument("--quick", action="store_true")
    submit.add_argument(
        "--keep-going", action="store_true",
        help="degrade failed cells to report gaps instead of failing "
        "the job",
    )
    submit.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts workers grant each failing cell",
    )
    submit.add_argument(
        "--tenant", default="default",
        help="tenant name for fair scheduling across submitters",
    )
    submit.add_argument(
        "--params", default=None, metavar="JSON",
        help="extra driver keyword arguments as a JSON object (e.g. "
        '\'{"configs": [...]}\' for a tune_rung job)',
    )
    submit.add_argument(
        "--job-timeout", type=float, default=None, metavar="S",
        help="wall-clock deadline from submission; the coordinator "
        "retires the job to the terminal 'expired' state past it",
    )

    status = sub.add_parser("status", help="poll job progress")
    add_dir(status)
    status.add_argument("job_id", nargs="?", default=None)

    cancel = sub.add_parser(
        "cancel", help="move an in-flight job to 'cancelled'"
    )
    add_dir(cancel)
    cancel.add_argument("job_id")
    cancel.add_argument(
        "--reason", default="",
        help="recorded in the job record's error field",
    )
    cancel.add_argument("--metrics", default=None, metavar="FILE")

    fetch = sub.add_parser("fetch", help="print a finished job's report")
    add_dir(fetch)
    fetch.add_argument("job_id")
    fetch.add_argument(
        "--wait", action="store_true",
        help="block until the job resolves instead of failing fast",
    )
    fetch.add_argument(
        "--timeout", type=float, default=600.0,
        help="give up waiting after this many seconds (default 600)",
    )

    coord = sub.add_parser(
        "coordinator", help="run the job coordinator loop"
    )
    add_dir(coord)
    coord.add_argument("--poll", type=float, default=0.5)
    coord.add_argument(
        "--shards", type=int, default=None,
        help="shards per job (default 4); the cost model balances them",
    )
    coord.add_argument(
        "--exit-when-idle", action="store_true",
        help="return once no job is submitted or running",
    )
    coord.add_argument(
        "--rounds", type=int, default=None,
        help="stop after N scheduling passes (default: run forever)",
    )
    coord.add_argument(
        "--calibrate-metrics", nargs="*", default=(), metavar="FILE",
        help="RunMetrics JSONL files to calibrate cell-cost weights "
        "from",
    )
    coord.add_argument("--metrics", default=None, metavar="FILE")
    coord.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="chaos harness for the coordinator path: stage labels "
        "'expand:<job_id>' and 'finalise:<job_id>' target the crash "
        "windows between a durable artifact and its record update; "
        "inert unless given",
    )
    coord.add_argument("--fault-seed", type=int, default=0)

    worker = sub.add_parser("worker", help="run one sweep worker loop")
    add_dir(worker)
    worker.add_argument("--worker-id", default=None)
    worker.add_argument(
        "--ttl", type=float, default=30.0,
        help="lease lifetime between heartbeats (default 30s)",
    )
    worker.add_argument("--poll", type=float, default=0.5)
    worker.add_argument(
        "--max-cells", type=int, default=None,
        help="exit after completing N cells",
    )
    worker.add_argument(
        "--idle-rounds", type=int, default=3,
        help="exit after N consecutive empty polls (default 3)",
    )
    worker.add_argument("--retries", type=int, default=0)
    worker.add_argument("--retry-backoff", type=float, default=0.25)
    worker.add_argument(
        "--max-lease-attempts", type=int, default=None,
        help="lease generations (fresh + steals) before a cell is "
        "quarantined as poison (default 3)",
    )
    worker.add_argument("--metrics", default=None, metavar="FILE")
    worker.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="chaos harness for the distributed path (adds "
        "kill-worker to the single-host grammar); inert unless given",
    )
    worker.add_argument("--fault-seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def _cmd_submit(args) -> int:
    import json

    from repro.evalx.registry import ALL_IDS
    from repro.evalx.service.jobs import JobSpec, JobStore

    if args.experiment not in ALL_IDS:
        print(
            f"error: unknown experiment {args.experiment!r}; known: "
            f"{', '.join(ALL_IDS)}",
            file=sys.stderr,
        )
        return 2
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except ValueError as exc:
            print(f"error: --params is not JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print(
                "error: --params must be a JSON object", file=sys.stderr
            )
            return 2
    if args.job_timeout is not None and args.job_timeout <= 0:
        print(
            "error: --job-timeout must be > 0 seconds",
            file=sys.stderr,
        )
        return 2
    job_id = JobStore(args.dir).submit(
        JobSpec(
            experiment=args.experiment,
            n_tasks=args.tasks,
            quick=args.quick,
            keep_going=args.keep_going,
            retries=args.retries,
            tenant=args.tenant,
            params=params,
            timeout_seconds=args.job_timeout,
        )
    )
    print(job_id)
    return 0


def _cmd_status(args) -> int:
    from repro.evalx.service.coordinator import Coordinator
    from repro.evalx.service.jobs import JobError, JobStore

    coordinator = Coordinator(args.dir)
    if args.job_id is not None:
        try:
            print(coordinator.status(args.job_id).summary())
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    records = JobStore(args.dir).list_jobs()
    if not records:
        print("no jobs")
        return 0
    for record in records:
        try:
            print(coordinator.status(record.job_id).summary())
        except JobError as exc:
            # Deleted or damaged between the listing and this poll.
            print(f"error: {exc}", file=sys.stderr)
    return 0


def _cmd_cancel(args) -> int:
    from repro.evalx.metrics import RunMetrics
    from repro.evalx.service.coordinator import Coordinator
    from repro.evalx.service.jobs import JobError

    with RunMetrics(path=args.metrics) as metrics:
        try:
            record = Coordinator(args.dir, metrics=metrics).cancel(
                args.job_id, reason=args.reason
            )
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"{record.job_id} [cancelled] {record.error}")
    return 0


def _cmd_fetch(args) -> int:
    from repro.evalx.service.jobs import (
        TERMINAL_STATES,
        JobError,
        JobStore,
    )

    store = JobStore(args.dir)
    deadline = time.monotonic() + args.timeout
    while True:
        try:
            record = store.get(args.job_id)
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if record.state in TERMINAL_STATES:
            break
        if not args.wait or time.monotonic() >= deadline:
            print(
                f"job {args.job_id} is {record.state}; use --wait or "
                "poll status",
                file=sys.stderr,
            )
            return 3
        time.sleep(0.5)
    try:
        result = store.fetch(args.job_id)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result)
    if result.failures:
        print(
            f"warning: {len(result.failures)} cell(s) failed and were "
            "reported as gaps (keep-going job)",
            file=sys.stderr,
        )
        return 1
    return 0


@contextlib.contextmanager
def _drain_on_signals(request_drain):
    """Translate the first SIGTERM/SIGINT into a graceful drain.

    The first signal calls ``request_drain`` (a signal-safe Event set)
    so the serve loop finishes its in-flight work, releases leases on
    the normal path, and returns; its name is appended to the yielded
    list so the caller can record a ``drain`` metrics event. A second
    signal raises ``KeyboardInterrupt`` — the operator's escalation
    when the in-flight cell is wedged. No-op off the main thread.
    """
    from repro.evalx.parallel import handle_signals

    received: list[str] = []

    def drain(name: str) -> None:
        if received:
            raise KeyboardInterrupt
        received.append(name)
        request_drain()

    with handle_signals(drain):
        yield received


def _cmd_coordinator(args) -> int:
    from repro.evalx.metrics import RunMetrics
    from repro.evalx.service.coordinator import (
        DEFAULT_SHARDS,
        Coordinator,
    )
    from repro.evalx.service.costs import CostModel

    if args.inject_faults:
        _arm_faults(args.dir, args.inject_faults, args.fault_seed)
    cost_model = (
        CostModel.from_metrics(args.calibrate_metrics)
        if args.calibrate_metrics
        else CostModel()
    )
    with RunMetrics(path=args.metrics) as metrics:
        coordinator = Coordinator(
            args.dir,
            cost_model=cost_model,
            n_shards=args.shards or DEFAULT_SHARDS,
            metrics=metrics,
        )
        with _drain_on_signals(coordinator.request_drain) as received:
            coordinator.serve(
                poll_seconds=args.poll,
                exit_when_idle=args.exit_when_idle,
                max_rounds=args.rounds,
            )
        if received:
            metrics.drain_event("coordinator", received[0])
    if received:
        print(
            f"[coordinator drained after {received[0]}]",
            file=sys.stderr,
        )
    return 0


def _cmd_worker(args) -> int:
    from repro.evalx.metrics import RunMetrics
    from repro.evalx.parallel import RetryPolicy
    from repro.evalx.service.worker import (
        DEFAULT_MAX_LEASE_ATTEMPTS,
        Worker,
    )

    if args.ttl <= 0:
        print("error: --ttl must be > 0 seconds", file=sys.stderr)
        return 2
    if args.inject_faults:
        _arm_faults(args.dir, args.inject_faults, args.fault_seed)
    with RunMetrics(path=args.metrics) as metrics:
        worker = Worker(
            args.dir,
            worker_id=args.worker_id,
            ttl_seconds=args.ttl,
            retry=RetryPolicy(
                retries=args.retries,
                backoff_seconds=args.retry_backoff,
            ),
            metrics=metrics,
            max_lease_attempts=(
                args.max_lease_attempts
                if args.max_lease_attempts is not None
                else DEFAULT_MAX_LEASE_ATTEMPTS
            ),
        )
        with _drain_on_signals(worker.request_drain) as received:
            ran = worker.serve(
                poll_seconds=args.poll,
                max_cells=args.max_cells,
                idle_rounds=args.idle_rounds,
            )
        if received:
            metrics.drain_event("worker", received[0], served=ran)
    print(
        f"[worker {worker.worker_id} served {ran} cell(s)"
        + (f", drained after {received[0]}" if received else "")
        + "]",
        file=sys.stderr,
    )
    return 0


def _arm_faults(root: str, spec: str, seed: int) -> None:
    """Compile a chaos plan against queued cell + stage labels.

    The explicit ``--inject-faults`` opt-in mirrors the single-host
    CLI. Victim labels are drawn from whatever jobs exist when the
    process starts: every expanded manifest's cell labels (worker
    faults) plus the synthetic ``expand:<job_id>`` /
    ``finalise:<job_id>`` stage labels (coordinator crash windows).
    """
    from repro.evalx.__main__ import _install_fault_plan
    from repro.evalx.service import manifest as mf
    from repro.evalx.service.jobs import JobStore

    labels: list[str] = []
    for record in JobStore(root).list_jobs():
        labels.append(f"expand:{record.job_id}")
        labels.append(f"finalise:{record.job_id}")
        try:
            manifest = mf.read_manifest(root, record.job_id)
        except mf.ManifestError:
            continue
        labels.extend(entry.label for entry in manifest.cells)
    _install_fault_plan(spec, seed, labels)


_COMMANDS = {
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
    "fetch": _cmd_fetch,
    "coordinator": _cmd_coordinator,
    "worker": _cmd_worker,
}


def coordinator_main() -> int:
    """Console-script entry: ``repro-sweep-coordinator``."""
    return main(["coordinator", *sys.argv[1:]])


def worker_main() -> int:
    """Console-script entry: ``repro-sweep-worker``."""
    return main(["worker", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
