"""Parallel experiment engine: determinism, ordering, error reporting."""

from __future__ import annotations

import os
import signal
import tempfile
import time

import pytest

from repro.errors import CellExecutionError, ExperimentError
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import (
    Cell,
    RetryPolicy,
    _run_cell_instrumented,
    execute_cells,
    is_failure,
    resolve_jobs,
)
from repro.evalx.registry import run_experiment
from repro.evalx.service import local

#: Small traces keep the double (serial + parallel) runs cheap.
_TASKS = 12_000


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"bad input {x}")


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-1)


class TestExecuteCells:
    def _cells(self, values):
        return [
            Cell(label=f"c{v}", fn=_square, kwargs={"x": v})
            for v in values
        ]

    def test_serial_preserves_cell_order(self):
        assert execute_cells(self._cells([3, 1, 2])) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        cells = self._cells(range(8))
        assert execute_cells(cells, jobs=3) == execute_cells(cells)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_failure_names_the_cell(self, jobs):
        cells = [
            Cell(label="good", fn=_square, kwargs={"x": 2}),
            Cell(label="broken-cell", fn=_boom, kwargs={"x": 7}),
        ]
        with pytest.raises(ExperimentError, match="broken-cell") as info:
            execute_cells(cells, jobs=jobs)
        # The original exception stays attached for debugging.
        assert "bad input 7" in str(info.value)


class TestJobsBitIdentical:
    """run_experiment(..., jobs=N) must equal the serial run exactly."""

    def test_figure7_quick(self):
        serial = run_experiment(
            "figure7", n_tasks=_TASKS, quick=True,
            benchmarks=("gcc", "compress"),
        )
        fanned = run_experiment(
            "figure7", n_tasks=_TASKS, quick=True,
            benchmarks=("gcc", "compress"), jobs=4,
        )
        assert fanned.data == serial.data
        assert fanned.text == serial.text

    def test_table3_quick(self):
        serial = run_experiment("table3", n_tasks=_TASKS, quick=True)
        fanned = run_experiment(
            "table3", n_tasks=_TASKS, quick=True, jobs=4
        )
        assert fanned.data == serial.data
        assert fanned.text == serial.text


class _AttemptRecorder(RunMetrics):
    """A disabled recorder that remembers every cell attempt."""

    def __init__(self):
        super().__init__(path=None, progress=False)
        self.attempts = []

    def cell_attempt(self, label, status, attempt, **kwargs):
        self.attempts.append((label, attempt, status))


#: The test process; cells below misbehave only in forked workers.
_PARENT_PID = os.getpid()


def _crash_once(x: int, calls_path: str) -> int:
    """Kill the worker on the first call, succeed on later ones."""
    with open(calls_path, "a") as handle:
        handle.write(f"{x}\n")
    with open(calls_path) as handle:
        if len(handle.read().splitlines()) == 1:
            os._exit(17)
    return x * x


def _crash_in_worker(x: int) -> int:
    if os.getpid() != _PARENT_PID:
        os._exit(17)
    raise RuntimeError(f"crash stand-in {x}")


def _hang_in_worker(x: int) -> int:
    if os.getpid() != _PARENT_PID:
        time.sleep(30)
    raise RuntimeError(f"timeout stand-in {x}")


class TestWorkerDeathAccounting:
    """A dead worker's lease names its cell: the death is an attempt."""

    def test_first_death_is_charged_with_no_isolated_rerun(self, tmp_path):
        calls = tmp_path / "calls.txt"
        recorder = _AttemptRecorder()
        cells = [
            Cell(
                label="dies-once",
                fn=_crash_once,
                kwargs={"x": 6, "calls_path": str(calls)},
            ),
            Cell(label="steady", fn=_square, kwargs={"x": 3}),
        ]
        results = execute_cells(
            cells,
            jobs=2,
            retry=RetryPolicy(retries=1, backoff_seconds=0.01),
            metrics=recorder,
        )
        assert results == [36, 9]
        # The first death is charged as attempt 1 and the retry is
        # attempt 2: the cell ran exactly twice.
        attempts = [a for a in recorder.attempts if a[0] == "dies-once"]
        assert attempts == [("dies-once", 1, "crash"), ("dies-once", 2, "ok")]
        assert calls.read_text().splitlines() == ["6", "6"]
        # The death is charged to nobody else: the other cell ran once.
        assert [a for a in recorder.attempts if a[0] == "steady"] == [
            ("steady", 1, "ok")
        ]

    def test_crash_timeout_error_mix_leaves_the_serial_gaps(self):
        # In forked workers these cells crash, hang past the deadline
        # and raise; in the serial loop all three raise. Either way the
        # same cells become gaps after the same number of attempts.
        cells = [
            Cell(label="ok-1", fn=_square, kwargs={"x": 2}),
            Cell(label="raises", fn=_boom, kwargs={"x": 1}),
            Cell(label="crashes", fn=_crash_in_worker, kwargs={"x": 2}),
            Cell(label="hangs", fn=_hang_in_worker, kwargs={"x": 3}),
            Cell(label="ok-2", fn=_square, kwargs={"x": 5}),
        ]
        policy = RetryPolicy(
            retries=1, backoff_seconds=0.01, timeout_seconds=0.5
        )
        serial = execute_cells(cells, keep_going=True, retry=policy)
        fanned = execute_cells(
            cells, jobs=2, keep_going=True, retry=policy
        )

        def gaps(results):
            return [
                (r.label, r.attempts) if is_failure(r) else r
                for r in results
            ]

        assert gaps(fanned) == gaps(serial) == [
            4, ("raises", 2), ("crashes", 2), ("hangs", 2), 25,
        ]
        assert [r.kind for r in fanned if is_failure(r)] == [
            "error", "crash", "timeout",
        ]


def _unpicklable(x: int):
    return lambda: x  # a closure cannot be pickled into a record


class TestUnpublishableResult:
    """At ``jobs >= 2`` a result reaches the parent only as a record: one
    that cannot be saved fails its attempt instead of reopening the
    cell forever."""

    @pytest.fixture(autouse=True)
    def _deadline(self):
        # Fail instead of hanging if the cell is leased again forever.
        def expire(*_):
            raise TimeoutError("the run never finished")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def _cells(self):
        return [
            Cell(label="unpicklable", fn=_unpicklable, kwargs={"x": 1}),
            Cell(label="steady", fn=_square, kwargs={"x": 3}),
        ]

    def test_keep_going_leaves_a_gap(self):
        recorder = _AttemptRecorder()
        results = execute_cells(
            self._cells(),
            jobs=2,
            keep_going=True,
            retry=RetryPolicy(retries=1, backoff_seconds=0.01),
            metrics=recorder,
        )
        assert is_failure(results[0]) and results[1] == 9
        assert results[0].kind == "error" and results[0].attempts == 2
        assert "could not be published" in results[0].error
        assert [a for a in recorder.attempts if a[0] == "unpicklable"] == [
            ("unpicklable", 1, "error"),
            ("unpicklable", 2, "error"),
        ]

    def test_without_keep_going_raises_naming_the_cell(self):
        with pytest.raises(CellExecutionError, match="unpicklable"):
            execute_cells(self._cells(), jobs=2)


class TestRunDirectories:
    """A ``--jobs N`` run removes its own temporary directory, and only
    the directories of other runs whose lock shows them gone."""

    def test_run_leaves_no_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cells = [
            Cell(label=f"c{v}", fn=_square, kwargs={"x": v})
            for v in range(4)
        ]
        assert execute_cells(cells, jobs=2) == [0, 1, 4, 9]
        assert list(tmp_path.glob("repro-run-*")) == []

    def test_only_unlocked_run_directories_are_removed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        live, live_lock = local._lock_run_dir()
        dead, dead_lock = local._lock_run_dir()
        os.close(dead_lock)  # its run and workers are gone
        try:
            local._remove_dead_runs()
            assert live.exists() and not dead.exists()
        finally:
            os.close(live_lock)


class TestCacheDeltaCounters:
    def test_counter_born_between_snapshots(self, monkeypatch):
        """A cache counter that first appears while the cell runs must
        show up as its own delta, not raise KeyError."""
        snapshots = iter([{}, {"program_builds": 3, "zero": 0}])
        monkeypatch.setattr(
            "repro.evalx.parallel.cache_counters",
            lambda: dict(next(snapshots)),
        )
        outcome = _run_cell_instrumented(
            Cell(label="c", fn=_square, kwargs={"x": 5})
        )
        assert outcome.payload == 25
        assert outcome.cache == {"program_builds": 3}
