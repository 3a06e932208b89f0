"""Disk trace cache: atomic publication and corruption tolerance."""

from __future__ import annotations

import dataclasses
import importlib
import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.evalx.experiments.table4 import _make_predictor
from repro.evalx.metrics import RunMetrics
from repro.evalx.registry import EXPERIMENT_IDS, run_experiment
from repro.isa.headers import COLUMN_NAMES, HeaderTable
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.sim.functional import (
    simulate_exit_prediction,
    simulate_task_prediction,
)
from repro.synth import workloads
from repro.synth.profiles import BENCHMARK_NAMES
from repro.synth.workloads import build_program


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """Point the disk cache at a temp dir, isolating the memory caches."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    saved_traces = dict(workloads._trace_cache)
    saved_programs = dict(workloads._program_cache)
    workloads._trace_cache.clear()
    yield tmp_path
    workloads._trace_cache.clear()
    workloads._trace_cache.update(saved_traces)
    workloads._program_cache.update(saved_programs)


class TestDiskCache:
    def test_publishes_one_file_and_no_temp_leftovers(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        assert len(list(cache_dir.glob("*.npz"))) == 1
        assert not list(cache_dir.glob("*tmp*"))

    def test_cache_round_trip_is_identical(self, cache_dir):
        first = workloads.load_workload("compress", n_tasks=1500)
        workloads._trace_cache.clear()  # force the disk path
        second = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.task_addr, second.trace.task_addr
        )
        assert np.array_equal(
            first.trace.next_addr, second.trace.next_addr
        )

    def test_corrupt_cache_file_is_regenerated(self, cache_dir):
        first = workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        path.write_bytes(b"this is not a zip archive")
        workloads._trace_cache.clear()
        second = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.task_addr, second.trace.task_addr
        )
        # The corrupt file was replaced with a loadable one.
        (path,) = cache_dir.glob("*.npz")
        workloads._trace_cache.clear()
        third = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.task_addr, third.trace.task_addr
        )

    def test_truncated_cache_file_is_regenerated(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        path.write_bytes(path.read_bytes()[: 100])
        workloads._trace_cache.clear()
        regenerated = workloads.load_workload("compress", n_tasks=1500)
        assert len(regenerated.trace) == 1500

    def test_disk_cache_enabled_follows_env(self, cache_dir, monkeypatch):
        assert workloads.disk_cache_enabled()
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert not workloads.disk_cache_enabled()

    def test_prewarm_populates_disk(self, cache_dir):
        assert workloads.prewarm_workload("compress", 1500) == "compress"
        assert len(list(cache_dir.glob("*.npz"))) == 1

    def test_cache_disabled_writes_nothing(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        workloads.load_workload("compress", n_tasks=1500)
        assert not list(cache_dir.iterdir())


class TestOrphanTempSweep:
    """Satellite bugfix: stale ``.tmp-<pid>.npz`` files from workers
    killed mid-write must not accumulate forever."""

    @staticmethod
    def _dead_pid() -> int:
        import subprocess

        proc = subprocess.Popen(["true"])
        proc.wait()
        return proc.pid

    def test_dead_pid_tmp_file_is_swept(self, cache_dir):
        orphan = cache_dir / f".x.tmp-{self._dead_pid()}.npz"
        orphan.write_bytes(b"partial write")
        removed = workloads.sweep_orphan_tmp_files(cache_dir)
        assert orphan in removed
        assert not orphan.exists()

    def test_live_recent_tmp_file_is_kept(self, cache_dir):
        import os

        in_flight = cache_dir / f".y.tmp-{os.getpid()}.npz"
        in_flight.write_bytes(b"being written right now")
        assert workloads.sweep_orphan_tmp_files(cache_dir) == []
        assert in_flight.exists()

    def test_old_tmp_file_is_swept_even_with_recycled_pid(self, cache_dir):
        import os
        import time

        stale = cache_dir / f".z.tmp-{os.getpid()}.npz"
        stale.write_bytes(b"hours old")
        ancient = time.time() - 2 * workloads._TMP_MAX_AGE_SECONDS
        os.utime(stale, (ancient, ancient))
        removed = workloads.sweep_orphan_tmp_files(cache_dir)
        assert stale in removed

    def test_real_cache_entries_are_never_touched(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        (entry,) = cache_dir.glob("*.npz")
        orphan = cache_dir / f".w.tmp-{self._dead_pid()}.npz"
        orphan.write_bytes(b"junk")
        workloads.prewarm_workload("compress", 1500)  # sweeps on entry
        assert entry.exists()
        assert not orphan.exists()

    def test_sweep_counts_reaps_in_cache_counters(self, cache_dir):
        before = workloads.cache_counters()["orphan_tmp_reaps"]
        for stem in ("a", "b"):
            orphan = cache_dir / f".{stem}.tmp-{self._dead_pid()}.npz"
            orphan.write_bytes(b"junk")
        workloads.sweep_orphan_tmp_files(cache_dir)
        after = workloads.cache_counters()["orphan_tmp_reaps"]
        assert after == before + 2

    def test_checkpoint_tmp_names_match_the_sweep_pattern(
        self, cache_dir
    ):
        # The checkpoint store's temp naming (no .npz suffix) must be
        # covered by the same sweep as trace-cache temps.
        orphan = cache_dir / f".{'f' * 40}.tmp-{self._dead_pid()}"
        orphan.write_bytes(b"half a checkpoint record")
        removed = workloads.sweep_orphan_tmp_files(cache_dir)
        assert orphan in removed

    def test_prewarm_sweeps_active_checkpoint_dir(
        self, cache_dir, tmp_path, monkeypatch
    ):
        ckpt_dir = tmp_path / "ckpt-store"
        ckpt_dir.mkdir()
        orphan = ckpt_dir / f".{'e' * 40}.tmp-{self._dead_pid()}"
        orphan.write_bytes(b"torn record")
        keeper = ckpt_dir / (("e" * 40) + ".ckpt.json")
        keeper.write_text("{}")
        monkeypatch.setenv(workloads.CHECKPOINT_ENV, str(ckpt_dir))
        workloads.prewarm_workload("compress", 1500)
        assert not orphan.exists()
        assert keeper.exists()  # published records are never touched

    def test_prewarm_ignores_unset_checkpoint_env(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.delenv(workloads.CHECKPOINT_ENV, raising=False)
        assert workloads.prewarm_workload("compress", 1500) == "compress"


class TestCacheCounters:
    """Hit/miss accounting consumed by the run metrics stream."""

    def test_build_then_memory_hit(self, cache_dir):
        before = workloads.cache_counters()
        workloads.load_workload("compress", n_tasks=1500)
        mid = workloads.cache_counters()
        assert mid["trace_builds"] == before["trace_builds"] + 1
        workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        assert (
            after["trace_memory_hits"] == mid["trace_memory_hits"] + 1
        )
        assert after["trace_builds"] == mid["trace_builds"]

    def test_disk_hit_counted_after_memory_cache_cleared(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        workloads._trace_cache.clear()
        before = workloads.cache_counters()
        workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        assert after["trace_disk_hits"] == before["trace_disk_hits"] + 1
        assert after["trace_builds"] == before["trace_builds"]

    def test_counters_snapshot_is_a_copy(self, cache_dir):
        snapshot = workloads.cache_counters()
        snapshot["trace_builds"] += 100
        assert workloads.cache_counters() != snapshot


class TestTraceChecksum:
    """Tentpole satellite: cache entries carry a content checksum, so
    bit-level damage that still unzips is a detected miss, not wrong
    simulator input."""

    def test_saved_trace_embeds_checksum(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        with np.load(path) as data:
            assert "checksum" in data

    def test_tampered_column_is_detected_and_regenerated(self, cache_dir):
        from repro.errors import TraceError
        from repro.synth.trace import TaskTrace

        first = workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")

        # Rewrite the file with one column changed but the stale
        # checksum kept — simulates silent bit-rot inside the archive.
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        arrays["exit_index"] = arrays["exit_index"].copy()
        arrays["exit_index"][0] ^= 1
        np.savez_compressed(path, **arrays)

        with pytest.raises(TraceError, match="checksum mismatch"):
            TaskTrace.load(path)

        # The cache layer treats it as a miss and regenerates cleanly.
        workloads._trace_cache.clear()
        second = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.exit_index, second.trace.exit_index
        )

    def test_legacy_file_without_checksum_still_loads(self, cache_dir):
        from repro.synth.trace import TaskTrace

        workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        with np.load(path) as data:
            arrays = {
                name: data[name].copy()
                for name in data.files
                if name != "checksum"
            }
        np.savez_compressed(path, **arrays)
        trace = TaskTrace.load(path)  # unverified, but not rejected
        assert len(trace) == 1500


_UNKNOWN_TASK = 0x7FFF0


def _counted(run) -> tuple[object, dict[str, int]]:
    """``run()``'s result and how far it moved each cache counter."""
    before = workloads.cache_counters()
    result = run()
    after = workloads.cache_counters()
    return result, {key: after[key] - before[key] for key in after}


def _cold_load(name: str, n_tasks: int) -> tuple[object, dict[str, int]]:
    """Load with both memory caches empty, so only the disk can serve."""
    workloads._trace_cache.clear()
    workloads._program_cache.clear()
    return _counted(lambda: workloads.load_workload(name, n_tasks=n_tasks))


def _assert_same_table(actual: HeaderTable, expected: HeaderTable) -> None:
    for name in COLUMN_NAMES:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


class TestStoredHeaders:
    """A cache entry carries its program's header columns, so a hit
    serves a workload without building the program."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_stored_table_equals_the_programs(self, cache_dir, name):
        workloads.load_workload(name, n_tasks=500)
        workload, moved = _cold_load(name, 500)
        assert moved["trace_disk_hits"] == 1
        assert moved["program_builds"] == 0
        _assert_same_table(
            workload.headers, HeaderTable(build_program(name).program)
        )

    def test_program_is_built_on_first_access(self, cache_dir):
        workloads.load_workload("compress", n_tasks=500)
        workload, _ = _cold_load("compress", 500)
        compiled, moved = _counted(lambda: workload.compiled)
        assert moved["program_builds"] == 1
        assert workload.compiled is compiled
        _assert_same_table(workload.headers, HeaderTable(compiled.program))

    def test_entry_names_carry_the_format(self, cache_dir):
        path = workloads.trace_cache_path("compress", 500)
        assert path.name.endswith(f"-{workloads._ENTRY_FORMAT}.npz")


class TestDamagedEntries:
    """Any damage to an entry is a miss: the trace and the headers are
    rebuilt together and published again, never read as stale."""

    @pytest.fixture()
    def entry(self, cache_dir):
        original = workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        return original, path

    @staticmethod
    def _assert_regenerated(original, path) -> None:
        workload, moved = _cold_load("compress", 1500)
        assert moved["trace_builds"] == 1
        assert np.array_equal(
            workload.trace.task_addr, original.trace.task_addr
        )
        _assert_same_table(workload.headers, original.headers)
        # The rebuilt entry is whole again: the next load is a disk hit.
        again, moved = _cold_load("compress", 1500)
        assert moved["trace_disk_hits"] == 1
        assert moved["program_builds"] == 0
        _assert_same_table(again.headers, original.headers)

    def test_entry_without_header_columns(self, entry):
        original, path = entry
        original.trace.save(path)  # a valid, checksummed plain trace
        self._assert_regenerated(original, path)

    def test_entry_with_one_flipped_byte(self, entry):
        original, path = entry
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        self._assert_regenerated(original, path)

    def test_truncated_entry(self, entry):
        original, path = entry
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self._assert_regenerated(original, path)


class TestWarmCacheBuildsNoProgram:
    def test_planted_unknown_task_fails_through_the_stored_table(
        self, cache_dir
    ):
        workloads.load_workload("gcc", n_tasks=2_000)
        loaded, _ = _cold_load("gcc", 2_000)
        assert _UNKNOWN_TASK not in loaded.headers.addrs
        task_addr = loaded.trace.task_addr.copy()
        task_addr[1_000] = _UNKNOWN_TASK
        planted = workloads.Workload(
            loaded.profile,
            None,
            dataclasses.replace(loaded.trace, task_addr=task_addr),
            loaded.headers,
        )
        spec = DolcSpec.parse("7-5-7-8(3)")
        runs = {
            "exit": lambda v: simulate_exit_prediction(
                planted, PathExitPredictor(spec), vectorize=v
            ),
            "task": lambda v: simulate_task_prediction(
                planted, _make_predictor("PATH", planted), vectorize=v
            ),
        }
        before = workloads.cache_counters()["program_builds"]
        for run in runs.values():
            for vectorize in (True, False):
                with pytest.raises(
                    SimulationError, match="unknown task 0x7fff0"
                ):
                    run(vectorize)
        assert workloads.cache_counters()["program_builds"] == before

    def test_paper_experiments_build_no_program(self, cache_dir, tmp_path):
        for experiment_id in EXPERIMENT_IDS:
            module = importlib.import_module(
                f"repro.evalx.experiments.{experiment_id}"
            )
            for cell in module.cells(quick=True):
                if cell.workload is not None:
                    workloads.prewarm_workload(*cell.workload)
        workloads._program_cache.clear()
        for jobs in (None, 2):
            workloads._trace_cache.clear()
            metrics_path = tmp_path / f"metrics-{jobs}.jsonl"
            before = workloads.cache_counters()["program_builds"]
            with RunMetrics(metrics_path, progress=False) as metrics:
                for experiment_id in EXPERIMENT_IDS:
                    run_experiment(
                        experiment_id, quick=True, jobs=jobs, metrics=metrics
                    )
            assert workloads.cache_counters()["program_builds"] == before
            cells = [
                record
                for record in map(
                    json.loads, metrics_path.read_text().splitlines()
                )
                if record["event"] == "cell"
            ]
            assert cells
            assert all(record["status"] == "ok" for record in cells)
            assert not any(
                record.get("cache", {}).get("program_builds")
                for record in cells
            )
