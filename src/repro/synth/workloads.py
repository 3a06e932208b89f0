"""Workload construction and caching.

`load_workload("gcc")` is the one-stop entry point used by examples, tests
and the experiment harness: it generates the profile's synthetic program,
compiles it to tasks, executes it to the requested trace length, and caches
the trace with its program's task headers in memory (per process) and on
disk (under ``.repro-cache/``) so repeated experiment runs don't
regenerate. The simulators read only the trace and the headers, so a warm
disk entry serves a workload without building its program at all.
"""

from __future__ import annotations

import os
import re
import time
import zlib
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from repro.compiler import PartitionConfig, compile_program
from repro.errors import TraceError
from repro.compiler.compiled import CompiledProgram
from repro.isa.headers import HeaderTable
from repro.synth.executor import TraceExecutor
from repro.synth.generator import (
    GENERATOR_VERSION,
    SyntheticProgramGenerator,
)
from repro.synth.profiles import BenchmarkProfile, get_profile
from repro.synth.trace import TaskTrace
from repro.utils.hashing import stable_hash

#: Set the REPRO_CACHE_DIR environment variable to move the trace cache.
_CACHE_ENV = "REPRO_CACHE_DIR"

#: Set by the experiment engine while a checkpoint store is active
#: (see :mod:`repro.evalx.checkpoint`), so the prewarm sweep can reap
#: orphaned record temp files left by killed runs.
CHECKPOINT_ENV = "REPRO_CHECKPOINT_DIR"

#: Cache-entry layout, part of the file name so no other layout is read:
#: ``th1`` is the trace plus its program's header columns.
_ENTRY_FORMAT = "th1"


class Workload:
    """A ready-to-simulate workload: profile, trace and task headers.

    The simulators read only ``trace`` and ``headers``; ``compiled``,
    when not given, is built from ``profile`` on first access.
    """

    def __init__(
        self,
        profile: BenchmarkProfile,
        compiled: CompiledProgram | None,
        trace: TaskTrace,
        headers: HeaderTable | None = None,
    ) -> None:
        self.profile = profile
        self.trace = trace
        self._compiled = compiled
        self._headers = headers

    @property
    def name(self) -> str:
        """Benchmark name (profile name)."""
        return self.profile.name

    @property
    def compiled(self) -> CompiledProgram:
        """The compiled program, built from ``profile`` on first access."""
        if self._compiled is None:
            self._compiled = _compile(self.profile)
        return self._compiled

    @property
    def headers(self) -> HeaderTable:
        """The task headers: the stored table, else the compiled program's."""
        if self._headers is None:
            self._headers = HeaderTable.of(self.compiled.program)
        return self._headers


_program_cache: dict[BenchmarkProfile, CompiledProgram] = {}
_trace_cache: dict[tuple[str, int], tuple[TaskTrace, HeaderTable]] = {}

#: Monotonically increasing per-process cache accounting. The parallel
#: scheduler snapshots these around each cell and reports the deltas in
#: its metrics stream, so a run shows where trace generation actually
#: happened (parent prewarm vs worker regeneration).
_cache_stats = {
    "program_memory_hits": 0,
    "program_builds": 0,
    "trace_memory_hits": 0,
    "trace_disk_hits": 0,
    "trace_builds": 0,
    "orphan_tmp_reaps": 0,
}


def cache_counters() -> dict[str, int]:
    """Snapshot of this process's workload-cache hit/miss counters."""
    return dict(_cache_stats)


def build_program(name: str) -> CompiledProgram:
    """Generate and compile the named benchmark's program (memoised)."""
    return _compile(get_profile(name))


def _compile(profile: BenchmarkProfile) -> CompiledProgram:
    """Generate and compile ``profile``'s program (memoised per profile)."""
    compiled = _program_cache.get(profile)
    if compiled is not None:
        _cache_stats["program_memory_hits"] += 1
        return compiled
    _cache_stats["program_builds"] += 1
    program_cfg = SyntheticProgramGenerator(profile).generate()
    compiled = compile_program(
        program_cfg,
        name=profile.name,
        config=PartitionConfig(
            max_blocks_per_task=profile.max_blocks_per_task
        ),
    )
    _program_cache[profile] = compiled
    return compiled


def _cache_dir() -> Path | None:
    """Directory for on-disk trace caching, or None to disable.

    Defaults to ``.repro-cache`` in the working directory; set
    ``REPRO_CACHE_DIR=off`` to disable.
    """
    configured = os.environ.get(_CACHE_ENV, ".repro-cache")
    if configured.lower() in ("off", "none", ""):
        return None
    return Path(configured)


def disk_cache_enabled() -> bool:
    """Whether traces are persisted to disk (see ``REPRO_CACHE_DIR``)."""
    return _cache_dir() is not None


#: Temp files from a process killed mid-publish: trace-cache writers
#: leave ``.{stem}.tmp-{pid}.npz`` (see :func:`_save_cached`), the
#: checkpoint store leaves ``.{fingerprint}.tmp-{pid}`` (see
#: :mod:`repro.evalx.checkpoint`).
_TMP_NAME = re.compile(r"^\..+\.tmp-(\d+)(?:\.npz)?$")

#: A temp file older than this is orphaned even if its pid was recycled.
_TMP_MAX_AGE_SECONDS = 3600.0


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but isn't ours
    return True


def sweep_orphan_tmp_files(cache_dir: Path | None = None) -> list[Path]:
    """Delete stale ``.tmp-<pid>`` leftovers from an atomic-write dir.

    A process killed between writing its temp file and ``os.replace``
    leaves the temp behind forever; without this sweep they accumulate
    one per crashed pid. Applies to both trace-cache entries and
    checkpoint records — the two stores share the write-to-tmp
    discipline and the temp naming scheme. A temp file is orphaned when
    its owning pid is dead, or when it is older than an hour
    (pid-recycling guard). Files being written right now belong to live
    pids and are recent, so they are never touched. Returns the paths
    removed; the count lands in the ``orphan_tmp_reaps`` cache counter.
    """
    if cache_dir is None:
        cache_dir = _cache_dir()
    if cache_dir is None or not cache_dir.is_dir():
        return []
    removed: list[Path] = []
    for tmp_path in cache_dir.iterdir():
        match = _TMP_NAME.match(tmp_path.name)
        if match is None:
            continue
        try:
            age = time.time() - tmp_path.stat().st_mtime
        except OSError:
            continue  # already gone (concurrent sweep)
        if _pid_alive(int(match.group(1))) and age < _TMP_MAX_AGE_SECONDS:
            continue
        try:
            tmp_path.unlink()
            removed.append(tmp_path)
        except OSError:
            pass
    _cache_stats["orphan_tmp_reaps"] += len(removed)
    return removed


def _checkpoint_dir() -> Path | None:
    """The active checkpoint store directory, if any (env-published)."""
    configured = os.environ.get(CHECKPOINT_ENV, "")
    return Path(configured) if configured else None


def prewarm_workload(name: str, n_tasks: int | None = None) -> str:
    """Generate one workload and publish its trace to the disk cache.

    The parallel experiment scheduler runs this once per distinct
    (benchmark, length) before fanning cells out, so worker processes
    find warm cache entries instead of each regenerating the same trace.
    Also sweeps orphaned temp files left by killed processes — in the
    trace cache and, when a checkpoint store is active, in its record
    directory too. Returns the benchmark name.
    """
    sweep_orphan_tmp_files()
    checkpoint_dir = _checkpoint_dir()
    if checkpoint_dir is not None:
        sweep_orphan_tmp_files(checkpoint_dir)
    load_workload(name, n_tasks)
    return name


def load_workload(name: str, n_tasks: int | None = None) -> Workload:
    """Return the named benchmark workload with an ``n_tasks``-long trace.

    ``n_tasks`` defaults to the profile's ``default_dynamic_tasks``. The
    trace and its program's headers are cached in memory and on disk,
    keyed by (benchmark, length, seed); a hit builds no program.
    """
    profile = get_profile(name)
    if n_tasks is None:
        n_tasks = profile.default_dynamic_tasks
    entry = _trace_cache.get((name, n_tasks))
    if entry is not None:
        _cache_stats["trace_memory_hits"] += 1
    else:
        entry = _load_or_run(profile, n_tasks)
        _trace_cache[(name, n_tasks)] = entry
    trace, headers = entry
    return Workload(profile, _program_cache.get(profile), trace, headers)


def _profile_fingerprint(profile: BenchmarkProfile) -> str:
    """Cache-key component covering every generation-relevant input.

    Any profile parameter change or generator semantics change must miss
    the cache, otherwise stale traces would disagree with the regenerated
    program's task addresses.
    """
    return format(
        stable_hash(f"v{GENERATOR_VERSION}:{profile!r}") & 0xFFFF_FFFF, "08x"
    )


def _trace_matches_program(trace: TaskTrace, headers: HeaderTable) -> bool:
    """Cheap consistency check: every traced task has a stored header."""
    return bool(np.isin(trace.task_addr, headers.addrs).all())


def _try_load_cached(
    cache_path: Path,
) -> tuple[TaskTrace, HeaderTable] | None:
    """Load a cached trace and headers, treating any damage as a miss.

    A parallel run killed mid-write (before atomic writes existed) or a
    truncated disk can leave an unreadable ``.npz``; regenerating is
    always safe, so corruption must never crash an experiment.
    """
    if not cache_path.exists():
        return None
    columns: dict[str, np.ndarray] = {}
    try:
        trace = TaskTrace.load(cache_path, extra=columns)
        headers = HeaderTable.from_columns(columns)
    except (OSError, ValueError, EOFError, KeyError, BadZipFile, zlib.error,
            TraceError):
        pass  # torn, damaged, or written without the header columns
    else:
        if _trace_matches_program(trace, headers):
            return trace, headers
    try:
        cache_path.unlink()  # corrupt, or stale from an older build
    except OSError:
        pass  # another process already replaced or removed it
    return None


def _save_cached(
    trace: TaskTrace, headers: HeaderTable, cache_path: Path
) -> None:
    """Publish a trace and its headers to the disk cache atomically.

    The entry is written to a same-directory temp file and moved into
    place with ``os.replace``, so concurrent workers generating the same
    workload can never observe a half-written cache entry — the worst
    case is redundant generation, last writer wins. The temp name keeps
    the ``.npz`` suffix because ``np.savez`` appends one otherwise.
    """
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = cache_path.with_name(
        f".{cache_path.stem}.tmp-{os.getpid()}.npz"
    )
    try:
        trace.save(tmp_path, extra=headers.columns())
        os.replace(tmp_path, cache_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


def trace_cache_path(name: str, n_tasks: int | None = None) -> Path | None:
    """Disk-cache entry path for a (benchmark, length), or None if off.

    The file may or may not exist; this only computes where it lives.
    Used by cache-hygiene tooling and the fault injector's
    ``corrupt-trace`` action.
    """
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    profile = get_profile(name)
    if n_tasks is None:
        n_tasks = profile.default_dynamic_tasks
    return cache_dir / (
        f"{profile.name}-{_profile_fingerprint(profile)}"
        f"-s{profile.seed}-n{n_tasks}-{_ENTRY_FORMAT}.npz"
    )


def _load_or_run(
    profile: BenchmarkProfile, n_tasks: int
) -> tuple[TaskTrace, HeaderTable]:
    cache_path = trace_cache_path(profile.name, n_tasks)
    if cache_path is not None:
        cached = _try_load_cached(cache_path)
        if cached is not None:
            _cache_stats["trace_disk_hits"] += 1
            return cached
    _cache_stats["trace_builds"] += 1
    # A miss executes the program, so only a miss needs one built.
    compiled = _compile(profile)
    headers = HeaderTable.of(compiled.program)
    executor = TraceExecutor(
        compiled,
        seed=profile.seed,
        phase_period=profile.phase_period,
    )
    trace = executor.run(n_tasks)
    if cache_path is not None:
        _save_cached(trace, headers, cache_path)
    return trace, headers


def clear_caches() -> None:
    """Drop the in-memory program and trace caches (tests use this)."""
    _program_cache.clear()
    _trace_cache.clear()
