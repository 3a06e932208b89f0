"""The benchmark's three workloads, built on the program's public API.

Each workload has the same shape:

* ``prepare()`` makes inputs that are built once and reused by later
  runs (Table 4 traces per seed, the quick-run trace cache per
  checkout). It runs in a separate process, so its memory never counts
  towards the measured run. It is not part of ``setup_s``.
* ``setup()`` makes this run's inputs ready. It is timed, repeated, and
  reported as ``setup_s``.
* ``run_pass(inputs, tracer)`` does one timed pass and returns a
  :class:`PassResult`. The first pass over fresh inputs is a cold pass.
  ``warm_state`` is true when later passes over the same inputs find
  warm caches (Table 4's derived columns); only those passes are then
  steady state. Otherwise every pass starts cold and all are steady.
* ``check(inputs, passes)`` verifies the outputs outside the timed
  region and raises :class:`CorrectnessError` on any mismatch.

Simulated statistics (IPC, mispredicts, trace contents) are checked,
never reported as metrics: a change that only speeds the program up
must leave them identical.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import compiler
from repro.compiler import PartitionConfig
from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.experiments.common import DEPTH7_16KB_SPEC, SMALL_CTTB_SPEC
from repro.evalx.metrics import RunMetrics
from repro.evalx.registry import EXPERIMENT_IDS, run_experiment
from repro.predictors.exit_predictors import (
    GlobalExitPredictor,
    PathExitPredictor,
    PerTaskExitPredictor,
    SimpleExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.task_predictor import (
    HeaderTaskPredictor,
    PerfectTaskPredictor,
)
from repro.predictors.ttb import CorrelatedTaskTargetBuffer
from repro.sim import timing
from repro.synth.executor import TraceExecutor
from repro.synth.generator import GENERATOR_VERSION, SyntheticProgramGenerator
from repro.synth.profiles import BENCHMARK_NAMES, BenchmarkProfile, get_profile
from repro.synth.trace import TaskTrace
from repro.synth.workloads import Workload, cache_counters, clear_caches

from measure import OpLog

#: The seed whose outputs are pinned by digests in ``digests.json``.
DEFAULT_SEED = 0

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Table 4's schemes, in the paper's column order.
SCHEMES = ("Simple", "GLOBAL", "PER", "PATH", "Perfect")

_TRACE_COLUMNS = (
    "task_addr",
    "exit_index",
    "cf_type",
    "next_addr",
    "instructions",
    "internal_branches",
    "internal_mispredicts",
)


class CorrectnessError(RuntimeError):
    """An output differs from its reference; the run must fail."""


@dataclass
class PassResult:
    wall_s: float
    ops: OpLog
    tasks: int
    outputs: object = None
    #: Per-layer figures that are not spans (worker cells, cache counters).
    layers: dict[str, float] = field(default_factory=dict)
    #: Whether this was the first pass over freshly set-up inputs.
    cold: bool = False
    #: Converts this pass's host times to the reference machine speed.
    scale: float = 1.0


@contextmanager
def timed_region(tracer):
    """The timed region of one pass: a root span plus a wall clock."""
    clock = {}
    with tracer.span("bench.pass"):
        start = time.perf_counter()
        try:
            yield clock
        finally:
            clock["wall_s"] = time.perf_counter() - start


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def digest_of(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def trace_digest(trace: TaskTrace) -> str:
    """SHA-256 over the program name and every column's dtype and bytes."""
    digest = hashlib.sha256(trace.program_name.encode("utf-8"))
    for name in _TRACE_COLUMNS:
        column = np.ascontiguousarray(getattr(trace, name))
        digest.update(f"\n{name}:{column.dtype.str}:{column.shape}\n".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def reseeded(names, seed: int) -> list[BenchmarkProfile]:
    """Profiles with ``seed`` added to each calibrated seed (as ext_seeds)."""
    profiles = []
    for name in names:
        profile = get_profile(name)
        profiles.append(replace(profile, seed=profile.seed + seed))
    return profiles


def compile_for(profile: BenchmarkProfile, program_cfg):
    return compiler.compile_program(
        program_cfg,
        name=profile.name,
        config=PartitionConfig(max_blocks_per_task=profile.max_blocks_per_task),
    )


def build_program(profile: BenchmarkProfile):
    """Generate and compile one profile's program."""
    return compile_for(profile, SyntheticProgramGenerator(profile).generate())


def execute(profile: BenchmarkProfile, compiled, n_tasks: int) -> TaskTrace:
    return TraceExecutor(
        compiled, seed=profile.seed, phase_period=profile.phase_period
    ).run(n_tasks)


def make_predictor(scheme: str, workload: Workload):
    """Table 4's predictor for ``scheme``: 16KB PHT, depth 7, CTTB + RAS."""
    if scheme == "Perfect":
        return PerfectTaskPredictor(workload.trace)
    if scheme == "Simple":
        exit_predictor = SimpleExitPredictor(index_bits=15)
    elif scheme == "GLOBAL":
        exit_predictor = GlobalExitPredictor(depth=7, index_bits=15)
    elif scheme == "PER":
        exit_predictor = PerTaskExitPredictor(depth=7, index_bits=15)
    else:
        exit_predictor = PathExitPredictor(DolcSpec.parse(DEPTH7_16KB_SPEC))
    return HeaderTaskPredictor(
        program=workload.compiled.program,
        exit_predictor=exit_predictor,
        cttb=CorrelatedTaskTargetBuffer(DolcSpec.parse(SMALL_CTTB_SPEC)),
        ras=ReturnAddressStack(depth=32),
    )


def _run_python(code: str, stdin: bytes = b"") -> None:
    """Run ``code`` in a fresh interpreter on this ``sys.path``; wait for it.

    A plain child process, not ``multiprocessing``: a spawned
    ``multiprocessing`` child starts a resource-tracker process that
    outlives the run.
    """
    subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def run_isolated(target, *args) -> None:
    """Run ``target(*args)`` in a fresh interpreter and wait for it."""
    _run_python(
        "import pickle, sys\n"
        "target, args = pickle.load(sys.stdin.buffer)\n"
        "target(*args)",
        pickle.dumps((target, args)),
    )


def import_probe(modules) -> None:
    """Import ``modules`` in a fresh interpreter: the start-up a user pays."""
    _run_python(
        "import importlib\nfor m in %r: importlib.import_module(m)"
        % (list(modules),)
    )


def _publish_dir(tmp: Path, final: Path) -> None:
    os.replace(tmp, final)
    (final / "READY").write_text("ok\n")


# -- table4_sweep ---------------------------------------------------------


def _write_traces(profiles, n_tasks: int, target: str) -> None:
    tmp = Path(f"{target}.tmp-{os.getpid()}")
    tmp.mkdir(parents=True)
    for profile in profiles:
        trace = execute(profile, build_program(profile), n_tasks)
        trace.save(tmp / f"{profile.name}.npz")
    _publish_dir(tmp, Path(target))


class Table4Sweep:
    """Table 4: 5 reseeded profiles x 5 schemes through the timing model.

    One cold pass over freshly loaded traces and freshly built programs,
    then warm passes over the same objects, whose derived-column caches
    are by then full.
    """

    name = "table4_sweep"
    warm_state = True
    prefix = 4000  # tasks replayed through the stepped reference
    import_modules = ("repro.sim.timing", "repro.synth.workloads")

    def __init__(
        self, seed: int, work_dir: Path, n_tasks: int = 300_000,
        names=BENCHMARK_NAMES,
    ) -> None:
        self.seed = seed
        self.n_tasks = n_tasks
        self.profiles = reseeded(names, seed)
        key = digest_of((GENERATOR_VERSION, self.profiles, n_tasks))[:12]
        self.trace_dir = Path(work_dir) / "table4" / f"seed{seed}-{key}"
        defaults = (DEFAULT_SEED, 300_000, BENCHMARK_NAMES)
        self.pinned = (seed, n_tasks, tuple(names)) == defaults

    def prepare(self) -> None:
        if not (self.trace_dir / "READY").exists():
            shutil.rmtree(self.trace_dir, ignore_errors=True)
            run_isolated(
                _write_traces, self.profiles, self.n_tasks, str(self.trace_dir)
            )

    def setup(self) -> list[Workload]:
        workloads = []
        for profile in self.profiles:
            compiled = build_program(profile)
            trace = TaskTrace.load(self.trace_dir / f"{profile.name}.npz")
            addresses = [task.address for task in compiled.program.tfg]
            if len(trace) != self.n_tasks or not np.isin(
                trace.task_addr, addresses
            ).all():
                raise CorrectnessError(
                    f"prepared {profile.name} trace does not match its program"
                )
            workloads.append(Workload(profile, compiled, trace))
        return workloads

    def run_pass(self, workloads, tracer) -> PassResult:
        ops = OpLog()
        results = {}
        with timed_region(tracer) as clock:
            for workload in workloads:
                for scheme in SCHEMES:
                    _, results[(workload.name, scheme)] = ops.run(
                        lambda: timing.simulate_timing(
                            workload, make_predictor(scheme, workload)
                        )
                    )
        tasks = sum(len(w.trace) for w in workloads) * len(SCHEMES)
        return PassResult(clock["wall_s"], ops, tasks, results)

    def check(self, workloads, passes) -> None:
        cold = passes[0].outputs
        if any(p.outputs != cold for p in passes[1:]):
            raise CorrectnessError(
                "table4_sweep: a pass differs from the first cold pass"
            )
        for workload in workloads:
            for scheme in SCHEMES:
                stepped = timing.simulate_timing(
                    workload, make_predictor(scheme, workload),
                    limit=self.prefix, vectorize=False,
                )
                fast = timing.simulate_timing(
                    workload, make_predictor(scheme, workload),
                    limit=self.prefix,
                )
                if stepped != fast:
                    raise CorrectnessError(
                        f"table4_sweep: {workload.name}:{scheme} differs from "
                        f"the stepped reference on the first {self.prefix} tasks"
                    )
        if self.pinned:
            expected = load_digests()[self.name]
            if self.digest(cold) != expected:
                raise CorrectnessError(
                    f"table4_sweep: results digest {self.digest(cold)} != "
                    f"recorded {expected}"
                )

    @staticmethod
    def digest(results) -> str:
        return digest_of(sorted(results.items()))


# -- cold_synth -------------------------------------------------------------


class ColdSynth:
    """Generate, compile and execute the reseeded profiles with no cache,
    then save and reload each trace.

    Each of the five stages of each profile is one operation, so a pass
    gives 25 latency samples.
    """

    name = "cold_synth"
    warm_state = False
    import_modules = ("repro.compiler", "repro.synth.executor", "repro.synth.trace")

    def __init__(
        self, seed: int, work_dir: Path, n_tasks: int = 100_000,
        names=BENCHMARK_NAMES,
    ) -> None:
        self.seed = seed
        self.n_tasks = n_tasks
        self.names = tuple(names)
        self.out_dir = Path(work_dir) / "cold_synth"
        defaults = (DEFAULT_SEED, 100_000, BENCHMARK_NAMES)
        self.pinned = (seed, n_tasks, self.names) == defaults

    def prepare(self) -> None:
        pass

    def setup(self) -> list[BenchmarkProfile]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        return reseeded(self.names, self.seed)

    def _synthesize(self, profile, ops: OpLog):
        """The built and the reloaded trace, or None if a stage failed."""
        path = self.out_dir / f"{profile.name}.npz"
        ok, program_cfg = ops.run(SyntheticProgramGenerator(profile).generate)
        if not ok:
            return None
        ok, compiled = ops.run(lambda: compile_for(profile, program_cfg))
        if not ok:
            return None
        ok, trace = ops.run(lambda: execute(profile, compiled, self.n_tasks))
        if not ok:
            return None
        ok, _ = ops.run(lambda: trace.save(path))
        if not ok:
            return None
        ok, loaded = ops.run(lambda: TaskTrace.load(path))
        return (trace, loaded) if ok else None

    def run_pass(self, profiles, tracer) -> PassResult:
        ops = OpLog()
        with timed_region(tracer) as clock:
            pairs = [self._synthesize(profile, ops) for profile in profiles]
        digests = [
            None if pair is None else tuple(map(trace_digest, pair))
            for pair in pairs
        ]
        tasks = self.n_tasks * len(profiles)
        return PassResult(clock["wall_s"], ops, tasks, digests)

    def check(self, profiles, passes) -> None:
        first = passes[0].outputs
        for result in passes:
            for profile, pair in zip(profiles, result.outputs):
                if pair is not None and pair[0] != pair[1]:
                    raise CorrectnessError(
                        f"cold_synth: reloaded {profile.name} trace differs "
                        "from the trace that was built"
                    )
            if result.outputs != first:
                raise CorrectnessError("cold_synth: passes built different traces")
        if self.pinned:
            expected = load_digests()[self.name]
            if self.digest(first) != expected:
                raise CorrectnessError(
                    f"cold_synth: trace digest {self.digest(first)} != "
                    f"recorded {expected}"
                )

    @staticmethod
    def digest(pairs) -> str:
        return digest_of([pair[1] for pair in pairs])


# -- paper_quick_jobs2 --------------------------------------------------------


@contextmanager
def _environ(name: str, value: str):
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _fill_trace_cache(target: str) -> None:
    tmp = Path(f"{target}.tmp-{os.getpid()}")
    with _environ("REPRO_CACHE_DIR", str(tmp)):
        for experiment_id in EXPERIMENT_IDS:
            run_experiment(experiment_id, quick=True)
    _publish_dir(tmp, Path(target))


_CACHE_KEYS = (
    "program_builds", "trace_builds", "trace_disk_hits", "trace_memory_hits",
)


class PaperQuickJobs2:
    """``evalx all --quick --jobs 2``: the 11 paper experiments.

    Each pass drops the in-process program and trace caches, so it pays
    what a fresh ``evalx`` process pays over a warm on-disk trace cache.
    The experiments load calibrated profiles by name: the seed does not
    change the inputs.
    """

    name = "paper_quick_jobs2"
    warm_state = False
    import_modules = ("repro.evalx.registry",) + tuple(
        f"repro.evalx.experiments.{e}" for e in EXPERIMENT_IDS
    )

    def __init__(self, seed: int, work_dir: Path, jobs: int | None = 2) -> None:
        self.jobs = jobs
        self.work_dir = Path(work_dir) / "paper_quick"
        self.cache_dir = self.work_dir / "trace-cache"

    def prepare(self) -> None:
        if not (self.cache_dir / "READY").exists():
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.work_dir.mkdir(parents=True, exist_ok=True)
            run_isolated(_fill_trace_cache, str(self.cache_dir))

    def setup(self) -> int:
        for module in self.import_modules:
            importlib.import_module(module)
        if not (self.cache_dir / "READY").exists():
            raise CorrectnessError("paper_quick_jobs2: trace cache not prepared")
        tasks = 0
        for experiment_id in EXPERIMENT_IDS:
            module = sys.modules[f"repro.evalx.experiments.{experiment_id}"]
            tasks += sum(
                cell.workload[1] for cell in module.cells(quick=True)
            )
        return tasks  # dynamic tasks the cells replay per pass

    def run_pass(self, tasks: int, tracer) -> PassResult:
        clear_caches()
        metrics_path = self.work_dir / "metrics.jsonl"
        store_dir = self.work_dir / "checkpoints"
        metrics_path.unlink(missing_ok=True)
        shutil.rmtree(store_dir, ignore_errors=True)
        texts: dict[str, str | None] = {}
        ops = OpLog()
        before = cache_counters()
        with _environ("REPRO_CACHE_DIR", str(self.cache_dir)):
            with timed_region(tracer) as clock:
                with RunMetrics(metrics_path, progress=False) as metrics:
                    store = CheckpointStore(store_dir)
                    for experiment_id in EXPERIMENT_IDS:
                        with tracer.span(f"evalx.experiment.{experiment_id}"):
                            try:
                                texts[experiment_id] = run_experiment(
                                    experiment_id, quick=True, jobs=self.jobs,
                                    keep_going=True, metrics=metrics,
                                    checkpoint=store,
                                ).text
                            except Exception as exc:
                                print(
                                    f"{experiment_id} failed: {exc!r}",
                                    file=sys.stderr,
                                )
                                texts[experiment_id] = None
                                ops.add(0.0, ok=False)
        after = cache_counters()
        records = [
            json.loads(line)
            for line in metrics_path.read_text(encoding="utf-8").splitlines()
        ]
        cells = [r for r in records if r["event"] == "cell"]
        for record in cells:
            if record["final"]:
                ops.add(record["wall_seconds"] * 1e3, record["status"] == "ok")
        layers = {
            "evalx.parallel.cell_busy_s": sum(r["wall_seconds"] for r in cells),
            "evalx.parallel.retries": sum(not r["final"] for r in cells),
            "evalx.parallel.failed_cells": sum(
                r["final"] and r["status"] != "ok" for r in cells
            ),
        }
        for key in _CACHE_KEYS:
            worker = sum(
                r.get("cache", {}).get(key, 0)
                for r in cells
                if r.get("worker_pid") != os.getpid()
            )
            layers[f"synth.workloads.{key}"] = after[key] - before[key] + worker
        return PassResult(clock["wall_s"], ops, tasks, texts, layers)

    def check(self, tasks, passes) -> None:
        expected = load_digests()[self.name]
        for result in passes:
            for experiment_id in EXPERIMENT_IDS:
                text = result.outputs.get(experiment_id)
                actual = None if text is None else digest_of(text)
                if actual != expected[experiment_id]:
                    raise CorrectnessError(
                        f"paper_quick_jobs2: {experiment_id} text digest "
                        f"{actual} != recorded {expected[experiment_id]}"
                    )

    @staticmethod
    def digest(texts) -> dict[str, str]:
        return {key: digest_of(text) for key, text in texts.items()}


WORKLOADS = {
    cls.name: cls for cls in (Table4Sweep, ColdSynth, PaperQuickJobs2)
}
