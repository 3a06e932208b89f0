"""Span tracing for the benchmark's traced run.

The traced run wraps the program's public entry points, one per layer
boundary, with :meth:`Tracer.span`. Each span records its layer name,
start, end and the span that was open when it began, so a layer's
*self* time is its duration minus the time its child spans cover.
Spans stay in memory until the run ends.

Wrappers are installed by rebinding the entry point wherever a ``repro``
module holds it (``from x import f`` copies the binding), and on the
class for methods; :func:`installed` undoes every rebinding on exit.
The untraced run installs nothing, so it runs the program unchanged.

Pool workers are forked after the wrappers are installed, so they run
the wrappers too. A worker appends its spans and counts to
``worker-<pid>.jsonl`` in the spill directory whenever its outermost
span closes; :func:`read_worker_spills` collects them. Worker spans are
not part of the parent's timeline and are reported separately. Counts a
worker makes after its last outermost span closes are not spilled.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class NoTrace:
    """The tracer of the untraced run: spans cost nothing."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """In-memory span and counter recorder for one process tree."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._worker = False

    def _become_worker(self) -> None:
        # A forked pool worker inherits the parent's open spans; its own
        # spans start a fresh tree that is spilled to disk.
        self._pid = os.getpid()
        self._worker = True
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if os.getpid() != self._pid:
            self._become_worker()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()
            if self._worker and not self._stack:
                self._spill()

    def count(self, name: str, n: int = 1) -> None:
        if os.getpid() != self._pid:
            self._become_worker()
        self.counts[name] += n

    def _spill(self) -> None:
        record = {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"worker-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = Counter()


def read_worker_spills(spill_dir: Path) -> tuple[list[list[Span]], Counter]:
    """Span trees and summed counts spilled by pool workers."""
    trees: list[list[Span]] = []
    counts: Counter[str] = Counter()
    for path in sorted(Path(spill_dir).glob("worker-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            trees.append([Span(*fields) for fields in record["spans"]])
            counts.update(record["counts"])
    return trees, counts


@dataclass
class LayerRow:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_table(spans: list[Span], root: str | None = None) -> dict[str, LayerRow]:
    """Calls, inclusive time and self time per layer name.

    A span nested inside a span of the same layer adds its self time
    but not its duration, so inclusive time is never counted twice.
    With ``root``, only spans under a root span of that name count.
    """
    covered = [0.0] * len(spans)
    roots: list[str] = []
    for span in spans:  # a parent always precedes its children
        if span.parent >= 0:
            covered[span.parent] += span.duration
            roots.append(roots[span.parent])
        else:
            roots.append(span.name)
    rows: dict[str, LayerRow] = {}
    for index, span in enumerate(spans):
        if root is not None and roots[index] != root:
            continue
        row = rows.setdefault(span.name, LayerRow())
        row.calls += 1
        row.self_s += span.duration - covered[index]
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            row.total_s += span.duration
    return rows


def merge_tables(tables) -> dict[str, LayerRow]:
    merged: dict[str, LayerRow] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, LayerRow())
            into.calls += row.calls
            into.total_s += row.total_s
            into.self_s += row.self_s
    return merged


# -- wrappers -----------------------------------------------------------


def _timed(tracer, layer: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return traced


class _Rebinder:
    """Swap objects in module namespaces and class dicts; undo on close."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, replacement)

    def attribute(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def close(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _install(tracer: Tracer, rebind: _Rebinder) -> None:
    from repro.compiler import compile_program
    from repro.evalx.checkpoint import CheckpointStore
    from repro.evalx.parallel import execute_cells
    from repro.sim import functional
    from repro.sim.timing import machine, scan
    from repro.synth import workloads
    from repro.synth.executor import TraceExecutor
    from repro.synth.generator import SyntheticProgramGenerator
    from repro.synth.trace import TaskTrace
    from repro.utils.memo import DerivedColumnCache

    def count_static_tasks(args, compiled):
        tracer.count("compiler.static_tasks", len(compiled.program.tfg))

    def count_executed(args, trace):
        tracer.count("synth.execute_tasks", len(trace))

    def count_bytes(args, result):
        path = str(args[1])
        if not path.endswith(".npz"):
            path += ".npz"  # np.savez appends the suffix
        tracer.count("synth.trace_bytes", os.path.getsize(path))

    plain = [
        (compile_program, "compiler.compile", count_static_tasks),
        (functional.batched_task_prediction_column, "predictors.replay", None),
        (functional.simulate_exit_prediction, "sim.functional.exit", None),
        (
            functional.simulate_indirect_target_prediction,
            "sim.functional.target",
            None,
        ),
        (functional.simulate_task_prediction, "sim.functional.task", None),
        (machine.simulate_timing, "sim.timing.simulate", None),
        (scan.max_plus_timing_scan, "sim.timing.scan", None),
        (execute_cells, "evalx.parallel.execute", None),
        (workloads.prewarm_workload, "evalx.parallel.prewarm", None),
    ]
    for fn, layer, after in plain:
        rebind.function(fn, _timed(tracer, layer, fn, after))

    methods = [
        (SyntheticProgramGenerator, "generate", "synth.generate", None),
        (TraceExecutor, "run", "synth.execute", count_executed),
        (TaskTrace, "save", "synth.trace_save", count_bytes),
        (CheckpointStore, "save", "evalx.checkpoint.save", None),
    ]
    for owner, name, layer, after in methods:
        rebind.attribute(
            owner, name, _timed(tracer, layer, owner.__dict__[name], after)
        )
    load = TaskTrace.__dict__["load"].__func__
    rebind.attribute(
        TaskTrace, "load", classmethod(_timed(tracer, "synth.trace_load", load))
    )

    original_get = DerivedColumnCache.get

    def traced_get(self, anchors, tag, build):
        built = False

        def timed_build():
            nonlocal built
            built = True
            with tracer.span("utils.memo.build"):
                return build()

        value = original_get(self, anchors, tag, timed_build)
        tracer.count("utils.memo.misses" if built else "utils.memo.hits")
        return value

    rebind.attribute(DerivedColumnCache, "get", traced_get)

    from repro.evalx.registry import EXPERIMENT_IDS

    for experiment_id in EXPERIMENT_IDS:
        module = sys.modules.get(f"repro.evalx.experiments.{experiment_id}")
        if module is not None:
            rebind.attribute(
                module,
                "combine",
                _timed(tracer, "evalx.combine", module.combine),
            )


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    rebind = _Rebinder()
    try:
        _install(tracer, rebind)
        yield tracer
    finally:
        rebind.close()
