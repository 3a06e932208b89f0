"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table4_sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes the same untraced measurement, then sets up once
more and makes a fixed number of passes with span wrappers installed,
and reports the per-layer metrics: layer tables whose self times, plus
the unattributed time, add up to the traced region's wall time. The
per-layer totals include the traced set-up.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object; everything above it is for people.
The command exits non-zero, without that line, when any output fails
its correctness check.

``--record-digests`` recomputes ``perfbench/digests.json`` from the
default seed (and, for the quick paper run, a serial ``jobs=None`` run).
Use it only when a change is meant to alter simulated outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"
SETUP_REPEATS = 3

#: Per-layer metrics read straight from the span tables.
SPAN_TOTALS = {
    "synth.generate_s": "synth.generate",
    "compiler.compile_s": "compiler.compile",
    "synth.execute_s": "synth.execute",
    "synth.trace_save_s": "synth.trace_save",
    "synth.trace_load_s": "synth.trace_load",
    "predictors.replay_s": "predictors.replay",
    "utils.memo.build_s": "utils.memo.build",
    "sim.timing.simulate_s": "sim.timing.simulate",
    "sim.timing.scan_s": "sim.timing.scan",
    "sim.functional.exit_s": "sim.functional.exit",
    "sim.functional.target_s": "sim.functional.target",
    "sim.functional.task_s": "sim.functional.task",
    "evalx.parallel.execute_s": "evalx.parallel.execute",
    "evalx.parallel.prewarm_s": "evalx.parallel.prewarm",
    "evalx.checkpoint.save_s": "evalx.checkpoint.save",
    "evalx.combine_s": "evalx.combine",
}
SPAN_CALLS = {
    "predictors.replay_calls": "predictors.replay",
    "sim.timing.scan_calls": "sim.timing.scan",
    "evalx.checkpoint.saves": "evalx.checkpoint.save",
}
COUNTS = (
    "compiler.static_tasks",
    "synth.execute_tasks",
    "synth.trace_bytes",
    "utils.memo.hits",
    "utils.memo.misses",
)
PASS_LAYERS = (
    "synth.workloads.program_builds",
    "synth.workloads.trace_builds",
    "synth.workloads.trace_disk_hits",
    "evalx.parallel.cell_busy_s",
    "evalx.parallel.retries",
    "evalx.parallel.failed_cells",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def steady_passes(workload, passes) -> list:
    """Passes that count for ``wall_s`` and the latency percentiles."""
    if workload.warm_state:
        return [p for p in passes if not p.cold]
    return passes


def measure(workload, probes, seconds: float) -> tuple[list, list, object]:
    """Set up once per probe, each set-up followed by a cold pass, then
    pass over the last inputs until ``seconds`` have passed and the steady
    passes hold enough latency samples for the p90 rule.

    ``probes`` are ``(seconds, scale)`` pairs from :func:`measure.timed`.
    Returns the set-up times (probe plus in-process set-up, at the
    reference speed), the passes and the last inputs.
    """
    from measure import min_samples, timed
    from spans import NoTrace

    def one_pass(inputs):
        result, _, scale = timed(lambda: workload.run_pass(inputs, NoTrace()))
        result.scale = scale
        return result

    start = time.perf_counter()
    setup_times, passes = [], []
    for probe_s, probe_scale in probes:
        inputs, setup_s, scale = timed(workload.setup)
        setup_times.append(probe_s * probe_scale + setup_s * scale)
        passes.append(one_pass(inputs))
        passes[-1].cold = True
    while time.perf_counter() - start < seconds or sum(
        len(p.ops.latencies_ms) for p in steady_passes(workload, passes)
    ) < min_samples(90):
        passes.append(one_pass(inputs))
        if not passes[-1].ops.latencies_ms:
            break  # every operation failed: more passes cannot help
    return setup_times, passes, inputs


def end_to_end(workload, setup_times, passes, peak_mb) -> tuple[dict, list[str]]:
    """The end-to-end metrics; times are at the reference machine speed."""
    from measure import TooFewSamples, percentile

    steady = steady_passes(workload, passes)
    cold = [p.wall_s * p.scale for p in passes if p.cold]
    wall = median(p.wall_s * p.scale for p in steady)
    latencies = [ms * p.scale for p in steady for ms in p.ops.latencies_ms]
    attempted = sum(p.ops.attempted for p in passes)
    failed = sum(p.ops.failed for p in passes)
    values = {
        "setup_s": median(setup_times),
        "wall_s": wall,
        "cold_pass_s": median(cold),
        "sim_tasks_per_s": steady[0].tasks / wall,
        "peak_rss_mb": peak_mb,
        "success_rate": 1.0 - failed / attempted,
    }
    notes = [
        "set-ups (s, reference speed): "
        + " ".join(f"{t:.3f}" for t in setup_times),
        "passes (host s / speed factor, * = cold): "
        + " ".join(
            f"{p.wall_s:.3f}/{p.scale:.2f}{'*' if p.cold else ''}"
            for p in passes
        ),
        f"host seconds: wall {median(p.wall_s for p in steady):.4f}, cold "
        f"{median(p.wall_s for p in passes if p.cold):.4f}",
        f"operations: {attempted} attempted, {failed} failed; "
        f"{len(latencies)} latency samples from {len(steady)} steady passes",
    ]
    for q in (50, 90):
        try:
            values[f"op_p{q}_ms"] = percentile(latencies, q)
        except TooFewSamples as exc:
            raise RuntimeError(f"op_p{q}_ms not reportable: {exc}") from exc
    return values, notes


def traced_run(workload, passes, spill_dir: Path):
    """Trace the passes of one fresh set-up and build the layer report.

    The traced passes are one cold pass plus, for a workload with warm
    state, one warm pass; they must reproduce the outputs of the
    untraced ``passes``. Per-layer times are host seconds. Returns the
    per-layer metrics and the report lines.
    """
    from spans import Tracer, installed, layer_table, merge_tables
    from spans import read_worker_spills
    from workloads import CorrectnessError

    shutil.rmtree(spill_dir, ignore_errors=True)
    tracer = Tracer(spill_dir)
    with installed(tracer):
        with tracer.span("bench.setup"):
            inputs = workload.setup()
        traced = [
            workload.run_pass(inputs, tracer)
            for _ in range(2 if workload.warm_state else 1)
        ]
    if any(result.outputs != passes[0].outputs for result in traced):
        raise CorrectnessError(f"{workload.name}: tracing changed the outputs")

    parent = layer_table(tracer.spans, root="bench.pass")
    setup = layer_table(tracer.spans, root="bench.setup")
    trees, worker_counts = read_worker_spills(spill_dir)
    workers = merge_tables(layer_table(tree) for tree in trees)
    both = merge_tables([parent, setup, workers])
    counts = tracer.counts + worker_counts
    layers = {
        name: sum(p.layers.get(name, 0) for p in traced)
        for name in PASS_LAYERS + ("synth.workloads.trace_memory_hits",)
    }
    region = parent["bench.pass"].total_s
    unattributed = parent["bench.pass"].self_s
    untraced = median(p.wall_s for p in passes if p.cold) + (
        (len(traced) - 1) * median(p.wall_s for p in steady_passes(workload, passes))
    )

    def total(layer):
        return both[layer].total_s if layer in both else 0.0

    values = {name: total(layer) for name, layer in SPAN_TOTALS.items()}
    values.update(
        {name: both[layer].calls if layer in both else 0
         for name, layer in SPAN_CALLS.items()}
    )
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values.update({name: layers[name] for name in PASS_LAYERS})
    values["sim.timing.self_s"] = (
        both["sim.timing.simulate"].self_s if "sim.timing.simulate" in both else 0.0
    )
    values["utils.memo.hit_ratio"] = _ratio(
        counts.get("utils.memo.hits", 0),
        counts.get("utils.memo.hits", 0) + counts.get("utils.memo.misses", 0),
    )
    hits = (
        layers["synth.workloads.trace_memory_hits"]
        + layers["synth.workloads.trace_disk_hits"]
    )
    values["synth.workloads.trace_hit_ratio"] = _ratio(
        hits, hits + layers["synth.workloads.trace_builds"]
    )
    values["evalx.parallel.utilization"] = _ratio(
        layers["evalx.parallel.cell_busy_s"],
        getattr(workload, "jobs", 1) * values["evalx.parallel.execute_s"],
    )
    from repro.evalx.registry import EXPERIMENT_IDS

    for experiment_id in EXPERIMENT_IDS:
        values[f"evalx.experiment.{experiment_id}_s"] = total(
            f"evalx.experiment.{experiment_id}"
        )
    values["bench.trace_overhead_s"] = region - untraced
    values["bench.unattributed_s"] = unattributed

    self_sum = sum(row.self_s for name, row in parent.items() if name != "bench.pass")
    if abs(self_sum + unattributed - region) > 1e-6 * max(region, 1.0):
        raise RuntimeError("layer self times do not add up to the traced wall time")
    notes = [
        f"traced region: {len(traced)} pass(es), wall {region:.4f} s; "
        f"untraced equivalent {untraced:.4f} s; "
        f"overhead {region - untraced:+.4f} s",
        _table("timed region, parent process (share of traced wall)", parent, region),
        f"  sum of self times {self_sum:.4f} s + unattributed "
        f"{unattributed:.4f} s = {self_sum + unattributed:.4f} s",
        _table(
            "set-up, parent process (share of set-up)",
            setup,
            setup["bench.setup"].total_s,
        ),
    ]
    if workers:
        busy = layers["evalx.parallel.cell_busy_s"]
        notes.append(
            _table("pool workers (share of cell busy time)", workers, busy)
        )
        roots = sum(s.duration for tree in trees for s in tree if s.parent < 0)
        notes.append(
            f"  cell busy {busy:.4f} s from the metrics file; "
            f"{roots:.4f} s inside worker spans"
        )
    return values, notes


def _table(title: str, rows, wall: float) -> str:
    lines = [
        title,
        f"  {'layer':32} {'calls':>7} {'total_s':>10} {'self_s':>10} {'share':>7}",
    ]
    for name, row in sorted(rows.items(), key=lambda item: -item[1].self_s):
        lines.append(
            f"  {name:32} {row.calls:7d} {row.total_s:10.4f} "
            f"{row.self_s:10.4f} {_ratio(row.self_s, wall):7.1%}"
        )
    return "\n".join(lines)


def record_digests() -> None:
    from workloads import (
        DEFAULT_SEED, DIGESTS_PATH, ColdSynth, PaperQuickJobs2, Table4Sweep,
    )
    from spans import NoTrace

    digests = {}
    for cls, kwargs in (
        (Table4Sweep, {}),
        (ColdSynth, {}),
        (PaperQuickJobs2, {"jobs": None}),
    ):
        workload = cls(DEFAULT_SEED, WORK_DIR, **kwargs)
        workload.prepare()
        result = workload.run_pass(workload.setup(), NoTrace())
        digests[workload.name] = workload.digest(result.outputs)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"error: {ROOT} holds no program source (src/repro) "
            "or no BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must be in [0, 2**31)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)

    from measure import PeakRss, timed
    from workloads import WORKLOADS, CorrectnessError, import_probe

    if args.record_digests:
        record_digests()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}

    workload = WORKLOADS[args.workload](args.seed, WORK_DIR)
    try:
        workload.prepare()
        probes = [
            timed(lambda: import_probe(workload.import_modules))[1:]
            for _ in range(SETUP_REPEATS)
        ]
        with PeakRss() as rss:
            setup_times, passes, inputs = measure(workload, probes, args.seconds)
        workload.check(inputs, passes)
        values, notes = end_to_end(workload, setup_times, passes, rss.peak_mb)
        if args.trace:
            print("\n".join(notes))
            for name in sorted(values):
                print(f"{name:24} {values[name]:>16.6g}")
            values, notes = traced_run(workload, passes, WORK_DIR / "spans")
    except CorrectnessError as exc:
        print(f"CORRECTNESS CHECK FAILED: {exc}", file=sys.stderr)
        return 1

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("\n".join(notes))
    for name in units:
        print(f"{name:40} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": True,
        "attempted": sum(p.ops.attempted for p in passes),
        "failed": sum(p.ops.failed for p in passes),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
