"""Tests of the benchmark itself: metric naming, the percentile rule,
failure counting, the correctness checks and seed determinism.

Run from the root of the repository::

    python3 -m pytest perfbench -q

Workloads are shrunk (two profiles, a few thousand tasks) so the suite
runs in well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from measure import OpLog, TooFewSamples, min_samples, percentile
from spans import NoTrace, Span, Tracer, installed, layer_table
from workloads import (
    ColdSynth,
    CorrectnessError,
    PaperQuickJobs2,
    PassResult,
    Table4Sweep,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = ("compress", "xlisp")

#: Metric and workload names: a letter or digit, then up to 63 letters,
#: digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def _table4(tmp_path, seed=0):
    workload = Table4Sweep(seed, tmp_path, n_tasks=3000, names=SMALL)
    workload.prepare()
    return workload, workload.setup()


def _passes(workload, inputs, count):
    return [workload.run_pass(inputs, NoTrace()) for _ in range(count)]


# -- naming ---------------------------------------------------------------


def test_metric_and_workload_names_follow_the_grammar():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert not NAME_RE.match("_leading")
    assert not NAME_RE.match("has space")
    assert not NAME_RE.match("x" * 65)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_every_declared_metric_is_measured(tmp_path):
    workload = ColdSynth(0, tmp_path, n_tasks=2000, names=("compress",))
    setup_times, passes, _ = run.measure(workload, [(0.0, 1.0)] * 3, 0)
    assert sum(p.cold for p in passes) == 3
    assert sum(p.ops.attempted for p in passes) >= 100
    values, _ = run.end_to_end(workload, setup_times, passes, 1.0)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    layer_values, notes = run.traced_run(workload, passes, tmp_path / "spans")
    assert set(layer_values) == {m["name"] for m in SPEC["per_layer"]}
    assert layer_values["synth.execute_tasks"] == 2000
    assert "unattributed" in "\n".join(notes)


# -- statistics --------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(1, 21)), 50) == 10


def test_end_to_end_refuses_a_percentile_without_enough_samples(tmp_path):
    workload = ColdSynth(0, tmp_path, n_tasks=2000, names=("compress",))
    passes = _passes(workload, workload.setup(), 1)
    passes[0].cold = True
    with pytest.raises(RuntimeError, match="op_p50_ms not reportable"):
        run.end_to_end(workload, [0.1], passes, 1.0)


def test_oplog_counts_a_failing_operation():
    ops = OpLog()
    assert ops.run(lambda: 7) == (True, 7)
    assert ops.run(lambda: 1 / 0) == (False, None)
    assert (ops.attempted, ops.failed, len(ops.latencies_ms)) == (2, 1, 1)


def test_success_rate_counts_a_deliberately_failing_cell(tmp_path, monkeypatch):
    workload, _ = _table4(tmp_path)
    real = workloads.make_predictor

    def failing(scheme, workload_):
        if scheme == "PATH" and workload_.name == "xlisp":
            raise RuntimeError("deliberate failure")
        return real(scheme, workload_)

    monkeypatch.setattr(workloads, "make_predictor", failing)
    setup_times, passes, _ = run.measure(workload, [(0.0, 1.0)], 0)
    assert all(p.ops.failed == 1 for p in passes)
    values, _ = run.end_to_end(workload, setup_times, passes, 1.0)
    assert values["success_rate"] == pytest.approx(1 - 1 / 10)


# -- correctness checks -------------------------------------------------------


def test_table4_checks_catch_a_perturbed_result(tmp_path, monkeypatch):
    workload, inputs = _table4(tmp_path)
    passes = _passes(workload, inputs, 2)
    workload.check(inputs, passes)  # the unperturbed run passes

    digest = Table4Sweep.digest(passes[0].outputs)
    monkeypatch.setattr(
        workloads, "load_digests", lambda: {"table4_sweep": digest}
    )
    workload.pinned = True
    workload.check(inputs, passes)

    key = ("xlisp", "PATH")
    perturbed = dict(passes[1].outputs)
    perturbed[key] = replace(perturbed[key], cycles=perturbed[key].cycles + 1)
    warm = replace(passes[1], outputs=perturbed)
    with pytest.raises(CorrectnessError, match="differs from the first"):
        workload.check(inputs, [passes[0], warm])
    with pytest.raises(CorrectnessError, match="digest"):
        workload.check(inputs, [replace(passes[0], outputs=perturbed)])


def test_cold_synth_check_catches_a_bad_reload(tmp_path):
    workload = ColdSynth(0, tmp_path, n_tasks=2000, names=("compress",))
    profiles = workload.setup()
    result = workload.run_pass(profiles, NoTrace())
    workload.check(profiles, [result])
    built, _ = result.outputs[0]
    bad = replace(result, outputs=[(built, "0" * 64)])
    with pytest.raises(CorrectnessError, match="reloaded"):
        workload.check(profiles, [bad])


def test_paper_quick_check_catches_a_changed_text(tmp_path, monkeypatch):
    texts = {eid: f"text of {eid}" for eid in run_ids()}
    monkeypatch.setattr(
        workloads,
        "load_digests",
        lambda: {"paper_quick_jobs2": PaperQuickJobs2.digest(texts)},
    )
    workload = PaperQuickJobs2(0, tmp_path)
    ok = PassResult(1.0, OpLog(), 1, texts)
    workload.check(0, [ok])
    changed = dict(texts, table4=texts["table4"] + " ")
    with pytest.raises(CorrectnessError, match="table4"):
        workload.check(0, [ok, replace(ok, outputs=changed)])


def run_ids():
    from repro.evalx.registry import EXPERIMENT_IDS

    return EXPERIMENT_IDS


def test_recorded_digests_cover_every_experiment():
    digests = workloads.load_digests()
    assert set(digests) == set(workloads.WORKLOADS)
    assert set(digests["paper_quick_jobs2"]) == set(run_ids())


# -- determinism ------------------------------------------------------------------


def test_same_seed_gives_identical_outputs(tmp_path):
    first, first_inputs = _table4(tmp_path / "a", seed=3)
    second, second_inputs = _table4(tmp_path / "b", seed=3)
    one = first.run_pass(first_inputs, NoTrace()).outputs
    two = second.run_pass(second_inputs, NoTrace()).outputs
    assert one == two
    other, other_inputs = _table4(tmp_path / "c", seed=4)
    assert other.run_pass(other_inputs, NoTrace()).outputs != one

    synth = [
        ColdSynth(5, tmp_path / name, n_tasks=2000, names=SMALL)
        for name in ("d", "e")
    ]
    digests = [w.run_pass(w.setup(), NoTrace()).outputs for w in synth]
    assert digests[0] == digests[1]


# -- tracing --------------------------------------------------------------------------


def test_self_times_add_up_to_the_root():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("a", 6.0, 7.0, 0),
        Span("a", 6.2, 6.5, 3),  # nested in the same layer
        Span("setup", 11.0, 12.0, -1),
        Span("a", 11.0, 11.5, 5),
    ]
    assert layer_table(spans)["a"].calls == 4
    table = layer_table(spans, root="root")
    assert "setup" not in table
    assert table["root"].self_s == pytest.approx(5.0)
    assert table["a"].calls == 3
    assert table["a"].total_s == pytest.approx(5.0)
    assert table["a"].self_s == pytest.approx(4.0)
    assert sum(row.self_s for row in table.values()) == pytest.approx(10.0)


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    from repro.sim import timing
    from repro.synth.trace import TaskTrace
    from repro.utils.memo import DerivedColumnCache

    before = (timing.simulate_timing, TaskTrace.__dict__["load"],
              DerivedColumnCache.get)
    with installed(Tracer(tmp_path)):
        assert timing.simulate_timing is not before[0]
    after = (timing.simulate_timing, TaskTrace.__dict__["load"],
             DerivedColumnCache.get)
    assert after == before


# -- the command ----------------------------------------------------------------------


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_synth",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
