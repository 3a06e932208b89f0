"""Bit-identity of the vectorized simulation paths vs their scalar twins.

The PR 6 performance contract: every ``vectorize=True`` path — the
timing model's max-plus scan, the realistic predictors' batched
columns, the speculative-history replay, the detailed model's
event-compressed advance — must produce results *equal* to the stepped
scalar reference, not merely close. These tests sweep the full scheme
grid (every realistic Table 4 predictor) over all five synthetic
workload profiles, vary the machine configuration (ring size,
penalties, forwarding, dependence-aware forwarding), gate speculation
by confidence, compare the functional task-prediction and confidence
statistics, and run one checkpoint-resumed sweep to show records
served from a checkpoint store match a fresh vectorized run.

(`repro.sim.timing.scan` points here as the scan's equivalence proof.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.experiments.common import BENCHMARKS
from repro.evalx.experiments.table4 import SCHEMES, _make_predictor
from repro.evalx.registry import run_experiment
from repro.predictors.confidence import (
    ResettingConfidenceEstimator,
    simulate_confidence,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.speculative import (
    REPAIR_POLICIES,
    SpeculativePathPredictor,
)
from repro.sim.functional import simulate_task_prediction
from repro.sim.relaxed import simulate_speculative_exit_prediction
from repro.sim.timing import TimingConfig, simulate_timing
from repro.sim.timing.detailed import simulate_timing_detailed
from repro.synth.workloads import load_workload
from repro.utils.memo import (
    _PRUNE_THRESHOLD,
    DerivedColumnCache,
    int64_column,
)

_TASKS = 4_000

_CONFIGS = {
    "paper": TimingConfig(),
    "wide-ring": TimingConfig(n_units=8, commit_interval=2),
    "serial-forwarding": TimingConfig(
        forward_fraction=1.0, task_mispredict_penalty=12
    ),
    "long-tasks": TimingConfig(task_startup_cycles=16, issue_width=2),
    "dependence-aware": TimingConfig(dependence_aware=True),
}

#: Estimator index of the gated-timing and confidence runs (PATH's spec).
_GATE_SPEC = DolcSpec.parse("7-5-7-8(3)")


class TestTimingBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_every_scheme_every_profile(self, name, scheme):
        workload = load_workload(name, n_tasks=_TASKS)
        stepped = simulate_timing(
            workload, _make_predictor(scheme, workload), vectorize=False
        )
        batched = simulate_timing(
            workload, _make_predictor(scheme, workload), vectorize=True
        )
        assert batched == stepped

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_confidence_gated(self, name, scheme):
        workload = load_workload(name, n_tasks=_TASKS)
        stepped, batched = (
            simulate_timing(
                workload,
                _make_predictor(scheme, workload),
                confidence_gate=ResettingConfidenceEstimator(
                    _GATE_SPEC, threshold=2
                ),
                vectorize=vectorize,
            )
            for vectorize in (False, True)
        )
        assert batched == stepped

    @pytest.mark.parametrize("config_name", sorted(_CONFIGS))
    @pytest.mark.parametrize("scheme", ("PATH", "GLOBAL"))
    def test_machine_configurations(self, config_name, scheme):
        workload = load_workload("gcc", n_tasks=_TASKS)
        config = _CONFIGS[config_name]
        stepped = simulate_timing(
            workload, _make_predictor(scheme, workload),
            config=config, vectorize=False,
        )
        batched = simulate_timing(
            workload, _make_predictor(scheme, workload),
            config=config, vectorize=True,
        )
        assert batched == stepped


class TestFunctionalBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_task_prediction(self, name, scheme):
        workload = load_workload(name, n_tasks=_TASKS)
        stepped, batched = (
            simulate_task_prediction(
                workload,
                _make_predictor(scheme, workload),
                vectorize=vectorize,
            )
            for vectorize in (False, True)
        )
        assert batched == stepped

    @pytest.mark.parametrize(
        "scheme", [scheme for scheme in SCHEMES if scheme != "Perfect"]
    )
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_confidence(self, name, scheme):
        workload = load_workload(name, n_tasks=_TASKS)
        stepped, batched = (
            simulate_confidence(
                workload,
                _make_predictor(scheme, workload).exit_predictor,
                ResettingConfidenceEstimator(_GATE_SPEC),
                vectorize=vectorize,
            )
            for vectorize in (False, True)
        )
        assert batched == stepped


class TestDetailedEventCompression:
    @pytest.mark.parametrize("config_name", sorted(_CONFIGS))
    @pytest.mark.parametrize("scheme", ("Simple", "PATH", "Perfect"))
    def test_event_skips_are_exact(self, config_name, scheme):
        workload = load_workload("xlisp", n_tasks=1_500)
        config = _CONFIGS[config_name]
        stepped = simulate_timing_detailed(
            workload, _make_predictor(scheme, workload),
            config=config, vectorize=False,
        )
        compressed = simulate_timing_detailed(
            workload, _make_predictor(scheme, workload),
            config=config, vectorize=True,
        )
        assert compressed == stepped


class TestSpeculativeReplay:
    @pytest.mark.parametrize(
        "spec", ("7-5-7-8(3)", "4-4-6-8(2)", "0-0-0-9(1)", "2-3-5-6(2)")
    )
    @pytest.mark.parametrize("depth", (0, 1, 4, 7))
    def test_perfect_repair_matches_stepped_loop(self, spec, depth):
        workload = load_workload("compress", n_tasks=_TASKS)
        parsed = DolcSpec.parse(spec)
        stepped = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed),
            wrong_path_depth=depth, vectorize=False,
        )
        batched = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed),
            wrong_path_depth=depth, vectorize=True,
        )
        assert batched == stepped

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_perfect_repair_every_profile(self, name):
        workload = load_workload(name, n_tasks=_TASKS)
        parsed = DolcSpec.parse("7-5-7-8(3)")
        stepped = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed),
            vectorize=False,
        )
        batched = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed),
            vectorize=True,
        )
        assert batched == stepped

    @pytest.mark.parametrize("repair", REPAIR_POLICIES)
    def test_other_repair_policies_fall_back(self, repair):
        """vectorize=True must be safe for every policy (scalar fallback)."""
        workload = load_workload("sc", n_tasks=1_000)
        parsed = DolcSpec.parse("4-4-6-8(2)")
        stepped = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed, repair=repair),
            vectorize=False,
        )
        batched = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed, repair=repair),
            vectorize=True,
        )
        assert batched == stepped


class TestCheckpointResumedSweep:
    def test_resumed_sweep_matches_fresh_run(self, tmp_path):
        """Records served from a checkpoint store equal a fresh sweep."""
        kwargs = dict(quick=True, n_tasks=2_000)
        fresh = run_experiment("table4", **kwargs)
        first = run_experiment(
            "table4", checkpoint=CheckpointStore(tmp_path), **kwargs
        )
        resumed = run_experiment(
            "table4",
            checkpoint=CheckpointStore(tmp_path, resume=True),
            **kwargs,
        )
        assert first.data == fresh.data
        assert resumed.data == fresh.data
        # The resume really was served from disk, not recomputed.
        assert list(tmp_path.glob("*.ckpt.json"))


class TestDerivedColumnCache:
    def test_same_anchor_hits_and_new_anchor_rebuilds(self):
        cache = DerivedColumnCache()
        anchor = np.arange(8)
        builds = []

        def build():
            builds.append(None)
            return anchor * 2

        first = cache.get((anchor,), "x2", build)
        second = cache.get((anchor,), "x2", build)
        assert first is second
        assert len(builds) == 1
        other = np.arange(8)
        cache.get((other,), "x2", build)
        assert len(builds) == 2

    def test_tag_distinguishes_parameterisations(self):
        cache = DerivedColumnCache()
        anchor = np.arange(4)
        a = cache.get((anchor,), ("depth", 3), lambda: "d3")
        b = cache.get((anchor,), ("depth", 7), lambda: "d7")
        assert (a, b) == ("d3", "d7")

    def test_dead_anchor_is_not_served_to_an_aliased_id(self):
        cache = DerivedColumnCache()
        anchor = np.arange(16)
        cache.get((anchor,), "tag", lambda: "old")
        del anchor
        fresh = np.arange(16)
        # Even if id() were recycled, the weakref revalidation forces a
        # rebuild rather than serving the dead anchor's value.
        assert cache.get((fresh,), "tag", lambda: "new") == "new"

    def test_unweakrefable_anchor_bypasses_cache(self):
        cache = DerivedColumnCache()
        calls = []
        for _ in range(2):
            cache.get((42,), "t", lambda: calls.append(None))
        assert len(calls) == 2

    def test_live_entries_are_bounded_lru(self):
        cache = DerivedColumnCache()
        anchors = [np.empty(1) for _ in range(_PRUNE_THRESHOLD * 3)]
        for i, anchor in enumerate(anchors):
            cache.get((anchor,), i, lambda i=i: i)
        # Live anchors alone must not grow the table past the bound.
        assert len(cache._entries) == _PRUNE_THRESHOLD
        builds = []
        # The newest entry is still cached ...
        cache.get(
            (anchors[-1],),
            len(anchors) - 1,
            lambda: builds.append("rebuilt"),
        )
        assert builds == []
        # ... and the oldest was evicted, so it rebuilds.
        cache.get((anchors[0],), 0, lambda: builds.append("rebuilt"))
        assert builds == ["rebuilt"]

    def test_hit_refreshes_recency(self):
        cache = DerivedColumnCache()
        keep = np.empty(1)
        cache.get((keep,), "keep", lambda: "kept")
        fillers = []
        for i in range(_PRUNE_THRESHOLD * 2):
            filler = np.empty(1)
            fillers.append(filler)
            cache.get((filler,), i, lambda i=i: i)
            # Touch the sentinel so every eviction takes a filler.
            cache.get((keep,), "keep", lambda: "rebuilt")
        assert cache.get((keep,), "keep", lambda: "rebuilt") == "kept"

    def test_insert_cost_stays_flat_with_live_anchors(self):
        """Regression: once >= _PRUNE_THRESHOLD *live* entries existed,
        every insert rescanned the whole (unbounded) table — O(n^2)
        across a sweep. Eviction must keep inserts O(1)."""
        import time

        cache = DerivedColumnCache()
        anchors = [np.empty(0) for _ in range(20_000)]
        started = time.perf_counter()
        for i, anchor in enumerate(anchors):
            cache.get((anchor,), i, lambda: None)
        elapsed = time.perf_counter() - started
        assert len(cache._entries) == _PRUNE_THRESHOLD
        # The quadratic rescan took tens of seconds here; the LRU pop
        # takes well under one even on a loaded CI box.
        assert elapsed < 5.0

    def test_int64_column_is_canonical_per_source(self):
        narrow = np.arange(10, dtype=np.uint16)
        wide_a = int64_column(narrow)
        wide_b = int64_column(narrow)
        assert wide_a is wide_b
        assert wide_a.dtype == np.int64
        already = np.arange(10, dtype=np.int64)
        assert int64_column(already) is already
