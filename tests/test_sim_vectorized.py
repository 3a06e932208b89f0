"""Batched simulation kernels must match the step-by-step loop exactly.

Every predictor that advertises a batched fast path (``batch_plan``,
``batch_slot_ids``, ``predict_column``) is checked here against the
generic loop (``vectorize=False``) on real workloads — same misses, same
states, same storage, bit for bit. Both paths of every entry point that
reads task headers must also fail the same typed way on a trace step
that starts at no task.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.evalx.experiments.ext_static import _second_half_miss
from repro.evalx.experiments.table4 import _make_predictor
from repro.predictors.confidence import (
    ResettingConfidenceEstimator,
    simulate_confidence,
)
from repro.predictors.exit_predictors import PathExitPredictor
from repro.predictors.folding import DolcSpec
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.predictors.speculative import SpeculativePathPredictor
from repro.predictors.static_hints import StaticHintExitPredictor
from repro.predictors.task_predictor import PerfectTaskPredictor
from repro.predictors.ttb import (
    IdealCorrelatedTargetBuffer,
    TaskTargetBuffer,
)
from repro.sim.functional import (
    simulate_exit_prediction,
    simulate_indirect_target_prediction,
    simulate_task_prediction,
)
from repro.sim.relaxed import simulate_speculative_exit_prediction
from repro.sim.timing import TimingConfig, simulate_timing
from repro.synth.stats_view import compute_stats
from repro.synth.workloads import Workload, load_workload

_SCHEMES = (IdealGlobalPredictor, IdealPerTaskPredictor, IdealPathPredictor)
_DEPTHS = (0, 1, 3, 7)


def _assert_exit_stats_equal(workload, make_predictor):
    looped = simulate_exit_prediction(
        workload, make_predictor(), vectorize=False
    )
    batched = simulate_exit_prediction(
        workload, make_predictor(), vectorize=True
    )
    assert batched.trials == looped.trials
    assert batched.misses == looped.misses
    assert batched.multiway_trials == looped.multiway_trials
    assert batched.multiway_misses == looped.multiway_misses
    assert batched.states_touched == looped.states_touched
    assert batched.storage_bits == looped.storage_bits


class TestIdealExitKernels:
    @pytest.mark.parametrize("cls", _SCHEMES)
    @pytest.mark.parametrize("depth", _DEPTHS)
    def test_gcc(self, gcc_workload, cls, depth):
        _assert_exit_stats_equal(gcc_workload, lambda: cls(depth))

    @pytest.mark.parametrize("cls", _SCHEMES)
    def test_xlisp_deep(self, xlisp_workload, cls):
        _assert_exit_stats_equal(xlisp_workload, lambda: cls(7))

    @pytest.mark.parametrize("automaton", ["LE", "LEH-1", "LEH-2"])
    def test_automata_variants(self, gcc_workload, automaton):
        _assert_exit_stats_equal(
            gcc_workload,
            lambda: IdealPathPredictor(3, automaton=automaton),
        )

    def test_vc2_mru_tabulates(self, gcc_workload):
        # VC2-MRU's reachable state space is small (49 states), so its
        # batched replay goes through the tabulated FSM scan.
        _assert_exit_stats_equal(
            gcc_workload,
            lambda: IdealPathPredictor(2, automaton="VC2-MRU"),
        )

    @pytest.mark.parametrize("automaton", ["VC2-RANDOM", "VC3-MRU"])
    def test_untabulatable_automata_fall_back(self, gcc_workload, automaton):
        # RANDOM tie-breaking shares an rng across entries and VC3-MRU's
        # state space exceeds the tabulation cap; batch_plan must refuse.
        predictor = IdealPathPredictor(2, automaton=automaton)
        plan = predictor.batch_plan(
            gcc_workload.trace.task_addr, gcc_workload.trace.exit_index
        )
        assert plan is None

    def test_update_on_single_exit_falls_back(self, gcc_workload):
        predictor = IdealPathPredictor(2, update_on_single_exit=True)
        plan = predictor.batch_plan(
            gcc_workload.trace.task_addr, gcc_workload.trace.exit_index
        )
        assert plan is None


class TestStaticHintColumn:
    def test_matches_loop(self, gcc_workload):
        trace = gcc_workload.trace
        make = lambda: StaticHintExitPredictor.profile_from_trace(trace)
        _assert_exit_stats_equal(gcc_workload, make)

    def test_empty_hints(self, gcc_workload):
        _assert_exit_stats_equal(
            gcc_workload, lambda: StaticHintExitPredictor({})
        )


class TestTargetBufferKernels:
    @pytest.mark.parametrize("depth", _DEPTHS)
    def test_ideal_cttb(self, gcc_workload, depth):
        for make in (lambda: IdealCorrelatedTargetBuffer(depth),):
            looped = simulate_indirect_target_prediction(
                gcc_workload, make(), vectorize=False
            )
            batched = simulate_indirect_target_prediction(
                gcc_workload, make(), vectorize=True
            )
            assert batched == looped

    @pytest.mark.parametrize("index_bits", [6, 11])
    def test_plain_ttb(self, xlisp_workload, index_bits):
        looped = simulate_indirect_target_prediction(
            xlisp_workload,
            TaskTargetBuffer(index_bits=index_bits),
            vectorize=False,
        )
        batched = simulate_indirect_target_prediction(
            xlisp_workload,
            TaskTargetBuffer(index_bits=index_bits),
            vectorize=True,
        )
        assert batched == looped


_SPEC = DolcSpec.parse("7-5-7-8(3)")
_UNKNOWN_TASK = 0x7FFF0

#: Every entry point that reads task headers, as (workload, vectorize).
_HEADER_READERS = {
    "exit": lambda w, v: simulate_exit_prediction(
        w, PathExitPredictor(_SPEC), vectorize=v
    ),
    "task": lambda w, v: simulate_task_prediction(
        w, _make_predictor("PATH", w), vectorize=v
    ),
    "speculative": lambda w, v: simulate_speculative_exit_prediction(
        w, SpeculativePathPredictor(_SPEC), vectorize=v
    ),
    "confidence": lambda w, v: simulate_confidence(
        w,
        PathExitPredictor(_SPEC),
        ResettingConfidenceEstimator(_SPEC),
        vectorize=v,
    ),
    "timing": lambda w, v: simulate_timing(
        w, _make_predictor("PATH", w), vectorize=v
    ),
    "timing-dependence-aware": lambda w, v: simulate_timing(
        w,
        PerfectTaskPredictor(w.trace),
        config=TimingConfig(dependence_aware=True),
        vectorize=v,
    ),
    # Figures 3/4 statistics and the static-hints study have one path.
    "workload-stats": lambda w, v: compute_stats(w),
    "second-half-miss": lambda w, v: _second_half_miss(
        w, PathExitPredictor(_SPEC), len(w.trace) // 2
    ),
}


@pytest.fixture(scope="module")
def unknown_task_workload():
    """A 2,000-task gcc trace whose step 1,000 starts at no task."""
    workload = load_workload("gcc", n_tasks=2_000)
    assert _UNKNOWN_TASK not in workload.compiled.program
    task_addr = workload.trace.task_addr.copy()
    task_addr[1_000] = _UNKNOWN_TASK
    trace = dataclasses.replace(workload.trace, task_addr=task_addr)
    return Workload(workload.profile, workload.compiled, trace)


@pytest.mark.parametrize("vectorize", [True, False])
@pytest.mark.parametrize("entry_point", sorted(_HEADER_READERS))
def test_unknown_task_is_a_typed_failure(
    unknown_task_workload, entry_point, vectorize
):
    with pytest.raises(SimulationError, match="unknown task 0x7fff0"):
        _HEADER_READERS[entry_point](unknown_task_workload, vectorize)
