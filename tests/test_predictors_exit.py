"""Tests for real and ideal exit predictors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PredictorConfigError
from repro.predictors.exit_predictors import (
    GlobalExitPredictor,
    PathExitPredictor,
    PerTaskExitPredictor,
    SimpleExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.predictors.pht import PackedPatternTable, PatternHistoryTable
from repro.predictors.automata import (
    LastExitHysteresis,
    make_automaton_factory,
    tabulate_automaton,
)


def drive(predictor, sequence):
    """Feed (addr, n_exits, actual_exit) steps; return predictions made."""
    predictions = []
    for addr, n_exits, actual in sequence:
        predictions.append(predictor.predict(addr, n_exits))
        predictor.update(addr, n_exits, actual)
    return predictions


class TestPackedPatternTable:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=80,
        ),
        st.integers(min_value=0, max_value=80),
        st.sampled_from(["LE", "LEH-1", "LEH-2"]),
    )
    def test_consecutive_slices_replay_like_one_call(
        self, steps, split, automaton
    ):
        table = tabulate_automaton(make_automaton_factory(automaton), 4)
        group_ids = np.array([g for g, _ in steps], dtype=np.int64)
        inputs = np.array([x for _, x in steps], dtype=np.int64)
        whole = PackedPatternTable(table, 6)
        sliced = PackedPatternTable(table, 6)
        expected = whole.replay(group_ids, inputs)
        first = sliced.replay(group_ids[:split], inputs[:split])
        second = sliced.replay(group_ids[split:], inputs[split:])
        assert np.concatenate((first, second)).tolist() == expected.tolist()
        assert sliced.state_column.tolist() == whole.state_column.tolist()


class TestPatternHistoryTable:
    def test_lazy_entries(self):
        pht = PatternHistoryTable(4, LastExitHysteresis)
        assert pht.states_touched() == 0
        pht.entry(3).update(1)
        assert pht.states_touched() == 1

    def test_index_bounds(self):
        pht = PatternHistoryTable(4, LastExitHysteresis)
        with pytest.raises(PredictorConfigError):
            pht.entry(16)
        with pytest.raises(PredictorConfigError):
            pht.entry(-1)

    def test_storage_accounts_full_table(self):
        pht = PatternHistoryTable(14, lambda: LastExitHysteresis(2))
        assert pht.storage_bits() == (1 << 14) * 4  # the paper's 8KB PHT


class TestSingleExitOptimisation:
    """§6.1: one-exit tasks predicted without touching the PHT."""

    def test_no_pht_updates_for_single_exit(self):
        predictor = PathExitPredictor(DolcSpec.parse("2-4-5-5(1)"))
        drive(predictor, [(0x100, 1, 0)] * 50)
        assert predictor.states_touched() == 0

    def test_ablation_flag_enables_updates(self):
        predictor = PathExitPredictor(
            DolcSpec.parse("2-4-5-5(1)"), update_on_single_exit=True
        )
        drive(predictor, [(0x100, 1, 0)] * 5)
        assert predictor.states_touched() > 0

    def test_single_exit_always_predicts_zero(self):
        predictor = PathExitPredictor(DolcSpec.parse("2-4-5-5(1)"))
        assert predictor.predict(0x100, 1) == 0

    def test_path_register_still_advances(self):
        # Two runs that differ only in single-exit tasks must index the PHT
        # differently afterwards: single-exit tasks are still on the path.
        spec = DolcSpec.parse("2-4-5-5(1)")
        a = PathExitPredictor(spec)
        b = PathExitPredictor(spec)
        drive(a, [(0x104, 1, 0), (0x200, 2, 1)])
        drive(b, [(0x108, 1, 0), (0x200, 2, 1)])
        # Train 'a' hard on exit 1; if b aliased to the same entry its
        # prediction would follow, but the paths differ.
        index_a = a.spec.index(0x300, [0x104, 0x200])
        index_b = b.spec.index(0x300, [0x108, 0x200])
        assert index_a != index_b


class TestPathExitPredictor:
    def test_learns_path_dependent_exits(self):
        """The same task takes exit 0 after path A and exit 1 after path B;
        a depth-2 path predictor must learn both."""
        spec = DolcSpec.parse("2-4-5-5(1)")
        predictor = PathExitPredictor(spec)
        pattern = [
            (0x104, 1, 0), (0x208, 1, 0), (0x40C, 2, 0),  # path A -> exit 0
            (0x104, 1, 0), (0x310, 1, 0), (0x40C, 2, 1),  # path B -> exit 1
        ]
        for _ in range(20):
            drive(predictor, pattern)
        predictions = drive(predictor, pattern)
        assert predictions[2] == 0
        assert predictions[5] == 1

    def test_depth0_cannot_learn_path_dependence(self):
        predictor = SimpleExitPredictor(index_bits=10)
        pattern = [
            (0x100, 1, 0), (0x200, 1, 0), (0x400, 2, 0),
            (0x100, 1, 0), (0x300, 1, 0), (0x400, 2, 1),
        ]
        for _ in range(20):
            drive(predictor, pattern)
        predictions = drive(predictor, pattern)
        # With one automaton for task 0x400, it cannot be right both times.
        assert not (predictions[2] == 0 and predictions[5] == 1)

    def test_prediction_clamped_to_n_exits(self):
        predictor = PathExitPredictor(DolcSpec.parse("0-0-0-6(1)"))
        drive(predictor, [(0x100, 4, 3)] * 5)
        # Same index, but a 2-exit task must not see prediction 3.
        assert predictor.predict(0x100, 2) <= 1

    def test_storage_is_8kb_for_14_bit_leh2(self):
        predictor = PathExitPredictor(DolcSpec.parse("6-5-8-9(3)"))
        assert predictor.storage_bits() == 8 * 1024 * 8


class TestGlobalExitPredictor:
    def test_learns_global_history_correlation(self):
        predictor = GlobalExitPredictor(depth=2, index_bits=10)
        # Task 0x400's exit equals the exit taken two steps earlier.
        pattern = [
            (0x100, 2, 1), (0x200, 2, 0), (0x400, 2, 1),
            (0x100, 2, 0), (0x200, 2, 0), (0x400, 2, 0),
        ]
        for _ in range(30):
            drive(predictor, pattern)
        predictions = drive(predictor, pattern)
        assert predictions[2] == 1
        assert predictions[5] == 0

    def test_depth_validation(self):
        with pytest.raises(PredictorConfigError):
            GlobalExitPredictor(depth=-1)


class TestPerTaskExitPredictor:
    def test_learns_per_task_period(self):
        predictor = PerTaskExitPredictor(depth=3, index_bits=10)
        # Task 0x100 cycles exits 0,0,1; task 0x200 is interleaved noise.
        pattern = [
            (0x100, 2, 0), (0x200, 2, 1),
            (0x100, 2, 0), (0x200, 2, 1),
            (0x100, 2, 1), (0x200, 2, 1),
        ]
        for _ in range(40):
            drive(predictor, pattern)
        predictions = drive(predictor, pattern)
        assert [predictions[0], predictions[2], predictions[4]] == [0, 0, 1]

    def test_storage_includes_hrt(self):
        predictor = PerTaskExitPredictor(
            depth=7, index_bits=10, hrt_index_bits=4
        )
        assert predictor.storage_bits() == (1 << 10) * 4 + (1 << 4) * 14


class TestIdealPredictors:
    def test_depth0_schemes_identical(self):
        steps = [
            (0x100, 2, i % 2) for i in range(40)
        ] + [(0x200, 3, 2)] * 10
        results = []
        for cls in (
            IdealGlobalPredictor, IdealPathPredictor, IdealPerTaskPredictor
        ):
            results.append(drive(cls(0), list(steps)))
        assert results[0] == results[1] == results[2]

    def test_ideal_path_learns_exact_function_of_path(self):
        predictor = IdealPathPredictor(2)
        pattern = [
            (0x100, 1, 0), (0x200, 1, 0), (0x400, 2, 0),
            (0x100, 1, 0), (0x300, 1, 0), (0x400, 2, 1),
        ]
        for _ in range(3):
            drive(predictor, pattern)
        predictions = drive(predictor, pattern)
        assert predictions[2] == 0
        assert predictions[5] == 1

    def test_ideal_per_task_learns_cycles(self):
        predictor = IdealPerTaskPredictor(3)
        pattern = [(0x100, 2, e) for e in (0, 0, 1)]
        for _ in range(10):
            drive(predictor, pattern)
        predictions = drive(predictor, pattern)
        assert predictions == [0, 0, 1]

    def test_states_touched_grows_with_depth(self, compress_workload):
        from repro.sim.functional import simulate_exit_prediction

        shallow = simulate_exit_prediction(
            compress_workload, IdealPathPredictor(1)
        ).states_touched
        deep = simulate_exit_prediction(
            compress_workload, IdealPathPredictor(6)
        ).states_touched
        assert deep > shallow

    def test_negative_depth_rejected(self):
        with pytest.raises(PredictorConfigError):
            IdealPathPredictor(-1)
