"""Confidence estimation for task predictions.

The same authors' companion work (Jacobson, Bennett, Sharma & Smith,
"Assigning Confidence to Conditional Branch Predictions", MICRO-29 1996)
attaches a *confidence estimator* to a predictor: a table of resetting
counters that count consecutive correct predictions per history context.
A prediction is high-confidence when its counter has reached a threshold.

In a Multiscalar machine this gates speculation depth: a low-confidence
task prediction is a good place to stop allocating processing units (a
mispredicted task squashes all younger work). The ``ext_confidence``
experiment measures the classic quality metrics:

* coverage — fraction of predictions flagged high-confidence;
* high-confidence accuracy;
* PVN (predictive value of a negative) — fraction of low-confidence
  predictions that indeed miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.base import ExitPredictor
from repro.predictors.folding import DolcSpec
from repro.synth.workloads import Workload
from repro.utils.scan import MAX_SCAN_STATES, segmented_fsm_scan
from repro.utils.memo import int64_column


class ResettingConfidenceEstimator:
    """A table of resetting counters indexed by the path-history hash.

    ``update`` saturates the counter on a correct prediction and clears it
    on a miss; ``is_high_confidence`` compares against the threshold. This
    is the MICRO-96 paper's best small estimator (resetting counters beat
    saturating ones because one miss voids accumulated trust).
    """

    def __init__(
        self,
        spec: DolcSpec,
        threshold: int = 4,
        counter_max: int = 15,
    ) -> None:
        if threshold < 1:
            raise PredictorConfigError("threshold must be >= 1")
        if counter_max < threshold:
            raise PredictorConfigError("counter_max must be >= threshold")
        self._spec = spec
        self._threshold = threshold
        self._counter_max = counter_max
        self._counters: dict[int, int] = {}
        self._path: list[int] = []

    @property
    def threshold(self) -> int:
        """Counter value at which a prediction counts as high-confidence."""
        return self._threshold

    def _slot(self, task_addr: int) -> int:
        return self._spec.index(task_addr, self._path)

    def is_high_confidence(self, task_addr: int) -> bool:
        """Query confidence for the upcoming prediction at this task."""
        return (
            self._counters.get(self._slot(task_addr), 0) >= self._threshold
        )

    def update(self, task_addr: int, correct: bool) -> None:
        """Train on the prediction outcome and advance the path register."""
        slot = self._slot(task_addr)
        if correct:
            counter = self._counters.get(slot, 0)
            if counter < self._counter_max:
                self._counters[slot] = counter + 1
        else:
            self._counters[slot] = 0
        if self._spec.depth:
            self._path.append(task_addr)
            if len(self._path) > self._spec.depth:
                del self._path[0]

    def storage_bits(self) -> int:
        """Full-capacity cost: one counter per table entry."""
        bits_per_counter = max(1, self._counter_max.bit_length())
        return self._spec.table_entries * bits_per_counter

    def batch_gate_columns(
        self, task_addrs: np.ndarray, correct: np.ndarray
    ) -> np.ndarray | None:
        """Per-step high-confidence flags for a whole prediction run.

        ``correct[i]`` is the outcome fed to ``update`` at step ``i``;
        the returned boolean column holds what ``is_high_confidence``
        would have answered just before that update. The counter table is
        a family of tiny reset/saturate automata, so the whole run is one
        segmented FSM scan over the path-indexed slots. Only valid for a
        freshly constructed estimator; the object is not mutated. Returns
        None when the counter range is too wide to tabulate.
        """
        n_states = self._counter_max + 1
        if n_states > MAX_SCAN_STATES:
            return None
        addrs = int64_column(task_addrs)
        slots = self._spec.index_column(addrs)
        transitions = np.empty((n_states, 2), dtype=np.int8)
        transitions[:, 0] = 0  # a miss resets the counter
        transitions[:, 1] = np.minimum(
            np.arange(n_states) + 1, self._counter_max
        )
        pre_counts = segmented_fsm_scan(
            slots, int64_column(correct), transitions
        )
        return pre_counts >= self._threshold


@dataclass(frozen=True)
class ConfidenceStats:
    """Quality metrics of a confidence estimator over one run."""

    trials: int
    high_confidence: int
    high_correct: int
    low_confidence: int
    low_incorrect: int

    @property
    def coverage(self) -> float:
        """Fraction of predictions flagged high-confidence."""
        return self.high_confidence / self.trials if self.trials else 0.0

    @property
    def high_confidence_accuracy(self) -> float:
        """Accuracy among high-confidence predictions (PVP)."""
        if not self.high_confidence:
            return 0.0
        return self.high_correct / self.high_confidence

    @property
    def pvn(self) -> float:
        """Fraction of low-confidence predictions that actually missed."""
        if not self.low_confidence:
            return 0.0
        return self.low_incorrect / self.low_confidence


def simulate_confidence(
    workload: Workload,
    predictor: ExitPredictor,
    estimator: ResettingConfidenceEstimator,
    limit: int | None = None,
    vectorize: bool = True,
) -> ConfidenceStats:
    """Run predictor + estimator over a trace; return quality metrics.

    When both the predictor and the estimator advertise exact batched
    forms, the whole run is evaluated as numpy columns (bit-identical
    statistics); ``vectorize=False`` forces the step loop.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    n_exits_col = workload.headers.n_exits_of(trace.task_addr)
    if vectorize:
        stats = _batched_confidence_stats(
            predictor, estimator, trace, n_exits_col
        )
        if stats is not None:
            return stats
    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()

    trials = 0
    high = 0
    high_correct = 0
    low = 0
    low_incorrect = 0
    for addr, actual, n_exits in zip(
        task_addrs, actual_exits, n_exits_col.tolist()
    ):
        predicted = predictor.predict(addr, n_exits)
        confident = estimator.is_high_confidence(addr)
        correct = predicted == actual
        trials += 1
        if confident:
            high += 1
            if correct:
                high_correct += 1
        else:
            low += 1
            if not correct:
                low_incorrect += 1
        estimator.update(addr, correct)
        predictor.update(addr, n_exits, actual)
    return ConfidenceStats(
        trials=trials,
        high_confidence=high,
        high_correct=high_correct,
        low_confidence=low,
        low_incorrect=low_incorrect,
    )


def _batched_confidence_stats(
    predictor: ExitPredictor,
    estimator: ResettingConfidenceEstimator,
    trace,
    n_exits_col: np.ndarray,
) -> ConfidenceStats | None:
    """Column-wise confidence run, or None without exact batched forms."""
    from repro.sim.functional import batched_exit_prediction_column

    predicted = batched_exit_prediction_column(
        predictor, trace.task_addr, trace.exit_index, n_exits_col
    )
    if predicted is None:
        return None
    correct = predicted == int64_column(trace.exit_index)
    confident = estimator.batch_gate_columns(trace.task_addr, correct)
    if confident is None:
        return None
    trials = len(correct)
    high = int(confident.sum())
    high_correct = int((confident & correct).sum())
    low_incorrect = int((~confident & ~correct).sum())
    return ConfidenceStats(
        trials=trials,
        high_confidence=high,
        high_correct=high_correct,
        low_confidence=trials - high,
        low_incorrect=low_incorrect,
    )
