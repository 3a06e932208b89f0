"""Relaxed-idealisation simulation: history pollution and repair.

The main functional simulator applies the paper's §3.1 idealisations. This
module drops the *pollution* idealisation: when an exit prediction is
wrong, the sequencer keeps predicting down the wrong path for a while
(bounded by the number of speculative tasks the ring can hold), shifting
wrong-path task addresses into the history register, before the mispredict
resolves and the repair policy runs.

Wrong-path task addresses are derived the way the hardware would derive
them: follow the predicted exit's header target; a wrong path ends early
if it reaches an exit whose target the header does not give (returns and
indirect transfers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.controlflow import MAX_EXITS_PER_TASK
from repro.isa.headers import ABSENT
from repro.predictors.automata import tabulate_automaton
from repro.predictors.folding import DolcSpec, _ALIGN_SHIFT
from repro.predictors.pht import replay_clamped
from repro.predictors.speculative import SpeculativePathPredictor
from repro.synth.workloads import Workload
from repro.utils.bits import bit_mask
from repro.utils.memo import int64_column


@dataclass(frozen=True)
class RelaxedPredictionStats:
    """Outcome of a speculative-history run.

    Attributes:
        trials: Dynamic task predictions of the committed (actual) path.
        misses: Wrong exit predictions on the committed path.
        wrong_path_predictions: Extra predictions issued down wrong paths
            (pure pollution; they have no accuracy of their own).
    """

    trials: int
    misses: int
    wrong_path_predictions: int

    @property
    def miss_rate(self) -> float:
        """Committed-path miss rate (comparable to the ideal simulator's)."""
        return self.misses / self.trials if self.trials else 0.0


def _dolc_index_rows(
    spec: DolcSpec,
    current: np.ndarray,
    window: np.ndarray | None,
    n_path: np.ndarray | None,
) -> np.ndarray:
    """Vectorized :meth:`DolcSpec.index` over per-row path windows.

    ``window`` holds each row's path register contents (most recent
    last, ``spec.depth`` columns); ``n_path`` is how many of those
    entries are real (cold-start rows have fewer — absent tasks
    contribute zero bits, as in the scalar method).
    """
    out = np.zeros(len(current), dtype=np.int64)
    field_width = spec.index_bits

    def fold_in(values: np.ndarray, width: int, position: int) -> None:
        remaining, shift = width, position
        chunk = values
        while remaining > 0:
            offset = shift % field_width
            take = min(field_width - offset, remaining)
            np.bitwise_xor(
                out, (chunk & bit_mask(take)) << offset, out=out
            )
            chunk = chunk >> take
            shift += take
            remaining -= take

    fold_in(
        (current >> _ALIGN_SHIFT) & bit_mask(spec.current_bits),
        spec.current_bits,
        0,
    )
    position = spec.current_bits
    if spec.depth >= 1:
        last = np.where(n_path >= 1, window[:, -1], 0)
        fold_in(
            (last >> _ALIGN_SHIFT) & bit_mask(spec.last_bits),
            spec.last_bits,
            position,
        )
        position += spec.last_bits
        if spec.older_bits:
            older_mask = bit_mask(spec.older_bits)
            for back in range(2, spec.depth + 1):
                older = np.where(n_path >= back, window[:, -back], 0)
                fold_in(
                    (older >> _ALIGN_SHIFT) & older_mask,
                    spec.older_bits,
                    position,
                )
                position += spec.older_bits
    return out


def _batched_speculative_stats(
    workload: Workload,
    predictor: SpeculativePathPredictor,
    wrong_path_depth: int,
    trace,
) -> RelaxedPredictionStats | None:
    """Columnwise speculative run, or None without an exact batched form.

    Only the ``"perfect"`` repair policy is batchable: perfect repair
    restores the committed-path history after every mispredict, so the
    committed prediction stream is a straight PHT replay over the
    D-O-L-C index column, and each wrong-path excursion can be replayed
    afterwards against the PHT state of its origin step (wrong-path
    predictions never train, so excursions don't interact). ``"squash"``
    and ``"none"`` leave pollution in the history register, which couples
    every step to the trace's miss pattern — those stay on the stepped
    loop, which is also the reference this kernel is tested against.
    """
    if predictor.repair_policy != "perfect":
        return None
    spec = predictor.spec
    table = tabulate_automaton(predictor.pht_factory, MAX_EXITS_PER_TASK)
    if table is None:
        return None

    headers = workload.headers
    addrs = int64_column(trace.task_addr)
    actual_exits = int64_column(trace.exit_index)
    n = len(addrs)
    rows = headers.rows(trace.task_addr)

    # Committed stream: perfect repair keeps the path register equal to
    # the committed-path tail at every step, so the index column is the
    # plain D-O-L-C fold and the PHT replay is exact.
    index_col = spec.index_column(trace.task_addr)
    predicted, steps, pre_states = replay_clamped(
        table, index_col, actual_exits, headers.n_exits[rows]
    )
    wrong = predicted != actual_exits
    misses = int(wrong.sum())

    # Wrong-path walks: replayed level by level across all misses at
    # once. A walk at origin step i reads PHT entries as trained by
    # multiway steps j < i (step i itself trains at resolve, *after* its
    # walk), answered per level with one combined-key searchsorted over
    # the committed update stream.
    post_states = table.transitions[
        pre_states, actual_exits[steps]
    ].astype(np.int64)
    stride = np.int64(n + 1)
    update_keys = index_col[steps] * stride + steps
    update_order = np.argsort(update_keys)
    update_keys = update_keys[update_order]
    update_states = post_states[update_order]
    update_index = index_col[steps][update_order]

    origin = np.flatnonzero(wrong)
    wrong_path_predictions = 0
    if origin.size and wrong_path_depth > 0:
        current = headers.targets[rows[origin], predicted[origin]]
        depth = spec.depth
        if depth:
            # Path register contents just after step i's own predict:
            # the last `depth` committed addresses, most recent last.
            window = np.zeros((origin.size, depth), dtype=np.int64)
            for k in range(depth):
                lag = depth - 1 - k
                valid = origin >= lag
                window[valid, k] = addrs[origin[valid] - lag]
            n_path = np.minimum(origin + 1, depth)
        else:
            window = None
            n_path = None
        for _ in range(wrong_path_depth):
            live = current != ABSENT
            if not live.any():
                break
            current = current[live]
            origin = origin[live]
            if depth:
                window = window[live]
                n_path = n_path[live]
            walk_rows, walk_known = headers.lookup(current)
            if not walk_known.all():
                keep = walk_known
                current = current[keep]
                origin = origin[keep]
                walk_rows = walk_rows[keep]
                if depth:
                    window = window[keep]
                    n_path = n_path[keep]
                if not len(current):
                    break
            walk_exits = headers.n_exits[walk_rows]
            index = _dolc_index_rows(spec, current, window, n_path)
            query = index * stride + origin
            pos = np.searchsorted(update_keys, query) - 1
            hit = (pos >= 0) & (update_index[np.maximum(pos, 0)] == index)
            states = np.where(
                hit, update_states[np.maximum(pos, 0)], 0
            )
            walk_predicted = np.where(
                walk_exits > 1,
                np.minimum(
                    table.predictions[states],
                    np.maximum(walk_exits - 1, 0),
                ),
                0,
            )
            wrong_path_predictions += len(current)
            if depth:
                window = np.concatenate(
                    (window[:, 1:], current[:, None]), axis=1
                )
                n_path = np.minimum(n_path + 1, depth)
            current = headers.targets[walk_rows, walk_predicted]

    return RelaxedPredictionStats(
        trials=n,
        misses=misses,
        wrong_path_predictions=wrong_path_predictions,
    )


def simulate_speculative_exit_prediction(
    workload: Workload,
    predictor: SpeculativePathPredictor,
    wrong_path_depth: int = 4,
    limit: int | None = None,
    vectorize: bool = True,
) -> RelaxedPredictionStats:
    """Run a speculative-history predictor with wrong-path pollution.

    ``wrong_path_depth`` bounds how many wrong-path tasks are fetched and
    predicted before the mispredict resolves — in hardware this is at most
    the number of speculative processing units.

    With ``vectorize=True`` (default) and the ``"perfect"`` repair
    policy, the run is evaluated as a batched PHT replay plus a
    level-synchronous wrong-path walk — bit-identical statistics, no
    per-task Python loop, and the predictor object is not mutated.
    Other repair policies (and ``vectorize=False``) use the stepped
    loop, which mutates the predictor as real hardware would.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    if vectorize:
        stats = _batched_speculative_stats(
            workload, predictor, wrong_path_depth, trace
        )
        if stats is not None:
            return stats
    n_exits_col = workload.headers.n_exits_of(trace.task_addr).tolist()
    headers = workload.headers
    targets_of = headers.exit_rows(headers.targets)
    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()

    trials = 0
    misses = 0
    wrong_path_predictions = 0
    for addr, actual, n_exits in zip(task_addrs, actual_exits, n_exits_col):
        predicted = predictor.predict(addr, n_exits)
        trials += 1
        wrong = predicted != actual
        if wrong:
            misses += 1
            wrong_path_predictions += _pollute(
                predictor,
                targets_of,
                targets_of[addr][predicted],
                wrong_path_depth,
            )
        predictor.resolve(addr, n_exits, actual, was_wrong_path=wrong)
    return RelaxedPredictionStats(
        trials=trials,
        misses=misses,
        wrong_path_predictions=wrong_path_predictions,
    )


def _pollute(
    predictor: SpeculativePathPredictor,
    targets_of: dict[int, tuple],
    wrong_target: int | None,
    depth: int,
) -> int:
    """Predict down the wrong path, polluting history; return step count.

    Wrong-path predictions are never resolved (the hardware squashes those
    tasks before completion), so they train nothing — they only shift
    addresses into the speculative history register.
    """
    steps = 0
    current = wrong_target
    while current is not None and steps < depth:
        targets = targets_of.get(current)
        if targets is None:
            break
        predicted = predictor.predict_wrong_path(current, len(targets))
        steps += 1
        current = targets[predicted]
    return steps
