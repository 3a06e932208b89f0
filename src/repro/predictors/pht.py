"""Pattern history table: a table of multi-way prediction automata.

Entries are created lazily — untouched indices cost nothing in simulation
and the number of touched entries is itself a measured quantity (Figure 11).
Hardware storage accounting always charges the full table, of course.

Two representations coexist:

* :class:`PatternHistoryTable` — the object-per-entry reference used by
  the step-by-step simulators.
* :class:`PackedPatternTable` — a struct-of-arrays twin for the batched
  kernels: all entry state lives in one flat int8 column (one tabulated
  automaton state id per touched entry), advanced whole-trace-at-a-time
  by the segmented FSM scan. Bit-identical to the reference by
  construction, since its transition table is enumerated from live
  automaton objects.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.automata import AutomatonTable, MultiwayAutomaton
from repro.utils.scan import final_fsm_states, segmented_fsm_scan


class PatternHistoryTable:
    """A 2^index_bits-entry table of prediction automata."""

    def __init__(
        self,
        index_bits: int,
        automaton_factory: Callable[[], MultiwayAutomaton],
    ) -> None:
        if index_bits < 1:
            raise PredictorConfigError("PHT needs >= 1 index bit")
        self._index_bits = index_bits
        self._factory = automaton_factory
        self._entries: dict[int, MultiwayAutomaton] = {}

    @property
    def index_bits(self) -> int:
        """Width of the table index."""
        return self._index_bits

    @property
    def factory(self) -> Callable[[], MultiwayAutomaton]:
        """The automaton factory populating new entries."""
        return self._factory

    @property
    def n_entries(self) -> int:
        """Total table capacity."""
        return 1 << self._index_bits

    def entry(self, index: int) -> MultiwayAutomaton:
        """Return the automaton at ``index``, creating it on first touch."""
        if not 0 <= index < self.n_entries:
            raise PredictorConfigError(
                f"index {index} out of range for {self._index_bits}-bit PHT"
            )
        automaton = self._entries.get(index)
        if automaton is None:
            automaton = self._entries[index] = self._factory()
        return automaton

    def states_touched(self) -> int:
        """Distinct entries exercised so far (Figure 11's 'states touched')."""
        return len(self._entries)

    def storage_bits(self) -> int:
        """Full-capacity storage cost in bits."""
        return self.n_entries * self._factory().bits_per_entry()


class PackedPatternTable:
    """Struct-of-arrays PHT: one int8 automaton-state id per entry.

    Entries are addressed by *dense group ids* (``0..n_groups-1``), the
    factorized form of whatever index the owning predictor computes.
    State advances in whole-trace batches through :meth:`replay`; calling
    it several times over consecutive trace slices yields exactly the
    states a single call over the concatenation would. (No caller replays
    in slices yet: checkpointed sweeps resume whole cells.)
    """

    def __init__(self, table: AutomatonTable, n_groups: int) -> None:
        if n_groups < 0:
            raise PredictorConfigError("need n_groups >= 0")
        self._table = table
        self._states = np.zeros(n_groups, dtype=np.int64)

    @property
    def table(self) -> AutomatonTable:
        """The tabulated automaton driving every entry."""
        return self._table

    @property
    def state_column(self) -> np.ndarray:
        """Current per-entry automaton state ids (read-only view)."""
        view = self._states.view()
        view.flags.writeable = False
        return view

    def replay(
        self, group_ids: np.ndarray, inputs: np.ndarray
    ) -> np.ndarray:
        """Advance every touched entry through a trace slice.

        Returns the pre-update state of each step's entry — the state
        its prediction reads — and leaves the column holding the
        post-trace states, ready for the next slice.
        """
        pre_states = segmented_fsm_scan(
            group_ids,
            inputs,
            self._table.transitions,
            initial_states=self._states,
        )
        self._states = final_fsm_states(
            group_ids,
            inputs,
            self._table.transitions,
            pre_states,
            len(self._states),
            initial_states=self._states,
        )
        return pre_states

    def predictions_of(self, states: np.ndarray) -> np.ndarray:
        """Predicted exit of each state id in ``states``."""
        return self._table.predictions[states]


def replay_clamped(
    table: AutomatonTable,
    group_ids: np.ndarray,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay a fresh table over a trace's multiway steps.

    The batched form of a PHT exit predictor's ``predict``/``update``
    pairs: only steps whose task has more than one exit (``n_exits_col``)
    read or train their entry ``group_ids[step]``, and each prediction is
    clamped into the task's exit range. Returns ``(predicted, steps,
    pre_states)``: the per-step predicted exit (0 at single-exit steps),
    the multiway step rows, and the entry state each of them read.
    """
    steps = np.flatnonzero(n_exits_col > 1)
    predicted = np.zeros(len(n_exits_col), dtype=np.int64)
    pre_states = np.zeros(0, dtype=np.int64)
    if steps.size:
        packed = PackedPatternTable(table, int(group_ids[steps].max()) + 1)
        pre_states = packed.replay(group_ids[steps], actual_exits[steps])
        predicted[steps] = np.minimum(
            packed.predictions_of(pre_states), n_exits_col[steps] - 1
        )
    return predicted, steps, pre_states
