"""Task target buffers (paper §5.3, §6.4; Figures 8 and 12).

Indirect branches and indirect calls have targets the compiler cannot place
in the task header, so they must be predicted. Three structures:

* :class:`TaskTargetBuffer` (TTB) — a BTB analogue indexed by bits of the
  task's start address. The paper found it performs *very poorly* for
  Multiscalar indirect exits (59% / 39% miss on gcc / xlisp even with
  infinite size) because the same task reaches different targets depending
  on context.
* :class:`CorrelatedTaskTargetBuffer` (CTTB) — the paper's fix: index with
  the same path-history DOLC fold used by the exit predictor, so entries
  are per-path rather than per-task.
* :class:`IdealCorrelatedTargetBuffer` — alias-free CTTB (infinite table,
  full path key) for the ideal curves of Figure 8.

Each entry stores a target address and a 2-bit saturating hysteresis
counter: a hit increments, a different target decrements, and the stored
target is replaced only when the counter has drained to zero.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.folding import DolcSpec
from repro.utils.memo import int64_column
from repro.utils.bits import bit_mask
from repro.utils.scan import stable_argsort
from repro.utils.windows import factorize, group_by_path

_ALIGN_SHIFT = 2

#: 2-bit hysteresis counter bounds.
_COUNTER_MAX = 3
_COUNTER_BITS = 2

#: Sentinel predicted address when no structure can supply a target.
NO_PREDICTION = 0


class _TargetEntry:
    """One buffer entry: a predicted target with 2-bit hysteresis."""

    __slots__ = ("target", "counter")

    def __init__(self, target: int) -> None:
        self.target = target
        self.counter = 1

    def update(self, actual_target: int) -> None:
        if actual_target == self.target:
            if self.counter < _COUNTER_MAX:
                self.counter += 1
        elif self.counter > 0:
            self.counter -= 1
        else:
            self.target = actual_target
            self.counter = 1


def pretarget_column(
    slot_ids: np.ndarray,
    writes: np.ndarray,
    actual_targets: np.ndarray,
) -> np.ndarray:
    """Per-step target a buffer entry holds, before that step trains.

    The batched form of :class:`_TargetEntry`: the training stream
    (``writes`` rows, in trace order) is replayed once through the
    hysteresis rule, recording each slot's stored target after every
    write; a grouped forward-fill then gives every step the last value
    written to its slot strictly earlier — what a read at that step
    would observe, for *any* read mask. Rows whose slot was never
    written resolve to :data:`NO_PREDICTION`.
    """
    n = len(slot_ids)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    write_rows = np.flatnonzero(writes)
    target_after = np.zeros(n, dtype=np.int64)
    n_slots = int(slot_ids.max()) + 1
    target_of: list[int | None] = [None] * n_slots
    counter_of = [0] * n_slots
    stored_targets: list[int | None] = []
    record = stored_targets.append
    for slot, actual in zip(
        slot_ids[write_rows].tolist(),
        actual_targets[write_rows].tolist(),
    ):
        stored = target_of[slot]
        if stored is None:
            target_of[slot] = actual
            counter_of[slot] = 1
        elif actual == stored:
            if counter_of[slot] < _COUNTER_MAX:
                counter_of[slot] += 1
        elif counter_of[slot] > 0:
            counter_of[slot] -= 1
        else:
            target_of[slot] = actual
            counter_of[slot] = 1
        record(target_of[slot])
    target_after[write_rows] = stored_targets

    # Grouped forward-fill: sort by slot (stable, so trace order holds
    # within a slot), encode (segment, write position + 1) so one running
    # maximum finds the latest earlier write without crossing segments.
    order = stable_argsort(slot_ids)
    sorted_slots = slot_ids[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_slots[1:] != sorted_slots[:-1]
    segment = np.cumsum(starts, dtype=np.int64) - 1
    stride = np.int64(n + 1)
    write_pos = np.where(
        writes[order], np.arange(1, n + 1, dtype=np.int64), 0
    )
    run = np.maximum.accumulate(segment * stride + write_pos)
    prev = np.empty(n, dtype=np.int64)
    prev[0] = -1
    prev[1:] = run[:-1]
    last_write = prev - segment * stride  # 1-based, <= 0 when none
    source = order[np.maximum(last_write, 1) - 1]
    pre_sorted = np.where(
        last_write >= 1, target_after[source], NO_PREDICTION
    )
    pre = np.empty(n, dtype=np.int64)
    pre[order] = pre_sorted
    return pre


class _BufferBase:
    """Shared predict/update over a lazily populated entry map."""

    #: Whether :meth:`observe_step` carries state (path-indexed buffers).
    #: The functional simulator skips non-indirect steps entirely for
    #: buffers that don't observe them.
    observes_steps = True

    def __init__(self, address_bits: int = 32) -> None:
        self._entries: dict[int | tuple, _TargetEntry] = {}
        self._address_bits = address_bits

    def _slot(self, task_addr: int):
        raise NotImplementedError

    def predict(self, task_addr: int) -> int | None:
        """Predicted target address, or None on a compulsory miss."""
        entry = self._entries.get(self._slot(task_addr))
        return entry.target if entry is not None else None

    def update(self, task_addr: int, actual_target: int) -> None:
        """Train the entry for this task/path on the actual target."""
        slot = self._slot(task_addr)
        entry = self._entries.get(slot)
        if entry is None:
            self._entries[slot] = _TargetEntry(actual_target)
        else:
            entry.update(actual_target)

    def entries_touched(self) -> int:
        """Distinct buffer slots exercised so far."""
        return len(self._entries)


class TaskTargetBuffer(_BufferBase):
    """Plain TTB: direct-mapped on task-address bits (no path correlation)."""

    observes_steps = False

    def __init__(self, index_bits: int = 11, address_bits: int = 32) -> None:
        super().__init__(address_bits)
        if index_bits < 1:
            raise PredictorConfigError("TTB needs >= 1 index bit")
        self._index_bits = index_bits

    def _slot(self, task_addr: int) -> int:
        return (task_addr >> _ALIGN_SHIFT) & bit_mask(self._index_bits)

    def observe_step(self, task_addr: int) -> None:
        """No-op: a plain TTB keeps no history. Present for API symmetry."""

    def batch_slot_ids(
        self, task_addrs: np.ndarray
    ) -> np.ndarray | None:
        """Vectorized :meth:`_slot` over a whole trace column.

        Returns dense slot ids for the batched kernel in
        :mod:`repro.sim.functional`; ids are only meaningful relative to
        each other. Only valid for a freshly constructed buffer.
        """
        slots = (
            int64_column(task_addrs) >> _ALIGN_SHIFT
        ) & bit_mask(self._index_bits)
        ids, _ = factorize(slots)
        return ids

    def storage_bits(self) -> int:
        """Full-capacity cost: a target and counter per entry."""
        return (1 << self._index_bits) * (
            self._address_bits + _COUNTER_BITS
        )


class CorrelatedTaskTargetBuffer(_BufferBase):
    """CTTB: indexed by the DOLC path fold, like the exit predictor.

    The caller must feed *every* retired task through
    :meth:`observe_step` so the path register tracks program progress, and
    call :meth:`predict`/:meth:`update` only at indirect exits.
    """

    def __init__(self, spec: DolcSpec, address_bits: int = 32) -> None:
        super().__init__(address_bits)
        self._spec = spec
        self._path: deque[int] = deque(maxlen=max(1, spec.depth))

    @property
    def spec(self) -> DolcSpec:
        """The index specification in force."""
        return self._spec

    def _slot(self, task_addr: int) -> int:
        return self._spec.index(task_addr, self._path)

    def observe_step(self, task_addr: int) -> None:
        """Shift a retired task's address into the path register."""
        if self._spec.depth:
            self._path.append(task_addr)

    def batch_slot_ids(
        self, task_addrs: np.ndarray
    ) -> np.ndarray | None:
        """Vectorized :meth:`_slot` over a whole trace column.

        The slot of step ``i`` is the DOLC fold of its address and the
        path register as of step ``i`` — the previous ``depth`` task
        addresses, since every step is fed through :meth:`observe_step`.
        That is exactly :meth:`DolcSpec.index_column`. Only valid for a
        freshly constructed buffer.
        """
        addrs = int64_column(task_addrs)
        return self._spec.index_column(addrs)

    def storage_bits(self) -> int:
        """Full-capacity cost: a target and counter per entry."""
        return self._spec.table_entries * (
            self._address_bits + _COUNTER_BITS
        )


class IdealCorrelatedTargetBuffer(_BufferBase):
    """Alias-free CTTB: unbounded, keyed by the exact path (Figure 8)."""

    def __init__(self, depth: int, address_bits: int = 32) -> None:
        super().__init__(address_bits)
        if depth < 0:
            raise PredictorConfigError("history depth must be >= 0")
        self._depth = depth
        self._path: deque[int] = deque(maxlen=depth) if depth else deque()

    def _slot(self, task_addr: int) -> tuple:
        return (task_addr, tuple(self._path))

    def observe_step(self, task_addr: int) -> None:
        """Shift a retired task's address into the path register."""
        if self._depth:
            self._path.append(task_addr)

    def batch_slot_ids(
        self, task_addrs: np.ndarray
    ) -> np.ndarray | None:
        """Vectorized :meth:`_slot` over a whole trace column.

        The slot key of step ``i`` is the task address plus the path
        register as of step ``i`` — the previous ``depth`` task addresses,
        since every step is fed through :meth:`observe_step`. Only valid
        for a freshly constructed buffer.
        """
        addrs = int64_column(task_addrs)
        return group_by_path(addrs, self._depth)

    def storage_bits(self) -> int:
        return 0  # unbounded by definition
