"""Composed next-task predictors (paper §5.3, §5.4, §6.4.2; Table 3).

:class:`HeaderTaskPredictor` is the paper's full mechanism: an exit
predictor chooses one of the header's exits, then the target is resolved by
exit type — header target for BRANCH/CALL, return address stack for RETURN,
correlated task target buffer for the indirect types. Call-type exits push
their header return address onto the RAS.

:class:`CttbOnlyTaskPredictor` is the headerless alternative of §5.4: the
whole next-task address comes from one correlated target buffer, every exit
type competing for its entries and no RAS possible — cheaper to sequence,
4–54% worse at 4x the storage (Table 3).

:class:`PerfectTaskPredictor` replays the trace: the upper bound of Table 4.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PredictorConfigError, SimulationError
from repro.isa.controlflow import CF_TYPE_CODES, ControlFlowType
from repro.isa.headers import HeaderTable
from repro.isa.program import MultiscalarProgram
from repro.predictors.base import ExitPredictor, NextTaskPredictor
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.ttb import (
    NO_PREDICTION,
    CorrelatedTaskTargetBuffer,
    pretarget_column,
)
from repro.synth.trace import TaskTrace
from repro.utils.memo import DerivedColumnCache, int64_column

#: Columns derived from (trace, headers) pairs that every scheme in a
#: sweep re-derives identically: the per-task header dict of the stepped
#: path, the actual call/return stack timeline, target-buffer entry
#: timelines.
_DERIVED = DerivedColumnCache()

_CF_RETURN = CF_TYPE_CODES[ControlFlowType.RETURN]
_CF_CALL = CF_TYPE_CODES[ControlFlowType.CALL]
_CF_ICALL = CF_TYPE_CODES[ControlFlowType.INDIRECT_CALL]
_CF_IBRANCH = CF_TYPE_CODES[ControlFlowType.INDIRECT_BRANCH]


def _ras_timeline(
    cf_codes: np.ndarray,
    return_col: np.ndarray,
    depth: int,
    addrs: np.ndarray,
    actual_exits: np.ndarray,
) -> np.ndarray:
    """Top of the return-address stack just before every step.

    Replays the *actual* call/return stream (scheme-independent: the RAS
    trains on committed control flow) through an inlined circular stack,
    recording the stack top after each event; a cumulative-count gather
    expands that to a per-step column. ``addrs`` / ``actual_exits`` only
    feed the error message for a call exit with no return address.
    """
    writes = (
        (cf_codes == _CF_RETURN)
        | (cf_codes == _CF_CALL)
        | (cf_codes == _CF_ICALL)
    )
    write_rows = np.flatnonzero(writes)
    top_values: list[int] = [NO_PREDICTION]
    record = top_values.append
    entries = [0] * depth
    top = 0
    count = 0
    is_return = _CF_RETURN
    for row, cf_code, return_addr in zip(
        write_rows.tolist(),
        cf_codes[write_rows].tolist(),
        return_col[write_rows].tolist(),
    ):
        if cf_code == is_return:
            if count:
                top = top - 1 if top else depth - 1
                count -= 1
        else:
            if return_addr < 0:
                raise SimulationError(
                    f"call exit {int(actual_exits[row])} of task "
                    f"{int(addrs[row]):#x} has no return address "
                    "in its header"
                )
            entries[top] = return_addr
            top += 1
            if top == depth:
                top = 0
            if count < depth:
                count += 1
        record(entries[top - 1] if count else NO_PREDICTION)
    tops = np.array(top_values, dtype=np.int64)
    events_before = np.cumsum(writes, dtype=np.int64) - writes
    return tops[events_before]


def _build_task_info(headers: HeaderTable) -> dict[int, tuple]:
    """Task address -> (cf codes, targets, return addresses) of its exits."""
    columns = [
        headers.exit_rows(column)
        for column in (headers.cf_codes, headers.targets, headers.return_addrs)
    ]
    return {addr: tuple(rows[addr] for rows in columns) for addr in columns[0]}


class HeaderTaskPredictor(NextTaskPredictor):
    """Exit predictor + header targets + RAS + CTTB (the paper's design).

    ``program`` supplies the task headers: a program, or its
    :class:`HeaderTable` (such as a workload's ``headers``).
    """

    def __init__(
        self,
        program: MultiscalarProgram | HeaderTable,
        exit_predictor: ExitPredictor,
        cttb: CorrelatedTaskTargetBuffer,
        ras: ReturnAddressStack | None = None,
    ) -> None:
        if not isinstance(program, HeaderTable):
            program = HeaderTable.of(program)
        self._headers = program
        self._info_cache: dict[int, tuple] | None = None
        self._exit_predictor = exit_predictor
        self._cttb = cttb
        self._ras = ras if ras is not None else ReturnAddressStack(depth=32)

    @property
    def exit_predictor(self) -> ExitPredictor:
        """The exit-choice component."""
        return self._exit_predictor

    @property
    def _info(self) -> dict[int, tuple]:
        # Built lazily: batched runs resolve headers through the
        # HeaderTable columns and never need the stepped path's dict.
        info = self._info_cache
        if info is None:
            headers = self._headers
            info = _DERIVED.get(
                (headers,), "task-info", lambda: _build_task_info(headers)
            )
            self._info_cache = info
        return info

    def _task(self, task_addr: int) -> tuple:
        try:
            return self._info[task_addr]
        except KeyError:
            raise SimulationError(
                f"trace references unknown task {task_addr:#x}"
            ) from None

    def predict(self, task_addr: int) -> int:
        cf_codes, targets, _ = self._task(task_addr)
        exit_index = self._exit_predictor.predict(task_addr, len(cf_codes))
        cf_code = cf_codes[exit_index]
        if cf_code == _CF_RETURN:
            predicted = self._ras.peek()
        elif cf_code in (_CF_IBRANCH, _CF_ICALL):
            predicted = self._cttb.predict(task_addr)
        else:  # BRANCH / CALL: the compiler put the target in the header
            predicted = targets[exit_index]
        return predicted if predicted is not None else NO_PREDICTION

    def update(
        self,
        task_addr: int,
        actual_exit: int,
        actual_cf_code: int,
        actual_next_addr: int,
    ) -> None:
        cf_codes, _, return_addrs = self._task(task_addr)
        self._exit_predictor.update(task_addr, len(cf_codes), actual_exit)
        if actual_cf_code in (_CF_IBRANCH, _CF_ICALL):
            self._cttb.update(task_addr, actual_next_addr)
        self._cttb.observe_step(task_addr)
        # RAS tracks the actual (committed) call/return stream; this is the
        # perfect-repair idealisation of §3.1.
        if actual_cf_code == _CF_RETURN:
            self._ras.pop()
        elif actual_cf_code in (_CF_CALL, _CF_ICALL):
            return_addr = return_addrs[actual_exit]
            if return_addr is None:
                raise SimulationError(
                    f"call exit {actual_exit} of task {task_addr:#x} "
                    "has no return address in its header"
                )
            self._ras.push(return_addr)

    def storage_bits(self) -> int:
        return (
            self._exit_predictor.storage_bits()
            + self._cttb.storage_bits()
            + self._ras.storage_bits()
        )

    def batch_predicted_addrs(
        self,
        task_addrs: np.ndarray,
        predicted_exits: np.ndarray | None,
        actual_exits: np.ndarray,
        cf_codes: np.ndarray,
        next_addrs: np.ndarray,
    ) -> np.ndarray | None:
        """Full per-step predicted-address column, or None.

        ``predicted_exits`` is the exit predictor's batched output (see
        :func:`repro.sim.functional.batched_exit_prediction_column`); the
        remaining columns are the trace's actual outcomes, which drive
        RAS and CTTB training exactly as per-step ``update`` calls would.
        Only valid for a freshly constructed predictor; the object is not
        mutated. Returns None when a component has no batched form.
        """
        if predicted_exits is None:
            return None
        slot_fn = getattr(self._cttb, "batch_slot_ids", None)
        if slot_fn is None:
            return None
        addrs = int64_column(task_addrs)
        slot_ids = slot_fn(addrs)
        if slot_ids is None:
            return None
        headers = self._headers
        rows = headers.rows(task_addrs)
        predicted_exits = int64_column(predicted_exits)
        actual_exits = int64_column(actual_exits)
        cf_codes = int64_column(cf_codes)
        next_addrs = int64_column(next_addrs)
        predicted_cf = headers.cf_codes[rows, predicted_exits]

        # Header targets answer BRANCH/CALL exits; RAS and CTTB rows are
        # overwritten below (every such row is a "read" of its structure).
        out = headers.targets[rows, predicted_exits].copy()

        # Both timelines replay the actual (committed) outcome stream, so
        # they are identical for every scheme over a given trace — they
        # are built once and shared; only the read masks differ per cell.
        ras_top = _DERIVED.get(
            (task_addrs, cf_codes, actual_exits, headers),
            ("ras-top", self._ras.depth),
            lambda: _ras_timeline(
                cf_codes,
                headers.return_addrs[rows, actual_exits],
                self._ras.depth,
                addrs,
                actual_exits,
            ),
        )
        ras_reads = predicted_cf == _CF_RETURN
        np.copyto(out, ras_top, where=ras_reads)

        cttb_pre = _DERIVED.get(
            (slot_ids, cf_codes, next_addrs),
            ("cttb-pre", "indirect"),
            lambda: pretarget_column(
                slot_ids,
                (cf_codes == _CF_IBRANCH) | (cf_codes == _CF_ICALL),
                next_addrs,
            ),
        )
        cttb_reads = (predicted_cf == _CF_IBRANCH) | (
            predicted_cf == _CF_ICALL
        )
        np.copyto(out, cttb_pre, where=cttb_reads)
        return out


class CttbOnlyTaskPredictor(NextTaskPredictor):
    """Headerless prediction: the CTTB alone supplies the next address.

    Every task's next address is predicted from (and trained into) one
    path-indexed buffer, regardless of exit type. Return addresses can only
    be learned by path correlation — no RAS is possible, which is the
    scheme's main accuracy cost (§5.4).
    """

    def __init__(self, cttb: CorrelatedTaskTargetBuffer) -> None:
        self._cttb = cttb

    def predict(self, task_addr: int) -> int:
        predicted = self._cttb.predict(task_addr)
        return predicted if predicted is not None else NO_PREDICTION

    def update(
        self,
        task_addr: int,
        actual_exit: int,
        actual_cf_code: int,
        actual_next_addr: int,
    ) -> None:
        self._cttb.update(task_addr, actual_next_addr)
        self._cttb.observe_step(task_addr)

    def storage_bits(self) -> int:
        return self._cttb.storage_bits()

    def batch_predicted_addrs(
        self,
        task_addrs: np.ndarray,
        predicted_exits: np.ndarray | None,
        actual_exits: np.ndarray,
        cf_codes: np.ndarray,
        next_addrs: np.ndarray,
    ) -> np.ndarray | None:
        """Predicted-address column: every step reads and trains the CTTB.

        Same contract as :meth:`HeaderTaskPredictor.batch_predicted_addrs`
        (``predicted_exits`` is unused — there is no exit predictor).
        """
        slot_fn = getattr(self._cttb, "batch_slot_ids", None)
        if slot_fn is None:
            return None
        addrs = int64_column(task_addrs)
        slot_ids = slot_fn(addrs)
        if slot_ids is None:
            return None
        targets = int64_column(next_addrs)
        everywhere = np.ones(len(addrs), dtype=bool)
        pre = _DERIVED.get(
            (slot_ids, targets),
            ("cttb-pre", "all"),
            lambda: pretarget_column(slot_ids, everywhere, targets),
        )
        return pre.copy()


class PerfectTaskPredictor(NextTaskPredictor):
    """Oracle predictor: replays the trace's actual successors (Table 4)."""

    def __init__(self, trace: TaskTrace) -> None:
        self._next_addr = trace.next_addr
        self._task_addr = trace.task_addr
        self._cursor = 0

    def predict(self, task_addr: int) -> int:
        if self._cursor >= len(self._next_addr):
            raise SimulationError("perfect predictor ran past its trace")
        if int(self._task_addr[self._cursor]) != task_addr:
            raise PredictorConfigError(
                "perfect predictor queried out of trace order"
            )
        return int(self._next_addr[self._cursor])

    def update(
        self,
        task_addr: int,
        actual_exit: int,
        actual_cf_code: int,
        actual_next_addr: int,
    ) -> None:
        self._cursor += 1

    def storage_bits(self) -> int:
        return 0

    def batch_predicted_addrs(
        self,
        task_addrs: np.ndarray,
        predicted_exits: np.ndarray | None,
        actual_exits: np.ndarray,
        cf_codes: np.ndarray,
        next_addrs: np.ndarray,
    ) -> np.ndarray | None:
        """The oracle's column is the trace's successor column, verbatim.

        Same contract as :meth:`HeaderTaskPredictor.batch_predicted_addrs`;
        only the address column is consulted (to check trace order).
        """
        addrs = int64_column(task_addrs)
        n = len(addrs)
        if n > len(self._task_addr) or not np.array_equal(
            addrs, int64_column(self._task_addr[:n])
        ):
            raise PredictorConfigError(
                "perfect predictor queried out of trace order"
            )
        return int64_column(self._next_addr[:n])
