"""Task-level execution traces.

A :class:`TaskTrace` is the record of one program run at task granularity:
for every dynamically executed task, which task it was, which header exit it
took, the exit's control-flow type, the next task's start address, and the
intra-task cost figures the timing simulator consumes. Storage is columnar
(numpy arrays) because the prediction simulators stream over hundreds of
thousands of records.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.isa.controlflow import CF_TYPE_CODES, ControlFlowType

CF_TYPE_FROM_CODE: dict[int, ControlFlowType] = {
    code: cf for cf, code in CF_TYPE_CODES.items()
}

def _columns_digest(arrays: dict, program_name: str) -> str:
    """SHA-256 over every column's name, dtype, shape, and bytes.

    Trace columns come first, then any extra columns by name.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(program_name.encode("utf-8"))
    extras = sorted(name for name in arrays if name not in _FIELDS)
    for name in (*_FIELDS, *extras):
        column = np.asarray(arrays[name])
        digest.update(
            f"\n{name}:{column.dtype.str}:{column.shape}\n".encode("utf-8")
        )
        digest.update(column.tobytes())
    return digest.hexdigest()


_FIELDS = (
    "task_addr",
    "exit_index",
    "cf_type",
    "next_addr",
    "instructions",
    "internal_branches",
    "internal_mispredicts",
)


@dataclass(frozen=True)
class TaskTrace:
    """Columnar task-level trace of one program execution.

    Attributes:
        task_addr: Start address of each executed task (uint32).
        exit_index: Header exit index taken, 0..3 (uint8).
        cf_type: Control-flow type code of the taken exit (uint8, see
            :data:`CF_TYPE_CODES`).
        next_addr: Start address of the following task (uint32).
        instructions: Instructions retired by this task execution (uint16).
        internal_branches: Intra-task conditional branches resolved (uint16).
        internal_mispredicts: Of those, how many the intra-task bimodal
            predictor missed (uint16).
        program_name: Name of the program that produced the trace.
    """

    task_addr: np.ndarray
    exit_index: np.ndarray
    cf_type: np.ndarray
    next_addr: np.ndarray
    instructions: np.ndarray
    internal_branches: np.ndarray
    internal_mispredicts: np.ndarray
    program_name: str = ""

    def __post_init__(self) -> None:
        length = len(self.task_addr)
        for name in _FIELDS:
            if len(getattr(self, name)) != length:
                raise TraceError(
                    f"trace column {name!r} has mismatched length"
                )

    def __len__(self) -> int:
        return len(self.task_addr)

    @property
    def dynamic_task_count(self) -> int:
        """Number of dynamic task executions (Table 2, 'Dynamic Tasks')."""
        return len(self)

    def distinct_tasks_seen(self) -> int:
        """Number of distinct static tasks executed (Table 2)."""
        return int(np.unique(self.task_addr).size)

    def total_instructions(self) -> int:
        """Instructions retired across the whole trace."""
        return int(self.instructions.sum(dtype=np.int64))

    def head(self, n: int) -> "TaskTrace":
        """Return a trace containing only the first ``n`` records."""
        if n < 0:
            raise TraceError("head length must be >= 0")
        return TaskTrace(
            **{name: getattr(self, name)[:n] for name in _FIELDS},
            program_name=self.program_name,
        )

    def save(self, path: Path | str, extra: dict | None = None) -> None:
        """Save the trace to a compressed .npz file.

        The file embeds a SHA-256 checksum over every column, so a
        record damaged after its atomic publication (bad sector, torn
        copy, deliberate chaos-test corruption) is detected at load
        time instead of silently feeding wrong data to a simulator.
        ``extra`` columns are stored beside the trace's, under the same
        checksum; :meth:`load` reads them back.
        """
        arrays = {name: getattr(self, name) for name in _FIELDS}
        arrays.update(extra or {})
        np.savez_compressed(
            Path(path),
            program_name=np.array(self.program_name),
            checksum=np.array(_columns_digest(arrays, self.program_name)),
            **arrays,
        )

    @classmethod
    def load(
        cls, path: Path | str, extra: dict | None = None
    ) -> "TaskTrace":
        """Load a trace previously written by :meth:`save`.

        Raises :class:`~repro.errors.TraceError` when the embedded
        checksum does not match the loaded columns (files written
        before checksums existed load unverified). The trace cache
        treats that as a miss and regenerates. Columns saved as
        ``extra`` are put into ``extra`` when a dict is given.
        """
        with np.load(Path(path)) as data:
            missing = [name for name in _FIELDS if name not in data]
            if missing:
                raise TraceError(f"trace file missing columns: {missing}")
            arrays = {
                name: data[name]
                for name in data.files
                if name not in ("program_name", "checksum")
            }
            program_name = str(data["program_name"])
            if "checksum" in data:
                stored = str(data["checksum"])
                computed = _columns_digest(arrays, program_name)
                if stored != computed:
                    raise TraceError(
                        f"trace file {path} checksum mismatch "
                        f"({computed[:12]}... != {stored[:12]}...): "
                        "file damaged after write"
                    )
        fields = {name: arrays.pop(name) for name in _FIELDS}
        if extra is not None:
            extra.update(arrays)
        return cls(**fields, program_name=program_name)


def _saturated(counts: list[int]) -> np.ndarray:
    """``counts`` as uint16, each clamped to at most 0xFFFF."""
    return np.minimum(counts, 0xFFFF).astype(np.uint16)


class TraceBuilder:
    """Accumulates trace records and freezes them into a :class:`TaskTrace`."""

    def __init__(self, program_name: str = "") -> None:
        self._program_name = program_name
        self._task_addr: list[int] = []
        self._exit_index: list[int] = []
        self._cf_type: list[int] = []
        self._next_addr: list[int] = []
        self._instructions: list[int] = []
        self._internal_branches: list[int] = []
        self._internal_mispredicts: list[int] = []

    def __len__(self) -> int:
        return len(self._task_addr)

    def append(
        self,
        task_addr: int,
        exit_index: int,
        cf_type_code: int,
        next_addr: int,
        instructions: int,
        internal_branches: int,
        internal_mispredicts: int,
    ) -> None:
        """Append one task-execution record (counts saturate in :meth:`build`)."""
        self._task_addr.append(task_addr)
        self._exit_index.append(exit_index)
        self._cf_type.append(cf_type_code)
        self._next_addr.append(next_addr)
        self._instructions.append(instructions)
        self._internal_branches.append(internal_branches)
        self._internal_mispredicts.append(internal_mispredicts)

    def build(self) -> TaskTrace:
        """Freeze the accumulated records into an immutable trace."""
        return TaskTrace(
            task_addr=np.asarray(self._task_addr, dtype=np.uint32),
            exit_index=np.asarray(self._exit_index, dtype=np.uint8),
            cf_type=np.asarray(self._cf_type, dtype=np.uint8),
            next_addr=np.asarray(self._next_addr, dtype=np.uint32),
            instructions=_saturated(self._instructions),
            internal_branches=_saturated(self._internal_branches),
            internal_mispredicts=_saturated(self._internal_mispredicts),
            program_name=self._program_name,
        )
