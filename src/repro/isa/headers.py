"""A program's task headers as columns, for the batched simulators.

The sequencer resolves each next-task prediction from the task header
(§5.3): the exit count, the exit types, the BRANCH/CALL targets and the
return addresses of call exits. The batched simulation paths read those
facts for a whole trace at once, through one :class:`HeaderTable` per
program and one address-to-row lookup per trace address column.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.isa.controlflow import CF_TYPE_CODES
from repro.isa.program import MultiscalarProgram
from repro.utils.memo import DerivedColumnCache, int64_column

#: Fill of every cell a header does not supply: a target the compiler
#: left null, the return address of a non-call exit, an exit slot past
#: the task's last exit. No address or control-flow code is negative.
ABSENT = -1

#: Header tables per program and row columns per (address column, table).
_COLUMNS = DerivedColumnCache()

#: The names of a table's int64 columns (see :meth:`HeaderTable.columns`).
COLUMN_NAMES = (
    "addrs", "n_exits", "create_mask", "use_mask", "cf_codes", "targets",
    "return_addrs",
)


class HeaderTable:
    """Every task header of one program, one row per task.

    Rows are sorted by task address (``addrs``). ``n_exits``,
    ``create_mask`` and ``use_mask`` hold one value per task;
    ``cf_codes``, ``targets`` and ``return_addrs`` are ``(tasks, max
    exits)``, column ``e`` describing exit ``e``, with :data:`ABSENT`
    wherever the header has nothing to give. Shared through :meth:`of`,
    or rebuilt with no program by :meth:`from_columns` (as the trace
    cache does): treat every column as read-only.
    """

    def __init__(self, program: MultiscalarProgram) -> None:
        tasks = sorted(program.tfg, key=lambda task: task.address)
        self.addrs = np.array([t.address for t in tasks], dtype=np.int64)
        self.n_exits = np.array([t.n_exits for t in tasks], dtype=np.int64)
        self.create_mask = np.array(
            [t.header.create_mask for t in tasks], dtype=np.int64
        )
        self.use_mask = np.array([t.use_mask for t in tasks], dtype=np.int64)
        # One flat pass over every exit, scattered into the 2-D columns
        # with a single fancy-indexed store per column.
        flat = [e for task in tasks for e in task.header.exits]
        rows = np.repeat(np.arange(len(tasks)), self.n_exits)
        row_starts = np.cumsum(self.n_exits) - self.n_exits
        cols = np.arange(len(flat)) - row_starts[rows]
        shape = (len(tasks), int(self.n_exits.max()))

        def column(values: list[int]) -> np.ndarray:
            out = np.full(shape, ABSENT, dtype=np.int64)
            out[rows, cols] = values
            return out

        self.cf_codes = column([CF_TYPE_CODES[e.cf_type] for e in flat])
        self.targets = column(
            [ABSENT if e.target is None else e.target for e in flat]
        )
        self.return_addrs = column(
            [
                ABSENT if e.return_address is None else e.return_address
                for e in flat
            ]
        )

    @classmethod
    def of(cls, program: MultiscalarProgram) -> HeaderTable:
        """The program's table, built once while the program lives."""
        return _COLUMNS.get((program,), "header-table", lambda: cls(program))

    def columns(self) -> dict[str, np.ndarray]:
        """Every column by name: what :meth:`from_columns` rebuilds from."""
        return {name: getattr(self, name) for name in COLUMN_NAMES}

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray]) -> HeaderTable:
        """The table with these :meth:`columns`; KeyError if one is missing."""
        table = cls.__new__(cls)
        for name in COLUMN_NAMES:
            setattr(table, name, np.asarray(columns[name], dtype=np.int64))
        return table

    def exit_rows(self, column: np.ndarray) -> dict[int, tuple]:
        """Task address -> its exits' cells of a 2-D column, ABSENT as None."""
        return {
            addr: tuple(None if cell == ABSENT else cell for cell in row[:n])
            for addr, n, row in zip(
                self.addrs.tolist(), self.n_exits.tolist(), column.tolist()
            )
        }

    def n_exits_of(self, task_addrs: np.ndarray) -> np.ndarray:
        """Header-exit count of every step of a trace address column.

        Raises :class:`SimulationError` as :meth:`rows` does.
        """
        return self.n_exits[self.rows(task_addrs)]

    def lookup(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, known)`` per address; an unknown address's row is junk.

        For address columns that may leave the program, such as the
        wrong-path walk; trace columns go through :meth:`rows`.
        """
        rows = np.minimum(
            np.searchsorted(self.addrs, addrs), len(self.addrs) - 1
        )
        return rows, self.addrs[rows] == addrs

    def rows(self, task_addrs: np.ndarray) -> np.ndarray:
        """Row of every step of a trace address column (cached per column).

        Raises :class:`SimulationError` naming the first address at which
        the program has no task.
        """

        def build() -> np.ndarray:
            addrs = int64_column(task_addrs)
            rows, known = self.lookup(addrs)
            if not known.all():
                missing = int(addrs[np.argmin(known)])
                raise SimulationError(
                    f"trace references unknown task {missing:#x}"
                )
            return rows

        return _COLUMNS.get((task_addrs, self), "rows", build)
