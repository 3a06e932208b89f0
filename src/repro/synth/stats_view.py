"""Reusable statistics over workloads: the numbers behind Figures 3 and 4.

Shared by the figure drivers, the workload explorer, and validation, so
exit-arity and exit-type distributions are computed one way everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.controlflow import ControlFlowType, MAX_EXITS_PER_TASK
from repro.isa.headers import ABSENT
from repro.synth.trace import CF_TYPE_CODES
from repro.synth.workloads import Workload

#: Exit types in the paper's presentation order.
EXIT_TYPES = (
    ControlFlowType.BRANCH,
    ControlFlowType.CALL,
    ControlFlowType.RETURN,
    ControlFlowType.INDIRECT_BRANCH,
    ControlFlowType.INDIRECT_CALL,
)

#: The keys of each distribution, and the value each one counts.
_ARITIES = {n: n for n in range(1, MAX_EXITS_PER_TASK + 1)}
_TYPE_CODES = {str(t): CF_TYPE_CODES[t] for t in EXIT_TYPES}


@dataclass(frozen=True)
class WorkloadStats:
    """Distributions over one workload, static and dynamic views.

    All four maps hold fractions summing to 1.0:

    Attributes:
        static_arity: {n_exits: fraction of static tasks}.
        dynamic_arity: {n_exits: fraction of dynamic task executions}.
        static_types: {type name: fraction of static header exits}.
        dynamic_types: {type name: fraction of dynamic exits taken}.
        instructions_per_task: Mean instructions per dynamic task.
    """

    static_arity: dict[int, float]
    dynamic_arity: dict[int, float]
    static_types: dict[str, float]
    dynamic_types: dict[str, float]
    instructions_per_task: float

    @property
    def dynamic_indirect_share(self) -> float:
        """Dynamic fraction of INDIRECT_BRANCH + INDIRECT_CALL exits."""
        return (
            self.dynamic_types[str(ControlFlowType.INDIRECT_BRANCH)]
            + self.dynamic_types[str(ControlFlowType.INDIRECT_CALL)]
        )


def _shares(values: np.ndarray, keys: dict) -> dict:
    """Share of ``values`` equal to each key's value (keys cover them all)."""
    found, counts = np.unique(values, return_counts=True)
    by_value = dict(zip(found.tolist(), counts.tolist()))
    return {
        key: by_value.get(value, 0) / len(values)
        for key, value in keys.items()
    }


def compute_stats(workload: Workload) -> WorkloadStats:
    """Measure all Figure 3/4 distributions for one workload."""
    headers = workload.headers
    trace = workload.trace
    static_cf_codes = headers.cf_codes[headers.cf_codes != ABSENT]
    return WorkloadStats(
        static_arity=_shares(headers.n_exits, _ARITIES),
        dynamic_arity=_shares(headers.n_exits_of(trace.task_addr), _ARITIES),
        static_types=_shares(static_cf_codes, _TYPE_CODES),
        dynamic_types=_shares(trace.cf_type, _TYPE_CODES),
        instructions_per_task=trace.total_instructions() / len(trace),
    )
