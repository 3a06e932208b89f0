"""Workload validation: does a synthetic workload match its calibration?

Each benchmark profile targets the paper's Table 2 statistics (static task
count, distinct tasks seen) and the qualitative properties of Figures 3–4.
:func:`validate_workload` measures a workload against those targets and
returns a graded report, so profile drift (after generator changes) is
caught by tests rather than discovered as a mysteriously wrong figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synth.trace import CF_TYPE_CODES
from repro.synth.workloads import Workload
from repro.isa.controlflow import ControlFlowType

#: Relative tolerance for count targets (static tasks, distinct seen).
DEFAULT_TOLERANCE = 0.6


@dataclass(frozen=True)
class ValidationCheck:
    """One validated property.

    Attributes:
        name: What was checked.
        ok: Whether it passed.
        measured: The measured value.
        target: The calibration target (None for structural checks).
        detail: Human-readable explanation.
    """

    name: str
    ok: bool
    measured: float
    target: float | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """All checks for one workload."""

    benchmark: str
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(check.ok for check in self.checks)

    def failures(self) -> list[ValidationCheck]:
        """The checks that failed."""
        return [check for check in self.checks if not check.ok]

    def __str__(self) -> str:
        lines = [f"validation: {self.benchmark}"]
        for check in self.checks:
            mark = "ok " if check.ok else "FAIL"
            lines.append(f"  [{mark}] {check.name}: {check.detail}")
        return "\n".join(lines)


def _ratio_check(
    name: str, measured: float, target: float, tolerance: float
) -> ValidationCheck:
    if target == 0:
        ok = measured == 0
        detail = f"measured {measured}, target 0"
    else:
        ratio = measured / target
        ok = (1 - tolerance) <= ratio <= 1 / (1 - tolerance)
        detail = (
            f"measured {measured:.0f} vs target {target:.0f} "
            f"(ratio {ratio:.2f})"
        )
    return ValidationCheck(
        name=name, ok=ok, measured=measured, target=target, detail=detail
    )


def validate_workload(
    workload: Workload, tolerance: float = DEFAULT_TOLERANCE
) -> ValidationReport:
    """Check a workload against its profile's calibration targets.

    Structural checks always apply (trace chaining, exit legality); count
    checks compare against the paper's Table 2 within ``tolerance``
    (relative); mix checks assert the qualitative Figure 3/4 properties.
    """
    profile = workload.profile
    trace = workload.trace
    # Checked against the program built from the profile, not the headers
    # cached with the trace: checking a trace against its own cache entry
    # would be circular.
    program = workload.compiled.program
    checks: list[ValidationCheck] = []

    # -- structural invariants ------------------------------------------
    chained = bool(
        np.array_equal(trace.next_addr[:-1], trace.task_addr[1:])
    )
    checks.append(
        ValidationCheck(
            name="trace chains",
            ok=chained,
            measured=float(chained),
            target=None,
            detail="every record's next_addr is the next record's task",
        )
    )
    addresses = np.fromiter(
        (task.address for task in program.tfg), dtype=np.uint32
    )
    known = bool(np.isin(trace.task_addr, addresses).all())
    checks.append(
        ValidationCheck(
            name="tasks known",
            ok=known,
            measured=float(known),
            target=None,
            detail="every traced task exists in the static program",
        )
    )

    # -- Table 2 count targets -------------------------------------------
    paper = profile.paper
    if paper.static_tasks:
        checks.append(
            _ratio_check(
                "static tasks",
                program.static_task_count,
                paper.static_tasks,
                tolerance,
            )
        )
    if paper.distinct_tasks_seen and len(trace) >= 100_000:
        checks.append(
            _ratio_check(
                "distinct tasks seen",
                trace.distinct_tasks_seen(),
                paper.distinct_tasks_seen,
                tolerance,
            )
        )

    # -- Figure 3: single-exit tasks dominate statics ----------------------
    histogram = program.exit_arity_histogram()
    total = sum(histogram.values())
    single_share = histogram.get(1, 0) / total if total else 0.0
    checks.append(
        ValidationCheck(
            name="single-exit majority",
            ok=single_share >= 0.4,
            measured=single_share,
            target=0.4,
            detail=f"{single_share:.0%} of static tasks have one exit",
        )
    )

    # -- Figure 4: calls balance returns ----------------------------------
    codes, counts = np.unique(trace.cf_type, return_counts=True)
    by_code = dict(zip(codes.tolist(), counts.tolist()))
    n = len(trace)
    calls = (
        by_code.get(CF_TYPE_CODES[ControlFlowType.CALL], 0)
        + by_code.get(CF_TYPE_CODES[ControlFlowType.INDIRECT_CALL], 0)
    ) / n
    returns = by_code.get(CF_TYPE_CODES[ControlFlowType.RETURN], 0) / n
    balanced = abs(calls - returns) <= 0.05
    checks.append(
        ValidationCheck(
            name="call/return balance",
            ok=balanced,
            measured=returns - calls,
            target=0.0,
            detail=f"calls {calls:.1%} vs returns {returns:.1%}",
        )
    )

    return ValidationReport(
        benchmark=profile.name, checks=tuple(checks)
    )
