"""Inter-task control-flow types (Table 1 of the paper).

A task must end in a control-transfer instruction. The paper classifies the
instruction terminating each task exit into five types, which differ in
whether the compiler can place the target address in the task header and in
how many dynamic targets the exit may have:

=================  =========================  ==============  ===========
Type               Scalar analogue            Target in hdr?  # targets
=================  =========================  ==============  ===========
BRANCH             (un)conditional branch     yes             1
CALL               PC-relative call           yes             1
RETURN             return                     no              unlimited
INDIRECT_BRANCH    indirect branch            no              unlimited
INDIRECT_CALL      indirect call              no              unlimited
=================  =========================  ==============  ===========
"""

from __future__ import annotations

import enum

#: The Multiscalar implementation in the paper limits headers to four exits.
MAX_EXITS_PER_TASK = 4


class ControlFlowType(enum.Enum):
    """The five inter-task control-flow types of Table 1."""

    BRANCH = "branch"
    CALL = "call"
    RETURN = "return"
    INDIRECT_BRANCH = "indirect_branch"
    INDIRECT_CALL = "indirect_call"

    def __str__(self) -> str:
        return self.value


#: Stable numeric codes for control-flow types inside trace arrays.
CF_TYPE_CODES: dict[ControlFlowType, int] = {
    ControlFlowType.BRANCH: 0,
    ControlFlowType.CALL: 1,
    ControlFlowType.RETURN: 2,
    ControlFlowType.INDIRECT_BRANCH: 3,
    ControlFlowType.INDIRECT_CALL: 4,
}


def target_known_at_compile_time(cf_type: ControlFlowType) -> bool:
    """True if the compiler can write this exit's target into the header.

    BRANCH and CALL targets are PC-relative and known statically; returns and
    indirect transfers are not (paper §2.1, §5.3).
    """
    return cf_type in (ControlFlowType.BRANCH, ControlFlowType.CALL)


def is_call_type(cf_type: ControlFlowType) -> bool:
    """True for exits that push a return address (CALL, INDIRECT_CALL)."""
    return cf_type in (ControlFlowType.CALL, ControlFlowType.INDIRECT_CALL)


def is_indirect_type(cf_type: ControlFlowType) -> bool:
    """True for exits whose target must be predicted by a target buffer."""
    return cf_type in (
        ControlFlowType.INDIRECT_BRANCH,
        ControlFlowType.INDIRECT_CALL,
    )
