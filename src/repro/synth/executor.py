"""Trace execution: run a compiled program and emit a task-level trace.

The executor interprets basic blocks, consulting each decision point's
behaviour model, and emits one :class:`repro.synth.trace.TaskTrace` record
every time control crosses a task boundary. It also runs the intra-task
bimodal predictor of §2.2 over internal conditional branches, recording
per-task-execution mispredict counts for the timing simulator.

The program never terminates on its own: when ``main`` returns, the executor
re-enters it (a driver loop), so traces of any length can be produced.
"""

from __future__ import annotations

from repro.compiler.compiled import CompiledProgram
from repro.cfg.basicblock import TerminatorKind
from repro.errors import SimulationError
from repro.synth.behavior import BehaviorContext
from repro.synth.trace import CF_TYPE_CODES, TaskTrace, TraceBuilder
from repro.isa.controlflow import ControlFlowType
from repro.utils.hashing import mix_hash, stable_hash
from repro.utils.rng import DeterministicRng

_JUMP, _COND, _CALL, _RETURN, _IJUMP, _ICALL = range(6)

_KIND_CODE = {
    TerminatorKind.JUMP: _JUMP,
    TerminatorKind.COND_BRANCH: _COND,
    TerminatorKind.CALL: _CALL,
    TerminatorKind.RETURN: _RETURN,
    TerminatorKind.INDIRECT_JUMP: _IJUMP,
    TerminatorKind.INDIRECT_CALL: _ICALL,
}

_CF_BRANCH = CF_TYPE_CODES[ControlFlowType.BRANCH]
_CF_CALL = CF_TYPE_CODES[ControlFlowType.CALL]
_CF_RETURN = CF_TYPE_CODES[ControlFlowType.RETURN]
_CF_IBRANCH = CF_TYPE_CODES[ControlFlowType.INDIRECT_BRANCH]
_CF_ICALL = CF_TYPE_CODES[ControlFlowType.INDIRECT_CALL]


class _FastBlock:
    """Flattened block representation for the interpreter's hot loop."""

    __slots__ = (
        "kind", "insns", "task_addr", "succ_labels", "succ_exit",
        "term_exit", "behavior", "callee_entries", "is_internal_branch",
        "label", "label_hash",
    )

    def __init__(self, kind, insns, task_addr, succ_labels, succ_exit,
                 term_exit, behavior, callee_entries, is_internal_branch,
                 label):
        self.kind = kind
        self.insns = insns
        self.task_addr = task_addr
        self.succ_labels = succ_labels
        self.succ_exit = succ_exit
        self.term_exit = term_exit
        self.behavior = behavior
        self.callee_entries = callee_entries
        self.is_internal_branch = is_internal_branch
        self.label = label
        # Only calls mix their label into the context hash.
        self.label_hash = stable_hash(label) if kind in (_CALL, _ICALL) else 0


class TraceExecutor:
    """Executes a :class:`CompiledProgram` to produce task traces."""

    def __init__(
        self,
        compiled: CompiledProgram,
        seed: int = 0,
        phase_period: int = 20_000,
        record_dynamic_arcs: bool = False,
    ) -> None:
        self._compiled = compiled
        self._seed = seed
        self._phase_period = phase_period
        self._record_dynamic_arcs = record_dynamic_arcs
        self._fast = self._flatten(compiled)

    @staticmethod
    def _flatten(compiled: CompiledProgram) -> dict[str, _FastBlock]:
        fast: dict[str, _FastBlock] = {}
        for label, block in compiled.blocks.items():
            terminator = block.terminator
            kind = _KIND_CODE[terminator.kind]
            if kind == _CALL:
                callee_entries = (
                    compiled.function_entry[terminator.callee],
                )
            elif kind == _ICALL:
                callee_entries = tuple(
                    compiled.function_entry[callee]
                    for callee in terminator.callees
                )
            else:
                callee_entries = ()
            fast[label] = _FastBlock(
                kind=kind,
                insns=block.instruction_count,
                task_addr=block.task_address,
                succ_labels=terminator.successors,
                succ_exit=block.successor_exit_index,
                term_exit=block.terminator_exit_index,
                behavior=terminator.behavior,
                callee_entries=callee_entries,
                is_internal_branch=block.is_internal_branch,
                label=label,
            )
        return fast

    def run(self, max_tasks: int) -> TaskTrace:
        """Execute until ``max_tasks`` task records have been emitted."""
        if max_tasks < 1:
            raise SimulationError("trace length must be >= 1")
        compiled = self._compiled
        fast = self._fast
        program = compiled.program
        ctx = BehaviorContext(
            rng=DeterministicRng(self._seed).fork("executor"),
            phase_period=self._phase_period,
        )
        builder = TraceBuilder(program_name=program.name)
        append = builder.append
        bimodal: dict[str, int] = {}
        tfg = program.tfg if self._record_dynamic_arcs else None

        main_entry_label = compiled.function_entry["main"]
        # Call stack entries: (return_label, saved_context_hash,
        # saved_loop_counters).
        stack: list[tuple[str, int, dict]] = []
        block = fast[main_entry_label]
        acc_insns = 0
        acc_branches = 0
        acc_misses = 0
        emitted = 0

        while emitted < max_tasks:
            acc_insns += block.insns
            kind = block.kind
            next_label: str
            exit_index: int | None = None
            cf_code = _CF_BRANCH
            push_return: str | None = None

            if kind == _COND:
                choice = block.behavior.choose(ctx, block.label)
                taken = choice == 0
                ctx.note_branch_outcome(taken)
                exit_index = block.succ_exit[choice]
                if exit_index is None and block.is_internal_branch:
                    acc_branches += 1
                    counter = bimodal.get(block.label, 1)
                    if (counter >= 2) != taken:
                        acc_misses += 1
                    bimodal[block.label] = (
                        min(3, counter + 1) if taken else max(0, counter - 1)
                    )
                next_label = block.succ_labels[choice]
            elif kind == _JUMP:
                next_label = block.succ_labels[0]
                exit_index = block.succ_exit[0]
            elif kind == _CALL:
                exit_index = block.term_exit
                cf_code = _CF_CALL
                next_label = block.callee_entries[0]
                push_return = block.succ_labels[0]
            elif kind == _RETURN:
                exit_index = block.term_exit
                cf_code = _CF_RETURN
                if stack:
                    next_label, saved_hash, saved_counters = stack.pop()
                    ctx.context_hash = saved_hash
                    ctx.loop_counters = saved_counters
                    ctx.call_depth -= 1
                else:
                    # main returned: the driver re-enters it.
                    next_label = main_entry_label
                    ctx.context_hash = 0
                    ctx.loop_counters = {}
            elif kind == _IJUMP:
                choice = block.behavior.choose(ctx, block.label)
                exit_index = block.term_exit
                cf_code = _CF_IBRANCH
                next_label = block.succ_labels[choice]
            else:  # _ICALL
                choice = block.behavior.choose(ctx, block.label)
                exit_index = block.term_exit
                cf_code = _CF_ICALL
                next_label = block.callee_entries[choice]
                push_return = block.succ_labels[0]

            if push_return is not None:
                stack.append(
                    (push_return, ctx.context_hash, ctx.loop_counters)
                )
                ctx.context_hash = mix_hash(
                    ctx.context_hash, block.label_hash
                )
                ctx.loop_counters = {}
                ctx.call_depth += 1

            next_block = fast[next_label]
            next_task_addr = next_block.task_addr
            if exit_index is not None:
                ctx.note_task(block.task_addr)
                append(
                    block.task_addr, exit_index, cf_code, next_task_addr,
                    acc_insns, acc_branches, acc_misses,
                )
                emitted += 1
                if tfg is not None:
                    tfg.record_dynamic_arc(block.task_addr, next_task_addr)
                acc_insns = 0
                acc_branches = 0
                acc_misses = 0
            elif next_task_addr != block.task_addr:
                raise SimulationError(
                    f"internal arc {block.label!r} -> {next_label!r} "
                    "crosses a task boundary"
                )
            block = next_block

        return builder.build()
