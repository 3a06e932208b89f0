"""LSE rules: lease-protocol conformance for the sweep service.

The worker protocol is acquire → heartbeat-renew → publish → release,
with one safety rule layered on top: a worker that may have lost its
lease must *abandon* the cell, not publish, because a checkpoint record
or fail marker written by a non-owner races the worker that re-leased
the cell. The repo encodes "may have lost" as a ``lost``
:class:`threading.Event` set by the heartbeat thread after repeated
renewal failures, so ownership is re-confirmed by the fall-through of
``if lost.is_set(): ...abandon...`` (or the truthy arm of a ``renew``
call) immediately before each publication.

These rules check that ordering path-sensitively on the CFG:

* **LSE001** — a publication (``store.save``/``write_fail``/
  ``save_result``) reachable from a cell execution with no ownership
  re-confirmation on some path in between.
* **LSE002** — a publication reachable after the lease was already
  released on some path (release must be the *last* protocol step).
* **LSE003** — ``queue.renew`` called outside a heartbeat thread
  target: renewals from the executor thread defeat the liveness
  signal (a wedged executor would keep its own lease alive).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.cfg import CFG, build_cfg, function_defs
from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    register_rule,
)
from repro.analysis.dataflow import (
    Analysis,
    State,
    run_forward,
    strip_not,
)
from repro.analysis.rules._shared import dotted_call_name
from repro.analysis.rules.atomicity import node_calls

#: State keys (no Python identifier can collide with these).
_OWN = "<ownership>"
_REL = "<released>"

UNCONFIRMED = "unconfirmed"
RELEASED = "released"

#: The in-process cell executors; running one starts the window in
#: which the heartbeat may declare the lease lost.
_EXEC_NAMES = frozenset({"run_attempts", "_run_cell_instrumented"})


def _own_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Calls in a function's own body, not inside nested defs/classes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _call_parts(call: ast.Call) -> tuple[str, ...]:
    dotted = dotted_call_name(call.func)
    return tuple(dotted.split(".")) if dotted is not None else ()


def _is_exec(call: ast.Call) -> bool:
    parts = _call_parts(call)
    return bool(parts) and parts[-1] in _EXEC_NAMES


def _is_publish(call: ast.Call) -> bool:
    """Durable publication of a leased cell's outcome."""
    parts = _call_parts(call)
    if not parts:
        return False
    if parts[-1] in ("write_fail", "save_result"):
        return True
    return parts[-1] == "save" and "store" in parts[:-1]


def _is_queue_call(call: ast.Call, method: str) -> bool:
    parts = _call_parts(call)
    return (
        len(parts) >= 2
        and parts[-1] == method
        and "queue" in parts[:-1]
    )


def _confirms_ownership(cond: ast.expr, truthy: bool) -> bool:
    """Whether this branch arm proves the lease is still held.

    ``lost.is_set()`` being false confirms; ``queue.renew(...)``
    returning true confirms.
    """
    if not isinstance(cond, ast.Call):
        return False
    if (
        isinstance(cond.func, ast.Attribute)
        and cond.func.attr == "is_set"
        and not truthy
    ):
        return True
    return _is_queue_call(cond, "renew") and truthy


class _OwnershipFlow(Analysis):
    """Tracks may-be-stale ownership after a cell execution."""

    def transfer(self, node_index: int, cfg: CFG, state: State) -> State:
        node = cfg.nodes[node_index]
        if any(_is_exec(call) for call in node_calls(node)):
            new = dict(state)
            new[_OWN] = frozenset({UNCONFIRMED})
            return new
        return state

    def refine(
        self, cond: ast.expr, polarity: bool, state: State
    ) -> State:
        inner, flipped = strip_not(cond)
        truthy = polarity != flipped
        if _confirms_ownership(inner, truthy) and UNCONFIRMED in state.get(
            _OWN, frozenset()
        ):
            new = dict(state)
            new[_OWN] = frozenset()
            return new
        return state


class _ReleaseFlow(Analysis):
    """Tracks whether the lease may already have been released."""

    def transfer(self, node_index: int, cfg: CFG, state: State) -> State:
        node = cfg.nodes[node_index]
        if any(
            _is_queue_call(call, "release")
            for call in node_calls(node)
        ):
            new = dict(state)
            new[_REL] = frozenset({RELEASED})
            return new
        return state


class _LSERule(Rule):
    scope = ("evalx",)

    def _finding(
        self,
        module: ModuleInfo,
        qualname: str,
        node: ast.AST,
        message: str,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=qualname,
        )


@register_rule
class PublishWithoutReconfirm(_LSERule):
    id = "LSE001"
    title = "publication without ownership re-confirmation"
    rationale = (
        "Between running a cell and publishing its outcome the "
        "heartbeat may have declared the lease lost (stolen after "
        "expiry); publishing anyway races the worker that re-leased "
        "the cell. Re-check ``lost.is_set()`` (or a truthy ``renew``) "
        "on every path into ``store.save``/``write_fail``, and abandon "
        "instead when ownership is gone."
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for qualname, fn in function_defs(module.tree):
            cfg = build_cfg(fn)
            states = run_forward(cfg, _OwnershipFlow())
            for node in cfg.nodes:
                if node.stmt is None:
                    continue
                state = states[node.index]
                if UNCONFIRMED not in state.get(_OWN, frozenset()):
                    continue
                for call in node_calls(node):
                    if _is_publish(call):
                        yield self._finding(
                            module,
                            qualname,
                            call,
                            "outcome published on a path with no "
                            "ownership re-check since the cell ran; "
                            "the lease may have been stolen — guard "
                            "with `if lost.is_set(): abandon` (or a "
                            "truthy renew) immediately before "
                            "publishing",
                        )


@register_rule
class ReleaseBeforePublish(_LSERule):
    id = "LSE002"
    title = "lease released before the outcome was published"
    rationale = (
        "Releasing the lease re-opens the cell: another worker can "
        "lease and run it while this one is still writing the record "
        "or fail marker. Release must be the final protocol step, "
        "after every publication."
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for qualname, fn in function_defs(module.tree):
            cfg = build_cfg(fn)
            states = run_forward(cfg, _ReleaseFlow())
            for node in cfg.nodes:
                if node.stmt is None:
                    continue
                state = states[node.index]
                if RELEASED not in state.get(_REL, frozenset()):
                    continue
                for call in node_calls(node):
                    if _is_publish(call):
                        yield self._finding(
                            module,
                            qualname,
                            call,
                            "outcome published on a path where the "
                            "lease was already released; the cell is "
                            "re-leasable while this worker still "
                            "writes — publish first, release last "
                            "(in the finally block)",
                        )


@register_rule
class RenewOutsideHeartbeat(_LSERule):
    id = "LSE003"
    title = "lease renew outside a heartbeat thread"
    rationale = (
        "Renewals exist to prove the worker process is alive and "
        "making progress; calling ``queue.renew`` from the executor "
        "path lets a wedged executor keep its own lease fresh forever, "
        "defeating expiry+steal. Renew only from a dedicated "
        "``threading.Thread(target=...)`` heartbeat."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        # Pass 1: every function registered as a Thread target anywhere
        # in the project may legitimately renew.
        heartbeat_targets: set[str] = set()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                parts = _call_parts(node)
                if not parts or parts[-1] != "Thread":
                    continue
                for keyword in node.keywords:
                    if keyword.arg != "target":
                        continue
                    target = keyword.value
                    if isinstance(target, ast.Attribute):
                        heartbeat_targets.add(target.attr)
                    elif isinstance(target, ast.Name):
                        heartbeat_targets.add(target.id)
        # Pass 2: flag renew calls in any other function (the queue
        # module itself implements the protocol and is exempt).
        for module in project.modules:
            if not self.applies_to(module):
                continue
            if module.relpath.endswith("service/queue.py"):
                continue
            for qualname, fn in function_defs(module.tree):
                if qualname.rpartition(".")[2] in heartbeat_targets:
                    continue
                for node in _own_calls(fn):
                    if _is_queue_call(node, "renew"):
                        yield self._finding(
                            module,
                            qualname,
                            node,
                            "queue.renew called outside a heartbeat "
                            "thread target; executor-path renewals "
                            "keep a wedged worker's lease alive and "
                            "defeat expiry+steal — move renewals into "
                            "a threading.Thread(target=...) heartbeat",
                        )
