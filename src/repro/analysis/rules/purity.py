"""PUR rules: worker-purity race detector for cell callables.

The parallel engine runs each :class:`~repro.evalx.parallel.Cell`'s
``fn`` in worker processes, and the queue manifest those workers (and
sweep-service workers on other hosts) lease from pickles it by
reference. Two things break that contract:

* **Shared mutable module state** (PUR001). A module-level dict/list/set
  written by code reachable from a cell function diverges between the
  serial path (one process, writes accumulate across cells) and the
  ``--jobs N`` path (each worker has its own copy) — and under a future
  thread-based executor it would be a data race outright. The detector
  builds a call graph seeded at every function passed as a Cell's ``fn``
  and flags module-level mutable globals that reachable code mutates.
* **Unpicklable callables** (PUR002). Lambdas and nested functions
  cannot be pickled by reference; handing one to a Cell works serially
  and explodes only when ``--jobs`` first fans out.

Intentional per-process memo caches (value depends only on the key)
belong in the baseline with a justification, not silenced wholesale.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    register_rule,
)
from repro.analysis.rules._shared import (
    ImportMap,
    dotted_call_name,
    local_names,
    walk_scopes,
)

#: Constructors whose result is shared mutable state when module-level.
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict",
     "Counter", "bytearray"}
)

#: Methods that mutate their receiver (dict/list/set union).
_MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "clear", "pop",
     "popitem", "remove", "discard", "setdefault", "sort", "reverse",
     "appendleft", "extendleft", "popleft", "subtract",
     "intersection_update", "difference_update",
     "symmetric_difference_update"}
)


def _is_mutable_ctor(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_call_name(node.func)
        if dotted is None:
            return False
        return dotted.split(".")[-1] in _MUTABLE_CTORS
    return False


@dataclass
class _FunctionFacts:
    """Per-function summary used by the reachability pass."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Globals of the *same* module this function mutates.
    global_writes: dict[str, int] = field(default_factory=dict)
    #: Globals of *other* project modules mutated via ``alias.G[...]``.
    foreign_writes: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Callees: ("local", name) or ("module", dotted_module, attr).
    calls: set[tuple] = field(default_factory=set)


@dataclass
class _ModuleFacts:
    """Per-module summary: globals, functions, imports, cell seeds."""

    module: ModuleInfo
    imports: ImportMap
    mutable_globals: dict[str, int] = field(default_factory=dict)
    #: Module-level functions by bare name.
    functions: dict[str, _FunctionFacts] = field(default_factory=dict)
    #: Bare names of functions defined *inside* other functions.
    nested_functions: set[str] = field(default_factory=set)


def _mutation_base(node: ast.AST) -> ast.expr | None:
    """The object a statement mutates, or None.

    Covers ``base[...] = v``, ``del base[...]``, ``base[...] += v``,
    ``base.method(...)`` for mutating methods, and ``base += v``.
    """
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Subscript):
                return target.value
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            return node.target
    if isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                return target.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_METHODS:
            return node.func.value
    return None


def _collect_module_facts(
    module: ModuleInfo, project: Project
) -> _ModuleFacts:
    facts = _ModuleFacts(module=module, imports=ImportMap.of(module.tree))

    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is not None and _is_mutable_ctor(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    facts.mutable_globals[target.id] = stmt.lineno

    for qualname, scope, _body in walk_scopes(module.tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if ".<locals>." in qualname:
            facts.nested_functions.add(scope.name)
        fn = _FunctionFacts(qualname=qualname, node=scope)
        locals_ = local_names(scope)
        for node in ast.walk(scope):
            base = _mutation_base(node)
            if base is not None:
                if (
                    isinstance(base, ast.Name)
                    and base.id not in locals_
                ):
                    fn.global_writes.setdefault(base.id, node.lineno)
                elif isinstance(base, ast.Attribute) and isinstance(
                    base.value, ast.Name
                ):
                    alias = base.value.id
                    target_module = facts.imports.modules.get(alias)
                    if target_module is not None:
                        fn.foreign_writes.setdefault(
                            (target_module, base.attr), node.lineno
                        )
            if isinstance(node, ast.Call):
                dotted = dotted_call_name(node.func)
                if dotted is None:
                    continue
                head, _, rest = dotted.partition(".")
                if not rest:
                    if head in facts.imports.names:
                        target_mod, attr = facts.imports.names[head]
                        fn.calls.add(("module", target_mod, attr))
                    else:
                        fn.calls.add(("local", head))
                elif "." not in rest:
                    target_module = facts.imports.modules.get(head)
                    if target_module is not None:
                        fn.calls.add(("module", target_module, rest))
        # ``global G`` plus any store counts as a rebinding write too.
        declared_global: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        if declared_global:
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)
                    and node.id in declared_global
                ):
                    fn.global_writes.setdefault(node.id, node.lineno)
        # Functions can shadow each other across scopes; module-level
        # defs win the bare-name slot (they are what imports resolve to).
        if ".<locals>." not in qualname:
            facts.functions[scope.name] = fn
        else:
            facts.functions.setdefault(scope.name, fn)
    return facts


def _cell_fn_seeds(
    facts: _ModuleFacts,
) -> Iterator[tuple[str, str, ast.expr]]:
    """Every ``Cell(fn=...)`` argument: (module_dotted, fn_name, node).

    Resolves the ``Cell`` constructor loosely — any call whose final name
    segment is ``Cell`` — so fixtures and future relocations both work.
    The second positional argument is ``fn`` per the Cell dataclass.
    """
    for node in ast.walk(facts.module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_call_name(node.func)
        if dotted is None or dotted.split(".")[-1] != "Cell":
            continue
        fn_arg: ast.expr | None = None
        for keyword in node.keywords:
            if keyword.arg == "fn":
                fn_arg = keyword.value
        if fn_arg is None and len(node.args) >= 2:
            fn_arg = node.args[1]
        if fn_arg is None:
            continue
        if isinstance(fn_arg, ast.Name):
            name = fn_arg.id
            if name in facts.imports.names:
                target_mod, attr = facts.imports.names[name]
                yield target_mod, attr, fn_arg
            else:
                yield facts.module.dotted, name, fn_arg
        elif isinstance(fn_arg, ast.Attribute) and isinstance(
            fn_arg.value, ast.Name
        ):
            target_module = facts.imports.modules.get(fn_arg.value.id)
            if target_module is not None:
                yield target_module, fn_arg.attr, fn_arg
            else:
                yield facts.module.dotted, fn_arg.attr, fn_arg
        else:
            # Lambdas / calls: PUR002's department, not reachability's.
            yield facts.module.dotted, "<anonymous>", fn_arg


class _ProjectFacts:
    """Lazily collected per-module facts plus the reachability engine."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._facts: dict[str, _ModuleFacts] = {}

    def facts_for(self, dotted: str) -> _ModuleFacts | None:
        if dotted not in self._facts:
            module = self.project.module(dotted)
            if module is None:
                return None
            self._facts[dotted] = _collect_module_facts(
                module, self.project
            )
        return self._facts[dotted]

    def reachable(
        self, seeds: list[tuple[str, str]]
    ) -> list[tuple[_ModuleFacts, _FunctionFacts]]:
        """BFS over the project call graph from the seed functions."""
        seen: set[tuple[str, str]] = set()
        queue = list(seeds)
        out: list[tuple[_ModuleFacts, _FunctionFacts]] = []
        while queue:
            dotted, name = queue.pop(0)
            if (dotted, name) in seen:
                continue
            seen.add((dotted, name))
            facts = self.facts_for(dotted)
            if facts is None:
                continue
            fn = facts.functions.get(name)
            if fn is None:
                continue
            out.append((facts, fn))
            for call in sorted(fn.calls, key=repr):
                if call[0] == "local":
                    queue.append((dotted, call[1]))
                else:
                    queue.append((call[1], call[2]))
        return out


@register_rule
class SharedMutableGlobals(Rule):
    id = "PUR001"
    title = "module global mutated by cell-reachable code"
    rationale = (
        "Cell functions run in worker processes; writes to module-level "
        "mutable globals happen per process, so serial and --jobs runs "
        "see different state (and threads would race). Pass state in "
        "through kwargs, or baseline genuine per-process memo caches."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        pfacts = _ProjectFacts(project)
        seeds: list[tuple[str, str]] = []
        for module in project.modules:
            facts = pfacts.facts_for(module.dotted)
            if facts is None:
                continue
            for target_mod, fn_name, _node in _cell_fn_seeds(facts):
                seeds.append((target_mod, fn_name))
        reported: set[tuple[str, str]] = set()
        for facts, fn in pfacts.reachable(seeds):
            for name, _line in sorted(fn.global_writes.items()):
                global_line = facts.mutable_globals.get(name)
                if global_line is None:
                    continue
                key = (facts.module.relpath, name)
                if key in reported:
                    continue
                reported.add(key)
                yield Finding(
                    rule=self.id,
                    path=facts.module.relpath,
                    line=global_line,
                    col=0,
                    message=(
                        f"module global {name!r} is mutated by "
                        f"{fn.qualname}(), which is reachable from a "
                        "Cell fn; worker processes each get their own "
                        "copy, so shared state diverges"
                    ),
                    symbol=name,
                )
            for (mod_dotted, name), line in sorted(
                fn.foreign_writes.items()
            ):
                target = pfacts.facts_for(mod_dotted)
                if target is None:
                    continue
                global_line = target.mutable_globals.get(name)
                if global_line is None:
                    continue
                key = (target.module.relpath, name)
                if key in reported:
                    continue
                reported.add(key)
                yield Finding(
                    rule=self.id,
                    path=target.module.relpath,
                    line=global_line,
                    col=0,
                    message=(
                        f"module global {name!r} is mutated by "
                        f"{fn.qualname}() (cross-module), reachable "
                        "from a Cell fn"
                    ),
                    symbol=name,
                )


@register_rule
class UnpicklableCellCallable(Rule):
    id = "PUR002"
    title = "Cell fn is not picklable by reference"
    rationale = (
        "The queue manifest pickles cell functions by module-qualified "
        "name; lambdas and functions nested inside other functions have "
        "no importable name, so --jobs N crashes where serial runs pass. "
        "Cell fns must be module-level."
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        facts = _collect_module_facts(module, project)
        for target_mod, fn_name, node in _cell_fn_seeds(facts):
            bad_reason: str | None = None
            if isinstance(node, ast.Lambda) or fn_name == "<anonymous>":
                bad_reason = "a lambda/anonymous callable"
            elif target_mod == module.dotted:
                fn = facts.functions.get(fn_name)
                if fn is not None and ".<locals>." in fn.qualname:
                    bad_reason = (
                        f"nested function {fn.qualname!r}"
                    )
            if bad_reason is not None:
                yield Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"Cell fn is {bad_reason}, which cannot be "
                        "pickled by reference; define it at module level"
                    ),
                    symbol=fn_name,
                )
