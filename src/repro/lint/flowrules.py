"""Flow-sensitive rules (RPL100-RPL102) over the CFG/dataflow tier.

These differ from the single-node matchers in :mod:`repro.lint.rules`:
each builds per-function control-flow graphs (:mod:`repro.lint.cfg`),
runs a dataflow fixpoint (:mod:`repro.lint.flow`), and judges each
access/call/exit against the resulting abstract state.

All three set :attr:`~repro.lint.core.Diagnostic.scope_line` to the
enclosing ``def`` line, so a ``# repro-lint: disable=RPL1xx -- reason``
on (or directly above) the function header suppresses the whole
function — the right granularity for "caller holds the lock" helper
methods, where the finding is about the function's contract, not one
line.  Inference semantics and known false-negative limits are
documented in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .cfg import CFG, FuncDef, LoopHead, WithEnter, WithExit, build_cfg
from .core import Diagnostic, ModuleSource, rule
from .flow import (
    HeldLocksAnalysis,
    LiveResourcesAnalysis,
    _self_attr,
    iter_instr_states,
    run_forward,
)

__all__ = [
    "check_lock_discipline",
    "check_deadline_propagation",
    "check_resource_lifecycle",
]

_MATCH_CASE_TYPE: Optional[type] = getattr(ast, "match_case", None)

#: threading factory tails whose product is a tracked mutual-exclusion
#: object (``self._lock = threading.Lock()`` and friends).
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Container-method calls on ``self.X`` that mutate X in place; they
#: count as writes for guarded-by inference.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Methods where unguarded access is constitutive, not a race: the
#: object is not shared yet (or is being finalized).
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__", "__del__"})

#: Cross-module callables known to accept a ``deadline`` (RPL101);
#: same-module deadline-aware functions are discovered from their
#: signatures instead of listed here.
_DEADLINE_AWARE_CALLEES = frozenset({"execute_search", "run_cascade"})

#: ``Deadline`` method calls that constitute a local deadline check.
_DEADLINE_CHECKS = frozenset({"check", "expired", "remaining"})


def _dotted_tail(func: ast.AST) -> Optional[str]:
    """Rightmost segment of a Name/Attribute callee, else ``None``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_scope(root: ast.AST, skip_root_scope: bool = False) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested def/class/lambda.

    With ``skip_root_scope`` the root itself may be a scope node (walk
    *this* function's body, stopping at functions nested inside it).
    """
    stack: List[ast.AST] = [root]
    is_root = True
    while stack:
        node = stack.pop()
        if not is_root and isinstance(node, _SCOPE_NODES):
            continue
        if not (is_root and skip_root_scope):
            yield node
        is_root = False
        stack.extend(ast.iter_child_nodes(node))


def _diag(
    module: ModuleSource,
    code: str,
    node: ast.AST,
    message: str,
    scope_line: Optional[int],
) -> Diagnostic:
    return Diagnostic(
        code=code,
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
        scope_line=scope_line,
    )


# ---------------------------------------------------------------------------
# RPL100 — lock discipline
# ---------------------------------------------------------------------------


@dataclass
class _Access:
    """One touch of ``self.<attr>`` with the locks held at that point."""

    method: str
    def_line: int
    attr: str
    kind: str  # "read" | "write"
    node: ast.AST
    held: FrozenSet[str]


def _class_lock_attrs(cls: ast.ClassDef) -> FrozenSet[str]:
    """Attributes assigned a ``threading.Lock/RLock/Condition`` in any
    method of the class (``self._lock = threading.Lock()``)."""
    locks: Set[str] = set()
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        self_name = _method_self_name(item)
        if self_name is None:
            continue
        for node in ast.walk(item):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            tail = _dotted_tail(node.value.func)
            if tail not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                attr = _self_attr(target, self_name)
                if attr is not None:
                    locks.add(attr)
    return frozenset(locks)


def _method_self_name(func: FuncDef) -> Optional[str]:
    """The receiver parameter name, or ``None`` for static/classmethods."""
    for decorator in func.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id in (
            "staticmethod",
            "classmethod",
        ):
            return None
    args = func.args.posonlyargs + func.args.args
    if not args:
        return None
    return args[0].arg

def _attr_accesses(root: ast.AST, self_name: str) -> Iterator[Tuple[str, str, ast.AST]]:
    """``(attr, kind, node)`` for every ``self.<attr>`` touch in ``root``
    (not descending into nested scopes).  ``kind`` is ``"write"`` for
    stores, deletes, stores through ``self.a.b``/``self.a[k]``, and
    in-place mutator calls; ``"read"`` otherwise."""
    parents: Dict[int, ast.AST] = {}
    nodes = list(_walk_scope(root))
    for node in nodes:
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    for node in nodes:
        if not isinstance(node, ast.Attribute):
            continue
        attr = _self_attr(node, self_name)
        if attr is None:
            continue
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            yield attr, "write", node
            continue
        parent = parents.get(id(node))
        kind = "read"
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                kind = "write"
        elif isinstance(parent, ast.Attribute) and parent.value is node:
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                kind = "write"
            else:
                grand = parents.get(id(parent))
                if (
                    isinstance(grand, ast.Call)
                    and grand.func is parent
                    and parent.attr in _MUTATOR_METHODS
                ):
                    kind = "write"
        elif isinstance(parent, ast.AugAssign) and parent.target is node:
            kind = "write"
        yield attr, kind, node


def _instr_accesses(
    instr: object, self_name: str
) -> Iterator[Tuple[str, str, ast.AST]]:
    """Accesses performed by one CFG instruction."""
    if isinstance(instr, WithEnter):
        yield from _attr_accesses(instr.item.context_expr, self_name)
        if instr.item.optional_vars is not None:
            yield from _attr_accesses(instr.item.optional_vars, self_name)
        return
    if isinstance(instr, WithExit):
        return
    if isinstance(instr, LoopHead):
        if isinstance(instr.node, ast.While):
            yield from _attr_accesses(instr.node.test, self_name)
        else:
            yield from _attr_accesses(instr.node.iter, self_name)
            yield from _attr_accesses(instr.node.target, self_name)
        return
    if isinstance(instr, ast.ExceptHandler):
        if instr.type is not None:
            yield from _attr_accesses(instr.type, self_name)
        return
    if _MATCH_CASE_TYPE is not None and isinstance(instr, _MATCH_CASE_TYPE):
        guard = getattr(instr, "guard", None)
        if guard is not None:
            yield from _attr_accesses(guard, self_name)
        return
    if isinstance(
        instr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return  # opaque nested scope
    if isinstance(instr, ast.AST):
        yield from _attr_accesses(instr, self_name)


def _collect_accesses(cls: ast.ClassDef, lock_attrs: FrozenSet[str]) -> List[_Access]:
    accesses: List[_Access] = []
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name in _EXEMPT_METHODS:
            continue
        self_name = _method_self_name(item)
        if self_name is None:
            continue
        cfg = build_cfg(item)
        analysis = HeldLocksAnalysis(self_name, lock_attrs)
        result = run_forward(cfg, analysis)
        for block in cfg.blocks:
            entry = result.block_in.get(block.bid)
            if entry is None:
                continue  # unreachable
            for instr, state in iter_instr_states(analysis, block, entry):
                for attr, kind, node in _instr_accesses(instr, self_name):
                    if attr in lock_attrs:
                        continue
                    accesses.append(
                        _Access(
                            method=item.name,
                            def_line=item.lineno,
                            attr=attr,
                            kind=kind,
                            node=node,
                            held=state,
                        )
                    )
    return accesses


@rule(
    "RPL100",
    "lock-discipline",
    "attributes written under a class lock must always be accessed "
    "holding it (guarded-by inference over the CFG)",
)
def check_lock_discipline(module: ModuleSource) -> Iterator[Diagnostic]:
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        lock_attrs = _class_lock_attrs(cls)
        if not lock_attrs:
            continue
        accesses = _collect_accesses(cls, lock_attrs)

        guards: Dict[str, Set[str]] = {}
        writers: Dict[str, Set[str]] = {}
        for access in accesses:
            if access.kind == "write" and access.held:
                guards.setdefault(access.attr, set()).update(access.held)
                writers.setdefault(access.attr, set()).add(access.method)

        # finally-clone duplication means one source access can appear
        # in several CFG blocks; emit each source position once.
        emitted: Set[Tuple[int, int, str, str]] = set()
        for access in accesses:
            guard_set = guards.get(access.attr)
            if not guard_set or access.held & frozenset(guard_set):
                continue
            key = (
                getattr(access.node, "lineno", 0),
                getattr(access.node, "col_offset", 0),
                access.attr,
                access.kind,
            )
            if key in emitted:
                continue
            emitted.add(key)
            guard_text = "/".join(f"self.{g}" for g in sorted(guard_set))
            writer = sorted(writers.get(access.attr, {access.method}))[0]
            yield _diag(
                module,
                "RPL100",
                access.node,
                f"`self.{access.attr}` is guarded by `{guard_text}` "
                f"(written under it in `{cls.name}.{writer}`); this "
                f"{access.kind} in `{cls.name}.{access.method}` can run "
                f"without holding the lock",
                scope_line=access.def_line,
            )


# ---------------------------------------------------------------------------
# RPL101 — deadline propagation
# ---------------------------------------------------------------------------


def _annotation_text(annotation: Optional[ast.AST]) -> str:
    if annotation is None:
        return ""
    try:
        return ast.unparse(annotation)
    except (ValueError, AttributeError):  # pragma: no cover - malformed node
        return ""


def _deadline_params(func: FuncDef) -> List[str]:
    """Parameter names annotated with a ``Deadline`` type.

    Keyed on the annotation, never the name: ``jobs.pool`` and
    ``features.parallel`` use ``deadline`` for plain float epochs, which
    this rule must not claim.
    """
    out: List[str] = []
    all_args = (
        func.args.posonlyargs
        + func.args.args
        + func.args.kwonlyargs
        + ([func.args.vararg] if func.args.vararg else [])
        + ([func.args.kwarg] if func.args.kwarg else [])
    )
    for arg in all_args:
        if "Deadline" in _annotation_text(arg.annotation):
            out.append(arg.arg)
    return out


def _module_aware_callees(tree: ast.Module) -> FrozenSet[str]:
    """Names of functions/methods defined in this module that accept a
    ``Deadline`` parameter — calls to them must forward one."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _deadline_params(node):
                out.add(node.name)
    return frozenset(out)


def _carrying_names(func: FuncDef, params: Sequence[str]) -> FrozenSet[str]:
    """Names that (may) carry a deadline: the parameters plus any local
    assigned from an expression mentioning a carrying name or the
    ``Deadline`` type (``stage = Deadline.after(0.1)``,
    ``effective = _effective_deadline(deadline, stage)``)."""
    carrying: Set[str] = set(params)
    changed = True
    while changed:
        changed = False
        for node in _walk_scope(func, skip_root_scope=True):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            mentions = False
            for sub in ast.walk(value):
                if isinstance(sub, ast.Name) and (
                    sub.id in carrying or sub.id == "Deadline"
                ):
                    mentions = True
                    break
                if isinstance(sub, ast.Attribute) and sub.attr == "after":
                    mentions = True
                    break
            if not mentions:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for name in _target_names(target):
                    if name not in carrying:
                        carrying.add(name)
                        changed = True
    return frozenset(carrying)


def _target_names(target: ast.AST) -> List[str]:
    out: List[str] = []
    if isinstance(target, ast.Name):
        out.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            out.extend(_target_names(element))
    return out


def _call_passes_deadline(call: ast.Call, carrying: FrozenSet[str]) -> bool:
    """Whether a call forwards a deadline: a ``deadline=``-ish keyword
    (even an explicit ``None`` is a decision, not an oversight) or any
    argument expression referencing a deadline-carrying name."""
    for keyword in call.keywords:
        if keyword.arg is not None and "deadline" in keyword.arg.lower():
            return True
    values: List[ast.AST] = list(call.args)
    values.extend(k.value for k in call.keywords)
    for value in values:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name) and sub.id in carrying:
                return True
    return False


def _references_any(func: FuncDef, names: Sequence[str]) -> bool:
    wanted = set(names)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in wanted:
            if isinstance(node.ctx, ast.Load):
                return True
    return False


@rule(
    "RPL101",
    "deadline-propagation",
    "a function receiving a Deadline must check it or forward it into "
    "every deadline-aware call it makes",
)
def check_deadline_propagation(module: ModuleSource) -> Iterator[Diagnostic]:
    aware = _module_aware_callees(module.tree) | _DEADLINE_AWARE_CALLEES
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _deadline_params(func)
        if not params:
            continue
        if not _references_any(func, params):
            joined = ", ".join(f"`{p}`" for p in params)
            yield _diag(
                module,
                "RPL101",
                func,
                f"`{func.name}` accepts a Deadline parameter ({joined}) "
                f"but never checks or forwards it — callers' budgets are "
                f"silently unbounded here",
                scope_line=func.lineno,
            )
            continue
        carrying = _carrying_names(func, params)
        for node in _walk_scope(func, skip_root_scope=True):
            if not isinstance(node, ast.Call):
                continue
            tail = _dotted_tail(node.func)
            if tail is None or tail not in aware or tail == func.name:
                continue
            if _call_passes_deadline(node, carrying):
                continue
            yield _diag(
                module,
                "RPL101",
                node,
                f"`{func.name}` holds a Deadline but calls deadline-aware "
                f"`{tail}` without forwarding one — the stage runs "
                f"unbounded; pass `{params[0]}` or a derived deadline",
                scope_line=func.lineno,
            )


# ---------------------------------------------------------------------------
# RPL102 — resource lifecycle
# ---------------------------------------------------------------------------


@rule(
    "RPL102",
    "resource-lifecycle",
    "open()/socket/HTTPConnection values must reach close() or `with` "
    "on every non-exceptional CFG path",
)
def check_resource_lifecycle(module: ModuleSource) -> Iterator[Diagnostic]:
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cfg = build_cfg(func)
        analysis = LiveResourcesAnalysis()
        result = run_forward(cfg, analysis)
        exit_state = result.block_in.get(cfg.exit.bid)
        if not exit_state:
            continue  # unreachable exit, or nothing leaked
        seen: Set[Tuple[str, int, str]] = set()
        for var, line, ctor in sorted(exit_state):
            if (var, line, ctor) in seen:  # pragma: no cover - frozenset
                continue
            seen.add((var, line, ctor))
            anchor = ast.Pass()
            anchor.lineno = line
            anchor.col_offset = 0
            yield _diag(
                module,
                "RPL102",
                anchor,
                f"`{var}` (from `{ctor}` in `{func.name}`) may still be "
                f"open when the function exits normally — close it on "
                f"every path or use `with`",
                scope_line=func.lineno,
            )
