"""Per-class symbol environments and the semantic constraint checks.

Five constraints are enforced over every schema block (local definitions,
state, init, each operation):

* OZ-SEM-101 circular declaration: a variable declared from a variable of
  the same schema.  Any same-schema reference in a type position is
  flagged, regardless of declaration order.
* OZ-SEM-102 undefined type: a type leaf that resolves to no given type,
  class name, generic parameter or builtin.
* OZ-SEM-103 duplicate declaration: the same name declared more than once
  in one block; the second and later occurrences are reported.
* OZ-SEM-104 type name reuse: a variable named like a type.
* OZ-SEM-105 delta list membership: a delta (or xi) list entry that is not
  a state variable; constants from local definitions do not qualify.

Inheritance is resolved before checking: state variables, constants, the
init schema and operations are flattened from ancestors with
child-overrides-parent merging, while the visibility list stays strictly
local.  Checks examine a block's own declarations; the variable universe
they consult includes inherited members.

All checks are independent: one declaration may produce several findings.
The environment is built once per specification and never mutated, so
per-class analysis is safe to run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import diagnostics as diag
from .diagnostics import Diagnostic
from .lexer import Position
from .ozgrammar import (
    ClassDef,
    Declaration,
    GivenTypeDecl,
    NameRef,
    OperationSchema,
    SchemaBlock,
    Specification,
    named_leaves,
)

LOCAL = "local"
INHERITED = "inherited"


@dataclass(frozen=True)
class TypeEnv:
    """Type names visible in a specification.

    Builtin types are LaTeX commands and can never collide with Word
    identifiers, so only given types, class names and the generic
    parameters of the class being checked take part in resolution and
    clash checks.
    """

    given_types: frozenset[str]
    class_names: frozenset[str]

    def resolvable(self, name: str, generic_params: frozenset[str]) -> bool:
        return (name in self.given_types or name in self.class_names
                or name in generic_params)


def build_type_env(spec: Specification) -> TypeEnv:
    given: set[str] = set()
    classes: set[str] = set()
    for para in spec.paragraphs:
        if isinstance(para, GivenTypeDecl):
            given.update(r.name for r in para.names)
        else:
            classes.add(para.name)
    return TypeEnv(frozenset(given), frozenset(classes))


@dataclass(frozen=True)
class ScopeEntry:
    name: str
    declaration: Declaration
    origin: str  # LOCAL or INHERITED


@dataclass(frozen=True)
class SchemaScope:
    """The variables of one schema block of one class.

    Entries are ordered by declaration position and duplicates are kept,
    which the duplicate check depends on.  ``entries`` may include
    inherited members; the checks only report on the local ones.
    ``generic_params`` are the owner class's own generic parameters.
    """

    owner_class: str
    block: str
    entries: tuple[ScopeEntry, ...]
    generic_params: frozenset[str]

    def local_entries(self) -> tuple[ScopeEntry, ...]:
        return tuple(e for e in self.entries if e.origin == LOCAL)

    def variable_names(self) -> frozenset[str]:
        return frozenset(e.name for e in self.entries)


class UnknownParentError(Exception):
    code = diag.UNKNOWN_PARENT
    detail = None

    def __init__(self, child: str, ref: NameRef):
        super().__init__(f"class {child}: unknown parent {ref.name}")
        self.ref = ref


class InheritanceCycleError(Exception):
    code = diag.INHERITANCE_CYCLE

    def __init__(self, cycle: tuple[str, ...], ref: NameRef):
        self.detail = " -> ".join(cycle)
        super().__init__(f"inheritance cycle: {self.detail}")
        self.ref = ref


@dataclass(frozen=True)
class ResolvedClass:
    """A class with its inherited members flattened in.

    State variables, constants, the init schema and operations come from
    ancestors merged under child-overrides-parent; the visibility list is
    never inherited.
    """

    cls: ClassDef
    state_entries: tuple[ScopeEntry, ...]
    constant_entries: tuple[ScopeEntry, ...]
    init_block: SchemaBlock | None
    operations: tuple[OperationSchema, ...]

    @property
    def name(self) -> str:
        return self.cls.name

    @property
    def visibility(self) -> tuple[NameRef, ...] | None:
        return self.cls.visibility

    def state_variable_names(self) -> frozenset[str]:
        return frozenset(e.name for e in self.state_entries)


def _merge(
    parent: tuple[ScopeEntry, ...], child: tuple[ScopeEntry, ...]
) -> tuple[ScopeEntry, ...]:
    child_names = {e.name for e in child}
    inherited = tuple(
        ScopeEntry(e.name, e.declaration, INHERITED)
        for e in parent
        if e.name not in child_names
    )
    return inherited + child

def _local_entries(decls: tuple[Declaration, ...]) -> tuple[ScopeEntry, ...]:
    return tuple(ScopeEntry(d.name, d, LOCAL) for d in decls)


class _Resolution:
    """A class whose parents are being merged in, one at a time."""

    def __init__(self, c: ClassDef) -> None:
        self.cls = c
        self.next_parent = 0  # index into c.inherits
        self.state = _local_entries(c.state.declarations if c.state else ())
        self.constants = _local_entries(c.local_defs)
        self.init = c.init
        self.ops: dict[str, OperationSchema] = {}

    def inherit(self, parent: ResolvedClass) -> None:
        self.state = _merge(parent.state_entries, self.state)
        self.constants = _merge(parent.constant_entries, self.constants)
        if self.init is None:
            self.init = parent.init_block
        for op in parent.operations:
            self.ops.setdefault(op.name, op)

    def resolved(self) -> ResolvedClass:
        for op in self.cls.operations:
            self.ops[op.name] = op
        return ResolvedClass(
            cls=self.cls,
            state_entries=self.state,
            constant_entries=self.constants,
            init_block=self.init,
            operations=tuple(self.ops.values()),
        )


def resolve_inheritance(
    c: ClassDef,
    env: dict[str, ClassDef],
    _cache: dict[int, ResolvedClass] | None = None,
) -> ResolvedClass:
    """Flatten the ancestors of ``c`` transitively.

    A parent name refers to the class ``env`` maps it to; ``c`` itself need
    not be that class (a later class of a repeated name is resolved with
    its own members).  Parents are resolved depth-first in declaration
    order, with an explicit stack because chain length is input-controlled.
    Raises :class:`UnknownParentError` when an inherited class is not in
    ``env`` and :class:`InheritanceCycleError` when a class is reachable
    from itself; the cycle runs from ``c`` along the path being resolved.
    ``_cache`` is keyed by the identity of the class.
    """
    if _cache is None:
        _cache = {}
    if id(c) in _cache:
        return _cache[id(c)]

    path = [_Resolution(c)]
    on_path = {id(c)}
    while True:
        top = path[-1]
        child = top.cls
        if top.next_parent < len(child.inherits):
            ref = child.inherits[top.next_parent]
            top.next_parent += 1
            parent_cls = env.get(ref.name)
            if parent_cls is None:
                raise UnknownParentError(child.name, ref)
            if id(parent_cls) in on_path:
                cycle = tuple(r.cls.name for r in path) + (ref.name,)
                raise InheritanceCycleError(cycle, ref)
            parent = _cache.get(id(parent_cls))
            if parent is None:
                path.append(_Resolution(parent_cls))
                on_path.add(id(parent_cls))
            else:
                top.inherit(parent)
            continue
        resolved = _cache[id(child)] = top.resolved()
        path.pop()
        on_path.discard(id(child))
        if not path:
            return resolved
        path[-1].inherit(resolved)


# ---------------------------------------------------------------------------
# The five checks.  Each returns its diagnostics; none suppresses another.


def _finding(code: str, symbol: str, pos: Position, class_name: str,
             block: str, detail: str | None = None) -> Diagnostic:
    """A finding about ``symbol`` at the line and column of ``pos``."""
    return Diagnostic(code, symbol, pos.line, pos.column, class_name, block,
                      detail)


def check_circular(scope: SchemaScope) -> list[Diagnostic]:
    """OZ-SEM-101 for every same-schema variable referenced as a type."""
    names = scope.variable_names()
    return [
        _finding(diag.CIRCULAR_DECL, leaf.name, leaf.pos, scope.owner_class,
                 scope.block, entry.name)
        for entry in scope.local_entries()
        for leaf in named_leaves(entry.declaration.type_expr)
        if leaf.name in names
    ]


def check_undefined_types(scope: SchemaScope, env: TypeEnv) -> list[Diagnostic]:
    """OZ-SEM-102 for every type leaf that resolves to nothing."""
    return [
        _finding(diag.UNDEFINED_TYPE, leaf.name, leaf.pos, scope.owner_class,
                 scope.block)
        for entry in scope.local_entries()
        for leaf in named_leaves(entry.declaration.type_expr)
        if not env.resolvable(leaf.name, scope.generic_params)
    ]


def check_duplicates(scope: SchemaScope) -> list[Diagnostic]:
    """OZ-SEM-103 on the second and later declarations of one name."""
    out: list[Diagnostic] = []
    seen: set[str] = set()
    for entry in scope.local_entries():
        if entry.name in seen:
            out.append(_finding(diag.DUPLICATE_DECL, entry.name,
                                entry.declaration.pos, scope.owner_class,
                                scope.block))
        seen.add(entry.name)
    return out


def check_type_name_clash(scope: SchemaScope, env: TypeEnv) -> list[Diagnostic]:
    """OZ-SEM-104 when a declared variable carries a type's name."""
    return [
        _finding(diag.TYPE_NAME_CLASH, entry.name, entry.declaration.pos,
                 scope.owner_class, scope.block)
        for entry in scope.local_entries()
        if env.resolvable(entry.name, scope.generic_params)
    ]


def check_delta_list(op: OperationSchema, rc: ResolvedClass) -> list[Diagnostic]:
    """OZ-SEM-105 for delta entries outside the (flattened) state variables."""
    if op.delta is None:
        return []
    state_names = rc.state_variable_names()
    return [
        _finding(diag.DELTA_NOT_STATE_VAR, ref.name, ref.pos, rc.name,
                 diag.operation_block(op.name))
        for ref in op.delta.names
        if ref.name not in state_names
    ]


# ---------------------------------------------------------------------------


def class_scopes(rc: ResolvedClass) -> list[SchemaScope]:
    """The checkable scopes of a class: local defs, state, init, operations."""
    c = rc.cls
    generics = frozenset(r.name for r in c.generic_params)
    blocks: list[tuple[str, tuple[ScopeEntry, ...]]] = []
    if c.local_defs:
        blocks.append((diag.BLOCK_LOCAL_DEFS, rc.constant_entries))
    if c.state is not None:
        blocks.append((diag.BLOCK_STATE, rc.state_entries))
    if c.init is not None:
        blocks.append((diag.BLOCK_INIT, _local_entries(c.init.declarations)))
    for op in c.operations:
        blocks.append((diag.operation_block(op.name),
                       _local_entries(op.declarations)))
    return [SchemaScope(c.name, block, entries, generics)
            for block, entries in blocks]


def analyze(spec: Specification) -> list[Diagnostic]:
    """Run every check over every schema block of every class.

    Diagnostics are ordered by source position, ties broken by code.
    Inheritance failures surface as OZ-INH diagnostics and the class is
    then checked against its local members only.  A repeated class name
    refers to its first class; every class is checked with its own blocks.
    """
    env = build_type_env(spec)
    classes: dict[str, ClassDef] = {}
    for c in spec.classes:
        classes.setdefault(c.name, c)  # a name refers to its first class
    cache: dict[int, ResolvedClass] = {}
    out: list[Diagnostic] = []

    for c in spec.classes:
        try:
            rc = resolve_inheritance(c, classes, cache)
        except (UnknownParentError, InheritanceCycleError) as e:
            out.append(_finding(e.code, e.ref.name, e.ref.pos, c.name,
                                diag.BLOCK_INHERITANCE, e.detail))
            rc = _Resolution(c).resolved()  # local members only

        for scope in class_scopes(rc):
            out.extend(check_circular(scope))
            out.extend(check_undefined_types(scope, env))
            out.extend(check_duplicates(scope))
            out.extend(check_type_name_clash(scope, env))
        for op in c.operations:
            out.extend(check_delta_list(op, rc))

    return sorted(out, key=Diagnostic.sort_key)
