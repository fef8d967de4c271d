"""Inheritance resolution and the semantic constraint checks.

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

A class's state variables include those of its ancestors: OZ-SEM-101 in
the state schema and OZ-SEM-105 consult them.  Visibility lists are not
inherited.  Checks report only on a block's own declarations.

All checks are independent: one declaration may produce several findings.
"""
from __future__ import annotations

from . import diagnostics as diag
from .diagnostics import Diagnostic
from .lexer import Token
from .ozgrammar import (
    ClassDef,
    Declaration,
    GivenTypeDecl,
    NameRef,
    Specification,
    named_leaves,
)


def _state_names(c: ClassDef) -> set[str]:
    return {d.name for d in c.state.declarations} if c.state else set()


def resolve_inheritance(
    c: ClassDef,
    env: dict[str, ClassDef],
    _cache: dict[int, frozenset[str] | NameRef] | None = None,
) -> tuple[frozenset[str], Diagnostic | None]:
    """The state-variable names of ``c`` and of its ancestors, and None; or,
    if resolution fails, ``c``'s own names and the OZ-INH finding of the
    first failing parent edge.

    A parent name refers to the class ``env`` maps it to; ``c`` itself need
    not be that class (a later class of a repeated name is resolved with
    its own members).  Parents are resolved depth-first in declaration
    order, with an explicit stack because chain length is input-controlled;
    a parent listed again is skipped, since its first edge already merged it.
    An edge fails when the inherited class is not in ``env`` (OZ-INH-201)
    or is on the path being resolved (OZ-INH-202, whose detail is the path
    from ``c`` around the cycle).  ``_cache`` is keyed by the identity of
    the class and holds its names, or the missing parent every class on
    the failing path reaches first: the earlier edges of each resolved, and
    a resolved class reaches no failing one.  Cycles are not cached, since
    each class's detail starts at itself.
    """
    if _cache is None:
        _cache = {}
    own = frozenset(_state_names(c))
    hit = _cache.get(id(c))
    path = ([] if hit is not None
            else [(c, iter(dict.fromkeys(c.inherits)), set(own))])
    on_path = {id(c)}
    while path:
        child, parents, names = path[-1]
        ref = next(parents, None)
        if ref is None:
            hit = _cache[id(child)] = frozenset(names)
            path.pop()
            on_path.discard(id(child))
            if path:
                path[-1][2].update(hit)
            continue
        parent = env.get(ref.name)
        if parent is not None and id(parent) in on_path:
            cycle = " -> ".join([p[0].name for p in path] + [ref.name])
            return own, _finding(diag.INHERITANCE_CYCLE, ref.name, ref.pos,
                                 c.name, diag.BLOCK_INHERITANCE, cycle)
        hit = ref if parent is None else _cache.get(id(parent))
        if isinstance(hit, NameRef):
            for p in path:
                _cache[id(p[0])] = hit
            break
        if hit is None:
            path.append((parent, iter(dict.fromkeys(parent.inherits)),
                         _state_names(parent)))
            on_path.add(id(parent))
        else:
            names.update(hit)
    if isinstance(hit, NameRef):
        return own, _finding(diag.UNKNOWN_PARENT, hit.name, hit.pos, c.name,
                             diag.BLOCK_INHERITANCE)
    return hit, None


def _finding(code: str, symbol: str, pos: Token, class_name: str,
             block: str, detail: str | None = None) -> Diagnostic:
    """A finding about ``symbol`` at the line and column of its token."""
    return Diagnostic(code, symbol, pos.line, pos.column, class_name, block,
                      detail)


def _check_block(out: list[Diagnostic], class_name: str, block: str,
                 decls: tuple[Declaration, ...], types: set[str],
                 generics: frozenset[str],
                 variables: frozenset[str] | None = None) -> None:
    """OZ-SEM-101..104 over the declarations of one block.

    A Word names a type when it is in ``types`` or in the class's
    ``generics``; ``variables`` are the names a type leaf may not refer to,
    by default the block's own.
    """
    if variables is None:
        variables = frozenset(d.name for d in decls)
    seen: set[str] = set()
    for d in decls:
        for leaf in named_leaves(d.type_expr):
            if leaf.name in variables:
                out.append(_finding(diag.CIRCULAR_DECL, leaf.name, leaf.pos,
                                    class_name, block, d.name))
            if leaf.name not in types and leaf.name not in generics:
                out.append(_finding(diag.UNDEFINED_TYPE, leaf.name, leaf.pos,
                                    class_name, block))
        if d.name in seen:
            out.append(_finding(diag.DUPLICATE_DECL, d.name, d.pos,
                                class_name, block))
        seen.add(d.name)
        if d.name in types or d.name in generics:
            out.append(_finding(diag.TYPE_NAME_CLASH, d.name, d.pos,
                                class_name, block))


def analyze(spec: Specification) -> list[Diagnostic]:
    """Run every check over every schema block of every class.

    Diagnostics are ordered by source position, ties broken by code.
    Inheritance failures surface as OZ-INH diagnostics and the class is
    then checked against its own state variables only.  A repeated class
    name refers to its first class; every class is checked with its own
    blocks.  Builtin types are LaTeX commands and never collide with Word
    identifiers, so only given types, class names and the class's own
    generic parameters resolve a Word type.
    """
    types: set[str] = set()
    classes: dict[str, ClassDef] = {}
    for para in spec.paragraphs:
        if isinstance(para, GivenTypeDecl):
            types.update(r.name for r in para.names)
        else:
            types.add(para.name)
            classes.setdefault(para.name, para)  # a name refers to its first class
    cache: dict[int, frozenset[str] | NameRef] = {}
    out: list[Diagnostic] = []

    for c in spec.classes:
        state, finding = resolve_inheritance(c, classes, cache)
        if finding is not None:
            out.append(finding)

        generics = frozenset(r.name for r in c.generic_params)
        if c.local_defs:
            _check_block(out, c.name, diag.BLOCK_LOCAL_DEFS, c.local_defs,
                         types, generics)
        if c.state is not None:
            _check_block(out, c.name, diag.BLOCK_STATE, c.state.declarations,
                         types, generics, state)
        if c.init is not None:
            _check_block(out, c.name, diag.BLOCK_INIT, c.init.declarations,
                         types, generics)
        for op in c.operations:
            block = diag.operation_block(op.name)
            _check_block(out, c.name, block, op.declarations, types, generics)
            if op.delta is not None:
                out.extend(_finding(diag.DELTA_NOT_STATE_VAR, ref.name, ref.pos,
                                    c.name, block)
                           for ref in op.delta.names if ref.name not in state)

    return sorted(out, key=Diagnostic.sort_key)
