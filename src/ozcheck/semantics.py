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


def resolve_inheritance(
    classes: tuple[ClassDef, ...], env: dict[str, ClassDef],
) -> list[tuple[int, Diagnostic | None]]:
    """For each of ``classes``, in order, the mask of the classes whose
    state variables it has and None; or, if resolution fails, the class's
    own bit and the OZ-INH finding of its first failing parent edge.  Bit i
    of a mask stands for ``classes[i]``.  A parent name refers to the class
    ``env`` maps it to, one of ``classes``, so a later class of a repeated
    name is resolved with its own members.

    One depth-first pass resolves every class, parents in declaration
    order, with an explicit stack because chain length is input-controlled.
    An edge fails when the inherited class is not in ``env`` (OZ-INH-201),
    is on the path (so on a cycle) or fails itself; which edge of a class
    fails first therefore does not depend on where the pass began.  A
    finding follows the first failing edges from its class to the missing
    parent, or once around the cycle (OZ-INH-202, whose detail is that
    path).
    """
    index = {id(c): i for i, c in enumerate(classes)}
    first = {name: index[id(c)] for name, c in env.items()}
    masks = [0] * len(classes)  # 0 unvisited, -1 on the path or failing
    failing: dict[int, NameRef] = {}  # a class's first failing parent edge
    out: list[tuple[int, Diagnostic | None]] = []
    for i, c in enumerate(classes):
        path = [] if masks[i] else [[i, iter(c.inherits), 1 << i, None]]
        masks[i] = masks[i] or -1
        while path:
            top = path[-1]  # [class, parents to go, its mask, its edge]
            ref = top[3] = next(top[1], None)
            if ref is None:
                masks[top[0]] = top[2]
                path.pop()
                if path:
                    path[-1][2] |= top[2]
                continue
            j = first.get(ref.name, -1)
            if j < 0 or masks[j] < 0:
                failing.update((k, r) for k, _, _, r in path)
                break
            if masks[j]:
                top[2] |= masks[j]
            else:
                path.append([j, iter(classes[j].inherits), 1 << j, None])
                masks[j] = -1
        walk: dict[int, NameRef] = {}  # c's first failing edges, in turn
        j = i
        while j in failing and j not in walk:
            ref = walk[j] = failing[j]
            j = first.get(ref.name, -1)
        if not walk:
            out.append((masks[i], None))
            continue
        if j in walk:
            code = diag.INHERITANCE_CYCLE
            detail = " -> ".join([classes[k].name for k in walk] + [ref.name])
        else:
            code, detail = diag.UNKNOWN_PARENT, None
            failing.update(dict.fromkeys(walk, ref))  # the next walk ends here
        out.append((1 << i, _finding(code, ref.name, ref.pos, c.name,
                                     diag.BLOCK_INHERITANCE, detail)))
    return out


def _finding(code: str, symbol: str, pos: Token, class_name: str,
             block: str, detail: str | None = None) -> Diagnostic:
    """A finding about ``symbol`` at the line and column of its token."""
    return Diagnostic(code, symbol, pos.line, pos.column, class_name, block,
                      detail)


def _check_block(out: list[Diagnostic], class_name: str, block: str,
                 decls: tuple[Declaration, ...], types: set[str],
                 generics: frozenset[str],
                 variables: dict[str, int] | None = None, mask: int = 1) -> None:
    """OZ-SEM-101..104 over the declarations of one block.

    A Word names a type when it is in ``types`` or in the class's
    ``generics``; a type leaf may not refer to a name whose mask in
    ``variables`` meets ``mask``, by default one of the block's own names.
    """
    if variables is None:
        variables = {d.name: 1 for d in decls}
    seen: set[str] = set()
    for d in decls:
        for leaf in named_leaves(d.type_expr):
            if leaf.name in variables and variables[leaf.name] & mask:
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
    env: dict[str, ClassDef] = {}
    for para in spec.paragraphs:
        if isinstance(para, GivenTypeDecl):
            types.update(r.name for r in para.names)
        else:
            types.add(para.name)
            env.setdefault(para.name, para)  # a name refers to its first class
    classes = spec.classes
    state: dict[str, int] = {}  # a state variable's declaring classes
    for i, c in enumerate(classes):
        for d in c.state.declarations if c.state else ():
            state[d.name] = state.get(d.name, 0) | 1 << i
    resolved = resolve_inheritance(classes, env)
    out = [finding for _, finding in resolved if finding is not None]
    for c, (mask, _) in zip(classes, resolved):
        generics = frozenset(r.name for r in c.generic_params)
        if c.local_defs:
            _check_block(out, c.name, diag.BLOCK_LOCAL_DEFS, c.local_defs,
                         types, generics)
        if c.state is not None:
            _check_block(out, c.name, diag.BLOCK_STATE, c.state.declarations,
                         types, generics, state, mask)
        if c.init is not None:
            _check_block(out, c.name, diag.BLOCK_INIT, c.init.declarations,
                         types, generics)
        for op in c.operations:
            block = diag.operation_block(op.name)
            _check_block(out, c.name, block, op.declarations, types, generics)
            if op.delta is not None:
                out.extend(_finding(diag.DELTA_NOT_STATE_VAR, ref.name, ref.pos,
                                    c.name, block)
                           for ref in op.delta.names
                           if not state.get(ref.name, 0) & mask)

    return sorted(out, key=Diagnostic.sort_key)
